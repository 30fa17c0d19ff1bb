//! `reuse_cli` — command-line front end for the reuse-dnn workspace.
//!
//! ```text
//! reuse_cli inspect <kaldi|eesen|c3d|autopilot>     layer table + model stats
//! reuse_cli run <workload> [executions]             run the reuse engine, print summary
//! reuse_cli run <workload> [executions] --telemetry print the TelemetrySnapshot as JSON
//! reuse_cli run <workload> [executions] --sessions N multi-session smoke over one model
//! reuse_cli serve [workload] --streams N --frames M StreamServer smoke vs standalone
//! reuse_cli serve [workload] --sig-cache            ... plus signature-cache smoke passes
//! reuse_cli serve-net [workload] --port P --shards N serve over TCP (length-prefixed frames)
//! reuse_cli serve-net [workload] --smoke            loopback round-trip vs standalone
//! reuse_cli simulate <workload> [executions]        accelerator baseline vs reuse
//! reuse_cli tune <workload> [executions]            replay auto-tuner: static vs adaptive,
//!                [--out FILE] [--smoke]             emits a tuned policy file (JSON)
//! reuse_cli ingest <model.onnx> [frames] [--smoke]  lower an ONNX model, replay a jitter
//!                                                   stream, report similarity + fallbacks
//! reuse_cli export <workload> <path>                serialize the model to a file
//! reuse_cli experiments                             list the `repro` subcommands
//! ```
//!
//! Scale is controlled by `REUSE_SCALE` (full/small/tiny, default small),
//! like the experiment binaries.
//!
//! Diagnostics and failures go to stderr; stdout carries only the
//! machine-parseable result (tables, summaries, JSON). Every early-exit
//! path has a distinct code so CI can tell failure modes apart:
//! `2` usage, `3` execution failure, `4` session/engine divergence,
//! `5` I/O failure, `6` serve/standalone divergence.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use reuse_bench::measure::executions_from_env;
use reuse_bench::streams::{bits_eq, drive, random_walk, run_frames, standalone, OffsetStreams};
use reuse_bench::table::{human_bytes, human_joules, human_seconds};
use reuse_core::{
    summary, AdaptivePolicy, CompiledModel, EngineMetrics, LayerPolicyState, ReuseSession,
    TunedLayerPolicy, TunedPolicy, WatchdogStats,
};
use reuse_nn::stats::network_stats;
use reuse_serve::{default_shards, ServerConfig, StreamServer};
use reuse_serve_net::{NetClient, NetServer, Status};
use reuse_workloads::{Scale, Workload, WorkloadKind};

/// Bad arguments.
const EXIT_USAGE: u8 = 2;
/// An engine/session execution returned an error.
const EXIT_EXEC: u8 = 3;
/// Interleaved sessions diverged from standalone sessions.
const EXIT_DIVERGED: u8 = 4;
/// Filesystem I/O failed.
const EXIT_IO: u8 = 5;
/// The serving runtime diverged from standalone sessions.
const EXIT_SERVE_DIVERGED: u8 = 6;

fn parse_workload(name: &str) -> Option<WorkloadKind> {
    match name.to_lowercase().as_str() {
        "kaldi" => Some(WorkloadKind::Kaldi),
        "eesen" => Some(WorkloadKind::Eesen),
        "c3d" => Some(WorkloadKind::C3d),
        "autopilot" => Some(WorkloadKind::AutoPilot),
        _ => None,
    }
}

/// The process exit code of a smoke: 0, or the code it failed with.
fn exit(outcome: Result<(), u8>) -> ExitCode {
    ExitCode::from(outcome.err().unwrap_or(0))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: reuse_cli <command> [args]\n\n\
         commands:\n\
         \x20 inspect  <workload>               layer table and model statistics\n\
         \x20 run      <workload> [executions]  run the reuse engine, print the reuse summary\n\
         \x20          [--telemetry]            ... and print the TelemetrySnapshot as JSON\n\
         \x20          [--sessions N]           ... interleave N sessions over one shared model\n\
         \x20                                   and check them against standalone sessions\n\
         \x20 serve    [workload]               serve N streams through a StreamServer and\n\
         \x20          [--streams N]            check every stream bit-for-bit against a\n\
         \x20          [--frames M]             standalone session (prints the server\n\
         \x20          [--sig-cache]            snapshot JSON; exits {EXIT_SERVE_DIVERGED} on divergence)\n\
         \x20                                   --sig-cache adds two cross-stream cache passes:\n\
         \x20                                   capacity 0 (bit-identity) and full capacity\n\
         \x20 serve-net [workload]              serve the sharded tier over TCP (length-\n\
         \x20          [--port P]               prefixed binary frames; default port 7433)\n\
         \x20          [--shards N]             shard count (default: hardware threads, max 8)\n\
         \x20          [--streams N]            --smoke binds an OS-assigned loopback port,\n\
         \x20          [--frames M]             drives N streams x M frames through a real\n\
         \x20          [--smoke]                client, and checks every output bit-for-bit\n\
         \x20                                   against standalone sessions (exits {EXIT_SERVE_DIVERGED})\n\
         \x20 simulate <workload> [executions]  simulate baseline vs reuse accelerators\n\
         \x20 tune     <workload> [executions]  replay auto-tuner: run static vs adaptive\n\
         \x20          [--out FILE]             sessions over the same stream, print both\n\
         \x20          [--smoke]                operating points, and emit the adaptive\n\
         \x20                                   run's final per-layer state as a tuned\n\
         \x20                                   policy file (stdout, plus --out FILE); the\n\
         \x20                                   file is reparsed and recompiled, exiting\n\
         \x20                                   {EXIT_DIVERGED} on round-trip mismatch (--smoke: short run)\n\
         \x20 ingest   <model.onnx> [frames]    parse + lower an ONNX model, replay a\n\
         \x20          [--smoke]                synthetic-jitter stream, and report per-layer\n\
         \x20                                   similarity, skipped-MAC projection and\n\
         \x20                                   recompute-always fallbacks (--smoke runs the\n\
         \x20                                   built-in fixture checks; exits {EXIT_DIVERGED} on\n\
         \x20                                   divergence, {EXIT_EXEC} on parse/lower failure)\n\
         \x20 export   <workload> <path>        serialize the model to a file\n\
         \x20 experiments                       list the paper artifacts `repro` prints\n\n\
         workloads: kaldi, eesen, c3d, autopilot (REUSE_SCALE=full|small|tiny)"
    );
    ExitCode::from(EXIT_USAGE)
}

/// Execution-unit length (0 = single frames) and frames per stream for
/// `run <workload> <executions>`: recurrent workloads run whole sequences
/// of up to 40 steps, one more than `executions` needs.
fn run_shape(w: &Workload, executions: usize) -> (usize, usize) {
    if w.is_recurrent() {
        let seq_len = 40.min(executions.max(2));
        (seq_len, (executions.div_ceil(seq_len) + 1) * seq_len)
    } else {
        (0, executions)
    }
}

/// Holds every served stream to a standalone session fed the same frames
/// alone: output count, each output bit for bit, and the serving session's
/// metrics through `metrics_match(stream, standalone metrics)`. Returns the
/// number of mismatches (each reported on stderr), or the exit code when a
/// reference session fails.
fn standalone_mismatches(
    model: &Arc<CompiledModel>,
    streams: &OffsetStreams,
    seq_len: usize,
    served: &[Vec<Vec<f32>>],
    metrics_match: impl Fn(usize, &EngineMetrics) -> bool,
) -> Result<usize, u8> {
    let mut mismatches = 0usize;
    for (s, outs) in served.iter().enumerate() {
        let frames = streams.stream(s);
        if outs.len() != frames.len() {
            eprintln!(
                "stream {s}: served {} outputs for {} frames",
                outs.len(),
                frames.len()
            );
            mismatches += 1;
            continue;
        }
        let (reference, alone) = standalone(model, frames, seq_len).map_err(|e| {
            eprintln!("standalone session failed: {e}");
            EXIT_EXEC
        })?;
        for (t, (got, want)) in outs.iter().zip(&reference).enumerate() {
            if !bits_eq(got, want) {
                eprintln!("stream {s} frame {t}: output diverged from standalone session");
                mismatches += 1;
            }
        }
        if !metrics_match(s, alone.metrics()) {
            eprintln!("stream {s}: metrics diverged from standalone session");
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

/// Runs N [`ReuseSession`]s interleaved over one shared [`CompiledModel`]
/// and checks every stream bit-for-bit against a standalone session fed the
/// same inputs alone ([`OffsetStreams`]: realistic frame-to-frame
/// similarity per session, no two sessions on the same input at one step).
fn run_sessions_smoke(
    w: &Workload,
    config: &reuse_core::ReuseConfig,
    executions: usize,
    n: usize,
) -> Result<(), u8> {
    let model = Arc::new(CompiledModel::new(w.network(), config));
    let (seq_len, len) = run_shape(w, executions);
    let streams = OffsetStreams::new(w, n, len, seq_len);
    let mut sessions: Vec<ReuseSession> = (0..n).map(|_| model.new_session()).collect();
    let mut served: Vec<Vec<Vec<f32>>> = vec![Vec::new(); n];
    let unit = seq_len.max(1);
    for t in (0..len).step_by(unit) {
        for (s, session) in sessions.iter_mut().enumerate() {
            let frames = &streams.stream(s)[t..t + unit];
            let keep = |out: &[f32]| served[s].push(out.to_vec());
            if let Err(e) = run_frames(session, frames, seq_len, keep) {
                eprintln!("session {s} failed: {e}");
                return Err(EXIT_EXEC);
            }
        }
    }
    let metrics_match = |s: usize, alone: &EngineMetrics| sessions[s].metrics() == alone;
    let mismatches = standalone_mismatches(&model, &streams, seq_len, &served, metrics_match)?;
    println!(
        "{}: {n} interleaved sessions over one compiled model ({} packed weight bytes shared)",
        w.network().name(),
        model.packed_weight_bytes(),
    );
    for (s, session) in sessions.iter().enumerate() {
        let m = session.metrics();
        println!(
            "  session {s}: input similarity {:5.1}%  computation reuse {:5.1}%",
            m.overall_input_similarity() * 100.0,
            m.overall_computation_reuse() * 100.0,
        );
    }
    if mismatches > 0 {
        eprintln!("FAIL: {mismatches} session/standalone mismatches");
        return Err(EXIT_DIVERGED);
    }
    println!("all sessions bit-identical to standalone sessions");
    Ok(())
}

/// Serves `n` offset streams of `len` frames through a fresh
/// [`StreamServer`] over `model`, every output into `sink(stream, output)`.
/// Returns the drained server and the streams, or the exit code.
fn serve_offset_streams(
    w: &Workload,
    model: &Arc<CompiledModel>,
    n: usize,
    len: usize,
    seq_len: usize,
    sink: impl FnMut(usize, &[f32]),
) -> Result<(StreamServer, OffsetStreams), u8> {
    let server_config = ServerConfig::default()
        .max_sessions(n)
        .queue_capacity((2 * seq_len).max(8))
        .batch_max(4)
        .sequence_len(seq_len);
    let mut server = StreamServer::new(Arc::clone(model), server_config).map_err(|e| {
        eprintln!("cannot construct server: {e}");
        EXIT_EXEC
    })?;
    let streams = OffsetStreams::new(w, n, len, seq_len);
    drive(&mut server, &streams, 0..len, 1, sink).map_err(|e| {
        eprintln!("serving failed: {e}");
        EXIT_EXEC
    })?;
    Ok((server, streams))
}

/// Serves `n` offset streams through a [`StreamServer`] over one shared
/// model and checks every stream's outputs and metrics bit-for-bit against
/// a standalone [`ReuseSession`] fed the same frames alone. With
/// `emit_snapshot` the server snapshot JSON becomes the whole stdout
/// (suppressed when a later pass owns stdout, so `serve` always prints
/// exactly one JSON document); all diagnostics go to stderr.
fn run_serve_smoke(
    w: &Workload,
    config: &reuse_core::ReuseConfig,
    n: usize,
    frames_per_stream: usize,
    emit_snapshot: bool,
) -> Result<(), u8> {
    let model = Arc::new(CompiledModel::new(w.network(), config));
    let seq_len = if w.is_recurrent() {
        10.min(frames_per_stream.max(2))
    } else {
        0
    };
    // Round each stream up to whole sequences for recurrent models.
    let frames_per_stream = if seq_len > 0 {
        frames_per_stream.div_ceil(seq_len) * seq_len
    } else {
        frames_per_stream
    };
    let mut collected: Vec<Vec<Vec<f32>>> = vec![Vec::new(); n];
    let collect = |s: usize, out: &[f32]| collected[s].push(out.to_vec());
    let (server, streams) =
        serve_offset_streams(w, &model, n, frames_per_stream, seq_len, collect)?;
    let metrics_match = |s: usize, alone: &EngineMetrics| {
        server.session(s as u64).map(|sess| sess.metrics()) == Some(alone)
    };
    let mismatches = standalone_mismatches(&model, &streams, seq_len, &collected, metrics_match)?;
    if emit_snapshot {
        // Machine-readable result: the snapshot JSON is the whole stdout.
        print!("{}", server.snapshot().to_json());
    }
    if mismatches > 0 {
        eprintln!("FAIL: {mismatches} serve/standalone mismatches");
        return Err(EXIT_SERVE_DIVERGED);
    }
    eprintln!(
        "{}: {n} streams x {frames_per_stream} frames bit-identical to standalone sessions",
        w.network().name()
    );
    Ok(())
}

/// Serves `n` offset streams over a model compiled with the cross-stream
/// signature cache at full capacity. With a shared, evolving cache,
/// per-stream outputs legitimately depend on what other streams published,
/// so this pass checks completion and counter plumbing rather than bit
/// identity: every stream must finish all its frames, and on feed-forward
/// workloads the cache must actually be consulted (`lookups > 0`).
fn run_serve_cache_smoke(
    w: &Workload,
    config: &reuse_core::ReuseConfig,
    n: usize,
    frames_per_stream: usize,
) -> Result<(), u8> {
    if w.is_recurrent() {
        eprintln!(
            "{}: recurrent network — the signature cache compiles out, nothing to smoke",
            w.network().name()
        );
        return Ok(());
    }
    let model = Arc::new(CompiledModel::new(w.network(), config));
    let mut done = vec![0usize; n];
    let count = |s: usize, _: &[f32]| done[s] += 1;
    let (server, _) = serve_offset_streams(w, &model, n, frames_per_stream, 0, count)?;

    let mut failures = 0usize;
    for (s, count) in done.iter().enumerate() {
        if *count != frames_per_stream {
            eprintln!("stream {s}: served {count} outputs for {frames_per_stream} frames");
            failures += 1;
        }
    }
    let snap = server.snapshot();
    let cache_compiled = model.signature_cache().is_some();
    if cache_compiled && snap.signature.lookups == 0 {
        eprintln!("signature cache compiled in but never consulted");
        failures += 1;
    }
    // Machine-readable result: the snapshot JSON is the whole stdout.
    print!("{}", snap.to_json());
    if failures > 0 {
        eprintln!("FAIL: {failures} signature-cache smoke failures");
        return Err(EXIT_SERVE_DIVERGED);
    }
    eprintln!(
        "{}: {n} streams x {frames_per_stream} frames served with the signature cache \
         ({} lookups, {} hits, {} adoptions, {} bailouts, {} inserts)",
        w.network().name(),
        snap.signature.lookups,
        snap.signature.hits,
        snap.signature.adoptions,
        snap.signature.bailouts,
        snap.signature.inserts,
    );
    Ok(())
}

/// Serves `n` offset streams through the full network stack — a real
/// [`NetServer`] on an OS-assigned loopback port, driven by a blocking
/// [`NetClient`] — and checks every response payload bit-for-bit against a
/// standalone session fed the same frames. This is the CI smoke behind
/// `reuse_cli serve-net --smoke`: it exercises preamble negotiation, frame
/// framing, shard hashing, worker ticks, and tagged response pairing.
fn run_serve_net_smoke(
    w: &Workload,
    shards: usize,
    n: usize,
    frames_per_stream: usize,
) -> Result<(), u8> {
    if w.is_recurrent() {
        eprintln!(
            "{}: recurrent network — serve-net is per-frame only, nothing to smoke",
            w.network().name()
        );
        return Ok(());
    }
    let model = Arc::new(CompiledModel::new(w.network(), w.reuse_config()));
    let loopback = SocketAddr::from(([127, 0, 0, 1], 0));
    let config = ServerConfig::default().max_sessions(n);
    let mut server =
        NetServer::bind(loopback, Arc::clone(&model), config, shards).map_err(|e| {
            eprintln!("cannot bind loopback server: {e}");
            EXIT_IO
        })?;
    let addr = server.local_addr().map_err(|e| {
        eprintln!("cannot read bound address: {e}");
        EXIT_IO
    })?;
    let sharded = Arc::clone(server.sharded());
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::spawn(move || server.run(&stop2));

    let streams = OffsetStreams::new(w, n, frames_per_stream, 0);
    let serve = || -> Result<Vec<Vec<Vec<f32>>>, String> {
        let mut client =
            NetClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("cannot set read timeout: {e}"))?;
        let mut outputs: Vec<Vec<Vec<f32>>> = vec![Vec::new(); n];
        for t in 0..frames_per_stream {
            for (s, outs) in outputs.iter_mut().enumerate() {
                let resp = client
                    .roundtrip(s as u64 + 1, t as u32, &streams.stream(s)[t])
                    .map_err(|e| format!("stream {s} frame {t}: round-trip failed: {e}"))?;
                if resp.status != Status::Ok {
                    return Err(format!("stream {s} frame {t}: status {:?}", resp.status));
                }
                outs.push(resp.payload);
            }
        }
        Ok(outputs)
    };
    let served = serve();
    stop.store(true, Ordering::SeqCst);
    let run_result = handle.join();
    let outputs = served.map_err(|msg| {
        eprintln!("{msg}");
        EXIT_EXEC
    })?;
    match run_result {
        Ok(Ok(())) => {}
        Ok(Err(e)) => {
            eprintln!("server event loop failed: {e}");
            return Err(EXIT_EXEC);
        }
        Err(_) => {
            eprintln!("server event loop panicked");
            return Err(EXIT_EXEC);
        }
    }

    // The shards own the sessions: outputs only.
    let mismatches = standalone_mismatches(&model, &streams, 0, &outputs, |_, _| true)?;
    // Machine-readable result: the sharded snapshot JSON is the whole stdout.
    print!("{}", sharded.snapshot().to_json());
    if mismatches > 0 {
        eprintln!("FAIL: {mismatches} serve-net/standalone mismatches");
        return Err(EXIT_SERVE_DIVERGED);
    }
    eprintln!(
        "{}: {n} streams x {frames_per_stream} frames over TCP ({shards} shards) \
         bit-identical to standalone sessions",
        w.network().name()
    );
    Ok(())
}

/// Binds the sharded serving tier to a real port and runs the event loop
/// until the process is killed.
fn run_serve_net_listen(w: &Workload, shards: usize, port: u16) -> u8 {
    let model = Arc::new(CompiledModel::new(w.network(), w.reuse_config()));
    let mut server = match NetServer::bind(
        SocketAddr::from(([0, 0, 0, 0], port)),
        model,
        ServerConfig::default(),
        shards,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind port {port}: {e}");
            return EXIT_IO;
        }
    };
    let addr = server.local_addr().ok();
    eprintln!(
        "serving {} on {} with {shards} shards (kill the process to stop)",
        w.network().name(),
        addr.map_or_else(|| format!("port {port}"), |a| a.to_string()),
    );
    let stop = AtomicBool::new(false);
    match server.run(&stop) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("server event loop failed: {e}");
            EXIT_EXEC
        }
    }
}

/// One policy's replayed operating point: overall computation reuse, the
/// watchdog's accuracy-proxy stats, and the final per-layer policy state.
struct TuneRun {
    reuse: f64,
    similarity: f64,
    watchdog: WatchdogStats,
    states: Vec<LayerPolicyState>,
}

/// Runs one compiled configuration over the given frames in a fresh
/// session and collects its [`TuneRun`].
fn tune_run(
    w: &Workload,
    config: &reuse_core::ReuseConfig,
    frames: &[Vec<f32>],
) -> Result<TuneRun, reuse_core::ReuseError> {
    let model = Arc::new(CompiledModel::try_new(w.network(), config)?);
    let mut session = model.new_session();
    let mut out = Vec::new();
    for frame in frames {
        session.execute_into(frame, &mut out)?;
    }
    Ok(TuneRun {
        reuse: session.metrics().overall_computation_reuse(),
        similarity: session.metrics().overall_input_similarity(),
        watchdog: session.watchdog_stats(),
        states: session.policy_states(),
    })
}

/// Replay-driven auto-tuner: replays the workload's generated stream
/// through a static and an adaptive session (same frames, drift watchdog
/// armed), prints both operating points plus an offline cluster-count
/// replay sweep, and emits the adaptive run's final per-layer state as a
/// tuned policy file. The emitted file is reparsed and recompiled to prove
/// the round trip; stdout carries only the policy JSON.
fn run_tune(w: &Workload, executions: usize, out: Option<&str>, smoke: bool) -> ExitCode {
    if w.is_recurrent() {
        eprintln!(
            "tune: adaptive policies are masked on recurrent networks ({}); nothing to tune",
            w.network().name()
        );
        return ExitCode::from(EXIT_USAGE);
    }
    let executions = if smoke {
        executions.min(48)
    } else {
        executions
    };
    let frames = w.generate_frames(executions, 42);

    // The adaptive controller tunes against the watchdog's accuracy proxy;
    // arm it when the workload config leaves it off. The 0.25 band matches
    // the convergence tests: loose enough that the paper's static grids sit
    // inside it on every feed-forward Table-I workload, tight enough that a
    // runaway grid trips it.
    let mut base = w.reuse_config().clone();
    if base.drift_check_every() == 0 {
        base = base.drift_watchdog(8, 0.25);
    }
    let bound = base.drift_bound();

    // Offline replay sweep (paper §III): input similarity of the recorded
    // raw streams under candidate cluster counts, for context next to the
    // online controller's chosen operating points.
    match reuse_core::replay::InputRecorder::record(w.network(), &frames) {
        Ok(recorder) => {
            let counts = [8usize, 16, 32, 64];
            let sweep = reuse_core::replay::replay_sweep(&recorder, &counts);
            eprintln!("replay sweep (input similarity by cluster count):");
            for (name, row) in recorder.layer_names().iter().zip(&sweep) {
                let cells: Vec<String> = counts
                    .iter()
                    .zip(row)
                    .map(|(c, r)| match r {
                        Some(r) => format!("{c}:{:.3}", r.input_similarity),
                        None => format!("{c}:-"),
                    })
                    .collect();
                eprintln!("  {name:<12} {}", cells.join("  "));
            }
        }
        Err(e) => {
            eprintln!("tune: replay recording failed: {e}");
            return ExitCode::from(EXIT_EXEC);
        }
    }

    let static_run = match tune_run(w, &base, &frames) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tune: static run failed: {e}");
            return ExitCode::from(EXIT_EXEC);
        }
    };
    let adaptive_config = base
        .clone()
        .reuse_policy(Arc::new(AdaptivePolicy::default()));
    let adaptive_run = match tune_run(w, &adaptive_config, &frames) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tune: adaptive run failed: {e}");
            return ExitCode::from(EXIT_EXEC);
        }
    };
    for (label, r) in [("static", &static_run), ("adaptive", &adaptive_run)] {
        eprintln!(
            "{label:<8} similarity {:>5.1}%  computation reuse {:>5.1}%  drift max {:.4} \
             (bound {bound:.4})  {} checks, {} rebaselines",
            r.similarity * 100.0,
            r.reuse * 100.0,
            r.watchdog.max_drift,
            r.watchdog.checks,
            r.watchdog.rebaselines,
        );
    }
    eprintln!("tuned per-layer operating points (from the adaptive run):");
    for s in &adaptive_run.states {
        eprintln!(
            "  {:<12} clusters {:>3}  step_scale {:>5.2}  threshold {:.2}  \
             ({} grows, {} shrinks, {} refreshes)",
            s.name, s.clusters, s.step_scale, s.reuse_threshold, s.grows, s.shrinks, s.refreshes
        );
    }

    let tuned = TunedPolicy {
        network: w.network().name().to_string(),
        layers: adaptive_run
            .states
            .iter()
            .map(|s| TunedLayerPolicy {
                layer: s.name.clone(),
                clusters: s.clusters,
                step_scale: s.step_scale.clamp(1.0, 64.0),
                reuse_threshold: s.reuse_threshold.clamp(1e-6, 1.0),
                adaptive: s.adaptive,
            })
            .collect(),
    };
    let text = tuned.to_json();
    // Round trip: what a later run would load must equal what was tuned.
    let reread = match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("tune: cannot write {path}: {e}");
                return ExitCode::from(EXIT_IO);
            }
            match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("tune: cannot re-read {path}: {e}");
                    return ExitCode::from(EXIT_IO);
                }
            }
        }
        None => text.clone(),
    };
    let reloaded = match TunedPolicy::from_json(&reread) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("tune: emitted policy file fails to parse: {e}");
            return ExitCode::from(EXIT_DIVERGED);
        }
    };
    if reloaded != tuned {
        eprintln!("tune: policy file round trip mismatch");
        return ExitCode::from(EXIT_DIVERGED);
    }
    // The reloaded file must compile and serve frames.
    let tuned_config = base.clone().reuse_policy(Arc::new(reloaded));
    match tune_run(w, &tuned_config, &frames[..frames.len().min(16)]) {
        Ok(_) => {}
        Err(e) => {
            eprintln!("tune: reloaded policy failed to execute: {e}");
            return ExitCode::from(EXIT_DIVERGED);
        }
    }
    if let Some(path) = out {
        eprintln!("wrote {path}");
    }
    print!("{text}");
    ExitCode::SUCCESS
}

/// Ingests an ONNX file, runs a synthetic-jitter stream through the reuse
/// engine under the adaptive policy, and reports per-layer measured input
/// similarity plus the skipped-MAC projection. Fallback (recompute-always)
/// layers are called out explicitly.
fn run_ingest(path: &str, frames: usize) -> ExitCode {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(EXIT_IO);
        }
    };
    let lowered = match reuse_onnx_ingest::ingest(&bytes) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot lower {path}: {e}");
            return ExitCode::from(EXIT_EXEC);
        }
    };
    let net = &lowered.network;
    eprintln!(
        "{}: {} layers, {} params, input {}",
        net.name(),
        net.layers().len(),
        net.param_count(),
        net.input_shape()
    );
    for skipped in &lowered.skipped {
        eprintln!("dropped no-op node {skipped}");
    }
    let config = reuse_core::ReuseConfig::uniform(64)
        .drift_watchdog(8, 0.25)
        .reuse_policy(Arc::new(AdaptivePolicy::default()));
    let mut engine = ReuseSession::from_network(net, &config);
    let seq_len = if net.is_recurrent() {
        32.min(frames.max(2))
    } else {
        0
    };
    let stream = random_walk(frames, net.input_shape().volume(), 0.5, 0.04, 42);
    if let Err(e) = run_frames(&mut engine, &stream, seq_len, |_| {}) {
        eprintln!("execution failed: {e}");
        return ExitCode::from(EXIT_EXEC);
    }
    let metrics = engine.metrics();
    let mut macs_total = 0u64;
    let mut macs_skipped = 0u64;
    for (name, layer) in net.layers() {
        match metrics.layer(name) {
            Some(m) => {
                let skipped = m.macs_total.saturating_sub(m.macs_performed);
                macs_total += m.macs_total;
                macs_skipped += skipped;
                println!(
                    "layer {name} kind {:?} similarity {:.4} macs_total {} macs_skipped {}",
                    layer.kind(),
                    m.input_similarity(),
                    m.macs_total,
                    skipped
                );
            }
            None => println!("layer {name} kind {:?} (no reuse slot)", layer.kind()),
        }
    }
    for (layer, op) in &lowered.fallbacks {
        println!("fallback {layer} {op}");
    }
    println!(
        "total frames {frames} similarity {:.4} macs_total {macs_total} macs_skipped {macs_skipped} reuse {:.4}",
        metrics.overall_input_similarity(),
        if macs_total > 0 {
            macs_skipped as f64 / macs_total as f64
        } else {
            0.0
        }
    );
    ExitCode::SUCCESS
}

/// Self-contained ingest smoke for CI: (a) the generated Gemm+Relu fixture
/// must execute bit-identically to its hand-built twin through the engine;
/// (b) a graph with an unsupported op must still serve via a
/// recompute-always passthrough slot charging full MACs and zero reuse.
fn run_ingest_smoke() -> ExitCode {
    use reuse_onnx_ingest::fixture;

    // (a) bit-identity: ingested fixture vs hand-built twin.
    let lowered = match reuse_onnx_ingest::ingest(&fixture::gemm_relu_bytes()) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("fixture failed to lower: {e}");
            return ExitCode::from(EXIT_EXEC);
        }
    };
    let twin = fixture::gemm_relu_network();
    let config = reuse_core::ReuseConfig::uniform(64);
    let mut ingested = ReuseSession::from_network(&lowered.network, &config);
    let mut reference = ReuseSession::from_network(&twin, &config);
    for frame in random_walk(64, fixture::GEMM_IN, 0.5, 0.05, 42) {
        let (a, b) = match (ingested.execute(&frame), reference.execute(&frame)) {
            (Ok(a), Ok(b)) => (a, b),
            (a, b) => {
                eprintln!("smoke execution failed: {:?} {:?}", a.err(), b.err());
                return ExitCode::from(EXIT_EXEC);
            }
        };
        if !bits_eq(a.as_slice(), b.as_slice()) {
            eprintln!("ingested fixture diverged from the hand-built network");
            return ExitCode::from(EXIT_DIVERGED);
        }
    }
    println!("ingest smoke: fixture bit-identical to hand-built network over 64 frames");

    // (b) unsupported op serves through a recompute-always passthrough.
    let lowered = match reuse_onnx_ingest::ingest(&fixture::unsupported_softmax_bytes()) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("softmax graph failed to lower: {e}");
            return ExitCode::from(EXIT_EXEC);
        }
    };
    let Some((pass_name, op)) = lowered.fallbacks.first().cloned() else {
        eprintln!("softmax graph lowered without a fallback slot");
        return ExitCode::from(EXIT_DIVERGED);
    };
    let mut engine = ReuseSession::from_network(&lowered.network, &config);
    for frame in random_walk(48, 8, 0.5, 0.03, 7) {
        if let Err(e) = engine.execute(&frame) {
            eprintln!("softmax graph execution failed: {e}");
            return ExitCode::from(EXIT_EXEC);
        }
    }
    let metrics = engine.metrics();
    let Some(pass) = metrics.layer(&pass_name) else {
        eprintln!("passthrough layer {pass_name} has no metrics slot");
        return ExitCode::from(EXIT_DIVERGED);
    };
    if pass.macs_total == 0
        || pass.macs_performed != pass.macs_total
        || pass.computation_reuse() != 0.0
    {
        eprintln!(
            "passthrough telemetry wrong: total {} performed {} reuse {}",
            pass.macs_total,
            pass.macs_performed,
            pass.computation_reuse()
        );
        return ExitCode::from(EXIT_DIVERGED);
    }
    println!(
        "ingest smoke: unsupported op {op} served via {pass_name} \
         (full MACs charged, zero reuse)"
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry = args.iter().any(|a| a == "--telemetry");
    args.retain(|a| a != "--telemetry");
    let sig_cache = args.iter().any(|a| a == "--sig-cache");
    args.retain(|a| a != "--sig-cache");
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let out_path = match args.iter().position(|a| a == "--out") {
        Some(i) => {
            let Some(p) = args.get(i + 1).cloned() else {
                return usage();
            };
            args.drain(i..=i + 1);
            Some(p)
        }
        None => None,
    };
    let mut flag_value = |flag: &str| -> Result<Option<usize>, ()> {
        match args.iter().position(|a| a == flag) {
            Some(i) => {
                let Some(v) = args
                    .get(i + 1)
                    .and_then(|a| a.parse::<usize>().ok())
                    .filter(|v| *v >= 1)
                else {
                    return Err(());
                };
                args.drain(i..=i + 1);
                Ok(Some(v))
            }
            None => Ok(None),
        }
    };
    let mut values = [None; 5];
    let flags = ["--sessions", "--streams", "--frames", "--port", "--shards"];
    for (value, flag) in values.iter_mut().zip(flags) {
        let Ok(v) = flag_value(flag) else {
            return usage();
        };
        *value = v;
    }
    let [sessions, streams, frames, port, shards] = values;
    let scale = Scale::from_env();
    match args.first().map(String::as_str) {
        Some("inspect") => {
            let Some(kind) = args.get(1).and_then(|a| parse_workload(a)) else {
                return usage();
            };
            let w = Workload::build(kind, scale);
            print!("{}", network_stats(w.network()).to_table());
            println!(
                "reuse config: {} enabled layers, recurrent: {}, activations spill: {}",
                w.network()
                    .layers()
                    .iter()
                    .filter(|(n, l)| l.has_weights() && w.reuse_config().layer_policy(n).enabled)
                    .count(),
                w.is_recurrent(),
                w.activations_spill(),
            );
            ExitCode::SUCCESS
        }
        Some("run") => {
            let Some(kind) = args.get(1).and_then(|a| parse_workload(a)) else {
                return usage();
            };
            let executions: usize = args
                .get(2)
                .and_then(|a| a.parse().ok())
                .unwrap_or_else(|| executions_from_env(kind, scale));
            let w = Workload::build(kind, scale);
            let config = w.reuse_config().clone().telemetry(telemetry);
            if let Some(n) = sessions {
                return exit(run_sessions_smoke(&w, &config, executions, n));
            }
            let mut engine = ReuseSession::from_network(w.network(), &config);
            let (seq_len, len) = run_shape(&w, executions);
            let frames = OffsetStreams::new(&w, 1, len, seq_len);
            if let Err(e) = run_frames(&mut engine, frames.stream(0), seq_len, |_| {}) {
                eprintln!("execution failed: {e}");
                return ExitCode::from(EXIT_EXEC);
            }
            if telemetry {
                // Machine-readable: the snapshot JSON is the whole output.
                let snap = engine
                    .telemetry_snapshot()
                    .expect("telemetry was enabled above");
                println!("{}", snap.to_json());
            } else {
                print!("{}", summary::render(&engine));
            }
            ExitCode::SUCCESS
        }
        Some(command @ ("serve" | "serve-net")) => {
            let kind = match args.get(1) {
                Some(name) => match parse_workload(name) {
                    Some(kind) => kind,
                    None => return usage(),
                },
                None => WorkloadKind::Kaldi,
            };
            let w = Workload::build(kind, scale);
            let n = streams.unwrap_or(4);
            let frames_per_stream =
                frames.unwrap_or_else(|| executions_from_env(kind, scale).min(64));
            if command == "serve-net" {
                let shard_count = shards.unwrap_or_else(default_shards);
                if smoke {
                    return exit(run_serve_net_smoke(&w, shard_count, n, frames_per_stream));
                }
                let Ok(port) = u16::try_from(port.unwrap_or(7433)) else {
                    return usage();
                };
                return ExitCode::from(run_serve_net_listen(&w, shard_count, port));
            }
            if !sig_cache {
                return exit(run_serve_smoke(
                    &w,
                    w.reuse_config(),
                    n,
                    frames_per_stream,
                    true,
                ));
            }
            // Pass 1: cache enabled at capacity 0 must degrade to exactly
            // the per-stream behavior — the bit-identity smoke must pass
            // unchanged.
            eprintln!("sig-cache pass 1/2: capacity 0, bit-identity vs standalone");
            let cap0 = w
                .reuse_config()
                .clone()
                .signature_cache(true)
                .signature_cache_capacity(0);
            // Exactly one snapshot JSON on stdout: pass 2 owns it, except
            // on recurrent workloads where the cache compiles out and pass
            // 2 has nothing to serve.
            if let Err(code) = run_serve_smoke(&w, &cap0, n, frames_per_stream, w.is_recurrent()) {
                return ExitCode::from(code);
            }
            // Pass 2: full capacity — completion and counter plumbing.
            eprintln!("sig-cache pass 2/2: full capacity, completion + counters");
            let full = w.reuse_config().clone().signature_cache(true);
            exit(run_serve_cache_smoke(&w, &full, n, frames_per_stream))
        }
        Some("simulate") => {
            let Some(kind) = args.get(1).and_then(|a| parse_workload(a)) else {
                return usage();
            };
            let executions = args
                .get(2)
                .and_then(|a| a.parse().ok())
                .unwrap_or_else(|| executions_from_env(kind, scale));
            let m = reuse_bench::measure_workload(kind, scale, executions, 42);
            let (base, reuse) = reuse_bench::experiments::simulate(&m);
            println!(
                "{} ({} executions, model {}):",
                m.kind.name(),
                m.traces.len(),
                human_bytes(m.model_bytes)
            );
            println!(
                "  baseline: {} / {}",
                human_seconds(base.seconds),
                human_joules(base.energy_j())
            );
            println!(
                "  reuse   : {} / {}",
                human_seconds(reuse.seconds),
                human_joules(reuse.energy_j())
            );
            println!(
                "  speedup {:.2}x, energy savings {:.0}%",
                reuse.speedup_over(&base),
                (1.0 - reuse.normalized_energy_to(&base)) * 100.0
            );
            ExitCode::SUCCESS
        }
        Some("tune") => {
            let Some(kind) = args.get(1).and_then(|a| parse_workload(a)) else {
                return usage();
            };
            let executions: usize = args
                .get(2)
                .and_then(|a| a.parse().ok())
                .unwrap_or_else(|| executions_from_env(kind, scale));
            let w = Workload::build(kind, scale);
            run_tune(&w, executions, out_path.as_deref(), smoke)
        }
        Some("export") => {
            let (Some(kind), Some(path)) =
                (args.get(1).and_then(|a| parse_workload(a)), args.get(2))
            else {
                return usage();
            };
            let w = Workload::build(kind, scale);
            let text = reuse_nn::serialize::to_string(w.network());
            match std::fs::write(path, &text) {
                Ok(()) => {
                    println!("wrote {} ({})", path, human_bytes(text.len() as u64));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("cannot write {path}: {e}");
                    ExitCode::from(EXIT_IO)
                }
            }
        }
        Some("ingest") => {
            if smoke {
                return run_ingest_smoke();
            }
            let Some(path) = args.get(1) else {
                return usage();
            };
            let n_frames: usize = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(96);
            run_ingest(path, n_frames)
        }
        Some("experiments") => {
            println!(
                "paper artifacts (cargo run --release -p reuse-bench --bin repro -- <name>):\n\
                 \x20 table1, fig4, fig5, fig9, fig10, fig11, table2, table3,\n\
                 \x20 fig12, reduced_precision, ablations, all"
            );
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
