//! `reuse_cli` — command-line front end for the reuse-dnn workspace.
//!
//! ```text
//! reuse_cli inspect <kaldi|eesen|c3d|autopilot>     layer table + model stats
//! reuse_cli run <workload> [executions]             run the reuse engine, print summary
//! reuse_cli run <workload> [executions] --telemetry print the TelemetrySnapshot as JSON
//! reuse_cli run <workload> [executions] --sessions N multi-session smoke over one model
//! reuse_cli serve [workload] --streams N --frames M ShardedServer smoke vs standalone
//! reuse_cli serve-net [workload] --port P --shards N serve over TCP (length-prefixed frames)
//! reuse_cli serve-net [workload] --smoke            loopback round-trip vs standalone
//! reuse_cli simulate <workload> [executions]        accelerator baseline vs reuse
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
use reuse_bench::streams::{bits_eq, drive, run_frames, standalone, OffsetStreams};
use reuse_bench::table::{human_bytes, human_joules, human_seconds};
use reuse_core::{summary, CompiledModel, EngineMetrics, ReuseSession};
use reuse_nn::stats::network_stats;
use reuse_serve::{default_shards, ServerConfig, ShardedServer};
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
         \x20 serve    [workload]               serve N streams through a ShardedServer and\n\
         \x20          [--streams N]            check every stream bit-for-bit against a\n\
         \x20          [--frames M]             standalone session (prints the server\n\
         \x20                                   snapshot JSON; exits {EXIT_SERVE_DIVERGED} on divergence)\n\
         \x20 serve-net [workload]              serve the sharded tier over TCP (length-\n\
         \x20          [--port P]               prefixed binary frames; default port 7433)\n\
         \x20          [--shards N]             shard count (default: hardware threads, max 8)\n\
         \x20          [--streams N]            --smoke binds an OS-assigned loopback port,\n\
         \x20          [--frames M]             drives N streams x M frames through a real\n\
         \x20          [--smoke]                client, and checks every output bit-for-bit\n\
         \x20                                   against standalone sessions (exits {EXIT_SERVE_DIVERGED})\n\
         \x20 simulate <workload> [executions]  simulate baseline vs reuse accelerators\n\n\
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

/// Frames each smoke submits per stream per round: a tick's block then
/// holds several frames of one stream, so Kaldi's reuse-disabled FC1/FC2
/// run them as one GEMM and the reuse layers step them in order.
const BURST: usize = 3;

/// Serves `n` offset streams through a single-shard [`ShardedServer`] over
/// one shared model, ticked here, and checks every stream's outputs and
/// metrics bit-for-bit against a standalone [`ReuseSession`] fed the same
/// frames alone, [`BURST`] frames per stream per round. The server snapshot
/// JSON is the whole stdout; all diagnostics go to stderr.
fn run_serve_smoke(w: &Workload, n: usize, frames_per_stream: usize) -> Result<(), u8> {
    let model = Arc::new(CompiledModel::new(w.network(), w.reuse_config()));
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
    let server_config = ServerConfig::default()
        .max_sessions(n)
        .queue_capacity((2 * seq_len).max(8))
        .batch_max(4)
        .sequence_len(seq_len);
    let server = ShardedServer::new(Arc::clone(&model), server_config, 1).map_err(|e| {
        eprintln!("cannot construct server: {e}");
        EXIT_EXEC
    })?;
    let streams = OffsetStreams::new(w, n, frames_per_stream, seq_len);
    let mut collected: Vec<Vec<Vec<f32>>> = vec![Vec::new(); n];
    let collect = |s: usize, out: &[f32]| collected[s].push(out.to_vec());
    let tick = || server.tick_all().map(drop);
    let window = 0..frames_per_stream;
    drive(&server, tick, &streams, window, BURST, collect).map_err(|e| {
        eprintln!("serving failed: {e}");
        EXIT_EXEC
    })?;
    let metrics_match = |s: usize, alone: &EngineMetrics| {
        server.with_session(s as u64, |sess| sess.metrics() == alone) == Some(true)
    };
    let mismatches = standalone_mismatches(&model, &streams, seq_len, &collected, metrics_match)?;
    // Machine-readable result: the snapshot JSON is the whole stdout.
    print!("{}", server.snapshot().to_json());
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

/// Serves `n` offset streams through the full network stack — a real
/// [`NetServer`] on an OS-assigned loopback port, driven by a [`NetClient`]
/// that pipelines [`BURST`] frames per stream per round and pairs the
/// responses by stream and sequence number — and checks every response
/// payload bit-for-bit against a
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
        let mut outputs: Vec<Vec<Vec<f32>>> = vec![vec![Vec::new(); frames_per_stream]; n];
        for first in (0..frames_per_stream).step_by(BURST) {
            let round = first..(first + BURST).min(frames_per_stream);
            for s in 0..n {
                for t in round.clone() {
                    client
                        .send(s as u64 + 1, t as u32, 0, 0, &streams.stream(s)[t])
                        .map_err(|e| format!("stream {s} frame {t}: send failed: {e}"))?;
                }
            }
            for _ in 0..n * round.len() {
                let resp = client
                    .recv()
                    .map_err(|e| format!("round at frame {first}: receive failed: {e}"))?;
                let (s, t) = (resp.stream_id.wrapping_sub(1) as usize, resp.seq as usize);
                if s >= n || !round.contains(&t) || resp.status != Status::Ok {
                    return Err(format!("stream {s} frame {t}: status {:?}", resp.status));
                }
                outputs[s][t] = resp.payload;
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

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry = args.iter().any(|a| a == "--telemetry");
    args.retain(|a| a != "--telemetry");
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
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
                    .filter(|(n, l)| l.has_weights() && w.reuse_config().layer_enabled(n))
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
            exit(run_serve_smoke(&w, n, frames_per_stream))
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
        _ => usage(),
    }
}
