//! Serving-throughput benchmark: a [`StreamServer`] multiplexing 1/8/64/256
//! streams over one shared [`CompiledModel`], written to `BENCH_serve.json`.
//!
//! Each configuration serves N offset copies of a generated input stream
//! (same per-stream frame-to-frame similarity, no two streams identical at
//! the same step). Streams are warmed past calibration first, then the
//! steady-state submit → tick → drain cycle is timed; the aggregate
//! frames/sec and the submit-to-completion latency quantiles from the
//! server's own histogram are reported per stream count. Every repeat runs
//! the same cycle on fresh frames and the per-config row reports the
//! **min/median/max** frames/sec across repeats — `frames_per_sec` stays
//! the max (runtime capability; single-core hosts schedule-jitter the
//! slower repeats) while the min/median spread quantifies host noise.
//!
//! Per-frame kernel work is identical at every stream count, so aggregate
//! throughput measures how well the serial tick amortizes its per-tick
//! overhead: more streams per tick means fewer ticks per frame, and
//! frames/sec must not *drop* as streams grow from 1 to 8.
//!
//! A second, **churn** scenario measures the cross-stream signature cache:
//! a bounded session pool cycles through generations of short-lived
//! streams whose frames are tiny jitters of one shared base walk (think
//! many near-identical dashcam/ASR clients connecting and disconnecting).
//! With the cache off every new stream pays its full cold start
//! (calibration plus a from-scratch frame); with the cache on,
//! cold-starting streams adopt baselines published by earlier generations
//! and pay only the correction. The same churn runs with the cache off and
//! on, and the aggregate fps pair plus the cache counters land in the
//! `churn` section of the JSON.
//!
//! A third, **sharded** scenario drives the same closed-loop cycle through
//! a [`ShardedServer`] with [`default_shards`] shards and background
//! [`ShardWorkers`] threads — the multi-core serving path. Its rows land
//! in the `sharded` section, and the 64-stream row's throughput is the
//! measured capacity that anchors the open-loop sweep.
//!
//! The **open-loop** sweep submits frames at fixed offered arrival rates
//! (fractions of measured capacity) without waiting for completions — the
//! tail-latency methodology for serving systems: closed-loop drivers hide
//! queueing delay because a slow frame stalls its own submitter. Each
//! point reports achieved frames/sec, p50/p99/p999 submit-to-completion
//! latency, and the queue-full / shed / deadline-shed / expired counts.
//! The overload point (>1× capacity) submits with a deadline so the
//! projected-miss admission path sheds at ingress instead of letting the
//! queue collapse. Points land in the `open_loop` section.
//!
//! `serve_bench --perf-smoke` times only the 1- and 8-stream Kaldi pair and
//! exits nonzero when 8-stream aggregate throughput falls below
//! `REUSE_SERVE_MIN_SCALING` × 1-stream throughput (default 0.9, tunable
//! for noisy hosts like `REUSE_BLOCKED_MIN_SPEEDUP`) or below the absolute
//! `REUSE_SERVE_MIN_FPS` floor (default 1.0 frames/sec).
//!
//! `serve_bench --open-loop --perf-smoke` times three alternating sharded
//! 1-vs-64-stream Kaldi pairs and holds the median ratio to the host-aware
//! `REUSE_SERVE_MIN_SHARD_SCALING` floor (default `0.9 × (hardware_threads
//! − 1)` within `[1.0, 2.5]`: the closed-loop driver occupies one hardware
//! thread itself, so a host of up to two threads only has to not lose
//! throughput, a many-core host must scale), then runs one open-loop point
//! at half capacity against the `REUSE_SERVE_MAX_P99_NS` ceiling (default
//! 50 ms).
//!
//! `serve_bench --validate [file]` checks an existing `BENCH_serve.json`
//! for every required key (schema drift guard for CI), including the
//! churn, sharded, and open-loop sections and the per-config fps spread,
//! and enforces the optional `REUSE_SERVE_MIN_CACHE_SPEEDUP` floor on the
//! recorded cache speedup.
//!
//! Usage: `cargo run --release -p reuse-bench --bin serve_bench [out.json]`
//! (`REUSE_SCALE` selects the model scale, as everywhere else.)

use std::fmt::Write as _;
use std::hint::black_box;
use std::ops::Range;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reuse_bench::env_parse;
use reuse_bench::streams::{drive, OffsetStreams, Tier};
use reuse_core::{json, CompiledModel};
use reuse_serve::{
    default_shards, LatencyHistogram, ServerConfig, ServerSnapshot, ShardWorkers, ShardedServer,
    StreamServer, SubmitOptions, SubmitResult,
};
use reuse_workloads::{Scale, Workload, WorkloadKind};

/// Frames submitted per stream between ticks: large enough that a tick's
/// fixed costs spread over real work, small enough to keep queues short.
const BURST: usize = 4;

/// Timed repeats per configuration (max frames/sec wins; min/median
/// recorded alongside).
const REPEATS: usize = 3;

/// Min/median/max aggregate throughput across the timed repeats.
#[derive(Clone, Copy)]
struct FpsSpread {
    min: f64,
    median: f64,
    max: f64,
}

impl FpsSpread {
    fn from_repeats(mut fps: Vec<f64>) -> FpsSpread {
        assert!(!fps.is_empty());
        fps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        FpsSpread {
            min: fps[0],
            median: fps[fps.len() / 2],
            max: fps[fps.len() - 1],
        }
    }
}

/// Submit-to-completion latency read off a histogram.
struct Latency {
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    max_ns: u64,
}

impl Latency {
    fn of(h: &LatencyHistogram) -> Latency {
        Latency {
            p50_ns: h.p50_ns(),
            p99_ns: h.p99_ns(),
            p999_ns: h.p999_ns(),
            max_ns: h.max_ns(),
        }
    }

    /// The four `latency_*_ns` members of a JSON row.
    fn json(&self) -> String {
        format!(
            "\"latency_p50_ns\": {}, \"latency_p99_ns\": {}, \"latency_p999_ns\": {}, \
             \"latency_max_ns\": {}",
            self.p50_ns, self.p99_ns, self.p999_ns, self.max_ns
        )
    }
}

/// One closed-loop configuration's measurement: `streams` streams on a
/// passive [`StreamServer`] (`shards == 0`) or a worker-driven
/// [`ShardedServer`].
struct Row {
    workload: &'static str,
    streams: usize,
    shards: usize,
    frames_per_stream: usize,
    fps: FpsSpread,
    latency: Latency,
}

impl Row {
    /// Prints the row's progress line to stderr.
    fn logged(self) -> Row {
        eprintln!(
            "{:<10} {:>4} streams x {} shards  {:>10.0} frames/s (min {:>10.0} med {:>10.0})  \
             p50 {:>9} ns  p99 {:>9} ns  p999 {:>9} ns  max {:>9} ns",
            self.workload,
            self.streams,
            self.shards,
            self.fps.max,
            self.fps.min,
            self.fps.median,
            self.latency.p50_ns,
            self.latency.p99_ns,
            self.latency.p999_ns,
            self.latency.max_ns
        );
        self
    }

    fn json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"streams\": {}, \"frames_per_stream\": {}, \
             \"frames_per_sec\": {:.1}, \"frames_per_sec_min\": {:.1}, \
             \"frames_per_sec_median\": {:.1}, {}}}",
            self.workload,
            self.streams,
            self.frames_per_stream,
            self.fps.max,
            self.fps.min,
            self.fps.median,
            self.latency.json()
        )
    }
}

/// Frames per stream that take a fresh stream past calibration, state
/// initialization and pool priming before anything is timed.
const WARM: usize = 3;

/// The serve configuration of every closed-loop row.
fn closed_loop_config(n: usize) -> ServerConfig {
    ServerConfig::default()
        .max_sessions(n)
        .queue_capacity(2 * BURST)
        .batch_max(BURST)
}

/// Warm-up plus [`REPEATS`] timed windows of `measure` steady frames per
/// stream, each window served to completion; `after_warm` runs in between
/// (latency reset). All windows consume fresh frames from one long walk per
/// stream.
fn closed_loop<T: Tier>(
    tier: &mut T,
    w: &Workload,
    n: usize,
    measure: usize,
    after_warm: impl FnOnce(&T),
) -> FpsSpread {
    let streams = OffsetStreams::new(w, n, WARM + REPEATS * measure, 0);
    let mut sink = 0f32;
    let mut serve = |tier: &mut T, window: Range<usize>| {
        drive(tier, &streams, window, BURST, |_, out| sink += out[0]).expect("steady serving");
    };
    serve(tier, 0..WARM);
    after_warm(tier);
    let fps = (0..REPEATS)
        .map(|r| {
            let from = WARM + r * measure;
            let start = Instant::now();
            serve(tier, from..from + measure);
            (n * measure) as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    black_box(sink);
    FpsSpread::from_repeats(fps)
}

/// `n` streams through a passive [`StreamServer`], ticked by the driver.
fn bench_streams(w: &Workload, model: &Arc<CompiledModel>, n: usize, measure: usize) -> Row {
    let mut server = StreamServer::new(Arc::clone(model), closed_loop_config(n))
        .expect("feed-forward serve config");
    let fps = closed_loop(&mut server, w, n, measure, |s| s.latency().clear());
    assert_eq!(
        server.frames_completed() as usize,
        (WARM + REPEATS * measure) * n
    );
    Row {
        workload: w.kind().name(),
        streams: n,
        shards: 0,
        frames_per_stream: measure,
        fps,
        latency: Latency::of(server.latency()),
    }
}

/// Steady frames per stream: fewer at high stream counts so every
/// configuration does comparable total work.
fn frames_for(n: usize) -> usize {
    (512 / n).clamp(8, 512).div_ceil(BURST) * BURST
}

fn bench_workload(kind: WorkloadKind, scale: Scale, stream_counts: &[usize]) -> Vec<Row> {
    let w = Workload::build(kind, scale);
    let model = Arc::new(CompiledModel::new(w.network(), w.reuse_config()));
    stream_counts
        .iter()
        .map(|&n| bench_streams(&w, &model, n, frames_for(n)).logged())
        .collect()
}

/// Drains every stream's outputs into `sink` (anti-DCE).
fn drain_all(server: &ShardedServer, n: usize, sink: &mut f32) {
    for s in 0..n {
        server.drain_outputs(s as u64, |out| *sink += out[0]);
    }
}

/// Closed-loop throughput through a worker-driven [`ShardedServer`]: the
/// driver thread submits bursts (retrying queue-full) while per-shard
/// worker threads execute, so multi-core hosts overlap frame execution
/// across shards. Latency is merged over the shards.
fn bench_sharded(
    w: &Workload,
    model: &Arc<CompiledModel>,
    n: usize,
    shards: usize,
    measure: usize,
) -> Row {
    let server = Arc::new(
        ShardedServer::new(Arc::clone(model), closed_loop_config(n), shards)
            .expect("feed-forward serve config"),
    );
    let mut workers = ShardWorkers::start(Arc::clone(&server));
    let fps = closed_loop(&mut &*server, w, n, measure, |s| s.clear_latency());
    workers.stop();
    let errors = workers.take_errors();
    assert!(errors.is_empty(), "shard workers reported: {errors:?}");
    Row {
        workload: w.kind().name(),
        streams: n,
        shards,
        frames_per_stream: measure,
        fps,
        latency: Latency::of(&server.merged_latency()),
    }
}

/// One open-loop offered-load point's measurement.
struct OpenRow {
    load_factor: f64,
    offered_fps: f64,
    achieved_fps: f64,
    deadline_us: u32,
    offered: u64,
    completed: u64,
    queue_full: u64,
    shed: u64,
    deadline_shed: u64,
    expired: u64,
    latency: Latency,
}

/// Sleeps (coarsely) then yields (finely) until `due` past `start`.
fn pace_until(start: Instant, due: Duration) {
    loop {
        let now = start.elapsed();
        if now >= due {
            return;
        }
        let slack = due - now;
        if slack > Duration::from_micros(400) {
            std::thread::sleep(slack - Duration::from_micros(200));
        } else {
            // Yield instead of spinning so shard workers get the core on
            // single-core hosts.
            std::thread::yield_now();
        }
    }
}

/// One open-loop point's offered load: rate, frame budget, and the
/// per-frame deadline (0 = none).
struct OpenLoopSpec {
    load_factor: f64,
    offered_fps: f64,
    frames: usize,
    deadline_us: u32,
}

/// Submits frames at a fixed offered arrival rate across `n` streams of a
/// worker-driven [`ShardedServer`] without waiting for completions, then
/// drains the pipe and reports achieved throughput, tail latency, and the
/// rejection/shed/expiry counters. `spec.deadline_us > 0` attaches a
/// deadline to every frame (exercising projected-miss ingress shedding
/// under overload).
fn open_loop_point(
    w: &Workload,
    model: &Arc<CompiledModel>,
    n: usize,
    shards: usize,
    spec: OpenLoopSpec,
) -> OpenRow {
    let OpenLoopSpec {
        load_factor,
        offered_fps,
        frames: frames_total,
        deadline_us,
    } = spec;
    let server = Arc::new(
        ShardedServer::new(
            Arc::clone(model),
            ServerConfig::default()
                .max_sessions(n)
                .queue_capacity(4 * BURST)
                .batch_max(BURST),
            shards,
        )
        .expect("feed-forward serve config"),
    );
    let mut workers = ShardWorkers::start(Arc::clone(&server));
    let steps = frames_total.div_ceil(n);
    let streams = OffsetStreams::new(w, n, WARM + steps, 0);
    let mut sink = 0f32;

    // Closed-loop warm-up: calibrate every stream and seed each shard's
    // service-time EWMA so deadline projection is live from the first
    // timed frame.
    let mut tier = &*server;
    drive(&mut tier, &streams, 0..WARM, WARM, |_, out| sink += out[0]).expect("warm-up");
    server.clear_latency();
    let base = server.snapshot();

    let interval = Duration::from_secs_f64(1.0 / offered_fps);
    let start = Instant::now();
    let mut offered = 0u64;
    let mut expired_seen = 0u64;
    'submit: for t in 0..steps {
        for s in 0..n {
            if offered as usize >= frames_total {
                break 'submit;
            }
            pace_until(start, interval.mul_f64(offered as f64));
            let mut opts = SubmitOptions::default().tagged(offered);
            if deadline_us > 0 {
                opts = opts.with_deadline(Duration::from_micros(u64::from(deadline_us)));
            }
            // Rejections (queue-full, shed, deadline-shed) are the point of
            // an open-loop driver: count them via the server's counters and
            // keep submitting at the offered rate.
            let _ = server
                .submit_with(s as u64, &streams.stream(s)[WARM + t], opts)
                .unwrap();
            offered += 1;
            if offered.is_multiple_of(64) {
                drain_all(&server, n, &mut sink);
                for s2 in 0..n {
                    expired_seen += server.drain_expired(s2 as u64, |_| {}) as u64;
                }
            }
        }
    }
    // Let the pipe drain: everything accepted either completes or expires.
    let give_up = Instant::now() + Duration::from_secs(60);
    while server.pending() > 0 && Instant::now() < give_up {
        drain_all(&server, n, &mut sink);
        std::thread::yield_now();
    }
    let elapsed = start.elapsed().as_secs_f64();
    drain_all(&server, n, &mut sink);
    for s in 0..n {
        expired_seen += server.drain_expired(s as u64, |_| {}) as u64;
    }
    black_box(sink);
    black_box(expired_seen);

    let snap = server.snapshot();
    let accepted = snap.frames_submitted() - base.frames_submitted();
    let completed = snap.frames_completed() - base.frames_completed();
    let queue_full = snap.rejected_queue_full() - base.rejected_queue_full();
    let shed = snap.shed() - base.shed();
    let deadline_shed = snap.deadline_shed() - base.deadline_shed();
    let expired = snap.expired() - base.expired();
    assert_eq!(
        offered,
        accepted + queue_full + shed + deadline_shed,
        "open-loop admission accounting must balance"
    );
    assert_eq!(
        accepted,
        completed + expired,
        "open-loop completion accounting must balance after drain"
    );
    let row = OpenRow {
        load_factor,
        offered_fps,
        achieved_fps: completed as f64 / elapsed,
        deadline_us,
        offered,
        completed,
        queue_full,
        shed,
        deadline_shed,
        expired,
        latency: Latency::of(&server.merged_latency()),
    };
    workers.stop();
    let errors = workers.take_errors();
    assert!(errors.is_empty(), "shard workers reported: {errors:?}");
    row
}

/// Frames to offer at one open-loop point: about half a second of load,
/// bounded so slow scales stay quick and fast scales stay finite.
fn open_loop_frames(offered_fps: f64) -> usize {
    ((offered_fps * 0.5) as usize).clamp(200, 4000)
}

/// Runs the sharded closed-loop rows plus the open-loop sweep anchored at
/// the top row's measured capacity. Returns `(shard_rows, open_rows)`.
fn bench_sharded_and_open_loop(kind: WorkloadKind, scale: Scale) -> (Vec<Row>, Vec<OpenRow>) {
    let w = Workload::build(kind, scale);
    let model = Arc::new(CompiledModel::new(w.network(), w.reuse_config()));
    let shards = default_shards();
    let shard_rows: Vec<Row> = [1usize, 64]
        .iter()
        .map(|&n| bench_sharded(&w, &model, n, shards, frames_for(n)).logged())
        .collect();
    let capacity = shard_rows[1].fps.max;
    // Two under-capacity points map the latency/load curve; the overload
    // point exercises projected-miss shedding with a deadline derived from
    // the 0.9-load tail (4× its p99) — tight enough that an overloaded
    // queue projects past it, loose enough that a healthy queue never does.
    let factors = [0.5f64, 0.9, 1.4];
    let mut open_rows: Vec<OpenRow> = Vec::with_capacity(factors.len());
    for &factor in &factors {
        let deadline_us = if factor > 1.0 {
            let p99_at_09 = open_rows.last().map_or(0, |r| r.latency.p99_ns);
            (((p99_at_09 * 4) / 1_000) as u32).clamp(500, 50_000)
        } else {
            0
        };
        let offered = capacity * factor;
        let row = open_loop_point(
            &w,
            &model,
            64,
            shards,
            OpenLoopSpec {
                load_factor: factor,
                offered_fps: offered,
                frames: open_loop_frames(offered),
                deadline_us,
            },
        );
        eprintln!(
            "{:<10} open-loop {:>4.2}x load  offered {:>10.0} fps  achieved {:>10.0} fps  \
             p99 {:>9} ns  p999 {:>9} ns  qfull {} shed {} dshed {} expired {}",
            kind.name(),
            row.load_factor,
            row.offered_fps,
            row.achieved_fps,
            row.latency.p99_ns,
            row.latency.p999_ns,
            row.queue_full,
            row.shed,
            row.deadline_shed,
            row.expired
        );
        open_rows.push(row);
    }
    (shard_rows, open_rows)
}

/// Churn-scenario shape: a pool of [`CHURN_POOL`] live sessions cycles
/// through [`CHURN_GENERATIONS`] generations of short-lived streams, each
/// serving [`CHURN_LIFETIME`] frames before being LRU-evicted by the next
/// generation.
const CHURN_POOL: usize = 8;
const CHURN_GENERATIONS: usize = 96;
const CHURN_LIFETIME: usize = 2;

/// The churn measurement for one model (cache off or on).
struct ChurnRow {
    fps: f64,
    signature: reuse_core::SignatureStats,
}

/// Runs the generational churn against one model: every stream serves
/// [`CHURN_LIFETIME`] jittered copies of the same base walk, stream ids
/// grow monotonically so each generation LRU-evicts the previous one, and
/// the per-stream cache counters are harvested before eviction destroys
/// them. Best-of-[`REPEATS`] aggregate fps; counters from the last repeat.
fn bench_churn(w: &Workload, model: &Arc<CompiledModel>) -> ChurnRow {
    let base = w.generate_frames(CHURN_LIFETIME, 42);
    let mut scratch = vec![0f32; base[0].len()];
    let mut best_fps = 0f64;
    let mut signature = reuse_core::SignatureStats::default();
    for _ in 0..REPEATS {
        let mut server = StreamServer::new(
            Arc::clone(model),
            ServerConfig::default()
                .max_sessions(CHURN_POOL)
                .queue_capacity(CHURN_LIFETIME.max(2 * BURST))
                .batch_max(CHURN_LIFETIME),
        )
        .expect("feed-forward serve config");
        let mut acc = reuse_core::SignatureStats::default();
        let mut sink = 0f32;
        let start = Instant::now();
        for gen in 0..CHURN_GENERATIONS {
            for s in 0..CHURN_POOL {
                let id = (gen * CHURN_POOL + s) as u64;
                // Per-stream jitter: a tiny constant offset (≤ ~1e-3), so
                // streams are near-identical but never bit-equal.
                let eps = (id.wrapping_mul(2_654_435_761) % 997) as f32 * 1e-6;
                for frame in &base {
                    for (dst, src) in scratch.iter_mut().zip(frame.iter()) {
                        *dst = src + eps;
                    }
                    match server.submit(id, &scratch).unwrap() {
                        SubmitResult::Accepted => {}
                        r => panic!("churn submit rejected: {r:?}"),
                    }
                }
            }
            while server.ready_units() > 0 {
                server.tick().unwrap();
            }
            for s in 0..CHURN_POOL {
                let id = (gen * CHURN_POOL + s) as u64;
                server.drain_outputs(id, |out| sink += out[0]);
                if let Some(sess) = server.session(id) {
                    acc.merge(sess.signature_stats());
                }
            }
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(sink);
        let served = (CHURN_GENERATIONS * CHURN_POOL * CHURN_LIFETIME) as f64;
        best_fps = best_fps.max(served / secs);
        signature = acc;
    }
    ChurnRow {
        fps: best_fps,
        signature,
    }
}

/// Runs the churn scenario with the signature cache off and on over the
/// same workload and returns `(off, on)`.
fn bench_churn_pair(kind: WorkloadKind, scale: Scale) -> (ChurnRow, ChurnRow) {
    let w = Workload::build(kind, scale);
    let off_model = Arc::new(CompiledModel::new(w.network(), w.reuse_config()));
    let on_config = w.reuse_config().clone().signature_cache(true);
    let on_model = Arc::new(CompiledModel::new(w.network(), &on_config));
    let off = bench_churn(&w, &off_model);
    let on = bench_churn(&w, &on_model);
    eprintln!(
        "{:<10} churn: {} gens x {} streams x {} frames  cache-off {:>8.0} frames/s  \
         cache-on {:>8.0} frames/s  speedup {:.2}x  ({} adoptions, {} bailouts)",
        kind.name(),
        CHURN_GENERATIONS,
        CHURN_POOL,
        CHURN_LIFETIME,
        off.fps,
        on.fps,
        on.fps / off.fps,
        on.signature.adoptions,
        on.signature.bailouts,
    );
    (off, on)
}

/// Schema check for an existing `BENCH_serve.json`: every required key
/// must be present (CI guard against silent drift), and the recorded
/// churn speedup must clear the `REUSE_SERVE_MIN_CACHE_SPEEDUP` floor
/// (default 1.0, i.e. presence-only).
fn validate(path: &str) -> ExitCode {
    const REQUIRED: &[&str] = &[
        "scale",
        "burst",
        "repeats",
        "policy",
        "policy_layers.step_scale",
        "configs.workload",
        "configs.streams",
        "configs.frames_per_stream",
        "configs.frames_per_sec",
        "configs.frames_per_sec_min",
        "configs.frames_per_sec_median",
        "configs.latency_p50_ns",
        "configs.latency_p99_ns",
        "configs.latency_max_ns",
        "sharded.shards",
        "sharded.configs.latency_p999_ns",
        "open_loop.points.load_factor",
        "open_loop.points.offered_fps",
        "open_loop.points.achieved_fps",
        "open_loop.points.deadline_us",
        "open_loop.points.offered_frames",
        "open_loop.points.completed",
        "open_loop.points.queue_full",
        "open_loop.points.shed",
        "open_loop.points.deadline_shed",
        "open_loop.points.expired",
        "churn.pool",
        "churn.generations",
        "churn.cache_off_fps",
        "churn.cache_on_fps",
        "churn.speedup",
        "churn.signature_cache.lookups",
        "churn.signature_cache.hits",
        "churn.signature_cache.adoptions",
        "churn.signature_cache.bailouts",
        "churn.signature_cache.inserts",
    ];
    let root = match reuse_bench::load_artifact(path, "serve_bench", REQUIRED) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("validate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let points = root
        .get("open_loop")
        .and_then(|o| o.get("points"))
        .and_then(json::Value::as_array)
        .map_or(0, <[json::Value]>::len);
    if points < 2 {
        eprintln!("validate: {path} has fewer than two open-loop load points");
        return ExitCode::FAILURE;
    }
    let speedup = root
        .get("churn")
        .and_then(|c| c.get("speedup"))
        .and_then(json::Value::as_f64)
        .unwrap_or(f64::NAN);
    let floor = env_parse("REUSE_SERVE_MIN_CACHE_SPEEDUP").unwrap_or(1.0);
    if speedup.is_nan() || speedup < floor {
        eprintln!("validate: churn speedup {speedup} is below the {floor:.2}x floor");
        return ExitCode::FAILURE;
    }
    eprintln!("validate: {path} ok (churn speedup {speedup:.2}x)");
    ExitCode::SUCCESS
}

/// Times the 1-vs-8-stream Kaldi pair and enforces the scaling and
/// absolute-throughput floors.
fn perf_smoke(scale: Scale) -> ExitCode {
    let min_scaling = env_parse("REUSE_SERVE_MIN_SCALING").unwrap_or(0.9);
    let min_fps = env_parse("REUSE_SERVE_MIN_FPS").unwrap_or(1.0);
    let rows = bench_workload(WorkloadKind::Kaldi, scale, &[1, 8]);
    let (one, eight) = (&rows[0], &rows[1]);
    let scaling = eight.fps.max / one.fps.max;
    eprintln!(
        "serve smoke: 1-stream {:.0} frames/s, 8-stream {:.0} frames/s, \
         scaling {scaling:.3}x (floor {min_scaling:.3}x), fps floor {min_fps:.1}",
        one.fps.max, eight.fps.max
    );
    if eight.fps.max < min_fps {
        eprintln!("8-stream throughput is below the {min_fps:.1} frames/s floor");
        return ExitCode::FAILURE;
    }
    if scaling < min_scaling {
        eprintln!(
            "8-stream aggregate throughput lost more than the {min_scaling:.3}x floor allows"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Times the sharded 1-vs-64-stream Kaldi pair with worker threads, then
/// one open-loop point at half capacity, and enforces the host-aware
/// shard-scaling floor plus the p99 tail floor.
fn perf_smoke_open_loop(scale: Scale) -> ExitCode {
    let threads = reuse_tensor::hardware_threads() as f64;
    // The driver thread submits and drains flat out, so shard workers
    // overlap on `threads - 1` hardware threads: with two or fewer the
    // floor degrades to "don't lose throughput"; a many-core host must
    // actually scale.
    let min_scaling = env_parse("REUSE_SERVE_MIN_SHARD_SCALING")
        .unwrap_or((0.9 * (threads - 1.0)).clamp(1.0, 2.5));
    let max_p99_ns = env_parse("REUSE_SERVE_MAX_P99_NS").unwrap_or(50_000_000.0);
    let w = Workload::build(WorkloadKind::Kaldi, scale);
    let model = Arc::new(CompiledModel::new(w.network(), w.reuse_config()));
    let shards = default_shards();
    // One pair is a few tens of milliseconds at the tiny scale, shorter
    // than the host's slow phases: alternate three pairs and gate on the
    // one with the median ratio.
    let ratio = |(one, many): &(Row, Row)| many.fps.max / one.fps.max;
    let mut pairs: Vec<(Row, Row)> = (0..3)
        .map(|_| {
            (
                bench_sharded(&w, &model, 1, shards, frames_for(1)),
                bench_sharded(&w, &model, 64, shards, frames_for(64)),
            )
        })
        .collect();
    pairs.sort_by(|a, b| ratio(a).total_cmp(&ratio(b)));
    let (one, many) = &pairs[1];
    let scaling = ratio(&pairs[1]);
    eprintln!(
        "shard smoke ({} shards, {} threads): 1-stream {:.0} frames/s, 64-stream {:.0} frames/s, \
         scaling {scaling:.3}x (floor {min_scaling:.3}x)",
        shards, threads as usize, one.fps.max, many.fps.max
    );
    if scaling < min_scaling {
        eprintln!("64-stream sharded throughput is below the {min_scaling:.3}x scaling floor");
        return ExitCode::FAILURE;
    }
    let offered = many.fps.max * 0.5;
    let point = open_loop_point(
        &w,
        &model,
        64,
        shards,
        OpenLoopSpec {
            load_factor: 0.5,
            offered_fps: offered,
            frames: open_loop_frames(offered).min(1200),
            deadline_us: 0,
        },
    );
    eprintln!(
        "open-loop smoke: offered {:.0} fps, achieved {:.0} fps, p99 {} ns (ceiling {:.0} ns)",
        point.offered_fps, point.achieved_fps, point.latency.p99_ns, max_p99_ns
    );
    if point.latency.p99_ns as f64 > max_p99_ns {
        eprintln!("open-loop p99 at half capacity exceeds the {max_p99_ns:.0} ns ceiling");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Serves a short two-stream burst and returns the server's snapshot, so
/// the JSON header can mirror the `policy`/`policy_layers` block that
/// [`ServerSnapshot::to_json`] reports in production — live step sizes and
/// controller counters, not just the compiled spec.
fn policy_probe(kind: WorkloadKind, scale: Scale) -> ServerSnapshot {
    let w = Workload::build(kind, scale);
    let model = Arc::new(CompiledModel::new(w.network(), w.reuse_config()));
    let mut server = StreamServer::new(model, ServerConfig::default().max_sessions(2))
        .expect("feed-forward serve config");
    let streams = OffsetStreams::new(&w, 2, 9, 0);
    drive(&mut server, &streams, 0..9, 1, |_, out| {
        black_box(out[0]);
    })
    .expect("policy probe serving");
    server.snapshot()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut open_loop = false;
    let mut smoke = false;
    let mut validate_mode = false;
    let mut positional: Vec<String> = Vec::new();
    for a in &args {
        match a.as_str() {
            "--open-loop" => open_loop = true,
            "--perf-smoke" => smoke = true,
            "--validate" => validate_mode = true,
            flag if flag.starts_with("--") => {
                eprintln!(
                    "unknown flag {flag}\nusage: serve_bench [--open-loop] [--perf-smoke] \
                     [--validate [file]] [out.json]"
                );
                return ExitCode::FAILURE;
            }
            _ => positional.push(a.clone()),
        }
    }
    let scale = Scale::from_env();
    if validate_mode {
        let path = positional
            .first()
            .cloned()
            .unwrap_or_else(|| "BENCH_serve.json".to_string());
        return validate(&path);
    }
    if smoke {
        return if open_loop {
            perf_smoke_open_loop(scale)
        } else {
            perf_smoke(scale)
        };
    }
    let out_path = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());

    // Kaldi covers the full 1→256 sweep (cheap frames stress the dispatch
    // loop hardest); AutoPilot adds a conv workload at the low counts.
    let mut rows = bench_workload(WorkloadKind::Kaldi, scale, &[1, 8, 64, 256]);
    rows.extend(bench_workload(WorkloadKind::AutoPilot, scale, &[1, 8]));
    let (shard_rows, open_rows) = bench_sharded_and_open_loop(WorkloadKind::Kaldi, scale);
    let shards = shard_rows[0].shards;
    let (churn_off, churn_on) = bench_churn_pair(WorkloadKind::Kaldi, scale);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"serve_bench\",");
    let _ = writeln!(json, "  \"scale\": \"{scale}\",");
    let _ = writeln!(json, "  \"burst\": {BURST},");
    let _ = writeln!(json, "  \"repeats\": {REPEATS},");
    // Policy provenance: which reuse policy served these rows, and the
    // per-layer operating point a live server reports for it.
    let probe = policy_probe(WorkloadKind::Kaldi, scale);
    let _ = writeln!(json, "  \"policy\": \"{}\",", probe.policy);
    json.push_str("  \"policy_layers\": [\n");
    for (k, p) in probe.policy_layers.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {}{}",
            p.to_json(),
            if k + 1 < probe.policy_layers.len() {
                ","
            } else {
                ""
            }
        );
    }
    json.push_str("  ],\n");
    let push_rows = |json: &mut String, rows: &[Row]| {
        for (k, r) in rows.iter().enumerate() {
            let comma = if k + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(json, "    {}{comma}", r.json());
        }
    };
    json.push_str("  \"configs\": [\n");
    push_rows(&mut json, &rows);
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"sharded\": {{\"workload\": \"{}\", \"shards\": {shards}, \"configs\": [",
        WorkloadKind::Kaldi.name()
    );
    push_rows(&mut json, &shard_rows);
    json.push_str("  ]},\n");
    let _ = writeln!(
        json,
        "  \"open_loop\": {{\"workload\": \"{}\", \"streams\": 64, \"shards\": {shards}, \
         \"points\": [",
        WorkloadKind::Kaldi.name()
    );
    for (k, r) in open_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"load_factor\": {:.2}, \"offered_fps\": {:.1}, \"achieved_fps\": {:.1}, \
             \"deadline_us\": {}, \"offered_frames\": {}, \"completed\": {}, \
             \"queue_full\": {}, \"shed\": {}, \"deadline_shed\": {}, \"expired\": {}, {}}}{}",
            r.load_factor,
            r.offered_fps,
            r.achieved_fps,
            r.deadline_us,
            r.offered,
            r.completed,
            r.queue_full,
            r.shed,
            r.deadline_shed,
            r.expired,
            r.latency.json(),
            if k + 1 < open_rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]},\n");
    let _ = writeln!(
        json,
        "  \"churn\": {{\"workload\": \"{}\", \"pool\": {CHURN_POOL}, \
         \"generations\": {CHURN_GENERATIONS}, \"frames_per_stream\": {CHURN_LIFETIME}, \
         \"cache_off_fps\": {:.1}, \"cache_on_fps\": {:.1}, \"speedup\": {:.3}, \
         \"signature_cache\": {{\"lookups\": {}, \"hits\": {}, \"adoptions\": {}, \
         \"bailouts\": {}, \"inserts\": {}}}}}",
        WorkloadKind::Kaldi.name(),
        churn_off.fps,
        churn_on.fps,
        churn_on.fps / churn_off.fps,
        churn_on.signature.lookups,
        churn_on.signature.hits,
        churn_on.signature.adoptions,
        churn_on.signature.bailouts,
        churn_on.signature.inserts,
    );
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    eprintln!(
        "wrote {out_path} ({} configurations, {} sharded rows, {} open-loop points)",
        rows.len(),
        shard_rows.len(),
        open_rows.len()
    );
    ExitCode::SUCCESS
}
