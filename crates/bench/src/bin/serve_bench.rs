//! Serving-tier floors for CI; records nothing (the repository benchmark's
//! `serve_open_loop` and `net_closed_loop` workloads are the recorded
//! numbers).
//!
//! Each closed-loop configuration serves N offset copies of a generated
//! input stream (same per-stream frame-to-frame similarity, no two streams
//! identical at the same step). Streams are warmed past calibration first,
//! then the steady-state submit → tick → drain cycle is timed over three
//! repeats on fresh frames; the gates read the max frames/sec (runtime
//! capability; single-core hosts schedule-jitter the slower repeats) and
//! the progress line shows min/median beside it.
//!
//! `serve_bench --perf-smoke` times the 1- and 8-stream Kaldi pair on a
//! passive [`StreamServer`] and exits nonzero when 8-stream aggregate
//! throughput falls below `REUSE_SERVE_MIN_SCALING` × 1-stream throughput
//! (default 0.9, tunable for noisy hosts) or below the absolute
//! `REUSE_SERVE_MIN_FPS` floor (default 1.0 frames/sec). Per-frame kernel
//! work is identical at every stream count, so the ratio measures how well
//! the serial tick amortizes its per-tick overhead.
//!
//! `serve_bench --open-loop --perf-smoke` times three alternating 1-vs-64-
//! stream Kaldi pairs through a [`ShardedServer`] with [`default_shards`]
//! shards and background [`ShardWorkers`] threads, and holds the median
//! ratio to the host-aware `REUSE_SERVE_MIN_SHARD_SCALING` floor (default
//! `0.9 × (hardware_threads − 1)` within `[1.0, 2.5]`: the closed-loop
//! driver occupies one hardware thread itself, so a host of up to two
//! threads only has to not lose throughput, a many-core host must scale).
//! It then runs one open-loop point at half that capacity — frames
//! submitted at a fixed arrival rate without waiting for completions,
//! because a closed-loop driver hides queueing delay — against the
//! `REUSE_SERVE_MAX_P99_NS` ceiling (default 50 ms).
//!
//! Usage: `cargo run --release -p reuse-bench --bin serve_bench --
//! --perf-smoke | --open-loop --perf-smoke`; anything else prints this and
//! exits 2. (`REUSE_SCALE` selects the model scale, as everywhere else.)

use std::hint::black_box;
use std::ops::Range;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reuse_bench::env_parse;
use reuse_bench::streams::{drive, OffsetStreams, Tier};
use reuse_core::CompiledModel;
use reuse_serve::{
    default_shards, hardware_threads, LatencyHistogram, ServerConfig, ShardWorkers, ShardedServer,
    StreamServer, SubmitOptions,
};
use reuse_workloads::{Scale, Workload, WorkloadKind};

/// Frames submitted per stream between ticks: large enough that a tick's
/// fixed costs spread over real work, small enough to keep queues short.
const BURST: usize = 4;

/// Timed repeats per configuration (max frames/sec wins; min/median
/// logged alongside).
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
}

/// One closed-loop configuration's measurement: `streams` streams on a
/// passive [`StreamServer`] (`shards == 0`) or a worker-driven
/// [`ShardedServer`].
struct Row {
    workload: &'static str,
    streams: usize,
    shards: usize,
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
        fps,
        latency: Latency::of(&server.merged_latency()),
    }
}

/// One open-loop offered-load point's measurement.
struct OpenRow {
    offered_fps: f64,
    achieved_fps: f64,
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
        offered_fps,
        achieved_fps: completed as f64 / elapsed,
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
    let threads = hardware_threads() as f64;
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let open_loop = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--perf-smoke"] => false,
        ["--open-loop", "--perf-smoke"] | ["--perf-smoke", "--open-loop"] => true,
        _ => {
            eprintln!("usage: serve_bench --perf-smoke | --open-loop --perf-smoke");
            return ExitCode::from(2);
        }
    };
    let scale = Scale::from_env();
    if open_loop {
        perf_smoke_open_loop(scale)
    } else {
        perf_smoke(scale)
    }
}
