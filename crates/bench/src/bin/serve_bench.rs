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
//! single-shard [`ShardedServer`] ticked by the driver and exits nonzero
//! when 8-stream aggregate throughput falls below [`MIN_SCALING`] ×
//! 1-stream throughput or below the absolute [`MIN_FPS`] floor. Per-frame
//! kernel work is identical at every stream count, so the ratio measures
//! how well the serial tick amortizes its per-tick overhead.
//!
//! `serve_bench --open-loop --perf-smoke` times three alternating 1-vs-64-
//! stream Kaldi pairs through a [`ShardedServer`] with [`default_shards`]
//! shards and background [`ShardWorkers`] threads, and holds the median
//! ratio to a host-aware floor, `0.9 × (hardware_threads − 1)` within
//! `[1.0, 2.5]`: the closed-loop driver occupies one hardware thread
//! itself, so a host of up to two threads only has to not lose throughput,
//! a many-core host must scale. Three 64-stream rows on one shard with its
//! worker must average at least [`MIN_FRAMES_PER_TICK`] frames per tick
//! over their timed windows, in the median row: a worker that walks its
//! block off the shard lock takes everything submitted during the walk
//! into its next tick, one that held the lock across the walk kept the
//! driver out and ticked a few frames at a time. It then runs one
//! open-loop point at half that capacity — frames submitted at a fixed
//! arrival rate without waiting for completions, because a closed-loop
//! driver hides queueing delay — against the [`MAX_P99_NS`] ceiling.
//!
//! Usage: `cargo run --release -p reuse-bench --bin serve_bench --
//! --perf-smoke | --open-loop --perf-smoke`; anything else prints this and
//! exits 2. (`REUSE_SCALE` selects the model scale, as everywhere else.)

use std::hint::black_box;
use std::ops::Range;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reuse_bench::streams::{drive, OffsetStreams};
use reuse_core::CompiledModel;
use reuse_serve::{
    default_shards, hardware_threads, LatencyHistogram, ServeError, ServerConfig, ShardWorkers,
    ShardedServer, ShardedSnapshot, SubmitOptions,
};
use reuse_workloads::{Scale, Workload, WorkloadKind};

/// Frames submitted per stream between ticks: large enough that a tick's
/// fixed costs spread over real work, small enough to keep queues short.
const BURST: usize = 4;

/// Timed repeats per configuration (max frames/sec wins; min/median
/// logged alongside).
const REPEATS: usize = 3;

/// `--perf-smoke` floor on 8-stream over 1-stream aggregate throughput.
const MIN_SCALING: f64 = 0.9;

/// `--perf-smoke` floor on 8-stream aggregate frames/sec.
const MIN_FPS: f64 = 1.0;

/// `--open-loop --perf-smoke` ceiling on the p99 latency at half capacity
/// (50 ms).
const MAX_P99_NS: f64 = 50_000_000.0;

/// `--open-loop --perf-smoke` floor on the median of three single-shard
/// 64-stream worker rows' frames per tick (at most 256: 64 streams ×
/// `batch_max`). At the tiny scale on a 2-vCPU AVX2 host, six runs each: a
/// worker that held its shard lock across the block walk read medians of
/// 7.0–13.4, one that walks off the lock 128–171.
const MIN_FRAMES_PER_TICK: f64 = 48.0;

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
/// [`ShardedServer`] of `shards` shards.
struct Row {
    workload: &'static str,
    streams: usize,
    shards: usize,
    fps: FpsSpread,
    latency: Latency,
    /// Frames completed per shard tick over the timed windows (from the
    /// snapshot's `frames_completed` and `ticks`).
    frames_per_tick: f64,
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

/// Lets shard workers run: the driver only yields.
fn yield_to_workers() -> Result<(), ServeError> {
    std::thread::yield_now();
    Ok(())
}

/// `n` streams through a [`ShardedServer`] of `shards` shards, ticked by
/// the driver or, with `workers`, by a [`ShardWorkers`] thread per shard:
/// warm-up, a latency reset, then [`REPEATS`] timed windows of `measure`
/// steady frames per stream, each served to completion. All windows consume
/// fresh frames from one long walk per stream. Latency is merged over the
/// shards.
fn bench(
    w: &Workload,
    model: &Arc<CompiledModel>,
    n: usize,
    shards: usize,
    workers: bool,
    measure: usize,
) -> Row {
    let server = Arc::new(
        ShardedServer::new(Arc::clone(model), closed_loop_config(n), shards)
            .expect("feed-forward serve config"),
    );
    let mut workers = workers.then(|| ShardWorkers::start(Arc::clone(&server)));
    let advance = || match workers {
        Some(_) => yield_to_workers(),
        None => server.tick_all().map(drop),
    };
    let streams = OffsetStreams::new(w, n, WARM + REPEATS * measure, 0);
    let mut sink = 0f32;
    let mut serve = |window: Range<usize>| {
        let keep = |_: usize, out: &[f32]| sink += out[0];
        drive(&server, advance, &streams, window, BURST, keep).expect("steady serving");
    };
    serve(0..WARM);
    server.clear_latency();
    let warm = server.snapshot();
    let fps = (0..REPEATS)
        .map(|r| {
            let from = WARM + r * measure;
            let start = Instant::now();
            serve(from..from + measure);
            (n * measure) as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    black_box(sink);
    if let Some(workers) = &mut workers {
        workers.stop();
        let errors = workers.take_errors();
        assert!(errors.is_empty(), "shard workers reported: {errors:?}");
    }
    assert_eq!(
        server.frames_completed() as usize,
        (WARM + REPEATS * measure) * n
    );
    let done = server.snapshot();
    let ticks = |snap: &ShardedSnapshot| snap.shards.iter().map(|s| s.ticks).sum::<u64>();
    let timed_ticks = ticks(&done) - ticks(&warm);
    Row {
        workload: w.kind().name(),
        streams: n,
        shards,
        fps: FpsSpread::from_repeats(fps),
        latency: Latency::of(&server.merged_latency()),
        frames_per_tick: (done.frames_completed() - warm.frames_completed()) as f64
            / timed_ticks.max(1) as f64,
    }
}

/// Steady frames per stream: fewer at high stream counts so every
/// configuration does comparable total work.
fn frames_for(n: usize) -> usize {
    (512 / n).clamp(8, 512).div_ceil(BURST) * BURST
}

/// Drains every stream's outputs into `sink` (anti-DCE).
fn drain_all(server: &ShardedServer, n: usize, sink: &mut f32) {
    for s in 0..n {
        server.drain_outputs(s as u64, |out| *sink += out[0]);
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
    let warm = |_: usize, out: &[f32]| sink += out[0];
    drive(&server, yield_to_workers, &streams, 0..WARM, WARM, warm).expect("warm-up");
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
    let w = Workload::build(WorkloadKind::Kaldi, scale);
    let model = Arc::new(CompiledModel::new(w.network(), w.reuse_config()));
    let [one, eight] = [1, 8].map(|n| bench(&w, &model, n, 1, false, frames_for(n)).logged());
    let scaling = eight.fps.max / one.fps.max;
    eprintln!(
        "serve smoke: 1-stream {:.0} frames/s, 8-stream {:.0} frames/s, \
         scaling {scaling:.3}x (floor {MIN_SCALING:.3}x), fps floor {MIN_FPS:.1}",
        one.fps.max, eight.fps.max
    );
    if eight.fps.max < MIN_FPS {
        eprintln!("8-stream throughput is below the {MIN_FPS:.1} frames/s floor");
        return ExitCode::FAILURE;
    }
    if scaling < MIN_SCALING {
        eprintln!(
            "8-stream aggregate throughput lost more than the {MIN_SCALING:.3}x floor allows"
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
    let min_scaling = (0.9 * (threads - 1.0)).clamp(1.0, 2.5);
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
                bench(&w, &model, 1, shards, true, frames_for(1)),
                bench(&w, &model, 64, shards, true, frames_for(64)),
            )
        })
        .collect();
    // One shard, so the worker has a CPU of its own beside the driver on
    // any host with two, and its ticks do not depend on the shard count.
    // The median of three, because a driver that fills every queue before
    // the worker wakes makes even a lock-holding worker tick 256 frames.
    let mut ticks: Vec<f64> = (0..3)
        .map(|_| bench(&w, &model, 64, 1, true, frames_for(64)).frames_per_tick)
        .collect();
    ticks.sort_by(f64::total_cmp);
    let frames_per_tick = ticks[1];
    pairs.sort_by(|a, b| ratio(a).total_cmp(&ratio(b)));
    let (one, many) = &pairs[1];
    let scaling = ratio(&pairs[1]);
    eprintln!(
        "shard smoke ({} shards, {} threads): 1-stream {:.0} frames/s, 64-stream {:.0} frames/s, \
         scaling {scaling:.3}x (floor {min_scaling:.3}x); 64 streams on 1 shard \
         {frames_per_tick:.1} frames/tick (floor {MIN_FRAMES_PER_TICK:.1})",
        shards, threads as usize, one.fps.max, many.fps.max
    );
    if scaling < min_scaling {
        eprintln!("64-stream sharded throughput is below the {min_scaling:.3}x scaling floor");
        return ExitCode::FAILURE;
    }
    if frames_per_tick < MIN_FRAMES_PER_TICK {
        eprintln!("1-shard ticks are below the {MIN_FRAMES_PER_TICK:.1} frames/tick floor");
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
        "open-loop smoke: offered {:.0} fps, achieved {:.0} fps, p99 {} ns (ceiling {MAX_P99_NS:.0} ns)",
        point.offered_fps, point.achieved_fps, point.latency.p99_ns
    );
    if point.latency.p99_ns as f64 > MAX_P99_NS {
        eprintln!("open-loop p99 at half capacity exceeds the {MAX_P99_NS:.0} ns ceiling");
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
