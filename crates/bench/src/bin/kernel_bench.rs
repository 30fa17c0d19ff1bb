//! Naive/blocked/parallel kernel timings at the paper's Table I layer
//! geometries, written to `BENCH_kernels.json`.
//!
//! Every kernel is measured three ways on identical inputs:
//!
//! - **naive**: the original serial loop nest (the exactness oracle kept
//!   as `matmul_naive` / `conv_forward_naive` / `execute_into_naive`);
//! - **blocked**: the cache-blocked, panel-packed kernel on the serial
//!   config, dispatched at the resolved `reuse_tensor::SimdLevel` — the
//!   before/after pair for the blocking + SIMD work (for the conv rows:
//!   im2col blocks through the packed matmul);
//! - **parallel**: the blocked kernel under `REUSE_THREADS` workers
//!   (default 4), clamped to the host's hardware threads by
//!   `ParallelConfig` — the JSON records the requested count and, per
//!   kernel row, the resolved (clamped) count. On hosts where the clamp
//!   resolves to one worker the parallel columns are skipped (they would
//!   duplicate the blocked column) and the row says so instead.
//!
//! Outputs are bit-identical across the three under the scalar SIMD level;
//! under AVX2 the blocked/parallel kernels fuse multiply-adds and agree
//! with naive within `reuse_tensor::simd::fma_tolerance` (see DESIGN.md).
//! Only the ns/iter and GFLOP/s columns vary with the machine; the JSON
//! header records the active and detected SIMD level plus the CPU feature
//! flags so numbers are never compared across ISAs by accident. Forward
//! rows use the layer's analytic FLOP count; the FC and LSTM
//! reuse-correction rows (at ~10% changed inputs) use the MACs the
//! correction actually performed, read from the execution stats. (The conv
//! correction has one walk, hence no pair; the repository benchmark times it.)
//!
//! An engine-level pair is also measured: the same steady-state frames with
//! telemetry off and on, in mirrored alternating rounds, reporting the
//! round with the median on/off ratio — the overhead of the recording path
//! — plus the per-layer hit rates read back from the telemetry snapshot.
//! Running `kernel_bench --telemetry-smoke` measures only that pair and
//! exits nonzero when the overhead, less what the rounds can resolve,
//! exceeds `REUSE_TELEMETRY_OVERHEAD_PCT` (default 5%).
//!
//! Running `kernel_bench --perf-smoke` times the naive-vs-blocked matmul
//! pair and exits nonzero when the blocked kernel misses its floors. The
//! floors follow the active SIMD level: under AVX2 the blocked kernel must
//! reach `REUSE_BLOCKED_MIN_SPEEDUP` × naive (default 2.0) **and**
//! `REUSE_BLOCKED_MIN_GFLOPS` absolute GFLOP/s (default 48.0, i.e. ≥4× the
//! pre-SIMD 11.98 GFLOP/s baseline); without AVX2 the floors auto-relax to
//! the scalar guard (speedup ≥ 1.0, no absolute floor) so non-x86 CI hosts
//! still gate against regressions they can actually measure. The two conv
//! forward rows run through the same GEMM and are gated the same way: a
//! per-geometry GFLOP/s floor under AVX2, and never slower than the naive
//! nest at either level.
//!
//! `kernel_bench --validate <out.json>` re-reads a benchmark file and exits
//! nonzero when the schema (header keys, SIMD provenance, per-row keys) is
//! missing fields — the CI guard that regenerated files stay parseable.
//!
//! Usage: `cargo run --release -p reuse-bench --bin kernel_bench [out.json]`

use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use reuse_bench::env_parse;
use reuse_bench::streams::random_walk;
use reuse_core::conv::ConvLayer;
use reuse_core::fc::FcReuseState;
use reuse_core::lstm::{LstmGatePack, LstmReuseState};
use reuse_core::{json, CompiledModel, ReuseConfig, ReuseSession};
use reuse_nn::{
    init::Rng64, Activation, Conv2dLayer, Conv3dLayer, FullyConnected, LstmCell, NetworkBuilder,
    NnError,
};
use reuse_quant::{InputRange, LinearQuantizer};
use reuse_tensor::conv::{conv_forward_naive, Conv2dSpec, Conv3dSpec};
use reuse_tensor::{matmul, ParallelConfig, Shape, Tensor};

/// One naive/blocked/parallel triple of measurements. `parallel_ns` is
/// `None` when the thread clamp resolved to one worker — timing it would
/// only duplicate the blocked column.
struct Row {
    name: String,
    /// FLOPs one iteration performs (analytic for forwards, measured MACs
    /// ×2 for reuse corrections).
    flops: u64,
    naive_ns: f64,
    blocked_ns: f64,
    parallel_ns: Option<f64>,
}

impl Row {
    fn blocked_speedup(&self) -> f64 {
        self.naive_ns / self.blocked_ns
    }
    fn parallel_speedup(&self) -> Option<f64> {
        self.parallel_ns.map(|ns| self.naive_ns / ns)
    }
    fn gflops(&self, ns: f64) -> f64 {
        self.flops as f64 / ns
    }
}

/// Times `f` until it has run for ~200 ms (at least 5 iterations) and
/// returns ns/iter.
fn time_ns(mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f();
    }
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        if iters >= 5 && start.elapsed().as_millis() >= 200 {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn quantizer() -> LinearQuantizer {
    LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap()
}

/// Mutates ~`fraction` of the inputs by more than one quantization step.
fn perturb(base: &[f32], fraction: f64, step: f32, rng: &mut Rng64) -> Vec<f32> {
    let mut out = base.to_vec();
    let n = ((base.len() as f64) * fraction) as usize;
    for _ in 0..n {
        let i = (rng.next_u64() % base.len() as u64) as usize;
        out[i] = (out[i] + 3.0 * step).rem_euclid(2.0) - 1.0;
    }
    out
}

fn random_input(len: usize, rng: &mut Rng64) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(0.9)).collect()
}

/// Measures one kernel three ways. `naive` always runs serially; `blocked`
/// is timed once with the serial config and — unless the clamp resolved to
/// a single worker, where the numbers would be the blocked column again —
/// once with `parallel`.
fn bench_triple(
    name: &str,
    flops: u64,
    parallel: &ParallelConfig,
    mut naive: impl FnMut(),
    mut blocked: impl FnMut(&ParallelConfig),
) -> Row {
    let serial = ParallelConfig::serial();
    let naive_ns = time_ns(&mut naive);
    let blocked_ns = time_ns(|| blocked(&serial));
    let parallel_ns = (parallel.workers_for(usize::MAX) > 1).then(|| time_ns(|| blocked(parallel)));
    let row = Row {
        name: name.to_string(),
        flops,
        naive_ns,
        blocked_ns,
        parallel_ns,
    };
    let parallel_col = match row.parallel_ns {
        Some(ns) => format!(
            "parallel {:>11.0} ns ({:.2}x)",
            ns,
            row.parallel_speedup().unwrap_or(f64::NAN)
        ),
        None => "parallel skipped (1 worker)".to_string(),
    };
    eprintln!(
        "{:<40} naive {:>11.0} ns  blocked {:>11.0} ns ({:.2}x, {:.2} GFLOP/s)  {parallel_col}",
        row.name,
        row.naive_ns,
        row.blocked_ns,
        row.blocked_speedup(),
        row.gflops(row.blocked_ns),
    );
    row
}

/// One FC forward row: the matvec over the row-major weights against the
/// layer's packed forward.
fn fc_forward_row(
    name: &str,
    layer: &FullyConnected,
    input: &[f32],
    parallel: &ParallelConfig,
) -> Row {
    let input = Tensor::from_slice_1d(input).unwrap();
    let (mut naive_out, mut out) = (Vec::new(), Vec::new());
    let serial = ParallelConfig::serial();
    let (weights, bias) = (layer.weights(), layer.bias());
    bench_triple(
        name,
        matmul::fc_flops(layer.n_in(), layer.n_out()),
        parallel,
        || {
            matmul::fc_forward_into(&serial, weights, black_box(&input), bias, &mut naive_out)
                .unwrap();
            black_box(&naive_out);
        },
        |cfg| {
            layer
                .forward_linear_into(cfg, black_box(&input), &mut out)
                .unwrap();
            black_box(&out);
        },
    )
}

/// The naive-vs-blocked matmul pair used by both the full run and the
/// `--perf-smoke` CI gate: C = A·B at Kaldi-FC3-like geometry with enough
/// rows to keep the kernel compute-bound. The blocked side multiplies
/// against a pre-packed `B` (the steady-state shape for weight matrices:
/// pack once, multiply every frame), so the columns compare kernels, not
/// the one-time repack.
fn matmul_pair() -> KernelPair {
    let (m, k, n) = (64usize, 400usize, 2000usize);
    let mut rng = Rng64::new(12);
    let a = Tensor::from_vec(Shape::d2(m, k), random_input(m * k, &mut rng)).unwrap();
    let b = Tensor::from_vec(Shape::d2(k, n), random_input(k * n, &mut rng)).unwrap();
    let packed = reuse_tensor::PackedPanels::pack(&b).unwrap();
    let (naive_a, mut c) = (a.clone(), vec![0.0f32; m * n]);
    KernelPair {
        name: "matmul_64x400x2000",
        flops: 2 * (m * k * n) as u64,
        min_avx2_gflops: 48.0,
        naive: Box::new(move || {
            black_box(matmul::matmul_naive(black_box(&naive_a), black_box(&b)).unwrap());
        }),
        gemm: Box::new(move |cfg| {
            c.fill(0.0);
            matmul::matmul_packed_into(cfg, black_box(a.as_slice()), &packed, m, &mut c);
            black_box(&c);
        }),
    }
}

/// One naive-vs-GEMM pair — the matmul, or a conv forward (the naive
/// oracle against im2col blocks × the weights packed at layer
/// construction) — plus the AVX2 throughput floor `--perf-smoke` holds the
/// GEMM side to.
struct KernelPair {
    name: &'static str,
    flops: u64,
    /// Matmul: ≥4× the pre-SIMD 11.98 GFLOP/s baseline. Conv: set from the
    /// committed `BENCH_kernels.json` row (45 and 47 GFLOP/s on the
    /// reference box) with headroom for its 2x wander.
    min_avx2_gflops: f64,
    naive: Box<dyn FnMut()>,
    gemm: Box<dyn FnMut(&ParallelConfig)>,
}

/// Builds one pair from a layer of either rank, a seeded random input of
/// `in_shape` and the layer's `forward_linear_with`.
fn conv_pair<L: ConvLayer + Clone + 'static>(
    name: &'static str,
    min_avx2_gflops: f64,
    layer: L,
    in_shape: Shape,
    seed: u64,
    forward: fn(&L, &ParallelConfig, &Tensor) -> Result<Tensor, NnError>,
) -> KernelPair {
    let mut dhw = [1; 3];
    dhw[3 - L::RANK..].copy_from_slice(&in_shape.dims()[1..]);
    let input = random_input(in_shape.volume(), &mut Rng64::new(seed));
    let input = Tensor::from_vec(in_shape, input).unwrap();
    let (naive_layer, naive_input) = (layer.clone(), input.clone());
    KernelPair {
        name,
        flops: layer.geometry().flops(dhw),
        min_avx2_gflops,
        naive: Box::new(move || {
            let (g, x) = (naive_layer.geometry(), black_box(naive_input.as_slice()));
            let (w, b) = (naive_layer.weights(), naive_layer.bias());
            black_box(conv_forward_naive(g, dhw, x, w, b).unwrap());
        }),
        gemm: Box::new(move |cfg| {
            black_box(forward(&layer, cfg, black_box(&input)).unwrap());
        }),
    }
}

/// The conv forward pairs used by both the full run and the `--perf-smoke`
/// CI gate: AutoPilot CONV2 (24 -> 36 channels, 5x5 stride 2, filters off
/// the 16-lane panel) and a C3D-style 3D convolution (CONV3 channel ratio,
/// reduced spatial size so the naive side stays near 100 ms).
fn conv_pairs() -> [KernelPair; 2] {
    let spec2 = Conv2dSpec {
        in_channels: 24,
        out_channels: 36,
        kh: 5,
        kw: 5,
        stride: 2,
        pad: 0,
    };
    let spec3 = Conv3dSpec {
        in_channels: 32,
        out_channels: 64,
        kd: 3,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
    };
    let layer2 = Conv2dLayer::random(spec2, Activation::Relu, &mut Rng64::new(3));
    let layer3 = Conv3dLayer::random(spec3, Activation::Relu, &mut Rng64::new(5));
    [
        conv_pair(
            "autopilot_conv2_24x31x98/forward",
            12.0,
            layer2,
            Shape::d3(24, 31, 98),
            4,
            Conv2dLayer::forward_linear_with,
        ),
        conv_pair(
            "c3d_conv3_32x4x14x14/forward",
            20.0,
            layer3,
            Shape::d4(32, 4, 14, 14),
            6,
            Conv3dLayer::forward_linear_with,
        ),
    ]
}

/// Steady-state engine timings with telemetry off vs on, plus the per-layer
/// hit-rate provenance read back from the telemetry engine's snapshot.
struct EngineBench {
    base_ns: f64,
    telemetry_ns: f64,
    /// Half-width, in percent, of the notch around the median on/off ratio
    /// (1.58 × IQR / √rounds): what the rounds can resolve.
    resolution_pct: f64,
    /// Active reuse-policy name resolved by the compiled model
    /// (`"static"` unless a policy override is wired in).
    policy: String,
    layers: Vec<(String, f64)>,
}

impl EngineBench {
    fn overhead_pct(&self) -> f64 {
        (self.telemetry_ns - self.base_ns) / self.base_ns * 100.0
    }
}

/// Frames per timed block of the engine pair (a few milliseconds).
const ENGINE_BLOCK: usize = 128;

/// Rounds of the engine pair, each a mirrored pair of off/on passes.
const ENGINE_ROUNDS: usize = 81;

/// Times one block of steady-state `execute_into` frames, in ns/frame.
fn time_block(session: &mut ReuseSession, frames: &[Vec<f32>], out: &mut Vec<f32>) -> f64 {
    let start = Instant::now();
    for i in 0..ENGINE_BLOCK {
        session
            .execute_into(black_box(&frames[i % frames.len()]), out)
            .unwrap();
    }
    black_box(&out);
    start.elapsed().as_nanos() as f64 / ENGINE_BLOCK as f64
}

/// Runs the telemetry-off/on engine pair on identical frame streams and
/// reports the round with the median on/off ratio. Every round compiles
/// both models afresh, twice, in mirrored order, and times short
/// alternating blocks: allocator placement, running second and the host's
/// slow phases each move a single pass by more than the overhead measured
/// (DESIGN.md §15); mirrored, two telemetry-off sides read 0 ± 1%.
fn bench_engine_pair() -> EngineBench {
    let net = NetworkBuilder::new("telemetry-overhead", 256)
        .fully_connected(512, Activation::Relu)
        .fully_connected(512, Activation::Relu)
        .fully_connected(128, Activation::Identity)
        .build()
        .unwrap();
    // Enough per-frame change that the incremental path does real
    // correction work every execution.
    let frames = random_walk(16, 256, 0.8, 0.05, 21);
    // One compiled model per config (telemetry is a compile-time setting);
    // the timed state is a per-stream session, same as the serving path.
    let off = ReuseConfig::uniform(16);
    let on = ReuseConfig::uniform(16).telemetry(true);
    let open = |c: &ReuseConfig| std::sync::Arc::new(CompiledModel::new(&net, c)).new_session();
    let mut out = Vec::new();
    let mut rounds: Vec<(f64, f64)> = (0..ENGINE_ROUNDS)
        .map(|_| {
            let mut ns = [0.0; 2];
            for configs in [[&off, &on], [&on, &off]] {
                let mut sessions = configs.map(open);
                // Untimed: calibration and set-up, then a steady block each,
                // so every timed block follows a steady block of the other.
                for timed in [false, false, true] {
                    for (session, config) in sessions.iter_mut().zip(configs) {
                        let block_ns = time_block(session, &frames, &mut out);
                        if timed {
                            ns[usize::from(config.records_telemetry())] += block_ns / 2.0;
                        }
                    }
                }
            }
            (ns[0], ns[1])
        })
        .collect();
    let ratio = |r: &(f64, f64)| r.1 / r.0;
    rounds.sort_by(|a, b| ratio(a).total_cmp(&ratio(b)));
    let (base_ns, telemetry_ns) = rounds[ENGINE_ROUNDS / 2];
    let iqr = ratio(&rounds[3 * ENGINE_ROUNDS / 4]) - ratio(&rounds[ENGINE_ROUNDS / 4]);
    let mut tel = open(&on);
    time_block(&mut tel, &frames, &mut out);

    let snap = tel.telemetry_snapshot().expect("telemetry enabled");
    let layers = snap
        .layers
        .iter()
        .map(|l| (l.name.clone(), l.hit_rate))
        .collect();
    let bench = EngineBench {
        base_ns,
        telemetry_ns,
        resolution_pct: 158.0 * iqr / (ENGINE_ROUNDS as f64).sqrt(),
        policy: tel.model().policy_name().to_string(),
        layers,
    };
    eprintln!(
        "{:<40} base   {:>12.0} ns/frame   telemetry {:>12.0} ns/frame   overhead {:+.2}%",
        "engine_mlp_256/steady_frame",
        bench.base_ns,
        bench.telemetry_ns,
        bench.overhead_pct()
    );
    for (name, rate) in &bench.layers {
        eprintln!("  {name:<12} hit rate {:.3}", rate);
    }
    bench
}

/// Times naive vs blocked matmul and exits nonzero when the blocked kernel
/// misses the active SIMD level's floors.
///
/// Under AVX2 the blocked kernel must reach `REUSE_BLOCKED_MIN_SPEEDUP` ×
/// naive (default 2.0) and `REUSE_BLOCKED_MIN_GFLOPS` absolute throughput
/// (default 48.0 — ≥4× the pre-SIMD 11.98 GFLOP/s blocked baseline).
/// Without AVX2 the floors auto-relax to the scalar guard: speedup ≥ 1.0
/// (still overridable) and no absolute GFLOP/s floor, since scalar
/// hardware cannot be held to vector throughput.
fn perf_smoke() -> ExitCode {
    let level = reuse_tensor::simd::level();
    let avx2 = level == reuse_tensor::SimdLevel::Avx2;
    let min_speedup: f64 =
        env_parse("REUSE_BLOCKED_MIN_SPEEDUP").unwrap_or(if avx2 { 2.0 } else { 1.0 });
    let mut pair = matmul_pair();
    let min_gflops: f64 = env_parse("REUSE_BLOCKED_MIN_GFLOPS").unwrap_or(if avx2 {
        pair.min_avx2_gflops
    } else {
        0.0
    });
    let serial = ParallelConfig::serial();
    let naive_ns = time_ns(&mut pair.naive);
    let blocked_ns = time_ns(|| (pair.gemm)(&serial));
    let speedup = naive_ns / blocked_ns;
    let gflops = pair.flops as f64 / blocked_ns;
    eprintln!(
        "perf smoke [{}]: matmul naive {naive_ns:.0} ns, blocked {blocked_ns:.0} ns, \
         speedup {speedup:.3}x (floor {min_speedup:.3}x), \
         {gflops:.2} GFLOP/s (floor {min_gflops:.2})",
        level.name()
    );
    if !avx2 {
        eprintln!("perf smoke: AVX2 unavailable or disabled; scalar floors in force");
    }
    let mut ok = true;
    if speedup < min_speedup {
        eprintln!("blocked matmul is slower than the {min_speedup:.3}x floor");
        ok = false;
    }
    if gflops < min_gflops {
        eprintln!("blocked matmul throughput is below the {min_gflops:.2} GFLOP/s floor");
        ok = false;
    }
    // The conv forward rides the same GEMM: under AVX2 it is held to an
    // absolute throughput floor per geometry, at the scalar level to not
    // losing to the naive nest it replaced.
    for mut pair in conv_pairs() {
        let naive_ns = time_ns(&mut pair.naive);
        let gemm_ns = time_ns(|| (pair.gemm)(&serial));
        let (speedup, gflops) = (naive_ns / gemm_ns, pair.flops as f64 / gemm_ns);
        let floor = if avx2 { pair.min_avx2_gflops } else { 0.0 };
        eprintln!(
            "perf smoke [{}]: {} naive {naive_ns:.0} ns, gemm {gemm_ns:.0} ns, \
             speedup {speedup:.3}x (floor 1.000x), {gflops:.2} GFLOP/s (floor {floor:.2})",
            level.name(),
            pair.name
        );
        if speedup < 1.0 || gflops < floor {
            eprintln!("{} misses its floors", pair.name);
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Re-reads a written benchmark file and checks the schema: the file must
/// parse, and every header key, the SIMD provenance block and the per-row
/// keys must sit where consumers look them up. This guards against the
/// writer and its consumers drifting apart.
fn validate(path: &str) -> ExitCode {
    const REQUIRED: &[&str] = &[
        "hardware_threads",
        "requested_threads",
        "resolved_threads",
        "simd.active",
        "simd.detected",
        "simd.avx2",
        "simd.fma",
        "simd.bit_exact",
        "engine.policy",
        "engine.base_ns_per_frame",
        "engine.telemetry_ns_per_frame",
        "engine.telemetry_overhead_pct",
        "engine.layers.hit_rate",
        "kernels.flops",
        "kernels.naive_ns_per_iter",
        "kernels.blocked_ns_per_iter",
        "kernels.blocked_speedup",
        "kernels.naive_gflops",
        "kernels.blocked_gflops",
    ];
    let root = match reuse_bench::load_artifact(path, "kernel_bench", REQUIRED) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("validate: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Each kernel row carries either measured parallel columns or the
    // explicit skip marker; every row must have one of the two.
    let rows = root
        .get("kernels")
        .and_then(json::Value::as_array)
        .unwrap_or_default();
    let parallel = rows
        .iter()
        .filter(|r| r.get("parallel_ns_per_iter").is_some() || r.get("parallel_skipped").is_some())
        .count();
    if parallel != rows.len() {
        eprintln!(
            "validate: {path} has {} kernel rows but {parallel} \
             parallel columns/skip markers",
            rows.len()
        );
        return ExitCode::FAILURE;
    }
    eprintln!("validate: {path} ok ({} kernel rows)", rows.len());
    ExitCode::SUCCESS
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let arg = std::env::args().nth(1);
    if arg.as_deref() == Some("--telemetry-smoke") {
        let bench = bench_engine_pair();
        let threshold: f64 = env_parse("REUSE_TELEMETRY_OVERHEAD_PCT").unwrap_or(5.0);
        let (overhead, resolution) = (bench.overhead_pct(), bench.resolution_pct);
        // Fails when the rounds resolve the overhead as above the budget.
        let over = overhead - resolution > threshold;
        eprintln!(
            "telemetry overhead {overhead:.2}% ± {resolution:.2}% {} the {threshold:.2}% budget",
            if over { "exceeds" } else { "within" }
        );
        return ExitCode::from(u8::from(over));
    }
    if arg.as_deref() == Some("--perf-smoke") {
        return perf_smoke();
    }
    if arg.as_deref() == Some("--validate") {
        let path = std::env::args()
            .nth(2)
            .unwrap_or_else(|| "BENCH_kernels.json".to_string());
        return validate(&path);
    }
    let out_path = arg.unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let requested_threads: usize = env_parse("REUSE_THREADS").unwrap_or(4);
    let hardware_threads = reuse_tensor::hardware_threads();
    // No work floor and no inline threshold: these are benchmark-sized
    // layers, always worth splitting. The hardware clamp stays in force —
    // `resolved_threads` below is what actually runs.
    let parallel = ParallelConfig::with_threads(requested_threads)
        .min_work_per_thread(1)
        .inline_flops(0);
    let resolved_threads = parallel.workers_for(usize::MAX);
    let q = quantizer();
    let mut rows = Vec::new();

    // Dense matmul at Kaldi-like geometry (the perf-smoke pair); the
    // blocked/parallel columns run against a pre-packed B, the steady-state
    // shape for weight matrices.
    let mut pair = matmul_pair();
    rows.push(bench_triple(
        pair.name,
        pair.flops,
        &parallel,
        &mut pair.naive,
        &mut pair.gemm,
    ));

    // Kaldi FC3 geometry: 400 inputs x 2000 neurons.
    {
        let layer = FullyConnected::random(400, 2000, Activation::Relu, &mut Rng64::new(1));
        let mut rng = Rng64::new(2);
        let base = random_input(400, &mut rng);
        let (mut naive_out, mut out) = (Vec::new(), Vec::new());
        let serial = ParallelConfig::serial();
        rows.push(fc_forward_row(
            "kaldi_fc3_400x2000/forward",
            &layer,
            &base,
            &parallel,
        ));

        let variant = perturb(&base, 0.1, q.step(), &mut rng);
        // Measure the correction's actual MAC count on one changed frame.
        let correction_flops = {
            let mut probe = FcReuseState::new(&layer);
            probe
                .execute_into(&serial, &layer, &q, &base, &mut out)
                .unwrap();
            let stats = probe
                .execute_into(&serial, &layer, &q, &variant, &mut out)
                .unwrap();
            2 * stats.macs_performed
        };
        let mut naive_state = FcReuseState::new(&layer);
        let mut state = FcReuseState::new(&layer);
        let (mut i, mut j) = (0usize, 0usize);
        rows.push(bench_triple(
            "kaldi_fc3_400x2000/reuse_10pct",
            correction_flops,
            &parallel,
            || {
                let input = if i.is_multiple_of(2) { &variant } else { &base };
                i += 1;
                naive_state
                    .execute_into_naive(&serial, &layer, &q, black_box(input), &mut naive_out)
                    .unwrap();
                black_box(&naive_out);
            },
            |cfg| {
                let input = if j.is_multiple_of(2) { &variant } else { &base };
                j += 1;
                state
                    .execute_into(cfg, &layer, &q, black_box(input), &mut out)
                    .unwrap();
                black_box(&out);
            },
        ));
    }

    // L2-resident FC geometry: 400 x 400 weights (~640 KiB) fit in L2, so
    // this row shows the compute-bound ceiling of the single-frame forward
    // kernel. The Kaldi FC3 row above streams a ~3.2 MB matrix from L3 and
    // is bandwidth-capped regardless of ISA — compare the two to separate
    // memory-bound from compute-bound headroom (see DESIGN.md roofline).
    {
        let layer = FullyConnected::random(400, 400, Activation::Relu, &mut Rng64::new(9));
        let base = random_input(400, &mut Rng64::new(10));
        rows.push(fc_forward_row(
            "fc_l2_400x400/forward",
            &layer,
            &base,
            &parallel,
        ));
    }

    // The two conv forward pairs (also the `--perf-smoke` conv gate).
    for mut pair in conv_pairs() {
        rows.push(bench_triple(
            pair.name,
            pair.flops,
            &parallel,
            &mut pair.naive,
            &mut pair.gemm,
        ));
    }

    // EESEN LSTM cell geometry: 640 inputs, 320 cell.
    {
        let cell = LstmCell::random(640, 320, &mut Rng64::new(7));
        let mut rng = Rng64::new(8);
        let base = random_input(640, &mut rng);
        let variant = perturb(&base, 0.1, q.step(), &mut rng);
        let serial = ParallelConfig::serial();
        let mut naive_h = Vec::new();
        let mut h_out = Vec::new();
        let pack = LstmGatePack::new(&cell);
        let correction_flops = {
            let mut probe = LstmReuseState::new_shared(&cell);
            probe
                .step_into_packed(&serial, &cell, &pack, &q, &q, &base, &mut h_out)
                .unwrap();
            let stats = probe
                .step_into_packed(&serial, &cell, &pack, &q, &q, &variant, &mut h_out)
                .unwrap();
            2 * stats.macs_performed
        };
        let mut naive_state = LstmReuseState::new_shared(&cell);
        let mut state = LstmReuseState::new_shared(&cell);
        let (mut i, mut j) = (0usize, 0usize);
        rows.push(bench_triple(
            "eesen_lstm_640x320/reuse_step_10pct",
            correction_flops,
            &parallel,
            || {
                let input = if i.is_multiple_of(2) { &variant } else { &base };
                i += 1;
                naive_state
                    .step_into_naive(&serial, &cell, &q, &q, black_box(input), &mut naive_h)
                    .unwrap();
                black_box(&naive_h);
            },
            |cfg| {
                let input = if j.is_multiple_of(2) { &variant } else { &base };
                j += 1;
                state
                    .step_into_packed(cfg, &cell, &pack, &q, &q, black_box(input), &mut h_out)
                    .unwrap();
                black_box(&h_out);
            },
        ));
    }

    let engine = bench_engine_pair();

    let active = reuse_tensor::simd::level();
    #[cfg(target_arch = "x86_64")]
    let (has_avx2, has_fma) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("fma"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (has_avx2, has_fma) = (false, false);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"kernel_bench\",");
    let _ = writeln!(json, "  \"hardware_threads\": {hardware_threads},");
    let _ = writeln!(json, "  \"requested_threads\": {requested_threads},");
    let _ = writeln!(json, "  \"resolved_threads\": {resolved_threads},");
    // ISA provenance: throughput numbers are only comparable between runs
    // that resolved the same SIMD level on the same feature set.
    let _ = writeln!(json, "  \"simd\": {{");
    let _ = writeln!(json, "    \"active\": \"{}\",", active.name());
    let _ = writeln!(
        json,
        "    \"detected\": \"{}\",",
        reuse_tensor::simd::detected().name()
    );
    let _ = writeln!(json, "    \"arch\": \"{}\",", std::env::consts::ARCH);
    let _ = writeln!(json, "    \"avx2\": {has_avx2},");
    let _ = writeln!(json, "    \"fma\": {has_fma},");
    let _ = writeln!(
        json,
        "    \"bit_exact\": {}",
        reuse_tensor::simd::is_bit_exact()
    );
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"engine\": {{");
    let _ = writeln!(json, "    \"base_ns_per_frame\": {:.0},", engine.base_ns);
    let _ = writeln!(
        json,
        "    \"telemetry_ns_per_frame\": {:.0},",
        engine.telemetry_ns
    );
    let _ = writeln!(
        json,
        "    \"telemetry_overhead_pct\": {:.3},",
        engine.overhead_pct()
    );
    let _ = writeln!(json, "    \"policy\": \"{}\",", engine.policy);
    json.push_str("    \"layers\": [\n");
    for (k, (name, rate)) in engine.layers.iter().enumerate() {
        let _ = writeln!(
            json,
            "      {{\"name\": \"{name}\", \"hit_rate\": {rate:.6}}}{}",
            if k + 1 < engine.layers.len() { "," } else { "" }
        );
    }
    json.push_str("    ]\n  },\n");
    if hardware_threads < requested_threads {
        let skipped = if resolved_threads <= 1 {
            "; parallel columns are skipped (one worker would duplicate the blocked column)"
        } else {
            ""
        };
        let _ = writeln!(
            json,
            "  \"note\": \"host exposes {hardware_threads} hardware thread(s); the \
             requested {requested_threads} workers were clamped to \
             {resolved_threads}{skipped}\","
        );
    }
    json.push_str("  \"kernels\": [\n");
    for (k, r) in rows.iter().enumerate() {
        let parallel_cols = match r.parallel_ns {
            Some(ns) => format!(
                "\"parallel_ns_per_iter\": {:.0}, \"parallel_speedup\": {:.3}, \
                 \"parallel_gflops\": {:.3}",
                ns,
                r.parallel_speedup().unwrap_or(f64::NAN),
                r.gflops(ns)
            ),
            None => format!(
                "\"parallel_skipped\": \"thread clamp resolved to 1 worker; \
                 column would duplicate blocked ({requested_threads} requested, \
                 {hardware_threads} hw)\""
            ),
        };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"flops\": {}, \
             \"resolved_threads\": {resolved_threads}, \
             \"naive_ns_per_iter\": {:.0}, \"blocked_ns_per_iter\": {:.0}, \
             \"blocked_speedup\": {:.3}, \"naive_gflops\": {:.3}, \
             \"blocked_gflops\": {:.3}, {parallel_cols}}}{}",
            r.name,
            r.flops,
            r.naive_ns,
            r.blocked_ns,
            r.blocked_speedup(),
            r.gflops(r.naive_ns),
            r.gflops(r.blocked_ns),
            if k + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_kernels.json");
    eprintln!(
        "wrote {out_path} ({} kernels, {requested_threads} threads requested, \
         {resolved_threads} resolved, {hardware_threads} hw)",
        rows.len()
    );
    ExitCode::SUCCESS
}
