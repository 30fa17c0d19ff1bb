//! Kernel floors for CI; records nothing (the repository benchmark's
//! `tensor.*` and `reuse.*` metrics are the recorded numbers).
//!
//! `kernel_bench --perf-smoke` times the naive-vs-blocked matmul pair and
//! exits nonzero when the blocked kernel misses its floors. The floors
//! follow the active SIMD level: under AVX2 the blocked kernel must reach
//! `REUSE_BLOCKED_MIN_SPEEDUP` × naive (default 2.0) **and**
//! `REUSE_BLOCKED_MIN_GFLOPS` absolute GFLOP/s (default 48.0, i.e. ≥4× the
//! pre-SIMD 11.98 GFLOP/s baseline); without AVX2 the floors auto-relax to
//! the scalar guard (speedup ≥ 1.0, no absolute floor) so non-x86 CI hosts
//! still gate against regressions they can actually measure. The two conv
//! forward rows run through the same GEMM and are gated the same way: a
//! per-geometry GFLOP/s floor under AVX2, and never slower than the naive
//! nest at either level. Outputs of the two sides are bit-identical under
//! the scalar SIMD level; under AVX2 the blocked kernels fuse multiply-adds
//! and agree with naive within `reuse_tensor::simd::fma_tolerance` (see
//! DESIGN.md). The next row holds the conv *reuse* step to the paper's claim:
//! on AutoPilot CONV2 at ~15% changed inputs, detecting and correcting must
//! beat the layer's own packed forward by `REUSE_CONV_REUSE_MIN_SPEEDUP`
//! (default 1.1 under AVX2; no floor at the scalar level). The last three hold
//! the recurrent path's levers, under AVX2 only and to constants: one
//! EESEN-shaped cell over a 40-step sequence must run ≥ 1.15× faster as one
//! `step_block` call than as forty (the feed-forward weights fetched once
//! per block instead of once per timestep), its full-precision
//! `forward_sequence_into` ≥ 1.5× faster than the per-`step` loop over the
//! raw gate matrices it replaced, and the in-tree σ/φ cell update ≥ 3×
//! faster than the libm-form loop it replaced.
//!
//! `kernel_bench --telemetry-smoke` runs the same steady-state frames
//! through a session with telemetry off and on, in mirrored alternating
//! rounds, takes the round with the median on/off ratio — the overhead of
//! the recording path — and exits nonzero when that overhead, less what the
//! rounds can resolve, exceeds `REUSE_TELEMETRY_OVERHEAD_PCT` (default 5%).
//!
//! Usage: `cargo run --release -p reuse-bench --bin kernel_bench --
//! --perf-smoke | --telemetry-smoke`; anything else prints this and exits 2.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use reuse_bench::env_parse;
use reuse_bench::streams::random_walk;
use reuse_core::conv::{ConvLayer, ConvPack, ConvReuseState};
use reuse_core::layer::SERIAL;
use reuse_core::lstm::{LstmGatePack, LstmReuseState};
use reuse_core::{CompiledModel, ReuseConfig, ReuseSession};
use reuse_nn::lstm::LstmScratch;
use reuse_nn::{
    init::Rng64, Activation, Conv2dLayer, Conv3dLayer, Layer, LstmCell, LstmState, NetworkBuilder,
};
use reuse_quant::{InputRange, LinearQuantizer};
use reuse_tensor::conv::{conv_forward_into, conv_forward_naive, Conv2dSpec, Conv3dSpec};
use reuse_tensor::{matmul, Shape, Tensor};

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

fn random_input(len: usize, rng: &mut Rng64) -> Vec<f32> {
    (0..len).map(|_| rng.uniform(0.9)).collect()
}

/// The naive-vs-blocked matmul pair of the `--perf-smoke` CI gate: C = A·B
/// at Kaldi-FC3-like geometry with enough rows to keep the kernel
/// compute-bound. The blocked side multiplies against a pre-packed `B` (the
/// steady-state shape for weight matrices: pack once, multiply every
/// frame), so the two sides compare kernels, not the one-time repack.
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
        gemm: Box::new(move || {
            c.fill(0.0);
            matmul::matmul_packed_into(&SERIAL, black_box(a.as_slice()), &packed, m, &mut c);
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
    /// rows measured at PR 13 (45 and 47 GFLOP/s on the reference box) with
    /// headroom for their 2x wander.
    min_avx2_gflops: f64,
    naive: Box<dyn FnMut()>,
    gemm: Box<dyn FnMut()>,
}

/// Builds one pair from a layer of either rank and a seeded random input of
/// `in_shape`: the oracle on the raw weights against the kernel on the
/// layer's panels, writing into one reused buffer as the session does.
fn conv_pair<L: ConvLayer + Clone + 'static>(
    name: &'static str,
    min_avx2_gflops: f64,
    layer: L,
    in_shape: Shape,
    seed: u64,
) -> KernelPair {
    let mut dhw = [1; 3];
    dhw[3 - L::RANK..].copy_from_slice(&in_shape.dims()[1..]);
    let input = random_input(in_shape.volume(), &mut Rng64::new(seed));
    let (naive_layer, naive_input) = (layer.clone(), input.clone());
    let mut out = Vec::new();
    KernelPair {
        name,
        flops: layer.geometry().flops(dhw),
        min_avx2_gflops,
        naive: Box::new(move || {
            let (g, x) = (naive_layer.geometry(), black_box(naive_input.as_slice()));
            let (w, b) = (naive_layer.weights(), naive_layer.bias());
            black_box(conv_forward_naive(g, dhw, x, w, b).unwrap());
        }),
        gemm: Box::new(move || {
            let (g, x) = (layer.geometry(), black_box(input.as_slice()));
            conv_forward_into(g, dhw, x, layer.panels(), layer.bias(), &mut out).unwrap();
            black_box(&out);
        }),
    }
}

/// AutoPilot-small CONV2: 24×31×98 in, 36 filters (off the 16-lane panel),
/// 5×5 stride 2.
const AUTOPILOT_CONV2: Conv2dSpec = Conv2dSpec {
    in_channels: 24,
    out_channels: 36,
    kh: 5,
    kw: 5,
    stride: 2,
    pad: 0,
};

/// The conv forward pairs of the `--perf-smoke` CI gate: AutoPilot CONV2
/// and a C3D-style 3D convolution (CONV3 channel ratio, reduced spatial size
/// so the naive side stays near 100 ms).
fn conv_pairs() -> [KernelPair; 2] {
    let spec2 = AUTOPILOT_CONV2;
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
        ),
        conv_pair(
            "c3d_conv3_32x4x14x14/forward",
            20.0,
            layer3,
            Shape::d4(32, 4, 14, 14),
            6,
        ),
    ]
}

/// Rounds of a before/after pair: one pass of each per round, the order
/// alternating.
const PAIR_ROUNDS: usize = 15;

/// The median over [`PAIR_ROUNDS`] alternating rounds of `pass(false) /
/// pass(true)`: the seconds of a before-side pass over an after-side one.
fn median_speedup(mut pass: impl FnMut(bool) -> f64) -> f64 {
    let mut ratios: Vec<f64> = (0..PAIR_ROUNDS)
        .map(|round| {
            if round % 2 == 0 {
                let after = pass(true);
                pass(false) / after
            } else {
                let before = pass(false);
                before / pass(true)
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[PAIR_ROUNDS / 2]
}

/// The conv reuse row of the `--perf-smoke` CI gate: AutoPilot CONV2's reuse
/// step (detect, correct, write out, activation — what the session's slot
/// runs) against the layer's packed forward plus activation (what its
/// reuse-off twin runs) over the same seeded random walk, walked forward and
/// back so every frame follows a neighbour. Returns the median over
/// alternating rounds of forward time / reuse time, and the share of inputs
/// whose code changed per frame.
fn conv_reuse_speedup() -> (f64, f64) {
    let layer = Conv2dLayer::random(AUTOPILOT_CONV2, Activation::Relu, &mut Rng64::new(3));
    let in_shape = Shape::d3(24, 31, 98);
    let quantizer = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 32).unwrap();
    // A step of 0.02 against a code width of 1/16 moves ~15% of the codes.
    let walk = random_walk(17, in_shape.volume(), 0.8, 0.02, 31);
    let there_and_back: Vec<&Vec<f32>> = walk.iter().chain(walk[1..16].iter().rev()).collect();
    let pack = ConvPack::new(&layer);
    let mut state = ConvReuseState::new(&layer, &in_shape).unwrap();
    let mut out = Vec::new();
    let (mut changed, mut inputs) = (0, 0);
    let mut reuse_pass = || {
        let start = Instant::now();
        for frame in &there_and_back {
            let stats = state
                .execute_into_packed(
                    &SERIAL,
                    &layer,
                    &pack,
                    &quantizer,
                    black_box(frame),
                    &mut out,
                )
                .unwrap();
            layer.activation().apply_in_place(&mut out);
            black_box(&out);
            if !stats.from_scratch {
                changed += stats.n_changed;
                inputs += stats.n_inputs;
            }
        }
        start.elapsed().as_secs_f64()
    };
    let (twin, mut twin_out) = (Layer::Conv2d(layer.clone()), Vec::new());
    let mut forward_pass = || {
        let start = Instant::now();
        for frame in &there_and_back {
            twin.forward_into(&in_shape, black_box(frame), &mut twin_out)
                .unwrap();
            black_box(&twin_out);
        }
        start.elapsed().as_secs_f64()
    };
    // Untimed: the state-initialising frame and one steady pass.
    reuse_pass();
    let speedup = median_speedup(|reuse| if reuse { reuse_pass() } else { forward_pass() });
    (speedup, changed as f64 / inputs as f64)
}

/// EESEN BiLSTM2's cell: 640 inputs, 320 units.
const EESEN_CELL: (usize, usize) = (640, 320);

/// The LSTM reuse row of the `--perf-smoke` CI gate: one EESEN-shaped cell
/// over a seeded 40-step walk (state reset per pass, as the session resets
/// it per sequence), run as forty `step_block` calls of one timestep — every
/// timestep fetches the feed-forward weights again — against one call of
/// forty. Same entry, same bits, one loop order apart. Returns the median
/// over alternating rounds of the two times' ratio and the share of inputs
/// (x and h) whose code changed per correcting timestep.
fn lstm_block_speedup() -> (f64, f64) {
    let (n_in, d) = EESEN_CELL;
    let cell = LstmCell::random(n_in, d, &mut Rng64::new(7));
    let pack = LstmGatePack::new(&cell);
    let q = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 32).unwrap();
    // A step of 0.04 against a code width of 1/16 moves ~30% of the codes.
    let walk = random_walk(40, n_in, 0.8, 0.04, 33);
    let mut state = LstmReuseState::new_shared(&cell);
    let (mut changed, mut inputs) = (0, 0);
    let mut pass = |steps_per_call: usize| {
        state.reset(&cell);
        let start = Instant::now();
        for run in walk.chunks(steps_per_call) {
            let xs = run.iter().map(|x| black_box(x.as_slice()));
            state
                .step_block(&cell, &pack, (&q, &q), xs, false, |h, stats, _| {
                    black_box(h);
                    if !stats.from_scratch {
                        changed += stats.n_changed;
                        inputs += stats.n_inputs;
                    }
                })
                .unwrap();
        }
        start.elapsed().as_secs_f64()
    };
    pass(walk.len());
    let speedup = median_speedup(|block| pass(if block { walk.len() } else { 1 }));
    (speedup, changed as f64 / inputs as f64)
}

/// The recurrent forward row of the `--perf-smoke` CI gate: one EESEN-shaped
/// cell's full-precision pass over a 40-step sequence through
/// `LstmCell::forward_sequence_into` (the x side as one GEMM per gate over the
/// packed panels, then an h-only recurrence) against the per-timestep
/// `LstmCell::step` loop over the raw gate matrices it replaced, kept here as
/// the before side (same bits: `crates/nn/tests/proptests.rs`). Returns the
/// median over alternating rounds of the two times' ratio.
fn lstm_forward_speedup() -> f64 {
    let (n_in, d) = EESEN_CELL;
    let cell = LstmCell::random(n_in, d, &mut Rng64::new(7));
    let walk = random_walk(40, n_in, 0.8, 0.04, 33);
    let flat = walk.concat();
    let (mut out, mut scratch) = (Vec::new(), LstmScratch::default());
    median_speedup(|batched| {
        let start = Instant::now();
        if batched {
            cell.forward_sequence_into(black_box(&flat), walk.len(), &mut out, &mut scratch)
                .unwrap();
            black_box(&out);
        } else {
            let mut state = LstmState::zeros(d);
            for x in &walk {
                state = cell.step(black_box(x), &state).unwrap();
                black_box(&state.h);
            }
        }
        start.elapsed().as_secs_f64()
    })
}

/// The gate-update row of the `--perf-smoke` CI gate: the cell update of an
/// EESEN-sized cell through `reuse_tensor::simd::lstm_gate_update` against
/// the libm-form loop it replaced (five `expf`/`tanhf` calls per unit), kept
/// here as the before side. Returns the median over alternating rounds of
/// libm time / kernel time.
fn gate_update_speedup() -> f64 {
    const PASSES: usize = 2000;
    let d = EESEN_CELL.1;
    let pre = random_input(4 * d, &mut Rng64::new(9));
    let pre: Vec<f32> = pre.iter().map(|v| v * 6.0).collect();
    let libm = |pre: &[f32], c: &mut [f32], h: &mut [f32]| {
        let sigmoid = |v: f32| 1.0 / (1.0 + (-v).exp());
        for j in 0..d {
            let (i, f) = (sigmoid(pre[j]), sigmoid(pre[d + j]));
            let (g, o) = (pre[2 * d + j].tanh(), sigmoid(pre[3 * d + j]));
            c[j] = f * c[j] + i * g;
            h[j] = o * c[j].tanh();
        }
    };
    median_speedup(|kernel| {
        let (mut c, mut h) = (vec![0.1f32; d], vec![0.0f32; d]);
        let start = Instant::now();
        for _ in 0..PASSES {
            if kernel {
                reuse_tensor::simd::lstm_gate_update(black_box(&pre), &mut c, &mut h);
            } else {
                libm(black_box(&pre), &mut c, &mut h);
            }
            black_box(&h);
        }
        start.elapsed().as_secs_f64()
    })
}

/// Steady-state engine timings with telemetry off vs on, plus the per-layer
/// hit-rate provenance read back from the telemetry engine's snapshot.
struct EngineBench {
    base_ns: f64,
    telemetry_ns: f64,
    /// Half-width, in percent, of the notch around the median on/off ratio
    /// (1.58 × IQR / √rounds): what the rounds can resolve.
    resolution_pct: f64,
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
    let naive_ns = time_ns(&mut pair.naive);
    let blocked_ns = time_ns(&mut pair.gemm);
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
        let gemm_ns = time_ns(&mut pair.gemm);
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
    // The paper's claim on one layer: correcting the changed inputs beats
    // recomputing. Held under AVX2 only — the scalar level has no floor.
    let min_reuse: f64 =
        env_parse("REUSE_CONV_REUSE_MIN_SPEEDUP").unwrap_or(if avx2 { 1.1 } else { 0.0 });
    let (speedup, changed) = conv_reuse_speedup();
    eprintln!(
        "perf smoke [{}]: autopilot_conv2_24x31x98/reuse_step at {:.1}% changed inputs, \
         {speedup:.3}x its packed forward (floor {min_reuse:.3}x)",
        level.name(),
        changed * 100.0
    );
    if speedup < min_reuse {
        eprintln!("the conv reuse step does not beat recomputing by the {min_reuse:.3}x floor");
        ok = false;
    }
    // The recurrent path's levers, each against its own before side.
    // Constants, held under AVX2 only (the block split measured 1.4–1.7x
    // there, the batched forward ~3x, the σ/φ kernel 5–9x).
    let (speedup, changed) = lstm_block_speedup();
    let floor = if avx2 { 1.15 } else { 0.0 };
    eprintln!(
        "perf smoke [{}]: eesen_cell_640x320/one_block_of_40 at {:.1}% changed inputs, \
         {speedup:.3}x forty blocks of one (floor {floor:.3}x)",
        level.name(),
        changed * 100.0
    );
    if speedup < floor {
        eprintln!("one block of timesteps does not beat single steps by the {floor:.3}x floor");
        ok = false;
    }
    let speedup = lstm_forward_speedup();
    let floor = if avx2 { 1.5 } else { 0.0 };
    eprintln!(
        "perf smoke [{}]: eesen_cell_640x320/forward_batched_40 {speedup:.3}x the per-step \
         loop (floor {floor:.3}x)",
        level.name()
    );
    if speedup < floor {
        eprintln!("the batched forward does not beat the step loop by the {floor:.3}x floor");
        ok = false;
    }
    let speedup = gate_update_speedup();
    let floor = if avx2 { 3.0 } else { 0.0 };
    eprintln!(
        "perf smoke [{}]: eesen_cell_640x320/gate_update {speedup:.3}x its libm form \
         (floor {floor:.3}x)",
        level.name()
    );
    if speedup < floor {
        eprintln!("the gate update does not beat its libm form by the {floor:.3}x floor");
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the engine pair and fails when the rounds resolve the telemetry
/// overhead as above the budget.
fn telemetry_smoke() -> ExitCode {
    let bench = bench_engine_pair();
    let threshold: f64 = env_parse("REUSE_TELEMETRY_OVERHEAD_PCT").unwrap_or(5.0);
    let (overhead, resolution) = (bench.overhead_pct(), bench.resolution_pct);
    let over = overhead - resolution > threshold;
    eprintln!(
        "telemetry overhead {overhead:.2}% ± {resolution:.2}% {} the {threshold:.2}% budget",
        if over { "exceeds" } else { "within" }
    );
    ExitCode::from(u8::from(over))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--perf-smoke"] => perf_smoke(),
        ["--telemetry-smoke"] => telemetry_smoke(),
        _ => {
            eprintln!("usage: kernel_bench --perf-smoke | --telemetry-smoke");
            ExitCode::from(2)
        }
    }
}
