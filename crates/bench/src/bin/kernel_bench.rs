//! Kernel floors for CI; records nothing (the repository benchmark's
//! `tensor.*` and `reuse.*` metrics are the recorded numbers).
//!
//! `kernel_bench --perf-smoke` times the production kernels and exits
//! nonzero when one misses its floor. The floors are constants and hold at
//! the AVX2 level, the one that ships; at the scalar level — a fallback and
//! an oracle, an out-of-line `fmaf` call per multiply-add on a build without
//! compile-time FMA — every row is printed and none is gated. Correctness is
//! not this binary's business: every kernel owes its naive oracle the same
//! bits at every level (`reuse_tensor::simd`, DESIGN.md §9), and the test
//! suites hold that.
//!
//! * the packed matmul at Kaldi-FC3 geometry, ≥ 48 GFLOP/s (≥ 4× the
//!   pre-SIMD 11.98 GFLOP/s baseline);
//! * two conv forwards through the same GEMM under im2col blocks, each to a
//!   per-geometry GFLOP/s floor;
//! * the conv *reuse* step, the paper's claim on one layer: on AutoPilot
//!   CONV2 at ~15% changed inputs, detecting and correcting must beat the
//!   layer's own packed forward by ≥ 1.1×;
//! * the recurrent path's levers: one EESEN-shaped cell over a 40-step
//!   sequence must run ≥ 1.15× faster as one `step_block` call than as forty
//!   (the feed-forward weights fetched once per block instead of once per
//!   timestep), its full-precision `forward_sequence_into` ≥ 1.5× faster
//!   than the per-`step` loop over the raw gate matrices it replaced, and
//!   the in-tree σ/φ cell update ≥ 3× faster than the libm-form loop it
//!   replaced.
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
use reuse_tensor::conv::{conv_forward_into, Conv2dSpec, Conv3dSpec};
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

/// One GEMM-backed kernel of the `--perf-smoke` CI gate — the matmul, or a
/// conv forward (im2col blocks × the weights packed at layer construction) —
/// with the throughput floor it is held to under AVX2.
struct GemmRow {
    name: &'static str,
    flops: u64,
    /// Matmul: ≥4× the pre-SIMD 11.98 GFLOP/s baseline. Conv: set from the
    /// rows measured at PR 13 (45 and 47 GFLOP/s on the reference box) with
    /// headroom for their 2x wander.
    min_avx2_gflops: f64,
    run: Box<dyn FnMut()>,
}

/// C = A·B at Kaldi-FC3-like geometry with enough rows to keep the kernel
/// compute-bound, against a pre-packed `B` (the steady-state shape for
/// weight matrices: pack once, multiply every frame).
fn matmul_row() -> GemmRow {
    let (m, k, n) = (64usize, 400usize, 2000usize);
    let mut rng = Rng64::new(12);
    let a = random_input(m * k, &mut rng);
    let b = Tensor::from_vec(Shape::d2(k, n), random_input(k * n, &mut rng)).unwrap();
    let packed = reuse_tensor::PackedPanels::pack(&b).unwrap();
    let mut c = vec![0.0f32; m * n];
    GemmRow {
        name: "matmul_64x400x2000",
        flops: 2 * (m * k * n) as u64,
        min_avx2_gflops: 48.0,
        run: Box::new(move || {
            c.fill(0.0);
            matmul::matmul_packed_into(&SERIAL, black_box(&a), &packed, m, &mut c);
            black_box(&c);
        }),
    }
}

/// One conv forward row from a layer of either rank and a seeded random
/// input of `in_shape`: the kernel on the layer's panels, writing into one
/// reused buffer as the session does.
fn conv_row<L: ConvLayer + 'static>(
    name: &'static str,
    min_avx2_gflops: f64,
    layer: L,
    in_shape: Shape,
    seed: u64,
) -> GemmRow {
    let mut dhw = [1; 3];
    dhw[3 - L::RANK..].copy_from_slice(&in_shape.dims()[1..]);
    let input = random_input(in_shape.volume(), &mut Rng64::new(seed));
    let mut out = Vec::new();
    GemmRow {
        name,
        flops: layer.geometry().flops(dhw),
        min_avx2_gflops,
        run: Box::new(move || {
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

/// The conv forward rows of the `--perf-smoke` CI gate: AutoPilot CONV2 and
/// a C3D-style 3D convolution (CONV3 channel ratio, reduced spatial size).
fn conv_rows() -> [GemmRow; 2] {
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
        conv_row(
            "autopilot_conv2_24x31x98/forward",
            12.0,
            layer2,
            Shape::d3(24, 31, 98),
            4,
        ),
        conv_row(
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
                .step_block(&cell, &pack, (&q, &q), xs, false, |h, (stats, _)| {
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

/// Times the production kernels and exits nonzero when, under AVX2, one
/// misses its floor; at the scalar level every row prints and none is held
/// (see the module docs).
fn perf_smoke() -> ExitCode {
    let level = reuse_tensor::simd::level();
    let gated = level == reuse_tensor::SimdLevel::Avx2;
    let mut ok = true;
    // One printed row: `value` in `unit`, held to `floor` when gated.
    let mut row = |what: &str, value: f64, unit: &str, floor: f64| {
        let held = if gated {
            format!("floor {floor:.3}")
        } else {
            "no floor at this level".to_string()
        };
        eprintln!(
            "perf smoke [{}]: {what} {value:.3}{unit} ({held})",
            level.name()
        );
        if gated && value < floor {
            eprintln!("{what} misses its {floor:.3}{unit} floor");
            ok = false;
        }
    };
    // The matmul, and the conv forwards that ride the same GEMM.
    for mut kernel in [matmul_row()].into_iter().chain(conv_rows()) {
        let ns = time_ns(&mut kernel.run);
        let what = format!("{} {ns:.0} ns,", kernel.name);
        let gflops = kernel.flops as f64 / ns;
        row(&what, gflops, " GFLOP/s", kernel.min_avx2_gflops);
    }
    // The paper's claim on one layer: correcting the changed inputs beats
    // recomputing.
    let (speedup, changed) = conv_reuse_speedup();
    let what = format!(
        "autopilot_conv2_24x31x98/reuse_step at {:.1}% changed inputs, vs its packed forward",
        changed * 100.0
    );
    row(&what, speedup, "x", 1.1);
    // The recurrent path's levers, each against its own before side (the
    // block split measured 1.4–1.7x under AVX2, the batched forward ~3x, the
    // σ/φ kernel 5–9x).
    let (speedup, changed) = lstm_block_speedup();
    let what = format!(
        "eesen_cell_640x320/one_block_of_40 at {:.1}% changed inputs, vs forty blocks of one",
        changed * 100.0
    );
    row(&what, speedup, "x", 1.15);
    let what = "eesen_cell_640x320/forward_batched_40 vs the per-step loop";
    row(what, lstm_forward_speedup(), "x", 1.5);
    let what = "eesen_cell_640x320/gate_update vs its libm form";
    row(what, gate_update_speedup(), "x", 3.0);
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
