//! Criterion micro-benchmarks of the kernels the paper's results rest on:
//! from-scratch vs incremental FC, convolution and LSTM execution at
//! several change fractions, plus quantization throughput.
//!
//! The headline claim — incremental execution time scales with the number
//! of *changed* inputs, not the layer size — is directly visible in the
//! `fc_reuse/changed_*` and `conv_reuse/changed_*` series.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use reuse_core::conv::{Conv2dPack, Conv2dReuseState};
use reuse_core::fc::FcReuseState;
use reuse_core::lstm::{LstmGatePack, LstmReuseState};
use reuse_nn::{init::Rng64, Activation, Conv2dLayer, FullyConnected, LstmCell};
use reuse_quant::{InputRange, LinearQuantizer};
use reuse_tensor::conv::Conv2dSpec;
use reuse_tensor::{ParallelConfig, Shape, Tensor};

fn quantizer() -> LinearQuantizer {
    LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap()
}

/// Mutates `fraction` of the inputs by more than one quantization step.
fn perturb(base: &[f32], fraction: f64, step: f32, rng: &mut Rng64) -> Vec<f32> {
    let mut out = base.to_vec();
    let n = ((base.len() as f64) * fraction) as usize;
    for _ in 0..n {
        let i = (rng.next_u64() % base.len() as u64) as usize;
        out[i] = (out[i] + 3.0 * step).rem_euclid(2.0) - 1.0;
    }
    out
}

fn bench_fc(c: &mut Criterion) {
    // Kaldi FC3 geometry: 400 inputs x 2000 neurons.
    let layer = FullyConnected::random(400, 2000, Activation::Relu, &mut Rng64::new(1));
    let q = quantizer();
    let mut rng = Rng64::new(2);
    let base: Vec<f32> = (0..400).map(|_| rng.uniform(0.9)).collect();

    let mut group = c.benchmark_group("fc_400x2000");
    group.bench_function("scratch", |b| {
        let input = Tensor::from_slice_1d(&base).unwrap();
        b.iter(|| layer.forward_linear(std::hint::black_box(&input)).unwrap())
    });
    for fraction in [0.0, 0.1, 0.35, 1.0] {
        group.bench_with_input(
            BenchmarkId::new("reuse_changed", format!("{:.0}%", fraction * 100.0)),
            &fraction,
            |b, &fraction| {
                let serial = ParallelConfig::serial();
                let mut state = FcReuseState::new(&layer);
                let mut out = Vec::new();
                state
                    .execute_into(&serial, &layer, &q, &base, &mut out)
                    .unwrap();
                let variants: Vec<Vec<f32>> = (0..8)
                    .map(|_| perturb(&base, fraction, q.step(), &mut rng))
                    .collect();
                let mut i = 0;
                b.iter(|| {
                    // Alternate back to base so the change fraction stays
                    // stable from iteration to iteration.
                    let input = if i % 2 == 0 {
                        &variants[(i / 2) % 8]
                    } else {
                        &base
                    };
                    i += 1;
                    state
                        .execute_into(&serial, &layer, &q, std::hint::black_box(input), &mut out)
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    // AutoPilot CONV2 geometry: 24 -> 36 channels, 5x5 stride 2.
    let spec = Conv2dSpec {
        in_channels: 24,
        out_channels: 36,
        kh: 5,
        kw: 5,
        stride: 2,
        pad: 0,
    };
    let layer = Conv2dLayer::random(spec, Activation::Relu, &mut Rng64::new(3));
    let in_shape = Shape::d3(24, 31, 98);
    let q = quantizer();
    let mut rng = Rng64::new(4);
    let base: Vec<f32> = (0..in_shape.volume()).map(|_| rng.uniform(0.9)).collect();
    let base_t = Tensor::from_vec(in_shape.clone(), base.clone()).unwrap();

    let mut group = c.benchmark_group("conv_24x31x98");
    group.sample_size(20);
    group.bench_function("scratch", |b| {
        b.iter(|| layer.forward_linear(std::hint::black_box(&base_t)).unwrap())
    });
    for fraction in [0.0, 0.1, 0.5] {
        group.bench_with_input(
            BenchmarkId::new("reuse_changed", format!("{:.0}%", fraction * 100.0)),
            &fraction,
            |b, &fraction| {
                let serial = ParallelConfig::serial();
                let pack = Conv2dPack::new(&layer);
                let mut state = Conv2dReuseState::new(&layer, &in_shape).unwrap();
                let mut out = Vec::new();
                state
                    .execute_into_packed(&serial, &layer, &pack, &q, &base, &mut out)
                    .unwrap();
                let variant = perturb(&base, fraction, q.step(), &mut rng);
                let mut i = 0;
                b.iter(|| {
                    let input = std::hint::black_box(if i % 2 == 0 { &variant } else { &base });
                    i += 1;
                    state
                        .execute_into_packed(&serial, &layer, &pack, &q, input, &mut out)
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_lstm(c: &mut Criterion) {
    // EESEN cell geometry: 640 inputs, 320 cell.
    let cell = LstmCell::random(640, 320, &mut Rng64::new(5));
    let q = quantizer();
    let mut rng = Rng64::new(6);
    let base: Vec<f32> = (0..640).map(|_| rng.uniform(0.9)).collect();

    let mut group = c.benchmark_group("lstm_640x320");
    group.sample_size(30);
    group.bench_function("scratch_step", |b| {
        let state = reuse_nn::LstmState::zeros(320);
        b.iter(|| cell.step(std::hint::black_box(&base), &state).unwrap())
    });
    group.bench_function("reuse_step_stable_input", |b| {
        let serial = ParallelConfig::serial();
        let pack = LstmGatePack::new(&cell);
        let mut state = LstmReuseState::new_shared(&cell);
        let mut h = Vec::new();
        b.iter(|| {
            let x = std::hint::black_box(&base);
            state
                .step_into_packed(&serial, &cell, &pack, &q, &q, x, &mut h)
                .unwrap()
        })
    });
    group.finish();
}

fn bench_quantization(c: &mut Criterion) {
    let q = quantizer();
    let mut rng = Rng64::new(7);
    let values: Vec<f32> = (0..8192).map(|_| rng.uniform(1.2)).collect();
    c.bench_function("quantize_8192_inputs", |b| {
        b.iter(|| q.quantize_slice(std::hint::black_box(&values)))
    });
}

criterion_group!(
    benches,
    bench_fc,
    bench_conv,
    bench_lstm,
    bench_quantization
);
criterion_main!(benches);
