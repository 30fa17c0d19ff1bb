//! Bit-exactness of the parallel runtime at the reuse layer: every
//! incremental-correction kernel must produce outputs bit-identical to the
//! serial path for any thread count, because workers partition *outputs* and
//! each output keeps its serial accumulation order (DESIGN.md, "Threading
//! model & determinism"). Sessions themselves are always serial.

use proptest::prelude::*;
use reuse_core::conv::{ConvLayer, ConvPack, ConvReuseState};
use reuse_core::fc::FcReuseState;
use reuse_core::lstm::{LstmGatePack, LstmReuseState};
use reuse_core::{ReuseConfig, ReuseSession};
use reuse_nn::{
    init::Rng64, Activation, Conv2dLayer, Conv3dLayer, FullyConnected, LstmCell, NetworkBuilder,
};
use reuse_quant::{InputRange, LinearQuantizer};
use reuse_tensor::conv::{Conv2dSpec, Conv3dSpec};
use reuse_tensor::{ParallelConfig, Shape};

fn quantizer(clusters: usize) -> LinearQuantizer {
    LinearQuantizer::new(InputRange::new(-1.0, 1.0), clusters).unwrap()
}

fn cfg(threads: usize) -> ParallelConfig {
    // Force real splits regardless of host size or call cost: no work
    // floor, no inline-FLOP threshold, clamp bypassed.
    ParallelConfig::with_threads(threads)
        .min_work_per_thread(1)
        .inline_flops(0)
        .oversubscribed()
}

/// A drifting input stream: each frame perturbs a few positions of the last.
fn drifting_frames(len: usize, n_frames: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Rng64::new(seed);
    let mut cur: Vec<f32> = (0..len).map(|_| rng.uniform(0.9)).collect();
    let mut frames = vec![cur.clone()];
    for _ in 1..n_frames {
        for _ in 0..(len / 4).max(1) {
            let i = (rng.next_u64() % len as u64) as usize;
            cur[i] = (cur[i] + rng.uniform(0.5)).clamp(-1.0, 1.0);
        }
        frames.push(cur.clone());
    }
    frames
}

fn assert_bits_eq(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "element {i} differs: {x} vs {y}");
    }
}

/// Serial and `threads`-way execution of one conv layer (either rank) over
/// a drifting stream must agree bit for bit, outputs and counters.
fn check_conv_parallel<L: ConvLayer>(layer: &L, in_shape: &Shape, threads: usize, seed: u64) {
    let q = quantizer(16);
    let pack = ConvPack::new(layer);
    let mut serial = ConvReuseState::new(layer, in_shape).unwrap();
    let mut parallel = ConvReuseState::new(layer, in_shape).unwrap();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for frame in drifting_frames(in_shape.volume(), 5, seed) {
        let sa = serial
            .execute_into_packed(&ParallelConfig::serial(), layer, &pack, &q, &frame, &mut a)
            .unwrap();
        let sb = parallel
            .execute_into_packed(&cfg(threads), layer, &pack, &q, &frame, &mut b)
            .unwrap();
        assert_eq!(sa, sb);
        assert_bits_eq(&a, &b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fc_state_parallel_matches_serial(threads in 2usize..7, seed in 0u64..500) {
        let layer = FullyConnected::random(24, 37, Activation::Relu, &mut Rng64::new(seed + 1));
        let q = quantizer(16);
        let mut serial = FcReuseState::new(&layer);
        let mut parallel = FcReuseState::new(&layer);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for frame in drifting_frames(24, 6, seed) {
            serial.execute_into(&ParallelConfig::serial(), &layer, &q, &frame, &mut a).unwrap();
            parallel.execute_into(&cfg(threads), &layer, &q, &frame, &mut b).unwrap();
            assert_bits_eq(&a, &b);
        }
    }

    #[test]
    fn conv2d_state_parallel_matches_serial(threads in 2usize..7, seed in 0u64..500) {
        let spec = Conv2dSpec { in_channels: 2, out_channels: 5, kh: 3, kw: 3, stride: 1, pad: 1 };
        let layer = Conv2dLayer::random(spec, Activation::Relu, &mut Rng64::new(seed + 2));
        check_conv_parallel(&layer, &Shape::d3(2, 6, 7), threads, seed);
    }

    #[test]
    fn conv3d_state_parallel_matches_serial(threads in 2usize..7, seed in 0u64..500) {
        let spec = Conv3dSpec { in_channels: 2, out_channels: 3, kd: 2, kh: 2, kw: 2, stride: 1, pad: 1 };
        let layer = Conv3dLayer::random(spec, Activation::Relu, &mut Rng64::new(seed + 3));
        check_conv_parallel(&layer, &Shape::d4(2, 3, 4, 5), threads, seed);
    }

    #[test]
    fn lstm_state_parallel_matches_serial(threads in 2usize..7, seed in 0u64..500) {
        let cell = LstmCell::random(14, 9, &mut Rng64::new(seed + 4));
        let q = quantizer(16);
        let pack = LstmGatePack::new(&cell);
        let mut serial = LstmReuseState::new_shared(&cell);
        let mut parallel = LstmReuseState::new_shared(&cell);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for frame in drifting_frames(14, 6, seed) {
            serial
                .step_into_packed(&ParallelConfig::serial(), &cell, &pack, &q, &q, &frame, &mut a)
                .unwrap();
            parallel
                .step_into_packed(&cfg(threads), &cell, &pack, &q, &q, &frame, &mut b)
                .unwrap();
            assert_bits_eq(&a, &b);
        }
    }
}

/// With reuse disabled everywhere the engine runs full precision through the
/// pooled pipeline, so `execute_sequence` must equal `reference_forward`
/// bit-for-bit (the only configuration where exact equality is meaningful —
/// quantized runs approximate by design).
#[test]
fn full_precision_sequence_matches_reference_forward_exactly() {
    let net = NetworkBuilder::new("fp", 12)
        .fully_connected(20, Activation::Relu)
        .fully_connected(6, Activation::Identity)
        .build()
        .unwrap();
    let config = ReuseConfig::uniform(16)
        .disable_layer("fc1")
        .disable_layer("fc2");
    let mut engine = ReuseSession::from_network(&net, &config);
    let frames = drifting_frames(12, 6, 77);
    let outs = engine.execute_sequence(&frames).unwrap();
    for (frame, out) in frames.iter().zip(outs.iter()) {
        let reference = engine.reference_forward(frame).unwrap();
        assert_bits_eq(reference.as_slice(), out.as_slice());
    }
}
