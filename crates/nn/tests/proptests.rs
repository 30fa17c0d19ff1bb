//! Property-based tests for the DNN substrate.

use proptest::prelude::*;
use reuse_nn::{
    init::Rng64, Activation, BiLstmLayer, Conv2dLayer, Conv3dLayer, FullyConnected, Layer,
    LstmCell, LstmState, NetworkBuilder, PassthroughOp,
};
use reuse_tensor::conv::{conv_forward_naive, Conv2dSpec, Conv3dSpec};
use reuse_tensor::matmul::fc_forward_naive;
use reuse_tensor::{simd, Shape, Tensor};

fn frame(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec((-50i32..=50).prop_map(|v| v as f32 / 50.0), len)
}

proptest! {
    #[test]
    fn network_forward_is_pure(x in frame(6), seed in 0u64..1000) {
        let net = NetworkBuilder::new("p", 6)
            .seed(seed)
            .fully_connected(5, Activation::Relu)
            .fully_connected(3, Activation::Identity)
            .build()
            .unwrap();
        let a = net.forward_flat(&x).unwrap();
        let b = net.forward_flat(&x).unwrap();
        prop_assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn relu_outputs_nonnegative(x in frame(6)) {
        let net = NetworkBuilder::new("p", 6)
            .fully_connected(4, Activation::Relu)
            .build()
            .unwrap();
        let out = net.forward_flat(&x).unwrap();
        prop_assert!(out.as_slice().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn lstm_outputs_bounded(x in frame(4), h in frame(3), c in frame(3)) {
        let cell = LstmCell::random(4, 3, &mut Rng64::new(1));
        let state = LstmState { h, c: c.clone() };
        let next = cell.step(&x, &state).unwrap();
        // h = o * tanh(c'), with o in (0,1) and tanh in (-1,1).
        prop_assert!(next.h.iter().all(|v| v.abs() < 1.0));
        // |c'| <= |c| + 1 since f,i in (0,1) and g in (-1,1).
        for (cv, oldc) in next.c.iter().zip(c.iter()) {
            prop_assert!(cv.abs() <= oldc.abs() + 1.0 + 1e-6);
        }
    }

    #[test]
    fn lstm_preactivation_delta_equals_weight_column(
        x in frame(4), h in frame(3), idx in 0usize..4, delta in -1.0f32..1.0
    ) {
        // The exact linearity the paper's Eq. 10 exploits for gates.
        let cell = LstmCell::random(4, 3, &mut Rng64::new(2));
        let pre1 = cell.gate_preactivations(&x, &h).unwrap();
        let mut x2 = x.clone();
        x2[idx] += delta;
        let pre2 = cell.gate_preactivations(&x2, &h).unwrap();
        for g in 0..4 {
            for j in 0..3 {
                let w = cell.w_x(g).as_slice()[idx * 3 + j];
                let expect = pre1[g * 3 + j] + delta * w;
                prop_assert!((pre2[g * 3 + j] - expect).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn bilstm_sequence_reversal_symmetry(xs in proptest::collection::vec(frame(3), 1..6)) {
        // Running the reversed sequence swaps the roles of the two cells'
        // outputs: out_rev[t].fwd_half computed by fwd cell on reversed
        // input equals bwd-like traversal. We check a weaker, exact
        // invariant: lengths and determinism.
        let layer = BiLstmLayer::random(3, 2, &mut Rng64::new(3));
        let a = layer.forward_sequence(&xs).unwrap();
        let b = layer.forward_sequence(&xs).unwrap();
        prop_assert_eq!(a.len(), xs.len());
        prop_assert_eq!(a, b);
    }

    #[test]
    fn identical_cells_make_reversal_exact(xs in proptest::collection::vec(frame(3), 1..6)) {
        // With fwd == bwd cell, processing the reversed sequence mirrors the
        // output halves exactly.
        let cell = LstmCell::random(3, 2, &mut Rng64::new(4));
        let layer = BiLstmLayer::new(cell.clone(), cell).unwrap();
        let out = layer.forward_sequence(&xs).unwrap();
        let mut rev = xs.clone();
        rev.reverse();
        let out_rev = layer.forward_sequence(&rev).unwrap();
        let n = xs.len();
        for t in 0..n {
            let (f, b) = out[t].split_at(2);
            let (f_r, b_r) = out_rev[n - 1 - t].split_at(2);
            for j in 0..2 {
                prop_assert!((f[j] - b_r[j]).abs() < 1e-6);
                prop_assert!((b[j] - f_r[j]).abs() < 1e-6);
            }
        }
    }
}

proptest! {
    #[test]
    fn serialization_round_trips_random_mlps(
        seed in 0u64..200, hidden in 2usize..12, out in 1usize..6
    ) {
        let net = NetworkBuilder::new("p", 5)
            .seed(seed)
            .fully_connected(hidden, Activation::Relu)
            .fully_connected(out, Activation::Identity)
            .build()
            .unwrap();
        let text = reuse_nn::serialize::to_string(&net);
        let back = reuse_nn::serialize::from_str(&text).unwrap();
        let x = [0.3f32, -0.1, 0.7, 0.0, -0.9];
        let out_back = back.forward_flat(&x).unwrap();
        let out_net = net.forward_flat(&x).unwrap();
        prop_assert_eq!(out_back.as_slice(), out_net.as_slice());
    }

    #[test]
    fn unidirectional_lstm_network_runs(seed in 0u64..100, cell in 2usize..6) {
        let net = NetworkBuilder::new("u", 4)
            .seed(seed)
            .lstm(cell)
            .fully_connected(2, Activation::Identity)
            .build()
            .unwrap();
        prop_assert!(net.is_recurrent());
        let frames = vec![vec![0.1f32; 4]; 5];
        let outs = net.forward_sequence(&frames).unwrap();
        prop_assert_eq!(outs.len(), 5);
        prop_assert!(outs.iter().all(|o| o.len() == 2));
        // Determinism across calls.
        let outs2 = net.forward_sequence(&frames).unwrap();
        let last1 = outs.last().unwrap();
        let last2 = outs2.last().unwrap();
        prop_assert_eq!(last1.as_slice(), last2.as_slice());
    }
}

/// A random cell rebuilt with a `-0.0` bias on unit 0 of every gate: the
/// one chain head the GEMM's missing zero skip can turn into `+0.0`.
fn cell_with_negative_zero_bias(n_in: usize, d: usize, seed: u64) -> LstmCell {
    let cell = LstmCell::random(n_in, d, &mut Rng64::new(seed));
    let bias = core::array::from_fn(|g| {
        let mut b = cell.bias(g).as_slice().to_vec();
        b[0] = -0.0;
        Tensor::from_slice_1d(&b).unwrap()
    });
    LstmCell::new(
        n_in,
        d,
        core::array::from_fn(|g| cell.w_x(g).clone()),
        core::array::from_fn(|g| cell.w_h(g).clone()),
        bias,
    )
    .unwrap()
}

/// A hand loop of the per-timestep oracle over `xs` in ascending or
/// descending order, `h_t` per timestep in time order.
fn stepped_by_hand(cell: &LstmCell, xs: &[Vec<f32>], descending: bool) -> Vec<Vec<f32>> {
    let mut out = vec![Vec::new(); xs.len()];
    let mut state = LstmState::zeros(cell.cell_dim());
    let mut order: Vec<usize> = (0..xs.len()).collect();
    if descending {
        order.reverse();
    }
    for t in order {
        state = cell.step(&xs[t], &state).unwrap();
        out[t] = state.h.clone();
    }
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Batched ≡ per-timestep, bit for bit, at whichever SIMD level the
    /// process runs (CI runs this file at both): odd cell widths with panel
    /// tail lanes, input widths off the panel grid, sequence lengths around
    /// the GEMM's four-row groups and the 64-step block, frames with exact
    /// zeros (the row walk's filter), an all-zero first and last frame under
    /// a `-0.0` bias. The `-0.0` head is the one pre-activation that can
    /// differ (in sign: the GEMM multiplies the zeros the row walk passes
    /// over); it never reaches `h`, so nothing here is exempted.
    #[test]
    fn forward_sequence_into_is_the_step_loop_bitwise(seed in 0u64..1000, zero_share in 0u64..4) {
        let mut rng = Rng64::new(seed ^ 0x5eed);
        let mut scratch = reuse_nn::lstm::LstmScratch::default();
        let mut out = vec![f32::NAN; 7];
        for (d, n_in) in [(3, 5), (11, 13), (19, 21), (35, 13)] {
            let fwd = cell_with_negative_zero_bias(n_in, d, seed);
            let bwd = cell_with_negative_zero_bias(n_in, d, seed + 1);
            let layer = Layer::BiLstm(BiLstmLayer::new(fwd.clone(), bwd.clone()).unwrap());
            for t in [1usize, 2, 3, 5, 40, 63, 64, 65, 130] {
                let mut xs: Vec<Vec<f32>> = (0..t)
                    .map(|_| {
                        (0..n_in)
                            .map(|_| if rng.next_u64() % 4 < zero_share { 0.0 } else { rng.uniform(1.0) })
                            .collect()
                    })
                    .collect();
                xs[0].fill(0.0);
                xs[t - 1].fill(0.0);
                let flat: Vec<f32> = xs.concat();

                fwd.forward_sequence_into(&flat, t, &mut out, &mut scratch).unwrap();
                let ascending = stepped_by_hand(&fwd, &xs, false);
                prop_assert_eq!(bits(&out), bits(&ascending.concat()), "d {} t {}", d, t);

                // Both directions over the same `xs`, the same scratch.
                layer.forward_sequence_into(&flat, t, &mut out, &mut scratch).unwrap();
                let descending = stepped_by_hand(&bwd, &xs, true);
                for (row, (f, b)) in out.chunks_exact(2 * d).zip(ascending.iter().zip(&descending)) {
                    prop_assert_eq!(bits(&row[..d]), bits(f), "d {} t {}", d, t);
                    prop_assert_eq!(bits(&row[d..]), bits(b), "d {} t {}", d, t);
                }
            }
        }
    }
}

#[test]
fn a_cell_is_packed_once_and_every_handle_shares_it() {
    let cell = LstmCell::random(13, 11, &mut Rng64::new(8));
    let clone = cell.clone();
    let handle = reuse_nn::lstm::LstmGatePack::new(&cell);
    for pack in [clone.pack(), &handle] {
        assert!(std::ptr::eq(pack.combined_h(), cell.pack().combined_h()));
        assert!(std::ptr::eq(pack.x(3), cell.pack().x(3)));
    }
    assert_eq!(handle.bytes(), cell.pack().bytes());
}

#[test]
fn flat_sequence_entry_rejects_what_the_vec_entry_rejects() {
    let cell = LstmCell::random(5, 3, &mut Rng64::new(1));
    let (mut out, mut scratch) = (Vec::new(), reuse_nn::lstm::LstmScratch::default());
    assert!(matches!(
        cell.forward_sequence_into(&[], 0, &mut out, &mut scratch),
        Err(reuse_nn::NnError::EmptySequence)
    ));
    assert!(matches!(
        cell.forward_sequence_into(&[0.0; 9], 2, &mut out, &mut scratch),
        Err(reuse_nn::NnError::InputShape {
            expected: 10,
            actual: 9
        })
    ));
    assert!(matches!(
        cell.forward_sequence(&[vec![0.0; 5], vec![0.0; 4]]),
        Err(reuse_nn::NnError::InputShape {
            expected: 5,
            actual: 4
        })
    ));
    let fc = Layer::FullyConnected(FullyConnected::random(
        5,
        3,
        Activation::Relu,
        &mut Rng64::new(2),
    ));
    assert!(fc
        .forward_sequence_into(&[0.0; 5], 1, &mut out, &mut scratch)
        .is_err());
}

/// `layer` through the one flat entry against `naive` — the layer's oracle
/// on the same input, pre-activation — with the activation applied on top,
/// bit for bit.
fn forward_into_mismatch(
    layer: &Layer,
    in_shape: &Shape,
    x: &[f32],
    mut naive: Vec<f32>,
) -> Option<String> {
    // A stale, oversized buffer: the entry must size and overwrite it.
    let mut out = vec![f32::NAN; naive.len() + 3];
    layer.forward_into(in_shape, x, &mut out).unwrap();
    layer.activation().unwrap().apply_in_place(&mut naive);
    simd::kernel_mismatch(&out, &naive)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn layer_forward_into_matches_the_naive_oracles(
        seed in 0u64..1000, n_out in 1usize..20, stride in 1usize..3, pad in 0usize..2,
    ) {
        let mut rng = Rng64::new(seed);
        let mut input = |n: usize| -> Vec<f32> { (0..n).map(|_| rng.uniform(1.0)).collect() };

        let fc = FullyConnected::random(7, n_out, Activation::Relu, &mut Rng64::new(seed));
        let x = input(7);
        let naive = fc_forward_naive(fc.weights(), &Tensor::from_slice_1d(&x).unwrap(), fc.bias());
        let naive = naive.unwrap().into_vec();
        let mismatch = forward_into_mismatch(&Layer::FullyConnected(fc), &Shape::d1(7), &x, naive);
        prop_assert!(mismatch.is_none(), "fc: {:?}", mismatch);

        let spec = Conv2dSpec { in_channels: 2, out_channels: n_out, kh: 3, kw: 3, stride, pad };
        let conv = Conv2dLayer::random(spec, Activation::Tanh, &mut Rng64::new(seed + 1));
        let (shape, x) = (Shape::d3(2, 6, 7), input(2 * 6 * 7));
        let (g, w, b) = (*conv.geometry(), conv.weights().as_slice(), conv.bias().as_slice());
        let naive = conv_forward_naive(&g, [1, 6, 7], &x, w, b).unwrap();
        let mismatch = forward_into_mismatch(&Layer::Conv2d(conv.clone()), &shape, &x, naive);
        prop_assert!(mismatch.is_none(), "conv2d: {:?}", mismatch);

        let spec = Conv3dSpec { in_channels: 2, out_channels: n_out, kd: 3, kh: 3, kw: 3, stride, pad: 1 };
        let conv = Conv3dLayer::random(spec, Activation::Relu, &mut Rng64::new(seed + 2));
        let (shape, x) = (Shape::d4(2, 3, 5, 6), input(2 * 3 * 5 * 6));
        let (g, w, b) = (*conv.geometry(), conv.weights().as_slice(), conv.bias().as_slice());
        let naive = conv_forward_naive(&g, [3, 5, 6], &x, w, b).unwrap();
        let mismatch = forward_into_mismatch(&Layer::Conv3d(conv.clone()), &shape, &x, naive);
        prop_assert!(mismatch.is_none(), "conv3d: {:?}", mismatch);
    }

    #[test]
    fn apply_layer_is_apply_layer_into_with_the_inferred_shape(seed in 0u64..1000) {
        // Every frame-wise layer kind, across the two ranks.
        let nets = [
            NetworkBuilder::with_input_shape("p2", Shape::d3(2, 8, 9))
                .seed(seed)
                .conv2d(4, 3, 1, 1, Activation::Relu)
                .pool2d(2)
                .flatten()
                .fully_connected(12, Activation::Sigmoid)
                .group_max(3)
                .passthrough(PassthroughOp::Softmax)
                .build()
                .unwrap(),
            NetworkBuilder::with_input_shape("p3", Shape::d4(2, 4, 6, 7))
                .seed(seed)
                .conv3d(3, 3, 1, 1, Activation::Relu)
                .pool3d(2, 2, true)
                .flatten()
                .fully_connected(5, Activation::Identity)
                .build()
                .unwrap(),
        ];
        for net in &nets {
            let mut rng = Rng64::new(seed);
            let input: Vec<f32> =
                (0..net.input_shape().volume()).map(|_| rng.uniform(1.0)).collect();
            let (mut cur, mut next) = (input.clone(), Vec::new());
            for (i, (name, layer)) in net.layers().iter().enumerate() {
                let in_shape = &net.layer_input_shapes()[i];
                // By value, any tensor of the layer's input volume will do.
                let by_value = net.apply_layer(i, Tensor::from_slice_1d(&cur).unwrap()).unwrap();
                net.apply_layer_into(i, &cur, &mut next).unwrap();
                prop_assert_eq!(by_value.shape(), &layer.output_shape(in_shape).unwrap(), "{}", name);
                prop_assert_eq!(by_value.as_slice(), next.as_slice(), "{}", name);
                prop_assert!(net.apply_layer_into(i, &cur[1..], &mut next).is_err(), "{}", name);
                cur = by_value.into_vec();
            }
            // The whole-network walk is the same layers in a row.
            let whole = net.forward_flat(&input).unwrap();
            prop_assert_eq!(whole.as_slice(), cur.as_slice());
        }
    }
}
