//! Property-based tests: the incremental path must always agree with a
//! from-scratch execution on the same quantized inputs (paper Eq. 10).

use proptest::prelude::*;
use reuse_core::conv::{ConvLayer, ConvPack, ConvReuseState};
use reuse_core::fc::FcReuseState;
use reuse_core::layer::BiLstmReuseState;
use reuse_core::lstm::{quantized_scratch_sequence, LstmGatePack, LstmReuseState};
use reuse_core::{ExecStats, ReuseLayer, StepCtx};
use reuse_nn::{
    init::Rng64, Activation, BiLstmLayer, Conv2dLayer, Conv3dLayer, FullyConnected, Layer, LstmCell,
};
use reuse_quant::{InputRange, LinearQuantizer};
use reuse_tensor::conv::{conv_forward_naive, Conv2dSpec, Conv3dSpec};
use reuse_tensor::{ParallelConfig, Shape, Tensor};

fn frames(n_frames: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(
        proptest::collection::vec((-100i32..=100).prop_map(|v| v as f32 / 100.0), dim),
        1..=n_frames,
    )
}

fn quantizer() -> LinearQuantizer {
    LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap()
}

/// One serial FC execution, returning the outputs with the stats.
fn fc_exec(
    state: &mut FcReuseState,
    layer: &FullyConnected,
    q: &LinearQuantizer,
    x: &[f32],
) -> (Vec<f32>, ExecStats) {
    let mut out = Vec::new();
    let stats = state
        .execute_into(&ParallelConfig::serial(), layer, q, x, &mut out)
        .unwrap();
    (out, stats)
}

/// Runs `xs` (each truncated to the input volume) through a fresh state of
/// either rank and checks every frame against the from-scratch oracle on
/// the same quantized inputs.
fn check_conv_incremental<L: ConvLayer>(
    layer: &L,
    in_shape: &Shape,
    dhw: [usize; 3],
    xs: &[Vec<f32>],
) -> Result<(), TestCaseError> {
    let q = quantizer();
    let pack = ConvPack::new(layer);
    let mut state = ConvReuseState::new(layer, in_shape).unwrap();
    let mut out = Vec::new();
    for x in xs {
        let x = &x[..in_shape.volume()];
        let stats = state
            .execute_into_packed(&ParallelConfig::serial(), layer, &pack, &q, x, &mut out)
            .unwrap();
        let expect = conv_forward_naive(
            layer.geometry(),
            dhw,
            &q.quantized_values(x),
            layer.weights(),
            layer.bias(),
        )
        .unwrap();
        prop_assert_eq!(out.len(), expect.len());
        for (a, b) in out.iter().zip(expect.iter()) {
            prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        prop_assert!(stats.macs_performed <= stats.macs_total);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fc_incremental_equals_scratch(xs in frames(8, 6), clusters in 4usize..33) {
        let layer = FullyConnected::random(6, 5, Activation::Identity, &mut Rng64::new(17));
        let q = LinearQuantizer::new(InputRange::new(-1.0, 1.0), clusters).unwrap();
        let mut state = FcReuseState::new(&layer);
        for x in &xs {
            let (out, stats) = fc_exec(&mut state, &layer, &q, x);
            let mut expect = Vec::new();
            layer.forward_linear_into(&q.quantized_values(x), &mut expect).unwrap();
            for (a, b) in out.iter().zip(expect.iter()) {
                prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
            }
            prop_assert!(stats.macs_performed <= stats.macs_total);
            prop_assert!(stats.n_changed <= stats.n_inputs);
        }
    }

    #[test]
    fn fc_macs_equal_changed_times_outputs(xs in frames(6, 4)) {
        let layer = FullyConnected::random(4, 7, Activation::Identity, &mut Rng64::new(18));
        let q = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap();
        let mut state = FcReuseState::new(&layer);
        for (t, x) in xs.iter().enumerate() {
            let (_, stats) = fc_exec(&mut state, &layer, &q, x);
            if t > 0 {
                prop_assert_eq!(stats.macs_performed, stats.n_changed * 7);
            }
        }
    }

    #[test]
    fn conv_incremental_equals_scratch(
        xs in frames(4, 2 * 3 * 5 * 5),
        rank in 2usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        // Off the 8-lane vector and the 16-lane panel: scalar-free masked
        // tails, a whole vector plus a tail, a panel plus one lane.
        out_channels in proptest::sample::select(vec![3usize, 7, 12, 17, 36]),
    ) {
        let (in_channels, kh, kw) = (2, 3, 3);
        if rank == 2 {
            let spec = Conv2dSpec { in_channels, out_channels, kh, kw, stride, pad };
            let layer = Conv2dLayer::random(spec, Activation::Identity, &mut Rng64::new(19));
            check_conv_incremental(&layer, &Shape::d3(2, 5, 5), [1, 5, 5], &xs)?;
        } else {
            let spec = Conv3dSpec { in_channels, out_channels, kd: 3, kh, kw, stride, pad };
            let layer = Conv3dLayer::random(spec, Activation::Identity, &mut Rng64::new(19));
            check_conv_incremental(&layer, &Shape::d4(2, 3, 5, 5), [3, 5, 5], &xs)?;
        }
    }

    #[test]
    fn lstm_incremental_equals_scratch(xs in frames(10, 4)) {
        let cell = LstmCell::random(4, 3, &mut Rng64::new(20));
        let xq = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap();
        let hq = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap();
        let oracle = quantized_scratch_sequence(&cell, &xq, &hq, &xs).unwrap();
        let pack = LstmGatePack::new(&cell);
        let mut state = LstmReuseState::new_shared(&cell);
        let mut h = Vec::new();
        for (t, x) in xs.iter().enumerate() {
            let stats = state
                .step_into_packed(&ParallelConfig::serial(), &cell, &pack, &xq, &hq, x, &mut h)
                .unwrap();
            for (a, b) in h.iter().zip(oracle[t].iter()) {
                prop_assert!((a - b).abs() < 1e-3, "t {t}: {a} vs {b}");
            }
            prop_assert!(stats.macs_performed <= stats.macs_total);
            // MAC granularity: every changed input touches all 4 gates.
            prop_assert_eq!(stats.macs_performed % (4 * 3), 0);
        }
    }

    #[test]
    fn unchanged_codes_cost_nothing(x in proptest::collection::vec(-1.0f32..1.0, 6)) {
        let layer = FullyConnected::random(6, 5, Activation::Identity, &mut Rng64::new(21));
        let q = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap();
        let mut state = FcReuseState::new(&layer);
        fc_exec(&mut state, &layer, &q, &x);
        // Re-present the centroids themselves: codes cannot change.
        let centroids = q.quantized_values(&x);
        let (_, stats) = fc_exec(&mut state, &layer, &q, &centroids);
        prop_assert_eq!(stats.n_changed, 0);
        prop_assert_eq!(stats.macs_performed, 0);
    }
}

/// Frames for the exact-arithmetic conv property: codes straight from a
/// small generator, presented as their own centroids (`k/8` under
/// [`quantizer`]'s step of 1/8). Frame 1 repeats frame 0 (no change), frame 2
/// moves one input, frame 3 moves every input, frame 4 a sparse handful.
fn exact_frames(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Rng64::new(seed);
    let mut codes: Vec<i32> = (0..n).map(|_| (rng.next_u64() % 17) as i32 - 8).collect();
    let centroids = |codes: &[i32]| codes.iter().map(|&k| k as f32 / 8.0).collect::<Vec<f32>>();
    let bump = |k: &mut i32, by: u64| *k = (*k + 8 + 1 + (by % 16) as i32) % 17 - 8;
    let mut frames = vec![centroids(&codes), centroids(&codes)];
    let one = (rng.next_u64() % n as u64) as usize;
    bump(&mut codes[one], rng.next_u64());
    frames.push(centroids(&codes));
    for k in codes.iter_mut() {
        bump(k, rng.next_u64());
    }
    frames.push(centroids(&codes));
    for _ in 0..n.div_ceil(7) {
        let at = (rng.next_u64() % n as u64) as usize;
        bump(&mut codes[at], rng.next_u64());
    }
    frames.push(centroids(&codes));
    frames
}

/// Multiples of 1/8 in `[-2, 2]`: with centroids that are multiples of 1/8
/// too, every product and every partial sum of a small conv layer is a short
/// dyadic rational, so every f32 operation — fused or not, in any order — is
/// exact and the incremental outputs must equal the from-scratch oracle
/// **bit for bit** at both SIMD levels. A wrong, missing or doubled
/// `(input, position)` pair cannot hide in rounding.
fn exact_params(n: usize, rng: &mut Rng64) -> Vec<f32> {
    (0..n)
        .map(|_| ((rng.next_u64() % 33) as f32 - 16.0) / 8.0)
        .collect()
}

/// Steps `layer` through [`exact_frames`] and checks outputs (bitwise) and
/// counters against the naive oracle and a brute-force count of the
/// `(changed input, covering output position)` pairs.
fn check_conv_exact<L: ConvLayer>(
    layer: &L,
    in_shape: &Shape,
    dhw: [usize; 3],
    seed: u64,
) -> Result<(), TestCaseError> {
    let (q, g) = (quantizer(), *layer.geometry());
    let out_dhw = g.output_dhw(dhw).unwrap();
    let (k, p, s) = (g.kernel(), g.pad(), g.stride());
    // Output positions along axis `a` whose window covers coordinate `x`.
    let covering = |a: usize, x: usize| {
        (0..out_dhw[a])
            .filter(|o| (o * s..o * s + k[a]).contains(&(x + p[a])))
            .count() as u64
    };
    let pack = ConvPack::new(layer);
    let mut state = ConvReuseState::new(layer, in_shape).unwrap();
    let mut out = Vec::new();
    let mut prev: Option<&Vec<f32>> = None;
    for (t, x) in exact_frames(in_shape.volume(), seed).iter().enumerate() {
        let stats = state
            .execute_into_packed(&ParallelConfig::serial(), layer, &pack, &q, x, &mut out)
            .unwrap();
        let expect = conv_forward_naive(&g, dhw, x, layer.weights(), layer.bias()).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        prop_assert_eq!(bits(&out), bits(&expect), "frame {}", t);
        if let Some(prev) = prev {
            let (mut changed, mut pairs) = (0, 0);
            for (i, _) in x.iter().zip(prev).enumerate().filter(|(_, (a, b))| a != b) {
                let (yx, x) = (i / dhw[2], i % dhw[2]);
                let (z, y) = (yx / dhw[1] % dhw[0], yx % dhw[1]);
                changed += 1;
                pairs += covering(0, z) * covering(1, y) * covering(2, x);
            }
            prop_assert_eq!(stats.n_changed, changed, "frame {}", t);
            prop_assert_eq!(
                stats.macs_performed,
                pairs * g.out_channels() as u64,
                "frame {}",
                t
            );
            prop_assert!(!stats.from_scratch);
        }
        prev = Some(x);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Both correction kernels (a layer's fan-out picks one: stride 1 here
    // means the row-grid walk, strides 2 and 3 the gather kernel), every
    // window width the gather kernel packs, padding on every side, filter
    // counts on and off the vector and tile widths, widths at which the last
    // window of the last row reads the delta image's 8-float tail.
    #[test]
    fn conv_corrections_equal_the_oracle_bitwise_on_exact_arithmetic(
        depth3 in 0usize..2,
        stride in 1usize..4,
        pad in 0usize..3,
        kw in proptest::sample::select(vec![1usize, 3, 4, 5, 7, 8]),
        out_channels in proptest::sample::select(vec![1usize, 7, 8, 24, 36, 64, 72, 130]),
        slack in 0usize..3,
        seed in 0u64..100_000,
    ) {
        let (in_channels, kh, h) = (2, 3, 4);
        let w = (kw + slack).saturating_sub(2 * pad).max(1);
        let mut rng = Rng64::new(seed);
        let bias = Tensor::from_slice_1d(&exact_params(out_channels, &mut rng)).unwrap();
        if depth3 == 0 {
            let spec = Conv2dSpec { in_channels, out_channels, kh, kw, stride, pad };
            let weights = exact_params(spec.weight_shape().volume(), &mut rng);
            let weights = Tensor::from_vec(spec.weight_shape(), weights).unwrap();
            let layer = Conv2dLayer::new(spec, weights, bias, Activation::Identity).unwrap();
            check_conv_exact(&layer, &Shape::d3(in_channels, h, w), [1, h, w], seed)?;
        } else {
            let spec = Conv3dSpec { in_channels, out_channels, kd: 3, kh, kw, stride, pad };
            let weights = exact_params(spec.weight_shape().volume(), &mut rng);
            let weights = Tensor::from_vec(spec.weight_shape(), weights).unwrap();
            let layer = Conv3dLayer::new(spec, weights, bias, Activation::Identity).unwrap();
            check_conv_exact(&layer, &Shape::d4(in_channels, 3, h, w), [3, h, w], seed)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The batched FC/LSTM correction paths must match the pre-blocking
    // scattered walks bit for bit at every SIMD level (both fuse every
    // multiply-add, in the same order) and report identical activity
    // counters: batching reorders which outputs are walked together, never
    // which MACs are performed or skipped.

    #[test]
    fn fc_batched_corrections_match_naive(
        xs in frames(6, 11),
        n_out in 1usize..40,
    ) {
        let layer = FullyConnected::random(11, n_out, Activation::Identity, &mut Rng64::new(23));
        let q = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap();
        let cfg = ParallelConfig::serial();
        let mut blocked = FcReuseState::new(&layer);
        let mut naive = FcReuseState::new(&layer);
        let (mut out_b, mut out_n) = (Vec::new(), Vec::new());
        for x in &xs {
            let sb = blocked.execute_into(&cfg, &layer, &q, x, &mut out_b).unwrap();
            let sn = naive.execute_into_naive(&layer, &q, x, &mut out_n).unwrap();
            let mismatch = reuse_tensor::simd::kernel_mismatch(&out_b, &out_n);
            prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap());
            prop_assert_eq!(sb, sn);
        }
    }

    #[test]
    fn lstm_batched_corrections_match_naive(xs in frames(8, 9)) {
        let cell = LstmCell::random(9, 5, &mut Rng64::new(31));
        let xq = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap();
        let hq = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap();
        let cfg = ParallelConfig::serial();
        let pack = LstmGatePack::new(&cell);
        let mut blocked = LstmReuseState::new_shared(&cell);
        let mut naive = LstmReuseState::new_shared(&cell);
        let (mut h_b, mut h_n) = (Vec::new(), Vec::new());
        for x in &xs {
            let sb = blocked.step_into_packed(&cfg, &cell, &pack, &xq, &hq, x, &mut h_b).unwrap();
            let sn = naive.step_into_naive(&cell, &xq, &hq, x, &mut h_n).unwrap();
            let mismatch = reuse_tensor::simd::kernel_mismatch(&h_b, &h_n);
            prop_assert!(mismatch.is_none(), "{}", mismatch.unwrap());
            // h feeds the next step's code comparison: equal bits, so equal
            // delta lists and equal counters.
            prop_assert_eq!(sb, sn);
        }
    }
}

/// A seeded random walk of `len` frames: steps small enough that a frame
/// changes about a third of its 16-cluster codes, with every fifth frame a
/// repeat (an empty changed list).
fn walk(len: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Rng64::new(seed);
    let mut frame = vec![0.0f32; dim];
    (0..len)
        .map(|t| {
            if t % 5 != 4 {
                for v in &mut frame {
                    *v = (*v + rng.uniform(0.06)).clamp(-1.0, 1.0);
                }
            }
            frame.clone()
        })
        .collect()
}

/// Steps fresh state through `xs` one `step_into_packed` call per timestep.
fn lstm_single_steps<'x>(
    cell: &LstmCell,
    pack: &LstmGatePack,
    q: &LinearQuantizer,
    xs: impl Iterator<Item = &'x [f32]>,
) -> (Vec<Vec<f32>>, Vec<ExecStats>, LstmReuseState) {
    let mut state = LstmReuseState::new_shared(cell);
    let (mut hs, mut stats, mut h) = (Vec::new(), Vec::new(), Vec::new());
    for x in xs {
        let s = state
            .step_into_packed(&ParallelConfig::serial(), cell, pack, q, q, x, &mut h)
            .unwrap();
        hs.push(h.clone());
        stats.push(s);
    }
    (hs, stats, state)
}

fn bits(rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
    rows.iter()
        .map(|r| r.iter().map(|v| v.to_bits()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A sequence through one `step_block` call — one block, exactly one,
    /// one and a bit, two and a bit — is, timestep for timestep, the bits of
    /// one `step_into_packed` call per timestep (hidden outputs, every
    /// `ExecStats`, the recurrent state left behind and what two further
    /// steps make of the buffered codes and pre-activations), in either
    /// visit order and however the sequence is split over calls; and the
    /// bits of the naive oracle.
    #[test]
    fn lstm_block_equals_single_steps_and_the_naive_oracle(
        // Off the 16-lane panel and the 8-lane vector on both sides.
        n_in in proptest::sample::select(vec![1usize, 5, 13, 17, 33]),
        d in proptest::sample::select(vec![1usize, 3, 11, 17]),
        len in proptest::sample::select(vec![1usize, 2, 5, 63, 64, 65, 130]),
        reversed in proptest::sample::select(vec![false, true]),
        seed in 0u64..10_000,
    ) {
        let cell = LstmCell::random(n_in, d, &mut Rng64::new(seed));
        let (pack, q) = (LstmGatePack::new(&cell), quantizer());
        let mut xs = walk(len + 2, n_in, seed + 1);
        if reversed {
            xs.reverse();
        }
        let (probes, xs) = xs.split_at(2);
        let order = || xs.iter().map(Vec::as_slice);

        let (want_h, want_stats, mut stepped) = lstm_single_steps(&cell, &pack, &q, order());

        let mut blocked = LstmReuseState::new_shared(&cell);
        let (mut got_h, mut got_stats) = (Vec::new(), Vec::new());
        blocked
            .step_block(&cell, &pack, (&q, &q), order(), false, |h, (s, span)| {
                got_h.push(h.to_vec());
                got_stats.push(s);
                assert_eq!(span, 0, "untimed blocks read no clock");
            })
            .unwrap();
        prop_assert_eq!(bits(&got_h), bits(&want_h));
        prop_assert_eq!(&got_stats, &want_stats);

        // The same sequence over two calls, split off any block boundary.
        let mut split = LstmReuseState::new_shared(&cell);
        let mut split_h = Vec::new();
        let cut = len / 3;
        for part in [&xs[..cut], &xs[cut..]] {
            let part = part.iter().map(Vec::as_slice);
            split
                .step_block(&cell, &pack, (&q, &q), part, true, |h, _| split_h.push(h.to_vec()))
                .unwrap();
        }
        prop_assert_eq!(bits(&split_h), bits(&want_h));

        // What is buffered shows in what comes next.
        for state in [&mut blocked, &mut split] {
            prop_assert_eq!(state.state(), stepped.state());
        }
        let (mut h_a, mut h_b) = (Vec::new(), Vec::new());
        let cfg = ParallelConfig::serial();
        for x in probes {
            let a = stepped.step_into_packed(&cfg, &cell, &pack, &q, &q, x, &mut h_a).unwrap();
            let b = blocked.step_into_packed(&cfg, &cell, &pack, &q, &q, x, &mut h_b).unwrap();
            prop_assert_eq!(a, b);
            prop_assert_eq!(bits(std::slice::from_ref(&h_a)), bits(std::slice::from_ref(&h_b)));
        }

        let mut naive = LstmReuseState::new_shared(&cell);
        let mut h_n = Vec::new();
        for (t, x) in order().enumerate() {
            // The oracle's first timestep is the raw-matrix row walk, so
            // this pins the from-scratch step through the pack too.
            let s = naive.step_into_naive(&cell, &q, &q, x, &mut h_n).unwrap();
            let mismatch = reuse_tensor::simd::kernel_mismatch(&got_h[t], &h_n);
            prop_assert!(mismatch.is_none(), "t {}: {}", t, mismatch.unwrap());
            prop_assert_eq!(s, got_stats[t]);
        }
    }
}

/// A BiLSTM layer's sequence step is two cells driven by hand: the forward
/// one over ascending timesteps, the backward one over descending, outputs
/// concatenated, stats merged — bit for bit, with a span per timestep when
/// timed.
#[test]
fn bilstm_step_sequence_equals_two_hand_driven_cells() {
    let (n_in, d, len) = (13, 5, 70);
    let layer = BiLstmLayer::random(n_in, d, &mut Rng64::new(8));
    let q = quantizer();
    let (fwd, bwd) = (layer.forward_cell(), layer.backward_cell());
    let (fwd_pack, bwd_pack) = (LstmGatePack::new(fwd), LstmGatePack::new(bwd));
    let xs = walk(len, n_in, 9);
    let (fwd_h, fwd_stats, _) = lstm_single_steps(fwd, &fwd_pack, &q, xs.iter().map(Vec::as_slice));
    let (mut bwd_h, mut bwd_stats, _) =
        lstm_single_steps(bwd, &bwd_pack, &q, xs.iter().rev().map(Vec::as_slice));
    bwd_h.reverse();
    bwd_stats.reverse();

    let wrapped = Layer::BiLstm(layer.clone());
    let ctx = StepCtx {
        layer: &wrapped,
        quantizer_x: Some(&q),
        quantizer_h: Some(&q),
    };
    for timed in [false, true] {
        let mut state = BiLstmReuseState::new(&layer);
        let (mut out, mut steps) = (Vec::new(), Vec::new());
        state
            .step(&ctx, &xs.concat(), timed, &mut out, &mut steps)
            .unwrap();
        assert_eq!(steps.len(), len);
        assert!(steps.iter().all(|&(_, ns)| (ns > 0) == timed), "{steps:?}");
        for t in 0..len {
            let both = [fwd_h[t].as_slice(), bwd_h[t].as_slice()].concat();
            let row = out[t * 2 * d..][..2 * d].to_vec();
            assert_eq!(bits(&[row]), bits(&[both]), "t {t}");
            assert_eq!(steps[t].0, fwd_stats[t].merge(bwd_stats[t]), "t {t}");
        }
    }
}

/// A session with every layer reuse-disabled is the network: its sequence
/// walk and `Network::forward_sequence` run each layer through the same
/// entries, so outputs agree bit for bit — calibrating or not, whatever the
/// sequence length — and the pack a compiled model carries is the cell's.
#[test]
fn an_all_disabled_session_is_the_network_bitwise() {
    let net = reuse_nn::NetworkBuilder::new("rnn", 13)
        .seed(3)
        .bilstm(11)
        .lstm(7)
        .fully_connected(5, Activation::Identity)
        .build()
        .unwrap();
    let config = net
        .layers()
        .iter()
        .fold(reuse_core::ReuseConfig::uniform(16), |c, (name, _)| {
            c.disable_layer(name)
        });
    let mut session = reuse_core::ReuseSession::from_network(&net, &config);
    let mut flat = Vec::new();
    for (unit, len) in [1usize, 40, 65, 130, 3].into_iter().enumerate() {
        let xs = walk(len, 13, unit as u64);
        let want = net.forward_sequence(&xs).unwrap();
        let got = session.execute_sequence(&xs).unwrap();
        assert_eq!(got.len(), len);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(
                bits(&[g.as_slice().to_vec()]),
                bits(&[w.as_slice().to_vec()])
            );
        }
        session.execute_sequence_into(&xs, &mut flat).unwrap();
        let rows: Vec<Vec<f32>> = want.iter().map(|w| w.as_slice().to_vec()).collect();
        assert_eq!(bits(&[flat.clone()]), bits(&[rows.concat()]), "len {len}");
    }
    let Layer::Lstm(cell) = &session.network().layers()[1].1 else {
        panic!("layer 1 is the unidirectional cell");
    };
    let Layer::Lstm(original) = &net.layers()[1].1 else {
        panic!("layer 1 is the unidirectional cell");
    };
    assert!(std::ptr::eq(
        LstmGatePack::new(cell).combined_h(),
        original.pack().combined_h()
    ));
}

/// A 2D layer and its depth-1 3D twin (same weights, `kd = 1`, no padding —
/// `Conv3dSpec` pads depth too) are one computation: forward outputs,
/// corrected outputs and activity counters must be identical bit for bit.
#[test]
fn conv2d_equals_its_depth_one_conv3d_twin_bitwise() {
    for stride in [1usize, 2] {
        let spec2 = Conv2dSpec {
            in_channels: 3,
            out_channels: 5,
            kh: 3,
            kw: 3,
            stride,
            pad: 0,
        };
        let spec3 = Conv3dSpec {
            in_channels: 3,
            out_channels: 5,
            kd: 1,
            kh: 3,
            kw: 3,
            stride,
            pad: 0,
        };
        let layer2 = Conv2dLayer::random(spec2, Activation::Identity, &mut Rng64::new(41));
        let weights =
            Tensor::from_vec(spec3.weight_shape(), layer2.weights().as_slice().to_vec()).unwrap();
        let layer3 =
            Conv3dLayer::new(spec3, weights, layer2.bias().clone(), Activation::Identity).unwrap();
        let (shape2, shape3) = (Shape::d3(3, 8, 9), Shape::d4(3, 1, 8, 9));

        let mut rng = Rng64::new(43);
        let mut frame: Vec<f32> = (0..shape2.volume()).map(|_| rng.uniform(0.9)).collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let (mut fwd2, mut fwd3) = (Vec::new(), Vec::new());
        Layer::Conv2d(layer2.clone())
            .forward_linear_into(&shape2, &frame, 1, &mut fwd2)
            .unwrap();
        Layer::Conv3d(layer3.clone())
            .forward_linear_into(&shape3, &frame, 1, &mut fwd3)
            .unwrap();
        assert_eq!(bits(&fwd2), bits(&fwd3), "stride {stride}");

        let (q, cfg) = (quantizer(), ParallelConfig::serial());
        let (pack2, pack3) = (ConvPack::new(&layer2), ConvPack::new(&layer3));
        let mut state2 = ConvReuseState::new(&layer2, &shape2).unwrap();
        let mut state3 = ConvReuseState::new(&layer3, &shape3).unwrap();
        assert_eq!(state2.storage_bytes(), state3.storage_bytes());
        let (mut out2, mut out3) = (Vec::new(), Vec::new());
        for step in 0..12 {
            for _ in 0..20 {
                let i = (rng.next_u64() % frame.len() as u64) as usize;
                frame[i] = (frame[i] + rng.uniform(0.6)).clamp(-1.0, 1.0);
            }
            let s2 = state2
                .execute_into_packed(&cfg, &layer2, &pack2, &q, &frame, &mut out2)
                .unwrap();
            let s3 = state3
                .execute_into_packed(&cfg, &layer3, &pack3, &q, &frame, &mut out3)
                .unwrap();
            assert_eq!(s2, s3, "stride {stride} step {step}");
            assert_eq!(s2.from_scratch, step == 0);
            assert_eq!(bits(&out2), bits(&out3), "stride {stride} step {step}");
        }
    }
}
