//! Direct SIMD==scalar equivalence: every AVX2 kernel in
//! `reuse_tensor::simd::avx2` is pinned against the scalar-level body it
//! replaces, on the same inputs, regardless of which level the process
//! resolved (the AVX2 side is invoked explicitly, gated only on hardware
//! support). This is stronger than the dispatch-level suites in
//! `tests/blocked.rs`: a bug that made `level()` resolve to the wrong
//! branch would not hide a kernel divergence here.
//!
//! Every accumulation is fused, one chain per output, at both levels (the
//! `reuse_tensor::simd` contract), so every comparison is on `to_bits()`;
//! the σ/φ kernels fuse nothing and owe the scalar definitions' exact bits
//! likewise. On non-AVX2 hosts the AVX2 halves pass vacuously.

#![cfg(target_arch = "x86_64")]

use proptest::prelude::*;
use reuse_tensor::block::{
    apply_deltas_scalar, axpy_buckets_scalar, fc_forward_packed_into, forward_panels_scalar,
    gather_axpy_scalar, RowGrid, TapBucket, TapWindow,
};
use reuse_tensor::matmul::fc_forward_naive;
use reuse_tensor::simd::{self, avx2, kernel_mismatch};
use reuse_tensor::{PackedPanels, ParallelConfig, Shape, Tensor};

/// Values in ±8 on a grid of 1/125 000 — arbitrary, not dyadic, so a step
/// that rounds its product before adding shows in the low bits — with the
/// exact zero among them.
fn vals(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(
        (-1_000_000i32..=1_000_000).prop_map(|v| v as f32 / 125_000.0),
        n,
    )
}

/// The same grid from a seed, every eighth value an exact zero.
fn seeded(seed: u64) -> impl FnMut() -> f32 {
    let mut s = seed | 1;
    move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if s >> 61 == 0 {
            0.0
        } else {
            ((s >> 33) % 2_000_001) as f32 / 125_000.0 - 8.0
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fc_panels_matches_scalar(
        n_in in 1usize..40,
        // Through one 64-lane tile and past it, with a partial last panel.
        n_out in 1usize..90,
        seed in 0u64..1000,
    ) {
        if !avx2::available() {
            return Ok(());
        }
        let mut next = seeded(seed);
        let w: Vec<f32> = (0..n_in * n_out).map(|_| next()).collect();
        let x: Vec<f32> = (0..n_in).map(|_| next()).collect();
        let bias: Vec<f32> = (0..n_out).map(|_| next()).collect();
        let packed = PackedPanels::pack_slice(&w, n_in, n_out);
        let mut fast = bias.clone();
        let mut slow = bias;
        avx2::fc_panels(&packed, &x, &mut fast);
        forward_panels_scalar(&packed, &x, &mut slow);
        prop_assert_eq!(kernel_mismatch(&fast, &slow), None);
    }

    #[test]
    fn matmul_rows_matches_per_row_scalar(
        // Whole four-row register blocks and every remainder.
        m in 1usize..10,
        k in 1usize..20,
        n in 1usize..70,
        a in vals(180),
        w in vals(1400),
    ) {
        if !avx2::available() {
            return Ok(());
        }
        prop_assume!(a.len() >= m * k && w.len() >= k * n);
        let a = &a[..m * k];
        let w = &w[..k * n];
        let packed = PackedPanels::pack_slice(w, k, n);
        let mut fast = vec![0.0f32; m * n];
        avx2::matmul_rows(&packed, a, &mut fast);
        let mut slow = vec![0.0f32; m * n];
        for (i, row) in slow.chunks_mut(n).enumerate() {
            forward_panels_scalar(&packed, &a[i * k..(i + 1) * k], row);
        }
        prop_assert_eq!(kernel_mismatch(&fast, &slow), None);
    }

    #[test]
    fn apply_deltas_matches_scalar(
        // Up to three `DELTA_BATCH` groups and every remainder.
        n_in in 1usize..16,
        n_out in 1usize..70,
        w in vals(1024),
        dvals in vals(16),
    ) {
        if !avx2::available() {
            return Ok(());
        }
        prop_assume!(w.len() >= n_in * n_out);
        let w = &w[..n_in * n_out];
        let deltas: Vec<(u32, f32)> = dvals
            .iter()
            .take(n_in)
            .enumerate()
            .map(|(i, &d)| (i as u32, d))
            .collect();
        let mut fast = vec![1.0f32; n_out];
        let mut slow = fast.clone();
        avx2::apply_deltas(w, &deltas, &mut fast);
        apply_deltas_scalar(w, &deltas, &mut slow);
        prop_assert_eq!(kernel_mismatch(&fast, &slow), None);
    }

    #[test]
    fn axpy_row_grids_matches_scalar(
        n_out in 1usize..40,
        counts in (0usize..4, 0usize..4),
        steps in (1usize..7, 1usize..3),
        gap in 0usize..5,
        scale in -8.0f32..8.0,
        w in vals(1200),
    ) {
        if !avx2::available() {
            return Ok(());
        }
        // The deepest row the grid reaches up from is row 0.
        let first_row = counts.0.saturating_sub(1) * steps.0 + counts.1.saturating_sub(1) * steps.1;
        let n_in = first_row + 1;
        prop_assume!(n_in * n_out <= w.len());
        let w = &w[..n_in * n_out];
        let packed = PackedPanels::pack_slice(w, n_in, n_out);
        let outer_stride = counts.1 * n_out + gap;
        // The same grid twice, the second `gap` floats in: grids apply in
        // order, onto overlapping destinations.
        let grid = |at| RowGrid { first_row, counts: [counts.0, counts.1], at, scale };
        let mut fast = vec![0.5f32; counts.0 * outer_stride + gap];
        let mut slow = fast.clone();
        let steps = [steps.0, steps.1];
        avx2::axpy_row_grids(&packed, steps, outer_stride, [grid(0), grid(gap)].into_iter(), &mut fast);
        for at in [0, gap] {
            for i in 0..counts.0 {
                for j in 0..counts.1 {
                    let wrow = &w[(first_row - i * steps[0] - j * steps[1]) * n_out..][..n_out];
                    let out = &mut slow[at + i * outer_stride + j * n_out..][..n_out];
                    for (o, &wv) in out.iter_mut().zip(wrow) {
                        *o = scale.mul_add(wv, *o);
                    }
                }
            }
        }
        prop_assert_eq!(kernel_mismatch(&fast, &slow), None);
    }

    #[test]
    fn gather_axpy_matches_the_entry_loop_and_the_row_grid_walk(
        // One lane, masked tails, whole vectors, a panel and a half, more
        // than one 64-lane tile.
        n_out in proptest::sample::select(vec![1usize, 7, 8, 24, 36, 64, 72, 130]),
        lanes in proptest::sample::select(vec![1usize, 3, 4, 5, 7, 8]),
        step in 1usize..4,
        positions in 1usize..6,
        n_windows in 1usize..5,
        // Share of image floats that are non-zero: a frame with no change,
        // sparse, dense, every input changed.
        density in proptest::sample::select(vec![0u64, 6, 50, 100]),
        seed in 0u64..100_000,
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        // Arbitrary (not dyadic) values, so a reordered or differently
        // rounded addition shows in the low bits.
        let unit = |r: u64| (r % 2_000_001) as f32 / 1_000_000.0 - 1.0;
        let n_in = n_windows * lanes;
        let w: Vec<f32> = (0..n_in * n_out).map(|_| unit(next())).collect();
        let packed = PackedPanels::pack_slice(&w, n_in, n_out);
        // Windows anywhere (overlapping, unordered in the image), taps
        // ascending; the image ends exactly where the last position's last
        // 8-lane load does, and lanes past `lanes` hold values too.
        let windows: Vec<TapWindow> = (0..n_windows)
            .map(|k| TapWindow { at: (next() % 40) as u32, tap: (k * lanes) as u32 })
            .collect();
        let reach = (positions - 1) * step + 8;
        let len = windows.iter().map(|w| w.at as usize).max().unwrap() + reach;
        let image: Vec<f32> = (0..len)
            .map(|_| if next() % 100 < density { unit(next()) } else { 0.0 })
            .collect();
        let start: Vec<f32> = (0..positions * n_out).map(|_| unit(next())).collect();

        // The entry loop, and the same entries as 1×1 row grids.
        let mut want = start.clone();
        let mut grids = Vec::new();
        for p in 0..positions {
            for win in &windows {
                for l in 0..lanes {
                    let delta = image[win.at as usize + p * step + l];
                    if delta != 0.0 {
                        let row = win.tap as usize + l;
                        for (o, &wv) in want[p * n_out..][..n_out].iter_mut().zip(&w[row * n_out..]) {
                            *o = delta.mul_add(wv, *o);
                        }
                        grids.push(RowGrid { first_row: row, counts: [1, 1], at: p * n_out, scale: delta });
                    }
                }
            }
        }
        let mut bucket = TapBucket::new(n_in);

        let mut scalar = start.clone();
        let entries = gather_axpy_scalar(&packed, &image, &windows, lanes, step, &mut bucket, &mut scalar);
        prop_assert_eq!(entries, grids.len() as u64);
        prop_assert_eq!(kernel_mismatch(&scalar, &want), None, "scalar gather vs the entry loop");

        // Whatever level the process resolved (under `REUSE_SIMD=off` this is
        // the scalar row-grid walk).
        let mut gathered = start.clone();
        let mut walked = start.clone();
        let entries = packed.gather_axpy(&image, &windows, lanes, step, &mut bucket, &mut gathered);
        packed.axpy_row_grids([1, 1], n_out, grids.iter().copied(), &mut walked);
        prop_assert_eq!(entries, grids.len() as u64);
        prop_assert_eq!(kernel_mismatch(&gathered, &want), None, "dispatched gather vs the entry loop");
        prop_assert_eq!(kernel_mismatch(&walked, &want), None, "dispatched row-grid walk vs the entry loop");

        if !avx2::available() {
            return Ok(());
        }
        let mut fast = start.clone();
        let mut fast_walk = start.clone();
        let entries = avx2::gather_axpy(&packed, &image, &windows, lanes, step, &mut bucket, &mut fast);
        avx2::axpy_row_grids(&packed, [1, 1], n_out, grids.iter().copied(), &mut fast_walk);
        prop_assert_eq!(entries, grids.len() as u64);
        prop_assert_eq!(kernel_mismatch(&fast, &want), None, "avx2 gather vs the entry loop");
        prop_assert_eq!(kernel_mismatch(&fast_walk, &want), None, "avx2 row-grid walk vs the entry loop");
    }

    #[test]
    fn axpy_buckets_matches_the_entry_loop_bitwise(
        n_out in proptest::sample::select(vec![1usize, 7, 16, 24, 36, 130]),
        n_in in 1usize..40,
        // No bucket, fewer than a lockstep group, whole groups, a remainder.
        buckets in 0usize..10,
        // Empty lists, short ones, and ones far longer than a conv position
        // ever gathers (AutoPilot's largest bucket is 24·5·5 = 600 entries).
        longest in proptest::sample::select(vec![0usize, 3, 40, 1500]),
        seed in 0u64..100_000,
    ) {
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s >> 33
        };
        let unit = |r: u64| (r % 2_000_001) as f32 / 1_000_000.0 - 1.0;
        let w: Vec<f32> = (0..n_in * n_out).map(|_| unit(next())).collect();
        let packed = PackedPanels::pack_slice(&w, n_in, n_out);
        let (mut taps, mut deltas, mut ends) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..buckets {
            // Lengths differ inside a group, so its buckets finish apart.
            for _ in 0..next() as usize % (longest + 1) {
                taps.push((next() % n_in as u64) as u32);
                deltas.push(unit(next()));
            }
            ends.push(taps.len());
        }
        // Rows enter as +0.0: a row's sum from zero, as the LSTM x phase
        // takes it, and untouched — still +0.0 — under an empty bucket.
        let start = vec![0.0f32; buckets * n_out];
        let mut want = start.clone();
        let mut from = 0;
        for (row, &end) in want.chunks_mut(n_out).zip(&ends) {
            for e in from..end {
                let wrow = &w[taps[e] as usize * n_out..][..n_out];
                for (o, &wv) in row.iter_mut().zip(wrow) {
                    *o = deltas[e].mul_add(wv, *o);
                }
            }
            from = end;
        }

        let mut scalar = start.clone();
        axpy_buckets_scalar(&packed, &taps, &deltas, &ends, &mut scalar);
        prop_assert_eq!(kernel_mismatch(&scalar, &want), None, "scalar body vs the entry loop");

        // However the buckets are split over calls, the dispatched kernel
        // produces the bits of one bucket per call.
        let mut together = start.clone();
        let mut apart = start.clone();
        packed.axpy_buckets(&taps, &deltas, &ends, &mut together);
        let mut from = 0;
        for (row, &end) in apart.chunks_mut(n_out).zip(&ends) {
            packed.axpy_buckets(&taps[from..end], &deltas[from..end], &[end - from], row);
            from = end;
        }
        prop_assert_eq!(kernel_mismatch(&together, &want), None, "one call vs the entry loop");
        prop_assert_eq!(kernel_mismatch(&apart, &want), None, "one call per bucket vs the entry loop");

        if !avx2::available() {
            return Ok(());
        }
        let mut fast = start.clone();
        avx2::axpy_buckets(&packed, &taps, &deltas, &ends, &mut fast);
        prop_assert_eq!(kernel_mismatch(&fast, &want), None, "avx2 body vs the entry loop");
    }

    #[test]
    fn row_axpy_matches_scalar(row in vals(40), scale in -8.0f32..8.0) {
        if !avx2::available() {
            return Ok(());
        }
        let mut fast = vec![0.5f32; row.len()];
        let mut slow = fast.clone();
        avx2::row_axpy(&mut fast, &row, scale);
        for (d, &r) in slow.iter_mut().zip(row.iter()) {
            *d = scale.mul_add(r, *d);
        }
        prop_assert_eq!(kernel_mismatch(&fast, &slow), None);
    }

    #[test]
    fn sigmoid_and_tanh_slices_match_the_scalar_definitions_bitwise(
        len in 0usize..18,
        seed in 0u64..100_000,
    ) {
        if !avx2::available() {
            return Ok(());
        }
        // Slice lengths 0–17 cover every vector tail; the values mix the
        // working range with the special cases.
        let mut s = seed | 1;
        let x: Vec<f32> = (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                match (s >> 33) % 8 {
                    0 => SPECIALS[(s >> 40) as usize % SPECIALS.len()],
                    _ => ((s >> 36) % 200_001) as f32 / 1000.0 - 100.0,
                }
            })
            .collect();
        let mut fast = x.clone();
        avx2::sigmoid_slice(&mut fast);
        for (&v, &got) in x.iter().zip(&fast) {
            prop_assert!(same_bits(got, simd::sigmoid(v)), "sigmoid({:e})", v);
        }
        let mut fast = x.clone();
        avx2::tanh_slice(&mut fast);
        for (&v, &got) in x.iter().zip(&fast) {
            prop_assert!(same_bits(got, simd::tanh(v)), "tanh({:e})", v);
        }

        // The fused cell update against its five-call spelling.
        let pre: Vec<f32> = x.iter().cycle().take(4 * len).map(|v| v * 0.1).collect();
        let c0: Vec<f32> = x.iter().map(|v| v * 0.01).collect();
        let (mut c, mut h) = (c0.clone(), vec![0.0f32; len]);
        avx2::lstm_gate_update(&pre, &mut c, &mut h);
        for j in 0..len {
            let (i, f) = (simd::sigmoid(pre[j]), simd::sigmoid(pre[len + j]));
            let (g, o) = (simd::tanh(pre[2 * len + j]), simd::sigmoid(pre[3 * len + j]));
            let cell = f * c0[j] + i * g;
            prop_assert!(same_bits(c[j], cell), "c[{}]: {:e} vs {:e}", j, c[j], cell);
            let hidden = o * simd::tanh(cell);
            prop_assert!(same_bits(h[j], hidden), "h[{}]: {:e} vs {:e}", j, h[j], hidden);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Agreement must not be an artefact of short sums: a 2 000-term chain
    /// per output (the Kaldi FC width) through the dispatched kernel, the
    /// scalar body, the AVX2 body and the naive oracle, one set of bits.
    #[test]
    fn a_two_thousand_term_chain_is_one_set_of_bits_in_every_body(
        // A lone lane, a partial panel, a tile and a panel and a half.
        n_out in proptest::sample::select(vec![1usize, 13, 88]),
        seed in 0u64..100_000,
    ) {
        const N_IN: usize = 2000;
        let mut next = seeded(seed);
        let w: Vec<f32> = (0..N_IN * n_out).map(|_| next() / 64.0).collect();
        let x: Vec<f32> = (0..N_IN).map(|_| next()).collect();
        let bias: Vec<f32> = (0..n_out).map(|_| next()).collect();
        let naive = fc_forward_naive(
            &Tensor::from_vec(Shape::d2(N_IN, n_out), w.clone()).unwrap(),
            &Tensor::from_slice_1d(&x).unwrap(),
            &Tensor::from_slice_1d(&bias).unwrap(),
        )
        .unwrap();
        let packed = PackedPanels::pack_slice(&w, N_IN, n_out);

        let mut dispatched = Vec::new();
        fc_forward_packed_into(&ParallelConfig::serial(), &packed, &x, &bias, &mut dispatched).unwrap();
        prop_assert_eq!(kernel_mismatch(&dispatched, naive.as_slice()), None, "dispatched vs naive");
        let mut scalar = bias.clone();
        forward_panels_scalar(&packed, &x, &mut scalar);
        prop_assert_eq!(kernel_mismatch(&scalar, naive.as_slice()), None, "scalar body vs naive");
        if avx2::available() {
            let mut fast = bias.clone();
            avx2::fc_panels(&packed, &x, &mut fast);
            prop_assert_eq!(kernel_mismatch(&fast, naive.as_slice()), None, "avx2 body vs naive");
        }
    }
}

/// Inputs where σ/φ leave their polynomial: zeros, denormals, the `exp`
/// clamps and the `tanh` branch point, saturation, infinities, NaN.
const SPECIALS: [f32; 20] = [
    0.0,
    -0.0,
    1e-45,
    -1e-45,
    1e-39,
    f32::MIN_POSITIVE,
    0.625,
    -0.625,
    9.0,
    20.0,
    -20.0,
    87.4,
    -87.4,
    88.4,
    -88.4,
    104.0,
    -104.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
];

/// Bit equality, NaN payloads aside: which of two NaN operands an addition
/// hands on is the one thing IEEE 754 (and Rust) leave to the instruction.
fn same_bits(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Every input the σ/φ tests sweep: a dense walk of [−100, 100], both edges
/// of every binade of either sign, and [`SPECIALS`].
fn activation_sweep() -> Vec<f32> {
    let dense = (-1_600_000..=1_600_000).map(|i| i as f32 / 16_000.0);
    let binades = (0u32..255).flat_map(|e| {
        let low = f32::from_bits(e << 23);
        let high = f32::from_bits((e << 23) | 0x7f_ffff);
        [low, high, -low, -high]
    });
    dense.chain(binades).chain(SPECIALS).collect()
}

#[test]
fn sigmoid_and_tanh_avx2_bodies_match_scalar_over_the_whole_sweep() {
    if !avx2::available() {
        return;
    }
    let x = activation_sweep();
    let (mut sig, mut tanh) = (x.clone(), x.clone());
    avx2::sigmoid_slice(&mut sig);
    avx2::tanh_slice(&mut tanh);
    for ((&v, s), t) in x.iter().zip(sig).zip(tanh) {
        assert!(same_bits(s, simd::sigmoid(v)), "sigmoid({v:e})");
        assert!(same_bits(t, simd::tanh(v)), "tanh({v:e})");
    }
}

#[test]
fn sigmoid_and_tanh_stay_within_2e_7_of_f64_and_keep_their_shape() {
    for v in activation_sweep() {
        let (s, t) = (simd::sigmoid(v), simd::tanh(v));
        if v.is_nan() {
            assert!(s.is_nan() && t.is_nan());
            continue;
        }
        let exact_s = 1.0 / (1.0 + (-f64::from(v)).exp());
        let exact_t = f64::from(v).tanh();
        assert!(
            (f64::from(s) - exact_s).abs() <= 2e-7,
            "sigmoid({v:e}) = {s:e}"
        );
        assert!(
            (f64::from(t) - exact_t).abs() <= 2e-7,
            "tanh({v:e}) = {t:e}"
        );
        assert!((0.0..=1.0).contains(&s), "sigmoid({v:e}) = {s:e}");
        assert_eq!(
            simd::tanh(-v).to_bits(),
            (-t).to_bits(),
            "tanh is odd at {v:e}"
        );
    }
    // Saturation and special values, as libm has them.
    assert_eq!(simd::sigmoid(0.0), 0.5);
    assert_eq!(simd::tanh(20.0), 1.0);
    assert_eq!(simd::tanh(-20.0), -1.0);
    assert_eq!(simd::tanh(f32::INFINITY), 1.0);
    assert_eq!(simd::tanh(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(simd::tanh(-0.0).to_bits(), (-0.0f32).to_bits());
    let low = simd::sigmoid(-104.0);
    assert!(low >= 0.0 && low.is_finite());
    assert_eq!(simd::sigmoid(f32::NEG_INFINITY), 0.0);
    assert_eq!(simd::sigmoid(f32::INFINITY), 1.0);
}

/// A `#[should_panic]` test of an explicit AVX2 entry passes vacuously, like
/// every test here, on a host that cannot run it.
fn need_avx2(expected: &str) {
    assert!(avx2::available(), "{expected} (unchecked: host lacks AVX2)");
}

// The AVX2 bodies read through raw pointers on the strength of these length
// checks, so each must hold in release builds too.

#[test]
#[should_panic(expected = "row_axpy operand lengths")]
fn avx2_row_axpy_rejects_a_short_row() {
    need_avx2("row_axpy operand lengths");
    avx2::row_axpy(&mut [0.0; 24], &[1.0; 8], 2.0);
}

#[test]
#[should_panic(expected = "fc_panels input vs weight rows")]
fn avx2_fc_panels_rejects_a_long_input() {
    need_avx2("fc_panels input vs weight rows");
    let packed = PackedPanels::pack_slice(&[1.0; 3 * 20], 3, 20);
    avx2::fc_panels(&packed, &[1.0; 64], &mut [0.0; 20]);
}

#[test]
#[should_panic(expected = "fc_panels: 40 outputs from 2 panels")]
fn avx2_fc_panels_rejects_outputs_past_the_last_panel() {
    need_avx2("fc_panels: 40 outputs from 2 panels");
    let packed = PackedPanels::pack_slice(&[1.0; 3 * 20], 3, 20);
    avx2::fc_panels(&packed, &[1.0; 3], &mut [0.0; 40]);
}

#[test]
#[should_panic(expected = "A rows vs C rows")]
fn avx2_matmul_rows_rejects_a_short_lhs() {
    need_avx2("A rows vs C rows");
    let packed = PackedPanels::pack_slice(&[1.0; 3 * 20], 3, 20);
    avx2::matmul_rows(&packed, &[1.0; 3], &mut [0.0; 2 * 20]);
}

// `axpy_buckets` checks the same bounds at both levels (the AVX2 body
// indexes through raw pointers on the strength of them).

#[test]
#[should_panic(expected = "tap 3 outside 3 weight rows")]
fn axpy_buckets_rejects_a_tap_past_the_weight_rows() {
    let packed = PackedPanels::pack_slice(&[1.0; 3 * 20], 3, 20);
    packed.axpy_buckets(&[0, 3], &[1.0, 1.0], &[2], &mut [0.0; 20]);
}

#[test]
#[should_panic(expected = "bucket 1..3 of 2 entries")]
fn axpy_buckets_rejects_a_bucket_past_the_entries() {
    let packed = PackedPanels::pack_slice(&[1.0; 3 * 20], 3, 20);
    packed.axpy_buckets(&[0, 1], &[1.0, 1.0], &[1, 3], &mut [0.0; 40]);
}

#[test]
#[should_panic(expected = "one 20-wide row per bucket")]
fn axpy_buckets_rejects_a_short_destination() {
    let packed = PackedPanels::pack_slice(&[1.0; 3 * 20], 3, 20);
    packed.axpy_buckets(&[0, 1], &[1.0, 1.0], &[1, 2], &mut [0.0; 20]);
}
