//! Direct SIMD==scalar equivalence for quantization: the AVX2
//! `quantize_slice_into` kernel must be **bit-exact** against the scalar
//! per-element path — same codes for every input, including NaN, infinities,
//! exact range edges, half-step ties, and values far outside the range — and
//! the one-pass change detection (`diff_codes`) must leave the same code
//! buffer, report the same indices and carry bitwise-equal deltas at both
//! levels, which in turn equal "quantize with `LinearQuantizer::quantize`,
//! then diff". The AVX2 side is invoked explicitly (gated only on hardware
//! support), so this holds regardless of which level the process resolved;
//! on non-AVX2 hosts every test passes vacuously.
//!
//! Code-for-code exactness is what keeps reuse *semantics* (hit rates,
//! changed-index lists, MAC counters) invariant across SIMD levels even
//! though the float kernels only agree to FMA tolerance.

#![cfg(target_arch = "x86_64")]

use proptest::prelude::*;
use reuse_quant::{InputRange, LinearQuantizer, QuantCode};
use reuse_tensor::simd::avx2;

/// The awkward ranges from the unit edge-pin tests: steps that do not
/// subdivide the range evenly in f32, tiny magnitudes, asymmetric spans.
const RANGES: [(f32, f32, usize); 6] = [
    (-1.0, 1.0, 16),
    (0.0, 6.0, 12),
    (0.05, 1.0, 10),
    (-0.3, 0.7, 3),
    (1e-3, 7e-3, 5),
    (-123.4, 567.8, 31),
];

fn assert_codes_equal(q: &LinearQuantizer, xs: &[f32]) -> Result<(), TestCaseError> {
    let mut fast = Vec::new();
    let mut slow = Vec::new();
    q.quantize_slice_into_avx2(xs, &mut fast);
    q.quantize_slice_into_scalar(xs, &mut slow);
    prop_assert_eq!(fast.len(), slow.len());
    for (j, (a, b)) in fast.iter().zip(slow.iter()).enumerate() {
        prop_assert!(
            a == b,
            "codes diverge at {j}: x={} avx2={:?} scalar={:?} (range [{}, {}], step {})",
            xs[j],
            a,
            b,
            q.range().min(),
            q.range().max(),
            q.step()
        );
    }
    Ok(())
}

/// NaN, infinities, zeros, range edges, far-out values, and half-step ties
/// (round-half-away-from-zero territory) with their near-tie neighbours on
/// both sides of zero.
fn special_values(q: &LinearQuantizer) -> Vec<f32> {
    let (lo, hi, step) = (q.range().min(), q.range().max(), q.step());
    let mut xs = vec![
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        lo,
        hi,
        lo - 1.0,
        hi + 1.0,
        f32::MIN,
        f32::MAX,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1e30,
        -1e30,
    ];
    for k in [-7i32, -2, -1, 0, 1, 2, 7] {
        let tie = (k as f32 + 0.5) * step;
        xs.extend([tie, -tie, tie.next_up(), tie.next_down()]);
    }
    xs
}

#[test]
fn special_values_quantize_identically() {
    if !avx2::available() {
        return;
    }
    for (lo, hi, clusters) in RANGES {
        let q = LinearQuantizer::new(InputRange::new(lo, hi), clusters).unwrap();
        let xs = special_values(&q);
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        q.quantize_slice_into_avx2(&xs, &mut fast);
        q.quantize_slice_into_scalar(&xs, &mut slow);
        assert_eq!(fast, slow, "range [{lo}, {hi}] x{clusters}");
    }
}

/// The one-pass diff at both levels against the two-step definition:
/// quantize every input with `LinearQuantizer::quantize`, compare with the
/// previous code, and for each difference report
/// `centroid(new) - centroid(old)`.
fn assert_diffs_equal(
    q: &LinearQuantizer,
    xs: &[f32],
    prev: &[QuantCode],
) -> Result<(), TestCaseError> {
    let mut want_prev = prev.to_vec();
    let mut want = Vec::new();
    for (i, (&x, old)) in xs.iter().zip(want_prev.iter_mut()).enumerate() {
        let new = q.quantize(x);
        if new != *old {
            want.push((i as u32, (q.centroid(new) - q.centroid(*old)).to_bits()));
            *old = new;
        }
    }
    let bits = |changed: &[(u32, f32)]| -> Vec<(u32, u32)> {
        changed.iter().map(|&(i, d)| (i, d.to_bits())).collect()
    };
    // The changed list arrives dirty and too small: the pass replaces it.
    let mut slow_prev = prev.to_vec();
    let mut slow = vec![(7, 7.0)];
    q.diff_codes_scalar(xs, &mut slow_prev, &mut slow);
    prop_assert_eq!(&slow_prev, &want_prev, "scalar codes");
    prop_assert_eq!(bits(&slow), want.clone(), "scalar changed list");
    let mut fast_prev = prev.to_vec();
    let mut fast = vec![(9, 9.0)];
    q.diff_codes_avx2(xs, &mut fast_prev, &mut fast);
    prop_assert_eq!(&fast_prev, &want_prev, "avx2 codes");
    prop_assert_eq!(bits(&fast), want, "avx2 changed list");
    Ok(())
}

/// Deterministic previous codes that agree with the fresh ones on about
/// half the inputs (so both the changed and the unchanged lane of every
/// vector position occur) and lie anywhere in or a little beyond the code
/// span elsewhere.
fn some_prev(q: &LinearQuantizer, xs: &[f32], seed: u64) -> Vec<QuantCode> {
    let mut s = seed | 1;
    xs.iter()
        .map(|&x| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let span = (q.code_max() - q.code_min() + 5) as u64;
            match (s >> 33) % 2 {
                0 => q.quantize(x),
                _ => QuantCode(q.code_min() - 2 + ((s >> 40) % span) as i32),
            }
        })
        .collect()
}

#[test]
fn special_values_diff_identically() {
    if !avx2::available() {
        return;
    }
    for (lo, hi, clusters) in RANGES {
        let q = LinearQuantizer::new(InputRange::new(lo, hi), clusters).unwrap();
        let xs = special_values(&q);
        for seed in 0..4 {
            assert_diffs_equal(&q, &xs, &some_prev(&q, &xs, seed)).unwrap();
        }
        // Nothing changed, and everything changed.
        let same: Vec<QuantCode> = xs.iter().map(|&x| q.quantize(x)).collect();
        assert_diffs_equal(&q, &xs, &same).unwrap();
        let all: Vec<QuantCode> = same.iter().map(|c| QuantCode(c.0 + 1)).collect();
        assert_diffs_equal(&q, &xs, &all).unwrap();
    }
}

#[test]
fn every_short_length_and_a_few_thousand_diff_identically() {
    if !avx2::available() {
        return;
    }
    let q = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 32).unwrap();
    for n in (0..=40).chain([4095, 4096, 4099]) {
        let xs: Vec<f32> = (0..n)
            .map(|i| ((i * 2_654_435_761usize) % 2001) as f32 / 1000.0 - 1.0)
            .collect();
        assert_diffs_equal(&q, &xs, &some_prev(&q, &xs, n as u64)).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn random_slices_quantize_identically(
        range_idx in 0usize..6,
        xs in proptest::collection::vec(
            (0u8..8, -700.0f32..700.0, 0u32..=u32::MAX).prop_map(|(sel, v, bits)| {
                match sel {
                    // Mostly in-or-near-range floats, with a steady trickle
                    // of tiny values, NaN, and fully arbitrary bit patterns
                    // (infinities, denormals, negative zero, huge values).
                    0 => f32::NAN,
                    1 => f32::from_bits(bits),
                    2 => v / 700.0,
                    _ => v,
                }
            }),
            0..64,
        ),
    ) {
        if !avx2::available() {
            return Ok(());
        }
        let (lo, hi, clusters) = RANGES[range_idx];
        let q = LinearQuantizer::new(InputRange::new(lo, hi), clusters).unwrap();
        assert_codes_equal(&q, &xs)?;
    }

    #[test]
    fn random_slices_diff_identically(
        range_idx in 0usize..6,
        seed in 0u64..1_000_000,
        xs in proptest::collection::vec(
            (0u8..8, -700.0f32..700.0, 0u32..=u32::MAX).prop_map(|(sel, v, bits)| {
                match sel {
                    0 => f32::NAN,
                    1 => f32::from_bits(bits),
                    2 => v / 700.0,
                    _ => v,
                }
            }),
            0..64,
        ),
    ) {
        if !avx2::available() {
            return Ok(());
        }
        let (lo, hi, clusters) = RANGES[range_idx];
        let q = LinearQuantizer::new(InputRange::new(lo, hi), clusters).unwrap();
        assert_diffs_equal(&q, &xs, &some_prev(&q, &xs, seed))?;
    }

    #[test]
    fn step_multiples_diff_identically(
        range_idx in 0usize..6,
        seed in 0u64..1_000_000,
        ks in proptest::collection::vec(-40i32..=40, 1..48),
        frac in 0.0f32..1.0,
    ) {
        if !avx2::available() {
            return Ok(());
        }
        let (lo, hi, clusters) = RANGES[range_idx];
        let q = LinearQuantizer::new(InputRange::new(lo, hi), clusters).unwrap();
        let xs: Vec<f32> = ks.iter().map(|&k| (k as f32 + frac) * q.step()).collect();
        assert_diffs_equal(&q, &xs, &some_prev(&q, &xs, seed))?;
    }

    #[test]
    fn step_multiples_quantize_identically(
        range_idx in 0usize..6,
        ks in proptest::collection::vec(-40i32..=40, 1..48),
        frac in 0.0f32..1.0,
    ) {
        if !avx2::available() {
            return Ok(());
        }
        let (lo, hi, clusters) = RANGES[range_idx];
        let q = LinearQuantizer::new(InputRange::new(lo, hi), clusters).unwrap();
        // Step multiples plus a shared fractional offset sweep straight
        // through every rounding boundary the kernel has to honour.
        let xs: Vec<f32> = ks.iter().map(|&k| (k as f32 + frac) * q.step()).collect();
        assert_codes_equal(&q, &xs)?;
    }
}
