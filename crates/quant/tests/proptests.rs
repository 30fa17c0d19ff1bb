//! Property-based tests for linear quantization (paper Eq. 9 invariants).

use proptest::prelude::*;
use reuse_quant::{InputRange, LinearQuantizer, RangeProfiler};

proptest! {
    #[test]
    fn quantization_error_bounded(x in -1.0f32..1.0, clusters in 2usize..64) {
        let q = LinearQuantizer::new(InputRange::new(-1.0, 1.0), clusters).unwrap();
        let err = (q.quantized_value(x) - x).abs();
        prop_assert!(err <= q.max_error() + 1e-6, "err {err} > {}", q.max_error());
    }

    #[test]
    fn quantization_idempotent(x in -5.0f32..5.0, clusters in 2usize..64) {
        let q = LinearQuantizer::new(InputRange::new(-5.0, 5.0), clusters).unwrap();
        let once = q.quantized_value(x);
        prop_assert_eq!(q.quantize(once), q.quantize(x));
        prop_assert_eq!(q.quantized_value(once), once);
    }

    #[test]
    fn range_boundaries_quantize_to_edge_codes(
        lo in -100.0f32..100.0,
        width in 1e-3f32..200.0,
        clusters in 2usize..64,
    ) {
        // Regression for the boundary bug: `round(max / step)` could land
        // one past the derived top code when `step` subdivided the range
        // unevenly. The edges must map to the edge codes exactly, for every
        // range, and the code span must be exactly `clusters` wide.
        let range = InputRange::new(lo, lo + width);
        let q = LinearQuantizer::new(range, clusters).unwrap();
        prop_assert_eq!(q.quantize(range.min()).0, q.code_min());
        prop_assert_eq!(q.quantize(range.max()).0, q.code_max());
        prop_assert_eq!(q.code_max() - q.code_min(), clusters as i32);
        // Out-of-range values clamp onto the same edge codes.
        prop_assert_eq!(q.quantize(range.min() - 1.0).0, q.code_min());
        prop_assert_eq!(q.quantize(range.max() + 1.0).0, q.code_max());
        // Interior values never escape the code span.
        for i in 0..=16 {
            let x = range.min() + range.width() * (i as f32 / 16.0);
            let c = q.quantize(x).0;
            prop_assert!(c >= q.code_min() && c <= q.code_max(), "code {c} for x={x}");
        }
    }

    #[test]
    fn codes_are_monotone(a in -1.0f32..1.0, b in -1.0f32..1.0) {
        let q = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap();
        if a <= b {
            prop_assert!(q.quantize(a) <= q.quantize(b));
        } else {
            prop_assert!(q.quantize(a) >= q.quantize(b));
        }
    }

    #[test]
    fn centroid_is_fixed_point(code in -8i32..=8) {
        let q = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap();
        let c = q.centroid(reuse_quant::QuantCode(code));
        prop_assert_eq!(q.quantized_value(c), c);
    }

    #[test]
    fn coarser_quantizer_never_splits_a_cluster(
        x in -1.0f32..1.0, y in -1.0f32..1.0
    ) {
        // If a fine quantizer (32) maps two values to the same code, a
        // coarse one (16, step exactly double) cannot map them apart by more
        // than one code.
        let fine = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 32).unwrap();
        let coarse = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap();
        if fine.quantize(x) == fine.quantize(y) {
            let (cx, cy) = (coarse.quantize(x).0, coarse.quantize(y).0);
            prop_assert!((cx - cy).abs() <= 1);
        }
    }

    #[test]
    fn profiled_range_covers_all_samples(xs in proptest::collection::vec(-10.0f32..10.0, 2..100)) {
        let mut p = RangeProfiler::new();
        p.observe_slice(&xs);
        if let Ok(r) = p.range(0.0) {
            for &x in &xs {
                prop_assert!(x >= r.min() - 1e-6 && x <= r.max() + 1e-6);
                prop_assert_eq!(r.clamp(x), x);
            }
        }
    }
}

proptest! {
    #[test]
    fn kmeans_never_worse_than_linear(
        seed in 0u64..50, clusters in 4usize..20
    ) {
        // Deterministic pseudo-random skewed samples.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        let samples: Vec<f32> = (0..500).map(|_| { let u = next(); u * u * 3.0 }).collect();
        let lo = samples.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = samples.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_assume!(hi > lo);
        let km = reuse_quant::kmeans::KMeansQuantizer::fit(&samples, clusters, 60).unwrap();
        let lin = LinearQuantizer::new(InputRange::new(lo, hi), clusters - 1).unwrap();
        let lin_mse: f64 = samples.iter().map(|&v| {
            let d = (lin.quantized_value(v) - v) as f64; d * d
        }).sum::<f64>() / samples.len() as f64;
        // Lloyd starts from the linear grid, so it can only improve.
        prop_assert!(km.mse(&samples) <= lin_mse * 1.001,
            "kmeans {} vs linear {}", km.mse(&samples), lin_mse);
    }

    #[test]
    fn kmeans_codes_round_trip(v in 0.0f32..3.0) {
        let samples: Vec<f32> = (0..300).map(|i| (i as f32 / 100.0).powi(2) / 3.0).collect();
        let km = reuse_quant::kmeans::KMeansQuantizer::fit(&samples, 8, 40).unwrap();
        let code = km.quantize(v);
        let centroid = km.centroid(code);
        prop_assert_eq!(km.quantize(centroid), code);
    }
}
