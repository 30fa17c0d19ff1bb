//! Uniformly distributed linear quantization (paper Eq. 9).

use crate::{InputRange, QuantError};

/// The integer code (cluster index) of a quantized input.
///
/// The paper's accelerator stores these indices in a dedicated I/O-buffer
/// area and compares them across executions: two inputs are "the same" for
/// the reuse scheme exactly when their codes are equal. Codes fit in one
/// byte for all evaluated cluster counts (≤32), which is what the Table III
/// overhead accounting assumes.
/// `repr(transparent)` over `i32` so code buffers can be reinterpreted as
/// integer lanes by the vectorized quantize/diff kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct QuantCode(pub i32);

impl std::fmt::Display for QuantCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A uniformly distributed linear quantizer over a profiled range
/// (paper Eq. 9): `Qval = round(x / step) · step`, `step = range / C`.
///
/// Inputs outside the profiled range are clamped to it first, modelling the
/// finite centroid table of the hardware's Control Unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearQuantizer {
    range: InputRange,
    clusters: usize,
    step: f32,
    code_min: i32,
    code_max: i32,
}

impl LinearQuantizer {
    /// Creates a quantizer with `clusters` uniformly spaced centroids over
    /// `range`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::TooFewClusters`] for fewer than 2 clusters and
    /// [`QuantError::InvalidRange`] for a degenerate range.
    pub fn new(range: InputRange, clusters: usize) -> Result<Self, QuantError> {
        if clusters < 2 {
            return Err(QuantError::TooFewClusters { clusters });
        }
        let range = range.validated()?;
        let step = range.width() / clusters as f32;
        let code_min = (range.min() / step).round() as i32;
        // Derive the top code from the bottom one rather than rounding
        // `max / step` independently: when `step` subdivides the range
        // unevenly the two roundings can disagree by one, leaving a code
        // that `quantize` could only reach through the clamp (or not at
        // all). Pinning `code_max = code_min + clusters` keeps the code
        // span exactly `clusters` wide for every range.
        let code_max = code_min + clusters as i32;
        Ok(LinearQuantizer {
            range,
            clusters,
            step,
            code_min,
            code_max,
        })
    }

    /// Creates a quantizer over `range` with an explicit `step` instead of
    /// deriving it from a cluster count — the adaptive reuse policy's
    /// step-rescaling entry point. The effective cluster count becomes
    /// `ceil(width / step)` (at least 1), and the code span is pinned to it
    /// exactly as [`Self::new`] pins `code_max = code_min + clusters`, so
    /// the edge-code guarantees of [`Self::quantize`] carry over unchanged.
    ///
    /// `with_step(range, range.width() / c)` produces the same grid as
    /// `new(range, c)` up to f32 rounding of the division the caller
    /// performs; callers that need bit-identity with `new` should call
    /// `new` directly.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::InvalidRange`] for a degenerate range and
    /// [`QuantError::TooFewClusters`] when `step` is non-finite,
    /// non-positive, or so large that fewer than one full step fits in the
    /// range (a grid with no interior centroid cannot distinguish inputs).
    pub fn with_step(range: InputRange, step: f32) -> Result<Self, QuantError> {
        let range = range.validated()?;
        if !step.is_finite() || step <= 0.0 {
            return Err(QuantError::TooFewClusters { clusters: 0 });
        }
        let clusters = (range.width() / step).ceil() as usize;
        if clusters < 1 {
            return Err(QuantError::TooFewClusters { clusters });
        }
        let code_min = (range.min() / step).round() as i32;
        let code_max = code_min + clusters as i32;
        Ok(LinearQuantizer {
            range,
            clusters,
            step,
            code_min,
            code_max,
        })
    }

    /// The profiled input range.
    pub fn range(&self) -> InputRange {
        self.range
    }

    /// The number of clusters `C`.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// The quantization step (`range / C`).
    pub fn step(&self) -> f32 {
        self.step
    }

    /// Quantizes a value to its integer code: `round(clamp(x) / step)`.
    ///
    /// The range edges map to the edge codes exactly:
    /// `quantize(range.min()) == code_min` and
    /// `quantize(range.max()) == code_max`, regardless of how `step`
    /// subdivides the range. NaN inputs map to the bottom code.
    pub fn quantize(&self, x: f32) -> QuantCode {
        // Edge pinning before the round: `round(max / step)` can land on
        // `code_max + 1` when the division rounds up, which the old
        // clamp-after-round masked inconsistently.
        if x >= self.range.max() {
            return QuantCode(self.code_max);
        }
        if x.is_nan() || x <= self.range.min() {
            return QuantCode(self.code_min);
        }
        QuantCode(((x / self.step).round() as i32).clamp(self.code_min, self.code_max))
    }

    /// The smallest code this quantizer produces (`quantize(range.min())`).
    pub fn code_min(&self) -> i32 {
        self.code_min
    }

    /// The largest code this quantizer produces (`quantize(range.max())`).
    pub fn code_max(&self) -> i32 {
        self.code_max
    }

    /// The centroid (representable value) of a code: `code · step`.
    pub fn centroid(&self, code: QuantCode) -> f32 {
        code.0 as f32 * self.step
    }

    /// The quantized value of `x` (Eq. 9): centroid of its code.
    pub fn quantized_value(&self, x: f32) -> f32 {
        self.centroid(self.quantize(x))
    }

    /// Quantizes a slice to codes.
    pub fn quantize_slice(&self, xs: &[f32]) -> Vec<QuantCode> {
        let mut out = Vec::new();
        self.quantize_slice_into(xs, &mut out);
        out
    }

    /// Quantizes a slice into a caller-owned buffer, replacing its contents.
    /// Allocation-free once `out` has capacity — replay loops quantizing
    /// thousands of frames reuse one scratch buffer instead of allocating
    /// a fresh `Vec` per frame.
    ///
    /// Dispatched on the resolved [`reuse_tensor::simd::level`]. The AVX2
    /// kernel is **bit-exact** against [`Self::quantize`] — codes, and with
    /// them reuse statistics, never depend on the active SIMD level.
    pub fn quantize_slice_into(&self, xs: &[f32], out: &mut Vec<QuantCode>) {
        match reuse_tensor::simd::level() {
            #[cfg(target_arch = "x86_64")]
            reuse_tensor::SimdLevel::Avx2 => self.quantize_slice_into_avx2(xs, out),
            _ => self.quantize_slice_into_scalar(xs, out),
        }
    }

    /// The scalar body of [`Self::quantize_slice_into`], exposed
    /// (doc-hidden) as the oracle for the SIMD==scalar equivalence suites.
    #[doc(hidden)]
    pub fn quantize_slice_into_scalar(&self, xs: &[f32], out: &mut Vec<QuantCode>) {
        out.clear();
        out.extend(xs.iter().map(|&x| self.quantize(x)));
    }

    /// The AVX2 body of [`Self::quantize_slice_into`], exposed (doc-hidden)
    /// so equivalence suites can pin it against the scalar oracle even when
    /// `REUSE_SIMD=off`. Panics when AVX2+FMA is unavailable.
    #[doc(hidden)]
    #[cfg(target_arch = "x86_64")]
    pub fn quantize_slice_into_avx2(&self, xs: &[f32], out: &mut Vec<QuantCode>) {
        // The kernel overwrites every element: a buffer already of the right
        // length (every call after a stream's first) is not zero-filled again.
        if out.len() != xs.len() {
            out.clear();
            out.resize(xs.len(), QuantCode(0));
        }
        crate::simd::quantize_slice(self, xs, out);
    }

    /// Change detection, the paper's per-execution compare pass over the
    /// I/O-buffer indices area, in **one pass**: quantizes `xs`, compares
    /// each code with the one `prev` holds, overwrites it, and collects the
    /// changed inputs as `(index, centroid delta)` pairs in ascending index
    /// order. `changed` is replaced; once it has room for `xs.len()` pairs
    /// the pass is allocation-free.
    ///
    /// Dispatched on the resolved SIMD level and bit-exact at both: codes
    /// lane-match [`Self::quantize`], and the delta is
    /// `centroid(new) - centroid(old)` in f32 — two rounded products, then a
    /// subtract — at either level, so which indices are reported and what
    /// they carry never depend on it.
    ///
    /// # Panics
    ///
    /// Panics when `xs` and `prev` have different lengths.
    pub fn diff_codes(&self, xs: &[f32], prev: &mut [QuantCode], changed: &mut Vec<(u32, f32)>) {
        match reuse_tensor::simd::level() {
            #[cfg(target_arch = "x86_64")]
            reuse_tensor::SimdLevel::Avx2 => self.diff_codes_avx2(xs, prev, changed),
            _ => self.diff_codes_scalar(xs, prev, changed),
        }
    }

    /// [`Self::diff_codes`] under the signature the repository benchmark
    /// calls; `_scratch` is untouched (the pass no longer stages the fresh
    /// codes anywhere).
    ///
    /// # Panics
    ///
    /// Panics when `xs` and `prev` have different lengths.
    pub fn diff_codes_into(
        &self,
        xs: &[f32],
        prev: &mut [QuantCode],
        _scratch: &mut Vec<QuantCode>,
        changed: &mut Vec<(u32, f32)>,
    ) {
        self.diff_codes(xs, prev, changed);
    }

    /// The scalar body of [`Self::diff_codes`], exposed (doc-hidden) as the
    /// oracle for the SIMD==scalar equivalence suites.
    #[doc(hidden)]
    pub fn diff_codes_scalar(
        &self,
        xs: &[f32],
        prev: &mut [QuantCode],
        changed: &mut Vec<(u32, f32)>,
    ) {
        assert_eq!(xs.len(), prev.len(), "diff_codes buffer length mismatch");
        changed.clear();
        self.diff_codes_scalar_from(0, xs, prev, changed);
    }

    /// The scalar walk over inputs `first..`, appending to `changed`: all of
    /// the scalar pass, and the last `len % 8` inputs of the AVX2 one.
    pub(crate) fn diff_codes_scalar_from(
        &self,
        first: usize,
        xs: &[f32],
        prev: &mut [QuantCode],
        changed: &mut Vec<(u32, f32)>,
    ) {
        for (i, (&x, old)) in xs.iter().zip(prev.iter_mut()).enumerate().skip(first) {
            let new = self.quantize(x);
            if new != *old {
                let delta = self.centroid(new) - self.centroid(*old);
                changed.push((i as u32, delta));
                *old = new;
            }
        }
    }

    /// The AVX2 body of [`Self::diff_codes`], exposed (doc-hidden) so
    /// equivalence suites can pin it against the scalar oracle even when
    /// `REUSE_SIMD=off`. Panics when AVX2+FMA is unavailable.
    #[doc(hidden)]
    #[cfg(target_arch = "x86_64")]
    pub fn diff_codes_avx2(
        &self,
        xs: &[f32],
        prev: &mut [QuantCode],
        changed: &mut Vec<(u32, f32)>,
    ) {
        crate::simd::diff_codes(self, xs, prev, changed);
    }

    /// Quantized values (centroids) of a slice, through the dispatched
    /// [`Self::quantize_slice_into`] pass: a conv state's first execution
    /// runs on these, and one scalar [`Self::quantized_value`] per input
    /// cost AutoPilot-small's state-initialising frame a quarter of its time.
    pub fn quantized_values(&self, xs: &[f32]) -> Vec<f32> {
        let codes = self.quantize_slice(xs);
        codes.iter().map(|&c| self.centroid(c)).collect()
    }

    /// Size in bytes of the centroid table this quantizer needs in the
    /// accelerator's Control Unit (one f32 per cluster).
    pub fn centroid_table_bytes(&self) -> usize {
        self.clusters * 4
    }

    /// Maximum absolute quantization error for in-range inputs: half a step.
    pub fn max_error(&self) -> f32 {
        self.step / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q16() -> LinearQuantizer {
        LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap()
    }

    #[test]
    fn step_is_range_over_clusters() {
        let q = q16();
        assert!((q.step() - 2.0 / 16.0).abs() < 1e-7);
        assert_eq!(q.clusters(), 16);
    }

    #[test]
    fn eq9_round_times_step() {
        let q = q16();
        for &x in &[0.0f32, 0.07, -0.3, 0.99, -1.0, 0.51] {
            let expect = (x / q.step()).round() * q.step();
            assert!((q.quantized_value(x) - expect).abs() < 1e-6, "x={x}");
        }
    }

    #[test]
    fn error_bounded_by_half_step() {
        let q = q16();
        for i in -100..=100 {
            let x = i as f32 / 100.0;
            assert!((q.quantized_value(x) - x).abs() <= q.max_error() + 1e-6);
        }
    }

    #[test]
    fn idempotent() {
        let q = q16();
        for i in -20..=20 {
            let x = i as f32 / 7.0;
            let once = q.quantized_value(x);
            assert_eq!(q.quantize(once), q.quantize(x));
            assert_eq!(q.quantized_value(once), once);
        }
    }

    #[test]
    fn out_of_range_clamps_to_edge_codes() {
        let q = q16();
        assert_eq!(q.quantize(100.0), q.quantize(1.0));
        assert_eq!(q.quantize(-100.0), q.quantize(-1.0));
    }

    #[test]
    fn code_equality_tracks_closeness() {
        let q = q16();
        // Two values within the same cluster share a code...
        assert_eq!(q.quantize(0.50), q.quantize(0.51));
        // ...two values a full step apart never do.
        assert_ne!(q.quantize(0.0), q.quantize(q.step() * 1.01));
    }

    #[test]
    fn fewer_clusters_coarser_codes() {
        let q8 = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 8).unwrap();
        let q32 = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 32).unwrap();
        // Values that q32 distinguishes may collide under q8.
        let (a, b) = (0.01f32, 0.07f32);
        assert_eq!(q8.quantize(a), q8.quantize(b));
        assert_ne!(q32.quantize(a), q32.quantize(b));
    }

    #[test]
    fn asymmetric_range() {
        let q = LinearQuantizer::new(InputRange::new(0.0, 6.0), 12).unwrap();
        assert!((q.step() - 0.5).abs() < 1e-7);
        assert_eq!(q.quantize(0.0), QuantCode(0));
        assert_eq!(q.quantize(6.0), QuantCode(12));
        assert!((q.quantized_value(2.74) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn slice_helpers_match_scalar() {
        let q = q16();
        let xs = [0.1f32, -0.9, 0.33];
        let codes = q.quantize_slice(&xs);
        let vals = q.quantized_values(&xs);
        for i in 0..3 {
            assert_eq!(codes[i], q.quantize(xs[i]));
            assert_eq!(vals[i], q.quantized_value(xs[i]));
        }
    }

    #[test]
    fn construction_errors() {
        assert!(LinearQuantizer::new(InputRange::new(-1.0, 1.0), 1).is_err());
        assert!(LinearQuantizer::new(InputRange::new(1.0, 1.0), 16).is_err());
    }

    #[test]
    fn table_bytes() {
        assert_eq!(q16().centroid_table_bytes(), 64);
    }

    #[test]
    fn range_edges_map_to_edge_codes_exactly() {
        // Ranges whose step does not subdivide them evenly in f32: the old
        // independent rounding of `max / step` could disagree with
        // `code_min + clusters` by one here.
        let cases = [
            (-1.0f32, 1.0f32, 16usize),
            (0.0, 6.0, 12),
            (0.05, 1.0, 10),
            (-0.3, 0.7, 3),
            (1e-3, 7e-3, 5),
            (-123.4, 567.8, 31),
        ];
        for (lo, hi, clusters) in cases {
            let q = LinearQuantizer::new(InputRange::new(lo, hi), clusters).unwrap();
            assert_eq!(
                q.quantize(lo),
                QuantCode(q.code_min()),
                "min of [{lo},{hi}]"
            );
            assert_eq!(
                q.quantize(hi),
                QuantCode(q.code_max()),
                "max of [{lo},{hi}]"
            );
            assert_eq!(
                q.code_max() - q.code_min(),
                clusters as i32,
                "code span of [{lo},{hi}]"
            );
        }
    }

    #[test]
    fn with_step_matches_new_for_the_derived_step() {
        // Same grid when the explicit step equals width / clusters: codes
        // agree everywhere, so a scale-1.0 rebuild cannot change reuse
        // behavior.
        let range = InputRange::new(-1.0, 1.0);
        let by_clusters = LinearQuantizer::new(range, 16).unwrap();
        let by_step = LinearQuantizer::with_step(range, range.width() / 16.0).unwrap();
        assert_eq!(by_step.clusters(), 16);
        assert_eq!(by_step.code_min(), by_clusters.code_min());
        assert_eq!(by_step.code_max(), by_clusters.code_max());
        for i in -40..=40 {
            let x = i as f32 / 20.0;
            assert_eq!(by_step.quantize(x), by_clusters.quantize(x), "x={x}");
        }
    }

    #[test]
    fn with_step_coarser_grid_merges_codes_and_pins_edges() {
        let range = InputRange::new(-1.0, 1.0);
        let fine = LinearQuantizer::new(range, 16).unwrap();
        let coarse = LinearQuantizer::with_step(range, fine.step() * 4.0).unwrap();
        assert_eq!(coarse.clusters(), 4);
        // Values that the fine grid distinguishes collide under the coarse
        // one.
        assert_ne!(fine.quantize(0.01), fine.quantize(0.2));
        assert_eq!(coarse.quantize(0.01), coarse.quantize(0.2));
        // Edge pinning survives an uneven step.
        let uneven = LinearQuantizer::with_step(InputRange::new(0.05, 1.0), 0.3).unwrap();
        assert_eq!(uneven.quantize(0.05), QuantCode(uneven.code_min()));
        assert_eq!(uneven.quantize(1.0), QuantCode(uneven.code_max()));
        assert_eq!(
            uneven.code_max() - uneven.code_min(),
            uneven.clusters() as i32
        );
    }

    #[test]
    fn with_step_rejects_degenerate_steps() {
        let range = InputRange::new(-1.0, 1.0);
        assert!(LinearQuantizer::with_step(range, 0.0).is_err());
        assert!(LinearQuantizer::with_step(range, -0.5).is_err());
        assert!(LinearQuantizer::with_step(range, f32::NAN).is_err());
        assert!(LinearQuantizer::with_step(range, f32::INFINITY).is_err());
        assert!(LinearQuantizer::with_step(InputRange::new(1.0, 1.0), 0.1).is_err());
        // A step wider than the range still yields one giant cluster.
        let giant = LinearQuantizer::with_step(range, 10.0).unwrap();
        assert_eq!(giant.clusters(), 1);
        assert_eq!(giant.quantize(-0.99), giant.quantize(0.99));
    }

    #[test]
    fn nan_maps_to_bottom_code() {
        let q = q16();
        assert_eq!(q.quantize(f32::NAN), QuantCode(q.code_min()));
    }
}
