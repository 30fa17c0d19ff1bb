//! AVX2 kernels for the quantize and change-detection hot paths.
//!
//! Unlike the FMA-fused tensor kernels, everything here is **bit-exact**:
//! the vector quantizer reproduces `LinearQuantizer::quantize` — including
//! `f32::round`'s round-half-away-from-zero semantics, the range-edge
//! pinning, and the NaN guard — lane for lane, so quantized codes (and
//! therefore reuse hit rates and changed-input statistics) never depend on
//! the active SIMD level.
//!
//! Change detection is **one pass** (`diff_codes`): quantize eight inputs,
//! compare with the eight buffered codes, overwrite them, and compact the
//! changed lanes' indices and centroid deltas onto the changed list with one
//! lookup in `reuse_tensor::simd::LEFT_PACK` — the 256-entry table of
//! `_mm256_permutevar8x32_*` selectors that moves a mask's flagged lanes to
//! the front. A group costs the same whether none or all of its lanes
//! changed, so the pass has no data-dependent branch to mispredict.
//!
//! Round-half-away is emulated on top of the hardware's round-to-nearest-
//! even: ties are detected by comparing `t - round(t)` against `±0.5` and
//! bumped one unit away from zero. The subtraction is exact — for
//! `|t| >= 0.5` the rounded value is within a factor of two of `t`
//! (Sterbenz's lemma), for `|t| < 0.5` the rounded value is zero, and for
//! `|t| >= 2^23` `t` is already integral so no tie can occur.

use core::arch::x86_64::{
    __m256, __m256i, _mm256_add_epi32, _mm256_add_ps, _mm256_and_ps, _mm256_blendv_epi8,
    _mm256_castps_si256, _mm256_castsi256_ps, _mm256_cmp_ps, _mm256_cmpeq_epi32,
    _mm256_cvtepi32_ps, _mm256_cvttps_epi32, _mm256_div_ps, _mm256_load_si256, _mm256_loadu_ps,
    _mm256_loadu_si256, _mm256_max_epi32, _mm256_min_epi32, _mm256_movemask_ps, _mm256_mul_ps,
    _mm256_or_ps, _mm256_permutevar8x32_epi32, _mm256_permutevar8x32_ps, _mm256_round_ps,
    _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32, _mm256_storeu_ps, _mm256_storeu_si256,
    _mm256_sub_ps, _CMP_EQ_OQ, _CMP_GE_OQ, _CMP_NGT_UQ, _MM_FROUND_NO_EXC,
    _MM_FROUND_TO_NEAREST_INT,
};

use reuse_tensor::simd::LEFT_PACK;

use crate::{LinearQuantizer, QuantCode};

/// The quantizer's constants, broadcast once per kernel call.
struct Lanes {
    step: __m256,
    min: __m256,
    max: __m256,
    code_min: __m256i,
    code_max: __m256i,
}

impl Lanes {
    #[target_feature(enable = "avx2")]
    unsafe fn of(q: &LinearQuantizer) -> Self {
        Lanes {
            step: _mm256_set1_ps(q.step()),
            min: _mm256_set1_ps(q.range().min()),
            max: _mm256_set1_ps(q.range().max()),
            code_min: _mm256_set1_epi32(q.code_min()),
            code_max: _mm256_set1_epi32(q.code_max()),
        }
    }

    /// Eight lanes of [`LinearQuantizer::quantize`], bit for bit.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quantize(&self, x: __m256) -> __m256i {
        let sign_mask = _mm256_set1_ps(-0.0);
        let t = _mm256_div_ps(x, self.step);
        // Round half away from zero: nearest-even, then bump exact ties.
        let y = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(t);
        let sign = _mm256_and_ps(t, sign_mask);
        let half = _mm256_or_ps(_mm256_set1_ps(0.5), sign);
        let tie = _mm256_cmp_ps::<_CMP_EQ_OQ>(_mm256_sub_ps(t, y), half);
        let one = _mm256_or_ps(_mm256_set1_ps(1.0), sign);
        let r = _mm256_add_ps(y, _mm256_and_ps(tie, one));
        // `r` is integral and bounded by ~`code_max ± 1` for every lane the
        // edge blends below don't overwrite, so the truncating conversion
        // never saturates where its result is used.
        let mut code = _mm256_cvttps_epi32(r);
        code = _mm256_max_epi32(code, self.code_min);
        code = _mm256_min_epi32(code, self.code_max);
        // Edge pinning in the scalar guard order: `x >= max` wins over the
        // rounded code; NaN or `x <= min` maps to the bottom code. The two
        // masks are disjoint (`max > min`; NaN fails the ordered compare).
        let ge_max = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GE_OQ>(x, self.max));
        code = _mm256_blendv_epi8(code, self.code_max, ge_max);
        let le_min = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_NGT_UQ>(x, self.min));
        _mm256_blendv_epi8(code, self.code_min, le_min)
    }
}

/// Quantizes `xs` into `out` (already sized to `xs.len()`) with the AVX2
/// kernel. Caller must have checked [`reuse_tensor::simd::avx2::available`].
pub(crate) fn quantize_slice(q: &LinearQuantizer, xs: &[f32], out: &mut [QuantCode]) {
    reuse_tensor::simd::avx2::require();
    assert_eq!(xs.len(), out.len(), "quantize_slice buffer length mismatch");
    // SAFETY: AVX2 availability was just asserted.
    unsafe { quantize_slice_impl(q, xs, out) }
}

#[target_feature(enable = "avx2,fma")]
unsafe fn quantize_slice_impl(q: &LinearQuantizer, xs: &[f32], out: &mut [QuantCode]) {
    let n = xs.len();
    // SAFETY: the caller checked the host runs AVX2 code.
    let lanes = unsafe { Lanes::of(q) };
    // SAFETY: `QuantCode` is `#[repr(transparent)]` over `i32`.
    let optr = out.as_mut_ptr().cast::<i32>();
    let mut i = 0usize;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n bounds every lane of the unaligned load/store;
        // the lane type matches `repr(i32)`.
        unsafe {
            let code = lanes.quantize(_mm256_loadu_ps(xs.as_ptr().add(i)));
            _mm256_storeu_si256(optr.add(i).cast::<__m256i>(), code);
        }
        i += 8;
    }
    for j in i..n {
        out[j] = q.quantize(xs[j]);
    }
}

/// The one-pass change detection of [`LinearQuantizer::diff_codes`]:
/// quantizes eight inputs, compares them with the eight previous codes,
/// stores the new codes over the old and left-packs the changed lanes'
/// `(index, centroid(new) − centroid(old))` onto `changed` — no intermediate
/// code vector, no second walk, and no branch on how many lanes changed (a
/// group with none advances the list by zero). The delta is two rounded
/// products then a subtract, never fused: exactly the scalar walk's
/// arithmetic. Caller must have checked
/// [`reuse_tensor::simd::avx2::available`].
pub(crate) fn diff_codes(
    q: &LinearQuantizer,
    xs: &[f32],
    prev: &mut [QuantCode],
    changed: &mut Vec<(u32, f32)>,
) {
    reuse_tensor::simd::avx2::require();
    assert_eq!(xs.len(), prev.len(), "diff_codes buffer length mismatch");
    assert!(
        u32::try_from(xs.len()).is_ok(),
        "changed indices are u32: {} inputs",
        xs.len()
    );
    changed.clear();
    // Every group of eight writes eight slots from the list's end and keeps
    // only the changed ones: with `i` inputs seen the list is at most `i`
    // long, so room for `xs.len()` entries covers the last group's spill.
    changed.reserve(xs.len());
    // SAFETY: AVX2 availability was just asserted; the lengths agree and
    // `changed` has room for `xs.len()` entries.
    unsafe { diff_codes_impl(q, xs, prev, changed) }
}

#[target_feature(enable = "avx2,fma,popcnt")]
unsafe fn diff_codes_impl(
    q: &LinearQuantizer,
    xs: &[f32],
    prev: &mut [QuantCode],
    changed: &mut Vec<(u32, f32)>,
) {
    let n = xs.len();
    // SAFETY: the caller checked the host runs AVX2 code.
    let lanes = unsafe { Lanes::of(q) };
    // SAFETY: `QuantCode` is `#[repr(transparent)]` over `i32`.
    let pp = prev.as_mut_ptr().cast::<i32>();
    let out = changed.as_mut_ptr();
    let mut len = 0usize;
    let mut index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let eight = _mm256_set1_epi32(8);
    let (mut at, mut delta) = ([0u32; 8], [0f32; 8]);
    let mut i = 0usize;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n bounds the loads and the store of the codes;
        // `len <= i`, so the eight slots from `len` lie inside the capacity
        // of at least `n` the caller reserved.
        unsafe {
            let new = lanes.quantize(_mm256_loadu_ps(xs.as_ptr().add(i)));
            let old = _mm256_loadu_si256(pp.add(i).cast());
            _mm256_storeu_si256(pp.add(i).cast(), new);
            let same = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(new, old)));
            let m = !same as usize & 0xff;
            let d = _mm256_sub_ps(
                _mm256_mul_ps(_mm256_cvtepi32_ps(new), lanes.step),
                _mm256_mul_ps(_mm256_cvtepi32_ps(old), lanes.step),
            );
            let pack = _mm256_load_si256(LEFT_PACK.0[m].as_ptr().cast());
            _mm256_storeu_si256(
                at.as_mut_ptr().cast(),
                _mm256_permutevar8x32_epi32(index, pack),
            );
            _mm256_storeu_ps(delta.as_mut_ptr(), _mm256_permutevar8x32_ps(d, pack));
            // `(u32, f32)` has no guaranteed layout: the pairs are written
            // as pairs, not as vectors.
            for l in 0..8 {
                out.add(len + l).write((at[l], delta[l]));
            }
            len += m.count_ones() as usize;
        }
        index = _mm256_add_epi32(index, eight);
        i += 8;
    }
    // SAFETY: the first `len <= i` slots were written above.
    unsafe { changed.set_len(len) };
    q.diff_codes_scalar_from(i, xs, prev, changed);
}
