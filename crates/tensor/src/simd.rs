//! Runtime-dispatched SIMD kernels for the forward and correction hot paths.
//!
//! Every hot kernel in this crate exists in two implementations:
//!
//! * a **scalar** path — portable cache-blocked loops, the fallback on hosts
//!   without AVX2 and the body the naive serial oracles (`matmul_naive`,
//!   `conv_forward_naive`, the scattered correction walk) are checked
//!   against;
//! * an **AVX2+FMA** path — explicit `std::arch` intrinsics that widen each
//!   loop to 256-bit lanes. This is the production path.
//!
//! The active path is resolved **once per process** by [`level`] (a
//! [`OnceLock`]): AVX2+FMA when the host supports both, scalar otherwise.
//! The environment variable `REUSE_SIMD` overrides detection and accepts a
//! closed set of values (anything else panics at first use, naming them):
//!
//! * `REUSE_SIMD=off` (or `scalar`, or `0`) — force the scalar path
//!   everywhere;
//! * `REUSE_SIMD=avx2` — request the AVX2 path (falls back to scalar when
//!   the host lacks AVX2/FMA, so test scripts stay portable).
//!
//! # Accumulation contract
//!
//! Every multiply-accumulate in the tree is **fused** (one rounding per
//! step), every output element is **one chain** of them in ascending term
//! order from the value the output enters with, and **no kernel skips a
//! term on its data**: a `0.0` input is multiplied like any other. That
//! holds for the AVX2 vector lanes, for their scalar tails, for the scalar
//! level's bodies and for the naive oracles — the latter three all spell the
//! step [`f32::mul_add`] — so dispatch decides how many outputs advance per
//! instruction and nothing else: AVX2, scalar and naive produce the **same
//! bits**, and the tests compare `to_bits()` ([`kernel_mismatch`]). Where
//! the build has no compile-time FMA `mul_add` is an out-of-line call to a
//! correctly rounded `fmaf` per step: the scalar level is an oracle and a
//! fallback, not a production path.
//!
//! One consequence is pinned rather than left to the level: `fma(0, w, −0.0)`
//! is `+0.0` or `−0.0` by the sign of `w`, so a `−0.0` bias under an
//! all-zero input keeps or loses its sign the same way in every body. Row
//! filters *outside* the kernels — the LSTM from-scratch walks that pass
//! only nonzero `h` (or `x`) rows to [`row_axpy`] and
//! `apply_deltas_rows` — choose which terms a chain has, identically at every
//! level, and stay.
//!
//! Quantization (`reuse-quant`) emulates `f32::round` exactly in its AVX2
//! kernel, so quantized codes — and hence changed-input sets, reuse hit
//! rates, and MAC counts — are level-independent too.
//!
//! So are the nonlinearities. [`sigmoid`] and [`tanh`] are defined here, once,
//! as polynomial kernels that never fuse a multiply with an add, and their
//! slice forms ([`sigmoid_slice`], [`tanh_slice`], [`lstm_gate_update`]) are
//! that same code compiled for 256-bit registers: the level decides how many
//! lanes run at once and nothing else. No hot path calls the host's libm.

use std::sync::OnceLock;

/// The SIMD instruction level the kernels dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar loops: the fallback, and the oracles' reference body.
    Scalar,
    /// 256-bit AVX2 lanes with fused multiply-add (x86-64 only).
    Avx2,
}

impl SimdLevel {
    /// Short stable name for logs and benchmark provenance
    /// (`"scalar"` / `"avx2+fma"`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2+fma",
        }
    }
}

static LEVEL: OnceLock<SimdLevel> = OnceLock::new();

/// The level a `REUSE_SIMD` value asks for: `None` when unset (detect),
/// the scalar level for `off` / `scalar` / `0`, AVX2 for `avx2`.
///
/// # Errors
///
/// Any other value is a usage error whose message lists the accepted ones:
/// a mistyped override must not silently run the detected level.
fn parse_level(value: Option<&str>) -> Result<Option<SimdLevel>, String> {
    match value {
        None => Ok(None),
        Some("off" | "scalar" | "0") => Ok(Some(SimdLevel::Scalar)),
        Some("avx2") => Ok(Some(SimdLevel::Avx2)),
        Some(other) => Err(format!(
            "REUSE_SIMD={other:?} is not a SIMD level: accepted values are \
             `off`, `scalar`, `0` (force the scalar kernels) and `avx2`; unset detects"
        )),
    }
}

/// The active kernel level, resolved once per process: the detected level
/// unless `REUSE_SIMD` overrides it (see the module docs).
///
/// # Panics
///
/// Panics at first use when `REUSE_SIMD` holds a value outside its closed
/// set.
pub fn level() -> SimdLevel {
    *LEVEL.get_or_init(|| {
        let requested = std::env::var_os("REUSE_SIMD").map(|v| v.to_string_lossy().into_owned());
        match parse_level(requested.as_deref()) {
            Ok(Some(SimdLevel::Scalar)) => SimdLevel::Scalar,
            // An explicit fast-path request still honors the hardware check so
            // forced-env test runs stay portable to scalar-only hosts.
            Ok(_) => detected(),
            Err(usage) => panic!("{usage}"),
        }
    })
}

/// The best level the host supports, ignoring the `REUSE_SIMD` override.
/// Recorded in benchmark provenance alongside the active level.
pub fn detected() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    if avx2::available() {
        return SimdLevel::Avx2;
    }
    SimdLevel::Scalar
}

/// Kernel-vs-oracle comparison: `None` when `actual` and `oracle` hold the
/// same bits (the contract at every level, see the module docs), or a
/// description of the first element that differs.
pub fn kernel_mismatch(actual: &[f32], oracle: &[f32]) -> Option<String> {
    if actual.len() != oracle.len() {
        return Some(format!(
            "length mismatch: actual {} vs oracle {}",
            actual.len(),
            oracle.len()
        ));
    }
    let first = (actual.iter().zip(oracle)).position(|(a, o)| a.to_bits() != o.to_bits())?;
    let (a, o) = (actual[first], oracle[first]);
    Some(format!(
        "[{first}] actual {a:e} vs oracle {o:e} (|Δ| {:e}, level {})",
        (a - o).abs(),
        level().name()
    ))
}

/// The left-pack permutation table: entry `m` lists the positions of the set
/// bits of the 8-bit mask `m` in ascending order (zeros after them), as the
/// lane selector of `_mm256_permutevar8x32_*`. Compacting the flagged lanes
/// of a vector is then one table load and one permute, with no branch on how
/// many are flagged. Shared by the one-pass change detection in
/// `reuse-quant` and the output-stationary conv correction
/// ([`crate::PackedPanels::gather_axpy`]); 8 KiB, 32-byte aligned so an entry
/// never straddles a cache line.
#[derive(Debug)]
#[repr(C, align(32))]
pub struct LeftPack(pub [[u32; 8]; 256]);

/// See [`LeftPack`].
pub static LEFT_PACK: LeftPack = {
    let mut table = [[0u32; 8]; 256];
    let mut m = 0;
    while m < 256 {
        let (mut lane, mut packed) = (0u32, 0);
        while lane < 8 {
            if m >> lane & 1 == 1 {
                table[m][packed] = lane;
                packed += 1;
            }
            lane += 1;
        }
        m += 1;
    }
    LeftPack(table)
};

/// `dst[j] += scale · row[j]`, dispatched on [`level`].
///
/// One fused step per element at either level (`mul_add` here, a vector
/// FMA with `mul_add` tails under AVX2): the same bits. Used by the LSTM
/// from-scratch gate accumulation, whose caller passes only rows with a
/// nonzero `scale` — a filter outside the kernel, the same at both levels.
///
/// # Panics
///
/// Panics when `dst` and `row` differ in length.
pub fn row_axpy(dst: &mut [f32], row: &[f32], scale: f32) {
    assert_eq!(dst.len(), row.len(), "row_axpy operand lengths");
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => avx2::row_axpy(dst, row, scale),
        _ => {
            for (d, &r) in dst.iter_mut().zip(row.iter()) {
                *d = scale.mul_add(r, *d);
            }
        }
    }
}

/// `e^r − 1 − r` over `r²` on `|r| ≤ ln 2 / 2`, highest degree first: the
/// minimax coefficients of Cephes `expf` (theoretical peak relative error
/// 4.2e-9 on the interval), digits as published.
#[allow(clippy::excessive_precision)]
const EXP_POLY: [f32; 6] = [
    1.987_569_15e-4,
    1.398_199_95e-3,
    8.333_451_91e-3,
    4.166_579_59e-2,
    1.666_666_55e-1,
    5.000_000_12e-1,
];

/// `tanh(a) / a − 1` over `a²` on `a < 0.625`, highest degree first (Cephes
/// `tanhf`), digits as published.
#[allow(clippy::excessive_precision)]
const TANH_POLY: [f32; 5] = [
    -5.704_988_73e-3,
    2.063_908_88e-2,
    -5.373_971_55e-2,
    1.333_144_22e-1,
    -3.333_328_19e-1,
];

/// `1.5 · 2²³`: added to a float below `2²²` in magnitude it leaves that
/// float, rounded to the nearest integer, in the low mantissa bits of the
/// sum — a rounding and a float-to-int conversion out of one add.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// `ln 2` split so that `n · LN2_HI` is exact for every `|n| ≤ 128`.
const LN2_HI: f32 = 355.0 / 512.0;
const LN2_LO: f32 = -2.121_944_4e-4;

/// `exp` clamps its argument here from below (`ln 2⁻¹²⁶`: the scale factor
/// stays a normal number) and overflows to `+∞` above [`EXP_HI`], the
/// largest argument whose scale factor `2¹²⁷` is still finite. Both callers
/// add the result to 1, where anything below `2⁻²⁵` vanishes and anything
/// above `2²⁵` gives the same quotient as `+∞` to within `10⁻³⁸`.
const EXP_LO: f32 = -87.336_54;
const EXP_HI: f32 = 88.376_26;

/// `e^x` for the two functions below: Cody–Waite reduction `x = n·ln 2 + r`,
/// the Cephes polynomial on `r`, `2ⁿ` built in the exponent field. Multiply
/// and add only — never fused — plus selects and integer bit operations, so
/// every SIMD width computes the same bits. NaN propagates (the clamp is a
/// select that keeps it).
#[inline(always)]
fn exp(x: f32) -> f32 {
    let v = if x < EXP_LO { EXP_LO } else { x };
    let shifted = v * core::f32::consts::LOG2_E + ROUND_MAGIC;
    let n = shifted - ROUND_MAGIC;
    let r = (v - n * LN2_HI) - n * LN2_LO;
    let [c5, c4, c3, c2, c1, c0] = EXP_POLY;
    let poly = ((((c5 * r + c4) * r + c3) * r + c2) * r + c1) * r + c0;
    let mantissa = poly * (r * r) + r + 1.0;
    // `shifted`'s low mantissa bits hold `n` in two's complement.
    let n = (shifted.to_bits() as i32).wrapping_sub(ROUND_MAGIC.to_bits() as i32);
    let scale = f32::from_bits((n.wrapping_add(127) << 23) as u32);
    if v > EXP_HI {
        f32::INFINITY
    } else {
        mantissa * scale
    }
}

/// The logistic function `σ(x) = 1 / (1 + e⁻ˣ)` — the one definition every
/// path of the workspace evaluates (fp32 reference, reuse-off twin and reuse
/// path alike), in place of the host's libm.
///
/// Within `2e-7` of the exact value everywhere, always inside `[0, 1]`,
/// `σ(0) = 0.5`, `σ(−∞) = 0`, `σ(+∞) = 1`, NaN for NaN. Built from
/// multiplies, adds, one divide, selects and integer bit operations, none
/// fused: the result is the same bit pattern whether the compiler runs it
/// one lane at a time or eight ([`sigmoid_slice`]), on any host.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// The hyperbolic tangent `φ(x)`, under the same contract as [`sigmoid`]:
/// within `2e-7` of the exact value, `φ(−x) = −φ(x)` bit for bit (the sign
/// is masked off and put back), exactly `±1` from `|x| ≈ 9` on and at `±∞`,
/// `±0` for `±0`, NaN for NaN. Cephes `tanhf`: an odd polynomial below
/// `0.625`, `1 − 2 / (e²ˣ + 1)` above, both evaluated and one selected.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let sign = x.to_bits() & 0x8000_0000;
    let a = f32::from_bits(x.to_bits() & 0x7fff_ffff);
    let z = a * a;
    let [t4, t3, t2, t1, t0] = TANH_POLY;
    let small = ((((t4 * z + t3) * z + t2) * z + t1) * z + t0) * z * a + a;
    let big = 1.0 - 2.0 / (exp(2.0 * a) + 1.0);
    let magnitude = if a < 0.625 { small } else { big };
    f32::from_bits(magnitude.to_bits() | sign)
}

/// `v ← σ(v)` over a slice, dispatched on [`level`]; both levels produce
/// [`sigmoid`]'s bits.
pub fn sigmoid_slice(values: &mut [f32]) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => avx2::sigmoid_slice(values),
        _ => values.iter_mut().for_each(|v| *v = sigmoid(*v)),
    }
}

/// `v ← φ(v)` over a slice, dispatched on [`level`]; both levels produce
/// [`tanh`]'s bits.
pub fn tanh_slice(values: &mut [f32]) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => avx2::tanh_slice(values),
        _ => values.iter_mut().for_each(|v| *v = tanh(*v)),
    }
}

/// The LSTM cell update (paper Eqs. 3–8) over all units of a cell, from the
/// four gates' linear pre-activations `pre = [i | f | g | o]`, each
/// `c.len()` long:
///
/// ```text
/// c[j] ← σ(f[j])·c[j] + σ(i[j])·φ(g[j])        h[j] ← σ(o[j])·φ(c[j])
/// ```
///
/// One fused pass — five [`sigmoid`]/[`tanh`] evaluations per unit with no
/// intermediate buffer — dispatched on [`level`] and bit-identical at both
/// (products and the sum are separate roundings at either level; only a
/// NaN's payload, where two NaN operands meet, is the instruction's choice).
///
/// # Panics
///
/// Panics when `pre` is not four times as long as `c`, or `h` differs from
/// `c` in length.
pub fn lstm_gate_update(pre: &[f32], c: &mut [f32], h: &mut [f32]) {
    assert_eq!(pre.len(), 4 * c.len(), "four gates per cell unit");
    assert_eq!(h.len(), c.len(), "hidden vs cell state length");
    match level() {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => avx2::lstm_gate_update(pre, c, h),
        _ => lstm_gate_update_body(pre, c, h),
    }
}

/// The loop both levels of [`lstm_gate_update`] compile: as written for the
/// scalar level, and once more inside an AVX2 `target_feature` function,
/// where the compiler widens it to eight lanes.
#[inline(always)]
fn lstm_gate_update_body(pre: &[f32], c: &mut [f32], h: &mut [f32]) {
    let d = c.len();
    let (gi, rest) = pre.split_at(d);
    let (gf, rest) = rest.split_at(d);
    let (gg, go) = rest.split_at(d);
    // The callers checked the lengths; restating them here lets the compiler
    // drop every bounds check and widen the loop.
    for j in 0..d.min(h.len()).min(go.len()) {
        let cell = sigmoid(gf[j]) * c[j] + sigmoid(gi[j]) * tanh(gg[j]);
        c[j] = cell;
        h[j] = sigmoid(go[j]) * tanh(cell);
    }
}

/// AVX2+FMA kernel implementations (x86-64 only).
///
/// Every function is a safe wrapper that panics when the host lacks
/// AVX2/FMA; the dispatchers in `block`/`matmul`/`conv` only call them when
/// [`level`] resolved to [`SimdLevel::Avx2`], and the SIMD==scalar
/// equivalence suites gate on `is_x86_feature_detected!` before calling
/// them directly.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use core::arch::x86_64::*;

    use super::LEFT_PACK;
    use crate::block::{
        check_buckets, check_gather, PackedPanels, RowGrid, TapBucket, TapWindow, DELTA_BATCH,
        PANEL_WIDTH, TILE_LANES, TILE_PANELS,
    };

    // The kernels hand-unroll two 256-bit registers per panel row.
    const _: () = assert!(PANEL_WIDTH == 16);
    const _: () = assert!(TILE_PANELS == 4);
    const _: () = assert!(DELTA_BATCH == 4);

    /// Whether this host can run the AVX2+FMA kernels (the gather kernels
    /// also count lanes with `popcnt`, which every AVX2 part has).
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
            && std::arch::is_x86_feature_detected!("popcnt")
    }

    /// Asserts the host can run the AVX2+FMA kernels. Downstream crates
    /// (e.g. `reuse-quant`) call this before entering their own
    /// `target_feature` kernels.
    #[track_caller]
    pub fn require() {
        assert!(
            available(),
            "AVX2+FMA kernels called on an unsupported host"
        );
    }

    /// AVX2 walk over every output panel: the FC forward hot loop
    /// (`out[j] += Σ_i x[i]·w[i][j]`, `out` enters holding biases or partial
    /// sums). Four panels (eight 256-bit accumulators) in flight for full
    /// tiles, one panel for the remainder.
    ///
    /// # Panics
    ///
    /// Panics when the host lacks AVX2/FMA, when `x` is not `n_in` long or
    /// when `out` is longer than the panels hold lanes.
    pub fn fc_panels(packed: &PackedPanels, x: &[f32], out: &mut [f32]) {
        require();
        assert_eq!(x.len(), packed.n_in(), "fc_panels input vs weight rows");
        assert!(
            out.len() <= packed.n_panels() * PANEL_WIDTH,
            "fc_panels: {} outputs from {} panels",
            out.len(),
            packed.n_panels()
        );
        // SAFETY: `require` checked the host runs AVX2+FMA code. The kernels
        // read row `i` of a panel through a raw pointer for every `i <
        // x.len()`, which the first assert bounds by the panel's `n_in`
        // rows; the second keeps every `packed.panel(p)` a real panel.
        unsafe { fc_panels_impl(packed, x, out) }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn fc_panels_impl(packed: &PackedPanels, x: &[f32], out: &mut [f32]) {
        let mut p = 0;
        for seg in out.chunks_mut(TILE_LANES) {
            if seg.len() == TILE_LANES {
                unsafe {
                    tile4_kernel(
                        [
                            packed.panel(p),
                            packed.panel(p + 1),
                            packed.panel(p + 2),
                            packed.panel(p + 3),
                        ],
                        x,
                        seg,
                    );
                }
                p += TILE_PANELS;
            } else {
                for sub in seg.chunks_mut(PANEL_WIDTH) {
                    unsafe { panel_kernel(packed.panel(p), x, sub) };
                    p += 1;
                }
            }
        }
    }

    /// Four 16-lane panels accumulated together: eight independent FMA
    /// chains, enough to hide the 4-5 cycle FMA latency on one core.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn tile4_kernel(panels: [&[f32]; TILE_PANELS], x: &[f32], seg: &mut [f32]) {
        debug_assert_eq!(seg.len(), TILE_LANES);
        let sp = seg.as_mut_ptr();
        let mut acc = [_mm256_setzero_ps(); 8];
        for (h, a) in acc.iter_mut().enumerate() {
            *a = unsafe { _mm256_loadu_ps(sp.add(8 * h)) };
        }
        for (i, &xi) in x.iter().enumerate() {
            let xv = _mm256_set1_ps(xi);
            let base = i * PANEL_WIDTH;
            for (t, panel) in panels.iter().enumerate() {
                let wp = unsafe { panel.as_ptr().add(base) };
                let w0 = unsafe { _mm256_loadu_ps(wp) };
                let w1 = unsafe { _mm256_loadu_ps(wp.add(8)) };
                acc[2 * t] = _mm256_fmadd_ps(xv, w0, acc[2 * t]);
                acc[2 * t + 1] = _mm256_fmadd_ps(xv, w1, acc[2 * t + 1]);
            }
        }
        for (h, a) in acc.iter().enumerate() {
            unsafe { _mm256_storeu_ps(sp.add(8 * h), *a) };
        }
    }

    /// One 16-lane panel (two FMA chains) for tile remainders; `seg` may be
    /// a partial panel (the zero-padded tail lanes are computed in registers
    /// and discarded on store).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn panel_kernel(panel: &[f32], x: &[f32], seg: &mut [f32]) {
        debug_assert!(seg.len() <= PANEL_WIDTH);
        let mut buf = [0.0f32; PANEL_WIDTH];
        buf[..seg.len()].copy_from_slice(seg);
        let mut a0 = unsafe { _mm256_loadu_ps(buf.as_ptr()) };
        let mut a1 = unsafe { _mm256_loadu_ps(buf.as_ptr().add(8)) };
        for (i, &xi) in x.iter().enumerate() {
            let xv = _mm256_set1_ps(xi);
            let wp = unsafe { panel.as_ptr().add(i * PANEL_WIDTH) };
            a0 = _mm256_fmadd_ps(xv, unsafe { _mm256_loadu_ps(wp) }, a0);
            a1 = _mm256_fmadd_ps(xv, unsafe { _mm256_loadu_ps(wp.add(8)) }, a1);
        }
        unsafe {
            _mm256_storeu_ps(buf.as_mut_ptr(), a0);
            _mm256_storeu_ps(buf.as_mut_ptr().add(8), a1);
        }
        seg.copy_from_slice(&buf[..seg.len()]);
    }

    /// AVX2 matmul `C += A · B` against the packed `B`: panels **outer**,
    /// rows of `A` in register blocks of four, so each streamed panel row is
    /// reused by four broadcast FMAs (eight accumulators in flight — the
    /// compute-bound shape, ~6x the scalar blocked kernel on one core).
    ///
    /// `c` is the row-major `[m, n_out]` output and is accumulated onto: it
    /// enters holding each output's initial value (zero for a plain product,
    /// the bias for a convolution), which heads that output's chain. `a` is
    /// the row-major `[m, n_in]` matrix.
    ///
    /// # Panics
    ///
    /// Panics when the host lacks AVX2/FMA, or when `c` is not whole rows of
    /// `n_out` or `a` not as many rows of `n_in`.
    pub fn matmul_rows(packed: &PackedPanels, a: &[f32], c: &mut [f32]) {
        require();
        let (k, n) = (packed.n_in(), packed.n_out());
        assert!(n > 0 && c.len().is_multiple_of(n), "C is not rows of {n}");
        assert_eq!(a.len(), c.len() / n * k, "A rows vs C rows");
        // SAFETY: `require` checked the host runs AVX2+FMA code. `k` and `n`
        // are the panels' own dimensions, so row `i < k` of a panel and the
        // `min(n - col0, 16)` columns at `col0` of a `C` row exist; the
        // asserts make `c` exactly `rows` rows of `n` and `a` `rows` rows of
        // `k` (its row slices are bounds-checked besides).
        unsafe { matmul_rows_impl(packed, a, c) }
    }

    /// Panel-block working-set target. A block of panels (`panels × k × 16`
    /// floats) is kept within this budget so every 4-row pass re-reads it
    /// from L2 instead of re-streaming the whole `B` from L3 — for a
    /// 400×2000 `B` that cuts panel traffic from one full-matrix stream per
    /// row group to one per block. Purely a traversal-order change: each
    /// `C[r]` span is still produced by exactly one kernel call, so results
    /// are independent of the block size.
    const MATMUL_L2_BLOCK_BYTES: usize = 192 * 1024;

    #[target_feature(enable = "avx2,fma")]
    unsafe fn matmul_rows_impl(packed: &PackedPanels, a: &[f32], c: &mut [f32]) {
        let (k, n) = (packed.n_in(), packed.n_out());
        let rows = c.len() / n;
        let cp = c.as_mut_ptr();
        let n_panels = packed.n_panels();
        let panel_bytes = k * PANEL_WIDTH * core::mem::size_of::<f32>();
        let block = (MATMUL_L2_BLOCK_BYTES / panel_bytes.max(1)).max(1);
        let mut pb = 0;
        while pb < n_panels {
            let pend = (pb + block).min(n_panels);
            let mut r = 0;
            while r + 4 <= rows {
                let arows = [
                    &a[r * k..(r + 1) * k],
                    &a[(r + 1) * k..(r + 2) * k],
                    &a[(r + 2) * k..(r + 3) * k],
                    &a[(r + 3) * k..(r + 4) * k],
                ];
                for p in pb..pend {
                    let panel = packed.panel(p);
                    let col0 = p * PANEL_WIDTH;
                    let lanes = (n - col0).min(PANEL_WIDTH);
                    unsafe { rows4_kernel(panel, arows, cp.add(r * n + col0), n, lanes) };
                }
                r += 4;
            }
            while r < rows {
                let arow = &a[r * k..(r + 1) * k];
                for p in pb..pend {
                    let panel = packed.panel(p);
                    let col0 = p * PANEL_WIDTH;
                    let lanes = (n - col0).min(PANEL_WIDTH);
                    let crow =
                        unsafe { core::slice::from_raw_parts_mut(cp.add(r * n + col0), lanes) };
                    unsafe { panel_kernel(panel, arow, crow) };
                }
                r += 1;
            }
            pb = pend;
        }
    }

    /// Four `A` rows × one 16-lane panel: eight accumulators, two panel
    /// loads and four broadcasts per input — the register-blocked matmul
    /// microkernel. `c` points at `C[first_row + r][col0]`; rows are `n`
    /// apart; only `lanes` columns are loaded and stored. The accumulators
    /// start from what `C` holds, exactly like [`panel_kernel`]'s, so an
    /// output's value does not depend on whether its row fell in a group of
    /// four or in the remainder.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn rows4_kernel(panel: &[f32], arows: [&[f32]; 4], c: *mut f32, n: usize, lanes: usize) {
        let k = arows[0].len();
        let mut buf = [0.0f32; PANEL_WIDTH];
        let mut acc = [_mm256_setzero_ps(); 8];
        for r in 0..4 {
            // SAFETY: the caller passes `c` with `lanes` valid columns in
            // each of four rows `n` apart; a partial panel is staged through
            // `buf` so the 16-lane loads never read past a row's end.
            unsafe {
                let src = if lanes == PANEL_WIDTH {
                    c.add(r * n).cast_const()
                } else {
                    core::ptr::copy_nonoverlapping(c.add(r * n), buf.as_mut_ptr(), lanes);
                    buf.as_ptr()
                };
                acc[2 * r] = _mm256_loadu_ps(src);
                acc[2 * r + 1] = _mm256_loadu_ps(src.add(8));
            }
        }
        for i in 0..k {
            let wp = unsafe { panel.as_ptr().add(i * PANEL_WIDTH) };
            let w0 = unsafe { _mm256_loadu_ps(wp) };
            let w1 = unsafe { _mm256_loadu_ps(wp.add(8)) };
            for (r, arow) in arows.iter().enumerate() {
                let b = _mm256_set1_ps(unsafe { *arow.get_unchecked(i) });
                acc[2 * r] = _mm256_fmadd_ps(b, w0, acc[2 * r]);
                acc[2 * r + 1] = _mm256_fmadd_ps(b, w1, acc[2 * r + 1]);
            }
        }
        if lanes == PANEL_WIDTH {
            for r in 0..4 {
                unsafe {
                    _mm256_storeu_ps(c.add(r * n), acc[2 * r]);
                    _mm256_storeu_ps(c.add(r * n + 8), acc[2 * r + 1]);
                }
            }
        } else {
            for r in 0..4 {
                unsafe {
                    _mm256_storeu_ps(buf.as_mut_ptr(), acc[2 * r]);
                    _mm256_storeu_ps(buf.as_mut_ptr().add(8), acc[2 * r + 1]);
                    core::ptr::copy_nonoverlapping(buf.as_ptr(), c.add(r * n), lanes);
                }
            }
        }
    }

    /// AVX2 reuse-correction sweep over the buffered pre-activations:
    /// `z[j] += Σ_b Δ_b · w[i_b][j]` over rows `z.len()` wide, deltas applied
    /// in list order, [`DELTA_BATCH`] weight rows streamed per pass (paper
    /// Eq. 10). Tail outputs use `mul_add`, matching the vector lanes
    /// bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics when the host lacks AVX2/FMA or a delta's row lies outside `w`.
    pub fn apply_deltas(w: &[f32], deltas: &[(u32, f32)], z: &mut [f32]) {
        require();
        // SAFETY: `require` checked the host runs AVX2+FMA code; every row
        // pointer comes from a bounds-checked `z.len()`-long slice of `w`.
        unsafe { apply_deltas_impl(w, deltas, z) }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn apply_deltas_impl(w: &[f32], deltas: &[(u32, f32)], z: &mut [f32]) {
        let len = z.len();
        let zp = z.as_mut_ptr();
        let mut batches = deltas.chunks_exact(DELTA_BATCH);
        for batch in batches.by_ref() {
            let (i0, d0) = batch[0];
            let (i1, d1) = batch[1];
            let (i2, d2) = batch[2];
            let (i3, d3) = batch[3];
            let r0 = w[i0 as usize * len..][..len].as_ptr();
            let r1 = w[i1 as usize * len..][..len].as_ptr();
            let r2 = w[i2 as usize * len..][..len].as_ptr();
            let r3 = w[i3 as usize * len..][..len].as_ptr();
            let (v0, v1) = (_mm256_set1_ps(d0), _mm256_set1_ps(d1));
            let (v2, v3) = (_mm256_set1_ps(d2), _mm256_set1_ps(d3));
            let mut j = 0;
            while j + 8 <= len {
                unsafe {
                    let mut z = _mm256_loadu_ps(zp.add(j));
                    z = _mm256_fmadd_ps(v0, _mm256_loadu_ps(r0.add(j)), z);
                    z = _mm256_fmadd_ps(v1, _mm256_loadu_ps(r1.add(j)), z);
                    z = _mm256_fmadd_ps(v2, _mm256_loadu_ps(r2.add(j)), z);
                    z = _mm256_fmadd_ps(v3, _mm256_loadu_ps(r3.add(j)), z);
                    _mm256_storeu_ps(zp.add(j), z);
                }
                j += 8;
            }
            while j < len {
                unsafe {
                    let mut z = *zp.add(j);
                    z = d0.mul_add(*r0.add(j), z);
                    z = d1.mul_add(*r1.add(j), z);
                    z = d2.mul_add(*r2.add(j), z);
                    z = d3.mul_add(*r3.add(j), z);
                    *zp.add(j) = z;
                }
                j += 1;
            }
        }
        for &(i, delta) in batches.remainder() {
            let row = w[i as usize * len..][..len].as_ptr();
            let dv = _mm256_set1_ps(delta);
            let mut j = 0;
            while j + 8 <= len {
                unsafe {
                    let z = _mm256_fmadd_ps(
                        dv,
                        _mm256_loadu_ps(row.add(j)),
                        _mm256_loadu_ps(zp.add(j)),
                    );
                    _mm256_storeu_ps(zp.add(j), z);
                }
                j += 8;
            }
            while j < len {
                unsafe { *zp.add(j) = delta.mul_add(*row.add(j), *zp.add(j)) };
                j += 1;
            }
        }
    }

    /// `dst[j] += scale · row[j]` with fused vector steps and a `mul_add`
    /// tail (see [`super::row_axpy`]).
    ///
    /// # Panics
    ///
    /// Panics when the host lacks AVX2/FMA or `dst` and `row` differ in
    /// length.
    pub fn row_axpy(dst: &mut [f32], row: &[f32], scale: f32) {
        require();
        assert_eq!(dst.len(), row.len(), "row_axpy operand lengths");
        // SAFETY: `require` checked the host runs AVX2+FMA code; the assert
        // makes every `row` read at `j < dst.len()` in bounds.
        unsafe { row_axpy_impl(dst, row, scale) }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn row_axpy_impl(dst: &mut [f32], row: &[f32], scale: f32) {
        let len = dst.len();
        let dp = dst.as_mut_ptr();
        let rp = row.as_ptr();
        let sv = _mm256_set1_ps(scale);
        let mut j = 0;
        while j + 8 <= len {
            unsafe {
                let d = _mm256_fmadd_ps(sv, _mm256_loadu_ps(rp.add(j)), _mm256_loadu_ps(dp.add(j)));
                _mm256_storeu_ps(dp.add(j), d);
            }
            j += 8;
        }
        while j < len {
            unsafe { *dp.add(j) = scale.mul_add(*rp.add(j), *dp.add(j)) };
            j += 1;
        }
    }

    /// AVX2 body of [`super::sigmoid_slice`]: the scalar loop compiled with
    /// 256-bit registers available (and no FMA contraction — Rust never
    /// fuses a separate multiply and add), hence the scalar loop's bits.
    ///
    /// # Panics
    ///
    /// Panics when the host lacks AVX2.
    pub fn sigmoid_slice(values: &mut [f32]) {
        require();
        // SAFETY: `require` checked the host runs AVX2 code.
        unsafe { sigmoid_slice_impl(values) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn sigmoid_slice_impl(values: &mut [f32]) {
        values.iter_mut().for_each(|v| *v = super::sigmoid(*v));
    }

    /// AVX2 body of [`super::tanh_slice`]; see [`sigmoid_slice`].
    ///
    /// # Panics
    ///
    /// Panics when the host lacks AVX2.
    pub fn tanh_slice(values: &mut [f32]) {
        require();
        // SAFETY: `require` checked the host runs AVX2 code.
        unsafe { tanh_slice_impl(values) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn tanh_slice_impl(values: &mut [f32]) {
        values.iter_mut().for_each(|v| *v = super::tanh(*v));
    }

    /// AVX2 body of [`super::lstm_gate_update`]; see [`sigmoid_slice`].
    ///
    /// # Panics
    ///
    /// Panics when the host lacks AVX2, and where
    /// [`super::lstm_gate_update`] does.
    pub fn lstm_gate_update(pre: &[f32], c: &mut [f32], h: &mut [f32]) {
        require();
        assert_eq!(pre.len(), 4 * c.len(), "four gates per cell unit");
        assert_eq!(h.len(), c.len(), "hidden vs cell state length");
        // SAFETY: `require` checked the host runs AVX2 code.
        unsafe { lstm_gate_update_impl(pre, c, h) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn lstm_gate_update_impl(pre: &[f32], c: &mut [f32], h: &mut [f32]) {
        super::lstm_gate_update_body(pre, c, h);
    }

    /// AVX2 body of [`PackedPanels::axpy_row_grids`]: every step a fused
    /// 8-lane vector, the last `n_out % 8` lanes under a mask (masked-off
    /// lanes are neither loaded nor stored).
    ///
    /// # Panics
    ///
    /// Panics when the host lacks AVX2/FMA, when a grid reaches past `dst`
    /// or when a row index falls outside `0 .. n_in`.
    pub fn axpy_row_grids(
        packed: &PackedPanels,
        steps: [usize; 2],
        outer_stride: usize,
        grids: impl Iterator<Item = RowGrid>,
        dst: &mut [f32],
    ) {
        require();
        // SAFETY: `require` just checked the host runs AVX2+FMA code.
        unsafe { axpy_row_grids_impl(packed, steps, outer_stride, grids, dst) }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn axpy_row_grids_impl(
        packed: &PackedPanels,
        steps: [usize; 2],
        outer_stride: usize,
        grids: impl Iterator<Item = RowGrid>,
        dst: &mut [f32],
    ) {
        let n = packed.n_out();
        let panel_len = packed.n_in() * PANEL_WIDTH;
        let (wp, dp) = (packed.data().as_ptr(), dst.as_mut_ptr());
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32((n % 8) as i32), lane);
        for g in grids {
            let [c0, c1] = g.counts;
            if c0 == 0 || c1 == 0 {
                continue;
            }
            let span = (c0 - 1) * steps[0] + (c1 - 1) * steps[1];
            let reach = g.at + (c0 - 1) * outer_stride + c1 * n;
            assert!(
                span <= g.first_row && g.first_row < packed.n_in(),
                "weight row out of range"
            );
            assert!(reach <= dst.len(), "grid reaches {reach} of {}", dst.len());
            let sv = _mm256_set1_ps(g.scale);
            for i in 0..c0 {
                for j in 0..c1 {
                    let row = g.first_row - i * steps[0] - j * steps[1];
                    // SAFETY: the asserts above bound every weight row and
                    // destination row of this grid. Panel `p` starts
                    // `p * panel_len` into the packed buffer with 16 floats
                    // per row (zero-padded past `n_out`): vector `v` of a row
                    // is panel `v / 2`, half `v % 2`, whole-vector weight
                    // loads stay inside, and `dst` accesses stop at `n`.
                    unsafe {
                        let mut w = wp.add(row * PANEL_WIDTH);
                        let mut d = dp.add(g.at + i * outer_stride + j * n);
                        for v in 0..n / 8 {
                            let sum = _mm256_fmadd_ps(sv, _mm256_loadu_ps(w), _mm256_loadu_ps(d));
                            _mm256_storeu_ps(d, sum);
                            w = w.add(if v % 2 == 0 { 8 } else { panel_len - 8 });
                            d = d.add(8);
                        }
                        if !n.is_multiple_of(8) {
                            let held = _mm256_maskload_ps(d, mask);
                            let sum = _mm256_fmadd_ps(sv, _mm256_loadu_ps(w), held);
                            _mm256_maskstore_ps(d, mask, sum);
                        }
                    }
                }
            }
        }
    }

    /// AVX2 body of [`PackedPanels::gather_axpy`]: per position, every
    /// window is one unaligned 8-lane load, a compare against zero and a
    /// branch-free left-pack of the flagged `(tap, Δ)` lanes into the bucket;
    /// the bucket is then fused onto the position's row with the row's sums
    /// in registers.
    ///
    /// # Panics
    ///
    /// Panics when the host lacks AVX2/FMA, and where
    /// [`PackedPanels::gather_axpy`] does.
    pub fn gather_axpy(
        packed: &PackedPanels,
        image: &[f32],
        windows: &[TapWindow],
        lanes: usize,
        step: usize,
        bucket: &mut TapBucket,
        dst: &mut [f32],
    ) -> u64 {
        require();
        let positions = check_gather(packed, image, windows, lanes, step, bucket, dst);
        // SAFETY: `require` checked the host runs AVX2+FMA+POPCNT code.
        // `check_gather` asserted that `lanes <= 8`; that every window's
        // 8-lane load stays inside `image` for the last position, hence for
        // all; that the bucket holds `windows · lanes + 8` entries, so the
        // 8-lane stores at its end fit (it grows by at most `lanes` per
        // window); that every tap `w.tap + l`, `l < lanes`, is a weight row;
        // and that `dst` is `positions` rows of `n_out`.
        unsafe { gather_axpy_impl(packed, image, windows, lanes, step, positions, bucket, dst) }
    }

    #[target_feature(enable = "avx2,fma,popcnt")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn gather_axpy_impl(
        packed: &PackedPanels,
        image: &[f32],
        windows: &[TapWindow],
        lanes: usize,
        step: usize,
        positions: usize,
        bucket: &mut TapBucket,
        dst: &mut [f32],
    ) -> u64 {
        let n = packed.n_out();
        let keep = (1usize << lanes) - 1;
        let zero = _mm256_setzero_ps();
        let (taps, deltas) = (bucket.taps.as_mut_ptr(), bucket.deltas.as_mut_ptr());
        let mut entries = 0;
        for p in 0..positions {
            let mut len = 0;
            for w in windows {
                // SAFETY: the caller's contract (see `gather_axpy`); a mask
                // below 256 indexes the 256-entry table.
                unsafe {
                    let run = _mm256_loadu_ps(image.as_ptr().add(w.at as usize + p * step));
                    let changed = _mm256_cmp_ps::<_CMP_NEQ_UQ>(run, zero);
                    let m = _mm256_movemask_ps(changed) as usize & keep;
                    let pack = _mm256_load_si256(LEFT_PACK.0[m].as_ptr().cast());
                    _mm256_storeu_ps(deltas.add(len), _mm256_permutevar8x32_ps(run, pack));
                    let tap = _mm256_add_epi32(pack, _mm256_set1_epi32(w.tap as i32));
                    _mm256_storeu_si256(taps.add(len).cast(), tap);
                    len += m.count_ones() as usize;
                }
            }
            entries += len as u64;
            if len > 0 {
                // SAFETY: the caller's contract (see `gather_axpy`).
                unsafe { axpy_bucket(packed, taps, deltas, len, dst.as_mut_ptr().add(p * n)) };
            }
        }
        entries
    }

    /// AVX2 body of [`PackedPanels::axpy_buckets`]: panel-outer, buckets in
    /// groups of four run in lockstep against the resident panel
    /// (`axpy_quad`); the last `ends.len() % 4` buckets go through
    /// `axpy_bucket`, the kernel a conv position's bucket goes through.
    /// Both fuse every step in entry order, so which kernel a bucket meets
    /// shows in no bit.
    ///
    /// # Panics
    ///
    /// Panics when the host lacks AVX2/FMA, and where
    /// [`PackedPanels::axpy_buckets`] does.
    pub fn axpy_buckets(
        packed: &PackedPanels,
        taps: &[u32],
        deltas: &[f32],
        ends: &[usize],
        dst: &mut [f32],
    ) {
        require();
        check_buckets(packed, taps, deltas, ends, dst);
        // SAFETY: `require` checked the host runs AVX2+FMA code.
        // `check_buckets` asserted that the buckets `ends` delimits lie in
        // order inside `taps` and `deltas`, that every tap in them is a
        // weight row, and that `dst` is one `n_out`-wide row per bucket.
        unsafe { axpy_buckets_impl(packed, taps, deltas, ends, dst) }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn axpy_buckets_impl(
        packed: &PackedPanels,
        taps: &[u32],
        deltas: &[f32],
        ends: &[usize],
        dst: &mut [f32],
    ) {
        let n = packed.n_out();
        let (taps, deltas, dp) = (taps.as_ptr(), deltas.as_ptr(), dst.as_mut_ptr());
        let start = |b: usize| if b == 0 { 0 } else { ends[b - 1] };
        let quads = ends.len() / 4;
        for p in 0..packed.n_panels() {
            let col0 = p * PANEL_WIDTH;
            let lanes = (n - col0).min(PANEL_WIDTH);
            let w = packed.panel(p).as_ptr();
            for q in 0..quads {
                let from: [usize; 4] = core::array::from_fn(|k| start(4 * q + k));
                let len: [usize; 4] = core::array::from_fn(|k| ends[4 * q + k] - from[k]);
                // SAFETY: the caller's contract (see `axpy_buckets`); rows
                // `4q .. 4q + 4` of `dst` exist and hold `lanes` floats from
                // column `col0`.
                unsafe {
                    axpy_quad(
                        w,
                        taps,
                        deltas,
                        from,
                        len,
                        dp.add(4 * q * n + col0),
                        n,
                        lanes,
                    )
                };
            }
        }
        for (b, &end) in ends.iter().enumerate().skip(4 * quads) {
            let (from, len) = (start(b), end - start(b));
            // SAFETY: the caller's contract (see `axpy_buckets`).
            unsafe { axpy_bucket(packed, taps.add(from), deltas.add(from), len, dp.add(b * n)) };
        }
    }

    /// Four buckets onto one panel's lanes of four consecutive rows of
    /// `dst`, `stride` floats apart: bucket `k` is the `len[k]` entries from
    /// `from[k]`. The buckets advance in lockstep over their common length —
    /// eight independent chains, where one bucket alone would wait out the
    /// FMA latency on two — and finish one by one.
    ///
    /// # Safety
    ///
    /// `panel` points at a panel whose rows include every tap of the four
    /// buckets, which lie inside `taps`/`deltas`; `dst` points at `lanes ≤
    /// 16` writable floats in each of four rows `stride` apart; the host
    /// runs AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn axpy_quad(
        panel: *const f32,
        taps: *const u32,
        deltas: *const f32,
        from: [usize; 4],
        len: [usize; 4],
        dst: *mut f32,
        stride: usize,
        lanes: usize,
    ) {
        let mut rows = [[0.0f32; PANEL_WIDTH]; 4];
        let mut acc = [_mm256_setzero_ps(); 8];
        // SAFETY: the caller's contract covers every lane copied, every
        // entry read and every weight row loaded; a partial panel's lanes
        // are staged through `rows` so the 8-lane loads and stores never
        // leave a row of `dst`.
        unsafe {
            for k in 0..4 {
                core::ptr::copy_nonoverlapping(dst.add(k * stride), rows[k].as_mut_ptr(), lanes);
                acc[2 * k] = _mm256_loadu_ps(rows[k].as_ptr());
                acc[2 * k + 1] = _mm256_loadu_ps(rows[k].as_ptr().add(8));
            }
            let step = |acc: &mut [__m256; 8], k: usize, e: usize| {
                let delta = _mm256_broadcast_ss(&*deltas.add(from[k] + e));
                let row = panel.add(*taps.add(from[k] + e) as usize * PANEL_WIDTH);
                acc[2 * k] = _mm256_fmadd_ps(delta, _mm256_loadu_ps(row), acc[2 * k]);
                acc[2 * k + 1] =
                    _mm256_fmadd_ps(delta, _mm256_loadu_ps(row.add(8)), acc[2 * k + 1]);
            };
            let common = len[0].min(len[1]).min(len[2]).min(len[3]);
            for e in 0..common {
                for k in 0..4 {
                    step(&mut acc, k, e);
                }
            }
            for k in 0..4 {
                for e in common..len[k] {
                    step(&mut acc, k, e);
                }
                _mm256_storeu_ps(rows[k].as_mut_ptr(), acc[2 * k]);
                _mm256_storeu_ps(rows[k].as_mut_ptr().add(8), acc[2 * k + 1]);
                core::ptr::copy_nonoverlapping(rows[k].as_ptr(), dst.add(k * stride), lanes);
            }
        }
    }

    /// Adds `Σ_e deltas[e] · w[taps[e]]` onto the `n_out` floats at `dst`,
    /// entries in order, 64 lanes (eight accumulators) at a time.
    ///
    /// # Safety
    ///
    /// `taps` and `deltas` hold `len` entries with every tap below `n_in`;
    /// `dst` points at `n_out` writable floats; the host runs AVX2+FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn axpy_bucket(
        packed: &PackedPanels,
        taps: *const u32,
        deltas: *const f32,
        len: usize,
        dst: *mut f32,
    ) {
        let n = packed.n_out();
        let panel_len = packed.n_in() * PANEL_WIDTH;
        let vectors = n.div_ceil(8);
        let mut first = 0;
        while first < vectors {
            let held = (vectors - first).min(8);
            // Lanes the tile's last vector may touch (0: all eight).
            let tail = if first + held == vectors { n % 8 } else { 0 };
            // SAFETY: vector `v` of a weight row is panel `v / 2`, half
            // `v % 2`; a tile starts on a panel boundary (`first % 8 == 0`),
            // so it reads panels `first / 2 ..` of rows the caller bounded
            // and writes `dst[8·first ..]` up to `n`.
            unsafe {
                let w = packed.data().as_ptr().add(first / 2 * panel_len);
                let d = dst.add(8 * first);
                match held {
                    1 => axpy_tile::<1>(w, panel_len, taps, deltas, len, d, tail),
                    2 => axpy_tile::<2>(w, panel_len, taps, deltas, len, d, tail),
                    3 => axpy_tile::<3>(w, panel_len, taps, deltas, len, d, tail),
                    4 => axpy_tile::<4>(w, panel_len, taps, deltas, len, d, tail),
                    5 => axpy_tile::<5>(w, panel_len, taps, deltas, len, d, tail),
                    6 => axpy_tile::<6>(w, panel_len, taps, deltas, len, d, tail),
                    7 => axpy_tile::<7>(w, panel_len, taps, deltas, len, d, tail),
                    _ => axpy_tile::<8>(w, panel_len, taps, deltas, len, d, tail),
                }
            }
            first += 8;
        }
    }

    /// One tile of [`axpy_bucket`]: `V` vectors of the destination row held
    /// in registers across the whole bucket. `tail != 0` masks the last
    /// vector to its first `tail` lanes on the one load and the one store
    /// (the weight rows are zero-padded to whole panels, so their loads
    /// never need a mask).
    ///
    /// # Safety
    ///
    /// As [`axpy_bucket`], for the `8·V` lanes (the last vector `tail` lanes
    /// if non-zero) at `dst` and the panels from `w` on.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn axpy_tile<const V: usize>(
        w: *const f32,
        panel_len: usize,
        taps: *const u32,
        deltas: *const f32,
        len: usize,
        dst: *mut f32,
        tail: usize,
    ) {
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(tail as i32), lane);
        let mut acc = [_mm256_setzero_ps(); V];
        // SAFETY: the caller's contract covers every lane loaded, every
        // weight row read and every lane stored.
        unsafe {
            for (v, a) in acc.iter_mut().enumerate() {
                *a = if tail != 0 && v == V - 1 {
                    _mm256_maskload_ps(dst.add(8 * v), mask)
                } else {
                    _mm256_loadu_ps(dst.add(8 * v))
                };
            }
            for e in 0..len {
                let delta = _mm256_broadcast_ss(&*deltas.add(e));
                let row = w.add(*taps.add(e) as usize * PANEL_WIDTH);
                for (v, a) in acc.iter_mut().enumerate() {
                    let wv = _mm256_loadu_ps(row.add(v / 2 * panel_len + v % 2 * 8));
                    *a = _mm256_fmadd_ps(delta, wv, *a);
                }
            }
            for (v, a) in acc.iter().enumerate() {
                if tail != 0 && v == V - 1 {
                    _mm256_maskstore_ps(dst.add(8 * v), mask, *a);
                } else {
                    _mm256_storeu_ps(dst.add(8 * v), *a);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_name_is_stable() {
        assert_eq!(SimdLevel::Scalar.name(), "scalar");
        assert_eq!(SimdLevel::Avx2.name(), "avx2+fma");
    }

    #[test]
    fn level_is_detected_or_overridden() {
        // Whatever the environment, the resolved level must be one the
        // hardware can actually run.
        let l = level();
        assert!(l == SimdLevel::Scalar || detected() == SimdLevel::Avx2);
    }

    #[test]
    fn reuse_simd_accepts_a_closed_set() {
        assert_eq!(parse_level(None), Ok(None));
        for off in ["off", "scalar", "0"] {
            assert_eq!(parse_level(Some(off)), Ok(Some(SimdLevel::Scalar)));
        }
        assert_eq!(parse_level(Some("avx2")), Ok(Some(SimdLevel::Avx2)));
        // A typo must not run the detected level under a "forced scalar" label.
        for typo in ["OFF", "false", "scaler", "Scalar", "1", "avx", " off", ""] {
            let usage = parse_level(Some(typo)).unwrap_err();
            for accepted in ["off", "scalar", "`0`", "avx2"] {
                assert!(usage.contains(accepted), "{typo:?}: {usage}");
            }
        }
    }

    #[test]
    fn mismatch_reports_divergence() {
        assert!(kernel_mismatch(&[1.0, 2.0], &[1.0, 2.0]).is_none());
        assert!(kernel_mismatch(&[1.0], &[1.0, 2.0]).is_some());
        let low_bit = f32::from_bits(1.0f32.to_bits() + 1);
        let report = kernel_mismatch(&[1.0, low_bit], &[1.0, 1.0]).unwrap();
        assert!(report.starts_with("[1]"), "{report}");
        // Bits, not values: the two zeros differ.
        assert!(kernel_mismatch(&[0.0], &[-0.0]).is_some());
    }

    #[test]
    #[should_panic(expected = "row_axpy operand lengths")]
    fn row_axpy_rejects_a_short_row() {
        // The AVX2 body reads `row` through a raw pointer for `dst.len()`
        // elements: the check must hold in release builds too.
        row_axpy(&mut [0.0; 24], &[1.0; 8], 2.0);
    }

    #[test]
    fn row_axpy_accumulates() {
        let mut dst = vec![1.0f32; 19];
        let row: Vec<f32> = (0..19).map(|v| v as f32).collect();
        row_axpy(&mut dst, &row, 2.0);
        for (j, &d) in dst.iter().enumerate() {
            assert_eq!(d, 1.0 + 2.0 * j as f32, "j={j}");
        }
    }
}
