//! AVX-512F bodies for the two panel kernels whose time is FMA throughput
//! (x86-64 only): the conv forward block and the multi-row packed matmul. A
//! 16-lane panel row is exactly one 512-bit register, so each of these walks
//! a row as one vector where the AVX2 body walks two halves. Every other kernel runs its AVX2 body at this level (see
//! the [`super`] module docs for why each stays there).
//!
//! The contract is the AVX2 module's: each output is one chain of fused
//! multiply-adds in ascending term order from the value it enters with, so
//! these bodies produce the scalar, AVX2 and naive oracles' bits. Every
//! public function is a safe wrapper that panics when the host lacks
//! AVX-512F (or the AVX2+FMA+POPCNT the level also relies on).

use core::arch::x86_64::*;

use super::avx2;
use crate::block::{PackedPanels, PANEL_WIDTH, TILE_PANELS};

// One 512-bit register per panel row.
const _: () = assert!(PANEL_WIDTH == 16);

/// Whether this host can run the AVX-512 level: AVX-512F for these bodies,
/// and everything the AVX2 bodies the level also runs need.
pub fn available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f") && avx2::available()
}

/// Asserts the host can run the AVX-512 level.
#[track_caller]
pub fn require() {
    assert!(
        available(),
        "AVX-512F kernels called on an unsupported host"
    );
}

/// The mask of a panel's first `lanes` lanes (`1 ≤ lanes ≤ 16`).
fn lane_mask(lanes: usize) -> __mmask16 {
    debug_assert!((1..=PANEL_WIDTH).contains(&lanes));
    (u32::MAX >> (32 - lanes)) as __mmask16
}

/// AVX-512 matmul `C += A · B` against the packed `B`, under the contract of
/// [`avx2::matmul_rows`]: panels outermost in the same L2-sized blocks, rows
/// of `A` in register blocks of four against four panels at a time — sixteen
/// 512-bit accumulators, four panel loads and four broadcasts per input. The
/// rows past the last group of four (a lone row is the FC forward of one
/// frame) take the AVX2 one-row walk, whose eight 256-bit chains keep more
/// FMAs in flight than one row's four zmm would.
///
/// # Panics
///
/// Panics when the host lacks AVX-512F, or when `c` is not whole rows of
/// `n_out` or `a` not as many rows of `n_in`.
pub fn matmul_rows(packed: &PackedPanels, a: &[f32], c: &mut [f32]) {
    require();
    let (k, n) = (packed.n_in(), packed.n_out());
    assert!(n > 0 && c.len().is_multiple_of(n), "C is not rows of {n}");
    assert_eq!(a.len(), c.len() / n * k, "A rows vs C rows");
    // SAFETY: `require` checked the host runs AVX-512F and AVX2+FMA code.
    // `k` and `n` are the panels' own dimensions; the asserts make `c`
    // exactly `rows` rows of `n` and `a` `rows` rows of `k`.
    unsafe { matmul_rows_impl(packed, a, c) }
}

/// # Safety
///
/// The host runs AVX-512F and AVX2+FMA; `c` is whole rows of `n_out` and `a`
/// as many rows of `n_in` ([`matmul_rows`] asserts both).
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn matmul_rows_impl(packed: &PackedPanels, a: &[f32], c: &mut [f32]) {
    let (k, n) = (packed.n_in(), packed.n_out());
    let rows = c.len() / n;
    let groups = rows - rows % 4;
    let (n_panels, cp) = (packed.n_panels(), c.as_mut_ptr());
    let block = avx2::panel_block(packed);
    let mut pb = 0;
    while pb < n_panels {
        let pend = (pb + block).min(n_panels);
        for r in (0..groups).step_by(4) {
            let arows: [&[f32]; 4] = core::array::from_fn(|i| &a[(r + i) * k..(r + i + 1) * k]);
            let mut p = pb;
            while p < pend {
                let tile = (pend - p).min(TILE_PANELS);
                let lanes = (n - (p + tile - 1) * PANEL_WIDTH).min(PANEL_WIDTH);
                // SAFETY: panels `p .. p + tile` exist, back to back in the
                // packed buffer, each `k` rows of 16 floats; rows `r .. r + 4`
                // of `c` hold every column from `16p` up to `n`, and only the
                // last panel's first `lanes` columns are touched past a whole
                // panel.
                unsafe {
                    let w = packed.data().as_ptr().add(p * k * PANEL_WIDTH);
                    let c = cp.add(r * n + p * PANEL_WIDTH);
                    match tile {
                        1 => rows4_tile::<1>(w, k, arows, c, n, lanes),
                        2 => rows4_tile::<2>(w, k, arows, c, n, lanes),
                        3 => rows4_tile::<3>(w, k, arows, c, n, lanes),
                        _ => rows4_tile::<4>(w, k, arows, c, n, lanes),
                    }
                }
                p += tile;
            }
        }
        for r in groups..rows {
            // SAFETY: the host runs AVX2+FMA (checked with AVX-512F); row `r`
            // of `c` is `n` floats and of `a` `k`; `pb .. pend` are panels.
            unsafe {
                let crow = core::slice::from_raw_parts_mut(cp.add(r * n), n);
                avx2::row_panels(packed, &a[r * k..(r + 1) * k], crow, pb..pend);
            }
        }
        pb = pend;
    }
}

/// Four `A` rows × `P` consecutive panels: `4·P` accumulators, each one
/// output lane-vector's chain from what `C` holds, one fused step per input
/// ascending. `w` is the first panel (the next ones follow `k · 16` floats
/// apart); `c` points at `C[first_row][16·first_panel]`, rows `n` apart; the
/// last panel touches only its first `lanes` columns (masked loads and
/// stores: masked-off lanes are not accessed).
///
/// # Safety
///
/// The host runs AVX-512F; the `P` panels from `w` hold `k` rows each; the
/// four rows at `c` hold `16·(P − 1) + lanes` writable floats each.
#[target_feature(enable = "avx512f")]
unsafe fn rows4_tile<const P: usize>(
    w: *const f32,
    k: usize,
    arows: [&[f32]; 4],
    c: *mut f32,
    n: usize,
    lanes: usize,
) {
    let panel_len = k * PANEL_WIDTH;
    // Sliced to `k` once, so the per-input reads below carry no bounds check.
    let arows = arows.map(|row| &row[..k]);
    let mask = |q: usize| if q == P - 1 { lane_mask(lanes) } else { !0 };
    let mut acc = [[_mm512_setzero_ps(); P]; 4];
    // SAFETY: the caller's contract bounds every panel row read and every
    // `C` lane the masks let through.
    unsafe {
        for (r, row) in acc.iter_mut().enumerate() {
            for (q, a) in row.iter_mut().enumerate() {
                *a = _mm512_maskz_loadu_ps(mask(q), c.add(r * n + q * PANEL_WIDTH));
            }
        }
        for i in 0..k {
            let wv: [__m512; P] =
                core::array::from_fn(|q| _mm512_loadu_ps(w.add(q * panel_len + i * PANEL_WIDTH)));
            for (row, arow) in acc.iter_mut().zip(arows) {
                let b = _mm512_set1_ps(arow[i]);
                for (a, &wq) in row.iter_mut().zip(&wv) {
                    *a = _mm512_fmadd_ps(b, wq, *a);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (q, &a) in row.iter().enumerate() {
                _mm512_mask_storeu_ps(c.add(r * n + q * PANEL_WIDTH), mask(q), a);
            }
        }
    }
}

/// Positions per register group of [`conv_block`].
const CONV_GROUP: usize = 8;

/// Panels walked together by [`conv_block`]: with [`CONV_GROUP`] positions,
/// 24 accumulators, three weight vectors and a broadcast fill 28 of the 32
/// registers.
const CONV_PANELS: usize = 3;

/// AVX-512 body of a block of [`crate::conv::conv_forward_into`], under the
/// contract of the AVX2 body: row `r` of `c` gains one fused
/// `frame[origins[r] + seg + kx] · w[tap]` per tap, ascending. Panels in
/// passes of up to [`CONV_PANELS`], rows in groups of [`CONV_GROUP`], the
/// last group moved back to end on the block's last row without storing the
/// rows it shares with the one before (a shorter block repeats its last
/// window).
///
/// # Safety
///
/// The host runs AVX-512F; `panels` has `segments.len() · kw` rows; `c` is
/// `origins.len()` rows of `16 · panels.n_panels()`; `origin + seg + kw ≤
/// frame.len()` for every origin and segment (`u32` offsets in `f32` bits).
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn conv_block(
    frame: &[f32],
    segments: &[f32],
    kw: usize,
    origins: &[usize],
    panels: &PackedPanels,
    c: &mut [f32],
) {
    let mut p = 0;
    while p < panels.n_panels() {
        let pass = (panels.n_panels() - p).min(CONV_PANELS);
        // SAFETY: the caller's contract, for panels `p .. p + pass`.
        unsafe {
            match pass {
                1 => conv_pass::<1>(frame, segments, kw, origins, panels, p, c),
                2 => conv_pass::<2>(frame, segments, kw, origins, panels, p, c),
                _ => conv_pass::<CONV_PANELS>(frame, segments, kw, origins, panels, p, c),
            }
        }
        p += pass;
    }
}

/// One pass of [`conv_block`] over panels `p0 .. p0 + P`.
///
/// # Safety
///
/// [`conv_block`]'s, and `p0 + P ≤ panels.n_panels()`.
#[target_feature(enable = "avx512f")]
unsafe fn conv_pass<const P: usize>(
    frame: &[f32],
    segments: &[f32],
    kw: usize,
    origins: &[usize],
    panels: &PackedPanels,
    p0: usize,
    c: &mut [f32],
) {
    let rows = origins.len();
    let (cp, width) = (c.as_mut_ptr(), PANEL_WIDTH * panels.n_panels());
    let panel_len = panels.n_in() * PANEL_WIDTH;
    for g0 in (0..rows).step_by(CONV_GROUP) {
        let start = g0.min(rows.saturating_sub(CONV_GROUP));
        let keep = g0 - start..CONV_GROUP.min(rows - start);
        let mut acc = [[_mm512_setzero_ps(); P]; CONV_GROUP];
        // SAFETY: the caller's contract bounds every window, weight row and
        // row of `c`; panel `p0 + q` starts `q · panel_len` after panel `p0`.
        // (Whole group loops keep `acc` in registers.)
        unsafe {
            let windows: [*const f32; CONV_GROUP] =
                core::array::from_fn(|r| frame.as_ptr().add(origins[(start + r).min(rows - 1)]));
            let at = |r: usize, q: usize| cp.add((start + r) * width + (p0 + q) * PANEL_WIDTH);
            for (r, row) in acc.iter_mut().enumerate() {
                if keep.contains(&r) {
                    for (q, a) in row.iter_mut().enumerate() {
                        *a = _mm512_loadu_ps(at(r, q));
                    }
                }
            }
            let mut w = panels.data().as_ptr().add(p0 * panel_len);
            for seg in segments {
                let seg = seg.to_bits() as usize;
                for kx in seg..seg + kw {
                    let wv: [__m512; P] =
                        core::array::from_fn(|q| _mm512_loadu_ps(w.add(q * panel_len)));
                    w = w.add(PANEL_WIDTH);
                    for (row, window) in acc.iter_mut().zip(windows) {
                        let b = _mm512_set1_ps(*window.add(kx));
                        for (a, &wq) in row.iter_mut().zip(&wv) {
                            *a = _mm512_fmadd_ps(b, wq, *a);
                        }
                    }
                }
            }
            for (r, row) in acc.iter().enumerate() {
                if keep.contains(&r) {
                    for (q, &a) in row.iter().enumerate() {
                        _mm512_storeu_ps(at(r, q), a);
                    }
                }
            }
        }
    }
}
