//! Cache-blocked weight panels and the 16-lane FC microkernel.
//!
//! The naive FC kernel streams the whole input-major weight matrix once per
//! call, touching `n_out` floats per input row but accumulating into a
//! cache-resident output chunk. That is already sequential, but every
//! accumulator lives in memory and the compiler cannot keep a fixed set of
//! registers hot. The blocked kernel instead repacks the weights **once per
//! layer** into column panels of [`PANEL_WIDTH`] output neurons:
//!
//! ```text
//! packed[(p · n_in + i) · 16 + l] = w[i · n_out + p · 16 + l]
//! ```
//!
//! i.e. panel `p` holds the weights of outputs `16p .. 16p+16` for *all*
//! inputs, contiguously, input-major within the panel (tail lanes of the
//! last panel are zero-padded). One panel of a Kaldi-sized layer
//! (`n_in = 400`) is `400 × 16 × 4 B = 25 KiB` — it fits L1 and is
//! streamed exactly once per forward pass while the accumulators sit in
//! registers: two 256-bit vectors per panel on the AVX2 path, one 512-bit
//! vector at the AVX-512 level, a fixed-width array the compiler
//! auto-vectorizes on the scalar path.
//!
//! **Exactness.** The kernels dispatch on [`crate::simd::level`], and at
//! every level each output `j` is one chain of fused multiply-adds — bias
//! first, then `x[i] · w[i][j]` for every `i` ascending, zeros included —
//! which is [`crate::matmul::fc_forward_naive`]'s chain: results are
//! **bit-identical** to the oracle and across levels (the [`crate::simd`]
//! contract). The proptests in `tests/blocked.rs` assert it across odd
//! shapes.

use crate::simd;
use crate::{ParallelConfig, Tensor, TensorError};

/// Number of output lanes per packed panel: 16 `f32` lanes fill one 512-bit
/// or two 256-bit vector registers (the AVX-512 and AVX2 kernels' unroll
/// unit); on narrower machines the compiler splits the fixed-width
/// accumulator array further.
pub const PANEL_WIDTH: usize = 16;

/// Panels walked together per microkernel pass. Each panel's 16-lane
/// accumulator is an *independent* pair of floating-point dependency
/// chains, so four panels in flight (eight chains) hide the FP-add/FMA
/// latency that a single chain would serialize on (the adds within one
/// output stay strictly ordered — ILP comes from interleaving different
/// outputs, which does not change any output's accumulation order).
pub(crate) const TILE_PANELS: usize = 4;

/// Output lanes per tile pass (`TILE_PANELS × PANEL_WIDTH`).
pub(crate) const TILE_LANES: usize = TILE_PANELS * PANEL_WIDTH;

/// An input-major weight matrix repacked into [`PANEL_WIDTH`]-output column
/// panels (see the module docs for the exact layout).
///
/// Packing is a one-time, per-layer cost paid at construction; the packed
/// buffer is then read-only and streamed by the forward microkernel.
/// (FC corrections and an LSTM cell's recurrent side read the *raw*
/// row-major matrix instead — see [`apply_deltas_rows`] — because one sparse
/// changed set touches only its own rows, which the raw matrix keeps
/// contiguous; conv corrections, whose rows are `out_c` wide, read the
/// panels — [`PackedPanels::gather_axpy`] and
/// [`PackedPanels::axpy_row_grids`] — and so does an LSTM cell's feed-forward
/// side, which has a whole block of timesteps' changed sets to apply at once:
/// [`PackedPanels::axpy_buckets`].)
#[derive(Debug, Clone)]
pub struct PackedPanels {
    data: Vec<f32>,
    n_in: usize,
    n_out: usize,
}

impl PackedPanels {
    /// Packs a rank-2 input-major (`[n_in, n_out]`) weight tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `weights` is not rank-2.
    pub fn pack(weights: &Tensor) -> Result<Self, TensorError> {
        let dims = weights.shape().dims();
        if dims.len() != 2 {
            return Err(TensorError::ShapeMismatch {
                context: format!("packed weights must be rank-2, got {}", weights.shape()),
            });
        }
        Ok(Self::pack_slice(weights.as_slice(), dims[0], dims[1]))
    }

    /// Packs a raw input-major weight slice of shape `[n_in, n_out]`. Tail
    /// lanes beyond `n_out` are zero-filled so the microkernels can always
    /// read full 16-lane rows.
    ///
    /// # Panics
    ///
    /// Panics when `w.len() != n_in * n_out`.
    pub fn pack_slice(w: &[f32], n_in: usize, n_out: usize) -> Self {
        assert_eq!(w.len(), n_in * n_out, "weight slice/shape mismatch");
        let n_panels = n_out.div_ceil(PANEL_WIDTH);
        let mut data = vec![0.0; n_panels * n_in * PANEL_WIDTH];
        for (p, panel) in data.chunks_exact_mut(n_in * PANEL_WIDTH).enumerate() {
            let col0 = p * PANEL_WIDTH;
            let lanes = (n_out - col0).min(PANEL_WIDTH);
            for i in 0..n_in {
                let src = &w[i * n_out + col0..i * n_out + col0 + lanes];
                panel[i * PANEL_WIDTH..i * PANEL_WIDTH + lanes].copy_from_slice(src);
            }
        }
        PackedPanels { data, n_in, n_out }
    }

    /// Number of weight-matrix rows (layer inputs).
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Number of weight-matrix columns (layer outputs).
    pub fn n_out(&self) -> usize {
        self.n_out
    }

    /// Number of [`PANEL_WIDTH`]-output panels (`ceil(n_out / 16)`).
    pub fn n_panels(&self) -> usize {
        self.n_out.div_ceil(PANEL_WIDTH)
    }

    /// Panel `p` as a `[n_in × PANEL_WIDTH]` row-major slice: row `i` holds
    /// `w[i][16p .. 16p+16]` (zero-padded past `n_out`).
    ///
    /// # Panics
    ///
    /// Panics when `p >= n_panels()`.
    pub fn panel(&self, p: usize) -> &[f32] {
        let stride = self.n_in * PANEL_WIDTH;
        &self.data[p * stride..(p + 1) * stride]
    }

    /// Heap bytes held by the packed buffer.
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * core::mem::size_of::<f32>()
    }

    /// The whole packed buffer, panels back to back (the AVX2 kernels index
    /// across panels from one base pointer).
    pub(crate) fn data(&self) -> &[f32] {
        &self.data
    }

    /// Adds scaled weight rows onto grids of `n_out`-wide rows of `dst`, in
    /// iteration order: for each grid `g`, `i < g.counts[0]`,
    /// `j < g.counts[1]` and every column `c`,
    ///
    /// ```text
    /// dst[g.at + i·outer_stride + j·n_out + c]
    ///     += g.scale · w[g.first_row − i·steps[0] − j·steps[1]][c]
    /// ```
    ///
    /// This is the convolution correction (paper Section IV-C) over
    /// channels-last outputs: a changed input reaches `counts[1]` consecutive
    /// output positions along `ox` through kernel taps `stride` apart,
    /// descending, on `counts[0]` output rows `outer_stride` floats apart
    /// through taps `stride · kw` apart; row `t` of a panel is 16 contiguous
    /// floats, so the forward pass's panels serve unchanged. Every step is
    /// fused at every [`crate::simd::level`] (the [`crate::simd::row_axpy`]
    /// shape). The level is resolved once per call and the iterator inlines:
    /// a grid is only a few dozen floats.
    ///
    /// # Panics
    ///
    /// Panics when a grid reaches past `dst` or a row index falls outside
    /// `0 .. n_in`.
    pub fn axpy_row_grids(
        &self,
        steps: [usize; 2],
        outer_stride: usize,
        grids: impl Iterator<Item = RowGrid>,
        dst: &mut [f32],
    ) {
        match simd::level() {
            #[cfg(target_arch = "x86_64")]
            simd::SimdLevel::Avx2 | simd::SimdLevel::Avx512 => {
                simd::avx2::axpy_row_grids(self, steps, outer_stride, grids, dst);
            }
            simd::SimdLevel::Scalar => {
                for g in grids {
                    for i in 0..g.counts[0] {
                        for j in 0..g.counts[1] {
                            let row = g.first_row - i * steps[0] - j * steps[1];
                            let out = &mut dst[g.at + i * outer_stride + j * self.n_out..];
                            for (p, seg) in out[..self.n_out].chunks_mut(PANEL_WIDTH).enumerate() {
                                let wrow = &self.panel(p)[row * PANEL_WIDTH..][..seg.len()];
                                for (o, &w) in seg.iter_mut().zip(wrow) {
                                    *o = g.scale.mul_add(w, *o);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Output-stationary correction of a run of output positions, `step`
    /// floats apart in `image` and `n_out` floats apart in `dst`: for each
    /// position `p` (ascending), each window `w` of `windows` (in order) and
    /// each lane `l < lanes` (ascending) with
    /// `Δ = image[w.at + p·step + l] ≠ 0`,
    ///
    /// ```text
    /// dst[p·n_out + c] += Δ · w[w.tap + l][c]        for every column c
    /// ```
    ///
    /// This is the convolution correction (paper Section IV-C) seen from the
    /// output: `image` is the frame's dense delta image (zero where the
    /// quantized input did not change, and in the padding), a window is one
    /// `kw`-wide run of a position's receptive field. A position's non-zero
    /// lanes are gathered into `bucket` first — `(tap, Δ)` in
    /// window-then-lane order, which is ascending tap order when the windows
    /// ascend — and then added onto the position's row in one pass: under
    /// AVX2 the row's sums stay in registers (up to 64 lanes at a time)
    /// while the bucket's weight rows are fused on, so the row is loaded and
    /// stored once per position and its `n_out % 8` tail is masked once.
    /// Per output element the additions are fused `z ← z + Δ·w` steps in
    /// bucket order, which is the order an input-by-input walk over
    /// ascending changed inputs applies them in, so results are bit-identical
    /// to that walk, at every [`crate::simd::level`].
    ///
    /// Returns the number of `(tap, Δ)` entries applied.
    ///
    /// # Panics
    ///
    /// Panics when `lanes > 8`, `dst` is not a whole number of `n_out`-wide
    /// rows, a window's 8-lane load would leave `image`, a tap falls outside
    /// `0 .. n_in`, or `bucket` holds fewer than `windows.len() · lanes`
    /// entries.
    pub fn gather_axpy(
        &self,
        image: &[f32],
        windows: &[TapWindow],
        lanes: usize,
        step: usize,
        bucket: &mut TapBucket,
        dst: &mut [f32],
    ) -> u64 {
        match simd::level() {
            simd::SimdLevel::Scalar => {
                gather_axpy_scalar(self, image, windows, lanes, step, bucket, dst)
            }
            #[cfg(target_arch = "x86_64")]
            simd::SimdLevel::Avx2 | simd::SimdLevel::Avx512 => {
                simd::avx2::gather_axpy(self, image, windows, lanes, step, bucket, dst)
            }
        }
    }

    /// The bucket-apply half of [`Self::gather_axpy`] on its own, for any
    /// number of buckets: `taps`/`deltas` hold the buckets' `(weight row, Δ)`
    /// entries back to back, bucket `b` ending at entry `ends[b]` (and
    /// starting where bucket `b − 1` ended), and `dst` is one `n_out`-wide
    /// row per bucket:
    ///
    /// ```text
    /// dst[b·n_out + c] += Δ_e · w[tap_e][c]     for e in bucket b, in order
    /// ```
    ///
    /// Per output element that is one chain of fused `z ← z + Δ·w` steps in
    /// entry order from the value `dst` holds, as in `gather_axpy`, so a row
    /// that enters as `+0.0` leaves holding its bucket's sum from zero, and
    /// an empty bucket leaves its row untouched. This is an LSTM cell's
    /// feed-forward correction over a block of timesteps (one bucket per
    /// timestep): the walk is panel-outer, so a panel is fetched once per
    /// block instead of once per timestep, and under AVX2 four buckets run
    /// in lockstep against the resident panel — eight independent
    /// accumulator chains. Which buckets share a pass never changes any
    /// chain, so a result does not depend on how many buckets the call
    /// carries.
    ///
    /// # Panics
    ///
    /// Panics when `taps` and `deltas` differ in length, `ends` is not
    /// ascending within them, `dst` is not `ends.len()` rows of `n_out`, or a
    /// tap falls outside `0 .. n_in`.
    pub fn axpy_buckets(&self, taps: &[u32], deltas: &[f32], ends: &[usize], dst: &mut [f32]) {
        match simd::level() {
            simd::SimdLevel::Scalar => axpy_buckets_scalar(self, taps, deltas, ends, dst),
            #[cfg(target_arch = "x86_64")]
            simd::SimdLevel::Avx2 | simd::SimdLevel::Avx512 => {
                simd::avx2::axpy_buckets(self, taps, deltas, ends, dst)
            }
        }
    }
}

/// The bounds every access of [`PackedPanels::axpy_buckets`] stays inside,
/// checked once per call at every SIMD level (the AVX2 body indexes through
/// raw pointers on the strength of these).
pub(crate) fn check_buckets(
    packed: &PackedPanels,
    taps: &[u32],
    deltas: &[f32],
    ends: &[usize],
    dst: &[f32],
) {
    assert_eq!(taps.len(), deltas.len(), "bucket taps vs deltas");
    let mut start = 0;
    for &end in ends {
        assert!(
            start <= end && end <= taps.len(),
            "bucket {start}..{end} of {} entries",
            taps.len()
        );
        start = end;
    }
    assert_eq!(
        dst.len(),
        ends.len() * packed.n_out,
        "one {}-wide row per bucket",
        packed.n_out
    );
    if let Some(&tap) = taps[..start].iter().find(|&&t| t as usize >= packed.n_in) {
        panic!("tap {tap} outside {} weight rows", packed.n_in);
    }
}

/// The scalar body of [`PackedPanels::axpy_buckets`]: panel-outer, one
/// bucket at a time against the resident panel. Public (but hidden) so the
/// SIMD==scalar equivalence suites can pin the scalar side regardless of the
/// dispatched level.
#[doc(hidden)]
pub fn axpy_buckets_scalar(
    packed: &PackedPanels,
    taps: &[u32],
    deltas: &[f32],
    ends: &[usize],
    dst: &mut [f32],
) {
    check_buckets(packed, taps, deltas, ends, dst);
    let n = packed.n_out;
    for p in 0..packed.n_panels() {
        let (panel, col0) = (packed.panel(p), p * PANEL_WIDTH);
        let lanes = (n - col0).min(PANEL_WIDTH);
        let mut start = 0;
        for (b, &end) in ends.iter().enumerate() {
            let seg = &mut dst[b * n + col0..][..lanes];
            axpy_panel_scalar(panel, &taps[start..end], &deltas[start..end], seg);
            start = end;
        }
    }
}

/// One bucket onto one panel's `seg.len() ≤ 16` lanes of a row: the sums
/// stay in a fixed-width array across the bucket (the zero-padded tail lanes
/// are computed and dropped), one fused chain per output in bucket order.
#[inline]
fn axpy_panel_scalar(panel: &[f32], taps: &[u32], deltas: &[f32], seg: &mut [f32]) {
    let mut acc = [0.0f32; PANEL_WIDTH];
    acc[..seg.len()].copy_from_slice(seg);
    for (&tap, &delta) in taps.iter().zip(deltas) {
        let wrow = &panel[tap as usize * PANEL_WIDTH..][..PANEL_WIDTH];
        for l in 0..PANEL_WIDTH {
            acc[l] = delta.mul_add(wrow[l], acc[l]);
        }
    }
    seg.copy_from_slice(&acc[..seg.len()]);
}

/// One `lanes`-wide run of a receptive field in the delta image of
/// [`PackedPanels::gather_axpy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapWindow {
    /// Image offset of lane 0 of the run's first position.
    pub at: u32,
    /// The weight row lane 0 pairs with; lane `l` pairs with `tap + l`.
    pub tap: u32,
}

/// The `(tap, Δ)` scratch of [`PackedPanels::gather_axpy`], structure of
/// arrays so the gathered lanes are stored as whole vectors. Sized once, for
/// the most entries one position can gather, plus the eight lanes the last
/// vector store may spill.
#[derive(Debug, Clone)]
pub struct TapBucket {
    pub(crate) taps: Vec<u32>,
    pub(crate) deltas: Vec<f32>,
}

impl TapBucket {
    /// A bucket for positions that gather at most `entries` non-zero lanes.
    pub fn new(entries: usize) -> Self {
        TapBucket {
            taps: vec![0; entries + 8],
            deltas: vec![0.0; entries + 8],
        }
    }
}

/// The bounds every access of [`PackedPanels::gather_axpy`] stays inside,
/// checked once per call at every SIMD level (the AVX2 body indexes through
/// raw pointers on the strength of these). Returns the position count.
pub(crate) fn check_gather(
    packed: &PackedPanels,
    image: &[f32],
    windows: &[TapWindow],
    lanes: usize,
    step: usize,
    bucket: &TapBucket,
    dst: &[f32],
) -> usize {
    let n = packed.n_out;
    assert!(
        lanes <= 8,
        "gather windows are at most 8 lanes, got {lanes}"
    );
    assert!(
        n > 0 && dst.len().is_multiple_of(n),
        "dst is not rows of {n}"
    );
    let positions = dst.len() / n;
    // The last position's window, loaded as a whole vector.
    let reach = positions.saturating_sub(1) * step + 8;
    for w in windows {
        assert!(
            w.at as usize + reach <= image.len(),
            "window at {} reaches past the image ({})",
            w.at,
            image.len()
        );
        assert!(
            w.tap as usize + lanes <= packed.n_in,
            "tap {} + {lanes} lanes outside {} weight rows",
            w.tap,
            packed.n_in
        );
    }
    assert!(
        windows.len() * lanes + 8 <= bucket.taps.len().min(bucket.deltas.len()),
        "bucket too small for {} windows of {lanes}",
        windows.len()
    );
    positions
}

/// The scalar body of [`PackedPanels::gather_axpy`]: the same bucket, then
/// one fused `o ← o + Δ · w` per entry. Public (but hidden) so the
/// SIMD==scalar equivalence suites can pin the scalar side regardless of the
/// dispatched level.
#[doc(hidden)]
pub fn gather_axpy_scalar(
    packed: &PackedPanels,
    image: &[f32],
    windows: &[TapWindow],
    lanes: usize,
    step: usize,
    bucket: &mut TapBucket,
    dst: &mut [f32],
) -> u64 {
    check_gather(packed, image, windows, lanes, step, bucket, dst);
    let mut entries = 0;
    for (p, row) in dst.chunks_exact_mut(packed.n_out).enumerate() {
        let mut len = 0;
        for w in windows {
            let run = &image[w.at as usize + p * step..][..lanes];
            for (l, &delta) in run.iter().enumerate() {
                // Branch-free: every lane is written at the bucket's end and
                // kept only if it counts (which lanes changed is not
                // predictable; the bucket has eight entries of slack).
                bucket.taps[len] = w.tap + l as u32;
                bucket.deltas[len] = delta;
                len += usize::from(delta != 0.0);
            }
        }
        entries += len as u64;
        for (pi, seg) in row.chunks_mut(PANEL_WIDTH).enumerate() {
            let (taps, deltas) = (&bucket.taps[..len], &bucket.deltas[..len]);
            axpy_panel_scalar(packed.panel(pi), taps, deltas, seg);
        }
    }
    entries
}

/// One `counts[0] × counts[1]` grid of destination rows for
/// [`PackedPanels::axpy_row_grids`].
#[derive(Debug, Clone, Copy)]
pub struct RowGrid {
    /// Weight row added onto the grid's first destination row.
    pub first_row: usize,
    /// Destination rows along the outer and the inner axis.
    pub counts: [usize; 2],
    /// Offset of the first destination row, in floats.
    pub at: usize,
    /// The factor every weight row is scaled by (the changed input's delta).
    pub scale: f32,
}

/// Blocked fully-connected forward pass: `out[j] = Σ_i w[i][j]·x[i] + b[j]`,
/// the one-row case of [`crate::matmul::matmul_packed_into`] from a
/// bias-seeded `out`. Bit-identical to [`crate::matmul::fc_forward_naive`]
/// at every [`crate::simd::level`]: the same per-output chain — bias first,
/// then every `i` ascending, each step fused (see the [`crate::simd`]
/// contract).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `x` or `bias` disagree with
/// the packed shape.
pub fn fc_forward_packed_into(
    config: &ParallelConfig,
    packed: &PackedPanels,
    x: &[f32],
    bias: &[f32],
    out: &mut Vec<f32>,
) -> Result<(), TensorError> {
    if x.len() != packed.n_in {
        return Err(TensorError::ShapeMismatch {
            context: format!(
                "packed fc input length {} does not match weight rows {}",
                x.len(),
                packed.n_in
            ),
        });
    }
    if bias.len() != packed.n_out {
        return Err(TensorError::ShapeMismatch {
            context: format!(
                "packed fc bias length {} does not match weight cols {}",
                bias.len(),
                packed.n_out
            ),
        });
    }
    out.clear();
    out.extend_from_slice(bias);
    crate::matmul::matmul_packed_into(config, x, packed, 1, out);
    Ok(())
}

/// The scalar walk over every output panel, `out` entering with the biases
/// (or partial sums): four panels at a time with the tile kernel and one at
/// a time for the remainder. Public
/// (but hidden) so the SIMD==scalar equivalence suites can pin the scalar
/// side regardless of the dispatched level.
#[doc(hidden)]
#[inline]
pub fn forward_panels_scalar(packed: &PackedPanels, x: &[f32], out: &mut [f32]) {
    let mut p = 0;
    for seg in out.chunks_mut(TILE_LANES) {
        if seg.len() == TILE_LANES {
            panel_tile_kernel(
                [
                    packed.panel(p),
                    packed.panel(p + 1),
                    packed.panel(p + 2),
                    packed.panel(p + 3),
                ],
                x,
                seg,
            );
            p += TILE_PANELS;
        } else {
            for sub in seg.chunks_mut(PANEL_WIDTH) {
                panel_kernel(packed.panel(p), x, sub);
                p += 1;
            }
        }
    }
}

/// The wide scalar microkernel: accumulates four panels' outputs over all
/// inputs with four independent 16-lane register chains. `seg` enters
/// holding the 64 valid outputs' biases (or partial sums) and leaves
/// holding the results; per-output accumulation order is identical to
/// [`panel_kernel`]'s.
#[inline]
fn panel_tile_kernel(panels: [&[f32]; TILE_PANELS], x: &[f32], seg: &mut [f32]) {
    let mut acc = [0.0f32; TILE_LANES];
    acc.copy_from_slice(seg);
    let rows = x
        .iter()
        .zip(panels[0].chunks_exact(PANEL_WIDTH))
        .zip(panels[1].chunks_exact(PANEL_WIDTH))
        .zip(panels[2].chunks_exact(PANEL_WIDTH))
        .zip(panels[3].chunks_exact(PANEL_WIDTH));
    for ((((&xi, r0), r1), r2), r3) in rows {
        for (t, row) in [r0, r1, r2, r3].into_iter().enumerate() {
            for l in 0..PANEL_WIDTH {
                acc[t * PANEL_WIDTH + l] = xi.mul_add(row[l], acc[t * PANEL_WIDTH + l]);
            }
        }
    }
    seg.copy_from_slice(&acc);
}

/// The 16-lane scalar microkernel: accumulates one panel's outputs over all
/// inputs. `seg` enters holding the bias (or any partial sums) for the
/// panel's `seg.len() ≤ 16` valid outputs and leaves holding the results.
#[inline]
pub(crate) fn panel_kernel(panel: &[f32], x: &[f32], seg: &mut [f32]) {
    let mut acc = [0.0f32; PANEL_WIDTH];
    acc[..seg.len()].copy_from_slice(seg);
    for (i, &xi) in x.iter().enumerate() {
        let row = &panel[i * PANEL_WIDTH..i * PANEL_WIDTH + PANEL_WIDTH];
        for l in 0..PANEL_WIDTH {
            acc[l] = xi.mul_add(row[l], acc[l]);
        }
    }
    seg.copy_from_slice(&acc[..seg.len()]);
}

/// Changed-input deltas batched per correction pass: their weight rows are
/// streamed together so the buffered pre-activation vector is
/// read-modified-written once per batch instead of once per delta.
pub const DELTA_BATCH: usize = 4;

/// Applies a batch of reuse-correction deltas `(i, Δc·s)` to a buffered
/// pre-activation vector `z`, reading the row-major `[n_in, n_out]` weight
/// matrix directly. Deltas are processed [`DELTA_BATCH`] at a time: the
/// batch's weight rows are walked as parallel sequential streams and `z` is
/// loaded and stored once per batch, instead of one full `z`
/// read-modify-write sweep per changed input. Sparse changed sets touch
/// only the changed rows, and every touched cache line is consumed in full.
///
/// Per output `j` the additions are `Δ₀·w[i₀][j], Δ₁·w[i₁][j], …` in
/// `deltas` order, each step fused — exactly the naive correction loop's
/// chain — so the result is bit-identical to the unblocked path (paper
/// Eq. 10) at every [`crate::simd::level`].
///
/// # Panics
///
/// Panics when `z` is not `n_out` long or a delta's row lies outside `w`.
pub fn apply_deltas_rows(
    _config: &ParallelConfig,
    w: &[f32],
    n_out: usize,
    deltas: &[(u32, f32)],
    z: &mut [f32],
) {
    assert_eq!(z.len(), n_out, "buffered outputs vs weight row width");
    match simd::level() {
        simd::SimdLevel::Scalar => apply_deltas_scalar(w, deltas, z),
        #[cfg(target_arch = "x86_64")]
        simd::SimdLevel::Avx2 | simd::SimdLevel::Avx512 => simd::avx2::apply_deltas(w, deltas, z),
    }
}

/// The scalar correction sweep over `z`, one weight row `z.len()` wide per
/// delta. Public (but hidden)
/// for the SIMD==scalar equivalence suites.
#[doc(hidden)]
pub fn apply_deltas_scalar(w: &[f32], deltas: &[(u32, f32)], z: &mut [f32]) {
    let n_out = z.len();
    let mut batches = deltas.chunks_exact(DELTA_BATCH);
    for batch in batches.by_ref() {
        let (i0, d0) = batch[0];
        let (i1, d1) = batch[1];
        let (i2, d2) = batch[2];
        let (i3, d3) = batch[3];
        let r0 = &w[i0 as usize * n_out..][..n_out];
        let r1 = &w[i1 as usize * n_out..][..n_out];
        let r2 = &w[i2 as usize * n_out..][..n_out];
        let r3 = &w[i3 as usize * n_out..][..n_out];
        for (j, zj) in z.iter_mut().enumerate() {
            // One chain per output element, in list order.
            let acc = d0.mul_add(r0[j], *zj);
            let acc = d1.mul_add(r1[j], acc);
            let acc = d2.mul_add(r2[j], acc);
            *zj = d3.mul_add(r3[j], acc);
        }
    }
    for &(i, delta) in batches.remainder() {
        let row = &w[i as usize * n_out..][..n_out];
        for (zj, &wij) in z.iter_mut().zip(row.iter()) {
            *zj = delta.mul_add(wij, *zj);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::fc_forward_naive;
    use crate::Shape;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|v| (v as f32) * 0.25 - 3.0).collect()
    }

    #[test]
    fn pack_layout_round_trips() {
        let (n_in, n_out) = (3, 19); // tail panel of 3 lanes
        let w = ramp(n_in * n_out);
        let packed = PackedPanels::pack_slice(&w, n_in, n_out);
        assert_eq!(packed.n_panels(), 2);
        for p in 0..packed.n_panels() {
            let panel = packed.panel(p);
            for i in 0..n_in {
                for l in 0..PANEL_WIDTH {
                    let j = p * PANEL_WIDTH + l;
                    let expect = if j < n_out { w[i * n_out + j] } else { 0.0 };
                    assert_eq!(panel[i * PANEL_WIDTH + l], expect, "p={p} i={i} l={l}");
                }
            }
        }
    }

    #[test]
    fn packed_forward_matches_naive_kernel() {
        // Bit-identical at every level (see `crate::simd` for the
        // accumulation contract).
        for (n_in, n_out) in [
            (1usize, 1usize),
            (3, 8),
            (5, 13),
            (17, 31),
            (40, 64),
            (9, 70),
        ] {
            let w = Tensor::from_vec(Shape::d2(n_in, n_out), ramp(n_in * n_out)).unwrap();
            let mut xv = ramp(n_in);
            if n_in > 2 {
                xv[2] = 0.0; // an exact zero is multiplied like any input
            }
            let x = Tensor::from_vec(Shape::d1(n_in), xv).unwrap();
            let b = Tensor::from_vec(Shape::d1(n_out), ramp(n_out)).unwrap();
            let cfg = ParallelConfig::serial();
            let naive = fc_forward_naive(&w, &x, &b).unwrap();
            let packed = PackedPanels::pack(&w).unwrap();
            let mut blocked = Vec::new();
            fc_forward_packed_into(&cfg, &packed, x.as_slice(), b.as_slice(), &mut blocked)
                .unwrap();
            let mismatch = simd::kernel_mismatch(&blocked, naive.as_slice());
            assert!(
                mismatch.is_none(),
                "n_in={n_in} n_out={n_out}: {mismatch:?}"
            );
        }
    }

    #[test]
    fn batched_deltas_match_row_walk() {
        // 9 deltas exercises two full DELTA_BATCH groups plus a remainder.
        let (n_in, n_out) = (13usize, 21usize);
        let w = ramp(n_in * n_out);
        let deltas: Vec<(u32, f32)> = vec![
            (0, 0.5),
            (1, -1.25),
            (3, 2.0),
            (4, 0.75),
            (6, -0.5),
            (7, 1.5),
            (9, -2.25),
            (10, 0.25),
            (12, 3.0),
        ];
        let mut z_blocked = ramp(n_out);
        let mut z_naive = z_blocked.clone();
        // Naive order: for each output, deltas applied in list order.
        for &(i, d) in &deltas {
            for (j, zj) in z_naive.iter_mut().enumerate() {
                *zj = d.mul_add(w[i as usize * n_out + j], *zj);
            }
        }
        apply_deltas_rows(
            &ParallelConfig::serial(),
            &w,
            n_out,
            &deltas,
            &mut z_blocked,
        );
        let mismatch = simd::kernel_mismatch(&z_blocked, &z_naive);
        assert!(mismatch.is_none(), "{mismatch:?}");
    }

    #[test]
    #[should_panic(expected = "buffered outputs vs weight row width")]
    fn deltas_reject_a_buffer_off_the_row_width() {
        let w = ramp(3 * 20);
        apply_deltas_rows(
            &ParallelConfig::serial(),
            &w,
            20,
            &[(1, 0.5)],
            &mut [0.0; 24],
        );
    }

    #[test]
    fn pack_rejects_non_rank2() {
        let t = Tensor::zeros(Shape::d1(4));
        assert!(PackedPanels::pack(&t).is_err());
    }

    #[test]
    fn forward_validates_dimensions() {
        let packed = PackedPanels::pack_slice(&ramp(6), 2, 3);
        let mut out = Vec::new();
        let cfg = ParallelConfig::serial();
        assert!(fc_forward_packed_into(&cfg, &packed, &[1.0], &[0.0; 3], &mut out).is_err());
        assert!(fc_forward_packed_into(&cfg, &packed, &[1.0, 2.0], &[0.0; 2], &mut out).is_err());
    }
}
