//! Convolution kernels (2D and 3D) over one rank-generic geometry.
//!
//! The paper evaluates 2D convolutions (AutoPilot, paper Table I) and 3D
//! convolutions (C3D, Eq. 2), both with symmetric zero padding and a
//! configurable stride, so there is one of everything here:
//! [`ConvGeometry`] describes a convolution of either rank (2D is the
//! `kd = 1`, depth-1, `pd = 0` case of 3D), [`conv_forward_into`] is the one
//! kernel, [`conv_forward_naive`] the one oracle, and the
//! `conv2d_*` / `conv3d_*` functions are conversions from [`Conv2dSpec`] /
//! [`Conv3dSpec`] plus output reshaping.
//!
//! The kernel is an implicit GEMM: every output position is a window origin
//! in the input frame (or in its zero-padded copy), and its taps are read
//! straight from there, segment by segment, against the layer's `[taps,
//! out_c]` weights, packed once into [`PackedPanels`] by
//! [`ConvGeometry::pack_weights`]; no tap is copied into an unrolled matrix
//! first. Its natural output is channels-last — `[od·oh·ow, out_c]`, every
//! position's filters contiguous, the layout the reuse correction keeps
//! ([`PackedPanels::axpy_row_grids`]); layer boundaries stay `[out_c, (od,)
//! oh, ow]` and [`transpose_into`], the one layout change, converts.
//!
//! The Table I layer geometries:
//!
//! * AutoPilot: 5×5 kernels stride 2 (CONV1-3) and 3×3 stride 1 (CONV4-5),
//!   no padding.
//! * C3D: 3×3×3 kernels stride 1 with "same" padding (pad 1), pooling
//!   between layers (pool1 is 1×2×2, the rest 2×2×2, ceil mode).
//!
//! Input layout is `[channels, (depth,) height, width]`; weights are
//! `[out_channels, in_channels, (kd,) kh, kw]`.

use core::ops::Range;

use crate::block::{PackedPanels, PANEL_WIDTH};
use crate::simd::{self, SimdLevel};
use crate::{Shape, Tensor, TensorError};

/// Geometry of a convolution of either rank, validated at construction:
/// channels, kernel extents and stride are all non-zero. A 2D convolution is
/// the depth-1 case (`kernel[0] = 1`, `pad[0] = 0`, inputs `[1, h, w]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    in_channels: usize,
    out_channels: usize,
    kernel: [usize; 3],
    stride: usize,
    pad: [usize; 3],
}

impl ConvGeometry {
    /// Builds a geometry from kernel extents `[kd, kh, kw]`, one stride for
    /// every axis and per-axis symmetric zero padding `[pd, ph, pw]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when a channel count, a kernel
    /// extent or the stride is zero, or when the weight volume
    /// `out_c · in_c · kd · kh · kw` does not fit a `usize` (geometries come
    /// from model files; everything downstream sizes buffers from it).
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: [usize; 3],
        stride: usize,
        pad: [usize; 3],
    ) -> Result<Self, TensorError> {
        let volume = kernel
            .iter()
            .try_fold(in_channels, |v, &k| v.checked_mul(k))
            .and_then(|taps| taps.checked_mul(out_channels));
        if stride == 0 || volume.is_none_or(|v| v == 0) {
            return Err(TensorError::ShapeMismatch {
                context: format!(
                    "conv channels, kernel extents and stride must be non-zero and the weight \
                     volume must fit usize: {in_channels}->{out_channels} channels, \
                     kernel {kernel:?}, stride {stride}"
                ),
            });
        }
        Ok(ConvGeometry {
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
        })
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels (filters).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel extents `[kd, kh, kw]`.
    pub fn kernel(&self) -> [usize; 3] {
        self.kernel
    }

    /// Stride along every axis.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Symmetric zero padding `[pd, ph, pw]`.
    pub fn pad(&self) -> [usize; 3] {
        self.pad
    }

    /// Taps per output, `in_c · kd · kh · kw`: the GEMM's inner dimension.
    pub fn taps(&self) -> usize {
        self.in_channels * self.kernel.iter().product::<usize>()
    }

    /// Element count of the `[out_c, in_c, kd, kh, kw]` weights.
    pub fn weight_volume(&self) -> usize {
        self.out_channels * self.taps()
    }

    /// Packs `[out_c, in_c, kd, kh, kw]` filter weights, once per layer, as
    /// the `[taps, out_c]` matrix the forward GEMM and the reuse correction
    /// both read: tap `t` of every filter is one contiguous row.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `weights` does not have
    /// [`Self::weight_volume`] elements.
    pub fn pack_weights(&self, weights: &[f32]) -> Result<PackedPanels, TensorError> {
        if weights.len() != self.weight_volume() {
            return Err(TensorError::ShapeMismatch {
                context: format!("{} conv weights for {self:?}", weights.len()),
            });
        }
        let (taps, out_c) = (self.taps(), self.out_channels);
        let mut by_tap = vec![0.0f32; weights.len()];
        transpose_into(weights, out_c, taps, &mut by_tap);
        Ok(PackedPanels::pack_slice(&by_tap, taps, out_c))
    }

    /// Output extents `[od, oh, ow]` for a `[d, h, w]` input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the padded input is
    /// smaller than the kernel along any axis.
    pub fn output_dhw(&self, dhw: [usize; 3]) -> Result<[usize; 3], TensorError> {
        let mut out = [0; 3];
        for (a, o) in out.iter_mut().enumerate() {
            let padded = dhw[a] + 2 * self.pad[a];
            if padded < self.kernel[a] {
                return Err(TensorError::ShapeMismatch {
                    context: format!(
                        "conv kernel {:?} larger than input {dhw:?} padded by {:?}",
                        self.kernel, self.pad
                    ),
                });
            }
            *o = (padded - self.kernel[a]) / self.stride + 1;
        }
        Ok(out)
    }

    /// Multiply+add count for one forward pass over a `[d, h, w]` input
    /// (zero when the kernel does not fit).
    pub fn flops(&self, dhw: [usize; 3]) -> u64 {
        self.output_dhw(dhw).map_or(0, |o| {
            2 * (o.iter().product::<usize>() * self.weight_volume()) as u64
        })
    }
}

/// Geometry of a 2D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of output channels (filters).
    pub out_channels: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Symmetric zero padding in both spatial dimensions.
    pub pad: usize,
}

impl Conv2dSpec {
    /// The validated rank-generic geometry: depth-1 kernel, no depth padding.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when any channel count, kernel
    /// extent or the stride is zero.
    pub fn geometry(&self) -> Result<ConvGeometry, TensorError> {
        ConvGeometry::new(
            self.in_channels,
            self.out_channels,
            [1, self.kh, self.kw],
            self.stride,
            [0, self.pad, self.pad],
        )
    }

    /// Output spatial size for a given input `(h, w)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the spec is degenerate or
    /// the padded input is smaller than the kernel.
    pub fn output_hw(&self, h: usize, w: usize) -> Result<(usize, usize), TensorError> {
        let [_, oh, ow] = self.geometry()?.output_dhw([1, h, w])?;
        Ok((oh, ow))
    }

    /// Weight tensor shape `[out_c, in_c, kh, kw]`.
    ///
    /// # Panics
    ///
    /// Panics if a channel count or kernel extent is zero; validate untrusted
    /// specs through [`Self::geometry`] first.
    pub fn weight_shape(&self) -> Shape {
        Shape::d4(self.out_channels, self.in_channels, self.kh, self.kw)
    }

    /// Multiply+add count for one forward pass over an `h×w` input.
    pub fn flops(&self, h: usize, w: usize) -> u64 {
        self.geometry().map_or(0, |g| g.flops([1, h, w]))
    }
}

/// Geometry of a 3D convolution (paper Eq. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv3dSpec {
    /// Number of input feature maps.
    pub in_channels: usize,
    /// Number of output feature maps (filters).
    pub out_channels: usize,
    /// Kernel depth (temporal extent).
    pub kd: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride in all three dimensions.
    pub stride: usize,
    /// Symmetric zero padding in all three dimensions.
    pub pad: usize,
}

impl Conv3dSpec {
    /// The validated rank-generic geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when any channel count, kernel
    /// extent or the stride is zero.
    pub fn geometry(&self) -> Result<ConvGeometry, TensorError> {
        ConvGeometry::new(
            self.in_channels,
            self.out_channels,
            [self.kd, self.kh, self.kw],
            self.stride,
            [self.pad; 3],
        )
    }

    /// Output size for a `(d, h, w)` input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the spec is degenerate or
    /// the padded input is smaller than the kernel.
    pub fn output_dhw(
        &self,
        d: usize,
        h: usize,
        w: usize,
    ) -> Result<(usize, usize, usize), TensorError> {
        let [od, oh, ow] = self.geometry()?.output_dhw([d, h, w])?;
        Ok((od, oh, ow))
    }

    /// Weight tensor shape `[out_c, in_c, kd, kh, kw]`.
    ///
    /// # Panics
    ///
    /// Panics if a channel count or kernel extent is zero; validate untrusted
    /// specs through [`Self::geometry`] first.
    pub fn weight_shape(&self) -> Shape {
        Shape::new(&[
            self.out_channels,
            self.in_channels,
            self.kd,
            self.kh,
            self.kw,
        ])
        .expect("conv3d spec fields must be non-zero")
    }

    /// Multiply+add count for one forward pass over a `d×h×w` input.
    pub fn flops(&self, d: usize, h: usize, w: usize) -> u64 {
        self.geometry().map_or(0, |g| g.flops([d, h, w]))
    }
}

/// Output positions per block of the forward, whose results stay cached while
/// every panel walks over them: sized by the outputs, not the taps (C3D-small
/// CONV6's 196 positions are one block), a multiple of the AVX2 group (6) and
/// of the transpose tile (8). DESIGN.md §8 has the sweep.
const BLOCK_POSITIONS: usize = 240;

/// Convolution of either rank over flat buffers — the one kernel every conv
/// entry point runs.
///
/// `x`: `frames` inputs `[in_c, d, h, w]` back to back, with `dhw = [d, h,
/// w]` (`d = 1` for 2D); `panels`: the layer's weights from
/// [`ConvGeometry::pack_weights`]; `bv`: `[out_c]`. Resizes `out` to the flat
/// `[out_c, od, oh, ow]` outputs back to back and overwrites every element,
/// so a buffer that is already large enough is reused as it is. Two
/// allocations per call: the segment table with, when the geometry pads, a
/// zero-padded frame behind it (each frame is copied in once, so no tap is
/// tested against a border); and a block of results. Every output position
/// is a window origin and segment `(ic, kz, ky)` — `kw` taps along x — one
/// offset from it; a block's results are accumulated with every tap read
/// straight from the frame, then transposed into place while they are hot.
///
/// Each block row is seeded with the bias before any tap, so per output
/// element the chain is the bias first, then one fused step per tap in
/// ascending `(ic, kz, ky, kx)` order, a padded tap entering as the padded
/// frame's `0.0`, multiplied like any other input — [`conv_forward_naive`]'s
/// chain, so results are bit-identical to the oracle at either
/// [`crate::simd::level`], and an element's value does not depend on how
/// positions were blocked or grouped.
///
/// # Errors
///
/// Returns [`TensorError`] when a buffer length or the packed shape
/// disagrees with the geometry, or the kernel does not fit the padded input.
pub fn conv_forward_into(
    g: &ConvGeometry,
    dhw: [usize; 3],
    x: &[f32],
    frames: usize,
    panels: &PackedPanels,
    bv: &[f32],
    out: &mut Vec<f32>,
) -> Result<(), TensorError> {
    let (taps, out_c) = (g.taps(), g.out_channels);
    let frame_len = g.in_channels * dhw.iter().product::<usize>();
    let got = [x.len(), panels.n_in(), panels.n_out(), bv.len()];
    let want = [frames * frame_len, taps, out_c, out_c];
    if got != want {
        return Err(TensorError::ShapeMismatch {
            context: format!(
                "conv input/packed taps/packed filters/bias {got:?} != {want:?} for {g:?} on {dhw:?}"
            ),
        });
    }
    let [od, oh, ow] = g.output_dhw(dhw)?;
    let positions = od * oh * ow;
    let block = BLOCK_POSITIONS.min(positions);
    // The frame the windows are read from; its offsets fit the `u32` table.
    let pdhw: [usize; 3] = core::array::from_fn(|a| dhw[a] + 2 * g.pad[a]);
    let padded_len = g.in_channels * pdhw.iter().product::<usize>();
    if u32::try_from(padded_len).is_err() {
        return Err(TensorError::ShapeMismatch {
            context: format!("conv frame of {padded_len} padded values past u32 offsets"),
        });
    }
    let [kd, kh, kw] = g.kernel;
    let ([d, h, w], [pd, ph, pw]) = (dhw, g.pad);
    let segs = g.in_channels * kd * kh;
    // The segment table, then the padded frame (its border never written).
    let xp_len = if g.pad == [0; 3] { 0 } else { padded_len };
    let mut scratch = vec![0.0f32; segs + xp_len];
    let (segments, xp) = scratch.split_at_mut(segs);
    for (i, seg) in segments.iter_mut().enumerate() {
        let (ic, kz, ky) = (i / (kd * kh), i / kh % kd, i % kh);
        *seg = f32::from_bits((((ic * pdhw[0] + kz) * pdhw[1] + ky) * pdhw[2]) as u32);
    }
    let (segments, s) = (&*segments, g.stride);
    let origin = |[oz, oy, ox]: [usize; 3]| (oz * s * pdhw[1] + oy * s) * pdhw[2] + ox * s;
    // Origins and segments ascend, so the last position's last segment
    // reaches furthest: every window of the call ends inside its frame.
    let reach = origin([od - 1, oh - 1, ow - 1]) + segments[segs - 1].to_bits() as usize + kw;
    let span = if xp.is_empty() { frame_len } else { padded_len };
    assert!(reach <= span, "conv windows reach {reach} of {span} floats");
    // Result rows of whole panels: the lanes past `out_c` are computed
    // against the panels' zero padding and never read.
    let width = panels.n_panels() * PANEL_WIDTH;
    let mut c = vec![0.0f32; block * width];
    out.resize(frames * out_c * positions, 0.0);
    let level = simd::level();
    let mut origins = [0usize; BLOCK_POSITIONS];
    let inputs = x.chunks_exact(frame_len.max(1));
    for (x, out) in inputs.zip(out.chunks_exact_mut(out_c * positions)) {
        let x = if xp.is_empty() {
            x
        } else {
            for (i, xrow) in x.chunks_exact(w.max(1)).enumerate() {
                let (ic, z, y) = (i / (d * h), i / h % d, i % h);
                let at = ((ic * pdhw[0] + z + pd) * pdhw[1] + y + ph) * pdhw[2] + pw;
                xp[at..at + w].copy_from_slice(xrow);
            }
            &*xp
        };
        // `[oz, oy, ox]` of the next position.
        let mut at = [0; 3];
        for first in (0..positions).step_by(block) {
            let rows = block.min(positions - first);
            let (origins, c) = (&mut origins[..rows], &mut c[..rows * width]);
            for o in origins.iter_mut() {
                *o = origin(at);
                at[2] += 1;
                if at[2] == ow {
                    at = [at[0] + (at[1] + 1) / oh, (at[1] + 1) % oh, 0];
                }
            }
            for crow in c.chunks_exact_mut(width) {
                crow[..out_c].copy_from_slice(bv);
            }
            // SAFETY (both vector arms): the level resolved to AVX2 or
            // AVX-512, so the host runs it; `panels` has `segs · kw` rows
            // (checked on entry), `c` is `rows` rows of whole panels, and the
            // reach assert bounds every window inside `x` (no origin is past
            // the last position's).
            match level {
                SimdLevel::Scalar => conv_block_scalar(x, segments, kw, origins, panels, c),
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx2 => unsafe {
                    simd::avx2::conv_block(x, segments, kw, origins, panels, c);
                },
                #[cfg(target_arch = "x86_64")]
                SimdLevel::Avx512 => unsafe {
                    simd::avx512::conv_block(x, segments, kw, origins, panels, c);
                },
            }
            transpose_strided(c, width, out_c, &mut out[first..], positions);
        }
    }
    Ok(())
}

/// The scalar level's block of [`conv_forward_into`]: the AVX2 body's chains
/// as a plain loop, position by position, one panel's lanes at a time.
fn conv_block_scalar(
    x: &[f32],
    segments: &[f32],
    kw: usize,
    origins: &[usize],
    panels: &PackedPanels,
    c: &mut [f32],
) {
    let width = panels.n_panels() * PANEL_WIDTH;
    for (crow, &origin) in c.chunks_exact_mut(width).zip(origins) {
        for (p, out) in crow.chunks_exact_mut(PANEL_WIDTH).enumerate() {
            let mut wrows = panels.panel(p).chunks_exact(PANEL_WIDTH);
            for seg in segments {
                let at = origin + seg.to_bits() as usize;
                for (&xv, wrow) in x[at..at + kw].iter().zip(wrows.by_ref()) {
                    for (o, &wv) in out.iter_mut().zip(wrow) {
                        *o = xv.mul_add(wv, *o);
                    }
                }
            }
        }
    }
}

/// Writes the transpose of the row-major `[rows, cols]` matrix `src` into
/// `dst`: every layout change of the conv path (`[positions, out_c]` to and
/// from `[out_c, positions]`, filters to `[taps, out_c]`). 8×8 register tiles
/// under AVX2, 32×32 tiles at the scalar level; a copy, so the same bits.
///
/// # Panics
///
/// Panics when `src` or `dst` does not hold `rows * cols` elements.
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "transpose source shape");
    assert_eq!(dst.len(), rows * cols, "transpose destination shape");
    transpose_strided(src, cols, cols, dst, rows);
}

/// [`transpose_into`] of the first `cols` floats of every `width`-float row
/// of `src` into rows `stride` floats apart, `dst[c·stride + r] = src[r·width
/// + c]`: how the forward writes a block into every filter's map. Panics
/// when `dst` ends before the last column's image does.
fn transpose_strided(src: &[f32], width: usize, cols: usize, dst: &mut [f32], stride: usize) {
    let rows = src.len().checked_div(width).unwrap_or(0);
    if rows == 0 || cols == 0 {
        return;
    }
    let fits = cols <= width && rows <= stride && (cols - 1) * stride + rows <= dst.len();
    assert!(fits, "{rows}x{cols} transpose past {} floats", dst.len());
    match simd::level() {
        // SAFETY: the level resolved to AVX2 or above, so the host runs
        // AVX2; `fits` is the bounds the body relies on.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe {
            simd::avx2::transpose(src, width, cols, dst, stride)
        },
        SimdLevel::Scalar => {
            const TILE: usize = 32;
            for r0 in (0..rows).step_by(TILE) {
                for c0 in (0..cols).step_by(TILE) {
                    let tile = (r0..(r0 + TILE).min(rows), c0..(c0 + TILE).min(cols));
                    transpose_span(src, width, dst, stride, tile.0, tile.1);
                }
            }
        }
    }
}

/// The scalar transpose of `rows × cols` of `src` (`width` floats a row) into
/// `dst` rows `stride` apart: the scalar tiles and the AVX2 edge strips.
pub(crate) fn transpose_span(
    src: &[f32],
    width: usize,
    dst: &mut [f32],
    stride: usize,
    rows: Range<usize>,
    cols: Range<usize>,
) {
    for c in cols {
        for r in rows.clone() {
            dst[c * stride + r] = src[r * width + c];
        }
    }
}

/// The oracle for [`conv_forward_into`] at either rank: the direct
/// per-output loop over raw `[out_c, in_c, kd, kh, kw]` weights, one fused
/// step per tap from the bias. A tap in the zero padding contributes its
/// `0.0 · w` like the padded frame's `0.0` it stands for (it can turn a
/// `−0.0` bias into `+0.0`; skipping it would leave the sign to the body).
/// Kept public so proptests across the workspace can compare the kernel
/// against it.
///
/// # Errors
///
/// Returns [`TensorError`] when a buffer length disagrees with the geometry
/// or the kernel does not fit the padded input.
pub fn conv_forward_naive(
    g: &ConvGeometry,
    dhw: [usize; 3],
    x: &[f32],
    wv: &[f32],
    bv: &[f32],
) -> Result<Vec<f32>, TensorError> {
    let got = [x.len(), wv.len(), bv.len()];
    let want = [
        g.in_channels * dhw.iter().product::<usize>(),
        g.weight_volume(),
        g.out_channels,
    ];
    if got != want {
        return Err(TensorError::ShapeMismatch {
            context: format!("conv input/weights/bias {got:?} != {want:?} for {g:?} on {dhw:?}"),
        });
    }
    let [od, oh, ow] = g.output_dhw(dhw)?;
    let [d, h, w] = dhw;
    let [kd, kh, kw] = g.kernel;
    let [pd, ph, pw] = g.pad;
    // The input coordinate under kernel offset `k` of output coordinate `o`,
    // or `None` in the zero padding.
    let at = |o: usize, k: usize, pad: usize, n: usize| {
        (o * g.stride + k).checked_sub(pad).filter(|&i| i < n)
    };
    let mut out = vec![0.0f32; g.out_channels * od * oh * ow];
    for (oc, vol) in out.chunks_mut(od * oh * ow).enumerate() {
        let filter = &wv[oc * g.taps()..][..g.taps()];
        for (p, o) in vol.iter_mut().enumerate() {
            let (oz, oy, ox) = (p / (oh * ow), p / ow % oh, p % ow);
            let mut taps = filter.iter();
            let mut acc = bv[oc];
            for ic in 0..g.in_channels {
                for kz in 0..kd {
                    for ky in 0..kh {
                        for (kx, &wt) in taps.by_ref().take(kw).enumerate() {
                            let inside = (at(oz, kz, pd, d), at(oy, ky, ph, h), at(ox, kx, pw, w));
                            let xv = match inside {
                                (Some(iz), Some(iy), Some(ix)) => {
                                    x[((ic * d + iz) * h + iy) * w + ix]
                                }
                                _ => 0.0,
                            };
                            acc = xv.mul_add(wt, acc);
                        }
                    }
                }
            }
            *o = acc;
        }
    }
    Ok(out)
}

/// The `Tensor`-level convolution behind [`conv2d_forward`] and
/// [`conv3d_forward`]: checks the `rank`-dimensional (2 or 3) input and the
/// raw weight tensor against the geometry, packs the weights and runs
/// [`conv_forward_into`]. Returns `[out_c, (od,) oh, ow]`.
fn forward_unpacked(
    g: &ConvGeometry,
    rank: usize,
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
) -> Result<Tensor, TensorError> {
    let idims = input.shape().dims();
    if idims.len() != rank + 1 || idims[0] != g.in_channels {
        return Err(TensorError::ShapeMismatch {
            context: format!("conv{rank}d input {} does not match {g:?}", input.shape()),
        });
    }
    let wdims = weights.shape().dims();
    if wdims.len() != rank + 2
        || wdims[..2] != [g.out_channels, g.in_channels]
        || wdims[2..] != g.kernel[3 - rank..]
    {
        return Err(TensorError::ShapeMismatch {
            context: format!("conv{rank}d weights {} do not match {g:?}", weights.shape()),
        });
    }
    let mut dhw = [1; 3];
    dhw[3 - rank..].copy_from_slice(&idims[1..]);
    let panels = g.pack_weights(weights.as_slice())?;
    let mut out = Vec::new();
    conv_forward_into(
        g,
        dhw,
        input.as_slice(),
        1,
        &panels,
        bias.as_slice(),
        &mut out,
    )?;
    let [od, oh, ow] = g.output_dhw(dhw)?;
    let shape = match rank {
        2 => Shape::d3(g.out_channels, oh, ow),
        _ => Shape::d4(g.out_channels, od, oh, ow),
    };
    Tensor::from_vec(shape, out)
}

/// 2D convolution with symmetric zero padding, packing `weights` on every
/// call (layers pack once and call [`conv_forward_into`]).
///
/// `input`: `[in_c, h, w]`; `weights`: `[out_c, in_c, kh, kw]`;
/// `bias`: `[out_c]`. Returns `[out_c, oh, ow]`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when any dimension disagrees with
/// the spec.
pub fn conv2d_forward(
    spec: &Conv2dSpec,
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
) -> Result<Tensor, TensorError> {
    forward_unpacked(&spec.geometry()?, 2, input, weights, bias)
}

/// 3D convolution with symmetric zero padding (paper Eq. 2), packing
/// `weights` on every call (layers pack once and call [`conv_forward_into`]).
///
/// `input`: `[in_c, d, h, w]`; `weights`: `[out_c, in_c, kd, kh, kw]`;
/// `bias`: `[out_c]`. Returns `[out_c, od, oh, ow]`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when any dimension disagrees with
/// the spec.
pub fn conv3d_forward(
    spec: &Conv3dSpec,
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
) -> Result<Tensor, TensorError> {
    forward_unpacked(&spec.geometry()?, 3, input, weights, bias)
}

fn pool_extent(size: usize, window: usize, stride: usize, ceil: bool) -> usize {
    if size < window {
        return 0;
    }
    let span = size - window;
    if ceil && !span.is_multiple_of(stride) {
        span / stride + 2
    } else {
        span / stride + 1
    }
}

/// Input columns the pooling passes hold on the stack at a time.
const POOL_TILE: usize = 128;

/// The pooled extent `[od, oh, ow]` of `len` values in `[d, h, w]` volumes
/// (2D pooling is the depth-1 case): the one pooling shape rule, which
/// [`max_pool_into`] and shape inference both apply.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the inputs are bad for
/// pooling: a zero stride (rejected before any division), an empty or ragged
/// volume, a window larger than an axis, or a ceil-mode stride so far past its
/// window that the last window would start beyond the edge and hold no input
/// at all.
pub fn pool_output_dhw(
    len: usize,
    dhw: [usize; 3],
    window: [usize; 3],
    stride: [usize; 3],
    ceil: bool,
) -> Result<[usize; 3], TensorError> {
    let volume: usize = dhw.iter().product();
    if stride.contains(&0) || volume == 0 || !len.is_multiple_of(volume) {
        return Err(TensorError::ShapeMismatch {
            context: format!("pool stride {stride:?} over {len} values in {dhw:?} volumes"),
        });
    }
    let out_dhw: [usize; 3] =
        core::array::from_fn(|a| pool_extent(dhw[a], window[a], stride[a], ceil));
    if out_dhw.contains(&0) {
        return Err(TensorError::ShapeMismatch {
            context: format!("pool window {window:?} larger than input {dhw:?}"),
        });
    }
    if (0..3).any(|a| (out_dhw[a] - 1) * stride[a] >= dhw[a]) {
        return Err(TensorError::ShapeMismatch {
            context: format!("pool stride {stride:?} steps a ceil window past input {dhw:?}"),
        });
    }
    Ok(out_dhw)
}

/// Max pooling of either rank over flat `[c, d, h, w]` data (2D is the
/// depth-1 case with a depth-1 window): clears `out`, writes the pooled
/// `[c, od, oh, ow]` data into it and returns `[od, oh, ow]`. In ceil mode
/// (Caffe's convention, used by C3D) a final partial window is emitted when
/// the stride does not divide an axis evenly; it may hang over the edge, and
/// each window's ends are clamped once per output rather than every tap being
/// tested.
///
/// Two passes per output row, `POOL_TILE` (128) input columns at a time: the
/// window's `(iz, iy)` input rows are folded elementwise into a stack tile
/// (whole rows, which the compiler vectorises), then each output folds its
/// columns of the tile. Every fold is the select `if v > m { m = v }` from
/// `−∞`: a NaN never wins, exactly as `f32::max` ignores it, and an all-NaN
/// window yields `−∞`. The one thing the fold order can show in is the sign
/// of a zero maximum — `+0.0` and `−0.0` compare equal, so whichever a fold
/// meets first stays.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when a stride is zero, a window does
/// not fit its axis, a ceil-mode window would start past the edge, or `x` is
/// not a whole number of `d·h·w` volumes.
pub fn max_pool_into(
    x: &[f32],
    dhw: [usize; 3],
    window: [usize; 3],
    stride: [usize; 3],
    ceil: bool,
    out: &mut Vec<f32>,
) -> Result<[usize; 3], TensorError> {
    let [od, oh, ow] = pool_output_dhw(x.len(), dhw, window, stride, ceil)?;
    let [d, h, w] = dhw;
    let volume = d * h * w;
    let ends = |o: usize, a: usize| (o * stride[a], (o * stride[a] + window[a]).min(dhw[a]));
    // A select and an unconditional store (a conditional one would keep the
    // row folds scalar).
    let keep_max = |m: &mut f32, v: f32| *m = if v > *m { v } else { *m };
    out.clear();
    out.resize(x.len() / volume * od * oh * ow, f32::NEG_INFINITY);
    let mut out_rows = out.chunks_exact_mut(ow);
    let mut tile = [0.0f32; POOL_TILE];
    for channel in x.chunks_exact(volume) {
        for oz in 0..od {
            let (z0, z1) = ends(oz, 0);
            for oy in 0..oh {
                let (y0, y1) = ends(oy, 1);
                let out_row = out_rows.next().expect("one output row per (c, oz, oy)");
                for c0 in (0..w).step_by(POOL_TILE) {
                    let tile = &mut tile[..(w - c0).min(POOL_TILE)];
                    tile.fill(f32::NEG_INFINITY);
                    for iz in z0..z1 {
                        for iy in y0..y1 {
                            let row = &channel[(iz * h + iy) * w + c0..][..tile.len()];
                            for (m, &v) in tile.iter_mut().zip(row) {
                                keep_max(m, v);
                            }
                        }
                    }
                    if window[2] == 2 && stride[2] == 2 {
                        // Windows never straddle a tile (its width is even):
                        // whole pairs, which the compiler de-interleaves
                        // into vectors, then the ceil-mode single column.
                        let (pairs, last) = tile.as_chunks::<2>();
                        let outs = &mut out_row[c0 / 2..];
                        for (m, &[a, b]) in outs.iter_mut().zip(pairs) {
                            keep_max(m, a);
                            keep_max(m, b);
                        }
                        if let (Some(m), &[v]) = (outs.get_mut(pairs.len()), last) {
                            keep_max(m, v);
                        }
                        continue;
                    }
                    // The outputs whose windows reach into this tile, each
                    // folding the columns it has there.
                    let first = (c0 + 1).saturating_sub(window[2]).div_ceil(stride[2]);
                    for (ox, m) in out_row.iter_mut().enumerate().skip(first) {
                        let (x0, x1) = ends(ox, 2);
                        if x0 >= c0 + tile.len() {
                            break;
                        }
                        let from = x0.max(c0) - c0;
                        let to = x1.min(c0 + tile.len()) - c0;
                        tile[from..to].iter().for_each(|&v| keep_max(m, v));
                    }
                }
            }
        }
    }
    Ok([od, oh, ow])
}

/// The per-output nest [`max_pool_into`] replaced, kept as its oracle: every
/// window folded tap by tap through `f32::max`.
#[cfg(test)]
fn max_pool_naive(
    x: &[f32],
    dhw: [usize; 3],
    window: [usize; 3],
    stride: [usize; 3],
    ceil: bool,
) -> Result<([usize; 3], Vec<f32>), TensorError> {
    let [od, oh, ow] = pool_output_dhw(x.len(), dhw, window, stride, ceil)?;
    let [d, h, w] = dhw;
    let ends = |o: usize, a: usize| (o * stride[a], (o * stride[a] + window[a]).min(dhw[a]));
    let mut out = Vec::new();
    for channel in x.chunks_exact(d * h * w) {
        for oz in 0..od {
            let (z0, z1) = ends(oz, 0);
            for oy in 0..oh {
                let (y0, y1) = ends(oy, 1);
                out.extend((0..ow).map(|ox| {
                    let (x0, x1) = ends(ox, 2);
                    let mut m = f32::NEG_INFINITY;
                    for iz in z0..z1 {
                        for iy in y0..y1 {
                            let row = (iz * h + iy) * w;
                            for &v in &channel[row + x0..row + x1] {
                                m = m.max(v);
                            }
                        }
                    }
                    m
                }));
            }
        }
    }
    Ok(([od, oh, ow], out))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2D spec with a square `k×k` kernel.
    fn spec2(in_c: usize, out_c: usize, k: usize, stride: usize, pad: usize) -> Conv2dSpec {
        Conv2dSpec {
            in_channels: in_c,
            out_channels: out_c,
            kh: k,
            kw: k,
            stride,
            pad,
        }
    }

    /// A 3D spec with a `kd×k×k` kernel.
    fn spec3(
        in_c: usize,
        out_c: usize,
        [kd, k]: [usize; 2],
        stride: usize,
        pad: usize,
    ) -> Conv3dSpec {
        Conv3dSpec {
            in_channels: in_c,
            out_channels: out_c,
            kd,
            kh: k,
            kw: k,
            stride,
            pad,
        }
    }

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1 reproduces the input.
        let spec = spec2(1, 1, 1, 1, 0);
        let input = Tensor::from_vec(Shape::d3(1, 2, 2), vec![1., 2., 3., 4.]).unwrap();
        let w = Tensor::from_vec(spec.weight_shape(), vec![1.0]).unwrap();
        let b = Tensor::from_slice_1d(&[0.0]).unwrap();
        let out = conv2d_forward(&spec, &input, &w, &b).unwrap();
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn conv2d_sum_kernel() {
        // 2x2 all-ones kernel computes window sums.
        let spec = spec2(1, 1, 2, 1, 0);
        let input =
            Tensor::from_vec(Shape::d3(1, 3, 3), (1..=9).map(|v| v as f32).collect()).unwrap();
        let w = Tensor::from_vec(spec.weight_shape(), vec![1.0; 4]).unwrap();
        let b = Tensor::from_slice_1d(&[0.0]).unwrap();
        let out = conv2d_forward(&spec, &input, &w, &b).unwrap();
        assert_eq!(out.shape().dims(), &[1, 2, 2]);
        assert_eq!(out.as_slice(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv2d_stride_two() {
        let spec = spec2(1, 1, 1, 2, 0);
        let input =
            Tensor::from_vec(Shape::d3(1, 3, 3), (0..9).map(|v| v as f32).collect()).unwrap();
        let w = Tensor::from_vec(spec.weight_shape(), vec![1.0]).unwrap();
        let b = Tensor::from_slice_1d(&[0.0]).unwrap();
        let out = conv2d_forward(&spec, &input, &w, &b).unwrap();
        assert_eq!(out.as_slice(), &[0.0, 2.0, 6.0, 8.0]);
    }

    #[test]
    fn conv2d_same_padding_preserves_size() {
        let spec = spec2(1, 1, 3, 1, 1);
        assert_eq!(spec.output_hw(5, 7).unwrap(), (5, 7));
        let input = Tensor::from_vec(Shape::d3(1, 3, 3), vec![1.0; 9]).unwrap();
        let w = Tensor::from_vec(spec.weight_shape(), vec![1.0; 9]).unwrap();
        let b = Tensor::from_slice_1d(&[0.0]).unwrap();
        let out = conv2d_forward(&spec, &input, &w, &b).unwrap();
        // Center sees all 9 ones; corners see only 4, edges 6.
        assert_eq!(
            out.as_slice(),
            &[4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]
        );
    }

    #[test]
    fn conv2d_multi_channel_accumulates() {
        let spec = spec2(2, 1, 1, 1, 0);
        let input = Tensor::from_vec(Shape::d3(2, 1, 1), vec![3.0, 4.0]).unwrap();
        let w = Tensor::from_vec(spec.weight_shape(), vec![1.0, 10.0]).unwrap();
        let b = Tensor::from_slice_1d(&[0.5]).unwrap();
        let out = conv2d_forward(&spec, &input, &w, &b).unwrap();
        assert_eq!(out.as_slice(), &[3.0 + 40.0 + 0.5]);
    }

    #[test]
    fn conv2d_bias_per_filter() {
        let spec = spec2(1, 2, 1, 1, 0);
        let input = Tensor::from_vec(Shape::d3(1, 1, 1), vec![1.0]).unwrap();
        let w = Tensor::from_vec(spec.weight_shape(), vec![2.0, 3.0]).unwrap();
        let b = Tensor::from_slice_1d(&[10.0, 20.0]).unwrap();
        let out = conv2d_forward(&spec, &input, &w, &b).unwrap();
        assert_eq!(out.as_slice(), &[12.0, 23.0]);
    }

    #[test]
    fn conv3d_temporal_sum() {
        // Kernel 2x1x1 of ones sums adjacent frames.
        let spec = spec3(1, 1, [2, 1], 1, 0);
        let input = Tensor::from_vec(Shape::d4(1, 3, 1, 1), vec![1.0, 2.0, 4.0]).unwrap();
        let w = Tensor::from_vec(spec.weight_shape(), vec![1.0, 1.0]).unwrap();
        let b = Tensor::from_slice_1d(&[0.0]).unwrap();
        let out = conv3d_forward(&spec, &input, &w, &b).unwrap();
        assert_eq!(out.as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn conv3d_same_padding_preserves_size() {
        // The C3D convention: 3x3x3 kernel, stride 1, pad 1.
        let spec = spec3(1, 1, [3, 3], 1, 1);
        assert_eq!(spec.output_dhw(16, 112, 112).unwrap(), (16, 112, 112));
    }

    #[test]
    fn output_geometry() {
        // AutoPilot CONV1: 3x66x200 -> 24x31x98 with 5x5 stride 2.
        let spec = spec2(3, 24, 5, 2, 0);
        assert_eq!(spec.output_hw(66, 200).unwrap(), (31, 98));
        // kernel larger than input
        assert!(spec.output_hw(4, 4).is_err());
    }

    #[test]
    fn flop_counts() {
        let spec = spec2(1, 1, 2, 1, 0);
        // 2x2 output, 4 macs each, x2 for mul+add.
        assert_eq!(spec.flops(3, 3), 2 * 4 * 4);
    }

    #[test]
    fn degenerate_geometry_is_an_error_at_both_ranks() {
        // Stride 0 used to divide by zero in output_hw / output_dhw.
        assert!(spec2(1, 2, 3, 1, 0).geometry().is_ok());
        assert!(spec3(1, 2, [3, 3], 1, 0).geometry().is_ok());
        for bad in [
            spec2(1, 2, 3, 0, 0),
            spec2(1, 2, 0, 1, 0),
            spec2(0, 2, 3, 1, 0),
        ] {
            assert!(bad.geometry().is_err(), "{bad:?}");
            assert!(bad.output_hw(8, 8).is_err(), "{bad:?}");
            assert_eq!(bad.flops(8, 8), 0);
        }
        for bad in [
            spec3(1, 2, [3, 3], 0, 0),
            spec3(1, 2, [0, 3], 1, 0),
            spec3(1, 0, [3, 3], 1, 0),
        ] {
            assert!(bad.geometry().is_err(), "{bad:?}");
            assert!(bad.output_dhw(8, 8, 8).is_err(), "{bad:?}");
            assert_eq!(bad.flops(8, 8, 8), 0);
        }
        // A weight volume past usize is refused here, before anything sizes
        // a buffer from it (model files supply these numbers).
        let huge = usize::MAX / 2 + 1;
        assert!(spec2(huge, huge, 3, 1, 0).geometry().is_err());
        assert!(spec3(2, 3, [huge, 3], 1, 0).geometry().is_err());
    }

    /// Pools one `[d, h, w]` volume with a `[wd, whw, whw]` window and a
    /// `[sd, shw, shw]` stride; returns the pooled data and its extents.
    fn pool(
        x: &[f32],
        dhw: [usize; 3],
        [wd, whw]: [usize; 2],
        [sd, shw]: [usize; 2],
        ceil: bool,
    ) -> Result<(Vec<f32>, [usize; 3]), TensorError> {
        let mut out = vec![f32::NAN; 3];
        let dims = max_pool_into(x, dhw, [wd, whw, whw], [sd, shw, shw], ceil, &mut out)?;
        Ok((out, dims))
    }

    #[test]
    fn max_pool2d_takes_window_max() {
        let x = [1., 5., 2., 0., 3., 4., 8., 1.];
        let (out, dims) = pool(&x, [1, 2, 4], [1, 2], [1, 2], false).unwrap();
        assert_eq!(dims, [1, 1, 2]);
        assert_eq!(out, [5.0, 8.0]);
    }

    #[test]
    fn max_pool2d_ceil_emits_partial_window() {
        let (_, floor) = pool(&[1., 2., 3., 4., 9.], [1, 1, 5], [1, 1], [1, 2], false).unwrap();
        assert_eq!(floor, [1, 1, 3]);
        let x: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let (ceil, dims) = pool(&x, [1, 3, 3], [1, 2], [1, 2], true).unwrap();
        assert_eq!(dims, [1, 2, 2]);
        assert_eq!(ceil, [5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn max_pool_ceil_partial_windows_see_only_real_inputs() {
        // 2D, window 2 stride 2 on 3x5: the last row and column of windows
        // hang over the edge and hold one or two inputs. All-negative
        // inputs: a phantom 0.0 tap would win every maximum.
        let v: Vec<f32> = (1..=15).map(|v| -(v as f32)).collect();
        let (out, dims) = pool(&v, [1, 3, 5], [1, 2], [1, 2], true).unwrap();
        assert_eq!(dims, [1, 2, 3]);
        assert_eq!(out, [-1., -3., -5., -11., -13., -15.]);
        // 3D, 2x2x2 on 3x3x3: the corner window is the single last voxel.
        let v: Vec<f32> = (1..=27).map(|v| -(v as f32)).collect();
        let (out, dims) = pool(&v, [3, 3, 3], [2, 2], [2, 2], true).unwrap();
        assert_eq!(dims, [2, 2, 2]);
        assert_eq!(out, [-1., -3., -7., -9., -19., -21., -25., -27.]);
    }

    #[test]
    fn max_pool3d_c3d_style() {
        let x = [1., 2., 3., 4., 5., 6., 7., 8.];
        // pool 1x2x2 keeps depth.
        let (out, dims) = pool(&x, [2, 2, 2], [1, 2], [1, 2], false).unwrap();
        assert_eq!(dims, [2, 1, 1]);
        assert_eq!(out, [4.0, 8.0]);
        // pool 2x2x2 collapses depth too.
        let (out2, _) = pool(&x, [2, 2, 2], [2, 2], [2, 2], false).unwrap();
        assert_eq!(out2, [8.0]);
    }

    #[test]
    fn max_pool3d_ceil_matches_c3d_pool5() {
        // C3D pool5: 512x2x7x7 --2x2x2 ceil--> 512x1x4x4, every channel
        // pooled on its own.
        let (out, dims) = pool(&[0.0; 2 * 98], [2, 7, 7], [2, 2], [2, 2], true).unwrap();
        assert_eq!(dims, [1, 4, 4]);
        assert_eq!(out.len(), 2 * 16);
    }

    #[test]
    fn pool_rejects_oversized_window() {
        // A window larger than the plane, a zero stride, and data that is
        // not a whole number of volumes.
        assert!(pool(&[0.0; 4], [1, 2, 2], [1, 3], [1, 3], false).is_err());
        assert!(pool(&[0.0; 4], [1, 2, 2], [1, 2], [1, 0], false).is_err());
        assert!(pool(&[0.0; 5], [1, 2, 2], [1, 2], [1, 2], false).is_err());
        // Ceil mode, width 8, window 1, stride 3: a fourth window would
        // start at column 9 (this used to panic on an inverted slice).
        assert!(pool(&[0.0; 8], [1, 1, 8], [1, 1], [1, 3], true).is_err());
        assert!(pool(&[0.0; 8], [1, 1, 8], [1, 1], [1, 3], false).is_ok());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(192))]

        /// The two-pass pooling against the per-output nest it replaced,
        /// bit for bit: ceil-mode partial windows, strides off the window,
        /// rows and windows wider than the stack tile, widths off every
        /// vector width, and NaN, ±∞ and ±0.0 among the inputs. The one
        /// licence is the sign of a zero maximum, which `f32::max` leaves
        /// open and the fold order decides.
        #[test]
        fn max_pool_matches_the_per_output_nest_bitwise(
            channels in 1usize..3,
            (d, h) in (1usize..4, 1usize..6),
            w in proptest::sample::select(vec![1usize, 2, 5, 8, 9, 17, 31, 127, 129, 263]),
            (wd, wh) in (1usize..3, 1usize..4),
            ww in proptest::sample::select(vec![1usize, 2, 3, 5, 130]),
            (sd, sh, sw) in (1usize..3, 1usize..3, 1usize..4),
            ceil in proptest::sample::select(vec![false, true]),
            seed in 0u64..1_000_000,
        ) {
            let (dhw, window, stride) = ([d, h, w], [wd, wh, ww], [sd, sh, sw]);
            let mut s = seed | 1;
            let x: Vec<f32> = (0..channels * d * h * w)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    match (s >> 33) % 16 {
                        0 => f32::NAN,
                        1 => 0.0,
                        2 => -0.0,
                        3 => f32::NEG_INFINITY,
                        4 => f32::INFINITY,
                        _ => ((s >> 40) % 2001) as f32 / 100.0 - 10.0,
                    }
                })
                .collect();
            let mut out = vec![7.0; 3];
            let got = max_pool_into(&x, dhw, window, stride, ceil, &mut out);
            let want = max_pool_naive(&x, dhw, window, stride, ceil);
            proptest::prop_assert_eq!(got.is_ok(), want.is_ok());
            if let (Ok(got_dhw), Ok((want_dhw, want))) = (got, want) {
                proptest::prop_assert_eq!(got_dhw, want_dhw);
                proptest::prop_assert_eq!(out.len(), want.len());
                for (i, (a, b)) in out.iter().zip(&want).enumerate() {
                    let same = a.to_bits() == b.to_bits() || (*a == 0.0 && *b == 0.0);
                    proptest::prop_assert!(same, "out[{i}]: {a:e} vs {b:e}");
                }
            }
        }
    }

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|v| (v as f32) * 0.31 - 4.0).collect()
    }

    /// The kernel against the oracle on ramp data, bit for bit.
    fn gemm_mismatch(g: &ConvGeometry, dhw: [usize; 3]) -> Option<String> {
        let x = ramp(g.in_channels() * dhw.iter().product::<usize>());
        let (w, b) = (ramp(g.weight_volume()), ramp(g.out_channels()));
        let naive = conv_forward_naive(g, dhw, &x, &w, &b).unwrap();
        let panels = g.pack_weights(&w).unwrap();
        // A stale, oversized buffer: the kernel must size and overwrite it.
        let mut gemm = vec![f32::NAN; naive.len() + 5];
        conv_forward_into(g, dhw, &x, 1, &panels, &b, &mut gemm).unwrap();
        crate::simd::kernel_mismatch(&gemm, &naive)
    }

    #[test]
    fn blocked_conv2d_matches_naive() {
        // (in_c, out_c, k, stride, pad, h, w) — borders, stride>1, 1×1,
        // filter counts off the 16-lane panel, position counts off the
        // six-position group (45, 18, 3038 over thirteen blocks).
        for (ic, oc, k, s, p, h, w) in [
            (1usize, 1usize, 1usize, 1usize, 0usize, 5usize, 9usize),
            (2, 3, 3, 1, 1, 6, 11),
            (3, 2, 5, 2, 0, 9, 17),
            (1, 2, 3, 2, 2, 4, 4),
            (4, 17, 3, 1, 0, 3, 20),
            (3, 7, 5, 2, 0, 66, 200),
        ] {
            let g = spec2(ic, oc, k, s, p).geometry().unwrap();
            let mismatch = gemm_mismatch(&g, [1, h, w]);
            assert!(mismatch.is_none(), "{g:?} on {h}x{w}: {mismatch:?}");
        }
    }

    #[test]
    fn blocked_conv3d_matches_naive() {
        // 4x5x11 under three stride/pad pairs, then a prime position count
        // (1x1x37) and filters past one panel.
        for (oc, s, p, dhw) in [
            (3usize, 1usize, 0usize, [4usize, 5usize, 11usize]),
            (3, 1, 1, [4, 5, 11]),
            (3, 2, 1, [4, 5, 11]),
            (17, 1, 1, [1, 1, 37]),
        ] {
            let g = spec3(2, oc, [3, 3], s, p).geometry().unwrap();
            let mismatch = gemm_mismatch(&g, dhw);
            assert!(mismatch.is_none(), "{g:?} on {dhw:?}: {mismatch:?}");
        }
    }
}
