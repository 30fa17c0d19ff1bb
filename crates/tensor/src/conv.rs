//! Direct convolution kernels (2D and 3D) over one rank-generic geometry.
//!
//! The paper evaluates 2D convolutions (AutoPilot, paper Table I) and 3D
//! convolutions (C3D, Eq. 2). Both are the same loop nest — direct
//! convolution (no im2col) with symmetric zero padding and a configurable
//! stride — so there is one of everything here: [`ConvGeometry`] describes a
//! convolution of either rank (2D is the `kd = 1`, depth-1, `pd = 0` case of
//! 3D), [`conv_forward_with`] is the one blocked kernel,
//! [`conv_forward_naive`] the one oracle, and the `conv2d_*` / `conv3d_*`
//! functions are conversions from [`Conv2dSpec`] / [`Conv3dSpec`] plus output
//! reshaping. The Table I layer geometries:
//!
//! * AutoPilot: 5×5 kernels stride 2 (CONV1-3) and 3×3 stride 1 (CONV4-5),
//!   no padding.
//! * C3D: 3×3×3 kernels stride 1 with "same" padding (pad 1), pooling
//!   between layers (pool1 is 1×2×2, the rest 2×2×2, ceil mode).
//!
//! Input layout is `[channels, (depth,) height, width]`; weights are
//! `[out_channels, in_channels, (kd,) kh, kw]`.

use crate::parallel::{parallel_for_mut_cost, ParallelConfig};
use crate::{Shape, Tensor, TensorError};

/// Lane count of the fixed-width accumulator tile the blocked conv kernels
/// carry along each output row (mirrors [`crate::block::PANEL_WIDTH`]).
const LANES: usize = crate::block::PANEL_WIDTH;

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
    /// extent or the stride is zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: [usize; 3],
        stride: usize,
        pad: [usize; 3],
    ) -> Result<Self, TensorError> {
        if in_channels == 0 || out_channels == 0 || stride == 0 || kernel.contains(&0) {
            return Err(TensorError::ShapeMismatch {
                context: format!(
                    "conv channels, kernel extents and stride must be non-zero: \
                     {in_channels}->{out_channels} channels, kernel {kernel:?}, stride {stride}"
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

    /// Element count of the `[out_c, in_c, kd, kh, kw]` weights.
    pub fn weight_volume(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel.iter().product::<usize>()
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

/// Direct convolution of either rank over flat buffers, with an explicit
/// parallelism budget — the one blocked kernel every conv entry point runs.
///
/// `x`: `[in_c, d, h, w]` with `dhw = [d, h, w]` (`d = 1` for 2D); `wv`:
/// `[out_c, in_c, kd, kh, kw]`; `bv`: `[out_c]`. Returns the flat
/// `[out_c, od, oh, ow]` output. Output filters are chunked across workers
/// (granule = one filter's `od×oh×ow` volume), so each output element is
/// accumulated by one thread in the serial loop order.
///
/// The kernel is cache-blocked: one filter's weight block
/// `[in_c × kd × kh × kw]` *is* the L1 panel (it is read front-to-back per
/// output volume), and each output row is walked in `LANES`-wide tiles with
/// a fixed-width register accumulator, `kx` innermost over the tile. Per
/// output element the additions still happen in ascending
/// `(ic, kz, ky, kx)` order with the same out-of-bounds skips as the naive
/// loop; with `kd = od = 1` the `kz`/`oz` levels run once and the nest is
/// the 2D `(ic, ky, oy)` walk. Under [`crate::simd::SimdLevel::Scalar`]
/// results are bit-identical to [`conv_forward_naive`]; under the AVX2
/// level the interior row tiles use fused multiply-adds, so outputs agree
/// with the oracle within [`crate::simd::fma_tolerance`] (see the
/// accumulation-order contract in [`crate::simd`]).
///
/// # Errors
///
/// Returns [`TensorError`] when a buffer length disagrees with the geometry
/// or the kernel does not fit the padded input.
pub fn conv_forward_with(
    config: &ParallelConfig,
    g: &ConvGeometry,
    dhw: [usize; 3],
    x: &[f32],
    wv: &[f32],
    bv: &[f32],
) -> Result<Vec<f32>, TensorError> {
    let [od, oh, ow] = check_conv(g, dhw, x, wv, bv)?;
    let [d, h, w] = dhw;
    let [kd, kh, kw] = g.kernel;
    let [pd, ph, pw] = g.pad;
    let s = g.stride;
    let mut out = vec![0.0f32; g.out_channels * od * oh * ow];

    let in_plane = h * w;
    let in_vol = d * in_plane;
    let k_plane = kh * kw;
    let k_vol = kd * k_plane;
    let w_per_filter = g.in_channels * k_vol;
    let o_plane = oh * ow;
    let o_vol = od * o_plane;
    // Interior columns: every kx tap lands inside [0, w).
    let (int_lo, int_hi) = interior_range(w, kw, s, pw, ow);
    let flops = g.flops(dhw);
    parallel_for_mut_cost(config, &mut out, o_vol, flops, |chunk_offset, chunk| {
        let first_oc = chunk_offset / o_vol;
        for (p, vol) in chunk.chunks_mut(o_vol).enumerate() {
            let oc = first_oc + p;
            vol.fill(bv[oc]);
            let wf = &wv[oc * w_per_filter..(oc + 1) * w_per_filter];
            for ic in 0..g.in_channels {
                let xc = &x[ic * in_vol..(ic + 1) * in_vol];
                let wc = &wf[ic * k_vol..(ic + 1) * k_vol];
                for kz in 0..kd {
                    let wz = &wc[kz * k_plane..(kz + 1) * k_plane];
                    for oz in 0..od {
                        let iz = (oz * s + kz) as isize - pd as isize;
                        if iz < 0 || iz >= d as isize {
                            continue;
                        }
                        let xz = &xc[iz as usize * in_plane..(iz as usize + 1) * in_plane];
                        let oplane = &mut vol[oz * o_plane..(oz + 1) * o_plane];
                        for ky in 0..kh {
                            let wrow = &wz[ky * kw..(ky + 1) * kw];
                            for oy in 0..oh {
                                let iy = (oy * s + ky) as isize - ph as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                let xrow = &xz[iy as usize * w..(iy as usize + 1) * w];
                                let orow = &mut oplane[oy * ow..(oy + 1) * ow];
                                conv_row_pass(orow, xrow, wrow, w, s, pw, int_lo, int_hi);
                            }
                        }
                    }
                }
            }
        }
    });
    Ok(out)
}

/// The unblocked serial oracle for [`conv_forward_with`]: the original
/// per-output loop with no row tiling. Kept public so proptests and
/// `kernel_bench` can compare the blocked kernel against it.
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
    let [od, oh, ow] = check_conv(g, dhw, x, wv, bv)?;
    let [d, h, w] = dhw;
    let [kd, kh, kw] = g.kernel;
    let [pd, ph, pw] = g.pad.map(|p| p as isize);
    let mut out = vec![0.0f32; g.out_channels * od * oh * ow];

    let in_plane = h * w;
    let in_vol = d * in_plane;
    let k_plane = kh * kw;
    let k_vol = kd * k_plane;
    let w_per_filter = g.in_channels * k_vol;
    let o_vol = od * oh * ow;
    for (oc, vol) in out.chunks_mut(o_vol).enumerate() {
        let wbase = oc * w_per_filter;
        for oz in 0..od {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bv[oc];
                    let iz0 = (oz * g.stride) as isize - pd;
                    let iy0 = (oy * g.stride) as isize - ph;
                    let ix0 = (ox * g.stride) as isize - pw;
                    for ic in 0..g.in_channels {
                        let icbase = ic * in_vol;
                        let wcbase = wbase + ic * k_vol;
                        for kz in 0..kd {
                            let iz = iz0 + kz as isize;
                            if iz < 0 || iz >= d as isize {
                                continue;
                            }
                            let izbase = icbase + iz as usize * in_plane;
                            let wzbase = wcbase + kz * k_plane;
                            for ky in 0..kh {
                                let iy = iy0 + ky as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                let irow = izbase + iy as usize * w;
                                let wrow = wzbase + ky * kw;
                                for kx in 0..kw {
                                    let ix = ix0 + kx as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    acc += x[irow + ix as usize] * wv[wrow + kx];
                                }
                            }
                        }
                    }
                    vol[(oz * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    Ok(out)
}

/// The one shape check: buffer lengths against the geometry, then the output
/// extents.
fn check_conv(
    g: &ConvGeometry,
    dhw: [usize; 3],
    x: &[f32],
    wv: &[f32],
    bv: &[f32],
) -> Result<[usize; 3], TensorError> {
    let got = [x.len(), wv.len(), bv.len()];
    let want = [
        g.in_channels * dhw.iter().product::<usize>(),
        g.weight_volume(),
        g.out_channels,
    ];
    if got != want {
        return Err(TensorError::ShapeMismatch {
            context: format!(
                "conv input/weights/bias lengths {got:?} != {want:?} for {g:?} on {dhw:?}"
            ),
        });
    }
    g.output_dhw(dhw)
}

/// Tensor-level entry shared by the `conv2d_*` / `conv3d_*` wrappers: checks
/// that `input` and `weights` have the rank's shapes (the `rank` trailing
/// extents of `[d, h, w]` / `[kd, kh, kw]`), runs the blocked nest under
/// `config` — or the naive oracle when there is none — on the flat buffers
/// and restores the rank on the output.
fn forward_ranked(
    g: ConvGeometry,
    rank: usize,
    config: Option<&ParallelConfig>,
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
) -> Result<Tensor, TensorError> {
    let (idims, wdims) = (input.shape().dims(), weights.shape().dims());
    if idims.len() != rank + 1
        || idims[0] != g.in_channels
        || wdims.len() != rank + 2
        || wdims[..2] != [g.out_channels, g.in_channels]
        || wdims[2..] != g.kernel[3 - rank..]
    {
        return Err(TensorError::ShapeMismatch {
            context: format!(
                "conv{rank}d input {} or weights {} do not match {g:?}",
                input.shape(),
                weights.shape()
            ),
        });
    }
    let mut dhw = [1; 3];
    dhw[3 - rank..].copy_from_slice(&idims[1..]);
    let (x, wv, bv) = (input.as_slice(), weights.as_slice(), bias.as_slice());
    let out = match config {
        Some(config) => conv_forward_with(config, &g, dhw, x, wv, bv),
        None => conv_forward_naive(&g, dhw, x, wv, bv),
    }?;
    let [od, oh, ow] = g.output_dhw(dhw)?;
    let shape = match rank {
        2 => Shape::d3(g.out_channels, oh, ow),
        _ => Shape::d4(g.out_channels, od, oh, ow),
    };
    Tensor::from_vec(shape, out)
}

/// Direct 2D convolution with symmetric zero padding.
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
    conv2d_forward_with(&ParallelConfig::serial(), spec, input, weights, bias)
}

/// [`conv2d_forward`] with an explicit parallelism budget: the depth-1 case
/// of [`conv_forward_with`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when any dimension disagrees with
/// the spec.
pub fn conv2d_forward_with(
    config: &ParallelConfig,
    spec: &Conv2dSpec,
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
) -> Result<Tensor, TensorError> {
    forward_ranked(spec.geometry()?, 2, Some(config), input, weights, bias)
}

/// The unblocked serial oracle for [`conv2d_forward`]: the depth-1 case of
/// [`conv_forward_naive`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when any dimension disagrees with
/// the spec.
pub fn conv2d_forward_naive(
    spec: &Conv2dSpec,
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
) -> Result<Tensor, TensorError> {
    forward_ranked(spec.geometry()?, 2, None, input, weights, bias)
}

/// Direct 3D convolution with symmetric zero padding (paper Eq. 2).
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
    conv3d_forward_with(&ParallelConfig::serial(), spec, input, weights, bias)
}

/// [`conv3d_forward`] with an explicit parallelism budget; see
/// [`conv_forward_with`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when any dimension disagrees with
/// the spec.
pub fn conv3d_forward_with(
    config: &ParallelConfig,
    spec: &Conv3dSpec,
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
) -> Result<Tensor, TensorError> {
    forward_ranked(spec.geometry()?, 3, Some(config), input, weights, bias)
}

/// The unblocked serial oracle for [`conv3d_forward`]; see
/// [`conv_forward_naive`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when any dimension disagrees with
/// the spec.
pub fn conv3d_forward_naive(
    spec: &Conv3dSpec,
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
) -> Result<Tensor, TensorError> {
    forward_ranked(spec.geometry()?, 3, None, input, weights, bias)
}

/// Output-column range `[lo, hi]` (inclusive) whose kernel taps all land
/// inside `[0, w)`, i.e. where the row pass can skip per-tap bounds checks.
/// Returns an empty range (`lo > hi`) when no column is fully interior.
/// Doc-hidden: exposed so equivalence proptests drive the row-pass kernels
/// with production geometry.
#[doc(hidden)]
pub fn interior_range(
    w: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    ow: usize,
) -> (usize, Option<usize>) {
    let lo = pad.div_ceil(stride);
    let hi_num = w as isize + pad as isize - kw as isize;
    if hi_num < 0 || lo >= ow {
        return (lo, None);
    }
    Some((hi_num as usize / stride).min(ow - 1))
        .filter(|&hi| hi >= lo)
        .map_or((lo, None), |hi| (lo, Some(hi)))
}

/// One `(ic, [kz,] ky)` accumulation pass over an output row, dispatched on
/// the resolved [`crate::simd::level`].
///
/// Interior columns run in `LANES`-wide register tiles (`kx` innermost,
/// preserving per-output tap order); the padded border columns fall back to
/// the scalar per-tap-checked walk. The scalar level is bit-identical to
/// visiting each output column independently; the AVX2 level fuses each
/// interior tap into an FMA (same tap order, borders stay exact).
#[inline]
#[allow(clippy::too_many_arguments)]
fn conv_row_pass(
    orow: &mut [f32],
    xrow: &[f32],
    wrow: &[f32],
    w: usize,
    stride: usize,
    pad: usize,
    int_lo: usize,
    int_hi: Option<usize>,
) {
    match crate::simd::level() {
        #[cfg(target_arch = "x86_64")]
        crate::simd::SimdLevel::Avx2 => {
            crate::simd::avx2::conv_row_pass(orow, xrow, wrow, w, stride, pad, int_lo, int_hi);
        }
        _ => conv_row_pass_scalar(orow, xrow, wrow, w, stride, pad, int_lo, int_hi),
    }
}

/// The scalar-level body of [`conv_row_pass`]: `LANES`-wide accumulator
/// tiles with separate multiply and add per tap. Exposed (doc-hidden) so
/// equivalence proptests can pin the SIMD kernel against it directly.
///
/// Kept out of line: with one nest it has one caller, and inlined there its
/// body (cold under AVX2) bloats the nest and costs the AVX2 path ~4%.
#[doc(hidden)]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
pub fn conv_row_pass_scalar(
    orow: &mut [f32],
    xrow: &[f32],
    wrow: &[f32],
    w: usize,
    stride: usize,
    pad: usize,
    int_lo: usize,
    int_hi: Option<usize>,
) {
    let ow = orow.len();
    let kw = wrow.len();
    let scalar = |orow: &mut [f32], ox: usize| {
        let ix0 = (ox * stride) as isize - pad as isize;
        let mut acc = orow[ox];
        for (kx, &wk) in wrow.iter().enumerate() {
            let ix = ix0 + kx as isize;
            if ix < 0 || ix >= w as isize {
                continue;
            }
            acc += xrow[ix as usize] * wk;
        }
        orow[ox] = acc;
    };
    let Some(int_hi) = int_hi else {
        for ox in 0..ow {
            scalar(orow, ox);
        }
        return;
    };
    for ox in 0..int_lo.min(ow) {
        scalar(orow, ox);
    }
    let mut t = int_lo;
    while t <= int_hi {
        let len = LANES.min(int_hi + 1 - t);
        let mut acc = [0.0f32; LANES];
        acc[..len].copy_from_slice(&orow[t..t + len]);
        for (kx, &wk) in wrow.iter().enumerate() {
            let xbase = t * stride + kx - pad;
            if kw == 1 || stride == 1 {
                // Contiguous loads: the common stride-1 fast path the
                // compiler vectorizes cleanly.
                let xs = &xrow[xbase..xbase + (len - 1) * stride + 1];
                for (l, a) in acc[..len].iter_mut().enumerate() {
                    *a += xs[l * stride] * wk;
                }
            } else {
                for (l, a) in acc[..len].iter_mut().enumerate() {
                    *a += xrow[xbase + l * stride] * wk;
                }
            }
        }
        orow[t..t + len].copy_from_slice(&acc[..len]);
        t += len;
    }
    for ox in (int_hi + 1).max(int_lo)..ow {
        scalar(orow, ox);
    }
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

/// 2D max pooling with a square window and equal stride (floor mode).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the window does not fit.
pub fn max_pool2d(input: &Tensor, window: usize, stride: usize) -> Result<Tensor, TensorError> {
    max_pool2d_mode(input, window, stride, false)
}

/// 2D max pooling with a selectable rounding mode.
///
/// In ceil mode a final partial window is emitted when the stride does not
/// divide the input evenly (Caffe's convention, used by C3D).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the window does not fit.
pub fn max_pool2d_mode(
    input: &Tensor,
    window: usize,
    stride: usize,
    ceil: bool,
) -> Result<Tensor, TensorError> {
    let idims = input.shape().dims();
    if idims.len() != 3 {
        return Err(TensorError::ShapeMismatch {
            context: "max_pool2d expects [c,h,w]".into(),
        });
    }
    let (c, h, w) = (idims[0], idims[1], idims[2]);
    let oh = pool_extent(h, window, stride, ceil);
    let ow = pool_extent(w, window, stride, ceil);
    if oh == 0 || ow == 0 {
        return Err(TensorError::ShapeMismatch {
            context: format!("pool window {window} larger than input {h}x{w}"),
        });
    }
    let x = input.as_slice();
    let mut out = vec![f32::NEG_INFINITY; c * oh * ow];
    for ci in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut m = f32::NEG_INFINITY;
                for ky in 0..window {
                    let iy = oy * stride + ky;
                    if iy >= h {
                        continue;
                    }
                    for kx in 0..window {
                        let ix = ox * stride + kx;
                        if ix >= w {
                            continue;
                        }
                        m = m.max(x[ci * h * w + iy * w + ix]);
                    }
                }
                out[ci * oh * ow + oy * ow + ox] = m;
            }
        }
    }
    Tensor::from_vec(Shape::d3(c, oh, ow), out)
}

/// 3D max pooling with independent temporal/spatial windows, stride equal to
/// the window, floor mode (the C3D convention: pool1 is 1×2×2, the rest
/// 2×2×2).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the window does not fit.
pub fn max_pool3d(input: &Tensor, wd: usize, whw: usize) -> Result<Tensor, TensorError> {
    max_pool3d_mode(input, wd, whw, false)
}

/// 3D max pooling with a selectable rounding mode (see [`max_pool2d_mode`]).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the window does not fit.
pub fn max_pool3d_mode(
    input: &Tensor,
    wd: usize,
    whw: usize,
    ceil: bool,
) -> Result<Tensor, TensorError> {
    let idims = input.shape().dims();
    if idims.len() != 4 {
        return Err(TensorError::ShapeMismatch {
            context: "max_pool3d expects [c,d,h,w]".into(),
        });
    }
    let (c, d, h, w) = (idims[0], idims[1], idims[2], idims[3]);
    let od = pool_extent(d, wd, wd, ceil);
    let oh = pool_extent(h, whw, whw, ceil);
    let ow = pool_extent(w, whw, whw, ceil);
    if od == 0 || oh == 0 || ow == 0 {
        return Err(TensorError::ShapeMismatch {
            context: format!("pool window {wd}x{whw}x{whw} larger than input {d}x{h}x{w}"),
        });
    }
    let x = input.as_slice();
    let mut out = vec![f32::NEG_INFINITY; c * od * oh * ow];
    for ci in 0..c {
        for oz in 0..od {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut m = f32::NEG_INFINITY;
                    for kz in 0..wd {
                        let iz = oz * wd + kz;
                        if iz >= d {
                            continue;
                        }
                        for ky in 0..whw {
                            let iy = oy * whw + ky;
                            if iy >= h {
                                continue;
                            }
                            for kx in 0..whw {
                                let ix = ox * whw + kx;
                                if ix >= w {
                                    continue;
                                }
                                m = m.max(x[((ci * d + iz) * h + iy) * w + ix]);
                            }
                        }
                    }
                    out[((ci * od + oz) * oh + oy) * ow + ox] = m;
                }
            }
        }
    }
    Tensor::from_vec(Shape::d4(c, od, oh, ow), out)
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
        let input = Tensor::full(Shape::d3(1, 3, 3), 1.0);
        let w = Tensor::from_vec(spec.weight_shape(), vec![1.0; 9]).unwrap();
        let b = Tensor::from_slice_1d(&[0.0]).unwrap();
        let out = conv2d_forward(&spec, &input, &w, &b).unwrap();
        // Center sees all 9 ones; corners see only 4.
        assert_eq!(out.get(&[0, 1, 1]).unwrap(), 9.0);
        assert_eq!(out.get(&[0, 0, 0]).unwrap(), 4.0);
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
    }

    #[test]
    fn max_pool2d_takes_window_max() {
        let input =
            Tensor::from_vec(Shape::d3(1, 2, 4), vec![1., 5., 2., 0., 3., 4., 8., 1.]).unwrap();
        let out = max_pool2d(&input, 2, 2).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 2]);
        assert_eq!(out.as_slice(), &[5.0, 8.0]);
    }

    #[test]
    fn max_pool2d_ceil_emits_partial_window() {
        let input = Tensor::from_vec(Shape::d3(1, 1, 5), vec![1., 2., 3., 4., 9.]).unwrap();
        let floor = max_pool2d_mode(&input, 1, 2, false).unwrap();
        assert_eq!(floor.shape().dims(), &[1, 1, 3]);
        let input2 =
            Tensor::from_vec(Shape::d3(1, 3, 3), (1..=9).map(|v| v as f32).collect()).unwrap();
        let ceil = max_pool2d_mode(&input2, 2, 2, true).unwrap();
        assert_eq!(ceil.shape().dims(), &[1, 2, 2]);
        assert_eq!(ceil.as_slice(), &[5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn max_pool3d_c3d_style() {
        // pool 1x2x2 keeps depth.
        let input =
            Tensor::from_vec(Shape::d4(1, 2, 2, 2), vec![1., 2., 3., 4., 5., 6., 7., 8.]).unwrap();
        let out = max_pool3d(&input, 1, 2).unwrap();
        assert_eq!(out.shape().dims(), &[1, 2, 1, 1]);
        assert_eq!(out.as_slice(), &[4.0, 8.0]);
        // pool 2x2x2 collapses depth too.
        let input2 =
            Tensor::from_vec(Shape::d4(1, 2, 2, 2), vec![1., 2., 3., 4., 5., 6., 7., 8.]).unwrap();
        let out2 = max_pool3d(&input2, 2, 2).unwrap();
        assert_eq!(out2.as_slice(), &[8.0]);
    }

    #[test]
    fn max_pool3d_ceil_matches_c3d_pool5() {
        // C3D pool5: 512x2x7x7 --2x2x2 ceil--> 512x1x4x4.
        let input = Tensor::zeros(Shape::d4(1, 2, 7, 7));
        let out = max_pool3d_mode(&input, 2, 2, true).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 4, 4]);
    }

    #[test]
    fn pool_rejects_oversized_window() {
        let input = Tensor::zeros(Shape::d3(1, 2, 2));
        assert!(max_pool2d(&input, 3, 3).is_err());
    }

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|v| (v as f32) * 0.31 - 4.0).collect()
    }

    #[test]
    fn blocked_conv2d_matches_naive() {
        // (in_c, out_c, k, stride, pad, h, w) — borders, stride>1, 1×1.
        // Bit-identical under the scalar SIMD level, tolerance-bounded
        // under AVX2 (interior taps fuse into FMAs).
        for (ic, oc, k, s, p, h, w) in [
            (1usize, 1usize, 1usize, 1usize, 0usize, 5usize, 9usize),
            (2, 3, 3, 1, 1, 6, 11),
            (3, 2, 5, 2, 0, 9, 17),
            (1, 2, 3, 2, 2, 4, 4),
        ] {
            let spec = spec2(ic, oc, k, s, p);
            let input = Tensor::from_vec(Shape::d3(ic, h, w), ramp(ic * h * w)).unwrap();
            let wt = Tensor::from_vec(spec.weight_shape(), ramp(oc * ic * k * k)).unwrap();
            let b = Tensor::from_vec(Shape::d1(oc), ramp(oc)).unwrap();
            let naive = conv2d_forward_naive(&spec, &input, &wt, &b).unwrap();
            let blocked = conv2d_forward(&spec, &input, &wt, &b).unwrap();
            let tol = crate::simd::fma_tolerance(ic * k * k + 1, 7000.0);
            let mismatch = crate::simd::kernel_mismatch(blocked.as_slice(), naive.as_slice(), tol);
            assert!(
                mismatch.is_none(),
                "ic={ic} oc={oc} k={k} s={s} p={p} {h}x{w}: {mismatch:?}"
            );
        }
    }

    #[test]
    fn blocked_conv3d_matches_naive() {
        for (s, p) in [(1usize, 0usize), (1, 1), (2, 1)] {
            let spec = spec3(2, 3, [3, 3], s, p);
            let (d, h, w) = (4usize, 5usize, 11usize);
            if spec.output_dhw(d, h, w).is_err() {
                continue;
            }
            let input = Tensor::from_vec(Shape::d4(2, d, h, w), ramp(2 * d * h * w)).unwrap();
            let wt = Tensor::from_vec(spec.weight_shape(), ramp(3 * 2 * 27)).unwrap();
            let b = Tensor::from_vec(Shape::d1(3), ramp(3)).unwrap();
            let naive = conv3d_forward_naive(&spec, &input, &wt, &b).unwrap();
            let blocked = conv3d_forward(&spec, &input, &wt, &b).unwrap();
            let tol = crate::simd::fma_tolerance(2 * 27 + 1, 7000.0);
            let mismatch = crate::simd::kernel_mismatch(blocked.as_slice(), naive.as_slice(), tol);
            assert!(mismatch.is_none(), "s={s} p={p}: {mismatch:?}");
        }
    }
}
