//! Incremental convolution execution (paper Section IV-C).
//!
//! In a convolutional layer every input pixel/voxel feeds a bounded window
//! of output neurons: `k×k` positions per output feature map (`k×k×k` for 3D
//! convolution), for every filter. When an input's quantized index changes,
//! the accelerator corrects exactly that fan-out (paper Fig. 8); when it is
//! unchanged, the entire fan-out of computations and weight fetches is
//! skipped.
//!
//! One mechanism at both ranks: [`ConvReuseState`] corrects layers of
//! either rank through [`reuse_tensor::conv::ConvGeometry`] (a 2D layer is
//! the depth-1 case), against the layer's own `[taps, out_c]`
//! [`PackedPanels`] — the copy its forward pass multiplies against, shared
//! by every stream ([`ConvPack`] is a handle on it for callers outside a
//! session). States hold only per-stream data, and
//! hold their buffered pre-activations **channels-last**
//! (`[od·oh·ow, out_c]`): the layout the forward GEMM produces and the one
//! in which a correction is contiguous.
//!
//! A frame after the first is two passes on the calling thread. **Detect**:
//! [`LinearQuantizer::diff_codes`] quantizes the frame against the buffered
//! codes in one pass (SIMD-dispatched, bit-exact at every
//! [`reuse_tensor::SimdLevel`]) and leaves the changed inputs as ascending
//! `(index, Δcentroid)` pairs. **Correct**: every (changed input, output
//! position it reaches) pair is one `out_c`-wide fused `z ← z + Δ·w` of a
//! tap's weight row onto the position's contiguous outputs, and every output
//! element receives its pairs in ascending input order. Two kernels do that, chosen once per
//! layer from its geometry (`GATHER_MAX_FANOUT`) and bit-identical to each
//! other:
//!
//! * **output-stationary** (`Gather`; every 2D layer in the tree): the
//!   deltas are scattered into a dense image; per output position the
//!   changed inputs of its receptive field are gathered from it (one vector
//!   compare and a branch-free left-pack per `kw`-wide window) and their
//!   weight rows added on with the position's sums in registers
//!   ([`PackedPanels::gather_axpy`]). Taps ascend exactly as input indices
//!   do, so the gathered order *is* changed-list order.
//! * **input-stationary** (`RowGrids`; the C3D layers): per changed input,
//!   its `(oy, ox)` fan-out in each output plane is one grid of
//!   read-modify-written rows ([`PackedPanels::axpy_row_grids`]).
//!
//! The write-out transposes into the `[out_c, (od,) oh, ow]` layout the next
//! layer expects.

use std::sync::Arc;

use reuse_nn::{Conv2dLayer, Conv3dLayer};
use reuse_quant::{LinearQuantizer, QuantCode};
use reuse_tensor::block::{RowGrid, TapBucket, TapWindow};
use reuse_tensor::conv::{conv_forward_into, transpose_into, ConvGeometry};
use reuse_tensor::{PackedPanels, ParallelConfig, Shape};

use crate::layer::ExecStats;
use crate::ReuseError;

/// A convolutional layer of either rank, seen as what the correction needs:
/// its rank-generic geometry, its flat parameters and its packed weights.
pub trait ConvLayer {
    /// Spatial rank of the layer's inputs: 2 for `[c, h, w]`, 3 for
    /// `[c, d, h, w]`.
    const RANK: usize;

    /// The layer's validated geometry.
    fn geometry(&self) -> &ConvGeometry;

    /// Flat `[out_c, in_c, (kd,) kh, kw]` filter weights.
    fn weights(&self) -> &[f32];

    /// Per-filter biases.
    fn bias(&self) -> &[f32];

    /// The weights as the layer packed them: `[taps, out_c]` panels.
    fn panels(&self) -> &Arc<PackedPanels>;
}

impl ConvLayer for Conv2dLayer {
    const RANK: usize = 2;

    fn geometry(&self) -> &ConvGeometry {
        Conv2dLayer::geometry(self)
    }

    fn weights(&self) -> &[f32] {
        Conv2dLayer::weights(self).as_slice()
    }

    fn bias(&self) -> &[f32] {
        Conv2dLayer::bias(self).as_slice()
    }

    fn panels(&self) -> &Arc<PackedPanels> {
        Conv2dLayer::panels(self)
    }
}

impl ConvLayer for Conv3dLayer {
    const RANK: usize = 3;

    fn geometry(&self) -> &ConvGeometry {
        Conv3dLayer::geometry(self)
    }

    fn weights(&self) -> &[f32] {
        Conv3dLayer::weights(self).as_slice()
    }

    fn bias(&self) -> &[f32] {
        Conv3dLayer::bias(self).as_slice()
    }

    fn panels(&self) -> &Arc<PackedPanels> {
        Conv3dLayer::panels(self)
    }
}

/// References forward, so a caller holding a `&&Conv2dLayer` (a `match` on
/// borrowed enum fields) passes it as it did to the rank-specific states.
impl<T: ConvLayer> ConvLayer for &T {
    const RANK: usize = T::RANK;

    fn geometry(&self) -> &ConvGeometry {
        T::geometry(self)
    }

    fn weights(&self) -> &[f32] {
        T::weights(self)
    }

    fn bias(&self) -> &[f32] {
        T::bias(self)
    }

    fn panels(&self) -> &Arc<PackedPanels> {
        T::panels(self)
    }
}

/// The output-position range `[lo, hi)` whose receptive field covers input
/// coordinate `y`, for kernel size `k`, stride `s`, padding `p` and output
/// extent `n`.
fn affected_range(y: usize, k: usize, s: usize, p: usize, n: usize) -> (u32, u32) {
    let y = y as isize + p as isize;
    let k = k as isize;
    let s = s as isize;
    // oy*s <= y  and  oy*s + k - 1 >= y
    let hi = y / s; // floor
    let lo = (y - k + 1 + s - 1).div_euclid(s); // ceil((y-k+1)/s)
    let lo = lo.max(0) as usize;
    let hi = (hi.min(n as isize - 1) + 1).max(0) as usize;
    (lo.min(n) as u32, hi.min(n) as u32)
}

/// One changed input's correction for the row-grid walk, with its geometry
/// precomputed so the walk does no division or range math: the affected
/// output ranges and the weight row (kernel tap) the input reaches its first
/// affected output through. Kept to 32 bytes — the list is written and
/// re-read every frame.
#[derive(Debug, Clone, Copy)]
struct ConvDelta {
    delta: f32,
    /// Tap index at output `(oz, oy, ox.0) = (0, 0, ox.0)`; the tap at
    /// `(oz, oy)` is `(oz·kh + oy)·kw·stride` below it, and each further
    /// `ox` another `stride` below.
    tap: u32,
    oz: (u32, u32),
    oy: (u32, u32),
    ox: (u32, u32),
}

/// The packed weights a convolutional layer's corrections read: a shared
/// handle on the layer's own `[taps, out_c]` [`PackedPanels`] (`taps` in
/// `(in_c, kd, kh, kw)` order, `kd = 1` for 2D) — the one copy its forward
/// pass multiplies against, so packing costs nothing here and every stream
/// (the panels live in the network's layer, not in per-stream state) reads
/// the same bytes.
#[derive(Debug, Clone)]
pub struct ConvPack {
    panels: Arc<PackedPanels>,
}

/// [`ConvPack`] under its rank-specific name.
pub type Conv2dPack = ConvPack;
/// [`ConvPack`] under its rank-specific name.
pub type Conv3dPack = ConvPack;

impl ConvPack {
    /// Takes a handle on the layer's packed weights.
    pub fn new<L: ConvLayer>(layer: &L) -> Self {
        ConvPack {
            panels: Arc::clone(layer.panels()),
        }
    }
}

/// Largest fan-out per changed input — `⌈kd/s⌉·⌈kh/s⌉·⌈kw/s⌉` output
/// positions — up to which a layer is corrected output-stationary
/// ([`Gather`]); above it, or with `kw > 8` (wider than the one vector a
/// window is loaded as), the input-stationary row-grid walk ([`RowGrids`])
/// runs. Read once, in [`ConvReuseState::new`]; the two kernels are
/// bit-identical, so the choice shows in no output.
///
/// Gathering costs one window scan per (output position × non-empty input
/// row) whatever changed, then a few cycles per entry with the position's
/// sums in registers; the row-grid walk costs a set-up per changed input plus
/// a load-FMA-store of the whole `out_c` row per entry. A changed input of a
/// 5×5 stride-2 or 3×3 stride-1 2D layer reaches 9 positions, too few to
/// amortise the set-up, and rows of 24 or 36 filters end in a masked tail
/// that defeats store-to-load forwarding between consecutive deltas; a
/// changed input of a 3×3×3 stride-1 layer reaches 27, its rows are whole
/// vectors, and its 3-wide windows fill three lanes of the eight a scan
/// pays for.
///
/// Measured on the 2-vCPU AVX2 box, both kernels in one process alternating
/// frame by frame over the workload's own frames, median µs per reuse step
/// (detect and write-out included), row-grid walk → gather. Fan-out 9,
/// AutoPilot-small: CONV1 312 → 247, CONV2 432 → 275, CONV3 89 → 76,
/// CONV4 32 → 31, CONV5 18.5 → 15.0. Fan-out 27, C3D-small: CONV2
/// 2411 → 2998, CONV3 1205 → 1473, CONV4 2668 → 3341, CONV5 704 → 805,
/// CONV6 1696 → 1986, CONV7 129 → 159, CONV8 92 → 130.
const GATHER_MAX_FANOUT: usize = 9;

/// Scratch of the output-stationary correction: per output position, gather
/// the changed inputs of its receptive field from a dense delta image and
/// add their weight rows on in tap order ([`PackedPanels::gather_axpy`]).
/// Everything is sized at construction; frames allocate nothing.
#[derive(Debug, Clone)]
struct Gather {
    /// This frame's deltas, zero where the code did not change (and
    /// everywhere between frames): one row per input row `(c, z, y)`, each
    /// `pw + w + pw` floats so a window over the left or right padding reads
    /// zeros and needs no mask, then eight floats so the last row's last
    /// 8-lane load stays inside.
    image: Vec<f32>,
    /// Per input row: whether this frame changed any of it.
    dirty: Vec<bool>,
    /// The non-empty receptive-field rows of the output row being
    /// corrected, in ascending tap order.
    windows: Vec<TapWindow>,
    bucket: TapBucket,
}

impl Gather {
    /// Floats in the delta image of a layer (see [`Self::image`]).
    fn image_len(g: &ConvGeometry, in_dhw: [usize; 3]) -> usize {
        let rows = g.in_channels() * in_dhw[0] * in_dhw[1];
        rows * (in_dhw[2] + 2 * g.pad()[2]) + 8
    }

    fn new(g: &ConvGeometry, in_dhw: [usize; 3]) -> Self {
        let [kd, kh, _] = g.kernel();
        Gather {
            image: vec![0.0; Self::image_len(g, in_dhw)],
            dirty: vec![false; g.in_channels() * in_dhw[0] * in_dhw[1]],
            windows: Vec::with_capacity(g.in_channels() * kd * kh),
            bucket: TapBucket::new(g.taps()),
        }
    }

    /// Calls `f(input row, image offset, delta)` for every changed input.
    fn for_each_at(
        changed: &[(u32, f32)],
        w: usize,
        pw: usize,
        mut f: impl FnMut(usize, usize, f32),
    ) {
        // The list ascends, so its rows do: divide only on entering one.
        let (mut row, mut row_end) = (0, w);
        for &(idx, delta) in changed {
            let idx = idx as usize;
            if idx >= row_end {
                row = idx / w;
                row_end = (row + 1) * w;
            }
            f(row, idx + (2 * row + 1) * pw, delta);
        }
    }

    /// Corrects `linear` (channels-last) for the ascending `changed` list;
    /// returns the number of `(changed input, output position)` pairs.
    fn correct(
        &mut self,
        g: &ConvGeometry,
        in_dhw: [usize; 3],
        out_dhw: [usize; 3],
        panels: &PackedPanels,
        changed: &[(u32, f32)],
        linear: &mut [f32],
    ) -> u64 {
        let [d, h, w] = in_dhw;
        let [_, oh, ow] = out_dhw;
        let [kd, kh, kw] = g.kernel();
        let [pd, ph, pw] = g.pad();
        let s = g.stride();
        Self::for_each_at(changed, w, pw, |row, at, delta| {
            // Distinct codes (far below 2^24) times one step are distinct
            // floats: a changed input's delta is never the image's "no
            // change" zero.
            debug_assert!(delta != 0.0, "changed input with a zero delta");
            self.dirty[row] = true;
            self.image[at] = delta;
        });
        let padded = w + 2 * pw;
        let row_len = ow * g.out_channels();
        let mut entries = 0;
        for (o, out_row) in linear.chunks_exact_mut(row_len).enumerate() {
            let (oz, oy) = (o / oh, o % oh);
            self.windows.clear();
            for c in 0..g.in_channels() {
                for kz in 0..kd {
                    let Some(z) = (oz * s + kz).checked_sub(pd).filter(|&z| z < d) else {
                        continue;
                    };
                    for ky in 0..kh {
                        let Some(y) = (oy * s + ky).checked_sub(ph).filter(|&y| y < h) else {
                            continue;
                        };
                        let r = (c * d + z) * h + y;
                        if self.dirty[r] {
                            // `ox = 0` looks at the padded row from its
                            // first float (`x = -pw`) on.
                            self.windows.push(TapWindow {
                                at: (r * padded) as u32,
                                tap: (((c * kd + kz) * kh + ky) * kw) as u32,
                            });
                        }
                    }
                }
            }
            if !self.windows.is_empty() {
                let (image, bucket) = (&self.image, &mut self.bucket);
                entries += panels.gather_axpy(image, &self.windows, kw, s, bucket, out_row);
            }
        }
        Self::for_each_at(changed, w, pw, |_, at, _| self.image[at] = 0.0);
        self.dirty.fill(false);
        entries
    }
}

/// Scratch of the input-stationary correction: per changed input, one
/// [`PackedPanels::axpy_row_grids`] grid per affected output plane.
#[derive(Debug, Clone)]
struct RowGrids {
    /// [`affected_range`] of every input coordinate, the `d`, `h` and `w`
    /// axes back to back: tabulated once, so the geometry pass looks ranges
    /// up instead of dividing (per-delta range divisions cost as much as a
    /// small fan-out's MACs).
    fanout: Vec<(u32, u32)>,
    /// Precomputed per-delta corrections, in input order; capacity for the
    /// worst case (every input changes) is reserved up front so
    /// steady-state frames never allocate.
    deltas: Vec<ConvDelta>,
}

impl RowGrids {
    fn new(g: &ConvGeometry, in_dhw: [usize; 3], out_dhw: [usize; 3]) -> Self {
        let (k, s, p) = (g.kernel(), g.stride(), g.pad());
        let fanout = (0..3)
            .flat_map(|a| (0..in_dhw[a]).map(move |y| affected_range(y, k[a], s, p[a], out_dhw[a])))
            .collect();
        RowGrids {
            fanout,
            deltas: Vec::with_capacity(g.in_channels() * in_dhw.iter().product::<usize>()),
        }
    }

    /// Corrects `linear` (channels-last) for the ascending `changed` list;
    /// returns the number of `(changed input, output position)` pairs.
    fn correct(
        &mut self,
        g: &ConvGeometry,
        in_dhw: [usize; 3],
        out_dhw: [usize; 3],
        panels: &PackedPanels,
        changed: &[(u32, f32)],
        linear: &mut [f32],
    ) -> u64 {
        let [d, h, w] = in_dhw;
        let [_, oh, ow] = out_dhw;
        let [kd, kh, kw] = g.kernel();
        let [pd, ph, pw] = g.pad();
        let s = g.stride();
        let k_vol = kd * kh * kw;
        let (fz, fyx) = self.fanout.split_at(d);
        let (fy, fx) = fyx.split_at(h);
        let mut entries = 0u64;
        self.deltas.clear();
        // The changed list ascends, so the coordinates advance with it and
        // divide only when they wrap a row (divisions per delta cost as much
        // as a small fan-out's MACs); the ranges are looked up.
        let (mut c, mut z, mut y, mut x, mut at) = (0, 0, 0, 0, 0);
        for &(idx, delta) in changed {
            x += (idx - at) as usize;
            at = idx;
            if x >= w {
                (y, x) = (y + x / w, x % w);
                if y >= h {
                    (z, y) = (z + y / h, y % h);
                    (c, z) = (c + z / d, z % d);
                }
            }
            let (oz, oy, ox) = (fz[z], fy[y], fx[x]);
            let fan_out = (oz.1 - oz.0) * (oy.1 - oy.0) * (ox.1 - ox.0);
            if fan_out == 0 {
                // An input between strides can feed no output at all.
                continue;
            }
            entries += u64::from(fan_out);
            let tap = c * k_vol + ((z + pd) * kh + y + ph) * kw + x + pw - ox.0 as usize * s;
            self.deltas.push(ConvDelta {
                delta,
                tap: tap as u32,
                oz,
                oy,
                ox,
            });
        }

        // Per delta and output plane, the affected (oy, ox) grid is rows of
        // `out_c` contiguous floats in the channels-last buffer —
        // consecutive along ox, `row_len` apart along oy — reading taps
        // `stride` (resp. `stride · kw`) apart, descending.
        let fc = g.out_channels();
        let row_len = ow * fc;
        let grids = self.deltas.iter().flat_map(|dl| {
            (dl.oz.0 as usize..dl.oz.1 as usize).map(move |oz| RowGrid {
                first_row: dl.tap as usize - (oz * kh + dl.oy.0 as usize) * kw * s,
                counts: [(dl.oy.1 - dl.oy.0) as usize, (dl.ox.1 - dl.ox.0) as usize],
                at: (oz * oh + dl.oy.0 as usize) * row_len + dl.ox.0 as usize * fc,
                scale: dl.delta,
            })
        });
        panels.axpy_row_grids([s * kw, s], row_len, grids, linear);
        entries
    }
}

/// The correction kernel a layer's geometry selects, with its scratch.
#[derive(Debug, Clone)]
enum Correction {
    Gather(Gather),
    RowGrids(RowGrids),
}

/// Buffered per-stream state of one convolutional layer (either rank)
/// between executions.
#[derive(Debug, Clone)]
pub struct ConvReuseState {
    geometry: ConvGeometry,
    /// Input extents `[d, h, w]` (`d = 1` for 2D layers).
    in_dhw: [usize; 3],
    /// Output extents `[od, oh, ow]`.
    out_dhw: [usize; 3],
    prev_codes: Vec<QuantCode>,
    /// Buffered pre-activations, channels-last (`[od·oh·ow, out_c]`) — the
    /// one buffered copy; layer-boundary layouts are transposed in and out.
    prev_linear: Vec<f32>,
    /// Scratch: `(input index, centroid delta)` pairs from the detect pass.
    changed: Vec<(u32, f32)>,
    correction: Correction,
    initialized: bool,
}

/// [`ConvReuseState`] under its rank-specific name.
pub type Conv2dReuseState = ConvReuseState;
/// [`ConvReuseState`] under its rank-specific name.
pub type Conv3dReuseState = ConvReuseState;

impl ConvReuseState {
    /// Creates state for a layer processing inputs of shape `in_shape`
    /// (`[c, h, w]` for a 2D layer, `[c, d, h, w]` for a 3D one).
    ///
    /// # Errors
    ///
    /// Returns [`ReuseError`] when `in_shape` is incompatible with the layer.
    pub fn new<L: ConvLayer>(layer: &L, in_shape: &Shape) -> Result<Self, ReuseError> {
        let g = layer.geometry();
        let fan_out: usize = g.kernel().iter().map(|k| k.div_ceil(g.stride())).product();
        let gather = fan_out <= GATHER_MAX_FANOUT && g.kernel()[2] <= 8;
        Self::with_kernel(layer, in_shape, gather)
    }

    /// [`Self::new`] with the correction kernel named instead of derived, so
    /// the tests can hold the two against each other on one geometry.
    fn with_kernel<L: ConvLayer>(
        layer: &L,
        in_shape: &Shape,
        gather: bool,
    ) -> Result<Self, ReuseError> {
        let geometry = *layer.geometry();
        let d = in_shape.dims();
        if d.len() != L::RANK + 1 || d[0] != geometry.in_channels() {
            return Err(ReuseError::InvalidConfig {
                context: format!("conv{}d state input shape {in_shape} incompatible", L::RANK),
            });
        }
        let mut in_dhw = [1; 3];
        in_dhw[3 - L::RANK..].copy_from_slice(&d[1..]);
        let out_dhw = geometry.output_dhw(in_dhw)?;
        // Changed-input indices, delta-image offsets, output coordinates and
        // tap indices are kept as u32.
        let n_in = in_shape.volume();
        let widest = Gather::image_len(&geometry, in_dhw).max(geometry.taps());
        if u32::try_from(widest.max(out_dhw.iter().product())).is_err() {
            return Err(ReuseError::InvalidConfig {
                context: format!("conv{}d state on {in_shape} exceeds u32 indexing", L::RANK),
            });
        }
        let correction = if gather {
            Correction::Gather(Gather::new(&geometry, in_dhw))
        } else {
            Correction::RowGrids(RowGrids::new(&geometry, in_dhw, out_dhw))
        };
        Ok(ConvReuseState {
            geometry,
            in_dhw,
            out_dhw,
            prev_codes: Vec::new(),
            prev_linear: Vec::new(),
            changed: Vec::with_capacity(n_in),
            correction,
            initialized: false,
        })
    }

    /// Whether the first (from-scratch) execution has happened.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Drops buffered state.
    pub fn reset(&mut self) {
        self.prev_codes.clear();
        self.prev_linear.clear();
        self.changed.clear();
        self.initialized = false;
    }

    pub(crate) fn in_volume(&self) -> usize {
        self.geometry.in_channels() * self.in_dhw.iter().product::<usize>()
    }

    /// Extra storage: one byte per input index plus four bytes per buffered
    /// output (Table III accounting; for CNNs these live in main memory
    /// between executions with one block staged on-chip).
    pub fn storage_bytes(&self) -> u64 {
        let out_volume = self.geometry.out_channels() * self.out_dhw.iter().product::<usize>();
        (self.in_volume() + 4 * out_volume) as u64
    }

    /// Writes the buffered linear (pre-activation) outputs of the last
    /// execution into `out` from `start` on, in the layer-boundary `[out_c,
    /// (od,) oh, ow]` layout (nothing before initialization): every
    /// execution's write-out.
    pub(crate) fn write_linear(&self, out: &mut Vec<f32>, start: usize) {
        let out_c = self.geometry.out_channels();
        let positions = self.prev_linear.len() / out_c;
        // Every element is overwritten: size the buffer without clearing it.
        out.resize(start + self.prev_linear.len(), 0.0);
        transpose_into(&self.prev_linear, positions, out_c, &mut out[start..]);
    }

    /// Sets the buffered state the first execution computed: codes from
    /// quantizing `input`, linear outputs from the `[out_c, (od,) oh, ow]`
    /// `linear`, transposed in.
    fn adopt_baseline(&mut self, quantizer: &LinearQuantizer, input: &[f32], linear: &[f32]) {
        quantizer.quantize_slice_into(input, &mut self.prev_codes);
        let (out_c, positions) = (self.geometry.out_channels(), self.out_dhw.iter().product());
        self.prev_linear.resize(out_c * positions, 0.0);
        transpose_into(linear, out_c, positions, &mut self.prev_linear);
        self.initialized = true;
    }

    /// Executes the layer, reusing buffered results where quantized inputs
    /// are unchanged: clears `out` and writes the linear (pre-activation)
    /// feature maps (`[out_c, (od,) oh, ow]`, flattened) into it.
    /// Allocation-free once initialized.
    ///
    /// `input` is the flat row-major data of the state's input shape; `pack`
    /// must be the [`ConvPack`] built from `layer`. A frame after the first
    /// is one detect pass and one correction pass: every output accumulates
    /// its deltas in input order.
    ///
    /// # Errors
    ///
    /// Returns [`ReuseError`] when `input` has the wrong length, or when
    /// `layer` or `pack` do not have the weight volume of the layer the
    /// state was built for.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_into_packed<L: ConvLayer>(
        &mut self,
        _config: &ParallelConfig,
        layer: &L,
        pack: &ConvPack,
        quantizer: &LinearQuantizer,
        input: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<ExecStats, ReuseError> {
        self.execute_from(layer, &pack.panels, quantizer, input, out, 0)
    }

    /// [`Self::execute_into_packed`] over the layer's `[taps, out_c]` panels,
    /// writing into `out` from `start` on (`out.len()` appends: a run's later
    /// rows).
    pub(crate) fn execute_from<L: ConvLayer>(
        &mut self,
        layer: &L,
        panels: &PackedPanels,
        quantizer: &LinearQuantizer,
        input: &[f32],
        out: &mut Vec<f32>,
        start: usize,
    ) -> Result<ExecStats, ReuseError> {
        let g = self.geometry;
        let (in_dhw, n_in) = (self.in_dhw, self.in_volume());
        if input.len() != n_in {
            return Err(ReuseError::InvalidConfig {
                context: format!("conv input length {} != state volume {n_in}", input.len()),
            });
        }
        let (taps, fc) = (g.taps(), g.out_channels());
        if layer.weights().len() != g.weight_volume()
            || (panels.n_in(), panels.n_out()) != (taps, fc)
        {
            return Err(ReuseError::InvalidConfig {
                context: format!(
                    "conv layer ({} weights) or pack ({}x{}) does not match the state's {taps}x{fc}",
                    layer.weights().len(),
                    panels.n_in(),
                    panels.n_out()
                ),
            });
        }
        let macs_total = g.flops(in_dhw) / 2;
        let n_in = n_in as u64;

        if !self.initialized {
            let centroids = quantizer.quantized_values(input);
            // The forward fills a whole buffer: `out` on a run's first row.
            let mut own = Vec::new();
            let linear = if start == 0 { &mut *out } else { &mut own };
            conv_forward_into(&g, in_dhw, &centroids, 1, panels, layer.bias(), linear)?;
            self.adopt_baseline(quantizer, input, linear);
            if start > 0 {
                self.write_linear(out, start);
            }
            return Ok(ExecStats {
                n_inputs: n_in,
                n_changed: n_in,
                macs_total,
                macs_performed: macs_total,
                from_scratch: true,
            });
        }

        // Detect: one pass over the frame (dispatched, bit-exact at every
        // SIMD level) leaves the changed inputs in ascending order. Correct:
        // every (changed input, output position) pair is one `out_c`-wide
        // multiply-add of a weight row.
        quantizer.diff_codes(input, &mut self.prev_codes, &mut self.changed);
        let (changed, linear) = (&self.changed, &mut self.prev_linear);
        let entries = match &mut self.correction {
            Correction::Gather(k) => k.correct(&g, in_dhw, self.out_dhw, panels, changed, linear),
            Correction::RowGrids(k) => k.correct(&g, in_dhw, self.out_dhw, panels, changed, linear),
        };
        self.write_linear(out, start);
        Ok(ExecStats {
            n_inputs: n_in,
            n_changed: self.changed.len() as u64,
            macs_total,
            macs_performed: entries * fc as u64,
            from_scratch: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::SERIAL;
    use reuse_nn::{init::Rng64, Activation};
    use reuse_quant::InputRange;
    use reuse_tensor::conv::{Conv2dSpec, Conv3dSpec};
    use reuse_tensor::Tensor;

    fn q() -> LinearQuantizer {
        LinearQuantizer::new(InputRange::new(-1.0, 1.0), 32).unwrap()
    }

    fn layer2d(stride: usize, pad: usize) -> Conv2dLayer {
        let spec = Conv2dSpec {
            in_channels: 2,
            out_channels: 3,
            kh: 3,
            kw: 3,
            stride,
            pad,
        };
        Conv2dLayer::random(spec, Activation::Identity, &mut Rng64::new(21))
    }

    fn layer3d() -> Conv3dLayer {
        let spec = Conv3dSpec {
            in_channels: 2,
            out_channels: 2,
            kd: 3,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        Conv3dLayer::random(spec, Activation::Identity, &mut Rng64::new(5))
    }

    /// A state with its pack, stepping through the one production entry
    /// point.
    struct Harness<'l, L: ConvLayer> {
        layer: &'l L,
        pack: ConvPack,
        state: ConvReuseState,
    }

    impl<'l, L: ConvLayer> Harness<'l, L> {
        fn new(layer: &'l L, in_shape: &Shape) -> Self {
            Harness {
                layer,
                pack: ConvPack::new(layer),
                state: ConvReuseState::new(layer, in_shape).unwrap(),
            }
        }

        fn step(&mut self, input: &[f32]) -> Result<(Vec<f32>, ExecStats), ReuseError> {
            let mut out = Vec::new();
            let stats = self.state.execute_into_packed(
                &SERIAL,
                self.layer,
                &self.pack,
                &q(),
                input,
                &mut out,
            )?;
            Ok((out, stats))
        }
    }

    /// From-scratch forward on the quantized input: the correctness oracle.
    fn oracle(layer: &impl ConvLayer, dhw: [usize; 3], input: &[f32]) -> Vec<f32> {
        let centroids = q().quantized_values(input);
        reuse_tensor::conv::conv_forward_naive(
            layer.geometry(),
            dhw,
            &centroids,
            layer.weights(),
            layer.bias(),
        )
        .unwrap()
    }

    fn rand_input(shape: &Shape, seed: u64) -> Vec<f32> {
        let mut rng = Rng64::new(seed);
        Tensor::from_fn(shape.clone(), |_| rng.uniform(0.9)).into_vec()
    }

    fn assert_close(got: &[f32], want: &[f32], tol: f32, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (x, y) in got.iter().zip(want) {
            assert!((x - y).abs() < tol, "{what}: {x} vs {y}");
        }
    }

    #[test]
    fn affected_range_covers_the_receptive_fields() {
        // k=3, s=1, p=0, n=6: input y=3 is covered by outputs 1,2,3; the
        // border input y=0 only by output 0.
        assert_eq!(affected_range(3, 3, 1, 0, 6), (1, 4));
        assert_eq!(affected_range(0, 3, 1, 0, 6), (0, 1));
        // k=3, s=1, p=1, n=6 (same conv on a 6-long input): y=0 is covered
        // by outputs 0 and 1 (and the padded -1 position).
        assert_eq!(affected_range(0, 3, 1, 1, 6), (0, 2));
        assert_eq!(affected_range(5, 3, 1, 1, 6), (4, 6));
        // k=5, s=2, p=0: input y=6 is covered by oy with 2oy<=6<=2oy+4,
        // i.e. oy in {1,2,3}.
        assert_eq!(affected_range(6, 5, 2, 0, 10), (1, 4));
    }

    #[test]
    fn fanout_sums_to_total_macs_without_padding() {
        // Without padding every from-scratch MAC corresponds to exactly one
        // (input, output, filter) triple, so sum of fan-outs == total MACs.
        let layer = layer2d(1, 0);
        let in_shape = Shape::d3(2, 6, 6);
        let mut h = Harness::new(&layer, &in_shape);
        let a = rand_input(&in_shape, 1);
        h.step(&a).unwrap();
        // Shift every input by three steps: every code changes, so the
        // correction performs the full fan-out of every input.
        let shift = 3.0 * q().step();
        let b: Vec<f32> = a.iter().map(|v| v + shift).collect();
        let (_, stats) = h.step(&b).unwrap();
        assert_eq!(stats.n_changed, stats.n_inputs);
        assert_eq!(stats.macs_performed, stats.macs_total);
    }

    #[test]
    fn incremental_matches_oracle_2d() {
        for (stride, pad) in [(1usize, 0usize), (1, 1), (2, 0), (2, 1)] {
            let what = format!("stride {stride} pad {pad}");
            let layer = layer2d(stride, pad);
            let in_shape = Shape::d3(2, 7, 7);
            let mut h = Harness::new(&layer, &in_shape);
            let a = rand_input(&in_shape, 2);
            let (out0, s0) = h.step(&a).unwrap();
            assert!(s0.from_scratch);
            assert_close(&out0, &oracle(&layer, [1, 7, 7], &a), 1e-4, &what);
            // Perturb a few pixels heavily.
            let mut b = a.clone();
            b[5] = -b[5] + 0.3;
            b[40] = 0.77;
            b[90] = -0.9;
            let (out1, s1) = h.step(&b).unwrap();
            assert!(!s1.from_scratch);
            assert!(s1.n_changed >= 2, "{what}");
            assert!(s1.macs_performed < s1.macs_total);
            assert_close(&out1, &oracle(&layer, [1, 7, 7], &b), 1e-3, &what);
        }
    }

    #[test]
    fn identical_input_is_free_2d() {
        let layer = layer2d(1, 1);
        let in_shape = Shape::d3(2, 5, 5);
        let mut h = Harness::new(&layer, &in_shape);
        let a = rand_input(&in_shape, 3);
        let (o1, _) = h.step(&a).unwrap();
        let (o2, stats) = h.step(&a).unwrap();
        assert_eq!(stats.macs_performed, 0);
        assert_eq!(stats.n_changed, 0);
        assert_eq!(o1, o2);
    }

    #[test]
    fn incremental_matches_oracle_3d() {
        let layer = layer3d();
        let in_shape = Shape::d4(2, 4, 5, 5);
        let mut h = Harness::new(&layer, &in_shape);
        let a = rand_input(&in_shape, 6);
        h.step(&a).unwrap();
        let mut b = a.clone();
        b[17] = 0.9;
        b[100] = -0.6;
        let (out, stats) = h.step(&b).unwrap();
        assert!(stats.n_changed >= 1);
        assert_close(&out, &oracle(&layer, [4, 5, 5], &b), 1e-3, "3d");
    }

    /// The selection in `ConvReuseState::new` cannot show in any output:
    /// on one geometry, one stream and arbitrary (rounding-sensitive)
    /// weights, the gather kernel and the row-grid walk leave bit-identical
    /// outputs and equal counters — both sides of `GATHER_MAX_FANOUT`, both
    /// ranks, padded and strided, filter counts with masked tails and more
    /// than one 64-lane tile, frames with no change and with every input
    /// changed.
    #[test]
    fn the_two_correction_kernels_agree_bitwise() {
        fn check<L: ConvLayer>(layer: &L, in_shape: &Shape, what: &str) {
            let pack = ConvPack::new(layer);
            let mut states = [true, false]
                .map(|gather| ConvReuseState::with_kernel(layer, in_shape, gather).unwrap());
            assert!(matches!(states[0].correction, Correction::Gather(_)));
            assert!(matches!(states[1].correction, Correction::RowGrids(_)));
            let mut rng = Rng64::new(77);
            let mut frame = rand_input(in_shape, 78);
            let (mut outs, mut stats) = ([Vec::new(), Vec::new()], Vec::new());
            for step in 0..6 {
                match step {
                    // Unchanged, then every input moved, then a scattering.
                    1 => {}
                    2 => frame.iter_mut().for_each(|v| *v = -*v + 0.05),
                    _ => (0..frame.len() / 5 + 1).for_each(|_| {
                        let i = (rng.next_u64() % frame.len() as u64) as usize;
                        frame[i] = (frame[i] + rng.uniform(0.6)).clamp(-1.0, 1.0);
                    }),
                }
                stats.clear();
                for (state, out) in states.iter_mut().zip(&mut outs) {
                    let s = state.execute_into_packed(&SERIAL, layer, &pack, &q(), &frame, out);
                    stats.push(s.unwrap());
                }
                assert_eq!(stats[0], stats[1], "{what} step {step}");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                assert_eq!(bits(&outs[0]), bits(&outs[1]), "{what} step {step}");
            }
            assert!(stats[0].n_changed > 0 && !stats[0].from_scratch, "{what}");
        }
        for (kh, kw, stride, pad, out_channels) in [
            (3, 3, 1, 1, 3),
            (5, 5, 2, 0, 36),
            (3, 8, 1, 2, 24),
            (3, 1, 3, 0, 7),
            (2, 4, 1, 0, 130),
            (3, 7, 2, 1, 64),
        ] {
            let spec = Conv2dSpec {
                in_channels: 2,
                out_channels,
                kh,
                kw,
                stride,
                pad,
            };
            let layer = Conv2dLayer::random(spec, Activation::Identity, &mut Rng64::new(31));
            check(&layer, &Shape::d3(2, 7, 9), &format!("{spec:?}"));
        }
        for (stride, pad, out_channels) in [(1, 1, 8), (2, 0, 72), (1, 0, 5)] {
            let spec = Conv3dSpec {
                in_channels: 2,
                out_channels,
                kd: 3,
                kh: 3,
                kw: 3,
                stride,
                pad,
            };
            let layer = Conv3dLayer::random(spec, Activation::Identity, &mut Rng64::new(32));
            check(&layer, &Shape::d4(2, 4, 5, 6), &format!("{spec:?}"));
        }
    }

    /// What `new` derives from the geometry: AutoPilot's 5×5 stride-2 and
    /// 3×3 stride-1 layers (fan-out 9) gather, C3D's 3×3×3 stride-1 layers
    /// (fan-out 27) and kernels wider than a vector walk row grids.
    #[test]
    fn fan_out_selects_the_correction_kernel() {
        let gathers = |kh, kw, stride| {
            let spec = Conv2dSpec {
                in_channels: 1,
                out_channels: 2,
                kh,
                kw,
                stride,
                pad: 0,
            };
            let layer = Conv2dLayer::random(spec, Activation::Identity, &mut Rng64::new(1));
            let state = ConvReuseState::new(&layer, &Shape::d3(1, 12, 12)).unwrap();
            matches!(state.correction, Correction::Gather(_))
        };
        assert!(gathers(5, 5, 2) && gathers(3, 3, 1) && gathers(1, 8, 1));
        assert!(!gathers(5, 5, 1) && !gathers(4, 4, 1) && !gathers(1, 9, 1));
        let c3d = ConvReuseState::new(&layer3d(), &Shape::d4(2, 4, 5, 5)).unwrap();
        assert!(matches!(c3d.correction, Correction::RowGrids(_)));
    }

    #[test]
    fn reset_and_storage() {
        let layer = layer2d(1, 0);
        let in_shape = Shape::d3(2, 6, 6);
        let mut h = Harness::new(&layer, &in_shape);
        // out: 3 x 4 x 4.
        assert_eq!(h.state.storage_bytes(), (2 * 36 + 4 * 3 * 16) as u64);
        h.step(&rand_input(&in_shape, 7)).unwrap();
        assert!(h.state.is_initialized());
        h.state.reset();
        assert!(!h.state.is_initialized());
    }

    #[test]
    fn wrong_shape_rejected() {
        let layer = layer2d(1, 0);
        assert!(ConvReuseState::new(&layer, &Shape::d3(3, 6, 6)).is_err());
        // A 2D layer does not take a [c, d, h, w] input, nor a 3D layer a
        // [c, h, w] one.
        assert!(ConvReuseState::new(&layer, &Shape::d4(2, 1, 6, 6)).is_err());
        assert!(ConvReuseState::new(&layer3d(), &Shape::d3(2, 6, 6)).is_err());
        let mut ok = Harness::new(&layer, &Shape::d3(2, 6, 6));
        assert!(ok.step(&[0.0; 2 * 5 * 5]).is_err());
    }
}
