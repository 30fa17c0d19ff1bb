//! Incremental convolution execution (paper Section IV-C).
//!
//! In a convolutional layer every input pixel/voxel feeds a bounded window
//! of output neurons: `k×k` positions per output feature map (`k×k×k` for 3D
//! convolution), for every filter. When an input's quantized index changes,
//! the accelerator corrects exactly that fan-out (paper Fig. 8); when it is
//! unchanged, the entire fan-out of computations and weight fetches is
//! skipped.
//!
//! One mechanism, so one of everything: [`ConvReuseState`] corrects layers of
//! either rank through [`reuse_tensor::conv::ConvGeometry`] (a 2D layer is
//! the depth-1 case), against one [`ConvPack`] — a handle on the layer's own
//! `[taps, out_c]` [`PackedPanels`], the copy its forward pass multiplies
//! against, shared by every stream. States hold only per-stream data, and
//! hold their buffered pre-activations **channels-last**
//! (`[od·oh·ow, out_c]`): the layout the forward GEMM produces and the one
//! in which a correction is contiguous.
//!
//! Pass 1 quantizes the frame and diffs the codes through
//! [`LinearQuantizer::diff_codes_into`] (SIMD-dispatched, bit-exact at every
//! [`reuse_tensor::SimdLevel`]), then records each changed input's geometry
//! (channel weight offset, padded coordinates, affected output ranges from a
//! per-axis table) in a reusable scratch list. Pass 2 walks that list once
//! per worker, workers owning whole output rows: for each affected position
//! the correction is one AXPY of the tap's weight row onto the position's
//! `out_c` contiguous outputs, and a changed input's `(oy, ox)` fan-out in
//! one output plane is one [`PackedPanels::axpy_row_grids`] grid (fused at
//! AVX2 like the FC and LSTM corrections, multiply-then-add at the scalar
//! level). Every
//! output element receives its corrections in changed-list (input) order on
//! one thread, so results are identical at every thread count. The
//! write-out transposes into the `[out_c, (od,) oh, ow]` layout the next
//! layer expects.

use std::sync::Arc;

use reuse_nn::{Conv2dLayer, Conv3dLayer};
use reuse_quant::{LinearQuantizer, QuantCode};
use reuse_tensor::block::RowGrid;
use reuse_tensor::conv::{conv_forward_with, transpose_into, ConvGeometry};
use reuse_tensor::parallel::parallel_for_mut_cost;
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

/// One changed input's correction, with its geometry precomputed in pass 1
/// so pass 2 does no division or range math: the affected output ranges and
/// the weight row (kernel tap) the input reaches its first affected output
/// through. Kept to 32 bytes — the list is written and re-read every frame.
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
/// (the pack lives in `CompiledModel`, not in per-stream state) reads the
/// same bytes.
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

    /// Bytes occupied by the packed panels (shared with the layer).
    pub fn bytes(&self) -> u64 {
        self.panels.storage_bytes() as u64
    }
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
    /// [`affected_range`] of every input coordinate, the `d`, `h` and `w`
    /// axes back to back: tabulated once, so pass 1 looks ranges up instead
    /// of dividing (per-delta range divisions cost as much as a small
    /// fan-out's MACs).
    fanout: Vec<(u32, u32)>,
    prev_codes: Vec<QuantCode>,
    /// Buffered pre-activations, channels-last (`[od·oh·ow, out_c]`) — the
    /// one buffered copy; layer-boundary layouts are transposed in and out.
    prev_linear: Vec<f32>,
    /// Scratch list of precomputed per-delta corrections, collected
    /// serially in input order; capacity for the worst case (every input
    /// changes) is reserved up front so steady-state frames never allocate.
    deltas: Vec<ConvDelta>,
    /// Scratch: this frame's fresh codes during the diff pass.
    scratch_codes: Vec<QuantCode>,
    /// Scratch: `(input index, centroid delta)` pairs from the diff pass.
    changed: Vec<(u32, f32)>,
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
        // Changed-input indices, output coordinates and tap indices are kept
        // as u32 (see `ConvDelta`).
        let widest = in_shape.volume().max(geometry.taps());
        if u32::try_from(widest.max(out_dhw.iter().product())).is_err() {
            return Err(ReuseError::InvalidConfig {
                context: format!("conv{}d state on {in_shape} exceeds u32 indexing", L::RANK),
            });
        }
        let (k, s, p) = (geometry.kernel(), geometry.stride(), geometry.pad());
        let fanout = (0..3)
            .flat_map(|a| (0..in_dhw[a]).map(move |y| affected_range(y, k[a], s, p[a], out_dhw[a])))
            .collect();
        let n_in = in_shape.volume();
        Ok(ConvReuseState {
            geometry,
            in_dhw,
            out_dhw,
            fanout,
            prev_codes: Vec::new(),
            prev_linear: Vec::new(),
            deltas: Vec::with_capacity(n_in),
            scratch_codes: Vec::with_capacity(n_in),
            changed: Vec::with_capacity(n_in),
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
        self.deltas.clear();
        self.scratch_codes.clear();
        self.changed.clear();
        self.initialized = false;
    }

    fn in_volume(&self) -> usize {
        self.geometry.in_channels() * self.in_dhw.iter().product::<usize>()
    }

    /// Extra storage: one byte per input index plus four bytes per buffered
    /// output (Table III accounting; for CNNs these live in main memory
    /// between executions with one block staged on-chip).
    pub fn storage_bytes(&self) -> u64 {
        let out_volume = self.geometry.out_channels() * self.out_dhw.iter().product::<usize>();
        (self.in_volume() + 4 * out_volume) as u64
    }

    /// Replaces `out` with the buffered linear (pre-activation) outputs of
    /// the last execution in the layer-boundary `[out_c, (od,)
    /// oh, ow]` layout (nothing before initialization). Read by the drift
    /// watchdog and the signature cache; also every execution's write-out.
    pub fn buffered_linear_into(&self, out: &mut Vec<f32>) {
        let out_c = self.geometry.out_channels();
        let positions = self.prev_linear.len() / out_c;
        // Every element is overwritten: size the buffer without clearing it.
        out.resize(self.prev_linear.len(), 0.0);
        transpose_into(&self.prev_linear, positions, out_c, out);
    }

    /// Replaces the buffered state with externally computed values (codes
    /// from quantizing `input`, linear outputs from the `[out_c, (od,) oh,
    /// ow]` `linear`, transposed in); used by the drift watchdog to
    /// re-baseline onto full-precision values.
    ///
    /// # Panics
    ///
    /// Panics when `linear` does not have the layer's output volume.
    pub fn adopt_baseline(&mut self, quantizer: &LinearQuantizer, input: &[f32], linear: &[f32]) {
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
    /// must be the [`ConvPack`] built from `layer`. Changed inputs are
    /// diffed serially (precomputing each delta's geometry); corrections are
    /// applied with each worker owning whole output rows (one `oy` row of
    /// every filter). Every output accumulates its deltas in input order, so
    /// the result is bit-identical to serial execution. Correction frames
    /// below the config's inline-FLOP threshold run inline with no thread
    /// spawns.
    ///
    /// # Errors
    ///
    /// Returns [`ReuseError`] when `input` has the wrong length, or when
    /// `layer` or `pack` do not have the weight volume of the layer the
    /// state was built for.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_into_packed<L: ConvLayer>(
        &mut self,
        config: &ParallelConfig,
        layer: &L,
        pack: &ConvPack,
        quantizer: &LinearQuantizer,
        input: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<ExecStats, ReuseError> {
        let g = self.geometry;
        let (in_dhw, n_in) = (self.in_dhw, self.in_volume());
        if input.len() != n_in {
            return Err(ReuseError::InvalidConfig {
                context: format!("conv input length {} != state volume {n_in}", input.len()),
            });
        }
        let panels: &PackedPanels = &pack.panels;
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
            let bias = layer.bias();
            let linear = conv_forward_with(config, &g, in_dhw, &centroids, panels, bias)?;
            self.adopt_baseline(quantizer, input, &linear);
            out.clear();
            out.extend_from_slice(&linear);
            return Ok(ExecStats {
                n_inputs: n_in,
                n_changed: n_in,
                macs_total,
                macs_performed: macs_total,
                from_scratch: true,
            });
        }

        // Pass 1 (serial): quantize the frame and diff the codes (both
        // dispatched, bit-exact at every SIMD level), then precompute each
        // delta's geometry and the correction MAC count in input order.
        quantizer.diff_codes_into(
            input,
            &mut self.prev_codes,
            &mut self.scratch_codes,
            &mut self.changed,
        );
        let [d, h, w] = in_dhw;
        let [_, oh, ow] = self.out_dhw;
        let [kd, kh, kw] = g.kernel();
        let [pd, ph, pw] = g.pad();
        let s = g.stride();
        let k_vol = kd * kh * kw;
        let (fz, fyx) = self.fanout.split_at(d);
        let (fy, fx) = fyx.split_at(h);
        let mut macs = 0u64;
        self.deltas.clear();
        // The changed list ascends, so the coordinates advance with it and
        // divide only when they wrap a row (divisions per delta cost as much
        // as a small fan-out's MACs); the ranges are looked up.
        let (mut c, mut z, mut y, mut x, mut at) = (0, 0, 0, 0, 0);
        for &(idx, delta) in &self.changed {
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
            let fan_out = ((oz.1 - oz.0) * (oy.1 - oy.0) * (ox.1 - ox.0)) as usize;
            if fan_out == 0 {
                // An input between strides can feed no output at all.
                continue;
            }
            macs += (fan_out * fc) as u64;
            let tap = c * k_vol + ((z + pd) * kh + y + ph) * kw + x + pw - ox.0 as usize * s;
            self.deltas.push(ConvDelta {
                delta,
                tap: tap as u32,
                oz,
                oy,
                ox,
            });
        }

        // Pass 2 (parallel over output rows): per delta and output plane,
        // the affected (oy, ox) grid is rows of `out_c` contiguous floats in
        // the channels-last buffer — consecutive along ox, `row_len` apart
        // along oy — reading taps `stride` (resp. `stride · kw`) apart,
        // descending.
        let row_len = ow * fc;
        let deltas: &[ConvDelta] = &self.deltas;
        parallel_for_mut_cost(
            config,
            &mut self.prev_linear,
            row_len,
            2 * macs,
            |offset, chunk| {
                let rows = offset / row_len..(offset + chunk.len()) / row_len;
                let grids = deltas.iter().flat_map(|dl| {
                    let rows = &rows;
                    (dl.oz.0 as usize..dl.oz.1 as usize).filter_map(move |oz| {
                        // This plane's affected oy range, clipped to the
                        // worker's rows.
                        let plane = oz * oh;
                        let lo = (dl.oy.0 as usize).max(rows.start.saturating_sub(plane));
                        let hi = (dl.oy.1 as usize).min(rows.end.saturating_sub(plane));
                        (lo < hi).then(|| RowGrid {
                            first_row: dl.tap as usize - (oz * kh + lo) * kw * s,
                            counts: [hi - lo, (dl.ox.1 - dl.ox.0) as usize],
                            at: (plane + lo - rows.start) * row_len + dl.ox.0 as usize * fc,
                            scale: dl.delta,
                        })
                    })
                });
                panels.axpy_row_grids([s * kw, s], row_len, grids, chunk);
            },
        );
        self.buffered_linear_into(out);
        Ok(ExecStats {
            n_inputs: n_in,
            n_changed: self.changed.len() as u64,
            macs_total,
            macs_performed: macs,
            from_scratch: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    /// point under the serial config.
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
                &ParallelConfig::serial(),
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
