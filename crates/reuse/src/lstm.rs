//! Incremental LSTM execution (paper Section IV-D).
//!
//! Recurrent layers are especially amenable to reuse:
//!
//! 1. The four gates of a cell share the same two inputs (`x_t` and
//!    `h_{t-1}`), so one index comparison saves work in all four gates.
//! 2. The layer is executed back-to-back for every timestep before moving
//!    on, so only one layer's state needs to stay resident.
//!
//! The state buffers, per direction: the quantized indices of the previous
//! feed-forward input (`x_{t-1}`) and previous recurrent input (`h_{t-2}`),
//! and the four gates' linear pre-activations from the previous timestep.
//! The nonlinear part (σ/φ, cell-state update) is always recomputed — it is
//! a negligible `O(cell)` cost next to the `O((n_in + cell) · cell)` gate
//! matrices.

use reuse_nn::lstm::NUM_GATES;
use reuse_nn::{LstmCell, LstmState};
use reuse_quant::{LinearQuantizer, QuantCode};
use reuse_tensor::block::apply_deltas_rows;
use reuse_tensor::ParallelConfig;

use crate::layer::{ExecStats, SERIAL};
use crate::ReuseError;

/// The immutable combined four-gate weight matrices of one LSTM cell,
/// packed once so every stream's correction pass can share one copy (it
/// lives in `CompiledModel`, not in per-stream state). Column `g·d + u` is
/// gate `g`, unit `u`: the layout matches the `[NUM_GATES × d]`
/// pre-activation buffer, so one batched row walk corrects all four gates —
/// the "one comparison pays four gates" property of the paper, with the gate
/// loop folded into the row.
#[derive(Debug, Clone)]
pub struct LstmGatePack {
    /// All four gates' feed-forward weights, row-major `[n_in, NUM_GATES·d]`.
    combined_x: Vec<f32>,
    /// Same combined matrix for the recurrent weights (`[d, NUM_GATES·d]`).
    combined_h: Vec<f32>,
}

impl LstmGatePack {
    /// Combines the eight gate weight matrices into the two four-gate
    /// matrices.
    pub fn new(cell: &LstmCell) -> Self {
        let (n_in, d) = (cell.n_in(), cell.cell_dim());
        let combine = |rows: usize, gates: [&[f32]; NUM_GATES]| {
            let mut all = vec![0.0f32; rows * NUM_GATES * d];
            for (g, w) in gates.iter().enumerate() {
                for i in 0..rows {
                    all[i * NUM_GATES * d + g * d..][..d].copy_from_slice(&w[i * d..(i + 1) * d]);
                }
            }
            all
        };
        LstmGatePack {
            combined_x: combine(n_in, core::array::from_fn(|g| cell.w_x(g).as_slice())),
            combined_h: combine(d, core::array::from_fn(|g| cell.w_h(g).as_slice())),
        }
    }

    /// Bytes occupied by the two combined matrices.
    pub fn bytes(&self) -> u64 {
        ((self.combined_x.len() + self.combined_h.len()) * 4) as u64
    }
}

/// Buffered reuse state of one LSTM cell (one direction of a BiLSTM layer).
#[derive(Debug, Clone)]
pub struct LstmReuseState {
    prev_x_codes: Vec<QuantCode>,
    prev_h_codes: Vec<QuantCode>,
    /// Previous gate pre-activations, `[NUM_GATES × cell_dim]` row-major.
    prev_pre: Vec<f32>,
    /// Scratch `(index, centroid delta)` list of changed feed-forward
    /// inputs, reused across steps.
    changed_x: Vec<(u32, f32)>,
    /// Scratch changed list for the recurrent inputs.
    changed_h: Vec<(u32, f32)>,
    /// Recurrent (h, c) state carried between timesteps.
    state: LstmState,
    initialized: bool,
}

impl LstmReuseState {
    /// Creates empty per-stream state for a cell. The state carries no
    /// weights: corrections go through [`Self::step_into_packed`] with the
    /// cell's shared [`LstmGatePack`], so N streams share one pack instead
    /// of holding `O(params)` copies each.
    pub fn new_shared(cell: &LstmCell) -> Self {
        let (n_in, d) = (cell.n_in(), cell.cell_dim());
        LstmReuseState {
            prev_x_codes: Vec::with_capacity(n_in),
            prev_h_codes: Vec::with_capacity(d),
            prev_pre: Vec::new(),
            changed_x: Vec::with_capacity(n_in),
            changed_h: Vec::with_capacity(d),
            state: LstmState::zeros(d),
            initialized: false,
        }
    }

    /// Whether the first (from-scratch) step has happened.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Resets recurrent and reuse state (start of a new sequence).
    pub fn reset(&mut self, cell: &LstmCell) {
        self.prev_x_codes.clear();
        self.prev_h_codes.clear();
        self.prev_pre.clear();
        self.changed_x.clear();
        self.changed_h.clear();
        let d = cell.cell_dim();
        if self.state.h.len() == d {
            self.state.h.fill(0.0);
            self.state.c.fill(0.0);
        } else {
            self.state = LstmState::zeros(d);
        }
        self.initialized = false;
    }

    /// The current recurrent state (h after the last step).
    pub fn state(&self) -> &LstmState {
        &self.state
    }

    /// Extra I/O-buffer bytes: indices for x and h (1 byte each) plus the
    /// buffered pre-activations of the four gates (4 bytes each).
    pub fn storage_bytes(&self, cell: &LstmCell) -> u64 {
        (cell.n_in() + cell.cell_dim() + 4 * NUM_GATES * cell.cell_dim()) as u64
    }

    /// Runs one timestep on feed-forward input `x`, reusing unchanged
    /// inputs: clears `h_out` and writes the new hidden output `h_t` into
    /// it. Allocation-free once initialized. `pack` must be the
    /// [`LstmGatePack`] built from `cell`.
    ///
    /// Both `x` and the recurrent input `h_{t-1}` are quantized with the
    /// provided quantizers and diffed, then the corrections are applied
    /// through the combined four-gate matrices in delta batches: every
    /// output accumulates all x deltas then all h deltas in input order —
    /// the same per-output order as the naive scattered row walk
    /// ([`Self::step_into_naive`]) — so under the scalar SIMD level results
    /// are bit-identical to it (under AVX2 the batched walk fuses deltas
    /// into FMAs and agrees within `reuse_tensor::simd::fma_tolerance`).
    ///
    /// # Errors
    ///
    /// Returns [`ReuseError`] when `x` has the wrong length or `pack` was
    /// not built from a cell of `cell`'s dimensions.
    #[allow(clippy::too_many_arguments)]
    pub fn step_into_packed(
        &mut self,
        _config: &ParallelConfig,
        cell: &LstmCell,
        pack: &LstmGatePack,
        x_quantizer: &LinearQuantizer,
        h_quantizer: &LinearQuantizer,
        x: &[f32],
        h_out: &mut Vec<f32>,
    ) -> Result<ExecStats, ReuseError> {
        let (n_in, d) = (cell.n_in(), cell.cell_dim());
        let width = NUM_GATES * d;
        if pack.combined_x.len() != n_in * width || pack.combined_h.len() != d * width {
            return Err(ReuseError::InvalidConfig {
                context: format!(
                    "lstm gate pack ({} + {} weights) does not match a {n_in}->{d} cell",
                    pack.combined_x.len(),
                    pack.combined_h.len()
                ),
            });
        }
        self.step_into_impl(cell, x_quantizer, h_quantizer, x, h_out, Some(pack))
    }

    /// [`Self::step_into_packed`] through the pre-blocking scattered row
    /// walk over the cell's own weight matrices (no pack). Kept as the
    /// bit-identity oracle for tests and as the before-side of the kernel
    /// benchmarks; not part of the supported API.
    ///
    /// # Errors
    ///
    /// Returns [`ReuseError`] when `x` has the wrong length.
    #[doc(hidden)]
    pub fn step_into_naive(
        &mut self,
        cell: &LstmCell,
        x_quantizer: &LinearQuantizer,
        h_quantizer: &LinearQuantizer,
        x: &[f32],
        h_out: &mut Vec<f32>,
    ) -> Result<ExecStats, ReuseError> {
        self.step_into_impl(cell, x_quantizer, h_quantizer, x, h_out, None)
    }

    /// One timestep; `pack` selects the batched walk over the combined
    /// matrices, `None` the reference walk over the cell's raw weights.
    fn step_into_impl(
        &mut self,
        cell: &LstmCell,
        x_quantizer: &LinearQuantizer,
        h_quantizer: &LinearQuantizer,
        x: &[f32],
        h_out: &mut Vec<f32>,
        pack: Option<&LstmGatePack>,
    ) -> Result<ExecStats, ReuseError> {
        let n_in = cell.n_in();
        let d = cell.cell_dim();
        if x.len() != n_in {
            return Err(ReuseError::Nn(reuse_nn::NnError::InputShape {
                expected: n_in,
                actual: x.len(),
            }));
        }
        let macs_total = (NUM_GATES * (n_in + d) * d) as u64;
        let n_inputs = (n_in + d) as u64;

        if !self.initialized {
            // First timestep: quantize x and h (h starts at zero), compute
            // the four gates from scratch on the centroids.
            x_quantizer.quantize_slice_into(x, &mut self.prev_x_codes);
            h_quantizer.quantize_slice_into(&self.state.h, &mut self.prev_h_codes);
            let qx: Vec<f32> = self
                .prev_x_codes
                .iter()
                .map(|&c| x_quantizer.centroid(c))
                .collect();
            let qh: Vec<f32> = self
                .prev_h_codes
                .iter()
                .map(|&c| h_quantizer.centroid(c))
                .collect();
            self.prev_pre = cell.gate_preactivations(&qx, &qh)?;
            cell.step_from_preactivations_in_place(&self.prev_pre, &mut self.state);
            self.initialized = true;
            h_out.clear();
            h_out.extend_from_slice(&self.state.h);
            return Ok(ExecStats {
                n_inputs,
                n_changed: n_inputs,
                macs_total,
                macs_performed: macs_total,
                from_scratch: true,
            });
        }

        // Pass 1: diff x_t vs x_{t-1} and h_{t-1} vs h_{t-2}, collecting the
        // changed lists in input order. One pass each, vectorized under the
        // AVX2 level with bit-exact codes and deltas at every level.
        x_quantizer.diff_codes(x, &mut self.prev_x_codes, &mut self.changed_x);
        h_quantizer.diff_codes(&self.state.h, &mut self.prev_h_codes, &mut self.changed_h);

        // Pass 2: correct the 4×d pre-activation buffer; one index
        // comparison above pays for the correction in all four gates. Each
        // output accumulates all x deltas then all h deltas in input order
        // on both branches (bit-identical under the scalar SIMD level,
        // FMA-fused under AVX2).
        let changed_x: &[(u32, f32)] = &self.changed_x;
        let changed_h: &[(u32, f32)] = &self.changed_h;
        if let Some(pack) = pack {
            // Delta-batched walk over the combined four-gate matrices:
            // DELTA_BATCH changed rows streamed together per pass, all
            // gates corrected in one sweep per source.
            let (width, pre) = (NUM_GATES * d, &mut self.prev_pre);
            apply_deltas_rows(&SERIAL, &pack.combined_x, width, changed_x, pre);
            apply_deltas_rows(&SERIAL, &pack.combined_h, width, changed_h, pre);
        } else {
            // Scattered row walk over the raw weight matrices, gate by gate.
            for (g, gate) in self.prev_pre.chunks_exact_mut(d).enumerate() {
                for (w, changed) in [(cell.w_x(g), changed_x), (cell.w_h(g), changed_h)] {
                    for &(i, delta) in changed {
                        let row = &w.as_slice()[i as usize * d..][..d];
                        for (z, &wij) in gate.iter_mut().zip(row) {
                            *z += delta * wij;
                        }
                    }
                }
            }
        }
        let changed = (self.changed_x.len() + self.changed_h.len()) as u64;
        cell.step_from_preactivations_in_place(&self.prev_pre, &mut self.state);
        h_out.clear();
        h_out.extend_from_slice(&self.state.h);
        Ok(ExecStats {
            n_inputs,
            n_changed: changed,
            macs_total,
            macs_performed: changed * (NUM_GATES * d) as u64,
            from_scratch: false,
        })
    }
}

/// Reference from-scratch LSTM on quantized inputs — the oracle the
/// incremental path must match. Runs a whole sequence and returns the h
/// outputs.
///
/// # Errors
///
/// Returns [`ReuseError`] when a frame has the wrong length.
pub fn quantized_scratch_sequence(
    cell: &LstmCell,
    x_quantizer: &LinearQuantizer,
    h_quantizer: &LinearQuantizer,
    xs: &[Vec<f32>],
) -> Result<Vec<Vec<f32>>, ReuseError> {
    let mut state = LstmState::zeros(cell.cell_dim());
    let mut out = Vec::with_capacity(xs.len());
    for x in xs {
        let qx = x_quantizer.quantized_values(x);
        let qh = h_quantizer.quantized_values(&state.h);
        let pre = cell.gate_preactivations(&qx, &qh)?;
        state = cell.step_from_preactivations(&pre, &state);
        out.push(state.h.clone());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuse_nn::init::Rng64;
    use reuse_quant::InputRange;

    /// A cell with its pack and quantizers, stepping per-stream state
    /// through the production entry point.
    struct Harness {
        cell: LstmCell,
        pack: LstmGatePack,
        xq: LinearQuantizer,
        hq: LinearQuantizer,
        state: LstmReuseState,
    }

    impl Harness {
        fn new(cell: LstmCell) -> Self {
            let q = || LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap();
            Harness {
                pack: LstmGatePack::new(&cell),
                state: LstmReuseState::new_shared(&cell),
                xq: q(),
                hq: q(),
                cell,
            }
        }

        fn step(&mut self, x: &[f32]) -> Result<(Vec<f32>, ExecStats), ReuseError> {
            let mut h = Vec::new();
            let stats = self.state.step_into_packed(
                &SERIAL, &self.cell, &self.pack, &self.xq, &self.hq, x, &mut h,
            )?;
            Ok((h, stats))
        }
    }

    fn setup() -> Harness {
        Harness::new(LstmCell::random(5, 3, &mut Rng64::new(31)))
    }

    fn sequence(len: usize, seed: u64) -> Vec<Vec<f32>> {
        // Smooth random walk so consecutive frames are similar.
        let mut rng = Rng64::new(seed);
        let mut frame = vec![0.0f32; 5];
        (0..len)
            .map(|_| {
                for v in &mut frame {
                    *v = (*v + rng.uniform(0.15)).clamp(-1.0, 1.0);
                }
                frame.clone()
            })
            .collect()
    }

    #[test]
    fn incremental_matches_quantized_scratch_over_sequence() {
        let mut h = setup();
        let xs = sequence(40, 7);
        let oracle = quantized_scratch_sequence(&h.cell, &h.xq, &h.hq, &xs).unwrap();
        for (t, x) in xs.iter().enumerate() {
            let (out, _) = h.step(x).unwrap();
            for (a, b) in out.iter().zip(oracle[t].iter()) {
                assert!((a - b).abs() < 1e-3, "t={t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn first_step_is_scratch_then_incremental() {
        let mut h = setup();
        let (_, s0) = h.step(&[0.1; 5]).unwrap();
        assert!(s0.from_scratch);
        assert_eq!(s0.macs_performed, s0.macs_total);
        let (_, s1) = h.step(&[0.1; 5]).unwrap();
        assert!(!s1.from_scratch);
        // x unchanged; only h inputs that crossed a cluster boundary cost.
        assert!(s1.macs_performed < s1.macs_total);
    }

    #[test]
    fn constant_input_converges_to_full_reuse() {
        // With a constant input the hidden state converges, so eventually
        // neither x nor h codes change and steps become free.
        let mut h = setup();
        let x = [0.3f32, -0.2, 0.1, 0.0, 0.25];
        let mut last = 0;
        for _ in 0..50 {
            let (_, s) = h.step(&x).unwrap();
            last = s.macs_performed;
        }
        assert_eq!(last, 0, "steady state should be fully reused");
    }

    #[test]
    fn shared_gate_comparison_counts_inputs_once() {
        let (_, s) = setup().step(&[0.0; 5]).unwrap();
        // inputs = n_in + cell_dim, NOT multiplied by 4 gates.
        assert_eq!(s.n_inputs, 5 + 3);
    }

    #[test]
    fn changed_input_costs_four_gates() {
        let mut h = setup();
        // Freeze h by re-stepping until stable, then flip one x input.
        for _ in 0..31 {
            h.step(&[0.0; 5]).unwrap();
        }
        let mut x = [0.0f32; 5];
        x[2] = 0.9;
        let (_, s) = h.step(&x).unwrap();
        // The one changed x input costs 4 gates × cell_dim MACs (plus any h
        // drift, which is zero at the fixed point).
        assert_eq!(s.macs_performed % (4 * 3) as u64, 0);
        assert!(s.macs_performed >= (4 * 3) as u64);
    }

    #[test]
    fn panel_batched_step_matches_naive_walk() {
        // Odd cell_dim so the packed panels have a partial tail lane.
        // Under the scalar SIMD level the two walks are bit-identical
        // (including stats). Under AVX2 the batched walk fuses deltas into
        // FMAs, and — because h feeds back into the next step's code
        // comparison — a ULP difference could in principle flip a cluster
        // boundary, so only the hidden outputs are compared (within FMA
        // tolerance), not the per-step stats.
        let mut blocked = Harness::new(LstmCell::random(13, 11, &mut Rng64::new(5)));
        let mut naive = LstmReuseState::new_shared(&blocked.cell);
        let bit_exact = reuse_tensor::simd::is_bit_exact();
        let mut rng = Rng64::new(17);
        let mut frame = vec![0.0f32; 13];
        let mut hn = Vec::new();
        for step in 0..25 {
            for v in &mut frame {
                *v = (*v + rng.uniform(0.2)).clamp(-1.0, 1.0);
            }
            let (hb, sb) = blocked.step(&frame).unwrap();
            let (cell, xq, hq) = (&blocked.cell, &blocked.xq, &blocked.hq);
            let sn = naive
                .step_into_naive(cell, xq, hq, &frame, &mut hn)
                .unwrap();
            if bit_exact {
                assert_eq!(sb, sn);
            }
            // σ/φ keep |pre| differences contractive; a loose absolute
            // bound still catches any real indexing/batching bug.
            let tol = reuse_tensor::simd::fma_tolerance(24 * 25, 30.0);
            let mismatch = reuse_tensor::simd::kernel_mismatch(&hb, &hn, tol);
            assert!(mismatch.is_none(), "step {step}: {mismatch:?}");
        }
    }

    #[test]
    fn reset_starts_over() {
        let mut h = setup();
        h.step(&[0.5; 5]).unwrap();
        h.state.reset(&h.cell);
        assert!(!h.state.is_initialized());
        assert_eq!(h.state.state().h, vec![0.0; 3]);
        let (_, s) = h.step(&[0.5; 5]).unwrap();
        assert!(s.from_scratch);
    }

    #[test]
    fn storage_accounting() {
        let h = setup();
        // x indices (5) + h indices (3) + 4 gates × 3 preacts × 4 bytes.
        assert_eq!(h.state.storage_bytes(&h.cell), 5 + 3 + 48);
    }

    #[test]
    fn wrong_length_rejected() {
        assert!(setup().step(&[0.0; 4]).is_err());
    }
}
