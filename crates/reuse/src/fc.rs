//! Incremental fully-connected execution (paper Section IV-B, Eq. 10).
//!
//! The state buffers the layer's quantized input indices and its linear
//! (pre-activation) outputs from the previous execution — the two extra
//! I/O-buffer areas of paper Fig. 7. Each new execution quantizes the
//! current inputs, skips every input whose index is unchanged, and corrects
//! the buffered outputs for the rest:
//!
//! ```text
//! z'ₒ = zₒ + Σᵢ (c'ᵢ − cᵢ) · wᵢₒ        over changed inputs i only
//! ```

use reuse_nn::FullyConnected;
use reuse_quant::{LinearQuantizer, QuantCode};
use reuse_tensor::block::apply_deltas_rows;
use reuse_tensor::ParallelConfig;

use crate::layer::{ExecStats, SERIAL};
use crate::ReuseError;

/// Buffered state of one FC layer between executions.
#[derive(Debug, Clone)]
pub struct FcReuseState {
    /// Quantized input indices of the previous execution.
    prev_codes: Vec<QuantCode>,
    /// Linear (pre-activation) outputs of the previous execution.
    prev_linear: Vec<f32>,
    /// Scratch: `(input index, centroid delta)` of this frame's changed
    /// inputs. Reused across executions so the steady state performs no
    /// heap allocation.
    changed: Vec<(u32, f32)>,
    /// Scratch: the centroids a from-scratch execution runs on. Kept so a
    /// slot that restarts every sequence allocates only the first time.
    centroids: Vec<f32>,
    initialized: bool,
}

impl FcReuseState {
    /// Creates empty (uninitialized) state for a layer.
    pub fn new(layer: &FullyConnected) -> Self {
        FcReuseState {
            prev_codes: Vec::with_capacity(layer.n_in()),
            prev_linear: Vec::with_capacity(layer.n_out()),
            changed: Vec::with_capacity(layer.n_in()),
            centroids: Vec::new(),
            initialized: false,
        }
    }

    /// Whether the first (from-scratch) execution has happened.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Drops the buffered state; the next execution recomputes from scratch
    /// (the paper's accelerator does this when power-gated between
    /// sequences).
    pub fn reset(&mut self) {
        self.prev_codes.clear();
        self.prev_linear.clear();
        self.changed.clear();
        self.initialized = false;
    }

    /// Extra I/O-buffer bytes this state occupies: one byte per input index
    /// plus four bytes per buffered output (paper Table III accounting).
    pub fn storage_bytes(&self, layer: &FullyConnected) -> u64 {
        (layer.n_in() + 4 * layer.n_out()) as u64
    }

    /// The buffered linear (pre-activation) outputs of the last execution
    /// (empty before initialization). Read by the drift watchdog to measure
    /// per-layer deviation.
    pub fn buffered_linear(&self) -> &[f32] {
        &self.prev_linear
    }

    /// Replaces the buffered state with externally computed values: codes
    /// from quantizing `input`, linear outputs from `linear`. The drift
    /// watchdog uses this to re-baseline a drifted layer onto exact
    /// full-precision values without dropping reuse for subsequent frames.
    pub fn adopt_baseline(&mut self, quantizer: &LinearQuantizer, input: &[f32], linear: &[f32]) {
        quantizer.quantize_slice_into(input, &mut self.prev_codes);
        self.prev_linear.clear();
        self.prev_linear.extend_from_slice(linear);
        self.initialized = true;
    }

    /// Executes the layer on `input`, reusing the previous execution's
    /// results where the quantized inputs are unchanged: clears `out` and
    /// writes the `n_out` linear (pre-activation) outputs into it, reusing
    /// its capacity; the caller applies the activation. Allocation-free
    /// once initialized.
    ///
    /// Changed inputs are detected in one pass (updating the code buffer in
    /// input order), then the `(i, Δc)` deltas are applied against the
    /// layer's row-major `[n_in, n_out]` weights through
    /// `reuse_tensor::block::apply_deltas_rows`: a few changed rows are
    /// streamed together, so the buffered outputs are read and written once
    /// per batch of rows instead of once per delta. Each output neuron
    /// accumulates its deltas in changed-list (ascending input) order, one
    /// fused step each, so the result is bit-identical to the
    /// one-row-at-a-time walk ([`Self::execute_into_naive`]) at every SIMD
    /// level — outputs, codes, changed counts and MAC statistics alike.
    ///
    /// # Errors
    ///
    /// Returns [`ReuseError`] when `input` has the wrong length.
    pub fn execute_into(
        &mut self,
        _config: &ParallelConfig,
        layer: &FullyConnected,
        quantizer: &LinearQuantizer,
        input: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<ExecStats, ReuseError> {
        self.execute_into_impl(layer, quantizer, input, out, false)
    }

    /// [`Self::execute_into`] with the original unblocked correction walk
    /// (one scattered weight-row pass per changed input, each step fused).
    /// The bit-identity oracle for the row-batched path in proptests; not
    /// for production use.
    #[doc(hidden)]
    pub fn execute_into_naive(
        &mut self,
        layer: &FullyConnected,
        quantizer: &LinearQuantizer,
        input: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<ExecStats, ReuseError> {
        self.execute_into_impl(layer, quantizer, input, out, true)
    }

    fn execute_into_impl(
        &mut self,
        layer: &FullyConnected,
        quantizer: &LinearQuantizer,
        input: &[f32],
        out: &mut Vec<f32>,
        naive: bool,
    ) -> Result<ExecStats, ReuseError> {
        let n_in = layer.n_in();
        let n_out = layer.n_out();
        if input.len() != n_in {
            return Err(ReuseError::Nn(reuse_nn::NnError::InputShape {
                expected: n_in,
                actual: input.len(),
            }));
        }
        let macs_total = (n_in * n_out) as u64;
        if !self.initialized {
            // First execution: quantize every input, compute from scratch on
            // the centroids, buffer indices and linear outputs (paper
            // Fig. 7, "first execution").
            quantizer.quantize_slice_into(input, &mut self.prev_codes);
            self.centroids.clear();
            self.centroids
                .extend(self.prev_codes.iter().map(|&c| quantizer.centroid(c)));
            layer.forward_linear_into(&self.centroids, &mut self.prev_linear)?;
            self.changed.reserve(n_in);
            self.initialized = true;
            out.clear();
            out.extend_from_slice(&self.prev_linear);
            return Ok(ExecStats {
                n_inputs: n_in as u64,
                n_changed: n_in as u64,
                macs_total,
                macs_performed: macs_total,
                from_scratch: true,
            });
        }

        // Pass 1: quantize the frame against the buffered codes, collecting
        // the changed list in ascending input order. One pass, vectorized
        // under the AVX2 level, with bit-exact codes and deltas at every
        // level.
        quantizer.diff_codes(input, &mut self.prev_codes, &mut self.changed);

        // Pass 2: apply every delta to the buffered linear outputs.
        let w = layer.weights().as_slice();
        if naive {
            // Original scattered walk: one n_out-wide weight-row pass per
            // changed input.
            for &(i, delta) in &self.changed {
                let row = &w[i as usize * n_out..][..n_out];
                for (z, &wij) in self.prev_linear.iter_mut().zip(row) {
                    *z = delta.mul_add(wij, *z);
                }
            }
        } else {
            // Batched walk: DELTA_BATCH changed rows streamed together, one
            // read-modify-write sweep of the buffered outputs per batch.
            apply_deltas_rows(&SERIAL, w, n_out, &self.changed, &mut self.prev_linear);
        }
        out.clear();
        out.extend_from_slice(&self.prev_linear);
        Ok(ExecStats {
            n_inputs: n_in as u64,
            n_changed: self.changed.len() as u64,
            macs_total,
            macs_performed: self.changed.len() as u64 * n_out as u64,
            from_scratch: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuse_nn::{init::Rng64, Activation};
    use reuse_quant::InputRange;

    fn setup() -> (FullyConnected, LinearQuantizer) {
        let layer = FullyConnected::random(6, 4, Activation::Identity, &mut Rng64::new(3));
        let q = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap();
        (layer, q)
    }

    fn exec(
        state: &mut FcReuseState,
        layer: &FullyConnected,
        q: &LinearQuantizer,
        input: &[f32],
    ) -> Result<(Vec<f32>, ExecStats), ReuseError> {
        let mut out = Vec::new();
        let stats = state.execute_into(&SERIAL, layer, q, input, &mut out)?;
        Ok((out, stats))
    }

    /// From-scratch execution on quantized inputs, the correctness oracle.
    fn oracle(layer: &FullyConnected, q: &LinearQuantizer, input: &[f32]) -> Vec<f32> {
        let mut linear = Vec::new();
        layer
            .forward_linear_into(&q.quantized_values(input), &mut linear)
            .unwrap();
        linear
    }

    #[test]
    fn first_execution_matches_oracle_and_counts_all() {
        let (layer, q) = setup();
        let mut state = FcReuseState::new(&layer);
        let input = [0.3f32, -0.5, 0.9, 0.0, 0.1, -0.99];
        let (out, stats) = exec(&mut state, &layer, &q, &input).unwrap();
        assert!(stats.from_scratch);
        assert_eq!(stats.n_changed, 6);
        assert_eq!(stats.macs_performed, 24);
        // The first execution *is* the from-scratch forward on the centroids.
        let expect = oracle(&layer, &q, &input);
        assert_eq!(reuse_tensor::simd::kernel_mismatch(&out, &expect), None);
    }

    #[test]
    fn identical_input_skips_everything() {
        let (layer, q) = setup();
        let mut state = FcReuseState::new(&layer);
        let input = [0.3f32, -0.5, 0.9, 0.0, 0.1, -0.99];
        let (out1, _) = exec(&mut state, &layer, &q, &input).unwrap();
        let (out2, stats) = exec(&mut state, &layer, &q, &input).unwrap();
        assert!(!stats.from_scratch);
        assert_eq!(stats.n_changed, 0);
        assert_eq!(stats.macs_performed, 0);
        assert_eq!(out1.as_slice(), out2.as_slice());
    }

    #[test]
    fn sub_step_perturbation_is_free() {
        let (layer, q) = setup();
        let mut state = FcReuseState::new(&layer);
        let input = [0.31f32, -0.52, 0.88, 0.01, 0.12, -0.97];
        exec(&mut state, &layer, &q, &input).unwrap();
        // Perturb each value by much less than half a step: codes unchanged.
        let nudged: Vec<f32> = input.iter().map(|v| v + q.step() * 0.05).collect();
        let (_, stats) = exec(&mut state, &layer, &q, &nudged).unwrap();
        // Most codes unchanged (a value can sit on a rounding boundary).
        assert!(stats.n_changed <= 1, "changed {}", stats.n_changed);
    }

    #[test]
    fn incremental_matches_oracle_after_changes() {
        let (layer, q) = setup();
        let mut state = FcReuseState::new(&layer);
        let a = [0.3f32, -0.5, 0.9, 0.0, 0.1, -0.99];
        let b = [0.3f32, 0.5, 0.9, -0.4, 0.1, 0.2]; // 3 inputs changed a lot
        exec(&mut state, &layer, &q, &a).unwrap();
        let (out, stats) = exec(&mut state, &layer, &q, &b).unwrap();
        assert!(stats.n_changed >= 3);
        let expect = oracle(&layer, &q, &b);
        for (x, y) in out.as_slice().iter().zip(expect.iter()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn long_chain_stays_close_to_oracle() {
        let (layer, q) = setup();
        let mut state = FcReuseState::new(&layer);
        let mut input = [0.0f32; 6];
        let mut rng = Rng64::new(99);
        for step in 0..200 {
            for v in &mut input {
                *v = (*v + rng.uniform(0.1)).clamp(-1.0, 1.0);
            }
            let (out, _) = exec(&mut state, &layer, &q, &input).unwrap();
            let expect = oracle(&layer, &q, &input);
            for (x, y) in out.as_slice().iter().zip(expect.iter()) {
                assert!((x - y).abs() < 1e-3, "step {step}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn batched_correction_matches_naive_walk() {
        // Odd dims (partial tail panel) + drifting frames: the panel-batched
        // pass 2 must equal the original scattered row walk bit for bit,
        // stats included, at every SIMD level.
        let layer = FullyConnected::random(23, 29, Activation::Identity, &mut Rng64::new(5));
        let q = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap();
        let mut blocked = FcReuseState::new(&layer);
        let mut naive = FcReuseState::new(&layer);
        let mut input = vec![0.0f32; 23];
        let mut rng = Rng64::new(17);
        let (mut out_b, mut out_n) = (Vec::new(), Vec::new());
        for frame in 0..30 {
            for v in input.iter_mut().take(6) {
                *v = (*v + rng.uniform(0.4)).clamp(-1.0, 1.0);
            }
            let sb = blocked
                .execute_into(&SERIAL, &layer, &q, &input, &mut out_b)
                .unwrap();
            let sn = naive
                .execute_into_naive(&layer, &q, &input, &mut out_n)
                .unwrap();
            assert_eq!(sb, sn);
            let mismatch = reuse_tensor::simd::kernel_mismatch(&out_b, &out_n);
            assert!(mismatch.is_none(), "frame {frame}: {mismatch:?}");
        }
    }

    #[test]
    fn reset_forces_scratch() {
        let (layer, q) = setup();
        let mut state = FcReuseState::new(&layer);
        let input = [0.1f32; 6];
        exec(&mut state, &layer, &q, &input).unwrap();
        assert!(state.is_initialized());
        state.reset();
        assert!(!state.is_initialized());
        let (_, stats) = exec(&mut state, &layer, &q, &input).unwrap();
        assert!(stats.from_scratch);
    }

    #[test]
    fn storage_accounting() {
        let (layer, _) = setup();
        let state = FcReuseState::new(&layer);
        // 6 one-byte indices + 4 four-byte outputs.
        assert_eq!(state.storage_bytes(&layer), 6 + 16);
    }

    #[test]
    fn wrong_length_rejected() {
        let (layer, q) = setup();
        let mut state = FcReuseState::new(&layer);
        assert!(exec(&mut state, &layer, &q, &[0.0; 5]).is_err());
    }
}
