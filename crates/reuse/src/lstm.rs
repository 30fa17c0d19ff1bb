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
//! The nonlinear part (σ/φ, cell-state update) is always recomputed — an
//! `O(cell)` pass of `reuse_tensor::simd::lstm_gate_update` next to the
//! `O((n_in + cell) · cell)` gate matrices.
//!
//! Point 2 is also why a cell runs a sequence in **two phases**
//! ([`LstmReuseState::step_block`]): the feed-forward inputs of every
//! timestep are known before the first one runs, so their corrections are
//! summed for a whole block of timesteps first, one pass over the packed
//! feed-forward weights, and the recurrence then touches the recurrent
//! weights only — which fit the L2 the two matrices together overflow.

use reuse_nn::lstm::NUM_GATES;
use reuse_nn::{LstmCell, LstmState};
use reuse_quant::{LinearQuantizer, QuantCode};
use reuse_tensor::block::apply_deltas_rows;
use reuse_tensor::matmul::matmul_packed_into;
use reuse_tensor::ParallelConfig;

use crate::layer::{span_elapsed_ns, span_start, ExecStats, SERIAL};
use crate::ReuseError;

/// The gate weights of one LSTM cell as its corrections walk them: the pack
/// the cell was built with and runs its full-precision forward over, so
/// `LstmGatePack::new(cell)` is a handle on that one copy.
pub use reuse_nn::lstm::LstmGatePack;

fn pack_matches(pack: &LstmGatePack, cell: &LstmCell) -> bool {
    let (n_in, d) = (cell.n_in(), cell.cell_dim());
    (0..NUM_GATES).all(|g| (pack.x(g).n_in(), pack.x(g).n_out()) == (n_in, d))
        && pack.combined_h().len() == d * NUM_GATES * d
}

/// Most timesteps whose feed-forward corrections are summed ahead of the
/// recurrence in one pass: bounds the block scratch at
/// `BLOCK_STEPS · NUM_GATES · d` floats (plus as many changed-list entries
/// as the block's inputs changed) however long the sequence is. EESEN's
/// 40-step sequences are one block; past a few dozen timesteps a panel is
/// already fetched once per many uses and a longer block buys nothing.
const BLOCK_STEPS: usize = 64;

/// Scratch of one [`LstmReuseState::step_block`] block, kept between calls
/// so steady blocks allocate nothing. Like the session's buffer pool it is
/// working memory, not reuse state: nothing in it outlives the block.
#[derive(Debug, Clone, Default)]
struct BlockScratch {
    /// The block's feed-forward changed lists back to back, timestep `k`
    /// ending at entry `ends[k]`.
    taps: Vec<u32>,
    deltas: Vec<f32>,
    ends: Vec<usize>,
    /// Each timestep's summed feed-forward correction, gate-major:
    /// `[NUM_GATES][steps][d]`.
    x_sums: Vec<f32>,
    /// The quantized feed-forward input of a from-scratch first timestep.
    first_x: Vec<f32>,
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
    block: BlockScratch,
    /// Recurrent (h, c) state carried between timesteps.
    state: LstmState,
    initialized: bool,
}

impl LstmReuseState {
    /// Creates empty per-stream state for a cell. The state carries no
    /// weights: corrections go through [`Self::step_block`] with the cell's
    /// shared [`LstmGatePack`], so N streams share one pack instead of
    /// holding `O(params)` copies each.
    pub fn new_shared(cell: &LstmCell) -> Self {
        let (n_in, d) = (cell.n_in(), cell.cell_dim());
        LstmReuseState {
            prev_x_codes: Vec::with_capacity(n_in),
            prev_h_codes: Vec::with_capacity(d),
            prev_pre: Vec::new(),
            changed_x: Vec::with_capacity(n_in),
            changed_h: Vec::with_capacity(d),
            block: BlockScratch::default(),
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
    /// it. This is [`Self::step_block`] over a block of one — the same code
    /// and, timestep for timestep, the same bits as a whole sequence in one
    /// call. Allocation-free once initialized. `pack` must be the
    /// [`LstmGatePack`] built from `cell`.
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
        let mut stats = None;
        let quantizers = (x_quantizer, h_quantizer);
        self.step_block(cell, pack, quantizers, [x], false, |h, (s, _)| {
            h_out.clear();
            h_out.extend_from_slice(h);
            stats = Some(s);
        })?;
        Ok(stats.expect("a block of one emits one step"))
    }

    /// Runs the timesteps `xs` yields — a sequence, or any run of one, in
    /// the order this cell visits it — reusing unchanged inputs, and calls
    /// `emit(h_t, (stats, span_ns))` once per timestep in that order with
    /// the new hidden output.
    ///
    /// Timesteps run in blocks of at most 64 (`BLOCK_STEPS`), each in two
    /// phases. **x phase:** every timestep's `x` is diffed against the
    /// running feed-forward codes and that timestep's corrections
    /// `Σ Δ·w_x[i]` are summed *from zero, in changed-list order* — all
    /// timesteps in one panel-outer pass over the packed feed-forward
    /// weights ([`reuse_tensor::PackedPanels::axpy_buckets`]), which are
    /// then done with.
    /// **Recurrence**, per timestep: diff `h_{t-1}` against the recurrent
    /// codes, add the timestep's summed x correction onto the buffered
    /// pre-activations (one vector add), apply the h deltas in list order
    /// through the combined recurrent matrix, update the gates. Only that
    /// one matrix is live while the recurrence runs.
    ///
    /// Per output the chain is therefore
    /// `z_t = (z_{t-1} + X_t) + Δh₀·w + Δh₁·w + …` with `X_t` summed from
    /// `+0.0`: a definition that does not mention the block, so any split of
    /// a sequence into calls and blocks yields the same bits, and the one
    /// [`Self::step_into_naive`] spells out over the cell's raw matrices,
    /// every multiply-add fused in both: the two agree bit for bit, stats
    /// included, at every SIMD level.
    ///
    /// The first timestep after a reset computes the gates from scratch on
    /// the quantized inputs. With `timed`, `span_ns` is the timestep's own
    /// recurrence time plus its share of the block's x phase by changed-list
    /// entries (evenly when nothing changed), from one clock read per
    /// timestep boundary and two per block; otherwise it is 0 and no clock
    /// is read. Allocation-free once the block scratch has grown to the
    /// sequence length.
    ///
    /// # Errors
    ///
    /// Returns [`ReuseError`] when `pack` was not built from a cell of
    /// `cell`'s dimensions, or — before the block it belongs to has touched
    /// any state — when an `x` has the wrong length.
    pub fn step_block<'x>(
        &mut self,
        cell: &LstmCell,
        pack: &LstmGatePack,
        (x_quantizer, h_quantizer): (&LinearQuantizer, &LinearQuantizer),
        xs: impl IntoIterator<Item = &'x [f32]>,
        timed: bool,
        mut emit: impl FnMut(&[f32], (ExecStats, u64)),
    ) -> Result<(), ReuseError> {
        let (n_in, d) = (cell.n_in(), cell.cell_dim());
        if !pack_matches(pack, cell) {
            return Err(ReuseError::InvalidConfig {
                context: format!(
                    "lstm gate pack ({} bytes) does not match a {n_in}->{d} cell",
                    pack.bytes()
                ),
            });
        }
        let mut xs = xs.into_iter();
        let mut held: [&[f32]; BLOCK_STEPS] = [&[]; BLOCK_STEPS];
        loop {
            let mut steps = 0;
            for x in xs.by_ref().take(BLOCK_STEPS) {
                check_input(cell, x)?;
                held[steps] = x;
                steps += 1;
            }
            let mut block = &held[..steps];
            if !self.initialized {
                let Some((first, rest)) = block.split_first() else {
                    return Ok(());
                };
                let span = span_start(timed);
                let stats = self.first_step(cell, pack, x_quantizer, h_quantizer, first);
                emit(&self.state.h, (stats, span_elapsed_ns(span)));
                block = rest;
            }
            if block.is_empty() {
                return Ok(());
            }

            // x phase, then the recurrence over the same timesteps; one
            // clock read per boundary between them when timed.
            let block_start = span_start(timed);
            self.sum_x_corrections(pack, x_quantizer, block);
            let mut boundary = span_start(timed);
            let x_phase_ns = match (block_start, boundary) {
                (Some(start), Some(end)) => end.duration_since(start).as_nanos() as u64,
                _ => 0,
            };
            let x_entries = self.block.taps.len() as u64;
            for k in 0..block.len() {
                let changed_x = self.recur(cell, pack, h_quantizer, k, block.len());
                let span_ns = boundary.map_or(0, |from| {
                    let now = std::time::Instant::now();
                    boundary = Some(now);
                    let share = if x_entries == 0 {
                        x_phase_ns / block.len() as u64
                    } else {
                        (u128::from(x_phase_ns) * u128::from(changed_x) / u128::from(x_entries))
                            as u64
                    };
                    now.duration_since(from).as_nanos() as u64 + share
                });
                let stats = step_stats(cell, changed_x + self.changed_h.len() as u64, false);
                emit(&self.state.h, (stats, span_ns));
            }
            if steps < BLOCK_STEPS {
                return Ok(());
            }
        }
    }

    /// The x phase of a block: diffs every timestep's `x` against the running
    /// feed-forward codes, collecting the changed lists back to back, then
    /// sums each timestep's corrections from zero — all timesteps in one
    /// panel-outer pass per gate over the packed feed-forward weights.
    fn sum_x_corrections(
        &mut self,
        pack: &LstmGatePack,
        quantizer: &LinearQuantizer,
        block: &[&[f32]],
    ) {
        let scratch = &mut self.block;
        scratch.taps.clear();
        scratch.deltas.clear();
        scratch.ends.clear();
        // Room for every input of every timestep changing, so what a block
        // allocates depends on its length alone, never on its data.
        let worst = block.len() * pack.x(0).n_in();
        scratch.taps.reserve(worst);
        scratch.deltas.reserve(worst);
        for x in block {
            quantizer.diff_codes(x, &mut self.prev_x_codes, &mut self.changed_x);
            scratch.taps.extend(self.changed_x.iter().map(|&(i, _)| i));
            scratch
                .deltas
                .extend(self.changed_x.iter().map(|&(_, d)| d));
            scratch.ends.push(scratch.taps.len());
        }
        let gate_len = block.len() * pack.x(0).n_out();
        scratch.x_sums.clear();
        scratch.x_sums.resize(NUM_GATES * gate_len, 0.0);
        for (g, sums) in scratch.x_sums.chunks_exact_mut(gate_len).enumerate() {
            pack.x(g)
                .axpy_buckets(&scratch.taps, &scratch.deltas, &scratch.ends, sums);
        }
    }

    /// Timestep `k` of a block of `steps` whose x phase is done: diffs
    /// `h_{t-1}`, adds the timestep's summed x correction onto the buffered
    /// pre-activations, applies the h deltas in list order and updates the
    /// gates. Returns how many feed-forward inputs the timestep changed.
    fn recur(
        &mut self,
        cell: &LstmCell,
        pack: &LstmGatePack,
        h_quantizer: &LinearQuantizer,
        k: usize,
        steps: usize,
    ) -> u64 {
        let d = cell.cell_dim();
        h_quantizer.diff_codes(&self.state.h, &mut self.prev_h_codes, &mut self.changed_h);
        for (g, gate) in self.prev_pre.chunks_exact_mut(d).enumerate() {
            let sums = &self.block.x_sums[(g * steps + k) * d..][..d];
            for (z, &x_sum) in gate.iter_mut().zip(sums) {
                *z += x_sum;
            }
        }
        let (width, pre) = (NUM_GATES * d, &mut self.prev_pre);
        apply_deltas_rows(&SERIAL, pack.combined_h(), width, &self.changed_h, pre);
        cell.step_from_preactivations_in_place(&self.prev_pre, &mut self.state);
        let ends = &self.block.ends;
        (ends[k] - if k == 0 { 0 } else { ends[k - 1] }) as u64
    }

    /// The first timestep after a reset: quantize x and h (h starts at
    /// zero) and compute the four gates from scratch on the centroids into
    /// the retained pre-activation buffer, through the pack — one timestep
    /// of [`LstmCell::forward_sequence_into`]'s chain (bias, the x centroids
    /// over the panels, every nonzero h centroid's row of the combined
    /// matrix — a filter on the list, outside the kernel and the same at
    /// every level). Allocation-free once the buffers have grown to the cell.
    fn first_step(
        &mut self,
        cell: &LstmCell,
        pack: &LstmGatePack,
        x_quantizer: &LinearQuantizer,
        h_quantizer: &LinearQuantizer,
        x: &[f32],
    ) -> ExecStats {
        x_quantizer.quantize_slice_into(x, &mut self.prev_x_codes);
        h_quantizer.quantize_slice_into(&self.state.h, &mut self.prev_h_codes);
        let qx = &mut self.block.first_x;
        qx.clear();
        qx.extend(self.prev_x_codes.iter().map(|&c| x_quantizer.centroid(c)));
        self.changed_h.clear();
        self.changed_h.extend(
            (0u32..)
                .zip(self.prev_h_codes.iter().map(|&c| h_quantizer.centroid(c)))
                .filter(|&(_, qh)| qh != 0.0),
        );
        let d = cell.cell_dim();
        self.prev_pre.clear();
        for g in 0..NUM_GATES {
            self.prev_pre.extend_from_slice(cell.bias(g).as_slice());
        }
        for (g, gate) in self.prev_pre.chunks_exact_mut(d).enumerate() {
            matmul_packed_into(&SERIAL, qx, pack.x(g), 1, gate);
        }
        let (width, pre) = (NUM_GATES * d, &mut self.prev_pre);
        apply_deltas_rows(&SERIAL, pack.combined_h(), width, &self.changed_h, pre);
        cell.step_from_preactivations_in_place(&self.prev_pre, &mut self.state);
        self.initialized = true;
        step_stats(cell, (cell.n_in() + d) as u64, true)
    }

    /// One timestep under [`Self::step_block`]'s definition, spelled out
    /// output by output over the cell's raw weight matrices (no pack, no
    /// block, no kernel): the x corrections summed from zero in list order,
    /// added onto the buffered pre-activation, then the h corrections in
    /// list order, each step fused. Kept as the bit-identity oracle for
    /// tests; not part of the supported API.
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
        check_input(cell, x)?;
        let stats = if self.initialized {
            x_quantizer.diff_codes(x, &mut self.prev_x_codes, &mut self.changed_x);
            h_quantizer.diff_codes(&self.state.h, &mut self.prev_h_codes, &mut self.changed_h);
            let d = cell.cell_dim();
            for (g, gate) in self.prev_pre.chunks_exact_mut(d).enumerate() {
                let (w_x, w_h) = (cell.w_x(g).as_slice(), cell.w_h(g).as_slice());
                for (u, z) in gate.iter_mut().enumerate() {
                    let mut x_sum = 0.0f32;
                    for &(i, delta) in &self.changed_x {
                        x_sum = delta.mul_add(w_x[i as usize * d + u], x_sum);
                    }
                    *z += x_sum;
                    for &(i, delta) in &self.changed_h {
                        *z = delta.mul_add(w_h[i as usize * d + u], *z);
                    }
                }
            }
            cell.step_from_preactivations_in_place(&self.prev_pre, &mut self.state);
            step_stats(
                cell,
                (self.changed_x.len() + self.changed_h.len()) as u64,
                false,
            )
        } else {
            // From scratch over the raw matrices, the row-walk oracle.
            x_quantizer.quantize_slice_into(x, &mut self.prev_x_codes);
            h_quantizer.quantize_slice_into(&self.state.h, &mut self.prev_h_codes);
            let qx = x_quantizer.quantized_values(x);
            let qh = h_quantizer.quantized_values(&self.state.h);
            self.prev_pre = cell.gate_preactivations(&qx, &qh)?;
            cell.step_from_preactivations_in_place(&self.prev_pre, &mut self.state);
            self.initialized = true;
            step_stats(cell, (cell.n_in() + cell.cell_dim()) as u64, true)
        };
        h_out.clear();
        h_out.extend_from_slice(&self.state.h);
        Ok(stats)
    }
}

fn check_input(cell: &LstmCell, x: &[f32]) -> Result<(), ReuseError> {
    if x.len() == cell.n_in() {
        return Ok(());
    }
    Err(ReuseError::Nn(reuse_nn::NnError::InputShape {
        expected: cell.n_in(),
        actual: x.len(),
    }))
}

/// The counters of a timestep that applied `changed` inputs (x and h
/// together; all of them when computing from scratch): each costs one weight
/// row across the four gates.
fn step_stats(cell: &LstmCell, changed: u64, from_scratch: bool) -> ExecStats {
    let n_inputs = (cell.n_in() + cell.cell_dim()) as u64;
    let row = (NUM_GATES * cell.cell_dim()) as u64;
    ExecStats {
        n_inputs,
        n_changed: changed,
        macs_total: n_inputs * row,
        macs_performed: changed * row,
        from_scratch,
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
        cell.step_from_preactivations_in_place(&pre, &mut state);
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
        // Odd cell_dim so the packed panels have a partial tail lane. The
        // two walks are bit-identical, stats included: h feeds back into the
        // next step's code comparison, so nothing less would keep them.
        let mut blocked = Harness::new(LstmCell::random(13, 11, &mut Rng64::new(5)));
        let mut naive = LstmReuseState::new_shared(&blocked.cell);
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
            assert_eq!(sb, sn);
            let mismatch = reuse_tensor::simd::kernel_mismatch(&hb, &hn);
            assert!(mismatch.is_none(), "step {step}: {mismatch:?}");
        }
    }

    #[test]
    fn a_block_leaves_the_buffers_single_steps_leave() {
        // Codes, buffered pre-activations and recurrent state, bit for bit,
        // at every length around the block size — with the clock on, which
        // must change nothing but the spans.
        for len in [1, 2, 5, 63, 64, 65, 130] {
            let mut stepped = Harness::new(LstmCell::random(13, 11, &mut Rng64::new(5)));
            let mut blocked = stepped.state.clone();
            let mut rng = Rng64::new(len as u64);
            let mut frame = vec![0.0f32; 13];
            let xs: Vec<Vec<f32>> = (0..len)
                .map(|_| {
                    frame
                        .iter_mut()
                        .for_each(|v| *v = (*v + rng.uniform(0.1)).clamp(-1.0, 1.0));
                    frame.clone()
                })
                .collect();
            for x in &xs {
                stepped.step(x).unwrap();
            }
            let (cell, pack, quantizers) =
                (&stepped.cell, &stepped.pack, (&stepped.xq, &stepped.hq));
            let (mut emitted, mut timed_ns) = (0, 0);
            let order = xs.iter().map(Vec::as_slice);
            blocked
                .step_block(cell, pack, quantizers, order, true, |_, (_, span)| {
                    emitted += 1;
                    timed_ns += span;
                })
                .unwrap();
            assert_eq!(emitted, len);
            assert!(timed_ns > 0, "a timed block reports spans");
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            assert_eq!(
                blocked.prev_x_codes, stepped.state.prev_x_codes,
                "len {len}"
            );
            assert_eq!(
                blocked.prev_h_codes, stepped.state.prev_h_codes,
                "len {len}"
            );
            assert_eq!(
                bits(&blocked.prev_pre),
                bits(&stepped.state.prev_pre),
                "len {len}"
            );
            assert_eq!(
                bits(&blocked.state.h),
                bits(&stepped.state.state.h),
                "len {len}"
            );
            assert_eq!(
                bits(&blocked.state.c),
                bits(&stepped.state.state.c),
                "len {len}"
            );
            assert!(blocked.block.x_sums.len() <= BLOCK_STEPS * NUM_GATES * 11);
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
