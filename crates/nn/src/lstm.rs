//! LSTM cell and bidirectional LSTM layer (paper Section II-C, Figs. 2-3).
//!
//! An LSTM cell keeps a cell state `c_t` updated through four gates — input
//! `i`, forget `f`, cell-updater `g` and output `o` — each implemented as a
//! fully-connected layer over two inputs: the feed-forward input `x_t` and
//! the recurrent input `h_{t-1}` (paper Eqs. 3-8).
//!
//! The reuse scheme corrects the **pre-activation** of each gate (the linear
//! sums `W_x·x + W_h·h + b`), so the cell exposes
//! [`LstmCell::gate_preactivations`] separately from the nonlinear state
//! update [`LstmCell::step_from_preactivations_in_place`].
//!
//! A cell runs a sequence **time-batched** over its [`LstmGatePack`]
//! ([`LstmCell::forward_sequence_into`]): the feed-forward half of every
//! timestep's gates has no recurrence in it, so it is one GEMM per gate over
//! a block of timesteps, after which the recurrence touches the recurrent
//! weights only. [`LstmCell::step`] is the per-timestep oracle it owes its
//! bits to.

use std::sync::Arc;

use reuse_tensor::block::apply_deltas_rows;
use reuse_tensor::matmul::matmul_packed_into;
use reuse_tensor::{PackedPanels, ParallelConfig, Shape, Tensor};

use crate::{init, NnError};

/// Number of gates in an LSTM cell (i, f, g, o).
pub const NUM_GATES: usize = 4;

/// Gate index for the input gate `i` (Eq. 3).
pub const GATE_I: usize = 0;
/// Gate index for the forget gate `f` (Eq. 4).
pub const GATE_F: usize = 1;
/// Gate index for the cell-updater gate `g` (Eq. 5).
pub const GATE_G: usize = 2;
/// Gate index for the output gate `o` (Eq. 6).
pub const GATE_O: usize = 3;

// `reuse_tensor::simd::lstm_gate_update` reads a pre-activation buffer as
// `[i | f | g | o]`.
const _: () = assert!(GATE_I == 0 && GATE_F == 1 && GATE_G == 2 && GATE_O == 3);

/// Recurrent state of one LSTM cell: the hidden output `h` and cell state `c`.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    /// Hidden output vector `h_t` (length = cell dimension).
    pub h: Vec<f32>,
    /// Cell state vector `c_t` (length = cell dimension).
    pub c: Vec<f32>,
}

impl LstmState {
    /// A zeroed state (the start-of-sequence convention).
    pub fn zeros(cell_dim: usize) -> Self {
        LstmState {
            h: vec![0.0; cell_dim],
            c: vec![0.0; cell_dim],
        }
    }
}

/// The immutable gate weights of one LSTM cell in the layouts its forward
/// pass and its reuse corrections walk. Packed once, when the cell is built,
/// behind an `Arc`: clones of the cell, every compiled model over it and
/// every stream's correction pass share the one copy.
#[derive(Debug, Clone)]
pub struct LstmGatePack(Arc<GateWeights>);

#[derive(Debug)]
struct GateWeights {
    /// The feed-forward weights, one set of 16-lane panels per gate, packed
    /// straight from the cell's `[n_in, d]` gate matrices.
    x: [PackedPanels; NUM_GATES],
    /// All four gates' recurrent weights, row-major `[d, NUM_GATES·d]`:
    /// column `g·d + u` is gate `g`, unit `u`, the layout of the
    /// pre-activation buffer, so one batched row walk per timestep serves
    /// all four gates — the paper's "one comparison pays four gates", with
    /// the gate loop folded into the row.
    combined_h: Vec<f32>,
}

impl LstmGatePack {
    /// The pack of `cell` — a handle on the one the cell built, not a copy.
    pub fn new(cell: &LstmCell) -> Self {
        cell.pack.clone()
    }

    fn build(d: usize, w_x: &[Arc<Tensor>; NUM_GATES], w_h: &[Arc<Tensor>; NUM_GATES]) -> Self {
        let mut combined_h = vec![0.0f32; d * NUM_GATES * d];
        for (g, w) in w_h.iter().enumerate() {
            for (i, row) in w.as_slice().chunks_exact(d).enumerate() {
                combined_h[i * NUM_GATES * d + g * d..][..d].copy_from_slice(row);
            }
        }
        let x = core::array::from_fn(|g| PackedPanels::pack(&w_x[g]).expect("rank-2 matrices"));
        LstmGatePack(Arc::new(GateWeights { x, combined_h }))
    }

    /// The feed-forward panels of one gate, `n_in` rows by `d` columns.
    pub fn x(&self, gate: usize) -> &PackedPanels {
        &self.0.x[gate]
    }

    /// The combined recurrent matrix, row-major `[d, NUM_GATES·d]`.
    pub fn combined_h(&self) -> &[f32] {
        &self.0.combined_h
    }

    /// Bytes of the packed feed-forward panels and the combined matrix.
    pub fn bytes(&self) -> u64 {
        let x: usize = self.0.x.iter().map(PackedPanels::storage_bytes).sum();
        (x + self.0.combined_h.len() * 4) as u64
    }
}

/// Most timesteps whose feed-forward products are computed ahead of the
/// recurrence: bounds [`LstmScratch`] at `BLOCK_STEPS · NUM_GATES · d` floats
/// however long the sequence is. EESEN's 40-step sequences are one block;
/// 128 measured no faster than 64, 32 and below slower (DESIGN §8).
const BLOCK_STEPS: usize = 64;

/// Working memory of a sequence pass, kept by the caller between calls so
/// steady sequences allocate nothing. Nothing in it outlives a call.
#[derive(Debug, Clone, Default)]
pub struct LstmScratch {
    /// The block's feed-forward products plus bias, `[NUM_GATES][steps][d]`.
    x_gates: Vec<f32>,
    /// The running timestep's gate pre-activations, `[NUM_GATES × d]`.
    pre: Vec<f32>,
    /// The running timestep's nonzero recurrent inputs `(i, h[i])`.
    h_terms: Vec<(u32, f32)>,
    h: Vec<f32>,
    c: Vec<f32>,
}

/// One LSTM cell with four gates.
///
/// Weight layout per gate is input-major like FC layers: `w_x[gate]` is
/// `[n_in, cell_dim]` and `w_h[gate]` is `[cell_dim, cell_dim]`, so the
/// weights fed by a single input element are contiguous.
///
/// The eight matrices and their packed form are immutable and shared by
/// clones of the cell (the `FullyConnected` idiom): compiling a model clones
/// its network, and EESEN's cells hold 42 MB in each layout.
#[derive(Debug, Clone)]
pub struct LstmCell {
    /// Feed-forward weights per gate, each `[n_in, cell_dim]`.
    w_x: [Arc<Tensor>; NUM_GATES],
    /// Recurrent weights per gate, each `[cell_dim, cell_dim]`.
    w_h: [Arc<Tensor>; NUM_GATES],
    /// Bias per gate, each `[cell_dim]`.
    bias: [Tensor; NUM_GATES],
    /// The same weights as the forward pass and the reuse corrections walk
    /// them.
    pack: LstmGatePack,
}

impl LstmCell {
    /// Builds a cell from explicit per-gate parameters ordered `[i, f, g, o]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if any tensor shape disagrees.
    pub fn new(
        n_in: usize,
        cell_dim: usize,
        w_x: [Tensor; NUM_GATES],
        w_h: [Tensor; NUM_GATES],
        bias: [Tensor; NUM_GATES],
    ) -> Result<Self, NnError> {
        for g in 0..NUM_GATES {
            if w_x[g].shape().dims() != [n_in, cell_dim] {
                return Err(NnError::InvalidConfig {
                    context: format!(
                        "gate {g} w_x shape {} != [{n_in}, {cell_dim}]",
                        w_x[g].shape()
                    ),
                });
            }
            if w_h[g].shape().dims() != [cell_dim, cell_dim] {
                return Err(NnError::InvalidConfig {
                    context: format!(
                        "gate {g} w_h shape {} != [{cell_dim}, {cell_dim}]",
                        w_h[g].shape()
                    ),
                });
            }
            if bias[g].len() != cell_dim {
                return Err(NnError::InvalidConfig {
                    context: format!("gate {g} bias length {} != {cell_dim}", bias[g].len()),
                });
            }
        }
        let (w_x, w_h) = (w_x.map(Arc::new), w_h.map(Arc::new));
        Ok(LstmCell {
            pack: LstmGatePack::build(cell_dim, &w_x, &w_h),
            w_x,
            w_h,
            bias,
        })
    }

    /// Builds a cell with deterministic pseudo-random parameters.
    pub fn random(n_in: usize, cell_dim: usize, rng: &mut init::Rng64) -> Self {
        let mk_x = |rng: &mut init::Rng64| {
            Tensor::from_vec(
                Shape::d2(n_in, cell_dim),
                init::xavier_uniform(rng, n_in, cell_dim, n_in * cell_dim),
            )
            .expect("sized by construction")
        };
        let mk_h = |rng: &mut init::Rng64| {
            Tensor::from_vec(
                Shape::d2(cell_dim, cell_dim),
                init::xavier_uniform(rng, cell_dim, cell_dim, cell_dim * cell_dim),
            )
            .expect("sized by construction")
        };
        let mk_b = |rng: &mut init::Rng64, forget: bool| {
            let mut b = init::small_bias(rng, cell_dim);
            if forget {
                // The usual unit forget-gate bias keeps early cell states alive.
                for v in &mut b {
                    *v += 1.0;
                }
            }
            Tensor::from_vec(Shape::d1(cell_dim), b).expect("sized by construction")
        };
        let w_x = [mk_x(rng), mk_x(rng), mk_x(rng), mk_x(rng)];
        let w_h = [mk_h(rng), mk_h(rng), mk_h(rng), mk_h(rng)];
        let bias = [
            mk_b(rng, false),
            mk_b(rng, true),
            mk_b(rng, false),
            mk_b(rng, false),
        ];
        Self::new(n_in, cell_dim, w_x, w_h, bias).expect("sized by construction")
    }

    /// Feed-forward input dimension.
    pub fn n_in(&self) -> usize {
        self.pack.x(0).n_in()
    }

    /// Cell (and hidden) dimension.
    pub fn cell_dim(&self) -> usize {
        self.pack.x(0).n_out()
    }

    /// Feed-forward weights of one gate, `[n_in, cell_dim]` input-major.
    pub fn w_x(&self, gate: usize) -> &Tensor {
        &self.w_x[gate]
    }

    /// Recurrent weights of one gate, `[cell_dim, cell_dim]` input-major.
    pub fn w_h(&self, gate: usize) -> &Tensor {
        &self.w_h[gate]
    }

    /// Bias of one gate.
    pub fn bias(&self, gate: usize) -> &Tensor {
        &self.bias[gate]
    }

    /// The gate weights packed for the forward pass and the reuse
    /// corrections, built once with the cell.
    pub fn pack(&self) -> &LstmGatePack {
        &self.pack
    }

    /// Computes the linear pre-activations of all four gates:
    /// `pre[g] = W_x[g]·x + W_h[g]·h + b[g]`, returned as a
    /// `[NUM_GATES, cell_dim]` row-major matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] when `x` or `h` have wrong lengths.
    pub fn gate_preactivations(&self, x: &[f32], h: &[f32]) -> Result<Vec<f32>, NnError> {
        if x.len() != self.n_in() {
            return Err(NnError::InputShape {
                expected: self.n_in(),
                actual: x.len(),
            });
        }
        if h.len() != self.cell_dim() {
            return Err(NnError::InputShape {
                expected: self.cell_dim(),
                actual: h.len(),
            });
        }
        let d = self.cell_dim();
        let mut pre = vec![0.0f32; NUM_GATES * d];
        for (g, dst) in pre.chunks_exact_mut(d).enumerate() {
            dst.copy_from_slice(self.bias[g].as_slice());
            accumulate_input_major(self.w_x[g].as_slice(), x, dst);
            accumulate_input_major(self.w_h[g].as_slice(), h, dst);
        }
        Ok(pre)
    }

    /// Completes one cell step from precomputed gate pre-activations
    /// (paper Eqs. 3-8) — advances `state` to the next timestep without
    /// allocating: one fused pass of
    /// [`reuse_tensor::simd::lstm_gate_update`], the σ/φ every path of the
    /// workspace shares (Eq. 7 reads each `c[j]` before overwriting it, so
    /// updating elementwise is exact).
    ///
    /// # Panics
    ///
    /// Panics if `pre` is not `NUM_GATES × cell_dim` or the state dimension
    /// disagrees.
    pub fn step_from_preactivations_in_place(&self, pre: &[f32], state: &mut LstmState) {
        assert_eq!(state.c.len(), self.cell_dim(), "state vs cell dimension");
        reuse_tensor::simd::lstm_gate_update(pre, &mut state.c, &mut state.h);
    }

    /// One full cell step over the raw gate matrices: pre-activations +
    /// nonlinear update. The per-timestep oracle of
    /// [`Self::forward_sequence_into`]; no walk of a network runs it.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] when `x` has the wrong length.
    pub fn step(&self, x: &[f32], state: &LstmState) -> Result<LstmState, NnError> {
        let pre = self.gate_preactivations(x, &state.h)?;
        let mut next = state.clone();
        self.step_from_preactivations_in_place(&pre, &mut next);
        Ok(next)
    }

    /// Processes a whole sequence unidirectionally from a zero state: `xs`
    /// is `t` timesteps of `n_in` inputs back to back, and `out` is cleared
    /// and filled with the `t` hidden outputs, `cell_dim` each.
    ///
    /// Timesteps run in blocks of at most 64, each in two phases. **x
    /// phase:** `X_g = bias_g ⊕ xs · W_x[g]`, one GEMM per gate over the
    /// block's rows against the packed panels, which are then done with.
    /// **Recurrence**, per timestep: from the timestep's row of each `X_g`,
    /// add `h[i] · W_h[i]` for every nonzero `h[i]` in ascending `i` through
    /// the combined recurrent matrix, update the gates. Per output that is
    /// the chain [`Self::step`] builds — bias, x terms in ascending order, h
    /// terms in ascending order, every step fused — so the two agree bit for
    /// bit at either SIMD level, whatever the block. (The GEMM multiplies an
    /// exact-zero `x` where `step` passes over its row, so a `-0.0` bias
    /// followed by nothing but zero products can come out `+0.0` here; the
    /// cell update erases the sign before it reaches `h`.)
    /// Allocation-free once `scratch` and `out` have grown to the sequence.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptySequence`] when `t` is zero and
    /// [`NnError::InputShape`] when `xs` is not `t · n_in` long.
    pub fn forward_sequence_into(
        &self,
        xs: &[f32],
        t: usize,
        out: &mut Vec<f32>,
        scratch: &mut LstmScratch,
    ) -> Result<(), NnError> {
        check_sequence(self.n_in(), xs, t)?;
        out.clear();
        out.resize(t * self.cell_dim(), 0.0);
        self.run(xs, t, false, out, self.cell_dim(), scratch);
        Ok(())
    }

    /// The `steps` timesteps of `xs` in ascending or descending order from a
    /// zero state, `h_t` written to `out[t · stride..][..cell_dim]`.
    fn run(
        &self,
        xs: &[f32],
        steps: usize,
        descending: bool,
        out: &mut [f32],
        stride: usize,
        scratch: &mut LstmScratch,
    ) {
        let (n_in, d) = (self.n_in(), self.cell_dim());
        let serial = ParallelConfig::serial();
        let (x_gates, pre, h_terms) =
            (&mut scratch.x_gates, &mut scratch.pre, &mut scratch.h_terms);
        let (h, c) = (&mut scratch.h, &mut scratch.c);
        for state in [&mut *h, &mut *c] {
            state.clear();
            state.resize(d, 0.0);
        }
        pre.resize(NUM_GATES * d, 0.0);
        let mut done = 0;
        while done < steps {
            let block = (steps - done).min(BLOCK_STEPS);
            // The block's rows of `xs` in memory order; the GEMM computes
            // each row on its own, so only the recurrence minds the order.
            let first = if descending {
                steps - done - block
            } else {
                done
            };
            let rows = &xs[first * n_in..][..block * n_in];
            x_gates.clear();
            for bias in &self.bias {
                for _ in 0..block {
                    x_gates.extend_from_slice(bias.as_slice());
                }
            }
            for (g, gate) in x_gates.chunks_exact_mut(block * d).enumerate() {
                matmul_packed_into(&serial, rows, self.pack.x(g), block, gate);
            }
            for k in 0..block {
                let row = if descending { block - 1 - k } else { k };
                for (g, gate) in pre.chunks_exact_mut(d).enumerate() {
                    gate.copy_from_slice(&x_gates[(g * block + row) * d..][..d]);
                }
                h_terms.clear();
                h_terms.extend((0u32..).zip(h.iter().copied()).filter(|&(_, hi)| hi != 0.0));
                apply_deltas_rows(&serial, self.pack.combined_h(), NUM_GATES * d, h_terms, pre);
                reuse_tensor::simd::lstm_gate_update(pre, c, h);
                out[(first + row) * stride..][..d].copy_from_slice(h);
            }
            done += block;
        }
    }

    /// [`Self::forward_sequence_into`] over one `Vec` per timestep.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptySequence`] on empty input and
    /// [`NnError::InputShape`] when frames have the wrong length.
    pub fn forward_sequence(&self, xs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, NnError> {
        let (flat, mut out) = (flatten_frames(xs, self.n_in())?, Vec::new());
        self.forward_sequence_into(&flat, xs.len(), &mut out, &mut LstmScratch::default())?;
        Ok(out
            .chunks_exact(self.cell_dim())
            .map(<[f32]>::to_vec)
            .collect())
    }

    /// Parameter count across the four gates.
    pub fn param_count(&self) -> u64 {
        let (n_in, d) = (self.n_in(), self.cell_dim());
        (NUM_GATES * (n_in * d + d * d + d)) as u64
    }

    /// Multiply+add count of one from-scratch cell step (linear part).
    pub fn flops_per_step(&self) -> u64 {
        2 * (NUM_GATES * (self.n_in() + self.cell_dim()) * self.cell_dim()) as u64
    }
}

/// `dst[j] += Σ_i w[i][j]·v[i]` with `w` stored input-major `[len(v), len(dst)]`.
///
/// The per-row axpy is dispatched on the resolved SIMD level (see
/// `reuse_tensor::simd`), one fused step per element at either. The
/// `vi == 0.0` row filter sits outside the kernel and is the same at both
/// levels (passing over a zero contribution changes at most a zero's sign).
fn accumulate_input_major(w: &[f32], v: &[f32], dst: &mut [f32]) {
    let n_out = dst.len();
    for (i, &vi) in v.iter().enumerate() {
        if vi == 0.0 {
            continue;
        }
        let row = &w[i * n_out..(i + 1) * n_out];
        reuse_tensor::simd::row_axpy(dst, row, vi);
    }
}

fn check_sequence(n_in: usize, xs: &[f32], t: usize) -> Result<(), NnError> {
    if t == 0 {
        return Err(NnError::EmptySequence);
    }
    if xs.len() != t * n_in {
        return Err(NnError::InputShape {
            expected: t * n_in,
            actual: xs.len(),
        });
    }
    Ok(())
}

/// The frames of a sequence back to back, each checked against `width`.
pub(crate) fn flatten_frames(frames: &[Vec<f32>], width: usize) -> Result<Vec<f32>, NnError> {
    if frames.is_empty() {
        return Err(NnError::EmptySequence);
    }
    let mut flat = Vec::with_capacity(frames.len() * width);
    for frame in frames {
        if frame.len() != width {
            return Err(NnError::InputShape {
                expected: width,
                actual: frame.len(),
            });
        }
        flat.extend_from_slice(frame);
    }
    Ok(flat)
}

/// A bidirectional LSTM layer (paper Fig. 2): one cell runs the sequence
/// forward, a second runs it backward, and per-timestep outputs are the
/// concatenation `[h_fwd ; h_bwd]`.
#[derive(Debug, Clone)]
pub struct BiLstmLayer {
    fwd: LstmCell,
    bwd: LstmCell,
}

impl BiLstmLayer {
    /// Builds a layer from two explicit cells.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the two cells disagree in
    /// dimensions.
    pub fn new(fwd: LstmCell, bwd: LstmCell) -> Result<Self, NnError> {
        if fwd.n_in() != bwd.n_in() || fwd.cell_dim() != bwd.cell_dim() {
            return Err(NnError::InvalidConfig {
                context: "forward and backward cells must share dimensions".into(),
            });
        }
        Ok(BiLstmLayer { fwd, bwd })
    }

    /// Builds a layer with deterministic pseudo-random parameters.
    pub fn random(n_in: usize, cell_dim: usize, rng: &mut init::Rng64) -> Self {
        BiLstmLayer {
            fwd: LstmCell::random(n_in, cell_dim, rng),
            bwd: LstmCell::random(n_in, cell_dim, rng),
        }
    }

    /// Feed-forward input dimension of both cells.
    pub fn n_in(&self) -> usize {
        self.fwd.n_in()
    }

    /// Cell dimension of each direction; the layer output is twice this.
    pub fn cell_dim(&self) -> usize {
        self.fwd.cell_dim()
    }

    /// Output dimension per timestep (`2 × cell_dim`).
    pub fn n_out(&self) -> usize {
        2 * self.cell_dim()
    }

    /// The forward-direction cell.
    pub fn forward_cell(&self) -> &LstmCell {
        &self.fwd
    }

    /// The backward-direction cell.
    pub fn backward_cell(&self) -> &LstmCell {
        &self.bwd
    }

    /// Processes a whole sequence: `xs` is `t` timesteps of `n_in` inputs
    /// back to back, and `out` is cleared and filled with `t` rows of
    /// `2·cell_dim` — the forward cell's states over ascending timesteps in
    /// the lower half of each row, the backward cell's over descending
    /// timesteps, time-aligned, in the upper half. Each direction is
    /// [`LstmCell::forward_sequence_into`]'s two-phase pass over the same
    /// `xs`; `scratch` serves both in turn.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptySequence`] when `t` is zero and
    /// [`NnError::InputShape`] when `xs` is not `t · n_in` long.
    pub fn forward_sequence_into(
        &self,
        xs: &[f32],
        t: usize,
        out: &mut Vec<f32>,
        scratch: &mut LstmScratch,
    ) -> Result<(), NnError> {
        check_sequence(self.n_in(), xs, t)?;
        let d = self.cell_dim();
        out.clear();
        out.resize(t * 2 * d, 0.0);
        self.fwd.run(xs, t, false, out, 2 * d, scratch);
        self.bwd.run(xs, t, true, &mut out[d..], 2 * d, scratch);
        Ok(())
    }

    /// [`Self::forward_sequence_into`] over one `Vec` per timestep.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptySequence`] on empty input and
    /// [`NnError::InputShape`] when frames have the wrong length.
    pub fn forward_sequence(&self, xs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, NnError> {
        let (flat, mut out) = (flatten_frames(xs, self.n_in())?, Vec::new());
        self.forward_sequence_into(&flat, xs.len(), &mut out, &mut LstmScratch::default())?;
        Ok(out
            .chunks_exact(self.n_out())
            .map(<[f32]>::to_vec)
            .collect())
    }

    /// Parameter count of both cells.
    pub fn param_count(&self) -> u64 {
        self.fwd.param_count() + self.bwd.param_count()
    }

    /// Multiply+add count per timestep (both directions).
    pub fn flops_per_step(&self) -> u64 {
        self.fwd.flops_per_step() + self.bwd.flops_per_step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cell() -> LstmCell {
        LstmCell::random(3, 2, &mut init::Rng64::new(42))
    }

    #[test]
    fn zero_state_and_zero_input_yield_bounded_outputs() {
        let cell = tiny_cell();
        let s = cell.step(&[0.0; 3], &LstmState::zeros(2)).unwrap();
        for &h in &s.h {
            assert!(h.abs() <= 1.0, "h bounded by tanh×sigmoid");
        }
    }

    #[test]
    fn step_matches_manual_gate_equations() {
        // Construct a cell with known weights: identity-ish single-dim cell.
        let w1 = Tensor::from_vec(Shape::d2(1, 1), vec![1.0]).unwrap();
        let wh0 = Tensor::from_vec(Shape::d2(1, 1), vec![0.0]).unwrap();
        let b0 = Tensor::from_slice_1d(&[0.0]).unwrap();
        let cell = LstmCell::new(
            1,
            1,
            [w1.clone(), w1.clone(), w1.clone(), w1.clone()],
            [wh0.clone(), wh0.clone(), wh0.clone(), wh0.clone()],
            [b0.clone(), b0.clone(), b0.clone(), b0.clone()],
        )
        .unwrap();
        let x = 0.7f32;
        let state = LstmState {
            h: vec![0.0],
            c: vec![0.5],
        };
        let next = cell.step(&[x], &state).unwrap();
        let sig = |v: f32| 1.0 / (1.0 + (-v).exp());
        let i = sig(x);
        let f = sig(x);
        let g = x.tanh();
        let o = sig(x);
        let c = f * 0.5 + i * g;
        let h = o * c.tanh();
        assert!((next.c[0] - c).abs() < 1e-6);
        assert!((next.h[0] - h).abs() < 1e-6);
    }

    #[test]
    fn preactivations_are_linear_in_inputs() {
        let cell = tiny_cell();
        let x1 = [0.3, -0.2, 0.5];
        let h = [0.1, -0.1];
        let pre1 = cell.gate_preactivations(&x1, &h).unwrap();
        // Changing one input by delta shifts pre-activations by delta*w.
        let mut x2 = x1;
        x2[1] += 0.25;
        let pre2 = cell.gate_preactivations(&x2, &h).unwrap();
        for g in 0..NUM_GATES {
            for j in 0..2 {
                let w = cell.w_x(g).as_slice()[2 + j];
                let expect = pre1[g * 2 + j] + 0.25 * w;
                assert!((pre2[g * 2 + j] - expect).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn wrong_input_length_is_rejected() {
        let cell = tiny_cell();
        assert!(matches!(
            cell.step(&[0.0; 4], &LstmState::zeros(2)),
            Err(NnError::InputShape {
                expected: 3,
                actual: 4
            })
        ));
    }

    #[test]
    fn bilstm_output_concatenates_directions() {
        let layer = BiLstmLayer::random(3, 2, &mut init::Rng64::new(1));
        let xs = vec![
            vec![0.1, 0.2, 0.3],
            vec![0.2, 0.1, 0.0],
            vec![-0.1, 0.0, 0.1],
        ];
        let out = layer.forward_sequence(&xs).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|o| o.len() == 4));
        // The backward half at t=last equals a single backward step from zero
        // state on xs[last].
        let bwd_state = layer
            .backward_cell()
            .step(&xs[2], &LstmState::zeros(2))
            .unwrap();
        assert_eq!(&out[2][2..], bwd_state.h.as_slice());
        // The forward half at t=0 equals a single forward step from zero state.
        let fwd_state = layer
            .forward_cell()
            .step(&xs[0], &LstmState::zeros(2))
            .unwrap();
        assert_eq!(&out[0][..2], fwd_state.h.as_slice());
    }

    #[test]
    fn empty_sequence_is_rejected() {
        let layer = BiLstmLayer::random(3, 2, &mut init::Rng64::new(1));
        assert!(matches!(
            layer.forward_sequence(&[]),
            Err(NnError::EmptySequence)
        ));
    }

    #[test]
    fn accounting_eesen_layer() {
        // EESEN BiLSTM2: in 640, cell 320.
        let layer = BiLstmLayer::random(640, 320, &mut init::Rng64::new(2));
        assert_eq!(layer.n_out(), 640);
        let per_cell = 4 * (640 * 320 + 320 * 320 + 320);
        assert_eq!(layer.param_count(), 2 * per_cell as u64);
        assert_eq!(
            layer.flops_per_step(),
            2 * 2 * (4 * (640 + 320) * 320) as u64
        );
    }

    #[test]
    fn mismatched_direction_cells_rejected() {
        let a = LstmCell::random(3, 2, &mut init::Rng64::new(1));
        let b = LstmCell::random(4, 2, &mut init::Rng64::new(1));
        assert!(BiLstmLayer::new(a, b).is_err());
    }
}
