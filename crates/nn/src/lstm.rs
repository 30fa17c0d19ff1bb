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
//! update [`LstmCell::step_from_preactivations`].

use std::sync::Arc;

use reuse_tensor::{Shape, Tensor};

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

/// One LSTM cell with four gates.
///
/// Weight layout per gate is input-major like FC layers: `w_x[gate]` is
/// `[n_in, cell_dim]` and `w_h[gate]` is `[cell_dim, cell_dim]`, so the
/// weights fed by a single input element are contiguous — the layout the
/// reuse correction walks.
///
/// The eight matrices are immutable and shared by clones of the cell (the
/// `FullyConnected` idiom): compiling a model clones its network, and
/// EESEN's cells hold 42 MB.
#[derive(Debug, Clone)]
pub struct LstmCell {
    n_in: usize,
    cell_dim: usize,
    /// Feed-forward weights per gate, each `[n_in, cell_dim]`.
    w_x: [Arc<Tensor>; NUM_GATES],
    /// Recurrent weights per gate, each `[cell_dim, cell_dim]`.
    w_h: [Arc<Tensor>; NUM_GATES],
    /// Bias per gate, each `[cell_dim]`.
    bias: [Tensor; NUM_GATES],
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
        Ok(LstmCell {
            n_in,
            cell_dim,
            w_x: w_x.map(Arc::new),
            w_h: w_h.map(Arc::new),
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
        LstmCell {
            n_in,
            cell_dim,
            w_x: w_x.map(Arc::new),
            w_h: w_h.map(Arc::new),
            bias,
        }
    }

    /// Feed-forward input dimension.
    pub fn n_in(&self) -> usize {
        self.n_in
    }

    /// Cell (and hidden) dimension.
    pub fn cell_dim(&self) -> usize {
        self.cell_dim
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

    /// Computes the linear pre-activations of all four gates:
    /// `pre[g] = W_x[g]·x + W_h[g]·h + b[g]`, returned as a
    /// `[NUM_GATES, cell_dim]` row-major matrix.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] when `x` or `h` have wrong lengths.
    pub fn gate_preactivations(&self, x: &[f32], h: &[f32]) -> Result<Vec<f32>, NnError> {
        if x.len() != self.n_in {
            return Err(NnError::InputShape {
                expected: self.n_in,
                actual: x.len(),
            });
        }
        if h.len() != self.cell_dim {
            return Err(NnError::InputShape {
                expected: self.cell_dim,
                actual: h.len(),
            });
        }
        let mut pre = vec![0.0f32; NUM_GATES * self.cell_dim];
        for g in 0..NUM_GATES {
            let dst = &mut pre[g * self.cell_dim..(g + 1) * self.cell_dim];
            dst.copy_from_slice(self.bias[g].as_slice());
            accumulate_input_major(self.w_x[g].as_slice(), x, dst);
            accumulate_input_major(self.w_h[g].as_slice(), h, dst);
        }
        Ok(pre)
    }

    /// Completes one cell step from precomputed gate pre-activations
    /// (paper Eqs. 3-8): applies σ/φ, updates `c` and produces `h`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `pre` is not `NUM_GATES × cell_dim` or the
    /// state dimension disagrees.
    pub fn step_from_preactivations(&self, pre: &[f32], state: &LstmState) -> LstmState {
        let mut next = state.clone();
        self.step_from_preactivations_in_place(pre, &mut next);
        next
    }

    /// In-place variant of [`Self::step_from_preactivations`] — advances
    /// `state` to the next timestep without allocating: one fused pass of
    /// [`reuse_tensor::simd::lstm_gate_update`], the σ/φ every path of the
    /// workspace shares (Eq. 7 reads each `c[j]` before overwriting it, so
    /// updating elementwise is exact).
    ///
    /// # Panics
    ///
    /// Panics if `pre` is not `NUM_GATES × cell_dim` or the state dimension
    /// disagrees.
    pub fn step_from_preactivations_in_place(&self, pre: &[f32], state: &mut LstmState) {
        assert_eq!(state.c.len(), self.cell_dim, "state vs cell dimension");
        reuse_tensor::simd::lstm_gate_update(pre, &mut state.c, &mut state.h);
    }

    /// One full cell step: pre-activations + nonlinear update.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] when `x` has the wrong length.
    pub fn step(&self, x: &[f32], state: &LstmState) -> Result<LstmState, NnError> {
        let pre = self.gate_preactivations(x, &state.h)?;
        Ok(self.step_from_preactivations(&pre, state))
    }

    /// Processes a whole sequence unidirectionally from a zero state,
    /// returning one `[cell_dim]` hidden output per timestep (the paper's
    /// "one (unidirectional) LSTM cell" recurrent-layer variant).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptySequence`] on empty input and
    /// [`NnError::InputShape`] when frames have the wrong length.
    pub fn forward_sequence(&self, xs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, NnError> {
        if xs.is_empty() {
            return Err(NnError::EmptySequence);
        }
        let mut state = LstmState::zeros(self.cell_dim);
        let mut out = Vec::with_capacity(xs.len());
        for x in xs {
            state = self.step(x, &state)?;
            out.push(state.h.clone());
        }
        Ok(out)
    }

    /// Parameter count across the four gates.
    pub fn param_count(&self) -> u64 {
        (NUM_GATES * (self.n_in * self.cell_dim + self.cell_dim * self.cell_dim + self.cell_dim))
            as u64
    }

    /// Multiply+add count of one from-scratch cell step (linear part).
    pub fn flops_per_step(&self) -> u64 {
        2 * (NUM_GATES * (self.n_in + self.cell_dim) * self.cell_dim) as u64
    }
}

/// `dst[j] += Σ_i w[i][j]·v[i]` with `w` stored input-major `[len(v), len(dst)]`.
///
/// The per-row axpy is dispatched on the resolved SIMD level (see
/// `reuse_tensor::simd`): identical separate mul-then-add under the scalar
/// level, fused multiply-add under AVX2. The `vi == 0.0` skip is exact at
/// both levels (skipping a zero contribution never changes the sum).
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

    /// Processes a whole sequence, returning one `[2·cell_dim]` output per
    /// timestep (forward states concatenated with time-aligned backward
    /// states).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptySequence`] on empty input and
    /// [`NnError::InputShape`] when frames have the wrong length.
    pub fn forward_sequence(&self, xs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, NnError> {
        if xs.is_empty() {
            return Err(NnError::EmptySequence);
        }
        let d = self.cell_dim();
        let mut out = vec![vec![0.0f32; 2 * d]; xs.len()];
        let mut state = LstmState::zeros(d);
        for (t, x) in xs.iter().enumerate() {
            state = self.fwd.step(x, &state)?;
            out[t][..d].copy_from_slice(&state.h);
        }
        let mut state = LstmState::zeros(d);
        for (t, x) in xs.iter().enumerate().rev() {
            state = self.bwd.step(x, &state)?;
            out[t][d..].copy_from_slice(&state.h);
        }
        Ok(out)
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
