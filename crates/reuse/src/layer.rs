//! The uniform per-layer reuse interface.
//!
//! Every reuse-enabled layer family (fully-connected, conv2d/3d, LSTM,
//! BiLSTM) exposes the same small surface to the execution engine through
//! [`ReuseLayer`]: step a run of rows — frames, or one sequence's timesteps —
//! correcting buffered outputs, reset between sequences, and report
//! per-stream storage.
//! The engine walks a plan of trait objects
//! built once per session — no per-kind `match` remains on the execute
//! path. Immutable inputs (the network layer, whose packed weights the
//! corrections read, and the quantizers) come in through [`StepCtx`],
//! borrowed from the shared [`CompiledModel`](crate::CompiledModel);
//! everything behind `&mut self` is per-stream session state.

use reuse_nn::Layer;
use reuse_quant::LinearQuantizer;
use reuse_tensor::ParallelConfig;

use crate::conv::ConvReuseState;
use crate::fc::FcReuseState;
use crate::lstm::LstmReuseState;
use crate::ReuseError;

/// The token the six benchmark-pinned kernel entry points still take and
/// ignore (ROADMAP item 1(b)): every kernel runs on the calling thread, and
/// shards are the multi-core answer above the kernel API.
pub const SERIAL: ParallelConfig = ParallelConfig::serial();

/// `Instant::now()` only when spans are being recorded, so the disabled
/// path pays a single branch.
pub(crate) fn span_start(timed: bool) -> Option<std::time::Instant> {
    timed.then(std::time::Instant::now)
}

pub(crate) fn span_elapsed_ns(start: Option<std::time::Instant>) -> u64 {
    start.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

/// Everything a [`ReuseLayer`] step needs that is *not* per-stream state:
/// the network layer, with the packed weights its corrections read, and the
/// session's quantizers. Borrowed per call — the layer object itself stores
/// only mutable stream state.
#[derive(Debug)]
pub struct StepCtx<'a> {
    /// The network layer this state corrects for. Its conv panels and LSTM
    /// gate packs are the packed weights every session of the model shares.
    pub layer: &'a Layer,
    /// Quantizer for the layer's feed-forward inputs. `None` until
    /// calibration builds one, and a slot without one does not step.
    pub quantizer_x: Option<&'a LinearQuantizer>,
    /// Quantizer for the recurrent inputs (LSTM/BiLSTM only).
    pub quantizer_h: Option<&'a LinearQuantizer>,
}

/// Per-execution activity counters, the one stats type every layer family's
/// state returns; the session writes them, with the step's span, into its
/// one step record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Inputs inspected this execution (x plus h for recurrent cells).
    pub n_inputs: u64,
    /// Inputs whose quantized index changed since the previous execution.
    pub n_changed: u64,
    /// MACs a from-scratch execution would perform.
    pub macs_total: u64,
    /// MACs actually performed (corrections only).
    pub macs_performed: u64,
    /// Whether this execution initialized state from scratch.
    pub from_scratch: bool,
}

impl ExecStats {
    /// Sums the counters of two executions (e.g. the two directions of a
    /// BiLSTM timestep).
    pub fn merge(self, other: ExecStats) -> ExecStats {
        ExecStats {
            n_inputs: self.n_inputs + other.n_inputs,
            n_changed: self.n_changed + other.n_changed,
            macs_total: self.macs_total + other.macs_total,
            macs_performed: self.macs_performed + other.macs_performed,
            from_scratch: self.from_scratch || other.from_scratch,
        }
    }
}

fn wrong_layer(expected: &'static str) -> ReuseError {
    ReuseError::WrongApi {
        context: format!("reuse state dispatched against a non-{expected} layer"),
    }
}

/// The input quantizer, which every reuse-correcting state requires.
fn require_qx<'a>(ctx: &StepCtx<'a>) -> Result<&'a LinearQuantizer, ReuseError> {
    ctx.quantizer_x.ok_or_else(|| ReuseError::WrongApi {
        context: "reuse correction stepped without an input quantizer".into(),
    })
}

/// The hidden-state quantizer every recurrent state requires.
fn require_qh<'a>(ctx: &StepCtx<'a>) -> Result<&'a LinearQuantizer, ReuseError> {
    ctx.quantizer_h.ok_or_else(|| ReuseError::WrongApi {
        context: "recurrent step without a hidden-state quantizer".into(),
    })
}

/// The rows of a flat `[rows, width]` run, which must be whole.
fn run_rows(xs: &[f32], width: usize) -> Result<std::slice::ChunksExact<'_, f32>, ReuseError> {
    if !xs.len().is_multiple_of(width) {
        return Err(ReuseError::Nn(reuse_nn::NnError::InputShape {
            expected: xs.len().next_multiple_of(width),
            actual: xs.len(),
        }));
    }
    Ok(xs.chunks_exact(width))
}

/// A frame-wise state's step over a run, one row after the other:
/// `correct` appends a row's linear outputs to `out`, then the layer's
/// activation runs on them in place. Stops at the first failing row, with
/// the rows before it in `out` and `steps`.
fn step_rows(
    ctx: &StepCtx<'_>,
    xs: &[f32],
    width: usize,
    timed: bool,
    out: &mut Vec<f32>,
    steps: &mut Vec<(ExecStats, u64)>,
    mut correct: impl FnMut(&[f32], &mut Vec<f32>) -> Result<ExecStats, ReuseError>,
) -> Result<(), ReuseError> {
    out.clear();
    steps.clear();
    for x in run_rows(xs, width)? {
        let (span, start) = (span_start(timed), out.len());
        let stats = correct(x, out)?;
        if let Some(act) = ctx.layer.activation() {
            act.apply_in_place(&mut out[start..]);
        }
        steps.push((stats, span_elapsed_ns(span)));
    }
    Ok(())
}

/// One reuse-enabled layer's per-stream state behind a uniform interface.
///
/// Implementations hold only mutable stream state (previous quantized
/// indices, buffered linear outputs, LSTM cell/hidden baselines); the
/// immutable half — weights, packs, quantizers — arrives through
/// [`StepCtx`] so one [`CompiledModel`](crate::CompiledModel) can serve
/// many sessions.
pub trait ReuseLayer: std::fmt::Debug + Send {
    /// Steps a run of inputs, `xs` the rows back to back (`[rows, n_in]`),
    /// correcting the buffered outputs row after row: `out` is cleared and
    /// filled with one row of the layer's output per input row (activation
    /// applied; the hidden state for recurrent cells), `steps` with each
    /// row's counters and span (0 unless `timed`). A frame-wise state steps
    /// its rows one at a time; a recurrent one runs them as one sequence.
    ///
    /// # Errors
    ///
    /// Returns [`ReuseError`] on shape mismatches or when the state is
    /// stepped against the wrong layer. The rows stepped before the failing
    /// one stay in `out` and `steps`.
    fn step(
        &mut self,
        ctx: &StepCtx<'_>,
        xs: &[f32],
        timed: bool,
        out: &mut Vec<f32>,
        steps: &mut Vec<(ExecStats, u64)>,
    ) -> Result<(), ReuseError>;

    /// Drops buffered state; the next execution recomputes from scratch
    /// (the between-sequence power-gate reset).
    fn reset(&mut self, layer: &Layer);

    /// Extra I/O-buffer/main-memory bytes this stream's state needs:
    /// indices plus buffered outputs (Table III accounting). Per session —
    /// shared packed weights are accounted on the model.
    fn storage_bytes(&self, layer: &Layer) -> u64;
}

impl ReuseLayer for FcReuseState {
    fn step(
        &mut self,
        ctx: &StepCtx<'_>,
        xs: &[f32],
        timed: bool,
        out: &mut Vec<f32>,
        steps: &mut Vec<(ExecStats, u64)>,
    ) -> Result<(), ReuseError> {
        let Layer::FullyConnected(fc) = ctx.layer else {
            return Err(wrong_layer("fully-connected"));
        };
        let q = require_qx(ctx)?;
        step_rows(ctx, xs, fc.n_in(), timed, out, steps, |x, out| {
            self.append_into(fc, q, x, out, false)
        })
    }

    fn reset(&mut self, _layer: &Layer) {
        FcReuseState::reset(self);
    }

    fn storage_bytes(&self, layer: &Layer) -> u64 {
        match layer {
            Layer::FullyConnected(fc) => FcReuseState::storage_bytes(self, fc),
            _ => 0,
        }
    }
}

impl ReuseLayer for ConvReuseState {
    fn step(
        &mut self,
        ctx: &StepCtx<'_>,
        xs: &[f32],
        timed: bool,
        out: &mut Vec<f32>,
        steps: &mut Vec<(ExecStats, u64)>,
    ) -> Result<(), ReuseError> {
        let q = require_qx(ctx)?;
        step_rows(ctx, xs, self.in_volume(), timed, out, steps, |x, out| {
            let start = out.len();
            match ctx.layer {
                Layer::Conv2d(c) => self.execute_from(c, c.panels(), q, x, out, start),
                Layer::Conv3d(c) => self.execute_from(c, c.panels(), q, x, out, start),
                _ => Err(wrong_layer("conv")),
            }
        })
    }

    fn reset(&mut self, _layer: &Layer) {
        ConvReuseState::reset(self);
    }

    fn storage_bytes(&self, _layer: &Layer) -> u64 {
        ConvReuseState::storage_bytes(self)
    }
}

impl ReuseLayer for LstmReuseState {
    /// The run as one sequence: one [`LstmReuseState::step_block`] call.
    fn step(
        &mut self,
        ctx: &StepCtx<'_>,
        xs: &[f32],
        timed: bool,
        out: &mut Vec<f32>,
        steps: &mut Vec<(ExecStats, u64)>,
    ) -> Result<(), ReuseError> {
        let Layer::Lstm(cell) = ctx.layer else {
            return Err(wrong_layer("lstm"));
        };
        let quantizers = (require_qx(ctx)?, require_qh(ctx)?);
        let xs = run_rows(xs, cell.n_in())?;
        out.clear();
        steps.clear();
        self.step_block(cell, cell.pack(), quantizers, xs, timed, |h, step| {
            out.extend_from_slice(h);
            steps.push(step);
        })
    }

    fn reset(&mut self, layer: &Layer) {
        if let Layer::Lstm(cell) = layer {
            LstmReuseState::reset(self, cell);
        }
    }

    fn storage_bytes(&self, layer: &Layer) -> u64 {
        match layer {
            Layer::Lstm(cell) => LstmReuseState::storage_bytes(self, cell),
            _ => 0,
        }
    }
}

/// Per-stream state for one BiLSTM layer: an independent [`LstmReuseState`]
/// per direction, scheduled forward-then-backward over each sequence.
#[derive(Debug)]
pub struct BiLstmReuseState {
    fwd: LstmReuseState,
    bwd: LstmReuseState,
}

impl BiLstmReuseState {
    /// Creates both directional states (corrections go through each cell's
    /// shared [`LstmGatePack`](crate::lstm::LstmGatePack)).
    pub fn new(layer: &reuse_nn::BiLstmLayer) -> Self {
        BiLstmReuseState {
            fwd: LstmReuseState::new_shared(layer.forward_cell()),
            bwd: LstmReuseState::new_shared(layer.backward_cell()),
        }
    }
}

impl ReuseLayer for BiLstmReuseState {
    /// The run as one sequence: forward pass over ascending timesteps,
    /// backward pass over descending timesteps, row `t` of `out` =
    /// `[h_fwd | h_bwd]`; per-timestep stats are the two directions merged
    /// and spans summed.
    fn step(
        &mut self,
        ctx: &StepCtx<'_>,
        xs: &[f32],
        timed: bool,
        out: &mut Vec<f32>,
        steps: &mut Vec<(ExecStats, u64)>,
    ) -> Result<(), ReuseError> {
        let Layer::BiLstm(layer) = ctx.layer else {
            return Err(wrong_layer("bilstm"));
        };
        let quantizers = (require_qx(ctx)?, require_qh(ctx)?);
        let d = layer.cell_dim();
        let ascending = run_rows(xs, layer.n_in())?;
        let t = ascending.len();
        out.clear();
        out.resize(t * 2 * d, 0.0);
        steps.clear();
        let cell = layer.forward_cell();
        let forward = |h: &[f32], step: (ExecStats, u64)| {
            out[steps.len() * 2 * d..][..d].copy_from_slice(h);
            steps.push(step);
        };
        self.fwd.step_block(
            cell,
            cell.pack(),
            quantizers,
            ascending.clone(),
            timed,
            forward,
        )?;
        let cell = layer.backward_cell();
        let mut at = t;
        let backward = |h: &[f32], (stats, span_ns): (ExecStats, u64)| {
            at -= 1;
            out[at * 2 * d + d..][..d].copy_from_slice(h);
            let forward = steps[at];
            steps[at] = (forward.0.merge(stats), forward.1 + span_ns);
        };
        // A timestep is done once both directions ran it.
        self.bwd
            .step_block(
                cell,
                cell.pack(),
                quantizers,
                ascending.rev(),
                timed,
                backward,
            )
            .inspect_err(|_| steps.clear())
    }

    fn reset(&mut self, layer: &Layer) {
        if let Layer::BiLstm(l) = layer {
            self.fwd.reset(l.forward_cell());
            self.bwd.reset(l.backward_cell());
        }
    }

    fn storage_bytes(&self, layer: &Layer) -> u64 {
        match layer {
            Layer::BiLstm(l) => {
                self.fwd.storage_bytes(l.forward_cell()) + self.bwd.storage_bytes(l.backward_cell())
            }
            _ => 0,
        }
    }
}

/// Builds the per-stream state object for one weighted layer. Construction
/// is the only place layer kinds are matched — from here on the engine
/// dispatches through the trait.
///
/// # Panics
///
/// Panics if a convolutional layer's state cannot be sized — impossible for
/// networks built through `NetworkBuilder`, whose shapes are validated.
pub(crate) fn build_state(
    layer: &Layer,
    in_shape: &reuse_tensor::Shape,
) -> Option<Box<dyn ReuseLayer>> {
    match layer {
        Layer::FullyConnected(fc) => Some(Box::new(FcReuseState::new(fc))),
        Layer::Conv2d(c) => Some(Box::new(
            ConvReuseState::new(c, in_shape).expect("validated at network build"),
        )),
        Layer::Conv3d(c) => Some(Box::new(
            ConvReuseState::new(c, in_shape).expect("validated at network build"),
        )),
        Layer::Lstm(cell) => Some(Box::new(LstmReuseState::new_shared(cell))),
        Layer::BiLstm(l) => Some(Box::new(BiLstmReuseState::new(l))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_stats_merge_adds_counts() {
        let a = ExecStats {
            n_inputs: 10,
            n_changed: 2,
            macs_total: 100,
            macs_performed: 20,
            from_scratch: false,
        };
        let b = ExecStats {
            n_inputs: 5,
            n_changed: 5,
            macs_total: 50,
            macs_performed: 50,
            from_scratch: true,
        };
        let m = a.merge(b);
        assert_eq!(m.n_inputs, 15);
        assert_eq!(m.n_changed, 7);
        assert_eq!(m.macs_total, 150);
        assert_eq!(m.macs_performed, 70);
        assert!(m.from_scratch);
    }
}
