//! The uniform per-layer reuse interface.
//!
//! Every reuse-enabled layer family (fully-connected, conv2d/3d, LSTM,
//! BiLSTM) exposes the same small surface to the execution engine through
//! [`ReuseLayer`]: correct buffered outputs for one frame, adopt a fresh
//! baseline after a watchdog re-baseline, reset between sequences, and
//! report per-stream storage. The engine walks a plan of trait objects
//! built once per session — no per-kind `match` remains on the execute
//! path. Immutable inputs (network layer, packed weights, quantizers) come
//! in through [`StepCtx`], borrowed from the shared
//! [`CompiledModel`](crate::CompiledModel); everything behind `&mut self`
//! is per-stream session state.

use reuse_nn::{Layer, LayerKind};
use reuse_quant::LinearQuantizer;
use reuse_tensor::ParallelConfig;

use crate::conv::ConvReuseState;
use crate::fc::FcReuseState;
use crate::lstm::LstmReuseState;
use crate::model::CompiledWeights;
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
/// the network layer, the model's packed weights for it, and the session's
/// quantizers. Borrowed per call — the layer object itself stores only
/// mutable stream state.
#[derive(Debug)]
pub struct StepCtx<'a> {
    /// The network layer this state corrects for.
    pub layer: &'a Layer,
    /// Packed/blocked weights shared by every session of the model.
    pub weights: &'a CompiledWeights,
    /// Quantizer for the layer's feed-forward inputs. `None` only for
    /// passthrough slots, which recompute without quantizing.
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

/// Recurrent states have no frame step: the session runs them a sequence at
/// a time through [`ReuseLayer::step_sequence`].
fn per_sequence_only() -> ReuseError {
    ReuseError::WrongApi {
        context: "recurrent layers run per sequence: use step_sequence".into(),
    }
}

/// The input quantizer, which every reuse-correcting (non-passthrough)
/// state requires.
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

/// Infallible variant for `adopt_baseline`, whose signature cannot error:
/// the watchdog only re-baselines quantizing slots.
fn expect_qx<'a>(ctx: &StepCtx<'a>) -> &'a LinearQuantizer {
    ctx.quantizer_x
        .expect("frame-wise reuse layers carry an input quantizer")
}

/// The rows of a flat `[t, width]` sequence, which must be whole.
fn sequence_rows(xs: &[f32], width: usize) -> Result<std::slice::ChunksExact<'_, f32>, ReuseError> {
    if !xs.len().is_multiple_of(width) {
        return Err(ReuseError::Nn(reuse_nn::NnError::InputShape {
            expected: xs.len().next_multiple_of(width),
            actual: xs.len(),
        }));
    }
    Ok(xs.chunks_exact(width))
}

/// One reuse-enabled layer's per-stream state behind a uniform interface.
///
/// Implementations hold only mutable stream state (previous quantized
/// indices, buffered linear outputs, LSTM cell/hidden baselines); the
/// immutable half — weights, packs, quantizers — arrives through
/// [`StepCtx`] so one [`CompiledModel`](crate::CompiledModel) can serve
/// many sessions.
pub trait ReuseLayer: std::fmt::Debug + Send {
    /// The layer family this state corrects for.
    fn kind(&self) -> LayerKind;

    /// Corrects the buffered outputs for one frame and writes the layer's
    /// *post-step* values into `out` (linear pre-activations for
    /// frame-wise layers, the hidden state for recurrent cells).
    ///
    /// # Errors
    ///
    /// Returns [`ReuseError`] on shape mismatches or when the state is
    /// stepped against the wrong layer kind.
    fn correct(
        &mut self,
        ctx: &StepCtx<'_>,
        input: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<ExecStats, ReuseError>;

    /// One full execution: [`Self::correct`] plus the layer's activation
    /// (recurrent cells apply their nonlinearities inside `correct`, where
    /// [`Layer::activation`] is `None`).
    ///
    /// # Errors
    ///
    /// Propagates [`Self::correct`] errors.
    fn step(
        &mut self,
        ctx: &StepCtx<'_>,
        input: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<ExecStats, ReuseError> {
        let stats = self.correct(ctx, input, out)?;
        if let Some(act) = ctx.layer.activation() {
            act.apply_in_place(out);
        }
        Ok(stats)
    }

    /// Runs a whole sequence through a recurrent layer: `xs` is the
    /// timesteps' inputs back to back; `out` is cleared and filled with one
    /// row of the layer's output width per timestep, `steps` with each
    /// timestep's counters and span (0 unless `timed`). Frame-wise layers
    /// have no sequence step — the session steps them timestep by timestep.
    ///
    /// # Errors
    ///
    /// Returns [`ReuseError`] on shape mismatches or when dispatched on a
    /// frame-wise state.
    fn step_sequence(
        &mut self,
        _ctx: &StepCtx<'_>,
        _xs: &[f32],
        _timed: bool,
        _out: &mut Vec<f32>,
        _steps: &mut Vec<(ExecStats, u64)>,
    ) -> Result<(), ReuseError> {
        Err(wrong_layer("recurrent"))
    }

    /// Re-baselines the buffered state onto exact full-precision values:
    /// codes become the quantization of `input`, buffered outputs become
    /// `linear` (the serial linear forward on `input`). Only meaningful for
    /// frame-wise layers — the drift watchdog never runs on recurrent
    /// networks.
    fn adopt_baseline(&mut self, ctx: &StepCtx<'_>, input: &[f32], linear: &[f32]);

    /// Clears `out` and writes the buffered linear outputs into it, in the
    /// layout [`Self::adopt_baseline`] takes them (nothing for recurrent
    /// cells, whose baseline is the gate pre-activation buffer the watchdog
    /// never inspects). A copy rather than a borrow because conv states
    /// buffer channels-last and transpose on the way out.
    fn buffered_linear_into(&self, out: &mut Vec<f32>);

    /// Whether a baseline (codes + buffered outputs) is in place, i.e. the
    /// next [`Self::step`] will correct incrementally instead of running
    /// from scratch. Recurrent cells report `true`: the cross-stream
    /// signature cache (the only caller) never adopts into them.
    fn is_initialized(&self) -> bool {
        true
    }

    /// Drops buffered state; the next execution recomputes from scratch
    /// (the between-sequence power-gate reset).
    fn reset(&mut self, layer: &Layer);

    /// Extra I/O-buffer/main-memory bytes this stream's state needs:
    /// indices plus buffered outputs (Table III accounting). Per session —
    /// shared packed weights are accounted on the model.
    fn storage_bytes(&self, layer: &Layer) -> u64;
}

impl ReuseLayer for FcReuseState {
    fn kind(&self) -> LayerKind {
        LayerKind::Fc
    }

    fn correct(
        &mut self,
        ctx: &StepCtx<'_>,
        input: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<ExecStats, ReuseError> {
        let Layer::FullyConnected(fc) = ctx.layer else {
            return Err(wrong_layer("fully-connected"));
        };
        self.execute_into(&SERIAL, fc, require_qx(ctx)?, input, out)
    }

    fn adopt_baseline(&mut self, ctx: &StepCtx<'_>, input: &[f32], linear: &[f32]) {
        FcReuseState::adopt_baseline(self, expect_qx(ctx), input, linear);
    }

    fn buffered_linear_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(FcReuseState::buffered_linear(self));
    }

    fn is_initialized(&self) -> bool {
        FcReuseState::is_initialized(self)
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
    fn kind(&self) -> LayerKind {
        LayerKind::Conv
    }

    fn correct(
        &mut self,
        ctx: &StepCtx<'_>,
        input: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<ExecStats, ReuseError> {
        let CompiledWeights::Conv(pack) = ctx.weights else {
            return Err(wrong_layer("conv"));
        };
        let q = require_qx(ctx)?;
        match ctx.layer {
            Layer::Conv2d(c) => self.execute_into_packed(&SERIAL, c, pack, q, input, out),
            Layer::Conv3d(c) => self.execute_into_packed(&SERIAL, c, pack, q, input, out),
            _ => Err(wrong_layer("conv")),
        }
    }

    fn adopt_baseline(&mut self, ctx: &StepCtx<'_>, input: &[f32], linear: &[f32]) {
        ConvReuseState::adopt_baseline(self, expect_qx(ctx), input, linear);
    }

    fn buffered_linear_into(&self, out: &mut Vec<f32>) {
        ConvReuseState::buffered_linear_into(self, out);
    }

    fn is_initialized(&self) -> bool {
        ConvReuseState::is_initialized(self)
    }

    fn reset(&mut self, _layer: &Layer) {
        ConvReuseState::reset(self);
    }

    fn storage_bytes(&self, _layer: &Layer) -> u64 {
        ConvReuseState::storage_bytes(self)
    }
}

impl ReuseLayer for LstmReuseState {
    fn kind(&self) -> LayerKind {
        LayerKind::Recurrent
    }

    fn correct(
        &mut self,
        _ctx: &StepCtx<'_>,
        _input: &[f32],
        _out: &mut Vec<f32>,
    ) -> Result<ExecStats, ReuseError> {
        Err(per_sequence_only())
    }

    /// The whole sequence as one [`LstmReuseState::step_block`] call.
    fn step_sequence(
        &mut self,
        ctx: &StepCtx<'_>,
        xs: &[f32],
        timed: bool,
        out: &mut Vec<f32>,
        steps: &mut Vec<(ExecStats, u64)>,
    ) -> Result<(), ReuseError> {
        let (Layer::Lstm(cell), CompiledWeights::Lstm(pack)) = (ctx.layer, ctx.weights) else {
            return Err(wrong_layer("lstm"));
        };
        let quantizers = (require_qx(ctx)?, require_qh(ctx)?);
        let xs = sequence_rows(xs, cell.n_in())?;
        out.clear();
        steps.clear();
        self.step_block(cell, pack, quantizers, xs, timed, |h, step| {
            out.extend_from_slice(h);
            steps.push(step);
        })
    }

    fn adopt_baseline(&mut self, _ctx: &StepCtx<'_>, _input: &[f32], _linear: &[f32]) {
        debug_assert!(
            false,
            "the drift watchdog never re-baselines recurrent layers"
        );
    }

    fn buffered_linear_into(&self, out: &mut Vec<f32>) {
        out.clear();
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
    /// Creates both directional states (corrections go through the model's
    /// shared [`CompiledWeights::BiLstm`]).
    pub fn new(layer: &reuse_nn::BiLstmLayer) -> Self {
        BiLstmReuseState {
            fwd: LstmReuseState::new_shared(layer.forward_cell()),
            bwd: LstmReuseState::new_shared(layer.backward_cell()),
        }
    }
}

impl ReuseLayer for BiLstmReuseState {
    fn kind(&self) -> LayerKind {
        LayerKind::Recurrent
    }

    fn correct(
        &mut self,
        _ctx: &StepCtx<'_>,
        _input: &[f32],
        _out: &mut Vec<f32>,
    ) -> Result<ExecStats, ReuseError> {
        Err(per_sequence_only())
    }

    /// Forward pass over ascending timesteps, backward pass over descending
    /// timesteps, row `t` of `out` = `[h_fwd | h_bwd]`; per-timestep stats
    /// are the two directions merged and spans summed.
    fn step_sequence(
        &mut self,
        ctx: &StepCtx<'_>,
        xs: &[f32],
        timed: bool,
        out: &mut Vec<f32>,
        steps: &mut Vec<(ExecStats, u64)>,
    ) -> Result<(), ReuseError> {
        let (Layer::BiLstm(layer), CompiledWeights::BiLstm { fwd, bwd }) = (ctx.layer, ctx.weights)
        else {
            return Err(wrong_layer("bilstm"));
        };
        let quantizers = (require_qx(ctx)?, require_qh(ctx)?);
        let d = layer.cell_dim();
        let ascending = sequence_rows(xs, layer.n_in())?;
        let t = ascending.len();
        out.clear();
        out.resize(t * 2 * d, 0.0);
        steps.clear();
        let cell = layer.forward_cell();
        let forward = |h: &[f32], step: (ExecStats, u64)| {
            out[steps.len() * 2 * d..][..d].copy_from_slice(h);
            steps.push(step);
        };
        self.fwd
            .step_block(cell, fwd, quantizers, ascending.clone(), timed, forward)?;
        let cell = layer.backward_cell();
        let mut at = t;
        let backward = |h: &[f32], (stats, span_ns): (ExecStats, u64)| {
            at -= 1;
            out[at * 2 * d + d..][..d].copy_from_slice(h);
            let forward = steps[at];
            steps[at] = (forward.0.merge(stats), forward.1 + span_ns);
        };
        self.bwd
            .step_block(cell, bwd, quantizers, ascending.rev(), timed, backward)
    }

    fn adopt_baseline(&mut self, _ctx: &StepCtx<'_>, _input: &[f32], _linear: &[f32]) {
        debug_assert!(
            false,
            "the drift watchdog never re-baselines recurrent layers"
        );
    }

    fn buffered_linear_into(&self, out: &mut Vec<f32>) {
        out.clear();
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

/// Per-stream "state" for a recompute-always passthrough slot. There is no
/// buffered baseline: every `correct` runs the op from scratch and charges
/// its full MAC-equivalent cost, with every input counted as changed —
/// honest accounting for ingested ops the reuse scheme cannot correct
/// incrementally. `is_initialized` stays `true` so the cross-stream
/// signature cache never attempts an adoption, and `from_scratch` stays
/// `false` so every execution lands in metrics and telemetry as a fully
/// recomputed incremental step.
#[derive(Debug)]
pub struct PassthroughReuseState {
    in_shape: reuse_tensor::Shape,
    /// MAC-equivalents of one from-scratch execution, precomputed.
    macs: u64,
}

impl PassthroughReuseState {
    fn new(layer: &Layer, in_shape: &reuse_tensor::Shape) -> Self {
        PassthroughReuseState {
            in_shape: in_shape.clone(),
            macs: layer.flops(in_shape) / 2,
        }
    }
}

impl ReuseLayer for PassthroughReuseState {
    fn kind(&self) -> LayerKind {
        LayerKind::Passthrough
    }

    fn correct(
        &mut self,
        ctx: &StepCtx<'_>,
        input: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<ExecStats, ReuseError> {
        let Layer::Passthrough(p) = ctx.layer else {
            return Err(wrong_layer("passthrough"));
        };
        p.forward_into(input, &self.in_shape, out)?;
        Ok(ExecStats {
            n_inputs: input.len() as u64,
            n_changed: input.len() as u64,
            macs_total: self.macs,
            macs_performed: self.macs,
            from_scratch: false,
        })
    }

    fn adopt_baseline(&mut self, _ctx: &StepCtx<'_>, _input: &[f32], _linear: &[f32]) {
        debug_assert!(false, "passthrough slots hold no baseline to adopt");
    }

    fn buffered_linear_into(&self, out: &mut Vec<f32>) {
        out.clear();
    }

    fn reset(&mut self, _layer: &Layer) {}

    fn storage_bytes(&self, _layer: &Layer) -> u64 {
        0
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
        Layer::Passthrough(_) => Some(Box::new(PassthroughReuseState::new(layer, in_shape))),
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
