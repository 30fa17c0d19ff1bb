//! The mutable, per-stream half of a reuse run.
//!
//! A [`ReuseSession`] owns everything one input stream mutates — buffered
//! quantized indices and outputs, quantizer calibration, metrics,
//! telemetry windows, drift-watchdog counters and the recycling buffer pool
//! — while reading the immutable network, plan and packed weights from a
//! shared [`CompiledModel`]. Sessions are created, reset and dropped
//! independently: interleaving many sessions over one model is
//! bit-identical to running each stream alone.
//!
//! What a layer step did is written once: [`ReuseSession::record_step`] is
//! the only writer of the metrics sums, the telemetry windows and the trace
//! log, all three fed from one [`StepRecord`].

use std::sync::Arc;

use reuse_nn::lstm::LstmScratch;
use reuse_nn::Layer;
use reuse_quant::{InputRange, LinearQuantizer, QuantCode, QuantError, RangeProfiler};
use reuse_tensor::Tensor;

use crate::drift::max_abs_diff;
use crate::layer::{build_state, span_elapsed_ns, span_start, ExecStats, ReuseLayer, StepCtx};
use crate::metrics::{relative_difference, EngineMetrics, LayerMetrics};
use crate::model::CompiledModel;
use crate::policy::{AdaptiveController, LayerPolicyState};
use crate::signature::CachedBaseline;
use crate::telemetry::{
    LayerTelemetrySnapshot, PoolStats, SignatureStats, TelemetrySnapshot, WatchdogStats, Window,
    TELEMETRY_WINDOW,
};
use crate::trace::{materialise, ExecutionTrace, StepRecord, TraceKind};
use crate::{ReuseConfig, ReuseError};

/// A recycling arena of `f32` buffers for a session's per-frame
/// intermediates.
///
/// Every layer of a frame — stepped, re-baselined or run at full precision
/// — writes into a buffer taken here and the buffer it read goes back, so
/// the pool only ever holds buffers it issued: after the first frame it has
/// one per distinct intermediate in flight and later frames allocate
/// nothing. Once `steady` is armed, a pool miss (which would allocate) trips
/// a debug assertion — the zero-allocation contract of
/// [`ReuseSession::execute_into`].
#[derive(Debug, Default)]
struct BufferPool {
    free: Vec<Vec<f32>>,
    steady: bool,
    /// Hit/miss counters, exported through [`TelemetrySnapshot`].
    stats: PoolStats,
}

impl BufferPool {
    /// Takes a cleared buffer with at least `cap` capacity (best fit), or
    /// allocates one on a miss. Only buffers with `capacity >= cap` are
    /// candidates — a smaller recycled buffer must never be handed out, or
    /// the caller's `extend_from_slice` would silently reallocate and defeat
    /// the zero-alloc invariant while the pool reported a hit.
    fn take(&mut self, cap: usize) -> Vec<f32> {
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in self.free.iter().enumerate() {
            let c = b.capacity();
            if c >= cap && best.is_none_or(|(_, bc)| c < bc) {
                best = Some((i, c));
            }
        }
        let buf = match best {
            Some((i, _)) => {
                self.stats.hits += 1;
                let mut b = self.free.swap_remove(i);
                b.clear();
                b
            }
            None => {
                self.stats.misses += 1;
                debug_assert!(
                    !self.steady,
                    "steady-state buffer-pool miss: a frame allocated (needed capacity {cap})"
                );
                Vec::with_capacity(cap)
            }
        };
        debug_assert!(
            buf.capacity() >= cap,
            "pool handed out an undersized buffer"
        );
        buf
    }

    /// Returns a buffer taken from the pool for reuse by later frames.
    fn give(&mut self, buf: Vec<f32>) {
        self.free.push(buf);
    }
}

/// Per-stream runtime state for one reuse slot: calibration, quantizers,
/// drift counters and the layer's buffered state behind the
/// [`ReuseLayer`] trait.
#[derive(Debug)]
struct SlotRuntime {
    /// Set when the profiled range was degenerate (or drift escalated) and
    /// reuse was disabled for this stream.
    auto_disabled: bool,
    profiler_x: RangeProfiler,
    profiler_h: RangeProfiler,
    quantizer_x: Option<LinearQuantizer>,
    quantizer_h: Option<LinearQuantizer>,
    /// Calibrated (margin-padded) input range, kept only for adaptive
    /// layers so the controller can rebuild the quantizer at a new step.
    base_range_x: Option<InputRange>,
    /// Online policy controller — present only when the slot's resolved
    /// [`LayerPolicy`](crate::LayerPolicy) is adaptive.
    controller: Option<AdaptiveController>,
    /// Previous raw input (for the Fig. 4 relative-difference series);
    /// empty when there is none.
    prev_raw_input: Vec<f32>,
    /// Times the drift watchdog re-baselined this layer's buffered outputs.
    rebaselines: u64,
    /// Cross-stream signature lookups attempted for this layer, those that
    /// found a cached entry, and the hits the false-positive guard abandoned.
    signature_lookups: u64,
    signature_hits: u64,
    signature_bailouts: u64,
    /// Re-baselines where this layer's own buffered outputs had drifted
    /// beyond the bound (feeds the auto-disable escalation).
    drift_strikes: u64,
    /// The layer's buffered reuse state, dispatched through the trait.
    state: Box<dyn ReuseLayer>,
}

impl SlotRuntime {
    /// The slot's buffered state beside everything a step on it reads: the
    /// model's layer and packed weights and this stream's quantizers
    /// (`quantizer_x` is `None` only for passthrough slots, which recompute
    /// without quantizing).
    fn split<'a>(
        &'a mut self,
        model: &'a CompiledModel,
        slot_pos: usize,
    ) -> (StepCtx<'a>, &'a mut dyn ReuseLayer) {
        let slot = &model.slots()[slot_pos];
        let ctx = StepCtx {
            layer: &model.network().layers()[slot.layer_index].1,
            weights: &slot.weights,
            quantizer_x: self.quantizer_x.as_ref(),
            quantizer_h: self.quantizer_h.as_ref(),
        };
        (ctx, self.state.as_mut())
    }
}

/// One stream's mutable reuse state over a shared [`CompiledModel`].
///
/// Lifecycle:
///
/// 1. The first `calibration_executions` executions (sequences, for
///    recurrent networks) run in full precision while input ranges are
///    profiled per layer — the paper's offline profiling pass.
/// 2. The next execution builds the linear quantizers and runs from scratch
///    on quantized inputs, initializing the buffered state (the paper's
///    "first execution", Fig. 7).
/// 3. Every further execution quantizes inputs, skips unchanged ones and
///    corrects the buffered outputs (Eq. 10).
///
/// Calibration and quantizers are per-session: each stream profiles its own
/// input ranges, so a session behaves bit-identically to the only session
/// of a model compiled from the same network and config.
#[derive(Debug)]
pub struct ReuseSession {
    model: Arc<CompiledModel>,
    /// Runtime per plan slot, ordered like `model.slots()`.
    runtimes: Vec<SlotRuntime>,
    metrics: EngineMetrics,
    /// Every step record since the last [`Self::take_traces`], in the order
    /// written; filled only when the config records traces.
    log: Vec<StepRecord>,
    calibrated: bool,
    executions_seen: u64,
    calibration_units_seen: u64,
    /// Recycled per-frame intermediate buffers (zero-alloc steady state).
    pool: BufferPool,
    /// Per-slot windows of recent incremental step records, preallocated
    /// when telemetry is enabled in the config.
    telemetry: Option<Vec<Window>>,
    /// Drift-watchdog counters (maintained even without telemetry).
    watchdog: WatchdogStats,
    /// Reuse-phase executions seen (timesteps for recurrent networks):
    /// drives the watchdog cadence and is what a snapshot reports as frames.
    reuse_frames: u64,
    /// Cross-stream signature-cache counters (maintained even without
    /// telemetry, like the watchdog's).
    signature: SignatureStats,
    /// Scratch code buffers for the signature false-positive pre-check
    /// (cold path, but reused so repeated cold starts don't churn).
    sig_scratch_cur: Vec<QuantCode>,
    sig_scratch_cached: Vec<QuantCode>,
    /// Per-timestep counters and spans of the recurrent slot a sequence walk
    /// is at, and the working memory of its reuse-disabled recurrent layers:
    /// kept so steady sequences allocate nothing.
    seq_steps: Vec<(ExecStats, u64)>,
    lstm_scratch: LstmScratch,
}

impl ReuseSession {
    /// Shorthand for a single stream: compiles `network` (cloned) under
    /// `config` and opens the model's one session. Callers that share a
    /// model across streams build the [`CompiledModel`] themselves and call
    /// [`CompiledModel::new_session`].
    ///
    /// # Panics
    ///
    /// Panics where [`CompiledModel::new`] does.
    pub fn from_network(network: &reuse_nn::Network, config: &ReuseConfig) -> Self {
        Arc::new(CompiledModel::new(network, config)).new_session()
    }

    pub(crate) fn new(model: Arc<CompiledModel>) -> Self {
        let config = model.config();
        let mut metrics = EngineMetrics::default();
        let runtimes: Vec<SlotRuntime> = model
            .slots()
            .iter()
            .map(|slot| {
                metrics.layers.push(LayerMetrics::new(&slot.name));
                let (_, layer) = &model.network().layers()[slot.layer_index];
                let in_shape = &model.network().layer_input_shapes()[slot.layer_index];
                SlotRuntime {
                    auto_disabled: false,
                    profiler_x: RangeProfiler::new(),
                    profiler_h: RangeProfiler::new(),
                    quantizer_x: None,
                    quantizer_h: None,
                    base_range_x: None,
                    controller: slot
                        .policy
                        .adaptive
                        .then(|| AdaptiveController::new(&slot.policy)),
                    prev_raw_input: Vec::new(),
                    rebaselines: 0,
                    signature_lookups: 0,
                    signature_hits: 0,
                    signature_bailouts: 0,
                    drift_strikes: 0,
                    state: build_state(layer, in_shape).expect("slot layers have reuse states"),
                }
            })
            .collect();
        let telemetry = config
            .records_telemetry()
            .then(|| runtimes.iter().map(|_| Window::new()).collect());
        let log_capacity = if config.records_trace() {
            runtimes.len() * TELEMETRY_WINDOW
        } else {
            0
        };
        ReuseSession {
            model,
            runtimes,
            metrics,
            log: Vec::with_capacity(log_capacity),
            calibrated: false,
            executions_seen: 0,
            calibration_units_seen: 0,
            pool: BufferPool::default(),
            telemetry,
            watchdog: WatchdogStats::default(),
            reuse_frames: 0,
            signature: SignatureStats::default(),
            sig_scratch_cur: Vec::new(),
            sig_scratch_cached: Vec::new(),
            seq_steps: Vec::new(),
            lstm_scratch: LstmScratch::default(),
        }
    }

    /// The shared compiled model this session runs against.
    pub fn model(&self) -> &Arc<CompiledModel> {
        &self.model
    }

    /// The wrapped network.
    pub fn network(&self) -> &reuse_nn::Network {
        self.model.network()
    }

    /// Accumulated reuse metrics for this stream.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Total executions so far (calibration included; timesteps for
    /// recurrent networks).
    pub fn executions(&self) -> u64 {
        self.executions_seen
    }

    /// Whether quantizers have been built (calibration finished).
    pub fn is_calibrated(&self) -> bool {
        self.calibrated
    }

    /// Layers whose profiled range was degenerate (or whose drift
    /// escalated), forcing full-precision execution for this stream.
    /// Borrowed names — no allocation, safe to call per frame.
    pub fn auto_disabled_layers(&self) -> impl Iterator<Item = &str> + '_ {
        self.model
            .slots()
            .iter()
            .zip(self.runtimes.iter())
            .filter(|(_, rt)| rt.auto_disabled)
            .map(|(s, _)| s.name.as_str())
    }

    /// Takes the recorded execution traces (empties the step log they are
    /// materialised from). Allocates — a reporting path.
    pub fn take_traces(&mut self) -> Vec<ExecutionTrace> {
        materialise(std::mem::take(&mut self.log), &self.model)
    }

    /// Drift-watchdog counters (zeroed when the watchdog is not armed).
    /// Returned by value — `WatchdogStats` is `Copy`, no allocation.
    pub fn watchdog_stats(&self) -> WatchdogStats {
        self.watchdog
    }

    /// Buffer-pool hit/miss counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats
    }

    /// Cross-stream signature-cache counters for this session (all zero
    /// when the model carries no cache). Returned by value —
    /// `SignatureStats` is `Copy`, no allocation.
    pub fn signature_stats(&self) -> SignatureStats {
        self.signature
    }

    /// Builds an owned, serializable snapshot of the current telemetry.
    /// Returns `None` unless telemetry was enabled in the config. This
    /// allocates — call it from reporting paths, not per frame.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        let windows = self.telemetry.as_ref()?;
        // Lifetime counters are the metrics sums (written with the windows
        // and reset with them); the windows add the recent means.
        let layers = self
            .metrics
            .layers
            .iter()
            .zip(windows)
            .zip(self.runtimes.iter())
            .map(|((m, window), rt)| LayerTelemetrySnapshot {
                name: m.name.clone(),
                reuse_executions: m.reuse_executions,
                hit_rate: m.input_similarity(),
                hit_rate_window: window.mean(|r| f64::from(r.hit_rate())),
                corrections_total: m.inputs_total - m.inputs_unchanged,
                macs_skipped_total: m.macs_total.saturating_sub(m.macs_performed),
                span_ns_window: window.mean(|r| r.span_ns as f64),
                rebaselines: rt.rebaselines,
                auto_disabled: rt.auto_disabled,
                signature_lookups: rt.signature_lookups,
                signature_hits: rt.signature_hits,
                signature_bailouts: rt.signature_bailouts,
            })
            .collect();
        Some(TelemetrySnapshot {
            network: self.model.network().name().to_string(),
            frames: self.reuse_frames,
            window: TELEMETRY_WINDOW,
            pool: self.pool.stats,
            watchdog: self.watchdog,
            drift_check_every: self.model.config().drift_check_every(),
            drift_bound: self.model.config().drift_bound(),
            signature: self.signature,
            policy: self.model.policy_name().to_string(),
            policy_layers: self.policy_states(),
            layers,
        })
    }

    /// Point-in-time per-layer policy state: the configured grid plus
    /// whatever operating point the adaptive controllers have moved to
    /// (static layers report their fixed resolution with zeroed counters).
    /// Allocates — a reporting path, mirrored into [`TelemetrySnapshot`]
    /// and the serving tier's snapshot.
    pub fn policy_states(&self) -> Vec<LayerPolicyState> {
        self.model
            .slots()
            .iter()
            .zip(self.runtimes.iter())
            .map(|(slot, rt)| {
                let (step_scale, reuse_threshold) = rt
                    .controller
                    .as_ref()
                    .map_or((slot.policy.step_scale, slot.policy.reuse_threshold), |c| {
                        (c.step_scale(), c.reuse_threshold())
                    });
                let ctrl = rt.controller.as_ref();
                LayerPolicyState {
                    name: slot.name.clone(),
                    adaptive: slot.policy.adaptive,
                    clusters: slot.policy.clusters,
                    step: rt.quantizer_x.map_or(0.0, |q| q.step()),
                    step_scale,
                    reuse_threshold,
                    observations: ctrl.map_or(0, |c| c.observations()),
                    grows: ctrl.map_or(0, |c| c.grows()),
                    shrinks: ctrl.map_or(0, |c| c.shrinks()),
                    refreshes: ctrl.map_or(0, |c| c.refreshes()),
                }
            })
            .collect()
    }

    /// The quantizer used for a layer's (feed-forward) inputs, if built.
    pub fn quantizer_for(&self, name: &str) -> Option<&LinearQuantizer> {
        let pos = self.model.slots().iter().position(|s| s.name == name)?;
        self.runtimes[pos].quantizer_x.as_ref()
    }

    /// The quantizer used for a recurrent layer's hidden-state inputs, if
    /// built.
    pub fn hidden_quantizer_for(&self, name: &str) -> Option<&LinearQuantizer> {
        let pos = self.model.slots().iter().position(|s| s.name == name)?;
        self.runtimes[pos].quantizer_h.as_ref()
    }

    /// The Fig. 4 relative-difference series recorded for a layer (requires
    /// [`crate::ReuseConfig::record_relative_difference`]).
    pub fn layer_relative_differences(&self, name: &str) -> Option<&[f32]> {
        Some(&self.metrics.layer(name)?.relative_differences)
    }

    /// Extra I/O-buffer/main-memory bytes this stream's reuse state needs:
    /// indices plus buffered outputs for every enabled layer (Table III
    /// accounting). Per session — the packed weights shared across sessions
    /// are accounted by [`CompiledModel::packed_weight_bytes`].
    pub fn reuse_storage_bytes(&self) -> u64 {
        self.model
            .slots()
            .iter()
            .zip(self.runtimes.iter())
            .filter(|(slot, rt)| slot.policy.enabled && !rt.auto_disabled)
            .map(|(slot, rt)| {
                let (_, layer) = &self.model.network().layers()[slot.layer_index];
                rt.state.storage_bytes(layer)
            })
            .sum()
    }

    /// Bytes of centroid tables stored in the control unit (paper reports
    /// 1.25 KB for its configuration).
    pub fn centroid_table_bytes(&self) -> u64 {
        self.model
            .slots()
            .iter()
            .zip(self.runtimes.iter())
            .filter(|(slot, rt)| slot.policy.enabled && !rt.auto_disabled)
            .map(|(_, rt)| {
                rt.quantizer_x
                    .map_or(0, |q| q.centroid_table_bytes() as u64)
                    + rt.quantizer_h
                        .map_or(0, |q| q.centroid_table_bytes() as u64)
            })
            .sum()
    }

    /// Drops buffered layer state only — metrics, telemetry and calibration
    /// are untouched. This is the between-sequence power-gate reset
    /// (statistics keep accumulating across a recurrent workload's
    /// sequences, paper Fig. 5).
    fn reset_buffers(&mut self) {
        let model = Arc::clone(&self.model);
        for (slot, rt) in model.slots().iter().zip(self.runtimes.iter_mut()) {
            let (_, layer) = &model.network().layers()[slot.layer_index];
            rt.state.reset(layer);
            rt.prev_raw_input.clear();
        }
    }

    /// Drops all buffered layer state; the next execution recomputes from
    /// scratch. Models the accelerator being power-gated between sequences.
    ///
    /// Accumulated statistics are cleared along with the buffers:
    /// [`EngineMetrics`], the per-layer relative-difference series, pending
    /// traces, telemetry windows and watchdog counters all restart from zero —
    /// a reset session must not report the previous sequence's numbers. If
    /// calibration had not finished, it is re-armed from the beginning
    /// (profiled ranges are discarded). Built quantizers and auto-disable
    /// decisions are kept.
    pub fn reset_state(&mut self) {
        self.reset_buffers();
        self.metrics.reset();
        self.log.clear();
        if let Some(windows) = self.telemetry.as_mut() {
            windows.iter_mut().for_each(Window::clear);
        }
        self.watchdog = WatchdogStats::default();
        self.reuse_frames = 0;
        self.signature = SignatureStats::default();
        let model = Arc::clone(&self.model);
        for (slot, rt) in model.slots().iter().zip(self.runtimes.iter_mut()) {
            rt.rebaselines = 0;
            rt.drift_strikes = 0;
            rt.signature_lookups = 0;
            rt.signature_hits = 0;
            rt.signature_bailouts = 0;
            if let Some(ctrl) = rt.controller.as_mut() {
                // The controller restarts at its initial operating point,
                // and the grid must follow — a kept scaled quantizer would
                // disagree with the reset controller.
                *ctrl = AdaptiveController::new(&slot.policy);
                if !rt.auto_disabled {
                    if let Some(range) = rt.base_range_x {
                        if let Ok(q) = Self::quantizer_at_scale(
                            range,
                            slot.policy.clusters,
                            slot.policy.step_scale.max(1.0),
                        ) {
                            rt.quantizer_x = Some(q);
                        }
                    }
                }
            }
        }
        if !self.calibrated {
            // A partial calibration must not mix pre- and post-reset frames:
            // discard the profiled ranges and start over.
            self.calibration_units_seen = 0;
            for rt in &mut self.runtimes {
                rt.profiler_x = RangeProfiler::new();
                rt.profiler_h = RangeProfiler::new();
            }
        }
    }

    /// Full-precision from-scratch output for the same frame — the accuracy
    /// oracle used by the workloads' accuracy proxy.
    ///
    /// # Errors
    ///
    /// Propagates network errors.
    pub fn reference_forward(&self, frame: &[f32]) -> Result<Tensor, ReuseError> {
        Ok(self.model.network().forward_flat(frame)?)
    }

    fn slot_enabled(&self, slot_pos: usize) -> bool {
        self.model.slots()[slot_pos].policy.enabled && !self.runtimes[slot_pos].auto_disabled
    }

    /// Executes the network on one frame (feed-forward networks only).
    ///
    /// # Errors
    ///
    /// Returns [`ReuseError::WrongApi`] for recurrent networks; otherwise
    /// propagates shape/quantizer errors.
    pub fn execute(&mut self, frame: &[f32]) -> Result<Tensor, ReuseError> {
        let mut out = Vec::new();
        self.execute_into(frame, &mut out)?;
        Ok(Tensor::from_vec(
            self.model.network().output_shape().clone(),
            out,
        )?)
    }

    /// The one calibrate-or-reuse decision every entry point takes: `true`
    /// while profiling units remain (a unit counts once it ran to the end),
    /// otherwise `false`, having built the quantizers if the last profiling
    /// unit has just gone by.
    fn calibrating(&mut self) -> bool {
        if self.calibrated {
            return false;
        }
        if self.calibration_units_seen < self.model.config().calibration() as u64 {
            return true;
        }
        self.build_quantizers();
        false
    }

    /// Allocation-free variant of [`Self::execute`]: clears `out` and writes
    /// the flat network output into it, reusing its capacity across calls.
    ///
    /// Every layer's intermediate — whether the layer steps through its
    /// reuse state or runs at full precision because it is weightless,
    /// reuse-disabled or auto-disabled — is written into a buffer from the
    /// session's recycling pool, and the per-layer scratch (changed lists,
    /// quantized codes, buffered outputs) is reused in place. So from the
    /// second reuse-phase frame onward a call performs **zero heap
    /// allocations** in the session, on any feed-forward pipeline. What
    /// still allocates, by design: calibration frames (they prime the
    /// pool), the state-initializing first execution, the growth — amortised
    /// — of the trace log and of the relative-difference series when those
    /// are recorded, a watchdog check frame's reference forward, and —
    /// inside the kernel, not the session — the two im2col blocks of a conv
    /// layer that runs at full precision.
    ///
    /// # Errors
    ///
    /// Returns [`ReuseError::WrongApi`] for recurrent networks; otherwise
    /// propagates shape/quantizer errors.
    pub fn execute_into(&mut self, frame: &[f32], out: &mut Vec<f32>) -> Result<(), ReuseError> {
        if self.model.network().is_recurrent() {
            return Err(ReuseError::WrongApi {
                context: "recurrent network: use execute_sequence".into(),
            });
        }
        let calibrating = self.calibrating();
        self.walk_frame(frame, out, calibrating)
    }

    /// Executes a whole temporal sequence. For feed-forward networks the
    /// frames are executed back-to-back (state carries across frames). For
    /// recurrent networks the sequence is the paper's execution unit: each
    /// layer runs over all timesteps before the next layer, with reuse
    /// between consecutive timesteps, and all state resets at the start.
    ///
    /// # Errors
    ///
    /// Returns [`ReuseError::Nn`] on shape mismatches or an empty sequence.
    pub fn execute_sequence(&mut self, frames: &[Vec<f32>]) -> Result<Vec<Tensor>, ReuseError> {
        if frames.is_empty() {
            return Err(ReuseError::Nn(reuse_nn::NnError::EmptySequence));
        }
        if !self.model.network().is_recurrent() {
            return frames.iter().map(|f| self.execute(f)).collect();
        }
        let mut out = Vec::new();
        self.execute_sequence_into(frames, &mut out)?;
        out.chunks_exact(self.model.network().output_shape().volume())
            .map(|o| Tensor::from_slice_1d(o).map_err(ReuseError::from))
            .collect()
    }

    /// Allocation-free variant of [`Self::execute_sequence`] for recurrent
    /// networks: clears `out` and writes every timestep's flat network
    /// output into it back to back, reusing its capacity across calls.
    ///
    /// The sequence between layers is one flat `[T, width]` buffer from the
    /// session's recycling pool, recurrent layers run over it whole —
    /// stepping through their reuse state, or at full precision through
    /// [`Layer::forward_sequence_into`] when reuse-disabled — and the
    /// per-timestep records live in session-owned scratch. Once the buffers
    /// have grown to the longest sequence seen a reuse-phase call performs
    /// **zero heap allocations**, with [`Self::execute_into`]'s exceptions
    /// (state resets per sequence, so every slot initializes from scratch at
    /// each first timestep — into buffers it kept).
    ///
    /// # Errors
    ///
    /// Returns [`ReuseError::WrongApi`] for feed-forward networks and
    /// [`ReuseError::Nn`] on an empty sequence or — before any state is
    /// touched — a frame of the wrong length.
    pub fn execute_sequence_into(
        &mut self,
        frames: &[Vec<f32>],
        out: &mut Vec<f32>,
    ) -> Result<(), ReuseError> {
        if !self.model.network().is_recurrent() {
            return Err(ReuseError::WrongApi {
                context: "feed-forward network: use execute_into".into(),
            });
        }
        if frames.is_empty() {
            return Err(ReuseError::Nn(reuse_nn::NnError::EmptySequence));
        }
        let calibrating = self.calibrating();
        self.walk_sequence(frames, out, calibrating)
    }

    fn check_frame_len(&self, frame: &[f32]) -> Result<(), ReuseError> {
        let expected = self.model.network().input_shape().volume();
        if frame.len() != expected {
            return Err(ReuseError::Nn(reuse_nn::NnError::InputShape {
                expected,
                actual: frame.len(),
            }));
        }
        Ok(())
    }

    /// Profiles the input range of a slot about to run at full precision on
    /// `input`. An *enabled* slot only gets here while calibrating — in the
    /// reuse phase it steps — and passthrough slots never quantize, so they
    /// have no range to profile.
    fn profile_unstepped(&mut self, layer_index: usize, input: &[f32]) {
        let slot_pos = self.model.slot_of_layer()[layer_index];
        if slot_pos != usize::MAX
            && self.slot_enabled(slot_pos)
            && self.model.slots()[slot_pos].kind != reuse_nn::LayerKind::Passthrough
        {
            self.runtimes[slot_pos].profiler_x.observe_slice(input);
        }
    }

    /// Builds a layer quantizer at `scale` times the calibrated base step
    /// (`range / clusters`). Scale 1.0 goes through [`LinearQuantizer::new`]
    /// so static policies run the paper's grid bit for bit; other scales
    /// derive the step explicitly.
    fn quantizer_at_scale(
        range: InputRange,
        clusters: usize,
        scale: f32,
    ) -> Result<LinearQuantizer, QuantError> {
        if scale == 1.0 {
            LinearQuantizer::new(range, clusters)
        } else {
            LinearQuantizer::with_step(range, range.width() / clusters as f32 * scale)
        }
    }

    fn build_quantizers(&mut self) {
        let model = Arc::clone(&self.model);
        let margin = model.config().margin();
        for (slot, rt) in model.slots().iter().zip(self.runtimes.iter_mut()) {
            if !slot.policy.enabled {
                continue;
            }
            // Passthrough slots recompute at full precision: no quantizer,
            // and nothing that could auto-disable them.
            if slot.kind == reuse_nn::LayerKind::Passthrough {
                continue;
            }
            let scale = rt
                .controller
                .as_ref()
                .map_or(slot.policy.step_scale, AdaptiveController::step_scale);
            match rt.profiler_x.range(margin) {
                Ok(range) => match Self::quantizer_at_scale(range, slot.policy.clusters, scale) {
                    Ok(q) => {
                        rt.quantizer_x = Some(q);
                        if slot.policy.adaptive {
                            rt.base_range_x = Some(range);
                        }
                    }
                    Err(_) => rt.auto_disabled = true,
                },
                Err(_) => rt.auto_disabled = true,
            }
            if slot.kind == reuse_nn::LayerKind::Recurrent && !rt.auto_disabled {
                match rt.profiler_h.range(margin) {
                    Ok(range) => match LinearQuantizer::new(range, slot.policy.clusters) {
                        Ok(q) => rt.quantizer_h = Some(q),
                        Err(_) => rt.auto_disabled = true,
                    },
                    Err(_) => rt.auto_disabled = true,
                }
            }
        }
        self.calibrated = true;
    }

    /// The one writer of what a layer step did, called once per layer per
    /// execution by every walk: `stepped` carries the counters and span of a
    /// slot that stepped, `None` says the layer ran at full precision (a
    /// layer without a slot leaves no record). One [`StepRecord`] feeds the
    /// three things that are not folds of each other: the metrics sums and,
    /// with telemetry on, the slot's window — incremental steps only — and,
    /// with tracing on, the log. None of them allocates, but for the log's
    /// amortised growth.
    fn record_step(
        &mut self,
        execution: u64,
        layer_index: usize,
        stepped: Option<(ExecStats, u64)>,
    ) {
        let slot_pos = self.model.slot_of_layer()[layer_index];
        if slot_pos == usize::MAX {
            return;
        }
        let record = match stepped {
            Some((stats, span_ns)) => StepRecord::stepped(execution, layer_index, stats, span_ns),
            None => {
                let slot = &self.model.slots()[slot_pos];
                StepRecord::full_precision(execution, layer_index, slot.n_inputs, slot.macs)
            }
        };
        if record.mode == TraceKind::Incremental {
            self.metrics.layers[slot_pos].record(
                record.n_inputs,
                record.n_inputs - record.n_changed,
                record.macs_total,
                record.macs_performed,
            );
            if let Some(windows) = self.telemetry.as_mut() {
                windows[slot_pos].push(record);
            }
        }
        if self.model.config().records_trace() {
            self.log.push(record);
        }
    }

    /// The Fig. 4 series of a stepped slot: the relative difference of this
    /// execution's raw input to the previous one's, when the config records
    /// it. The previous input is kept in place, so only the series grows.
    fn note_relative_difference(&mut self, slot_pos: usize, raw_input: &[f32]) {
        if !self.model.config().records_relative_difference() {
            return;
        }
        let prev = &mut self.runtimes[slot_pos].prev_raw_input;
        if prev.len() == raw_input.len() {
            self.metrics.layers[slot_pos]
                .relative_differences
                .push(relative_difference(prev, raw_input));
        }
        prev.clear();
        prev.extend_from_slice(raw_input);
    }

    /// The one walk of a feed-forward network over one frame. Activations
    /// between layers are flat pooled `Vec<f32>` buffers (every layer
    /// consumes row-major data of the shape the network inferred, so a
    /// reshape is nothing); each layer writes into a buffer taken from the
    /// pool and the buffer it read goes back, so every buffer is returned
    /// before the frame ends. What happens *at a layer* is the only thing
    /// that varies: an enabled slot in the reuse phase steps
    /// ([`Self::step_slot`]); every other layer — passive, reuse-disabled,
    /// auto-disabled, or any slot while `calibrating` — runs at full
    /// precision through [`reuse_nn::Network::apply_layer_into`].
    fn walk_frame(
        &mut self,
        frame: &[f32],
        out: &mut Vec<f32>,
        calibrating: bool,
    ) -> Result<(), ReuseError> {
        self.check_frame_len(frame)?;
        let model = Arc::clone(&self.model);
        let mut cur = self.pool.take(frame.len());
        cur.extend_from_slice(frame);
        let execution = self.executions_seen;
        for (i, &slot_pos) in model.slot_of_layer().iter().enumerate() {
            let mut next = self.pool.take(model.layer_out_volumes()[i]);
            let stepped = if !calibrating && slot_pos != usize::MAX && self.slot_enabled(slot_pos) {
                Some(self.step_slot(&model, slot_pos, &cur, &mut next)?)
            } else {
                self.profile_unstepped(i, &cur);
                model.network().apply_layer_into(i, &cur, &mut next)?;
                None
            };
            self.record_step(execution, i, stepped);
            self.pool.give(std::mem::replace(&mut cur, next));
        }
        self.executions_seen += 1;
        self.metrics.executions += 1;
        out.clear();
        out.extend_from_slice(&cur);
        self.pool.give(cur);
        if calibrating {
            self.calibration_units_seen += 1;
            return Ok(());
        }
        // The pool now holds a buffer for every intermediate of a frame, so
        // from here on every take must hit; a miss would mean a steady-state
        // frame allocated.
        self.pool.steady = true;
        self.reuse_frames += 1;
        let every = model.config().drift_check_every();
        if every > 0 && self.reuse_frames.is_multiple_of(every) {
            // Watchdog frames allocate (the reference forward is a cold
            // path by design); they are outside the zero-alloc contract,
            // which covers the frames between checks.
            self.watchdog_check(frame, out)?;
        }
        Ok(())
    }

    /// One enabled slot's reuse-phase step on one frame, `input` to `next`
    /// — the session's resumable per-layer unit: cross-stream signature
    /// lookup (cold start only), the [`ReuseLayer`] step (uniform dispatch,
    /// no per-kind `match`), the adaptive refresh and signature publication.
    /// Returns the step's counters and its span (0 unless telemetry times
    /// slots) for the walk to record.
    fn step_slot(
        &mut self,
        model: &CompiledModel,
        slot_pos: usize,
        input: &[f32],
        next: &mut Vec<f32>,
    ) -> Result<(ExecStats, u64), ReuseError> {
        // Cross-stream adoption runs only when this stream has no baseline
        // yet (cold start), so steady-state frames pay a single branch here
        // and never touch the shared cache.
        let pending_sig =
            if model.signatures().is_some() && !self.runtimes[slot_pos].state.is_initialized() {
                self.signature_lookup(slot_pos, input)
            } else {
                None
            };
        let span = span_start(self.telemetry.is_some());
        let rt = &mut self.runtimes[slot_pos];
        let (ctx, state) = rt.split(model, slot_pos);
        let mut stats = state.step(&ctx, input, next)?;
        // Adaptive layers only: when the changed-code fraction exceeds the
        // controller's refresh threshold, correcting costs more than
        // recomputing — replace the incremental result with an exact
        // forward and re-adopt a full-precision baseline. Static policies
        // never take this branch (no controller), keeping the legacy path
        // bit-identical.
        let refresh = match rt.controller.as_mut() {
            Some(ctrl) if !stats.from_scratch && stats.n_inputs > 0 => {
                let changed_frac = stats.n_changed as f32 / stats.n_inputs as f32;
                ctrl.observe_execution(1.0 - changed_frac);
                let refresh = changed_frac > ctrl.reuse_threshold();
                if refresh {
                    ctrl.note_refresh();
                }
                refresh
            }
            _ => false,
        };
        if refresh {
            self.refresh_slot(model, slot_pos, input, next)?;
            // Honest accounting: similarity stays what was observed, but
            // the frame paid full cost.
            stats.macs_performed = stats.macs_total;
        }
        let span_ns = span_elapsed_ns(span);
        if let Some(sig) = pending_sig.filter(|_| stats.from_scratch) {
            // The lookup missed (or bailed) and the slot just initialized
            // from scratch: publish the fresh baseline for other streams
            // under the signature computed from the same input.
            self.signature_insert(slot_pos, sig, input);
        }
        self.note_relative_difference(slot_pos, input);
        Ok((stats, span_ns))
    }

    /// Recomputes a frame-wise slot exactly on its raw input: the linear
    /// forward into `next` — the same code path [`Self::reference_forward`]
    /// takes — adopted as the slot's baseline (codes become the
    /// quantization of `raw`), then the activation in place. "Recompute
    /// this slot" exists once, for the adaptive refresh and the watchdog's
    /// re-baseline alike, and costs what the forward costs: nothing is
    /// allocated here.
    fn refresh_slot(
        &mut self,
        model: &CompiledModel,
        slot_pos: usize,
        raw: &[f32],
        next: &mut Vec<f32>,
    ) -> Result<(), ReuseError> {
        let layer_index = model.slots()[slot_pos].layer_index;
        let in_shape = &model.network().layer_input_shapes()[layer_index];
        let (ctx, state) = self.runtimes[slot_pos].split(model, slot_pos);
        ctx.layer.forward_linear_into(in_shape, raw, next)?;
        state.adopt_baseline(&ctx, raw, next);
        ctx.layer
            .activation()
            .expect("refreshed slots are weighted frame-wise layers")
            .apply_in_place(next);
        Ok(())
    }

    /// Attempts cross-stream baseline adoption for an uninitialized slot.
    ///
    /// Hashes the raw layer input with the model's RPQ planes and consults
    /// the shared cache. On a hit that survives the false-positive guard,
    /// the cached baseline is adopted — codes become *this* session's
    /// quantization of the cached raw input, buffered outputs become the
    /// cached linear values — and the regular step that follows corrects
    /// the few differing codes through the ordinary `z' = z + (c'-c)·w`
    /// pass. Returns the signature when no adoption happened (miss or
    /// bailout) so the caller can publish the from-scratch baseline under
    /// it, and `None` after a successful adoption (the cache already
    /// covers this signature).
    fn signature_lookup(&mut self, slot_pos: usize, input: &[f32]) -> Option<u64> {
        let model = Arc::clone(&self.model);
        let sigs = model.signatures()?;
        let planes = sigs.planes(slot_pos)?;
        let sig = planes.signature(input);
        self.signature.lookups += 1;
        self.runtimes[slot_pos].signature_lookups += 1;
        let Some(entry) = sigs.cache().get(slot_pos as u32, sig) else {
            return Some(sig);
        };
        self.signature.hits += 1;
        self.runtimes[slot_pos].signature_hits += 1;
        // False-positive guard: quantize both the live and the cached
        // input under this session's grid and count disagreeing codes. A
        // hash collision between genuinely different inputs shows up as a
        // large changed fraction, where adopting would cost more in
        // corrections (and accuracy) than running from scratch.
        let qx = self.runtimes[slot_pos]
            .quantizer_x
            .expect("enabled slot has quantizer");
        let bail = entry.input.len() != input.len() || {
            qx.quantize_slice_into(input, &mut self.sig_scratch_cur);
            qx.quantize_slice_into(&entry.input, &mut self.sig_scratch_cached);
            let changed = self
                .sig_scratch_cur
                .iter()
                .zip(self.sig_scratch_cached.iter())
                .filter(|(a, b)| a != b)
                .count();
            changed as f32 > model.config().signature_bailout() * input.len() as f32
        };
        if bail {
            self.signature.bailouts += 1;
            self.runtimes[slot_pos].signature_bailouts += 1;
            return Some(sig);
        }
        let (ctx, state) = self.runtimes[slot_pos].split(&model, slot_pos);
        state.adopt_baseline(&ctx, &entry.input, &entry.linear);
        self.signature.adoptions += 1;
        None
    }

    /// Publishes a slot's freshly initialized baseline — the raw input it
    /// just ran from scratch on plus the buffered linear outputs — into
    /// the shared cache under `sig`.
    fn signature_insert(&mut self, slot_pos: usize, sig: u64, input: &[f32]) {
        let model = Arc::clone(&self.model);
        let Some(sigs) = model.signatures() else {
            return;
        };
        let mut linear = Vec::new();
        self.runtimes[slot_pos]
            .state
            .buffered_linear_into(&mut linear);
        if linear.is_empty() {
            return;
        }
        let entry = CachedBaseline {
            input: input.to_vec(),
            linear,
        };
        if sigs.cache().insert(slot_pos as u32, sig, entry) {
            self.signature.inserts += 1;
        }
    }

    /// One drift-watchdog check: compares this frame's incremental output
    /// against the full-precision reference and re-baselines every reuse
    /// layer when the deviation exceeds the configured bound. `out` is
    /// replaced with the exact reference output after a re-baseline.
    fn watchdog_check(&mut self, frame: &[f32], out: &mut Vec<f32>) -> Result<(), ReuseError> {
        let reference = self.reference_forward(frame)?;
        let drift = max_abs_diff(out, reference.as_slice());
        self.watchdog.checks += 1;
        self.watchdog.last_drift = drift;
        self.watchdog.max_drift = self.watchdog.max_drift.max(drift);
        let bound = self.model.config().drift_bound();
        let violated = drift > bound;
        // Adaptive controllers consume the same observation as their
        // accuracy proxy: each proposes a step scale, the quantizer is
        // rebuilt at it, and the scale commits only on success — the
        // controller never disagrees with the grid actually in use.
        let rescaled = self.apply_policy_feedback(drift, bound);
        if violated || rescaled {
            // A rescale re-baselines too: buffered codes quantized under
            // the old grid are meaningless under the new one.
            self.rebaseline_frame(frame, out)?;
        }
        if violated {
            self.watchdog.rebaselines += 1;
        }
        Ok(())
    }

    /// Feeds one watchdog observation to every adaptive controller and
    /// rebuilds the quantizers of those that moved. Returns whether any
    /// layer's grid changed (forcing a re-baseline). A no-op — and the
    /// watchdog path stays exactly the legacy one — when no layer is
    /// adaptive.
    fn apply_policy_feedback(&mut self, drift: f32, bound: f32) -> bool {
        let model = Arc::clone(&self.model);
        let mut rescaled = false;
        for (slot, rt) in model.slots().iter().zip(self.runtimes.iter_mut()) {
            if !slot.policy.enabled || rt.auto_disabled {
                continue;
            }
            let Some(ctrl) = rt.controller.as_mut() else {
                continue;
            };
            let Some(proposed) = ctrl.on_watchdog(drift, bound) else {
                continue;
            };
            let Some(range) = rt.base_range_x else {
                continue;
            };
            if let Ok(q) = Self::quantizer_at_scale(range, slot.policy.clusters, proposed) {
                rt.quantizer_x = Some(q);
                ctrl.commit_scale(proposed);
                rescaled = true;
            }
        }
        rescaled
    }

    /// Re-baselines every enabled reuse layer onto full-precision values for
    /// `frame` — the frame walk with [`Self::refresh_slot`] at every slot
    /// that buffers a baseline — so this frame's output, written to `out`,
    /// is bit-identical to [`Self::reference_forward`] and subsequent frames
    /// correct from an exact baseline. Layers whose own buffered outputs had
    /// drifted beyond the bound collect a strike; a layer reaching
    /// [`crate::ReuseConfig::drift_escalate_after`] strikes is auto-disabled
    /// (escalation into [`Self::auto_disabled_layers`]) and runs at full
    /// precision, through the same pool, from the next frame on.
    fn rebaseline_frame(&mut self, frame: &[f32], out: &mut Vec<f32>) -> Result<(), ReuseError> {
        let model = Arc::clone(&self.model);
        let bound = model.config().drift_bound();
        let escalate_after = model.config().escalate_after();
        let (mut drifted, mut exact) = (Vec::new(), Vec::new());
        let mut cur = self.pool.take(frame.len());
        cur.extend_from_slice(frame);
        for (i, &slot_pos) in model.slot_of_layer().iter().enumerate() {
            let mut next = self.pool.take(model.layer_out_volumes()[i]);
            // Passthrough slots buffer nothing: there is no baseline to
            // re-adopt (and no linear part to recompute) — like passive and
            // disabled layers they just run exactly.
            if slot_pos == usize::MAX
                || !self.slot_enabled(slot_pos)
                || model.slots()[slot_pos].kind == reuse_nn::LayerKind::Passthrough
            {
                model.network().apply_layer_into(i, &cur, &mut next)?;
            } else {
                // Separating genuine accumulated drift from plain
                // quantization error would need a second, quantized
                // recomputation per layer; the strike heuristic instead
                // compares the buffered values against the raw
                // recomputation (read back from the refreshed state) using
                // the engine-level bound — conservative, but consistent
                // with what the watchdog just observed at the network
                // output.
                self.runtimes[slot_pos]
                    .state
                    .buffered_linear_into(&mut drifted);
                self.refresh_slot(&model, slot_pos, &cur, &mut next)?;
                let rt = &mut self.runtimes[slot_pos];
                rt.state.buffered_linear_into(&mut exact);
                rt.rebaselines += 1;
                if drifted.len() == exact.len() && max_abs_diff(&drifted, &exact) > bound {
                    rt.drift_strikes += 1;
                    if escalate_after > 0 && rt.drift_strikes >= escalate_after {
                        rt.auto_disabled = true;
                    }
                }
            }
            self.pool.give(std::mem::replace(&mut cur, next));
        }
        out.clear();
        out.extend_from_slice(&cur);
        self.pool.give(cur);
        Ok(())
    }

    /// The one walk of a recurrent network over one sequence: each layer
    /// runs over all timesteps before the next layer, reading one flat
    /// pooled `[T, width]` buffer and writing the next. In the reuse phase an
    /// enabled slot steps — a recurrent one over the whole sequence through
    /// [`ReuseLayer::step_sequence`], a frame-wise one per timestep through
    /// [`Self::step_slot`]; every other layer runs at full precision (while
    /// `calibrating`, with the enabled slots' input and hidden-state ranges
    /// profiled): a recurrent layer through
    /// [`Layer::forward_sequence_into`], a frame-wise one through
    /// [`reuse_nn::Network::apply_layer_into`] per timestep.
    fn walk_sequence(
        &mut self,
        frames: &[Vec<f32>],
        out: &mut Vec<f32>,
        calibrating: bool,
    ) -> Result<(), ReuseError> {
        for frame in frames {
            self.check_frame_len(frame)?;
        }
        if !calibrating {
            // Paper Section IV-D: the accelerator is power-gated between
            // sequences, so all buffered state starts fresh (metrics keep
            // accumulating across sequences).
            self.reset_buffers();
        }
        let model = Arc::clone(&self.model);
        let network = model.network();
        let t = frames.len();
        let timed = self.telemetry.is_some();
        let first = self.executions_seen;
        let mut width = network.input_shape().volume();
        let mut cur = self.pool.take(t * width);
        for frame in frames {
            cur.extend_from_slice(frame);
        }
        // One timestep's output of a frame-wise layer, on its way into the
        // flat buffer.
        let widest = model.layer_out_volumes().iter().copied().max();
        let mut row = self.pool.take(widest.unwrap_or(0));
        for (i, &slot_pos) in model.slot_of_layer().iter().enumerate() {
            let out_width = model.layer_out_volumes()[i];
            let mut next = self.pool.take(t * out_width);
            let enabled = slot_pos != usize::MAX && self.slot_enabled(slot_pos);
            let stepped = enabled && !calibrating;
            let layer = &network.layers()[i].1;
            let timesteps = (first..).zip(cur.chunks_exact(width));
            if !layer.is_recurrent() {
                for (execution, frame) in timesteps {
                    let step = if stepped {
                        Some(self.step_slot(&model, slot_pos, frame, &mut row)?)
                    } else {
                        self.profile_unstepped(i, frame);
                        network.apply_layer_into(i, frame, &mut row)?;
                        None
                    };
                    self.record_step(execution, i, step);
                    next.extend_from_slice(&row);
                }
            } else if stepped {
                let (ctx, state) = self.runtimes[slot_pos].split(&model, slot_pos);
                state.step_sequence(&ctx, &cur, timed, &mut next, &mut self.seq_steps)?;
                for (k, (execution, frame)) in timesteps.enumerate() {
                    self.record_step(execution, i, Some(self.seq_steps[k]));
                    self.note_relative_difference(slot_pos, frame);
                }
            } else {
                for (execution, frame) in timesteps {
                    self.profile_unstepped(i, frame);
                    self.record_step(execution, i, None);
                }
                layer.forward_sequence_into(&cur, t, &mut next, &mut self.lstm_scratch)?;
                if enabled {
                    // A cell's hidden inputs are its zero state, then its own
                    // outputs one step earlier: all but the last forward output
                    // and all but the first backward one (that half of a
                    // bidirectional layer's outputs starts at the last step).
                    let forward = match layer {
                        Layer::BiLstm(l) => l.cell_dim(),
                        _ => out_width,
                    };
                    let profiler = &mut self.runtimes[slot_pos].profiler_h;
                    profiler.observe(0.0);
                    for (k, o) in next.chunks_exact(out_width).enumerate() {
                        if k + 1 < t {
                            profiler.observe_slice(&o[..forward]);
                        }
                        if k > 0 {
                            profiler.observe_slice(&o[forward..]);
                        }
                    }
                }
            }
            self.pool.give(std::mem::replace(&mut cur, next));
            width = out_width;
        }
        self.executions_seen += t as u64;
        self.metrics.executions += t as u64;
        if calibrating {
            self.calibration_units_seen += 1;
        } else {
            self.reuse_frames += t as u64;
        }
        out.clear();
        out.extend_from_slice(&cur);
        self.pool.give(cur);
        self.pool.give(row);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::BufferPool;

    /// A miss (empty pool, or no candidate large enough) must allocate
    /// exactly the requested capacity — over-allocating would hide sizing
    /// bugs behind slack, under-allocating would trip the caller's extend.
    #[test]
    fn pool_miss_allocates_exactly_the_requested_capacity() {
        let mut pool = BufferPool::default();
        let buf = pool.take(100);
        assert_eq!(buf.capacity(), 100);
        assert!(buf.is_empty());
        assert_eq!(pool.stats.misses, 1);
        // An oversized request with only smaller buffers free is still a
        // miss with an exact allocation, never a smaller recycled buffer.
        pool.give(Vec::with_capacity(10));
        let buf = pool.take(1000);
        assert_eq!(buf.capacity(), 1000);
        assert_eq!(pool.stats.misses, 2);
        assert_eq!(pool.stats.hits, 0);
    }

    /// Best fit: among candidates that are large enough, the smallest wins,
    /// so big buffers stay available for big layers.
    #[test]
    fn pool_take_prefers_the_smallest_sufficient_buffer() {
        let mut pool = BufferPool::default();
        pool.give(Vec::with_capacity(400));
        pool.give(Vec::with_capacity(64));
        pool.give(Vec::with_capacity(100));
        let buf = pool.take(80);
        assert_eq!(buf.capacity(), 100, "best fit is 100, not 400");
        assert_eq!(pool.stats.hits, 1);
        // The 400 survives for a later large request.
        let big = pool.take(300);
        assert_eq!(big.capacity(), 400);
        assert_eq!(pool.stats.hits, 2);
        assert_eq!(pool.stats.misses, 0);
    }

    /// Regression for the serving dispatch pattern: layers of mismatched
    /// sizes interleave takes and gives. Once one buffer per size class has
    /// been allocated, steady-state cycles are all hits — the undersized-
    /// buffer and steady-miss debug_asserts in `take` must never fire.
    #[test]
    fn interleaved_mismatched_capacities_reach_a_steady_state() {
        let mut pool = BufferPool::default();
        let caps = [24usize, 64, 48, 10];
        // Priming pass: one miss per distinct request size.
        let bufs: Vec<Vec<f32>> = caps.iter().map(|&c| pool.take(c)).collect();
        assert_eq!(pool.stats.misses, caps.len() as u64);
        for b in bufs {
            pool.give(b);
        }
        // Steady state: any request order must be served from the free
        // list with adequate capacity.
        pool.steady = true;
        for round in 0..4 {
            // Rotate the take order so every size eventually sees every
            // free-list configuration.
            let mut held = Vec::new();
            for i in 0..caps.len() {
                let cap = caps[(i + round) % caps.len()];
                let mut buf = pool.take(cap);
                buf.resize(cap, 0.0);
                held.push(buf);
            }
            for b in held {
                pool.give(b);
            }
        }
        assert_eq!(pool.stats.misses, caps.len() as u64, "no steady misses");
        assert_eq!(pool.stats.hits, 16);
    }
}
