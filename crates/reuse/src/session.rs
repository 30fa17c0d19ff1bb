//! The mutable, per-stream half of a reuse run.
//!
//! A [`ReuseSession`] owns everything one input stream mutates — buffered
//! quantized indices and outputs, quantizer calibration, metrics,
//! telemetry windows and the recycling buffer pool — while reading the
//! immutable network, plan and packed weights from a shared
//! [`CompiledModel`]. Sessions are created, reset and dropped
//! independently: interleaving many sessions over one model is
//! bit-identical to running each stream alone.
//!
//! What a layer step did is written once: [`ReuseSession::record_step`] is
//! the only writer of the metrics sums, the telemetry windows and the trace
//! log, all three fed from one [`StepRecord`].

use std::sync::Arc;

use reuse_nn::Layer;
use reuse_quant::{LinearQuantizer, RangeProfiler};
use reuse_tensor::Tensor;

use crate::block::Block;
use crate::layer::{build_state, ExecStats, ReuseLayer, StepCtx};
use crate::metrics::{relative_difference, EngineMetrics, LayerMetrics};
use crate::model::CompiledModel;
use crate::telemetry::{
    LayerTelemetrySnapshot, PoolStats, TelemetrySnapshot, WatchdogStats, Window, TELEMETRY_WINDOW,
};
use crate::trace::{materialise, ExecutionTrace, StepRecord, TraceKind};
use crate::{ReuseConfig, ReuseError};

/// A recycling arena of `f32` buffers for a walk's intermediates.
///
/// Every layer of a walk — stepped or run at full precision — writes into a
/// buffer taken here and the buffer it read goes back, so the pool only
/// ever holds buffers it issued: after the first walk it has one
/// per distinct intermediate in flight and later walks of the same shape
/// allocate nothing. Once `steady` is armed, a pool miss (which would
/// allocate) trips a debug assertion — the zero-allocation contract of
/// [`ReuseSession::execute_into`].
#[derive(Debug, Default)]
pub(crate) struct BufferPool {
    free: Vec<Vec<f32>>,
    pub(crate) steady: bool,
    /// Hit/miss counters, exported through [`TelemetrySnapshot`].
    pub(crate) stats: PoolStats,
}

impl BufferPool {
    /// Takes a cleared buffer with at least `cap` capacity (best fit), or
    /// allocates one on a miss. Only buffers with `capacity >= cap` are
    /// candidates — a smaller recycled buffer must never be handed out, or
    /// the caller's `extend_from_slice` would silently reallocate and defeat
    /// the zero-alloc invariant while the pool reported a hit.
    pub(crate) fn take(&mut self, cap: usize) -> Vec<f32> {
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

    /// Returns a buffer taken from the pool for reuse by later walks.
    pub(crate) fn give(&mut self, buf: Vec<f32>) {
        self.free.push(buf);
    }
}

/// Per-stream runtime state for one reuse slot: calibration, quantizers
/// and the layer's buffered state behind the [`ReuseLayer`] trait.
#[derive(Debug)]
struct SlotRuntime {
    /// Set when the profiled range was degenerate and reuse was disabled
    /// for this stream.
    auto_disabled: bool,
    profiler_x: RangeProfiler,
    profiler_h: RangeProfiler,
    quantizer_x: Option<LinearQuantizer>,
    quantizer_h: Option<LinearQuantizer>,
    /// Previous raw input (for the Fig. 4 relative-difference series);
    /// empty when there is none.
    prev_raw_input: Vec<f32>,
    /// The layer's buffered reuse state, dispatched through the trait.
    state: Box<dyn ReuseLayer>,
}

impl SlotRuntime {
    /// The slot's buffered state beside everything a step on it reads: the
    /// model's layer (with its packed weights) and this stream's quantizers.
    fn split<'a>(
        &'a mut self,
        model: &'a CompiledModel,
        slot_pos: usize,
    ) -> (StepCtx<'a>, &'a mut dyn ReuseLayer) {
        let slot = &model.slots()[slot_pos];
        let ctx = StepCtx {
            layer: &model.network().layers()[slot.layer_index].1,
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
    /// The block [`Self::execute_into`] (one row) and
    /// [`Self::execute_sequence_into`] (one sequence) walk.
    /// Boxed: inline, it read `c3d_stream` ~5% slower in twelve of twelve
    /// pairs without changing what a C3D window computes (placement, as in
    /// ROADMAP's findings); boxed, at par.
    block: Box<Block>,
    /// Per-slot windows of recent incremental step records, preallocated
    /// when telemetry is enabled in the config.
    telemetry: Option<Vec<Window>>,
    /// Reuse-phase executions seen (timesteps for recurrent networks): what
    /// a snapshot reports as frames.
    reuse_frames: u64,
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
                    prev_raw_input: Vec::new(),
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
            block: Box::default(),
            telemetry,
            reuse_frames: 0,
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

    /// Layers whose profiled range was degenerate, forcing full-precision
    /// execution for this stream.
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

    /// Zero: there is no drift watchdog (see [`WatchdogStats`]).
    #[doc(hidden)]
    pub fn watchdog_stats(&self) -> WatchdogStats {
        WatchdogStats::default()
    }

    /// Buffer-pool hit/miss counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.block.pool.stats
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
                auto_disabled: rt.auto_disabled,
            })
            .collect();
        Some(TelemetrySnapshot {
            network: self.model.network().name().to_string(),
            frames: self.reuse_frames,
            window: TELEMETRY_WINDOW,
            pool: self.block.pool.stats,
            layers,
        })
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
            .filter(|(slot, rt)| slot.enabled && !rt.auto_disabled)
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
            .filter(|(slot, rt)| slot.enabled && !rt.auto_disabled)
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
    /// traces and telemetry windows all restart from zero — a reset session
    /// must not report the previous sequence's numbers. If
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
        self.reuse_frames = 0;
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

    pub(crate) fn slot_enabled(&self, slot_pos: usize) -> bool {
        self.model.slots()[slot_pos].enabled && !self.runtimes[slot_pos].auto_disabled
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
    /// The frame is the one-row [`Block`]. Every layer's intermediate is
    /// written into a buffer from the session's recycling pool, and the
    /// per-layer scratch (changed lists, quantized codes, buffered outputs)
    /// is reused in place. So from the second reuse-phase frame onward a call
    /// performs **zero heap allocations** in the session, on any feed-forward
    /// pipeline. What still allocates, by design: calibration frames (they
    /// prime the pool), the state-initializing first execution, the growth —
    /// amortised — of the trace log and of the relative-difference series
    /// when those are recorded, and — inside the kernel, not the session —
    /// the two scratch allocations of a conv layer that runs at full precision (the segment
    /// table, with the layer's zero-padded frame behind it when it pads, and
    /// the block of results).
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
        let result = self.walk_unit(frame, 1, out);
        // From the first reuse-phase frame on, the pool holds a buffer for
        // every intermediate of a frame, so every take must hit; a miss
        // would mean a steady-state frame allocated.
        self.block.pool.steady |= self.calibrated;
        result
    }

    /// Walks one unit of `rows` frames, back to back in `frames`, as this
    /// session's own block, and writes their outputs back to back into
    /// `out` (untouched on an error).
    fn walk_unit(
        &mut self,
        frames: &[f32],
        rows: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), ReuseError> {
        let mut block = std::mem::take(&mut *self.block);
        block.clear();
        block.push(0, rows);
        block.walk(std::slice::from_mut(self), frames);
        let result = block.outputs().map(|outputs| {
            out.clear();
            out.extend_from_slice(outputs);
        });
        *self.block = block;
        result
    }

    /// Opens a run of this session's `rows` queued rows in a block walk,
    /// the first `unit` of which make one unit: whether they calibrate, and
    /// how many of them walk together. A recurrent unit — one whole
    /// sequence — is a run of its own, and outside calibration it starts
    /// from fresh state. A feed-forward run of frames ends at the last
    /// calibrating one (the next one builds the quantizers from every
    /// layer's profile); outside calibration it takes every queued row.
    pub(crate) fn begin_run(&mut self, rows: usize, unit: usize) -> (bool, usize) {
        let calibrating = self.calibrating();
        if self.model.network().is_recurrent() {
            if !calibrating {
                // Paper Section IV-D: the accelerator is power-gated between
                // sequences, so all buffered state starts fresh (metrics keep
                // accumulating across sequences).
                self.reset_buffers();
            }
            return (calibrating, unit);
        }
        if !calibrating {
            return (false, rows);
        }
        let left = self.model.config().calibration() as u64 - self.calibration_units_seen;
        (true, left.min(rows as u64) as usize)
    }

    /// Closes one frame of a run after its last layer: counts it — and,
    /// calibrating, the unit it ends, if it does.
    pub(crate) fn finish_frame(&mut self, calibrating: bool, unit_end: bool) {
        self.executions_seen += 1;
        self.metrics.executions += 1;
        if calibrating {
            self.calibration_units_seen += u64::from(unit_end);
        } else {
            self.reuse_frames += 1;
        }
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
    /// The sequence is a [`Block`] of `T` rows — one unit, walked the way
    /// [`Self::execute_into`] walks its one row: each layer runs over every
    /// timestep before the next, a recurrent one stepping through its reuse
    /// state or at full precision through [`Layer::forward_sequence_into`]
    /// when it does not step, a frame-wise one as one rows-forward. Once the
    /// buffers have grown to the longest sequence seen a reuse-phase call
    /// performs **zero heap allocations**, with [`Self::execute_into`]'s
    /// exceptions (state resets per sequence, so every slot initializes from
    /// scratch at each first timestep — into buffers it kept).
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
        let width = self.model.network().input_shape().volume();
        if let Some(frame) = frames.iter().find(|f| f.len() != width) {
            return Err(ReuseError::Nn(reuse_nn::NnError::InputShape {
                expected: width,
                actual: frame.len(),
            }));
        }
        let mut flat = self.block.pool.take(frames.len() * width);
        frames.iter().for_each(|f| flat.extend_from_slice(f));
        let result = self.walk_unit(&flat, frames.len(), out);
        self.block.pool.give(flat);
        result
    }

    /// Profiles the ranges of a slot that ran a run at full precision: its
    /// inputs `xs`, and a recurrent slot's hidden inputs, read off the run's
    /// outputs `hs` (none when the run failed). An *enabled* slot only gets
    /// here while calibrating — in the reuse phase it steps.
    pub(crate) fn profile_unstepped(&mut self, layer_index: usize, xs: &[f32], hs: &[f32]) {
        let slot_pos = self.model.slot_of_layer()[layer_index];
        if slot_pos == usize::MAX || !self.slot_enabled(slot_pos) {
            return;
        }
        let rt = &mut self.runtimes[slot_pos];
        rt.profiler_x.observe_slice(xs);
        if self.model.slots()[slot_pos].kind != reuse_nn::LayerKind::Recurrent || hs.is_empty() {
            return;
        }
        // A cell's hidden inputs are its zero state, then its own outputs one
        // step earlier: all but the last forward output and all but the
        // first backward one (that half of a bidirectional layer's outputs
        // starts at the last step).
        let width = self.model.layer_out_volumes()[layer_index];
        let forward = match &self.model.network().layers()[layer_index].1 {
            Layer::BiLstm(l) => l.cell_dim(),
            _ => width,
        };
        let t = hs.len() / width;
        rt.profiler_h.observe(0.0);
        for (k, o) in hs.chunks_exact(width).enumerate() {
            if k + 1 < t {
                rt.profiler_h.observe_slice(&o[..forward]);
            }
            if k > 0 {
                rt.profiler_h.observe_slice(&o[forward..]);
            }
        }
    }

    fn build_quantizers(&mut self) {
        let model = Arc::clone(&self.model);
        let margin = model.config().margin();
        let clusters = model.config().default_clusters();
        for (slot, rt) in model.slots().iter().zip(self.runtimes.iter_mut()) {
            if !slot.enabled {
                continue;
            }
            match rt.profiler_x.range(margin) {
                Ok(range) => match LinearQuantizer::new(range, clusters) {
                    Ok(q) => rt.quantizer_x = Some(q),
                    Err(_) => rt.auto_disabled = true,
                },
                Err(_) => rt.auto_disabled = true,
            }
            if slot.kind == reuse_nn::LayerKind::Recurrent && !rt.auto_disabled {
                match rt.profiler_h.range(margin) {
                    Ok(range) => match LinearQuantizer::new(range, clusters) {
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
    pub(crate) fn record_step(
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

    /// One enabled slot's reuse-phase step over a run of its inputs, `xs`
    /// back to back, into `next` — the [`ReuseLayer`] step (uniform
    /// dispatch, no per-kind `match`). Each stepped row's counters and span
    /// (0 unless telemetry times slots) land in `steps` for the walk to
    /// record; on an error, those of the rows stepped before the failing one.
    pub(crate) fn step_slot(
        &mut self,
        model: &CompiledModel,
        slot_pos: usize,
        xs: &[f32],
        next: &mut Vec<f32>,
        steps: &mut Vec<(ExecStats, u64)>,
    ) -> Result<(), ReuseError> {
        steps.clear();
        let (ctx, state) = self.runtimes[slot_pos].split(model, slot_pos);
        let result = state.step(&ctx, xs, self.telemetry.is_some(), next, steps);
        let width = model.slots()[slot_pos].n_inputs as usize;
        for x in xs.chunks(width).take(steps.len()) {
            self.note_relative_difference(slot_pos, x);
        }
        result
    }
}

/// A session is the one-session slice of a [`Block::walk`].
impl AsMut<ReuseSession> for ReuseSession {
    fn as_mut(&mut self) -> &mut ReuseSession {
        self
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
