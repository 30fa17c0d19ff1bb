//! The [`StreamServer`]: N independent frame streams multiplexed over one
//! shared [`CompiledModel`].
//!
//! Each stream owns a [`ReuseSession`] (lazily created on first submit),
//! a bounded ingress queue of pending frames, and a bounded queue of
//! completed outputs. A scheduling tick runs every stream's ready frames in
//! one serial loop on the calling thread; a server that should use several
//! cores is sharded ([`crate::ShardedServer`], one worker thread per
//! shard). Sessions never share mutable state, so outputs are bit-identical
//! to running each stream alone through its own standalone session, under
//! any interleaving and any shard count.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use reuse_core::{CompiledModel, ReuseSession};

use crate::error::ServeError;
use crate::histogram::LatencyHistogram;
use crate::snapshot::{ServerSnapshot, StreamSnapshot};

/// Outcome of submitting one frame to a stream's ingress queue — the
/// explicit backpressure signal callers react to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitResult {
    /// The frame was queued and will execute on a later tick.
    Accepted,
    /// The stream's bounded ingress queue is full; retry after a tick.
    QueueFull,
    /// The frame was load-shed: the stream is degraded (its session's drift
    /// watchdog auto-disabled reuse layers, so it runs at full-precision
    /// cost) and its queue is past the shed watermark. Dropping fresh
    /// frames keeps a degraded stream from starving healthy ones.
    Shed,
    /// The frame was load-shed because it is projected to miss its
    /// deadline: queued work × the observed per-frame service time
    /// (EWMA over recent ticks) already exceeds the slack the caller
    /// allowed. Shedding at ingress costs nothing; executing a frame whose
    /// result arrives too late costs a full forward pass.
    DeadlineShed,
}

/// Ingress scheduling class of a submitted frame. Frames within one stream
/// always execute in submission order (the reuse chain is sequential);
/// priority controls *cross-stream* service order inside a tick: streams
/// with a high-priority frame at the head of their queue are dispatched
/// before normal ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Default lane.
    #[default]
    Normal,
    /// Served before `Normal` streams within each scheduling tick.
    High,
}

/// Per-frame submission options: deadline and ingress priority. The
/// plain [`StreamServer::submit`] uses `SubmitOptions::default()` — no
/// deadline, normal priority — and behaves exactly as before.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Absolute completion deadline. Submits projected to miss it are
    /// rejected with [`SubmitResult::DeadlineShed`]; queued frames whose
    /// deadline has already passed when they reach the head of the queue
    /// are dropped (counted as `expired`) instead of executed.
    pub deadline: Option<Instant>,
    /// Ingress lane (see [`Priority`]).
    pub priority: Priority,
    /// Opaque caller tag carried through to the frame's completion:
    /// reported by [`StreamServer::drain_outputs_tagged`] alongside the
    /// output, or by [`StreamServer::drain_expired`] when the frame is
    /// dropped past-deadline. The network front-end uses it to pair
    /// responses with request sequence numbers; `0` by default.
    pub tag: u64,
}

impl SubmitOptions {
    /// Deadline `slack` from now.
    pub fn with_deadline(mut self, slack: Duration) -> Self {
        self.deadline = Some(Instant::now() + slack);
        self
    }

    /// High-priority ingress lane.
    pub fn high_priority(mut self) -> Self {
        self.priority = Priority::High;
        self
    }

    /// Opaque completion tag (see [`Self::tag`]).
    pub fn tagged(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }
}

/// What one scheduling tick accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickStats {
    /// Frames completed this tick (timesteps, for recurrent models).
    pub frames: u64,
    /// Streams that completed at least one frame this tick.
    pub streams: usize,
}

/// Configuration of a [`StreamServer`]. All knobs have serving-friendly
/// defaults; setters consume and return `self` like
/// [`reuse_core::ReuseConfig`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    max_sessions: usize,
    queue_capacity: usize,
    shed_watermark: usize,
    batch_max: usize,
    sequence_len: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            queue_capacity: 32,
            shed_watermark: 16,
            batch_max: 8,
            sequence_len: 0,
        }
    }
}

impl ServerConfig {
    /// Session-pool cap (minimum 1). A submit for an unknown stream beyond
    /// the cap evicts the least-recently-used stream first.
    pub fn max_sessions(mut self, n: usize) -> Self {
        self.max_sessions = n.max(1);
        self
    }

    /// Per-stream ingress-queue capacity in frames (minimum 1).
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n.max(1);
        self
    }

    /// Queue depth at/above which a degraded stream's submits are shed
    /// (see [`SubmitResult::Shed`]). Clamped to the queue capacity.
    pub fn shed_watermark(mut self, n: usize) -> Self {
        self.shed_watermark = n;
        self
    }

    /// Max ready units one stream may complete per tick (minimum 1) — a
    /// unit is one frame, or one sequence for recurrent models. Bounds how
    /// long a backlogged stream can hold up the streams behind it.
    pub fn batch_max(mut self, n: usize) -> Self {
        self.batch_max = n.max(1);
        self
    }

    /// Timesteps per execution unit for recurrent models: frames accumulate
    /// in the ingress queue and execute as one sequence once `n` are
    /// queued. Required (nonzero) for recurrent networks, and must be 0 for
    /// feed-forward ones.
    pub fn sequence_len(mut self, n: usize) -> Self {
        self.sequence_len = n;
        self
    }

    /// Effective shed watermark (clamped to the queue capacity).
    fn effective_watermark(&self) -> usize {
        self.shed_watermark.min(self.queue_capacity)
    }
}

/// One queued input frame plus its enqueue timestamp (for the
/// submit-to-completion latency histogram) and scheduling metadata.
#[derive(Debug)]
struct QueuedFrame {
    data: Vec<f32>,
    enqueued: Instant,
    deadline: Option<Instant>,
    priority: Priority,
    /// Caller tag, reported back on completion or expiry.
    tag: u64,
}

/// One stream's slot in the server: its session, bounded queues, and
/// recycling buffer lists. Everything here is preallocated at stream
/// creation (or grows once, to the model's sequence) so the steady-state
/// submit/tick/drain cycle never allocates.
#[derive(Debug)]
struct StreamEntry {
    id: u64,
    session: ReuseSession,
    /// Pending input frames, oldest first (capacity = `queue_capacity`).
    queue: VecDeque<QueuedFrame>,
    /// Recycled ingress frame buffers.
    frame_free: Vec<Vec<f32>>,
    /// Completed outputs with their caller tags, oldest first (capacity =
    /// `queue_capacity`).
    outputs: VecDeque<(u64, Vec<f32>)>,
    /// Recycled output buffers.
    out_free: Vec<Vec<f32>>,
    /// Tags of frames dropped past-deadline, oldest first (bounded like
    /// the output queue; oldest dropped if the caller never drains).
    expired_tags: VecDeque<u64>,
    /// Scratch for assembling recurrent sequences (timestep buffers are
    /// moved in from the queue and returned to `frame_free` after).
    seq_scratch: Vec<Vec<f32>>,
    /// The `(enqueued, tag)` of each timestep in `seq_scratch`, and the
    /// sequence's flat `[timesteps, outputs]` result on its way into
    /// `out_free` buffers.
    seq_meta: Vec<(Instant, u64)>,
    seq_out: Vec<f32>,
    /// Logical-clock value of the stream's last submit (LRU key).
    last_used: u64,
    /// Whether the session's drift watchdog has auto-disabled any reuse
    /// layer (recomputed after each tick; drives the shed policy).
    degraded: bool,
    /// Frames accepted into the queue over the stream's lifetime.
    frames_in: u64,
    /// Frames completed over the stream's lifetime.
    frames_done: u64,
    /// Submits rejected with [`SubmitResult::QueueFull`] (lifetime).
    rejected_queue_full: u64,
    /// Submits rejected with [`SubmitResult::Shed`] (lifetime).
    shed: u64,
    /// Submits rejected with [`SubmitResult::DeadlineShed`] (lifetime).
    deadline_shed: u64,
    /// Queued frames dropped at execution time because their deadline had
    /// already passed (lifetime).
    expired: u64,
    /// Queued frames with [`Priority::High`] (kept in sync by submit and
    /// [`Self::process`]).
    high_pending: usize,
    /// Completed outputs overwritten because the output queue was full
    /// (the caller stopped draining).
    outputs_dropped: u64,
    /// First execution error, if any. The error is sticky: a failed stream
    /// stays failed (skipped by later ticks, zero ready units) until it is
    /// evicted — it must never silently resume.
    error: Option<reuse_core::ReuseError>,
    /// Whether [`StreamServer::tick`] has already surfaced this stream's
    /// error to the caller (each failure is reported exactly once).
    error_reported: bool,
}

impl StreamEntry {
    fn new(id: u64, session: ReuseSession, config: &ServerConfig) -> Self {
        StreamEntry {
            id,
            session,
            queue: VecDeque::with_capacity(config.queue_capacity),
            frame_free: Vec::with_capacity(config.queue_capacity),
            outputs: VecDeque::with_capacity(config.queue_capacity),
            out_free: Vec::with_capacity(config.queue_capacity + 1),
            expired_tags: VecDeque::with_capacity(config.queue_capacity),
            seq_scratch: Vec::with_capacity(config.sequence_len),
            seq_meta: Vec::with_capacity(config.sequence_len),
            seq_out: Vec::new(),
            last_used: 0,
            degraded: false,
            frames_in: 0,
            frames_done: 0,
            rejected_queue_full: 0,
            shed: 0,
            deadline_shed: 0,
            expired: 0,
            high_pending: 0,
            outputs_dropped: 0,
            error: None,
            error_reported: false,
        }
    }

    /// Frames ready to execute: every queued frame for feed-forward
    /// streams, whole sequences only for recurrent ones. A failed stream
    /// has no ready units — its queued frames stay parked so drain loops
    /// spinning on [`StreamServer::ready_units`] terminate.
    fn ready_units(&self, sequence_len: usize) -> usize {
        if self.error.is_some() {
            return 0;
        }
        self.queue
            .len()
            .checked_div(sequence_len)
            .unwrap_or(self.queue.len())
    }

    /// Pushes one completed output, recycling the oldest if the bounded
    /// output queue is full (the caller stopped draining).
    fn push_output(&mut self, tag: u64, out: Vec<f32>, cap: usize) {
        if self.outputs.len() >= cap {
            if let Some((_, old)) = self.outputs.pop_front() {
                self.out_free.push(old);
                self.outputs_dropped += 1;
            }
        }
        self.outputs.push_back((tag, out));
    }

    /// Records one past-deadline drop's tag, bounded like the output queue.
    fn push_expired(&mut self, tag: u64, cap: usize) {
        if self.expired_tags.len() >= cap {
            self.expired_tags.pop_front();
        }
        self.expired_tags.push_back(tag);
    }

    /// Runs up to `batch_max` ready units on this entry's session. Touches
    /// only this entry plus the (lock-free) histogram; the caller reads what
    /// happened off the entry's lifetime counters.
    fn process(&mut self, config: &ServerConfig, latency: &LatencyHistogram) {
        if self.error.is_some() {
            return;
        }
        let mut units = 0usize;
        while units < config.batch_max && self.ready_units(config.sequence_len) > 0 {
            if config.sequence_len == 0 {
                let frame = self.queue.pop_front().expect("ready unit implies frame");
                if frame.priority == Priority::High {
                    self.high_pending -= 1;
                }
                // A frame whose deadline already passed is dropped, not
                // executed: its result would arrive too late to matter,
                // and the forward pass it saves goes to frames that can
                // still make their deadlines.
                if frame.deadline.is_some_and(|d| Instant::now() > d) {
                    self.expired += 1;
                    self.push_expired(frame.tag, config.queue_capacity);
                    self.frame_free.push(frame.data);
                    units += 1;
                    continue;
                }
                let mut out = self.out_free.pop().unwrap_or_default();
                match self.session.execute_into(&frame.data, &mut out) {
                    Ok(()) => {
                        latency.record(frame.enqueued.elapsed().as_nanos() as u64);
                        self.push_output(frame.tag, out, config.queue_capacity);
                        self.frames_done += 1;
                    }
                    Err(e) => {
                        self.out_free.push(out);
                        self.error = Some(e);
                    }
                }
                self.frame_free.push(frame.data);
                if self.error.is_some() {
                    break;
                }
            } else {
                self.process_sequence(config, latency);
                if self.error.is_some() {
                    break;
                }
            }
            units += 1;
        }
        self.degraded = self.session.auto_disabled_layers().next().is_some();
    }

    /// Executes one full sequence (recurrent models) through
    /// [`ReuseSession::execute_sequence_into`] and copies its rows into
    /// pooled output buffers: like a frame, a steady sequence allocates
    /// nothing.
    fn process_sequence(&mut self, config: &ServerConfig, latency: &LatencyHistogram) {
        let len = config.sequence_len;
        debug_assert!(self.queue.len() >= len);
        self.seq_scratch.clear();
        self.seq_meta.clear();
        for _ in 0..len {
            let frame = self.queue.pop_front().expect("checked above");
            if frame.priority == Priority::High {
                self.high_pending -= 1;
            }
            self.seq_scratch.push(frame.data);
            self.seq_meta.push((frame.enqueued, frame.tag));
        }
        match self
            .session
            .execute_sequence_into(&self.seq_scratch, &mut self.seq_out)
        {
            Ok(()) => {
                let width = self.seq_out.len() / len;
                for t in 0..len {
                    let mut out = self.out_free.pop().unwrap_or_default();
                    out.clear();
                    out.extend_from_slice(&self.seq_out[t * width..][..width]);
                    let (enqueued, tag) = self.seq_meta[t];
                    latency.record(enqueued.elapsed().as_nanos() as u64);
                    self.push_output(tag, out, config.queue_capacity);
                    self.frames_done += 1;
                }
            }
            Err(e) => self.error = Some(e),
        }
        for data in self.seq_scratch.drain(..) {
            self.frame_free.push(data);
        }
    }
}

/// A multi-stream serving runtime over one shared [`CompiledModel`].
///
/// Lifecycle: [`submit`](Self::submit) frames tagged with a stream id
/// (sessions are created lazily, the least-recently-used stream is evicted
/// past [`ServerConfig::max_sessions`]), call [`tick`](Self::tick) to
/// execute every stream's ready frames, and
/// [`drain_outputs`](Self::drain_outputs) to consume results in order.
///
/// **Determinism:** each stream's frames execute in submission order on
/// that stream's private session, so per-stream outputs and metrics are
/// bit-identical to a standalone [`ReuseSession`] fed the same frames —
/// regardless of how streams interleave (property-tested in
/// `tests/serve.rs`).
///
/// **Allocation:** with feed-forward models the steady-state submit → tick
/// → drain cycle performs zero heap allocations: ingress frames, outputs,
/// and session intermediates all come from preallocated recycling lists
/// (enforced by the counting-allocator test in `tests/alloc.rs`), and a
/// recurrent model's sequences run under the same contract.
#[derive(Debug)]
pub struct StreamServer {
    model: Arc<CompiledModel>,
    config: ServerConfig,
    entries: Vec<StreamEntry>,
    /// Stream id → index into `entries`.
    index: HashMap<u64, usize>,
    /// Logical clock advanced on every submit (LRU ordering).
    clock: u64,
    latency: LatencyHistogram,
    frame_len: usize,
    ticks: u64,
    frames_submitted: u64,
    frames_completed: u64,
    rejected_queue_full: u64,
    shed: u64,
    /// Submits rejected by the projected-deadline-miss policy.
    deadline_shed: u64,
    /// Queued frames dropped at execution time (deadline already passed).
    expired: u64,
    evictions: u64,
    /// Queued frames discarded when their stream was evicted.
    evicted_frames: u64,
    /// Total queued frames across streams (kept incrementally so
    /// [`Self::pending`] and the per-submit deadline projection are O(1),
    /// not O(streams)).
    pending_total: usize,
    /// Queued high-priority frames across streams (when zero — the common
    /// case — ticks skip the priority ordering pass entirely).
    high_pending: usize,
    /// EWMA of the observed per-frame service time in nanoseconds over
    /// recent ticks; `0` until the first frame completes. This is the
    /// `s̄` in the projected-deadline-miss formula (DESIGN.md §13).
    service_ewma_ns: f64,
    /// Scratch for the tick's dispatch order (reused per tick).
    order: Vec<usize>,
}

impl StreamServer {
    /// Creates a server over a compiled model.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] when [`ServerConfig::sequence_len`]
    /// does not match the model (recurrent networks need a nonzero
    /// sequence length that fits the queue; feed-forward networks need 0).
    pub fn new(model: Arc<CompiledModel>, config: ServerConfig) -> Result<Self, ServeError> {
        let recurrent = model.network().is_recurrent();
        if recurrent && config.sequence_len == 0 {
            return Err(ServeError::Config {
                context: "recurrent model: set ServerConfig::sequence_len".into(),
            });
        }
        if !recurrent && config.sequence_len != 0 {
            return Err(ServeError::Config {
                context: "feed-forward model: ServerConfig::sequence_len must be 0".into(),
            });
        }
        if config.sequence_len > config.queue_capacity {
            return Err(ServeError::Config {
                context: format!(
                    "sequence_len {} exceeds queue_capacity {}: sequences would never be ready",
                    config.sequence_len, config.queue_capacity
                ),
            });
        }
        let frame_len = model.network().input_shape().volume();
        Ok(StreamServer {
            model,
            config,
            entries: Vec::new(),
            index: HashMap::new(),
            clock: 0,
            latency: LatencyHistogram::new(),
            frame_len,
            ticks: 0,
            frames_submitted: 0,
            frames_completed: 0,
            rejected_queue_full: 0,
            shed: 0,
            deadline_shed: 0,
            expired: 0,
            evictions: 0,
            evicted_frames: 0,
            pending_total: 0,
            high_pending: 0,
            service_ewma_ns: 0.0,
            order: Vec::new(),
        })
    }

    /// The shared compiled model.
    pub fn model(&self) -> &Arc<CompiledModel> {
        &self.model
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Active streams (sessions currently in the pool).
    pub fn stream_count(&self) -> usize {
        self.entries.len()
    }

    /// Whether a stream currently has a session in the pool.
    pub fn contains(&self, id: u64) -> bool {
        self.index.contains_key(&id)
    }

    /// A stream's session, for introspection (metrics, telemetry).
    pub fn session(&self, id: u64) -> Option<&ReuseSession> {
        self.index.get(&id).map(|&slot| &self.entries[slot].session)
    }

    /// Whether a stream has failed (its sticky execution error is set). A
    /// failed stream is skipped by ticks until evicted.
    pub fn stream_failed(&self, id: u64) -> bool {
        self.index
            .get(&id)
            .is_some_and(|&slot| self.entries[slot].error.is_some())
    }

    /// Marks a stream failed with `error`, as if one of its frames had
    /// errored during a tick. Returns `false` when the stream does not
    /// exist. Test hook for the sticky-error path: real execution errors
    /// are unreachable through `submit`'s pre-validation.
    #[doc(hidden)]
    pub fn inject_stream_error(&mut self, id: u64, error: reuse_core::ReuseError) -> bool {
        let Some(&slot) = self.index.get(&id) else {
            return false;
        };
        let entry = &mut self.entries[slot];
        if entry.error.is_none() {
            entry.error = Some(error);
            entry.error_reported = false;
        }
        true
    }

    /// Queued (not yet executed) frames for one stream.
    pub fn queue_len(&self, id: u64) -> usize {
        self.index
            .get(&id)
            .map_or(0, |&slot| self.entries[slot].queue.len())
    }

    /// Total queued frames across all streams.
    pub fn pending(&self) -> usize {
        self.pending_total
    }

    /// Execution units (frames, or whole sequences for recurrent models)
    /// ready to run on the next tick.
    pub fn ready_units(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.ready_units(self.config.sequence_len))
            .sum()
    }

    /// Scheduling ticks run so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Frames accepted across all streams (lifetime).
    pub fn frames_submitted(&self) -> u64 {
        self.frames_submitted
    }

    /// Frames completed across all streams (lifetime).
    pub fn frames_completed(&self) -> u64 {
        self.frames_completed
    }

    /// Submits rejected with [`SubmitResult::QueueFull`].
    pub fn rejected_queue_full(&self) -> u64 {
        self.rejected_queue_full
    }

    /// Submits rejected with [`SubmitResult::Shed`].
    pub fn shed_frames(&self) -> u64 {
        self.shed
    }

    /// Submits rejected with [`SubmitResult::DeadlineShed`].
    pub fn deadline_shed_frames(&self) -> u64 {
        self.deadline_shed
    }

    /// Queued frames dropped at execution time because their deadline had
    /// already passed.
    pub fn expired_frames(&self) -> u64 {
        self.expired
    }

    /// EWMA of the observed per-frame service time in nanoseconds (`0.0`
    /// until the first tick completes a frame): tick wall-clock ÷ frames
    /// completed, which is what the deadline projection needs.
    pub fn service_ewma_ns(&self) -> f64 {
        self.service_ewma_ns
    }

    /// Streams evicted by the LRU session-pool cap.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// The submit-to-completion latency histogram.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Submits one frame to a stream's ingress queue. Creates the stream's
    /// session lazily on first submit (evicting the least-recently-used
    /// stream when the pool is at [`ServerConfig::max_sessions`]); applies
    /// the queue-full and load-shedding backpressure policies.
    ///
    /// Steady-state submits (existing stream, recycled buffer available)
    /// perform zero heap allocations.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Reuse`] when the frame length does not match
    /// the model's input volume.
    pub fn submit(&mut self, id: u64, frame: &[f32]) -> Result<SubmitResult, ServeError> {
        self.submit_with(id, frame, SubmitOptions::default())
    }

    /// [`Self::submit`] with per-frame scheduling options: an absolute
    /// completion deadline and an ingress priority lane.
    ///
    /// With a deadline set, the submit is additionally subject to the
    /// **projected-deadline-miss** policy: if queued work × the observed
    /// per-frame service time (EWMA over recent ticks) already reaches
    /// past the deadline, the frame is rejected with
    /// [`SubmitResult::DeadlineShed`] instead of queued — executing it
    /// would deliver a result nobody can use while delaying frames that
    /// can still make their deadlines. A queued frame whose deadline
    /// passes before it reaches the head of its queue is likewise dropped
    /// (`expired`) rather than executed.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Reuse`] when the frame length does not match
    /// the model's input volume.
    pub fn submit_with(
        &mut self,
        id: u64,
        frame: &[f32],
        opts: SubmitOptions,
    ) -> Result<SubmitResult, ServeError> {
        if frame.len() != self.frame_len {
            return Err(ServeError::Reuse(reuse_core::ReuseError::Nn(
                reuse_nn::NnError::InputShape {
                    expected: self.frame_len,
                    actual: frame.len(),
                },
            )));
        }
        let slot = match self.index.get(&id) {
            Some(&slot) => slot,
            None => self.create_stream(id),
        };
        let watermark = self.config.effective_watermark();
        // Projected completion: now + (queued-across-server + 1) × s̄.
        // Computed before borrowing the entry; `0` disables the check
        // until a service-time estimate exists (first tick).
        let projected_ns = ((self.pending_total + 1) as f64 * self.service_ewma_ns) as u64;
        let entry = &mut self.entries[slot];
        if entry.queue.len() >= self.config.queue_capacity {
            self.rejected_queue_full += 1;
            entry.rejected_queue_full += 1;
            return Ok(SubmitResult::QueueFull);
        }
        if entry.degraded && entry.queue.len() >= watermark {
            self.shed += 1;
            entry.shed += 1;
            return Ok(SubmitResult::Shed);
        }
        if let Some(deadline) = opts.deadline {
            if projected_ns > 0 && Instant::now() + Duration::from_nanos(projected_ns) > deadline {
                self.deadline_shed += 1;
                entry.deadline_shed += 1;
                return Ok(SubmitResult::DeadlineShed);
            }
        }
        // Only accepted frames refresh the LRU clock: a spammer whose every
        // submit is rejected must not look recently used and push healthy
        // streams out of the session pool. (A brand-new stream's first
        // submit cannot be rejected — its queue is empty and it is not
        // degraded — so a just-created entry always gets a clock value.)
        self.clock += 1;
        entry.last_used = self.clock;
        let mut data = entry.frame_free.pop().unwrap_or_default();
        data.clear();
        data.extend_from_slice(frame);
        entry.queue.push_back(QueuedFrame {
            data,
            enqueued: Instant::now(),
            deadline: opts.deadline,
            priority: opts.priority,
            tag: opts.tag,
        });
        if opts.priority == Priority::High {
            entry.high_pending += 1;
            self.high_pending += 1;
        }
        entry.frames_in += 1;
        self.frames_submitted += 1;
        self.pending_total += 1;
        Ok(SubmitResult::Accepted)
    }

    /// Creates the entry for a new stream, evicting the LRU stream first
    /// when the pool is at its cap. Cold path: allocates the session and
    /// its queues.
    fn create_stream(&mut self, id: u64) -> usize {
        if self.entries.len() >= self.config.max_sessions {
            self.evict_lru();
        }
        let slot = self.entries.len();
        self.entries
            .push(StreamEntry::new(id, self.model.new_session(), &self.config));
        self.index.insert(id, slot);
        // Cold path: keep the dispatch-order scratch large enough that
        // ticks never grow it (zero-alloc steady state).
        let need = self.entries.len();
        if self.order.capacity() < need {
            self.order.reserve(need - self.order.len());
        }
        slot
    }

    /// Evicts the least-recently-used stream: resets the session's buffered
    /// state and drops the entry, releasing its queues and buffer pools.
    /// Queued frames of the evicted stream are discarded (counted in the
    /// snapshot's `evicted_frames`).
    fn evict_lru(&mut self) {
        let Some(slot) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(i, _)| i)
        else {
            return;
        };
        let mut entry = self.entries.swap_remove(slot);
        self.index.remove(&entry.id);
        // The session is about to be dropped; reset_state releases its
        // buffered per-layer state eagerly (and makes the session inert if
        // anything still holds it through shared introspection).
        entry.session.reset_state();
        self.evicted_frames += entry.queue.len() as u64;
        self.pending_total -= entry.queue.len();
        self.high_pending -= entry.high_pending;
        self.evictions += 1;
        // swap_remove moved the tail entry into `slot`: fix its index.
        if let Some(moved) = self.entries.get(slot) {
            self.index.insert(moved.id, slot);
        }
    }

    /// Runs one scheduling tick: every stream with ready units executes up
    /// to [`ServerConfig::batch_max`] of them, in submission order, one
    /// stream after another on the calling thread. Streams whose *head*
    /// frame is high-priority go first (FIFO within each lane). Returns
    /// what was done.
    ///
    /// # Errors
    ///
    /// Returns the first not-yet-reported stream execution error. The error
    /// stays on the stream (sticky): the failed stream is skipped by every
    /// later tick and never silently resumes, but each failure is surfaced
    /// through this result exactly once.
    pub fn tick(&mut self) -> Result<TickStats, ServeError> {
        self.ticks += 1;
        let started = Instant::now();
        let streams = 0..self.entries.len();
        self.order.clear();
        if self.high_pending > 0 {
            // The lanes are fixed before anything runs, so a stream served
            // in the high lane is not served again when its next head turns
            // out to be a normal frame.
            let entries = &self.entries;
            let high =
                |&i: &usize| entries[i].queue.front().map(|f| f.priority) == Some(Priority::High);
            self.order.extend(streams.clone().filter(high));
            self.order.extend(streams.filter(|i| !high(i)));
        } else {
            self.order.extend(streams);
        }
        let mut stats = TickStats::default();
        let mut first_error = None;
        for &slot in &self.order {
            let entry = &mut self.entries[slot];
            let (queued, high, done, expired) = (
                entry.queue.len(),
                entry.high_pending,
                entry.frames_done,
                entry.expired,
            );
            entry.process(&self.config, &self.latency);
            let frames = entry.frames_done - done;
            stats.frames += frames;
            stats.streams += usize::from(frames > 0);
            self.expired += entry.expired - expired;
            self.pending_total -= queued - entry.queue.len();
            self.high_pending -= high - entry.high_pending;
            if first_error.is_none() && !entry.error_reported {
                if let Some(e) = &entry.error {
                    first_error = Some(e.clone());
                    entry.error_reported = true;
                }
            }
        }
        self.frames_completed += stats.frames;
        if stats.frames > 0 {
            // Observed per-frame service time this tick, folded into the
            // EWMA the deadline projection reads (α = 0.25; the first
            // observation seeds the estimate directly).
            let per_frame = started.elapsed().as_nanos() as f64 / stats.frames as f64;
            self.service_ewma_ns = if self.service_ewma_ns == 0.0 {
                per_frame
            } else {
                0.75 * self.service_ewma_ns + 0.25 * per_frame
            };
        }
        match first_error {
            Some(e) => Err(ServeError::Reuse(e)),
            None => Ok(stats),
        }
    }

    /// Drains a stream's completed outputs in completion order, invoking
    /// `f` with each flat output and recycling the buffer. Returns the
    /// number of outputs drained. Allocation-free.
    pub fn drain_outputs(&mut self, id: u64, mut f: impl FnMut(&[f32])) -> usize {
        self.drain_outputs_tagged(id, |_, out| f(out))
    }

    /// [`Self::drain_outputs`], additionally passing each output's
    /// submission tag ([`SubmitOptions::tagged`]) — how the network
    /// front-end pairs completions with request sequence numbers.
    /// Allocation-free.
    pub fn drain_outputs_tagged(&mut self, id: u64, mut f: impl FnMut(u64, &[f32])) -> usize {
        let Some(&slot) = self.index.get(&id) else {
            return 0;
        };
        let entry = &mut self.entries[slot];
        let mut drained = 0usize;
        while let Some((tag, out)) = entry.outputs.pop_front() {
            f(tag, &out);
            entry.out_free.push(out);
            drained += 1;
        }
        drained
    }

    /// Drains the tags of a stream's frames dropped past-deadline since the
    /// last call, oldest first (see [`SubmitOptions::with_deadline`]).
    /// Returns the number drained. Allocation-free.
    pub fn drain_expired(&mut self, id: u64, mut f: impl FnMut(u64)) -> usize {
        let Some(&slot) = self.index.get(&id) else {
            return 0;
        };
        let entry = &mut self.entries[slot];
        let mut drained = 0usize;
        while let Some(tag) = entry.expired_tags.pop_front() {
            f(tag);
            drained += 1;
        }
        drained
    }

    /// Builds an owned, serializable snapshot of the server's aggregate and
    /// per-stream state. Allocates — call from reporting paths, not per
    /// tick.
    pub fn snapshot(&self) -> ServerSnapshot {
        let outputs_dropped = self.entries.iter().map(|e| e.outputs_dropped).sum();
        let mut signature = reuse_core::SignatureStats::default();
        for e in &self.entries {
            signature.merge(e.session.signature_stats());
        }
        // Per-layer policy state aggregated across the pool: the layers of
        // every session line up (one shared model), so counters sum and the
        // operating points average. With no live session, report the
        // compiled resolution (step 0.0 = not calibrated anywhere).
        let policy_layers = if self.entries.is_empty() {
            self.model
                .layer_policy_specs()
                .map(|(name, p)| reuse_core::LayerPolicyState {
                    name: name.to_string(),
                    adaptive: p.adaptive,
                    clusters: p.clusters,
                    step: 0.0,
                    step_scale: p.step_scale,
                    reuse_threshold: p.reuse_threshold,
                    observations: 0,
                    grows: 0,
                    shrinks: 0,
                    refreshes: 0,
                })
                .collect()
        } else {
            let mut acc = self.entries[0].session.policy_states();
            for e in &self.entries[1..] {
                for (a, s) in acc.iter_mut().zip(e.session.policy_states()) {
                    a.step += s.step;
                    a.step_scale += s.step_scale;
                    a.reuse_threshold += s.reuse_threshold;
                    a.observations += s.observations;
                    a.grows += s.grows;
                    a.shrinks += s.shrinks;
                    a.refreshes += s.refreshes;
                }
            }
            let n = self.entries.len() as f32;
            for a in &mut acc {
                a.step /= n;
                a.step_scale /= n;
                a.reuse_threshold /= n;
            }
            acc
        };
        let streams = self
            .entries
            .iter()
            .map(|e| StreamSnapshot {
                id: e.id,
                frames_in: e.frames_in,
                frames_done: e.frames_done,
                queue_len: e.queue.len(),
                rejected_queue_full: e.rejected_queue_full,
                shed: e.shed,
                deadline_shed: e.deadline_shed,
                expired: e.expired,
                degraded: e.degraded,
                failed: e.error.is_some(),
                input_similarity: e.session.metrics().overall_input_similarity(),
            })
            .collect();
        ServerSnapshot {
            network: self.model.network().name().to_string(),
            active_streams: self.entries.len(),
            max_sessions: self.config.max_sessions,
            ticks: self.ticks,
            frames_submitted: self.frames_submitted,
            frames_completed: self.frames_completed,
            rejected_queue_full: self.rejected_queue_full,
            shed: self.shed,
            deadline_shed: self.deadline_shed,
            expired: self.expired,
            evictions: self.evictions,
            evicted_frames: self.evicted_frames,
            outputs_dropped,
            latency_count: self.latency.count(),
            p50_ns: self.latency.quantile_ns(0.50),
            p99_ns: self.latency.quantile_ns(0.99),
            p999_ns: self.latency.quantile_ns(0.999),
            max_ns: self.latency.max_ns(),
            service_ewma_ns: self.service_ewma_ns,
            signature,
            policy: self.model.policy_name().to_string(),
            policy_layers,
            streams,
        }
    }
}
