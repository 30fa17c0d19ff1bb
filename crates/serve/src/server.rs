//! The [`StreamServer`]: the body of one [`crate::ShardedServer`] shard, N
//! independent frame streams multiplexed over one shared [`CompiledModel`].
//!
//! Each stream owns a [`ReuseSession`] (lazily created on first submit),
//! a bounded ingress queue of pending frames, and a bounded queue of
//! completed outputs. A scheduling tick walks every stream's ready frames
//! through the network together, one layer at a time, on the calling thread
//! (a [`Block`]). A tick is three steps: [`StreamServer::begin_tick`] moves
//! the ready rows and their streams' sessions into a [`TickJob`],
//! [`TickJob::walk`] runs the block on the job alone, and
//! [`StreamServer::finish_tick`] hands the sessions and outputs back. Only
//! the first and last need the server, so a shard's lock is free while the
//! block walks. Sessions never share mutable state, so outputs are
//! bit-identical to running each stream alone through its own standalone
//! session, under any interleaving and any shard count.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reuse_core::{Block, CompiledModel, ReuseSession, RowOutcome};

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
    /// The frame was load-shed: the stream is degraded (its session
    /// auto-disabled reuse layers whose calibration range was degenerate, so
    /// it runs at full-precision cost) and its queue is past the shed
    /// watermark. Dropping fresh frames keeps a degraded stream from
    /// starving healthy ones.
    Shed,
    /// The frame was load-shed because it is projected to miss its
    /// deadline: queued work × the observed per-frame service time
    /// (EWMA over recent ticks) already exceeds the slack the caller
    /// allowed. Shedding at ingress costs nothing; executing a frame whose
    /// result arrives too late costs a full forward pass.
    DeadlineShed,
}

/// Per-frame submission options: deadline and completion tag. The plain
/// [`ShardedServer::submit`](crate::ShardedServer::submit) uses
/// `SubmitOptions::default()`: no deadline, tag `0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Absolute completion deadline. Submits projected to miss it are
    /// rejected with [`SubmitResult::DeadlineShed`]; queued frames whose
    /// deadline has already passed when they reach the head of the queue
    /// are dropped (counted as `expired`) instead of executed.
    pub deadline: Option<Instant>,
    /// Opaque caller tag carried through to the frame's completion:
    /// reported by
    /// [`ShardedServer::drain_outputs_tagged`](crate::ShardedServer::drain_outputs_tagged)
    /// alongside the output, or by
    /// [`ShardedServer::drain_expired`](crate::ShardedServer::drain_expired)
    /// when the frame is dropped past-deadline. The network front-end uses
    /// it to pair responses with request sequence numbers; `0` by default.
    pub tag: u64,
}

impl SubmitOptions {
    /// Deadline `slack` from now.
    pub fn with_deadline(mut self, slack: Duration) -> Self {
        self.deadline = Some(Instant::now() + slack);
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

/// Queue depth at/above which a degraded stream's submits are shed (see
/// [`SubmitResult::Shed`]), clamped to the queue capacity.
const SHED_WATERMARK: usize = 16;

/// Configuration of each [`ShardedServer`](crate::ShardedServer) shard. All
/// knobs have serving-friendly defaults; setters consume and return `self`
/// like [`reuse_core::ReuseConfig`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    max_sessions: usize,
    queue_capacity: usize,
    batch_max: usize,
    sequence_len: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            queue_capacity: 32,
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

    /// Max ready units one stream may complete per tick (minimum 1) — a
    /// unit is one frame, or one sequence for recurrent models. Bounds how
    /// long a backlogged stream can hold up the others, whose frames share
    /// the tick's block with its.
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
        SHED_WATERMARK.min(self.queue_capacity)
    }
}

/// One queued input frame plus its enqueue timestamp (for the
/// submit-to-completion latency histogram) and deadline.
#[derive(Debug)]
struct QueuedFrame {
    data: Vec<f32>,
    enqueued: Instant,
    deadline: Option<Instant>,
    /// Caller tag, reported back on completion or expiry.
    tag: u64,
}

/// A stream's lifetime counters. Each has one owner: the live stream's
/// entry while it is in the pool, then the shard's `retired` total, into
/// which [`StreamServer::retire`] folds it.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    /// Frames accepted into the queue.
    frames_in: u64,
    /// Frames completed.
    frames_done: u64,
    /// Submits rejected with [`SubmitResult::QueueFull`].
    rejected_queue_full: u64,
    /// Submits rejected with [`SubmitResult::Shed`].
    shed: u64,
    /// Submits rejected with [`SubmitResult::DeadlineShed`].
    deadline_shed: u64,
    /// Queued frames dropped at execution time because their deadline had
    /// already passed.
    expired: u64,
    /// Completed outputs overwritten because the output queue was full
    /// (the caller stopped draining).
    outputs_dropped: u64,
}

impl std::ops::AddAssign<&Counters> for Counters {
    fn add_assign(&mut self, c: &Counters) {
        self.frames_in += c.frames_in;
        self.frames_done += c.frames_done;
        self.rejected_queue_full += c.rejected_queue_full;
        self.shed += c.shed;
        self.deadline_shed += c.deadline_shed;
        self.expired += c.expired;
        self.outputs_dropped += c.outputs_dropped;
    }
}

/// One stream's slot in the server: its session, bounded queues, and
/// recycling buffer lists. Everything here is preallocated at stream
/// creation so the steady-state submit/tick/drain cycle never allocates.
#[derive(Debug)]
struct StreamEntry {
    id: u64,
    /// Unique per entry, never reused: a tick hands a session back only to
    /// the entry that lent it, not to a later owner of the same id.
    serial: u64,
    /// The stream's session; `None` while its rows are inside a tick, whose
    /// [`TickJob`] holds it.
    session: Option<ReuseSession>,
    /// Pending input frames, oldest first (capacity = `queue_capacity`).
    queue: VecDeque<QueuedFrame>,
    /// The frames a tick took into its block, in order, until the tick
    /// hands them back (capacity = `batch_max` units).
    taken: Vec<QueuedFrame>,
    /// Recycled ingress frame buffers (queued and taken frames can all
    /// come back at once).
    frame_free: Vec<Vec<f32>>,
    /// Completed outputs with their caller tags, oldest first (capacity =
    /// `queue_capacity`).
    outputs: VecDeque<(u64, Vec<f32>)>,
    /// Recycled output buffers.
    out_free: Vec<Vec<f32>>,
    /// Tags of frames dropped past-deadline, oldest first (bounded like
    /// the output queue; oldest dropped if the caller never drains).
    expired_tags: VecDeque<u64>,
    /// Logical-clock value of the stream's last submit (LRU key).
    last_used: u64,
    /// Whether the session has auto-disabled any reuse layer (recomputed
    /// after each tick; drives the shed policy).
    degraded: bool,
    /// The session's overall input similarity, read at each hand-back so a
    /// snapshot needs no session.
    input_similarity: f64,
    /// Lifetime counters, folded into the shard's `retired` total when the
    /// stream leaves the pool.
    counters: Counters,
    /// First execution error, if any. The error is sticky: a failed stream
    /// stays failed (skipped by later ticks, zero ready units) until it is
    /// retired — it must never silently resume.
    error: Option<reuse_core::ReuseError>,
    /// Whether [`StreamServer::tick`] has already surfaced this stream's
    /// error to the caller (each failure is reported exactly once).
    error_reported: bool,
}

impl StreamEntry {
    fn new(id: u64, serial: u64, session: ReuseSession, config: &ServerConfig) -> Self {
        let taken = config.batch_max * config.sequence_len.max(1);
        StreamEntry {
            id,
            serial,
            input_similarity: session.metrics().overall_input_similarity(),
            session: Some(session),
            queue: VecDeque::with_capacity(config.queue_capacity),
            taken: Vec::with_capacity(taken),
            frame_free: Vec::with_capacity(config.queue_capacity + taken),
            outputs: VecDeque::with_capacity(config.queue_capacity),
            out_free: Vec::with_capacity(config.queue_capacity + 1),
            expired_tags: VecDeque::with_capacity(config.queue_capacity),
            last_used: 0,
            degraded: false,
            counters: Counters::default(),
            error: None,
            error_reported: false,
        }
    }

    /// Units ready to execute or executing: the units inside a tick, plus
    /// the queued ones — every queued frame for feed-forward streams, whole
    /// sequences only for recurrent ones. A failed stream's queued frames
    /// are not ready — they stay parked so drain loops spinning on
    /// [`StreamServer::ready_units`] terminate.
    fn ready_units(&self, sequence_len: usize) -> usize {
        let queued = if self.error.is_some() {
            0
        } else {
            self.queue.len()
        };
        (queued + self.taken.len()) / sequence_len.max(1)
    }

    /// Units a tick can take now: the queued ready ones, none while the
    /// session is inside another tick.
    fn takeable_units(&self, sequence_len: usize) -> usize {
        if self.error.is_some() || self.session.is_none() {
            return 0;
        }
        self.queue.len() / sequence_len.max(1)
    }

    /// Frames accepted and not yet completed, expired or failed: queued or
    /// inside a tick.
    fn pending(&self) -> usize {
        self.queue.len() + self.taken.len()
    }

    /// Pushes one completed output, recycling the oldest if the bounded
    /// output queue is full (the caller stopped draining).
    fn push_output(&mut self, tag: u64, out: Vec<f32>, cap: usize) {
        if self.outputs.len() >= cap {
            if let Some((_, old)) = self.outputs.pop_front() {
                self.out_free.push(old);
                self.counters.outputs_dropped += 1;
            }
        }
        self.outputs.push_back((tag, out));
    }

    /// Moves up to `batch_max` ready units — frames, or whole sequences of
    /// `sequence_len` frames for a recurrent stream — into the tick's block
    /// as units of the session at position `slot`, their data into `frames`,
    /// and returns the rows taken. A stream whose session is inside another
    /// tick takes none.
    /// A feed-forward frame whose deadline already passed is dropped here
    /// instead, still counting as one of the `batch_max`: its result would
    /// arrive too late to matter, and the forward pass it saves goes to
    /// frames that can still make their deadlines. A recurrent stream's
    /// frames never expire: dropping one timestep would shift every later
    /// sequence boundary.
    fn take_rows(
        &mut self,
        slot: usize,
        config: &ServerConfig,
        block: &mut Block,
        frames: &mut Vec<f32>,
    ) -> usize {
        if self.error.is_some() || self.session.is_none() {
            return 0;
        }
        let unit = config.sequence_len.max(1);
        for _ in 0..config.batch_max {
            if self.queue.len() < unit {
                break;
            }
            let taken = self.taken.len();
            for frame in self.queue.drain(..unit) {
                if config.sequence_len == 0 && frame.deadline.is_some_and(|d| Instant::now() > d) {
                    self.counters.expired += 1;
                    if self.expired_tags.len() >= config.queue_capacity {
                        self.expired_tags.pop_front();
                    }
                    self.expired_tags.push_back(frame.tag);
                    self.frame_free.push(frame.data);
                    continue;
                }
                frames.extend_from_slice(&frame.data);
                self.taken.push(frame);
            }
            if self.taken.len() > taken {
                block.push(slot, self.taken.len() - taken);
            }
        }
        self.taken.len()
    }

    /// Takes back this entry's session and its rows of the walked block,
    /// `rows`, and returns the frames completed: a finished row's output is
    /// queued, a failed one sets the sticky error, and frames after a
    /// failure — which never finished — go back to the head of the queue.
    /// Every latency is recorded here, at hand-back: a row's output becomes
    /// drainable only now, with the rest of its block.
    fn give_rows(
        &mut self,
        session: ReuseSession,
        block: &Block,
        rows: Range<usize>,
        config: &ServerConfig,
        latency: &LatencyHistogram,
    ) -> u64 {
        debug_assert_eq!(
            rows.len(),
            self.taken.len(),
            "a tick hands back what it took"
        );
        let done = self.counters.frames_done;
        let mut taken = std::mem::take(&mut self.taken);
        let outcomes = rows.map(|row| block.outcome(row));
        let skipped = outcomes
            .clone()
            .filter(|o| matches!(o, RowOutcome::Skipped))
            .count();
        for frame in taken.drain(taken.len() - skipped..).rev() {
            self.queue.push_front(frame);
        }
        for (frame, outcome) in taken.drain(..).zip(outcomes) {
            match outcome {
                RowOutcome::Done(output) => {
                    let mut out = self.out_free.pop().unwrap_or_default();
                    out.clear();
                    out.extend_from_slice(output);
                    latency.record(frame.enqueued.elapsed().as_nanos() as u64);
                    self.push_output(frame.tag, out, config.queue_capacity);
                    self.counters.frames_done += 1;
                }
                RowOutcome::Failed(e) => {
                    self.error.get_or_insert_with(|| e.clone());
                }
                RowOutcome::Skipped => unreachable!("skipped rows end the entry's rows"),
            }
            self.frame_free.push(frame.data);
        }
        self.taken = taken;
        self.degraded = session.auto_disabled_layers().next().is_some();
        self.input_similarity = session.metrics().overall_input_similarity();
        self.session = Some(session);
        self.counters.frames_done - done
    }
}

/// A session lent to a tick: which entry it came from, how many of the
/// block's rows are its, and the session itself, its place in the walk.
#[derive(Debug)]
struct Member {
    id: u64,
    /// The lending entry's [`StreamEntry::serial`].
    serial: u64,
    rows: usize,
    session: ReuseSession,
}

impl AsMut<ReuseSession> for Member {
    fn as_mut(&mut self) -> &mut ReuseSession {
        &mut self.session
    }
}

/// One tick's work, away from its server: the block, its rows' frames back
/// to back, and the sessions of the streams that took rows, in pool order.
/// [`StreamServer::begin_tick`] fills it, [`Self::walk`] runs it with no
/// server in reach, [`StreamServer::finish_tick`] empties it and keeps it
/// for the next tick, so its buffers are recycled like the streams' own.
#[derive(Debug)]
pub(crate) struct TickJob {
    block: Block,
    frames: Vec<f32>,
    members: Vec<Member>,
    started: Instant,
}

impl TickJob {
    fn new() -> Self {
        TickJob {
            block: Block::default(),
            frames: Vec::new(),
            members: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Walks the block: every lent session's rows through the network.
    pub(crate) fn walk(&mut self) {
        self.block.walk(&mut self.members, &self.frames);
    }
}

/// One shard of a [`ShardedServer`](crate::ShardedServer): a session pool,
/// ingress and output queues, and a latency histogram over one shared
/// [`CompiledModel`].
///
/// Serve through [`ShardedServer`](crate::ShardedServer) (`shards = 1` is
/// the single-shard server). Only [`new`](Self::new), [`submit`](Self::submit),
/// [`tick`](Self::tick) and [`drain_outputs`](Self::drain_outputs) are
/// public, because the repository benchmark's tier probe times exactly
/// those four calls on a bare shard; the type goes private once that probe
/// moves to `ShardedServer` (ROADMAP item 1A(a)).
///
/// **Determinism:** each stream's frames execute in submission order on
/// that stream's private session, so per-stream outputs and metrics are
/// bit-identical to a standalone [`ReuseSession`] fed the same frames,
/// however streams interleave.
///
/// **Allocation:** with feed-forward models the steady-state submit → tick
/// → drain cycle performs zero heap allocations: ingress frames, outputs,
/// and session intermediates all come from preallocated recycling lists,
/// and a recurrent model's sequences run under the same contract.
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
    /// The lifetime counters of every stream retired from the pool (the
    /// snapshot adds the live streams' own).
    retired: Counters,
    /// Streams retired by the LRU session-pool cap.
    evictions: u64,
    /// Queued frames and frames inside a tick discarded when their stream
    /// was retired.
    evicted_frames: u64,
    /// Total pending frames across streams, queued or inside a tick (kept so
    /// [`Self::pending`] and the per-submit deadline projection are O(1),
    /// not O(streams)).
    pending_total: usize,
    /// EWMA of the observed per-frame service time in nanoseconds over
    /// recent ticks; `0` until the first frame completes. This is the
    /// `s̄` in the projected-deadline-miss formula (DESIGN.md §13).
    service_ewma_ns: f64,
    /// The last finished tick's job, kept for the next one (`None` while
    /// a tick is out).
    spare_job: Option<TickJob>,
    /// The next entry's [`StreamEntry::serial`].
    next_serial: u64,
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
            retired: Counters::default(),
            evictions: 0,
            evicted_frames: 0,
            pending_total: 0,
            service_ewma_ns: 0.0,
            spare_job: Some(TickJob::new()),
            next_serial: 0,
        })
    }

    /// Whether a stream currently has a session in the pool.
    pub(crate) fn contains(&self, id: u64) -> bool {
        self.index.contains_key(&id)
    }

    /// A stream's session, for introspection (metrics, telemetry); `None`
    /// when the stream holds no session or its session is inside a tick.
    pub(crate) fn session(&self, id: u64) -> Option<&ReuseSession> {
        self.index
            .get(&id)
            .and_then(|&slot| self.entries[slot].session.as_ref())
    }

    /// Whether a stream's session is inside a tick.
    pub(crate) fn in_tick(&self, id: u64) -> bool {
        self.index
            .get(&id)
            .is_some_and(|&slot| self.entries[slot].session.is_none())
    }

    /// Whether a stream has failed (its sticky execution error is set). A
    /// failed stream is skipped by ticks until retired.
    pub(crate) fn stream_failed(&self, id: u64) -> bool {
        self.index
            .get(&id)
            .is_some_and(|&slot| self.entries[slot].error.is_some())
    }

    /// Marks a stream failed with `error`, as if one of its frames had
    /// errored during a tick. Returns `false` when the stream does not
    /// exist.
    pub(crate) fn inject_stream_error(&mut self, id: u64, error: reuse_core::ReuseError) -> bool {
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

    /// Frames accepted and not yet finished across all streams: queued or
    /// inside a tick.
    pub(crate) fn pending(&self) -> usize {
        self.pending_total
    }

    /// Execution units (frames, or whole sequences for recurrent models)
    /// ready to run or inside a tick.
    pub(crate) fn ready_units(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.ready_units(self.config.sequence_len))
            .sum()
    }

    /// Execution units a tick begun now would take: [`Self::ready_units`]
    /// less those inside a tick and those of streams whose session is.
    pub(crate) fn takeable_units(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.takeable_units(self.config.sequence_len))
            .sum()
    }

    /// The shard's lifetime counters: every retired stream's plus every
    /// live one's.
    fn totals(&self) -> Counters {
        let mut totals = self.retired;
        for e in &self.entries {
            totals += &e.counters;
        }
        totals
    }

    /// Frames completed across all streams (lifetime).
    pub(crate) fn frames_completed(&self) -> u64 {
        self.totals().frames_done
    }

    /// The submit-to-completion latency histogram.
    pub(crate) fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Submits one frame to a stream's ingress queue: the shard's half of
    /// [`ShardedServer::submit`](crate::ShardedServer::submit).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Reuse`] when the frame length does not match
    /// the model's input volume.
    pub fn submit(&mut self, id: u64, frame: &[f32]) -> Result<SubmitResult, ServeError> {
        self.submit_with(id, frame, SubmitOptions::default())
    }

    /// [`Self::submit`] with per-frame scheduling options (see
    /// [`crate::ShardedServer::submit_with`]).
    pub(crate) fn submit_with(
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
            entry.counters.rejected_queue_full += 1;
            return Ok(SubmitResult::QueueFull);
        }
        if entry.degraded && entry.queue.len() >= watermark {
            entry.counters.shed += 1;
            return Ok(SubmitResult::Shed);
        }
        if let Some(deadline) = opts.deadline {
            if projected_ns > 0 && Instant::now() + Duration::from_nanos(projected_ns) > deadline {
                entry.counters.deadline_shed += 1;
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
            tag: opts.tag,
        });
        entry.counters.frames_in += 1;
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
        let serial = self.next_serial;
        self.next_serial += 1;
        self.entries.push(StreamEntry::new(
            id,
            serial,
            self.model.new_session(),
            &self.config,
        ));
        self.index.insert(id, slot);
        slot
    }

    /// Evicts the least-recently-used stream (counted in `evictions`).
    fn evict_lru(&mut self) {
        let lru = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_used);
        if let Some((slot, _)) = lru {
            self.retire(slot);
            self.evictions += 1;
        }
    }

    /// Closes a stream (see
    /// [`ShardedServer::close_stream`](crate::ShardedServer::close_stream)).
    pub(crate) fn close_stream(&mut self, id: u64) -> bool {
        let Some(&slot) = self.index.get(&id) else {
            return false;
        };
        self.retire(slot);
        true
    }

    /// The one way a stream leaves the pool: resets the session's buffered
    /// state and drops the entry with its queues and buffer pools. Queued
    /// frames and frames inside a tick are discarded (counted in
    /// `evicted_frames`), undrained outputs and expiry tags go with them,
    /// and the stream's lifetime counters fold into `retired`. A session
    /// inside a tick is dropped when the tick hands it back, which finds no
    /// entry of its serial. The id's next submit starts a fresh session.
    fn retire(&mut self, slot: usize) {
        let mut entry = self.entries.swap_remove(slot);
        self.index.remove(&entry.id);
        // The session is about to be dropped; reset_state releases its
        // buffered per-layer state eagerly (and makes the session inert if
        // anything still holds it through shared introspection).
        if let Some(session) = &mut entry.session {
            session.reset_state();
        }
        self.evicted_frames += entry.pending() as u64;
        self.pending_total -= entry.pending();
        self.retired += &entry.counters;
        // swap_remove moved the tail entry into `slot`: fix its index.
        if let Some(moved) = self.entries.get(slot) {
            self.index.insert(moved.id, slot);
        }
    }

    /// Runs one scheduling tick of this shard on the calling thread, one
    /// [`Block`] walk (see [`ShardedServer::tick_all`](crate::ShardedServer::tick_all)):
    /// the tick's three steps — take the rows, walk them, hand the results
    /// back — in a row.
    ///
    /// # Errors
    ///
    /// Returns the first not-yet-reported stream execution error.
    pub fn tick(&mut self) -> Result<TickStats, ServeError> {
        let mut job = self.begin_tick();
        job.walk();
        self.finish_tick(job)
    }

    /// Starts a tick: checks expiry, takes every stream's ready rows and
    /// lends the session of each stream that took some to the returned
    /// job. Until [`Self::finish_tick`] those streams take no rows; they
    /// still accept submits, drain finished outputs and can be retired.
    pub(crate) fn begin_tick(&mut self) -> TickJob {
        self.ticks += 1;
        let mut job = self.spare_job.take().unwrap_or_else(TickJob::new);
        job.started = Instant::now();
        job.block.clear();
        job.frames.clear();
        for entry in &mut self.entries {
            let slot = job.members.len();
            let rows = entry.take_rows(slot, &self.config, &mut job.block, &mut job.frames);
            if rows > 0 {
                job.members.push(Member {
                    id: entry.id,
                    serial: entry.serial,
                    rows,
                    session: entry
                        .session
                        .take()
                        .expect("a stream that took rows has its session"),
                });
            }
        }
        // Frames that expired as they were taken are no longer pending.
        self.pending_total = self.entries.iter().map(StreamEntry::pending).sum();
        job
    }

    /// Ends a tick begun by [`Self::begin_tick`]: hands each lent session
    /// back with its rows' outcomes, to the entry that lent it — a stream
    /// retired meanwhile has no entry of that serial, so its session and
    /// outputs are dropped — and keeps the job for the next tick.
    ///
    /// # Errors
    ///
    /// Returns the first not-yet-reported stream execution error, whether
    /// or not its stream took rows.
    pub(crate) fn finish_tick(&mut self, mut job: TickJob) -> Result<TickStats, ServeError> {
        let mut stats = TickStats::default();
        let mut first = 0;
        for member in job.members.drain(..) {
            let rows = first..first + member.rows;
            first = rows.end;
            let lender = self
                .index
                .get(&member.id)
                .map(|&slot| &mut self.entries[slot])
                .filter(|entry| entry.serial == member.serial);
            let Some(entry) = lender else {
                continue;
            };
            let frames = entry.give_rows(
                member.session,
                &job.block,
                rows,
                &self.config,
                &self.latency,
            );
            stats.frames += frames;
            stats.streams += usize::from(frames > 0);
        }
        let mut first_error = None;
        for entry in &mut self.entries {
            if first_error.is_none() && !entry.error_reported {
                if let Some(e) = &entry.error {
                    first_error = Some(e.clone());
                    entry.error_reported = true;
                }
            }
        }
        self.pending_total = self.entries.iter().map(StreamEntry::pending).sum();
        if stats.frames > 0 {
            // Observed per-frame service time this tick, folded into the
            // EWMA the deadline projection reads (α = 0.25; the first
            // observation seeds the estimate directly).
            let per_frame = job.started.elapsed().as_nanos() as f64 / stats.frames as f64;
            self.service_ewma_ns = if self.service_ewma_ns == 0.0 {
                per_frame
            } else {
                0.75 * self.service_ewma_ns + 0.25 * per_frame
            };
        }
        self.spare_job = Some(job);
        match first_error {
            Some(e) => Err(ServeError::Reuse(e)),
            None => Ok(stats),
        }
    }

    /// Drains a stream's completed outputs in completion order (see
    /// [`ShardedServer::drain_outputs`](crate::ShardedServer::drain_outputs)).
    pub fn drain_outputs(&mut self, id: u64, mut f: impl FnMut(&[f32])) -> usize {
        self.drain_outputs_tagged(id, |_, out| f(out))
    }

    /// [`Self::drain_outputs`], additionally passing each output's
    /// submission tag ([`SubmitOptions::tagged`]). Allocation-free.
    pub(crate) fn drain_outputs_tagged(
        &mut self,
        id: u64,
        mut f: impl FnMut(u64, &[f32]),
    ) -> usize {
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
    pub(crate) fn drain_expired(&mut self, id: u64, mut f: impl FnMut(u64)) -> usize {
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

    /// Builds an owned snapshot of the server's aggregate and per-stream
    /// state. Allocates — call from reporting paths, not per tick.
    pub(crate) fn snapshot(&self) -> ServerSnapshot {
        let totals = self.totals();
        let streams = self
            .entries
            .iter()
            .map(|e| StreamSnapshot {
                id: e.id,
                frames_in: e.counters.frames_in,
                frames_done: e.counters.frames_done,
                queue_len: e.queue.len(),
                rejected_queue_full: e.counters.rejected_queue_full,
                shed: e.counters.shed,
                deadline_shed: e.counters.deadline_shed,
                expired: e.counters.expired,
                degraded: e.degraded,
                failed: e.error.is_some(),
                input_similarity: e.input_similarity,
            })
            .collect();
        ServerSnapshot {
            network: self.model.network().name().to_string(),
            active_streams: self.entries.len(),
            max_sessions: self.config.max_sessions,
            ticks: self.ticks,
            frames_submitted: totals.frames_in,
            frames_completed: totals.frames_done,
            rejected_queue_full: totals.rejected_queue_full,
            shed: totals.shed,
            deadline_shed: totals.deadline_shed,
            expired: totals.expired,
            evictions: self.evictions,
            evicted_frames: self.evicted_frames,
            outputs_dropped: totals.outputs_dropped,
            latency_count: self.latency.count(),
            p50_ns: self.latency.quantile_ns(0.50),
            p99_ns: self.latency.quantile_ns(0.99),
            p999_ns: self.latency.quantile_ns(0.999),
            max_ns: self.latency.max_ns(),
            service_ewma_ns: self.service_ewma_ns,
            streams,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuse_core::ReuseConfig;
    use reuse_nn::{init::Rng64, Activation, Network, NetworkBuilder};

    fn mlp() -> Network {
        NetworkBuilder::new("tick-mlp", 12)
            .seed(5)
            .fully_connected(24, Activation::Relu)
            .fully_connected(4, Activation::Identity)
            .build()
            .unwrap()
    }

    fn rnn() -> Network {
        NetworkBuilder::new("tick-rnn", 10)
            .seed(7)
            .lstm(8)
            .fully_connected(3, Activation::Identity)
            .build()
            .unwrap()
    }

    fn server(net: &Network, config: ServerConfig) -> (Arc<CompiledModel>, StreamServer) {
        let model = Arc::new(CompiledModel::new(net, &ReuseConfig::uniform(16)));
        let server = StreamServer::new(Arc::clone(&model), config).unwrap();
        (model, server)
    }

    /// A smooth random walk of `len` frames of `dim` values.
    fn frames(len: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Rng64::new(seed);
        let mut frame: Vec<f32> = (0..dim).map(|_| rng.uniform(0.5)).collect();
        (0..len)
            .map(|_| {
                frame
                    .iter_mut()
                    .for_each(|v| *v = (*v + rng.uniform(0.05)).clamp(-1.0, 1.0));
                frame.clone()
            })
            .collect()
    }

    /// `frames` through a fresh session, as sequences of `sequence_len`
    /// when it is nonzero: the outputs and the session.
    fn standalone(
        model: &Arc<CompiledModel>,
        frames: &[Vec<f32>],
        sequence_len: usize,
    ) -> (Vec<Vec<f32>>, ReuseSession) {
        let mut session = model.new_session();
        let outputs = if sequence_len > 0 {
            frames
                .chunks(sequence_len)
                .flat_map(|seq| session.execute_sequence(seq).unwrap())
                .map(|t| t.as_slice().to_vec())
                .collect()
        } else {
            frames
                .iter()
                .map(|frame| {
                    let mut out = Vec::new();
                    session.execute_into(frame, &mut out).unwrap();
                    out
                })
                .collect()
        };
        (outputs, session)
    }

    fn submit_all(server: &mut StreamServer, id: u64, frames: &[Vec<f32>]) {
        for frame in frames {
            assert_eq!(server.submit(id, frame).unwrap(), SubmitResult::Accepted);
        }
    }

    fn drain(server: &mut StreamServer, id: u64) -> Vec<Vec<f32>> {
        let mut outs = Vec::new();
        server.drain_outputs(id, |out| outs.push(out.to_vec()));
        outs
    }

    fn assert_bits_eq(a: &[Vec<f32>], b: &[Vec<f32>]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    /// Every accepted frame is completed, expired, evicted or pending.
    fn assert_balanced(server: &StreamServer) {
        let snap = server.snapshot();
        assert_eq!(
            snap.frames_submitted,
            snap.frames_completed + snap.expired + snap.evicted_frames + server.pending() as u64
        );
    }

    /// The stream `id`'s outputs and session match a fresh standalone
    /// session fed `frames`, bit for bit.
    fn assert_fresh(
        server: &StreamServer,
        model: &Arc<CompiledModel>,
        id: u64,
        outs: &[Vec<f32>],
        frames: &[Vec<f32>],
    ) {
        let (expected, alone) = standalone(model, frames, 0);
        assert_bits_eq(outs, &expected);
        assert_eq!(server.session(id).unwrap().metrics(), alone.metrics());
    }

    #[test]
    fn a_stream_closed_inside_a_tick_never_reaches_the_next_owner() {
        let (model, mut server) = server(&mlp(), ServerConfig::default().batch_max(4));
        let old = frames(3, 12, 1);
        let other = frames(3, 12, 2);
        let new = frames(2, 12, 3);
        submit_all(&mut server, 1, &old);
        submit_all(&mut server, 2, &other);

        let mut job = server.begin_tick();
        assert!(server.in_tick(1));
        assert!(server.close_stream(1));
        assert_eq!(
            server.snapshot().evicted_frames,
            3,
            "its taken frames are evicted"
        );
        submit_all(&mut server, 1, &new);
        assert!(!server.in_tick(1), "the new owner has a session of its own");
        assert_eq!(server.pending(), 3 + 2);
        assert_balanced(&server);
        job.walk();
        let stats = server.finish_tick(job).unwrap();
        assert_eq!(
            stats,
            TickStats {
                frames: 3,
                streams: 1
            }
        );
        assert!(
            drain(&mut server, 1).is_empty(),
            "the old owner's outputs are gone"
        );
        assert_balanced(&server);

        server.tick().unwrap();
        let outs = drain(&mut server, 1);
        assert_fresh(&server, &model, 1, &outs, &new);
        assert_bits_eq(&drain(&mut server, 2), &standalone(&model, &other, 0).0);
        assert_eq!(server.pending(), 0);
        assert_balanced(&server);
    }

    #[test]
    fn a_stream_evicted_inside_a_tick_never_reaches_the_next_owner() {
        let config = ServerConfig::default().batch_max(4).max_sessions(2);
        let (model, mut server) = server(&mlp(), config);
        submit_all(&mut server, 1, &frames(3, 12, 1));
        submit_all(&mut server, 2, &frames(3, 12, 2));

        let mut job = server.begin_tick();
        // Each new stream evicts the least recently used one, both in
        // the tick: 1 for 3, then 2 for 1's next owner.
        let third = frames(2, 12, 3);
        let new = frames(2, 12, 4);
        submit_all(&mut server, 3, &third);
        submit_all(&mut server, 1, &new);
        let snap = server.snapshot();
        assert_eq!((snap.evictions, snap.evicted_frames), (2, 6));
        assert!(!server.contains(2));
        job.walk();
        let stats = server.finish_tick(job).unwrap();
        assert_eq!(
            stats,
            TickStats::default(),
            "both lent sessions are dropped"
        );
        assert!(drain(&mut server, 1).is_empty());
        assert_balanced(&server);

        server.tick().unwrap();
        let outs = drain(&mut server, 1);
        assert_fresh(&server, &model, 1, &outs, &new);
        let outs = drain(&mut server, 3);
        assert_fresh(&server, &model, 3, &outs, &third);
        assert_balanced(&server);
    }

    #[test]
    fn the_tier_keeps_serving_during_a_walk() {
        let (model, mut server) = server(&mlp(), ServerConfig::default());
        let streams: Vec<Vec<Vec<f32>>> = (1..=3).map(|s| frames(6, 12, s)).collect();
        for (id, f) in (1..).zip(&streams) {
            submit_all(&mut server, id, &f[..2]);
        }
        server.tick().unwrap();
        for (id, f) in (1..).zip(&streams) {
            submit_all(&mut server, id, &f[2..4]);
        }

        let mut job = server.begin_tick();
        assert_eq!(server.takeable_units(), 0);
        for (id, f) in (1..).zip(&streams) {
            submit_all(&mut server, id, &f[4..]);
        }
        assert_eq!(server.pending(), 12, "six frames in the tick, six queued");
        assert_eq!(server.ready_units(), 12);
        assert_eq!(server.takeable_units(), 0, "their sessions are in the tick");
        let mut outs = drain(&mut server, 1);
        assert_eq!(outs.len(), 2, "the first tick's outputs drain mid-walk");
        let snap = server.snapshot();
        assert_eq!((snap.frames_submitted, snap.frames_completed), (18, 6));
        assert_eq!(snap.streams.iter().map(|s| s.queue_len).sum::<usize>(), 6);
        let injected = reuse_core::ReuseError::Nn(reuse_nn::NnError::InputShape {
            expected: 12,
            actual: 11,
        });
        assert!(server.inject_stream_error(3, injected));
        assert!(server.stream_failed(3));
        job.walk();
        let err = server.finish_tick(job).unwrap_err();
        assert!(
            matches!(err, ServeError::Reuse(_)),
            "the injected error surfaces once"
        );
        assert_eq!(
            server.ready_units(),
            4,
            "stream 3's queued frames are parked"
        );
        assert_eq!(server.takeable_units(), 4);

        let stats = server.tick().unwrap();
        assert_eq!(
            stats,
            TickStats {
                frames: 4,
                streams: 2
            },
            "every frame that arrived"
        );
        outs.extend(drain(&mut server, 1));
        assert_fresh(&server, &model, 1, &outs, &streams[0]);
        let outs = drain(&mut server, 2);
        assert_fresh(&server, &model, 2, &outs, &streams[1]);
        assert_balanced(&server);
    }

    #[test]
    fn recurrent_sequences_keep_their_order_across_a_walk() {
        let config = ServerConfig::default().sequence_len(3).queue_capacity(12);
        let (model, mut server) = server(&rnn(), config);
        let streams: Vec<Vec<Vec<f32>>> = (1..=2).map(|s| frames(12, 10, s)).collect();
        for (id, f) in (1..).zip(&streams) {
            submit_all(&mut server, id, &f[..6]);
        }
        let mut job = server.begin_tick();
        for (id, f) in (1..).zip(&streams) {
            submit_all(&mut server, id, &f[6..11]);
        }
        assert_eq!(server.pending(), 12 + 10);
        assert_eq!(
            server.ready_units(),
            4 + 2,
            "two sequences each in the tick, one queued"
        );
        job.walk();
        assert_eq!(server.finish_tick(job).unwrap().frames, 12);
        assert_eq!(
            server.tick().unwrap().frames,
            6,
            "every whole sequence that arrived"
        );
        for (id, f) in (1..).zip(&streams) {
            submit_all(&mut server, id, &f[11..]);
        }
        server.tick().unwrap();
        for (id, f) in (1..).zip(&streams) {
            let (expected, alone) = standalone(&model, f, 3);
            assert_bits_eq(&drain(&mut server, id), &expected);
            assert_eq!(server.session(id).unwrap().metrics(), alone.metrics());
        }
        assert_balanced(&server);
    }
}
