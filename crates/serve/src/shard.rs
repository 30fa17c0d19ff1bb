//! The serving tier: N independent [`StreamServer`] shards behind one
//! façade, so aggregate throughput scales with cores instead of queueing
//! every stream behind a single tick loop. One shard is the single-shard
//! server; every caller serves through [`ShardedServer`].
//!
//! Streams are hashed to shards by id (Fibonacci hashing), so a stream's
//! whole life — session, ingress queue, outputs, latency samples — stays on
//! one shard and the per-core working set (quantized-input memory, buffered
//! layer outputs) stays resident. Shards are the serving tier's only
//! threads: a shard's tick is a serial loop, and shards never take work
//! from each other, which keeps the bit-identity argument local: a sharded
//! server over any shard count produces exactly the per-stream outputs of a
//! single-shard one.
//!
//! All shards clone one `Arc<CompiledModel>`, so they share the model's
//! immutable artifacts (network, plan, packed weights) and nothing else: an
//! evicted stream that comes back starts from a fresh session.
//!
//! Two driving modes:
//!
//! * **Passive** — the caller ticks every shard itself
//!   ([`ShardedServer::tick_all`]). Deterministic; what the bit-identity
//!   tests and the CLI smoke use.
//! * **Threaded** — [`ShardWorkers::start`] spawns one dedicated worker
//!   thread per shard that ticks whenever the shard has ready work and
//!   parks on a condvar otherwise. Submits and drains stay synchronous
//!   and non-blocking (they take the shard lock briefly); this is what
//!   `serve-net` and the open-loop benchmark run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use reuse_core::{CompiledModel, ReuseError, ReuseSession};

use crate::error::ServeError;
use crate::histogram::LatencyHistogram;
use crate::server::{ServerConfig, StreamServer, SubmitOptions, SubmitResult, TickStats};
use crate::snapshot::{ServerSnapshot, ShardedSnapshot};

/// One shard: a [`StreamServer`] behind a mutex, plus the condvar its
/// dedicated worker parks on.
struct Shard {
    server: Mutex<StreamServer>,
    /// Signalled on every accepted submit so a parked worker wakes.
    work: Condvar,
}

impl Shard {
    /// Locks the shard's server, recovering from a poisoned lock (a panic
    /// in one worker must not wedge every later submit into panics too).
    fn lock(&self) -> MutexGuard<'_, StreamServer> {
        self.server.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A multi-stream serving runtime over one shared [`CompiledModel`]:
/// stream-id-hashed shards, each owning its own session pool, ingress
/// queues, and latency histogram.
///
/// Lifecycle: [`submit`](Self::submit) frames tagged with a stream id
/// (sessions are created lazily, the least-recently-used stream of a shard
/// is evicted past [`ServerConfig::max_sessions`]), let them run — call
/// [`tick_all`](Self::tick_all), or start [`ShardWorkers`] — and
/// [`drain_outputs`](Self::drain_outputs) to consume results in order.
///
/// **Determinism:** each stream's frames execute in submission order on
/// that stream's private session, so per-stream outputs and metrics are
/// bit-identical to a standalone [`ReuseSession`] fed the same frames,
/// however streams interleave and whatever the shard count
/// (property-tested in `tests/serve.rs` and `tests/sharded.rs`).
///
/// **Allocation:** with feed-forward models the steady-state submit → tick
/// → drain cycle performs zero heap allocations: ingress frames, outputs,
/// and session intermediates all come from preallocated recycling lists
/// (enforced by the counting-allocator test in `tests/alloc.rs`), and a
/// recurrent model's sequences run under the same contract.
///
/// `&self` methods take per-shard locks internally, so one
/// `Arc<ShardedServer>` can be driven from many threads: network
/// connections submitting, per-shard workers ticking, a reporter
/// snapshotting.
pub struct ShardedServer {
    shards: Vec<Shard>,
}

impl std::fmt::Debug for ShardedServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedServer")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

/// The detected number of hardware threads (`1` when detection fails).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Default shard count for a host: one shard per hardware thread, capped
/// at 8 (past that, shards outnumber the streams most workloads offer and
/// per-shard pools fragment the LRU budget for no throughput gain).
pub fn default_shards() -> usize {
    hardware_threads().clamp(1, 8)
}

impl ShardedServer {
    /// Creates `shards` independent shards over clones of one compiled
    /// model. `shards` is clamped to at least 1. The [`ServerConfig`]
    /// applies per shard — note that [`ServerConfig::max_sessions`] is
    /// therefore a *per-shard* cap (total capacity = shards × max_sessions,
    /// assuming even hashing).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] when [`ServerConfig::sequence_len`]
    /// does not match the model (recurrent networks need a nonzero
    /// sequence length that fits the queue; feed-forward networks need 0).
    pub fn new(
        model: Arc<CompiledModel>,
        config: ServerConfig,
        shards: usize,
    ) -> Result<Self, ServeError> {
        let shards = shards.max(1);
        let mut vec = Vec::with_capacity(shards);
        for _ in 0..shards {
            vec.push(Shard {
                server: Mutex::new(StreamServer::new(Arc::clone(&model), config.clone())?),
                work: Condvar::new(),
            });
        }
        Ok(ShardedServer { shards: vec })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a stream id maps to. Fibonacci hashing (multiply by
    /// 2⁶⁴/φ, keep the high bits) so dense sequential ids — the common
    /// case for connection-assigned stream ids — spread evenly instead of
    /// all landing on `id % shards`' low-bit pattern.
    fn shard_of(&self, id: u64) -> &Shard {
        let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Submits one frame to its stream's ingress queue on the owning
    /// shard. Creates the stream's session lazily on first submit
    /// (evicting the shard's least-recently-used stream when its pool is at
    /// [`ServerConfig::max_sessions`]); applies the queue-full and
    /// load-shedding backpressure policies. Takes that shard's lock
    /// briefly; on acceptance, wakes the shard's worker if one is parked.
    ///
    /// Steady-state submits (existing stream, recycled buffer available)
    /// perform zero heap allocations.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Reuse`] when the frame length does not match
    /// the model's input volume.
    pub fn submit(&self, id: u64, frame: &[f32]) -> Result<SubmitResult, ServeError> {
        self.submit_with(id, frame, SubmitOptions::default())
    }

    /// [`Self::submit`] with per-frame scheduling options: an absolute
    /// completion deadline, an ingress priority lane and a completion tag.
    ///
    /// With a deadline set, the submit is additionally subject to the
    /// **projected-deadline-miss** policy: if the shard's queued work × its
    /// observed per-frame service time (EWMA over recent ticks) already
    /// reaches past the deadline, the frame is rejected with
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
        &self,
        id: u64,
        frame: &[f32],
        opts: SubmitOptions,
    ) -> Result<SubmitResult, ServeError> {
        let shard = self.shard_of(id);
        let result = shard.lock().submit_with(id, frame, opts);
        if matches!(result, Ok(SubmitResult::Accepted)) {
            shard.work.notify_one();
        }
        result
    }

    /// Drains a stream's completed outputs in completion order, invoking
    /// `f` with each flat output and recycling the buffer. Returns the
    /// number of outputs drained. Allocation-free.
    pub fn drain_outputs(&self, id: u64, f: impl FnMut(&[f32])) -> usize {
        self.shard_of(id).lock().drain_outputs(id, f)
    }

    /// [`Self::drain_outputs`], additionally passing each output's
    /// submission tag ([`SubmitOptions::tagged`]) — how the network
    /// front-end pairs completions with request sequence numbers.
    pub fn drain_outputs_tagged(&self, id: u64, f: impl FnMut(u64, &[f32])) -> usize {
        self.shard_of(id).lock().drain_outputs_tagged(id, f)
    }

    /// Drains the tags of a stream's frames dropped past-deadline since the
    /// last call, oldest first (see [`SubmitOptions::with_deadline`]).
    /// Returns the number drained. Allocation-free.
    pub fn drain_expired(&self, id: u64, f: impl FnMut(u64)) -> usize {
        self.shard_of(id).lock().drain_expired(id, f)
    }

    /// Whether a stream currently has a session in its shard's pool.
    pub fn contains(&self, id: u64) -> bool {
        self.shard_of(id).lock().contains(id)
    }

    /// Whether a stream has a sticky execution error. A failed stream is
    /// skipped by ticks until evicted.
    pub fn stream_failed(&self, id: u64) -> bool {
        self.shard_of(id).lock().stream_failed(id)
    }

    /// Runs `f` on a stream's session under its shard's lock — metrics,
    /// watchdog counters, auto-disabled layers. `None` when the stream
    /// holds no session.
    pub fn with_session<R>(&self, id: u64, f: impl FnOnce(&ReuseSession) -> R) -> Option<R> {
        self.shard_of(id).lock().session(id).map(f)
    }

    /// Marks a stream failed with `error`, as if one of its frames had
    /// errored during a tick. Returns `false` when the stream does not
    /// exist. Test hook for the sticky-error path: real execution errors
    /// are unreachable through `submit`'s pre-validation.
    #[doc(hidden)]
    pub fn inject_stream_error(&self, id: u64, error: ReuseError) -> bool {
        self.shard_of(id).lock().inject_stream_error(id, error)
    }

    /// Ticks every shard once, in shard order (passive driving mode —
    /// deterministic). A shard's tick runs every stream with ready units
    /// through up to [`ServerConfig::batch_max`] of them, in submission
    /// order, streams whose head frame is high-priority first; the frames
    /// it takes — whole sequences for a recurrent model — walk the network
    /// together as one block, one layer at a time. Returns the summed
    /// stats.
    ///
    /// # Errors
    ///
    /// Returns the first not-yet-reported stream execution error, after
    /// every shard has still been ticked. The error stays on the stream
    /// (sticky): the failed stream is skipped by every later tick and never
    /// silently resumes, but each failure is surfaced exactly once.
    pub fn tick_all(&self) -> Result<TickStats, ServeError> {
        let mut stats = TickStats::default();
        let mut first_error = None;
        for shard in &self.shards {
            match shard.lock().tick() {
                Ok(t) => {
                    stats.frames += t.frames;
                    stats.streams += t.streams;
                }
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        first_error.map_or(Ok(stats), Err)
    }

    /// Execution units (frames, or whole sequences for recurrent models)
    /// ready across all shards. A failed stream's parked frames are not
    /// ready work.
    pub fn ready_units(&self) -> usize {
        self.shards.iter().map(|s| s.lock().ready_units()).sum()
    }

    /// Queued (not yet executed) frames across all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.lock().pending()).sum()
    }

    /// Frames completed across all shards (lifetime).
    pub fn frames_completed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().frames_completed())
            .sum()
    }

    /// Merges every shard's latency histogram into one server-wide view.
    /// Allocates the result; reporting path only.
    pub fn merged_latency(&self) -> LatencyHistogram {
        let merged = LatencyHistogram::new();
        for s in &self.shards {
            merged.merge(s.lock().latency());
        }
        merged
    }

    /// Clears every shard's latency histogram (benchmark warm-up reset).
    /// Counters are untouched; only the recorded samples are discarded.
    pub fn clear_latency(&self) {
        for s in &self.shards {
            s.lock().latency().clear();
        }
    }

    /// Builds per-shard snapshots plus the merged latency view. Takes each
    /// shard lock in turn (not a globally atomic cut — counters may move
    /// between shard visits while workers run). Allocates — call from
    /// reporting paths, not per tick.
    pub fn snapshot(&self) -> ShardedSnapshot {
        let shards: Vec<ServerSnapshot> = self.shards.iter().map(|s| s.lock().snapshot()).collect();
        let latency = self.merged_latency();
        ShardedSnapshot {
            p50_ns: latency.p50_ns(),
            p99_ns: latency.p99_ns(),
            p999_ns: latency.p999_ns(),
            max_ns: latency.max_ns(),
            latency_count: latency.count(),
            shards,
        }
    }
}

/// Dedicated per-shard worker threads driving a [`ShardedServer`].
///
/// Each worker loops on its shard: tick while the shard has ready units,
/// park on the shard's condvar (with a short timeout, so recurrent models
/// whose sequences fill while the worker sleeps are still picked up)
/// otherwise. Stream execution errors are sticky on their stream inside
/// the shard; workers additionally collect the first few into a side
/// buffer readable via [`ShardWorkers::take_errors`].
///
/// Dropping the handle stops and joins all workers.
#[derive(Debug)]
pub struct ShardWorkers {
    server: Arc<ShardedServer>,
    stop: Arc<AtomicBool>,
    errors: Arc<Mutex<Vec<ServeError>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Cap on buffered worker-side errors (each stream's error is sticky and
/// reported once, so this bounds memory under mass failure).
const MAX_BUFFERED_ERRORS: usize = 64;

impl ShardWorkers {
    /// Spawns one worker thread per shard of `server`.
    pub fn start(server: Arc<ShardedServer>) -> ShardWorkers {
        let stop = Arc::new(AtomicBool::new(false));
        let errors = Arc::new(Mutex::new(Vec::new()));
        let handles = (0..server.shard_count())
            .map(|s| {
                let server = Arc::clone(&server);
                let stop = Arc::clone(&stop);
                let errors = Arc::clone(&errors);
                std::thread::Builder::new()
                    .name(format!("reuse-shard-{s}"))
                    .spawn(move || worker_loop(&server, s, &stop, &errors))
                    .expect("spawn shard worker")
            })
            .collect();
        ShardWorkers {
            server,
            stop,
            errors,
            handles,
        }
    }

    /// The served [`ShardedServer`].
    pub fn server(&self) -> &Arc<ShardedServer> {
        &self.server
    }

    /// Takes the stream execution errors workers have collected so far
    /// (each underlying failure appears at most once; see
    /// [`ShardedServer::tick_all`]).
    pub fn take_errors(&self) -> Vec<ServeError> {
        std::mem::take(&mut *self.errors.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Signals all workers to stop and joins them. Idempotent; also runs
    /// on drop.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for shard in &self.server.shards {
            shard.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ShardWorkers {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Body of one shard worker thread: tick while ready, park otherwise.
fn worker_loop(
    server: &ShardedServer,
    s: usize,
    stop: &AtomicBool,
    errors: &Mutex<Vec<ServeError>>,
) {
    let shard = &server.shards[s];
    let mut guard = shard.lock();
    while !stop.load(Ordering::SeqCst) {
        if guard.ready_units() > 0 {
            if let Err(e) = guard.tick() {
                let mut buf = errors.lock().unwrap_or_else(PoisonError::into_inner);
                if buf.len() < MAX_BUFFERED_ERRORS {
                    buf.push(e);
                }
            }
        } else {
            // Park until a submit signals work (or a short timeout — a
            // recurrent stream's sequence can become ready without a fresh
            // notify when frames arrived while we were ticking).
            guard = shard
                .work
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}
