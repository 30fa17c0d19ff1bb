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
//!   and non-blocking: a tick holds the shard lock only while it takes its
//!   rows and while it hands the results back, never across the block walk
//!   between, so a submit or drain waits at most for one of those moves.
//!   This is what `serve-net` and the open-loop benchmark run. A caller
//!   that waits for results on something other than the shard lock — the
//!   network event loop, blocked in `poll(2)` — registers a completion
//!   waker ([`ShardedServer::set_completion_waker`]) that every worker tick
//!   calls.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use reuse_core::{CompiledModel, ReuseError, ReuseSession};

use crate::error::ServeError;
use crate::histogram::LatencyHistogram;
use crate::server::{ServerConfig, StreamServer, SubmitOptions, SubmitResult, TickStats};
use crate::snapshot::{ServerSnapshot, ShardedSnapshot};

/// One shard: a [`StreamServer`] behind a mutex, plus the condvars its
/// dedicated worker and its session readers park on.
struct Shard {
    server: Mutex<StreamServer>,
    /// Signalled on every accepted submit so a parked worker wakes.
    work: Condvar,
    /// Signalled after every hand-back, so a [`ShardedServer::with_session`]
    /// waiting for a session inside a tick wakes.
    handed_back: Condvar,
}

impl Shard {
    /// Locks the shard's server, recovering from a poisoned lock (a panic
    /// in one worker must not wedge every later submit into panics too).
    fn lock(&self) -> MutexGuard<'_, StreamServer> {
        self.server.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs one tick on the shard `guard` has locked: takes the rows under
    /// it, walks them with the lock released, and relocks to hand the
    /// results back, waking whoever waits on a hand-back. Returns the new
    /// guard.
    fn tick<'a>(
        &'a self,
        mut guard: MutexGuard<'a, StreamServer>,
    ) -> (MutexGuard<'a, StreamServer>, Result<TickStats, ServeError>) {
        let mut job = guard.begin_tick();
        drop(guard);
        job.walk();
        let mut guard = self.lock();
        let result = guard.finish_tick(job);
        self.handed_back.notify_all();
        (guard, result)
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
    /// Called by a shard worker after each of its ticks; unset unless a
    /// caller waits for results off the shard lock.
    completion_waker: OnceLock<Box<dyn Fn() + Send + Sync>>,
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
                handed_back: Condvar::new(),
            });
        }
        Ok(ShardedServer {
            shards: vec,
            completion_waker: OnceLock::new(),
        })
    }

    /// Registers `wake`, which every [`ShardWorkers`] tick calls once it
    /// has handed its results back (outputs, expiries or a stream error to
    /// drain), still under the shard's lock — so it must be cheap and must
    /// not call back into this server. The network front-end registers a one-byte write
    /// to the pipe its event loop polls; passive ticks ([`Self::tick_all`])
    /// never call it. At most one waker: returns `false`, leaving the first
    /// in place, when one is already set.
    pub fn set_completion_waker(&self, wake: impl Fn() + Send + Sync + 'static) -> bool {
        self.completion_waker.set(Box::new(wake)).is_ok()
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

    /// [`Self::submit`] with per-frame options: an absolute completion
    /// deadline and a completion tag.
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

    /// Closes a stream: its session, queued frames and frames inside a tick
    /// (counted in the shard's `evicted_frames`), undrained outputs and
    /// expiry tags are dropped, and its lifetime counters stay in the
    /// shard's totals. The id's next submit starts a fresh session, and
    /// never receives the outputs of a tick that was walking the old one.
    /// Returns `false` when the stream holds no session. This is how the
    /// network front-end releases the streams of a connection that closed.
    pub fn close_stream(&self, id: u64) -> bool {
        self.shard_of(id).lock().close_stream(id)
    }

    /// Whether a stream currently has a session in its shard's pool.
    pub fn contains(&self, id: u64) -> bool {
        self.shard_of(id).lock().contains(id)
    }

    /// Whether a stream has a sticky execution error. A failed stream is
    /// skipped by ticks until it is evicted or closed.
    pub fn stream_failed(&self, id: u64) -> bool {
        self.shard_of(id).lock().stream_failed(id)
    }

    /// Runs `f` on a stream's session under its shard's lock — metrics,
    /// telemetry, auto-disabled layers. A session inside a tick is waited
    /// for: `f` runs once the tick hands it back. `None` when the stream
    /// holds no session (never created, or retired meanwhile).
    pub fn with_session<R>(&self, id: u64, f: impl FnOnce(&ReuseSession) -> R) -> Option<R> {
        let shard = self.shard_of(id);
        let mut guard = shard.lock();
        while guard.in_tick(id) {
            guard = shard
                .handed_back
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        guard.session(id).map(f)
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
    /// order, streams in pool order; the frames it takes — whole sequences
    /// for a recurrent model — walk the network together as one block, one
    /// layer at a time, with the shard's lock released. Returns the summed
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
            match shard.tick(shard.lock()).1 {
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
    /// ready across all shards, counting those inside a tick: `0` means
    /// every accepted unit has finished, expired or failed. A failed
    /// stream's parked frames are not ready work.
    pub fn ready_units(&self) -> usize {
        self.shards.iter().map(|s| s.lock().ready_units()).sum()
    }

    /// Accepted frames not yet finished across all shards: queued, or
    /// inside a tick.
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
/// Each worker loops on its shard: tick while the shard has units a tick
/// can take, park on the shard's condvar otherwise. A tick holds the shard
/// lock while it takes its rows and while it hands the results back, not
/// across the block walk between: what arrives during a walk is the next
/// tick's, so ticks grow with the load. The worker holds the lock from the
/// hand-back through its next check into the wait, and every accepted
/// submit takes that lock before it notifies, so no submit — including the
/// one that completes a recurrent stream's sequence, or one that landed
/// mid-walk — can slip between the check and the park.
/// Stream execution errors are sticky on their stream inside
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
            // Notify under the lock: a worker between its stop check and
            // its wait holds the lock, so it is parked before this notify
            // lands, or it checks the flag after this lock is released.
            let _guard = shard.lock();
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

/// Body of one shard worker thread: tick while there are units to take
/// (waking the completion waker after each hand-back), park otherwise.
fn worker_loop(
    server: &ShardedServer,
    s: usize,
    stop: &AtomicBool,
    errors: &Mutex<Vec<ServeError>>,
) {
    let shard = &server.shards[s];
    let mut guard = shard.lock();
    while !stop.load(Ordering::SeqCst) {
        if guard.takeable_units() > 0 {
            let result;
            (guard, result) = shard.tick(guard);
            if let Err(e) = result {
                let mut buf = errors.lock().unwrap_or_else(PoisonError::into_inner);
                if buf.len() < MAX_BUFFERED_ERRORS {
                    buf.push(e);
                }
            }
            if let Some(wake) = server.completion_waker.get() {
                wake();
            }
        } else {
            guard = shard
                .work
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuse_core::ReuseConfig;
    use reuse_nn::{Activation, NetworkBuilder};

    #[test]
    fn with_session_waits_out_a_tick_and_returns_the_session() {
        // Wide enough that a walk of a few dozen frames outlasts many lock
        // round trips of this thread.
        let net = NetworkBuilder::new("tick-wide", 256)
            .seed(3)
            .fully_connected(512, Activation::Relu)
            .fully_connected(512, Activation::Relu)
            .fully_connected(8, Activation::Identity)
            .build()
            .unwrap();
        let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(16)));
        let server = Arc::new(ShardedServer::new(model, ServerConfig::default(), 1).unwrap());
        let workers = ShardWorkers::start(Arc::clone(&server));
        let frame: Vec<f32> = (0..256).map(|i| (i as f32 * 0.01).sin()).collect();
        let mut seen_mid_tick = false;
        for _ in 0..100 {
            for id in 0..8 {
                for _ in 0..8 {
                    server.submit(id, &frame).unwrap();
                }
            }
            while server.shards[0].lock().ready_units() > 0 {
                if server.shards[0].lock().in_tick(0) {
                    seen_mid_tick = true;
                    let executions = server.with_session(0, ReuseSession::executions);
                    assert!(executions.is_some_and(|n| n > 0), "{executions:?}");
                }
            }
            for id in 0..8 {
                server.drain_outputs(id, |_| {});
            }
            if seen_mid_tick {
                break;
            }
        }
        assert!(seen_mid_tick, "stream 0 was never seen inside a tick");
        assert!(workers.take_errors().is_empty());
    }
}
