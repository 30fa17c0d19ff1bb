//! Sharded serving tier: N independent [`StreamServer`] shards behind one
//! façade, so aggregate throughput scales with cores instead of queueing
//! every stream behind a single `tick()` loop.
//!
//! Streams are hashed to shards by id (Fibonacci hashing — see
//! [`ShardedServer::shard_of`]), so a stream's whole life — session,
//! ingress queue, outputs, latency samples — stays on one shard and the
//! per-core working set (quantized-input memory, buffered layer outputs)
//! stays resident. Shards are the serving tier's only threads: a shard's
//! own [`StreamServer::tick`] is a serial loop, and shards never take work
//! from each other, which keeps the bit-identity argument local: each
//! shard is an ordinary `StreamServer`, and a sharded server over any
//! shard count produces exactly the per-stream outputs of a single-shard
//! one.
//!
//! All shards clone one `Arc<CompiledModel>`, so they share the model's
//! immutable artifacts (network, plan, packed weights) and nothing else: an
//! evicted stream that comes back starts from a fresh session.
//!
//! Two driving modes:
//!
//! * **Passive** — the caller ticks shards itself ([`ShardedServer::
//!   tick_all`] / [`ShardedServer::tick_shard`]). Deterministic; what the
//!   bit-identity proptests use.
//! * **Threaded** — [`ShardWorkers::start`] spawns one dedicated worker
//!   thread per shard that ticks whenever the shard has ready work and
//!   parks on a condvar otherwise. Submits and drains stay synchronous
//!   and non-blocking (they take the shard lock briefly); this is what
//!   `serve-net` and the open-loop benchmark run.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use reuse_core::CompiledModel;

use crate::error::ServeError;
use crate::histogram::LatencyHistogram;
use crate::server::{ServerConfig, StreamServer, SubmitOptions, SubmitResult, TickStats};
use crate::snapshot::ServerSnapshot;

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

/// A sharded [`StreamServer`]: stream-id-hashed shards, each owning its
/// own session pool, ingress queues, and latency histogram, all sharing
/// one [`CompiledModel`].
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
    /// Creates `shards` independent [`StreamServer`]s over clones of one
    /// compiled model. `shards` is clamped to at least 1. The
    /// [`ServerConfig`] applies per shard — note that
    /// [`ServerConfig::max_sessions`] is therefore a *per-shard* cap
    /// (total capacity = shards × max_sessions, assuming even hashing).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] under the same conditions as
    /// [`StreamServer::new`].
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
    pub fn shard_of(&self, id: u64) -> usize {
        let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (h as usize) % self.shards.len()
    }

    /// Submits one frame to the owning shard's ingress queue (see
    /// [`StreamServer::submit`]). Takes that shard's lock briefly; on
    /// acceptance, wakes the shard's worker if one is parked.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Reuse`] when the frame length does not match
    /// the model's input volume.
    pub fn submit(&self, id: u64, frame: &[f32]) -> Result<SubmitResult, ServeError> {
        self.submit_with(id, frame, SubmitOptions::default())
    }

    /// [`Self::submit`] with per-frame deadline and priority options (see
    /// [`StreamServer::submit_with`]).
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
        let shard = &self.shards[self.shard_of(id)];
        let result = shard.lock().submit_with(id, frame, opts);
        if matches!(result, Ok(SubmitResult::Accepted)) {
            shard.work.notify_one();
        }
        result
    }

    /// Drains a stream's completed outputs from its owning shard (see
    /// [`StreamServer::drain_outputs`]).
    pub fn drain_outputs(&self, id: u64, f: impl FnMut(&[f32])) -> usize {
        self.shards[self.shard_of(id)].lock().drain_outputs(id, f)
    }

    /// [`Self::drain_outputs`] with each output's submission tag (see
    /// [`StreamServer::drain_outputs_tagged`]).
    pub fn drain_outputs_tagged(&self, id: u64, f: impl FnMut(u64, &[f32])) -> usize {
        self.shards[self.shard_of(id)]
            .lock()
            .drain_outputs_tagged(id, f)
    }

    /// Drains the tags of a stream's past-deadline drops (see
    /// [`StreamServer::drain_expired`]).
    pub fn drain_expired(&self, id: u64, f: impl FnMut(u64)) -> usize {
        self.shards[self.shard_of(id)].lock().drain_expired(id, f)
    }

    /// Whether a stream currently has a session in its shard's pool.
    pub fn contains(&self, id: u64) -> bool {
        self.shards[self.shard_of(id)].lock().contains(id)
    }

    /// Whether a stream has a sticky execution error.
    pub fn stream_failed(&self, id: u64) -> bool {
        self.shards[self.shard_of(id)].lock().stream_failed(id)
    }

    /// Runs one scheduling tick on shard `s` (passive driving mode).
    ///
    /// # Errors
    ///
    /// Returns the shard's first not-yet-reported stream execution error,
    /// exactly as [`StreamServer::tick`] does.
    ///
    /// # Panics
    ///
    /// Panics when `s >= self.shard_count()`.
    pub fn tick_shard(&self, s: usize) -> Result<TickStats, ServeError> {
        self.shards[s].lock().tick()
    }

    /// Ticks every shard once, in shard order (passive driving mode —
    /// deterministic, used by tests and the closed-loop bench). Returns
    /// the summed stats; if any shard reports a stream error, the first
    /// one is returned after all shards have still been ticked.
    ///
    /// # Errors
    ///
    /// Returns the first shard's first not-yet-reported stream execution
    /// error.
    pub fn tick_all(&self) -> Result<TickStats, ServeError> {
        let mut stats = TickStats::default();
        let mut first_error = None;
        for s in 0..self.shards.len() {
            match self.tick_shard(s) {
                Ok(t) => {
                    stats.frames += t.frames;
                    stats.streams += t.streams;
                }
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }

    /// Execution units ready across all shards.
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
    /// between shard visits while workers run).
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

/// Per-shard snapshots plus merged latency quantiles, built by
/// [`ShardedServer::snapshot`]. Aggregate counters are summed on demand
/// from the per-shard snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedSnapshot {
    /// Median submit-to-completion latency over all shards (ns).
    pub p50_ns: u64,
    /// 99th-percentile latency over all shards (ns).
    pub p99_ns: u64,
    /// 99.9th-percentile latency over all shards (ns).
    pub p999_ns: u64,
    /// Largest exact latency sample over all shards (ns).
    pub max_ns: u64,
    /// Latency samples recorded over all shards.
    pub latency_count: u64,
    /// One [`ServerSnapshot`] per shard, in shard order.
    pub shards: Vec<ServerSnapshot>,
}

impl ShardedSnapshot {
    /// Frames accepted across all shards.
    pub fn frames_submitted(&self) -> u64 {
        self.shards.iter().map(|s| s.frames_submitted).sum()
    }

    /// Frames completed across all shards.
    pub fn frames_completed(&self) -> u64 {
        self.shards.iter().map(|s| s.frames_completed).sum()
    }

    /// Submits rejected queue-full across all shards.
    pub fn rejected_queue_full(&self) -> u64 {
        self.shards.iter().map(|s| s.rejected_queue_full).sum()
    }

    /// Submits load-shed (degraded streams) across all shards.
    pub fn shed(&self) -> u64 {
        self.shards.iter().map(|s| s.shed).sum()
    }

    /// Submits rejected by the projected-deadline-miss policy across all
    /// shards.
    pub fn deadline_shed(&self) -> u64 {
        self.shards.iter().map(|s| s.deadline_shed).sum()
    }

    /// Queued frames dropped past-deadline across all shards.
    pub fn expired(&self) -> u64 {
        self.shards.iter().map(|s| s.expired).sum()
    }

    /// Streams holding sessions across all shards.
    pub fn active_streams(&self) -> usize {
        self.shards.iter().map(|s| s.active_streams).sum()
    }

    /// Serializes aggregate counters, merged latency, and one compact row
    /// per shard as hand-rolled JSON (same style as
    /// [`ServerSnapshot::to_json`]).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"shards\": {},", self.shards.len());
        let _ = writeln!(s, "  \"active_streams\": {},", self.active_streams());
        let _ = writeln!(s, "  \"frames_submitted\": {},", self.frames_submitted());
        let _ = writeln!(s, "  \"frames_completed\": {},", self.frames_completed());
        let _ = writeln!(
            s,
            "  \"backpressure\": {{\"queue_full\": {}, \"shed\": {}, \"deadline_shed\": {}, \
             \"expired\": {}}},",
            self.rejected_queue_full(),
            self.shed(),
            self.deadline_shed(),
            self.expired()
        );
        let _ = writeln!(
            s,
            "  \"latency_ns\": {{\"count\": {}, \"p50\": {}, \"p99\": {}, \"p999\": {}, \
             \"max\": {}}},",
            self.latency_count, self.p50_ns, self.p99_ns, self.p999_ns, self.max_ns
        );
        s.push_str("  \"per_shard\": [\n");
        for (i, sh) in self.shards.iter().enumerate() {
            let comma = if i + 1 == self.shards.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"streams\": {}, \"frames_completed\": {}, \"p99\": {}}}{}",
                sh.active_streams, sh.frames_completed, sh.p99_ns, comma
            );
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
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
    /// [`StreamServer::tick`]).
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
