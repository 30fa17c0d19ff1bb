//! Scoped-thread parallel runtime with adaptive serial/parallel dispatch.
//!
//! The build environment pins an offline registry, so there is no rayon
//! here: workers are plain `std::thread::scope` threads. Every parallel
//! kernel in the workspace partitions its **output** elements into
//! contiguous chunks, one per worker. Each output element is still
//! accumulated by exactly one thread, walking the inputs in the same
//! ascending order as the serial loop — so parallel results are
//! bit-identical to serial ones, and the paper's incremental-correction
//! invariant (`z' = z + (c'−c)·w`, Eq. 10) is preserved under any thread
//! count. See DESIGN.md, "Threading model & determinism".
//!
//! Dispatch is adaptive on two axes:
//!
//! * **Hardware clamp** — a config never resolves to more workers than the
//!   host exposes ([`hardware_threads`]), even when `num_threads` asks for
//!   more. Oversubscribing a small host turns every spawn into pure
//!   scheduling overhead (the regression PR 1 measured on a 1-thread
//!   machine). Tests that need to exercise the chunking logic itself can
//!   opt out with [`ParallelConfig::oversubscribed`].
//! * **Work-size threshold** — kernels that know their FLOP count call
//!   [`parallel_for_mut_cost`]; calls below
//!   [`ParallelConfig::inline_flops`] run inline on the caller thread, so
//!   tiny reuse-correction frames never pay thread-spawn latency.

/// The detected number of hardware threads (`1` when detection fails).
pub fn hardware_threads() -> usize {
    // Cached: `available_parallelism` is a syscall, and adaptive dispatch
    // consults the clamp on every kernel call.
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// How much parallelism a kernel call may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads to use. `0` means "ask the OS"
    /// (`std::thread::available_parallelism`); `1` runs inline with no
    /// thread spawns at all. Explicit counts are clamped to the hardware
    /// thread count unless [`Self::oversubscribed`] is set.
    pub num_threads: usize,
    /// Minimum output elements each worker must receive. Calls whose total
    /// output is below `2 × min_work_per_thread` run inline; otherwise the
    /// worker count is capped at `total / min_work_per_thread`. This keeps
    /// tiny layers from paying thread-spawn latency for nothing.
    pub min_work_per_thread: usize,
    /// Total-work threshold in FLOPs below which a cost-aware call
    /// ([`parallel_for_mut_cost`]) runs inline regardless of output size.
    /// Kernels estimate this from `fc_flops` / `Conv*Spec::flops` / the
    /// changed-delta count. Default [`DEFAULT_INLINE_FLOPS`].
    pub inline_flops: u64,
    /// Allows `num_threads` to exceed the hardware thread count. Off by
    /// default (the clamp); tests of the chunking logic switch it on to
    /// force multi-chunk execution on small hosts.
    pub oversubscribe: bool,
}

/// Default floor under which spawning a thread costs more than it saves.
pub const DEFAULT_MIN_WORK: usize = 1024;

/// Default FLOP threshold for inline dispatch (~0.1 ms of serial work on
/// this class of host — comfortably above thread spawn+join latency).
pub const DEFAULT_INLINE_FLOPS: u64 = 1_000_000;

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig::serial()
    }
}

impl ParallelConfig {
    /// Run everything inline on the calling thread (never spawns).
    pub const fn serial() -> Self {
        ParallelConfig {
            num_threads: 1,
            min_work_per_thread: DEFAULT_MIN_WORK,
            inline_flops: DEFAULT_INLINE_FLOPS,
            oversubscribe: false,
        }
    }

    /// Use up to `n` workers (clamped to at least 1, and to the hardware
    /// thread count at resolution time unless [`Self::oversubscribed`]).
    pub fn with_threads(n: usize) -> Self {
        ParallelConfig {
            num_threads: n.max(1),
            ..ParallelConfig::serial()
        }
    }

    /// Use one worker per hardware thread.
    pub fn auto() -> Self {
        ParallelConfig {
            num_threads: 0,
            ..ParallelConfig::serial()
        }
    }

    /// Overrides the per-worker work floor (in output elements).
    pub fn min_work_per_thread(mut self, elements: usize) -> Self {
        self.min_work_per_thread = elements;
        self
    }

    /// Overrides the FLOP threshold below which cost-aware calls stay
    /// inline (`0` disables the threshold entirely).
    pub fn inline_flops(mut self, flops: u64) -> Self {
        self.inline_flops = flops;
        self
    }

    /// Disables the hardware clamp, letting `num_threads` spawn more
    /// workers than the host has hardware threads. Only useful for testing
    /// the chunk partitioning itself; never faster.
    pub fn oversubscribed(mut self) -> Self {
        self.oversubscribe = true;
        self
    }

    /// Resolved worker count for a call producing `total_work` output
    /// elements. Always at least 1; 1 means "run inline".
    pub fn workers_for(&self, total_work: usize) -> usize {
        self.workers_for_with(total_work, hardware_threads())
    }

    /// [`Self::workers_for`] with an explicit hardware thread count —
    /// the pure resolution logic, exposed so tests and benches can check
    /// clamping deterministically on any host.
    pub fn workers_for_with(&self, total_work: usize, hardware: usize) -> usize {
        let hardware = hardware.max(1);
        let requested = if self.num_threads == 0 {
            hardware
        } else if self.oversubscribe {
            self.num_threads
        } else {
            self.num_threads.min(hardware)
        };
        let work_cap = total_work / self.min_work_per_thread.max(1);
        requested.min(work_cap.max(1)).min(total_work.max(1))
    }
}

/// Runs `body` over contiguous chunks of `out`, one chunk per worker.
///
/// `granule` is the indivisible output unit in elements (e.g. one conv
/// output plane); chunk boundaries always fall on granule boundaries so a
/// worker owns whole granules. `body(offset, chunk)` receives the chunk's
/// starting element offset within `out`.
///
/// With one resolved worker (or one granule) the body runs inline on the
/// caller thread and nothing is spawned; otherwise the first chunk runs on
/// the caller thread while the rest run on scoped threads.
///
/// # Panics
///
/// Propagates panics from `body` (the scope joins all workers first).
pub fn parallel_for_mut<T, F>(config: &ParallelConfig, out: &mut [T], granule: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    parallel_for_mut_cost(config, out, granule, u64::MAX, body);
}

/// Cost-aware variant of [`parallel_for_mut`]: `flops` is the caller's
/// estimate of the call's total arithmetic work. Calls below
/// [`ParallelConfig::inline_flops`] run inline on the caller thread — the
/// adaptive-dispatch path that keeps small corrections from paying
/// thread-spawn latency. Results are bit-identical either way.
///
/// # Panics
///
/// Propagates panics from `body` (the scope joins all workers first).
pub fn parallel_for_mut_cost<T, F>(
    config: &ParallelConfig,
    out: &mut [T],
    granule: usize,
    flops: u64,
    body: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if out.is_empty() {
        return;
    }
    if flops < config.inline_flops {
        body(0, out);
        return;
    }
    let granule = granule.max(1);
    let n_granules = out.len().div_ceil(granule);
    let workers = config.workers_for(out.len()).min(n_granules);
    if workers <= 1 {
        body(0, out);
        return;
    }
    let per_chunk = n_granules.div_ceil(workers) * granule;
    std::thread::scope(|scope| {
        let body = &body;
        let mut rest = out;
        let mut offset = 0usize;
        let mut caller_chunk: Option<(usize, &mut [T])> = None;
        while !rest.is_empty() {
            let take = per_chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            if caller_chunk.is_none() {
                caller_chunk = Some((offset, head));
            } else {
                scope.spawn(move || body(offset, head));
            }
            offset += take;
            rest = tail;
        }
        if let Some((off, head)) = caller_chunk {
            body(off, head);
        }
    });
}

/// Shares a `*mut T` across scoped workers that claim disjoint indices
/// through an atomic counter. Soundness: every index is produced by exactly
/// one `fetch_add`, so no two workers ever form a `&mut` to the same
/// element.
struct SharedSlice<T>(*mut T);

unsafe impl<T: Send> Send for SharedSlice<T> {}
unsafe impl<T: Send> Sync for SharedSlice<T> {}

/// Runs `f` once per element of `items` with **dynamic (work-stealing)
/// scheduling**: workers claim the next unprocessed index from a shared
/// atomic counter, so uneven per-item costs balance automatically. This is
/// the dispatch primitive for task-shaped work — the conv forward hands
/// each worker a span of output positions across every filter's map — in
/// contrast to [`parallel_for_mut`], whose static contiguous chunks suit
/// uniform element-wise kernels.
///
/// `f(index, item)` receives the item's position in `items`. Items are
/// claimed in ascending index order, but completion order is unspecified;
/// callers must not rely on cross-item ordering (each item itself is
/// processed exactly once, by one worker).
///
/// With one resolved worker the loop runs inline on the caller thread and
/// performs **zero heap allocations**. Multi-worker calls spawn scoped
/// threads (which allocate stacks) and join them all before returning.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn parallel_for_each_mut<T, F>(config: &ParallelConfig, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    let workers = config.workers_for(n).min(n);
    if workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let shared = SharedSlice(items.as_mut_ptr());
    let run = |next: &std::sync::atomic::AtomicUsize, shared: &SharedSlice<T>| loop {
        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if i >= n {
            break;
        }
        // SAFETY: `i < n` indexes into the live `items` slice, and the
        // fetch_add above hands each index to exactly one worker.
        let item = unsafe { &mut *shared.0.add(i) };
        f(i, item);
    };
    std::thread::scope(|scope| {
        let next = &next;
        let shared = &shared;
        let run = &run;
        for _ in 1..workers {
            scope.spawn(move || run(next, shared));
        }
        run(next, shared);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_config_never_splits() {
        assert_eq!(ParallelConfig::serial().workers_for(1 << 20), 1);
    }

    #[test]
    fn worker_count_respects_work_floor() {
        let cfg = ParallelConfig::with_threads(8).min_work_per_thread(100);
        // Resolved against an 8-thread host so the floor is the only limit.
        assert_eq!(cfg.workers_for_with(50, 8), 1);
        assert_eq!(cfg.workers_for_with(250, 8), 2);
        assert_eq!(cfg.workers_for_with(100_000, 8), 8);
    }

    #[test]
    fn explicit_thread_count_is_clamped_to_hardware() {
        // The oversubscription fix: with_threads(8) on a 2-thread host
        // resolves to 2 workers, not 8.
        let cfg = ParallelConfig::with_threads(8).min_work_per_thread(1);
        assert_eq!(cfg.workers_for_with(1 << 20, 2), 2);
        assert_eq!(cfg.workers_for_with(1 << 20, 1), 1);
        // auto() asks the host directly.
        assert_eq!(
            ParallelConfig::auto()
                .min_work_per_thread(1)
                .workers_for_with(1 << 20, 3),
            3
        );
    }

    /// The CI clamp gate: honors a forced `REUSE_THREADS` (default 8) and
    /// asserts the *detected-hardware* resolution never exceeds the host.
    #[test]
    fn clamp_holds_under_forced_reuse_threads() {
        let requested: usize = std::env::var("REUSE_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(8);
        let cfg = ParallelConfig::with_threads(requested).min_work_per_thread(1);
        let resolved = cfg.workers_for(usize::MAX);
        assert!(
            resolved <= hardware_threads(),
            "resolved {resolved} workers on a {}-thread host (requested {requested})",
            hardware_threads()
        );
    }

    #[test]
    fn oversubscribed_escape_hatch_bypasses_clamp() {
        let cfg = ParallelConfig::with_threads(8)
            .min_work_per_thread(1)
            .oversubscribed();
        assert_eq!(cfg.workers_for_with(1 << 20, 2), 8);
    }

    #[test]
    fn inline_flops_threshold_keeps_small_calls_inline() {
        let cfg = ParallelConfig::with_threads(4)
            .min_work_per_thread(1)
            .oversubscribed();
        let chunks = AtomicUsize::new(0);
        let mut out = vec![0u32; 64];
        // Below the default threshold: one inline chunk.
        parallel_for_mut_cost(&cfg, &mut out, 1, DEFAULT_INLINE_FLOPS - 1, |_, _| {
            chunks.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(chunks.load(Ordering::Relaxed), 1);
        // At/above the threshold: splits into several chunks.
        chunks.store(0, Ordering::Relaxed);
        parallel_for_mut_cost(&cfg, &mut out, 1, DEFAULT_INLINE_FLOPS, |_, _| {
            chunks.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(chunks.load(Ordering::Relaxed), 4);
        // inline_flops(0) disables the threshold.
        chunks.store(0, Ordering::Relaxed);
        parallel_for_mut_cost(&cfg.inline_flops(0), &mut out, 1, 1, |_, _| {
            chunks.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(chunks.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn chunks_cover_every_element_once() {
        for threads in 1..6 {
            for len in [1usize, 2, 7, 64, 65] {
                let cfg = ParallelConfig::with_threads(threads)
                    .min_work_per_thread(1)
                    .oversubscribed();
                let mut out = vec![0u32; len];
                parallel_for_mut(&cfg, &mut out, 1, |offset, chunk| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v += (offset + k) as u32 + 1;
                    }
                });
                let expect: Vec<u32> = (0..len as u32).map(|i| i + 1).collect();
                assert_eq!(out, expect, "threads={threads} len={len}");
            }
        }
    }

    #[test]
    fn granules_are_never_split() {
        let cfg = ParallelConfig::with_threads(3)
            .min_work_per_thread(1)
            .oversubscribed();
        let granule = 4;
        let mut out = vec![usize::MAX; granule * 7];
        parallel_for_mut(&cfg, &mut out, granule, |offset, chunk| {
            assert_eq!(offset % granule, 0, "chunk start off-granule");
            assert_eq!(chunk.len() % granule, 0, "chunk length off-granule");
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (offset + k) / granule;
            }
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i / granule);
        }
    }

    #[test]
    fn for_each_visits_every_item_exactly_once() {
        for threads in [1usize, 2, 3, 5] {
            for len in [0usize, 1, 2, 7, 64, 65] {
                let cfg = ParallelConfig::with_threads(threads)
                    .min_work_per_thread(1)
                    .oversubscribed();
                let mut hits = vec![0u32; len];
                parallel_for_each_mut(&cfg, &mut hits, |i, v| {
                    *v += i as u32 + 1;
                });
                let expect: Vec<u32> = (0..len as u32).map(|i| i + 1).collect();
                assert_eq!(hits, expect, "threads={threads} len={len}");
            }
        }
    }

    #[test]
    fn for_each_balances_uneven_tasks() {
        // One huge task plus many tiny ones: dynamic scheduling must let
        // other workers drain the tiny tasks while the big one runs, so all
        // items complete (a static split would also complete — this guards
        // the claim-counter logic under contention).
        let cfg = ParallelConfig::with_threads(4)
            .min_work_per_thread(1)
            .oversubscribed();
        let mut items = vec![0u64; 33];
        parallel_for_each_mut(&cfg, &mut items, |i, v| {
            let spin = if i == 0 { 20_000 } else { 10 };
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            *v = acc | 1;
        });
        assert!(items.iter().all(|&v| v != 0));
    }

    #[test]
    fn for_each_serial_runs_in_index_order() {
        let mut order = Vec::new();
        let mut items = vec![(); 9];
        // One worker: inline, deterministic ascending order.
        let log = std::sync::Mutex::new(&mut order);
        parallel_for_each_mut(&ParallelConfig::serial(), &mut items, |i, ()| {
            log.lock().unwrap().push(i);
        });
        assert_eq!(order, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn empty_slice_is_a_noop() {
        let mut out: Vec<f32> = Vec::new();
        parallel_for_mut(&ParallelConfig::auto(), &mut out, 8, |_, _| {
            panic!("no work")
        });
    }
}
