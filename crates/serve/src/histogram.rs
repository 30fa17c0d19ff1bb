//! A preallocated, lock-free latency histogram.
//!
//! The serving runtime records one sample per completed frame on the
//! dispatch hot path, possibly from several worker threads at once, so the
//! recorder must be wait-free and allocation-free: samples land in
//! log-linear nanosecond buckets held in atomics, all allocated at
//! construction. Quantile queries walk the buckets and are meant for cold
//! reporting paths (snapshots), not per-frame use.
//!
//! **Resolution.** Buckets are HdrHistogram-style log-linear: each
//! power-of-two range is split into [`SUB_BUCKETS`] linear sub-buckets, so
//! the relative quantization error of any reported quantile is at most
//! `1 / SUB_BUCKETS` (6.25%). The previous pure power-of-two layout made
//! p50/p99 snap to bucket edges (524287, 2097151, 134217727 ns — a 2×
//! error band), which is useless for tail comparison across runs.

use std::sync::atomic::{AtomicU64, Ordering};

/// log₂ of the linear sub-buckets per power-of-two range.
const SUB_BITS: u32 = 4;

/// Linear sub-buckets per power-of-two range (relative error ≤ 1/16).
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Total bucket count: values below [`SUB_BUCKETS`] are exact (one bucket
/// per nanosecond); each higher power-of-two range `[2^m, 2^(m+1))` for
/// `m = SUB_BITS ..= 63` contributes [`SUB_BUCKETS`] sub-buckets.
const BUCKETS: usize = (SUB_BUCKETS + (64 - SUB_BITS) as u64 * SUB_BUCKETS) as usize;

/// Fixed-size log-linear histogram of nanosecond latencies.
///
/// `record` is lock-free (one relaxed `fetch_add` plus a `fetch_max`) and
/// never allocates; resolution is ≤ 6.25% relative, which makes p50, p99
/// and p999 comparable across runs. Created once per
/// [`crate::StreamServer`].
#[derive(Debug)]
pub struct LatencyHistogram {
    /// Log-linear sample counts (see [`Self::bucket_of`]).
    buckets: Vec<AtomicU64>,
    /// Largest exact sample observed.
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram (allocates its buckets once).
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Index of the bucket a sample falls into. Values below
    /// [`SUB_BUCKETS`] are their own bucket (exact); a larger value with
    /// most-significant bit `m` keeps its top `SUB_BITS + 1` bits:
    /// group `m - SUB_BITS + 1`, sub-bucket = the `SUB_BITS` bits after
    /// the leading one.
    fn bucket_of(ns: u64) -> usize {
        if ns < SUB_BUCKETS {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros();
        let shift = msb - SUB_BITS;
        let group = (msb - SUB_BITS + 1) as u64;
        let sub = (ns >> shift) & (SUB_BUCKETS - 1);
        (group * SUB_BUCKETS + sub) as usize
    }

    /// Inclusive upper edge of bucket `b` in nanoseconds — what quantile
    /// queries report, so the reported value over-estimates the true
    /// sample by at most one sub-bucket width (≤ 6.25% relative).
    fn bucket_upper_edge(b: usize) -> u64 {
        let b = b as u64;
        if b < SUB_BUCKETS {
            return b;
        }
        let group = b / SUB_BUCKETS;
        let sub = b % SUB_BUCKETS;
        let shift = (group - 1).min(63 - SUB_BITS as u64) as u32;
        let lower = (SUB_BUCKETS + sub) << shift;
        lower.saturating_add((1u64 << shift) - 1)
    }

    /// Records one latency sample. Wait-free, allocation-free; safe to call
    /// concurrently with readers on other threads.
    pub fn record(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Largest exact sample observed (`0` when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// The latency below which a `q` fraction of samples fall, reported as
    /// the upper edge of the containing log-linear sub-bucket, clamped to
    /// the exact observed maximum. `q` is clamped to `[0, 1]`; relative
    /// resolution is ≤ `1 / SUB_BUCKETS` (6.25%).
    ///
    /// **Empty-histogram contract:** with zero samples every quantile is
    /// `0` — never NaN, never a sentinel. Idle servers therefore report
    /// all-zero `latency_ns` blocks through their snapshots and JSON, and
    /// monitoring can treat `count == 0` + zero quantiles as "idle"
    /// without special-casing.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * total), at least 1: the rank of the target sample.
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper_edge(b).min(self.max_ns());
            }
        }
        self.max_ns()
    }

    /// Median latency (see [`Self::quantile_ns`]).
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 99th-percentile latency (see [`Self::quantile_ns`]).
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// 99.9th-percentile latency — the tail the serving SLO gates on.
    pub fn p999_ns(&self) -> u64 {
        self.quantile_ns(0.999)
    }

    /// Merges another histogram's samples into this one (used to aggregate
    /// per-shard histograms into a server-wide view). Not atomic as a
    /// whole; concurrent `record`s land in one histogram or the other.
    pub fn merge(&self, other: &LatencyHistogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = src.load(Ordering::Relaxed);
            if v > 0 {
                dst.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.max_ns.fetch_max(other.max_ns(), Ordering::Relaxed);
    }

    /// Drops all samples, keeping the allocation.
    pub fn clear(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.p999_ns(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB_BUCKETS {
            let b = LatencyHistogram::bucket_of(v);
            assert_eq!(b, v as usize);
            assert_eq!(LatencyHistogram::bucket_upper_edge(b), v);
        }
    }

    #[test]
    fn bucket_mapping_is_monotone_and_tight() {
        // Every sample's reported upper edge is >= the sample and within
        // 1/SUB_BUCKETS relative error; bucket indices never decrease.
        let mut prev = 0usize;
        for shift in 0..60 {
            for base in [16u64, 17, 23, 31] {
                let v = base << shift;
                let b = LatencyHistogram::bucket_of(v);
                assert!(b >= prev, "bucket order broke at {v}");
                prev = b;
                let edge = LatencyHistogram::bucket_upper_edge(b);
                assert!(edge >= v, "edge {edge} below sample {v}");
                let err = (edge - v) as f64 / v as f64;
                assert!(err <= 1.0 / SUB_BUCKETS as f64, "err {err} at {v}");
            }
        }
        assert_eq!(
            LatencyHistogram::bucket_of(u64::MAX),
            BUCKETS - 1,
            "u64::MAX lands in the last bucket"
        );
    }

    #[test]
    fn quantiles_walk_the_distribution() {
        let h = LatencyHistogram::new();
        // 90 fast samples (~1 µs) and 10 slow (~1 ms).
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max_ns(), 1_000_000);
        let p50 = h.quantile_ns(0.50);
        let p99 = h.quantile_ns(0.99);
        // Log-linear buckets: quantiles land within 6.25% of the sample.
        assert!((1_000..=1_063).contains(&p50), "p50 {p50}");
        assert!((1_000_000..=1_062_500).contains(&p99), "p99 {p99}");
        assert!(p50 < p99);
        h.clear();
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn p999_separates_the_extreme_tail() {
        let h = LatencyHistogram::new();
        for _ in 0..998 {
            h.record(10_000);
        }
        h.record(5_000_000);
        h.record(80_000_000);
        let p99 = h.p99_ns();
        let p999 = h.p999_ns();
        assert!(p99 < 5_300_000, "p99 {p99} should exclude the 1/1000 tail");
        assert!(
            (5_000_000..=5_312_500).contains(&p999),
            "p999 {p999} should capture the second-worst sample"
        );
    }

    #[test]
    fn quantile_never_exceeds_observed_max() {
        let h = LatencyHistogram::new();
        h.record(1_000_003);
        assert_eq!(h.quantile_ns(1.0), 1_000_003);
        assert_eq!(h.p999_ns(), 1_000_003);
    }

    #[test]
    fn merge_combines_counts_and_max() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(100);
        b.record(200_000);
        b.record(300_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_ns(), 300_000);
        assert!(a.quantile_ns(1.0) >= 300_000 - 300_000 / 16);
    }

    #[test]
    fn zero_samples_stay_in_bucket_zero() {
        let h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_ns(1.0), 0);
    }
}
