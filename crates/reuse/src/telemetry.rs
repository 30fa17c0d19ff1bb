//! Runtime observability for the reuse engine: the per-slot window of recent
//! step records, buffer-pool statistics, and their JSON export
//! ([`TelemetrySnapshot`]).
//!
//! The paper's value proposition is statistical — hit rates and correction
//! counts vary per layer and over time (Figs. 4/5) — so a long-running
//! deployment needs live numbers, not just the lifetime aggregates of
//! [`crate::EngineMetrics`]. Telemetry adds one thing to those sums: per
//! slot, the last [`TELEMETRY_WINDOW`] incremental step records, allocated
//! once when the session opens, so recording is O(1) and allocation-free and
//! can stay enabled on the zero-allocation steady-state hot path. A
//! snapshot's windowed statistics are folds over those records. Building a
//! [`TelemetrySnapshot`] (and serializing it) allocates and is meant for
//! cold reporting paths only.

// The module reports floating-point statistics; exact comparisons are
// always a bug here.
#![deny(clippy::float_cmp)]

use std::fmt::Write as _;

use crate::json::{json_num, json_str};
use crate::trace::StepRecord;

/// Incremental executions a slot's telemetry window holds: the windowed
/// statistics of a [`TelemetrySnapshot`] are means over this many most
/// recent steps.
pub const TELEMETRY_WINDOW: usize = 64;

/// The last [`TELEMETRY_WINDOW`] step records of one slot. The storage is
/// allocated once; `push` overwrites the oldest record when full.
#[derive(Debug)]
pub(crate) struct Window {
    records: Vec<StepRecord>,
    /// The oldest record once full (0 until then).
    head: usize,
}

impl Window {
    pub(crate) fn new() -> Self {
        Window {
            records: Vec::with_capacity(TELEMETRY_WINDOW),
            head: 0,
        }
    }

    /// Appends a record, overwriting the oldest when full. Never allocates.
    pub(crate) fn push(&mut self, record: StepRecord) {
        if self.records.len() < TELEMETRY_WINDOW {
            self.records.push(record);
        } else {
            self.records[self.head] = record;
            self.head = (self.head + 1) % TELEMETRY_WINDOW;
        }
    }

    /// Mean of `f` over the held records, oldest first (`0.0` when empty).
    pub(crate) fn mean(&self, f: impl Fn(&StepRecord) -> f64) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let (newer, older) = self.records.split_at(self.head);
        older.iter().chain(newer).map(f).sum::<f64>() / self.records.len() as f64
    }

    /// Drops all records, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        self.records.clear();
        self.head = 0;
    }
}

/// Buffer-pool activity: how often per-frame intermediates were recycled
/// (`hits`) versus freshly allocated (`misses`). In steady state misses
/// must stop growing — each one is a heap allocation on the hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from a recycled buffer.
    pub hits: u64,
    /// Takes that had to allocate.
    pub misses: u64,
}

/// Always zero: the sessions have no drift watchdog (DESIGN §15). Kept,
/// with [`crate::ReuseSession::watchdog_stats`], for the benchmark's
/// `reuse.rebaselines` row until that row goes.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct WatchdogStats {
    /// Re-baselines run: none.
    pub rebaselines: u64,
}

/// Owned, serializable snapshot of one engine's telemetry — what
/// `reuse_cli run <workload> --telemetry` prints as JSON.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Network name.
    pub network: String,
    /// Reuse-phase frames observed.
    pub frames: u64,
    /// Steps the windowed statistics cover ([`TELEMETRY_WINDOW`]).
    pub window: usize,
    /// Buffer-pool hits/misses.
    pub pool: PoolStats,
    /// Per-layer records, in network order.
    pub layers: Vec<LayerTelemetrySnapshot>,
}

/// Per-layer entry of a [`TelemetrySnapshot`].
#[derive(Debug, Clone)]
pub struct LayerTelemetrySnapshot {
    /// Layer name.
    pub name: String,
    /// Incremental executions recorded.
    pub reuse_executions: u64,
    /// Lifetime hit rate (matches `LayerMetrics::input_similarity`).
    pub hit_rate: f64,
    /// Mean hit rate over the most recent window.
    pub hit_rate_window: f64,
    /// Corrections applied across all incremental executions.
    pub corrections_total: u64,
    /// MACs skipped across all incremental executions.
    pub macs_skipped_total: u64,
    /// Mean skip/correct span (ns) over the most recent window.
    pub span_ns_window: f64,
    /// Whether the layer's profiled range was degenerate, so it runs at
    /// full precision.
    pub auto_disabled: bool,
}

impl TelemetrySnapshot {
    /// Serializes the snapshot as pretty-printed JSON (no external
    /// dependencies; same hand-rolled style as the bench binaries).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"network\": {},", json_str(&self.network));
        let _ = writeln!(s, "  \"frames\": {},", self.frames);
        let _ = writeln!(s, "  \"window\": {},", self.window);
        let _ = writeln!(
            s,
            "  \"pool\": {{\"hits\": {}, \"misses\": {}}},",
            self.pool.hits, self.pool.misses
        );
        s.push_str("  \"layers\": [\n");
        for (i, l) in self.layers.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"name\": {}, \"reuse_executions\": {}, \"hit_rate\": {}, \
                 \"hit_rate_window\": {}, \"corrections_total\": {}, \
                 \"macs_skipped_total\": {}, \"span_ns_window\": {}, \
                 \"auto_disabled\": {}}}{}",
                json_str(&l.name),
                l.reuse_executions,
                json_num(l.hit_rate),
                json_num(l.hit_rate_window),
                l.corrections_total,
                l.macs_skipped_total,
                json_num(l.span_ns_window),
                l.auto_disabled,
                if i + 1 < self.layers.len() { "," } else { "" }
            );
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(n_changed: u64, span_ns: u64) -> StepRecord {
        let stats = crate::ExecStats {
            n_inputs: 100,
            n_changed,
            macs_total: 1000,
            macs_performed: n_changed * 10,
            from_scratch: false,
        };
        StepRecord::stepped(0, 0, stats, span_ns)
    }

    #[test]
    fn ring_overwrites_oldest() {
        // Two early records, then enough 100-ns steps to push them out one
        // at a time: the window holds the most recent records only.
        let mut w = Window::new();
        w.push(step(25, 500));
        w.push(step(75, 300));
        for _ in 0..TELEMETRY_WINDOW - 1 {
            w.push(step(100, 100));
        }
        let kept = (300.0 + 100.0 * (TELEMETRY_WINDOW - 1) as f64) / TELEMETRY_WINDOW as f64;
        assert!((w.mean(|r| r.span_ns as f64) - kept).abs() < 1e-9);
        w.push(step(100, 100));
        assert!((w.mean(|r| r.span_ns as f64) - 100.0).abs() < 1e-9);
        w.clear();
        assert!(w.mean(|r| r.span_ns as f64).abs() < 1e-12, "empty reads 0");
    }

    #[test]
    fn layer_record_accumulates_and_windows() {
        let mut w = Window::new();
        assert!(w.mean(|r| f64::from(r.hit_rate())).abs() < 1e-12);
        w.push(step(25, 500));
        w.push(step(75, 300));
        assert!((w.mean(|r| f64::from(r.hit_rate())) - 0.5).abs() < 1e-6);
        assert!((w.mean(|r| r.span_ns as f64) - 400.0).abs() < 1e-9);
        w.push(step(100, 100));
        assert!((w.mean(|r| f64::from(r.hit_rate())) - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn snapshot_serializes_valid_shape() {
        // Everything JSON must escape (a quote, a backslash, a newline, a
        // control character) beside a non-ASCII scalar that stays as is;
        // non-finite means degrade to null.
        let hostile = "demo\"net\\\n\u{1}\u{e9}";
        let layer = |name: &str, hit_rate_window: f64, auto_disabled| LayerTelemetrySnapshot {
            name: name.to_string(),
            reuse_executions: 10,
            hit_rate: 0.875,
            hit_rate_window,
            corrections_total: 42,
            macs_skipped_total: 10_000,
            span_ns_window: f64::INFINITY,
            auto_disabled,
        };
        let snap = TelemetrySnapshot {
            network: hostile.to_string(),
            frames: 12,
            window: 64,
            pool: PoolStats {
                hits: 30,
                misses: 4,
            },
            layers: vec![layer(hostile, f64::NAN, false), layer("fc2", 0.25, true)],
        };
        let want = r#"{
  "network": "demo\"net\\\u000a\u0001é",
  "frames": 12,
  "window": 64,
  "pool": {"hits": 30, "misses": 4},
  "layers": [
    {"name": "demo\"net\\\u000a\u0001é", "reuse_executions": 10, "hit_rate": 0.875000, "hit_rate_window": null, "corrections_total": 42, "macs_skipped_total": 10000, "span_ns_window": null, "auto_disabled": false},
    {"name": "fc2", "reuse_executions": 10, "hit_rate": 0.875000, "hit_rate_window": 0.250000, "corrections_total": 42, "macs_skipped_total": 10000, "span_ns_window": null, "auto_disabled": true}
  ]
}
"#;
        assert_eq!(snap.to_json(), want);
    }
}
