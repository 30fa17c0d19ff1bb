//! Runtime observability for the reuse engine: the per-slot window of recent
//! step records, buffer-pool, drift-watchdog and signature-cache statistics,
//! and their JSON export ([`TelemetrySnapshot`]).
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
// always a bug here (the watchdog compares against bounds, never equality).
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

/// Drift-watchdog activity (see `DESIGN.md`): reference comparisons run,
/// re-baselines triggered, and the drift observed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WatchdogStats {
    /// Reference-forward comparisons performed.
    pub checks: u64,
    /// Checks whose drift exceeded the bound, triggering a re-baseline.
    pub rebaselines: u64,
    /// Max-abs output deviation at the most recent check.
    pub last_drift: f32,
    /// Largest deviation seen across all checks.
    pub max_drift: f32,
}

/// Cross-stream signature-cache activity for one session (see
/// [`crate::signature`]): lookups are attempted only when the per-stream
/// frame-(t-1) baseline is missing, so every counter here is cold-path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SignatureStats {
    /// Signature lookups attempted (uninitialized baseline + eligible slot).
    pub lookups: u64,
    /// Lookups that found a cached entry for the signature.
    pub hits: u64,
    /// Hits adopted as the layer's baseline.
    pub adoptions: u64,
    /// Hits abandoned because the cached input disagreed with the live
    /// input on too many quantized codes (false-positive collisions).
    pub bailouts: u64,
    /// Baselines this session published into the shared cache.
    pub inserts: u64,
}

impl SignatureStats {
    /// Adds another session's counters to these (pool-wide totals).
    pub fn merge(&mut self, other: SignatureStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.adoptions += other.adoptions;
        self.bailouts += other.bailouts;
        self.inserts += other.inserts;
    }
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
    /// Watchdog counters.
    pub watchdog: WatchdogStats,
    /// Configured check cadence (0 = watchdog disabled).
    pub drift_check_every: u64,
    /// Configured drift bound.
    pub drift_bound: f32,
    /// Cross-stream signature-cache counters (all zero when the cache is
    /// disabled for the model).
    pub signature: SignatureStats,
    /// Active reuse-policy name (`"static"`, `"adaptive"`, `"tuned"`).
    pub policy: String,
    /// Per-layer policy state (grid, step scale, refresh threshold and the
    /// controllers' counters), in slot order.
    pub policy_layers: Vec<crate::policy::LayerPolicyState>,
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
    /// Times the watchdog re-baselined this layer's buffered outputs.
    pub rebaselines: u64,
    /// Whether the layer has been escalated to full-precision execution.
    pub auto_disabled: bool,
    /// Cross-stream signature lookups attempted for this layer.
    pub signature_lookups: u64,
    /// Signature hits for this layer.
    pub signature_hits: u64,
    /// Signature hits abandoned by the false-positive guard.
    pub signature_bailouts: u64,
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
        let _ = writeln!(
            s,
            "  \"watchdog\": {{\"check_every\": {}, \"bound\": {}, \"checks\": {}, \
             \"rebaselines\": {}, \"last_drift\": {}, \"max_drift\": {}}},",
            self.drift_check_every,
            json_num(f64::from(self.drift_bound)),
            self.watchdog.checks,
            self.watchdog.rebaselines,
            json_num(f64::from(self.watchdog.last_drift)),
            json_num(f64::from(self.watchdog.max_drift)),
        );
        let _ = writeln!(
            s,
            "  \"signature_cache\": {{\"lookups\": {}, \"hits\": {}, \"adoptions\": {}, \
             \"bailouts\": {}, \"inserts\": {}}},",
            self.signature.lookups,
            self.signature.hits,
            self.signature.adoptions,
            self.signature.bailouts,
            self.signature.inserts,
        );
        let _ = writeln!(s, "  \"policy\": {},", json_str(&self.policy));
        s.push_str("  \"policy_layers\": [\n");
        for (i, p) in self.policy_layers.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {}{}",
                p.to_json(),
                if i + 1 < self.policy_layers.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        s.push_str("  ],\n");
        s.push_str("  \"layers\": [\n");
        for (i, l) in self.layers.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"name\": {}, \"reuse_executions\": {}, \"hit_rate\": {}, \
                 \"hit_rate_window\": {}, \"corrections_total\": {}, \
                 \"macs_skipped_total\": {}, \"span_ns_window\": {}, \
                 \"rebaselines\": {}, \"auto_disabled\": {}, \
                 \"signature_lookups\": {}, \"signature_hits\": {}, \
                 \"signature_bailouts\": {}}}{}",
                json_str(&l.name),
                l.reuse_executions,
                json_num(l.hit_rate),
                json_num(l.hit_rate_window),
                l.corrections_total,
                l.macs_skipped_total,
                json_num(l.span_ns_window),
                l.rebaselines,
                l.auto_disabled,
                l.signature_lookups,
                l.signature_hits,
                l.signature_bailouts,
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
        // Everything JSON must escape: a quote, a backslash, a control
        // character, plus a non-BMP scalar that must survive as is.
        let hostile = "demo\"net\\\u{1}\u{1F680}";
        let snap = TelemetrySnapshot {
            network: hostile.to_string(),
            frames: 12,
            window: 64,
            pool: PoolStats {
                hits: 30,
                misses: 4,
            },
            watchdog: WatchdogStats {
                checks: 3,
                rebaselines: 1,
                last_drift: 0.5,
                max_drift: f32::INFINITY,
            },
            drift_check_every: 4,
            drift_bound: 1e-3,
            signature: SignatureStats {
                lookups: 5,
                hits: 3,
                adoptions: 2,
                bailouts: 1,
                inserts: 4,
            },
            policy: "adaptive".to_string(),
            policy_layers: vec![crate::policy::LayerPolicyState {
                name: hostile.to_string(),
                adaptive: true,
                clusters: 16,
                step: 0.125,
                step_scale: 1.5,
                reuse_threshold: f32::NAN,
                observations: 6,
                grows: 2,
                shrinks: 1,
                refreshes: 3,
            }],
            layers: vec![LayerTelemetrySnapshot {
                name: hostile.to_string(),
                reuse_executions: 10,
                hit_rate: 0.875,
                hit_rate_window: f64::NAN,
                corrections_total: 42,
                macs_skipped_total: 10_000,
                span_ns_window: 1234.5,
                rebaselines: 1,
                auto_disabled: false,
                signature_lookups: 2,
                signature_hits: 1,
                signature_bailouts: 0,
            }],
        };
        let json = snap.to_json();
        let root = crate::json::parse(&json).expect("strict parser accepts the snapshot");
        assert_eq!(root.get("network").unwrap().as_str(), Some(hostile));
        for list in ["layers", "policy_layers"] {
            let row = &root.get(list).unwrap().as_array().unwrap()[0];
            assert_eq!(row.get("name").unwrap().as_str(), Some(hostile), "{list}");
        }
        assert!(json.contains("\"hit_rate\": 0.875000"));
        assert!(json.contains("\"misses\": 4"));
        assert!(json.contains("\"signature_cache\": {\"lookups\": 5, \"hits\": 3"));
        assert!(json.contains("\"signature_lookups\": 2"));
        assert!(json.contains("\"policy\": \"adaptive\""));
        assert!(json.contains("\"step_scale\": 1.500000"));
        // Non-finite floats degrade to null, keeping the JSON parseable.
        assert!(json.contains("\"max_drift\": null"));
        assert!(json.contains("\"hit_rate_window\": null"));
        assert!(json.contains("\"reuse_threshold\": null"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
