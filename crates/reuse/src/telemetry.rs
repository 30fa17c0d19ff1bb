//! Runtime observability for the reuse engine: per-layer ring-buffer
//! counters, buffer-pool and drift-watchdog statistics, and their JSON
//! export ([`TelemetrySnapshot`]).
//!
//! The paper's value proposition is statistical — hit rates and correction
//! counts vary per layer and over time (Figs. 4/5) — so a long-running
//! deployment needs live numbers, not just the lifetime aggregates of
//! [`crate::EngineMetrics`]. Everything here is preallocated at engine
//! construction: recording into the rings is O(1) and allocation-free, so
//! telemetry can stay enabled on the zero-allocation steady-state hot path.
//! Building a [`TelemetrySnapshot`] (and serializing it) allocates and is
//! meant for cold reporting paths only.

// The module reports floating-point statistics; exact comparisons are
// always a bug here (the watchdog compares against bounds, never equality).
#![deny(clippy::float_cmp)]

use std::fmt::Write as _;

use crate::json::{json_num, json_str};

/// A fixed-capacity ring buffer of `f32` samples.
///
/// The backing storage is allocated once at construction; `push` overwrites
/// the oldest sample when full and never allocates.
#[derive(Debug, Clone)]
pub struct Ring {
    buf: Vec<f32>,
    /// Next write position.
    head: usize,
    /// Number of valid samples (≤ capacity).
    len: usize,
}

impl Ring {
    /// Creates an empty ring holding up to `capacity` samples (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Ring {
            buf: vec![0.0; capacity.max(1)],
            head: 0,
            len: 0,
        }
    }

    /// Appends a sample, overwriting the oldest when full. Never allocates.
    pub fn push(&mut self, v: f32) {
        let cap = self.buf.len();
        self.buf[self.head] = v;
        self.head = (self.head + 1) % cap;
        if self.len < cap {
            self.len += 1;
        }
    }

    /// Number of valid samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no samples have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of samples held.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// The most recently pushed sample.
    pub fn last(&self) -> Option<f32> {
        if self.len == 0 {
            return None;
        }
        let cap = self.buf.len();
        Some(self.buf[(self.head + cap - 1) % cap])
    }

    /// Iterates the valid samples from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = f32> + '_ {
        let cap = self.buf.len();
        let start = (self.head + cap - self.len) % cap;
        (0..self.len).map(move |i| self.buf[(start + i) % cap])
    }

    /// Mean of the valid samples (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.iter().map(f64::from).sum::<f64>() / self.len as f64
    }

    /// Drops all samples, keeping the allocation.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
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

/// Per-layer, per-execution telemetry: recent-window rings, the span total
/// and the signature counters. Only incremental (non-from-scratch)
/// executions are recorded, in step with [`crate::LayerMetrics`], which
/// holds the lifetime input and MAC counters.
#[derive(Debug, Clone)]
pub struct LayerTelemetry {
    /// Layer name within the network.
    pub name: String,
    /// Per-execution quantized-input hit rate (unchanged / inputs).
    pub hit_rate: Ring,
    /// Per-execution corrections applied (changed inputs).
    pub corrections: Ring,
    /// Per-execution MACs skipped (total − performed).
    pub macs_skipped: Ring,
    /// Per-execution skip/correct span in nanoseconds (0 = unmeasured).
    pub span_ns: Ring,
    /// Measured span nanoseconds summed across executions.
    pub span_ns_total: u64,
    /// Cross-stream signature lookups attempted for this layer.
    pub signature_lookups: u64,
    /// Signature hits for this layer.
    pub signature_hits: u64,
    /// Signature hits abandoned by the false-positive guard.
    pub signature_bailouts: u64,
}

impl LayerTelemetry {
    fn new(name: &str, window: usize) -> Self {
        LayerTelemetry {
            name: name.to_string(),
            hit_rate: Ring::new(window),
            corrections: Ring::new(window),
            macs_skipped: Ring::new(window),
            span_ns: Ring::new(window),
            span_ns_total: 0,
            signature_lookups: 0,
            signature_hits: 0,
            signature_bailouts: 0,
        }
    }

    /// Records one incremental execution. Allocation-free.
    pub(crate) fn record(
        &mut self,
        n_inputs: u64,
        n_changed: u64,
        macs_total: u64,
        macs_performed: u64,
        span_ns: u64,
    ) {
        let unchanged = n_inputs.saturating_sub(n_changed);
        let skipped = macs_total.saturating_sub(macs_performed);
        self.span_ns_total += span_ns;
        let rate = if n_inputs == 0 {
            0.0
        } else {
            unchanged as f32 / n_inputs as f32
        };
        self.hit_rate.push(rate);
        self.corrections.push(n_changed as f32);
        self.macs_skipped.push(skipped as f32);
        self.span_ns.push(span_ns as f32);
    }

    /// Records the outcome of one cross-stream signature lookup
    /// (cold path, but still allocation-free).
    pub(crate) fn record_signature(&mut self, hit: bool, bailed: bool) {
        self.signature_lookups += 1;
        if hit {
            self.signature_hits += 1;
        }
        if bailed {
            self.signature_bailouts += 1;
        }
    }

    fn reset(&mut self) {
        self.hit_rate.clear();
        self.corrections.clear();
        self.macs_skipped.clear();
        self.span_ns.clear();
        self.span_ns_total = 0;
        self.signature_lookups = 0;
        self.signature_hits = 0;
        self.signature_bailouts = 0;
    }
}

/// Live telemetry state owned by a [`crate::ReuseSession`] when
/// [`crate::ReuseConfig::telemetry`] is enabled. All storage is
/// preallocated at engine construction; recording never allocates.
#[derive(Debug, Clone)]
pub struct EngineTelemetry {
    /// One entry per weighted layer, in network order (same indexing as
    /// [`crate::EngineMetrics::layers`]).
    pub layers: Vec<LayerTelemetry>,
    /// Reuse-phase frames observed (timesteps for recurrent networks).
    pub frames: u64,
    window: usize,
}

impl EngineTelemetry {
    /// Creates telemetry with a `window`-sample ring per layer.
    pub(crate) fn new<'a>(names: impl Iterator<Item = &'a str>, window: usize) -> Self {
        let window = window.max(1);
        EngineTelemetry {
            layers: names.map(|n| LayerTelemetry::new(n, window)).collect(),
            frames: 0,
            window,
        }
    }

    /// The configured ring capacity.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Finds a layer's telemetry by name.
    pub fn layer(&self, name: &str) -> Option<&LayerTelemetry> {
        self.layers.iter().find(|l| l.name == name)
    }

    pub(crate) fn reset(&mut self) {
        for l in &mut self.layers {
            l.reset();
        }
        self.frames = 0;
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
    /// Ring capacity used for the windowed statistics.
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

    #[test]
    fn ring_overwrites_oldest() {
        let mut r = Ring::new(3);
        assert!(r.is_empty());
        assert_eq!(r.last(), None);
        for v in [1.0, 2.0, 3.0, 4.0] {
            r.push(v);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
        let vals: Vec<f32> = r.iter().collect();
        assert_eq!(vals, vec![2.0, 3.0, 4.0]);
        assert_eq!(r.last(), Some(4.0));
        assert!((r.mean() - 3.0).abs() < 1e-12);
        r.clear();
        assert!(r.is_empty());
    }

    #[test]
    fn ring_minimum_capacity_is_one() {
        let mut r = Ring::new(0);
        assert_eq!(r.capacity(), 1);
        r.push(7.0);
        r.push(8.0);
        assert_eq!(r.last(), Some(8.0));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn layer_record_accumulates_and_windows() {
        let mut l = LayerTelemetry::new("fc1", 2);
        l.record(100, 25, 1000, 250, 500);
        l.record(100, 75, 1000, 750, 300);
        assert!((l.hit_rate.mean() - 0.5).abs() < 1e-6);
        assert!((l.corrections.mean() - 50.0).abs() < 1e-6);
        assert!((l.macs_skipped.mean() - 500.0).abs() < 1e-6);
        assert_eq!(l.span_ns_total, 800);
        // A third record evicts the first from the window but not the total.
        l.record(100, 100, 1000, 1000, 100);
        assert_eq!(l.hit_rate.len(), 2);
        assert!((l.hit_rate.mean() - 0.125).abs() < 1e-6);
        assert_eq!(l.span_ns_total, 900);
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
