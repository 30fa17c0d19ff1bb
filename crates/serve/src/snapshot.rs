//! Owned, serializable snapshots of server state.
//!
//! Mirrors the hand-rolled JSON style of
//! `reuse_core`'s `TelemetrySnapshot` — no external serialization
//! dependencies (the build environment pins an offline registry).

use std::fmt::Write as _;

use reuse_core::json::{json_num, json_str};

/// Aggregate and per-stream server state at one point in time. Built by
/// [`crate::StreamServer::snapshot`]; owns all its data.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSnapshot {
    /// Network name of the shared compiled model.
    pub network: String,
    /// Streams currently holding a session in the pool.
    pub active_streams: usize,
    /// Session-pool cap.
    pub max_sessions: usize,
    /// Scheduling ticks run.
    pub ticks: u64,
    /// Frames accepted across all streams.
    pub frames_submitted: u64,
    /// Frames completed across all streams.
    pub frames_completed: u64,
    /// Submits rejected because the stream's ingress queue was full.
    pub rejected_queue_full: u64,
    /// Submits load-shed on degraded streams.
    pub shed: u64,
    /// Submits rejected by the projected-deadline-miss policy.
    pub deadline_shed: u64,
    /// Queued frames dropped at execution time (deadline already passed).
    pub expired: u64,
    /// Streams evicted by the LRU session-pool cap.
    pub evictions: u64,
    /// Queued frames discarded with their evicted stream.
    pub evicted_frames: u64,
    /// Completed outputs overwritten because callers stopped draining.
    pub outputs_dropped: u64,
    /// Samples in the latency histogram.
    pub latency_count: u64,
    /// Median submit-to-completion latency (log-linear bucket edge, ns).
    pub p50_ns: u64,
    /// 99th-percentile submit-to-completion latency (ns).
    pub p99_ns: u64,
    /// 99.9th-percentile submit-to-completion latency (ns).
    pub p999_ns: u64,
    /// Largest exact latency sample (ns).
    pub max_ns: u64,
    /// EWMA of the per-frame service time feeding the deadline projection
    /// (ns; `0.0` before the first completed frame).
    pub service_ewma_ns: f64,
    /// Per-stream detail, in pool order.
    pub streams: Vec<StreamSnapshot>,
}

/// One stream's state within a [`ServerSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSnapshot {
    /// Caller-chosen stream id.
    pub id: u64,
    /// Frames accepted into this stream's queue.
    pub frames_in: u64,
    /// Frames completed for this stream.
    pub frames_done: u64,
    /// Frames currently queued.
    pub queue_len: usize,
    /// This stream's submits rejected because its queue was full.
    pub rejected_queue_full: u64,
    /// This stream's submits load-shed while degraded.
    pub shed: u64,
    /// This stream's submits rejected by the projected-deadline-miss
    /// policy.
    pub deadline_shed: u64,
    /// This stream's queued frames dropped with an already-passed
    /// deadline.
    pub expired: u64,
    /// Whether the stream's drift watchdog has auto-disabled reuse layers.
    pub degraded: bool,
    /// Whether the stream has a sticky execution error (skipped by ticks).
    pub failed: bool,
    /// The session's overall input similarity
    /// ([`reuse_core::EngineMetrics::overall_input_similarity`]): the
    /// fraction of layer inputs whose quantized code matched frame t-1.
    /// Formerly (mis)named `hit_rate`.
    pub input_similarity: f64,
}

impl ServerSnapshot {
    /// Serializes the snapshot as pretty-printed JSON (hand-rolled, same
    /// style as the engine's telemetry snapshot and the bench binaries).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"network\": {},", json_str(&self.network));
        let _ = writeln!(s, "  \"active_streams\": {},", self.active_streams);
        let _ = writeln!(s, "  \"max_sessions\": {},", self.max_sessions);
        let _ = writeln!(s, "  \"ticks\": {},", self.ticks);
        let _ = writeln!(s, "  \"frames_submitted\": {},", self.frames_submitted);
        let _ = writeln!(s, "  \"frames_completed\": {},", self.frames_completed);
        let _ = writeln!(
            s,
            "  \"backpressure\": {{\"queue_full\": {}, \"shed\": {}, \"deadline_shed\": {}, \
             \"expired\": {}, \"outputs_dropped\": {}}},",
            self.rejected_queue_full,
            self.shed,
            self.deadline_shed,
            self.expired,
            self.outputs_dropped
        );
        let _ = writeln!(
            s,
            "  \"evictions\": {{\"streams\": {}, \"frames\": {}}},",
            self.evictions, self.evicted_frames
        );
        let _ = writeln!(
            s,
            "  \"latency_ns\": {{\"count\": {}, \"p50\": {}, \"p99\": {}, \"p999\": {}, \
             \"max\": {}}},",
            self.latency_count, self.p50_ns, self.p99_ns, self.p999_ns, self.max_ns
        );
        let _ = writeln!(
            s,
            "  \"service_ewma_ns\": {},",
            json_num(self.service_ewma_ns)
        );
        s.push_str("  \"streams\": [\n");
        for (i, st) in self.streams.iter().enumerate() {
            let comma = if i + 1 == self.streams.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{\"id\": {}, \"frames_in\": {}, \"frames_done\": {}, \
                 \"queue_len\": {}, \"queue_full\": {}, \"shed\": {}, \
                 \"deadline_shed\": {}, \"expired\": {}, \"degraded\": {}, \
                 \"failed\": {}, \"input_similarity\": {}}}{}",
                st.id,
                st.frames_in,
                st.frames_done,
                st.queue_len,
                st.rejected_queue_full,
                st.shed,
                st.deadline_shed,
                st.expired,
                st.degraded,
                st.failed,
                json_num(st.input_similarity),
                comma
            );
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_is_well_formed() {
        // A quote, a backslash, a control character and a non-BMP scalar.
        let hostile = "kaldi\"test\"\\\u{2}\u{1F680}";
        let snap = ServerSnapshot {
            network: hostile.to_string(),
            active_streams: 2,
            max_sessions: 4,
            ticks: 10,
            frames_submitted: 20,
            frames_completed: 18,
            rejected_queue_full: 1,
            shed: 0,
            deadline_shed: 3,
            expired: 1,
            evictions: 1,
            evicted_frames: 2,
            outputs_dropped: 0,
            latency_count: 18,
            p50_ns: 4095,
            p99_ns: 65535,
            p999_ns: 65535,
            max_ns: 60000,
            service_ewma_ns: 1234.5,
            streams: vec![
                StreamSnapshot {
                    id: 0,
                    frames_in: 10,
                    frames_done: 9,
                    queue_len: 1,
                    rejected_queue_full: 0,
                    shed: 0,
                    deadline_shed: 2,
                    expired: 1,
                    degraded: false,
                    failed: false,
                    input_similarity: 0.75,
                },
                StreamSnapshot {
                    id: 7,
                    frames_in: 10,
                    frames_done: 9,
                    queue_len: 0,
                    rejected_queue_full: 1,
                    shed: 0,
                    deadline_shed: 0,
                    expired: 0,
                    degraded: true,
                    failed: true,
                    input_similarity: f64::NAN,
                },
            ],
        };
        let json = snap.to_json();
        let root = reuse_core::json::parse(&json).expect("strict parser accepts the snapshot");
        assert_eq!(root.get("network").unwrap().as_str(), Some(hostile));
        assert!(root.has_path("streams.input_similarity"));
        // The retired cache and policy objects are gone from the schema.
        assert!(!root.has_path("signature_cache"));
        assert!(!root.has_path("policy"));
        assert!(!root.has_path("policy_layers"));
        assert!(json.contains("\"p99\": 65535"));
        assert!(json.contains("\"p999\": 65535"));
        assert!(json.contains("\"deadline_shed\": 3"));
        assert!(json.contains("\"expired\": 1"));
        assert!(json.contains("\"service_ewma_ns\": 1234.5"));
        assert!(json.contains("\"degraded\": true"));
        assert!(json.contains("\"failed\": true"));
        // Non-finite similarity serializes as null, not NaN.
        assert!(json.contains("\"input_similarity\": null"));
        assert!(!json.contains("NaN"));
        // Balanced braces/brackets.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n  ]"));
    }
}
