//! Owned, serializable snapshots of server state: a [`ShardedSnapshot`]
//! of one [`ServerSnapshot`] per shard.
//!
//! Mirrors the hand-rolled JSON style of
//! `reuse_core`'s `TelemetrySnapshot` — no external serialization
//! dependencies (the build environment pins an offline registry).

use std::fmt::Write as _;

use reuse_core::json::{json_num, json_str};

/// One shard's aggregate and per-stream state at one point in time, an
/// element of [`ShardedSnapshot::shards`]; owns all its data.
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

/// Per-shard snapshots plus merged latency quantiles, built by
/// [`crate::ShardedServer::snapshot`]. Aggregate counters are summed on
/// demand from the per-shard snapshots.
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

    /// Serializes the aggregate counters and merged latency, then every
    /// shard's full detail under `per_shard` (its network, counters,
    /// evictions, latency, service-time EWMA and per-stream rows), as
    /// pretty-printed JSON (hand-rolled, same style as the engine's
    /// telemetry snapshot).
    pub fn to_json(&self) -> String {
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
        write_latency(
            &mut s,
            "  ",
            [
                self.latency_count,
                self.p50_ns,
                self.p99_ns,
                self.p999_ns,
                self.max_ns,
            ],
        );
        s.push_str("  \"per_shard\": [\n");
        for (i, shard) in self.shards.iter().enumerate() {
            write_shard(&mut s, shard);
            s.push_str(if i + 1 == self.shards.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

/// Writes a `latency_ns` member (`count`, `p50`, `p99`, `p999`, `max`)
/// at `indent`, with its trailing comma.
fn write_latency(s: &mut String, indent: &str, [count, p50, p99, p999, max]: [u64; 5]) {
    let _ = writeln!(
        s,
        "{indent}\"latency_ns\": {{\"count\": {count}, \"p50\": {p50}, \"p99\": {p99}, \
         \"p999\": {p999}, \"max\": {max}}},"
    );
}

/// Writes one shard's object of the `per_shard` array, without a trailing
/// comma or newline.
fn write_shard(s: &mut String, sh: &ServerSnapshot) {
    s.push_str("    {\n");
    let _ = writeln!(s, "      \"network\": {},", json_str(&sh.network));
    let _ = writeln!(s, "      \"active_streams\": {},", sh.active_streams);
    let _ = writeln!(s, "      \"max_sessions\": {},", sh.max_sessions);
    let _ = writeln!(s, "      \"ticks\": {},", sh.ticks);
    let _ = writeln!(s, "      \"frames_submitted\": {},", sh.frames_submitted);
    let _ = writeln!(s, "      \"frames_completed\": {},", sh.frames_completed);
    let _ = writeln!(
        s,
        "      \"backpressure\": {{\"queue_full\": {}, \"shed\": {}, \"deadline_shed\": {}, \
         \"expired\": {}, \"outputs_dropped\": {}}},",
        sh.rejected_queue_full, sh.shed, sh.deadline_shed, sh.expired, sh.outputs_dropped
    );
    let _ = writeln!(
        s,
        "      \"evictions\": {{\"streams\": {}, \"frames\": {}}},",
        sh.evictions, sh.evicted_frames
    );
    write_latency(
        s,
        "      ",
        [
            sh.latency_count,
            sh.p50_ns,
            sh.p99_ns,
            sh.p999_ns,
            sh.max_ns,
        ],
    );
    let _ = writeln!(
        s,
        "      \"service_ewma_ns\": {},",
        json_num(sh.service_ewma_ns)
    );
    s.push_str("      \"streams\": [\n");
    for (i, st) in sh.streams.iter().enumerate() {
        let comma = if i + 1 == sh.streams.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "        {{\"id\": {}, \"frames_in\": {}, \"frames_done\": {}, \
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
    s.push_str("      ]\n");
    s.push_str("    }");
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
        let sharded = ShardedSnapshot {
            p50_ns: snap.p50_ns,
            p99_ns: snap.p99_ns,
            p999_ns: snap.p999_ns,
            max_ns: snap.max_ns,
            latency_count: snap.latency_count,
            shards: vec![snap],
        };
        let json = sharded.to_json();
        let root = reuse_core::json::parse(&json).expect("strict parser accepts the snapshot");
        let shard = root.get("per_shard").and_then(|v| v.as_array()).unwrap();
        assert_eq!(shard.len(), 1);
        let shard = &shard[0];
        assert_eq!(shard.get("network").unwrap().as_str(), Some(hostile));
        assert!(root.has_path("per_shard.streams.input_similarity"));
        // The retired cache and policy objects are gone from the schema.
        assert!(!root.has_path("signature_cache"));
        assert!(!root.has_path("policy"));
        assert!(!root.has_path("policy_layers"));
        assert!(!root.has_path("per_shard.signature_cache"));
        assert!(!root.has_path("per_shard.policy"));
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
        assert!(!json.contains(",\n      ]"));
    }
}
