//! The names this binary emits: workloads, end-to-end metrics and per-layer
//! metrics with their units. `../BENCHMARK.json` declares the same sets and
//! adds the regression bounds; the schema test below keeps the two equal.

/// Timed phases are split into this many equal segments (fewer when a
/// unit is too long for that many to fit).
pub const SEGMENTS: usize = 56;
/// Open-loop latency limit: a frame counts as served when it is drained
/// within this long of its due time.
pub const LIMIT_US: u64 = 5_000;
/// Gated open-loop arrival rate: about 14% of closed-loop capacity at HEAD
/// on the reference box, so utilisation stays under a third while the host
/// runs the CPU at half speed. At 2000 frames/s the median latency ranged
/// 250-990 us from run to run. Never derived at run time.
pub const RATE_LO: f64 = 1_000.0;
/// Informational overload-probe rate (about 60% of capacity at HEAD).
pub const RATE_HI: f64 = 4_500.0;
/// The open-loop generator polls for completions at most this often.
pub const POLL_US: u64 = 50;
/// Streams multiplexed over the sharded server in `serve_open_loop`.
pub const SERVE_STREAMS: usize = 64;
/// Frames each closed-loop stream may have in flight.
pub const SERVE_IN_FLIGHT: usize = 4;
/// Connections and streams per connection in `net_closed_loop`.
pub const NET_CONNECTIONS: usize = 2;
pub const NET_STREAMS_PER_CONNECTION: usize = 4;
/// Timesteps per EESEN sequence (one unit).
pub const EESEN_SEQ_LEN: usize = 40;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "kaldi_stream",
        why: "Kaldi full scale (18 MB weights, past L2), one session, ~70% reuse: quantize/diff plus apply_deltas_rows against a bandwidth-bound FC matvec, nearest the correct/recompute crossover",
    },
    WorkloadSpec {
        name: "kaldi_shuffled",
        why: "Same model and frames in a seeded shuffled order, so reuse falls to its ~34% floor: the low-similarity side of the same correction path, which must not move kaldi_stream",
    },
    WorkloadSpec {
        name: "eesen_stream",
        why: "EESEN full scale over 40-step sequences with state reset per sequence: the only recurrent path (LSTM steps, combined gates, h feedback); FC and conv changes must leave it flat",
    },
    WorkloadSpec {
        name: "autopilot_stream",
        why: "AutoPilot small scale on dashcam frames: conv2d forward and conv2d correction do almost all the work, so conv-onto-GEMM must move this and not Kaldi",
    },
    WorkloadSpec {
        name: "c3d_stream",
        why: "C3D small scale on 16-frame windows: conv3d has its own kernels and a reuse-disabled CONV1 recomputed every window, so forward-kernel speed shows even with reuse on",
    },
    WorkloadSpec {
        name: "serve_open_loop",
        why: "Kaldi small, 64 streams on a 1-shard ShardedServer with workers: closed-loop capacity, then open loop at 1000 frames/s timed from due time against a 5 ms limit: queueing and lock hold",
    },
    WorkloadSpec {
        name: "net_closed_loop",
        why: "Kaldi small behind NetServer on loopback, 2 connections x 4 streams, one frame in flight per connection: preamble, framing, poll loop and response pairing, about 2/3 of a round trip",
    },
];

/// `(name, unit, better)`.
pub type MetricSpec = (&'static str, &'static str, &'static str);

/// Printed by every workload with `--trace 0`.
pub const END_TO_END: [MetricSpec; 5] = [
    ("setup_s", "s", "lower"),
    ("frames_per_s", "frames/s", "higher"),
    ("baseline_frames_per_s", "frames/s", "higher"),
    ("unit_p50_us", "us", "lower"),
    ("state_kib_per_stream", "KiB", "lower"),
];

/// Printed by every workload with `--trace 1`; a metric of a layer the
/// workload does not run reads 0.
pub const PER_LAYER: [MetricSpec; 67] = [
    ("failed_share", "share", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("tensor.fc_packed_forward_ns", "ns", "lower"),
    ("tensor.fc_packed_forward_gbps", "GB/s", "higher"),
    ("tensor.apply_deltas_rows_ns", "ns", "lower"),
    ("tensor.conv2d_forward_ns", "ns", "lower"),
    ("tensor.conv3d_forward_ns", "ns", "lower"),
    ("tensor.matmul_packed_gflops", "GFLOP/s", "higher"),
    ("quant.quantize_ns_per_kelem", "ns/kelem", "lower"),
    ("quant.diff_codes_ns", "ns", "lower"),
    ("quant.changed_fraction", "share", "lower"),
    ("nn.forward_fp32_ns", "ns", "lower"),
    ("nn.fc_forward_ns", "ns", "lower"),
    ("nn.conv_forward_ns", "ns", "lower"),
    ("nn.lstm_forward_ns", "ns", "lower"),
    ("nn.other_self_ns", "ns", "lower"),
    ("reuse.session_execute_ns", "ns", "lower"),
    ("reuse.fc_step_ns", "ns", "lower"),
    ("reuse.conv2d_step_ns", "ns", "lower"),
    ("reuse.conv3d_step_ns", "ns", "lower"),
    ("reuse.lstm_step_ns", "ns", "lower"),
    ("reuse.correct_self_ns", "ns", "lower"),
    ("reuse.session_self_ns", "ns", "lower"),
    ("reuse.slot_span_ns", "ns", "lower"),
    ("reuse.first_unit_ns", "ns", "lower"),
    ("reuse.input_similarity", "share", "higher"),
    ("reuse.computation_reuse", "share", "higher"),
    ("reuse.macs_performed_per_unit", "count", "lower"),
    ("reuse.output_rel_err", "ratio", "lower"),
    ("reuse.speedup_vs_off", "ratio", "higher"),
    ("reuse.speedup_vs_fp32", "ratio", "higher"),
    ("reuse.pool_misses_steady", "count", "lower"),
    ("reuse.rebaselines", "count", "lower"),
    ("reuse.auto_disabled_layers", "count", "lower"),
    ("reuse.unit_p90_us", "us", "lower"),
    ("reuse.unit_p99_us", "us", "lower"),
    ("reuse.packed_weights_mib", "MiB", "lower"),
    ("reuse.trace_overhead_pct", "%", "lower"),
    ("serve.submit_ns", "ns", "lower"),
    ("serve.tick_ns_per_frame", "ns", "lower"),
    ("serve.drain_ns", "ns", "lower"),
    ("serve.stream_server_self_ns", "ns", "lower"),
    ("serve.sharded_rtt_p50_us", "us", "lower"),
    ("serve.sharded_self_us", "us", "lower"),
    ("serve.server_latency_p50_us", "us", "lower"),
    ("serve.server_latency_p99_us", "us", "lower"),
    ("serve.frames_per_tick", "frames/tick", "higher"),
    ("serve.queue_full", "count", "lower"),
    ("serve.shed", "count", "lower"),
    ("serve.deadline_shed", "count", "lower"),
    ("serve.expired", "count", "lower"),
    ("serve.evictions", "count", "lower"),
    ("serve.open_p50_us", "us", "lower"),
    ("serve.open_p99_us", "us", "lower"),
    ("serve.within_limit_share", "share", "higher"),
    ("serve.gen_late_p99_us", "us", "lower"),
    ("serve.open_hi_p50_us", "us", "lower"),
    ("serve.open_hi_within_limit_share", "share", "higher"),
    ("serve_net.encode_request_ns", "ns", "lower"),
    ("serve_net.decode_request_ns", "ns", "lower"),
    ("serve_net.encode_response_ns", "ns", "lower"),
    ("serve_net.decode_f32s_ns", "ns", "lower"),
    ("serve_net.roundtrip_p50_us", "us", "lower"),
    ("serve_net.wire_self_us", "us", "lower"),
    ("serve_net.connect_us", "us", "lower"),
    ("serve_net.bytes_per_roundtrip", "B", "lower"),
    ("serve_net.status_not_ok", "count", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    /// `(name, unit, better)` of every entry of one metric list.
    fn declared(doc: &json::Value, key: &str) -> BTreeSet<(String, String, String)> {
        doc.get(key)
            .expect(key)
            .as_array()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(json::Value::as_str).expect(f).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn emitted(specs: &[MetricSpec]) -> BTreeSet<(String, String, String)> {
        specs
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("valid JSON");

        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .expect("workloads")
            .as_array()
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(json::Value::as_str).expect("name"),
                    w.get("why").and_then(json::Value::as_str).expect("why"),
                )
            })
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, ours);
        assert!((2..=8).contains(&workloads.len()));
        for (name, why) in &workloads {
            assert!(valid_name(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        }

        assert_eq!(declared(&doc, "end_to_end"), emitted(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), emitted(&PER_LAYER));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));

        let mut names = BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: unit {unit}");
            assert!(matches!(*better, "lower" | "higher"), "{name}");
            assert!(names.insert(*name), "{name} declared twice");
        }
        for w in &WORKLOADS {
            assert!(names.insert(w.name), "{} declared twice", w.name);
        }

        for m in doc.get("end_to_end").expect("end_to_end").as_array() {
            let bound = m.get("bound").and_then(json::Value::as_f64).expect("bound");
            assert!((0.0..=0.25).contains(&bound));
        }
        let setup = declared(&doc, "end_to_end")
            .into_iter()
            .find(|(n, _, _)| n == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.1.as_str(), setup.2.as_str()), ("s", "lower"));
        let seconds = doc
            .get("run_seconds")
            .and_then(json::Value::as_f64)
            .expect("run_seconds");
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
