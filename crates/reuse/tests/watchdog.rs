//! Drift-watchdog behaviour: detection, re-baselining, bit-identity of the
//! re-baselined output, escalation to auto-disable, and the consistency of
//! telemetry with the engine's offline metrics.

use proptest::prelude::*;
use reuse_core::{ReuseConfig, ReuseSession};
use reuse_nn::{init::Rng64, Activation, Network, NetworkBuilder};

fn mlp(seed: u64) -> Network {
    let _ = seed; // NetworkBuilder seeds internally from the name.
    NetworkBuilder::new("watchdog-mlp", 24)
        .fully_connected(48, Activation::Relu)
        .fully_connected(32, Activation::Relu)
        .fully_connected(8, Activation::Identity)
        .build()
        .unwrap()
}

fn drifting_frames(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Rng64::new(seed);
    let mut frame: Vec<f32> = (0..dim).map(|_| rng.uniform(0.8)).collect();
    (0..n)
        .map(|_| {
            for v in frame.iter_mut() {
                *v = (*v + rng.uniform(0.15)).clamp(-1.0, 1.0);
            }
            frame.clone()
        })
        .collect()
}

/// A deliberately coarse quantizer (2 clusters) makes incremental outputs
/// deviate far beyond a tight bound, so a watchdog checking every frame must
/// fire, re-baseline, and leave that frame's output bit-identical to the
/// full-precision reference.
#[test]
fn coarse_quantizer_trips_watchdog_and_rebaselines_bit_identically() {
    let net = mlp(0);
    let config = ReuseConfig::uniform(2)
        .telemetry(true)
        .drift_watchdog(1, 1e-4);
    let mut engine = ReuseSession::from_network(&net, &config);
    let frames = drifting_frames(12, 24, 42);
    for frame in &frames {
        let out = engine.execute(frame).unwrap();
        let stats = engine.watchdog_stats();
        if stats.rebaselines > 0 {
            // A re-baselined frame's output IS the reference output.
            let reference = engine.reference_forward(frame).unwrap();
            assert_eq!(
                out.as_slice(),
                reference.as_slice(),
                "post-rebaseline output must be bit-identical to reference_forward"
            );
        }
    }
    let stats = engine.watchdog_stats();
    assert!(stats.checks >= 10, "checked {} frames", stats.checks);
    assert!(
        stats.rebaselines > 0,
        "2-cluster quantization over drifting frames must exceed a 1e-4 bound"
    );
    assert!(stats.max_drift > 1e-4);
    let snap = engine.telemetry_snapshot().unwrap();
    assert!(
        snap.layers.iter().any(|l| l.rebaselines > 0),
        "per-layer rebaseline provenance missing from snapshot"
    );
}

/// With a fine quantizer and a loose bound the watchdog checks but never
/// fires, and reuse statistics keep accumulating normally.
#[test]
fn fine_quantizer_never_trips_watchdog() {
    let net = mlp(0);
    let config = ReuseConfig::uniform(32).drift_watchdog(2, 0.5);
    let mut engine = ReuseSession::from_network(&net, &config);
    for frame in &drifting_frames(10, 24, 7) {
        engine.execute(frame).unwrap();
    }
    let stats = engine.watchdog_stats();
    assert!(stats.checks >= 4);
    assert_eq!(stats.rebaselines, 0, "drift {}", stats.max_drift);
    assert!(stats.max_drift < 0.5);
    assert!(engine.metrics().overall_input_similarity() > 0.0);
}

/// The watchdog checks feed-forward frames only: armed to check every frame
/// against a zero bound, a recurrent session never runs a check, and its
/// outputs and metrics are a watchdog-off session's.
#[test]
fn recurrent_sessions_never_run_the_watchdog() {
    let net = NetworkBuilder::new("watchdog-rnn", 24)
        .bilstm(9)
        .fully_connected(8, Activation::Identity)
        .build()
        .unwrap();
    let off = ReuseConfig::uniform(8).telemetry(true);
    let mut armed = ReuseSession::from_network(&net, &off.clone().drift_watchdog(1, 0.0));
    let mut plain = ReuseSession::from_network(&net, &off);
    let frames = drifting_frames(40, 24, 5);
    for sequence in frames.chunks(8) {
        let want = plain.execute_sequence(sequence).unwrap();
        for (got, want) in armed.execute_sequence(sequence).unwrap().iter().zip(&want) {
            let bits = |t: &reuse_tensor::Tensor| {
                t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(got), bits(want));
        }
    }
    assert!(armed.is_calibrated(), "the reuse phase ran");
    assert_eq!(armed.watchdog_stats().checks, 0);
    assert_eq!(armed.metrics(), plain.metrics());
}

/// The escalation path: repeated strikes auto-disable the drifting layers,
/// after which they run in full precision and the engine output tracks the
/// reference exactly.
#[test]
fn repeated_strikes_escalate_to_auto_disable() {
    let net = mlp(0);
    let config = ReuseConfig::uniform(2)
        .drift_watchdog(1, 1e-5)
        .drift_escalate_after(2);
    let mut engine = ReuseSession::from_network(&net, &config);
    let frames = drifting_frames(30, 24, 3);
    for frame in &frames {
        engine.execute(frame).unwrap();
    }
    let disabled = engine.auto_disabled_layers().count();
    assert!(
        disabled > 0,
        "a 1e-5 bound with 2 clusters must accumulate strikes: {:?}",
        engine.watchdog_stats()
    );
    // Once every layer is disabled, execution is full-precision end to end.
    if disabled == 3 {
        let last = frames.last().unwrap();
        let out = engine.execute(last).unwrap();
        let reference = engine.reference_forward(last).unwrap();
        assert_eq!(out.as_slice(), reference.as_slice());
    }
}

/// Escalation does not release the zero-allocation contract: an
/// auto-disabled conv layer runs at full precision through the same pool as
/// every other layer, so the frames after it — re-baselines included — never
/// miss the pool (in a debug build the pool's steady-miss assertion stays
/// armed through all of them).
#[test]
fn escalated_layers_keep_the_pool_steady() {
    let net = NetworkBuilder::with_input_shape("watchdog-cnn", reuse_tensor::Shape::d3(2, 8, 8))
        .conv2d(4, 3, 1, 1, Activation::Relu)
        .pool2d(2)
        .flatten()
        .fully_connected(6, Activation::Identity)
        .build()
        .unwrap();
    let config = ReuseConfig::uniform(2)
        .drift_watchdog(1, 1e-5)
        .drift_escalate_after(2);
    let mut session = ReuseSession::from_network(&net, &config);
    let frames = drifting_frames(40, 128, 5);
    let (escalating, after) = frames.split_at(30);
    let mut out = Vec::new();
    for frame in escalating {
        session.execute_into(frame, &mut out).unwrap();
    }
    assert!(
        session.auto_disabled_layers().any(|l| l == "conv1"),
        "a 1e-5 bound with 2 clusters must escalate conv1: {:?}",
        session.watchdog_stats()
    );
    let misses = session.pool_stats().misses;
    for frame in after {
        session.execute_into(frame, &mut out).unwrap();
    }
    assert_eq!(session.pool_stats().misses, misses);
}

/// Telemetry must agree exactly with the offline metrics: lifetime hit rate
/// per layer == `LayerMetrics::input_similarity` on the same run.
#[test]
fn telemetry_hit_rates_match_offline_metrics_exactly() {
    let net = mlp(0);
    let config = ReuseConfig::uniform(16).telemetry(true);
    let mut engine = ReuseSession::from_network(&net, &config);
    for frame in &drifting_frames(20, 24, 5) {
        engine.execute(frame).unwrap();
    }
    let snap = engine.telemetry_snapshot().unwrap();
    assert_eq!(snap.layers.len(), engine.metrics().layers.len());
    for layer in &snap.layers {
        let m = engine.metrics().layer(&layer.name).unwrap();
        assert!(
            (layer.hit_rate - m.input_similarity()).abs() < f64::EPSILON,
            "{}: telemetry {} vs metrics {}",
            layer.name,
            layer.hit_rate,
            m.input_similarity()
        );
        assert_eq!(layer.reuse_executions, m.reuse_executions);
        assert_eq!(
            layer.macs_skipped_total,
            m.macs_total - m.macs_performed,
            "{}",
            layer.name
        );
    }
    // The JSON export round-trips the same hit rates.
    let json = snap.to_json();
    assert!(json.contains("\"network\": \"watchdog-mlp\""));
    for layer in &snap.layers {
        assert!(json.contains(&format!("\"name\": \"{}\"", layer.name)));
    }
    // Pool provenance: steady-state frames hit the recycled buffers.
    assert!(snap.pool.hits > snap.pool.misses);
}

/// `reset_state` clears accumulated statistics (metrics, relative
/// differences, telemetry, watchdog counters) but keeps quantizers, so the
/// next execution is quantized-from-scratch with fresh numbers.
#[test]
fn reset_state_clears_statistics_but_keeps_quantizers() {
    let net = mlp(0);
    let config = ReuseConfig::uniform(16)
        .telemetry(true)
        .record_relative_difference(true)
        .drift_watchdog(1, 0.0); // fires every check: drift is never < 0
    let mut engine = ReuseSession::from_network(&net, &config);
    for frame in &drifting_frames(8, 24, 13) {
        engine.execute(frame).unwrap();
    }
    assert!(engine.metrics().executions > 0);
    assert!(engine.watchdog_stats().checks > 0);
    assert!(engine
        .layer_relative_differences("fc1")
        .is_some_and(|r| !r.is_empty()));

    engine.reset_state();

    assert!(engine.is_calibrated(), "quantizers survive reset_state");
    assert!(engine.quantizer_for("fc1").is_some());
    assert_eq!(engine.metrics().executions, 0);
    for m in &engine.metrics().layers {
        assert_eq!(m.reuse_executions, 0);
        assert_eq!(m.inputs_total, 0);
        assert!(m.relative_differences.is_empty());
    }
    let stats = engine.watchdog_stats();
    assert_eq!(stats.checks, 0);
    assert_eq!(stats.rebaselines, 0);
    let snap = engine.telemetry_snapshot().unwrap();
    assert_eq!(snap.frames, 0);
    for l in &snap.layers {
        assert_eq!(l.reuse_executions, 0);
        assert_eq!(l.hit_rate_window, 0.0, "{}: window emptied", l.name);
        assert_eq!(l.span_ns_window, 0.0, "{}: window emptied", l.name);
        assert_eq!(l.rebaselines, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: for any drifting input sequence, a watchdog armed with a
    /// coarse quantizer and a tight bound re-baselines at least once, and
    /// every frame where a check fired ends bit-identical to the reference
    /// (either drift was within bound after an earlier re-baseline, or the
    /// frame was re-baselined now). Checked on the final frame.
    #[test]
    fn watchdog_rebaseline_restores_reference_output(
        seed in 0u64..500,
        clusters in 2usize..4,
    ) {
        let net = mlp(0);
        let config = ReuseConfig::uniform(clusters).drift_watchdog(1, 1e-6);
        let mut engine = ReuseSession::from_network(&net, &config);
        let frames = drifting_frames(8, 24, seed);
        let mut last_out = None;
        for frame in &frames {
            last_out = Some(engine.execute(frame).unwrap());
        }
        let stats = engine.watchdog_stats();
        prop_assert!(stats.checks >= 6);
        prop_assert!(stats.rebaselines > 0, "max drift {}", stats.max_drift);
        // The final frame was checked (cadence 1). A 1e-6 bound is below
        // f32 noise for this net, so it must have been re-baselined, making
        // its output exactly the reference.
        let reference = engine.reference_forward(frames.last().unwrap()).unwrap();
        let last_out = last_out.unwrap();
        prop_assert_eq!(last_out.as_slice(), reference.as_slice());
    }
}
