//! The policy layer's two load-bearing guarantees (see `DESIGN.md`):
//!
//! 1. **Static bit-identity** — configuring [`StaticPolicy`] explicitly
//!    (or a [`TunedPolicy`] whose entries resolve to the static knobs)
//!    changes no output bit and no metric counter relative to a session
//!    of the unconfigured model, at every SIMD level (`scripts/ci.sh` runs
//!    this suite under both `REUSE_SIMD=off` and `REUSE_SIMD=avx2`).
//! 2. **Adaptive convergence** — on a drifting but similar stream the
//!    controller coarsens the grid and raises skipped MACs while the
//!    watchdog's accuracy proxy stays in band; on an adversarial stream it
//!    backs off to, at worst, exactly the static grid.

use std::sync::Arc;

use proptest::prelude::*;
use reuse_core::{
    AdaptivePolicy, CompiledModel, ReuseConfig, ReusePolicy, ReuseSession, StaticPolicy,
    TunedLayerPolicy, TunedPolicy,
};
use reuse_nn::{init::Rng64, Activation, Network, NetworkBuilder};
use reuse_tensor::Shape;

/// A smooth random walk of frames, mimicking consecutive sensor windows.
fn walk(len: usize, dim: usize, step: f32, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Rng64::new(seed);
    let mut frame: Vec<f32> = (0..dim).map(|_| rng.uniform(0.5)).collect();
    (0..len)
        .map(|_| {
            for v in &mut frame {
                *v = (*v + rng.uniform(step)).clamp(-1.0, 1.0);
            }
            frame.clone()
        })
        .collect()
}

fn mlp() -> Network {
    NetworkBuilder::new("mlp", 12)
        .seed(5)
        .fully_connected(24, Activation::Relu)
        .fully_connected(16, Activation::Relu)
        .fully_connected(4, Activation::Identity)
        .build()
        .unwrap()
}

fn cnn() -> Network {
    NetworkBuilder::with_input_shape("cnn", Shape::d3(2, 8, 8))
        .seed(6)
        .conv2d(4, 3, 1, 1, Activation::Relu)
        .pool2d(2)
        .flatten()
        .fully_connected(5, Activation::Identity)
        .build()
        .unwrap()
}

fn assert_bits_eq(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
    }
}

/// A tuned policy whose every entry resolves to exactly the static knobs
/// for `config` — the "policy file that changes nothing" case.
fn static_equivalent_tuned(net: &Network, config: &ReuseConfig) -> TunedPolicy {
    TunedPolicy {
        network: net.name().to_string(),
        layers: net
            .layers()
            .iter()
            .map(|(name, _)| TunedLayerPolicy {
                layer: name.clone(),
                clusters: config.default_clusters(),
                step_scale: 1.0,
                reuse_threshold: 1.0,
                adaptive: false,
            })
            .collect(),
    }
}

/// Runs the same stream through a session without a policy and through
/// one under `policy`, asserting bit-identical outputs and equal metric counters.
fn check_policy_is_noop(net: &Network, base: &ReuseConfig, policy: Arc<dyn ReusePolicy>) {
    let with_policy = base.clone().reuse_policy(policy);
    let dim = net.input_shape().volume();
    let stream = walk(40, dim, 0.1, 77);
    let mut legacy = ReuseSession::from_network(net, base);
    let model = Arc::new(CompiledModel::new(net, &with_policy));
    let mut session: ReuseSession = model.new_session();
    for frame in &stream {
        let a = legacy.execute(frame).unwrap();
        let b = session.execute(frame).unwrap();
        assert_bits_eq(a.as_slice(), b.as_slice());
    }
    assert_eq!(legacy.metrics(), session.metrics());
    assert_eq!(
        legacy.watchdog_stats(),
        session.watchdog_stats(),
        "watchdog path must be untouched by a static policy"
    );
    // The resolved state is visible but inert: scale pinned to 1.0, no
    // controller activity.
    for st in session.policy_states() {
        assert!(!st.adaptive);
        assert_eq!(st.step_scale.to_bits(), 1.0f32.to_bits());
        assert_eq!(st.observations + st.grows + st.shrinks + st.refreshes, 0);
    }
}

#[test]
fn explicit_static_policy_is_bit_identical_on_mlp_and_cnn() {
    for net in [mlp(), cnn()] {
        // Plain config, and one with the watchdog + signature knobs armed
        // so every policy-consuming code path runs.
        for base in [
            ReuseConfig::uniform(16),
            ReuseConfig::uniform(16)
                .drift_watchdog(4, 1e-2)
                .drift_escalate_after(2)
                .telemetry(true),
        ] {
            check_policy_is_noop(&net, &base, Arc::new(StaticPolicy));
        }
    }
}

#[test]
fn static_equivalent_tuned_policy_is_bit_identical() {
    for net in [mlp(), cnn()] {
        let base = ReuseConfig::uniform(16).drift_watchdog(5, 1e-2);
        let tuned = static_equivalent_tuned(&net, &base);
        // The file round-trips and still changes nothing.
        let reloaded = TunedPolicy::from_json(&tuned.to_json()).unwrap();
        assert_eq!(reloaded, tuned);
        check_policy_is_noop(&net, &base, Arc::new(reloaded));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property form of the bit-identity guarantee: random streams,
    /// cluster counts and watchdog cadences never surface a divergence
    /// between the unconfigured path and an explicit [`StaticPolicy`].
    #[test]
    fn static_policy_bit_identity_under_random_streams(
        seed in 0u64..1000,
        step in 1u32..30,
        clusters in 4usize..33,
        check_every in 0u64..6,
    ) {
        let net = mlp();
        let base = ReuseConfig::uniform(clusters).drift_watchdog(check_every, 5e-3);
        let with_policy = base.clone().reuse_policy(Arc::new(StaticPolicy));
        let stream = walk(24, 12, step as f32 / 100.0, seed);
        let mut legacy = ReuseSession::from_network(&net, &base);
        let model = Arc::new(CompiledModel::new(&net, &with_policy));
        let mut session = model.new_session();
        for frame in &stream {
            let a = legacy.execute(frame).unwrap();
            let b = session.execute(frame).unwrap();
            for (x, y) in a.as_slice().iter().zip(b.as_slice().iter()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        prop_assert_eq!(legacy.metrics(), session.metrics());
        prop_assert_eq!(legacy.watchdog_stats(), session.watchdog_stats());
    }

    /// The policy loader reads files: a valid document round-trips, and
    /// whatever a truncated or corrupted copy of it holds — every prefix,
    /// every position with one byte flipped — `from_json` answers `Ok` or a
    /// typed `Err` and never panics. Names carry quotes, backslashes,
    /// control characters and multi-byte scalars, so cuts and flips land
    /// inside escapes and inside scalars (a reader hands those over as
    /// U+FFFD, which is what `from_utf8_lossy` makes of them here).
    #[test]
    fn policy_loader_survives_every_truncation_and_byte_flip(
        names in proptest::collection::vec(
            proptest::sample::select(vec!["fc1", "conv\"2", "\u{e9}\\x", "\u{1F680}", "a\u{1}b", ""]),
            1..4,
        ),
        clusters in 2usize..200,
        step_scale in 1.0f32..64.0,
        reuse_threshold in 0.01f32..1.0,
        flip in 1u8..=255,
    ) {
        let policy = TunedPolicy {
            network: names.concat(),
            layers: names
                .iter()
                .enumerate()
                .map(|(i, name)| TunedLayerPolicy {
                    layer: name.to_string(),
                    clusters: clusters + i,
                    step_scale,
                    reuse_threshold,
                    adaptive: i % 2 == 0,
                })
                .collect(),
        };
        let text = policy.to_json();
        prop_assert_eq!(TunedPolicy::from_json(&text), Ok(policy));
        let bytes = text.as_bytes();
        for cut in 0..bytes.len() {
            // Only the trailing newline can go missing unnoticed.
            let prefix = String::from_utf8_lossy(&bytes[..cut]);
            let whole = cut >= text.trim_end().len();
            prop_assert_eq!(TunedPolicy::from_json(&prefix).is_ok(), whole, "{} bytes", cut);
            let mut corrupt = bytes.to_vec();
            corrupt[cut] ^= flip;
            let _ = TunedPolicy::from_json(&String::from_utf8_lossy(&corrupt));
        }
    }
}

/// Drives `session` and a static baseline over the same stream, returning
/// `(static_reuse, adaptive_reuse)` overall computation-reuse fractions.
fn run_pair(
    net: &Network,
    base: &ReuseConfig,
    adaptive_cfg: &ReuseConfig,
    stream: &[Vec<f32>],
) -> (f64, f64, ReuseSession) {
    let mut st = ReuseSession::from_network(net, base);
    let model = Arc::new(CompiledModel::new(net, adaptive_cfg));
    let mut ad = model.new_session();
    for frame in stream {
        st.execute(frame).unwrap();
        ad.execute(frame).unwrap();
    }
    (
        st.metrics().overall_computation_reuse(),
        ad.metrics().overall_computation_reuse(),
        ad,
    )
}

/// On a similar-but-drifting stream the controller must coarsen the grid
/// (raising skipped MACs above the static baseline) while the watchdog's
/// accuracy proxy stays in band — zero drift violations.
#[test]
fn adaptive_policy_raises_reuse_on_similar_streams_without_tripping_the_watchdog() {
    let net = mlp();
    let base = ReuseConfig::uniform(64).drift_watchdog(4, 0.25);
    let adaptive = base
        .clone()
        .reuse_policy(Arc::new(AdaptivePolicy::default()));
    // Fine base grid + smooth walk: moderate similarity at scale 1.0, so
    // the controller has room (and reason) to coarsen.
    let stream = walk(160, 12, 0.04, 42);
    let (static_reuse, adaptive_reuse, session) = run_pair(&net, &base, &adaptive, &stream);
    assert!(
        adaptive_reuse > static_reuse,
        "adaptive must skip more MACs: static {static_reuse:.4} vs adaptive {adaptive_reuse:.4}"
    );
    let wd = session.watchdog_stats();
    assert!(wd.checks > 0, "watchdog must have observed the run");
    assert_eq!(wd.rebaselines, 0, "accuracy proxy left its band");
    assert!(wd.max_drift <= 0.25, "drift {} out of band", wd.max_drift);
    let states = session.policy_states();
    assert!(
        states.iter().any(|s| s.step_scale > 1.0),
        "no layer coarsened: {states:?}"
    );
    assert!(states.iter().all(|s| s.adaptive));
    assert!(states.iter().map(|s| s.grows).sum::<u64>() > 0);
}

/// An adversarial stream — a calm prefix that lures the controller into
/// coarsening, then chaotic frames — must walk the scale back down; the
/// session ends at-worst-static, not stuck coarse and inaccurate.
#[test]
fn adaptive_policy_backs_off_to_static_on_adversarial_streams() {
    let net = mlp();
    let base = ReuseConfig::uniform(64).drift_watchdog(2, 0.02);
    let adaptive = base
        .clone()
        .reuse_policy(Arc::new(AdaptivePolicy::default()));
    let mut stream = walk(80, 12, 0.03, 9);
    // Chaos phase: frames jump across the whole input range.
    stream.extend(walk(120, 12, 1.5, 1009));
    let model = Arc::new(CompiledModel::new(&net, &adaptive));
    let mut session = model.new_session();
    for frame in &stream {
        session.execute(frame).unwrap();
    }
    let states = session.policy_states();
    assert!(
        states.iter().map(|s| s.grows).sum::<u64>() > 0,
        "calm prefix should have coarsened at least one layer: {states:?}"
    );
    assert!(
        states.iter().map(|s| s.shrinks).sum::<u64>() > 0,
        "chaos phase should have walked the scale back down: {states:?}"
    );
    for s in &states {
        assert!(
            s.step_scale <= 1.0 + 1e-6,
            "layer {} still coarse after backoff: scale {}",
            s.name,
            s.step_scale
        );
    }
    // The tightened threshold makes chaotic frames refresh instead of
    // paying per-input corrections on a stale baseline.
    assert!(
        states.iter().map(|s| s.refreshes).sum::<u64>() > 0,
        "chaotic frames above the refresh threshold must refresh: {states:?}"
    );
}

/// A layer the config disables stays disabled whatever the policy says
/// about it — including a tuned entry that names it — and runs unmetered
/// in full precision, exactly like the same layer without a policy.
#[test]
fn disabled_layer_stays_disabled_under_every_policy() {
    let net = mlp();
    let base = ReuseConfig::uniform(16)
        .disable_layer("fc2")
        .drift_watchdog(4, 0.25);
    let tuned = TunedPolicy {
        network: net.name().to_string(),
        layers: vec![TunedLayerPolicy {
            layer: "fc2".to_string(),
            clusters: 8,
            step_scale: 2.0,
            reuse_threshold: 0.5,
            adaptive: true,
        }],
    };
    let policies: [Arc<dyn ReusePolicy>; 3] = [
        Arc::new(StaticPolicy),
        Arc::new(AdaptivePolicy::default()),
        Arc::new(tuned),
    ];
    let stream = walk(24, 12, 0.05, 17);
    for policy in policies {
        let name = policy.name();
        let model = Arc::new(CompiledModel::new(&net, &base.clone().reuse_policy(policy)));
        for (layer, spec) in model.layer_policy_specs() {
            assert_eq!(spec.enabled, layer != "fc2", "{name}: {layer}");
        }
        let mut session = model.new_session();
        for frame in &stream {
            session.execute(frame).unwrap();
        }
        let fc2 = session.metrics().layer("fc2").unwrap();
        assert_eq!(fc2.reuse_executions, 0, "{name}: fc2 must run unmetered");
        assert!(session.quantizer_for("fc2").is_none(), "{name}");
        assert!(session.metrics().layer("fc1").unwrap().reuse_executions > 0);
    }
}

/// Telemetry snapshots expose the controllers' live state so operators can
/// see what the policy chose.
#[test]
fn telemetry_snapshot_carries_policy_state() {
    let net = mlp();
    let config = ReuseConfig::uniform(32)
        .drift_watchdog(4, 0.25)
        .telemetry(true)
        .reuse_policy(Arc::new(AdaptivePolicy::default()));
    let model = Arc::new(CompiledModel::new(&net, &config));
    let mut session = model.new_session();
    for frame in &walk(60, 12, 0.05, 64) {
        session.execute(frame).unwrap();
    }
    let snap = session.telemetry_snapshot().expect("telemetry enabled");
    assert_eq!(snap.policy, "adaptive");
    assert_eq!(snap.policy_layers.len(), 3);
    let json = snap.to_json();
    assert!(json.contains("\"policy\": \"adaptive\""));
    assert!(json.contains("\"policy_layers\": ["));
    assert!(json.contains("\"reuse_threshold\""));
}

/// `reset_state` returns the controllers (and the grid) to the initial
/// operating point: a reset adaptive session replays a stream exactly as a
/// fresh one does.
#[test]
fn reset_state_restores_the_initial_operating_point() {
    let net = mlp();
    let config = ReuseConfig::uniform(64)
        .drift_watchdog(4, 0.25)
        .reuse_policy(Arc::new(AdaptivePolicy::default()));
    let stream = walk(100, 12, 0.05, 31);
    let model = Arc::new(CompiledModel::new(&net, &config));
    let mut session = model.new_session();
    for frame in &stream {
        session.execute(frame).unwrap();
    }
    assert!(session.policy_states().iter().any(|s| s.step_scale > 1.0));
    session.reset_state();
    for s in session.policy_states() {
        assert_eq!(s.step_scale.to_bits(), 1.0f32.to_bits());
        assert_eq!(s.observations + s.grows + s.shrinks + s.refreshes, 0);
    }
    // Replay: same stream, same decisions — the reset left no residue
    // (calibration is kept, so compare against a second reset run).
    for frame in &stream {
        session.execute(frame).unwrap();
    }
    let first = session.policy_states();
    session.reset_state();
    for frame in &stream {
        session.execute(frame).unwrap();
    }
    let second = session.policy_states();
    assert_eq!(first, second);
}
