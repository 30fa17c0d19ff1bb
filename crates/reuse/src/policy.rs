//! Per-layer reuse policies: the single place every per-layer reuse
//! decision lives.
//!
//! [`LayerPolicy`] is the one per-layer record: whether the layer takes
//! part, with how many clusters, and how its quantization step and refresh
//! threshold may move. [`ReuseConfig::layer_policy`](crate::ReuseConfig::layer_policy)
//! gives the static resolution (the config's disabled set and cluster
//! count), a [`ReusePolicy`] refines it, and the model stores the result
//! per slot at compile time. Sessions of adaptive policies own a mutable
//! [`AdaptiveController`] per layer that retunes the step and threshold
//! online against the drift watchdog's accuracy proxy. Knobs that no policy
//! varies per layer (signature bailout, watchdog escalation) stay in
//! [`ReuseConfig`](crate::ReuseConfig), their only home.
//!
//! Three implementations ship:
//!
//! * [`StaticPolicy`] — returns the static resolution unchanged: one fixed
//!   grid per layer, correct every frame, never refresh (a no-op layer,
//!   property-tested in `tests/policy.rs`).
//! * [`AdaptivePolicy`] — arms a per-layer online controller (requires the
//!   drift watchdog; feed-forward networks only).
//! * [`TunedPolicy`] — a per-layer policy file emitted by `reuse_cli tune`,
//!   hand-rolled JSON with a dependency-free parser, loadable by
//!   [`CompiledModel`](crate::CompiledModel).

use std::fmt::Write as _;

use crate::json::{self, json_num, json_str};
use crate::ReuseError;

/// The resolved, immutable reuse policy of one layer — what a
/// [`CompiledModel`](crate::CompiledModel) stores per slot, and the only
/// per-layer record there is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerPolicy {
    /// Whether the layer takes part in quantization + reuse; a disabled
    /// layer runs from scratch in full precision (Kaldi FC1/FC2, C3D CONV1
    /// in the paper). A policy may switch a layer off, never back on: the
    /// model ANDs this with the config's resolution.
    pub enabled: bool,
    /// Quantization cluster count (the paper's `C`); the calibrated base
    /// step is `range / clusters`.
    pub clusters: usize,
    /// Initial multiplier on the calibrated base step (1.0 = paper
    /// behavior). Adaptive controllers start here and move within
    /// `[1.0, max_step_scale]`.
    pub step_scale: f32,
    /// Upper bound for the controller's step scale.
    pub max_step_scale: f32,
    /// Changed-code fraction above which an adaptive layer refreshes: it
    /// recomputes exactly from the raw input and re-adopts a
    /// full-precision baseline instead of correcting. Ignored (never
    /// evaluated) when `adaptive` is `false`.
    pub reuse_threshold: f32,
    /// Input-similarity level at which the controller stops coarsening the
    /// grid — coarsening past it buys accuracy risk for no reuse gain.
    pub target_similarity: f32,
    /// Fraction of the drift bound considered safe headroom: the
    /// controller only grows the step while observed drift stays at or
    /// under `headroom * drift_bound`.
    pub headroom: f32,
    /// Whether sessions attach an [`AdaptiveController`] to this layer.
    pub adaptive: bool,
}

impl LayerPolicy {
    /// The paper's fixed scheme: one grid of `clusters` centroids, correct
    /// every frame, never refresh.
    pub fn fixed(enabled: bool, clusters: usize) -> Self {
        LayerPolicy {
            enabled,
            clusters,
            step_scale: 1.0,
            max_step_scale: 1.0,
            reuse_threshold: 1.0,
            target_similarity: 1.0,
            headroom: 0.5,
            adaptive: false,
        }
    }
}

/// A reuse policy: resolves the per-layer decision knobs at model-compile
/// time. Implementations must be cheap and deterministic — `layer_policy`
/// is called once per weighted layer per [`CompiledModel`](crate::CompiledModel).
pub trait ReusePolicy: std::fmt::Debug + Send + Sync {
    /// Short name for telemetry/bench provenance (`"static"`, `"adaptive"`,
    /// `"tuned"`).
    fn name(&self) -> &'static str;

    /// Refines one weighted layer's static resolution
    /// ([`ReuseConfig::layer_policy`](crate::ReuseConfig::layer_policy)).
    fn layer_policy(&self, layer: &str, resolved: LayerPolicy) -> LayerPolicy;
}

/// The do-exactly-what-the-paper-does policy: one fixed quantization step
/// per layer, correct every frame, never refresh — the default when no
/// policy is configured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticPolicy;

impl ReusePolicy for StaticPolicy {
    fn name(&self) -> &'static str {
        "static"
    }

    fn layer_policy(&self, _layer: &str, resolved: LayerPolicy) -> LayerPolicy {
        resolved
    }
}

/// The online self-tuning policy: each layer gets an
/// [`AdaptiveController`] that coarsens the quantization step while the
/// drift watchdog's accuracy proxy shows headroom and backs off (down to
/// exactly the static grid) when it does not.
///
/// Requires an armed drift watchdog
/// ([`ReuseConfig::drift_watchdog`](crate::ReuseConfig::drift_watchdog)) —
/// [`CompiledModel::try_new`](crate::CompiledModel::try_new) rejects the
/// combination otherwise, since without the proxy the controller would be
/// flying blind. On recurrent networks the adaptive bits are masked off
/// and every layer runs the static resolution (sequence resets make the
/// drift feedback loop meaningless mid-sequence).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePolicy {
    /// Initial step-scale for every layer (default 1.0 — start at the
    /// paper's grid and earn coarseness from observed drift headroom).
    pub initial_step_scale: f32,
    /// Upper bound on the step scale (default 8.0).
    pub max_step_scale: f32,
    /// Initial changed-code-fraction refresh threshold (default 0.75).
    pub reuse_threshold: f32,
    /// Input-similarity target past which coarsening stops (default 0.95).
    pub target_similarity: f32,
    /// Safe fraction of the drift bound for growth (default 0.5).
    pub headroom: f32,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            initial_step_scale: 1.0,
            max_step_scale: 8.0,
            reuse_threshold: 0.75,
            target_similarity: 0.95,
            headroom: 0.5,
        }
    }
}

impl ReusePolicy for AdaptivePolicy {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn layer_policy(&self, _layer: &str, resolved: LayerPolicy) -> LayerPolicy {
        LayerPolicy {
            step_scale: self.initial_step_scale.max(1.0),
            max_step_scale: self.max_step_scale.max(1.0),
            reuse_threshold: self.reuse_threshold,
            target_similarity: self.target_similarity,
            headroom: self.headroom,
            adaptive: true,
            ..resolved
        }
    }
}

/// How far the refresh threshold may tighten below its configured start.
const MIN_THRESHOLD_FACTOR: f32 = 0.25;
/// Multiplicative step-scale growth per safe watchdog observation.
const SCALE_GROW: f32 = 1.5;
/// Multiplicative step-scale backoff per drift violation.
const SCALE_SHRINK: f32 = 0.5;
/// EWMA smoothing for the per-frame unchanged-fraction observation.
const EWMA_ALPHA: f32 = 0.1;

/// Mutable per-layer controller state owned by a session of an adaptive
/// policy (AIMD-style loop over the watchdog's drift observations).
///
/// Control law, evaluated once per watchdog check:
///
/// * drift **above** the bound → the refresh threshold tightens
///   (`t ← max(0.25·t₀, 0.5·t)`) and the step scale halves toward 1.0 —
///   the grid backs off to, at worst, exactly the static one.
/// * drift in band but the hot path **refreshed** since the last check →
///   the step scale halves toward 1.0 without growing. Refreshed frames
///   pay full recompute cost *and* pin the output to the exact values, so
///   the watchdog cannot see the coarse grid's error — a controller that
///   kept growing here would climb to max scale on an adversarial stream
///   while buying nothing. Backing off toward the static grid is the
///   known-safe operating point until the stream calms down.
/// * drift **at or under** `headroom · bound`, no refreshes since the
///   last check, and smoothed input similarity still below
///   `target_similarity` → the step scale grows (`s ← min(max, 1.5·s)`),
///   merging more inputs per code and raising skipped MACs; the threshold
///   relaxes back toward its start (`t ← min(t₀, 1.2·t)`).
///
/// A scale change is proposed first and committed only after the session
/// successfully rebuilds the layer's quantizer at the new step and
/// re-baselines the buffered state — the controller never disagrees with
/// the grid actually in use.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveController {
    policy: LayerPolicy,
    step_scale: f32,
    reuse_threshold: f32,
    /// Smoothed unchanged-code fraction over recent incremental frames.
    ewma_unchanged: f32,
    seen_execution: bool,
    /// Threshold refreshes since the last watchdog observation (refresh
    /// pressure — see the control law above).
    refreshes_since_check: u64,
    observations: u64,
    grows: u64,
    shrinks: u64,
    refreshes: u64,
}

impl AdaptiveController {
    /// A controller at the policy's initial operating point.
    pub fn new(policy: &LayerPolicy) -> Self {
        AdaptiveController {
            policy: *policy,
            step_scale: policy.step_scale.max(1.0),
            reuse_threshold: policy.reuse_threshold,
            ewma_unchanged: 0.0,
            seen_execution: false,
            refreshes_since_check: 0,
            observations: 0,
            grows: 0,
            shrinks: 0,
            refreshes: 0,
        }
    }

    /// Current step-scale multiplier on the calibrated base step.
    pub fn step_scale(&self) -> f32 {
        self.step_scale
    }

    /// Current changed-code-fraction refresh threshold.
    pub fn reuse_threshold(&self) -> f32 {
        self.reuse_threshold
    }

    /// Watchdog observations consumed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Committed step-scale growths.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Committed step-scale backoffs.
    pub fn shrinks(&self) -> u64 {
        self.shrinks
    }

    /// Threshold-triggered full refreshes performed by the hot path.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Feeds one incremental execution's unchanged-code fraction into the
    /// similarity EWMA (hot path; no allocation, a handful of flops).
    pub fn observe_execution(&mut self, unchanged_fraction: f32) {
        if self.seen_execution {
            self.ewma_unchanged += EWMA_ALPHA * (unchanged_fraction - self.ewma_unchanged);
        } else {
            self.ewma_unchanged = unchanged_fraction;
            self.seen_execution = true;
        }
    }

    /// Counts one threshold-triggered refresh.
    pub fn note_refresh(&mut self) {
        self.refreshes += 1;
        self.refreshes_since_check += 1;
    }

    /// Consumes one watchdog observation (network-output drift vs. the
    /// full-precision reference). Returns the step scale the controller
    /// wants to move to, or `None` to stay put; the caller rebuilds the
    /// quantizer and then calls [`Self::commit_scale`].
    pub fn on_watchdog(&mut self, drift: f32, bound: f32) -> Option<f32> {
        self.observations += 1;
        let refresh_pressure = self.refreshes_since_check > 0;
        self.refreshes_since_check = 0;
        let floor = self.policy.reuse_threshold * MIN_THRESHOLD_FACTOR;
        if drift > bound {
            self.reuse_threshold = (self.reuse_threshold * 0.5).max(floor);
            if self.step_scale > 1.0 {
                return Some((self.step_scale * SCALE_SHRINK).max(1.0));
            }
            return None;
        }
        if refresh_pressure {
            // Refreshed frames paid full cost and hid the grid's error from
            // the drift proxy; back off toward the static grid instead of
            // growing blind.
            if self.step_scale > 1.0 {
                return Some((self.step_scale * SCALE_SHRINK).max(1.0));
            }
            return None;
        }
        self.reuse_threshold = (self.reuse_threshold * 1.2).min(self.policy.reuse_threshold);
        if drift <= self.policy.headroom * bound
            && self.seen_execution
            && self.ewma_unchanged < self.policy.target_similarity
            && self.step_scale < self.policy.max_step_scale
        {
            return Some((self.step_scale * SCALE_GROW).min(self.policy.max_step_scale));
        }
        None
    }

    /// Commits a scale proposed by [`Self::on_watchdog`] after the session
    /// rebuilt the quantizer at the new step.
    pub fn commit_scale(&mut self, scale: f32) {
        if scale > self.step_scale {
            self.grows += 1;
        } else {
            self.shrinks += 1;
        }
        self.step_scale = scale;
    }
}

/// Point-in-time policy state of one layer, exported through
/// [`TelemetrySnapshot`](crate::TelemetrySnapshot) and the serving tier's
/// `ServerSnapshot` so operators can see what the controllers chose.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPolicyState {
    /// Layer name.
    pub name: String,
    /// Whether an adaptive controller is attached.
    pub adaptive: bool,
    /// Configured cluster count (base grid).
    pub clusters: usize,
    /// Current effective quantization step (0.0 until calibrated).
    pub step: f32,
    /// Current step-scale multiplier (1.0 = the paper's grid).
    pub step_scale: f32,
    /// Current refresh threshold (changed-code fraction).
    pub reuse_threshold: f32,
    /// Watchdog observations the controller consumed.
    pub observations: u64,
    /// Committed step-scale growths.
    pub grows: u64,
    /// Committed step-scale backoffs.
    pub shrinks: u64,
    /// Threshold-triggered full refreshes.
    pub refreshes: u64,
}

impl LayerPolicyState {
    /// One-line JSON object (no trailing newline), composed into telemetry
    /// and server snapshots.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"name\": {}, \"adaptive\": {}, \"clusters\": {}, \"step\": {}, \
             \"step_scale\": {}, \"reuse_threshold\": {}, \"observations\": {}, \
             \"grows\": {}, \"shrinks\": {}, \"refreshes\": {}}}",
            json_str(&self.name),
            self.adaptive,
            self.clusters,
            json_num(f64::from(self.step)),
            json_num(f64::from(self.step_scale)),
            json_num(f64::from(self.reuse_threshold)),
            self.observations,
            self.grows,
            self.shrinks,
            self.refreshes,
        );
        s
    }
}

/// One layer's entry in a tuned policy file.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedLayerPolicy {
    /// Layer name the entry applies to.
    pub layer: String,
    /// Cluster count for the base grid.
    pub clusters: usize,
    /// Initial step-scale multiplier.
    pub step_scale: f32,
    /// Changed-code-fraction refresh threshold.
    pub reuse_threshold: f32,
    /// Whether the layer keeps adapting online (else the tuned operating
    /// point is frozen).
    pub adaptive: bool,
}

/// A per-model policy file: the artifact `reuse_cli tune` emits after
/// sweeping replayed streams, loadable back into a
/// [`CompiledModel`](crate::CompiledModel) via
/// [`ReuseConfig::reuse_policy`](crate::ReuseConfig::reuse_policy).
///
/// Layers without an entry fall back to the static resolution. The file
/// format is hand-rolled JSON (the workspace carries no serde):
///
/// ```json
/// {
///   "policy_file": "reuse-policy",
///   "version": 1,
///   "network": "autopilot",
///   "layers": [
///     {"layer": "fc1", "clusters": 32, "step_scale": 2.25,
///      "reuse_threshold": 0.75, "adaptive": true}
///   ]
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TunedPolicy {
    /// Network the file was tuned for (informational; layer names do the
    /// actual matching).
    pub network: String,
    /// Per-layer tuned operating points.
    pub layers: Vec<TunedLayerPolicy>,
}

impl ReusePolicy for TunedPolicy {
    fn name(&self) -> &'static str {
        "tuned"
    }

    fn layer_policy(&self, layer: &str, resolved: LayerPolicy) -> LayerPolicy {
        let Some(t) = self.layers.iter().find(|l| l.layer == layer) else {
            return resolved;
        };
        let defaults = AdaptivePolicy::default();
        LayerPolicy {
            clusters: t.clusters,
            step_scale: t.step_scale.max(1.0),
            max_step_scale: defaults.max_step_scale.max(t.step_scale),
            reuse_threshold: t.reuse_threshold,
            target_similarity: defaults.target_similarity,
            headroom: defaults.headroom,
            adaptive: t.adaptive,
            ..resolved
        }
    }
}

impl TunedPolicy {
    /// Serializes the policy file (schema documented on the type).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"policy_file\": \"reuse-policy\",\n");
        s.push_str("  \"version\": 1,\n");
        let _ = writeln!(s, "  \"network\": {},", json_str(&self.network));
        s.push_str("  \"layers\": [\n");
        // Shortest form that parses back to the same `f32` (the file is
        // re-read and compared); `null` where JSON has no number, which
        // `from_json` then rejects with a typed error.
        let exact = |v: f32| {
            if v.is_finite() {
                v.to_string()
            } else {
                "null".to_string()
            }
        };
        for (i, l) in self.layers.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"layer\": {}, \"clusters\": {}, \"step_scale\": {}, \
                 \"reuse_threshold\": {}, \"adaptive\": {}}}{}",
                json_str(&l.layer),
                l.clusters,
                exact(l.step_scale),
                exact(l.reuse_threshold),
                l.adaptive,
                if i + 1 < self.layers.len() { "," } else { "" }
            );
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a policy file (the inverse of [`Self::to_json`]; tolerant of
    /// whitespace and key order).
    ///
    /// # Errors
    ///
    /// Returns [`ReuseError::InvalidConfig`] on malformed JSON, a missing
    /// or wrong `policy_file`/`version` header, or out-of-range values
    /// (`clusters < 2`, `step_scale` outside `[1, 64]`, `reuse_threshold`
    /// outside `(0, 1]`).
    pub fn from_json(text: &str) -> Result<Self, ReuseError> {
        let invalid = |context: String| ReuseError::InvalidConfig { context };
        let root = json::parse(text).map_err(|e| invalid(format!("policy file: {e}")))?;
        if root.as_object().is_none() {
            return Err(invalid("policy file: root is not an object".into()));
        }
        let field = |key: &str| -> Result<&json::Value, ReuseError> {
            root.get(key)
                .ok_or_else(|| invalid(format!("policy file: missing key {key:?}")))
        };
        match field("policy_file")?.as_str() {
            Some("reuse-policy") => {}
            _ => return Err(invalid("policy file: not a reuse-policy file".into())),
        }
        if field("version")?.as_f64() != Some(1.0) {
            return Err(invalid("policy file: unsupported version".into()));
        }
        let network = field("network")?
            .as_str()
            .ok_or_else(|| invalid("policy file: network must be a string".into()))?
            .to_string();
        let layers_val = field("layers")?
            .as_array()
            .ok_or_else(|| invalid("policy file: layers must be an array".into()))?;
        let mut layers = Vec::with_capacity(layers_val.len());
        for (i, entry) in layers_val.iter().enumerate() {
            if entry.as_object().is_none() {
                return Err(invalid(format!(
                    "policy file: layers[{i}] is not an object"
                )));
            }
            let get = |key: &str| -> Result<&json::Value, ReuseError> {
                entry
                    .get(key)
                    .ok_or_else(|| invalid(format!("policy file: layers[{i}] missing {key:?}")))
            };
            let layer = get("layer")?
                .as_str()
                .ok_or_else(|| invalid(format!("policy file: layers[{i}].layer not a string")))?
                .to_string();
            let clusters = get("clusters")?.as_f64().unwrap_or(-1.0);
            if clusters < 2.0 || clusters.fract() != 0.0 || clusters > 1e6 {
                return Err(invalid(format!(
                    "policy file: layer {layer:?} clusters must be an integer >= 2"
                )));
            }
            let step_scale = get("step_scale")?.as_f64().unwrap_or(f64::NAN) as f32;
            if !(1.0..=64.0).contains(&step_scale) {
                return Err(invalid(format!(
                    "policy file: layer {layer:?} step_scale must be in [1, 64]"
                )));
            }
            let reuse_threshold = get("reuse_threshold")?.as_f64().unwrap_or(f64::NAN) as f32;
            if !(reuse_threshold > 0.0 && reuse_threshold <= 1.0) {
                return Err(invalid(format!(
                    "policy file: layer {layer:?} reuse_threshold must be in (0, 1]"
                )));
            }
            let adaptive = get("adaptive")?.as_bool().ok_or_else(|| {
                invalid(format!("policy file: layers[{i}].adaptive not a boolean"))
            })?;
            layers.push(TunedLayerPolicy {
                layer,
                clusters: clusters as usize,
                step_scale,
                reuse_threshold,
                adaptive,
            });
        }
        Ok(TunedPolicy { network, layers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReuseConfig;

    fn resolved(layer: &str) -> LayerPolicy {
        ReuseConfig::uniform(16)
            .disable_layer("fc2")
            .layer_policy(layer)
    }

    #[test]
    fn json_numbers_reject_non_json_forms() {
        // f64::parse accepts all of these; strict JSON must not. Each error
        // carries the byte offset of the offending number.
        for (text, offset) in [
            ("{\"v\": +1}", 6),
            ("{\"v\": .5}", 6),
            ("{\"v\": 1.}", 6),
            ("{\"v\": 1e}", 6),
            ("{\"v\": 1e+}", 6),
            ("{\"v\": 01}", 6),
            ("{\"v\": -}", 6),
        ] {
            let err = json::parse(text).expect_err(text);
            assert!(
                err.contains(&format!("byte {offset}")),
                "{text}: error {err:?} must name byte {offset}"
            );
        }
        // The strict grammar still admits every valid JSON shape.
        for (text, want) in [
            ("{\"v\": -0.5}", -0.5),
            ("{\"v\": 0}", 0.0),
            ("{\"v\": 10.25e-2}", 0.1025),
            ("{\"v\": 3E2}", 300.0),
        ] {
            let root = json::parse(text).expect(text);
            let obj = root.as_object().unwrap();
            assert_eq!(obj[0].1.as_f64(), Some(want), "{text}");
        }
    }

    #[test]
    fn unicode_escapes_decode_surrogate_pairs() {
        // One escaped non-BMP char (🚀 = U+1F680) must decode to a single
        // scalar, not two replacement characters.
        let root = json::parse("{\"name\": \"net \\ud83d\\ude80 v2\"}").unwrap();
        let obj = root.as_object().unwrap();
        assert_eq!(obj[0].1.as_str(), Some("net \u{1F680} v2"));
        // BMP escapes are unaffected, including literal text after them.
        let root = json::parse("{\"name\": \"\\u00e9tat\"}").unwrap();
        assert_eq!(root.as_object().unwrap()[0].1.as_str(), Some("état"));
    }

    #[test]
    fn unicode_escapes_reject_lone_surrogates_and_bad_hex() {
        for text in [
            "{\"name\": \"\\ud83d\"}",        // lone high surrogate
            "{\"name\": \"\\ud83d rest\"}",   // high surrogate, no pair
            "{\"name\": \"\\ude80\"}",        // lone low surrogate
            "{\"name\": \"\\ud83d\\u0041\"}", // high + non-surrogate
            "{\"name\": \"\\u+12F\"}",        // from_str_radix would take '+'
            "{\"name\": \"\\u12G4\"}",        // non-hex digit
            "{\"name\": \"\\u12\"}",          // truncated
        ] {
            assert!(json::parse(text).is_err(), "{text} must be rejected");
        }
    }

    #[test]
    fn policy_round_trips_non_bmp_network_name() {
        let policy = TunedPolicy {
            network: "kaldi \u{1F680}".to_string(),
            layers: vec![TunedLayerPolicy {
                layer: "fc1".to_string(),
                clusters: 16,
                step_scale: 2.0,
                reuse_threshold: 0.5,
                adaptive: true,
            }],
        };
        let parsed = TunedPolicy::from_json(&policy.to_json()).unwrap();
        assert_eq!(parsed.network, "kaldi \u{1F680}");
        // The same name arriving as an escaped surrogate pair decodes to
        // the identical string.
        let escaped = policy.to_json().replace('\u{1F680}', "\\uD83D\\uDE80");
        let parsed = TunedPolicy::from_json(&escaped).unwrap();
        assert_eq!(parsed.network, "kaldi \u{1F680}");
    }

    #[test]
    fn static_policy_mirrors_legacy_knobs() {
        let lp = StaticPolicy.layer_policy("fc1", resolved("fc1"));
        assert_eq!(lp, LayerPolicy::fixed(true, 16));
        assert_eq!(lp.step_scale, 1.0);
        assert!(!lp.adaptive);
        // The config's disable survives every shipped policy's refinement.
        let tuned = TunedPolicy {
            network: "x".to_string(),
            layers: vec![TunedLayerPolicy {
                layer: "fc2".to_string(),
                clusters: 8,
                step_scale: 2.0,
                reuse_threshold: 0.5,
                adaptive: true,
            }],
        };
        let policies: [&dyn ReusePolicy; 3] = [&StaticPolicy, &AdaptivePolicy::default(), &tuned];
        for policy in policies {
            assert!(!policy.layer_policy("fc2", resolved("fc2")).enabled);
            assert!(policy.layer_policy("fc1", resolved("fc1")).enabled);
        }
    }

    #[test]
    fn adaptive_controller_grows_on_headroom_and_shrinks_on_violation() {
        let lp = AdaptivePolicy::default().layer_policy("fc1", resolved("fc1"));
        let mut c = AdaptiveController::new(&lp);
        // Low similarity + tiny drift: the controller wants a coarser grid.
        c.observe_execution(0.4);
        let proposed = c.on_watchdog(0.001, 0.05).expect("should grow");
        assert!(proposed > 1.0);
        c.commit_scale(proposed);
        assert_eq!(c.grows(), 1);
        // A violation walks it back down and tightens the threshold.
        let t_before = c.reuse_threshold();
        let back = c.on_watchdog(0.2, 0.05).expect("should shrink");
        assert!(back < proposed);
        c.commit_scale(back);
        assert_eq!(c.shrinks(), 1);
        assert!(c.reuse_threshold() < t_before);
        // At scale 1.0 a violation has nothing left to shrink.
        let mut floor = AdaptiveController::new(&lp);
        assert_eq!(floor.on_watchdog(0.2, 0.05), None);
        assert_eq!(floor.step_scale(), 1.0);
    }

    #[test]
    fn adaptive_controller_respects_target_similarity_and_max_scale() {
        let lp = AdaptivePolicy {
            max_step_scale: 2.0,
            ..AdaptivePolicy::default()
        }
        .layer_policy("fc1", resolved("fc1"));
        let mut c = AdaptiveController::new(&lp);
        // Similarity already above target: no growth however safe.
        c.observe_execution(0.99);
        assert_eq!(c.on_watchdog(0.0, 0.05), None);
        // Below target: grows, but saturates at the configured max.
        let mut c = AdaptiveController::new(&lp);
        c.observe_execution(0.2);
        let s1 = c.on_watchdog(0.0, 0.05).unwrap();
        c.commit_scale(s1);
        let s2 = c.on_watchdog(0.0, 0.05).unwrap();
        c.commit_scale(s2);
        assert_eq!(s2, 2.0);
        assert_eq!(c.on_watchdog(0.0, 0.05), None, "saturated at max scale");
    }

    #[test]
    fn adaptive_controller_backs_off_under_refresh_pressure() {
        let lp = AdaptivePolicy::default().layer_policy("fc1", resolved("fc1"));
        let mut c = AdaptiveController::new(&lp);
        c.observe_execution(0.3);
        let s = c.on_watchdog(0.0, 0.05).expect("grows while calm");
        c.commit_scale(s);
        // Refreshed frames hide the grid's error from the drift proxy, so
        // even a perfectly safe observation must shrink, not grow.
        c.note_refresh();
        let back = c.on_watchdog(0.0, 0.05).expect("backs off under pressure");
        assert!(back < s);
        c.commit_scale(back);
        // Pressure is consumed per check: the next calm observation may
        // grow again.
        assert!(c.on_watchdog(0.0, 0.05).is_some());
        // At the static grid, pressure has nothing left to shrink.
        let mut flat = AdaptiveController::new(&lp);
        flat.note_refresh();
        assert_eq!(flat.on_watchdog(0.0, 0.05), None);
        assert_eq!(flat.step_scale(), 1.0);
    }

    #[test]
    fn tuned_policy_round_trips_through_json() {
        let p = TunedPolicy {
            network: "autopilot".to_string(),
            layers: vec![
                TunedLayerPolicy {
                    layer: "conv1".to_string(),
                    clusters: 32,
                    step_scale: 2.25,
                    reuse_threshold: 0.75,
                    adaptive: true,
                },
                TunedLayerPolicy {
                    layer: "fc\"odd\\name\u{1}\u{1F680}".to_string(),
                    clusters: 8,
                    step_scale: 1.0,
                    reuse_threshold: 1.0,
                    adaptive: false,
                },
            ],
        };
        let text = p.to_json();
        let back = TunedPolicy::from_json(&text).expect("round trip parses");
        assert_eq!(back, p);
        // A hand-built policy with a non-finite float still writes JSON
        // (not a bare `NaN`), which the loader then refuses by range.
        let mut broken = p;
        broken.layers[0].step_scale = f32::NAN;
        broken.layers[1].reuse_threshold = f32::INFINITY;
        let text = broken.to_json();
        json::parse(&text).expect("strict parser accepts the file");
        let err = TunedPolicy::from_json(&text).unwrap_err();
        assert!(matches!(err, ReuseError::InvalidConfig { .. }));
    }

    #[test]
    fn tuned_policy_rejects_malformed_files() {
        assert!(TunedPolicy::from_json("").is_err());
        assert!(TunedPolicy::from_json("{\"policy_file\": \"other\"}").is_err());
        assert!(TunedPolicy::from_json(
            "{\"policy_file\": \"reuse-policy\", \"version\": 2, \
             \"network\": \"x\", \"layers\": []}"
        )
        .is_err());
        // Out-of-range values are rejected with typed errors.
        for (clusters, scale, thresh) in [
            ("1", "2.0", "0.5"),
            ("16", "0.5", "0.5"),
            ("16", "2.0", "0.0"),
        ] {
            let text = format!(
                "{{\"policy_file\": \"reuse-policy\", \"version\": 1, \
                 \"network\": \"x\", \"layers\": [{{\"layer\": \"fc1\", \
                 \"clusters\": {clusters}, \"step_scale\": {scale}, \
                 \"reuse_threshold\": {thresh}, \"adaptive\": true}}]}}"
            );
            let err = TunedPolicy::from_json(&text).unwrap_err();
            assert!(matches!(err, ReuseError::InvalidConfig { .. }), "{text}");
        }
    }

    #[test]
    fn tuned_policy_falls_back_to_static_for_unknown_layers() {
        let p = TunedPolicy {
            network: "x".to_string(),
            layers: vec![TunedLayerPolicy {
                layer: "fc1".to_string(),
                clusters: 4,
                step_scale: 3.0,
                reuse_threshold: 0.5,
                adaptive: true,
            }],
        };
        let known = p.layer_policy("fc1", resolved("fc1"));
        assert_eq!(known.clusters, 4);
        assert!(known.adaptive);
        let unknown = p.layer_policy("fc9", resolved("fc9"));
        assert_eq!(unknown, LayerPolicy::fixed(true, 16));
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let v = super::json::parse(
            " { \"a\" : [1, -2.5e1, true, null, \"q\\u0041\\n\"] , \"b\": {} } ",
        )
        .unwrap();
        let obj = v.as_object().unwrap();
        let arr = obj[0].1.as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert_eq!(arr[2].as_bool(), Some(true));
        assert_eq!(arr[4].as_str(), Some("qA\n"));
        assert!(super::json::parse("{\"a\": }").is_err());
        assert!(super::json::parse("[1,]").is_err());
        assert!(super::json::parse("{} trailing").is_err());
    }
}
