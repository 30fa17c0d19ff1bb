//! Configuration of the reuse scheme: which layers participate and with how
//! many quantization clusters.
//!
//! The paper tunes this per network (Section III): quantization is applied
//! selectively starting from the last layer, because early-layer errors
//! propagate; 16 clusters suit Kaldi/EESEN, 32 suit C3D/AutoPilot; tiny
//! output layers are excluded because they have nothing to save.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::policy::{LayerPolicy, ReusePolicy, StaticPolicy};
use crate::ReuseError;

/// Configuration of a [`crate::CompiledModel`] and the sessions opened on it.
#[derive(Debug, Clone)]
pub struct ReuseConfig {
    default_clusters: usize,
    /// Layers that run from scratch in full precision.
    disabled: BTreeSet<String>,
    range_margin: f32,
    calibration_executions: usize,
    record_relative_difference: bool,
    record_trace: bool,
    telemetry: bool,
    drift_check_every: u64,
    drift_bound: f32,
    drift_escalate_after: u64,
    signature_cache: bool,
    signature_capacity: usize,
    signature_bailout: f32,
    /// The reuse policy every per-layer decision resolves through;
    /// `None` means [`crate::StaticPolicy`] (exactly the legacy behavior).
    policy: Option<Arc<dyn ReusePolicy>>,
}

impl ReuseConfig {
    /// All weighted layers enabled with the same cluster count.
    pub fn uniform(clusters: usize) -> Self {
        ReuseConfig {
            default_clusters: clusters,
            disabled: BTreeSet::new(),
            range_margin: 0.25,
            calibration_executions: 1,
            record_relative_difference: false,
            record_trace: false,
            telemetry: false,
            drift_check_every: 0,
            drift_bound: 1e-3,
            drift_escalate_after: 0,
            signature_cache: false,
            signature_capacity: 1024,
            signature_bailout: 0.25,
            policy: None,
        }
    }

    /// Routes every per-layer reuse decision through `policy` (cluster
    /// count, step scale, refresh threshold). The default — no policy —
    /// resolves through [`crate::StaticPolicy`]: every layer keeps the
    /// resolution [`Self::layer_policy`] gives it.
    pub fn reuse_policy(mut self, policy: Arc<dyn ReusePolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// The policy per-layer decisions resolve through
    /// ([`crate::StaticPolicy`] when none is set); its `name()` is what the
    /// bench artifacts record as provenance.
    pub fn policy(&self) -> &dyn ReusePolicy {
        self.policy.as_deref().unwrap_or(&StaticPolicy)
    }

    /// Checks the configuration for values that would silently misbehave
    /// downstream. Called by
    /// [`CompiledModel::try_new`](crate::CompiledModel::try_new); exposed
    /// for callers that assemble configs from external input and want the
    /// error before compiling a model.
    ///
    /// # Errors
    ///
    /// Returns [`ReuseError::InvalidConfig`] when the cluster count is
    /// below 2 (a linear quantizer needs two centroids) or the signature
    /// bailout fraction lies outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), ReuseError> {
        if self.default_clusters < 2 {
            return Err(ReuseError::InvalidConfig {
                context: format!(
                    "cluster count must be at least 2, got {}",
                    self.default_clusters
                ),
            });
        }
        if !(0.0..=1.0).contains(&self.signature_bailout) || self.signature_bailout.is_nan() {
            return Err(ReuseError::InvalidConfig {
                context: format!(
                    "signature bailout fraction must be in [0, 1], got {}",
                    self.signature_bailout
                ),
            });
        }
        Ok(())
    }

    /// Disables quantization + reuse for one layer (it runs from scratch in
    /// full precision, like Kaldi FC1/FC2 or C3D CONV1 in the paper).
    pub fn disable_layer(mut self, name: &str) -> Self {
        self.disabled.insert(name.to_string());
        self
    }

    /// Replaces the cluster count while keeping which layers are disabled
    /// (used by the cluster-count sweep of paper Section III).
    pub fn with_default_clusters(mut self, clusters: usize) -> Self {
        self.default_clusters = clusters;
        self
    }

    /// Sets the relative widening of profiled input ranges (default 0.25).
    pub fn range_margin(mut self, margin: f32) -> Self {
        self.range_margin = margin;
        self
    }

    /// Sets how many initial executions (or sequences, for recurrent
    /// networks) run in full precision to profile input ranges (default 1,
    /// minimum 1).
    pub fn calibration_executions(mut self, n: usize) -> Self {
        self.calibration_executions = n.max(1);
        self
    }

    /// Enables recording of the Fig. 4 relative-difference series per layer.
    pub fn record_relative_difference(mut self, on: bool) -> Self {
        self.record_relative_difference = on;
        self
    }

    /// Enables recording of per-execution activity traces (consumed by the
    /// accelerator simulator).
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Enables per-layer runtime telemetry (a window of recent step records
    /// with timing spans per slot; see [`crate::telemetry`]). Off by
    /// default; recording is allocation-free on the steady-state hot path
    /// when on.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Arms the runtime drift watchdog: every `check_every` reuse frames the
    /// session recomputes the output with [`crate::ReuseSession::reference_forward`]
    /// and, if the max-abs deviation exceeds `bound`, re-baselines every
    /// reuse layer's buffered state from full-precision values.
    /// `check_every == 0` (the default) disables the watchdog.
    pub fn drift_watchdog(mut self, check_every: u64, bound: f32) -> Self {
        self.drift_check_every = check_every;
        self.drift_bound = bound;
        self
    }

    /// Escalation path: a layer whose own buffered outputs deviate beyond
    /// the drift bound this many times is auto-disabled (falls back to
    /// full-precision execution, joining
    /// [`crate::ReuseSession::auto_disabled_layers`]). `0` (the default)
    /// means re-baseline forever without disabling.
    pub fn drift_escalate_after(mut self, strikes: u64) -> Self {
        self.drift_escalate_after = strikes;
        self
    }

    /// Enables the MCACHE-style cross-stream signature cache: when a
    /// session's per-stream frame-(t-1) baseline is missing (first reuse
    /// frame of a new stream, or after a state reset), the layer input is
    /// hashed with [`reuse_quant::RpqPlanes`] and a matching baseline
    /// published by *any* session of the same [`crate::CompiledModel`] is
    /// adopted and corrected with the ordinary `z' = z + (c'-c)·w` pass.
    /// Off by default; feed-forward networks only.
    pub fn signature_cache(mut self, on: bool) -> Self {
        self.signature_cache = on;
        self
    }

    /// Bounds the shared signature cache to roughly this many entries
    /// across all layers (default 1024). `0` keeps the cache armed but
    /// empty: every lookup misses and every insert is dropped, degrading
    /// to exactly the per-stream-only behavior.
    pub fn signature_cache_capacity(mut self, entries: usize) -> Self {
        self.signature_capacity = entries;
        self
    }

    /// False-positive guard: a signature hit whose cached input disagrees
    /// with the live input on more than this fraction of quantized codes is
    /// abandoned (counted as a bailout) and the layer runs from scratch.
    /// Default 0.25. Fractions outside `0.0..=1.0` are rejected by
    /// [`Self::validate`] when the model is compiled — the old silent clamp
    /// hid the caller's bug.
    pub fn signature_bailout_fraction(mut self, fraction: f32) -> Self {
        self.signature_bailout = fraction;
        self
    }

    /// Whether the cross-stream signature cache is enabled.
    pub fn signature_cache_enabled(&self) -> bool {
        self.signature_cache
    }

    /// Shared signature-cache entry bound.
    pub fn signature_capacity(&self) -> usize {
        self.signature_capacity
    }

    /// Mismatched-code fraction above which a signature hit is abandoned.
    pub fn signature_bailout(&self) -> f32 {
        self.signature_bailout
    }

    /// The static resolution of a layer's two choices (paper Section III:
    /// does it take part, and with how many clusters) — what a
    /// [`ReusePolicy`] refines and [`crate::StaticPolicy`] returns as is.
    pub fn layer_policy(&self, name: &str) -> LayerPolicy {
        LayerPolicy::fixed(!self.disabled.contains(name), self.default_clusters)
    }

    /// The cluster count every layer starts from (a policy may refine it
    /// per layer).
    pub fn default_clusters(&self) -> usize {
        self.default_clusters
    }

    /// The profiled-range widening factor.
    pub fn margin(&self) -> f32 {
        self.range_margin
    }

    /// Number of full-precision calibration executions.
    pub fn calibration(&self) -> usize {
        self.calibration_executions
    }

    /// Whether Fig. 4 relative differences are recorded.
    pub fn records_relative_difference(&self) -> bool {
        self.record_relative_difference
    }

    /// Whether execution traces are recorded.
    pub fn records_trace(&self) -> bool {
        self.record_trace
    }

    /// Whether runtime telemetry is recorded.
    pub fn records_telemetry(&self) -> bool {
        self.telemetry
    }

    /// Watchdog check cadence in reuse frames (`0` = disabled).
    pub fn drift_check_every(&self) -> u64 {
        self.drift_check_every
    }

    /// Max-abs output deviation tolerated before a re-baseline.
    pub fn drift_bound(&self) -> f32 {
        self.drift_bound
    }

    /// Per-layer strike count that escalates to auto-disable (`0` = never).
    pub fn escalate_after(&self) -> u64 {
        self.drift_escalate_after
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_defaults() {
        let c = ReuseConfig::uniform(16);
        let s = c.layer_policy("anything");
        assert!(s.enabled);
        assert_eq!(s.clusters, 16);
        assert!(!s.adaptive);
        assert_eq!(c.calibration(), 1);
    }

    #[test]
    fn disable_layer_keeps_clusters() {
        let c = ReuseConfig::uniform(32).disable_layer("conv1");
        assert!(!c.layer_policy("conv1").enabled);
        assert_eq!(c.layer_policy("conv1").clusters, 32);
        assert!(c.layer_policy("conv2").enabled);
    }

    #[test]
    fn with_default_clusters_keeps_disables() {
        let c = ReuseConfig::uniform(16)
            .disable_layer("fc1")
            .with_default_clusters(32);
        assert!(!c.layer_policy("fc1").enabled);
        assert_eq!(c.layer_policy("fc1").clusters, 32);
        assert_eq!(c.layer_policy("fc9").clusters, 32);
    }

    #[test]
    fn calibration_minimum_is_one() {
        let c = ReuseConfig::uniform(16).calibration_executions(0);
        assert_eq!(c.calibration(), 1);
    }

    #[test]
    fn flags() {
        let c = ReuseConfig::uniform(8)
            .record_relative_difference(true)
            .record_trace(true)
            .range_margin(0.5);
        assert!(c.records_relative_difference());
        assert!(c.records_trace());
        assert_eq!(c.margin(), 0.5);
    }

    #[test]
    fn telemetry_and_watchdog_knobs() {
        let c = ReuseConfig::uniform(16);
        assert!(!c.records_telemetry());
        assert_eq!(c.drift_check_every(), 0);
        assert_eq!(c.escalate_after(), 0);
        let c = c
            .telemetry(true)
            .drift_watchdog(8, 0.5)
            .drift_escalate_after(3);
        assert!(c.records_telemetry());
        assert_eq!(c.drift_check_every(), 8);
        assert!((c.drift_bound() - 0.5).abs() < 1e-9);
        assert_eq!(c.escalate_after(), 3);
    }

    #[test]
    fn signature_cache_knobs() {
        let c = ReuseConfig::uniform(16);
        assert!(!c.signature_cache_enabled());
        assert_eq!(c.signature_capacity(), 1024);
        assert!((c.signature_bailout() - 0.25).abs() < 1e-9);
        let c = c
            .signature_cache(true)
            .signature_cache_capacity(0)
            .signature_bailout_fraction(0.75);
        assert!(c.signature_cache_enabled());
        assert_eq!(c.signature_capacity(), 0);
        assert_eq!(c.signature_bailout(), 0.75);
    }

    #[test]
    fn validate_accepts_the_defaults() {
        assert!(ReuseConfig::uniform(16).validate().is_ok());
        assert!(ReuseConfig::uniform(16)
            .signature_bailout_fraction(0.0)
            .validate()
            .is_ok());
        assert!(ReuseConfig::uniform(16)
            .signature_bailout_fraction(1.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn validate_rejects_zero_clusters() {
        // One cluster is as unusable as none: `LinearQuantizer::new` needs
        // two, and a session would silently auto-disable every layer.
        for clusters in [0, 1] {
            let err = ReuseConfig::uniform(clusters).validate().unwrap_err();
            assert!(matches!(err, crate::ReuseError::InvalidConfig { .. }));
        }
        assert!(ReuseConfig::uniform(2).validate().is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_bailout_fraction() {
        for bad in [-0.1f32, 1.5, f32::NAN] {
            let err = ReuseConfig::uniform(16)
                .signature_bailout_fraction(bad)
                .validate()
                .unwrap_err();
            assert!(
                matches!(err, crate::ReuseError::InvalidConfig { .. }),
                "bailout {bad} must be rejected"
            );
        }
    }
}
