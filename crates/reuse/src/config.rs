//! Configuration of the reuse scheme: which layers participate and with how
//! many quantization clusters.
//!
//! The paper tunes this per network (Section III): quantization is applied
//! selectively starting from the last layer, because early-layer errors
//! propagate; 16 clusters suit Kaldi/EESEN, 32 suit C3D/AutoPilot; tiny
//! output layers are excluded because they have nothing to save.

use std::collections::BTreeSet;

use crate::ReuseError;

/// Relative widening of every profiled input range: a quarter of its width.
const RANGE_MARGIN: f32 = 0.25;

/// Configuration of a [`crate::CompiledModel`] and the sessions opened on it.
#[derive(Debug, Clone)]
pub struct ReuseConfig {
    default_clusters: usize,
    /// Layers that run from scratch in full precision.
    disabled: BTreeSet<String>,
    calibration_executions: usize,
    record_relative_difference: bool,
    record_trace: bool,
    telemetry: bool,
}

impl ReuseConfig {
    /// All weighted layers enabled with the same cluster count.
    pub fn uniform(clusters: usize) -> Self {
        ReuseConfig {
            default_clusters: clusters,
            disabled: BTreeSet::new(),
            calibration_executions: 1,
            record_relative_difference: false,
            record_trace: false,
            telemetry: false,
        }
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
    /// below 2 (a linear quantizer needs two centroids).
    pub fn validate(&self) -> Result<(), ReuseError> {
        if self.default_clusters < 2 {
            return Err(ReuseError::InvalidConfig {
                context: format!(
                    "cluster count must be at least 2, got {}",
                    self.default_clusters
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

    /// Whether a layer takes part in quantization + reuse (paper Section
    /// III); a disabled layer runs from scratch in full precision.
    pub fn layer_enabled(&self, name: &str) -> bool {
        !self.disabled.contains(name)
    }

    /// The one cluster count every enabled layer quantizes with.
    pub fn default_clusters(&self) -> usize {
        self.default_clusters
    }

    /// The profiled-range widening factor, 0.25 for every configuration.
    pub fn margin(&self) -> f32 {
        RANGE_MARGIN
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_defaults() {
        let c = ReuseConfig::uniform(16);
        assert!(c.layer_enabled("anything"));
        assert_eq!(c.default_clusters(), 16);
        assert_eq!(c.calibration(), 1);
    }

    #[test]
    fn disable_layer_keeps_clusters() {
        let c = ReuseConfig::uniform(32).disable_layer("conv1");
        assert!(!c.layer_enabled("conv1"));
        assert_eq!(c.default_clusters(), 32);
        assert!(c.layer_enabled("conv2"));
    }

    #[test]
    fn with_default_clusters_keeps_disables() {
        let c = ReuseConfig::uniform(16)
            .disable_layer("fc1")
            .with_default_clusters(32);
        assert!(!c.layer_enabled("fc1"));
        assert!(c.layer_enabled("fc9"));
        assert_eq!(c.default_clusters(), 32);
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
            .record_trace(true);
        assert!(c.records_relative_difference());
        assert!(c.records_trace());
        assert_eq!(c.margin(), 0.25);
    }

    #[test]
    fn telemetry_and_watchdog_knobs() {
        let c = ReuseConfig::uniform(16);
        assert!(!c.records_telemetry());
        assert!(c.telemetry(true).records_telemetry());
    }

    #[test]
    fn validate_accepts_the_defaults() {
        assert!(ReuseConfig::uniform(16).validate().is_ok());
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
}
