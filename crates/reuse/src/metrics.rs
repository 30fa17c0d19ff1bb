//! Reuse metrics: input similarity, computation reuse and the relative
//! difference of consecutive input vectors (paper Section III and Fig. 4).
//!
//! [`LayerMetrics`] holds the lifetime sums of a slot's incremental step
//! records; the session's one writer adds each record in as it is written.

/// The Fig. 4 metric: Euclidean distance between the current and previous
/// input vectors, divided by the magnitude of the previous input vector.
///
/// Returns `0.0` for two empty slices and `f32::INFINITY` when the previous
/// vector has zero magnitude but the vectors differ.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn relative_difference(prev: &[f32], cur: &[f32]) -> f32 {
    assert_eq!(prev.len(), cur.len(), "vectors must have equal length");
    let mut dist2 = 0.0f64;
    let mut mag2 = 0.0f64;
    for (&p, &c) in prev.iter().zip(cur.iter()) {
        let d = (c - p) as f64;
        dist2 += d * d;
        mag2 += (p as f64) * (p as f64);
    }
    if mag2 == 0.0 {
        return if dist2 == 0.0 { 0.0 } else { f32::INFINITY };
    }
    (dist2.sqrt() / mag2.sqrt()) as f32
}

/// Accumulated reuse statistics of one layer across executions.
///
/// *Input similarity* is the fraction of inputs whose quantized index was
/// unchanged with respect to the previous execution; *computation reuse* is
/// the fraction of multiply-accumulates avoided (paper Section III
/// definitions). Only incremental (non-first) executions contribute.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerMetrics {
    /// Layer name within the network.
    pub name: String,
    /// Incremental executions observed (from-scratch ones excluded).
    pub reuse_executions: u64,
    /// Inputs seen across incremental executions.
    pub inputs_total: u64,
    /// Inputs whose quantized index was unchanged.
    pub inputs_unchanged: u64,
    /// Multiply-accumulates a from-scratch execution would perform.
    pub macs_total: u64,
    /// Multiply-accumulates actually performed by the incremental path.
    pub macs_performed: u64,
    /// Relative-difference series (one point per execution after the first),
    /// recorded only when enabled in the config.
    pub relative_differences: Vec<f32>,
}

impl LayerMetrics {
    /// Creates empty metrics for a named layer.
    pub fn new(name: &str) -> Self {
        LayerMetrics {
            name: name.to_string(),
            ..Default::default()
        }
    }

    /// Fraction of inputs with unchanged quantized value, in `[0, 1]`.
    pub fn input_similarity(&self) -> f64 {
        if self.inputs_total == 0 {
            return 0.0;
        }
        self.inputs_unchanged as f64 / self.inputs_total as f64
    }

    /// Fraction of computations avoided, in `[0, 1]`.
    pub fn computation_reuse(&self) -> f64 {
        if self.macs_total == 0 {
            return 0.0;
        }
        1.0 - self.macs_performed as f64 / self.macs_total as f64
    }

    /// Records one incremental execution.
    pub fn record(&mut self, inputs: u64, unchanged: u64, macs_total: u64, macs_performed: u64) {
        self.reuse_executions += 1;
        self.inputs_total += inputs;
        self.inputs_unchanged += unchanged;
        self.macs_total += macs_total;
        self.macs_performed += macs_performed;
    }

    /// Clears every accumulated counter and the relative-difference series,
    /// keeping only the layer name.
    pub fn reset(&mut self) {
        let name = std::mem::take(&mut self.name);
        *self = LayerMetrics {
            name,
            ..Default::default()
        };
    }
}

/// Aggregated metrics for a whole engine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineMetrics {
    /// Per-layer metrics, in network layer order (weighted layers only).
    pub layers: Vec<LayerMetrics>,
    /// Total executions (including calibration and from-scratch ones).
    pub executions: u64,
}

impl EngineMetrics {
    /// Finds a layer's metrics by name.
    pub fn layer(&self, name: &str) -> Option<&LayerMetrics> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Input similarity across all reuse-enabled layers, weighted by input
    /// counts (the per-DNN bars of paper Fig. 5).
    pub fn overall_input_similarity(&self) -> f64 {
        let total: u64 = self.layers.iter().map(|l| l.inputs_total).sum();
        if total == 0 {
            return 0.0;
        }
        let unchanged: u64 = self.layers.iter().map(|l| l.inputs_unchanged).sum();
        unchanged as f64 / total as f64
    }

    /// Clears all accumulated statistics, keeping the layer roster.
    pub fn reset(&mut self) {
        for layer in &mut self.layers {
            layer.reset();
        }
        self.executions = 0;
    }

    /// Computation reuse across all reuse-enabled layers, weighted by MAC
    /// counts (the per-DNN bars of paper Fig. 5).
    pub fn overall_computation_reuse(&self) -> f64 {
        let total: u64 = self.layers.iter().map(|l| l.macs_total).sum();
        if total == 0 {
            return 0.0;
        }
        let performed: u64 = self.layers.iter().map(|l| l.macs_performed).sum();
        1.0 - performed as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_difference_basic() {
        assert_eq!(relative_difference(&[3.0, 4.0], &[3.0, 4.0]), 0.0);
        // prev magnitude 5, distance 5 -> 1.0
        let rd = relative_difference(&[3.0, 4.0], &[0.0, 0.0]);
        assert!((rd - 1.0).abs() < 1e-6);
    }

    #[test]
    fn relative_difference_zero_prev() {
        assert_eq!(relative_difference(&[0.0], &[0.0]), 0.0);
        assert_eq!(relative_difference(&[0.0], &[1.0]), f32::INFINITY);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn relative_difference_length_mismatch_panics() {
        relative_difference(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn similarity_and_reuse_ratios() {
        let mut m = LayerMetrics::new("fc1");
        m.record(100, 75, 1000, 250);
        assert!((m.input_similarity() - 0.75).abs() < 1e-12);
        assert!((m.computation_reuse() - 0.75).abs() < 1e-12);
        m.record(100, 25, 1000, 750);
        assert!((m.input_similarity() - 0.5).abs() < 1e-12);
        assert!((m.computation_reuse() - 0.5).abs() < 1e-12);
        assert_eq!(m.reuse_executions, 2);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = LayerMetrics::new("x");
        assert_eq!(m.input_similarity(), 0.0);
        assert_eq!(m.computation_reuse(), 0.0);
    }

    #[test]
    fn reset_clears_counters_but_keeps_names() {
        let mut m = LayerMetrics::new("fc1");
        m.record(10, 5, 100, 50);
        m.relative_differences.push(0.25);
        m.reset();
        assert_eq!(m.name, "fc1");
        assert_eq!(m.reuse_executions, 0);
        assert_eq!(m.inputs_total, 0);
        assert!(m.relative_differences.is_empty());
        let mut e = EngineMetrics {
            layers: vec![LayerMetrics::new("a"), LayerMetrics::new("b")],
            executions: 7,
        };
        e.layers[0].record(4, 2, 8, 4);
        e.reset();
        assert_eq!(e.executions, 0);
        assert_eq!(e.layers[0].inputs_total, 0);
        assert_eq!(e.layers[1].name, "b");
    }

    #[test]
    fn overall_weights_by_counts() {
        let mut big = LayerMetrics::new("big");
        big.record(900, 900, 9000, 0); // fully similar
        let mut small = LayerMetrics::new("small");
        small.record(100, 0, 1000, 1000); // fully dissimilar
        let e = EngineMetrics {
            layers: vec![big, small],
            executions: 2,
        };
        assert!((e.overall_input_similarity() - 0.9).abs() < 1e-12);
        assert!((e.overall_computation_reuse() - 0.9).abs() < 1e-12);
        assert!(e.layer("big").is_some());
        assert!(e.layer("nope").is_none());
    }
}
