//! Workload measurement: run a DNN over its synthetic input stream with the
//! reuse engine and collect everything the experiment binaries need.

use reuse_core::{ExecutionTrace, ReuseConfig, ReuseSession};
use reuse_workloads::accuracy::{
    classification_agreement, mean_relative_error, regression_agreement, AgreementReport,
};
use reuse_workloads::{Scale, Workload, WorkloadKind};

/// Per-layer summary extracted from the engine metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSummary {
    /// Layer name (paper naming: fc3, conv2, bilstm1, ...).
    pub name: String,
    /// Scalar inputs per execution.
    pub inputs: usize,
    /// Scalar outputs per execution.
    pub outputs: usize,
    /// Whether the reuse scheme was applied to this layer.
    pub enabled: bool,
    /// Input similarity in `[0, 1]` (0 when disabled).
    pub input_similarity: f64,
    /// Computation reuse in `[0, 1]` (0 when disabled).
    pub computation_reuse: f64,
    /// Quantized-input hit rate (0 when disabled): the name runtime
    /// telemetry gives `input_similarity`, read from the same sums and kept
    /// as its own column of the exported tables.
    pub hit_rate: f64,
}

/// Everything measured from one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Which DNN.
    pub kind: WorkloadKind,
    /// Model scale used.
    pub scale: Scale,
    /// Executions performed (timesteps for EESEN).
    pub executions: u64,
    /// Active reuse-policy name resolved by the engine configuration
    /// (`"static"`, `"adaptive"`, or `"tuned"`).
    pub policy: String,
    /// Per-layer summaries for weighted layers, in network order.
    pub layers: Vec<LayerSummary>,
    /// Input similarity over all reuse-enabled layers (Fig. 5).
    pub overall_similarity: f64,
    /// Computation reuse over all reuse-enabled layers (Fig. 5).
    pub overall_reuse: f64,
    /// Output agreement between the quantized+reuse run and the fp32
    /// reference (the accuracy proxy; see DESIGN.md).
    pub agreement: AgreementReport,
    /// Mean relative L2 error of the outputs versus the fp32 reference —
    /// the direct measurement of the degradation the paper's accuracy
    /// columns bound.
    pub mean_relative_error: f64,
    /// Per-execution activity traces for the accelerator simulator.
    pub traces: Vec<ExecutionTrace>,
    /// Model size in bytes (fp32).
    pub model_bytes: u64,
    /// Simulator parameter: executions per input sequence.
    pub executions_per_sequence: u64,
    /// Simulator parameter: whether activations spill to main memory.
    pub activations_spill: bool,
    /// Reuse-state storage bytes (indices + buffered outputs; Table III).
    pub reuse_storage_bytes: u64,
    /// Centroid-table bytes in the control unit.
    pub centroid_table_bytes: u64,
}

/// Default number of executions measured per workload at each scale.
pub fn default_executions(kind: WorkloadKind, scale: Scale) -> usize {
    match (kind, scale) {
        (WorkloadKind::C3d, Scale::Full) => 8,
        (WorkloadKind::C3d, _) => 16,
        (WorkloadKind::AutoPilot, Scale::Full) => 60,
        (_, Scale::Tiny) => 24,
        _ => 80,
    }
}

/// Number of executions to measure, honoring `REUSE_EXECUTIONS`.
pub fn executions_from_env(kind: WorkloadKind, scale: Scale) -> usize {
    crate::env_parse("REUSE_EXECUTIONS").unwrap_or_else(|| default_executions(kind, scale))
}

/// Runs one workload through the reuse engine and collects a
/// [`Measurement`]. Deterministic for a given `(kind, scale, executions,
/// seed)`.
pub fn measure_workload(
    kind: WorkloadKind,
    scale: Scale,
    executions: usize,
    seed: u64,
) -> Measurement {
    measure_with_config(kind, scale, executions, seed, None)
}

/// Like [`measure_workload`] with an overridden reuse configuration (used
/// by the cluster-sweep and reduced-precision studies).
pub fn measure_with_config(
    kind: WorkloadKind,
    scale: Scale,
    executions: usize,
    seed: u64,
    config_override: Option<ReuseConfig>,
) -> Measurement {
    let workload = Workload::build(kind, scale);
    let config = config_override
        .unwrap_or_else(|| workload.reuse_config().clone())
        .record_trace(true);
    let mut engine = ReuseSession::from_network(workload.network(), &config);

    let (agreement, fidelity) = if workload.is_recurrent() {
        // EESEN: split the executions into utterances. One extra sequence
        // covers the calibration pass so `executions` are measured in reuse
        // mode.
        let seq_len = 40.min(executions.max(2));
        let n_seq = executions.div_ceil(seq_len) + 1;
        let seqs = workload.generate_sequences(n_seq, seq_len, seed);
        let mut reference = Vec::new();
        let mut test = Vec::new();
        for seq in &seqs {
            let outs = engine
                .execute_sequence(seq)
                .expect("workload sequences are valid");
            let refs = workload
                .network()
                .forward_sequence(seq)
                .expect("reference pass");
            test.extend(outs);
            reference.extend(refs);
        }
        (
            classification_agreement(&reference, &test),
            mean_relative_error(&reference, &test),
        )
    } else {
        let frames = workload.generate_frames(executions, seed);
        let test = engine
            .execute_sequence(&frames)
            .expect("workload frames are valid");
        let mut reference = Vec::new();
        for frame in &frames {
            reference.push(
                workload
                    .network()
                    .forward_flat(frame)
                    .expect("reference pass"),
            );
        }
        let agreement = if matches!(kind, WorkloadKind::AutoPilot) {
            // Steering regression: agree within 10% of the observed steering
            // range (the output of an untrained network has no absolute
            // scale; see DESIGN.md).
            let (lo, hi) = reference
                .iter()
                .map(|t| t.as_slice()[0])
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(v), hi.max(v))
                });
            let range = (hi - lo).max(1e-3);
            regression_agreement(&reference, &test, 0.1, range)
        } else {
            classification_agreement(&reference, &test)
        };
        (agreement, mean_relative_error(&reference, &test))
    };

    let metrics = engine.metrics().clone();
    let layers = workload
        .network()
        .layers()
        .iter()
        .zip(workload.network().layer_input_shapes().iter())
        .filter(|((_, l), _)| l.has_weights())
        .map(|((name, layer), in_shape)| {
            let m = metrics.layer(name);
            let enabled = config.layer_policy(name).enabled
                && !engine.auto_disabled_layers().any(|n| n == name);
            let out = layer.output_shape(in_shape).expect("validated").volume();
            let input_similarity = if enabled {
                m.map_or(0.0, |m| m.input_similarity())
            } else {
                0.0
            };
            LayerSummary {
                name: name.clone(),
                inputs: in_shape.volume(),
                outputs: out,
                enabled,
                input_similarity,
                computation_reuse: if enabled {
                    m.map_or(0.0, |m| m.computation_reuse())
                } else {
                    0.0
                },
                hit_rate: input_similarity,
            }
        })
        .collect();

    let reuse_storage_bytes = engine.reuse_storage_bytes();
    let centroid_table_bytes = engine.centroid_table_bytes();
    let mut traces = engine.take_traces();
    // Drop the calibration executions: range profiling is an offline step
    // (the paper profiles the training set), so the simulated steady-state
    // workload must not include those full-precision passes. The quantized
    // from-scratch first execution stays — it is a real cost of the scheme.
    let calibration_traces = if workload.is_recurrent() {
        40.min(executions.max(2)) * config.calibration()
    } else {
        config.calibration()
    };
    traces.drain(0..calibration_traces.min(traces.len()));
    Measurement {
        kind,
        scale,
        executions: metrics.executions,
        policy: config.policy().name().to_string(),
        layers,
        overall_similarity: metrics.overall_input_similarity(),
        overall_reuse: metrics.overall_computation_reuse(),
        agreement,
        mean_relative_error: fidelity,
        traces,
        model_bytes: workload.network().model_bytes(),
        executions_per_sequence: workload.executions_per_sequence(),
        activations_spill: workload.activations_spill(),
        reuse_storage_bytes,
        centroid_table_bytes,
    }
}

impl Measurement {
    /// Builds the accelerator-simulator input view of this measurement.
    pub fn sim_input(&self) -> reuse_accel::SimInput<'_> {
        reuse_accel::SimInput {
            name: self.kind.name(),
            traces: &self.traces,
            model_bytes: self.model_bytes,
            executions_per_sequence: self.executions_per_sequence,
            activations_spill: self.activations_spill,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_measurements_have_sane_shape() {
        for kind in WorkloadKind::ALL {
            let m = measure_workload(kind, Scale::Tiny, 10, 1);
            assert!(m.executions >= 10, "{kind}: {}", m.executions);
            assert!(!m.layers.is_empty());
            assert!(!m.traces.is_empty());
            assert!(m.overall_similarity >= 0.0 && m.overall_similarity <= 1.0);
            assert!(m.overall_reuse >= 0.0 && m.overall_reuse <= 1.0);
            if matches!(kind, WorkloadKind::AutoPilot) {
                // The tiny untrained regressor's output range is noise-
                // dominated; the relative-error fidelity metric is the
                // meaningful check there.
                assert!(
                    m.mean_relative_error < 0.3,
                    "{kind}: relative error {}",
                    m.mean_relative_error
                );
            } else {
                assert!(
                    m.agreement.ratio() > 0.5,
                    "{kind}: agreement {}",
                    m.agreement.ratio()
                );
            }
        }
    }

    #[test]
    fn measurement_is_deterministic() {
        let a = measure_workload(WorkloadKind::Kaldi, Scale::Tiny, 8, 3);
        let b = measure_workload(WorkloadKind::Kaldi, Scale::Tiny, 8, 3);
        assert_eq!(a.overall_similarity, b.overall_similarity);
        assert_eq!(a.traces.len(), b.traces.len());
        assert_eq!(a.agreement, b.agreement);
    }

    #[test]
    fn disabled_layers_reported_disabled() {
        let m = measure_workload(WorkloadKind::Kaldi, Scale::Tiny, 8, 3);
        let fc1 = m.layers.iter().find(|l| l.name == "fc1").unwrap();
        assert!(!fc1.enabled);
        assert_eq!(fc1.computation_reuse, 0.0);
    }
}
