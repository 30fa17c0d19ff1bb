//! Design-space sweep utilities.
//!
//! The experiments and examples repeatedly simulate the same traces under
//! families of accelerator configurations (tile counts, precisions,
//! frequencies). [`ConfigSweep`] names each point and runs baseline + reuse
//! in one call, returning a grid the caller can print or post-process.

use reuse_core::ExecutionTrace;

use crate::{AcceleratorConfig, Precision, SimInput, SimReport, Simulator};

/// One named configuration point in a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Human-readable label (e.g. `"4 tiles, fp32"`).
    pub label: String,
    /// The configuration simulated.
    pub config: AcceleratorConfig,
}

/// Baseline and reuse results at one sweep point.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The point's label.
    pub label: String,
    /// Baseline (no-reuse) simulation.
    pub baseline: SimReport,
    /// Reuse simulation.
    pub reuse: SimReport,
    /// Fraction of MACs the workload's traces avoided (`1 − performed /
    /// total`). A property of the input, identical at every point of one
    /// sweep; recorded on each result so reports carry the reuse-rate
    /// provenance alongside the hardware numbers.
    pub reuse_rate: f64,
}

/// MAC-level reuse rate of a set of execution traces.
fn trace_reuse_rate(traces: &[ExecutionTrace]) -> f64 {
    let (total, performed) = traces.iter().fold((0u64, 0u64), |(t, p), tr| {
        (t + tr.macs_total(), p + tr.macs_performed())
    });
    if total == 0 {
        0.0
    } else {
        1.0 - performed as f64 / total as f64
    }
}

impl SweepResult {
    /// Speedup of reuse over baseline at this point.
    pub fn speedup(&self) -> f64 {
        self.reuse.speedup_over(&self.baseline)
    }

    /// Energy savings fraction at this point.
    pub fn energy_savings(&self) -> f64 {
        1.0 - self.reuse.normalized_energy_to(&self.baseline)
    }
}

/// A set of configuration points to simulate against one workload.
#[derive(Debug, Clone, Default)]
pub struct ConfigSweep {
    points: Vec<SweepPoint>,
}

impl ConfigSweep {
    /// An empty sweep.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an arbitrary named configuration.
    pub fn point(mut self, label: &str, config: AcceleratorConfig) -> Self {
        self.points.push(SweepPoint {
            label: label.to_string(),
            config,
        });
        self
    }

    /// Adds one point per tile count, from the paper configuration.
    pub fn tiles(mut self, counts: &[usize]) -> Self {
        for &tiles in counts {
            self.points.push(SweepPoint {
                label: format!("{tiles} tiles"),
                config: AcceleratorConfig {
                    tiles,
                    ..AcceleratorConfig::paper()
                },
            });
        }
        self
    }

    /// Adds the two precision variants of the paper configuration.
    pub fn precisions(mut self) -> Self {
        for (label, precision) in [("fp32", Precision::Fp32), ("fixed8", Precision::Fixed8)] {
            self.points.push(SweepPoint {
                label: label.to_string(),
                config: AcceleratorConfig {
                    precision,
                    ..AcceleratorConfig::paper()
                },
            });
        }
        self
    }

    /// Adds one point per core frequency (hertz), from the paper
    /// configuration.
    pub fn frequencies(mut self, hertz: &[f64]) -> Self {
        for &frequency_hz in hertz {
            self.points.push(SweepPoint {
                label: format!("{:.0} MHz", frequency_hz / 1e6),
                config: AcceleratorConfig {
                    frequency_hz,
                    ..AcceleratorConfig::paper()
                },
            });
        }
        self
    }

    /// The configured points.
    pub fn points(&self) -> &[SweepPoint] {
        &self.points
    }

    /// Simulates every point against the given workload input.
    pub fn run(&self, input: &SimInput<'_>) -> Vec<SweepResult> {
        let reuse_rate = trace_reuse_rate(input.traces);
        self.points
            .iter()
            .map(|p| {
                let sim = Simulator::new(p.config.clone());
                SweepResult {
                    label: p.label.clone(),
                    baseline: sim.simulate_baseline(input),
                    reuse: sim.simulate_reuse(input),
                    reuse_rate,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuse_core::{ExecutionTrace, LayerTrace, TraceKind};
    use reuse_nn::LayerKind;

    fn traces() -> Vec<ExecutionTrace> {
        (0..4)
            .map(|_| ExecutionTrace {
                layers: vec![LayerTrace {
                    name: "fc1".into(),
                    kind: LayerKind::Fc,
                    mode: TraceKind::Incremental,
                    n_inputs: 400,
                    n_changed: 100,
                    n_outputs: 2000,
                    n_params: 800_000,
                    macs_total: 800_000,
                    macs_performed: 200_000,
                }],
            })
            .collect()
    }

    fn input(traces: &[ExecutionTrace]) -> SimInput<'_> {
        SimInput {
            name: "sweep",
            traces,
            model_bytes: 4 << 20,
            executions_per_sequence: 100,
            activations_spill: false,
        }
    }

    #[test]
    fn builder_accumulates_points() {
        let sweep = ConfigSweep::new()
            .tiles(&[1, 4])
            .precisions()
            .frequencies(&[500e6]);
        assert_eq!(sweep.points().len(), 5);
        assert_eq!(sweep.points()[0].label, "1 tiles");
        assert_eq!(sweep.points()[2].label, "fp32");
        assert_eq!(sweep.points()[4].label, "500 MHz");
    }

    #[test]
    fn run_produces_one_result_per_point() {
        let t = traces();
        let results = ConfigSweep::new().tiles(&[1, 2, 4]).run(&input(&t));
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.speedup() > 1.0, "{}: {}", r.label, r.speedup());
            assert!(r.energy_savings() > 0.0);
            // 200k of 800k MACs performed on every trace -> 75% reuse.
            assert!((r.reuse_rate - 0.75).abs() < 1e-12, "{}", r.reuse_rate);
        }
        // More tiles: faster baseline.
        assert!(results[2].baseline.seconds < results[0].baseline.seconds);
    }

    #[test]
    fn frequency_scales_time_not_energy_ratio() {
        let t = traces();
        let results = ConfigSweep::new()
            .frequencies(&[250e6, 500e6])
            .run(&input(&t));
        assert!(results[0].baseline.seconds > results[1].baseline.seconds);
        // The reuse/baseline energy ratio barely moves with frequency (both
        // scale the same static energy).
        let r0 = 1.0 - results[0].energy_savings();
        let r1 = 1.0 - results[1].energy_savings();
        assert!((r0 - r1).abs() < 0.1, "{r0} vs {r1}");
    }
}
