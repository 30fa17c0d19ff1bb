//! Numerical drift of incrementally-corrected outputs.
//!
//! The reuse scheme never recomputes a buffered output from scratch: every
//! execution *adds* correction terms (paper Eq. 10) with finite-precision
//! arithmetic, so rounding errors accumulate over a sequence. The hardware
//! implicitly bounds this by power-gating between sequences (state resets,
//! paper Section IV-A); this module quantifies the residual drift within a
//! sequence so that bound can be checked rather than assumed.

use reuse_nn::FullyConnected;
use reuse_quant::LinearQuantizer;

use crate::fc::FcReuseState;
use crate::layer::SERIAL;
use crate::ReuseError;

/// Drift of the incremental path relative to from-scratch recomputation.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Executions measured (after the initializing one).
    pub executions: u64,
    /// Maximum absolute output error observed at each measured checkpoint.
    pub max_abs_error: Vec<f32>,
    /// Relative error (max abs error over output magnitude) at the end.
    pub final_relative_error: f64,
}

impl DriftReport {
    /// Whether drift stayed below `bound` (absolute) throughout.
    pub fn bounded_by(&self, bound: f32) -> bool {
        self.max_abs_error.iter().all(|&e| e <= bound)
    }
}

/// Maximum absolute element-wise difference between two equal-length
/// slices — the drift measure shared by [`measure_fc_drift`] and the
/// engine's runtime watchdog.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "slices must have equal length");
    a.iter()
        .zip(b.iter())
        .fold(0.0f32, |m, (&x, &y)| m.max((x - y).abs()))
}

/// Runs an FC layer incrementally over `inputs`, comparing the buffered
/// outputs against from-scratch recomputation on the same quantized inputs
/// every `checkpoint_every` executions.
///
/// # Errors
///
/// Propagates execution errors.
pub fn measure_fc_drift(
    layer: &FullyConnected,
    quantizer: &LinearQuantizer,
    inputs: &[Vec<f32>],
    checkpoint_every: usize,
) -> Result<DriftReport, ReuseError> {
    let mut state = FcReuseState::new(layer);
    let mut max_abs_error = Vec::new();
    let mut last_error = 0.0f64;
    let mut last_mag = 1.0f64;
    let (mut incremental, mut scratch) = (Vec::new(), Vec::new());
    for (t, input) in inputs.iter().enumerate() {
        state.execute_into(&SERIAL, layer, quantizer, input, &mut incremental)?;
        if t > 0 && t % checkpoint_every.max(1) == 0 {
            layer.forward_linear_into(&quantizer.quantized_values(input), &mut scratch)?;
            let err = max_abs_diff(&incremental, &scratch);
            max_abs_error.push(err);
            last_error = err as f64;
            last_mag = scratch.iter().fold(1e-9f32, |m, &v| m.max(v.abs())) as f64;
        }
    }
    Ok(DriftReport {
        executions: inputs.len().saturating_sub(1) as u64,
        max_abs_error,
        final_relative_error: last_error / last_mag,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuse_nn::{init::Rng64, Activation};
    use reuse_quant::InputRange;

    fn walk(len: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Rng64::new(seed);
        let mut frame: Vec<f32> = (0..dim).map(|_| rng.uniform(0.5)).collect();
        (0..len)
            .map(|_| {
                for v in &mut frame {
                    *v = (*v + rng.uniform(0.1)).clamp(-1.0, 1.0);
                }
                frame.clone()
            })
            .collect()
    }

    #[test]
    fn drift_stays_tiny_over_a_long_utterance() {
        // 500 executions ~ a five-second utterance at 10ms frames.
        let layer = FullyConnected::random(40, 100, Activation::Identity, &mut Rng64::new(1));
        let q = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap();
        let report = measure_fc_drift(&layer, &q, &walk(500, 40, 2), 50).unwrap();
        assert_eq!(report.executions, 499);
        assert_eq!(report.max_abs_error.len(), 9);
        // f32 corrections on O(1) values: drift must stay far below the
        // quantization step (0.125), or the scheme's accuracy story breaks.
        assert!(
            report.bounded_by(q.step() / 10.0),
            "drift {:?}",
            report.max_abs_error
        );
        assert!(report.final_relative_error < 1e-3);
    }

    #[test]
    fn drift_grows_slowly_not_exponentially() {
        let layer = FullyConnected::random(20, 50, Activation::Identity, &mut Rng64::new(3));
        let q = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap();
        let report = measure_fc_drift(&layer, &q, &walk(400, 20, 4), 100).unwrap();
        // Later checkpoints may exceed earlier ones, but by bounded factors
        // (random-walk accumulation), not orders of magnitude.
        let first = report
            .max_abs_error
            .first()
            .copied()
            .unwrap_or(0.0)
            .max(1e-9);
        let last = report.max_abs_error.last().copied().unwrap_or(0.0);
        assert!(last / first < 100.0, "first {first}, last {last}");
    }

    #[test]
    fn max_abs_diff_basics() {
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, -1.0]), 3.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn max_abs_diff_length_mismatch_panics() {
        max_abs_diff(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn bounded_by_is_strict() {
        let r = DriftReport {
            executions: 10,
            max_abs_error: vec![1e-6, 5e-6],
            final_relative_error: 1e-7,
        };
        assert!(r.bounded_by(1e-5));
        assert!(!r.bounded_by(1e-6));
    }
}
