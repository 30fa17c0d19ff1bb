//! Human-readable reporting of session metrics.

use crate::{EngineMetrics, ReuseSession};

/// A formatted snapshot of a [`ReuseSession`]'s accumulated metrics,
/// suitable for logs and examples.
///
/// # Example
///
/// ```
/// use reuse_core::{ReuseConfig, ReuseSession};
/// use reuse_nn::{Activation, NetworkBuilder};
///
/// let net = NetworkBuilder::new("demo", 4)
///     .fully_connected(8, Activation::Relu)
///     .fully_connected(2, Activation::Identity)
///     .build()
///     .unwrap();
/// let mut session = ReuseSession::from_network(&net, &ReuseConfig::uniform(16));
/// for _ in 0..4 {
///     session.execute(&[0.1, 0.2, 0.3, 0.4])?;
/// }
/// let report = reuse_core::summary::render(&session);
/// assert!(report.contains("fc1"));
/// # Ok::<(), reuse_core::ReuseError>(())
/// ```
pub fn render(session: &ReuseSession) -> String {
    render_metrics(session.network().name(), session.metrics())
}

/// Formats accumulated reuse metrics for a named network.
pub fn render_metrics(name: &str, metrics: &EngineMetrics) -> String {
    let mut s = format!(
        "reuse summary for {name} ({} executions)\n{:<12} {:>12} {:>14} {:>12}\n",
        metrics.executions, "layer", "similarity", "comp. reuse", "reuse execs"
    );
    for layer in &metrics.layers {
        if layer.reuse_executions == 0 {
            s.push_str(&format!(
                "{:<12} {:>12} {:>14} {:>12}\n",
                layer.name, "-", "-", 0
            ));
        } else {
            s.push_str(&format!(
                "{:<12} {:>11.1}% {:>13.1}% {:>12}\n",
                layer.name,
                layer.input_similarity() * 100.0,
                layer.computation_reuse() * 100.0,
                layer.reuse_executions
            ));
        }
    }
    s.push_str(&format!(
        "{:<12} {:>11.1}% {:>13.1}%\n",
        "OVERALL",
        metrics.overall_input_similarity() * 100.0,
        metrics.overall_computation_reuse() * 100.0
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LayerMetrics;

    #[test]
    fn render_metrics_lists_layers_and_overall() {
        let mut fc1 = LayerMetrics::new("fc1");
        fc1.record(100, 80, 1000, 200);
        let silent = LayerMetrics::new("fc2");
        let metrics = EngineMetrics {
            layers: vec![fc1, silent],
            executions: 5,
        };
        let s = render_metrics("demo", &metrics);
        assert!(s.contains("demo"));
        assert!(s.contains("fc1"));
        assert!(s.contains("80.0%"));
        assert!(s.contains("OVERALL"));
        // Unmetered layers render placeholders rather than zeros.
        let fc2_line = s.lines().find(|l| l.starts_with("fc2")).unwrap();
        assert!(fc2_line.contains('-'));
    }
}
