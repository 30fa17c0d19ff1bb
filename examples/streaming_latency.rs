//! Real-time streaming latency: speech frames arrive every 10 ms (paper
//! Fig. 1); does the accelerator keep up, and how much headroom does the
//! reuse scheme add?
//!
//! Run with: `cargo run --release --example streaming_latency`

use reuse_dnn::accel::{AcceleratorConfig, SimInput, Simulator};
use reuse_dnn::prelude::*;
use reuse_dnn::reuse;

/// The speech frame period (paper: 10 ms frames).
const FRAME_BUDGET_S: f64 = 0.010;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = reuse_dnn::workloads::Scale::from_env();
    let workload = Workload::build(WorkloadKind::Kaldi, scale);
    println!("Kaldi acoustic scoring at {scale} scale; one DNN execution per 10 ms frame\n");

    let config = workload.reuse_config().clone().record_trace(true);
    let mut engine = reuse::ReuseSession::from_network(workload.network(), &config);
    let frames = workload.generate_frames(60, 9);
    for frame in &frames {
        engine.execute(frame)?;
    }
    let traces = engine.take_traces();
    let sim = Simulator::new(AcceleratorConfig::paper());

    // Per-frame latency: simulate each execution's trace in isolation.
    println!(
        "{:>7} {:>14} {:>14} {:>12}",
        "frame", "baseline", "with reuse", "budget used"
    );
    let mut worst_reuse = 0.0f64;
    let mut worst_base = 0.0f64;
    for (t, trace) in traces.iter().enumerate() {
        let one = std::slice::from_ref(trace);
        let input = SimInput {
            name: "kaldi-frame",
            traces: one,
            model_bytes: workload.network().model_bytes(),
            executions_per_sequence: workload.executions_per_sequence(),
            activations_spill: false,
        };
        let base = sim.simulate_baseline(&input).seconds;
        let with_reuse = sim.simulate_reuse(&input).seconds;
        worst_base = worst_base.max(base);
        worst_reuse = worst_reuse.max(with_reuse);
        if t % 15 == 0 {
            println!(
                "{:>7} {:>11.2} us {:>11.2} us {:>11.1}%",
                t,
                base * 1e6,
                with_reuse * 1e6,
                with_reuse / FRAME_BUDGET_S * 100.0
            );
        }
    }
    println!();
    println!(
        "worst-case frame latency: baseline {:.2} us, reuse {:.2} us (budget {:.0} us)",
        worst_base * 1e6,
        worst_reuse * 1e6,
        FRAME_BUDGET_S * 1e6
    );
    let headroom = FRAME_BUDGET_S / worst_reuse;
    println!(
        "the reuse accelerator meets the 10 ms real-time budget with {headroom:.0}x headroom —\n\
         slack it can spend power-gated (the paper's idle-period energy story)"
    );
    assert!(worst_reuse < FRAME_BUDGET_S, "real-time budget violated");
    Ok(())
}
