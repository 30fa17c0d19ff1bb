//! Self-driving steering over a synthetic drive with the AutoPilot CNN
//! (paper Table I): the network regresses a steering angle per dashcam
//! frame while the reuse engine skips computations for unchanged pixels.
//!
//! Run with: `cargo run --release --example autopilot_drive`

use reuse_dnn::prelude::*;
use reuse_dnn::reuse;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = reuse_dnn::workloads::Scale::from_env();
    let workload = Workload::build(WorkloadKind::AutoPilot, scale);
    println!(
        "AutoPilot steering CNN at {scale} scale ({} MB model)",
        workload.network().model_bytes() / (1 << 20)
    );

    // Thirty frames of driving (one second at 30 fps).
    let frames = workload.generate_frames(30, 7);
    let mut engine = reuse::ReuseSession::from_network(workload.network(), workload.reuse_config());

    println!(
        "{:<7} {:>14} {:>14} {:>16}",
        "frame", "steer (reuse)", "steer (fp32)", "macs skipped"
    );
    let mut last_metrics = (0u64, 0u64);
    for (t, frame) in frames.iter().enumerate() {
        let reuse_out = engine.execute(frame)?;
        let fp32_out = workload.network().forward_flat(frame)?;
        let m = engine.metrics();
        let total: u64 = m.layers.iter().map(|l| l.macs_total).sum();
        let performed: u64 = m.layers.iter().map(|l| l.macs_performed).sum();
        let (dt, dp) = (total - last_metrics.0, performed - last_metrics.1);
        last_metrics = (total, performed);
        if t % 5 == 0 {
            let skipped = if dt > 0 {
                100.0 * (dt - dp) as f64 / dt as f64
            } else {
                0.0
            };
            println!(
                "{:<7} {:>14.4} {:>14.4} {:>15.1}%",
                t,
                reuse_out.as_slice()[0],
                fp32_out.as_slice()[0],
                skipped
            );
        }
    }
    let m = engine.metrics();
    println!();
    println!(
        "drive summary: {:.1}% input similarity, {:.1}% of multiply-accumulates avoided",
        m.overall_input_similarity() * 100.0,
        m.overall_computation_reuse() * 100.0
    );
    Ok(())
}
