//! Video action classification with the C3D CNN (paper Table I) plus a
//! full accelerator simulation of the clip.
//!
//! Run with: `cargo run --release --example video_classify`
//! (defaults to the reduced `small` scale; `REUSE_SCALE=full` runs the
//! exact Table I geometry and takes several minutes)

use reuse_dnn::prelude::*;
use reuse_dnn::{accel, reuse};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = reuse_dnn::workloads::Scale::from_env();
    let workload = Workload::build(WorkloadKind::C3d, scale);
    println!(
        "C3D action classifier at {scale} scale: input {}, {} classes",
        workload.network().input_shape(),
        workload.network().output_shape().volume()
    );

    // A short clip: 8 disjoint 16-frame windows.
    let windows = workload.generate_frames(8, 3);
    let config = workload.reuse_config().clone().record_trace(true);
    let mut engine = reuse::ReuseSession::from_network(workload.network(), &config);

    for (t, window) in windows.iter().enumerate() {
        let out = engine.execute(window)?;
        println!("window {t}: action class {}", out.argmax());
    }

    let m = engine.metrics();
    println!();
    println!(
        "input similarity  : {:.1}%",
        m.overall_input_similarity() * 100.0
    );
    println!(
        "computation reuse : {:.1}%",
        m.overall_computation_reuse() * 100.0
    );

    // Simulate the clip on the Table II accelerator.
    let traces = engine.take_traces();
    let sim = Simulator::new(AcceleratorConfig::paper());
    let input = accel::SimInput {
        name: "c3d-clip",
        traces: &traces,
        model_bytes: workload.network().model_bytes(),
        executions_per_sequence: workload.executions_per_sequence(),
        activations_spill: workload.activations_spill(),
    };
    let base = sim.simulate_baseline(&input);
    let with_reuse = sim.simulate_reuse(&input);
    println!(
        "accelerator       : {:.2}x speedup, {:.0}% energy savings over the clip",
        with_reuse.speedup_over(&base),
        (1.0 - with_reuse.normalized_energy_to(&base)) * 100.0
    );
    println!(
        "                    baseline {:.2} ms / {:.2} mJ -> reuse {:.2} ms / {:.2} mJ",
        base.seconds * 1e3,
        base.energy_j() * 1e3,
        with_reuse.seconds * 1e3,
        with_reuse.energy_j() * 1e3
    );
    Ok(())
}
