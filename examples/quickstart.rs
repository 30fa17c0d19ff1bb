//! Quickstart: build a small MLP, stream temporally-correlated frames
//! through the reuse engine, and inspect how much computation was reused.
//!
//! Run with: `cargo run --release --example quickstart`

use reuse_dnn::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A small MLP: 32 inputs -> 64 -> 32 -> 8 outputs.
    let network = NetworkBuilder::new("quickstart-mlp", 32)
        .seed(7)
        .fully_connected(64, reuse_dnn::nn::Activation::Relu)
        .fully_connected(32, reuse_dnn::nn::Activation::Relu)
        .fully_connected(8, reuse_dnn::nn::Activation::Identity)
        .build()?;
    println!(
        "network: {} ({} parameters)",
        network.name(),
        network.param_count()
    );

    // 2. The reuse engine with 16-cluster linear quantization (paper Eq. 9).
    let config = ReuseConfig::uniform(16).record_trace(true);
    let mut engine = ReuseSession::from_network(&network, &config);

    // 3. A smooth random walk stands in for consecutive audio/video frames.
    let mut rng = reuse_dnn::nn::init::Rng64::new(42);
    let mut frame = vec![0.0f32; 32];
    for step in 0..50 {
        for v in &mut frame {
            *v = (*v + rng.uniform(0.05)).clamp(-1.0, 1.0);
        }
        let out = engine.execute(&frame)?;
        if step % 10 == 0 {
            println!("step {step:>2}: prediction = class {}", out.argmax());
        }
    }

    // 4. How much work did the input similarity save?
    let m = engine.metrics();
    println!();
    println!(
        "input similarity   : {:.1}%",
        m.overall_input_similarity() * 100.0
    );
    println!(
        "computation reuse  : {:.1}%",
        m.overall_computation_reuse() * 100.0
    );

    // 5. The same run on the paper's accelerator (Table II): baseline vs reuse.
    let traces = engine.take_traces();
    let sim = Simulator::new(AcceleratorConfig::paper());
    let input = reuse_dnn::accel::SimInput {
        name: "quickstart",
        traces: &traces,
        model_bytes: network.model_bytes(),
        executions_per_sequence: 50,
        activations_spill: false,
    };
    let base = sim.simulate_baseline(&input);
    let reuse = sim.simulate_reuse(&input);
    println!(
        "accelerator        : {:.2}x speedup, {:.0}% energy savings",
        reuse.speedup_over(&base),
        (1.0 - reuse.normalized_energy_to(&base)) * 100.0
    );
    Ok(())
}
