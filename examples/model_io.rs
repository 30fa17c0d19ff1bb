//! Model save/load round trip: serialize a trained-equivalent network to
//! the text format, reload it, and verify the reuse engine produces
//! identical decisions.
//!
//! Run with: `cargo run --release --example model_io`

use reuse_dnn::nn::serialize;
use reuse_dnn::prelude::*;
use reuse_dnn::reuse;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Workload::build(WorkloadKind::AutoPilot, reuse_dnn::workloads::Scale::Tiny);
    let net = workload.network();

    // Save.
    let text = serialize::to_string(net);
    let path = std::env::temp_dir().join("autopilot-tiny.reuse-dnn");
    std::fs::write(&path, &text)?;
    println!(
        "saved {} ({} KB) to {}",
        net.name(),
        text.len() / 1024,
        path.display()
    );

    // Load and verify bit-exact behaviour.
    let loaded = serialize::from_str(&std::fs::read_to_string(&path)?)?;
    let frames = workload.generate_frames(10, 3);
    let mut engine_a = reuse::ReuseSession::from_network(net, workload.reuse_config());
    let mut engine_b = reuse::ReuseSession::from_network(&loaded, workload.reuse_config());
    for (t, frame) in frames.iter().enumerate() {
        let a = engine_a.execute(frame)?;
        let b = engine_b.execute(frame)?;
        assert_eq!(a.as_slice(), b.as_slice(), "frame {t} diverged");
    }
    println!(
        "reloaded model reproduces all {} executions bit-for-bit",
        frames.len()
    );
    println!(
        "reuse after reload: {:.1}% of multiply-accumulates avoided",
        engine_b.metrics().overall_computation_reuse() * 100.0
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
