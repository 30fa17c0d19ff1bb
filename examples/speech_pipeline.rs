//! Acoustic scoring over a synthetic utterance with the Kaldi MLP
//! (paper Table I), comparing the fp32 network with the reuse engine.
//!
//! Run with: `cargo run --release --example speech_pipeline`
//! (set `REUSE_SCALE=full` for the exact Table I geometry)

use reuse_dnn::prelude::*;
use reuse_dnn::reuse;
use reuse_dnn::workloads::accuracy;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = reuse_dnn::workloads::Scale::from_env();
    let workload = Workload::build(WorkloadKind::Kaldi, scale);
    println!(
        "Kaldi acoustic-scoring MLP at {scale} scale: {} parameters, {} senones",
        workload.network().param_count(),
        workload.network().output_shape().volume()
    );

    // A 2-second utterance: 200 overlapping 9-frame windows.
    let frames = workload.generate_frames(200, 1);
    let config = workload
        .reuse_config()
        .clone()
        .record_relative_difference(true);
    let mut engine = reuse::ReuseSession::from_network(workload.network(), &config);

    let mut reuse_outs = Vec::new();
    let mut fp32_outs = Vec::new();
    for frame in &frames {
        reuse_outs.push(engine.execute(frame)?);
        fp32_outs.push(workload.network().forward_flat(frame)?);
    }

    // Decisions: the most likely senone per frame.
    let agreement = accuracy::classification_agreement(&fp32_outs, &reuse_outs);
    let rel_err = accuracy::mean_relative_error(&fp32_outs, &reuse_outs);
    println!("frames scored        : {}", frames.len());
    println!("senone agreement     : {:.2}%", agreement.ratio() * 100.0);
    println!("mean relative error  : {:.2}%", rel_err * 100.0);

    let m = engine.metrics();
    println!(
        "input similarity     : {:.1}%",
        m.overall_input_similarity() * 100.0
    );
    println!(
        "computation reuse    : {:.1}%",
        m.overall_computation_reuse() * 100.0
    );

    // The Fig. 4 view: how different are consecutive inputs of FC5?
    if let Some(rd) = engine.layer_relative_differences("fc5") {
        let mean = rd.iter().sum::<f32>() / rd.len().max(1) as f32;
        println!(
            "FC5 relative diff    : {:.1}% mean over the utterance",
            mean * 100.0
        );
    }
    Ok(())
}
