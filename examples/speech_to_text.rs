//! End-to-end speech recognition with the EESEN bidirectional-LSTM RNN
//! (paper Table I): character likelihoods per frame, with reuse across
//! consecutive timesteps in both directions of every recurrent layer.
//!
//! Run with: `cargo run --release --example speech_to_text`

use reuse_dnn::prelude::*;
use reuse_dnn::reuse;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = reuse_dnn::workloads::Scale::from_env();
    let workload = Workload::build(WorkloadKind::Eesen, scale);
    println!(
        "EESEN RNN at {scale} scale: {} BiLSTM layers, {} output characters",
        workload
            .network()
            .layers()
            .iter()
            .filter(|(n, _)| n.starts_with("bilstm"))
            .count(),
        workload.network().output_shape().volume()
    );

    let mut engine = reuse::ReuseSession::from_network(workload.network(), workload.reuse_config());

    // Two utterances: the first calibrates the quantizers (offline profiling
    // in the paper), the second is decoded with reuse.
    let utterances = workload.generate_sequences(2, 50, 11);
    engine.execute_sequence(&utterances[0])?;
    let outs = engine.execute_sequence(&utterances[1])?;

    // "Decode": the most likely character per frame, run-length collapsed
    // (a toy CTC-style collapse).
    let mut decoded = Vec::new();
    let mut last = usize::MAX;
    for out in &outs {
        let c = out.argmax();
        if c != last {
            decoded.push(c);
            last = c;
        }
    }
    println!(
        "decoded {} frames into {} character tokens",
        outs.len(),
        decoded.len()
    );

    let m = engine.metrics();
    for layer in ["bilstm1", "bilstm2", "bilstm3", "bilstm4", "bilstm5"] {
        if let Some(l) = m.layer(layer) {
            if l.reuse_executions > 0 {
                println!(
                    "{layer}: {:>5.1}% input similarity, {:>5.1}% computation reuse",
                    l.input_similarity() * 100.0,
                    l.computation_reuse() * 100.0
                );
            }
        }
    }
    println!(
        "overall: {:.1}% similarity, {:.1}% reuse (paper: >50% for recurrent layers)",
        m.overall_input_similarity() * 100.0,
        m.overall_computation_reuse() * 100.0
    );
    Ok(())
}
