//! Cross-crate integration tests: workloads → reuse engine → accelerator
//! simulator, exercised through the public `reuse_dnn` façade.

use reuse_dnn::accel::{self, AcceleratorConfig, Simulator};
use reuse_dnn::prelude::*;
use reuse_dnn::reuse::{ReuseConfig, ReuseSession};
use reuse_dnn::workloads::Scale;

fn run_workload(kind: WorkloadKind, executions: usize) -> (ReuseSession, Vec<Vec<f32>>) {
    let w = Workload::build(kind, Scale::Tiny);
    let config = w.reuse_config().clone().record_trace(true);
    let mut engine = ReuseSession::from_network(w.network(), &config);
    let frames = w.generate_frames(executions, 5);
    for f in &frames {
        engine.execute(f).expect("tiny workloads execute");
    }
    (engine, frames)
}

#[test]
fn kaldi_pipeline_reuses_and_stays_accurate() {
    let (engine, frames) = run_workload(WorkloadKind::Kaldi, 20);
    let m = engine.metrics();
    assert!(
        m.overall_computation_reuse() > 0.2,
        "reuse {}",
        m.overall_computation_reuse()
    );
    // Output fidelity versus the fp32 network on the last frame.
    let w = Workload::build(WorkloadKind::Kaldi, Scale::Tiny);
    let reference = w.network().forward_flat(frames.last().unwrap()).unwrap();
    let out = engine.reference_forward(frames.last().unwrap()).unwrap();
    assert_eq!(out.len(), reference.len());
}

#[test]
fn autopilot_pipeline_simulates_faster_with_reuse() {
    let (mut engine, _) = run_workload(WorkloadKind::AutoPilot, 16);
    let traces = engine.take_traces();
    let sim = Simulator::new(AcceleratorConfig::paper());
    let input = accel::SimInput {
        name: "autopilot-tiny",
        traces: &traces,
        model_bytes: engine.network().model_bytes(),
        executions_per_sequence: 100,
        activations_spill: true,
    };
    let base = sim.simulate_baseline(&input);
    let reuse = sim.simulate_reuse(&input);
    assert!(
        reuse.speedup_over(&base) > 1.5,
        "speedup {}",
        reuse.speedup_over(&base)
    );
    assert!(reuse.energy_j() < base.energy_j());
}

#[test]
fn eesen_sequences_flow_through_engine() {
    let w = Workload::build(WorkloadKind::Eesen, Scale::Tiny);
    let mut engine = ReuseSession::from_network(w.network(), w.reuse_config());
    let seqs = w.generate_sequences(3, 12, 9);
    for seq in &seqs {
        let outs = engine.execute_sequence(seq).expect("sequences run");
        assert_eq!(outs.len(), 12);
    }
    assert!(engine.is_calibrated());
    let m = engine.metrics();
    assert!(m.layer("bilstm1").unwrap().reuse_executions > 0);
}

#[test]
fn prelude_quickstart_compiles_and_runs() {
    let network = NetworkBuilder::new("demo", 8)
        .fully_connected(16, reuse_dnn::nn::Activation::Relu)
        .fully_connected(4, reuse_dnn::nn::Activation::Identity)
        .build()
        .unwrap();
    let mut engine = ReuseSession::from_network(&network, &ReuseConfig::uniform(16));
    let frame = vec![0.1f32; 8];
    engine.execute(&frame).unwrap(); // calibration (fp32)
    let a = engine.execute(&frame).unwrap(); // quantized from scratch
    let b = engine.execute(&frame).unwrap(); // incremental: zero changes
    assert_eq!(a.as_slice(), b.as_slice());
    assert!(engine.metrics().overall_input_similarity() > 0.99);
}

#[test]
fn quantizer_and_tensor_reexports_work() {
    let q = LinearQuantizer::new(reuse_dnn::quant::InputRange::new(-1.0, 1.0), 16).unwrap();
    assert_eq!(q.clusters(), 16);
    let t = Tensor::zeros(Shape::d2(2, 2));
    assert_eq!(t.len(), 4);
}

#[test]
fn c3d_tiny_clip_classifies_consistently() {
    let (mut engine, frames) = run_workload(WorkloadKind::C3d, 6);
    // Re-execute the last window: quantized state unchanged => identical
    // output.
    let out1 = engine.execute(frames.last().unwrap()).unwrap();
    let out2 = engine.execute(frames.last().unwrap()).unwrap();
    assert_eq!(out1.as_slice(), out2.as_slice());
}

#[test]
fn storage_reports_cover_all_workloads() {
    for kind in WorkloadKind::ALL {
        let w = Workload::build(kind, Scale::Tiny);
        let config = w.reuse_config();
        let r = accel::memory::storage_report(w.network(), |n| config.layer_policy(n).enabled);
        assert!(r.io_reuse_bytes >= r.io_baseline_bytes, "{kind}");
        assert!(r.main_reuse_bytes >= r.main_baseline_bytes, "{kind}");
    }
}

#[test]
fn workload_models_round_trip_through_serialization() {
    use reuse_dnn::nn::serialize;
    for kind in WorkloadKind::ALL {
        let w = Workload::build(kind, Scale::Tiny);
        let text = serialize::to_string(w.network());
        let back = serialize::from_str(&text).unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(back.param_count(), w.network().param_count(), "{kind}");
        assert_eq!(back.input_shape(), w.network().input_shape(), "{kind}");
        // Spot-check behaviour on one input.
        if !w.is_recurrent() {
            let frame = w.generate_frames(1, 1).pop().unwrap();
            assert_eq!(
                back.forward_flat(&frame).unwrap().as_slice(),
                w.network().forward_flat(&frame).unwrap().as_slice(),
                "{kind}"
            );
        }
    }
}

#[test]
fn engine_summary_renders_for_real_workload() {
    let w = Workload::build(WorkloadKind::Kaldi, Scale::Tiny);
    let mut engine = reuse_dnn::reuse::ReuseSession::from_network(w.network(), w.reuse_config());
    for frame in w.generate_frames(6, 2) {
        engine.execute(&frame).unwrap();
    }
    let report = reuse_dnn::reuse::summary::render(&engine);
    assert!(report.contains("kaldi"));
    assert!(report.contains("fc3"));
    assert!(report.contains("OVERALL"));
}
