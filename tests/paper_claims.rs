//! Qualitative claims from the paper, asserted end-to-end at test scale.
//!
//! These are the statements the reproduction must preserve regardless of
//! absolute numbers (see DESIGN.md §7, "fidelity targets"). Networks run at
//! tiny scale so the suite stays fast in debug builds; the bench binaries
//! check the same claims at full scale.

use reuse_dnn::accel::{AcceleratorConfig, SimInput, Simulator};
use reuse_dnn::prelude::*;
use reuse_dnn::reuse::ReuseSession;
use reuse_dnn::workloads::Scale;

fn simulate(kind: WorkloadKind, executions: usize) -> (f64, f64, f64) {
    let w = Workload::build(kind, Scale::Tiny);
    let config = w.reuse_config().clone().record_trace(true);
    let mut engine = ReuseSession::from_network(w.network(), &config);
    if w.is_recurrent() {
        for seq in w.generate_sequences(3, executions.div_ceil(2), 42) {
            engine.execute_sequence(&seq).expect("sequences run");
        }
    } else {
        for frame in w.generate_frames(executions, 42) {
            engine.execute(&frame).expect("frames run");
        }
    }
    let reuse_fraction = engine.metrics().overall_computation_reuse();
    let traces = engine.take_traces();
    let sim = Simulator::new(AcceleratorConfig::paper());
    let input = SimInput {
        name: "claim",
        traces: &traces,
        model_bytes: w.network().model_bytes(),
        executions_per_sequence: w.executions_per_sequence(),
        activations_spill: w.activations_spill(),
    };
    let base = sim.simulate_baseline(&input);
    let with_reuse = sim.simulate_reuse(&input);
    (
        reuse_fraction,
        with_reuse.speedup_over(&base),
        1.0 - with_reuse.normalized_energy_to(&base),
    )
}

/// Section III: "more than 50% of the computations can be reused across DNN
/// executions in all the DNNs" — relaxed to >30% at tiny scale, where the
/// shrunken hidden layers quantize more coarsely.
#[test]
fn claim_substantial_reuse_on_every_dnn() {
    for kind in WorkloadKind::ALL {
        let (reuse, _, _) = simulate(kind, 24);
        assert!(reuse > 0.30, "{kind}: reuse {reuse}");
    }
}

/// Section VI: "our technique provides consistent speedups for the four
/// DNNs" — every workload must beat the baseline accelerator.
#[test]
fn claim_consistent_speedups() {
    for kind in WorkloadKind::ALL {
        let (_, speedup, savings) = simulate(kind, 24);
        // Tiny-scale Kaldi is Amdahl-capped: its reuse-disabled FC1/FC2
        // keep their full-scale 360-wide input while the reuse-enabled
        // layers shrink, so almost all work is non-reusable. The full-scale
        // run (EXPERIMENTS.md) shows 2.4x; here we only require "never
        // slower".
        let (min_speedup, min_savings) = match kind {
            WorkloadKind::Kaldi => (1.0, 0.0),
            // Tiny EESEN runs 12-step sequences, so the per-sequence
            // from-scratch timestep is a twelfth of the whole run.
            WorkloadKind::Eesen => (1.1, 0.05),
            _ => (1.2, 0.15),
        };
        assert!(speedup >= min_speedup, "{kind}: speedup {speedup}");
        assert!(savings >= min_savings, "{kind}: savings {savings}");
    }
}

/// Section I: "the subtraction of the two inputs can be reused for all the
/// neurons in the same layer" — the comparison cost is per input, not per
/// connection, so a layer with many outputs amortizes it. Verified through
/// the trace accounting: quantize/compare ops equal input counts.
#[test]
fn claim_comparison_cost_is_per_input() {
    let w = Workload::build(WorkloadKind::Kaldi, Scale::Tiny);
    let config = w.reuse_config().clone().record_trace(true);
    let mut engine = ReuseSession::from_network(w.network(), &config);
    for frame in w.generate_frames(6, 1) {
        engine.execute(&frame).expect("frames run");
    }
    let traces = engine.take_traces();
    let last = traces.last().expect("traces recorded");
    for layer in &last.layers {
        // Incremental layers performed at most n_changed × fan-out MACs;
        // the per-input bookkeeping never multiplies by the output count.
        assert!(layer.n_changed <= layer.n_inputs, "{}", layer.name);
        if layer.n_outputs > 0 && layer.macs_total > 0 {
            let fanout = layer.macs_total / layer.n_inputs.max(1);
            assert!(
                layer.macs_performed <= layer.n_changed * fanout.max(1) + layer.n_inputs,
                "{}: performed {} for {} changed",
                layer.name,
                layer.macs_performed,
                layer.n_changed
            );
        }
    }
}

/// Section IV-D: recurrent layers compare each input once for all four
/// gates, so an unchanged input saves 4× the work a single-gate FC layer
/// would save.
#[test]
fn claim_lstm_gates_share_comparisons() {
    use reuse_dnn::nn::init::Rng64;
    use reuse_dnn::nn::LstmCell;
    use reuse_dnn::quant::{InputRange, LinearQuantizer};
    use reuse_dnn::reuse::lstm::{LstmGatePack, LstmReuseState};
    use reuse_dnn::tensor::ParallelConfig;

    let cell = LstmCell::random(6, 4, &mut Rng64::new(9));
    let q = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16).unwrap();
    let pack = LstmGatePack::new(&cell);
    let mut state = LstmReuseState::new_shared(&cell);
    let mut h = Vec::new();
    let mut step = |x: &[f32]| {
        state
            .step_into_packed(&ParallelConfig::serial(), &cell, &pack, &q, &q, x, &mut h)
            .unwrap()
    };
    let x = [0.2f32, -0.3, 0.1, 0.4, 0.0, -0.2];
    // Converge h, then flip exactly one input by several steps.
    for _ in 0..41 {
        step(&x);
    }
    let mut x2 = x;
    x2[3] += 4.5 * q.step();
    let stats = step(&x2);
    // The flipped x input changed (plus possibly an h value nudged across a
    // cluster boundary by the perturbation); every changed input is
    // corrected in all four gates at once — 4 × cell_dim MACs each, never
    // per-gate comparisons.
    assert!(stats.n_changed >= 1);
    assert_eq!(stats.macs_performed, stats.n_changed * 4 * 4);
}

/// Section VI: "the overheads are minimal compared to the savings" — the
/// reuse accelerator's worst case (zero similarity) costs within a few
/// percent of the baseline.
#[test]
fn claim_overheads_are_minimal() {
    use reuse_dnn::nn::init::Rng64;
    use reuse_dnn::reuse::ReuseConfig;

    let w = Workload::build(WorkloadKind::Kaldi, Scale::Tiny);
    let config = ReuseConfig::uniform(1 << 14)
        .disable_layer("fc1")
        .disable_layer("fc2")
        .record_trace(true);
    let mut engine = ReuseSession::from_network(w.network(), &config);
    let mut rng = Rng64::new(5);
    let dim = w.network().input_shape().volume();
    for _ in 0..12 {
        let frame: Vec<f32> = (0..dim).map(|_| rng.uniform(1.0)).collect();
        engine.execute(&frame).expect("frames run");
    }
    let traces = engine.take_traces();
    let sim = Simulator::new(AcceleratorConfig::paper());
    let input = SimInput {
        name: "worst",
        traces: &traces[2..],
        model_bytes: w.network().model_bytes(),
        executions_per_sequence: 500,
        activations_spill: false,
    };
    let base = sim.simulate_baseline(&input);
    let with_reuse = sim.simulate_reuse(&input);
    let penalty = with_reuse.energy_j() / base.energy_j();
    assert!(penalty < 1.06, "worst-case energy penalty {penalty}");
}

/// Section VI / Table III: the reuse scheme's extra on-chip storage is a
/// small fraction of the baseline accelerator's I/O buffer, and the area
/// overhead is below 1%.
#[test]
fn claim_storage_and_area_overheads_small() {
    let config = AcceleratorConfig::paper();
    for kind in WorkloadKind::ALL {
        let w = Workload::build(kind, Scale::Tiny);
        let rc = w.reuse_config();
        let report =
            reuse_dnn::accel::memory::storage_report(w.network(), |n| rc.layer_policy(n).enabled);
        // The extra state must fit the paper's reuse I/O buffer budget.
        assert!(
            report.io_reuse_bytes <= config.io_buffer_reuse_bytes,
            "{kind}: {} bytes",
            report.io_reuse_bytes
        );
    }
    let base = reuse_dnn::accel::area::baseline_area(&config).total();
    let with_reuse = reuse_dnn::accel::area::reuse_area(&config).total();
    assert!((with_reuse - base) / base < 0.01);
}
