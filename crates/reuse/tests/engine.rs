//! End-to-end tests of the reuse engine against from-scratch oracles.

use reuse_core::{ReuseConfig, ReuseSession, TraceKind};
use reuse_nn::{init::Rng64, Activation, Layer, LstmState, Network, NetworkBuilder};
use reuse_quant::{LinearQuantizer, RangeProfiler};
use reuse_tensor::Shape;

/// A smooth random walk of frames, mimicking consecutive audio windows.
fn walk(len: usize, dim: usize, step: f32, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Rng64::new(seed);
    let mut frame: Vec<f32> = (0..dim).map(|_| rng.uniform(0.5)).collect();
    (0..len)
        .map(|_| {
            for v in &mut frame {
                *v = (*v + rng.uniform(step)).clamp(-1.0, 1.0);
            }
            frame.clone()
        })
        .collect()
}

/// The largest magnitude in `v`, at least 1: the scale output errors are
/// measured against.
fn error_scale(v: &[f32]) -> f32 {
    v.iter().fold(1.0f32, |m, &x| m.max(x.abs()))
}

fn mlp() -> Network {
    NetworkBuilder::new("mlp", 12)
        .seed(5)
        .fully_connected(24, Activation::Relu)
        .fully_connected(16, Activation::Relu)
        .fully_connected(4, Activation::Identity)
        .build()
        .unwrap()
}

fn cnn() -> Network {
    NetworkBuilder::with_input_shape("cnn", Shape::d3(2, 8, 8))
        .seed(6)
        .conv2d(4, 3, 1, 1, Activation::Relu)
        .pool2d(2)
        .conv2d(8, 3, 1, 0, Activation::Relu)
        .flatten()
        .fully_connected(5, Activation::Identity)
        .build()
        .unwrap()
}

fn rnn() -> Network {
    NetworkBuilder::new("rnn", 10)
        .seed(7)
        .bilstm(6)
        .bilstm(6)
        .fully_connected(3, Activation::Identity)
        .build()
        .unwrap()
}

#[test]
fn mlp_outputs_close_to_fp32_reference() {
    let net = mlp();
    let mut engine = ReuseSession::from_network(&net, &ReuseConfig::uniform(32));
    let frames = walk(60, 12, 0.08, 1);
    for frame in &frames {
        let out = engine.execute(frame).unwrap();
        let reference = net.forward_flat(frame).unwrap();
        // Quantization-bounded error: inputs deviate by at most half a step
        // per layer; with 32 clusters the output error stays small relative
        // to typical magnitudes.
        let denom = error_scale(reference.as_slice());
        for (a, b) in out.as_slice().iter().zip(reference.as_slice().iter()) {
            assert!((a - b).abs() / denom < 0.35, "reuse {a} vs fp32 {b}");
        }
    }
    assert!(engine.is_calibrated());
    let m = engine.metrics();
    assert!(m.overall_input_similarity() > 0.0);
    assert!(m.overall_computation_reuse() > 0.0);
}

#[test]
fn mlp_matches_quantized_scratch_oracle() {
    // The tight invariant: the incremental path must equal a from-scratch
    // execution on the *same quantized inputs* (layer by layer).
    let net = mlp();
    let config = ReuseConfig::uniform(16);
    let mut engine = ReuseSession::from_network(&net, &config);
    let frames = walk(50, 12, 0.1, 2);
    // Calibrate, then for each execution rebuild the oracle manually with
    // the engine's own quantizers.
    for (t, frame) in frames.iter().enumerate() {
        let out = engine.execute(frame).unwrap();
        if t == 0 {
            continue; // calibration execution, fp32
        }
        // Oracle: apply each layer from scratch, quantizing its input with
        // the engine's quantizer for that layer.
        let mut cur = frame.clone();
        for (i, (name, _)) in net.layers().iter().enumerate() {
            let q = engine.quantizer_for(name).expect("quantizer built");
            let qin = q.quantized_values(&cur);
            net.apply_layer_into(i, &qin, &mut cur).unwrap();
        }
        for (a, b) in out.as_slice().iter().zip(cur.iter()) {
            assert!((a - b).abs() < 1e-3, "t={t}: incremental {a} vs oracle {b}");
        }
    }
}

#[test]
fn identical_frames_reach_full_similarity() {
    let net = mlp();
    let mut engine = ReuseSession::from_network(&net, &ReuseConfig::uniform(16));
    let frame = walk(1, 12, 0.0, 3).pop().unwrap();
    for _ in 0..10 {
        engine.execute(&frame).unwrap();
    }
    let m = engine.metrics();
    assert!(
        m.overall_input_similarity() > 0.999,
        "similarity {}",
        m.overall_input_similarity()
    );
    assert!(m.overall_computation_reuse() > 0.999);
}

#[test]
fn smoother_sequences_have_higher_reuse() {
    let net = mlp();
    let mut smooth = ReuseSession::from_network(&net, &ReuseConfig::uniform(16));
    let mut jumpy = ReuseSession::from_network(&net, &ReuseConfig::uniform(16));
    for frame in walk(60, 12, 0.02, 4) {
        smooth.execute(&frame).unwrap();
    }
    for frame in walk(60, 12, 0.6, 4) {
        jumpy.execute(&frame).unwrap();
    }
    let (s, j) = (
        smooth.metrics().overall_computation_reuse(),
        jumpy.metrics().overall_computation_reuse(),
    );
    assert!(s > j, "smooth {s} <= jumpy {j}");
}

#[test]
fn cnn_outputs_track_reference_and_record_trace() {
    let net = cnn();
    let config = ReuseConfig::uniform(32).record_trace(true);
    let mut engine = ReuseSession::from_network(&net, &config);
    let frames = walk(20, 2 * 8 * 8, 0.05, 5);
    for frame in &frames {
        let out = engine.execute(frame).unwrap();
        let reference = net
            .forward(&reuse_tensor::Tensor::from_vec(Shape::d3(2, 8, 8), frame.clone()).unwrap())
            .unwrap();
        let denom = error_scale(reference.as_slice());
        for (a, b) in out.as_slice().iter().zip(reference.as_slice().iter()) {
            assert!((a - b).abs() / denom < 0.4, "{a} vs {b}");
        }
    }
    let traces = engine.take_traces();
    assert_eq!(traces.len(), frames.len());
    // Trace 0: calibration (fp32 scratch); trace 1: quantized scratch;
    // later: incremental.
    assert!(traces[0]
        .layers
        .iter()
        .all(|l| l.mode == TraceKind::ScratchFp32));
    assert!(traces[1]
        .layers
        .iter()
        .all(|l| l.mode == TraceKind::ScratchQuantized));
    assert!(traces[5]
        .layers
        .iter()
        .all(|l| l.mode == TraceKind::Incremental));
    // Conservation: performed <= total, and totals equal the scratch cost.
    for tr in &traces {
        for l in &tr.layers {
            assert!(l.macs_performed <= l.macs_total);
            assert!(l.n_changed <= l.n_inputs);
        }
        assert_eq!(tr.macs_total(), traces[0].macs_total());
    }
    // The incremental executions must do less work than scratch.
    assert!(traces[5].macs_performed() < traces[5].macs_total());
}

#[test]
fn disabled_layers_run_fp32_and_are_not_metered() {
    let net = cnn();
    let config = ReuseConfig::uniform(32)
        .disable_layer("conv1")
        .record_trace(true);
    let mut engine = ReuseSession::from_network(&net, &config);
    for frame in walk(10, 2 * 8 * 8, 0.05, 6) {
        engine.execute(&frame).unwrap();
    }
    let m = engine.metrics();
    let conv1 = m.layer("conv1").unwrap();
    assert_eq!(conv1.reuse_executions, 0);
    assert!(m.layer("conv2").unwrap().reuse_executions > 0);
    let traces = engine.take_traces();
    for tr in traces.iter().skip(2) {
        let conv1_tr = tr.layers.iter().find(|l| l.name == "conv1").unwrap();
        assert_eq!(conv1_tr.mode, TraceKind::ScratchFp32);
        let conv2_tr = tr.layers.iter().find(|l| l.name == "conv2").unwrap();
        assert_eq!(conv2_tr.mode, TraceKind::Incremental);
    }
}

/// With reuse disabled everywhere the engine runs full precision through the
/// pooled pipeline, so `execute_sequence` must equal the network's own
/// forward bit-for-bit (the only configuration where exact equality is meaningful —
/// quantized runs approximate by design).
#[test]
fn full_precision_sequence_matches_the_network_forward_exactly() {
    let net = NetworkBuilder::new("fp", 12)
        .fully_connected(20, Activation::Relu)
        .fully_connected(6, Activation::Identity)
        .build()
        .unwrap();
    let config = ReuseConfig::uniform(16)
        .disable_layer("fc1")
        .disable_layer("fc2");
    let mut engine = ReuseSession::from_network(&net, &config);
    let frames = walk(6, 12, 0.25, 77);
    let outs = engine.execute_sequence(&frames).unwrap();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for (frame, out) in frames.iter().zip(outs.iter()) {
        let reference = net.forward_flat(frame).unwrap();
        assert_eq!(bits(reference.as_slice()), bits(out.as_slice()));
    }
}

#[test]
fn rnn_sequence_runs_and_reuses() {
    let net = rnn();
    let config = ReuseConfig::uniform(16)
        .disable_layer("fc1")
        .record_trace(true);
    let mut engine = ReuseSession::from_network(&net, &config);
    let seq1 = walk(30, 10, 0.05, 7);
    let out_cal = engine.execute_sequence(&seq1).unwrap();
    assert_eq!(out_cal.len(), 30);
    assert!(!engine.is_calibrated());
    let seq2 = walk(30, 10, 0.05, 8);
    let out = engine.execute_sequence(&seq2).unwrap();
    assert_eq!(out.len(), 30);
    assert!(engine.is_calibrated());
    let m = engine.metrics();
    let l1 = m.layer("bilstm1").unwrap();
    assert!(l1.reuse_executions > 0);
    assert!(
        l1.input_similarity() > 0.0,
        "similarity {}",
        l1.input_similarity()
    );
    // Output layer disabled: not metered.
    assert_eq!(m.layer("fc1").unwrap().reuse_executions, 0);
    // Hidden-state quantizers: calibration profiles each cell's h inputs
    // from the layer's sequence pass, and must build exactly the grid that
    // stepping the cells by hand (zero state, then the state before every
    // later step, per direction) gives.
    let mut seq = seq1.clone();
    for (name, layer) in net.layers() {
        let Layer::BiLstm(bilstm) = layer else { break };
        let mut profiler = RangeProfiler::new();
        for (cell, reversed) in [
            (bilstm.forward_cell(), false),
            (bilstm.backward_cell(), true),
        ] {
            let mut state = LstmState::zeros(bilstm.cell_dim());
            let mut xs = seq.clone();
            if reversed {
                xs.reverse();
            }
            for x in &xs {
                profiler.observe_slice(&state.h);
                state = cell.step(x, &state).unwrap();
            }
        }
        let range = profiler.range(config.margin()).unwrap();
        let by_hand = LinearQuantizer::new(range, 16).unwrap();
        assert_eq!(engine.hidden_quantizer_for(name), Some(&by_hand), "{name}");
        seq = layer.forward_sequence(&seq).unwrap();
    }
    // Outputs stay close to the fp32 reference.
    let reference = net.forward_sequence(&seq2).unwrap();
    for (o, r) in out.iter().zip(reference.iter()) {
        let denom = error_scale(r.as_slice());
        for (a, b) in o.as_slice().iter().zip(r.as_slice().iter()) {
            assert!((a - b).abs() / denom < 0.5, "{a} vs {b}");
        }
    }
    // Traces: one per timestep, covering both sequences.
    let traces = engine.take_traces();
    assert_eq!(traces.len(), 60);
}

/// One record of a layer step, three views: for every slot the lifetime
/// sums, the telemetry window and the traces must tell the same story —
/// on the frame walk (all slots stepped; a reuse-disabled conv under a
/// pool) and on the sequence walk (frame-wise and recurrent arms). A second
/// writer of any of the three would break an equality here.
#[test]
fn metrics_windows_and_traces_are_views_of_one_record() {
    let uni_rnn = NetworkBuilder::new("rnn3", 10)
        .seed(7)
        .bilstm(6)
        .lstm(5)
        .fully_connected(3, Activation::Identity)
        .build()
        .unwrap();
    let base = |clusters| {
        ReuseConfig::uniform(clusters)
            .calibration_executions(2)
            .record_trace(true)
            .telemetry(true)
    };
    // (network, config, frame width, executions per unit, units).
    let cases = [
        (mlp(), base(16), 12, 1, 80),
        (cnn(), base(32).disable_layer("conv1"), 2 * 8 * 8, 1, 80),
        (uni_rnn, base(16), 10, 30, 5),
    ];
    for (net, config, width, per_unit, units) in cases {
        let mut engine = ReuseSession::from_network(&net, &config);
        let frames = walk(per_unit * units, width, 0.06, 17);
        for unit in frames.chunks(per_unit) {
            engine.execute_sequence(unit).unwrap();
        }
        let executions = (per_unit * units) as u64;
        let calibration = (per_unit * 2) as u64;
        let snapshot = engine.telemetry_snapshot().unwrap();
        let metrics = engine.metrics().clone();
        let traces = engine.take_traces();
        assert_eq!(traces.len() as u64, executions, "{}", net.name());
        let slots: Vec<&str> = metrics.layers.iter().map(|m| m.name.as_str()).collect();
        for trace in &traces {
            let names: Vec<&str> = trace.layers.iter().map(|l| l.name.as_str()).collect();
            assert_eq!(names, slots, "{}: one entry per slot", net.name());
        }
        for (pos, (m, tel)) in metrics.layers.iter().zip(&snapshot.layers).enumerate() {
            let what = format!("{} {}", net.name(), m.name);
            let entries: Vec<_> = traces.iter().map(|t| &t.layers[pos]).collect();
            let of = |mode| entries.iter().filter(move |l| l.mode == mode);
            let steps: Vec<_> = of(TraceKind::Incremental).collect();
            let sum =
                |f: fn(&reuse_core::LayerTrace) -> u64| steps.iter().map(|l| f(l)).sum::<u64>();
            assert_eq!(steps.len() as u64, m.reuse_executions, "{what}");
            assert_eq!(sum(|l| l.n_inputs), m.inputs_total, "{what}");
            assert_eq!(
                sum(|l| l.n_inputs - l.n_changed),
                m.inputs_unchanged,
                "{what}"
            );
            assert_eq!(sum(|l| l.macs_total), m.macs_total, "{what}");
            assert_eq!(sum(|l| l.macs_performed), m.macs_performed, "{what}");
            let unstepped = if config.layer_enabled(&m.name) {
                calibration
            } else {
                executions
            };
            assert_eq!(
                of(TraceKind::ScratchFp32).count() as u64,
                unstepped,
                "{what}"
            );
            let recent = &steps[steps.len().saturating_sub(64)..];
            let share = |l: &reuse_core::LayerTrace| {
                f64::from((l.n_inputs - l.n_changed) as f32 / l.n_inputs as f32)
            };
            let mean = recent.iter().map(|l| share(l)).sum::<f64>() / recent.len().max(1) as f64;
            assert!(
                (tel.hit_rate_window - mean).abs() < 1e-9,
                "{what}: window {} vs its last {} steps {mean}",
                tel.hit_rate_window,
                recent.len()
            );
            assert!(
                unstepped == executions || steps.len() > 64,
                "{what}: wrapped"
            );
        }
    }
}

/// The sequence walk runs layer-major — every timestep of a layer before
/// the next layer — but a trace is one execution: `take_traces` regroups
/// the log by timestep, layers in network order within each.
#[test]
fn sequence_traces_are_grouped_by_timestep_in_layer_order() {
    let net = rnn();
    let mut engine = ReuseSession::from_network(&net, &ReuseConfig::uniform(16).record_trace(true));
    let (len, sequences) = (7, 3);
    for seq in walk(len * sequences, 10, 0.05, 9).chunks(len) {
        engine.execute_sequence(seq).unwrap();
    }
    let traces = engine.take_traces();
    assert_eq!(traces.len(), len * sequences);
    for (e, trace) in traces.iter().enumerate() {
        let names: Vec<&str> = trace.layers.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["bilstm1", "bilstm2", "fc1"], "execution {e}");
        // Every layer's record of a timestep is that timestep's: the first
        // sequence calibrates; in later ones a slot starts from scratch at
        // the timestep it visits first — the first, and for a bidirectional
        // layer's backward cell the last — and steps through the rest.
        for l in &trace.layers {
            let k = e % len;
            let expected = if e < len {
                TraceKind::ScratchFp32
            } else if k == 0 || (k == len - 1 && l.name.starts_with("bilstm")) {
                TraceKind::ScratchQuantized
            } else {
                TraceKind::Incremental
            };
            assert_eq!(l.mode, expected, "execution {e} {}", l.name);
        }
    }
}

#[test]
fn rnn_resets_state_between_sequences() {
    let net = rnn();
    let mut engine = ReuseSession::from_network(&net, &ReuseConfig::uniform(16).record_trace(true));
    let seq = walk(10, 10, 0.05, 9);
    engine.execute_sequence(&seq).unwrap(); // calibration
    engine.execute_sequence(&seq).unwrap();
    engine.take_traces();
    engine.execute_sequence(&seq).unwrap();
    let traces = engine.take_traces();
    // First timestep of the new sequence is from scratch again.
    assert!(traces[0]
        .layers
        .iter()
        .filter(|l| l.name.starts_with("bilstm"))
        .all(|l| l.mode == TraceKind::ScratchQuantized));
}

#[test]
fn feed_forward_sequence_api_maps_execute() {
    let net = mlp();
    let mut a = ReuseSession::from_network(&net, &ReuseConfig::uniform(16));
    let mut b = ReuseSession::from_network(&net, &ReuseConfig::uniform(16));
    let frames = walk(10, 12, 0.1, 10);
    let outs_seq = a.execute_sequence(&frames).unwrap();
    let outs_one: Vec<_> = frames.iter().map(|f| b.execute(f).unwrap()).collect();
    for (x, y) in outs_seq.iter().zip(outs_one.iter()) {
        assert_eq!(x.as_slice(), y.as_slice());
    }
}

#[test]
fn wrong_api_is_rejected() {
    let mut e = ReuseSession::from_network(&rnn(), &ReuseConfig::uniform(16));
    assert!(e.execute(&[0.0; 10]).is_err());
    let mut e2 = ReuseSession::from_network(&mlp(), &ReuseConfig::uniform(16));
    assert!(e2.execute_sequence(&[]).is_err());
    assert!(e2.execute(&[0.0; 5]).is_err());
}

#[test]
fn relative_difference_series_recorded() {
    let net = mlp();
    let config = ReuseConfig::uniform(16).record_relative_difference(true);
    let mut engine = ReuseSession::from_network(&net, &config);
    for frame in walk(20, 12, 0.05, 11) {
        engine.execute(&frame).unwrap();
    }
    let rd = engine.layer_relative_differences("fc2").unwrap();
    // 20 executions; the calibration one has no reuse pass, the first reuse
    // execution has no predecessor input recorded.
    assert!(rd.len() >= 17, "recorded {} points", rd.len());
    assert!(rd.iter().all(|&v| v >= 0.0 && v.is_finite()));
    // Small steps should give small relative differences.
    let mean: f32 = rd.iter().sum::<f32>() / rd.len() as f32;
    assert!(mean < 0.5, "mean relative difference {mean}");
}

#[test]
fn storage_accounting_matches_hand_computation() {
    let net = mlp();
    let engine = ReuseSession::from_network(&net, &ReuseConfig::uniform(16));
    // fc1: 12 idx + 24*4 out; fc2: 24 idx + 16*4; fc3: 16 idx + 4*4.
    let expect = (12 + 96) + (24 + 64) + (16 + 16);
    assert_eq!(engine.reuse_storage_bytes(), expect as u64);
}

#[test]
fn centroid_tables_counted_after_calibration() {
    let net = mlp();
    let mut engine = ReuseSession::from_network(&net, &ReuseConfig::uniform(16));
    assert_eq!(engine.centroid_table_bytes(), 0);
    for frame in walk(3, 12, 0.1, 12) {
        engine.execute(&frame).unwrap();
    }
    // 3 fc layers x 16 clusters x 4 bytes.
    assert_eq!(engine.centroid_table_bytes(), 3 * 64);
}

#[test]
fn constant_input_layer_is_auto_disabled() {
    // An input dimension that never varies gives a degenerate range for the
    // first layer only if ALL inputs are constant; build such a net.
    let net = mlp();
    let mut engine = ReuseSession::from_network(&net, &ReuseConfig::uniform(16));
    let frame = vec![0.5f32; 12];
    // All calibration inputs identical -> zero-width range -> auto-disable
    // of at least the first layer.
    for _ in 0..5 {
        engine.execute(&frame).unwrap();
    }
    assert!(engine.is_calibrated());
    // The first layer sees a zero-width range (constant frame) and must be
    // auto-disabled; deeper layers see per-neuron variation and stay on.
    assert!(engine.auto_disabled_layers().any(|n| n == "fc1"));
    // Execution still works: disabled layers run fp32, the rest quantized,
    // so outputs stay within quantization error of the reference and are
    // perfectly repeatable.
    let out1 = engine.execute(&frame).unwrap();
    let out2 = engine.execute(&frame).unwrap();
    assert_eq!(out1.as_slice(), out2.as_slice());
    let reference = net.forward_flat(&frame).unwrap();
    let denom = error_scale(reference.as_slice());
    for (a, b) in out1.as_slice().iter().zip(reference.as_slice().iter()) {
        assert!((a - b).abs() / denom < 0.35, "{a} vs {b}");
    }
}

#[test]
fn reset_state_forces_scratch_next_execution() {
    let net = mlp();
    let mut engine = ReuseSession::from_network(&net, &ReuseConfig::uniform(16).record_trace(true));
    let frames = walk(5, 12, 0.1, 13);
    for f in &frames {
        engine.execute(f).unwrap();
    }
    engine.take_traces();
    engine.reset_state();
    engine.execute(&frames[0]).unwrap();
    let traces = engine.take_traces();
    assert!(traces[0]
        .layers
        .iter()
        .all(|l| l.mode == TraceKind::ScratchQuantized));
}

#[test]
fn unidirectional_lstm_reuses_across_timesteps() {
    let net = NetworkBuilder::new("uni-rnn", 8)
        .seed(21)
        .lstm(5)
        .lstm(4)
        .fully_connected(3, Activation::Identity)
        .build()
        .unwrap();
    assert!(net.is_recurrent());
    let config = ReuseConfig::uniform(16)
        .disable_layer("fc1")
        .record_trace(true);
    let mut engine = ReuseSession::from_network(&net, &config);
    let seq1 = walk(25, 8, 0.05, 31);
    engine.execute_sequence(&seq1).unwrap(); // calibration
    let seq2 = walk(25, 8, 0.05, 32);
    let outs = engine.execute_sequence(&seq2).unwrap();
    assert_eq!(outs.len(), 25);
    let m = engine.metrics();
    for layer in ["lstm1", "lstm2"] {
        let lm = m.layer(layer).unwrap();
        assert!(lm.reuse_executions > 0, "{layer} not metered");
        assert!(lm.input_similarity() > 0.0, "{layer} similarity zero");
    }
    // Outputs track the fp32 reference.
    let reference = net.forward_sequence(&seq2).unwrap();
    for (o, r) in outs.iter().zip(reference.iter()) {
        let denom = error_scale(r.as_slice());
        for (a, b) in o.as_slice().iter().zip(r.as_slice().iter()) {
            assert!((a - b).abs() / denom < 0.5, "{a} vs {b}");
        }
    }
    // Traces recorded per timestep, first step from scratch.
    let traces = engine.take_traces();
    assert_eq!(traces.len(), 50);
    let first_reuse_seq = &traces[25];
    assert!(first_reuse_seq
        .layers
        .iter()
        .filter(|l| l.name.starts_with("lstm"))
        .all(|l| l.mode == TraceKind::ScratchQuantized));
}

#[test]
fn unidirectional_lstm_matches_quantized_oracle() {
    use reuse_core::lstm::quantized_scratch_sequence;
    let net = NetworkBuilder::new("uni", 6)
        .seed(22)
        .lstm(4)
        .build()
        .unwrap();
    let mut engine = ReuseSession::from_network(&net, &ReuseConfig::uniform(16));
    let cal = walk(20, 6, 0.08, 33);
    engine.execute_sequence(&cal).unwrap();
    let seq = walk(20, 6, 0.08, 34);
    let outs = engine.execute_sequence(&seq).unwrap();
    // Oracle: quantized scratch with the engine's own quantizers.
    let reuse_nn::Layer::Lstm(cell) = &net.layers()[0].1 else {
        panic!("lstm expected")
    };
    let qx = *engine.quantizer_for("lstm1").unwrap();
    // The h quantizer is internal; the public oracle check uses the same
    // quantizer for both when ranges coincide, so compare loosely.
    let oracle = quantized_scratch_sequence(cell, &qx, &qx, &seq).unwrap();
    for (o, exp) in outs.iter().zip(oracle.iter()) {
        for (a, b) in o.as_slice().iter().zip(exp.iter()) {
            assert!((a - b).abs() < 0.2, "{a} vs {b}");
        }
    }
}

#[test]
fn conv3d_network_through_engine_matches_reference() {
    let net = NetworkBuilder::with_input_shape("c3", Shape::d4(1, 4, 6, 6))
        .seed(41)
        .conv3d(2, 3, 1, 1, Activation::Relu)
        .pool3d(2, 2, false)
        .flatten()
        .fully_connected(3, Activation::Identity)
        .build()
        .unwrap();
    let mut engine = ReuseSession::from_network(&net, &ReuseConfig::uniform(32));
    let frames = walk(12, 4 * 36, 0.05, 40);
    for frame in &frames {
        let out = engine.execute(frame).unwrap();
        let reference = net.forward_flat(frame).unwrap();
        let denom = error_scale(reference.as_slice());
        for (a, b) in out.as_slice().iter().zip(reference.as_slice().iter()) {
            assert!((a - b).abs() / denom < 0.4, "{a} vs {b}");
        }
    }
    assert!(engine.metrics().layer("conv1").unwrap().reuse_executions > 0);
}

#[test]
fn quantizer_for_is_none_before_calibration() {
    let net = mlp();
    let mut engine = ReuseSession::from_network(&net, &ReuseConfig::uniform(16));
    assert!(engine.quantizer_for("fc1").is_none());
    assert!(!engine.is_calibrated());
    let frames = walk(3, 12, 0.1, 41);
    for f in &frames {
        engine.execute(f).unwrap();
    }
    assert!(engine.quantizer_for("fc1").is_some());
    assert!(engine.quantizer_for("nonexistent").is_none());
}

#[test]
fn executions_counter_tracks_timesteps_for_rnn() {
    let net = rnn();
    let mut engine = ReuseSession::from_network(&net, &ReuseConfig::uniform(16));
    let seq = walk(7, 10, 0.1, 42);
    engine.execute_sequence(&seq).unwrap();
    assert_eq!(engine.executions(), 7);
    engine.execute_sequence(&seq).unwrap();
    assert_eq!(engine.executions(), 14);
}

#[test]
fn engine_metrics_weighted_by_layer_size() {
    // A layer with 10x the inputs dominates overall similarity.
    let net = NetworkBuilder::new("weighted", 100)
        .seed(43)
        .fully_connected(200, Activation::Relu)
        .fully_connected(4, Activation::Identity)
        .build()
        .unwrap();
    let mut engine = ReuseSession::from_network(&net, &ReuseConfig::uniform(16));
    for frame in walk(20, 100, 0.05, 44) {
        engine.execute(&frame).unwrap();
    }
    let m = engine.metrics();
    let fc2 = m.layer("fc2").unwrap();
    let overall = m.overall_input_similarity();
    let fc1 = m.layer("fc1").unwrap();
    // fc2 sees 200 inputs vs fc1's 100: overall must sit between them,
    // closer to fc2.
    let lo = fc1.input_similarity().min(fc2.input_similarity());
    let hi = fc1.input_similarity().max(fc2.input_similarity());
    assert!(overall >= lo - 1e-9 && overall <= hi + 1e-9);
    assert!(
        (overall - fc2.input_similarity()).abs() <= (overall - fc1.input_similarity()).abs() + 0.05
    );
}

/// An auto-disabled conv layer runs at full precision through the same pool
/// as every other layer, so the frames after it never miss the pool (in a
/// debug build the pool's steady-miss assertion stays armed through all of
/// them). A constant calibration frame gives conv1 a degenerate range.
#[test]
fn an_auto_disabled_conv_layer_keeps_the_pool_steady() {
    let net = NetworkBuilder::with_input_shape("auto-disabled-cnn", Shape::d3(2, 8, 8))
        .conv2d(4, 3, 1, 1, Activation::Relu)
        .pool2d(2)
        .flatten()
        .fully_connected(6, Activation::Identity)
        .build()
        .unwrap();
    let mut session = ReuseSession::from_network(&net, &ReuseConfig::uniform(16));
    let mut out = Vec::new();
    session.execute_into(&[0.5; 128], &mut out).unwrap();
    let frames = walk(40, 128, 0.15, 5);
    let (warm, after) = frames.split_at(10);
    for frame in warm {
        session.execute_into(frame, &mut out).unwrap();
    }
    assert!(
        session.auto_disabled_layers().any(|l| l == "conv1"),
        "a constant calibration frame must auto-disable conv1"
    );
    let misses = session.pool_stats().misses;
    for frame in after {
        session.execute_into(frame, &mut out).unwrap();
    }
    assert_eq!(session.pool_stats().misses, misses);
}

/// Telemetry must agree exactly with the offline metrics: lifetime hit rate
/// per layer == `LayerMetrics::input_similarity` on the same run.
#[test]
fn telemetry_hit_rates_match_offline_metrics_exactly() {
    let net = mlp();
    let config = ReuseConfig::uniform(16).telemetry(true);
    let mut engine = ReuseSession::from_network(&net, &config);
    for frame in &walk(20, 12, 0.15, 5) {
        engine.execute(frame).unwrap();
    }
    let snap = engine.telemetry_snapshot().unwrap();
    assert_eq!(snap.layers.len(), engine.metrics().layers.len());
    for layer in &snap.layers {
        let m = engine.metrics().layer(&layer.name).unwrap();
        assert!(
            (layer.hit_rate - m.input_similarity()).abs() < f64::EPSILON,
            "{}: telemetry {} vs metrics {}",
            layer.name,
            layer.hit_rate,
            m.input_similarity()
        );
        assert_eq!(layer.reuse_executions, m.reuse_executions);
        assert_eq!(
            layer.macs_skipped_total,
            m.macs_total - m.macs_performed,
            "{}",
            layer.name
        );
    }
    // The JSON export round-trips the same hit rates.
    let json = snap.to_json();
    assert!(json.contains("\"network\": \"mlp\""));
    for layer in &snap.layers {
        assert!(json.contains(&format!("\"name\": \"{}\"", layer.name)));
    }
    // Pool provenance: steady-state frames hit the recycled buffers.
    assert!(snap.pool.hits > snap.pool.misses);
}

/// `reset_state` clears accumulated statistics (metrics, relative
/// differences, telemetry) but keeps quantizers, so the next execution is
/// quantized-from-scratch with fresh numbers.
#[test]
fn reset_state_clears_statistics_but_keeps_quantizers() {
    let net = mlp();
    let config = ReuseConfig::uniform(16)
        .telemetry(true)
        .record_relative_difference(true);
    let mut engine = ReuseSession::from_network(&net, &config);
    for frame in &walk(8, 12, 0.15, 13) {
        engine.execute(frame).unwrap();
    }
    assert!(engine.metrics().executions > 0);
    assert!(engine
        .layer_relative_differences("fc1")
        .is_some_and(|r| !r.is_empty()));

    engine.reset_state();

    assert!(engine.is_calibrated(), "quantizers survive reset_state");
    assert!(engine.quantizer_for("fc1").is_some());
    assert_eq!(engine.metrics().executions, 0);
    for m in &engine.metrics().layers {
        assert_eq!(m.reuse_executions, 0);
        assert_eq!(m.inputs_total, 0);
        assert!(m.relative_differences.is_empty());
    }
    let snap = engine.telemetry_snapshot().unwrap();
    assert_eq!(snap.frames, 0);
    for l in &snap.layers {
        assert_eq!(l.reuse_executions, 0);
        assert_eq!(l.hit_rate_window, 0.0, "{}: window emptied", l.name);
        assert_eq!(l.span_ns_window, 0.0, "{}: window emptied", l.name);
    }
}
