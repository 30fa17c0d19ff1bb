//! End-to-end ingestion tests: parse -> lower -> execute through the reuse
//! engine, checked against hand-built twin networks.

use reuse_core::{ReuseConfig, ReuseSession};
use reuse_nn::init::Rng64;
use reuse_nn::lstm::NUM_GATES;
use reuse_nn::{Activation, Layer, LayerKind, LstmCell, NetworkBuilder};
use reuse_onnx_ingest::fixture::{self, node, tensor_proto, value_info};
use reuse_onnx_ingest::wire::Writer;
use reuse_onnx_ingest::{ingest, parse_model, IngestError};
use reuse_tensor::{Shape, Tensor};

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

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("testdata")
        .join("gemm_relu.onnx")
}

/// Regenerates the checked-in fixture when REUSE_REGEN_FIXTURES=1 is set.
#[test]
fn regen_fixture_when_requested() {
    if std::env::var("REUSE_REGEN_FIXTURES").as_deref() == Ok("1") {
        std::fs::write(fixture_path(), fixture::gemm_relu_bytes()).expect("write fixture");
    }
}

#[test]
fn checked_in_fixture_matches_generator() {
    let on_disk = std::fs::read(fixture_path())
        .expect("testdata/gemm_relu.onnx is checked in (REUSE_REGEN_FIXTURES=1 regenerates it)");
    assert_eq!(
        on_disk,
        fixture::gemm_relu_bytes(),
        "fixture drifted from its generator"
    );
}

#[test]
fn fixture_parses_with_expected_structure() {
    let model = parse_model(&fixture::gemm_relu_bytes()).unwrap();
    assert_eq!(model.graph.name, "gemm_relu");
    assert_eq!(model.graph.nodes.len(), 2);
    assert_eq!(model.graph.nodes[0].op_type, "Gemm");
    assert_eq!(model.graph.nodes[1].op_type, "Relu");
    assert_eq!(model.graph.initializers.len(), 2);
    let w = model.graph.initializer("W").unwrap();
    assert_eq!(w.dims, [8, 4]);
    assert_eq!(w.floats().unwrap().len(), 32);
}

#[test]
fn gemm_relu_lowers_to_one_fused_fc() {
    let lowered = ingest(&fixture::gemm_relu_bytes()).unwrap();
    assert!(lowered.fallbacks.is_empty(), "{:?}", lowered.fallbacks);
    assert!(lowered.skipped.is_empty());
    let layers = lowered.network.layers();
    assert_eq!(layers.len(), 1);
    let Layer::FullyConnected(fc) = &layers[0].1 else {
        panic!("expected a fused FC, got {:?}", layers[0].1.kind());
    };
    assert_eq!(fc.activation(), Activation::Relu);
}

/// The ISSUE acceptance gate: the ingested Gemm+Relu model must execute
/// bit-identically to the hand-built twin carrying the same weights, both
/// running through the same CompiledModel/ReuseSession path.
#[test]
fn ingested_fixture_is_bit_identical_to_hand_built_network() {
    let lowered = ingest(&fixture::gemm_relu_bytes()).unwrap();
    let twin = fixture::gemm_relu_network();
    let config = ReuseConfig::uniform(64);
    let mut ingested = ReuseSession::from_network(&lowered.network, &config);
    let mut reference = ReuseSession::from_network(&twin, &config);
    for frame in walk(64, fixture::GEMM_IN, 0.05, 42) {
        let a = ingested.execute(&frame).unwrap();
        let b = reference.execute(&frame).unwrap();
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "ingested and hand-built diverged"
        );
    }
}

/// An unsupported-but-executable op (Softmax) must still compile and serve,
/// charging full MACs and recording zero reuse on the passthrough slot.
#[test]
fn softmax_graph_serves_through_recompute_always_fallback() {
    let lowered = ingest(&fixture::unsupported_softmax_bytes()).unwrap();
    assert_eq!(lowered.fallbacks.len(), 1);
    let (pass_name, op) = &lowered.fallbacks[0];
    assert_eq!(op, "Softmax");
    assert_eq!(
        lowered.network.layers().len(),
        3,
        "Gemm, Softmax passthrough, Gemm"
    );
    assert_eq!(lowered.network.layers()[1].0, *pass_name);
    assert_eq!(lowered.network.layers()[1].1.kind(), LayerKind::Passthrough);

    let mut engine = ReuseSession::from_network(&lowered.network, &ReuseConfig::uniform(64));
    for frame in walk(48, 8, 0.03, 7) {
        let out = engine.execute(&frame).unwrap();
        let sum: f32 = out.as_slice().iter().sum();
        assert!(sum.is_finite());
    }
    let metrics = engine.metrics();
    let pass = metrics.layer(pass_name).expect("passthrough has a slot");
    assert!(pass.macs_total > 0, "full cost must be charged");
    assert_eq!(pass.macs_performed, pass.macs_total, "recompute-always");
    assert_eq!(pass.computation_reuse(), 0.0);
    assert_eq!(pass.input_similarity(), 0.0);
    // The surrounding Gemm layers still participate in reuse.
    assert!(metrics.layer("fc1").unwrap().macs_total > 0);
}

/// MatMul followed by Add of an initializer fuses into a single FC with
/// bias, bit-identical to the hand-built layer.
#[test]
fn matmul_add_fuses_into_fc_with_bias() {
    let weights: Vec<f32> = (0..12).map(|i| (i as f32 - 6.0) / 32.0).collect();
    let bias: Vec<f32> = (0..4).map(|j| (j as f32) / 16.0).collect();
    let mut model = Writer::new();
    model.field_message(7, |graph| {
        graph.field_str(2, "matmul_add");
        graph.field_message(1, |n| node(n, "MatMul", "mm", &["x", "W"], &["h"]));
        // Bias on the left to exercise operand-order handling.
        graph.field_message(1, |n| node(n, "Add", "addb", &["B", "h"], &["y"]));
        graph.field_message(5, |t| tensor_proto(t, "W", &[3, 4], &weights));
        graph.field_message(5, |t| tensor_proto(t, "B", &[4], &bias));
        graph.field_message(11, |v| value_info(v, "x", &[1, 3]));
        graph.field_message(12, |v| value_info(v, "y", &[1, 4]));
    });
    let lowered = ingest(&model.into_bytes()).unwrap();
    assert_eq!(lowered.network.layers().len(), 1, "Add must fuse away");

    let twin = NetworkBuilder::with_input_shape("twin", Shape::d1(3))
        .push_layer(Layer::FullyConnected(
            reuse_nn::FullyConnected::new(
                Tensor::from_vec(Shape::d2(3, 4), weights).unwrap(),
                Tensor::from_vec(Shape::d1(4), bias).unwrap(),
                Activation::Identity,
            )
            .unwrap(),
        ))
        .build()
        .unwrap();
    for frame in walk(8, 3, 0.2, 3) {
        assert_eq!(
            lowered.network.forward_flat(&frame).unwrap().as_slice(),
            twin.forward_flat(&frame).unwrap().as_slice()
        );
    }
}

/// Gemm with transB=1 and alpha/beta scaling matches a hand-built FC with
/// pre-transposed, pre-scaled parameters.
#[test]
fn gemm_transb_alpha_beta_lowering() {
    // W stored [n_out, n_in] = [2, 3]; alpha 0.5, beta 2.0 — all powers of
    // two, so scaling is exact.
    let w_nk = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
    let c = [0.25f32, -0.5];
    let mut model = Writer::new();
    model.field_message(7, |graph| {
        graph.field_str(2, "gemm_t");
        graph.field_message(1, |n| {
            node(n, "Gemm", "g", &["x", "W", "C"], &["y"]);
            n.field_message(5, |a| {
                a.field_str(1, "transB");
                a.field_varint(3, 1);
            });
            n.field_message(5, |a| {
                a.field_str(1, "alpha");
                a.field_f32(2, 0.5);
            });
            n.field_message(5, |a| {
                a.field_str(1, "beta");
                a.field_f32(2, 2.0);
            });
        });
        graph.field_message(5, |t| tensor_proto(t, "W", &[2, 3], &w_nk));
        graph.field_message(5, |t| tensor_proto(t, "C", &[2], &c));
        graph.field_message(11, |v| value_info(v, "x", &[1, 3]));
        graph.field_message(12, |v| value_info(v, "y", &[1, 2]));
    });
    let lowered = ingest(&model.into_bytes()).unwrap();
    // Transposed to [n_in, n_out] and scaled by alpha.
    let w_kn: Vec<f32> = vec![0.5, 2.0, 1.0, 2.5, 1.5, 3.0];
    let bias: Vec<f32> = vec![0.5, -1.0];
    let twin = NetworkBuilder::with_input_shape("twin", Shape::d1(3))
        .push_layer(Layer::FullyConnected(
            reuse_nn::FullyConnected::new(
                Tensor::from_vec(Shape::d2(3, 2), w_kn).unwrap(),
                Tensor::from_vec(Shape::d1(2), bias).unwrap(),
                Activation::Identity,
            )
            .unwrap(),
        ))
        .build()
        .unwrap();
    for frame in walk(8, 3, 0.2, 9) {
        assert_eq!(
            lowered.network.forward_flat(&frame).unwrap().as_slice(),
            twin.forward_flat(&frame).unwrap().as_slice()
        );
    }
}

/// An ONNX LSTM (gates packed [i, o, f, c], hidden-major weights) must
/// execute exactly like a native cell built with per-gate tensors.
#[test]
fn lstm_gate_remap_matches_native_cell() {
    let n_in = 3;
    let hidden = 2;
    let mut rng = Rng64::new(0xC0FFEE);
    // Native per-gate parameters in the repo's [i, f, g, o] order.
    let quant = |r: &mut Rng64| (r.uniform(0.5) * 32.0).round() / 32.0;
    let gate_w_x: Vec<Vec<f32>> = (0..NUM_GATES)
        .map(|_| (0..n_in * hidden).map(|_| quant(&mut rng)).collect())
        .collect();
    let gate_w_h: Vec<Vec<f32>> = (0..NUM_GATES)
        .map(|_| (0..hidden * hidden).map(|_| quant(&mut rng)).collect())
        .collect();
    let gate_bias: Vec<Vec<f32>> = (0..NUM_GATES)
        .map(|_| (0..hidden).map(|_| quant(&mut rng)).collect())
        .collect();

    // Pack into ONNX layout: W [1, 4*hidden, n_in] with chunk order
    // [i, o, f, c] and hidden-major rows (the transpose of our tensors).
    let ours_for_chunk = [0usize, 3, 1, 2]; // chunk i<-gate0, o<-gate3, f<-gate1, c<-gate2
    let mut w = Vec::new();
    let mut r = Vec::new();
    let mut b = Vec::new();
    for &g in &ours_for_chunk {
        // gate_w_x[g] is [n_in, hidden] row-major; ONNX wants [hidden, n_in].
        for h in 0..hidden {
            for i in 0..n_in {
                w.push(gate_w_x[g][i * hidden + h]);
            }
        }
    }
    for &g in &ours_for_chunk {
        for h in 0..hidden {
            for h2 in 0..hidden {
                r.push(gate_w_h[g][h2 * hidden + h]);
            }
        }
    }
    // Split each gate bias into Wb and Rb halves that sum back: Wb = bias
    // minus 0.25, Rb = 0.25 (both exact in f32).
    for &g in &ours_for_chunk {
        b.extend(gate_bias[g].iter().take(hidden).map(|v| v - 0.25));
    }
    b.extend(std::iter::repeat_n(0.25, ours_for_chunk.len() * hidden));

    let mut model = Writer::new();
    model.field_message(7, |graph| {
        graph.field_str(2, "lstm");
        graph.field_message(1, |n| {
            node(n, "LSTM", "rnn", &["x", "W", "R", "B"], &["Y", "Y_h"]);
            n.field_message(5, |a| {
                a.field_str(1, "hidden_size");
                a.field_varint(3, hidden as u64);
            });
        });
        graph.field_message(5, |t| tensor_proto(t, "W", &[1, 4 * hidden, n_in], &w));
        graph.field_message(5, |t| tensor_proto(t, "R", &[1, 4 * hidden, hidden], &r));
        graph.field_message(5, |t| tensor_proto(t, "B", &[1, 8 * hidden], &b));
        graph.field_message(11, |v| value_info(v, "x", &[16, 1, n_in]));
        graph.field_message(12, |v| value_info(v, "Y_h", &[1, 1, hidden]));
    });
    let lowered = ingest(&model.into_bytes()).unwrap();
    assert_eq!(lowered.network.layers()[0].1.kind(), LayerKind::Recurrent);

    let as4 = |v: &[Vec<f32>], shape: Shape| -> [Tensor; NUM_GATES] {
        let tensors: Vec<Tensor> = v
            .iter()
            .map(|g| Tensor::from_vec(shape.clone(), g.clone()).unwrap())
            .collect();
        tensors.try_into().unwrap()
    };
    let cell = LstmCell::new(
        n_in,
        hidden,
        as4(&gate_w_x, Shape::d2(n_in, hidden)),
        as4(&gate_w_h, Shape::d2(hidden, hidden)),
        as4(&gate_bias, Shape::d1(hidden)),
    )
    .unwrap();
    let twin = NetworkBuilder::with_input_shape("twin", Shape::d1(n_in))
        .push_layer(Layer::Lstm(cell))
        .build()
        .unwrap();

    let frames = walk(16, n_in, 0.3, 21);
    let a = lowered.network.forward_sequence(&frames).unwrap();
    let b = twin.forward_sequence(&frames).unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.as_slice(), y.as_slice(), "gate remap diverged");
    }
}

#[test]
fn truncated_model_reports_offset() {
    let bytes = fixture::gemm_relu_bytes();
    let err = parse_model(&bytes[..bytes.len() - 5]).unwrap_err();
    assert!(
        matches!(err, IngestError::Malformed { .. }),
        "expected Malformed, got {err}"
    );
}

#[test]
fn unknown_op_is_a_hard_error() {
    let mut model = Writer::new();
    model.field_message(7, |graph| {
        graph.field_str(2, "attn");
        graph.field_message(1, |n| node(n, "Attention", "a", &["x"], &["y"]));
        graph.field_message(11, |v| value_info(v, "x", &[1, 8]));
        graph.field_message(12, |v| value_info(v, "y", &[1, 8]));
    });
    let err = ingest(&model.into_bytes()).unwrap_err();
    match err {
        IngestError::UnsupportedOp { op, .. } => assert_eq!(op, "Attention"),
        other => panic!("expected UnsupportedOp, got {other}"),
    }
}

#[test]
fn branching_graph_is_rejected() {
    // Second node consumes the graph input again instead of the chain.
    let mut model = Writer::new();
    model.field_message(7, |graph| {
        graph.field_str(2, "branch");
        graph.field_message(1, |n| node(n, "Relu", "r1", &["x"], &["h"]));
        graph.field_message(1, |n| node(n, "Relu", "r2", &["x"], &["y"]));
        graph.field_message(11, |v| value_info(v, "x", &[1, 8]));
        graph.field_message(12, |v| value_info(v, "y", &[1, 8]));
    });
    let err = ingest(&model.into_bytes()).unwrap_err();
    assert!(
        matches!(err, IngestError::NotSequential { .. }),
        "expected NotSequential, got {err}"
    );
}

#[test]
fn identity_and_dropout_are_skipped() {
    let mut model = Writer::new();
    model.field_message(7, |graph| {
        graph.field_str(2, "noops");
        graph.field_message(1, |n| node(n, "Identity", "id", &["x"], &["h0"]));
        graph.field_message(1, |n| node(n, "Dropout", "drop", &["h0"], &["h1"]));
        graph.field_message(1, |n| node(n, "Relu", "act", &["h1"], &["y"]));
        graph.field_message(11, |v| value_info(v, "x", &[1, 8]));
        graph.field_message(12, |v| value_info(v, "y", &[1, 8]));
    });
    let lowered = ingest(&model.into_bytes()).unwrap();
    assert_eq!(lowered.skipped, ["id", "drop"]);
    // The Relu has no producer to fuse into, so it serves as a passthrough.
    assert_eq!(lowered.fallbacks.len(), 1);
    assert_eq!(lowered.fallbacks[0].1, "Relu");
}
