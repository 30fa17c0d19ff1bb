//! Session isolation: many [`ReuseSession`]s over one shared
//! [`CompiledModel`] must behave exactly like each stream running alone on
//! a model of its own — no cross-stream contamination, bit-identical
//! outputs, equal metrics.

use std::sync::Arc;

use proptest::prelude::*;
use reuse_core::{CompiledModel, ReuseConfig, ReuseSession};
use reuse_nn::{init::Rng64, Activation, Network, NetworkBuilder};
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
        .flatten()
        .fully_connected(5, Activation::Identity)
        .build()
        .unwrap()
}

fn rnn() -> Network {
    NetworkBuilder::new("rnn", 10)
        .seed(7)
        .lstm(8)
        .bilstm(6)
        .fully_connected(3, Activation::Identity)
        .build()
        .unwrap()
}

fn assert_bits_eq(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
    }
}

/// Interleaves N sessions over one model, frame by frame, and checks each
/// stream against a session on its own model fed the same frames alone.
fn check_interleaved_frames(net: &Network, config: &ReuseConfig, streams: &[Vec<Vec<f32>>]) {
    let model = Arc::new(CompiledModel::new(net, config));
    let mut sessions: Vec<ReuseSession> = streams.iter().map(|_| model.new_session()).collect();
    let mut engines: Vec<ReuseSession> = streams
        .iter()
        .map(|_| ReuseSession::from_network(net, config))
        .collect();
    let n_frames = streams.iter().map(Vec::len).min().unwrap_or(0);
    // Round-robin: session s sees only stream s, but the executions of all
    // sessions are interleaved in time over the shared model.
    for t in 0..n_frames {
        for (s, stream) in streams.iter().enumerate() {
            let out = sessions[s].execute(&stream[t]).unwrap();
            let alone = engines[s].execute(&stream[t]).unwrap();
            assert_bits_eq(out.as_slice(), alone.as_slice());
        }
    }
    for (session, engine) in sessions.iter().zip(engines.iter()) {
        assert_eq!(session.metrics(), engine.metrics(), "per-stream metrics");
        assert_eq!(session.executions(), engine.executions());
        assert_eq!(
            session.reuse_storage_bytes(),
            engine.reuse_storage_bytes(),
            "per-session storage accounting"
        );
    }
}

#[test]
fn two_interleaved_mlp_sessions_match_standalone_engines() {
    let net = mlp();
    let streams = vec![walk(40, 12, 0.08, 11), walk(40, 12, 0.15, 99)];
    check_interleaved_frames(&net, &ReuseConfig::uniform(32), &streams);
}

#[test]
fn interleaved_cnn_sessions_share_packed_weights_bit_identically() {
    let net = cnn();
    let streams = vec![
        walk(25, 2 * 8 * 8, 0.05, 3),
        walk(25, 2 * 8 * 8, 0.2, 4),
        walk(25, 2 * 8 * 8, 0.1, 5),
    ];
    check_interleaved_frames(&net, &ReuseConfig::uniform(16), &streams);
}

#[test]
fn interleaved_recurrent_sessions_match_standalone_engines() {
    let net = rnn();
    let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(16)));
    let mut a = model.new_session();
    let mut b = model.new_session();
    let mut ea = ReuseSession::from_network(&net, &ReuseConfig::uniform(16));
    let mut eb = ReuseSession::from_network(&net, &ReuseConfig::uniform(16));
    let seqs_a: Vec<_> = (0..4).map(|i| walk(12, 10, 0.06, 20 + i)).collect();
    let seqs_b: Vec<_> = (0..4).map(|i| walk(12, 10, 0.18, 50 + i)).collect();
    for (sa, sb) in seqs_a.iter().zip(seqs_b.iter()) {
        let outs_a = a.execute_sequence(sa).unwrap();
        let outs_b = b.execute_sequence(sb).unwrap();
        let alone_a = ea.execute_sequence(sa).unwrap();
        let alone_b = eb.execute_sequence(sb).unwrap();
        for (x, y) in outs_a.iter().zip(alone_a.iter()) {
            assert_bits_eq(x.as_slice(), y.as_slice());
        }
        for (x, y) in outs_b.iter().zip(alone_b.iter()) {
            assert_bits_eq(x.as_slice(), y.as_slice());
        }
    }
    assert_eq!(a.metrics(), ea.metrics());
    assert_eq!(b.metrics(), eb.metrics());
}

/// `CompiledModel` is `Sync`: scoped threads each run their own session
/// against the same `Arc` and still match standalone sessions bit for bit.
#[test]
fn sessions_on_threads_share_one_model() {
    let net = mlp();
    let config = ReuseConfig::uniform(32);
    let model = Arc::new(CompiledModel::new(&net, &config));
    let streams: Vec<Vec<Vec<f32>>> = (0..4).map(|s| walk(30, 12, 0.1, 200 + s)).collect();
    let results: Vec<Vec<Vec<f32>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let model = Arc::clone(&model);
                scope.spawn(move || {
                    let mut session = model.new_session();
                    stream
                        .iter()
                        .map(|f| session.execute(f).unwrap().into_vec())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (stream, outs) in streams.iter().zip(results.iter()) {
        let mut engine = ReuseSession::from_network(&net, &config);
        for (frame, out) in stream.iter().zip(outs.iter()) {
            let alone = engine.execute(frame).unwrap();
            assert_bits_eq(out, alone.as_slice());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized streams: interleaving two sessions never changes any
    /// output bit or metric counter relative to isolated sessions.
    #[test]
    fn interleaved_sessions_isolated_under_random_streams(
        seed_a in 0u64..1000,
        seed_b in 1000u64..2000,
        step_a in 1u32..30,
        step_b in 1u32..30,
        clusters in 4usize..33,
    ) {
        let net = mlp();
        let config = ReuseConfig::uniform(clusters);
        let streams = [
            walk(20, 12, step_a as f32 / 100.0, seed_a),
            walk(20, 12, step_b as f32 / 100.0, seed_b),
        ];
        let model = Arc::new(CompiledModel::new(&net, &config));
        let mut sessions: Vec<ReuseSession> =
            streams.iter().map(|_| model.new_session()).collect();
        let mut engines: Vec<ReuseSession> = streams
            .iter()
            .map(|_| ReuseSession::from_network(&net, &config))
            .collect();
        for t in 0..20 {
            for (s, stream) in streams.iter().enumerate() {
                let out = sessions[s].execute(&stream[t]).unwrap();
                let alone = engines[s].execute(&stream[t]).unwrap();
                for (x, y) in out.as_slice().iter().zip(alone.as_slice().iter()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
        for (session, engine) in sessions.iter().zip(engines.iter()) {
            prop_assert_eq!(session.metrics(), engine.metrics());
        }
    }
}
