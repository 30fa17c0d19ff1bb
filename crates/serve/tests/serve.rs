//! Serving-runtime semantics: a single-shard [`ShardedServer`]
//! multiplexing N streams over one shared model must be **bit-identical**
//! to running each stream alone through its own
//! [`reuse_serve::ReuseSession`] — outputs and metrics, under arbitrary
//! submit/tick interleavings — while enforcing the queue, eviction, and
//! shedding policies.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use reuse_core::{CompiledModel, ReuseConfig};
use reuse_nn::{init::Rng64, Activation, Network, NetworkBuilder};
use reuse_serve::{
    ServeError, ServerConfig, ServerSnapshot, ShardedServer, ShardedSnapshot, StreamSnapshot,
    SubmitOptions, SubmitResult,
};
use reuse_tensor::Shape;

/// A smooth random walk of frames, mimicking consecutive input windows.
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
    NetworkBuilder::new("serve-mlp", 12)
        .seed(5)
        .fully_connected(24, Activation::Relu)
        .fully_connected(16, Activation::Relu)
        .fully_connected(4, Activation::Identity)
        .build()
        .unwrap()
}

fn rnn() -> Network {
    NetworkBuilder::new("serve-rnn", 10)
        .seed(7)
        .lstm(8)
        .fully_connected(3, Activation::Identity)
        .build()
        .unwrap()
}

/// A single-shard server: every test here is about one shard's semantics.
fn single_shard(
    model: Arc<CompiledModel>,
    config: ServerConfig,
) -> Result<ShardedServer, ServeError> {
    ShardedServer::new(model, config, 1)
}

/// Stream `id`'s row of a single-shard snapshot.
fn stream(snap: &ShardedSnapshot, id: u64) -> &StreamSnapshot {
    snap.shards[0].streams.iter().find(|s| s.id == id).unwrap()
}

fn assert_bits_eq(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
    }
}

/// Pushes every stream through the server (submitting `chunk` frames per
/// stream per round, ticking until drained) and returns the collected
/// outputs per stream.
fn run_server(
    server: &ShardedServer,
    streams: &[(u64, Vec<Vec<f32>>)],
    chunk: usize,
) -> Vec<Vec<Vec<f32>>> {
    let mut collected: Vec<Vec<Vec<f32>>> = streams.iter().map(|_| Vec::new()).collect();
    let n_frames = streams.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    let mut cursor = 0usize;
    while cursor < n_frames {
        for (s, (id, stream)) in streams.iter().enumerate() {
            for frame in stream.iter().skip(cursor).take(chunk) {
                // Bounded queues: tick until the frame fits.
                loop {
                    match server.submit(*id, frame).unwrap() {
                        SubmitResult::Accepted => break,
                        SubmitResult::QueueFull => {
                            server.tick_all().unwrap();
                            server.drain_outputs(*id, |out| collected[s].push(out.to_vec()));
                        }
                        SubmitResult::Shed | SubmitResult::DeadlineShed => {
                            panic!("healthy stream must not shed")
                        }
                    }
                }
            }
        }
        cursor += chunk;
        server.tick_all().unwrap();
        for (s, (id, _)) in streams.iter().enumerate() {
            server.drain_outputs(*id, |out| collected[s].push(out.to_vec()));
        }
    }
    while server.ready_units() > 0 {
        server.tick_all().unwrap();
        for (s, (id, _)) in streams.iter().enumerate() {
            server.drain_outputs(*id, |out| collected[s].push(out.to_vec()));
        }
    }
    collected
}

/// Runs the same frames through standalone sessions and checks the server's
/// outputs and per-stream metrics against them bit for bit. Returns the
/// streams whose session auto-disabled a layer.
fn check_against_standalone(
    model: &Arc<CompiledModel>,
    server: &ShardedServer,
    streams: &[(u64, Vec<Vec<f32>>)],
    collected: &[Vec<Vec<f32>>],
) -> Vec<u64> {
    let mut degraded = Vec::new();
    for ((id, stream), outs) in streams.iter().zip(collected.iter()) {
        assert_eq!(outs.len(), stream.len(), "stream {id}: all frames served");
        let mut alone = model.new_session();
        let mut reference = Vec::new();
        for (frame, out) in stream.iter().zip(outs.iter()) {
            alone.execute_into(frame, &mut reference).unwrap();
            assert_bits_eq(out, &reference);
        }
        let metrics = server
            .with_session(*id, |s| s.metrics().clone())
            .expect("stream still resident");
        assert_eq!(
            &metrics,
            alone.metrics(),
            "stream {id}: EngineMetrics must match a standalone run"
        );
        if alone.auto_disabled_layers().next().is_some() {
            degraded.push(*id);
        }
    }
    degraded
}

/// The four models the block proptest serves, with the frame length each
/// takes: a Kaldi-shaped MLP (two reuse-disabled FCs, then group-max and
/// FCs that reuse), its all-disabled twin (every row of every layer in one
/// rows-forward), a conv net whose reuse-disabled first conv layer runs its
/// rows through one call while the second conv layer steps them, and an MLP
/// whose first layer reuses, so a stream that calibrates on one constant
/// frame auto-disables it. Each calibrates on two frames.
fn block_models() -> [(Arc<CompiledModel>, usize); 4] {
    let kaldi = NetworkBuilder::new("serve-kaldi", 12)
        .seed(9)
        .fully_connected(12, Activation::Relu)
        .fully_connected(30, Activation::Relu)
        .group_max(3)
        .fully_connected(20, Activation::Relu)
        .group_max(2)
        .fully_connected(6, Activation::Identity)
        .build()
        .unwrap();
    let conv = NetworkBuilder::with_input_shape("serve-conv", Shape::d3(2, 6, 6))
        .seed(11)
        .conv2d(3, 3, 1, 1, Activation::Relu)
        .conv2d(4, 3, 1, 0, Activation::Relu)
        .pool2d(2)
        .flatten()
        .fully_connected(5, Activation::Identity)
        .build()
        .unwrap();
    let config = ReuseConfig::uniform(16).calibration_executions(2);
    let kaldi_config = config.clone().disable_layer("fc1").disable_layer("fc2");
    let twin = kaldi_config
        .clone()
        .disable_layer("fc3")
        .disable_layer("fc4");
    let conv_config = config.clone().disable_layer("conv1");
    let model = |net, config| Arc::new(CompiledModel::new(net, config));
    [
        (model(&kaldi, &kaldi_config), 12),
        (model(&kaldi, &twin), 12),
        (model(&conv, &conv_config), 72),
        (model(&mlp(), &config), 12),
    ]
}

#[test]
fn server_outputs_match_standalone_sessions() {
    let net = mlp();
    let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(32)));
    let streams = vec![
        (7u64, walk(40, 12, 0.08, 11)),
        (3u64, walk(40, 12, 0.15, 99)),
        (1000u64, walk(40, 12, 0.05, 42)),
    ];
    let server = single_shard(
        Arc::clone(&model),
        ServerConfig::default().queue_capacity(4).batch_max(2),
    )
    .unwrap();
    let collected = run_server(&server, &streams, 3);
    let degraded = check_against_standalone(&model, &server, &streams, &collected);
    assert!(degraded.is_empty());
    assert_eq!(server.frames_completed(), 120);
    assert_eq!(server.merged_latency().count(), 120);
    let snap = server.snapshot();
    assert_eq!(snap.frames_completed(), 120);
    assert_eq!(snap.active_streams(), 3);
    assert!(snap.shards[0].streams.iter().all(|s| s.frames_done == 40));
}

#[test]
fn queue_full_reports_backpressure() {
    let net = mlp();
    let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(16)));
    let server = single_shard(model, ServerConfig::default().queue_capacity(2)).unwrap();
    let frame = vec![0.25; 12];
    assert_eq!(server.submit(0, &frame).unwrap(), SubmitResult::Accepted);
    assert_eq!(server.submit(0, &frame).unwrap(), SubmitResult::Accepted);
    assert_eq!(server.submit(0, &frame).unwrap(), SubmitResult::QueueFull);
    let snap = server.snapshot();
    assert_eq!(snap.rejected_queue_full(), 1);
    assert_eq!(stream(&snap, 0).queue_len, 2);
    // A tick makes room again.
    server.tick_all().unwrap();
    assert_eq!(server.submit(0, &frame).unwrap(), SubmitResult::Accepted);
    let snap = server.snapshot();
    assert_eq!(snap.rejected_queue_full(), 1);
    assert_eq!(snap.frames_submitted(), 3);
}

#[test]
fn lru_eviction_caps_the_pool_and_recreated_streams_start_fresh() {
    let net = mlp();
    let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(32)));
    let server = single_shard(Arc::clone(&model), ServerConfig::default().max_sessions(2)).unwrap();
    let warm = walk(6, 12, 0.1, 8);

    // Warm streams 0 then 1 (so 0 is least recently used).
    for frame in &warm {
        server.submit(0, frame).unwrap();
        server.tick_all().unwrap();
    }
    for frame in &warm {
        server.submit(1, frame).unwrap();
        server.tick_all().unwrap();
    }
    assert_eq!(server.snapshot().active_streams(), 2);

    // Stream 2 arrives: pool is at cap, stream 0 (LRU) is evicted.
    server.submit(2, &warm[0]).unwrap();
    assert_eq!(server.snapshot().active_streams(), 2);
    assert!(!server.contains(0));
    assert!(server.contains(1));
    assert!(server.contains(2));
    assert_eq!(server.snapshot().shards[0].evictions, 1);

    // Stream 0 comes back: evicts stream 1 (now LRU) and gets a *fresh*
    // session — its outputs must match a brand-new standalone session, not
    // the warmed-up state it had before eviction.
    let fresh_frames = walk(8, 12, 0.2, 77);
    let mut outs = Vec::new();
    for frame in &fresh_frames {
        server.submit(0, frame).unwrap();
        server.tick_all().unwrap();
        server.drain_outputs(0, |out| outs.push(out.to_vec()));
    }
    assert!(!server.contains(1));
    let mut alone = model.new_session();
    let mut reference = Vec::new();
    for (frame, out) in fresh_frames.iter().zip(outs.iter()) {
        alone.execute_into(frame, &mut reference).unwrap();
        assert_bits_eq(out, &reference);
    }
    assert_eq!(
        server.with_session(0, |s| s.metrics().clone()).as_ref(),
        Some(alone.metrics()),
        "re-created stream must carry no state from before its eviction"
    );
    let snap = server.snapshot();
    assert_eq!(snap.shards[0].evictions, 2);
}

#[test]
fn degraded_stream_sheds_past_the_watermark() {
    // Calibrating on one constant frame leaves fc1 a degenerate range, so
    // the session auto-disables it; the server then sheds that stream's
    // submits once its queue reaches the watermark of 16 frames (the
    // default queue holds 32).
    let net = mlp();
    let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(16)));
    let server = single_shard(model, ServerConfig::default()).unwrap();

    let calibration = vec![0.25; 12];
    for frame in std::iter::once(&calibration).chain(&walk(6, 12, 0.15, 3)) {
        server.submit(9, frame).unwrap();
        server.tick_all().unwrap();
        server.drain_outputs(9, |_| {});
    }
    let disabled = server
        .with_session(9, |s| {
            s.auto_disabled_layers().collect::<Vec<_>>().join(",")
        })
        .unwrap();
    assert_eq!(disabled, "fc1");

    // Queue below the watermark: still accepted.
    let frame = vec![0.5; 12];
    for _ in 0..16 {
        assert_eq!(server.submit(9, &frame).unwrap(), SubmitResult::Accepted);
    }
    // At the watermark: shed.
    assert_eq!(server.submit(9, &frame).unwrap(), SubmitResult::Shed);
    let snap = server.snapshot();
    assert_eq!(snap.shed(), 1);
    assert_eq!(snap.shards[0].shed, 1);
    assert!(snap.shards[0].streams.iter().any(|s| s.degraded));
}

#[test]
fn recurrent_sequences_match_a_standalone_session() {
    let net = rnn();
    let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(16)));
    let seq_len = 4;
    let server = single_shard(
        Arc::clone(&model),
        ServerConfig::default()
            .sequence_len(seq_len)
            .queue_capacity(2 * seq_len),
    )
    .unwrap();

    let frames = walk(3 * seq_len, 10, 0.1, 21);
    let mut outs = Vec::new();
    for (t, frame) in frames.iter().enumerate() {
        assert_eq!(server.submit(4, frame).unwrap(), SubmitResult::Accepted);
        if t % seq_len < seq_len - 1 {
            // Partial sequences never execute.
            let before = server.frames_completed();
            server.tick_all().unwrap();
            assert_eq!(server.frames_completed(), before);
        } else {
            server.tick_all().unwrap();
            server.drain_outputs(4, |out| outs.push(out.to_vec()));
        }
    }
    assert_eq!(outs.len(), frames.len(), "one output per timestep");

    let mut alone = model.new_session();
    let mut reference = Vec::new();
    for seq in frames.chunks(seq_len) {
        reference.extend(alone.execute_sequence(seq).unwrap());
    }
    for (out, r) in outs.iter().zip(reference.iter()) {
        assert_bits_eq(out, r.as_slice());
    }
    assert_eq!(
        server.with_session(4, |s| s.metrics().clone()).as_ref(),
        Some(alone.metrics())
    );
}

/// A recurrent stream's queued frames never expire: dropping one timestep
/// would shift every later sequence boundary. Timesteps submitted with a
/// deadline already past still all come back, each matching a standalone
/// session's.
#[test]
fn recurrent_frames_never_expire() {
    let model = Arc::new(CompiledModel::new(&rnn(), &ReuseConfig::uniform(16)));
    let seq_len = 4;
    let server = single_shard(
        Arc::clone(&model),
        ServerConfig::default()
            .sequence_len(seq_len)
            .queue_capacity(3 * seq_len)
            .batch_max(1),
    )
    .unwrap();
    let frames = walk(3 * seq_len, 10, 0.1, 5);
    let past = SubmitOptions {
        deadline: Instant::now().checked_sub(Duration::from_millis(1)),
        ..SubmitOptions::default()
    };
    for frame in &frames {
        let accepted = server.submit_with(4, frame, past).unwrap();
        assert_eq!(accepted, SubmitResult::Accepted);
    }
    let mut outs = Vec::new();
    while server.ready_units() > 0 {
        server.tick_all().unwrap();
        server.drain_outputs(4, |out| outs.push(out.to_vec()));
    }
    assert_eq!(server.snapshot().expired(), 0);
    assert_eq!(outs.len(), frames.len(), "one output per timestep");
    let mut alone = model.new_session();
    for (sequence, outs) in frames.chunks(seq_len).zip(outs.chunks(seq_len)) {
        for (want, got) in alone.execute_sequence(sequence).unwrap().iter().zip(outs) {
            assert_bits_eq(got, want.as_slice());
        }
    }
}

#[test]
fn config_mismatches_are_rejected() {
    let ff = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(8)));
    let rec = Arc::new(CompiledModel::new(&rnn(), &ReuseConfig::uniform(8)));

    // Recurrent model without a sequence length.
    let err = single_shard(Arc::clone(&rec), ServerConfig::default()).unwrap_err();
    assert!(matches!(err, ServeError::Config { .. }), "{err}");

    // Feed-forward model with a sequence length.
    let err = single_shard(Arc::clone(&ff), ServerConfig::default().sequence_len(4)).unwrap_err();
    assert!(matches!(err, ServeError::Config { .. }), "{err}");

    // Sequence longer than the queue can ever hold.
    let err = single_shard(
        rec,
        ServerConfig::default().sequence_len(8).queue_capacity(4),
    )
    .unwrap_err();
    assert!(matches!(err, ServeError::Config { .. }), "{err}");

    // Valid feed-forward config constructs.
    assert!(single_shard(ff, ServerConfig::default()).is_ok());
}

#[test]
fn wrong_frame_length_is_an_error() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(8)));
    let server = single_shard(model, ServerConfig::default()).unwrap();
    let err = server.submit(0, &[1.0; 5]).unwrap_err();
    assert!(matches!(err, ServeError::Reuse(_)), "{err}");
    // The failed submit created no stream state.
    assert_eq!(server.snapshot().frames_submitted(), 0);
}

#[test]
fn undrained_outputs_drop_oldest_not_newest() {
    let net = mlp();
    let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(16)));
    let server = single_shard(
        Arc::clone(&model),
        ServerConfig::default().queue_capacity(2).batch_max(4),
    )
    .unwrap();
    let frames = walk(4, 12, 0.1, 55);

    // Two submit+tick rounds without draining: the bounded output queue
    // (capacity 2) keeps only the newest two results.
    for pair in frames.chunks(2) {
        for frame in pair {
            assert_eq!(server.submit(0, frame).unwrap(), SubmitResult::Accepted);
        }
        server.tick_all().unwrap();
    }
    let mut outs = Vec::new();
    let drained = server.drain_outputs(0, |out| outs.push(out.to_vec()));
    assert_eq!(drained, 2);
    assert_eq!(server.snapshot().shards[0].outputs_dropped, 2);

    // The survivors are the outputs of frames 2 and 3.
    let mut alone = model.new_session();
    let mut reference = Vec::new();
    let mut expected = Vec::new();
    for frame in &frames {
        alone.execute_into(frame, &mut reference).unwrap();
        expected.push(reference.clone());
    }
    assert_bits_eq(&outs[0], &expected[2]);
    assert_bits_eq(&outs[1], &expected[3]);
}

/// Regression (lifetime counter): `outputs_dropped` counts every output a
/// stream lost to an undrained queue, including streams since evicted, so
/// evicting a stream must not make it fall.
#[test]
fn evicting_a_stream_keeps_its_dropped_outputs_counted() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(16)));
    let server = single_shard(
        model,
        ServerConfig::default().queue_capacity(1).max_sessions(1),
    )
    .unwrap();
    let frames = walk(3, 12, 0.1, 57);
    // Stream 0's one-slot output queue overflows twice without a drain.
    for frame in &frames {
        assert_eq!(server.submit(0, frame).unwrap(), SubmitResult::Accepted);
        server.tick_all().unwrap();
    }
    let before = server.snapshot().shards[0].outputs_dropped;
    assert_eq!(before, 2);
    // Stream 1 takes the only session: stream 0 is evicted.
    assert_eq!(
        server.submit(1, &frames[0]).unwrap(),
        SubmitResult::Accepted
    );
    assert!(!server.contains(0));
    let snap = server.snapshot();
    assert_eq!(snap.shards[0].evictions, 1);
    assert_eq!(snap.shards[0].outputs_dropped, before);
}

/// A closed stream leaves the pool the way an evicted one does — queued
/// frames counted in `evicted_frames`, lifetime counters kept — except that
/// it is not counted as an eviction; its undrained outputs are gone and the
/// id's next submit runs on a fresh session.
#[test]
fn closing_a_stream_retires_it_and_its_next_submit_starts_fresh() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(16)));
    let server = single_shard(Arc::clone(&model), ServerConfig::default()).unwrap();
    let frames = walk(4, 12, 0.1, 58);
    for frame in &frames[..3] {
        assert_eq!(server.submit(0, frame).unwrap(), SubmitResult::Accepted);
    }
    server.tick_all().unwrap();
    assert_eq!(
        server.submit(0, &frames[3]).unwrap(),
        SubmitResult::Accepted
    );
    assert!(server.close_stream(0));
    assert!(!server.close_stream(0), "already closed");
    assert!(!server.contains(0));
    let snap = &server.snapshot().shards[0];
    assert_eq!((snap.frames_submitted, snap.frames_completed), (4, 3));
    assert_eq!((snap.evictions, snap.evicted_frames), (0, 1));
    assert_eq!(server.pending(), 0);

    assert_eq!(
        server.submit(0, &frames[3]).unwrap(),
        SubmitResult::Accepted
    );
    server.tick_all().unwrap();
    let mut outs = Vec::new();
    assert_eq!(server.drain_outputs(0, |out| outs.push(out.to_vec())), 1);
    let expect = model.new_session().execute(&frames[3]).unwrap();
    assert_bits_eq(&outs[0], expect.as_slice());
}

/// Regression (sticky errors): a stream that hit an execution error must
/// not silently resume on the next tick. The error is reported exactly
/// once; the stream then stays parked — no frames complete, no ready
/// units — until eviction.
#[test]
fn failed_stream_stays_failed_and_reports_once() {
    // Stream 5 fails between two streams that keep going: every tick is a
    // block of all three, and the failed stream's rows must neither run nor
    // disturb its neighbours'.
    let net = mlp();
    let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(16)));
    let server = single_shard(Arc::clone(&model), ServerConfig::default()).unwrap();
    let frames = walk(6, 12, 0.1, 13);
    let neighbours = [(4u64, walk(6, 12, 0.08, 14)), (6u64, walk(6, 12, 0.12, 15))];
    let mut outs = [Vec::new(), Vec::new()];
    let round = |server: &ShardedServer, t: std::ops::Range<usize>| {
        for (id, feed) in &neighbours {
            for frame in &feed[t.clone()] {
                assert_eq!(server.submit(*id, frame).unwrap(), SubmitResult::Accepted);
            }
        }
    };

    round(&server, 0..3);
    for frame in &frames[..3] {
        assert_eq!(server.submit(5, frame).unwrap(), SubmitResult::Accepted);
    }
    server.tick_all().unwrap();
    server.drain_outputs(5, |_| {});
    let done_before = server.frames_completed();

    let injected = reuse_core::ReuseError::Nn(reuse_nn::NnError::InputShape {
        expected: 12,
        actual: 11,
    });
    assert!(server.inject_stream_error(5, injected));
    assert!(server.stream_failed(5));
    for frame in &frames[3..] {
        assert_eq!(server.submit(5, frame).unwrap(), SubmitResult::Accepted);
    }
    assert_eq!(
        server.ready_units(),
        0,
        "a failed stream's queued frames are not ready work"
    );
    round(&server, 3..5);

    // First tick after the failure surfaces the error...
    let err = server.tick_all().unwrap_err();
    assert!(matches!(err, ServeError::Reuse(_)), "{err}");
    assert_eq!(server.frames_completed(), done_before + 4);
    assert_eq!(
        stream(&server.snapshot(), 5).queue_len,
        3,
        "the failed stream's frames stay parked"
    );

    // ...and later ticks neither re-report it nor resume the stream.
    for t in 5..7 {
        round(&server, t..(t + 1).min(6));
        let stats = server.tick_all().unwrap();
        assert_eq!(stats.frames, if t < 6 { 2 } else { 0 });
        assert_eq!(stats.streams, if t < 6 { 2 } else { 0 });
    }
    assert_eq!(server.frames_completed(), done_before + 6);
    assert!(server.stream_failed(5));
    assert!(stream(&server.snapshot(), 5).failed);

    // The neighbours never noticed.
    for ((id, feed), outs) in neighbours.iter().zip(&mut outs) {
        server.drain_outputs(*id, |out| outs.push(out.to_vec()));
        let mut alone = model.new_session();
        let mut reference = Vec::new();
        assert_eq!(outs.len(), feed.len());
        for (frame, out) in feed.iter().zip(outs.iter()) {
            alone.execute_into(frame, &mut reference).unwrap();
            assert_bits_eq(out, &reference);
        }
    }
}

/// Regression (LRU clock): rejected submits must not refresh a stream's
/// LRU position. A spammer whose queue is full would otherwise always
/// look recently used and push healthy streams out of the pool.
#[test]
fn rejected_submits_do_not_refresh_the_lru_clock() {
    let net = mlp();
    let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(16)));
    let server = single_shard(
        model,
        ServerConfig::default().max_sessions(2).queue_capacity(2),
    )
    .unwrap();
    let frame = vec![0.25; 12];

    // Stream 0 fills its queue, then stream 1 submits once (making 0 the
    // least recently *accepted*).
    assert_eq!(server.submit(0, &frame).unwrap(), SubmitResult::Accepted);
    assert_eq!(server.submit(0, &frame).unwrap(), SubmitResult::Accepted);
    assert_eq!(server.submit(1, &frame).unwrap(), SubmitResult::Accepted);

    // Stream 0 spams its full queue: every submit is rejected.
    for _ in 0..5 {
        assert_eq!(server.submit(0, &frame).unwrap(), SubmitResult::QueueFull);
    }
    assert_eq!(server.snapshot().rejected_queue_full(), 5);

    // Stream 2 arrives at the pool cap: the spammer (stream 0), not the
    // healthy stream 1, must be the LRU eviction victim.
    assert_eq!(server.submit(2, &frame).unwrap(), SubmitResult::Accepted);
    assert!(
        !server.contains(0),
        "queue-full spammer must be the eviction victim"
    );
    assert!(server.contains(1), "healthy stream must survive");
    assert!(server.contains(2));
    assert_eq!(server.snapshot().shards[0].evictions, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: every accepted frame is, at every moment, in exactly one
    /// place — completed, expired, discarded with its evicted or closed
    /// stream, or still queued — whatever mix of plain, past-deadline and
    /// evicting submits, closes, ticks and drains came before; and no
    /// lifetime counter ever falls, however streams leave the pool.
    #[test]
    fn accepted_frames_are_conserved_under_random_interleavings(
        ops in proptest::collection::vec((0u8..7, 0u64..5), 10..80),
        queue_capacity in 1usize..4,
        batch_max in 1usize..3,
    ) {
        let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(16)));
        // Three sessions for five regular stream ids: plain submits evict too.
        let config = ServerConfig::default()
            .max_sessions(3)
            .queue_capacity(queue_capacity)
            .batch_max(batch_max);
        let server = single_shard(model, config).unwrap();
        let frame = vec![0.25; 12];
        let mut fresh_id = 100u64;
        let lifetime = |s: &ServerSnapshot| {
            [
                s.frames_submitted,
                s.frames_completed,
                s.rejected_queue_full,
                s.shed,
                s.deadline_shed,
                s.expired,
                s.outputs_dropped,
                s.evictions,
                s.evicted_frames,
            ]
        };
        let mut last = [0u64; 9];
        for (op, id) in ops {
            let past = Instant::now().checked_sub(Duration::from_millis(1));
            let submit = match op {
                0 => Some((id, SubmitOptions::default())),
                1 => {
                    let held = server.contains(id);
                    prop_assert_eq!(server.close_stream(id), held);
                    prop_assert!(!server.contains(id));
                    None
                }
                2 => Some((id, SubmitOptions { deadline: past, ..SubmitOptions::default() })),
                3 => {
                    // A stream nobody has seen: evicts once the pool is full.
                    fresh_id += 1;
                    Some((fresh_id, SubmitOptions::default()))
                }
                4 => {
                    server.drain_outputs(id, |_| {});
                    server.drain_expired(id, |_| {});
                    None
                }
                _ => {
                    server.tick_all().unwrap();
                    None
                }
            };
            if let Some((id, opts)) = submit {
                server.submit_with(id, &frame, opts).unwrap();
            }
            let snap = &server.snapshot().shards[0];
            prop_assert_eq!(
                snap.frames_submitted,
                snap.frames_completed
                    + snap.expired
                    + snap.evicted_frames
                    + server.pending() as u64
            );
            let queued: usize = snap.streams.iter().map(|s| s.queue_len).sum();
            prop_assert_eq!(server.pending(), queued);
            let now = lifetime(snap);
            for (before, after) in last.iter().zip(&now) {
                prop_assert!(before <= after, "a lifetime counter fell: {:?} -> {:?}", last, now);
            }
            last = now;
        }
        // The run must have exercised what it claims to cover.
        prop_assert!(server.snapshot().frames_submitted() > 0);
    }

    /// Property: however a tick's block is cut — the calibration →
    /// reuse transition landing mid-tick, one stream's auto-disabled layer
    /// running at full precision beside the others' stepping rows — and
    /// however many rows each of five streams puts into it, every stream's
    /// outputs and `EngineMetrics` are bit-identical to a standalone
    /// session's, on all four [`block_models`].
    #[test]
    fn block_ticks_match_standalone_sessions(
        seed in 0u64..1000,
        chunk in 1usize..5,
        batch_max in 1usize..7,
        queue_capacity in 2usize..8,
    ) {
        for (model, dim) in block_models() {
            let mut streams: Vec<(u64, Vec<Vec<f32>>)> = (0..5u64)
                .map(|s| (s * 7 + 1, walk(14, dim, 0.03 + 0.04 * s as f32, seed * 5 + s)))
                .collect();
            // The first stream calibrates on one constant frame, which
            // auto-disables the first layer where that layer reuses.
            streams[0].1[..model.config().calibration()].fill(vec![0.25; dim]);
            let first = &model.network().layers()[0].0;
            let want = if model.config().layer_enabled(first) {
                vec![streams[0].0]
            } else {
                Vec::new()
            };
            let server = single_shard(
                Arc::clone(&model),
                ServerConfig::default()
                    .queue_capacity(queue_capacity)
                    .batch_max(batch_max),
            )
            .unwrap();
            let collected = run_server(&server, &streams, chunk);
            let degraded = check_against_standalone(&model, &server, &streams, &collected);
            prop_assert_eq!(degraded, want);
        }
    }

    /// Property: a recurrent tick is one block walk over every stream's
    /// next sequence per wave, and however the ticks fall — several
    /// sequences of one stream in one tick, the calibration → reuse switch
    /// landing mid-tick, sequence boundaries mid-chunk, streams of different
    /// lengths — every stream's outputs and `EngineMetrics` are bit-identical
    /// to standalone `execute_sequence` calls on a BiLSTM → LSTM →
    /// reuse-disabled FC model.
    #[test]
    fn recurrent_block_ticks_match_standalone_sessions(
        seed in 0u64..1000,
        sequence_len in 2usize..5,
        batch_max in 1usize..4,
        chunk in 1usize..12,
    ) {
        let net = NetworkBuilder::new("serve-birnn", 6)
            .seed(13)
            .bilstm(5)
            .lstm(4)
            .fully_connected(3, Activation::Identity)
            .build()
            .unwrap();
        let config = ReuseConfig::uniform(16)
            .calibration_executions(2)
            .disable_layer("fc1");
        let model = Arc::new(CompiledModel::new(&net, &config));
        let streams: Vec<(u64, Vec<Vec<f32>>)> = (0..4u64)
            .map(|s| {
                let len = (4 + s as usize) * sequence_len;
                (s * 3 + 2, walk(len, 6, 0.04 + 0.03 * s as f32, seed * 4 + s))
            })
            .collect();
        let server = single_shard(
            Arc::clone(&model),
            ServerConfig::default()
                .sequence_len(sequence_len)
                .queue_capacity(4 * sequence_len)
                .batch_max(batch_max),
        )
        .unwrap();
        let collected = run_server(&server, &streams, chunk);
        for ((id, stream), outs) in streams.iter().zip(&collected) {
            prop_assert_eq!(outs.len(), stream.len());
            let mut alone = model.new_session();
            let sequences: Vec<&[Vec<f32>]> = stream.chunks(sequence_len).collect();
            for (k, (sequence, outs)) in sequences.iter().zip(outs.chunks(sequence_len)).enumerate() {
                for (want, got) in alone.execute_sequence(sequence).unwrap().iter().zip(outs) {
                    assert_bits_eq(got, want.as_slice());
                }
                // Every sequence starts from fresh state, so after the same
                // two calibrating sequences it comes out the same alone.
                if k >= 2 {
                    let mut fresh = model.new_session();
                    for calibrating in &sequences[..2] {
                        fresh.execute_sequence(calibrating).unwrap();
                    }
                    for (want, got) in fresh.execute_sequence(sequence).unwrap().iter().zip(outs) {
                        assert_bits_eq(got, want.as_slice());
                    }
                }
            }
            let metrics = server.with_session(*id, |s| s.metrics().clone());
            prop_assert_eq!(metrics.as_ref(), Some(alone.metrics()));
        }
    }

    /// Property: under random stream contents, queue bounds, batch sizes,
    /// and submit chunking, the server's per-stream outputs and
    /// `EngineMetrics` are bit-identical to standalone sessions.
    #[test]
    fn server_matches_standalone_under_random_interleavings(
        seed_a in 0u64..1000,
        seed_b in 1000u64..2000,
        step_a in 1u32..30,
        step_b in 1u32..30,
        clusters in 4usize..33,
        queue_capacity in 1usize..5,
        batch_max in 1usize..4,
        chunk in 1usize..4,
    ) {
        let net = mlp();
        let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(clusters)));
        let streams = vec![
            (11u64, walk(15, 12, step_a as f32 / 100.0, seed_a)),
            (22u64, walk(15, 12, step_b as f32 / 100.0, seed_b)),
        ];
        let server = single_shard(
            Arc::clone(&model),
            ServerConfig::default()
                .queue_capacity(queue_capacity)
                .batch_max(batch_max),
        )
        .unwrap();
        let collected = run_server(&server, &streams, chunk);
        for ((id, stream), outs) in streams.iter().zip(collected.iter()) {
            prop_assert_eq!(outs.len(), stream.len());
            let mut alone = model.new_session();
            let mut reference = Vec::new();
            for (frame, out) in stream.iter().zip(outs.iter()) {
                alone.execute_into(frame, &mut reference).unwrap();
                prop_assert_eq!(out.len(), reference.len());
                for (x, y) in out.iter().zip(reference.iter()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            let metrics = server.with_session(*id, |s| s.metrics().clone());
            prop_assert_eq!(metrics.as_ref(), Some(alone.metrics()), "stream resident");
        }
    }
}

/// Empty-histogram contract, end to end: an idle server (no frames ever
/// submitted) must report an all-zero latency block — zero count AND zero
/// quantiles, never NaN or a sentinel — both in the snapshot struct and in
/// its JSON rendering.
#[test]
fn idle_server_snapshot_reports_zero_latency() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(32)));
    let server = single_shard(model, ServerConfig::default()).unwrap();
    let snap = server.snapshot();
    let shard = &snap.shards[0];
    assert_eq!(shard.latency_count, 0);
    assert_eq!(shard.p50_ns, 0);
    assert_eq!(shard.p99_ns, 0);
    assert_eq!(shard.p999_ns, 0);
    assert_eq!(shard.max_ns, 0);
    let json = snap.to_json();
    assert!(
        json.contains(
            "\"latency_ns\": {\"count\": 0, \"p50\": 0, \"p99\": 0, \"p999\": 0, \"max\": 0}"
        ),
        "idle latency block must be all zeros: {json}"
    );
}
