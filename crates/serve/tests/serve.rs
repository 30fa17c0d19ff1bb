//! Serving-runtime semantics: a [`StreamServer`] multiplexing N streams
//! over one shared model must be **bit-identical** to running each stream
//! alone through its own [`reuse_serve::ReuseSession`] — outputs and
//! metrics, under arbitrary submit/tick interleavings — while enforcing
//! the queue, eviction, and shedding policies.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use reuse_core::{CompiledModel, ReuseConfig};
use reuse_nn::{init::Rng64, Activation, Network, NetworkBuilder};
use reuse_serve::{ServeError, ServerConfig, StreamServer, SubmitOptions, SubmitResult};

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
    server: &mut StreamServer,
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
                            server.tick().unwrap();
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
        server.tick().unwrap();
        for (s, (id, _)) in streams.iter().enumerate() {
            server.drain_outputs(*id, |out| collected[s].push(out.to_vec()));
        }
    }
    while server.ready_units() > 0 {
        server.tick().unwrap();
        for (s, (id, _)) in streams.iter().enumerate() {
            server.drain_outputs(*id, |out| collected[s].push(out.to_vec()));
        }
    }
    collected
}

/// Runs the same frames through standalone sessions and checks the server's
/// outputs and per-stream metrics against them bit for bit.
fn check_against_standalone(
    model: &Arc<CompiledModel>,
    server: &StreamServer,
    streams: &[(u64, Vec<Vec<f32>>)],
    collected: &[Vec<Vec<f32>>],
) {
    for ((id, stream), outs) in streams.iter().zip(collected.iter()) {
        assert_eq!(outs.len(), stream.len(), "stream {id}: all frames served");
        let mut alone = model.new_session();
        let mut reference = Vec::new();
        for (frame, out) in stream.iter().zip(outs.iter()) {
            alone.execute_into(frame, &mut reference).unwrap();
            assert_bits_eq(out, &reference);
        }
        let session = server.session(*id).expect("stream still resident");
        assert_eq!(
            session.metrics(),
            alone.metrics(),
            "stream {id}: EngineMetrics must match a standalone run"
        );
    }
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
    let mut server = StreamServer::new(
        Arc::clone(&model),
        ServerConfig::default().queue_capacity(4).batch_max(2),
    )
    .unwrap();
    let collected = run_server(&mut server, &streams, 3);
    check_against_standalone(&model, &server, &streams, &collected);
    assert_eq!(server.frames_completed(), 120);
    assert_eq!(server.latency().count(), 120);
    let snap = server.snapshot();
    assert_eq!(snap.frames_completed, 120);
    assert_eq!(snap.active_streams, 3);
    assert!(snap.streams.iter().all(|s| s.frames_done == 40));
}

#[test]
fn queue_full_reports_backpressure() {
    let net = mlp();
    let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(16)));
    let mut server = StreamServer::new(model, ServerConfig::default().queue_capacity(2)).unwrap();
    let frame = vec![0.25; 12];
    assert_eq!(server.submit(0, &frame).unwrap(), SubmitResult::Accepted);
    assert_eq!(server.submit(0, &frame).unwrap(), SubmitResult::Accepted);
    assert_eq!(server.submit(0, &frame).unwrap(), SubmitResult::QueueFull);
    assert_eq!(server.rejected_queue_full(), 1);
    assert_eq!(server.queue_len(0), 2);
    // A tick makes room again.
    server.tick().unwrap();
    assert_eq!(server.submit(0, &frame).unwrap(), SubmitResult::Accepted);
    let snap = server.snapshot();
    assert_eq!(snap.rejected_queue_full, 1);
    assert_eq!(snap.frames_submitted, 3);
}

#[test]
fn lru_eviction_caps_the_pool_and_recreated_streams_start_fresh() {
    let net = mlp();
    let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(32)));
    let mut server =
        StreamServer::new(Arc::clone(&model), ServerConfig::default().max_sessions(2)).unwrap();
    let warm = walk(6, 12, 0.1, 8);

    // Warm streams 0 then 1 (so 0 is least recently used).
    for frame in &warm {
        server.submit(0, frame).unwrap();
        server.tick().unwrap();
    }
    for frame in &warm {
        server.submit(1, frame).unwrap();
        server.tick().unwrap();
    }
    assert_eq!(server.stream_count(), 2);

    // Stream 2 arrives: pool is at cap, stream 0 (LRU) is evicted.
    server.submit(2, &warm[0]).unwrap();
    assert_eq!(server.stream_count(), 2);
    assert!(!server.contains(0));
    assert!(server.contains(1));
    assert!(server.contains(2));
    assert_eq!(server.evictions(), 1);

    // Stream 0 comes back: evicts stream 1 (now LRU) and gets a *fresh*
    // session — its outputs must match a brand-new standalone session, not
    // the warmed-up state it had before eviction.
    let fresh_frames = walk(8, 12, 0.2, 77);
    let mut outs = Vec::new();
    for frame in &fresh_frames {
        server.submit(0, frame).unwrap();
        server.tick().unwrap();
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
        server.session(0).unwrap().metrics(),
        alone.metrics(),
        "re-created stream must carry no state from before its eviction"
    );
    let snap = server.snapshot();
    assert_eq!(snap.evictions, 2);
}

#[test]
fn degraded_stream_sheds_past_the_watermark() {
    // A coarse quantizer with a tight watchdog bound and fast escalation
    // auto-disables reuse layers; the server then sheds that stream's
    // submits once its queue reaches the watermark.
    let net = mlp();
    let config = ReuseConfig::uniform(2)
        .drift_watchdog(1, 1e-6)
        .drift_escalate_after(2);
    let model = Arc::new(CompiledModel::new(&net, &config));
    let mut server = StreamServer::new(
        model,
        ServerConfig::default().queue_capacity(4).shed_watermark(1),
    )
    .unwrap();

    for frame in &walk(30, 12, 0.15, 3) {
        server.submit(9, frame).unwrap();
        server.tick().unwrap();
        server.drain_outputs(9, |_| {});
    }
    let session = server.session(9).unwrap();
    assert!(
        session.auto_disabled_layers().next().is_some(),
        "watchdog must have escalated: {:?}",
        session.watchdog_stats()
    );

    // Queue empty (below watermark): still accepted.
    let frame = vec![0.5; 12];
    assert_eq!(server.submit(9, &frame).unwrap(), SubmitResult::Accepted);
    // At the watermark: shed.
    assert_eq!(server.submit(9, &frame).unwrap(), SubmitResult::Shed);
    assert_eq!(server.shed_frames(), 1);
    let snap = server.snapshot();
    assert_eq!(snap.shed, 1);
    assert!(snap.streams.iter().any(|s| s.degraded));
}

#[test]
fn recurrent_sequences_match_a_standalone_session() {
    let net = rnn();
    let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(16)));
    let seq_len = 4;
    let mut server = StreamServer::new(
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
            server.tick().unwrap();
            assert_eq!(server.frames_completed(), before);
        } else {
            server.tick().unwrap();
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
    assert_eq!(server.session(4).unwrap().metrics(), alone.metrics());
}

#[test]
fn config_mismatches_are_rejected() {
    let ff = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(8)));
    let rec = Arc::new(CompiledModel::new(&rnn(), &ReuseConfig::uniform(8)));

    // Recurrent model without a sequence length.
    let err = StreamServer::new(Arc::clone(&rec), ServerConfig::default()).unwrap_err();
    assert!(matches!(err, ServeError::Config { .. }), "{err}");

    // Feed-forward model with a sequence length.
    let err =
        StreamServer::new(Arc::clone(&ff), ServerConfig::default().sequence_len(4)).unwrap_err();
    assert!(matches!(err, ServeError::Config { .. }), "{err}");

    // Sequence longer than the queue can ever hold.
    let err = StreamServer::new(
        rec,
        ServerConfig::default().sequence_len(8).queue_capacity(4),
    )
    .unwrap_err();
    assert!(matches!(err, ServeError::Config { .. }), "{err}");

    // Valid feed-forward config constructs.
    assert!(StreamServer::new(ff, ServerConfig::default()).is_ok());
}

#[test]
fn wrong_frame_length_is_an_error() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(8)));
    let mut server = StreamServer::new(model, ServerConfig::default()).unwrap();
    let err = server.submit(0, &[1.0; 5]).unwrap_err();
    assert!(matches!(err, ServeError::Reuse(_)), "{err}");
    // The failed submit created no stream state.
    assert_eq!(server.frames_submitted(), 0);
}

#[test]
fn undrained_outputs_drop_oldest_not_newest() {
    let net = mlp();
    let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(16)));
    let mut server = StreamServer::new(
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
        server.tick().unwrap();
    }
    let mut outs = Vec::new();
    let drained = server.drain_outputs(0, |out| outs.push(out.to_vec()));
    assert_eq!(drained, 2);
    assert_eq!(server.snapshot().outputs_dropped, 2);

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

/// Regression (sticky errors): a stream that hit an execution error must
/// not silently resume on the next tick. The error is reported exactly
/// once; the stream then stays parked — no frames complete, no ready
/// units — until eviction.
#[test]
fn failed_stream_stays_failed_and_reports_once() {
    let net = mlp();
    let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(16)));
    let mut server = StreamServer::new(model, ServerConfig::default()).unwrap();
    let frames = walk(6, 12, 0.1, 13);

    for frame in &frames[..3] {
        assert_eq!(server.submit(5, frame).unwrap(), SubmitResult::Accepted);
    }
    server.tick().unwrap();
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

    // First tick after the failure surfaces the error...
    let err = server.tick().unwrap_err();
    assert!(matches!(err, ServeError::Reuse(_)), "{err}");
    assert_eq!(server.frames_completed(), done_before);

    // ...and later ticks neither re-report it nor resume the stream.
    for _ in 0..2 {
        let stats = server.tick().unwrap();
        assert_eq!(stats.frames, 0, "failed stream must not execute frames");
    }
    assert_eq!(server.frames_completed(), done_before);
    assert!(server.stream_failed(5));
    let snap = server.snapshot();
    assert!(snap.streams.iter().any(|s| s.id == 5 && s.failed));
}

/// Regression (LRU clock): rejected submits must not refresh a stream's
/// LRU position. A spammer whose queue is full would otherwise always
/// look recently used and push healthy streams out of the pool.
#[test]
fn rejected_submits_do_not_refresh_the_lru_clock() {
    let net = mlp();
    let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(16)));
    let mut server = StreamServer::new(
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
    assert_eq!(server.rejected_queue_full(), 5);

    // Stream 2 arrives at the pool cap: the spammer (stream 0), not the
    // healthy stream 1, must be the LRU eviction victim.
    assert_eq!(server.submit(2, &frame).unwrap(), SubmitResult::Accepted);
    assert!(
        !server.contains(0),
        "queue-full spammer must be the eviction victim"
    );
    assert!(server.contains(1), "healthy stream must survive");
    assert!(server.contains(2));
    assert_eq!(server.evictions(), 1);
}

/// Signature cache at capacity 0: the lookup plumbing runs but can never
/// hit, so serving must degrade to exactly the cache-off behavior —
/// outputs and metrics bit-identical to standalone sessions of a
/// cache-off model.
#[test]
fn capacity_zero_signature_cache_serves_bit_identically() {
    let net = mlp();
    let on = Arc::new(CompiledModel::new(
        &net,
        &ReuseConfig::uniform(16)
            .signature_cache(true)
            .signature_cache_capacity(0),
    ));
    let off = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(16)));
    let streams = vec![
        (1u64, walk(20, 12, 0.08, 61)),
        (2u64, walk(20, 12, 0.12, 62)),
    ];
    let mut server = StreamServer::new(
        Arc::clone(&on),
        ServerConfig::default().queue_capacity(4).batch_max(2),
    )
    .unwrap();
    let collected = run_server(&mut server, &streams, 3);
    check_against_standalone(&off, &server, &streams, &collected);
    let snap = server.snapshot();
    assert!(snap.signature.lookups > 0, "plumbing is alive");
    assert_eq!(snap.signature.hits, 0);
    assert_eq!(snap.signature.adoptions, 0);
    assert_eq!(snap.signature.inserts, 0);
}

/// An evicted stream's cache entries must not leak stale baselines into
/// its replacement: a successor with dissimilar frames misses the cache
/// (signatures differ) and stays bit-identical to a cache-off run.
#[test]
fn evicted_streams_cache_entries_do_not_leak_into_replacement() {
    let net = mlp();
    let on = Arc::new(CompiledModel::new(
        &net,
        &ReuseConfig::uniform(16).signature_cache(true),
    ));
    let off = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(16)));
    let mut server =
        StreamServer::new(Arc::clone(&on), ServerConfig::default().max_sessions(1)).unwrap();

    // Stream 0 warms up and publishes its cold-start baselines.
    let warm = walk(8, 12, 0.06, 1);
    for frame in &warm {
        server.submit(0, frame).unwrap();
        server.tick().unwrap();
        server.drain_outputs(0, |_| {});
    }
    assert!(
        server.snapshot().signature.inserts > 0,
        "baselines published"
    );

    // Stream 1 (negated frames: every signature bit flips) evicts it.
    let replacement: Vec<Vec<f32>> = warm
        .iter()
        .map(|f| f.iter().map(|v| -v).collect())
        .collect();
    let mut outs = Vec::new();
    for frame in &replacement {
        server.submit(1, frame).unwrap();
        server.tick().unwrap();
        server.drain_outputs(1, |out| outs.push(out.to_vec()));
    }
    assert!(!server.contains(0));
    assert_eq!(server.evictions(), 1);

    let session = server.session(1).expect("replacement resident");
    assert_eq!(
        session.signature_stats().adoptions,
        0,
        "dissimilar replacement must not adopt the evicted stream's baselines"
    );

    // Bit-identical to a fresh standalone session on a cache-off model.
    let mut alone = off.new_session();
    let mut reference = Vec::new();
    assert_eq!(outs.len(), replacement.len());
    for (frame, out) in replacement.iter().zip(outs.iter()) {
        alone.execute_into(frame, &mut reference).unwrap();
        assert_bits_eq(out, &reference);
    }
    assert_eq!(session.metrics(), alone.metrics());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: every accepted frame is, at every moment, in exactly one
    /// place — completed, expired, discarded with its evicted stream, or
    /// still queued — whatever mix of plain, high-priority, past-deadline
    /// and evicting submits, ticks and drains came before. `tick` keeps the
    /// server-wide counters itself; this pins them to the per-stream queues.
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
        let mut server = StreamServer::new(model, config).unwrap();
        let frame = vec![0.25; 12];
        let mut fresh_id = 100u64;
        for (op, id) in ops {
            let past = Instant::now().checked_sub(Duration::from_millis(1));
            let submit = match op {
                0 => Some((id, SubmitOptions::default())),
                1 => Some((id, SubmitOptions::default().high_priority())),
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
                    server.tick().unwrap();
                    None
                }
            };
            if let Some((id, opts)) = submit {
                server.submit_with(id, &frame, opts).unwrap();
            }
            let snap = server.snapshot();
            prop_assert_eq!(
                snap.frames_submitted,
                snap.frames_completed
                    + snap.expired
                    + snap.evicted_frames
                    + server.pending() as u64
            );
            let queued: usize = snap.streams.iter().map(|s| server.queue_len(s.id)).sum();
            prop_assert_eq!(server.pending(), queued);
        }
        // The run must have exercised what it claims to cover.
        prop_assert!(server.frames_submitted() > 0);
    }

    /// Property: a server over a cache-enabled model with capacity 0 is
    /// bit-identical — outputs and `EngineMetrics` — to standalone
    /// sessions of a cache-off model, under random interleavings.
    #[test]
    fn capacity_zero_cache_matches_cache_off_standalone(
        seed_a in 0u64..1000,
        seed_b in 1000u64..2000,
        queue_capacity in 1usize..5,
        batch_max in 1usize..4,
        chunk in 1usize..4,
    ) {
        let net = mlp();
        let on = Arc::new(CompiledModel::new(
            &net,
            &ReuseConfig::uniform(16)
                .signature_cache(true)
                .signature_cache_capacity(0),
        ));
        let off = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(16)));
        let streams = vec![
            (11u64, walk(12, 12, 0.08, seed_a)),
            (22u64, walk(12, 12, 0.15, seed_b)),
        ];
        let mut server = StreamServer::new(
            Arc::clone(&on),
            ServerConfig::default()
                .queue_capacity(queue_capacity)
                .batch_max(batch_max),
        )
        .unwrap();
        let collected = run_server(&mut server, &streams, chunk);
        for ((id, stream), outs) in streams.iter().zip(collected.iter()) {
            prop_assert_eq!(outs.len(), stream.len());
            let mut alone = off.new_session();
            let mut reference = Vec::new();
            for (frame, out) in stream.iter().zip(outs.iter()) {
                alone.execute_into(frame, &mut reference).unwrap();
                prop_assert_eq!(out.len(), reference.len());
                for (x, y) in out.iter().zip(reference.iter()) {
                    prop_assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            let session = server.session(*id).expect("stream resident");
            prop_assert_eq!(session.metrics(), alone.metrics());
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
        let mut server = StreamServer::new(
            Arc::clone(&model),
            ServerConfig::default()
                .queue_capacity(queue_capacity)
                .batch_max(batch_max),
        )
        .unwrap();
        let collected = run_server(&mut server, &streams, chunk);
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
            let session = server.session(*id).expect("stream resident");
            prop_assert_eq!(session.metrics(), alone.metrics());
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
    let server = StreamServer::new(model, ServerConfig::default()).unwrap();
    let snap = server.snapshot();
    assert_eq!(snap.latency_count, 0);
    assert_eq!(snap.p50_ns, 0);
    assert_eq!(snap.p99_ns, 0);
    assert_eq!(snap.p999_ns, 0);
    assert_eq!(snap.max_ns, 0);
    let json = snap.to_json();
    assert!(
        json.contains(
            "\"latency_ns\": {\"count\": 0, \"p50\": 0, \"p99\": 0, \"p999\": 0, \"max\": 0}"
        ),
        "idle latency block must be all zeros: {json}"
    );
}
