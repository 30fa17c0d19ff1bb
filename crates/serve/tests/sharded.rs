//! Sharded-tier semantics: a [`ShardedServer`] over any shard count must
//! be bit-identical per stream to a single-shard [`StreamServer`] (and so
//! to standalone sessions); deadline scheduling and the shared signature
//! cache must survive sharding and LRU churn.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use reuse_core::{CompiledModel, ReuseConfig};
use reuse_nn::{init::Rng64, Activation, Network, NetworkBuilder};
use reuse_serve::{
    ServerConfig, ShardWorkers, ShardedServer, StreamServer, SubmitOptions, SubmitResult,
};

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
    NetworkBuilder::new("shard-mlp", 12)
        .seed(5)
        .fully_connected(24, Activation::Relu)
        .fully_connected(16, Activation::Relu)
        .fully_connected(4, Activation::Identity)
        .build()
        .unwrap()
}

fn assert_bits_eq(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
    }
}

/// Pushes every stream through a sharded server in passive (tick_all)
/// mode and returns the collected outputs per stream.
fn run_sharded(
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
                loop {
                    match server.submit(*id, frame).unwrap() {
                        SubmitResult::Accepted => break,
                        SubmitResult::QueueFull => {
                            server.tick_all().unwrap();
                            server.drain_outputs(*id, |out| collected[s].push(out.to_vec()));
                        }
                        other => panic!("healthy stream must not {other:?}"),
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

#[test]
fn sharded_streams_match_standalone_sessions() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(32)));
    let streams: Vec<(u64, Vec<Vec<f32>>)> = (0..6)
        .map(|s| (s * 131, walk(30, 12, 0.1, 500 + s)))
        .collect();
    let server = ShardedServer::new(Arc::clone(&model), ServerConfig::default(), 3).unwrap();
    let collected = run_sharded(&server, &streams, 2);
    for ((id, stream), outs) in streams.iter().zip(collected.iter()) {
        assert_eq!(outs.len(), stream.len(), "stream {id}");
        let mut alone = model.new_session();
        let mut reference = Vec::new();
        for (frame, out) in stream.iter().zip(outs.iter()) {
            alone.execute_into(frame, &mut reference).unwrap();
            assert_bits_eq(out, &reference);
        }
    }
    let snap = server.snapshot();
    assert_eq!(snap.frames_completed(), 180);
    assert_eq!(snap.latency_count, 180);
    assert_eq!(snap.active_streams(), 6);
    let root = reuse_core::json::parse(&snap.to_json()).expect("strict parser accepts it");
    assert!(root.has_path("per_shard.p99"));
    assert_eq!(
        root.get("frames_completed").and_then(|v| v.as_f64()),
        Some(180.0)
    );
}

#[test]
fn worker_threads_drive_frames_to_completion() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(32)));
    let server =
        Arc::new(ShardedServer::new(Arc::clone(&model), ServerConfig::default(), 2).unwrap());
    let workers = ShardWorkers::start(Arc::clone(&server));

    let streams: Vec<(u64, Vec<Vec<f32>>)> = (0..4)
        .map(|s| (s * 977, walk(20, 12, 0.1, 40 + s)))
        .collect();
    let mut collected: Vec<Vec<Vec<f32>>> = streams.iter().map(|_| Vec::new()).collect();
    for (s, (id, stream)) in streams.iter().enumerate() {
        for frame in stream {
            loop {
                match server.submit(*id, frame).unwrap() {
                    SubmitResult::Accepted => break,
                    SubmitResult::QueueFull => {
                        server.drain_outputs(*id, |out| collected[s].push(out.to_vec()));
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    other => panic!("healthy stream must not {other:?}"),
                }
            }
        }
    }
    // Workers tick in the background; wait for everything to finish.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        for (s, (id, _)) in streams.iter().enumerate() {
            server.drain_outputs(*id, |out| collected[s].push(out.to_vec()));
        }
        if collected.iter().map(Vec::len).sum::<usize>() == 4 * 20 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "workers stalled");
        std::thread::sleep(Duration::from_micros(200));
    }
    assert!(workers.take_errors().is_empty());
    drop(workers);

    for ((_, stream), outs) in streams.iter().zip(collected.iter()) {
        let mut alone = model.new_session();
        let mut reference = Vec::new();
        for (frame, out) in stream.iter().zip(outs.iter()) {
            alone.execute_into(frame, &mut reference).unwrap();
            assert_bits_eq(out, &reference);
        }
    }
}

/// Satellite 6 regression: the PR 7 signature cache hangs off the shared
/// `CompiledModel`, so it must keep working across shards and across LRU
/// eviction — a stream evicted from one shard and similar content arriving
/// on a *different* shard must still hit the cached signatures.
#[test]
fn signature_cache_is_shared_across_shards_and_survives_eviction() {
    let model = Arc::new(CompiledModel::new(
        &mlp(),
        &ReuseConfig::uniform(32).signature_cache(true),
    ));
    // Per-shard pool of 1 session so every new stream on a shard evicts
    // the previous one.
    let server = ShardedServer::new(
        Arc::clone(&model),
        ServerConfig::default().max_sessions(1),
        2,
    )
    .unwrap();

    // Two ids on *different* shards, plus churn ids to force eviction.
    let ids: Vec<u64> = (0..64).collect();
    let a = ids[0];
    let b = *ids
        .iter()
        .find(|&&id| server.shard_of(id) != server.shard_of(a))
        .expect("some id lands on the other shard");
    let churn_a = *ids
        .iter()
        .find(|&&id| id != a && id != b && server.shard_of(id) == server.shard_of(a))
        .expect("another id on a's shard");

    let frames = walk(12, 12, 0.02, 999);
    // Warm the cache from stream `a` (shard of a).
    for frame in &frames {
        server.submit(a, frame).unwrap();
        server.tick_all().unwrap();
    }
    server.drain_outputs(a, |_| {});
    // Evict `a` by creating another stream on its shard (pool cap 1).
    server.submit(churn_a, &frames[0]).unwrap();
    server.tick_all().unwrap();
    assert!(!server.contains(a), "a must have been evicted");

    // The same content arriving on the *other* shard must adopt cached
    // baselines inserted by `a` — the cache lives on the CompiledModel,
    // not in any shard's session pool.
    for frame in &frames {
        server.submit(b, frame).unwrap();
        server.tick_all().unwrap();
    }
    let adoptions = server.snapshot().shards[server.shard_of(b)]
        .signature
        .adoptions;
    assert!(
        adoptions > 0,
        "stream {b} on shard {} must adopt signatures published by evicted stream {a} on shard {}",
        server.shard_of(b),
        server.shard_of(a),
    );
}

#[test]
fn fresh_deadline_frames_expire_instead_of_executing() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(32)));
    let mut server = StreamServer::new(Arc::clone(&model), ServerConfig::default()).unwrap();
    let frame = vec![0.25f32; 12];
    // Fresh server: no service-time estimate yet, so ingress projection is
    // disabled and the frame is accepted despite its hopeless deadline.
    let opts = SubmitOptions::default()
        .with_deadline(Duration::ZERO)
        .tagged(77);
    assert_eq!(
        server.submit_with(9, &frame, opts).unwrap(),
        SubmitResult::Accepted
    );
    std::thread::sleep(Duration::from_millis(1));
    server.tick().unwrap();
    assert_eq!(server.expired_frames(), 1);
    assert_eq!(server.frames_completed(), 0);
    let mut tags = Vec::new();
    server.drain_expired(9, |tag| tags.push(tag));
    assert_eq!(tags, vec![77]);
    assert_eq!(server.drain_outputs(9, |_| panic!("no output")), 0);
    let snap = server.snapshot();
    assert_eq!(snap.expired, 1);
    assert_eq!(snap.streams[0].expired, 1);
}

#[test]
fn projected_deadline_miss_sheds_at_ingress() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(32)));
    let mut server = StreamServer::new(Arc::clone(&model), ServerConfig::default()).unwrap();
    let frame = vec![0.25f32; 12];
    // Establish a service-time estimate.
    server.submit(3, &frame).unwrap();
    server.tick().unwrap();
    assert!(server.service_ewma_ns() > 0.0);
    // A deadline of zero slack is now provably unmeetable at ingress.
    let opts = SubmitOptions::default().with_deadline(Duration::ZERO);
    assert_eq!(
        server.submit_with(3, &frame, opts).unwrap(),
        SubmitResult::DeadlineShed
    );
    assert_eq!(server.deadline_shed_frames(), 1);
    // A generous deadline is accepted.
    let opts = SubmitOptions::default().with_deadline(Duration::from_secs(60));
    assert_eq!(
        server.submit_with(3, &frame, opts).unwrap(),
        SubmitResult::Accepted
    );
    server.tick().unwrap();
    assert_eq!(server.frames_completed(), 2);
    let snap = server.snapshot();
    assert_eq!(snap.deadline_shed, 1);
    assert_eq!(snap.streams[0].deadline_shed, 1);
}

#[test]
fn priority_lane_preserves_outputs_and_orders_dispatch() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(32)));
    let streams: Vec<(u64, Vec<Vec<f32>>)> =
        (0..3).map(|s| (s, walk(10, 12, 0.1, 60 + s))).collect();

    // Reference: all-normal submissions.
    let mut plain = StreamServer::new(Arc::clone(&model), ServerConfig::default()).unwrap();
    let mut plain_out: Vec<Vec<Vec<f32>>> = streams.iter().map(|_| Vec::new()).collect();
    // Priority run: stream 1 submits high-priority.
    let mut prio = StreamServer::new(Arc::clone(&model), ServerConfig::default()).unwrap();
    let mut prio_out: Vec<Vec<Vec<f32>>> = streams.iter().map(|_| Vec::new()).collect();

    for t in 0..10 {
        for (s, (id, stream)) in streams.iter().enumerate() {
            plain.submit(*id, &stream[t]).unwrap();
            let opts = if s == 1 {
                SubmitOptions::default().high_priority()
            } else {
                SubmitOptions::default()
            };
            assert_eq!(
                prio.submit_with(*id, &stream[t], opts).unwrap(),
                SubmitResult::Accepted
            );
        }
        plain.tick().unwrap();
        prio.tick().unwrap();
        for (s, (id, _)) in streams.iter().enumerate() {
            plain.drain_outputs(*id, |out| plain_out[s].push(out.to_vec()));
            prio.drain_outputs(*id, |out| prio_out[s].push(out.to_vec()));
        }
    }
    // Scheduling order must never change results.
    for (a, b) in plain_out.iter().zip(prio_out.iter()) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_bits_eq(x, y);
        }
    }
    assert_eq!(prio.frames_completed(), 30);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property: per-stream outputs from a sharded server are bit-identical
    /// to a single-shard `StreamServer` over the same submissions, for any
    /// shard count, queue shape, and interleaving chunk.
    #[test]
    fn sharded_matches_single_shard(
        shards in 1usize..5,
        queue_capacity in 1usize..5,
        batch_max in 1usize..4,
        chunk in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(16)));
        let streams: Vec<(u64, Vec<Vec<f32>>)> = (0..5)
            .map(|s| (s * 7919, walk(12, 12, 0.1, seed * 31 + s)))
            .collect();
        let config = ServerConfig::default()
            .queue_capacity(queue_capacity)
            .batch_max(batch_max);

        let sharded =
            ShardedServer::new(Arc::clone(&model), config.clone(), shards).unwrap();
        let sharded_out = run_sharded(&sharded, &streams, chunk);

        let single = ShardedServer::new(Arc::clone(&model), config, 1).unwrap();
        let single_out = run_sharded(&single, &streams, chunk);

        for ((a, b), (id, _)) in sharded_out.iter().zip(single_out.iter()).zip(streams.iter()) {
            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert_eq!(x.len(), y.len(), "stream {}", id);
                for (p, q) in x.iter().zip(y.iter()) {
                    prop_assert_eq!(p.to_bits(), q.to_bits());
                }
            }
        }
    }

    /// Satellite 3: an open-loop burst far beyond queue capacity must keep
    /// exact books — per stream and aggregate, every submit attempt is
    /// accounted as accepted, queue-full, or shed, and every accepted frame
    /// as completed, expired, or still queued.
    #[test]
    fn overload_accounting_balances_exactly(
        queue_capacity in 1usize..6,
        batch_max in 1usize..4,
        burst in 8usize..40,
        ticks_between in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(16)));
        let mut server = StreamServer::new(
            Arc::clone(&model),
            ServerConfig::default()
                .queue_capacity(queue_capacity)
                .batch_max(batch_max),
        )
        .unwrap();
        let mut rng = Rng64::new(seed);
        let ids = [11u64, 23, 37];
        let frames: Vec<Vec<Vec<f32>>> =
            ids.iter().map(|&id| walk(burst, 12, 0.1, seed ^ id)).collect();
        let mut attempts = vec![0u64; ids.len()];
        let mut accepted = vec![0u64; ids.len()];
        let mut drained = vec![0u64; ids.len()];

        // Open-loop: submit the whole burst regardless of acceptance,
        // ticking only occasionally, so queues overflow. Index-driven on
        // purpose: frame t of every stream goes in before frame t+1 of any.
        #[allow(clippy::needless_range_loop)]
        for t in 0..burst {
            for (s, &id) in ids.iter().enumerate() {
                attempts[s] += 1;
                match server.submit(id, &frames[s][t]).unwrap() {
                    SubmitResult::Accepted => accepted[s] += 1,
                    SubmitResult::QueueFull | SubmitResult::Shed
                    | SubmitResult::DeadlineShed => {}
                }
            }
            if ticks_between > 0 && (rng.uniform(1.0) > 0.0) && t % ticks_between == 0 {
                server.tick().unwrap();
                for (s, &id) in ids.iter().enumerate() {
                    server.drain_outputs(id, |_| drained[s] += 1);
                }
            }
        }
        server.tick().unwrap();
        for (s, &id) in ids.iter().enumerate() {
            server.drain_outputs(id, |_| drained[s] += 1);
        }

        let snap = server.snapshot();
        let mut total_attempts = 0u64;
        for (s, &id) in ids.iter().enumerate() {
            let st = snap.streams.iter().find(|st| st.id == id).unwrap();
            // Every attempt is attributed to exactly one outcome.
            prop_assert_eq!(
                attempts[s],
                st.frames_in + st.rejected_queue_full + st.shed + st.deadline_shed,
                "stream {} attempt accounting", id
            );
            prop_assert_eq!(accepted[s], st.frames_in);
            // Every accepted frame is completed, expired, or still queued.
            prop_assert_eq!(
                st.frames_in,
                st.frames_done + st.expired + st.queue_len as u64,
                "stream {} acceptance accounting", id
            );
            total_attempts += attempts[s];
        }
        prop_assert_eq!(
            total_attempts,
            snap.frames_submitted + snap.rejected_queue_full + snap.shed + snap.deadline_shed
        );
        prop_assert_eq!(
            snap.frames_submitted,
            snap.frames_completed + snap.expired + server.pending() as u64
        );
    }
}

/// Empty-histogram contract across the sharded tier: idle shards merge to
/// an all-zero latency view, and every per-shard snapshot renders an
/// all-zero `latency_ns` JSON block.
#[test]
fn idle_sharded_snapshot_reports_zero_latency() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(32)));
    let server = ShardedServer::new(model, ServerConfig::default(), 3).unwrap();
    let snap = server.snapshot();
    assert_eq!(snap.latency_count, 0);
    assert_eq!(snap.p50_ns, 0);
    assert_eq!(snap.p99_ns, 0);
    assert_eq!(snap.p999_ns, 0);
    assert_eq!(snap.max_ns, 0);
    assert_eq!(snap.shards.len(), 3);
    for shard in &snap.shards {
        assert_eq!(shard.latency_count, 0);
        assert_eq!(
            (shard.p50_ns, shard.p99_ns, shard.p999_ns, shard.max_ns),
            (0, 0, 0, 0)
        );
        assert!(shard.to_json().contains(
            "\"latency_ns\": {\"count\": 0, \"p50\": 0, \"p99\": 0, \"p999\": 0, \"max\": 0}"
        ));
    }
}
