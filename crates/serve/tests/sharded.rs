//! Sharded-tier semantics: a [`ShardedServer`] over any shard count must
//! be bit-identical per stream to a single-shard one (and so to standalone
//! sessions); deadline scheduling must survive sharding and LRU churn.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use reuse_core::{CompiledModel, ReuseConfig};
use reuse_nn::{init::Rng64, Activation, Network, NetworkBuilder};
use reuse_serve::{ServerConfig, ShardWorkers, ShardedServer, SubmitOptions, SubmitResult};

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

fn rnn() -> Network {
    NetworkBuilder::new("shard-rnn", 10)
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
    assert_eq!(
        snap.shards.iter().map(|sh| sh.latency_count).sum::<u64>(),
        180
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

/// A recurrent stream's sequence becomes ready on the submit of its last
/// timestep. Two streams' frames, submitted one per call from another
/// thread while the worker ticks, all complete: a worker parked on a plain
/// condvar wait never misses the submit that completes a sequence.
#[test]
fn worker_completes_recurrent_sequences_filled_one_frame_per_submit() {
    let seq_len = 4;
    let model = Arc::new(CompiledModel::new(&rnn(), &ReuseConfig::uniform(16)));
    let streams: Vec<(u64, Vec<Vec<f32>>)> = [(3u64, 61u64), (8, 62)]
        .iter()
        .map(|&(id, seed)| (id, walk(25 * seq_len, 10, 0.1, seed)))
        .collect();
    // Room for every frame and every output: nothing is rejected or dropped,
    // so the only way to lose a frame is a worker that never wakes for it.
    let config = ServerConfig::default()
        .sequence_len(seq_len)
        .queue_capacity(25 * seq_len);
    let server = Arc::new(ShardedServer::new(Arc::clone(&model), config, 1).unwrap());
    let workers = ShardWorkers::start(Arc::clone(&server));

    let submitter = {
        let server = Arc::clone(&server);
        let streams = streams.clone();
        std::thread::spawn(move || {
            for t in 0..streams[0].1.len() {
                for (id, frames) in &streams {
                    let accepted = server.submit(*id, &frames[t]).unwrap();
                    assert_eq!(accepted, SubmitResult::Accepted);
                }
            }
        })
    };
    let mut collected: Vec<Vec<Vec<f32>>> = streams.iter().map(|_| Vec::new()).collect();
    let give_up = Instant::now() + Duration::from_secs(30);
    while collected.iter().map(Vec::len).sum::<usize>() < 2 * 25 * seq_len {
        for (s, (id, _)) in streams.iter().enumerate() {
            server.drain_outputs(*id, |out| collected[s].push(out.to_vec()));
        }
        assert!(
            Instant::now() < give_up,
            "the worker stalled with {} of {} outputs",
            collected.iter().map(Vec::len).sum::<usize>(),
            2 * 25 * seq_len
        );
        std::thread::yield_now();
    }
    submitter.join().unwrap();
    assert!(workers.take_errors().is_empty());
    drop(workers);

    for ((_, frames), outs) in streams.iter().zip(&collected) {
        assert_eq!(outs.len(), frames.len());
        let mut alone = model.new_session();
        let reference: Vec<_> = frames
            .chunks(seq_len)
            .flat_map(|sequence| alone.execute_sequence(sequence).unwrap())
            .collect();
        for (out, want) in outs.iter().zip(&reference) {
            assert_bits_eq(out, want.as_slice());
        }
    }
}

/// `stop` notifies each shard under its lock, so a worker caught between
/// its stop check and its (untimed) wait cannot miss the stop: thousands of
/// start/stop cycles of idle workers all finish. (With the notify outside
/// the lock, about half of all runs of this test hang on some cycle.)
#[test]
fn idle_workers_never_miss_a_stop() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(32)));
    let server = Arc::new(ShardedServer::new(model, ServerConfig::default(), 2).unwrap());
    let (done, finished) = mpsc::channel();
    let cycles = std::thread::spawn(move || {
        for _ in 0..5000 {
            ShardWorkers::start(Arc::clone(&server)).stop();
        }
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(30))
        .expect("a worker missed its stop and never joined");
    cycles.join().unwrap();
}

#[test]
fn fresh_deadline_frames_expire_instead_of_executing() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(32)));
    let server = ShardedServer::new(Arc::clone(&model), ServerConfig::default(), 1).unwrap();
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
    server.tick_all().unwrap();
    assert_eq!(server.snapshot().expired(), 1);
    assert_eq!(server.frames_completed(), 0);
    let mut tags = Vec::new();
    server.drain_expired(9, |tag| tags.push(tag));
    assert_eq!(tags, vec![77]);
    assert_eq!(server.drain_outputs(9, |_| panic!("no output")), 0);
    let snap = &server.snapshot().shards[0];
    assert_eq!(snap.expired, 1);
    assert_eq!(snap.streams[0].expired, 1);
}

#[test]
fn projected_deadline_miss_sheds_at_ingress() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(32)));
    let server = ShardedServer::new(Arc::clone(&model), ServerConfig::default(), 1).unwrap();
    let frame = vec![0.25f32; 12];
    // Establish a service-time estimate.
    server.submit(3, &frame).unwrap();
    server.tick_all().unwrap();
    assert!(server.snapshot().shards[0].service_ewma_ns > 0.0);
    // A deadline of zero slack is now provably unmeetable at ingress.
    let opts = SubmitOptions::default().with_deadline(Duration::ZERO);
    assert_eq!(
        server.submit_with(3, &frame, opts).unwrap(),
        SubmitResult::DeadlineShed
    );
    assert_eq!(server.snapshot().deadline_shed(), 1);
    // A generous deadline is accepted.
    let opts = SubmitOptions::default().with_deadline(Duration::from_secs(60));
    assert_eq!(
        server.submit_with(3, &frame, opts).unwrap(),
        SubmitResult::Accepted
    );
    server.tick_all().unwrap();
    assert_eq!(server.frames_completed(), 2);
    let snap = &server.snapshot().shards[0];
    assert_eq!(snap.deadline_shed, 1);
    assert_eq!(snap.streams[0].deadline_shed, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Property: per-stream outputs from a sharded server are bit-identical
    /// to a single-shard one over the same submissions, for any
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
        let server = ShardedServer::new(
            Arc::clone(&model),
            ServerConfig::default()
                .queue_capacity(queue_capacity)
                .batch_max(batch_max),
            1,
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
                server.tick_all().unwrap();
                for (s, &id) in ids.iter().enumerate() {
                    server.drain_outputs(id, |_| drained[s] += 1);
                }
            }
        }
        server.tick_all().unwrap();
        for (s, &id) in ids.iter().enumerate() {
            server.drain_outputs(id, |_| drained[s] += 1);
        }

        let snap = &server.snapshot().shards[0];
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
/// an all-zero latency view, and the snapshot JSON renders an all-zero
/// `latency_ns` block for the merged view and for every shard.
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
    }
    let zero = "\"latency_ns\": {\"count\": 0, \"p50\": 0, \"p99\": 0, \"p999\": 0, \"max\": 0}";
    assert_eq!(snap.to_json().matches(zero).count(), 1 + 3);
}

/// The snapshot carries every shard's full detail, which its JSON renders
/// under `per_shard`: for a one-shard server with an evicted stream and a
/// failed one, the shard holds the network, the eviction and dropped-output
/// counters, the service-time EWMA and a row per resident stream with its
/// failure flag.
#[test]
fn snapshot_json_carries_each_shards_detail() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(32)));
    let config = ServerConfig::default().max_sessions(2).queue_capacity(1);
    let server = ShardedServer::new(model, config, 1).unwrap();
    let frame = vec![0.25f32; 12];
    // Stream 1 overflows its one-slot output queue twice, undrained; stream
    // 2 fails; stream 3 evicts stream 1, the least recently used.
    for id in [1, 1, 1, 2] {
        assert_eq!(server.submit(id, &frame).unwrap(), SubmitResult::Accepted);
        server.tick_all().unwrap();
    }
    let injected = reuse_core::ReuseError::Nn(reuse_nn::NnError::InputShape {
        expected: 12,
        actual: 11,
    });
    assert!(server.inject_stream_error(2, injected));
    assert_eq!(server.submit(3, &frame).unwrap(), SubmitResult::Accepted);
    assert!(server.tick_all().is_err(), "the injected failure surfaces");
    assert!(!server.contains(1));

    let snap = server.snapshot();
    assert_eq!(snap.shards.len(), 1);
    let shard = &snap.shards[0];
    assert_eq!(shard.network, "shard-mlp");
    assert_eq!(shard.evictions, 1);
    assert_eq!(shard.evicted_frames, 0);
    assert_eq!(shard.outputs_dropped, 2);
    assert!(shard.service_ewma_ns > 0.0);
    let rows: Vec<_> = shard.streams.iter().map(|st| (st.id, st.failed)).collect();
    assert_eq!(rows, [(2, true), (3, false)]);
}
