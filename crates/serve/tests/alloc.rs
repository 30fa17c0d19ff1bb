//! Zero-allocation contract of the serving dispatch loop.
//!
//! A counting global allocator wraps the system allocator; once every
//! stream is past calibration and the server's recycling lists are primed,
//! the steady-state submit → tick → drain cycle of a single-shard
//! [`ShardedServer`] ticked by the caller must not allocate, frame by frame on a feed-forward model and sequence by sequence
//! on a recurrent one: ingress frames come from the recycled frame list,
//! outputs from the recycled output list, and each session's intermediates
//! from its own buffer pool.
//!
//! The count is per thread (the harness runs the two tests on parallel
//! threads; a tick executes on the thread that calls it).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use reuse_core::{CompiledModel, ReuseConfig};
use reuse_nn::{init::Rng64, Activation, NetworkBuilder};
use reuse_serve::{ServerConfig, ShardedServer, SubmitResult};

struct CountingAlloc;

thread_local! {
    // Const-initialised and `Drop`-free, so touching it from inside the
    // allocator neither allocates nor runs a lazy initialiser.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs during thread-local teardown.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations made by the calling thread so far.
fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_dispatch_loop_is_allocation_free() {
    let net = NetworkBuilder::new("serve-steady", 32)
        .fully_connected(64, Activation::Relu)
        .fully_connected(48, Activation::Relu)
        .fully_connected(10, Activation::Identity)
        .build()
        .unwrap();
    let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(16)));
    let server = ShardedServer::new(
        model,
        ServerConfig::default().queue_capacity(4).batch_max(4),
        1,
    )
    .unwrap();

    let mut rng = Rng64::new(9);
    let mut frames: Vec<Vec<f32>> = (0..3)
        .map(|_| (0..32).map(|_| rng.uniform(0.9)).collect())
        .collect();

    // Warm-up: create the streams, run calibration + the state-initializing
    // first reuse frame, and prime every recycling list (ingress frames,
    // outputs, session pools, `out` capacities).
    for _ in 0..4 {
        for (s, frame) in frames.iter().enumerate() {
            assert_eq!(
                server.submit(s as u64, frame).unwrap(),
                SubmitResult::Accepted
            );
        }
        server.tick_all().unwrap();
        for s in 0..frames.len() as u64 {
            server.drain_outputs(s, |out| assert_eq!(out.len(), 10));
        }
    }

    let before = thread_allocations();
    for _ in 0..10 {
        // Drift a few inputs per stream so the incremental path does real
        // correction work, not just the all-reused fast case.
        for frame in &mut frames {
            for _ in 0..8 {
                let i = (rng.next_u64() % 32) as usize;
                frame[i] = (frame[i] + rng.uniform(0.5)).clamp(-1.0, 1.0);
            }
        }
        for (s, frame) in frames.iter().enumerate() {
            assert_eq!(
                server.submit(s as u64, frame).unwrap(),
                SubmitResult::Accepted
            );
        }
        server.tick_all().unwrap();
        for s in 0..frames.len() as u64 {
            let drained = server.drain_outputs(s, |out| assert_eq!(out.len(), 10));
            assert_eq!(drained, 1);
        }
    }
    let allocations = thread_allocations() - before;
    assert_eq!(
        allocations, 0,
        "steady-state dispatch cycles allocated {allocations} times"
    );
}

#[test]
fn steady_ticks_of_every_block_size_are_allocation_free() {
    // A Kaldi-shaped model: the reuse-disabled FCs run every row of a tick
    // as one GEMM, the enabled ones step row by row. One warm tick at the
    // largest block (every stream's `BATCH` frames) sizes everything the
    // tick keeps; after it, no block of 1..=STREAMS×BATCH rows — growing,
    // then shrinking — allocates.
    const STREAMS: usize = 4;
    const BATCH: usize = 3;
    let net = NetworkBuilder::new("serve-blocks", 24)
        .fully_connected(24, Activation::Relu)
        .fully_connected(40, Activation::Relu)
        .group_max(2)
        .fully_connected(16, Activation::Relu)
        .fully_connected(6, Activation::Identity)
        .build()
        .unwrap();
    let config = ReuseConfig::uniform(16)
        .disable_layer("fc1")
        .disable_layer("fc2");
    let model = Arc::new(CompiledModel::new(&net, &config));
    let server = ShardedServer::new(
        model,
        ServerConfig::default()
            .queue_capacity(BATCH)
            .batch_max(BATCH),
        1,
    )
    .unwrap();

    let mut rng = Rng64::new(31);
    let mut frames: Vec<Vec<f32>> = (0..STREAMS)
        .map(|_| (0..24).map(|_| rng.uniform(0.9)).collect())
        .collect();
    // One tick of a `rows`-row block, spread over the streams.
    let mut tick = |server: &ShardedServer, rows: usize| {
        for (s, frame) in frames.iter_mut().enumerate() {
            for _ in 0..rows / STREAMS + usize::from(s < rows % STREAMS) {
                drift(frame, &mut rng);
                let accepted = server.submit(s as u64, frame).unwrap();
                assert_eq!(accepted, SubmitResult::Accepted);
            }
        }
        assert_eq!(server.tick_all().unwrap().frames, rows as u64);
        for s in 0..STREAMS as u64 {
            server.drain_outputs(s, |out| assert_eq!(out.len(), 6));
        }
    };
    // Calibration, the state-initialising frame, one steady frame, then the
    // largest block.
    for rows in [STREAMS, STREAMS, STREAMS, STREAMS * BATCH] {
        tick(&server, rows);
    }
    let before = thread_allocations();
    for rows in (1..=STREAMS * BATCH).chain((1..STREAMS * BATCH).rev()) {
        tick(&server, rows);
    }
    let allocations = thread_allocations() - before;
    assert_eq!(
        allocations,
        0,
        "steady ticks of 1..={} rows allocated {allocations} times",
        STREAMS * BATCH
    );
}

/// Drifts a few inputs in place so the incremental path does real
/// correction work, not just the all-reused fast case.
fn drift(frame: &mut [f32], rng: &mut Rng64) {
    for _ in 0..6 {
        let i = (rng.next_u64() % frame.len() as u64) as usize;
        frame[i] = (frame[i] + rng.uniform(0.5)).clamp(-1.0, 1.0);
    }
}

#[test]
fn steady_state_recurrent_dispatch_is_allocation_free() {
    // Two streams of 8-step sequences through a BiLSTM under a reuse-
    // disabled output layer (EESEN's shape). A sequence's timesteps queue
    // up, execute as one `execute_sequence_into` call and leave as eight
    // pooled output buffers; once the lists are primed nothing allocates.
    const STEPS: usize = 8;
    let net = NetworkBuilder::new("serve-steady-rnn", 12)
        .bilstm(9)
        .fully_connected(4, Activation::Identity)
        .build()
        .unwrap();
    let config = ReuseConfig::uniform(16).disable_layer("fc1");
    let model = Arc::new(CompiledModel::new(&net, &config));
    let server = ShardedServer::new(
        model,
        ServerConfig::default()
            .sequence_len(STEPS)
            .queue_capacity(STEPS)
            .batch_max(1),
        1,
    )
    .unwrap();

    let mut rng = Rng64::new(15);
    let mut frames: Vec<Vec<f32>> = (0..2)
        .map(|_| (0..12).map(|_| rng.uniform(0.9)).collect())
        .collect();
    let mut sequence = |server: &ShardedServer| {
        for _ in 0..STEPS {
            for (s, frame) in frames.iter_mut().enumerate() {
                for v in frame.iter_mut() {
                    *v = (*v + rng.uniform(0.1)).clamp(-1.0, 1.0);
                }
                assert_eq!(
                    server.submit(s as u64, frame).unwrap(),
                    SubmitResult::Accepted
                );
            }
        }
        server.tick_all().unwrap();
        for s in 0..2 {
            let drained = server.drain_outputs(s, |out| assert_eq!(out.len(), 4));
            assert_eq!(drained, STEPS);
        }
    };
    // Calibration, the state-initialising sequence, two steady ones.
    for _ in 0..4 {
        sequence(&server);
    }
    let before = thread_allocations();
    for _ in 0..6 {
        sequence(&server);
    }
    let allocations = thread_allocations() - before;
    assert_eq!(
        allocations, 0,
        "steady-state sequences allocated {allocations} times"
    );
}
