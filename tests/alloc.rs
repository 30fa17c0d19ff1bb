//! Zero-allocation contract of the steady-state hot path on Table I
//! pipelines.
//!
//! `crates/reuse/tests/alloc.rs` holds the contract on toy networks; the
//! paper's networks also have layers the session runs at full precision —
//! Kaldi's reuse-disabled FC1/FC2 and its group-max reductions, AutoPilot's
//! flatten and its reuse-disabled single-output FC5, C3D's reuse-disabled
//! CONV1 and its five pools. Every one of them writes into a buffer from the
//! session's pool, so once the pool is primed a frame of any of the three
//! allocates nothing in the session; what is left is the conv kernel's own
//! two allocations, once per reuse-disabled conv layer: the segment table —
//! the zero-padded copy of the frame the windows are read from shares it —
//! and the block of results. EESEN's sequences
//! are under the same contract: flat pooled buffers between layers, whether a
//! BiLSTM steps through its reuse state or runs at full precision.
//!
//! The count is per thread: the harness runs these tests on parallel
//! threads, and a process-wide counter would charge each test with the
//! others' allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use reuse_dnn::prelude::*;
use reuse_dnn::workloads::Scale;

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

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a plain thread-local cell.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Frames counted after the warm-up ones.
const STEADY_FRAMES: usize = 24;

/// Runs the workload's tiny network over its own correlated stream: a few
/// frames to calibrate, initialise every layer's buffered state and prime
/// the pool, then counts what the [`STEADY_FRAMES`] after them allocate.
fn steady_allocations(kind: WorkloadKind) -> (u64, u64) {
    let w = Workload::build(kind, Scale::Tiny);
    let mut session = ReuseSession::from_network(w.network(), w.reuse_config());
    let frames = w.generate_frames(6 + STEADY_FRAMES, 11);
    let (warm_up, steady) = frames.split_at(6);
    let mut out = Vec::new();
    for frame in warm_up {
        session.execute_into(frame, &mut out).unwrap();
    }
    let misses = session.pool_stats().misses;
    let before = ALLOCATIONS.with(Cell::get);
    for frame in steady {
        session.execute_into(frame, &mut out).unwrap();
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let reuse = session.metrics().overall_computation_reuse();
    assert!(reuse > 0.0, "the steady frames went through the reuse path");
    (allocations, session.pool_stats().misses - misses)
}

#[test]
fn kaldi_steady_frames_are_allocation_free() {
    // Reuse-disabled FC1/FC2 and four group-max layers between the
    // reuse-enabled FC3–FC6.
    let (allocations, pool_misses) = steady_allocations(WorkloadKind::Kaldi);
    assert_eq!(pool_misses, 0, "steady-state pool misses");
    assert_eq!(allocations, 0, "steady-state Kaldi frames allocated");
}

#[test]
fn autopilot_steady_frames_are_allocation_free() {
    // Conv layers, a flatten, and the reuse-disabled one-output FC5 that
    // used to swap a pooled buffer for a fresh one-float one every frame.
    let (allocations, pool_misses) = steady_allocations(WorkloadKind::AutoPilot);
    assert_eq!(pool_misses, 0, "steady-state pool misses");
    assert_eq!(allocations, 0, "steady-state AutoPilot frames allocated");
}

#[test]
fn c3d_steady_windows_allocate_only_conv1s_kernel_scratch() {
    // CONV1 is reuse-disabled and recomputed every window, and a pool
    // follows five of the eight conv layers: six of seventeen layers run at
    // full precision. All of them stay in the pool (sixteen allocations and
    // two pool misses a window when they went through the tensor API); the
    // two allocations are the scratch `conv_forward_into` owns.
    let (allocations, pool_misses) = steady_allocations(WorkloadKind::C3d);
    assert_eq!(pool_misses, 0, "steady-state pool misses");
    assert_eq!(
        allocations,
        2 * STEADY_FRAMES as u64,
        "per steady C3D window"
    );
}

/// What steady EESEN-tiny sequences of `len` timesteps allocate under
/// `config`, and how often they miss the pool, after three warm-up sequences
/// (calibration, the state-initialising one, one steady to grow the scratch).
fn steady_sequence_allocations(config: &ReuseConfig, len: usize) -> (u64, u64) {
    let w = Workload::build(WorkloadKind::Eesen, Scale::Tiny);
    let mut session = ReuseSession::from_network(w.network(), config);
    let sequences = w.generate_sequences(3 + 4, len, 13);
    let (warm_up, steady) = sequences.split_at(3);
    let mut out = Vec::new();
    for sequence in warm_up {
        session.execute_sequence_into(sequence, &mut out).unwrap();
    }
    let misses = session.pool_stats().misses;
    let before = ALLOCATIONS.with(Cell::get);
    for sequence in steady {
        session.execute_sequence_into(sequence, &mut out).unwrap();
        assert_eq!(out.len(), len * 10);
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    (allocations, session.pool_stats().misses - misses)
}

#[test]
fn eesen_steady_sequences_are_allocation_free() {
    let w = Workload::build(WorkloadKind::Eesen, Scale::Tiny);
    let on = w.reuse_config().clone();
    let mixed = on.clone().disable_layer("bilstm2");
    let off = mixed.clone().disable_layer("bilstm1");
    // 130 timesteps is two 64-step blocks and a bit: nothing once grown.
    for (config, len) in [(&on, 40), (&mixed, 40), (&off, 40), (&on, 130), (&off, 130)] {
        let (allocations, pool_misses) = steady_sequence_allocations(config, len);
        assert_eq!(pool_misses, 0, "steady-state pool misses at {len} steps");
        assert_eq!(allocations, 0, "steady EESEN sequences of {len} allocated");
    }
}
