//! Zero-allocation contract of the steady-state hot path.
//!
//! A counting global allocator wraps the system allocator; once the engine
//! reaches steady state (calibrated, buffered state initialized, pool
//! primed), `execute_into` must not allocate at all: every layer's
//! intermediate — stepped or run at full precision — comes from the engine's
//! recycling pool and per-layer scratch (changed lists, quantized codes,
//! buffered outputs) is reused in place. `execute_sequence_into` is under
//! the same contract on recurrent networks once its buffers have grown to
//! the longest sequence seen.
//!
//! The count is per thread: the harness runs these tests on parallel
//! threads, and a process-wide counter would charge each test with the
//! others' allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use reuse_core::{ReuseConfig, ReuseSession};
use reuse_nn::{init::Rng64, Activation, NetworkBuilder};

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
fn steady_state_execute_into_is_allocation_free() {
    let net = NetworkBuilder::new("steady", 32)
        .fully_connected(64, Activation::Relu)
        .fully_connected(48, Activation::Relu)
        .fully_connected(10, Activation::Identity)
        .build()
        .unwrap();
    let mut engine = ReuseSession::from_network(&net, &ReuseConfig::uniform(16));

    let mut rng = Rng64::new(9);
    let mut frame: Vec<f32> = (0..32).map(|_| rng.uniform(0.9)).collect();
    let mut out = Vec::new();

    // Calibration, state-initializing first reuse execution, and one steady
    // frame to prime the buffer pool and `out`'s capacity.
    for _ in 0..3 {
        engine.execute_into(&frame, &mut out).unwrap();
    }

    let before = thread_allocations();
    for _ in 0..10 {
        // Drift a few inputs in place so the incremental path does real
        // correction work, not just the all-reused fast case.
        for _ in 0..8 {
            let i = (rng.next_u64() % 32) as usize;
            frame[i] = (frame[i] + rng.uniform(0.5)).clamp(-1.0, 1.0);
        }
        engine.execute_into(&frame, &mut out).unwrap();
        assert_eq!(out.len(), 10);
    }
    let allocations = thread_allocations() - before;
    assert_eq!(
        allocations, 0,
        "steady-state frames allocated {allocations} times"
    );
}

fn three_slot_mlp(name: &str) -> reuse_nn::Network {
    NetworkBuilder::new(name, 32)
        .fully_connected(64, Activation::Relu)
        .fully_connected(48, Activation::Relu)
        .fully_connected(10, Activation::Identity)
        .build()
        .unwrap()
}

/// Drifts a few inputs in place so the incremental path does real
/// correction work, not just the all-reused fast case.
fn drift(frame: &mut [f32], rng: &mut Rng64) {
    for _ in 0..8 {
        let i = (rng.next_u64() % frame.len() as u64) as usize;
        frame[i] = (frame[i] + rng.uniform(0.5)).clamp(-1.0, 1.0);
    }
}

#[test]
fn steady_state_with_telemetry_is_allocation_free() {
    // Telemetry windows are preallocated when the session opens; recording
    // into them (and the span timing around each layer) must not allocate.
    let net = three_slot_mlp("steady-tel");
    let config = ReuseConfig::uniform(16).telemetry(true);
    let mut engine = ReuseSession::from_network(&net, &config);

    let mut rng = Rng64::new(11);
    let mut frame: Vec<f32> = (0..32).map(|_| rng.uniform(0.9)).collect();
    let mut out = Vec::new();
    // Every incremental step's unchanged share per slot, read off the
    // metrics sums as they grow (room reserved, so noting one allocates
    // nothing).
    let mut shares: Vec<Vec<f32>> = (0..3).map(|_| Vec::with_capacity(128)).collect();
    let mut seen = vec![(0u64, 0u64); 3];
    let mut note_shares = |engine: &ReuseSession| {
        for ((m, seen), shares) in engine
            .metrics()
            .layers
            .iter()
            .zip(&mut seen)
            .zip(&mut shares)
        {
            let (inputs, unchanged) = (m.inputs_total - seen.0, m.inputs_unchanged - seen.1);
            if inputs > 0 {
                shares.push(unchanged as f32 / inputs as f32);
            }
            *seen = (m.inputs_total, m.inputs_unchanged);
        }
    };
    for _ in 0..3 {
        engine.execute_into(&frame, &mut out).unwrap();
        note_shares(&engine);
    }

    let before = thread_allocations();
    for _ in 0..70 {
        drift(&mut frame, &mut rng);
        engine.execute_into(&frame, &mut out).unwrap();
        assert_eq!(out.len(), 10);
        note_shares(&engine);
    }
    let allocations = thread_allocations() - before;
    assert_eq!(
        allocations, 0,
        "telemetry-on steady-state frames allocated {allocations} times"
    );

    // Of the 73 executions one was calibration, so 72 were reuse-phase
    // frames; the first of those initialized state from scratch, leaving 71
    // recorded steps per slot — more than the window, which therefore
    // wrapped and reports the last 64 of them while the sums kept counting.
    let snap = engine.telemetry_snapshot().unwrap();
    assert_eq!(snap.frames, 72);
    assert_eq!(snap.window, reuse_core::TELEMETRY_WINDOW);
    for (layer, shares) in snap.layers.iter().zip(&shares) {
        assert_eq!(layer.reuse_executions, 71);
        assert_eq!(shares.len(), 71);
        let recent = &shares[shares.len() - 64..];
        let mean = recent.iter().map(|&s| f64::from(s)).sum::<f64>() / 64.0;
        assert!(
            (layer.hit_rate_window - mean).abs() < 1e-9,
            "{}: window {} vs last 64 steps {mean}",
            layer.name,
            layer.hit_rate_window
        );
        assert!(layer.span_ns_window > 0.0, "{}: timed", layer.name);
    }
}

#[test]
fn traced_steady_frames_only_grow_the_log() {
    // Recording a trace appends `Copy` step records to one flat log: a
    // steady traced frame allocates nothing but the log's amortised growth,
    // and the traces materialised afterwards carry every layer's constants.
    use reuse_core::TraceKind;

    let net = three_slot_mlp("steady-traced");
    let config = ReuseConfig::uniform(16).record_trace(true);
    let mut engine = ReuseSession::from_network(&net, &config);

    let mut rng = Rng64::new(13);
    let mut frame: Vec<f32> = (0..32).map(|_| rng.uniform(0.9)).collect();
    let mut out = Vec::new();
    for _ in 0..3 {
        engine.execute_into(&frame, &mut out).unwrap();
    }
    let before = thread_allocations();
    for _ in 0..64 {
        drift(&mut frame, &mut rng);
        engine.execute_into(&frame, &mut out).unwrap();
    }
    let allocations = thread_allocations() - before;
    assert!(
        allocations <= 8,
        "64 traced steady frames allocated {allocations} times"
    );

    let traces = engine.take_traces();
    assert_eq!(traces.len(), 67);
    let dims = [("fc1", 32, 64), ("fc2", 64, 48), ("fc3", 48, 10)];
    for (e, trace) in traces.iter().enumerate() {
        assert_eq!(trace.layers.len(), 3, "execution {e}");
        for (l, (name, n_in, n_out)) in trace.layers.iter().zip(dims) {
            assert_eq!(l.name, name);
            assert_eq!(l.kind, reuse_nn::LayerKind::Fc);
            let expected_mode = match e {
                0 => TraceKind::ScratchFp32,
                1 => TraceKind::ScratchQuantized,
                _ => TraceKind::Incremental,
            };
            assert_eq!(l.mode, expected_mode, "execution {e} {name}");
            assert_eq!((l.n_inputs, l.n_outputs), (n_in, n_out));
            assert_eq!(l.n_params, n_in * n_out + n_out);
            assert_eq!(l.macs_total, n_in * n_out);
            assert_eq!(l.macs_performed, l.n_changed * n_out);
            assert!(
                e >= 2 || l.n_changed == n_in,
                "from scratch reads every input"
            );
        }
    }
    assert!(engine.take_traces().is_empty(), "the log was taken");
}

#[test]
fn session_steady_state_execute_into_is_allocation_free() {
    // The buffer pool lives in the per-stream session: two sessions sharing
    // one compiled model each reach a zero-alloc steady state independently,
    // even with their frames interleaved.
    use std::sync::Arc;

    use reuse_core::CompiledModel;

    let net = NetworkBuilder::new("steady-sessions", 32)
        .fully_connected(64, Activation::Relu)
        .fully_connected(48, Activation::Relu)
        .fully_connected(10, Activation::Identity)
        .build()
        .unwrap();
    let model = Arc::new(CompiledModel::new(&net, &ReuseConfig::uniform(16)));
    let mut a = model.new_session();
    let mut b = model.new_session();

    let mut rng = Rng64::new(23);
    let mut frame_a: Vec<f32> = (0..32).map(|_| rng.uniform(0.9)).collect();
    let mut frame_b: Vec<f32> = (0..32).map(|_| rng.uniform(0.9)).collect();
    let mut out_a = Vec::new();
    let mut out_b = Vec::new();

    // Calibration, state-initializing first reuse execution, and one steady
    // frame to prime each session's pool and the output capacities.
    for _ in 0..3 {
        a.execute_into(&frame_a, &mut out_a).unwrap();
        b.execute_into(&frame_b, &mut out_b).unwrap();
    }

    let before = thread_allocations();
    for _ in 0..10 {
        for _ in 0..8 {
            let i = (rng.next_u64() % 32) as usize;
            frame_a[i] = (frame_a[i] + rng.uniform(0.5)).clamp(-1.0, 1.0);
            let j = (rng.next_u64() % 32) as usize;
            frame_b[j] = (frame_b[j] + rng.uniform(0.5)).clamp(-1.0, 1.0);
        }
        a.execute_into(&frame_a, &mut out_a).unwrap();
        b.execute_into(&frame_b, &mut out_b).unwrap();
        // Bench hot loops poll these per frame; they must stay
        // allocation-free (borrowed names / `Copy` stats, regression guard
        // against the old per-call `Vec<String>`).
        assert_eq!(a.auto_disabled_layers().count(), 0);
        let _pool = b.pool_stats();
    }
    let allocations = thread_allocations() - before;
    assert_eq!(
        allocations, 0,
        "interleaved session steady-state frames allocated {allocations} times"
    );
}

#[test]
fn full_precision_layers_of_every_kind_stay_in_the_pool() {
    // One of each way a layer can run unstepped — a reuse-disabled conv, a
    // pool, a flatten, a group-max — around a reuse-enabled FC. None may
    // miss the pool once it is primed; the only allocations left are the
    // two the conv kernel owns (segment table with padded frame, block of
    // results), once per frame for the disabled conv.
    use reuse_tensor::Shape;

    let net = NetworkBuilder::with_input_shape("mixed", Shape::d3(2, 8, 8))
        .conv2d(4, 3, 1, 1, Activation::Relu)
        .pool2d(2)
        .flatten()
        .fully_connected(12, Activation::Relu)
        .group_max(3)
        .build()
        .unwrap();
    let config = ReuseConfig::uniform(16).disable_layer("conv1");
    let mut session = ReuseSession::from_network(&net, &config);

    let mut rng = Rng64::new(29);
    let mut frame: Vec<f32> = (0..128).map(|_| rng.uniform(0.9)).collect();
    let mut out = Vec::new();
    for _ in 0..3 {
        session.execute_into(&frame, &mut out).unwrap();
    }

    let misses = session.pool_stats().misses;
    let before = thread_allocations();
    for _ in 0..10 {
        for _ in 0..16 {
            let i = (rng.next_u64() % 128) as usize;
            frame[i] = (frame[i] + rng.uniform(0.5)).clamp(-1.0, 1.0);
        }
        session.execute_into(&frame, &mut out).unwrap();
        assert_eq!(out.len(), 4);
    }
    let allocations = thread_allocations() - before;
    assert_eq!(session.pool_stats().misses, misses, "steady pool misses");
    assert_eq!(
        allocations,
        2 * 10,
        "only the disabled conv's kernel scratch"
    );
    assert!(session.metrics().layer("fc1").unwrap().reuse_executions >= 10);
}

#[test]
fn steady_sequences_are_allocation_free_in_every_slot_mode() {
    // A BiLSTM and a unidirectional cell — stepped, reuse-disabled, and one
    // of each — under a stepped output FC (a frame-wise slot restarts from
    // scratch every sequence like the cells do, into buffers it kept), with
    // telemetry timing every timestep. Each session warms up on 40-step
    // sequences, grows once on a 130-step one (two 64-step blocks and a
    // bit), and from then on neither length allocates.
    let net = NetworkBuilder::new("steady-rnn", 12)
        .seed(5)
        .bilstm(9)
        .lstm(7)
        .fully_connected(4, Activation::Identity)
        .build()
        .unwrap();
    let on = ReuseConfig::uniform(16).telemetry(true);
    let mixed = on.clone().disable_layer("bilstm1");
    let off = mixed.clone().disable_layer("lstm1");
    let mut rng = Rng64::new(41);
    let mut frame = vec![0.0f32; 12];
    let mut sequence = |len: usize| -> Vec<Vec<f32>> {
        (0..len)
            .map(|_| {
                for v in &mut frame {
                    *v = (*v + rng.uniform(0.1)).clamp(-1.0, 1.0);
                }
                frame.clone()
            })
            .collect()
    };
    let warm_up = [sequence(40), sequence(40), sequence(40), sequence(130)];
    let steady = [sequence(130), sequence(40), sequence(130), sequence(40)];
    for (name, config) in [("on", &on), ("mixed", &mixed), ("off", &off)] {
        let mut session = ReuseSession::from_network(&net, config);
        let mut out = Vec::new();
        for xs in &warm_up {
            session.execute_sequence_into(xs, &mut out).unwrap();
        }
        let misses = session.pool_stats().misses;
        let before = thread_allocations();
        for xs in &steady {
            session.execute_sequence_into(xs, &mut out).unwrap();
            assert_eq!(out.len(), xs.len() * 4);
        }
        let allocations = thread_allocations() - before;
        assert_eq!(session.pool_stats().misses, misses, "{name}: pool misses");
        assert_eq!(allocations, 0, "{name}: steady sequences allocated");
        let stepped = |layer| session.metrics().layer(layer).unwrap().reuse_executions;
        assert_eq!(stepped("lstm1") > 0, name != "off", "{name}: lstm1 steps");
        assert!(stepped("fc1") > 0, "{name}: fc1 steps");
    }
}

#[test]
fn conv_state_steady_frames_are_allocation_free() {
    // Pass 1 writes the precomputed delta list into capacity reserved at
    // construction and pass 2 walks the buffered outputs in place against the
    // shared pack, so steady-state frames must not allocate.
    use reuse_core::conv::{Conv2dPack, Conv2dReuseState};
    use reuse_nn::Conv2dLayer;
    use reuse_quant::{InputRange, LinearQuantizer};
    use reuse_tensor::conv::Conv2dSpec;
    use reuse_tensor::{ParallelConfig, Shape};

    let spec = Conv2dSpec {
        in_channels: 3,
        out_channels: 8,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
    };
    let layer = Conv2dLayer::random(spec, Activation::Identity, &mut Rng64::new(5));
    let quantizer = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 32).unwrap();
    let in_shape = Shape::d3(3, 12, 12);
    let pack = Conv2dPack::new(&layer);
    let mut state = Conv2dReuseState::new(&layer, &in_shape).unwrap();

    let mut rng = Rng64::new(17);
    let mut frame: Vec<f32> = (0..in_shape.volume()).map(|_| rng.uniform(0.9)).collect();
    let mut out = Vec::new();
    let config = ParallelConfig::serial();

    // From-scratch init, then one incremental frame to size `out`.
    for _ in 0..2 {
        state
            .execute_into_packed(&config, &layer, &pack, &quantizer, &frame, &mut out)
            .unwrap();
    }

    let before = thread_allocations();
    for _ in 0..10 {
        for _ in 0..16 {
            let i = (rng.next_u64() % frame.len() as u64) as usize;
            frame[i] = (frame[i] + rng.uniform(0.5)).clamp(-1.0, 1.0);
        }
        let stats = state
            .execute_into_packed(&config, &layer, &pack, &quantizer, &frame, &mut out)
            .unwrap();
        assert!(stats.n_changed > 0, "drifted frame must correct something");
    }
    let allocations = thread_allocations() - before;
    assert_eq!(
        allocations, 0,
        "steady-state conv frames allocated {allocations} times"
    );
}
