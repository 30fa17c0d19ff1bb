//! Criterion benchmarks of the higher layers: the reuse engine driving a
//! whole network, and the trace-driven accelerator simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use reuse_accel::{AcceleratorConfig, SimInput, Simulator};
use reuse_bench::measure_workload;
use reuse_core::ReuseSession;
use reuse_workloads::{Scale, Workload, WorkloadKind};

fn bench_engine_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(20);
    for kind in [WorkloadKind::Kaldi, WorkloadKind::AutoPilot] {
        let workload = Workload::build(kind, Scale::Tiny);
        let frames = workload.generate_frames(64, 1);
        group.bench_function(format!("{}_tiny_execute", kind.name()), |b| {
            let mut engine =
                ReuseSession::from_network(workload.network(), workload.reuse_config());
            // Warm through calibration + scratch.
            engine.execute(&frames[0]).unwrap();
            engine.execute(&frames[1]).unwrap();
            let mut i = 2;
            b.iter(|| {
                let f = &frames[i % frames.len()];
                i += 1;
                engine.execute(std::hint::black_box(f)).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_engine_vs_scratch(c: &mut Criterion) {
    // The end-to-end software win: executing the next frame incrementally
    // versus running the full network.
    let workload = Workload::build(WorkloadKind::Kaldi, Scale::Small);
    let frames = workload.generate_frames(32, 2);
    let mut group = c.benchmark_group("kaldi_small_end_to_end");
    group.sample_size(20);
    group.bench_function("fp32_from_scratch", |b| {
        b.iter(|| {
            workload
                .network()
                .forward_flat(std::hint::black_box(&frames[5]))
                .unwrap()
        })
    });
    group.bench_function("reuse_incremental", |b| {
        let mut engine = ReuseSession::from_network(workload.network(), workload.reuse_config());
        for f in frames.iter().take(4) {
            engine.execute(f).unwrap();
        }
        let mut i = 4;
        b.iter(|| {
            let f = &frames[i % frames.len()];
            i += 1;
            engine.execute(std::hint::black_box(f)).unwrap()
        })
    });
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let m = measure_workload(WorkloadKind::AutoPilot, Scale::Tiny, 24, 3);
    let sim = Simulator::new(AcceleratorConfig::paper());
    let input = SimInput {
        name: "autopilot-tiny",
        traces: &m.traces,
        model_bytes: m.model_bytes,
        executions_per_sequence: m.executions_per_sequence,
        activations_spill: m.activations_spill,
    };
    c.bench_function("simulate_24_executions", |b| {
        b.iter(|| {
            let base = sim.simulate_baseline(std::hint::black_box(&input));
            let reuse = sim.simulate_reuse(std::hint::black_box(&input));
            (base.cycles, reuse.cycles)
        })
    });
}

fn bench_cache_round_trip(c: &mut Criterion) {
    let m = measure_workload(WorkloadKind::Kaldi, Scale::Tiny, 16, 4);
    let text = reuse_bench::cache::serialize(&m);
    c.bench_function("trace_serialize", |b| {
        b.iter(|| reuse_bench::cache::serialize(std::hint::black_box(&m)))
    });
    c.bench_function("trace_deserialize", |b| {
        b.iter(|| reuse_bench::cache::deserialize(std::hint::black_box(&text)).unwrap())
    });
}

criterion_group!(
    benches,
    bench_engine_execution,
    bench_engine_vs_scratch,
    bench_simulator,
    bench_cache_round_trip
);
criterion_main!(benches);
