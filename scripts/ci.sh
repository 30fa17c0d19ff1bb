#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, full test suite.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (workspace, detected SIMD level) =="
cargo test --workspace -q

echo "== cargo test (workspace, REUSE_SIMD=avx2) =="
# Every level owes the naive oracles the same bits, and every assertion is
# the same at each; on an AVX-512 host this pass is what runs the AVX2
# bodies of the conv forward and the multi-row matmul end to end (`avx2`
# caps the level; on an AVX2 host it repeats the pass above).
REUSE_SIMD=avx2 cargo test --workspace -q

echo "== cargo test (workspace, forced REUSE_SIMD=off) =="
# This pass is what runs the scalar fallback bodies end to end on a vector
# host (a mistyped REUSE_SIMD value panics, it does not fall back to the
# detected level).
REUSE_SIMD=off cargo test --workspace -q

echo "== telemetry overhead smoke (budget 5%) =="
# Telemetry recording must stay in the noise of a steady-state frame; the
# bench binary times 81 mirrored off/on rounds and exits nonzero when the
# median on/off ratio, less what the rounds can resolve, exceeds the budget.
cargo run --release -q -p reuse-bench --bin kernel_bench -- --telemetry-smoke

echo "== kernel perf smoke (constant floors at every vector level) =="
# The packed matmul and the four conv forward rows (taps read straight from
# the frame) must sustain their absolute GFLOP/s floors and the reuse /
# recurrent rows their ratios, under REUSE_SIMD=avx2 (the AVX2 floors) and at
# the detected level (the AVX-512 floors on an AVX-512 host; the same run
# again on an AVX2 host); a host without AVX2/FMA prints every row and gates
# none. A failing row here still fails CI, but only after the last gate below
# has run: the bit-exactness gates after this one do not depend on the
# floors, and a floor miss must not hide a lost bit.
perf_rc=0
REUSE_SIMD=avx2 cargo run --release -q -p reuse-bench --bin kernel_bench -- --perf-smoke || perf_rc=$?
cargo run --release -q -p reuse-bench --bin kernel_bench -- --perf-smoke || perf_rc=$?

echo "== multi-session smoke (4 sessions, one compiled model) =="
# Interleaves four ReuseSessions over one shared CompiledModel and checks
# every stream bit-for-bit (outputs and metrics, so per-session hit rates
# match a single-session run exactly) against standalone sessions; the CLI
# exits nonzero on any divergence.
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin reuse_cli -- run kaldi 40 --sessions 4
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin reuse_cli -- run eesen 20 --sessions 3

echo "== serving-runtime smoke (ShardedServer vs standalone sessions) =="
# Serves N offset streams through a single-shard ShardedServer ticked by the
# CLI, three frames per stream per round (so a tick's block holds several frames of one stream and Kaldi's
# reuse-disabled FC1/FC2 run them as one GEMM), and checks every output and
# per-stream metrics bit-for-bit against standalone ReuseSessions; the CLI
# exits 6 on serve/standalone divergence. The EESEN run takes the same block
# walk, every stream's next sequence per wave.
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin reuse_cli -- serve kaldi --streams 4 --frames 32 > /dev/null
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin reuse_cli -- serve eesen --streams 3 --frames 20 > /dev/null

echo "== serve-net loopback smoke (TCP round-trip vs standalone) =="
# Starts the sharded tier behind a real loopback TCP socket, drives streams
# through the in-tree binary-protocol client (three pipelined frames per
# stream per round), and checks every response
# payload bit-for-bit against standalone ReuseSessions (exit 6 on
# divergence).
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin reuse_cli -- serve-net kaldi --streams 4 --frames 32 --smoke > /dev/null

echo "== serve throughput smoke (scaling floor 0.9x, fps floor 1.0) =="
# Aggregate frames/sec must not drop as the server goes from 1 to 8 streams
# (the tick loop amortizes per-tick overhead); the floors are constants.
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin serve_bench -- --perf-smoke

echo "== sharded open-loop smoke (shard-scaling + p99 floors) =="
# Worker-driven ShardedServer: 64-stream throughput (median of three
# alternating 1-vs-64-stream pairs) must clear the host-aware floor
# 0.9 x (hardware threads - 1) within [1.0, 2.5] (the closed-loop driver
# occupies one hardware thread, so a host of up to two threads only has to
# not lose throughput, a many-core host must scale), and the open-loop p99
# at half capacity must stay under 50 ms.
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin serve_bench -- --open-loop --perf-smoke

echo "== repository benchmark crate (build, tests, quick smoke) =="
# benchmark/ is its own workspace root, so nothing above compiles it: an
# API change in crates/ that breaks it must fail here, not at the next
# benchmark run.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml
# One stream workload per layer family (FC, LSTM, one conv per rank), each
# verifying its stream against a from-scratch rerun and the fp32 reference
# before exiting 0, plus the wire tier over the same sessions and configs.
# Then two checksum gates. Across commits: the smokes' `workload` and
# `output checksum` lines must equal scripts/quick-checksums.txt (a change
# that moves bits on purpose updates that file in the same diff). Across
# levels: the same smokes under REUSE_SIMD=off — and, on an AVX-512 host,
# under REUSE_SIMD=avx2 — must print the same lines: one set of bits at
# every SIMD level, end to end through sessions, serving and the wire.
quick_smokes() {
    for workload in kaldi_stream eesen_stream autopilot_stream c3d_stream net_closed_loop; do
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --workload "$workload" --quick
    done
}
checksums() { grep -E '^workload |output checksum' "$1"; }
quick_smokes > target/quick-smokes-detected.txt
diff scripts/quick-checksums.txt <(checksums target/quick-smokes-detected.txt)
if grep -q 'detected scalar' target/quick-smokes-detected.txt; then
    echo "the detected level is already scalar: cross-level checksum gate skipped"
else
    REUSE_SIMD=off quick_smokes > target/quick-smokes-scalar.txt
    diff scripts/quick-checksums.txt <(checksums target/quick-smokes-scalar.txt)
fi
if grep -q 'detected avx512f+fma' target/quick-smokes-detected.txt; then
    REUSE_SIMD=avx2 quick_smokes > target/quick-smokes-avx2.txt
    diff scripts/quick-checksums.txt <(checksums target/quick-smokes-avx2.txt)
fi

echo "== repro report smoke (all ten artifacts, tiny scale) =="
# The paper-artifact binaries are subcommands of one `repro` binary; `all`
# measures each workload once and renders every artifact from it, so every
# experiment path runs here (an unknown subcommand or a malformed
# REUSE_SCALE exits 2).
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin repro -- all > /dev/null
# The design-choice studies (`repro ablations`) render from the same
# measurements plus their own sweeps; this runs their code too.
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin repro -- ablations > /dev/null

echo "== retired-names guard (one recorder: benchmark/; kernels are serial; one full-precision layer path, frame-wise and recurrent; one set of bits at every SIMD level; one record of a layer step; one walk for both network kinds, the block; one fixed reuse scheme per network, temporal only; one conv forward, no unroll stage; networks built in code only: no ONNX reader, no passthrough layer kind, no text model format; one server type, constant CI floors; no module without a caller, packs live in their layers; one stream lifecycle in the serving tier, no priority lane; the net tier wakes on events, not on a timer; no drift watchdog, a block run cut only where calibration ends; no library code only tests reach, no JSON reader) =="
# The recorded-artifact files, the measurement disk cache, the session
# threading knob, the kernel thread runtime, the `_with` kernel entries, the
# session's tensor-API fallback fork with the pool machinery around it, the
# `Tensor`-typed kernel wrappers, the profiler reservoir, the cloning LSTM
# cell update, the per-level tolerance pair, the three kernel-floor
# overrides, the per-layer telemetry rings with their window knob, the
# in-walk trace builders, the per-frame feed-forward walk, the one-row FC
# panel walk beside the matmul, the cross-stream signature cache with its
# hash planes and CLI flag, the per-layer policy layer with its controller,
# policy files and step-rescaling quantizer, and the session's and the
# server's second walk for recurrent networks with the sequence-only step
# beside the frame step, the conv forward's im2col unroll stage with its
# block budget, the ONNX reader crate with its CLI subcommand, the
# recompute-always passthrough layer kind with its reuse state, the `nn`
# text model format with its error type, the five serving and telemetry
# floor overrides, the CSV export, the driver's serving-tier trait and the
# per-shard tick entry, the offline replay with its input recorder, the
# config sweep, the ring interconnect model, the synthetic dataset splits, the
# model's mirror of the layers' packs, the range-margin and
# shed-watermark setters, and the serving tier's priority lane (its enum,
# option, wire flag and pending counters) with the shard's copy of evicted
# streams' dropped outputs, the network event loop's timed idle nap, and the
# session's drift watchdog (its three config knobs, the check and the
# re-baseline walk with its per-slot refresh and strike count, the layers'
# baseline read-back and adoption, and its drift counters), the strict JSON
# reader with its path lookup, the session's second full-precision forward,
# the tensor API only tests called (elementwise add/sub/scale, tolerance
# compare, max-magnitude fold, indexed access and its two error kinds, the
# constant fill, the packing `Tensor` matmul) and the blocking model's
# block count are gone; this line is their one permitted mention.
if grep -rnE 'BENCH_kernels|BENCH_serve|REUSE_NO_CACHE|REUSE_CACHE_DIR|REUSE_INLINE_FLOPS|load_artifact|cached_measurement|parallel_from_env|parallel_for_|with_threads|oversubscribed|REUSE_THREADS|forward_linear_with|matmul_with|fc_forward_with|conv_forward_with|pool_intact|reshape_to_layer|calibration_sequence\b|calibration_execute|group_max_into|percentile_range|conv_forward_packed|max_pool2d_mode|max_pool3d_mode|step_from_preactivations\b|fma_tolerance|\bis_bit_exact|REUSE_BLOCKED_MIN_SPEEDUP|REUSE_BLOCKED_MIN_GFLOPS|REUSE_CONV_REUSE_MIN_SPEEDUP|EngineTelemetry|LayerTelemetry\b|telemetry_window|weight_fetches|correction_output_accesses|record_layer_execution|seq_spans|walk_frame|fc_panels|signature_cache|SignatureCache|SignatureStats|RpqPlanes|ReusePolicy|StaticPolicy|AdaptivePolicy|AdaptiveController|TunedPolicy|LayerPolicy|reuse_threshold|step_scale|policy_layers|sig-cache|with_step|walk_sequence|process_sequences|seq_scratch|seq_meta|per_sequence_only|\bstep_sequence\b|im2col_rows|IM2COL_BLOCK_BYTES|reuse_onnx_ingest|onnx-ingest|PassthroughLayer|PassthroughOp|PassthroughReuseState|LayerKind::Passthrough|SerializeError|reuse_nn::serialize|nn::serialize|REUSE_SERVE_MIN_SCALING|REUSE_SERVE_MIN_FPS|REUSE_SERVE_MIN_SHARD_SCALING|REUSE_SERVE_MAX_P99_NS|REUSE_TELEMETRY_OVERHEAD_PCT|REUSE_CSV_DIR|maybe_export_layers|impl Tier for|tick_shard|reuse_core::replay|InputRecorder|replay_sweep|ConfigSweep|SweepResult|accel::noc|RingTraffic|workloads::datasets|DatasetSpec|CompiledWeights|range_margin|shed_watermark|\bPriority\b|high_priority|FLAG_HIGH_PRIORITY|high_pending|evicted_outputs_dropped|IDLE_SLEEP|drift_watchdog|drift_escalate_after|drift_check_every|drift_bound|watchdog_check|rebaseline_frame|drift_strikes|refresh_slot|buffered_linear|expect_qx|last_drift|max_drift|json::parse|json::Value|has_path|approx_eq|reference_forward|blocks_per_map|ops::add|ops::sub|ops::scale|zip_map|\.max_abs\(\)|RankMismatch|OutOfBounds|Tensor::full' crates src tests examples README.md DESIGN.md EXPERIMENTS.md .claude; then
    echo "retired names are back in the tree" >&2
    exit 1
fi

echo "== cargo doc (no-deps, -D warnings) =="
# The model/session split is documented API surface; broken intra-doc links
# or missing docs fail the build.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== non-test lines per crate (the counts ROADMAP.md quotes) =="
./scripts/loc.sh

if [ "$perf_rc" -ne 0 ]; then
    echo "kernel perf smoke failed (exit $perf_rc); every other gate passed" >&2
    exit "$perf_rc"
fi
echo "CI OK"
