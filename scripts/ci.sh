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

echo "== cargo test (workspace, forced REUSE_SIMD=off) =="
# Both levels owe the naive oracles the same bits, and every assertion is
# the same at both; this pass is what runs the scalar fallback bodies end to
# end on an AVX2 host (a mistyped REUSE_SIMD value panics, it does not fall
# back to the detected level).
REUSE_SIMD=off cargo test --workspace -q

echo "== telemetry overhead smoke (budget ${REUSE_TELEMETRY_OVERHEAD_PCT:-5}%) =="
# Telemetry recording must stay in the noise of a steady-state frame; the
# bench binary times 81 mirrored off/on rounds and exits nonzero when the
# median on/off ratio, less what the rounds can resolve, exceeds the budget.
cargo run --release -q -p reuse-bench --bin kernel_bench -- --telemetry-smoke

echo "== kernel perf smoke (constant floors under AVX2) =="
# Under AVX2 the packed matmul and the two conv forward rows (the same GEMM
# under im2col blocks) must sustain their absolute GFLOP/s floors and the
# reuse / recurrent rows their ratios; a host without AVX2/FMA prints every
# row and gates none.
cargo run --release -q -p reuse-bench --bin kernel_bench -- --perf-smoke

echo "== multi-session smoke (4 sessions, one compiled model) =="
# Interleaves four ReuseSessions over one shared CompiledModel and checks
# every stream bit-for-bit (outputs and metrics, so per-session hit rates
# match a single-session run exactly) against standalone sessions; the CLI
# exits nonzero on any divergence.
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin reuse_cli -- run kaldi 40 --sessions 4
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin reuse_cli -- run eesen 20 --sessions 3

echo "== serving-runtime smoke (StreamServer vs standalone sessions) =="
# Serves N offset streams through one StreamServer and checks every output
# and per-stream metrics bit-for-bit against standalone ReuseSessions; the
# CLI exits 6 on serve/standalone divergence.
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin reuse_cli -- serve kaldi --streams 4 --frames 32 > /dev/null
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin reuse_cli -- serve eesen --streams 3 --frames 20 > /dev/null

echo "== cross-stream signature-cache smoke (capacity 0 + full capacity) =="
# Two passes: with the cache compiled in at capacity 0 the server must stay
# bit-identical to standalone sessions (exactly today's behavior), then a
# full-capacity pass checks completion and that the cache is actually
# consulted (lookups > 0). Exit 6 on either failure.
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin reuse_cli -- serve kaldi --streams 4 --frames 32 --sig-cache > /dev/null
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin reuse_cli -- serve eesen --streams 3 --frames 20 --sig-cache > /dev/null

echo "== reuse-policy smoke (tune round trip) =="
# The replay auto-tuner must emit a policy file that reparses and
# recompiles to the same per-layer operating points (exit 4 on round-trip
# mismatch, 5 on I/O failure); the StaticPolicy bit-identity suite ran at
# both SIMD levels inside the workspace passes above.
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin reuse_cli -- tune kaldi --smoke --out target/tuned-kaldi-smoke.json > /dev/null

echo "== serve-net loopback smoke (TCP round-trip vs standalone) =="
# Starts the sharded tier behind a real loopback TCP socket, drives streams
# through the in-tree binary-protocol client, and checks every response
# payload bit-for-bit against standalone ReuseSessions (exit 6 on
# divergence).
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin reuse_cli -- serve-net kaldi --streams 4 --frames 32 --smoke > /dev/null

echo "== ONNX ingest smoke (fixture bit-identity + fallback serving) =="
# The checked-in Gemm+Relu fixture must lower to a network that executes
# bit-identically to its hand-built twin through a reuse session, and a
# graph with an unsupported op must still serve via a recompute-always
# passthrough slot (full MACs charged, zero reuse recorded). Exit 4 on
# divergence, 3 on parse/lower failure.
cargo run --release -q -p reuse-bench --bin reuse_cli -- ingest --smoke > /dev/null
cargo run --release -q -p reuse-bench --bin reuse_cli -- ingest crates/onnx-ingest/testdata/gemm_relu.onnx 64 > /dev/null

echo "== serve throughput smoke (scaling floor ${REUSE_SERVE_MIN_SCALING:-0.9}x, fps floor ${REUSE_SERVE_MIN_FPS:-1.0}) =="
# Aggregate frames/sec must not drop as the server goes from 1 to 8 streams
# (the tick loop amortizes per-tick overhead); floors are tunable for
# noisy hosts via REUSE_SERVE_MIN_SCALING / REUSE_SERVE_MIN_FPS.
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin serve_bench -- --perf-smoke

echo "== sharded open-loop smoke (shard-scaling + p99 floors) =="
# Worker-driven ShardedServer: 64-stream throughput (median of three
# alternating 1-vs-64-stream pairs) must clear the host-aware
# REUSE_SERVE_MIN_SHARD_SCALING floor (default 0.9 x (hardware threads - 1)
# within [1.0, 2.5]: the closed-loop driver occupies one hardware thread,
# so a host of up to two threads only has to not lose throughput, a
# many-core host must scale), and the open-loop p99 at half capacity must
# stay under REUSE_SERVE_MAX_P99_NS (default 50 ms).
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
# Then the cross-level gate: the same smokes under REUSE_SIMD=off must print
# the same `output checksum` lines — one set of bits at every SIMD level,
# end to end through sessions, serving and the wire.
quick_smokes() {
    for workload in kaldi_stream eesen_stream autopilot_stream c3d_stream net_closed_loop; do
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --workload "$workload" --quick
    done
}
quick_smokes > target/quick-smokes-detected.txt
if grep -q 'detected scalar' target/quick-smokes-detected.txt; then
    echo "the detected level is already scalar: cross-level checksum gate skipped"
else
    REUSE_SIMD=off quick_smokes > target/quick-smokes-scalar.txt
    diff <(grep -E '^workload |output checksum' target/quick-smokes-detected.txt) \
        <(grep -E '^workload |output checksum' target/quick-smokes-scalar.txt)
fi

echo "== repro report smoke (all ten artifacts, tiny scale) =="
# The paper-artifact binaries are subcommands of one `repro` binary; `all`
# measures each workload once and renders every artifact from it, so every
# experiment path runs here (an unknown subcommand or a malformed
# REUSE_SCALE exits 2).
REUSE_SCALE=tiny cargo run --release -q -p reuse-bench --bin repro -- all > /dev/null

echo "== retired-names guard (one recorder: benchmark/; kernels are serial; one full-precision layer path, frame-wise and recurrent; one set of bits at every SIMD level; one record of a layer step) =="
# The recorded-artifact files, the measurement disk cache, the session
# threading knob, the kernel thread runtime, the `_with` kernel entries, the
# session's tensor-API fallback fork with the pool machinery around it, the
# `Tensor`-typed kernel wrappers, the profiler reservoir, the cloning LSTM
# cell update, the per-level tolerance pair, the three kernel-floor
# overrides, the per-layer telemetry rings with their window knob and the
# in-walk trace builders are gone; this line is their one permitted mention.
if grep -rnE 'BENCH_kernels|BENCH_serve|REUSE_NO_CACHE|REUSE_CACHE_DIR|REUSE_INLINE_FLOPS|load_artifact|cached_measurement|parallel_from_env|parallel_for_|with_threads|oversubscribed|REUSE_THREADS|forward_linear_with|matmul_with|fc_forward_with|conv_forward_with|pool_intact|reshape_to_layer|calibration_sequence\b|calibration_execute|group_max_into|percentile_range|conv_forward_packed|max_pool2d_mode|max_pool3d_mode|step_from_preactivations\b|fma_tolerance|\bis_bit_exact|REUSE_BLOCKED_MIN_SPEEDUP|REUSE_BLOCKED_MIN_GFLOPS|REUSE_CONV_REUSE_MIN_SPEEDUP|EngineTelemetry|LayerTelemetry\b|telemetry_window|weight_fetches|correction_output_accesses|record_layer_execution|seq_spans' crates src tests examples README.md DESIGN.md EXPERIMENTS.md .claude; then
    echo "retired names are back in the tree" >&2
    exit 1
fi

echo "== cargo doc (no-deps, -D warnings) =="
# The model/session split is documented API surface; broken intra-doc links
# or missing docs fail the build.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== non-test lines per crate (the counts ROADMAP.md quotes) =="
./scripts/loc.sh

echo "CI OK"
