//! Experiment harness for the `reuse-dnn` reproduction.
//!
//! One `repro` subcommand per paper table/figure (see DESIGN.md's
//! experiment index), plus `repro all` and `repro ablations`:
//!
//! | `repro <name>`      | paper artifact |
//! |---------------------|----------------|
//! | `table1`            | Table I — per-layer computation reuse + accuracy proxy |
//! | `fig4`              | Fig. 4 — relative input difference over a Kaldi utterance |
//! | `fig5`              | Fig. 5 — input similarity & computation reuse per DNN |
//! | `fig9`              | Fig. 9 — accelerator speedup per DNN |
//! | `fig10`             | Fig. 10 — normalized energy per DNN |
//! | `fig11`             | Fig. 11 — energy breakdown per component |
//! | `table2`            | Table II — accelerator parameters |
//! | `table3`            | Table III — memory overheads |
//! | `fig12`             | Fig. 12 — comparison with CPU (i7-7700K) and GPU (GTX 1080) |
//! | `reduced_precision` | Section VI-A — 8-bit fixed-point accelerator |
//!
//! All subcommands share [`measure`], which runs a workload through a reuse
//! session and collects the per-layer metrics and activity traces; nothing
//! is kept on disk. [`experiments::Measurements`] holds what one process has
//! measured, so `repro all` runs each workload once for all ten artifacts.
//! Set `REUSE_SCALE=full|small|tiny` to choose the model scale and
//! `REUSE_EXECUTIONS=N` to override the number of DNN executions measured;
//! a malformed value of either exits with status 2.
//!
//! Performance is recorded by the repository benchmark (`benchmark/`,
//! `BENCHMARK.json`) and nowhere else: `kernel_bench` and `serve_bench` only
//! hold floors (`--perf-smoke`, `--telemetry-smoke`) and write no file.

pub mod ablations;
pub mod csv;
pub mod experiments;
pub mod measure;
pub mod streams;
pub mod table;

pub use measure::{measure_workload, LayerSummary, Measurement};
pub use reuse_workloads::env_parse;
