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
//! All subcommands share [`measure`]: it runs each workload through a reuse
//! session once and caches the per-layer metrics and activity traces on
//! disk, so regenerating every figure costs one run per workload.
//! Set `REUSE_SCALE=full|small|tiny` to choose the model scale and
//! `REUSE_EXECUTIONS=N` to override the number of DNN executions measured.

pub mod ablations;
pub mod cache;
pub mod csv;
pub mod experiments;
pub mod measure;
pub mod streams;
pub mod table;

pub use measure::{measure_workload, parallel_from_env, LayerSummary, Measurement};

/// The environment variable `name`, parsed; `None` when unset or malformed.
pub fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.parse().ok()
}

/// Reads a `BENCH_*.json` artifact for a `--validate` check: the file must
/// parse under the strict reader, name `bench` as its writer, and resolve
/// every path in `required` (see [`reuse_core::json::Value::has_path`]).
///
/// # Errors
///
/// Returns the message to print: unreadable or malformed file, or the
/// list of missing keys.
pub fn load_artifact(
    path: &str,
    bench: &str,
    required: &[&str],
) -> Result<reuse_core::json::Value, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let root = reuse_core::json::parse(&body).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let mut missing: Vec<&str> = required
        .iter()
        .filter(|key| !root.has_path(key))
        .copied()
        .collect();
    if root.get("bench").and_then(|b| b.as_str()) != Some(bench) {
        missing.push("bench");
    }
    if missing.is_empty() {
        Ok(root)
    } else {
        Err(format!("{path} is missing keys: {missing:?}"))
    }
}
