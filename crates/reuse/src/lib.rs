//! Temporal computation reuse across consecutive DNN executions — the core
//! contribution of *"Computation Reuse in DNNs by Exploiting Input
//! Similarity"* (ISCA 2018).
//!
//! # The mechanism
//!
//! When a DNN processes a temporal sequence (audio frames, video frames),
//! the inputs each layer sees change very little between consecutive
//! executions. After linear quantization (paper Eq. 9) most inputs map to
//! the *same* cluster index as in the previous execution. For those inputs
//! nothing needs to be computed: their contribution to every buffered
//! output is already there. For the few inputs whose index changed, the
//! buffered outputs are corrected (paper Eq. 10):
//!
//! ```text
//! z' = z + Σᵢ (c'ᵢ − cᵢ) · wᵢₒ        (only over changed inputs i)
//! ```
//!
//! # Crate layout
//!
//! * [`ReuseConfig`] — the paper's fixed per-network scheme (which layers
//!   participate, one cluster count for all of them), plus the run-wide
//!   knobs (calibration, telemetry, traces).
//! * [`CompiledModel`] — the immutable, `Sync` compile step: network and
//!   execution plan, built once and shared behind an `Arc` by any number of
//!   streams. The packed weights the corrections read are the ones the
//!   network's conv and LSTM layers already hold, so compiling copies none.
//! * [`ReuseSession`] — one input stream's mutable state: quantizers,
//!   buffered per-layer reuse state, metrics, telemetry, buffer pool.
//!   Created with [`CompiledModel::new_session`], or for a single stream
//!   with [`ReuseSession::from_network`]; runs a `reuse_nn::Network` over a
//!   sequence of frames, calibrating quantizers, buffering per-layer state
//!   and producing outputs. What each layer step did is recorded once, in
//!   one format, by one writer; metrics, telemetry windows and execution
//!   traces are folds over that record.
//! * [`block`] — the [`Block`] walk: frames of many sessions of one model
//!   through the network one layer at a time, each layer's weights fetched
//!   once for all of them (the serving tick; `execute_into` is its one-row
//!   case).
//! * [`layer`] — the [`ReuseLayer`] trait the session dispatches through,
//!   one implementation per layer family.
//! * [`fc`], [`conv`], [`lstm`] — the incremental kernels for each layer
//!   family (paper Sections IV-B/C/D).
//! * [`metrics`] — input similarity, computation reuse (lifetime sums over
//!   the step records) and the Fig. 4 relative-difference metric.
//! * [`telemetry`] — the per-slot window of recent step records and the
//!   snapshot that reports it beside the pool counters.
//! * [`trace`] — the step record itself, and the per-execution, per-layer
//!   activity traces materialised from a log of them for the accelerator
//!   model in `reuse-accel`.
//! * [`json`] — the string/number helpers every JSON emitter in the
//!   workspace writes through.
//!
//! # Example
//!
//! ```
//! use reuse_core::{ReuseConfig, ReuseSession};
//! use reuse_nn::{Activation, NetworkBuilder};
//!
//! let net = NetworkBuilder::new("demo", 8)
//!     .fully_connected(16, Activation::Relu)
//!     .fully_connected(4, Activation::Identity)
//!     .build()
//!     .unwrap();
//! let mut session = ReuseSession::from_network(&net, &ReuseConfig::uniform(16));
//! let frame = vec![0.25f32; 8];
//! session.execute(&frame)?;         // calibrates, runs from scratch
//! session.execute(&frame)?;         // stores quantized state
//! session.execute(&frame)?;         // identical frame: everything reused
//! assert!(session.metrics().overall_input_similarity() > 0.99);
//! # Ok::<(), reuse_core::ReuseError>(())
//! ```

#![warn(missing_docs)]

pub mod block;
mod config;
pub mod conv;
pub mod drift;
mod error;
pub mod fc;
pub mod json;
pub mod layer;
pub mod lstm;
pub mod metrics;
mod model;
mod session;
pub mod summary;
pub mod telemetry;
pub mod trace;

pub use block::{Block, RowOutcome};
pub use config::ReuseConfig;
pub use error::ReuseError;
pub use layer::{ExecStats, ReuseLayer, StepCtx};
pub use metrics::{relative_difference, EngineMetrics, LayerMetrics};
pub use model::CompiledModel;
pub use session::ReuseSession;
pub use telemetry::{LayerTelemetrySnapshot, PoolStats, TelemetrySnapshot, TELEMETRY_WINDOW};
pub use trace::{ExecutionTrace, LayerTrace, TraceKind};
