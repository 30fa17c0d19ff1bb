//! Multi-stream serving runtime for the reuse engine.
//!
//! The paper's deployment story (Section V) is one model serving many
//! concurrent input streams — think one speech model decoding many live
//! microphones, or one vision model watching many cameras. Temporal reuse
//! is *per stream*: frame similarity only exists between consecutive
//! frames of the same source, so each stream needs its own
//! [`ReuseSession`] (quantized-input memory, buffered partial outputs,
//! metrics), while the expensive immutable artifacts — topology, packed
//! weight panels, the compiled execution plan — live once in a shared
//! [`CompiledModel`].
//!
//! [`ShardedServer`] packages that split into a runtime, and is the one
//! server callers build (`shards = 1` is the single-shard server):
//!
//! * **Session pool** — sessions are created lazily on a stream's first
//!   [`submit`](ShardedServer::submit) and capped per shard at
//!   [`ServerConfig::max_sessions`]; past the cap the least-recently-used
//!   stream is evicted (its buffered state reset, its buffers released).
//! * **Bounded ingress queues + backpressure** — each stream queues at
//!   most [`ServerConfig::queue_capacity`] frames; submits report
//!   [`SubmitResult::QueueFull`] / [`SubmitResult::Shed`] instead of
//!   blocking or growing without bound. Shedding kicks in when a stream's
//!   drift watchdog has auto-disabled reuse (the stream runs at
//!   full-precision cost) and its queue is past
//!   [`ServerConfig::shed_watermark`].
//! * **Serial dispatch per shard** — a shard's tick runs its streams'
//!   ready batches as one block on one thread (high-priority heads first);
//!   sessions share no mutable state, so per-stream results are
//!   bit-identical to standalone execution under any interleaving.
//! * **Sharding + deadline scheduling** — streams hash across N
//!   independent shards (each its own session pool, queues, and histogram
//!   over one shared model), ticked by the caller
//!   ([`tick_all`](ShardedServer::tick_all)) or by dedicated per-shard
//!   worker threads ([`ShardWorkers`]); submits can carry a deadline and
//!   priority lane ([`SubmitOptions`]), with projected-deadline-miss
//!   shedding at ingress.
//! * **Telemetry** — aggregate throughput, submit-to-completion latency
//!   (preallocated lock-free [`LatencyHistogram`]), backpressure and
//!   eviction counters, and per-stream hit rates, exported as a
//!   [`ShardedSnapshot`] with hand-rolled JSON.
//!
//! [`StreamServer`] is one shard's body; it stays public only for the
//! repository benchmark's tier probe.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use reuse_core::{CompiledModel, ReuseConfig};
//! use reuse_serve::{ServerConfig, ShardedServer, SubmitResult};
//!
//! # fn tiny_network() -> reuse_nn::Network {
//! #     use reuse_nn::{Activation, NetworkBuilder};
//! #     NetworkBuilder::new("demo", 4)
//! #         .fully_connected(2, Activation::Identity)
//! #         .build()
//! #         .unwrap()
//! # }
//! let model = Arc::new(CompiledModel::new(&tiny_network(), &ReuseConfig::uniform(8)));
//! let server = ShardedServer::new(model, ServerConfig::default(), 1)?;
//!
//! // Two independent camera feeds share one model.
//! assert_eq!(server.submit(0, &[0.1, 0.2, 0.3, 0.4])?, SubmitResult::Accepted);
//! assert_eq!(server.submit(1, &[0.5, 0.6, 0.7, 0.8])?, SubmitResult::Accepted);
//! server.tick_all()?;
//! let drained = server.drain_outputs(0, |out| assert_eq!(out.len(), 2));
//! assert_eq!(drained, 1);
//! # Ok::<(), reuse_serve::ServeError>(())
//! ```

#![warn(missing_docs)]

mod error;
mod histogram;
mod server;
mod shard;
mod snapshot;

pub use error::ServeError;
pub use histogram::LatencyHistogram;
pub use server::{Priority, ServerConfig, StreamServer, SubmitOptions, SubmitResult, TickStats};
pub use shard::{default_shards, hardware_threads, ShardWorkers, ShardedServer};
pub use snapshot::{ServerSnapshot, ShardedSnapshot, StreamSnapshot};

// Re-exported so downstream code can name the shared-model types without a
// direct reuse-core dependency.
pub use reuse_core::{CompiledModel, ReuseSession};
