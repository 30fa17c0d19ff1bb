//! # reuse-dnn
//!
//! Rust reproduction of *"Computation Reuse in DNNs by Exploiting Input
//! Similarity"* (Riera, Arnau, González — ISCA 2018).
//!
//! This façade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`tensor`] — tensors, matmul, convolution.
//! * [`nn`] — forward-inference layers (FC, Conv2D/3D, pooling, LSTM) and
//!   sequential networks.
//! * [`quant`] — linear input quantization (paper Eq. 9) and range profiling.
//! * [`reuse`] — the paper's contribution: temporal computation reuse across
//!   consecutive DNN executions (paper Eq. 10).
//! * [`serve`] — multi-stream serving runtime multiplexing many input
//!   streams over one shared [`reuse::CompiledModel`].
//! * [`accel`] — analytical simulator of the tiled accelerator (paper
//!   Table II) with energy and timing models.
//! * [`workloads`] — the four evaluation DNNs (Kaldi, EESEN, C3D, AutoPilot)
//!   and synthetic temporally-correlated input generators.
//!
//! # Quickstart
//!
//! ```
//! use reuse_dnn::prelude::*;
//!
//! // A tiny MLP, a correlated input sequence, and a reuse session.
//! let network = NetworkBuilder::new("demo", 8)
//!     .fully_connected(16, Activation::Relu)
//!     .fully_connected(4, Activation::Identity)
//!     .build()
//!     .unwrap();
//! let mut session = ReuseSession::from_network(&network, &ReuseConfig::uniform(16));
//! let frame = vec![0.1f32; 8];
//! session.execute(&frame).unwrap();          // calibrates, runs in fp32
//! let out1 = session.execute(&frame).unwrap(); // quantized, from scratch
//! let out2 = session.execute(&frame).unwrap(); // identical frame: full reuse
//! assert_eq!(out1.as_slice(), out2.as_slice());
//! assert!(session.metrics().overall_input_similarity() > 0.99);
//! ```

pub use reuse_accel as accel;
pub use reuse_core as reuse;
pub use reuse_nn as nn;
pub use reuse_quant as quant;
pub use reuse_serve as serve;
pub use reuse_tensor as tensor;
pub use reuse_workloads as workloads;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use reuse_accel::{AcceleratorConfig, Simulator};
    pub use reuse_core::{CompiledModel, ReuseConfig, ReuseSession};
    pub use reuse_nn::{Activation, Network, NetworkBuilder};
    pub use reuse_quant::LinearQuantizer;
    pub use reuse_serve::{ServerConfig, ShardedServer, SubmitResult};
    pub use reuse_tensor::{Shape, Tensor};
    pub use reuse_workloads::{Workload, WorkloadKind};
}
