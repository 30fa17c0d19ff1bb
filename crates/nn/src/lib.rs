//! Forward-inference DNN substrate for the `reuse-dnn` reproduction.
//!
//! The paper evaluates three network families (Section II): MLPs built from
//! fully-connected layers, CNNs with 2D/3D convolutions, and RNNs built from
//! bidirectional LSTM layers. This crate provides forward-only
//! implementations of all of them:
//!
//! * [`FullyConnected`] — Eq. 1 of the paper, input-major weights.
//! * [`Conv2dLayer`] / [`Conv3dLayer`] — Eq. 2, direct convolution.
//! * [`Pool2dLayer`] / [`Pool3dLayer`] — max pooling.
//! * [`LstmCell`] / [`BiLstmLayer`] — Fig. 2/3 of the paper.
//! * [`Network`] / [`NetworkBuilder`] — a sequential container with shape
//!   inference, FLOP and parameter accounting.
//! * [`init`] — deterministic pseudo-random weight initialization, so every
//!   experiment in the workspace is reproducible bit-for-bit.
//!
//! # Example
//!
//! ```
//! use reuse_nn::{Activation, NetworkBuilder};
//!
//! let net = NetworkBuilder::new("tiny-mlp", 4)
//!     .fully_connected(8, Activation::Relu)
//!     .fully_connected(2, Activation::Identity)
//!     .build()?;
//! let out = net.forward_flat(&[0.5, -0.5, 0.25, 0.0])?;
//! assert_eq!(out.len(), 2);
//! # Ok::<(), reuse_nn::NnError>(())
//! ```

#![warn(missing_docs)]

mod activation;
pub mod conv_layers;
mod error;
pub mod fc;
pub mod init;
pub mod lstm;
mod network;
pub mod pool;
pub mod stats;

pub use activation::Activation;
pub use conv_layers::{Conv2dLayer, Conv3dLayer};
pub use error::NnError;
pub use fc::FullyConnected;
pub use lstm::{BiLstmLayer, LstmCell, LstmState};
pub use network::{Layer, LayerKind, Network, NetworkBuilder};
pub use pool::{Pool2dLayer, Pool3dLayer};
