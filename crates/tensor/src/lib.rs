//! Tensor substrate for the `reuse-dnn` reproduction.
//!
//! This crate provides the minimal-but-complete numeric foundation the rest
//! of the workspace builds on:
//!
//! * [`Shape`] — dimension bookkeeping with row-major strides.
//! * [`Tensor`] — an owned, row-major `f32` tensor with checked indexing.
//! * [`ops`] — elementwise operations and reductions.
//! * [`matmul`] — dense matrix multiply / matrix-vector kernels used by
//!   fully-connected layers.
//! * [`conv`] — 2D and 3D convolution over one rank-generic geometry: im2col
//!   blocks through the packed matmul, a naive direct-loop oracle, pooling.
//! * [`fixed`] — Q-format fixed-point scalars used by the reduced-precision
//!   accelerator study (paper Section VI-A).
//! * [`parallel`] — dependency-free scoped-thread runtime with adaptive
//!   serial/parallel dispatch; kernels partition their outputs across
//!   workers while staying bit-identical to serial.
//! * [`block`] — cache-blocked weight panels and the 16-lane FC microkernel
//!   shared by the forward and reuse-correction hot paths.
//! * [`simd`] — runtime-dispatched `std::arch` kernels (AVX2+FMA fast path,
//!   portable scalar fallback) behind a deterministic accumulation-order
//!   contract; override with `REUSE_SIMD=off|avx2`.
//!
//! # Example
//!
//! ```
//! use reuse_tensor::{Shape, Tensor};
//!
//! let t = Tensor::from_vec(Shape::d2(2, 3), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
//! assert_eq!(t.get(&[1, 2])?, 6.0);
//! # Ok::<(), reuse_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod conv;
mod error;
pub mod fixed;
pub mod matmul;
pub mod ops;
pub mod parallel;
mod shape;
pub mod simd;
mod tensor;

pub use block::{PackedPanels, PANEL_WIDTH};
pub use error::TensorError;
pub use parallel::{
    hardware_threads, parallel_for_each_mut, parallel_for_mut, parallel_for_mut_cost,
    ParallelConfig,
};
pub use shape::Shape;
pub use simd::SimdLevel;
pub use tensor::Tensor;
