//! Tensor substrate for the `reuse-dnn` reproduction.
//!
//! This crate provides the minimal-but-complete numeric foundation the rest
//! of the workspace builds on:
//!
//! * [`Shape`] — dimension bookkeeping with row-major strides.
//! * [`Tensor`] — an owned, row-major `f32` tensor with checked indexing.
//! * [`ops`] — elementwise operations.
//! * [`matmul`] — dense matrix multiply / matrix-vector kernels used by
//!   fully-connected layers.
//! * [`conv`] — 2D and 3D convolution over one rank-generic geometry: im2col
//!   blocks through the packed matmul, a naive direct-loop oracle, pooling.
//! * [`block`] — cache-blocked weight panels and the 16-lane FC microkernel
//!   shared by the forward and reuse-correction hot paths.
//! * [`simd`] — runtime-dispatched `std::arch` kernels (AVX2+FMA fast path,
//!   portable scalar fallback) behind one accumulation contract — fused,
//!   one chain per output, the same bits at every level; override with
//!   `REUSE_SIMD=off|avx2`.
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
pub mod matmul;
pub mod ops;
mod shape;
pub mod simd;
mod tensor;

pub use block::{PackedPanels, PANEL_WIDTH};
pub use error::TensorError;
pub use shape::Shape;
pub use simd::SimdLevel;
pub use tensor::Tensor;

/// The first argument the repository benchmark still passes to six kernel
/// entry points, each of which ignores it: every kernel runs on the calling
/// thread. ROADMAP item 1(b) drops the argument and this type.
#[derive(Clone, Copy)]
pub struct ParallelConfig;

const _: () = assert!(core::mem::size_of::<ParallelConfig>() == 0);

impl ParallelConfig {
    /// The only value.
    pub const fn serial() -> Self {
        ParallelConfig
    }
}
