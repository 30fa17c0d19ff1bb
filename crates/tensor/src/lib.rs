//! Tensor substrate for the `reuse-dnn` reproduction.
//!
//! This crate provides the minimal-but-complete numeric foundation the rest
//! of the workspace builds on:
//!
//! * [`Shape`] — the dimension sizes of a row-major tensor.
//! * [`Tensor`] — an owned, row-major `f32` tensor with checked
//!   construction and a flat view of its data.
//! * [`ops`] — the elementwise map the activations apply.
//! * [`matmul`] — the multiply against packed weight panels, with the
//!   naive matmul and FC forward that the blocked kernels are held to.
//! * [`conv`] — 2D and 3D convolution over one rank-generic geometry: an
//!   implicit GEMM on the packed panels, a naive oracle, transposes, pooling.
//! * [`block`] — cache-blocked weight panels and the 16-lane FC microkernel
//!   shared by the forward and reuse-correction hot paths.
//! * [`simd`] — runtime-dispatched `std::arch` kernels (AVX-512F bodies for
//!   the FMA-bound panel kernels, AVX2+FMA for the rest, a portable scalar
//!   fallback) behind one accumulation contract — fused, one chain per
//!   output, the same bits at every level; override with
//!   `REUSE_SIMD=off|avx2`.
//!
//! # Example
//!
//! ```
//! use reuse_tensor::{Shape, Tensor};
//!
//! let t = Tensor::from_vec(Shape::d2(2, 3), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
//! assert_eq!(t.as_slice()[1 * 3 + 2], 6.0);
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
