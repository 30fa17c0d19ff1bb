//! Linear input quantization for the `reuse-dnn` reproduction.
//!
//! The paper's key enabling mechanism (Section III): 32-bit floating-point
//! inputs are almost never bit-identical across consecutive executions, but
//! after **uniformly distributed linear quantization** (Eq. 9) most of them
//! map to the same cluster centroid, exposing reuse. The quantization step of
//! each layer is derived from the input *range*, profiled offline (the paper
//! profiles the training set; we profile a calibration sequence).
//!
//! * [`InputRange`] — profiled min/max of a layer's inputs.
//! * [`LinearQuantizer`] — Eq. 9: `Qval = round(x / step) · step`, with the
//!   integer `round(x / step)` used as the stored *index* (the paper's
//!   I/O-buffer "indices" area).
//! * [`RangeProfiler`] — accumulates ranges over calibration data.
//!
//! # Example
//!
//! ```
//! use reuse_quant::{InputRange, LinearQuantizer};
//!
//! let q = LinearQuantizer::new(InputRange::new(-1.0, 1.0), 16)?;
//! let code = q.quantize(0.33);
//! assert_eq!(q.centroid(code), q.quantized_value(0.33));
//! # Ok::<(), reuse_quant::QuantError>(())
//! ```

#![warn(missing_docs)]

mod error;
pub mod kmeans;
mod linear;
mod range;
#[cfg(target_arch = "x86_64")]
mod simd;

pub use error::QuantError;
pub use linear::{LinearQuantizer, QuantCode};
pub use range::{InputRange, RangeProfiler};
