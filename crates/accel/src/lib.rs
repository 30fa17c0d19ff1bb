//! Analytical simulator of the paper's tiled DNN accelerator (Section IV-V).
//!
//! The hardware modeled here is a DaDianNao-style design: four tiles, each
//! with 32 FP multipliers and 32 FP adders, a 36 MB multi-banked eDRAM
//! Weights Buffer, a two-bank SRAM I/O Buffer, a Data Master streaming
//! operands, and an LPDDR4 main memory (paper Table II). The reuse extension
//! adds two I/O-buffer areas (quantized input indices and buffered layer
//! outputs) plus a centroid table in the Control Unit.
//!
//! The simulator is **trace-driven**: it consumes the per-execution,
//! per-layer activity records produced by `reuse_core::ReuseSession`
//! ([`reuse_core::ExecutionTrace`]) and converts them into cycles and energy
//! using an analytical cost model:
//!
//! * Compute cycles: performed MACs over the 128 multiply-add lanes.
//! * Memory cycles: bytes streamed from LPDDR4 over the 16 GB/s channel
//!   (weights that do not fit on-chip, spilled CNN activations, indices).
//! * Energy: documented per-byte / per-op constants ([`EnergyModel`]) plus
//!   per-component static power integrated over runtime.
//!
//! Absolute joules are calibrated to the 32 nm low-power ballpark, but the
//! experiments report *relative* numbers (speedup, normalized energy,
//! breakdown shares), which depend only on the ratios — see DESIGN.md.
//!
//! # Example
//!
//! ```
//! use reuse_accel::{AcceleratorConfig, SimInput, Simulator};
//!
//! let sim = Simulator::new(AcceleratorConfig::paper());
//! # let traces: Vec<reuse_core::ExecutionTrace> = Vec::new();
//! let input = SimInput {
//!     name: "kaldi",
//!     traces: &traces,
//!     model_bytes: 18 << 20,
//!     executions_per_sequence: 500,
//!     activations_spill: false,
//! };
//! let baseline = sim.simulate_baseline(&input);
//! let reuse = sim.simulate_reuse(&input);
//! assert!(reuse.seconds <= baseline.seconds);
//! ```

#![warn(missing_docs)]

pub mod area;
pub mod blocking;
mod config;
mod energy;
pub mod events;
pub mod memory;
pub mod noc;
pub mod pipeline;
pub mod platform;
mod report;
mod sim;
pub mod sweep;
pub mod tiles;

pub use config::{AcceleratorConfig, Precision};
pub use energy::{Component, EnergyBreakdown, EnergyModel, COMPONENTS};
pub use platform::ReferencePlatform;
pub use report::SimReport;
pub use sim::{SimInput, Simulator};
