//! The four evaluation workloads of the paper (Table I) plus synthetic
//! temporally-correlated input generators and an accuracy proxy.
//!
//! The paper evaluates:
//!
//! * **Kaldi** — MLP for acoustic scoring (18 MB): 9-frame sliding windows
//!   of 40 speech features; generalized-maxout hidden layers; 3482 senones.
//! * **EESEN** — bidirectional-LSTM RNN for end-to-end speech recognition
//!   (42 MB): 120-feature frames, five BiLSTM layers (cell 320), 50-way
//!   character output.
//! * **C3D** — 3D CNN for video action classification (~300 MB): disjoint
//!   16-frame windows of 112×112 RGB, eight 3×3×3 conv layers, 101 actions.
//! * **AutoPilot** — CNN for self-driving steering (6 MB): 200×66 RGB
//!   dashcam frames, five conv layers, five FC layers, one steering output.
//!
//! We do not have the trained models or their datasets, so (per DESIGN.md)
//! each network is rebuilt with the exact Table I layer geometry and
//! deterministic pseudo-random weights, and each input stream is replaced
//! with a synthetic generator whose *temporal similarity structure* mirrors
//! the real one: overlapping analysis windows for speech, quasi-static
//! scenes with moving content for video. Accuracy is reported as output
//! agreement against the full-precision network ([`accuracy`]).

#![warn(missing_docs)]

pub mod accuracy;
pub mod audio;
mod autopilot;
mod c3d;
pub mod datasets;
mod eesen;
mod kaldi;
mod knob;
pub mod video;
mod workload;

pub use knob::env_parse;
pub use workload::{Scale, Workload, WorkloadKind};
