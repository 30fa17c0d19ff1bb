//! Dependency-free ONNX ingestion for reuse-dnn.
//!
//! Pretrained models ship as ONNX protobuf files. This crate reads them
//! without a protobuf dependency — [`wire`] hand-rolls the varint /
//! length-delimited field walking, [`proto`] decodes the handful of ONNX
//! messages that matter (`ModelProto`, `GraphProto`, `NodeProto`,
//! `TensorProto`, `ValueInfoProto`), and [`lower()`] turns a sequential graph
//! of `Gemm` / `MatMul`(+`Add`) / `Conv` / `LSTM` / activation nodes into a
//! [`reuse_nn::Network`] ready for `CompiledModel`.
//!
//! Ops the reuse engine cannot accelerate but *can* execute (`MaxPool`,
//! `AveragePool`, `GlobalAveragePool`, `Softmax`, standalone activations)
//! lower to recompute-always passthrough layers: they charge full MACs,
//! record zero reuse and never calibrate a quantizer, so a partially
//! supported graph still serves end to end. Ops we cannot even
//! execute correctly (attention blocks, unknown operators) are a hard
//! [`IngestError::UnsupportedOp`] — silently wrong outputs would be worse
//! than no outputs.
//!
//! ```no_run
//! let bytes = std::fs::read("model.onnx").expect("read model");
//! let lowered = reuse_onnx_ingest::ingest(&bytes).expect("lower model");
//! println!("{} layers", lowered.network.layers().len());
//! ```

pub mod fixture;
pub mod lower;
pub mod proto;
pub mod wire;

pub use lower::{lower, LoweredModel};
pub use proto::{parse_model, GraphProto, ModelProto, NodeProto, TensorInit};

/// Everything that can go wrong between raw bytes and a runnable network.
#[derive(Debug)]
pub enum IngestError {
    /// The bytes violate the protobuf wire format.
    Malformed {
        /// Absolute byte offset of the violation.
        offset: usize,
        /// What was malformed.
        what: String,
    },
    /// A required field is absent.
    MissingField {
        /// Which field, and where.
        context: String,
    },
    /// A node uses an operator (or operator configuration) we can neither
    /// lower nor execute.
    UnsupportedOp {
        /// Node display name.
        node: String,
        /// Operator type.
        op: String,
        /// Why it cannot be lowered.
        why: String,
    },
    /// The graph is not a single sequential chain.
    NotSequential {
        /// What broke the chain.
        context: String,
    },
    /// Declared shapes are inconsistent or missing.
    Shape {
        /// Which tensor/node, and how.
        context: String,
    },
    /// Network construction rejected the lowered layers.
    Nn(reuse_nn::NnError),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Malformed { offset, what } => {
                write!(f, "malformed ONNX at byte {offset}: {what}")
            }
            IngestError::MissingField { context } => {
                write!(f, "missing field: {context}")
            }
            IngestError::UnsupportedOp { node, op, why } => {
                write!(f, "unsupported op {op} at node {node:?}: {why}")
            }
            IngestError::NotSequential { context } => {
                write!(f, "graph is not a sequential chain: {context}")
            }
            IngestError::Shape { context } => write!(f, "shape error: {context}"),
            IngestError::Nn(e) => write!(f, "network construction failed: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<reuse_nn::NnError> for IngestError {
    fn from(e: reuse_nn::NnError) -> Self {
        IngestError::Nn(e)
    }
}

/// Parses and lowers a serialized ONNX model in one step.
///
/// # Errors
///
/// Propagates every [`IngestError`] from [`parse_model`] and [`lower()`].
pub fn ingest(bytes: &[u8]) -> Result<LoweredModel, IngestError> {
    lower(&parse_model(bytes)?)
}
