use std::fmt;

/// Errors produced by tensor construction and the kernels' shape checks.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// The data length does not match the number of elements the shape implies.
    LengthMismatch {
        /// Number of elements the shape requires.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// Two tensors had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the incompatibility.
        context: String,
    },
    /// A shape with zero dimensions or a zero-sized dimension was rejected.
    EmptyShape,
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "data length {actual} does not match shape volume {expected}"
                )
            }
            TensorError::ShapeMismatch { context } => {
                write!(f, "incompatible shapes: {context}")
            }
            TensorError::EmptyShape => write!(f, "shape must have at least one non-zero dimension"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = TensorError::LengthMismatch {
            expected: 6,
            actual: 5,
        };
        let msg = err.to_string();
        assert!(msg.contains('5') && msg.contains('6'));
        assert!(msg.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: std::error::Error + Send + Sync>() {}
        assert_error::<TensorError>();
    }
}
