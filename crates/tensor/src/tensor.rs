use crate::{Shape, TensorError};

/// An owned, row-major `f32` tensor.
///
/// `Tensor` is the single data container used throughout the workspace for
/// layer inputs, outputs, weights and intermediate buffers. It deliberately
/// stays small: checked construction and a flat view of the data for
/// kernels that do their own indexing.
///
/// # Example
///
/// ```
/// use reuse_tensor::{Shape, Tensor};
///
/// let t = Tensor::from_vec(Shape::d2(2, 2), vec![0.0, 3.5, 0.0, 0.0])?;
/// assert_eq!(t.as_slice()[1], 3.5);
/// assert_eq!(t.argmax(), 1);
/// # Ok::<(), reuse_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Shape) -> Self {
        let volume = shape.volume();
        Tensor {
            shape,
            data: vec![0.0; volume],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the shape volume.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != shape.volume() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a 1-D tensor from a slice.
    pub fn from_slice_1d(data: &[f32]) -> Result<Self, TensorError> {
        let shape = Shape::new(&[data.len()])?;
        Ok(Tensor {
            shape,
            data: data.to_vec(),
        })
    }

    /// Creates a tensor by evaluating `f` at every flat index.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(usize) -> f32) -> Self {
        let volume = shape.volume();
        let data = (0..volume).map(&mut f).collect();
        Tensor { shape, data }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true for valid shapes).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A flat, row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Consumes the tensor and returns the underlying storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Index of the maximum element (ties resolve to the first occurrence).
    ///
    /// This is the classification decision used by the accuracy-proxy
    /// evaluation in `reuse-workloads`.
    pub fn argmax(&self) -> usize {
        let mut best = 0usize;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in self.data.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        best
    }

    /// Euclidean (L2) norm of the flattened tensor.
    pub fn l2_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|v| (*v as f64) * (*v as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Euclidean distance to another tensor of the same shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn l2_distance(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                context: format!("l2_distance between {} and {}", self.shape, other.shape),
            });
        }
        let sum: f64 = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| {
                let d = (*a as f64) - (*b as f64);
                d * d
            })
            .sum();
        Ok(sum.sqrt() as f32)
    }
}

impl AsRef<[f32]> for Tensor {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_fills_the_shape() {
        let z = Tensor::zeros(Shape::d2(2, 3));
        assert_eq!(z.len(), 6);
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(Shape::d2(2, 2), vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec(Shape::d2(2, 2), vec![1.0; 5]),
            Err(TensorError::LengthMismatch {
                expected: 4,
                actual: 5
            })
        ));
    }

    #[test]
    fn argmax_picks_first_maximum() {
        let t = Tensor::from_slice_1d(&[0.1, 0.9, 0.9, 0.2]).unwrap();
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn l2_norm_and_distance() {
        let a = Tensor::from_slice_1d(&[3.0, 4.0]).unwrap();
        let b = Tensor::from_slice_1d(&[0.0, 0.0]).unwrap();
        assert!((a.l2_norm() - 5.0).abs() < 1e-6);
        assert!((a.l2_distance(&b).unwrap() - 5.0).abs() < 1e-6);
        let c = Tensor::from_slice_1d(&[1.0]).unwrap();
        assert!(a.l2_distance(&c).is_err());
    }

    #[test]
    fn from_fn_uses_flat_indices() {
        let t = Tensor::from_fn(Shape::d2(2, 2), |i| i as f32);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }
}
