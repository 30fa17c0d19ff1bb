//! Elementwise operations over [`Tensor`]s.
//!
//! These are the scalar building blocks the `reuse-nn` layers compose.
//! Everything here is deliberately simple and allocation-transparent so the
//! accelerator model in `reuse-accel` can mirror op counts one-to-one.

use crate::{Tensor, TensorError};

/// Elementwise sum `a + b` into a new tensor.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    zip_map(a, b, "add", |x, y| x + y)
}

/// Elementwise difference `a - b` into a new tensor.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    zip_map(a, b, "sub", |x, y| x - y)
}

/// Elementwise map with an arbitrary scalar function.
pub fn map(a: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let data = a.as_slice().iter().map(|&v| f(v)).collect();
    Tensor::from_vec(a.shape().clone(), data).expect("map preserves length")
}

/// Scales every element by a constant.
pub fn scale(a: &Tensor, k: f32) -> Tensor {
    map(a, |v| v * k)
}

fn zip_map(
    a: &Tensor,
    b: &Tensor,
    op: &str,
    f: impl Fn(f32, f32) -> f32,
) -> Result<Tensor, TensorError> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            context: format!("{op} between {} and {}", a.shape(), b.shape()),
        });
    }
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice().iter())
        .map(|(&x, &y)| f(x, y))
        .collect();
    Ok(Tensor::from_vec(a.shape().clone(), data).expect("zip_map preserves length"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice_1d(v).unwrap()
    }

    #[test]
    fn add_sub_elementwise() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(add(&a, &b).unwrap().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(sub(&b, &a).unwrap().as_slice(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = Tensor::zeros(Shape::d2(2, 2));
        let b = Tensor::zeros(Shape::d1(4));
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn map_and_scale() {
        let a = t(&[-1.0, 2.0]);
        assert_eq!(map(&a, f32::abs).as_slice(), &[1.0, 2.0]);
        assert_eq!(scale(&a, 2.0).as_slice(), &[-2.0, 4.0]);
    }
}
