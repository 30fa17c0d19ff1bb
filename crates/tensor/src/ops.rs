//! Elementwise operations over [`Tensor`]s: the map that
//! `reuse_nn::Activation` applies to a whole tensor.

use crate::Tensor;

/// Elementwise map with an arbitrary scalar function.
pub fn map(a: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let data = a.as_slice().iter().map(|&v| f(v)).collect();
    Tensor::from_vec(a.shape().clone(), data).expect("map preserves length")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_applies_elementwise() {
        let a = Tensor::from_slice_1d(&[-1.0, 2.0]).unwrap();
        assert_eq!(map(&a, f32::abs).as_slice(), &[1.0, 2.0]);
        assert_eq!(map(&a, |v| v * 2.0).as_slice(), &[-2.0, 4.0]);
    }
}
