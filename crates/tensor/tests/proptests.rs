//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use reuse_tensor::{conv, matmul, PackedPanels, ParallelConfig, Shape, Tensor};

fn small_f32() -> impl Strategy<Value = f32> {
    // Bounded magnitudes keep accumulations exact enough for tight asserts.
    (-100i32..=100).prop_map(|v| v as f32 / 10.0)
}

fn vec_of(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(small_f32(), len)
}

/// Whether every element of `a` is within `tol` of its twin in `b`.
fn close(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}

/// `k · t`, elementwise.
fn scaled(t: &Tensor, k: f32) -> Tensor {
    reuse_tensor::ops::map(t, |v| v * k)
}

proptest! {
    #[test]
    fn fc_forward_linearity(x in vec_of(6), w in vec_of(6 * 3), k in 1i32..5) {
        let weights = Tensor::from_vec(Shape::d2(6, 3), w).unwrap();
        let bias = Tensor::zeros(Shape::d1(3));
        let tx = Tensor::from_slice_1d(&x).unwrap();
        let y1 = matmul::fc_forward_naive(&weights, &tx, &bias).unwrap();
        let y2 = matmul::fc_forward_naive(&weights, &scaled(&tx, k as f32), &bias).unwrap();
        prop_assert!(close(y2.as_slice(), scaled(&y1, k as f32).as_slice(), 1e-2));
    }

    #[test]
    fn fc_forward_superposition(x in vec_of(5), d in vec_of(5), w in vec_of(5 * 4)) {
        // f(x + d) == f(x) + (f(d) - bias) — the identity the paper's
        // incremental correction (Eq. 10) relies on.
        let weights = Tensor::from_vec(Shape::d2(5, 4), w).unwrap();
        let bias = Tensor::from_slice_1d(&[1.0, -1.0, 0.5, 2.0]).unwrap();
        let zero_bias = Tensor::zeros(Shape::d1(4));
        let tx = Tensor::from_slice_1d(&x).unwrap();
        let td = Tensor::from_slice_1d(&d).unwrap();
        let sum: Vec<f32> = x.iter().zip(&d).map(|(a, b)| a + b).collect();
        let xd = Tensor::from_slice_1d(&sum).unwrap();
        let f_xd = matmul::fc_forward_naive(&weights, &xd, &bias).unwrap();
        let f_x = matmul::fc_forward_naive(&weights, &tx, &bias).unwrap();
        let f_d0 = matmul::fc_forward_naive(&weights, &td, &zero_bias).unwrap();
        let recomposed: Vec<f32> = f_x.as_slice().iter().zip(f_d0.as_slice()).map(|(a, b)| a + b).collect();
        prop_assert!(close(f_xd.as_slice(), &recomposed, 1e-2));
    }

    #[test]
    fn matmul_associates_with_identity(a in vec_of(9)) {
        let id = [1., 0., 0., 0., 1., 0., 0., 0., 1.];
        let product = |lhs: &[f32], rhs: &[f32]| {
            let mut c = vec![0.0; 9];
            let packed = PackedPanels::pack_slice(rhs, 3, 3);
            matmul::matmul_packed_into(&ParallelConfig::serial(), lhs, &packed, 3, &mut c);
            c
        };
        prop_assert_eq!(product(&a, &id), a.clone());
        prop_assert_eq!(product(&id, &a), a);
    }

    #[test]
    fn conv2d_is_linear_in_input(x in vec_of(16), w in vec_of(4)) {
        let spec = conv::Conv2dSpec { in_channels: 1, out_channels: 1, kh: 2, kw: 2, stride: 1, pad: 0 };
        let input = Tensor::from_vec(Shape::d3(1, 4, 4), x).unwrap();
        let weights = Tensor::from_vec(spec.weight_shape(), w).unwrap();
        let bias = Tensor::zeros(Shape::d1(1));
        let y = conv::conv2d_forward(&spec, &input, &weights, &bias).unwrap();
        let y2 = conv::conv2d_forward(&spec, &scaled(&input, 2.0), &weights, &bias).unwrap();
        prop_assert!(close(y2.as_slice(), scaled(&y, 2.0).as_slice(), 1e-3));
    }

    #[test]
    fn max_pool_never_below_any_kept_element(x in vec_of(16)) {
        let mut pooled = Vec::new();
        conv::max_pool_into(&x, [1, 4, 4], [1, 2, 2], [1, 2, 2], false, &mut pooled).unwrap();
        let max_in = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let max_out = pooled.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_assert_eq!(max_in, max_out);
    }
}
