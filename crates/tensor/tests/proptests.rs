//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use reuse_tensor::{conv, matmul, ops, Shape, Tensor};

fn small_f32() -> impl Strategy<Value = f32> {
    // Bounded magnitudes keep accumulations exact enough for tight asserts.
    (-100i32..=100).prop_map(|v| v as f32 / 10.0)
}

fn vec_of(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(small_f32(), len)
}

proptest! {
    #[test]
    fn shape_offsets_are_bijective(dims in proptest::collection::vec(1usize..5, 1..4)) {
        let shape = Shape::new(&dims).unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut index = vec![0usize; dims.len()];
        loop {
            let off = shape.offset(&index).unwrap();
            prop_assert!(off < shape.volume());
            prop_assert!(seen.insert(off));
            // Odometer increment over the index space.
            let mut d = dims.len();
            loop {
                if d == 0 { break; }
                d -= 1;
                index[d] += 1;
                if index[d] < dims[d] { break; }
                index[d] = 0;
                if d == 0 {
                    prop_assert_eq!(seen.len(), shape.volume());
                    return Ok(());
                }
            }
            if index.iter().all(|&i| i == 0) { break; }
        }
        prop_assert_eq!(seen.len(), shape.volume());
    }

    #[test]
    fn add_sub_round_trip(a in vec_of(16), b in vec_of(16)) {
        let ta = Tensor::from_slice_1d(&a).unwrap();
        let tb = Tensor::from_slice_1d(&b).unwrap();
        let sum = ops::add(&ta, &tb).unwrap();
        let back = ops::sub(&sum, &tb).unwrap();
        // One-decimal fixed-point values survive exactly under f32 add/sub
        // only approximately; allow tiny tolerance.
        prop_assert!(back.approx_eq(&ta, 1e-4).unwrap());
    }

    #[test]
    fn fc_forward_linearity(x in vec_of(6), w in vec_of(6 * 3), k in 1i32..5) {
        let weights = Tensor::from_vec(Shape::d2(6, 3), w).unwrap();
        let bias = Tensor::zeros(Shape::d1(3));
        let tx = Tensor::from_slice_1d(&x).unwrap();
        let y1 = matmul::fc_forward_naive(&weights, &tx, &bias).unwrap();
        let kx = ops::scale(&tx, k as f32);
        let y2 = matmul::fc_forward_naive(&weights, &kx, &bias).unwrap();
        let ky1 = ops::scale(&y1, k as f32);
        prop_assert!(y2.approx_eq(&ky1, 1e-2).unwrap());
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
        let xd = ops::add(&tx, &td).unwrap();
        let f_xd = matmul::fc_forward_naive(&weights, &xd, &bias).unwrap();
        let f_x = matmul::fc_forward_naive(&weights, &tx, &bias).unwrap();
        let f_d0 = matmul::fc_forward_naive(&weights, &td, &zero_bias).unwrap();
        let recomposed = ops::add(&f_x, &f_d0).unwrap();
        prop_assert!(f_xd.approx_eq(&recomposed, 1e-2).unwrap());
    }

    #[test]
    fn matmul_associates_with_identity(a in vec_of(9)) {
        let ta = Tensor::from_vec(Shape::d2(3, 3), a).unwrap();
        let id = Tensor::from_vec(Shape::d2(3, 3), vec![1., 0., 0., 0., 1., 0., 0., 0., 1.]).unwrap();
        prop_assert_eq!(matmul::matmul(&ta, &id).unwrap(), ta.clone());
        prop_assert_eq!(matmul::matmul(&id, &ta).unwrap(), ta);
    }

    #[test]
    fn conv2d_is_linear_in_input(x in vec_of(16), w in vec_of(4)) {
        let spec = conv::Conv2dSpec { in_channels: 1, out_channels: 1, kh: 2, kw: 2, stride: 1, pad: 0 };
        let input = Tensor::from_vec(Shape::d3(1, 4, 4), x).unwrap();
        let weights = Tensor::from_vec(spec.weight_shape(), w).unwrap();
        let bias = Tensor::zeros(Shape::d1(1));
        let y = conv::conv2d_forward(&spec, &input, &weights, &bias).unwrap();
        let x2 = ops::scale(&input, 2.0);
        let y2 = conv::conv2d_forward(&spec, &x2, &weights, &bias).unwrap();
        prop_assert!(y2.approx_eq(&ops::scale(&y, 2.0), 1e-3).unwrap());
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
