//! Property tests: every parallel kernel is bit-identical to its serial
//! counterpart for random shapes and worker counts (including 1 and counts
//! that do not divide the output size). This is the load-bearing guarantee
//! of the threading model — output-partitioned workers preserve each
//! output's serial accumulation order exactly (see DESIGN.md).

use proptest::prelude::*;
use reuse_tensor::conv::{
    conv2d_forward, conv3d_forward, conv_forward_packed, Conv2dSpec, Conv3dSpec,
};
use reuse_tensor::matmul::{fc_forward, fc_forward_with, matmul, matmul_with};
use reuse_tensor::{parallel_for_mut, ParallelConfig, Shape, Tensor};

fn any_f32() -> impl Strategy<Value = f32> {
    // Full-precision values: bit-identity must hold regardless of rounding.
    (-1000i32..=1000).prop_map(|v| v as f32 * 0.123)
}

fn vec_of(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(any_f32(), len)
}

fn cfg(threads: usize) -> ParallelConfig {
    // Zero work floor so even tiny outputs actually split across workers,
    // zero inline threshold so small kernels don't dodge the thread pool,
    // and oversubscription allowed so the split still happens on hosts with
    // fewer hardware threads than `threads`.
    ParallelConfig::with_threads(threads)
        .min_work_per_thread(1)
        .inline_flops(0)
        .oversubscribed()
}

fn assert_bits_eq(a: &Tensor, b: &Tensor) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.shape(), b.shape());
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "element {} differs: {} vs {}",
            i,
            x,
            y
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn fc_forward_parallel_is_bit_identical(
        n_in in 1usize..24,
        n_out in 1usize..48,
        threads in 1usize..7,
        seed in 0u64..1000,
    ) {
        let mut v = seed as f32;
        let mut next = move || { v = (v * 1.37 + 0.61) % 13.0 - 6.5; v };
        let w = Tensor::from_vec(Shape::d2(n_in, n_out), (0..n_in * n_out).map(|_| next()).collect()).unwrap();
        let b = Tensor::from_vec(Shape::d1(n_out), (0..n_out).map(|_| next()).collect()).unwrap();
        let x = Tensor::from_vec(Shape::d1(n_in), (0..n_in).map(|_| next()).collect()).unwrap();
        let serial = fc_forward(&w, &x, &b).unwrap();
        let parallel = fc_forward_with(&cfg(threads), &w, &x, &b).unwrap();
        assert_bits_eq(&serial, &parallel)?;
    }

    #[test]
    fn matmul_parallel_is_bit_identical(
        m in 1usize..8,
        k in 1usize..8,
        n in 1usize..8,
        threads in 1usize..7,
        a in vec_of(64),
        b in vec_of(64),
    ) {
        let ta = Tensor::from_vec(Shape::d2(m, k), a[..m * k].to_vec()).unwrap();
        let tb = Tensor::from_vec(Shape::d2(k, n), b[..k * n].to_vec()).unwrap();
        let serial = matmul(&ta, &tb).unwrap();
        let parallel = matmul_with(&cfg(threads), &ta, &tb).unwrap();
        assert_bits_eq(&serial, &parallel)?;
    }

    #[test]
    fn conv2d_parallel_is_bit_identical(
        in_c in 1usize..4,
        out_c in 1usize..5,
        h in 3usize..8,
        w in 3usize..8,
        threads in 1usize..7,
        seed in 0u64..1000,
    ) {
        let stride = 1 + (seed % 2) as usize;
        let pad = ((seed / 2) % 2) as usize;
        let spec = Conv2dSpec { in_channels: in_c, out_channels: out_c, kh: 3, kw: 3, stride, pad };
        let mut v = seed as f32;
        let mut next = move || { v = (v * 1.37 + 0.61) % 13.0 - 6.5; v };
        let input = Tensor::from_vec(Shape::d3(in_c, h, w), (0..in_c * h * w).map(|_| next()).collect()).unwrap();
        let weights = Tensor::from_vec(spec.weight_shape(), (0..spec.weight_shape().volume()).map(|_| next()).collect()).unwrap();
        let bias = Tensor::from_vec(Shape::d1(out_c), (0..out_c).map(|_| next()).collect()).unwrap();
        let serial = conv2d_forward(&spec, &input, &weights, &bias).unwrap();
        let g = spec.geometry().unwrap();
        let panels = g.pack_weights(weights.as_slice()).unwrap();
        let parallel = conv_forward_packed(&cfg(threads), &g, 2, &input, &panels, &bias).unwrap();
        assert_bits_eq(&serial, &parallel)?;
    }

    #[test]
    fn conv3d_parallel_is_bit_identical(
        in_c in 1usize..3,
        out_c in 1usize..4,
        d in 2usize..5,
        hw in 3usize..6,
        threads in 1usize..7,
        seed in 0u64..1000,
    ) {
        let spec = Conv3dSpec { in_channels: in_c, out_channels: out_c, kd: 2, kh: 2, kw: 2, stride: 1, pad: 1 };
        let mut v = seed as f32;
        let mut next = move || { v = (v * 1.37 + 0.61) % 13.0 - 6.5; v };
        let vol = in_c * d * hw * hw;
        let input = Tensor::from_vec(Shape::d4(in_c, d, hw, hw), (0..vol).map(|_| next()).collect()).unwrap();
        let weights = Tensor::from_vec(spec.weight_shape(), (0..spec.weight_shape().volume()).map(|_| next()).collect()).unwrap();
        let bias = Tensor::from_vec(Shape::d1(out_c), (0..out_c).map(|_| next()).collect()).unwrap();
        let serial = conv3d_forward(&spec, &input, &weights, &bias).unwrap();
        let g = spec.geometry().unwrap();
        let panels = g.pack_weights(weights.as_slice()).unwrap();
        let parallel = conv_forward_packed(&cfg(threads), &g, 3, &input, &panels, &bias).unwrap();
        assert_bits_eq(&serial, &parallel)?;
    }

    #[test]
    fn parallel_for_mut_visits_each_granule_once(
        n_granules in 1usize..40,
        granule in 1usize..6,
        threads in 1usize..9,
    ) {
        let mut out = vec![0u32; n_granules * granule];
        parallel_for_mut(&cfg(threads), &mut out, granule, |offset, chunk| {
            assert_eq!(offset % granule, 0);
            for v in chunk.iter_mut() {
                *v += 1;
            }
        });
        prop_assert!(out.iter().all(|&v| v == 1));
    }
}
