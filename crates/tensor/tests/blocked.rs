//! Property-based exactness of the cache-blocked kernels against their
//! naive serial oracles, at whatever SIMD level the process resolved.
//!
//! The accumulation contract (see `reuse_tensor::simd`) is one equality:
//! the blocked kernels perform the same fused multiply-adds in the same
//! order as the naive loops, so results must be *bit-identical* across
//! arbitrary shapes — including dimensions that are not a multiple of the
//! panel width or tile width, 1×1 convolutions, and strides > 1 — and across
//! the values where a skipped or reordered term would show only in the sign
//! of a zero: exact-zero inputs, all-zero frames, `−0.0` biases.
//!
//! `scripts/ci.sh` runs this suite under both `REUSE_SIMD=off` and the
//! detected fast path.

use proptest::prelude::*;
use reuse_tensor::block::{apply_deltas_rows, fc_forward_packed_into};
use reuse_tensor::conv::{
    conv_forward_into, conv_forward_naive, Conv2dSpec, Conv3dSpec, ConvGeometry,
};
use reuse_tensor::matmul::{fc_forward_naive, matmul, matmul_naive};
use reuse_tensor::{simd, PackedPanels, ParallelConfig, Shape, Tensor};

/// Filter counts around the 16-lane panel and the 8-lane vector: a lone
/// lane, a partial panel, exactly one, one and a lane, two and a quarter.
fn out_channels() -> proptest::sample::Select<usize> {
    proptest::sample::select(vec![1, 7, 16, 17, 36])
}

/// Values in ±10 in steps of 0.1, every fourth or so an exact zero — `−0.0`
/// half the time — so zero inputs, zero deltas and `−0.0` biases all occur.
fn values(seed: u64) -> impl FnMut() -> f32 {
    let mut gen = seed;
    move || {
        gen = gen
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        match gen >> 61 {
            0 => 0.0,
            1 => -0.0,
            _ => ((gen >> 33) % 201) as i64 as f32 / 10.0 - 10.0,
        }
    }
}

/// The GEMM conv kernel against the naive oracle on one geometry and
/// `[d, h, w]` input, bit for bit, on a random frame and on an all-zero one
/// (where an output's sign is the bias's or the last zero product's). `None`
/// too when the kernel does not fit the input.
fn conv_mismatch(g: &ConvGeometry, dhw: [usize; 3]) -> Option<String> {
    g.output_dhw(dhw).ok()?;
    let [d, h, w] = dhw;
    let mut next = values((d * 97 + h * 13 + w) as u64);
    let x: Vec<f32> = (0..g.in_channels() * d * h * w).map(|_| next()).collect();
    let weights: Vec<f32> = (0..g.weight_volume()).map(|_| next()).collect();
    let bias: Vec<f32> = (0..g.out_channels()).map(|_| next()).collect();
    let panels = g.pack_weights(&weights).unwrap();
    [x.clone(), vec![0.0; x.len()]].iter().find_map(|x| {
        let naive = conv_forward_naive(g, dhw, x, &weights, &bias).unwrap();
        let mut gemm = Vec::new();
        conv_forward_into(g, dhw, x, &panels, &bias, &mut gemm).unwrap();
        simd::kernel_mismatch(&gemm, &naive)
    })
}

fn conv2d_mismatch(spec: &Conv2dSpec, h: usize, w: usize) -> Option<String> {
    conv_mismatch(&spec.geometry().unwrap(), [1, h, w])
}

fn conv3d_mismatch(spec: &Conv3dSpec, dhw: [usize; 3]) -> Option<String> {
    conv_mismatch(&spec.geometry().unwrap(), dhw)
}

/// Position counts that are not multiples of the GEMM's four-row register
/// block, of sixteen, or of the im2col block — where a kernel that reuses a
/// block's `C` rows without reseeding them, or mishandles the remainder
/// rows, goes wrong while every stream-level check still passes (they all
/// share the kernel).
#[test]
fn conv_blocks_and_remainder_rows_match_naive() {
    let spec2 = |in_c, out_c, k, stride, pad| Conv2dSpec {
        in_channels: in_c,
        out_channels: out_c,
        kh: k,
        kw: k,
        stride,
        pad,
    };
    for (spec, h, w) in [
        // AutoPilot CONV1 at reduced filters: 31x98 = 3038 positions, seven
        // im2col blocks of 436 rows, the last one 422 = 4*105 + 2.
        (spec2(3, 7, 5, 2, 0), 66, 200),
        // AutoPilot CONV5 at reduced channels: 1x18 positions.
        (spec2(4, 17, 3, 1, 0), 3, 20),
        // 43x43 = 1849 positions (prime squared) over two blocks of 1212.
        (spec2(3, 36, 3, 1, 1), 43, 43),
        (spec2(2, 16, 5, 2, 2), 9, 21),
        (spec2(1, 1, 3, 2, 2), 6, 5),
    ] {
        let mismatch = conv2d_mismatch(&spec, h, w);
        assert!(mismatch.is_none(), "{spec:?} {h}x{w}: {mismatch:?}");
    }
    let spec3 = |in_c, out_c, stride| Conv3dSpec {
        in_channels: in_c,
        out_channels: out_c,
        kd: 3,
        kh: 3,
        kw: 3,
        stride,
        pad: 1,
    };
    for (spec, dhw) in [
        // C3D's 3x3x3 pad-1 layer with a prime position count: 37.
        (spec3(2, 7, 1), [1, 1, 37]),
        // 5*7*9 = 315 positions; with stride 2, 3*4*5 = 60.
        (spec3(2, 16, 1), [5, 7, 9]),
        (spec3(2, 17, 2), [5, 7, 9]),
        // 6*13*13 = 1014 positions over two blocks of 604 (54 taps).
        (spec3(2, 36, 1), [6, 13, 13]),
    ] {
        let mismatch = conv3d_mismatch(&spec, dhw);
        assert!(mismatch.is_none(), "{spec:?} {dhw:?}: {mismatch:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_fc_forward_matches_naive(
        n_in in 1usize..40,
        n_out in 1usize..70,
        zero_frame in proptest::sample::select(vec![false, true]),
        seed in 0u64..1000,
    ) {
        let mut next = values(seed);
        let w: Vec<f32> = (0..n_in * n_out).map(|_| next()).collect();
        let x: Vec<f32> = (0..n_in).map(|_| if zero_frame { 0.0 } else { next() }).collect();
        let b: Vec<f32> = (0..n_out).map(|_| next()).collect();
        let weights = Tensor::from_vec(Shape::d2(n_in, n_out), w.clone()).unwrap();
        let tx = Tensor::from_slice_1d(&x).unwrap();
        let tb = Tensor::from_slice_1d(&b).unwrap();
        let naive = fc_forward_naive(&weights, &tx, &tb).unwrap();

        let packed = PackedPanels::pack_slice(&w, n_in, n_out);
        let mut blocked = Vec::new();
        fc_forward_packed_into(&ParallelConfig::serial(), &packed, &x, &b, &mut blocked).unwrap();

        let mismatch = simd::kernel_mismatch(&blocked, naive.as_slice());
        prop_assert!(mismatch.is_none(), "{:?}", mismatch);
    }

    #[test]
    fn blocked_matmul_matches_naive(
        m in 1usize..6,
        k in 1usize..20,
        n in 1usize..50,
        seed in 0u64..1000,
    ) {
        let mut next = values(seed.wrapping_add(1));
        // The last row of `A` all zeros: a `C` row of nothing but zero products.
        let av: Vec<f32> = (0..m * k).map(|e| if e / k == m - 1 { 0.0 } else { next() }).collect();
        let bv: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let ta = Tensor::from_vec(Shape::d2(m, k), av).unwrap();
        let tb = Tensor::from_vec(Shape::d2(k, n), bv).unwrap();

        let naive = matmul_naive(&ta, &tb).unwrap();
        let blocked = matmul(&ta, &tb).unwrap();

        let mismatch = simd::kernel_mismatch(blocked.as_slice(), naive.as_slice());
        prop_assert!(mismatch.is_none(), "m={} k={} n={}: {:?}", m, k, n, mismatch);
    }

    #[test]
    fn blocked_conv2d_matches_naive(
        in_c in 1usize..4,
        out_c in out_channels(),
        h in 3usize..9,
        w in 3usize..11,
        kh in 1usize..4,
        kw in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..3,
    ) {
        let spec = Conv2dSpec { in_channels: in_c, out_channels: out_c, kh, kw, stride, pad };
        let mismatch = conv2d_mismatch(&spec, h, w);
        prop_assert!(mismatch.is_none(), "{:?}", mismatch);
    }

    #[test]
    fn blocked_conv3d_matches_naive(
        in_c in 1usize..3,
        out_c in out_channels(),
        d in 2usize..5,
        h in 3usize..7,
        w in 3usize..7,
        kd in 1usize..3,
        khw in 1usize..4,
        (stride, pad) in (1usize..3, 0usize..3),
    ) {
        let spec = Conv3dSpec {
            in_channels: in_c,
            out_channels: out_c,
            kd,
            kh: khw,
            kw: khw,
            stride,
            pad,
        };
        let mismatch = conv3d_mismatch(&spec, [d, h, w]);
        prop_assert!(mismatch.is_none(), "{:?}", mismatch);
    }

    #[test]
    fn batched_delta_rows_match_naive_walk(
        n_in in 1usize..30,
        n_out in 1usize..60,
        mask in 0u64..(1u64 << 30),
        w_seed in 0u64..500,
    ) {
        let mut next = values(w_seed.wrapping_add(7));
        let w: Vec<f32> = (0..n_in * n_out).map(|_| next()).collect();
        // Strictly-ascending changed list, as pass 1 produces it; arbitrary
        // length covers full DELTA_BATCH groups plus ragged remainders.
        let deltas: Vec<(u32, f32)> = (0..n_in)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| (i as u32, next()))
            .collect();
        let mut z_blocked: Vec<f32> = (0..n_out).map(|_| next()).collect();
        let mut z_naive = z_blocked.clone();

        for &(i, d) in &deltas {
            for (j, zj) in z_naive.iter_mut().enumerate() {
                *zj = d.mul_add(w[i as usize * n_out + j], *zj);
            }
        }
        apply_deltas_rows(&ParallelConfig::serial(), &w, n_out, &deltas, &mut z_blocked);

        let mismatch = simd::kernel_mismatch(&z_blocked, &z_naive);
        prop_assert!(mismatch.is_none(), "{:?}", mismatch);
    }
}
