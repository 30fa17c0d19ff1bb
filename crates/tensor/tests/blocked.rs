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
//! `scripts/ci.sh` runs this suite at the detected level, under
//! `REUSE_SIMD=avx2` and under `REUSE_SIMD=off`, so each level's conv forward
//! body (the AVX-512 one on an AVX-512 host) meets the oracle here.

use proptest::prelude::*;
use reuse_tensor::block::{apply_deltas_rows, fc_forward_packed_into};
use reuse_tensor::conv::{
    conv_forward_into, conv_forward_naive, transpose_into, Conv2dSpec, Conv3dSpec, ConvGeometry,
};
use reuse_tensor::matmul::{fc_forward_naive, matmul_naive, matmul_packed_into};
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
/// `[d, h, w]` input, bit for bit: one call over `frames` frames — random,
/// all-zero, random, … — against the oracle frame by frame, with a `−0.0`
/// among the biases (on an all-zero frame an output's sign is the bias's or
/// the last zero product's). `None` too when the kernel does not fit the
/// input.
fn conv_mismatch(g: &ConvGeometry, dhw: [usize; 3], frames: usize) -> Option<String> {
    g.output_dhw(dhw).ok()?;
    let [d, h, w] = dhw;
    let frame_len = g.in_channels() * d * h * w;
    let mut next = values((d * 97 + h * 13 + w) as u64);
    let x: Vec<f32> = (0..frames * frame_len)
        .map(|i| if i / frame_len % 2 == 1 { 0.0 } else { next() })
        .collect();
    let weights: Vec<f32> = (0..g.weight_volume()).map(|_| next()).collect();
    let mut bias: Vec<f32> = (0..g.out_channels()).map(|_| next()).collect();
    bias[0] = -0.0;
    let panels = g.pack_weights(&weights).unwrap();
    let mut gemm = Vec::new();
    conv_forward_into(g, dhw, &x, frames, &panels, &bias, &mut gemm).unwrap();
    let naive: Vec<f32> = x
        .chunks_exact(frame_len)
        .flat_map(|x| conv_forward_naive(g, dhw, x, &weights, &bias).unwrap())
        .collect();
    simd::kernel_mismatch(&gemm, &naive)
}

fn conv2d_mismatch(spec: &Conv2dSpec, h: usize, w: usize) -> Option<String> {
    conv_mismatch(&spec.geometry().unwrap(), [1, h, w], 2)
}

fn conv3d_mismatch(spec: &Conv3dSpec, dhw: [usize; 3]) -> Option<String> {
    conv_mismatch(&spec.geometry().unwrap(), dhw, 2)
}

/// Position counts that are not multiples of the forward's register group
/// (six positions in the AVX2 body, eight in the AVX-512 one), of the
/// transpose's eight-row tile, or of the block — where a kernel that reuses
/// a block's rows without reseeding them, stores a row of a group moved back
/// over finished rows, or mishandles the remainder rows goes wrong while
/// every stream-level check still passes (they all share the kernel).
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
        // AutoPilot CONV1 at reduced filters: 31x98 = 3038 positions, twelve
        // blocks of 240 and one of 158 = 6*26 + 2 = 8*19 + 6.
        (spec2(3, 7, 5, 2, 0), 66, 200),
        // AutoPilot CONV5 at reduced channels: 1x18 positions.
        (spec2(4, 17, 3, 1, 0), 3, 20),
        // 43x43 = 1849 positions (prime squared): the last block 169.
        (spec2(3, 36, 3, 1, 1), 43, 43),
        (spec2(2, 16, 5, 2, 2), 9, 21),
        (spec2(1, 1, 3, 2, 2), 6, 5),
        // Padded, at every pass shape of the AVX-512 body (up to three
        // panels a pass, positions in groups of eight): one panel, a partial
        // one, three, and 64 filters as a pass of three then one.
        (spec2(3, 16, 3, 1, 1), 7, 9),
        (spec2(2, 7, 5, 2, 2), 11, 13),
        (spec2(4, 36, 5, 2, 1), 17, 41),
        (spec2(3, 64, 3, 1, 1), 5, 50),
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
        // 6*13*13 = 1014 positions, the last block 54 = 6*9 = 8*6 + 6.
        (spec3(2, 36, 1), [6, 13, 13]),
        // One panel, and three with a partial last one (eight lanes; one
        // lane at stride 2).
        (spec3(3, 16, 1), [4, 6, 7]),
        (spec3(2, 40, 1), [3, 5, 11]),
        (spec3(5, 33, 2), [4, 9, 9]),
    ] {
        let mismatch = conv3d_mismatch(&spec, dhw);
        assert!(mismatch.is_none(), "{spec:?} {dhw:?}: {mismatch:?}");
    }
}

/// Several frames per call, where the padded frame is refilled for each and
/// its border must stay `0.0`, and where a block ends on a frame's last
/// position, whose last window ends on the frame's last float. Every axis
/// padded, 2D windows at stride 2 with `pad > 0`, and kernel widths from 1
/// to 7.
#[test]
fn multi_frame_calls_match_naive_frame_by_frame() {
    let geometry = |in_c, out_c, kernel, stride, pad| {
        ConvGeometry::new(in_c, out_c, kernel, stride, pad).unwrap()
    };
    let mut cases = vec![
        // 6x4x101 = 2424 positions: ten blocks of 240, the last one 24.
        (geometry(1, 7, [3, 3, 3], 1, [1, 1, 1]), [6, 4, 101]),
        // C3D CONV1's channels, one block ending on the frame's end.
        (geometry(3, 16, [3, 3, 3], 1, [1, 1, 1]), [4, 9, 11]),
        // Unequal pads, kernel extents and stride 2 on every axis.
        (geometry(2, 17, [2, 3, 5], 2, [1, 2, 1]), [5, 7, 9]),
        // 56x130 = 7280 positions: thirty blocks of 240, the last one 80.
        (geometry(1, 3, [1, 3, 3], 1, [0, 1, 1]), [1, 56, 130]),
        // Unpadded, so the windows are cut from the caller's frames.
        (geometry(3, 7, [1, 5, 5], 2, [0, 0, 0]), [1, 13, 21]),
        (geometry(2, 7, [1, 3, 3], 1, [0, 0, 0]), [1, 5, 8]),
    ];
    for kw in [1, 2, 3, 4, 5, 7] {
        cases.push((geometry(2, 17, [1, 3, kw], 2, [0, 1, 2]), [1, 9, 13]));
        cases.push((geometry(3, 5, [1, kw, kw], 2, [0, 1, 1]), [1, 8, 10]));
    }
    for (g, dhw) in cases {
        for frames in 2..=3 {
            let mismatch = conv_mismatch(&g, dhw, frames);
            assert!(
                mismatch.is_none(),
                "{g:?} on {frames}x{dhw:?}: {mismatch:?}"
            );
        }
    }
}

/// Every remainder of the six-position group and of the eight-row transpose
/// tile, in a frame of a single block and in a frame's last block past
/// full ones (240 positions a block), for one filter and for filter counts
/// off the 16-lane panel; then groups that straddle an output row and a
/// plane (7- and 5-wide rows, 3x5 planes), over frames whose last group is
/// moved back over rows the group before it finished.
#[test]
fn conv_group_and_tile_remainders_match_naive() {
    let geometry =
        |in_c, out_c, kernel, pad| ConvGeometry::new(in_c, out_c, kernel, 1, pad).unwrap();
    for out_c in [1, 7, 17, 36] {
        for n in (1..=13).chain(240..=253) {
            let g = geometry(2, out_c, [1, 1, 3], [0, 0, 1]);
            let mismatch = conv_mismatch(&g, [1, 1, n], 2);
            assert!(
                mismatch.is_none(),
                "{out_c} filters, {n} positions: {mismatch:?}"
            );
        }
    }
    for (g, dhw) in [
        (geometry(3, 17, [1, 3, 3], [0, 1, 1]), [1, 4, 7]),
        (geometry(2, 7, [3, 3, 3], [1, 1, 1]), [3, 3, 5]),
        (geometry(2, 36, [2, 2, 2], [0, 0, 0]), [4, 4, 6]),
    ] {
        for frames in 1..=3 {
            let mismatch = conv_mismatch(&g, dhw, frames);
            assert!(
                mismatch.is_none(),
                "{g:?} on {frames}x{dhw:?}: {mismatch:?}"
            );
        }
    }
}

/// The geometries the blocking was sized on: C3D-small CONV6's 196 = 6*32 +
/// 4 = 8*24 + 4 positions in one block, AutoPilot-small CONV1's 3038 in
/// thirteen, and a deep layer — C3D-small CONV7, 128 -> 128 channels, 3456
/// taps over 8 panels, on its 2x3x3 input (three whole groups).
#[test]
fn c3d_and_autopilot_geometries_match_naive() {
    let c3d = |in_c, out_c| ConvGeometry::new(in_c, out_c, [3, 3, 3], 1, [1, 1, 1]).unwrap();
    let autopilot_conv1 = ConvGeometry::new(3, 24, [1, 5, 5], 2, [0, 0, 0]).unwrap();
    for (g, dhw) in [
        (c3d(4, 36), [4, 7, 7]),
        (autopilot_conv1, [1, 66, 200]),
        (c3d(128, 128), [2, 3, 3]),
    ] {
        let mismatch = conv_mismatch(&g, dhw, 2);
        assert!(mismatch.is_none(), "{g:?} on {dhw:?}: {mismatch:?}");
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
        // Whole four-row groups and every remainder; past one 64-lane tile.
        m in 1usize..10,
        k in 1usize..20,
        n in 1usize..90,
        seed in 0u64..1000,
    ) {
        let mut next = values(seed.wrapping_add(1));
        // The last row of `A` all zeros: a `C` row of nothing but zero products.
        let av: Vec<f32> = (0..m * k).map(|e| if e / k == m - 1 { 0.0 } else { next() }).collect();
        let bv: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let packed = PackedPanels::pack_slice(&bv, k, n);
        let mut blocked = vec![0.0; m * n];
        matmul_packed_into(&ParallelConfig::serial(), &av, &packed, m, &mut blocked);

        let ta = Tensor::from_vec(Shape::d2(m, k), av).unwrap();
        let tb = Tensor::from_vec(Shape::d2(k, n), bv).unwrap();
        let naive = matmul_naive(&ta, &tb).unwrap();

        let mismatch = simd::kernel_mismatch(&blocked, naive.as_slice());
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

    /// The transpose against the element loop the scalar tile walk is, bit
    /// for bit: whole 8x8 tiles and the right-hand and bottom strips past
    /// them, and every case's 1-tall and 1-wide matrices too.
    #[test]
    fn transpose_matches_the_element_walk(
        rows in 1usize..=70,
        cols in 1usize..=70,
        seed in 0u64..1000,
    ) {
        let mut next = values(seed);
        for (rows, cols) in [(rows, cols), (1, cols), (rows, 1)] {
            let src: Vec<f32> = (0..rows * cols).map(|_| next()).collect();
            let mut want = vec![0.0f32; rows * cols];
            for r in 0..rows {
                for c in 0..cols {
                    want[c * rows + r] = src[r * cols + c];
                }
            }
            let mut got = vec![f32::NAN; rows * cols];
            transpose_into(&src, rows, cols, &mut got);
            let mismatch = simd::kernel_mismatch(&got, &want);
            prop_assert!(mismatch.is_none(), "{}x{}: {:?}", rows, cols, mismatch);
        }
    }
}
