//! Dense matrix kernels for fully-connected layers.
//!
//! The fully-connected layer of the paper (Eq. 1) is a matrix-vector product
//! plus bias. Weights are stored **input-major** (`weights[input][neuron]`),
//! mirroring the accelerator's interleaved Weights Buffer layout (paper
//! Fig. 7): all the weights that a single *input* feeds are contiguous, which
//! is exactly what the reuse scheme needs to skip or correct one input at a
//! time.

use crate::block::{forward_panels_scalar, PackedPanels};
use crate::simd;
use crate::{ParallelConfig, Shape, Tensor, TensorError};

/// Computes `out[j] = Σ_i w[i][j] · x[i] + b[j]` (paper Eq. 1) by the plain
/// input-major walk: the oracle for the cache-blocked
/// [`crate::block::fc_forward_packed_into`] (bit-identical to it at either
/// [`crate::simd::level`]), which is what layers run.
///
/// * `weights` must have shape `[n_inputs, n_outputs]` (input-major).
/// * `input` must have `n_inputs` elements (any shape; flattened).
/// * `bias` must have `n_outputs` elements.
///
/// Per output the accumulation is the bias, then one fused multiply-add per
/// input in ascending order — zeros included — so that the incremental reuse
/// path in `reuse-core` can reproduce results deterministically.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when dimensions disagree.
pub fn fc_forward_naive(
    weights: &Tensor,
    input: &Tensor,
    bias: &Tensor,
) -> Result<Tensor, TensorError> {
    let dims = weights.shape().dims();
    if dims.len() != 2 {
        return Err(TensorError::ShapeMismatch {
            context: format!("fc weights must be rank-2, got {}", weights.shape()),
        });
    }
    let (n_in, n_out) = (dims[0], dims[1]);
    if input.len() != n_in {
        return Err(TensorError::ShapeMismatch {
            context: format!(
                "fc input length {} does not match weight rows {}",
                input.len(),
                n_in
            ),
        });
    }
    if bias.len() != n_out {
        return Err(TensorError::ShapeMismatch {
            context: format!(
                "fc bias length {} does not match weight cols {}",
                bias.len(),
                n_out
            ),
        });
    }
    let w = weights.as_slice();
    let mut out = bias.as_slice().to_vec();
    for (i, &xi) in input.as_slice().iter().enumerate() {
        let row = &w[i * n_out..(i + 1) * n_out];
        for (o, &wij) in out.iter_mut().zip(row.iter()) {
            *o = xi.mul_add(wij, *o);
        }
    }
    Tensor::from_vec(Shape::d1(n_out), out)
}

/// General dense matrix multiply `C = A · B` with `A: [m, k]`, `B: [k, n]`:
/// packs `B` and runs [`matmul_packed_into`]. The layers do not call it (FC
/// and LSTM gates run matvecs, convolution multiplies against panels packed
/// once); same exactness against [`matmul_naive`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when inner dimensions disagree or
/// either operand is not rank-2.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k, n) = matmul_dims(a, b)?;
    let packed = PackedPanels::pack_slice(b.as_slice(), k, n);
    let mut c = vec![0.0f32; m * n];
    matmul_packed_into(&ParallelConfig::serial(), a.as_slice(), &packed, m, &mut c);
    Tensor::from_vec(Shape::d2(m, n), c)
}

/// The blocked multiply against an already-packed `B`: `C += A · B` where
/// `a` is row-major `[m, k]`, `packed` holds `B` (`k = packed.n_in()`,
/// `n = packed.n_out()`), and `c` is the row-major `[m, n]` output, entering
/// with each output's initial value — zeros for a plain product, the bias
/// for a convolution's im2col block — which heads that output's chain.
///
/// Each `C[i][j]` is one fused chain over every `l` ascending: bit-identical
/// to [`matmul_naive`] at either [`crate::simd::level`]. Under AVX2 the
/// panels are walked **outermost** with four `C` rows register-blocked per
/// pass (eight accumulator chains), so every streamed panel row is reused
/// fourfold from registers.
///
/// # Panics
///
/// Panics when `a` or `c` disagree with `m` and the packed dimensions.
pub fn matmul_packed_into(
    _config: &ParallelConfig,
    a: &[f32],
    packed: &PackedPanels,
    m: usize,
    c: &mut [f32],
) {
    let (k, n) = (packed.n_in(), packed.n_out());
    assert_eq!(a.len(), m * k, "A shape mismatch");
    assert_eq!(c.len(), m * n, "C shape mismatch");
    if c.is_empty() {
        // No rows, or panels packed with `n_out == 0`: nothing to chunk.
        return;
    }
    match simd::level() {
        #[cfg(target_arch = "x86_64")]
        simd::SimdLevel::Avx2 => simd::avx2::matmul_rows(packed, a, c),
        _ => {
            for (r, crow) in c.chunks_exact_mut(n).enumerate() {
                // The microkernels accumulate onto what crow holds: 0.0
                // for a plain product, exactly like the naive loop.
                forward_panels_scalar(packed, &a[r * k..(r + 1) * k], crow);
            }
        }
    }
}

/// The unblocked oracle for [`matmul`]: a plain row walk with no weight
/// repacking, one fused step per term. Kept public so proptests can compare
/// the blocked kernel against it.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when inner dimensions disagree or
/// either operand is not rank-2.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    let (m, k, n) = matmul_dims(a, b)?;
    let (av, bv) = (a.as_slice(), b.as_slice());
    let mut c = vec![0.0f32; m * n];
    for (i, crow) in c.chunks_exact_mut(n).enumerate() {
        for l in 0..k {
            let aik = av[i * k + l];
            let brow = &bv[l * n..(l + 1) * n];
            for (cj, &bj) in crow.iter_mut().zip(brow.iter()) {
                *cj = aik.mul_add(bj, *cj);
            }
        }
    }
    Tensor::from_vec(Shape::d2(m, n), c)
}

fn matmul_dims(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize), TensorError> {
    let (ad, bd) = (a.shape().dims(), b.shape().dims());
    if ad.len() != 2 || bd.len() != 2 {
        return Err(TensorError::ShapeMismatch {
            context: "matmul operands must be rank-2".into(),
        });
    }
    let (m, k) = (ad[0], ad[1]);
    let (k2, n) = (bd[0], bd[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            context: format!("matmul inner dims {k} vs {k2}"),
        });
    }
    Ok((m, k, n))
}

/// Number of multiply and add operations an FC layer performs from scratch:
/// `2 · n_in · n_out` (paper Section II-A).
pub fn fc_flops(n_in: usize, n_out: usize) -> u64 {
    2 * n_in as u64 * n_out as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fc_forward_matches_hand_computation() {
        // 2 inputs, 3 neurons; weights input-major.
        let w = Tensor::from_vec(Shape::d2(2, 3), vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let x = Tensor::from_slice_1d(&[10.0, 100.0]).unwrap();
        let b = Tensor::from_slice_1d(&[0.5, 0.5, 0.5]).unwrap();
        let y = fc_forward_naive(&w, &x, &b).unwrap();
        assert_eq!(
            y.as_slice(),
            &[10.0 + 400.0 + 0.5, 20.0 + 500.0 + 0.5, 30.0 + 600.0 + 0.5]
        );
    }

    #[test]
    fn fc_forward_of_zero_input_equals_bias() {
        let w = Tensor::from_vec(Shape::d2(3, 2), vec![1.0; 6]).unwrap();
        let x = Tensor::from_slice_1d(&[0.0, 0.0, 0.0]).unwrap();
        let b = Tensor::from_slice_1d(&[7.0, -7.0]).unwrap();
        let y = fc_forward_naive(&w, &x, &b).unwrap();
        assert_eq!(y.as_slice(), b.as_slice());
    }

    #[test]
    fn fc_forward_validates_dimensions() {
        let w = Tensor::from_vec(Shape::d2(2, 3), vec![0.0; 6]).unwrap();
        let x = Tensor::from_slice_1d(&[1.0]).unwrap();
        let b = Tensor::from_slice_1d(&[0.0; 3]).unwrap();
        assert!(fc_forward_naive(&w, &x, &b).is_err());
        let x2 = Tensor::from_slice_1d(&[1.0, 2.0]).unwrap();
        let b2 = Tensor::from_slice_1d(&[0.0; 2]).unwrap();
        assert!(fc_forward_naive(&w, &x2, &b2).is_err());
    }

    #[test]
    fn matmul_identity() {
        let i = Tensor::from_vec(Shape::d2(2, 2), vec![1., 0., 0., 1.]).unwrap();
        let a = Tensor::from_vec(Shape::d2(2, 2), vec![1., 2., 3., 4.]).unwrap();
        assert_eq!(matmul(&i, &a).unwrap(), a);
        assert_eq!(matmul(&a, &i).unwrap(), a);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(Shape::d2(1, 3), vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec(Shape::d2(3, 2), vec![1., 0., 0., 1., 1., 1.]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape().dims(), &[1, 2]);
        assert_eq!(c.as_slice(), &[1. + 3., 2. + 3.]);
    }

    #[test]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(2, 2));
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn flops_formula() {
        assert_eq!(fc_flops(400, 2000), 1_600_000);
    }

    #[test]
    fn blocked_matmul_matches_naive() {
        // Shapes straddling the 16-lane panel width and the AVX2 4-row
        // register block, bit for bit (see `crate::simd`).
        for (m, k, n) in [
            (4usize, 3usize, 5usize),
            (6, 7, 8),
            (9, 11, 13),
            (5, 1, 17),
            (8, 5, 16),
            (11, 9, 33),
        ] {
            let av: Vec<f32> = (0..m * k).map(|v| (v as f32) * 0.37 - 2.0).collect();
            let bv: Vec<f32> = (0..k * n).map(|v| 1.5 - (v as f32) * 0.21).collect();
            let mut av = av;
            av[1] = 0.0; // an exact zero is multiplied like any input
            let a = Tensor::from_vec(Shape::d2(m, k), av).unwrap();
            let b = Tensor::from_vec(Shape::d2(k, n), bv).unwrap();
            let naive = matmul_naive(&a, &b).unwrap();
            let blocked = matmul(&a, &b).unwrap();
            let mismatch = crate::simd::kernel_mismatch(blocked.as_slice(), naive.as_slice());
            assert!(mismatch.is_none(), "m={m} k={k} n={n}: {mismatch:?}");
        }
    }
}
