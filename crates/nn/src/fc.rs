//! Fully-connected layer (paper Eq. 1).

use std::sync::Arc;

use reuse_tensor::{block, matmul, PackedPanels, ParallelConfig, Shape, Tensor};

use crate::{init, Activation, NnError};

/// A fully-connected layer: `out = act(Wᵀ·x + b)`.
///
/// Weights are stored **input-major** (`[n_inputs, n_outputs]`), mirroring
/// the interleaved Weights Buffer layout of the paper's accelerator
/// (Fig. 7): the `n_outputs` weights fed by a single input are contiguous,
/// which is what the reuse scheme walks when an input changes.
///
/// At construction the weights are additionally repacked once into
/// cache-blocked [`PackedPanels`], so the layer holds both layouts.
/// [`Self::forward_linear_into`] — the layer's one forward, under every
/// walk of a network — runs the 16-lane blocked microkernel over the packed
/// copy (dispatched per [`reuse_tensor::SimdLevel`], bit-identical to the
/// naive input-major walk at either). The reuse-correction path does not
/// touch that copy: [`reuse_tensor::block::apply_deltas_rows`]
/// walks the row-major `weights`, one contiguous row per changed input.
///
/// Both layouts are immutable and shared by clones of the layer (the conv
/// layers' `Arc` idiom): compiling a model clones its network, and a copy of
/// Kaldi's 18 MB of weights in each layout was most of that set-up.
#[derive(Debug, Clone)]
pub struct FullyConnected {
    weights: Arc<Tensor>,
    packed: Arc<PackedPanels>,
    bias: Tensor,
    activation: Activation,
}

impl FullyConnected {
    /// Builds a layer from explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when `weights` is not rank-2 or
    /// `bias` does not match the output dimension.
    pub fn new(weights: Tensor, bias: Tensor, activation: Activation) -> Result<Self, NnError> {
        let dims = weights.shape().dims();
        if dims.len() != 2 {
            return Err(NnError::InvalidConfig {
                context: format!("fc weights must be rank-2, got {}", weights.shape()),
            });
        }
        if bias.len() != dims[1] {
            return Err(NnError::InvalidConfig {
                context: format!("fc bias length {} != output dim {}", bias.len(), dims[1]),
            });
        }
        let packed = PackedPanels::pack(&weights).expect("rank checked above");
        Ok(FullyConnected {
            weights: Arc::new(weights),
            packed: Arc::new(packed),
            bias,
            activation,
        })
    }

    /// Builds a layer with deterministic pseudo-random parameters.
    pub fn random(
        n_in: usize,
        n_out: usize,
        activation: Activation,
        rng: &mut init::Rng64,
    ) -> Self {
        let w = init::xavier_uniform(rng, n_in, n_out, n_in * n_out);
        let b = init::small_bias(rng, n_out);
        let weights = Tensor::from_vec(Shape::d2(n_in, n_out), w).expect("sized by construction");
        let bias = Tensor::from_vec(Shape::d1(n_out), b).expect("sized by construction");
        let packed = PackedPanels::pack(&weights).expect("rank-2 by construction");
        FullyConnected {
            weights: Arc::new(weights),
            packed: Arc::new(packed),
            bias,
            activation,
        }
    }

    /// Number of inputs.
    pub fn n_in(&self) -> usize {
        self.weights.shape().dims()[0]
    }

    /// Number of output neurons.
    pub fn n_out(&self) -> usize {
        self.weights.shape().dims()[1]
    }

    /// The input-major weight matrix `[n_in, n_out]`.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// The cache-blocked panel repack of [`Self::weights`], built once at
    /// construction and shared by the forward and reuse-correction
    /// microkernels.
    pub fn packed(&self) -> &PackedPanels {
        &self.packed
    }

    /// The bias vector `[n_out]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// The post-linear activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Linear part only (`Wᵀx + b`), before the activation — the reuse
    /// engine buffers and corrects *this* value, then re-applies the
    /// activation (the correction of Eq. 10 is linear). Allocation-free:
    /// clears `out` and writes the `n_out` pre-activation values into it,
    /// reusing its capacity across calls. Runs the cache-blocked packed
    /// microkernel at the active [`reuse_tensor::SimdLevel`]; results are
    /// bit-identical to the naive [`matmul::fc_forward_naive`] walk at
    /// either. The activation on top is [`crate::Layer::forward_into`].
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches from the kernel.
    pub fn forward_linear_into(&self, input: &[f32], out: &mut Vec<f32>) -> Result<(), NnError> {
        Ok(block::fc_forward_packed_into(
            &ParallelConfig::serial(),
            &self.packed,
            input,
            self.bias.as_slice(),
            out,
        )?)
    }

    /// Parameter count (weights + biases).
    pub fn param_count(&self) -> u64 {
        (self.n_in() * self.n_out() + self.n_out()) as u64
    }

    /// Multiply+add count of a from-scratch execution.
    pub fn flops(&self) -> u64 {
        matmul::fc_flops(self.n_in(), self.n_out())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The layer's forward, activation included, through the one entry
    /// every walk of a network uses.
    fn forward(fc: &FullyConnected, x: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        crate::Layer::FullyConnected(fc.clone())
            .forward_into(&Shape::d1(x.len()), x, &mut out)
            .unwrap();
        out
    }

    #[test]
    fn forward_matches_manual() {
        let w = Tensor::from_vec(Shape::d2(2, 2), vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let b = Tensor::from_slice_1d(&[1.0, -1.0]).unwrap();
        let fc = FullyConnected::new(w, b, Activation::Identity).unwrap();
        assert_eq!(forward(&fc, &[2.0, 3.0]), [3.0, 2.0]);
    }

    #[test]
    fn relu_applied_after_linear() {
        let w = Tensor::from_vec(Shape::d2(1, 1), vec![1.0]).unwrap();
        let b = Tensor::from_slice_1d(&[0.0]).unwrap();
        let fc = FullyConnected::new(w, b, Activation::Relu).unwrap();
        assert_eq!(forward(&fc, &[-5.0]), [0.0]);
        let mut lin = Vec::new();
        fc.forward_linear_into(&[-5.0], &mut lin).unwrap();
        assert_eq!(lin, [-5.0]);
    }

    #[test]
    fn invalid_bias_rejected() {
        let w = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d1(2));
        assert!(FullyConnected::new(w, b, Activation::Identity).is_err());
    }

    #[test]
    fn random_layer_is_deterministic() {
        let mut r1 = init::Rng64::new(11);
        let mut r2 = init::Rng64::new(11);
        let a = FullyConnected::random(8, 4, Activation::Relu, &mut r1);
        let b = FullyConnected::random(8, 4, Activation::Relu, &mut r2);
        assert_eq!(a.weights().as_slice(), b.weights().as_slice());
        assert_eq!(a.bias().as_slice(), b.bias().as_slice());
    }

    #[test]
    fn packed_forward_matches_naive_kernel() {
        let mut rng = init::Rng64::new(7);
        // Odd n_out so the last panel is partial.
        let fc = FullyConnected::random(37, 53, Activation::Identity, &mut rng);
        let x: Vec<f32> = (0..37).map(|v| (v as f32) * 0.11 - 2.0).collect();
        let xt = Tensor::from_slice_1d(&x).unwrap();
        let naive = matmul::fc_forward_naive(fc.weights(), &xt, fc.bias()).unwrap();
        let mut blocked = Vec::new();
        fc.forward_linear_into(&x, &mut blocked).unwrap();
        let mismatch = reuse_tensor::simd::kernel_mismatch(&blocked, naive.as_slice());
        assert!(mismatch.is_none(), "{}", mismatch.unwrap());
    }

    #[test]
    fn accounting() {
        let mut rng = init::Rng64::new(0);
        let fc = FullyConnected::random(400, 2000, Activation::Relu, &mut rng);
        assert_eq!(fc.param_count(), 400 * 2000 + 2000);
        assert_eq!(fc.flops(), 2 * 400 * 2000);
        assert_eq!((fc.n_in(), fc.n_out()), (400, 2000));
    }
}
