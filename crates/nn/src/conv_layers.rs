//! Convolutional layers (paper Eq. 2) wrapping the GEMM kernel in
//! `reuse-tensor`. A layer packs its weights once, at construction, into the
//! `[taps, out_c]` panels every forward pass — and every reuse correction,
//! which shares them through the `Arc` — reads.

use std::sync::Arc;

use reuse_tensor::conv::{conv_forward_packed, Conv2dSpec, Conv3dSpec, ConvGeometry};
use reuse_tensor::{PackedPanels, Shape, Tensor};

use crate::{init, Activation, NnError};

/// A 2D convolutional layer.
#[derive(Debug, Clone)]
pub struct Conv2dLayer {
    spec: Conv2dSpec,
    geometry: ConvGeometry,
    weights: Tensor,
    bias: Tensor,
    panels: Arc<PackedPanels>,
    activation: Activation,
}

impl Conv2dLayer {
    /// Builds a layer from explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] when the spec is degenerate (a zero channel count,
    /// kernel extent or stride) or the weight or bias tensors do not match it.
    pub fn new(
        spec: Conv2dSpec,
        weights: Tensor,
        bias: Tensor,
        activation: Activation,
    ) -> Result<Self, NnError> {
        let geometry = spec.geometry()?;
        if weights.shape() != &spec.weight_shape() {
            return Err(NnError::InvalidConfig {
                context: format!(
                    "conv2d weights {} != spec {}",
                    weights.shape(),
                    spec.weight_shape()
                ),
            });
        }
        if bias.len() != spec.out_channels {
            return Err(NnError::InvalidConfig {
                context: format!(
                    "conv2d bias {} != out_channels {}",
                    bias.len(),
                    spec.out_channels
                ),
            });
        }
        let panels = Arc::new(geometry.pack_weights(weights.as_slice())?);
        Ok(Conv2dLayer {
            spec,
            geometry,
            weights,
            bias,
            panels,
            activation,
        })
    }

    /// Builds a layer with deterministic pseudo-random parameters.
    pub fn random(spec: Conv2dSpec, activation: Activation, rng: &mut init::Rng64) -> Self {
        let fan_in = spec.in_channels * spec.kh * spec.kw;
        let count = spec.weight_shape().volume();
        let w = init::he_normal(rng, fan_in, count);
        let b = init::small_bias(rng, spec.out_channels);
        let weights = Tensor::from_vec(spec.weight_shape(), w).expect("sized by construction");
        let bias =
            Tensor::from_vec(Shape::d1(spec.out_channels), b).expect("sized by construction");
        Self::new(spec, weights, bias, activation).expect("sized by construction")
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }

    /// Filter weights `[out_c, in_c, kh, kw]`.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// The validated rank-generic geometry of [`Self::spec`].
    pub fn geometry(&self) -> &ConvGeometry {
        &self.geometry
    }

    /// The weights as packed at construction: the `[taps, out_c]` panels the
    /// forward pass multiplies against and reuse corrections read rows of.
    pub fn panels(&self) -> &Arc<PackedPanels> {
        &self.panels
    }

    /// Per-filter biases.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// The post-linear activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Linear part only (pre-activation feature maps).
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches from the kernel.
    pub fn forward_linear(&self, input: &Tensor) -> Result<Tensor, NnError> {
        Ok(conv_forward_packed(
            &self.geometry,
            2,
            input,
            &self.panels,
            &self.bias,
        )?)
    }

    /// Full forward pass including the activation.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches from the kernel.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut out = self.forward_linear(input)?;
        self.activation.apply_in_place(out.as_mut_slice());
        Ok(out)
    }

    /// Parameter count (weights + biases).
    pub fn param_count(&self) -> u64 {
        (self.spec.weight_shape().volume() + self.spec.out_channels) as u64
    }
}

/// A 3D convolutional layer (C3D-style).
#[derive(Debug, Clone)]
pub struct Conv3dLayer {
    spec: Conv3dSpec,
    geometry: ConvGeometry,
    weights: Tensor,
    bias: Tensor,
    panels: Arc<PackedPanels>,
    activation: Activation,
}

impl Conv3dLayer {
    /// Builds a layer from explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] when the spec is degenerate (a zero channel count,
    /// kernel extent or stride) or the weight or bias tensors do not match it.
    pub fn new(
        spec: Conv3dSpec,
        weights: Tensor,
        bias: Tensor,
        activation: Activation,
    ) -> Result<Self, NnError> {
        let geometry = spec.geometry()?;
        if weights.shape() != &spec.weight_shape() {
            return Err(NnError::InvalidConfig {
                context: format!(
                    "conv3d weights {} != spec {}",
                    weights.shape(),
                    spec.weight_shape()
                ),
            });
        }
        if bias.len() != spec.out_channels {
            return Err(NnError::InvalidConfig {
                context: format!(
                    "conv3d bias {} != out_channels {}",
                    bias.len(),
                    spec.out_channels
                ),
            });
        }
        let panels = Arc::new(geometry.pack_weights(weights.as_slice())?);
        Ok(Conv3dLayer {
            spec,
            geometry,
            weights,
            bias,
            panels,
            activation,
        })
    }

    /// Builds a layer with deterministic pseudo-random parameters.
    pub fn random(spec: Conv3dSpec, activation: Activation, rng: &mut init::Rng64) -> Self {
        let fan_in = spec.in_channels * spec.kd * spec.kh * spec.kw;
        let count = spec.weight_shape().volume();
        let w = init::he_normal(rng, fan_in, count);
        let b = init::small_bias(rng, spec.out_channels);
        let weights = Tensor::from_vec(spec.weight_shape(), w).expect("sized by construction");
        let bias =
            Tensor::from_vec(Shape::d1(spec.out_channels), b).expect("sized by construction");
        Self::new(spec, weights, bias, activation).expect("sized by construction")
    }

    /// The convolution geometry.
    pub fn spec(&self) -> &Conv3dSpec {
        &self.spec
    }

    /// Filter weights `[out_c, in_c, kd, kh, kw]`.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// The validated rank-generic geometry of [`Self::spec`].
    pub fn geometry(&self) -> &ConvGeometry {
        &self.geometry
    }

    /// The weights as packed at construction: the `[taps, out_c]` panels the
    /// forward pass multiplies against and reuse corrections read rows of.
    pub fn panels(&self) -> &Arc<PackedPanels> {
        &self.panels
    }

    /// Per-filter biases.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// The post-linear activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Linear part only (pre-activation feature maps).
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches from the kernel.
    pub fn forward_linear(&self, input: &Tensor) -> Result<Tensor, NnError> {
        Ok(conv_forward_packed(
            &self.geometry,
            3,
            input,
            &self.panels,
            &self.bias,
        )?)
    }

    /// Full forward pass including the activation.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches from the kernel.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut out = self.forward_linear(input)?;
        self.activation.apply_in_place(out.as_mut_slice());
        Ok(out)
    }

    /// Parameter count (weights + biases).
    pub fn param_count(&self) -> u64 {
        (self.spec.weight_shape().volume() + self.spec.out_channels) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_layer_forward_applies_activation() {
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 1,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
        };
        let w = Tensor::from_vec(spec.weight_shape(), vec![-1.0]).unwrap();
        let b = Tensor::from_slice_1d(&[0.0]).unwrap();
        let layer = Conv2dLayer::new(spec, w, b, Activation::Relu).unwrap();
        let input = Tensor::from_vec(Shape::d3(1, 1, 2), vec![1.0, -1.0]).unwrap();
        let out = layer.forward(&input).unwrap();
        assert_eq!(out.as_slice(), &[0.0, 1.0]);
        let lin = layer.forward_linear(&input).unwrap();
        assert_eq!(lin.as_slice(), &[-1.0, 1.0]);
    }

    #[test]
    fn conv2d_layer_rejects_mismatched_weights() {
        let spec = Conv2dSpec {
            in_channels: 1,
            out_channels: 2,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 0,
        };
        let w = Tensor::zeros(Shape::d4(1, 1, 3, 3));
        let b = Tensor::zeros(Shape::d1(2));
        assert!(Conv2dLayer::new(spec, w, b, Activation::Identity).is_err());
    }

    #[test]
    fn conv3d_layer_random_is_deterministic() {
        let spec = Conv3dSpec {
            in_channels: 2,
            out_channels: 3,
            kd: 3,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        let a = Conv3dLayer::random(spec, Activation::Relu, &mut init::Rng64::new(5));
        let b = Conv3dLayer::random(spec, Activation::Relu, &mut init::Rng64::new(5));
        assert_eq!(a.weights().as_slice(), b.weights().as_slice());
        assert_eq!(a.param_count(), (3 * 2 * 27 + 3) as u64);
    }
}
