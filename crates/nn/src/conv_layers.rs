//! Convolutional layers (paper Eq. 2): the parameters of the GEMM kernel in
//! `reuse-tensor`. A layer packs its weights once, at construction, into the
//! `[taps, out_c]` panels every forward pass ([`crate::Layer::forward_linear_into`],
//! one call for both ranks) — and every reuse correction, which shares them
//! through the `Arc` — reads.

use std::sync::Arc;

use reuse_tensor::conv::{Conv2dSpec, Conv3dSpec, ConvGeometry};
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
        let layer = crate::Layer::Conv2d(Conv2dLayer::new(spec, w, b, Activation::Relu).unwrap());
        let (shape, input, mut out) = (Shape::d3(1, 1, 2), [1.0, -1.0], Vec::new());
        layer.forward_into(&shape, &input, 1, &mut out).unwrap();
        assert_eq!(out, [0.0, 1.0]);
        layer
            .forward_linear_into(&shape, &input, 1, &mut out)
            .unwrap();
        assert_eq!(out, [-1.0, 1.0]);
        // The flat entry still refuses a shape of the wrong rank or channels.
        for bad in [Shape::d1(2), Shape::d3(2, 1, 1), Shape::d4(1, 1, 1, 2)] {
            assert!(
                layer.forward_into(&bad, &input, 1, &mut out).is_err(),
                "{bad}"
            );
        }
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
