use reuse_tensor::{simd, Tensor};

/// Elementwise activation function applied after a layer's linear part.
///
/// The paper's networks use ReLU in hidden layers; the LSTM gates use
/// `Sigmoid` and `Tanh` (paper Fig. 3, `σ` and `φ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// No non-linearity (output layers, pre-softmax logits).
    #[default]
    Identity,
    /// `max(0, x)`.
    Relu,
    /// Logistic sigmoid `1 / (1 + e^-x)` ([`reuse_tensor::simd::sigmoid`]).
    Sigmoid,
    /// Hyperbolic tangent ([`reuse_tensor::simd::tanh`]).
    Tanh,
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply_scalar(&self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => simd::sigmoid(x),
            Activation::Tanh => simd::tanh(x),
        }
    }

    /// Applies the activation elementwise to a tensor, returning a new one.
    pub fn apply(&self, t: &Tensor) -> Tensor {
        match self {
            Activation::Identity => t.clone(),
            _ => reuse_tensor::ops::map(t, |v| self.apply_scalar(v)),
        }
    }

    /// Applies the activation elementwise in place — the allocation-free
    /// variant the engine's steady-state path uses, bit-identical to
    /// [`Self::apply_scalar`] per element at every SIMD level. `Identity`
    /// touches nothing.
    pub fn apply_in_place(&self, values: &mut [f32]) {
        match self {
            Activation::Identity => {}
            // Spelled out: with σ/φ inlined `apply_scalar` is too large to
            // inline here, and a call per element cost ReLU 10x.
            Activation::Relu => values.iter_mut().for_each(|v| *v = v.max(0.0)),
            Activation::Sigmoid => simd::sigmoid_slice(values),
            Activation::Tanh => simd::tanh_slice(values),
        }
    }

    /// Short lowercase name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Activation::Identity => "identity",
            Activation::Relu => "relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_passes_through() {
        assert_eq!(Activation::Identity.apply_scalar(-3.5), -3.5);
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply_scalar(-1.0), 0.0);
        assert_eq!(Activation::Relu.apply_scalar(2.0), 2.0);
        assert_eq!(Activation::Relu.apply_scalar(0.0), 0.0);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let s = Activation::Sigmoid;
        assert!((s.apply_scalar(0.0) - 0.5).abs() < 1e-6);
        assert!(s.apply_scalar(10.0) > 0.999);
        assert!(s.apply_scalar(-10.0) < 0.001);
    }

    #[test]
    fn tanh_is_odd() {
        let t = Activation::Tanh;
        assert!((t.apply_scalar(1.0) + t.apply_scalar(-1.0)).abs() < 1e-6);
        assert_eq!(t.apply_scalar(0.0), 0.0);
    }

    #[test]
    fn apply_in_place_is_apply_scalar_per_element_bitwise() {
        // 19 values: two whole vectors and a tail at the AVX2 level.
        let x: Vec<f32> = (0..19).map(|i| i as f32 * 0.77 - 7.0).collect();
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
        ] {
            let mut got = x.clone();
            act.apply_in_place(&mut got);
            for (&v, g) in x.iter().zip(got) {
                assert_eq!(g.to_bits(), act.apply_scalar(v).to_bits(), "{act}({v})");
            }
        }
    }

    #[test]
    fn apply_maps_tensor() {
        let t = Tensor::from_slice_1d(&[-1.0, 2.0]).unwrap();
        let out = Activation::Relu.apply(&t);
        assert_eq!(out.as_slice(), &[0.0, 2.0]);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Activation::Relu.to_string(), "relu");
        assert_eq!(Activation::default(), Activation::Identity);
    }
}
