//! The AutoPilot self-driving CNN (paper Table I, 6 MB).
//!
//! NVIDIA's end-to-end steering network: five convolutions over a 3×66×200
//! dashcam frame (5×5 stride 2, then 3×3 stride 1), five FC layers, one
//! steering output.
//!
//! Reuse configuration (paper Section III): 32 clusters on every layer
//! except the single-output FC5.

use reuse_core::ReuseConfig;
use reuse_nn::{Activation, Network, NetworkBuilder, NnError};
use reuse_tensor::Shape;

use crate::Scale;

/// Input frame height at full scale.
pub const HEIGHT: usize = 66;
/// Input frame width at full scale.
pub const WIDTH: usize = 200;

/// Input frame height/width at the given scale.
pub fn frame_dims(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (HEIGHT, WIDTH),
        Scale::Small => (HEIGHT, WIDTH), // already small enough
        Scale::Tiny => (34, 100),
    }
}

/// Builds the AutoPilot CNN at a given scale.
///
/// # Errors
///
/// Propagates builder errors (cannot occur for the fixed geometries).
pub fn network(scale: Scale) -> Result<Network, NnError> {
    let (h, w) = frame_dims(scale);
    let tiny = matches!(scale, Scale::Tiny);
    let mut b = NetworkBuilder::with_input_shape("autopilot", Shape::d3(3, h, w))
        .seed(0x4155_544F) // "AUTO"
        .conv2d(24, 5, 2, 0, Activation::Relu) // CONV1
        .conv2d(36, 5, 2, 0, Activation::Relu) // CONV2
        .conv2d(48, 5, 2, 0, Activation::Relu); // CONV3
    if !tiny {
        b = b
            .conv2d(64, 3, 1, 0, Activation::Relu) // CONV4
            .conv2d(64, 3, 1, 0, Activation::Relu); // CONV5
    }
    b.flatten()
        .fully_connected(1164, Activation::Relu) // FC1
        .fully_connected(100, Activation::Relu) // FC2
        .fully_connected(50, Activation::Relu) // FC3
        .fully_connected(10, Activation::Relu) // FC4
        .fully_connected(1, Activation::Identity) // FC5: steering angle
        .build()
}

/// The paper's reuse configuration for AutoPilot: 32 clusters, FC5 excluded.
pub fn reuse_config() -> ReuseConfig {
    ReuseConfig::uniform(32).disable_layer("fc5")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_table1() {
        let net = network(Scale::Full).unwrap();
        let dims: Vec<Vec<usize>> = net
            .layer_input_shapes()
            .iter()
            .map(|s| s.dims().to_vec())
            .collect();
        assert_eq!(dims[0], vec![3, 66, 200]); // CONV1 in
        assert_eq!(dims[1], vec![24, 31, 98]); // CONV2 in
        assert_eq!(dims[2], vec![36, 14, 47]); // CONV3 in
        assert_eq!(dims[3], vec![48, 5, 22]); // CONV4 in
        assert_eq!(dims[4], vec![64, 3, 20]); // CONV5 in
                                              // FC1 input = 64 x 1 x 18 = 1152, exactly Table I.
        let fc1_in = net
            .layers()
            .iter()
            .zip(net.layer_input_shapes())
            .find(|((n, _), _)| n == "fc1")
            .map(|(_, s)| s.volume())
            .unwrap();
        assert_eq!(fc1_in, 1152);
        assert_eq!(net.output_shape().dims(), &[1]);
        let mb = net.model_bytes() as f64 / 1e6;
        assert!((3.0..10.0).contains(&mb), "model {mb} MB");
    }

    #[test]
    fn forward_produces_steering_scalar() {
        let net = network(Scale::Tiny).unwrap();
        let (h, w) = frame_dims(Scale::Tiny);
        let out = net.forward_flat(&vec![0.5; 3 * h * w]).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn reuse_config_excludes_only_fc5() {
        let c = reuse_config();
        assert!(c.layer_policy("conv1").enabled);
        assert!(c.layer_policy("fc4").enabled);
        assert!(!c.layer_policy("fc5").enabled);
    }
}
