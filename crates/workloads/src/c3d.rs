//! The C3D video-classification CNN (paper Table I, ~300 MB).
//!
//! Eight 3×3×3 "same" convolutions over disjoint windows of 16 RGB frames
//! at 112×112, with max pooling between stages (pool1 is 1×2×2, the rest
//! 2×2×2, final pool in ceil mode), then three FC layers ending in 101
//! action classes.
//!
//! Reuse configuration (paper Section III): 32 clusters everywhere except
//! CONV1, whose quantization error would propagate through the entire
//! network.

use reuse_core::ReuseConfig;
use reuse_nn::{Activation, Network, NetworkBuilder, NnError};
use reuse_tensor::Shape;

use crate::Scale;

/// Frames per input window (disjoint windows, paper Section III).
pub const WINDOW_FRAMES: usize = 16;
/// Spatial side of each input frame at full scale.
pub const SIDE: usize = 112;

/// Spatial side of each input frame at the given scale.
pub fn side(scale: Scale) -> usize {
    match scale {
        Scale::Full => SIDE,
        Scale::Small => 56,
        Scale::Tiny => 16,
    }
}

/// Frames per window at the given scale.
pub fn window_frames(scale: Scale) -> usize {
    match scale {
        Scale::Full | Scale::Small => WINDOW_FRAMES,
        Scale::Tiny => 4,
    }
}

/// Builds the C3D CNN at a given scale.
///
/// `Scale::Full` reproduces the exact Table I geometry. `Scale::Small`
/// keeps the full topology (8 convs, 5 pools, 3 FCs) at half the spatial
/// resolution and a quarter of the channels so default benchmark runs stay
/// tractable on a scalar simulator; `Scale::Tiny` is a shallow 3-conv
/// variant for unit tests. See DESIGN.md.
///
/// # Errors
///
/// Propagates builder errors (cannot occur for the fixed geometries).
pub fn network(scale: Scale) -> Result<Network, NnError> {
    let s = side(scale);
    let d = window_frames(scale);
    let b = NetworkBuilder::with_input_shape("c3d", Shape::d4(3, d, s, s)).seed(0x4333_4421); // "C3D!"
    if matches!(scale, Scale::Tiny) {
        return b
            .conv3d(4, 3, 1, 1, Activation::Relu)
            .pool3d(1, 2, false) // 4x4x8x8
            .conv3d(8, 3, 1, 1, Activation::Relu)
            .pool3d(2, 2, false) // 8x2x4x4
            .conv3d(8, 3, 1, 1, Activation::Relu)
            .pool3d(2, 2, true) // 8x1x2x2
            .flatten()
            .fully_connected(32, Activation::Relu)
            .fully_connected(32, Activation::Relu)
            .fully_connected(10, Activation::Identity)
            .build();
    }
    let (ch, fc_dim, classes): (Vec<usize>, usize, usize) = match scale {
        Scale::Full => (vec![64, 128, 256, 256, 512, 512, 512, 512], 4096, 101),
        _ => (vec![16, 32, 64, 64, 128, 128, 128, 128], 256, 101),
    };
    b.conv3d(ch[0], 3, 1, 1, Activation::Relu) // CONV1
        .pool3d(1, 2, false) // pool1: keep depth
        .conv3d(ch[1], 3, 1, 1, Activation::Relu) // CONV2
        .pool3d(2, 2, false)
        .conv3d(ch[2], 3, 1, 1, Activation::Relu) // CONV3
        .conv3d(ch[3], 3, 1, 1, Activation::Relu) // CONV4
        .pool3d(2, 2, false)
        .conv3d(ch[4], 3, 1, 1, Activation::Relu) // CONV5
        .conv3d(ch[5], 3, 1, 1, Activation::Relu) // CONV6
        .pool3d(2, 2, false)
        .conv3d(ch[6], 3, 1, 1, Activation::Relu) // CONV7
        .conv3d(ch[7], 3, 1, 1, Activation::Relu) // CONV8
        .pool3d(2, 2, true) // pool5, ceil mode: 2x7x7 -> 1x4x4
        .flatten()
        .fully_connected(fc_dim, Activation::Relu) // FC1
        .fully_connected(fc_dim, Activation::Relu) // FC2
        .fully_connected(classes, Activation::Identity) // FC3
        .build()
}

/// The paper's reuse configuration for C3D: 32 clusters, CONV1 excluded.
pub fn reuse_config() -> ReuseConfig {
    ReuseConfig::uniform(32).disable_layer("conv1")
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
        assert_eq!(dims[0], vec![3, 16, 112, 112]); // CONV1 in
        assert_eq!(dims[2], vec![64, 16, 56, 56]); // CONV2 in
        assert_eq!(dims[4], vec![128, 8, 28, 28]); // CONV3 in
        assert_eq!(dims[5], vec![256, 8, 28, 28]); // CONV4 in
        assert_eq!(dims[7], vec![256, 4, 14, 14]); // CONV5 in
        assert_eq!(dims[8], vec![512, 4, 14, 14]); // CONV6 in
        assert_eq!(dims[10], vec![512, 2, 7, 7]); // CONV7 in
        assert_eq!(dims[11], vec![512, 2, 7, 7]); // CONV8 in
                                                  // FC1 input = 512 x 1 x 4 x 4 = 8192, exactly Table I.
        let fc1_in = net
            .layers()
            .iter()
            .zip(net.layer_input_shapes())
            .find(|((n, _), _)| n == "fc1")
            .map(|(_, s)| s.volume())
            .unwrap();
        assert_eq!(fc1_in, 8192);
        assert_eq!(net.output_shape().dims(), &[101]);
        // ~300 MB model like the paper.
        let mb = net.model_bytes() as f64 / 1e6;
        assert!((250.0..350.0).contains(&mb), "model {mb} MB");
    }

    #[test]
    fn tiny_scale_forward_runs() {
        let net = network(Scale::Tiny).unwrap();
        let s = side(Scale::Tiny);
        let input = vec![0.3f32; 3 * window_frames(Scale::Tiny) * s * s];
        let out = net.forward_flat(&input).unwrap();
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn small_scale_keeps_full_topology() {
        let net = network(Scale::Small).unwrap();
        let convs = net
            .layers()
            .iter()
            .filter(|(n, _)| n.starts_with("conv"))
            .count();
        assert_eq!(convs, 8);
        let input = net.input_shape().clone();
        assert_eq!(input.dims(), &[3, 16, 56, 56]);
    }

    #[test]
    fn reuse_config_excludes_conv1() {
        let c = reuse_config();
        assert!(!c.layer_policy("conv1").enabled);
        assert!(c.layer_policy("conv2").enabled);
        assert_eq!(c.layer_policy("fc1").clusters, 32);
    }
}
