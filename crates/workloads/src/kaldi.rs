//! The Kaldi acoustic-scoring MLP (paper Table I, 18 MB).
//!
//! The network takes a 9-frame window of 40 speech features (360 inputs)
//! and produces likelihoods for 3482 senones. Hidden layers follow Kaldi's
//! generalized-maxout recipe: each 2000-neuron FC layer is reduced to 400
//! values by a group-max of 5 before feeding the next layer, which is why
//! Table I lists FC3-FC6 with input dimension 400.
//!
//! Reuse configuration (paper Section III): 16 clusters; quantization is
//! applied to the last four FC layers (FC3-FC6) — quantizing FC1/FC2 hurts
//! accuracy because their errors propagate through the whole network.

use reuse_core::ReuseConfig;
use reuse_nn::{Activation, Network, NetworkBuilder, NnError};

use crate::Scale;

/// Number of feature frames in the Kaldi input window.
pub const WINDOW: usize = 9;
/// Features per frame.
pub const FEATURES: usize = 40;

/// Builds the Kaldi MLP at a given scale.
///
/// `Scale::Full` reproduces the exact Table I dimensions; smaller scales
/// shrink hidden widths for fast tests while keeping the same topology.
///
/// # Errors
///
/// Propagates builder errors (cannot occur for the fixed geometries).
pub fn network(scale: Scale) -> Result<Network, NnError> {
    // Keep the small scale's ratio of reuse-enabled to reuse-disabled work
    // close to the full model's, so Amdahl fractions (and thus speedups)
    // scale faithfully.
    let (hidden, group, senones) = match scale {
        Scale::Full => (2000, 5, 3482),
        Scale::Small => (1000, 5, 1740),
        Scale::Tiny => (50, 5, 30),
    };
    let reduced = hidden / group;
    NetworkBuilder::new("kaldi", WINDOW * FEATURES)
        .seed(0x4B41_4C44) // "KALD"
        .fully_connected(WINDOW * FEATURES, Activation::Relu) // FC1
        .fully_connected(hidden, Activation::Relu) // FC2
        .group_max(group) // 2000 -> 400
        .fully_connected(hidden, Activation::Relu) // FC3
        .group_max(group)
        .fully_connected(hidden, Activation::Relu) // FC4
        .group_max(group)
        .fully_connected(hidden, Activation::Relu) // FC5
        .group_max(group)
        .fully_connected(senones, Activation::Identity) // FC6
        .build()
        .inspect(|n| {
            debug_assert_eq!(n.layer_input_shapes()[3].volume(), reduced);
        })
}

/// The paper's reuse configuration for Kaldi: 16 clusters, FC1/FC2 excluded.
pub fn reuse_config() -> ReuseConfig {
    ReuseConfig::uniform(16)
        .disable_layer("fc1")
        .disable_layer("fc2")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_table1() {
        let net = network(Scale::Full).unwrap();
        let shapes: Vec<usize> = net
            .layer_input_shapes()
            .iter()
            .map(|s| s.volume())
            .collect();
        // Layers: fc1, fc2, gmax, fc3, gmax, fc4, gmax, fc5, gmax, fc6.
        assert_eq!(shapes[0], 360); // FC1 in
        assert_eq!(shapes[1], 360); // FC2 in
        assert_eq!(shapes[3], 400); // FC3 in
        assert_eq!(shapes[5], 400); // FC4 in
        assert_eq!(shapes[7], 400); // FC5 in
        assert_eq!(shapes[9], 400); // FC6 in
        assert_eq!(net.output_shape().dims(), &[3482]);
        // Model size ~18 MB like the paper.
        let mb = net.model_bytes() as f64 / 1e6;
        assert!((10.0..25.0).contains(&mb), "model {mb} MB");
    }

    #[test]
    fn reuse_config_disables_first_two_layers() {
        let c = reuse_config();
        assert!(!c.layer_enabled("fc1"));
        assert!(!c.layer_enabled("fc2"));
        assert!(c.layer_enabled("fc3"));
        assert_eq!(c.default_clusters(), 16);
    }

    #[test]
    fn tiny_scale_runs_fast() {
        let net = network(Scale::Tiny).unwrap();
        let out = net.forward_flat(&vec![0.1; 360]).unwrap();
        assert_eq!(out.len(), 30);
    }
}
