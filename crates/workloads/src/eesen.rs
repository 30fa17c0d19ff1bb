//! The EESEN end-to-end speech-recognition RNN (paper Table I, 42 MB).
//!
//! Five bidirectional LSTM layers (cell dimension 320, so 640 outputs per
//! timestep) over 120-feature frames, followed by a 50-way character
//! classifier.
//!
//! Reuse configuration (paper Section III): 16 clusters on every BiLSTM
//! layer; the small output FC layer is excluded because its potential
//! savings are negligible.

use reuse_core::ReuseConfig;
use reuse_nn::{Activation, Network, NetworkBuilder, NnError};

use crate::Scale;

/// Features per input frame.
pub const FEATURES: usize = 120;

/// Builds the EESEN RNN at a given scale.
///
/// # Errors
///
/// Propagates builder errors (cannot occur for the fixed geometries).
pub fn network(scale: Scale) -> Result<Network, NnError> {
    let (features, cell, chars, layers) = match scale {
        Scale::Full => (FEATURES, 320, 50, 5),
        Scale::Small => (FEATURES, 96, 50, 5),
        Scale::Tiny => (12, 8, 10, 2),
    };
    let mut b = NetworkBuilder::new("eesen", features).seed(0x4545_5345); // "EESE"
    for _ in 0..layers {
        b = b.bilstm(cell);
    }
    b.fully_connected(chars, Activation::Identity).build()
}

/// The paper's reuse configuration for EESEN: 16 clusters, output FC
/// excluded.
pub fn reuse_config() -> ReuseConfig {
    ReuseConfig::uniform(16).disable_layer("fc1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_table1() {
        let net = network(Scale::Full).unwrap();
        assert!(net.is_recurrent());
        let shapes: Vec<usize> = net
            .layer_input_shapes()
            .iter()
            .map(|s| s.volume())
            .collect();
        assert_eq!(shapes[0], 120); // BiLSTM1 in
        assert_eq!(shapes[1], 640); // BiLSTM2 in
        assert_eq!(shapes[4], 640); // BiLSTM5 in
        assert_eq!(shapes[5], 640); // FC1 in
        assert_eq!(net.output_shape().dims(), &[50]);
        let mb = net.model_bytes() as f64 / 1e6;
        assert!((30.0..55.0).contains(&mb), "model {mb} MB");
    }

    #[test]
    fn tiny_sequence_runs() {
        let net = network(Scale::Tiny).unwrap();
        let frames = vec![vec![0.1f32; 12]; 4];
        let outs = net.forward_sequence(&frames).unwrap();
        assert_eq!(outs.len(), 4);
        assert_eq!(outs[0].len(), 10);
    }

    #[test]
    fn reuse_config_keeps_recurrent_layers() {
        let c = reuse_config();
        assert!(c.layer_enabled("bilstm1"));
        assert!(!c.layer_enabled("fc1"));
    }
}
