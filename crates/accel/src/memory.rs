//! Storage accounting: I/O buffer sizing and main-memory footprints
//! (paper Table III).
//!
//! The I/O buffer stages layer inputs and outputs. For MLPs/RNNs the whole
//! working set of one layer fits on-chip; for CNNs the feature maps are
//! processed in blocks (paper Section IV-C) with one block per input and
//! output feature map resident. The reuse scheme adds the quantized-index
//! area (one byte per staged input) and, for MLPs/RNNs, the buffered layer
//! outputs.

use reuse_nn::{Layer, LayerKind, Network};

/// The block side used for CNN feature-map staging (paper: 16×16×1).
pub const CNN_BLOCK_ELEMS: usize = 16 * 16;

/// Storage requirements of one network on the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageReport {
    /// I/O-buffer bytes required by the baseline accelerator.
    pub io_baseline_bytes: u64,
    /// I/O-buffer bytes required with the reuse scheme.
    pub io_reuse_bytes: u64,
    /// Main-memory bytes used by the baseline (model + spilled activations).
    pub main_baseline_bytes: u64,
    /// Main-memory bytes used with the reuse scheme (adds spilled indices
    /// and buffered outputs for CNNs).
    pub main_reuse_bytes: u64,
}

/// Whether a network's activations are managed through main memory with
/// blocked on-chip staging. The paper treats both CNNs this way (Section
/// IV-C / Table III): layer inputs/outputs live in main memory and move to
/// the I/O buffer one block per feature map.
pub fn activations_spill(net: &Network) -> bool {
    net.layers()
        .iter()
        .any(|(_, l)| matches!(l, Layer::Conv2d(_) | Layer::Conv3d(_)))
}

fn largest_layer_io_bytes(net: &Network) -> u64 {
    net.layers()
        .iter()
        .zip(net.layer_input_shapes().iter())
        .map(|((_, l), s)| {
            let out = l.output_shape(s).expect("validated at build").volume();
            ((s.volume() + out) * 4) as u64
        })
        .max()
        .unwrap_or(0)
}

/// Computes the Table III storage accounting for a network.
///
/// `enabled` reports whether the named layer participates in the reuse
/// scheme (usually `ReuseConfig::layer_enabled`).
pub fn storage_report(net: &Network, enabled: impl Fn(&str) -> bool) -> StorageReport {
    let spill = activations_spill(net);
    let model = net.model_bytes();

    let mut io_baseline: u64 = 0;
    let mut io_reuse_extra: u64 = 0;
    let mut spilled_activations: u64 = 0;
    let mut spilled_reuse_extra: u64 = 0;

    if spill {
        // CNN: one 16x16 block per input feature map and per output feature
        // map of the largest layer stays on-chip (paper Fig. 8); indices for
        // the staged input blocks are the reuse extra.
        for ((name, layer), in_shape) in net.layers().iter().zip(net.layer_input_shapes().iter()) {
            let (in_c, out_c) = match layer {
                Layer::Conv2d(c) => (c.spec().in_channels, c.spec().out_channels),
                Layer::Conv3d(c) => (c.spec().in_channels, c.spec().out_channels),
                _ => continue,
            };
            let staged = ((in_c + out_c) * CNN_BLOCK_ELEMS * 4) as u64;
            io_baseline = io_baseline.max(staged);
            if enabled(name) {
                io_reuse_extra = io_reuse_extra.max((in_c * CNN_BLOCK_ELEMS) as u64);
            }
            let out_elems = layer.output_shape(in_shape).expect("validated").volume() as u64;
            let in_elems = in_shape.volume() as u64;
            spilled_activations = spilled_activations.max((in_elems + out_elems) * 4);
            if enabled(name) {
                // Indices and previous outputs of every reuse layer persist
                // in main memory between executions.
                spilled_reuse_extra += in_elems + out_elems * 4;
            }
        }
        // FC layers at the CNN tail still stage in the I/O buffer.
        for ((name, layer), in_shape) in net.layers().iter().zip(net.layer_input_shapes().iter()) {
            if let Layer::FullyConnected(fc) = layer {
                let staged = ((fc.n_in() + fc.n_out()) * 4) as u64;
                io_baseline = io_baseline.max(staged);
                let _ = in_shape;
                if enabled(name) {
                    spilled_reuse_extra += (fc.n_in() + fc.n_out() * 4) as u64;
                }
            }
        }
    } else {
        // MLP / RNN: double-buffered staging of the largest layer, plus —
        // with reuse — the persistent indices and buffered outputs of every
        // enabled layer (paper Fig. 7).
        io_baseline = 2 * largest_layer_io_bytes(net) / 2; // both banks hold in+out
        for ((name, layer), in_shape) in net.layers().iter().zip(net.layer_input_shapes().iter()) {
            if !layer.has_weights() || !enabled(name) {
                continue;
            }
            let in_elems = in_shape.volume() as u64;
            let out_elems = layer.output_shape(in_shape).expect("validated").volume() as u64;
            match layer.kind() {
                LayerKind::Recurrent => {
                    // Only one recurrent layer is live at a time; indices for
                    // x and h plus the four gates' buffered pre-activations
                    // per direction.
                    if let Layer::BiLstm(l) = layer {
                        let per_dir = (l.n_in() + l.cell_dim() + 4 * 4 * l.cell_dim()) as u64;
                        io_reuse_extra = io_reuse_extra.max(2 * per_dir);
                    }
                }
                _ => {
                    io_reuse_extra += in_elems + out_elems * 4;
                }
            }
        }
    }

    let main_baseline = model + spilled_activations;
    StorageReport {
        io_baseline_bytes: io_baseline,
        io_reuse_bytes: io_baseline + io_reuse_extra,
        main_baseline_bytes: main_baseline,
        main_reuse_bytes: main_baseline + if spill { spilled_reuse_extra } else { 0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuse_nn::{Activation, NetworkBuilder};
    use reuse_tensor::Shape;

    fn mlp() -> Network {
        NetworkBuilder::new("mlp", 400)
            .fully_connected(2000, Activation::Relu)
            .fully_connected(100, Activation::Identity)
            .build()
            .unwrap()
    }

    #[test]
    fn mlp_does_not_spill() {
        assert!(!activations_spill(&mlp()));
    }

    #[test]
    fn mlp_reuse_adds_indices_and_outputs() {
        let net = mlp();
        let r = storage_report(&net, |_| true);
        // Baseline stages the largest (in+out) pair: fc1 = 400+2000 floats.
        assert_eq!(r.io_baseline_bytes, (400 + 2000) * 4);
        // Reuse adds idx(400)+out(2000*4) + idx(2000)+out(100*4).
        let extra = (400 + 2000 * 4) + (2000 + 100 * 4);
        assert_eq!(r.io_reuse_bytes, r.io_baseline_bytes + extra as u64);
        // No spill: main memory unchanged.
        assert_eq!(r.main_baseline_bytes, r.main_reuse_bytes);
        assert_eq!(r.main_baseline_bytes, net.model_bytes());
    }

    #[test]
    fn disabled_layers_add_nothing() {
        let net = mlp();
        let all = storage_report(&net, |_| true);
        let none = storage_report(&net, |_| false);
        assert_eq!(none.io_baseline_bytes, none.io_reuse_bytes);
        assert!(all.io_reuse_bytes > none.io_reuse_bytes);
    }

    #[test]
    fn big_cnn_spills_and_counts_blocks() {
        // A conv layer with many channels exceeds the staging budget.
        let net = NetworkBuilder::with_input_shape("cnn", Shape::d3(64, 64, 64))
            .conv2d(128, 3, 1, 1, Activation::Relu)
            .pool2d(8)
            .flatten()
            .fully_connected(10, Activation::Identity)
            .build()
            .unwrap();
        assert!(activations_spill(&net));
        let r = storage_report(&net, |name| name.starts_with("conv"));
        // Staged blocks: (64+128) maps x 256 elems x 4B.
        assert_eq!(r.io_baseline_bytes, (64 + 128) * 256 * 4);
        // Index blocks: 64 x 256 x 1B.
        assert_eq!(r.io_reuse_bytes - r.io_baseline_bytes, 64 * 256);
        // Main memory grows by indices + buffered outputs.
        assert!(r.main_reuse_bytes > r.main_baseline_bytes);
    }

    #[test]
    fn rnn_reuse_extra_is_one_layer_deep() {
        let net = NetworkBuilder::new("rnn", 120)
            .bilstm(320)
            .bilstm(320)
            .fully_connected(50, Activation::Identity)
            .build()
            .unwrap();
        let r = storage_report(&net, |n| n.starts_with("bilstm"));
        // Extra is the max over recurrent layers, not the sum: layer 2
        // dominates (in 640).
        let per_dir = (640 + 320 + 16 * 320) as u64;
        assert_eq!(r.io_reuse_bytes - r.io_baseline_bytes, 2 * per_dir);
    }
}
