//! The immutable, shareable half of a reuse run.
//!
//! A [`CompiledModel`] is built once per network/config pair and holds
//! everything every stream reads but never writes: the network itself,
//! whose conv and LSTM layers hold the packed weights the correction kernels
//! walk, and the execution plan (which layers have reuse slots and which of
//! them take part). It is `Sync`, so one `Arc<CompiledModel>` can back any
//! number of concurrent [`ReuseSession`](crate::ReuseSession)s — the
//! model/state split that per-stream serving needs.

use std::sync::Arc;

use reuse_nn::{Layer, LayerKind, Network};

use crate::session::ReuseSession;
use crate::{ReuseConfig, ReuseError};

/// The compile-time plan entry for one weighted layer.
#[derive(Debug)]
pub(crate) struct CompiledSlot {
    /// Index into the network's layer list.
    pub(crate) layer_index: usize,
    pub(crate) name: String,
    pub(crate) kind: LayerKind,
    /// Whether the layer takes part in quantization + reuse
    /// ([`ReuseConfig::layer_enabled`]).
    pub(crate) enabled: bool,
    /// What every full-precision execution of the layer reads and pays, and
    /// its parameter count: constants a step record need not carry.
    pub(crate) n_inputs: u64,
    pub(crate) macs: u64,
    pub(crate) n_params: u64,
}

/// The immutable network + plan + config, built once and shared by
/// reference across [`ReuseSession`]s.
///
/// `CompiledModel` is plain immutable data with no interior mutability, so
/// it is `Sync`: an `Arc<CompiledModel>` can be handed to any number of
/// threads, each running its own session (see
/// [`CompiledModel::new_session`]).
#[derive(Debug)]
pub struct CompiledModel {
    network: Network,
    config: ReuseConfig,
    /// Slot per weighted layer, ordered by layer index.
    slots: Vec<CompiledSlot>,
    /// Map from layer index to slot position (`usize::MAX` = no slot).
    slot_of_layer: Vec<usize>,
    /// Output volume of every layer, precomputed so the hot path never
    /// re-derives shapes.
    layer_out_volumes: Vec<usize>,
}

impl CompiledModel {
    /// Compiles a network (cloned; the clone shares the layers' packed
    /// weights) under a reuse configuration: builds the execution plan.
    /// Infallible wrapper over [`Self::try_new`].
    ///
    /// # Panics
    ///
    /// Panics if [`Self::try_new`] rejects the configuration, or if a
    /// layer's output shape cannot be derived — impossible for
    /// networks built through `NetworkBuilder`, whose shapes are validated.
    pub fn new(network: &Network, config: &ReuseConfig) -> Self {
        Self::try_new(network, config).expect("valid reuse configuration")
    }

    /// Fallible compilation: validates the configuration (see
    /// [`ReuseConfig::validate`]) before building the plan.
    ///
    /// # Errors
    ///
    /// Returns [`ReuseError::InvalidConfig`] when the config fails
    /// validation.
    pub fn try_new(network: &Network, config: &ReuseConfig) -> Result<Self, ReuseError> {
        config.validate()?;
        let network = network.clone();
        let mut slots = Vec::new();
        let mut slot_of_layer = vec![usize::MAX; network.layers().len()];
        for (i, (name, layer)) in network.layers().iter().enumerate() {
            if !layer.has_weights() {
                continue;
            }
            slot_of_layer[i] = slots.len();
            let in_shape = &network.layer_input_shapes()[i];
            slots.push(CompiledSlot {
                layer_index: i,
                name: name.clone(),
                kind: layer.kind(),
                enabled: config.layer_enabled(name),
                n_inputs: in_shape.volume() as u64,
                macs: layer.flops(in_shape) / 2,
                n_params: layer.param_count(),
            });
        }
        let layer_out_volumes: Vec<usize> = network
            .layers()
            .iter()
            .zip(network.layer_input_shapes().iter())
            .map(|((_, layer), in_shape)| {
                layer
                    .output_shape(in_shape)
                    .expect("validated at network build")
                    .volume()
            })
            .collect();
        Ok(CompiledModel {
            network,
            config: config.clone(),
            slots,
            slot_of_layer,
            layer_out_volumes,
        })
    }

    /// The wrapped network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The reuse configuration the model was compiled under.
    pub fn config(&self) -> &ReuseConfig {
        &self.config
    }

    /// Creates a fresh per-stream session against this shared model. Each
    /// session owns all mutable state — buffered indices and outputs,
    /// quantizer calibration, metrics, telemetry, buffer pool — and sessions never observe one another.
    pub fn new_session(self: &Arc<Self>) -> ReuseSession {
        ReuseSession::new(Arc::clone(self))
    }

    /// Bytes of packed weights shared by all sessions: the conv layers'
    /// `[taps, out_c]` panels and the LSTM cells' gate packs, which the
    /// network's layers own. Fully-connected corrections walk the row-major
    /// weights and pack nothing.
    pub fn packed_weight_bytes(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| match &self.network.layers()[s.layer_index].1 {
                Layer::Conv2d(c) => c.panels().storage_bytes() as u64,
                Layer::Conv3d(c) => c.panels().storage_bytes() as u64,
                Layer::Lstm(cell) => cell.pack().bytes(),
                Layer::BiLstm(l) => {
                    l.forward_cell().pack().bytes() + l.backward_cell().pack().bytes()
                }
                _ => 0,
            })
            .sum()
    }

    pub(crate) fn slots(&self) -> &[CompiledSlot] {
        &self.slots
    }

    pub(crate) fn slot_of_layer(&self) -> &[usize] {
        &self.slot_of_layer
    }

    pub(crate) fn layer_out_volumes(&self) -> &[usize] {
        &self.layer_out_volumes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuse_nn::{Activation, NetworkBuilder};
    use reuse_tensor::Shape;

    #[test]
    fn slots_cover_only_weighted_layers() {
        let net = NetworkBuilder::with_input_shape("cnn", Shape::d3(1, 6, 6))
            .conv2d(2, 3, 1, 1, Activation::Relu)
            .pool2d(2)
            .flatten()
            .fully_connected(4, Activation::Identity)
            .build()
            .unwrap();
        let model = CompiledModel::new(&net, &ReuseConfig::uniform(16));
        assert_eq!(model.slots().len(), 2);
        assert_eq!(model.slot_of_layer()[0], 0);
        assert_eq!(model.slot_of_layer()[1], usize::MAX);
        assert_eq!(model.slot_of_layer()[3], 1);
    }

    #[test]
    fn compiled_model_is_sync_and_send() {
        fn assert_sync_send<T: Sync + Send>() {}
        assert_sync_send::<CompiledModel>();
    }

    #[test]
    fn try_new_rejects_invalid_configs() {
        let net = NetworkBuilder::new("mlp", 8)
            .fully_connected(16, Activation::Relu)
            .fully_connected(4, Activation::Identity)
            .build()
            .unwrap();
        // Config validation surfaces through try_new: fewer than two
        // clusters cannot build a quantizer.
        let err = CompiledModel::try_new(&net, &ReuseConfig::uniform(1)).unwrap_err();
        assert!(matches!(err, ReuseError::InvalidConfig { .. }));
    }

    #[test]
    fn disabled_layers_compile_disabled_slots() {
        let net = NetworkBuilder::new("mlp", 8)
            .fully_connected(16, Activation::Relu)
            .fully_connected(4, Activation::Identity)
            .build()
            .unwrap();
        let model =
            CompiledModel::try_new(&net, &ReuseConfig::uniform(16).disable_layer("fc1")).unwrap();
        let enabled: Vec<bool> = model.slots().iter().map(|s| s.enabled).collect();
        assert_eq!(enabled, [false, true], "fc1 is reuse-disabled");
    }
}
