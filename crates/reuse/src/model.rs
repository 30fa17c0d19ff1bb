//! The immutable, shareable half of a reuse run.
//!
//! A [`CompiledModel`] is built once per network/config pair and holds
//! everything every stream reads but never writes: the network itself, the
//! per-layer reuse policies, the execution plan (which layers have reuse
//! slots), and the packed/blocked weight layouts the correction kernels
//! walk. It is `Sync`, so one `Arc<CompiledModel>` can back any number of
//! concurrent [`ReuseSession`](crate::ReuseSession)s — the model/state
//! split that per-stream serving needs.

use std::sync::Arc;

use reuse_nn::{Layer, LayerKind, Network};

use crate::conv::ConvPack;
use crate::lstm::LstmGatePack;
use crate::policy::LayerPolicy;
use crate::session::ReuseSession;
use crate::signature::{ModelSignatures, SignatureCache};
use crate::{ReuseConfig, ReuseError};

/// Packed/blocked weight layouts for one reuse slot, shared by every
/// session of the model. Fully-connected corrections read weight rows
/// straight from the network, so they carry no pack; conv packs are handles
/// on the panels the network's layers already hold.
#[derive(Debug)]
pub enum CompiledWeights {
    /// Fully-connected: corrections walk the network's own row-major
    /// weights — nothing to pack.
    Fc,
    /// Conv2d/Conv3d: the layer's `[taps, out_c]` packed panels (taps in
    /// `(in_c, kd, kh, kw)` order, `kd = 1` for 2D).
    Conv(ConvPack),
    /// LSTM: the gate weights as its corrections walk them — feed-forward
    /// panels per gate, the combined recurrent `[d, 4*d]` matrix.
    Lstm(LstmGatePack),
    /// BiLSTM: one gate pack per direction.
    BiLstm {
        /// Forward-direction gate pack.
        fwd: LstmGatePack,
        /// Backward-direction gate pack.
        bwd: LstmGatePack,
    },
    /// Recompute-always passthrough: weightless, nothing to pack.
    Passthrough,
}

impl CompiledWeights {
    fn new(layer: &Layer) -> Option<Self> {
        match layer {
            Layer::FullyConnected(_) => Some(CompiledWeights::Fc),
            Layer::Conv2d(c) => Some(CompiledWeights::Conv(ConvPack::new(c))),
            Layer::Conv3d(c) => Some(CompiledWeights::Conv(ConvPack::new(c))),
            Layer::Lstm(cell) => Some(CompiledWeights::Lstm(LstmGatePack::new(cell))),
            Layer::BiLstm(l) => Some(CompiledWeights::BiLstm {
                fwd: LstmGatePack::new(l.forward_cell()),
                bwd: LstmGatePack::new(l.backward_cell()),
            }),
            Layer::Passthrough(_) => Some(CompiledWeights::Passthrough),
            _ => None,
        }
    }

    /// Bytes of packed weights this slot shares across sessions.
    pub fn bytes(&self) -> u64 {
        match self {
            CompiledWeights::Fc => 0,
            CompiledWeights::Conv(p) => p.bytes(),
            CompiledWeights::Lstm(p) => p.bytes(),
            CompiledWeights::BiLstm { fwd, bwd } => fwd.bytes() + bwd.bytes(),
            CompiledWeights::Passthrough => 0,
        }
    }
}

/// The compile-time plan entry for one weighted layer.
#[derive(Debug)]
pub(crate) struct CompiledSlot {
    /// Index into the network's layer list.
    pub(crate) layer_index: usize,
    pub(crate) name: String,
    pub(crate) kind: LayerKind,
    /// The resolved per-layer reuse policy (every per-layer knob).
    pub(crate) policy: LayerPolicy,
    /// What every full-precision execution of the layer reads and pays, and
    /// its parameter count: constants a step record need not carry.
    pub(crate) n_inputs: u64,
    pub(crate) macs: u64,
    pub(crate) n_params: u64,
    /// Packed weights shared by every session.
    pub(crate) weights: CompiledWeights,
}

/// The immutable network + plan + packed weights + config, built once and
/// shared by reference across [`ReuseSession`]s.
///
/// `CompiledModel` is `Sync`. The plan and weights hold no interior
/// mutability; the only mutable state is the optional cross-stream
/// [`SignatureCache`], whose per-shard `Mutex`es are touched exclusively
/// on cold-start (never steady-state) paths. An `Arc<CompiledModel>` can
/// be handed to any number of threads, each running its own session (see
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
    /// RPQ planes + shared cache when the config enables cross-stream
    /// signature reuse (feed-forward networks only).
    signatures: Option<ModelSignatures>,
}

impl CompiledModel {
    /// Compiles a network (cloned) under a reuse configuration: builds the
    /// execution plan and the packed weight layouts the correction kernels
    /// share. Infallible wrapper over [`Self::try_new`].
    ///
    /// # Panics
    ///
    /// Panics if [`Self::try_new`] rejects the configuration (invalid
    /// knob values, or an adaptive policy without the drift watchdog), or
    /// if a layer's output shape cannot be derived — impossible for
    /// networks built through `NetworkBuilder`, whose shapes are validated.
    pub fn new(network: &Network, config: &ReuseConfig) -> Self {
        Self::try_new(network, config).expect("valid reuse configuration")
    }

    /// Fallible compilation: validates the configuration (see
    /// [`ReuseConfig::validate`]) and resolves the per-layer reuse policy
    /// before building the plan.
    ///
    /// # Errors
    ///
    /// Returns [`ReuseError::InvalidConfig`] when the config fails
    /// validation or when the resolved policy marks any layer adaptive
    /// while the drift watchdog is disarmed — the adaptive controller
    /// tunes against the watchdog's accuracy proxy and cannot run without
    /// it.
    pub fn try_new(network: &Network, config: &ReuseConfig) -> Result<Self, ReuseError> {
        config.validate()?;
        let network = network.clone();
        let policy = config.policy();
        // Recurrent networks mask the adaptive machinery off: the drift
        // watchdog (the controller's feedback signal) only runs on the
        // feed-forward frame path, and sequence resets would discard the
        // rescaled grids mid-stream anyway.
        let mask_adaptive = network.is_recurrent();
        let mut slots = Vec::new();
        let mut slot_of_layer = vec![usize::MAX; network.layers().len()];
        for (i, (name, layer)) in network.layers().iter().enumerate() {
            // Passthrough layers are weightless but still get a slot so
            // their full recompute cost lands in metrics and telemetry.
            let passthrough = layer.kind() == LayerKind::Passthrough;
            if !layer.has_weights() && !passthrough {
                continue;
            }
            let Some(weights) = CompiledWeights::new(layer) else {
                continue;
            };
            let resolved = config.layer_policy(name);
            // Passthroughs never participate in policy decisions: they
            // keep the static resolution regardless of the active policy.
            let layer_policy = if mask_adaptive || passthrough {
                resolved
            } else {
                let refined = policy.layer_policy(name, resolved);
                LayerPolicy {
                    enabled: resolved.enabled && refined.enabled,
                    ..refined
                }
            };
            if layer_policy.clusters < 2 {
                return Err(ReuseError::InvalidConfig {
                    context: format!(
                        "policy resolved {} clusters for layer {name:?}; \
                         a quantizer needs at least 2",
                        layer_policy.clusters
                    ),
                });
            }
            if layer_policy.adaptive && config.drift_check_every() == 0 {
                return Err(ReuseError::InvalidConfig {
                    context: format!(
                        "layer {name:?} is adaptive but the drift watchdog is disarmed; \
                         arm it with ReuseConfig::drift_watchdog"
                    ),
                });
            }
            slot_of_layer[i] = slots.len();
            let in_shape = &network.layer_input_shapes()[i];
            slots.push(CompiledSlot {
                layer_index: i,
                name: name.clone(),
                kind: layer.kind(),
                policy: layer_policy,
                n_inputs: in_shape.volume() as u64,
                macs: layer.flops(in_shape) / 2,
                n_params: layer.param_count(),
                weights,
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
        // Signature adoption rides the feed-forward step path; recurrent
        // networks keep their per-stream-only reuse (sequence resets make
        // a cross-stream baseline meaningless mid-sequence).
        let signatures = (config.signature_cache_enabled() && !network.is_recurrent()).then(|| {
            ModelSignatures::new(
                &slots,
                network.layer_input_shapes(),
                config.signature_capacity(),
            )
        });
        Ok(CompiledModel {
            network,
            config: config.clone(),
            slots,
            slot_of_layer,
            layer_out_volumes,
            signatures,
        })
    }

    /// The active policy's short name (`"static"` when none was set).
    pub fn policy_name(&self) -> &'static str {
        self.config.policy().name()
    }

    /// The resolved per-layer policy specs, in slot order — the immutable
    /// half of the policy state (sessions own the mutable controllers).
    pub fn layer_policy_specs(&self) -> impl Iterator<Item = (&str, LayerPolicy)> + '_ {
        self.slots.iter().map(|s| (s.name.as_str(), s.policy))
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
    /// quantizer calibration, metrics, telemetry, drift-watchdog counters,
    /// buffer pool — and sessions never observe one another.
    pub fn new_session(self: &Arc<Self>) -> ReuseSession {
        ReuseSession::new(Arc::clone(self))
    }

    /// Bytes of packed weights shared by all sessions (weight transposes,
    /// combined gate matrices).
    pub fn packed_weight_bytes(&self) -> u64 {
        self.slots.iter().map(|s| s.weights.bytes()).sum()
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

    pub(crate) fn signatures(&self) -> Option<&ModelSignatures> {
        self.signatures.as_ref()
    }

    /// The shared cross-stream signature cache, when the model was
    /// compiled with [`ReuseConfig::signature_cache`] on a feed-forward
    /// network.
    pub fn signature_cache(&self) -> Option<&SignatureCache> {
        self.signatures.as_ref().map(ModelSignatures::cache)
    }

    /// Bytes held by the baked-in RPQ plane matrices (0 when the
    /// signature cache is off).
    pub fn signature_plane_bytes(&self) -> usize {
        self.signatures
            .as_ref()
            .map_or(0, ModelSignatures::plane_bytes)
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
    fn signature_cache_is_off_by_default_and_feed_forward_only() {
        let net = NetworkBuilder::new("mlp", 8)
            .fully_connected(16, Activation::Relu)
            .fully_connected(4, Activation::Identity)
            .build()
            .unwrap();
        let off = CompiledModel::new(&net, &ReuseConfig::uniform(16));
        assert!(off.signature_cache().is_none());
        assert_eq!(off.signature_plane_bytes(), 0);

        let on = CompiledModel::new(&net, &ReuseConfig::uniform(16).signature_cache(true));
        assert!(on.signature_cache().is_some());
        assert!(on.signature_plane_bytes() > 0);

        let rnn = NetworkBuilder::new("rnn", 8)
            .lstm(6)
            .fully_connected(4, Activation::Identity)
            .build()
            .unwrap();
        let rnn_on = CompiledModel::new(&rnn, &ReuseConfig::uniform(16).signature_cache(true));
        assert!(
            rnn_on.signature_cache().is_none(),
            "recurrent networks keep per-stream-only reuse"
        );
    }

    #[test]
    fn try_new_rejects_invalid_configs_and_blind_adaptive_policies() {
        use crate::policy::AdaptivePolicy;
        use std::sync::Arc;
        let net = NetworkBuilder::new("mlp", 8)
            .fully_connected(16, Activation::Relu)
            .fully_connected(4, Activation::Identity)
            .build()
            .unwrap();
        // Config validation surfaces through try_new: fewer than two
        // clusters cannot build a quantizer, whoever asks for them.
        let err = CompiledModel::try_new(&net, &ReuseConfig::uniform(1)).unwrap_err();
        assert!(matches!(err, ReuseError::InvalidConfig { .. }));
        let one_cluster = crate::TunedPolicy {
            network: "mlp".to_string(),
            layers: vec![crate::TunedLayerPolicy {
                layer: "fc2".to_string(),
                clusters: 1,
                step_scale: 1.0,
                reuse_threshold: 1.0,
                adaptive: false,
            }],
        };
        let config = ReuseConfig::uniform(16).reuse_policy(Arc::new(one_cluster));
        let err = CompiledModel::try_new(&net, &config).unwrap_err();
        assert!(matches!(err, ReuseError::InvalidConfig { .. }));
        // Adaptive without the watchdog is flying blind: rejected.
        let blind = ReuseConfig::uniform(16).reuse_policy(Arc::new(AdaptivePolicy::default()));
        let err = CompiledModel::try_new(&net, &blind).unwrap_err();
        assert!(matches!(err, ReuseError::InvalidConfig { .. }));
        // With the watchdog armed it compiles, and the slots are adaptive.
        let armed = blind.drift_watchdog(8, 0.05);
        let model = CompiledModel::try_new(&net, &armed).unwrap();
        assert!(model.layer_policy_specs().all(|(_, p)| p.adaptive));
        assert_eq!(model.policy_name(), "adaptive");
    }

    #[test]
    fn adaptive_policy_is_masked_off_on_recurrent_networks() {
        use crate::policy::AdaptivePolicy;
        use std::sync::Arc;
        let rnn = NetworkBuilder::new("rnn", 8)
            .lstm(6)
            .fully_connected(4, Activation::Identity)
            .build()
            .unwrap();
        // Masked to static before the watchdog check, so this compiles
        // even without the watchdog and behaves exactly like a static run.
        let config = ReuseConfig::uniform(16).reuse_policy(Arc::new(AdaptivePolicy::default()));
        let model = CompiledModel::try_new(&rnn, &config).unwrap();
        assert!(model.layer_policy_specs().all(|(_, p)| !p.adaptive));
    }

    #[test]
    fn passthrough_slots_compile_static_without_planes() {
        use crate::policy::AdaptivePolicy;
        use std::sync::Arc;
        let net = NetworkBuilder::new("with-pass", 8)
            .fully_connected(16, Activation::Relu)
            .passthrough(reuse_nn::PassthroughOp::Softmax)
            .fully_connected(4, Activation::Identity)
            .build()
            .unwrap();
        // The passthrough gets a slot (honest accounting) but is forced
        // static even under an adaptive policy, and gets no RPQ planes.
        let config = ReuseConfig::uniform(16)
            .signature_cache(true)
            .reuse_policy(Arc::new(AdaptivePolicy::default()))
            .drift_watchdog(8, 0.05);
        let model = CompiledModel::try_new(&net, &config).unwrap();
        assert_eq!(model.slots().len(), 3);
        assert_eq!(model.slots()[1].kind, LayerKind::Passthrough);
        assert!(!model.slots()[1].policy.adaptive);
        assert!(model.slots()[0].policy.adaptive);
        let sigs = model.signatures().unwrap();
        assert!(sigs.planes(0).is_some());
        assert!(
            sigs.planes(1).is_none(),
            "passthrough slots never join the signature cache"
        );
        assert!(sigs.planes(2).is_some());
    }

    #[test]
    fn disabled_layers_get_no_planes() {
        let net = NetworkBuilder::new("mlp", 8)
            .fully_connected(16, Activation::Relu)
            .fully_connected(4, Activation::Identity)
            .build()
            .unwrap();
        let config = ReuseConfig::uniform(16)
            .signature_cache(true)
            .disable_layer("fc1");
        let model = CompiledModel::new(&net, &config);
        let sigs = model.signatures().unwrap();
        assert!(sigs.planes(0).is_none(), "fc1 is reuse-disabled");
        assert!(sigs.planes(1).is_some());
    }
}
