//! Sequential network container with shape inference and accounting.

use reuse_tensor::conv::{conv_forward_into, max_pool_into, Conv2dSpec, Conv3dSpec};
use reuse_tensor::{Shape, Tensor};

use crate::lstm::{flatten_frames, LstmScratch};
use crate::{
    init::Rng64, Activation, BiLstmLayer, Conv2dLayer, Conv3dLayer, FullyConnected, LstmCell,
    NnError, PassthroughLayer, PassthroughOp, Pool2dLayer, Pool3dLayer,
};

/// One layer of a sequential [`Network`].
///
/// Variants embed their full parameter tensors; the size spread between a
/// `Flatten` and a `Conv3d` is intentional — layers live in one `Vec` per
/// network and are never moved on the hot path.
#[derive(Debug, Clone)]
#[non_exhaustive]
#[allow(clippy::large_enum_variant)]
pub enum Layer {
    /// Fully-connected layer (paper Eq. 1).
    FullyConnected(FullyConnected),
    /// 2D convolution (AutoPilot-style).
    Conv2d(Conv2dLayer),
    /// 3D convolution (C3D-style, paper Eq. 2).
    Conv3d(Conv3dLayer),
    /// 2D max pooling.
    Pool2d(Pool2dLayer),
    /// 3D max pooling.
    Pool3d(Pool3dLayer),
    /// Reshape to a flat vector (CNN → FC transition).
    Flatten,
    /// Maxout-style group reduction: the flat input is split into
    /// consecutive groups of `group` elements and each group reduces to its
    /// maximum. Kaldi's generalized-maxout networks use this to go from
    /// 2000 activations to 400 inputs (paper Table I).
    GroupMax {
        /// Elements per group.
        group: usize,
    },
    /// Unidirectional LSTM over sequences (a recurrent layer with one
    /// cell, paper Section II-C).
    Lstm(LstmCell),
    /// Bidirectional LSTM over sequences (paper Fig. 2).
    BiLstm(BiLstmLayer),
    /// Recompute-always fallback for ingested ops the reuse scheme cannot
    /// correct incrementally (softmax, general pooling, standalone
    /// activations). See [`crate::passthrough`].
    Passthrough(PassthroughLayer),
}

/// Coarse layer classification used in reports and by the accelerator model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Fully-connected.
    Fc,
    /// Convolutional (2D or 3D).
    Conv,
    /// Pooling (no weights).
    Pool,
    /// Shape-only transformation.
    Reshape,
    /// Recurrent (LSTM).
    Recurrent,
    /// Recompute-always fallback from graph ingestion: weightless, charged
    /// at full cost every frame, excluded from reuse/policy decisions.
    Passthrough,
}

impl Layer {
    /// The coarse kind of this layer.
    pub fn kind(&self) -> LayerKind {
        match self {
            Layer::FullyConnected(_) => LayerKind::Fc,
            Layer::Conv2d(_) | Layer::Conv3d(_) => LayerKind::Conv,
            Layer::Pool2d(_) | Layer::Pool3d(_) | Layer::GroupMax { .. } => LayerKind::Pool,
            Layer::Flatten => LayerKind::Reshape,
            Layer::Lstm(_) | Layer::BiLstm(_) => LayerKind::Recurrent,
            Layer::Passthrough(_) => LayerKind::Passthrough,
        }
    }

    /// Whether the layer carries weights (and is therefore a candidate for
    /// the reuse scheme).
    pub fn has_weights(&self) -> bool {
        !matches!(
            self.kind(),
            LayerKind::Pool | LayerKind::Reshape | LayerKind::Passthrough
        )
    }

    /// Parameter count of this layer.
    pub fn param_count(&self) -> u64 {
        match self {
            Layer::FullyConnected(l) => l.param_count(),
            Layer::Conv2d(l) => l.param_count(),
            Layer::Conv3d(l) => l.param_count(),
            Layer::Lstm(l) => l.param_count(),
            Layer::BiLstm(l) => l.param_count(),
            Layer::Pool2d(_)
            | Layer::Pool3d(_)
            | Layer::Flatten
            | Layer::GroupMax { .. }
            | Layer::Passthrough(_) => 0,
        }
    }

    /// Output shape for a given input shape, computed analytically (no
    /// forward pass, so this is cheap even for C3D-sized layers).
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] when the input shape is incompatible.
    pub fn output_shape(&self, input: &Shape) -> Result<Shape, NnError> {
        match self {
            Layer::FullyConnected(l) => {
                if input.volume() != l.n_in() {
                    return Err(NnError::InputShape {
                        expected: l.n_in(),
                        actual: input.volume(),
                    });
                }
                Ok(Shape::d1(l.n_out()))
            }
            Layer::Conv2d(l) => {
                let d = input.dims();
                if d.len() != 3 || d[0] != l.spec().in_channels {
                    return Err(NnError::InvalidConfig {
                        context: format!(
                            "conv2d expects [{}, h, w], got {input}",
                            l.spec().in_channels
                        ),
                    });
                }
                let (oh, ow) = l.spec().output_hw(d[1], d[2])?;
                Ok(Shape::d3(l.spec().out_channels, oh, ow))
            }
            Layer::Conv3d(l) => {
                let d = input.dims();
                if d.len() != 4 || d[0] != l.spec().in_channels {
                    return Err(NnError::InvalidConfig {
                        context: format!(
                            "conv3d expects [{}, d, h, w], got {input}",
                            l.spec().in_channels
                        ),
                    });
                }
                let (od, oh, ow) = l.spec().output_dhw(d[1], d[2], d[3])?;
                Ok(Shape::d3(l.spec().out_channels, od, oh).and_then_4th(ow))
            }
            Layer::Pool2d(p) => {
                let d = input.dims();
                if d.len() != 3 {
                    return Err(NnError::InvalidConfig {
                        context: format!("pool2d expects [c,h,w], got {input}"),
                    });
                }
                let oh = pool_extent(d[1], p.window, p.stride, p.ceil);
                let ow = pool_extent(d[2], p.window, p.stride, p.ceil);
                if oh == 0 || ow == 0 {
                    return Err(NnError::InvalidConfig {
                        context: format!("pool window does not fit {input}"),
                    });
                }
                Ok(Shape::d3(d[0], oh, ow))
            }
            Layer::Pool3d(p) => {
                let d = input.dims();
                if d.len() != 4 {
                    return Err(NnError::InvalidConfig {
                        context: format!("pool3d expects [c,d,h,w], got {input}"),
                    });
                }
                let od = pool_extent(d[1], p.wd, p.wd, p.ceil);
                let oh = pool_extent(d[2], p.whw, p.whw, p.ceil);
                let ow = pool_extent(d[3], p.whw, p.whw, p.ceil);
                if od == 0 || oh == 0 || ow == 0 {
                    return Err(NnError::InvalidConfig {
                        context: format!("pool window does not fit {input}"),
                    });
                }
                Ok(Shape::d4(d[0], od, oh, ow))
            }
            Layer::Flatten => Ok(Shape::d1(input.volume())),
            Layer::GroupMax { group } => {
                if *group == 0 || !input.volume().is_multiple_of(*group) {
                    return Err(NnError::InvalidConfig {
                        context: format!(
                            "group_max({group}) does not divide input volume {}",
                            input.volume()
                        ),
                    });
                }
                Ok(Shape::d1(input.volume() / group))
            }
            Layer::Lstm(l) => {
                if input.volume() != l.n_in() {
                    return Err(NnError::InputShape {
                        expected: l.n_in(),
                        actual: input.volume(),
                    });
                }
                Ok(Shape::d1(l.cell_dim()))
            }
            Layer::BiLstm(l) => {
                if input.volume() != l.n_in() {
                    return Err(NnError::InputShape {
                        expected: l.n_in(),
                        actual: input.volume(),
                    });
                }
                Ok(Shape::d1(l.n_out()))
            }
            Layer::Passthrough(p) => p.output_shape(input),
        }
    }

    /// Whether the layer is recurrent (consumes whole sequences rather than
    /// independent frames).
    pub fn is_recurrent(&self) -> bool {
        matches!(self, Layer::Lstm(_) | Layer::BiLstm(_))
    }

    /// The activation applied after the linear part of a weighted
    /// frame-wise layer. `None` for pooling/reshape layers (no activation)
    /// and recurrent layers (their nonlinearity is internal to the cell).
    pub fn activation(&self) -> Option<Activation> {
        match self {
            Layer::FullyConnected(l) => Some(l.activation()),
            Layer::Conv2d(l) => Some(l.activation()),
            Layer::Conv3d(l) => Some(l.activation()),
            _ => None,
        }
    }

    /// Linear (pre-activation) forward pass of a weighted frame-wise layer
    /// over flat row-major data of `in_shape` — the exact baseline the reuse
    /// engine's drift watchdog adopts. Sizes `out` to the output volume and
    /// overwrites it, reusing its capacity (a conv layer's im2col blocks are
    /// the kernel's own allocations).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for layers without a frame-wise
    /// linear part (pooling, reshape, passthrough, recurrent) or a conv
    /// layer handed an `in_shape` of the wrong rank or channel count, and
    /// propagates length mismatches from the kernels.
    pub fn forward_linear_into(
        &self,
        in_shape: &Shape,
        input: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<(), NnError> {
        let (rank, g, panels, bias) = match self {
            Layer::FullyConnected(l) => return l.forward_linear_into(input, out),
            Layer::Conv2d(l) => (2, l.geometry(), l.panels(), l.bias()),
            Layer::Conv3d(l) => (3, l.geometry(), l.panels(), l.bias()),
            _ => {
                return Err(NnError::InvalidConfig {
                    context: "forward_linear requires a weighted frame-wise layer".into(),
                })
            }
        };
        let dims = in_shape.dims();
        if dims.len() != rank + 1 || dims[0] != g.in_channels() {
            return Err(NnError::InvalidConfig {
                context: format!("conv{rank}d input {in_shape} does not match {g:?}"),
            });
        }
        let mut dhw = [1; 3];
        dhw[3 - rank..].copy_from_slice(&dims[1..]);
        Ok(conv_forward_into(
            g,
            dhw,
            input,
            panels,
            bias.as_slice(),
            out,
        )?)
    }

    /// [`Self::forward_linear_into`] through the tensor API.
    ///
    /// # Errors
    ///
    /// Same as [`Self::forward_linear_into`].
    pub fn forward_linear(&self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut out = Vec::new();
        self.forward_linear_into(input.shape(), input.as_slice(), &mut out)?;
        Ok(Tensor::from_vec(self.output_shape(input.shape())?, out)?)
    }

    /// Full-precision forward pass of a frame-wise layer over flat row-major
    /// data of `in_shape`: the one way every walk of a network runs a layer
    /// from scratch. Clears `out` and writes the flat output into it,
    /// reusing its capacity — activations between layers are flat buffers
    /// whose shapes the network already inferred, so a reshape is nothing
    /// and a flatten is a copy.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] when `input` does not hold
    /// `in_shape`'s volume, [`NnError::InvalidConfig`] for recurrent layers
    /// (they cannot run frame-wise) and for an `in_shape` the layer does not
    /// accept, and propagates kernel errors.
    pub fn forward_into(
        &self,
        in_shape: &Shape,
        input: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<(), NnError> {
        if input.len() != in_shape.volume() {
            return Err(NnError::InputShape {
                expected: in_shape.volume(),
                actual: input.len(),
            });
        }
        match self {
            Layer::FullyConnected(_) | Layer::Conv2d(_) | Layer::Conv3d(_) => {
                self.forward_linear_into(in_shape, input, out)?;
                if let Some(act) = self.activation() {
                    act.apply_in_place(out);
                }
            }
            Layer::Pool2d(_) | Layer::Pool3d(_) => {
                let (dhw, window, stride, ceil) = match (self, in_shape.dims()) {
                    (Layer::Pool2d(p), &[_, h, w]) => (
                        [1, h, w],
                        [1, p.window, p.window],
                        [1, p.stride, p.stride],
                        p.ceil,
                    ),
                    (Layer::Pool3d(p), &[_, d, h, w]) => (
                        [d, h, w],
                        [p.wd, p.whw, p.whw],
                        [p.wd, p.whw, p.whw],
                        p.ceil,
                    ),
                    _ => {
                        return Err(NnError::InvalidConfig {
                            context: format!("pooling expects [c,(d,)h,w], got {in_shape}"),
                        })
                    }
                };
                max_pool_into(input, dhw, window, stride, ceil, out)?;
            }
            Layer::Flatten => {
                out.clear();
                out.extend_from_slice(input);
            }
            Layer::GroupMax { group } => {
                if *group == 0 || !input.len().is_multiple_of(*group) {
                    return Err(NnError::InvalidConfig {
                        context: format!("group_max({group}) does not divide {}", input.len()),
                    });
                }
                out.clear();
                out.extend(
                    input
                        .chunks(*group)
                        .map(|chunk| chunk.iter().copied().fold(f32::NEG_INFINITY, f32::max)),
                );
            }
            Layer::Passthrough(p) => p.forward_into(input, in_shape, out)?,
            Layer::Lstm(_) | Layer::BiLstm(_) => {
                return Err(NnError::InvalidConfig {
                    context: "recurrent layer cannot run frame-wise".into(),
                })
            }
        }
        Ok(())
    }

    /// Full-precision sequence pass of a recurrent layer over flat data:
    /// `xs` is `t` timesteps of the layer's input width back to back, and
    /// `out` is cleared and filled with `t` rows of its output width — the
    /// one way every walk of a network runs a recurrent layer from scratch
    /// (see [`LstmCell::forward_sequence_into`](crate::LstmCell::forward_sequence_into)).
    /// Allocation-free once `out` and `scratch` have grown to the sequence.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for non-recurrent layers,
    /// [`NnError::EmptySequence`] when `t` is zero and
    /// [`NnError::InputShape`] when `xs` is not `t` input rows long.
    pub fn forward_sequence_into(
        &self,
        xs: &[f32],
        t: usize,
        out: &mut Vec<f32>,
        scratch: &mut LstmScratch,
    ) -> Result<(), NnError> {
        match self {
            Layer::Lstm(l) => l.forward_sequence_into(xs, t, out, scratch),
            Layer::BiLstm(l) => l.forward_sequence_into(xs, t, out, scratch),
            _ => Err(NnError::InvalidConfig {
                context: "forward_sequence requires a recurrent layer".into(),
            }),
        }
    }

    /// [`Self::forward_sequence_into`] over one `Vec` per timestep.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for non-recurrent layers and
    /// propagates shape errors.
    pub fn forward_sequence(&self, xs: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, NnError> {
        match self {
            Layer::Lstm(l) => l.forward_sequence(xs),
            Layer::BiLstm(l) => l.forward_sequence(xs),
            _ => Err(NnError::InvalidConfig {
                context: "forward_sequence requires a recurrent layer".into(),
            }),
        }
    }

    /// Multiply+add count of a from-scratch execution on `input`.
    pub fn flops(&self, input: &Shape) -> u64 {
        match self {
            Layer::FullyConnected(l) => l.flops(),
            Layer::Conv2d(l) => {
                let d = input.dims();
                l.spec().flops(d[1], d[2])
            }
            Layer::Conv3d(l) => {
                let d = input.dims();
                l.spec().flops(d[1], d[2], d[3])
            }
            Layer::Lstm(l) => l.flops_per_step(),
            Layer::BiLstm(l) => l.flops_per_step(),
            Layer::Passthrough(p) => p.flops(input),
            Layer::Pool2d(_) | Layer::Pool3d(_) | Layer::Flatten | Layer::GroupMax { .. } => 0,
        }
    }
}

trait ShapeExt {
    fn and_then_4th(self, w: usize) -> Shape;
}

impl ShapeExt for Shape {
    fn and_then_4th(self, w: usize) -> Shape {
        let mut dims: Vec<usize> = self.into();
        dims.push(w);
        Shape::new(&dims).expect("dimensions already validated")
    }
}

fn pool_extent(size: usize, window: usize, stride: usize, ceil: bool) -> usize {
    if size < window {
        return 0;
    }
    let span = size - window;
    if ceil && !span.is_multiple_of(stride) {
        span / stride + 2
    } else {
        span / stride + 1
    }
}

/// A named, sequential feed-forward / recurrent network.
///
/// Build one with [`NetworkBuilder`]; run it with [`Network::forward`] (one
/// frame) or [`Network::forward_sequence`] (a temporal sequence, required
/// when the network contains recurrent layers).
#[derive(Debug, Clone)]
pub struct Network {
    name: String,
    input_shape: Shape,
    layers: Vec<(String, Layer)>,
    /// Input shape of each layer (same index as `layers`).
    layer_inputs: Vec<Shape>,
    output_shape: Shape,
}

impl Network {
    /// The network's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The expected input shape of one frame.
    pub fn input_shape(&self) -> &Shape {
        &self.input_shape
    }

    /// The output shape of one execution.
    pub fn output_shape(&self) -> &Shape {
        &self.output_shape
    }

    /// The layers with their names.
    pub fn layers(&self) -> &[(String, Layer)] {
        &self.layers
    }

    /// The input shape each layer sees.
    pub fn layer_input_shapes(&self) -> &[Shape] {
        &self.layer_inputs
    }

    /// Whether the network contains recurrent layers.
    pub fn is_recurrent(&self) -> bool {
        self.layers.iter().any(|(_, l)| l.is_recurrent())
    }

    /// Total parameter count.
    pub fn param_count(&self) -> u64 {
        self.layers.iter().map(|(_, l)| l.param_count()).sum()
    }

    /// Model size in bytes at 32-bit precision.
    pub fn model_bytes(&self) -> u64 {
        self.param_count() * 4
    }

    /// Total multiply+add count of one from-scratch execution.
    pub fn flops(&self) -> u64 {
        self.layers
            .iter()
            .zip(self.layer_inputs.iter())
            .map(|((_, l), s)| l.flops(s))
            .sum()
    }

    /// Runs one frame-wise layer by index at full precision over the flat
    /// row-major data of its inferred input shape: clears `out` and writes
    /// the flat output into it, reusing its capacity. Every walk of the
    /// network — [`Self::forward`], [`Self::forward_sequence`] and the reuse
    /// engine's passive, reuse-disabled and calibration layers — runs a layer
    /// through this.
    ///
    /// # Errors
    ///
    /// Same as [`Layer::forward_into`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn apply_layer_into(
        &self,
        index: usize,
        input: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<(), NnError> {
        self.layers[index]
            .1
            .forward_into(&self.layer_inputs[index], input, out)
    }

    /// [`Self::apply_layer_into`] through the tensor API: any input of the
    /// layer's input volume, the inferred output shape back.
    ///
    /// # Errors
    ///
    /// Same as [`Layer::forward_into`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn apply_layer(&self, index: usize, input: Tensor) -> Result<Tensor, NnError> {
        let mut out = Vec::new();
        self.apply_layer_into(index, input.as_slice(), &mut out)?;
        let out_shape = self
            .layer_inputs
            .get(index + 1)
            .unwrap_or(&self.output_shape);
        Ok(Tensor::from_vec(out_shape.clone(), out)?)
    }

    /// Runs one frame through the network.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the network is recurrent (use
    /// [`Network::forward_sequence`]) and propagates shape errors.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, NnError> {
        if self.is_recurrent() {
            return Err(NnError::InvalidConfig {
                context: "recurrent network requires forward_sequence".into(),
            });
        }
        if input.shape() != &self.input_shape {
            return Err(NnError::InputShape {
                expected: self.input_shape.volume(),
                actual: input.len(),
            });
        }
        self.forward_flat(input.as_slice())
    }

    /// Runs one frame, given as a flat slice, through the network: two
    /// buffers swapped from layer to layer.
    ///
    /// # Errors
    ///
    /// Same as [`Network::forward`].
    pub fn forward_flat(&self, input: &[f32]) -> Result<Tensor, NnError> {
        if input.len() != self.input_shape.volume() {
            return Err(NnError::InputShape {
                expected: self.input_shape.volume(),
                actual: input.len(),
            });
        }
        if self.is_recurrent() {
            return Err(NnError::InvalidConfig {
                context: "recurrent network requires forward_sequence".into(),
            });
        }
        let (mut cur, mut next) = (input.to_vec(), Vec::new());
        for i in 0..self.layers.len() {
            self.apply_layer_into(i, &cur, &mut next)?;
            std::mem::swap(&mut cur, &mut next);
        }
        Ok(Tensor::from_vec(self.output_shape.clone(), cur)?)
    }

    /// Runs a temporal sequence through the network. Frame-wise layers map
    /// over the sequence; recurrent layers transform it (paper Fig. 2).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptySequence`] on empty input and propagates
    /// shape errors.
    pub fn forward_sequence(&self, frames: &[Vec<f32>]) -> Result<Vec<Tensor>, NnError> {
        // The sequence between layers is one flat `[T, width]` buffer; two
        // are swapped from layer to layer.
        let t = frames.len();
        let mut cur = flatten_frames(frames, self.input_shape.volume())?;
        let (mut next, mut row) = (Vec::new(), Vec::new());
        let mut scratch = LstmScratch::default();
        for (i, (_, layer)) in self.layers.iter().enumerate() {
            if layer.is_recurrent() {
                layer.forward_sequence_into(&cur, t, &mut next, &mut scratch)?;
            } else {
                next.clear();
                for frame in cur.chunks_exact(self.layer_inputs[i].volume()) {
                    self.apply_layer_into(i, frame, &mut row)?;
                    next.extend_from_slice(&row);
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur.chunks_exact(self.output_shape.volume())
            .map(|o| Ok(Tensor::from_vec(self.output_shape.clone(), o.to_vec())?))
            .collect()
    }
}

/// Incremental builder for [`Network`]s with shape inference.
///
/// # Example
///
/// ```
/// use reuse_nn::{Activation, NetworkBuilder};
/// use reuse_tensor::Shape;
///
/// let cnn = NetworkBuilder::with_input_shape("toy-cnn", Shape::d3(1, 8, 8))
///     .conv2d(4, 3, 1, 0, Activation::Relu)
///     .pool2d(2)
///     .flatten()
///     .fully_connected(10, Activation::Identity)
///     .build()?;
/// assert_eq!(cnn.output_shape().dims(), &[10]);
/// # Ok::<(), reuse_nn::NnError>(())
/// ```
#[derive(Debug)]
pub struct NetworkBuilder {
    name: String,
    input_shape: Shape,
    rng: Rng64,
    layers: Vec<(String, Layer)>,
    error: Option<NnError>,
    cur_shape: Shape,
    counter: usize,
}

impl NetworkBuilder {
    /// Starts a network that takes flat vectors of length `input_len`.
    pub fn new(name: &str, input_len: usize) -> Self {
        Self::with_input_shape(name, Shape::d1(input_len))
    }

    /// Starts a network with an explicit input shape (CNNs).
    pub fn with_input_shape(name: &str, input_shape: Shape) -> Self {
        NetworkBuilder {
            name: name.to_string(),
            cur_shape: input_shape.clone(),
            input_shape,
            rng: Rng64::new(0xDADA_D1A0),
            layers: Vec::new(),
            error: None,
            counter: 0,
        }
    }

    /// Overrides the weight-initialization seed (default is fixed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.rng = Rng64::new(seed);
        self
    }

    fn push(mut self, base: &str, layer: Layer) -> Self {
        if self.error.is_some() {
            return self;
        }
        match layer.output_shape(&self.cur_shape) {
            Ok(out) => {
                self.counter += 1;
                // Per-kind numbering, matching the paper's layer names
                // (FC1..FC6, CONV1..CONV8, BiLSTM1..BiLSTM5).
                let nth = self
                    .layers
                    .iter()
                    .filter(|(name, _)| {
                        name.starts_with(base)
                            && name[base.len()..].chars().all(|c| c.is_ascii_digit())
                    })
                    .count()
                    + 1;
                let name = format!("{base}{nth}");
                self.layers.push((name, layer));
                self.cur_shape = out;
            }
            Err(e) => self.error = Some(e),
        }
        self
    }

    /// Appends a fully-connected layer with deterministic random weights.
    pub fn fully_connected(mut self, n_out: usize, act: Activation) -> Self {
        if self.error.is_some() {
            return self;
        }
        let n_in = self.cur_shape.volume();
        let mut rng = self.rng.fork(self.counter as u64);
        let layer = FullyConnected::random(n_in, n_out, act, &mut rng);
        self.push("fc", Layer::FullyConnected(layer))
    }

    /// Appends a 2D convolution with deterministic random weights.
    pub fn conv2d(
        mut self,
        out_channels: usize,
        k: usize,
        stride: usize,
        pad: usize,
        act: Activation,
    ) -> Self {
        if self.error.is_some() {
            return self;
        }
        let dims = self.cur_shape.dims();
        if dims.len() != 3 {
            self.error = Some(NnError::InvalidConfig {
                context: format!(
                    "conv2d needs a [c,h,w] input, current shape {}",
                    self.cur_shape
                ),
            });
            return self;
        }
        let spec = Conv2dSpec {
            in_channels: dims[0],
            out_channels,
            kh: k,
            kw: k,
            stride,
            pad,
        };
        let mut rng = self.rng.fork(self.counter as u64);
        let layer = Conv2dLayer::random(spec, act, &mut rng);
        self.push("conv", Layer::Conv2d(layer))
    }

    /// Appends a 3D convolution with deterministic random weights.
    pub fn conv3d(
        mut self,
        out_channels: usize,
        k: usize,
        stride: usize,
        pad: usize,
        act: Activation,
    ) -> Self {
        if self.error.is_some() {
            return self;
        }
        let dims = self.cur_shape.dims();
        if dims.len() != 4 {
            self.error = Some(NnError::InvalidConfig {
                context: format!(
                    "conv3d needs a [c,d,h,w] input, current shape {}",
                    self.cur_shape
                ),
            });
            return self;
        }
        let spec = Conv3dSpec {
            in_channels: dims[0],
            out_channels,
            kd: k,
            kh: k,
            kw: k,
            stride,
            pad,
        };
        let mut rng = self.rng.fork(self.counter as u64);
        let layer = Conv3dLayer::random(spec, act, &mut rng);
        self.push("conv", Layer::Conv3d(layer))
    }

    /// Appends a non-overlapping square 2D max pool.
    pub fn pool2d(self, window: usize) -> Self {
        self.push("pool", Layer::Pool2d(Pool2dLayer::square(window)))
    }

    /// Appends a 3D max pool with the C3D window convention.
    pub fn pool3d(self, wd: usize, whw: usize, ceil: bool) -> Self {
        self.push("pool", Layer::Pool3d(Pool3dLayer::new(wd, whw, ceil)))
    }

    /// Appends a flatten (reshape-to-vector) step.
    pub fn flatten(self) -> Self {
        self.push("flatten", Layer::Flatten)
    }

    /// Appends a maxout-style group reduction over the flat input.
    pub fn group_max(self, group: usize) -> Self {
        self.push("groupmax", Layer::GroupMax { group })
    }

    /// Appends a recompute-always passthrough op (ingestion fallback).
    pub fn passthrough(self, op: PassthroughOp) -> Self {
        self.push("pass", Layer::Passthrough(PassthroughLayer::new(op)))
    }

    /// Appends a unidirectional LSTM layer with deterministic random
    /// weights.
    pub fn lstm(mut self, cell_dim: usize) -> Self {
        if self.error.is_some() {
            return self;
        }
        let n_in = self.cur_shape.volume();
        let mut rng = self.rng.fork(self.counter as u64);
        let layer = LstmCell::random(n_in, cell_dim, &mut rng);
        self.push("lstm", Layer::Lstm(layer))
    }

    /// Appends a bidirectional LSTM layer with deterministic random weights.
    pub fn bilstm(mut self, cell_dim: usize) -> Self {
        if self.error.is_some() {
            return self;
        }
        let n_in = self.cur_shape.volume();
        let mut rng = self.rng.fork(self.counter as u64);
        let layer = BiLstmLayer::random(n_in, cell_dim, &mut rng);
        self.push("bilstm", Layer::BiLstm(layer))
    }

    /// Appends a pre-built layer (used by deserialization and by callers
    /// that construct layers with explicit parameters). The layer name is
    /// derived from its kind, like the other builder methods.
    pub fn push_layer(self, layer: Layer) -> Self {
        #[allow(unreachable_patterns)] // future-proofing for new variants
        let base = match &layer {
            Layer::FullyConnected(_) => "fc",
            Layer::Conv2d(_) | Layer::Conv3d(_) => "conv",
            Layer::Pool2d(_) | Layer::Pool3d(_) => "pool",
            Layer::Flatten => "flatten",
            Layer::GroupMax { .. } => "groupmax",
            Layer::Lstm(_) => "lstm",
            Layer::BiLstm(_) => "bilstm",
            Layer::Passthrough(_) => "pass",
            _ => "layer",
        };
        self.push(base, layer)
    }

    /// Finalizes the network.
    ///
    /// # Errors
    ///
    /// Returns the first configuration error encountered while chaining, or
    /// [`NnError::InvalidConfig`] for an empty network.
    pub fn build(self) -> Result<Network, NnError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.layers.is_empty() {
            return Err(NnError::InvalidConfig {
                context: "network must have at least one layer".into(),
            });
        }
        // Re-derive each layer's input shape from the chain.
        let mut layer_inputs = Vec::with_capacity(self.layers.len());
        let mut cur = self.input_shape.clone();
        for (_, layer) in &self.layers {
            layer_inputs.push(cur.clone());
            cur = layer.output_shape(&cur)?;
        }
        Ok(Network {
            name: self.name,
            input_shape: self.input_shape,
            layers: self.layers,
            layer_inputs,
            output_shape: cur,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mlp_shapes_and_forward() {
        let net = NetworkBuilder::new("mlp", 4)
            .fully_connected(8, Activation::Relu)
            .fully_connected(3, Activation::Identity)
            .build()
            .unwrap();
        assert_eq!(net.output_shape().dims(), &[3]);
        assert_eq!(net.layers().len(), 2);
        assert!(!net.is_recurrent());
        let out = net.forward_flat(&[0.1, 0.2, 0.3, 0.4]).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn forward_is_deterministic_given_seed() {
        let mk = || {
            NetworkBuilder::new("mlp", 4)
                .seed(7)
                .fully_connected(8, Activation::Relu)
                .fully_connected(3, Activation::Identity)
                .build()
                .unwrap()
        };
        let a = mk().forward_flat(&[0.1, 0.2, 0.3, 0.4]).unwrap();
        let b = mk().forward_flat(&[0.1, 0.2, 0.3, 0.4]).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn cnn_shape_inference() {
        let net = NetworkBuilder::with_input_shape("cnn", Shape::d3(3, 16, 16))
            .conv2d(8, 3, 1, 1, Activation::Relu)
            .pool2d(2)
            .conv2d(16, 3, 1, 0, Activation::Relu)
            .flatten()
            .fully_connected(10, Activation::Identity)
            .build()
            .unwrap();
        // 3x16x16 -> 8x16x16 -> 8x8x8 -> 16x6x6 -> 576 -> 10.
        assert_eq!(net.layer_input_shapes()[3].dims(), &[16, 6, 6]);
        assert_eq!(net.output_shape().dims(), &[10]);
        let input = Tensor::zeros(Shape::d3(3, 16, 16));
        let out = net.forward(&input).unwrap();
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn conv3d_network_shapes() {
        let net = NetworkBuilder::with_input_shape("c3d-ish", Shape::d4(2, 4, 8, 8))
            .conv3d(4, 3, 1, 1, Activation::Relu)
            .pool3d(1, 2, false)
            .conv3d(8, 3, 1, 1, Activation::Relu)
            .pool3d(2, 2, false)
            .flatten()
            .fully_connected(5, Activation::Identity)
            .build()
            .unwrap();
        // 2x4x8x8 -> 4x4x8x8 -> 4x4x4x4 -> 8x4x4x4 -> 8x2x2x2 -> 64 -> 5
        assert_eq!(net.output_shape().dims(), &[5]);
        let out = net.forward(&Tensor::zeros(Shape::d4(2, 4, 8, 8))).unwrap();
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn recurrent_network_requires_sequence_api() {
        let net = NetworkBuilder::new("rnn", 6)
            .bilstm(4)
            .fully_connected(2, Activation::Identity)
            .build()
            .unwrap();
        assert!(net.is_recurrent());
        assert!(net.forward(&Tensor::zeros(Shape::d1(6))).is_err());
        let frames = vec![vec![0.0; 6]; 3];
        let outs = net.forward_sequence(&frames).unwrap();
        assert_eq!(outs.len(), 3);
        assert!(outs.iter().all(|o| o.len() == 2));
    }

    #[test]
    fn builder_reports_shape_errors() {
        let err = NetworkBuilder::new("bad", 4)
            .conv2d(8, 3, 1, 0, Activation::Relu) // flat input, not [c,h,w]
            .build()
            .unwrap_err();
        assert!(matches!(err, NnError::InvalidConfig { .. }));
    }

    #[test]
    fn empty_network_rejected() {
        assert!(NetworkBuilder::new("empty", 4).build().is_err());
    }

    #[test]
    fn wrong_input_length_rejected() {
        let net = NetworkBuilder::new("mlp", 4)
            .fully_connected(2, Activation::Identity)
            .build()
            .unwrap();
        assert!(matches!(
            net.forward_flat(&[0.0; 3]),
            Err(NnError::InputShape {
                expected: 4,
                actual: 3
            })
        ));
    }

    #[test]
    fn param_and_flop_accounting() {
        let net = NetworkBuilder::new("mlp", 10)
            .fully_connected(20, Activation::Relu)
            .fully_connected(5, Activation::Identity)
            .build()
            .unwrap();
        assert_eq!(net.param_count(), (10 * 20 + 20 + 20 * 5 + 5) as u64);
        assert_eq!(net.flops(), (2 * 10 * 20 + 2 * 20 * 5) as u64);
        assert_eq!(net.model_bytes(), net.param_count() * 4);
    }

    #[test]
    fn layer_kinds() {
        let net = NetworkBuilder::with_input_shape("cnn", Shape::d3(1, 4, 4))
            .conv2d(2, 3, 1, 1, Activation::Relu)
            .pool2d(2)
            .flatten()
            .fully_connected(2, Activation::Identity)
            .build()
            .unwrap();
        let kinds: Vec<LayerKind> = net.layers().iter().map(|(_, l)| l.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                LayerKind::Conv,
                LayerKind::Pool,
                LayerKind::Reshape,
                LayerKind::Fc
            ]
        );
        assert!(net.layers()[0].1.has_weights());
        assert!(!net.layers()[1].1.has_weights());
    }

    #[test]
    fn group_max_reduces_groups() {
        let net = NetworkBuilder::new("maxout", 6)
            .group_max(3)
            .fully_connected(2, Activation::Identity)
            .build()
            .unwrap();
        assert_eq!(net.layer_input_shapes()[1].dims(), &[2]);
        // The group max itself: [1,5,2 | 4,0,-1] -> [5, 4].
        let mut out = Vec::new();
        net.apply_layer_into(0, &[1.0, 5.0, 2.0, 4.0, 0.0, -1.0], &mut out)
            .unwrap();
        assert_eq!(out, [5.0, 4.0]);
        // Kind and accounting: weightless pool.
        assert_eq!(net.layers()[0].1.kind(), LayerKind::Pool);
        assert_eq!(net.layers()[0].1.param_count(), 0);
    }

    #[test]
    fn group_max_must_divide_volume() {
        let err = NetworkBuilder::new("maxout", 7)
            .group_max(3)
            .build()
            .unwrap_err();
        assert!(matches!(err, NnError::InvalidConfig { .. }));
    }

    #[test]
    fn layer_names_are_sequential() {
        let net = NetworkBuilder::new("mlp", 4)
            .fully_connected(4, Activation::Relu)
            .fully_connected(4, Activation::Relu)
            .build()
            .unwrap();
        assert_eq!(net.layers()[0].0, "fc1");
        assert_eq!(net.layers()[1].0, "fc2");
    }
}
