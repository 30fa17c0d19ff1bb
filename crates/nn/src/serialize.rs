//! Network serialization: a versioned, self-describing text format.
//!
//! The format is line-oriented — a header, one `layer` line per layer with
//! its hyperparameters, followed by whitespace-separated parameter values in
//! deterministic order — so models survive toolchain changes and diffs stay
//! reviewable. Floats are written in `{:e}` scientific notation, which Rust
//! round-trips exactly for `f32`.
//!
//! # Example
//!
//! ```
//! use reuse_nn::{serialize, Activation, NetworkBuilder};
//!
//! let net = NetworkBuilder::new("demo", 4)
//!     .fully_connected(8, Activation::Relu)
//!     .fully_connected(2, Activation::Identity)
//!     .build()?;
//! let text = serialize::to_string(&net);
//! let back = serialize::from_str(&text)?;
//! assert_eq!(back.name(), "demo");
//! assert_eq!(
//!     back.forward_flat(&[0.1, 0.2, 0.3, 0.4])?.as_slice(),
//!     net.forward_flat(&[0.1, 0.2, 0.3, 0.4])?.as_slice()
//! );
//! # Ok::<(), reuse_nn::serialize::SerializeError>(())
//! ```

use std::fmt;

use reuse_tensor::conv::{Conv2dSpec, Conv3dSpec};
use reuse_tensor::{Shape, Tensor};

use crate::network::Layer;
use crate::{
    Activation, BiLstmLayer, Conv2dLayer, Conv3dLayer, FullyConnected, LstmCell, Network,
    NetworkBuilder, NnError, Pool2dLayer, Pool3dLayer,
};

/// Format version written in the header.
pub const FORMAT_VERSION: u32 = 1;

/// Errors produced when parsing a serialized network.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SerializeError {
    /// The header is missing or has an unsupported version.
    BadHeader(String),
    /// A structural line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Parameter data was truncated or oversized.
    BadParameters(String),
    /// The reconstructed network failed validation.
    Nn(NnError),
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializeError::BadHeader(m) => write!(f, "bad model header: {m}"),
            SerializeError::BadLine { line, message } => {
                write!(f, "bad model line {line}: {message}")
            }
            SerializeError::BadParameters(m) => write!(f, "bad model parameters: {m}"),
            SerializeError::Nn(e) => write!(f, "invalid reconstructed network: {e}"),
        }
    }
}

impl std::error::Error for SerializeError {}

impl From<NnError> for SerializeError {
    fn from(e: NnError) -> Self {
        SerializeError::Nn(e)
    }
}

fn act_name(a: Activation) -> &'static str {
    a.name()
}

fn act_from(s: &str) -> Option<Activation> {
    match s {
        "identity" => Some(Activation::Identity),
        "relu" => Some(Activation::Relu),
        "sigmoid" => Some(Activation::Sigmoid),
        "tanh" => Some(Activation::Tanh),
        _ => None,
    }
}

fn push_floats(out: &mut String, values: &[f32]) {
    for chunk in values.chunks(16) {
        let line: Vec<String> = chunk.iter().map(|v| format!("{v:e}")).collect();
        out.push_str(&line.join(" "));
        out.push('\n');
    }
}

/// Serializes a network to the text format.
pub fn to_string(net: &Network) -> String {
    let mut out = format!("reuse-dnn-model v{FORMAT_VERSION}\n");
    out.push_str(&format!("name {}\n", net.name().replace(' ', "_")));
    let dims: Vec<String> = net
        .input_shape()
        .dims()
        .iter()
        .map(|d| d.to_string())
        .collect();
    out.push_str(&format!("input {}\n", dims.join(" ")));
    for (name, layer) in net.layers() {
        #[allow(unreachable_patterns)] // future-proofing for new variants
        match layer {
            Layer::FullyConnected(l) => {
                out.push_str(&format!(
                    "layer fc {name} {} {} {}\n",
                    l.n_in(),
                    l.n_out(),
                    act_name(l.activation())
                ));
                push_floats(&mut out, l.weights().as_slice());
                push_floats(&mut out, l.bias().as_slice());
            }
            Layer::Conv2d(l) => {
                let s = l.spec();
                out.push_str(&format!(
                    "layer conv2d {name} {} {} {} {} {} {} {}\n",
                    s.in_channels,
                    s.out_channels,
                    s.kh,
                    s.kw,
                    s.stride,
                    s.pad,
                    act_name(l.activation())
                ));
                push_floats(&mut out, l.weights().as_slice());
                push_floats(&mut out, l.bias().as_slice());
            }
            Layer::Conv3d(l) => {
                let s = l.spec();
                out.push_str(&format!(
                    "layer conv3d {name} {} {} {} {} {} {} {} {}\n",
                    s.in_channels,
                    s.out_channels,
                    s.kd,
                    s.kh,
                    s.kw,
                    s.stride,
                    s.pad,
                    act_name(l.activation())
                ));
                push_floats(&mut out, l.weights().as_slice());
                push_floats(&mut out, l.bias().as_slice());
            }
            Layer::Pool2d(p) => {
                out.push_str(&format!(
                    "layer pool2d {name} {} {} {}\n",
                    p.window, p.stride, p.ceil as u8
                ));
            }
            Layer::Pool3d(p) => {
                out.push_str(&format!(
                    "layer pool3d {name} {} {} {}\n",
                    p.wd, p.whw, p.ceil as u8
                ));
            }
            Layer::Flatten => out.push_str(&format!("layer flatten {name}\n")),
            Layer::GroupMax { group } => out.push_str(&format!("layer groupmax {name} {group}\n")),
            Layer::Lstm(cell) => {
                out.push_str(&format!(
                    "layer lstm {name} {} {}\n",
                    cell.n_in(),
                    cell.cell_dim()
                ));
                push_cell(&mut out, cell);
            }
            Layer::BiLstm(l) => {
                out.push_str(&format!(
                    "layer bilstm {name} {} {}\n",
                    l.n_in(),
                    l.cell_dim()
                ));
                push_cell(&mut out, l.forward_cell());
                push_cell(&mut out, l.backward_cell());
            }
            Layer::Passthrough(p) => {
                out.push_str(&format!("layer passthrough {name} {}\n", p.spec_tokens()));
            }
            _ => unreachable!("all shipped layer kinds are serializable"),
        }
    }
    out
}

fn push_cell(out: &mut String, cell: &LstmCell) {
    for g in 0..4 {
        push_floats(out, cell.w_x(g).as_slice());
        push_floats(out, cell.w_h(g).as_slice());
        push_floats(out, cell.bias(g).as_slice());
    }
}

/// A token reader over the serialized body.
struct Reader<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    /// Tokens pending on the current line.
    pending: Vec<&'a str>,
    /// Upper bound on the bytes of text not yet handed out by `lines`.
    unread: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader {
            lines: text.lines().enumerate(),
            pending: Vec::new(),
            unread: text.len(),
        }
    }

    fn line(&mut self) -> Option<(usize, &'a str)> {
        let (n, line) = self.lines.next()?;
        self.unread = self.unread.saturating_sub(line.len() + 1);
        Some((n, line))
    }

    /// Next structural line split into tokens (skips parameter leftovers).
    fn next_line(&mut self) -> Option<(usize, Vec<&'a str>)> {
        self.pending.clear();
        while let Some((n, line)) = self.line() {
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                return Some((n + 1, trimmed.split_whitespace().collect()));
            }
        }
        None
    }

    /// Reads exactly `count` floats from subsequent lines. `count` comes
    /// from the file's own layer line, so it is checked against what the
    /// rest of the text could hold — a value needs a digit and a separator —
    /// before anything is reserved for it.
    fn floats(&mut self, count: usize) -> Result<Vec<f32>, SerializeError> {
        let available = self.pending.len() + self.unread.div_ceil(2);
        if count > available {
            return Err(SerializeError::BadParameters(format!(
                "expected {count} values, at most {available} remain"
            )));
        }
        let mut values = Vec::with_capacity(count);
        while values.len() < count {
            if self.pending.is_empty() {
                let Some((_, line)) = self.line() else {
                    return Err(SerializeError::BadParameters(format!(
                        "expected {count} values, got {}",
                        values.len()
                    )));
                };
                self.pending = line.split_whitespace().rev().collect();
                continue;
            }
            let tok = self.pending.pop().expect("non-empty pending");
            let v: f32 = tok
                .parse()
                .map_err(|_| SerializeError::BadParameters(format!("not a float: {tok}")))?;
            values.push(v);
        }
        if !self.pending.is_empty() {
            return Err(SerializeError::BadParameters(
                "excess values on parameter line".into(),
            ));
        }
        Ok(values)
    }
}

/// `a · b` for two dimensions read from a layer line.
fn volume(a: usize, b: usize) -> Result<usize, SerializeError> {
    a.checked_mul(b)
        .ok_or_else(|| SerializeError::BadParameters(format!("{a} x {b} values overflow usize")))
}

fn read_cell(r: &mut Reader<'_>, n_in: usize, cell_dim: usize) -> Result<LstmCell, SerializeError> {
    let mut w_x = Vec::with_capacity(4);
    let mut w_h = Vec::with_capacity(4);
    let mut bias = Vec::with_capacity(4);
    for _ in 0..4 {
        let wx = r.floats(volume(n_in, cell_dim)?)?;
        let wh = r.floats(volume(cell_dim, cell_dim)?)?;
        let b = r.floats(cell_dim)?;
        w_x.push(Tensor::from_vec(Shape::d2(n_in, cell_dim), wx).map_err(NnError::from)?);
        w_h.push(Tensor::from_vec(Shape::d2(cell_dim, cell_dim), wh).map_err(NnError::from)?);
        bias.push(Tensor::from_vec(Shape::d1(cell_dim), b).map_err(NnError::from)?);
    }
    let to_arr =
        |v: Vec<Tensor>| -> [Tensor; 4] { v.try_into().expect("exactly four gates were pushed") };
    Ok(LstmCell::new(
        n_in,
        cell_dim,
        to_arr(w_x),
        to_arr(w_h),
        to_arr(bias),
    )?)
}

/// Parses a network from the text format.
///
/// # Errors
///
/// Returns a [`SerializeError`] describing the first malformed element.
pub fn from_str(text: &str) -> Result<Network, SerializeError> {
    let mut r = Reader::new(text);
    let (_, header) = r
        .next_line()
        .ok_or_else(|| SerializeError::BadHeader("empty input".into()))?;
    if header.len() != 2
        || header[0] != "reuse-dnn-model"
        || header[1] != format!("v{FORMAT_VERSION}")
    {
        return Err(SerializeError::BadHeader(format!(
            "got {:?}",
            header.join(" ")
        )));
    }
    let (nline, name_tokens) = r
        .next_line()
        .ok_or_else(|| SerializeError::BadHeader("missing name".into()))?;
    if name_tokens.len() != 2 || name_tokens[0] != "name" {
        return Err(SerializeError::BadLine {
            line: nline,
            message: "expected `name <id>`".into(),
        });
    }
    let name = name_tokens[1].to_string();
    let (iline, input_tokens) = r
        .next_line()
        .ok_or_else(|| SerializeError::BadHeader("missing input shape".into()))?;
    if input_tokens.len() < 2 || input_tokens[0] != "input" {
        return Err(SerializeError::BadLine {
            line: iline,
            message: "expected `input <dims...>`".into(),
        });
    }
    let dims: Vec<usize> = input_tokens[1..]
        .iter()
        .map(|t| {
            t.parse().map_err(|_| SerializeError::BadLine {
                line: iline,
                message: format!("bad dim {t}"),
            })
        })
        .collect::<Result<_, _>>()?;
    let input_shape = Shape::new(&dims).map_err(|e| SerializeError::BadLine {
        line: iline,
        message: e.to_string(),
    })?;

    let mut builder = NetworkBuilder::with_input_shape(&name, input_shape);
    // We push fully-built layers directly through the builder's internals by
    // reconstructing them here and using the public extension point below.
    let mut layers: Vec<Layer> = Vec::new();
    while let Some((line, tokens)) = r.next_line() {
        let bad = |message: String| SerializeError::BadLine { line, message };
        if tokens.first() != Some(&"layer") || tokens.len() < 3 {
            return Err(bad("expected `layer <kind> <name> ...`".into()));
        }
        let kind = tokens[1];
        let args = &tokens[3..];
        let parse = |idx: usize| -> Result<usize, SerializeError> {
            args.get(idx)
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| SerializeError::BadLine {
                    line,
                    message: format!("bad integer arg {idx}"),
                })
        };
        match kind {
            "fc" => {
                let (n_in, n_out) = (parse(0)?, parse(1)?);
                let act = args
                    .get(2)
                    .and_then(|t| act_from(t))
                    .ok_or_else(|| bad("bad activation".into()))?;
                let w = r.floats(volume(n_in, n_out)?)?;
                let b = r.floats(n_out)?;
                let weights = Tensor::from_vec(Shape::d2(n_in, n_out), w).map_err(NnError::from)?;
                let bias = Tensor::from_vec(Shape::d1(n_out), b).map_err(NnError::from)?;
                layers.push(Layer::FullyConnected(FullyConnected::new(
                    weights, bias, act,
                )?));
            }
            "conv2d" => {
                let spec = Conv2dSpec {
                    in_channels: parse(0)?,
                    out_channels: parse(1)?,
                    kh: parse(2)?,
                    kw: parse(3)?,
                    stride: parse(4)?,
                    pad: parse(5)?,
                };
                let act = args
                    .get(6)
                    .and_then(|t| act_from(t))
                    .ok_or_else(|| bad("bad activation".into()))?;
                let geometry = spec.geometry().map_err(|e| bad(e.to_string()))?;
                let w = r.floats(geometry.weight_volume())?;
                let b = r.floats(spec.out_channels)?;
                let weights = Tensor::from_vec(spec.weight_shape(), w).map_err(NnError::from)?;
                let bias =
                    Tensor::from_vec(Shape::d1(spec.out_channels), b).map_err(NnError::from)?;
                layers.push(Layer::Conv2d(Conv2dLayer::new(spec, weights, bias, act)?));
            }
            "conv3d" => {
                let spec = Conv3dSpec {
                    in_channels: parse(0)?,
                    out_channels: parse(1)?,
                    kd: parse(2)?,
                    kh: parse(3)?,
                    kw: parse(4)?,
                    stride: parse(5)?,
                    pad: parse(6)?,
                };
                let act = args
                    .get(7)
                    .and_then(|t| act_from(t))
                    .ok_or_else(|| bad("bad activation".into()))?;
                let geometry = spec.geometry().map_err(|e| bad(e.to_string()))?;
                let w = r.floats(geometry.weight_volume())?;
                let b = r.floats(spec.out_channels)?;
                let weights = Tensor::from_vec(spec.weight_shape(), w).map_err(NnError::from)?;
                let bias =
                    Tensor::from_vec(Shape::d1(spec.out_channels), b).map_err(NnError::from)?;
                layers.push(Layer::Conv3d(Conv3dLayer::new(spec, weights, bias, act)?));
            }
            "pool2d" => {
                layers.push(Layer::Pool2d(Pool2dLayer {
                    window: parse(0)?,
                    stride: parse(1)?,
                    ceil: parse(2)? == 1,
                }));
            }
            "pool3d" => {
                layers.push(Layer::Pool3d(Pool3dLayer::new(
                    parse(0)?,
                    parse(1)?,
                    parse(2)? == 1,
                )));
            }
            "flatten" => layers.push(Layer::Flatten),
            "passthrough" => {
                let layer = crate::PassthroughLayer::from_spec_tokens(args)
                    .ok_or_else(|| bad("bad passthrough descriptor".into()))?;
                layers.push(Layer::Passthrough(layer));
            }
            "groupmax" => layers.push(Layer::GroupMax { group: parse(0)? }),
            "lstm" => {
                let (n_in, cell_dim) = (parse(0)?, parse(1)?);
                layers.push(Layer::Lstm(read_cell(&mut r, n_in, cell_dim)?));
            }
            "bilstm" => {
                let (n_in, cell_dim) = (parse(0)?, parse(1)?);
                let fwd = read_cell(&mut r, n_in, cell_dim)?;
                let bwd = read_cell(&mut r, n_in, cell_dim)?;
                layers.push(Layer::BiLstm(BiLstmLayer::new(fwd, bwd)?));
            }
            other => return Err(bad(format!("unknown layer kind {other}"))),
        }
    }
    for layer in layers {
        builder = builder.push_layer(layer);
    }
    Ok(builder.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuse_tensor::Shape as TShape;

    fn mlp() -> Network {
        NetworkBuilder::new("mlp", 6)
            .seed(5)
            .fully_connected(8, Activation::Relu)
            .group_max(2)
            .fully_connected(3, Activation::Identity)
            .build()
            .unwrap()
    }

    #[test]
    fn mlp_round_trip_is_bit_exact() {
        let net = mlp();
        let text = to_string(&net);
        let back = from_str(&text).unwrap();
        assert_eq!(back.name(), net.name());
        let x = [0.11f32, -0.7, 0.3, 0.9, -0.2, 0.05];
        assert_eq!(
            back.forward_flat(&x).unwrap().as_slice(),
            net.forward_flat(&x).unwrap().as_slice()
        );
    }

    #[test]
    fn cnn_round_trip_is_bit_exact() {
        let net = NetworkBuilder::with_input_shape("cnn", TShape::d3(2, 6, 6))
            .seed(7)
            .conv2d(3, 3, 1, 1, Activation::Relu)
            .pool2d(2)
            .flatten()
            .fully_connected(4, Activation::Identity)
            .build()
            .unwrap();
        let text = to_string(&net);
        let back = from_str(&text).unwrap();
        let x: Vec<f32> = (0..72).map(|i| (i as f32 / 72.0) - 0.5).collect();
        assert_eq!(
            back.forward_flat(&x).unwrap().as_slice(),
            net.forward_flat(&x).unwrap().as_slice()
        );
    }

    #[test]
    fn degenerate_conv_geometry_is_rejected_not_a_panic() {
        // Stride 0 used to divide by zero and a zero kernel extent to panic
        // in `weight_shape`, before any parameter was read.
        for (shape, layer) in [
            ("1 4 4", "conv2d conv1 1 2 3 3 0 1 relu"),
            ("1 4 4", "conv2d conv1 1 2 0 3 1 1 relu"),
            ("1 4 4 4", "conv3d conv1 1 2 3 3 3 0 1 relu"),
            ("1 4 4 4", "conv3d conv1 1 2 3 0 3 1 1 relu"),
        ] {
            let text = format!(
                "reuse-dnn-model v{FORMAT_VERSION}\nname m\ninput {shape}\nlayer {layer}\n"
            );
            let err = from_str(&text).unwrap_err();
            assert!(
                matches!(err, SerializeError::BadLine { .. }),
                "{layer}: {err}"
            );
        }
    }

    #[test]
    fn oversized_dimensions_are_rejected_not_an_abort() {
        // Each used to reserve (or multiply out) a volume taken straight
        // from the layer line: an allocation failure aborts the process, and
        // the products overflowed.
        let huge = usize::MAX / 2 + 1;
        for (shape, layer) in [
            (
                "3 8 8",
                "conv2d c1 1000000 1000000 1000 1000 1 0 relu".to_string(),
            ),
            ("3 8 8", format!("conv2d c1 {huge} {huge} 3 3 1 0 relu")),
            (
                "3 4 8 8",
                "conv3d c1 100000 100000 1000 1000 100 1 0 relu".to_string(),
            ),
            ("3 4 8 8", format!("conv3d c1 {huge} 2 {huge} 3 3 1 0 relu")),
            ("8", "fc fc1 4000000000 4000000000 relu".to_string()),
            ("8", format!("fc fc1 {huge} {huge} relu")),
            ("8", format!("lstm l1 {huge} {huge}")),
        ] {
            let text = format!(
                "reuse-dnn-model v{FORMAT_VERSION}\nname m\ninput {shape}\nlayer {layer}\n0.5 0.25\n"
            );
            let err = from_str(&text).unwrap_err();
            assert!(
                matches!(
                    err,
                    SerializeError::BadParameters(_) | SerializeError::BadLine { .. }
                ),
                "{layer}: {err}"
            );
        }
    }

    #[test]
    fn conv3d_round_trip() {
        let net = NetworkBuilder::with_input_shape("c3", TShape::d4(1, 4, 4, 4))
            .seed(8)
            .conv3d(2, 3, 1, 1, Activation::Relu)
            .pool3d(2, 2, true)
            .flatten()
            .fully_connected(2, Activation::Identity)
            .build()
            .unwrap();
        let back = from_str(&to_string(&net)).unwrap();
        let x = vec![0.25f32; 64];
        assert_eq!(
            back.forward_flat(&x).unwrap().as_slice(),
            net.forward_flat(&x).unwrap().as_slice()
        );
    }

    #[test]
    fn recurrent_round_trip() {
        let net = NetworkBuilder::new("rnn", 5)
            .seed(9)
            .lstm(3)
            .bilstm(2)
            .fully_connected(2, Activation::Identity)
            .build()
            .unwrap();
        let back = from_str(&to_string(&net)).unwrap();
        let frames = vec![vec![0.1f32; 5], vec![0.2; 5], vec![-0.1; 5]];
        let a = net.forward_sequence(&frames).unwrap();
        let b = back.forward_sequence(&frames).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(matches!(from_str(""), Err(SerializeError::BadHeader(_))));
        assert!(matches!(
            from_str("wrong v1\n"),
            Err(SerializeError::BadHeader(_))
        ));
        let mut text = to_string(&mlp());
        // Truncate parameters.
        text.truncate(text.len() / 2);
        assert!(from_str(&text).is_err());
    }

    #[test]
    fn unknown_layer_kind_rejected() {
        let text = "reuse-dnn-model v1\nname x\ninput 4\nlayer warp w1 4\n";
        assert!(matches!(
            from_str(text),
            Err(SerializeError::BadLine { .. })
        ));
    }

    #[test]
    fn layer_names_are_regenerated_consistently() {
        let net = mlp();
        let back = from_str(&to_string(&net)).unwrap();
        let names: Vec<&str> = back.layers().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["fc1", "groupmax1", "fc2"]);
    }
}
