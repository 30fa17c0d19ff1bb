//! Recompute-always passthrough layers for ingested graphs.
//!
//! ONNX ingestion (`reuse-onnx-ingest`) lowers ops the reuse scheme cannot
//! correct incrementally — softmax, general rectangular pooling, standalone
//! element-wise activations — into a [`PassthroughLayer`]. A passthrough
//! executes its op from scratch on every frame. The reuse engine still gives
//! it a plan slot so its cost shows up honestly in metrics and telemetry
//! (full MACs charged, zero inputs reused), but it never participates in
//! quantizer calibration.
//!
//! Every op here is *executable*: a passthrough must still produce correct
//! outputs so partial graphs serve end-to-end. Ops that cannot be executed
//! at all (attention blocks, custom kernels) are ingestion errors, not
//! passthroughs.

use reuse_tensor::Shape;

use crate::{Activation, NnError};

/// Geometry of a general 2D pooling window over `[c, h, w]` inputs:
/// rectangular kernel, independent strides, symmetric zero padding and an
/// optional ceil output mode (the ONNX `MaxPool`/`AveragePool` surface,
/// minus dilation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSpec2d {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
    /// Symmetric vertical padding (top == bottom).
    pub pad_h: usize,
    /// Symmetric horizontal padding (left == right).
    pub pad_w: usize,
    /// Emit a final partial window when the stride does not divide evenly.
    pub ceil: bool,
}

impl PoolSpec2d {
    /// Output extent of one spatial dimension, or 0 when the window does
    /// not fit.
    fn extent(&self, size: usize, k: usize, stride: usize, pad: usize) -> usize {
        let span = size + 2 * pad;
        if span < k || stride == 0 {
            return 0;
        }
        let d = span - k;
        if self.ceil && !d.is_multiple_of(stride) {
            d / stride + 2
        } else {
            d / stride + 1
        }
    }

    /// Output `(oh, ow)` for an `h x w` input plane, or `None` when the
    /// window does not fit.
    pub fn output_hw(&self, h: usize, w: usize) -> Option<(usize, usize)> {
        let oh = self.extent(h, self.kh, self.stride_h, self.pad_h);
        let ow = self.extent(w, self.kw, self.stride_w, self.pad_w);
        (oh > 0 && ow > 0).then_some((oh, ow))
    }
}

/// The op a [`PassthroughLayer`] recomputes every frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PassthroughOp {
    /// Numerically-stable softmax over the whole (flattened) input.
    Softmax,
    /// General 2D max pooling (padding contributes nothing to the max).
    MaxPool2d(PoolSpec2d),
    /// General 2D average pooling (padding excluded from the mean, the
    /// ONNX `count_include_pad = 0` default).
    AveragePool2d(PoolSpec2d),
    /// Per-channel global average over `[c, h, w]` inputs.
    GlobalAveragePool,
    /// A standalone element-wise activation with no preceding weighted
    /// layer to fuse into.
    Elementwise(Activation),
}

/// A weightless recompute-always layer (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassthroughLayer {
    op: PassthroughOp,
}

impl PassthroughLayer {
    /// Wraps an op as a passthrough layer.
    pub fn new(op: PassthroughOp) -> Self {
        PassthroughLayer { op }
    }

    /// The wrapped op.
    pub fn op(&self) -> PassthroughOp {
        self.op
    }

    fn chw(input: &Shape) -> Result<(usize, usize, usize), NnError> {
        let d = input.dims();
        if d.len() != 3 {
            return Err(NnError::InvalidConfig {
                context: format!("passthrough pooling expects [c,h,w], got {input}"),
            });
        }
        Ok((d[0], d[1], d[2]))
    }

    /// Output shape for a given input shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when the input shape is
    /// incompatible with the op (wrong rank, window does not fit).
    pub fn output_shape(&self, input: &Shape) -> Result<Shape, NnError> {
        match self.op {
            PassthroughOp::Softmax | PassthroughOp::Elementwise(_) => Ok(input.clone()),
            PassthroughOp::MaxPool2d(spec) | PassthroughOp::AveragePool2d(spec) => {
                let (c, h, w) = Self::chw(input)?;
                let (oh, ow) = spec.output_hw(h, w).ok_or_else(|| NnError::InvalidConfig {
                    context: format!("pool window does not fit {input}"),
                })?;
                Ok(Shape::d3(c, oh, ow))
            }
            PassthroughOp::GlobalAveragePool => {
                let (c, _, _) = Self::chw(input)?;
                Ok(Shape::d3(c, 1, 1))
            }
        }
    }

    /// MAC-equivalent cost of one from-scratch execution, in the same
    /// multiply+add units the weighted layers report. Pooling charges one
    /// unit per window element visited, softmax three per element,
    /// element-wise one per element — a deterministic cost model for the
    /// accelerator accounting, not a hardware measurement.
    pub fn flops(&self, input: &Shape) -> u64 {
        match self.op {
            PassthroughOp::Softmax => 6 * input.volume() as u64,
            PassthroughOp::Elementwise(_) => 2 * input.volume() as u64,
            PassthroughOp::MaxPool2d(spec) | PassthroughOp::AveragePool2d(spec) => {
                let Ok((c, h, w)) = Self::chw(input) else {
                    return 0;
                };
                let Some((oh, ow)) = spec.output_hw(h, w) else {
                    return 0;
                };
                2 * (c * oh * ow * spec.kh * spec.kw) as u64
            }
            PassthroughOp::GlobalAveragePool => 2 * input.volume() as u64,
        }
    }

    /// Runs the op on `rows` flat inputs back to back, writing their flat
    /// outputs back to back into `out` (cleared first). Allocation-free apart
    /// from `out` growth, so the reuse engine's pooled buffers pass straight
    /// through.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] when `input` is not `rows` inputs of
    /// `in_shape` and [`NnError::InvalidConfig`] on op/shape mismatches.
    pub fn forward_into(
        &self,
        input: &[f32],
        in_shape: &Shape,
        rows: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), NnError> {
        if input.len() != rows * in_shape.volume() {
            return Err(NnError::InputShape {
                expected: rows * in_shape.volume(),
                actual: input.len(),
            });
        }
        out.clear();
        for input in input.chunks_exact(in_shape.volume().max(1)) {
            match self.op {
                PassthroughOp::Elementwise(act) => {
                    let row = out.len();
                    out.extend_from_slice(input);
                    act.apply_in_place(&mut out[row..]);
                }
                PassthroughOp::Softmax => {
                    let max = input.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let mut sum = 0.0f32;
                    for &v in input {
                        sum += (v - max).exp();
                    }
                    for &v in input {
                        out.push((v - max).exp() / sum);
                    }
                }
                PassthroughOp::MaxPool2d(spec) => {
                    self.pool2d(input, in_shape, out, spec, true)?;
                }
                PassthroughOp::AveragePool2d(spec) => {
                    self.pool2d(input, in_shape, out, spec, false)?;
                }
                PassthroughOp::GlobalAveragePool => {
                    let (c, h, w) = Self::chw(in_shape)?;
                    let plane = h * w;
                    for ch in 0..c {
                        let s: f32 = input[ch * plane..(ch + 1) * plane].iter().sum();
                        out.push(s / plane as f32);
                    }
                }
            }
        }
        Ok(())
    }

    fn pool2d(
        &self,
        input: &[f32],
        in_shape: &Shape,
        out: &mut Vec<f32>,
        spec: PoolSpec2d,
        max: bool,
    ) -> Result<(), NnError> {
        let (c, h, w) = Self::chw(in_shape)?;
        let (oh, ow) = spec.output_hw(h, w).ok_or_else(|| NnError::InvalidConfig {
            context: format!("pool window does not fit {in_shape}"),
        })?;
        for ch in 0..c {
            let plane = &input[ch * h * w..(ch + 1) * h * w];
            for oy in 0..oh {
                let y0 = (oy * spec.stride_h) as isize - spec.pad_h as isize;
                for ox in 0..ow {
                    let x0 = (ox * spec.stride_w) as isize - spec.pad_w as isize;
                    let mut acc = if max { f32::NEG_INFINITY } else { 0.0 };
                    let mut n = 0u32;
                    for ky in 0..spec.kh as isize {
                        let y = y0 + ky;
                        if y < 0 || y >= h as isize {
                            continue;
                        }
                        for kx in 0..spec.kw as isize {
                            let x = x0 + kx;
                            if x < 0 || x >= w as isize {
                                continue;
                            }
                            let v = plane[y as usize * w + x as usize];
                            if max {
                                acc = acc.max(v);
                            } else {
                                acc += v;
                            }
                            n += 1;
                        }
                    }
                    out.push(match (max, n) {
                        (_, 0) => 0.0,
                        (true, _) => acc,
                        (false, _) => acc / n as f32,
                    });
                }
            }
        }
        Ok(())
    }

    /// Whitespace-separated descriptor tokens for the text serializer
    /// (inverse of [`Self::from_spec_tokens`]).
    pub fn spec_tokens(&self) -> String {
        match self.op {
            PassthroughOp::Softmax => "softmax".to_string(),
            PassthroughOp::Elementwise(act) => format!("elementwise {}", act.name()),
            PassthroughOp::GlobalAveragePool => "gap".to_string(),
            PassthroughOp::MaxPool2d(s) | PassthroughOp::AveragePool2d(s) => {
                let kind = if matches!(self.op, PassthroughOp::MaxPool2d(_)) {
                    "maxpool2d"
                } else {
                    "avgpool2d"
                };
                format!(
                    "{kind} {} {} {} {} {} {} {}",
                    s.kh, s.kw, s.stride_h, s.stride_w, s.pad_h, s.pad_w, s.ceil as u8
                )
            }
        }
    }

    /// Parses the descriptor emitted by [`Self::spec_tokens`].
    pub fn from_spec_tokens(tokens: &[&str]) -> Option<Self> {
        let op = match *tokens.first()? {
            "softmax" => PassthroughOp::Softmax,
            "gap" => PassthroughOp::GlobalAveragePool,
            "elementwise" => {
                let act = match *tokens.get(1)? {
                    "identity" => Activation::Identity,
                    "relu" => Activation::Relu,
                    "sigmoid" => Activation::Sigmoid,
                    "tanh" => Activation::Tanh,
                    _ => return None,
                };
                PassthroughOp::Elementwise(act)
            }
            kind @ ("maxpool2d" | "avgpool2d") => {
                if tokens.len() != 8 {
                    return None;
                }
                let p = |i: usize| tokens[i].parse::<usize>().ok();
                let spec = PoolSpec2d {
                    kh: p(1)?,
                    kw: p(2)?,
                    stride_h: p(3)?,
                    stride_w: p(4)?,
                    pad_h: p(5)?,
                    pad_w: p(6)?,
                    ceil: p(7)? == 1,
                };
                if kind == "maxpool2d" {
                    PassthroughOp::MaxPool2d(spec)
                } else {
                    PassthroughOp::AveragePool2d(spec)
                }
            }
            _ => return None,
        };
        Some(PassthroughLayer::new(op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `op` on `shape`-shaped data; the output must fill the shape
    /// [`PassthroughLayer::output_shape`] infers, whose dims come back too.
    fn run(op: PassthroughOp, shape: Shape, data: &[f32]) -> (Vec<f32>, Vec<usize>) {
        let layer = PassthroughLayer::new(op);
        let mut out = vec![f32::NAN; 2];
        layer.forward_into(data, &shape, 1, &mut out).unwrap();
        let out_shape = layer.output_shape(&shape).unwrap();
        assert_eq!(out.len(), out_shape.volume());
        (out, out_shape.dims().to_vec())
    }

    fn ramp(n: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..n).map(f).collect()
    }

    #[test]
    fn softmax_sums_to_one_and_is_shift_stable() {
        let (out, _) = run(PassthroughOp::Softmax, Shape::d1(3), &[1.0, 2.0, 3.0]);
        let sum: f32 = out.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        // Shifting all logits must not change the result (stability).
        let shifted = [1001.0, 1002.0, 1003.0];
        let (out2, _) = run(PassthroughOp::Softmax, Shape::d1(3), &shifted);
        for (a, b) in out.iter().zip(&out2) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn maxpool_matches_square_pool_semantics() {
        let spec = PoolSpec2d {
            kh: 2,
            kw: 2,
            stride_h: 2,
            stride_w: 2,
            pad_h: 0,
            pad_w: 0,
            ceil: false,
        };
        let data = ramp(16, |i| i as f32);
        let (out, dims) = run(PassthroughOp::MaxPool2d(spec), Shape::d3(1, 4, 4), &data);
        assert_eq!(dims, [1, 2, 2]);
        assert_eq!(out, [5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn padded_maxpool_ignores_padding() {
        let spec = PoolSpec2d {
            kh: 3,
            kw: 3,
            stride_h: 2,
            stride_w: 2,
            pad_h: 1,
            pad_w: 1,
            ceil: false,
        };
        // All-negative input: zero padding must not leak into the max.
        let data = ramp(16, |i| -1.0 - i as f32);
        let (out, dims) = run(PassthroughOp::MaxPool2d(spec), Shape::d3(1, 4, 4), &data);
        assert_eq!(dims, [1, 2, 2]);
        assert!(out.iter().all(|&v| v < 0.0));
    }

    #[test]
    fn average_pool_excludes_padding_from_the_mean() {
        let spec = PoolSpec2d {
            kh: 2,
            kw: 2,
            stride_h: 2,
            stride_w: 2,
            pad_h: 1,
            pad_w: 1,
            ceil: false,
        };
        let op = PassthroughOp::AveragePool2d(spec);
        let (out, _) = run(op, Shape::d3(1, 2, 2), &[8.0; 4]);
        // Corner windows see exactly one real element; its mean is 8, not 2.
        assert!(out.iter().all(|&v| (v - 8.0).abs() < 1e-6));
    }

    #[test]
    fn global_average_pool_reduces_each_channel() {
        let data = ramp(8, |i| i as f32);
        let (out, dims) = run(PassthroughOp::GlobalAveragePool, Shape::d3(2, 2, 2), &data);
        assert_eq!(dims, [2, 1, 1]);
        assert_eq!(out, [1.5, 5.5]);
    }

    #[test]
    fn elementwise_relu_matches_activation() {
        let op = PassthroughOp::Elementwise(Activation::Relu);
        assert_eq!(run(op, Shape::d1(2), &[-1.0, 0.5]).0, [0.0, 0.5]);
    }

    #[test]
    fn spec_tokens_round_trip() {
        let ops = [
            PassthroughOp::Softmax,
            PassthroughOp::GlobalAveragePool,
            PassthroughOp::Elementwise(Activation::Tanh),
            PassthroughOp::MaxPool2d(PoolSpec2d {
                kh: 3,
                kw: 2,
                stride_h: 2,
                stride_w: 1,
                pad_h: 1,
                pad_w: 0,
                ceil: true,
            }),
            PassthroughOp::AveragePool2d(PoolSpec2d {
                kh: 2,
                kw: 2,
                stride_h: 2,
                stride_w: 2,
                pad_h: 0,
                pad_w: 0,
                ceil: false,
            }),
        ];
        for op in ops {
            let layer = PassthroughLayer::new(op);
            let text = layer.spec_tokens();
            let tokens: Vec<&str> = text.split_whitespace().collect();
            let back = PassthroughLayer::from_spec_tokens(&tokens).unwrap();
            assert_eq!(back, layer, "round trip failed for {text:?}");
        }
    }

    #[test]
    fn flops_are_positive_and_shape_aware() {
        let layer = PassthroughLayer::new(PassthroughOp::Softmax);
        assert_eq!(layer.flops(&Shape::d1(10)), 60);
        let spec = PoolSpec2d {
            kh: 2,
            kw: 2,
            stride_h: 2,
            stride_w: 2,
            pad_h: 0,
            pad_w: 0,
            ceil: false,
        };
        let pool = PassthroughLayer::new(PassthroughOp::MaxPool2d(spec));
        assert_eq!(pool.flops(&Shape::d3(1, 4, 4)), 2 * 4 * 4);
    }
}
