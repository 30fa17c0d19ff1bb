//! Per-layer replay for the traced run, from outside the program.
//!
//! Walk A is a shadow session built from the public per-layer pieces: each
//! unit goes layer by layer through `FcReuseState` / `Conv*ReuseState` /
//! `LstmReuseState` for reuse-enabled layers and `Network::apply_layer` for
//! the rest, with the session's own quantizers, so every layer sees the
//! input the session gives it and the caches cycle through the whole model
//! as they do in the session. Walk B then pushes the inputs walk A recorded
//! through the kernels underneath, layer by layer: `tensor` forward kernels,
//! `nn` forward, `quant` quantize/diff and `apply_deltas_rows` on the
//! changed lists. Span names are the metric names they feed.

use std::collections::BTreeMap;

use reuse_core::conv::{Conv2dPack, Conv2dReuseState, Conv3dPack, Conv3dReuseState};
use reuse_core::fc::FcReuseState;
use reuse_core::lstm::{LstmGatePack, LstmReuseState};
use reuse_core::ReuseSession;
use reuse_nn::{Layer, LstmCell, Network};
use reuse_quant::{LinearQuantizer, QuantCode, RangeProfiler};
use reuse_tensor::block::{apply_deltas_rows, fc_forward_packed_into};
use reuse_tensor::conv::{conv2d_forward, conv3d_forward};
use reuse_tensor::matmul::matmul_packed_into;
use reuse_tensor::{PackedPanels, ParallelConfig, Shape, Tensor};

use crate::report::Report;
use crate::stream::Unit;
use crate::trace::{Tracer, ROOT};

/// Why a replayed call cannot fail: its input came out of this network.
const FITS: &str = "replayed input fits the layer";
const GATES: usize = 4;

/// Sums span durations per metric and unit while recording the spans.
struct Probe<'a> {
    tracer: &'a mut Tracer,
    /// `sums[metric][u]`: nanoseconds unit `u` of the replay spent there.
    sums: BTreeMap<&'static str, Vec<u64>>,
    /// Index of the current unit within the replayed slice.
    index: usize,
    parent: u32,
    unit: u32,
    /// Off while a walk runs the predecessor unit that only sets up state.
    timed: bool,
    serial: ParallelConfig,
    /// Elements quantized, inputs diffed, inputs found changed, bytes the
    /// packed FC forward streams (computed from sizes, not measured).
    quantized: u64,
    diffed: u64,
    changed: u64,
    fc_bytes: u64,
}

impl Probe<'_> {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.timed {
            return f();
        }
        let (value, ns) = self.tracer.span(name, self.parent, self.unit, f);
        let per_unit = self.sums.entry(name).or_default();
        if per_unit.len() <= self.index {
            per_unit.resize(self.index + 1, 0);
        }
        per_unit[self.index] += ns;
        value
    }

    fn total(&self, name: &str) -> u64 {
        self.sums.get(name).map_or(0, |v| v.iter().sum())
    }

    /// Median over the replayed units of what each spent under `names`
    /// (a median, like the session span it is compared with, so one host
    /// stall does not move it).
    fn median_per_unit(&self, names: &[&'static str], units: usize) -> f64 {
        let mut per_unit: Vec<f64> = (1..units)
            .map(|u| {
                names
                    .iter()
                    .filter_map(|n| self.sums.get(n)?.get(u))
                    .sum::<u64>() as f64
            })
            .collect();
        crate::stats::median(&mut per_unit)
    }
}

/// Codes of the previous input plus the scratch the diff pass needs.
struct DiffState {
    prev: Vec<QuantCode>,
    scratch: Vec<QuantCode>,
    changed: Vec<(u32, f32)>,
}

impl DiffState {
    fn new(q: &LinearQuantizer, first: &[f32]) -> Self {
        DiffState {
            prev: q.quantize_slice(first),
            scratch: Vec::with_capacity(first.len()),
            changed: Vec::with_capacity(first.len()),
        }
    }

    /// Quantizes and diffs one input (each timed); leaves the changed list
    /// in `self.changed`.
    fn step(&mut self, p: &mut Probe<'_>, q: &LinearQuantizer, x: &[f32]) {
        p.time("quant.quantize_ns_per_kelem", || {
            q.quantize_slice_into(x, &mut self.scratch)
        });
        p.time("quant.diff_codes_ns", || {
            q.diff_codes_into(x, &mut self.prev, &mut self.scratch, &mut self.changed);
        });
        p.quantized += x.len() as u64;
        p.diffed += x.len() as u64;
        p.changed += self.changed.len() as u64;
    }
}

/// Reuse state of a frame-wise weighted layer.
enum Stepper<'n> {
    Fc(&'n reuse_nn::FullyConnected, FcReuseState),
    Conv2d(&'n reuse_nn::Conv2dLayer, Conv2dPack, Conv2dReuseState),
    Conv3d(&'n reuse_nn::Conv3dLayer, Conv3dPack, Conv3dReuseState),
}

impl Stepper<'_> {
    /// One reuse step: correction plus activation, as the session's
    /// `ReuseLayer::step` does.
    fn step(&mut self, p: &mut Probe<'_>, q: &LinearQuantizer, x: &[f32], out: &mut Vec<f32>) {
        let serial = p.serial;
        match self {
            Stepper::Fc(fc, state) => p.time("reuse.fc_step_ns", || {
                state.execute_into(&serial, fc, q, x, out).expect(FITS);
                fc.activation().apply_in_place(out);
            }),
            Stepper::Conv2d(c, pack, state) => p.time("reuse.conv2d_step_ns", || {
                state
                    .execute_into_packed(&serial, c, pack, q, x, out)
                    .expect(FITS);
                c.activation().apply_in_place(out);
            }),
            Stepper::Conv3d(c, pack, state) => p.time("reuse.conv3d_step_ns", || {
                state
                    .execute_into_packed(&serial, c, pack, q, x, out)
                    .expect(FITS);
                c.activation().apply_in_place(out);
            }),
        }
    }

    fn reset(&mut self) {
        match self {
            Stepper::Fc(_, state) => state.reset(),
            Stepper::Conv2d(_, _, state) => state.reset(),
            Stepper::Conv3d(_, _, state) => state.reset(),
        }
    }
}

/// One direction of a recurrent layer.
struct CellReplay<'n> {
    cell: &'n LstmCell,
    pack: LstmGatePack,
    state: LstmReuseState,
    /// Visits the sequence back to front.
    reversed: bool,
    /// Per unit, the hidden state fed back into each step, in visit order.
    h_inputs: Vec<Vec<Vec<f32>>>,
}

impl<'n> CellReplay<'n> {
    fn new(cell: &'n LstmCell, reversed: bool) -> Self {
        CellReplay {
            cell,
            pack: LstmGatePack::new(cell),
            state: LstmReuseState::new_shared(cell),
            reversed,
            h_inputs: Vec::new(),
        }
    }

    fn visit_order(&self, len: usize) -> Vec<usize> {
        if self.reversed {
            (0..len).rev().collect()
        } else {
            (0..len).collect()
        }
    }
}

enum Runner<'n> {
    /// Reuse-enabled frame-wise layer.
    Frame(Box<Stepper<'n>>),
    /// Reuse-enabled recurrent layer: one or two directions.
    Cells(Vec<CellReplay<'n>>),
    /// Passive layer, or a weighted one the session runs at full precision.
    Plain,
}

struct LayerReplay<'n> {
    layer: &'n Layer,
    in_shape: &'n Shape,
    xq: Option<LinearQuantizer>,
    hq: Option<LinearQuantizer>,
    runner: Runner<'n>,
    /// What walk A fed this (weighted) layer, per unit.
    inputs: Vec<Unit>,
}

fn cells_of(layer: &Layer) -> Vec<(&LstmCell, bool)> {
    match layer {
        Layer::Lstm(cell) => vec![(cell, false)],
        Layer::BiLstm(l) => vec![(l.forward_cell(), false), (l.backward_cell(), true)],
        _ => Vec::new(),
    }
}

/// The hidden-state quantizer of every reuse-enabled recurrent layer,
/// rebuilt the way the session builds its own (which it does not expose):
/// the calibration units go through the fp32 network while each cell's
/// fed-back hidden states are profiled, then the range takes the
/// configured margin and the layer's cluster count.
fn hidden_quantizers(
    network: &Network,
    session: &ReuseSession,
    calibration: &[Unit],
) -> Vec<Option<LinearQuantizer>> {
    let n_layers = network.layers().len();
    if !network.is_recurrent() {
        return vec![None; n_layers];
    }
    let mut profilers: Vec<RangeProfiler> = (0..n_layers).map(|_| RangeProfiler::new()).collect();
    for unit in calibration {
        let mut seq: Unit = unit.clone();
        for (i, (_, layer)) in network.layers().iter().enumerate() {
            for (cell, reversed) in cells_of(layer) {
                let mut xs = seq.clone();
                if reversed {
                    xs.reverse();
                }
                let hidden = cell.forward_sequence(&xs).expect(FITS);
                profilers[i].observe_slice(&vec![0.0; cell.cell_dim()]);
                hidden[..hidden.len() - 1]
                    .iter()
                    .for_each(|h| profilers[i].observe_slice(h));
            }
            seq = plain_forward(network, i, &seq);
        }
    }
    let margin = session.model().config().margin();
    network
        .layers()
        .iter()
        .zip(profilers)
        .map(|((name, layer), profiler)| {
            let xq = session
                .quantizer_for(name)
                .filter(|_| layer.is_recurrent())?;
            let range = profiler.range(margin).ok()?;
            LinearQuantizer::new(range, xq.clusters()).ok()
        })
        .collect()
}

/// Layer `i` at full precision over a sequence (one element for a frame).
fn plain_forward(network: &Network, i: usize, seq: &Unit) -> Unit {
    let (_, layer) = &network.layers()[i];
    if layer.is_recurrent() {
        return layer.forward_sequence(seq).expect(FITS);
    }
    let shape = &network.layer_input_shapes()[i];
    seq.iter()
        .map(|x| {
            let input = Tensor::from_vec(shape.clone(), x.clone()).expect(FITS);
            network.apply_layer(i, input).expect(FITS).into_vec()
        })
        .collect()
}

/// Walk A's time per unit (the session's work done through the public
/// per-layer functions) and its two full-precision shares.
pub struct Walk {
    pub per_unit_ns: f64,
    pub disabled_ns: f64,
    pub passive_ns: f64,
}

const DISABLED_SPAN: &str = "reuse.disabled_forward_ns";
const PASSIVE_SPAN: &str = "reuse.passive_layers_ns";

/// Replays `units[1..]` (each a child of `parents[i]`; `units[0]` only sets
/// up the state the first replayed unit corrects against) and stores every
/// `tensor.*`, `quant.*`, `nn.*` and `reuse.*_step_ns` metric as the median
/// over units of each unit's sum.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    network: &Network,
    session: &ReuseSession,
    calibration: &[Unit],
    units: &[Unit],
    parents: &[u32],
    first_unit: u32,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Walk {
    let mut p = Probe {
        tracer,
        sums: BTreeMap::new(),
        index: 0,
        parent: ROOT,
        unit: first_unit,
        timed: false,
        serial: ParallelConfig::serial(),
        quantized: 0,
        diffed: 0,
        changed: 0,
        fc_bytes: 0,
    };
    let hidden = hidden_quantizers(network, session, calibration);
    let mut layers: Vec<LayerReplay<'_>> = network
        .layers()
        .iter()
        .zip(network.layer_input_shapes())
        .zip(hidden)
        .map(|(((name, layer), in_shape), hq)| {
            let xq = session.quantizer_for(name).copied();
            let runner = match (layer, xq.is_some(), hq.is_some()) {
                (Layer::FullyConnected(fc), true, _) => {
                    Runner::Frame(Box::new(Stepper::Fc(fc, FcReuseState::new(fc))))
                }
                (Layer::Conv2d(c), true, _) => Runner::Frame(Box::new(Stepper::Conv2d(
                    c,
                    Conv2dPack::new(c),
                    Conv2dReuseState::new(c, in_shape).expect(FITS),
                ))),
                (Layer::Conv3d(c), true, _) => Runner::Frame(Box::new(Stepper::Conv3d(
                    c,
                    Conv3dPack::new(c),
                    Conv3dReuseState::new(c, in_shape).expect(FITS),
                ))),
                (Layer::Lstm(_) | Layer::BiLstm(_), true, true) => Runner::Cells(
                    cells_of(layer)
                        .into_iter()
                        .map(|(c, r)| CellReplay::new(c, r))
                        .collect(),
                ),
                _ => Runner::Plain,
            };
            LayerReplay {
                layer,
                in_shape,
                xq,
                hq,
                runner,
                inputs: Vec::new(),
            }
        })
        .collect();

    let at = |p: &mut Probe<'_>, u: usize| {
        p.parent = parents.get(u).copied().unwrap_or(ROOT);
        p.unit = first_unit + u as u32;
        p.index = u;
        p.timed = u > 0;
    };

    // Walk A: the shadow session.
    let recurrent = network.is_recurrent();
    for (u, unit) in units.iter().enumerate() {
        at(&mut p, u);
        let mut seq: Unit = unit.clone();
        for (i, lr) in layers.iter_mut().enumerate() {
            if lr.layer.has_weights() {
                lr.inputs.push(seq.clone());
            }
            seq = walk_layer(&mut p, network, i, lr, seq, recurrent);
        }
    }
    let walk_a_names: Vec<&'static str> = p.sums.keys().copied().collect();

    // Walk B: the kernels under each weighted layer, on the same inputs.
    for (u, unit) in units.iter().enumerate().skip(1) {
        at(&mut p, u);
        p.time("nn.forward_fp32_ns", || {
            if recurrent {
                network.forward_sequence(unit).map(drop)
            } else {
                network.forward_flat(&unit[0]).map(drop)
            }
        })
        .expect(FITS);
    }
    for lr in layers.iter().filter(|lr| lr.layer.has_weights()) {
        kernels_under(&mut p, lr, recurrent, &at);
    }

    let names: Vec<&'static str> = p.sums.keys().copied().collect();
    for name in names {
        if name != DISABLED_SPAN && name != PASSIVE_SPAN {
            report.set(name, p.median_per_unit(&[name], units.len()));
        }
    }
    report.set(
        "quant.quantize_ns_per_kelem",
        p.total("quant.quantize_ns_per_kelem") as f64 * 1e3 / p.quantized.max(1) as f64,
    );
    report.set(
        "quant.changed_fraction",
        p.changed as f64 / p.diffed.max(1) as f64,
    );
    let fc_ns = p.total("tensor.fc_packed_forward_ns");
    if fc_ns > 0 {
        report.set(
            "tensor.fc_packed_forward_gbps",
            p.fc_bytes as f64 / fc_ns as f64,
        );
    }
    let weighted: f64 = [
        "nn.fc_forward_ns",
        "nn.conv_forward_ns",
        "nn.lstm_forward_ns",
    ]
    .iter()
    .map(|m| report.get(m))
    .sum();
    report.set(
        "nn.other_self_ns",
        report.get("nn.forward_fp32_ns") - weighted,
    );
    Walk {
        per_unit_ns: p.median_per_unit(&walk_a_names, units.len()),
        disabled_ns: p.median_per_unit(&[DISABLED_SPAN], units.len()),
        passive_ns: p.median_per_unit(&[PASSIVE_SPAN], units.len()),
    }
}

/// One layer of walk A over one unit; returns the layer's output sequence.
fn walk_layer(
    p: &mut Probe<'_>,
    network: &Network,
    i: usize,
    lr: &mut LayerReplay<'_>,
    seq: Unit,
    recurrent: bool,
) -> Unit {
    let serial = p.serial;
    match &mut lr.runner {
        Runner::Frame(stepper) => {
            let q = lr.xq.as_ref().expect("frame runners carry a quantizer");
            // A recurrent network's session drops all buffered state at the
            // start of every sequence.
            if recurrent {
                stepper.reset();
            }
            seq.iter()
                .map(|x| {
                    let mut out = Vec::new();
                    stepper.step(p, q, x, &mut out);
                    out
                })
                .collect()
        }
        Runner::Cells(cells) => {
            let (xq, hq) = (
                lr.xq.as_ref().expect("cell runners carry"),
                lr.hq.as_ref().expect("both quantizers"),
            );
            let d = cells[0].cell.cell_dim();
            let mut out = vec![vec![0.0f32; d * cells.len()]; seq.len()];
            let mut h = Vec::new();
            for (c, cr) in cells.iter_mut().enumerate() {
                cr.state.reset(cr.cell);
                let mut fed_back = Vec::with_capacity(seq.len());
                for t in cr.visit_order(seq.len()) {
                    fed_back.push(cr.state.state().h.clone());
                    p.time("reuse.lstm_step_ns", || {
                        cr.state
                            .step_into_packed(&serial, cr.cell, &cr.pack, xq, hq, &seq[t], &mut h)
                            .expect(FITS);
                    });
                    out[t][c * d..(c + 1) * d].copy_from_slice(&h);
                }
                cr.h_inputs.push(fed_back);
            }
            out
        }
        Runner::Plain => {
            // The session runs these through the tensor API at full
            // precision: weighted-but-disabled layers and passive ones
            // (pools, group-max, reshapes).
            let name = if lr.layer.has_weights() {
                DISABLED_SPAN
            } else {
                PASSIVE_SPAN
            };
            p.time(name, || plain_forward(network, i, &seq))
        }
    }
}

/// Walk B for one weighted layer.
fn kernels_under(
    p: &mut Probe<'_>,
    lr: &LayerReplay<'_>,
    recurrent: bool,
    at: &impl Fn(&mut Probe<'_>, usize),
) {
    let serial = p.serial;
    let mut out = Vec::new();
    for (u, unit) in lr.inputs.iter().enumerate().skip(1) {
        at(p, u);
        if lr.layer.is_recurrent() {
            p.time("nn.lstm_forward_ns", || {
                lr.layer.forward_sequence(unit).map(drop)
            })
            .expect(FITS);
        } else {
            unit.iter()
                .for_each(|x| forward_once(p, lr.layer, lr.in_shape, x, &mut out));
        }
    }
    let Some(xq) = lr.xq.as_ref() else { return };
    match &lr.runner {
        Runner::Frame(stepper) => {
            let mut z = Vec::new();
            let mut diff = DiffState::new(xq, &lr.inputs[0][0]);
            for (u, unit) in lr.inputs.iter().enumerate().skip(1) {
                at(p, u);
                for (t, x) in unit.iter().enumerate() {
                    if recurrent && t == 0 {
                        diff = DiffState::new(xq, x);
                        continue;
                    }
                    diff.step(p, xq, x);
                    if let Stepper::Fc(fc, _) = stepper.as_ref() {
                        z.resize(fc.n_out(), 0.0);
                        p.time("tensor.apply_deltas_rows_ns", || {
                            apply_deltas_rows(
                                &serial,
                                fc.weights().as_slice(),
                                fc.n_out(),
                                &diff.changed,
                                &mut z,
                            );
                        });
                    }
                }
            }
        }
        Runner::Cells(cells) => {
            let hq = lr.hq.as_ref().expect("cell runners carry both quantizers");
            for cr in cells {
                let (n_in, d) = (cr.cell.n_in(), cr.cell.cell_dim());
                // The same combined four-gate matrices the reuse state
                // corrects against (its own copies are private).
                let combined_x = combine_gates(n_in, d, |g| cr.cell.w_x(g).as_slice());
                let combined_h = combine_gates(d, d, |g| cr.cell.w_h(g).as_slice());
                let mut pre = vec![0.0f32; GATES * d];
                for (u, unit) in lr.inputs.iter().enumerate().skip(1) {
                    at(p, u);
                    let order = cr.visit_order(unit.len());
                    let fed_back = &cr.h_inputs[u];
                    let mut x_diff = DiffState::new(xq, &unit[order[0]]);
                    let mut h_diff = DiffState::new(hq, &fed_back[0]);
                    for (step, &t) in order.iter().enumerate().skip(1) {
                        x_diff.step(p, xq, &unit[t]);
                        h_diff.step(p, hq, &fed_back[step]);
                        p.time("tensor.apply_deltas_rows_ns", || {
                            apply_deltas_rows(
                                &serial,
                                &combined_x,
                                GATES * d,
                                &x_diff.changed,
                                &mut pre,
                            );
                            apply_deltas_rows(
                                &serial,
                                &combined_h,
                                GATES * d,
                                &h_diff.changed,
                                &mut pre,
                            );
                        });
                    }
                }
            }
        }
        Runner::Plain => {}
    }
}

/// Row-major `[rows, GATES * d]` with column `g * d + u` gate `g`, unit `u`.
fn combine_gates<'w>(rows: usize, d: usize, gate: impl Fn(usize) -> &'w [f32]) -> Vec<f32> {
    let mut all = vec![0.0f32; rows * GATES * d];
    for g in 0..GATES {
        let w = gate(g);
        for i in 0..rows {
            all[i * GATES * d + g * d..][..d].copy_from_slice(&w[i * d..(i + 1) * d]);
        }
    }
    all
}

/// The fp32 forward of one frame-wise weighted layer through `nn` and
/// through the `tensor` kernel under it.
fn forward_once(p: &mut Probe<'_>, layer: &Layer, in_shape: &Shape, x: &[f32], out: &mut Vec<f32>) {
    let input = Tensor::from_vec(in_shape.clone(), x.to_vec()).expect(FITS);
    let serial = p.serial;
    match layer {
        Layer::FullyConnected(fc) => {
            p.time("tensor.fc_packed_forward_ns", || {
                fc_forward_packed_into(&serial, fc.packed(), x, fc.bias().as_slice(), out)
            })
            .expect(FITS);
            if p.timed {
                p.fc_bytes +=
                    (fc.packed().storage_bytes() + 4 * (fc.n_in() + 2 * fc.n_out())) as u64;
            }
            p.time("nn.fc_forward_ns", || {
                layer.forward_linear(&input).map(drop)
            })
            .expect(FITS);
        }
        Layer::Conv2d(c) => {
            p.time("tensor.conv2d_forward_ns", || {
                conv2d_forward(c.spec(), &input, c.weights(), c.bias()).map(drop)
            })
            .expect(FITS);
            p.time("nn.conv_forward_ns", || {
                layer.forward_linear(&input).map(drop)
            })
            .expect(FITS);
        }
        Layer::Conv3d(c) => {
            p.time("tensor.conv3d_forward_ns", || {
                conv3d_forward(c.spec(), &input, c.weights(), c.bias()).map(drop)
            })
            .expect(FITS);
            p.time("nn.conv_forward_ns", || {
                layer.forward_linear(&input).map(drop)
            })
            .expect(FITS);
        }
        _ => {}
    }
}

/// The 64x400x2000 packed-matmul reference: the ceiling the FC and conv
/// kernels are compared against, measured in the same run.
pub fn matmul_reference_gflops() -> f64 {
    let (m, k, n) = (64usize, 400usize, 2000usize);
    let value = |i: usize| ((i * 2_654_435_761) % 1000) as f32 / 1000.0 - 0.5;
    let a: Vec<f32> = (0..m * k).map(value).collect();
    let b: Vec<f32> = (0..k * n).map(value).collect();
    let packed = PackedPanels::pack_slice(&b, k, n);
    let mut c = vec![0.0f32; m * n];
    let serial = ParallelConfig::serial();
    let mut times = Vec::new();
    for _ in 0..15 {
        c.fill(0.0);
        let t = std::time::Instant::now();
        matmul_packed_into(&serial, &a, &packed, m, &mut c);
        times.push(t.elapsed().as_secs_f64());
        std::hint::black_box(&c);
    }
    2.0 * (m * k * n) as f64 / crate::stats::median(&mut times) / 1e9
}
