//! The path that hands a conv state `[out_c, (od,) oh, ow]` linear outputs —
//! the first execution of the reuse phase, which buffers the linear forward
//! on the frame's quantized centroids — on AutoPilot-tiny and C3D-tiny,
//! followed by one corrected frame.
//!
//! Conv states buffer their pre-activations channels-last and transpose at
//! every boundary, and a stream-level self-check cannot see a wrong
//! transposition (incremental and from-scratch runs would share it). So the
//! corrected frame is compared with an oracle that never leaves the
//! layer-boundary layout: per layer, the first execution's baseline plus,
//! per output, one fused `Δ·w` step for every changed input under its
//! receptive field in ascending input order — the additions the engine
//! performs, written as a gather over raw `[out_c, in_c, …]` weights.
//! Bit-identical at every SIMD level.

use reuse_dnn::nn::{Layer, Network};
use reuse_dnn::prelude::*;
use reuse_dnn::tensor::conv::ConvGeometry;
use reuse_dnn::tensor::simd;
use reuse_dnn::workloads::Scale;

const KINDS: [WorkloadKind; 2] = [WorkloadKind::AutoPilot, WorkloadKind::C3d];

/// `frame` with every 997th input pushed a few quantization steps: a small
/// changed set at every layer.
fn nudged(frame: &[f32]) -> Vec<f32> {
    let mut next = frame.to_vec();
    for v in next.iter_mut().step_by(997) {
        *v = if *v > 0.5 { *v - 0.2 } else { *v + 0.2 };
    }
    next
}

fn dhw_of(shape: &Shape) -> [usize; 3] {
    let dims = shape.dims();
    let mut dhw = [1; 3];
    dhw[4 - dims.len()..].copy_from_slice(&dims[1..]);
    dhw
}

/// `base` (`[out_c, od, oh, ow]`) corrected for the inputs whose quantized
/// value moved from `old` to `new`, as a gather per output element.
fn corrected_conv(
    g: &ConvGeometry,
    dhw: [usize; 3],
    weights: &[f32],
    base: &[f32],
    old: &[f32],
    new: &[f32],
) -> Vec<f32> {
    let [d, h, w] = dhw;
    let [od, oh, ow] = g.output_dhw(dhw).unwrap();
    let [kd, kh, kw] = g.kernel();
    let [pd, ph, pw] = g.pad();
    let s = g.stride();
    let mut out = base.to_vec();
    for (f, map) in out.chunks_mut(od * oh * ow).enumerate() {
        for (p, acc) in map.iter_mut().enumerate() {
            let (oz, oy, ox) = (p / (oh * ow), p / ow % oh, p % ow);
            for ic in 0..g.in_channels() {
                for kz in 0..kd {
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let at = |o: usize, k: usize, pad: usize, n: usize| {
                                (o * s + k).checked_sub(pad).filter(|&i| i < n)
                            };
                            let (Some(iz), Some(iy), Some(ix)) =
                                (at(oz, kz, pd, d), at(oy, ky, ph, h), at(ox, kx, pw, w))
                            else {
                                continue;
                            };
                            let i = ((ic * d + iz) * h + iy) * w + ix;
                            if new[i] != old[i] {
                                let tap = ((ic * kd + kz) * kh + ky) * kw + kx;
                                let delta = new[i] - old[i];
                                *acc = delta.mul_add(weights[f * g.taps() + tap], *acc);
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// What a session must produce for `event`, its first reuse-phase frame,
/// and then for `next`. On `event` every reuse layer runs from scratch: its
/// baseline is the layer-boundary linear forward on the quantized centroids
/// of its input. On `next` that baseline is corrected for every input whose
/// centroid moved.
fn oracle_from_first_execution(
    net: &Network,
    session: &ReuseSession,
    event: &[f32],
    next: &[f32],
) -> (Vec<f32>, Vec<f32>) {
    let (mut raw, mut cur) = (event.to_vec(), next.to_vec());
    let mut base = Vec::new();
    for (i, (name, layer)) in net.layers().iter().enumerate() {
        let shape = &net.layer_input_shapes()[i];
        let Some(q) = session.quantizer_for(name) else {
            // Pooling, reshapes and reuse-disabled layers run as the network.
            net.apply_layer_into(i, &raw, &mut base).unwrap();
            std::mem::swap(&mut raw, &mut base);
            net.apply_layer_into(i, &cur, &mut base).unwrap();
            std::mem::swap(&mut cur, &mut base);
            continue;
        };
        let (old, new) = (q.quantized_values(&raw), q.quantized_values(&cur));
        layer
            .forward_linear_into(shape, &old, 1, &mut base)
            .unwrap();
        let mut lin = match layer {
            Layer::Conv2d(c) => {
                let w = c.weights().as_slice();
                corrected_conv(c.geometry(), dhw_of(shape), w, &base, &old, &new)
            }
            Layer::Conv3d(c) => {
                let w = c.weights().as_slice();
                corrected_conv(c.geometry(), dhw_of(shape), w, &base, &old, &new)
            }
            Layer::FullyConnected(fc) => {
                let mut z = base.clone();
                let w = fc.weights().as_slice();
                for i in (0..old.len()).filter(|&i| new[i] != old[i]) {
                    for (zj, wij) in z.iter_mut().zip(&w[i * fc.n_out()..]) {
                        *zj = (new[i] - old[i]).mul_add(*wij, *zj);
                    }
                }
                z
            }
            _ => unreachable!("only conv and fc layers carry a quantizer here"),
        };
        let act = layer.activation().unwrap();
        act.apply_in_place(&mut base);
        act.apply_in_place(&mut lin);
        std::mem::swap(&mut raw, &mut base);
        cur = lin;
    }
    (raw, cur)
}

fn assert_matches_oracle(got: &[f32], want: &[f32], what: &str) {
    let mismatch = simd::kernel_mismatch(got, want);
    assert!(mismatch.is_none(), "{what}: {mismatch:?}");
}

#[test]
fn first_execution_then_corrected_frame_matches_the_oracle() {
    for kind in KINDS {
        let w = Workload::build(kind, Scale::Tiny);
        let mut session = ReuseSession::from_network(w.network(), w.reuse_config());
        // The calibration frames, then the event frame: the first execution
        // of the reuse phase.
        let frames = w.generate_frames(w.reuse_config().calibration() + 1, 11);
        let (event, calibration) = frames.split_last().unwrap();
        for frame in calibration {
            session.execute(frame).unwrap();
        }
        let event_out = session.execute(event).unwrap();
        assert!(session.is_calibrated(), "{kind:?}");
        let next = nudged(event);
        let got = session.execute(&next).unwrap();
        let (want_event, want) = oracle_from_first_execution(w.network(), &session, event, &next);
        assert_matches_oracle(
            event_out.as_slice(),
            &want_event,
            &format!("{kind:?} first execution"),
        );
        assert_matches_oracle(got.as_slice(), &want, &format!("{kind:?} corrected frame"));
    }
}
