//! The path that hands a conv state `[out_c, (od,) oh, ow]` linear outputs —
//! the drift watchdog's re-baseline through `ReuseSession::refresh_slot` —
//! on AutoPilot-tiny and C3D-tiny, followed by one corrected frame.
//!
//! Conv states buffer their pre-activations channels-last and transpose at
//! every boundary, and a stream-level self-check cannot see a wrong
//! transposition (incremental and from-scratch runs would share it). So the
//! corrected frame is compared with an oracle that never leaves the
//! layer-boundary layout: per layer, the adopted full-precision baseline
//! plus, per output, one fused `Δ·w` step for every changed input under its
//! receptive field in ascending input order — the additions the engine
//! performs, written as a gather over raw `[out_c, in_c, …]` weights.
//! Bit-identical at every SIMD level.

use std::sync::Arc;

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

/// What a session whose every reuse layer holds the exact baseline of
/// `event` (codes of its full-precision layer input, full-precision linear
/// outputs) must produce for `next`.
fn oracle_after_exact_baseline(
    net: &Network,
    session: &ReuseSession,
    event: &[f32],
    next: &[f32],
) -> Vec<f32> {
    let (mut raw, mut cur) = (event.to_vec(), next.to_vec());
    let (mut raw_out, mut base) = (Vec::new(), Vec::new());
    for (i, (name, layer)) in net.layers().iter().enumerate() {
        let shape = &net.layer_input_shapes()[i];
        net.apply_layer_into(i, &raw, &mut raw_out).unwrap();
        let Some(q) = session.quantizer_for(name) else {
            // Pooling, reshapes and reuse-disabled layers run as the network.
            net.apply_layer_into(i, &cur, &mut base).unwrap();
            std::mem::swap(&mut cur, &mut base);
            std::mem::swap(&mut raw, &mut raw_out);
            continue;
        };
        layer
            .forward_linear_into(shape, &raw, 1, &mut base)
            .unwrap();
        let (old, new) = (q.quantized_values(&raw), q.quantized_values(&cur));
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
        layer.activation().unwrap().apply_in_place(&mut lin);
        cur = lin;
        std::mem::swap(&mut raw, &mut raw_out);
    }
    cur
}

fn assert_matches_oracle(got: &[f32], want: &[f32], what: &str) {
    let mismatch = simd::kernel_mismatch(got, want);
    assert!(mismatch.is_none(), "{what}: {mismatch:?}");
}

#[test]
fn watchdog_rebaseline_then_corrected_frame_matches_the_oracle() {
    for kind in KINDS {
        let w = Workload::build(kind, Scale::Tiny);
        // Checked every third reuse frame against a bound nothing meets.
        let config = w.reuse_config().clone().drift_watchdog(3, 1e-12);
        let mut session = Arc::new(CompiledModel::new(w.network(), &config)).new_session();
        let frames = w.generate_frames(4, 11);
        for frame in &frames {
            session.execute(frame).unwrap();
        }
        assert_eq!(session.watchdog_stats().rebaselines, 1, "{kind:?}");
        let (event, next) = (&frames[3], nudged(&frames[3]));
        let got = session.execute(&next).unwrap();
        assert_eq!(
            session.watchdog_stats().checks,
            1,
            "{kind:?}: unchecked frame"
        );
        let want = oracle_after_exact_baseline(w.network(), &session, event, &next);
        assert_matches_oracle(
            got.as_slice(),
            &want,
            &format!("{kind:?} after re-baseline"),
        );
    }
}
