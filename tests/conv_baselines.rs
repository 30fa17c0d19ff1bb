//! The three paths that hand a conv state `[out_c, (od,) oh, ow]` linear
//! outputs — drift-watchdog re-baseline, adaptive-policy refresh and
//! cold-start signature adoption — on AutoPilot-tiny and C3D-tiny, each
//! followed by one corrected frame.
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
use reuse_dnn::reuse::policy::AdaptivePolicy;
use reuse_dnn::tensor::conv::ConvGeometry;
use reuse_dnn::tensor::simd;
use reuse_dnn::workloads::Scale;

const KINDS: [WorkloadKind; 2] = [WorkloadKind::AutoPilot, WorkloadKind::C3d];

/// `frame` with every 997th input pushed a few quantization steps: a small
/// changed set at every layer, far below any refresh threshold and inside
/// the frame's signature.
fn nudged(frame: &[f32]) -> Vec<f32> {
    let mut next = frame.to_vec();
    for v in next.iter_mut().step_by(997) {
        *v = if *v > 0.5 { *v - 0.2 } else { *v + 0.2 };
    }
    next
}

/// A frame unrelated to `frame`: most codes change at every layer.
fn unrelated(frame: &[f32]) -> Vec<f32> {
    frame.iter().rev().map(|v| 1.0 - v).collect()
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
/// outputs) must produce for `next`. Layers named by `refreshed` recompute
/// `next` exactly instead of correcting (the adaptive policy's choice).
fn oracle_after_exact_baseline(
    net: &Network,
    session: &ReuseSession,
    event: &[f32],
    next: &[f32],
    refreshed: &dyn Fn(&str) -> bool,
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
        layer.forward_linear_into(shape, &raw, &mut base).unwrap();
        let (old, new) = (q.quantized_values(&raw), q.quantized_values(&cur));
        let mut lin = match layer {
            _ if refreshed(name) => {
                let mut exact = Vec::new();
                layer.forward_linear_into(shape, &cur, &mut exact).unwrap();
                exact
            }
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
        let want = oracle_after_exact_baseline(w.network(), &session, event, &next, &|_| false);
        assert_matches_oracle(
            got.as_slice(),
            &want,
            &format!("{kind:?} after re-baseline"),
        );
    }
}

#[test]
fn adaptive_refresh_then_corrected_frame_matches_the_oracle() {
    for kind in KINDS {
        let w = Workload::build(kind, Scale::Tiny);
        // The watchdog only arms the controllers; it never checks here.
        let policy = AdaptivePolicy {
            reuse_threshold: 0.3,
            ..AdaptivePolicy::default()
        };
        let config = w
            .reuse_config()
            .clone()
            .reuse_policy(Arc::new(policy))
            .drift_watchdog(1_000_000, 1.0);
        let mut session = Arc::new(CompiledModel::new(w.network(), &config)).new_session();
        let frames = w.generate_frames(3, 12);
        for frame in &frames {
            session.execute(frame).unwrap();
        }
        let refreshes = |s: &ReuseSession| -> Vec<(String, u64)> {
            let states = s.policy_states().into_iter();
            let stepping = states.filter(|p| p.step > 0.0);
            stepping.map(|p| (p.name, p.refreshes)).collect()
        };
        let before = refreshes(&session);
        // Every layer refreshes on the unrelated frame, adopting the exact
        // baseline of its (then exact) input...
        let event = unrelated(&frames[2]);
        session.execute(&event).unwrap();
        let after = refreshes(&session);
        assert!(
            before.iter().zip(&after).all(|(b, a)| a.1 - b.1 == 1),
            "{kind:?}: every layer must refresh on the event frame: {before:?} -> {after:?}"
        );
        // ...and the conv layers correct the next frame from it. (The tiny
        // FC tails amplify any nudge past the threshold; where they refresh
        // again the oracle recomputes too.)
        let next = nudged(&event);
        let got = session.execute(&next).unwrap();
        let again: Vec<String> = refreshes(&session)
            .into_iter()
            .zip(&after)
            .filter(|(now, then)| now.1 > then.1)
            .map(|(now, _)| now.0)
            .collect();
        assert!(
            !again.iter().any(|name| name.starts_with("conv")),
            "{kind:?}: conv layers must correct, not refresh: {again:?}"
        );
        let refreshed = |name: &str| again.iter().any(|n| n == name);
        let want = oracle_after_exact_baseline(w.network(), &session, &event, &next, &refreshed);
        assert_matches_oracle(got.as_slice(), &want, &format!("{kind:?} after refresh"));
    }
}

/// A consumer that adopts a producer's published baselines at every layer
/// holds exactly the producer's state, so its frames from there on are the
/// frames a cache-less twin of the producer computes — bit for bit, at any
/// level. The baselines travel through the cache in the layer-boundary
/// layout, read out of one state and adopted into another.
#[test]
fn signature_adoption_then_corrected_frame_matches_a_cacheless_twin() {
    for kind in KINDS {
        let w = Workload::build(kind, Scale::Tiny);
        let frames = w.generate_frames(2, 13);
        let next = nudged(&frames[1]);
        let shared = Arc::new(CompiledModel::new(
            w.network(),
            &w.reuse_config().clone().signature_cache(true),
        ));
        let mut producer = shared.new_session();
        for frame in &frames {
            producer.execute(frame).unwrap();
        }
        let published = producer.signature_stats().inserts;
        assert!(published > 0, "{kind:?}");

        let mut twin = Arc::new(CompiledModel::new(w.network(), w.reuse_config())).new_session();
        let mut consumer = shared.new_session();
        let bits = |t: &Tensor| {
            t.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u32>>()
        };
        // Calibration, the cold start (adopted by one, from scratch in the
        // other), then a frame both correct.
        for (step, frame) in [&frames[0], &frames[1], &next].into_iter().enumerate() {
            let (got, want) = (
                consumer.execute(frame).unwrap(),
                twin.execute(frame).unwrap(),
            );
            assert_eq!(bits(&got), bits(&want), "{kind:?} step {step}");
        }
        let stats = consumer.signature_stats();
        assert_eq!(
            (stats.adoptions, stats.bailouts),
            (published, 0),
            "{kind:?}: every published layer must be adopted"
        );
    }
}
