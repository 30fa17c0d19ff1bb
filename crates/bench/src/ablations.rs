//! Ablation studies of the design choices DESIGN.md calls out.
//!
//! * [`cluster_sweep`] — the paper's Section III analysis: similarity vs
//!   accuracy across 8/12/16/32 quantization clusters.
//! * [`tile_sweep`] — sensitivity of the reuse speedup to tile count
//!   (Section IV-E's multi-tile organization).
//! * [`calibration_sweep`] — how many profiling executions the quantizer
//!   ranges need before similarity stabilizes.
//! * [`layer_cluster_sweep`] — the same sweep per layer, every weighted
//!   layer quantized, measured by sessions.
//! * [`block_size_ablation`] — the Fig. 8 CNN staging tradeoff behind the
//!   paper's 16×16×1 block choice.
//! * [`quantizer_comparison`] — linear vs k-means input quantization.
//! * [`drift_study`] — numerical drift of the repeatedly-corrected
//!   buffered outputs over one sequence.
//! * [`overhead_stress`] — the paper's "small overheads" claim: what the
//!   reuse accelerator costs when there is *no* similarity to exploit.

use reuse_accel::{AcceleratorConfig, Simulator};
use reuse_nn::Network;
use reuse_workloads::{Scale, Workload, WorkloadKind};

use crate::experiments::SEED;
use crate::measure::{executions_from_env, measure_with_config, measure_workload};
use crate::table::{pct, pct2};

/// Section III cluster sweep: for one workload, measure similarity, reuse
/// and the accuracy proxy at several cluster counts.
pub fn cluster_sweep(kind: WorkloadKind, scale: Scale) -> String {
    let executions = executions_from_env(kind, scale);
    let mut out = String::new();
    out.push_str(&format!(
        "ABLATION — quantization clusters, {} (scale: {scale})\n\
         paper Section III: fewer clusters => more similarity but more error;\n\
         16 suits Kaldi/EESEN, 32 suits the CNNs\n\n",
        kind.name()
    ));
    out.push_str(&format!(
        "{:>9} {:>12} {:>12} {:>12} {:>10}\n",
        "clusters", "similarity", "comp.reuse", "agreement", "rel.err"
    ));
    let base_config = Workload::build(kind, scale).reuse_config().clone();
    for clusters in [8usize, 12, 16, 32, 64] {
        let config = base_config.clone().with_default_clusters(clusters);
        let m = measure_with_config(kind, scale, executions, SEED, Some(config));
        out.push_str(&format!(
            "{:>9} {:>12} {:>12} {:>12} {:>10}\n",
            clusters,
            pct(m.overall_similarity),
            pct(m.overall_reuse),
            pct2(m.agreement.ratio()),
            pct2(m.mean_relative_error),
        ));
    }
    out
}

/// Tile-count sweep: reuse speedup with 1/2/4/8 tiles.
pub fn tile_sweep(kind: WorkloadKind, scale: Scale) -> String {
    let m = measure_workload(kind, scale, executions_from_env(kind, scale), SEED);
    let (total, performed) = m.traces.iter().fold((0u64, 0u64), |(t, p), tr| {
        (t + tr.macs_total(), p + tr.macs_performed())
    });
    let reuse_rate = if total == 0 {
        0.0
    } else {
        1.0 - performed as f64 / total as f64
    };
    let mut out = String::new();
    out.push_str(&format!(
        "ABLATION — tile count, {} (scale: {scale})\n\
         more tiles shorten both baseline and reuse runs; the *speedup* of the\n\
         reuse scheme is organization-independent until memory binds\n\
         workload reuse rate (MACs avoided in the measured traces): {}\n\n",
        kind.name(),
        pct(reuse_rate),
    ));
    out.push_str(&format!(
        "{:>8} {:>7} {:>14} {:>14} {:>9}\n",
        "point", "lanes", "baseline", "reuse", "speedup"
    ));
    let input = m.sim_input();
    for tiles in [1usize, 2, 4, 8] {
        let sim = Simulator::new(AcceleratorConfig {
            tiles,
            ..AcceleratorConfig::paper()
        });
        let (baseline, reuse) = (sim.simulate_baseline(&input), sim.simulate_reuse(&input));
        out.push_str(&format!(
            "{:>8} {:>7} {:>14} {:>14} {:>8.2}x\n",
            format!("{tiles} tiles"),
            tiles * 32,
            crate::table::human_seconds(baseline.seconds),
            crate::table::human_seconds(reuse.seconds),
            reuse.speedup_over(&baseline),
        ));
    }
    out
}

/// Calibration-length sweep: similarity as a function of how many
/// executions profile the input ranges.
pub fn calibration_sweep(kind: WorkloadKind, scale: Scale) -> String {
    let executions = executions_from_env(kind, scale);
    let base_config = Workload::build(kind, scale).reuse_config().clone();
    let mut out = String::new();
    out.push_str(&format!(
        "ABLATION — calibration executions, {} (scale: {scale})\n\
         ranges profiled from more data widen slightly and stabilize the\n\
         quantizer; the paper profiles the whole training set offline\n\n",
        kind.name()
    ));
    out.push_str(&format!(
        "{:>12} {:>12} {:>12} {:>10}\n",
        "calibration", "similarity", "comp.reuse", "rel.err"
    ));
    for calib in [1usize, 4, 16] {
        let config = base_config.clone().calibration_executions(calib);
        let m = measure_with_config(kind, scale, executions, SEED, Some(config));
        out.push_str(&format!(
            "{:>12} {:>12} {:>12} {:>10}\n",
            calib,
            pct(m.overall_similarity),
            pct(m.overall_reuse),
            pct2(m.mean_relative_error),
        ));
    }
    out
}

/// Per-layer cluster sweep (paper Section III's per-layer analysis): every
/// weighted layer quantized with the same cluster count, each count measured
/// by a session over the same frames.
pub fn layer_cluster_sweep(kind: WorkloadKind, scale: Scale) -> String {
    let executions = executions_from_env(kind, scale);
    let clusters = [8usize, 16, 32, 64];
    let runs: Vec<_> = clusters
        .iter()
        .map(|&c| {
            let config = reuse_core::ReuseConfig::uniform(c);
            measure_with_config(kind, scale, executions, SEED, Some(config))
        })
        .collect();
    let mut out = String::new();
    out.push_str(&format!(
        "ABLATION — per-layer similarity vs clusters, every weighted layer quantized, {} (scale: {scale})\n\n\
         {:<12}",
        kind.name(),
        "layer"
    ));
    for c in clusters {
        out.push_str(&format!(" {c:>7}"));
    }
    out.push('\n');
    for (i, layer) in runs[0].layers.iter().enumerate() {
        out.push_str(&format!("{:<12}", layer.name));
        for run in &runs {
            out.push_str(&format!(
                " {:>6.1}%",
                run.layers[i].input_similarity * 100.0
            ));
        }
        out.push('\n');
    }
    out.push_str("\nfewer clusters => more similarity, layer by layer (Section III)\n");
    out
}

/// Block-size sweep for the CNN staging schedule (paper Section V: 16×16×1
/// blocks are "a good trade-off between on-chip storage requirements and
/// memory bandwidth usage").
pub fn block_size_ablation() -> String {
    use reuse_accel::blocking::{block_size_sweep, BlockedConv};
    // The largest C3D staging case: CONV2, 64 -> 128 maps at 16x56x56.
    let layer = BlockedConv {
        in_channels: 64,
        out_channels: 128,
        h: 56,
        w: 56,
        k: 3,
        block: 16,
    };
    let mut out = String::new();
    out.push_str(
        "ABLATION — CNN block size (C3D CONV2 geometry, paper Section V)\n\
         smaller blocks need less I/O buffer but re-transfer halo pixels;\n\
         the paper picks 16x16x1\n\n",
    );
    out.push_str(&format!(
        "{:>7} {:>16} {:>18}\n",
        "block", "staging (I/O+idx)", "DRAM per exec"
    ));
    for (block, staging, dram) in block_size_sweep(&layer, &[4, 8, 16, 32, 56]) {
        out.push_str(&format!(
            "{:>7} {:>16} {:>18}\n",
            format!("{block}x{block}"),
            crate::table::human_bytes(staging),
            crate::table::human_bytes(dram),
        ));
    }
    out
}

/// Kaldi FC3's fp32 input stream: each frame walked through the layers
/// ahead of FC3 by [`Network::apply_layer_into`].
fn fc3_inputs(network: &Network, frames: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let fc3 = network
        .layers()
        .iter()
        .position(|(name, _)| name == "fc3")
        .expect("kaldi has an fc3");
    let mut next = Vec::new();
    frames
        .iter()
        .map(|frame| {
            let mut cur = frame.clone();
            for i in 0..fc3 {
                network
                    .apply_layer_into(i, &cur, &mut next)
                    .expect("kaldi frames are valid");
                std::mem::swap(&mut cur, &mut next);
            }
            cur
        })
        .collect()
}

/// Linear vs k-means input quantization (the design choice of Section III:
/// the paper uses *uniformly distributed linear* quantization; clustered
/// centroids fit the data better but need a trained codebook and a
/// nearest-centroid search in hardware).
pub fn quantizer_comparison(scale: Scale) -> String {
    use reuse_quant::kmeans::KMeansQuantizer;
    use reuse_quant::{LinearQuantizer, RangeProfiler};

    // Calibrate both quantizers on the inputs of Kaldi's FC3 layer.
    let workload = Workload::build(WorkloadKind::Kaldi, scale);
    let frames = workload.generate_frames(40, SEED);
    // The fp32 network's FC3 inputs, every frame's in one sample set.
    let samples = fc3_inputs(workload.network(), &frames).concat();
    let mut out = String::new();
    out.push_str(&format!(
        "ABLATION — linear vs k-means input quantization (Kaldi FC3 inputs, scale: {scale})\n\n\
         {:>9} {:>14} {:>14} {:>8}\n",
        "clusters", "linear MSE", "k-means MSE", "ratio"
    ));
    let mut profiler = RangeProfiler::new();
    profiler.observe_slice(&samples);
    let range = profiler.range(0.0).expect("varied samples");
    for clusters in [8usize, 16, 32] {
        let lin = LinearQuantizer::new(range, clusters).expect("valid range");
        let lin_mse: f64 = samples
            .iter()
            .map(|&v| {
                let d = (lin.quantized_value(v) - v) as f64;
                d * d
            })
            .sum::<f64>()
            / samples.len() as f64;
        let km = KMeansQuantizer::fit(&samples, clusters, 50).expect("varied samples");
        let km_mse = km.mse(&samples);
        out.push_str(&format!(
            "{:>9} {:>14.3e} {:>14.3e} {:>8.2}\n",
            clusters,
            lin_mse,
            km_mse,
            lin_mse / km_mse.max(1e-30),
        ));
    }
    out.push_str(
        "\nk-means fits the activation distribution better at equal cluster count,\n\
         but linear quantization needs no codebook fit and indexes with one\n\
         multiply+round — the hardware tradeoff behind the paper's choice\n",
    );
    out
}

/// Worst-case overheads: feed the engine uncorrelated frames so nothing can
/// be reused, then compare the reuse accelerator against the baseline. The
/// paper argues the overheads (quantize, compare, index traffic) are small
/// enough that even low similarity wins; this shows the floor.
pub fn overhead_stress(scale: Scale) -> String {
    use reuse_core::{ReuseConfig, ReuseSession};
    use reuse_nn::init::Rng64;

    let workload = Workload::build(WorkloadKind::Kaldi, scale);
    let config = ReuseConfig::uniform(1 << 14) // so fine nothing ever matches
        .disable_layer("fc1")
        .disable_layer("fc2")
        .record_trace(true);
    let mut engine = ReuseSession::from_network(workload.network(), &config);
    let mut rng = Rng64::new(99);
    let dim = workload.network().input_shape().volume();
    for _ in 0..24 {
        // Independent random frames: zero temporal correlation.
        let frame: Vec<f32> = (0..dim).map(|_| rng.uniform(1.0)).collect();
        engine.execute(&frame).expect("kaldi frames are valid");
    }
    let similarity = engine.metrics().overall_input_similarity();
    let traces = engine.take_traces();
    let steady = &traces[2..]; // drop calibration + scratch
    let sim = Simulator::new(AcceleratorConfig::paper());
    let input = reuse_accel::SimInput {
        name: "kaldi-uncorrelated",
        traces: steady,
        model_bytes: workload.network().model_bytes(),
        executions_per_sequence: 500,
        activations_spill: false,
    };
    let base = sim.simulate_baseline(&input);
    let reuse = sim.simulate_reuse(&input);
    format!(
        "ABLATION — overhead floor on uncorrelated inputs (Kaldi, scale: {scale})\n\n\
         input similarity          : {}\n\
         reuse/baseline time       : {:.3}\n\
         reuse/baseline energy     : {:.3}\n\n\
         the reuse accelerator approaches parity when nothing matches — the\n\
         quantize/compare/index overheads stay in the low percents (paper\n\
         Section I: \"only a small degree of input similarity is required\")\n",
        pct(similarity),
        reuse.seconds / base.seconds,
        reuse.energy_j() / base.energy_j(),
    )
}

/// Numerical-drift study: the incremental corrections accumulate f32
/// rounding error relative to from-scratch recomputation; the hardware
/// bounds it by resetting state between sequences (paper Section IV-A).
pub fn drift_study(scale: Scale) -> String {
    use reuse_core::drift::measure_fc_drift;
    use reuse_nn::Layer;
    use reuse_quant::{InputRange, LinearQuantizer};

    let workload = Workload::build(WorkloadKind::Kaldi, scale);
    // Drive the first reuse-enabled FC layer (fc3) with its real input
    // stream (from the fp32 network).
    let frames = workload.generate_frames(500, SEED);
    let stream = fc3_inputs(workload.network(), &frames);
    let Some(Layer::FullyConnected(fc3)) = workload
        .network()
        .layers()
        .iter()
        .find(|(n, _)| n == "fc3")
        .map(|(_, l)| l)
    else {
        unreachable!("kaldi has fc3")
    };
    let lo = stream
        .iter()
        .flatten()
        .cloned()
        .fold(f32::INFINITY, f32::min);
    let hi = stream
        .iter()
        .flatten()
        .cloned()
        .fold(f32::NEG_INFINITY, f32::max);
    let q = LinearQuantizer::new(InputRange::new(lo, hi), 16).expect("varied stream");
    let report = measure_fc_drift(fc3, &q, &stream, 50).expect("drift run");
    let mut out = String::new();
    out.push_str(&format!(
        "ABLATION — numerical drift of buffered outputs (Kaldi FC3, scale: {scale})\n\
         incremental corrections vs from-scratch recomputation over one\n\
         500-execution sequence (a ~5 s utterance)\n\n\
         {:>10} {:>14}\n",
        "execution", "max |error|"
    ));
    for (i, err) in report.max_abs_error.iter().enumerate() {
        out.push_str(&format!("{:>10} {:>14.2e}\n", (i + 1) * 50, err));
    }
    out.push_str(&format!(
        "\nfinal relative error: {:.2e} (quantization step: {:.3})\n\
         drift stays orders of magnitude below the quantization error, so the\n\
         per-sequence state reset is sufficient — no mid-sequence refresh needed\n",
        report.final_relative_error,
        q.step(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_floor_is_small() {
        let report = overhead_stress(Scale::Tiny);
        assert!(report.contains("similarity"));
        // Extract the time ratio and check it is close to 1.
        let line = report.lines().find(|l| l.contains("time")).unwrap();
        let ratio: f64 = line.split(':').nth(1).unwrap().trim().parse().unwrap();
        assert!(ratio < 1.10, "overhead ratio {ratio}");
        assert!(ratio > 0.90, "uncorrelated inputs cannot speed up: {ratio}");
    }

    #[test]
    fn fc3_inputs_continue_to_the_network_output() {
        // FC3's inputs are the fp32 chain up to it: running the rest of the
        // layers on them must give the network's own output, bit for bit.
        let workload = Workload::build(WorkloadKind::Kaldi, Scale::Tiny);
        let network = workload.network();
        let frames = workload.generate_frames(3, SEED);
        let fc3 = network
            .layers()
            .iter()
            .position(|(n, _)| n == "fc3")
            .unwrap();
        for (frame, mut cur) in frames.iter().zip(fc3_inputs(network, &frames)) {
            assert_eq!(cur.len(), network.layer_input_shapes()[fc3].volume());
            let mut next = Vec::new();
            for i in fc3..network.layers().len() {
                network.apply_layer_into(i, &cur, &mut next).unwrap();
                std::mem::swap(&mut cur, &mut next);
            }
            assert_eq!(cur, network.forward_flat(frame).unwrap().as_slice());
        }
    }

    #[test]
    fn tile_sweep_reports_all_tile_counts() {
        let t = tile_sweep(WorkloadKind::Kaldi, Scale::Tiny);
        for tiles in ["1", "2", "4", "8"] {
            assert!(t.lines().any(|l| l.trim_start().starts_with(tiles)), "{t}");
        }
    }
}
