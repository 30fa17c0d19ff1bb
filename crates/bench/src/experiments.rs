//! The per-table/figure experiments, as functions returning report text so
//! `repro <name>` and `repro all` render the same text.

use std::cell::OnceCell;

use reuse_accel::{area, memory, AcceleratorConfig, ReferencePlatform, SimReport, Simulator};
use reuse_core::ReuseConfig;
use reuse_workloads::{Scale, Workload, WorkloadKind};

use crate::measure::{executions_from_env, measure_with_config, measure_workload, Measurement};
use crate::table::{bar, human_bytes, human_joules, human_seconds, pct, pct2};

/// The default seed shared by every experiment run.
pub const SEED: u64 = 42;

/// The four DNNs' measurements at one scale, each taken the first time an
/// artifact asks for it and held for the rest of the process: `repro all`
/// runs every workload once, `repro reduced_precision` runs only Kaldi.
#[derive(Debug)]
pub struct Measurements {
    scale: Scale,
    taken: [OnceCell<Measurement>; 4],
}

impl Measurements {
    /// Nothing measured yet.
    pub fn new(scale: Scale) -> Self {
        Measurements {
            scale,
            taken: Default::default(),
        }
    }

    /// The model scale every measurement here is taken at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The measurement of `kind`, run now if no artifact needed it before.
    pub fn get(&self, kind: WorkloadKind) -> &Measurement {
        self.taken[kind as usize].get_or_init(|| {
            let executions = executions_from_env(kind, self.scale);
            eprintln!(
                "[measure] running {} at {} scale ({executions} executions)...",
                kind.name(),
                self.scale
            );
            measure_workload(kind, self.scale, executions, SEED)
        })
    }

    /// All four measurements in the paper's presentation order.
    pub fn all(&self) -> impl Iterator<Item = &Measurement> {
        WorkloadKind::ALL.into_iter().map(|kind| self.get(kind))
    }

    /// How many workload runs this holder has paid for so far.
    pub fn runs(&self) -> usize {
        self.taken.iter().filter(|m| m.get().is_some()).count()
    }
}

/// The artifacts `repro all` prints, in report order.
pub const ARTIFACTS: [&str; 10] = [
    "table1",
    "fig4",
    "fig5",
    "fig9",
    "fig10",
    "fig11",
    "table2",
    "table3",
    "fig12",
    "reduced_precision",
];

/// Renders the artifact called `name` (`None` for an unknown name);
/// `fig4_frames` is the length of Fig. 4's utterance.
pub fn artifact(name: &str, ms: &Measurements, fig4_frames: usize) -> Option<String> {
    Some(match name {
        "table1" => table1(ms),
        "fig4" => fig4(ms.scale(), fig4_frames),
        "fig5" => fig5(ms),
        "fig9" => fig9(ms),
        "fig10" => fig10(ms),
        "fig11" => fig11(ms),
        "table2" => table2(),
        "table3" => table3(ms.scale()),
        "fig12" => fig12(ms),
        "reduced_precision" => reduced_precision(ms),
        _ => return None,
    })
}

/// Simulates baseline and reuse accelerators for one measurement.
pub fn simulate(m: &Measurement) -> (SimReport, SimReport) {
    let sim = Simulator::new(AcceleratorConfig::paper());
    let input = m.sim_input();
    (sim.simulate_baseline(&input), sim.simulate_reuse(&input))
}

fn geo_mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for v in values {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

// ---------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------

/// Table I: per-layer computation reuse plus the accuracy proxy.
pub fn table1(ms: &Measurements) -> String {
    let scale = ms.scale();
    let mut out = String::new();
    out.push_str(&format!(
        "TABLE I — DNNs and per-layer computation reuse (scale: {scale})\n\
         accuracy proxy: output agreement with the fp32 network / mean relative output error\n\n"
    ));
    for m in ms.all() {
        out.push_str(&format!(
            "{} — model {}, {} executions; agreement {} (rel. err {})\n",
            m.kind.name(),
            human_bytes(m.model_bytes),
            m.executions,
            pct2(m.agreement.ratio()),
            pct2(m.mean_relative_error),
        ));
        out.push_str(&format!(
            "  {:<10} {:>10} {:>10} {:>9} {:>12} {:>10}\n",
            "layer", "in dim", "out dim", "enabled", "comp. reuse", "hit rate"
        ));
        for l in &m.layers {
            let (reuse, hit) = if l.enabled {
                (pct(l.computation_reuse), pct(l.input_similarity))
            } else {
                ("-".to_string(), "-".to_string())
            };
            out.push_str(&format!(
                "  {:<10} {:>10} {:>10} {:>9} {:>12} {:>10}\n",
                l.name, l.inputs, l.outputs, l.enabled, reuse, hit
            ));
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------

/// Fig. 4: relative difference between consecutive input vectors of the
/// last two Kaldi FC layers over one synthetic utterance.
pub fn fig4(scale: Scale, executions: usize) -> String {
    let workload = Workload::build(WorkloadKind::Kaldi, scale);
    let config = workload
        .reuse_config()
        .clone()
        .record_relative_difference(true);
    let mut engine = reuse_core::ReuseSession::from_network(workload.network(), &config);
    let frames = workload.generate_frames(executions, SEED);
    for f in &frames {
        engine.execute(f).expect("kaldi frames are valid");
    }
    // The last two FC layers (paper plots FC5 and FC6).
    let mut out = String::new();
    out.push_str(&format!(
        "FIGURE 4 — relative difference of consecutive inputs, Kaldi FC5/FC6\n\
         (Euclidean distance to previous input / previous input magnitude; {executions} frames)\n\n"
    ));
    for layer in ["fc5", "fc6"] {
        let rd = engine.layer_relative_differences(layer).unwrap_or(&[]);
        let mean = if rd.is_empty() {
            0.0
        } else {
            rd.iter().sum::<f32>() / rd.len() as f32
        };
        out.push_str(&format!(
            "{} (mean {:.1}%):\n",
            layer.to_uppercase(),
            mean * 100.0
        ));
        for (t, chunk) in rd.chunks(rd.len().div_ceil(20).max(1)).enumerate() {
            let v = chunk.iter().sum::<f32>() / chunk.len() as f32;
            out.push_str(&format!(
                "  frame {:>4}  {:>5.1}%  |{}\n",
                t * rd.len().div_ceil(20).max(1),
                v * 100.0,
                bar(v as f64, 0.5, 40)
            ));
        }
        out.push('\n');
    }
    out.push_str("paper shape: values fluctuate roughly between 5% and 25%\n");
    out
}

// ---------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------

/// Fig. 5: input similarity and computation reuse per DNN plus the average.
pub fn fig5(ms: &Measurements) -> String {
    let scale = ms.scale();
    let mut out = String::new();
    out.push_str(&format!(
        "FIGURE 5 — input similarity and computation reuse (scale: {scale})\n\n"
    ));
    out.push_str(&format!(
        "{:<12} {:>11} {:>13}\n",
        "DNN", "similarity", "comp. reuse"
    ));
    let mut sims = Vec::new();
    let mut reuses = Vec::new();
    for m in ms.all() {
        out.push_str(&format!(
            "{:<12} {:>11} {:>13}   sim |{}|\n",
            m.kind.name(),
            pct(m.overall_similarity),
            pct(m.overall_reuse),
            bar(m.overall_similarity, 1.0, 30),
        ));
        sims.push(m.overall_similarity);
        reuses.push(m.overall_reuse);
    }
    let avg_sim = sims.iter().sum::<f64>() / sims.len() as f64;
    let avg_reuse = reuses.iter().sum::<f64>() / reuses.len() as f64;
    out.push_str(&format!(
        "{:<12} {:>11} {:>13}\n\npaper: 61% average similarity, 66% average reuse\n",
        "AVERAGE",
        pct(avg_sim),
        pct(avg_reuse)
    ));
    out
}

// ---------------------------------------------------------------------
// Figures 9 & 10
// ---------------------------------------------------------------------

/// Fig. 9: speedup of the reuse accelerator over the baseline accelerator.
pub fn fig9(ms: &Measurements) -> String {
    let scale = ms.scale();
    let mut out = String::new();
    out.push_str(&format!(
        "FIGURE 9 — speedup over the baseline accelerator (scale: {scale})\n\n"
    ));
    let mut speedups = Vec::new();
    for m in ms.all() {
        let (base, reuse) = simulate(m);
        let s = reuse.speedup_over(&base);
        speedups.push(s);
        out.push_str(&format!(
            "{:<12} {:>6.2}x  |{}|  ({} -> {})\n",
            m.kind.name(),
            s,
            bar(s, 6.0, 30),
            human_seconds(base.seconds),
            human_seconds(reuse.seconds),
        ));
    }
    out.push_str(&format!(
        "{:<12} {:>6.2}x (geometric mean)\n\npaper: 1.9x (Kaldi) to 5.2x (AutoPilot), 3.5x average\n",
        "AVERAGE",
        geo_mean(speedups.into_iter())
    ));
    out
}

/// Fig. 10: energy of the reuse accelerator normalized to the baseline.
pub fn fig10(ms: &Measurements) -> String {
    let scale = ms.scale();
    let mut out = String::new();
    out.push_str(&format!(
        "FIGURE 10 — normalized energy (baseline accelerator = 1.0; scale: {scale})\n\n"
    ));
    let mut ratios = Vec::new();
    for m in ms.all() {
        let (base, reuse) = simulate(m);
        let r = reuse.normalized_energy_to(&base);
        ratios.push(r);
        out.push_str(&format!(
            "{:<12} {:>5.2}  |{}|  ({} -> {})\n",
            m.kind.name(),
            r,
            bar(r, 1.0, 30),
            human_joules(base.energy_j()),
            human_joules(reuse.energy_j()),
        ));
    }
    let avg = geo_mean(ratios.into_iter());
    out.push_str(&format!(
        "{:<12} {:>5.2} (geometric mean) => {} energy savings\n\npaper: 63% average savings (C3D 77%, AutoPilot 76%)\n",
        "AVERAGE",
        avg,
        pct(1.0 - avg)
    ));
    // The paper's combined headline: 9.5x energy-delay (2.7x energy x 3.5x
    // delay).
    let mut ed = Vec::new();
    for m in ms.all() {
        let (base, reuse) = simulate(m);
        ed.push(base.energy_delay() / reuse.energy_delay());
    }
    out.push_str(&format!(
        "energy-delay improvement: {:.1}x geometric mean (paper: 9.5x)\n",
        geo_mean(ed.into_iter())
    ));
    out
}

// ---------------------------------------------------------------------
// Figure 11
// ---------------------------------------------------------------------

/// Fig. 11: energy breakdown per hardware component, aggregated over the
/// four DNNs, baseline vs reuse.
pub fn fig11(ms: &Measurements) -> String {
    let scale = ms.scale();
    let mut base_total = reuse_accel::EnergyBreakdown::default();
    let mut reuse_total = reuse_accel::EnergyBreakdown::default();
    for m in ms.all() {
        let (base, reuse) = simulate(m);
        base_total.accumulate(&base.energy);
        reuse_total.accumulate(&reuse.energy);
    }
    let mut out = String::new();
    out.push_str(&format!(
        "FIGURE 11 — energy breakdown by component (all four DNNs; scale: {scale})\n\n"
    ));
    out.push_str(&format!(
        "{:<18} {:>14} {:>8} {:>14} {:>8}\n",
        "component", "baseline", "(share)", "reuse", "(share)"
    ));
    for c in reuse_accel::COMPONENTS {
        out.push_str(&format!(
            "{:<18} {:>14} {:>8} {:>14} {:>8}\n",
            c.label(),
            human_joules(base_total.component(c)),
            pct(base_total.fraction(c)),
            human_joules(reuse_total.component(c)),
            pct(reuse_total.fraction(c)),
        ));
    }
    out.push_str(&format!(
        "{:<18} {:>14} {:>8} {:>14} {:>8}\n\npaper shape: eDRAM dominates both bars; every component shrinks with reuse\n",
        "TOTAL",
        human_joules(base_total.total()),
        "100%",
        human_joules(reuse_total.total()),
        pct(reuse_total.total() / base_total.total()),
    ));
    out
}

// ---------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------

/// Table II: the accelerator configuration.
pub fn table2() -> String {
    let c = AcceleratorConfig::paper();
    let a_base = area::baseline_area(&c);
    let a_reuse = area::reuse_area(&c);
    format!(
        "TABLE II — accelerator parameters\n\n\
         technology              32 nm (energy/area constants, see accel::energy)\n\
         frequency               {:.0} MHz\n\
         tiles                   {}\n\
         32-bit multipliers      {}\n\
         32-bit adders           {}\n\
         weights buffer (eDRAM)  {}\n\
         I/O buffer              {} (baseline) / {} (reuse)\n\
         main memory             LPDDR4, {:.0} GB/s\n\
         die area                {:.1} mm^2 (baseline) / {:.1} mm^2 (reuse, paper: 52 -> 53)\n",
        c.frequency_hz / 1e6,
        c.tiles,
        c.total_multipliers(),
        c.total_adders(),
        human_bytes(c.weights_buffer_bytes),
        human_bytes(c.io_buffer_baseline_bytes),
        human_bytes(c.io_buffer_reuse_bytes),
        c.dram_bandwidth_bytes_per_sec / 1e9,
        a_base.total(),
        a_reuse.total(),
    )
}

// ---------------------------------------------------------------------
// Table III
// ---------------------------------------------------------------------

/// Table III: I/O-buffer and main-memory overheads of the reuse scheme.
pub fn table3(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "TABLE III — memory overheads of the reuse scheme (scale: {scale})\n\n"
    ));
    out.push_str(&format!(
        "{:<12} {:>16} {:>14} {:>18} {:>14}\n",
        "DNN", "I/O base", "I/O reuse", "main mem base", "main mem reuse"
    ));
    for kind in WorkloadKind::ALL {
        let w = Workload::build(kind, scale);
        let config = w.reuse_config();
        let r = memory::storage_report(w.network(), |name| config.layer_enabled(name));
        out.push_str(&format!(
            "{:<12} {:>16} {:>14} {:>18} {:>14}\n",
            kind.name(),
            human_bytes(r.io_baseline_bytes),
            human_bytes(r.io_reuse_bytes),
            human_bytes(r.main_baseline_bytes),
            human_bytes(r.main_reuse_bytes),
        ));
    }
    out.push_str(
        "\npaper (full scale): Kaldi 27->66 KB, C3D 1152->1280 KB, AutoPilot 160->176 KB,\n\
         EESEN 8->13 KB on-chip; main memory grows ~10% for the CNNs only\n",
    );
    out
}

// ---------------------------------------------------------------------
// Figure 12
// ---------------------------------------------------------------------

/// Fig. 12: speedup and energy reduction of GPU and the reuse accelerator,
/// both relative to the CPU.
pub fn fig12(ms: &Measurements) -> String {
    let scale = ms.scale();
    let cpu = ReferencePlatform::cpu_i7_7700k();
    let gpu = ReferencePlatform::gtx_1080();
    let mut out = String::new();
    out.push_str(&format!(
        "FIGURE 12 — comparison with {} (baseline) and {} (scale: {scale})\n\n",
        cpu.name, gpu.name
    ));
    out.push_str(&format!(
        "{:<12} {:>12} {:>12} {:>14} {:>14}\n",
        "DNN", "GPU speedup", "Acc speedup", "GPU energy red.", "Acc energy red."
    ));
    let mut acc_e = Vec::new();
    let mut gpu_e = Vec::new();
    for m in ms.all() {
        let (_, reuse) = simulate(m);
        let cpu_s = cpu.seconds_for(&m.traces);
        let gpu_s = gpu.seconds_for(&m.traces);
        let cpu_j = cpu.energy_for(&m.traces);
        let gpu_j = gpu.energy_for(&m.traces);
        let acc_speed = cpu_s / reuse.seconds;
        let gpu_speed = cpu_s / gpu_s;
        let acc_energy = cpu_j / reuse.energy_j();
        let gpu_energy = cpu_j / gpu_j;
        acc_e.push(acc_energy);
        gpu_e.push(gpu_energy);
        out.push_str(&format!(
            "{:<12} {:>11.2}x {:>11.2}x {:>13.1}x {:>13.1}x\n",
            m.kind.name(),
            gpu_speed,
            acc_speed,
            gpu_energy,
            acc_energy
        ));
    }
    out.push_str(&format!(
        "\naverage energy reduction vs CPU: GPU {:.1}x, Acc+Reuse {:.1}x\n\
         paper: accelerator 213x vs CPU and 115x vs GPU on average;\n\
         GPU wins raw speed only on C3D\n",
        geo_mean(gpu_e.iter().copied()),
        geo_mean(acc_e.iter().copied()),
    ));
    out
}

// ---------------------------------------------------------------------
// Section VI-A
// ---------------------------------------------------------------------

/// Section VI-A: the reduced-precision (8-bit fixed-point) accelerator,
/// evaluated on Kaldi.
pub fn reduced_precision(ms: &Measurements) -> String {
    let scale = ms.scale();
    let kind = WorkloadKind::Kaldi;
    let executions = executions_from_env(kind, scale);
    // "Strict" similarity of the fp32 baseline: quantize with so many
    // clusters that only genuinely identical values collide (ReLU zeros and
    // saturated activations).
    let strict = ReuseConfig::uniform(1 << 20)
        .disable_layer("fc1")
        .disable_layer("fc2");
    let m_fp32 = measure_with_config(kind, scale, executions, SEED, Some(strict));
    // Similarity of the raw 8-bit datapath: 255 value levels.
    let q8 = ReuseConfig::uniform(255)
        .disable_layer("fc1")
        .disable_layer("fc2");
    let m_q8 = measure_with_config(kind, scale, executions, SEED, Some(q8));
    // The reuse scheme itself (16 clusters), simulated on the 8-bit
    // accelerator.
    let m_reuse = ms.get(kind);
    let sim = Simulator::new(AcceleratorConfig::paper_fixed8());
    let input = m_reuse.sim_input();
    let base = sim.simulate_baseline(&input);
    let reuse = sim.simulate_reuse(&input);
    format!(
        "SECTION VI-A — reduced-precision (8-bit fixed-point) accelerator, Kaldi (scale: {scale})\n\n\
         input similarity, fp32 value space (strict equality) : {}\n\
         input similarity, 8-bit value space                  : {}\n\
         computation reuse with 16-cluster quantization       : {}\n\
         speedup on the 8-bit accelerator                     : {:.2}x\n\
         energy savings on the 8-bit accelerator              : {}\n\
         output agreement (accuracy proxy)                    : {}\n\n\
         paper: similarity 45% -> 52%, reuse 58%, 1.8x speedup, 45% energy savings,\n\
         accuracy loss well below 1%\n",
        pct(m_fp32.overall_similarity),
        pct(m_q8.overall_similarity),
        pct(m_reuse.overall_reuse),
        reuse.speedup_over(&base),
        pct(1.0 - reuse.normalized_energy_to(&base)),
        pct2(m_reuse.agreement.ratio()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_table_ii_numbers() {
        let t = table2();
        assert!(t.contains("500 MHz"));
        assert!(t.contains("128"));
        assert!(t.contains("36 MB"));
    }

    #[test]
    fn table3_covers_all_dnns() {
        let t = table3(Scale::Tiny);
        for kind in WorkloadKind::ALL {
            assert!(t.contains(kind.name()), "{t}");
        }
    }

    #[test]
    fn fig4_reports_both_layers() {
        let t = fig4(Scale::Tiny, 30);
        assert!(t.contains("FC5"));
        assert!(t.contains("FC6"));
    }

    #[test]
    fn report_measures_each_workload_once_and_fresh() {
        // The `repro all` path: every artifact off one holder.
        let ms = Measurements::new(Scale::Tiny);
        let first: Vec<String> = ARTIFACTS
            .iter()
            .map(|name| artifact(name, &ms, 30).expect("listed artifacts render"))
            .collect();
        assert_eq!(ms.runs(), 4);
        assert_eq!(artifact("table1", &ms, 30).as_ref(), Some(&first[0]));
        assert_eq!(ms.runs(), 4);
        assert_eq!(artifact("table4", &ms, 30), None);
        // Nothing stands between an artifact and the measurement itself.
        for kind in WorkloadKind::ALL {
            let executions = crate::measure::default_executions(kind, Scale::Tiny);
            let fresh = measure_workload(kind, Scale::Tiny, executions, SEED);
            assert_eq!(ms.get(kind), &fresh, "{kind}");
        }
    }

    #[test]
    fn geo_mean_of_equal_values() {
        assert!((geo_mean([2.0, 2.0, 2.0].into_iter()) - 2.0).abs() < 1e-12);
        assert_eq!(geo_mean(std::iter::empty()), 1.0);
    }
}
