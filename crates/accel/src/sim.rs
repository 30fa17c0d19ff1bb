//! The trace-driven simulator core.

use reuse_core::{ExecutionTrace, LayerTrace, TraceKind};

use crate::{AcceleratorConfig, EnergyBreakdown, EnergyModel, SimReport};

/// One workload prepared for simulation.
#[derive(Debug, Clone, Copy)]
pub struct SimInput<'a> {
    /// Workload name (used in reports).
    pub name: &'a str,
    /// Per-execution activity traces from the reuse engine.
    pub traces: &'a [ExecutionTrace],
    /// Total model size in bytes (weights + biases at the datapath
    /// precision).
    pub model_bytes: u64,
    /// Executions per input sequence (utterance / video). Weights are loaded
    /// from main memory once per sequence (the accelerator is power-gated
    /// in between, paper Section IV-A), so loading traffic amortizes over
    /// this many executions.
    pub executions_per_sequence: u64,
    /// Whether intermediate layer inputs/outputs spill to main memory
    /// between layers (true for the CNNs, whose feature maps exceed the I/O
    /// buffer and are processed in blocks, paper Section IV-C).
    pub activations_spill: bool,
}

/// Per-execution cost accumulation.
#[derive(Debug, Default, Clone, Copy)]
struct Costs {
    macs: u64,
    quant_ops: u64,
    edram_bytes: u64,
    io_bytes: u64,
    dram_bytes: u64,
    compute_cycles: u64,
    dram_cycles: u64,
    /// Cycles of the critical tile per layer (Section IV-E distribution),
    /// summed over the execution's layers.
    tile_cycles: u64,
}

/// Simulation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Conventional accelerator: every layer executes from scratch.
    Baseline,
    /// Reuse accelerator: incremental layers skip unchanged inputs and pay
    /// the quantize/compare/index overheads.
    Reuse,
}

/// Simulator of the tiled accelerator for a given configuration.
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: AcceleratorConfig,
    energy: EnergyModel,
}

impl Simulator {
    /// Creates a simulator with the default energy model for the
    /// configuration's precision.
    pub fn new(config: AcceleratorConfig) -> Self {
        let energy = EnergyModel::for_precision(config.precision);
        Simulator { config, energy }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Simulates the conventional accelerator (no reuse): every layer runs
    /// from scratch every execution.
    pub fn simulate_baseline(&self, input: &SimInput<'_>) -> SimReport {
        self.simulate(input, Mode::Baseline)
    }

    /// Simulates the reuse accelerator driven by the recorded traces.
    pub fn simulate_reuse(&self, input: &SimInput<'_>) -> SimReport {
        self.simulate(input, Mode::Reuse)
    }

    fn simulate(&self, input: &SimInput<'_>, mode: Mode) -> SimReport {
        let bpv = self.config.bytes_per_value();
        let resident_bytes = input.model_bytes.min(self.config.weights_buffer_bytes);
        let resident_fraction = if input.model_bytes == 0 {
            1.0
        } else {
            resident_bytes as f64 / input.model_bytes as f64
        };
        let lanes = self.config.total_multipliers() as u64;
        let dram_bpc = self.config.dram_bytes_per_cycle();

        let mut total = Costs::default();
        for trace in input.traces {
            let mut exec = Costs::default();
            for layer in &trace.layers {
                let c = self.layer_costs(layer, mode, bpv, resident_fraction, input);
                exec.macs += c.macs;
                exec.quant_ops += c.quant_ops;
                exec.edram_bytes += c.edram_bytes;
                exec.io_bytes += c.io_bytes;
                exec.dram_bytes += c.dram_bytes;
                // Layer latency follows the most-loaded tile (Section IV-E).
                let mut tile_trace = layer.clone();
                if mode == Mode::Baseline || layer.mode != TraceKind::Incremental {
                    tile_trace.macs_performed = layer.macs_total;
                }
                exec.tile_cycles += crate::tiles::distribute(&tile_trace, self.config.tiles)
                    .cycles(self.config.multipliers_per_tile as u64);
            }
            // Per-sequence weight (re)load from main memory, amortized.
            let load_bytes =
                (resident_bytes as f64 / input.executions_per_sequence.max(1) as f64) as u64;
            exec.dram_bytes += load_bytes;

            // Cycle model: compute and DRAM streaming overlap (double
            // buffering); the execution takes the longer of the two. Compute
            // time is bounded below by both the lane throughput (including
            // the quantize/compare ops) and the critical-tile latency.
            exec.compute_cycles =
                ((exec.macs + exec.quant_ops).div_ceil(lanes)).max(exec.tile_cycles);
            exec.dram_cycles = (exec.dram_bytes as f64 / dram_bpc).ceil() as u64;
            total.macs += exec.macs;
            total.quant_ops += exec.quant_ops;
            total.edram_bytes += exec.edram_bytes;
            total.io_bytes += exec.io_bytes;
            total.dram_bytes += exec.dram_bytes;
            total.compute_cycles += exec.compute_cycles.max(exec.dram_cycles);
        }

        let cycles = total.compute_cycles;
        let seconds = cycles as f64 / self.config.frequency_hz;
        let e = &self.energy;
        let s = &e.static_w;
        let energy = EnergyBreakdown {
            weights_buffer: total.edram_bytes as f64 * e.edram_j_per_byte
                + s.weights_buffer * seconds,
            io_buffer: total.io_bytes as f64 * e.sram_j_per_byte + s.io_buffer * seconds,
            compute_engine: total.macs as f64 * (e.mul_j + e.add_j)
                + total.quant_ops as f64 * (e.quant_j + e.compare_j)
                + s.compute_engine * seconds,
            main_memory: total.dram_bytes as f64 * e.dram_j_per_byte,
            other: 0.02 * (total.macs as f64 * (e.mul_j + e.add_j)) + s.other * seconds,
        };
        SimReport {
            name: input.name.to_string(),
            mode: match mode {
                Mode::Baseline => "baseline",
                Mode::Reuse => "reuse",
            },
            executions: input.traces.len() as u64,
            cycles,
            seconds,
            energy,
            macs: total.macs,
            edram_bytes: total.edram_bytes,
            io_bytes: total.io_bytes,
            dram_bytes: total.dram_bytes,
        }
    }

    fn layer_costs(
        &self,
        layer: &LayerTrace,
        mode: Mode,
        bpv: u64,
        resident_fraction: f64,
        input: &SimInput<'_>,
    ) -> Costs {
        let mut c = Costs::default();
        let incremental = mode == Mode::Reuse && layer.mode == TraceKind::Incremental;
        c.macs = if incremental {
            layer.macs_performed
        } else {
            layer.macs_total
        };
        // Weight traffic. The data master fetches one weight per MAC from the
        // on-chip weights buffer (weights are reused across output positions,
        // so even streamed weights are staged there first).
        c.edram_bytes = c.macs * bpv;
        // The share of the model that does not fit on-chip streams from main
        // memory once per execution. An incremental FC layer only needs the
        // weight rows of its changed inputs (each input owns its rows); conv
        // and recurrent weights are shared across positions/timesteps, so a
        // sparse change pattern still touches essentially all of them.
        let non_resident = (layer.n_params as f64 * (1.0 - resident_fraction)) as u64 * bpv;
        let fetch_fraction = if incremental && layer.kind == reuse_nn::LayerKind::Fc {
            layer.n_changed as f64 / layer.n_inputs.max(1) as f64
        } else {
            1.0
        };
        c.dram_bytes = (non_resident as f64 * fetch_fraction) as u64;
        if layer.kind == reuse_nn::LayerKind::Recurrent {
            // Recurrent layers execute back-to-back over the whole sequence
            // before the next layer starts (paper Section IV-D), so their
            // streamed weights arrive once per sequence, not per timestep.
            c.dram_bytes =
                (c.dram_bytes as f64 / input.executions_per_sequence.max(1) as f64) as u64;
        }

        // I/O buffer traffic: the input-stationary dataflow reads each
        // input once (even skipped ones are read to be compared) and
        // read-modify-writes every affected output partial sum (paper
        // Figs. 7-8).
        c.io_bytes = layer.n_inputs * bpv + 2 * c.macs * bpv + layer.n_outputs * bpv;

        if mode == Mode::Reuse && layer.mode != TraceKind::ScratchFp32 {
            // Quantize + compare every input; read its stored index and
            // write back the changed ones (1 byte each).
            c.quant_ops = layer.n_inputs;
            c.io_bytes += layer.n_inputs + layer.n_changed;
        }

        if input.activations_spill {
            // CNN feature maps move between main memory and the I/O buffer
            // in blocks: inputs in, outputs out (paper Fig. 8); with reuse
            // the indices travel too.
            c.dram_bytes += (layer.n_inputs + layer.n_outputs) * bpv;
            if mode == Mode::Reuse && layer.mode != TraceKind::ScratchFp32 {
                c.dram_bytes += layer.n_inputs + layer.n_changed;
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuse_nn::LayerKind;

    fn layer(
        mode: TraceKind,
        n_in: u64,
        n_out: u64,
        macs_total: u64,
        macs_perf: u64,
    ) -> LayerTrace {
        LayerTrace {
            name: "fc1".into(),
            kind: LayerKind::Fc,
            mode,
            n_inputs: n_in,
            n_changed: n_in / 4,
            n_outputs: n_out,
            n_params: n_in * n_out,
            macs_total,
            macs_performed: macs_perf,
        }
    }

    fn traces(n: usize, mode: TraceKind, perf: u64) -> Vec<ExecutionTrace> {
        (0..n)
            .map(|_| ExecutionTrace {
                layers: vec![layer(mode, 400, 2000, 800_000, perf)],
            })
            .collect()
    }

    fn input<'a>(traces: &'a [ExecutionTrace]) -> SimInput<'a> {
        SimInput {
            name: "t",
            traces,
            model_bytes: 4 << 20,
            executions_per_sequence: 100,
            activations_spill: false,
        }
    }

    #[test]
    fn baseline_ignores_reuse_savings() {
        let t = traces(10, TraceKind::Incremental, 200_000);
        let sim = Simulator::new(AcceleratorConfig::paper());
        let b = sim.simulate_baseline(&input(&t));
        // Baseline performs macs_total regardless of the trace's savings.
        assert_eq!(b.macs, 10 * 800_000);
    }

    #[test]
    fn reuse_is_faster_and_cheaper_when_macs_drop() {
        let t = traces(10, TraceKind::Incremental, 200_000);
        let sim = Simulator::new(AcceleratorConfig::paper());
        let inp = input(&t);
        let b = sim.simulate_baseline(&inp);
        let r = sim.simulate_reuse(&inp);
        assert_eq!(r.macs, 10 * 200_000);
        assert!(r.seconds < b.seconds);
        assert!(r.energy_j() < b.energy_j());
        let speedup = r.speedup_over(&b);
        assert!(speedup > 2.0 && speedup < 4.5, "speedup {speedup}");
    }

    #[test]
    fn full_change_reuse_pays_overheads() {
        // If nothing is reused, the reuse accelerator is slightly worse
        // (quantization + index traffic) — the paper's overheads argument.
        let t = traces(10, TraceKind::Incremental, 800_000);
        let sim = Simulator::new(AcceleratorConfig::paper());
        let inp = input(&t);
        let b = sim.simulate_baseline(&inp);
        let r = sim.simulate_reuse(&inp);
        assert!(r.energy_j() >= b.energy_j());
        let penalty = r.energy_j() / b.energy_j();
        assert!(penalty < 1.05, "overhead should be small, got {penalty}");
    }

    #[test]
    fn streaming_weights_go_to_dram() {
        let t = traces(4, TraceKind::Incremental, 200_000);
        let sim = Simulator::new(AcceleratorConfig::paper());
        // Model twice as large as the weights buffer: the non-resident half
        // streams from main memory once per execution, while per-MAC weight
        // fetches still come from the on-chip staging buffer.
        let inp = SimInput {
            model_bytes: 72 << 20,
            ..input(&t)
        };
        let r = sim.simulate_reuse(&inp);
        assert!(r.dram_bytes > 0);
        let on_chip = sim.simulate_reuse(&input(&t));
        assert!(r.dram_bytes > on_chip.dram_bytes);
        assert_eq!(r.edram_bytes, on_chip.edram_bytes);
        // Reuse streams fewer FC weight rows than the baseline (only the
        // rows of changed inputs).
        let base = sim.simulate_baseline(&inp);
        assert!(r.dram_bytes < base.dram_bytes);
    }

    #[test]
    fn activation_spill_adds_dram_traffic() {
        let t = traces(4, TraceKind::Incremental, 200_000);
        let sim = Simulator::new(AcceleratorConfig::paper());
        let spill = SimInput {
            activations_spill: true,
            ..input(&t)
        };
        let r_spill = sim.simulate_reuse(&spill);
        let r_res = sim.simulate_reuse(&input(&t));
        assert!(r_spill.dram_bytes > r_res.dram_bytes);
    }

    #[test]
    fn scratch_fp32_layers_have_no_quant_overhead() {
        let t = traces(2, TraceKind::ScratchFp32, 800_000);
        let sim = Simulator::new(AcceleratorConfig::paper());
        let inp = input(&t);
        let b = sim.simulate_baseline(&inp);
        let r = sim.simulate_reuse(&inp);
        // With all layers fp32-from-scratch the two modes cost the same.
        assert_eq!(b.macs, r.macs);
        assert_eq!(b.io_bytes, r.io_bytes);
        assert!((b.energy_j() - r.energy_j()).abs() / b.energy_j() < 1e-9);
    }

    #[test]
    fn energy_breakdown_dominated_by_weight_memory() {
        // Paper Fig. 11: the eDRAM weights buffer dominates energy.
        let t = traces(20, TraceKind::Incremental, 800_000);
        let sim = Simulator::new(AcceleratorConfig::paper());
        let b = sim.simulate_baseline(&input(&t));
        let frac = b.energy.fraction(crate::Component::WeightsBuffer);
        assert!(frac > 0.4, "eDRAM fraction {frac}");
        assert!(frac > b.energy.fraction(crate::Component::ComputeEngine));
        assert!(frac > b.energy.fraction(crate::Component::IoBuffer));
    }

    #[test]
    fn fixed8_uses_quarter_weight_traffic() {
        let t = traces(4, TraceKind::Incremental, 200_000);
        let f32_sim = Simulator::new(AcceleratorConfig::paper());
        let q8_sim = Simulator::new(AcceleratorConfig::paper_fixed8());
        let b32 = f32_sim.simulate_baseline(&input(&t));
        let b8 = q8_sim.simulate_baseline(&input(&t));
        assert_eq!(b8.edram_bytes * 4, b32.edram_bytes);
        assert!(b8.energy_j() < b32.energy_j());
    }

    #[test]
    fn empty_traces_cost_only_nothing() {
        let sim = Simulator::new(AcceleratorConfig::paper());
        let t: Vec<ExecutionTrace> = Vec::new();
        let r = sim.simulate_reuse(&input(&t));
        assert_eq!(r.cycles, 0);
        assert_eq!(r.energy_j(), 0.0);
    }
}
