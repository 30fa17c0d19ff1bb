//! The record of a layer step, and the per-execution activity traces
//! materialised from it.
//!
//! "What did this layer step do" is written once, in one format: a
//! fixed-size `StepRecord` per layer per execution, by the session's one
//! writer. The lifetime sums of [`crate::EngineMetrics`], the recent windows
//! of [`crate::TelemetrySnapshot`] and the traces here are folds over it.
//!
//! The accelerator simulator in `reuse-accel` is *trace-driven*: it wants,
//! for every execution and every weighted layer, how many inputs the layer
//! saw, how many changed, and how many multiply-accumulates were performed,
//! and turns those counts into cycles and energy using the Table II hardware
//! parameters. `ReuseSession::take_traces` builds that view from the
//! recorded steps and the model's per-layer constants.

use crate::layer::ExecStats;
use crate::model::CompiledModel;

/// The execution mode a layer ran in for one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Full-precision from-scratch execution (reuse disabled for the layer).
    ScratchFp32,
    /// Quantized from-scratch execution (first execution of a reuse layer).
    ScratchQuantized,
    /// Incremental execution correcting the buffered outputs.
    Incremental,
}

/// One execution of one layer that has a reuse slot: everything the
/// session records about it, `Copy` and fixed-size so writing one never
/// allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StepRecord {
    /// The execution this step belongs to (the session's running count;
    /// timesteps for recurrent networks).
    pub(crate) execution: u64,
    /// Index of the layer in the network.
    pub(crate) layer: u32,
    pub(crate) mode: TraceKind,
    pub(crate) n_inputs: u64,
    pub(crate) n_changed: u64,
    pub(crate) macs_total: u64,
    pub(crate) macs_performed: u64,
    /// Nanoseconds the step took when the session times its slots, else 0.
    pub(crate) span_ns: u64,
}

impl StepRecord {
    /// The record of a stepped slot, from the counters its state returned.
    pub(crate) fn stepped(execution: u64, layer: usize, stats: ExecStats, span_ns: u64) -> Self {
        StepRecord {
            execution,
            layer: layer as u32,
            mode: if stats.from_scratch {
                TraceKind::ScratchQuantized
            } else {
                TraceKind::Incremental
            },
            n_inputs: stats.n_inputs,
            n_changed: stats.n_changed,
            macs_total: stats.macs_total,
            macs_performed: stats.macs_performed,
            span_ns,
        }
    }

    /// The record of a slot's layer run at full precision (calibrating,
    /// reuse-disabled or auto-disabled): every input read, every MAC paid.
    pub(crate) fn full_precision(execution: u64, layer: usize, n_inputs: u64, macs: u64) -> Self {
        StepRecord {
            execution,
            layer: layer as u32,
            mode: TraceKind::ScratchFp32,
            n_inputs,
            n_changed: n_inputs,
            macs_total: macs,
            macs_performed: macs,
            span_ns: 0,
        }
    }

    /// Share of this step's inputs whose quantized code was unchanged.
    pub(crate) fn hit_rate(&self) -> f32 {
        if self.n_inputs == 0 {
            return 0.0;
        }
        (self.n_inputs - self.n_changed) as f32 / self.n_inputs as f32
    }
}

/// Activity of one weighted layer during one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTrace {
    /// Layer name within the network.
    pub name: String,
    /// Coarse layer kind.
    pub kind: reuse_nn::LayerKind,
    /// How the layer executed.
    pub mode: TraceKind,
    /// Scalar inputs read.
    pub n_inputs: u64,
    /// Inputs whose quantized index changed (equals `n_inputs` for
    /// from-scratch executions).
    pub n_changed: u64,
    /// Scalar outputs produced / buffered.
    pub n_outputs: u64,
    /// Weight + bias parameters of the layer (drives per-execution weight
    /// streaming traffic for models that do not fit on-chip).
    pub n_params: u64,
    /// Multiply-accumulates a from-scratch execution performs.
    pub macs_total: u64,
    /// Multiply-accumulates actually performed.
    pub macs_performed: u64,
}

/// Activity of one whole DNN execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecutionTrace {
    /// Per-layer records in network order (weighted layers only).
    pub layers: Vec<LayerTrace>,
}

impl ExecutionTrace {
    /// Total MACs performed in this execution.
    pub fn macs_performed(&self) -> u64 {
        self.layers.iter().map(|l| l.macs_performed).sum()
    }

    /// Total MACs a from-scratch execution would perform.
    pub fn macs_total(&self) -> u64 {
        self.layers.iter().map(|l| l.macs_total).sum()
    }
}

/// Groups a session's step log by execution and dresses every record with
/// its layer's constants from `model`. Executions come out in the order they
/// ran and layers in network order within each — a sequence walk logs
/// layer-major, which the stable sort undoes.
pub(crate) fn materialise(mut log: Vec<StepRecord>, model: &CompiledModel) -> Vec<ExecutionTrace> {
    log.sort_by_key(|r| r.execution);
    log.chunk_by(|a, b| a.execution == b.execution)
        .map(|steps| ExecutionTrace {
            layers: steps
                .iter()
                .map(|r| {
                    let slot = &model.slots()[model.slot_of_layer()[r.layer as usize]];
                    LayerTrace {
                        name: slot.name.clone(),
                        kind: slot.kind,
                        mode: r.mode,
                        n_inputs: r.n_inputs,
                        n_changed: r.n_changed,
                        n_outputs: model.layer_out_volumes()[slot.layer_index] as u64,
                        n_params: slot.n_params,
                        macs_total: r.macs_total,
                        macs_performed: r.macs_performed,
                    }
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuse_nn::LayerKind;

    fn trace(mode: TraceKind, performed: u64) -> LayerTrace {
        LayerTrace {
            name: "fc1".into(),
            kind: LayerKind::Fc,
            mode,
            n_inputs: 10,
            n_changed: 4,
            n_outputs: 20,
            n_params: 200,
            macs_total: 200,
            macs_performed: performed,
        }
    }

    #[test]
    fn execution_totals() {
        let e = ExecutionTrace {
            layers: vec![
                trace(TraceKind::Incremental, 80),
                trace(TraceKind::Incremental, 50),
            ],
        };
        assert_eq!(e.macs_performed(), 130);
        assert_eq!(e.macs_total(), 400);
    }
}
