//! Multi-tile work distribution (paper Section IV-E).
//!
//! Multiple accelerator tiles share one chip, connected in a ring. Work is
//! distributed per layer family:
//!
//! * **FC layers** — output neurons are split evenly across tiles.
//! * **Convolutional layers** — filters (output feature maps) are split.
//! * **Recurrent layers** — the four LSTM gates are split across tiles.
//!
//! The cycle cost of a layer is then governed by the most-loaded tile, so
//! uneven splits (e.g. 3482 Kaldi senones over 4 tiles, or 4 gates over 8
//! tiles) cost real cycles. [`distribute`] captures that.

use reuse_core::LayerTrace;
use reuse_nn::LayerKind;

/// MAC assignment of one layer execution across tiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileAssignment {
    /// MACs assigned to each tile.
    pub per_tile_macs: Vec<u64>,
}

impl TileAssignment {
    /// Total MACs across tiles.
    pub fn total(&self) -> u64 {
        self.per_tile_macs.iter().sum()
    }

    /// MACs on the most-loaded tile — what the layer's latency follows.
    pub fn critical(&self) -> u64 {
        self.per_tile_macs.iter().copied().max().unwrap_or(0)
    }

    /// Load imbalance: critical-tile MACs over the perfect split (1.0 is
    /// ideal).
    pub fn imbalance(&self) -> f64 {
        let n = self.per_tile_macs.len() as f64;
        let total = self.total() as f64;
        if total == 0.0 {
            return 1.0;
        }
        self.critical() as f64 / (total / n)
    }

    /// Compute cycles on the configured lanes per tile.
    pub fn cycles(&self, lanes_per_tile: u64) -> u64 {
        self.critical().div_ceil(lanes_per_tile.max(1))
    }
}

/// Splits `units` work units across `tiles` as evenly as integer division
/// allows, then scales to MACs-per-unit.
fn split_units(units: u64, tiles: usize, macs_per_unit: f64) -> TileAssignment {
    let tiles = tiles.max(1) as u64;
    let base = units / tiles;
    let extra = units % tiles;
    let per_tile_macs = (0..tiles)
        .map(|t| {
            let u = base + u64::from(t < extra);
            (u as f64 * macs_per_unit).round() as u64
        })
        .collect();
    TileAssignment { per_tile_macs }
}

/// Distributes one layer execution across tiles per the paper's policy.
///
/// The trace's `macs_performed` are divided by the layer's parallel units:
/// output neurons (FC), output feature maps (conv — the trace does not
/// carry the filter count, so output elements stand in as the unit, which
/// splits identically), or the four LSTM gates.
pub fn distribute(trace: &LayerTrace, tiles: usize) -> TileAssignment {
    match trace.kind {
        LayerKind::Fc | LayerKind::Conv => {
            let units = trace.n_outputs.max(1);
            let macs_per_unit = trace.macs_performed as f64 / units as f64;
            split_units(units, tiles, macs_per_unit)
        }
        LayerKind::Recurrent => {
            // Four gates; each tile takes whole gates (paper IV-E). With
            // more tiles than gates, surplus tiles idle for this layer.
            let gates = 4u64;
            let macs_per_gate = trace.macs_performed as f64 / gates as f64;
            let tiles_used = tiles.max(1);
            let mut per_tile = vec![0u64; tiles_used];
            for g in 0..gates {
                per_tile[(g as usize) % tiles_used] += macs_per_gate.round() as u64;
            }
            TileAssignment {
                per_tile_macs: per_tile,
            }
        }
        LayerKind::Pool | LayerKind::Reshape => TileAssignment {
            per_tile_macs: vec![0; tiles.max(1)],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuse_core::TraceKind;

    fn fc_trace(n_out: u64, macs: u64) -> LayerTrace {
        LayerTrace {
            name: "fc".into(),
            kind: LayerKind::Fc,
            mode: TraceKind::Incremental,
            n_inputs: 100,
            n_changed: 10,
            n_outputs: n_out,
            n_params: 100 * n_out,
            macs_total: macs * 4,
            macs_performed: macs,
        }
    }

    #[test]
    fn even_split_is_balanced() {
        let a = distribute(&fc_trace(2000, 800_000), 4);
        assert_eq!(a.per_tile_macs.len(), 4);
        assert_eq!(a.total(), 800_000);
        assert!((a.imbalance() - 1.0).abs() < 1e-9);
        assert_eq!(a.cycles(32), 200_000 / 32);
    }

    #[test]
    fn uneven_neuron_counts_cost_the_remainder() {
        // 3482 senones over 4 tiles: 871/871/870/870.
        let a = distribute(&fc_trace(3482, 3482 * 400), 4);
        assert_eq!(a.critical(), 871 * 400);
        assert!(a.imbalance() > 1.0);
        assert!(a.imbalance() < 1.001);
    }

    #[test]
    fn lstm_gates_map_to_tiles() {
        let trace = LayerTrace {
            name: "bilstm".into(),
            kind: LayerKind::Recurrent,
            mode: TraceKind::Incremental,
            n_inputs: 960,
            n_changed: 100,
            n_outputs: 640,
            n_params: 1_228_800,
            macs_total: 1_228_800,
            macs_performed: 400_000,
        };
        // 4 tiles: one gate each, perfect balance.
        let a4 = distribute(&trace, 4);
        assert!((a4.imbalance() - 1.0).abs() < 1e-9);
        // 8 tiles: four idle -> imbalance 2x.
        let a8 = distribute(&trace, 8);
        assert!((a8.imbalance() - 2.0).abs() < 1e-9);
        // 2 tiles: two gates each.
        let a2 = distribute(&trace, 2);
        assert!((a2.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn passive_layers_cost_nothing() {
        let trace = LayerTrace {
            name: "pool".into(),
            kind: LayerKind::Pool,
            mode: TraceKind::ScratchFp32,
            n_inputs: 100,
            n_changed: 100,
            n_outputs: 25,
            n_params: 0,
            macs_total: 0,
            macs_performed: 0,
        };
        let a = distribute(&trace, 4);
        assert_eq!(a.critical(), 0);
        assert_eq!(a.cycles(32), 0);
    }

    #[test]
    fn single_tile_takes_everything() {
        let a = distribute(&fc_trace(100, 10_000), 1);
        assert_eq!(a.per_tile_macs, vec![10_000]);
    }
}
