//! What one workload run produces, and how it is printed.

use std::collections::BTreeMap;

use crate::spec::MetricSpec;

/// Command-line settings shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny scale, one segment: exercises every code path for smoke use;
    /// its numbers are not comparable with a full run.
    pub quick: bool,
}

impl Args {
    pub fn segments(&self) -> usize {
        if self.quick {
            1
        } else {
            crate::spec::SEGMENTS
        }
    }
}

/// Operations attempted and failed in one phase (errors, refused or expired
/// submits, wire statuses other than Ok, verification mismatches).
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn plus(self, other: Tally) -> Tally {
        Tally {
            attempted: self.attempted + other.attempted,
            failed: self.failed + other.failed,
        }
    }
}

#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-phase tallies in run order.
    pub phases: Vec<(&'static str, Tally)>,
    /// False when an output failed verification.
    pub correct: bool,
    /// Checksum over the verified outputs, for diffing two runs at one
    /// seed and SIMD level.
    pub checksum: u64,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Self {
        Report {
            workload,
            correct: true,
            ..Report::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    pub fn phase(&mut self, name: &'static str, tally: Tally) {
        self.phases.push((name, tally));
    }

    pub fn attempted(&self) -> u64 {
        self.phases
            .iter()
            .map(|(_, t)| t.attempted)
            .sum::<u64>()
            .max(1)
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|(_, t)| t.failed).sum()
    }

    /// The human-readable block: every metric of `specs` by name with its
    /// unit, then the per-phase counts.
    pub fn print_table(&self, specs: &[MetricSpec]) {
        let why = crate::spec::WORKLOADS
            .iter()
            .find(|w| w.name == self.workload)
            .map_or("", |w| w.why);
        println!("workload {}: {why}", self.workload);
        for (name, unit, _) in specs {
            println!("  {name:<36} {:>18.6} {unit}", self.get(name));
        }
        for (phase, t) in &self.phases {
            println!(
                "  phase {phase:<24} attempted {:>8}  ok {:>8}  failed {:>4}",
                t.attempted,
                t.attempted - t.failed,
                t.failed
            );
        }
        println!(
            "  output checksum {:016x}  correct {}",
            self.checksum, self.correct
        );
        for note in &self.notes {
            println!("  note: {note}");
        }
    }

    /// The machine-readable result line of the benchmark contract.
    pub fn json_line(&self, specs: &[MetricSpec]) -> String {
        let metrics: Vec<String> = specs
            .iter()
            .map(|(name, unit, _)| {
                let v = self.get(name);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        )
    }
}
