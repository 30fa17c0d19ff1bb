//! Regenerates the paper's tables and figures: `repro <artifact>`, one
//! subcommand per row of DESIGN.md's experiment index, `repro all` for the
//! whole report and `repro ablations` for the design-choice studies.
//! `REUSE_SCALE=full|small|tiny` picks the model scale; `repro fig4` also
//! reads `REUSE_EXECUTIONS` (frames of the utterance, default 200). Every
//! run measures afresh; `repro all` measures each workload once and renders
//! all ten artifacts from it.

use std::process::ExitCode;

use reuse_bench::ablations;
use reuse_bench::experiments::{artifact, Measurements, ARTIFACTS};
use reuse_workloads::{Scale, WorkloadKind};

fn print_sections(sections: impl IntoIterator<Item = String>) {
    let sep = "=".repeat(78);
    for section in sections {
        println!("{sep}");
        println!("{section}");
    }
}

fn main() -> ExitCode {
    let scale = Scale::from_env();
    let measurements = Measurements::new(scale);
    let name = std::env::args().nth(1).unwrap_or_default();
    match name.as_str() {
        "all" => print_sections(
            ARTIFACTS
                .iter()
                .filter_map(|name| artifact(name, &measurements, 200)),
        ),
        "ablations" => {
            // Closures, so each study prints as soon as it has run.
            let studies: [&dyn Fn() -> String; 9] = [
                &|| ablations::cluster_sweep(WorkloadKind::Kaldi, scale),
                &|| ablations::cluster_sweep(WorkloadKind::AutoPilot, scale),
                &|| ablations::tile_sweep(WorkloadKind::AutoPilot, scale),
                &|| ablations::calibration_sweep(WorkloadKind::Kaldi, scale),
                &|| ablations::layer_cluster_sweep(WorkloadKind::Kaldi, scale),
                &ablations::block_size_ablation,
                &|| ablations::quantizer_comparison(scale),
                &|| ablations::drift_study(scale),
                &|| ablations::overhead_stress(scale),
            ];
            print_sections(studies.iter().map(|study| study()));
        }
        name => {
            let frames = reuse_bench::env_parse("REUSE_EXECUTIONS").unwrap_or(200);
            let Some(report) = artifact(name, &measurements, frames) else {
                eprintln!("usage: repro <{}|ablations|all>", ARTIFACTS.join("|"));
                return ExitCode::from(2);
            };
            print!("{report}");
        }
    }
    ExitCode::SUCCESS
}
