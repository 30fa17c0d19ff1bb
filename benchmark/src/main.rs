//! The repository benchmark: wall-clock reuse-on against reuse-off for each
//! Table I workload, the serving tiers over the same session, and a traced
//! run that times every layer from outside. See `README.md`.

mod affinity;
mod json;
mod layers;
mod report;
mod serving;
mod spec;
mod stats;
mod stream;
mod trace;

use std::process::ExitCode;

use report::{Args, Report};
use spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "usage: reuse-benchmark [--workload <name>] [--seed <n>] [--seconds <n>] [--trace <0|1>] [--check] [--quick]";

struct Cli {
    args: Args,
    workload: Option<String>,
    check: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        args: Args {
            seed: 42,
            seconds: 10.0,
            trace: false,
            quick: false,
        },
        workload: None,
        check: false,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                cli.args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--check" => cli.check = true,
            "--quick" => cli.args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(cli.args.seconds > 0.0 && cli.args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if cli.args.quick && !seconds_given {
        cli.args.seconds = 1.0;
    }
    if let Some(name) = &cli.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(cli)
}

fn run_workload(name: &str, args: &Args) -> Report {
    match (stream::spec(name, args.quick), name, args.trace) {
        (Some(spec), _, false) => stream::run(&spec, args),
        (Some(spec), _, true) => stream::run_traced(&spec, args),
        (None, "serve_open_loop", false) => serving::run_serve(args),
        (None, "serve_open_loop", true) => serving::run_serve_traced(args),
        (None, _, false) => serving::run_net(args),
        (None, _, true) => serving::run_net_traced(args),
    }
}

fn metric_specs(args: &Args) -> &'static [MetricSpec] {
    if args.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn print_header(args: &Args) {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "reuse-benchmark: nproc {threads}, simd active {} detected {}, seed {}, seconds {}, trace {}, segments {}{}",
        reuse_tensor::simd::level().name(),
        reuse_tensor::simd::detected().name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.segments(),
        if args.quick { ", QUICK (tiny scale: not comparable with a full run)" } else { "" },
    );
    println!(
        "constants: rate_lo {} frames/s, rate_hi {} frames/s, limit {} us, poll {} us, {} streams x {} in flight, net {} connections x {} streams, eesen sequence {} steps, kernels serial",
        spec::RATE_LO,
        spec::RATE_HI,
        spec::LIMIT_US,
        spec::POLL_US,
        spec::SERVE_STREAMS,
        spec::SERVE_IN_FLIGHT,
        spec::NET_CONNECTIONS,
        spec::NET_STREAMS_PER_CONNECTION,
        spec::EESEN_SEQ_LEN,
    );
}

/// Bounds of the gated metrics, from `BENCHMARK.json` in the working
/// directory (the repository root).
fn load_bounds() -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text)?;
    doc.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?
        .as_array()
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(json::Value::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(json::Value::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// `--check`: two sets of three runs each of the same code; every gated
/// metric's two medians must agree within its bound.
fn check(workloads: &[&'static str], args: &Args) -> Result<bool, String> {
    const RUNS: u64 = 3;
    let bounds = load_bounds()?;
    let mut agree = true;
    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>9} {:>7} {:>8}",
        "workload", "metric", "set A", "set B", "diff", "bound", "spread"
    );
    for name in workloads {
        let mut sets = [Vec::new(), Vec::new()];
        for run in 0..2 * RUNS {
            let run_args = Args {
                seed: args.seed + run / 2,
                ..*args
            };
            let report = run_workload(name, &run_args);
            if !report.correct {
                return Err(format!("{name}: outputs failed verification"));
            }
            sets[(run % 2) as usize].push(report);
        }
        for (metric, _, better) in END_TO_END {
            let med = |set: &[Report]| {
                stats::median(&mut set.iter().map(|r| r.get(metric)).collect::<Vec<_>>())
            };
            let (a, b) = (med(&sets[0]), med(&sets[1]));
            let worse = if better == "lower" {
                (b - a) / a
            } else {
                (a - b) / a
            };
            let bound = bounds
                .iter()
                .find(|(n, _)| n == metric)
                .map_or(0.0, |(_, b)| *b);
            let ok = worse.abs() <= bound;
            agree &= ok;
            // Inter-quartile spread of all six runs as a share of their median.
            let all: Vec<f64> = sets.iter().flatten().map(|r| r.get(metric)).collect();
            let (q1, mid, q3) = stats::quartiles(&all);
            println!(
                "{name:<18} {metric:<24} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.1}% {:>7.2}%{}",
                worse * 100.0,
                bound * 100.0,
                (q3 - q1) / mid * 100.0,
                if ok { "" } else { "  DISAGREE" }
            );
        }
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&'static str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| cli.workload.as_deref().is_none_or(|w| w == *n))
        .collect();
    print_header(&cli.args);
    if cli.check {
        return match check(
            &names,
            &Args {
                trace: false,
                ..cli.args
            },
        ) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let specs = metric_specs(&cli.args);
    let mut all_correct = true;
    let mut lines = Vec::new();
    for name in names {
        let report = run_workload(name, &cli.args);
        report.print_table(specs);
        all_correct &= report.correct;
        lines.push(report.json_line(specs));
    }
    // The machine-readable results come last, one line per workload.
    for line in lines {
        println!("{line}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
