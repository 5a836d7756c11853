//! `algas-perf`: the black-box serving benchmark of this repository.
//!
//! ```text
//! algas-perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke true]
//! algas-perf repeat [--sets 2] [--runs 10] [--seconds S] [--smoke true]
//! ```
//!
//! Run from the root of a checkout. See `README.md` beside this package
//! for the workloads, the metrics and how they interact.

mod child;
mod generator;
mod json;
mod repeat;
mod run;
mod schedule;
mod stats;
mod trace;
mod wire;
mod workload;

use std::collections::HashMap;
use std::process::ExitCode;

/// Window length when `--seconds` is absent; `BENCHMARK.json` passes its own.
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 6.0;

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name =
            flag.strip_prefix("--").ok_or_else(|| format!("expected --flag, got `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn get<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{name}: cannot parse `{v}`")),
    }
}

fn print_metrics(metrics: &[run::Metric]) {
    for m in metrics {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (repeating, rest) = match args.first().map(String::as_str) {
        Some("repeat") => (true, &args[1..]),
        _ => (false, &args[..]),
    };
    let flags = parse_flags(rest)?;
    let cwd = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    let layout = child::Layout::at(cwd)?;
    let smoke = get(&flags, "smoke", false)?;
    let seconds = get(&flags, "seconds", if smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS })?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds}: expected 1 to 60"));
    }
    if repeating {
        return repeat::repeat(
            &layout,
            &repeat::RepeatOptions {
                sets: get(&flags, "sets", 2)?,
                runs: get(&flags, "runs", 10)?,
                seconds,
                smoke,
            },
        );
    }
    let names = || workload::WORKLOADS.map(|w| w.name).join("|");
    let name = flags.get("workload").ok_or_else(|| format!("missing --workload <{}>", names()))?;
    let workload =
        workload::find(name).ok_or_else(|| format!("--workload `{name}`: expected {}", names()))?;
    let traced = match get(&flags, "trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let opts = run::Options { workload, seed: get(&flags, "seed", 1)?, seconds, traced, smoke };
    let report = run::run(&layout, &opts)?;

    println!("stamp {}", report.stamp);
    print_metrics(&report.metrics);
    print_metrics(&report.extras);
    for p in &report.problems {
        eprintln!("INCORRECT: {p}");
    }
    // The contract's last line: one JSON object.
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(m.name),
                m.value,
                json::quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    Ok(report.correct)
}

fn main() -> ExitCode {
    // Returning (not `process::exit`) lets every guard drop: the serving
    // child is killed and the scratch directory removed on all paths.
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("algas-perf: {e}");
            ExitCode::FAILURE
        }
    }
}
