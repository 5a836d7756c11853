//! `repeat`: the repeatability check the bounds in `BENCHMARK.json` are
//! set from. Runs every workload `--runs` times per set, each run with
//! another seed, and prints for every end-to-end metric each set's
//! quartiles, its spread (interquartile distance over the median — what
//! the driver computes) and how far the second set's median is worse
//! than the first's, against the metric's bound.

use crate::child::Layout;
use crate::json::{self, Value};
use crate::run::{self, Options};
use crate::stats::quartiles;
use crate::workload::WORKLOADS;

pub struct RepeatOptions {
    pub sets: usize,
    pub runs: usize,
    pub seconds: f64,
    pub smoke: bool,
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn read_bounds(layout: &Layout) -> Result<Vec<Bound>, String> {
    let path = layout.root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries =
        doc.get("end_to_end").and_then(Value::as_array).ok_or("BENCHMARK.json: no end_to_end")?;
    entries
        .iter()
        .map(|m| {
            let name =
                m.get("name").and_then(Value::as_str).ok_or("end_to_end entry without name")?;
            Ok(Bound {
                name: name.to_string(),
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: m.num("bound")?,
            })
        })
        .collect()
}

/// Runs the sets; `Ok(true)` when every metric of every workload held
/// its bound in spread and between sets.
pub fn repeat(layout: &Layout, opts: &RepeatOptions) -> Result<bool, String> {
    let bounds = read_bounds(layout)?;
    let mut all_held = true;
    for wl in &WORKLOADS {
        // values[set][metric] = one value per run
        let mut values = vec![vec![Vec::new(); bounds.len()]; opts.sets];
        for (set, set_values) in values.iter_mut().enumerate() {
            for r in 0..opts.runs {
                let seed = 1 + (set * 1000 + r) as u64;
                let report = run::run(
                    layout,
                    &Options {
                        workload: wl,
                        seed,
                        seconds: opts.seconds,
                        traced: false,
                        smoke: opts.smoke,
                    },
                )?;
                if !report.correct {
                    return Err(format!("{} seed {seed}: {}", wl.name, report.problems.join("; ")));
                }
                for (b, slot) in bounds.iter().zip(set_values.iter_mut()) {
                    let m = report.metrics.iter().find(|m| m.name == b.name).ok_or_else(|| {
                        format!("BENCHMARK.json names `{}`, which no run reports", b.name)
                    })?;
                    slot.push(m.value);
                }
                eprintln!("{} set {} run {}/{} done", wl.name, set + 1, r + 1, opts.runs);
            }
        }
        println!("\n== {} ({} runs per set, {} s windows)", wl.name, opts.runs, opts.seconds);
        println!(
            "{:<26} {:>3} {:>12} {:>12} {:>12} {:>8} {:>9} {:>6}  verdict",
            "metric", "set", "q1", "median", "q3", "spread", "set2-set1", "bound"
        );
        for (i, b) in bounds.iter().enumerate() {
            let mut medians = Vec::new();
            for (set, set_values) in values.iter().enumerate() {
                let [q1, med, q3] = quartiles(&set_values[i]).ok_or("--runs must be at least 2")?;
                let spread = (q3 - q1) / med;
                medians.push(med);
                // Positive = the later set is worse, as a share of the first.
                let worse = match set {
                    0 => None,
                    _ if b.lower_is_better => Some((med - medians[0]) / medians[0]),
                    _ => Some((medians[0] - med) / medians[0]),
                };
                // The driver exempts the spread of `setup_s`, not its drift.
                let spread_ok = spread <= b.bound || b.name == "setup_s";
                let held = spread_ok && worse.is_none_or(|w| w <= b.bound);
                all_held &= held;
                let verdict = match (held, spread <= b.bound / 3.0) {
                    (false, _) => "EXCEEDS BOUND",
                    (true, false) => "holds (spread above a third of the bound)",
                    (true, true) => "holds",
                };
                println!(
                    "{:<26} {:>3} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>9} {:>6}  {verdict}",
                    b.name,
                    set + 1,
                    q1,
                    med,
                    q3,
                    spread,
                    worse.map_or("-".to_string(), |w| format!("{w:+.4}")),
                    b.bound,
                );
            }
        }
    }
    Ok(all_held)
}
