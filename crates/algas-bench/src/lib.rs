//! # algas-bench
//!
//! The benchmark harness: regenerates every table and figure of the
//! paper's evaluation (see DESIGN.md §5 for the experiment index).
//!
//! * [`cache`] — on-disk caching of built graphs and ground truth.
//! * [`prep`] — prepared bundles (dataset + NSW graph + CAGRA graph +
//!   exact neighbors).
//! * [`report`] — measurement plumbing and markdown rendering.
//! * [`experiments`] — one module per table/figure.
//! * [`trace_bench`] — `figures bench_trace`, the obs-off-vs-obs-on
//!   build comparison behind CI's ≤ 2 % p99 telemetry budget.
//!
//! Serving performance is not measured here: the one benchmark is
//! `algas-perf` (`src/bin/perf`, a package of its own; see its README
//! and `BENCHMARK.json`).
//!
//! The `figures` binary drives everything:
//!
//! ```text
//! cargo run --release -p algas-bench --bin figures -- all
//! cargo run --release -p algas-bench --bin figures -- fig10 --scale 0.2
//! ```

pub mod cache;
pub mod experiments;
pub mod prep;
pub mod report;
pub mod trace_bench;

use crate::prep::Prepared;
use crate::report::ExperimentReport;

/// All experiment ids, in paper order.
pub const ALL_EXPERIMENTS: [&str; 21] = [
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "table2",
    "table3",
    "fig7",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "ablation_kernel",
    "ablation_merge",
    "ablation_state",
    "ablation_nparallel",
    "online",
];

/// Runs one experiment by id (note `fig10`/`fig11` and `fig14`/`fig15`
/// are computed together; requesting either returns both).
pub fn run_experiment(id: &str, prepared: &[Prepared]) -> Vec<ExperimentReport> {
    match id {
        "table1" => vec![experiments::tables::table1(prepared)],
        "table2" => vec![experiments::tables::table2()],
        "table3" => vec![experiments::tables::table3(prepared)],
        "fig1" => vec![experiments::motivation::fig1(prepared)],
        "fig2" => vec![experiments::motivation::fig2(prepared)],
        "fig3" => vec![experiments::motivation::fig3(prepared)],
        "fig7" => vec![experiments::motivation::fig7(prepared)],
        "fig10" | "fig11" => experiments::comparison::fig10_fig11(prepared),
        "fig12" => vec![experiments::comparison::fig12(prepared)],
        "fig13" => vec![experiments::batching::fig13(prepared)],
        "fig14" | "fig15" => experiments::batching::fig14_fig15(prepared),
        "fig16" => vec![experiments::beam::fig16(prepared)],
        "fig17" => vec![experiments::beam::fig17(prepared)],
        "fig18" => vec![experiments::host::fig18(prepared)],
        "ablation_kernel" => vec![experiments::ablations::ablation_kernel(prepared)],
        "ablation_merge" => vec![experiments::ablations::ablation_merge(prepared)],
        "ablation_state" => vec![experiments::ablations::ablation_state(prepared)],
        "ablation_nparallel" => vec![experiments::ablations::ablation_nparallel(prepared)],
        "ablations" => experiments::ablations::run_all(prepared),
        "online" => vec![experiments::online::online(prepared)],
        other => panic!("unknown experiment id: {other}"),
    }
}

/// Runs every experiment, deduplicating the paired figures.
pub fn run_all(prepared: &[Prepared]) -> Vec<ExperimentReport> {
    let mut out = vec![
        experiments::tables::table1(prepared),
        experiments::motivation::fig1(prepared),
        experiments::motivation::fig2(prepared),
        experiments::motivation::fig3(prepared),
        experiments::tables::table2(),
        experiments::tables::table3(prepared),
        experiments::motivation::fig7(prepared),
    ];
    out.extend(experiments::comparison::fig10_fig11(prepared));
    out.push(experiments::comparison::fig12(prepared));
    out.push(experiments::batching::fig13(prepared));
    out.extend(experiments::batching::fig14_fig15(prepared));
    out.push(experiments::beam::fig16(prepared));
    out.push(experiments::beam::fig17(prepared));
    out.push(experiments::host::fig18(prepared));
    out.extend(experiments::ablations::run_all(prepared));
    out.push(experiments::online::online(prepared));
    out
}
