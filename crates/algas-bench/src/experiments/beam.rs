//! Figures 16 and 17 — the beam extend study.

use crate::experiments::{index_of, K};
use crate::prep::Prepared;
use crate::report::{f1, f3, measure, pct, ExperimentReport, Table};
use algas_baselines::{each_search, AlgasMethod};
use algas_core::engine::{BeamMode, EngineConfig};
use algas_core::tracer::StepTotals;
use algas_graph::GraphKind;

fn method_with_beam(p: &Prepared, l: usize, beam: BeamMode) -> AlgasMethod {
    let cfg = EngineConfig {
        k: K,
        l,
        slots: 16,
        n_parallel: Some(8), // the paper evaluates beam extend at 8 CTAs
        beam,
        ..Default::default()
    };
    AlgasMethod::with_config(index_of(p, GraphKind::Cagra), cfg).expect("feasible")
}

/// Fig 16: beam extend vs greedy extend across the recall sweep.
pub fn fig16(prepared: &[Prepared]) -> ExperimentReport {
    let mut body = String::new();
    let mut hi_gain = f64::NEG_INFINITY;
    for p in prepared {
        let mut t = Table::new(&["L", "mode", "recall", "latency (µs)", "throughput (kq/s)"]);
        for &l in &[32usize, 64, 96, 128, 192] {
            let beam = measure(&method_with_beam(p, l, BeamMode::Auto), &p.ds.queries, &p.gt, K);
            let greedy =
                measure(&method_with_beam(p, l, BeamMode::Greedy), &p.ds.queries, &p.gt, K);
            if l >= 96 {
                hi_gain = hi_gain.max(beam.throughput_kqps / greedy.throughput_kqps - 1.0);
            }
            t.row(vec![
                l.to_string(),
                "Beam Extend".into(),
                f3(beam.recall),
                f1(beam.mean_latency_us),
                f1(beam.throughput_kqps),
            ]);
            t.row(vec![
                l.to_string(),
                "Greedy Extend".into(),
                f3(greedy.recall),
                f1(greedy.mean_latency_us),
                f1(greedy.throughput_kqps),
            ]);
        }
        body.push_str(&format!("### {} (8 CTAs)\n\n{}\n", p.label(), t.render()));
    }
    body.push_str(&format!(
        "\nPaper's Fig 16: beam extend helps most at high recall (large L), \
         where the diffusing phase dominates. Largest measured high-recall \
         throughput gain: **{}**.\n",
        pct(hi_gain)
    ));
    ExperimentReport { id: "fig16".into(), title: "Beam extend vs greedy extend".into(), body }
}

/// Fig 17: sorting share and search-time reduction after beam extend.
pub fn fig17(prepared: &[Prepared]) -> ExperimentReport {
    let mut t = Table::new(&[
        "Dataset",
        "sort % (greedy)",
        "sort % (beam)",
        "sorts/query −",
        "search time −",
    ]);
    let mut reductions = Vec::new();
    for p in prepared {
        let l = 128;
        let agg = |mode: BeamMode| {
            let m = method_with_beam(p, l, mode);
            let mut agg = StepTotals::default();
            each_search(m.engine(), &p.ds.queries, |s| agg.merge(&s.multi.step_totals()));
            (agg.sort_fraction(), agg.total_cycles(), agg.sorts)
        };
        let (sf_g, total_g, sorts_g) = agg(BeamMode::Greedy);
        let (sf_b, total_b, sorts_b) = agg(BeamMode::Auto);
        let time_red = 1.0 - total_b as f64 / total_g as f64;
        reductions.push(time_red);
        t.row(vec![
            p.label(),
            pct(sf_g),
            pct(sf_b),
            pct(1.0 - sorts_b as f64 / sorts_g as f64),
            pct(time_red),
        ]);
    }
    let lo = reductions.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = reductions.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    ExperimentReport {
        id: "fig17".into(),
        title: "Sorting share before/after beam extend".into(),
        body: format!(
            "{}\nPaper: beam extend cuts search time by **14.2%–25%** via fewer \
             sorts. Measured search-time reduction band: **{}–{}**.\n",
            t.render(),
            pct(lo),
            pct(hi),
        ),
    }
}
