//! The schedule that serves: [`AlgasEngine::serve_into`] — what a
//! worker thread runs, walkers one after another under the plan's CTA
//! count as a cap — against [`AlgasEngine::search_into`], the paper
//! path that seeds and steps every CTA. Pins the trade the serial
//! schedule makes (recall within 0.01 for at most 0.7× the distance
//! evaluations), that a server's replies are exactly its results, and
//! that no rerank or CTA-cap rung of the effort ladder costs more than
//! the rung before it, and that no rung at all gives up more than 0.02
//! recall against rung 0.

use algas::core::engine::{AlgasEngine, AlgasIndex, EngineConfig, SearchScratch};
use algas::core::runtime::{AlgasServer, RuntimeConfig};
use algas::graph::cagra::CagraParams;
use algas::graph::{EntryParams, EntryPolicy};
use algas::vector::datasets::{DatasetSpec, GeneratedDataset};
use algas::vector::ground_truth::{brute_force_knn, mean_recall};
use algas::vector::Metric;

/// The benchmark's shape (k = 10, L = 64, N = 8) on its two indexes:
/// fp32 rows with hashed seeds, SQ8 codes with LSH-table seeds.
fn cfg(quantize: bool) -> EngineConfig {
    let paper = EngineConfig::default();
    EngineConfig {
        k: 10,
        l: 64,
        n_parallel: Some(8),
        quantize,
        entry_policy: if quantize { EntryPolicy::HashTable } else { paper.entry_policy },
        ..paper
    }
}

fn graph(ds: &GeneratedDataset) -> AlgasIndex {
    AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default())
}

fn engine(graph: &AlgasIndex, cfg: EngineConfig) -> AlgasEngine {
    let mut index = graph.clone();
    if cfg.quantize {
        index.quantize();
        index.build_entry_index(&EntryParams::default());
    }
    AlgasEngine::new(index, cfg).unwrap()
}

type SearchFn = fn(&AlgasEngine, &[f32], u64, &mut SearchScratch);

/// Runs the query set through `search`; `(ids per query, mean distance
/// evaluations, mean walkers)`.
fn run(engine: &AlgasEngine, ds: &GeneratedDataset, search: SearchFn) -> (Vec<Vec<u32>>, f64, f64) {
    let mut scratch = engine.make_scratch();
    let (mut evals, mut walkers) = (0u64, 0usize);
    let ids = (0..ds.queries.len())
        .map(|q| {
            search(engine, ds.queries.get(q), q as u64, &mut scratch);
            evals += scratch.multi.step_totals().dist_evals;
            walkers += scratch.multi.n_active();
            scratch.topk.iter().map(|&(_, id)| id).collect()
        })
        .collect();
    let nq = ds.queries.len() as f64;
    (ids, evals as f64 / nq, walkers as f64 / nq)
}

#[test]
fn serial_schedule_keeps_recall_for_at_most_0_7x_the_evaluations() {
    let ds = DatasetSpec::tiny(2500, 40, Metric::L2, 1).generate();
    let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, 10);
    let graph = graph(&ds);
    for quantize in [false, true] {
        let engine = engine(&graph, cfg(quantize));
        assert_eq!(engine.plan().n_parallel, 8);
        let (paper_ids, paper_evals, paper_walkers) = run(&engine, &ds, AlgasEngine::search_into);
        let (ids, evals, walkers) = run(&engine, &ds, AlgasEngine::serve_into);
        assert_eq!(paper_walkers, 8.0, "the paper path runs every CTA of the plan");
        assert!((1.0..=8.0).contains(&walkers), "quantize={quantize}: {walkers} walkers");
        let (paper_recall, recall) = (mean_recall(&paper_ids, &gt, 10), mean_recall(&ids, &gt, 10));
        assert!(
            recall >= paper_recall - 0.01,
            "quantize={quantize}: serial recall {recall} vs concurrent {paper_recall}"
        );
        assert!(
            evals <= 0.7 * paper_evals,
            "quantize={quantize}: serial {evals} evaluations vs concurrent {paper_evals}"
        );
    }
}

#[test]
fn server_replies_are_the_serial_entry_points_results() {
    let ds = DatasetSpec::tiny(800, 16, Metric::L2, 1602).generate();
    // Relayouted, so the reply also crosses the id map once.
    let mut graph = graph(&ds);
    graph.relayout();
    for quantize in [false, true] {
        let direct = engine(&graph, cfg(quantize));
        let server = AlgasServer::start(
            engine(&graph, cfg(quantize)),
            RuntimeConfig { n_slots: 4, n_workers: 2, ..Default::default() },
        );
        let pending: Vec<_> = (0..ds.queries.len())
            .map(|q| server.submit(ds.queries.get(q).to_vec()).unwrap())
            .collect();
        let mut scratch = direct.make_scratch();
        for (q, (tag, rx)) in pending.into_iter().enumerate() {
            let reply = rx.recv().unwrap();
            assert_eq!(reply.tag, tag);
            direct.serve_into(ds.queries.get(q), tag, &mut scratch);
            let (dists, ids): (Vec<f32>, Vec<u32>) =
                scratch.topk.iter().map(|&(d, id)| (d.0, id)).unzip();
            assert_eq!(reply.ids, ids, "quantize={quantize} query {q}");
            assert_eq!(reply.distances, dists, "quantize={quantize} query {q}");
        }
        server.shutdown();
    }
}

/// `EffortLadder`'s invariant — a shed never costs more — where it now
/// matters: down the rerank and CTA-cap rungs, mean distance
/// evaluations per served query never rise, and the controller reports
/// each rung's cap. (Beam rungs trade evaluations for sorts by design;
/// `tuning`'s own tests cover them.)
#[test]
fn no_rerank_or_cta_rung_costs_more_on_the_schedule_that_serves() {
    let ds = DatasetSpec::tiny(1500, 24, Metric::L2, 1603).generate();
    let graph = graph(&ds);
    // The benchmark's two shapes, and a deep rerank pool so that the
    // ladder has rerank rungs to walk (2k, the default, is its floor).
    for (quantize, rerank_depth) in [(false, None), (true, None), (true, Some(80))] {
        let engine =
            engine(&graph, EngineConfig { slo_us: Some(1), rerank_depth, ..cfg(quantize) });
        let control = engine.controller();
        let steps = control.ladder().steps().to_vec();
        assert_eq!(steps[0].n_ctas, 8);
        let mut last = f64::INFINITY;
        let mut walked = 0;
        for (level, step) in steps.iter().enumerate() {
            if step.beam != steps[0].beam {
                break;
            }
            assert_eq!(control.level() as usize, level);
            assert_eq!(control.stats().n_ctas, step.n_ctas as u64, "level {level}");
            let (_, evals, walkers) = run(&engine, &ds, AlgasEngine::serve_into);
            assert!(walkers <= step.n_ctas as f64, "level {level}: {walkers} walkers");
            assert!(
                evals <= last,
                "quantize={quantize} level {level} ({step:?}): {evals} evaluations, {last} before"
            );
            last = evals;
            walked += 1;
            control.tick_with(u64::MAX);
        }
        // 8 → 4 → 2 → 1, after the rerank rungs if any.
        let rerank_rungs = if rerank_depth.is_some() { 2 } else { 0 };
        assert_eq!(walked, 1 + rerank_rungs + 3, "quantize={quantize}: {steps:?}");
    }
}

/// What a shed may cost, on the shape the ladder was built for (SQ8
/// codes, LSH-table seeds, a deep rerank pool): walking the controller
/// down every rung — rerank, CTA cap, then beam — recall@10 of what a
/// worker serves never falls more than 0.02 under rung 0's. The
/// table's seeds are what hold the lone-CTA rungs up (0.999 → 0.991
/// here): from hashed seeds on fp32 rows this corpus loses 0.06 there
/// (ROADMAP 1(a)).
#[test]
fn no_effort_rung_loses_more_than_0_02_recall_against_rung_0() {
    let ds = DatasetSpec::tiny(2000, 96, Metric::L2, 3).generate();
    let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, 10);
    let config = EngineConfig { slo_us: Some(1), rerank_depth: Some(80), ..cfg(true) };
    let engine = engine(&graph(&ds), config);
    let control = engine.controller();
    let steps = control.ladder().steps().to_vec();
    assert_eq!(steps.last().unwrap().n_ctas, 1);
    assert_ne!(steps.last().unwrap().beam, steps[0].beam, "the ladder ends in beam rungs");
    let mut rung0 = 0.0;
    for (level, step) in steps.iter().enumerate() {
        assert_eq!(control.level() as usize, level);
        let (ids, _, _) = run(&engine, &ds, AlgasEngine::serve_into);
        let recall = mean_recall(&ids, &gt, 10);
        if level == 0 {
            rung0 = recall;
        }
        assert!(
            recall >= rung0 - 0.02,
            "level {level} ({step:?}): recall {recall}, {rung0} at rung 0"
        );
        control.tick_with(u64::MAX);
    }
}
