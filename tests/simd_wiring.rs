//! End-to-end pin of the SIMD wiring: forcing the scalar kernels and
//! running the dispatched (AVX-512/AVX2/NEON) kernels must produce
//! identical neighbor ids and identical StepTrace *counters* on a
//! seeded dataset.
//!
//! The cost counters are count- and dimension-based, so SIMD
//! reassociation may change distance values in their low bits but must
//! never change which vertices are visited, in what order, or what the
//! accounting charges. On SQ8 codes the traversal's distances are
//! integer dot products, the same bits on every tier, so there the
//! whole search — each walker's final list and every `StepStats` field
//! — must match, whichever tier merges step ④. Everything lives in one
//! `#[test]` because `force_scalar` flips process-global dispatch state.

use algas::core::engine::{AlgasEngine, AlgasIndex, EngineConfig, SearchScratch};
use algas::graph::cagra::CagraParams;
use algas::graph::EntryParams;
use algas::vector::datasets::DatasetSpec;
use algas::vector::{simd, Metric};

/// One search entry point of the engine.
type Search = fn(&AlgasEngine, &[f32], u64, &mut SearchScratch);

#[test]
fn scalar_and_simd_paths_agree_end_to_end() {
    let ds = DatasetSpec::tiny(600, 16, Metric::L2, 4242).generate();
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let cfg = EngineConfig { k: 10, l: 64, ..Default::default() };
    let engine = AlgasEngine::new(index, cfg).unwrap();

    let (mut scalar, mut vector) = (engine.make_scratch(), engine.make_scratch());
    for q in 0..ds.queries.len().min(24) {
        let query = ds.queries.get(q);
        simd::force_scalar(true);
        engine.search_into(query, q as u64, &mut scalar);
        simd::force_scalar(false);
        engine.search_into(query, q as u64, &mut vector);

        let ids = |s: &SearchScratch| s.topk.iter().map(|&(_, id)| id).collect::<Vec<u32>>();
        assert_eq!(ids(&scalar), ids(&vector), "query {q}: neighbor ids diverged");

        assert_eq!(scalar.multi.n_active(), vector.multi.n_active());
        for c in 0..scalar.multi.n_active() {
            let (ts, tv) = (scalar.multi.trace(c), vector.multi.trace(c));
            assert_eq!(ts.steps.len(), tv.steps.len(), "query {q} cta {c}: step counts");
            for (i, (ss, sv)) in ts.steps.iter().zip(&tv.steps).enumerate() {
                assert_eq!(
                    (ss.selected_offset, ss.expansions, ss.dist_evals, ss.sorts),
                    (sv.selected_offset, sv.expansions, sv.dist_evals, sv.sorts),
                    "query {q} cta {c} step {i}: work counters diverged"
                );
                assert_eq!(
                    (ss.calc_cycles, ss.sort_cycles, ss.other_cycles),
                    (sv.calc_cycles, sv.sort_cycles, sv.other_cycles),
                    "query {q} cta {c} step {i}: cycle accounting diverged"
                );
            }
        }
    }
    simd::force_scalar(false);

    // Quantized, on both schedules: the same walkers, lists and traces.
    let mut index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    index.quantize();
    index.build_entry_index(&EntryParams::default());
    let engine = AlgasEngine::new(index, cfg).unwrap();
    let runs: [(&str, Search); 2] =
        [("paper", AlgasEngine::search_into), ("serial", AlgasEngine::serve_into)];
    for (schedule, run) in runs {
        for q in 0..ds.queries.len().min(24) {
            let query = ds.queries.get(q);
            simd::force_scalar(true);
            run(&engine, query, q as u64, &mut scalar);
            simd::force_scalar(false);
            run(&engine, query, q as u64, &mut vector);
            let bits = |s: &SearchScratch| -> Vec<Vec<(u32, u32)>> {
                s.multi
                    .per_cta()
                    .iter()
                    .map(|l| l.iter().map(|&(d, id)| (d.0.to_bits(), id)).collect())
                    .collect()
            };
            assert_eq!(bits(&scalar), bits(&vector), "{schedule} query {q}: walker lists");
            assert_eq!(scalar.multi.n_active(), vector.multi.n_active());
            for c in 0..scalar.multi.n_active() {
                assert_eq!(
                    scalar.multi.trace(c),
                    vector.multi.trace(c),
                    "{schedule} query {q} cta {c}: StepTrace"
                );
            }
        }
    }
    simd::force_scalar(false);
}
