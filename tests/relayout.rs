//! Relayout + id-map contract tests: permuting the physical node
//! layout must be invisible to callers. With the medoid entry policy
//! the search starts from the same physical point before and after a
//! relayout, so results must round-trip *exactly* — same ids, same
//! distances, same order.

use algas::core::engine::{AlgasEngine, AlgasIndex, BeamMode, EngineConfig};
use algas::graph::cagra::CagraParams;
use algas::graph::EntryPolicy;
use algas::vector::datasets::DatasetSpec;
use algas::vector::Metric;

fn medoid_cfg() -> EngineConfig {
    EngineConfig {
        k: 10,
        l: 64,
        slots: 8,
        beam: BeamMode::Auto,
        entry_policy: EntryPolicy::Medoid,
        ..Default::default()
    }
}

#[test]
fn relayout_round_trips_search_results_exactly() {
    let ds = DatasetSpec::tiny(800, 16, Metric::L2, 404).generate();
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let mut relayouted = index.clone();
    let perm = relayouted.relayout();
    assert!(!perm.is_identity(), "BFS permutation of a real graph should move nodes");

    let before = AlgasEngine::new(index, medoid_cfg()).unwrap();
    let after = AlgasEngine::new(relayouted, medoid_cfg()).unwrap();
    let (mut a, mut b) = (before.make_scratch(), after.make_scratch());
    for q in 0..ds.queries.len() {
        before.search_into(ds.queries.get(q), q as u64, &mut a);
        after.search_into(ds.queries.get(q), q as u64, &mut b);
        assert_eq!(a.topk, b.topk, "query {q}: relayout changed the (dist, id) results");
    }
}

#[test]
fn relayout_permutes_base_and_graph_consistently() {
    let ds = DatasetSpec::tiny(400, 8, Metric::L2, 11).generate();
    let original = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let mut index = original.clone();
    index.relayout();
    let map = index.id_map.as_ref().expect("relayout sets the id map");

    // Vector rows moved with their node: physical row `new` holds the
    // original vector of node `to_old(new)`.
    for new in 0..index.base.len() {
        let old = map.to_old(new as u32) as usize;
        assert_eq!(index.base.get(new), original.base.get(old), "row {new}");
    }
    // Graph edges relabeled consistently: mapping a physical row back
    // to original ids reproduces the original adjacency.
    for new in 0..index.graph.len() as u32 {
        let old = map.to_old(new);
        let back: Vec<u32> = index.graph.neighbors(new).map(|u| map.to_old(u)).collect();
        let orig: Vec<u32> = original.graph.neighbors(old).collect();
        assert_eq!(back, orig, "row of original node {old}");
    }
    // The medoid tracked the permutation (same physical point).
    assert_eq!(map.to_old(index.medoid), original.medoid);
}

#[test]
fn double_relayout_still_round_trips() {
    let ds = DatasetSpec::tiny(500, 12, Metric::L2, 77).generate();
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let mut twice = index.clone();
    twice.relayout();
    twice.relayout(); // composes the id-maps
    let before = AlgasEngine::new(index, medoid_cfg()).unwrap();
    let after = AlgasEngine::new(twice, medoid_cfg()).unwrap();
    for q in 0..ds.queries.len().min(16) {
        assert_eq!(
            before.search(ds.queries.get(q), q as u64),
            after.search(ds.queries.get(q), q as u64),
            "query {q}"
        );
    }
}
