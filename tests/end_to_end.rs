//! Cross-crate integration: dataset → graphs → engine → search →
//! simulation, exercising the public API exactly as a user would.

use algas::baselines::{AlgasMethod, CagraMethod, GannsMethod, IvfMethod, IvfParams, SearchMethod};
use algas::core::engine::{AlgasEngine, AlgasIndex, BeamMode, EngineConfig};
use algas::graph::cagra::CagraParams;
use algas::graph::nsw::NswParams;
use algas::graph::stats::graph_stats;
use algas::vector::datasets::DatasetSpec;
use algas::vector::ground_truth::{brute_force_knn, mean_recall};
use algas::vector::Metric;

fn dataset(seed: u64) -> algas::vector::datasets::GeneratedDataset {
    DatasetSpec::tiny(1_000, 24, Metric::L2, seed).generate()
}

#[test]
fn full_pipeline_nsw() {
    let ds = dataset(1);
    let index = AlgasIndex::build_nsw(ds.base.clone(), Metric::L2, NswParams::default());
    // NSW degree caps can strand the odd vertex; near-total
    // reachability is the practical requirement.
    assert!(graph_stats(&index.graph).reachable_fraction > 0.99);
    let engine =
        AlgasEngine::new(index, EngineConfig { k: 10, l: 64, ..Default::default() }).unwrap();
    let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, 10);
    let wl = engine.run_workload(&ds.queries);
    let recall = mean_recall(&wl.results, &gt, 10);
    assert!(recall > 0.9, "NSW end-to-end recall {recall}");
}

#[test]
fn full_pipeline_cagra() {
    let ds = dataset(2);
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let engine =
        AlgasEngine::new(index, EngineConfig { k: 10, l: 64, ..Default::default() }).unwrap();
    let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, 10);
    let wl = engine.run_workload(&ds.queries);
    let recall = mean_recall(&wl.results, &gt, 10);
    assert!(recall > 0.9, "CAGRA end-to-end recall {recall}");
}

#[test]
fn cosine_pipeline_works() {
    let ds = DatasetSpec::tiny(800, 32, Metric::Cosine, 3).generate();
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::Cosine, CagraParams::default());
    let engine =
        AlgasEngine::new(index, EngineConfig { k: 8, l: 48, ..Default::default() }).unwrap();
    let gt = brute_force_knn(&ds.base, &ds.queries, Metric::Cosine, 8);
    let wl = engine.run_workload(&ds.queries);
    let recall = mean_recall(&wl.results, &gt, 8);
    assert!(recall > 0.85, "cosine end-to-end recall {recall}");
}

#[test]
fn all_four_methods_complete_and_agree_on_easy_queries() {
    let ds = dataset(4);
    let k = 5;
    let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, k);
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let methods: Vec<Box<dyn SearchMethod>> = vec![
        Box::new(AlgasMethod::new(index.clone(), k, 48, 8).unwrap()),
        Box::new(CagraMethod::new(index.clone(), k, 48, 8).unwrap()),
        Box::new(GannsMethod::new(index, k, 96, 8).unwrap()),
        Box::new(IvfMethod::new(
            ds.base.clone(),
            Metric::L2,
            IvfParams { nlist: 31, nprobe: 12, ..Default::default() },
            k,
            8,
        )),
    ];
    let arrivals = vec![0u64; ds.queries.len()];
    for m in methods {
        let run = m.run_workload(&ds.queries);
        assert_eq!(run.results.len(), ds.queries.len(), "{}", m.name());
        let r = mean_recall(&run.results, &gt, k);
        assert!(r > 0.75, "{} recall {r}", m.name());
        let sim = m.simulate(&run.works, &arrivals);
        assert!(sim.makespan_ns > 0);
        assert!(sim.throughput_qps > 0.0);
        assert_eq!(sim.per_query.len(), ds.queries.len());
        // Causality: dispatch ≤ gpu start ≤ gpu done ≤ completion.
        for t in &sim.per_query {
            assert!(t.dispatch_ns <= t.gpu_start_ns);
            assert!(t.gpu_start_ns <= t.gpu_done_ns);
            assert!(t.gpu_done_ns <= t.completion_ns);
        }
    }
}

#[test]
fn dynamic_batching_beats_static_on_same_work() {
    // The core architectural claim, end to end: identical functional
    // work, different discipline.
    let ds = dataset(5);
    let k = 8;
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let algas = AlgasMethod::new(index.clone(), k, 48, 8).unwrap();
    let cagra = CagraMethod::new(index, k, 48, 8).unwrap();
    let arrivals = vec![0u64; ds.queries.len()];
    let ra = algas.simulate(&algas.run_workload(&ds.queries).works, &arrivals);
    let rc = cagra.simulate(&cagra.run_workload(&ds.queries).works, &arrivals);
    assert!(ra.mean_latency_ns < rc.mean_latency_ns);
    assert!(ra.throughput_qps > rc.throughput_qps);
    assert_eq!(ra.bubble_waste_frac, 0.0, "dynamic batching has no batch barrier");
    assert!(rc.bubble_waste_frac > 0.0, "static batching must show the query bubble");
}

#[test]
fn beam_extend_reduces_work_at_matched_recall() {
    let ds = dataset(6);
    let k = 8;
    let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, k);
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let mk = |beam| {
        let cfg = EngineConfig { k, l: 96, slots: 8, beam, ..Default::default() };
        AlgasEngine::new(index.clone(), cfg).unwrap()
    };
    let greedy = mk(BeamMode::Greedy).run_workload(&ds.queries);
    let beam = mk(BeamMode::Auto).run_workload(&ds.queries);
    let sorts = |wl: &algas::core::Workload| -> u64 {
        wl.traces.iter().flat_map(|m| m.traces.iter()).map(|t| t.totals().sorts).sum()
    };
    assert!(
        sorts(&beam) < sorts(&greedy),
        "beam {} vs greedy {} sorts",
        sorts(&beam),
        sorts(&greedy)
    );
    let rg = mean_recall(&greedy.results, &gt, k);
    let rb = mean_recall(&beam.results, &gt, k);
    assert!(rb > rg - 0.05, "beam recall {rb} vs greedy {rg}");
}

#[test]
fn hnsw_pipeline_through_facade() {
    use algas::graph::hnsw::{build_hnsw, HnswParams};
    let ds = dataset(8);
    let hnsw = build_hnsw(&ds.base, Metric::L2, HnswParams::default());
    let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, 10);
    let results: Vec<Vec<u32>> = (0..ds.queries.len())
        .map(|q| {
            hnsw.search(&ds.base, ds.queries.get(q), 64, 10).into_iter().map(|(_, id)| id).collect()
        })
        .collect();
    let r = mean_recall(&results, &gt, 10);
    assert!(r > 0.9, "HNSW facade recall {r}");

    // Its base layer is a plain NSW graph the ALGAS engine can serve.
    let index = algas::core::engine::AlgasIndex::from_parts(
        ds.base.clone(),
        hnsw.base().clone(),
        Metric::L2,
        algas::graph::GraphKind::Nsw,
    )
    .unwrap();
    let engine =
        AlgasEngine::new(index, EngineConfig { k: 10, l: 64, ..Default::default() }).unwrap();
    let wl = engine.run_workload(&ds.queries);
    assert!(mean_recall(&wl.results, &gt, 10) > 0.9);
}

/// What the entry structures buy: a seed near the query crosses the
/// graph in fewer steps. Single-CTA (1024 slots tune to `N_parallel`
/// = 1), so hops count the serial steps of one walk; over a sweep of
/// the list length, the cheapest point at recall ≥ 0.90 takes fewer
/// hops from a hash-table or descent seed than from the medoid.
#[test]
fn index_backed_entries_reach_recall_in_fewer_hops_than_the_medoid() {
    use algas::graph::{EntryParams, EntryPolicy};
    let ds = dataset(0xE17);
    let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, 10);
    let mut index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    index.build_entry_index(&EntryParams::default());
    // Mean hops per query at the first list length reaching the recall.
    let hops_at_recall = |entry_policy: EntryPolicy| -> f64 {
        for l in [16, 24, 32, 48, 64, 96] {
            let cfg = EngineConfig { k: 10, l, slots: 1024, entry_policy, ..Default::default() };
            let engine = AlgasEngine::new(index.clone(), cfg).unwrap();
            assert_eq!(engine.plan().n_parallel, 1);
            let wl = engine.run_workload(&ds.queries);
            if mean_recall(&wl.results, &gt, 10) >= 0.90 {
                let hops: usize = wl.traces.iter().map(|t| t.max_steps()).sum();
                return hops as f64 / wl.traces.len() as f64;
            }
        }
        panic!("{entry_policy:?} never reached recall 0.90");
    };
    let medoid = hops_at_recall(EntryPolicy::Medoid);
    let smart = hops_at_recall(EntryPolicy::HashTable).min(hops_at_recall(EntryPolicy::Descent));
    assert!(smart < medoid, "best index-backed entry {smart} hops/query, medoid {medoid}");
}

#[test]
fn index_persistence_through_facade() {
    let ds = dataset(9);
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let path = std::env::temp_dir().join(format!("algas-e2e-{}.bin", std::process::id()));
    index.save(&path).unwrap();
    let loaded = AlgasIndex::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let cfg = EngineConfig { k: 8, l: 48, ..Default::default() };
    let e1 = AlgasEngine::new(index, cfg).unwrap();
    let e2 = AlgasEngine::new(loaded, cfg).unwrap();
    for q in 0..10 {
        assert_eq!(
            e1.search(ds.queries.get(q), q as u64),
            e2.search(ds.queries.get(q), q as u64),
            "loaded index must search identically"
        );
    }
}

#[test]
fn serialization_roundtrip_through_facade() {
    // fvecs out and back in through the public io module.
    let ds = dataset(7);
    let mut buf = Vec::new();
    algas::vector::io::write_fvecs(&mut buf, &ds.base).unwrap();
    let back = algas::vector::io::read_fvecs(std::io::Cursor::new(buf)).unwrap();
    assert_eq!(back, ds.base);
}
