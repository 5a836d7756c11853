//! Quickstart: build an index, create an ALGAS engine, search.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use algas::core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
use algas::graph::cagra::CagraParams;
use algas::vector::datasets::DatasetSpec;
use algas::vector::ground_truth::{brute_force_knn, mean_recall};
use algas::vector::Metric;

fn main() {
    // 1. A corpus. Here: a synthetic clustered dataset (swap in your
    //    own vectors via `VectorStore::from_rows` or `io::read_fvecs`).
    let ds = DatasetSpec::tiny(5_000, 64, Metric::L2, 42).generate();
    println!("corpus: {} vectors, dim {}", ds.base.len(), ds.base.dim());

    // 2. Build a CAGRA-style graph index.
    let t0 = std::time::Instant::now();
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    println!("index built in {:.2?} (degree {})", t0.elapsed(), index.graph.degree());

    // 3. Create the engine. It plans from its configuration alone:
    //    N_parallel walkers per query (8 unless `n_parallel` says
    //    otherwise). The paper's figures fit N_parallel to a simulated
    //    RTX A6000 instead (`algas::baselines::tuned`).
    let cfg = EngineConfig { k: 10, l: 64, slots: 16, ..Default::default() };
    let engine = AlgasEngine::new(index, cfg).expect("a valid configuration");
    println!("plan: N_parallel={}", engine.plan().n_parallel);

    // 4. Search on the paper's schedule. Every step is charged in
    //    simulated GPU cycles; the scratch keeps each CTA's trace.
    let mut scratch = engine.make_scratch();
    engine.search_into(ds.queries.get(0), 0, &mut scratch);
    println!(
        "\nquery 0 → top-10 ids: {:?}",
        scratch.topk.iter().map(|&(_, id)| id).collect::<Vec<_>>()
    );
    let totals = scratch.multi.step_totals();
    println!(
        "   {} CTAs, {} total steps, {} distance evaluations, {} simulated GPU cycles",
        scratch.multi.n_active(),
        totals.steps,
        totals.dist_evals,
        totals.total_cycles(),
    );

    // 5. Verify quality against exact brute force.
    let n_eval = 100.min(ds.queries.len());
    let results: Vec<Vec<u32>> =
        (0..n_eval).map(|q| engine.search(ds.queries.get(q), q as u64)).collect();
    let truth = brute_force_knn(
        &ds.base,
        &algas::vector::VectorStore::from_rows(
            ds.queries.dim(),
            (0..n_eval).map(|q| ds.queries.get(q)),
        ),
        Metric::L2,
        10,
    );
    println!("\nrecall@10 over {n_eval} queries: {:.3}", mean_recall(&results, &truth, 10));
}
