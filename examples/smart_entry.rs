//! Smart entry selection on the schedule `serve` runs: recall and work
//! per entry policy through [`AlgasEngine::serve_into`], the per-query
//! call a serving worker makes.
//!
//! The engine resolves per-CTA seeds from [`EntryPolicy`]: `Medoid`
//! starts everywhere from one vertex, `Hashed` scatters CTAs
//! pseudo-randomly (CAGRA's strategy, the paper's seeds), and
//! `HashTable` looks the query's LSH bucket up and starts the walk
//! *near the query*. A worker runs its walkers one after another and
//! stops launching them once one adds nothing, so a first walk that
//! starts near the query costs fewer evaluations, fewer steps and fewer
//! walkers. The example asserts that the serving default, `HashTable`,
//! keeps `Hashed`'s recall (within 0.005) for fewer evaluations.
//!
//! ```text
//! cargo run --release --example smart_entry
//! ```

use algas::core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
use algas::graph::cagra::CagraParams;
use algas::graph::{EntryParams, EntryPolicy};
use algas::vector::datasets::DatasetSpec;
use algas::vector::ground_truth::{brute_force_knn, mean_recall};
use algas::vector::Metric;

fn main() {
    let ds = DatasetSpec::tiny(4_000, 32, Metric::L2, 0xE17).generate();
    let (k, l) = (10, 64); // `serve`'s defaults

    let t0 = std::time::Instant::now();
    let mut index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    println!("CAGRA built in {:.2?}", t0.elapsed());

    // `build --entry true` persists the table in the v4 index file;
    // without it, serving builds it at load, as here.
    let t0 = std::time::Instant::now();
    index.build_entry_index(&EntryParams::default());
    let table = index.entry.as_ref().unwrap();
    println!(
        "LSH entry table in {:.2?}: {} bits ({}/{} buckets filled)\n",
        t0.elapsed(),
        table.n_bits(),
        table.occupied_buckets(),
        table.hasher().n_buckets(),
    );

    let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, k);
    let nq = ds.queries.len();
    println!("corpus {} x dim {}, {nq} queries, k={k}, L={l}", ds.base.len(), ds.base.dim());
    println!(
        "{:<18} {:>8} {:>12} {:>12} {:>14}",
        "entry policy", "recall", "evals/query", "steps/query", "walkers/query"
    );

    let mut measured = Vec::new();
    for (name, policy) in [
        ("medoid", EntryPolicy::Medoid),
        ("hashed (paper)", EngineConfig::default().entry_policy),
        ("hash-table (LSH)", EntryPolicy::HashTable),
    ] {
        let cfg = EngineConfig { k, l, slots: 16, entry_policy: policy, ..Default::default() };
        let engine = AlgasEngine::new(index.clone(), cfg).unwrap();
        let mut scratch = engine.make_scratch();
        let (mut results, mut evals, mut steps, mut walkers) = (Vec::new(), 0, 0, 0);
        for q in 0..nq {
            engine.serve_into(ds.queries.get(q), q as u64, &mut scratch);
            results.push(scratch.topk.iter().map(|&(_, id)| id).collect());
            let totals = scratch.multi.step_totals();
            evals += totals.dist_evals;
            steps += totals.steps;
            walkers += scratch.multi.n_active();
        }
        let recall = mean_recall(&results, &gt, k);
        let evals = evals as f64 / nq as f64;
        println!(
            "{name:<18} {recall:>8.4} {evals:>12.1} {:>12.1} {:>14.2}",
            steps as f64 / nq as f64,
            walkers as f64 / nq as f64,
        );
        measured.push((policy, recall, evals));
    }

    let of = |p: EntryPolicy| measured.iter().find(|m| m.0 == p).unwrap();
    let (_, hashed_recall, hashed_evals) = *of(EngineConfig::default().entry_policy);
    let (_, table_recall, table_evals) = *of(EntryPolicy::HashTable);
    assert!(
        table_recall >= hashed_recall - 0.005,
        "hash-table recall {table_recall:.4} fell more than 0.005 below hashed {hashed_recall:.4}"
    );
    assert!(
        table_evals < hashed_evals,
        "hash-table costs {table_evals:.1} evaluations/query, hashed {hashed_evals:.1}"
    );
    println!(
        "\nSeeded from the LSH table, the first walk starts near the query: hashed's recall \
         for {:.0} % fewer evaluations, which is why `serve` defaults to \
         `--entry-policy hash-table`.",
        100.0 * (1.0 - table_evals / hashed_evals)
    );
}
