//! k-NN graph construction: exact brute force and NN-descent.
//!
//! CAGRA builds its searchable graph by *optimizing an initial k-NN
//! graph*. The authors bootstrap that k-NN graph on the GPU; here we
//! provide two CPU builders with one output type:
//!
//! * [`build_knn_graph_exact`] — O(n²) brute force, parallel over rows
//!   via scoped threads ([`crate::parallel::par_map`]). Exact, used for
//!   small corpora and as the oracle in tests.
//! * [`build_knn_graph_nn_descent`] — NN-descent (Dong et al.), the
//!   standard approximate construction: start random, repeatedly let each
//!   vertex compare its neighbors' neighbors, keep the k best. Converges
//!   in a handful of rounds on clustered data.

use crate::csr::FixedDegreeGraph;
use crate::parallel;
use algas_vector::metric::DistValue;
use algas_vector::{Metric, VectorStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exact k-NN graph by brute force (excluding self).
///
/// # Panics
/// Panics if `k == 0` or `k >= base.len()`.
pub fn build_knn_graph_exact(base: &VectorStore, metric: Metric, k: usize) -> FixedDegreeGraph {
    build_knn_graph_exact_threads(base, metric, k, parallel::max_threads())
}

/// [`build_knn_graph_exact`] with an explicit thread count. Rows are
/// independent, so the output is identical for every thread count.
pub fn build_knn_graph_exact_threads(
    base: &VectorStore,
    metric: Metric,
    k: usize,
    threads: usize,
) -> FixedDegreeGraph {
    let n = base.len();
    assert!(k > 0, "k must be positive");
    assert!(k < n, "k={k} must be < n={n}");
    crate::progress::global().start_phase(crate::progress::BuildPhase::KnnExact, n as u64);
    let rows: Vec<Vec<u32>> = parallel::par_map(n, 16, threads, |v| {
        crate::progress::global().node_done(1);
        // One batched sweep over the whole corpus, then a bounded
        // heap pass skipping the self-distance.
        let mut dists = Vec::with_capacity(n);
        metric.distance_all(base.get(v), base, &mut dists);
        let mut heap: std::collections::BinaryHeap<(DistValue, u32)> =
            std::collections::BinaryHeap::with_capacity(k + 1);
        for (u, &dist) in dists.iter().enumerate() {
            if u == v {
                continue;
            }
            let d = DistValue(dist);
            if heap.len() < k {
                heap.push((d, u as u32));
            } else if d < heap.peek().expect("non-empty").0 {
                heap.pop();
                heap.push((d, u as u32));
            }
        }
        let mut pairs = heap.into_vec();
        pairs.sort();
        pairs.into_iter().map(|(_, id)| id).collect()
    });
    FixedDegreeGraph::from_adjacency(n, k, &rows)
}

/// Parameters for NN-descent.
#[derive(Clone, Copy, Debug)]
pub struct NnDescentParams {
    /// Neighbors kept per vertex (the k of the k-NN graph).
    pub k: usize,
    /// Maximum improvement rounds.
    pub max_rounds: usize,
    /// Stop when fewer than `termination_frac * n * k` updates occur in a
    /// round.
    pub termination_frac: f64,
    /// RNG seed for the random initial graph.
    pub seed: u64,
}

impl Default for NnDescentParams {
    fn default() -> Self {
        Self { k: 32, max_rounds: 12, termination_frac: 0.001, seed: 0xDE5C }
    }
}

/// One vertex's bounded neighbor list during NN-descent.
#[derive(Clone)]
struct NeighborList {
    // Sorted ascending by distance; length ≤ k.
    items: Vec<(DistValue, u32, bool)>, // (dist, id, is_new)
    k: usize,
}

impl NeighborList {
    fn new(k: usize) -> Self {
        Self { items: Vec::with_capacity(k + 1), k }
    }

    /// Inserts (d, u) if better than the current worst and not already
    /// present; returns true on an actual update. The O(1) bound test
    /// runs before the O(k) duplicate scan: both reject without touching
    /// the list, so their order changes only the work done, and most
    /// offers fail the bound.
    fn insert(&mut self, d: DistValue, u: u32) -> bool {
        if self.items.len() == self.k && d >= self.worst() {
            return false;
        }
        if self.items.iter().any(|&(_, id, _)| id == u) {
            return false;
        }
        let pos = self.items.partition_point(|&(x, _, _)| x < d);
        self.items.insert(pos, (d, u, true));
        self.items.truncate(self.k);
        true
    }

    /// Distance of the last (worst) entry.
    fn worst(&self) -> DistValue {
        self.items.last().expect("non-empty list").0
    }

    fn ids(&self) -> Vec<u32> {
        self.items.iter().map(|&(_, id, _)| id).collect()
    }
}

/// Builds an approximate k-NN graph with NN-descent.
///
/// Deterministic for a fixed seed. The local join takes no sample of
/// the forward lists (rho = 1: every new and every old neighbor joins)
/// and caps each reverse list at its first k entries in vertex order,
/// which keeps rounds O(n·k²) distance evaluations.
pub fn build_knn_graph_nn_descent(
    base: &VectorStore,
    metric: Metric,
    params: NnDescentParams,
) -> FixedDegreeGraph {
    build_knn_graph_nn_descent_threads(base, metric, params, parallel::max_threads())
}

/// [`build_knn_graph_nn_descent`] with an explicit thread count.
///
/// Within each round, the pair sets of the local join depend only on the
/// round-start samples — never on inserts made earlier in the same round
/// — so a window of vertices computes its pairs in parallel, and the
/// inserts are then applied by owner: each thread owns a contiguous range
/// of lists and walks every pair in the serial order, applying only the
/// inserts aimed at its own lists. A list's state depends only on the
/// inserts it receives, and each list receives the serial sequence, so
/// the output is bit-identical for every thread count.
pub fn build_knn_graph_nn_descent_threads(
    base: &VectorStore,
    metric: Metric,
    params: NnDescentParams,
    threads: usize,
) -> FixedDegreeGraph {
    let n = base.len();
    let k = params.k;
    assert!(k > 0, "k must be positive");
    assert!(k < n, "k={k} must be < n={n}");

    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut lists: Vec<NeighborList> = (0..n).map(|_| NeighborList::new(k)).collect();

    // Random initialization.
    for (v, list) in lists.iter_mut().enumerate() {
        while list.items.len() < k {
            let u = rng.gen_range(0..n);
            if u == v {
                continue;
            }
            let d = DistValue(metric.distance(base.get(v), base.get(u)));
            list.insert(d, u as u32);
        }
    }

    for round in 0..params.max_rounds {
        // Each round re-walks every vertex: reset the node counter,
        // report the round number as the batch.
        crate::progress::global().start_phase(crate::progress::BuildPhase::NnDescent, n as u64);
        crate::progress::global().set_batch(round as u64 + 1);
        // Collect per-vertex (new, old) samples.
        let samples: Vec<(Vec<u32>, Vec<u32>)> = lists
            .iter()
            .map(|l| {
                let mut new_ids = Vec::new();
                let mut old_ids = Vec::new();
                for &(_, id, is_new) in &l.items {
                    if is_new {
                        new_ids.push(id);
                    } else {
                        old_ids.push(id);
                    }
                }
                (new_ids, old_ids)
            })
            .collect();
        // Mark everything old for the next round.
        for l in lists.iter_mut() {
            for it in l.items.iter_mut() {
                it.2 = false;
            }
        }
        // Reverse samples: u appears in rev[v] if v ∈ sample(u).
        let mut rev_new: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut rev_old: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, (new_ids, old_ids)) in samples.iter().enumerate() {
            for &u in new_ids {
                rev_new[u as usize].push(v as u32);
            }
            for &u in old_ids {
                rev_old[u as usize].push(v as u32);
            }
        }
        // Every list is full from initialization on (k < n), and a full
        // list's worst distance never rises: an accepted insert evicts
        // the old worst. So a pair at least as far as both endpoints'
        // round-start worst would be refused by both inserts at any later
        // point of the round, and the join drops it before buffering.
        debug_assert!(lists.iter().all(|l| l.items.len() == k), "every list holds k entries");
        let bound: Vec<DistValue> = lists.iter().map(NeighborList::worst).collect();
        // Local join: for each vertex, compare (new × new) and
        // (new × old) pairs among its forward+reverse samples. The pairs
        // are pure functions of the round-start samples, so they are
        // computed in parallel per window of vertices, then applied by
        // owner (see the function docs). Windowing bounds the buffered
        // pairs to O(window · k²).
        let mut updates = 0usize;
        let rev_cap = k; // bound reverse lists like the reference algorithm
        const WINDOW: usize = 2048;
        let owned_per_thread = n.div_ceil(threads.max(1));
        let mut lo = 0usize;
        while lo < n {
            let hi = (lo + WINDOW).min(n);
            let pair_batches: Vec<Vec<(u32, u32, DistValue)>> =
                parallel::par_map(hi - lo, 64, threads, |i| {
                    crate::progress::global().node_done(1);
                    let v = lo + i;
                    let mut new_ids = samples[v].0.clone();
                    let mut old_ids = samples[v].1.clone();
                    for (extra, rev) in [(&mut new_ids, &rev_new[v]), (&mut old_ids, &rev_old[v])] {
                        for &u in rev.iter().take(rev_cap) {
                            if !extra.contains(&u) {
                                extra.push(u);
                            }
                        }
                    }
                    let mut pairs = Vec::new();
                    for (i, &a) in new_ids.iter().enumerate() {
                        for &b in new_ids.iter().skip(i + 1).chain(old_ids.iter()) {
                            if a == b {
                                continue;
                            }
                            let d = DistValue(
                                metric.distance(base.get(a as usize), base.get(b as usize)),
                            );
                            if d < bound[a as usize] || d < bound[b as usize] {
                                pairs.push((a, b, d));
                            }
                        }
                    }
                    pairs
                });
            let pair_batches = &pair_batches;
            updates += std::thread::scope(|scope| {
                let appliers: Vec<_> = lists
                    .chunks_mut(owned_per_thread)
                    .enumerate()
                    .map(|(t, owned)| {
                        let first = (t * owned_per_thread) as u32;
                        let ids = first..first + owned.len() as u32;
                        scope.spawn(move || {
                            let mut updates = 0usize;
                            for &(a, b, d) in pair_batches.iter().flatten() {
                                for (to, from) in [(a, b), (b, a)] {
                                    if ids.contains(&to)
                                        && owned[(to - first) as usize].insert(d, from)
                                    {
                                        updates += 1;
                                    }
                                }
                            }
                            updates
                        })
                    })
                    .collect();
                appliers.into_iter().map(|h| h.join().expect("insert pass panicked")).sum::<usize>()
            });
            lo = hi;
        }
        if (updates as f64) < params.termination_frac * (n * k) as f64 {
            break;
        }
    }

    let rows: Vec<Vec<u32>> = lists.iter().map(|l| l.ids()).collect();
    FixedDegreeGraph::from_adjacency(n, k, &rows)
}

/// Fraction of exact k-NN edges present in `approx` (edge recall),
/// a standard quality measure for approximate k-NN graphs.
pub fn knn_graph_recall(exact: &FixedDegreeGraph, approx: &FixedDegreeGraph) -> f64 {
    assert_eq!(exact.len(), approx.len());
    let mut hit = 0usize;
    let mut total = 0usize;
    for v in 0..exact.len() as u32 {
        let approx_row: std::collections::HashSet<u32> = approx.neighbors(v).collect();
        for u in exact.neighbors(v) {
            total += 1;
            if approx_row.contains(&u) {
                hit += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        hit as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cagra::{CagraBuilder, CagraParams};
    use algas_vector::datasets::DatasetSpec;

    #[test]
    fn exact_knn_on_line() {
        let base = VectorStore::from_flat(1, (0..8).map(|i| i as f32).collect());
        let g = build_knn_graph_exact(&base, Metric::L2, 2);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1, 2]);
        let mid: Vec<u32> = g.neighbors(4).collect();
        assert!(mid.contains(&3) && mid.contains(&5));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn nn_descent_approaches_exact() {
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 77).generate();
        let exact = build_knn_graph_exact(&ds.base, Metric::L2, 8);
        let approx = build_knn_graph_nn_descent(
            &ds.base,
            Metric::L2,
            NnDescentParams { k: 8, max_rounds: 10, termination_frac: 0.001, seed: 5 },
        );
        assert!(approx.validate().is_ok());
        let r = knn_graph_recall(&exact, &approx);
        assert!(r > 0.85, "NN-descent edge recall too low: {r}");
    }

    #[test]
    fn builders_are_thread_count_invariant() {
        let ds = DatasetSpec::tiny(300, 8, Metric::L2, 21).generate();
        let exact1 = build_knn_graph_exact_threads(&ds.base, Metric::L2, 6, 1);
        let exact4 = build_knn_graph_exact_threads(&ds.base, Metric::L2, 6, 4);
        assert_eq!(exact1, exact4);
        let p = NnDescentParams { k: 6, ..Default::default() };
        let nd1 = build_knn_graph_nn_descent_threads(&ds.base, Metric::L2, p, 1);
        let nd4 = build_knn_graph_nn_descent_threads(&ds.base, Metric::L2, p, 4);
        assert_eq!(nd1, nd4);
    }

    #[test]
    fn nn_descent_is_deterministic() {
        let ds = DatasetSpec::tiny(200, 8, Metric::L2, 13).generate();
        let p = NnDescentParams { k: 6, ..Default::default() };
        let a = build_knn_graph_nn_descent(&ds.base, Metric::L2, p);
        let b = build_knn_graph_nn_descent(&ds.base, Metric::L2, p);
        assert_eq!(a, b);
    }

    #[test]
    fn neighbor_list_insert_semantics() {
        let mut l = NeighborList::new(2);
        assert!(l.insert(DistValue(3.0), 1));
        assert!(l.insert(DistValue(1.0), 2));
        assert!(!l.insert(DistValue(1.0), 2)); // duplicate
        assert!(l.insert(DistValue(2.0), 3)); // evicts 3.0
        assert!(!l.insert(DistValue(5.0), 4)); // worse than worst
        assert_eq!(l.ids(), vec![2, 3]);
        // On a full list the bound test runs first; neither rejection
        // may touch the list.
        let full = l.items.clone();
        assert!(!l.insert(DistValue(0.5), 3)); // duplicate, though better
        assert!(!l.insert(DistValue(2.0), 4)); // equal to the worst
        assert!(l.items == full);
    }

    /// 64-bit FNV-1a over a graph's shape and every slot of every row.
    fn graph_hash(g: &FixedDegreeGraph) -> u64 {
        let words = [g.len() as u32, g.degree() as u32]
            .into_iter()
            .chain((0..g.len() as u32).flat_map(|v| g.row(v).iter().copied()));
        words.flat_map(u32::to_le_bytes).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn nn_descent_matches_the_recorded_graph() {
        // 3000 rows is above `CagraParams::exact_threshold`, so the CAGRA
        // build runs NN-descent too. Both constants were recorded before
        // the insert pass checked its bound first, prefiltered pairs and
        // split by owner, and are the same under the scalar and the
        // AVX2+FMA kernels. Three threads split the lists unevenly.
        let ds = DatasetSpec::tiny(3000, 24, Metric::L2, 3).generate();
        let knn = NnDescentParams { k: 32, ..Default::default() };
        let cagra = CagraBuilder::new(
            Metric::L2,
            CagraParams { graph_degree: 16, intermediate_degree: 32, ..Default::default() },
        );
        for threads in [1, 2, 3] {
            let g = build_knn_graph_nn_descent_threads(&ds.base, Metric::L2, knn, threads);
            assert_eq!(graph_hash(&g), 0xf307_1182_4bb5_c3c1, "k-NN graph, {threads} threads");
            let g = cagra.build_with_threads(&ds.base, threads);
            assert_eq!(graph_hash(&g), 0x79f1_ef4e_794c_0b10, "CAGRA graph, {threads} threads");
        }
    }

    #[test]
    fn knn_recall_of_identical_graph_is_one() {
        let base = VectorStore::from_flat(1, (0..16).map(|i| i as f32).collect());
        let g = build_knn_graph_exact(&base, Metric::L2, 3);
        assert_eq!(knn_graph_recall(&g, &g), 1.0);
    }

    #[test]
    #[should_panic(expected = "must be <")]
    fn k_too_large_rejected() {
        let base = VectorStore::from_flat(1, vec![0.0, 1.0]);
        build_knn_graph_exact(&base, Metric::L2, 2);
    }
}
