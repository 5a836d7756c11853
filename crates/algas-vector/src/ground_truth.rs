//! Exact k-NN ground truth and the recall metric.
//!
//! Recall is the paper's sole quality metric:
//! `recall = |K_approx ∩ K_truth| / |K_truth|` (§II-A).

use crate::metric::{DistValue, Metric};
use crate::parallel::{max_threads, par_map};
use crate::store::VectorStore;
use std::collections::BinaryHeap;
use std::ops::Range;

/// Exact k-nearest-neighbor ids for a query set, one row per query,
/// each row sorted by ascending distance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroundTruth {
    /// `neighbors[q]` = ids of the k exact nearest neighbors of query `q`.
    pub neighbors: Vec<Vec<u32>>,
    /// The k this truth was computed for.
    pub k: usize,
}

/// Queries one exact k-NN scan takes at a time: each corpus row is
/// loaded once per block and scored against every query in it.
pub const QUERY_BLOCK: usize = 8;

/// Computes exact k-NN by brute force, parallelized over blocks of
/// [`QUERY_BLOCK`] queries ([`par_map`], so the rows do not depend on
/// the thread count).
/// Complexity O(|queries| · |base| · dim); fine at the corpus
/// sizes this reproduction uses.
///
/// # Panics
/// Panics if `k == 0`, `k > base.len()`, or the stores disagree on
/// dimension.
pub fn brute_force_knn(
    base: &VectorStore,
    queries: &VectorStore,
    metric: Metric,
    k: usize,
) -> GroundTruth {
    assert!(k > 0, "k must be positive");
    assert!(k <= base.len(), "k={k} exceeds corpus size {}", base.len());
    assert_eq!(base.dim(), queries.dim(), "dimension mismatch");

    let nq = queries.len();
    let blocks = par_map(nq.div_ceil(QUERY_BLOCK), 1, max_threads(), |b| {
        knn_block(base, queries, b * QUERY_BLOCK..nq.min((b + 1) * QUERY_BLOCK), metric, k, false)
    });
    GroundTruth { neighbors: blocks.concat(), k }
}

/// Exact k-NN over `base` of queries `block` of `queries`, one id row
/// per query sorted by ascending distance (ties by id), from one
/// [`Metric::distance_block`] scan: each query's bounded max-heap is fed
/// the rows in order, its root the worst of the current best k. With
/// `skip_self`, row `q` is no candidate of query `q` (a store's k-NN
/// graph over itself).
pub fn knn_block(
    base: &VectorStore,
    queries: &VectorStore,
    block: Range<usize>,
    metric: Metric,
    k: usize,
    skip_self: bool,
) -> Vec<Vec<u32>> {
    let mut heaps: Vec<BinaryHeap<(DistValue, u32)>> =
        block.clone().map(|_| BinaryHeap::with_capacity(k + 1)).collect();
    metric.distance_block(queries, block.clone(), base, |i, dists| {
        for ((q, heap), &dist) in block.clone().zip(&mut heaps).zip(dists) {
            if skip_self && q == i {
                continue;
            }
            let d = DistValue(dist);
            if heap.len() < k {
                heap.push((d, i as u32));
            } else if d < heap.peek().expect("heap non-empty").0 {
                heap.pop();
                heap.push((d, i as u32));
            }
        }
    });
    heaps
        .into_iter()
        .map(|heap| {
            let mut pairs = heap.into_vec();
            pairs.sort();
            pairs.into_iter().map(|(_, id)| id).collect()
        })
        .collect()
}

/// Recall of one result list against one truth list.
///
/// Only the first `k` entries of each are considered. Duplicate ids in
/// `approx` are counted once (a correct system never produces them, and
/// counting them twice would inflate recall).
pub fn recall(approx: &[u32], truth: &[u32], k: usize) -> f64 {
    assert!(k > 0);
    let truth_k = &truth[..k.min(truth.len())];
    if truth_k.is_empty() {
        return 1.0;
    }
    let mut seen = std::collections::HashSet::with_capacity(k);
    let mut hits = 0usize;
    for &id in approx.iter().take(k) {
        if seen.insert(id) && truth_k.contains(&id) {
            hits += 1;
        }
    }
    hits as f64 / truth_k.len() as f64
}

/// Mean recall over a query set.
pub fn mean_recall(approx: &[Vec<u32>], truth: &GroundTruth, k: usize) -> f64 {
    assert_eq!(approx.len(), truth.neighbors.len(), "result/truth count mismatch");
    if approx.is_empty() {
        return 1.0;
    }
    let total: f64 = approx.iter().zip(&truth.neighbors).map(|(a, t)| recall(a, t, k)).sum();
    total / approx.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_store() -> VectorStore {
        // Points at x = 0, 1, 2, ..., 9 on a line.
        VectorStore::from_flat(1, (0..10).map(|i| i as f32).collect())
    }

    /// Exact k-NN of one query, through a one-query block.
    fn knn_one(base: &VectorStore, query: &[f32], k: usize) -> Vec<u32> {
        let queries = VectorStore::from_flat(base.dim(), query.to_vec());
        knn_block(base, &queries, 0..1, Metric::L2, k, false).remove(0)
    }

    #[test]
    fn knn_block_finds_true_neighbors() {
        let base = grid_store();
        assert_eq!(knn_one(&base, &[3.2], 3), vec![3, 4, 2]); // distances 0.2, 0.8, 1.2
        let all = knn_block(&base, &base, 2..5, Metric::L2, 2, true);
        assert_eq!(all, [[1, 3], [2, 4], [3, 5]]); // each row's self skipped
    }

    #[test]
    fn brute_force_matches_one_query_blocks() {
        // 19 queries: two full blocks and a short one.
        let base = crate::datasets::DatasetSpec::tiny(300, 37, Metric::L2, 4).generate().base;
        let queries = VectorStore::from_rows(37, (0..19).map(|i| base.get(i * 13)));
        let gt = brute_force_knn(&base, &queries, Metric::L2, 5);
        assert_eq!(gt.neighbors.len(), 19);
        for (q, row) in gt.neighbors.iter().enumerate() {
            assert_eq!(row, &knn_one(&base, queries.get(q), 5), "query {q}");
        }
    }

    #[test]
    fn recall_counts_intersection() {
        assert_eq!(recall(&[1, 2, 3, 4], &[1, 2, 9, 10], 4), 0.5);
        assert_eq!(recall(&[1, 2], &[1, 2], 2), 1.0);
        assert_eq!(recall(&[5, 6], &[1, 2], 2), 0.0);
    }

    #[test]
    fn recall_ignores_duplicates_in_approx() {
        assert_eq!(recall(&[1, 1, 1, 1], &[1, 2, 3, 4], 4), 0.25);
    }

    #[test]
    fn recall_truncates_to_k() {
        // Only the first k entries of approx count.
        assert_eq!(recall(&[9, 9, 1, 2], &[1, 2], 2), 0.0);
    }

    #[test]
    fn mean_recall_averages() {
        let truth = GroundTruth { neighbors: vec![vec![1, 2], vec![3, 4]], k: 2 };
        let approx = vec![vec![1, 2], vec![3, 9]];
        assert_eq!(mean_recall(&approx, &truth, 2), 0.75);
    }

    #[test]
    #[should_panic(expected = "exceeds corpus size")]
    fn k_larger_than_corpus_panics() {
        let base = grid_store();
        let queries = VectorStore::from_flat(1, vec![0.0]);
        brute_force_knn(&base, &queries, Metric::L2, 11);
    }

    #[test]
    fn brute_force_matches_the_recorded_truth_at_dim_128() {
        // Dim 128 runs the float kernels' 32-float main loop. The
        // constants were recorded with the AVX2+FMA kernels; only the
        // x86 tiers, whose float bits equal AVX2's, are held to them.
        if !["avx2+fma", "avx512"].contains(&crate::simd::kernel_name()) {
            return;
        }
        for (metric, want) in
            [(Metric::L2, 0x388a_f197_bf12_cd51u64), (Metric::Cosine, 0x9e15_1263_36e2_c60a)]
        {
            let ds = crate::datasets::DatasetSpec::tiny(2000, 128, metric, 11).generate();
            let gt = brute_force_knn(&ds.base, &ds.queries, metric, 10);
            let hash = gt
                .neighbors
                .iter()
                .flatten()
                .flat_map(|id| id.to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                });
            assert_eq!(hash, want, "{metric:?}");
        }
    }

    #[test]
    fn ties_are_deterministic() {
        // Two points equidistant from the query: total_cmp + id ordering
        // must give a stable answer across runs.
        let base = VectorStore::from_flat(1, vec![1.0, -1.0, 5.0]);
        let a = knn_one(&base, &[0.0], 2);
        let b = knn_one(&base, &[0.0], 2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert!(a.contains(&0) && a.contains(&1));
    }
}
