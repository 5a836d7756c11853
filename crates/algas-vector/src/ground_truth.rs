//! Exact k-NN ground truth and the recall metric.
//!
//! Recall is the paper's sole quality metric:
//! `recall = |K_approx ∩ K_truth| / |K_truth|` (§II-A).

use crate::metric::{DistValue, Metric};
use crate::parallel::{max_threads, par_map};
use crate::store::VectorStore;
use std::collections::BinaryHeap;

/// Exact k-nearest-neighbor ids for a query set, one row per query,
/// each row sorted by ascending distance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroundTruth {
    /// `neighbors[q]` = ids of the k exact nearest neighbors of query `q`.
    pub neighbors: Vec<Vec<u32>>,
    /// The k this truth was computed for.
    pub k: usize,
}

/// Computes exact k-NN by brute force, parallelized over queries
/// ([`par_map`], so the rows do not depend on the thread count).
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

    let neighbors =
        par_map(queries.len(), 4, max_threads(), |q| knn_single(base, queries.get(q), metric, k));
    GroundTruth { neighbors, k }
}

/// Exact k-NN of one query via a batched scan plus a bounded max-heap.
pub fn knn_single(base: &VectorStore, query: &[f32], metric: Metric, k: usize) -> Vec<u32> {
    // One SIMD sweep over the whole corpus, then a bounded max-heap:
    // the root is the worst of the current best-k and is evicted when
    // something closer arrives.
    let mut dists = Vec::new();
    metric.distance_all(query, base, &mut dists);
    let mut heap: BinaryHeap<(DistValue, u32)> = BinaryHeap::with_capacity(k + 1);
    for (i, &dist) in dists.iter().enumerate() {
        let d = DistValue(dist);
        if heap.len() < k {
            heap.push((d, i as u32));
        } else if d < heap.peek().expect("heap non-empty").0 {
            heap.pop();
            heap.push((d, i as u32));
        }
    }
    let mut pairs: Vec<(DistValue, u32)> = heap.into_vec();
    pairs.sort();
    pairs.into_iter().map(|(_, id)| id).collect()
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

    #[test]
    fn knn_single_finds_true_neighbors() {
        let base = grid_store();
        let ids = knn_single(&base, &[3.2], Metric::L2, 3);
        assert_eq!(ids, vec![3, 4, 2]); // distances 0.2, 0.8, 1.2
    }

    #[test]
    fn brute_force_matches_single() {
        let base = grid_store();
        let queries = VectorStore::from_flat(1, vec![3.2, 8.9]);
        let gt = brute_force_knn(&base, &queries, Metric::L2, 2);
        assert_eq!(gt.neighbors[0], knn_single(&base, &[3.2], Metric::L2, 2));
        assert_eq!(gt.neighbors[1], knn_single(&base, &[8.9], Metric::L2, 2));
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
    fn ties_are_deterministic() {
        // Two points equidistant from the query: total_cmp + id ordering
        // must give a stable answer across runs.
        let base = VectorStore::from_flat(1, vec![1.0, -1.0, 5.0]);
        let a = knn_single(&base, &[0.0], Metric::L2, 2);
        let b = knn_single(&base, &[0.0], Metric::L2, 2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert!(a.contains(&0) && a.contains(&1));
    }
}
