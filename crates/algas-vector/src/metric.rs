//! Distance kernels.
//!
//! The paper's intra-CTA search distributes the dimensions of a vector
//! across the threads of a CTA: each thread computes a partial sum over a
//! strided subset of dimensions and the partials are combined with warp
//! shuffles (Algorithm 1 lines 10–13). The kernels here compute exactly
//! the same quantity; [`subvector_partials`] exposes the per-lane partial
//! sums so tests can verify the warp-style reduction agrees with the
//! scalar kernel, and so `algas-gpu-sim` can charge cost per lane.

use crate::simd;
use crate::store::VectorStore;

/// Distance metric over the corpus.
///
/// Both metrics are *dissimilarities*: smaller is closer. Cosine
/// similarity is mapped to `1 - cos(a, b)`, computed as an inner product
/// over L2-normalized vectors (see [`crate::VectorStore::normalize_l2`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Squared Euclidean distance. (The square root is order-preserving
    /// and therefore skipped, as in every system the paper compares to.)
    L2,
    /// Cosine dissimilarity `1 - a·b` over normalized vectors.
    Cosine,
}

impl Metric {
    /// Computes the dissimilarity between `a` and `b`.
    ///
    /// # Panics
    /// Panics if the slices differ in length, in release builds too
    /// (the kernels in [`crate::simd`] assert it).
    #[inline]
    pub fn distance(self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::L2 => l2_squared(a, b),
            Metric::Cosine => 1.0 - inner_product(a, b),
        }
    }

    /// Scores `a` against rows `ids` of `store`, one dissimilarity per
    /// id into `out` (cleared first, in `ids` order): `out[j]` is
    /// `self.distance(a, &store.row_padded(ids[j])[..a.len()])`, bit
    /// for bit. The length comes from `a`, so a caller that passes a
    /// row as [`get`](VectorStore::get) returns it (`dim` floats) gets
    /// exactly the per-pair distances of the unpadded rows, and one that
    /// passes a padded query (`stride` floats) those of the padded rows.
    ///
    /// This is the one-to-many entry every bulk loop uses (the search
    /// walk, the rerank, NN-descent, CAGRA's pruning): one dispatched
    /// call for the whole list, rows prefetched
    /// [`simd::PREFETCH_AHEAD`] ids ahead, and on AVX-512 `a` held in
    /// registers across rows.
    ///
    /// # Panics
    /// Panics if `a.len() > store.stride()` or any id is out of range,
    /// in release builds too.
    pub fn distance_rows(self, a: &[f32], store: &VectorStore, ids: &[u32], out: &mut Vec<f32>) {
        assert!(a.len() <= store.stride(), "vector longer than the store's rows");
        out.clear();
        out.resize(ids.len(), 0.0);
        match self {
            Metric::L2 => simd::l2_squared_rows(a, store.flat(), store.stride(), ids, out),
            Metric::Cosine => {
                simd::inner_product_rows(a, store.flat(), store.stride(), ids, out);
                out.iter_mut().for_each(|d| *d = 1.0 - *d);
            }
        }
    }

    /// Scores queries `block` of `queries` against every row of `base`,
    /// in row order: `f(i, d)` gets row `i`'s dissimilarities, `d[j]`
    /// for query `block.start + j`, each bit for bit what
    /// [`distance_all`](Self::distance_all) gives that query (the
    /// kernels are symmetric in their operands).
    ///
    /// The many-to-many scan of exact k-NN: each row is loaded once per
    /// block and scored against every query in it, where a
    /// query-at-a-time sweep streams the whole corpus once per query.
    ///
    /// # Panics
    /// Panics if the stores differ in dimension or `block` runs past
    /// `queries`.
    pub fn distance_block(
        self,
        queries: &VectorStore,
        block: std::ops::Range<usize>,
        base: &VectorStore,
        mut f: impl FnMut(usize, &[f32]),
    ) {
        assert_eq!(queries.dim(), base.dim(), "dimension mismatch");
        assert!(block.end <= queries.len(), "query block out of range");
        let ids: Vec<u32> = block.map(|q| q as u32).collect();
        let mut dists = Vec::with_capacity(ids.len());
        for i in 0..base.len() {
            self.distance_rows(base.row_padded(i), queries, &ids, &mut dists);
            f(i, &dists);
        }
    }

    /// Scores a batch of store rows against one query, appending one
    /// dissimilarity per id into `out` (cleared first, in `ids` order).
    ///
    /// The query is zero-padded once to the store's
    /// [`stride`](VectorStore::stride) (thread-local scratch, no
    /// steady-state allocation) and handed to
    /// [`distance_rows`](Self::distance_rows), so the SIMD kernels run
    /// full-width loops over [`row_padded`](VectorStore::row_padded)
    /// rows with no scalar tail.
    ///
    /// # Panics
    /// Panics if `query.len() != store.dim()` or any id is out of range.
    pub fn distance_batch(
        self,
        query: &[f32],
        store: &VectorStore,
        ids: &[u32],
        out: &mut Vec<f32>,
    ) {
        assert_eq!(query.len(), store.dim(), "query dimension mismatch");
        simd::with_padded_query(query, store.stride(), |q| self.distance_rows(q, store, ids, out));
    }

    /// Scores the query against **every** row of the store, appending
    /// one dissimilarity per row into `out` (cleared first, row order).
    ///
    /// The contiguous-scan sibling of [`distance_batch`](Self::distance_batch)
    /// for exhaustive passes (k-means assignment, IVF centroid scans,
    /// brute-force ground truth) — no id list needs materializing, and
    /// the row walk is already in prefetch-friendly address order.
    ///
    /// # Panics
    /// Panics if `query.len() != store.dim()`.
    pub fn distance_all(self, query: &[f32], store: &VectorStore, out: &mut Vec<f32>) {
        assert_eq!(query.len(), store.dim(), "query dimension mismatch");
        out.clear();
        out.reserve(store.len());
        simd::with_padded_query(query, store.stride(), |q| match self {
            Metric::L2 => {
                for i in 0..store.len() {
                    if i + simd::PREFETCH_AHEAD < store.len() {
                        simd::prefetch_row(store.row_padded(i + simd::PREFETCH_AHEAD));
                    }
                    out.push(simd::l2_squared(q, store.row_padded(i)));
                }
            }
            Metric::Cosine => {
                for i in 0..store.len() {
                    if i + simd::PREFETCH_AHEAD < store.len() {
                        simd::prefetch_row(store.row_padded(i + simd::PREFETCH_AHEAD));
                    }
                    out.push(1.0 - simd::inner_product(q, store.row_padded(i)));
                }
            }
        });
    }

    /// Human-readable name matching Table III.
    pub fn name(self) -> &'static str {
        match self {
            Metric::L2 => "Euclidean",
            Metric::Cosine => "CosineSimilarity",
        }
    }

    /// Whether corpora under this metric must be L2-normalized at load.
    pub fn requires_normalization(self) -> bool {
        matches!(self, Metric::Cosine)
    }
}

/// Squared Euclidean distance (runtime-dispatched SIMD, see [`crate::simd`]).
#[inline]
pub fn l2_squared(a: &[f32], b: &[f32]) -> f32 {
    simd::l2_squared(a, b)
}

/// Inner product `a·b` (runtime-dispatched SIMD, see [`crate::simd`]).
#[inline]
pub fn inner_product(a: &[f32], b: &[f32]) -> f32 {
    simd::inner_product(a, b)
}

/// Computes the per-lane partial sums of the warp-style distance
/// reduction: lane `l` of a warp with `lanes` threads accumulates the
/// contributions of dimensions `l, l + lanes, l + 2·lanes, …`.
///
/// `sum(subvector_partials(...)) == Metric::distance(...)` up to the
/// floating-point reassociation the GPU reduction also performs.
///
/// # Cosine lane collapse (intentional)
///
/// For [`Metric::Cosine`] the per-lane values are **not** the lanes'
/// raw inner-product partials: the `1 -` offset that turns similarity
/// into dissimilarity belongs to no lane in particular, so this
/// function folds the entire dissimilarity into lane 0 and zeroes
/// lanes `1..`. The invariant callers rely on — the lane *sum* equals
/// [`Metric::distance`] — still holds exactly; only the per-lane
/// decomposition is degenerate for Cosine. This mirrors how the GPU
/// kernel applies the affine `1 - x` once after the warp reduction
/// rather than per lane, and the cost model charges lanes uniformly
/// regardless of the values they carry, so the collapse is observable
/// only to code that inspects individual Cosine lanes. Pinned by the
/// `cosine_partials_collapse_into_lane_zero` test; do not "fix" it to
/// distribute the offset across lanes without also changing the GPU
/// cost accounting it mirrors.
pub fn subvector_partials(metric: Metric, a: &[f32], b: &[f32], lanes: usize) -> Vec<f32> {
    assert!(lanes > 0, "warp must have at least one lane");
    assert_eq!(a.len(), b.len());
    let mut partials = vec![0.0f32; lanes];
    for (d, (x, y)) in a.iter().zip(b).enumerate() {
        let lane = d % lanes;
        match metric {
            Metric::L2 => {
                let diff = x - y;
                partials[lane] += diff * diff;
            }
            Metric::Cosine => partials[lane] += x * y,
        }
    }
    if metric == Metric::Cosine {
        // The `1 -` offset belongs to lane 0, mirroring the scalar kernel.
        partials[0] = 1.0 - (partials[0] + partials.iter().skip(1).sum::<f32>());
        for p in partials.iter_mut().skip(1) {
            *p = 0.0;
        }
        // Collapse: lane 0 now carries the full dissimilarity. We keep the
        // vector shape so the caller's cost accounting stays uniform.
    }
    partials
}

/// A totally ordered wrapper for distance values.
///
/// ANNS candidate lists need a total order; distances produced by the
/// kernels above are never NaN for finite inputs, but the type system
/// doesn't know that. `DistValue` orders NaN last so a corrupted distance
/// can never masquerade as the best candidate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistValue(pub f32);

impl Eq for DistValue {}

impl PartialOrd for DistValue {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DistValue {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl From<f32> for DistValue {
    fn from(v: f32) -> Self {
        DistValue(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_matches_hand_computation() {
        assert_eq!(l2_squared(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(Metric::L2.distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn cosine_on_normalized_vectors() {
        let a = [1.0, 0.0];
        let b = [0.0, 1.0];
        assert!((Metric::Cosine.distance(&a, &a)).abs() < 1e-6);
        assert!((Metric::Cosine.distance(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn partials_sum_to_scalar_distance_l2() {
        let a: Vec<f32> = (0..37).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..37).map(|i| (37 - i) as f32 * 0.25).collect();
        for lanes in [1, 2, 8, 32, 64] {
            let partials = subvector_partials(Metric::L2, &a, &b, lanes);
            assert_eq!(partials.len(), lanes);
            let total: f32 = partials.iter().sum();
            let scalar = Metric::L2.distance(&a, &b);
            assert!((total - scalar).abs() < 1e-3, "lanes={lanes}: {total} vs {scalar}");
        }
    }

    #[test]
    fn partials_sum_to_scalar_distance_cosine() {
        let a = [0.6, 0.8, 0.0];
        let b = [0.0, 0.6, 0.8];
        let partials = subvector_partials(Metric::Cosine, &a, &b, 2);
        let total: f32 = partials.iter().sum();
        assert!((total - Metric::Cosine.distance(&a, &b)).abs() < 1e-6);
    }

    #[test]
    fn cosine_partials_collapse_into_lane_zero() {
        // Pins the documented lane-collapse: lane 0 carries the whole
        // Cosine dissimilarity, all other lanes are exactly zero.
        let a = [0.6, 0.8, 0.0, 0.0];
        let b = [0.0, 0.6, 0.8, 0.0];
        for lanes in [2, 3, 8] {
            let partials = subvector_partials(Metric::Cosine, &a, &b, lanes);
            assert_eq!(partials.len(), lanes);
            assert!(partials[1..].iter().all(|&p| p == 0.0), "lanes={lanes}");
            assert!((partials[0] - Metric::Cosine.distance(&a, &b)).abs() < 1e-6);
        }
    }

    #[test]
    fn distance_batch_matches_single_calls() {
        for dim in [3, 16, 37, 128] {
            let store = VectorStore::from_rows(
                dim,
                (0..9)
                    .map(|r| (0..dim).map(|d| ((r * dim + d) as f32).sin()).collect::<Vec<_>>())
                    .collect::<Vec<_>>()
                    .iter()
                    .map(|v| v.as_slice()),
            );
            let query: Vec<f32> = (0..dim).map(|d| (d as f32).cos()).collect();
            let ids: Vec<u32> = vec![4, 0, 8, 2, 2, 7];
            for metric in [Metric::L2, Metric::Cosine] {
                let mut out = Vec::new();
                metric.distance_batch(&query, &store, &ids, &mut out);
                assert_eq!(out.len(), ids.len());
                for (&id, &d) in ids.iter().zip(&out) {
                    let single = metric.distance(&query, store.get(id as usize));
                    assert!(
                        (d - single).abs() <= 1e-5 * single.abs().max(1.0),
                        "dim={dim} id={id}: batch {d} vs single {single}"
                    );
                }
                let mut all = Vec::new();
                metric.distance_all(&query, &store, &mut all);
                assert_eq!(all.len(), store.len());
                for (i, &d) in all.iter().enumerate() {
                    let single = metric.distance(&query, store.get(i));
                    assert!((d - single).abs() <= 1e-5 * single.abs().max(1.0));
                }
            }
        }
    }

    #[test]
    fn one_and_many_to_many_have_the_per_pair_bits() {
        for dim in [3, 24, 100, 128, 129, 131] {
            let store = VectorStore::from_rows(
                dim,
                (0..11)
                    .map(|r| (0..dim).map(|d| ((r * dim + d) as f32).sin()).collect::<Vec<_>>())
                    .collect::<Vec<_>>()
                    .iter()
                    .map(|v| v.as_slice()),
            );
            let ids: Vec<u32> = vec![4, 0, 10, 2, 2, 7];
            for metric in [Metric::L2, Metric::Cosine] {
                // One to many over `dim` floats: the unpadded pairs.
                let mut out = Vec::new();
                metric.distance_rows(store.get(3), &store, &ids, &mut out);
                for (&id, &d) in ids.iter().zip(&out) {
                    let pair = metric.distance(store.get(3), store.get(id as usize));
                    assert_eq!(d.to_bits(), pair.to_bits(), "{metric:?} dim={dim} id={id}");
                }
                // Many to many: each query's `distance_all` sweep.
                let mut rows_seen = 0;
                metric.distance_block(&store, 5..11, &store, |i, d| {
                    assert_eq!(i, rows_seen);
                    rows_seen += 1;
                    for (q, &got) in (5..11).zip(d) {
                        let pair = metric.distance(store.row_padded(q), store.row_padded(i));
                        assert_eq!(got.to_bits(), pair.to_bits(), "{metric:?} dim={dim} {q}/{i}");
                    }
                });
                assert_eq!(rows_seen, store.len());
                let mut all = Vec::new();
                metric.distance_all(store.get(7), &store, &mut all);
                metric.distance_block(&store, 7..8, &store, |i, d| {
                    assert_eq!(d[0].to_bits(), all[i].to_bits(), "{metric:?} dim={dim} row {i}");
                });
            }
        }
    }

    #[test]
    fn dist_value_orders_nan_last() {
        let mut v = [DistValue(f32::NAN), DistValue(1.0), DistValue(-2.0)];
        v.sort();
        assert_eq!(v[0].0, -2.0);
        assert_eq!(v[1].0, 1.0);
        assert!(v[2].0.is_nan());
    }

    #[test]
    fn metric_metadata() {
        assert_eq!(Metric::L2.name(), "Euclidean");
        assert!(Metric::Cosine.requires_normalization());
        assert!(!Metric::L2.requires_normalization());
    }
}
