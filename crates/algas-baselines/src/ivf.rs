//! IVF-Flat — the quantization-family baseline (FAISS-GPU's IVF, paper ref \[21\]).
//!
//! Build: Lloyd k-means over the corpus into `nlist` cells. Search:
//! score the query against all centroids, scan the `nprobe` nearest
//! cells exhaustively, keep the TopK. Cost accounting mirrors the GPU
//! execution: both scans are embarrassingly parallel, so their cycles
//! divide across the CTAs assigned to the query.

use algas_gpu_sim::{CostModel, CtaWork, DeviceProps, QueryWork};
use algas_vector::metric::DistValue;
use algas_vector::parallel::{max_threads, par_map};
use algas_vector::{Metric, VectorStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BinaryHeap;

/// IVF build/search parameters.
#[derive(Clone, Copy, Debug)]
pub struct IvfParams {
    /// Number of k-means cells (FAISS rule of thumb: ~√n).
    pub nlist: usize,
    /// Cells probed per query (the recall knob).
    pub nprobe: usize,
    /// Lloyd iterations.
    pub kmeans_iters: usize,
    /// Seed for centroid initialization.
    pub seed: u64,
    /// CTAs across which a query's scan parallelizes.
    pub n_ctas: usize,
}

impl Default for IvfParams {
    fn default() -> Self {
        Self { nlist: 64, nprobe: 8, kmeans_iters: 10, seed: 0x1FF, n_ctas: 8 }
    }
}

/// A built IVF-Flat index.
#[derive(Clone, Debug)]
pub struct IvfIndex {
    /// Cell centroids.
    pub centroids: VectorStore,
    /// Inverted lists: member ids per cell.
    pub lists: Vec<Vec<u32>>,
    /// Metric shared with the corpus.
    pub metric: Metric,
    params: IvfParams,
}

/// Builds the index with Lloyd k-means (centroids initialized from
/// distinct random corpus points; empty cells re-seeded from the
/// largest cell's farthest member).
///
/// # Panics
/// Panics if `nlist == 0`, `nlist > n`, or `nprobe > nlist`.
pub fn build_ivf(base: &VectorStore, metric: Metric, params: IvfParams) -> IvfIndex {
    let n = base.len();
    assert!(params.nlist > 0 && params.nlist <= n, "need 0 < nlist <= n");
    assert!(params.nprobe > 0 && params.nprobe <= params.nlist, "need 0 < nprobe <= nlist");
    let mut rng = StdRng::seed_from_u64(params.seed);

    // Distinct random initial centroids.
    let mut chosen = std::collections::HashSet::new();
    let mut centroids = VectorStore::with_capacity(base.dim(), params.nlist);
    while chosen.len() < params.nlist {
        let i = rng.gen_range(0..n);
        if chosen.insert(i) {
            centroids.push(base.get(i));
        }
    }

    // Nearest centroid of every point (parallel over points).
    let assign = |centroids: &VectorStore| -> Vec<usize> {
        par_map(n, 256, max_threads(), |i| nearest_centroid(centroids, base.get(i), metric).0)
    };

    let mut assignment = vec![0usize; n];
    for _iter in 0..params.kmeans_iters {
        let new_assignment = assign(&centroids);
        let changed = new_assignment.iter().zip(&assignment).filter(|(a, b)| a != b).count();
        assignment = new_assignment;

        // Update: mean of members.
        let dim = base.dim();
        let mut sums = vec![0.0f64; params.nlist * dim];
        let mut counts = vec![0usize; params.nlist];
        for (i, &c) in assignment.iter().enumerate() {
            counts[c] += 1;
            for (d, &x) in base.get(i).iter().enumerate() {
                sums[c * dim + d] += x as f64;
            }
        }
        for c in 0..params.nlist {
            if counts[c] == 0 {
                // Re-seed empty cell from a random point.
                let i = rng.gen_range(0..n);
                let row = base.get(i).to_vec();
                centroids.get_mut(c).copy_from_slice(&row);
                continue;
            }
            let inv = 1.0 / counts[c] as f64;
            for d in 0..dim {
                centroids.get_mut(c)[d] = (sums[c * dim + d] * inv) as f32;
            }
        }
        if changed == 0 {
            break;
        }
    }
    if metric.requires_normalization() {
        centroids.normalize_l2();
    }

    // Final assignment into inverted lists.
    let final_assignment = assign(&centroids);
    let mut lists = vec![Vec::new(); params.nlist];
    for (i, &c) in final_assignment.iter().enumerate() {
        lists[c].push(i as u32);
    }
    IvfIndex { centroids, lists, metric, params }
}

fn nearest_centroid(centroids: &VectorStore, v: &[f32], metric: Metric) -> (usize, f32) {
    let mut dists = Vec::with_capacity(centroids.len());
    metric.distance_all(v, centroids, &mut dists);
    let mut best = (0usize, f32::INFINITY);
    for (c, &d) in dists.iter().enumerate() {
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

impl IvfIndex {
    /// Parameters the index was built with.
    pub fn params(&self) -> &IvfParams {
        &self.params
    }

    /// Searches `query`, returning the TopK and the timed work.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn search_traced(
        &self,
        base: &VectorStore,
        query: &[f32],
        k: usize,
        cost: &CostModel,
        device: &DeviceProps,
    ) -> (Vec<(DistValue, u32)>, QueryWork) {
        assert!(k > 0, "k must be positive");
        let dim = base.dim();

        // Phase 1: score all centroids (one batched sweep), keep the
        // nprobe nearest.
        let mut dists: Vec<f32> = Vec::with_capacity(self.centroids.len());
        self.metric.distance_all(query, &self.centroids, &mut dists);
        let mut cheap: BinaryHeap<(DistValue, usize)> = BinaryHeap::new();
        for (c, &dist) in dists.iter().enumerate() {
            let d = DistValue(dist);
            if cheap.len() < self.params.nprobe {
                cheap.push((d, c));
            } else if d < cheap.peek().expect("non-empty").0 {
                cheap.pop();
                cheap.push((d, c));
            }
        }
        let probe: Vec<usize> = cheap.into_iter().map(|(_, c)| c).collect();

        // Phase 2: exhaustive scan of the probed lists, one batched
        // kernel call per posting list.
        let mut heap: BinaryHeap<(DistValue, u32)> = BinaryHeap::with_capacity(k + 1);
        let mut scanned = 0u64;
        for &c in &probe {
            self.metric.distance_batch(query, base, &self.lists[c], &mut dists);
            for (&id, &dist) in self.lists[c].iter().zip(&dists) {
                scanned += 1;
                let d = DistValue(dist);
                if heap.len() < k {
                    heap.push((d, id));
                } else if d < heap.peek().expect("non-empty").0 {
                    heap.pop();
                    heap.push((d, id));
                }
            }
        }
        let mut out: Vec<(DistValue, u32)> = heap.into_vec();
        out.sort();

        // Cost: centroid scan + posting scan, cycles split across CTAs;
        // per-CTA TopK selection folded into the per-candidate constant.
        let total_evals = self.centroids.len() as u64 + scanned;
        let cycles = total_evals * (cost.distance_cycles(dim) + 16);
        let n_ctas = self.params.n_ctas.max(1);
        let per_cta = cycles.div_ceil(n_ctas as u64);
        let work = QueryWork {
            ctas: vec![CtaWork { search_ns: device.cycles_to_ns(per_cta), steps: 1 }; n_ctas],
            query_bytes: (dim * 4) as u64,
            result_bytes: (n_ctas * k * 8) as u64,
            gpu_merge_ns: device.cycles_to_ns(cost.gpu_topk_merge_cycles(n_ctas, k)),
            host_merge_ns: 0,
        };
        (out, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algas_vector::datasets::DatasetSpec;
    use algas_vector::ground_truth::{brute_force_knn, mean_recall};

    fn setup() -> algas_vector::datasets::GeneratedDataset {
        DatasetSpec::tiny(600, 12, Metric::L2, 201).generate()
    }

    #[test]
    fn every_point_lands_in_exactly_one_list() {
        let ds = setup();
        let idx = build_ivf(&ds.base, Metric::L2, IvfParams { nlist: 16, ..Default::default() });
        let total: usize = idx.lists.iter().map(|l| l.len()).sum();
        assert_eq!(total, ds.base.len());
        let mut seen = std::collections::HashSet::new();
        for l in &idx.lists {
            for &id in l {
                assert!(seen.insert(id), "id {id} in two lists");
            }
        }
    }

    #[test]
    fn full_probe_equals_brute_force() {
        let ds = setup();
        let idx = build_ivf(
            &ds.base,
            Metric::L2,
            IvfParams { nlist: 8, nprobe: 8, ..Default::default() },
        );
        let cost = CostModel::default();
        let dev = DeviceProps::rtx_a6000();
        let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, 5);
        for q in 0..ds.queries.len().min(20) {
            let (found, _) = idx.search_traced(&ds.base, ds.queries.get(q), 5, &cost, &dev);
            let ids: Vec<u32> = found.iter().map(|&(_, id)| id).collect();
            assert_eq!(ids, gt.neighbors[q], "query {q}: nprobe=nlist must be exact");
        }
    }

    #[test]
    fn recall_grows_with_nprobe() {
        let ds = setup();
        let cost = CostModel::default();
        let dev = DeviceProps::rtx_a6000();
        let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, 10);
        let mut recalls = Vec::new();
        for nprobe in [1, 4, 16] {
            let idx = build_ivf(
                &ds.base,
                Metric::L2,
                IvfParams { nlist: 16, nprobe, ..Default::default() },
            );
            let results: Vec<Vec<u32>> = (0..ds.queries.len())
                .map(|q| {
                    idx.search_traced(&ds.base, ds.queries.get(q), 10, &cost, &dev)
                        .0
                        .into_iter()
                        .map(|(_, id)| id)
                        .collect()
                })
                .collect();
            recalls.push(mean_recall(&results, &gt, 10));
        }
        assert!(recalls[0] <= recalls[1] && recalls[1] <= recalls[2], "recalls: {recalls:?}");
        assert!(recalls[2] > 0.99, "full-ish probe should be near exact: {}", recalls[2]);
    }

    #[test]
    fn work_scales_with_nprobe() {
        let ds = setup();
        let cost = CostModel::default();
        let dev = DeviceProps::rtx_a6000();
        let small = build_ivf(
            &ds.base,
            Metric::L2,
            IvfParams { nlist: 16, nprobe: 1, ..Default::default() },
        );
        let large = build_ivf(
            &ds.base,
            Metric::L2,
            IvfParams { nlist: 16, nprobe: 12, ..Default::default() },
        );
        let (_, w1) = small.search_traced(&ds.base, ds.queries.get(0), 5, &cost, &dev);
        let (_, w2) = large.search_traced(&ds.base, ds.queries.get(0), 5, &cost, &dev);
        assert!(w2.max_cta_ns() > w1.max_cta_ns());
    }

    #[test]
    fn build_is_deterministic() {
        let ds = setup();
        let p = IvfParams { nlist: 12, ..Default::default() };
        let a = build_ivf(&ds.base, Metric::L2, p);
        let b = build_ivf(&ds.base, Metric::L2, p);
        assert_eq!(a.lists, b.lists);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn cosine_metric_normalizes_centroids() {
        let ds = DatasetSpec::tiny(400, 8, Metric::Cosine, 11).generate();
        let idx = build_ivf(&ds.base, Metric::Cosine, IvfParams { nlist: 8, ..Default::default() });
        for row in idx.centroids.iter() {
            let norm: f32 = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-3, "centroid norm {norm}");
        }
    }

    #[test]
    #[should_panic(expected = "nprobe <= nlist")]
    fn bad_params_rejected() {
        let ds = setup();
        build_ivf(&ds.base, Metric::L2, IvfParams { nlist: 4, nprobe: 8, ..Default::default() });
    }
}
