//! Hierarchical NSW (HNSW) construction — the layered variant GANNS
//! \[23\] also builds (the paper's NSW-GANNS graph is the base layer of
//! this family).
//!
//! Layers are exponentially sparser copies of the corpus: every vertex
//! lives on layer 0; a vertex reaches layer `ℓ` with probability
//! `exp(-ℓ / m_L)`. Search descends greedily from the top layer's
//! entry to a good layer-0 entry point, then runs the usual beam
//! search. In the ALGAS serving stack, the hierarchy therefore acts as
//! a *smart entry selector* in front of the flat search the GPU
//! executes — [`HnswIndex::descend`] produces the entry vertex, and
//! [`HnswIndex::base`] is an ordinary [`FixedDegreeGraph`] any searcher
//! in this workspace consumes.

use crate::csr::FixedDegreeGraph;
use crate::nsw::beam_search;
use algas_vector::metric::DistValue;
use algas_vector::{Metric, VectorStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for HNSW construction.
#[derive(Clone, Copy, Debug)]
pub struct HnswParams {
    /// Links per vertex on the upper layers (layer 0 gets `2·m`).
    pub m: usize,
    /// Construction beam width.
    pub ef_construction: usize,
    /// Level-assignment normalization (`m_L`); the classic choice is
    /// `1 / ln(m)`.
    pub level_norm: f64,
    /// RNG seed for level assignment.
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        Self { m: 16, ef_construction: 64, level_norm: 1.0 / (16f64).ln(), seed: 0x9A5F }
    }
}

/// A built HNSW index.
#[derive(Clone, Debug)]
pub struct HnswIndex {
    /// `layers[0]` is the base graph over all vertices; `layers[ℓ]`
    /// for ℓ ≥ 1 contains only vertices of level ≥ ℓ (other rows stay
    /// padded).
    layers: Vec<FixedDegreeGraph>,
    /// Level of each vertex.
    levels: Vec<u8>,
    /// Entry vertex (highest-level vertex).
    entry: u32,
    metric: Metric,
}

/// Builds an HNSW index over `base`.
///
/// # Panics
/// Panics if `m == 0` or `ef_construction < m`.
pub fn build_hnsw(base: &VectorStore, metric: Metric, params: HnswParams) -> HnswIndex {
    assert!(params.m > 0, "m must be positive");
    assert!(params.ef_construction >= params.m, "ef_construction must be >= m");
    let n = base.len();
    let mut rng = StdRng::seed_from_u64(params.seed);

    // Assign levels: P(level ≥ ℓ) = exp(-ℓ / m_L).
    let levels: Vec<u8> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            ((-u.ln() * params.level_norm).floor() as usize).min(12) as u8
        })
        .collect();
    let max_level = levels.iter().copied().max().unwrap_or(0) as usize;
    let mut layers: Vec<FixedDegreeGraph> = (0..=max_level)
        .map(|l| FixedDegreeGraph::new(n, if l == 0 { params.m * 2 } else { params.m }))
        .collect();

    if n == 0 {
        return HnswIndex { layers, levels, entry: 0, metric };
    }

    let mut entry: u32 = 0;
    let mut entry_level: u8 = levels[0];
    for v in 1..n as u32 {
        let v_level = levels[v as usize];
        // Phase 1: greedy descent through layers above v's level.
        let mut ep = entry;
        let mut l = entry_level as usize;
        while l > v_level as usize {
            ep = greedy_closest(&layers[l], base, metric, base.get(v as usize), ep);
            l -= 1;
        }
        // Phase 2: insert on layers min(v_level, entry_level)..0.
        let top = (v_level as usize).min(entry_level as usize);
        for layer in (0..=top).rev() {
            let found = beam_search(
                &layers[layer],
                base,
                metric,
                base.get(v as usize),
                ep,
                params.ef_construction,
                Some(v),
            );
            let m = if layer == 0 { params.m } else { params.m / 2 + 1 };
            for &(dist, u) in found.iter().take(m) {
                connect_capped(&mut layers[layer], base, metric, v, u, dist);
                connect_capped(&mut layers[layer], base, metric, u, v, dist);
            }
            if let Some(&(_, best)) = found.first() {
                ep = best;
            }
        }
        if v_level > entry_level {
            entry = v;
            entry_level = v_level;
        }
    }
    HnswIndex { layers, levels, entry, metric }
}

/// One greedy hop-until-local-minimum pass on a single layer.
fn greedy_closest(
    graph: &FixedDegreeGraph,
    base: &VectorStore,
    metric: Metric,
    query: &[f32],
    start: u32,
) -> u32 {
    let mut cur = start;
    let mut cur_d = metric.distance(query, base.get(cur as usize));
    let mut row: Vec<u32> = Vec::new();
    let mut dists: Vec<f32> = Vec::new();
    loop {
        row.clear();
        row.extend(graph.neighbors(cur));
        metric.distance_batch(query, base, &row, &mut dists);
        let mut improved = false;
        for (&u, &d) in row.iter().zip(&dists) {
            if d < cur_d {
                cur = u;
                cur_d = d;
                improved = true;
            }
        }
        if !improved {
            return cur;
        }
    }
}

/// NSW-style degree-capped bidirectional connect (shared logic with the
/// flat builder).
fn connect_capped(
    graph: &mut FixedDegreeGraph,
    base: &VectorStore,
    metric: Metric,
    v: u32,
    u: u32,
    dist_vu: DistValue,
) {
    if graph.try_add_edge(v, u) {
        return;
    }
    let row: Vec<u32> = graph.neighbors(v).collect();
    if row.contains(&u) {
        return;
    }
    let mut dists = Vec::with_capacity(row.len());
    metric.distance_batch(base.get(v as usize), base, &row, &mut dists);
    let mut ranked: Vec<(DistValue, u32)> =
        row.iter().zip(&dists).map(|(&w, &d)| (DistValue(d), w)).collect();
    ranked.push((dist_vu, u));
    ranked.sort();
    ranked.truncate(graph.degree());
    let ids: Vec<u32> = ranked.into_iter().map(|(_, w)| w).collect();
    graph.set_row(v, &ids);
}

impl HnswIndex {
    /// Number of layers (≥ 1 for non-empty corpora).
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// The base (layer-0) graph — a plain NSW usable by every searcher.
    pub fn base(&self) -> &FixedDegreeGraph {
        &self.layers[0]
    }

    /// The graph of layer `l`.
    pub fn layer(&self, l: usize) -> &FixedDegreeGraph {
        &self.layers[l]
    }

    /// The top-level entry vertex.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Level of vertex `v`.
    pub fn level(&self, v: u32) -> u8 {
        self.levels[v as usize]
    }

    /// Greedy descent from the top layer to layer 0: returns a
    /// query-specific entry vertex for the flat search (plus the number
    /// of hops taken, for cost accounting).
    pub fn descend(&self, base: &VectorStore, query: &[f32]) -> u32 {
        let mut ep = self.entry;
        for l in (1..self.layers.len()).rev() {
            ep = greedy_closest(&self.layers[l], base, self.metric, query, ep);
        }
        ep
    }

    /// Full HNSW search: descend, then beam-search layer 0.
    pub fn search(
        &self,
        base: &VectorStore,
        query: &[f32],
        ef: usize,
        k: usize,
    ) -> Vec<(DistValue, u32)> {
        let ep = self.descend(base, query);
        beam_search(&self.layers[0], base, self.metric, query, ep, ef, None)
            .into_iter()
            .take(k)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algas_vector::datasets::DatasetSpec;
    use algas_vector::ground_truth::{brute_force_knn, mean_recall};

    fn setup() -> (algas_vector::datasets::GeneratedDataset, HnswIndex) {
        let ds = DatasetSpec::tiny(900, 16, Metric::L2, 404).generate();
        let idx = build_hnsw(&ds.base, Metric::L2, HnswParams::default());
        (ds, idx)
    }

    #[test]
    fn layers_shrink_exponentially() {
        let (_, idx) = setup();
        assert!(idx.n_layers() >= 2, "900 points should produce >1 layer");
        let occupied = |l: usize| {
            (0..idx.layer(l).len() as u32).filter(|&v| idx.layer(l).valid_degree(v) > 0).count()
        };
        let l0 = occupied(0);
        let l1 = occupied(1);
        assert!(l0 > 4 * l1, "layer 1 ({l1}) should be much sparser than layer 0 ({l0})");
    }

    #[test]
    fn entry_is_on_top_layer() {
        let (_, idx) = setup();
        assert_eq!(idx.level(idx.entry()) as usize, idx.n_layers() - 1);
    }

    #[test]
    fn upper_layer_edges_only_touch_high_level_vertices() {
        let (_, idx) = setup();
        for l in 1..idx.n_layers() {
            let g = idx.layer(l);
            for v in 0..g.len() as u32 {
                if g.valid_degree(v) > 0 {
                    assert!(idx.level(v) as usize >= l, "vertex {v} too low for layer {l}");
                    for u in g.neighbors(v) {
                        assert!(idx.level(u) as usize >= l);
                    }
                }
            }
        }
    }

    #[test]
    fn hnsw_search_reaches_high_recall() {
        let (ds, idx) = setup();
        let k = 10;
        let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, k);
        let results: Vec<Vec<u32>> = (0..ds.queries.len())
            .map(|q| {
                idx.search(&ds.base, ds.queries.get(q), 64, k)
                    .into_iter()
                    .map(|(_, id)| id)
                    .collect()
            })
            .collect();
        let r = mean_recall(&results, &gt, k);
        assert!(r > 0.9, "HNSW recall too low: {r}");
    }

    #[test]
    fn descend_improves_over_fixed_entry() {
        // The smart entry should land closer to the query than the
        // global entry vertex, on average.
        let (ds, idx) = setup();
        let mut better = 0usize;
        let n = ds.queries.len();
        for q in 0..n {
            let query = ds.queries.get(q);
            let ep = idx.descend(&ds.base, query);
            let d_smart = Metric::L2.distance(query, ds.base.get(ep as usize));
            let d_fixed = Metric::L2.distance(query, ds.base.get(idx.entry() as usize));
            if d_smart <= d_fixed {
                better += 1;
            }
        }
        assert!(better * 10 >= n * 9, "descent helped only {better}/{n} queries");
    }

    #[test]
    fn build_is_deterministic() {
        let ds = DatasetSpec::tiny(400, 8, Metric::L2, 5).generate();
        let a = build_hnsw(&ds.base, Metric::L2, HnswParams::default());
        let b = build_hnsw(&ds.base, Metric::L2, HnswParams::default());
        assert_eq!(a.layers, b.layers);
        assert_eq!(a.entry, b.entry);
    }

    #[test]
    fn empty_and_single_point_corpora() {
        let empty = build_hnsw(&VectorStore::new(4), Metric::L2, HnswParams::default());
        assert_eq!(empty.base().len(), 0);
        let one = build_hnsw(
            &VectorStore::from_flat(2, vec![1.0, 2.0]),
            Metric::L2,
            HnswParams::default(),
        );
        assert_eq!(one.base().len(), 1);
        assert_eq!(
            one.search(&VectorStore::from_flat(2, vec![1.0, 2.0]), &[1.0, 2.0], 4, 1).len(),
            1
        );
    }
}
