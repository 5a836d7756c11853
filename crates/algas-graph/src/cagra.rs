//! CAGRA-style fixed out-degree graph optimization.
//!
//! CAGRA (paper ref \[25\]) turns an initial k-NN graph (k = 2·d) into a searchable
//! fixed out-degree graph in two passes:
//!
//! 1. **Rank/detour pruning** — for each directed edge `(v, u)` count the
//!    *detourable routes*: 2-hop paths `v → w → u` where `w` is a closer
//!    neighbor of `v` than `u` is. Edges with many detours are redundant
//!    (greedy search will reach `u` through `w`); each vertex keeps the
//!    `d/2` edges with the fewest detours.
//! 2. **Reverse-edge augmentation** — the reverses of kept edges are
//!    added (closest first) to fill each vertex's remaining slots, which
//!    repairs the in-degree of hub-starved vertices and is what gives the
//!    CAGRA graph its strong reachability.
//!
//! The output is a [`FixedDegreeGraph`] with constant out-degree
//! `graph_degree`, padded where reverse edges run out.

use crate::csr::FixedDegreeGraph;
use crate::knn::{
    build_knn_graph_exact_threads, build_knn_graph_nn_descent_threads, NnDescentParams,
};
use crate::parallel;
use algas_vector::metric::DistValue;
use algas_vector::{Metric, VectorStore};

/// Parameters for the CAGRA-style build.
#[derive(Clone, Copy, Debug)]
pub struct CagraParams {
    /// Out-degree of the final graph (CAGRA default: 32 or 64).
    pub graph_degree: usize,
    /// k of the intermediate k-NN graph; CAGRA uses `2 * graph_degree`,
    /// as does [`Default`]. `algas build`'s `--intermediate` defaults to
    /// the graph degree instead (ROADMAP "Graph shape": 2× bought little
    /// recall for ≈ 2.3× the build time).
    pub intermediate_degree: usize,
    /// Corpus size at or below which the intermediate k-NN graph is built
    /// exactly instead of with NN-descent.
    pub exact_threshold: usize,
    /// Seed for NN-descent.
    pub seed: u64,
}

impl Default for CagraParams {
    fn default() -> Self {
        Self { graph_degree: 32, intermediate_degree: 64, exact_threshold: 2048, seed: 0xCA62A }
    }
}

/// CAGRA-style graph builder.
pub struct CagraBuilder {
    params: CagraParams,
    metric: Metric,
}

impl CagraBuilder {
    /// Creates a builder.
    ///
    /// # Panics
    /// Panics if `graph_degree == 0` or
    /// `intermediate_degree < graph_degree`.
    pub fn new(metric: Metric, params: CagraParams) -> Self {
        assert!(params.graph_degree > 0, "graph_degree must be positive");
        assert!(
            params.intermediate_degree >= params.graph_degree,
            "intermediate_degree must be >= graph_degree"
        );
        Self { params, metric }
    }

    /// Builds the optimized graph over `base`, using every available
    /// core (see [`parallel::max_threads`]). Output is identical for
    /// every thread count — all parallel passes are per-vertex pure.
    pub fn build(&self, base: &VectorStore) -> FixedDegreeGraph {
        self.build_with_threads(base, parallel::max_threads())
    }

    /// [`build`](Self::build) with an explicit thread count (used by the
    /// build benchmarks to compare serial vs parallel construction).
    pub fn build_with_threads(&self, base: &VectorStore, threads: usize) -> FixedDegreeGraph {
        let knn = self.build_intermediate_threads(base, threads);
        self.optimize_with_threads(base, &knn, threads)
    }

    /// Builds the intermediate k-NN graph (exact below the threshold,
    /// NN-descent above it).
    pub fn build_intermediate(&self, base: &VectorStore) -> FixedDegreeGraph {
        self.build_intermediate_threads(base, parallel::max_threads())
    }

    /// [`build_intermediate`](Self::build_intermediate) with an explicit
    /// thread count.
    pub fn build_intermediate_threads(
        &self,
        base: &VectorStore,
        threads: usize,
    ) -> FixedDegreeGraph {
        let k = self.params.intermediate_degree.min(base.len().saturating_sub(1)).max(1);
        if base.len() <= self.params.exact_threshold {
            build_knn_graph_exact_threads(base, self.metric, k, threads)
        } else {
            build_knn_graph_nn_descent_threads(
                base,
                self.metric,
                NnDescentParams { k, seed: self.params.seed, ..Default::default() },
                threads,
            )
        }
    }

    /// Runs the two optimization passes over an existing k-NN graph.
    ///
    /// Exposed separately so tests and ablations can feed a hand-made
    /// intermediate graph.
    pub fn optimize(&self, base: &VectorStore, knn: &FixedDegreeGraph) -> FixedDegreeGraph {
        self.optimize_with_threads(base, knn, parallel::max_threads())
    }

    /// [`optimize`](Self::optimize) with an explicit thread count. Both
    /// passes parallelize over vertices; every per-vertex computation
    /// reads only the immutable k-NN graph (pass 1) or the fully built
    /// reverse lists (pass 2), so the result is thread-count invariant.
    pub fn optimize_with_threads(
        &self,
        base: &VectorStore,
        knn: &FixedDegreeGraph,
        threads: usize,
    ) -> FixedDegreeGraph {
        let n = knn.len();
        let d_out = self.params.graph_degree;
        let forward_keep = (d_out / 2).max(1);

        // Pass 1: detour-count pruning, parallel over vertices. knn rows
        // are sorted by distance (ranks), so rank(w) < rank(u) ⇔ w
        // precedes u in the row. A route v → w → u only counts as a
        // detour when *both* hops are shorter than the direct edge
        // (CAGRA's detourable-route rule); otherwise greedy search would
        // not actually take it.
        crate::progress::global().start_phase(crate::progress::BuildPhase::Prune, n as u64);
        let kept_forward: Vec<Vec<u32>> = parallel::par_map(n, 32, threads, |v| {
            crate::progress::global().node_done(1);
            let row: Vec<u32> = knn.neighbors(v as u32).collect();
            let mut row_dists: Vec<f32> = Vec::with_capacity(row.len());
            self.metric.distance_batch(base.get(v), base, &row, &mut row_dists);
            let dists: Vec<DistValue> = row_dists.iter().map(|&d| DistValue(d)).collect();
            let mut scored: Vec<(usize, usize, u32)> = Vec::with_capacity(row.len());
            for (rank_u, &u) in row.iter().enumerate() {
                let d_vu = dists[rank_u];
                let uu = base.get(u as usize);
                let mut detours = 0usize;
                for (rank_w, &w) in row.iter().enumerate().take(rank_u) {
                    // First hop shorter by rank; second hop must also be
                    // shorter than the direct edge. NN-descent ranked the
                    // row with `distance`, which `distance_batch` matches
                    // to 1e-5, not bit for bit. `u` is a real id, so the
                    // raw row's padding never matches it; the plain slice
                    // scan is cheaper than filtering the padding out first.
                    debug_assert!(dists[rank_w].0 <= d_vu.0 + 1e-5 * d_vu.0.abs().max(1.0));
                    if knn.row(w).contains(&u)
                        && DistValue(self.metric.distance(base.get(w as usize), uu)) < d_vu
                    {
                        detours += 1;
                    }
                }
                scored.push((detours, rank_u, u));
            }
            // Fewest detours first; rank breaks ties (closer wins).
            scored.sort();
            scored.into_iter().take(forward_keep).map(|(_, _, u)| u).collect()
        });

        // Pass 2: reverse-edge augmentation. Collect reverses of the kept
        // edges (sequential scatter — cheap), then assemble each final
        // row in parallel, sorted so the closest reverses win slots.
        let mut reverse: Vec<Vec<(DistValue, u32)>> = vec![Vec::new(); n];
        let mut row_dists: Vec<f32> = Vec::new();
        for (v, row) in kept_forward.iter().enumerate() {
            self.metric.distance_batch(base.get(v), base, row, &mut row_dists);
            for (&u, &d) in row.iter().zip(&row_dists) {
                reverse[u as usize].push((DistValue(d), v as u32));
            }
        }
        crate::progress::global().start_phase(crate::progress::BuildPhase::Augment, n as u64);
        let rows: Vec<Vec<u32>> = parallel::par_map(n, 64, threads, |v| {
            crate::progress::global().node_done(1);
            let mut ids = kept_forward[v].clone();
            let mut rev = reverse[v].clone();
            rev.sort();
            for (_, u) in rev {
                if ids.len() == d_out {
                    break;
                }
                if !ids.contains(&u) {
                    ids.push(u);
                }
            }
            // Backfill with the pruned forward edges if slots remain.
            if ids.len() < d_out {
                for u in knn.neighbors(v as u32) {
                    if ids.len() == d_out {
                        break;
                    }
                    if !ids.contains(&u) {
                        ids.push(u);
                    }
                }
            }
            ids
        });
        let mut graph = FixedDegreeGraph::new(n, d_out);
        for (v, ids) in rows.iter().enumerate() {
            graph.set_row(v as u32, ids);
        }
        repair_in_degree(&mut graph, knn);
        graph
    }
}

/// Guarantees every vertex is *discoverable*: a vertex whose edges were
/// all pruned away (in-degree 0) can never enter any search's candidate
/// list, capping recall regardless of `L`. At the paper's million-point
/// scale reverse augmentation makes orphans vanishingly rare, but at
/// the reduced scales this reproduction runs at they matter, so each
/// orphan gets one in-edge from its own nearest k-NN neighbor
/// (replacing that neighbor's last slot if full).
fn repair_in_degree(graph: &mut FixedDegreeGraph, knn: &FixedDegreeGraph) {
    let n = graph.len();
    let mut in_deg = vec![0u32; n];
    for v in 0..n as u32 {
        for u in graph.neighbors(v) {
            in_deg[u as usize] += 1;
        }
    }
    for v in 0..n as u32 {
        if in_deg[v as usize] > 0 {
            continue;
        }
        // The orphan's nearest neighbor points back at it.
        let Some(w) = knn.neighbors(v).next() else { continue };
        if graph.try_add_edge(w, v) {
            in_deg[v as usize] += 1;
            continue;
        }
        // Row full: replace w's last (farthest-ranked) neighbor, unless
        // that would orphan someone else in turn.
        let row: Vec<u32> = graph.neighbors(w).collect();
        if let Some(&last) = row.last() {
            if in_deg[last as usize] > 1 {
                let mut new_row = row.clone();
                *new_row.last_mut().expect("non-empty row") = v;
                graph.set_row(w, &new_row);
                in_deg[last as usize] -= 1;
                in_deg[v as usize] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knn::build_knn_graph_exact;
    use crate::nsw::beam_search;
    use algas_vector::datasets::DatasetSpec;
    use algas_vector::ground_truth::{brute_force_knn, mean_recall};

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        // Every parallel pass in the CAGRA pipeline is per-vertex pure,
        // so the built graph must be exactly equal across thread counts.
        let ds = DatasetSpec::tiny(350, 10, Metric::L2, 42).generate();
        let builder = CagraBuilder::new(
            Metric::L2,
            CagraParams { graph_degree: 12, intermediate_degree: 24, ..Default::default() },
        );
        let serial = builder.build_with_threads(&ds.base, 1);
        let par2 = builder.build_with_threads(&ds.base, 2);
        let par4 = builder.build_with_threads(&ds.base, 4);
        assert_eq!(serial, par2);
        assert_eq!(serial, par4);
    }

    #[test]
    fn build_has_fixed_degree_and_validates() {
        let ds = DatasetSpec::tiny(400, 12, Metric::L2, 5).generate();
        let g = CagraBuilder::new(
            Metric::L2,
            CagraParams { graph_degree: 16, intermediate_degree: 32, ..Default::default() },
        )
        .build(&ds.base);
        assert_eq!(g.degree(), 16);
        assert!(g.validate().is_ok());
        // Reverse augmentation should fill most rows completely.
        let full = (0..g.len() as u32).filter(|&v| g.valid_degree(v) == 16).count();
        assert!(full as f64 > 0.9 * g.len() as f64, "only {full} full rows");
    }

    #[test]
    fn cagra_graph_searchable_at_high_recall() {
        let ds = DatasetSpec::tiny(800, 16, Metric::L2, 19).generate();
        let g = CagraBuilder::new(Metric::L2, CagraParams::default()).build(&ds.base);
        let k = 10;
        let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, k);
        let approx: Vec<Vec<u32>> = (0..ds.queries.len())
            .map(|q| {
                beam_search(&g, &ds.base, Metric::L2, ds.queries.get(q), 0, 128, None)
                    .into_iter()
                    .take(k)
                    .map(|(_, id)| id)
                    .collect()
            })
            .collect();
        let r = mean_recall(&approx, &gt, k);
        assert!(r > 0.85, "CAGRA-graph recall too low: {r}");
        // The optimized graph must far outperform the raw kNN graph it
        // started from (the kNN graph alone is nearly unnavigable from a
        // fixed entry).
        let knn = crate::knn::build_knn_graph_exact(&ds.base, Metric::L2, 32);
        let knn_approx: Vec<Vec<u32>> = (0..ds.queries.len())
            .map(|q| {
                beam_search(&knn, &ds.base, Metric::L2, ds.queries.get(q), 0, 128, None)
                    .into_iter()
                    .take(k)
                    .map(|(_, id)| id)
                    .collect()
            })
            .collect();
        let r_knn = mean_recall(&knn_approx, &gt, k);
        assert!(r >= r_knn, "optimization must not lose navigability: {r} vs kNN {r_knn}");
    }

    #[test]
    fn detour_pruning_drops_redundant_edge() {
        // Triangle v=0 with near neighbor w=1 and far neighbor u=2 where
        // w and u are adjacent: the (0 → 2) edge has a detour via 1 and
        // must be pruned first when only one forward edge is kept.
        let base = VectorStore::from_flat(1, vec![0.0, 1.0, 2.0, 10.0]);
        let knn = build_knn_graph_exact(&base, Metric::L2, 2);
        let b = CagraBuilder::new(
            Metric::L2,
            CagraParams { graph_degree: 2, intermediate_degree: 2, ..Default::default() },
        );
        let g = b.optimize(&base, &knn);
        // forward_keep = 1: vertex 0 keeps its closest neighbor (1), and
        // the detourable edge to 2 is dropped from the forward set.
        assert_eq!(g.neighbors(0).next(), Some(1));
    }

    #[test]
    fn optimize_is_deterministic() {
        let ds = DatasetSpec::tiny(300, 8, Metric::L2, 31).generate();
        let b = CagraBuilder::new(Metric::L2, CagraParams::default());
        assert_eq!(b.build(&ds.base), b.build(&ds.base));
    }

    #[test]
    fn cosine_build_works() {
        let ds = DatasetSpec::tiny(300, 12, Metric::Cosine, 41).generate();
        let g = CagraBuilder::new(
            Metric::Cosine,
            CagraParams { graph_degree: 16, intermediate_degree: 32, ..Default::default() },
        )
        .build(&ds.base);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn every_vertex_is_discoverable() {
        // No orphans: every vertex keeps in-degree ≥ 1 after pruning,
        // otherwise recall caps below 1.0 regardless of beam width.
        for seed in [3u64, 19, 55] {
            let ds = DatasetSpec::tiny(500, 12, Metric::L2, seed).generate();
            let g = CagraBuilder::new(
                Metric::L2,
                CagraParams { graph_degree: 16, intermediate_degree: 32, ..Default::default() },
            )
            .build(&ds.base);
            let mut in_deg = vec![0u32; g.len()];
            for v in 0..g.len() as u32 {
                for u in g.neighbors(v) {
                    in_deg[u as usize] += 1;
                }
            }
            let orphans = in_deg.iter().filter(|&&d| d == 0).count();
            assert_eq!(orphans, 0, "seed {seed}: {orphans} unreachable vertices");
            assert!(g.validate().is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "intermediate_degree")]
    fn bad_params_rejected() {
        CagraBuilder::new(
            Metric::L2,
            CagraParams { graph_degree: 64, intermediate_degree: 32, ..Default::default() },
        );
    }
}
