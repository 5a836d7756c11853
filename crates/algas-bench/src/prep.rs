//! Prepared experiment bundles: dataset + both graphs + ground truth,
//! built once per (spec, parameters) and cached on disk.

use crate::cache::{decode_graph, encode_graph, DiskCache};
use algas_graph::cagra::{CagraBuilder, CagraParams};
use algas_graph::nsw::{NswBuilder, NswParams};
use algas_graph::{FixedDegreeGraph, GraphKind, PackedGraph};
use algas_vector::datasets::{DatasetSpec, GeneratedDataset};
use algas_vector::ground_truth::{brute_force_knn, GroundTruth};

/// Ground-truth depth prepared for every bundle — deep enough for the
/// Fig 12 TopK sweep (max 64).
pub const GT_K: usize = 64;

/// Everything an experiment needs for one dataset.
pub struct Prepared {
    /// The generated dataset (base + queries).
    pub ds: GeneratedDataset,
    /// GANNS-style NSW graph.
    pub nsw: FixedDegreeGraph,
    /// CAGRA-style fixed out-degree graph.
    pub cagra: FixedDegreeGraph,
    /// Exact neighbors at depth [`GT_K`].
    pub gt: GroundTruth,
}

impl Prepared {
    /// The graph of the requested family.
    pub fn graph(&self, kind: GraphKind) -> &FixedDegreeGraph {
        match kind {
            GraphKind::Nsw => &self.nsw,
            GraphKind::Cagra => &self.cagra,
        }
    }

    /// Short label for report rows ("SIFT1M(synth)" → "SIFT").
    pub fn label(&self) -> String {
        self.ds.spec.name.split(['(', '1']).next().unwrap_or(&self.ds.spec.name).to_string()
    }
}

/// Build parameters shared by all experiments (kept fixed so cached
/// graphs are reused across figures).
pub fn nsw_params() -> NswParams {
    NswParams { m: 16, ef_construction: 96 }
}

/// CAGRA build parameters (see [`nsw_params`]).
pub fn cagra_params() -> CagraParams {
    CagraParams { graph_degree: 32, intermediate_degree: 32, exact_threshold: 2048, seed: 0xCA62A }
}

/// Bumped whenever builder semantics change, so stale cached graphs
/// can never be read back.
const CACHE_VERSION: u32 = 8;

fn spec_key(spec: &DatasetSpec) -> String {
    format!(
        "v{CACHE_VERSION}-{}-n{}-q{}-d{}-c{}-s{:.3}-seed{:x}",
        spec.name.replace(['(', ')', ' '], ""),
        spec.n_base,
        spec.n_queries,
        spec.dim,
        spec.clusters,
        spec.spread,
        spec.seed
    )
}

/// Prepares (or loads) the bundle for a spec.
pub fn prepare(spec: &DatasetSpec, cache: &DiskCache) -> Prepared {
    let ds = spec.generate();
    let key = spec_key(spec);

    let nsw_blob = cache
        .get_or_put(&format!("{key}-nsw-m{}", nsw_params().m), || {
            encode_graph(&PackedGraph::pack(
                &NswBuilder::new(spec.metric, nsw_params()).build(&ds.base),
            ))
        })
        .expect("cache io");
    let nsw = decode_graph(&nsw_blob[..], nsw_blob.len() as u64)
        .expect("valid cached NSW graph")
        .unpack();

    let cp = cagra_params();
    let cagra_blob = cache
        .get_or_put(&format!("{key}-cagra-d{}", cp.graph_degree), || {
            encode_graph(&PackedGraph::pack(&CagraBuilder::new(spec.metric, cp).build(&ds.base)))
        })
        .expect("cache io");
    let cagra = decode_graph(&cagra_blob[..], cagra_blob.len() as u64)
        .expect("valid cached CAGRA graph")
        .unpack();

    let gt_blob = cache
        .get_or_put(&format!("{key}-gt-k{GT_K}"), || {
            let gt = brute_force_knn(&ds.base, &ds.queries, spec.metric, GT_K);
            let mut buf = Vec::new();
            algas_vector::io::write_ivecs(&mut buf, &gt.neighbors).expect("in-memory write");
            buf
        })
        .expect("cache io");
    let neighbors =
        algas_vector::io::read_ivecs(std::io::Cursor::new(&gt_blob[..])).expect("valid cached gt");
    let neighbors: Vec<Vec<u32>> = neighbors;
    let gt = GroundTruth { neighbors, k: GT_K };

    Prepared { ds, nsw, cagra, gt }
}

/// The four paper datasets at a given scale, prepared.
pub fn prepare_suite(scale: f64, cache: &DiskCache) -> Vec<Prepared> {
    DatasetSpec::paper_suite(scale).iter().map(|s| prepare(s, cache)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use algas_vector::Metric;

    #[test]
    fn prepare_roundtrips_through_cache() {
        let dir = std::env::temp_dir().join(format!("algas-prep-test-{}", std::process::id()));
        let cache = DiskCache::open(&dir).unwrap();
        let spec = DatasetSpec::tiny(300, 8, Metric::L2, 9);
        let a = prepare(&spec, &cache);
        let b = prepare(&spec, &cache); // second call hits the cache
        assert_eq!(a.nsw, b.nsw);
        assert_eq!(a.cagra, b.cagra);
        assert_eq!(a.gt.neighbors, b.gt.neighbors);
        assert_eq!(a.gt.k, GT_K);
        assert!(a.nsw.validate().is_ok());
        assert!(a.cagra.validate().is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn labels_are_short() {
        let dir = std::env::temp_dir().join(format!("algas-prep-label-{}", std::process::id()));
        let cache = DiskCache::open(&dir).unwrap();
        let mut spec = DatasetSpec::tiny(128, 4, Metric::L2, 3);
        spec.name = "SIFT1M(synth)".into();
        let p = prepare(&spec, &cache);
        assert_eq!(p.label(), "SIFT");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
