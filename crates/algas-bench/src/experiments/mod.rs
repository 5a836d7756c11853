//! One module per paper table/figure. Each `run` takes the prepared
//! datasets and returns rendered
//! [`ExperimentReport`](crate::report::ExperimentReport)s; the `figures`
//! binary assembles them into `EXPERIMENTS.md`.

pub mod ablations;
pub mod batching;
pub mod beam;
pub mod comparison;
pub mod host;
pub mod motivation;
pub mod online;
pub mod tables;

use crate::prep::Prepared;
use algas_baselines::{AlgasMethod, CagraMethod, GannsMethod, IvfMethod, IvfParams};
use algas_core::engine::AlgasIndex;
use algas_graph::GraphKind;

/// Standard TopK of the paper's headline experiments.
pub const K: usize = 16;
/// Standard small batch / slot count.
pub const BATCH: usize = 16;

/// Builds an [`AlgasIndex`] view over a prepared dataset's graph.
pub fn index_of(p: &Prepared, kind: GraphKind) -> AlgasIndex {
    AlgasIndex::from_parts(p.ds.base.clone(), p.graph(kind).clone(), p.ds.spec.metric, kind)
        .expect("prepared datasets are far below the id bound")
}

/// ALGAS method on a prepared dataset.
pub fn make_algas(p: &Prepared, kind: GraphKind, k: usize, l: usize, slots: usize) -> AlgasMethod {
    AlgasMethod::new(index_of(p, kind), k, l, slots).expect("ALGAS tuning feasible")
}

/// CAGRA baseline on a prepared dataset.
pub fn make_cagra(p: &Prepared, kind: GraphKind, k: usize, l: usize, batch: usize) -> CagraMethod {
    CagraMethod::new(index_of(p, kind), k, l, batch).expect("CAGRA tuning feasible")
}

/// GANNS baseline on a prepared dataset.
pub fn make_ganns(p: &Prepared, kind: GraphKind, k: usize, l: usize, batch: usize) -> GannsMethod {
    GannsMethod::new(index_of(p, kind), k, l, batch).expect("GANNS tuning feasible")
}

/// IVF baseline on a prepared dataset.
pub fn make_ivf(p: &Prepared, k: usize, nprobe: usize, batch: usize) -> IvfMethod {
    let n = p.ds.base.len();
    let nlist = ((n as f64).sqrt() as usize).clamp(8, 256);
    IvfMethod::new(
        p.ds.base.clone(),
        p.ds.spec.metric,
        IvfParams { nlist, nprobe: nprobe.min(nlist), ..Default::default() },
        k,
        batch,
    )
}
