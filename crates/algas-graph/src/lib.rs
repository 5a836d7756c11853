//! # algas-graph
//!
//! Graph index substrate for the ALGAS reproduction.
//!
//! The paper searches two graph families (§VI): the **NSW graph built the
//! GANNS way** and the **CAGRA fixed out-degree graph**. Both are
//! represented by one storage type, [`FixedDegreeGraph`] — a CSR matrix
//! with a constant out-degree per vertex, which is exactly the layout a
//! GPU kernel wants (neighbor fetch = one coalesced segment of `degree`
//! ids at `v * degree`).
//!
//! Builders:
//!
//! * [`nsw::NswBuilder`] — incremental navigable-small-world construction
//!   (insert, greedy-search M nearest so far, connect bidirectionally).
//! * [`knn::build_knn_graph_exact`] — exact (brute force, parallel) or
//!   NN-descent approximate k-NN graph construction.
//! * [`cagra::CagraBuilder`] — CAGRA-style graph optimization: start
//!   from a k-NN graph, apply rank-based + 2-hop detour pruning and
//!   reverse-edge augmentation to a fixed out-degree.
//!
//! Entry-point selection for single- and multi-CTA search lives in
//! [`entry`] — the stateless policies plus the one index-time entry
//! structure, the LSH bucket table [`entry::HashEntryTable`] — and
//! [`stats`] computes degree / reachability statistics used by the
//! motivation figures.

pub mod binary;
pub mod cagra;
pub mod csr;
pub mod entry;
pub mod knn;
pub mod layout;
pub mod nsw;
pub mod parallel;
pub mod progress;
pub mod stats;

pub use cagra::CagraBuilder;
pub use csr::FixedDegreeGraph;
pub use entry::{EntryParams, EntryPolicy, HashEntryTable};
pub use layout::NodePermutation;
pub use nsw::NswBuilder;
pub use progress::{BuildPhase, BuildProgress, ProgressSnapshot};

/// Which graph family an index was built as; used by benchmarks to label
/// series exactly like the paper (`CAGRA-ALGAS`, `NSW-GANNS`, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphKind {
    /// Navigable small world built GANNS-style.
    Nsw,
    /// Fixed out-degree graph built CAGRA-style.
    Cagra,
}

impl GraphKind {
    /// Label prefix used by the figures ("NSW", "CAGRA").
    pub fn label(self) -> &'static str {
        match self {
            GraphKind::Nsw => "NSW",
            GraphKind::Cagra => "CAGRA",
        }
    }
}
