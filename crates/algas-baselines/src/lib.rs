//! # algas-baselines
//!
//! The comparator systems of the paper's evaluation (§VI):
//!
//! * [`ivf`] — a from-scratch IVF-Flat (Lloyd k-means + nprobe scan),
//!   standing in for FAISS-GPU's IVF (paper ref \[21\]).
//! * [`methods`] — the uniform [`methods::SearchMethod`] interface
//!   bundling each method's functional search with its batching
//!   discipline: ALGAS (dynamic slots, beam extend, CPU merge), CAGRA
//!   (static batches, multi-CTA, GPU merge), GANNS (static batches,
//!   single CTA), and IVF. The engine-backed three run the §IV-C tuner
//!   ([`methods::tuned`]) and share one `QueryWork` packer
//!   ([`methods::run_engine`]).
//!
//! CAGRA and GANNS deliberately reuse the search machinery of
//! `algas-core` under restricted configurations — ALGAS's searcher *is*
//! the multi-CTA/intra-CTA lineage of those systems, so the comparison
//! isolates exactly the paper's contributions (dynamic batching, beam
//! extend, merge placement) rather than incidental implementation
//! differences.

pub mod ivf;
pub mod methods;

pub use ivf::{build_ivf, IvfIndex, IvfParams};
pub use methods::{
    each_search, run_engine, tuned, AlgasMethod, BuildError, CagraMethod, GannsMethod, IvfMethod,
    MethodRun, SearchMethod,
};
