//! # ALGAS
//!
//! A Rust reproduction of **"ALGAS: A Low-Latency GPU-Based Approximate
//! Nearest Neighbor Search System"** (IPPS 2025): a graph-based ANNS
//! serving system optimized for *small batches* via dynamic batching on a
//! persistent kernel, a beam-extend search algorithm, GPU–CPU cooperative
//! TopK merging, and adaptive resource tuning.
//!
//! This facade crate re-exports the workspace crates:
//!
//! * [`vector`] — datasets, distance kernels, ground truth ([`algas_vector`])
//! * [`graph`] — NSW and CAGRA-style graph indexes ([`algas_graph`])
//! * [`gpu`] — the simulated GPU substrate ([`algas_gpu_sim`])
//! * [`core`] — the ALGAS engine itself ([`algas_core`])
//! * [`baselines`] — CAGRA / GANNS / IVF comparators ([`algas_baselines`])
//!
//! The [`cli`] module implements the `algas` command-line tool
//! (generate / build / search / serve over `fvecs` files).
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture
//! and the per-experiment index.

pub mod cli;

pub use algas_baselines as baselines;
pub use algas_core as core;
pub use algas_gpu_sim as gpu;
pub use algas_graph as graph;
pub use algas_vector as vector;
