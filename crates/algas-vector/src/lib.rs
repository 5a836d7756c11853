//! # algas-vector
//!
//! Vector dataset substrate for the ALGAS reproduction.
//!
//! This crate provides everything below the graph layer:
//!
//! * [`VectorStore`] — a dense, row-major `f32` matrix with cache-friendly
//!   row access, the base representation for both the indexed corpus and
//!   the query set.
//! * [`Metric`] / [`metric`] — the distance kernels used throughout the
//!   system. The kernels mirror the paper's *intra-CTA* distance
//!   computation: dimensions are partitioned across the (simulated) warp
//!   lanes and the partial sums are reduced, so the cost model in
//!   `algas-gpu-sim` can charge exactly the work these functions perform.
//! * [`simd`] — runtime-dispatched vector kernels (AVX2+FMA / NEON with
//!   a scalar fallback) behind the [`Metric`] entry points, including the
//!   batched, prefetching scoring path used by every search loop.
//! * [`quant`] — SQ8 scalar quantization: [`QuantizedStore`] keeps
//!   per-dimension affine u8 codes in the same aligned padded layout,
//!   and [`quant::QuantizedQuery`] folds the affine map into the query
//!   once per search so traversal runs on integer dot products at a
//!   quarter of the fp32 bandwidth.
//! * [`lsh`] — random-hyperplane (sign) LSH signatures over both the
//!   fp32 and SQ8 stores, the substrate of the hash-bucket entry table
//!   in `algas-graph::entry`.
//! * [`datasets`] — clustered Gaussian-mixture generators standing in for
//!   the paper's SIFT1M / GIST1M / GloVe200 / NYTimes corpora (see
//!   DESIGN.md §2 for the substitution argument), plus the
//!   [`datasets::DatasetSpec`] descriptions of Table III.
//! * [`io`] — `fvecs` / `ivecs` readers and writers so the real corpora
//!   can be dropped in unchanged.
//! * [`ground_truth`] — exact brute-force k-NN and the recall metric
//!   the paper evaluates with.
//! * [`parallel`] — the order-preserving parallel map the ground truth
//!   and every graph builder run on.

pub mod binary;
pub mod datasets;
pub mod env;
pub mod ground_truth;
pub mod io;
pub mod lsh;
pub mod metric;
pub mod parallel;
pub mod quant;
pub mod simd;
pub mod store;

pub use datasets::{DatasetSpec, GeneratedDataset};
pub use ground_truth::{brute_force_knn, recall, GroundTruth};
pub use lsh::HyperplaneHasher;
pub use metric::{DistValue, Metric};
pub use quant::{QuantizedQuery, QuantizedStore};
pub use store::VectorStore;
