//! # algas-core
//!
//! The ALGAS engine — the paper's primary contribution:
//!
//! * [`state`] — the 5-state slot lifecycle (`None → Work → Finish →
//!   Done → Quit`, §IV-A) as both a pure state machine and an atomic
//!   cell.
//! * [`lists`] — the CTA's shared-memory structures: bounded sorted
//!   candidate list, expand buffer, visited bitmap.
//! * [`search`] — intra-CTA greedy search with **beam extend** and
//!   multi-CTA search with a shared visited bitmap (§IV-B), every
//!   operation cost-traced against the simulated GPU.
//! * [`merge`] — host-side TopK merging (the GPU-CPU cooperation).
//! * [`tuning`] — the §IV-C adaptive tuner solving the residency and
//!   shared-memory constraints, plus the [`tuning::EffortLadder`] of
//!   progressively cheaper effort configurations derived from a plan.
//! * [`control`] — the online SLO controller: feeds live service-span
//!   p99s back into the effort ladder to hold a latency target.
//! * [`engine`] — [`engine::AlgasEngine`]: index + tuner + traced
//!   search + [`algas_gpu_sim::QueryWork`] production for the batching
//!   simulators.
//! * [`runtime`] — a real threaded implementation of the architecture
//!   (persistent workers, atomic slots, host pollers) usable as a CPU
//!   ANNS server.
//! * [`net`] — the TCP network front end: length-prefixed binary
//!   protocol, a `poll(2)` readiness loop with pipelined out-of-order
//!   completion and RETRY_AFTER backpressure, and a blocking client.
//! * [`obs`] — serving-path telemetry: lock-free counters, log-linear
//!   latency histograms, query lifecycle spans, and JSON / Prometheus
//!   exposition of [`obs::RuntimeStats`] (feature `obs`, default-on).
//! * [`persist`] — index save/load (one self-describing file).
//!
//! ## Quick example
//!
//! ```
//! use algas_core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
//! use algas_graph::cagra::CagraParams;
//! use algas_vector::datasets::DatasetSpec;
//! use algas_vector::Metric;
//!
//! let ds = DatasetSpec::tiny(400, 8, Metric::L2, 1).generate();
//! let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
//! let engine = AlgasEngine::new(index, EngineConfig { k: 8, l: 32, ..Default::default() }).unwrap();
//! let ids = engine.search(ds.queries.get(0), 0);
//! assert_eq!(ids.len(), 8);
//! ```

pub mod control;
pub mod engine;
pub mod lists;
pub mod merge;
pub mod net;
pub mod obs;
pub mod persist;
pub mod runtime;
pub mod search;
pub mod state;
pub mod tracer;
pub mod tuning;

/// Locks `m` whether or not a thread panicked while holding it: every
/// structure this crate keeps under a mutex is left valid between
/// statements, and one thread's panic must not become every thread's.
pub(crate) fn lock<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use control::{ControlConfig, ControlDecision, ControlReason, ControlStats, SloController};
pub use engine::{
    AlgasEngine, AlgasIndex, BeamMode, EngineConfig, RerankStats, TracedSearch, Workload,
};
pub use merge::{merge_topk, HostCostModel};
pub use net::{NetClient, NetConfig, NetServer, NetStats};
pub use obs::{Histogram, HistogramSnapshot, RuntimeStats};
pub use runtime::{AlgasServer, RuntimeConfig, SearchReply, StatsSnapshot};
pub use search::BeamParams;
pub use state::{AtomicSlotState, SlotState};
pub use tuning::{tune, EffortLadder, EffortStep, TuningError, TuningInput, TuningPlan};
