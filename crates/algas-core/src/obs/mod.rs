//! Serving-path observability: lock-free metrics, latency histograms,
//! query lifecycle spans, and a stats exposition surface.
//!
//! The module splits into an always-compiled reporting layer and a
//! feature-gated recording layer. The default-on `obs` feature
//! compiles out at one seam: the handles the serving threads call
//! ([`recorder`], [`prof`]) become zero-sized no-ops, and the engines
//! only the recorder constructs (`FlightRecorder`, `QueryLog`,
//! `WindowRing`) are not compiled at all.
//!
//! * [`counters`] / [`hist`] — the primitives: cache-padded relaxed
//!   counters and log-linear (HDR-style) latency histograms, both
//!   lock-free and allocation-free to record.
//! * [`snapshot`] — [`RuntimeStats`], the point-in-time schema of the
//!   threaded runtime, with its two writers: JSON and Prometheus text.
//! * [`recorder`] — the hot-path instrumentation
//!   ([`RuntimeObs`], [`JobStamps`]). Behind the default-on `obs`
//!   feature: compiled out, both become zero-sized no-ops and no clock
//!   is read, so the serving loops carry zero instrumentation cost
//!   while every call site stays `#[cfg]`-free.
//! * [`flight`] — the per-query layer: an always-on, lock-free
//!   per-slot ring of timestamped trace events with tail-sampled
//!   slow-query retention (`FlightRecorder`, [`QueryTrace`]).
//! * [`chrome`] — Chrome trace-event JSON export of retained traces
//!   (viewable in Perfetto) plus the validator CI runs on emitted
//!   files.
//! * [`qlog`] — the wide-event query log (`QueryLog`): one
//!   structured record per completed query, written allocation-free
//!   into a lock-free ring and drained as JSON lines.
//! * [`prof`] — the thread-state sampling profiler: runtime threads
//!   publish a one-word state marker, a 97 Hz sampler accumulates the
//!   (thread, state) attribution table, exported as folded-stack text
//!   (`/profile`, `algas profile`) and a JSON block.
//! * [`window`] — rotating windowed aggregation: a ring of periodic
//!   histogram snapshots whose deltas give moving p50/p99, rates, and
//!   the SLO burn-rate health behind `/healthz` + `/readyz`.
//! * [`http`] — a dependency-free `std::net` stats server exposing
//!   `/metrics`, `/stats.json`, `/traces`, `/query-log`, `/profile`,
//!   and health/readiness probes from a live server.
//! * [`json`] / [`prom`] — the self-contained wire formats (the
//!   hermetic workspace has no `serde_json`).

pub mod chrome;
pub mod counters;
pub mod flight;
pub mod hist;
pub mod http;
pub mod json;
pub mod prof;
pub mod prom;
pub mod qlog;
pub mod recorder;
pub mod snapshot;
pub mod window;

pub use chrome::{chrome_trace_json, validate_chrome_trace, ChromeSummary};
pub use counters::{CachePadded, Counter};
#[cfg(feature = "obs")]
pub use flight::FlightRecorder;
pub use flight::{
    traces_json, EventKind, FlightConfig, FlightTotals, LifecycleNs, QueryIds, QueryTrace,
    TraceEvent,
};
pub use hist::{Histogram, HistogramSnapshot};
pub use http::{StatsServer, StatsSource};
pub use prof::{
    ProfHandle, ProfRegistry, ProfState, ProfStateCount, ProfStats, ProfThreadStats,
    SharedProfRegistry, ThreadKind,
};
#[cfg(feature = "obs")]
pub use qlog::QueryLog;
pub use qlog::{DeliveryCtx, QlogConfig, QlogRecord, QlogTotals};
pub use recorder::{stamp, JobStamps, ObsTickConfig, RuntimeObs, Stamp, OBS_ENABLED};
pub use snapshot::{HostStats, PhaseStats, RuntimeStats, SlotStats, TailExemplar, WorkerStats};
#[cfg(feature = "obs")]
pub use window::WindowRing;
pub use window::{WindowBlock, WindowStats};
