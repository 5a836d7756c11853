//! The per-query flight recorder: tail-sampled slow-query timelines.
//!
//! The aggregate layer ([`super::recorder`]) can show *that* p99
//! regressed; this module shows *why one query* was slow. A retained
//! [`QueryTrace`] carries the query's lifecycle timestamps and a
//! timeline of [`TraceEvent`]s — the slot's lifecycle edges, one record
//! per walker the search launched (its distance evaluations and
//! steps), the beam-extend localization→diffusing switch, the rerank
//! pass, the SLO controller's decision, the reply build. Every event
//! carries what was measured or counted; nothing in a trace is derived
//! from the GPU cost model.
//!
//! Nothing is written per event. The worker that served a query holds
//! everything its timeline needs until delivery — the lifecycle stamps,
//! the walker counts in its search scratch, the rerank delta and the
//! controller decision — so on completion the recorder *tail-samples*:
//! [`FlightRecorder::on_complete`] compares the end-to-end latency
//! against [`FlightConfig::slow_threshold_ns`] and against the cached
//! minimum of the top-K slowest seen so far. That rejection is a
//! relaxed load and two compares; only a retained query has its trace
//! built (allocating its [`QueryTrace`]).
//!
//! `FlightRecorder` exists only with the `obs` feature: its one
//! constructor call is in the recorder ([`super::recorder`]), which is
//! where the feature compiles out. The data model ([`TraceEvent`],
//! [`QueryTrace`], [`FlightConfig`]) is unconditional, so the CLI and
//! the Chrome-trace exporter compile either way.

/// What happened at one [`TraceEvent`] (one lifecycle edge or one unit
/// of searcher-internal progress).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Query accepted into the submission queue (`lane` = host).
    Enqueued,
    /// Host assigned the query to this slot (`lane` = host).
    Assigned,
    /// Worker picked the slot up and started searching (`lane` =
    /// worker).
    WorkStart,
    /// One walker (CTA) of the search, one per walker in launch order,
    /// stamped at the search's `finish` time (`lane` = walker, `a` =
    /// its distance evaluations, `b` = its steps). The name stays
    /// because trace readers key on it.
    CtaStep,
    /// The beam-extend localization→diffusing switch fired in a walker,
    /// stamped at the search's `finish` time (`lane` = walker, `a` =
    /// step index of the switch).
    BeamSwitch,
    /// The SQ8 exact-rerank pass ran (`lane` = worker, `a` =
    /// candidates, `b` = promotions).
    RerankPass,
    /// Search done, `Work → Finish` flip (`lane` = worker).
    Finish,
    /// The worker starts building the reply (`lane` = worker). The
    /// merge ran inside the search; the name stays because trace
    /// readers key on it.
    MergeBegin,
    /// The reply is built from the worker's TopK (`lane` = worker).
    MergeEnd,
    /// Reply handed to the client channel, `Finish → Done` flip
    /// (`lane` = worker).
    Delivered,
    /// The SLO controller changed or confirmed the effort level at a
    /// tick triggered by this query's completion, stamped when the
    /// reply was built (`lane` = worker, `a` = new effort level, `b` =
    /// [`crate::control::ControlReason`] as `u8`).
    ControlAdjust,
}

impl EventKind {
    /// The kind's wire/track name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Enqueued => "enqueued",
            EventKind::Assigned => "assigned",
            EventKind::WorkStart => "work_start",
            EventKind::CtaStep => "cta_step",
            EventKind::BeamSwitch => "beam_switch",
            EventKind::RerankPass => "rerank_pass",
            EventKind::Finish => "finish",
            EventKind::MergeBegin => "merge_begin",
            EventKind::MergeEnd => "merge_end",
            EventKind::Delivered => "delivered",
            EventKind::ControlAdjust => "control_adjust",
        }
    }
}

/// One event of a retained query timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder's epoch (server start).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Which lane it happened on — worker, host, or walker (CTA) index,
    /// depending on [`EventKind`].
    pub lane: u32,
    /// Kind-specific payload (see [`EventKind`]).
    pub a: u32,
    /// Kind-specific payload (see [`EventKind`]).
    pub b: u32,
}

/// The lifecycle timestamps of one completed query, in nanoseconds
/// since the recorder's epoch. The six phase spans of
/// [`super::snapshot::PhaseStats`] are differences of these.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LifecycleNs {
    /// Accepted into the submission queue.
    pub submitted_ns: u64,
    /// Assigned to a slot.
    pub slot_ns: u64,
    /// Worker started searching.
    pub work_start_ns: u64,
    /// Search finished (`Work → Finish`).
    pub finish_ns: u64,
    /// The worker started building the reply.
    pub merge_begin_ns: u64,
    /// Reply built from the worker's TopK.
    pub merged_ns: u64,
    /// Reply handed to the client channel.
    pub delivered_ns: u64,
}

impl LifecycleNs {
    /// End-to-end latency (submission → delivery).
    pub fn e2e_ns(&self) -> u64 {
        self.delivered_ns.saturating_sub(self.submitted_ns)
    }
}

/// The identities a completed query is known by: the runtime tag plus
/// the wire-level ids the client logged. Keying retained traces by the
/// wire `request_id` is what lets a client grep its slow request id
/// straight into `/traces`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryIds {
    /// Runtime-assigned tag (echoed in the query's
    /// [`crate::runtime::SearchReply`]).
    pub tag: u64,
    /// Wire request id. Equals `tag` for local (non-network) submits.
    pub request_id: u64,
    /// Server-side connection id (0 for local submits).
    pub conn: u64,
}

impl QueryIds {
    /// Identity of a local submit: the tag doubles as the request id.
    pub fn local(tag: u64) -> Self {
        Self { tag, request_id: tag, conn: 0 }
    }
}

/// One retained query timeline: the lifecycle timestamps plus the
/// events the serving worker built at delivery, in the order the slot
/// saw them.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryTrace {
    /// The query's tag (echoed in its [`crate::runtime::SearchReply`]).
    pub tag: u64,
    /// Wire request id (equals `tag` for local submits).
    pub request_id: u64,
    /// Server-side connection id (0 for local submits).
    pub conn: u64,
    /// Slot that carried the query.
    pub slot: u32,
    /// Worker that searched and delivered it.
    pub worker: u32,
    /// Lifecycle timestamps.
    pub lifecycle: LifecycleNs,
    /// The timeline, in the order the slot saw it.
    pub events: Vec<TraceEvent>,
}

impl QueryTrace {
    /// End-to-end latency of the traced query.
    pub fn e2e_ns(&self) -> u64 {
        self.lifecycle.e2e_ns()
    }
}

/// Flight-recorder tail-sampling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightConfig {
    /// Queries at least this slow (end-to-end ns) are always retained.
    /// `u64::MAX` (the default) disables the threshold.
    pub slow_threshold_ns: u64,
    /// Reservoir of the K slowest queries seen so far (0 disables).
    pub top_k: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        Self { slow_threshold_ns: u64::MAX, top_k: 8 }
    }
}

/// Flight-recorder totals for the serving snapshot. The tail sampler
/// examines every delivery, so `queries.completed` is its count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlightTotals {
    /// Distinct query traces currently retained.
    pub retained: u64,
}

#[cfg(feature = "obs")]
pub use enabled::FlightRecorder;

#[cfg(feature = "obs")]
mod enabled {
    use super::{FlightConfig, FlightTotals, QueryTrace};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::Instant;

    /// Retained slow queries kept outside the top-K reservoir.
    const SLOW_CAP: usize = 64;

    /// Buckets of retained traces. A trace can qualify for both;
    /// [`Retained::distinct`] lists it once.
    #[derive(Default)]
    struct Retained {
        /// Over-threshold queries (replace-slowest-out when full).
        slow: Vec<QueryTrace>,
        /// The K slowest queries seen so far.
        top: Vec<QueryTrace>,
    }

    impl Retained {
        /// Every retained trace once (tags are unique per bucket).
        fn distinct(&self) -> impl Iterator<Item = &QueryTrace> {
            let not_in_slow = |t: &&QueryTrace| !self.slow.iter().any(|s| s.tag == t.tag);
            self.slow.iter().chain(self.top.iter().filter(not_in_slow))
        }
    }

    /// The tail sampler and the traces it retained.
    pub struct FlightRecorder {
        epoch: Instant,
        cfg: FlightConfig,
        /// Cached minimum end-to-end latency of the top-K bucket: the
        /// lock-free fast-path filter. 0 while the bucket is filling
        /// (accept everything), `u64::MAX` when `top_k == 0`.
        top_min: AtomicU64,
        retained: Mutex<Retained>,
    }

    impl FlightRecorder {
        /// An empty recorder whose epoch is now.
        pub fn new(cfg: FlightConfig) -> Self {
            Self {
                epoch: Instant::now(),
                cfg,
                top_min: AtomicU64::new(if cfg.top_k == 0 { u64::MAX } else { 0 }),
                retained: Mutex::new(Retained::default()),
            }
        }

        /// `stamp` as nanoseconds since the recorder's epoch.
        #[inline]
        pub fn ns_of(&self, stamp: Instant) -> u64 {
            stamp.saturating_duration_since(self.epoch).as_nanos() as u64
        }

        /// Tail-samples one completed query of end-to-end latency
        /// `e2e_ns`. The fast path (query not retained) is a relaxed
        /// load and two compares: it writes nothing and never allocates;
        /// only a retained query calls `trace` to build its
        /// [`QueryTrace`] (acceptable: retention is rare by
        /// construction).
        pub fn on_complete(&self, e2e_ns: u64, trace: impl FnOnce() -> QueryTrace) {
            let slow = e2e_ns >= self.cfg.slow_threshold_ns;
            // `>=` lets ties through; the cold path re-checks with `>`
            // under the lock, so this stays a conservative filter.
            let top = self.cfg.top_k > 0 && e2e_ns >= self.top_min.load(Ordering::Relaxed);
            if !(slow || top) {
                return;
            }
            let trace = trace();
            let mut r = crate::lock(&self.retained);
            if top {
                if r.top.len() < self.cfg.top_k {
                    r.top.push(trace.clone());
                } else if let Some(min_idx) = min_e2e_index(&r.top) {
                    if e2e_ns > r.top[min_idx].e2e_ns() {
                        r.top[min_idx] = trace.clone();
                    }
                }
                if r.top.len() >= self.cfg.top_k {
                    let new_min = r.top.iter().map(QueryTrace::e2e_ns).min().unwrap_or(u64::MAX);
                    self.top_min.store(new_min, Ordering::Relaxed);
                }
            }
            if slow {
                if r.slow.len() < SLOW_CAP {
                    r.slow.push(trace);
                } else if let Some(min_idx) = min_e2e_index(&r.slow) {
                    if e2e_ns > r.slow[min_idx].e2e_ns() {
                        r.slow[min_idx] = trace;
                    }
                }
            }
        }

        /// The retained traces, deduplicated across buckets (by tag)
        /// and sorted slowest-first.
        pub fn retained(&self) -> Vec<QueryTrace> {
            let mut out: Vec<QueryTrace> =
                crate::lock(&self.retained).distinct().cloned().collect();
            out.sort_by(|a, b| b.e2e_ns().cmp(&a.e2e_ns()).then(a.tag.cmp(&b.tag)));
            out
        }

        /// Recorder totals for the serving snapshot.
        pub fn totals(&self) -> FlightTotals {
            FlightTotals { retained: crate::lock(&self.retained).distinct().count() as u64 }
        }
    }

    fn min_e2e_index(traces: &[QueryTrace]) -> Option<usize> {
        traces.iter().enumerate().min_by_key(|(_, t)| t.e2e_ns()).map(|(i, _)| i)
    }
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;

    fn lifecycle(e2e: u64) -> LifecycleNs {
        LifecycleNs {
            submitted_ns: 100,
            slot_ns: 110,
            work_start_ns: 120,
            finish_ns: 100 + e2e - 20,
            merge_begin_ns: 100 + e2e - 15,
            merged_ns: 100 + e2e - 10,
            delivered_ns: 100 + e2e,
        }
    }

    /// Offers a query carrying `events` to the tail sampler.
    fn complete(fr: &FlightRecorder, ids: QueryIds, e2e: u64, events: Vec<TraceEvent>) {
        fr.on_complete(e2e, || QueryTrace {
            tag: ids.tag,
            request_id: ids.request_id,
            conn: ids.conn,
            slot: 0,
            worker: 0,
            lifecycle: lifecycle(e2e),
            events,
        });
    }

    #[test]
    fn threshold_rejects_fast_queries() {
        let cfg = FlightConfig { slow_threshold_ns: 1_000, top_k: 0 };
        let fr = FlightRecorder::new(cfg);
        fr.on_complete(999, || panic!("a fast query's trace must not be built"));
        assert!(fr.retained().is_empty(), "fast query must not be retained");
        complete(&fr, QueryIds::local(2), 1_000, Vec::new());
        assert_eq!(fr.retained().len(), 1);
        assert_eq!(fr.retained()[0].tag, 2);
    }

    #[test]
    fn top_k_keeps_the_slowest() {
        let cfg = FlightConfig { slow_threshold_ns: u64::MAX, top_k: 2 };
        let fr = FlightRecorder::new(cfg);
        for (tag, e2e) in [(1u64, 500u64), (2, 300), (3, 800), (4, 100), (5, 600)] {
            complete(&fr, QueryIds::local(tag), e2e, Vec::new());
        }
        let tags: Vec<u64> = fr.retained().iter().map(|t| t.tag).collect();
        assert_eq!(tags, vec![3, 5], "slowest two, slowest first");
    }

    #[test]
    fn retained_dedups_across_buckets() {
        // A query both over-threshold and in the top-K appears once.
        let cfg = FlightConfig { slow_threshold_ns: 10, top_k: 4 };
        let fr = FlightRecorder::new(cfg);
        complete(&fr, QueryIds::local(77), 999, Vec::new());
        assert_eq!(fr.retained().len(), 1);
        assert_eq!(fr.totals().retained, 1);
    }
}
