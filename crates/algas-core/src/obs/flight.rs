//! The per-query flight recorder: always-on slot event tracing with
//! tail-sampled slow-query capture.
//!
//! The aggregate layer ([`super::recorder`]) can show *that* p99
//! regressed; this module shows *why one query* was slow. Every slot
//! owns a fixed-capacity ring of timestamped [`TraceEvent`]s — slot
//! state transitions, the beam-extend localization→diffusing switch,
//! per-CTA search steps, host pickup begin/end, the rerank pass — that
//! the serving threads write lock-free and allocation-free, overwriting
//! the oldest events like an aircraft flight recorder.
//!
//! On query completion the runtime *tail-samples*: the full timeline is
//! lifted out of the ring only for queries slower than
//! [`FlightConfig::slow_threshold_ns`] and for the top-K slowest seen
//! so far. The fast-path rejection is a handful of relaxed loads; the capture itself
//! (allocating a [`QueryTrace`]) runs only for retained queries.
//!
//! **Why the ring is safe without locks:** the slot state machine
//! (`None → Work → Finish → Done`) already serializes the serving
//! phases — the host writes the enqueue/assign events before flipping
//! to `Work`, the worker writes the search events between observing
//! `Work` and flipping to `Finish`, and the host writes the pickup and
//! delivery events (and performs the capture) after observing `Finish`.
//! At most one thread writes a given slot's ring at a time, and the
//! acquire/release edges of the state transitions order the relaxed
//! cell stores before the capture's relaxed loads.
//!
//! `FlightRecorder` exists only with the `obs` feature: its one
//! constructor call is in the recorder ([`super::recorder`]), which is
//! where the feature compiles out. The data model ([`TraceEvent`],
//! [`QueryTrace`], [`FlightConfig`]) is unconditional, so the CLI and
//! the Chrome-trace exporter compile either way.

use super::json::{obj, Value};

/// What happened at one [`TraceEvent`] (one lifecycle edge or one unit
/// of searcher-internal progress).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Query accepted into the submission queue (`lane` = host).
    Enqueued = 1,
    /// Host assigned the query to this slot (`lane` = host).
    Assigned = 2,
    /// Worker picked the slot up and started searching (`lane` =
    /// worker).
    WorkStart = 3,
    /// One CTA search step (`lane` = CTA, `a` = distances evaluated,
    /// `b` = synthesized duration in ns).
    CtaStep = 4,
    /// The beam-extend localization→diffusing switch fired (`lane` =
    /// CTA, `a` = step index of the switch).
    BeamSwitch = 5,
    /// The SQ8 exact-rerank pass ran (`lane` = worker, `a` =
    /// candidates, `b` = promotions).
    RerankPass = 6,
    /// Search done, `Work → Finish` flip (`lane` = worker).
    Finish = 7,
    /// Host picked the finished slot up (`lane` = host). The merge runs
    /// in the worker; the name stays because trace readers key on it.
    MergeBegin = 8,
    /// Host pickup done: the reply is built from the slot's TopK
    /// (`lane` = host).
    MergeEnd = 9,
    /// Reply handed to the client channel, `Finish → Done` flip
    /// (`lane` = host).
    Delivered = 10,
    /// The SLO controller changed or confirmed the effort level at a
    /// tick triggered by this query's completion (`lane` = host, `a` =
    /// new effort level, `b` = [`crate::control::ControlReason`] as
    /// `u8`).
    ControlAdjust = 11,
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

    /// Decodes a ring cell's kind byte (`None` for never-written cells).
    pub fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::Enqueued,
            2 => EventKind::Assigned,
            3 => EventKind::WorkStart,
            4 => EventKind::CtaStep,
            5 => EventKind::BeamSwitch,
            6 => EventKind::RerankPass,
            7 => EventKind::Finish,
            8 => EventKind::MergeBegin,
            9 => EventKind::MergeEnd,
            10 => EventKind::Delivered,
            11 => EventKind::ControlAdjust,
            _ => return None,
        })
    }
}

/// One decoded flight-recorder event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder's epoch (server start).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Which lane it happened on — worker, host, or CTA index,
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
    /// Host picked the finished slot up.
    pub merge_begin_ns: u64,
    /// Host pickup done (reply built from the slot's TopK).
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

/// One retained query timeline: the lifecycle timestamps plus every
/// ring event that survived overwriting.
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
    /// Worker that searched it (from the `WorkStart` event; 0 if that
    /// event was overwritten).
    pub worker: u32,
    /// Host poller that delivered it.
    pub host: u32,
    /// Lifecycle timestamps.
    pub lifecycle: LifecycleNs,
    /// Ring events that were overwritten before capture (0 when the
    /// ring was deep enough for the whole query).
    pub dropped: u64,
    /// Surviving events, oldest first.
    pub events: Vec<TraceEvent>,
}

impl QueryTrace {
    /// End-to-end latency of the traced query.
    pub fn e2e_ns(&self) -> u64 {
        self.lifecycle.e2e_ns()
    }

    /// The trace as a JSON value (the `/traces` wire form).
    pub fn to_json_value(&self) -> Value {
        let lc = &self.lifecycle;
        obj(vec![
            ("tag", Value::Uint(self.tag)),
            ("request_id", Value::Uint(self.request_id)),
            ("conn", Value::Uint(self.conn)),
            ("slot", Value::Uint(u64::from(self.slot))),
            ("worker", Value::Uint(u64::from(self.worker))),
            ("host", Value::Uint(u64::from(self.host))),
            ("e2e_ns", Value::Uint(self.e2e_ns())),
            ("dropped", Value::Uint(self.dropped)),
            (
                "lifecycle_ns",
                obj(vec![
                    ("submitted", Value::Uint(lc.submitted_ns)),
                    ("slot", Value::Uint(lc.slot_ns)),
                    ("work_start", Value::Uint(lc.work_start_ns)),
                    ("finish", Value::Uint(lc.finish_ns)),
                    ("merge_begin", Value::Uint(lc.merge_begin_ns)),
                    ("merged", Value::Uint(lc.merged_ns)),
                    ("delivered", Value::Uint(lc.delivered_ns)),
                ]),
            ),
            (
                "events",
                Value::Arr(
                    self.events
                        .iter()
                        .map(|e| {
                            obj(vec![
                                ("ts_ns", Value::Uint(e.ts_ns)),
                                ("kind", Value::Str(e.kind.name().to_string())),
                                ("lane", Value::Uint(u64::from(e.lane))),
                                ("a", Value::Uint(u64::from(e.a))),
                                ("b", Value::Uint(u64::from(e.b))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Renders retained traces as the `/traces` endpoint's JSON document.
pub fn traces_json(traces: &[QueryTrace]) -> String {
    obj(vec![("traces", Value::Arr(traces.iter().map(QueryTrace::to_json_value).collect()))])
        .render()
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

/// Flight-recorder totals for the serving snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlightTotals {
    /// Completions the tail-sampler examined.
    pub completions: u64,
    /// Events written across all slot rings (including overwritten).
    pub events: u64,
    /// Distinct query traces currently retained.
    pub retained: u64,
}

#[cfg(feature = "obs")]
pub use enabled::FlightRecorder;

#[cfg(feature = "obs")]
mod enabled {
    use super::{
        EventKind, FlightConfig, FlightTotals, LifecycleNs, QueryIds, QueryTrace, TraceEvent,
    };
    use crate::obs::counters::CachePadded;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::Instant;

    /// Events kept per slot before the oldest are overwritten (a power
    /// of two: the cell index is `cursor & MASK`).
    pub(super) const RING_CAPACITY: usize = 1024;
    const MASK: u64 = RING_CAPACITY as u64 - 1;
    const _: () = assert!(RING_CAPACITY.is_power_of_two());
    /// Retained slow queries kept outside the top-K reservoir.
    const SLOW_CAP: usize = 64;

    /// One ring cell: three words written with relaxed stores (the slot
    /// protocol's acquire/release edges order them; see the module
    /// docs). `w1 == 0` means never written.
    #[derive(Default)]
    struct EventCell {
        /// Timestamp, ns since epoch.
        w0: AtomicU64,
        /// `kind << 32 | lane`.
        w1: AtomicU64,
        /// `a << 32 | b`.
        w2: AtomicU64,
    }

    struct SlotRing {
        cells: Box<[EventCell]>,
        /// Monotone write cursor (never wraps; cell index is
        /// `cursor & mask`).
        cursor: AtomicU64,
        /// Cursor position when the slot's current query was assigned —
        /// capture reads `[max(mark, cursor - capacity), cursor)`.
        mark: AtomicU64,
    }

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

    /// The per-slot event rings plus the tail-sampling state.
    pub struct FlightRecorder {
        epoch: Instant,
        cfg: FlightConfig,
        rings: Vec<CachePadded<SlotRing>>,
        completions: AtomicU64,
        /// Cached minimum end-to-end latency of the top-K bucket: the
        /// lock-free fast-path filter. 0 while the bucket is filling
        /// (accept everything), `u64::MAX` when `top_k == 0`.
        top_min: AtomicU64,
        retained: Mutex<Retained>,
    }

    impl FlightRecorder {
        /// Allocates the rings (startup only; recording never
        /// allocates).
        pub fn new(n_slots: usize, cfg: FlightConfig) -> Self {
            let rings = (0..n_slots)
                .map(|_| {
                    CachePadded(SlotRing {
                        cells: (0..RING_CAPACITY).map(|_| EventCell::default()).collect(),
                        cursor: AtomicU64::new(0),
                        mark: AtomicU64::new(0),
                    })
                })
                .collect();
            Self {
                epoch: Instant::now(),
                cfg,
                rings,
                completions: AtomicU64::new(0),
                top_min: AtomicU64::new(if cfg.top_k == 0 { u64::MAX } else { 0 }),
                retained: Mutex::new(Retained::default()),
            }
        }

        /// `stamp` as nanoseconds since the recorder's epoch.
        #[inline]
        pub fn ns_of(&self, stamp: Instant) -> u64 {
            stamp.saturating_duration_since(self.epoch).as_nanos() as u64
        }

        /// Nanoseconds since the recorder's epoch, now.
        #[inline]
        pub fn now_ns(&self) -> u64 {
            self.ns_of(Instant::now())
        }

        /// Marks the start of a new query on `slot`: events older than
        /// this point belong to the previous occupant and are excluded
        /// from capture.
        #[inline]
        pub fn begin_query(&self, slot: usize) {
            let ring = &self.rings[slot];
            ring.mark.store(ring.cursor.load(Ordering::Relaxed), Ordering::Relaxed);
        }

        /// Writes one event into `slot`'s ring: a cursor bump plus
        /// three relaxed stores, overwriting the oldest cell when full.
        /// Never allocates, never blocks.
        #[inline]
        pub fn record(&self, slot: usize, kind: EventKind, lane: u32, a: u32, b: u32, ts_ns: u64) {
            let ring = &self.rings[slot];
            let i = ring.cursor.load(Ordering::Relaxed);
            ring.cursor.store(i + 1, Ordering::Relaxed);
            let cell = &ring.cells[(i & MASK) as usize];
            cell.w0.store(ts_ns, Ordering::Relaxed);
            cell.w1.store(u64::from(kind as u8) << 32 | u64::from(lane), Ordering::Relaxed);
            cell.w2.store(u64::from(a) << 32 | u64::from(b), Ordering::Relaxed);
        }

        /// Tail-samples one completed query. The fast path (query not
        /// retained) is a few relaxed atomic ops and never allocates;
        /// capturing a retained trace allocates its [`QueryTrace`]
        /// (acceptable: retention is rare by construction).
        pub fn on_complete(&self, slot: usize, ids: QueryIds, host: u32, lifecycle: &LifecycleNs) {
            self.completions.fetch_add(1, Ordering::Relaxed);
            let e2e = lifecycle.e2e_ns();
            let slow = e2e >= self.cfg.slow_threshold_ns;
            // `>=` lets ties through; the cold path re-checks with `>`
            // under the lock, so this stays a conservative filter.
            let top = self.cfg.top_k > 0 && e2e >= self.top_min.load(Ordering::Relaxed);
            if !(slow || top) {
                return;
            }
            let trace = self.capture(slot, ids, host, lifecycle);
            let mut r = crate::lock(&self.retained);
            if top {
                if r.top.len() < self.cfg.top_k {
                    r.top.push(trace.clone());
                } else if let Some(min_idx) = min_e2e_index(&r.top) {
                    if e2e > r.top[min_idx].e2e_ns() {
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
                    if e2e > r.slow[min_idx].e2e_ns() {
                        r.slow[min_idx] = trace;
                    }
                }
            }
        }

        /// Drains `slot`'s ring into an owned trace (cold path).
        fn capture(
            &self,
            slot: usize,
            ids: QueryIds,
            host: u32,
            lifecycle: &LifecycleNs,
        ) -> QueryTrace {
            let ring = &self.rings[slot];
            let hi = ring.cursor.load(Ordering::Relaxed);
            let mark = ring.mark.load(Ordering::Relaxed);
            let lo = mark.max(hi.saturating_sub(RING_CAPACITY as u64));
            let mut events = Vec::with_capacity((hi - lo) as usize);
            for i in lo..hi {
                let cell = &ring.cells[(i & MASK) as usize];
                let w1 = cell.w1.load(Ordering::Relaxed);
                let Some(kind) = EventKind::from_u8((w1 >> 32) as u8) else { continue };
                events.push(TraceEvent {
                    ts_ns: cell.w0.load(Ordering::Relaxed),
                    kind,
                    lane: w1 as u32,
                    a: (cell.w2.load(Ordering::Relaxed) >> 32) as u32,
                    b: cell.w2.load(Ordering::Relaxed) as u32,
                });
            }
            let worker =
                events.iter().find(|e| e.kind == EventKind::WorkStart).map_or(0, |e| e.lane);
            QueryTrace {
                tag: ids.tag,
                request_id: ids.request_id,
                conn: ids.conn,
                slot: slot as u32,
                worker,
                host,
                lifecycle: *lifecycle,
                dropped: lo - mark,
                events,
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
            FlightTotals {
                completions: self.completions.load(Ordering::Relaxed),
                events: self.rings.iter().map(|r| r.cursor.load(Ordering::Relaxed)).sum(),
                retained: crate::lock(&self.retained).distinct().count() as u64,
            }
        }
    }

    fn min_e2e_index(traces: &[QueryTrace]) -> Option<usize> {
        traces.iter().enumerate().min_by_key(|(_, t)| t.e2e_ns()).map(|(i, _)| i)
    }
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::enabled::RING_CAPACITY;
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

    fn capture_all() -> FlightConfig {
        FlightConfig { slow_threshold_ns: 0, top_k: 0 }
    }

    #[test]
    fn ring_captures_events_in_order() {
        let fr = FlightRecorder::new(2, capture_all());
        fr.begin_query(1);
        fr.record(1, EventKind::Enqueued, 0, 0, 0, 100);
        fr.record(1, EventKind::Assigned, 0, 0, 0, 110);
        fr.record(1, EventKind::WorkStart, 3, 0, 0, 120);
        fr.record(1, EventKind::Delivered, 0, 0, 0, 160);
        fr.on_complete(1, QueryIds::local(42), 0, &lifecycle(60));
        let traces = fr.retained();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!((t.tag, t.slot, t.worker, t.dropped), (42, 1, 3, 0));
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.events[0].kind, EventKind::Enqueued);
        assert_eq!(t.events[3].kind, EventKind::Delivered);
        assert!(t.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let fr = FlightRecorder::new(1, capture_all());
        fr.begin_query(0);
        let written = RING_CAPACITY as u32 + 12;
        for i in 0..written {
            fr.record(0, EventKind::CtaStep, 0, i, 0, u64::from(i));
        }
        fr.on_complete(0, QueryIds::local(7), 0, &lifecycle(50));
        let t = &fr.retained()[0];
        assert_eq!(t.events.len(), RING_CAPACITY, "ring keeps exactly its capacity");
        assert_eq!(t.dropped, 12, "overwritten events are counted");
        // The survivors are the newest, in order.
        let kept: Vec<u32> = t.events.iter().map(|e| e.a).collect();
        assert_eq!(kept, (12..written).collect::<Vec<u32>>());
    }

    #[test]
    fn begin_query_isolates_previous_occupant() {
        let fr = FlightRecorder::new(1, capture_all());
        fr.begin_query(0);
        fr.record(0, EventKind::WorkStart, 9, 0, 0, 10);
        fr.on_complete(0, QueryIds::local(1), 0, &lifecycle(30));
        fr.begin_query(0);
        fr.record(0, EventKind::WorkStart, 5, 0, 0, 50);
        fr.on_complete(0, QueryIds::local(2), 0, &lifecycle(40));
        let traces = fr.retained();
        let second = traces.iter().find(|t| t.tag == 2).unwrap();
        assert_eq!(second.events.len(), 1, "previous query's events excluded");
        assert_eq!(second.worker, 5);
    }

    #[test]
    fn threshold_rejects_fast_queries() {
        let cfg = FlightConfig { slow_threshold_ns: 1_000, top_k: 0 };
        let fr = FlightRecorder::new(1, cfg);
        fr.begin_query(0);
        fr.on_complete(0, QueryIds::local(1), 0, &lifecycle(999));
        assert!(fr.retained().is_empty(), "fast query must not be retained");
        fr.begin_query(0);
        fr.on_complete(0, QueryIds::local(2), 0, &lifecycle(1_000));
        assert_eq!(fr.retained().len(), 1);
        assert_eq!(fr.retained()[0].tag, 2);
    }

    #[test]
    fn top_k_keeps_the_slowest() {
        let cfg = FlightConfig { slow_threshold_ns: u64::MAX, top_k: 2 };
        let fr = FlightRecorder::new(1, cfg);
        for (tag, e2e) in [(1u64, 500u64), (2, 300), (3, 800), (4, 100), (5, 600)] {
            fr.begin_query(0);
            fr.on_complete(0, QueryIds::local(tag), 0, &lifecycle(e2e));
        }
        let tags: Vec<u64> = fr.retained().iter().map(|t| t.tag).collect();
        assert_eq!(tags, vec![3, 5], "slowest two, slowest first");
    }

    #[test]
    fn retained_dedups_across_buckets() {
        // A query both over-threshold and in the top-K appears once.
        let cfg = FlightConfig { slow_threshold_ns: 10, top_k: 4 };
        let fr = FlightRecorder::new(1, cfg);
        fr.begin_query(0);
        fr.on_complete(0, QueryIds::local(77), 0, &lifecycle(999));
        assert_eq!(fr.retained().len(), 1);
        assert_eq!(fr.totals().retained, 1);
    }

    #[test]
    fn trace_json_carries_the_timeline() {
        let fr = FlightRecorder::new(1, capture_all());
        fr.begin_query(0);
        fr.record(0, EventKind::BeamSwitch, 2, 14, 0, 130);
        fr.on_complete(0, QueryIds { tag: 5, request_id: 9_001, conn: 3 }, 1, &lifecycle(60));
        let text = traces_json(&fr.retained());
        let doc = Value::parse(&text).unwrap();
        let t = &doc.get("traces").unwrap().as_arr().unwrap()[0];
        assert_eq!(t.get("tag").unwrap().as_u64(), Some(5));
        assert_eq!(t.get("request_id").unwrap().as_u64(), Some(9_001));
        assert_eq!(t.get("conn").unwrap().as_u64(), Some(3));
        assert_eq!(t.get("host").unwrap().as_u64(), Some(1));
        assert_eq!(t.get("e2e_ns").unwrap().as_u64(), Some(60));
        let ev = &t.get("events").unwrap().as_arr().unwrap()[0];
        assert_eq!(ev.get("kind").unwrap().as_str(), Some("beam_switch"));
        assert_eq!(ev.get("lane").unwrap().as_u64(), Some(2));
        assert_eq!(ev.get("a").unwrap().as_u64(), Some(14));
    }

    #[test]
    fn event_kind_roundtrips() {
        for v in 0..=255u8 {
            if let Some(k) = EventKind::from_u8(v) {
                assert_eq!(k as u8, v);
                assert!(!k.name().is_empty());
            }
        }
        assert!(EventKind::from_u8(0).is_none());
        assert_eq!(EventKind::from_u8(11), Some(EventKind::ControlAdjust));
        assert!(EventKind::from_u8(12).is_none());
    }
}
