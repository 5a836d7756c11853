//! The hot-path recorder behind the `obs` feature flag.
//!
//! [`RuntimeObs`] owns the live metric cells the serving threads write:
//! cache-padded per-worker / per-host counter blocks (each thread's
//! counters live on their own cache lines, so relaxed increments never
//! contend) and the six shared phase histograms. Each event lands in
//! one counter: a served query in its worker's `queries`, a refill in
//! its host's `refills`.
//! [`JobStamps`] rides inside each in-flight job and collects the
//! seven lifecycle timestamps the phase spans are computed from.
//!
//! A served query costs two worker calls: [`RuntimeObs::record_search`]
//! before the `Work → Finish` flip (search, merge and rerank counters)
//! and [`RuntimeObs::record_delivery`] once the reply is built (phase
//! histograms, the flight recorder's tail sampler, the query log, the
//! exemplar); once the reply is handed over,
//! [`RuntimeObs::rotate_window_if_due`] rotates the window ring if a
//! second has passed since its newest slot — no thread ticks for it.
//! The host's refill only bumps one counter. Nothing is
//! written per trace event: when the tail sampler keeps a query,
//! `record_delivery` builds its timeline from the stamps, the walker
//! counts, the rerank delta and the controller decision it was handed.
//!
//! With the (default-on) `obs` feature disabled both types compile to
//! zero-sized no-ops and no clock is read, so the serving loops keep
//! identical shape with zero instrumentation cost — call sites never
//! need `#[cfg]`. This is the seam the feature compiles out at: the
//! flight recorder, query log and window ring are constructed by the
//! enabled [`RuntimeObs::new`] and nowhere else, so they need no
//! stand-ins of their own.

#[cfg(feature = "obs")]
pub use enabled::{JobStamps, RuntimeObs};

#[cfg(not(feature = "obs"))]
pub use disabled::{JobStamps, RuntimeObs};

#[cfg(feature = "obs")]
mod enabled {
    use crate::control::ControlDecision;
    use crate::engine::RerankStats;
    use crate::merge::MergeStats;
    use crate::obs::counters::{CachePadded, Counter};
    use crate::obs::flight::{
        EventKind, FlightConfig, FlightRecorder, LifecycleNs, QueryTrace, TraceEvent,
    };
    use crate::obs::hist::Histogram;
    use crate::obs::prof::{ProfRegistry, SharedProfRegistry};
    use crate::obs::qlog::{DeliveryCtx, QlogConfig, QlogRecord, QlogTotals, QueryLog, STATUS_OK};
    use crate::obs::snapshot::{HostStats, RuntimeStats, TailExemplar, WorkerStats};
    use crate::obs::window::{WindowBlock, WindowRing};
    use crate::tracer::StepTotals;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    /// Deliveries between tail-exemplar resets: the exemplar tracks the
    /// slowest end-to-end latency (and its request id) within the
    /// current window, so it stays recent instead of pinning the
    /// all-time maximum forever.
    const EXEMPLAR_WINDOW: u64 = 4096;

    /// Nanoseconds from `from` to `to`, when both edges were stamped.
    fn span(from: Option<Instant>, to: Option<Instant>) -> Option<u64> {
        Some(to?.saturating_duration_since(from?).as_nanos() as u64)
    }

    /// Lifecycle timestamps carried inside one in-flight job, plus the
    /// host poller that refilled its slot.
    #[derive(Clone, Copy, Debug)]
    pub struct JobStamps {
        submitted: Instant,
        slot: Option<Instant>,
        work_start: Option<Instant>,
        finish: Option<Instant>,
        merge_begin: Option<Instant>,
        merged: Option<Instant>,
        delivered: Option<Instant>,
        /// The lane of the query's `enqueued` and `assigned` events.
        host: u32,
    }

    impl JobStamps {
        /// Stamps the submission time (call at `submit`).
        pub fn new() -> Self {
            Self {
                submitted: Instant::now(),
                slot: None,
                work_start: None,
                finish: None,
                merge_begin: None,
                merged: None,
                delivered: None,
                host: 0,
            }
        }

        /// Stamps slot assignment by host poller `h` (the refill).
        pub fn mark_slot(&mut self, h: usize) {
            self.slot = Some(Instant::now());
            self.host = h as u32;
        }

        /// Stamps search start (worker picked the slot up).
        pub fn mark_work_start(&mut self) {
            self.work_start = Some(Instant::now());
        }

        /// Stamps search completion (the `Work → Finish` flip).
        pub fn mark_finish(&mut self) {
            self.finish = Some(Instant::now());
        }

        /// Stamps the start of the reply build.
        pub fn mark_merge_begin(&mut self) {
            self.merge_begin = Some(Instant::now());
        }

        /// Stamps the end of the reply build.
        pub fn mark_merged(&mut self) {
            self.merged = Some(Instant::now());
        }

        /// Stamps delivery: the send boundary, just before the reply is
        /// handed to the client.
        pub fn mark_delivered(&mut self) {
            self.delivered = Some(Instant::now());
        }
    }

    impl Default for JobStamps {
        fn default() -> Self {
            Self::new()
        }
    }

    #[derive(Default)]
    struct WorkerCells {
        queries: Counter,
        // Search totals land in the owning worker's block so the hot
        // path never shares a cache line with another thread.
        steps: Counter,
        expansions: Counter,
        dist_evals: Counter,
        sorts: Counter,
        calc_cycles: Counter,
        sort_cycles: Counter,
        other_cycles: Counter,
        // The query's one TopK merge runs inside the worker's search.
        merges: Counter,
        merge_elements: Counter,
        merge_dupes: Counter,
        // SQ8 exact-rerank phase totals (zero on fp32 engines).
        reranks: Counter,
        rerank_candidates: Counter,
        rerank_promotions: Counter,
        // Entry quality: summed best entry distance (milli-units, so
        // the counter stays integral) over this worker's queries.
        entry_dist_milli: Counter,
    }

    #[derive(Default)]
    struct HostCells {
        refills: Counter,
    }

    /// The live metric cells of one running server.
    pub struct RuntimeObs {
        workers: Vec<CachePadded<WorkerCells>>,
        hosts: Vec<CachePadded<HostCells>>,
        submit_to_slot: Histogram,
        slot_to_work: Histogram,
        work_to_finish: Histogram,
        finish_to_merged: Histogram,
        merged_to_delivered: Histogram,
        end_to_end: Histogram,
        flight: FlightRecorder,
        qlog: QueryLog,
        /// Deliveries since startup (drives the exemplar window reset).
        exemplar_count: AtomicU64,
        /// Slowest end-to-end latency in the current exemplar window.
        exemplar_e2e_ns: AtomicU64,
        /// Wire request id of that slowest delivery.
        exemplar_request_id: AtomicU64,
        /// Thread-state marker registry.
        prof: Arc<ProfRegistry>,
        /// Ring of stamped end-to-end histogram snapshots.
        window: WindowRing,
    }

    impl RuntimeObs {
        /// Allocates the cells for the given runtime shape (startup
        /// only; recording never allocates) and the flight recorder,
        /// query log, profiler registry and window ring behind them.
        pub fn new(
            n_workers: usize,
            n_host_threads: usize,
            flight_cfg: FlightConfig,
            qlog_cfg: QlogConfig,
        ) -> Self {
            Self {
                workers: (0..n_workers).map(|_| CachePadded::default()).collect(),
                hosts: (0..n_host_threads).map(|_| CachePadded::default()).collect(),
                submit_to_slot: Histogram::new(),
                slot_to_work: Histogram::new(),
                work_to_finish: Histogram::new(),
                finish_to_merged: Histogram::new(),
                merged_to_delivered: Histogram::new(),
                end_to_end: Histogram::new(),
                flight: FlightRecorder::new(flight_cfg),
                qlog: QueryLog::new(qlog_cfg),
                exemplar_count: AtomicU64::new(0),
                exemplar_e2e_ns: AtomicU64::new(0),
                exemplar_request_id: AtomicU64::new(0),
                prof: Arc::new(ProfRegistry::new()),
                // Its empty baseline slot is the histograms' state now,
                // so every window covers startup activity.
                window: WindowRing::new(Instant::now()),
            }
        }

        /// The thread-state marker registry, for threads that want to
        /// [`register`](ProfRegistry::register) and stamp.
        pub fn prof_registry(&self) -> SharedProfRegistry {
            Arc::clone(&self.prof)
        }

        /// Blocking folded-stack capture over `seconds`, sampled on
        /// the calling thread (the `/profile` endpoint's worker).
        pub fn prof_capture(&self, seconds: f64) -> String {
            self.prof.capture(seconds)
        }

        /// The windowed view of the end-to-end histogram, ending now,
        /// against `slo_ns` (0 = no SLO armed). Rotates the window ring
        /// afterwards if a rotation is due.
        pub fn window_stats(&self, slo_ns: u64) -> WindowBlock {
            self.window.stats(Instant::now(), &self.end_to_end, &self.submit_to_slot, slo_ns)
        }

        /// Rotates the window ring if a period has passed since its
        /// newest slot, judged at the query's delivery stamp. The
        /// worker calls it after handing its reply over: not due costs
        /// one relaxed load, and it never waits on a reader.
        /// Allocation-free. Returns whether it rotated.
        #[inline]
        pub fn rotate_window_if_due(&self, stamps: &JobStamps) -> bool {
            stamps.delivered.is_some_and(|now| {
                self.window.rotate_if_due(now, &self.end_to_end, &self.submit_to_slot)
            })
        }

        /// The retained (tail-sampled) flight-recorder traces,
        /// slowest-first.
        pub fn flight_retained(&self) -> Vec<QueryTrace> {
            self.flight.retained()
        }

        /// Drains ring records into the query-log retention buffer
        /// (off the serving path); returns how many were drained.
        pub fn qlog_drain(&self) -> usize {
            self.qlog.drain()
        }

        /// The retained query-log lines, oldest first. Drains the ring
        /// first so the view is current.
        pub fn qlog_lines(&self) -> Vec<String> {
            self.qlog.drain();
            self.qlog.lines()
        }

        /// Retained query-log lines past `cursor`, plus the new cursor
        /// (the file-writer thread's tailing interface). Drains the
        /// ring first so the view is current.
        pub fn qlog_lines_since(&self, cursor: u64) -> (Vec<String>, u64) {
            self.qlog.drain();
            self.qlog.lines_since(cursor)
        }

        /// Query-log totals.
        pub fn qlog_totals(&self) -> QlogTotals {
            self.qlog.totals()
        }

        /// Logs a request answered without a search — a backpressure
        /// reject or a protocol error, by `status` — as a wide-event
        /// record (non-ok records always log, regardless of sampling).
        /// Allocation-free.
        #[inline]
        pub fn qlog_refused(&self, request_id: u64, conn_id: u64, status: u64) {
            self.qlog.log(&QlogRecord { request_id, conn_id, status, ..QlogRecord::default() });
        }

        /// Accounts one completed search on worker `w`:
        /// its aggregated step totals (the worker computes them once
        /// per query, for this and for the query log), the distance to
        /// its best entry point, the delta of its TopK merge, and its
        /// exact-rerank delta (zero on fp32 engines).
        #[inline]
        pub fn record_search(
            &self,
            w: usize,
            totals: &StepTotals,
            entry_distance: Option<f32>,
            merge_delta: &MergeStats,
            rerank_delta: &RerankStats,
        ) {
            let cells = &self.workers[w];
            if let Some(d) = entry_distance {
                // Milli-unit fixed point keeps the cell a plain counter.
                cells.entry_dist_milli.add((f64::from(d) * 1e3) as u64);
            }
            cells.merges.add(merge_delta.merges);
            cells.merge_elements.add(merge_delta.elements);
            cells.merge_dupes.add(merge_delta.dupes_dropped);
            cells.reranks.add(rerank_delta.reranks);
            cells.rerank_candidates.add(rerank_delta.candidates);
            cells.rerank_promotions.add(rerank_delta.promotions);
            cells.queries.incr();
            cells.steps.add(totals.steps);
            cells.expansions.add(totals.expansions);
            cells.dist_evals.add(totals.dist_evals);
            cells.sorts.add(totals.sorts);
            cells.calc_cycles.add(totals.calc_cycles);
            cells.sort_cycles.add(totals.sort_cycles);
            cells.other_cycles.add(totals.other_cycles);
        }

        /// Accounts a slot refill by host poller `h`.
        #[inline]
        pub fn slot_assigned(&self, h: usize) {
            self.hosts[h].refills.incr();
        }

        /// Accounts one result delivered by worker `w` from slot `s`
        /// (the slot only labels the query's trace and log record): all
        /// six phase spans, the flight recorder's tail sampler, the
        /// wide-event query-log record and the exemplar. `walkers` (each
        /// walker's totals and beam-switch step, in launch order),
        /// `rerank_delta` and `control` (the SLO controller's decision,
        /// if this completion ticked it) are read only when the tail
        /// sampler retains the query, to build its timeline.
        /// Allocation-free unless the query is retained.
        #[inline]
        #[allow(clippy::too_many_arguments)]
        pub fn record_delivery(
            &self,
            w: usize,
            s: usize,
            ctx: &DeliveryCtx,
            stamps: &JobStamps,
            walkers: impl IntoIterator<Item = (StepTotals, Option<u32>)>,
            rerank_delta: &RerankStats,
            control: Option<ControlDecision>,
        ) {
            let submitted = Some(stamps.submitted);
            for (hist, from, to) in [
                (&self.submit_to_slot, submitted, stamps.slot),
                (&self.slot_to_work, stamps.slot, stamps.work_start),
                (&self.work_to_finish, stamps.work_start, stamps.finish),
                (&self.finish_to_merged, stamps.finish, stamps.merged),
                (&self.merged_to_delivered, stamps.merged, stamps.delivered),
                (&self.end_to_end, submitted, stamps.delivered),
            ] {
                if let Some(ns) = span(from, to) {
                    hist.record(ns);
                }
            }
            let e2e_ns = span(submitted, stamps.delivered).unwrap_or(0);

            let ns = |t: Option<Instant>| t.map_or(0, |t| self.flight.ns_of(t));
            let lifecycle = LifecycleNs {
                submitted_ns: self.flight.ns_of(stamps.submitted),
                slot_ns: ns(stamps.slot),
                work_start_ns: ns(stamps.work_start),
                finish_ns: ns(stamps.finish),
                merge_begin_ns: ns(stamps.merge_begin),
                merged_ns: ns(stamps.merged),
                delivered_ns: ns(stamps.delivered),
            };
            self.flight.on_complete(lifecycle.e2e_ns(), || QueryTrace {
                tag: ctx.tag,
                request_id: ctx.request_id,
                conn: ctx.conn_id,
                slot: s as u32,
                worker: w as u32,
                lifecycle,
                events: timeline(&lifecycle, stamps.host, w as u32, walkers, rerank_delta, control),
            });

            self.qlog.log(&QlogRecord {
                request_id: ctx.request_id,
                tag: ctx.tag,
                conn_id: ctx.conn_id,
                client_ts_us: ctx.client_ts_us,
                queue_ns: lifecycle.slot_ns.saturating_sub(lifecycle.submitted_ns),
                dispatch_ns: lifecycle.work_start_ns.saturating_sub(lifecycle.slot_ns),
                search_ns: lifecycle.finish_ns.saturating_sub(lifecycle.work_start_ns),
                merge_ns: lifecycle.merged_ns.saturating_sub(lifecycle.finish_ns),
                deliver_ns: lifecycle.delivered_ns.saturating_sub(lifecycle.merged_ns),
                e2e_ns,
                slot: s as u64,
                worker: u64::from(ctx.worker),
                hops: u64::from(ctx.hops),
                slo_level: u64::from(ctx.slo_level),
                rerank_depth: u64::from(ctx.rerank_depth),
                entry_code: u64::from(ctx.entry_code),
                status: STATUS_OK,
            });

            let n = self.exemplar_count.fetch_add(1, Ordering::Relaxed);
            if n.is_multiple_of(EXEMPLAR_WINDOW) {
                self.exemplar_e2e_ns.store(0, Ordering::Relaxed);
            }
            // Racy max-update pair (both relaxed): an exemplar only has
            // to point at *a* recent slow request, not *the* slowest.
            if e2e_ns > self.exemplar_e2e_ns.load(Ordering::Relaxed) {
                self.exemplar_e2e_ns.store(e2e_ns, Ordering::Relaxed);
                self.exemplar_request_id.store(ctx.request_id, Ordering::Relaxed);
            }
        }

        /// Copies every cell into `out` (per-thread blocks, phase
        /// histograms, and the cross-worker search / rerank / merge
        /// totals). Counter fields of `out` that the recorder doesn't
        /// own (queue totals, gauges) are left untouched.
        pub fn populate(&self, out: &mut RuntimeStats) {
            out.per_worker =
                self.workers.iter().map(|c| WorkerStats { queries: c.queries.get() }).collect();
            out.per_host =
                self.hosts.iter().map(|c| HostStats { refills: c.refills.get() }).collect();
            out.search = StepTotals::default();
            out.rerank = RerankStats::default();
            out.merge = MergeStats::default();
            for c in &self.workers {
                out.search.merge(&StepTotals {
                    steps: c.steps.get(),
                    expansions: c.expansions.get(),
                    dist_evals: c.dist_evals.get(),
                    sorts: c.sorts.get(),
                    calc_cycles: c.calc_cycles.get(),
                    sort_cycles: c.sort_cycles.get(),
                    other_cycles: c.other_cycles.get(),
                });
                out.rerank.merge(&RerankStats {
                    reranks: c.reranks.get(),
                    candidates: c.rerank_candidates.get(),
                    promotions: c.rerank_promotions.get(),
                });
                out.merge.merge(&MergeStats {
                    merges: c.merges.get(),
                    elements: c.merge_elements.get(),
                    dupes_dropped: c.merge_dupes.get(),
                });
            }
            out.entry_dist_milli_total =
                self.workers.iter().map(|c| c.entry_dist_milli.get()).sum();
            out.phases.submit_to_slot = self.submit_to_slot.snapshot();
            out.phases.slot_to_work = self.slot_to_work.snapshot();
            out.phases.work_to_finish = self.work_to_finish.snapshot();
            out.phases.finish_to_merged = self.finish_to_merged.snapshot();
            out.phases.merged_to_delivered = self.merged_to_delivered.snapshot();
            out.phases.end_to_end = self.end_to_end.snapshot();
            out.flight = self.flight.totals();
            out.qlog = self.qlog.totals();
            out.exemplar = TailExemplar {
                e2e_ns: self.exemplar_e2e_ns.load(Ordering::Relaxed),
                request_id: self.exemplar_request_id.load(Ordering::Relaxed),
            };
        }
    }

    /// A retained query's timeline, in the order its slot saw it: the
    /// host's `enqueued`/`assigned` edges, `work_start`, one `cta_step`
    /// per walker (its distance evaluations and steps) with a
    /// `beam_switch` where its beam extend fired, the `rerank_pass`,
    /// `finish`, the controller's `control_adjust`, and the reply's
    /// `merge_begin`/`merge_end`/`delivered`. Walker and rerank records
    /// are stamped at `finish`, when their counts are known; the
    /// controller's when the reply was built, just before it observed
    /// the query.
    fn timeline(
        lc: &LifecycleNs,
        host: u32,
        w: u32,
        walkers: impl IntoIterator<Item = (StepTotals, Option<u32>)>,
        rerank_delta: &RerankStats,
        control: Option<ControlDecision>,
    ) -> Vec<TraceEvent> {
        let sat = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
        let event = |ts_ns, kind, lane, a, b| TraceEvent { ts_ns, kind, lane, a, b };
        let mut events = vec![
            event(lc.submitted_ns, EventKind::Enqueued, host, 0, 0),
            event(lc.slot_ns, EventKind::Assigned, host, 0, 0),
            event(lc.work_start_ns, EventKind::WorkStart, w, 0, 0),
        ];
        for (c, (walker, switch_step)) in (0u32..).zip(walkers) {
            let (evals, steps) = (sat(walker.dist_evals), sat(walker.steps));
            events.push(event(lc.finish_ns, EventKind::CtaStep, c, evals, steps));
            if let Some(step) = switch_step {
                events.push(event(lc.finish_ns, EventKind::BeamSwitch, c, step, 0));
            }
        }
        if rerank_delta.reranks > 0 {
            let (candidates, promotions) =
                (sat(rerank_delta.candidates), sat(rerank_delta.promotions));
            events.push(event(lc.finish_ns, EventKind::RerankPass, w, candidates, promotions));
        }
        events.push(event(lc.finish_ns, EventKind::Finish, w, 0, 0));
        if let Some(d) = control {
            events.push(event(lc.merged_ns, EventKind::ControlAdjust, w, d.level, d.reason as u32));
        }
        events.extend([
            event(lc.merge_begin_ns, EventKind::MergeBegin, w, 0, 0),
            event(lc.merged_ns, EventKind::MergeEnd, w, 0, 0),
            event(lc.delivered_ns, EventKind::Delivered, w, 0, 0),
        ]);
        events
    }
}

#[cfg(not(feature = "obs"))]
mod disabled {
    use crate::control::ControlDecision;
    use crate::engine::RerankStats;
    use crate::merge::MergeStats;
    use crate::obs::flight::{FlightConfig, QueryTrace};
    use crate::obs::prof::{ProfRegistry, SharedProfRegistry};
    use crate::obs::qlog::{DeliveryCtx, QlogConfig, QlogTotals};
    use crate::obs::snapshot::RuntimeStats;
    use crate::obs::window::WindowBlock;
    use crate::tracer::StepTotals;

    /// Zero-sized no-op stand-in for the lifecycle timestamps.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct JobStamps;

    impl JobStamps {
        /// No-op.
        pub fn new() -> Self {
            Self
        }

        /// No-op.
        pub fn mark_slot(&mut self, _h: usize) {}

        /// No-op.
        pub fn mark_work_start(&mut self) {}

        /// No-op.
        pub fn mark_finish(&mut self) {}

        /// No-op.
        pub fn mark_merge_begin(&mut self) {}

        /// No-op.
        pub fn mark_merged(&mut self) {}

        /// No-op.
        pub fn mark_delivered(&mut self) {}
    }

    /// Zero-sized no-op stand-in for the live metric cells.
    pub struct RuntimeObs;

    impl RuntimeObs {
        /// No-op.
        pub fn new(
            _n_workers: usize,
            _n_host_threads: usize,
            _flight_cfg: FlightConfig,
            _qlog_cfg: QlogConfig,
        ) -> Self {
            Self
        }

        /// The zero-sized registry stand-in (stamps are no-ops).
        pub fn prof_registry(&self) -> SharedProfRegistry {
            ProfRegistry
        }

        /// Always empty.
        pub fn prof_capture(&self, _seconds: f64) -> String {
            String::new()
        }

        /// Always the empty block.
        pub fn window_stats(&self, _slo_ns: u64) -> WindowBlock {
            WindowBlock::default()
        }

        /// No-op: there is no ring to rotate.
        #[inline]
        pub fn rotate_window_if_due(&self, _stamps: &JobStamps) -> bool {
            false
        }

        /// No-op; nothing to drain.
        pub fn qlog_drain(&self) -> usize {
            0
        }

        /// Always empty.
        pub fn qlog_lines(&self) -> Vec<String> {
            Vec::new()
        }

        /// Always empty.
        pub fn qlog_lines_since(&self, _cursor: u64) -> (Vec<String>, u64) {
            (Vec::new(), 0)
        }

        /// Always zero.
        pub fn qlog_totals(&self) -> QlogTotals {
            QlogTotals::default()
        }

        /// No-op.
        #[inline]
        pub fn qlog_refused(&self, _request_id: u64, _conn_id: u64, _status: u64) {}

        /// No-op: nothing is ever retained.
        pub fn flight_retained(&self) -> Vec<QueryTrace> {
            Vec::new()
        }

        /// No-op.
        #[inline]
        pub fn record_search(
            &self,
            _w: usize,
            _totals: &StepTotals,
            _entry_distance: Option<f32>,
            _merge_delta: &MergeStats,
            _rerank_delta: &RerankStats,
        ) {
        }

        /// No-op.
        #[inline]
        pub fn slot_assigned(&self, _h: usize) {}

        /// No-op.
        #[inline]
        #[allow(clippy::too_many_arguments)]
        pub fn record_delivery(
            &self,
            _w: usize,
            _s: usize,
            _ctx: &DeliveryCtx,
            _stamps: &JobStamps,
            _walkers: impl IntoIterator<Item = (StepTotals, Option<u32>)>,
            _rerank_delta: &RerankStats,
            _control: Option<ControlDecision>,
        ) {
        }

        /// No-op: the snapshot keeps its zeroed breakdowns.
        pub fn populate(&self, _out: &mut RuntimeStats) {}
    }
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;
    use crate::control::{ControlDecision, ControlReason};
    use crate::engine::RerankStats;
    use crate::merge::MergeStats;
    use crate::obs::flight::{EventKind, FlightConfig};
    use crate::obs::qlog::{DeliveryCtx, QlogConfig};
    use crate::obs::snapshot::RuntimeStats;
    use crate::tracer::StepTotals;

    /// Stamps the three reply edges, as the worker does after the search.
    fn stamp_reply(stamps: &mut JobStamps) {
        stamps.mark_merge_begin();
        stamps.mark_merged();
        stamps.mark_delivered();
    }

    #[test]
    fn recorder_populates_snapshot() {
        use crate::obs::json::Value;
        let qcfg = QlogConfig { enabled: true, sample_every: 1 };
        let obs = RuntimeObs::new(2, 1, FlightConfig::default(), qcfg);
        let mut stamps = JobStamps::new();
        stamps.mark_slot(0);
        obs.slot_assigned(0);
        stamps.mark_work_start();
        let totals = StepTotals {
            steps: 10,
            expansions: 12,
            dist_evals: 200,
            sorts: 10,
            calc_cycles: 900,
            sort_cycles: 80,
            other_cycles: 20,
        };
        let delta = MergeStats { merges: 1, elements: 16, dupes_dropped: 2 };
        let rerank = RerankStats { reranks: 1, candidates: 20, promotions: 3 };
        stamps.mark_finish();
        obs.record_search(0, &totals, None, &delta, &rerank);
        stamp_reply(&mut stamps);
        let ctx = DeliveryCtx {
            tag: 7,
            request_id: 907,
            conn_id: 2,
            client_ts_us: 0,
            worker: 0,
            hops: 10,
            slo_level: 1,
            rerank_depth: 32,
            entry_code: 1,
        };
        obs.record_delivery(0, 1, &ctx, &stamps, [(totals, None)], &rerank, None);

        let mut s = RuntimeStats::empty(2, 2, 1);
        obs.populate(&mut s);
        assert_eq!(s.per_worker[0].queries, 1);
        assert_eq!(s.per_worker[1].queries, 0);
        assert_eq!(s.per_host[0].refills, 1);
        assert_eq!(s.search, totals);
        assert_eq!(s.rerank, rerank);
        assert_eq!(s.merge, delta);
        for (name, h) in s.phases.named() {
            assert_eq!(h.count, 1, "phase {name} should hold one sample");
        }
        assert!(s.phases.end_to_end.sum >= s.phases.work_to_finish.sum);
        assert_eq!(s.qlog.logged, 1);
        assert_eq!(s.exemplar.request_id, 907, "exemplar points at the slowest request");
        assert!(s.exemplar.e2e_ns > 0);

        // The wide event carries the per-query context verbatim.
        assert_eq!(obs.qlog_drain(), 1);
        let lines = obs.qlog_lines();
        let doc = Value::parse(&lines[0]).expect("query-log line parses");
        assert_eq!(doc.get("request_id").unwrap().as_u64(), Some(907));
        assert_eq!(doc.get("tag").unwrap().as_u64(), Some(7));
        assert_eq!(doc.get("conn").unwrap().as_u64(), Some(2));
        assert_eq!(doc.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(doc.get("hops").unwrap().as_u64(), Some(10));
        assert_eq!(doc.get("entry").unwrap().as_str(), Some("medoid"));
        assert_eq!(doc.get("slo_level").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("rerank_depth").unwrap().as_u64(), Some(32));
        assert_eq!(doc.get("slot").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn slow_query_is_retained_through_the_recorder() {
        let cfg = FlightConfig { slow_threshold_ns: 0, ..FlightConfig::default() };
        let obs = RuntimeObs::new(4, 1, cfg, QlogConfig::default());
        let mut stamps = JobStamps::new();
        stamps.mark_slot(0);
        obs.slot_assigned(0);
        stamps.mark_work_start();
        stamps.mark_finish();
        stamp_reply(&mut stamps);
        let ctx = DeliveryCtx::local(42);
        obs.record_delivery(3, 0, &ctx, &stamps, [], &RerankStats::default(), None);

        let traces = obs.flight_retained();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.tag, 42);
        assert_eq!(t.request_id, 42, "local submits key traces by tag");
        assert_eq!(t.conn, 0);
        assert_eq!(t.slot, 0);
        assert_eq!(t.worker, 3, "the worker that delivered the query");
        assert_eq!(t.events.len(), 7);
        assert_eq!(t.events[0].kind, EventKind::Enqueued);
        assert_eq!(t.events.last().unwrap().kind, EventKind::Delivered);
        assert!(t.lifecycle.delivered_ns >= t.lifecycle.submitted_ns);
    }

    #[test]
    fn retained_timeline_is_built_from_what_the_worker_holds() {
        use EventKind::*;
        let cfg = FlightConfig { slow_threshold_ns: 0, ..FlightConfig::default() };
        // Host 2, worker 3, walkers 0 and 1: every lane is distinct.
        let obs = RuntimeObs::new(4, 3, cfg, QlogConfig::default());
        let (h, w, s) = (2, 3, 1);
        let mut stamps = JobStamps::new();
        stamps.mark_slot(h);
        obs.slot_assigned(h);
        stamps.mark_work_start();
        stamps.mark_finish();
        let walker = |dist_evals, steps| StepTotals { dist_evals, steps, ..StepTotals::default() };
        let walkers = [(walker(120, 9), None), (walker(40, 5), Some(3))];
        let rerank = RerankStats { reranks: 1, candidates: 24, promotions: 2 };
        let totals = walker(160, 14);
        obs.record_search(w, &totals, None, &MergeStats::default(), &rerank);
        stamp_reply(&mut stamps);
        let control =
            ControlDecision { level: 2, reason: ControlReason::Shed, p99_ns: 9_000, changed: true };
        let ctx = DeliveryCtx::local(11);
        obs.record_delivery(w, s, &ctx, &stamps, walkers, &rerank, Some(control));

        let traces = obs.flight_retained();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!((t.tag, t.slot, t.worker), (11, 1, 3));
        let seq: Vec<_> = t.events.iter().map(|e| (e.kind, e.lane, e.a, e.b)).collect();
        let (h, w, shed) = (h as u32, w as u32, ControlReason::Shed as u32);
        assert_eq!(
            seq,
            vec![
                (Enqueued, h, 0, 0),
                (Assigned, h, 0, 0),
                (WorkStart, w, 0, 0),
                (CtaStep, 0, 120, 9),
                (CtaStep, 1, 40, 5),
                (BeamSwitch, 1, 3, 0),
                (RerankPass, w, 24, 2),
                (Finish, w, 0, 0),
                (ControlAdjust, w, 2, shed),
                (MergeBegin, w, 0, 0),
                (MergeEnd, w, 0, 0),
                (Delivered, w, 0, 0),
            ]
        );
        let at = |kind| t.events.iter().find(|e| e.kind == kind).unwrap().ts_ns;
        let lc = &t.lifecycle;
        assert_eq!(
            [Enqueued, Assigned, WorkStart, Finish, MergeBegin, MergeEnd, Delivered].map(at),
            [
                lc.submitted_ns,
                lc.slot_ns,
                lc.work_start_ns,
                lc.finish_ns,
                lc.merge_begin_ns,
                lc.merged_ns,
                lc.delivered_ns,
            ]
        );
    }
}
