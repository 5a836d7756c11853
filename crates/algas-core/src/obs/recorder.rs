//! The hot-path recorder behind the `obs` feature flag.
//!
//! [`RuntimeObs`] owns the live metric cells the serving threads write:
//! cache-padded per-worker / per-host / per-slot counter blocks (each
//! thread's counters live on their own cache lines, so relaxed
//! increments never contend) and the six shared phase histograms.
//! [`JobStamps`] rides inside each in-flight job and collects the
//! lifecycle timestamps the phase spans are computed from.
//!
//! With the (default-on) `obs` feature disabled both types compile to
//! zero-sized no-ops and [`stamp`] stops calling `Instant::now`, so the
//! serving loops keep identical shape with zero instrumentation cost —
//! call sites never need `#[cfg]`. This is the seam the feature
//! compiles out at: the flight recorder, query log and window ring are
//! constructed by the enabled [`RuntimeObs::new`] and nowhere else, so
//! they need no stand-ins of their own.

#[cfg(feature = "obs")]
pub use enabled::{stamp, JobStamps, RuntimeObs, Stamp};

#[cfg(not(feature = "obs"))]
pub use disabled::{stamp, JobStamps, RuntimeObs, Stamp};

/// Whether the `obs` recording layer is compiled in. A runtime `bool`
/// so call sites can skip spawning obs-only threads without `#[cfg]`.
pub const OBS_ENABLED: bool = cfg!(feature = "obs");

/// Configuration of the background obs tick thread — the single timer
/// driving both the [`prof`](crate::obs::prof) sampler and the
/// [`window`](crate::obs::window) ring rotation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsTickConfig {
    /// Profiler sampling frequency (passes/second). 0 disables
    /// sampling; window rotation still runs.
    pub prof_hz: u32,
    /// Window ring rotation period (ms).
    pub window_period_ms: u64,
}

impl Default for ObsTickConfig {
    fn default() -> Self {
        Self { prof_hz: 97, window_period_ms: 1_000 }
    }
}

#[cfg(feature = "obs")]
mod enabled {
    use crate::engine::RerankStats;
    use crate::merge::MergeStats;
    use crate::obs::counters::{CachePadded, Counter};
    use crate::obs::flight::{
        EventKind, FlightConfig, FlightRecorder, LifecycleNs, QueryIds, QueryTrace,
    };
    use crate::obs::hist::Histogram;
    use crate::obs::prof::{ProfRegistry, ProfState, SharedProfRegistry, ThreadKind};
    use crate::obs::qlog::{
        DeliveryCtx, QlogConfig, QlogRecord, QlogTotals, QueryLog, STATUS_REJECTED,
    };
    use crate::obs::snapshot::{HostStats, RuntimeStats, SlotStats, TailExemplar, WorkerStats};
    use crate::obs::window::{WindowBlock, WindowRing};
    use crate::tracer::StepTotals;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use super::ObsTickConfig;

    /// Deliveries between tail-exemplar resets: the exemplar tracks the
    /// slowest end-to-end latency (and its request id) within the
    /// current window, so it stays recent instead of pinning the
    /// all-time maximum forever.
    const EXEMPLAR_WINDOW: u64 = 4096;

    /// A point in time on the serving path (an `Instant` when `obs` is
    /// on, a zero-sized unit when off).
    pub type Stamp = Instant;

    /// The current time, as the recorder understands it.
    #[inline]
    pub fn stamp() -> Stamp {
        Instant::now()
    }

    fn ns_between(from: Stamp, to: Stamp) -> u64 {
        to.saturating_duration_since(from).as_nanos() as u64
    }

    /// Lifecycle timestamps carried inside one in-flight job.
    #[derive(Clone, Copy, Debug)]
    pub struct JobStamps {
        submitted: Stamp,
        slot: Option<Stamp>,
        work_start: Option<Stamp>,
        finish: Option<Stamp>,
    }

    impl JobStamps {
        /// Stamps the submission time (call at `submit`).
        pub fn new() -> Self {
            Self { submitted: stamp(), slot: None, work_start: None, finish: None }
        }

        /// Stamps slot assignment (host refill), returning the stamp.
        pub fn mark_slot(&mut self) -> Stamp {
            let t = stamp();
            self.slot = Some(t);
            t
        }

        /// Stamps search start (worker picked the slot up), returning
        /// the stamp.
        pub fn mark_work_start(&mut self) -> Stamp {
            let t = stamp();
            self.work_start = Some(t);
            t
        }

        /// Stamps search completion (`Work → Finish` flip), returning
        /// the stamp.
        pub fn mark_finish(&mut self) -> Stamp {
            let t = stamp();
            self.finish = Some(t);
            t
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
        delivered: Counter,
        refills: Counter,
    }

    #[derive(Default)]
    struct SlotCells {
        assigned: Counter,
        finished: Counter,
        delivered: Counter,
    }

    /// The live metric cells of one running server.
    pub struct RuntimeObs {
        workers: Vec<CachePadded<WorkerCells>>,
        hosts: Vec<CachePadded<HostCells>>,
        slots: Vec<CachePadded<SlotCells>>,
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
        /// Thread-state marker registry + sample table.
        prof: Arc<ProfRegistry>,
        /// Rotating ring of periodic histogram snapshots.
        window: WindowRing,
        tick: ObsTickConfig,
    }

    impl RuntimeObs {
        /// Allocates the cells for the given runtime shape (startup
        /// only; recording never allocates) and the flight recorder,
        /// query log, profiler registry and window ring behind them.
        pub fn new(
            n_slots: usize,
            n_workers: usize,
            n_host_threads: usize,
            flight_cfg: FlightConfig,
            qlog_cfg: QlogConfig,
            tick: ObsTickConfig,
        ) -> Self {
            let obs = Self {
                workers: (0..n_workers).map(|_| CachePadded::default()).collect(),
                hosts: (0..n_host_threads).map(|_| CachePadded::default()).collect(),
                slots: (0..n_slots).map(|_| CachePadded::default()).collect(),
                submit_to_slot: Histogram::new(),
                slot_to_work: Histogram::new(),
                work_to_finish: Histogram::new(),
                finish_to_merged: Histogram::new(),
                merged_to_delivered: Histogram::new(),
                end_to_end: Histogram::new(),
                flight: FlightRecorder::new(n_slots, flight_cfg),
                qlog: QueryLog::new(qlog_cfg),
                exemplar_count: AtomicU64::new(0),
                exemplar_e2e_ns: AtomicU64::new(0),
                exemplar_request_id: AtomicU64::new(0),
                prof: Arc::new(ProfRegistry::new(tick.prof_hz)),
                window: WindowRing::new(tick.window_period_ms),
                tick,
            };
            // Baseline snapshot at construction (synchronous, so it
            // deterministically precedes all queries): the first
            // periodic rotation then forms a window covering startup
            // activity — work finishing before the first rotation
            // would otherwise be invisible to every window.
            obs.rotate_window();
            obs
        }

        /// The thread-state marker registry, for threads that want to
        /// [`register`](ProfRegistry::register) and stamp.
        pub fn prof_registry(&self) -> SharedProfRegistry {
            Arc::clone(&self.prof)
        }

        /// Blocking folded-stack delta capture over `seconds` (the
        /// `/profile` endpoint's worker).
        pub fn prof_capture(&self, seconds: f64) -> String {
            self.prof.capture(seconds)
        }

        /// The windowed view of the end-to-end histogram against
        /// `slo_ns` (0 = no SLO armed).
        pub fn window_stats(&self, slo_ns: u64) -> WindowBlock {
            self.window.stats(slo_ns)
        }

        /// Rotates the window ring once off the live histograms
        /// (normally the tick thread's job; public for tests and
        /// simulators that drive time themselves).
        pub fn rotate_window(&self) {
            self.window.rotate(&self.end_to_end, self.submit_to_slot.count());
        }

        /// The obs tick thread body: drives the profiler sampler at
        /// `prof_hz` and rotates the window ring every
        /// `window_period_ms` until `shutdown` flips. Spawn gated on
        /// [`OBS_ENABLED`](super::OBS_ENABLED); with `obs` off this is
        /// a no-op.
        pub fn run_ticker(&self, shutdown: &AtomicBool) {
            let handle = self.prof.register(ThreadKind::Sampler, "obs-tick");
            handle.stamp(ProfState::Idle);
            // The period stays short even with sampling off so shutdown
            // joins promptly; rotation cadence is kept by tick count.
            let period = if self.tick.prof_hz == 0 {
                Duration::from_millis(self.tick.window_period_ms.clamp(1, 250))
            } else {
                Duration::from_secs_f64(1.0 / f64::from(self.tick.prof_hz))
            };
            let ticks_per_rotation = if self.tick.prof_hz == 0 {
                (self.tick.window_period_ms / (period.as_millis() as u64).max(1)).max(1)
            } else {
                (u64::from(self.tick.prof_hz) * self.tick.window_period_ms / 1_000).max(1)
            };
            let mut n: u64 = 0;
            // Absolute-deadline schedule: each iteration sleeps until
            // the next deadline rather than for a fixed duration, so
            // sample/rotation work time doesn't stretch real window
            // periods past window_period_ms (which would overstate
            // rate_qps against the nominal span_ms).
            let mut next = Instant::now() + period;
            while !shutdown.load(Ordering::Acquire) {
                if self.tick.prof_hz > 0 {
                    self.prof.sample_once();
                }
                n += 1;
                if n.is_multiple_of(ticks_per_rotation) {
                    self.rotate_window();
                }
                let now = Instant::now();
                if let Some(wait) = next.checked_duration_since(now).filter(|w| !w.is_zero()) {
                    std::thread::sleep(wait);
                } else {
                    // Fell behind a full period: resynchronize from now
                    // instead of bursting ticks to catch up.
                    next = now;
                }
                next += period;
            }
            handle.stamp(ProfState::Shutdown);
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

        /// Logs a backpressure reject as a wide-event record (rejects
        /// always log, regardless of sampling). Allocation-free.
        #[inline]
        pub fn qlog_reject(&self, request_id: u64, conn_id: u64) {
            self.qlog.log(&QlogRecord {
                request_id,
                conn_id,
                status: STATUS_REJECTED,
                ..QlogRecord::default()
            });
        }

        /// Writes one raw flight-recorder event, stamped now (test and
        /// diagnostic hook; the serving path uses the typed methods
        /// below). Allocation-free.
        #[inline]
        pub fn flight_record(&self, s: usize, kind: EventKind, lane: u32, a: u32, b: u32) {
            self.flight.record(s, kind, lane, a, b, self.flight.now_ns());
        }

        /// Accounts one completed search on worker `w` for slot `s`:
        /// its aggregated step totals (the worker computes them once
        /// per query, for this and for the query log), the distance to
        /// its best entry point, and the delta of its TopK merge.
        #[inline]
        pub fn record_search(
            &self,
            w: usize,
            s: usize,
            totals: &StepTotals,
            entry_distance: Option<f32>,
            merge_delta: &MergeStats,
        ) {
            let cells = &self.workers[w];
            if let Some(d) = entry_distance {
                // Milli-unit fixed point keeps the cell a plain counter.
                cells.entry_dist_milli.add((f64::from(d) * 1e3) as u64);
            }
            cells.merges.add(merge_delta.merges);
            cells.merge_elements.add(merge_delta.elements);
            cells.merge_dupes.add(merge_delta.dupes_dropped);
            cells.queries.incr();
            cells.steps.add(totals.steps);
            cells.expansions.add(totals.expansions);
            cells.dist_evals.add(totals.dist_evals);
            cells.sorts.add(totals.sorts);
            cells.calc_cycles.add(totals.calc_cycles);
            cells.sort_cycles.add(totals.sort_cycles);
            cells.other_cycles.add(totals.other_cycles);
            self.slots[s].finished.incr();
        }

        /// Accounts the exact-rerank phase of quantized searches on
        /// worker `w` (a no-op delta on fp32 engines).
        #[inline]
        pub fn record_rerank(&self, w: usize, delta: &RerankStats) {
            let cells = &self.workers[w];
            cells.reranks.add(delta.reranks);
            cells.rerank_candidates.add(delta.candidates);
            cells.rerank_promotions.add(delta.promotions);
        }

        /// Accounts a slot refill by host poller `h`: bumps the refill
        /// counters, opens the slot's flight-recorder window, and
        /// writes the `enqueued`/`assigned` trace events.
        #[inline]
        pub fn slot_assigned(&self, h: usize, s: usize, stamps: &JobStamps) {
            self.hosts[h].refills.incr();
            self.slots[s].assigned.incr();
            self.flight.begin_query(s);
            self.flight.record(
                s,
                EventKind::Enqueued,
                h as u32,
                0,
                0,
                self.flight.ns_of(stamps.submitted),
            );
            let slot_ns = match stamps.slot {
                Some(t) => self.flight.ns_of(t),
                None => self.flight.now_ns(),
            };
            self.flight.record(s, EventKind::Assigned, h as u32, 0, 0, slot_ns);
        }

        /// Writes the flight-recorder events of one completed search:
        /// `work_start`, per-CTA `cta_step` spans (simulated step costs
        /// scaled onto the measured `work_start → finish` span),
        /// `beam_switch` markers, an optional `rerank_pass`, and
        /// `finish`. Allocation-free.
        pub fn flight_search(
            &self,
            w: usize,
            s: usize,
            multi: &crate::search::multi::MultiScratch,
            rerank_delta: &RerankStats,
            stamps: &JobStamps,
        ) {
            let (Some(ws), Some(fin)) = (stamps.work_start, stamps.finish) else {
                return;
            };
            let start_ns = self.flight.ns_of(ws);
            let span_ns = ns_between(ws, fin);
            self.flight.record(s, EventKind::WorkStart, w as u32, 0, 0, start_ns);
            for c in 0..multi.n_active() {
                let switch = multi.diffusing_switch_step(c);
                for (i, (off, dur, step)) in multi.trace(c).scaled_spans(span_ns).enumerate() {
                    let ts = start_ns + off;
                    if switch == Some(i as u32) {
                        self.flight.record(s, EventKind::BeamSwitch, c as u32, i as u32, 0, ts);
                    }
                    self.flight.record(
                        s,
                        EventKind::CtaStep,
                        c as u32,
                        step.dist_evals,
                        dur.min(u64::from(u32::MAX)) as u32,
                        ts,
                    );
                }
            }
            let end_ns = self.flight.ns_of(fin);
            if rerank_delta.reranks > 0 {
                self.flight.record(
                    s,
                    EventKind::RerankPass,
                    w as u32,
                    rerank_delta.candidates.min(u64::from(u32::MAX)) as u32,
                    rerank_delta.promotions.min(u64::from(u32::MAX)) as u32,
                    end_ns,
                );
            }
            self.flight.record(s, EventKind::Finish, w as u32, 0, 0, end_ns);
        }

        /// Accounts one delivered result: host/slot counters, all six
        /// phase spans (`picked_up` → `merged_at` is the host's pickup),
        /// the pickup/delivery trace events, the flight recorder's tail
        /// sampler, the wide-event query-log record and the exemplar.
        #[inline]
        #[allow(clippy::too_many_arguments)]
        pub fn record_delivery(
            &self,
            h: usize,
            s: usize,
            ctx: &DeliveryCtx,
            stamps: &JobStamps,
            picked_up: Stamp,
            merged_at: Stamp,
            delivered_at: Stamp,
        ) {
            self.hosts[h].delivered.incr();
            self.slots[s].delivered.incr();
            if let Some(slot) = stamps.slot {
                self.submit_to_slot.record(ns_between(stamps.submitted, slot));
                if let Some(ws) = stamps.work_start {
                    self.slot_to_work.record(ns_between(slot, ws));
                }
            }
            if let (Some(ws), Some(fin)) = (stamps.work_start, stamps.finish) {
                self.work_to_finish.record(ns_between(ws, fin));
            }
            if let Some(fin) = stamps.finish {
                self.finish_to_merged.record(ns_between(fin, merged_at));
            }
            self.merged_to_delivered.record(ns_between(merged_at, delivered_at));
            let e2e_ns = ns_between(stamps.submitted, delivered_at);
            self.end_to_end.record(e2e_ns);

            let lifecycle = LifecycleNs {
                submitted_ns: self.flight.ns_of(stamps.submitted),
                slot_ns: stamps.slot.map_or(0, |t| self.flight.ns_of(t)),
                work_start_ns: stamps.work_start.map_or(0, |t| self.flight.ns_of(t)),
                finish_ns: stamps.finish.map_or(0, |t| self.flight.ns_of(t)),
                merge_begin_ns: self.flight.ns_of(picked_up),
                merged_ns: self.flight.ns_of(merged_at),
                delivered_ns: self.flight.ns_of(delivered_at),
            };
            self.flight.record(s, EventKind::MergeBegin, h as u32, 0, 0, lifecycle.merge_begin_ns);
            self.flight.record(s, EventKind::MergeEnd, h as u32, 0, 0, lifecycle.merged_ns);
            self.flight.record(s, EventKind::Delivered, h as u32, 0, 0, lifecycle.delivered_ns);
            let ids = QueryIds { tag: ctx.tag, request_id: ctx.request_id, conn: ctx.conn_id };
            self.flight.on_complete(s, ids, h as u32, &lifecycle);

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
                host: h as u64,
                hops: u64::from(ctx.hops),
                slo_level: u64::from(ctx.slo_level),
                rerank_depth: u64::from(ctx.rerank_depth),
                entry_code: u64::from(ctx.entry_code),
                status: crate::obs::qlog::STATUS_OK,
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
            out.per_host = self
                .hosts
                .iter()
                .map(|c| HostStats { delivered: c.delivered.get(), refills: c.refills.get() })
                .collect();
            out.per_slot = self
                .slots
                .iter()
                .map(|c| SlotStats {
                    assigned: c.assigned.get(),
                    finished: c.finished.get(),
                    delivered: c.delivered.get(),
                })
                .collect();
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
            out.prof = self.prof.table();
        }
    }
}

#[cfg(not(feature = "obs"))]
mod disabled {
    use crate::merge::MergeStats;
    use crate::obs::flight::{EventKind, FlightConfig, QueryTrace};
    use crate::obs::prof::{ProfRegistry, SharedProfRegistry};
    use crate::obs::qlog::{DeliveryCtx, QlogConfig, QlogTotals};
    use crate::obs::snapshot::RuntimeStats;
    use crate::obs::window::WindowBlock;

    use super::ObsTickConfig;

    /// Zero-sized stand-in for `Instant` when `obs` is compiled out.
    pub type Stamp = ();

    /// No-op: no clock is read when `obs` is compiled out.
    #[inline]
    pub fn stamp() -> Stamp {}

    /// Zero-sized no-op stand-in for the lifecycle timestamps.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct JobStamps;

    impl JobStamps {
        /// No-op.
        pub fn new() -> Self {
            Self
        }

        /// No-op.
        pub fn mark_slot(&mut self) -> Stamp {}

        /// No-op.
        pub fn mark_work_start(&mut self) -> Stamp {}

        /// No-op.
        pub fn mark_finish(&mut self) -> Stamp {}
    }

    /// Zero-sized no-op stand-in for the live metric cells.
    pub struct RuntimeObs;

    impl RuntimeObs {
        /// No-op.
        pub fn new(
            _n_slots: usize,
            _n_workers: usize,
            _n_host_threads: usize,
            _flight_cfg: FlightConfig,
            _qlog_cfg: QlogConfig,
            _tick: ObsTickConfig,
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

        /// No-op.
        pub fn rotate_window(&self) {}

        /// Returns immediately: there is nothing to sample or rotate.
        pub fn run_ticker(&self, _shutdown: &std::sync::atomic::AtomicBool) {}

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
        pub fn qlog_reject(&self, _request_id: u64, _conn_id: u64) {}

        /// No-op: nothing is ever retained.
        pub fn flight_retained(&self) -> Vec<QueryTrace> {
            Vec::new()
        }

        /// No-op.
        #[inline]
        pub fn flight_record(&self, _s: usize, _kind: EventKind, _lane: u32, _a: u32, _b: u32) {}

        /// No-op.
        #[inline]
        pub fn record_search(
            &self,
            _w: usize,
            _s: usize,
            _totals: &crate::tracer::StepTotals,
            _entry_distance: Option<f32>,
            _merge_delta: &MergeStats,
        ) {
        }

        /// No-op.
        #[inline]
        pub fn record_rerank(&self, _w: usize, _delta: &crate::engine::RerankStats) {}

        /// No-op.
        #[inline]
        pub fn slot_assigned(&self, _h: usize, _s: usize, _stamps: &JobStamps) {}

        /// No-op.
        #[inline]
        pub fn flight_search(
            &self,
            _w: usize,
            _s: usize,
            _multi: &crate::search::multi::MultiScratch,
            _rerank_delta: &crate::engine::RerankStats,
            _stamps: &JobStamps,
        ) {
        }

        /// No-op.
        #[inline]
        #[allow(clippy::too_many_arguments)]
        pub fn record_delivery(
            &self,
            _h: usize,
            _s: usize,
            _ctx: &DeliveryCtx,
            _stamps: &JobStamps,
            _picked_up: Stamp,
            _merged_at: Stamp,
            _delivered_at: Stamp,
        ) {
        }

        /// No-op: the snapshot keeps its zeroed breakdowns.
        pub fn populate(&self, _out: &mut RuntimeStats) {}
    }
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;
    use crate::merge::MergeStats;
    use crate::obs::snapshot::RuntimeStats;
    use crate::tracer::StepTotals;

    #[test]
    fn recorder_populates_snapshot() {
        use crate::obs::flight::FlightConfig;
        use crate::obs::json::Value;
        use crate::obs::qlog::{DeliveryCtx, QlogConfig};
        let qcfg = QlogConfig { enabled: true, sample_every: 1, ..QlogConfig::default() };
        let obs = RuntimeObs::new(2, 2, 1, FlightConfig::default(), qcfg, ObsTickConfig::default());
        let mut stamps = JobStamps::new();
        stamps.mark_slot();
        stamps.mark_work_start();
        obs.slot_assigned(0, 1, &stamps);
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
        obs.record_search(0, 1, &totals, None, &delta);
        let rerank = crate::engine::RerankStats { reranks: 1, candidates: 20, promotions: 3 };
        obs.record_rerank(0, &rerank);
        stamps.mark_finish();
        let picked_up = stamp();
        let merged_at = stamp();
        let delivered_at = stamp();
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
        obs.record_delivery(0, 1, &ctx, &stamps, picked_up, merged_at, delivered_at);

        let mut s = RuntimeStats::empty(2, 2, 1);
        obs.populate(&mut s);
        assert_eq!(s.per_worker[0].queries, 1);
        assert_eq!(s.per_worker[1].queries, 0);
        assert_eq!(s.per_host[0].delivered, 1);
        assert_eq!(s.per_host[0].refills, 1);
        assert_eq!(s.per_slot[1].assigned, 1);
        assert_eq!(s.per_slot[1].finished, 1);
        assert_eq!(s.per_slot[1].delivered, 1);
        assert_eq!(s.search, totals);
        assert_eq!(s.rerank, rerank);
        assert_eq!(s.merge, delta);
        for (name, h) in s.phases.named() {
            assert_eq!(h.count, 1, "phase {name} should hold one sample");
        }
        assert!(s.phases.end_to_end.sum >= s.phases.work_to_finish.sum);
        assert_eq!(s.flight.completions, 1);
        // enqueued/assigned + merge_begin/merge_end/delivered events.
        assert_eq!(s.flight.events, 5);
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
        use crate::obs::flight::{EventKind, FlightConfig};
        use crate::obs::qlog::QlogConfig;
        let cfg = FlightConfig { slow_threshold_ns: 0, ..FlightConfig::default() };
        let obs = RuntimeObs::new(2, 1, 1, cfg, QlogConfig::default(), ObsTickConfig::default());
        let mut stamps = JobStamps::new();
        stamps.mark_slot();
        obs.slot_assigned(0, 0, &stamps);
        stamps.mark_work_start();
        obs.flight_record(0, EventKind::WorkStart, 3, 0, 0);
        stamps.mark_finish();
        obs.flight_record(0, EventKind::Finish, 3, 0, 0);
        let picked_up = stamp();
        let merged_at = stamp();
        let delivered_at = stamp();
        let ctx = crate::obs::qlog::DeliveryCtx::local(42);
        obs.record_delivery(0, 0, &ctx, &stamps, picked_up, merged_at, delivered_at);

        let traces = obs.flight_retained();
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.tag, 42);
        assert_eq!(t.request_id, 42, "local submits key traces by tag");
        assert_eq!(t.conn, 0);
        assert_eq!(t.slot, 0);
        assert_eq!(t.worker, 3, "worker id comes from the work_start event lane");
        assert_eq!(t.host, 0);
        assert_eq!(t.events.len(), 7);
        assert_eq!(t.events[0].kind, EventKind::Enqueued);
        assert_eq!(t.events.last().unwrap().kind, EventKind::Delivered);
        assert!(t.lifecycle.delivered_ns >= t.lifecycle.submitted_ns);
    }
}
