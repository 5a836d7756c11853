//! The serving-telemetry snapshot schema and its exposition formats.
//!
//! [`RuntimeStats`] is the single point-in-time view of a serving run:
//! query counters, occupancy gauges, per-worker / per-host breakdowns,
//! the six lifecycle-phase latency histograms, and the aggregated
//! search ([`StepTotals`]) and merge ([`MergeStats`]) totals, produced
//! by [`crate::runtime::AlgasServer::runtime_stats`].
//!
//! Each event is counted once, and the pages carry counters, not
//! ratios of them: a reader divides `search.steps` or
//! `search.entry_dist_milli_total` by the summed `workers[].queries`
//! itself, and the controller's tick count is `sheds + restores +
//! holds`.
//!
//! The snapshot is write-only. Two writers, hand-rolled over
//! [`super::json`] and [`super::prom`] (the hermetic workspace has no
//! `serde_json`): `to_json` (the `/stats.json` page) and
//! `to_prometheus` (text exposition format v0.0.4). Both are pinned
//! byte for byte by the root package's `tests/prom_golden.rs`; readers
//! of the JSON page look up the paths they need through
//! [`super::json::Value`].

use super::flight::FlightTotals;
use super::hist::HistogramSnapshot;
use super::json::{obj, Value};
use super::prom::PromWriter;
use super::qlog::QlogTotals;
use super::window::{WindowBlock, WindowStats};
use crate::control::ControlStats;
use crate::engine::RerankStats;
use crate::merge::MergeStats;
use crate::net::{ConnStats, NetStats};
use crate::tracer::StepTotals;

/// The tail exemplar: the slowest end-to-end latency within the
/// recorder's current exemplar window, plus the wire request id that
/// produced it — a direct bridge from the p99 to a greppable id in
/// `/traces` and the query log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TailExemplar {
    /// Slowest end-to-end latency in the window (ns).
    pub e2e_ns: u64,
    /// Wire request id of that delivery.
    pub request_id: u64,
}

/// Per-worker ("CTA group" thread) counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Queries searched by this worker.
    pub queries: u64,
}

/// Per-host-poller counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Slots refilled from the submission queue.
    pub refills: u64,
}

/// The query-lifecycle phase latency histograms (ns).
///
/// The five spans partition the end-to-end path: `submit→slot` (queue
/// wait), `slot→work` (worker pickup), `work→finish` (search),
/// `finish→merged` (the worker's reply build; the merge ran inside the
/// search), `merged→delivered` (reply delivery). `end_to_end` is recorded independently from the same
/// timestamps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Submission → slot assignment (queue wait).
    pub submit_to_slot: HistogramSnapshot,
    /// Slot assignment → worker starts searching.
    pub slot_to_work: HistogramSnapshot,
    /// Search start → `Finish` flip (the GPU-side work).
    pub work_to_finish: HistogramSnapshot,
    /// `Finish` → the worker built the reply from its TopK (the merge
    /// runs inside the search; the name stays for page readers).
    pub finish_to_merged: HistogramSnapshot,
    /// Reply built → reply handed to the client channel.
    pub merged_to_delivered: HistogramSnapshot,
    /// Submission → delivery.
    pub end_to_end: HistogramSnapshot,
}

impl PhaseStats {
    /// The phases as `(name, histogram)` pairs, in lifecycle order.
    pub fn named(&self) -> [(&'static str, &HistogramSnapshot); 6] {
        [
            ("submit_to_slot", &self.submit_to_slot),
            ("slot_to_work", &self.slot_to_work),
            ("work_to_finish", &self.work_to_finish),
            ("finish_to_merged", &self.finish_to_merged),
            ("merged_to_delivered", &self.merged_to_delivered),
            ("end_to_end", &self.end_to_end),
        ]
    }
}

/// A complete point-in-time view of a serving run's telemetry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RuntimeStats {
    /// Configured slot count.
    pub n_slots: usize,
    /// Configured worker-thread count.
    pub n_workers: usize,
    /// Configured host-poller count.
    pub n_host_threads: usize,
    /// Queries accepted into the submission queue.
    pub submitted: u64,
    /// Queries fully served.
    pub completed: u64,
    /// Queries rejected because the bounded queue was full.
    pub rejected_queue_full: u64,
    /// Gauge: submissions queued at snapshot time.
    pub queue_depth: u64,
    /// Gauge: slots holding an in-flight query at snapshot time.
    pub slots_occupied: u64,
    /// Gauge: logical bytes of the fp32 corpus being served.
    pub base_bytes: u64,
    /// Gauge: logical bytes of the SQ8 code mirror (codes + affine
    /// tables + row norms); 0 when the engine is fp32-only.
    pub quant_bytes: u64,
    /// Per-worker breakdown (`n_workers` entries).
    pub per_worker: Vec<WorkerStats>,
    /// Per-host-poller breakdown (`n_host_threads` entries).
    pub per_host: Vec<HostStats>,
    /// Lifecycle-phase latency histograms.
    pub phases: PhaseStats,
    /// Aggregated per-step search totals (cycles split into
    /// calc/sort/other, as Fig 3 / Fig 17 split them).
    pub search: StepTotals,
    /// SQ8 exact-rerank totals (all zero on fp32 engines).
    pub rerank: RerankStats,
    /// Summed best-entry distance over all searched queries, in
    /// milli-units (fixed point so the hot-path cell stays a plain
    /// counter). Divide by queries for the mean entry distance — the
    /// gauge the smart entry policies exist to shrink.
    pub entry_dist_milli_total: u64,
    /// SLO controller state (all zero / `init` when no SLO is set).
    pub control: ControlStats,
    /// TopK merge totals (the merge runs in the worker's search).
    pub merge: MergeStats,
    /// Flight-recorder totals (traces retained).
    pub flight: FlightTotals,
    /// Network front-end counters (all zero until a query listener has
    /// run — the library/CLI paths never touch a socket).
    pub net: NetStats,
    /// Per-connection telemetry of the currently open connections
    /// (empty when no listener is running). On the JSON page only: the
    /// Prometheus page's size does not depend on who is connected.
    pub net_conns: Vec<ConnStats>,
    /// Advised RETRY_AFTER backoff delays (µs).
    pub retry_backoff: HistogramSnapshot,
    /// Wide-event query-log totals.
    pub qlog: QlogTotals,
    /// Tail exemplar: the slowest recent delivery and its request id.
    pub exemplar: TailExemplar,
    /// Moving-window view of the end-to-end histogram plus the SLO
    /// burn-rate health verdict (empty with `obs` compiled out).
    pub window: WindowBlock,
}

impl RuntimeStats {
    /// An all-zero snapshot with the per-component vectors sized.
    pub fn empty(n_slots: usize, n_workers: usize, n_host_threads: usize) -> Self {
        Self {
            n_slots,
            n_workers,
            n_host_threads,
            per_worker: vec![WorkerStats::default(); n_workers],
            per_host: vec![HostStats::default(); n_host_threads],
            ..Self::default()
        }
    }

    /// Total queries searched across workers.
    pub fn queries_searched(&self) -> u64 {
        self.per_worker.iter().map(|w| w.queries).sum()
    }

    /// Mean CTA search steps ("hops") per searched query — the figure
    /// of merit for entry selection (0.0 before any query).
    pub fn hops_per_query(&self) -> f64 {
        let q = self.queries_searched();
        if q == 0 {
            0.0
        } else {
            self.search.steps as f64 / q as f64
        }
    }

    /// Mean best-entry distance per searched query (0.0 before any
    /// query).
    pub fn mean_entry_distance(&self) -> f64 {
        let q = self.queries_searched();
        if q == 0 {
            0.0
        } else {
            self.entry_dist_milli_total as f64 / 1e3 / q as f64
        }
    }

    /// Renders the snapshot as compact JSON (the `--stats-json` /
    /// `/stats.json` wire form).
    pub fn to_json(&self) -> String {
        let hist = |h: &HistogramSnapshot| {
            let (p50, p95, p99, p999) = h.percentiles();
            obj(vec![
                ("count", Value::Uint(h.count)),
                ("sum", Value::Uint(h.sum)),
                ("min", Value::Uint(h.min)),
                ("max", Value::Uint(h.max)),
                ("p50", Value::Uint(p50)),
                ("p95", Value::Uint(p95)),
                ("p99", Value::Uint(p99)),
                ("p999", Value::Uint(p999)),
            ])
        };
        let doc = obj(vec![
            (
                "config",
                obj(vec![
                    ("n_slots", Value::Uint(self.n_slots as u64)),
                    ("n_workers", Value::Uint(self.n_workers as u64)),
                    ("n_host_threads", Value::Uint(self.n_host_threads as u64)),
                ]),
            ),
            (
                "queries",
                obj(vec![
                    ("submitted", Value::Uint(self.submitted)),
                    ("completed", Value::Uint(self.completed)),
                    ("rejected_queue_full", Value::Uint(self.rejected_queue_full)),
                ]),
            ),
            (
                "gauges",
                obj(vec![
                    ("queue_depth", Value::Uint(self.queue_depth)),
                    ("slots_occupied", Value::Uint(self.slots_occupied)),
                    ("base_bytes", Value::Uint(self.base_bytes)),
                    ("quant_bytes", Value::Uint(self.quant_bytes)),
                ]),
            ),
            (
                "workers",
                Value::Arr(
                    self.per_worker
                        .iter()
                        .map(|w| obj(vec![("queries", Value::Uint(w.queries))]))
                        .collect(),
                ),
            ),
            (
                "hosts",
                Value::Arr(
                    self.per_host
                        .iter()
                        .map(|h| obj(vec![("refills", Value::Uint(h.refills))]))
                        .collect(),
                ),
            ),
            (
                "phases",
                Value::Obj(
                    self.phases
                        .named()
                        .into_iter()
                        .map(|(name, h)| (name.to_string(), hist(h)))
                        .collect(),
                ),
            ),
            (
                "search",
                obj(vec![
                    ("steps", Value::Uint(self.search.steps)),
                    ("expansions", Value::Uint(self.search.expansions)),
                    ("dist_evals", Value::Uint(self.search.dist_evals)),
                    ("sorts", Value::Uint(self.search.sorts)),
                    ("calc_cycles", Value::Uint(self.search.calc_cycles)),
                    ("sort_cycles", Value::Uint(self.search.sort_cycles)),
                    ("other_cycles", Value::Uint(self.search.other_cycles)),
                    ("entry_dist_milli_total", Value::Uint(self.entry_dist_milli_total)),
                ]),
            ),
            (
                "rerank",
                obj(vec![
                    ("reranks", Value::Uint(self.rerank.reranks)),
                    ("candidates", Value::Uint(self.rerank.candidates)),
                    ("promotions", Value::Uint(self.rerank.promotions)),
                ]),
            ),
            (
                "merge",
                obj(vec![
                    ("merges", Value::Uint(self.merge.merges)),
                    ("elements", Value::Uint(self.merge.elements)),
                    ("dupes_dropped", Value::Uint(self.merge.dupes_dropped)),
                ]),
            ),
            ("flight", obj(vec![("retained", Value::Uint(self.flight.retained))])),
            (
                "control",
                obj(vec![
                    ("enabled", Value::Bool(self.control.enabled)),
                    ("slo_ns", Value::Uint(self.control.slo_ns)),
                    ("level", Value::Uint(u64::from(self.control.level))),
                    ("max_level", Value::Uint(u64::from(self.control.max_level))),
                    ("beam_width", Value::Uint(self.control.beam_width)),
                    ("offset_beam", Value::Uint(self.control.offset_beam)),
                    ("rerank_depth", Value::Uint(self.control.rerank_depth)),
                    ("n_ctas", Value::Uint(self.control.n_ctas)),
                    ("sheds", Value::Uint(self.control.sheds)),
                    ("restores", Value::Uint(self.control.restores)),
                    ("holds", Value::Uint(self.control.holds)),
                    ("last_p99_ns", Value::Uint(self.control.last_p99_ns)),
                    ("last_reason", Value::Str(self.control.last_reason.clone())),
                ]),
            ),
            (
                "net",
                obj(vec![
                    ("connections_accepted", Value::Uint(self.net.connections_accepted)),
                    ("connections_closed", Value::Uint(self.net.connections_closed)),
                    ("frames_in", Value::Uint(self.net.frames_in)),
                    ("frames_out", Value::Uint(self.net.frames_out)),
                    ("bytes_in", Value::Uint(self.net.bytes_in)),
                    ("bytes_out", Value::Uint(self.net.bytes_out)),
                    ("protocol_errors", Value::Uint(self.net.protocol_errors)),
                    ("backpressure_rejects", Value::Uint(self.net.backpressure_rejects)),
                ]),
            ),
            (
                "net_conns",
                Value::Arr(
                    self.net_conns
                        .iter()
                        .map(|c| {
                            obj(vec![
                                ("id", Value::Uint(c.id)),
                                ("inflight", Value::Uint(c.inflight)),
                                ("bytes_in", Value::Uint(c.bytes_in)),
                                ("bytes_out", Value::Uint(c.bytes_out)),
                                ("backlog_high_water", Value::Uint(c.backlog_high_water)),
                                ("errors", Value::Uint(c.errors)),
                                ("retry_afters", Value::Uint(c.retry_afters)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("retry_backoff_us", hist(&self.retry_backoff)),
            (
                "qlog",
                obj(vec![
                    ("logged", Value::Uint(self.qlog.logged)),
                    ("dropped", Value::Uint(self.qlog.dropped)),
                    ("drained", Value::Uint(self.qlog.drained)),
                ]),
            ),
            (
                "exemplar",
                obj(vec![
                    ("e2e_ns", Value::Uint(self.exemplar.e2e_ns)),
                    ("request_id", Value::Uint(self.exemplar.request_id)),
                ]),
            ),
            (
                "window",
                obj(vec![
                    ("slots", Value::Uint(self.window.slots)),
                    ("slo_ns", Value::Uint(self.window.slo_ns)),
                    ("health", Value::Str(self.window.health.clone())),
                    (
                        "windows",
                        Value::Arr(
                            self.window
                                .windows
                                .iter()
                                .map(|wd| {
                                    obj(vec![
                                        ("target_s", Value::Uint(wd.target_s)),
                                        ("span_ms", Value::Uint(wd.span_ms)),
                                        ("completed", Value::Uint(wd.completed)),
                                        ("submitted", Value::Uint(wd.submitted)),
                                        ("p50_ns", Value::Uint(wd.p50_ns)),
                                        ("p99_ns", Value::Uint(wd.p99_ns)),
                                        ("max_ns", Value::Uint(wd.max_ns)),
                                        ("attainment_ppm", Value::Uint(wd.attainment_ppm)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ]);
        doc.render()
    }

    /// Renders the snapshot in Prometheus text exposition format
    /// (v0.0.4), each family opened by a `# HELP`/`# TYPE` pair. Phase
    /// histograms become summaries (quantiles + `_sum`/`_count`) under
    /// one `algas_phase_latency_ns` family. The page passes
    /// [`super::prom::check_exposition`].
    pub fn to_prometheus(&self) -> String {
        let mut w = PromWriter::new();
        w.family("algas_runtime_info", "gauge", "Configured runtime shape, as labels.").sample(
            "algas_runtime_info",
            &[
                ("n_slots", &self.n_slots.to_string()),
                ("n_workers", &self.n_workers.to_string()),
                ("n_host_threads", &self.n_host_threads.to_string()),
            ],
            1.0,
        );
        for (name, help, v) in [
            ("algas_queries_submitted_total", "Queries accepted into the queue.", self.submitted),
            ("algas_queries_completed_total", "Queries fully served.", self.completed),
            (
                "algas_queries_rejected_queue_full_total",
                "Queries rejected by backpressure.",
                self.rejected_queue_full,
            ),
        ] {
            w.family(name, "counter", help).scalar(name, v);
        }
        for (name, help, v) in [
            ("algas_queue_depth", "Submissions queued right now.", self.queue_depth),
            ("algas_slots_occupied", "Slots holding an in-flight query.", self.slots_occupied),
            ("algas_base_store_bytes", "Bytes of the fp32 corpus.", self.base_bytes),
            (
                "algas_quant_store_bytes",
                "Bytes of the SQ8 mirror (0 if fp32-only).",
                self.quant_bytes,
            ),
        ] {
            w.family(name, "gauge", help).scalar(name, v);
        }
        let series = |w: &mut PromWriter,
                      name: &str,
                      help: &str,
                      label: &str,
                      vals: &mut dyn Iterator<Item = u64>| {
            w.family(name, "counter", help);
            for (i, v) in vals.enumerate() {
                w.sample(name, &[(label, &i.to_string())], v as f64);
            }
        };
        series(
            &mut w,
            "algas_worker_queries_total",
            "Queries searched, per worker.",
            "worker",
            &mut self.per_worker.iter().map(|x| x.queries),
        );
        series(
            &mut w,
            "algas_host_refills_total",
            "Slots refilled from the queue, per host poller.",
            "host",
            &mut self.per_host.iter().map(|x| x.refills),
        );
        w.family(
            "algas_phase_latency_ns",
            "summary",
            "Query lifecycle phase latency, nanoseconds.",
        );
        for (phase, h) in self.phases.named() {
            for (q, v) in [
                ("0.5", h.quantile(0.5)),
                ("0.95", h.quantile(0.95)),
                ("0.99", h.quantile(0.99)),
                ("0.999", h.quantile(0.999)),
            ] {
                w.sample("algas_phase_latency_ns", &[("phase", phase), ("quantile", q)], v as f64);
            }
            w.sample("algas_phase_latency_ns_sum", &[("phase", phase)], h.sum as f64);
            w.sample("algas_phase_latency_ns_count", &[("phase", phase)], h.count as f64);
        }
        for (name, help, v) in [
            ("algas_search_steps_total", "Search steps executed.", self.search.steps),
            ("algas_search_expansions_total", "Candidates expanded.", self.search.expansions),
            ("algas_search_dist_evals_total", "Distances computed.", self.search.dist_evals),
            ("algas_search_sorts_total", "Sort/merge invocations.", self.search.sorts),
            (
                "algas_search_calc_cycles_total",
                "Cycles in distance kernels.",
                self.search.calc_cycles,
            ),
            (
                "algas_search_sort_cycles_total",
                "Cycles in sorting/merging.",
                self.search.sort_cycles,
            ),
            (
                "algas_search_other_cycles_total",
                "Remaining search cycles.",
                self.search.other_cycles,
            ),
        ] {
            w.family(name, "counter", help).scalar(name, v);
        }
        for (name, help, v) in [
            ("algas_rerank_total", "SQ8 exact-rerank passes.", self.rerank.reranks),
            (
                "algas_rerank_candidates_total",
                "Candidates exactly re-ranked.",
                self.rerank.candidates,
            ),
            ("algas_rerank_promotions_total", "Rerank-order promotions.", self.rerank.promotions),
            ("algas_merge_total", "Worker-side TopK merges.", self.merge.merges),
            ("algas_merge_elements_total", "Elements merged.", self.merge.elements),
            (
                "algas_merge_dupes_dropped_total",
                "Duplicate ids dropped in merges.",
                self.merge.dupes_dropped,
            ),
        ] {
            w.family(name, "counter", help).scalar(name, v);
        }
        w.family("algas_flight_retained", "gauge", "Query traces currently retained.")
            .scalar("algas_flight_retained", self.flight.retained);
        for (name, help, v) in [
            (
                "algas_control_enabled",
                "1 when an SLO is configured and the controller is live.",
                u64::from(self.control.enabled),
            ),
            ("algas_control_slo_ns", "Configured p99 service-latency target.", self.control.slo_ns),
            (
                "algas_control_level",
                "Current effort level (0 = full effort).",
                u64::from(self.control.level),
            ),
            (
                "algas_control_max_level",
                "Cheapest effort level available.",
                u64::from(self.control.max_level),
            ),
            (
                "algas_control_beam_width",
                "Current beam width (0 = greedy).",
                self.control.beam_width,
            ),
            (
                "algas_control_offset_beam",
                "Current diffusing-switch offset (0 = greedy).",
                self.control.offset_beam,
            ),
            (
                "algas_control_rerank_depth",
                "Current exact-rerank pool depth.",
                self.control.rerank_depth,
            ),
            (
                "algas_control_n_ctas",
                "Parallel CTAs per query at the current rung.",
                self.control.n_ctas,
            ),
            (
                "algas_control_last_p99_ns",
                "Window p99 at the last controller tick.",
                self.control.last_p99_ns,
            ),
        ] {
            w.family(name, "gauge", help).scalar(name, v);
        }
        for (name, help, v) in [
            ("algas_control_sheds_total", "Ticks that shed effort.", self.control.sheds),
            ("algas_control_restores_total", "Ticks that restored effort.", self.control.restores),
            ("algas_control_holds_total", "Ticks that held the level.", self.control.holds),
        ] {
            w.family(name, "counter", help).scalar(name, v);
        }
        for (name, help, v) in [
            (
                "algas_net_connections_accepted_total",
                "TCP connections accepted by the query listener.",
                self.net.connections_accepted,
            ),
            (
                "algas_net_connections_closed_total",
                "Query connections fully closed.",
                self.net.connections_closed,
            ),
            (
                "algas_net_frames_in_total",
                "Complete frames decoded from clients.",
                self.net.frames_in,
            ),
            ("algas_net_frames_out_total", "Frames written to clients.", self.net.frames_out),
            ("algas_net_bytes_in_total", "Bytes read from client sockets.", self.net.bytes_in),
            ("algas_net_bytes_out_total", "Bytes written to client sockets.", self.net.bytes_out),
            (
                "algas_net_protocol_errors_total",
                "Frames rejected as malformed.",
                self.net.protocol_errors,
            ),
            (
                "algas_net_backpressure_rejects_total",
                "Requests answered with RETRY_AFTER.",
                self.net.backpressure_rejects,
            ),
        ] {
            w.family(name, "counter", help).scalar(name, v);
        }
        w.family(
            "algas_net_retry_backoff_us",
            "summary",
            "Advised RETRY_AFTER backoff delay, microseconds.",
        );
        for (q, v) in
            [("0.5", self.retry_backoff.quantile(0.5)), ("0.99", self.retry_backoff.quantile(0.99))]
        {
            w.sample("algas_net_retry_backoff_us", &[("quantile", q)], v as f64);
        }
        w.sample("algas_net_retry_backoff_us_sum", &[], self.retry_backoff.sum as f64);
        w.sample("algas_net_retry_backoff_us_count", &[], self.retry_backoff.count as f64);
        for (name, help, v) in [
            ("algas_qlog_records_total", "Wide-event records accepted.", self.qlog.logged),
            ("algas_qlog_dropped_total", "Records dropped (ring full).", self.qlog.dropped),
            ("algas_qlog_drained_total", "Records drained as JSON lines.", self.qlog.drained),
        ] {
            w.family(name, "counter", help).scalar(name, v);
        }
        for (name, help, v) in [
            (
                "algas_tail_exemplar_e2e_ns",
                "Slowest end-to-end latency in the current exemplar window.",
                self.exemplar.e2e_ns,
            ),
            (
                "algas_tail_exemplar_request_id",
                "Wire request id of the exemplar delivery (grep it in /traces).",
                self.exemplar.request_id,
            ),
        ] {
            w.family(name, "gauge", help).scalar(name, v);
        }
        if !self.window.windows.is_empty() {
            let wl = |wd: &WindowStats| wd.target_s.to_string() + "s";
            w.family(
                "algas_window_completed",
                "gauge",
                "Queries completed inside the moving window.",
            );
            for wd in &self.window.windows {
                w.sample("algas_window_completed", &[("window", &wl(wd))], wd.completed as f64);
            }
            w.family(
                "algas_window_rate_qps",
                "gauge",
                "Completion rate over the moving window, queries/second.",
            );
            for wd in &self.window.windows {
                w.sample("algas_window_rate_qps", &[("window", &wl(wd))], wd.rate_qps());
            }
            w.family(
                "algas_window_latency_ns",
                "gauge",
                "Moving-window end-to-end latency quantiles, nanoseconds.",
            );
            for wd in &self.window.windows {
                for (q, v) in [("0.5", wd.p50_ns), ("0.99", wd.p99_ns), ("1", wd.max_ns)] {
                    w.sample(
                        "algas_window_latency_ns",
                        &[("window", &wl(wd)), ("quantile", q)],
                        v as f64,
                    );
                }
            }
            w.family(
                "algas_window_slo_attainment_ratio",
                "gauge",
                "Fraction of windowed completions inside the SLO (1 with no SLO armed).",
            );
            for wd in &self.window.windows {
                w.sample(
                    "algas_window_slo_attainment_ratio",
                    &[("window", &wl(wd))],
                    wd.attainment_ppm as f64 / 1e6,
                );
            }
            w.family(
                "algas_window_span_seconds",
                "gauge",
                "Actual span each moving window covers (truncated while warming up).",
            );
            for wd in &self.window.windows {
                w.sample(
                    "algas_window_span_seconds",
                    &[("window", &wl(wd))],
                    wd.span_ms as f64 / 1e3,
                );
            }
            w.family(
                "algas_window_degraded",
                "gauge",
                "1 when the multi-window SLO burn-rate rule says degraded.",
            )
            .scalar("algas_window_degraded", u64::from(self.window.degraded()));
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::hist::Histogram;
    use super::*;
    use crate::obs::prom::parse_prometheus;

    fn sample_stats() -> RuntimeStats {
        let mut s = RuntimeStats::empty(2, 2, 1);
        s.submitted = 40;
        s.completed = 38;
        s.rejected_queue_full = 3;
        s.queue_depth = 2;
        s.slots_occupied = 1;
        s.base_bytes = 48_000;
        s.quant_bytes = 12_400;
        s.per_worker[0] = WorkerStats { queries: 20 };
        s.per_worker[1] = WorkerStats { queries: 18 };
        s.per_host[0] = HostStats { refills: 40 };
        let h = Histogram::new();
        for v in [1_000u64, 2_000, 5_000, 100_000, 12] {
            h.record(v);
        }
        s.phases.end_to_end = h.snapshot();
        s.phases.work_to_finish = h.snapshot();
        s.search = StepTotals {
            steps: 500,
            expansions: 700,
            dist_evals: 9_000,
            sorts: 500,
            calc_cycles: 80_000,
            sort_cycles: 20_000,
            other_cycles: 10_000,
        };
        s.rerank = RerankStats { reranks: 38, candidates: 760, promotions: 12 };
        s.entry_dist_milli_total = 41_230;
        s.control = ControlStats {
            enabled: true,
            slo_ns: 2_000_000,
            level: 2,
            max_level: 5,
            beam_width: 16,
            offset_beam: 2,
            rerank_depth: 24,
            n_ctas: 4,
            sheds: 3,
            restores: 1,
            holds: 5,
            last_p99_ns: 1_900_000,
            last_reason: "hold".to_string(),
        };
        s.merge = MergeStats { merges: 38, elements: 300, dupes_dropped: 4 };
        s.flight = FlightTotals { retained: 5 };
        s.net = NetStats {
            connections_accepted: 6,
            connections_closed: 4,
            frames_in: 120,
            frames_out: 118,
            bytes_in: 10_560,
            bytes_out: 13_216,
            protocol_errors: 2,
            backpressure_rejects: 7,
        };
        s.net_conns = vec![
            ConnStats {
                id: 5,
                inflight: 3,
                bytes_in: 5_280,
                bytes_out: 6_608,
                backlog_high_water: 4_096,
                errors: 1,
                retry_afters: 4,
            },
            ConnStats {
                id: 6,
                inflight: 0,
                bytes_in: 5_280,
                bytes_out: 6_608,
                backlog_high_water: 512,
                errors: 1,
                retry_afters: 3,
            },
        ];
        let b = Histogram::new();
        for v in [150u64, 220, 900, 12_000] {
            b.record(v);
        }
        s.retry_backoff = b.snapshot();
        s.qlog = QlogTotals { logged: 30, dropped: 2, drained: 28 };
        s.exemplar = TailExemplar { e2e_ns: 100_000, request_id: 777 };
        s.window = WindowBlock {
            slots: 12,
            slo_ns: 2_000_000,
            health: "ok".to_string(),
            windows: vec![
                WindowStats {
                    target_s: 1,
                    span_ms: 1_000,
                    completed: 5,
                    submitted: 6,
                    p50_ns: 90_000,
                    p99_ns: 480_000,
                    max_ns: 500_000,
                    attainment_ppm: 1_000_000,
                },
                WindowStats {
                    target_s: 10,
                    span_ms: 10_000,
                    completed: 38,
                    submitted: 40,
                    p50_ns: 100_000,
                    p99_ns: 1_600_000,
                    max_ns: 2_100_000,
                    attainment_ppm: 973_684,
                },
            ],
        };
        s
    }

    #[test]
    fn prometheus_page_parses_and_carries_values() {
        let s = sample_stats();
        crate::obs::prom::check_exposition(&s.to_prometheus()).expect("well-formed exposition");
        let samples = parse_prometheus(&s.to_prometheus()).unwrap();
        let find = |name: &str| samples.iter().find(|x| x.name == name).unwrap();
        assert_eq!(find("algas_queries_submitted_total").value, 40.0);
        assert_eq!(find("algas_queries_rejected_queue_full_total").value, 3.0);
        assert_eq!(find("algas_rerank_candidates_total").value, 760.0);
        assert_eq!(find("algas_rerank_promotions_total").value, 12.0);
        assert_eq!(find("algas_slots_occupied").value, 1.0);
        assert_eq!(find("algas_base_store_bytes").value, 48_000.0);
        assert_eq!(find("algas_quant_store_bytes").value, 12_400.0);
        assert_eq!(find("algas_flight_retained").value, 5.0);
        assert_eq!(find("algas_control_enabled").value, 1.0);
        assert_eq!(find("algas_control_level").value, 2.0);
        assert_eq!(find("algas_control_sheds_total").value, 3.0);
        assert_eq!(find("algas_control_last_p99_ns").value, 1_900_000.0);
        assert_eq!(find("algas_qlog_records_total").value, 30.0);
        assert_eq!(find("algas_qlog_dropped_total").value, 2.0);
        assert_eq!(find("algas_tail_exemplar_e2e_ns").value, 100_000.0);
        assert_eq!(find("algas_tail_exemplar_request_id").value, 777.0);
        assert_eq!(find("algas_net_retry_backoff_us_count").value, 4.0);
        let w10 = |name: &str| {
            samples.iter().find(|x| x.name == name && x.label("window") == Some("10s")).unwrap()
        };
        assert_eq!(w10("algas_window_completed").value, 38.0);
        assert_eq!(w10("algas_window_rate_qps").value, 3.8);
        assert_eq!(w10("algas_window_slo_attainment_ratio").value, 0.973684);
        let wp99 = samples
            .iter()
            .find(|x| {
                x.name == "algas_window_latency_ns"
                    && x.label("window") == Some("10s")
                    && x.label("quantile") == Some("0.99")
            })
            .unwrap();
        assert_eq!(wp99.value, 1_600_000.0);
        assert_eq!(find("algas_window_degraded").value, 0.0);
        let w1 = samples
            .iter()
            .find(|x| x.name == "algas_worker_queries_total" && x.label("worker") == Some("1"))
            .unwrap();
        assert_eq!(w1.value, 18.0);
        let p99 = samples
            .iter()
            .find(|x| {
                x.name == "algas_phase_latency_ns"
                    && x.label("phase") == Some("end_to_end")
                    && x.label("quantile") == Some("0.99")
            })
            .unwrap();
        assert_eq!(p99.value, s.phases.end_to_end.quantile(0.99) as f64);
    }

    /// `/metrics` does not grow with the number of clients; the
    /// per-connection detail is on `/stats.json`, where its readers are.
    #[test]
    fn prometheus_series_set_ignores_connections_and_json_lists_them_all() {
        let series_of = |s: &RuntimeStats| -> Vec<(String, Vec<(String, String)>)> {
            let page = s.to_prometheus();
            crate::obs::prom::check_exposition(&page).expect("well-formed exposition");
            parse_prometheus(&page).unwrap().into_iter().map(|x| (x.name, x.labels)).collect()
        };
        let mut s = sample_stats();
        s.net_conns.clear();
        let without = series_of(&s);
        for n in [0u64, 2, 200] {
            s.net_conns = (1..=n)
                .map(|id| ConnStats {
                    id,
                    inflight: id + 1,
                    bytes_in: id + 2,
                    bytes_out: id + 3,
                    backlog_high_water: id + 4,
                    errors: id + 5,
                    retry_afters: id + 6,
                })
                .collect();
            assert_eq!(series_of(&s), without, "{n} connections changed the series set");
            let doc = Value::parse(&s.to_json()).expect("to_json emits valid JSON");
            let listed = doc.get("net_conns").and_then(Value::as_arr).expect("net_conns");
            assert_eq!(listed.len() as u64, n);
            for (c, item) in s.net_conns.iter().zip(listed) {
                let fields = [
                    ("id", c.id),
                    ("inflight", c.inflight),
                    ("bytes_in", c.bytes_in),
                    ("bytes_out", c.bytes_out),
                    ("backlog_high_water", c.backlog_high_water),
                    ("errors", c.errors),
                    ("retry_afters", c.retry_afters),
                ];
                for (key, want) in fields {
                    assert_eq!(item.get(key).and_then(Value::as_u64), Some(want), "conn {key}");
                }
            }
        }
    }
}
