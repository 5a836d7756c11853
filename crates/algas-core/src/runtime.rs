//! A native, threaded implementation of the ALGAS serving architecture.
//!
//! The simulators in `algas-gpu-sim` answer the paper's *performance*
//! questions; this module implements the same architecture as a real
//! concurrent system, validating the slot protocol under an actual
//! memory model and doubling as a usable low-latency CPU ANNS server:
//!
//! * **Persistent workers** stand in for the persistent kernel's CTAs:
//!   spawned once, they poll their slots' states (`Work`?) instead of
//!   being launched per query. Each finishes its query: search, the
//!   one TopK merge (§IV-B's CPU merge; the walkers run on a CPU
//!   thread here), the SQ8 rerank and the translation to original ids.
//! * **Slots** carry one in-flight query each in a payload cell guarded
//!   by the [`AtomicSlotState`] protocol — the `Work`/`Finish` edges
//!   publish the payload exactly as §V-A's state copies do.
//! * **Host pollers** scan their slot subsets (§V-B's partitioned
//!   ownership), deliver the finished TopKs, and refill slots from the
//!   submission queue. They do not merge.

use crate::control::SloController;
use crate::engine::{AlgasEngine, SearchScratch};
use crate::lock;
use crate::net::poll::Waker;
use crate::obs::{
    self, DeliveryCtx, FlightConfig, JobStamps, ObsTickConfig, ProfState, QlogConfig, QlogTotals,
    QueryTrace, RuntimeObs, RuntimeStats, SharedProfRegistry, ThreadKind,
};
use crate::state::{AtomicSlotState, SlotState};
use algas_vector::metric::DistValue;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Runtime shape: how many slots and how many threads on each side.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Independent slots (in-flight queries).
    pub n_slots: usize,
    /// Persistent worker threads (the "GPU"); slots are assigned
    /// round-robin.
    pub n_workers: usize,
    /// Host poller threads (§V-B); slots are assigned round-robin.
    pub n_host_threads: usize,
    /// Bound of the submission queue (backpressure for open-loop
    /// clients).
    pub queue_capacity: usize,
    /// Flight-recorder policy: which completed queries are retained
    /// for trace export (ignored when the `obs` feature is compiled
    /// out).
    pub flight: FlightConfig,
    /// Wide-event query-log policy: sampling, slow-query threshold,
    /// ring and retention sizes (ignored when the `obs` feature is
    /// compiled out; the log is off by default).
    pub qlog: QlogConfig,
    /// Obs tick thread policy: profiler sampling Hz and window ring
    /// rotation period (ignored when the `obs` feature is compiled
    /// out; no tick thread is spawned then).
    pub tick: ObsTickConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            n_slots: 16,
            n_workers: 2,
            n_host_threads: 1,
            queue_capacity: 1024,
            flight: FlightConfig::default(),
            qlog: QlogConfig::default(),
            tick: ObsTickConfig::default(),
        }
    }
}

/// Wire-level identity a network front end attaches to a submission so
/// every observability surface (flight traces, Chrome export, the query
/// log) is keyed by the id the *client* logged, not a server-private
/// tag. Plain [`AlgasServer::submit`] defaults the request id to the
/// server tag, so local callers trace by tag as before.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireCtx {
    /// The client-chosen request id from the frame header.
    pub request_id: u64,
    /// Server connection id (monotone accept order; 0 = local).
    pub conn_id: u64,
    /// Client send timestamp (µs since the client's epoch) from the
    /// `FLAG_CLIENT_TS` payload extension; 0 when absent.
    pub client_ts_us: u64,
}

/// A search result delivered to the submitting client.
#[derive(Clone, Debug, PartialEq)]
pub struct SearchReply {
    /// Client-chosen tag echoed back.
    pub tag: u64,
    /// TopK ids, ascending by distance.
    pub ids: Vec<u32>,
    /// Matching distances.
    pub distances: Vec<f32>,
}

/// Finished replies for one consumer thread that waits in a
/// [`crate::net::poll::Poller`]: host pollers push `(token, reply)`
/// and wake it; the consumer drains in completion order. One queue per
/// front end replaces a channel per query, so the consumer looks at
/// exactly the replies that exist instead of probing every request it
/// still owes.
pub struct CompletionQueue {
    ready: Mutex<VecDeque<(u64, SearchReply)>>,
    waker: Waker,
}

impl CompletionQueue {
    /// An empty queue whose pushes wake `waker`'s poller.
    pub fn new(waker: Waker) -> Self {
        Self { ready: Mutex::new(VecDeque::new()), waker }
    }

    fn push(&self, token: u64, reply: SearchReply) {
        lock(&self.ready).push_back((token, reply));
        // After the push is published (the unlock): the poller's
        // re-check either sees it or has its wait ended.
        self.waker.wake();
    }

    /// Whether nothing is queued — the poller's wait re-check.
    pub fn is_empty(&self) -> bool {
        lock(&self.ready).is_empty()
    }

    /// Moves everything queued into the (empty) `out`, oldest first.
    /// Swapping the two buffers keeps the lock to a pointer exchange
    /// and both allocations alive, so steady state allocates nothing.
    pub fn drain_into(&self, out: &mut VecDeque<(u64, SearchReply)>) {
        debug_assert!(out.is_empty(), "drain target must have been consumed");
        std::mem::swap(&mut *lock(&self.ready), out);
    }
}

/// Where a query's reply goes.
pub enum ReplyTo {
    /// A channel of the submitter's own ([`AlgasServer::submit`]).
    Channel(Sender<SearchReply>),
    /// A shared completion queue; `token` is the submitter's key for
    /// this request and comes back with the reply.
    Queue {
        /// The front end's queue.
        queue: Arc<CompletionQueue>,
        /// Echoed with the reply.
        token: u64,
    },
}

impl ReplyTo {
    fn deliver(self, reply: SearchReply) {
        match self {
            // The client may have dropped its receiver; fine.
            ReplyTo::Channel(tx) => {
                let _ = tx.send(reply);
            }
            ReplyTo::Queue { queue, token } => queue.push(token, reply),
        }
    }
}

struct Job {
    tag: u64,
    query: Vec<f32>,
    reply_to: ReplyTo,
    submitted_at: std::time::Instant,
    /// Lifecycle timestamps for the phase histograms (zero-sized no-op
    /// when the `obs` feature is off).
    stamps: JobStamps,
    /// Wire identity for trace/query-log keying (request id = tag for
    /// local submissions).
    wire: WireCtx,
    /// Graph hops the search took; written by the worker under the
    /// payload lock, read at delivery for the query log.
    hops: u32,
    /// Worker thread that executed the search.
    worker: u32,
}

/// Per-slot payload cell. The state machine serializes access: the
/// host writes `job` before `None/Done → Work`; the worker reads it
/// after observing `Work` and writes `topk` before `Work → Finish`; the
/// host reads `topk` after observing `Finish`.
#[derive(Default)]
struct SlotPayload {
    job: Option<Job>,
    /// The finished TopK in original ids, ascending by distance.
    topk: Vec<(DistValue, u32)>,
}

struct Slot {
    state: AtomicSlotState,
    payload: Mutex<SlotPayload>,
}

#[derive(Default)]
struct Stats {
    submitted: std::sync::atomic::AtomicU64,
    completed: std::sync::atomic::AtomicU64,
    rejected_queue_full: std::sync::atomic::AtomicU64,
    service_ns_total: std::sync::atomic::AtomicU64,
    max_service_ns: std::sync::atomic::AtomicU64,
}

/// A point-in-time view of the server's counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Queries accepted into the submission queue.
    pub submitted: u64,
    /// Queries fully served (searched + replied).
    pub completed: u64,
    /// Queries rejected with [`SubmitError::QueueFull`] (backpressure).
    pub rejected_queue_full: u64,
    /// Sum of service times (submit → reply) in ns.
    pub service_ns_total: u64,
    /// Worst single service time observed, ns.
    pub max_service_ns: u64,
}

impl StatsSnapshot {
    /// Mean service time in microseconds (0 if nothing completed).
    pub fn mean_service_us(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.service_ns_total as f64 / self.completed as f64 / 1000.0
        }
    }
}

/// The bounded submission queue, of the same shape as
/// [`CompletionQueue`]: [`AlgasServer::submit`] pushes unless
/// `capacity` jobs already wait, host pollers pop to refill their
/// slots.
struct SubmitQueue {
    jobs: Mutex<VecDeque<Job>>,
    capacity: usize,
}

impl SubmitQueue {
    /// Queues `job`, or drops it and returns `false` when full.
    fn try_push(&self, job: Job) -> bool {
        let mut jobs = lock(&self.jobs);
        let fits = jobs.len() < self.capacity;
        if fits {
            jobs.push_back(job);
        }
        fits
    }

    fn try_pop(&self) -> Option<Job> {
        lock(&self.jobs).pop_front()
    }

    fn len(&self) -> usize {
        lock(&self.jobs).len()
    }
}

struct Shared {
    engine: AlgasEngine,
    slots: Vec<Slot>,
    submissions: SubmitQueue,
    shutdown: AtomicBool,
    stats: Stats,
    obs: RuntimeObs,
}

/// Handle to a running server; dropping it shuts the server down.
pub struct AlgasServer {
    shared: Arc<Shared>,
    cfg: RuntimeConfig,
    workers: Vec<JoinHandle<()>>,
    hosts: Vec<JoinHandle<()>>,
    /// The obs tick thread (profiler sampler + window rotation); absent
    /// with `obs` compiled out.
    ticker: Option<JoinHandle<()>>,
    next_tag: std::sync::atomic::AtomicU64,
}

/// A submitted query's tag plus the channel its reply arrives on.
pub type PendingReply = (u64, Receiver<SearchReply>);

/// Submission failure.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded submission queue is full (apply backpressure).
    QueueFull,
    /// The server is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "submission queue full"),
            SubmitError::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl AlgasServer {
    /// Starts the server: spawns persistent workers and host pollers.
    ///
    /// # Panics
    /// Panics on a zero-sized configuration.
    pub fn start(engine: AlgasEngine, cfg: RuntimeConfig) -> Self {
        assert!(cfg.n_slots > 0 && cfg.n_workers > 0 && cfg.n_host_threads > 0);
        let slots = (0..cfg.n_slots)
            .map(|_| Slot {
                state: AtomicSlotState::new(),
                payload: Mutex::new(SlotPayload::default()),
            })
            .collect();
        let shared = Arc::new(Shared {
            engine,
            slots,
            submissions: SubmitQueue {
                jobs: Mutex::new(VecDeque::new()),
                capacity: cfg.queue_capacity.max(1),
            },
            shutdown: AtomicBool::new(false),
            stats: Stats::default(),
            obs: RuntimeObs::new(
                cfg.n_slots,
                cfg.n_workers,
                cfg.n_host_threads,
                cfg.flight,
                cfg.qlog,
                cfg.tick,
            ),
        });

        let workers = (0..cfg.n_workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let stride = cfg.n_workers;
                std::thread::Builder::new()
                    .name(format!("algas-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w, stride))
                    .expect("spawn worker")
            })
            .collect();
        let hosts = (0..cfg.n_host_threads)
            .map(|h| {
                let shared = Arc::clone(&shared);
                let stride = cfg.n_host_threads;
                std::thread::Builder::new()
                    .name(format!("algas-host-{h}"))
                    .spawn(move || host_loop(&shared, h, stride))
                    .expect("spawn host poller")
            })
            .collect();

        // One background thread drives both the thread-state sampler
        // and the window ring rotation; with `obs` compiled out there
        // is nothing to drive, so none is spawned.
        let ticker = obs::OBS_ENABLED.then(|| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("algas-obs-tick".to_string())
                .spawn(move || shared.obs.run_ticker(&shared.shutdown))
                .expect("spawn obs ticker")
        });

        Self { shared, cfg, workers, hosts, ticker, next_tag: std::sync::atomic::AtomicU64::new(0) }
    }

    /// Submits a query; the reply arrives on the returned channel.
    ///
    /// # Errors
    /// [`SubmitError::QueueFull`] under backpressure,
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    ///
    /// # Panics
    /// Panics if the query dimension doesn't match the index.
    pub fn submit(&self, query: Vec<f32>) -> Result<PendingReply, SubmitError> {
        let (reply_tx, reply_rx) = channel();
        let tag = self.submit_inner(query, None, ReplyTo::Channel(reply_tx))?;
        Ok((tag, reply_rx))
    }

    /// [`Self::submit`] for a front end: the reply goes wherever
    /// `reply_to` says (a shared [`CompletionQueue`] for the network
    /// loop), and a wire identity is attached — flight traces and
    /// query-log records for this query carry `wire.request_id` /
    /// `wire.conn_id` instead of tag-as-request-id, so a client can
    /// grep the id it logged straight into `/traces` and `/query-log`.
    /// Returns the server tag.
    ///
    /// # Errors
    /// Same as [`Self::submit`].
    ///
    /// # Panics
    /// Panics if the query dimension doesn't match the index.
    pub fn submit_traced(
        &self,
        query: Vec<f32>,
        wire: WireCtx,
        reply_to: ReplyTo,
    ) -> Result<u64, SubmitError> {
        self.submit_inner(query, Some(wire), reply_to)
    }

    fn submit_inner(
        &self,
        query: Vec<f32>,
        wire: Option<WireCtx>,
        reply_to: ReplyTo,
    ) -> Result<u64, SubmitError> {
        assert_eq!(query.len(), self.shared.engine.index().base.dim(), "query dimension mismatch");
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            tag,
            query,
            reply_to,
            submitted_at: std::time::Instant::now(),
            stamps: JobStamps::new(),
            wire: wire.unwrap_or(WireCtx { request_id: tag, conn_id: 0, client_ts_us: 0 }),
            hops: 0,
            worker: 0,
        };
        if self.shared.submissions.try_push(job) {
            self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
            Ok(tag)
        } else {
            self.shared.stats.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
            Err(SubmitError::QueueFull)
        }
    }

    /// The index dimensionality submitted queries must match.
    pub fn dim(&self) -> usize {
        self.shared.engine.index().base.dim()
    }

    /// The SLO controller — the controller's view of load (windowed
    /// p99, current rung). The network front end sizes RETRY_AFTER
    /// delay suggestions from it.
    pub fn controller(&self) -> &SloController {
        self.shared.engine.controller()
    }

    /// A snapshot of the serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            submitted: self.shared.stats.submitted.load(Ordering::Relaxed),
            completed: self.shared.stats.completed.load(Ordering::Relaxed),
            rejected_queue_full: self.shared.stats.rejected_queue_full.load(Ordering::Relaxed),
            service_ns_total: self.shared.stats.service_ns_total.load(Ordering::Relaxed),
            max_service_ns: self.shared.stats.max_service_ns.load(Ordering::Relaxed),
        }
    }

    /// The full telemetry snapshot: query counters, occupancy gauges,
    /// per-worker / per-host / per-slot breakdowns, phase latency
    /// histograms, and search/merge totals. The gauges and queue
    /// counters are always live; the breakdowns and histograms carry
    /// data only when the (default-on) `obs` feature is compiled in.
    pub fn runtime_stats(&self) -> RuntimeStats {
        let mut out =
            RuntimeStats::empty(self.cfg.n_slots, self.cfg.n_workers, self.cfg.n_host_threads);
        out.submitted = self.shared.stats.submitted.load(Ordering::Relaxed);
        out.completed = self.shared.stats.completed.load(Ordering::Relaxed);
        out.rejected_queue_full = self.shared.stats.rejected_queue_full.load(Ordering::Relaxed);
        out.queue_depth = self.shared.submissions.len() as u64;
        let index = self.shared.engine.index();
        out.base_bytes = index.base.nbytes() as u64;
        out.quant_bytes = index.quant.as_ref().map_or(0, |q| q.nbytes() as u64);
        out.slots_occupied = self
            .shared
            .slots
            .iter()
            .filter(|s| matches!(s.state.load(), SlotState::Work | SlotState::Finish))
            .count() as u64;
        self.shared.obs.populate(&mut out);
        // The controller lives in the engine, not the recorder; the
        // server stamps its state in so every exposition surface
        // (JSON, Prometheus, `algas stats`) carries the control rung.
        out.control = self.shared.engine.controller().stats();
        // Windowed view of the end-to-end histogram, judged against
        // the declared SLO (0 when none is armed → always "ok").
        out.window = self.shared.obs.window_stats(self.shared.engine.controller().slo_ns());
        out
    }

    /// The thread-state marker registry, so auxiliary threads outside
    /// this runtime (the network readiness loop, the query-log writer)
    /// can register and stamp into the same profile.
    pub fn prof_registry(&self) -> SharedProfRegistry {
        self.shared.obs.prof_registry()
    }

    /// Blocking folded-stack profile capture over `seconds` (clamped
    /// to 0.1–30): samples the thread-state markers for the duration
    /// and returns the delta as flamegraph-ready collapsed-stack text.
    /// Empty when the `obs` feature is compiled out.
    pub fn profile_capture(&self, seconds: f64) -> String {
        self.shared.obs.prof_capture(seconds)
    }

    /// The windowed telemetry block (moving p50/p99, rates, burn-rate
    /// health) as of the last ring rotation. Empty until two rotations
    /// have happened or when the `obs` feature is compiled out.
    pub fn window_stats(&self) -> crate::obs::WindowBlock {
        self.shared.obs.window_stats(self.shared.engine.controller().slo_ns())
    }

    /// The flight recorder's retained (tail-sampled) query traces,
    /// slowest-first. Empty when the `obs` feature is compiled out or
    /// no completed query met the retention policy yet.
    pub fn flight_traces(&self) -> Vec<QueryTrace> {
        self.shared.obs.flight_retained()
    }

    /// Retained flight traces as the `/traces` JSON document.
    pub fn traces_json(&self) -> String {
        obs::traces_json(&self.flight_traces())
    }

    /// Retained flight traces as Chrome trace-event JSON, loadable in
    /// Perfetto / `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        obs::chrome_trace_json(&self.flight_traces())
    }

    /// Drains newly completed query-log records into the bounded
    /// retained-lines buffer. Call periodically (the CLI's writer
    /// thread does) or rely on [`Self::qlog_lines`] draining lazily.
    pub fn qlog_drain(&self) -> usize {
        self.shared.obs.qlog_drain()
    }

    /// The retained wide-event query-log lines (JSON, one per record),
    /// oldest first. Drains the ring first so the view is current.
    pub fn qlog_lines(&self) -> Vec<String> {
        self.shared.obs.qlog_lines()
    }

    /// Query-log lines at sequence `cursor` onward plus the next
    /// cursor — the writer-thread tailing interface. Records that
    /// rotated out of retention before the cursor are skipped.
    pub fn qlog_lines_since(&self, cursor: u64) -> (Vec<String>, u64) {
        self.shared.obs.qlog_lines_since(cursor)
    }

    /// The query log's lifetime counters.
    pub fn qlog_totals(&self) -> QlogTotals {
        self.shared.obs.qlog_totals()
    }

    /// Records a rejected (backpressured) query in the query log under
    /// its wire identity. Called by the network front end when it
    /// answers RETRY_AFTER instead of submitting.
    pub fn qlog_reject(&self, request_id: u64, conn_id: u64) {
        self.shared.obs.qlog_reject(request_id, conn_id);
    }

    /// Readiness: the index is loaded and the runtime is accepting
    /// submissions (i.e. shutdown has not begun). The engine exists
    /// before `start` returns, so a constructed server is ready until
    /// told to stop.
    pub fn ready(&self) -> bool {
        !self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Convenience: submit and block for the reply.
    pub fn search_blocking(&self, query: Vec<f32>) -> Result<SearchReply, SubmitError> {
        let (_, rx) = self.submit(query)?;
        rx.recv().map_err(|_| SubmitError::ShuttingDown)
    }

    /// Stops accepting queries, drains in-flight work, joins all
    /// threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for h in self.hosts.drain(..) {
            let _ = h.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
    }
}

impl Drop for AlgasServer {
    fn drop(&mut self) {
        if !self.hosts.is_empty() || !self.workers.is_empty() {
            self.shutdown_inner();
        }
    }
}

/// A running server is directly servable by the
/// [`obs::StatsServer`]: `/metrics` is the
/// Prometheus page, `/stats.json` the snapshot, `/traces` the retained
/// flight traces.
impl crate::obs::StatsSource for AlgasServer {
    fn metrics_text(&self) -> String {
        self.runtime_stats().to_prometheus()
    }

    fn stats_json(&self) -> String {
        self.runtime_stats().to_json()
    }

    fn traces_json(&self) -> String {
        AlgasServer::traces_json(self)
    }

    fn query_log_lines(&self) -> Vec<String> {
        self.qlog_lines()
    }

    fn profile_folded(&self, seconds: f64) -> String {
        self.profile_capture(seconds)
    }

    fn health_state(&self) -> String {
        self.window_stats().health
    }

    fn readyz(&self) -> bool {
        self.ready()
    }
}

/// Bounded spin-then-yield backoff for the polling loops (crossbeam
/// `Backoff`-style). A poller that just found work spins in short
/// `spin_loop` bursts — a slot may flip any nanosecond and an OS yield
/// would cost microseconds of latency — but each idle pass doubles the
/// burst, and once the wait stretches past `SPIN_LIMIT` passes the
/// poller falls back to `yield_now`, so idle slots stop burning a full
/// core. Finding work resets the backoff to hot spinning.
struct Backoff {
    step: u32,
}

impl Backoff {
    /// Idle passes spent spinning before falling back to OS yields.
    const SPIN_LIMIT: u32 = 6;

    fn new() -> Self {
        Self { step: 0 }
    }

    /// Waits a little; call after a pass over the slots found no work.
    fn snooze(&mut self) {
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..1u32 << self.step {
                std::hint::spin_loop();
            }
            self.step += 1;
        } else {
            std::thread::yield_now();
        }
    }

    /// Back to hot spinning; call after a pass that did work.
    fn reset(&mut self) {
        self.step = 0;
    }
}

/// Persistent worker ("CTA group"): polls owned slots for `Work`,
/// finishes the query ([`AlgasEngine::serve_into`]), publishes its
/// TopK, flips to `Finish`. Exits once every owned slot reaches `Quit`.
fn worker_loop(shared: &Shared, first: usize, stride: usize) {
    // Per-worker reusable search scratch (candidate lists, visited
    // bitmap, per-CTA buffers, merge cursors). After the first few
    // queries warm it up, the steady-state serving path performs no
    // heap allocation in this thread.
    let mut scratch = SearchScratch::new();
    let mut backoff = Backoff::new();
    // Thread-state marker for the sampling profiler: each stamp is one
    // relaxed store into this thread's own cache-padded cell (a no-op
    // with `obs` off). Dropping the handle on exit clears the marker.
    let prof = shared.obs.prof_registry().register(ThreadKind::Worker, &format!("worker-{first}"));
    prof.stamp(ProfState::Idle);
    loop {
        let mut all_quit = true;
        let mut did_work = false;
        for s in (first..shared.slots.len()).step_by(stride) {
            let slot = &shared.slots[s];
            match slot.state.load() {
                SlotState::Quit => {}
                SlotState::Work => {
                    all_quit = false;
                    prof.stamp(ProfState::Scan);
                    let (merge_before, rerank_before) = (scratch.merge.stats, scratch.rerank);
                    // Search on the job's own query under the lock:
                    // between `Work` and `Finish` only this worker
                    // touches the payload, so the lock is uncontended.
                    let mut payload = lock(&slot.payload);
                    let SlotPayload { job, topk } = &mut *payload;
                    let job = job.as_mut().expect("Work implies a job");
                    job.stamps.mark_work_start();
                    shared.engine.serve_into(&job.query, job.tag, &mut scratch);
                    prof.stamp(ProfState::Publish);
                    // One walk over the CTA traces per query, shared by
                    // the query log's hop count and the recorder.
                    let totals = scratch.multi.step_totals();
                    // Copy the TopK element-wise so both the scratch
                    // and the slot keep their allocations across jobs.
                    topk.clear();
                    topk.extend_from_slice(&scratch.topk);
                    job.stamps.mark_finish();
                    // Stash the per-query facts only this thread knows
                    // (hop count, worker id) for the query log; the
                    // host reads them at delivery.
                    job.hops = totals.steps.min(u64::from(u32::MAX)) as u32;
                    job.worker = first as u32;
                    let stamps = job.stamps;
                    drop(payload);
                    let merge_delta = scratch.merge.stats.since(&merge_before);
                    let rerank_delta = scratch.rerank.since(&rerank_before);
                    let entry = scratch.multi.entry_distance();
                    shared.obs.record_search(first, s, &totals, entry, &merge_delta);
                    shared.obs.record_rerank(first, &rerank_delta);
                    shared.obs.flight_search(first, s, &scratch.multi, &rerank_delta, &stamps);
                    let flipped = slot.state.transition(SlotState::Work, SlotState::Finish);
                    debug_assert!(flipped, "only this worker moves Work -> Finish");
                    did_work = true;
                }
                _ => all_quit = false,
            }
        }
        if all_quit {
            return;
        }
        if did_work {
            backoff.reset();
        } else {
            prof.stamp(ProfState::Idle);
            backoff.snooze();
        }
    }
}

/// Host poller (§V-B): scans owned slots; on `Finish` picks up the
/// worker's finished TopK and delivers it (the merge already ran in the
/// worker); on `None`/`Done` refills from the submission queue or, when
/// shutting down with an empty queue, retires the slot to `Quit`.
fn host_loop(shared: &Shared, first: usize, stride: usize) {
    // The entry policy is fixed for the engine's lifetime; encode it
    // once rather than per delivery.
    let entry_code = obs::qlog::entry_policy_code(&shared.engine.config().entry_policy);
    let mut backoff = Backoff::new();
    // Thread-state marker for the sampling profiler (see worker_loop).
    let prof = shared.obs.prof_registry().register(ThreadKind::Host, &format!("host-{first}"));
    prof.stamp(ProfState::Idle);
    loop {
        let mut all_quit = true;
        let mut did_work = false;
        for s in (first..shared.slots.len()).step_by(stride) {
            let slot = &shared.slots[s];
            let state = slot.state.load();
            match state {
                SlotState::Quit => continue,
                SlotState::Finish => {
                    all_quit = false;
                    // `Merge` names the pickup: the reply is built from
                    // the slot's TopK in place, so the slot keeps its
                    // buffer; the reply's vectors go to the client.
                    prof.stamp(ProfState::Merge);
                    let picked_up = obs::stamp();
                    let mut payload = lock(&slot.payload);
                    let job = payload.job.take().expect("Finish implies a job");
                    let reply = SearchReply {
                        tag: job.tag,
                        ids: payload.topk.iter().map(|&(_, id)| id).collect(),
                        distances: payload.topk.iter().map(|&(d, _)| d.0).collect(),
                    };
                    drop(payload);
                    let merged_at = obs::stamp();
                    prof.stamp(ProfState::Deliver);
                    // Account the completed query before replying so a
                    // caller observing the reply sees it counted.
                    let service_ns = job.submitted_at.elapsed().as_nanos() as u64;
                    shared.stats.completed.fetch_add(1, Ordering::Relaxed);
                    shared.stats.service_ns_total.fetch_add(service_ns, Ordering::Relaxed);
                    shared.stats.max_service_ns.fetch_max(service_ns, Ordering::Relaxed);
                    // Feed the SLO controller the submit→reply span it
                    // regulates. When a cadence tick fires, stamp the
                    // decision into this slot's flight ring before the
                    // delivery events close the query's window.
                    if let Some(d) = shared.engine.controller().observe(service_ns) {
                        shared.obs.flight_record(
                            s,
                            obs::flight::EventKind::ControlAdjust,
                            first as u32,
                            d.level,
                            d.reason as u32,
                        );
                    }
                    // Telemetry lands before the reply too, so a client
                    // observing its reply sees its query fully recorded
                    // (the delivery stamp marks the send boundary).
                    let ctx = DeliveryCtx {
                        tag: job.tag,
                        request_id: job.wire.request_id,
                        conn_id: job.wire.conn_id,
                        client_ts_us: job.wire.client_ts_us,
                        worker: job.worker,
                        hops: job.hops,
                        slo_level: shared.engine.controller().level(),
                        rerank_depth: shared.engine.rerank_depth().min(u32::MAX as usize) as u32,
                        entry_code,
                    };
                    shared.obs.record_delivery(
                        first,
                        s,
                        &ctx,
                        &job.stamps,
                        picked_up,
                        merged_at,
                        obs::stamp(),
                    );
                    job.reply_to.deliver(reply);
                    let flipped = slot.state.transition(SlotState::Finish, SlotState::Done);
                    debug_assert!(flipped, "only this poller moves Finish -> Done");
                    did_work = true;
                }
                SlotState::None | SlotState::Done => {
                    all_quit = false;
                    match shared.submissions.try_pop() {
                        Some(mut job) => {
                            prof.stamp(ProfState::Refill);
                            job.stamps.mark_slot();
                            let stamps = job.stamps;
                            lock(&slot.payload).job = Some(job);
                            shared.obs.slot_assigned(first, s, &stamps);
                            let flipped = slot.state.transition(state, SlotState::Work);
                            debug_assert!(flipped, "this poller owns the slot's host edges");
                            did_work = true;
                        }
                        None => {
                            if shared.shutdown.load(Ordering::Acquire) {
                                let flipped = slot.state.transition(state, SlotState::Quit);
                                debug_assert!(flipped);
                                did_work = true;
                            }
                        }
                    }
                }
                SlotState::Work => {
                    all_quit = false;
                }
            }
        }
        if all_quit {
            return;
        }
        if did_work {
            backoff.reset();
        } else {
            prof.stamp(ProfState::Idle);
            backoff.snooze();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AlgasIndex, BeamMode, EngineConfig};
    use algas_graph::cagra::CagraParams;
    use algas_vector::datasets::DatasetSpec;
    use algas_vector::Metric;

    fn test_server(
        slots: usize,
        workers: usize,
        hosts: usize,
    ) -> (AlgasServer, algas_vector::datasets::GeneratedDataset, AlgasEngine) {
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 31).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        let cfg = EngineConfig { k: 8, l: 32, slots, beam: BeamMode::Auto, ..Default::default() };
        let server_engine = AlgasEngine::new(index.clone(), cfg).unwrap();
        let oracle = AlgasEngine::new(index, cfg).unwrap();
        let server = AlgasServer::start(
            server_engine,
            RuntimeConfig {
                n_slots: slots,
                n_workers: workers,
                n_host_threads: hosts,
                queue_capacity: 256,
                ..Default::default()
            },
        );
        (server, ds, oracle)
    }

    #[test]
    fn backoff_spins_then_yields_and_resets() {
        let mut b = Backoff::new();
        for _ in 0..(Backoff::SPIN_LIMIT + 50) {
            b.snooze(); // must stay bounded: no panic, no overflow
        }
        assert!(b.step > Backoff::SPIN_LIMIT, "backoff should exhaust its spin budget");
        b.reset();
        assert_eq!(b.step, 0);
    }

    #[test]
    fn relayouted_server_replies_in_original_id_space() {
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 31).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        // Medoid entry: the same physical start point pre/post relayout,
        // so the reply ids must match the unpermuted oracle exactly.
        let cfg = EngineConfig {
            k: 8,
            l: 32,
            slots: 4,
            beam: BeamMode::Auto,
            entry_policy: algas_graph::EntryPolicy::Medoid,
            ..Default::default()
        };
        let oracle = AlgasEngine::new(index.clone(), cfg).unwrap();
        let mut relayouted = index;
        relayouted.relayout();
        let server = AlgasServer::start(
            AlgasEngine::new(relayouted, cfg).unwrap(),
            RuntimeConfig {
                n_slots: 4,
                n_workers: 2,
                n_host_threads: 1,
                queue_capacity: 64,
                ..Default::default()
            },
        );
        for i in 0..5 {
            let q = ds.queries.get(i).to_vec();
            let reply = server.search_blocking(q.clone()).unwrap();
            assert_eq!(reply.ids, oracle.search(&q, reply.tag), "query {i}");
        }
        server.shutdown();
    }

    #[test]
    fn quantized_server_replies_match_its_oracle() {
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 31).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        let cfg = EngineConfig {
            k: 8,
            l: 32,
            slots: 4,
            beam: BeamMode::Auto,
            quantize: true,
            ..Default::default()
        };
        let oracle = AlgasEngine::new(index.clone(), cfg).unwrap();
        assert!(oracle.quantized());
        let server = AlgasServer::start(
            AlgasEngine::new(index, cfg).unwrap(),
            RuntimeConfig {
                n_slots: 4,
                n_workers: 2,
                n_host_threads: 1,
                queue_capacity: 64,
                ..Default::default()
            },
        );
        // The same (query, tag) pairs through the worker's entry point:
        // the served merge counters must be the engine's own.
        let mut served = SearchScratch::new();
        for i in 0..5 {
            let q = ds.queries.get(i).to_vec();
            let reply = server.search_blocking(q.clone()).unwrap();
            assert_eq!(reply.ids, oracle.search(&q, reply.tag), "query {i}");
            oracle.serve_into(&q, reply.tag, &mut served);
            // Reranked distances are exact f32 distances (modulo the
            // batched kernel's summation order, a last-ulp effect).
            for (&d, &id) in reply.distances.iter().zip(&reply.ids) {
                let exact = Metric::L2.distance(&q, ds.base.get(id as usize));
                assert!((d - exact).abs() <= 1e-5 * exact.max(1.0), "{d} vs exact {exact}");
            }
        }
        #[cfg(feature = "obs")]
        {
            let s = server.runtime_stats();
            assert_eq!(s.rerank.reranks, 5, "every quantized query runs one rerank pass");
            assert!(s.rerank.candidates >= 5 * 8);
            assert_eq!(s.merge, served.merge.stats, "one merge per query, rerank-depth deep");
            assert!(s.quant_bytes > 0 && s.base_bytes > s.quant_bytes, "both stores reported");
        }
        server.shutdown();
    }

    #[test]
    fn serves_single_query_correctly() {
        let (server, ds, oracle) = test_server(4, 2, 1);
        let q = ds.queries.get(0).to_vec();
        let reply = server.search_blocking(q.clone()).unwrap();
        // tag 0 == query_id 0: identical entry hashing to the oracle.
        assert_eq!(reply.ids, oracle.search(&q, 0));
        assert_eq!(reply.ids.len(), 8);
        assert!(reply.distances.windows(2).all(|w| w[0] <= w[1]));
        server.shutdown();
    }

    #[test]
    fn serves_many_queries_from_many_clients() {
        let (server, ds, oracle) = test_server(8, 3, 2);
        let server = Arc::new(server);
        let n = 40;
        let replies: Vec<SearchReply> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|c| {
                    let server = Arc::clone(&server);
                    let ds = &ds;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for i in (c..n).step_by(4) {
                            let q = ds.queries.get(i % ds.queries.len()).to_vec();
                            out.push(server.search_blocking(q).unwrap());
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(replies.len(), n);
        // Every reply matches the oracle for its tag's query.
        for r in &replies {
            // Reconstruct which query this tag used is client-side
            // knowledge; instead verify result quality directly:
            assert_eq!(r.ids.len(), 8);
            assert!(r.distances.windows(2).all(|w| w[0] <= w[1]));
        }
        // Spot-check exactness for a fresh tag.
        let q = ds.queries.get(1).to_vec();
        let (tag, rx) = server.submit(q.clone()).unwrap();
        let reply = rx.recv().unwrap();
        assert_eq!(reply.ids, oracle.search(&q, tag));
        match Arc::try_unwrap(server) {
            Ok(s) => s.shutdown(),
            Err(_) => panic!("server still shared"),
        }
    }

    #[test]
    fn completion_queue_returns_every_token_once_and_wakes_its_poller() {
        use crate::net::poll::Poller;
        let (server, ds, oracle) = test_server(4, 2, 1);
        let mut poller = Poller::new().unwrap();
        let queue = Arc::new(CompletionQueue::new(poller.waker()));
        const N: u64 = 24;
        let mut tags = std::collections::HashMap::new();
        for token in 0..N {
            let q = ds.queries.get(token as usize % ds.queries.len()).to_vec();
            let reply_to = ReplyTo::Queue { queue: Arc::clone(&queue), token: 1_000 + token };
            let tag = server.submit_traced(q, WireCtx::default(), reply_to).unwrap();
            tags.insert(1_000 + token, tag);
        }
        // Nothing but the queue's wake (or its re-check) ends these
        // waits before the deadline.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let mut batch = VecDeque::new();
        let mut seen = Vec::new();
        while seen.len() < N as usize {
            assert!(std::time::Instant::now() < deadline, "replies lost: {seen:?}");
            poller.wait(std::time::Duration::from_secs(20), || !queue.is_empty());
            queue.drain_into(&mut batch);
            for (token, reply) in batch.drain(..) {
                assert_eq!(reply.tag, tags[&token], "token and reply travel together");
                let q = ds.queries.get((token - 1_000) as usize % ds.queries.len());
                assert_eq!(reply.ids, oracle.search(q, reply.tag));
                seen.push(token);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (1_000..1_000 + N).collect::<Vec<_>>());
        assert!(queue.is_empty());
        server.shutdown();
    }

    #[test]
    fn stats_track_service() {
        let (server, ds, _) = test_server(4, 2, 1);
        assert_eq!(server.stats().completed, 0);
        for i in 0..10 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        let s = server.stats();
        assert_eq!(s.submitted, 10);
        assert_eq!(s.completed, 10);
        assert!(s.mean_service_us() > 0.0);
        assert!(s.max_service_ns >= (s.service_ns_total / 10));
        server.shutdown();
    }

    #[test]
    fn runtime_stats_report_counters_and_gauges() {
        let (server, ds, _) = test_server(4, 2, 1);
        for i in 0..10 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        let s = server.runtime_stats();
        assert_eq!((s.n_slots, s.n_workers, s.n_host_threads), (4, 2, 1));
        assert_eq!((s.submitted, s.completed, s.rejected_queue_full), (10, 10, 0));
        // The breakdown vectors always carry the runtime shape, even
        // with `obs` compiled out (they're just all-zero then).
        assert_eq!(s.per_worker.len(), 2);
        assert_eq!(s.per_host.len(), 1);
        assert_eq!(s.per_slot.len(), 4);
        assert!(s.queue_depth == 0 && s.slots_occupied <= 4);
        #[cfg(feature = "obs")]
        {
            // search_blocking returned for every query, so every
            // query's full telemetry has landed.
            assert_eq!(s.per_worker.iter().map(|w| w.queries).sum::<u64>(), 10);
            assert_eq!(s.per_slot.iter().map(|x| x.assigned).sum::<u64>(), 10);
            assert_eq!(s.per_slot.iter().map(|x| x.delivered).sum::<u64>(), 10);
            assert_eq!(s.per_host.iter().map(|h| h.delivered).sum::<u64>(), 10);
            assert_eq!(s.phases.end_to_end.count, 10);
            assert!(s.phases.end_to_end.quantile(0.5) > 0);
            assert!(s.search.dist_evals > 0);
            assert_eq!(s.merge.merges, 10);
        }
        server.shutdown();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn flight_recorder_captures_served_queries() {
        use crate::obs::flight::EventKind;
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 31).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        let cfg =
            EngineConfig { k: 8, l: 32, slots: 2, beam: BeamMode::Auto, ..Default::default() };
        let engine = AlgasEngine::new(index, cfg).unwrap();
        let server = AlgasServer::start(
            engine,
            RuntimeConfig {
                n_slots: 2,
                n_workers: 1,
                n_host_threads: 1,
                queue_capacity: 64,
                // Retain everything: threshold 0 marks every query slow.
                flight: FlightConfig { slow_threshold_ns: 0, ..Default::default() },
                qlog: QlogConfig::default(),
                tick: ObsTickConfig::default(),
            },
        );
        for i in 0..6 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        let traces = server.flight_traces();
        assert!(!traces.is_empty(), "threshold 0 must retain queries");
        for t in &traces {
            let kinds: Vec<EventKind> = t.events.iter().map(|e| e.kind).collect();
            for k in [
                EventKind::Enqueued,
                EventKind::Assigned,
                EventKind::WorkStart,
                EventKind::CtaStep,
                EventKind::Finish,
                EventKind::MergeBegin,
                EventKind::MergeEnd,
                EventKind::Delivered,
            ] {
                assert!(kinds.contains(&k), "trace {} missing {}", t.tag, k.name());
            }
            assert!(t.e2e_ns() > 0);
            assert!(t.lifecycle.delivered_ns >= t.lifecycle.submitted_ns);
        }
        // The whole pipeline round-trips: ring -> retained -> Chrome
        // JSON -> validator, with all six lifecycle phases as spans.
        let chrome = server.chrome_trace_json();
        let summary = crate::obs::validate_chrome_trace(&chrome).expect("valid Chrome trace");
        assert!(summary.missing_phases().is_empty(), "missing {:?}", summary.missing_phases());
        let stats = server.runtime_stats();
        assert_eq!(stats.flight.completions, 6);
        assert!(stats.flight.retained >= traces.len() as u64);
        server.shutdown();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn wire_identity_threads_into_traces_and_query_log() {
        use crate::obs::json::Value;
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 31).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        let cfg =
            EngineConfig { k: 8, l: 32, slots: 2, beam: BeamMode::Auto, ..Default::default() };
        let server = AlgasServer::start(
            AlgasEngine::new(index, cfg).unwrap(),
            RuntimeConfig {
                n_slots: 2,
                n_workers: 1,
                n_host_threads: 1,
                queue_capacity: 64,
                // Retain + log everything: threshold 0 marks all slow.
                flight: FlightConfig { slow_threshold_ns: 0, ..Default::default() },
                qlog: QlogConfig { enabled: true, ..Default::default() },
                ..Default::default()
            },
        );
        for i in 0..4u64 {
            let wire = WireCtx { request_id: 5_000 + i, conn_id: 7, client_ts_us: 1_000 + i };
            let q = ds.queries.get(i as usize % ds.queries.len()).to_vec();
            let (tx, rx) = channel();
            server.submit_traced(q, wire, ReplyTo::Channel(tx)).unwrap();
            let _ = rx.recv().unwrap();
        }
        // Flight traces are keyed by the wire request id, not the tag.
        let traces = server.flight_traces();
        assert!(!traces.is_empty());
        for t in &traces {
            assert!((5_000..5_004).contains(&t.request_id), "trace keyed by {}", t.request_id);
            assert_eq!(t.conn, 7);
        }
        // So is every query-log line, with real phase spans.
        let lines = server.qlog_lines();
        assert_eq!(lines.len(), 4);
        let mut seen: Vec<u64> = Vec::new();
        for line in &lines {
            let v = Value::parse(line).expect("query-log line parses as JSON");
            seen.push(v.get("request_id").and_then(Value::as_u64).unwrap());
            assert_eq!(v.get("conn").and_then(Value::as_u64), Some(7));
            assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
            assert!(v.get("e2e_ns").and_then(Value::as_u64).unwrap() > 0);
            assert!(v.get("hops").and_then(Value::as_u64).unwrap() > 0);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![5_000, 5_001, 5_002, 5_003]);
        assert_eq!(server.qlog_totals().logged, 4);
        // Plain submissions keep tracing by tag (request id == tag).
        let q = ds.queries.get(0).to_vec();
        let (tag, rx) = server.submit(q).unwrap();
        let _ = rx.recv().unwrap();
        let line = server.qlog_lines().pop().unwrap();
        let v = Value::parse(&line).unwrap();
        assert_eq!(v.get("request_id").and_then(Value::as_u64), Some(tag));
        assert_eq!(v.get("conn").and_then(Value::as_u64), Some(0));
        server.shutdown();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn windowed_stats_match_recomputation_from_raw_snapshots() {
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 31).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        let cfg =
            EngineConfig { k: 8, l: 32, slots: 4, beam: BeamMode::Auto, ..Default::default() };
        let server = AlgasServer::start(
            AlgasEngine::new(index, cfg).unwrap(),
            RuntimeConfig {
                n_slots: 4,
                n_workers: 2,
                n_host_threads: 1,
                queue_capacity: 64,
                // Park the ticker (no sampling, hour-long rotation) so
                // this test drives rotations deterministically.
                tick: ObsTickConfig { prof_hz: 0, window_period_ms: 3_600_000 },
                ..Default::default()
            },
        );
        assert!(
            server.window_stats().windows.is_empty(),
            "no windows before two rotations exist to subtract"
        );
        for i in 0..10 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        // Raw snapshot at the same instant as the baseline rotation
        // (no queries run in between, so the two views are identical).
        let base = server.runtime_stats().phases.end_to_end.clone();
        server.shared.obs.rotate_window();
        for i in 0..10 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        let full = server.runtime_stats().phases.end_to_end.clone();
        server.shared.obs.rotate_window();

        // Every window target must agree exactly with the delta
        // recomputed from the raw histogram snapshots.
        let recomputed = full.delta(&base);
        let block = server.window_stats();
        assert_eq!(block.health, "ok", "no SLO armed, never degraded");
        for target in [1u64, 10, 60] {
            let w = block.window(target).expect("window present after two rotations");
            assert_eq!(w.completed, recomputed.count, "window {target}s completions");
            assert_eq!(w.p50_ns, recomputed.quantile(0.5), "window {target}s p50");
            assert_eq!(w.p99_ns, recomputed.quantile(0.99), "window {target}s p99");
            assert_eq!(w.max_ns, recomputed.max, "window {target}s max");
        }
        // The same block rides runtime_stats into every exposition
        // surface.
        let s = server.runtime_stats();
        assert_eq!(s.window.window(10).unwrap().p99_ns, recomputed.quantile(0.99));
        server.shutdown();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn live_profile_capture_attributes_thread_states() {
        use crate::obs::StatsSource;
        let (server, ds, _) = test_server(4, 2, 1);
        for i in 0..10 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        // The default 97 Hz ticker is live; a short capture must
        // attribute samples to the registered runtime threads.
        let folded = server.profile_capture(0.2);
        assert!(!folded.is_empty(), "a live sampler must accumulate samples");
        for line in folded.lines() {
            let (frames, count) = line.rsplit_once(' ').expect("folded line has a count");
            assert_eq!(frames.split(';').count(), 3, "kind;label;state in {line:?}");
            assert!(count.parse::<u64>().unwrap() > 0, "counts are positive in {line:?}");
        }
        assert!(
            folded.lines().any(|l| l.starts_with("worker;worker-")),
            "worker threads must appear in {folded:?}"
        );
        assert!(
            folded.lines().any(|l| l.starts_with("host;host-0;")),
            "host threads must appear in {folded:?}"
        );
        // The StatsSource forwarding serves the same capture.
        assert!(!StatsSource::profile_folded(&server, 0.1).is_empty());
        assert_eq!(StatsSource::health_state(&server), "ok");
        server.shutdown();
    }

    #[test]
    fn slo_controller_sheds_under_an_impossible_target() {
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 31).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        // Quantized engine: the effort ladder has rerank rungs to shed.
        // A 1 µs SLO is unreachable, so every tick must shed until the
        // ladder saturates — never restore.
        let cfg = EngineConfig {
            k: 8,
            l: 32,
            slots: 2,
            beam: BeamMode::Auto,
            quantize: true,
            slo_us: Some(1),
            ..Default::default()
        };
        let engine = AlgasEngine::new(index, cfg).unwrap();
        assert!(engine.controller().enabled(), "quantized + slo => active controller");
        let tick_every = engine.controller().config().tick_every;
        let server = AlgasServer::start(
            engine,
            RuntimeConfig {
                n_slots: 2,
                n_workers: 1,
                n_host_threads: 1,
                queue_capacity: 256,
                ..Default::default()
            },
        );
        for i in 0..(3 * tick_every as usize) {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        let s = server.runtime_stats();
        assert!(s.control.enabled);
        assert!(s.control.ticks >= 2, "completions must drive cadence ticks");
        assert!(s.control.sheds >= 1, "an impossible SLO must shed effort");
        assert_eq!(s.control.restores, 0);
        assert!(s.control.level >= 1);
        assert!(s.control.last_p99_ns > 1_000, "p99 of real service spans");
        server.shutdown();
    }

    #[test]
    fn controller_stays_inert_without_an_slo() {
        let (server, ds, _) = test_server(4, 2, 1);
        for i in 0..80 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        let s = server.runtime_stats();
        assert!(!s.control.enabled);
        assert_eq!((s.control.level, s.control.ticks, s.control.sheds), (0, 0, 0));
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_inflight_queries() {
        let (server, ds, _) = test_server(4, 2, 1);
        let mut rxs = Vec::new();
        for i in 0..12 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            rxs.push(server.submit(q).unwrap().1);
        }
        server.shutdown();
        for rx in rxs {
            assert!(rx.recv().is_ok(), "in-flight query dropped during shutdown");
        }
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let (server, ds, _) = test_server(2, 1, 1);
        server.shared.shutdown.store(true, Ordering::Release);
        let err = server.submit(ds.queries.get(0).to_vec()).unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
    }

    #[test]
    fn backpressure_reports_queue_full() {
        let ds = DatasetSpec::tiny(300, 8, Metric::L2, 77).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        let cfg = EngineConfig { k: 4, l: 16, slots: 1, ..Default::default() };
        let engine = AlgasEngine::new(index, cfg).unwrap();
        let server = AlgasServer::start(
            engine,
            RuntimeConfig {
                n_slots: 1,
                n_workers: 1,
                n_host_threads: 1,
                queue_capacity: 1,
                ..Default::default()
            },
        );
        // Flood faster than one slot can drain; eventually QueueFull.
        let mut rejections = 0u64;
        let mut rxs = Vec::new();
        for i in 0..200 {
            match server.submit(ds.queries.get(i % ds.queries.len()).to_vec()) {
                Ok((_, rx)) => rxs.push(rx),
                Err(SubmitError::QueueFull) => rejections += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(rejections > 0, "bounded queue never filled");
        // Every rejection is counted, in both exposition surfaces.
        assert_eq!(server.stats().rejected_queue_full, rejections);
        assert_eq!(server.runtime_stats().rejected_queue_full, rejections);
        assert_eq!(server.stats().submitted, 200 - rejections);
        server.shutdown();
        for rx in rxs {
            assert!(rx.recv().is_ok());
        }
    }
}
