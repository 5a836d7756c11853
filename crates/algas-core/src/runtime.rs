//! A native, threaded implementation of the ALGAS serving architecture.
//!
//! The simulators in `algas-gpu-sim` answer the paper's *performance*
//! questions; this module implements the same architecture as a real
//! concurrent system, validating the slot protocol under an actual
//! memory model and doubling as a usable low-latency CPU ANNS server:
//!
//! * **Persistent workers** stand in for the persistent kernel's CTAs:
//!   spawned once, they poll their slots' states (`Work`?) instead of
//!   being launched per query. Each finishes its query — search, the
//!   one TopK merge (§IV-B's CPU merge; the walkers run on a CPU
//!   thread here), the SQ8 rerank and the translation to original ids
//!   — and answers it: the reply goes to the client from the thread
//!   that searched it. The paper hands results to a host thread
//!   because a GPU kernel cannot own an IO stream; a CPU worker can.
//! * **Slots** carry one in-flight query each, in one direction: the
//!   host's `None/Done → Work` edge publishes the job into the slot's
//!   cell exactly as §V-A's state copies do, and the worker takes it
//!   out. The worker writes the `Work → Finish → Done` edges itself.
//! * **Host pollers** scan their slot subsets (§V-B's partitioned
//!   ownership) and refill free slots from the submission queue. They
//!   neither merge nor deliver.

use crate::control::SloController;
use crate::engine::{AlgasEngine, SearchScratch};
use crate::lock;
use crate::net::poll::Waker;
use crate::net::NetCounters;
use crate::obs::{
    self, DeliveryCtx, FlightConfig, JobStamps, ProfState, QlogConfig, QueryTrace, RuntimeObs,
    RuntimeStats, SharedProfRegistry, ThreadKind,
};
use crate::state::{AtomicSlotState, SlotState};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Runtime shape: how many threads on each side. The slot count is the
/// engine's ([`EngineConfig::slots`](crate::engine::EngineConfig::slots));
/// it sizes the slot array and does not affect `N_parallel`.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Persistent worker threads (the "GPU"); slots are assigned
    /// round-robin.
    pub n_workers: usize,
    /// Host poller threads (§V-B); slots are assigned round-robin.
    pub n_host_threads: usize,
    /// Bound of the submission queue: the one place load is refused
    /// (backpressure for open-loop clients).
    pub queue_capacity: usize,
    /// Flight-recorder policy: which completed queries are retained
    /// for trace export (ignored when the `obs` feature is compiled
    /// out).
    pub flight: FlightConfig,
    /// Wide-event query-log policy: on/off and sampling (ignored when
    /// the `obs` feature is compiled out; the log is off by default).
    pub qlog: QlogConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            n_workers: 2,
            n_host_threads: 1,
            queue_capacity: 1024,
            flight: FlightConfig::default(),
            qlog: QlogConfig::default(),
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
/// [`crate::net::poll::Poller`]: workers push `(token, reply)` and
/// wake it; the consumer drains in completion order. One queue per
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
}

/// One slot. The state machine serializes access to the job cell: the
/// host puts a job in before `None/Done → Work`, and the worker takes
/// it out after observing `Work`.
struct Slot {
    state: AtomicSlotState,
    job: Mutex<Option<Job>>,
}

#[derive(Default)]
struct Stats {
    submitted: std::sync::atomic::AtomicU64,
    completed: std::sync::atomic::AtomicU64,
    rejected_queue_full: std::sync::atomic::AtomicU64,
    service_ns_total: std::sync::atomic::AtomicU64,
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
    /// The network front end's counters: always on, like `stats`, and
    /// bumped by every [`crate::net::NetServer`] loop over this runtime.
    net: NetCounters,
    obs: RuntimeObs,
}

/// Handle to a running server; dropping it shuts the server down.
pub struct AlgasServer {
    shared: Arc<Shared>,
    cfg: RuntimeConfig,
    workers: Vec<JoinHandle<()>>,
    hosts: Vec<JoinHandle<()>>,
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
    /// Starts the server: spawns persistent workers and host pollers
    /// over the engine's `slots` slots.
    ///
    /// # Panics
    /// Panics on a zero-sized configuration.
    pub fn start(engine: AlgasEngine, cfg: RuntimeConfig) -> Self {
        let n_slots = engine.config().slots;
        assert!(n_slots > 0 && cfg.n_workers > 0 && cfg.n_host_threads > 0);
        let slots = (0..n_slots)
            .map(|_| Slot { state: AtomicSlotState::new(), job: Mutex::new(None) })
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
            net: NetCounters::default(),
            obs: RuntimeObs::new(cfg.n_workers, cfg.n_host_threads, cfg.flight, cfg.qlog),
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

        Self { shared, cfg, workers, hosts, next_tag: std::sync::atomic::AtomicU64::new(0) }
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

    /// Mean submit → reply time of the completed queries, ns (0 before
    /// the first completion).
    pub(crate) fn mean_service_ns(&self) -> u64 {
        let stats = &self.shared.stats;
        stats.service_ns_total.load(Ordering::Relaxed)
            / stats.completed.load(Ordering::Relaxed).max(1)
    }

    /// The network counters every [`crate::net::NetServer`] over this
    /// runtime bumps.
    pub(crate) fn net_counters(&self) -> &NetCounters {
        &self.shared.net
    }

    /// The full telemetry snapshot, and the one every exposition
    /// surface serves: query counters, occupancy gauges, per-worker /
    /// per-host breakdowns, phase latency histograms,
    /// search/merge totals, and the network front end's counters. The
    /// gauges, queue and network counters are always live; the
    /// breakdowns and histograms carry data only when the (default-on)
    /// `obs` feature is compiled in.
    pub fn runtime_stats(&self) -> RuntimeStats {
        let mut out = RuntimeStats::empty(
            self.shared.slots.len(),
            self.cfg.n_workers,
            self.cfg.n_host_threads,
        );
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
        out.net = self.shared.net.snapshot();
        out.net_conns = self.shared.net.conn_snapshots();
        out.retry_backoff = self.shared.net.backoff_snapshot();
        out
    }

    /// The thread-state marker registry, so auxiliary threads outside
    /// this runtime (the network readiness loop, the query-log writer)
    /// can register and stamp into the same profile.
    pub fn prof_registry(&self) -> SharedProfRegistry {
        self.shared.obs.prof_registry()
    }

    /// Blocking folded-stack profile capture over `seconds` (clamped
    /// to 0.1–30): samples the thread-state markers on the calling
    /// thread for the duration and returns the counts as
    /// flamegraph-ready collapsed-stack text. Empty when the `obs`
    /// feature is compiled out.
    pub fn profile_capture(&self, seconds: f64) -> String {
        self.shared.obs.prof_capture(seconds)
    }

    /// The flight recorder's retained (tail-sampled) query traces,
    /// slowest-first. Empty when the `obs` feature is compiled out or
    /// no completed query met the retention policy yet.
    pub fn flight_traces(&self) -> Vec<QueryTrace> {
        self.shared.obs.flight_retained()
    }

    /// Retained flight traces as Chrome trace-event JSON, loadable in
    /// Perfetto / `chrome://tracing`.
    pub fn chrome_trace_json(&self) -> String {
        obs::chrome_trace_json(&self.flight_traces())
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

    /// Records a request the front end answered without a search in
    /// the query log under its wire identity: `status` is
    /// [`obs::qlog::STATUS_REJECTED`] when it answered RETRY_AFTER,
    /// [`obs::qlog::STATUS_ERROR`] when it answered a protocol error.
    pub fn qlog_refused(&self, request_id: u64, conn_id: u64, status: u64) {
        self.shared.obs.qlog_refused(request_id, conn_id, status);
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
    }
}

impl Drop for AlgasServer {
    fn drop(&mut self) {
        if !self.hosts.is_empty() || !self.workers.is_empty() {
            self.shutdown_inner();
        }
    }
}

/// The one [`obs::StatsServer`] source: `/metrics` and `/stats.json`
/// are [`AlgasServer::runtime_stats`] (network counters included),
/// `/traces` the retained flight traces as the Chrome trace-event
/// document `serve --trace-out` writes.
impl crate::obs::StatsSource for AlgasServer {
    fn metrics_text(&self) -> String {
        self.runtime_stats().to_prometheus()
    }

    fn stats_json(&self) -> String {
        self.runtime_stats().to_json()
    }

    fn traces_json(&self) -> String {
        self.chrome_trace_json()
    }

    fn query_log_lines(&self) -> Vec<String> {
        self.qlog_lines()
    }

    fn profile_folded(&self, seconds: f64) -> String {
        self.profile_capture(seconds)
    }

    fn health_state(&self) -> String {
        self.shared.obs.window_stats(self.shared.engine.controller().slo_ns()).health
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
/// finishes the query ([`AlgasEngine::serve_into`]) and answers it,
/// flipping `Work → Finish → Done`. Exits once every owned slot
/// reaches `Quit`.
fn worker_loop(shared: &Shared, first: usize, stride: usize) {
    // Per-worker reusable search scratch (candidate lists, visited
    // bitmap, per-CTA buffers, merge cursors). After the first few
    // queries warm it up, the steady-state serving path performs no
    // heap allocation in this thread beyond the reply's own vectors.
    let mut scratch = SearchScratch::new();
    // The entry policy is fixed for the engine's lifetime; encode it
    // once rather than per delivery.
    let entry_code = obs::qlog::entry_policy_code(&shared.engine.config().entry_policy);
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
                    serve_slot(shared, first, s, entry_code, &mut scratch, &prof);
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

/// Worker `w` runs slot `s`'s job from `Work` to `Done`: search, then
/// the reply. Counters and telemetry land before the reply, so a
/// caller that sees its reply also sees it counted.
fn serve_slot(
    shared: &Shared,
    w: usize,
    s: usize,
    entry_code: u32,
    scratch: &mut SearchScratch,
    prof: &obs::ProfHandle,
) {
    let slot = &shared.slots[s];
    prof.stamp(ProfState::Scan);
    let (merge_before, rerank_before) = (scratch.merge.stats, scratch.rerank);
    let mut job = lock(&slot.job).take().expect("Work implies a job");
    job.stamps.mark_work_start();
    shared.engine.serve_into(&job.query, job.tag, scratch);
    prof.stamp(ProfState::Publish);
    job.stamps.mark_finish();
    // The query's totals, computed once for the query log's hop count
    // and the search counters.
    let totals = scratch.multi.step_totals();
    let merge_delta = scratch.merge.stats.since(&merge_before);
    let rerank_delta = scratch.rerank.since(&rerank_before);
    let entry = scratch.multi.entry_distance();
    shared.obs.record_search(w, &totals, entry, &merge_delta, &rerank_delta);
    let flipped = slot.state.transition(SlotState::Work, SlotState::Finish);
    debug_assert!(flipped, "only this worker moves Work -> Finish");

    // `Merge` names the reply build; the reply's vectors go to the
    // client, the scratch keeps its TopK buffer.
    prof.stamp(ProfState::Merge);
    job.stamps.mark_merge_begin();
    let reply = SearchReply {
        tag: job.tag,
        ids: scratch.topk.iter().map(|&(_, id)| id).collect(),
        distances: scratch.topk.iter().map(|&(d, _)| d.0).collect(),
    };
    job.stamps.mark_merged();
    prof.stamp(ProfState::Deliver);
    let service_ns = job.submitted_at.elapsed().as_nanos() as u64;
    shared.stats.completed.fetch_add(1, Ordering::Relaxed);
    shared.stats.service_ns_total.fetch_add(service_ns, Ordering::Relaxed);
    // Feed the SLO controller the submit→reply span it regulates. A
    // decision from a cadence tick lands in this query's trace, if the
    // tail sampler keeps it.
    let control = shared.engine.controller().observe(service_ns);
    let ctx = DeliveryCtx {
        tag: job.tag,
        request_id: job.wire.request_id,
        conn_id: job.wire.conn_id,
        client_ts_us: job.wire.client_ts_us,
        worker: w as u32,
        hops: totals.steps.min(u64::from(u32::MAX)) as u32,
        slo_level: shared.engine.controller().level(),
        rerank_depth: shared.engine.rerank_depth().min(u32::MAX as usize) as u32,
        entry_code,
    };
    // The delivery stamp marks the send boundary.
    job.stamps.mark_delivered();
    let walkers = scratch.multi.walkers();
    shared.obs.record_delivery(w, s, &ctx, &job.stamps, walkers, &rerank_delta, control);
    job.reply_to.deliver(reply);
    let flipped = slot.state.transition(SlotState::Finish, SlotState::Done);
    debug_assert!(flipped, "only this worker moves Finish -> Done");
    // With the reply handed over and the slot free for its host, rotate
    // the window ring if a period has passed since its newest slot.
    shared.obs.rotate_window_if_due(&job.stamps);
}

/// Host poller (§V-B): scans owned slots; on `None`/`Done` refills
/// from the submission queue or, when shutting down with an empty
/// queue, retires the slot to `Quit`. `Work` and `Finish` belong to
/// the worker.
fn host_loop(shared: &Shared, first: usize, stride: usize) {
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
                SlotState::None | SlotState::Done => {
                    all_quit = false;
                    match shared.submissions.try_pop() {
                        Some(mut job) => {
                            prof.stamp(ProfState::Refill);
                            job.stamps.mark_slot(first);
                            *lock(&slot.job) = Some(job);
                            shared.obs.slot_assigned(first);
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
                SlotState::Work | SlotState::Finish => {
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
                n_workers: workers,
                n_host_threads: hosts,
                queue_capacity: 256,
                ..Default::default()
            },
        );
        (server, ds, oracle)
    }

    /// The ids a worker answers `query` with under `tag`: what
    /// `serve_into` leaves on a scratch of its own.
    fn worker_ids(oracle: &AlgasEngine, query: &[f32], tag: u64) -> Vec<u32> {
        let mut scratch = SearchScratch::new();
        oracle.serve_into(query, tag, &mut scratch);
        scratch.topk.iter().map(|&(_, id)| id).collect()
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

    /// The plan is the configuration's, not a device's: no slot count
    /// caps the walkers, and none is too many to serve.
    #[test]
    fn the_serving_plan_does_not_depend_on_the_slot_count() {
        for slots in [16, 169, 1345] {
            let (server, ds, oracle) = test_server(slots, 1, 1);
            assert_eq!(oracle.plan().n_parallel, 8, "{slots} slots");
            let q = ds.queries.get(0).to_vec();
            let reply = server.search_blocking(q.clone()).unwrap();
            assert_eq!(reply.ids, worker_ids(&oracle, &q, reply.tag), "{slots} slots");
            server.shutdown();
        }
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
                n_workers: 2,
                n_host_threads: 1,
                queue_capacity: 64,
                ..Default::default()
            },
        );
        for i in 0..5 {
            let q = ds.queries.get(i).to_vec();
            let reply = server.search_blocking(q.clone()).unwrap();
            assert_eq!(reply.ids, worker_ids(&oracle, &q, reply.tag), "query {i}");
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
            assert_eq!(reply.ids, worker_ids(&oracle, &q, reply.tag), "query {i}");
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
        assert_eq!(reply.ids, worker_ids(&oracle, &q, 0));
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
        assert_eq!(reply.ids, worker_ids(&oracle, &q, tag));
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
                assert_eq!(reply.ids, worker_ids(&oracle, q, reply.tag));
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
        assert_eq!(server.runtime_stats().completed, 0);
        assert_eq!(server.mean_service_ns(), 0, "nothing served yet");
        for i in 0..10 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        let s = server.runtime_stats();
        assert_eq!(s.submitted, 10);
        assert_eq!(s.completed, 10);
        assert!(server.mean_service_ns() > 0);
        server.shutdown();
    }

    #[test]
    fn runtime_stats_report_counters_and_gauges() {
        // The runtime runs the slot count the engine planned for.
        let (server, ds, _) = test_server(3, 2, 1);
        for i in 0..10 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        let s = server.runtime_stats();
        assert_eq!((s.n_slots, s.n_workers, s.n_host_threads), (3, 2, 1));
        let page = crate::obs::json::Value::parse(&s.to_json()).unwrap();
        let n_slots = page.get("config").and_then(|c| c.get("n_slots")).and_then(|v| v.as_u64());
        assert_eq!(n_slots, Some(3), "config.n_slots reports the engine's");
        assert_eq!((s.submitted, s.completed, s.rejected_queue_full), (10, 10, 0));
        // The breakdown vectors always carry the runtime shape, even
        // with `obs` compiled out (they're just all-zero then).
        assert_eq!(s.per_worker.len(), 2);
        assert_eq!(s.per_host.len(), 1);
        assert!(s.queue_depth == 0 && s.slots_occupied <= 3);
        #[cfg(feature = "obs")]
        {
            // search_blocking returned for every query, so every
            // query's full telemetry has landed.
            assert_eq!(s.per_worker.iter().map(|w| w.queries).sum::<u64>(), 10);
            assert_eq!(s.completed, s.queries_searched());
            assert_eq!(s.per_host.iter().map(|h| h.refills).sum::<u64>(), 10);
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
                n_workers: 1,
                n_host_threads: 1,
                queue_capacity: 64,
                // Retain everything: threshold 0 marks every query slow.
                flight: FlightConfig { slow_threshold_ns: 0, ..Default::default() },
                ..Default::default()
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
        assert!(stats.flight.retained >= traces.len() as u64);
        server.shutdown();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn served_traces_carry_one_cta_step_per_walker() {
        use crate::obs::flight::EventKind;
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 31).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        let cfg =
            EngineConfig { k: 8, l: 32, slots: 2, beam: BeamMode::Auto, ..Default::default() };
        let oracle = AlgasEngine::new(index.clone(), cfg).unwrap();
        let server = AlgasServer::start(
            AlgasEngine::new(index, cfg).unwrap(),
            RuntimeConfig {
                n_workers: 1,
                n_host_threads: 1,
                queue_capacity: 64,
                // Threshold 0 marks every query slow: all are retained.
                flight: FlightConfig { slow_threshold_ns: 0, ..Default::default() },
                ..Default::default()
            },
        );
        let mut query_of = std::collections::HashMap::new();
        for i in 0..48 {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let (tag, rx) = server.submit(q.clone()).unwrap();
            rx.recv().unwrap();
            query_of.insert(tag, q);
        }
        let traces = server.flight_traces();
        assert!(!traces.is_empty(), "threshold 0 must retain queries");
        let mut most_walkers = 0;
        for t in &traces {
            let mut scratch = SearchScratch::new();
            oracle.serve_into(&query_of[&t.tag], t.tag, &mut scratch);
            let totals = scratch.multi.step_totals();
            let walkers: Vec<_> =
                t.events.iter().filter(|e| e.kind == EventKind::CtaStep).collect();
            assert_eq!(walkers.len(), scratch.multi.n_active(), "trace {}", t.tag);
            let lanes: Vec<u32> = walkers.iter().map(|e| e.lane).collect();
            assert_eq!(lanes, (0..walkers.len() as u32).collect::<Vec<_>>(), "launch order");
            let evals: u64 = walkers.iter().map(|e| u64::from(e.a)).sum();
            let steps: u64 = walkers.iter().map(|e| u64::from(e.b)).sum();
            assert_eq!(evals, totals.dist_evals, "trace {}", t.tag);
            assert_eq!(steps, totals.steps, "trace {}", t.tag);
            let (lo, hi) = (t.lifecycle.submitted_ns, t.lifecycle.delivered_ns);
            for e in &t.events {
                assert!((lo..=hi).contains(&e.ts_ns), "{} outside its query", e.kind.name());
            }
            most_walkers = most_walkers.max(walkers.len());
        }
        assert!(most_walkers >= 2, "no retained query launched a second walker");
        server.shutdown();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn the_worker_that_searched_a_query_delivers_it() {
        use crate::obs::flight::EventKind;
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 31).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        let cfg =
            EngineConfig { k: 8, l: 32, slots: 4, beam: BeamMode::Auto, ..Default::default() };
        let server = AlgasServer::start(
            AlgasEngine::new(index, cfg).unwrap(),
            RuntimeConfig {
                n_workers: 2,
                n_host_threads: 1,
                queue_capacity: 64,
                // Threshold 0 marks every query slow: all are retained.
                flight: FlightConfig { slow_threshold_ns: 0, ..Default::default() },
                ..Default::default()
            },
        );
        let pending: Vec<_> = (0..16)
            .map(|i| server.submit(ds.queries.get(i % ds.queries.len()).to_vec()).unwrap())
            .collect();
        for (_, rx) in pending {
            rx.recv().unwrap();
        }
        let traces = server.flight_traces();
        assert!(!traces.is_empty(), "threshold 0 must retain queries");
        let lane = |t: &QueryTrace, kind: EventKind| {
            t.events.iter().find(|e| e.kind == kind).map(|e| e.lane)
        };
        let mut workers = std::collections::HashSet::new();
        for t in &traces {
            let searched = lane(t, EventKind::WorkStart).expect("work_start event");
            assert_eq!(lane(t, EventKind::Delivered), Some(searched), "trace {}", t.tag);
            workers.insert(searched);
        }
        assert_eq!(workers.len(), 2, "both workers searched and delivered");
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
                n_workers: 1,
                n_host_threads: 1,
                queue_capacity: 64,
                // Retain + log everything: threshold 0 marks all slow.
                flight: FlightConfig { slow_threshold_ns: 0, ..Default::default() },
                qlog: QlogConfig { enabled: true, ..Default::default() },
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
        assert_eq!(server.runtime_stats().qlog.logged, 4);
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
        let (server, ds, _) = test_server(4, 2, 1);
        let serve = |n: usize| {
            for i in 0..n {
                let q = ds.queries.get(i % ds.queries.len()).to_vec();
                let _ = server.search_blocking(q).unwrap();
            }
        };
        serve(10);
        // A period of quiet makes the next delivery rotate the ring;
        // rotations only add slots nearer the read, and the test is far
        // shorter than 60 s, so the 60 s window still starts at the
        // construction baseline.
        std::thread::sleep(crate::obs::window::WINDOW_PERIOD);
        serve(10);
        let s = server.runtime_stats();
        assert!(s.window.slots >= 2, "a delivery rotated the ring: {} slot(s)", s.window.slots);
        assert_eq!(s.window.health, "ok", "no SLO armed, never degraded");
        // The 60 s window is the raw delta since construction: the
        // lifetime histogram, read while the server is idle.
        let raw = &s.phases.end_to_end;
        let w = s.window.window(60).expect("windows exist from construction");
        assert_eq!(w.completed, raw.count);
        assert_eq!(w.p50_ns, raw.quantile(0.5));
        assert_eq!(w.p99_ns, raw.quantile(0.99));
        assert_eq!(w.max_ns, raw.max);
        assert!(w.span_ms >= 1_000, "span from the baseline stamp: {} ms", w.span_ms);
        server.shutdown();
    }

    /// The leaf paths of a JSON document, arrays folded to `[]`.
    fn leaf_paths(
        v: &crate::obs::json::Value,
        prefix: &str,
        out: &mut std::collections::BTreeSet<String>,
    ) {
        use crate::obs::json::Value;
        match v {
            Value::Obj(fields) => {
                for (k, child) in fields {
                    leaf_paths(child, &format!("{prefix}.{k}"), out);
                }
            }
            Value::Arr(items) => {
                for item in items {
                    leaf_paths(item, &format!("{prefix}[]"), out);
                }
            }
            _ => {
                out.insert(prefix.to_string());
            }
        }
    }

    #[test]
    fn the_stats_page_has_the_same_leaves_at_construction_and_under_traffic() {
        use crate::obs::json::Value;
        let (server, ds, _) = test_server(4, 2, 1);
        let paths = |server: &AlgasServer| {
            let mut out = std::collections::BTreeSet::new();
            leaf_paths(&Value::parse(&server.runtime_stats().to_json()).unwrap(), "", &mut out);
            out
        };
        let at_start = paths(&server);
        let start = std::time::Instant::now();
        let mut i = 0;
        while start.elapsed() < std::time::Duration::from_millis(1_200) {
            let _ = server.search_blocking(ds.queries.get(i % ds.queries.len()).to_vec()).unwrap();
            i += 1;
        }
        assert_eq!(at_start, paths(&server), "the page's shape moved with time");
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
        // A short capture samples the markers itself and must
        // attribute samples to the registered runtime threads.
        let folded = server.profile_capture(0.2);
        assert!(!folded.is_empty(), "a capture must accumulate samples");
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
        let tick_every = crate::control::CONTROL_TICK_EVERY;
        let server = AlgasServer::start(
            engine,
            RuntimeConfig {
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
        let ticks = s.control.sheds + s.control.restores + s.control.holds;
        assert!(ticks >= 2, "completions must drive cadence ticks");
        assert!(s.control.sheds >= 1, "an impossible SLO must shed effort");
        assert_eq!(s.control.restores, 0);
        assert!(s.control.level >= 1);
        assert!(s.control.last_p99_ns > 1_000, "p99 of real service spans");
        server.shutdown();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn controller_ticks_land_in_retained_traces() {
        use crate::control::ControlReason;
        use crate::obs::flight::EventKind;
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 31).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        // The impossible-SLO engine above: every cadence tick decides.
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
        let tick_every = crate::control::CONTROL_TICK_EVERY;
        let max_level = engine.controller().ladder().max_level();
        let n_queries = 3 * tick_every as usize;
        let server = AlgasServer::start(
            engine,
            RuntimeConfig {
                n_workers: 1,
                n_host_threads: 1,
                queue_capacity: 256,
                // Threshold 0 marks every query slow, and a top-K as
                // deep as the run keeps every one of them.
                flight: FlightConfig { slow_threshold_ns: 0, top_k: n_queries },
                ..Default::default()
            },
        );
        for i in 0..n_queries {
            let q = ds.queries.get(i % ds.queries.len()).to_vec();
            let _ = server.search_blocking(q).unwrap();
        }
        let traces = server.flight_traces();
        assert_eq!(traces.len(), n_queries, "every query retained");
        let mut adjusts = 0;
        for t in &traces {
            for e in t.events.iter().filter(|e| e.kind == EventKind::ControlAdjust) {
                assert_eq!(e.lane, t.worker, "trace {}", t.tag);
                assert!(e.a <= max_level, "level {} past the ladder's {max_level}", e.a);
                let reason = ControlReason::from_u8(e.b as u8);
                assert_eq!(reason as u32, e.b, "trace {}: reason {}", t.tag, e.b);
                assert_ne!(reason, ControlReason::Init, "a tick always decides");
                adjusts += 1;
            }
        }
        assert!(adjusts >= 1, "no retained trace carries a controller decision");
        let c = server.runtime_stats().control;
        assert_eq!(adjusts, c.sheds + c.restores + c.holds, "one per tick");
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
        let ticks = s.control.sheds + s.control.restores + s.control.holds;
        assert_eq!((s.control.level, ticks, s.control.sheds), (0, 0, 0));
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
        // Every rejection is counted.
        let s = server.runtime_stats();
        assert_eq!(s.rejected_queue_full, rejections);
        assert_eq!(s.submitted, 200 - rejections);
        server.shutdown();
        for rx in rxs {
            assert!(rx.recv().is_ok());
        }
    }
}
