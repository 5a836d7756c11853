//! Pins the zero-allocation invariant for the serving-path telemetry:
//! every operation the hot path performs — the seven lifecycle stamps,
//! the host's refill accounting, and the worker's two recorder calls
//! (search accounting, then delivery accounting with its histogram
//! records, the flight recorder's tail-sampling fast path and the
//! wide-event query-log write, both the accepted and the ring-full drop
//! path), thread-state profiler marker stamps, and the worker's window
//! rotation check, including a rotation that is due — must never touch
//! the heap. Snapshotting ([`RuntimeObs::populate`]), the windowed
//! read, building a retained trace, a profile capture, and query-log
//! draining/rendering allocate and are deliberately
//! outside the measured region: they run on the control path or for
//! rare queries only, so the recorder here is configured to retain
//! nothing.
//!
//! Like `zero_alloc.rs`, this binary holds exactly one test so no
//! concurrent test can perturb the counting `#[global_allocator]`
//! (integration tests get their own binary, and the allocator is
//! per-binary).
#![cfg(feature = "obs")]

use algas::core::control::{ControlDecision, ControlReason};
use algas::core::engine::RerankStats;
use algas::core::merge::MergeStats;
use algas::core::obs::window::WINDOW_PERIOD;
use algas::core::obs::{
    DeliveryCtx, FlightConfig, Histogram, JobStamps, ProfHandle, ProfState, QlogConfig, RuntimeObs,
    ThreadKind,
};
use algas::core::tracer::{StepStats, StepTotals};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One simulated query's worth of instrumentation, exactly as the
/// runtime issues it: stamps on the submit/refill/worker path, the
/// host's refill accounting, then the worker's search accounting,
/// delivery accounting (three walkers, one beam switch, a rerank pass,
/// and a controller decision every 8th query) and window rotation
/// check. Returns whether that check rotated the ring.
fn instrument_one_query(
    obs: &RuntimeObs,
    hist: &Histogram,
    totals: &StepTotals,
    prof: &ProfHandle,
    q: u64,
) -> bool {
    let (s, w) = ((q % 4) as usize, (q % 2) as usize);
    // Thread-state markers bracket the pass exactly as the worker loop
    // stamps them: one relaxed store each.
    prof.stamp(ProfState::Scan);
    let mut stamps = JobStamps::new();
    stamps.mark_slot(0);
    obs.slot_assigned(0);
    stamps.mark_work_start();
    stamps.mark_finish();
    let delta = MergeStats { merges: 1, elements: 64, dupes_dropped: 3 };
    let rerank = RerankStats { reranks: 1, candidates: 32, promotions: 2 };
    obs.record_search(w, totals, Some(0.5), &delta, &rerank);
    stamps.mark_merge_begin();
    stamps.mark_merged();
    // Delivery accounting also writes the wide-event query-log
    // record (wire identity + per-query facts) into its ring — that
    // write rides the same zero-allocation budget.
    let ctx = DeliveryCtx {
        request_id: q + 0x1000,
        conn_id: 1 + q % 3,
        client_ts_us: 40 + q,
        worker: w as u32,
        hops: 17,
        slo_level: 1,
        rerank_depth: 32,
        entry_code: 2,
        ..DeliveryCtx::local(q)
    };
    let control = q.is_multiple_of(8).then_some(ControlDecision {
        level: 1,
        reason: ControlReason::Shed,
        p99_ns: 9_000,
        changed: true,
    });
    let walkers = [(*totals, None), (*totals, Some(2)), (*totals, None)];
    prof.stamp(ProfState::Publish);
    stamps.mark_delivered();
    obs.record_delivery(w, s, &ctx, &stamps, walkers, &rerank, control);
    hist.record(1 + q * 17);
    // After the reply is handed over: rotate the window ring into its
    // preallocated next slot if a period has passed since the newest.
    let rotated = obs.rotate_window_if_due(&stamps);
    prof.stamp(ProfState::Idle);
    rotated
}

#[test]
fn telemetry_hot_path_allocates_nothing() {
    // Retention disabled: the fast path of the tail sampler is the
    // whole path, and no trace is ever built.
    let flight = FlightConfig { slow_threshold_ns: u64::MAX, top_k: 0 };
    // Query log armed with no drainer running: the measured region
    // exercises both the accepted-write and the ring-full drop path,
    // neither of which may allocate (rendering to JSON lines happens on
    // the control path, in drain).
    let qlog = QlogConfig { enabled: true, ..Default::default() };
    let obs = RuntimeObs::new(2, 1, flight, qlog);
    // Registration allocates (label copy) — setup, not hot path.
    let prof = obs.prof_registry().register(ThreadKind::Worker, "worker-0");
    let hist = Histogram::new();
    let mut totals = StepTotals::default();
    totals.add_step(&StepStats {
        expansions: 3,
        dist_evals: 60,
        calc_cycles: 40,
        sort_cycles: 30,
        sorts: 2,
        other_cycles: 8,
        ..Default::default()
    });

    // Warmup: one pass exercises any lazily-initialized state (the
    // first `Instant::now` clock read, histogram bucket touch, ...).
    // It also fills the query log's 1024-cell ring to within 256 of
    // full, so the first measured pass both accepts and drops records.
    const WARMUP: u64 = 1024 - 256;
    for q in 0..WARMUP {
        instrument_one_query(&obs, &hist, &totals, &prof, q);
    }

    // Measured passes: the identical instrumentation stream must not
    // touch the heap. The counter is process-global, so a libtest
    // harness thread can rarely leak an ambient allocation or two into
    // a pass (observed ~1/60 runs); a genuine hot-path regression
    // allocates on every one of the 512 iterations and fails all three
    // passes, so requiring one clean pass keeps the invariant exact.
    // Each pass starts a window period after the last rotation, so its
    // first delivery finds a rotation due and runs it in the region.
    let mut counts = Vec::new();
    let mut rotations = Vec::new();
    for _ in 0..3 {
        std::thread::sleep(WINDOW_PERIOD);
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        let mut rotated = 0u64;
        for q in 0..512 {
            rotated += u64::from(instrument_one_query(&obs, &hist, &totals, &prof, q));
        }
        counts.push(ALLOC_CALLS.load(Ordering::Relaxed) - before);
        rotations.push(rotated);
        if counts.last() == Some(&0) {
            break;
        }
    }
    assert!(
        counts.contains(&0),
        "telemetry hot path allocated on every pass: {counts:?} allocations"
    );
    assert!(rotations.iter().all(|&r| r >= 1), "no due rotation in a pass: {rotations:?}");

    // Sanity: everything recorded was actually counted.
    let total = WARMUP + 512 * counts.len() as u64;
    let snap = hist.snapshot();
    assert_eq!(snap.count, total);
    let mut stats = algas::core::obs::RuntimeStats::empty(4, 2, 1);
    obs.populate(&mut stats);
    assert_eq!(stats.phases.end_to_end.count, total);
    assert_eq!(stats.per_worker.iter().map(|w| w.queries).sum::<u64>(), total);
    assert_eq!(stats.merge.elements, 64 * total);
    // Flight totals: none retained.
    assert_eq!(stats.flight.retained, 0);
    assert!(obs.flight_retained().is_empty());
    // Query log: every delivery attempted a record; the undrained ring
    // accepted its capacity's worth and dropped the rest — both paths
    // ran inside the measured region.
    let totals = obs.qlog_totals();
    assert_eq!(totals.logged + totals.dropped, total);
    assert_eq!(totals.logged, 1024, "ring capacity's worth accepted");
    assert!(totals.dropped > 0, "undrained ring must have dropped");
    // Draining and rendering (the control path) is allowed to allocate
    // — and the lines carry the wire identity the deliveries recorded.
    let lines = obs.qlog_lines();
    assert_eq!(lines.len() as u64, totals.logged);
    assert!(lines[0].contains("\"request_id\":"), "{}", lines[0]);
    assert!(lines[0].contains("\"hops\":17"), "{}", lines[0]);
    // A capture reads the marker the region stamped last, and the ring
    // holds the slots the in-region rotations filled.
    let folded = obs.prof_capture(0.1);
    assert!(folded.starts_with("worker;worker-0;idle "), "{folded}");
    let block = obs.window_stats(0);
    assert!(block.slots > rotations.len() as u64, "baseline plus one slot a pass: {block:?}");
    assert_eq!(block.window(60).expect("60 s window").completed, total);
}
