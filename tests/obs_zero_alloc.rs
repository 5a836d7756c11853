//! Pins the zero-allocation invariant for the serving-path telemetry:
//! every operation the hot path performs — phase stamps, histogram
//! records, per-worker/host/slot counter bumps, flight-recorder event
//! writes (including ring overwrite), the full delivery-accounting
//! call including its wide-event query-log write (both the accepted
//! and the ring-full drop path), thread-state profiler marker stamps,
//! profiler sampling passes, and window-ring rotation — must never
//! touch the heap.
//! Snapshotting ([`RuntimeObs::populate`]), trace capture (retention),
//! and query-log draining/rendering allocate and are deliberately
//! outside the measured region: they run on the control path, not per
//! query, so the recorder here is configured to retain nothing.
//!
//! Like `zero_alloc.rs`, this binary holds exactly one test so no
//! concurrent test can perturb the counting `#[global_allocator]`
//! (integration tests get their own binary, and the allocator is
//! per-binary).
#![cfg(feature = "obs")]

use algas::core::merge::MergeStats;
use algas::core::obs::{
    stamp, DeliveryCtx, EventKind, FlightConfig, Histogram, JobStamps, ObsTickConfig, ProfHandle,
    ProfState, QlogConfig, RuntimeObs, ThreadKind,
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
/// runtime issues it: stamps on the submit/refill/worker/host path,
/// flight-recorder events (the small ring below forces overwrite),
/// then search accounting, then delivery accounting.
fn instrument_one_query(
    obs: &RuntimeObs,
    hist: &Histogram,
    totals: &StepTotals,
    prof: &ProfHandle,
    q: u64,
) {
    let s = (q % 4) as usize;
    // Thread-state markers bracket the pass exactly as the worker loop
    // stamps them: one relaxed store each.
    prof.stamp(ProfState::Scan);
    let mut stamps = JobStamps::new();
    stamps.mark_slot();
    obs.slot_assigned(0, s, &stamps);
    stamps.mark_work_start();
    obs.flight_record(s, EventKind::WorkStart, (q % 2) as u32, 0, 0);
    for c in 0..3u32 {
        obs.flight_record(s, EventKind::CtaStep, c, 60, 1_000);
    }
    obs.flight_record(s, EventKind::BeamSwitch, 0, 2, 0);
    let delta = MergeStats { merges: 1, elements: 64, dupes_dropped: 3 };
    obs.record_search((q % 2) as usize, s, totals, Some(0.5), &delta);
    stamps.mark_finish();
    obs.flight_record(s, EventKind::Finish, (q % 2) as u32, 0, 0);
    let picked_up = stamp();
    let merged_at = stamp();
    // Delivery accounting now also writes the wide-event query-log
    // record (wire identity + per-query facts) into its ring — that
    // write rides the same zero-allocation budget.
    let ctx = DeliveryCtx {
        request_id: q + 0x1000,
        conn_id: 1 + q % 3,
        client_ts_us: 40 + q,
        worker: (q % 2) as u32,
        hops: 17,
        slo_level: 1,
        rerank_depth: 32,
        entry_code: 2,
        ..DeliveryCtx::local(q)
    };
    prof.stamp(ProfState::Publish);
    obs.record_delivery(0, s, &ctx, &stamps, picked_up, merged_at, stamp());
    hist.record(1 + q * 17);
    // The obs tick thread's work rides the same budget: a profiler
    // sampling pass over every registered marker, and (each 8th
    // query) a window rotation into its preallocated ring slot.
    obs.prof_registry().sample_once();
    if q.is_multiple_of(8) {
        obs.rotate_window();
    }
    prof.stamp(ProfState::Idle);
}

#[test]
fn telemetry_hot_path_allocates_nothing() {
    // Retention disabled: the fast path of the tail sampler is the
    // whole path. At 11 events/query over 4 slots the 1024-event
    // rings wrap inside the measured region.
    let flight = FlightConfig { slow_threshold_ns: u64::MAX, top_k: 0 };
    // Query log armed with a deliberately small ring and no drainer
    // running: the measured region exercises both the accepted-write
    // and the ring-full drop path, neither of which may allocate
    // (rendering to JSON lines happens on the control path, in drain).
    let qlog = QlogConfig { enabled: true, ring_capacity: 64, ..Default::default() };
    let obs = RuntimeObs::new(4, 2, 1, flight, qlog, ObsTickConfig::default());
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
    for q in 0..64 {
        instrument_one_query(&obs, &hist, &totals, &prof, q);
    }

    // Measured passes: the identical instrumentation stream must not
    // touch the heap. The counter is process-global, so a libtest
    // harness thread can rarely leak an ambient allocation or two into
    // a pass (observed ~1/60 runs); a genuine hot-path regression
    // allocates on every one of the 512 iterations and fails all three
    // passes, so requiring one clean pass keeps the invariant exact.
    let mut counts = Vec::new();
    for _ in 0..3 {
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        for q in 0..512 {
            instrument_one_query(&obs, &hist, &totals, &prof, q);
        }
        counts.push(ALLOC_CALLS.load(Ordering::Relaxed) - before);
        if counts.last() == Some(&0) {
            break;
        }
    }
    assert!(
        counts.contains(&0),
        "telemetry hot path allocated on every pass: {counts:?} allocations"
    );

    // Sanity: everything recorded was actually counted.
    let total = 64 + 512 * counts.len() as u64;
    let snap = hist.snapshot();
    assert_eq!(snap.count, total);
    let mut stats = algas::core::obs::RuntimeStats::empty(4, 2, 1);
    obs.populate(&mut stats);
    assert_eq!(stats.phases.end_to_end.count, total);
    assert_eq!(stats.per_slot.iter().map(|s| s.delivered).sum::<u64>(), total);
    assert_eq!(stats.merge.elements, 64 * total);
    // Flight totals: 11 ring events per query, none retained.
    assert_eq!(stats.flight.completions, total);
    assert_eq!(stats.flight.events, 11 * total);
    assert_eq!(stats.flight.retained, 0);
    assert!(obs.flight_retained().is_empty());
    // Query log: every delivery attempted a record; the undrained ring
    // accepted its capacity's worth and dropped the rest — both paths
    // ran inside the measured region.
    let totals = obs.qlog_totals();
    assert_eq!(totals.logged + totals.dropped, total);
    assert!(totals.logged >= 63, "ring capacity's worth accepted");
    assert!(totals.dropped > 0, "undrained small ring must have dropped");
    // Draining and rendering (the control path) is allowed to allocate
    // — and the lines carry the wire identity the deliveries recorded.
    let lines = obs.qlog_lines();
    assert_eq!(lines.len() as u64, totals.logged);
    assert!(lines[0].contains("\"request_id\":"), "{}", lines[0]);
    assert!(lines[0].contains("\"hops\":17"), "{}", lines[0]);
    // The profiler attributed the in-region sampling passes to the
    // stamped marker, and the rotated ring yields windows — both fed
    // entirely from inside the measured (allocation-free) region.
    let worker =
        stats.prof.threads.iter().find(|t| t.label == "worker-0").expect("profiled thread");
    assert!(worker.states.iter().map(|s| s.samples).sum::<u64>() > 0, "no samples attributed");
    assert!(!obs.window_stats(0).windows.is_empty(), "rotations must yield windows");
}
