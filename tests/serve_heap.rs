//! Pins the heap a serving runtime holds beyond its engine: starting an
//! [`AlgasServer`] and serving queries must leave the live heap no more
//! than [`RUNTIME_HEAP_BOUND`] above what the engine held before the
//! start. The runtime's resident structures — worker scratch, the
//! lifetime histograms, the 64-slot window ring of 32-bit snapshots,
//! the flight and query-log rings — fit under it; a ring of 64-bit
//! snapshots (983 040 B on its own) or any structure sized to the
//! uptime instead of the configuration does not.
//!
//! A counting `#[global_allocator]` tracks live bytes. Like
//! `load_peak.rs`, this binary holds its own allocator (integration
//! tests get their own binary, and the allocator is per-binary), and
//! its one test runs alone in it.

use algas::core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
use algas::core::runtime::{AlgasServer, RuntimeConfig};
use algas::graph::cagra::CagraParams;
use algas::vector::datasets::DatasetSpec;
use algas::vector::Metric;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct LiveAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LiveAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_add(new_size, Ordering::SeqCst);
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: LiveAlloc = LiveAlloc;

/// What the runtime may hold on top of its engine, in bytes.
const RUNTIME_HEAP_BOUND: usize = 768 * 1024;

#[test]
fn the_runtime_holds_little_beyond_its_engine() {
    let ds = DatasetSpec::tiny(600, 16, Metric::L2, 47).generate();
    let index = AlgasIndex::build_cagra(ds.base, Metric::L2, CagraParams::default());
    let cfg = EngineConfig { k: 10, l: 64, slots: 4, ..Default::default() };
    let engine = AlgasEngine::new(index, cfg).expect("tuning");
    let runtime_cfg = RuntimeConfig { n_workers: 2, queue_capacity: 256, ..Default::default() };

    let before = LIVE.load(Ordering::SeqCst);
    let server = AlgasServer::start(engine, runtime_cfg);
    for round in 0..3 {
        let pending: Vec<_> =
            (0..32).map(|qi| server.submit(ds.queries.get(qi).to_vec()).expect("submit")).collect();
        for (_, rx) in pending {
            rx.recv().expect("reply");
        }
        // A read per round, as a scraper makes: it windows the ring and
        // frees what it rendered.
        assert_eq!(server.runtime_stats().completed, 32 * (round + 1));
    }
    let held = LIVE.load(Ordering::SeqCst).saturating_sub(before);
    server.shutdown();
    eprintln!("the serving runtime holds {held} B beyond its engine");
    assert!(
        held < RUNTIME_HEAP_BOUND,
        "the serving runtime holds {held} B beyond its engine, over the {RUNTIME_HEAP_BOUND} B \
         bound"
    );
}
