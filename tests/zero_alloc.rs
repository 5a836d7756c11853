//! Pins the zero-allocation serving invariant: after one warmup pass
//! over a query set, repeating the identical pass through
//! [`AlgasEngine::search_into`] — and through
//! [`AlgasEngine::serve_into`], the entry point a worker thread runs —
//! with a reused [`SearchScratch`] must perform **zero** heap
//! allocations.
//!
//! A counting `#[global_allocator]` wraps the system allocator; this
//! file holds exactly one test so no concurrent test can perturb the
//! counter (integration tests get their own binary, and the allocator
//! is per-binary).

use algas::core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
use algas::graph::cagra::CagraParams;
use algas::graph::{EntryParams, EntryPolicy};
use algas::vector::datasets::DatasetSpec;
use algas::vector::Metric;
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

#[test]
fn hot_path_allocates_nothing_after_warmup() {
    let ds = DatasetSpec::tiny(600, 16, Metric::L2, 77).generate();
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let cfg = EngineConfig { k: 10, l: 64, ..Default::default() };
    let engine = AlgasEngine::new(index, cfg).unwrap();

    let n_queries = ds.queries.len().min(32);
    let mut scratch = engine.make_scratch();
    let mut checksum = 0u64;

    // Warmup: grows every buffer in the scratch (and the thread-local
    // padded-query staging) to this workload's high-water mark.
    for q in 0..n_queries {
        engine.search_into(ds.queries.get(q), q as u64, &mut scratch);
        checksum += scratch.topk.len() as u64;
    }

    // Measured pass: the identical workload must not touch the heap.
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for q in 0..n_queries {
        engine.search_into(ds.queries.get(q), q as u64, &mut scratch);
        checksum += scratch.topk.len() as u64;
    }
    let after = ALLOC_CALLS.load(Ordering::Relaxed);

    assert_eq!(checksum, 2 * (n_queries as u64) * 10, "searches returned short TopK");
    assert_eq!(
        after - before,
        0,
        "serving hot path allocated {} times after warmup",
        after - before
    );

    // Same invariant on a relayouted index: the id-map translation
    // (physical → original ids) runs inside `search_into` on every
    // query and must be allocation-free too.
    let mut relayouted =
        AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    relayouted.relayout();
    assert!(relayouted.id_map.is_some(), "relayout must record the id map");
    let engine = AlgasEngine::new(relayouted, cfg).unwrap();
    let mut scratch = engine.make_scratch();
    for q in 0..n_queries {
        engine.search_into(ds.queries.get(q), q as u64, &mut scratch);
        checksum += scratch.topk.len() as u64;
    }
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for q in 0..n_queries {
        engine.search_into(ds.queries.get(q), q as u64, &mut scratch);
        checksum += scratch.topk.len() as u64;
    }
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    assert_eq!(checksum, 4 * (n_queries as u64) * 10, "searches returned short TopK");
    assert_eq!(
        after - before,
        0,
        "relayouted hot path allocated {} times after warmup",
        after - before
    );

    // Same invariant on a quantized engine: SQ8 query encoding, the
    // integer-dot traversal, the deeper candidate pooling, and the
    // exact fp32 rerank all run inside `search_into` per query and
    // must reuse their scratch buffers too.
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let qcfg = EngineConfig { quantize: true, rerank_depth: Some(24), ..cfg };
    let engine = AlgasEngine::new(index, qcfg).unwrap();
    assert!(engine.quantized(), "engine must be on the SQ8 path");
    let mut scratch = engine.make_scratch();
    for q in 0..n_queries {
        engine.search_into(ds.queries.get(q), q as u64, &mut scratch);
        checksum += scratch.topk.len() as u64;
    }
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for q in 0..n_queries {
        engine.search_into(ds.queries.get(q), q as u64, &mut scratch);
        checksum += scratch.topk.len() as u64;
    }
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    assert_eq!(checksum, 6 * (n_queries as u64) * 10, "searches returned short TopK");
    assert_eq!(scratch.rerank.reranks, 2 * n_queries as u64, "every search must rerank");
    assert_eq!(
        after - before,
        0,
        "quantized hot path (traversal + rerank) allocated {} times after warmup",
        after - before
    );

    // Same invariant with the full serving loop armed: LSH hash-table
    // entry lookup (per-query signature + bucket probe) inside
    // `search_into`, plus the SLO controller's `observe` feedback —
    // ring write, cadence check, and the tick's window-p99 sort all
    // run on the hot path and must stay heap-free. The controller is
    // saturated to the cheapest rung first so the measured pass runs
    // at a fixed effort step (a mid-pass rung change may legitimately
    // regrow scratch buffers).
    let mut index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    index.build_entry_index(&EntryParams::default());
    let ecfg = EngineConfig {
        quantize: true,
        rerank_depth: Some(24),
        entry_policy: EntryPolicy::HashTable,
        slo_us: Some(1),
        ..cfg
    };
    let engine = AlgasEngine::new(index, ecfg).unwrap();
    assert!(engine.controller().enabled(), "controller must be armed");
    let mut scratch = engine.make_scratch();
    for q in 0..n_queries {
        engine.search_into(ds.queries.get(q), q as u64, &mut scratch);
        checksum += scratch.topk.len() as u64;
    }
    // Saturate: a 1 µs SLO is unreachable, so every tick sheds until
    // the level pins at the ladder's end.
    let max = engine.controller().ladder().max_level();
    while engine.controller().level() < max {
        engine.controller().observe(1_000_000);
    }
    // Second warmup at the saturated rung's shape.
    for q in 0..n_queries {
        engine.search_into(ds.queries.get(q), q as u64, &mut scratch);
        checksum += scratch.topk.len() as u64;
    }
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for q in 0..n_queries {
        engine.search_into(ds.queries.get(q), q as u64, &mut scratch);
        engine.controller().observe(1_000_000);
        checksum += scratch.topk.len() as u64;
    }
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    assert_eq!(checksum, 9 * (n_queries as u64) * 10, "searches returned short TopK");
    assert_eq!(engine.controller().level(), max, "saturated level must stay pinned");
    assert_eq!(
        after - before,
        0,
        "entry lookup + controller tick hot path allocated {} times after warmup",
        after - before
    );

    // The entry point a worker thread calls: the serial schedule keeps
    // its launched-seed list and its running TopK bound in the scratch
    // and resolves seeds one walker at a time — on the default engine,
    // then on SQ8 codes with the exact rerank.
    for cfg in [cfg, qcfg] {
        let path = if cfg.quantize { "quantized + rerank" } else { "fp32" };
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        let engine = AlgasEngine::new(index, cfg).unwrap();
        let mut scratch = engine.make_scratch();
        for measured in [false, true] {
            let before = ALLOC_CALLS.load(Ordering::Relaxed);
            for q in 0..n_queries {
                engine.serve_into(ds.queries.get(q), q as u64, &mut scratch);
                assert_eq!(scratch.topk.len(), 10, "{path}: short TopK");
            }
            let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - before;
            assert!(!measured || allocs == 0, "{path} serving path allocated {allocs} times");
        }
    }
}
