//! Pins that loading an index stages nothing: while
//! [`AlgasIndex::load`] runs, the live heap never exceeds what the
//! loaded index holds afterwards by more than the reader's buffer and a
//! row of scratch. A loader that reads a section into a blob, or decodes
//! it into an intermediate `Vec` before the final store, holds the
//! corpus two or three times at its peak and fails here.
//!
//! A file whose header lies about a section's size loads nothing
//! either: it is refused having reserved no more than the reader's
//! buffer.
//!
//! A counting `#[global_allocator]` tracks live and peak bytes, and the
//! tests take one lock so neither moves the other's counters
//! (integration tests get their own binary, and the allocator is
//! per-binary). It refuses any request past 1 GiB, which aborts the
//! test binary: these indexes are a few MB, so such a request can only
//! be a reservation sized by a lying header, and refusing it keeps the
//! failure from paging in that much memory.

use algas::core::engine::AlgasIndex;
use algas::graph::{EntryParams, FixedDegreeGraph, GraphKind};
use algas::vector::datasets::DatasetSpec;
use algas::vector::Metric;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static SERIAL: Mutex<()> = Mutex::new(());

/// The largest single request the allocator grants.
const MAX_REQUEST: usize = 1 << 30;

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(now, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > MAX_REQUEST {
            return std::ptr::null_mut();
        }
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > MAX_REQUEST {
            return std::ptr::null_mut();
        }
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::SeqCst);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// Room for the loader's `BufReader` (8 KiB) and its per-row buffers.
const SLACK: usize = 64 * 1024;

/// Loads `path`, returning the result with the peak and the held heap
/// bytes of the load.
fn measured_load(path: &std::path::Path) -> (std::io::Result<AlgasIndex>, usize, usize) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let loaded = AlgasIndex::load(path);
    let peak = PEAK.load(Ordering::SeqCst) - before;
    let held = LIVE.load(Ordering::SeqCst) - before;
    (loaded, peak, held)
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("algas-load-peak-{}-{name}.alix", std::process::id()))
}

#[test]
fn loading_an_index_peaks_at_the_loaded_index() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The loader reads whatever graph the file holds, so a circulant
    // one of the serving degree stands in for a build (which takes
    // tens of seconds in a debug test at this size).
    let (n, degree) = (3000, 32);
    let ds = DatasetSpec::tiny(n, 48, Metric::L2, 43).generate();
    let mut graph = FixedDegreeGraph::new(n, degree);
    for v in 0..n as u32 {
        let row: Vec<u32> = (1..=degree as u32).map(|d| (v + d) % n as u32).collect();
        graph.set_row(v, &row);
    }
    let mut index = AlgasIndex::from_parts(ds.base, graph, Metric::L2, GraphKind::Cagra).unwrap();
    // fp32, then SQ8 codes and the entry table (`build --quantize true
    // --entry true`).
    for sq8 in [false, true] {
        if sq8 {
            index.quantize();
            index.build_entry_index(&EntryParams::default());
        }
        let path = temp_path(&sq8.to_string());
        index.save(&path).unwrap();
        let (loaded, peak, held) = measured_load(&path);
        let _ = std::fs::remove_file(&path);
        let loaded = loaded.unwrap();

        assert_eq!((&loaded.base, &loaded.graph), (&index.base, &index.graph));
        assert_eq!((&loaded.quant, &loaded.entry), (&index.quant, &index.entry));
        let payload = loaded.base.nbytes_padded()
            + loaded.graph.nbytes()
            + loaded.quant.as_ref().map_or(0, |q| q.nbytes_padded());
        assert!(held >= payload, "the loaded index holds {held} B, its payload is {payload} B");
        assert!(
            peak <= held + SLACK,
            "sq8 = {sq8}: loading peaked at {peak} B of heap for an index that holds {held} B \
             (corpus {} B): a section was staged",
            loaded.base.nbytes()
        );
    }
}

/// A v4 index file: the header (l2, CAGRA, medoid 0) with `store_len`
/// as its corpus length, then a corpus section and a graph section.
fn v4_file(store: &[u8], store_len: u64, graph: &[u8]) -> Vec<u8> {
    let mut file = 0x414C_4958u32.to_le_bytes().to_vec(); // "ALIX"
    file.extend_from_slice(&4u32.to_le_bytes());
    file.extend_from_slice(&[0, 1, 0, 0, 0, 0]);
    for len in [store_len, graph.len() as u64, 0, 0, 0] {
        file.extend_from_slice(&len.to_le_bytes());
    }
    [file, store.to_vec(), graph.to_vec()].concat()
}

/// A section header alone: `magic`, then `n` rows of `width` words.
fn section_header(magic: u32, n: u64, width: u32) -> Vec<u8> {
    [&magic.to_le_bytes()[..], &n.to_le_bytes(), &width.to_le_bytes()].concat()
}

#[test]
fn a_lying_header_is_refused_before_it_is_reserved() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (store_magic, graph_magic) = (0x414C_5653, 0x414C_4752); // "ALVS", "ALGR"
    let row = [section_header(store_magic, 1, 8), vec![0; 32]].concat();
    let edgeless = [section_header(graph_magic, 1, 6), vec![0xFF; 24]].concat();
    let files = [
        // The header claims a 1 TiB corpus.
        ("tib-corpus", v4_file(&row, 1 << 40, &edgeless)),
        // The corpus section claims 2^35 rows, and the header agrees.
        ("huge-n", v4_file(&section_header(store_magic, 1 << 35, 8), 16 + (1 << 40), &edgeless)),
        // No rows of 2^32 - 1 words: the payload checks pass (0 = 0).
        ("wide-store", v4_file(&section_header(store_magic, 0, u32::MAX), 16, &edgeless)),
        ("wide-graph", v4_file(&row, row.len() as u64, &section_header(graph_magic, 0, u32::MAX))),
    ];
    for (name, file) in files {
        let path = temp_path(name);
        std::fs::write(&path, &file).unwrap();
        let (loaded, peak, _) = measured_load(&path);
        let _ = std::fs::remove_file(&path);
        let err = loaded.err().unwrap_or_else(|| panic!("{name}: a lying file loaded"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}: {err}");
        assert!(peak <= SLACK, "{name}: refusing a {} B file peaked at {peak} B", file.len());
    }
}
