//! Pins the wire codec's steady-state zero-allocation invariant: once
//! the encode buffer and the decode target vectors have grown to a
//! workload's high-water mark, encoding and decoding SEARCH / RESULT /
//! RETRY_AFTER frames must not touch the heap — `decode_frame` borrows
//! its payload from the input, and every `*_into` decoder reuses its
//! caller's buffers.
//!
//! A counting `#[global_allocator]` wraps the system allocator. It
//! counts only the allocations of a thread that armed it: the codec runs
//! on the test's own thread, while the harness's other threads (its
//! output capture, its timers) allocate whenever they like and must not
//! count. This file also holds exactly one test (each integration-test
//! file is its own binary, and the allocator is per-binary).

use algas::core::net::frame::{self, Decoded};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. A `const` cell
    /// needs no lazy initialization, so reading it never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocation if the calling thread armed the counter.
fn count() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

/// The allocations `f` makes on the calling thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    ARMED.with(|armed| armed.set(true));
    f();
    ARMED.with(|armed| armed.set(false));
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const DIM: usize = 64;
const K: usize = 10;
const ROUNDS: usize = 256;

/// The reused buffers a steady-state codec peer owns: one wire buffer
/// on the encode side, one target per decoded payload field.
#[derive(Default)]
struct Scratch {
    wire: Vec<u8>,
    q_out: Vec<f32>,
    ids_out: Vec<u32>,
    dist_out: Vec<f32>,
}

/// One full request/response codec round on reused buffers; returns a
/// checksum so nothing is optimized away.
fn codec_round(i: usize, query: &[f32], ids: &[u32], distances: &[f32], s: &mut Scratch) -> u64 {
    let id = i as u64;
    let mut checksum = 0u64;

    // SEARCH request: encode into the reused wire buffer, decode the
    // frame (borrowing), decode the payload into the reused query vec.
    s.wire.clear();
    frame::encode_search(&mut s.wire, id, query);
    match frame::decode_frame(&s.wire, frame::DEFAULT_MAX_PAYLOAD) {
        Ok(Decoded::Frame { header, payload, consumed }) => {
            assert_eq!(header.request_id, id);
            assert_eq!(consumed, s.wire.len());
            frame::decode_search_into(payload, &mut s.q_out).expect("search payload");
            checksum += s.q_out.len() as u64;
        }
        other => panic!("expected a frame, got {other:?}"),
    }

    // RESULT response, same pattern.
    s.wire.clear();
    frame::encode_result(&mut s.wire, id, ids, distances);
    match frame::decode_frame(&s.wire, frame::DEFAULT_MAX_PAYLOAD) {
        Ok(Decoded::Frame { payload, .. }) => {
            frame::decode_result_into(payload, &mut s.ids_out, &mut s.dist_out)
                .expect("result payload");
            checksum += s.ids_out.len() as u64;
        }
        other => panic!("expected a frame, got {other:?}"),
    }

    // RETRY_AFTER, the backpressure path: fixed-size payload.
    s.wire.clear();
    frame::encode_retry_after(&mut s.wire, id, 1234);
    match frame::decode_frame(&s.wire, frame::DEFAULT_MAX_PAYLOAD) {
        Ok(Decoded::Frame { payload, .. }) => {
            checksum += u64::from(frame::decode_retry_after(payload).expect("delay"));
        }
        other => panic!("expected a frame, got {other:?}"),
    }

    // SEARCH with a client-send timestamp (FLAG_CLIENT_TS): the tail
    // split borrows from the payload — the tracing extension must stay
    // as allocation-free as the plain request.
    s.wire.clear();
    frame::encode_search_ts(&mut s.wire, id, query, 77);
    match frame::decode_frame(&s.wire, frame::DEFAULT_MAX_PAYLOAD) {
        Ok(Decoded::Frame { header, payload, .. }) => {
            assert!(header.has_client_ts());
            let (vec_bytes, ts) = frame::split_search_ts(payload).expect("flagged payload");
            frame::decode_search_into(vec_bytes, &mut s.q_out).expect("search payload");
            checksum += s.q_out.len() as u64 + ts;
        }
        other => panic!("expected a frame, got {other:?}"),
    }

    // A split read: the partial-frame (NeedMore) path must not
    // allocate either — resumability is free.
    s.wire.clear();
    frame::encode_search(&mut s.wire, id, query);
    let cut = frame::HEADER_LEN + 3;
    assert!(matches!(
        frame::decode_frame(&s.wire[..cut], frame::DEFAULT_MAX_PAYLOAD),
        Ok(Decoded::NeedMore)
    ));
    checksum
}

#[test]
fn steady_state_codec_allocates_nothing_after_warmup() {
    let query: Vec<f32> = (0..DIM).map(|i| i as f32 * 0.5).collect();
    let ids: Vec<u32> = (0..K as u32).collect();
    let distances: Vec<f32> = (0..K).map(|i| i as f32).collect();

    let mut scratch = Scratch::default();

    // Warmup: grows every reused buffer to its high-water mark.
    let mut checksum = 0u64;
    for i in 0..4 {
        checksum += codec_round(i, &query, &ids, &distances, &mut scratch);
    }

    // Measured pass: many rounds, zero heap traffic.
    let allocs = allocations_of(|| {
        for i in 0..ROUNDS {
            checksum += codec_round(i, &query, &ids, &distances, &mut scratch);
        }
    });

    assert_eq!(checksum, ((ROUNDS + 4) as u64) * (2 * DIM + K + 1234 + 77) as u64);
    assert_eq!(allocs, 0, "steady-state frame encode/decode allocated {allocs} times after warmup");
}
