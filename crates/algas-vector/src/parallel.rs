//! The deterministic parallel map under every multi-threaded build
//! step (graph construction, exact ground truth, k-means assignment).
//!
//! The expensive per-item work is a *pure function of a read-only
//! snapshot*, the way CAGRA's GPU builder arranges it, so it can run on
//! any number of threads and still produce bit-identical output:
//!
//! * work is split into contiguous index chunks,
//! * each chunk's results are computed independently (threads pull
//!   chunks from a shared atomic counter, so scheduling is dynamic),
//! * results are reassembled **in chunk order**, erasing any trace of
//!   which thread ran what.
//!
//! Scoped `std` threads are spawned per call; no pool outlives it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default number of build threads: the `ALGAS_BUILD_THREADS`
/// environment variable when set (≥ 1), otherwise the machine's
/// available parallelism.
///
/// # Panics
/// Panics (via [`crate::env::parse_var`]) if the variable is set
/// to something that does not parse as an unsigned integer.
pub fn max_threads() -> usize {
    if let Some(n) = crate::env::parse_var::<usize>("ALGAS_BUILD_THREADS") {
        return n.max(1);
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// `f` must be a pure function of its index (plus captured read-only
/// state): the output is then identical for every `threads` value,
/// including 1. Chunks of `chunk_size` indices are pulled dynamically
/// by the worker threads, and the per-chunk outputs are stitched back
/// together in chunk order.
///
/// # Panics
/// Panics if `chunk_size == 0`, or propagates a worker panic.
pub fn par_map<T, F>(n: usize, chunk_size: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(chunk_size > 0, "chunk size must be positive");
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1);
    if threads == 1 || n <= chunk_size {
        return (0..n).map(f).collect();
    }

    let n_chunks = n.div_ceil(chunk_size);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Vec<T>>>> = Mutex::new((0..n_chunks).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..threads.min(n_chunks) {
            scope.spawn(|| loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= n_chunks {
                    return;
                }
                let lo = c * chunk_size;
                let hi = (lo + chunk_size).min(n);
                // Compute outside the lock; store under it. The lock is
                // taken once per chunk, so contention is negligible.
                let out: Vec<T> = (lo..hi).map(&f).collect();
                let mut slots = slots.lock().expect("no poisoned chunk slots");
                debug_assert!(slots[c].is_none(), "chunk {c} computed twice");
                slots[c] = Some(out);
            });
        }
    });

    let mut slots = slots.into_inner().expect("no poisoned chunk slots");
    let mut result = Vec::with_capacity(n);
    for slot in slots.iter_mut() {
        result.append(slot.as_mut().expect("every chunk computed"));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_for_any_thread_count() {
        let expect: Vec<u64> = (0..1000).map(|i| (i as u64) * 3 + 1).collect();
        for threads in [1, 2, 3, 8] {
            for chunk in [1, 7, 64, 2000] {
                let got = par_map(1000, chunk, threads, |i| (i as u64) * 3 + 1);
                assert_eq!(got, expect, "threads={threads} chunk={chunk}");
            }
        }
    }

    #[test]
    fn par_map_empty_and_tiny() {
        assert!(par_map(0, 8, 4, |i| i).is_empty());
        assert_eq!(par_map(1, 8, 4, |i| i), vec![0]);
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}
