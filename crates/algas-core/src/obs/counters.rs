//! Lock-free counters and the cache-line padding that keeps per-thread
//! counters from false-sharing.
//!
//! Every serving thread owns its own [`CachePadded`] block of
//! [`Counter`]s (one block per worker, per host poller), so a
//! relaxed `fetch_add` on the hot path never bounces a cache line
//! between cores. Aggregation across blocks happens only at snapshot
//! time.

use std::sync::atomic::{AtomicU64, Ordering};

/// Pads and aligns `T` to a 64-byte cache line so adjacent per-thread
/// counter blocks never share a line (the `crossbeam` `CachePadded`
/// idiom).
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// A monotone event counter: relaxed atomic adds, read at snapshot
/// time. Single-writer in practice (each thread owns its block), but
/// safe under any interleaving.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` (relaxed; never on the reader's critical path).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_aligns_to_cache_line() {
        assert_eq!(std::mem::align_of::<CachePadded<Counter>>(), 64);
        assert!(std::mem::size_of::<CachePadded<[Counter; 3]>>().is_multiple_of(64));
    }

    #[test]
    fn counter_counts() {
        let c = Counter::default();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn concurrent_adds_are_exact() {
        let c = Counter::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 400_000);
    }
}
