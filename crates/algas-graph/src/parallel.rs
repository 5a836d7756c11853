//! Deterministic parallel-build primitives.
//!
//! Graph construction in this crate parallelizes the way CAGRA's GPU
//! builder does: the expensive per-vertex work (construction-time
//! searches, detour counting, k-NN rows) is a *pure function of a
//! read-only snapshot*, mapped over the vertices by
//! [`par_map`] (defined in [`algas_vector::parallel`], re-exported
//! here), which returns results in index order whatever the thread
//! count.
//!
//! The graph that comes out therefore depends only on the input and the
//! chunk *schedule* — never on the thread count or OS scheduling — which
//! is what lets the builders promise "deterministic under a fixed seed"
//! while still scaling across cores. [`BatchSchedule`] is the schedule
//! for the builder that inserts incrementally (NSW; HNSW builds
//! serially).

pub use algas_vector::parallel::{max_threads, par_map};

/// The batch schedule for snapshot-batched graph insertion (NSW).
///
/// Vertices `0..seed` are inserted one at a time (the young graph is too
/// sparse for stale snapshots); afterwards batch `b` covers the next
/// `min(max(min_batch, inserted / growth_div), remaining)` vertices.
/// The schedule is a pure function of `n` — never of the thread count —
/// so the built graph is identical on every machine.
#[derive(Clone, Copy, Debug)]
pub struct BatchSchedule {
    /// Vertices inserted serially before batching starts.
    pub seed: usize,
    /// Minimum batch size once batching starts.
    pub min_batch: usize,
    /// Batch size grows as `inserted / growth_div`.
    pub growth_div: usize,
}

impl Default for BatchSchedule {
    fn default() -> Self {
        Self { seed: 128, min_batch: 64, growth_div: 8 }
    }
}

impl BatchSchedule {
    /// Yields the `(start, end)` vertex ranges of every batch for a
    /// corpus of `n` vertices (vertex 0 is the entry and is never
    /// inserted; ranges start at 1).
    pub fn batches(&self, n: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut done = 1usize; // vertex 0 pre-exists
        while done < n {
            let size = if done < self.seed {
                1
            } else {
                (done / self.growth_div).max(self.min_batch).min(n - done)
            };
            out.push((done, done + size));
            done += size;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_schedule_covers_everything_once() {
        let s = BatchSchedule::default();
        for n in [1usize, 2, 5, 129, 1000, 12345] {
            let batches = s.batches(n);
            let mut expect = 1usize;
            for &(lo, hi) in &batches {
                assert_eq!(lo, expect, "n={n}");
                assert!(hi > lo && hi <= n, "n={n}");
                expect = hi;
            }
            assert_eq!(expect, n.max(1), "n={n}");
        }
    }

    #[test]
    fn batch_schedule_grows_after_seed() {
        let s = BatchSchedule::default();
        let batches = s.batches(10_000);
        // Serial prefix.
        assert!(batches.iter().take_while(|&&(_, hi)| hi <= s.seed).all(|&(lo, hi)| hi - lo == 1));
        // Late batches are large.
        let last = batches.last().unwrap();
        assert!(last.1 - last.0 >= s.min_batch);
    }
}
