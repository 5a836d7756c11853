//! Host-side TopK merging — the CPU half of the GPU-CPU cooperation
//! (§IV-B step ④).
//!
//! The CTAs' per-query TopK lists arrive sorted and (thanks to the
//! shared visited bitmap) essentially disjoint; the host folds them
//! with a k-way priority-queue merge, deduplicates defensively, and
//! filters to the final TopK. The simulators price it with
//! `algas_gpu_sim::cost::HostCostModel`.

use algas_vector::metric::DistValue;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// K-way merges sorted `(distance, id)` lists into the global TopK.
///
/// Input lists must be ascending (as [`crate::lists::CandidateList`]
/// emits them); duplicates across lists are dropped. The output is the
/// ascending TopK — the "Result Merge&Filter" of §IV-B.
pub fn merge_topk(lists: &[Vec<(DistValue, u32)>], k: usize) -> Vec<(DistValue, u32)> {
    debug_assert!(lists.iter().all(|l| l.windows(2).all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1))));
    // Heap of (next value, list index, position) — classic k-way merge.
    type HeapEntry = Reverse<((DistValue, u32), usize, usize)>;
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
    for (li, list) in lists.iter().enumerate() {
        if let Some(&(d, id)) = list.first() {
            heap.push(Reverse(((d, id), li, 0)));
        }
    }
    let mut out: Vec<(DistValue, u32)> = Vec::with_capacity(k);
    let mut seen = std::collections::HashSet::with_capacity(k * 2);
    while out.len() < k {
        let Some(Reverse(((d, id), li, pos))) = heap.pop() else {
            break;
        };
        if seen.insert(id) {
            out.push((d, id));
        }
        if let Some(&(nd, nid)) = lists[li].get(pos + 1) {
            heap.push(Reverse(((nd, nid), li, pos + 1)));
        }
    }
    out
}

/// Plain (non-atomic) merge counters, accumulated across every
/// [`merge_topk_into`] call on one scratch. The owning worker thread
/// reads deltas and publishes them to the serving snapshot
/// ([`crate::obs::RuntimeStats`]); keeping the fields plain `u64`s
/// keeps the merge loop free of atomics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Merge invocations.
    pub merges: u64,
    /// Elements consumed from the source lists.
    pub elements: u64,
    /// Cross-CTA duplicates dropped.
    pub dupes_dropped: u64,
}

impl MergeStats {
    /// The delta accumulated since `earlier` (same scratch, earlier
    /// point in time).
    pub fn since(&self, earlier: &MergeStats) -> MergeStats {
        MergeStats {
            merges: self.merges - earlier.merges,
            elements: self.elements - earlier.elements,
            dupes_dropped: self.dupes_dropped - earlier.dupes_dropped,
        }
    }

    /// Folds another stats block in.
    pub fn merge(&mut self, other: &MergeStats) {
        self.merges += other.merges;
        self.elements += other.elements;
        self.dupes_dropped += other.dupes_dropped;
    }
}

/// Reusable state for [`merge_topk_into`]: one cursor per source list,
/// plus running [`MergeStats`].
#[derive(Debug, Default)]
pub struct MergeScratch {
    pos: Vec<usize>,
    /// Counters accumulated over every merge run on this scratch.
    pub stats: MergeStats,
}

impl MergeScratch {
    /// An empty scratch; sized on first use, then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Allocation-free [`merge_topk`]: clears `out` and fills it with the
/// ascending deduplicated TopK, reusing `scratch` and `out` capacity.
///
/// The lists are small (one length-`k` list per CTA) and `k` is small,
/// so instead of a binary heap this scans the list heads linearly per
/// emitted element and deduplicates against the (≤ `k`-long) output —
/// `O(k · n_lists + k²)` with zero heap traffic, and the exact output
/// sequence of [`merge_topk`] (ties resolve to the lowest list index in
/// both).
pub fn merge_topk_into(
    lists: &[Vec<(DistValue, u32)>],
    k: usize,
    scratch: &mut MergeScratch,
    out: &mut Vec<(DistValue, u32)>,
) {
    debug_assert!(lists.iter().all(|l| l.windows(2).all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1))));
    out.clear();
    scratch.pos.clear();
    scratch.pos.resize(lists.len(), 0);
    scratch.stats.merges += 1;
    while out.len() < k {
        let mut best: Option<((DistValue, u32), usize)> = None;
        for (li, list) in lists.iter().enumerate() {
            if let Some(&(d, id)) = list.get(scratch.pos[li]) {
                if best.is_none_or(|(b, _)| (d, id) < b) {
                    best = Some(((d, id), li));
                }
            }
        }
        let Some(((d, id), li)) = best else {
            break;
        };
        scratch.pos[li] += 1;
        scratch.stats.elements += 1;
        // Any duplicate's first occurrence is already in `out` (the
        // merge emits in ascending order), so scanning it replaces the
        // hash set of the allocating variant.
        if out.iter().any(|&(_, seen)| seen == id) {
            scratch.stats.dupes_dropped += 1;
        } else {
            out.push((d, id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(x: f32) -> DistValue {
        DistValue(x)
    }

    #[test]
    fn merges_sorted_lists() {
        let lists =
            vec![vec![(d(1.0), 1), (d(4.0), 4)], vec![(d(2.0), 2), (d(3.0), 3)], vec![(d(0.5), 5)]];
        let out = merge_topk(&lists, 4);
        assert_eq!(out, vec![(d(0.5), 5), (d(1.0), 1), (d(2.0), 2), (d(3.0), 3)]);
    }

    #[test]
    fn equivalent_to_flat_sort() {
        // The correctness criterion: CPU merge ≡ sorting everything.
        let lists = vec![
            vec![(d(3.0), 3), (d(9.0), 9)],
            vec![(d(1.0), 1), (d(7.0), 7), (d(8.0), 8)],
            vec![],
            vec![(d(2.0), 2)],
        ];
        let mut flat: Vec<(DistValue, u32)> = lists.iter().flatten().copied().collect();
        flat.sort_by_key(|&(dist, id)| (dist, id));
        flat.truncate(4);
        assert_eq!(merge_topk(&lists, 4), flat);
    }

    #[test]
    fn deduplicates_across_lists() {
        let lists = vec![vec![(d(1.0), 7)], vec![(d(1.0), 7), (d(2.0), 8)]];
        let out = merge_topk(&lists, 3);
        assert_eq!(out, vec![(d(1.0), 7), (d(2.0), 8)]);
    }

    #[test]
    fn short_supply_returns_what_exists() {
        let lists = vec![vec![(d(1.0), 1)]];
        assert_eq!(merge_topk(&lists, 10).len(), 1);
        assert!(merge_topk(&[], 5).is_empty());
    }

    #[test]
    fn ties_break_by_id() {
        let lists = vec![vec![(d(1.0), 9)], vec![(d(1.0), 2)]];
        let out = merge_topk(&lists, 2);
        assert_eq!(out[0].1, 2);
        assert_eq!(out[1].1, 9);
    }

    #[test]
    fn merge_into_matches_allocating_variant() {
        let cases: Vec<Vec<Vec<(DistValue, u32)>>> = vec![
            vec![vec![(d(1.0), 1), (d(4.0), 4)], vec![(d(2.0), 2), (d(3.0), 3)], vec![(d(0.5), 5)]],
            vec![vec![(d(1.0), 7)], vec![(d(1.0), 7), (d(2.0), 8)]],
            vec![vec![(d(1.0), 9)], vec![(d(1.0), 2)]],
            vec![vec![], vec![(d(1.0), 1)], vec![]],
            vec![],
        ];
        let mut scratch = MergeScratch::new();
        let mut out = Vec::new();
        for lists in &cases {
            for k in [1usize, 2, 4, 16] {
                merge_topk_into(lists, k, &mut scratch, &mut out);
                assert_eq!(out, merge_topk(lists, k), "k={k}, lists={lists:?}");
            }
        }
    }

    #[test]
    fn merge_stats_count_elements_and_dupes() {
        let lists = vec![vec![(d(1.0), 7)], vec![(d(1.0), 7), (d(2.0), 8)]];
        let mut scratch = MergeScratch::new();
        let mut out = Vec::new();
        let before = scratch.stats;
        merge_topk_into(&lists, 3, &mut scratch, &mut out);
        let delta = scratch.stats.since(&before);
        assert_eq!(delta, MergeStats { merges: 1, elements: 3, dupes_dropped: 1 });
        // Stats accumulate across calls on the same scratch.
        merge_topk_into(&lists, 3, &mut scratch, &mut out);
        assert_eq!(scratch.stats.merges, 2);
        assert_eq!(scratch.stats.elements, 6);
        let mut folded = MergeStats::default();
        folded.merge(&delta);
        folded.merge(&delta);
        assert_eq!(folded, scratch.stats);
    }
}
