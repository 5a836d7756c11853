//! The CTA-local data structures: candidate list, expand list, and the
//! visited bitmap.
//!
//! These mirror the shared-memory structures of §IV-B: a bounded sorted
//! candidate list of capacity `L`, an expand list that buffers the
//! neighbors of the step's selected candidate(s), and a bitmap that
//! records which corpus points already had their distance computed.
//! The functional behaviour here is exact; the *cost* of maintaining
//! them (bitonic stages etc.) is charged by the searcher through
//! `algas_gpu_sim::CostModel`.

use algas_vector::metric::DistValue;

/// One candidate-list entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate {
    /// Distance to the query.
    pub dist: DistValue,
    /// Corpus id.
    pub id: u32,
    /// Whether this entry was already selected and neighbor-expanded.
    pub expanded: bool,
}

/// A bounded, ascending-sorted candidate list of capacity `L`.
#[derive(Clone, Debug)]
pub struct CandidateList {
    items: Vec<Candidate>,
    cap: usize,
    /// Scratch for [`CandidateList::merge_batch`]: the step's admitted
    /// newcomers, sorted, before they are merged into `items`.
    staged: Vec<Candidate>,
}

impl CandidateList {
    /// Creates an empty list with capacity `l`.
    ///
    /// # Panics
    /// Panics if `l == 0`.
    pub fn new(l: usize) -> Self {
        assert!(l > 0, "candidate list capacity must be positive");
        Self { items: Vec::with_capacity(l + 1), cap: l, staged: Vec::new() }
    }

    /// Capacity `L`.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current entries, ascending by distance.
    pub fn items(&self) -> &[Candidate] {
        &self.items
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Offset of the closest not-yet-expanded entry (§IV-B step ①).
    pub fn closest_unexpanded(&self) -> Option<usize> {
        self.items.iter().position(|c| !c.expanded)
    }

    /// Offsets of up to `width` closest not-yet-expanded entries — the
    /// beam-extend selection (multiple candidates per maintenance
    /// round, §IV-B "Beam Extend in Intra-CTA").
    pub fn closest_unexpanded_beam(&self, width: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.closest_unexpanded_beam_into(width, &mut out);
        out
    }

    /// Allocation-free variant of
    /// [`closest_unexpanded_beam`](Self::closest_unexpanded_beam):
    /// clears `out` and fills it with the selected offsets, reusing its
    /// capacity. This is what the per-slot search scratch calls.
    pub fn closest_unexpanded_beam_into(&self, width: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            self.items.iter().enumerate().filter(|(_, c)| !c.expanded).map(|(i, _)| i).take(width),
        );
    }

    /// Empties the list and resets its capacity to `l`, retaining the
    /// backing allocation (slot reuse between queries).
    ///
    /// # Panics
    /// Panics if `l == 0`.
    pub fn reset(&mut self, l: usize) {
        assert!(l > 0, "candidate list capacity must be positive");
        self.items.clear();
        self.cap = l;
    }

    /// Marks the entry at `offset` as expanded and returns its id.
    ///
    /// # Panics
    /// Panics if `offset` is out of bounds or already expanded.
    pub fn mark_expanded(&mut self, offset: usize) -> u32 {
        let c = &mut self.items[offset];
        assert!(!c.expanded, "candidate at offset {offset} already expanded");
        c.expanded = true;
        c.id
    }

    /// Merges a batch of scored newcomers into the list, keeping the
    /// best `L` (§IV-B step ④: sort expand list, merge, truncate).
    ///
    /// Newcomers must be distinct from existing entries — the visited
    /// bitmap guarantees a point is scored at most once per query — and
    /// enter unexpanded.
    ///
    /// The list is already sorted, so only the newcomers are: a full
    /// list first drops those that do not beat its tail (late in a
    /// search, most of them), the rest are sorted among themselves and
    /// merged in with one backward pass. `(dist, id)` keys make the
    /// order total, so the result is the unique ascending best-`L` of
    /// the union — the same sequence sorting the whole union gives.
    pub fn merge_batch(&mut self, newcomers: &[(DistValue, u32)]) {
        debug_assert!(
            newcomers.iter().all(|&(_, id)| self.items.iter().all(|c| c.id != id)),
            "bitmap must prevent duplicate candidates"
        );
        let key = |c: &Candidate| (c.dist, c.id);
        let bar = if self.items.len() == self.cap { self.items.last().map(key) } else { None };
        self.staged.clear();
        self.staged.extend(
            newcomers
                .iter()
                .filter(|&&newcomer| bar.is_none_or(|tail| newcomer < tail))
                .map(|&(dist, id)| Candidate { dist, id, expanded: false }),
        );
        // Unstable sort: allocates nothing, and with a total order
        // there is no tie for stability to decide.
        self.staged.sort_unstable_by_key(key);

        // Backward merge: grow by the staged count (the appended copies
        // are placeholders), then fill from the top with the larger of
        // the two runs' tails. Once the staged run is used up, what is
        // left of the old run is already in place.
        let (mut i, mut j) = (self.items.len(), self.staged.len());
        self.items.extend_from_slice(&self.staged);
        let mut k = i + j;
        while j > 0 {
            k -= 1;
            if i > 0 && key(&self.items[i - 1]) > key(&self.staged[j - 1]) {
                i -= 1;
                self.items[k] = self.items[i];
            } else {
                j -= 1;
                self.items[k] = self.staged[j];
            }
        }
        self.items.truncate(self.cap);
    }

    /// The best `k` ids currently held (ascending by distance).
    pub fn top_k(&self, k: usize) -> Vec<(DistValue, u32)> {
        self.items.iter().take(k).map(|c| (c.dist, c.id)).collect()
    }

    /// Sortedness invariant (exposed for property tests).
    pub fn is_sorted(&self) -> bool {
        self.items.windows(2).all(|w| (w[0].dist, w[0].id) <= (w[1].dist, w[1].id))
    }
}

/// A visited bitmap over corpus ids (§IV-B step ②'s filter).
///
/// In the intra-CTA case each query owns one; in multi-CTA all of a
/// query's CTAs share one, which both avoids redundant distance
/// computations and implicitly partitions the explored region.
///
/// Words are *generation-tagged*: each 64-bit word remembers the epoch
/// it was last written in, and [`clear`](Self::clear) just bumps the
/// current epoch. A word whose tag is stale reads as all-zeros and is
/// lazily reset on its next write, making clear O(1) instead of O(n/64)
/// — the slot-reuse operation the serving runtime performs per query.
/// The epoch tags are host bookkeeping, not part of the simulated GPU
/// shared-memory footprint, so [`nbytes`](Self::nbytes) counts the bit
/// words only (the GPU clears its bitmap with a memset, storing no tags).
#[derive(Clone, Debug)]
pub struct VisitedBitmap {
    words: Vec<u64>,
    /// Epoch each word was last written in; `!= epoch` means the word
    /// logically reads as zero.
    gens: Vec<u32>,
    epoch: u32,
    n: usize,
}

impl VisitedBitmap {
    /// A cleared bitmap over `n` ids.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Self { words: vec![0; words], gens: vec![0; words], epoch: 1, n }
    }

    /// Marks `id`; returns `true` when `id` was previously unmarked
    /// (i.e. the caller owns computing its distance).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[inline]
    pub fn test_and_set(&mut self, id: u32) -> bool {
        assert!((id as usize) < self.n, "id {id} out of bitmap range {}", self.n);
        let w = id as usize / 64;
        let bit = 1u64 << (id % 64);
        if self.gens[w] != self.epoch {
            self.gens[w] = self.epoch;
            self.words[w] = bit;
            return true;
        }
        let was = self.words[w] & bit != 0;
        self.words[w] |= bit;
        !was
    }

    /// Whether `id` is marked.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        let w = id as usize / 64;
        self.gens[w] == self.epoch && self.words[w] & (1u64 << (id % 64)) != 0
    }

    /// Number of marked ids.
    pub fn count(&self) -> usize {
        self.words
            .iter()
            .zip(&self.gens)
            .filter(|&(_, &g)| g == self.epoch)
            .map(|(w, _)| w.count_ones() as usize)
            .sum()
    }

    /// Bitmap capacity in ids.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether capacity is zero.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Clears all marks (slot reuse between queries) in O(1) by
    /// advancing the generation counter.
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            // Epoch exhausted (once per ~4 billion clears): pay one
            // full reset so stale tags can never alias a fresh epoch.
            self.words.fill(0);
            self.gens.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Bitmap footprint in bytes (for shared-memory sizing). Counts the
    /// bit words only; the host-side generation tags are excluded, see
    /// the type docs.
    pub fn nbytes(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn d(x: f32) -> DistValue {
        DistValue(x)
    }

    /// Few enough values that batches are full of distance ties, plus
    /// every non-finite kind `total_cmp` has to place.
    const DISTS: [f32; 10] = [
        0.0,
        -0.0,
        0.5,
        1.0,
        1.0000001,
        7.25,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
    ];

    proptest! {
        /// `merge_batch` against what it replaced — append, sort the
        /// whole union, truncate — over runs of batches that include
        /// empty ones and ones larger than the list, bit for bit
        /// (distances compared as bits so NaNs count) and with the
        /// expanded flags travelling along.
        #[test]
        fn prop_merge_batch_equals_sort_then_truncate(
            l in 1usize..24,
            batches in prop::collection::vec(
                prop::collection::vec((0usize..DISTS.len(), 0u32..1_000_000), 0..40),
                0..10,
            ),
        ) {
            // Distinct ids, in an order unrelated to arrival: rank the
            // entries of all batches by their random draw.
            let mut draws: Vec<(u32, usize)> = batches
                .iter()
                .flatten()
                .enumerate()
                .map(|(at, &(_, draw))| (draw, at))
                .collect();
            draws.sort_unstable();
            let mut id_of = vec![0u32; draws.len()];
            for (id, &(_, at)) in draws.iter().enumerate() {
                id_of[at] = id as u32;
            }

            let mut list = CandidateList::new(l);
            let mut reference: Vec<Candidate> = Vec::new();
            let mut at = 0;
            for batch in &batches {
                let scored: Vec<(DistValue, u32)> = batch
                    .iter()
                    .map(|&(dist, _)| {
                        at += 1;
                        (d(DISTS[dist]), id_of[at - 1])
                    })
                    .collect();
                list.merge_batch(&scored);
                reference.extend(
                    scored.iter().map(|&(dist, id)| Candidate { dist, id, expanded: false }),
                );
                reference.sort_unstable_by_key(|c| (c.dist, c.id));
                reference.truncate(l);

                let bits = |items: &[Candidate]| -> Vec<(u32, u32, bool)> {
                    items.iter().map(|c| (c.dist.0.to_bits(), c.id, c.expanded)).collect()
                };
                prop_assert_eq!(bits(list.items()), bits(&reference));
                prop_assert!(list.is_sorted());
                // Expand one entry on both sides so later merges carry
                // a mix of flags.
                if let Some(offset) = list.closest_unexpanded() {
                    list.mark_expanded(offset);
                    reference[offset].expanded = true;
                }
            }
        }
    }

    #[test]
    fn merge_keeps_best_l_sorted() {
        let mut list = CandidateList::new(3);
        list.merge_batch(&[(d(5.0), 5), (d(1.0), 1), (d(3.0), 3)]);
        assert_eq!(list.top_k(3), vec![(d(1.0), 1), (d(3.0), 3), (d(5.0), 5)]);
        list.merge_batch(&[(d(2.0), 2), (d(9.0), 9)]);
        assert_eq!(list.top_k(3), vec![(d(1.0), 1), (d(2.0), 2), (d(3.0), 3)]);
        assert!(list.is_sorted());
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn selection_skips_expanded() {
        let mut list = CandidateList::new(4);
        list.merge_batch(&[(d(1.0), 1), (d(2.0), 2)]);
        assert_eq!(list.closest_unexpanded(), Some(0));
        assert_eq!(list.mark_expanded(0), 1);
        assert_eq!(list.closest_unexpanded(), Some(1));
        assert_eq!(list.mark_expanded(1), 2);
        assert_eq!(list.closest_unexpanded(), None);
    }

    #[test]
    fn expanded_survives_merge() {
        let mut list = CandidateList::new(4);
        list.merge_batch(&[(d(2.0), 2)]);
        list.mark_expanded(0);
        list.merge_batch(&[(d(1.0), 1)]);
        // Entry 2 moved to offset 1 but stays expanded.
        assert_eq!(list.closest_unexpanded(), Some(0));
        assert_eq!(list.items()[1].id, 2);
        assert!(list.items()[1].expanded);
    }

    #[test]
    fn beam_selection_takes_width_closest() {
        let mut list = CandidateList::new(8);
        list.merge_batch(&[(d(1.0), 1), (d(2.0), 2), (d(3.0), 3), (d(4.0), 4)]);
        list.mark_expanded(0);
        assert_eq!(list.closest_unexpanded_beam(2), vec![1, 2]);
        assert_eq!(list.closest_unexpanded_beam(10), vec![1, 2, 3]);
        assert_eq!(list.closest_unexpanded_beam(0), Vec::<usize>::new());
    }

    #[test]
    fn equal_distances_order_by_id() {
        let mut list = CandidateList::new(4);
        list.merge_batch(&[(d(1.0), 9), (d(1.0), 3)]);
        assert_eq!(list.top_k(2), vec![(d(1.0), 3), (d(1.0), 9)]);
    }

    #[test]
    #[should_panic(expected = "already expanded")]
    fn double_expand_panics() {
        let mut list = CandidateList::new(2);
        list.merge_batch(&[(d(1.0), 1)]);
        list.mark_expanded(0);
        list.mark_expanded(0);
    }

    #[test]
    fn bitmap_test_and_set_semantics() {
        let mut b = VisitedBitmap::new(130);
        assert!(b.test_and_set(0));
        assert!(!b.test_and_set(0));
        assert!(b.test_and_set(129));
        assert!(b.contains(129));
        assert!(!b.contains(64));
        assert_eq!(b.count(), 2);
        b.clear();
        assert_eq!(b.count(), 0);
        assert!(b.test_and_set(0));
    }

    #[test]
    fn bitmap_sizing() {
        assert_eq!(VisitedBitmap::new(0).nbytes(), 0);
        assert_eq!(VisitedBitmap::new(1).nbytes(), 8);
        assert_eq!(VisitedBitmap::new(64).nbytes(), 8);
        assert_eq!(VisitedBitmap::new(65).nbytes(), 16);
    }

    #[test]
    #[should_panic(expected = "out of bitmap range")]
    fn bitmap_oob_panics() {
        VisitedBitmap::new(10).test_and_set(10);
    }

    #[test]
    fn bitmap_clear_is_generation_based() {
        let mut b = VisitedBitmap::new(200);
        for round in 0..5 {
            assert_eq!(b.count(), 0, "round {round} starts clear");
            assert!(b.test_and_set(7));
            assert!(b.test_and_set(191));
            assert!(!b.test_and_set(7), "marks visible within a round");
            assert!(b.contains(191));
            assert!(!b.contains(8));
            assert_eq!(b.count(), 2);
            b.clear();
            assert!(!b.contains(7), "stale marks invisible after clear");
        }
    }

    #[test]
    fn beam_into_reuses_buffer_and_matches_allocating_variant() {
        let mut list = CandidateList::new(8);
        list.merge_batch(&[(d(1.0), 1), (d(2.0), 2), (d(3.0), 3)]);
        list.mark_expanded(0);
        let mut out = vec![99; 7];
        list.closest_unexpanded_beam_into(2, &mut out);
        assert_eq!(out, list.closest_unexpanded_beam(2));
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn reset_empties_but_keeps_allocation() {
        let mut list = CandidateList::new(2);
        list.merge_batch(&[(d(1.0), 1), (d(2.0), 2)]);
        list.reset(5);
        assert!(list.is_empty());
        assert_eq!(list.capacity(), 5);
        list.merge_batch(&[(d(4.0), 4)]);
        assert_eq!(list.top_k(1), vec![(d(4.0), 4)]);
    }
}
