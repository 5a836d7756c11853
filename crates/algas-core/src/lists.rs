//! The CTA-local data structures: candidate list, expand list, and the
//! visited bitmap.
//!
//! These mirror the shared-memory structures of §IV-B: a bounded sorted
//! candidate list of capacity `L`, an expand list that buffers the
//! neighbors of the step's selected candidate(s), and a bitmap that
//! records which corpus points already had their distance computed.
//! Both are arrays of single machine words — a candidate is one `u64`
//! (order-preserving distance bits ‖ id ‖ *expanded* flag, as CAGRA
//! keeps its parent flag in the index word), a bitmap word an epoch
//! tag beside 32 visit bits — so a search step maintains them with
//! integer compares, selects and `memmove`s (DESIGN.md §6).
//! The functional behaviour here is exact; the *cost* of maintaining
//! them on a GPU (bitonic stages etc.) is charged by the searcher
//! through `algas_gpu_sim::CostModel`.

use algas_vector::metric::DistValue;

/// Bits of a candidate key that hold the id; the 32nd is the expanded
/// flag.
const ID_BITS: u32 = 31;

/// Size of the id space a candidate key has room for. An index refuses
/// a corpus of this many rows or more
/// ([`crate::engine::CorpusTooLarge`]), so no id ever runs into the
/// flag bit.
pub const ID_SPACE: usize = 1 << ID_BITS;

/// Packs `(dist, id)` into an unexpanded candidate key.
///
/// `total_cmp` orders floats as sign-magnitude integers: flipping every
/// bit of a negative and only the sign bit of a non-negative turns that
/// into unsigned order, so `u64` order on keys is `(DistValue, id)`
/// order, NaNs of either sign included. Keys that differ in
/// `(dist, id)` differ above bit 0, so setting the flag there never
/// moves an entry.
#[inline]
fn pack(dist: f32, id: u32) -> u64 {
    debug_assert!(id >> ID_BITS == 0, "id {id} does not fit a candidate key");
    let b = dist.to_bits();
    let ordered = b ^ (((b as i32) >> 31) as u32 | 0x8000_0000);
    u64::from(ordered) << 32 | u64::from(id) << 1
}

#[inline]
fn key_dist(key: u64) -> DistValue {
    let o = (key >> 32) as u32;
    DistValue(f32::from_bits(o ^ ((!o as i32 >> 31) as u32 | 0x8000_0000)))
}

#[inline]
fn key_id(key: u64) -> u32 {
    (key as u32) >> 1
}

const EXPANDED: u64 = 1;

/// A bounded, ascending-sorted candidate list of capacity `L`, one
/// packed key per entry. The `Default` list has capacity 0 and holds
/// nothing until [`reset`](Self::reset) gives it one.
#[derive(Clone, Debug, Default)]
pub struct CandidateList {
    keys: Vec<u64>,
    cap: usize,
}

impl CandidateList {
    /// Creates an empty list with capacity `l`.
    ///
    /// # Panics
    /// Panics if `l == 0`.
    pub fn new(l: usize) -> Self {
        let mut list = Self::default();
        list.reset(l);
        list
    }

    /// Capacity `L`.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Distance of the entry at `offset` (bit-exact as merged).
    #[inline]
    pub fn dist_at(&self, offset: usize) -> DistValue {
        key_dist(self.keys[offset])
    }

    /// Corpus id of the entry at `offset`.
    #[inline]
    pub fn id_at(&self, offset: usize) -> u32 {
        key_id(self.keys[offset])
    }

    /// Current entries as `(distance, id)`, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (DistValue, u32)> + '_ {
        self.keys.iter().map(|&k| (key_dist(k), key_id(k)))
    }

    /// Offset of the closest not-yet-expanded entry (§IV-B step ①).
    pub fn closest_unexpanded(&self) -> Option<usize> {
        self.keys.iter().position(|k| k & EXPANDED == 0)
    }

    /// Clears `out` and fills it with the offsets of up to `width`
    /// closest not-yet-expanded entries — the beam-extend selection
    /// (multiple candidates per maintenance round, §IV-B "Beam Extend
    /// in Intra-CTA"). Reuses `out`'s capacity.
    pub fn closest_unexpanded_beam_into(&self, width: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.keys.len()).filter(|&i| self.keys[i] & EXPANDED == 0).take(width));
    }

    /// Empties the list and resets its capacity to `l`, retaining the
    /// backing allocation (slot reuse between queries).
    ///
    /// # Panics
    /// Panics if `l == 0`.
    pub fn reset(&mut self, l: usize) {
        assert!(l > 0, "candidate list capacity must be positive");
        self.keys.clear();
        self.keys.reserve(l);
        self.cap = l;
    }

    /// Marks the entry at `offset` as expanded and returns its id.
    ///
    /// # Panics
    /// Panics if `offset` is out of bounds or already expanded.
    pub fn mark_expanded(&mut self, offset: usize) -> u32 {
        let k = &mut self.keys[offset];
        assert!(*k & EXPANDED == 0, "candidate at offset {offset} already expanded");
        *k |= EXPANDED;
        key_id(*k)
    }

    /// Merges a batch of scored newcomers — `dists[i]` is the distance
    /// of `ids[i]` — into the list, keeping the best `L` (§IV-B step
    /// ④: sort expand list, merge, truncate). Newcomers must be distinct
    /// from existing entries (the visited bitmap scores a point at most
    /// once per query) and enter unexpanded.
    ///
    /// Each is packed and, unless a full list's tail already beats it
    /// (late in a search most stop here, and the bar tightens as
    /// earlier newcomers land), binary-searched to its place, the
    /// entries behind it moving up one and the old tail falling off.
    /// Keys are totally ordered, so the result is the unique ascending
    /// best-`L` of the union — what sorting the whole union gives.
    ///
    /// # Panics
    /// Panics if `ids` and `dists` differ in length.
    pub fn merge_batch(&mut self, ids: &[u32], dists: &[f32]) {
        assert_eq!(ids.len(), dists.len(), "one distance per newcomer");
        debug_assert!(
            ids.iter().all(|&id| self.keys.iter().all(|&k| key_id(k) != id)),
            "bitmap must prevent duplicate candidates"
        );
        for (&id, &dist) in ids.iter().zip(dists) {
            let key = pack(dist, id);
            if self.keys.len() < self.cap {
                self.keys.push(key);
            } else if key > self.keys[self.cap - 1] {
                continue;
            }
            let last = self.keys.len() - 1;
            let at = self.keys[..last].partition_point(|&k| k < key);
            self.keys.copy_within(at..last, at + 1);
            self.keys[at] = key;
        }
    }

    /// The best `k` entries currently held (ascending by distance).
    pub fn top_k(&self, k: usize) -> Vec<(DistValue, u32)> {
        self.iter().take(k).collect()
    }

    /// Sortedness invariant (exposed for property tests).
    pub fn is_sorted(&self) -> bool {
        self.keys.windows(2).all(|w| w[0] < w[1])
    }
}

/// Ids per bitmap word: the low half holds visit bits, the high half
/// the epoch the word was last written in.
const IDS_PER_WORD: usize = 32;
const VISIT_BITS: u64 = 0xFFFF_FFFF;

/// A visited bitmap over corpus ids (§IV-B step ②'s filter).
///
/// In the intra-CTA case each query owns one; in multi-CTA all of a
/// query's CTAs share one, which both avoids redundant distance
/// computations and implicitly partitions the explored region.
///
/// Words are *generation-tagged*: each 64-bit word carries, beside its
/// 32 visit bits, the epoch it was last written in, and
/// [`clear`](Self::clear) just bumps the current epoch. A word whose
/// tag is stale reads as all-zeros and is reset by its next write,
/// making clear O(1) — the slot-reuse operation the serving runtime
/// performs per query — and a probe one load, one select and one store
/// on a single word. The tags are host bookkeeping, not part of the
/// simulated GPU shared-memory footprint, so [`nbytes`](Self::nbytes)
/// counts visit bits only (the GPU memsets its bitmap, storing no tags).
#[derive(Clone, Debug)]
pub struct VisitedBitmap {
    words: Vec<u64>,
    /// The current epoch (`1..=u32::MAX`), already shifted into tag
    /// position; a word whose high half differs reads as zero.
    tag: u64,
    n: usize,
}

impl VisitedBitmap {
    /// A cleared bitmap over `n` ids.
    pub fn new(n: usize) -> Self {
        Self { words: vec![0; n.div_ceil(IDS_PER_WORD)], tag: 1 << 32, n }
    }

    /// Marks `id`; returns `true` when `id` was previously unmarked
    /// (i.e. the caller owns computing its distance).
    ///
    /// Ids are range-checked where they enter an index
    /// (`FixedDegreeGraph::set_row`, the graph decoder), not per probe:
    /// one past the last word still panics on the slice index, one in
    /// that word's slack only under `debug_assertions`.
    #[inline]
    pub fn test_and_set(&mut self, id: u32) -> bool {
        debug_assert!((id as usize) < self.n, "id {id} out of bitmap range {}", self.n);
        let word = &mut self.words[id as usize / IDS_PER_WORD];
        let bit = 1u64 << (id as usize % IDS_PER_WORD);
        let live = if *word & !VISIT_BITS == self.tag { *word } else { self.tag };
        *word = live | bit;
        live & bit == 0
    }

    /// Step ②'s filter over one adjacency row: appends to `out` the ids
    /// of `row` seen for the first time, marking all of them. Every id
    /// is written to the next free place and the length advances by the
    /// "was new" bit, so a probe's outcome — new about one time in four
    /// mid-search — is never branched on.
    #[inline]
    pub fn filter_into(&mut self, row: &[u32], out: &mut Vec<u32>) {
        let mut n = out.len();
        out.resize(n + row.len(), 0);
        for &id in row {
            out[n] = id;
            n += usize::from(self.test_and_set(id));
        }
        out.truncate(n);
    }

    /// Whether `id` is marked.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        let word = self.words[id as usize / IDS_PER_WORD];
        word & !VISIT_BITS == self.tag && word & (1u64 << (id as usize % IDS_PER_WORD)) != 0
    }

    /// Number of marked ids.
    pub fn count(&self) -> usize {
        self.words
            .iter()
            .filter(|&&w| w & !VISIT_BITS == self.tag)
            .map(|w| (w & VISIT_BITS).count_ones() as usize)
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
        if self.tag >> 32 == u64::from(u32::MAX) {
            // Epoch exhausted (once per ~4 billion clears): pay one
            // full reset so stale tags can never alias a fresh epoch.
            self.words.fill(0);
            self.tag = 1 << 32;
        } else {
            self.tag += 1 << 32;
        }
    }

    /// Bitmap footprint in bytes (for shared-memory sizing): one bit
    /// per id in 64-bit words. The host-side generation tags are
    /// excluded, see the type docs.
    pub fn nbytes(&self) -> usize {
        self.n.div_ceil(64) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// What the packed list replaced: one struct per entry, ordered by
    /// `(DistValue, id)`.
    #[derive(Clone, Copy)]
    struct Entry {
        dist: DistValue,
        id: u32,
        expanded: bool,
    }

    proptest! {
        /// Integer order on keys is `(DistValue, id)` order whatever
        /// the flags say, a flag only ever breaks a tie between equal
        /// `(dist, id)` pairs, and both fields unpack bit for bit.
        #[test]
        fn prop_key_order_equals_dist_then_id_order(
            a in (0usize..DISTS.len(), 0u32..1 << ID_BITS, 0u64..2),
            b in (0usize..DISTS.len(), 0u32..1 << ID_BITS, 0u64..2),
            near in 0u32..3,
        ) {
            // Random 31-bit ids almost never tie: also draw b's id from
            // a's neighbourhood.
            let b = (b.0, if near < 2 { (a.1 + near).min((1 << ID_BITS) - 1) } else { b.1 }, b.2);
            let (ka, kb) = (pack(DISTS[a.0], a.1) | a.2, pack(DISTS[b.0], b.1) | b.2);
            let by_value = (DistValue(DISTS[a.0]), a.1).cmp(&(DistValue(DISTS[b.0]), b.1));
            prop_assert_eq!(ka.cmp(&kb), by_value.then(a.2.cmp(&b.2)));
            prop_assert_eq!(key_dist(ka).0.to_bits(), DISTS[a.0].to_bits());
            prop_assert_eq!(key_id(ka), a.1);
            prop_assert_eq!(ka & EXPANDED, a.2);
        }

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
            let mut reference: Vec<Entry> = Vec::new();
            let mut at = 0;
            for batch in &batches {
                let ids: Vec<u32> = (at..at + batch.len()).map(|i| id_of[i]).collect();
                let dists: Vec<f32> = batch.iter().map(|&(dist, _)| DISTS[dist]).collect();
                at += batch.len();
                list.merge_batch(&ids, &dists);
                reference.extend(
                    ids.iter().zip(&dists).map(|(&id, &d)| Entry {
                        dist: DistValue(d),
                        id,
                        expanded: false,
                    }),
                );
                reference.sort_unstable_by_key(|c| (c.dist, c.id));
                reference.truncate(l);

                let got: Vec<(u32, u32, bool)> = (0..list.len())
                    .map(|i| (list.dist_at(i).0.to_bits(), list.id_at(i), list.keys[i] & EXPANDED != 0))
                    .collect();
                let want: Vec<(u32, u32, bool)> =
                    reference.iter().map(|c| (c.dist.0.to_bits(), c.id, c.expanded)).collect();
                prop_assert_eq!(got, want);
                prop_assert!(list.is_sorted());
                // Expand one entry on both sides so later merges carry
                // a mix of flags.
                if let Some(offset) = list.closest_unexpanded() {
                    list.mark_expanded(offset);
                    reference[offset].expanded = true;
                }
            }
        }

        /// The bitmap against a `HashSet` over random probe / filter /
        /// `clear()` sequences, started two clears short of the epoch
        /// wrap so every longer sequence crosses it.
        #[test]
        fn prop_bitmap_matches_hashset_across_clears_and_epoch_wrap(
            ops in prop::collection::vec((0u32..8, 0u32..300), 1..120),
        ) {
            let mut bitmap = VisitedBitmap::new(300);
            bitmap.test_and_set(17);
            bitmap.tag = u64::from(u32::MAX - 2) << 32;
            let mut model = std::collections::HashSet::new();
            let mut admitted = Vec::new();
            for (op, id) in ops {
                match op {
                    0 => {
                        bitmap.clear();
                        model.clear();
                    }
                    1 => {
                        // A short "row" of consecutive ids, appended
                        // after whatever `admitted` already holds.
                        let row: Vec<u32> = (id..(id + 5).min(300)).collect();
                        let mut want = admitted.clone();
                        want.extend(row.iter().filter(|&&u| model.insert(u)));
                        bitmap.filter_into(&row, &mut admitted);
                        prop_assert_eq!(&admitted, &want);
                    }
                    _ => prop_assert_eq!(bitmap.test_and_set(id), model.insert(id)),
                }
                prop_assert_eq!(bitmap.count(), model.len());
                prop_assert_eq!(bitmap.contains(id), model.contains(&id));
            }
        }
    }

    #[test]
    fn bitmap_epoch_wrap_resets_every_word() {
        let mut b = VisitedBitmap::new(100);
        b.tag = u64::from(u32::MAX - 1) << 32;
        assert!(b.test_and_set(3));
        b.clear();
        assert_eq!(b.tag >> 32, u64::from(u32::MAX));
        assert!(b.test_and_set(3) && b.test_and_set(99));
        b.clear();
        assert_eq!(b.tag >> 32, 1, "the epoch after the last is the first");
        assert!(b.words.iter().all(|&w| w == 0));
        assert_eq!(b.count(), 0);
        assert!(b.test_and_set(3) && !b.test_and_set(3));
    }

    #[test]
    fn merge_keeps_best_l_sorted() {
        let mut list = CandidateList::new(3);
        list.merge_batch(&[5, 1, 3], &[5.0, 1.0, 3.0]);
        assert_eq!(list.top_k(3), vec![(d(1.0), 1), (d(3.0), 3), (d(5.0), 5)]);
        list.merge_batch(&[2, 9], &[2.0, 9.0]);
        assert_eq!(list.top_k(3), vec![(d(1.0), 1), (d(2.0), 2), (d(3.0), 3)]);
        assert!(list.is_sorted());
        assert_eq!(list.len(), 3);
    }

    fn d(x: f32) -> DistValue {
        DistValue(x)
    }

    #[test]
    fn selection_skips_expanded() {
        let mut list = CandidateList::new(4);
        list.merge_batch(&[1, 2], &[1.0, 2.0]);
        assert_eq!(list.closest_unexpanded(), Some(0));
        assert_eq!(list.mark_expanded(0), 1);
        assert_eq!(list.closest_unexpanded(), Some(1));
        assert_eq!(list.mark_expanded(1), 2);
        assert_eq!(list.closest_unexpanded(), None);
    }

    #[test]
    fn expanded_survives_merge() {
        let mut list = CandidateList::new(4);
        list.merge_batch(&[2], &[2.0]);
        list.mark_expanded(0);
        list.merge_batch(&[1], &[1.0]);
        // Entry 2 moved to offset 1 but stays expanded.
        assert_eq!(list.closest_unexpanded(), Some(0));
        assert_eq!(list.id_at(1), 2);
        assert_eq!(list.keys[1] & EXPANDED, EXPANDED);
    }

    #[test]
    fn beam_selection_takes_width_closest_reusing_the_buffer() {
        let mut list = CandidateList::new(8);
        list.merge_batch(&[1, 2, 3, 4], &[1.0, 2.0, 3.0, 4.0]);
        list.mark_expanded(0);
        let mut out = vec![99; 7];
        list.closest_unexpanded_beam_into(2, &mut out);
        assert_eq!(out, vec![1, 2]);
        list.closest_unexpanded_beam_into(10, &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        list.closest_unexpanded_beam_into(0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn equal_distances_order_by_id() {
        let mut list = CandidateList::new(4);
        list.merge_batch(&[9, 3], &[1.0, 1.0]);
        assert_eq!(list.top_k(2), vec![(d(1.0), 3), (d(1.0), 9)]);
    }

    #[test]
    #[should_panic(expected = "already expanded")]
    fn double_expand_panics() {
        let mut list = CandidateList::new(2);
        list.merge_batch(&[1], &[1.0]);
        list.mark_expanded(0);
        list.mark_expanded(0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not fit a candidate key")]
    fn id_past_the_key_bound_is_caught_in_debug() {
        CandidateList::new(2).merge_batch(&[1 << ID_BITS], &[1.0]);
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
    #[should_panic]
    fn bitmap_probe_past_the_last_word_panics() {
        VisitedBitmap::new(10).test_and_set(32);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bitmap range")]
    fn bitmap_probe_in_the_last_words_slack_is_caught_in_debug() {
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
    fn reset_empties_but_keeps_allocation() {
        let mut list = CandidateList::new(2);
        list.merge_batch(&[1, 2], &[1.0, 2.0]);
        list.reset(5);
        assert!(list.is_empty());
        assert_eq!(list.capacity(), 5);
        list.merge_batch(&[4], &[4.0]);
        assert_eq!(list.top_k(1), vec![(d(4.0), 4)]);
    }
}
