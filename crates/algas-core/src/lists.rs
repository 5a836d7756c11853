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
//! integer compares and selects: step ④ is a bitonic merge network on
//! AVX-512 hosts and one binary search and `memmove` per newcomer
//! elsewhere (DESIGN.md §6).
//! The functional behaviour here is exact; the *cost* of maintaining
//! them on a GPU (bitonic stages etc.) is charged by the searcher
//! against its context's cycle prices (`SearchContext::cost`).

use algas_vector::metric::DistValue;
use algas_vector::simd::{self, key_chunks, key_dist, key_id, KeyChunk, EXPANDED, ID_BITS};

/// Size of the id space a candidate key has room for. An index refuses
/// a corpus of this many rows or more
/// ([`crate::engine::CorpusTooLarge`]), so no id ever runs into the
/// flag bit.
pub const ID_SPACE: usize = 1 << ID_BITS;

/// A bounded, ascending-sorted candidate list of capacity `L`, one
/// packed key per entry ([`simd::pack_key`]), followed by pads
/// (`u64::MAX`) up to the merge width ([`simd::key_chunks`]). The
/// `Default` list has capacity 0 and holds nothing until
/// [`reset`](Self::reset) gives it one.
#[derive(Clone, Debug, Default)]
pub struct CandidateList {
    /// The entries, ascending, then pads.
    keys: Vec<KeyChunk>,
    /// The merge network's staging space, as wide as `keys`.
    stage: Vec<KeyChunk>,
    len: usize,
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
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries' keys, ascending.
    #[inline]
    fn keys(&self) -> &[u64] {
        &simd::flat(&self.keys)[..self.len]
    }

    /// Distance of the entry at `offset` (bit-exact as merged).
    #[inline]
    pub fn dist_at(&self, offset: usize) -> DistValue {
        key_dist(self.keys()[offset])
    }

    /// Corpus id of the entry at `offset`.
    #[inline]
    pub fn id_at(&self, offset: usize) -> u32 {
        key_id(self.keys()[offset])
    }

    /// Current entries as `(distance, id)`, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (DistValue, u32)> + '_ {
        self.keys().iter().map(|&k| (key_dist(k), key_id(k)))
    }

    /// Step ①'s unexpanded mask of each line of eight keys, with the
    /// line's first offset. Pads read as expanded, so no bit lies past
    /// the last entry.
    #[inline]
    fn unexpanded(&self) -> impl Iterator<Item = (usize, u8)> + '_ {
        self.keys.iter().enumerate().map(|(c, chunk)| (8 * c, chunk.unexpanded()))
    }

    /// Offset of the closest not-yet-expanded entry (§IV-B step ①).
    pub fn closest_unexpanded(&self) -> Option<usize> {
        self.unexpanded().find(|&(_, m)| m != 0).map(|(at, m)| at + m.trailing_zeros() as usize)
    }

    /// Clears `out` and fills it with the offsets of up to `width`
    /// closest not-yet-expanded entries — the beam-extend selection
    /// (multiple candidates per maintenance round, §IV-B "Beam Extend
    /// in Intra-CTA"). Reuses `out`'s capacity.
    pub fn closest_unexpanded_beam_into(&self, width: usize, out: &mut Vec<usize>) {
        out.clear();
        for (at, mut m) in self.unexpanded() {
            while m != 0 && out.len() < width {
                out.push(at + m.trailing_zeros() as usize);
                m &= m - 1;
            }
            if out.len() == width {
                break;
            }
        }
    }

    /// Empties the list and resets its capacity to `l`, retaining the
    /// backing allocations (slot reuse between queries).
    ///
    /// # Panics
    /// Panics if `l == 0`.
    pub fn reset(&mut self, l: usize) {
        assert!(l > 0, "candidate list capacity must be positive");
        let chunks = key_chunks(l);
        self.keys.clear();
        self.keys.resize(chunks, KeyChunk::PADS);
        self.stage.resize(chunks, KeyChunk::PADS);
        self.len = 0;
        self.cap = l;
    }

    /// Marks the entry at `offset` as expanded and returns its id.
    ///
    /// # Panics
    /// Panics if `offset` is out of bounds or already expanded.
    pub fn mark_expanded(&mut self, offset: usize) -> u32 {
        let k = &mut simd::flat_mut(&mut self.keys)[..self.len][offset];
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
    /// Runs [`simd::merge_keys`]: a bitonic merge network on AVX-512
    /// hosts, one binary search and `memmove` per newcomer elsewhere.
    /// Keys are totally ordered, so either way the result is the unique
    /// ascending best-`L` of the union — what sorting the whole union
    /// gives.
    ///
    /// # Panics
    /// Panics if `ids` and `dists` differ in length.
    pub fn merge_batch(&mut self, ids: &[u32], dists: &[f32]) {
        debug_assert!(
            ids.iter().all(|&id| id >> ID_BITS == 0),
            "an id does not fit a candidate key"
        );
        debug_assert!(
            ids.iter().all(|&id| self.keys().iter().all(|&k| key_id(k) != id)),
            "bitmap must prevent duplicate candidates"
        );
        self.len =
            simd::merge_keys(&mut self.keys, self.len, self.cap, ids, dists, &mut self.stage);
    }

    /// The best `k` entries currently held (ascending by distance).
    pub fn top_k(&self, k: usize) -> Vec<(DistValue, u32)> {
        self.iter().take(k).collect()
    }

    /// Sortedness invariant (exposed for property tests).
    pub fn is_sorted(&self) -> bool {
        self.keys().windows(2).all(|w| w[0] < w[1])
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
    /// of `row` seen for the first time, marking all of them, and
    /// returns how many ids `row` held. Every id is written to the next
    /// free place and the length advances by the "was new" bit, so a
    /// probe's outcome — new about one time in four mid-search — is
    /// never branched on.
    ///
    /// `row` is any bounded id sequence: the search passes a packed
    /// graph row's decoder (`PackedGraph::neighbors`), so decoding and
    /// filtering are one loop that ends at the row's first pad code.
    /// `out` is grown by the row's upper size bound up front and cut
    /// back after.
    #[inline]
    pub fn filter_into(&mut self, row: impl IntoIterator<Item = u32>, out: &mut Vec<u32>) -> usize {
        let row = row.into_iter();
        let bound = row.size_hint().1.expect("a row has an upper size bound");
        let (start, mut n) = (out.len(), out.len());
        out.resize(start + bound, 0);
        let mut held = 0;
        for id in row {
            out[n] = id;
            n += usize::from(self.test_and_set(id));
            held += 1;
        }
        out.truncate(n);
        held
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
    use algas_vector::simd::pack_key;
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
            let (ka, kb) = (pack_key(DISTS[a.0], a.1) | a.2, pack_key(DISTS[b.0], b.1) | b.2);
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
                    .map(|i| (list.dist_at(i).0.to_bits(), list.id_at(i), list.keys()[i] & EXPANDED != 0))
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
                        bitmap.filter_into(row.iter().copied(), &mut admitted);
                        prop_assert_eq!(&admitted, &want);
                    }
                    _ => prop_assert_eq!(bitmap.test_and_set(id), model.insert(id)),
                }
                prop_assert_eq!(bitmap.count(), model.len());
                prop_assert_eq!(bitmap.contains(id), model.contains(&id));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Step ②'s filter fed a packed row's decoder against the same
        /// filter fed the row's valid prefix as a slice (what step ②
        /// filtered before the graph was packed): two bitmaps in
        /// lockstep over random expansions and `clear()`s, started two
        /// clears short of the epoch wrap.
        #[test]
        fn prop_packed_row_filter_equals_the_slice_filter_across_clears_and_epoch_wrap(
            ops in prop::collection::vec((0u32..6, 0u32..300), 1..120),
        ) {
            // 300 vertices (9-bit ids), degree 7: row v holds v % 8 ids,
            // so rows run from empty to full.
            let mut graph = algas_graph::FixedDegreeGraph::new(300, 7);
            for v in 0..300u32 {
                let row: Vec<u32> =
                    (1..=v % 8).map(|j| (v * 37 + j * 101) % 300).filter(|&u| u != v).collect();
                graph.set_row(v, &row.iter().copied().take(7).collect::<Vec<_>>());
            }
            let packed = algas_graph::PackedGraph::pack(&graph);
            let (mut fused, mut sliced) = (VisitedBitmap::new(300), VisitedBitmap::new(300));
            fused.tag = u64::from(u32::MAX - 2) << 32;
            sliced.tag = fused.tag;
            let (mut fused_out, mut sliced_out) = (Vec::new(), Vec::new());
            for (op, v) in ops {
                if op == 0 {
                    fused.clear();
                    sliced.clear();
                    continue;
                }
                let valid = &graph.row(v)[..graph.neighbors(v).count()];
                let held = fused.filter_into(packed.neighbors(v), &mut fused_out);
                prop_assert_eq!(held, valid.len());
                prop_assert_eq!(sliced.filter_into(valid.iter().copied(), &mut sliced_out), held);
                prop_assert_eq!(&fused_out, &sliced_out);
                prop_assert_eq!(fused.count(), sliced.count());
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
        assert_eq!(list.keys()[1] & EXPANDED, EXPANDED);
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
