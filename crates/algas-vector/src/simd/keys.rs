//! Candidate-list keys and step ④'s merge over them.
//!
//! A search's candidate list (`algas_core::lists::CandidateList`) holds
//! one `u64` key per entry: the distance's order-preserving bits in the
//! high half, the id in bits 1–31 and the *expanded* flag in bit 0
//! ([`pack_key`]), so `u64` order is `(distance, id)` order. The list
//! keeps its keys ascending in [`KeyChunk`]s, 64-byte lines of eight
//! keys, padded with [`PAD`] up to a power-of-two width of at least
//! eight ([`key_chunks`]).
//!
//! [`PAD`] is `u64::MAX`: no newcomer can equal it (its flag bit is
//! clear), so every newcomer sorts before the pads, and since the pad's
//! own flag bit is set, a test of bit 0 over the padded keys is step
//! ①'s unexpanded mask with no length check ([`KeyChunk::unexpanded`]).
//!
//! Two implementations of the merge sit behind the dispatch table:
//!
//! * **the reference** (scalar, AVX2 and NEON tiers): each newcomer is
//!   packed and, unless a full list's tail already beats it, binary-
//!   searched to its place, the entries behind it moving up one.
//! * **the AVX-512 network**: newcomers are packed eight lanes at a
//!   time, compared against the bar (a full list's tail) and the
//!   survivors compress-stored to a staging line; those are sorted by a
//!   bitonic network and the list takes them in one bitonic merge — the
//!   lane-wise minimum of the list and the reversed batch, then log₂ of
//!   the width half-cleaner stages — as the paper's CTA and CAGRA's
//!   warp sort do it in shared memory. Lists of up to 64 keys run the
//!   network in registers, longer ones run the same network over their
//!   chunks in memory.
//!
//! Both leave the same keys in the same places: the unique ascending
//! best `cap` of the union, then pads.

use crate::metric::DistValue;

/// Bits of a key that hold the id, above the expanded flag.
pub const ID_BITS: u32 = 31;

/// The expanded flag, bit 0 of a key.
pub const EXPANDED: u64 = 1;

/// The pad key beyond a list's last entry: greater than every newcomer
/// and flagged expanded.
pub const PAD: u64 = u64::MAX;

/// Eight keys on one 64-byte line, the unit the merge network loads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C, align(64))]
pub struct KeyChunk([u64; 8]);

impl KeyChunk {
    /// A line of pads.
    pub const PADS: Self = Self([PAD; 8]);

    /// Step ①'s unexpanded mask of this line: bit `i` is set when key
    /// `i` has its expanded flag (bit 0) clear. Pads read as expanded.
    #[inline]
    pub fn unexpanded(&self) -> u8 {
        self.0.iter().enumerate().fold(0, |m, (i, &k)| m | u8::from(k & EXPANDED == 0) << i)
    }
}

/// Chunks a list of capacity `cap` is padded to: the next power of two
/// at or above `cap`, and at least 8 keys, in lines of 8.
pub fn key_chunks(cap: usize) -> usize {
    cap.next_power_of_two().max(8) / 8
}

/// The keys of `chunks` as one slice.
pub fn flat(chunks: &[KeyChunk]) -> &[u64] {
    // SAFETY: `KeyChunk` is `repr(C)` over `[u64; 8]` with no padding
    // (64 bytes, 64-byte aligned), so `n` chunks are `8n` initialized
    // `u64`s, suitably aligned.
    unsafe { std::slice::from_raw_parts(chunks.as_ptr().cast(), chunks.len() * 8) }
}

/// The keys of `chunks` as one mutable slice.
pub fn flat_mut(chunks: &mut [KeyChunk]) -> &mut [u64] {
    // SAFETY: as in `flat`; every bit pattern is a valid `u64` and a
    // valid `KeyChunk`, and the borrow is exclusive.
    unsafe { std::slice::from_raw_parts_mut(chunks.as_mut_ptr().cast(), chunks.len() * 8) }
}

/// Packs `(dist, id)` into an unexpanded key.
///
/// `total_cmp` orders floats as sign-magnitude integers: flipping every
/// bit of a negative and only the sign bit of a non-negative turns that
/// into unsigned order, so `u64` order on keys is `(DistValue, id)`
/// order, NaNs of either sign included. Keys that differ in
/// `(dist, id)` differ above bit 0, so setting the flag there never
/// moves an entry.
#[inline]
pub fn pack_key(dist: f32, id: u32) -> u64 {
    debug_assert!(id >> ID_BITS == 0, "id {id} does not fit a candidate key");
    let b = dist.to_bits();
    let ordered = b ^ (((b as i32) >> 31) as u32 | 0x8000_0000);
    u64::from(ordered) << 32 | u64::from(id) << 1
}

/// The distance a key was packed from, bit-exact.
#[inline]
pub fn key_dist(key: u64) -> DistValue {
    let o = (key >> 32) as u32;
    DistValue(f32::from_bits(o ^ ((!o as i32 >> 31) as u32 | 0x8000_0000)))
}

/// The id a key was packed from.
#[inline]
pub fn key_id(key: u64) -> u32 {
    (key as u32) >> 1
}

/// The one-key-at-a-time merge: each newcomer is packed and, unless a
/// full list's tail already beats it (late in a search most stop here,
/// and the bar tightens as earlier newcomers land), binary-searched to
/// its place, the entries behind it moving up one and the old tail
/// falling off. Returns the new length; `_stage` is unused.
pub(super) fn merge_keys_reference(
    keys: &mut [KeyChunk],
    mut len: usize,
    cap: usize,
    ids: &[u32],
    dists: &[f32],
    _stage: &mut [KeyChunk],
) -> usize {
    let keys = flat_mut(keys);
    for (&id, &dist) in ids.iter().zip(dists) {
        let key = pack_key(dist, id);
        if len < cap {
            len += 1;
        } else if key > keys[cap - 1] {
            continue;
        }
        let last = len - 1;
        let at = keys[..last].partition_point(|&k| k < key);
        keys.copy_within(at..last, at + 1);
        keys[at] = key;
    }
    len
}

#[cfg(target_arch = "x86_64")]
pub(super) use avx512::merge_keys_avx512;

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{flat, KeyChunk, PAD};
    use std::arch::x86_64::*;

    pub(in crate::simd) fn merge_keys_avx512(
        keys: &mut [KeyChunk],
        len: usize,
        cap: usize,
        ids: &[u32],
        dists: &[f32],
        stage: &mut [KeyChunk],
    ) -> usize {
        // SAFETY: installed only after runtime detection of the AVX512
        // set; `simd::merge_keys` checked the lengths `merge` needs.
        unsafe { merge(keys, len, cap, ids, dists, stage) }
    }

    /// The chunks of `keys` as vectors.
    fn vectors(keys: &mut [KeyChunk]) -> &mut [__m512i] {
        // SAFETY: `KeyChunk` and `__m512i` are both 64 bytes, 64-byte
        // aligned, and valid for every bit pattern.
        unsafe { std::slice::from_raw_parts_mut(keys.as_mut_ptr().cast(), keys.len()) }
    }

    /// Packs, filters, stages and merges; see the module docs.
    ///
    /// # Safety
    /// The host must have avx512f, avx512vl and popcnt. `keys.len()` is
    /// a power of two with `8 · keys.len() >= cap > 0`, `len <= cap`,
    /// `stage.len() >= keys.len()` and `dists.len() == ids.len()`.
    #[target_feature(enable = "avx512f", enable = "avx512vl", enable = "popcnt")]
    unsafe fn merge(
        keys: &mut [KeyChunk],
        mut len: usize,
        cap: usize,
        ids: &[u32],
        dists: &[f32],
        stage: &mut [KeyChunk],
    ) -> usize {
        let width = 8 * keys.len();
        let bar =
            |keys: &[KeyChunk], len: usize| if len == cap { flat(keys)[cap - 1] } else { PAD };
        let mut below = _mm512_set1_epi64(bar(keys, len) as i64);
        let mut s = 0;
        for at in (0..ids.len()).step_by(8) {
            if s + 8 > width {
                len = flush(keys, len, cap, stage, s);
                below = _mm512_set1_epi64(bar(keys, len) as i64);
                s = 0;
            }
            let lanes = ((1u16 << (ids.len() - at).min(8)) - 1) as u8;
            let key = pack8(
                _mm256_maskz_loadu_epi32(lanes, dists.as_ptr().add(at).cast()),
                _mm256_maskz_loadu_epi32(lanes, ids.as_ptr().add(at).cast()),
            );
            let keep = _mm512_mask_cmplt_epu64_mask(lanes, key, below);
            // Eight lanes stored, the survivors first: `s + 8 <= width`
            // keeps the store inside the stage. The pointer is taken
            // here, after `flush` has last borrowed `stage`.
            let staged = stage.as_mut_ptr().cast::<u64>().add(s);
            _mm512_storeu_si512(staged.cast(), _mm512_maskz_compress_epi64(keep, key));
            s += keep.count_ones() as usize;
        }
        if s > 0 {
            len = flush(keys, len, cap, stage, s);
        }
        len
    }

    /// [`super::pack_key`] on eight lanes: the distances' bits and the
    /// ids, widened and joined.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx512vl")]
    fn pack8(bits: __m256i, ids: __m256i) -> __m512i {
        let flip = _mm256_or_si256(_mm256_srai_epi32(bits, 31), _mm256_set1_epi32(i32::MIN));
        let ordered = _mm512_cvtepu32_epi64(_mm256_xor_si256(bits, flip));
        let ids = _mm512_cvtepu32_epi64(_mm256_slli_epi32(ids, 1));
        _mm512_or_si512(_mm512_slli_epi64(ordered, 32), ids)
    }

    /// Merges the first `s` (1 ≤ `s` ≤ `8 · keys.len()`) staged keys
    /// into the list and returns its new length: pad the batch to a
    /// power-of-two number of chunks, sort it ([`sort`]) and merge it
    /// into the list ([`take`]).
    ///
    /// Both run with their width as a const parameter when it is 1, 2,
    /// 4 or 8 chunks, so the network unrolls and its chunks stay in zmm
    /// registers between one load and one store each; wider lists run
    /// the same network over their chunks in memory (`N = 0`).
    ///
    /// # Safety
    /// The host must have avx512f; as [`merge`].
    #[target_feature(enable = "avx512f")]
    unsafe fn flush(
        keys: &mut [KeyChunk],
        len: usize,
        cap: usize,
        stage: &mut [KeyChunk],
        s: usize,
    ) -> usize {
        let chunks = s.div_ceil(8).next_power_of_two();
        let batch = &mut vectors(stage)[..chunks];
        match chunks {
            1 => sort::<1>(batch, s),
            2 => sort::<2>(batch, s),
            4 => sort::<4>(batch, s),
            8 => sort::<8>(batch, s),
            _ => sort::<0>(batch, s),
        }
        let (list, batch) = (vectors(keys), &*batch);
        match list.len() {
            1 => take::<1>(list, batch, cap),
            2 => take::<2>(list, batch, cap),
            4 => take::<4>(list, batch, cap),
            8 => take::<8>(list, batch, cap),
            _ => take::<0>(list, batch, cap),
        }
        (len + s).min(cap)
    }

    /// The first `N` chunks of `v`, or all of them when `N` is 0.
    #[inline]
    fn width<const N: usize>(v: &mut [__m512i]) -> &mut [__m512i] {
        if N == 0 {
            v
        } else {
            &mut v[..N]
        }
    }

    /// Sorts the first `s` keys of `v` (a power of two of chunks)
    /// ascending, the lanes after them made pads: each chunk in its
    /// lanes, then sorted runs merged pairwise — a run's lanes against
    /// the mirrored lanes of its partner, which leaves two bitonic
    /// halves with every key of the first at most every key of the
    /// second, then the half-cleaners on each half.
    #[target_feature(enable = "avx512f")]
    fn sort<const N: usize>(v: &mut [__m512i], s: usize) {
        let v = width::<N>(v);
        for (c, x) in v.iter_mut().enumerate() {
            let staged = s.saturating_sub(8 * c).min(8);
            *x = _mm512_mask_mov_epi64(_mm512_set1_epi64(-1), ((1u16 << staged) - 1) as u8, *x);
            // Sorted pairs, sorted fours (mirror, then distance 1),
            // sorted eight (mirror, then distances 2 and 1).
            let mut k = exchange(*x, XOR1, 0xAA);
            k = exchange(exchange(k, MIRROR4, 0xCC), XOR1, 0xAA);
            k = exchange(k, MIRROR8, 0xF0);
            *x = exchange(exchange(k, XOR2, 0xCC), XOR1, 0xAA);
        }
        let mut run = 1;
        while run < v.len() {
            for pair in v.chunks_exact_mut(2 * run) {
                let (a, b) = pair.split_at_mut(run);
                for (x, y) in a.iter_mut().zip(b.iter_mut().rev()) {
                    let m = reversed(*y);
                    (*x, *y) = (_mm512_min_epu64(*x, m), reversed(_mm512_max_epu64(*x, m)));
                }
            }
            clean(v, run / 2);
            run *= 2;
        }
    }

    /// Merges the sorted `batch` into the sorted list `v` of width
    /// `8 · v.len()`: the lane-wise minimum of the list and the batch
    /// reversed over that width (the pads it is short of are the
    /// identity) is a bitonic sequence of the smallest keys of both;
    /// the half-cleaners sort it, and keys past `cap` become pads.
    #[target_feature(enable = "avx512f")]
    fn take<const N: usize>(v: &mut [__m512i], batch: &[__m512i], cap: usize) {
        let v = width::<N>(v);
        for (x, &b) in v.iter_mut().rev().zip(batch) {
            *x = _mm512_min_epu64(*x, reversed(b));
        }
        clean(v, v.len() / 2);
        for (c, x) in v.iter_mut().enumerate().skip(cap / 8) {
            let real = cap.saturating_sub(8 * c).min(8);
            *x = _mm512_mask_mov_epi64(*x, !((1u16 << real) - 1) as u8, _mm512_set1_epi64(-1));
        }
    }

    /// Sorts each bitonic block of `2 · from` chunks of `v`: half-cleaners
    /// at chunk distances `from … 1`, then at lane distances 4, 2, 1.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn clean(v: &mut [__m512i], from: usize) {
        let mut d = from;
        while d > 0 {
            for block in v.chunks_exact_mut(2 * d) {
                let (a, b) = block.split_at_mut(d);
                for (x, y) in a.iter_mut().zip(b) {
                    (*x, *y) = (_mm512_min_epu64(*x, *y), _mm512_max_epu64(*x, *y));
                }
            }
            d /= 2;
        }
        for x in v {
            *x = exchange(exchange(exchange(*x, XOR4, 0xF0), XOR2, 0xCC), XOR1, 0xAA);
        }
    }

    /// Lane `i` of `v` against lane `partner[i]`: the smaller to the
    /// lanes outside `upper`, the larger to those in it.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn exchange(v: __m512i, partner: [i64; 8], upper: u8) -> __m512i {
        // SAFETY: an 8-lane load of a local array.
        let p = _mm512_permutexvar_epi64(unsafe { _mm512_loadu_epi64(partner.as_ptr()) }, v);
        _mm512_mask_max_epu64(_mm512_min_epu64(v, p), upper, v, p)
    }

    const XOR1: [i64; 8] = [1, 0, 3, 2, 5, 4, 7, 6];
    const XOR2: [i64; 8] = [2, 3, 0, 1, 6, 7, 4, 5];
    const XOR4: [i64; 8] = [4, 5, 6, 7, 0, 1, 2, 3];
    const MIRROR4: [i64; 8] = [3, 2, 1, 0, 7, 6, 5, 4];
    const MIRROR8: [i64; 8] = [7, 6, 5, 4, 3, 2, 1, 0];

    /// `v`'s lanes in reverse order.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn reversed(v: __m512i) -> __m512i {
        // SAFETY: an 8-lane load of a constant array.
        _mm512_permutexvar_epi64(unsafe { _mm512_loadu_epi64(MIRROR8.as_ptr()) }, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{MergeFn, SCALAR};

    /// Few enough values that batches are full of distance ties, plus
    /// every non-finite kind `total_cmp` has to place and the NaN whose
    /// key's high half is all ones.
    const DISTS: [f32; 11] = [
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
        f32::from_bits(0x7FFF_FFFF),
    ];

    /// The network tier, when this host has it.
    fn network() -> Option<MergeFn> {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::has_avx512() {
            return Some(crate::simd::AVX512.merge_keys);
        }
        None
    }

    /// A list of capacity `cap` run through both tiers side by side.
    struct Pair {
        cap: usize,
        len: [usize; 2],
        keys: [Vec<KeyChunk>; 2],
        stage: [Vec<KeyChunk>; 2],
        tiers: [MergeFn; 2],
    }

    impl Pair {
        fn new(cap: usize, network: MergeFn) -> Self {
            let width = key_chunks(cap);
            Self {
                cap,
                len: [0; 2],
                keys: [vec![KeyChunk::PADS; width], vec![KeyChunk::PADS; width]],
                stage: [vec![KeyChunk::PADS; width], vec![KeyChunk::PADS; width]],
                tiers: [SCALAR.merge_keys, network],
            }
        }

        /// Merges one batch on both tiers and checks every key, pads
        /// included, and the length.
        fn merge(&mut self, ids: &[u32], dists: &[f32], what: &str) {
            let want_len = (self.len[0] + ids.len()).min(self.cap);
            for t in 0..2 {
                let merge = self.tiers[t];
                self.len[t] =
                    merge(&mut self.keys[t], self.len[t], self.cap, ids, dists, &mut self.stage[t]);
            }
            assert_eq!(self.len, [want_len; 2], "{what}: length");
            assert_eq!(self.keys[0], self.keys[1], "{what}: keys");
            let keys = flat(&self.keys[0]);
            assert!(keys[..self.len[0]].windows(2).all(|w| w[0] < w[1]), "{what}: ascending");
            assert!(keys[self.len[0]..].iter().all(|&k| k == PAD), "{what}: pads");
        }

        /// Sets the flag of every entry whose offset `pick` selects, on
        /// both tiers.
        fn expand(&mut self, pick: impl Fn(usize) -> bool) {
            for t in 0..2 {
                let len = self.len[t];
                for (i, k) in flat_mut(&mut self.keys[t])[..len].iter_mut().enumerate() {
                    if pick(i) {
                        *k |= 1;
                    }
                }
            }
        }
    }

    /// Small deterministic generator.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 33
        }
    }

    /// Batches of the given sizes, ids distinct across all of them and
    /// drawn out of order, distances from `DISTS` or random finite
    /// values; the entries at offsets `≡ round (mod 3)` are expanded
    /// after each batch.
    fn run(cap: usize, sizes: &[usize], seed: u64, network: MergeFn) {
        let mut rng = Lcg(seed);
        let mut pair = Pair::new(cap, network);
        let mut next_id = 0u32;
        for (round, &size) in sizes.iter().enumerate() {
            let ids: Vec<u32> = (0..size as u32)
                .map(|j| {
                    // Distinct: a fresh block per batch, shuffled by an
                    // odd multiplier mod a power of two.
                    next_id + j.wrapping_mul(2_654_435_761) % 1024
                })
                .collect();
            next_id += 1024;
            let dists: Vec<f32> = (0..size)
                .map(|_| match rng.next() % 4 {
                    0 => (rng.next() % 1000) as f32 / 7.0,
                    _ => DISTS[(rng.next() % DISTS.len() as u64) as usize],
                })
                .collect();
            pair.merge(&ids, &dists, &format!("cap {cap} seed {seed} batch {round} of {size}"));
            pair.expand(|i| i % 3 == round % 3);
        }
    }

    #[test]
    fn the_network_leaves_the_reference_keys_at_every_width() {
        let Some(network) = network() else { return };
        // An empty list taking more than 64 at once, small batches into
        // a full list, batches around every chunk edge, and empty ones.
        let sizes = [200, 0, 1, 7, 8, 9, 33, 33, 64, 65, 3, 256, 33, 0, 2];
        for cap in (1..=64).chain([65, 100, 128, 256]) {
            for seed in 0..3 {
                run(cap, &sizes, seed, network);
            }
            run(cap, &[1, 1, 1, 40, 1, 9, 33, 33, 33, 33], 7, network);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn prop_network_equals_reference(
            pick in 0usize..67,
            sizes in proptest::collection::vec(0usize..257, 0..8),
            seed in 0u64..u64::MAX,
        ) {
            // Every capacity 1..=64, then 65, 128 and 256.
            let cap = [65, 128, 256].get(pick.wrapping_sub(64)).copied().unwrap_or(pick + 1);
            if let Some(network) = network() {
                run(cap, &sizes, seed, network);
            }
        }

        #[test]
        fn prop_unexpanded_masks_agree(
            words in proptest::collection::vec(0u64..u64::MAX, 1..65),
        ) {
            let mut chunks = vec![KeyChunk::PADS; words.len().div_ceil(8)];
            flat_mut(&mut chunks)[..words.len()].copy_from_slice(&words);
            // Today's scan: the offsets whose flag is clear.
            let want = flat(&chunks)
                .iter()
                .enumerate()
                .filter(|&(_, &k)| k & 1 == 0)
                .fold(0u64, |m, (i, _)| m | 1 << i);
            let got = chunks
                .iter()
                .enumerate()
                .fold(0u64, |m, (c, chunk)| m | u64::from(chunk.unexpanded()) << (8 * c));
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn pads_are_expanded_and_above_every_newcomer() {
        assert_eq!(PAD & 1, 1);
        assert!(pack_key(f32::from_bits(0x7FFF_FFFF), (1 << 31) - 1) < PAD);
        assert_eq!(key_chunks(1), 1);
        assert_eq!(key_chunks(8), 1);
        assert_eq!(key_chunks(9), 2);
        assert_eq!(key_chunks(64), 8);
        assert_eq!(key_chunks(65), 16);
    }
}
