//! The read-only graph a served index holds: every id at
//! `w = bit_length(n)` bits, in the row layout of the packed graph
//! section (`binary`'s module docs), so the bytes a file stores are the
//! bytes a search walks.
//!
//! Row `v` is [`packed_row_bytes`]`(degree, w)` bytes at
//! `v · row_bytes`; id `j` of a row holds its bits `j·w .. (j + 1)·w`,
//! LSB-first, and the all-ones code `2^w − 1` pads. Rows are
//! front-packed: padding only follows a row's ids. Eight zero bytes
//! follow the last row, so every id is one unaligned little-endian
//! `u64` read (its `w ≤ 32` bits start at most 7 bits into the word), a
//! shift and a mask, and a row walk stops at its first pad code.
//!
//! [`FixedDegreeGraph`] stays the builders' mutable type; an index
//! packs it once ([`PackedGraph::pack`]) and unpacks only to rewrite it
//! ([`PackedGraph::unpack`]).

use crate::csr::FixedDegreeGraph;

/// Zero bytes after the last row: a word read at a row's last id stays
/// inside the buffer.
pub(crate) const TAIL_BYTES: usize = 8;

/// The width at which a packed graph of `n` vertices stores each id:
/// `bit_length(n)`, and 1 for the empty graph. Every id is below `n`,
/// and the all-ones code, one more than the largest id at best, pads.
pub fn id_bits(n: usize) -> u32 {
    usize::BITS - n.max(1).leading_zeros()
}

/// Bytes one row of `degree` ids at `w` bits takes in a packed graph:
/// `⌈degree·w / 8⌉`, or `None` when that overflows.
pub fn packed_row_bytes(degree: usize, w: u32) -> Option<usize> {
    degree.checked_mul(w as usize).map(|bits| bits.div_ceil(8))
}

/// The padding code of `w`-bit ids (`1 ≤ w ≤ 64`): all ones.
pub(crate) fn pad_code(w: u32) -> u64 {
    u64::MAX >> (64 - w)
}

/// A fixed out-degree graph whose ids are packed at `bit_length(n)`
/// bits (module docs). Two packed graphs are `==` exactly when they
/// hold the same rows: the form is canonical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedGraph {
    n: usize,
    degree: usize,
    w: u32,
    row_bytes: usize,
    /// `n` rows, then [`TAIL_BYTES`] zero bytes.
    pub(crate) bytes: Vec<u8>,
}

impl PackedGraph {
    /// A graph of `n` vertices and `degree` slots whose rows are all
    /// zero bytes (every id 0): the buffer a decoder fills, or `None`
    /// when its size overflows a `usize`.
    pub(crate) fn zeroed(n: usize, degree: usize) -> Option<Self> {
        let w = id_bits(n);
        let row_bytes = packed_row_bytes(degree, w)?;
        let len = row_bytes.checked_mul(n)?.checked_add(TAIL_BYTES)?;
        Some(Self { n, degree, w, row_bytes, bytes: vec![0; len] })
    }

    /// Packs `graph`: each row holds its valid neighbors in order, then
    /// padding.
    ///
    /// # Panics
    /// Panics if `graph.degree() == 0`.
    pub fn pack(graph: &FixedDegreeGraph) -> Self {
        let mut packed = Self::zeroed(graph.len(), graph.degree()).expect("an in-memory graph");
        let mut row = Vec::with_capacity(graph.degree());
        for v in 0..graph.len() as u32 {
            row.clear();
            row.extend(graph.neighbors(v));
            packed.write_row(v, &row);
        }
        packed
    }

    /// The mutable graph holding the same rows.
    pub fn unpack(&self) -> FixedDegreeGraph {
        let mut graph = FixedDegreeGraph::new(self.n, self.degree);
        let mut row = Vec::with_capacity(self.degree);
        for v in 0..self.n as u32 {
            row.clear();
            row.extend(self.neighbors(v));
            graph.set_row(v, &row);
        }
        graph
    }

    /// Writes `ids` (at most `degree`, each below `n`) as row `v`, then
    /// padding, the row's last pad bits zero.
    pub(crate) fn write_row(&mut self, v: u32, ids: &[u32]) {
        debug_assert!(ids.len() <= self.degree && ids.iter().all(|&u| (u as usize) < self.n));
        let (w, pad) = (self.w, pad_code(self.w));
        let start = v as usize * self.row_bytes;
        let row = &mut self.bytes[start..start + self.row_bytes];
        let codes = ids.iter().map(|&u| u64::from(u)).chain(std::iter::repeat(pad));
        // Bits not yet written, LSB first; fewer than 8 between ids.
        let (mut acc, mut held, mut at) = (0u64, 0u32, 0usize);
        for code in codes.take(self.degree) {
            acc |= code << held;
            held += w;
            while held >= 8 {
                row[at] = acc as u8;
                at += 1;
                acc >>= 8;
                held -= 8;
            }
        }
        if held > 0 {
            row[at] = acc as u8;
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Fixed number of neighbor slots per vertex.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Bits per id: [`id_bits`]`(n)`.
    #[inline]
    pub fn id_bits(&self) -> u32 {
        self.w
    }

    /// Bytes per row: [`packed_row_bytes`]`(degree, w)`.
    #[inline]
    pub fn row_bytes(&self) -> usize {
        self.row_bytes
    }

    /// The `n` packed rows, as the graph section stores them.
    pub fn rows(&self) -> &[u8] {
        &self.bytes[..self.bytes.len() - TAIL_BYTES]
    }

    /// The `n` packed rows, writable (a decoder fills them in place).
    pub(crate) fn rows_mut(&mut self) -> &mut [u8] {
        let rows = self.bytes.len() - TAIL_BYTES;
        &mut self.bytes[..rows]
    }

    /// The valid neighbors of `v`, in row order: the row's ids up to its
    /// first pad code.
    #[inline]
    pub fn neighbors(&self, v: u32) -> Neighbors<'_> {
        assert!((v as usize) < self.n, "vertex {v} out of range (n = {})", self.n);
        let start = v as usize * self.row_bytes;
        Neighbors {
            bytes: &self.bytes[start..],
            bit: 0,
            left: self.degree,
            w: self.w as usize,
            pad: pad_code(self.w),
        }
    }

    /// Hints the CPU to pull the packed row of `v` into cache ahead of
    /// expansion. Advisory only; never faults.
    #[inline]
    pub fn prefetch_row(&self, v: u32) {
        let start = v as usize * self.row_bytes;
        if let Some(row) = self.bytes.get(start..start + self.row_bytes) {
            algas_vector::simd::prefetch_span(row.as_ptr(), row.len());
        }
    }

    /// Bytes the graph holds in memory: the rows and their zero tail.
    pub fn nbytes(&self) -> usize {
        self.bytes.len()
    }
}

/// The valid neighbors of one packed row ([`PackedGraph::neighbors`]):
/// decodes one id per step and ends at the row's first pad code or its
/// `degree`-th id. Its upper size bound is what is left of the row.
#[derive(Clone, Debug)]
pub struct Neighbors<'a> {
    /// From the row's first byte to the end of the buffer, zero tail
    /// included.
    bytes: &'a [u8],
    bit: usize,
    left: usize,
    w: usize,
    pad: u64,
}

impl Iterator for Neighbors<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.left == 0 {
            return None;
        }
        let at = self.bit / 8;
        // An id of the row starts in its byte `at < row_bytes`, and the
        // row is followed by at least the buffer's 8-byte zero tail.
        debug_assert!(at + 8 <= self.bytes.len(), "word read past the zero tail");
        // SAFETY: `bytes` runs from the row's first byte to the end of a
        // buffer of `n · row_bytes + 8` bytes (`PackedGraph::zeroed`, the
        // only constructor), and this row is one of the `n`, so the
        // eight bytes from `at` lie inside it; the read is unaligned.
        let word = unsafe { self.bytes.as_ptr().add(at).cast::<u64>().read_unaligned() };
        let word = u64::from_le(word);
        let code = (word >> (self.bit % 8)) & self.pad;
        if code == self.pad {
            self.left = 0;
            return None;
        }
        self.left -= 1;
        self.bit += self.w;
        Some(code as u32)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A graph of `n` vertices and `degree` slots whose row `v` holds
    /// up to `lens[v % lens.len()]` ids: `picks` taken mod `n`, then
    /// the largest id, skipping `v` and repeats.
    fn graph(n: usize, degree: usize, lens: &[usize], picks: &[u32]) -> FixedDegreeGraph {
        let mut g = FixedDegreeGraph::new(n, degree);
        let mut row = Vec::new();
        for v in 0..n as u32 {
            let len = lens[v as usize % lens.len()].min(degree);
            row.clear();
            for u in picks.iter().map(|&p| p % n as u32).chain([n as u32 - 1]) {
                if row.len() < len && u != v && !row.contains(&u) {
                    row.push(u);
                }
            }
            g.set_row(v, &row);
        }
        g
    }

    /// `n` at each side of every width boundary up to 2^17.
    fn boundary_ns() -> Vec<usize> {
        let mut ns = vec![1, 2];
        for w in 2..=17 {
            let edge = 1usize << w;
            ns.extend([edge - 1, edge, edge + 1]);
        }
        ns
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// At every width boundary and degree 1–40, with full, short
        /// and empty rows: the packed graph yields the mutable graph's
        /// neighbors for every vertex, and unpacks to it.
        #[test]
        fn prop_packed_neighbors_equal_the_mutable_graphs(
            at in 0usize..50,
            degree in 1usize..41,
            lens in prop::collection::vec(0usize..41, 1..6),
            picks in prop::collection::vec(0u32..u32::MAX, 1..64),
        ) {
            let ns = boundary_ns();
            // Large corpora only at small degree, to keep a case cheap.
            let n = ns[at % ns.len()];
            let n = if n * degree > 600_000 { ns[at % 9] } else { n };
            let g = graph(n, degree, &lens, &picks);
            let p = PackedGraph::pack(&g);
            prop_assert_eq!(p.id_bits(), id_bits(n));
            prop_assert_eq!(p.nbytes(), n * p.row_bytes() + TAIL_BYTES);
            prop_assert!(p.bytes[p.nbytes() - TAIL_BYTES..].iter().all(|&b| b == 0));
            for v in 0..n as u32 {
                prop_assert_eq!(
                    p.neighbors(v).collect::<Vec<_>>(),
                    g.neighbors(v).collect::<Vec<_>>(),
                    "n = {}, degree = {}, v = {}", n, degree, v
                );
            }
            prop_assert_eq!(p.unpack(), g);
        }
    }

    #[test]
    fn every_width_boundary_and_degree_round_trips() {
        // Row lengths 0..=degree in turn: empty, short and full rows.
        let lens: Vec<usize> = (0..=40).collect();
        let picks: Vec<u32> = (0..97).map(|i| i * 7919 + 13).collect();
        for &n in boundary_ns().iter().filter(|&&n| n <= 4097) {
            for degree in 1..=40 {
                let g = graph(n, degree, &lens, &picks);
                let p = PackedGraph::pack(&g);
                for v in 0..n as u32 {
                    assert!(
                        p.neighbors(v).eq(g.neighbors(v)),
                        "n = {n}, degree = {degree}, v = {v}"
                    );
                }
                assert_eq!(p.unpack(), g, "n = {n}, degree = {degree}");
            }
        }
    }

    #[test]
    fn widths_and_sizes() {
        for (n, w) in [(0, 1), (1, 1), (2, 2), (3, 2), (4, 3), (10_000, 14), (16_384, 15)] {
            assert_eq!(id_bits(n), w, "n = {n}");
        }
        // The benchmark's graph: 10 000 rows of 32 ids at 14 bits.
        let p = PackedGraph::zeroed(10_000, 32).unwrap();
        assert_eq!((p.row_bytes(), p.nbytes()), (56, 560_008));
        assert!(PackedGraph::zeroed(usize::MAX / 4, 64).is_none());
    }

    #[test]
    fn full_rows_end_at_degree_and_empty_rows_at_once() {
        let mut g = FixedDegreeGraph::new(3, 2);
        g.set_row(0, &[1, 2]);
        let p = PackedGraph::pack(&g);
        assert_eq!(p.neighbors(0).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(p.neighbors(1).size_hint(), (0, Some(2)));
        assert_eq!(p.neighbors(1).next(), None);
        // The empty graph holds its tail alone.
        let empty = PackedGraph::pack(&FixedDegreeGraph::new(0, 4));
        assert_eq!((empty.nbytes(), empty.rows().len()), (TAIL_BYTES, 0));
        assert_eq!(empty.unpack(), FixedDegreeGraph::new(0, 4));
    }
}
