//! Canonical binary serialization of [`PackedGraph`],
//! [`NodePermutation`], and [`HashEntryTable`]: each encoder builds its
//! section as one blob, and each decoder reads its section from an
//! `io::Read` straight into the structure it fills (see
//! `algas_vector::binary`).
//!
//! # Graph sections
//!
//! [`encode_graph`] writes the *packed* form (magic `ALGP`): a 20-byte
//! header — magic, `n` as `u64`, `degree` and `w` as `u32` — then one
//! row per vertex of `degree` ids at `w = bit_length(max(n, 1))` bits
//! each ([`id_bits`]). Ids are packed LSB-first: id `j` of a row holds
//! bits `j·w .. (j + 1)·w` of the row, and bit `b` of the row is bit
//! `b % 8` of its byte `b / 8`. Each row is padded to whole bytes,
//! [`packed_row_bytes`] of them. The all-ones code `2^w − 1` is the
//! padding slot: `2^w − 1 ≥ n`, so it never names a vertex. The form is
//! canonical — `w` is fixed by `n`, a row's trailing pad bits are zero,
//! and padding only follows a row's ids — so a graph has exactly one
//! packed encoding.
//!
//! The rows are [`PackedGraph`]'s own bytes: the encoder writes them
//! after the header as they are, and [`decode_graph`] reads the section
//! into the graph's buffer in one read, then checks every row in place.
//! Nothing is expanded to `u32`s on either side.
//!
//! [`decode_graph`] also reads the legacy form (magic `ALGR`) that index
//! formats 1–5 and older benchmark caches hold: a 16-byte header (magic,
//! `n` as `u64`, `degree` as `u32`) and every id as a little-endian
//! `u32`, `u32::MAX` for padding. It packs each row as it reads it.

use crate::csr::INVALID_ID;
use crate::entry::{HashEntryTable, NO_ENTRY};
use crate::layout::NodePermutation;
use crate::packed::{id_bits, packed_row_bytes, pad_code, PackedGraph};
use algas_vector::binary::LeReader;
use algas_vector::lsh::{HyperplaneHasher, MAX_SIGNATURE_BITS};
use std::io::{self, Read};

const GRAPH_MAGIC: u32 = 0x414C_4752; // "ALGR"
const PACKED_GRAPH_MAGIC: u32 = 0x414C_4750; // "ALGP"
const PERM_MAGIC: u32 = 0x414C_504D; // "ALPM"
const ENTRY_MAGIC: u32 = 0x414C_4554; // "ALET"

/// Bytes before a packed graph's rows: magic, `n`, `degree`, `w`.
const PACKED_HEADER_LEN: usize = 20;

/// Presence flag for the hash table part of an entry blob.
const ENTRY_HAS_HASH: u8 = 1;
/// Presence flag for the descent-ladder part of an entry blob, which
/// older builds wrote and this one skips.
const ENTRY_HAS_LADDER: u8 = 2;

/// Serializes a graph in the packed form (module docs): the header,
/// then the graph's rows as it holds them.
pub fn encode_graph(graph: &PackedGraph) -> Vec<u8> {
    let rows = graph.rows();
    let mut buf = Vec::with_capacity(PACKED_HEADER_LEN + rows.len());
    buf.extend_from_slice(&PACKED_GRAPH_MAGIC.to_le_bytes());
    buf.extend_from_slice(&(graph.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(graph.degree() as u32).to_le_bytes());
    buf.extend_from_slice(&graph.id_bits().to_le_bytes());
    buf.extend_from_slice(rows);
    buf
}

/// Deserializes a `len`-byte graph section from `r`, packed or legacy
/// (module docs), reading exactly `len` bytes. Rejects wrong magic,
/// zero degree and truncation; a header whose rows are not what the
/// section holds, or a packed width other than [`id_bits`]`(n)`, before
/// the graph is reserved; and then rows holding an id out of range, a
/// self-loop, an id after padding, or non-zero pad bits.
pub fn decode_graph<R: Read>(r: R, len: u64) -> io::Result<PackedGraph> {
    let mut data = LeReader::new(r, len);
    if data.remaining() < 16 {
        return Err(invalid("not a graph blob"));
    }
    match data.u32()? {
        GRAPH_MAGIC => decode_legacy_graph(data),
        PACKED_GRAPH_MAGIC => decode_packed_graph(data),
        _ => Err(invalid("not a graph blob")),
    }
}

/// The legacy `u32` rows after their magic, each packed as it is read.
fn decode_legacy_graph<R: Read>(mut data: LeReader<R>) -> io::Result<PackedGraph> {
    let n = data.len_u64()?;
    let degree = data.u32()? as usize;
    let payload = n.checked_mul(degree).and_then(|c| c.checked_mul(4));
    if degree == 0 || payload.map(|p| p as u64) != Some(data.remaining()) {
        return Err(invalid("graph blob truncated"));
    }
    // The payload check bounds a row by the section only when there is
    // one: a header of no rows sizes nothing by its `degree`.
    let width = if n == 0 { 0 } else { degree };
    let mut graph =
        PackedGraph::zeroed(n, degree).ok_or_else(|| invalid("graph blob truncated"))?;
    let (mut bytes, mut row) = (vec![0u8; width * 4], Vec::with_capacity(width));
    for v in 0..n as u32 {
        data.fill(&mut bytes)?;
        row.clear();
        row.extend(
            bytes
                .chunks_exact(4)
                .map(|w| u32::from_le_bytes(w.try_into().expect("chunks of 4")))
                .filter(|&u| u != INVALID_ID),
        );
        if row.iter().any(|&u| u as usize >= n || u == v) {
            return Err(invalid("graph blob contains invalid edges"));
        }
        graph.write_row(v, &row);
    }
    Ok(graph)
}

/// The packed rows after their magic, read into the graph in one fill
/// and checked in place.
fn decode_packed_graph<R: Read>(mut data: LeReader<R>) -> io::Result<PackedGraph> {
    if data.remaining() < (PACKED_HEADER_LEN - 4) as u64 {
        return Err(invalid("packed graph header truncated"));
    }
    let n = data.len_u64()?;
    let degree = data.u32()? as usize;
    let w = data.u32()?;
    if degree == 0 {
        return Err(invalid("packed graph has degree 0"));
    }
    if !(1..=32).contains(&w) {
        return Err(invalid(&format!("packed graph ids are {w} bits wide, not 1 to 32")));
    }
    if w != id_bits(n) {
        return Err(invalid(&format!(
            "packed graph ids are {w} bits wide, {n} vertices take {}",
            id_bits(n)
        )));
    }
    let payload = packed_row_bytes(degree, w).and_then(|b| b.checked_mul(n));
    if payload.map(|p| p as u64) != Some(data.remaining()) {
        return Err(invalid(&format!(
            "packed graph holds {} row bytes, {n} rows of {degree} ids at {w} bits take {}",
            data.remaining(),
            payload.map_or("more than a usize".to_string(), |p| p.to_string())
        )));
    }
    let mut graph = PackedGraph::zeroed(n, degree)
        .ok_or_else(|| invalid("packed graph exceeds the address space"))?;
    // The rows alone: the zero tail after them is never read into.
    data.fill(graph.rows_mut())?;
    check_packed_rows(&graph)?;
    Ok(graph)
}

/// The first packed row of `graph` that names no row of a graph: an id
/// `≥ n` that is not the pad code, a self-loop, an id after padding, or
/// non-zero pad bits.
fn check_packed_rows(graph: &PackedGraph) -> io::Result<()> {
    let (n, degree, row_bytes) = (graph.len(), graph.degree(), graph.row_bytes());
    let (w, pad) = (graph.id_bits() as usize, pad_code(graph.id_bits()));
    // Bits of a row's last byte past its last id: zero in a canonical row.
    let tail_bits = (8 - degree * w % 8) % 8;
    for v in 0..n {
        // The row and, past its end, the next row's bytes or the zero
        // tail: every id is one unaligned word read.
        let bytes = &graph.bytes[v * row_bytes..];
        let mut ids = 0;
        for slot in 0..degree {
            let bit = slot * w;
            let word = u64::from_le_bytes(bytes[bit / 8..bit / 8 + 8].try_into().expect("8 bytes"));
            let code = (word >> (bit % 8)) & pad;
            if code == pad {
                continue;
            }
            if ids < slot {
                return Err(invalid(&format!("packed graph row {v} holds an id after padding")));
            }
            if code >= n as u64 || code == v as u64 {
                return Err(invalid(&format!("packed graph row {v} holds an invalid id {code}")));
            }
            ids += 1;
        }
        if tail_bits > 0 && bytes[row_bytes - 1] >> (8 - tail_bits) != 0 {
            return Err(invalid(&format!("packed graph row {v} has non-zero pad bits")));
        }
    }
    Ok(())
}

/// Serializes a node permutation (its `new → old` side only — the
/// inverse is rebuilt on decode).
pub fn encode_permutation(perm: &NodePermutation) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12 + perm.len() * 4);
    buf.extend_from_slice(&PERM_MAGIC.to_le_bytes());
    buf.extend_from_slice(&(perm.len() as u64).to_le_bytes());
    for &old in perm.new_to_old() {
        buf.extend_from_slice(&old.to_le_bytes());
    }
    buf
}

/// Deserializes a `len`-byte permutation section from `r`, reading
/// exactly `len` bytes; rejects wrong magic, truncation, a length that
/// is not what the section holds, and non-bijective maps.
pub fn decode_permutation<R: Read>(r: R, len: u64) -> io::Result<NodePermutation> {
    let mut data = LeReader::new(r, len);
    if data.remaining() < 12 || data.u32()? != PERM_MAGIC {
        return Err(invalid("not a permutation blob"));
    }
    let n = data.len_u64()?;
    if n.checked_mul(4).map(|p| p as u64) != Some(data.remaining()) {
        return Err(invalid("permutation blob truncated"));
    }
    let new_to_old = data.u32s(n)?;
    let mut seen = vec![false; n];
    for &old in &new_to_old {
        if old as usize >= n || seen[old as usize] {
            return Err(invalid("permutation blob is not a bijection"));
        }
        seen[old as usize] = true;
    }
    Ok(NodePermutation::from_new_to_old(new_to_old))
}

/// Serializes a [`HashEntryTable`] as an entry blob: a presence byte,
/// then the hyperplanes and the representative table, length-free
/// (their shapes are fully determined by the header fields).
pub fn encode_entry_index(table: &HashEntryTable) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&ENTRY_MAGIC.to_le_bytes());
    buf.push(ENTRY_HAS_HASH);
    let h = table.hasher();
    buf.extend_from_slice(&h.n_bits().to_le_bytes());
    buf.extend_from_slice(&table.reps_per_bucket().to_le_bytes());
    buf.extend_from_slice(&(h.dim() as u32).to_le_bytes());
    buf.extend_from_slice(&h.seed().to_le_bytes());
    for &p in h.planes() {
        buf.extend_from_slice(&p.to_le_bytes());
    }
    for &r in table.reps() {
        buf.extend_from_slice(&r.to_le_bytes());
    }
    buf
}

/// Deserializes a `len`-byte entry section from `r` over a corpus of
/// `n` vertices into its hash table (`None` when the section carries
/// none), reading exactly `len` bytes. A descent-ladder part, which
/// older builds appended, is bounds-checked and skipped. Rejects wrong
/// magic, truncation, trailing bytes, malformed shapes, lengths that do
/// not fit a `usize`, and representatives outside the corpus.
pub fn decode_entry_index<R: Read>(r: R, len: u64, n: usize) -> io::Result<Option<HashEntryTable>> {
    let mut data = LeReader::new(r, len);
    if data.remaining() < 5 || data.u32()? != ENTRY_MAGIC {
        return Err(invalid("not an entry-index blob"));
    }
    let flags = data.u8()?;
    if flags & !(ENTRY_HAS_HASH | ENTRY_HAS_LADDER) != 0 {
        return Err(invalid("entry-index blob has unknown sections"));
    }
    let hash = if flags & ENTRY_HAS_HASH != 0 {
        if data.remaining() < 20 {
            return Err(invalid("entry-index blob truncated"));
        }
        let n_bits = data.u32()?;
        let rpb = data.u32()? as usize;
        let dim = data.u32()? as usize;
        let seed = data.u64()?;
        if n_bits == 0 || n_bits > MAX_SIGNATURE_BITS || rpb == 0 || dim == 0 {
            return Err(invalid("entry-index hash table has a malformed shape"));
        }
        // Both counts come from the header; the reader refuses either
        // if its byte length overflows or exceeds what is left.
        let plane_len = (n_bits as usize).checked_mul(dim);
        let rep_len = (1usize << n_bits).checked_mul(rpb);
        let (Some(plane_len), Some(rep_len)) = (plane_len, rep_len) else {
            return Err(invalid("entry-index blob truncated"));
        };
        let planes = data.f32s(plane_len)?;
        let reps = data.u32s(rep_len)?;
        if reps.iter().any(|&r| r != NO_ENTRY && r as usize >= n) {
            return Err(invalid("entry-index representative out of range"));
        }
        let hasher = HyperplaneHasher::from_parts(dim, n_bits, seed, planes);
        Some(HashEntryTable::from_parts(hasher, reps, rpb as u32))
    } else {
        None
    };
    if flags & ENTRY_HAS_LADDER != 0 {
        // Top and mid pivot counts, then `n_top + n_mid` pivot ids and
        // `n_top + 1` group boundaries: it must fill the rest exactly.
        if data.remaining() < 16 {
            return Err(invalid("entry-index blob truncated"));
        }
        let n_top = data.len_u64()?;
        let n_mid = data.len_u64()?;
        let words = n_top
            .checked_mul(2)
            .and_then(|w| w.checked_add(n_mid))
            .and_then(|w| w.checked_add(1))
            .and_then(|w| w.checked_mul(4));
        if words.map(|w| w as u64) != Some(data.remaining()) {
            return Err(invalid("entry-index blob truncated"));
        }
        data.skip(data.remaining())?;
    }
    if data.remaining() > 0 {
        return Err(invalid("entry-index blob has trailing bytes"));
    }
    Ok(hash)
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::FixedDegreeGraph;

    /// Decodes a whole blob as one graph section, unpacked.
    fn graph(blob: &[u8]) -> io::Result<FixedDegreeGraph> {
        decode_graph(blob, blob.len() as u64).map(|g| g.unpack())
    }

    /// The packed section of a mutable graph.
    fn encode(g: &FixedDegreeGraph) -> Vec<u8> {
        encode_graph(&PackedGraph::pack(g))
    }

    /// Decodes a whole blob as one permutation section.
    fn permutation(blob: &[u8]) -> io::Result<NodePermutation> {
        decode_permutation(blob, blob.len() as u64)
    }

    /// Decodes a whole blob as one entry section over `n` vertices.
    fn entry(blob: &[u8], n: usize) -> io::Result<Option<HashEntryTable>> {
        decode_entry_index(blob, blob.len() as u64, n)
    }

    #[test]
    fn roundtrip_with_padding() {
        let mut g = FixedDegreeGraph::new(4, 3);
        g.set_row(0, &[1, 2]);
        g.set_row(3, &[0]);
        assert_eq!(graph(&encode(&g)).unwrap(), g);
    }

    #[test]
    fn rejects_bad_blobs() {
        assert!(graph(&[1, 2, 3]).is_err());
        let mut blob = encode(&FixedDegreeGraph::new(2, 2));
        blob.truncate(blob.len() - 2);
        assert!(graph(&blob).is_err());
        // n · degree · 4 wraps to the (empty) payload length.
        let mut wrapped = GRAPH_MAGIC.to_le_bytes().to_vec();
        wrapped.extend_from_slice(&(1u64 << 62).to_le_bytes());
        wrapped.extend_from_slice(&1u32.to_le_bytes());
        assert!(graph(&wrapped).is_err());
    }

    #[test]
    fn permutation_roundtrip_and_rejects() {
        let p = NodePermutation::from_new_to_old(vec![2, 0, 1, 3]);
        assert_eq!(permutation(&encode_permutation(&p)).unwrap(), p);
        // Identity roundtrips too.
        let id = NodePermutation::identity(6);
        assert_eq!(permutation(&encode_permutation(&id)).unwrap(), id);
        // Garbage and non-bijections are rejected.
        assert!(permutation(&[9, 9]).is_err());
        let mut buf = PERM_MAGIC.to_le_bytes().to_vec();
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // old id 1 mapped twice
        assert!(permutation(&buf).is_err());
        // n · 4 wraps to the (empty) payload length.
        let mut wrapped = PERM_MAGIC.to_le_bytes().to_vec();
        wrapped.extend_from_slice(&(1u64 << 62).to_le_bytes());
        assert!(permutation(&wrapped).is_err());
    }

    /// A table over a tiny corpus of `n` rows, `bits` signature bits.
    fn table(n: usize, dim: usize, seed: u64, bits: u32) -> HashEntryTable {
        use crate::entry::EntryParams;
        use algas_vector::datasets::DatasetSpec;
        use algas_vector::Metric;
        let base = DatasetSpec::tiny(n, dim, Metric::L2, seed).generate().base;
        let params = EntryParams { n_bits: Some(bits), ..EntryParams::default() };
        HashEntryTable::build(&base, None, Metric::L2, &params)
    }

    /// `blob` with a descent-ladder section of `n_top` top pivots and
    /// `n_mid` mid pivots appended, as older builds wrote it.
    fn with_ladder(mut blob: Vec<u8>, n_top: u32, n_mid: u32) -> Vec<u8> {
        blob[4] |= ENTRY_HAS_LADDER;
        blob.extend_from_slice(&u64::from(n_top).to_le_bytes());
        blob.extend_from_slice(&u64::from(n_mid).to_le_bytes());
        let ids = (0..n_top + n_mid).chain((0..=n_top).map(|t| t * n_mid / n_top));
        for v in ids {
            blob.extend_from_slice(&v.to_le_bytes());
        }
        blob
    }

    #[test]
    fn entry_index_roundtrips() {
        let t = table(300, 8, 0x77, 5);
        let blob = encode_entry_index(&t);
        assert_eq!(entry(&blob, 300).unwrap(), Some(t.clone()));
        // A ladder section is skipped; without a table there is none.
        assert_eq!(entry(&with_ladder(blob, 4, 9), 300).unwrap(), Some(t));
        let ladder_only = with_ladder([&ENTRY_MAGIC.to_le_bytes()[..], &[0]].concat(), 4, 9);
        assert_eq!(entry(&ladder_only, 300).unwrap(), None);
    }

    #[test]
    fn entry_index_rejects_bad_blobs() {
        assert!(entry(&[1, 2, 3], 10).is_err());
        let n = 200;
        let good = encode_entry_index(&table(n, 6, 0x78, 4));
        // Truncation.
        assert!(entry(&good[..good.len() - 2], n).is_err());
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(entry(&bad, n).is_err());
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(entry(&long, n).is_err());
        // Representatives referencing a smaller corpus are rejected.
        assert!(entry(&good, 3).is_err());
        // A ladder section one word short of its counts.
        let mut short = with_ladder(good.clone(), 4, 9);
        short.truncate(short.len() - 4);
        assert!(entry(&short, n).is_err());
        // A ladder whose (2·n_top + n_mid + 1) · 4 wraps to the
        // (empty) payload length.
        let mut wrapped = ENTRY_MAGIC.to_le_bytes().to_vec();
        wrapped.push(ENTRY_HAS_LADDER);
        wrapped.extend_from_slice(&1u64.to_le_bytes());
        wrapped.extend_from_slice(&((1u64 << 62) - 3).to_le_bytes());
        assert!(entry(&wrapped, n).is_err());
    }

    #[test]
    fn rejects_out_of_range_edges() {
        // Hand-craft a blob with an edge pointing past n.
        let mut buf = GRAPH_MAGIC.to_le_bytes().to_vec();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&7u32.to_le_bytes()); // vertex 7 doesn't exist in a 1-vertex graph
        assert!(graph(&buf).is_err());
    }

    /// The legacy encoding that index formats 1–5 hold: every id a
    /// little-endian `u32`.
    fn legacy_blob(g: &FixedDegreeGraph) -> Vec<u8> {
        let mut buf = GRAPH_MAGIC.to_le_bytes().to_vec();
        buf.extend_from_slice(&(g.len() as u64).to_le_bytes());
        buf.extend_from_slice(&(g.degree() as u32).to_le_bytes());
        for v in 0..g.len() as u32 {
            for &u in g.row(v) {
                buf.extend_from_slice(&u.to_le_bytes());
            }
        }
        buf
    }

    /// `n` vertices of `degree` slots; row `v` holds `v mod (degree + 1)`
    /// ids (at most `n - 1`), the vertices after `v` in ring order, so
    /// rows run from empty to full and reach the largest id.
    fn ring(n: usize, degree: usize) -> FixedDegreeGraph {
        let mut g = FixedDegreeGraph::new(n, degree);
        for v in 0..n {
            let count = (v % (degree + 1)).min(n - 1);
            let row: Vec<u32> = (1..=count).map(|j| ((v + j) % n) as u32).collect();
            g.set_row(v as u32, &row);
        }
        g
    }

    #[test]
    fn packed_roundtrip_across_id_widths() {
        for (n, w) in [(0, 1), (1, 1), (2, 2), (7, 3), (8, 4), (9, 4), (255, 8), (256, 9), (257, 9)]
        {
            assert_eq!(id_bits(n), w, "n = {n}");
            // Degrees whose row of degree·w bits ends inside a byte.
            for degree in [3, 5, 7] {
                let g = ring(n, degree);
                let blob = encode(&g);
                let row_bytes = (degree * w as usize).div_ceil(8);
                assert_eq!(blob.len(), PACKED_HEADER_LEN + n * row_bytes, "n = {n}, d = {degree}");
                assert_eq!(graph(&blob).unwrap(), g, "n = {n}, degree = {degree}");
                // The legacy form of the same graph decodes to it too.
                assert_eq!(graph(&legacy_blob(&g)).unwrap(), g, "n = {n}, degree = {degree}");
            }
        }
        // The widest ids a 2^16-vertex corpus needs, 17 bits.
        for n in [(1 << 16) - 1, 1 << 16, (1 << 16) + 1] {
            let g = ring(n, 3);
            assert_eq!(graph(&encode(&g)).unwrap(), g, "n = {n}");
        }
    }

    #[test]
    fn packed_ids_are_lsb_first() {
        // n = 5: 3-bit ids, pad code 7. Row 0 = [1, 4, pad] is
        // 001 | 100 | 111 from bit 0 up: 0b1110_0001, then 0b1 and
        // seven zero pad bits.
        let mut g = FixedDegreeGraph::new(5, 3);
        g.set_row(0, &[1, 4]);
        let blob = encode(&g);
        assert_eq!(blob[16..20], 3u32.to_le_bytes());
        assert_eq!(blob[20..22], [0b1110_0001, 0b1]);
        // The four empty rows: nine one bits each.
        assert_eq!(blob[22..], [0xFF, 0b1].repeat(4));
    }

    /// The error a packed blob gets, which must be `InvalidData`.
    fn refused(blob: &[u8]) -> String {
        let err = graph(blob).expect_err("a hostile packed blob must not decode");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        err.to_string()
    }

    #[test]
    fn packed_rejects_hostile_blobs() {
        // n = 6 (3-bit ids, pad 7), degree 3: 9 bits, 2 bytes a row.
        let mut g = FixedDegreeGraph::new(6, 3);
        g.set_row(0, &[1, 2]);
        let good = encode(&g);
        assert_eq!(graph(&good).unwrap(), g);
        let with_width = |w: u32| {
            let mut b = good.clone();
            b[16..20].copy_from_slice(&w.to_le_bytes());
            b
        };
        // Widths other than bit_length(n), zero and past 32 included.
        for w in [0, 2, 4, 32, 33, u32::MAX] {
            assert!(refused(&with_width(w)).contains("bits wide"), "w = {w}");
        }
        // Section lengths other than header + n · ⌈degree·w/8⌉.
        assert!(refused(&good[..good.len() - 1]).contains("row bytes"));
        assert!(refused(&[&good[..], &[0]].concat()).contains("row bytes"));
        assert!(refused(&good[..18]).contains("header truncated"));
        // Degree 0.
        let mut zero = good.clone();
        zero[12..16].copy_from_slice(&0u32.to_le_bytes());
        assert!(refused(&zero).contains("degree 0"));
        // Row 0 is bytes 20..22: [1, 2, pad] = 001 010 111 → 0xD1, 0x01.
        assert_eq!(good[20..22], [0xD1, 0x01]);
        let with_row0 = |bytes: [u8; 2]| [&good[..20], &bytes, &good[22..]].concat();
        // A non-zero pad bit.
        assert!(refused(&with_row0([0xD1, 0x81])).contains("pad bits"));
        // Id 6 (≥ n, not the pad code 7) first.
        assert!(refused(&with_row0([0xD6, 0x01])).contains("invalid id 6"));
        // A self-loop: id 0 in row 0.
        assert!(refused(&with_row0([0xD0, 0x01])).contains("invalid id 0"));
        // An id after padding: [pad, 2, pad].
        assert!(refused(&with_row0([0xD7, 0x01])).contains("after padding"));
        // n · row_bytes wraps to the (empty) payload length.
        let mut wrapped = PACKED_GRAPH_MAGIC.to_le_bytes().to_vec();
        wrapped.extend_from_slice(&(1u64 << 62).to_le_bytes());
        wrapped.extend_from_slice(&32u32.to_le_bytes());
        wrapped.extend_from_slice(&63u32.to_le_bytes());
        assert!(refused(&wrapped).contains("bits wide"));
        let mut wrapped = PACKED_GRAPH_MAGIC.to_le_bytes().to_vec();
        wrapped.extend_from_slice(&((1u64 << 31) - 1).to_le_bytes());
        wrapped.extend_from_slice(&u32::MAX.to_le_bytes());
        wrapped.extend_from_slice(&31u32.to_le_bytes());
        assert!(refused(&wrapped).contains("row bytes"));
    }

    #[test]
    fn packed_rejects_hostile_last_rows() {
        // n = 6 (3-bit ids, pad 7), degree 3, 2 bytes a row: the last
        // row is the section's last two bytes, and a word read at its
        // last id reaches into the zero tail.
        let mut g = FixedDegreeGraph::new(6, 3);
        g.set_row(5, &[4]);
        let good = encode(&g);
        assert_eq!(graph(&good).unwrap(), g);
        let last = good.len() - 2;
        // [4, pad, pad] = 100 111 111 → 0xFC, 0x01.
        assert_eq!(good[last..], [0xFC, 0x01]);
        let with_last = |bytes: [u8; 2]| [&good[..last], &bytes].concat();
        // Id 6 = n, the smallest code that is neither an id nor the pad.
        assert!(refused(&with_last([0xFE, 0x01])).contains("row 5 holds an invalid id 6"));
        // An id after a pad code: [pad, 2, pad].
        assert!(refused(&with_last([0xD7, 0x01])).contains("row 5 holds an id after padding"));
        // A non-zero pad bit in the section's final byte.
        assert!(refused(&with_last([0xFC, 0x81])).contains("row 5 has non-zero pad bits"));
        assert!(refused(&with_last([0xFC, 0x03])).contains("row 5 has non-zero pad bits"));
    }

    #[test]
    fn the_zero_tail_is_never_read_from_the_input() {
        let mut g = FixedDegreeGraph::new(6, 3);
        g.set_row(5, &[4]);
        for blob in [encode(&g), legacy_blob(&g)] {
            // The section, then bytes of all ones the decoder must not
            // read: its rows end the section, and the tail stays zero.
            let input = [&blob[..], &[0xFF; 16]].concat();
            let mut r = &input[..];
            let packed = decode_graph(&mut r, blob.len() as u64).unwrap();
            assert_eq!(r.len(), 16, "the decoder read past its section");
            assert_eq!(packed.rows(), &encode(&g)[PACKED_HEADER_LEN..]);
            assert_eq!(packed.nbytes(), packed.rows().len() + 8);
            assert_eq!(packed.bytes[packed.rows().len()..], [0; 8]);
            assert_eq!(packed.unpack(), g);
        }
    }

    /// The encoder format 6 was written with, row by row from the `u32`
    /// rows of the mutable graph: the bytes every format-6 file holds.
    fn row_at_a_time(graph: &FixedDegreeGraph) -> Vec<u8> {
        let (n, degree) = (graph.len(), graph.degree());
        let w = id_bits(n);
        let pad = pad_code(w);
        let mut buf = PACKED_GRAPH_MAGIC.to_le_bytes().to_vec();
        buf.extend_from_slice(&(n as u64).to_le_bytes());
        buf.extend_from_slice(&(degree as u32).to_le_bytes());
        buf.extend_from_slice(&w.to_le_bytes());
        for v in 0..n as u32 {
            let (mut acc, mut held) = (0u64, 0u32);
            for &u in graph.row(v) {
                let code = if u == INVALID_ID { pad } else { u64::from(u) };
                acc |= code << held;
                held += w;
                while held >= 8 {
                    buf.push(acc as u8);
                    acc >>= 8;
                    held -= 8;
                }
            }
            if held > 0 {
                buf.push(acc as u8);
            }
        }
        buf
    }

    #[test]
    fn encode_writes_the_row_at_a_time_bytes() {
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257, 1023, 1024, 1025] {
            for degree in 1..=40 {
                let g = ring(n, degree);
                assert_eq!(encode(&g), row_at_a_time(&g), "n = {n}, degree = {degree}");
            }
        }
    }
}
