//! Canonical binary serialization of [`FixedDegreeGraph`],
//! [`NodePermutation`], and [`EntryIndex`].

use crate::csr::{FixedDegreeGraph, INVALID_ID};
use crate::entry::{DescentLadder, EntryIndex, HashEntryTable, NO_ENTRY};
use crate::layout::NodePermutation;
use algas_vector::binary::LeCursor;
use algas_vector::lsh::{HyperplaneHasher, MAX_SIGNATURE_BITS};
use std::io;

const GRAPH_MAGIC: u32 = 0x414C_4752; // "ALGR"
const PERM_MAGIC: u32 = 0x414C_504D; // "ALPM"
const ENTRY_MAGIC: u32 = 0x414C_4554; // "ALET"

/// Presence flag for the hash table part of an entry blob.
const ENTRY_HAS_HASH: u8 = 1;
/// Presence flag for the descent-ladder part of an entry blob.
const ENTRY_HAS_LADDER: u8 = 2;

/// Serializes a graph (including padding slots, so the roundtrip is
/// exact).
pub fn encode_graph(graph: &FixedDegreeGraph) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + graph.nbytes());
    buf.extend_from_slice(&GRAPH_MAGIC.to_le_bytes());
    buf.extend_from_slice(&(graph.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(graph.degree() as u32).to_le_bytes());
    for v in 0..graph.len() as u32 {
        for &u in graph.row(v) {
            buf.extend_from_slice(&u.to_le_bytes());
        }
    }
    buf
}

/// Deserializes a graph; rejects wrong magic, zero degree, truncation,
/// a header whose `n · degree · 4` does not fit a `usize`, and
/// structurally invalid rows.
pub fn decode_graph(data: &[u8]) -> io::Result<FixedDegreeGraph> {
    let mut data = LeCursor::new(data);
    if data.remaining() < 16 || data.u32()? != GRAPH_MAGIC {
        return Err(invalid("not a graph blob"));
    }
    let n = data.len_u64()?;
    let degree = data.u32()? as usize;
    let payload = n.checked_mul(degree).and_then(|c| c.checked_mul(4));
    if degree == 0 || payload != Some(data.remaining()) {
        return Err(invalid("graph blob truncated"));
    }
    let mut graph = FixedDegreeGraph::new(n, degree);
    let mut row = Vec::with_capacity(degree);
    for v in 0..n as u32 {
        row.clear();
        for _ in 0..degree {
            let u = data.u32()?;
            if u != INVALID_ID {
                row.push(u);
            }
        }
        if row.iter().any(|&u| u as usize >= n || u == v) {
            return Err(invalid("graph blob contains invalid edges"));
        }
        graph.set_row(v, &row);
    }
    Ok(graph)
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

/// Deserializes a node permutation; rejects wrong magic, truncation,
/// a length that does not fit a `usize`, and non-bijective maps.
pub fn decode_permutation(data: &[u8]) -> io::Result<NodePermutation> {
    let mut data = LeCursor::new(data);
    if data.remaining() < 12 || data.u32()? != PERM_MAGIC {
        return Err(invalid("not a permutation blob"));
    }
    let n = data.len_u64()?;
    if n.checked_mul(4) != Some(data.remaining()) {
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

/// Serializes an [`EntryIndex`]: a presence byte, then the hash table
/// (hyperplanes + representative table) and the descent ladder, each
/// length-free (shapes are fully determined by the header fields).
pub fn encode_entry_index(entry: &EntryIndex) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&ENTRY_MAGIC.to_le_bytes());
    let mut flags = 0u8;
    if entry.hash.is_some() {
        flags |= ENTRY_HAS_HASH;
    }
    if entry.ladder.is_some() {
        flags |= ENTRY_HAS_LADDER;
    }
    buf.push(flags);
    if let Some(t) = &entry.hash {
        let h = t.hasher();
        buf.extend_from_slice(&h.n_bits().to_le_bytes());
        buf.extend_from_slice(&t.reps_per_bucket().to_le_bytes());
        buf.extend_from_slice(&(h.dim() as u32).to_le_bytes());
        buf.extend_from_slice(&h.seed().to_le_bytes());
        for &p in h.planes() {
            buf.extend_from_slice(&p.to_le_bytes());
        }
        for &r in t.reps() {
            buf.extend_from_slice(&r.to_le_bytes());
        }
    }
    if let Some(l) = &entry.ladder {
        buf.extend_from_slice(&(l.top().len() as u64).to_le_bytes());
        buf.extend_from_slice(&(l.mid().len() as u64).to_le_bytes());
        for &v in l.top() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for &v in l.mid() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for &s in l.child_start() {
            buf.extend_from_slice(&s.to_le_bytes());
        }
    }
    buf
}

/// Deserializes an [`EntryIndex`] over a corpus of `n` vertices;
/// rejects wrong magic, truncation, malformed shapes, lengths that do
/// not fit a `usize`, and vertex ids outside the corpus.
pub fn decode_entry_index(data: &[u8], n: usize) -> io::Result<EntryIndex> {
    let mut data = LeCursor::new(data);
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
        // Both counts come from the header; the cursor refuses either
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
    let ladder = if flags & ENTRY_HAS_LADDER != 0 {
        if data.remaining() < 16 {
            return Err(invalid("entry-index blob truncated"));
        }
        let n_top = data.len_u64()?;
        let n_mid = data.len_u64()?;
        if n_top == 0 || n_top > DescentLadder::TOP_CAP || n_mid < n_top {
            return Err(invalid("entry-index ladder has a malformed shape"));
        }
        // `n_top` is at most `TOP_CAP`, so only `n_mid` can overflow.
        let words = n_mid.checked_add(2 * n_top + 1).and_then(|w| w.checked_mul(4));
        if words != Some(data.remaining()) {
            return Err(invalid("entry-index blob truncated"));
        }
        let top = data.u32s(n_top)?;
        let mid = data.u32s(n_mid)?;
        if top.iter().chain(&mid).any(|&v| v as usize >= n) {
            return Err(invalid("entry-index pivot out of range"));
        }
        let child_start = data.u32s(n_top + 1)?;
        if child_start[0] != 0
            || *child_start.last().unwrap() as usize != n_mid
            || child_start.windows(2).any(|w| w[0] > w[1])
        {
            return Err(invalid("entry-index ladder boundaries are inconsistent"));
        }
        Some(DescentLadder::from_parts(top, mid, child_start))
    } else {
        None
    };
    if data.remaining() > 0 {
        return Err(invalid("entry-index blob has trailing bytes"));
    }
    Ok(EntryIndex { hash, ladder })
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_padding() {
        let mut g = FixedDegreeGraph::new(4, 3);
        g.set_row(0, &[1, 2]);
        g.set_row(3, &[0]);
        assert_eq!(decode_graph(&encode_graph(&g)).unwrap(), g);
    }

    #[test]
    fn rejects_bad_blobs() {
        assert!(decode_graph(&[1, 2, 3]).is_err());
        let mut blob = encode_graph(&FixedDegreeGraph::new(2, 2));
        blob.truncate(blob.len() - 2);
        assert!(decode_graph(&blob).is_err());
        // n · degree · 4 wraps to the (empty) payload length.
        let mut wrapped = GRAPH_MAGIC.to_le_bytes().to_vec();
        wrapped.extend_from_slice(&(1u64 << 62).to_le_bytes());
        wrapped.extend_from_slice(&1u32.to_le_bytes());
        assert!(decode_graph(&wrapped).is_err());
    }

    #[test]
    fn permutation_roundtrip_and_rejects() {
        let p = NodePermutation::from_new_to_old(vec![2, 0, 1, 3]);
        assert_eq!(decode_permutation(&encode_permutation(&p)).unwrap(), p);
        // Identity roundtrips too.
        let id = NodePermutation::identity(6);
        assert_eq!(decode_permutation(&encode_permutation(&id)).unwrap(), id);
        // Garbage and non-bijections are rejected.
        assert!(decode_permutation(&[9, 9]).is_err());
        let mut buf = PERM_MAGIC.to_le_bytes().to_vec();
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes()); // old id 1 mapped twice
        assert!(decode_permutation(&buf).is_err());
        // n · 4 wraps to the (empty) payload length.
        let mut wrapped = PERM_MAGIC.to_le_bytes().to_vec();
        wrapped.extend_from_slice(&(1u64 << 62).to_le_bytes());
        assert!(decode_permutation(&wrapped).is_err());
    }

    #[test]
    fn entry_index_roundtrips() {
        use crate::entry::EntryParams;
        use algas_vector::datasets::DatasetSpec;
        use algas_vector::Metric;
        let base = DatasetSpec::tiny(300, 8, Metric::L2, 0x77).generate().base;
        let params = EntryParams { n_bits: Some(5), ..EntryParams::default() };
        let e = EntryIndex::build(&base, None, Metric::L2, &params);
        let blob = encode_entry_index(&e);
        assert_eq!(decode_entry_index(&blob, base.len()).unwrap(), e);
        // Hash-only and ladder-only blobs roundtrip too.
        let hash_only = EntryIndex { hash: e.hash.clone(), ladder: None };
        let blob = encode_entry_index(&hash_only);
        assert_eq!(decode_entry_index(&blob, base.len()).unwrap(), hash_only);
        let ladder_only = EntryIndex { hash: None, ladder: e.ladder.clone() };
        let blob = encode_entry_index(&ladder_only);
        assert_eq!(decode_entry_index(&blob, base.len()).unwrap(), ladder_only);
    }

    #[test]
    fn entry_index_rejects_bad_blobs() {
        use crate::entry::EntryParams;
        use algas_vector::datasets::DatasetSpec;
        use algas_vector::Metric;
        assert!(decode_entry_index(&[1, 2, 3], 10).is_err());
        let base = DatasetSpec::tiny(200, 6, Metric::L2, 0x78).generate().base;
        let params = EntryParams { n_bits: Some(4), ..EntryParams::default() };
        let e = EntryIndex::build(&base, None, Metric::L2, &params);
        let good = encode_entry_index(&e);
        // Truncation.
        assert!(decode_entry_index(&good[..good.len() - 2], base.len()).is_err());
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(decode_entry_index(&bad, base.len()).is_err());
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_entry_index(&long, base.len()).is_err());
        // Representatives referencing a smaller corpus are rejected.
        assert!(decode_entry_index(&good, 3).is_err());
        // A ladder whose (2·n_top + n_mid + 1) · 4 wraps to the
        // (empty) payload length.
        let mut wrapped = ENTRY_MAGIC.to_le_bytes().to_vec();
        wrapped.push(ENTRY_HAS_LADDER);
        wrapped.extend_from_slice(&1u64.to_le_bytes());
        wrapped.extend_from_slice(&((1u64 << 62) - 3).to_le_bytes());
        assert!(decode_entry_index(&wrapped, base.len()).is_err());
    }

    #[test]
    fn rejects_out_of_range_edges() {
        // Hand-craft a blob with an edge pointing past n.
        let mut buf = GRAPH_MAGIC.to_le_bytes().to_vec();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&7u32.to_le_bytes()); // vertex 7 doesn't exist in a 1-vertex graph
        assert!(decode_graph(&buf).is_err());
    }
}
