//! Index persistence: one self-describing file holding the corpus, the
//! graph, and the index metadata, so a built index can be shipped and
//! served without rebuilding.
//!
//! [`write_index`] encodes each section as a blob before writing it
//! (saving happens once, after a build whose own peak is far larger).
//! [`read_index`] checks every section length against the input's
//! length before it reads the first section, then hands each section
//! to its decoder, which reads it straight into the structure it
//! fills: the loader's peak heap is the loaded index, and a lying
//! length is an error, not an allocation.
//!
//! SQ8 codes are derived data: a file stores a quantized index's
//! quantization section as its header alone, and [`read_index`]
//! rebuilds the codes, tables and norms from the loaded corpus with
//! [`QuantizedStore::from_store`], which is deterministic bit for bit.
//!
//! Graph ids are stored at `⌈log₂(n + 1)⌉` bits, the packed section
//! form of `algas_graph::binary`; files of formats 1–5 hold every id as
//! a `u32`, and the graph decoder reads both forms.

use crate::engine::{AlgasIndex, CorpusTooLarge};
use algas_graph::binary as graph_codec;
use algas_graph::GraphKind;
use algas_vector::binary::{self as vector_codec, LeReader};
use algas_vector::{Metric, QuantizedStore};
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

const INDEX_MAGIC: u32 = 0x414C_4958; // "ALIX"
/// Format 1 holds the corpus and the graph. Format 2 appends a
/// node-permutation section (the relayout id-map) after the graph;
/// format 3 appends an SQ8 section (scales, offsets, code rows) after
/// that; format 4 appends an entry-index section (the LSH bucket table;
/// files from older builds also carry a descent ladder there, which is
/// read and skipped). Format 5 keeps format 4's layout but stores the
/// SQ8 section as its 16-byte header alone (magic, rows, dim): the
/// loader derives the codes from the corpus. Format 6 keeps format 5's
/// layout but writes the graph section packed: each id at
/// `bit_length(n)` bits, each row padded to whole bytes (the `ALGP`
/// form of `algas_graph::binary`), where formats 1–5 spend a `u32` on
/// every id (`ALGR`). Every optional section uses a zero length to mean
/// "absent", so files of formats 1 through 5 are still read, the codes
/// of formats 3 and 4 as stored and the `u32` graphs of formats 1–5 as
/// they are; a build that reads up to format 5 refuses a format-6 file
/// by its version.
const FORMAT_VERSION: u32 = 6;
/// First format whose SQ8 section is its header alone.
const DERIVED_CODES_SINCE: u32 = 5;
/// First format whose graph section packs its ids.
const PACKED_IDS_SINCE: u32 = 6;
/// Oldest format this build still reads.
const OLDEST_READABLE_VERSION: u32 = 1;
/// Header bytes before the appended section lengths: magic, version,
/// metric, kind, medoid, and the corpus and graph lengths.
const FIXED_HEADER_LEN: u64 = 30;

/// Serializes an index into a writer.
///
/// # Errors
/// Refuses (`InvalidInput`) a quantized index whose codes are not the
/// ones [`QuantizedStore::from_store`] derives from its corpus: the file
/// stores no codes, so a reload would serve different ones.
pub fn write_index<W: Write>(mut w: W, index: &AlgasIndex) -> io::Result<()> {
    if index.quant.as_ref().is_some_and(|q| !q.is_derived_from(&index.base)) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "the index's SQ8 codes are not the ones its corpus derives, and the file \
             stores none: a reload would serve different codes",
        ));
    }
    let store_blob = vector_codec::encode_store(&index.base);
    let graph_blob = graph_codec::encode_graph(&index.graph);
    let perm_blob = index.id_map.as_ref().map(graph_codec::encode_permutation);
    let quant_blob = index.quant.as_ref().map(vector_codec::encode_quantized_header);
    let entry_blob = index.entry.as_ref().map(graph_codec::encode_entry_index);
    // A zero-length optional section = the index was never relayouted /
    // never quantized / carries no entry data.
    let optional = [&perm_blob, &quant_blob, &entry_blob];
    let mut header = Vec::with_capacity(54);
    header.extend_from_slice(&INDEX_MAGIC.to_le_bytes());
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.push(match index.metric {
        Metric::L2 => 0,
        Metric::Cosine => 1,
    });
    header.push(match index.kind {
        GraphKind::Nsw => 0,
        GraphKind::Cagra => 1,
    });
    header.extend_from_slice(&index.medoid.to_le_bytes());
    header.extend_from_slice(&(store_blob.len() as u64).to_le_bytes());
    header.extend_from_slice(&(graph_blob.len() as u64).to_le_bytes());
    for blob in optional {
        header.extend_from_slice(&blob.as_ref().map_or(0, |b| b.len() as u64).to_le_bytes());
    }
    w.write_all(&header)?;
    w.write_all(&store_blob)?;
    w.write_all(&graph_blob)?;
    for blob in optional.into_iter().flatten() {
        w.write_all(blob)?;
    }
    Ok(())
}

/// Deserializes an index from the `input_len` bytes `r` holds (accepts
/// formats 1 through 6). A header whose section lengths exceed
/// `input_len` is refused before any section is read, as is a format-5
/// or -6 SQ8 section that is not a 16-byte header; one whose rows or
/// dim are not the corpus's is refused before its codes are reserved,
/// and a graph section whose header does not size it is refused, by
/// name, before the graph is reserved.
pub fn read_index<R: Read>(r: R, input_len: u64) -> io::Result<AlgasIndex> {
    let mut r = LeReader::new(r, input_len);
    if r.remaining() < FIXED_HEADER_LEN || r.u32()? != INDEX_MAGIC {
        return Err(invalid("not an ALGAS index file"));
    }
    let version = r.u32()?;
    if !(OLDEST_READABLE_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(invalid(&format!(
            "unsupported index format version {version} (this build reads versions \
             {OLDEST_READABLE_VERSION} through {FORMAT_VERSION})"
        )));
    }
    let metric = match r.u8()? {
        0 => Metric::L2,
        1 => Metric::Cosine,
        m => return Err(invalid(&format!("unknown metric tag {m}"))),
    };
    let kind = match r.u8()? {
        0 => GraphKind::Nsw,
        1 => GraphKind::Cagra,
        k => return Err(invalid(&format!("unknown graph kind tag {k}"))),
    };
    let medoid = r.u32()?;
    let store_len = r.u64()?;
    let graph_len = r.u64()?;
    // Each later format appended one section length to the header.
    let mut appended_len = |since: u32| -> io::Result<u64> {
        if version < since {
            return Ok(0);
        }
        r.u64().map_err(|_| invalid(&format!("truncated v{since} header")))
    };
    let perm_len = appended_len(2)?;
    let quant_len = appended_len(3)?;
    let entry_len = appended_len(4)?;
    if version >= DERIVED_CODES_SINCE && ![0, vector_codec::QUANT_HEADER_LEN].contains(&quant_len) {
        return Err(invalid(&format!(
            "quantization section: format {version} stores its {}-byte header alone, \
             the header gives it {quant_len} bytes",
            vector_codec::QUANT_HEADER_LEN
        )));
    }
    // Every section must fit what the input holds, so no decoder
    // reserves memory for a length the file only claims.
    let mut left = r.remaining();
    for (what, len) in [
        ("corpus", store_len),
        ("graph", graph_len),
        ("permutation", perm_len),
        ("quantization", quant_len),
        ("entry", entry_len),
    ] {
        left = left.checked_sub(len).ok_or_else(|| {
            invalid(&format!(
                "truncated {what} section: the header gives it {len} bytes, \
                 {left} are left in the input"
            ))
        })?;
    }

    let base = vector_codec::decode_store(&mut r, store_len)?;
    let graph = graph_codec::decode_graph(&mut r, graph_len)
        .map_err(|e| invalid(&format!("graph section: {e}")))?;
    if base.len() != graph.len() {
        return Err(invalid("corpus/graph size mismatch"));
    }
    CorpusTooLarge::check(base.len()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if (medoid as usize) >= base.len().max(1) {
        return Err(invalid("medoid out of range"));
    }
    let id_map = if perm_len > 0 {
        let perm = graph_codec::decode_permutation(&mut r, perm_len)?;
        if perm.len() != base.len() {
            return Err(invalid("permutation/corpus size mismatch"));
        }
        Some(perm)
    } else {
        None
    };
    let quant = match quant_len {
        0 => None,
        _ if version < DERIVED_CODES_SINCE => {
            let quant = vector_codec::decode_quantized(&mut r, quant_len)?;
            if quant.len() != base.len() || quant.dim() != base.dim() {
                return Err(invalid("quantized/corpus shape mismatch"));
            }
            Some(quant)
        }
        _ => {
            let named = |e: io::Error| invalid(&format!("quantization section: {e}"));
            let (n, dim) =
                vector_codec::decode_quantized_header(&mut r, quant_len).map_err(named)?;
            if base.is_empty() {
                return Err(invalid("quantization section: the corpus is empty"));
            }
            if (n, dim as usize) != (base.len() as u64, base.dim()) {
                return Err(invalid(&format!(
                    "quantization section: it declares {n} rows of dim {dim}, \
                     the corpus holds {} of dim {}",
                    base.len(),
                    base.dim()
                )));
            }
            Some(QuantizedStore::from_store(&base))
        }
    };
    let entry = if entry_len > 0 {
        graph_codec::decode_entry_index(&mut r, entry_len, base.len())?
    } else {
        None
    };
    Ok(AlgasIndex { base, quant, graph, metric, medoid, kind, id_map, entry })
}

impl AlgasIndex {
    /// Saves the index to a file (atomically: write + rename).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            write_index(&mut f, self)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Loads an index from a file. A regular file's length bounds every
    /// section; a pipe or device has none to check against, so there the
    /// decoders' own truncation checks are the only bound.
    pub fn load(path: impl AsRef<Path>) -> io::Result<AlgasIndex> {
        let file = std::fs::File::open(path)?;
        let meta = file.metadata()?;
        let len = if meta.is_file() { meta.len() } else { u64::MAX };
        read_index(BufReader::new(file), len)
    }
}

/// The format version in the header of the index file at `path`.
pub fn format_version(path: impl AsRef<Path>) -> io::Result<u32> {
    let mut r = LeReader::new(std::fs::File::open(path)?, 8);
    if r.u32()? != INDEX_MAGIC {
        return Err(invalid("not an ALGAS index file"));
    }
    r.u32()
}

/// Whether a file of format `version` derives its SQ8 codes at load
/// rather than storing them.
pub fn derives_codes(version: u32) -> bool {
    version >= DERIVED_CODES_SINCE
}

/// Whether a file of format `version` packs its graph ids at
/// `bit_length(n)` bits rather than spending a `u32` on each.
pub fn packs_graph_ids(version: u32) -> bool {
    version >= PACKED_IDS_SINCE
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use algas_graph::cagra::CagraParams;
    use algas_graph::{FixedDegreeGraph, PackedGraph};
    use algas_vector::datasets::DatasetSpec;
    use algas_vector::VectorStore;

    /// Reads a whole in-memory file.
    fn read(file: &[u8]) -> io::Result<AlgasIndex> {
        read_index(file, file.len() as u64)
    }

    fn sample_index() -> AlgasIndex {
        let ds = DatasetSpec::tiny(300, 8, Metric::Cosine, 71).generate();
        AlgasIndex::build_cagra(ds.base, Metric::Cosine, CagraParams::default())
    }

    /// A quantization section as formats 3 and 4 stored it: the header,
    /// the scales, the offsets, then the unpadded code rows.
    fn stored_codes_section(q: &QuantizedStore) -> Vec<u8> {
        let mut buf = vector_codec::encode_quantized_header(q);
        for &x in q.scales().iter().chain(q.offsets()) {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        for i in 0..q.len() {
            buf.extend_from_slice(q.codes(i));
        }
        buf
    }

    /// Whether two stores hold the same codes, norms and tables, bit for
    /// bit (`==` would take -0.0 for 0.0).
    fn same_bits(a: &QuantizedStore, b: &QuantizedStore) -> bool {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (a.len(), a.dim()) == (b.len(), b.dim())
            && bits(a.scales()) == bits(b.scales())
            && bits(a.offsets()) == bits(b.offsets())
            && (0..a.len()).all(|i| {
                a.codes(i) == b.codes(i) && a.row_norm(i).to_bits() == b.row_norm(i).to_bits()
            })
    }

    /// A graph section as formats 1–5 stored it: every id a `u32`,
    /// `u32::MAX` for padding.
    fn legacy_graph_section(g: &PackedGraph) -> Vec<u8> {
        let mut buf = section_header(0x414C_4752, g.len() as u64, g.degree() as u32); // "ALGR"
        for v in 0..g.len() as u32 {
            for u in g.neighbors(v).chain(std::iter::repeat(u32::MAX)).take(g.degree()) {
                buf.extend_from_slice(&u.to_le_bytes());
            }
        }
        buf
    }

    /// `n` vertices of `degree` slots and no edges.
    fn edgeless_graph(n: usize, degree: usize) -> PackedGraph {
        PackedGraph::pack(&FixedDegreeGraph::new(n, degree))
    }

    /// The header field holding the quantization section's length.
    const QUANT_LEN_FIELD: std::ops::Range<usize> = 38..46;
    /// The header field holding the corpus section's length.
    const STORE_LEN_FIELD: std::ops::Range<usize> = 14..22;
    /// Bytes of a format-6 header, the corpus section's offset.
    const HEADER_LEN: usize = 54;
    /// Bytes of a packed graph section before its rows: magic, rows,
    /// degree, id width.
    const PACKED_GRAPH_HEADER_LEN: usize = 20;

    /// The `u64` header field at `at`.
    fn field(file: &[u8], at: std::ops::Range<usize>) -> usize {
        u64::from_le_bytes(file[at].try_into().unwrap()) as usize
    }

    /// A hand-built file of an older format: the cosine/CAGRA header
    /// with `version`, then `sections` (corpus and graph first), whose
    /// lengths fill exactly the length fields that version had.
    fn old_format_file(version: u32, medoid: u32, sections: &[&[u8]]) -> Vec<u8> {
        let mut buf = INDEX_MAGIC.to_le_bytes().to_vec();
        buf.extend_from_slice(&version.to_le_bytes());
        buf.extend_from_slice(&[1, 1]); // cosine, cagra
        buf.extend_from_slice(&medoid.to_le_bytes());
        for s in sections {
            buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
        }
        buf.extend(sections.concat());
        buf
    }

    #[test]
    fn roundtrip_in_memory() {
        let index = sample_index();
        let mut buf = Vec::new();
        write_index(&mut buf, &index).unwrap();
        let back = read(&buf).unwrap();
        // Format 6: 300 rows of 32 ids at 9 bits, 36 bytes a row.
        assert_eq!(buf[4..8], 6u32.to_le_bytes());
        assert_eq!(field(&buf, 22..30), PACKED_GRAPH_HEADER_LEN + 300 * 36);
        assert_eq!(back.base, index.base);
        assert_eq!(back.graph, index.graph);
        assert_eq!(back.metric, index.metric);
        assert_eq!(back.kind, index.kind);
        assert_eq!(back.medoid, index.medoid);
    }

    #[test]
    fn roundtrip_on_disk_and_searchable() {
        use crate::engine::{AlgasEngine, EngineConfig};
        let index = sample_index();
        let path = std::env::temp_dir().join(format!("algas-idx-{}.bin", std::process::id()));
        index.save(&path).unwrap();
        let back = AlgasIndex::load(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        let cfg = EngineConfig { k: 5, l: 32, ..Default::default() };
        let e1 = AlgasEngine::new(index, cfg).unwrap();
        let e2 = AlgasEngine::new(back, cfg).unwrap();
        let q: Vec<f32> = vec![0.1; 8];
        assert_eq!(e1.search(&q, 0), e2.search(&q, 0));
    }

    #[test]
    fn relayouted_index_roundtrips_with_id_map() {
        let mut index = sample_index();
        index.relayout();
        assert!(index.id_map.is_some());
        let mut buf = Vec::new();
        write_index(&mut buf, &index).unwrap();
        let back = read(&buf).unwrap();
        assert_eq!(back.id_map, index.id_map);
        assert_eq!(back.base, index.base);
        assert_eq!(back.graph, index.graph);
        assert_eq!(back.medoid, index.medoid);
    }

    #[test]
    fn reads_format_v1_files_without_permutation() {
        // Hand-build a v1 file: same layout minus the perm-length field.
        let index = sample_index();
        let store_blob = vector_codec::encode_store(&index.base);
        let graph_blob = legacy_graph_section(&index.graph);
        let buf = old_format_file(1, index.medoid, &[&store_blob, &graph_blob]);
        let back = read(&buf).unwrap();
        assert!(back.id_map.is_none());
        assert_eq!(back.graph, index.graph);
    }

    #[test]
    fn relayouted_quantized_index_derives_its_permuted_codes() {
        // Quantized first, relayouted after: the store in memory holds
        // the codes permuted, and the loader derives its own from the
        // permuted corpus. They must be the same bits.
        let mut index = sample_index();
        index.quantize();
        index.relayout();
        let mut buf = Vec::new();
        write_index(&mut buf, &index).unwrap();
        // The file holds the section's header alone.
        assert_eq!(buf[QUANT_LEN_FIELD], vector_codec::QUANT_HEADER_LEN.to_le_bytes());
        let back = read(&buf).unwrap();
        assert_eq!(back.base, index.base);
        assert_eq!(back.id_map, index.id_map);
        assert!(same_bits(back.quant.as_ref().unwrap(), index.quant.as_ref().unwrap()));
    }

    #[test]
    fn format_3_and_4_files_serve_their_stored_codes() {
        // Codes no corpus derives (all zero): an older file's section is
        // read as stored, not rederived.
        let mut index = sample_index();
        index.quantize();
        let derived = index.quant.clone().unwrap();
        let mut zeros = QuantizedStore::with_capacity(
            derived.dim(),
            derived.scales().to_vec(),
            derived.offsets().to_vec(),
            derived.len(),
        );
        for _ in 0..derived.len() {
            zeros.push_codes(&vec![0; derived.dim()]);
        }
        let store_blob = vector_codec::encode_store(&index.base);
        let graph_blob = legacy_graph_section(&index.graph);
        let quant_blob = stored_codes_section(&zeros);
        for (version, sections) in [
            (3, vec![&store_blob[..], &graph_blob, &[], &quant_blob]),
            (4, vec![&store_blob[..], &graph_blob, &[], &quant_blob, &[]]),
        ] {
            let back = read(&old_format_file(version, index.medoid, &sections)).unwrap();
            assert!(same_bits(back.quant.as_ref().unwrap(), &zeros), "format {version}");
        }
        // This build would not write them: a reload would derive others.
        index.quant = Some(zeros);
        let err = write_index(&mut Vec::new(), &index).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    }

    #[test]
    fn reads_format_v2_files_without_quant_section() {
        // Hand-build a v2 file: v3 layout minus the quant-length field.
        let mut index = sample_index();
        index.relayout();
        let store_blob = vector_codec::encode_store(&index.base);
        let graph_blob = legacy_graph_section(&index.graph);
        let perm_blob = graph_codec::encode_permutation(index.id_map.as_ref().unwrap());
        let buf = old_format_file(2, index.medoid, &[&store_blob, &graph_blob, &perm_blob]);
        let back = read(&buf).unwrap();
        assert!(back.quant.is_none());
        assert_eq!(back.id_map, index.id_map);
        assert_eq!(back.graph, index.graph);
    }

    #[test]
    fn entry_index_roundtrips() {
        let mut index = sample_index();
        index.quantize();
        index.build_entry_index(&algas_graph::entry::EntryParams::default());
        let mut buf = Vec::new();
        write_index(&mut buf, &index).unwrap();
        let back = read(&buf).unwrap();
        assert_eq!(back.entry, index.entry);
        assert_eq!(back.quant, index.quant);
        assert_eq!(back.base, index.base);
        // The loaded table resolves the same entry seeds.
        let (t, bt) = (index.entry.as_ref().unwrap(), back.entry.as_ref().unwrap());
        for sig in 0..t.hasher().n_buckets() as u32 {
            assert_eq!(t.seed_for(sig, 0), bt.seed_for(sig, 0));
        }
    }

    #[test]
    fn reads_format_v3_files_without_entry_section() {
        // Hand-build a v3 file: v4 layout minus the entry-length field.
        let mut index = sample_index();
        index.quantize();
        let store_blob = vector_codec::encode_store(&index.base);
        let graph_blob = legacy_graph_section(&index.graph);
        let quant_blob = stored_codes_section(index.quant.as_ref().unwrap());
        // The empty third section = never relayouted.
        let buf = old_format_file(3, index.medoid, &[&store_blob, &graph_blob, &[], &quant_blob]);
        let back = read(&buf).unwrap();
        assert!(back.entry.is_none());
        assert_eq!(back.quant, index.quant);
        assert_eq!(back.graph, index.graph);
    }

    #[test]
    fn rejects_corruption() {
        let index = sample_index();
        let mut buf = Vec::new();
        write_index(&mut buf, &index).unwrap();
        // Wrong magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(read(&bad).is_err());
        // Truncated payload.
        let mut short = buf.clone();
        short.truncate(buf.len() - 10);
        assert!(read(&short).is_err());
        // Future version: the error names the readable range.
        let mut vers = buf.clone();
        vers[4] = 99;
        let err = read(&vers).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("version 99") && msg.contains("1 through 6"),
            "version error should name the readable range, got: {msg}"
        );
        // Truncated quantization section.
        let mut q_index = sample_index();
        q_index.quantize();
        let mut qbuf = Vec::new();
        write_index(&mut qbuf, &q_index).unwrap();
        qbuf.truncate(qbuf.len() - 3);
        assert!(read(&qbuf).is_err());
        // A corpus section whose n · dim · 4 wraps to its (empty)
        // payload: an error, not an allocation of 2^62 floats.
        let mut lying = 0x414C_5653u32.to_le_bytes().to_vec(); // "ALVS"
        lying.extend_from_slice(&(1u64 << 62).to_le_bytes());
        lying.extend_from_slice(&1u32.to_le_bytes());
        let graph_blob = graph_codec::encode_graph(&index.graph);
        let file = old_format_file(1, 0, &[&lying, &graph_blob]);
        assert!(read(&file).is_err());
        // A format-5 quantization section is its 16-byte header, naming
        // the corpus's rows and dim; anything else is refused by name.
        let mut qbuf = Vec::new();
        write_index(&mut qbuf, &q_index).unwrap();
        let quant_section = |file: &[u8]| {
            let err = read(file).expect_err("a bad quantization section must not load");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("quantization section"), "{err}");
        };
        // No permutation or entry section: the header is the file's end.
        let quant_at = qbuf.len() - 16;
        // Its format-4 body, which a format-5 header does not describe.
        let stored = stored_codes_section(q_index.quant.as_ref().unwrap());
        let mut long = [&qbuf[..quant_at], &stored].concat();
        long[QUANT_LEN_FIELD].copy_from_slice(&(stored.len() as u64).to_le_bytes());
        quant_section(&long);
        // One byte more than the header, the byte present.
        let mut plus_one = [&qbuf[..], &[0]].concat();
        plus_one[QUANT_LEN_FIELD].copy_from_slice(&17u64.to_le_bytes());
        quant_section(&plus_one);
        // Rows or dim that are not the corpus's, and another magic.
        for (at, value) in [
            (quant_at + 4, 299u64.to_le_bytes().to_vec()),
            (quant_at + 12, 9u32.to_le_bytes().to_vec()),
            (quant_at, vec![0; 4]),
        ] {
            let mut bad = qbuf.clone();
            bad[at..at + value.len()].copy_from_slice(&value);
            quant_section(&bad);
        }
        // A header of no rows over an empty corpus: nothing to derive
        // the tables from, an error and not a panic.
        let empty_store = section_header(0x414C_5653, 0, 8); // "ALVS"
        let empty_graph = graph_codec::encode_graph(&edgeless_graph(0, 6));
        let no_rows = section_header(0x414C_5153, 0, 8); // "ALQS"
        quant_section(&old_format_file(5, 0, &[&empty_store, &empty_graph, &[], &no_rows, &[]]));
        // Packed graph rows (format 6) that name no graph: the first id
        // of row 0 of the 300-vertex file (9-bit ids, pad code 511) set
        // to an id ≥ n that is not the pad code, or to a self-loop.
        let graph_section = |file: &[u8], what: &str| {
            let err = read(file).expect_err("a bad graph section must not load");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().starts_with("graph section: "), "{err}");
            assert!(err.to_string().contains(what), "{err}");
        };
        let row0 = HEADER_LEN + field(&buf, STORE_LEN_FIELD) + PACKED_GRAPH_HEADER_LEN;
        let with_first_id = |id: u16| {
            let mut bad = buf.clone();
            bad[row0] = id as u8;
            bad[row0 + 1] = (bad[row0 + 1] & !1) | (id >> 8) as u8;
            bad
        };
        assert_eq!(
            read(&with_first_id(index.graph.neighbors(0).next().unwrap() as u16)).unwrap().graph,
            index.graph
        );
        graph_section(&with_first_id(300), "invalid id 300");
        graph_section(&with_first_id(510), "invalid id 510");
        graph_section(&with_first_id(0), "invalid id 0");
        // Non-zero pad bits: five vertices of three 3-bit ids are nine
        // bits a row, so each row's second byte carries seven pad bits.
        let five = vector_codec::encode_store(&VectorStore::from_flat(8, vec![0.5; 40]));
        let packed = graph_codec::encode_graph(&edgeless_graph(5, 3));
        let mut bad = packed.clone();
        bad[PACKED_GRAPH_HEADER_LEN + 1] |= 0x80;
        graph_section(&old_format_file(6, 0, &[&five, &bad, &[], &[], &[]]), "pad bits");
        assert!(read(&old_format_file(6, 0, &[&five, &packed, &[], &[], &[]])).is_ok());
    }

    /// A v4 file of a corpus section and a graph section; its header's
    /// corpus length is `store_len`.
    fn v4_file(store: &[u8], store_len: u64, graph: &[u8]) -> Vec<u8> {
        let mut file = old_format_file(4, 0, &[store, graph, &[], &[], &[]]);
        file[14..22].copy_from_slice(&store_len.to_le_bytes());
        file
    }

    /// A section header alone: `magic`, then `n` rows of `width` words.
    fn section_header(magic: u32, n: u64, width: u32) -> Vec<u8> {
        [&magic.to_le_bytes()[..], &n.to_le_bytes(), &width.to_le_bytes()].concat()
    }

    #[test]
    fn a_lying_section_length_is_refused_before_it_is_reserved() {
        let named = |file: &[u8], section: &str| {
            let err = read(file).expect_err("a lying file must not load");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(section), "{err}");
        };
        let named_corpus = |file: &[u8]| named(file, "corpus section");
        let invalid_data = |file: &[u8]| {
            let err = read(file).expect_err("a lying file must not load");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        };
        let row = vector_codec::encode_store(&VectorStore::from_flat(8, vec![0.5; 8]));
        let edgeless = |degree| legacy_graph_section(&edgeless_graph(1, degree));
        // A well-formed 142-byte file whose header claims a 1 TiB corpus.
        let file = v4_file(&row, 1 << 40, &edgeless(6));
        assert_eq!(file.len(), 142);
        named_corpus(&file);
        // A 134-byte file whose corpus section header is well formed for
        // n = 2^35 rows of dim 8, and whose header length agrees with it.
        let store_hdr = section_header(0x414C_5653, 1 << 35, 8); // "ALVS"
        let file = v4_file(&store_hdr, 16 + (1 << 35) * 8 * 4, &edgeless(12));
        assert_eq!(file.len(), 134);
        named_corpus(&file);
        // Sections of no rows and a 2^32 - 1 word row width: their
        // payload checks pass (0 = 0), and they must not size a row
        // buffer by that width (16 GiB) before the size mismatch.
        let wide_store = section_header(0x414C_5653, 0, u32::MAX);
        invalid_data(&v4_file(&wide_store, 16, &edgeless(6)));
        let wide_graph = section_header(0x414C_4752, 0, u32::MAX); // "ALGR"
        invalid_data(&v4_file(&row, row.len() as u64, &wide_graph));
        // Packed graph headers (format 6) that do not size their
        // section, refused by name before the graph is reserved: a
        // width of 0, past 32, or other than bit_length(n); a length
        // other than the header and n · ⌈degree·w/8⌉ bytes; 2^31 rows
        // of 32 ids (a 256 GiB graph) in a header-only section.
        let packed = |n: u64, degree: u32, w: u32| {
            [section_header(0x414C_4750, n, degree), w.to_le_bytes().to_vec()].concat()
            // "ALGP"
        };
        let v6 = |graph: &[u8]| old_format_file(6, 0, &[&row, graph, &[], &[], &[]]);
        let one_row = |w| [packed(1, 6, w), vec![0x3F]].concat();
        assert_eq!(one_row(1), graph_codec::encode_graph(&edgeless_graph(1, 6)));
        assert_eq!(read(&v6(&one_row(1))).unwrap().graph, edgeless_graph(1, 6));
        for w in [0, 2, 33] {
            named(&v6(&one_row(w)), "graph section");
        }
        named(&v6(&[one_row(1), vec![0]].concat()), "graph section");
        named(&v6(&packed(1, 6, 1)), "graph section");
        named(&v6(&packed(1 << 31, 32, 32)), "graph section");
        named(&v6(&packed(1 << 35, 32, 36)), "graph section");
        // No rows of 2^32 - 1 ids: no 512 MiB row buffer either.
        invalid_data(&v6(&packed(0, u32::MAX, 1)));
        // A format-5 header that gives the quantization section 1 TiB,
        // or 17 bytes the file holds: refused by name, before the
        // corpus is read.
        for (quant_len, held) in [(1u64 << 40, 0), (17, 17)] {
            let mut file = old_format_file(5, 0, &[&row, &edgeless(6), &[], &[], &[]]);
            file[QUANT_LEN_FIELD].copy_from_slice(&quant_len.to_le_bytes());
            file.resize(file.len() + held, 0);
            named(&file, "quantization section");
        }
        // The honest one-row file loads.
        let honest = v4_file(&row, row.len() as u64, &edgeless(6));
        assert_eq!(read(&honest).unwrap().base.len(), 1);
    }
}
