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

use crate::engine::{AlgasIndex, CorpusTooLarge};
use algas_graph::binary as graph_codec;
use algas_graph::GraphKind;
use algas_vector::binary::{self as vector_codec, LeReader};
use algas_vector::Metric;
use std::io::{self, BufReader, Read, Write};
use std::path::Path;

const INDEX_MAGIC: u32 = 0x414C_4958; // "ALIX"
/// Format 2 appends a node-permutation section (the relayout id-map)
/// after the graph; format 3 appends an SQ8 code section (scales,
/// offsets, code rows) after that; format 4 appends an entry-index
/// section (the LSH bucket table; files from older builds also carry a
/// descent ladder there, which is read and skipped). Every optional
/// section uses a zero length to mean "absent", so format-1 through
/// format-3 files are still read.
const FORMAT_VERSION: u32 = 4;
/// Oldest format this build still reads.
const OLDEST_READABLE_VERSION: u32 = 1;
/// Header bytes before the appended section lengths: magic, version,
/// metric, kind, medoid, and the corpus and graph lengths.
const FIXED_HEADER_LEN: u64 = 30;

/// Serializes an index into a writer.
pub fn write_index<W: Write>(mut w: W, index: &AlgasIndex) -> io::Result<()> {
    let store_blob = vector_codec::encode_store(&index.base);
    let graph_blob = graph_codec::encode_graph(&index.graph);
    let perm_blob = index.id_map.as_ref().map(graph_codec::encode_permutation);
    let quant_blob = index.quant.as_ref().map(vector_codec::encode_quantized);
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
/// formats 1 through 4). A header whose section lengths exceed
/// `input_len` is refused before any section is read.
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
    let graph = graph_codec::decode_graph(&mut r, graph_len)?;
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
    let quant = if quant_len > 0 {
        let quant = vector_codec::decode_quantized(&mut r, quant_len)?;
        if quant.len() != base.len() || quant.dim() != base.dim() {
            return Err(invalid("quantized/corpus shape mismatch"));
        }
        Some(quant)
    } else {
        None
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

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use algas_graph::cagra::CagraParams;
    use algas_vector::datasets::DatasetSpec;

    /// Reads a whole in-memory file.
    fn read(file: &[u8]) -> io::Result<AlgasIndex> {
        read_index(file, file.len() as u64)
    }

    fn sample_index() -> AlgasIndex {
        let ds = DatasetSpec::tiny(300, 8, Metric::Cosine, 71).generate();
        AlgasIndex::build_cagra(ds.base, Metric::Cosine, CagraParams::default())
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
        let graph_blob = graph_codec::encode_graph(&index.graph);
        let buf = old_format_file(1, index.medoid, &[&store_blob, &graph_blob]);
        let back = read(&buf).unwrap();
        assert!(back.id_map.is_none());
        assert_eq!(back.graph, index.graph);
    }

    #[test]
    fn quantized_index_roundtrips_with_codes() {
        let mut index = sample_index();
        index.quantize();
        index.relayout();
        let mut buf = Vec::new();
        write_index(&mut buf, &index).unwrap();
        let back = read(&buf).unwrap();
        assert_eq!(back.base, index.base);
        assert_eq!(back.quant, index.quant);
        assert_eq!(back.id_map, index.id_map);
        // The reloaded codes carry identical search-time state.
        let (q, bq) = (index.quant.as_ref().unwrap(), back.quant.as_ref().unwrap());
        for i in 0..q.len() {
            assert_eq!(bq.row_norm(i), q.row_norm(i));
        }
    }

    #[test]
    fn reads_format_v2_files_without_quant_section() {
        // Hand-build a v2 file: v3 layout minus the quant-length field.
        let mut index = sample_index();
        index.relayout();
        let store_blob = vector_codec::encode_store(&index.base);
        let graph_blob = graph_codec::encode_graph(&index.graph);
        let perm_blob = graph_codec::encode_permutation(index.id_map.as_ref().unwrap());
        let buf = old_format_file(2, index.medoid, &[&store_blob, &graph_blob, &perm_blob]);
        let back = read(&buf).unwrap();
        assert!(back.quant.is_none());
        assert_eq!(back.id_map, index.id_map);
        assert_eq!(back.graph, index.graph);
    }

    #[test]
    fn entry_index_roundtrips_through_v4() {
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
        let graph_blob = graph_codec::encode_graph(&index.graph);
        let quant_blob = vector_codec::encode_quantized(index.quant.as_ref().unwrap());
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
            msg.contains("version 99") && msg.contains("1 through 4"),
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
        let named_corpus = |file: &[u8]| {
            let err = read(file).expect_err("a lying file must not load");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("corpus section"), "{err}");
        };
        let invalid_data = |file: &[u8]| {
            let err = read(file).expect_err("a lying file must not load");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        };
        let row =
            vector_codec::encode_store(&algas_vector::VectorStore::from_flat(8, vec![0.5; 8]));
        let edgeless =
            |degree| graph_codec::encode_graph(&algas_graph::FixedDegreeGraph::new(1, degree));
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
        // The honest one-row file loads.
        let honest = v4_file(&row, row.len() as u64, &edgeless(6));
        assert_eq!(read(&honest).unwrap().base.len(), 1);
    }
}
