//! Index persistence: one self-describing file holding the corpus, the
//! graph, and the index metadata, so a built index can be shipped and
//! served without rebuilding.

use crate::engine::{AlgasIndex, CorpusTooLarge};
use algas_graph::GraphKind;
use algas_vector::binary::LeCursor;
use algas_vector::Metric;
use std::io::{self, Read, Write};
use std::path::Path;

const INDEX_MAGIC: u32 = 0x414C_4958; // "ALIX"
/// Format 2 appends a node-permutation section (the relayout id-map)
/// after the graph; format 3 appends an SQ8 code section (scales,
/// offsets, code rows) after that; format 4 appends an entry-index
/// section (the LSH bucket table and descent ladder for the smart
/// entry policies). Every optional section uses a zero length to mean
/// "absent", so format-1 through format-3 files are still read.
const FORMAT_VERSION: u32 = 4;
/// Oldest format this build still reads.
const OLDEST_READABLE_VERSION: u32 = 1;

/// Serializes an index into a writer.
pub fn write_index<W: Write>(mut w: W, index: &AlgasIndex) -> io::Result<()> {
    let store_blob = algas_vector::binary::encode_store(&index.base);
    let graph_blob = algas_graph::binary::encode_graph(&index.graph);
    let perm_blob = index.id_map.as_ref().map(algas_graph::binary::encode_permutation);
    let quant_blob = index.quant.as_ref().map(algas_vector::binary::encode_quantized);
    let entry_blob = index.entry.as_ref().map(algas_graph::binary::encode_entry_index);
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

/// Reads one `len`-byte section and decodes it, so its raw bytes are
/// freed before the next section is read.
fn read_section<R: Read, T>(
    r: &mut R,
    len: usize,
    what: &str,
    decode: impl FnOnce(&[u8]) -> io::Result<T>,
) -> io::Result<T> {
    let mut blob = vec![0u8; len];
    r.read_exact(&mut blob).map_err(|_| invalid(&format!("truncated {what} section")))?;
    decode(&blob)
}

/// Deserializes an index from a reader (accepts formats 1 through 4).
pub fn read_index<R: Read>(mut r: R) -> io::Result<AlgasIndex> {
    let mut header = [0u8; 30];
    r.read_exact(&mut header)?;
    let mut h = LeCursor::new(&header);
    if h.u32()? != INDEX_MAGIC {
        return Err(invalid("not an ALGAS index file"));
    }
    let version = h.u32()?;
    if !(OLDEST_READABLE_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(invalid(&format!(
            "unsupported index format version {version} (this build reads versions \
             {OLDEST_READABLE_VERSION} through {FORMAT_VERSION})"
        )));
    }
    let metric = match h.u8()? {
        0 => Metric::L2,
        1 => Metric::Cosine,
        m => return Err(invalid(&format!("unknown metric tag {m}"))),
    };
    let kind = match h.u8()? {
        0 => GraphKind::Nsw,
        1 => GraphKind::Cagra,
        k => return Err(invalid(&format!("unknown graph kind tag {k}"))),
    };
    let medoid = h.u32()?;
    let store_len = h.len_u64()?;
    let graph_len = h.len_u64()?;
    // Each later format appended one section length to the header.
    let mut appended_len = |since: u32| -> io::Result<usize> {
        if version < since {
            return Ok(0);
        }
        let mut ext = [0u8; 8];
        r.read_exact(&mut ext).map_err(|_| invalid(&format!("truncated v{since} header")))?;
        LeCursor::new(&ext).len_u64()
    };
    let perm_len = appended_len(2)?;
    let quant_len = appended_len(3)?;
    let entry_len = appended_len(4)?;

    let base = read_section(&mut r, store_len, "corpus", algas_vector::binary::decode_store)?;
    let graph = read_section(&mut r, graph_len, "graph", algas_graph::binary::decode_graph)?;
    if base.len() != graph.len() {
        return Err(invalid("corpus/graph size mismatch"));
    }
    CorpusTooLarge::check(base.len()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if (medoid as usize) >= base.len().max(1) {
        return Err(invalid("medoid out of range"));
    }
    let id_map = if perm_len > 0 {
        let perm =
            read_section(&mut r, perm_len, "permutation", algas_graph::binary::decode_permutation)?;
        if perm.len() != base.len() {
            return Err(invalid("permutation/corpus size mismatch"));
        }
        Some(perm)
    } else {
        None
    };
    let quant = if quant_len > 0 {
        let quant = read_section(
            &mut r,
            quant_len,
            "quantization",
            algas_vector::binary::decode_quantized,
        )?;
        if quant.len() != base.len() || quant.dim() != base.dim() {
            return Err(invalid("quantized/corpus shape mismatch"));
        }
        Some(quant)
    } else {
        None
    };
    let entry = if entry_len > 0 {
        Some(read_section(&mut r, entry_len, "entry", |blob| {
            algas_graph::binary::decode_entry_index(blob, base.len())
        })?)
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

    /// Loads an index from a file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<AlgasIndex> {
        read_index(std::fs::File::open(path)?)
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
        let back = read_index(std::io::Cursor::new(buf)).unwrap();
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
        let back = read_index(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back.id_map, index.id_map);
        assert_eq!(back.base, index.base);
        assert_eq!(back.graph, index.graph);
        assert_eq!(back.medoid, index.medoid);
    }

    #[test]
    fn reads_format_v1_files_without_permutation() {
        // Hand-build a v1 file: same layout minus the perm-length field.
        let index = sample_index();
        let store_blob = algas_vector::binary::encode_store(&index.base);
        let graph_blob = algas_graph::binary::encode_graph(&index.graph);
        let buf = old_format_file(1, index.medoid, &[&store_blob, &graph_blob]);
        let back = read_index(std::io::Cursor::new(buf)).unwrap();
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
        let back = read_index(std::io::Cursor::new(buf)).unwrap();
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
        let store_blob = algas_vector::binary::encode_store(&index.base);
        let graph_blob = algas_graph::binary::encode_graph(&index.graph);
        let perm_blob = algas_graph::binary::encode_permutation(index.id_map.as_ref().unwrap());
        let buf = old_format_file(2, index.medoid, &[&store_blob, &graph_blob, &perm_blob]);
        let back = read_index(std::io::Cursor::new(buf)).unwrap();
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
        let back = read_index(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back.entry, index.entry);
        assert_eq!(back.quant, index.quant);
        assert_eq!(back.base, index.base);
        // The loaded table resolves the same entry seeds.
        let (e, b) = (index.entry.as_ref().unwrap(), back.entry.as_ref().unwrap());
        let t = e.hash.as_ref().unwrap();
        let bt = b.hash.as_ref().unwrap();
        for sig in 0..t.hasher().n_buckets() as u32 {
            assert_eq!(t.seed_for(sig, 0), bt.seed_for(sig, 0));
        }
    }

    #[test]
    fn reads_format_v3_files_without_entry_section() {
        // Hand-build a v3 file: v4 layout minus the entry-length field.
        let mut index = sample_index();
        index.quantize();
        let store_blob = algas_vector::binary::encode_store(&index.base);
        let graph_blob = algas_graph::binary::encode_graph(&index.graph);
        let quant_blob = algas_vector::binary::encode_quantized(index.quant.as_ref().unwrap());
        // The empty third section = never relayouted.
        let buf = old_format_file(3, index.medoid, &[&store_blob, &graph_blob, &[], &quant_blob]);
        let back = read_index(std::io::Cursor::new(buf)).unwrap();
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
        assert!(read_index(std::io::Cursor::new(bad)).is_err());
        // Truncated payload.
        let mut short = buf.clone();
        short.truncate(buf.len() - 10);
        assert!(read_index(std::io::Cursor::new(short)).is_err());
        // Future version: the error names the readable range.
        let mut vers = buf.clone();
        vers[4] = 99;
        let err = read_index(std::io::Cursor::new(vers)).unwrap_err();
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
        assert!(read_index(std::io::Cursor::new(qbuf)).is_err());
        // A corpus section whose n · dim · 4 wraps to its (empty)
        // payload: an error, not an allocation of 2^62 floats.
        let mut lying = 0x414C_5653u32.to_le_bytes().to_vec(); // "ALVS"
        lying.extend_from_slice(&(1u64 << 62).to_le_bytes());
        lying.extend_from_slice(&1u32.to_le_bytes());
        let graph_blob = algas_graph::binary::encode_graph(&index.graph);
        let file = old_format_file(1, 0, &[&lying, &graph_blob]);
        assert!(read_index(std::io::Cursor::new(file)).is_err());
    }
}
