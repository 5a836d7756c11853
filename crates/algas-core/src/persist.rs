//! Index persistence: one self-describing file holding the corpus, the
//! graph, and the index metadata, so a built index can be shipped and
//! served without rebuilding.

use crate::engine::{AlgasIndex, CorpusTooLarge};
use algas_graph::GraphKind;
use algas_vector::Metric;
use bytes::{Buf, BufMut, BytesMut};
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
    let mut header = BytesMut::with_capacity(56);
    header.put_u32_le(INDEX_MAGIC);
    header.put_u32_le(FORMAT_VERSION);
    header.put_u8(match index.metric {
        Metric::L2 => 0,
        Metric::Cosine => 1,
    });
    header.put_u8(match index.kind {
        GraphKind::Nsw => 0,
        GraphKind::Cagra => 1,
    });
    header.put_u32_le(index.medoid);
    header.put_u64_le(store_blob.len() as u64);
    header.put_u64_le(graph_blob.len() as u64);
    // Zero-length section = index was never relayouted.
    header.put_u64_le(perm_blob.as_ref().map_or(0, |b| b.len() as u64));
    // Zero-length section = index was never quantized.
    header.put_u64_le(quant_blob.as_ref().map_or(0, |b| b.len() as u64));
    // Zero-length section = index carries no entry data.
    header.put_u64_le(entry_blob.as_ref().map_or(0, |b| b.len() as u64));
    w.write_all(&header)?;
    w.write_all(&store_blob)?;
    w.write_all(&graph_blob)?;
    if let Some(blob) = perm_blob {
        w.write_all(&blob)?;
    }
    if let Some(blob) = quant_blob {
        w.write_all(&blob)?;
    }
    if let Some(blob) = entry_blob {
        w.write_all(&blob)?;
    }
    Ok(())
}

/// Deserializes an index from a reader (accepts formats 1 through 4).
pub fn read_index<R: Read>(mut r: R) -> io::Result<AlgasIndex> {
    let mut header = [0u8; 30];
    r.read_exact(&mut header)?;
    let mut h = &header[..];
    if h.get_u32_le() != INDEX_MAGIC {
        return Err(invalid("not an ALGAS index file"));
    }
    let version = h.get_u32_le();
    if !(OLDEST_READABLE_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(invalid(&format!(
            "unsupported index format version {version} (this build reads versions \
             {OLDEST_READABLE_VERSION} through {FORMAT_VERSION})"
        )));
    }
    let metric = match h.get_u8() {
        0 => Metric::L2,
        1 => Metric::Cosine,
        m => return Err(invalid(&format!("unknown metric tag {m}"))),
    };
    let kind = match h.get_u8() {
        0 => GraphKind::Nsw,
        1 => GraphKind::Cagra,
        k => return Err(invalid(&format!("unknown graph kind tag {k}"))),
    };
    let medoid = h.get_u32_le();
    let store_len = h.get_u64_le() as usize;
    let graph_len = h.get_u64_le() as usize;
    let perm_len = if version >= 2 {
        let mut ext = [0u8; 8];
        r.read_exact(&mut ext).map_err(|_| invalid("truncated v2 header"))?;
        u64::from_le_bytes(ext) as usize
    } else {
        0
    };
    let quant_len = if version >= 3 {
        let mut ext = [0u8; 8];
        r.read_exact(&mut ext).map_err(|_| invalid("truncated v3 header"))?;
        u64::from_le_bytes(ext) as usize
    } else {
        0
    };
    let entry_len = if version >= 4 {
        let mut ext = [0u8; 8];
        r.read_exact(&mut ext).map_err(|_| invalid("truncated v4 header"))?;
        u64::from_le_bytes(ext) as usize
    } else {
        0
    };

    let mut store_blob = vec![0u8; store_len];
    r.read_exact(&mut store_blob).map_err(|_| invalid("truncated corpus section"))?;
    let mut graph_blob = vec![0u8; graph_len];
    r.read_exact(&mut graph_blob).map_err(|_| invalid("truncated graph section"))?;

    let base = algas_vector::binary::decode_store(&store_blob)?;
    let graph = algas_graph::binary::decode_graph(&graph_blob)?;
    if base.len() != graph.len() {
        return Err(invalid("corpus/graph size mismatch"));
    }
    CorpusTooLarge::check(base.len()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if (medoid as usize) >= base.len().max(1) {
        return Err(invalid("medoid out of range"));
    }
    let id_map = if perm_len > 0 {
        let mut perm_blob = vec![0u8; perm_len];
        r.read_exact(&mut perm_blob).map_err(|_| invalid("truncated permutation section"))?;
        let perm = algas_graph::binary::decode_permutation(&perm_blob)?;
        if perm.len() != base.len() {
            return Err(invalid("permutation/corpus size mismatch"));
        }
        Some(perm)
    } else {
        None
    };
    let quant = if quant_len > 0 {
        let mut quant_blob = vec![0u8; quant_len];
        r.read_exact(&mut quant_blob).map_err(|_| invalid("truncated quantization section"))?;
        let quant = algas_vector::binary::decode_quantized(&quant_blob)?;
        if quant.len() != base.len() || quant.dim() != base.dim() {
            return Err(invalid("quantized/corpus shape mismatch"));
        }
        Some(quant)
    } else {
        None
    };
    let entry = if entry_len > 0 {
        let mut entry_blob = vec![0u8; entry_len];
        r.read_exact(&mut entry_blob).map_err(|_| invalid("truncated entry section"))?;
        Some(algas_graph::binary::decode_entry_index(&entry_blob, base.len())?)
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
        let mut buf = BytesMut::new();
        buf.put_u32_le(INDEX_MAGIC);
        buf.put_u32_le(1);
        buf.put_u8(1); // cosine
        buf.put_u8(1); // cagra
        buf.put_u32_le(index.medoid);
        buf.put_u64_le(store_blob.len() as u64);
        buf.put_u64_le(graph_blob.len() as u64);
        buf.extend_from_slice(&store_blob);
        buf.extend_from_slice(&graph_blob);
        let back = read_index(std::io::Cursor::new(buf.to_vec())).unwrap();
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
        let mut buf = BytesMut::new();
        buf.put_u32_le(INDEX_MAGIC);
        buf.put_u32_le(2);
        buf.put_u8(1); // cosine
        buf.put_u8(1); // cagra
        buf.put_u32_le(index.medoid);
        buf.put_u64_le(store_blob.len() as u64);
        buf.put_u64_le(graph_blob.len() as u64);
        buf.put_u64_le(perm_blob.len() as u64);
        buf.extend_from_slice(&store_blob);
        buf.extend_from_slice(&graph_blob);
        buf.extend_from_slice(&perm_blob);
        let back = read_index(std::io::Cursor::new(buf.to_vec())).unwrap();
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
        let mut buf = BytesMut::new();
        buf.put_u32_le(INDEX_MAGIC);
        buf.put_u32_le(3);
        buf.put_u8(1); // cosine
        buf.put_u8(1); // cagra
        buf.put_u32_le(index.medoid);
        buf.put_u64_le(store_blob.len() as u64);
        buf.put_u64_le(graph_blob.len() as u64);
        buf.put_u64_le(0); // never relayouted
        buf.put_u64_le(quant_blob.len() as u64);
        buf.extend_from_slice(&store_blob);
        buf.extend_from_slice(&graph_blob);
        buf.extend_from_slice(&quant_blob);
        let back = read_index(std::io::Cursor::new(buf.to_vec())).unwrap();
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
    }
}
