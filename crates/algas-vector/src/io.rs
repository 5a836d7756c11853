//! `fvecs` / `ivecs` file formats (the TEXMEX corpus formats used by
//! SIFT1M/GIST1M and ann-benchmarks exports).
//!
//! Each record is a little-endian `u32` dimension followed by `dim`
//! little-endian values (`f32` for fvecs, `i32`/`u32` for ivecs). These
//! loaders let the real paper corpora replace the synthetic generators
//! without touching any other code.

use crate::store::VectorStore;
use std::io::{self, Read, Write};

/// Reads an entire `fvecs` stream into a [`VectorStore`].
///
/// Returns `InvalidData` if records disagree on dimension, a record is
/// truncated, or the stated dimension is zero/absurd (> 2^20).
pub fn read_fvecs<R: Read>(mut reader: R) -> io::Result<VectorStore> {
    let mut dim: Option<usize> = None;
    let mut store: Option<VectorStore> = None;
    let mut row: Vec<f32> = Vec::new();
    loop {
        let mut dim_buf = [0u8; 4];
        match read_exact_or_eof(&mut reader, &mut dim_buf)? {
            ReadStatus::Eof => break,
            ReadStatus::Full => {}
        }
        let d = u32::from_le_bytes(dim_buf) as usize;
        if d == 0 || d > (1 << 20) {
            return Err(invalid(format!("implausible fvecs dimension {d}")));
        }
        match dim {
            None => {
                dim = Some(d);
                store = Some(VectorStore::new(d));
                row = vec![0.0; d];
            }
            Some(expected) if expected != d => {
                return Err(invalid(format!("dimension changed from {expected} to {d}")));
            }
            Some(_) => {}
        }
        let mut payload = vec![0u8; d * 4];
        reader.read_exact(&mut payload).map_err(|_| invalid("truncated fvecs record"))?;
        for (i, chunk) in payload.chunks_exact(4).enumerate() {
            row[i] = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        store.as_mut().expect("store initialized with dim").push(&row);
    }
    Ok(store.unwrap_or_else(|| VectorStore::new(1)))
}

/// Writes a [`VectorStore`] as an `fvecs` stream.
pub fn write_fvecs<W: Write>(mut writer: W, store: &VectorStore) -> io::Result<()> {
    let dim = store.dim() as u32;
    for row in store.iter() {
        writer.write_all(&dim.to_le_bytes())?;
        for &x in row {
            writer.write_all(&x.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads an `ivecs` stream (e.g. ground-truth neighbor ids) into rows of
/// `u32` ids.
pub fn read_ivecs<R: Read>(mut reader: R) -> io::Result<Vec<Vec<u32>>> {
    let mut rows = Vec::new();
    let mut expected: Option<usize> = None;
    loop {
        let mut dim_buf = [0u8; 4];
        match read_exact_or_eof(&mut reader, &mut dim_buf)? {
            ReadStatus::Eof => break,
            ReadStatus::Full => {}
        }
        let d = u32::from_le_bytes(dim_buf) as usize;
        if d == 0 || d > (1 << 20) {
            return Err(invalid(format!("implausible ivecs dimension {d}")));
        }
        if let Some(e) = expected {
            if e != d {
                return Err(invalid(format!("ivecs dimension changed from {e} to {d}")));
            }
        } else {
            expected = Some(d);
        }
        let mut payload = vec![0u8; d * 4];
        reader.read_exact(&mut payload).map_err(|_| invalid("truncated ivecs record"))?;
        rows.push(
            payload.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect(),
        );
    }
    Ok(rows)
}

/// Writes rows of ids as an `ivecs` stream.
///
/// # Panics
/// Panics if rows have differing lengths (the format requires a fixed k).
pub fn write_ivecs<W: Write>(mut writer: W, rows: &[Vec<u32>]) -> io::Result<()> {
    if let Some(first) = rows.first() {
        let k = first.len();
        for row in rows {
            assert_eq!(row.len(), k, "ivecs rows must share one length");
            writer.write_all(&(k as u32).to_le_bytes())?;
            for &id in row {
                writer.write_all(&id.to_le_bytes())?;
            }
        }
    }
    Ok(())
}

enum ReadStatus {
    Full,
    Eof,
}

/// Reads exactly `buf.len()` bytes, distinguishing clean EOF (zero bytes
/// read) from a mid-record truncation.
fn read_exact_or_eof<R: Read>(reader: &mut R, buf: &mut [u8]) -> io::Result<ReadStatus> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = reader.read(&mut buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(ReadStatus::Eof);
            }
            return Err(invalid("unexpected EOF inside record header"));
        }
        filled += n;
    }
    Ok(ReadStatus::Full)
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn fvecs_roundtrip() {
        let store = VectorStore::from_flat(3, vec![1.0, 2.0, 3.0, -4.0, 5.5, 0.0]);
        let mut buf = Vec::new();
        write_fvecs(&mut buf, &store).unwrap();
        let back = read_fvecs(Cursor::new(buf)).unwrap();
        assert_eq!(back, store);
    }

    #[test]
    fn ivecs_roundtrip() {
        let rows = vec![vec![1u32, 2, 3], vec![7, 8, 9]];
        let mut buf = Vec::new();
        write_ivecs(&mut buf, &rows).unwrap();
        let back = read_ivecs(Cursor::new(buf)).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn empty_stream_is_ok() {
        let store = read_fvecs(Cursor::new(Vec::<u8>::new())).unwrap();
        assert!(store.is_empty());
        let rows = read_ivecs(Cursor::new(Vec::<u8>::new())).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn truncated_record_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&1.0f32.to_le_bytes()); // only 1 of 3 values
        assert!(read_fvecs(Cursor::new(buf)).is_err());
    }

    #[test]
    fn dimension_change_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1.0f32.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&1.0f32.to_le_bytes());
        buf.extend_from_slice(&2.0f32.to_le_bytes());
        assert!(read_fvecs(Cursor::new(buf)).is_err());
    }

    #[test]
    fn zero_dimension_is_rejected() {
        let buf = 0u32.to_le_bytes().to_vec();
        assert!(read_fvecs(Cursor::new(buf)).is_err());
    }
}
