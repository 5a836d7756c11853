//! Canonical binary serialization of [`VectorStore`] and
//! [`QuantizedStore`] (length-prefixed little-endian sections of the
//! index file), and the [`LeReader`] every decoder of that file reads
//! through. A quantized store is written as its header alone; the
//! codes that files of formats 3 and 4 carry are still read.
//!
//! An encoder builds its section as one blob. A decoder streams it: it
//! reads each row from its `io::Read` into one reused buffer and pushes
//! it into a store reserved for the header's row count, so loading
//! never holds a section twice. A byte slice is a reader too
//! (`&blob[..]`), which is how the benchmark cache and the tests decode
//! blobs.

use crate::quant::QuantizedStore;
use crate::store::VectorStore;
use std::io::{self, Read};

const STORE_MAGIC: u32 = 0x414C_5653; // "ALVS"
const QUANT_MAGIC: u32 = 0x414C_5153; // "ALQS"

/// A little-endian reader over one `len`-byte section of a stream. No
/// read goes past the section's end, and a short read fails with
/// `InvalidData`, so a decoder cannot run off the end of a short or
/// lying section, nor reserve room for more words than it holds.
pub struct LeReader<R>(io::Take<R>);

impl<R: Read> LeReader<R> {
    /// A reader over the next `len` bytes of `r`.
    pub fn new(r: R, len: u64) -> Self {
        Self(r.take(len))
    }

    /// Bytes of the section not yet read.
    pub fn remaining(&self) -> u64 {
        self.0.limit()
    }

    /// Fills `buf` with the next `buf.len()` bytes.
    pub fn fill(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.0.read_exact(buf).map_err(|_| invalid("blob truncated"))
    }

    /// Reads and discards the next `n` bytes.
    pub fn skip(&mut self, n: u64) -> io::Result<()> {
        if io::copy(&mut (&mut self.0).take(n), &mut io::sink())? != n {
            return Err(invalid("blob truncated"));
        }
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut bytes = [0; N];
        self.fill(&mut bytes)?;
        Ok(bytes)
    }

    /// The next byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// The next `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `u64` as an in-memory length.
    pub fn len_u64(&mut self) -> io::Result<usize> {
        usize::try_from(self.u64()?).map_err(|_| invalid("length exceeds the address space"))
    }

    /// The next `count` 4-byte words; refused before anything is
    /// reserved when they would run past the section's end.
    fn words<T>(&mut self, count: usize, word: fn([u8; 4]) -> T) -> io::Result<Vec<T>> {
        if count.checked_mul(4).is_none_or(|bytes| bytes as u64 > self.remaining()) {
            return Err(invalid("blob truncated"));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(word(self.array()?));
        }
        Ok(out)
    }

    /// The next `count` `u32`s.
    pub fn u32s(&mut self, count: usize) -> io::Result<Vec<u32>> {
        self.words(count, u32::from_le_bytes)
    }

    /// The next `count` `f32`s.
    pub fn f32s(&mut self, count: usize) -> io::Result<Vec<f32>> {
        self.words(count, f32::from_le_bytes)
    }
}

/// A section nests inside another: the inner reader stops at whichever
/// end comes first.
impl<R: Read> Read for LeReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

/// Serializes a store.
pub fn encode_store(store: &VectorStore) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + store.nbytes());
    buf.extend_from_slice(&STORE_MAGIC.to_le_bytes());
    buf.extend_from_slice(&(store.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(store.dim() as u32).to_le_bytes());
    // Rows are written without their alignment padding: the on-disk
    // format is the logical dim-length payload, independent of stride.
    for row in store.iter() {
        for &x in row {
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }
    buf
}

/// Deserializes a `len`-byte store section from `r`, reading exactly
/// `len` bytes; rejects wrong magic, zero dims, truncation and a header
/// whose `n · dim · 4` is not what the section holds.
pub fn decode_store<R: Read>(r: R, len: u64) -> io::Result<VectorStore> {
    let mut data = LeReader::new(r, len);
    if data.remaining() < 16 || data.u32()? != STORE_MAGIC {
        return Err(invalid("not a vector store blob"));
    }
    let n = data.len_u64()?;
    let dim = data.u32()? as usize;
    let payload = n.checked_mul(dim).and_then(|c| c.checked_mul(4));
    if dim == 0 || payload.map(|p| p as u64) != Some(data.remaining()) {
        return Err(invalid("vector store blob truncated"));
    }
    // The payload check bounds a row by the section only when there is
    // one: a header of no rows sizes nothing by its `dim`.
    let width = if n == 0 { 0 } else { dim };
    let mut store = VectorStore::with_capacity(dim, n);
    let (mut bytes, mut row) = (vec![0u8; width * 4], vec![0f32; width]);
    for _ in 0..n {
        data.fill(&mut bytes)?;
        for (x, w) in row.iter_mut().zip(bytes.chunks_exact(4)) {
            *x = f32::from_le_bytes(w.try_into().expect("chunks of 4"));
        }
        store.push(&row);
    }
    Ok(store)
}

/// Bytes of a quantized-store section header: magic, row count, dim.
pub const QUANT_HEADER_LEN: u64 = 16;

/// Serializes a quantized store as an index file of format 5 holds it:
/// the section header alone. The loader derives the codes, tables and
/// norms from the corpus ([`QuantizedStore::from_store`]), so the file
/// stores none of them.
pub fn encode_quantized_header(store: &QuantizedStore) -> Vec<u8> {
    let mut buf = Vec::with_capacity(QUANT_HEADER_LEN as usize);
    buf.extend_from_slice(&QUANT_MAGIC.to_le_bytes());
    buf.extend_from_slice(&(store.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(store.dim() as u32).to_le_bytes());
    buf
}

/// Reads a format-5 quantized-store section of `len` bytes, which must
/// be its header alone, and returns the `(rows, dim)` it declares.
pub fn decode_quantized_header<R: Read>(r: R, len: u64) -> io::Result<(u64, u32)> {
    if len != QUANT_HEADER_LEN {
        return Err(invalid(&format!(
            "a quantized store header is {QUANT_HEADER_LEN} bytes, the section holds {len}"
        )));
    }
    let mut data = LeReader::new(r, len);
    if data.u32()? != QUANT_MAGIC {
        return Err(invalid("not a quantized store blob"));
    }
    Ok((data.u64()?, data.u32()?))
}

/// Deserializes a `len`-byte quantized-store section of an index file
/// of format 3 or 4 from `r`: the header, the scales, the offsets and
/// the unpadded code rows (norms are recomputed). Reads exactly `len`
/// bytes; rejects wrong magic, zero dims, truncation and a header whose
/// lengths are not what the section holds.
pub fn decode_quantized<R: Read>(r: R, len: u64) -> io::Result<QuantizedStore> {
    let mut data = LeReader::new(r, len);
    if data.remaining() < 16 || data.u32()? != QUANT_MAGIC {
        return Err(invalid("not a quantized store blob"));
    }
    let n = data.len_u64()?;
    let dim = data.u32()? as usize;
    let payload = dim.checked_mul(8).and_then(|t| t.checked_add(n.checked_mul(dim)?));
    if dim == 0 || payload.map(|p| p as u64) != Some(data.remaining()) {
        return Err(invalid("quantized store blob truncated"));
    }
    let scales = data.f32s(dim)?;
    let offsets = data.f32s(dim)?;
    let mut store = QuantizedStore::with_capacity(dim, scales, offsets, n);
    let mut codes = vec![0u8; dim];
    for _ in 0..n {
        data.fill(&mut codes)?;
        store.push_codes(&codes);
    }
    Ok(store)
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes a whole blob as one store section.
    fn store(blob: &[u8]) -> io::Result<VectorStore> {
        decode_store(blob, blob.len() as u64)
    }

    /// Decodes a whole blob as one quantized-store section.
    fn quant(blob: &[u8]) -> io::Result<QuantizedStore> {
        decode_quantized(blob, blob.len() as u64)
    }

    /// A quantized-store section as formats 3 and 4 wrote it: the
    /// header, the affine tables, then the unpadded code rows.
    fn encode_quantized(store: &QuantizedStore) -> Vec<u8> {
        let mut buf = encode_quantized_header(store);
        for &x in store.scales().iter().chain(store.offsets()) {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        for i in 0..store.len() {
            buf.extend_from_slice(store.codes(i));
        }
        buf
    }

    #[test]
    fn roundtrip() {
        let s = VectorStore::from_flat(3, vec![1.0, -2.0, 3.5, 0.0, 9.0, -4.25]);
        assert_eq!(store(&encode_store(&s)).unwrap(), s);
    }

    #[test]
    fn decoders_read_exactly_their_section() {
        let s = VectorStore::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        let q = QuantizedStore::from_store(&s);
        let (sb, qb) = (encode_store(&s), encode_quantized(&q));
        let stream = [&sb[..], &qb[..], b"next"].concat();
        let mut r = &stream[..];
        assert_eq!(decode_store(&mut r, sb.len() as u64).unwrap(), s);
        assert_eq!(decode_quantized(&mut r, qb.len() as u64).unwrap(), q);
        assert_eq!(r, b"next");
        // A section length one byte past the payload is trailing bytes.
        assert!(decode_store(&stream[..], sb.len() as u64 + 1).is_err());
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(store(&[0, 1, 2]).is_err());
        let mut blob = encode_store(&VectorStore::from_flat(2, vec![1.0, 2.0]));
        // A section that claims more than the stream holds.
        assert!(decode_store(&blob[..blob.len() - 1], blob.len() as u64).is_err());
        blob.pop();
        assert!(store(&blob).is_err());
        blob[0] ^= 0xFF;
        assert!(store(&blob).is_err());
        // n · dim · 4 wraps to the (empty) payload length.
        let mut wrapped = STORE_MAGIC.to_le_bytes().to_vec();
        wrapped.extend_from_slice(&(1u64 << 62).to_le_bytes());
        wrapped.extend_from_slice(&1u32.to_le_bytes());
        assert!(store(&wrapped).is_err());
    }

    #[test]
    fn quantized_roundtrip() {
        let base = VectorStore::from_flat(3, vec![1.0, -2.0, 3.5, 0.0, 9.0, -4.25, 0.5, 3.0, 0.0]);
        let q = QuantizedStore::from_store(&base);
        let decoded = quant(&encode_quantized(&q)).unwrap();
        assert_eq!(decoded, q);
        // Recomputed norms survive the trip too.
        for i in 0..q.len() {
            assert_eq!(decoded.row_norm(i), q.row_norm(i));
        }
    }

    #[test]
    fn quantized_rejects_garbage_and_truncation() {
        assert!(quant(&[0, 1, 2]).is_err());
        let base = VectorStore::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut blob = encode_quantized(&QuantizedStore::from_store(&base));
        blob.pop();
        assert!(quant(&blob).is_err());
        blob[0] ^= 0xFF;
        assert!(quant(&blob).is_err());
        // 2 · dim · 4 + n · dim wraps to the (empty) payload length.
        let mut wrapped = QUANT_MAGIC.to_le_bytes().to_vec();
        wrapped.extend_from_slice(&(1u64 << 61).to_le_bytes());
        wrapped.extend_from_slice(&8u32.to_le_bytes());
        assert!(quant(&wrapped).is_err());
    }

    #[test]
    fn quantized_header_roundtrips_and_is_its_section() {
        let base = VectorStore::from_flat(3, vec![1.0, -2.0, 3.5, 0.0, 9.0, -4.25]);
        let header = encode_quantized_header(&QuantizedStore::from_store(&base));
        assert_eq!(header.len() as u64, QUANT_HEADER_LEN);
        assert_eq!(decode_quantized_header(&header[..], QUANT_HEADER_LEN).unwrap(), (2, 3));
        // The legacy section's first 16 bytes are the same header.
        let legacy = encode_quantized(&QuantizedStore::from_store(&base));
        assert_eq!(legacy[..16], header[..]);
        // Any other length, and another magic, are refused.
        for len in [0, 15, 17, legacy.len() as u64] {
            let err = decode_quantized_header(&legacy[..], len).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
        let mut bad = header.clone();
        bad[0] ^= 0xFF;
        assert!(decode_quantized_header(&bad[..], QUANT_HEADER_LEN).is_err());
    }
}
