//! Canonical binary serialization of [`VectorStore`] and
//! [`QuantizedStore`] (length-prefixed little-endian; used by index
//! persistence and the benchmark cache), and the [`LeCursor`] every
//! decoder of the index file reads through.

use crate::quant::QuantizedStore;
use crate::store::VectorStore;
use std::io;

const STORE_MAGIC: u32 = 0x414C_5653; // "ALVS"
const QUANT_MAGIC: u32 = 0x414C_5153; // "ALQS"

/// A little-endian read cursor over a byte slice. Every read checks
/// what is left first and fails with `InvalidData`, so a decoder cannot
/// run off the end of a short or lying blob.
pub struct LeCursor<'a>(&'a [u8]);

impl<'a> LeCursor<'a> {
    /// A cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self(data)
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.0.len()
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.0.len() {
            return Err(invalid("blob truncated"));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
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

    fn words(&mut self, count: usize) -> io::Result<impl Iterator<Item = [u8; 4]> + 'a> {
        let bytes = self.take(count.checked_mul(4).ok_or_else(|| invalid("blob truncated"))?)?;
        Ok(bytes.chunks_exact(4).map(|w| w.try_into().expect("chunks of 4")))
    }

    /// The next `count` `u32`s.
    pub fn u32s(&mut self, count: usize) -> io::Result<Vec<u32>> {
        Ok(self.words(count)?.map(u32::from_le_bytes).collect())
    }

    /// The next `count` `f32`s.
    pub fn f32s(&mut self, count: usize) -> io::Result<Vec<f32>> {
        Ok(self.words(count)?.map(f32::from_le_bytes).collect())
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

/// Deserializes a store; rejects wrong magic, zero dims, truncation
/// and a header whose `n · dim · 4` does not fit a `usize`.
pub fn decode_store(data: &[u8]) -> io::Result<VectorStore> {
    let mut data = LeCursor::new(data);
    if data.remaining() < 16 || data.u32()? != STORE_MAGIC {
        return Err(invalid("not a vector store blob"));
    }
    let n = data.len_u64()?;
    let dim = data.u32()? as usize;
    let payload = n.checked_mul(dim).and_then(|c| c.checked_mul(4));
    if dim == 0 || payload != Some(data.remaining()) {
        return Err(invalid("vector store blob truncated"));
    }
    Ok(VectorStore::from_flat(dim, data.f32s(n * dim)?))
}

/// Serializes a quantized store: the affine tables followed by the
/// unpadded code rows. Row norms are derived data and are recomputed on
/// decode rather than stored.
pub fn encode_quantized(store: &QuantizedStore) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + store.nbytes());
    buf.extend_from_slice(&QUANT_MAGIC.to_le_bytes());
    buf.extend_from_slice(&(store.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(store.dim() as u32).to_le_bytes());
    for &s in store.scales() {
        buf.extend_from_slice(&s.to_le_bytes());
    }
    for &o in store.offsets() {
        buf.extend_from_slice(&o.to_le_bytes());
    }
    for i in 0..store.len() {
        buf.extend_from_slice(store.codes(i));
    }
    buf
}

/// Deserializes a quantized store; rejects wrong magic, zero dims,
/// truncation and a header whose lengths do not fit a `usize`.
pub fn decode_quantized(data: &[u8]) -> io::Result<QuantizedStore> {
    let mut data = LeCursor::new(data);
    if data.remaining() < 16 || data.u32()? != QUANT_MAGIC {
        return Err(invalid("not a quantized store blob"));
    }
    let n = data.len_u64()?;
    let dim = data.u32()? as usize;
    let payload = dim.checked_mul(8).and_then(|t| t.checked_add(n.checked_mul(dim)?));
    if dim == 0 || payload != Some(data.remaining()) {
        return Err(invalid("quantized store blob truncated"));
    }
    let scales = data.f32s(dim)?;
    let offsets = data.f32s(dim)?;
    let codes = data.take(n * dim)?;
    Ok(QuantizedStore::from_parts(dim, codes, scales, offsets))
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let s = VectorStore::from_flat(3, vec![1.0, -2.0, 3.5, 0.0, 9.0, -4.25]);
        assert_eq!(decode_store(&encode_store(&s)).unwrap(), s);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(decode_store(&[0, 1, 2]).is_err());
        let mut blob = encode_store(&VectorStore::from_flat(2, vec![1.0, 2.0]));
        blob.pop();
        assert!(decode_store(&blob).is_err());
        blob[0] ^= 0xFF;
        assert!(decode_store(&blob).is_err());
        // n · dim · 4 wraps to the (empty) payload length.
        let mut wrapped = STORE_MAGIC.to_le_bytes().to_vec();
        wrapped.extend_from_slice(&(1u64 << 62).to_le_bytes());
        wrapped.extend_from_slice(&1u32.to_le_bytes());
        assert!(decode_store(&wrapped).is_err());
    }

    #[test]
    fn quantized_roundtrip() {
        let base = VectorStore::from_flat(3, vec![1.0, -2.0, 3.5, 0.0, 9.0, -4.25, 0.5, 3.0, 0.0]);
        let q = QuantizedStore::from_store(&base);
        let decoded = decode_quantized(&encode_quantized(&q)).unwrap();
        assert_eq!(decoded, q);
        // Recomputed norms survive the trip too.
        for i in 0..q.len() {
            assert_eq!(decoded.row_norm(i), q.row_norm(i));
        }
    }

    #[test]
    fn quantized_rejects_garbage_and_truncation() {
        assert!(decode_quantized(&[0, 1, 2]).is_err());
        let base = VectorStore::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut blob = encode_quantized(&QuantizedStore::from_store(&base));
        blob.pop();
        assert!(decode_quantized(&blob).is_err());
        blob[0] ^= 0xFF;
        assert!(decode_quantized(&blob).is_err());
        // 2 · dim · 4 + n · dim wraps to the (empty) payload length.
        let mut wrapped = QUANT_MAGIC.to_le_bytes().to_vec();
        wrapped.extend_from_slice(&(1u64 << 61).to_le_bytes());
        wrapped.extend_from_slice(&8u32.to_le_bytes());
        assert!(decode_quantized(&wrapped).is_err());
    }
}
