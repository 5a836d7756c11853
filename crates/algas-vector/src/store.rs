//! Dense row-major vector storage with 64-byte aligned, padded rows.

/// Floats per 64-byte block; rows are padded to a multiple of this.
const FLOATS_PER_BLOCK: usize = 16;

/// One cache line of floats. The alignment of this type is what makes
/// every row in a [`VectorStore`] start on a 64-byte boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C, align(64))]
struct Block([f32; FLOATS_PER_BLOCK]);

const ZERO_BLOCK: Block = Block([0.0; FLOATS_PER_BLOCK]);

/// A dense, row-major matrix of `f32` vectors.
///
/// All vectors in a store share one dimension. Each row occupies
/// [`stride`](Self::stride) floats — `dim` rounded up to a multiple of
/// 16 — so every row starts on a 64-byte (cache line / AVX-512 register)
/// boundary and the tail of each row is zero-filled. This is the layout
/// the simulated GPU global memory uses as well (one coalesced, aligned
/// segment per vector), and it is what lets the SIMD distance kernels
/// in [`crate::simd`] run aligned full-width loops with no remainder
/// handling on the batched path.
///
/// [`get`](Self::get) still returns exactly `dim` floats, so code that
/// is not distance-critical never sees the padding;
/// [`row_padded`](Self::row_padded) exposes the full aligned stride.
#[derive(Clone, Debug, PartialEq)]
pub struct VectorStore {
    dim: usize,
    stride: usize,
    len: usize,
    blocks: Vec<Block>,
}

impl VectorStore {
    /// Creates an empty store of vectors with `dim` dimensions.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        Self {
            dim,
            stride: dim.div_ceil(FLOATS_PER_BLOCK) * FLOATS_PER_BLOCK,
            len: 0,
            blocks: Vec::new(),
        }
    }

    /// Creates a store with pre-allocated capacity for `n` vectors.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        let mut store = Self::new(dim);
        store.blocks.reserve(n * store.blocks_per_row());
        store
    }

    /// Builds a store from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn from_flat(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "flat buffer length {} is not a multiple of dim {}",
            data.len(),
            dim
        );
        let mut store = Self::with_capacity(dim, data.len() / dim);
        for row in data.chunks_exact(dim) {
            store.push(row);
        }
        store
    }

    /// Builds a store from an iterator of rows.
    ///
    /// # Panics
    /// Panics if any row's length differs from `dim`.
    pub fn from_rows<'a, I>(dim: usize, rows: I) -> Self
    where
        I: IntoIterator<Item = &'a [f32]>,
    {
        let mut store = Self::new(dim);
        for row in rows {
            store.push(row);
        }
        store
    }

    #[inline]
    fn blocks_per_row(&self) -> usize {
        self.stride / FLOATS_PER_BLOCK
    }

    /// The flat padded buffer viewed as floats (`len * stride` long).
    #[inline]
    pub(crate) fn flat(&self) -> &[f32] {
        // SAFETY: `Block` is `repr(C, align(64))` around `[f32; 16]`
        // (64 bytes, no padding bytes), so a slice of blocks is exactly
        // a contiguous, initialized run of `16 * blocks.len()` f32s.
        unsafe {
            std::slice::from_raw_parts(
                self.blocks.as_ptr().cast::<f32>(),
                self.blocks.len() * FLOATS_PER_BLOCK,
            )
        }
    }

    #[inline]
    fn flat_mut(&mut self) -> &mut [f32] {
        // SAFETY: same layout argument as `flat`.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.blocks.as_mut_ptr().cast::<f32>(),
                self.blocks.len() * FLOATS_PER_BLOCK,
            )
        }
    }

    /// Appends one vector.
    ///
    /// # Panics
    /// Panics if `row.len() != self.dim()`.
    pub fn push(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row length must equal store dimension");
        self.blocks.resize(self.blocks.len() + self.blocks_per_row(), ZERO_BLOCK);
        self.len += 1;
        let start = (self.len - 1) * self.stride;
        let dim = self.dim;
        self.flat_mut()[start..start + dim].copy_from_slice(row);
    }

    /// Number of vectors stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The shared dimension of all vectors.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Floats per stored row: `dim` rounded up to a multiple of 16.
    ///
    /// `stride() - dim()` trailing floats of every
    /// [`row_padded`](Self::row_padded) slice are zero.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Borrows vector `i` (exactly `dim` floats, padding excluded).
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> &[f32] {
        assert!(i < self.len, "row index {i} out of bounds for store of len {}", self.len);
        let start = i * self.stride;
        &self.flat()[start..start + self.dim]
    }

    /// Borrows vector `i` with its zero padding: `stride` floats
    /// starting on a 64-byte boundary.
    ///
    /// This is the accessor the batched SIMD kernels use — the slice
    /// length is always a multiple of 16, so a full-width vector loop
    /// covers it with no scalar tail.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row_padded(&self, i: usize) -> &[f32] {
        assert!(i < self.len, "row index {i} out of bounds for store of len {}", self.len);
        let start = i * self.stride;
        &self.flat()[start..start + self.stride]
    }

    /// Borrows vector `i` mutably (padding excluded, so the zero tail
    /// cannot be corrupted through this accessor).
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.len, "row index {i} out of bounds for store of len {}", self.len);
        let start = i * self.stride;
        let dim = self.dim;
        &mut self.flat_mut()[start..start + dim]
    }

    /// Iterates over rows in index order (each exactly `dim` floats).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f32]> {
        (0..self.len).map(move |i| self.get(i))
    }

    /// L2-normalizes every vector in place.
    ///
    /// Zero vectors are left untouched (normalizing them is undefined).
    /// Cosine-metric corpora are normalized once at load, after which
    /// cosine similarity reduces to an inner product — the same trick the
    /// GPU implementations in the paper's lineage (SONG, CAGRA) use.
    pub fn normalize_l2(&mut self) {
        for i in 0..self.len {
            let row = self.get_mut(i);
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 0.0 {
                for x in row.iter_mut() {
                    *x /= norm;
                }
            }
        }
    }

    /// Returns a new store whose row `i` is this store's row
    /// `new_to_old[i]` — the vector-side half of a graph relayout, so
    /// that graph node order and vector row order stay equal.
    ///
    /// # Panics
    /// Panics if `new_to_old` is not a permutation of `0..len` (length
    /// mismatch or out-of-range id; duplicate ids are caught by the
    /// length check plus range check only in debug builds — callers pass
    /// validated `NodePermutation` sides).
    pub fn permute(&self, new_to_old: &[u32]) -> VectorStore {
        assert_eq!(new_to_old.len(), self.len, "permutation length must equal store length");
        let mut out = Self::with_capacity(self.dim, self.len);
        for &old in new_to_old {
            out.push(self.get(old as usize));
        }
        out
    }

    /// Hints the CPU to pull row `i` into cache ahead of a future
    /// [`get`](Self::get). Advisory only; never faults.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        crate::simd::prefetch_row(self.row_padded(i));
    }

    /// Returns the memory footprint of the logical vector payload in
    /// bytes (`len * dim * 4`), excluding alignment padding — this is
    /// also exactly what the binary codec serializes. See
    /// [`nbytes_padded`](Self::nbytes_padded) for the resident size.
    pub fn nbytes(&self) -> usize {
        self.len * self.dim * std::mem::size_of::<f32>()
    }

    /// Returns the resident size of the padded backing buffer in bytes.
    pub fn nbytes_padded(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<Block>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let mut s = VectorStore::new(3);
        s.push(&[1.0, 2.0, 3.0]);
        s.push(&[4.0, 5.0, 6.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), &[1.0, 2.0, 3.0]);
        assert_eq!(s.get(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_flat_roundtrip() {
        let s = VectorStore::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_flat_rejects_ragged() {
        let _ = VectorStore::from_flat(3, vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn push_rejects_wrong_dim() {
        let mut s = VectorStore::new(3);
        s.push(&[1.0]);
    }

    #[test]
    fn from_rows_matches_pushes() {
        let rows: Vec<Vec<f32>> = vec![vec![0.0, 1.0], vec![2.0, 3.0]];
        let s = VectorStore::from_rows(2, rows.iter().map(|r| r.as_slice()));
        let mut t = VectorStore::new(2);
        t.push(&[0.0, 1.0]);
        t.push(&[2.0, 3.0]);
        assert_eq!(s, t);
        assert_eq!(s.get(0), &[0.0, 1.0]);
        assert_eq!(s.get(1), &[2.0, 3.0]);
    }

    #[test]
    fn normalize_l2_yields_unit_norms() {
        let mut s = VectorStore::from_flat(2, vec![3.0, 4.0, 0.0, 0.0, 1.0, 0.0]);
        s.normalize_l2();
        assert!((s.get(0)[0] - 0.6).abs() < 1e-6);
        assert!((s.get(0)[1] - 0.8).abs() < 1e-6);
        // Zero vector untouched.
        assert_eq!(s.get(1), &[0.0, 0.0]);
        assert_eq!(s.get(2), &[1.0, 0.0]);
    }

    #[test]
    fn iter_visits_rows_in_order() {
        let s = VectorStore::from_flat(1, vec![9.0, 8.0, 7.0]);
        let rows: Vec<&[f32]> = s.iter().collect();
        assert_eq!(rows, vec![&[9.0][..], &[8.0][..], &[7.0][..]]);
    }

    #[test]
    fn nbytes_counts_payload() {
        let s = VectorStore::from_flat(4, vec![0.0; 16]);
        assert_eq!(s.nbytes(), 64);
    }

    #[test]
    fn rows_are_aligned_and_zero_padded() {
        for dim in [1, 3, 16, 17, 100, 128, 200] {
            let mut s = VectorStore::new(dim);
            s.push(&vec![1.5; dim]);
            s.push(&vec![-2.5; dim]);
            assert_eq!(s.stride(), dim.div_ceil(16) * 16);
            assert_eq!(s.stride() % 16, 0);
            for i in 0..s.len() {
                let padded = s.row_padded(i);
                assert_eq!(padded.as_ptr() as usize % 64, 0, "dim={dim} row={i} misaligned");
                assert_eq!(padded.len(), s.stride());
                assert_eq!(&padded[..dim], s.get(i));
                assert!(padded[dim..].iter().all(|&x| x == 0.0), "dim={dim} pad not zero");
            }
        }
    }

    #[test]
    fn padding_stays_zero_after_mutation() {
        let mut s = VectorStore::new(5);
        s.push(&[1.0; 5]);
        s.get_mut(0).copy_from_slice(&[9.0; 5]);
        s.normalize_l2();
        assert!(s.row_padded(0)[5..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn permute_reorders_rows() {
        let s = VectorStore::from_flat(2, vec![0.0, 0.1, 1.0, 1.1, 2.0, 2.1]);
        let p = s.permute(&[2, 0, 1]);
        assert_eq!(p.get(0), s.get(2));
        assert_eq!(p.get(1), s.get(0));
        assert_eq!(p.get(2), s.get(1));
        assert_eq!(p.stride(), s.stride());
        // Identity permutation reproduces the store exactly.
        assert_eq!(s.permute(&[0, 1, 2]), s);
        s.prefetch(0); // advisory — just must not fault
    }

    #[test]
    #[should_panic(expected = "permutation length")]
    fn permute_rejects_wrong_length() {
        let s = VectorStore::from_flat(1, vec![1.0, 2.0]);
        let _ = s.permute(&[0]);
    }

    #[test]
    fn nbytes_padded_counts_backing_blocks() {
        let s = VectorStore::from_flat(4, vec![0.0; 16]); // 4 rows, 1 block each
        assert_eq!(s.nbytes_padded(), 4 * 64);
    }
}
