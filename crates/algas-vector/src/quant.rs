//! SQ8 scalar quantization: 4× smaller rows for the bandwidth-bound
//! traversal hot path.
//!
//! Graph traversal streams full rows through the distance kernels, so
//! row *bytes* — not FLOPs — set the latency floor. A [`QuantizedStore`]
//! keeps one u8 code per dimension under a per-dimension affine map
//!
//! ```text
//! x̂_d = offset_d + scale_d · code_d        code_d ∈ 0..=255
//! ```
//!
//! with `offset_d = min_d`, `scale_d = (max_d - min_d) / 255` over the
//! corpus, so the dequantization error per dimension is at most
//! `scale_d / 2` (see [`QuantizedStore::max_dequant_error`]).
//!
//! Distances are computed **asymmetrically**: the query stays in f32
//! until [`QuantizedQuery::encode`] folds the affine map into it — once
//! per search, shared by all of its walkers (see [`QuantizedQuery`]) —
//! after which every candidate costs one integer dot
//! product ([`crate::simd::dot_u8i8`]) plus two fused scalar terms:
//!
//! * L2: `‖q - x̂‖² = Σa_d² − 2Σ(a_d·scale_d)·c_d + Σscale_d²c_d²`
//!   with `a_d = q_d − offset_d`. The first term is a per-query
//!   constant, the last a per-row norm precomputed at quantization
//!   time, and the middle term is the integer dot against the
//!   i8-quantized weight vector `t_d = a_d·scale_d`.
//! * Cosine: `1 − q·x̂ = (1 − Σq_d·offset_d) − Σ(q_d·scale_d)·c_d`.
//!
//! Rows are padded to 64-byte blocks exactly like
//! [`VectorStore`] (zero codes and zero query
//! weights in the pad lanes contribute nothing to the dot), so the
//! integer kernels run aligned full-width loops with no tail.
//!
//! Traversal distances are approximate; search loops that use them
//! re-rank the pooled candidates with exact f32 distances before
//! returning (see `algas-core`'s engine), which is what keeps recall
//! within ε of the fp32 path at a quarter of the traversal bandwidth.

use crate::metric::Metric;
use crate::simd;
use crate::store::VectorStore;

/// Bytes per code block; rows are padded to a multiple of this.
const BYTES_PER_BLOCK: usize = 64;

/// One cache line of codes; the alignment of this type is what makes
/// every code row start on a 64-byte boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C, align(64))]
struct QBlock([u8; BYTES_PER_BLOCK]);

const ZERO_QBLOCK: QBlock = QBlock([0; BYTES_PER_BLOCK]);

/// A dense, row-major matrix of SQ8 codes mirroring a
/// [`VectorStore`]: same row order, 64-byte aligned zero-padded rows,
/// [`permute`](Self::permute)/[`prefetch`](Self::prefetch) parity so
/// relayout treats both stores identically.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedStore {
    dim: usize,
    stride: usize,
    len: usize,
    blocks: Vec<QBlock>,
    /// Per-dimension affine scale `(max_d - min_d) / 255`; exactly 0
    /// for dimensions that are constant across the corpus.
    scales: Vec<f32>,
    /// Per-dimension affine offset (the corpus minimum).
    offsets: Vec<f32>,
    /// Per-row `Σ scale_d² · code_d²` — the code-only quadratic term of
    /// the expanded L2 distance, precomputed once at quantization time.
    row_norms: Vec<f32>,
}

impl QuantizedStore {
    /// Quantizes every row of `store` with per-dimension affine SQ8.
    /// Deterministic bit for bit: an index file of format 5 stores no
    /// codes, and its loader derives them here from the fp32 rows.
    ///
    /// # Panics
    /// Panics if the store is empty (there is no range to quantize).
    pub fn from_store(store: &VectorStore) -> Self {
        let (scales, offsets) = affine_tables(store);
        let mut out = Self::with_capacity(store.dim(), scales, offsets, store.len());
        for row in store.iter() {
            let start = out.grow();
            let codes = &mut bytes_mut(&mut out.blocks)[start..start + row.len()];
            encode_row(&out.scales, &out.offsets, row, codes);
        }
        out.push_norms();
        out
    }

    /// Whether this store holds exactly what [`from_store`](Self::from_store)
    /// derives from `store`: the same tables and, row by row, the same
    /// codes (the norms follow from those two). Allocates one row of
    /// codes, not a second store.
    pub fn is_derived_from(&self, store: &VectorStore) -> bool {
        if store.is_empty() || store.len() != self.len || store.dim() != self.dim {
            return false;
        }
        let (scales, offsets) = affine_tables(store);
        if scales != self.scales || offsets != self.offsets {
            return false;
        }
        let mut codes = vec![0u8; self.dim];
        (0..self.len).all(|i| {
            encode_row(&self.scales, &self.offsets, store.get(i), &mut codes);
            codes == self.codes(i)
        })
    }

    /// An empty store for `dim`-dimensional rows under the given affine
    /// tables, reserved for `capacity` rows; rows are appended with
    /// [`push_codes`](Self::push_codes).
    ///
    /// # Panics
    /// Panics if `dim == 0` or `scales`/`offsets` are not `dim` long.
    pub fn with_capacity(dim: usize, scales: Vec<f32>, offsets: Vec<f32>, capacity: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert_eq!(scales.len(), dim, "scales length must equal dim");
        assert_eq!(offsets.len(), dim, "offsets length must equal dim");
        let stride = dim.div_ceil(BYTES_PER_BLOCK) * BYTES_PER_BLOCK;
        let mut store = Self {
            dim,
            stride,
            len: 0,
            blocks: Vec::new(),
            scales,
            offsets,
            row_norms: Vec::with_capacity(capacity),
        };
        store.blocks.reserve(capacity * stride / BYTES_PER_BLOCK);
        store
    }

    /// Appends one already-encoded code row (the path of index files of
    /// formats 3 and 4, which store codes); its norm is recomputed.
    ///
    /// # Panics
    /// Panics if `codes.len() != self.dim()`.
    pub fn push_codes(&mut self, codes: &[u8]) {
        assert_eq!(codes.len(), self.dim, "code row length must equal store dimension");
        let start = self.grow();
        bytes_mut(&mut self.blocks)[start..start + codes.len()].copy_from_slice(codes);
        self.push_norms();
    }

    /// Appends one zeroed row, without its norm; returns its first
    /// byte's offset.
    fn grow(&mut self) -> usize {
        self.blocks.resize(self.blocks.len() + self.stride / BYTES_PER_BLOCK, ZERO_QBLOCK);
        self.len += 1;
        (self.len - 1) * self.stride
    }

    /// Computes the `Σ scale_d² · code_d²` of every row that has none
    /// yet. Each row's sum runs in dimension order, so a norm is the
    /// same bits however it was appended; eight rows run side by side,
    /// so their additions, not one row's chain of them, fill the
    /// pipeline.
    fn push_norms(&mut self) {
        const SIDE_BY_SIDE: usize = 8;
        let bytes = bytes(&self.blocks);
        while self.row_norms.len() < self.len {
            let first = self.row_norms.len();
            // A short last group repeats its last row in the spare lanes.
            let starts: [usize; SIDE_BY_SIDE] =
                std::array::from_fn(|r| (first + r).min(self.len - 1) * self.stride);
            let mut sums = [0.0f32; SIDE_BY_SIDE];
            for (d, &s) in self.scales.iter().enumerate() {
                for (sum, &start) in sums.iter_mut().zip(&starts) {
                    let sc = s * f32::from(bytes[start + d]);
                    *sum += sc * sc;
                }
            }
            self.row_norms.extend_from_slice(&sums[..(self.len - first).min(SIDE_BY_SIDE)]);
        }
    }

    #[inline]
    fn flat(&self) -> &[u8] {
        bytes(&self.blocks)
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

    /// Bytes per stored row: `dim` rounded up to a multiple of 64.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Borrows the codes of row `i` (exactly `dim` bytes).
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn codes(&self, i: usize) -> &[u8] {
        assert!(i < self.len, "row index {i} out of bounds for store of len {}", self.len);
        let start = i * self.stride;
        &self.flat()[start..start + self.dim]
    }

    /// Borrows row `i` with its zero padding: `stride` bytes starting
    /// on a 64-byte boundary — the accessor the integer SIMD kernels
    /// use (length a multiple of 64, no scalar tail).
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row_padded(&self, i: usize) -> &[u8] {
        assert!(i < self.len, "row index {i} out of bounds for store of len {}", self.len);
        let start = i * self.stride;
        &self.flat()[start..start + self.stride]
    }

    /// Per-dimension affine scales.
    #[inline]
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Per-dimension affine offsets.
    #[inline]
    pub fn offsets(&self) -> &[f32] {
        &self.offsets
    }

    /// The precomputed `Σ scale_d²·code_d²` of row `i`.
    #[inline]
    pub fn row_norm(&self, i: usize) -> f32 {
        self.row_norms[i]
    }

    /// Reconstructs row `i` into `out` (cleared first): `offset_d +
    /// scale_d · code_d` per dimension.
    pub fn dequantize_into(&self, i: usize, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.dim);
        for (d, &code) in self.codes(i).iter().enumerate() {
            out.push(self.offsets[d] + self.scales[d] * f32::from(code));
        }
    }

    /// Worst-case per-dimension reconstruction error: `scale_d / 2`
    /// for in-range inputs (rounding moves a code by at most half a
    /// step). The proptest suite pins this bound.
    pub fn max_dequant_error(&self, d: usize) -> f32 {
        self.scales[d] * 0.5
    }

    /// Returns a new store whose row `i` is this store's row
    /// `new_to_old[i]` — the quantized half of a graph relayout,
    /// mirroring [`VectorStore::permute`] so both stores stay in the
    /// same node order.
    ///
    /// # Panics
    /// Panics if `new_to_old` is not `len` long or any id is out of
    /// range.
    pub fn permute(&self, new_to_old: &[u32]) -> QuantizedStore {
        assert_eq!(new_to_old.len(), self.len, "permutation length must equal store length");
        let mut out =
            Self::with_capacity(self.dim, self.scales.clone(), self.offsets.clone(), self.len);
        for &old in new_to_old {
            out.push_codes(self.codes(old as usize));
        }
        out
    }

    /// Hints the CPU to pull row `i` into cache ahead of a future
    /// score. Advisory only; never faults.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        let row = self.row_padded(i);
        simd::prefetch_span(row.as_ptr(), row.len());
    }

    /// Memory footprint of the logical quantized payload in bytes:
    /// one code byte per dimension per row, the per-dimension
    /// scale/offset tables, and the per-row norms. Excludes alignment
    /// padding, mirroring [`VectorStore::nbytes`]. (An index file of
    /// format 5 stores none of it: the loader derives it.)
    pub fn nbytes(&self) -> usize {
        self.len * self.dim
            + 2 * self.dim * std::mem::size_of::<f32>()
            + self.len * std::mem::size_of::<f32>()
    }

    /// Resident size of the padded backing buffer plus side tables.
    pub fn nbytes_padded(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<QBlock>()
            + (self.scales.len() + self.offsets.len() + self.row_norms.len())
                * std::mem::size_of::<f32>()
    }
}

/// `blocks` as one run of bytes.
#[inline]
fn bytes(blocks: &[QBlock]) -> &[u8] {
    // SAFETY: `QBlock` is `repr(C, align(64))` around `[u8; 64]` (no
    // padding bytes), so a slice of blocks is exactly a contiguous,
    // initialized run of `64 * blocks.len()` bytes.
    unsafe {
        std::slice::from_raw_parts(blocks.as_ptr().cast::<u8>(), std::mem::size_of_val(blocks))
    }
}

/// `blocks` as one run of mutable bytes.
#[inline]
fn bytes_mut(blocks: &mut [QBlock]) -> &mut [u8] {
    // SAFETY: the layout argument of `bytes`.
    unsafe {
        std::slice::from_raw_parts_mut(
            blocks.as_mut_ptr().cast::<u8>(),
            std::mem::size_of_val(blocks),
        )
    }
}

/// The per-dimension affine tables of `store`: scales `(max_d −
/// min_d) / 255` and offsets `min_d`.
///
/// # Panics
/// Panics if the store is empty.
fn affine_tables(store: &VectorStore) -> (Vec<f32>, Vec<f32>) {
    assert!(!store.is_empty(), "cannot quantize an empty store");
    let mut mins = vec![f32::INFINITY; store.dim()];
    let mut maxs = vec![f32::NEG_INFINITY; store.dim()];
    for row in store.iter() {
        for ((lo, hi), &x) in mins.iter_mut().zip(&mut maxs).zip(row) {
            *lo = lo.min(x);
            *hi = hi.max(x);
        }
    }
    let scales = mins.iter().zip(&maxs).map(|(&lo, &hi)| (hi - lo) / 255.0).collect();
    (scales, mins)
}

/// Writes `row`'s SQ8 codes into `codes`: `round((x − offset) / scale)`
/// clamped to `0..=255`, and 0 on a constant dimension — bit for bit
/// `(.. / s).round().clamp(0.0, 255.0) as u8`, in a loop the compiler
/// vectorizes.
#[inline]
fn encode_row(scales: &[f32], offsets: &[f32], row: &[f32], codes: &mut [u8]) {
    for (((c, &x), &s), &o) in codes.iter_mut().zip(row).zip(scales).zip(offsets) {
        // Not `clamp`, which keeps NaN: `max` sends it to 0, as the
        // saturating `as u8` does.
        #[allow(clippy::manual_clamp)]
        let clamped = round_for_cast((x - o) / s).max(0.0).min(255.0);
        // SAFETY: `clamped` is a number in 0.0..=255.0, so truncating
        // it fits an `i32`. (The checked `as` cast is a branch per
        // lane, which keeps the loop scalar.)
        let code = unsafe { clamped.to_int_unchecked::<i32>() } as u8;
        *c = if s > 0.0 { code } else { 0 };
    }
}

/// The largest `f32` below 0.5.
const JUST_BELOW_HALF: f32 = 0.499_999_97;

/// `x` moved just under half a unit away from zero, so that the
/// truncating `as` cast rounds it half away from zero: for integer
/// bounds, `round_for_cast(x).clamp(lo, hi) as T` is
/// `x.round().clamp(lo, hi) as T` for every `f32`, NaN included. This
/// is LLVM's own lowering of `round`; writing it here keeps the encoders
/// from calling libm's `roundf` once per element, which the baseline
/// x86-64 target has no instruction for.
#[inline]
fn round_for_cast(x: f32) -> f32 {
    x + JUST_BELOW_HALF.copysign(x)
}

/// A query encoded once per search for asymmetric SQ8 scoring.
///
/// "Once" is the owner's job: scoring only borrows (`&self`), so one
/// encoding serves every walker of a search — `algas-core` keeps it in
/// the multi-CTA scratch, encodes before seeding the first CTA, and
/// lends it to all of them (an encode is two passes over the
/// dimensions, ~1 µs at dim 128; eight of them per query were most of
/// what seeding an SQ8 search cost).
///
/// Reusable: [`encode`](Self::encode) overwrites the previous state in
/// place, so a scratch-resident `QuantizedQuery` allocates only on the
/// first search (and on dimension growth), keeping the hot path
/// allocation-free after warmup.
#[derive(Clone, Debug, Default)]
pub struct QuantizedQuery {
    /// i8-quantized per-dimension weights `t_d` (padded to the store
    /// stride with zeros, which are inert in the integer dot).
    codes: Vec<i8>,
    /// Per-query constant term of the expanded distance.
    qconst: f32,
    /// Multiplier applied to the raw integer dot: `-2·ts` for L2,
    /// `-ts` for Cosine, where `ts` is the weight quantization step.
    factor: f32,
    /// 1.0 when the per-row code norm participates (L2), 0.0 otherwise.
    norm_w: f32,
}

impl QuantizedQuery {
    /// Creates an empty query; call [`encode`](Self::encode) before
    /// scoring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes `query` against `store`'s affine map for `metric`.
    ///
    /// Two passes over the dimensions, no temporaries: the first pass
    /// finds the weight range (and accumulates the per-query constant),
    /// the second quantizes the weights to i8.
    ///
    /// # Panics
    /// Panics if `query.len() != store.dim()`.
    pub fn encode(&mut self, metric: Metric, query: &[f32], store: &QuantizedStore) {
        assert_eq!(query.len(), store.dim(), "query dimension mismatch");
        let scales = store.scales();
        let offsets = store.offsets();
        let mut qconst = 0.0f32;
        let mut max_t = 0.0f32;
        match metric {
            Metric::L2 => {
                for d in 0..query.len() {
                    let a = query[d] - offsets[d];
                    qconst += a * a;
                    max_t = max_t.max((a * scales[d]).abs());
                }
            }
            Metric::Cosine => {
                for d in 0..query.len() {
                    qconst += query[d] * offsets[d];
                    max_t = max_t.max((query[d] * scales[d]).abs());
                }
                qconst = 1.0 - qconst;
            }
        }
        let ts = max_t / 127.0;
        let inv_ts = if ts > 0.0 { 1.0 / ts } else { 0.0 };
        self.codes.clear();
        self.codes.resize(store.stride(), 0);
        match metric {
            Metric::L2 => {
                for d in 0..query.len() {
                    let t = (query[d] - offsets[d]) * scales[d];
                    self.codes[d] = round_for_cast(t * inv_ts).clamp(-127.0, 127.0) as i8;
                }
                self.factor = -2.0 * ts;
                self.norm_w = 1.0;
            }
            Metric::Cosine => {
                for d in 0..query.len() {
                    let t = query[d] * scales[d];
                    self.codes[d] = round_for_cast(t * inv_ts).clamp(-127.0, 127.0) as i8;
                }
                self.factor = -ts;
                self.norm_w = 0.0;
            }
        }
        self.qconst = qconst;
    }

    /// Approximate dissimilarity between the encoded query and row `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range or the query was encoded for a
    /// store with a different stride.
    #[inline]
    pub fn score(&self, store: &QuantizedStore, id: u32) -> f32 {
        let idot = simd::dot_u8i8(store.row_padded(id as usize), &self.codes);
        self.finish(store, id, idot)
    }

    /// Affine fixup turning a raw integer dot into the approximate
    /// dissimilarity for `id`.
    #[inline]
    fn finish(&self, store: &QuantizedStore, id: u32, idot: i32) -> f32 {
        self.qconst + self.factor * idot as f32 + self.norm_w * store.row_norms[id as usize]
    }

    /// Scores a batch of rows, appending one approximate dissimilarity
    /// per id into `out` (cleared first, in `ids` order) — the
    /// quantized twin of [`Metric::distance_batch`], with the same
    /// [`simd::PREFETCH_AHEAD`] software prefetch scheme.
    ///
    /// # Panics
    /// Panics if any id is out of range.
    pub fn score_batch(&self, store: &QuantizedStore, ids: &[u32], out: &mut Vec<f32>) {
        out.clear();
        out.reserve(ids.len());
        // Quads go through the 4-row kernel, which widens the query
        // once per chunk instead of once per row; prefetching the next
        // quad while scoring this one keeps the same lookahead as the
        // per-id PREFETCH_AHEAD scheme.
        let mut chunks = ids.chunks_exact(4);
        let mut j = 0;
        for quad in chunks.by_ref() {
            for &next in ids.iter().skip(j + 4).take(4) {
                store.prefetch(next as usize);
            }
            let idots = simd::dot_u8i8_x4(
                &self.codes,
                [
                    store.row_padded(quad[0] as usize),
                    store.row_padded(quad[1] as usize),
                    store.row_padded(quad[2] as usize),
                    store.row_padded(quad[3] as usize),
                ],
            );
            for (&id, idot) in quad.iter().zip(idots) {
                out.push(self.finish(store, id, idot));
            }
            j += 4;
        }
        for &id in chunks.remainder() {
            out.push(self.score(store, id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pseudo(dim: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
        (0..dim)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect()
    }

    fn store_of(dim: usize, n: usize) -> VectorStore {
        let mut s = VectorStore::with_capacity(dim, n);
        for i in 0..n {
            s.push(&pseudo(dim, i as u32 + 1));
        }
        s
    }

    #[test]
    fn dequantize_respects_per_dimension_error_bound() {
        for dim in [3, 16, 64, 100, 128] {
            let base = store_of(dim, 20);
            let q = QuantizedStore::from_store(&base);
            let mut recon = Vec::new();
            for i in 0..base.len() {
                q.dequantize_into(i, &mut recon);
                for (d, (&approx, &exact)) in recon.iter().zip(base.get(i)).enumerate() {
                    let err = (approx - exact).abs();
                    let bound = q.max_dequant_error(d) + 1e-6;
                    assert!(err <= bound, "dim={dim} row={i} d={d}: err {err} > bound {bound}");
                }
            }
        }
    }

    #[test]
    fn constant_dimensions_are_exact() {
        let mut s = VectorStore::new(3);
        s.push(&[5.0, 1.0, -2.0]);
        s.push(&[5.0, 2.0, -2.0]);
        s.push(&[5.0, 3.0, -2.0]);
        let q = QuantizedStore::from_store(&s);
        assert_eq!(q.scales()[0], 0.0);
        assert_eq!(q.scales()[2], 0.0);
        let mut recon = Vec::new();
        for i in 0..s.len() {
            q.dequantize_into(i, &mut recon);
            assert_eq!(recon[0], 5.0);
            assert_eq!(recon[2], -2.0);
        }
    }

    #[test]
    fn rows_are_aligned_and_zero_padded() {
        for dim in [1, 3, 63, 64, 65, 100, 128, 200] {
            let base = store_of(dim, 3);
            let q = QuantizedStore::from_store(&base);
            assert_eq!(q.stride(), dim.div_ceil(64) * 64);
            for i in 0..q.len() {
                let padded = q.row_padded(i);
                assert_eq!(padded.as_ptr() as usize % 64, 0, "dim={dim} row={i} misaligned");
                assert_eq!(padded.len(), q.stride());
                assert_eq!(&padded[..dim], q.codes(i));
                assert!(padded[dim..].iter().all(|&c| c == 0), "dim={dim} pad not zero");
            }
        }
    }

    #[test]
    fn score_matches_exact_distance_to_dequantized_row() {
        // The only approximation beyond dequantization is the i8
        // weight quantization; its error is bounded by
        // dim · ts/2 · 255 per dot, which the tolerance covers.
        for metric in [Metric::L2, Metric::Cosine] {
            for dim in [8, 37, 128] {
                let mut base = store_of(dim, 24);
                if metric == Metric::Cosine {
                    base.normalize_l2();
                }
                let qs = QuantizedStore::from_store(&base);
                let mut query = pseudo(dim, 999);
                if metric == Metric::Cosine {
                    let n = query.iter().map(|x| x * x).sum::<f32>().sqrt();
                    query.iter_mut().for_each(|x| *x /= n);
                }
                let mut qq = QuantizedQuery::new();
                qq.encode(metric, &query, &qs);
                let mut recon = Vec::new();
                // Weight-quantization error: each t_d moves by ≤ ts/2
                // (ts = max|t|/127), scaled by a code ≤ 255 and the
                // L2 factor 2 → bound 2 · dim · (max|t|/254) · 255.
                let max_t = (0..dim)
                    .map(|d| match metric {
                        Metric::L2 => ((query[d] - qs.offsets()[d]) * qs.scales()[d]).abs(),
                        Metric::Cosine => (query[d] * qs.scales()[d]).abs(),
                    })
                    .fold(0.0f32, f32::max);
                let tol = 2.0 * dim as f32 * max_t * 255.0 / 254.0 + 1e-4;
                for i in 0..base.len() {
                    qs.dequantize_into(i, &mut recon);
                    let exact = metric.distance(&query, &recon);
                    let approx = qq.score(&qs, i as u32);
                    assert!(
                        (exact - approx).abs() <= tol,
                        "{metric:?} dim={dim} row={i}: exact {exact} vs approx {approx} (tol {tol})"
                    );
                }
            }
        }
    }

    #[test]
    fn score_batch_matches_single_scores() {
        let base = store_of(64, 16);
        let qs = QuantizedStore::from_store(&base);
        let mut qq = QuantizedQuery::new();
        qq.encode(Metric::L2, &pseudo(64, 7), &qs);
        let ids: Vec<u32> = vec![3, 0, 15, 7, 7, 12];
        let mut out = Vec::new();
        qq.score_batch(&qs, &ids, &mut out);
        assert_eq!(out.len(), ids.len());
        for (&id, &d) in ids.iter().zip(&out) {
            assert_eq!(d, qq.score(&qs, id));
        }
    }

    #[test]
    fn quantized_ranking_tracks_exact_ranking() {
        // Nearest-by-quantized should usually be nearest-by-exact; at
        // minimum the true nearest neighbor must land in the quantized
        // top 3 on this easy, well-separated set.
        let dim = 32;
        let base = store_of(dim, 50);
        let qs = QuantizedStore::from_store(&base);
        let query = pseudo(dim, 4242);
        let mut qq = QuantizedQuery::new();
        qq.encode(Metric::L2, &query, &qs);
        let mut exact: Vec<(f32, u32)> =
            (0..base.len()).map(|i| (Metric::L2.distance(&query, base.get(i)), i as u32)).collect();
        exact.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut approx: Vec<(f32, u32)> =
            (0..base.len()).map(|i| (qq.score(&qs, i as u32), i as u32)).collect();
        approx.sort_by(|a, b| a.0.total_cmp(&b.0));
        let top3: Vec<u32> = approx[..3].iter().map(|&(_, id)| id).collect();
        assert!(
            top3.contains(&exact[0].1),
            "true NN {} not in quantized top3 {top3:?}",
            exact[0].1
        );
    }

    #[test]
    fn permute_reorders_codes_and_norms() {
        let base = store_of(16, 4);
        let qs = QuantizedStore::from_store(&base);
        let p = qs.permute(&[2, 0, 3, 1]);
        assert_eq!(p.codes(0), qs.codes(2));
        assert_eq!(p.codes(1), qs.codes(0));
        assert_eq!(p.codes(3), qs.codes(1));
        assert_eq!(p.row_norm(0), qs.row_norm(2));
        assert_eq!(p.scales(), qs.scales());
        assert_eq!(qs.permute(&[0, 1, 2, 3]), qs);
        qs.prefetch(0); // advisory — just must not fault
    }

    #[test]
    fn push_codes_rebuilds_a_store() {
        let base = store_of(24, 6);
        let qs = QuantizedStore::from_store(&base);
        let mut rebuilt = QuantizedStore::with_capacity(
            24,
            qs.scales().to_vec(),
            qs.offsets().to_vec(),
            qs.len(),
        );
        for i in 0..qs.len() {
            rebuilt.push_codes(qs.codes(i));
        }
        assert_eq!(rebuilt, qs);
        // Norms are recomputed from the codes, not carried over.
        for i in 0..qs.len() {
            assert_eq!(rebuilt.row_norm(i), qs.row_norm(i));
        }
    }

    #[test]
    #[should_panic(expected = "code row length must equal store dimension")]
    fn push_codes_rejects_a_wrong_length_row() {
        let mut qs = QuantizedStore::with_capacity(4, vec![1.0; 4], vec![0.0; 4], 1);
        qs.push_codes(&[0; 3]);
    }

    #[test]
    fn nbytes_counts_codes_and_tables() {
        let base = store_of(4, 8);
        let qs = QuantizedStore::from_store(&base);
        // 8 rows × 4 code bytes + 2×4 dims×4 B tables + 8 norms×4 B.
        assert_eq!(qs.nbytes(), 32 + 32 + 32);
        assert!(qs.nbytes_padded() >= 8 * 64);
        // The quantized payload is ~4× smaller than fp32 at real dims.
        let big = store_of(128, 100);
        let qbig = QuantizedStore::from_store(&big);
        assert!((qbig.nbytes() as f64) < big.nbytes() as f64 / 3.5);
    }

    /// FNV-1a over a store's codes, row norms, scales and offsets, bit
    /// for bit.
    fn quant_hash(q: &QuantizedStore) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        };
        for i in 0..q.len() {
            eat(q.codes(i));
            eat(&q.row_norm(i).to_le_bytes());
        }
        for &x in q.scales().iter().chain(q.offsets()) {
            eat(&x.to_le_bytes());
        }
        h
    }

    #[test]
    fn from_store_matches_the_recorded_codes() {
        // An `.alix` file of format 5 stores no codes: the loader derives
        // them with `from_store`, so they must not drift. Recorded with
        // the `f32::round` encoder, before rounding was written inline.
        let ds = crate::datasets::DatasetSpec::tiny(2000, 128, Metric::L2, 7).generate();
        let q = QuantizedStore::from_store(&ds.base);
        assert_eq!(quant_hash(&q), 0x82db_ccae_9adf_f53a, "codes, norms or tables drifted");
    }

    /// Ties, near-ties and the ends of both code ranges, where an
    /// inline rounding could part from `f32::round`.
    const ROUNDING_ANCHORS: [f32; 16] = [
        0.0,
        JUST_BELOW_HALF,
        0.5,
        2.5,
        254.5,
        255.499_98,
        255.5,
        -0.5,
        -1.5,
        -126.5,
        127.5,
        -127.5,
        8_388_607.5,
        f32::MAX,
        f32::INFINITY,
        f32::NAN,
    ];

    #[test]
    fn just_below_half_is_the_largest_f32_below_one_half() {
        assert_eq!(JUST_BELOW_HALF.to_bits(), 0.5f32.to_bits() - 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        /// Both encoders round exactly as `f32::round` (half away from
        /// zero) and clamp: a store's codes, over anchors moved a few
        /// ulps either way (of both signs), every half-integer tie in
        /// ±256, and arbitrary bit patterns (NaN and infinities too);
        /// and a query's i8 weights over the same values.
        #[test]
        fn inline_rounding_is_f32_round(
            pick in 0u32..3,
            anchor in 0usize..ROUNDING_ANCHORS.len(),
            ulps in -3i32..4,
            negate in 0u32..2,
            bits in 0u32..u32::MAX,
        ) {
            let x = match pick {
                0 => f32::from_bits(ROUNDING_ANCHORS[anchor].to_bits().wrapping_add_signed(ulps)),
                1 => (bits % 1024) as f32 * 0.5 - 256.0,
                _ => f32::from_bits(bits),
            };
            let x = if negate == 1 { -x } else { x };
            let mut code = [0u8];
            encode_row(&[1.0], &[0.0], &[x], &mut code);
            prop_assert_eq!(code[0], x.round().clamp(0.0, 255.0) as u8, "code of {:e}", x);
            let weight = round_for_cast(x).clamp(-127.0, 127.0) as i8;
            prop_assert_eq!(weight, x.round().clamp(-127.0, 127.0) as i8, "weight of {:e}", x);
        }
    }

    #[test]
    #[should_panic(expected = "empty store")]
    fn from_store_rejects_empty() {
        let _ = QuantizedStore::from_store(&VectorStore::new(4));
    }

    #[test]
    fn encode_is_reusable_without_growth() {
        let base = store_of(32, 8);
        let qs = QuantizedStore::from_store(&base);
        let mut qq = QuantizedQuery::new();
        qq.encode(Metric::L2, &pseudo(32, 1), &qs);
        let cap = qq.codes.capacity();
        for seed in 2..10 {
            qq.encode(Metric::L2, &pseudo(32, seed), &qs);
        }
        assert_eq!(qq.codes.capacity(), cap);
    }
}
