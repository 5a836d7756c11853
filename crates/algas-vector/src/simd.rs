//! Runtime-dispatched SIMD distance kernels.
//!
//! The paper's GPU computes distances with warp-wide fused multiply-add
//! loops; the CPU analogue is a vectorized kernel selected once at
//! startup from what the host actually supports:
//!
//! * **x86_64, AVX-512** (`avx512f`, `avx512bw`, `avx512vl`,
//!   `avx512vnni` and `popcnt`) — two 16-lane `__m512` accumulators
//!   (32 floats per iteration) holding AVX2's four 8-lane ones side by
//!   side: lanes 0–15 of the first are AVX2's `acc0` and `acc1` over
//!   floats `32t + 0..16`. Each is split into its two 8-lane halves
//!   before AVX2's own 8-wide tail, lane sum and scalar tail run, so
//!   every float result has AVX2's bits. The u8×i8 dot products use
//!   VNNI (`vpdpbusd`, exact i32 arithmetic, no saturation), and step
//!   ④'s candidate-list merge is a bitonic network over packed `u64`
//!   keys ([`merge_keys`]).
//! * **x86_64, AVX2 + FMA** — four 8-lane `__m256` accumulators
//!   (32 floats per iteration) to hide FMA latency, 8-wide remainder
//!   loop, scalar tail.
//! * **aarch64** — NEON, four 4-lane `float32x4_t` accumulators
//!   (16 floats per iteration), scalar tail.
//! * anywhere else, or when the features are absent — the portable
//!   scalar loops ([`l2_squared_scalar`], [`inner_product_scalar`]).
//!
//! Dispatch is resolved once through a [`OnceLock`]; every call after
//! the first is a direct function-pointer invocation. [`force_scalar`]
//! overrides the choice at runtime so tests can compare the two paths
//! in one process.
//!
//! Besides the per-pair kernels there is a one-to-many entry per float
//! kernel ([`l2_squared_rows`], [`inner_product_rows`]): one vector
//! against a list of rows of one flat store, over the vector's length,
//! with the row [`PREFETCH_AHEAD`] ids ahead prefetched. Each result
//! has the bits of the per-pair kernel over the same slices. The
//! AVX-512 tier keeps the vector's first 128 floats in registers across
//! rows; the other tiers run their per-pair kernel in the same loop.
//!
//! The batched entry points in [`crate::metric`] call these kernels on
//! *padded* rows ([`crate::store::VectorStore::row_padded`]): both
//! operands then have a length that is a multiple of 16 and 64-byte
//! aligned starts, so the wide loop covers the entire row and the tail
//! code never runs. Zero padding is mathematically inert for both
//! kernels: a padded lane contributes `(0 - 0)^2 = 0` to L2 and
//! `0 * 0 = 0` to the inner product.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

mod keys;

pub use keys::{
    flat, flat_mut, key_chunks, key_dist, key_id, pack_key, KeyChunk, EXPANDED, ID_BITS,
};

/// Distance between consecutive batch elements at which the next row is
/// software-prefetched while the current one is being scored.
pub const PREFETCH_AHEAD: usize = 4;

/// One-to-many float kernel: `out[j]` scores `a` against row `ids[j]`
/// of a flat store with the given stride (see [`l2_squared_rows`]).
type RowsFn = fn(&[f32], &[f32], usize, &[u32], &mut [f32]);

/// Step ④'s merge of scored newcomers into a padded key list (see
/// [`merge_keys`]); returns the new length.
type MergeFn = fn(&mut [KeyChunk], usize, usize, &[u32], &[f32], &mut [KeyChunk]) -> usize;

/// One resolved kernel set.
#[derive(Clone, Copy)]
struct Kernels {
    l2: fn(&[f32], &[f32]) -> f32,
    ip: fn(&[f32], &[f32]) -> f32,
    l2_rows: RowsFn,
    ip_rows: RowsFn,
    dot_u8i8: fn(&[u8], &[i8]) -> i32,
    dot_u8i8_x4: fn(&[i8], [&[u8]; 4]) -> [i32; 4],
    merge_keys: MergeFn,
    name: &'static str,
}

const SCALAR: Kernels = Kernels {
    l2: l2_squared_scalar,
    ip: inner_product_scalar,
    l2_rows: |a, rows, stride, ids, out| rows_with(l2_squared_scalar, a, rows, stride, ids, out),
    ip_rows: |a, rows, stride, ids, out| rows_with(inner_product_scalar, a, rows, stride, ids, out),
    dot_u8i8: dot_u8i8_scalar,
    dot_u8i8_x4: dot_u8i8_x4_scalar,
    merge_keys: keys::merge_keys_reference,
    name: "scalar",
};

/// Installed only after runtime detection of avx2 and fma.
#[cfg(target_arch = "x86_64")]
const AVX2: Kernels = Kernels {
    l2: l2_squared_avx2,
    ip: inner_product_avx2,
    l2_rows: |a, rows, stride, ids, out| rows_with(l2_squared_avx2, a, rows, stride, ids, out),
    ip_rows: |a, rows, stride, ids, out| rows_with(inner_product_avx2, a, rows, stride, ids, out),
    dot_u8i8: dot_u8i8_avx2,
    dot_u8i8_x4: dot_u8i8_x4_avx2,
    merge_keys: keys::merge_keys_reference,
    name: "avx2+fma",
};

/// Installed only after runtime detection of everything [`AVX2`] needs
/// plus avx512f, avx512bw, avx512vl, avx512vnni and popcnt.
#[cfg(target_arch = "x86_64")]
const AVX512: Kernels = Kernels {
    l2: l2_squared_avx512,
    ip: inner_product_avx512,
    l2_rows: l2_squared_rows_avx512,
    ip_rows: inner_product_rows_avx512,
    dot_u8i8: dot_u8i8_avx512,
    dot_u8i8_x4: dot_u8i8_x4_avx512,
    merge_keys: keys::merge_keys_avx512,
    name: "avx512",
};

static DETECTED: OnceLock<Kernels> = OnceLock::new();
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Whether the host has what the [`AVX2`] kernels need.
#[cfg(target_arch = "x86_64")]
fn has_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Whether the host has what the [`AVX512`] kernels need.
#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    has_avx2()
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512bw")
        && std::arch::is_x86_feature_detected!("avx512vl")
        && std::arch::is_x86_feature_detected!("avx512vnni")
        && std::arch::is_x86_feature_detected!("popcnt")
}

fn detected() -> Kernels {
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if has_avx512() {
                return AVX512;
            }
            if has_avx2() {
                return AVX2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return Kernels {
                    l2: l2_squared_neon,
                    ip: inner_product_neon,
                    l2_rows: |a, rows, stride, ids, out| {
                        rows_with(l2_squared_neon, a, rows, stride, ids, out)
                    },
                    ip_rows: |a, rows, stride, ids, out| {
                        rows_with(inner_product_neon, a, rows, stride, ids, out)
                    },
                    dot_u8i8: dot_u8i8_neon,
                    dot_u8i8_x4: dot_u8i8_x4_neon,
                    merge_keys: keys::merge_keys_reference,
                    name: "neon",
                };
            }
        }
        SCALAR
    })
}

#[inline]
fn active() -> Kernels {
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        SCALAR
    } else {
        detected()
    }
}

/// Forces every subsequent distance call in the process onto the scalar
/// kernels (`true`) or restores runtime dispatch (`false`).
///
/// Intended for tests that compare the vectorized and scalar paths;
/// the flag is process-global, so toggling it from concurrently running
/// tests races. Keep such comparisons in their own test binary.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::SeqCst);
}

/// Name of the kernel runtime dispatch selected on this host
/// (`"avx512"`, `"avx2+fma"`, `"neon"`, or `"scalar"`), ignoring
/// [`force_scalar`].
pub fn kernel_name() -> &'static str {
    detected().name
}

/// Squared Euclidean distance via the dispatched kernel.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn l2_squared(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    (active().l2)(a, b)
}

/// Inner product via the dispatched kernel.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn inner_product(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    (active().ip)(a, b)
}

/// One-to-many squared Euclidean distance via the dispatched kernel:
/// `out[j] = l2_squared(a, &rows[ids[j]·stride..][..a.len()])`, bit for
/// bit, over `a.len()` floats of each row. The row `PREFETCH_AHEAD`
/// ids ahead is prefetched while the current one is scored.
///
/// # Panics
/// Panics if `out.len() != ids.len()` or a row runs past the end of
/// `rows` (in release builds too).
#[inline]
pub fn l2_squared_rows(a: &[f32], rows: &[f32], stride: usize, ids: &[u32], out: &mut [f32]) {
    assert_eq!(ids.len(), out.len(), "one distance per id");
    (active().l2_rows)(a, rows, stride, ids, out)
}

/// One-to-many inner product via the dispatched kernel; the
/// [`l2_squared_rows`] contract with [`inner_product`] per row.
///
/// # Panics
/// Panics if `out.len() != ids.len()` or a row runs past the end of
/// `rows` (in release builds too).
#[inline]
pub fn inner_product_rows(a: &[f32], rows: &[f32], stride: usize, ids: &[u32], out: &mut [f32]) {
    assert_eq!(ids.len(), out.len(), "one distance per id");
    (active().ip_rows)(a, rows, stride, ids, out)
}

/// Step ④ via the dispatched kernel: merges scored newcomers —
/// `dists[i]` is the distance of `ids[i]` — into the ascending, padded
/// key list `keys` of `len` entries and capacity `cap`, keeping the
/// best `cap` of the union ascending and the pads after them, and
/// returns the new length. Newcomers enter unexpanded and must be
/// distinct from each other and from the list's entries. `stage` is
/// the AVX-512 network's staging space, as wide as `keys`.
///
/// The AVX-512 tier merges with a bitonic network, every other tier
/// one binary search and `memmove` per newcomer; both leave the same
/// keys (see the `keys` module docs).
///
/// # Panics
/// Panics if `ids` and `dists` differ in length, if `keys` is not
/// [`key_chunks`]`(cap)` long, if `stage` is shorter, or if
/// `len > cap`.
#[inline]
pub fn merge_keys(
    keys: &mut [KeyChunk],
    len: usize,
    cap: usize,
    ids: &[u32],
    dists: &[f32],
    stage: &mut [KeyChunk],
) -> usize {
    assert_eq!(ids.len(), dists.len(), "one distance per newcomer");
    assert!(cap > 0 && len <= cap, "list of {len} entries at capacity {cap}");
    assert_eq!(keys.len(), key_chunks(cap), "keys padded to the merge width");
    assert!(stage.len() >= keys.len(), "stage as wide as the keys");
    (active().merge_keys)(keys, len, cap, ids, dists, stage)
}

/// Row `id` of a flat store, cut to `len` floats (bounds-checked).
#[inline(always)]
fn row_of(rows: &[f32], stride: usize, id: u32, len: usize) -> &[f32] {
    &rows[id as usize * stride..][..len]
}

/// The one-to-many loop around a per-pair kernel, for the tiers that
/// have no kernel of their own for it.
#[inline(always)]
fn rows_with(
    pair: impl Fn(&[f32], &[f32]) -> f32,
    a: &[f32],
    rows: &[f32],
    stride: usize,
    ids: &[u32],
    out: &mut [f32],
) {
    for (j, (&id, o)) in ids.iter().zip(out).enumerate() {
        if let Some(&next) = ids.get(j + PREFETCH_AHEAD) {
            prefetch_row(row_of(rows, stride, next, a.len()));
        }
        *o = pair(a, row_of(rows, stride, id, a.len()));
    }
}

/// Mixed-sign integer dot product `Σ codes[d] · q[d]` via the
/// dispatched kernel — the inner loop of the SQ8 asymmetric distance
/// (`crate::quant`): unsigned store codes against the signed quantized
/// query weights. Exact i32 arithmetic on every path (the AVX2 kernel
/// widens to i16 before `madd`, so the `maddubs` i16 saturation trap is
/// structurally avoided).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_u8i8(codes: &[u8], q: &[i8]) -> i32 {
    assert_eq!(codes.len(), q.len(), "dimension mismatch");
    (active().dot_u8i8)(codes, q)
}

/// Four mixed-sign integer dot products of one query against four code
/// rows via the dispatched kernel — the quantized traversal's batched
/// inner loop. Amortizes the query widening (and the call itself)
/// across the rows, which is where the single-row kernel loses its
/// bandwidth advantage at small dimensions.
///
/// # Panics
/// Panics if any row's length differs from the query's.
#[inline]
pub fn dot_u8i8_x4(q: &[i8], rows: [&[u8]; 4]) -> [i32; 4] {
    for r in rows {
        assert_eq!(r.len(), q.len(), "dimension mismatch");
    }
    (active().dot_u8i8_x4)(q, rows)
}

/// Portable scalar u8×i8 dot-product reference; ground truth for the
/// vectorized integer kernels and the fallback dispatch target.
pub fn dot_u8i8_scalar(codes: &[u8], q: &[i8]) -> i32 {
    debug_assert_eq!(codes.len(), q.len());
    let mut acc = 0i32;
    for (&c, &w) in codes.iter().zip(q.iter()) {
        acc += i32::from(c) * i32::from(w);
    }
    acc
}

/// Portable scalar 4-row u8×i8 dot product; ground truth for the
/// vectorized batched kernels and the fallback dispatch target.
pub fn dot_u8i8_x4_scalar(q: &[i8], rows: [&[u8]; 4]) -> [i32; 4] {
    [
        dot_u8i8_scalar(rows[0], q),
        dot_u8i8_scalar(rows[1], q),
        dot_u8i8_scalar(rows[2], q),
        dot_u8i8_scalar(rows[3], q),
    ]
}

/// Portable scalar squared-L2 reference; the ground truth the SIMD
/// kernels are tested against.
pub fn l2_squared_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Portable scalar inner-product reference.
pub fn inner_product_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

/// Hints the CPU to pull the given row into cache ahead of use.
///
/// No-op on architectures without an exposed prefetch intrinsic. Safe
/// to call with any slice: prefetching is advisory and cannot fault.
#[inline]
pub fn prefetch_row(row: &[f32]) {
    prefetch_span(row.as_ptr().cast::<u8>(), std::mem::size_of_val(row));
}

/// Issues a read prefetch hint for every cache line in
/// `[ptr, ptr + bytes)`, the first and last ones included when the span
/// does not start or end on a line boundary (a 56-byte packed graph row
/// straddles two lines at most offsets). Advisory only: never faults,
/// never loads architecturally; a no-op on architectures without a
/// prefetch instruction exposed.
#[inline]
#[allow(clippy::not_unsafe_ptr_arg_deref)] // prefetch hints never dereference
pub fn prefetch_span(ptr: *const u8, bytes: usize) {
    const LINE: usize = 64;
    // From the start of the line holding `ptr`; an empty span stays empty.
    let lead = if bytes == 0 { 0 } else { ptr as usize % LINE };
    let (ptr, bytes) = (ptr.wrapping_sub(lead), bytes + lead);
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let mut off = 0;
        while off < bytes {
            // SAFETY: `_mm_prefetch` is a hint; it never dereferences
            // the pointer architecturally and is safe for any address.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(ptr.wrapping_add(off).cast::<i8>()) };
            off += LINE;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        let mut off = 0;
        while off < bytes {
            // SAFETY: PRFM is a hint instruction — it cannot fault and
            // performs no architectural memory access.
            unsafe {
                std::arch::asm!(
                    "prfm pldl1keep, [{0}]",
                    in(reg) ptr.wrapping_add(off),
                    options(nostack, preserves_flags, readonly)
                );
            }
            off += LINE;
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = (ptr, bytes);
    }
}

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{__m256, __m512};

#[cfg(target_arch = "x86_64")]
fn l2_squared_avx2(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY: `detected()` only installs this kernel after confirming
    // avx2+fma support at runtime.
    unsafe { float_avx2::<false>(a, b) }
}

#[cfg(target_arch = "x86_64")]
fn inner_product_avx2(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY: installed only after runtime detection of avx2+fma.
    unsafe { float_avx2::<true>(a, b) }
}

/// One float-kernel step on 8 lanes: `acc + x·y` for the inner product
/// (`IP`), `acc + (x − y)²` for L2, each one fused multiply-add.
///
/// # Safety
/// The host must have avx2 and fma.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn step256<const IP: bool>(x: __m256, y: __m256, acc: __m256) -> __m256 {
    use std::arch::x86_64::*;
    if IP {
        _mm256_fmadd_ps(x, y, acc)
    } else {
        let d = _mm256_sub_ps(x, y);
        _mm256_fmadd_ps(d, d, acc)
    }
}

/// [`step256`] on 16 lanes.
///
/// # Safety
/// The host must have avx512f.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn step512<const IP: bool>(x: __m512, y: __m512, acc: __m512) -> __m512 {
    use std::arch::x86_64::*;
    if IP {
        _mm512_fmadd_ps(x, y, acc)
    } else {
        let d = _mm512_sub_ps(x, y);
        _mm512_fmadd_ps(d, d, acc)
    }
}

/// The AVX2 float kernel (`IP`: inner product, else squared L2).
///
/// # Safety
/// The host must have avx2 and fma, and `b.len() >= a.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn float_avx2<const IP: bool>(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc = [_mm256_setzero_ps(); 4];
    let mut i = 0;
    // Main loop: 32 floats per iteration across 4 independent
    // accumulators so consecutive FMAs do not serialize on latency.
    while i + 32 <= n {
        for (l, acc) in acc.iter_mut().enumerate() {
            let (x, y) = (_mm256_loadu_ps(pa.add(i + 8 * l)), _mm256_loadu_ps(pb.add(i + 8 * l)));
            *acc = step256::<IP>(x, y, *acc);
        }
        i += 32;
    }
    finish_avx2::<IP>(a, b, i, acc)
}

/// AVX2's end of a float kernel, which both x86 tiers run from float
/// `i` on: 8-wide steps into `acc[0]`, the lane sum of
/// `(acc0 + acc1) + (acc2 + acc3)`, then the scalar tail.
///
/// # Safety
/// The host must have avx2 and fma, and `b.len() >= a.len()`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn finish_avx2<const IP: bool>(
    a: &[f32],
    b: &[f32],
    mut i: usize,
    mut acc: [__m256; 4],
) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len();
    while i + 8 <= n {
        let (x, y) = (_mm256_loadu_ps(a.as_ptr().add(i)), _mm256_loadu_ps(b.as_ptr().add(i)));
        acc[0] = step256::<IP>(x, y, acc[0]);
        i += 8;
    }
    let mut sum =
        hsum256(_mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3])));
    while i < n {
        let (x, y) = (*a.get_unchecked(i), *b.get_unchecked(i));
        if IP {
            sum += x * y;
        } else {
            let d = x - y;
            sum += d * d;
        }
        i += 1;
    }
    sum
}

#[cfg(target_arch = "x86_64")]
fn l2_squared_avx512(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY: installed only after runtime detection of the AVX512 set;
    // its callers (the asserting wrappers, `rows_with`) pass equal lengths.
    unsafe { main_avx512::<false>(a, b, 0, [std::arch::x86_64::_mm512_setzero_ps(); 2]) }
}

#[cfg(target_arch = "x86_64")]
fn inner_product_avx512(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY: installed only after runtime detection of the AVX512 set;
    // its callers (the asserting wrappers, `rows_with`) pass equal lengths.
    unsafe { main_avx512::<true>(a, b, 0, [std::arch::x86_64::_mm512_setzero_ps(); 2]) }
}

#[cfg(target_arch = "x86_64")]
fn l2_squared_rows_avx512(a: &[f32], rows: &[f32], stride: usize, ids: &[u32], out: &mut [f32]) {
    // SAFETY: installed only after runtime detection of the AVX512 set.
    unsafe { rows_avx512::<false>(a, rows, stride, ids, out) }
}

#[cfg(target_arch = "x86_64")]
fn inner_product_rows_avx512(a: &[f32], rows: &[f32], stride: usize, ids: &[u32], out: &mut [f32]) {
    // SAFETY: installed only after runtime detection of the AVX512 set.
    unsafe { rows_avx512::<true>(a, rows, stride, ids, out) }
}

/// The AVX-512 float kernel from float `i` on, with accumulators `z`.
///
/// 32 floats a step, the first 16 into `z[0]` and the next 16 into
/// `z[1]`: lane for lane, the arithmetic of AVX2's `acc0..acc3`. The
/// tail is AVX2's own, on `z`'s four 8-lane halves, so the result has
/// the AVX2 kernel's bits.
///
/// # Safety
/// The host must have the [`AVX512`] set, and `b.len() >= a.len()`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn main_avx512<const IP: bool>(
    a: &[f32],
    b: &[f32],
    mut i: usize,
    mut z: [__m512; 2],
) -> f32 {
    use std::arch::x86_64::*;
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    while i + 32 <= n {
        z[0] = step512::<IP>(_mm512_loadu_ps(pa.add(i)), _mm512_loadu_ps(pb.add(i)), z[0]);
        z[1] =
            step512::<IP>(_mm512_loadu_ps(pa.add(i + 16)), _mm512_loadu_ps(pb.add(i + 16)), z[1]);
        i += 32;
    }
    let ([acc0, acc1], [acc2, acc3]) = (halves(z[0]), halves(z[1]));
    finish_avx2::<IP>(a, b, i, [acc0, acc1, acc2, acc3])
}

/// The low and high 8 lanes of `v`.
///
/// # Safety
/// The host must have avx512f.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn halves(v: __m512) -> [__m256; 2] {
    use std::arch::x86_64::*;
    let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v)));
    [_mm512_castps512_ps256(v), hi]
}

/// The AVX-512 one-to-many kernel: the first (up to 128) floats of `a`
/// whole 32-float steps cover stay in registers across rows.
///
/// # Safety
/// The host must have the [`AVX512`] set.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn rows_avx512<const IP: bool>(
    a: &[f32],
    rows: &[f32],
    stride: usize,
    ids: &[u32],
    out: &mut [f32],
) {
    match a.len() / 32 {
        0 => rows_held_avx512::<IP, 0>(a, rows, stride, ids, out),
        1 => rows_held_avx512::<IP, 2>(a, rows, stride, ids, out),
        2 => rows_held_avx512::<IP, 4>(a, rows, stride, ids, out),
        3 => rows_held_avx512::<IP, 6>(a, rows, stride, ids, out),
        _ => rows_held_avx512::<IP, 8>(a, rows, stride, ids, out),
    }
}

/// [`rows_avx512`] holding the first `16 · C` floats of `a` in
/// registers: each row runs those steps of [`main_avx512`] against the
/// held chunks, then the rest from memory.
///
/// # Safety
/// The host must have the [`AVX512`] set; `C` is even and
/// `16 · C ≤ a.len()`.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f", enable = "avx2", enable = "fma")]
unsafe fn rows_held_avx512<const IP: bool, const C: usize>(
    a: &[f32],
    rows: &[f32],
    stride: usize,
    ids: &[u32],
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let n = a.len();
    let mut held = [_mm512_setzero_ps(); C];
    for (c, h) in held.iter_mut().enumerate() {
        *h = _mm512_loadu_ps(a.as_ptr().add(16 * c));
    }
    for (j, (&id, o)) in ids.iter().zip(out).enumerate() {
        if let Some(&next) = ids.get(j + PREFETCH_AHEAD) {
            prefetch_row(row_of(rows, stride, next, n));
        }
        let b = row_of(rows, stride, id, n);
        let pb = b.as_ptr();
        let mut z = [_mm512_setzero_ps(); 2];
        for t in 0..C / 2 {
            z[0] = step512::<IP>(held[2 * t], _mm512_loadu_ps(pb.add(32 * t)), z[0]);
            z[1] = step512::<IP>(held[2 * t + 1], _mm512_loadu_ps(pb.add(32 * t + 16)), z[1]);
        }
        *o = main_avx512::<IP>(a, b, 16 * C, z);
    }
}

#[cfg(target_arch = "x86_64")]
fn dot_u8i8_avx2(codes: &[u8], q: &[i8]) -> i32 {
    // SAFETY: installed only after runtime detection of avx2.
    unsafe { dot_u8i8_avx2_inner(codes, q) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_u8i8_avx2_inner(codes: &[u8], q: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    let n = codes.len();
    let pc = codes.as_ptr();
    let pq = q.as_ptr();
    // Widen each 16-byte half to i16 lanes before multiplying:
    // `maddubs` would accumulate u8·i8 pairs in saturating i16
    // (255·127·2 > i16::MAX), so we pay one extra shuffle for exact
    // i32 math instead. Two independent accumulators hide the
    // madd+add latency chain.
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    let mut i = 0;
    while i + 32 <= n {
        let c0 = _mm256_cvtepu8_epi16(_mm_loadu_si128(pc.add(i).cast()));
        let w0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pq.add(i).cast()));
        let c1 = _mm256_cvtepu8_epi16(_mm_loadu_si128(pc.add(i + 16).cast()));
        let w1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(pq.add(i + 16).cast()));
        acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(c0, w0));
        acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(c1, w1));
        i += 32;
    }
    while i + 16 <= n {
        let c = _mm256_cvtepu8_epi16(_mm_loadu_si128(pc.add(i).cast()));
        let w = _mm256_cvtepi8_epi16(_mm_loadu_si128(pq.add(i).cast()));
        acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(c, w));
        i += 16;
    }
    let mut acc = hsum256_epi32(_mm256_add_epi32(acc0, acc1));
    while i < n {
        acc += i32::from(*codes.get_unchecked(i)) * i32::from(*q.get_unchecked(i));
        i += 1;
    }
    acc
}

#[cfg(target_arch = "x86_64")]
fn dot_u8i8_x4_avx2(q: &[i8], rows: [&[u8]; 4]) -> [i32; 4] {
    // SAFETY: installed only after runtime detection of avx2.
    unsafe { dot_u8i8_x4_avx2_inner(q, rows) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_u8i8_x4_avx2_inner(q: &[i8], rows: [&[u8]; 4]) -> [i32; 4] {
    use std::arch::x86_64::*;
    let n = q.len();
    let pq = q.as_ptr();
    let [r0, r1, r2, r3] = rows;
    let (p0, p1, p2, p3) = (r0.as_ptr(), r1.as_ptr(), r2.as_ptr(), r3.as_ptr());
    // One query widening per 16-code chunk, shared by all four rows —
    // the single-row kernel pays that shuffle per row. Same exact-i32
    // widen-then-madd scheme as `dot_u8i8_avx2_inner`.
    let mut a0 = _mm256_setzero_si256();
    let mut a1 = _mm256_setzero_si256();
    let mut a2 = _mm256_setzero_si256();
    let mut a3 = _mm256_setzero_si256();
    let mut i = 0;
    while i + 16 <= n {
        let w = _mm256_cvtepi8_epi16(_mm_loadu_si128(pq.add(i).cast()));
        let c0 = _mm256_cvtepu8_epi16(_mm_loadu_si128(p0.add(i).cast()));
        let c1 = _mm256_cvtepu8_epi16(_mm_loadu_si128(p1.add(i).cast()));
        let c2 = _mm256_cvtepu8_epi16(_mm_loadu_si128(p2.add(i).cast()));
        let c3 = _mm256_cvtepu8_epi16(_mm_loadu_si128(p3.add(i).cast()));
        a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(c0, w));
        a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(c1, w));
        a2 = _mm256_add_epi32(a2, _mm256_madd_epi16(c2, w));
        a3 = _mm256_add_epi32(a3, _mm256_madd_epi16(c3, w));
        i += 16;
    }
    let mut out = [hsum256_epi32(a0), hsum256_epi32(a1), hsum256_epi32(a2), hsum256_epi32(a3)];
    while i < n {
        let w = i32::from(*q.get_unchecked(i));
        out[0] += i32::from(*r0.get_unchecked(i)) * w;
        out[1] += i32::from(*r1.get_unchecked(i)) * w;
        out[2] += i32::from(*r2.get_unchecked(i)) * w;
        out[3] += i32::from(*r3.get_unchecked(i)) * w;
        i += 1;
    }
    out
}

#[cfg(target_arch = "x86_64")]
fn dot_u8i8_avx512(codes: &[u8], q: &[i8]) -> i32 {
    // SAFETY: installed only after runtime detection of the AVX512 set;
    // the dispatching wrapper asserted the lengths equal.
    unsafe { dot_u8i8_avx512_inner(codes, q) }
}

/// Bytes `i..n` of `p` in the low lanes of a zmm, zeros above; the
/// masked-off bytes are never read.
///
/// # Safety
/// The host must have avx512f and avx512bw, `i < n ≤ i + 63`, and `p`
/// must be valid for reads of `n` bytes.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f", enable = "avx512bw")]
unsafe fn load_tail_avx512(p: *const u8, i: usize, n: usize) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    _mm512_maskz_loadu_epi8((1u64 << (n - i)) - 1, p.add(i).cast())
}

/// # Safety
/// The host must have the [`AVX512`] set, and `q.len() >= codes.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vnni")]
unsafe fn dot_u8i8_avx512_inner(codes: &[u8], q: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    let n = codes.len();
    let pc = codes.as_ptr();
    let pq = q.as_ptr().cast::<u8>();
    // `vpdpbusd` multiplies 4 adjacent u8·i8 pairs and adds their sum to
    // an i32 lane without saturating: exact i32 arithmetic, like the
    // AVX2 kernel's widen-then-madd. The tail is one masked step.
    let mut acc = _mm512_setzero_si512();
    let mut i = 0;
    while i + 64 <= n {
        let (c, w) = (_mm512_loadu_si512(pc.add(i).cast()), _mm512_loadu_si512(pq.add(i).cast()));
        acc = _mm512_dpbusd_epi32(acc, c, w);
        i += 64;
    }
    if i < n {
        acc = _mm512_dpbusd_epi32(acc, load_tail_avx512(pc, i, n), load_tail_avx512(pq, i, n));
    }
    _mm512_reduce_add_epi32(acc)
}

#[cfg(target_arch = "x86_64")]
fn dot_u8i8_x4_avx512(q: &[i8], rows: [&[u8]; 4]) -> [i32; 4] {
    // SAFETY: installed only after runtime detection of the AVX512 set;
    // the dispatching wrapper asserted the lengths equal.
    unsafe { dot_u8i8_x4_avx512_inner(q, rows) }
}

/// # Safety
/// The host must have the [`AVX512`] set, and every row must hold at
/// least `q.len()` codes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512bw", enable = "avx512vnni")]
unsafe fn dot_u8i8_x4_avx512_inner(q: &[i8], rows: [&[u8]; 4]) -> [i32; 4] {
    use std::arch::x86_64::*;
    let n = q.len();
    let pq = q.as_ptr().cast::<u8>();
    let ptrs = rows.map(<[u8]>::as_ptr);
    // One query load per 64-code chunk, shared by all four rows.
    let mut accs = [_mm512_setzero_si512(); 4];
    let mut i = 0;
    while i + 64 <= n {
        let w = _mm512_loadu_si512(pq.add(i).cast());
        for (acc, p) in accs.iter_mut().zip(ptrs) {
            *acc = _mm512_dpbusd_epi32(*acc, _mm512_loadu_si512(p.add(i).cast()), w);
        }
        i += 64;
    }
    if i < n {
        let w = load_tail_avx512(pq, i, n);
        for (acc, p) in accs.iter_mut().zip(ptrs) {
            *acc = _mm512_dpbusd_epi32(*acc, load_tail_avx512(p, i, n), w);
        }
    }
    let [a0, a1, a2, a3] = accs;
    [
        _mm512_reduce_add_epi32(a0),
        _mm512_reduce_add_epi32(a1),
        _mm512_reduce_add_epi32(a2),
        _mm512_reduce_add_epi32(a3),
    ]
}

/// Horizontal sum of the 8 i32 lanes of a `__m256i`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hsum256_epi32(v: std::arch::x86_64::__m256i) -> i32 {
    use std::arch::x86_64::*;
    let hi = _mm256_extracti128_si256::<1>(v);
    let lo = _mm256_castsi256_si128(v);
    let sum4 = _mm_add_epi32(lo, hi);
    let sum2 = _mm_add_epi32(sum4, _mm_shuffle_epi32::<0b0100_1110>(sum4));
    let sum1 = _mm_add_epi32(sum2, _mm_shuffle_epi32::<0b1011_0001>(sum2));
    _mm_cvtsi128_si32(sum1)
}

/// Horizontal sum of the 8 lanes of a `__m256`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hsum256(v: std::arch::x86_64::__m256) -> f32 {
    use std::arch::x86_64::*;
    let hi = _mm256_extractf128_ps::<1>(v);
    let lo = _mm256_castps256_ps128(v);
    let sum4 = _mm_add_ps(lo, hi);
    let sum2 = _mm_add_ps(sum4, _mm_movehl_ps(sum4, sum4));
    let sum1 = _mm_add_ss(sum2, _mm_shuffle_ps::<0b01>(sum2, sum2));
    _mm_cvtss_f32(sum1)
}

#[cfg(target_arch = "aarch64")]
fn l2_squared_neon(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY: installed only after runtime detection of neon.
    unsafe { l2_squared_neon_inner(a, b) }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn l2_squared_neon_inner(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::aarch64::*;
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut acc2 = vdupq_n_f32(0.0);
    let mut acc3 = vdupq_n_f32(0.0);
    let mut i = 0;
    while i + 16 <= n {
        let d0 = vsubq_f32(vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        let d1 = vsubq_f32(vld1q_f32(pa.add(i + 4)), vld1q_f32(pb.add(i + 4)));
        let d2 = vsubq_f32(vld1q_f32(pa.add(i + 8)), vld1q_f32(pb.add(i + 8)));
        let d3 = vsubq_f32(vld1q_f32(pa.add(i + 12)), vld1q_f32(pb.add(i + 12)));
        acc0 = vfmaq_f32(acc0, d0, d0);
        acc1 = vfmaq_f32(acc1, d1, d1);
        acc2 = vfmaq_f32(acc2, d2, d2);
        acc3 = vfmaq_f32(acc3, d3, d3);
        i += 16;
    }
    let mut acc = vaddvq_f32(vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3)));
    while i < n {
        let d = *a.get_unchecked(i) - *b.get_unchecked(i);
        acc += d * d;
        i += 1;
    }
    acc
}

#[cfg(target_arch = "aarch64")]
fn inner_product_neon(a: &[f32], b: &[f32]) -> f32 {
    // SAFETY: installed only after runtime detection of neon.
    unsafe { inner_product_neon_inner(a, b) }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn inner_product_neon_inner(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::aarch64::*;
    let n = a.len();
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc0 = vdupq_n_f32(0.0);
    let mut acc1 = vdupq_n_f32(0.0);
    let mut acc2 = vdupq_n_f32(0.0);
    let mut acc3 = vdupq_n_f32(0.0);
    let mut i = 0;
    while i + 16 <= n {
        acc0 = vfmaq_f32(acc0, vld1q_f32(pa.add(i)), vld1q_f32(pb.add(i)));
        acc1 = vfmaq_f32(acc1, vld1q_f32(pa.add(i + 4)), vld1q_f32(pb.add(i + 4)));
        acc2 = vfmaq_f32(acc2, vld1q_f32(pa.add(i + 8)), vld1q_f32(pb.add(i + 8)));
        acc3 = vfmaq_f32(acc3, vld1q_f32(pa.add(i + 12)), vld1q_f32(pb.add(i + 12)));
        i += 16;
    }
    let mut acc = vaddvq_f32(vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3)));
    while i < n {
        acc += *a.get_unchecked(i) * *b.get_unchecked(i);
        i += 1;
    }
    acc
}

#[cfg(target_arch = "aarch64")]
fn dot_u8i8_neon(codes: &[u8], q: &[i8]) -> i32 {
    // SAFETY: installed only after runtime detection of neon.
    unsafe { dot_u8i8_neon_inner(codes, q) }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn dot_u8i8_neon_inner(codes: &[u8], q: &[i8]) -> i32 {
    use std::arch::aarch64::*;
    let n = codes.len();
    let pc = codes.as_ptr();
    let pq = q.as_ptr();
    let mut acc0 = vdupq_n_s32(0);
    let mut acc1 = vdupq_n_s32(0);
    let mut i = 0;
    while i + 16 <= n {
        let c = vld1q_u8(pc.add(i));
        let w = vld1q_s8(pq.add(i));
        // u8 widened to u16 fits in s16 (≤ 255), so the reinterpret is
        // value-preserving and `vmlal_s16` accumulates exactly in i32.
        let c_lo = vreinterpretq_s16_u16(vmovl_u8(vget_low_u8(c)));
        let c_hi = vreinterpretq_s16_u16(vmovl_u8(vget_high_u8(c)));
        let w_lo = vmovl_s8(vget_low_s8(w));
        let w_hi = vmovl_s8(vget_high_s8(w));
        acc0 = vmlal_s16(acc0, vget_low_s16(c_lo), vget_low_s16(w_lo));
        acc0 = vmlal_s16(acc0, vget_high_s16(c_lo), vget_high_s16(w_lo));
        acc1 = vmlal_s16(acc1, vget_low_s16(c_hi), vget_low_s16(w_hi));
        acc1 = vmlal_s16(acc1, vget_high_s16(c_hi), vget_high_s16(w_hi));
        i += 16;
    }
    let mut acc = vaddvq_s32(vaddq_s32(acc0, acc1));
    while i < n {
        acc += i32::from(*codes.get_unchecked(i)) * i32::from(*q.get_unchecked(i));
        i += 1;
    }
    acc
}

#[cfg(target_arch = "aarch64")]
fn dot_u8i8_x4_neon(q: &[i8], rows: [&[u8]; 4]) -> [i32; 4] {
    // SAFETY: installed only after runtime detection of neon.
    unsafe { dot_u8i8_x4_neon_inner(q, rows) }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn dot_u8i8_x4_neon_inner(q: &[i8], rows: [&[u8]; 4]) -> [i32; 4] {
    use std::arch::aarch64::*;
    let n = q.len();
    let pq = q.as_ptr();
    let [r0, r1, r2, r3] = rows;
    let ptrs = [r0.as_ptr(), r1.as_ptr(), r2.as_ptr(), r3.as_ptr()];
    // One query widening per 16-code chunk, shared by all four rows
    // (same value-preserving reinterpret argument as the single-row
    // kernel).
    let mut accs = [vdupq_n_s32(0); 4];
    let mut i = 0;
    while i + 16 <= n {
        let w = vld1q_s8(pq.add(i));
        let w_lo = vmovl_s8(vget_low_s8(w));
        let w_hi = vmovl_s8(vget_high_s8(w));
        for (acc, p) in accs.iter_mut().zip(ptrs) {
            let c = vld1q_u8(p.add(i));
            let c_lo = vreinterpretq_s16_u16(vmovl_u8(vget_low_u8(c)));
            let c_hi = vreinterpretq_s16_u16(vmovl_u8(vget_high_u8(c)));
            let mut a = *acc;
            a = vmlal_s16(a, vget_low_s16(c_lo), vget_low_s16(w_lo));
            a = vmlal_s16(a, vget_high_s16(c_lo), vget_high_s16(w_lo));
            a = vmlal_s16(a, vget_low_s16(c_hi), vget_low_s16(w_hi));
            a = vmlal_s16(a, vget_high_s16(c_hi), vget_high_s16(w_hi));
            *acc = a;
        }
        i += 16;
    }
    let mut out =
        [vaddvq_s32(accs[0]), vaddvq_s32(accs[1]), vaddvq_s32(accs[2]), vaddvq_s32(accs[3])];
    while i < n {
        let w = i32::from(*q.get_unchecked(i));
        out[0] += i32::from(*r0.get_unchecked(i)) * w;
        out[1] += i32::from(*r1.get_unchecked(i)) * w;
        out[2] += i32::from(*r2.get_unchecked(i)) * w;
        out[3] += i32::from(*r3.get_unchecked(i)) * w;
        i += 1;
    }
    out
}

thread_local! {
    /// Per-thread query pad reused across batched distance calls; grown
    /// once to the largest stride seen, allocation-free afterwards.
    static QUERY_PAD: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` with `query` zero-extended to `stride` floats.
///
/// The pad lives in thread-local scratch, so steady-state callers pay
/// no allocation. If the query already has the full stride it is passed
/// through untouched. `f` must not itself call `with_padded_query` on
/// the same thread (the scratch is a single buffer).
pub fn with_padded_query<R>(query: &[f32], stride: usize, f: impl FnOnce(&[f32]) -> R) -> R {
    debug_assert!(query.len() <= stride);
    if query.len() == stride {
        return f(query);
    }
    QUERY_PAD.with(|cell| {
        let mut pad = cell.borrow_mut();
        pad.clear();
        pad.resize(stride, 0.0);
        pad[..query.len()].copy_from_slice(query);
        f(&pad)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(dim: usize, seed: u32) -> Vec<f32> {
        // Small deterministic generator; avoids pulling rand in here.
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(12345);
        (0..dim)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect()
    }

    #[test]
    fn dispatched_matches_scalar_across_dims_and_tails() {
        for dim in [1, 2, 7, 8, 15, 16, 31, 32, 33, 63, 64, 100, 128, 200, 256, 960] {
            let a = pseudo(dim, 1);
            let b = pseudo(dim, 2);
            let l2_ref = l2_squared_scalar(&a, &b);
            let ip_ref = inner_product_scalar(&a, &b);
            let l2 = l2_squared(&a, &b);
            let ip = inner_product(&a, &b);
            let tol = 1e-4;
            assert!((l2 - l2_ref).abs() <= tol * l2_ref.abs().max(1.0), "l2 dim={dim}");
            assert!((ip - ip_ref).abs() <= tol * ip_ref.abs().max(1.0), "ip dim={dim}");
        }
    }

    #[test]
    fn zero_padding_is_inert() {
        // Padding contributes exactly zero; only the association of the
        // existing terms can change, so scalar kernels agree exactly
        // and vector kernels agree to rounding.
        let a = pseudo(100, 3);
        let b = pseudo(100, 4);
        let mut ap = a.clone();
        let mut bp = b.clone();
        ap.resize(112, 0.0);
        bp.resize(112, 0.0);
        assert_eq!(l2_squared_scalar(&ap, &bp), l2_squared_scalar(&a, &b));
        assert_eq!(inner_product_scalar(&ap, &bp), inner_product_scalar(&a, &b));
        let (l2p, l2u) = (l2_squared(&ap, &bp), l2_squared(&a, &b));
        let (ipp, ipu) = (inner_product(&ap, &bp), inner_product(&a, &b));
        assert!((l2p - l2u).abs() <= 1e-5 * l2u.abs().max(1.0));
        assert!((ipp - ipu).abs() <= 1e-5 * ipu.abs().max(1.0));
    }

    #[test]
    fn with_padded_query_extends_with_zeros() {
        let q = vec![1.0, 2.0, 3.0];
        with_padded_query(&q, 16, |padded| {
            assert_eq!(padded.len(), 16);
            assert_eq!(&padded[..3], &[1.0, 2.0, 3.0]);
            assert!(padded[3..].iter().all(|&x| x == 0.0));
        });
        // Full-stride queries pass through without copying.
        let full: Vec<f32> = (0..16).map(|i| i as f32).collect();
        with_padded_query(&full, 16, |padded| {
            assert_eq!(padded.as_ptr(), full.as_ptr());
        });
    }

    #[test]
    fn dot_u8i8_matches_scalar_across_dims_and_tails() {
        for dim in [1, 2, 7, 15, 16, 17, 31, 32, 33, 63, 64, 100, 128, 200, 256, 960] {
            let mut state = dim as u32;
            let mut next = || {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                state >> 16
            };
            let codes: Vec<u8> = (0..dim).map(|_| (next() & 0xFF) as u8).collect();
            let q: Vec<i8> = (0..dim).map(|_| ((next() % 255) as i32 - 127) as i8).collect();
            assert_eq!(dot_u8i8(&codes, &q), dot_u8i8_scalar(&codes, &q), "dim={dim}");
        }
    }

    #[test]
    fn dot_u8i8_x4_matches_four_single_rows() {
        for dim in [1, 2, 7, 15, 16, 17, 31, 32, 33, 63, 64, 100, 128, 200, 256, 960] {
            let mut state = dim as u32 ^ 0xBEEF;
            let mut next = || {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                state >> 16
            };
            let rows: Vec<Vec<u8>> =
                (0..4).map(|_| (0..dim).map(|_| (next() & 0xFF) as u8).collect()).collect();
            let q: Vec<i8> = (0..dim).map(|_| ((next() % 255) as i32 - 127) as i8).collect();
            let quad = [&rows[0][..], &rows[1][..], &rows[2][..], &rows[3][..]];
            let expect: Vec<i32> = rows.iter().map(|r| dot_u8i8_scalar(r, &q)).collect();
            assert_eq!(dot_u8i8_x4(&q, quad).to_vec(), expect, "dim={dim}");
            // Saturation extremes must stay exact in the batched kernel
            // too (same maddubs trap as the single-row case).
            let hot = vec![255u8; dim];
            let ones = vec![127i8; dim];
            let full = dot_u8i8_x4(&ones, [&hot, &hot, &hot, &hot]);
            assert_eq!(full, [255 * 127 * dim as i32; 4], "dim={dim}");
        }
    }

    #[test]
    fn dot_u8i8_is_exact_at_saturation_extremes() {
        // Every adjacent u8·i8 pair sums to 255·127·2 = 64770 > i16::MAX:
        // the case a `maddubs`-based kernel silently saturates on. Our
        // widening kernel must be exact.
        for dim in [16, 32, 128, 960] {
            let codes = vec![255u8; dim];
            let q = vec![127i8; dim];
            assert_eq!(dot_u8i8(&codes, &q), 255 * 127 * dim as i32, "dim={dim}");
            let qn = vec![-127i8; dim];
            assert_eq!(dot_u8i8(&codes, &qn), -255 * 127 * dim as i32, "dim={dim}");
        }
    }

    #[test]
    fn dot_u8i8_zero_padding_is_inert() {
        let codes: Vec<u8> = (0..100).map(|i| (i * 7 % 256) as u8).collect();
        let q: Vec<i8> = (0..100).map(|i| (i * 13 % 255 - 127) as i8).collect();
        let mut cp = codes.clone();
        let mut qp = q.clone();
        cp.resize(128, 0);
        qp.resize(128, 0);
        assert_eq!(dot_u8i8(&cp, &qp), dot_u8i8(&codes, &q));
    }

    /// `len` values of `f` after `off` others: an operand whose start
    /// is `off` elements past an aligned allocation.
    fn offset_by<T: Clone>(off: usize, len: usize, f: impl FnMut(usize) -> T) -> Vec<T> {
        (0..off + len).map(f).collect()
    }

    /// The kernel sets this host can run, scalar first.
    fn tiers() -> Vec<Kernels> {
        let mut tiers = vec![SCALAR];
        #[cfg(target_arch = "x86_64")]
        {
            if has_avx2() {
                tiers.push(AVX2);
            }
            if has_avx512() {
                tiers.push(AVX512);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        tiers.push(detected());
        tiers
    }

    /// AVX-512's float kernels return AVX2's bits on `dim` floats whose
    /// slices start `off_a` and `off_b` floats into their buffers.
    #[cfg(target_arch = "x86_64")]
    fn check_float_bits(dim: usize, off_a: usize, off_b: usize, seed: u32) {
        if !has_avx512() {
            return;
        }
        let a = pseudo(off_a + dim, seed);
        let b = pseudo(off_b + dim, seed ^ 0x5bd1_e995);
        let (a, b) = (&a[off_a..], &b[off_b..]);
        for (name, wide, avx2) in [("l2", AVX512.l2, AVX2.l2), ("ip", AVX512.ip, AVX2.ip)] {
            let (got, want) = (wide(a, b), avx2(a, b));
            assert_eq!(got.to_bits(), want.to_bits(), "{name} dim={dim} at +{off_a}/+{off_b}");
        }
    }

    /// AVX-512's integer kernels equal AVX2's (and the scalar ones) on
    /// `dim` codes, the query and rows at different offsets.
    #[cfg(target_arch = "x86_64")]
    fn check_integer_results(dim: usize, off: usize, seed: u32) {
        if !has_avx512() {
            return;
        }
        let mut state = seed;
        let mut next = move |_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 16) as u8
        };
        let q: Vec<i8> = offset_by(off, dim, &mut next).into_iter().map(|c| c as i8).collect();
        let rows: Vec<Vec<u8>> = (0..4).map(|r| offset_by(off + r + 1, dim, &mut next)).collect();
        let q = &q[off..];
        let quad: [&[u8]; 4] = std::array::from_fn(|r| &rows[r][off + r + 1..]);
        for row in quad {
            let want = dot_u8i8_scalar(row, q);
            assert_eq!((AVX2.dot_u8i8)(row, q), want, "avx2 dim={dim}");
            assert_eq!((AVX512.dot_u8i8)(row, q), want, "avx512 dim={dim} at +{off}");
        }
        let want = dot_u8i8_x4_scalar(q, quad);
        assert_eq!((AVX2.dot_u8i8_x4)(q, quad), want, "avx2 x4 dim={dim}");
        assert_eq!((AVX512.dot_u8i8_x4)(q, quad), want, "avx512 x4 dim={dim} at +{off}");
    }

    /// Every tier's one-to-many kernels give, for each row, the bits of
    /// its per-pair kernel over `a.len()` floats: `a` of `dim` floats
    /// against rows of `dim + pad` floats, the store `off` floats into
    /// its buffer, ids out of order and repeated.
    fn check_rows_entry(dim: usize, pad: usize, off: usize, n_rows: usize, seed: u32) {
        let stride = dim + pad;
        let a = pseudo(off + 3 + dim, seed);
        let a = &a[off + 3..];
        let flat = pseudo(off + n_rows * stride, seed.wrapping_add(7));
        let rows = &flat[off..];
        let mut ids: Vec<u32> = (0..n_rows as u32).rev().collect();
        ids.extend((0..n_rows as u32).step_by(2));
        let mut out = vec![0.0; ids.len()];
        for k in tiers() {
            for (name, many, pair) in [("l2", k.l2_rows, k.l2), ("ip", k.ip_rows, k.ip)] {
                many(a, rows, stride, &ids, &mut out);
                for (&id, &got) in ids.iter().zip(&out) {
                    let want = pair(a, &rows[id as usize * stride..][..dim]);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{} {name} dim={dim} stride={stride} +{off} row {id}",
                        k.name
                    );
                }
            }
        }
    }

    #[test]
    fn wide_kernels_agree_at_the_loop_boundaries() {
        // 24 never reaches a 32-float step; 128 is four steps and
        // nothing else; 129 and 131 add a scalar tail; 160 holds four
        // steps in registers and runs a fifth from memory.
        for dim in [1, 8, 24, 31, 32, 33, 64, 100, 128, 129, 131, 160, 200] {
            for off in [0, 1, 3] {
                #[cfg(target_arch = "x86_64")]
                {
                    check_float_bits(dim, off, 2 * off, dim as u32);
                    check_integer_results(dim, off, dim as u32);
                }
                check_rows_entry(dim, off, off, 9, dim as u32);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(192))]

        #[test]
        fn avx512_float_kernels_have_avx2_bits(
            dim in 1usize..301,
            off_a in 0usize..17,
            off_b in 0usize..17,
            seed in 0u32..u32::MAX,
        ) {
            check_float_bits(dim, off_a, off_b, seed);
        }

        #[test]
        fn avx512_integer_kernels_equal_avx2(
            dim in 1usize..301,
            off in 0usize..65,
            seed in 0u32..u32::MAX,
        ) {
            check_integer_results(dim, off, seed);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn rows_entry_points_have_the_pair_kernels_bits(
            dim in 1usize..301,
            pad in 0usize..33,
            off in 0usize..17,
            n_rows in 1usize..12,
            seed in 0u32..u32::MAX,
        ) {
            check_rows_entry(dim, pad, off, n_rows, seed);
        }
    }

    #[test]
    fn kernel_name_is_stable() {
        let name = kernel_name();
        assert!(
            ["avx512", "avx2+fma", "neon", "scalar"].contains(&name),
            "unexpected kernel: {name}"
        );
    }

    #[test]
    fn prefetch_is_callable_on_any_slice() {
        prefetch_row(&[]);
        prefetch_row(&[1.0f32; 33]);
    }
}
