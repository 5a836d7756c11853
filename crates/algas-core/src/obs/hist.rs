//! Log-linear (HDR-style) latency histograms.
//!
//! Values (nanoseconds, cycles, counts — any `u64`) are bucketed
//! exactly below 64 and log-linearly above: each power-of-two range is
//! split into 32 linear sub-buckets, so every bucket's width is at most
//! 1/32 of its lower bound and any reported quantile `q` satisfies
//! `v ≤ q ≤ v·(1 + 1/32)` for some true order statistic `v` (the bound
//! pinned by the workspace property tests).
//!
//! [`Histogram`] is the concurrent recorder: `record` is a handful of
//! relaxed atomic adds — no locks, no allocation — so serving threads
//! can hammer one histogram directly. [`HistogramSnapshot`] is the
//! point-in-time view: cheap to merge across histograms (per-worker →
//! global) and the unit the JSON / Prometheus serializers consume.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each power-of-two range splits into
/// `2^SUB_BITS` linear buckets.
const SUB_BITS: u32 = 5;
/// Sub-buckets per power-of-two range (32 → ≤3.125% relative error).
const N_SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range.
pub const N_BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// Bucket index of a value. Exact below `2·N_SUB`; log-linear above.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 2 * N_SUB {
        v as usize
    } else {
        let e = 63 - v.leading_zeros();
        let sub = ((v >> (e - SUB_BITS)) & (N_SUB - 1)) as usize;
        (((e - SUB_BITS) as usize + 1) << SUB_BITS) + sub
    }
}

/// Smallest value mapping to bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    if i < (2 * N_SUB) as usize {
        i as u64
    } else {
        let block = (i >> SUB_BITS) as u32;
        let sub = (i & (N_SUB as usize - 1)) as u64;
        let e = block + SUB_BITS - 1;
        (N_SUB + sub) << (e - SUB_BITS)
    }
}

/// Width of bucket `i` (1 for the exact range).
fn bucket_width(i: usize) -> u64 {
    if i < (2 * N_SUB) as usize {
        1
    } else {
        1u64 << ((i >> SUB_BITS) as u32 - 1)
    }
}

/// Largest value mapping to bucket `i` — the representative the
/// quantile estimator reports (HDR's "highest equivalent value").
pub fn bucket_upper(i: usize) -> u64 {
    bucket_lower(i) + (bucket_width(i) - 1)
}

/// A concurrent log-linear histogram. `record` is lock-free and
/// allocation-free; reads go through [`Histogram::snapshot`].
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram (one fixed allocation of `N_BUCKETS` cells).
    pub fn new() -> Self {
        Self {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value: five relaxed atomic RMWs, no allocation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the counts (allocates; snapshot paths
    /// only, never the serving hot path).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            // Normalized empty form: identical to `Default`, so empty
            // histograms round-trip through serialization by equality.
            return HistogramSnapshot::default();
        }
        HistogramSnapshot {
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Copies the current state into `out`, reusing its bucket storage.
    /// Allocation-free once `out` has materialized its counts (the
    /// first call on a default snapshot allocates the `N_BUCKETS` cells
    /// once) — the form the windowed-telemetry ring uses so periodic
    /// rotation never allocates on a warm ring slot.
    pub fn snapshot_into(&self, out: &mut HistogramSnapshot) {
        if out.counts.len() != N_BUCKETS {
            out.counts.resize(N_BUCKETS, 0);
        }
        for (dst, src) in out.counts.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        out.count = self.count.load(Ordering::Relaxed);
        out.sum = self.sum.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        out.min = if out.count == 0 { 0 } else { min };
        out.max = self.max.load(Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// A point-in-time, mergeable view of a [`Histogram`].
///
/// `Default` is the empty snapshot (no buckets materialized); merging
/// and quantiles treat it as zero everywhere.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (`N_BUCKETS` long, or empty when default).
    counts: Vec<u64>,
    /// Total values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds `other` into `self` (snapshots are mergeable across
    /// workers / histograms of the same unit).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0u64; N_BUCKETS];
        }
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.min = if self.count == 0 { other.min } else { self.min.min(other.min) };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Nearest-rank quantile estimate, `q ∈ [0, 1]`: the upper bound of
    /// the bucket holding the `⌈q·count⌉`-th smallest value, clamped to
    /// the observed maximum. Within +3.125% of a true order statistic;
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// An all-zero snapshot with full bucket storage already
    /// allocated, for ring slots refilled in place via
    /// [`Histogram::snapshot_into`] (the refill then never resizes).
    pub fn preallocated() -> HistogramSnapshot {
        HistogramSnapshot { counts: vec![0; N_BUCKETS], ..HistogramSnapshot::default() }
    }

    /// The values recorded between `earlier` and `self`, where both are
    /// cumulative snapshots of the *same* histogram with `earlier`
    /// taken first — the subtraction that turns lifetime histograms
    /// into windowed ones.
    ///
    /// Per-bucket counts, `count`, and `sum` subtract exactly
    /// (saturating, so a torn pair of racy snapshots degrades to zero
    /// rather than wrapping). `min`/`max` are not recoverable from
    /// cumulative scalars, so they are re-derived from the delta's own
    /// bucket bounds: `min` is the lower bound of the first non-empty
    /// delta bucket (clamped up to the lifetime min) and `max` the
    /// upper bound of the last (clamped down to the lifetime max) —
    /// within the same ≤1/32 relative error as every quantile.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let count = self.count.saturating_sub(earlier.count);
        if count == 0 {
            return HistogramSnapshot::default();
        }
        let mut counts = vec![0u64; N_BUCKETS];
        let (mut first, mut last) = (None, 0usize);
        for (i, dst) in counts.iter_mut().enumerate() {
            let now = self.counts.get(i).copied().unwrap_or(0);
            let then = earlier.counts.get(i).copied().unwrap_or(0);
            *dst = now.saturating_sub(then);
            if *dst > 0 {
                first.get_or_insert(i);
                last = i;
            }
        }
        let Some(first) = first else {
            return HistogramSnapshot::default();
        };
        HistogramSnapshot {
            min: bucket_lower(first).max(self.min),
            max: bucket_upper(last).min(self.max),
            counts,
            count,
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Mean of the recorded values (exact: tracked as a running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `(p50, p95, p99, p999)` quantile estimates.
    pub fn percentiles(&self) -> (u64, u64, u64, u64) {
        (self.quantile(0.50), self.quantile(0.95), self.quantile(0.99), self.quantile(0.999))
    }

    /// How many recorded values were `≤ v`, to bucket resolution: every
    /// bucket up to and including `v`'s own counts in full, so the
    /// estimate can overshoot by at most the straddling bucket (≤1/32
    /// relative in value terms). The SLO burn-rate attainment uses this
    /// against windowed deltas.
    pub fn count_le(&self, v: u64) -> u64 {
        self.counts.iter().take(bucket_index(v) + 1).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_range_is_exact() {
        for v in 0..64u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn buckets_tile_the_range() {
        // Every bucket starts right after the previous one ends.
        for i in 1..N_BUCKETS {
            assert_eq!(bucket_lower(i), bucket_upper(i - 1) + 1, "gap at bucket {i}");
        }
        assert_eq!(bucket_upper(N_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn index_roundtrips_through_bounds() {
        for v in
            [0u64, 1, 31, 32, 63, 64, 65, 127, 128, 1000, 65_535, 1 << 33, u64::MAX - 1, u64::MAX]
        {
            let i = bucket_index(v);
            assert!(bucket_lower(i) <= v && v <= bucket_upper(i), "v={v} bucket {i}");
        }
    }

    #[test]
    fn relative_error_bound_holds() {
        // upper - v ≤ v/32 for every value: 32·(upper − lower) ≤ lower.
        for i in 0..N_BUCKETS {
            let lo = bucket_lower(i) as u128;
            let hi = bucket_upper(i) as u128;
            assert!(32 * (hi - lo) <= lo.max(1), "bucket {i}: [{lo}, {hi}]");
        }
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert_eq!(s.sum, 500_500);
        for (q, truth) in [(0.5, 500u64), (0.95, 950), (0.99, 990), (1.0, 1000)] {
            let est = s.quantile(q);
            assert!(est >= truth, "q={q}: {est} < {truth}");
            assert!((est - truth) * 32 <= truth, "q={q}: {est} too far above {truth}");
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in 0..500u64 {
            let x = v * v % 10_007;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            all.record(x);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn merge_into_empty_default() {
        let h = Histogram::new();
        h.record(42);
        h.record(7);
        let mut m = HistogramSnapshot::default();
        m.merge(&h.snapshot());
        assert_eq!(m, h.snapshot());
        // Merging an empty snapshot changes nothing.
        m.merge(&HistogramSnapshot::default());
        assert_eq!(m, h.snapshot());
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!((s.min, s.max), (0, 0));
    }

    #[test]
    fn delta_recovers_the_interval() {
        // Record in two phases; the delta of the cumulative snapshots
        // must equal a histogram that saw only the second phase.
        let h = Histogram::new();
        let second_only = Histogram::new();
        for v in [5u64, 70, 900, 900, 40_000] {
            h.record(v);
        }
        let earlier = h.snapshot();
        for v in [12u64, 300, 300, 1 << 20] {
            h.record(v);
            second_only.record(v);
        }
        let d = h.snapshot().delta(&earlier);
        let expect = second_only.snapshot();
        assert_eq!(d.count, expect.count);
        assert_eq!(d.sum, expect.sum);
        assert_eq!(d.counts, expect.counts);
        // min/max are re-derived from bucket bounds: within one bucket
        // of the true interval extrema.
        let (lo, hi) = (bucket_index(expect.min), bucket_index(expect.max));
        assert!(bucket_lower(lo) <= d.min && d.min <= bucket_upper(lo), "min {}", d.min);
        assert!(bucket_lower(hi) <= d.max && d.max <= bucket_upper(hi), "max {}", d.max);
        // Lifetime max (1<<20) is in the window, so quantiles match
        // the second-phase histogram exactly.
        for q in [0.5, 0.99, 1.0] {
            assert_eq!(d.quantile(q), expect.quantile(q), "q={q}");
        }
    }

    #[test]
    fn delta_edge_cases() {
        let h = Histogram::new();
        h.record(10);
        let s = h.snapshot();
        // Nothing in between: normalized empty delta.
        assert_eq!(s.delta(&s), HistogramSnapshot::default());
        // Against the default (empty) snapshot: the full histogram.
        assert_eq!(s.delta(&HistogramSnapshot::default()), s);
    }

    #[test]
    fn snapshot_into_reuses_storage_and_matches() {
        let h = Histogram::new();
        let mut out = HistogramSnapshot::default();
        h.snapshot_into(&mut out); // empty: materializes the buckets
        assert_eq!(out.count, 0);
        for v in [1u64, 64, 4096] {
            h.record(v);
        }
        let ptr = out.counts.as_ptr();
        h.snapshot_into(&mut out);
        assert_eq!(ptr, out.counts.as_ptr(), "warm snapshot_into must not reallocate");
        let fresh = h.snapshot();
        assert_eq!((out.count, out.sum, out.min, out.max), (3, 4161, 1, 4096));
        assert_eq!(out, fresh);
        assert_eq!(out.delta(&HistogramSnapshot::default()), fresh);
    }

    #[test]
    fn count_le_tracks_the_cdf() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count_le(0), 0);
        // Exact range: exact CDF.
        assert_eq!(s.count_le(50), 50);
        // Log-linear range: within one bucket of the truth.
        let est = s.count_le(80);
        assert!((80..=82).contains(&est), "count_le(80) = {est}");
        assert_eq!(s.count_le(u64::MAX), 100);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        // 4 threads hammering one histogram: counts and sums must be
        // exact (relaxed atomics, but every RMW lands).
        let h = Histogram::new();
        let per_thread = 50_000u64;
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * 1_000_000 + (i % 1024));
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 4 * per_thread);
        let expected_sum: u64 = (0..4u64)
            .map(|t| (0..per_thread).map(|i| t * 1_000_000 + (i % 1024)).sum::<u64>())
            .sum();
        assert_eq!(s.sum, expected_sum);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 3 * 1_000_000 + 1023);
    }
}
