//! Entry-point selection.
//!
//! Single-CTA search starts at one entry; the paper's multi-CTA mode has
//! each of a query's CTAs "enter \[a\] random entry point" (§III-B) so the
//! CTAs explore disjoint regions before meeting in the TopK neighborhood.
//!
//! Beside the stateless policies (medoid, CAGRA-style hashed entries), this module provides the one *data-backed* entry
//! structure built at index time, the [`HashEntryTable`]: an LSH bucket
//! table whose random-hyperplane signatures (over the fp32 rows, or the
//! dequantized SQ8 rows when the index is quantized) partition the
//! corpus into `2^bits` buckets, each holding a few representative
//! vertices near the bucket centroid. A query hashes to its bucket and
//! starts the search there — on the query's side of every hyperplane —
//! instead of at a random vertex, cutting traversal hops.

use algas_vector::lsh::HyperplaneHasher;
use algas_vector::quant::QuantizedStore;
use algas_vector::{Metric, VectorStore};

/// Sentinel for an unfilled representative slot (empty bucket).
pub const NO_ENTRY: u32 = u32::MAX;

/// How a searcher picks its entry vertex (or vertices, for multi-CTA).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EntryPolicy {
    /// Start at the corpus medoid (vector closest to the mean) —
    /// computed once by [`medoid`]; the classic single-entry choice.
    Medoid,
    /// Per-(query, CTA) pseudo-random entries from a seeded hash —
    /// CAGRA's multi-CTA strategy. Deterministic given the seed.
    Hashed {
        /// Seed mixed into the hash.
        seed: u64,
    },
    /// LSH bucket lookup through the index's [`HashEntryTable`]; CTAs
    /// beyond the bucket's representatives (and queries hashing to an
    /// empty bucket) fall back to hashed entries. Requires the table on
    /// the index — the bare [`EntryPolicy::entry_for`] degrades to the
    /// medoid.
    HashTable,
}

impl EntryPolicy {
    /// Resolves the entry vertex for `(query_id, cta_id)` over a corpus
    /// of `n` vertices. `medoid_id` supplies the precomputed medoid for
    /// [`EntryPolicy::Medoid`].
    ///
    /// [`EntryPolicy::HashTable`] needs the query vector and a
    /// [`HashEntryTable`] to resolve — the engine looks it up there;
    /// this data-free resolver returns the medoid for it.
    ///
    /// # Panics
    /// Panics if `n == 0` or the medoid is out of range.
    pub fn entry_for(&self, query_id: u64, cta_id: u32, n: usize, medoid_id: u32) -> u32 {
        assert!(n > 0, "cannot pick an entry in an empty corpus");
        match *self {
            EntryPolicy::Medoid | EntryPolicy::HashTable => {
                assert!((medoid_id as usize) < n, "medoid {medoid_id} out of range");
                medoid_id
            }
            EntryPolicy::Hashed { seed } => {
                (splitmix64(seed ^ query_id.wrapping_mul(0x9E3779B97F4A7C15) ^ (cta_id as u64))
                    % n as u64) as u32
            }
        }
    }
}

/// SplitMix64: a tiny, high-quality mixing function, used for the hashed
/// entry policy so entries are reproducible without carrying RNG state.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Finds the corpus medoid: the vector minimizing distance to the
/// element-wise mean. O(n·dim); run once at index-build time.
pub fn medoid(base: &VectorStore, metric: Metric) -> u32 {
    assert!(!base.is_empty(), "medoid of empty corpus");
    let dim = base.dim();
    let mut mean = vec![0.0f64; dim];
    for row in base.iter() {
        for (m, &x) in mean.iter_mut().zip(row) {
            *m += x as f64;
        }
    }
    let n = base.len() as f64;
    let mean_f32: Vec<f32> = mean.iter().map(|&m| (m / n) as f32).collect();
    let mut dists = Vec::with_capacity(base.len());
    metric.distance_all(&mean_f32, base, &mut dists);
    let mut best = (f32::INFINITY, 0u32);
    for (i, &d) in dists.iter().enumerate() {
        if d < best.0 {
            best = (d, i as u32);
        }
    }
    best.1
}

/// Shape of the entry table built at index time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryParams {
    /// Signature width; `None` sizes the table at roughly 64 vectors
    /// per bucket, clamped to 4..=12 bits.
    pub n_bits: Option<u32>,
    /// Representative vertices kept per bucket (one per CTA before the
    /// hashed fallback kicks in).
    pub reps_per_bucket: u32,
    /// Seed for the hyperplanes, and for the hashed entries CTAs fall
    /// back to past a bucket's representatives.
    pub seed: u64,
}

impl Default for EntryParams {
    fn default() -> Self {
        Self { n_bits: None, reps_per_bucket: 4, seed: 0x005E_1EC7 }
    }
}

impl EntryParams {
    /// Resolves the signature width for a corpus of `n` vectors.
    pub fn bits_for(&self, n: usize) -> u32 {
        match self.n_bits {
            Some(b) => b,
            None => {
                let target_buckets = (n / 64).max(1);
                let bits = (usize::BITS - target_buckets.leading_zeros()).saturating_sub(1);
                bits.clamp(4, 12)
            }
        }
    }
}

/// The LSH hash-bucket entry table: `2^bits` buckets of up to
/// `reps_per_bucket` representative vertices, plus the hyperplane bank
/// that maps queries to buckets.
#[derive(Clone, Debug, PartialEq)]
pub struct HashEntryTable {
    hasher: HyperplaneHasher,
    /// `n_buckets × reps_per_bucket` vertex ids, [`NO_ENTRY`]-padded.
    reps: Vec<u32>,
    reps_per_bucket: u32,
    /// Buckets with at least one representative (diagnostic).
    occupied: u32,
}

impl HashEntryTable {
    /// Builds the table over the corpus. Signatures are computed over
    /// the dequantized SQ8 codes when `quant` is present (matching the
    /// store the traversal scores against) and over the fp32 rows
    /// otherwise. Each bucket keeps the member closest to the bucket
    /// centroid as its first representative, then evenly-strided
    /// members for CTA diversity. Empty buckets borrow the first
    /// representative of a Hamming-distance-1 neighbor when one exists.
    ///
    /// Deterministic for a fixed `(corpus, quant, params)`.
    pub fn build(
        base: &VectorStore,
        quant: Option<&QuantizedStore>,
        metric: Metric,
        params: &EntryParams,
    ) -> Self {
        assert!(!base.is_empty(), "entry table over empty corpus");
        assert!(params.reps_per_bucket > 0, "need at least one representative per bucket");
        let n = base.len();
        let dim = base.dim();
        let n_bits = params.bits_for(n);
        let hasher = HyperplaneHasher::new(dim, n_bits, params.seed);
        let n_buckets = hasher.n_buckets();

        // Signature per row, then bucket membership via counting sort.
        let mut scratch = Vec::new();
        let sigs: Vec<u32> = (0..n)
            .map(|i| match quant {
                Some(q) => hasher.signature_quant_row(q, i, &mut scratch),
                None => hasher.signature_row(base, i),
            })
            .collect();
        let mut counts = vec![0u32; n_buckets + 1];
        for &s in &sigs {
            counts[s as usize + 1] += 1;
        }
        for b in 0..n_buckets {
            counts[b + 1] += counts[b];
        }
        let mut members = vec![0u32; n];
        let mut fill = counts.clone();
        for (i, &s) in sigs.iter().enumerate() {
            members[fill[s as usize] as usize] = i as u32;
            fill[s as usize] += 1;
        }

        let rpb = params.reps_per_bucket as usize;
        let mut reps = vec![NO_ENTRY; n_buckets * rpb];
        let mut mean = vec![0.0f64; dim];
        let mut mean_f32 = vec![0.0f32; dim];
        for b in 0..n_buckets {
            let m = &members[counts[b] as usize..counts[b + 1] as usize];
            if m.is_empty() {
                continue;
            }
            // Representative 0: the member closest to the bucket mean.
            mean.iter_mut().for_each(|x| *x = 0.0);
            for &id in m {
                for (acc, &x) in mean.iter_mut().zip(base.get(id as usize)) {
                    *acc += x as f64;
                }
            }
            for (out, &acc) in mean_f32.iter_mut().zip(mean.iter()) {
                *out = (acc / m.len() as f64) as f32;
            }
            let mut best = (f32::INFINITY, m[0]);
            for &id in m {
                let d = metric.distance(&mean_f32, base.get(id as usize));
                if d < best.0 {
                    best = (d, id);
                }
            }
            let slot = &mut reps[b * rpb..(b + 1) * rpb];
            slot[0] = best.1;
            // Remaining representatives: evenly-strided members (skip
            // duplicates of the centroid pick).
            let mut filled = 1usize;
            for r in 1..rpb.min(m.len()) {
                let cand = m[r * m.len() / rpb];
                if !slot[..filled].contains(&cand) {
                    slot[filled] = cand;
                    filled += 1;
                }
            }
        }

        // Empty buckets borrow a Hamming-1 neighbor's centroid rep so
        // a query hashing there still gets a nearby entry. Borrowing
        // walks ascending bucket ids and only reads slots filled by the
        // member pass above, so the result is order-independent.
        let filled: Vec<bool> = (0..n_buckets).map(|b| reps[b * rpb] != NO_ENTRY).collect();
        for b in 0..n_buckets {
            if filled[b] {
                continue;
            }
            for bit in 0..n_bits {
                let nb = b ^ (1usize << bit);
                if filled[nb] {
                    reps[b * rpb] = reps[nb * rpb];
                    break;
                }
            }
        }

        let occupied = (0..n_buckets).filter(|&b| reps[b * rpb] != NO_ENTRY).count() as u32;
        Self { hasher, reps, reps_per_bucket: params.reps_per_bucket, occupied }
    }

    /// Reassembles a table from persisted parts (the decode path).
    ///
    /// # Panics
    /// Panics if `reps` is not `n_buckets × reps_per_bucket` long or
    /// `reps_per_bucket == 0`.
    pub fn from_parts(hasher: HyperplaneHasher, reps: Vec<u32>, reps_per_bucket: u32) -> Self {
        assert!(reps_per_bucket > 0, "need at least one representative per bucket");
        assert_eq!(
            reps.len(),
            hasher.n_buckets() * reps_per_bucket as usize,
            "representative table shape mismatch"
        );
        let rpb = reps_per_bucket as usize;
        let occupied =
            (0..hasher.n_buckets()).filter(|&b| reps[b * rpb] != NO_ENTRY).count() as u32;
        Self { hasher, reps, reps_per_bucket, occupied }
    }

    /// The hyperplane bank (query-side signature computation and
    /// persistence).
    pub fn hasher(&self) -> &HyperplaneHasher {
        &self.hasher
    }

    /// The flat `n_buckets × reps_per_bucket` representative table.
    pub fn reps(&self) -> &[u32] {
        &self.reps
    }

    /// Representatives kept per bucket.
    pub fn reps_per_bucket(&self) -> u32 {
        self.reps_per_bucket
    }

    /// Signature width in bits.
    pub fn n_bits(&self) -> u32 {
        self.hasher.n_bits()
    }

    /// Buckets holding at least one representative.
    pub fn occupied_buckets(&self) -> u32 {
        self.occupied
    }

    /// The query's bucket signature. Allocation-free.
    #[inline]
    pub fn signature(&self, query: &[f32]) -> u32 {
        self.hasher.signature(query)
    }

    /// The representative for `(bucket signature, cta)` — `None` when
    /// the slot is unfilled (caller falls back to a hashed entry).
    /// Allocation-free.
    #[inline]
    pub fn seed_for(&self, sig: u32, cta_id: u32) -> Option<u32> {
        let rpb = self.reps_per_bucket as usize;
        let slot = (cta_id as usize) % rpb;
        let v = self.reps[(sig as usize) * rpb + slot];
        (v != NO_ENTRY).then_some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algas_vector::datasets::DatasetSpec;

    #[test]
    fn hashed_policy_is_deterministic_and_spread() {
        let p = EntryPolicy::Hashed { seed: 7 };
        let a = p.entry_for(1, 0, 1000, 0);
        assert_eq!(a, p.entry_for(1, 0, 1000, 0));
        // Different CTAs of the same query land on different entries
        // (overwhelmingly likely for 1000 vertices and 8 CTAs).
        let entries: std::collections::HashSet<u32> =
            (0..8).map(|cta| p.entry_for(1, cta, 1000, 0)).collect();
        assert!(entries.len() >= 6, "entries too clustered: {entries:?}");
    }

    #[test]
    fn hashed_policy_in_range() {
        let p = EntryPolicy::Hashed { seed: 0 };
        for q in 0..50u64 {
            for cta in 0..4 {
                assert!((p.entry_for(q, cta, 17, 0) as usize) < 17);
            }
        }
    }

    #[test]
    fn medoid_of_cluster_is_central() {
        // Points on a line; medoid must be the middle one.
        let base = VectorStore::from_flat(1, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(medoid(&base, Metric::L2), 2);
    }

    #[test]
    fn medoid_policy_uses_supplied_id() {
        let p = EntryPolicy::Medoid;
        assert_eq!(p.entry_for(5, 2, 100, 42), 42);
    }

    #[test]
    fn data_backed_policies_degrade_to_medoid_without_data() {
        assert_eq!(EntryPolicy::HashTable.entry_for(3, 1, 50, 17), 17);
    }

    fn clustered(n: usize, dim: usize, seed: u64) -> VectorStore {
        DatasetSpec::tiny(n, dim, Metric::L2, seed).generate().base
    }

    #[test]
    fn hash_table_build_is_deterministic_under_fixed_seed() {
        let base = clustered(600, 16, 0xA1);
        let params = EntryParams { n_bits: Some(6), ..EntryParams::default() };
        let a = HashEntryTable::build(&base, None, Metric::L2, &params);
        let b = HashEntryTable::build(&base, None, Metric::L2, &params);
        assert_eq!(a, b);
        assert_eq!(a.n_bits(), 6);
        assert!(a.occupied_buckets() > 0);
        // A different seed produces a different table.
        let c = HashEntryTable::build(
            &base,
            None,
            Metric::L2,
            &EntryParams { n_bits: Some(6), seed: 9, ..EntryParams::default() },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn hash_table_reps_are_valid_bucket_members() {
        let base = clustered(500, 12, 0xB2);
        let params = EntryParams { n_bits: Some(5), ..EntryParams::default() };
        let t = HashEntryTable::build(&base, None, Metric::L2, &params);
        let rpb = t.reps_per_bucket() as usize;
        for b in 0..t.hasher().n_buckets() {
            for r in 0..rpb {
                let v = t.reps()[b * rpb + r];
                if v != NO_ENTRY {
                    assert!((v as usize) < base.len(), "rep out of range");
                }
            }
        }
    }

    #[test]
    fn hash_table_entry_is_closer_than_medoid_on_average() {
        let ds = DatasetSpec::tiny(2000, 16, Metric::L2, 0xC3).generate();
        let t = HashEntryTable::build(&ds.base, None, Metric::L2, &EntryParams::default());
        let med = medoid(&ds.base, Metric::L2);
        let mut table_closer = 0usize;
        let mut resolved = 0usize;
        for q in 0..ds.queries.len() {
            let query = ds.queries.get(q);
            let sig = t.signature(query);
            if let Some(e) = t.seed_for(sig, 0) {
                resolved += 1;
                let de = Metric::L2.distance(query, ds.base.get(e as usize));
                let dm = Metric::L2.distance(query, ds.base.get(med as usize));
                if de <= dm {
                    table_closer += 1;
                }
            }
        }
        assert!(resolved > ds.queries.len() / 2, "too few queries resolved: {resolved}");
        assert!(
            table_closer * 3 > resolved * 2,
            "bucket entries should usually beat the medoid: {table_closer}/{resolved}"
        );
    }

    #[test]
    fn quantized_build_path_is_deterministic() {
        let base = clustered(400, 8, 0xD4);
        let q = QuantizedStore::from_store(&base);
        let params = EntryParams { n_bits: Some(5), ..EntryParams::default() };
        let a = HashEntryTable::build(&base, Some(&q), Metric::L2, &params);
        let b = HashEntryTable::build(&base, Some(&q), Metric::L2, &params);
        assert_eq!(a, b);
    }
}
