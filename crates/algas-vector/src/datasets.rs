//! Synthetic stand-ins for the paper's evaluation corpora.
//!
//! The paper evaluates on SIFT1M, GIST1M, GloVe200 and NYTimes (Table
//! III). Those corpora are not shipped here, so this module generates
//! clustered Gaussian mixtures matched in dimension and metric, scaled to
//! sizes a single CPU core can index quickly. The properties that drive
//! every phenomenon the paper studies survive the substitution:
//!
//! * *step-count variance* (the query-bubble source, Figs 1–2) comes from
//!   queries landing at different distances from dense regions — the
//!   mixture reproduces this because query draws mix cluster-perturbed
//!   and off-cluster points;
//! * *distance convergence* (Fig 7, the beam-extend rationale) is a
//!   property of greedy descent on any clustered corpus;
//! * the *dimension spread* (128 → 960) is preserved exactly, which is
//!   what moves the compute/sort and compute/PCIe ratios (Figs 3, 18).
//!
//! Real corpora in `fvecs` format drop in via [`crate::io`].

use crate::metric::Metric;
use crate::store::VectorStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Description of a dataset (Table III row).
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetSpec {
    /// Display name, e.g. `"SIFT1M(synth)"`.
    pub name: String,
    /// Number of base vectors to generate.
    pub n_base: usize,
    /// Number of query vectors to generate.
    pub n_queries: usize,
    /// Vector dimension.
    pub dim: usize,
    /// Distance metric.
    pub metric: Metric,
    /// Number of mixture components.
    pub clusters: usize,
    /// Per-dimension standard deviation of points around their centroid.
    pub spread: f32,
    /// RNG seed; every dataset is fully reproducible.
    pub seed: u64,
}

impl DatasetSpec {
    /// The four paper datasets (Table III), dimension- and metric-exact,
    /// scaled by `scale` (1.0 reproduces the default laptop-scale sizes;
    /// tests use smaller scales).
    pub fn paper_suite(scale: f64) -> Vec<DatasetSpec> {
        let sz = |n: usize| ((n as f64 * scale) as usize).max(256);
        let nq = |n: usize| ((n as f64 * scale) as usize).clamp(512, 2000);
        vec![
            DatasetSpec {
                name: "SIFT1M(synth)".into(),
                n_base: sz(60_000),
                n_queries: nq(1_000),
                dim: 128,
                metric: Metric::L2,
                clusters: 64,
                spread: 0.55,
                seed: 0x51F7,
            },
            DatasetSpec {
                name: "GIST1M(synth)".into(),
                n_base: sz(20_000),
                n_queries: nq(500),
                dim: 960,
                metric: Metric::L2,
                clusters: 48,
                spread: 0.60,
                seed: 0x6157,
            },
            DatasetSpec {
                name: "GLoVe200(synth)".into(),
                n_base: sz(60_000),
                n_queries: nq(1_000),
                dim: 200,
                metric: Metric::Cosine,
                clusters: 80,
                spread: 0.65,
                seed: 0x610E,
            },
            DatasetSpec {
                name: "NYTimes(synth)".into(),
                n_base: sz(30_000),
                n_queries: nq(1_000),
                dim: 256,
                metric: Metric::Cosine,
                clusters: 40,
                spread: 0.70,
                seed: 0x4E59,
            },
        ]
    }

    /// A small, fast dataset for unit and integration tests.
    pub fn tiny(n_base: usize, dim: usize, metric: Metric, seed: u64) -> DatasetSpec {
        DatasetSpec {
            name: format!("tiny-{n_base}x{dim}"),
            n_base,
            n_queries: (n_base / 10).clamp(8, 128),
            dim,
            metric,
            clusters: (n_base / 64).clamp(2, 16),
            spread: 0.55,
            seed,
        }
    }

    /// Generates the dataset.
    pub fn generate(&self) -> GeneratedDataset {
        generate(self)
    }
}

/// A generated corpus plus query set.
#[derive(Clone, Debug)]
pub struct GeneratedDataset {
    /// The spec this dataset was generated from.
    pub spec: DatasetSpec,
    /// Base (indexed) vectors. Normalized if the metric requires it.
    pub base: VectorStore,
    /// Query vectors. Normalized if the metric requires it.
    pub queries: VectorStore,
}

/// Draws one standard normal via Box–Muller (avoids a `rand_distr`
/// dependency; see DESIGN.md §6).
fn sample_normal(rng: &mut StdRng) -> f32 {
    // Guard u1 away from zero so ln() stays finite.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

fn fill_gaussian(rng: &mut StdRng, out: &mut [f32], center: &[f32], spread: f32) {
    for (x, c) in out.iter_mut().zip(center) {
        *x = c + spread * sample_normal(rng);
    }
}

/// Generates a clustered Gaussian-mixture dataset from a spec.
///
/// Scales are **dimension-normalized** so cluster geometry doesn't
/// degenerate at high dimension: centroid coordinates are
/// `N(0, 1/√dim)` (expected inter-centroid distance ≈ √2 regardless of
/// `dim`) and point noise is `spread/√dim` per coordinate (expected
/// point-to-centroid distance ≈ `spread`). With the suite's spreads the
/// clusters overlap the way real embedding corpora do — which is what
/// keeps k-NN-graph-based indexes (CAGRA) navigable.
///
/// Base points are drawn around `spec.clusters` centroids with
/// Zipf-skewed cluster sizes (real corpora have uneven density, which is
/// what produces step-count variance between queries). Queries follow
/// the corpus distribution, except that ~1 in 150 is a random base point
/// perturbed well beyond the cluster noise — a hard-but-on-manifold
/// query, the rare long-tail search of Figs 1–2.
pub fn generate(spec: &DatasetSpec) -> GeneratedDataset {
    assert!(spec.clusters >= 1, "need at least one cluster");
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let inv_sqrt_dim = 1.0 / (spec.dim as f32).sqrt();
    let sigma = spec.spread * inv_sqrt_dim;

    // Centroids: dimension-normalized Gaussian positions.
    let mut centroids = VectorStore::with_capacity(spec.dim, spec.clusters);
    let mut row = vec![0.0f32; spec.dim];
    for _ in 0..spec.clusters {
        for x in row.iter_mut() {
            *x = sample_normal(&mut rng) * inv_sqrt_dim;
        }
        centroids.push(&row);
    }

    // Zipf-ish cluster weights: weight(i) ∝ 1/(i+1).
    let weights: Vec<f64> = (0..spec.clusters).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    let total_w: f64 = weights.iter().sum();
    let cum: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total_w;
            Some(*acc)
        })
        .collect();
    let pick_cluster = |rng: &mut StdRng| -> usize {
        let u: f64 = rng.gen();
        cum.iter().position(|&c| u <= c).unwrap_or(spec.clusters - 1)
    };

    // 15% of the corpus is a diffuse background component spanning the
    // centroid scale. Real embedding corpora are not pure mixtures —
    // this sparse tissue between clusters is what makes k-NN graphs
    // (and hence CAGRA-style indexes) globally navigable.
    let zero = vec![0.0f32; spec.dim];
    let background_sigma = 1.1 * inv_sqrt_dim;
    let mut base = VectorStore::with_capacity(spec.dim, spec.n_base);
    for i in 0..spec.n_base {
        if i % 7 == 6 {
            fill_gaussian(&mut rng, &mut row, &zero, background_sigma);
        } else {
            let c = pick_cluster(&mut rng);
            fill_gaussian(&mut rng, &mut row, centroids.get(c), sigma);
        }
        base.push(&row);
    }

    let mut queries = VectorStore::with_capacity(spec.dim, spec.n_queries);
    for _q in 0..spec.n_queries {
        if !rng.gen_bool(1.0 / 150.0) {
            // In-distribution query: same mixture as the base corpus.
            let c = pick_cluster(&mut rng);
            fill_gaussian(&mut rng, &mut row, centroids.get(c), sigma);
        } else {
            // Hard on-manifold query: a corpus point perturbed beyond
            // the cluster noise by a random factor — a rare, variable
            // long-search tail (most mildly hard, a few extreme).
            let i = rng.gen_range(0..base.len());
            let anchor = base.get(i).to_vec();
            let factor: f32 = rng.gen_range(1.5..3.0);
            fill_gaussian(&mut rng, &mut row, &anchor, sigma * factor);
        }
        queries.push(&row);
    }

    if spec.metric.requires_normalization() {
        base.normalize_l2();
        queries.normalize_l2();
    }

    GeneratedDataset { spec: spec.clone(), base, queries }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetSpec::tiny(256, 16, Metric::L2, 42);
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.base, b.base);
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    fn different_seeds_differ() {
        let mut s1 = DatasetSpec::tiny(128, 8, Metric::L2, 1);
        let s2 = DatasetSpec::tiny(128, 8, Metric::L2, 2);
        s1.seed = 1;
        assert_ne!(generate(&s1).base, generate(&s2).base);
    }

    #[test]
    fn shapes_match_spec() {
        let spec = DatasetSpec::tiny(300, 12, Metric::L2, 7);
        let ds = generate(&spec);
        assert_eq!(ds.base.len(), 300);
        assert_eq!(ds.base.dim(), 12);
        assert_eq!(ds.queries.dim(), 12);
        assert_eq!(ds.queries.len(), spec.n_queries);
    }

    #[test]
    fn cosine_datasets_are_normalized() {
        let spec = DatasetSpec::tiny(200, 10, Metric::Cosine, 9);
        let ds = generate(&spec);
        for row in ds.base.iter().chain(ds.queries.iter()) {
            let norm: f32 = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-4, "norm {norm}");
        }
    }

    #[test]
    fn paper_suite_matches_table_iii() {
        let suite = DatasetSpec::paper_suite(1.0);
        assert_eq!(suite.len(), 4);
        assert_eq!(suite[0].dim, 128);
        assert_eq!(suite[1].dim, 960);
        assert_eq!(suite[2].dim, 200);
        assert_eq!(suite[3].dim, 256);
        assert_eq!(suite[0].metric, Metric::L2);
        assert_eq!(suite[2].metric, Metric::Cosine);
    }

    #[test]
    fn clusters_create_nonuniform_density() {
        // Points drawn around a small number of centroids must be much
        // closer to their nearest neighbor than uniform points would be.
        let spec =
            DatasetSpec { clusters: 4, spread: 0.1, ..DatasetSpec::tiny(400, 8, Metric::L2, 3) };
        let ds = generate(&spec);
        let v0 = ds.base.get(0);
        let mut best = f32::INFINITY;
        for i in 1..ds.base.len() {
            best = best.min(crate::metric::l2_squared(v0, ds.base.get(i)));
        }
        // Tight clusters (spread 0.1 ≪ centroid scale 1) ⇒ squared NN
        // distance well below the inter-centroid scale of ~2.
        assert!(best < 0.5, "nearest neighbor unexpectedly far: {best}");
    }

    #[test]
    fn sample_normal_is_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| sample_normal(&mut rng)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
