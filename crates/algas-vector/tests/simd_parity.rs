//! Property tests pinning the SIMD kernels to the scalar reference:
//! the dispatched single-pair kernels and the batched padded-row path
//! must agree with the scalar implementation within floating-point
//! reassociation tolerance across every dimension 1..=1024.

use algas_vector::simd;
use algas_vector::{Metric, VectorStore};
use proptest::prelude::*;

/// Relative closeness with an absolute floor of 1 (distances near zero
/// compare absolutely, large ones relatively). L2 terms are all
/// non-negative so the result's own scale is the accumulation scale.
fn rel_close(a: f32, b: f32, tol: f32) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

/// Closeness scaled by the magnitude the accumulation actually summed
/// over: inner products with mixed signs cancel, so the error bound of
/// any reassociated sum is relative to `Σ|aᵢ·bᵢ|`, not to the result.
fn sum_close(a: f32, b: f32, magnitude: f32, tol: f32) -> bool {
    (a - b).abs() <= tol * magnitude.max(1.0)
}

fn ip_magnitude(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x * y).abs()).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dispatched_kernels_match_scalar(
        pairs in prop::collection::vec((-100.0f32..100.0, -100.0f32..100.0), 1usize..1025),
    ) {
        let (a, b): (Vec<f32>, Vec<f32>) = pairs.into_iter().unzip();
        let l2_scalar = simd::l2_squared_scalar(&a, &b);
        let l2_simd = simd::l2_squared(&a, &b);
        prop_assert!(
            rel_close(l2_scalar, l2_simd, 1e-4),
            "l2 dim={}: scalar {l2_scalar} vs simd {l2_simd}", a.len()
        );
        let ip_scalar = simd::inner_product_scalar(&a, &b);
        let ip_simd = simd::inner_product(&a, &b);
        prop_assert!(
            sum_close(ip_scalar, ip_simd, ip_magnitude(&a, &b), 1e-4),
            "ip dim={}: scalar {ip_scalar} vs simd {ip_simd}", a.len()
        );
    }

    #[test]
    fn batched_path_matches_scalar_singles(
        pairs in prop::collection::vec((-8.0f32..8.0, -8.0f32..8.0), 1usize..513),
        n_rows in 1usize..24,
    ) {
        let (query, seed): (Vec<f32>, Vec<f32>) = pairs.into_iter().unzip();
        let dim = query.len();
        // Rows derived deterministically from the generated seed row so
        // every row shares the query's dimension.
        let mut store = VectorStore::with_capacity(dim, n_rows);
        let mut row = Vec::with_capacity(dim);
        for j in 0..n_rows {
            row.clear();
            row.extend(
                seed.iter()
                    .enumerate()
                    .map(|(i, &x)| x + ((i + 3 * j) % 7) as f32 * 0.5 - j as f32 * 0.25),
            );
            store.push(&row);
        }
        // Arbitrary id order with a repeat, exercising prefetch lookahead.
        let mut ids: Vec<u32> = (0..n_rows as u32).rev().collect();
        ids.push(ids[0]);
        let mut out = Vec::new();
        for metric in [Metric::L2, Metric::Cosine] {
            metric.distance_batch(&query, &store, &ids, &mut out);
            prop_assert_eq!(out.len(), ids.len());
            for (&id, &got) in ids.iter().zip(&out) {
                let row = store.get(id as usize);
                let (want, mag) = match metric {
                    Metric::L2 => (simd::l2_squared_scalar(&query, row), got.abs()),
                    Metric::Cosine => {
                        (1.0 - simd::inner_product_scalar(&query, row), ip_magnitude(&query, row))
                    }
                };
                prop_assert!(
                    sum_close(want, got, mag, 1e-4),
                    "{metric:?} dim={dim} id={id}: scalar {want} vs batched {got}"
                );
            }
            metric.distance_all(&query, &store, &mut out);
            prop_assert_eq!(out.len(), store.len());
            for (i, &got) in out.iter().enumerate() {
                let row = store.get(i);
                let (want, mag) = match metric {
                    Metric::L2 => (simd::l2_squared_scalar(&query, row), got.abs()),
                    Metric::Cosine => {
                        (1.0 - simd::inner_product_scalar(&query, row), ip_magnitude(&query, row))
                    }
                };
                prop_assert!(
                    sum_close(want, got, mag, 1e-4),
                    "{metric:?} dim={dim} row={i}: scalar {want} vs all {got}"
                );
            }
        }
    }
}

/// Dim 128 is four full 32-float steps of the wide kernels and no tail:
/// the shape of the benchmark corpus. Every entry point there agrees
/// with the scalar reference, and the one-to-many and many-to-many
/// entries with the dispatched per-pair kernel bit for bit.
#[test]
fn dim_128_agrees_on_every_entry_point() {
    let dim = 128;
    let rows: Vec<Vec<f32>> = (0..40)
        .map(|r| (0..dim).map(|d| ((r * 31 + d * 7) % 97) as f32 * 0.125 - 6.0).collect())
        .collect();
    let store = VectorStore::from_rows(dim, rows.iter().map(Vec::as_slice));
    let ids: Vec<u32> = (0..40).rev().step_by(3).collect();
    let query = &rows[5];
    for metric in [Metric::L2, Metric::Cosine] {
        // The scalar reference and the scale its rounding error is
        // relative to (see `sum_close`).
        let scalar = |a: &[f32], b: &[f32]| match metric {
            Metric::L2 => (simd::l2_squared_scalar(a, b), simd::l2_squared_scalar(a, b)),
            Metric::Cosine => (1.0 - simd::inner_product_scalar(a, b), ip_magnitude(a, b)),
        };
        let (mut batch, mut many) = (Vec::new(), Vec::new());
        metric.distance_batch(query, &store, &ids, &mut batch);
        metric.distance_rows(query, &store, &ids, &mut many);
        for (j, &id) in ids.iter().enumerate() {
            let row = store.get(id as usize);
            let pair = metric.distance(query, row);
            assert_eq!(many[j].to_bits(), pair.to_bits(), "{metric:?} row {id}");
            assert_eq!(batch[j].to_bits(), pair.to_bits(), "{metric:?} row {id}");
            let (want, mag) = scalar(query, row);
            assert!(sum_close(want, pair, mag, 1e-4), "{metric:?} row {id}: {want} vs {pair}");
        }
        metric.distance_block(&store, 0..9, &store, |i, d| {
            for (q, &got) in d.iter().enumerate() {
                let pair = metric.distance(store.get(q), store.get(i));
                assert_eq!(got.to_bits(), pair.to_bits(), "{metric:?} query {q} row {i}");
            }
        });
    }
}
