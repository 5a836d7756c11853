//! Microbenchmarks of the hot kernels: distance functions, candidate
//! list maintenance, TopK merge, visited bitmap and its row filter —
//! the operations the cost model prices (Fig 3's constituents).

use algas_core::lists::{CandidateList, VisitedBitmap};
use algas_core::merge::merge_topk;
use algas_vector::metric::{inner_product, l2_squared, subvector_partials, DistValue, Metric};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_distances(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance");
    let mut rng = StdRng::seed_from_u64(1);
    for dim in [128usize, 200, 256, 960] {
        let a: Vec<f32> = (0..dim).map(|_| rng.gen()).collect();
        let b: Vec<f32> = (0..dim).map(|_| rng.gen()).collect();
        group.bench_with_input(BenchmarkId::new("l2", dim), &dim, |bch, _| {
            bch.iter(|| l2_squared(black_box(&a), black_box(&b)))
        });
        group.bench_with_input(BenchmarkId::new("ip", dim), &dim, |bch, _| {
            bch.iter(|| inner_product(black_box(&a), black_box(&b)))
        });
        group.bench_with_input(BenchmarkId::new("warp_partials", dim), &dim, |bch, _| {
            bch.iter(|| subvector_partials(Metric::L2, black_box(&a), black_box(&b), 32))
        });
    }
    group.finish();
}

fn bench_candidate_list(c: &mut Criterion) {
    let mut group = c.benchmark_group("candidate_list");
    let mut rng = StdRng::seed_from_u64(2);
    for l in [32usize, 64, 128, 256] {
        // Sixteen expand lists of 32 scored ids each, as step ④ hands
        // them over: parallel id and distance arrays.
        let batches: Vec<(Vec<u32>, Vec<f32>)> = (0..16)
            .map(|i| {
                (
                    (0..32).map(|j| (i * 1000 + j) as u32).collect(),
                    (0..32).map(|_| rng.gen()).collect(),
                )
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("merge_batches", l), &l, |bch, &l| {
            bch.iter(|| {
                let mut list = CandidateList::new(l);
                for (ids, dists) in &batches {
                    list.merge_batch(black_box(ids), black_box(dists));
                }
                black_box(list.len())
            })
        });
    }
    group.finish();
}

fn bench_topk_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("host_topk_merge");
    let mut rng = StdRng::seed_from_u64(3);
    for n_ctas in [2usize, 4, 8, 16] {
        let lists: Vec<Vec<(DistValue, u32)>> = (0..n_ctas)
            .map(|i| {
                let mut l: Vec<(DistValue, u32)> =
                    (0..16).map(|j| (DistValue(rng.gen::<f32>()), (i * 100 + j) as u32)).collect();
                l.sort_by_key(|&(d, id)| (d, id));
                l
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n_ctas), &n_ctas, |bch, _| {
            bch.iter(|| merge_topk(black_box(&lists), 16))
        });
    }
    group.finish();
}

fn bench_bitmap(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let ids: Vec<u32> = (0..4096).map(|_| rng.gen_range(0..60_000)).collect();
    c.bench_function("visited_bitmap_4096_ops", |bch| {
        bch.iter(|| {
            let mut bm = VisitedBitmap::new(60_000);
            let mut fresh = 0usize;
            for &id in &ids {
                fresh += bm.test_and_set(black_box(id)) as usize;
            }
            black_box(fresh)
        })
    });
}

/// Step ②'s filter as the search runs it: one cleared bitmap per
/// "query", 1 024 degree-32 adjacency rows pushed through
/// `filter_into`. A slot holds a never-seen id with the group's admit
/// probability and repeats an earlier slot's id otherwise, so probe
/// outcomes come in no learnable order — 25 % is the middle of a
/// search, 75 % its first steps. One iteration is 32 768 probes.
fn bench_visited_filter(c: &mut Criterion) {
    const N_IDS: u32 = 60_000;
    const DEGREE: usize = 32;
    const ROWS: usize = 1024;
    let mut group = c.benchmark_group("visited_filter");
    for admit_pct in [25u32, 75] {
        let mut rng = StdRng::seed_from_u64(5 + u64::from(admit_pct));
        // Every id once, in random order: the supply of never-seen ids.
        let mut unseen: Vec<u32> = (0..N_IDS).collect();
        for i in (1..unseen.len()).rev() {
            unseen.swap(i, rng.gen_range(0..=i));
        }
        let mut slots: Vec<u32> = Vec::with_capacity(ROWS * DEGREE);
        for _ in 0..ROWS * DEGREE {
            let id = if slots.is_empty() || rng.gen_range(0..100u32) < admit_pct {
                unseen.pop().expect("more ids than slots")
            } else {
                slots[rng.gen_range(0..slots.len())]
            };
            slots.push(id);
        }
        let mut bm = VisitedBitmap::new(N_IDS as usize);
        let mut admitted = Vec::with_capacity(DEGREE);
        group.bench_function(BenchmarkId::new("degree32_rows", admit_pct), |bch| {
            bch.iter(|| {
                bm.clear();
                let mut total = 0usize;
                for row in slots.chunks_exact(DEGREE) {
                    admitted.clear();
                    bm.filter_into(black_box(row), &mut admitted);
                    total += black_box(&admitted).len();
                }
                black_box(total)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_distances,
    bench_candidate_list,
    bench_topk_merge,
    bench_bitmap,
    bench_visited_filter
);
criterion_main!(benches);
