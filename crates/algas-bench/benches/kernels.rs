//! Microbenchmarks of the hot kernels: distance functions, candidate
//! list maintenance, TopK merge, visited bitmap and its row filter —
//! the operations the cost model prices (Fig 3's constituents).

use algas_core::lists::{CandidateList, VisitedBitmap};
use algas_core::merge::merge_topk;
use algas_graph::{FixedDegreeGraph, PackedGraph};
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
    // The lists the serial schedule runs: the fp32 scouts (L = 10),
    // the SQ8 scouts (20) and walker 0 (64). One query's worth of step
    // ④ batches: the seed's first expansion into an empty list (96
    // newcomers), then 32 batches of 33, about 27 % of whose newcomers
    // beat the full list's tail when they arrive.
    for l in [10usize, 20, 64] {
        let batches = serial_batches(l, &mut rng);
        group.bench_with_input(BenchmarkId::new("serial_merge", l), &l, |bch, &l| {
            let mut list = CandidateList::new(l);
            bch.iter(|| {
                list.reset(l);
                for (ids, dists) in &batches {
                    list.merge_batch(black_box(ids), black_box(dists));
                }
                black_box(list.len())
            })
        });
    }
    // Step ①'s selection on a full walker-0 list whose first 24
    // entries and every third one after are expanded.
    let mut list = CandidateList::new(64);
    let ids: Vec<u32> = (0..64).collect();
    let dists: Vec<f32> = (0..64).map(|i| i as f32).collect();
    list.merge_batch(&ids, &dists);
    for offset in (0..64).filter(|&i| i < 24 || i % 3 == 0) {
        list.mark_expanded(offset);
    }
    let mut selected = Vec::with_capacity(8);
    for width in [1usize, 8] {
        group.bench_with_input(BenchmarkId::new("select", width), &width, |bch, &width| {
            bch.iter(|| {
                list.closest_unexpanded_beam_into(black_box(width), &mut selected);
                black_box(selected.len())
            })
        });
    }
    group.finish();
}

/// Step ④'s batches for one query on a list of capacity `l`: 96
/// newcomers into the empty list, then 32 batches of 33 of which each
/// newcomer beats the list's tail at its arrival with probability
/// 0.27 (drawn below the tail) and loses otherwise (drawn above it).
/// Ids are distinct and the tail is tracked with a plain sorted model.
fn serial_batches(l: usize, rng: &mut StdRng) -> Vec<(Vec<u32>, Vec<f32>)> {
    let mut model: Vec<f32> = Vec::new();
    let mut next_id = 0u32;
    let mut batch = |size: usize, rng: &mut StdRng, model: &mut Vec<f32>| {
        let (mut ids, mut dists) = (Vec::new(), Vec::new());
        for _ in 0..size {
            let tail = if model.len() < l { 100.0 } else { model[l - 1] };
            let d = if model.len() < l || rng.gen_range(0..100u32) < 27 {
                rng.gen_range(0.0..tail)
            } else {
                tail + rng.gen_range(0.0..100.0f32)
            };
            let at = model.partition_point(|&m| m < d);
            model.insert(at, d);
            model.truncate(l);
            ids.push(next_id * 7 % 4096);
            next_id += 1;
            dists.push(d);
        }
        (ids, dists)
    };
    let mut batches = vec![batch(96, rng, &mut model)];
    batches.extend((0..32).map(|_| batch(33, rng, &mut model)));
    batches
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
/// "query", 1 024 packed degree-32 adjacency rows decoded through
/// `filter_into`. A slot holds a never-seen id with the group's admit
/// probability and repeats an earlier slot's id otherwise, so probe
/// outcomes come in no learnable order — 25 % is the middle of a
/// search, 75 % its first steps. One iteration is 32 768 probes.
fn bench_visited_filter(c: &mut Criterion) {
    const N_IDS: u32 = 60_000;
    const DEGREE: usize = 32;
    const ROWS: usize = 1024;
    // The rows are the graph's last ROWS vertices; their ids are drawn
    // below them, so no row holds its own vertex.
    const FIRST_ROW: u32 = N_IDS - ROWS as u32;
    let mut group = c.benchmark_group("visited_filter");
    for admit_pct in [25u32, 75] {
        let mut rng = StdRng::seed_from_u64(5 + u64::from(admit_pct));
        // Every id once, in random order: the supply of never-seen ids.
        let mut unseen: Vec<u32> = (0..FIRST_ROW).collect();
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
        let mut graph = FixedDegreeGraph::new(N_IDS as usize, DEGREE);
        for (v, row) in (FIRST_ROW..).zip(slots.chunks_exact(DEGREE)) {
            graph.set_row(v, row);
        }
        let graph = PackedGraph::pack(&graph);
        let mut bm = VisitedBitmap::new(N_IDS as usize);
        let mut admitted = Vec::with_capacity(DEGREE);
        group.bench_function(BenchmarkId::new("degree32_rows", admit_pct), |bch| {
            bch.iter(|| {
                bm.clear();
                let mut total = 0usize;
                for v in FIRST_ROW..N_IDS {
                    admitted.clear();
                    bm.filter_into(graph.neighbors(black_box(v)), &mut admitted);
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
