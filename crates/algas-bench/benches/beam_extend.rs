//! Figs 16–17 backing bench: greedy vs beam-extend search wall-clock
//! on the same index (the functional search *is* the work here — fewer
//! sorts also means fewer host-side maintenance operations).

use algas_baselines::each_search;
use algas_core::engine::{AlgasEngine, AlgasIndex, BeamMode, EngineConfig};
use algas_graph::cagra::CagraParams;
use algas_vector::datasets::DatasetSpec;
use algas_vector::Metric;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_beam_vs_greedy(c: &mut Criterion) {
    let ds = DatasetSpec::tiny(2_000, 32, Metric::L2, 2002).generate();
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let mut group = c.benchmark_group("beam_extend");
    group.sample_size(10);
    for l in [64usize, 128] {
        for (name, mode) in [("greedy", BeamMode::Greedy), ("beam", BeamMode::Auto)] {
            let engine = AlgasEngine::new(
                index.clone(),
                EngineConfig { k: 16, l, slots: 8, beam: mode, ..Default::default() },
            )
            .unwrap();
            group.bench_with_input(BenchmarkId::new(name, l), &l, |b, _| {
                b.iter(|| {
                    // Simulated GPU cycles are the paper's metric;
                    // return them so the work isn't optimized away.
                    let mut cycles = 0u64;
                    each_search(&engine, black_box(&ds.queries), |s| {
                        cycles += s.multi.step_totals().total_cycles();
                    });
                    black_box(cycles)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_beam_vs_greedy);
criterion_main!(benches);
