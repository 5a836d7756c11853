//! Graph-construction bench: serial vs parallel builders at n ∈ {10k,
//! 50k}, dim 128. All builders are thread-count invariant, so the
//! comparison is pure wall-clock; `ALGAS_BUILD_THREADS` caps the
//! parallel side. The CAGRA case builds what `algas build` builds by
//! default: degree 32 over an intermediate k-NN graph of degree 32.

use algas_graph::cagra::CagraParams;
use algas_graph::nsw::NswParams;
use algas_graph::{parallel, CagraBuilder, NswBuilder};
use algas_vector::datasets::DatasetSpec;
use algas_vector::Metric;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_graph_build(c: &mut Criterion) {
    let threads = parallel::max_threads();
    let mut group = c.benchmark_group("graph_build");
    group.sample_size(10);
    for n in [10_000usize, 50_000] {
        let ds = DatasetSpec::tiny(n, 128, Metric::L2, 0xB11D).generate();
        for (name, t) in [("serial", 1usize), ("parallel", threads)] {
            group.bench_with_input(BenchmarkId::new(format!("nsw_{name}"), n), &t, |b, &t| {
                let builder = NswBuilder::new(Metric::L2, NswParams::default());
                b.iter(|| black_box(builder.build_parallel(&ds.base, t).len()))
            });
            group.bench_with_input(BenchmarkId::new(format!("cagra_{name}"), n), &t, |b, &t| {
                let params = CagraParams { intermediate_degree: 32, ..Default::default() };
                let builder = CagraBuilder::new(Metric::L2, params);
                b.iter(|| black_box(builder.build_with_threads(&ds.base, t).len()))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_graph_build);
criterion_main!(benches);
