//! Fig 18 backing bench: the dynamic simulator under host-thread and
//! state-mode sweeps, plus the *native* threaded runtime under real
//! concurrent load.

use algas_core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
use algas_core::runtime::{AlgasServer, RuntimeConfig};
use algas_gpu_sim::sched::dynamic::{run_dynamic, DynamicConfig, StateMode};
use algas_gpu_sim::QueryWork;
use algas_graph::cagra::CagraParams;
use algas_vector::datasets::DatasetSpec;
use algas_vector::Metric;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_host_threads(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(18);
    let works: Vec<QueryWork> = (0..512)
        .map(|_| {
            let ns = rng.gen_range(40_000u64..120_000);
            QueryWork::synthetic(&[ns; 8], 128, 16)
        })
        .collect();
    let arrivals = vec![0u64; works.len()];
    let mut group = c.benchmark_group("host_parallel_sim");
    for threads in [1usize, 2, 4, 8] {
        for (name, mode) in [("local", StateMode::LocalCopy), ("remote", StateMode::RemotePolling)]
        {
            let cfg = DynamicConfig {
                n_slots: 32,
                host_threads: threads,
                state_mode: mode,
                capacity: 4096,
                ..Default::default()
            };
            group.bench_with_input(BenchmarkId::new(name, threads), &threads, |b, _| {
                b.iter(|| black_box(run_dynamic(&works, &arrivals, &cfg).throughput_qps))
            });
        }
    }
    group.finish();
}

fn bench_native_runtime(c: &mut Criterion) {
    let ds = DatasetSpec::tiny(1_500, 24, Metric::L2, 181).generate();
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let mut group = c.benchmark_group("native_runtime");
    group.sample_size(10);
    for hosts in [1usize, 2] {
        group.bench_with_input(BenchmarkId::new("host_threads", hosts), &hosts, |b, &hosts| {
            b.iter(|| {
                let engine = AlgasEngine::new(
                    index.clone(),
                    EngineConfig { k: 8, l: 32, slots: 8, ..Default::default() },
                )
                .unwrap();
                let server = AlgasServer::start(
                    engine,
                    RuntimeConfig {
                        n_workers: 2,
                        n_host_threads: hosts,
                        queue_capacity: 256,
                        ..Default::default()
                    },
                );
                let rxs: Vec<_> = (0..64)
                    .map(|i| {
                        server
                            .submit(ds.queries.get(i % ds.queries.len()).to_vec())
                            .expect("accepting")
                            .1
                    })
                    .collect();
                for rx in rxs {
                    black_box(rx.recv().expect("reply").ids.len());
                }
                server.shutdown();
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_host_threads, bench_native_runtime);
criterion_main!(benches);
