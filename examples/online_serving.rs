//! Online serving: the paper's motivating workload — low-latency
//! retrieval for queries that *arrive over time*, served by the real
//! threaded ALGAS runtime (persistent workers + slot state machine),
//! alongside a simulated comparison of dynamic vs static batching
//! under the same open-loop arrival process.
//!
//! ```text
//! cargo run --release --example online_serving
//! ```

use algas::baselines::{AlgasMethod, CagraMethod, SearchMethod};
use algas::core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
use algas::core::runtime::{AlgasServer, RuntimeConfig};
use algas::graph::cagra::CagraParams;
use algas::vector::datasets::DatasetSpec;
use algas::vector::Metric;
use std::time::Instant;

fn main() {
    let ds = DatasetSpec::tiny(4_000, 48, Metric::Cosine, 7).generate();
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::Cosine, CagraParams::default());
    let k = 10;

    // ---- Part 1: the real threaded server. -------------------------
    let engine =
        AlgasEngine::new(index.clone(), EngineConfig { k, l: 48, slots: 8, ..Default::default() })
            .expect("feasible");
    let server = AlgasServer::start(
        engine,
        RuntimeConfig {
            n_workers: 2,
            n_host_threads: 1,
            queue_capacity: 512,
            ..Default::default()
        },
    );

    let n = 200.min(ds.queries.len() * 4);
    let t0 = Instant::now();
    let mut pending = Vec::new();
    for i in 0..n {
        let q = ds.queries.get(i % ds.queries.len()).to_vec();
        pending.push((Instant::now(), server.submit(q).expect("accepting").1));
    }
    let mut latencies: Vec<u128> = pending
        .into_iter()
        .map(|(sent, rx)| {
            let reply = rx.recv().expect("server alive");
            assert_eq!(reply.ids.len(), k);
            sent.elapsed().as_micros()
        })
        .collect();
    let wall = t0.elapsed();
    latencies.sort_unstable();
    println!("== native threaded runtime ==");
    println!("{n} queries in {wall:.2?}  ({:.0} q/s)", n as f64 / wall.as_secs_f64());
    println!("latency p50 {} µs   p99 {} µs", latencies[n / 2], latencies[(n * 99) / 100]);
    server.shutdown();

    // ---- Part 2: simulated GPU, open-loop arrivals. -----------------
    // Queries arrive Poisson-ish (deterministic jittered spacing here);
    // dynamic batching serves each on arrival, static batching must
    // accumulate full batches.
    let algas = AlgasMethod::new(index.clone(), k, 48, 16).expect("feasible");
    let cagra = CagraMethod::new(index, k, 48, 16).expect("feasible");
    let run_a = algas.run_workload(&ds.queries);
    let run_c = cagra.run_workload(&ds.queries);

    let mean_gpu_ns: u64 =
        run_a.works.iter().map(|w| w.max_cta_ns()).sum::<u64>() / run_a.works.len() as u64;
    // Offered load ≈ 60% of one-slot capacity × 16 slots.
    let inter_arrival = (mean_gpu_ns as f64 / 16.0 / 0.6) as u64;
    let arrivals: Vec<u64> = (0..run_a.works.len() as u64)
        .map(|i| i * inter_arrival + (i * 7919) % (inter_arrival / 2 + 1))
        .collect();

    let ra = algas.simulate(&run_a.works, &arrivals);
    let rc = cagra.simulate(&run_c.works, &arrivals);
    println!("\n== simulated GPU, open-loop arrivals (mean gap {} µs) ==", inter_arrival / 1000);
    let e2e = |r: &algas::gpu::SimReport| {
        let mut v: Vec<u64> = r.per_query.iter().map(|t| t.e2e_latency_ns()).collect();
        v.sort_unstable();
        (v[v.len() / 2] / 1000, v[(v.len() * 99) / 100] / 1000)
    };
    let (a50, a99) = e2e(&ra);
    let (c50, c99) = e2e(&rc);
    println!("ALGAS  dynamic batching: e2e p50 {a50} µs   p99 {a99} µs");
    println!("CAGRA  static batching:  e2e p50 {c50} µs   p99 {c99} µs");
    println!(
        "\ndynamic batching cuts median online latency by {:.0}% — the paper's \
         core argument: static batches must wait to fill before launching.",
        (1.0 - a50 as f64 / c50 as f64) * 100.0
    );
}
