//! End-to-end check of the serving-path telemetry: a multi-threaded
//! [`AlgasServer`] run must surface non-zero phase latencies, live
//! slot-occupancy gauges, and snapshots that survive the JSON
//! round-trip and parse as Prometheus text exposition.
//!
//! Counter/gauge shape assertions run in both feature configurations;
//! the histogram-content assertions are gated on `obs` (with the
//! feature off the phase recorders compile to no-ops by design).

use algas::core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
use algas::core::obs::json::Value;
use algas::core::obs::prom::parse_prometheus;
use algas::core::runtime::{AlgasServer, RuntimeConfig};
use algas::graph::cagra::CagraParams;
use algas::vector::datasets::DatasetSpec;
use algas::vector::Metric;

const N_QUERIES: usize = 64;

fn start_server() -> (AlgasServer, algas::vector::VectorStore) {
    let ds = DatasetSpec::tiny(800, 16, Metric::L2, 4242).generate();
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let cfg = EngineConfig { k: 10, l: 64, slots: 4, ..Default::default() };
    let engine = AlgasEngine::new(index, cfg).expect("tuning");
    let runtime_cfg = RuntimeConfig {
        n_workers: 2,
        n_host_threads: 2,
        queue_capacity: 256,
        ..Default::default()
    };
    (AlgasServer::start(engine, runtime_cfg), ds.queries)
}

#[test]
fn multithreaded_run_reports_phase_latencies_and_gauges() {
    let (server, queries) = start_server();

    // Flood the server, then poll for the in-flight gauges while the
    // backlog drains: with 64 outstanding queries and 4 slots, some
    // poll must observe occupied slots.
    let pending: Vec<_> = (0..N_QUERIES)
        .map(|qi| server.submit(queries.get(qi % queries.len()).to_vec()).expect("submit"))
        .collect();
    let mut saw_occupancy = false;
    let mut saw_queue_depth = false;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        let live = server.runtime_stats();
        saw_occupancy |= live.slots_occupied > 0;
        saw_queue_depth |= live.queue_depth > 0;
        if live.completed >= N_QUERIES as u64 {
            break;
        }
        std::thread::yield_now();
    }
    for (_, rx) in pending {
        rx.recv().expect("reply");
    }
    assert!(saw_occupancy, "no poll observed an occupied slot during a 64-query backlog");
    assert!(saw_queue_depth, "no poll observed queue depth during a 64-query backlog");

    let stats = server.runtime_stats();
    assert_eq!(stats.submitted, N_QUERIES as u64);
    assert_eq!(stats.completed, N_QUERIES as u64);
    assert_eq!(stats.rejected_queue_full, 0);
    assert_eq!(stats.per_worker.len(), 2);
    assert_eq!(stats.per_host.len(), 2);

    #[cfg(feature = "obs")]
    {
        // Every query passed through every phase, and real work takes
        // non-zero wall clock.
        for (name, h) in stats.phases.named() {
            assert_eq!(h.count, N_QUERIES as u64, "phase {name} missed queries");
        }
        assert!(stats.phases.end_to_end.quantile(0.5) > 0, "zero median end-to-end latency");
        assert!(stats.phases.work_to_finish.sum > 0, "search phase took zero time");
        assert!(stats.phases.end_to_end.sum >= stats.phases.work_to_finish.sum);
        assert_eq!(stats.per_worker.iter().map(|w| w.queries).sum::<u64>(), N_QUERIES as u64);
        assert!(stats.search.dist_evals > 0, "search totals not aggregated");
        assert_eq!(stats.merge.merges, N_QUERIES as u64);
    }

    // The JSON page must parse and carry the counters …
    let doc = Value::parse(&stats.to_json()).expect("own JSON parses");
    let completed = doc.get("queries").and_then(|q| q.get("completed")).and_then(Value::as_u64);
    assert_eq!(completed, Some(N_QUERIES as u64));

    // … and so must the Prometheus page.
    let page = stats.to_prometheus();
    let samples = parse_prometheus(&page).expect("exposition parses");
    let completed = samples
        .iter()
        .find(|s| s.name == "algas_queries_completed_total")
        .expect("completed counter exposed");
    assert_eq!(completed.value, N_QUERIES as f64);
    let occupied = samples.iter().find(|s| s.name == "algas_slots_occupied");
    assert!(occupied.is_some(), "slots_occupied gauge exposed");

    server.shutdown();
}
