//! Golden-file tests for the two stats pages: a fixed [`RuntimeStats`]
//! fixture must render byte-for-byte the pages checked in at
//! `tests/golden/stats.prom` and `tests/golden/stats.json`, the
//! Prometheus page must satisfy the exposition checker (HELP/TYPE
//! pairing, name charset, no duplicate series), and the JSON page must
//! carry every path the serving benchmark's traced run resolves.
//!
//! The golden pins catch accidental renames — a metric name or JSON key
//! is public API the moment a dashboard or `algas-perf` queries it.
//! After an *intentional* change, regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test prom_golden
//! ```

use algas::core::control::ControlStats;
use algas::core::engine::RerankStats;
use algas::core::merge::MergeStats;
use algas::core::net::{ConnStats, NetStats};
use algas::core::obs::json::Value;
use algas::core::obs::prom::check_exposition;
use algas::core::obs::{
    FlightTotals, Histogram, HostStats, ProfStateCount, ProfStats, ProfThreadStats, QlogTotals,
    RuntimeStats, SlotStats, TailExemplar, WindowBlock, WindowStats, WorkerStats,
};
use algas::core::tracer::StepTotals;
use std::path::Path;

/// A fully-populated snapshot with every family non-trivial. Values
/// are arbitrary but fixed; the histogram is filled through the real
/// recording path so the golden file also pins bucket boundaries.
fn fixture() -> RuntimeStats {
    let mut s = RuntimeStats::empty(2, 2, 1);
    s.submitted = 40;
    s.completed = 38;
    s.rejected_queue_full = 3;
    s.queue_depth = 2;
    s.slots_occupied = 1;
    s.base_bytes = 48_000;
    s.quant_bytes = 12_400;
    s.per_worker[0] = WorkerStats { queries: 20 };
    s.per_worker[1] = WorkerStats { queries: 18 };
    s.per_host[0] = HostStats { delivered: 38, refills: 40 };
    s.per_slot[0] = SlotStats { assigned: 21, finished: 20, delivered: 20 };
    s.per_slot[1] = SlotStats { assigned: 19, finished: 18, delivered: 18 };
    let h = Histogram::new();
    for v in [1_000u64, 2_000, 5_000, 100_000, 12] {
        h.record(v);
    }
    s.phases.end_to_end = h.snapshot();
    s.phases.work_to_finish = h.snapshot();
    s.search = StepTotals {
        steps: 500,
        expansions: 700,
        dist_evals: 9_000,
        sorts: 500,
        calc_cycles: 80_000,
        sort_cycles: 20_000,
        other_cycles: 10_000,
    };
    s.rerank = RerankStats { reranks: 38, candidates: 760, promotions: 12 };
    s.merge = MergeStats { merges: 38, elements: 300, dupes_dropped: 4 };
    s.flight = FlightTotals { completions: 38, events: 410, retained: 5 };
    s.entry_dist_milli_total = 41_230;
    s.control = ControlStats {
        enabled: true,
        slo_ns: 2_000_000,
        level: 2,
        max_level: 5,
        beam_width: 16,
        offset_beam: 2,
        rerank_depth: 24,
        n_ctas: 4,
        ticks: 9,
        sheds: 3,
        restores: 1,
        holds: 5,
        last_p99_ns: 1_900_000,
        last_reason: "hold".to_string(),
    };
    s.net = NetStats {
        connections_accepted: 6,
        connections_closed: 4,
        frames_in: 120,
        frames_out: 118,
        bytes_in: 10_560,
        bytes_out: 13_216,
        protocol_errors: 2,
        backpressure_rejects: 7,
    };
    s.net_conns = vec![
        ConnStats {
            id: 5,
            inflight: 3,
            bytes_in: 8_000,
            bytes_out: 9_900,
            backlog_high_water: 4_096,
            errors: 1,
            retry_afters: 5,
        },
        ConnStats {
            id: 6,
            inflight: 1,
            bytes_in: 2_560,
            bytes_out: 3_316,
            backlog_high_water: 512,
            errors: 1,
            retry_afters: 2,
        },
    ];
    let backoff = Histogram::new();
    for v in [200u64, 400, 800, 1_600, 12_800, 51_200, 102_400] {
        backoff.record(v);
    }
    s.retry_backoff = backoff.snapshot();
    s.qlog = QlogTotals { logged: 36, dropped: 2, drained: 30 };
    s.exemplar = TailExemplar { e2e_ns: 100_000, request_id: 0xC0FF_EE07 };
    s.window = WindowBlock {
        period_ms: 1_000,
        slots: 16,
        slo_ns: 2_000_000,
        health: "ok".to_string(),
        windows: vec![
            WindowStats {
                target_s: 1,
                span_ms: 1_000,
                completed: 4,
                submitted: 5,
                p50_ns: 95_000,
                p99_ns: 510_000,
                max_ns: 520_000,
                attainment_ppm: 1_000_000,
            },
            WindowStats {
                target_s: 10,
                span_ms: 10_000,
                completed: 38,
                submitted: 40,
                p50_ns: 110_000,
                p99_ns: 1_700_000,
                max_ns: 2_000_000,
                attainment_ppm: 973_684,
            },
            WindowStats {
                target_s: 60,
                span_ms: 30_000,
                completed: 38,
                submitted: 40,
                p50_ns: 110_000,
                p99_ns: 1_700_000,
                max_ns: 2_000_000,
                attainment_ppm: 973_684,
            },
        ],
    };
    s.prof = ProfStats {
        hz: 97,
        passes: 1_940,
        threads: vec![
            ProfThreadStats {
                kind: "worker".to_string(),
                label: "worker-0".to_string(),
                states: vec![
                    ProfStateCount { state: "scan".to_string(), samples: 1_200 },
                    ProfStateCount { state: "idle".to_string(), samples: 740 },
                ],
            },
            ProfThreadStats {
                kind: "net".to_string(),
                label: "net-loop".to_string(),
                states: vec![ProfStateCount { state: "read".to_string(), samples: 1_940 }],
            },
        ],
    };
    s
}

#[test]
fn exposition_matches_golden_and_passes_checker() {
    let page = fixture().to_prometheus();

    let samples = check_exposition(&page).expect("exposition is well-formed");
    assert!(samples > 30, "suspiciously few samples ({samples}) — families missing?");

    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/stats.prom");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &page).expect("write golden");
        eprintln!("regenerated {}", golden_path.display());
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("tests/golden/stats.prom exists (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        page, golden,
        "Prometheus exposition drifted from tests/golden/stats.prom. Metric names and \
         labels are public API — if the change is intentional, rerun with UPDATE_GOLDEN=1 \
         and include the golden diff in review."
    );
}

/// `to_json` writes every field of the snapshot: the page is what
/// `algas-perf`, `algas stats`, `--stats-json` files and the wire STATS
/// reply carry, and nothing in the repo parses it back into a struct.
#[test]
fn json_page_matches_golden() {
    let page = fixture().to_json();
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/stats.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &page).expect("write golden");
        eprintln!("regenerated {}", golden_path.display());
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("tests/golden/stats.json exists (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        page, golden,
        "/stats.json drifted from tests/golden/stats.json. Keys are public API — if the \
         change is intentional, rerun with UPDATE_GOLDEN=1 and include the golden diff in review."
    );
}

/// Follows a dotted path through nested objects.
fn path<'a>(doc: &'a Value, dotted: &str) -> Option<&'a Value> {
    dotted.split('.').try_fold(doc, |v, key| v.get(key))
}

/// Every `/stats.json` path `algas-perf --trace 1` resolves
/// (`crates/algas-bench/src/bin/perf/src/run.rs`) exists with the type
/// it expects; a missing one fails the traced run, not a tier-1 test.
#[test]
fn json_page_carries_every_path_the_benchmark_reads() {
    let doc = Value::parse(&fixture().to_json()).expect("to_json emits valid JSON");
    let numeric = [
        "queries.rejected_queue_full",
        "search.steps",
        "search.dist_evals",
        "search.sorts",
        "search.calc_cycles",
        "search.sort_cycles",
        "search.other_cycles",
        "search.entry_dist_milli_total",
        "rerank.reranks",
        "rerank.candidates",
        "rerank.promotions",
        "merge.merges",
        "merge.elements",
        "control.level",
        "control.n_ctas",
        "control.sheds",
        "control.restores",
        "control.last_p99_ns",
        "net.backpressure_rejects",
        "net.protocol_errors",
        "retry_backoff_us.p50",
        "qlog.dropped",
    ];
    for dotted in numeric {
        let v = path(&doc, dotted).unwrap_or_else(|| panic!("`{dotted}` is missing"));
        assert!(v.as_f64().is_some(), "`{dotted}` is not a number: {v:?}");
    }
    assert_eq!(path(&doc, "control.enabled"), Some(&Value::Bool(true)));
    for (list, field) in [("workers", "queries"), ("net_conns", "backlog_high_water")] {
        let items = doc.get(list).and_then(Value::as_arr).unwrap_or_else(|| panic!("`{list}`"));
        assert!(!items.is_empty(), "`{list}` is empty in the fixture");
        for item in items {
            let v = item.get(field).unwrap_or_else(|| panic!("`{list}[].{field}` is missing"));
            assert!(v.as_f64().is_some(), "`{list}[].{field}` is not a number: {v:?}");
        }
    }
}
