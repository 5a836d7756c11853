//! `figures bench_trace`: telemetry-recorder overhead benchmark,
//! written to `--out` (no copy is checked in).
//!
//! Measures what the always-on serving telemetry (the `obs` recorder:
//! lifecycle stamps, counters, phase histograms, the flight recorder's
//! tail sampler) costs on the serving path. It is the one `figures
//! bench_*` writer `algas-perf` did not replace: the ≤ 2 % p99 budget
//! CI gates compares an obs-off *build* against an obs-on one, while
//! `obs.trace_overhead_p50_pct` compares traced and untraced children
//! of one build. Every document records the commit, core count and
//! SIMD kernel it was measured on. Two layers:
//!
//! 1. **Serve overhead** — drives the threaded runtime closed-loop and
//!    measures latency *client-side* (submit → reply, wall clock), so
//!    the number exists in both feature configurations. Run this
//!    binary twice:
//!
//!    ```text
//!    cargo run --release -p algas-bench --no-default-features \
//!        --bin figures -- bench_trace --out /tmp/trace_off.json
//!    cargo run --release -p algas-bench \
//!        --bin figures -- bench_trace --baseline /tmp/trace_off.json \
//!        --out /tmp/trace_on.json
//!    ```
//!
//!    The first build compiles every recording call to a ZST no-op;
//!    the second carries the full recorder (a stamp on every lifecycle
//!    edge, the worker's search and delivery accounting, the tail
//!    sampler on completion) and reports the p50/p99 delta against the
//!    baseline file.
//!
//!    On a shared machine, ambient drift between *processes* (thermal
//!    state, page cache, scheduler history) is often larger than the
//!    overhead itself and moves monotonically over minutes. The fix is
//!    a **sandwich**: run off → on → off and pass both off files as a
//!    comma-separated `--baseline` list — the average of a baseline
//!    taken immediately before and immediately after the instrumented
//!    run cancels linear drift. `--from PREV.json` re-renders a prior
//!    run's measurements against a new baseline set without
//!    re-measuring, so the closing baseline can be folded in after the
//!    fact.
//!
//! 2. **Recorder cost** — a microbenchmark of one query's recorder
//!    calls (`slot_assigned`, `record_search`, `record_delivery`,
//!    `rotate_window_if_due`, with retention off), reported as
//!    `recorder_ns_per_query`, so
//!    regressions in the recorder itself are visible even when the
//!    serve-path delta drowns in scheduling noise.
//!
//! Closed-loop p99 under thread scheduling is noisy, so the workload
//! bounds in-flight queries (no long queue drains whose jitter
//! accumulates), quantiles are exact (nearest-rank over the sorted
//! per-query latencies, not histogram buckets), each round records
//! ~10k queries (p99 = 100th-worst sample, not 10th), and the
//! reported round is the *median* of `REPS` independent rounds —
//! robust against a single descheduled round in either direction.

use algas_core::engine::{AlgasEngine, AlgasIndex, EngineConfig, RerankStats};
use algas_core::merge::MergeStats;
use algas_core::obs::json::{obj, Value};
use algas_core::obs::{DeliveryCtx, FlightConfig, JobStamps, QlogConfig, RuntimeObs};
use algas_core::runtime::{AlgasServer, RuntimeConfig};
use algas_core::tracer::StepTotals;
use algas_graph::cagra::CagraParams;
use algas_vector::datasets::DatasetSpec;
use algas_vector::Metric;
use std::time::Instant;

const DIM: usize = 64;
const K: usize = 10;
const L: usize = 64;
/// Passes over the query set per round (the first pass of round 0
/// warms the per-worker scratches).
const WAVES: usize = 40;
/// Independent measurement rounds; the trimmed mean (extremes
/// dropped) is reported.
const REPS: usize = 9;

/// Client-side latency quantiles of one measurement round.
struct Round {
    p50: u64,
    p99: u64,
    mean: f64,
    qps: f64,
}

/// Closed loop with bounded in-flight: at most `INFLIGHT` queries are
/// outstanding at once, and each completion immediately releases the
/// next submission. Eight in-flight over two workers keeps a small
/// steady queue whose averaging actually *stabilizes* the tail — with
/// in-flight == workers the p99 degenerates to raw scheduler hiccups
/// and the run-to-run spread triples. Unlike a full-wave flood (where p99 is the tail of a
/// long queue drain and accumulates scheduling jitter over the whole
/// wave), per-query latency here is dominated by service time — stable
/// enough run-to-run to resolve a sub-percent recorder overhead.
const INFLIGHT: usize = 8;

fn measure_round(server: &AlgasServer, queries: &algas_vector::VectorStore) -> Round {
    let total = queries.len() * WAVES;
    let mut lat: Vec<u64> = Vec::with_capacity(total);
    let t0 = Instant::now();
    let mut pending: std::collections::VecDeque<(Instant, algas_core::runtime::PendingReply)> =
        std::collections::VecDeque::with_capacity(INFLIGHT);
    for i in 0..total {
        if pending.len() == INFLIGHT {
            let (sent, (_, rx)) = pending.pop_front().unwrap();
            rx.recv().expect("reply");
            lat.push(sent.elapsed().as_nanos() as u64);
        }
        let q = queries.get(i % queries.len()).to_vec();
        pending.push_back((Instant::now(), server.submit(q).expect("submit")));
    }
    for (sent, (_, rx)) in pending {
        rx.recv().expect("reply");
        lat.push(sent.elapsed().as_nanos() as u64);
    }
    let wall = t0.elapsed();
    lat.sort_unstable();
    // Exact nearest-rank quantiles: the log-linear histogram's 1/32
    // bucket quantization (~3%) would by itself swamp the sub-percent
    // overhead this benchmark exists to resolve.
    let q = |f: f64| lat[(((lat.len() as f64) * f) as usize).min(lat.len() - 1)];
    Round {
        p50: q(0.50),
        p99: q(0.99),
        mean: lat.iter().sum::<u64>() as f64 / lat.len() as f64,
        qps: total as f64 / wall.as_secs_f64(),
    }
}

/// Trimmed mean across rounds: sort by p99, drop the fastest and
/// slowest round, average the rest field-wise. Averaging the middle
/// rounds cuts the run-to-run spread of the estimate by ~1/sqrt(n)
/// versus reporting any single round; dropping the extremes discards
/// the occasional descheduled round entirely.
fn trimmed_mean_round(mut rounds: Vec<Round>) -> Round {
    rounds.sort_by_key(|r| r.p99);
    let mid = &rounds[1..rounds.len() - 1];
    let n = mid.len() as f64;
    Round {
        p50: (mid.iter().map(|r| r.p50).sum::<u64>() as f64 / n) as u64,
        p99: (mid.iter().map(|r| r.p99).sum::<u64>() as f64 / n) as u64,
        mean: mid.iter().map(|r| r.mean).sum::<f64>() / n,
        qps: mid.iter().map(|r| r.qps).sum::<f64>() / n,
    }
}

/// ns per query of the recorder calls the runtime makes for one served
/// query — the host's `slot_assigned`, the worker's `record_search`,
/// `record_delivery` (two walkers, one beam switch) and its window
/// rotation check — with retention off, best of 5 reps. The lifecycle
/// stamps are taken once, outside the timed loop, so the check never
/// finds a rotation due. With the `obs` feature off this times the ZST no-ops
/// (~0 ns).
fn recorder_ns_per_query() -> f64 {
    let flight = FlightConfig { slow_threshold_ns: u64::MAX, top_k: 0 };
    let obs = RuntimeObs::new(1, 1, flight, QlogConfig::default());
    let mut stamps = JobStamps::new();
    stamps.mark_slot(0);
    stamps.mark_work_start();
    stamps.mark_finish();
    stamps.mark_merge_begin();
    stamps.mark_merged();
    stamps.mark_delivered();
    let totals = StepTotals { steps: 14, dist_evals: 600, ..StepTotals::default() };
    let merge = MergeStats { merges: 1, elements: 64, dupes_dropped: 0 };
    let rerank = RerankStats::default();
    const ITERS: u64 = 1_000_000;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for i in 0..ITERS {
            obs.slot_assigned(0);
            obs.record_search(0, &totals, Some(0.5), &merge, &rerank);
            let walkers = [(totals, None), (totals, Some(3))];
            obs.record_delivery(0, 0, &DeliveryCtx::local(i), &stamps, walkers, &rerank, None);
            obs.rotate_window_if_due(&stamps);
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / ITERS as f64);
    }
    best
}

/// `git rev-parse --short HEAD` of the working directory, or
/// `"unknown"` outside a checkout or without `git`.
fn commit_id() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn round_fields(r: &Round) -> Value {
    obj(vec![
        ("p50_ns", Value::Uint(r.p50)),
        ("p99_ns", Value::Uint(r.p99)),
        ("mean_ns", Value::Num(r.mean)),
        ("qps", Value::Num(r.qps)),
    ])
}

/// Pulls `client_e2e_ns.{p50_ns,p99_ns}` out of a baseline document
/// written by a previous `bench_trace` run.
fn baseline_quantiles(doc: &Value) -> Option<(u64, u64)> {
    let e2e = doc.get("client_e2e_ns")?;
    match (e2e.get("p50_ns")?, e2e.get("p99_ns")?) {
        (Value::Uint(p50), Value::Uint(p99)) => Some((*p50, *p99)),
        _ => None,
    }
}

/// Averaged baseline quantiles across one or more obs-off runs
/// (comma-separated paths). Pass the off runs taken immediately
/// *before and after* the instrumented run — the sandwich mean cancels
/// linear ambient drift, which on a shared machine is routinely larger
/// than the overhead being resolved.
fn load_baseline(paths: &str) -> (u64, u64, usize) {
    let (mut s50, mut s99, mut n) = (0u64, 0u64, 0usize);
    for path in paths.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let doc = Value::parse(&text).expect("baseline parses as JSON");
        let (p50, p99) = baseline_quantiles(&doc)
            .unwrap_or_else(|| panic!("baseline {path} lacks client_e2e_ns quantiles"));
        s50 += p50;
        s99 += p99;
        n += 1;
    }
    assert!(n > 0, "--baseline got an empty path list");
    ((s50 as f64 / n as f64).round() as u64, (s99 as f64 / n as f64).round() as u64, n)
}

/// Runs the measurement rounds at `scale` and returns the document
/// fields (everything except the baseline comparison).
fn measure(scale: f64) -> Vec<(String, Value)> {
    let obs_on = cfg!(feature = "obs");
    let n_base = ((20_000.0 * scale) as usize).max(2_000);
    let spec = DatasetSpec {
        name: "trace-bench".into(),
        n_base,
        n_queries: 256,
        dim: DIM,
        metric: Metric::L2,
        clusters: 32,
        spread: 0.55,
        seed: 0x5E7E,
    };
    eprintln!("generating {n_base} x {DIM} corpus (obs {}) ...", if obs_on { "on" } else { "off" });
    let ds = spec.generate();
    let t0 = Instant::now();
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    eprintln!("built CAGRA index in {:.1?}", t0.elapsed());

    let cfg = EngineConfig { k: K, l: L, slots: 16, ..Default::default() };
    let engine = AlgasEngine::new(index, cfg).expect("tuning");
    // Default flight config: top-8 reservoir, no threshold — the exact
    // configuration `serve` runs with out of the box, so the overhead
    // measured here is the overhead shipped.
    let runtime_cfg = RuntimeConfig {
        n_workers: 2,
        n_host_threads: 2,
        queue_capacity: 4096,
        ..Default::default()
    };
    let server = AlgasServer::start(engine, runtime_cfg);

    let mut rounds = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let r = measure_round(&server, &ds.queries);
        eprintln!(
            "round {rep}: p50 {:.1} µs  p99 {:.1} µs  ({:.0} q/s)",
            r.p50 as f64 / 1000.0,
            r.p99 as f64 / 1000.0,
            r.qps
        );
        rounds.push(r);
    }
    let best = trimmed_mean_round(rounds);
    let stats = server.runtime_stats();
    server.shutdown();

    let per_query = recorder_ns_per_query();
    eprintln!(
        "trimmed-mean p99 {:.1} µs; recorder {per_query:.1} ns/query \
         ({} completed, {} retained traces)",
        best.p99 as f64 / 1000.0,
        stats.completed,
        stats.flight.retained,
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fields = obj(vec![
        ("commit", Value::Str(commit_id())),
        ("cores", Value::Uint(cores as u64)),
        ("simd", Value::Str(algas_vector::simd::kernel_name().into())),
        (
            "config",
            obj(vec![
                ("obs", Value::Bool(obs_on)),
                ("n_base", Value::Uint(n_base as u64)),
                ("dim", Value::Uint(DIM as u64)),
                ("queries_per_round", Value::Uint((ds.queries.len() * WAVES) as u64)),
                ("rounds", Value::Uint(REPS as u64)),
            ]),
        ),
        ("client_e2e_ns", round_fields(&best)),
        ("recorder_ns_per_query", Value::Num(per_query)),
        ("flight_totals", obj(vec![("retained", Value::Uint(stats.flight.retained))])),
    ]);
    match fields {
        Value::Obj(v) => v,
        _ => unreachable!(),
    }
}

/// Runs the recorder-overhead benchmark at `scale` and writes
/// `out_path`. When `baseline_paths` names the output(s) of obs-off
/// runs (comma-separated; averaged), the document gains `baseline` and
/// `overhead` sections. When `from_path` is set, measurement is
/// skipped entirely: the prior run's document is reloaded, any stale
/// comparison sections are dropped, and the comparison is recomputed
/// against the given baselines — re-rendering, not re-measuring.
pub fn run(scale: f64, out_path: &str, baseline_paths: Option<&str>, from_path: Option<&str>) {
    let doc_fields: Vec<(String, Value)> = if let Some(path) = from_path {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read --from {path}: {e}"));
        eprintln!("re-rendering {path} (measurement skipped)");
        match Value::parse(&text).expect("--from parses as JSON") {
            Value::Obj(fields) => {
                fields.into_iter().filter(|(k, _)| k != "baseline" && k != "overhead").collect()
            }
            _ => panic!("--from {path} is not a JSON object"),
        }
    } else {
        measure(scale)
    };

    let mut doc = Value::Obj(doc_fields);
    if let Some(paths) = baseline_paths {
        let (o50, o99) =
            baseline_quantiles(&doc).expect("this run has client_e2e_ns quantiles to compare");
        let (b50, b99, n) = load_baseline(paths);
        let pct = |on: u64, off: u64| (on as f64 - off as f64) / off as f64 * 100.0;
        let (d50, d99) = (pct(o50, b50), pct(o99, b99));
        eprintln!(
            "vs baseline ({n} run{}): p50 {d50:+.2}%  p99 {d99:+.2}%  \
             (baseline p50 {:.1} µs  p99 {:.1} µs)",
            if n == 1 { "" } else { "s" },
            b50 as f64 / 1000.0,
            b99 as f64 / 1000.0
        );
        if let Value::Obj(fields) = &mut doc {
            fields.push((
                "baseline".into(),
                obj(vec![
                    ("p50_ns", Value::Uint(b50)),
                    ("p99_ns", Value::Uint(b99)),
                    ("runs", Value::Uint(n as u64)),
                ]),
            ));
            fields.push((
                "overhead".into(),
                obj(vec![("p50_pct", Value::Num(d50)), ("p99_pct", Value::Num(d99))]),
            ));
        }
    }

    let mut text = doc.render();
    text.push('\n');
    std::fs::write(out_path, text).expect("write bench output");
    eprintln!("wrote {out_path}");
}
