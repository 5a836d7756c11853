//! The `algas` command-line tool.
//!
//! ```text
//! algas gen    --out base.fvecs [--queries q.fvecs] [--n 10000] [--nq 256] [--dim 64]
//!              [--metric l2] [--clusters 32] [--spread 0.55] [--seed 42]
//! algas gt     --base base.fvecs --queries q.fvecs [--metric l2] [--k 100] --out gt.ivecs
//! algas build  --base base.fvecs [--metric l2] [--graph cagra|nsw] [--degree 32]
//!              [--intermediate N] [--quantize true] [--entry true] [--progress true]
//!              --out index.algas
//! algas info   --index index.algas
//! algas search ENGINE [--gt gt.ivecs] [--out r.ivecs]
//! algas serve  ENGINE SESSION [--stats-json stats.json] [--listen 127.0.0.1:9100]
//!              [--net 127.0.0.1:7700] [--max-inflight 256] [--linger-ms 0]
//!              [--trace-out trace.json] [--query-log qlog.ndjson]
//! algas stats  ENGINE SESSION [--format json|prom]
//! algas trace  ENGINE SESSION --out trace.json
//! algas profile --addr 127.0.0.1:9100 [--seconds 2] [--out profile.folded]
//! algas bench-net --addr 127.0.0.1:7700 --queries q.fvecs [--qps 1000|500,1000,2000]
//!              [--requests 1000] [--connections 1] [--seed 42] [--warmup 0.2]
//!              [--slo-us 2000] [--normalize true] [--recv-timeout-ms 10000]
//! algas trace-check --file trace.json [--require-phases true]
//!
//! ENGINE:  --index index.algas --queries q.fvecs [--k 10] [--l 64] [--slots 16]
//!          [--quantize true] [--rerank 32] [--entry-policy hash-table] [--slo-us 2000]
//! SESSION: [--workers 2] [--hosts 1] [--repeat N] [--trace-threshold-us N]
//!          [--qlog-sample N] [--qlog-slow-us N] [--prof-hz 97] [--window-period-ms 1000]
//! ```
//!
//! These lists are what each command accepts ([`run`] holds them); any
//! other flag is an error naming the flag and the command.
//!
//! `--quantize true` switches graph traversal onto SQ8 codes (quarter
//! memory traffic) with an exact fp32 re-rank of the top `--rerank`
//! candidates (default 2k) before results are returned; `build
//! --quantize` persists the codes in the index file so serving skips
//! re-quantization.
//!
//! `--entry-policy` picks how each search seeds its CTAs:
//! `medoid` (single classic entry), `hashed` (CAGRA-style
//! pseudo-random, the default), `hash-table` (LSH bucket lookup,
//! starts the walk near the query), or `descent` (pivot-ladder
//! descent). The table/ladder policies use entry structures persisted
//! by `build --entry true` (format v4) or built at load time. On
//! `serve`/`stats`, `--slo-us` arms the SLO controller: it watches the
//! live submit→reply p99 and sheds/restores search effort (rerank
//! depth, then CTAs, then beam shape) to hold the target; its rung and
//! counters appear in the stats snapshot under `"control"`.
//!
//! `serve` drives the threaded runtime and reports throughput and
//! client-side latency percentiles (computed through the same
//! log-linear histogram as the server-side phase spans);
//! `--stats-json` additionally dumps the full
//! [`RuntimeStats`](algas_core::obs::RuntimeStats) telemetry snapshot,
//! `--listen` serves `/metrics`, `/stats.json`, and `/traces` over
//! HTTP while the session runs (`--linger-ms` keeps it up after the
//! queries drain), and `--trace-out` writes the retained slow-query
//! flight traces as Chrome trace-event JSON. `--net` additionally
//! binds the binary query protocol (length-prefixed frames, pipelined,
//! RETRY_AFTER backpressure beyond `--max-inflight` outstanding
//! requests); `--repeat 0` skips the local closed-loop drive entirely
//! so the process serves network clients only, for `--linger-ms`.
//! `--query-log` arms the wide-event query log and tails it to a file
//! as JSON lines (one structured record per completed query — wire
//! request id, connection, queue delay, phase spans, hops, entry
//! policy, SLO rung, rerank depth, status); `--qlog-sample N` keeps
//! every Nth completion, `--qlog-slow-us` always keeps queries at
//! least that slow, and the retained tail is also served live at
//! `/query-log` on the `--listen` endpoint (next to `/healthz` and
//! `/readyz` probes). `--prof-hz` sets the thread-state sampling
//! profiler rate (0 disables sampling, rotation continues) and
//! `--window-period-ms` the windowed-telemetry rotation period.
//! `profile` is the matching one-shot client: it scrapes
//! `GET /profile?seconds=N` from a running `--listen` endpoint and
//! prints (or writes) the folded-stack text, ready for
//! `flamegraph.pl` / speedscope.
//! `bench-net` is the matching open-loop client: seeded Poisson
//! arrivals at `--qps` replayed against `--addr` regardless of reply
//! progress (no coordinated omission), reporting completed/rejected
//! counts, client-side p50/p99, and — with `--slo-us` — SLO
//! attainment over the post-`--warmup` fraction of requests. `--qps`
//! also takes a comma-separated list of rates: each runs as its own
//! open-loop pass and a latency-vs-offered-load summary closes the
//! report. Every SEARCH carries a client-send timestamp
//! (`FLAG_CLIENT_TS`) and the slowest post-warmup request id is
//! printed so it can be cross-referenced against the server's
//! `/traces` and `/query-log`. `stats` runs the same
//! serving session and emits only the snapshot, as JSON or Prometheus
//! text exposition. `trace` runs a session purely to capture flight
//! traces (open the output at <https://ui.perfetto.dev>); `trace-check`
//! validates such a file, as CI does.
//!
//! All logic lives here (testable); `src/bin/algas.rs` is a thin shim.

use crate::loadgen;
use algas_core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
use algas_core::net::{NetConfig, NetServer};
use algas_core::obs::{
    FlightConfig, ObsTickConfig, ProfState, QlogConfig, StatsServer, StatsSource, ThreadKind,
};
use algas_core::runtime::{AlgasServer, RuntimeConfig};
use algas_graph::cagra::CagraParams;
use algas_graph::nsw::NswParams;
use algas_graph::stats::graph_stats;
use algas_graph::{EntryParams, EntryPolicy};
use algas_vector::datasets::DatasetSpec;
use algas_vector::ground_truth::{brute_force_knn, mean_recall, GroundTruth};
use algas_vector::{Metric, VectorStore};
use std::collections::HashMap;
use std::io::Write;

/// Flags [`engine_from_flags`] and the index/query loaders read.
const ENGINE: &str = "index queries k l slots quantize rerank entry-policy slo-us";

/// Flags a `serve`/`stats`/`trace` session reads on top of [`ENGINE`].
const SESSION: &str =
    "workers hosts repeat trace-threshold-us qlog-sample qlog-slow-us prof-hz window-period-ms";

type Command = fn(&HashMap<String, String>, &mut dyn Write) -> Result<(), String>;

/// Runs the CLI; `args` excludes the program name. Output goes to `out`
/// (stdout in the binary, a buffer in tests).
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    // Each command with the one list of flags it reads.
    let (accepted, body): (&[&str], Command) = match cmd.as_str() {
        "gen" => (&["out queries n nq dim metric clusters spread seed"], cmd_gen),
        "gt" => (&["base queries metric k out"], cmd_gt),
        "build" => {
            (&["base metric graph degree intermediate quantize entry progress out"], cmd_build)
        }
        "info" => (&["index"], cmd_info),
        "search" => (&[ENGINE, "gt out"], cmd_search),
        "serve" => {
            let own = "stats-json listen net max-inflight linger-ms trace-out query-log";
            (&[ENGINE, SESSION, own], cmd_serve)
        }
        "stats" => (&[ENGINE, SESSION, "format"], cmd_stats),
        "trace" => (&[ENGINE, SESSION, "out"], cmd_trace),
        "profile" => (&["addr seconds out"], cmd_profile),
        "bench-net" => {
            let own = "addr queries qps requests connections seed warmup slo-us normalize \
                       recv-timeout-ms";
            (&[own], cmd_bench_net)
        }
        "trace-check" => (&["file require-phases"], cmd_trace_check),
        "help" | "--help" | "-h" => return writeln!(out, "{}", usage()).map_err(io_err),
        other => return Err(format!("unknown command `{other}`\n{}", usage())),
    };
    body(&parse_flags(cmd, accepted, rest)?, out)
}

fn usage() -> String {
    "usage: algas <gen|gt|build|info|search|serve|profile|bench-net|stats|trace|trace-check> [--flag value]...\n\
     see crate docs (src/cli.rs) for the flags of each command"
        .to_string()
}

/// Parses `--name value` pairs, refusing any name not in `accepted`: a
/// mistyped or retired flag must not silently do nothing.
fn parse_flags(
    cmd: &str,
    accepted: &[&str],
    rest: &[String],
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected --flag, got `{flag}`"));
        };
        if !accepted.iter().flat_map(|list| list.split_whitespace()).any(|f| f == name) {
            return Err(format!("unknown flag --{name} for {cmd}"));
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn req<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags.get(name).map(|s| s.as_str()).ok_or_else(|| format!("missing required --{name}"))
}

fn opt<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
) -> Result<Option<T>, String> {
    flags
        .get(name)
        .map(|v| v.parse().map_err(|_| format!("--{name}: cannot parse `{v}`")))
        .transpose()
}

fn opt_parse<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    Ok(opt(flags, name)?.unwrap_or(default))
}

fn parse_bool(flags: &HashMap<String, String>, name: &str) -> Result<bool, String> {
    match flags.get(name).map(|s| s.as_str()) {
        None => Ok(false),
        Some("1") | Some("true") | Some("yes") => Ok(true),
        Some("0") | Some("false") | Some("no") => Ok(false),
        Some(other) => Err(format!("--{name} must be true|false, got `{other}`")),
    }
}

fn parse_entry_policy(flags: &HashMap<String, String>) -> Result<EntryPolicy, String> {
    match flags.get("entry-policy").map(|s| s.as_str()) {
        None => Ok(EngineConfig::default().entry_policy),
        Some("medoid") => Ok(EntryPolicy::Medoid),
        Some("hashed") => Ok(EntryPolicy::Hashed { seed: 0 }),
        Some("hash-table") | Some("hash_table") | Some("lsh") => Ok(EntryPolicy::HashTable),
        Some("descent") => Ok(EntryPolicy::Descent),
        Some(other) => {
            Err(format!("--entry-policy must be medoid|hashed|hash-table|descent, got `{other}`"))
        }
    }
}

fn parse_metric(flags: &HashMap<String, String>) -> Result<Metric, String> {
    match flags.get("metric").map(|s| s.as_str()).unwrap_or("l2") {
        "l2" | "euclidean" => Ok(Metric::L2),
        "cosine" | "ip" => Ok(Metric::Cosine),
        other => Err(format!("--metric must be l2|cosine, got `{other}`")),
    }
}

fn io_err(e: std::io::Error) -> String {
    format!("io error: {e}")
}

fn load_fvecs(path: &str) -> Result<VectorStore, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    algas_vector::io::read_fvecs(std::io::BufReader::new(f)).map_err(|e| format!("{path}: {e}"))
}

fn save_fvecs(path: &str, store: &VectorStore) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    algas_vector::io::write_fvecs(std::io::BufWriter::new(f), store)
        .map_err(|e| format!("{path}: {e}"))
}

fn cmd_gen(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let spec = DatasetSpec {
        name: "cli".into(),
        n_base: opt_parse(flags, "n", 10_000usize)?,
        n_queries: opt_parse(flags, "nq", 256usize)?,
        dim: opt_parse(flags, "dim", 64usize)?,
        metric: parse_metric(flags)?,
        clusters: opt_parse(flags, "clusters", 32usize)?,
        spread: opt_parse(flags, "spread", 0.55f32)?,
        seed: opt_parse(flags, "seed", 42u64)?,
    };
    let ds = spec.generate();
    save_fvecs(req(flags, "out")?, &ds.base)?;
    if let Some(qpath) = flags.get("queries") {
        save_fvecs(qpath, &ds.queries)?;
    }
    writeln!(
        out,
        "generated {} base vectors (dim {}) and {} queries",
        ds.base.len(),
        ds.base.dim(),
        ds.queries.len()
    )
    .map_err(io_err)
}

fn cmd_gt(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let base = load_fvecs(req(flags, "base")?)?;
    let queries = load_fvecs(req(flags, "queries")?)?;
    let metric = parse_metric(flags)?;
    let k = opt_parse(flags, "k", 100usize)?;
    let gt = brute_force_knn(&base, &queries, metric, k.min(base.len()));
    let f = std::fs::File::create(req(flags, "out")?).map_err(io_err)?;
    algas_vector::io::write_ivecs(std::io::BufWriter::new(f), &gt.neighbors).map_err(io_err)?;
    writeln!(out, "wrote exact {}-NN for {} queries", gt.k, queries.len()).map_err(io_err)
}

fn cmd_build(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let mut base = load_fvecs(req(flags, "base")?)?;
    let metric = parse_metric(flags)?;
    if metric.requires_normalization() {
        base.normalize_l2();
    }
    // `--progress true`: a reporter thread polls the builders' shared
    // phase/progress counters (relaxed atomics — the built graph is
    // bit-identical with or without it) and repaints one stderr line.
    let progress = algas_graph::progress::global();
    progress.reset();
    let reporter = if parse_bool(flags, "progress")? {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let handle = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let progress = algas_graph::progress::global();
                let mut last = String::new();
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let line = progress.snapshot().render();
                    if line != last {
                        eprint!("\r\x1b[K{line}");
                        last = line;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(200));
                }
                eprintln!("\r\x1b[K{}", progress.snapshot().render());
            })
        };
        Some((stop, handle))
    } else {
        None
    };
    let t0 = std::time::Instant::now();
    let index = match flags.get("graph").map(|s| s.as_str()).unwrap_or("cagra") {
        "cagra" => {
            let degree = opt_parse(flags, "degree", 32usize)?;
            AlgasIndex::build_cagra(
                base,
                metric,
                CagraParams {
                    graph_degree: degree,
                    intermediate_degree: degree.max(opt_parse(flags, "intermediate", degree)?),
                    ..Default::default()
                },
            )
        }
        "nsw" => {
            let m = opt_parse(flags, "degree", 32usize)? / 2;
            AlgasIndex::build_nsw(
                base,
                metric,
                NswParams { m: m.max(2), ef_construction: (m * 4).max(32) },
            )
        }
        other => {
            if let Some((stop, handle)) = reporter {
                stop.store(true, std::sync::atomic::Ordering::Release);
                let _ = handle.join();
            }
            return Err(format!("--graph must be cagra|nsw, got `{other}`"));
        }
    };
    let mut index = index;
    if parse_bool(flags, "quantize")? {
        progress.start_phase(algas_graph::BuildPhase::Quantize, index.len() as u64);
        index.quantize();
    }
    if parse_bool(flags, "entry")? {
        progress.start_phase(algas_graph::BuildPhase::EntryIndex, index.len() as u64);
        index.build_entry_index(&EntryParams::default());
    }
    progress.finish();
    if let Some((stop, handle)) = reporter {
        stop.store(true, std::sync::atomic::Ordering::Release);
        handle.join().map_err(|_| "progress reporter panicked".to_string())?;
    }
    let path = req(flags, "out")?;
    index.save(path).map_err(io_err)?;
    writeln!(
        out,
        "built {:?} graph over {} vectors in {:.1?}{}{}; saved to {path}",
        index.kind,
        index.len(),
        t0.elapsed(),
        if index.quant.is_some() { " (with SQ8 codes)" } else { "" },
        if index.entry.is_some() { " (with entry structures)" } else { "" },
    )
    .map_err(io_err)
}

fn cmd_info(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let index = AlgasIndex::load(req(flags, "index")?).map_err(io_err)?;
    let stats = graph_stats(&index.graph);
    writeln!(
        out,
        "vectors: {} x dim {}\nmetric: {}\ngraph: {:?}, degree {} (mean valid {:.1}, min {})\n\
         reachable from medoid-entry BFS: {:.1}%\nmedoid: {}\nquantized: {}\nentry: {}",
        index.base.len(),
        index.base.dim(),
        index.metric.name(),
        index.kind,
        index.graph.degree(),
        stats.mean_valid_degree,
        stats.min_valid_degree,
        stats.reachable_fraction * 100.0,
        index.medoid,
        match &index.quant {
            Some(q) => format!(
                "SQ8 ({} KiB codes vs {} KiB fp32)",
                q.nbytes() / 1024,
                index.base.nbytes() / 1024
            ),
            None => "no".to_string(),
        },
        match &index.entry {
            Some(e) => {
                let hash = e.hash.as_ref().map(|t| {
                    format!(
                        "LSH table {} bits, {}/{} buckets filled, {} reps/bucket",
                        t.n_bits(),
                        t.occupied_buckets(),
                        t.hasher().n_buckets(),
                        t.reps_per_bucket(),
                    )
                });
                let ladder = e
                    .ladder
                    .as_ref()
                    .map(|l| format!("descent ladder {}+{} pivots", l.top().len(), l.mid().len()));
                match (hash, ladder) {
                    (Some(h), Some(l)) => format!("{h}; {l}"),
                    (Some(h), None) => h,
                    (None, Some(l)) => l,
                    (None, None) => "empty".to_string(),
                }
            }
            None => "none (medoid/hashed only)".to_string(),
        },
    )
    .map_err(io_err)
}

fn engine_from_flags(
    index: AlgasIndex,
    flags: &HashMap<String, String>,
) -> Result<AlgasEngine, String> {
    let defaults = EngineConfig::default();
    let cfg = EngineConfig {
        k: opt_parse(flags, "k", 10usize)?,
        l: opt_parse(flags, "l", 64usize)?,
        slots: opt_parse(flags, "slots", 16usize)?,
        // An index persisted with codes serves quantized without the
        // flag; `--quantize true` quantizes a plain index at load time.
        quantize: defaults.quantize || parse_bool(flags, "quantize")? || index.quant.is_some(),
        rerank_depth: opt(flags, "rerank")?,
        entry_policy: parse_entry_policy(flags)?,
        slo_us: opt(flags, "slo-us")?,
        ..defaults
    };
    AlgasEngine::new(index, cfg).map_err(|e| format!("tuning failed: {e}"))
}

fn cmd_search(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let index = AlgasIndex::load(req(flags, "index")?).map_err(io_err)?;
    let mut queries = load_fvecs(req(flags, "queries")?)?;
    if index.metric.requires_normalization() {
        queries.normalize_l2();
    }
    if queries.dim() != index.base.dim() {
        return Err(format!("query dim {} != index dim {}", queries.dim(), index.base.dim()));
    }
    let engine = engine_from_flags(index, flags)?;
    let k = engine.config().k;
    let t0 = std::time::Instant::now();
    let wl = engine.run_workload(&queries);
    let wall = t0.elapsed();
    let mean_sim_us: f64 = wl.works.iter().map(|w| w.max_cta_ns() as f64).sum::<f64>()
        / wl.works.len().max(1) as f64
        / 1000.0;
    let mode = if engine.quantized() {
        format!(", SQ8 rerank@{}", engine.rerank_depth())
    } else {
        String::new()
    };
    writeln!(
        out,
        "searched {} queries (k={k}, L={}, N_parallel={}{mode}) in {wall:.2?} wall; \
         mean simulated GPU time {mean_sim_us:.1} µs/query",
        queries.len(),
        engine.config().l,
        engine.plan().n_parallel,
    )
    .map_err(io_err)?;

    if let Some(gt_path) = flags.get("gt") {
        let f = std::fs::File::open(gt_path).map_err(io_err)?;
        let neighbors = algas_vector::io::read_ivecs(std::io::BufReader::new(f)).map_err(io_err)?;
        let gt_k = neighbors.first().map(|r| r.len()).unwrap_or(0);
        if gt_k < k {
            return Err(format!("ground truth depth {gt_k} < k {k}"));
        }
        let gt = GroundTruth { neighbors, k: gt_k };
        writeln!(out, "recall@{k}: {:.4}", mean_recall(&wl.results, &gt, k)).map_err(io_err)?;
    }
    if let Some(rpath) = flags.get("out") {
        let rows: Vec<Vec<u32>> = wl
            .results
            .iter()
            .map(|r| {
                let mut row = r.clone();
                row.resize(k, u32::MAX);
                row
            })
            .collect();
        let f = std::fs::File::create(rpath).map_err(io_err)?;
        algas_vector::io::write_ivecs(std::io::BufWriter::new(f), &rows).map_err(io_err)?;
        writeln!(out, "wrote results to {rpath}").map_err(io_err)?;
    }
    Ok(())
}

/// Loads the index + queries and starts the threaded runtime per the
/// shared `serve`/`stats` flags.
fn start_server_from_flags(
    flags: &HashMap<String, String>,
) -> Result<(AlgasServer, VectorStore), String> {
    let index = AlgasIndex::load(req(flags, "index")?).map_err(io_err)?;
    let mut queries = load_fvecs(req(flags, "queries")?)?;
    if index.metric.requires_normalization() {
        queries.normalize_l2();
    }
    let slots = opt_parse(flags, "slots", 16usize)?;
    let engine = engine_from_flags(index, flags)?;
    let tick = ObsTickConfig::default();
    let server = AlgasServer::start(
        engine,
        RuntimeConfig {
            n_slots: slots,
            n_workers: opt_parse(flags, "workers", 2usize)?,
            n_host_threads: opt_parse(flags, "hosts", 1usize)?,
            queue_capacity: 4096,
            // Retained for trace export: every query at least
            // `--trace-threshold-us` slow, next to the 8 slowest seen.
            flight: FlightConfig {
                slow_threshold_ns: opt::<u64>(flags, "trace-threshold-us")?
                    .map_or(u64::MAX, |us| us.saturating_mul(1000)),
                ..FlightConfig::default()
            },
            qlog: qlog_from_flags(flags)?,
            // `--prof-hz 0` stops the sampler; window rotation goes on.
            tick: ObsTickConfig {
                prof_hz: opt_parse(flags, "prof-hz", tick.prof_hz)?,
                window_period_ms: opt_parse(flags, "window-period-ms", tick.window_period_ms)?
                    .max(1),
            },
        },
    );
    Ok((server, queries))
}

/// The wide-event query-log policy from the `--query-log` /
/// `--qlog-*` flags. The log arms when any of them is present:
/// `--qlog-sample N` keeps every Nth completed query (default every
/// one), `--qlog-slow-us` always keeps queries at least that slow
/// (rejects and errors always log).
fn qlog_from_flags(flags: &HashMap<String, String>) -> Result<QlogConfig, String> {
    let armed = ["query-log", "qlog-sample", "qlog-slow-us"].iter().any(|f| flags.contains_key(*f));
    let defaults = QlogConfig::default();
    Ok(QlogConfig {
        enabled: armed,
        sample_every: opt_parse(flags, "qlog-sample", defaults.sample_every)?,
        slow_threshold_ns: opt::<u64>(flags, "qlog-slow-us")?
            .map_or(u64::MAX, |us| us.saturating_mul(1000)),
        ..defaults
    })
}

/// Pushes every query (×`repeat`) through the server and returns the
/// client-side submit→reply latencies as a histogram snapshot (ns) —
/// the same log-linear quantile path the server-side phase spans use.
fn drive_serve_session(
    server: &AlgasServer,
    queries: &VectorStore,
    repeat: usize,
) -> Result<algas_core::obs::HistogramSnapshot, String> {
    let total = queries.len() * repeat;
    let hist = algas_core::obs::Histogram::new();
    let mut pending = Vec::with_capacity(total);
    for _ in 0..repeat {
        for qi in 0..queries.len() {
            let (_, rx) = server
                .submit(queries.get(qi).to_vec())
                .map_err(|e| format!("submit failed: {e}"))?;
            pending.push((std::time::Instant::now(), rx));
        }
    }
    for (sent, rx) in pending {
        rx.recv().map_err(|_| "server died".to_string())?;
        hist.record(sent.elapsed().as_nanos() as u64);
    }
    Ok(hist.snapshot())
}

fn cmd_serve(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let (server, queries) = start_server_from_flags(flags)?;
    let server = std::sync::Arc::new(server);
    // `--query-log`: a writer thread tails the wide-event ring to the
    // file as JSON lines, so the serving threads never touch the
    // filesystem. Joined (after a final drain) before teardown.
    let qlog_writer = match flags.get("query-log") {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let handle = {
                let server = server.clone();
                let stop = stop.clone();
                std::thread::spawn(move || -> std::io::Result<u64> {
                    let prof = server.prof_registry().register(ThreadKind::Qlog, "qlog-writer");
                    let mut w = std::io::BufWriter::new(file);
                    let (mut cursor, mut written) = (0u64, 0u64);
                    loop {
                        let done = stop.load(std::sync::atomic::Ordering::Acquire);
                        prof.stamp(ProfState::Drain);
                        let (lines, next) = server.qlog_lines_since(cursor);
                        cursor = next;
                        for line in &lines {
                            writeln!(w, "{line}")?;
                            written += 1;
                        }
                        if done {
                            w.flush()?;
                            return Ok(written);
                        }
                        prof.stamp(ProfState::Idle);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                })
            };
            Some((path.clone(), stop, handle))
        }
        None => None,
    };
    let net_server = match flags.get("net") {
        Some(addr) => {
            let defaults = NetConfig::default();
            let max_inflight = opt_parse(flags, "max-inflight", defaults.max_inflight)?;
            let cfg = NetConfig { max_inflight, ..defaults };
            let srv = NetServer::start(addr.as_str(), server.clone(), cfg)
                .map_err(|e| format!("--net {addr}: {e}"))?;
            writeln!(out, "query protocol listening on {}", srv.local_addr()).map_err(io_err)?;
            Some(std::sync::Arc::new(srv))
        }
        None => None,
    };
    let stats_server = match flags.get("listen") {
        Some(addr) => {
            // Serving through the net front makes its counters live on
            // the scrape endpoints too.
            let source: std::sync::Arc<dyn StatsSource> = match &net_server {
                Some(net) => net.clone(),
                None => server.clone(),
            };
            let srv = StatsServer::start(addr.as_str(), source)
                .map_err(|e| format!("--listen {addr}: {e}"))?;
            writeln!(out, "stats listening on http://{}", srv.local_addr()).map_err(io_err)?;
            Some(srv)
        }
        None => None,
    };
    // `--repeat 0` skips the local closed-loop drive: the process only
    // serves network clients (use with --net and --linger-ms).
    let repeat = opt_parse(flags, "repeat", 1usize)?;
    if repeat > 0 {
        let total = queries.len() * repeat;
        let t0 = std::time::Instant::now();
        let lat = drive_serve_session(&server, &queries, repeat)?;
        let wall = t0.elapsed();
        writeln!(
            out,
            "served {total} queries in {wall:.2?} ({:.0} q/s); latency p50 {} µs, p99 {} µs",
            total as f64 / wall.as_secs_f64(),
            lat.quantile(0.5) / 1000,
            lat.quantile(0.99) / 1000,
        )
        .map_err(io_err)?;
    }
    let linger_ms = opt_parse(flags, "linger-ms", 0u64)?;
    if linger_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(linger_ms));
    }
    let stats = match &net_server {
        Some(net) => net.runtime_stats(),
        None => server.runtime_stats(),
    };
    if !stats.phases.end_to_end.is_empty() {
        let p99_us = |h: &algas_core::obs::HistogramSnapshot| h.quantile(0.99) as f64 / 1000.0;
        writeln!(
            out,
            "phase p99 (µs): submit→slot {:.1}, slot→work {:.1}, work→finish {:.1}, \
             finish→merged {:.1}, merged→delivered {:.1}; sort fraction {:.3}",
            p99_us(&stats.phases.submit_to_slot),
            p99_us(&stats.phases.slot_to_work),
            p99_us(&stats.phases.work_to_finish),
            p99_us(&stats.phases.finish_to_merged),
            p99_us(&stats.phases.merged_to_delivered),
            stats.search.sort_fraction(),
        )
        .map_err(io_err)?;
    }
    // The windowed view: the shortest window with completions is the
    // most current picture of the server, next to the lifetime p99
    // above; the health verdict is the burn-rate rule from /readyz.
    if let Some(w) = stats.window.windows.iter().find(|w| w.completed > 0) {
        writeln!(
            out,
            "windowed (~{}s): {:.0} q/s, p50 {} µs, p99 {} µs, attainment {:.2}%; health {}",
            w.target_s,
            w.rate_qps(),
            w.p50_ns / 1000,
            w.p99_ns / 1000,
            w.attainment_ppm as f64 / 10_000.0,
            stats.window.health,
        )
        .map_err(io_err)?;
    }
    if stats.queries_searched() > 0 {
        writeln!(
            out,
            "entry: {:.1} hops/query, mean entry distance {:.3}",
            stats.hops_per_query(),
            stats.mean_entry_distance(),
        )
        .map_err(io_err)?;
    }
    if stats.control.enabled {
        writeln!(
            out,
            "slo controller: target p99 {} µs, effort rung {}/{} ({}), window p99 {} µs; \
             {} ticks ({} shed, {} restore)",
            stats.control.slo_ns / 1000,
            stats.control.level,
            stats.control.max_level,
            stats.control.last_reason,
            stats.control.last_p99_ns / 1000,
            stats.control.ticks,
            stats.control.sheds,
            stats.control.restores,
        )
        .map_err(io_err)?;
    }
    if stats.net != algas_core::net::NetStats::default() {
        let n = &stats.net;
        writeln!(
            out,
            "net: {} conns accepted ({} closed), {} frames in / {} out, \
             {} bytes in / {} out, {} protocol errors, {} backpressure rejects",
            n.connections_accepted,
            n.connections_closed,
            n.frames_in,
            n.frames_out,
            n.bytes_in,
            n.bytes_out,
            n.protocol_errors,
            n.backpressure_rejects,
        )
        .map_err(io_err)?;
    }
    for c in &stats.net_conns {
        writeln!(
            out,
            "conn {}: {} in flight, {} bytes in / {} out, backlog high-water {}, \
             {} errors, {} retry-afters",
            c.id,
            c.inflight,
            c.bytes_in,
            c.bytes_out,
            c.backlog_high_water,
            c.errors,
            c.retry_afters,
        )
        .map_err(io_err)?;
    }
    if !stats.retry_backoff.is_empty() {
        writeln!(
            out,
            "retry backoff advised over {} rejects: p50 {} µs, p99 {} µs",
            stats.retry_backoff.count,
            stats.retry_backoff.quantile(0.5),
            stats.retry_backoff.quantile(0.99),
        )
        .map_err(io_err)?;
    }
    if stats.qlog.logged > 0 {
        writeln!(
            out,
            "query log: {} logged, {} dropped, {} drained",
            stats.qlog.logged, stats.qlog.dropped, stats.qlog.drained,
        )
        .map_err(io_err)?;
    }
    if stats.exemplar.e2e_ns > 0 {
        writeln!(
            out,
            "tail exemplar: request {} at {:.1} µs end-to-end",
            stats.exemplar.request_id,
            stats.exemplar.e2e_ns as f64 / 1000.0,
        )
        .map_err(io_err)?;
    }
    if let Some(path) = flags.get("stats-json") {
        std::fs::write(path, stats.to_json()).map_err(|e| format!("{path}: {e}"))?;
        writeln!(out, "wrote runtime stats to {path}").map_err(io_err)?;
    }
    if let Some(path) = flags.get("trace-out") {
        let traces = server.flight_traces();
        std::fs::write(path, server.chrome_trace_json()).map_err(|e| format!("{path}: {e}"))?;
        writeln!(out, "wrote {} flight trace(s) to {path}", traces.len()).map_err(io_err)?;
    }
    if let Some((path, stop, handle)) = qlog_writer {
        stop.store(true, std::sync::atomic::Ordering::Release);
        let written = handle
            .join()
            .map_err(|_| "query-log writer panicked".to_string())?
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(out, "wrote {written} query-log line(s) to {path}").map_err(io_err)?;
    }
    // Teardown order matters for the Arc unwraps: the stats listener
    // may hold the net server, and both listeners hold the runtime.
    if let Some(srv) = stats_server {
        srv.stop();
    }
    if let Some(net) = net_server {
        match std::sync::Arc::try_unwrap(net) {
            Ok(net) => net.stop(),
            Err(_) => return Err("internal: net server still shared at shutdown".into()),
        }
    }
    match std::sync::Arc::try_unwrap(server) {
        Ok(server) => server.shutdown(),
        Err(_) => return Err("internal: server still shared at shutdown".into()),
    }
    Ok(())
}

/// `algas profile`: one-shot profile capture from a running
/// `serve --listen` endpoint. Scrapes `GET /profile?seconds=N` and
/// prints the folded-stack text to stdout (or `--out`); feed it to
/// `flamegraph.pl` or paste into speedscope. The request blocks for
/// the capture duration by design.
fn cmd_profile(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let addr = req(flags, "addr")?;
    let seconds = opt_parse(flags, "seconds", 2.0f64)?;
    // "nan"/"inf" parse as f64 but would poison the request timeout
    // below (Duration::from_secs_f64 panics on non-finite input); the
    // server filters them too, but fail fast with a real message.
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err(format!("--seconds must be a positive finite number, got {seconds}"));
    }
    let body = http_get_text(addr, &format!("/profile?seconds={seconds}"), seconds + 35.0)?;
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &body).map_err(|e| format!("{path}: {e}"))?;
            writeln!(out, "wrote {} folded-stack line(s) to {path}", body.lines().count())
                .map_err(io_err)
        }
        None => write!(out, "{body}").map_err(io_err),
    }
}

/// A minimal HTTP/1.1 GET against the stats endpoint (the server
/// closes after each response, so read-to-end delimits the body).
fn http_get_text(addr: &str, path: &str, timeout_s: f64) -> Result<String, String> {
    use std::io::Read;
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs_f64(timeout_s.max(1.0))))
        .map_err(io_err)?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
        .map_err(io_err)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| format!("{addr}: read: {e}"))?;
    let (head, body) =
        raw.split_once("\r\n\r\n").ok_or_else(|| format!("{addr}: malformed HTTP response"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200") {
        return Err(format!("{addr}: GET {path}: {status}"));
    }
    Ok(body.to_string())
}

/// `algas bench-net`: the open-loop load generator against a running
/// `serve --net` endpoint. Requests follow a seeded Poisson schedule
/// at `--qps` regardless of reply progress — a slow server accumulates
/// backlog like it would from independent clients, so tail latency and
/// RETRY_AFTER rejects are measured honestly (no coordinated
/// omission). The leading `--warmup` fraction is excluded from latency
/// and `--slo-us` attainment.
fn cmd_bench_net(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let addr = req(flags, "addr")?;
    let mut queries = load_fvecs(req(flags, "queries")?)?;
    if parse_bool(flags, "normalize")? {
        queries.normalize_l2();
    }
    // `--qps` takes a single rate or a comma-separated list; each rate
    // is its own open-loop pass and a latency-vs-offered-load summary
    // closes a multi-rate report.
    let rates: Vec<f64> = flags
        .get("qps")
        .map(|s| s.as_str())
        .unwrap_or("1000")
        .split(',')
        .map(|v| {
            let v = v.trim();
            v.parse::<f64>().map_err(|_| format!("--qps: cannot parse `{v}`"))
        })
        .collect::<Result<_, _>>()?;
    let base_cfg = loadgen::LoadConfig {
        target_qps: 0.0,
        requests: opt_parse(flags, "requests", 1000usize)?,
        connections: opt_parse(flags, "connections", 1usize)?,
        seed: opt_parse(flags, "seed", 42u64)?,
        warmup_fraction: opt_parse(flags, "warmup", 0.2f64)?,
        slo: opt(flags, "slo-us")?.map(std::time::Duration::from_micros),
        recv_timeout: std::time::Duration::from_millis(opt_parse(
            flags,
            "recv-timeout-ms",
            10_000u64,
        )?),
    };
    let query_vecs: Vec<Vec<f32>> = (0..queries.len()).map(|i| queries.get(i).to_vec()).collect();
    let quantile_us = |r: &loadgen::LoadReport, q: f64| r.latency.quantile(q) as f64 / 1000.0;
    let mut curve = Vec::with_capacity(rates.len());
    for &target_qps in &rates {
        let cfg = loadgen::LoadConfig { target_qps, ..base_cfg.clone() };
        let report = loadgen::run_load(addr, &query_vecs, &cfg)
            .map_err(|e| format!("bench-net {addr}: {e}"))?;
        writeln!(
            out,
            "offered {} requests at target {:.0} q/s over {} connection(s), seed {}: \
             {} completed, {} rejected (RETRY_AFTER), {} errors in {:.2?} ({:.0} q/s achieved)",
            report.offered,
            cfg.target_qps,
            cfg.connections,
            cfg.seed,
            report.completed,
            report.rejected,
            report.errors,
            report.elapsed,
            report.achieved_qps,
        )
        .map_err(io_err)?;
        writeln!(
            out,
            "client latency over {} post-warmup samples: p50 {:.1} µs, p99 {:.1} µs",
            report.measured,
            quantile_us(&report, 0.50),
            quantile_us(&report, 0.99),
        )
        .map_err(io_err)?;
        if let Some(slo) = cfg.slo {
            writeln!(
                out,
                "slo attainment: {:.4} of measured requests within {} µs",
                report.attainment,
                slo.as_micros(),
            )
            .map_err(io_err)?;
        }
        // Every SEARCH carried a client-send timestamp, so this id is
        // resolvable on the server: grep it in /traces (flight trace)
        // and /query-log (wide event) when qlog/tracing are armed.
        if let Some((id, latency_ns)) = report.slowest {
            writeln!(
                out,
                "slowest post-warmup request: id {id} at {:.1} µs \
                 — grep this id in the server's /traces and /query-log",
                latency_ns as f64 / 1000.0,
            )
            .map_err(io_err)?;
        }
        curve.push((target_qps, report));
    }
    if curve.len() > 1 {
        writeln!(out, "latency vs offered load:").map_err(io_err)?;
        for (target_qps, report) in &curve {
            writeln!(
                out,
                "  target {:.0} q/s: achieved {:.0} q/s, p50 {:.1} µs, p99 {:.1} µs, \
                 {} rejected",
                target_qps,
                report.achieved_qps,
                quantile_us(report, 0.50),
                quantile_us(report, 0.99),
                report.rejected,
            )
            .map_err(io_err)?;
        }
    }
    Ok(())
}

/// `algas stats`: runs the same serving session as `serve` but emits
/// only the telemetry snapshot — JSON (default) or Prometheus text
/// exposition with `--format prom`.
fn cmd_stats(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let (server, queries) = start_server_from_flags(flags)?;
    let repeat = opt_parse(flags, "repeat", 1usize)?.max(1);
    drive_serve_session(&server, &queries, repeat)?;
    let stats = server.runtime_stats();
    match flags.get("format").map(|s| s.as_str()).unwrap_or("json") {
        "json" => writeln!(out, "{}", stats.to_json()).map_err(io_err)?,
        "prom" | "prometheus" => write!(out, "{}", stats.to_prometheus()).map_err(io_err)?,
        other => return Err(format!("--format must be json|prom, got `{other}`")),
    }
    server.shutdown();
    Ok(())
}

/// `algas trace`: runs a serving session purely to capture flight
/// traces, then writes the retained (tail-sampled) query timelines as
/// Chrome trace-event JSON — load the file at <https://ui.perfetto.dev>.
/// Retention follows `--trace-threshold-us` (default: the 8 slowest
/// queries of the session).
fn cmd_trace(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let (server, queries) = start_server_from_flags(flags)?;
    let repeat = opt_parse(flags, "repeat", 1usize)?.max(1);
    drive_serve_session(&server, &queries, repeat)?;
    let traces = server.flight_traces();
    let path = req(flags, "out")?;
    std::fs::write(path, server.chrome_trace_json()).map_err(|e| format!("{path}: {e}"))?;
    writeln!(
        out,
        "served {} queries; wrote {} flight trace(s) to {path} (open in ui.perfetto.dev)",
        queries.len() * repeat,
        traces.len(),
    )
    .map_err(io_err)?;
    server.shutdown();
    Ok(())
}

/// `algas trace-check`: validates a Chrome trace-event JSON file (as
/// written by `trace` / `serve --trace-out`). `--require-phases true`
/// additionally demands all six lifecycle phases appear as duration
/// events — the round-trip check CI runs.
fn cmd_trace_check(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let path = req(flags, "file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let summary =
        algas_core::obs::validate_chrome_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    if parse_bool(flags, "require-phases")? {
        let missing = summary.missing_phases();
        if !missing.is_empty() {
            return Err(format!("{path}: missing lifecycle phases: {missing:?}"));
        }
    }
    writeln!(
        out,
        "{path}: valid Chrome trace ({} events, {} duration span names)",
        summary.events,
        summary.duration_names.len(),
    )
    .map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use algas_core::obs::json::Value;

    /// The integer at `path` of a parsed stats JSON page.
    fn stat(doc: &Value, path: &[&str]) -> u64 {
        path.iter()
            .try_fold(doc, |v, key| v.get(key))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("no integer at {path:?}"))
    }

    fn run_ok(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out).expect("command succeeds");
        String::from_utf8(out).unwrap()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("algas-cli-{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn full_cli_pipeline() {
        let base = tmp("base.fvecs");
        let queries = tmp("q.fvecs");
        let gt = tmp("gt.ivecs");
        let index = tmp("index.algas");
        let results = tmp("r.ivecs");

        let msg = run_ok(&[
            "gen",
            "--out",
            &base,
            "--queries",
            &queries,
            "--n",
            "600",
            "--nq",
            "40",
            "--dim",
            "12",
            "--seed",
            "7",
        ]);
        assert!(msg.contains("600 base vectors"));

        run_ok(&["gt", "--base", &base, "--queries", &queries, "--k", "20", "--out", &gt]);

        let msg = run_ok(&["build", "--base", &base, "--graph", "cagra", "--out", &index]);
        assert!(msg.contains("Cagra"));

        let msg = run_ok(&["info", "--index", &index]);
        assert!(msg.contains("600 x dim 12"));

        let msg = run_ok(&[
            "search",
            "--index",
            &index,
            "--queries",
            &queries,
            "--k",
            "10",
            "--l",
            "64",
            "--gt",
            &gt,
            "--out",
            &results,
        ]);
        assert!(msg.contains("recall@10"), "{msg}");
        let recall: f64 = msg
            .lines()
            .find(|l| l.starts_with("recall@10"))
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|v| v.parse().ok())
            .expect("recall line");
        assert!(recall > 0.85, "CLI pipeline recall {recall}");

        let stats_json = tmp("stats.json");
        let msg = run_ok(&[
            "serve",
            "--index",
            &index,
            "--queries",
            &queries,
            "--slots",
            "4",
            "--repeat",
            "2",
            "--stats-json",
            &stats_json,
        ]);
        assert!(msg.contains("served 80 queries"), "{msg}");
        let dumped = std::fs::read_to_string(&stats_json).unwrap();
        let parsed = Value::parse(&dumped).expect("stats dump parses");
        assert_eq!(stat(&parsed, &["queries", "submitted"]), 80);
        assert_eq!(stat(&parsed, &["queries", "completed"]), 80);
        if cfg!(feature = "obs") {
            assert!(msg.contains("phase p99"), "{msg}");
            assert_eq!(stat(&parsed, &["phases", "end_to_end", "count"]), 80);
        }

        let msg = run_ok(&["stats", "--index", &index, "--queries", &queries, "--slots", "4"]);
        let stats = Value::parse(msg.trim()).expect("stats output parses");
        assert_eq!(stat(&stats, &["queries", "completed"]), 40);

        let msg = run_ok(&["stats", "--index", &index, "--queries", &queries, "--format", "prom"]);
        let samples = algas_core::obs::prom::parse_prometheus(&msg).expect("prom page parses");
        let completed = samples.iter().find(|s| s.name == "algas_queries_completed_total").unwrap();
        assert_eq!(completed.value, 40.0);

        // SQ8 leg: build with codes, confirm info reports them, and
        // check quantized search recall holds up against fp32.
        let qindex = tmp("index-q.algas");
        let msg = run_ok(&[
            "build",
            "--base",
            &base,
            "--graph",
            "cagra",
            "--quantize",
            "true",
            "--out",
            &qindex,
        ]);
        assert!(msg.contains("with SQ8 codes"), "{msg}");
        let msg = run_ok(&["info", "--index", &qindex]);
        assert!(msg.contains("quantized: SQ8"), "{msg}");
        let msg = run_ok(&[
            "search",
            "--index",
            &qindex,
            "--queries",
            &queries,
            "--k",
            "10",
            "--l",
            "64",
            "--rerank",
            "30",
            "--gt",
            &gt,
        ]);
        assert!(msg.contains("SQ8 rerank@30"), "{msg}");
        let q_recall: f64 = msg
            .lines()
            .find(|l| l.starts_with("recall@10"))
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|v| v.parse().ok())
            .expect("recall line");
        assert!(q_recall > recall - 0.02, "SQ8 recall {q_recall} vs fp32 {recall}");
        // The stats page reports both stores' memory.
        let msg = run_ok(&["stats", "--index", &qindex, "--queries", &queries, "--format", "prom"]);
        let samples = algas_core::obs::prom::parse_prometheus(&msg).unwrap();
        let gauge = |name: &str| samples.iter().find(|s| s.name == name).unwrap().value;
        assert!(gauge("algas_quant_store_bytes") > 0.0);
        assert!(gauge("algas_base_store_bytes") > gauge("algas_quant_store_bytes"));

        for p in [base, queries, gt, index, qindex, results, stats_json] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn entry_and_slo_flags() {
        let base = tmp("e-base.fvecs");
        let queries = tmp("e-q.fvecs");
        let gt = tmp("e-gt.ivecs");
        let index = tmp("e-index.algas");
        run_ok(&[
            "gen",
            "--out",
            &base,
            "--queries",
            &queries,
            "--n",
            "600",
            "--nq",
            "40",
            "--dim",
            "12",
            "--seed",
            "7",
        ]);
        run_ok(&["gt", "--base", &base, "--queries", &queries, "--k", "20", "--out", &gt]);

        // Entry structures persist through the v4 index file and show
        // up in `info`.
        let msg = run_ok(&[
            "build",
            "--base",
            &base,
            "--graph",
            "cagra",
            "--entry",
            "true",
            "--quantize",
            "true",
            "--out",
            &index,
        ]);
        assert!(msg.contains("with entry structures"), "{msg}");
        let msg = run_ok(&["info", "--index", &index]);
        assert!(msg.contains("LSH table"), "{msg}");
        assert!(msg.contains("descent ladder"), "{msg}");

        // Both smart policies search with healthy recall.
        for policy in ["hash-table", "descent"] {
            let msg = run_ok(&[
                "search",
                "--index",
                &index,
                "--queries",
                &queries,
                "--k",
                "10",
                "--l",
                "64",
                "--entry-policy",
                policy,
                "--gt",
                &gt,
            ]);
            let recall: f64 = msg
                .lines()
                .find(|l| l.starts_with("recall@10"))
                .and_then(|l| l.split(' ').nth(1))
                .and_then(|v| v.parse().ok())
                .expect("recall line");
            assert!(recall > 0.85, "{policy} recall {recall}");
        }
        let err = run(
            &["search", "--index", &index, "--queries", &queries, "--entry-policy", "psychic"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.contains("medoid|hashed|hash-table|descent"), "{err}");

        // An unreachable SLO arms the controller and the serve summary
        // + stats snapshot both report its rung.
        let msg = run_ok(&[
            "serve",
            "--index",
            &index,
            "--queries",
            &queries,
            "--slots",
            "4",
            "--repeat",
            "3",
            "--entry-policy",
            "hash-table",
            "--slo-us",
            "1",
        ]);
        assert!(msg.contains("slo controller: target p99 1 µs"), "{msg}");
        let msg = run_ok(&[
            "stats",
            "--index",
            &index,
            "--queries",
            &queries,
            "--slots",
            "4",
            "--repeat",
            "3",
            "--slo-us",
            "1",
        ]);
        let stats = Value::parse(msg.trim()).expect("stats output parses");
        let control = stats.get("control").expect("control block");
        assert_eq!(control.get("enabled"), Some(&Value::Bool(true)));
        assert!(stat(control, &["ticks"]) >= 1, "120 completions must tick the controller");
        assert!(stat(control, &["level"]) >= 1, "an impossible SLO must shed effort");

        for p in [base, queries, gt, index] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn trace_roundtrip_and_stats_endpoint() {
        let base = tmp("t-base.fvecs");
        let queries = tmp("t-q.fvecs");
        let index = tmp("t-index.algas");
        let trace = tmp("t-trace.json");
        let trace2 = tmp("t-trace2.json");
        run_ok(&[
            "gen",
            "--out",
            &base,
            "--queries",
            &queries,
            "--n",
            "400",
            "--nq",
            "20",
            "--dim",
            "10",
            "--seed",
            "3",
        ]);
        run_ok(&["build", "--base", &base, "--graph", "cagra", "--out", &index]);

        // Threshold 0: every query is "slow", so the capture retains
        // full timelines and the Chrome export carries all phases.
        let msg = run_ok(&[
            "trace",
            "--index",
            &index,
            "--queries",
            &queries,
            "--trace-threshold-us",
            "0",
            "--out",
            &trace,
        ]);
        assert!(msg.contains("flight trace(s)"), "{msg}");
        let check = run_ok(&["trace-check", "--file", &trace]);
        assert!(check.contains("valid Chrome trace"), "{check}");
        if cfg!(feature = "obs") {
            // Full round-trip: ring -> tail-sampled -> Chrome JSON ->
            // re-parsed with all six lifecycle phases present.
            run_ok(&["trace-check", "--file", &trace, "--require-phases", "true"]);
        }

        // serve with a live stats listener (ephemeral port) + trace-out.
        let msg = run_ok(&[
            "serve",
            "--index",
            &index,
            "--queries",
            &queries,
            "--slots",
            "4",
            "--listen",
            "127.0.0.1:0",
            "--trace-threshold-us",
            "0",
            "--trace-out",
            &trace2,
        ]);
        assert!(msg.contains("stats listening on http://127.0.0.1:"), "{msg}");
        run_ok(&["trace-check", "--file", &trace2]);

        // A corrupted file is rejected, and so is a hostile one:
        // 200 000 open brackets used to overflow the parser's stack.
        let args: Vec<String> =
            ["trace-check", "--file", &trace2].iter().map(|s| s.to_string()).collect();
        for bad in ["{\"traceEvents\":[{\"ph\":\"X\"}]}".to_string(), "[".repeat(200_000)] {
            std::fs::write(&trace2, bad).unwrap();
            assert!(run(&args, &mut Vec::new()).is_err());
        }

        for p in [base, queries, index, trace, trace2] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// A `Write` that appends into shared memory so one thread can
    /// watch another command's output as it runs.
    #[derive(Clone, Default)]
    struct SharedOut(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedOut {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedOut {
        fn text(&self) -> String {
            String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
        }
    }

    #[test]
    fn serve_net_and_bench_net_roundtrip() {
        let base = tmp("n-base.fvecs");
        let queries = tmp("n-q.fvecs");
        let index = tmp("n-index.algas");
        run_ok(&[
            "gen",
            "--out",
            &base,
            "--queries",
            &queries,
            "--n",
            "500",
            "--nq",
            "32",
            "--dim",
            "12",
            "--seed",
            "11",
        ]);
        run_ok(&["build", "--base", &base, "--graph", "cagra", "--out", &index]);

        // `--repeat 0` + `--net` + `--linger-ms`: a network-only
        // serving process on an ephemeral port.
        let serve_out = SharedOut::default();
        let serve_thread = {
            let mut out = serve_out.clone();
            let args: Vec<String> = [
                "serve",
                "--index",
                &index,
                "--queries",
                &queries,
                "--slots",
                "4",
                "--net",
                "127.0.0.1:0",
                "--repeat",
                "0",
                "--linger-ms",
                "4000",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            std::thread::spawn(move || run(&args, &mut out))
        };
        // Scrape the bound address from the serve banner.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            let text = serve_out.text();
            if let Some(line) = text.lines().find(|l| l.starts_with("query protocol listening on"))
            {
                break line.rsplit(' ').next().unwrap().to_string();
            }
            assert!(std::time::Instant::now() < deadline, "serve never bound: {text}");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let msg = run_ok(&[
            "bench-net",
            "--addr",
            &addr,
            "--queries",
            &queries,
            "--qps",
            "2000",
            "--requests",
            "64",
            "--connections",
            "2",
            "--seed",
            "9",
            "--slo-us",
            "100000",
        ]);
        assert!(msg.contains("64 completed, 0 rejected (RETRY_AFTER), 0 errors"), "{msg}");
        assert!(msg.contains("slo attainment:"), "{msg}");

        serve_thread.join().unwrap().expect("serve exits cleanly");
        let text = serve_out.text();
        // No local drive ran, but the net summary reflects the bench.
        assert!(!text.contains("served "), "{text}");
        assert!(text.contains("net: 2 conns accepted"), "{text}");
        assert!(text.contains("0 protocol errors"), "{text}");

        for p in [base, queries, index] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn profile_subcommand_and_windowed_summary() {
        let base = tmp("p-base.fvecs");
        let queries = tmp("p-q.fvecs");
        let index = tmp("p-index.algas");
        run_ok(&[
            "gen",
            "--out",
            &base,
            "--queries",
            &queries,
            "--n",
            "400",
            "--nq",
            "24",
            "--dim",
            "10",
            "--seed",
            "21",
        ]);
        run_ok(&[
            "build",
            "--base",
            &base,
            "--graph",
            "cagra",
            "--progress",
            "true",
            "--out",
            &index,
        ]);
        // (`--progress` exercised above; the counter mechanics are
        // pinned by algas-graph's progress unit tests — the global
        // instance is shared, so no cross-test snapshot asserts here.)

        // Serve with a stats listener, fast window rotation, and a
        // linger long enough to scrape a live profile.
        let serve_out = SharedOut::default();
        let serve_thread = {
            let mut out = serve_out.clone();
            let args: Vec<String> = [
                "serve",
                "--index",
                &index,
                "--queries",
                &queries,
                "--slots",
                "4",
                "--repeat",
                "2",
                "--listen",
                "127.0.0.1:0",
                "--linger-ms",
                "3000",
                "--window-period-ms",
                "200",
                "--prof-hz",
                "199",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            std::thread::spawn(move || run(&args, &mut out))
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            let text = serve_out.text();
            if let Some(line) = text.lines().find(|l| l.starts_with("stats listening on http://")) {
                break line.split("http://").nth(1).unwrap().trim().to_string();
            }
            assert!(std::time::Instant::now() < deadline, "serve never bound: {text}");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        // One-shot capture through the real HTTP endpoint.
        let profile = run_ok(&["profile", "--addr", &addr, "--seconds", "0.3"]);
        if cfg!(feature = "obs") {
            assert!(!profile.is_empty(), "profile body empty");
            for line in profile.lines() {
                let (stack, count) = line.rsplit_once(' ').expect("folded line");
                assert_eq!(stack.split(';').count(), 3, "bad frame depth: {line}");
                assert!(count.parse::<u64>().expect("sample count") > 0, "{line}");
            }
            assert!(profile.lines().any(|l| l.starts_with("worker;")), "{profile}");
        } else {
            assert!(profile.is_empty(), "{profile}");
        }

        serve_thread.join().unwrap().expect("serve exits cleanly");
        if cfg!(feature = "obs") {
            let text = serve_out.text();
            // The summary reports the windowed view next to the
            // lifetime percentiles, with the burn-rate verdict.
            assert!(text.contains("windowed (~"), "{text}");
            assert!(text.contains("health ok"), "{text}");
        }

        for p in [base, queries, index] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn profile_rejects_non_finite_seconds() {
        // The guard fires before any connection attempt, so the bogus
        // addr is never dialed.
        for bad in ["nan", "inf", "-inf", "0", "-1"] {
            let args: Vec<String> = ["profile", "--addr", "127.0.0.1:1", "--seconds", bad]
                .iter()
                .map(|s| s.to_string())
                .collect();
            let err = run(&args, &mut Vec::new()).expect_err(bad);
            assert!(err.contains("--seconds"), "{bad}: {err}");
        }
    }

    #[test]
    fn query_log_file_and_rate_sweep() {
        let base = tmp("ql-base.fvecs");
        let queries = tmp("ql-q.fvecs");
        let index = tmp("ql-index.algas");
        let qlog = tmp("ql-queries.ndjson");
        run_ok(&[
            "gen",
            "--out",
            &base,
            "--queries",
            &queries,
            "--n",
            "500",
            "--nq",
            "32",
            "--dim",
            "12",
            "--seed",
            "13",
        ]);
        run_ok(&["build", "--base", &base, "--graph", "cagra", "--out", &index]);

        // Network-only serve with the wide-event query log tailing to
        // a file.
        let serve_out = SharedOut::default();
        let serve_thread = {
            let mut out = serve_out.clone();
            let args: Vec<String> = [
                "serve",
                "--index",
                &index,
                "--queries",
                &queries,
                "--slots",
                "4",
                "--net",
                "127.0.0.1:0",
                "--repeat",
                "0",
                "--linger-ms",
                "4000",
                "--query-log",
                &qlog,
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            std::thread::spawn(move || run(&args, &mut out))
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            let text = serve_out.text();
            if let Some(line) = text.lines().find(|l| l.starts_with("query protocol listening on"))
            {
                break line.rsplit(' ').next().unwrap().to_string();
            }
            assert!(std::time::Instant::now() < deadline, "serve never bound: {text}");
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        // A comma-separated --qps list runs one open-loop pass per
        // rate and closes with the latency-vs-offered-load summary.
        let msg = run_ok(&[
            "bench-net",
            "--addr",
            &addr,
            "--queries",
            &queries,
            "--qps",
            "500,1500",
            "--requests",
            "40",
            "--connections",
            "1",
            "--seed",
            "5",
        ]);
        assert_eq!(msg.matches("40 completed, 0 rejected (RETRY_AFTER), 0 errors").count(), 2);
        assert!(msg.contains("latency vs offered load:"), "{msg}");
        assert!(msg.contains("  target 500 q/s:"), "{msg}");
        assert!(msg.contains("  target 1500 q/s:"), "{msg}");
        assert!(msg.contains("slowest post-warmup request: id "), "{msg}");

        serve_thread.join().unwrap().expect("serve exits cleanly");
        let text = serve_out.text();
        assert!(text.contains("query-log line(s) to"), "{text}");
        let lines: Vec<String> = std::fs::read_to_string(&qlog)
            .expect("query log written")
            .lines()
            .map(|l| l.to_string())
            .collect();
        if cfg!(feature = "obs") {
            // Every completed request (40 per rate) landed as one
            // wide-event JSON line carrying its wire identity.
            assert_eq!(lines.len(), 80, "{text}");
            assert!(text.contains("query log: 80 logged, 0 dropped"), "{text}");
            for line in &lines {
                assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
                for key in ["\"request_id\":", "\"conn\":", "\"queue_ns\":", "\"status\":\"ok\""] {
                    assert!(line.contains(key), "{key} missing in {line}");
                }
            }
            // The loadgen stamped client-send times on every SEARCH.
            assert!(lines.iter().all(|l| !l.contains("\"client_ts_us\":0,")), "{:?}", lines[0]);
        } else {
            assert!(lines.is_empty(), "{lines:?}");
        }

        for p in [base, queries, index, qlog] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn errors_are_reported() {
        let mut out = Vec::new();
        assert!(run(&[], &mut out).is_err());
        assert!(run(&["bogus".into()], &mut out).unwrap_err().contains("unknown command"));
        assert!(run(&["build".into()], &mut out).unwrap_err().contains("--base"));
        assert!(run(&["gen".into(), "--n".into()], &mut out)
            .unwrap_err()
            .contains("needs a value"));
        assert!(run(
            &["gen".into(), "--out".into(), "/tmp/x".into(), "--metric".into(), "hamming".into()],
            &mut out
        )
        .unwrap_err()
        .contains("l2|cosine"));
        // A mistyped or retired flag is refused by name, on every command.
        for cmd in
            "gen gt build info search serve stats trace profile bench-net trace-check".split(' ')
        {
            for flag in ["--qlog-sampel", "--trace-top"] {
                let err = run(&[cmd.into(), flag.into(), "8".into()], &mut out).unwrap_err();
                assert_eq!(err, format!("unknown flag {flag} for {cmd}"));
            }
        }
    }
}
