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
//!              [--net 127.0.0.1:7700] [--linger-ms 0] [--trace-out trace.json]
//!              [--query-log qlog.ndjson]
//! algas stats  ENGINE SESSION [--format json|prom]
//! algas trace-check --file trace.json [--require-phases true]
//!
//! ENGINE:  --index index.algas --queries q.fvecs [--k 10] [--l 64] [--slots 16]
//!          [--quantize true] [--rerank 32] [--entry-policy hash-table] [--slo-us 2000]
//! SESSION: [--workers 2] [--hosts 1] [--repeat N] [--trace-threshold-us N]
//!          [--qlog-sample N]
//! ```
//!
//! These lists are what each command accepts ([`run`] holds them); any
//! other flag is an error naming the flag and the command.
//!
//! `--quantize true` switches graph traversal onto SQ8 codes (quarter
//! memory traffic) with an exact fp32 re-rank of the top `--rerank`
//! candidates (default 2k) before results are returned; `build
//! --quantize` marks the index quantized, and loading it derives the
//! codes from the fp32 rows the file holds.
//!
//! `--entry-policy` picks how each search seeds its CTAs:
//! `medoid` (single classic entry), `hashed` (CAGRA-style
//! pseudo-random), or `hash-table` (LSH bucket lookup, starts the walk
//! near the query). `search`
//! defaults to `hashed`: it runs the paper's concurrent schedule, and
//! the figures and golden results pin its seeds. `serve` and `stats`
//! default to `hash-table`: a worker runs its walkers one after
//! another and the first one is most of the search, so starting it near
//! the query skips the crossing from a random vertex. `hash-table` uses
//! the LSH table persisted by `build --entry true` (format v4) or built
//! at load time. On
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
//! queries drain); `/traces` and the `--trace-out` file are the same
//! document, the retained slow-query flight traces as Chrome
//! trace-event JSON (open it at <https://ui.perfetto.dev>; retention
//! follows `--trace-threshold-us`, by default the 8 slowest queries).
//! `--net` additionally binds the
//! binary query protocol (length-prefixed frames, pipelined,
//! RETRY_AFTER once 256 requests are queued);
//! `--repeat 0` skips the local closed-loop drive entirely so the
//! process serves network clients only, for `--linger-ms`; `--queries`
//! is the local drive's input, so it is optional there and, if given,
//! not opened. Every
//! surface (`--stats-json`, `--listen`, the wire STATS reply, the
//! summary printed at exit) shows the same runtime snapshot.
//! `--query-log` arms the wide-event query log and tails it to a file
//! as JSON lines (one structured record per completed query — wire
//! request id, connection, queue delay, phase spans, hops, entry
//! policy, SLO rung, rerank depth, status); `--qlog-sample N` keeps
//! every Nth completion, and the retained tail is also served live at
//! `/query-log` on the `--listen` endpoint (next to `/healthz` and
//! `/readyz` probes). `GET /profile?seconds=N` on the `--listen`
//! endpoint samples every runtime thread's state at a fixed 97 Hz for
//! `N` seconds and returns the folded-stack capture (`curl` it, then
//! `flamegraph.pl` / speedscope); nothing samples between captures.
//! The windowed telemetry (~1 s / 10 s / 60 s) needs no setting: its
//! snapshot ring rotates once a second, when a delivery or a read
//! finds a rotation due. The binary carries no network client: load at an
//! offered rate over `--net` is the `algas-perf` benchmark's job
//! (`crates/algas-bench/src/bin/perf`). `stats` runs the same
//! serving session and emits only the snapshot, as JSON or Prometheus
//! text exposition. `trace-check` validates a `--trace-out` file, as CI
//! does.
//!
//! All logic lives here (testable); `src/bin/algas.rs` is a thin shim.

use algas_core::engine::{AlgasEngine, AlgasIndex, EngineConfig};
use algas_core::net::NetServer;
use algas_core::obs::{FlightConfig, ProfState, QlogConfig, StatsServer, ThreadKind};
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Flags [`engine_config_from_flags`] and the index/query loaders read.
const ENGINE: &str = "index queries k l slots quantize rerank entry-policy slo-us";

/// Flags a `serve`/`stats` session reads on top of [`ENGINE`].
const SESSION: &str = "workers hosts repeat trace-threshold-us qlog-sample";

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
            let own = "stats-json listen net linger-ms trace-out query-log";
            (&[ENGINE, SESSION, own], cmd_serve)
        }
        "stats" => (&[ENGINE, SESSION, "format"], cmd_stats),
        "trace-check" => (&["file require-phases"], cmd_trace_check),
        "help" | "--help" | "-h" => return writeln!(out, "{}", usage()).map_err(io_err),
        other => return Err(format!("unknown command `{other}`\n{}", usage())),
    };
    body(&parse_flags(cmd, accepted, rest)?, out)
}

fn usage() -> String {
    "usage: algas <gen|gt|build|info|search|serve|stats|trace-check> [--flag value]...\n\
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

/// [`opt_parse`] for a size that must be at least 1.
fn opt_size(flags: &HashMap<String, String>, name: &str, default: usize) -> Result<usize, String> {
    match opt_parse(flags, name, default)? {
        0 => Err(format!("--{name} must be ≥ 1")),
        size => Ok(size),
    }
}

fn parse_bool(flags: &HashMap<String, String>, name: &str) -> Result<bool, String> {
    match flags.get(name).map(|s| s.as_str()) {
        None => Ok(false),
        Some("1") | Some("true") | Some("yes") => Ok(true),
        Some("0") | Some("false") | Some("no") => Ok(false),
        Some(other) => Err(format!("--{name} must be true|false, got `{other}`")),
    }
}

/// `--entry-policy`, or `default` when the flag is absent. `hashed` is
/// the engine's own pseudo-random spread, the paper's seeds.
fn parse_entry_policy(
    flags: &HashMap<String, String>,
    default: EntryPolicy,
) -> Result<EntryPolicy, String> {
    match flags.get("entry-policy").map(|s| s.as_str()) {
        None => Ok(default),
        Some("medoid") => Ok(EntryPolicy::Medoid),
        Some("hashed") => Ok(EngineConfig::default().entry_policy),
        Some("hash-table") | Some("hash_table") | Some("lsh") => Ok(EntryPolicy::HashTable),
        Some(other) => {
            Err(format!("--entry-policy must be medoid|hashed|hash-table, got `{other}`"))
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
        n_base: opt_size(flags, "n", 10_000)?,
        n_queries: opt_parse(flags, "nq", 256usize)?,
        dim: opt_size(flags, "dim", 64)?,
        metric: parse_metric(flags)?,
        clusters: opt_size(flags, "clusters", 32)?,
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
    let k = opt_size(flags, "k", 100)?;
    let base = load_fvecs(req(flags, "base")?)?;
    let queries = load_fvecs(req(flags, "queries")?)?;
    let metric = parse_metric(flags)?;
    let gt = brute_force_knn(&base, &queries, metric, k.min(base.len()));
    let f = std::fs::File::create(req(flags, "out")?).map_err(io_err)?;
    algas_vector::io::write_ivecs(std::io::BufWriter::new(f), &gt.neighbors).map_err(io_err)?;
    writeln!(out, "wrote exact {}-NN for {} queries", gt.k, queries.len()).map_err(io_err)
}

fn cmd_build(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let degree = opt_size(flags, "degree", 32)?;
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
        "cagra" => AlgasIndex::build_cagra(
            base,
            metric,
            CagraParams {
                graph_degree: degree,
                intermediate_degree: degree.max(opt_parse(flags, "intermediate", degree)?),
                ..Default::default()
            },
        ),
        "nsw" => {
            let m = degree / 2;
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
        if index.quant.is_some() { " (SQ8, codes derived at load)" } else { "" },
        if index.entry.is_some() { " (with LSH entry table)" } else { "" },
    )
    .map_err(io_err)
}

/// The `info` line on how the file stores the graph's ids: packed at
/// `bit_length(n)` bits since format 6, a `u32` each before.
fn graph_ids(graph: &algas_graph::FixedDegreeGraph, version: u32) -> String {
    let (n, degree) = (graph.len(), graph.degree());
    let w = algas_graph::binary::id_bits(n);
    let kib = |bytes: usize| (bytes + 512) / 1024;
    let row_bytes = algas_graph::binary::packed_row_bytes(degree, w).expect("a row in memory");
    let packed = kib(n * row_bytes);
    let wide = kib(graph.nbytes());
    if algas_core::persist::packs_graph_ids(version) {
        format!("{n} × {degree} ids at {w} bits: {packed} KiB ({wide} KiB as u32)")
    } else {
        format!("{n} × {degree} ids as u32: {wide} KiB ({packed} KiB at {w} bits once re-saved)")
    }
}

fn cmd_info(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let path = req(flags, "index")?;
    let index = AlgasIndex::load(path).map_err(io_err)?;
    let version = algas_core::persist::format_version(path).map_err(io_err)?;
    let stats = graph_stats(&index.graph);
    writeln!(
        out,
        "format: v{version}\nvectors: {} x dim {}\nmetric: {}\n\
         graph: {:?}, degree {} (mean valid {:.1}, min {})\ngraph ids: {}\n\
         reachable from medoid-entry BFS: {:.1}%\nmedoid: {}\nquantized: {}\nentry: {}",
        index.base.len(),
        index.base.dim(),
        index.metric.name(),
        index.kind,
        index.graph.degree(),
        stats.mean_valid_degree,
        stats.min_valid_degree,
        graph_ids(&index.graph, version),
        stats.reachable_fraction * 100.0,
        index.medoid,
        match &index.quant {
            Some(q) => format!(
                "SQ8, {}: {} KiB codes + {} KiB scales, offsets and row norms \
                 ({} KiB fp32 rows)",
                if algas_core::persist::derives_codes(version) {
                    "derived from the fp32 rows at load"
                } else {
                    "read from the file"
                },
                q.len() * q.dim() / 1024,
                (q.nbytes() - q.len() * q.dim()) / 1024,
                index.base.nbytes() / 1024
            ),
            None => "no".to_string(),
        },
        match &index.entry {
            Some(t) => format!(
                "LSH table {} bits, {}/{} buckets filled, {} reps/bucket",
                t.n_bits(),
                t.occupied_buckets(),
                t.hasher().n_buckets(),
                t.reps_per_bucket(),
            ),
            None => "none (serving builds the LSH table at load)".to_string(),
        },
    )
    .map_err(io_err)
}

/// The engine configuration the `ENGINE` flags describe, checked
/// before any file is read; `entry_policy` is what it seeds from
/// without `--entry-policy`.
fn engine_config_from_flags(
    flags: &HashMap<String, String>,
    entry_policy: EntryPolicy,
) -> Result<EngineConfig, String> {
    let defaults = EngineConfig::default();
    let (k, l) = (opt_size(flags, "k", 10)?, opt_size(flags, "l", 64)?);
    if k > l {
        return Err(format!("--k {k} must be ≤ --l {l}"));
    }
    Ok(EngineConfig {
        k,
        l,
        slots: opt_size(flags, "slots", 16)?,
        quantize: defaults.quantize || parse_bool(flags, "quantize")?,
        rerank_depth: opt(flags, "rerank")?,
        entry_policy: parse_entry_policy(flags, entry_policy)?,
        slo_us: match opt(flags, "slo-us")? {
            Some(0) => return Err("--slo-us must be ≥ 1".into()),
            slo => slo,
        },
        ..defaults
    })
}

/// The engine over `index`. An index persisted with codes serves
/// quantized without the flag; `--quantize true` quantizes a plain
/// index at load time.
fn engine_for(index: AlgasIndex, cfg: EngineConfig) -> Result<AlgasEngine, String> {
    let cfg = EngineConfig { quantize: cfg.quantize || index.quant.is_some(), ..cfg };
    AlgasEngine::new(index, cfg).map_err(|e| format!("invalid engine configuration: {e}"))
}

fn cmd_search(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    // The paper's schedule, seeded as the figures and goldens pin it.
    let cfg = engine_config_from_flags(flags, EngineConfig::default().entry_policy)?;
    let index = AlgasIndex::load(req(flags, "index")?).map_err(io_err)?;
    let queries = load_queries(flags, &index)?;
    let engine = engine_for(index, cfg)?;
    let k = engine.config().k;
    let t0 = std::time::Instant::now();
    let mut scratch = engine.make_scratch();
    let results: Vec<Vec<u32>> = (0..queries.len())
        .map(|q| {
            engine.search_into(queries.get(q), q as u64, &mut scratch);
            scratch.topk.iter().map(|&(_, id)| id).collect()
        })
        .collect();
    let wall = t0.elapsed();
    let mode = if engine.quantized() {
        format!(", SQ8 rerank@{}", engine.rerank_depth())
    } else {
        String::new()
    };
    writeln!(
        out,
        "searched {} queries (k={k}, L={}, N_parallel={}{mode}) in {wall:.2?} wall",
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
        writeln!(out, "recall@{k}: {:.4}", mean_recall(&results, &gt, k)).map_err(io_err)?;
    }
    if let Some(rpath) = flags.get("out") {
        let rows: Vec<Vec<u32>> = results
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

/// The submission queue bound of a `serve`/`stats` runtime — the one
/// place load is refused (a wire SEARCH past it gets RETRY_AFTER); the
/// local drive keeps at most this many queries outstanding.
const QUEUE_CAPACITY: usize = 256;

/// `--queries`, normalized as `index`'s metric requires and checked
/// against its dimension.
fn load_queries(
    flags: &HashMap<String, String>,
    index: &AlgasIndex,
) -> Result<VectorStore, String> {
    let mut queries = load_fvecs(req(flags, "queries")?)?;
    if index.metric.requires_normalization() {
        queries.normalize_l2();
    }
    if queries.dim() != index.base.dim() {
        return Err(format!("query dim {} != index dim {}", queries.dim(), index.base.dim()));
    }
    Ok(queries)
}

/// Loads the index and starts the threaded runtime per the shared
/// `serve`/`stats` flags. `--queries`, the local drive's input, is
/// loaded only when the session `drive`s; otherwise the returned store
/// is empty and the file is never opened.
fn start_server_from_flags(
    flags: &HashMap<String, String>,
    drive: bool,
) -> Result<(AlgasServer, VectorStore), String> {
    // The serial schedule's first walker is most of the search, so it
    // starts from the LSH table, near the query (built at load when the
    // index carries no entry section).
    let engine_cfg = engine_config_from_flags(flags, EntryPolicy::HashTable)?;
    let runtime_cfg = RuntimeConfig {
        n_workers: opt_size(flags, "workers", 2)?,
        n_host_threads: opt_size(flags, "hosts", 1)?,
        queue_capacity: QUEUE_CAPACITY,
        // Retained for trace export: every query at least
        // `--trace-threshold-us` slow, next to the 8 slowest seen.
        flight: FlightConfig {
            slow_threshold_ns: opt::<u64>(flags, "trace-threshold-us")?
                .map_or(u64::MAX, |us| us.saturating_mul(1000)),
            ..FlightConfig::default()
        },
        qlog: qlog_from_flags(flags)?,
    };
    let index = AlgasIndex::load(req(flags, "index")?).map_err(io_err)?;
    let queries =
        if drive { load_queries(flags, &index)? } else { VectorStore::new(index.base.dim()) };
    let server = AlgasServer::start(engine_for(index, engine_cfg)?, runtime_cfg);
    Ok((server, queries))
}

/// The wide-event query-log policy from the `--query-log` /
/// `--qlog-sample` flags. The log arms when either is present:
/// `--qlog-sample N` keeps every Nth completed query (default every
/// one; rejects and errors always log).
fn qlog_from_flags(flags: &HashMap<String, String>) -> Result<QlogConfig, String> {
    let armed = ["query-log", "qlog-sample"].iter().any(|f| flags.contains_key(*f));
    let defaults = QlogConfig::default();
    Ok(QlogConfig {
        enabled: armed,
        sample_every: opt_parse(flags, "qlog-sample", defaults.sample_every)?,
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
    let hist = algas_core::obs::Histogram::new();
    let mut pending = std::collections::VecDeque::new();
    let mut order = (0..repeat).flat_map(|_| 0..queries.len());
    loop {
        // Every outstanding query sits in the queue or a slot, so
        // submitting only below the queue bound never overflows it;
        // at the bound, the oldest reply is awaited first.
        if pending.len() < QUEUE_CAPACITY {
            if let Some(qi) = order.next() {
                let (_, rx) = server
                    .submit(queries.get(qi).to_vec())
                    .map_err(|e| format!("submit failed: {e}"))?;
                pending.push_back((std::time::Instant::now(), rx));
                continue;
            }
        }
        let Some((sent, rx)) = pending.pop_front() else { break };
        rx.recv().map_err(|_| "server died".to_string())?;
        hist.record(sent.elapsed().as_nanos() as u64);
    }
    Ok(hist.snapshot())
}

/// The `--query-log` writer: a thread tailing the wide-event ring to
/// the file, and the flag that ends it.
struct QlogWriter {
    path: String,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<std::io::Result<u64>>,
}

/// What `serve` runs next to the runtime; [`Serving::teardown`] stops
/// all of it.
struct Serving {
    server: Arc<AlgasServer>,
    net: Option<NetServer>,
    stats: Option<StatsServer>,
    qlog: Option<QlogWriter>,
}

impl Serving {
    /// Stops and joins the query-log writer (its final drain and flush
    /// included), stops both listeners and shuts the runtime down.
    /// Every step runs even when an earlier one failed; the first
    /// error is returned.
    fn teardown(self, out: &mut dyn Write) -> Result<(), String> {
        let mut result = Ok(());
        if let Some(w) = self.qlog {
            w.stop.store(true, Ordering::Release);
            result = match w.handle.join() {
                Err(_) => Err("query-log writer panicked".to_string()),
                Ok(Err(e)) => Err(format!("{}: {e}", w.path)),
                Ok(Ok(written)) => {
                    writeln!(out, "wrote {written} query-log line(s) to {}", w.path).map_err(io_err)
                }
            };
        }
        // Both listeners hold the runtime: stop them before unwrapping it.
        if let Some(srv) = self.stats {
            srv.stop();
        }
        if let Some(net) = self.net {
            net.stop();
        }
        match Arc::try_unwrap(self.server) {
            Ok(server) => server.shutdown(),
            Err(_) => return result.and(Err("internal: server still shared at shutdown".into())),
        }
        result
    }
}

fn cmd_serve(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let drive = opt_parse(flags, "repeat", 1usize)? > 0;
    let (server, queries) = start_server_from_flags(flags, drive)?;
    let mut serving = Serving { server: Arc::new(server), net: None, stats: None, qlog: None };
    // One teardown for every return path: an error after the writer
    // started must not leave it holding the runtime with lines
    // unflushed.
    let served = serve_session(flags, &queries, &mut serving, out);
    let torn_down = serving.teardown(out);
    served.and(torn_down)
}

/// The body of `serve`: starts what the flags ask for into `serving`,
/// drives the local session and reports.
fn serve_session(
    flags: &HashMap<String, String>,
    queries: &VectorStore,
    serving: &mut Serving,
    out: &mut dyn Write,
) -> Result<(), String> {
    let server = Arc::clone(&serving.server);
    if let Some(addr) = flags.get("net") {
        let srv = NetServer::start(addr.as_str(), server.clone())
            .map_err(|e| format!("--net {addr}: {e}"))?;
        writeln!(out, "query protocol listening on {}", srv.local_addr()).map_err(io_err)?;
        serving.net = Some(srv);
    }
    if let Some(addr) = flags.get("listen") {
        let srv = StatsServer::start(addr.as_str(), server.clone())
            .map_err(|e| format!("--listen {addr}: {e}"))?;
        writeln!(out, "stats listening on http://{}", srv.local_addr()).map_err(io_err)?;
        serving.stats = Some(srv);
    }
    // `--query-log`: a writer thread tails the wide-event ring to the
    // file as JSON lines, so the serving threads never touch the
    // filesystem. Joined (after a final drain) at teardown. It starts
    // after both listeners bound: a bind error returns with no file
    // left behind.
    if let Some(path) = flags.get("query-log") {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let server = server.clone();
            let stop = stop.clone();
            std::thread::spawn(move || -> std::io::Result<u64> {
                let prof = server.prof_registry().register(ThreadKind::Qlog, "qlog-writer");
                let mut w = std::io::BufWriter::new(file);
                let (mut cursor, mut written) = (0u64, 0u64);
                loop {
                    let done = stop.load(Ordering::Acquire);
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
        serving.qlog = Some(QlogWriter { path: path.clone(), stop, handle });
    }
    // `--repeat 0` skips the local closed-loop drive, and `queries` is
    // empty: the process only serves network clients (use with --net
    // and --linger-ms).
    let repeat = opt_parse(flags, "repeat", 1usize)?;
    if repeat > 0 {
        let total = queries.len() * repeat;
        let t0 = std::time::Instant::now();
        let lat = drive_serve_session(&server, queries, repeat)?;
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
    let stats = server.runtime_stats();
    if !stats.phases.end_to_end.is_empty() {
        let p99_us = |h: &algas_core::obs::HistogramSnapshot| h.quantile(0.99) as f64 / 1000.0;
        writeln!(
            out,
            "phase p99 (µs): submit→slot {:.1}, slot→work {:.1}, work→finish {:.1}, \
             finish→merged {:.1}, merged→delivered {:.1}",
            p99_us(&stats.phases.submit_to_slot),
            p99_us(&stats.phases.slot_to_work),
            p99_us(&stats.phases.work_to_finish),
            p99_us(&stats.phases.finish_to_merged),
            p99_us(&stats.phases.merged_to_delivered),
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
            // Every tick is exactly one of a shed, a restore or a hold.
            stats.control.sheds + stats.control.restores + stats.control.holds,
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
    Ok(())
}

/// `algas stats`: runs the same serving session as `serve` but emits
/// only the telemetry snapshot — JSON (default) or Prometheus text
/// exposition with `--format prom`.
fn cmd_stats(flags: &HashMap<String, String>, out: &mut dyn Write) -> Result<(), String> {
    let repeat = opt_parse(flags, "repeat", 1usize)?.max(1);
    let (server, queries) = start_server_from_flags(flags, true)?;
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

/// `algas trace-check`: validates a Chrome trace-event JSON file (as
/// written by `serve --trace-out`). `--require-phases true`
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
        assert!(msg.contains("format: v6\n"), "{msg}");
        // 600 × 32 ids at 10 bits: 40 bytes a row, 23 KiB (75 KiB as u32).
        assert!(
            msg.contains("graph ids: 600 × 32 ids at 10 bits: 23 KiB (75 KiB as u32)"),
            "{msg}"
        );

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
        assert!(msg.contains("(SQ8, codes derived at load)"), "{msg}");
        let msg = run_ok(&["info", "--index", &qindex]);
        assert!(msg.contains("format: v6"), "{msg}");
        assert!(msg.contains("quantized: SQ8, derived from the fp32 rows at load: "), "{msg}");
        assert!(msg.contains(" KiB codes + "), "{msg}");
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

        // The LSH entry table persists through the v4 index file and
        // shows up in `info`.
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
        assert!(msg.contains("with LSH entry table"), "{msg}");
        let msg = run_ok(&["info", "--index", &index]);
        assert!(msg.contains("entry: LSH table"), "{msg}");

        // The table policy searches with healthy recall.
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
            "hash-table",
            "--gt",
            &gt,
        ]);
        let recall: f64 = msg
            .lines()
            .find(|l| l.starts_with("recall@10"))
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|v| v.parse().ok())
            .expect("recall line");
        assert!(recall > 0.85, "hash-table recall {recall}");
        let err = run(
            &["search", "--index", &index, "--queries", &queries, "--entry-policy", "psychic"]
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.contains("medoid|hashed|hash-table,"), "{err}");

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
        let ticks: u64 = ["sheds", "restores", "holds"].iter().map(|&k| stat(control, &[k])).sum();
        assert!(ticks >= 1, "120 completions must tick the controller");
        assert!(stat(control, &["level"]) >= 1, "an impossible SLO must shed effort");

        for p in [base, queries, gt, index] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// A local drive longer than the submission queue completes: the
    /// driver waits on its oldest reply instead of overflowing the
    /// queue.
    #[test]
    fn local_drive_outlasts_the_submission_queue() {
        let base = tmp("long-base.fvecs");
        let queries = tmp("long-q.fvecs");
        let index = tmp("long-index.algas");
        run_ok(&[
            "gen",
            "--out",
            &base,
            "--queries",
            &queries,
            "--n",
            "300",
            "--nq",
            "100",
            "--dim",
            "8",
            "--seed",
            "5",
        ]);
        run_ok(&["build", "--base", &base, "--graph", "cagra", "--out", &index]);
        let repeat = QUEUE_CAPACITY / 100 + 2;
        let msg = run_ok(&[
            "stats",
            "--index",
            &index,
            "--queries",
            &queries,
            "--workers",
            "1",
            "--repeat",
            &repeat.to_string(),
        ]);
        let stats = Value::parse(msg.trim()).expect("stats output parses");
        let total = (100 * repeat) as u64;
        assert!(total > QUEUE_CAPACITY as u64);
        assert_eq!(stat(&stats, &["queries", "completed"]), total);
        assert_eq!(stat(&stats, &["queries", "rejected_queue_full"]), 0);
        for p in [base, queries, index] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// `search` seeds as the paper does, and `--entry-policy hashed`
    /// names exactly that; a serving session on an index built without
    /// entry data seeds from the LSH table unless told `hashed`.
    #[test]
    fn search_defaults_to_hashed_seeds_and_serving_to_the_table() {
        let base = tmp("d-base.fvecs");
        let queries = tmp("d-q.fvecs");
        let index = tmp("d-index.algas");
        let (plain, hashed, qlog) = (tmp("d-plain.ivecs"), tmp("d-hashed.ivecs"), tmp("d-ql"));
        run_ok(&[
            "gen",
            "--out",
            &base,
            "--queries",
            &queries,
            "--n",
            "600",
            "--nq",
            "24",
            "--dim",
            "12",
            "--seed",
            "17",
        ]);
        run_ok(&["build", "--base", &base, "--graph", "cagra", "--out", &index]);
        let msg = run_ok(&["info", "--index", &index]);
        assert!(msg.contains("entry: none (serving builds the LSH table at load)"), "{msg}");

        let search = |out: &str, policy: &[&str]| {
            let mut args = vec!["search", "--index", &index, "--queries", &queries, "--out", out];
            args.extend_from_slice(policy);
            run_ok(&args);
        };
        search(&plain, &[]);
        search(&hashed, &["--entry-policy", "hashed"]);
        assert_eq!(std::fs::read(&plain).unwrap(), std::fs::read(&hashed).unwrap());

        for (policy, entry) in
            [(&[][..], "hash_table"), (&["--entry-policy", "hashed"][..], "hashed")]
        {
            let mut args = vec!["serve", "--index", &index, "--queries", &queries, "--slots", "4"];
            args.extend_from_slice(&["--repeat", "2", "--query-log", &qlog, "--qlog-sample", "1"]);
            args.extend_from_slice(policy);
            run_ok(&args);
            let lines = std::fs::read_to_string(&qlog).expect("query log written");
            if cfg!(feature = "obs") {
                assert_eq!(lines.lines().count(), 48, "{lines}");
                let tag = format!("\"entry\":\"{entry}\"");
                assert!(lines.lines().all(|l| l.contains(&tag)), "{policy:?}: {lines}");
            } else {
                assert!(lines.is_empty(), "{lines}");
            }
        }

        for p in [base, queries, index, plain, hashed, qlog] {
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
            "serve",
            "--index",
            &index,
            "--queries",
            &queries,
            "--trace-threshold-us",
            "0",
            "--trace-out",
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

    /// Sends `n` pipelined SEARCHes stamped with `client_ts_us = 1 + id`
    /// over each of `conns` connections to a `serve --net` endpoint, one
    /// connection after another (ids run on across them), and checks
    /// that each connection gets back exactly its ids, as RESULTs.
    fn drive_wire(addr: &str, queries: &str, conns: u64, n: u64) {
        use algas_core::net::client::{NetClient, Reply};
        let queries = load_fvecs(queries).unwrap();
        for c in 0..conns {
            let mut client = NetClient::connect(addr).expect("connect");
            client.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
            let ids = c * n..(c + 1) * n;
            for id in ids.clone() {
                let query = queries.get(id as usize % queries.len());
                client.send_search_ts(id, query, 1 + id).expect("send");
            }
            let mut replied: Vec<u64> = ids
                .clone()
                .map(|_| match client.recv().expect("recv") {
                    Reply::Result { request_id, .. } => request_id,
                    other => panic!("expected RESULT, got {other:?}"),
                })
                .collect();
            replied.sort_unstable();
            assert_eq!(replied, ids.collect::<Vec<u64>>());
        }
    }

    /// The body of a `GET path` against a `--listen` endpoint, which
    /// must answer 200 (the server closes after each response).
    fn http_get_body(addr: &str, path: &str) -> String {
        use std::io::Read;
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").expect("HTTP response");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        body.to_string()
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

        drive_wire(&addr, &queries, 2, 32);

        serve_thread.join().unwrap().expect("serve exits cleanly");
        let text = serve_out.text();
        // No local drive ran, but the net summary reflects the wire
        // traffic.
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

        // Serve with a stats listener and a linger long enough to
        // scrape a live profile.
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
        let profile = http_get_body(&addr, "/profile?seconds=0.3");
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

        // Two connections of 40 pipelined, client-stamped SEARCHes.
        drive_wire(&addr, &queries, 2, 40);

        serve_thread.join().unwrap().expect("serve exits cleanly");
        let text = serve_out.text();
        assert!(text.contains("query-log line(s) to"), "{text}");
        let lines: Vec<String> = std::fs::read_to_string(&qlog)
            .expect("query log written")
            .lines()
            .map(|l| l.to_string())
            .collect();
        if cfg!(feature = "obs") {
            // Every completed request (40 per connection) landed as one
            // wide-event JSON line carrying its wire identity.
            assert_eq!(lines.len(), 80, "{text}");
            assert!(text.contains("query log: 80 logged, 0 dropped"), "{text}");
            for line in &lines {
                assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
                for key in ["\"request_id\":", "\"conn\":", "\"queue_ns\":", "\"status\":\"ok\""] {
                    assert!(line.contains(key), "{key} missing in {line}");
                }
            }
            // Each SEARCH's client-send stamp came back out under its
            // wire id, and every id landed.
            let mut ids: Vec<u64> = lines
                .iter()
                .map(|l| {
                    let doc = Value::parse(l).expect("query-log line parses");
                    let id = stat(&doc, &["request_id"]);
                    assert_eq!(stat(&doc, &["client_ts_us"]), 1 + id, "{l}");
                    id
                })
                .collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..80).collect::<Vec<u64>>());
        } else {
            assert!(lines.is_empty(), "{lines:?}");
        }

        for p in [base, queries, index, qlog] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// A listener that cannot bind fails `serve` before the query-log
    /// writer starts: no file is created and no thread keeps the
    /// runtime alive.
    #[test]
    fn serve_bind_failure_leaves_no_query_log() {
        let base = tmp("b-base.fvecs");
        let queries = tmp("b-q.fvecs");
        let index = tmp("b-index.algas");
        let qlog = tmp("b-qlog.ndjson");
        run_ok(&["gen", "--out", &base, "--queries", &queries, "--n", "200", "--nq", "4"]);
        run_ok(&["build", "--base", &base, "--out", &index]);
        // A port this test holds: `--net` gets "address in use".
        let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = taken.local_addr().unwrap().to_string();
        let args: Vec<String> = [
            "serve",
            "--index",
            &index,
            "--queries",
            &queries,
            "--query-log",
            &qlog,
            "--net",
            &addr,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        assert!(err.starts_with(&format!("--net {addr}: ")), "{err}");
        assert!(!std::path::Path::new(&qlog).exists(), "bind failure left {qlog} behind");
        for p in [base, queries, index] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn serve_error_after_the_query_log_starts_still_flushes_it() {
        let base = tmp("f-base.fvecs");
        let queries = tmp("f-q.fvecs");
        let index = tmp("f-index.algas");
        let qlog = tmp("f-qlog.ndjson");
        run_ok(&["gen", "--out", &base, "--queries", &queries, "--n", "200", "--nq", "16"]);
        run_ok(&["build", "--base", &base, "--out", &index]);
        let stats_json = "/nonexistent-dir/x.json";
        let args: Vec<String> = [
            "serve",
            "--index",
            &index,
            "--queries",
            &queries,
            "--repeat",
            "1",
            "--query-log",
            &qlog,
            "--stats-json",
            stats_json,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        assert!(err.starts_with(&format!("{stats_json}: ")), "{err}");
        // The teardown still stopped the writer, whose final drain and
        // flush put every served query in the file.
        let logged = std::fs::read_to_string(&qlog).unwrap();
        assert_eq!(logged.lines().count(), 16, "one line per query served");
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
        // A zero size is refused by name, before any file is touched: the
        // paths below do not exist.
        let missing = "/nonexistent/algas-cli-test";
        let gen = ["gen", "--out", missing];
        let gt = ["gt", "--base", missing, "--queries", missing, "--out", missing];
        let build = ["build", "--base", missing, "--out", missing];
        let search = ["search", "--index", missing, "--queries", missing];
        let serve = ["serve", "--index", missing, "--queries", missing];
        let stats = ["stats", "--index", missing, "--queries", missing];
        let args_of = |cmd: &[&str], extra: &[&str]| -> Vec<String> {
            cmd.iter().chain(extra).map(|&a| a.into()).collect()
        };
        for (cmd, flag) in [
            (&gen[..], "n"),
            (&gen, "dim"),
            (&gen, "clusters"),
            (&gt, "k"),
            (&build, "degree"),
            (&search, "k"),
            (&serve, "workers"),
            (&serve, "hosts"),
            (&serve, "slots"),
            (&serve, "k"),
            (&serve, "l"),
            (&serve, "slo-us"),
            (&stats, "workers"),
            (&stats, "slo-us"),
        ] {
            let args = args_of(cmd, &[&format!("--{flag}"), "0"]);
            assert_eq!(run(&args, &mut out).unwrap_err(), format!("--{flag} must be ≥ 1"));
        }
        // So is a TopK deeper than the candidate list.
        for (cmd, extra, err) in [
            (&serve[..], &["--k", "20", "--l", "8"][..], "--k 20 must be ≤ --l 8"),
            (&search, &["--k", "100"], "--k 100 must be ≤ --l 64"),
        ] {
            assert_eq!(run(&args_of(cmd, extra), &mut out).unwrap_err(), err);
        }
        // The binary carries no client: load generation is `algas-perf`'s
        // and a profile capture is a GET of `/profile`.
        for cmd in ["bench-net", "profile"] {
            let err = run(&args_of(&[cmd], &["--addr", "127.0.0.1:9"]), &mut out).unwrap_err();
            assert!(err.starts_with(&format!("unknown command `{cmd}`")), "{err}");
        }
        // A mistyped or retired flag is refused by name, on every command.
        for cmd in "gen gt build info search serve stats trace-check".split(' ') {
            for flag in ["--qlog-sampel", "--trace-top"] {
                let err = run(&[cmd.into(), flag.into(), "8".into()], &mut out).unwrap_err();
                assert_eq!(err, format!("unknown flag {flag} for {cmd}"));
            }
        }
        // The sampler rate, the window period and the query log's slow
        // threshold are constants, not flags.
        for (flag, value) in
            [("--prof-hz", "97"), ("--window-period-ms", "250"), ("--qlog-slow-us", "1")]
        {
            let err = run(&args_of(&serve, &[flag, value]), &mut out).unwrap_err();
            assert_eq!(err, format!("unknown flag {flag} for serve"));
        }
        // A query file of another dimension is refused by name on every
        // command that drives queries, not by a panic in the runtime.
        // `--queries` is the local drive's input: `serve` needs it
        // unless `--repeat 0` leaves nothing to drive.
        let (base, narrow, index) = (tmp("dim-base.fvecs"), tmp("dim-q.fvecs"), tmp("dim.algas"));
        run_ok(&["gen", "--out", &base, "--n", "200", "--dim", "12", "--seed", "3"]);
        run_ok(&["gen", "--out", &narrow, "--n", "8", "--dim", "8", "--clusters", "2"]);
        run_ok(&["build", "--base", &base, "--out", &index]);
        for cmd in [&["search"][..], &["serve", "--repeat", "1"], &["stats"]] {
            let args = args_of(cmd, &["--index", &index, "--queries", &narrow]);
            assert_eq!(run(&args, &mut out).unwrap_err(), "query dim 8 != index dim 12");
        }
        let err = run(&args_of(&["serve", "--index", &index], &[]), &mut out).unwrap_err();
        assert_eq!(err, "missing required --queries");
        let msg = run_ok(&["serve", "--index", &index, "--repeat", "0"]);
        assert!(!msg.contains("served"), "{msg}");
        for p in [base, narrow, index] {
            let _ = std::fs::remove_file(p);
        }
        // An index whose header claims a 1 TiB corpus is refused by
        // section (exit 2), not by an allocation abort.
        let lying = tmp("lying.alix");
        let mut file = 0x414C_4958u32.to_le_bytes().to_vec(); // "ALIX"
        file.extend_from_slice(&4u32.to_le_bytes());
        file.extend_from_slice(&[0, 1, 0, 0, 0, 0]); // l2, cagra, medoid 0
        file.extend_from_slice(&(1u64 << 40).to_le_bytes());
        file.extend_from_slice(&[0; 32]); // no graph, permutation, codes or entry
        std::fs::write(&lying, &file).unwrap();
        let err = run(&args_of(&["info", "--index", &lying], &[]), &mut out).unwrap_err();
        let _ = std::fs::remove_file(&lying);
        assert!(err.contains("truncated corpus section"), "{err}");
    }
}
