//! One benchmark run: three full set-ups, each serving child measured
//! for a third of the run's seconds, every reply checked, the records
//! turned into metrics. In the traced run the last child carries the
//! query log and the scrapes, the earlier ones are its untraced
//! reference, and the per-layer replay follows.

use crate::child::{http_get, timed, Layout, Server, TempDir};
use crate::generator::{Corpus, Generator, Outcome, Record};
use crate::json::{self, Value};
use crate::stats::{median, percentile, sorted};
use crate::workload::{self, Shape, Workload};
use crate::{schedule, trace};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

/// Name and unit of every end-to-end metric, in printing order.
/// `BENCHMARK.json` lists the same names (pinned by a test).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("completed_qps", "1/s"),
    ("recall_at_10", "ratio"),
    ("server_cpu_ms_per_query", "ms"),
    ("server_peak_rss_mb", "MB"),
    ("index_mb", "MB"),
];

/// Name and unit of every per-layer metric of the traced run.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("e2e.goodput_qps", "1/s"),
    ("e2e.failed_share", "ratio"),
    ("e2e.refused_share", "ratio"),
    ("e2e.latency_p50_us", "us"),
    ("e2e.latency_p99_us", "us"),
    ("e2e.unloaded_rtt_us_p50", "us"),
    ("gen.lateness_us_p99", "us"),
    ("gen.unsent", "count"),
    ("net.rtt_overhead_us_p50", "us"),
    ("net.rtt_overhead_us_p99", "us"),
    ("net.ping_rtt_us_p50", "us"),
    ("net.codec_ns_per_query", "ns"),
    ("net.retry_after_total", "count"),
    ("net.protocol_errors", "count"),
    ("net.backlog_high_water", "count"),
    ("net.retry_backoff_us_p50", "us"),
    ("net.busy_share", "ratio"),
    ("runtime.queue_us_p50", "us"),
    ("runtime.queue_us_p99", "us"),
    ("runtime.dispatch_us_p50", "us"),
    ("runtime.dispatch_us_p99", "us"),
    ("runtime.host_pickup_us_p50", "us"),
    ("runtime.host_pickup_us_p99", "us"),
    ("runtime.deliver_us_p50", "us"),
    ("runtime.rejected_queue_full", "count"),
    ("runtime.slots_occupied_mean", "count"),
    ("runtime.worker_busy_share", "ratio"),
    ("runtime.host_busy_share", "ratio"),
    ("search.work_us_p50", "us"),
    ("search.work_us_p99", "us"),
    ("search.direct_us_per_query", "us"),
    ("search.hops_per_query", "count"),
    ("search.dist_evals_per_query", "count"),
    ("search.sorts_per_query", "count"),
    ("search.sort_fraction", "ratio"),
    ("search.entry_distance_mean", "dist"),
    ("vector.f32_ns_per_eval", "ns"),
    ("vector.sq8_ns_per_eval", "ns"),
    ("vector.distance_share", "ratio"),
    ("merge.us_per_query", "us"),
    ("merge.elements_per_query", "count"),
    ("rerank.us_per_query", "us"),
    ("rerank.candidates_per_query", "count"),
    ("rerank.promotions_per_query", "count"),
    ("control.level_final", "count"),
    ("control.sheds", "count"),
    ("control.restores", "count"),
    ("control.window_p99_us", "us"),
    ("graph.build_s", "s"),
    ("vector.gen_s", "s"),
    ("vector.gt_s", "s"),
    ("persist.load_s", "s"),
    ("obs.trace_overhead_p50_pct", "%"),
    ("obs.qlog_dropped", "count"),
    ("obs.qlog_joined_share", "ratio"),
    ("obs.scrape_ms", "ms"),
    ("traced.latency_p50_us", "us"),
    ("traced.latency_p90_us", "us"),
    ("traced.completed_qps", "1/s"),
    ("traced.server_cpu_ms_per_query", "ms"),
    ("self.client_rtt_us_mean", "us"),
    ("self.server_e2e_us_mean", "us"),
    ("self.search_work_us_mean", "us"),
    ("self.runtime_us_mean", "us"),
];

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    /// Every reply passed its checks, none was lost and recall held its floor.
    pub correct: bool,
    /// Why not, when not.
    pub problems: Vec<String>,
    /// Requests scheduled in the measured window.
    pub attempted: u64,
    /// Of those: ERROR frames, malformed RESULTs, lost and unsent requests.
    /// A RETRY_AFTER is the protocol's checked answer under overload, not a
    /// failure; `completed_qps` and `e2e.refused_share` carry it.
    pub failed: u64,
    /// The contract's metrics: end-to-end (untraced) or per-layer (traced).
    pub metrics: Vec<Metric>,
    /// Client-side figures printed beside them but not part of the contract.
    pub extras: Vec<Metric>,
    /// Provenance, rendered as a JSON object.
    pub stamp: String,
}

/// Wall seconds of the four set-up steps.
#[derive(Clone, Copy)]
struct SetupTimes {
    gen_s: f64,
    gt_s: f64,
    build_s: f64,
    load_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.gen_s + self.gt_s + self.build_s + self.load_s
    }
}

struct Files {
    base: String,
    queries: String,
    truth: String,
    index: String,
    qlog: String,
}

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

/// One full set-up: corpus, exact ground truth, index, serving child up
/// to `/readyz`. Returns the child, the step times and the command lines.
fn set_up(
    algas: &Path,
    dir: &TempDir,
    files: &Files,
    opts: &Options,
    shape: Shape,
    with_query_log: bool,
    tag: &str,
) -> Result<(Server, SetupTimes, Vec<String>), String> {
    let wl = opts.workload;
    let mut gen =
        strings(&["gen", "--out", &files.base, "--queries", &files.queries, "--metric", "l2"]);
    for (flag, v) in [("--n", shape.n), ("--nq", shape.nq), ("--dim", shape.dim)] {
        gen.extend([flag.to_string(), v.to_string()]);
    }
    gen.extend(["--seed".to_string(), workload::CORPUS_SEED.to_string()]);
    let gt = strings(&[
        "gt",
        "--base",
        &files.base,
        "--queries",
        &files.queries,
        "--metric",
        "l2",
        "--k",
        &workload::K.to_string(),
        "--out",
        &files.truth,
    ]);
    let mut build = strings(&[
        "build",
        "--base",
        &files.base,
        "--metric",
        "l2",
        "--graph",
        "cagra",
        "--out",
        &files.index,
    ]);
    build.extend(strings(wl.build));
    let mut serve = strings(&[
        "--index",
        &files.index,
        "--queries",
        &files.queries,
        "--k",
        &workload::K.to_string(),
        "--l",
        &workload::L.to_string(),
        "--slots",
        "16",
        "--workers",
        "1",
        "--hosts",
        "1",
        "--net",
        "127.0.0.1:0",
        "--listen",
        "127.0.0.1:0",
        "--repeat",
        "0",
        "--linger-ms",
        "3600000",
    ]);
    serve.extend(strings(wl.serve));
    if with_query_log {
        serve.extend(strings(&["--query-log", &files.qlog, "--qlog-sample", "1"]));
    }
    let (_, gen_s) = timed(algas, &gen)?;
    let (_, gt_s) = timed(algas, &gt)?;
    let (_, build_s) = timed(algas, &build)?;
    let t0 = Instant::now();
    let server = Server::spawn(algas, &serve, dir, tag)?;
    let load_s = t0.elapsed().as_secs_f64();
    let lines =
        [gen, gt, build].iter().map(|a| format!("algas {}", a.join(" "))).collect::<Vec<_>>();
    let lines = lines.into_iter().chain([server.command_line.clone()]).collect();
    Ok((server, SetupTimes { gen_s, gt_s, build_s, load_s }, lines))
}

/// Reads `.fvecs` (per row: `i32` dimension, then that many `f32`) as
/// the little-endian bytes of each row.
fn read_fvecs_le(path: &str, dim: usize) -> Result<Vec<Vec<u8>>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let row = 4 + dim * 4;
    if bytes.is_empty() || bytes.len() % row != 0 {
        return Err(format!("{path}: {} bytes is not rows of dimension {dim}", bytes.len()));
    }
    bytes
        .chunks_exact(row)
        .map(|r| {
            let d = i32::from_le_bytes(r[..4].try_into().expect("4 bytes"));
            if d as usize != dim {
                return Err(format!("{path}: row of dimension {d}, expected {dim}"));
            }
            Ok(r[4..].to_vec())
        })
        .collect()
}

/// Reads `.ivecs` rows of exactly `k` ids.
fn read_ivecs(path: &str, k: usize) -> Result<Vec<Vec<u32>>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let row = 4 + k * 4;
    if bytes.is_empty() || bytes.len() % row != 0 {
        return Err(format!("{path}: {} bytes is not rows of {k} ids", bytes.len()));
    }
    Ok(bytes
        .chunks_exact(row)
        .map(|r| {
            r[4..]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect()
        })
        .collect())
}

/// What the traced run scrapes from the child's HTTP pages.
struct Scrapes {
    start: Value,
    end: Value,
    /// Folded stacks of `/profile` over the middle of the window.
    profile: String,
    /// Milliseconds the `/stats.json` GETs took (both).
    scrape_ms: Vec<f64>,
}

/// What one serving child's share of the run produced.
struct Window {
    /// Measured requests only (due inside the window); times are ns from
    /// the start of the schedule, warm-up included.
    records: Vec<Record>,
    /// Wire id of `records[0]`.
    first_id: u64,
    seconds: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    ping_ns: Vec<u64>,
    unloaded_ns: Vec<u64>,
    scrapes: Option<Scrapes>,
    first_failure: Option<String>,
}

fn scrape(
    server_http: std::net::SocketAddr,
    origin: Instant,
    seconds: f64,
) -> Result<Scrapes, String> {
    let sleep_until = |s: f64| {
        let at = origin + Duration::from_secs_f64(s);
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
    };
    let stats = |ms: &mut Vec<f64>| -> Result<Value, String> {
        let (body, took) = http_get(server_http, "/stats.json", 5.0)?;
        ms.push(took);
        json::parse(&body).map_err(|e| format!("/stats.json: {e}"))
    };
    let mut scrape_ms = Vec::new();
    sleep_until(workload::WARMUP_S);
    let start = stats(&mut scrape_ms)?;
    // The profile capture blocks for its span; centre it in the window.
    let span = seconds / 2.0;
    sleep_until(workload::WARMUP_S + (seconds - span) / 2.0);
    let (profile, _) = http_get(server_http, &format!("/profile?seconds={span}"), span + 10.0)?;
    sleep_until(workload::WARMUP_S + seconds);
    let end = stats(&mut scrape_ms)?;
    Ok(Scrapes { start, end, profile, scrape_ms })
}

/// Pings, the unloaded closed loop, then warm-up and `seconds` of
/// measured window of the open-loop schedule against `server`.
fn drive(
    server: &mut Server,
    corpus: &Corpus,
    opts: &Options,
    seconds: f64,
    schedule_seed: u64,
    with_scrapes: bool,
) -> Result<Window, String> {
    let mut generator = Generator::connect(server.net)?;
    let ping_ns = generator.ping(workload::PINGS)?;
    let unloaded_ns =
        generator.closed_loop(corpus, Duration::from_secs_f64(workload::UNLOADED_S))?;
    let span_s = workload::WARMUP_S + seconds;
    let due = schedule::poisson_due_ns(opts.workload.rate_qps, span_s, schedule_seed);
    let window_start = (workload::WARMUP_S * 1e9) as u64;
    let marks = [window_start, (span_s * 1e9) as u64];
    let (mut cpu, mut rss) = ([0.0; 2], 0.0);
    let http = server.http;
    let (records, scrapes) = std::thread::scope(|scope| {
        let origin = Instant::now();
        let scraper = with_scrapes.then(|| scope.spawn(move || scrape(http, origin, seconds)));
        let records = generator.open_loop(corpus, &due, &marks, |mark| {
            server.check_alive()?;
            cpu[mark] = server.cpu_seconds()?;
            if mark == 1 {
                rss = server.peak_rss_mb()?;
            }
            Ok(())
        });
        let scrapes = match scraper {
            Some(handle) => Some(handle.join().map_err(|_| "scraper thread panicked".to_string())?),
            None => None,
        };
        Ok::<_, String>((records, scrapes))
    })?;
    let records = records.map_err(|e| format!("{e}\n{}", server.log_tail()))?;
    server.check_alive()?;
    let first = records.partition_point(|r| r.due_ns < window_start);
    Ok(Window {
        records: records[first..].to_vec(),
        first_id: first as u64,
        seconds,
        cpu_s: cpu[1] - cpu[0],
        peak_rss_mb: rss,
        ping_ns,
        unloaded_ns,
        scrapes: scrapes.transpose()?,
        first_failure: generator.first_failure,
    })
}

fn us(ns: &[u64]) -> Vec<f64> {
    sorted(&ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>())
}

fn need_percentile(sorted_us: &[f64], p: f64, what: &str) -> Result<f64, String> {
    percentile(sorted_us, p).ok_or_else(|| {
        format!(
            "{what}: {} samples do not support p{}; measure for longer",
            sorted_us.len(),
            p * 100.0
        )
    })
}

/// Answered requests a slice of a window should hold: the fewest whose
/// p90 has ten samples beyond it.
const SLICE_SAMPLES: usize = 110;

/// p50 and p90 of the window's quietest slice: the window is cut into
/// slices of equal span holding about [`SLICE_SAMPLES`] answered requests
/// each, the percentile is taken in every slice, and the lowest is kept.
///
/// Why not the whole-window percentile: this benchmark runs on a shared
/// 2-vCPU machine where, measured with nothing else running, a spinning
/// thread loses 5 to 8 % of its time in gaps of 0.2 to 30 ms, and raw
/// single-thread speed drifts by ±13 % from one second to the next. That
/// interference only ever adds latency, in bursts, so the slice it
/// touched least is the best view of what the program itself does; over
/// ten runs its spread was 0.06 to 0.15 where the whole-window median
/// had 0.11 to 0.24 and the whole-window p99 0.2 to 6. The whole-window
/// figures are printed beside the metrics. `samples` are `(due_ns, µs)`
/// in due order.
fn quietest_slice(samples: &[(u64, f64)], window: (u64, u64)) -> Option<(f64, f64)> {
    let (start, end) = window;
    let slices = (samples.len() / SLICE_SAMPLES).max(1) as u64;
    let span = (end - start).div_ceil(slices);
    let mut best: Option<(f64, f64)> = None;
    for j in 0..slices {
        let lo = samples.partition_point(|s| s.0 < start + j * span);
        let hi = samples.partition_point(|s| s.0 < start + (j + 1) * span);
        let values = sorted(&samples[lo..hi].iter().map(|s| s.1).collect::<Vec<_>>());
        if let (Some(p50), Some(p90)) = (percentile(&values, 0.5), percentile(&values, 0.9)) {
            best = Some(best.map_or((p50, p90), |(a, b)| (a.min(p50), b.min(p90))));
        }
    }
    best
}

/// Client-side figures of one window.
struct Summary {
    seconds: f64,
    attempted: u64,
    ok: u64,
    refused: u64,
    failed: u64,
    unsent: u64,
    hits: u64,
    cpu_s: f64,
    peak_rss_mb: f64,
    quiet_p50_us: f64,
    quiet_p90_us: f64,
    /// Due-time latency of every answered request, ascending, µs.
    latency_us: Vec<f64>,
    /// Send time minus due time of every sent request, ascending, µs.
    lateness_us: Vec<f64>,
}

fn summarize(w: &Window) -> Result<Summary, String> {
    let count = |o: Outcome| w.records.iter().filter(|r| r.outcome == o).count() as u64;
    let answered: Vec<&Record> = w.records.iter().filter(|r| r.outcome == Outcome::Ok).collect();
    let window_start = (workload::WARMUP_S * 1e9) as u64;
    let window = (window_start, window_start + (w.seconds * 1e9) as u64);
    let latency: Vec<(u64, f64)> =
        answered.iter().map(|r| (r.due_ns, (r.reply_ns - r.due_ns) as f64 / 1e3)).collect();
    let (quiet_p50_us, quiet_p90_us) = quietest_slice(&latency, window).ok_or_else(|| {
        format!("{} answered requests in {} s support no p90", answered.len(), w.seconds)
    })?;
    let sent = w.records.iter().filter(|r| r.outcome != Outcome::Unsent);
    Ok(Summary {
        seconds: w.seconds,
        attempted: w.records.len() as u64,
        ok: answered.len() as u64,
        refused: count(Outcome::Refused),
        failed: count(Outcome::Failed) + count(Outcome::Lost) + count(Outcome::Unsent),
        unsent: count(Outcome::Unsent),
        hits: answered.iter().map(|r| r.hits as u64).sum(),
        cpu_s: w.cpu_s,
        peak_rss_mb: w.peak_rss_mb,
        quiet_p50_us,
        quiet_p90_us,
        latency_us: sorted(&latency.iter().map(|l| l.1).collect::<Vec<_>>()),
        lateness_us: us(&sent.map(|r| r.sent_ns - r.due_ns).collect::<Vec<_>>()),
    })
}

/// The figures of a run: its windows (one per serving child) together.
/// Counts add up. Latency, throughput and CPU cost are those of the
/// least disturbed child — the same reasoning as [`quietest_slice`] one
/// level up: a child whose threads landed badly, or that ran while the
/// box was busy elsewhere, can only look worse than the program is.
struct Combined {
    attempted: u64,
    ok: u64,
    refused: u64,
    failed: u64,
    unsent: u64,
    latency_p50_us: f64,
    latency_p90_us: f64,
    completed_qps: f64,
    goodput_qps: f64,
    recall: f64,
    cpu_ms_per_query: f64,
    peak_rss_mb: f64,
    lateness_us_p99: f64,
    /// Percentiles over every answered request of every window.
    whole_p50_us: f64,
    whole_p99_us: f64,
    whole_max_us: f64,
    lateness_max_us: f64,
}

fn combine(windows: &[Summary]) -> Result<Combined, String> {
    let sum = |f: &dyn Fn(&Summary) -> u64| windows.iter().map(f).sum::<u64>();
    let seconds: f64 = windows.iter().map(|w| w.seconds).sum();
    let ok = sum(&|w| w.ok);
    let whole =
        sorted(&windows.iter().flat_map(|w| w.latency_us.iter().copied()).collect::<Vec<_>>());
    let within = whole.partition_point(|&l| l <= workload::LIMIT_US);
    let lateness =
        sorted(&windows.iter().flat_map(|w| w.lateness_us.iter().copied()).collect::<Vec<_>>());
    Ok(Combined {
        attempted: sum(&|w| w.attempted),
        ok,
        refused: sum(&|w| w.refused),
        failed: sum(&|w| w.failed),
        unsent: sum(&|w| w.unsent),
        latency_p50_us: windows.iter().map(|w| w.quiet_p50_us).fold(f64::INFINITY, f64::min),
        latency_p90_us: windows.iter().map(|w| w.quiet_p90_us).fold(f64::INFINITY, f64::min),
        completed_qps: windows.iter().map(|w| w.ok as f64 / w.seconds).fold(0.0, f64::max),
        goodput_qps: within as f64 / seconds,
        recall: sum(&|w| w.hits) as f64 / (ok as f64 * workload::K as f64),
        cpu_ms_per_query: windows
            .iter()
            .map(|w| w.cpu_s * 1e3 / w.ok as f64)
            .fold(f64::INFINITY, f64::min),
        peak_rss_mb: windows.iter().map(|w| w.peak_rss_mb).fold(0.0, f64::max),
        lateness_us_p99: need_percentile(&lateness, 0.99, "lateness")?,
        whole_p50_us: need_percentile(&whole, 0.5, "latency")?,
        whole_p99_us: need_percentile(&whole, 0.99, "latency")?,
        whole_max_us: *whole.last().expect("a percentile exists"),
        lateness_max_us: lateness.last().copied().unwrap_or(0.0),
    })
}

/// `1 − idle/total` of the `/profile` samples of the thread labelled `label`.
fn busy_share(profile: &str, label: &str) -> Option<f64> {
    let (mut idle, mut total) = (0.0, 0.0);
    for line in profile.lines() {
        let Some((stack, count)) = line.rsplit_once(' ') else { continue };
        let mut frames = stack.split(';');
        let (Some(_kind), Some(l), Some(state)) = (frames.next(), frames.next(), frames.next())
        else {
            continue;
        };
        let Ok(count) = count.parse::<f64>() else { continue };
        if l == label {
            total += count;
            if state == "idle" {
                idle += count;
            }
        }
    }
    (total > 0.0).then(|| 1.0 - idle / total)
}

/// What the replay program printed.
struct Replay {
    kernel: String,
    doc: Value,
}

fn run_replay(
    bin: &Path,
    files: &Files,
    wl: &Workload,
    n_parallel: Option<u64>,
) -> Result<Replay, String> {
    let mut args = strings(&[
        "--index",
        &files.index,
        "--queries",
        &files.queries,
        "--k",
        &workload::K.to_string(),
        "--l",
        &workload::L.to_string(),
        "--entry-policy",
        wl.entry_policy(),
    ]);
    if let Some(n) = n_parallel {
        args.extend(["--n-parallel".to_string(), n.to_string()]);
    }
    let (out, _) = timed(bin, &args)?;
    let doc = json::parse(out.trim()).map_err(|e| format!("replay output: {e}: {out}"))?;
    let kernel = doc.get("kernel").and_then(Value::as_str).unwrap_or("unknown").to_string();
    Ok(Replay { kernel, doc })
}

/// SIMD capabilities the CPU advertises, for the stamp of runs that do
/// not link the library and so cannot ask it which kernel it picked.
fn cpu_simd() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags =
        info.lines().find(|l| l.starts_with("flags") || l.starts_with("Features")).unwrap_or("");
    let have: Vec<&str> = ["avx512f", "avx2", "fma", "sse4_2", "asimd"]
        .into_iter()
        .filter(|f| flags.split_whitespace().any(|x| x == *f))
        .collect();
    if have.is_empty() {
        "unknown".into()
    } else {
        have.join("+")
    }
}

fn stamp(
    layout: &Layout,
    opts: &Options,
    shape: Shape,
    kernel: Option<&str>,
    commands: &[String],
) -> String {
    let q = json::quote;
    let commands: Vec<String> = commands.iter().map(|c| q(c)).collect();
    format!(
        "{{\"commit\":{},\"nproc\":{},\"cpu_simd\":{},\"simd_kernel\":{},\"rustc\":{},\"workload\":{},\
         \"seed\":{},\"seconds\":{},\"traced\":{},\"corpus\":{{\"n\":{},\"dim\":{},\"nq\":{}}},\
         \"k\":{},\"l\":{},\"rate_qps\":{},\"limit_us\":{},\"warmup_s\":{},\"commands\":[{}]}}",
        q(&crate::child::first_line_of("git", &["rev-parse", "HEAD"], &layout.root)),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        q(&cpu_simd()),
        kernel.map_or("null".to_string(), q),
        q(&crate::child::first_line_of("rustc", &["--version"], &layout.root)),
        q(opts.workload.name),
        opts.seed,
        opts.seconds,
        opts.traced,
        shape.n,
        shape.dim,
        shape.nq,
        workload::K,
        workload::L,
        opts.workload.rate_qps,
        workload::LIMIT_US,
        workload::WARMUP_S,
        commands.join(","),
    )
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    median(&sorted(&values.collect::<Vec<_>>())).expect("at least one set-up")
}

pub fn run(layout: &Layout, opts: &Options) -> Result<Report, String> {
    let algas = layout.build_algas()?;
    let replay_bin = if opts.traced { Some(layout.build_replay()?) } else { None };
    let shape = if opts.smoke { workload::SMOKE_CORPUS } else { workload::CORPUS };
    let dir =
        TempDir::create(layout.target.join("perf-work").join(std::process::id().to_string()))?;
    let files = Files {
        base: dir.file("base.fvecs"),
        queries: dir.file("queries.fvecs"),
        truth: dir.file("truth.ivecs"),
        index: dir.file("index.algas"),
        qlog: dir.file("qlog.ndjson"),
    };

    // SETUPS full set-ups, each child serving an equal share of the
    // measured seconds: `setup_s` and the latencies are medians over the
    // children. In the traced run the last child carries the tracing and
    // the ones before it are the untraced reference.
    let window_s = opts.seconds / workload::SETUPS as f64;
    let mut times = Vec::new();
    let mut summaries = Vec::new();
    let mut corpus = None;
    let mut problems = Vec::new();
    let mut commands = Vec::new();
    let mut traced = None;
    for rep in 0..workload::SETUPS {
        let tracing = opts.traced && rep + 1 == workload::SETUPS;
        let (mut server, t, lines) =
            set_up(&algas, &dir, &files, opts, shape, tracing, &rep.to_string())?;
        times.push(t);
        commands = lines;
        let corpus = match &mut corpus {
            Some(c) => c,
            none => none.insert(Corpus {
                queries_le: read_fvecs_le(&files.queries, shape.dim)?,
                truth: read_ivecs(&files.truth, workload::K)?,
                order: schedule::shuffled(shape.nq, opts.seed),
                k: workload::K,
                n_base: shape.n as u32,
            }),
        };
        let schedule_seed =
            opts.seed.wrapping_mul(workload::SETUPS as u64).wrapping_add(rep as u64);
        let window = drive(&mut server, corpus, opts, window_s, schedule_seed, tracing)?;
        if let Some(f) = &window.first_failure {
            problems.push(format!("{f}\n{}", server.log_tail()));
        }
        summaries.push(summarize(&window)?);
        if tracing {
            // The file's tail may sit in the killed child's write buffer;
            // the retained tail served over HTTP covers it.
            let (http_tail, _) = http_get(server.http, "/query-log", 5.0)?;
            drop(server);
            let mut log =
                std::fs::read_to_string(&files.qlog).map_err(|e| format!("{}: {e}", files.qlog))?;
            log.push('\n');
            log.push_str(&http_tail);
            traced = Some((window, trace::parse_query_log(&log)));
        }
    }
    let index_mb =
        std::fs::metadata(&files.index).map_err(|e| format!("{}: {e}", files.index))?.len() as f64
            / (1024.0 * 1024.0);

    let all = combine(&summaries)?;
    if all.failed > 0 {
        problems.push(format!("{} request(s) failed, were lost or stayed unsent", all.failed));
    }
    if all.recall < opts.workload.recall_floor {
        problems.push(format!(
            "recall_at_10 {:.4} below the floor {}",
            all.recall, opts.workload.recall_floor
        ));
    }

    let Some((window, log)) = traced else {
        let extras = vec![
            Metric { name: "latency_p90_us", value: all.latency_p90_us, unit: "us" },
            Metric { name: "goodput_qps", value: all.goodput_qps, unit: "1/s" },
            Metric {
                name: "failed_share",
                value: (all.attempted - all.ok) as f64 / all.attempted as f64,
                unit: "ratio",
            },
            Metric { name: "refused", value: all.refused as f64, unit: "count" },
            Metric { name: "answered", value: all.ok as f64, unit: "count" },
            Metric { name: "whole_window.latency_p50_us", value: all.whole_p50_us, unit: "us" },
            Metric { name: "whole_window.latency_p99_us", value: all.whole_p99_us, unit: "us" },
            Metric { name: "whole_window.latency_max_us", value: all.whole_max_us, unit: "us" },
            Metric { name: "gen.lateness_us_p99", value: all.lateness_us_p99, unit: "us" },
            Metric { name: "gen.lateness_us_max", value: all.lateness_max_us, unit: "us" },
        ];
        let values = [
            median_of(times.iter().map(SetupTimes::total)),
            all.latency_p50_us,
            all.completed_qps,
            all.recall,
            all.cpu_ms_per_query,
            all.peak_rss_mb,
            index_mb,
        ];
        let metrics = END_TO_END.iter().zip(values).map(|(&(name, unit), value)| Metric {
            name,
            value,
            unit,
        });
        return Ok(Report {
            correct: problems.is_empty(),
            problems,
            attempted: all.attempted,
            failed: all.failed,
            metrics: metrics.collect(),
            extras,
            stamp: stamp(layout, opts, shape, None, &commands),
        });
    };

    // --- traced run: join, scrape deltas, replay -------------------------
    let reference = combine(&summaries[..summaries.len() - 1])?;
    let s = combine(&summaries[summaries.len() - 1..])?;
    let scrapes = window.scrapes.as_ref().expect("traced window scrapes");
    let mut spans = Vec::new();
    let mut joined: Vec<(&Record, &trace::ServerRecord)> = Vec::new();
    let mut answered = 0usize;
    for (i, r) in window.records.iter().enumerate().filter(|(_, r)| r.outcome == Outcome::Ok) {
        let id = window.first_id + i as u64;
        let server_record = log.get(&id);
        trace::push_request_spans(&mut spans, id, r.sent_ns, r.reply_ns, server_record);
        answered += 1;
        joined.extend(server_record.map(|sr| (r, sr)));
    }
    if joined.is_empty() {
        return Err("no answered request has a query-log record".into());
    }
    let phase_us = |i: usize| us(&joined.iter().map(|(_, sr)| sr.phase_ns[i]).collect::<Vec<_>>());
    let overhead_us = us(&joined
        .iter()
        .map(|(r, sr)| (r.reply_ns - r.sent_ns).saturating_sub(sr.e2e_ns))
        .collect::<Vec<_>>());
    let occupied_ns: u64 =
        joined.iter().map(|(_, sr)| sr.e2e_ns - sr.phase_ns[0].min(sr.e2e_ns)).sum();

    let delta = |path: &str| -> Result<f64, String> {
        Ok(scrapes.end.num(path)? - scrapes.start.num(path)?)
    };
    let workers_queries = |doc: &Value| -> f64 {
        doc.get("workers").and_then(Value::as_array).map_or(0.0, |ws| {
            ws.iter().filter_map(|w| w.get("queries").and_then(Value::as_f64)).sum()
        })
    };
    let searched = (workers_queries(&scrapes.end) - workers_queries(&scrapes.start)).max(1.0);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let cycles =
        delta("search.calc_cycles")? + delta("search.sort_cycles")? + delta("search.other_cycles")?;
    let backlog = scrapes.end.get("net_conns").and_then(Value::as_array).map_or(0.0, |cs| {
        cs.iter()
            .filter_map(|c| c.get("backlog_high_water").and_then(Value::as_f64))
            .fold(0.0, f64::max)
    });
    let controller_on = scrapes.end.path("control.enabled") == Some(&Value::Bool(true));
    let n_ctas = scrapes.end.num("control.n_ctas")? as u64;

    let replay = run_replay(
        replay_bin.as_deref().expect("traced run built the replay"),
        &files,
        opts.workload,
        controller_on.then_some(n_ctas),
    )?;
    let rp = |key: &str| replay.doc.num(key);
    let dist_evals = per(delta("search.dist_evals")?, searched);
    let quantized = opts.workload.build.contains(&"--quantize");
    let ns_per_eval = if quantized { rp("sq8_ns_per_eval")? } else { rp("f32_ns_per_eval")? };
    let merge_us = rp("merge_us")?;
    let merge_phase = phase_us(3);

    let stamp = stamp(layout, opts, shape, Some(&replay.kernel), &commands);
    let out_dir = layout.target.join("perf-out").join(opts.workload.name);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let trace_path = out_dir.join("trace.json");
    trace::write_trace(&trace_path, &stamp, &spans)?;
    eprintln!("wrote {} spans to {}", spans.len(), trace_path.display());
    let own = trace::self_times(&spans);
    let self_us_mean = |pick: &dyn Fn(&str) -> bool| {
        let total: u64 =
            spans.iter().zip(&own).filter(|(sp, _)| pick(sp.name)).map(|(_, &ns)| ns).sum();
        total as f64 / 1e3 / answered as f64
    };

    let mut values: HashMap<&str, f64> = HashMap::from([
        ("e2e.goodput_qps", s.goodput_qps),
        ("e2e.failed_share", (s.attempted - s.ok) as f64 / s.attempted as f64),
        ("e2e.refused_share", s.refused as f64 / s.attempted as f64),
        ("e2e.latency_p50_us", s.whole_p50_us),
        ("e2e.latency_p99_us", s.whole_p99_us),
        (
            "e2e.unloaded_rtt_us_p50",
            need_percentile(&us(&window.unloaded_ns), 0.5, "unloaded rtt")?,
        ),
        ("gen.lateness_us_p99", s.lateness_us_p99),
        ("gen.unsent", s.unsent as f64),
        ("net.rtt_overhead_us_p50", need_percentile(&overhead_us, 0.5, "rtt overhead")?),
        ("net.rtt_overhead_us_p99", need_percentile(&overhead_us, 0.99, "rtt overhead")?),
        ("net.ping_rtt_us_p50", need_percentile(&us(&window.ping_ns), 0.5, "ping rtt")?),
        ("net.codec_ns_per_query", rp("codec_ns")?),
        ("net.retry_after_total", delta("net.backpressure_rejects")?),
        ("net.protocol_errors", delta("net.protocol_errors")?),
        ("net.backlog_high_water", backlog),
        ("net.retry_backoff_us_p50", scrapes.end.num("retry_backoff_us.p50")?),
        ("runtime.queue_us_p50", need_percentile(&phase_us(0), 0.5, "queue")?),
        ("runtime.queue_us_p99", need_percentile(&phase_us(0), 0.99, "queue")?),
        ("runtime.dispatch_us_p50", need_percentile(&phase_us(1), 0.5, "dispatch")?),
        ("runtime.dispatch_us_p99", need_percentile(&phase_us(1), 0.99, "dispatch")?),
        ("runtime.host_pickup_us_p50", need_percentile(&merge_phase, 0.5, "merge")? - merge_us),
        ("runtime.host_pickup_us_p99", need_percentile(&merge_phase, 0.99, "merge")? - merge_us),
        ("runtime.deliver_us_p50", need_percentile(&phase_us(4), 0.5, "deliver")?),
        ("runtime.rejected_queue_full", delta("queries.rejected_queue_full")?),
        ("runtime.slots_occupied_mean", occupied_ns as f64 / (window.seconds * 1e9)),
        ("search.work_us_p50", need_percentile(&phase_us(2), 0.5, "search")?),
        ("search.work_us_p99", need_percentile(&phase_us(2), 0.99, "search")?),
        ("search.direct_us_per_query", rp("search_direct_us")?),
        ("search.hops_per_query", per(delta("search.steps")?, searched)),
        ("search.dist_evals_per_query", dist_evals),
        ("search.sorts_per_query", per(delta("search.sorts")?, searched)),
        ("search.sort_fraction", per(delta("search.sort_cycles")?, cycles)),
        (
            "search.entry_distance_mean",
            per(delta("search.entry_dist_milli_total")? / 1e3, searched),
        ),
        ("vector.f32_ns_per_eval", rp("f32_ns_per_eval")?),
        ("vector.sq8_ns_per_eval", rp("sq8_ns_per_eval")?),
        ("vector.distance_share", per(dist_evals * ns_per_eval / 1e3, rp("search_direct_us")?)),
        ("merge.us_per_query", merge_us),
        ("merge.elements_per_query", per(delta("merge.elements")?, delta("merge.merges")?)),
        ("rerank.us_per_query", if quantized { rp("rerank_us")? } else { 0.0 }),
        ("rerank.candidates_per_query", per(delta("rerank.candidates")?, delta("rerank.reranks")?)),
        ("rerank.promotions_per_query", per(delta("rerank.promotions")?, delta("rerank.reranks")?)),
        ("control.level_final", scrapes.end.num("control.level")?),
        ("control.sheds", delta("control.sheds")?),
        ("control.restores", delta("control.restores")?),
        ("control.window_p99_us", scrapes.end.num("control.last_p99_ns")? / 1e3),
        ("graph.build_s", median_of(times.iter().map(|t| t.build_s))),
        ("vector.gen_s", median_of(times.iter().map(|t| t.gen_s))),
        ("vector.gt_s", median_of(times.iter().map(|t| t.gt_s))),
        ("persist.load_s", median_of(times.iter().map(|t| t.load_s))),
        (
            "obs.trace_overhead_p50_pct",
            (s.latency_p50_us - reference.latency_p50_us) / reference.latency_p50_us * 100.0,
        ),
        ("obs.qlog_dropped", delta("qlog.dropped")?),
        ("obs.qlog_joined_share", joined.len() as f64 / answered as f64),
        ("obs.scrape_ms", median_of(scrapes.scrape_ms.iter().copied())),
        ("traced.latency_p50_us", s.latency_p50_us),
        ("traced.latency_p90_us", s.latency_p90_us),
        ("traced.completed_qps", s.completed_qps),
        ("traced.server_cpu_ms_per_query", s.cpu_ms_per_query),
        ("self.client_rtt_us_mean", self_us_mean(&|n| n == "client.rtt")),
        ("self.server_e2e_us_mean", self_us_mean(&|n| n == "server.e2e")),
        ("self.search_work_us_mean", self_us_mean(&|n| n == "search.work")),
        ("self.runtime_us_mean", self_us_mean(&|n| n.starts_with("runtime."))),
    ]);
    for (label, name) in [
        ("net-loop", "net.busy_share"),
        ("worker-0", "runtime.worker_busy_share"),
        ("host-0", "runtime.host_busy_share"),
    ] {
        let share = busy_share(&scrapes.profile, label)
            .ok_or_else(|| format!("/profile has no samples of `{label}`:\n{}", scrapes.profile))?;
        values.insert(name, share);
    }
    if values["obs.qlog_joined_share"] < 0.99 {
        problems.push(format!(
            "only {:.4} of answered requests joined a query-log record",
            values["obs.qlog_joined_share"]
        ));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            values
                .get(name)
                .map(|&value| Metric { name, value, unit })
                .ok_or_else(|| format!("per-layer metric `{name}` was not measured"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let extras = vec![Metric {
        name: "reference.latency_p50_us",
        value: reference.latency_p50_us,
        unit: "us",
    }];
    Ok(Report {
        correct: problems.is_empty(),
        problems,
        attempted: all.attempted,
        failed: all.failed,
        metrics,
        extras,
        stamp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// The checkout this package sits in: `crates/algas-bench/src/bin/perf`.
    fn checkout() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(5)
            .expect("five levels up")
            .to_path_buf()
    }

    #[test]
    fn busy_share_reads_folded_stacks_by_thread_label() {
        let profile =
            "worker;worker-0;idle 10\nworker;worker-0;scan 30\nhost;host-0;idle 40\n\nbad line\n";
        assert_eq!(busy_share(profile, "worker-0"), Some(0.75));
        assert_eq!(busy_share(profile, "host-0"), Some(0.0));
        assert_eq!(busy_share(profile, "net-loop"), None);
    }

    #[test]
    fn quietest_slice_keeps_the_lowest_percentiles_and_skips_thin_slices() {
        // Two slices of 110 samples: latencies 1..=110 µs, then 1001..=1110 µs.
        let samples: Vec<(u64, f64)> = (0..220u64)
            .map(|i| (i * 10, if i < 110 { i as f64 + 1.0 } else { i as f64 + 891.0 }))
            .collect();
        assert_eq!(quietest_slice(&samples, (0, 2200)), Some((55.0, 99.0)));
        // Fewer samples than a p90 needs: no figure rather than a weak one.
        assert_eq!(quietest_slice(&samples[..90], (0, 900)), None);
    }

    #[test]
    fn benchmark_json_lists_what_the_program_reports() {
        let text =
            std::fs::read_to_string(checkout().join("BENCHMARK.json")).expect("BENCHMARK.json");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("a list of metrics")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Value::as_str).expect("a string").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), owned(&END_TO_END));
        assert_eq!(listed("per_layer"), owned(&PER_LAYER));
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("a name"))
            .collect();
        assert_eq!(names, workload::WORKLOADS.map(|w| w.name));
        for w in &workload::WORKLOADS {
            let why = doc
                .get("workloads")
                .and_then(Value::as_array)
                .expect("workloads")
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(w.name))
                .and_then(|e| e.get("why"))
                .and_then(Value::as_str)
                .expect("a why");
            assert!(
                why.contains(&format!("{} q/s", w.rate_qps)),
                "{}: the why states the fixed rate",
                w.name
            );
        }
    }

    /// The whole pipeline on the smoke corpus: builds `algas`, sets up,
    /// serves, checks every reply. Quick enough for a local check.
    #[test]
    fn smoke_run_is_correct_and_finishes_within_twenty_seconds() {
        let layout = Layout::at(checkout()).expect("the package sits in a checkout");
        layout.build_algas().expect("algas builds");
        let t0 = Instant::now();
        let opts = Options {
            workload: &workload::WORKLOADS[0],
            seed: 1,
            seconds: 6.0,
            traced: false,
            smoke: true,
        };
        let report = run(&layout, &opts).expect("the smoke run completes");
        assert!(report.correct, "{:?}", report.problems);
        assert_eq!(report.failed, 0);
        assert_eq!(report.metrics.len(), END_TO_END.len());
        assert!(report.metrics.iter().all(|m| m.value > 0.0 && m.value.is_finite()));
        assert!(t0.elapsed() < Duration::from_secs(20), "smoke run took {:?}", t0.elapsed());
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0).collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(PER_LAYER.len() <= 128);
    }
}
