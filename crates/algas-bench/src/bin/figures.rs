//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures all [--scale S] [--out PATH]    # every experiment → EXPERIMENTS data
//! figures fig10 [--scale S]               # one experiment to stdout
//! figures list                            # available experiment ids
//! figures bench_trace [--scale S] [--baseline P1[,P2]] [--from PATH] [--out PATH]  # recorder overhead → BENCH_trace.json
//! ```
//!
//! `--scale` scales the synthetic corpora (default 0.15 ≈ 9k vectors
//! for the SIFT-like set; 1.0 ≈ 60k). Built graphs are cached under
//! `target/algas-cache/`, so only the first run at a scale pays for
//! construction.

use algas_bench::prep::prepare_suite;
use algas_bench::{run_all, run_experiment, ALL_EXPERIMENTS};
use std::io::Write;

struct Args {
    command: String,
    scale: f64,
    out: Option<String>,
    baseline: Option<String>,
    from: Option<String>,
}

fn parse_args() -> Args {
    let mut args =
        Args { command: String::new(), scale: 0.15, out: None, baseline: None, from: None };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--out" => args.out = Some(it.next().unwrap_or_else(|| die("--out needs a path"))),
            "--baseline" => {
                args.baseline =
                    Some(it.next().unwrap_or_else(|| die("--baseline needs path[,path...]")));
            }
            "--from" => {
                args.from = Some(it.next().unwrap_or_else(|| die("--from needs a path")));
            }
            flag if flag.starts_with("--") => die(&format!("unknown flag {flag}")),
            cmd if args.command.is_empty() => args.command = cmd.to_string(),
            extra => die(&format!("unexpected argument {extra}")),
        }
    }
    if args.command.is_empty() {
        args.command = "all".into();
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: figures [all|list|bench_trace|<experiment-id>] [--scale S] [--out PATH] \
         [--baseline P1[,P2]] [--from PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    if args.command == "list" {
        for id in ALL_EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    if args.command == "bench_trace" {
        // Flight-recorder overhead benchmark: self-contained prep.
        algas_bench::trace_bench::run(
            args.scale,
            args.out.as_deref().unwrap_or("BENCH_trace.json"),
            args.baseline.as_deref(),
            args.from.as_deref(),
        );
        return;
    }

    let cache = algas_bench::cache::DiskCache::default_location().expect("open cache dir");
    eprintln!("preparing datasets at scale {} (cache: {}) ...", args.scale, cache.dir().display());
    let t0 = std::time::Instant::now();
    let prepared = prepare_suite(args.scale, &cache);
    eprintln!("prepared {} datasets in {:.1?}", prepared.len(), t0.elapsed());

    let reports = if args.command == "all" {
        run_all(&prepared)
    } else {
        run_experiment(&args.command, &prepared)
    };

    let mut output = String::new();
    output.push_str(&format!(
        "# ALGAS experiments — measured at scale {} ({} datasets)\n\n\
         Regenerate with `cargo run --release -p algas-bench --bin figures -- {} --scale {}`.\n\n",
        args.scale,
        prepared.len(),
        args.command,
        args.scale
    ));
    for r in &reports {
        let section = r.render();
        output.push_str(&section);
        output.push('\n');
    }

    match &args.out {
        Some(path) => {
            let mut f = std::fs::File::create(path).expect("create output file");
            f.write_all(output.as_bytes()).expect("write output");
            eprintln!("wrote {path}");
        }
        None => print!("{output}"),
    }
    eprintln!("total time {:.1?}", t0.elapsed());
}
