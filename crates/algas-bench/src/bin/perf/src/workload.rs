//! The four workloads and the constants every run shares. Rates are
//! fixed numbers sized once on the reference box (2 cores; fp32
//! static-plan capacity ≈ 1 800 q/s on the 10 000 × 128 corpus), never
//! calibrated at run time: a rate that followed the build under test
//! would hide the very change the benchmark exists to show.

/// Results per query and candidate-list length of every workload.
pub const K: usize = 10;
pub const L: usize = 64;
/// A correct reply later than this after its due time misses the limit.
pub const LIMIT_US: f64 = 10_000.0;
/// Unmeasured open-loop lead-in at the workload's rate, per serving child
/// (the SLO controller ticks every 32 completions, so a second at the
/// surge rate is some eighty decisions: enough to settle on its rung).
pub const WARMUP_S: f64 = 1.0;
/// Unloaded closed loop before each child's schedule starts.
pub const UNLOADED_S: f64 = 0.5;
pub const PINGS: usize = 200;
/// Set-ups, and so serving children, per run; `setup_s` and the latencies
/// are medians over them.
pub const SETUPS: usize = 3;

/// Seed of `algas gen`. The corpus is the same in every run: measured
/// on this box, a new corpus per `--seed` moved the median latency of
/// `steady_fp32` three times as much as everything else together (its
/// spread over ten runs was 0.19 with, 0.05 without), which would bury
/// the changes the benchmark is there to show. `--seed` decides when
/// requests arrive and in which order they walk the queries.
pub const CORPUS_SEED: u64 = 1;

#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub n: usize,
    pub dim: usize,
    pub nq: usize,
}

/// The corpus of a real run. The issue asked for 50 000 vectors; three
/// set-ups of that size (≈ 20 s each) do not fit the driver's time cap.
pub const CORPUS: Shape = Shape { n: 10_000, dim: 128, nq: 1_000 };
/// `--smoke true`: a corpus that builds in a blink, for local checks.
pub const SMOKE_CORPUS: Shape = Shape { n: 2_000, dim: 32, nq: 200 };

pub struct Workload {
    pub name: &'static str,
    pub rate_qps: f64,
    /// Extra `algas build` flags.
    pub build: &'static [&'static str],
    /// Extra `algas serve` flags.
    pub serve: &'static [&'static str],
    /// `recall_at_10` below this fails the run.
    pub recall_floor: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    // Open-loop Poisson at 0.4x capacity on the fp32 index: the whole stack below the knee,
    // search doing most of the CPU work; the reference the others are read against.
    Workload { name: "steady_fp32", rate_qps: 700.0, build: &[], serve: &[], recall_floor: 0.95 },
    // Same schedule on SQ8 codes with exact rerank and LSH entry seeds: a distance-kernel
    // or rerank change shows here and not on steady_fp32, and the other way round.
    Workload {
        name: "steady_sq8",
        rate_qps: 700.0,
        build: &["--quantize", "true", "--entry", "true"],
        serve: &["--entry-policy", "hash-table"],
        recall_floor: 0.95,
    },
    // Open-loop Poisson at 1.5x capacity, controller off: admission, RETRY_AFTER and the
    // submit queue do the work; search speed only sets the ceiling.
    Workload {
        name: "overload_static",
        rate_qps: 2700.0,
        build: &[],
        serve: &[],
        recall_floor: 0.95,
    },
    // The overload schedule with the SLO controller armed: it sheds search effort, so net
    // and runtime hand-offs dominate latency and recall records what the shed cost.
    Workload {
        name: "surge_adaptive",
        rate_qps: 2700.0,
        build: &[],
        serve: &["--slo-us", "10000"],
        recall_floor: 0.80,
    },
];

impl Workload {
    /// The `--entry-policy` the child serves with (`hashed` is the CLI's default).
    pub fn entry_policy(&self) -> &'static str {
        let at = self.serve.iter().position(|f| *f == "--entry-policy");
        at.and_then(|i| self.serve.get(i + 1)).copied().unwrap_or("hashed")
    }
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
