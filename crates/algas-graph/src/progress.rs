//! Build-time progress counters.
//!
//! Graph construction at the paper's scales runs for minutes with no
//! output; this module gives the builders a way to publish coarse
//! *phase + progress* markers that a reporter (the CLI's
//! `build --progress` stderr line) can poll while the build runs.
//!
//! The mechanism deliberately mirrors the serving-path obs philosophy
//! (`algas_core::obs`): recording is a handful of relaxed atomic
//! stores on a shared [`BuildProgress`], never a lock or an
//! allocation, and **nothing read from the counters feeds back into
//! construction** — the built graph stays a pure function of the
//! input (see [`crate::parallel`]), bit-identical with or without a
//! reporter attached.
//!
//! Builders stamp the process-wide instance ([`global`]); tests
//! construct their own [`BuildProgress`] so assertions never race
//! against concurrently-building tests.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Coarse phases of an index build, in the order a `build` run moves
/// through them (NSW builds skip the CAGRA phases and vice versa).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum BuildPhase {
    /// No build running (or not yet started).
    Idle = 0,
    /// Exact brute-force k-NN graph (small corpora).
    KnnExact = 1,
    /// NN-descent approximate k-NN graph; each round re-walks every
    /// vertex, so `nodes_done` resets per round and `batches` counts
    /// rounds.
    NnDescent = 2,
    /// CAGRA pass 1: detour-count pruning.
    Prune = 3,
    /// CAGRA pass 2: reverse-edge augmentation.
    Augment = 4,
    /// Snapshot-batched NSW insertion; `batches` counts insert
    /// batches.
    NswInsert = 5,
    /// SQ8 code generation.
    Quantize = 6,
    /// LSH entry-table construction.
    EntryIndex = 7,
    /// Build finished.
    Done = 8,
}

impl BuildPhase {
    /// Stable lowercase name, used in the `--progress` line.
    pub fn name(self) -> &'static str {
        match self {
            BuildPhase::Idle => "idle",
            BuildPhase::KnnExact => "knn-exact",
            BuildPhase::NnDescent => "nn-descent",
            BuildPhase::Prune => "prune",
            BuildPhase::Augment => "augment",
            BuildPhase::NswInsert => "nsw-insert",
            BuildPhase::Quantize => "quantize",
            BuildPhase::EntryIndex => "entry-index",
            BuildPhase::Done => "done",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => BuildPhase::KnnExact,
            2 => BuildPhase::NnDescent,
            3 => BuildPhase::Prune,
            4 => BuildPhase::Augment,
            5 => BuildPhase::NswInsert,
            6 => BuildPhase::Quantize,
            7 => BuildPhase::EntryIndex,
            8 => BuildPhase::Done,
            _ => BuildPhase::Idle,
        }
    }
}

/// The shared counters one build publishes through. All operations are
/// relaxed atomics — safe to stamp from every parallel build thread.
#[derive(Debug, Default)]
pub struct BuildProgress {
    phase: AtomicU8,
    nodes_done: AtomicU64,
    nodes_total: AtomicU64,
    batches: AtomicU64,
}

/// A point-in-time read of a [`BuildProgress`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Current phase.
    pub phase: BuildPhase,
    /// Work items (vertices) finished in this phase.
    pub nodes_done: u64,
    /// Work items this phase will process (0 = unknown).
    pub nodes_total: u64,
    /// Batches / rounds finished in this phase.
    pub batches: u64,
}

impl ProgressSnapshot {
    /// The single-line rendering `build --progress` prints.
    pub fn render(&self) -> String {
        let mut line = format!("build: {}", self.phase.name());
        if self.nodes_total > 0 {
            line.push_str(&format!(" {}/{} nodes", self.nodes_done, self.nodes_total));
        } else if self.nodes_done > 0 {
            line.push_str(&format!(" {} nodes", self.nodes_done));
        }
        if self.batches > 0 {
            line.push_str(&format!(", batch {}", self.batches));
        }
        line
    }
}

impl BuildProgress {
    /// A fresh, idle progress publisher.
    pub const fn new() -> Self {
        Self {
            phase: AtomicU8::new(BuildPhase::Idle as u8),
            nodes_done: AtomicU64::new(0),
            nodes_total: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }

    /// Returns everything to [`BuildPhase::Idle`] with zeroed counters.
    pub fn reset(&self) {
        self.phase.store(BuildPhase::Idle as u8, Ordering::Relaxed);
        self.nodes_done.store(0, Ordering::Relaxed);
        self.nodes_total.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
    }

    /// Enters `phase`, expecting `total_nodes` work items (0 =
    /// unknown). Zeroes the per-phase node and batch counters.
    pub fn start_phase(&self, phase: BuildPhase, total_nodes: u64) {
        self.nodes_done.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.nodes_total.store(total_nodes, Ordering::Relaxed);
        self.phase.store(phase as u8, Ordering::Relaxed);
    }

    /// Records `n` finished work items (called from any build thread).
    pub fn node_done(&self, n: u64) {
        self.nodes_done.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a finished batch / round.
    pub fn batch_done(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the batch / round counter directly — for round-structured
    /// phases that re-enter [`start_phase`](Self::start_phase) (which
    /// zeroes it) every round.
    pub fn set_batch(&self, b: u64) {
        self.batches.store(b, Ordering::Relaxed);
    }

    /// Marks the whole build finished.
    pub fn finish(&self) {
        self.phase.store(BuildPhase::Done as u8, Ordering::Relaxed);
    }

    /// Reads the counters (relaxed; values may trail the writers by a
    /// few items — fine for a progress line).
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            phase: BuildPhase::from_u8(self.phase.load(Ordering::Relaxed)),
            nodes_done: self.nodes_done.load(Ordering::Relaxed),
            nodes_total: self.nodes_total.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
        }
    }
}

static GLOBAL: BuildProgress = BuildProgress::new();

/// The process-wide instance every builder stamps and the CLI
/// reporter polls. One build at a time is the expected use (the CLI
/// builds one index per invocation); concurrent builds interleave
/// counters harmlessly.
pub fn global() -> &'static BuildProgress {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_roundtrip_and_name() {
        for p in [
            BuildPhase::Idle,
            BuildPhase::KnnExact,
            BuildPhase::NnDescent,
            BuildPhase::Prune,
            BuildPhase::Augment,
            BuildPhase::NswInsert,
            BuildPhase::Quantize,
            BuildPhase::EntryIndex,
            BuildPhase::Done,
        ] {
            assert_eq!(BuildPhase::from_u8(p as u8), p);
            assert!(!p.name().is_empty());
        }
        assert_eq!(BuildPhase::from_u8(200), BuildPhase::Idle);
    }

    #[test]
    fn counters_accumulate_and_reset_per_phase() {
        let p = BuildProgress::new();
        assert_eq!(p.snapshot().phase, BuildPhase::Idle);

        p.start_phase(BuildPhase::Prune, 100);
        p.node_done(30);
        p.node_done(12);
        p.batch_done();
        let s = p.snapshot();
        assert_eq!(
            (s.phase, s.nodes_done, s.nodes_total, s.batches),
            (BuildPhase::Prune, 42, 100, 1)
        );
        assert_eq!(s.render(), "build: prune 42/100 nodes, batch 1");

        // A new phase zeroes the per-phase counters.
        p.start_phase(BuildPhase::Augment, 7);
        let s = p.snapshot();
        assert_eq!((s.phase, s.nodes_done, s.batches), (BuildPhase::Augment, 0, 0));

        p.finish();
        assert_eq!(p.snapshot().phase, BuildPhase::Done);
        p.reset();
        let s = p.snapshot();
        assert_eq!((s.phase, s.nodes_total), (BuildPhase::Idle, 0));
    }

    #[test]
    fn render_handles_unknown_totals() {
        let p = BuildProgress::new();
        p.start_phase(BuildPhase::Quantize, 0);
        assert_eq!(p.snapshot().render(), "build: quantize");
        p.node_done(5);
        assert_eq!(p.snapshot().render(), "build: quantize 5 nodes");
    }

    #[test]
    fn stamping_from_parallel_threads_is_safe() {
        let p = BuildProgress::new();
        p.start_phase(BuildPhase::KnnExact, 64);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..16 {
                        p.node_done(1);
                    }
                });
            }
        });
        assert_eq!(p.snapshot().nodes_done, 64);
    }
}
