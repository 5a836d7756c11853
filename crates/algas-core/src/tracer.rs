//! Per-step cost traces emitted by the searchers.
//!
//! Every CTA search produces a [`CtaTrace`]: one [`StepStats`] per
//! search step, splitting cycles into *calculation* (distance kernels)
//! and *sorting* (candidate-list maintenance) exactly as Fig 3 / Fig 17
//! of the paper split them, plus the per-step diagnostics the
//! motivation figures plot (selected-candidate offset, best distance).

/// Cost and diagnostics of one search step (Algorithm 1 lines 7–19).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepStats {
    /// Offset of the (first) selected candidate within the candidate
    /// list — the beam-phase trigger of §IV-C and the x-axis context of
    /// Fig 7.
    pub selected_offset: u32,
    /// Distance of the best selected candidate (Fig 7's y-axis).
    pub best_distance: f32,
    /// Distance of the candidate-list head after this step's merge —
    /// the monotone "best found so far" curve.
    pub head_distance: f32,
    /// Candidates expanded this step (1 for greedy; up to the beam
    /// width in the diffusing phase).
    pub expansions: u32,
    /// Distances computed this step.
    pub dist_evals: u32,
    /// Cycles spent in distance calculation.
    pub calc_cycles: u64,
    /// Cycles spent sorting/merging the lists.
    pub sort_cycles: u64,
    /// Number of sort/merge invocations.
    pub sorts: u32,
    /// Everything else: bitmap filtering, selection, control.
    pub other_cycles: u64,
}

impl StepStats {
    /// Total cycles of the step.
    pub fn total_cycles(&self) -> u64 {
        self.calc_cycles + self.sort_cycles + self.other_cycles
    }
}

/// Cycle and operation totals over a set of steps — the unit in which
/// tracer output flows into the serving snapshot
/// ([`crate::obs::RuntimeStats`]), so the per-step tracer and the
/// runtime metrics share one reporting surface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepTotals {
    /// Search steps executed.
    pub steps: u64,
    /// Candidates expanded.
    pub expansions: u64,
    /// Distances computed.
    pub dist_evals: u64,
    /// Sort/merge invocations.
    pub sorts: u64,
    /// Cycles in distance calculation.
    pub calc_cycles: u64,
    /// Cycles in sorting/merging.
    pub sort_cycles: u64,
    /// Remaining cycles (bitmap filtering, selection, control).
    pub other_cycles: u64,
}

impl StepTotals {
    /// Folds one step in.
    pub fn add_step(&mut self, s: &StepStats) {
        self.steps += 1;
        self.expansions += u64::from(s.expansions);
        self.dist_evals += u64::from(s.dist_evals);
        self.sorts += u64::from(s.sorts);
        self.calc_cycles += s.calc_cycles;
        self.sort_cycles += s.sort_cycles;
        self.other_cycles += s.other_cycles;
    }

    /// Folds another total in (e.g. across CTAs or queries).
    pub fn merge(&mut self, other: &StepTotals) {
        self.steps += other.steps;
        self.expansions += other.expansions;
        self.dist_evals += other.dist_evals;
        self.sorts += other.sorts;
        self.calc_cycles += other.calc_cycles;
        self.sort_cycles += other.sort_cycles;
        self.other_cycles += other.other_cycles;
    }

    /// Total cycles across the three categories.
    pub fn total_cycles(&self) -> u64 {
        self.calc_cycles + self.sort_cycles + self.other_cycles
    }

    /// Fraction of cycles spent sorting (Fig 3 / Fig 17's metric),
    /// 0 when nothing ran.
    pub fn sort_fraction(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.sort_cycles as f64 / total as f64
        }
    }
}

/// The full trace of one CTA's search for one query.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CtaTrace {
    /// One entry per step, in execution order.
    pub steps: Vec<StepStats>,
}

impl CtaTrace {
    /// Number of steps (the Figs 1–2 statistic).
    pub fn n_steps(&self) -> usize {
        self.steps.len()
    }

    /// Aggregates the whole trace into a [`StepTotals`] (one pass; the
    /// serving runtime calls this once per query per CTA).
    pub fn totals(&self) -> StepTotals {
        let mut t = StepTotals::default();
        for s in &self.steps {
            t.add_step(s);
        }
        t
    }

    /// The per-step best-found-so-far series: candidate-list head
    /// distance after each step. Monotone non-increasing.
    pub fn head_distance_series(&self) -> Vec<f32> {
        self.steps.iter().map(|s| s.head_distance).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(calc: u64, sort: u64, other: u64) -> StepStats {
        StepStats {
            calc_cycles: calc,
            sort_cycles: sort,
            other_cycles: other,
            dist_evals: 4,
            sorts: 1,
            expansions: 1,
            selected_offset: 0,
            best_distance: 1.0,
            head_distance: 1.0,
        }
    }

    #[test]
    fn aggregation() {
        let t = CtaTrace { steps: vec![step(100, 50, 10), step(200, 30, 20)] };
        assert_eq!(t.n_steps(), 2);
        let totals = t.totals();
        assert_eq!(totals.steps, 2);
        assert_eq!(totals.total_cycles(), 410);
        assert_eq!(totals.calc_cycles, 300);
        assert_eq!(totals.sort_cycles, 80);
        assert_eq!(totals.dist_evals, 8);
        assert_eq!(totals.sorts, 2);
        assert!((totals.sort_fraction() - 80.0 / 410.0).abs() < 1e-12);
        let mut merged = StepTotals::default();
        merged.merge(&totals);
        merged.merge(&CtaTrace::default().totals());
        assert_eq!(merged, totals);
    }

    #[test]
    fn empty_trace_is_zero() {
        let t = CtaTrace::default();
        assert_eq!(t.totals().total_cycles(), 0);
        assert_eq!(t.totals().sort_fraction(), 0.0);
        assert!(t.head_distance_series().is_empty());
    }
}
