//! The effort ladder: a serving plan's operating range.
//!
//! An engine plans once, from its configuration: `N_parallel` walkers
//! (8 unless [`EngineConfig::n_parallel`](crate::engine::EngineConfig::n_parallel)
//! says otherwise), the beam of [`BeamParams::default_for`], and the
//! rerank depth. The [`EffortLadder`] extends that plan into the
//! operating range of the online SLO controller ([`crate::control`]):
//! rung 0 is the plan's maximum-recall configuration, and each higher
//! rung trades a little recall for latency (shallower rerank, fewer
//! walkers, wider beam, earlier diffusing switch) in a fixed,
//! precomputed order — so the feedback loop moves along a
//! deterministic scale instead of inventing parameter combinations.
//!
//! The paper's §IV-C tuner, which fits `N_parallel` to a GPU's block
//! residency, belongs to the simulated device
//! (`algas_gpu_sim::occupancy::tune`): the figures run it; a CPU
//! worker has no residency to keep.

use crate::search::BeamParams;

/// One rung of the [`EffortLadder`]: a concrete search-effort
/// configuration the SLO controller can run at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EffortStep {
    /// Beam-extend parameters (`None` = pure greedy, fixed for the
    /// whole ladder when the engine runs greedy).
    pub beam: Option<BeamParams>,
    /// Exact-rerank pool depth (0 = rerank disabled / not applicable).
    pub rerank_depth: usize,
    /// CTAs per query (≥ 1; the plan's `N_parallel` at rung 0, halved
    /// toward 1 on the deepest rungs): the count on the paper schedule,
    /// a cap on the serial one a worker runs, which stops launching
    /// walkers at the first that adds nothing (`search::multi`).
    pub n_ctas: usize,
}

/// The controller's discrete effort scale. Rung 0 reproduces the static
/// plan (maximum recall); each higher rung sheds more work: first the
/// rerank pool shrinks toward `2k`, then the CTA cap is lowered
/// (`N_parallel` halves toward 1; a serving worker usually launches
/// about two walkers whatever the cap, so these rungs bite once the
/// cap falls under that) — smart entry seeding is what keeps a lone
/// CTA's recall high — and only the deepest rungs widen the beam (fewer
/// candidate-list sorts per step) and move the diffusing switch
/// earlier (`offset_beam → 1`). The beam knobs pay on sort-bound GPU
/// substrates but cost extra distance evaluations, so they come last,
/// after the CTA retirement has already bounded their absolute price
/// to a single walker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EffortLadder {
    steps: Vec<EffortStep>,
}

impl EffortLadder {
    /// Widest beam the ladder relaxes to, as a multiple of the plan's
    /// beam width (kept small so the expand list stays near the size a
    /// GPU's shared-memory budget would be checked for).
    pub const MAX_BEAM_FACTOR: usize = 4;

    /// Builds the ladder from the plan's CTA count, the engine's
    /// resolved beam parameters, and the rerank depth. The rerank
    /// relaxation floors at `2k`: reranking fewer than `k` candidates
    /// cannot fill the result list, and a pool below `2k` leaves no
    /// exactness margin over the quantized scores, costing more recall
    /// than the cheaper rungs are worth. CTA rungs halve `n_parallel`
    /// toward a single walker before any beam rung: a mid-ladder beam
    /// widening at full `N_parallel` multiplies the distance
    /// evaluations of *every* walker, which on an evaluation-bound
    /// host makes those rungs more expensive than rung 0 — a shed
    /// that increases latency traps the controller in an oscillation.
    pub fn build(
        n_parallel: usize,
        beam: Option<BeamParams>,
        rerank_depth: Option<usize>,
        k: usize,
    ) -> Self {
        let np = n_parallel.max(1);
        let mut steps =
            vec![EffortStep { beam, rerank_depth: rerank_depth.unwrap_or(0), n_ctas: np }];
        let mut rd = rerank_depth.unwrap_or(0);
        let floor = (2 * k).max(1);
        while rd > floor {
            rd = (rd / 2).max(floor);
            steps.push(EffortStep { beam, rerank_depth: rd, n_ctas: np });
        }
        let mut nc = np;
        while nc > 1 {
            nc /= 2;
            steps.push(EffortStep { beam, rerank_depth: rd, n_ctas: nc });
        }
        if let Some(b) = beam {
            let mut bw = b.beam_width;
            while bw < b.beam_width * Self::MAX_BEAM_FACTOR {
                bw *= 2;
                steps.push(EffortStep {
                    beam: Some(BeamParams { offset_beam: b.offset_beam, beam_width: bw }),
                    rerank_depth: rd,
                    n_ctas: nc,
                });
            }
            let mut ob = b.offset_beam;
            while ob > 1 {
                ob /= 2;
                steps.push(EffortStep {
                    beam: Some(BeamParams { offset_beam: ob, beam_width: bw }),
                    rerank_depth: rd,
                    n_ctas: nc,
                });
            }
        }
        Self { steps }
    }

    /// Number of rungs (≥ 1).
    pub fn n_levels(&self) -> usize {
        self.steps.len()
    }

    /// The highest (cheapest) level.
    pub fn max_level(&self) -> u32 {
        (self.steps.len() - 1) as u32
    }

    /// The rung at `level`, clamped to the ladder's range.
    pub fn step(&self, level: u32) -> EffortStep {
        self.steps[(level as usize).min(self.steps.len() - 1)]
    }

    /// All rungs, cheapest last (diagnostics / the tuning explorer).
    pub fn steps(&self) -> &[EffortStep] {
        &self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_ladder_starts_at_the_plan_and_relaxes_monotonically() {
        let beam = Some(BeamParams { offset_beam: 4, beam_width: 8 });
        let ladder = EffortLadder::build(8, beam, Some(48), 10);
        assert_eq!(ladder.step(0), EffortStep { beam, rerank_depth: 48, n_ctas: 8 });
        assert!(ladder.n_levels() > 3);
        // Every rung is no more expensive than its predecessor on any
        // knob: rerank never grows, beam never narrows, offset never
        // rises, CTAs never multiply.
        for w in ladder.steps().windows(2) {
            assert!(w[1].rerank_depth <= w[0].rerank_depth);
            assert!(w[1].n_ctas <= w[0].n_ctas);
            let (a, b) = (w[0].beam.unwrap(), w[1].beam.unwrap());
            assert!(b.beam_width >= a.beam_width);
            assert!(b.offset_beam <= a.offset_beam);
        }
        // The cheapest rung bottoms out at the configured floors
        // (rerank stops at 2k to preserve the exact-rerank margin).
        let last = ladder.step(ladder.max_level());
        assert_eq!(last.rerank_depth, 20);
        assert_eq!(last.beam.unwrap().beam_width, 8 * EffortLadder::MAX_BEAM_FACTOR);
        assert_eq!(last.beam.unwrap().offset_beam, 1);
        assert_eq!(last.n_ctas, 1);
        // Levels past the end clamp.
        assert_eq!(ladder.step(999), last);
    }

    #[test]
    fn effort_ladder_without_knobs_is_a_single_rung() {
        let ladder = EffortLadder::build(1, None, None, 10);
        assert_eq!(ladder.n_levels(), 1);
        assert_eq!(ladder.max_level(), 0);
        assert_eq!(ladder.step(0), EffortStep { beam: None, rerank_depth: 0, n_ctas: 1 });
    }

    #[test]
    fn effort_ladder_greedy_with_rerank_only_shrinks_rerank() {
        let ladder = EffortLadder::build(1, None, Some(64), 8);
        assert!(ladder.n_levels() >= 3);
        for s in ladder.steps() {
            assert!(s.beam.is_none());
            assert_eq!(s.n_ctas, 1);
        }
        assert_eq!(ladder.step(ladder.max_level()).rerank_depth, 16);
    }

    #[test]
    fn effort_ladder_cta_rungs_halve_toward_one_walker() {
        // A greedy fp32 multi-CTA engine still has a ladder: the CTA
        // rungs alone.
        let ladder = EffortLadder::build(8, None, None, 10);
        assert_eq!(ladder.n_levels(), 4);
        let ctas: Vec<usize> = ladder.steps().iter().map(|s| s.n_ctas).collect();
        assert_eq!(ctas, [8, 4, 2, 1]);
        // In a full ladder the CTA rungs follow the rerank rungs, and
        // every beam rung runs at a single walker — never a mid-ladder
        // beam widening at full N_parallel.
        let beam = Some(BeamParams { offset_beam: 4, beam_width: 8 });
        let full = EffortLadder::build(4, beam, Some(48), 10);
        let ctas: Vec<usize> = full.steps().iter().map(|s| s.n_ctas).collect();
        assert_eq!(ctas, [4, 4, 4, 2, 1, 1, 1, 1, 1]);
        for s in full.steps() {
            if s.beam.unwrap().beam_width > 8 {
                assert_eq!(s.n_ctas, 1, "beam rungs must run single-CTA");
            }
        }
    }
}
