//! The adaptive GPU parameter tuning scheme (§IV-C).
//!
//! Given the device, the slot count, and the search's data-structure
//! sizes, the tuner picks the largest `N_parallel` (CTAs per query)
//! such that **every** slot's CTAs are simultaneously resident — the
//! persistent kernel's hard requirement — and the per-block shared
//! memory (candidate list + expand list + cached query + the
//! dimension-dependent reserved cache) fits the §IV-C budget
//! `M_per_SM / N_block_per_SM − M_reserved_per_block`.
//!
//! The plan is chosen once per device/shape. The [`EffortLadder`]
//! extends it into the operating range of the online SLO controller
//! ([`crate::control`]): rung 0 is the plan's maximum-recall
//! configuration, and each higher rung trades a little recall for
//! latency (shallower rerank, wider beam, earlier diffusing switch) in
//! a fixed, precomputed order — so the feedback loop moves along a
//! deterministic scale instead of inventing parameter combinations.

use crate::search::BeamParams;
use algas_gpu_sim::device::DeviceProps;
use algas_gpu_sim::occupancy;

/// Inputs to the tuner.
#[derive(Clone, Copy, Debug)]
pub struct TuningInput {
    /// Target device.
    pub device: DeviceProps,
    /// Number of dynamic-batching slots (≈ the batch size served).
    pub slots: usize,
    /// Vector dimension (drives the reserved runtime cache).
    pub dim: usize,
    /// Candidate-list capacity `L`.
    pub l: usize,
    /// Results per query.
    pub k: usize,
    /// Graph out-degree (expand list sizing).
    pub graph_degree: usize,
    /// Beam width (the expand list must hold `beam_width · degree`).
    pub beam_width: usize,
    /// Upper bound on CTAs per query (beyond ~8 the paper's returns
    /// diminish; candidate lists shrink too far).
    pub max_n_parallel: usize,
}

impl TuningInput {
    /// A reasonable starting point for the given device/slots/shape.
    pub fn new(device: DeviceProps, slots: usize, dim: usize, l: usize, k: usize) -> Self {
        Self { device, slots, dim, l, k, graph_degree: 32, beam_width: 4, max_n_parallel: 8 }
    }
}

/// The tuner's decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuningPlan {
    /// CTAs per query.
    pub n_parallel: usize,
    /// Threads per block — pinned to the warp size (§IV-C: "we set the
    /// number of threads per block to match the warp size").
    pub threads_per_block: usize,
    /// Blocks each SM must host (`align(N_parallel·slot/N_SM)`).
    pub blocks_per_sm: usize,
    /// Dynamic shared memory each block uses (bytes).
    pub shared_mem_per_block: usize,
    /// Dimension-dependent runtime cache reserved per block (bytes).
    pub reserved_cache_per_block: usize,
    /// Beam-phase trigger offset handed to the searcher.
    pub offset_beam: usize,
}

/// Shared-memory demand of one search block (bytes): candidate list
/// entries (8 B: distance + id/flags), expand list, the cached query
/// vector, and fixed control state.
pub fn block_shared_mem_bytes(
    l: usize,
    graph_degree: usize,
    beam_width: usize,
    dim: usize,
) -> usize {
    let candidate = l * 8;
    let expand = beam_width.max(1) * graph_degree * 8;
    let query = dim * 4;
    let control = 256;
    candidate + expand + query + control
}

/// The §IV-C dimension-driven cache reservation: high-dimensional data
/// wants extra shared memory as a runtime cache; reserve the vector
/// footprint rounded up to 1 KiB.
pub fn reserved_cache_bytes(dim: usize) -> usize {
    let raw = dim * 4;
    raw.div_ceil(1024) * 1024
}

/// Errors the tuner can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TuningError {
    /// Even one CTA per query cannot be made resident for this many
    /// slots.
    TooManySlots {
        /// Requested slot count.
        slots: usize,
        /// Device limit on resident blocks.
        max_blocks: usize,
    },
    /// The block's own working set exceeds every feasible budget.
    SharedMemoryExhausted {
        /// Bytes one block demands.
        demand: usize,
        /// Best budget achievable at `N_parallel = 1`.
        budget: usize,
    },
}

impl std::fmt::Display for TuningError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuningError::TooManySlots { slots, max_blocks } => {
                write!(f, "{slots} slots cannot all be resident (device holds {max_blocks} blocks)")
            }
            TuningError::SharedMemoryExhausted { demand, budget } => write!(
                f,
                "block demands {demand} B of shared memory but at most {budget} B is available"
            ),
        }
    }
}

impl std::error::Error for TuningError {}

/// Runs the tuner: the largest feasible `N_parallel ∈ [1, max]`
/// (preferring powers of two, which keep entry hashing and merge trees
/// balanced) that satisfies both §IV-C constraints.
pub fn tune(input: &TuningInput) -> Result<TuningPlan, TuningError> {
    let dev = &input.device;
    assert!(input.slots > 0, "need at least one slot");
    assert!(input.l >= input.k, "L must be at least TopK");

    let reserved_cache = reserved_cache_bytes(input.dim);
    let demand = block_shared_mem_bytes(input.l, input.graph_degree, input.beam_width, input.dim);

    if !occupancy::fits_block_constraint(dev, input.slots, 1) {
        return Err(TuningError::TooManySlots {
            slots: input.slots,
            max_blocks: dev.max_resident_blocks(),
        });
    }

    let mut chosen: Option<usize> = None;
    let mut candidates: Vec<usize> =
        (0..).map(|i| 1usize << i).take_while(|&p| p <= input.max_n_parallel.max(1)).collect();
    if !candidates.contains(&input.max_n_parallel) && input.max_n_parallel >= 1 {
        candidates.push(input.max_n_parallel);
    }
    for &np in candidates.iter() {
        let feasible = occupancy::fits_block_constraint(dev, input.slots, np)
            && occupancy::max_shared_mem_per_block(dev, input.slots, np, reserved_cache)
                .is_some_and(|budget| demand <= budget);
        if feasible {
            chosen = Some(np);
        }
    }

    let Some(n_parallel) = chosen else {
        let budget =
            occupancy::max_shared_mem_per_block(dev, input.slots, 1, reserved_cache).unwrap_or(0);
        return Err(TuningError::SharedMemoryExhausted { demand, budget });
    };

    Ok(TuningPlan {
        n_parallel,
        threads_per_block: dev.warp_size,
        blocks_per_sm: occupancy::required_blocks_per_sm(dev, input.slots, n_parallel),
        shared_mem_per_block: demand,
        reserved_cache_per_block: reserved_cache,
        offset_beam: (input.l / 16).max(1),
    })
}

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
    /// beam width (kept small so the tuner's shared-memory validation
    /// of the expand list stays approximately honest).
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
    fn paper_configuration_tunes_to_8_ctas() {
        // Batch 16, SIFT-like shape: the A6000 comfortably hosts
        // 16 slots × 8 CTAs = 128 blocks.
        let input = TuningInput::new(DeviceProps::rtx_a6000(), 16, 128, 64, 16);
        let plan = tune(&input).unwrap();
        assert_eq!(plan.n_parallel, 8);
        assert_eq!(plan.threads_per_block, 32);
        assert_eq!(plan.blocks_per_sm, 2); // ceil(128/84)
        assert!(plan.shared_mem_per_block > 0);
    }

    #[test]
    fn larger_batches_reduce_n_parallel() {
        let dev = DeviceProps::rtx_a6000();
        let small = tune(&TuningInput::new(dev, 16, 128, 64, 16)).unwrap();
        let large = tune(&TuningInput::new(dev, 512, 128, 64, 16)).unwrap();
        assert!(large.n_parallel < small.n_parallel);
        // 512 slots: 2 CTAs each = 1024 ≤ 1344; 4 would be 2048 > 1344.
        assert_eq!(large.n_parallel, 2);
    }

    #[test]
    fn too_many_slots_is_an_error() {
        let dev = DeviceProps::rtx_a6000();
        let err = tune(&TuningInput::new(dev, 2000, 128, 64, 16)).unwrap_err();
        assert!(matches!(err, TuningError::TooManySlots { .. }));
        assert!(err.to_string().contains("2000"));
    }

    #[test]
    fn shared_memory_can_be_the_binding_constraint() {
        // A tiny GPU with a huge candidate list: demand exceeds budget.
        let dev = DeviceProps::tiny_test_gpu();
        let mut input = TuningInput::new(dev, 4, 960, 4096, 16);
        input.graph_degree = 64;
        let err = tune(&input).unwrap_err();
        assert!(matches!(err, TuningError::SharedMemoryExhausted { .. }));
    }

    #[test]
    fn high_dim_reserves_more_cache() {
        assert_eq!(reserved_cache_bytes(128), 1024);
        assert_eq!(reserved_cache_bytes(960), 4096);
        assert!(reserved_cache_bytes(960) > reserved_cache_bytes(200));
    }

    #[test]
    fn demand_accounts_for_beam_width() {
        let narrow = block_shared_mem_bytes(64, 32, 1, 128);
        let wide = block_shared_mem_bytes(64, 32, 4, 128);
        assert_eq!(wide - narrow, 3 * 32 * 8);
    }

    #[test]
    fn plan_respects_residency_on_tiny_gpu() {
        let dev = DeviceProps::tiny_test_gpu(); // 16 resident blocks
        let plan = tune(&TuningInput::new(dev, 4, 32, 32, 8)).unwrap();
        assert!(plan.n_parallel * 4 <= dev.max_resident_blocks());
        assert!(plan.n_parallel >= 1);
    }

    #[test]
    fn offset_beam_follows_l() {
        let plan = tune(&TuningInput::new(DeviceProps::rtx_a6000(), 8, 128, 128, 16)).unwrap();
        assert_eq!(plan.offset_beam, 8);
    }

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
