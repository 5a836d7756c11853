//! Occupancy arithmetic — the constraint system of §IV-C.
//!
//! The adaptive tuning scheme must guarantee that **all** slots' CTAs are
//! simultaneously resident (a persistent kernel deadlocks otherwise: a
//! non-resident CTA would never poll its state). Two constraints bind:
//!
//! ```text
//! N_parallel · slot ≤ N_SM · N_max_block_per_SM                 (blocks)
//! M_avail_per_block ≤ M_per_SM / N_block_per_SM − M_reserved    (shmem)
//! ```
//!
//! Below the raw arithmetic sits the policy that solves it: [`tune`]
//! picks the largest `N_parallel` both constraints admit. The figures
//! run it for each method they simulate; a CPU server has no residency
//! to keep and does not.

use crate::device::DeviceProps;

/// Resource demand of one block (CTA) of the search kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockDemand {
    /// Threads per block (the paper pins this to one warp).
    pub threads: usize,
    /// Dynamic shared memory per block in bytes (candidate list +
    /// expand list + bitmap segment).
    pub shared_mem_bytes: usize,
}

/// Outcome of an occupancy check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Occupancy {
    /// Blocks that can be resident per SM under every constraint.
    pub blocks_per_sm: usize,
    /// Blocks resident on the whole device.
    pub total_resident_blocks: usize,
}

/// Computes how many blocks of the given demand fit per SM.
///
/// Considers the per-SM block cap, the thread capacity, and shared
/// memory (each block additionally pays the device's reserved
/// per-block shared memory, as CUDA does).
pub fn blocks_per_sm(device: &DeviceProps, demand: &BlockDemand) -> usize {
    if demand.threads == 0 || demand.threads > device.max_threads_per_block {
        return 0;
    }
    if demand.shared_mem_bytes > device.shared_mem_per_block_optin {
        return 0;
    }
    let by_cap = device.max_blocks_per_sm;
    // SM thread capacity: max_blocks_per_sm warps of max size is the
    // simplest faithful bound given Table II's fields.
    let by_threads = (device.max_threads_per_block * device.max_blocks_per_sm) / demand.threads;
    let footprint = demand.shared_mem_bytes + device.reserved_shared_mem_per_block;
    let by_shmem = device.shared_mem_per_sm / footprint.max(1);
    by_cap.min(by_threads).min(by_shmem)
}

/// Full-device occupancy for a block demand.
pub fn device_occupancy(device: &DeviceProps, demand: &BlockDemand) -> Occupancy {
    let per_sm = blocks_per_sm(device, demand);
    Occupancy { blocks_per_sm: per_sm, total_resident_blocks: per_sm * device.num_sms }
}

/// The §IV-C block constraint: can `slots` slots, each with
/// `n_parallel` CTAs, all be resident at once?
pub fn fits_block_constraint(device: &DeviceProps, slots: usize, n_parallel: usize) -> bool {
    n_parallel * slots <= device.max_resident_blocks()
}

/// The §IV-C rounding of blocks-per-SM:
/// `N_block_per_SM = align(N_parallel · slot / N_SM)` — rounded up so
/// the residency requirement is conservative.
pub fn required_blocks_per_sm(device: &DeviceProps, slots: usize, n_parallel: usize) -> usize {
    (n_parallel * slots).div_ceil(device.num_sms)
}

/// The §IV-C shared-memory bound:
/// `M_avail_per_block ≤ M_per_SM / N_block_per_SM − M_reserved_per_block`.
///
/// Returns the maximum dynamic shared memory each block may use, given
/// the residency requirement and an extra `reserved_cache_bytes` the
/// tuner sets aside per block as runtime cache for high-dimensional
/// data (§IV-C). `None` when the residency requirement is infeasible.
pub fn max_shared_mem_per_block(
    device: &DeviceProps,
    slots: usize,
    n_parallel: usize,
    reserved_cache_bytes: usize,
) -> Option<usize> {
    if !fits_block_constraint(device, slots, n_parallel) {
        return None;
    }
    let per_sm_blocks = required_blocks_per_sm(device, slots, n_parallel).max(1);
    let budget = device.shared_mem_per_sm / per_sm_blocks;
    let reserved = device.reserved_shared_mem_per_block + reserved_cache_bytes;
    let avail = budget.checked_sub(reserved)?;
    Some(avail.min(device.shared_mem_per_block_optin))
}

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

    if !fits_block_constraint(dev, input.slots, 1) {
        return Err(TuningError::TooManySlots {
            slots: input.slots,
            max_blocks: dev.max_resident_blocks(),
        });
    }

    let max = input.max_n_parallel;
    let chosen = (0..)
        .map(|i| 1usize << i)
        .take_while(|&p| p <= max.max(1))
        .chain((max >= 1).then_some(max))
        .filter(|&np| {
            fits_block_constraint(dev, input.slots, np)
                && max_shared_mem_per_block(dev, input.slots, np, reserved_cache)
                    .is_some_and(|budget| demand <= budget)
        })
        .max();

    let Some(n_parallel) = chosen else {
        let budget = max_shared_mem_per_block(dev, input.slots, 1, reserved_cache).unwrap_or(0);
        return Err(TuningError::SharedMemoryExhausted { demand, budget });
    };

    Ok(TuningPlan {
        n_parallel,
        threads_per_block: dev.warp_size,
        blocks_per_sm: required_blocks_per_sm(dev, input.slots, n_parallel),
        shared_mem_per_block: demand,
        reserved_cache_per_block: reserved_cache,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_cap_binds_small_demands() {
        let d = DeviceProps::rtx_a6000();
        let demand = BlockDemand { threads: 32, shared_mem_bytes: 1024 };
        let occ = device_occupancy(&d, &demand);
        assert_eq!(occ.blocks_per_sm, 16); // per-SM cap binds
        assert_eq!(occ.total_resident_blocks, 84 * 16);
    }

    #[test]
    fn shared_memory_binds_large_demands() {
        let d = DeviceProps::rtx_a6000();
        // 24 KiB + 1 KiB reserved per block → 100 KiB / 25 KiB = 4.
        let demand = BlockDemand { threads: 32, shared_mem_bytes: 24 * 1024 };
        assert_eq!(blocks_per_sm(&d, &demand), 4);
    }

    #[test]
    fn infeasible_demands_yield_zero() {
        let d = DeviceProps::rtx_a6000();
        assert_eq!(blocks_per_sm(&d, &BlockDemand { threads: 0, shared_mem_bytes: 0 }), 0);
        assert_eq!(blocks_per_sm(&d, &BlockDemand { threads: 2048, shared_mem_bytes: 0 }), 0);
        let too_big =
            BlockDemand { threads: 32, shared_mem_bytes: d.shared_mem_per_block_optin + 1 };
        assert_eq!(blocks_per_sm(&d, &too_big), 0);
    }

    #[test]
    fn block_constraint_matches_paper_formula() {
        let d = DeviceProps::rtx_a6000();
        assert!(fits_block_constraint(&d, 16, 8)); // 128 ≤ 1344
        assert!(fits_block_constraint(&d, 84, 16)); // exactly 1344
        assert!(!fits_block_constraint(&d, 85, 16));
    }

    #[test]
    fn required_blocks_per_sm_rounds_up() {
        let d = DeviceProps::rtx_a6000();
        assert_eq!(required_blocks_per_sm(&d, 16, 8), 2); // 128/84 → 2
        assert_eq!(required_blocks_per_sm(&d, 84, 16), 16);
        assert_eq!(required_blocks_per_sm(&d, 1, 1), 1);
    }

    #[test]
    fn shared_mem_budget_shrinks_with_residency() {
        let d = DeviceProps::rtx_a6000();
        let loose = max_shared_mem_per_block(&d, 8, 2, 0).unwrap();
        let tight = max_shared_mem_per_block(&d, 84, 16, 0).unwrap();
        assert!(loose > tight);
        // 16 blocks/SM: 100 KiB / 16 = 6.4 KiB − 1 KiB reserved.
        assert_eq!(tight, 102_400 / 16 - 1024);
    }

    #[test]
    fn reserved_cache_reduces_budget() {
        let d = DeviceProps::rtx_a6000();
        let base = max_shared_mem_per_block(&d, 16, 4, 0).unwrap();
        let cached = max_shared_mem_per_block(&d, 16, 4, 2048).unwrap();
        assert_eq!(base - cached, 2048);
    }

    #[test]
    fn infeasible_residency_is_none() {
        let d = DeviceProps::rtx_a6000();
        assert_eq!(max_shared_mem_per_block(&d, 1000, 16, 0), None);
    }

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
}
