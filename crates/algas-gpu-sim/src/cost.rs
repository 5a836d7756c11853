//! The cycle cost model.
//!
//! Every operation a search CTA performs is costed in GPU cycles by the
//! functions here. The constants were calibrated so the *ratios* the
//! paper reports emerge from first principles:
//!
//! * intra-CTA sorting consumes 19.9%–33.9% of search time across the
//!   dim-128…960 datasets (Fig 3) — distance cost scales with `dim`,
//!   sort cost does not, so the fraction falls as `dim` grows;
//! * bitonic stages pay a per-stage synchronization penalty, which is
//!   why skipping sorts (beam extend) buys 14.2%–25% (Fig 17);
//! * a global-memory access is ~an order of magnitude more expensive
//!   than shared memory, which is what makes cross-CTA merging on the
//!   GPU unattractive (§IV-B).
//!
//! All knobs are public fields so ablation benches can sweep them.

/// Cycle costs of the primitive operations of a graph-search CTA.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Threads per CTA (the paper fixes this to the warp size, §IV-C).
    pub cta_threads: usize,
    /// Cycles of FMA + accumulate work per *thread-chunk* of dimensions
    /// (each thread covers `ceil(dim / cta_threads)` dimensions).
    pub fma_cycles_per_chunk: u64,
    /// Effective global-memory cycles charged per vector fetch
    /// (latency amortized by warp-level pipelining).
    pub gmem_vector_fetch_cycles: u64,
    /// Additional global-memory cycles per byte fetched (bandwidth term).
    pub gmem_cycles_per_byte: f64,
    /// Cycles per warp-shuffle reduction step (log2(warp) steps total).
    pub shuffle_step_cycles: u64,
    /// Cycles per compare-exchange executed by one thread in a bitonic
    /// stage (shared-memory load + compare + store).
    pub bitonic_cmpex_cycles: u64,
    /// Fixed cycles per bitonic stage (`__syncthreads` + control).
    pub bitonic_stage_sync_cycles: u64,
    /// Cycles for one visited-bitmap test-and-set (shared-memory atomic).
    pub bitmap_op_cycles: u64,
    /// Cycles for one cross-CTA visited-bitmap operation (global-memory
    /// atomic; used by multi-CTA search).
    pub global_bitmap_op_cycles: u64,
    /// Cycles per element moved in a cross-CTA GPU TopK merge
    /// (global-memory traffic + divide-and-conquer idling, §III-B).
    pub gpu_merge_cycles_per_element: u64,
    /// Fixed cycles per cross-CTA merge round (grid-level sync).
    pub gpu_merge_round_sync_cycles: u64,
    /// Cycles a persistent-kernel CTA spends per state poll.
    pub persistent_poll_cycles: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            cta_threads: 32,
            fma_cycles_per_chunk: 4,
            gmem_vector_fetch_cycles: 100,
            gmem_cycles_per_byte: 0.05,
            shuffle_step_cycles: 2,
            bitonic_cmpex_cycles: 8,
            bitonic_stage_sync_cycles: 40,
            bitmap_op_cycles: 4,
            global_bitmap_op_cycles: 30,
            gpu_merge_cycles_per_element: 60,
            gpu_merge_round_sync_cycles: 600,
            persistent_poll_cycles: 280,
        }
    }
}

impl CostModel {
    /// Cycles to compute one query–point distance with the CTA's threads:
    /// fetch the point from global memory, per-thread partial sums over
    /// dimension chunks, warp-shuffle reduction (Algorithm 1 lines 10–13).
    pub fn distance_cycles(&self, dim: usize) -> u64 {
        let chunks = dim.div_ceil(self.cta_threads) as u64;
        let bytes = (dim * 4) as f64;
        let mem = self.gmem_vector_fetch_cycles + (bytes * self.gmem_cycles_per_byte) as u64;
        let compute = chunks * self.fma_cycles_per_chunk;
        let reduce = log2_ceil(self.cta_threads as u64) * self.shuffle_step_cycles;
        mem + compute + reduce
    }

    /// Cycles for a full bitonic sort of `n` elements by the CTA.
    ///
    /// `k(k+1)/2` stages for `k = log2(n↑)`; each stage performs `n/2`
    /// compare-exchanges spread over the CTA's threads plus one barrier.
    pub fn bitonic_sort_cycles(&self, n: usize) -> u64 {
        if n <= 1 {
            return 0;
        }
        let np = n.next_power_of_two() as u64;
        let k = log2_ceil(np);
        let stages = k * (k + 1) / 2;
        self.bitonic_stage_cost(np) * stages
    }

    /// Cycles for a bitonic *merge* of an `n`-element bitonic sequence
    /// (`log2(n)` stages) — the candidate-list ∪ expand-list maintenance
    /// step ④ of §IV-B.
    pub fn bitonic_merge_cycles(&self, n: usize) -> u64 {
        if n <= 1 {
            return 0;
        }
        let np = n.next_power_of_two() as u64;
        self.bitonic_stage_cost(np) * log2_ceil(np)
    }

    fn bitonic_stage_cost(&self, np: u64) -> u64 {
        let cmpex_per_thread = (np / 2).div_ceil(self.cta_threads as u64);
        cmpex_per_thread * self.bitonic_cmpex_cycles + self.bitonic_stage_sync_cycles
    }

    /// Cycles to filter `n` expand-list entries through the visited
    /// bitmap (step ② of §IV-B). `shared` selects the intra-CTA bitmap;
    /// multi-CTA shares the bitmap in global memory.
    pub fn bitmap_filter_cycles(&self, n: usize, shared: bool) -> u64 {
        let per = if shared { self.bitmap_op_cycles } else { self.global_bitmap_op_cycles };
        let per_thread = (n as u64).div_ceil(self.cta_threads as u64);
        per_thread * per
    }

    /// Cycles for an **on-GPU** cross-CTA TopK merge of `n_ctas` sorted
    /// lists of `k` elements (divide-and-conquer over global memory) —
    /// the overhead ALGAS eliminates by moving the merge to the CPU.
    pub fn gpu_topk_merge_cycles(&self, n_ctas: usize, k: usize) -> u64 {
        if n_ctas <= 1 {
            return 0;
        }
        let rounds = log2_ceil(n_ctas.next_power_of_two() as u64);
        let mut cycles = 0u64;
        let mut len = k as u64;
        for _ in 0..rounds {
            // Pairs of lists merge in parallel, so a round costs one
            // pair's traffic (2·len elements through global memory) plus
            // a grid sync. The cores of already-merged lists idle — the
            // halving parallelism §III-B complains about — which is
            // captured by charging the full per-element constant while
            // `len` doubles every round.
            cycles +=
                2 * len * self.gpu_merge_cycles_per_element + self.gpu_merge_round_sync_cycles;
            len *= 2;
        }
        cycles
    }
}

/// Cost parameters of host-side result processing: the CPU half of the
/// GPU-CPU cooperation (§IV-B step ④). Host merging is cheap precisely
/// because CPU memory latency is low and the lists are small, which is
/// the paper's argument for offloading it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostCostModel {
    /// ns per element pushed through the merge heap.
    pub merge_ns_per_element: u64,
    /// ns to set up one source list (pointer/bounds bookkeeping).
    pub list_setup_ns: u64,
    /// Fixed ns per query for final filtering and result submission.
    pub post_filter_ns: u64,
}

impl Default for HostCostModel {
    fn default() -> Self {
        Self { merge_ns_per_element: 20, list_setup_ns: 80, post_filter_ns: 400 }
    }
}

impl HostCostModel {
    /// Predicted host time to merge `n_lists` sorted lists and emit the
    /// TopK. The heap only needs to pop `k` winners, but every pop
    /// refills from the winning list, so ~`k + n_lists` heap
    /// operations dominate.
    pub fn merge_ns(&self, n_lists: usize, k: usize) -> u64 {
        if n_lists <= 1 {
            // A single sorted list needs no merge, only the filter.
            return self.post_filter_ns;
        }
        let heap_ops = (n_lists + k) as u64;
        let factor = log2_ceil(n_lists.max(2) as u64);
        n_lists as u64 * self.list_setup_ns
            + heap_ops * self.merge_ns_per_element * factor
            + self.post_filter_ns
    }
}

/// ceil(log2(x)) for x ≥ 1.
#[inline]
pub fn log2_ceil(x: u64) -> u64 {
    debug_assert!(x >= 1);
    64 - (x - 1).leading_zeros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(32), 5);
        assert_eq!(log2_ceil(33), 6);
    }

    #[test]
    fn distance_cost_scales_with_dim() {
        let c = CostModel::default();
        let d128 = c.distance_cycles(128);
        let d960 = c.distance_cycles(960);
        assert!(d960 > 2 * d128, "dim-960 ({d960}) should dwarf dim-128 ({d128})");
        // Memory floor: even a 1-dim distance pays the fetch.
        assert!(c.distance_cycles(1) >= c.gmem_vector_fetch_cycles);
    }

    #[test]
    fn bitonic_sort_grows_superlinearly_in_stages() {
        let c = CostModel::default();
        assert_eq!(c.bitonic_sort_cycles(1), 0);
        let s32 = c.bitonic_sort_cycles(32);
        let s128 = c.bitonic_sort_cycles(128);
        assert!(s128 > s32);
        // 32 elements: k=5 → 15 stages; each stage: 16 cmpex over 32
        // threads = 1 per thread → 8 + 40 sync = 48; total 720.
        assert_eq!(s32, 720);
    }

    #[test]
    fn bitonic_merge_cheaper_than_sort() {
        let c = CostModel::default();
        assert!(c.bitonic_merge_cycles(128) < c.bitonic_sort_cycles(128));
        assert_eq!(c.bitonic_merge_cycles(1), 0);
    }

    #[test]
    fn global_bitmap_more_expensive_than_shared() {
        let c = CostModel::default();
        assert!(c.bitmap_filter_cycles(64, false) > c.bitmap_filter_cycles(64, true));
    }

    #[test]
    fn gpu_merge_cost_grows_with_ctas() {
        let c = CostModel::default();
        assert_eq!(c.gpu_topk_merge_cycles(1, 16), 0);
        let m2 = c.gpu_topk_merge_cycles(2, 16);
        let m8 = c.gpu_topk_merge_cycles(8, 16);
        assert!(m8 > m2);
    }

    #[test]
    fn host_cost_scales_with_lists() {
        let m = HostCostModel::default();
        assert_eq!(m.merge_ns(1, 16), m.post_filter_ns);
        assert!(m.merge_ns(8, 16) > m.merge_ns(2, 16));
        assert!(m.merge_ns(4, 64) > m.merge_ns(4, 16));
    }

    #[test]
    fn sort_fraction_lands_in_paper_band() {
        // Reproduce the Fig 3 regime: one step = expand ~16 unvisited
        // neighbors + sort expand(32) + merge candidate list(128).
        let c = CostModel::default();
        for (dim, lo, hi) in [(128, 0.25, 0.45), (960, 0.12, 0.30)] {
            let dist = 16 * c.distance_cycles(dim);
            let sort = c.bitonic_sort_cycles(32) + c.bitonic_merge_cycles(128);
            let frac = sort as f64 / (sort + dist) as f64;
            assert!(
                frac > lo && frac < hi,
                "dim {dim}: sort fraction {frac:.3} outside [{lo}, {hi}]"
            );
        }
    }
}
