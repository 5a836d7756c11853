//! Work descriptors exchanged between the search algorithms and the
//! timing engines.
//!
//! The search algorithms in `algas-core`/`algas-baselines` run *for
//! real* on real vectors and — while running — cost their operations
//! with the [`crate::cost::CostModel`]. The result is one
//! [`QueryWork`] per query: how long each of its CTAs computes, how many
//! bytes cross PCIe, and what the two merge strategies would cost. The
//! schedulers in [`crate::sched`] replay these under a batching policy.

/// Timed work of a single CTA searching for one query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CtaWork {
    /// Wall-clock nanoseconds of the CTA's whole search (already
    /// converted from cycles at the device clock).
    pub search_ns: u64,
    /// Number of search steps the CTA executed (one step = select,
    /// expand, filter, sort — Algorithm 1 lines 7–19).
    pub steps: u32,
}

/// Timed work of one query across all its CTAs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryWork {
    /// One entry per CTA assigned to this query (`N_parallel` entries).
    pub ctas: Vec<CtaWork>,
    /// Bytes of the query vector shipped host→GPU.
    pub query_bytes: u64,
    /// Total result bytes shipped GPU→host (all CTAs' TopK lists).
    pub result_bytes: u64,
    /// Cost of merging the CTAs' TopK lists **on the GPU** (the CAGRA
    /// multi-CTA baseline), ns.
    pub gpu_merge_ns: u64,
    /// Cost of merging the CTAs' TopK lists **on the host CPU** (the
    /// ALGAS strategy), ns.
    pub host_merge_ns: u64,
}

impl QueryWork {
    /// GPU compute time of the query alone: the slowest of its CTAs
    /// (CTAs run concurrently under the residency guarantee).
    pub fn max_cta_ns(&self) -> u64 {
        self.ctas.iter().map(|c| c.search_ns).max().unwrap_or(0)
    }

    /// Total CTA busy time (for utilization accounting).
    pub fn total_cta_ns(&self) -> u64 {
        self.ctas.iter().map(|c| c.search_ns).sum()
    }

    /// Number of CTAs (`N_parallel`).
    pub fn n_ctas(&self) -> usize {
        self.ctas.len()
    }

    /// Maximum step count across the query's CTAs — the "query step"
    /// statistic of Figs 1–2.
    pub fn max_steps(&self) -> u32 {
        self.ctas.iter().map(|c| c.steps).max().unwrap_or(0)
    }

    /// Convenience constructor for tests and synthetic workloads: `T`
    /// CTAs of the given durations, 4-byte-per-dim query, `k`-element
    /// result rows of 8 bytes (id + distance).
    pub fn synthetic(cta_ns: &[u64], dim: usize, k: usize) -> Self {
        QueryWork {
            ctas: cta_ns.iter().map(|&ns| CtaWork { search_ns: ns, steps: 1 }).collect(),
            query_bytes: (dim * 4) as u64,
            result_bytes: (cta_ns.len() * k * 8) as u64,
            gpu_merge_ns: 0,
            host_merge_ns: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let q = QueryWork {
            ctas: vec![
                CtaWork { search_ns: 100, steps: 10 },
                CtaWork { search_ns: 250, steps: 25 },
            ],
            query_bytes: 512,
            result_bytes: 256,
            gpu_merge_ns: 30,
            host_merge_ns: 20,
        };
        assert_eq!(q.max_cta_ns(), 250);
        assert_eq!(q.total_cta_ns(), 350);
        assert_eq!(q.n_ctas(), 2);
        assert_eq!(q.max_steps(), 25);
    }

    #[test]
    fn empty_query_is_zero() {
        let q = QueryWork {
            ctas: vec![],
            query_bytes: 0,
            result_bytes: 0,
            gpu_merge_ns: 0,
            host_merge_ns: 0,
        };
        assert_eq!(q.max_cta_ns(), 0);
        assert_eq!(q.max_steps(), 0);
    }

    #[test]
    fn synthetic_sets_bytes() {
        let q = QueryWork::synthetic(&[10, 20], 128, 16);
        assert_eq!(q.query_bytes, 512);
        assert_eq!(q.result_bytes, 2 * 16 * 8);
        assert_eq!(q.n_ctas(), 2);
    }
}
