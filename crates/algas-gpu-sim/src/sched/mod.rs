//! Batch scheduling simulators.
//!
//! Two timing engines replay [`crate::work::QueryWork`] under the two
//! batching disciplines the paper compares:
//!
//! * [`static_batch`] — classic batch processing: per-batch kernel
//!   launch, a barrier at the slowest query (the *query bubble*), and a
//!   TopK merge either on the GPU (CAGRA multi-CTA) or nowhere
//!   (single-CTA).
//! * [`dynamic`] — ALGAS dynamic batching: independent slots on a
//!   persistent kernel, host threads polling slot states, CPU-side
//!   merging, and the §V-A state-copy optimization.
//! * [`partitioned`] — the §IV-A rejected alternative (fixed-step
//!   kernel launches with host checks in between), kept as an ablation.
//!
//! All produce a [`SimReport`] with identical semantics so the figures
//! compare like with like.

pub mod dynamic;
pub mod partitioned;
pub mod static_batch;

/// Where the multi-CTA TopK merge runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergePlacement {
    /// On the GPU after the search barrier (CAGRA multi-CTA).
    Gpu,
    /// On the host CPU after result transfer (ALGAS, §IV-B).
    Host,
    /// No merge (single-CTA searches produce one list).
    None,
}

/// Per-query lifecycle timestamps (ns since simulation start).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryTiming {
    /// When the query became available to the system.
    pub arrival_ns: u64,
    /// When the host began shipping it to the GPU.
    pub dispatch_ns: u64,
    /// When GPU compute for it started.
    pub gpu_start_ns: u64,
    /// When its last CTA (plus GPU merge, if any) finished.
    pub gpu_done_ns: u64,
    /// When its results were delivered (post host merge/filter).
    pub completion_ns: u64,
}

impl QueryTiming {
    /// Service latency: dispatch → delivery. This is the latency the
    /// paper's figures report (it excludes open-loop queueing delay).
    pub fn service_latency_ns(&self) -> u64 {
        self.completion_ns.saturating_sub(self.dispatch_ns)
    }

    /// End-to-end latency: arrival → delivery (includes queueing).
    pub fn e2e_latency_ns(&self) -> u64 {
        self.completion_ns.saturating_sub(self.arrival_ns)
    }
}

/// Outcome of a simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimReport {
    /// Per-query timings, indexed like the input work slice.
    pub per_query: Vec<QueryTiming>,
    /// Time at which the last query completed.
    pub makespan_ns: u64,
    /// Queries per second over the makespan.
    pub throughput_qps: f64,
    /// Mean service latency (ns).
    pub mean_latency_ns: f64,
    /// 99th-percentile service latency (ns).
    pub p99_latency_ns: u64,
    /// Fraction of allocated CTA-time actually spent computing.
    pub gpu_busy_frac: f64,
    /// Query-bubble waste rate: the share of allocated CTA time spent
    /// idle waiting for batch peers (0 for dynamic batching).
    pub bubble_waste_frac: f64,
    /// Total PCIe bus busy time (ns).
    pub pcie_busy_ns: u64,
    /// Number of PCIe transactions carried.
    pub pcie_transactions: u64,
}

impl SimReport {
    /// Builds the aggregate numbers from per-query timings.
    pub fn from_timings(
        per_query: Vec<QueryTiming>,
        gpu_busy_frac: f64,
        bubble_waste_frac: f64,
        pcie_busy_ns: u64,
        pcie_transactions: u64,
    ) -> SimReport {
        let makespan_ns = per_query.iter().map(|t| t.completion_ns).max().unwrap_or(0);
        let n = per_query.len();
        let mut lat: Vec<u64> = per_query.iter().map(|t| t.service_latency_ns()).collect();
        lat.sort_unstable();
        let mean_latency_ns =
            if n == 0 { 0.0 } else { lat.iter().map(|&x| x as f64).sum::<f64>() / n as f64 };
        let p99_latency_ns = if n == 0 {
            0
        } else {
            // Nearest-rank percentile: ceil(0.99·n)-th order statistic.
            lat[((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1]
        };
        let throughput_qps =
            if makespan_ns == 0 { 0.0 } else { n as f64 / (makespan_ns as f64 * 1e-9) };
        SimReport {
            per_query,
            makespan_ns,
            throughput_qps,
            mean_latency_ns,
            p99_latency_ns,
            gpu_busy_frac,
            bubble_waste_frac,
            pcie_busy_ns,
            pcie_transactions,
        }
    }

    /// Sorted service latencies (the Fig 13 curve).
    pub fn sorted_latencies_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.per_query.iter().map(|t| t.service_latency_ns()).collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(d: u64, c: u64) -> QueryTiming {
        QueryTiming {
            arrival_ns: 0,
            dispatch_ns: d,
            gpu_start_ns: d,
            gpu_done_ns: c,
            completion_ns: c,
        }
    }

    #[test]
    fn report_aggregates() {
        let r = SimReport::from_timings(vec![t(0, 100), t(0, 300), t(100, 200)], 0.5, 0.1, 7, 3);
        assert_eq!(r.makespan_ns, 300);
        assert_eq!(r.p99_latency_ns, 300);
        assert!((r.mean_latency_ns - (100.0 + 300.0 + 100.0) / 3.0).abs() < 1e-9);
        assert!((r.throughput_qps - 3.0 / 300e-9).abs() < 1.0);
        assert_eq!(r.sorted_latencies_ns(), vec![100, 100, 300]);
    }

    #[test]
    fn empty_report_is_sane() {
        let r = SimReport::from_timings(vec![], 0.0, 0.0, 0, 0);
        assert_eq!(r.makespan_ns, 0);
        assert_eq!(r.throughput_qps, 0.0);
        assert_eq!(r.mean_latency_ns, 0.0);
    }

    #[test]
    fn latency_accessors() {
        let q = QueryTiming {
            arrival_ns: 10,
            dispatch_ns: 50,
            gpu_start_ns: 60,
            gpu_done_ns: 90,
            completion_ns: 100,
        };
        assert_eq!(q.service_latency_ns(), 50);
        assert_eq!(q.e2e_latency_ns(), 90);
    }
}
