//! Dynamic batching on a persistent kernel — the ALGAS discipline
//! (§IV-A, §V).
//!
//! The batch is replaced by `n_slots` independent slots, each owning one
//! in-flight query. CTAs stay resident (persistent kernel: no launch
//! per query, a small pickup delay while the CTA polls its state). Host
//! threads own disjoint slot subsets and loop: poll states, fetch
//! finished results, merge on the CPU, dispatch the next query. The
//! §V-A state optimization is selectable: remote polling pays a PCIe
//! read per slot per scan; local state copies poll host memory for free
//! while each actual transition pays exactly one PCIe write.

use crate::engine::EventQueue;
use crate::pcie::{PcieBus, PcieModel};
use crate::sched::{MergePlacement, QueryTiming, SimReport};
use crate::work::QueryWork;

/// How slot states are observed across PCIe (§V-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateMode {
    /// Host polls device-resident states: one PCIe read per slot per
    /// scan, whether or not anything changed.
    RemotePolling,
    /// GDRcopy-style mapped state copies: polls hit local memory; each
    /// actual state change costs one PCIe write.
    LocalCopy,
    /// Blocking notification: no polling traffic at all; the host
    /// sleeps and is woken by an interrupt-like completion signal with
    /// [`DynamicConfig::notify_latency_ns`] of wake latency. §V-A
    /// mentions (and rejects) this mode: it conserves PCIe but "its
    /// performance is generally not as good as polling".
    BlockingNotify,
}

/// Configuration of the dynamic-batching simulator.
#[derive(Clone, Copy, Debug)]
pub struct DynamicConfig {
    /// Number of independent slots (the paper equates this with the
    /// batch size being compared against).
    pub n_slots: usize,
    /// Host threads; slot `s` belongs to thread `s % host_threads`
    /// (§V-B's partitioned slot ownership).
    pub host_threads: usize,
    /// Pause between a host thread's scans (ns). May be 0 (busy spin).
    pub host_poll_interval_ns: u64,
    /// Cost of checking one slot's *local* state copy (ns).
    pub local_poll_ns: u64,
    /// State observation mode.
    pub state_mode: StateMode,
    /// Persistent-kernel pickup delay: time until a polling CTA notices
    /// its slot turned `Work` (ns).
    pub gpu_pickup_ns: u64,
    /// PCIe link parameters.
    pub pcie: PcieModel,
    /// Whether each query's per-CTA results lie in one contiguous
    /// region (ALGAS's layout: one sequential read fetches all CTAs;
    /// otherwise one transaction per CTA).
    pub contiguous_results: bool,
    /// Host CPU work to prepare a dispatch (ns).
    pub host_dispatch_ns: u64,
    /// Resident-block capacity; dispatching asserts
    /// `n_slots · N_parallel` fits (the persistent kernel would
    /// deadlock otherwise).
    pub capacity: usize,
    /// Wake latency of [`StateMode::BlockingNotify`] (interrupt +
    /// scheduler delay; irrelevant in the polling modes).
    pub notify_latency_ns: u64,
    /// Where the multi-CTA TopK merge runs. ALGAS uses
    /// [`MergePlacement::Host`]; [`MergePlacement::Gpu`] is the
    /// ablation that keeps the merge on-device (serializing it into
    /// the slot's GPU time).
    pub merge: MergePlacement,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        Self {
            n_slots: 16,
            host_threads: 1,
            host_poll_interval_ns: 500,
            local_poll_ns: 25,
            state_mode: StateMode::LocalCopy,
            gpu_pickup_ns: 300,
            pcie: PcieModel::default(),
            contiguous_results: true,
            host_dispatch_ns: 500,
            capacity: 1344,
            notify_latency_ns: 8_000,
            merge: MergePlacement::Host,
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum SlotSim {
    Idle,
    Busy,
    Finished { query: usize, visible_at: u64 },
}

enum Ev {
    HostWake(usize),
    GpuDone { slot: usize, query: usize },
}

/// Runs the dynamic-batching simulation.
///
/// Queries are dispatched in index order as slots free up;
/// `arrivals[i]` gates when query `i` may be dispatched (all-zeros for
/// the closed-loop measurement).
///
/// # Panics
/// Panics on mismatched `arrivals`, zero slots/threads, a scan that
/// can't make progress (`local_poll_ns == 0` with a zero poll
/// interval), or a residency violation.
pub fn run_dynamic(queries: &[QueryWork], arrivals: &[u64], cfg: &DynamicConfig) -> SimReport {
    assert_eq!(queries.len(), arrivals.len(), "one arrival per query");
    assert!(cfg.n_slots > 0, "need at least one slot");
    assert!(cfg.host_threads > 0, "need at least one host thread");
    assert!(
        cfg.host_poll_interval_ns > 0 || cfg.local_poll_ns > 0,
        "a zero-cost busy spin cannot advance simulated time"
    );
    let n = queries.len();
    let max_ctas = queries.iter().map(|q| q.n_ctas()).max().unwrap_or(0);
    assert!(
        cfg.n_slots * max_ctas <= cfg.capacity,
        "persistent kernel residency violated: {} slots x {} CTAs > capacity {}",
        cfg.n_slots,
        max_ctas,
        cfg.capacity
    );

    let mut bus = PcieBus::new();
    let mut events: EventQueue<Ev> = EventQueue::new();
    let mut slots = vec![SlotSim::Idle; cfg.n_slots];
    let mut timings = vec![
        QueryTiming {
            arrival_ns: 0,
            dispatch_ns: 0,
            gpu_start_ns: 0,
            gpu_done_ns: 0,
            completion_ns: 0
        };
        n
    ];
    let mut next_query = 0usize;
    let mut completed = 0usize;
    let mut gpu_busy_total = 0u64;

    for h in 0..cfg.host_threads {
        events.push(0, Ev::HostWake(h));
    }

    while completed < n {
        let (t, ev) = events.pop().expect("simulation deadlocked with work remaining");
        match ev {
            Ev::GpuDone { slot, query } => {
                // The CTAs push their TopK rows to the designated host
                // location (§IV-B step ②-Finish): posted writes, one per
                // CTA unless the rows are contiguous, then flip the
                // state. Under LocalCopy the state flip is one more
                // PCIe write; its completion makes everything visible.
                let q = &queries[query];
                let mut done = t;
                if cfg.merge == MergePlacement::Gpu {
                    // Ablation: the cross-CTA merge stays on-device and
                    // serializes into the slot's GPU time (§IV-B's
                    // rejected design).
                    done += q.gpu_merge_ns;
                    timings[query].gpu_done_ns = done;
                }
                if cfg.contiguous_results || q.n_ctas() <= 1 {
                    done = bus.acquire(done, cfg.pcie.write_ns(q.result_bytes)).1;
                } else {
                    let per = q.result_bytes / q.n_ctas().max(1) as u64;
                    for _ in 0..q.n_ctas() {
                        done = bus.acquire(done, cfg.pcie.write_ns(per)).1;
                    }
                }
                let visible_at = match cfg.state_mode {
                    StateMode::LocalCopy => bus.acquire(done, cfg.pcie.write_ns(4)).1,
                    StateMode::RemotePolling => done,
                    StateMode::BlockingNotify => {
                        let v = bus.acquire(done, cfg.pcie.write_ns(4)).1 + cfg.notify_latency_ns;
                        // Wake the owning host thread at notification.
                        events.push(v, Ev::HostWake(slot % cfg.host_threads));
                        v
                    }
                };
                slots[slot] = SlotSim::Finished { query, visible_at };
            }
            Ev::HostWake(h) => {
                let mut cursor = t;
                for s in (h..cfg.n_slots).step_by(cfg.host_threads) {
                    // Observe the slot's state.
                    cursor = match cfg.state_mode {
                        StateMode::LocalCopy | StateMode::BlockingNotify => {
                            cursor + cfg.local_poll_ns
                        }
                        StateMode::RemotePolling => bus.acquire(cursor, cfg.pcie.read_ns(4)).1,
                    };
                    if let SlotSim::Finished { query, visible_at } = slots[s] {
                        if visible_at <= cursor {
                            // Results were pushed into host memory by the
                            // GPU; reading them is a local sweep, then the
                            // CPU-side merge & filter (§IV-B step ④) —
                            // unless the merge already ran on the GPU.
                            let q = &queries[query];
                            cursor += 100 + q.result_bytes / 100;
                            if cfg.merge == MergePlacement::Host {
                                cursor += q.host_merge_ns;
                            }
                            timings[query].completion_ns = cursor;
                            completed += 1;
                            slots[s] = SlotSim::Idle;
                        }
                    }
                    if matches!(slots[s], SlotSim::Idle)
                        && next_query < n
                        && arrivals[next_query] <= cursor
                    {
                        let qid = next_query;
                        next_query += 1;
                        let q = &queries[qid];
                        cursor += cfg.host_dispatch_ns;
                        let dispatch_ns = cursor;
                        // Ship the query vector, then flip the state to
                        // Work (one small write in either mode).
                        cursor = bus.acquire(cursor, cfg.pcie.write_ns(q.query_bytes)).1;
                        cursor = bus.acquire(cursor, cfg.pcie.write_ns(4)).1;
                        let gpu_start = cursor + cfg.gpu_pickup_ns;
                        let gpu_done = gpu_start + q.max_cta_ns();
                        gpu_busy_total += q.total_cta_ns();
                        timings[qid] = QueryTiming {
                            arrival_ns: arrivals[qid],
                            dispatch_ns,
                            gpu_start_ns: gpu_start,
                            gpu_done_ns: gpu_done,
                            completion_ns: 0,
                        };
                        events.push(gpu_done, Ev::GpuDone { slot: s, query: qid });
                        slots[s] = SlotSim::Busy;
                    }
                }
                if completed < n {
                    match cfg.state_mode {
                        StateMode::BlockingNotify => {
                            // The thread sleeps until notified; it only
                            // self-schedules to pick up a future arrival.
                            if next_query < n && arrivals[next_query] > cursor {
                                events.push(arrivals[next_query].max(cursor + 1), Ev::HostWake(h));
                            }
                        }
                        _ => events.push(cursor + cfg.host_poll_interval_ns, Ev::HostWake(h)),
                    }
                }
            }
        }
    }

    let makespan = timings.iter().map(|t| t.completion_ns).max().unwrap_or(0);
    let allocated = makespan * (cfg.n_slots * max_ctas.max(1)) as u64;
    let gpu_busy_frac = if allocated == 0 { 0.0 } else { gpu_busy_total as f64 / allocated as f64 };
    SimReport::from_timings(timings, gpu_busy_frac, 0.0, bus.busy_ns(), bus.transactions())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(cta_ns: &[u64]) -> QueryWork {
        QueryWork::synthetic(cta_ns, 128, 16)
    }

    fn fast_cfg(slots: usize) -> DynamicConfig {
        DynamicConfig {
            n_slots: slots,
            host_threads: 1,
            host_poll_interval_ns: 100,
            local_poll_ns: 10,
            state_mode: StateMode::LocalCopy,
            gpu_pickup_ns: 100,
            pcie: PcieModel {
                transaction_overhead_ns: 100,
                bytes_per_ns: 100.0,
                read_round_trip_ns: 200,
            },
            contiguous_results: true,
            host_dispatch_ns: 50,
            capacity: 4096,
            notify_latency_ns: 2_000,
            merge: MergePlacement::Host,
        }
    }

    #[test]
    fn fast_queries_escape_slow_peers() {
        // Slot count 2: the 50 µs query occupies one slot while the
        // three 1 µs queries stream through the other.
        let queries = vec![q(&[50_000]), q(&[1_000]), q(&[1_000]), q(&[1_000])];
        let r = run_dynamic(&queries, &[0; 4], &fast_cfg(2));
        for i in 1..4 {
            assert!(
                r.per_query[i].completion_ns < r.per_query[0].completion_ns,
                "short query {i} should finish before the long one"
            );
            assert!(r.per_query[i].service_latency_ns() < 10_000);
        }
    }

    #[test]
    fn dynamic_beats_static_makespan_under_skew() {
        use crate::sched::static_batch::{run_static, StaticBatchConfig};
        use crate::sched::MergePlacement;
        // 8 queries alternating fast/slow, batch/slots = 4.
        let queries: Vec<QueryWork> =
            (0..8).map(|i| q(&[if i % 2 == 0 { 2_000 } else { 30_000 }])).collect();
        let arrivals = vec![0u64; 8];
        let dyn_r = run_dynamic(&queries, &arrivals, &fast_cfg(4));
        let stat_r = run_static(
            &queries,
            &arrivals,
            &StaticBatchConfig {
                batch_size: 4,
                kernel_launch_ns: 1000,
                capacity: 4096,
                merge: MergePlacement::None,
                pcie: fast_cfg(4).pcie,
                host_post_ns_per_query: 10,
            },
        );
        assert!(
            dyn_r.makespan_ns < stat_r.makespan_ns,
            "dynamic {} should beat static {}",
            dyn_r.makespan_ns,
            stat_r.makespan_ns
        );
        assert!(dyn_r.mean_latency_ns < stat_r.mean_latency_ns);
    }

    #[test]
    fn remote_polling_generates_more_pcie_traffic() {
        let queries: Vec<QueryWork> = (0..16).map(|_| q(&[5_000])).collect();
        let arrivals = vec![0u64; 16];
        let mut cfg = fast_cfg(4);
        let local = run_dynamic(&queries, &arrivals, &cfg);
        cfg.state_mode = StateMode::RemotePolling;
        let remote = run_dynamic(&queries, &arrivals, &cfg);
        assert!(
            remote.pcie_transactions > local.pcie_transactions,
            "remote {} vs local {}",
            remote.pcie_transactions,
            local.pcie_transactions
        );
        assert!(remote.mean_latency_ns >= local.mean_latency_ns);
    }

    #[test]
    fn scattered_results_cost_more_transactions() {
        let queries: Vec<QueryWork> = (0..8).map(|_| q(&[5_000, 5_000, 5_000, 5_000])).collect();
        let arrivals = vec![0u64; 8];
        let mut cfg = fast_cfg(2);
        let contiguous = run_dynamic(&queries, &arrivals, &cfg);
        cfg.contiguous_results = false;
        let scattered = run_dynamic(&queries, &arrivals, &cfg);
        assert!(scattered.pcie_transactions > contiguous.pcie_transactions);
        assert!(scattered.mean_latency_ns > contiguous.mean_latency_ns);
    }

    #[test]
    fn more_host_threads_help_many_slots() {
        // Many fast queries across many slots: one host thread is the
        // bottleneck; four threads should raise throughput.
        let queries: Vec<QueryWork> = (0..256).map(|_| q(&[500])).collect();
        let arrivals = vec![0u64; 256];
        let mut cfg = fast_cfg(32);
        cfg.host_poll_interval_ns = 200;
        let one = run_dynamic(&queries, &arrivals, &cfg);
        cfg.host_threads = 4;
        let four = run_dynamic(&queries, &arrivals, &cfg);
        assert!(
            four.throughput_qps > one.throughput_qps,
            "4 threads {} qps vs 1 thread {} qps",
            four.throughput_qps,
            one.throughput_qps
        );
    }

    #[test]
    fn arrivals_gate_dispatch() {
        let queries = vec![q(&[1_000]), q(&[1_000])];
        let r = run_dynamic(&queries, &[0, 500_000], &fast_cfg(2));
        assert!(r.per_query[1].dispatch_ns >= 500_000);
        assert!(r.per_query[0].completion_ns < 500_000);
    }

    #[test]
    fn dispatch_order_is_fifo() {
        let queries: Vec<QueryWork> = (0..6).map(|_| q(&[2_000])).collect();
        let r = run_dynamic(&queries, &[0; 6], &fast_cfg(2));
        for i in 1..6 {
            assert!(r.per_query[i].dispatch_ns >= r.per_query[i - 1].dispatch_ns);
        }
    }

    #[test]
    #[should_panic(expected = "residency violated")]
    fn residency_violation_panics() {
        let queries = vec![q(&[1_000, 1_000])];
        let mut cfg = fast_cfg(8);
        cfg.capacity = 4; // 8 slots x 2 CTAs > 4
        run_dynamic(&queries, &[0], &cfg);
    }

    #[test]
    fn blocking_mode_saves_pcie_but_adds_latency() {
        let queries: Vec<QueryWork> = (0..24).map(|_| q(&[20_000])).collect();
        let arrivals = vec![0u64; 24];
        let mut cfg = fast_cfg(4);
        let polling = run_dynamic(&queries, &arrivals, &cfg);
        cfg.state_mode = StateMode::BlockingNotify;
        cfg.notify_latency_ns = 5_000;
        let blocking = run_dynamic(&queries, &arrivals, &cfg);
        assert_eq!(blocking.per_query.len(), 24);
        // §V-A: blocking conserves the bus but is slower than polling.
        assert!(blocking.pcie_transactions <= polling.pcie_transactions);
        assert!(
            blocking.mean_latency_ns > polling.mean_latency_ns,
            "blocking {} should exceed polling {}",
            blocking.mean_latency_ns,
            polling.mean_latency_ns
        );
    }

    #[test]
    fn blocking_mode_handles_future_arrivals() {
        let queries = vec![q(&[5_000]), q(&[5_000])];
        let mut cfg = fast_cfg(1);
        cfg.state_mode = StateMode::BlockingNotify;
        let r = run_dynamic(&queries, &[0, 400_000], &cfg);
        assert!(r.per_query[1].dispatch_ns >= 400_000);
        assert!(r.per_query[0].completion_ns < 400_000);
    }

    #[test]
    fn gpu_merge_placement_slows_the_gpu_path() {
        let mut w = q(&[30_000, 30_000]);
        w.gpu_merge_ns = 10_000;
        w.host_merge_ns = 1_000;
        let queries = vec![w; 8];
        let arrivals = vec![0u64; 8];
        let mut cfg = fast_cfg(2);
        let host = run_dynamic(&queries, &arrivals, &cfg);
        cfg.merge = crate::sched::MergePlacement::Gpu;
        let gpu = run_dynamic(&queries, &arrivals, &cfg);
        assert!(
            gpu.mean_latency_ns > host.mean_latency_ns,
            "GPU merge {} should be slower than host merge {}",
            gpu.mean_latency_ns,
            host.mean_latency_ns
        );
        // gpu_done includes the on-device merge in the Gpu placement.
        assert!(gpu.per_query[0].gpu_done_ns >= host.per_query[0].gpu_done_ns);
    }

    #[test]
    fn report_is_deterministic() {
        let queries: Vec<QueryWork> = (0..12).map(|i| q(&[(i as u64 + 1) * 700])).collect();
        let arrivals = vec![0u64; 12];
        let a = run_dynamic(&queries, &arrivals, &fast_cfg(3));
        let b = run_dynamic(&queries, &arrivals, &fast_cfg(3));
        assert_eq!(a, b);
    }
}
