//! Executable checks of the paper's qualitative claims at test scale.
//! Each test names the paper section/figure it guards.

use algas::baselines::{each_search, AlgasMethod, CagraMethod, SearchMethod};
use algas::core::engine::AlgasIndex;
use algas::gpu::sched::dynamic::{run_dynamic, StateMode};
use algas::gpu::{CostModel, DeviceProps, HostCostModel};
use algas::graph::cagra::CagraParams;
use algas::vector::datasets::DatasetSpec;
use algas::vector::Metric;

fn setup() -> (algas::vector::datasets::GeneratedDataset, AlgasIndex) {
    let ds = DatasetSpec::tiny(1_200, 24, Metric::L2, 77).generate();
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    (ds, index)
}

/// §III-A: query step counts vary; the slowest query's steps well
/// exceed the mean (paper: 147.9%–190.2% on the full sets).
#[test]
fn claim_query_step_skew_exists() {
    // Single-CTA (GANNS-style) search exposes the raw per-query step
    // distribution; the paper measures it the same way (Fig 1). The
    // heavy tail is a ~1/150 phenomenon, so this test needs a larger
    // query set than the default `tiny` clamp allows.
    let mut spec = DatasetSpec::tiny(1_200, 24, Metric::L2, 77);
    spec.n_queries = 600;
    let ds = spec.generate();
    let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
    let method = algas::baselines::GannsMethod::new(index, 8, 32, 8).unwrap();
    let run = method.run_workload(&ds.queries);
    let steps: Vec<u32> = run.works.iter().map(|w| w.max_steps()).collect();
    let mean = steps.iter().map(|&s| s as f64).sum::<f64>() / steps.len() as f64;
    let max = *steps.iter().max().unwrap() as f64;
    // At this test scale the tail is milder than the paper-scale band
    // (the `figures fig1` harness reproduces 150%+); require a clear
    // but conservative skew here.
    assert!(max / mean > 1.15, "expected a heavy step tail, got max/mean {:.2}", max / mean);
}

/// §III-B / Fig 3: sorting is a significant but minority share of
/// intra-CTA search time (paper band: 19.9%–33.9%).
#[test]
fn claim_sorting_share_in_paper_band() {
    let (ds, index) = setup();
    let method = AlgasMethod::new(index, 8, 64, 8).unwrap();
    let (mut sort, mut total) = (0u64, 0u64);
    each_search(method.engine(), &ds.queries, |s| {
        let totals = s.multi.step_totals();
        sort += totals.sort_cycles;
        total += totals.total_cycles();
    });
    let frac = sort as f64 / total as f64;
    assert!((0.10..0.45).contains(&frac), "sort share {frac:.3} far outside the paper's regime");
}

/// §IV-B: the CPU merge undercuts the GPU cross-CTA merge for every
/// small-batch CTA count.
#[test]
fn claim_cpu_merge_cheaper_than_gpu_merge() {
    let host = HostCostModel::default();
    let gpu = CostModel::default();
    let dev = DeviceProps::rtx_a6000();
    for t in 2..=16usize {
        for k in [8usize, 16, 32, 64] {
            let h = host.merge_ns(t, k);
            let g = dev.cycles_to_ns(gpu.gpu_topk_merge_cycles(t, k));
            assert!(h < g, "T={t} k={k}: host {h} ns !< gpu {g} ns");
        }
    }
}

/// Table I / Figs 10–11: at small batch and matched parameters, ALGAS
/// beats the CAGRA discipline on both axes.
#[test]
fn claim_headline_latency_and_throughput() {
    let (ds, index) = setup();
    let algas = AlgasMethod::new(index.clone(), 16, 64, 16).unwrap();
    let cagra = CagraMethod::new(index, 16, 64, 16).unwrap();
    let arrivals = vec![0u64; ds.queries.len()];
    let ra = algas.simulate(&algas.run_workload(&ds.queries).works, &arrivals);
    let rc = cagra.simulate(&cagra.run_workload(&ds.queries).works, &arrivals);
    let lat_reduction = 1.0 - ra.mean_latency_ns / rc.mean_latency_ns;
    let thpt_gain = ra.throughput_qps / rc.throughput_qps - 1.0;
    assert!(lat_reduction > 0.05, "latency reduction only {:.1}%", lat_reduction * 100.0);
    assert!(thpt_gain > 0.05, "throughput gain only {:.1}%", thpt_gain * 100.0);
}

/// §V-A: local state copies strictly reduce PCIe transactions and
/// never hurt latency.
#[test]
fn claim_state_copies_save_pcie() {
    let (ds, index) = setup();
    let algas = AlgasMethod::new(index, 8, 48, 8).unwrap();
    let works = algas.run_workload(&ds.queries).works;
    let arrivals = vec![0u64; works.len()];
    let mut cfg = algas.dynamic_config();
    cfg.state_mode = StateMode::LocalCopy;
    let local = run_dynamic(&works, &arrivals, &cfg);
    cfg.state_mode = StateMode::RemotePolling;
    let remote = run_dynamic(&works, &arrivals, &cfg);
    assert!(local.pcie_transactions < remote.pcie_transactions);
    assert!(local.mean_latency_ns <= remote.mean_latency_ns * 1.001);
}

/// §IV-C: the tuner's residency guarantee holds on the paper's device
/// for every batch size the evaluation sweeps (1–128).
#[test]
fn claim_tuner_keeps_all_slots_resident() {
    use algas::gpu::occupancy::{tune, TuningInput};
    let dev = DeviceProps::rtx_a6000();
    for slots in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let plan = tune(&TuningInput::new(dev, slots, 128, 64, 16)).unwrap();
        assert!(
            plan.n_parallel * slots <= dev.max_resident_blocks(),
            "slots={slots}: residency violated"
        );
        assert!(plan.n_parallel >= 1);
        // Shared memory demand within the per-block budget implied by
        // the §IV-C formula.
        let budget = algas::gpu::occupancy::max_shared_mem_per_block(
            &dev,
            slots,
            plan.n_parallel,
            plan.reserved_cache_per_block,
        )
        .expect("plan must be feasible");
        assert!(plan.shared_mem_per_block <= budget);
    }
}

/// §IV-A: the persistent kernel beats the partitioned-kernel
/// alternative at every check period (the paper's dilemma: frequent
/// checks multiply overhead, infrequent checks re-grow the bubble).
#[test]
fn claim_persistent_kernel_beats_partitioned() {
    use algas::gpu::{run_partitioned, PartitionedConfig};
    let (ds, index) = setup();
    let algas = AlgasMethod::new(index, 8, 48, 8).unwrap();
    let works = algas.run_workload(&ds.queries).works;
    let arrivals = vec![0u64; works.len()];
    let persistent = algas.simulate(&works, &arrivals);
    for steps in [2u32, 8, 32, 128] {
        let part = run_partitioned(
            &works,
            &arrivals,
            &PartitionedConfig { n_slots: 8, steps_per_launch: steps, ..Default::default() },
        );
        assert!(
            persistent.mean_latency_ns < part.mean_latency_ns,
            "steps={steps}: persistent {} !< partitioned {}",
            persistent.mean_latency_ns,
            part.mean_latency_ns
        );
    }
}

/// §I: queries in a static batch pay for their slowest peer; the waste
/// is substantial at realistic skew (paper: 22.9%–33.7%).
#[test]
fn claim_static_batching_wastes_gpu_time() {
    use algas::gpu::{run_static, MergePlacement, StaticBatchConfig};
    let (ds, index) = setup();
    let method = AlgasMethod::new(index, 8, 64, 8).unwrap();
    let works = method.run_workload(&ds.queries).works;
    let arrivals = vec![0u64; works.len()];
    let sim = run_static(
        &works,
        &arrivals,
        &StaticBatchConfig { batch_size: 16, merge: MergePlacement::None, ..Default::default() },
    );
    assert!(
        sim.bubble_waste_frac > 0.10,
        "waste {:.3} too small to motivate dynamic batching",
        sim.bubble_waste_frac
    );
}
