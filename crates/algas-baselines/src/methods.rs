//! A uniform interface over the four search methods the paper compares
//! (§VI): ALGAS, CAGRA, GANNS, IVF — each bundling its functional
//! search with its batching discipline so the benchmark harness can
//! treat them interchangeably.
//!
//! * **ALGAS** — multi-CTA beam-extend search, dynamic slots on a
//!   persistent kernel, CPU merge, state-copy optimization.
//! * **CAGRA** — multi-CTA greedy search, static batches, GPU merge.
//! * **GANNS** — single-CTA greedy search (no multi-CTA
//!   implementation), static batches, no merge.
//! * **IVF** — FAISS-style IVF-Flat, static batches, GPU merge.

use crate::ivf::{build_ivf, IvfIndex, IvfParams};
use algas_core::engine::{AlgasEngine, AlgasIndex, BeamMode, EngineConfig};
use algas_core::tuning::TuningError;
use algas_gpu_sim::occupancy::{device_occupancy, BlockDemand};
use algas_gpu_sim::sched::dynamic::{run_dynamic, DynamicConfig, StateMode};
use algas_gpu_sim::sched::static_batch::{run_static, StaticBatchConfig};
use algas_gpu_sim::{CostModel, DeviceProps, MergePlacement, QueryWork, SimReport};
use algas_graph::entry::EntryPolicy;
use algas_vector::VectorStore;

/// Functional output of a method over a query set.
#[derive(Clone, Debug)]
pub struct MethodRun {
    /// TopK ids per query.
    pub results: Vec<Vec<u32>>,
    /// Timed work per query.
    pub works: Vec<QueryWork>,
}

/// A search method: functional execution + batching discipline.
pub trait SearchMethod {
    /// Short name ("ALGAS", "CAGRA", "GANNS", "IVF").
    fn name(&self) -> &'static str;

    /// Runs the query set functionally, producing results and work.
    fn run_workload(&self, queries: &VectorStore) -> MethodRun;

    /// Replays work under this method's batching discipline.
    fn simulate(&self, works: &[QueryWork], arrivals: &[u64]) -> SimReport;
}

/// Device residency capacity for search blocks of the given engine
/// plan (block cap ∧ shared-memory cap).
fn capacity_for(engine: &AlgasEngine) -> usize {
    let plan = engine.plan();
    let occ = device_occupancy(
        &DeviceProps::rtx_a6000(),
        &BlockDemand {
            threads: plan.threads_per_block,
            shared_mem_bytes: plan.shared_mem_per_block,
        },
    );
    occ.total_resident_blocks.max(1)
}

/// The ALGAS method.
pub struct AlgasMethod {
    engine: AlgasEngine,
    /// Host poller threads (§V-B).
    pub host_threads: usize,
    /// State observation mode (§V-A).
    pub state_mode: StateMode,
}

impl AlgasMethod {
    /// Builds the method over an index with the paper's defaults
    /// (beam extend on, adaptive `N_parallel`, state copies, result
    /// rows contiguous).
    pub fn new(index: AlgasIndex, k: usize, l: usize, slots: usize) -> Result<Self, TuningError> {
        let cfg = EngineConfig { k, l, slots, beam: BeamMode::Auto, ..Default::default() };
        Ok(Self {
            engine: AlgasEngine::new(index, cfg)?,
            host_threads: 2,
            state_mode: StateMode::LocalCopy,
        })
    }

    /// Builds from an explicit engine configuration.
    pub fn with_config(index: AlgasIndex, cfg: EngineConfig) -> Result<Self, TuningError> {
        Ok(Self {
            engine: AlgasEngine::new(index, cfg)?,
            host_threads: 2,
            state_mode: StateMode::LocalCopy,
        })
    }

    /// Access to the tuned engine.
    pub fn engine(&self) -> &AlgasEngine {
        &self.engine
    }

    /// The dynamic-batching configuration this method simulates with.
    pub fn dynamic_config(&self) -> DynamicConfig {
        DynamicConfig {
            n_slots: self.engine.config().slots,
            host_threads: self.host_threads,
            state_mode: self.state_mode,
            capacity: capacity_for(&self.engine),
            ..DynamicConfig::default()
        }
    }
}

impl SearchMethod for AlgasMethod {
    fn name(&self) -> &'static str {
        "ALGAS"
    }

    fn run_workload(&self, queries: &VectorStore) -> MethodRun {
        let wl = self.engine.run_workload(queries);
        MethodRun { results: wl.results, works: wl.works }
    }

    fn simulate(&self, works: &[QueryWork], arrivals: &[u64]) -> SimReport {
        run_dynamic(works, arrivals, &self.dynamic_config())
    }
}

/// The CAGRA baseline: the same multi-CTA search, greedy, under static
/// batching with the TopK merge on the GPU.
pub struct CagraMethod {
    engine: AlgasEngine,
    batch_size: usize,
}

impl CagraMethod {
    /// Builds the method (greedy multi-CTA, hashed entries).
    pub fn new(
        index: AlgasIndex,
        k: usize,
        l: usize,
        batch_size: usize,
    ) -> Result<Self, TuningError> {
        let cfg = EngineConfig {
            k,
            l,
            slots: batch_size,
            beam: BeamMode::Greedy,
            entry_policy: EntryPolicy::Hashed { seed: 0xCA62A },
            ..Default::default()
        };
        Ok(Self { engine: AlgasEngine::new(index, cfg)?, batch_size })
    }

    /// Access to the engine.
    pub fn engine(&self) -> &AlgasEngine {
        &self.engine
    }

    /// The static-batching configuration this method simulates with.
    pub fn static_config(&self) -> StaticBatchConfig {
        StaticBatchConfig {
            batch_size: self.batch_size,
            merge: MergePlacement::Gpu,
            capacity: capacity_for(&self.engine),
            ..StaticBatchConfig::default()
        }
    }
}

impl SearchMethod for CagraMethod {
    fn name(&self) -> &'static str {
        "CAGRA"
    }

    fn run_workload(&self, queries: &VectorStore) -> MethodRun {
        let wl = self.engine.run_workload(queries);
        MethodRun { results: wl.results, works: wl.works }
    }

    fn simulate(&self, works: &[QueryWork], arrivals: &[u64]) -> SimReport {
        run_static(works, arrivals, &self.static_config())
    }
}

/// The GANNS baseline: single-CTA greedy search (no multi-CTA), static
/// batches, no merge. Modified as in the paper to accept small batches.
pub struct GannsMethod {
    engine: AlgasEngine,
    batch_size: usize,
}

impl GannsMethod {
    /// Builds the method. The single CTA needs no merge; the entry is
    /// the corpus medoid (NSW-style fixed entry).
    pub fn new(
        index: AlgasIndex,
        k: usize,
        l: usize,
        batch_size: usize,
    ) -> Result<Self, TuningError> {
        let cfg = EngineConfig {
            k,
            l,
            slots: batch_size,
            n_parallel: Some(1),
            beam: BeamMode::Greedy,
            entry_policy: EntryPolicy::Medoid,
            ..Default::default()
        };
        Ok(Self { engine: AlgasEngine::new(index, cfg)?, batch_size })
    }

    /// Access to the engine.
    pub fn engine(&self) -> &AlgasEngine {
        &self.engine
    }

    /// The static-batching configuration this method simulates with.
    pub fn static_config(&self) -> StaticBatchConfig {
        StaticBatchConfig {
            batch_size: self.batch_size,
            merge: MergePlacement::None,
            capacity: capacity_for(&self.engine),
            ..StaticBatchConfig::default()
        }
    }
}

impl SearchMethod for GannsMethod {
    fn name(&self) -> &'static str {
        "GANNS"
    }

    fn run_workload(&self, queries: &VectorStore) -> MethodRun {
        let wl = self.engine.run_workload(queries);
        MethodRun { results: wl.results, works: wl.works }
    }

    fn simulate(&self, works: &[QueryWork], arrivals: &[u64]) -> SimReport {
        run_static(works, arrivals, &self.static_config())
    }
}

/// The IVF baseline (FAISS-GPU IVF-Flat).
pub struct IvfMethod {
    index: IvfIndex,
    base: VectorStore,
    k: usize,
    batch_size: usize,
    cost: CostModel,
    device: DeviceProps,
}

impl IvfMethod {
    /// Builds the IVF index over `base` and wraps it as a method.
    pub fn new(
        base: VectorStore,
        metric: algas_vector::Metric,
        params: IvfParams,
        k: usize,
        batch_size: usize,
    ) -> Self {
        let index = build_ivf(&base, metric, params);
        Self {
            index,
            base,
            k,
            batch_size,
            cost: CostModel::default(),
            device: DeviceProps::rtx_a6000(),
        }
    }

    /// Access to the built index.
    pub fn index(&self) -> &IvfIndex {
        &self.index
    }
}

impl SearchMethod for IvfMethod {
    fn name(&self) -> &'static str {
        "IVF"
    }

    fn run_workload(&self, queries: &VectorStore) -> MethodRun {
        let mut results = Vec::with_capacity(queries.len());
        let mut works = Vec::with_capacity(queries.len());
        for q in 0..queries.len() {
            let (found, work) = self.index.search_traced(
                &self.base,
                queries.get(q),
                self.k,
                &self.cost,
                &self.device,
            );
            results.push(found.into_iter().map(|(_, id)| id).collect());
            works.push(work);
        }
        MethodRun { results, works }
    }

    fn simulate(&self, works: &[QueryWork], arrivals: &[u64]) -> SimReport {
        run_static(
            works,
            arrivals,
            &StaticBatchConfig {
                batch_size: self.batch_size,
                merge: MergePlacement::Gpu,
                capacity: self.device.max_resident_blocks(),
                ..StaticBatchConfig::default()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algas_graph::cagra::CagraParams;
    use algas_vector::datasets::DatasetSpec;
    use algas_vector::ground_truth::{brute_force_knn, mean_recall};
    use algas_vector::Metric;

    fn dataset() -> algas_vector::datasets::GeneratedDataset {
        DatasetSpec::tiny(700, 16, Metric::L2, 301).generate()
    }

    fn cagra_index(ds: &algas_vector::datasets::GeneratedDataset) -> AlgasIndex {
        AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default())
    }

    #[test]
    fn all_methods_reach_reasonable_recall() {
        let ds = dataset();
        let k = 10;
        let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, k);
        let idx = cagra_index(&ds);

        let methods: Vec<(Box<dyn SearchMethod>, f64)> = vec![
            (Box::new(AlgasMethod::new(idx.clone(), k, 64, 8).unwrap()), 0.85),
            (Box::new(CagraMethod::new(idx.clone(), k, 64, 8).unwrap()), 0.85),
            (Box::new(GannsMethod::new(idx.clone(), k, 96, 8).unwrap()), 0.80),
            (
                Box::new(IvfMethod::new(
                    ds.base.clone(),
                    Metric::L2,
                    IvfParams { nlist: 24, nprobe: 8, ..Default::default() },
                    k,
                    8,
                )),
                0.80,
            ),
        ];
        for (m, floor) in methods {
            let run = m.run_workload(&ds.queries);
            let r = mean_recall(&run.results, &gt, k);
            assert!(r > floor, "{}: recall {r} below {floor}", m.name());
            assert_eq!(run.works.len(), ds.queries.len());
        }
    }

    #[test]
    fn algas_beats_cagra_on_latency_and_throughput() {
        // The headline claim (Figs 10–11) at small scale: same graph,
        // same recall knob, ALGAS's discipline wins.
        let ds = dataset();
        let k = 10;
        let idx = cagra_index(&ds);
        let algas = AlgasMethod::new(idx.clone(), k, 64, 8).unwrap();
        let cagra = CagraMethod::new(idx, k, 64, 8).unwrap();
        let arrivals = vec![0u64; ds.queries.len()];

        let ra = algas.simulate(&algas.run_workload(&ds.queries).works, &arrivals);
        let rc = cagra.simulate(&cagra.run_workload(&ds.queries).works, &arrivals);
        assert!(
            ra.mean_latency_ns < rc.mean_latency_ns,
            "ALGAS latency {} should beat CAGRA {}",
            ra.mean_latency_ns,
            rc.mean_latency_ns
        );
        assert!(
            ra.throughput_qps > rc.throughput_qps,
            "ALGAS thpt {} should beat CAGRA {}",
            ra.throughput_qps,
            rc.throughput_qps
        );
    }

    #[test]
    fn ganns_throughput_suffers_in_small_batch() {
        // GANNS's single CTA per query leaves the GPU underused: its
        // per-query GPU time exceeds the multi-CTA methods'.
        let ds = dataset();
        let k = 10;
        let idx = cagra_index(&ds);
        let cagra = CagraMethod::new(idx.clone(), k, 64, 8).unwrap();
        let ganns = GannsMethod::new(idx, k, 64, 8).unwrap();
        let wa = cagra.run_workload(&ds.queries).works;
        let wg = ganns.run_workload(&ds.queries).works;
        let mean = |ws: &[QueryWork]| {
            ws.iter().map(|w| w.max_cta_ns() as f64).sum::<f64>() / ws.len() as f64
        };
        assert!(
            mean(&wg) > mean(&wa),
            "single-CTA GANNS {} should be slower per query than multi-CTA {}",
            mean(&wg),
            mean(&wa)
        );
    }

    #[test]
    fn method_names_are_stable() {
        let ds = dataset();
        let idx = cagra_index(&ds);
        assert_eq!(AlgasMethod::new(idx.clone(), 8, 32, 4).unwrap().name(), "ALGAS");
        assert_eq!(CagraMethod::new(idx.clone(), 8, 32, 4).unwrap().name(), "CAGRA");
        assert_eq!(GannsMethod::new(idx, 8, 32, 4).unwrap().name(), "GANNS");
        let ivf = IvfMethod::new(
            ds.base.clone(),
            Metric::L2,
            IvfParams { nlist: 8, nprobe: 2, ..Default::default() },
            8,
            4,
        );
        assert_eq!(ivf.name(), "IVF");
    }
}
