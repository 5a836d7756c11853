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
//!
//! The three engine-backed methods fit `N_parallel` to the simulated
//! A6000 with the §IV-C tuner ([`tuned`]) and turn the engine's
//! charged cycles into [`QueryWork`] with one packer ([`run_engine`]).

use crate::ivf::{build_ivf, IvfIndex, IvfParams};
use algas_core::engine::{AlgasEngine, AlgasIndex, BeamMode, EngineConfig, SearchScratch};
use algas_core::search::BeamParams;
use algas_core::tracer::CtaTrace;
use algas_gpu_sim::occupancy::{device_occupancy, BlockDemand};
use algas_gpu_sim::sched::dynamic::{run_dynamic, DynamicConfig, StateMode};
use algas_gpu_sim::sched::static_batch::{run_static, StaticBatchConfig};
use algas_gpu_sim::{
    tune, CostModel, CtaWork, DeviceProps, HostCostModel, MergePlacement, QueryWork, SimReport,
    TuningInput, TuningPlan,
};
use algas_graph::entry::EntryPolicy;
use algas_vector::VectorStore;

/// Why a method could not be built: the tuner found no resident plan
/// ([`algas_gpu_sim::TuningError`]), an explicit `N_parallel` is not
/// resident, or the engine refused the configuration
/// ([`algas_core::ConfigError`]).
pub type BuildError = Box<dyn std::error::Error>;

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

/// The §IV-C plan for `cfg` on the simulated A6000, and an engine that
/// runs its `N_parallel`. The tuner picks the largest CTA count that
/// keeps every slot resident; an explicit `cfg.n_parallel` is honored
/// only if it is resident as given.
///
/// # Errors
/// The tuner's error, or the engine's.
pub fn tuned(
    index: AlgasIndex,
    cfg: EngineConfig,
) -> Result<(AlgasEngine, TuningPlan), BuildError> {
    let device = DeviceProps::rtx_a6000();
    let mut input = TuningInput::new(device, cfg.slots, index.base.dim(), cfg.l, cfg.k);
    input.graph_degree = index.graph.degree();
    input.beam_width = match cfg.beam {
        BeamMode::Greedy => 1,
        BeamMode::Auto => BeamParams::default_for(cfg.l).beam_width,
    };
    if let Some(np) = cfg.n_parallel {
        input.max_n_parallel = np;
    }
    let plan = tune(&input)?;
    if let Some(np) = cfg.n_parallel.filter(|&np| np != plan.n_parallel) {
        let (slots, max_blocks) = (cfg.slots, device.max_resident_blocks());
        let why = format!("{slots} slots × {np} CTAs cannot all be resident ({max_blocks} blocks)");
        return Err(why.into());
    }
    let engine =
        AlgasEngine::new(index, EngineConfig { n_parallel: Some(plan.n_parallel), ..cfg })?;
    Ok((engine, plan))
}

/// Runs `engine`'s paper path ([`AlgasEngine::search_into`]) over
/// `queries` on one scratch, handing `visit` each finished search.
pub fn each_search(
    engine: &AlgasEngine,
    queries: &VectorStore,
    mut visit: impl FnMut(&SearchScratch),
) {
    let mut scratch = engine.make_scratch();
    for qid in 0..queries.len() {
        engine.search_into(queries.get(qid), qid as u64, &mut scratch);
        visit(&scratch);
    }
}

/// The figures' run of an engine: each query's TopK ids, and its timed
/// work — the cycles every CTA was charged at the A6000's clock, the
/// PCIe bytes, and the price of either merge placement.
pub fn run_engine(engine: &AlgasEngine, queries: &VectorStore) -> MethodRun {
    let dev = DeviceProps::rtx_a6000();
    // Each CTA ships its whole fetch list back to the host.
    let per_cta_k = engine.fetch_k();
    let mut run = MethodRun { results: Vec::new(), works: Vec::new() };
    each_search(engine, queries, |s| {
        let n = s.multi.n_active();
        let cta = |t: &CtaTrace| CtaWork {
            search_ns: dev.cycles_to_ns(t.totals().total_cycles()),
            steps: t.n_steps() as u32,
        };
        let gpu_merge_cycles = CostModel::default().gpu_topk_merge_cycles(n, per_cta_k);
        run.results.push(s.topk.iter().map(|&(_, id)| id).collect());
        run.works.push(QueryWork {
            ctas: (0..n).map(|c| cta(s.multi.trace(c))).collect(),
            query_bytes: (queries.dim() * 4) as u64,
            result_bytes: (n * per_cta_k * 8) as u64,
            gpu_merge_ns: dev.cycles_to_ns(gpu_merge_cycles),
            host_merge_ns: HostCostModel::default().merge_ns(n, per_cta_k),
        });
    });
    run
}

/// Device residency capacity for search blocks of a tuner plan (block
/// cap ∧ shared-memory cap).
fn capacity_for(plan: &TuningPlan) -> usize {
    let demand = BlockDemand {
        threads: plan.threads_per_block,
        shared_mem_bytes: plan.shared_mem_per_block,
    };
    device_occupancy(&DeviceProps::rtx_a6000(), &demand).total_resident_blocks.max(1)
}

/// The static-batching configuration a baseline simulates with.
fn static_config(batch_size: usize, merge: MergePlacement, plan: &TuningPlan) -> StaticBatchConfig {
    StaticBatchConfig { batch_size, merge, capacity: capacity_for(plan), ..Default::default() }
}

/// The ALGAS method.
pub struct AlgasMethod {
    engine: AlgasEngine,
    plan: TuningPlan,
}

impl AlgasMethod {
    /// Builds the method over an index with the paper's defaults
    /// (beam extend on, adaptive `N_parallel`, state copies, result
    /// rows contiguous).
    pub fn new(index: AlgasIndex, k: usize, l: usize, slots: usize) -> Result<Self, BuildError> {
        let cfg = EngineConfig { k, l, slots, beam: BeamMode::Auto, ..Default::default() };
        Self::with_config(index, cfg)
    }

    /// Builds from an explicit engine configuration, tuned by [`tuned`].
    pub fn with_config(index: AlgasIndex, cfg: EngineConfig) -> Result<Self, BuildError> {
        let (engine, plan) = tuned(index, cfg)?;
        Ok(Self { engine, plan })
    }

    /// Access to the tuned engine.
    pub fn engine(&self) -> &AlgasEngine {
        &self.engine
    }

    /// The dynamic-batching configuration this method simulates with:
    /// two host pollers (§V-B) observing local state copies (§V-A).
    pub fn dynamic_config(&self) -> DynamicConfig {
        DynamicConfig {
            n_slots: self.engine.config().slots,
            host_threads: 2,
            state_mode: StateMode::LocalCopy,
            capacity: capacity_for(&self.plan),
            ..DynamicConfig::default()
        }
    }
}

impl SearchMethod for AlgasMethod {
    fn name(&self) -> &'static str {
        "ALGAS"
    }

    fn run_workload(&self, queries: &VectorStore) -> MethodRun {
        run_engine(&self.engine, queries)
    }

    fn simulate(&self, works: &[QueryWork], arrivals: &[u64]) -> SimReport {
        run_dynamic(works, arrivals, &self.dynamic_config())
    }
}

/// The CAGRA baseline: the same multi-CTA search, greedy, under static
/// batching with the TopK merge on the GPU.
pub struct CagraMethod {
    engine: AlgasEngine,
    plan: TuningPlan,
    batch_size: usize,
}

impl CagraMethod {
    /// Builds the method (greedy multi-CTA, hashed entries).
    pub fn new(
        index: AlgasIndex,
        k: usize,
        l: usize,
        batch_size: usize,
    ) -> Result<Self, BuildError> {
        let cfg = EngineConfig {
            k,
            l,
            slots: batch_size,
            beam: BeamMode::Greedy,
            entry_policy: EntryPolicy::Hashed { seed: 0xCA62A },
            ..Default::default()
        };
        let (engine, plan) = tuned(index, cfg)?;
        Ok(Self { engine, plan, batch_size })
    }
}

impl SearchMethod for CagraMethod {
    fn name(&self) -> &'static str {
        "CAGRA"
    }

    fn run_workload(&self, queries: &VectorStore) -> MethodRun {
        run_engine(&self.engine, queries)
    }

    fn simulate(&self, works: &[QueryWork], arrivals: &[u64]) -> SimReport {
        run_static(
            works,
            arrivals,
            &static_config(self.batch_size, MergePlacement::Gpu, &self.plan),
        )
    }
}

/// The GANNS baseline: single-CTA greedy search (no multi-CTA), static
/// batches, no merge. Modified as in the paper to accept small batches.
pub struct GannsMethod {
    engine: AlgasEngine,
    plan: TuningPlan,
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
    ) -> Result<Self, BuildError> {
        let cfg = EngineConfig {
            k,
            l,
            slots: batch_size,
            n_parallel: Some(1),
            beam: BeamMode::Greedy,
            entry_policy: EntryPolicy::Medoid,
            ..Default::default()
        };
        let (engine, plan) = tuned(index, cfg)?;
        Ok(Self { engine, plan, batch_size })
    }

    /// Access to the engine.
    pub fn engine(&self) -> &AlgasEngine {
        &self.engine
    }
}

impl SearchMethod for GannsMethod {
    fn name(&self) -> &'static str {
        "GANNS"
    }

    fn run_workload(&self, queries: &VectorStore) -> MethodRun {
        run_engine(&self.engine, queries)
    }

    fn simulate(&self, works: &[QueryWork], arrivals: &[u64]) -> SimReport {
        run_static(
            works,
            arrivals,
            &static_config(self.batch_size, MergePlacement::None, &self.plan),
        )
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
    fn the_tuner_fits_n_parallel_to_the_device() {
        let idx = cagra_index(&dataset());
        let np = |slots, n_parallel| {
            let cfg = EngineConfig { k: 10, l: 32, slots, n_parallel, ..Default::default() };
            tuned(idx.clone(), cfg).map(|(e, p)| (e.plan().n_parallel, p.n_parallel))
        };
        assert_eq!(np(168, None).unwrap(), (8, 8));
        assert_eq!(np(169, None).unwrap(), (4, 4));
        assert_eq!(np(16, Some(2)).unwrap(), (2, 2));
        // An explicit N_parallel is honored only if resident.
        let err = np(169, Some(8)).unwrap_err().to_string();
        assert_eq!(err, "169 slots × 8 CTAs cannot all be resident (1344 blocks)");
    }

    #[test]
    fn work_descriptors_ship_each_ctas_fetch_list() {
        let ds = dataset();
        for quantize in [false, true] {
            let cfg = EngineConfig { k: 10, l: 32, slots: 8, quantize, ..Default::default() };
            let m = AlgasMethod::with_config(cagra_index(&ds), cfg).unwrap();
            let (np, w) = (m.engine().plan().n_parallel, &m.run_workload(&ds.queries).works[0]);
            // k per CTA on fp32 rows, the rerank pool on SQ8 codes.
            let per_cta = if quantize { m.engine().rerank_depth().min(32) } else { 10 };
            assert_eq!((w.n_ctas(), w.query_bytes), (np, 16 * 4));
            assert_eq!(w.result_bytes, (np * per_cta * 8) as u64);
            assert!(w.max_cta_ns() > 0 && w.host_merge_ns < w.gpu_merge_ns);
        }
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
