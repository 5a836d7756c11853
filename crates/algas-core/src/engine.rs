//! The ALGAS engine: index + configuration + search.
//!
//! [`AlgasEngine`] is the crate's main entry point. It owns an
//! [`AlgasIndex`], plans once from its [`EngineConfig`] (`N_parallel`
//! walkers, the beam, the rerank depth), and runs multi-CTA
//! beam-extend searches, functionally exact, each step charged in
//! simulated GPU cycles ([`SearchContext::cost`]). Packaging those
//! cycles as timed work for the batching simulators, and fitting
//! `N_parallel` to a GPU's residency (§IV-C), is the figures' business
//! (`algas-baselines`).

use crate::control::SloController;
use crate::merge::{merge_topk_into, MergeScratch};
use crate::search::intra::IntraParams;
use crate::search::multi::{search_multi_seeded_into, MultiParams, MultiScratch, Schedule};
use crate::search::{BeamParams, SearchContext};
use crate::tuning::{EffortLadder, EffortStep};
use algas_gpu_sim::CostModel;
use algas_graph::entry::{medoid, EntryParams, EntryPolicy, HashEntryTable};
use algas_graph::{CagraBuilder, FixedDegreeGraph, GraphKind, NodePermutation, NswBuilder};
use algas_vector::metric::DistValue;
use algas_vector::{Metric, QuantizedStore, VectorStore};

/// A corpus of 2³¹ rows or more — as many as candidate-list keys have
/// ids for ([`ID_SPACE`](crate::lists::ID_SPACE)): refused where an
/// index is assembled from outside parts or read from a file, so the
/// search loop never has to check an id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CorpusTooLarge {
    /// Rows of the refused corpus.
    pub rows: usize,
}

impl CorpusTooLarge {
    /// `Ok` when a corpus of `rows` rows stays inside the id space.
    pub fn check(rows: usize) -> Result<(), Self> {
        if rows < crate::lists::ID_SPACE {
            Ok(())
        } else {
            Err(Self { rows })
        }
    }
}

impl std::fmt::Display for CorpusTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let limit = crate::lists::ID_SPACE;
        write!(f, "corpus of {} rows: an index holds fewer than {limit}", self.rows)
    }
}

impl std::error::Error for CorpusTooLarge {}

/// A searchable index: corpus + graph + metadata.
#[derive(Clone, Debug)]
pub struct AlgasIndex {
    /// The indexed vectors (normalized when the metric demands it).
    pub base: VectorStore,
    /// Optional SQ8 codes mirroring `base` row-for-row (see
    /// [`AlgasIndex::quantize`]); `None` means fp32-only search.
    pub quant: Option<QuantizedStore>,
    /// The proximity graph.
    pub graph: FixedDegreeGraph,
    /// Distance metric.
    pub metric: Metric,
    /// Precomputed medoid (single-entry policies).
    pub medoid: u32,
    /// Which family the graph was built as.
    pub kind: GraphKind,
    /// Physical → original id map when the index has been relayouted
    /// (see [`AlgasIndex::relayout`]); `None` means ids are unpermuted.
    pub id_map: Option<NodePermutation>,
    /// Index-time LSH bucket table for [`EntryPolicy::HashTable`];
    /// `None` means only the data-free policies are available
    /// ([`AlgasEngine::new`] builds the table when its policy needs it).
    pub entry: Option<HashEntryTable>,
}

impl AlgasIndex {
    /// Builds an NSW index (GANNS-style graph).
    pub fn build_nsw(
        base: VectorStore,
        metric: Metric,
        params: algas_graph::nsw::NswParams,
    ) -> Self {
        let graph = NswBuilder::new(metric, params).build(&base);
        let medoid = medoid(&base, metric);
        Self {
            base,
            quant: None,
            graph,
            metric,
            medoid,
            kind: GraphKind::Nsw,
            id_map: None,
            entry: None,
        }
    }

    /// Builds a CAGRA-style fixed out-degree index.
    pub fn build_cagra(
        base: VectorStore,
        metric: Metric,
        params: algas_graph::cagra::CagraParams,
    ) -> Self {
        let graph = CagraBuilder::new(metric, params).build(&base);
        let medoid = medoid(&base, metric);
        Self {
            base,
            quant: None,
            graph,
            metric,
            medoid,
            kind: GraphKind::Cagra,
            id_map: None,
            entry: None,
        }
    }

    /// Wraps pre-built parts (e.g. graphs loaded from a cache).
    ///
    /// # Errors
    /// [`CorpusTooLarge`] when the corpus has 2³¹ rows or more.
    ///
    /// # Panics
    /// Panics if graph and corpus sizes disagree.
    pub fn from_parts(
        base: VectorStore,
        graph: FixedDegreeGraph,
        metric: Metric,
        kind: GraphKind,
    ) -> Result<Self, CorpusTooLarge> {
        assert_eq!(base.len(), graph.len(), "graph/corpus size mismatch");
        CorpusTooLarge::check(base.len())?;
        let medoid = medoid(&base, metric);
        Ok(Self { base, quant: None, graph, metric, medoid, kind, id_map: None, entry: None })
    }

    /// Relayouts the index for cache locality: renumbers nodes by a
    /// BFS, degree-aware permutation from the medoid (see
    /// [`NodePermutation::bfs_from`]), permutes the vector rows to
    /// match, and remembers the physical → original id map so search
    /// results still come back in the caller's original id space.
    ///
    /// Idempotent in effect: relayouting twice composes the maps, and
    /// results always translate straight back to original ids. Returns
    /// the permutation applied by *this* call.
    pub fn relayout(&mut self) -> NodePermutation {
        let perm = NodePermutation::bfs_from(&self.graph, self.medoid);
        self.graph = perm.apply_to_graph(&self.graph);
        self.base = self.base.permute(perm.new_to_old());
        if let Some(q) = self.quant.take() {
            self.quant = Some(q.permute(perm.new_to_old()));
        }
        self.medoid = perm.to_new(self.medoid);
        self.id_map = Some(match self.id_map.take() {
            Some(prev) => prev.compose(&perm),
            None => perm.clone(),
        });
        // Entry data stores vertex ids; rebuilding over the permuted
        // rows is both simpler and better than translating (bucket
        // representatives stay deterministic for the new numbering).
        self.rebuild_entry_index();
        perm
    }

    /// Rewrites the ids of a scored result list from physical to
    /// original ids, in place (allocation-free — the serving hot path
    /// calls this on every reply).
    #[inline]
    pub fn externalize(&self, results: &mut [(DistValue, u32)]) {
        if let Some(map) = &self.id_map {
            for (_, id) in results.iter_mut() {
                *id = map.to_old(*id);
            }
        }
    }

    /// Builds (or rebuilds) the SQ8 code mirror of `base`. Idempotent
    /// to call on an already-quantized index — the codes are derived
    /// data and re-deriving them yields the same bytes. An existing
    /// entry index is rebuilt so its signatures match the store the
    /// traversal will actually score.
    pub fn quantize(&mut self) {
        self.quant = Some(QuantizedStore::from_store(&self.base));
        if self.entry.is_some() {
            self.rebuild_entry_index();
        }
    }

    /// Builds (or rebuilds) the index-time LSH bucket table, enabling
    /// [`EntryPolicy::HashTable`]. Signatures are computed over the SQ8
    /// codes when the index is quantized (the store the traversal
    /// scores), else fp32.
    pub fn build_entry_index(&mut self, params: &EntryParams) {
        let table = HashEntryTable::build(&self.base, self.quant.as_ref(), self.metric, params);
        self.entry = Some(table);
    }

    /// Rebuilds the table with its own parameters (no-op when the index
    /// has none). Called after operations that renumber or re-encode
    /// rows.
    fn rebuild_entry_index(&mut self) {
        let Some(t) = &self.entry else { return };
        let params = EntryParams {
            n_bits: Some(t.n_bits()),
            reps_per_bucket: t.reps_per_bucket(),
            seed: t.hasher().seed(),
        };
        self.build_entry_index(&params);
    }

    /// Corpus size.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }
}

/// Engine configuration. `Default` matches the paper's headline
/// setting: TopK 16, 16 slots, 8 walkers per query.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Results per query (TopK).
    pub k: usize,
    /// Candidate-list capacity per CTA (recall knob).
    pub l: usize,
    /// Dynamic-batching slots of the serving runtime
    /// ([`crate::runtime::AlgasServer`]); the engine's plan does not
    /// depend on them.
    pub slots: usize,
    /// Walkers (CTAs) per query; `None` means 8, the paper's headline.
    pub n_parallel: Option<usize>,
    /// Beam extend or pure greedy search.
    pub beam: BeamMode,
    /// Entry policy for the CTAs. [`EntryPolicy::HashTable`] makes the
    /// engine build the index's [`HashEntryTable`] at construction if
    /// the index doesn't already carry one.
    pub entry_policy: EntryPolicy,
    /// Traverse on SQ8 quantized distances, then re-rank the pooled
    /// candidates with exact f32 distances (`Default` honors the
    /// `ALGAS_QUANTIZE` environment variable so CI can flip the whole
    /// suite onto the quantized path).
    pub quantize: bool,
    /// Candidates re-ranked exactly per query when quantized; `None`
    /// means `2 * k`. Clamped to at least `k`.
    pub rerank_depth: Option<usize>,
    /// Target p99 service latency in microseconds. `Some` arms the
    /// online SLO controller: the serving runtime feeds completed-query
    /// service spans back into the engine, which sheds search effort
    /// (rerank depth, then parallel CTAs, then beam shape) one rung at
    /// a time while the SLO is violated and restores it when latency
    /// recovers. `None` keeps the static plan (the controller stays
    /// inert at full effort).
    pub slo_us: Option<u64>,
}

/// How beam extend is configured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BeamMode {
    /// Pure greedy search ("Greedy Extend").
    Greedy,
    /// Beam extend with [`BeamParams::default_for`]'s trigger
    /// (`offset_beam = L/16`, at least 1) and beam width 8.
    Auto,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            k: 16,
            l: 64,
            slots: 16,
            n_parallel: None,
            beam: BeamMode::Auto,
            entry_policy: EntryPolicy::Hashed { seed: 0xA16A5 },
            quantize: algas_vector::env::bool_flag("ALGAS_QUANTIZE"),
            rerank_depth: None,
            slo_us: None,
        }
    }
}

/// Plain (non-atomic) re-rank counters, accumulated across every
/// quantized search on one scratch — the exact-distance counterpart of
/// [`crate::merge::MergeStats`]. The owning worker thread reads deltas
/// and publishes them to the serving snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RerankStats {
    /// Re-rank passes executed (one per quantized query).
    pub reranks: u64,
    /// Pooled candidates scored with exact f32 distances.
    pub candidates: u64,
    /// Results that entered the final TopK only because the exact pass
    /// reordered the quantized ranking (a direct read on how much
    /// recall the re-rank buys back).
    pub promotions: u64,
}

impl RerankStats {
    /// The counters accumulated since `earlier` was captured.
    pub fn since(&self, earlier: &RerankStats) -> RerankStats {
        RerankStats {
            reranks: self.reranks - earlier.reranks,
            candidates: self.candidates - earlier.candidates,
            promotions: self.promotions - earlier.promotions,
        }
    }

    /// Folds another counter block into this one.
    pub fn merge(&mut self, other: &RerankStats) {
        self.reranks += other.reranks;
        self.candidates += other.candidates;
        self.promotions += other.promotions;
    }
}

/// Reusable per-worker search state: the multi-CTA scratch, the merge
/// scratch, and the merged TopK buffer.
///
/// Create one per serving thread with [`AlgasEngine::make_scratch`];
/// after the first query, [`AlgasEngine::search_into`] runs without
/// heap allocation.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Multi-CTA state (shared bitmap, per-CTA lists and traces).
    pub multi: MultiScratch,
    /// Merge cursors and the merge counters of every search on it.
    pub merge: MergeScratch,
    /// Final merged TopK of the most recent search, ascending.
    pub topk: Vec<(DistValue, u32)>,
    /// Pooled rerank candidates (quantized path; `rerank_depth` deep).
    pooled: Vec<(DistValue, u32)>,
    /// Candidate ids handed to the exact batch scorer.
    rerank_ids: Vec<u32>,
    /// Exact f32 distances for `rerank_ids`.
    rerank_dists: Vec<f32>,
    /// The quantized-order TopK ids, kept to count promotions.
    quant_prefix: Vec<u32>,
    /// Re-rank counters accumulated across searches on this scratch.
    pub rerank: RerankStats,
}

impl SearchScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A configuration [`AlgasEngine::new`] refuses: the rule it breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConfigError(pub &'static str);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for ConfigError {}

/// What an engine runs at full effort, planned from its configuration
/// alone: rung 0 of the ladder [`AlgasEngine::controller`] moves on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnginePlan {
    /// Walkers per query: the count on the paper schedule, the cap on
    /// the serial one.
    pub n_parallel: usize,
    /// Beam-extend parameters (`None` = greedy).
    pub beam: Option<BeamParams>,
}

/// The engine.
pub struct AlgasEngine {
    index: AlgasIndex,
    cfg: EngineConfig,
    /// The GPU cycle prices every search step is charged with: the
    /// figures' currency, which serving only sums into its cycle
    /// counters.
    cost: CostModel,
    plan: EnginePlan,
    control: SloController,
}

impl AlgasEngine {
    /// Creates an engine. It plans from `cfg` alone: `N_parallel` is
    /// `cfg.n_parallel` or 8 whatever the slot count, and the beam is
    /// [`BeamParams::default_for`] `L`.
    ///
    /// # Errors
    /// [`ConfigError`] when `k` is 0, `L < k`, or `n_parallel` is
    /// `Some(0)`.
    pub fn new(mut index: AlgasIndex, cfg: EngineConfig) -> Result<Self, ConfigError> {
        if cfg.k == 0 {
            return Err(ConfigError("k must be ≥ 1"));
        }
        if cfg.l < cfg.k {
            return Err(ConfigError("L must be ≥ k"));
        }
        let n_parallel = cfg.n_parallel.unwrap_or(8);
        if n_parallel == 0 {
            return Err(ConfigError("n_parallel must be ≥ 1"));
        }
        if cfg.quantize && index.quant.is_none() {
            index.quantize();
        }
        // The table policy on an index without a table (e.g. one
        // loaded from a pre-v4 file): build it now, once.
        if cfg.entry_policy == EntryPolicy::HashTable && index.entry.is_none() && !index.is_empty()
        {
            index.build_entry_index(&EntryParams::default());
        }
        let beam = match cfg.beam {
            BeamMode::Greedy => None,
            BeamMode::Auto => Some(BeamParams::default_for(cfg.l)),
        };
        // The effort ladder starts at the static plan (rung 0) and
        // relaxes only knobs the engine actually uses: rerank depth
        // exists on the quantized path, beam shape whenever beaming.
        let rerank =
            index.quant.is_some().then(|| cfg.rerank_depth.unwrap_or(2 * cfg.k).max(cfg.k));
        let ladder = EffortLadder::build(n_parallel, beam, rerank, cfg.k);
        let control = SloController::new(cfg.slo_us.map(|us| us.saturating_mul(1_000)), ladder);
        let plan = EnginePlan { n_parallel, beam };
        Ok(Self { index, cfg, cost: CostModel::default(), plan, control })
    }

    /// The static plan.
    pub fn plan(&self) -> &EnginePlan {
        &self.plan
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The underlying index.
    pub fn index(&self) -> &AlgasIndex {
        &self.index
    }

    /// The SLO controller (inert at full effort unless
    /// [`EngineConfig::slo_us`] armed it).
    pub fn controller(&self) -> &SloController {
        &self.control
    }

    fn multi_params_for(&self, step: EffortStep) -> MultiParams {
        MultiParams {
            intra: IntraParams {
                l: self.cfg.l,
                beam: step.beam,
                bitmap_in_shared: self.plan.n_parallel == 1,
            },
            n_ctas: step.n_ctas.clamp(1, self.plan.n_parallel),
        }
    }

    /// A fresh [`SearchScratch`] sized lazily by the first search.
    pub fn make_scratch(&self) -> SearchScratch {
        SearchScratch::new()
    }

    /// Whether this engine traverses on SQ8 quantized distances.
    #[inline]
    pub fn quantized(&self) -> bool {
        self.index.quant.is_some()
    }

    /// The effective exact-rerank pool depth right now (`>= k`;
    /// meaningful only when [`quantized`](Self::quantized)). Equals the
    /// configured depth at controller level 0; a shedding SLO
    /// controller halves it toward `k`.
    #[inline]
    pub fn rerank_depth(&self) -> usize {
        self.rerank_depth_for(self.control.current())
    }

    #[inline]
    fn rerank_depth_for(&self, step: EffortStep) -> usize {
        if self.quantized() {
            step.rerank_depth.max(self.cfg.k)
        } else {
            self.cfg.rerank_depth.unwrap_or(2 * self.cfg.k).max(self.cfg.k)
        }
    }

    /// Per-CTA result-list length at the controller's current rung: `k`
    /// on the fp32 path, the (possibly `L`-capped) rerank depth on the
    /// quantized path, where each CTA over-fetches so the exact pass has
    /// a pool to re-rank.
    #[inline]
    pub fn fetch_k(&self) -> usize {
        self.fetch_k_for(self.control.current())
    }

    #[inline]
    fn fetch_k_for(&self, step: EffortStep) -> usize {
        if self.quantized() {
            self.rerank_depth_for(step).min(self.cfg.l)
        } else {
            self.cfg.k
        }
    }

    /// What a worker thread runs per query: the allocation-free search
    /// under [`Schedule::Serial`] — the plan's `N_parallel`, or a shed
    /// rung's [`EffortStep::n_ctas`], caps the walkers launched — then
    /// the query's one merge, leaving the finished TopK in
    /// `scratch.topk` in the caller's *original* id space.
    ///
    /// On a quantized engine the traversal scores SQ8 codes, the
    /// per-CTA pools are merged [`rerank_depth`](Self::rerank_depth)
    /// deep, and the pool is re-scored with exact f32 distances before
    /// the final TopK cut — so `scratch.topk` distances are always
    /// exact, whichever path ran.
    pub fn serve_into(&self, query: &[f32], query_id: u64, scratch: &mut SearchScratch) {
        self.search_scheduled(Schedule::Serial, query, query_id, scratch);
        self.index.externalize(&mut scratch.topk);
    }

    fn search_scheduled(
        &self,
        schedule: Schedule,
        query: &[f32],
        query_id: u64,
        scratch: &mut SearchScratch,
    ) {
        // One effort snapshot per query: a concurrent controller tick
        // must not change knobs between the traversal and the merge.
        let step = self.control.current();
        // Traverse on SQ8 codes when the index has them, pooling
        // `rerank_depth` candidates for the exact pass; on f32 rows the
        // merge cuts the final TopK directly.
        let index = &self.index;
        let (ctx, fetch_k, depth) = match &index.quant {
            Some(quant) => (
                SearchContext::with_quantized(
                    &index.graph,
                    &index.base,
                    quant,
                    index.metric,
                    &self.cost,
                ),
                self.fetch_k_for(step),
                self.rerank_depth_for(step),
            ),
            None => (
                SearchContext::new(&index.graph, &index.base, index.metric, &self.cost),
                self.cfg.k,
                self.cfg.k,
            ),
        };
        // Entry seeds resolve here and nowhere else, per CTA, when it is
        // launched. The table policy looks the query's bucket up (its
        // LSH signature computed once); a CTA past the bucket's
        // representatives falls back to a hashed entry seeded from the
        // table. Every policy is data-free when the index has no table.
        let policy = self.cfg.entry_policy;
        let table = index.entry.as_ref().filter(|_| policy == EntryPolicy::HashTable);
        let sig = table.map_or(0, |t| t.signature(query));
        let (n, medoid) = (index.len(), index.medoid);
        let seed_of = |c: usize| {
            let c = c as u32;
            match table {
                Some(t) => t.seed_for(sig, c).unwrap_or_else(|| {
                    EntryPolicy::Hashed { seed: t.hasher().seed() }
                        .entry_for(query_id, c, n, medoid)
                }),
                None => policy.entry_for(query_id, c, n, medoid),
            }
        };
        let params = self.multi_params_for(step);
        search_multi_seeded_into(
            ctx,
            params,
            schedule,
            query,
            fetch_k,
            &mut scratch.multi,
            seed_of,
        );
        let merged = if ctx.quant.is_some() { &mut scratch.pooled } else { &mut scratch.topk };
        merge_topk_into(scratch.multi.per_cta(), depth, &mut scratch.merge, merged);
        if ctx.quant.is_some() {
            self.rerank(query, scratch);
        }
    }

    /// Re-scores `scratch.pooled` with exact f32 distances and cuts the
    /// final TopK into `scratch.topk` (ids stay physical).
    fn rerank(&self, query: &[f32], scratch: &mut SearchScratch) {
        scratch.quant_prefix.clear();
        scratch.quant_prefix.extend(scratch.pooled.iter().take(self.cfg.k).map(|&(_, id)| id));
        scratch.rerank_ids.clear();
        scratch.rerank_ids.extend(scratch.pooled.iter().map(|&(_, id)| id));
        self.index.metric.distance_batch(
            query,
            &self.index.base,
            &scratch.rerank_ids,
            &mut scratch.rerank_dists,
        );
        for (slot, &d) in scratch.pooled.iter_mut().zip(scratch.rerank_dists.iter()) {
            slot.0 = DistValue(d);
        }
        scratch.pooled.sort_unstable();
        scratch.topk.clear();
        scratch.topk.extend(scratch.pooled.iter().take(self.cfg.k));
        scratch.rerank.reranks += 1;
        scratch.rerank.candidates += scratch.pooled.len() as u64;
        let prefix = &scratch.quant_prefix;
        scratch.rerank.promotions +=
            scratch.topk.iter().filter(|&&(_, id)| !prefix.contains(&id)).count() as u64;
    }

    /// Allocation-free search on the paper path ([`Schedule::Concurrent`]
    /// — what a GPU runs, and what the figures, simulators and golden
    /// pins see): the multi-CTA search and the host merge run entirely
    /// inside `scratch`, leaving the merged TopK in `scratch.topk` and
    /// the per-CTA lists/traces in `scratch.multi`.
    ///
    /// After one warmup query per scratch it touches the heap zero
    /// times (pinned by the workspace's counting-allocator test).
    ///
    /// `scratch.topk` comes back in the caller's *original* id space
    /// (the relayout id-map, if any, is applied in place);
    /// `scratch.multi` keeps the raw per-CTA lists in physical ids.
    pub fn search_into(&self, query: &[f32], query_id: u64, scratch: &mut SearchScratch) {
        self.search_scheduled(Schedule::Concurrent, query, query_id, scratch);
        self.index.externalize(&mut scratch.topk);
    }

    /// Plain search on the paper path, on a fresh scratch: just the
    /// TopK ids (ascending by distance).
    pub fn search(&self, query: &[f32], query_id: u64) -> Vec<u32> {
        let mut scratch = SearchScratch::new();
        self.search_into(query, query_id, &mut scratch);
        scratch.topk.iter().map(|&(_, id)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algas_graph::cagra::CagraParams;
    use algas_vector::datasets::DatasetSpec;
    use algas_vector::ground_truth::{brute_force_knn, mean_recall};

    fn small_engine(
        l: usize,
        beam: BeamMode,
    ) -> (AlgasEngine, algas_vector::datasets::GeneratedDataset) {
        let ds = DatasetSpec::tiny(700, 16, Metric::L2, 101).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        // quantize pinned off: this helper is the fp32 reference engine
        // even when ALGAS_QUANTIZE=1 flips the suite's defaults.
        let cfg = EngineConfig { k: 10, l, slots: 8, beam, quantize: false, ..Default::default() };
        (AlgasEngine::new(index, cfg).unwrap(), ds)
    }

    fn ids_of(engine: &AlgasEngine, queries: &VectorStore) -> Vec<Vec<u32>> {
        (0..queries.len()).map(|q| engine.search(queries.get(q), q as u64)).collect()
    }

    #[test]
    fn corpus_bound_keeps_ids_clear_of_the_key_flag() {
        assert_eq!(CorpusTooLarge::check((1 << 31) - 1), Ok(()));
        let err = CorpusTooLarge::check(1 << 31).unwrap_err();
        assert_eq!(err, CorpusTooLarge { rows: 1 << 31 });
        assert!(err.to_string().contains("fewer than 2147483648"), "{err}");
        // What a loader hands back keeps the typed cause.
        let io = std::io::Error::new(std::io::ErrorKind::InvalidData, err);
        assert!(io.get_ref().is_some_and(|e| e.is::<CorpusTooLarge>()));
    }

    #[test]
    fn engine_reaches_high_recall() {
        let (engine, ds) = small_engine(64, BeamMode::Auto);
        let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, 10);
        let r = mean_recall(&ids_of(&engine, &ds.queries), &gt, 10);
        assert!(r > 0.9, "engine recall too low: {r}");
    }

    #[test]
    fn search_is_deterministic() {
        let (engine, ds) = small_engine(32, BeamMode::Auto);
        assert_eq!(engine.search(ds.queries.get(3), 3), engine.search(ds.queries.get(3), 3));
    }

    #[test]
    fn beam_mode_controls_searcher() {
        let (greedy, _) = small_engine(64, BeamMode::Greedy);
        assert!(greedy.plan().beam.is_none());
        let (auto, _) = small_engine(64, BeamMode::Auto);
        assert_eq!(auto.plan().beam.unwrap().offset_beam, 4);
    }

    #[test]
    fn explicit_n_parallel_is_honored() {
        let ds = DatasetSpec::tiny(300, 8, Metric::L2, 7).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        let cfg = EngineConfig { k: 8, l: 32, slots: 4, n_parallel: Some(2), ..Default::default() };
        let engine = AlgasEngine::new(index, cfg).unwrap();
        assert_eq!(engine.plan().n_parallel, 2);
        let mut scratch = engine.make_scratch();
        engine.search_into(ds.queries.get(0), 0, &mut scratch);
        assert_eq!(scratch.multi.per_cta().len(), 2);
    }

    /// What `new` says of `cfg` (which must be refused).
    fn refusal(cfg: EngineConfig) -> String {
        let ds = DatasetSpec::tiny(300, 8, Metric::L2, 7).generate();
        let index = AlgasIndex::build_cagra(ds.base, Metric::L2, CagraParams::default());
        AlgasEngine::new(index, cfg).err().expect("the configuration is refused").to_string()
    }

    #[test]
    fn zero_k_is_a_config_error() {
        assert_eq!(refusal(EngineConfig { k: 0, ..Default::default() }), "k must be ≥ 1");
    }

    #[test]
    fn list_shorter_than_k_is_a_config_error() {
        assert_eq!(refusal(EngineConfig { k: 20, l: 8, ..Default::default() }), "L must be ≥ k");
    }

    #[test]
    fn zero_n_parallel_is_a_config_error() {
        let cfg = EngineConfig { n_parallel: Some(0), ..Default::default() };
        assert_eq!(refusal(cfg), "n_parallel must be ≥ 1");
    }

    #[test]
    #[should_panic(expected = "query dimension mismatch")]
    fn dimension_mismatch_panics() {
        let (engine, _) = small_engine(32, BeamMode::Auto);
        engine.search(&[0.0; 3], 0);
    }

    fn quantized_engine(
        l: usize,
        rerank_depth: Option<usize>,
    ) -> (AlgasEngine, algas_vector::datasets::GeneratedDataset) {
        let ds = DatasetSpec::tiny(700, 16, Metric::L2, 101).generate();
        let index = AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        let cfg =
            EngineConfig { k: 10, l, slots: 8, quantize: true, rerank_depth, ..Default::default() };
        (AlgasEngine::new(index, cfg).unwrap(), ds)
    }

    #[test]
    fn quantized_recall_stays_within_epsilon_of_fp32() {
        let (fp32, ds) = small_engine(64, BeamMode::Auto);
        let (quant, _) = quantized_engine(64, None);
        assert!(quant.quantized() && !fp32.quantized());
        let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, 10);
        let r_fp32 = mean_recall(&ids_of(&fp32, &ds.queries), &gt, 10);
        let r_quant = mean_recall(&ids_of(&quant, &ds.queries), &gt, 10);
        assert!(
            r_quant >= r_fp32 - 0.02,
            "SQ8+rerank recall {r_quant} fell more than 0.02 below fp32 recall {r_fp32}"
        );
    }

    #[test]
    fn quantized_search_returns_exact_distances() {
        let (engine, ds) = quantized_engine(64, None);
        let mut scratch = engine.make_scratch();
        engine.search_into(ds.queries.get(0), 0, &mut scratch);
        assert_eq!(scratch.topk.len(), 10);
        for &(d, id) in &scratch.topk {
            let exact = Metric::L2.distance(ds.queries.get(0), ds.base.get(id as usize));
            assert_eq!(d, DistValue(exact), "returned distance for id {id} must be exact fp32");
        }
        // Ascending, as the fp32 path guarantees.
        assert!(scratch.topk.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn quantized_search_is_deterministic_and_counts_reranks() {
        let (engine, ds) = quantized_engine(48, Some(30));
        assert_eq!(engine.rerank_depth(), 30);
        let mut scratch = engine.make_scratch();
        let mut first: Vec<(DistValue, u32)> = Vec::new();
        for pass in 0..2 {
            engine.search_into(ds.queries.get(5), 5, &mut scratch);
            if pass == 0 {
                first = scratch.topk.clone();
            }
        }
        assert_eq!(scratch.topk, first, "quantized search must be deterministic");
        assert_eq!(scratch.rerank.reranks, 2);
        assert!(scratch.rerank.candidates >= 2 * 10, "pool must be at least k deep per pass");
    }

    #[test]
    fn rerank_depth_defaults_to_twice_k_and_clamps_to_k() {
        let (engine, _) = quantized_engine(64, None);
        assert_eq!(engine.rerank_depth(), 20);
        let (shallow, _) = quantized_engine(64, Some(3));
        assert_eq!(shallow.rerank_depth(), 10, "rerank depth must clamp up to k");
    }

    #[test]
    fn relayout_permutes_the_code_mirror() {
        let ds = DatasetSpec::tiny(300, 8, Metric::L2, 7).generate();
        let mut index =
            AlgasIndex::build_cagra(ds.base.clone(), Metric::L2, CagraParams::default());
        index.quantize();
        index.relayout();
        let q = index.quant.as_ref().unwrap();
        assert_eq!(q.len(), index.base.len());
        // Codes must still mirror the (permuted) base rows.
        let mut row = Vec::new();
        for i in 0..index.base.len() {
            q.dequantize_into(i, &mut row);
            for (d, (&approx, &exact)) in row.iter().zip(index.base.get(i)).enumerate() {
                assert!(
                    (approx - exact).abs() <= q.max_dequant_error(d) + 1e-6,
                    "row {i} dim {d}: dequant {approx} too far from base {exact}"
                );
            }
        }
    }

    #[test]
    fn merged_topk_beats_any_single_cta() {
        let (engine, ds) = small_engine(48, BeamMode::Greedy);
        let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, 10);
        let mut merged_sum = 0.0;
        let mut best_single_sum = 0.0;
        let mut scratch = engine.make_scratch();
        for qid in 0..ds.queries.len().min(50) {
            engine.search_into(ds.queries.get(qid), qid as u64, &mut scratch);
            let merged: Vec<u32> = scratch.topk.iter().map(|&(_, id)| id).collect();
            merged_sum += algas_vector::ground_truth::recall(&merged, &gt.neighbors[qid], 10);
            let best = scratch
                .multi
                .per_cta()
                .iter()
                .map(|l| {
                    let ids: Vec<u32> = l.iter().map(|&(_, id)| id).collect();
                    algas_vector::ground_truth::recall(&ids, &gt.neighbors[qid], 10)
                })
                .fold(0.0f64, f64::max);
            best_single_sum += best;
        }
        assert!(merged_sum >= best_single_sum, "merge must not lose results");
    }
}
