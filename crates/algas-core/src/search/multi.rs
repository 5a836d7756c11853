//! Multi-CTA search: `N_parallel` CTAs cooperate on one query.
//!
//! Each CTA runs the intra-CTA search from its own (hashed) entry point
//! with a **private candidate list**, while all CTAs of the query share
//! one visited bitmap (§IV-B): the first CTA to touch a point owns its
//! distance computation, so the CTAs implicitly partition the explored
//! region and never duplicate work. Execution interleaves the CTAs
//! round-robin — a deterministic stand-in for the concurrent progress
//! they make on real hardware — and the per-CTA TopK lists are returned
//! *unmerged*: merging is the host's job (GPU-CPU cooperation).

use crate::lists::VisitedBitmap;
use crate::search::intra::{CtaScratch, CtaSearch, IntraParams};
use crate::search::SearchContext;
use crate::tracer::{CtaTrace, StepTotals};
use algas_graph::entry::EntryPolicy;
use algas_vector::metric::DistValue;
use algas_vector::QuantizedQuery;

/// Reusable multi-CTA search state: the shared visited bitmap, the
/// query's SQ8 encoding, one [`CtaScratch`] per CTA, and the per-CTA
/// result buffers.
///
/// A serving slot keeps one of these alive across queries; after the
/// first query on a given index the entire multi-CTA search runs
/// without heap allocation.
#[derive(Debug, Default)]
pub struct MultiScratch {
    visited: Option<VisitedBitmap>,
    /// The query's SQ8 encoding: made once per search, borrowed by
    /// every CTA (stale on an fp32 context, which never reads it).
    qquery: QuantizedQuery,
    ctas: Vec<CtaScratch>,
    per_cta: Vec<Vec<(DistValue, u32)>>,
    /// CTAs used by the most recent search (≤ `ctas.len()`).
    n_active: usize,
}

impl MultiScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-CTA TopK lists of the most recent search, ascending within
    /// each list — the analogue of [`MultiResult::per_cta`].
    pub fn per_cta(&self) -> &[Vec<(DistValue, u32)>] {
        &self.per_cta[..self.n_active]
    }

    /// Trace of CTA `c` from the most recent search.
    pub fn trace(&self, c: usize) -> &CtaTrace {
        assert!(c < self.n_active, "CTA {c} not active (n_active={})", self.n_active);
        self.ctas[c].trace()
    }

    /// CTAs that participated in the most recent search.
    pub fn n_active(&self) -> usize {
        self.n_active
    }

    /// Step index at which CTA `c` switched to the diffusing phase in
    /// the most recent search (`None` if beam extend never triggered).
    pub fn diffusing_switch_step(&self, c: usize) -> Option<u32> {
        assert!(c < self.n_active, "CTA {c} not active (n_active={})", self.n_active);
        self.ctas[c].diffusing_switch_step()
    }

    /// Aggregated [`StepTotals`] over the active CTAs of the most
    /// recent search — what the serving runtime publishes to
    /// [`crate::obs::RuntimeStats`] per query (allocation-free).
    pub fn step_totals(&self) -> StepTotals {
        let mut totals = StepTotals::default();
        for c in 0..self.n_active {
            totals.merge(&self.ctas[c].trace().totals());
        }
        totals
    }

    /// Distance from the query to its best entry point in the most
    /// recent search: the minimum over active CTAs of the seed step's
    /// recorded distance. A direct read on entry quality — smart entry
    /// policies exist to shrink this. `None` before any search.
    /// Allocation-free.
    pub fn entry_distance(&self) -> Option<f32> {
        (0..self.n_active)
            .filter_map(|c| self.ctas[c].entry_distance())
            .fold(None, |acc: Option<f32>, d| Some(acc.map_or(d, |a| a.min(d))))
    }

    /// Moves the buffered results out into an owned [`MultiResult`],
    /// leaving the scratch reusable (compat path; allocates).
    pub fn take_result(&mut self) -> MultiResult {
        let per_cta =
            self.per_cta[..self.n_active].iter_mut().map(std::mem::take).collect::<Vec<_>>();
        let traces = (0..self.n_active).map(|c| self.ctas[c].trace().clone()).collect::<Vec<_>>();
        MultiResult { per_cta, traces }
    }
}

/// Parameters of a multi-CTA search.
#[derive(Clone, Copy, Debug)]
pub struct MultiParams {
    /// Per-CTA search parameters. `bitmap_in_shared` is forced off:
    /// the shared table lives in global memory.
    pub intra: IntraParams,
    /// Number of CTAs (`N_parallel`).
    pub n_ctas: usize,
    /// Entry-point policy (the paper uses random entries per CTA).
    pub entry: EntryPolicy,
}

/// Result of a multi-CTA search: one TopK list per CTA plus traces.
#[derive(Clone, Debug)]
pub struct MultiResult {
    /// `per_cta[c]` = CTA `c`'s best `k` candidates, ascending. These
    /// are what the host merges (laid out contiguously on the real
    /// system so one sequential read fetches them all).
    pub per_cta: Vec<Vec<(DistValue, u32)>>,
    /// Per-CTA cost traces.
    pub traces: Vec<CtaTrace>,
}

impl MultiResult {
    /// Maximum steps over the CTAs — the query's step count for the
    /// bubble analyses.
    pub fn max_steps(&self) -> usize {
        self.traces.iter().map(|t| t.n_steps()).max().unwrap_or(0)
    }
}

/// Runs a multi-CTA search for `query` (id `query_id` — used by the
/// hashed entry policy), returning `k` candidates per CTA.
///
/// # Panics
/// Panics if `n_ctas == 0` or `k > intra.l`.
pub fn search_multi(
    ctx: SearchContext<'_>,
    params: MultiParams,
    query: &[f32],
    query_id: u64,
    medoid: u32,
    k: usize,
) -> MultiResult {
    let mut scratch = MultiScratch::new();
    search_multi_into(ctx, params, query, query_id, medoid, k, &mut scratch);
    scratch.take_result()
}

/// Allocation-free variant of [`search_multi`]: all state lives in the
/// caller-owned `scratch`, whose buffers are reused across calls.
/// Results are read back through [`MultiScratch::per_cta`] and
/// [`MultiScratch::trace`].
///
/// # Panics
/// Panics if `n_ctas == 0` or `k > intra.l`.
pub fn search_multi_into(
    ctx: SearchContext<'_>,
    params: MultiParams,
    query: &[f32],
    query_id: u64,
    medoid: u32,
    k: usize,
    scratch: &mut MultiScratch,
) {
    let n = ctx.base.len();
    run_multi(ctx, params, query, k, scratch, |c| {
        params.entry.entry_for(query_id, c as u32, n, medoid)
    });
}

/// [`search_multi_into`] with the per-CTA entry points resolved by the
/// caller — the hook the engine's index-backed entry policies (LSH
/// bucket table, descent ladder) use to seed the CTAs. `seeds[c]` is
/// CTA `c`'s entry vertex; `params.entry` is ignored.
///
/// # Panics
/// Panics if `seeds.len() != params.n_ctas`, `n_ctas == 0` or
/// `k > intra.l`.
pub fn search_multi_seeded_into(
    ctx: SearchContext<'_>,
    params: MultiParams,
    query: &[f32],
    seeds: &[u32],
    k: usize,
    scratch: &mut MultiScratch,
) {
    assert_eq!(seeds.len(), params.n_ctas, "one entry seed per CTA");
    run_multi(ctx, params, query, k, scratch, |c| seeds[c]);
}

fn run_multi(
    ctx: SearchContext<'_>,
    params: MultiParams,
    query: &[f32],
    k: usize,
    scratch: &mut MultiScratch,
    seed_of: impl Fn(usize) -> u32,
) {
    assert!(params.n_ctas > 0, "need at least one CTA");
    assert!(k <= params.intra.l, "k={k} exceeds candidate list capacity {}", params.intra.l);
    let n = ctx.base.len();

    // Reuse the shared bitmap when the corpus size is unchanged (the
    // steady-state case: one scratch serves one index); the epoch-based
    // clear is O(1).
    let shared_visited = match &mut scratch.visited {
        Some(v) if v.len() == n => {
            v.clear();
            v
        }
        slot => slot.insert(VisitedBitmap::new(n)),
    };
    while scratch.ctas.len() < params.n_ctas {
        scratch.ctas.push(CtaScratch::new());
    }
    while scratch.per_cta.len() < params.n_ctas {
        scratch.per_cta.push(Vec::new());
    }
    scratch.n_active = params.n_ctas;

    // The shared table lives in global memory: force the cost flag.
    let intra = IntraParams { bitmap_in_shared: params.n_ctas == 1, ..params.intra };
    ctx.encode_query(query, &mut scratch.qquery);
    let qquery = &scratch.qquery;

    // Seed every CTA. `CtaSearch` is a free-to-construct view over its
    // scratch, so the round-robin loop below re-attaches per step
    // instead of holding N simultaneous searches.
    for (c, cta) in scratch.ctas[..params.n_ctas].iter_mut().enumerate() {
        let entry = seed_of(c);
        debug_assert!((entry as usize) < n, "entry seed {entry} out of range for corpus {n}");
        let _ = CtaSearch::new(ctx, intra, query, qquery, entry, shared_visited, cta);
    }

    // Deterministic round-robin interleave until every CTA terminates.
    let mut any_active = true;
    while any_active {
        any_active = false;
        for c in 0..params.n_ctas {
            let mut search = CtaSearch::resume(ctx, intra, query, qquery, &mut scratch.ctas[c]);
            if !search.is_done() && search.step(shared_visited) {
                any_active = true;
            }
        }
    }

    for (cta, out) in
        scratch.ctas[..params.n_ctas].iter_mut().zip(scratch.per_cta[..params.n_ctas].iter_mut())
    {
        CtaSearch::resume(ctx, intra, query, qquery, cta).finish_into(k, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::merge_topk;
    use algas_gpu_sim::CostModel;
    use algas_graph::cagra::{CagraBuilder, CagraParams};
    use algas_graph::entry::medoid;
    use algas_vector::datasets::DatasetSpec;
    use algas_vector::ground_truth::{brute_force_knn, mean_recall};
    use algas_vector::Metric;

    fn setup() -> (algas_vector::datasets::GeneratedDataset, algas_graph::FixedDegreeGraph) {
        let ds = DatasetSpec::tiny(800, 16, Metric::L2, 63).generate();
        let g = CagraBuilder::new(Metric::L2, CagraParams::default()).build(&ds.base);
        (ds, g)
    }

    fn params(l: usize, t: usize) -> MultiParams {
        MultiParams {
            intra: IntraParams { l, beam: None, bitmap_in_shared: false },
            n_ctas: t,
            entry: EntryPolicy::Hashed { seed: 99 },
        }
    }

    #[test]
    fn ctas_partition_work_via_shared_bitmap() {
        let (ds, g) = setup();
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &ds.base, Metric::L2, &cost);
        let res = search_multi(ctx, params(32, 4), ds.queries.get(0), 0, 0, 8);
        assert_eq!(res.per_cta.len(), 4);
        // No id appears in two CTAs' lists (except possibly colliding
        // entry seeds, which the hashed policy makes negligible).
        let mut seen = std::collections::HashSet::new();
        let mut dupes = 0;
        for list in &res.per_cta {
            for &(_, id) in list {
                if !seen.insert(id) {
                    dupes += 1;
                }
            }
        }
        assert!(dupes <= 1, "shared bitmap should deduplicate work ({dupes} dupes)");
    }

    #[test]
    fn multi_cta_recall_matches_single_at_equal_budget() {
        // 4 CTAs with L=32 each should reach at least the recall of a
        // single CTA with L=32 (more exploration, diverse entries).
        let (ds, g) = setup();
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &ds.base, Metric::L2, &cost);
        let med = medoid(&ds.base, Metric::L2);
        let k = 10;
        let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, k);

        let mut multi_res = Vec::new();
        let mut single_res = Vec::new();
        for q in 0..ds.queries.len() {
            let r = search_multi(ctx, params(32, 4), ds.queries.get(q), q as u64, med, k);
            multi_res
                .push(merge_topk(&r.per_cta, k).into_iter().map(|(_, id)| id).collect::<Vec<_>>());
            let (ids, _) = crate::search::intra::search_intra(
                ctx,
                IntraParams::greedy(32),
                ds.queries.get(q),
                med,
                k,
            );
            single_res.push(ids.into_iter().map(|(_, id)| id).collect::<Vec<_>>());
        }
        let rm = mean_recall(&multi_res, &gt, k);
        let rs = mean_recall(&single_res, &gt, k);
        assert!(rm > rs - 0.02, "multi-CTA recall {rm} vs single {rs}");
        assert!(rm > 0.8, "multi-CTA recall too low: {rm}");
    }

    #[test]
    fn deterministic_across_runs() {
        let (ds, g) = setup();
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &ds.base, Metric::L2, &cost);
        let a = search_multi(ctx, params(24, 3), ds.queries.get(1), 1, 0, 8);
        let b = search_multi(ctx, params(24, 3), ds.queries.get(1), 1, 0, 8);
        assert_eq!(a.per_cta, b.per_cta);
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn single_cta_multi_reduces_to_intra() {
        let (ds, g) = setup();
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &ds.base, Metric::L2, &cost);
        let p = MultiParams {
            intra: IntraParams { l: 32, beam: None, bitmap_in_shared: true },
            n_ctas: 1,
            entry: EntryPolicy::Fixed(0),
        };
        let r = search_multi(ctx, p, ds.queries.get(2), 2, 0, 8);
        let (ids, trace) = crate::search::intra::search_intra(
            ctx,
            IntraParams::greedy(32),
            ds.queries.get(2),
            0,
            8,
        );
        assert_eq!(r.per_cta[0], ids);
        assert_eq!(r.traces[0], trace);
    }

    #[test]
    fn scratch_step_totals_match_traces() {
        let (ds, g) = setup();
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &ds.base, Metric::L2, &cost);
        let mut scratch = MultiScratch::new();
        search_multi_into(ctx, params(32, 4), ds.queries.get(2), 2, 0, 8, &mut scratch);
        let totals = scratch.step_totals();
        let mut expected = StepTotals::default();
        for c in 0..scratch.n_active() {
            expected.merge(&scratch.trace(c).totals());
        }
        assert_eq!(totals, expected);
        assert!(totals.steps > 0 && totals.dist_evals > 0);
        assert!(totals.sort_fraction() > 0.0);
    }

    #[test]
    fn step_skew_exists_across_ctas() {
        // The motivation for dynamic batching: CTA step counts differ.
        let (ds, g) = setup();
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &ds.base, Metric::L2, &cost);
        let r = search_multi(ctx, params(32, 8), ds.queries.get(3), 3, 0, 8);
        let steps: Vec<usize> = r.traces.iter().map(|t| t.n_steps()).collect();
        let min = steps.iter().min().unwrap();
        let max = steps.iter().max().unwrap();
        assert!(max > min, "expected step skew across CTAs, got {steps:?}");
        assert_eq!(r.max_steps(), *max);
    }

    #[test]
    #[should_panic(expected = "exceeds candidate list capacity")]
    fn k_exceeding_l_panics() {
        let (ds, g) = setup();
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &ds.base, Metric::L2, &cost);
        search_multi(ctx, params(8, 2), ds.queries.get(0), 0, 0, 9);
    }
}
