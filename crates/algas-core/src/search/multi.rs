//! Multi-CTA search: up to `N_parallel` CTAs cooperate on one query.
//!
//! Each CTA runs the intra-CTA search from its own entry point with a
//! **private candidate list**, while all CTAs of the query share
//! one visited bitmap (§IV-B): the first CTA to touch a point owns its
//! distance computation, so the CTAs implicitly partition the explored
//! region and never duplicate work. The per-CTA TopK lists are returned
//! *unmerged*: merging is the host's job (GPU-CPU cooperation).
//!
//! Two [`Schedule`]s drive the same `CtaSearch::{new, step}` over that
//! bitmap. **Concurrent** is what a GPU runs: every CTA seeded up front
//! and stepped round-robin, the deterministic stand-in for simultaneous
//! progress — the paper path, which the figures, the simulators and the
//! golden pins see. **Serial** is what one worker thread runs: walkers
//! go one after another, so a finished walker can tell the next whether
//! it is needed — `n_ctas` is a cap, the walkers after the first are
//! scouts with a `k`-long list, and launching stops with the first one
//! that adds nothing to the best `k` found so far.

use crate::lists::VisitedBitmap;
use crate::search::intra::{CtaScratch, CtaSearch, IntraParams};
use crate::search::SearchContext;
use crate::tracer::{CtaTrace, StepTotals};
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
    /// CTAs launched by the most recent search (≤ `ctas.len()`).
    n_active: usize,
    /// Serial schedule: the seeds walkers were launched from…
    seeds: Vec<u32>,
    /// …and the best `k` entries they hold so far, ascending.
    bound: Vec<(DistValue, u32)>,
}

impl MultiScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-CTA TopK lists of the most recent search, ascending within
    /// each list. These are what the host merges (laid out contiguously
    /// on the real system so one sequential read fetches them all).
    pub fn per_cta(&self) -> &[Vec<(DistValue, u32)>] {
        &self.per_cta[..self.n_active]
    }

    /// Trace of CTA `c` from the most recent search.
    pub fn trace(&self, c: usize) -> &CtaTrace {
        assert!(c < self.n_active, "CTA {c} not active (n_active={})", self.n_active);
        self.ctas[c].trace()
    }

    /// CTAs launched by the most recent search (under
    /// [`Schedule::Serial`], the walkers that ran, not the cap).
    pub fn n_active(&self) -> usize {
        self.n_active
    }

    /// The walkers of the most recent search in launch order: each
    /// one's [`StepTotals`] and the step its beam extend switched to
    /// diffusing at (`None` if it never did). Allocation-free.
    pub fn walkers(&self) -> impl Iterator<Item = (StepTotals, Option<u32>)> + '_ {
        self.ctas[..self.n_active].iter().map(|c| (c.trace().totals(), c.diffusing_switch_step()))
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
}

/// How a query's CTAs are driven over their shared bitmap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// All `n_ctas` seeded up front, stepped round-robin to exhaustion.
    Concurrent,
    /// Walker 0 runs the plan's search to termination; then walker `c`,
    /// a scout with a `k`-long list, is seeded only when launched: a
    /// seed an earlier walker started from is skipped, and a scout none
    /// of whose entries enters the best `k` held by the walkers before
    /// it is the last one launched.
    Serial,
}

/// Parameters of a multi-CTA search.
#[derive(Clone, Copy, Debug)]
pub struct MultiParams {
    /// Per-CTA search parameters. `bitmap_in_shared` is forced off:
    /// the shared table lives in global memory.
    pub intra: IntraParams,
    /// Number of CTAs (`N_parallel`); under [`Schedule::Serial`] the
    /// most that may be launched.
    pub n_ctas: usize,
}

/// The multi-CTA search under either [`Schedule`], with the entry
/// points resolved by the caller (the engine's entry policies).
/// `seed_of(c)` is CTA `c`'s entry vertex, asked for only when `c` is
/// launched. All state lives in the caller-owned `scratch`, whose
/// buffers are reused across calls; results are read back through
/// [`MultiScratch::per_cta`] and [`MultiScratch::trace`].
///
/// # Panics
/// Panics if `n_ctas == 0` or `k > intra.l`.
pub fn search_multi_seeded_into(
    ctx: SearchContext<'_>,
    params: MultiParams,
    schedule: Schedule,
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

    // The shared table lives in global memory: force the cost flag.
    let intra = IntraParams { bitmap_in_shared: params.n_ctas == 1, ..params.intra };
    ctx.encode_query(query, &mut scratch.qquery);
    let qquery = &scratch.qquery;
    let seed_checked = |c: usize| {
        let entry = seed_of(c);
        debug_assert!((entry as usize) < n, "entry seed {entry} out of range for corpus {n}");
        entry
    };

    if schedule == Schedule::Serial {
        // Walker 0 is the plan's search. The walkers after it are
        // scouts, asked only for entries that can enter the best `k`:
        // a `k`-long list is all they carry.
        let scout = IntraParams { l: k, ..intra };
        scratch.seeds.clear();
        scratch.bound.clear();
        for c in 0..params.n_ctas {
            let entry = seed_checked(c);
            // Walking again from where an earlier walker started finds
            // nothing; such a seed says nothing about the next one.
            if scratch.seeds.contains(&entry) {
                continue;
            }
            let w = scratch.seeds.len();
            scratch.seeds.push(entry);
            let (cta, out) = (&mut scratch.ctas[w], &mut scratch.per_cta[w]);
            let list = if w == 0 { intra } else { scout };
            let mut walker = CtaSearch::new(ctx, list, query, qquery, entry, shared_visited, cta);
            walker.run(shared_visited);
            walker.finish_into(k, out);
            // Fold the list into the running best `k`; a walker that
            // lands nothing there came back empty-handed.
            let mut improved = false;
            for e in out.iter() {
                let full = scratch.bound.len() >= k;
                if full && scratch.bound.last().is_some_and(|b| e >= b) {
                    break;
                }
                if let Err(at) = scratch.bound.binary_search(e) {
                    if full {
                        scratch.bound.pop();
                    }
                    scratch.bound.insert(at, *e);
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        scratch.n_active = scratch.seeds.len();
        return;
    }
    scratch.n_active = params.n_ctas;

    // Seed every CTA. `CtaSearch` is a free-to-construct view over its
    // scratch, so the round-robin loop below re-attaches per step
    // instead of holding N simultaneous searches.
    for (c, cta) in scratch.ctas[..params.n_ctas].iter_mut().enumerate() {
        let _ = CtaSearch::new(ctx, intra, query, qquery, seed_checked(c), shared_visited, cta);
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
    use crate::search::intra::search_one;
    use algas_gpu_sim::CostModel;
    use algas_graph::cagra::{CagraBuilder, CagraParams};
    use algas_graph::entry::{medoid, EntryPolicy};
    use algas_vector::datasets::DatasetSpec;
    use algas_vector::ground_truth::{brute_force_knn, mean_recall};
    use algas_vector::Metric;

    fn setup() -> (algas_vector::datasets::GeneratedDataset, algas_graph::PackedGraph) {
        let ds = DatasetSpec::tiny(800, 16, Metric::L2, 63).generate();
        let g = CagraBuilder::new(Metric::L2, CagraParams::default()).build(&ds.base);
        (ds, algas_graph::PackedGraph::pack(&g))
    }

    fn params(l: usize, t: usize) -> MultiParams {
        MultiParams { intra: IntraParams { l, beam: None, bitmap_in_shared: false }, n_ctas: t }
    }

    /// The traces of the most recent search on `s`, in launch order.
    fn traces(s: &MultiScratch) -> Vec<CtaTrace> {
        (0..s.n_active()).map(|c| s.trace(c).clone()).collect()
    }

    /// CTA `c`'s hashed entry for query `q` over `n` vertices.
    fn hashed(q: u64, c: usize, n: usize) -> u32 {
        EntryPolicy::Hashed { seed: 99 }.entry_for(q, c as u32, n, 0)
    }

    /// The paper schedule from hashed entries.
    fn concurrent(
        ctx: SearchContext<'_>,
        p: MultiParams,
        query: &[f32],
        q: u64,
        k: usize,
    ) -> MultiScratch {
        let n = ctx.base.len();
        let mut scratch = MultiScratch::new();
        search_multi_seeded_into(ctx, p, Schedule::Concurrent, query, k, &mut scratch, |c| {
            hashed(q, c, n)
        });
        scratch
    }

    #[test]
    fn ctas_partition_work_via_shared_bitmap() {
        let (ds, g) = setup();
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &ds.base, Metric::L2, &cost);
        let res = concurrent(ctx, params(32, 4), ds.queries.get(0), 0, 8);
        assert_eq!(res.per_cta().len(), 4);
        // No id appears in two CTAs' lists (except possibly colliding
        // entry seeds, which the hashed policy makes negligible).
        let mut seen = std::collections::HashSet::new();
        let mut dupes = 0;
        for list in res.per_cta() {
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
            let r = concurrent(ctx, params(32, 4), ds.queries.get(q), q as u64, k);
            multi_res
                .push(merge_topk(r.per_cta(), k).into_iter().map(|(_, id)| id).collect::<Vec<_>>());
            let (ids, _) = search_one(ctx, IntraParams::greedy(32), ds.queries.get(q), med, k);
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
        let a = concurrent(ctx, params(24, 3), ds.queries.get(1), 1, 8);
        let b = concurrent(ctx, params(24, 3), ds.queries.get(1), 1, 8);
        assert_eq!(a.per_cta(), b.per_cta());
        assert_eq!(traces(&a), traces(&b));
    }

    #[test]
    fn single_cta_multi_reduces_to_intra() {
        let (ds, g) = setup();
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &ds.base, Metric::L2, &cost);
        let p = MultiParams {
            intra: IntraParams { l: 32, beam: None, bitmap_in_shared: true },
            n_ctas: 1,
        };
        let (ids, trace) = search_one(ctx, IntraParams::greedy(32), ds.queries.get(2), 0, 8);
        // Bit for bit under either schedule: one CTA has nobody to
        // interleave with and nobody to stop for.
        for schedule in [Schedule::Concurrent, Schedule::Serial] {
            let mut scratch = MultiScratch::new();
            search_multi_seeded_into(ctx, p, schedule, ds.queries.get(2), 8, &mut scratch, |_| 0);
            assert_eq!(scratch.per_cta(), std::slice::from_ref(&ids), "{schedule:?}");
            assert_eq!(traces(&scratch), std::slice::from_ref(&trace), "{schedule:?}");
        }
    }

    /// Three islands of ten points on a line, chained inside an island
    /// and unconnected across: a walker sees only the island it is
    /// seeded in, so which walkers improve the TopK is set by the seeds.
    fn islands() -> (algas_vector::VectorStore, algas_graph::PackedGraph) {
        let base = algas_vector::VectorStore::from_flat(1, (0..30).map(|i| i as f32).collect());
        let rows: Vec<Vec<u32>> = (0..30u32)
            .map(|v| [v.wrapping_sub(1), v + 1].into_iter().filter(|&u| u / 10 == v / 10).collect())
            .collect();
        let g = algas_graph::FixedDegreeGraph::from_adjacency(30, 2, &rows);
        (base, algas_graph::PackedGraph::pack(&g))
    }

    /// Runs the serial schedule from `seeds` (cap = their count) for a
    /// query at 14.6 — its neighbors live on the middle island — and
    /// returns the walkers launched and the seeds asked for.
    fn serial_on_islands(seeds: &[u32]) -> (usize, usize) {
        let (base, g) = islands();
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &base, Metric::L2, &cost);
        let p = MultiParams { n_ctas: seeds.len(), ..params(8, 0) };
        let asked = std::cell::Cell::new(0);
        let mut scratch = MultiScratch::new();
        search_multi_seeded_into(ctx, p, Schedule::Serial, &[14.6], 4, &mut scratch, |c| {
            asked.set(asked.get().max(c + 1));
            seeds[c]
        });
        assert_eq!(scratch.per_cta().len(), scratch.n_active());
        (scratch.n_active(), asked.get())
    }

    #[test]
    fn serial_launches_the_next_walker_only_while_the_last_one_improved() {
        // Walker 1 finds the true neighbors, so walker 2 is launched;
        // it adds nothing, so seed 3 is never even resolved.
        assert_eq!(serial_on_islands(&[0, 12, 25, 3]), (3, 3));
        // Walker 0 already holds them: walker 1 comes back
        // empty-handed and is the last.
        assert_eq!(serial_on_islands(&[12, 0, 25]), (2, 2));
        // The cap binds even while walkers keep improving.
        assert_eq!(serial_on_islands(&[25, 0]), (2, 2));
        assert_eq!(serial_on_islands(&[25]), (1, 1));
    }

    #[test]
    fn serial_skips_a_repeated_seed_without_counting_it_empty_handed() {
        // The repeat of seed 0 is no walker: the next distinct seed
        // still launches, improves, and lets one more go.
        assert_eq!(serial_on_islands(&[0, 0, 12, 25]), (3, 4));
        // Nothing but repeats: one walker, every seed looked at.
        assert_eq!(serial_on_islands(&[12, 12, 12]), (1, 3));
    }

    #[test]
    fn serial_walker_count_is_bounded_and_repeatable() {
        let (ds, g) = setup();
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &ds.base, Metric::L2, &cost);
        let n = ds.base.len();
        let mut scratch = MultiScratch::new();
        for cap in [1, 2, 8] {
            let p = params(32, cap);
            for q in 0..ds.queries.len().min(40) {
                let seed_of = |c: usize| hashed(q as u64, c, n);
                let distinct_seeds =
                    (0..cap).map(seed_of).collect::<std::collections::HashSet<_>>().len();
                let mut run = || {
                    let query = ds.queries.get(q);
                    search_multi_seeded_into(
                        ctx,
                        p,
                        Schedule::Serial,
                        query,
                        8,
                        &mut scratch,
                        seed_of,
                    );
                    (scratch.n_active(), scratch.per_cta().to_vec(), traces(&scratch))
                };
                let (launched, first, first_traces) = run();
                assert!(launched <= cap, "query {q}: {launched} walkers over cap {cap}");
                assert!(launched >= distinct_seeds.min(2), "query {q}: {launched} of cap {cap}");
                // Walker 0 carries the plan's list (32), the scouts
                // after it a `k`-long one (8): what a step selects
                // cannot sit past the end of the list it selects from.
                let deepest = |t: &CtaTrace| t.steps.iter().map(|s| s.selected_offset).max();
                assert!(deepest(&first_traces[0]) >= Some(8), "query {q}");
                assert!(first_traces[1..].iter().all(|t| deepest(t) < Some(8)), "query {q}");
                assert_eq!(run(), (launched, first, first_traces), "query {q}");
            }
        }
    }

    #[test]
    fn scratch_step_totals_match_traces() {
        let (ds, g) = setup();
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &ds.base, Metric::L2, &cost);
        let mut scratch = MultiScratch::new();
        let n = ds.base.len();
        let query = ds.queries.get(2);
        search_multi_seeded_into(
            ctx,
            params(32, 4),
            Schedule::Concurrent,
            query,
            8,
            &mut scratch,
            |c| hashed(2, c, n),
        );
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
        let r = concurrent(ctx, params(32, 8), ds.queries.get(3), 3, 8);
        let steps: Vec<usize> = traces(&r).iter().map(|t| t.n_steps()).collect();
        let min = steps.iter().min().unwrap();
        let max = steps.iter().max().unwrap();
        assert!(max > min, "expected step skew across CTAs, got {steps:?}");
    }

    #[test]
    #[should_panic(expected = "exceeds candidate list capacity")]
    fn k_exceeding_l_panics() {
        let (ds, g) = setup();
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &ds.base, Metric::L2, &cost);
        concurrent(ctx, params(8, 2), ds.queries.get(0), 0, 9);
    }
}
