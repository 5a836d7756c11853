//! Intra-CTA greedy search with beam extend.
//!
//! One CTA searches one query: select the closest unexpanded candidate,
//! expand its neighbors, filter through the visited bitmap, compute
//! distances warp-parallel, and bitonically fold the expand list back
//! into the candidate list (§IV-B steps ①–④). The search ends when
//! every candidate in the list has been expanded.
//!
//! **Beam extend**: the search has a *localization* phase (new
//! candidates keep arriving at the head of the list; strict greediness
//! matters) and a *diffusing* phase (the region is found; most nearby
//! points will be visited anyway). Once a selected candidate's offset
//! reaches `offset_beam`, the searcher switches to expanding
//! `beam_width` candidates per maintenance round, cutting the number of
//! sort operations roughly by that factor in the late phase.
//!
//! All per-search state lives in a [`CtaScratch`] owned by the caller,
//! so a serving slot reuses one scratch across queries and the hot path
//! performs no heap allocation at steady state. Distances are computed
//! through the batched SIMD entry point
//! [`Metric::distance_batch`](algas_vector::Metric::distance_batch) —
//! one call per step over the whole expand list, mirroring the warp-
//! parallel distance stage of §IV-B step ③ — or, quantized,
//! [`QuantizedQuery::score_batch`] against the query's one SQ8 encoding
//! ([`SearchContext::encode_query`]), which every CTA borrows.

use crate::lists::{CandidateList, VisitedBitmap};
use crate::search::{BeamParams, SearchContext};
use crate::tracer::{CtaTrace, StepStats};
use algas_vector::metric::DistValue;
use algas_vector::quant::QuantizedQuery;

/// Parameters of a single-CTA search.
#[derive(Clone, Copy, Debug)]
pub struct IntraParams {
    /// Candidate-list capacity `L` (must be ≥ the TopK requested).
    pub l: usize,
    /// Beam extend; `None` = pure greedy ("Greedy Extend" in Fig 16).
    pub beam: Option<BeamParams>,
    /// Whether the visited bitmap lives in shared memory (single-CTA)
    /// or global memory (multi-CTA, shared across CTAs) — changes the
    /// charged cost only.
    pub bitmap_in_shared: bool,
}

impl IntraParams {
    /// Greedy search with candidate list `l`, shared-memory bitmap.
    pub fn greedy(l: usize) -> Self {
        Self { l, beam: None, bitmap_in_shared: true }
    }

    /// Beam-extend search with the default trigger policy.
    pub fn beam(l: usize) -> Self {
        Self { l, beam: Some(BeamParams::default_for(l)), bitmap_in_shared: true }
    }
}

/// Fixed control-overhead cycles per selection scan (max-reduction over
/// the candidate list to find the best unexpanded entry).
const SELECT_CYCLES: u64 = 24;

/// Reusable per-CTA search state: the candidate list, the trace, and
/// the expand/score buffers ("the expand list") plus phase flags.
///
/// Create once per serving slot, reuse for every query it processes —
/// [`CtaSearch::new`] resets it, retaining all backing allocations.
#[derive(Debug, Default)]
pub struct CtaScratch {
    list: CandidateList,
    trace: CtaTrace,
    in_diffusing_phase: bool,
    /// Step index at which beam extend switched to the diffusing phase
    /// (`None` while localizing or for greedy searches) — the flight
    /// recorder's `beam_switch` event.
    diffusing_switch_step: Option<u32>,
    done: bool,
    /// The expand list: ids that passed the bitmap filter this step…
    expand_ids: Vec<u32>,
    /// …and their distances, index for index.
    dists: Vec<f32>,
    selected: Vec<usize>,
}

impl CtaScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// The trace of the search most recently run on this scratch.
    pub fn trace(&self) -> &CtaTrace {
        &self.trace
    }

    /// The step index at which beam extend switched to the diffusing
    /// phase, if it did.
    pub fn diffusing_switch_step(&self) -> Option<u32> {
        self.diffusing_switch_step
    }

    /// Distance from the query to this CTA's entry vertex in the most
    /// recent search (the seed step's recorded distance); `None` before
    /// any search. Entry policies are judged by how small they make
    /// this.
    pub fn entry_distance(&self) -> Option<f32> {
        self.trace.steps.first().map(|s| s.best_distance)
    }

    /// Resets for a fresh search with candidate-list capacity `l`,
    /// keeping every allocation.
    fn reset(&mut self, l: usize) {
        self.list.reset(l);
        self.trace.steps.clear();
        self.in_diffusing_phase = false;
        self.diffusing_switch_step = None;
        self.done = false;
        self.expand_ids.clear();
        self.dists.clear();
        self.selected.clear();
    }
}

/// A resumable single-CTA search (one [`step`](CtaSearch::step) per
/// Algorithm-1 iteration), so multi-CTA execution can interleave CTAs
/// deterministically around their shared bitmap.
///
/// This is a thin view over a caller-owned [`CtaScratch`]; dropping it
/// and re-attaching with [`CtaSearch::resume`] is free, which is how
/// the multi-CTA driver round-robins CTAs without self-referential
/// borrows.
pub struct CtaSearch<'a> {
    ctx: SearchContext<'a>,
    params: IntraParams,
    query: &'a [f32],
    qquery: &'a QuantizedQuery,
    scratch: &'a mut CtaScratch,
}

impl<'a> CtaSearch<'a> {
    /// Seeds a search at `entry`, resetting `scratch`. The entry's
    /// distance is computed and charged; its bitmap bit is set (seeding
    /// bypasses the ownership check — each CTA of a multi-CTA search
    /// starts from its own entry even when another already owns it; the
    /// list is empty, so nothing can collide). On a quantized context
    /// `qquery` must hold `query`'s encoding; fp32 never reads it.
    pub fn new(
        ctx: SearchContext<'a>,
        params: IntraParams,
        query: &'a [f32],
        qquery: &'a QuantizedQuery,
        entry: u32,
        visited: &mut VisitedBitmap,
        scratch: &'a mut CtaScratch,
    ) -> Self {
        assert_eq!(query.len(), ctx.base.dim(), "query dimension mismatch");
        scratch.reset(params.l);
        let _ = visited.test_and_set(entry);
        let d = match ctx.quant {
            Some(q) => qquery.score(q, entry),
            None => ctx.metric.distance(query, ctx.base.get(entry as usize)),
        };
        scratch.list.merge_batch(&[entry], &[d]);
        scratch.trace.steps.push(StepStats {
            selected_offset: 0,
            best_distance: d,
            head_distance: d,
            expansions: 0,
            dist_evals: 1,
            calc_cycles: ctx.cost.distance_cycles(ctx.base.dim()),
            sort_cycles: 0,
            sorts: 0,
            other_cycles: SELECT_CYCLES,
        });
        Self { ctx, params, query, qquery, scratch }
    }

    /// Re-attaches to a scratch that was already seeded with
    /// [`CtaSearch::new`], without resetting it.
    pub fn resume(
        ctx: SearchContext<'a>,
        params: IntraParams,
        query: &'a [f32],
        qquery: &'a QuantizedQuery,
        scratch: &'a mut CtaScratch,
    ) -> Self {
        debug_assert!(scratch.list.capacity() > 0, "resume() on a never-seeded scratch");
        Self { ctx, params, query, qquery, scratch }
    }

    /// Whether the search has terminated.
    pub fn is_done(&self) -> bool {
        self.scratch.done
    }

    /// Executes one search step. Returns `false` once the search is
    /// finished (including the call that discovers termination).
    pub fn step(&mut self, visited: &mut VisitedBitmap) -> bool {
        let s = &mut *self.scratch;
        if s.done {
            return false;
        }
        let list = &mut s.list;
        // ① Selection.
        let width = match (s.in_diffusing_phase, self.params.beam) {
            (true, Some(b)) => b.beam_width,
            _ => 1,
        };
        list.closest_unexpanded_beam_into(width, &mut s.selected);
        let Some(&first) = s.selected.first() else {
            s.done = true;
            return false;
        };
        // Phase switch: selecting at or past offset_beam means the list
        // head is exhausted — the diffusing phase begins (§IV-C).
        if !s.in_diffusing_phase {
            if let Some(b) = self.params.beam {
                if first >= b.offset_beam {
                    s.in_diffusing_phase = true;
                    s.diffusing_switch_step = Some(s.trace.steps.len() as u32);
                }
            }
        }
        let best_distance = list.dist_at(first).0;

        // ② Expand + bitmap filter. All selected adjacency rows are
        // prefetched up front so the expansion loop walks warm lines
        // (after a relayout they are also near-contiguous). Each packed
        // row is decoded straight into the filter, one loop that ends
        // at the row's first pad code and never branches on a probe's
        // outcome. Admitted vector rows are not prefetched from here:
        // step ③'s batch kernels run their own lookahead, and more
        // bought nothing (DESIGN.md §6).
        for &offset in &s.selected {
            self.ctx.graph.prefetch_row(list.id_at(offset));
        }
        s.expand_ids.clear();
        let mut filter_checked = 0usize;
        for &offset in &s.selected {
            let row = self.ctx.graph.neighbors(list.mark_expanded(offset));
            filter_checked += visited.filter_into(row, &mut s.expand_ids);
        }

        // ③ Distance computation: one batched SIMD call over the whole
        // expand list (warp-parallel per §IV-B step ③) — integer dots
        // on the SQ8 codes when the context is quantized, f32 kernels
        // otherwise. The charged cost is per evaluation and unchanged
        // by how the host computes.
        let dim = self.ctx.base.dim();
        match self.ctx.quant {
            Some(q) => self.qquery.score_batch(q, &s.expand_ids, &mut s.dists),
            None => self.ctx.metric.distance_batch(
                self.query,
                self.ctx.base,
                &s.expand_ids,
                &mut s.dists,
            ),
        }
        let evals = s.expand_ids.len();
        let calc_cycles = evals as u64 * self.ctx.cost.distance_cycles(dim);

        // ④ Sort expand list, merge into candidate list, truncate to L
        // — charged as the GPU's bitonic stages, done as one packed-key
        // insertion per newcomer.
        let (sort_cycles, sorts) = if evals == 0 {
            (0, 0)
        } else {
            let merged_len = (list.len() + evals).min(self.params.l + evals);
            let c = self.ctx.cost.bitonic_sort_cycles(evals)
                + self.ctx.cost.bitonic_merge_cycles(merged_len);
            (c, 1)
        };
        list.merge_batch(&s.expand_ids, &s.dists);

        // Prefetch next step's first touch — the adjacency row of the
        // candidate selection ① will pick — so its load overlaps the
        // trace bookkeeping and whatever runs between steps.
        if let Some(next) = list.closest_unexpanded() {
            self.ctx.graph.prefetch_row(list.id_at(next));
        }

        let other_cycles = SELECT_CYCLES
            + self.ctx.cost.bitmap_filter_cycles(filter_checked, self.params.bitmap_in_shared);
        s.trace.steps.push(StepStats {
            selected_offset: first as u32,
            best_distance,
            head_distance: list.dist_at(0).0,
            expansions: s.selected.len() as u32,
            dist_evals: evals as u32,
            calc_cycles,
            sort_cycles,
            sorts,
            other_cycles,
        });
        true
    }

    /// Runs the search to completion.
    pub fn run(&mut self, visited: &mut VisitedBitmap) {
        while self.step(visited) {}
    }

    /// Allocation-free termination: clears `out` and fills it with the
    /// best `k` (distance, id) pairs. The trace remains on the scratch
    /// ([`CtaScratch::trace`]).
    ///
    /// # Panics
    /// Panics if called before the search finished.
    pub fn finish_into(&mut self, k: usize, out: &mut Vec<(DistValue, u32)>) {
        assert!(self.scratch.done, "finish() before the search terminated");
        out.clear();
        out.extend(self.scratch.list.iter().take(k));
    }
}

/// One single-CTA search run to completion on a private bitmap and
/// scratch: the best `k` and the trace, the reference the search tests
/// compare against.
#[cfg(test)]
pub(crate) fn search_one(
    ctx: SearchContext<'_>,
    params: IntraParams,
    query: &[f32],
    entry: u32,
    k: usize,
) -> (Vec<(DistValue, u32)>, CtaTrace) {
    let mut visited = VisitedBitmap::new(ctx.base.len());
    let mut scratch = CtaScratch::new();
    let mut qquery = QuantizedQuery::new();
    ctx.encode_query(query, &mut qquery);
    let mut search = CtaSearch::new(ctx, params, query, &qquery, entry, &mut visited, &mut scratch);
    search.run(&mut visited);
    let mut out = Vec::new();
    search.finish_into(k, &mut out);
    (out, scratch.trace.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use algas_gpu_sim::CostModel;
    use algas_graph::nsw::{NswBuilder, NswParams};
    use algas_graph::PackedGraph;
    use algas_vector::datasets::DatasetSpec;
    use algas_vector::ground_truth::{brute_force_knn, mean_recall};
    use algas_vector::{Metric, VectorStore};

    fn line_setup(n: usize) -> (VectorStore, PackedGraph) {
        let base = VectorStore::from_flat(1, (0..n).map(|i| i as f32).collect());
        let g = NswBuilder::new(Metric::L2, NswParams { m: 3, ef_construction: 12 }).build(&base);
        (base, PackedGraph::pack(&g))
    }

    #[test]
    fn greedy_search_finds_neighbors_on_line() {
        let (base, g) = line_setup(64);
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &base, Metric::L2, &cost);
        let (ids, trace) = search_one(ctx, IntraParams::greedy(16), &[40.3], 0, 4);
        assert_eq!(ids[0].1, 40);
        assert_eq!(ids[1].1, 41);
        assert!(trace.n_steps() > 1);
        assert!(trace.totals().total_cycles() > 0);
    }

    #[test]
    fn search_visits_each_point_once() {
        let (base, g) = line_setup(64);
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &base, Metric::L2, &cost);
        let mut visited = VisitedBitmap::new(base.len());
        let mut scratch = CtaScratch::new();
        let q = [31.5f32];
        let qq = QuantizedQuery::new();
        let mut s =
            CtaSearch::new(ctx, IntraParams::greedy(16), &q, &qq, 0, &mut visited, &mut scratch);
        s.run(&mut visited);
        // Distance evaluations == bitmap marks: nothing scored twice.
        assert_eq!(scratch.trace().totals().dist_evals as usize, visited.count());
    }

    #[test]
    fn scratch_reuse_across_queries_matches_fresh_scratch() {
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 33).generate();
        let g =
            PackedGraph::pack(&NswBuilder::new(Metric::L2, NswParams::default()).build(&ds.base));
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &ds.base, Metric::L2, &cost);
        let params = IntraParams::beam(48);
        let mut reused = CtaScratch::new();
        let mut visited = VisitedBitmap::new(ds.base.len());
        let qq = QuantizedQuery::new();
        for q in 0..ds.queries.len().min(8) {
            let query = ds.queries.get(q);
            visited.clear();
            let mut s = CtaSearch::new(ctx, params, query, &qq, 0, &mut visited, &mut reused);
            s.run(&mut visited);
            let mut ids_reused = Vec::new();
            s.finish_into(10, &mut ids_reused);
            let (ids_fresh, trace_fresh) = search_one(ctx, params, query, 0, 10);
            assert_eq!(ids_reused, ids_fresh, "query {q}");
            assert_eq!(reused.trace(), &trace_fresh, "query {q}");
        }
    }

    #[test]
    fn beam_extend_reduces_sorts_with_comparable_recall() {
        let ds = DatasetSpec::tiny(800, 16, Metric::L2, 55).generate();
        let g =
            PackedGraph::pack(&NswBuilder::new(Metric::L2, NswParams::default()).build(&ds.base));
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &ds.base, Metric::L2, &cost);
        let k = 10;
        let l = 96;
        let gt = brute_force_knn(&ds.base, &ds.queries, Metric::L2, k);

        let mut greedy_sorts = 0u64;
        let mut beam_sorts = 0u64;
        let mut greedy_res = Vec::new();
        let mut beam_res = Vec::new();
        for q in 0..ds.queries.len() {
            let (ids, tr) = search_one(ctx, IntraParams::greedy(l), ds.queries.get(q), 0, k);
            greedy_sorts += tr.totals().sorts;
            greedy_res.push(ids.into_iter().map(|(_, id)| id).collect::<Vec<_>>());
            let (ids, tr) = search_one(ctx, IntraParams::beam(l), ds.queries.get(q), 0, k);
            beam_sorts += tr.totals().sorts;
            beam_res.push(ids.into_iter().map(|(_, id)| id).collect::<Vec<_>>());
        }
        assert!(
            (beam_sorts as f64) < 0.8 * greedy_sorts as f64,
            "beam extend should cut sorts: {beam_sorts} vs {greedy_sorts}"
        );
        let rg = mean_recall(&greedy_res, &gt, k);
        let rb = mean_recall(&beam_res, &gt, k);
        assert!(rb > rg - 0.03, "beam recall {rb} dropped too far below greedy {rg}");
        assert!(rg > 0.9, "greedy baseline recall too low: {rg}");
    }

    #[test]
    fn distance_series_converges() {
        // Fig 7's phenomenon: early best distances shrink fast, the
        // tail is flat. Check the first-half improvement dominates.
        let ds = DatasetSpec::tiny(600, 16, Metric::L2, 91).generate();
        let g =
            PackedGraph::pack(&NswBuilder::new(Metric::L2, NswParams::default()).build(&ds.base));
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &ds.base, Metric::L2, &cost);
        let (_, trace) = search_one(ctx, IntraParams::greedy(64), ds.queries.get(0), 0, 10);
        let series = trace.head_distance_series();
        assert!(series.len() > 4);
        let half = series.len() / 2;
        let drop_first = series[0] - series[half];
        let drop_second = series[half] - series[series.len() - 1];
        assert!(
            drop_first >= drop_second,
            "distance should converge: first-half drop {drop_first}, second-half {drop_second}"
        );
    }

    #[test]
    fn larger_l_never_reduces_visited_set() {
        let ds = DatasetSpec::tiny(400, 8, Metric::L2, 17).generate();
        let g =
            PackedGraph::pack(&NswBuilder::new(Metric::L2, NswParams::default()).build(&ds.base));
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &ds.base, Metric::L2, &cost);
        let q = ds.queries.get(0);
        let (_, t_small) = search_one(ctx, IntraParams::greedy(16), q, 0, 8);
        let (_, t_large) = search_one(ctx, IntraParams::greedy(64), q, 0, 8);
        assert!(t_large.totals().dist_evals >= t_small.totals().dist_evals);
        assert!(t_large.n_steps() >= t_small.n_steps());
    }

    #[test]
    fn step_after_done_is_noop() {
        let (base, g) = line_setup(8);
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &base, Metric::L2, &cost);
        let mut visited = VisitedBitmap::new(8);
        let mut scratch = CtaScratch::new();
        let q = [3.0f32];
        let qq = QuantizedQuery::new();
        let mut s =
            CtaSearch::new(ctx, IntraParams::greedy(8), &q, &qq, 0, &mut visited, &mut scratch);
        s.run(&mut visited);
        assert!(s.is_done());
        assert!(!s.step(&mut visited));
    }

    #[test]
    #[should_panic(expected = "before the search terminated")]
    fn finish_before_done_panics() {
        let (base, g) = line_setup(8);
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &base, Metric::L2, &cost);
        let mut visited = VisitedBitmap::new(8);
        let mut scratch = CtaScratch::new();
        let q = [3.0f32];
        let qq = QuantizedQuery::new();
        let mut s =
            CtaSearch::new(ctx, IntraParams::greedy(8), &q, &qq, 0, &mut visited, &mut scratch);
        s.finish_into(1, &mut Vec::new());
    }

    #[test]
    fn global_bitmap_charges_more() {
        let (base, g) = line_setup(64);
        let cost = CostModel::default();
        let ctx = SearchContext::new(&g, &base, Metric::L2, &cost);
        let q = [20.2f32];
        let shared = IntraParams { l: 16, beam: None, bitmap_in_shared: true };
        let global = IntraParams { l: 16, beam: None, bitmap_in_shared: false };
        let (_, t_shared) = search_one(ctx, shared, &q, 0, 4);
        let (_, t_global) = search_one(ctx, global, &q, 0, 4);
        let (shared, global) = (t_shared.totals(), t_global.totals());
        assert!(global.total_cycles() > shared.total_cycles());
        // Functional results identical: cost placement never changes
        // the answer.
        assert_eq!(shared.dist_evals, global.dist_evals);
    }
}
