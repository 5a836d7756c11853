//! The ALGAS search algorithms.
//!
//! * [`intra`] — the intra-CTA greedy search (Algorithm 1 refined into
//!   the four sub-steps of §IV-B), with the **beam extend**
//!   localization/diffusing phase optimization.
//! * [`multi`] — the multi-CTA search: `N_parallel` CTAs per query,
//!   private candidate lists, distinct entry points, one shared visited
//!   bitmap; per-CTA TopK lists left unmerged for the host (§IV-B
//!   "GPU-CPU Cooperation").

pub mod intra;
pub mod multi;

use algas_gpu_sim::CostModel;
use algas_graph::FixedDegreeGraph;
use algas_vector::{Metric, QuantizedQuery, QuantizedStore, VectorStore};

/// Everything a searcher needs to run: the index, the corpus, and the
/// cost model it charges its operations against.
#[derive(Clone, Copy)]
pub struct SearchContext<'a> {
    /// The graph index (NSW or CAGRA-style).
    pub graph: &'a FixedDegreeGraph,
    /// The indexed vectors.
    pub base: &'a VectorStore,
    /// Optional SQ8 codes mirroring `base` row-for-row. When present,
    /// traversal scores candidates on quantized distances (4× fewer
    /// bytes per row); callers are expected to re-rank the pooled
    /// results with exact f32 distances before returning them.
    pub quant: Option<&'a QuantizedStore>,
    /// Distance metric.
    pub metric: Metric,
    /// Cycle cost model for the simulated GPU.
    pub cost: &'a CostModel,
}

impl<'a> SearchContext<'a> {
    /// Creates a context, validating that graph and corpus agree.
    ///
    /// # Panics
    /// Panics if the graph vertex count differs from the corpus size.
    pub fn new(
        graph: &'a FixedDegreeGraph,
        base: &'a VectorStore,
        metric: Metric,
        cost: &'a CostModel,
    ) -> Self {
        assert_eq!(
            graph.len(),
            base.len(),
            "graph vertices ({}) must match corpus size ({})",
            graph.len(),
            base.len()
        );
        Self { graph, base, quant: None, metric, cost }
    }

    /// Creates a context that traverses on SQ8 quantized distances.
    ///
    /// # Panics
    /// Panics if graph, corpus, and codes disagree on size or dimension.
    pub fn with_quantized(
        graph: &'a FixedDegreeGraph,
        base: &'a VectorStore,
        quant: &'a QuantizedStore,
        metric: Metric,
        cost: &'a CostModel,
    ) -> Self {
        let mut ctx = Self::new(graph, base, metric, cost);
        assert_eq!(
            quant.len(),
            base.len(),
            "quantized rows ({}) must match corpus size ({})",
            quant.len(),
            base.len()
        );
        assert_eq!(quant.dim(), base.dim(), "quantized dimension mismatch");
        ctx.quant = Some(quant);
        ctx
    }

    /// The one SQ8 encode of a search: encodes `query` against this
    /// context's codes into `out` (untouched on an fp32 context). Both
    /// entry points call it once per query; every CTA borrows `out`.
    pub fn encode_query(&self, query: &[f32], out: &mut QuantizedQuery) {
        if let Some(quant) = self.quant {
            out.encode(self.metric, query, quant);
        }
    }
}

/// Beam-extend parameters (§IV-B / §IV-C).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BeamParams {
    /// Candidate-list offset that triggers the diffusing phase: once a
    /// selected candidate sits at or beyond this offset, strict
    /// greediness stops paying for itself.
    pub offset_beam: usize,
    /// Candidates expanded per maintenance round in the diffusing
    /// phase (the number of skipped sorts + 1).
    pub beam_width: usize,
}

impl BeamParams {
    /// The engine's beam policy: the diffusing phase starts as soon
    /// as selection reaches a sixteenth of the list (by then the head
    /// is exhausted and the TopK region located), expanding 8
    /// candidates per maintenance round. Aggressive, but §IV-B's
    /// argument holds: the diffusing region gets visited regardless,
    /// so recall is insensitive to late-phase greediness.
    pub fn default_for(l: usize) -> Self {
        BeamParams { offset_beam: (l / 16).max(1), beam_width: 8 }
    }
}
