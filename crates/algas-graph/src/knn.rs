//! k-NN graph construction: exact brute force and NN-descent.
//!
//! CAGRA builds its searchable graph by *optimizing an initial k-NN
//! graph*. The authors bootstrap that k-NN graph on the GPU; here we
//! provide two CPU builders with one output type:
//!
//! * [`build_knn_graph_exact`] — O(n²) brute force, parallel over rows
//!   via scoped threads ([`crate::parallel::par_map`]). Exact, used for
//!   small corpora and as the oracle in tests.
//! * [`build_knn_graph_nn_descent`] — NN-descent (Dong et al.), the
//!   standard approximate construction: start random, repeatedly let each
//!   vertex compare its neighbors' neighbors, keep the k best. Converges
//!   in a handful of rounds on clustered data.

use crate::csr::FixedDegreeGraph;
use crate::parallel;
use algas_vector::ground_truth::{knn_block, QUERY_BLOCK};
use algas_vector::metric::DistValue;
use algas_vector::{Metric, VectorStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exact k-NN graph by brute force (excluding self).
///
/// # Panics
/// Panics if `k == 0` or `k >= base.len()`.
pub fn build_knn_graph_exact(base: &VectorStore, metric: Metric, k: usize) -> FixedDegreeGraph {
    build_knn_graph_exact_threads(base, metric, k, parallel::max_threads())
}

/// [`build_knn_graph_exact`] with an explicit thread count. Rows are
/// independent, so the output is identical for every thread count.
pub fn build_knn_graph_exact_threads(
    base: &VectorStore,
    metric: Metric,
    k: usize,
    threads: usize,
) -> FixedDegreeGraph {
    let n = base.len();
    assert!(k > 0, "k must be positive");
    assert!(k < n, "k={k} must be < n={n}");
    crate::progress::global().start_phase(crate::progress::BuildPhase::KnnExact, n as u64);
    // Blocks of rows scan the corpus together, each row's self skipped.
    let blocks = parallel::par_map(n.div_ceil(QUERY_BLOCK), 2, threads, |b| {
        let block = b * QUERY_BLOCK..n.min((b + 1) * QUERY_BLOCK);
        crate::progress::global().node_done(block.len() as u64);
        knn_block(base, base, block, metric, k, true)
    });
    FixedDegreeGraph::from_adjacency(n, k, &blocks.concat())
}

/// Parameters for NN-descent.
#[derive(Clone, Copy, Debug)]
pub struct NnDescentParams {
    /// Neighbors kept per vertex (the k of the k-NN graph).
    pub k: usize,
    /// Maximum improvement rounds.
    pub max_rounds: usize,
    /// Stop when fewer than `termination_frac * n * k` updates occur in a
    /// round.
    pub termination_frac: f64,
    /// RNG seed for the random initial graph.
    pub seed: u64,
}

impl Default for NnDescentParams {
    fn default() -> Self {
        Self { k: 32, max_rounds: 12, termination_frac: 0.001, seed: 0xDE5C }
    }
}

/// The n bounded neighbor lists of NN-descent, laid out flat: list `v`
/// is slots `v·k .. (v+1)·k` of `ids`, `dists` and `new`, sorted
/// ascending by distance. Every list holds exactly k entries — the
/// random initialization fills it and an accepted insert evicts the
/// worst — and `worst[v]` repeats list `v`'s last distance in a compact
/// array, so the bound test reads four bytes instead of the list.
struct Lists {
    k: usize,
    ids: Vec<u32>,
    dists: Vec<DistValue>,
    /// Whether the entry arrived after the current round's samples.
    new: Vec<bool>,
    worst: Vec<DistValue>,
}

impl Lists {
    fn with_capacity(n: usize, k: usize) -> Self {
        Self {
            k,
            ids: Vec::with_capacity(n * k),
            dists: Vec::with_capacity(n * k),
            new: Vec::with_capacity(n * k),
            worst: Vec::with_capacity(n),
        }
    }

    /// Appends a full list, sorted ascending by distance; every entry
    /// is new.
    fn push(&mut self, row: &[(DistValue, u32)]) {
        assert_eq!(row.len(), self.k, "a list holds exactly k entries");
        self.ids.extend(row.iter().map(|&(_, id)| id));
        self.dists.extend(row.iter().map(|&(d, _)| d));
        self.new.resize(self.ids.len(), true);
        self.worst.push(row[self.k - 1].0);
    }

    /// Splits the lists into consecutive runs of `per` lists (the last
    /// may be shorter), one per apply thread.
    fn owners(&mut self, per: usize) -> impl Iterator<Item = OwnedLists<'_>> {
        let k = self.k;
        self.ids
            .chunks_mut(per * k)
            .zip(self.dists.chunks_mut(per * k))
            .zip(self.new.chunks_mut(per * k))
            .zip(self.worst.chunks_mut(per))
            .map(move |(((ids, dists), new), worst)| OwnedLists { k, ids, dists, new, worst })
    }

    /// Writes the round's samples — each list's new and old ids, in list
    /// order — into `new_rows` and `old_rows`, then marks every entry old.
    fn sample(&mut self, new_rows: &mut Rows, old_rows: &mut Rows) {
        for rows in [&mut *new_rows, &mut *old_rows] {
            rows.start.clear();
            rows.start.push(0);
            rows.ids.clear();
        }
        for (ids, new) in self.ids.chunks(self.k).zip(self.new.chunks(self.k)) {
            for (&id, &is_new) in ids.iter().zip(new) {
                if is_new {
                    new_rows.ids.push(id);
                } else {
                    old_rows.ids.push(id);
                }
            }
            new_rows.start.push(new_rows.ids.len());
            old_rows.start.push(old_rows.ids.len());
        }
        self.new.fill(false);
    }
}

/// A run of consecutive lists, owned by one apply thread; index 0 is the
/// run's first list.
struct OwnedLists<'a> {
    k: usize,
    ids: &'a mut [u32],
    dists: &'a mut [DistValue],
    new: &'a mut [bool],
    worst: &'a mut [DistValue],
}

impl OwnedLists<'_> {
    /// Inserts (d, u) into list `i` if better than its worst and not
    /// already present; returns true on an actual update. The bound test
    /// reads the compact `worst` array and runs before the O(k) duplicate
    /// scan: both reject without touching the list, so their order
    /// changes only the work done. An
    /// accepted entry goes before any equal distance, is marked new, and
    /// evicts the worst.
    fn insert(&mut self, i: usize, d: DistValue, u: u32) -> bool {
        if d >= self.worst[i] {
            return false;
        }
        let slots = i * self.k..(i + 1) * self.k;
        let ids = &mut self.ids[slots.clone()];
        if ids.contains(&u) {
            return false;
        }
        let dists = &mut self.dists[slots.clone()];
        let pos = dists.partition_point(|&x| x < d);
        let last = self.k - 1;
        ids.copy_within(pos..last, pos + 1);
        ids[pos] = u;
        dists.copy_within(pos..last, pos + 1);
        dists[pos] = d;
        let new = &mut self.new[slots];
        new.copy_within(pos..last, pos + 1);
        new[pos] = true;
        self.worst[i] = dists[last];
        true
    }
}

/// Per-vertex id lists in one flat array (compressed sparse rows): row
/// `v` is `ids[start[v]..start[v + 1]]`.
#[derive(Default)]
struct Rows {
    start: Vec<usize>,
    ids: Vec<u32>,
}

impl Rows {
    fn row(&self, v: usize) -> &[u32] {
        &self.ids[self.start[v]..self.start[v + 1]]
    }

    /// Rebuilds `self` as the reverse of `fwd`: row `u` lists every `v`
    /// with `u ∈ fwd.row(v)`, in vertex order, keeping the first `cap`.
    fn reverse_of(&mut self, fwd: &Rows, cap: usize) {
        let n = fwd.start.len() - 1;
        self.start.clear();
        self.start.resize(n + 1, 0);
        for &u in &fwd.ids {
            let count = &mut self.start[u as usize + 1];
            *count = (*count + 1).min(cap);
        }
        for v in 0..n {
            self.start[v + 1] += self.start[v];
        }
        self.ids.clear();
        self.ids.resize(self.start[n], 0);
        let mut fill = self.start[..n].to_vec();
        for v in 0..n {
            for &u in fwd.row(v) {
                let u = u as usize;
                if fill[u] < self.start[u + 1] {
                    self.ids[fill[u]] = v as u32;
                    fill[u] += 1;
                }
            }
        }
    }
}

/// An offer of neighbor `from` at distance `d` to list `to`.
#[derive(Clone, Copy)]
struct Offer {
    to: u32,
    from: u32,
    d: DistValue,
}

/// One join chunk's output and scratch, reused by every window of every
/// round.
#[derive(Default)]
struct ChunkOffers {
    /// `runs[t]`: the chunk's offers to apply thread `t`'s lists, in
    /// serial order.
    runs: Vec<Vec<Offer>>,
    /// A vertex's join set: its new samples, then its old ones.
    join: Vec<u32>,
    /// The distances of one join row.
    dists: Vec<f32>,
}

/// Appends a vertex's forward samples to its join set, then the
/// reverse ones not among them.
fn push_samples(join: &mut Vec<u32>, fwd: &[u32], rev: &[u32]) {
    let start = join.len();
    join.extend_from_slice(fwd);
    for &u in rev {
        if !join[start..].contains(&u) {
            join.push(u);
        }
    }
}

/// Runs `f(i, &mut items[i])` for every item on up to `threads` threads
/// (the caller included), each taking the next unclaimed item.
fn par_for_each_mut<T: Send>(items: &mut [T], threads: usize, f: impl Fn(usize, &mut T) + Sync) {
    let workers = threads.min(items.len());
    let queue = std::sync::Mutex::new(items.iter_mut().enumerate());
    let work = || loop {
        let next = queue.lock().expect("no panics holding the queue").next();
        let Some((i, item)) = next else { return };
        f(i, item);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

/// k random distinct neighbors of each vertex, never the vertex itself.
fn random_lists(base: &VectorStore, metric: Metric, k: usize, seed: u64) -> Lists {
    let n = base.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lists = Lists::with_capacity(n, k);
    let (mut ids, mut dists) = (Vec::with_capacity(k), Vec::with_capacity(k));
    let mut row: Vec<(DistValue, u32)> = Vec::with_capacity(k);
    for v in 0..n {
        ids.clear();
        while ids.len() < k {
            let u = rng.gen_range(0..n) as u32;
            if u as usize != v && !ids.contains(&u) {
                ids.push(u);
            }
        }
        metric.distance_rows(base.get(v), base, &ids, &mut dists);
        row.clear();
        for (&u, &d) in ids.iter().zip(&dists) {
            let d = DistValue(d);
            row.insert(row.partition_point(|&(x, _)| x < d), (d, u));
        }
        lists.push(&row);
    }
    lists
}

/// Builds an approximate k-NN graph with NN-descent.
///
/// Deterministic for a fixed seed. The local join takes no sample of
/// the forward lists (rho = 1: every new and every old neighbor joins)
/// and caps each reverse list at its first k entries in vertex order,
/// which keeps rounds O(n·k²) distance evaluations.
pub fn build_knn_graph_nn_descent(
    base: &VectorStore,
    metric: Metric,
    params: NnDescentParams,
) -> FixedDegreeGraph {
    build_knn_graph_nn_descent_threads(base, metric, params, parallel::max_threads())
}

/// [`build_knn_graph_nn_descent`] with an explicit thread count.
///
/// The output is bit-identical for every thread count, and to the
/// serial algorithm: walk the vertices in order, compare each pair
/// `(a, b)` of a vertex's join set, and insert `b` into `a`'s list, then
/// `a` into `b`'s. A list's state depends only on the sequence of
/// inserts it receives, and a refused insert leaves it untouched, so
/// the parallel build only has to hand every list the same sequence of
/// inserts that could be accepted:
///
/// * **Pairs.** Within a round, a vertex's join set depends only on the
///   round-start samples — never on inserts made earlier in the round —
///   so a window of vertices computes its pairs in parallel.
/// * **Filter.** Every list is full and its worst distance never rises
///   (an accepted insert evicts the old worst). Window `w`'s offers are
///   applied after window `w`'s join, and the join reads each list's
///   worst as the previous window's apply left it, so an offer with
///   `d ≥ worst(to)` there would be refused whenever it arrived: the
///   join drops it, and emits each direction of a pair only when it
///   passes its own list's bound.
/// * **Apply by owner.** Each apply thread owns a contiguous range of
///   lists. The join writes each chunk's offers into one run per owner,
///   in serial order (vertex, then pair, then `a ← b` before `b ← a`),
///   and each owner reads its runs in chunk order, so every list still
///   receives its serial sequence.
///
/// Window sizes do not enter that argument, so the join sizes each
/// window by the pairs it will compare: up to 2 048 vertices and 2^19
/// pairs. The offers a window buffers are bounded by its pairs, and the
/// first round, whose lists are all new, gets small windows where later
/// rounds keep large ones.
pub fn build_knn_graph_nn_descent_threads(
    base: &VectorStore,
    metric: Metric,
    params: NnDescentParams,
    threads: usize,
) -> FixedDegreeGraph {
    nn_descent(base, metric, params, threads, WINDOW_PAIRS)
}

/// The most vertices one join window holds.
const MAX_WINDOW: usize = 2048;
/// The join splits each window into this many chunks (64 vertices each
/// in a full window) and hands threads one chunk at a time, so a small
/// window balances across threads as well as a full one.
const CHUNKS: usize = 32;
/// The most join pairs a window of more than one vertex may compare.
/// Each pair buffers at most two 12-byte offers, so a window's offers
/// stay under 12 MiB: a first-round window on the benchmark corpus
/// (≈ 2 016 pairs a vertex) is ≈ 260 vertices, a last-round one 2 048.
const WINDOW_PAIRS: usize = 1 << 19;

/// The end of the join window that starts at `lo`: at most
/// [`MAX_WINDOW`] vertices, adding vertices while the window's `pairs`
/// bound stays within `budget` (a first vertex always fits). The bounds
/// come from the round-start samples, so the windows are the same for
/// every thread count.
fn join_window(lo: usize, n: usize, budget: usize, pairs: impl Fn(usize) -> usize) -> usize {
    let (mut hi, mut total) = (lo, 0usize);
    while hi < n && hi - lo < MAX_WINDOW {
        total = total.saturating_add(pairs(hi));
        if hi > lo && total > budget {
            break;
        }
        hi += 1;
    }
    hi
}

/// [`build_knn_graph_nn_descent_threads`] with windows of at most
/// `window_pairs` join pairs.
fn nn_descent(
    base: &VectorStore,
    metric: Metric,
    params: NnDescentParams,
    threads: usize,
    window_pairs: usize,
) -> FixedDegreeGraph {
    let n = base.len();
    let k = params.k;
    assert!(k > 0, "k must be positive");
    assert!(k < n, "k={k} must be < n={n}");
    let threads = threads.max(1);

    let mut lists = random_lists(base, metric, k, params.seed);
    let per_owner = n.div_ceil(threads);
    let owners = n.div_ceil(per_owner);
    let mut chunks: Vec<ChunkOffers> = (0..CHUNKS.min(n))
        .map(|_| ChunkOffers { runs: vec![Vec::new(); owners], ..Default::default() })
        .collect();
    let (mut new_fwd, mut old_fwd, mut new_rev, mut old_rev) =
        (Rows::default(), Rows::default(), Rows::default(), Rows::default());

    for round in 0..params.max_rounds {
        // Each round re-walks every vertex: reset the node counter,
        // report the round number as the batch.
        crate::progress::global().start_phase(crate::progress::BuildPhase::NnDescent, n as u64);
        crate::progress::global().set_batch(round as u64 + 1);
        lists.sample(&mut new_fwd, &mut old_fwd);
        // Reverse samples, capped like the reference algorithm.
        new_rev.reverse_of(&new_fwd, k);
        old_rev.reverse_of(&old_fwd, k);
        // A bound on vertex `v`'s join pairs: its new samples with each
        // other and with its old ones, before duplicates are dropped.
        let join_pairs = |v: usize| {
            let len = |rows: &Rows| rows.start[v + 1] - rows.start[v];
            let (new, old) = (len(&new_fwd) + len(&new_rev), len(&old_fwd) + len(&old_rev));
            new * new.saturating_sub(1) / 2 + new * old
        };
        let mut updates = 0usize;
        let mut lo = 0;
        while lo < n {
            let hi = join_window(lo, n, window_pairs, join_pairs);
            let chunk = (hi - lo).div_ceil(CHUNKS);
            let window = &mut chunks[..(hi - lo).div_ceil(chunk)];
            // Local join: for each vertex, compare (new × new) and
            // (new × old) pairs among its forward+reverse samples.
            let worst = &lists.worst;
            par_for_each_mut(window, threads, |c, out| {
                let vs = lo + c * chunk..(lo + (c + 1) * chunk).min(hi);
                crate::progress::global().node_done(vs.len() as u64);
                out.runs.iter_mut().for_each(Vec::clear);
                for v in vs {
                    out.join.clear();
                    push_samples(&mut out.join, new_fwd.row(v), new_rev.row(v));
                    let n_new = out.join.len();
                    push_samples(&mut out.join, old_fwd.row(v), old_rev.row(v));
                    // Each new sample against the later new ones and all
                    // old ones, scored in one call.
                    for i in 0..n_new {
                        let (a, partners) = (out.join[i], &out.join[i + 1..]);
                        metric.distance_rows(base.get(a as usize), base, partners, &mut out.dists);
                        let bound_a = worst[a as usize];
                        for (&b, &d) in partners.iter().zip(&out.dists) {
                            if a == b {
                                continue;
                            }
                            let d = DistValue(d);
                            if d < bound_a {
                                let to = a as usize / per_owner;
                                out.runs[to].push(Offer { to: a, from: b, d });
                            }
                            if d < worst[b as usize] {
                                let to = b as usize / per_owner;
                                out.runs[to].push(Offer { to: b, from: a, d });
                            }
                        }
                    }
                }
            });
            // Apply by owner (see the function docs); the caller's thread
            // applies the first run.
            let window = &*window;
            let apply = move |t: usize, mut owned: OwnedLists<'_>| {
                let first = (t * per_owner) as u32;
                let offers = window.iter().flat_map(|c| &c.runs[t]);
                offers.filter(|o| owned.insert((o.to - first) as usize, o.d, o.from)).count()
            };
            updates += std::thread::scope(|scope| {
                let mut runs = lists.owners(per_owner).enumerate();
                let (t, first) = runs.next().expect("n > 0");
                let rest: Vec<_> =
                    runs.map(|(t, owned)| scope.spawn(move || apply(t, owned))).collect();
                let mine = apply(t, first);
                mine + rest
                    .into_iter()
                    .map(|h| h.join().expect("apply pass panicked"))
                    .sum::<usize>()
            });
            lo = hi;
        }
        if (updates as f64) < params.termination_frac * (n * k) as f64 {
            break;
        }
    }

    let mut graph = FixedDegreeGraph::new(n, k);
    for (v, row) in lists.ids.chunks(k).enumerate() {
        graph.set_row(v as u32, row);
    }
    graph
}

/// Fraction of exact k-NN edges present in `approx` (edge recall),
/// a standard quality measure for approximate k-NN graphs.
pub fn knn_graph_recall(exact: &FixedDegreeGraph, approx: &FixedDegreeGraph) -> f64 {
    assert_eq!(exact.len(), approx.len());
    let mut hit = 0usize;
    let mut total = 0usize;
    for v in 0..exact.len() as u32 {
        let approx_row: std::collections::HashSet<u32> = approx.neighbors(v).collect();
        for u in exact.neighbors(v) {
            total += 1;
            if approx_row.contains(&u) {
                hit += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        hit as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cagra::{CagraBuilder, CagraParams};
    use algas_vector::datasets::DatasetSpec;

    #[test]
    fn exact_knn_on_line() {
        let base = VectorStore::from_flat(1, (0..8).map(|i| i as f32).collect());
        let g = build_knn_graph_exact(&base, Metric::L2, 2);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1, 2]);
        let mid: Vec<u32> = g.neighbors(4).collect();
        assert!(mid.contains(&3) && mid.contains(&5));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn nn_descent_approaches_exact() {
        let ds = DatasetSpec::tiny(500, 12, Metric::L2, 77).generate();
        let exact = build_knn_graph_exact(&ds.base, Metric::L2, 8);
        let approx = build_knn_graph_nn_descent(
            &ds.base,
            Metric::L2,
            NnDescentParams { k: 8, max_rounds: 10, termination_frac: 0.001, seed: 5 },
        );
        assert!(approx.validate().is_ok());
        let r = knn_graph_recall(&exact, &approx);
        assert!(r > 0.85, "NN-descent edge recall too low: {r}");
    }

    #[test]
    fn builders_are_thread_count_invariant() {
        let ds = DatasetSpec::tiny(300, 8, Metric::L2, 21).generate();
        let exact1 = build_knn_graph_exact_threads(&ds.base, Metric::L2, 6, 1);
        let exact4 = build_knn_graph_exact_threads(&ds.base, Metric::L2, 6, 4);
        assert_eq!(exact1, exact4);
        let p = NnDescentParams { k: 6, ..Default::default() };
        let nd1 = build_knn_graph_nn_descent_threads(&ds.base, Metric::L2, p, 1);
        let nd4 = build_knn_graph_nn_descent_threads(&ds.base, Metric::L2, p, 4);
        assert_eq!(nd1, nd4);
    }

    #[test]
    fn nn_descent_is_deterministic() {
        let ds = DatasetSpec::tiny(200, 8, Metric::L2, 13).generate();
        let p = NnDescentParams { k: 6, ..Default::default() };
        let a = build_knn_graph_nn_descent(&ds.base, Metric::L2, p);
        let b = build_knn_graph_nn_descent(&ds.base, Metric::L2, p);
        assert_eq!(a, b);
    }

    #[test]
    fn neighbor_list_insert_semantics() {
        let mut lists = Lists::with_capacity(1, 3);
        lists.push(&[(DistValue(1.0), 2), (DistValue(2.0), 5), (DistValue(3.0), 1)]);
        lists.new.fill(false);
        let mut l = lists.owners(1).next().unwrap();
        assert!(l.insert(0, DistValue(2.0), 3)); // before the equal 2.0, evicts 3.0
        assert_eq!((&l.ids[..], &l.new[..]), (&[2, 3, 5][..], &[false, true, false][..]));
        assert_eq!(l.worst[0], DistValue(2.0));
        assert!(!l.insert(0, DistValue(5.0), 4)); // worse than worst
                                                  // The bound test runs first; neither rejection may touch the
                                                  // list.
        let full = (l.ids.to_vec(), l.dists.to_vec(), l.new.to_vec());
        assert!(!l.insert(0, DistValue(0.5), 3)); // duplicate, though better
        assert!(!l.insert(0, DistValue(2.0), 4)); // equal to the worst
        assert_eq!((l.ids.to_vec(), l.dists.to_vec(), l.new.to_vec()), full);
        assert!(l.insert(0, DistValue(0.5), 4)); // a new best
        assert_eq!(l.ids, [4, 2, 3]);
        assert_eq!(l.dists, [DistValue(0.5), DistValue(1.0), DistValue(2.0)]);
        assert_eq!(l.worst[0], DistValue(2.0));
    }

    #[test]
    fn reverse_rows_keep_vertex_order_up_to_the_cap() {
        let fwd = Rows { start: vec![0, 2, 3, 5, 6], ids: vec![1, 2, 2, 2, 0, 2] };
        let mut rev = Rows::default();
        rev.reverse_of(&fwd, 2);
        assert_eq!(rev.start, [0, 1, 2, 4, 4]);
        assert_eq!(rev.ids, [2, 0, 0, 1]);
    }

    /// 64-bit FNV-1a over a graph's shape and every slot of every row.
    fn graph_hash(g: &FixedDegreeGraph) -> u64 {
        let words = [g.len() as u32, g.degree() as u32]
            .into_iter()
            .chain((0..g.len() as u32).flat_map(|v| g.row(v).iter().copied()));
        words.flat_map(u32::to_le_bytes).fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV-1a of the packed graph section `g` encodes to.
    fn section_hash(g: &FixedDegreeGraph) -> u64 {
        let section = crate::binary::encode_graph(&crate::PackedGraph::pack(g));
        section.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn nn_descent_matches_the_recorded_graph() {
        // 3000 rows is above `CagraParams::exact_threshold`, so the CAGRA
        // build runs NN-descent too. Both constants were recorded before
        // the insert pass checked its bound first, prefiltered pairs and
        // split by owner, and are the same under the scalar and the
        // AVX2+FMA kernels. Three threads split the lists unevenly.
        let ds = DatasetSpec::tiny(3000, 24, Metric::L2, 3).generate();
        let knn = NnDescentParams { k: 32, ..Default::default() };
        let cagra = CagraBuilder::new(
            Metric::L2,
            CagraParams { graph_degree: 16, intermediate_degree: 32, ..Default::default() },
        );
        for threads in [1, 2, 3] {
            let g = build_knn_graph_nn_descent_threads(&ds.base, Metric::L2, knn, threads);
            assert_eq!(graph_hash(&g), 0xf307_1182_4bb5_c3c1, "k-NN graph, {threads} threads");
            let g = cagra.build_with_threads(&ds.base, threads);
            assert_eq!(graph_hash(&g), 0x79f1_ef4e_794c_0b10, "CAGRA graph, {threads} threads");
        }
    }

    #[test]
    fn nn_descent_matches_the_recorded_graph_over_three_windows() {
        // 5000 rows make three or more join windows in every round
        // (2048 + 2048 + 904 once the rounds thin out), so offers
        // filtered at a later window's bound are pinned too. The CAGRA
        // graph is optimized from the k-NN graph checked just before
        // it, which is what `build_with_threads` does. Both
        // constants were recorded before the join filtered at each
        // window's bound and emitted offers by owner.
        let ds = DatasetSpec::tiny(5000, 24, Metric::L2, 3).generate();
        let cagra = CagraBuilder::new(
            Metric::L2,
            CagraParams { graph_degree: 16, intermediate_degree: 32, ..Default::default() },
        );
        for threads in [1, 2, 3] {
            let knn = cagra.build_intermediate_threads(&ds.base, threads);
            assert_eq!(graph_hash(&knn), 0x3488_2ca3_6892_9c20, "k-NN graph, {threads} threads");
            let g = cagra.optimize_with_threads(&ds.base, &knn, threads);
            assert_eq!(graph_hash(&g), 0x8e78_2c3a_021b_2c1e, "CAGRA graph, {threads} threads");
        }
    }

    #[test]
    fn builds_match_the_recorded_graphs_at_dim_128() {
        // Dim 128 runs the float kernels' 32-float main loop, which the
        // dim-24 pins above never reach. The constants were recorded
        // with the AVX2+FMA kernels; a tier whose float bits differ
        // from AVX2's (scalar, NEON) builds other graphs, so only the
        // x86 tiers are held to them.
        if !["avx2+fma", "avx512"].contains(&algas_vector::simd::kernel_name()) {
            return;
        }
        let ds = DatasetSpec::tiny(2000, 128, Metric::L2, 11).generate();
        assert_eq!(crate::entry::medoid(&ds.base, Metric::L2), 687, "medoid");
        // The second constant of each pair is the hash of the graph's
        // packed section, recorded with the row-at-a-time encoder that
        // wrote format 6 from the `u32` rows before the index held its
        // graph packed: packing must not move a byte of any file.
        let exact = build_knn_graph_exact_threads(&ds.base, Metric::L2, 16, 2);
        assert_eq!(graph_hash(&exact), 0xd90c_f4f6_570c_11f2, "exact k-NN graph");
        assert_eq!(section_hash(&exact), 0x2aec_a8c9_ec51_f271, "exact k-NN section");
        let knn = NnDescentParams { k: 32, ..Default::default() };
        let cagra = CagraBuilder::new(
            Metric::L2,
            CagraParams { graph_degree: 16, intermediate_degree: 32, ..Default::default() },
        );
        for threads in [1, 3] {
            let g = build_knn_graph_nn_descent_threads(&ds.base, Metric::L2, knn, threads);
            assert_eq!(graph_hash(&g), 0x9f49_3ff6_5afc_41ec, "k-NN graph, {threads} threads");
            assert_eq!(section_hash(&g), 0xd3ae_7a5d_cc3b_de84, "k-NN section, {threads} threads");
            let g = cagra.optimize_with_threads(&ds.base, &g, threads);
            assert_eq!(graph_hash(&g), 0xadc9_a35d_f662_8c2f, "CAGRA graph, {threads} threads");
            assert_eq!(section_hash(&g), 0x2488_bbd1_633f_688a, "CAGRA section, {threads} threads");
        }
    }

    /// The windows `join_window` cuts `0..n` into.
    fn windows(n: usize, budget: usize, pairs: impl Fn(usize) -> usize + Copy) -> Vec<usize> {
        let mut ends = vec![0];
        while ends[ends.len() - 1] < n {
            ends.push(join_window(ends[ends.len() - 1], n, budget, pairs));
        }
        ends
    }

    #[test]
    fn join_windows_stay_within_their_pair_budget() {
        // First-round density (2 016 pairs a vertex) for 1 024 vertices,
        // then a sparse later round: 260-vertex windows (the fourth has
        // room for 323 sparse vertices more), then 2 048-vertex ones.
        let pairs = |v: usize| if v < 1024 { 2016 } else { 100 };
        assert_eq!(windows(5000, WINDOW_PAIRS, pairs), [0, 260, 520, 780, 1347, 3395, 5000]);
        // A budget no vertex fits still takes one vertex a window.
        assert_eq!(windows(3, 0, pairs), [0, 1, 2, 3]);
    }

    #[test]
    fn window_sizes_do_not_change_the_graph() {
        // One vertex a window, 2 048-vertex windows, and the budget the
        // build uses: the same graph, at one thread and at three.
        let ds = DatasetSpec::tiny(2500, 16, Metric::L2, 9).generate();
        let p = NnDescentParams { k: 12, ..Default::default() };
        let built = build_knn_graph_nn_descent_threads(&ds.base, Metric::L2, p, 1);
        for threads in [1, 3] {
            for budget in [0, WINDOW_PAIRS, usize::MAX] {
                let g = nn_descent(&ds.base, Metric::L2, p, threads, budget);
                assert!(g == built, "{threads} threads, {budget} pairs a window");
            }
        }
    }

    #[test]
    fn knn_recall_of_identical_graph_is_one() {
        let base = VectorStore::from_flat(1, (0..16).map(|i| i as f32).collect());
        let g = build_knn_graph_exact(&base, Metric::L2, 3);
        assert_eq!(knn_graph_recall(&g, &g), 1.0);
    }

    #[test]
    #[should_panic(expected = "must be <")]
    fn k_too_large_rejected() {
        let base = VectorStore::from_flat(1, vec![0.0, 1.0]);
        build_knn_graph_exact(&base, Metric::L2, 2);
    }
}
