//! Fixed out-degree CSR graph storage.

/// Sentinel id marking an unused neighbor slot.
///
/// Fixed-degree layouts must pad vertices that have fewer real neighbors;
/// the GPU kernels in the paper's lineage do the same (CAGRA pads to its
/// constant out-degree). `INVALID_ID` slots are skipped during expansion.
pub const INVALID_ID: u32 = u32::MAX;

/// A directed graph with a constant number of neighbor slots per vertex,
/// stored as one flat `Vec<u32>` — row `v` occupies
/// `[v * degree, (v+1) * degree)`.
///
/// This is the representation every search method in this workspace
/// consumes: neighbor expansion is a single contiguous read of `degree`
/// ids, which is what makes the layout GPU-friendly (one coalesced
/// global-memory segment) and what the simulator charges it as.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FixedDegreeGraph {
    n: usize,
    degree: usize,
    adj: Vec<u32>,
}

impl FixedDegreeGraph {
    /// Creates a graph with `n` vertices and `degree` slots per vertex,
    /// all initialized to [`INVALID_ID`].
    ///
    /// # Panics
    /// Panics if `degree == 0`.
    pub fn new(n: usize, degree: usize) -> Self {
        assert!(degree > 0, "out-degree must be positive");
        Self { n, degree, adj: vec![INVALID_ID; n * degree] }
    }

    /// Builds from a ragged adjacency list, padding/truncating each row
    /// to `degree`.
    ///
    /// # Panics
    /// Panics if any neighbor id is out of range or a row contains a
    /// self-loop (greedy search never benefits from self-edges and they
    /// waste a fixed slot).
    pub fn from_adjacency(n: usize, degree: usize, rows: &[Vec<u32>]) -> Self {
        assert_eq!(rows.len(), n, "adjacency row count must equal n");
        let mut g = Self::new(n, degree);
        for (v, row) in rows.iter().enumerate() {
            for (slot, &u) in row.iter().take(degree).enumerate() {
                assert!((u as usize) < n, "neighbor {u} out of range (n={n})");
                assert!(u as usize != v, "self-loop at vertex {v}");
                g.adj[v * degree + slot] = u;
            }
        }
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Fixed number of neighbor slots per vertex.
    #[inline]
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The raw (possibly padded) neighbor row of vertex `v`.
    #[inline]
    pub fn row(&self, v: u32) -> &[u32] {
        let start = v as usize * self.degree;
        &self.adj[start..start + self.degree]
    }

    /// The valid neighbors of `v` as a slice: its row up to the first
    /// padding slot. Rows are front-packed — every way of writing one
    /// ([`from_adjacency`](Self::from_adjacency),
    /// [`set_row`](Self::set_row), [`try_add_edge`](Self::try_add_edge),
    /// the decoder through `set_row`) pads at the tail, and
    /// [`validate`](Self::validate) checks it — so this holds what
    /// [`neighbors`](Self::neighbors) yields, in the same order, for a
    /// search step to walk without a per-id padding test.
    #[inline]
    pub fn valid_row(&self, v: u32) -> &[u32] {
        let row = self.row(v);
        let len = row.iter().position(|&u| u == INVALID_ID).unwrap_or(row.len());
        &row[..len]
    }

    /// Iterates the *valid* neighbors of `v` (padding skipped).
    #[inline]
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        self.row(v).iter().copied().filter(|&u| u != INVALID_ID)
    }

    /// Number of valid neighbors of `v`.
    pub fn valid_degree(&self, v: u32) -> usize {
        self.neighbors(v).count()
    }

    /// Hints the CPU to pull the adjacency row of `v` into cache ahead
    /// of expansion. Advisory only; never faults.
    #[inline]
    pub fn prefetch_row(&self, v: u32) {
        algas_vector::simd::prefetch_ids(self.row(v));
    }

    /// Overwrites the neighbor row of `v`, padding with [`INVALID_ID`].
    ///
    /// # Panics
    /// Panics if `ids.len() > degree`, an id is out of range, or an id
    /// equals `v`.
    pub fn set_row(&mut self, v: u32, ids: &[u32]) {
        assert!(ids.len() <= self.degree, "row longer than fixed degree");
        let start = v as usize * self.degree;
        for (slot, &u) in ids.iter().enumerate() {
            assert!((u as usize) < self.n, "neighbor {u} out of range");
            assert_ne!(u, v, "self-loop at vertex {v}");
            self.adj[start + slot] = u;
        }
        for slot in ids.len()..self.degree {
            self.adj[start + slot] = INVALID_ID;
        }
    }

    /// Tries to append `u` to `v`'s row; returns `false` when the row is
    /// full or already contains `u`.
    pub fn try_add_edge(&mut self, v: u32, u: u32) -> bool {
        assert!((u as usize) < self.n && (v as usize) < self.n);
        if u == v {
            return false;
        }
        let start = v as usize * self.degree;
        for slot in 0..self.degree {
            match self.adj[start + slot] {
                x if x == u => return false,
                INVALID_ID => {
                    self.adj[start + slot] = u;
                    return true;
                }
                _ => {}
            }
        }
        false
    }

    /// Byte size of the adjacency payload (used by memory accounting).
    pub fn nbytes(&self) -> usize {
        self.adj.len() * std::mem::size_of::<u32>()
    }

    /// Verifies structural invariants: ids in range, no self-loops, no
    /// duplicate neighbors within a row, and no valid id after a padding
    /// slot (rows must be front-packed). Returns the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for v in 0..self.n as u32 {
            let row = self.row(v);
            let mut seen_pad = false;
            let mut seen = std::collections::HashSet::with_capacity(self.degree);
            for &u in row {
                if u == INVALID_ID {
                    seen_pad = true;
                    continue;
                }
                if seen_pad {
                    return Err(format!("vertex {v}: valid id after padding"));
                }
                if u as usize >= self.n {
                    return Err(format!("vertex {v}: neighbor {u} out of range"));
                }
                if u == v {
                    return Err(format!("vertex {v}: self-loop"));
                }
                if !seen.insert(u) {
                    return Err(format!("vertex {v}: duplicate neighbor {u}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_is_all_padding() {
        let g = FixedDegreeGraph::new(3, 2);
        assert_eq!(g.len(), 3);
        assert_eq!(g.degree(), 2);
        assert_eq!(g.valid_degree(0), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn from_adjacency_pads_and_truncates() {
        let rows = vec![vec![1, 2, 3], vec![0], vec![], vec![0, 1]];
        let g = FixedDegreeGraph::from_adjacency(4, 2, &rows);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1, 2]); // truncated
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![0]); // padded
        assert_eq!(g.valid_degree(2), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_rejected() {
        FixedDegreeGraph::from_adjacency(2, 2, &[vec![0], vec![]]);
    }

    #[test]
    fn valid_row_is_the_neighbor_sequence_as_a_slice() {
        let mut g = FixedDegreeGraph::new(4, 3);
        g.set_row(0, &[1, 2, 3]);
        g.set_row(1, &[3]);
        assert!(g.try_add_edge(2, 0));
        for v in 0..4 {
            assert_eq!(g.valid_row(v), g.neighbors(v).collect::<Vec<_>>());
        }
        assert_eq!(g.valid_row(0).len(), 3);
        assert!(g.valid_row(3).is_empty());
    }

    #[test]
    fn set_row_replaces_and_pads() {
        let mut g = FixedDegreeGraph::new(4, 3);
        g.set_row(1, &[0, 2, 3]);
        g.set_row(1, &[3]);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![3]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn try_add_edge_semantics() {
        let mut g = FixedDegreeGraph::new(3, 2);
        assert!(g.try_add_edge(0, 1));
        assert!(!g.try_add_edge(0, 1)); // duplicate
        assert!(!g.try_add_edge(0, 0)); // self-loop
        assert!(g.try_add_edge(0, 2));
        assert!(!g.try_add_edge(0, 2)); // row full would also refuse dup
        let mut g2 = FixedDegreeGraph::new(4, 1);
        assert!(g2.try_add_edge(0, 1));
        assert!(!g2.try_add_edge(0, 2)); // full
    }

    #[test]
    fn validate_catches_corruption() {
        let mut g = FixedDegreeGraph::new(3, 2);
        g.set_row(0, &[1, 2]);
        // Corrupt via direct construction of a bad graph.
        let bad = FixedDegreeGraph { n: 2, degree: 2, adj: vec![1, 1, INVALID_ID, INVALID_ID] };
        assert!(bad.validate().is_err()); // duplicate neighbor
        let bad2 = FixedDegreeGraph { n: 2, degree: 2, adj: vec![INVALID_ID, 1, 0, INVALID_ID] };
        assert!(bad2.validate().is_err()); // valid id after padding
        assert!(g.validate().is_ok());
    }

    #[test]
    fn nbytes_counts_slots() {
        let g = FixedDegreeGraph::new(10, 4);
        assert_eq!(g.nbytes(), 10 * 4 * 4);
    }
}
