//! Compressed sparse row storage for undirected weighted graphs.
//!
//! Structure-of-arrays layout: `offsets[v]..offsets[v+1]` indexes into
//! parallel `targets`/`weights` arrays. Each undirected edge `{u, v}` is
//! stored twice (once per direction), the standard representation in both
//! Galois and GBBS. The structure is immutable after construction, which is
//! what lets the parallel algorithms read it without synchronization.

use crate::edge::Edge;
use crate::weight::{f64_to_ordered, EdgeKey, Weight};
use crate::VertexId;
use llp_runtime::{parallel_map_into, ParallelForConfig, ThreadPool};

/// Validates an edge's endpoints against the vertex count with a
/// descriptive panic — edge ordinal, endpoints, weight — instead of the
/// bare index-out-of-bounds the degree scatter would otherwise trip on
/// (and only in debug builds, at that).
#[inline]
fn check_endpoints(n: usize, i: usize, e: &Edge) {
    assert!(
        (e.u as usize) < n && (e.v as usize) < n,
        "edge {i} ({} -- {}, w={}) has an endpoint out of range for a graph on {n} vertices",
        e.u,
        e.v,
        e.w
    );
}

/// An immutable undirected weighted graph in CSR form.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrGraph {
    n: usize,
    /// `n + 1` offsets into `targets`/`weights`.
    offsets: Vec<u64>,
    /// Neighbor vertex ids, grouped by source.
    targets: Vec<VertexId>,
    /// Weights parallel to `targets`.
    weights: Vec<Weight>,
}

impl CsrGraph {
    /// Builds a CSR graph from a clean undirected edge list.
    ///
    /// Requirements (checked in debug builds): endpoints `< n`, no
    /// self-loops, no duplicate `{u, v}` pairs. Use [`crate::GraphBuilder`]
    /// to sanitise arbitrary input first.
    ///
    /// ```
    /// use llp_graph::{CsrGraph, Edge};
    ///
    /// let g = CsrGraph::from_edges(3, &[Edge::new(0, 1, 2.5), Edge::new(1, 2, 1.5)]);
    /// assert_eq!(g.num_edges(), 2);
    /// assert_eq!(g.degree(1), 2);
    /// assert_eq!(g.min_edge(1).unwrap().weight(), 1.5);
    /// ```
    pub fn from_edges(n: usize, edges: &[Edge]) -> Self {
        debug_assert!(edges.iter().all(|e| !e.is_self_loop()), "self-loop");

        // Counting sort by source vertex over both directions. Endpoint
        // validation happens here, in release builds too: an id >= n must
        // fail with a descriptive error, not an out-of-bounds scatter.
        let mut degree = vec![0u64; n + 1];
        for (i, e) in edges.iter().enumerate() {
            check_endpoints(n, i, e);
            degree[e.u as usize + 1] += 1;
            degree[e.v as usize + 1] += 1;
        }
        for i in 1..=n {
            degree[i] += degree[i - 1];
        }
        let offsets = degree;
        let m2 = offsets[n] as usize;
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut targets = vec![0 as VertexId; m2];
        let mut weights = vec![0.0 as Weight; m2];
        for e in edges {
            let cu = cursor[e.u as usize] as usize;
            targets[cu] = e.v;
            weights[cu] = e.w;
            cursor[e.u as usize] += 1;
            let cv = cursor[e.v as usize] as usize;
            targets[cv] = e.u;
            weights[cv] = e.w;
            cursor[e.v as usize] += 1;
        }

        CsrGraph {
            n,
            offsets,
            targets,
            weights,
        }
    }

    /// An empty graph on `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        CsrGraph {
            n,
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Number of directed arcs stored (`2 * num_edges`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// The arc-index range of `v` in the CSR arc arrays. Arc indices are
    /// stable identifiers used by the parallel algorithms as compact
    /// edge-instance handles (an undirected edge has two arcs).
    #[inline]
    pub fn arc_range(&self, v: VertexId) -> (usize, usize) {
        (
            self.offsets[v as usize] as usize,
            self.offsets[v as usize + 1] as usize,
        )
    }

    /// Target and weight of arc `a`.
    #[inline]
    pub fn arc(&self, a: usize) -> (VertexId, Weight) {
        (self.targets[a], self.weights[a])
    }

    /// Neighbor ids and weights of `v` as parallel slices.
    #[inline]
    pub fn neighbor_slices(&self, v: VertexId) -> (&[VertexId], &[Weight]) {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// Iterates over `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let (t, w) = self.neighbor_slices(v);
        t.iter().copied().zip(w.iter().copied())
    }

    /// The arc index of `v`'s minimum-weight edge under the canonical
    /// order, or `None` when `v` has no arc to another vertex.
    ///
    /// The one MWE scan of the workspace: it backs [`CsrGraph::min_edge`],
    /// [`CsrGraph::compute_mwe`] (LLP-Prim) and LLP-Borůvka's first round.
    /// Among one vertex's arcs, [`EdgeKey`] order equals
    /// `(f64_to_ordered(w), neighbour)` order, so the scan compares that
    /// pair and builds no keys. Verbatim-duplicate arcs tie; the first
    /// wins. Self-loop arcs are skipped.
    #[inline]
    pub fn min_arc(&self, v: VertexId) -> Option<usize> {
        let lo = self.offsets[v as usize] as usize;
        let (targets, weights) = self.neighbor_slices(v);
        // Every non-NaN weight encodes below `u64::MAX`, so any real arc
        // beats the sentinel.
        let mut best_key = (u64::MAX, 0);
        let mut best = None;
        for (i, (&to, &w)) in targets.iter().zip(weights).enumerate() {
            let key = (f64_to_ordered(w), to);
            if to != v && key < best_key {
                best_key = key;
                best = Some(lo + i);
            }
        }
        best
    }

    /// The minimum-weight edge adjacent to `v` under the canonical order,
    /// or `None` for isolated vertices.
    #[inline]
    pub fn min_edge(&self, v: VertexId) -> Option<EdgeKey> {
        self.min_arc(v)
            .map(|a| EdgeKey::new(self.weights[a], v, self.targets[a]))
    }

    /// Computes every vertex's minimum-weight edge in parallel.
    ///
    /// Isolated vertices get [`EdgeKey::infinite`]. This is the
    /// precomputation LLP-Prim's early-fixing rule relies on ("every vertex
    /// can determine this information in parallel").
    pub fn compute_mwe(&self, pool: &ThreadPool) -> Vec<EdgeKey> {
        let (cfg, mut mwe) = (ParallelForConfig::with_grain(512), Vec::new());
        parallel_map_into(pool, self.n, cfg, &mut mwe, |v| {
            self.min_edge(v as VertexId)
                .unwrap_or_else(EdgeKey::infinite)
        });
        mwe
    }

    /// Iterates over each undirected edge exactly once (as stored from the
    /// lower endpoint).
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.n as VertexId).flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| Edge::new(u, v, w))
        })
    }

    /// Sum of all undirected edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges().map(|e| e.w).sum()
    }

    /// Average degree (`2m / n`), used by the Table I dataset summary.
    pub fn average_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.n as f64
        }
    }

    /// Consistency check used by tests: every arc has a reverse arc with the
    /// same weight, no self loops, offsets monotone.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.len() != self.n + 1 {
            return Err("offsets length mismatch".into());
        }
        if self.offsets[0] != 0 || *self.offsets.last().unwrap() as usize != self.targets.len() {
            return Err("offsets do not cover arc array".into());
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets not monotone".into());
        }
        if self.targets.len() != self.weights.len() {
            return Err("targets/weights length mismatch".into());
        }
        for u in 0..self.n as VertexId {
            for (v, w) in self.neighbors(u) {
                if v as usize >= self.n {
                    return Err(format!("arc {u}->{v} out of range"));
                }
                if v == u {
                    return Err(format!("self loop at {u}"));
                }
                if !self.neighbors(v).any(|(x, wx)| x == u && wx == w) {
                    return Err(format!("arc {u}->{v} has no symmetric twin"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::samples::fig1;

    #[test]
    fn fig1_shape() {
        let g = fig1();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 7);
        assert_eq!(g.num_arcs(), 14);
        g.validate().unwrap();
    }

    #[test]
    fn degrees_match_fig1_choice_table() {
        let g = fig1();
        assert_eq!(g.degree(1), 3); // b: 3 5 7
        assert_eq!(g.degree(2), 4); // c: 3 4 9 11
        assert_eq!(g.degree(3), 3); // d: 2 7 9
        assert_eq!(g.degree(4), 2); // e: 2 11
    }

    #[test]
    fn min_edges_match_paper_initial_vector() {
        let g = fig1();
        // paper: G[b]=3, G[c]=3, G[d]=2, G[e]=2
        assert_eq!(g.min_edge(1).unwrap().weight(), 3.0);
        assert_eq!(g.min_edge(2).unwrap().weight(), 3.0);
        assert_eq!(g.min_edge(3).unwrap().weight(), 2.0);
        assert_eq!(g.min_edge(4).unwrap().weight(), 2.0);
        assert_eq!(g.min_edge(0).unwrap().weight(), 4.0);
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = fig1();
        let es: Vec<Edge> = g.edges().collect();
        assert_eq!(es.len(), 7);
        let mut ws: Vec<f64> = es.iter().map(|e| e.w).collect();
        ws.sort_by(f64::total_cmp);
        assert_eq!(ws, vec![2.0, 3.0, 4.0, 5.0, 7.0, 9.0, 11.0]);
    }

    #[test]
    fn total_weight_sums_undirected_edges() {
        assert_eq!(fig1().total_weight(), 41.0);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(4);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.min_edge(0), None);
        g.validate().unwrap();
    }

    #[test]
    fn isolated_vertices_get_infinite_mwe() {
        let g = CsrGraph::from_edges(4, &[Edge::new(0, 1, 1.0)]);
        let pool = ThreadPool::new(1);
        let mwe = g.compute_mwe(&pool);
        assert_eq!(mwe[0], EdgeKey::new(1.0, 0, 1));
        assert_eq!(mwe[1], EdgeKey::new(1.0, 0, 1));
        assert_eq!(mwe[2], EdgeKey::infinite());
        assert_eq!(mwe[3], EdgeKey::infinite());
    }

    #[test]
    fn compute_mwe_parallel_matches_sequential() {
        let g = fig1();
        let p1 = ThreadPool::new(1);
        let p4 = ThreadPool::new(4);
        assert_eq!(g.compute_mwe(&p1), g.compute_mwe(&p4));
    }

    #[test]
    fn average_degree() {
        let g = fig1();
        assert!((g.average_degree() - 14.0 / 5.0).abs() < 1e-12);
        assert_eq!(CsrGraph::empty(0).average_degree(), 0.0);
    }

    // Adversarial ingestion: ids >= n must fail with a descriptive error
    // in release builds, not an out-of-bounds scatter (companion to the
    // `io::binary` reader tests, which cover the on-disk path).

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_out_of_range_endpoint() {
        let _ = CsrGraph::from_edges(3, &[Edge::new(0, 1, 1.0), Edge::new(2, 7, 2.0)]);
    }

    #[test]
    fn from_edges_error_names_the_offending_edge() {
        let err = std::panic::catch_unwind(|| {
            CsrGraph::from_edges(3, &[Edge::new(0, 1, 1.0), Edge::new(2, 7, 2.5)])
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("edge 1"), "missing ordinal: {msg}");
        assert!(msg.contains("2 -- 7"), "missing endpoints: {msg}");
        assert!(msg.contains("3 vertices"), "missing vertex count: {msg}");
    }
}
