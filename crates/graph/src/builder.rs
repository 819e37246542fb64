//! Edge-list accumulation and sanitisation into CSR form.

use crate::csr::CsrGraph;
use crate::edge::Edge;
use crate::weight::Weight;
use crate::VertexId;

/// Accumulates edges, then sanitises and builds a [`CsrGraph`].
///
/// Sanitisation: self-loops are dropped; parallel (duplicate) edges are
/// collapsed keeping the minimum weight — both are no-ops for MST purposes
/// (a self-loop can never be a tree edge; of parallel edges only the
/// lightest can). The result is a simple graph, the precondition of
/// [`CsrGraph::from_edges`].
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Pre-sizes the internal edge buffer.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds the undirected edge `{u, v}` with weight `w`.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or `w` is NaN.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range for n={}",
            self.n
        );
        assert!(!w.is_nan(), "edge weights must not be NaN");
        self.edges.push(Edge::new(u, v, w));
    }

    /// Adds many edges at once.
    pub fn extend<I: IntoIterator<Item = Edge>>(&mut self, edges: I) {
        for e in edges {
            self.add_edge(e.u, e.v, e.w);
        }
    }

    /// Sanitises and builds the CSR graph, consuming the builder.
    pub fn build(self) -> CsrGraph {
        let Self { n, mut edges } = self;
        // Canonicalise orientation, drop self loops.
        edges.retain(|e| !e.is_self_loop());
        for e in edges.iter_mut() {
            if e.u > e.v {
                std::mem::swap(&mut e.u, &mut e.v);
            }
        }
        // Collapse duplicates keeping the minimum weight: sort by endpoint
        // pair then weight, keep the first of each pair-run.
        edges.sort_unstable_by(|a, b| {
            (a.u, a.v)
                .cmp(&(b.u, b.v))
                .then(a.w.total_cmp(&b.w))
        });
        edges.dedup_by(|next, first| next.u == first.u && next.v == first.v);
        CsrGraph::from_edges(n, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_graph() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn drops_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 1.0);
        b.add_edge(0, 1, 2.0);
        b.add_edge(1, 1, 3.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn collapses_parallel_edges_keeping_min() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 5.0);
        b.add_edge(1, 0, 2.0); // reversed orientation, same edge
        b.add_edge(0, 1, 9.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.min_edge(0).unwrap().weight(), 2.0);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        GraphBuilder::new(2).add_edge(0, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan_weight() {
        GraphBuilder::new(2).add_edge(0, 1, f64::NAN);
    }
}
