//! MST / MSF results and errors.

use crate::stats::AlgoStats;
use llp_graph::{CsrGraph, Edge, EdgeKey, VertexId};

/// Outcome of an MST/MSF computation.
#[derive(Debug, Clone, PartialEq)]
pub struct MstResult {
    /// The chosen tree/forest edges (orientation unspecified).
    pub edges: Vec<Edge>,
    /// Sum of the chosen edge weights.
    pub total_weight: f64,
    /// Number of trees in the forest (`1` for a spanning tree).
    pub num_trees: usize,
    /// Work metrics of the run.
    pub stats: AlgoStats,
}

impl MstResult {
    /// Assembles a result from chosen edges.
    ///
    /// Panics (with the edge/vertex counts) when `edges` holds more than
    /// `num_vertices − 1` edges — a forest cannot, so the caller handed in
    /// something that is not a forest. Callers that can transiently
    /// over-supply edges (e.g. batched dynamic updates) should use
    /// [`MstResult::try_from_edges`] and surface the error instead.
    pub fn from_edges(num_vertices: usize, edges: Vec<Edge>, stats: AlgoStats) -> Self {
        match Self::try_from_edges(num_vertices, edges, stats) {
            Ok(r) => r,
            Err(ForestOverflow { edges, vertices }) => panic!(
                "MstResult::from_edges: {edges} edges cannot form a forest \
                 over {vertices} vertices (at most {} are possible)",
                vertices.saturating_sub(1)
            ),
        }
    }

    /// [`MstResult::from_edges`] with the `num_trees = n − |edges|`
    /// subtraction checked: more edges than a forest over `num_vertices`
    /// can hold is an error, not an underflowing panic.
    pub fn try_from_edges(
        num_vertices: usize,
        edges: Vec<Edge>,
        stats: AlgoStats,
    ) -> Result<Self, ForestOverflow> {
        let Some(num_trees) = num_vertices.checked_sub(edges.len()) else {
            return Err(ForestOverflow {
                edges: edges.len(),
                vertices: num_vertices,
            });
        };
        let total_weight = edges.iter().map(|e| e.w).sum();
        Ok(MstResult {
            edges,
            total_weight,
            num_trees,
            stats,
        })
    }

    /// Canonical sorted edge keys, for exact cross-algorithm comparison.
    pub fn canonical_keys(&self) -> Vec<EdgeKey> {
        let mut keys: Vec<EdgeKey> = self.edges.iter().map(Edge::key).collect();
        keys.sort_unstable();
        keys
    }

    /// True when this result spans a single tree over `n` vertices.
    pub fn is_spanning_tree(&self, n: usize) -> bool {
        n > 0 && self.edges.len() == n - 1
    }
}

/// A claimed forest with more edges than vertices — the
/// `num_trees = n − |edges|` bookkeeping cannot be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestOverflow {
    /// Edges supplied.
    pub edges: usize,
    /// Vertices of the claimed forest.
    pub vertices: usize,
}

impl std::fmt::Display for ForestOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} edges cannot form a forest over {} vertices",
            self.edges, self.vertices
        )
    }
}

impl std::error::Error for ForestOverflow {}

/// Errors from tree-only algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MstError {
    /// The input graph is not connected; no spanning tree exists. Prim-type
    /// algorithms require connectivity (the paper: "LLP-Prim considers a
    /// spanning tree, i.e. assumes the graph is fully connected"); use the
    /// Boruvka family for forests.
    Disconnected {
        /// Vertices reached from the root before exhaustion.
        reached: usize,
        /// Total vertices.
        total: usize,
    },
    /// The requested root vertex does not exist.
    InvalidRoot {
        /// The offending root.
        root: u32,
        /// Total vertices.
        total: usize,
    },
    /// The graph has no vertices.
    EmptyGraph,
}

impl std::fmt::Display for MstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MstError::Disconnected { reached, total } => write!(
                f,
                "graph is disconnected: reached {reached} of {total} vertices \
                 (use a Boruvka-family algorithm for spanning forests)"
            ),
            MstError::InvalidRoot { root, total } => {
                write!(f, "root {root} out of range (graph has {total} vertices)")
            }
            MstError::EmptyGraph => write!(f, "graph has no vertices"),
        }
    }
}

impl std::error::Error for MstError {}

/// Rejects an empty graph or an out-of-range root before a Prim-family run.
pub(crate) fn check_root(graph: &CsrGraph, root: VertexId) -> Result<(), MstError> {
    let n = graph.num_vertices();
    if n == 0 {
        return Err(MstError::EmptyGraph);
    }
    if root as usize >= n {
        return Err(MstError::InvalidRoot { root, total: n });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_computes_weight_and_trees() {
        let r = MstResult::from_edges(
            4,
            vec![Edge::new(0, 1, 1.5), Edge::new(1, 2, 2.5)],
            AlgoStats::default(),
        );
        assert_eq!(r.total_weight, 4.0);
        assert_eq!(r.num_trees, 2); // {0,1,2} and {3}
        assert!(!r.is_spanning_tree(4));
        assert!(r.is_spanning_tree(3));
    }

    #[test]
    fn canonical_keys_sorted_and_orientation_free() {
        let a = MstResult::from_edges(
            3,
            vec![Edge::new(1, 0, 2.0), Edge::new(2, 1, 1.0)],
            AlgoStats::default(),
        );
        let b = MstResult::from_edges(
            3,
            vec![Edge::new(1, 2, 1.0), Edge::new(0, 1, 2.0)],
            AlgoStats::default(),
        );
        assert_eq!(a.canonical_keys(), b.canonical_keys());
    }

    #[test]
    fn from_edges_overflow_is_a_descriptive_panic_and_try_is_an_error() {
        let too_many = vec![
            Edge::new(0, 1, 1.0),
            Edge::new(1, 2, 1.0),
            Edge::new(0, 2, 1.0),
        ];
        let err = MstResult::try_from_edges(2, too_many.clone(), AlgoStats::default())
            .unwrap_err();
        assert_eq!(
            err,
            ForestOverflow {
                edges: 3,
                vertices: 2
            }
        );
        assert!(err.to_string().contains("3 edges"));

        let panic = std::panic::catch_unwind(|| {
            MstResult::from_edges(2, too_many, AlgoStats::default())
        })
        .unwrap_err();
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("cannot form a forest"), "{msg}");
    }

    #[test]
    fn error_messages_render() {
        let e = MstError::Disconnected {
            reached: 3,
            total: 10,
        };
        assert!(e.to_string().contains("disconnected"));
        assert!(MstError::EmptyGraph.to_string().contains("no vertices"));
    }
}
