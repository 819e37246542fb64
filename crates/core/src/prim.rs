//! Classic Prim's algorithm (the paper's Algorithm 2).
//!
//! [`prim_lazy`] inserts duplicate entries and skips stale pops: the
//! variant of the §IV complexity analysis, the discipline used by the
//! Galois reference implementation, and the paper's "Prim" in Fig. 2.
//!
//! All comparisons go through [`EdgeKey`], so the computed tree is the
//! canonical unique-weight MST whatever the raw weight ties.

use crate::heap::LazyHeap;
use crate::result::{check_root, MstError, MstResult};
use crate::stats::AlgoStats;
use llp_graph::{CsrGraph, Edge, EdgeKey, VertexId};
use llp_runtime::telemetry;

/// Prim with a lazy (duplicate-entry) binary heap.
///
/// Returns the canonical MST rooted conceptually at `root`, or
/// [`MstError::Disconnected`] when the graph has more than one component.
pub fn prim_lazy(graph: &CsrGraph, root: VertexId) -> Result<MstResult, MstError> {
    check_root(graph, root)?;
    let n = graph.num_vertices();
    let mut stats = AlgoStats::default();
    let mut dist: Vec<EdgeKey> = vec![EdgeKey::infinite(); n];
    let mut fixed = vec![false; n];
    let mut edges: Vec<Edge> = Vec::with_capacity(n.saturating_sub(1));
    let mut heap: LazyHeap<EdgeKey> = LazyHeap::new();

    // Fix the root and relax its neighbourhood directly (it has no parent
    // edge, so it never goes through the heap).
    fixed[root as usize] = true;
    let mut fixed_count = 1usize;
    relax_neighbors(graph, root, &mut dist, &fixed, &mut heap, &mut stats);

    let _t = telemetry::span("heap-extract");
    while let Some((key, v)) = heap.pop() {
        if fixed[v as usize] {
            continue; // stale duplicate of an already-fixed vertex
        }
        debug_assert_eq!(key, dist[v as usize], "lazy pop must be fresh");
        fixed[v as usize] = true;
        fixed_count += 1;
        stats.heap_fixes += 1;
        edges.push(Edge::new(key.other(v), v, key.weight()));
        relax_neighbors(graph, v, &mut dist, &fixed, &mut heap, &mut stats);
    }

    stats.heap_pushes = heap.pushes;
    stats.heap_pops = heap.pops;
    if fixed_count < n {
        return Err(MstError::Disconnected {
            reached: fixed_count,
            total: n,
        });
    }
    Ok(MstResult::from_edges(n, edges, stats))
}

fn relax_neighbors(
    graph: &CsrGraph,
    v: VertexId,
    dist: &mut [EdgeKey],
    fixed: &[bool],
    heap: &mut LazyHeap<EdgeKey>,
    stats: &mut AlgoStats,
) {
    for (k, w) in graph.neighbors(v) {
        stats.edges_scanned += 1;
        if fixed[k as usize] {
            continue;
        }
        let key = EdgeKey::new(w, v, k);
        if key < dist[k as usize] {
            dist[k as usize] = key;
            heap.push(key, k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_graph::samples::{fig1, FIG1_MST_WEIGHT};

    #[test]
    fn fig1_mst_weight_and_edges() {
        let mst = prim_lazy(&fig1(), 0).unwrap();
        assert_eq!(mst.total_weight, FIG1_MST_WEIGHT);
        let mut ws: Vec<f64> = mst.edges.iter().map(|e| e.w).collect();
        ws.sort_by(f64::total_cmp);
        assert_eq!(ws, vec![2.0, 3.0, 4.0, 7.0]); // the paper's {2,3,4,7}
    }

    #[test]
    fn root_choice_does_not_change_edge_set() {
        let g = fig1();
        let base = prim_lazy(&g, 0).unwrap().canonical_keys();
        for root in 1..5 {
            assert_eq!(prim_lazy(&g, root).unwrap().canonical_keys(), base);
        }
    }

    #[test]
    fn disconnected_graph_reports_error() {
        let g = CsrGraph::from_edges(4, &[Edge::new(0, 1, 1.0), Edge::new(2, 3, 1.0)]);
        let err = prim_lazy(&g, 0).unwrap_err();
        assert_eq!(
            err,
            MstError::Disconnected {
                reached: 2,
                total: 4
            }
        );
    }

    #[test]
    fn single_vertex_graph() {
        let g = CsrGraph::empty(1);
        let mst = prim_lazy(&g, 0).unwrap();
        assert!(mst.edges.is_empty());
        assert_eq!(mst.total_weight, 0.0);
        assert!(mst.is_spanning_tree(1));
    }

    #[test]
    fn empty_graph_and_bad_root_rejected() {
        assert_eq!(prim_lazy(&CsrGraph::empty(0), 0), Err(MstError::EmptyGraph));
        assert_eq!(
            prim_lazy(&CsrGraph::empty(3), 5),
            Err(MstError::InvalidRoot { root: 5, total: 3 })
        );
    }

    #[test]
    fn equal_weights_resolve_canonically() {
        let g = llp_graph::samples::all_equal_weights(6);
        let mst = prim_lazy(&g, 3).unwrap();
        // Canonical MST under EdgeKey tie-breaking is the star on vertex 0.
        for e in &mst.edges {
            assert_eq!(e.canonical_endpoints().0, 0);
        }
        assert_eq!(mst.total_weight, 5.0);
    }
}
