//! Kruskal's algorithm: sort by weight, grow a forest with union–find.
//!
//! Kruskal is the workspace's *reference oracle*: it is the simplest
//! correct MSF algorithm, so every other algorithm's output is validated
//! against it in tests and in `verify`.

use crate::result::MstResult;
use crate::stats::AlgoStats;
use crate::union_find::UnionFind;
use llp_graph::algo::connected_components;
use llp_graph::{CsrGraph, Edge};

/// Sequential Kruskal. Computes the canonical MSF (works on disconnected
/// graphs; the number of trees is `MstResult::num_trees`).
pub fn kruskal(graph: &CsrGraph) -> MstResult {
    let mut edges: Vec<Edge> = graph.edges().collect();
    edges.sort_unstable_by_key(Edge::key);
    scan(graph, edges)
}

fn scan(graph: &CsrGraph, sorted_edges: Vec<Edge>) -> MstResult {
    let n = graph.num_vertices();
    // The forest is complete after exactly `n - C` successful unions, where
    // `C` counts connected components: a BFS labelling is O(n + m) — far
    // below the O(m log m) sort that precedes this scan — and lets
    // disconnected inputs stop early too, instead of draining the whole
    // sorted tail hunting for an (n - 1)-th union that never comes.
    let msf_edges = n - connected_components(graph).num_components;
    let mut stats = AlgoStats::default();
    let mut uf = UnionFind::new(n);
    let mut chosen = Vec::with_capacity(msf_edges);
    for e in sorted_edges {
        if chosen.len() == msf_edges {
            break; // spanning forest complete
        }
        stats.edges_scanned += 1;
        if uf.union(e.u, e.v) {
            chosen.push(e);
        }
    }
    MstResult::from_edges(n, chosen, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_graph::samples::{fig1, small_forest, FIG1_MST_WEIGHT, SMALL_FOREST_MSF_WEIGHT};

    #[test]
    fn fig1_mst() {
        let mst = kruskal(&fig1());
        assert_eq!(mst.total_weight, FIG1_MST_WEIGHT);
        assert_eq!(mst.num_trees, 1);
        assert_eq!(mst.edges.len(), 4);
    }

    #[test]
    fn forest_handling() {
        let msf = kruskal(&small_forest());
        assert_eq!(msf.total_weight, SMALL_FOREST_MSF_WEIGHT);
        assert_eq!(msf.num_trees, 3); // triangle, edge, isolated vertex
    }

    #[test]
    fn agrees_with_prim_on_connected_graphs() {
        for seed in 0..5 {
            let g = llp_graph::generators::road_network(
                llp_graph::generators::RoadParams::usa_like(12, 12, seed),
            );
            let k = kruskal(&g);
            let p = crate::prim::prim_lazy(&g, 0).unwrap();
            assert_eq!(k.canonical_keys(), p.canonical_keys(), "seed {seed}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(kruskal(&CsrGraph::empty(0)).edges.len(), 0);
        let r = kruskal(&CsrGraph::empty(3));
        assert_eq!(r.num_trees, 3);
    }

    #[test]
    fn early_exit_skips_tail_edges() {
        // A path plus many heavy extra edges: the scan stops after n-1 unions.
        let mut b = llp_graph::GraphBuilder::new(50);
        for i in 1..50u32 {
            b.add_edge(i - 1, i, i as f64 * 0.001);
        }
        for i in 0..48u32 {
            b.add_edge(i, i + 2, 1000.0 + i as f64);
        }
        let g = b.build();
        let r = kruskal(&g);
        assert_eq!(r.edges.len(), 49);
        assert!(r.stats.edges_scanned < g.num_edges() as u64);
    }

    #[test]
    fn early_exit_on_disconnected_forests() {
        // Two path components plus heavy intra-component extras: the scan
        // stops after n - C unions instead of draining the sorted tail.
        let mut b = llp_graph::GraphBuilder::new(40);
        for i in 1..20u32 {
            b.add_edge(i - 1, i, i as f64 * 0.001);
        }
        for i in 21..40u32 {
            b.add_edge(i - 1, i, i as f64 * 0.001);
        }
        for i in 0..18u32 {
            b.add_edge(i, i + 2, 1000.0 + i as f64);
        }
        for i in 20..38u32 {
            b.add_edge(i, i + 2, 2000.0 + i as f64);
        }
        let g = b.build();
        let r = kruskal(&g);
        assert_eq!(r.num_trees, 2);
        assert_eq!(r.edges.len(), 38); // n - C = 40 - 2
        assert!(
            r.stats.edges_scanned < g.num_edges() as u64,
            "scanned {} of {} edges",
            r.stats.edges_scanned,
            g.num_edges()
        );
    }
}
