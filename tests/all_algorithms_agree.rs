//! Cross-crate integration: every MST/MSF algorithm in the workspace must
//! return the identical canonical result on every input.

use llp_mst_suite::graph::generators::{
    barabasi_albert, caterpillar, complete, cycle, erdos_renyi, ladder, path,
    random_geometric, rmat, road_network, star, RmatParams, RoadParams,
};
use llp_mst_suite::graph::{CsrGraph, EdgeKey};
use llp_mst_suite::prelude::*;

/// Runs every forest-capable algorithm and asserts canonical agreement;
/// returns the canonical MSF keys.
fn assert_forest_algorithms_agree(g: &CsrGraph) -> Vec<EdgeKey> {
    let pool = ThreadPool::new(3);
    let oracle = kruskal(g);
    let candidates: Vec<(&str, MstResult)> = vec![
        ("filter_kruskal_par", filter_kruskal_par(g, &pool)),
        ("boruvka_par", boruvka_par(g, &pool)),
        ("llp_boruvka", llp_boruvka(g, &pool)),
    ];
    for (name, r) in &candidates {
        assert_eq!(
            r.canonical_keys(),
            oracle.canonical_keys(),
            "{name} disagrees with kruskal"
        );
        assert_eq!(r.num_trees, oracle.num_trees, "{name} tree count");
        verify_msf(g, r).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    oracle.canonical_keys()
}

/// Additionally runs the Prim family (requires a connected graph).
fn assert_all_algorithms_agree_connected(g: &CsrGraph) {
    let keys = assert_forest_algorithms_agree(g);
    let pool = ThreadPool::new(3);
    let candidates: Vec<(&str, MstResult)> = vec![
        ("prim_lazy", prim_lazy(g, 0).unwrap()),
        ("llp_prim_seq", llp_prim_seq(g, 0).unwrap()),
        ("llp_prim_par", llp_prim_par(g, 0, &pool).unwrap()),
    ];
    for (name, r) in &candidates {
        assert_eq!(r.canonical_keys(), keys, "{name} disagrees");
    }
}

#[test]
fn classic_topologies() {
    for seed in 0..3 {
        assert_all_algorithms_agree_connected(&path(50, seed));
        assert_all_algorithms_agree_connected(&cycle(50, seed));
        assert_all_algorithms_agree_connected(&star(50, seed));
        assert_all_algorithms_agree_connected(&complete(25, seed));
        assert_all_algorithms_agree_connected(&ladder(20, seed));
        assert_all_algorithms_agree_connected(&caterpillar(10, 4, seed));
    }
}

#[test]
fn road_networks() {
    for seed in 0..3 {
        let g = road_network(RoadParams::usa_like(18, 22, seed));
        assert_all_algorithms_agree_connected(&g);
    }
}

#[test]
fn barabasi_albert_graphs() {
    for seed in 0..3 {
        let g = barabasi_albert(300, 2, seed);
        assert_all_algorithms_agree_connected(&g);
    }
}

#[test]
fn rmat_graphs_as_forests() {
    for seed in 0..3 {
        let g = rmat(RmatParams::graph500(9, 8, seed));
        assert_forest_algorithms_agree(&g);
    }
}

#[test]
fn random_sparse_and_dense_forests() {
    for (n, m) in [(60, 40), (60, 120), (60, 600)] {
        for seed in 0..3 {
            let g = erdos_renyi(n, m, seed);
            assert_forest_algorithms_agree(&g);
        }
    }
}

#[test]
fn geometric_graphs() {
    for seed in 0..3 {
        let g = random_geometric(150, 0.12, seed);
        assert_forest_algorithms_agree(&g);
    }
}

#[test]
fn degenerate_graphs() {
    assert_forest_algorithms_agree(&CsrGraph::empty(0));
    assert_forest_algorithms_agree(&CsrGraph::empty(1));
    assert_forest_algorithms_agree(&CsrGraph::empty(10));
    assert_all_algorithms_agree_connected(&path(2, 0));
}

#[test]
fn duplicate_weight_graphs_are_canonical() {
    let g = llp_mst_suite::graph::samples::all_equal_weights(10);
    assert_all_algorithms_agree_connected(&g);
}

#[test]
fn thread_count_does_not_change_results() {
    let g = road_network(RoadParams::usa_like(15, 15, 9));
    let oracle = kruskal(&g).canonical_keys();
    for threads in [1, 2, 5, 8] {
        let pool = ThreadPool::new(threads);
        assert_eq!(
            llp_prim_par(&g, 0, &pool).unwrap().canonical_keys(),
            oracle,
            "llp_prim_par at {threads} threads"
        );
        assert_eq!(
            llp_boruvka(&g, &pool).canonical_keys(),
            oracle,
            "llp_boruvka at {threads} threads"
        );
        assert_eq!(
            boruvka_par(&g, &pool).canonical_keys(),
            oracle,
            "boruvka_par at {threads} threads"
        );
    }
}

#[test]
fn repeated_parallel_runs_are_deterministic() {
    let g = rmat(RmatParams::graph500(8, 8, 3));
    let pool = ThreadPool::new(4);
    let first = llp_boruvka(&g, &pool).canonical_keys();
    for _ in 0..10 {
        assert_eq!(llp_boruvka(&g, &pool).canonical_keys(), first);
        assert_eq!(boruvka_par(&g, &pool).canonical_keys(), first);
    }
}
