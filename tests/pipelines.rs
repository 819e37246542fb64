//! End-to-end pipelines across crates: generate → serialise → reload →
//! solve → verify, plus failure-injection checks on the public API.

use llp_mst_suite::graph::generators::{erdos_renyi, road_network, RoadParams};
use llp_mst_suite::graph::io::{read_binary, read_dimacs, write_binary, write_dimacs};
use llp_mst_suite::graph::{CsrGraph, Edge, GraphBuilder};
use llp_mst_suite::prelude::*;

#[test]
fn dimacs_round_trip_preserves_mst() {
    let g = road_network(RoadParams::usa_like(12, 12, 5));
    let mut buf = Vec::new();
    write_dimacs(&g, &mut buf).unwrap();
    let g2 = read_dimacs(std::io::BufReader::new(buf.as_slice())).unwrap();
    assert_eq!(
        kruskal(&g).canonical_keys(),
        kruskal(&g2).canonical_keys()
    );
}

#[test]
fn binary_round_trip_preserves_mst_exactly() {
    let g = erdos_renyi(200, 800, 3);
    let mut buf = Vec::new();
    write_binary(&g, &mut buf).unwrap();
    let g2 = read_binary(buf.as_slice()).unwrap();
    assert_eq!(g, g2);
    let pool = ThreadPool::new(2);
    assert_eq!(
        llp_boruvka(&g, &pool).canonical_keys(),
        llp_boruvka(&g2, &pool).canonical_keys()
    );
}

#[test]
fn generate_solve_verify_full_pipeline() {
    // The complete user journey: generate a workload, compute the MST with
    // the paper's algorithm, verify it three independent ways.
    let g = road_network(RoadParams::usa_like(25, 30, 11));
    let pool = ThreadPool::with_available_threads();
    let mst = llp_prim_par(&g, 0, &pool).expect("road networks are connected");
    let records: Vec<Edge> = g.edges().collect();
    reference_certify(g.num_vertices(), &records, &mst).unwrap();
    verify_msf(&g, &mst).unwrap();
    assert!(mst.is_spanning_tree(g.num_vertices()));
    assert_eq!(mst.num_trees, 1);
}

#[test]
fn disconnected_inputs_fail_gracefully_across_the_api() {
    let g = CsrGraph::from_edges(
        6,
        &[Edge::new(0, 1, 1.0), Edge::new(2, 3, 2.0), Edge::new(4, 5, 3.0)],
    );
    let pool = ThreadPool::new(2);
    // Prim family: typed error.
    assert!(matches!(
        prim_lazy(&g, 0),
        Err(MstError::Disconnected { reached: 2, total: 6 })
    ));
    assert!(matches!(llp_prim_seq(&g, 0), Err(MstError::Disconnected { .. })));
    assert!(matches!(
        llp_prim_par(&g, 0, &pool),
        Err(MstError::Disconnected { .. })
    ));
    // Boruvka family: forest result.
    let msf = llp_boruvka(&g, &pool);
    assert_eq!(msf.num_trees, 3);
    assert_eq!(msf.total_weight, 6.0);
    verify_msf(&g, &msf).unwrap();
}

#[test]
fn builder_sanitisation_feeds_algorithms_correctly() {
    // Multi-edges, self loops and reversed duplicates must all collapse
    // before the algorithms see the graph.
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 0, 1.0); // self loop: dropped
    b.add_edge(0, 1, 5.0);
    b.add_edge(1, 0, 2.0); // duplicate, keeps min
    b.add_edge(1, 2, 1.0);
    b.add_edge(2, 3, 1.0);
    b.add_edge(3, 2, 9.0); // duplicate, keeps min (1.0)
    let g = b.build();
    assert_eq!(g.num_edges(), 3);
    let mst = prim_lazy(&g, 0).unwrap();
    assert_eq!(mst.total_weight, 2.0 + 1.0 + 1.0);
}

#[test]
fn umbrella_prelude_quickstart_compiles_and_runs() {
    // The README quickstart, as a test.
    let graph = llp_mst_suite::graph::samples::fig1();
    let pool = ThreadPool::new(2);
    let mst = llp_prim_par(&graph, 0, &pool).expect("graph is connected");
    assert_eq!(mst.total_weight, 16.0);
}

#[test]
fn large_smoke_road_network() {
    // A larger end-to-end run (~62k vertices) exercising parallel paths.
    let g = road_network(RoadParams::usa_like(250, 250, 123));
    let pool = ThreadPool::with_available_threads();
    let a = llp_prim_par(&g, 0, &pool).unwrap();
    let b = llp_boruvka(&g, &pool);
    let c = boruvka_par(&g, &pool);
    assert_eq!(a.canonical_keys(), b.canonical_keys());
    assert_eq!(b.canonical_keys(), c.canonical_keys());
    assert!(a.is_spanning_tree(g.num_vertices()));
}

#[test]
fn stats_flow_through_the_public_api() {
    let g = road_network(RoadParams::usa_like(20, 20, 2));
    let pool = ThreadPool::new(2);
    let prim = prim_lazy(&g, 0).unwrap();
    let llp = llp_prim_seq(&g, 0).unwrap();
    let llb = llp_boruvka(&g, &pool);
    let bor = boruvka_par(&g, &pool);
    assert!(prim.stats.heap_ops() > 0);
    assert!(llp.stats.early_fixes > 0);
    assert!(llb.stats.pointer_jumps > 0);
    assert!(bor.stats.atomic_rmw > 0);
    assert!(llb.stats.atomic_rmw < bor.stats.atomic_rmw);
}
