//! End-to-end checks of the paper's worked examples and stated claims.

use llp_mst_suite::graph::samples::{fig1, small_forest, FIG1_MST_WEIGHT};
use llp_mst_suite::llp::instances::PointerJump;
use llp_mst_suite::llp::{solve_parallel, solve_sequential};
use llp_mst_suite::mst::spec::LlpPrimSpec;
use llp_mst_suite::prelude::*;
use llp_mst_suite::runtime::ParallelForConfig;
use std::sync::atomic::AtomicU32;

/// §IV: "the edges are added to the tree in the order 4, 3, 7, 2" (Prim
/// from vertex a).
#[test]
fn prim_adds_fig1_edges_in_paper_order() {
    let g = fig1();
    let mst = prim_lazy(&g, 0).unwrap();
    let order: Vec<f64> = mst.edges.iter().map(|e| e.w).collect();
    assert_eq!(order, vec![4.0, 3.0, 7.0, 2.0]);
}

/// §IV: Boruvka's first round picks mwe 4, 3, 3, 2, 2 for a..e, i.e. the
/// distinct edges {4, 3, 2}; the second round adds 7. Fig. 2's
/// single-thread "Boruvka" is `boruvka_par` on one thread.
#[test]
fn boruvka_fig1_round_structure() {
    let g = fig1();
    for threads in [1, 2] {
        let pool = ThreadPool::new(threads);
        let mst = boruvka_par(&g, &pool);
        assert_eq!(mst.total_weight, FIG1_MST_WEIGHT);
        assert_eq!(mst.stats.rounds, 2, "{threads} threads");
        let order: Vec<f64> = mst.edges.iter().map(|e| e.w).collect();
        assert_eq!(order, vec![4.0, 3.0, 2.0, 7.0], "{threads} threads");
    }
}

/// §V.A: the lattice of proposal vectors has bottom (3,3,2,2) and
/// "in all there are 3 × 4 × 3 × 2 = 72 possible S vectors".
#[test]
fn fig1_lattice_dimensions_match_paper() {
    let g = fig1();
    // Non-root vertices b..e have degrees 3, 4, 3, 2: 72 vectors.
    let product: usize = (1..5u32).map(|v| g.degree(v)).product();
    assert_eq!(product, 72);
    let bottoms: Vec<f64> = (1..5u32)
        .map(|v| g.min_edge(v).unwrap().weight())
        .collect();
    assert_eq!(bottoms, vec![3.0, 3.0, 2.0, 2.0]);
}

/// §V.A worked trace: LLP-Prim fixes c, b, e early; only d via the heap.
#[test]
fn llp_prim_fig1_early_fixes_match_trace() {
    let g = fig1();
    let mst = llp_prim_seq(&g, 0).unwrap();
    assert_eq!(mst.stats.early_fixes, 3);
    assert_eq!(mst.stats.heap_fixes, 1);
    assert_eq!(mst.total_weight, FIG1_MST_WEIGHT);
}

/// §VI worked trace: LLP-Boruvka resolves Fig. 1 in two rounds, adding
/// T = {4, 3, 2} then T = {7}.
#[test]
fn llp_boruvka_fig1_two_rounds() {
    let g = fig1();
    let pool = ThreadPool::new(2);
    let mst = llp_boruvka(&g, &pool);
    assert_eq!(mst.stats.rounds, 2);
    assert_eq!(mst.total_weight, FIG1_MST_WEIGHT);
}

/// §VI example state: after round-1 parent selection the paper reaches
/// G = {(a,b), (b,b), (c,b), (d,d), (e,d)} post pointer jumping — i.e.
/// roots {b, d}. We verify through the generic pointer-jump instance.
#[test]
fn fig1_round1_pointer_jump_roots() {
    // Round-1 parents from the paper: a->c, b->b, c->b, d->d, e->d.
    let mut g = vec![2, 1, 1, 3, 3];
    solve_sequential(&PointerJump, &mut g).unwrap();
    assert_eq!(g, vec![1, 1, 1, 3, 3]); // stars rooted at b and d
}

/// Lemma 4: the pointer-jumping predicate is lattice-linear, so the
/// in-place parallel engine, racing on the live vector, terminates with
/// the same answer as the sequential oracle.
#[test]
fn pointer_jump_parallel_equals_sequential_on_deep_trees() {
    let n = 500u32;
    let mut seq: Vec<u32> = (0..n).map(|v| v.saturating_sub(1)).collect();
    let par: Vec<AtomicU32> = seq.iter().map(|&p| AtomicU32::new(p)).collect();
    let (pool, cfg) = (ThreadPool::new(4), ParallelForConfig::with_grain(16));
    solve_sequential(&PointerJump, &mut seq).unwrap();
    let stats = solve_parallel(&PointerJump, &par, &pool, cfg);
    let par: Vec<u32> = par.into_iter().map(AtomicU32::into_inner).collect();
    assert_eq!(seq, par);
    assert!(stats.unwrap().rounds <= 2 + n.ilog2() as u64);
}

/// Algorithm 4 (the executable spec) and Algorithm 5 (the optimised
/// implementation) agree on the paper's example and random graphs.
#[test]
fn spec_and_implementation_agree() {
    let g = fig1();
    let spec = LlpPrimSpec::new(&g, 0).unwrap().solve().unwrap();
    let fast = llp_prim_seq(&g, 0).unwrap();
    assert_eq!(spec.canonical_keys(), fast.canonical_keys());
    assert_eq!(spec.total_weight, FIG1_MST_WEIGHT);
}

/// §V work counters on a 1-thread pool, where they are exact: LLP-Prim's
/// early fixes, scanned edges and atomic RMWs, and the atomic RMWs and
/// pointer jumps of the two Borůvka engines. More threads change the
/// Borůvka counts (racing proposals and jumps), so only 1 thread is pinned.
/// LLP-Borůvka's round 1 reads each vertex's MWE off the CSR with no
/// priority writes, so its `atomic_rmw` is the edge-centric count minus
/// `2m` (fig1: 20 − 14; road: 11950 − 5648), and the unchanged pointer
/// jumps show round 1 builds the same forest.
#[test]
fn section5_work_counters_are_exact_on_one_thread() {
    let pool = ThreadPool::new(1);
    let road = llp_mst_suite::graph::generators::road_network(
        llp_mst_suite::graph::generators::RoadParams::usa_like(40, 40, 3),
    );
    // (early_fixes, edges_scanned, atomic_rmw) of llp_prim_par,
    // atomic_rmw of boruvka_par, (atomic_rmw, pointer_jumps) of llp_boruvka.
    for (name, g, prim, boruvka, llp_boruvka_want) in [
        ("fig1", fig1(), (3, 14, 7), 24, (6, 1)),
        ("road 40x40", road, (1152, 5648, 2781), 15051, (6302, 696)),
    ] {
        let s = llp_prim_par(&g, 0, &pool).unwrap().stats;
        assert_eq!(
            (s.early_fixes, s.edges_scanned, s.atomic_rmw),
            prim,
            "{name}: llp_prim_par"
        );
        let s = boruvka_par(&g, &pool).stats;
        assert_eq!(s.atomic_rmw, boruvka, "{name}: boruvka_par");
        let s = llp_boruvka(&g, &pool).stats;
        assert_eq!(
            (s.atomic_rmw, s.pointer_jumps),
            llp_boruvka_want,
            "{name}: llp_boruvka"
        );
    }
}

/// Abstract claim of §I: "since each element of G can be tested for
/// forbidden independently this produces opportunities for parallelism" —
/// operationally, LLP-Prim must fix multiple vertices per heap extraction.
#[test]
fn llp_prim_fixes_many_vertices_per_heap_pop() {
    let g = llp_mst_suite::graph::generators::road_network(
        llp_mst_suite::graph::generators::RoadParams::usa_like(40, 40, 7),
    );
    let mst = llp_prim_seq(&g, 0).unwrap();
    let fixes_per_pop = mst.stats.early_fixes as f64 / mst.stats.heap_fixes.max(1) as f64;
    assert!(
        fixes_per_pop > 1.0,
        "early fixing should dominate: {fixes_per_pop:.2} early fixes per heap fix"
    );
}

/// Golden Filter-Kruskal trace on the paper's example graphs: with the
/// base case pinned to 2 edges, the recursion structure is fully
/// determined by the canonical `EdgeKey` order, so the counters are
/// identical at every thread count. Each trace is (canonical keys,
/// `edges_scanned`, `rounds`, `parallel_regions`): `rounds` counts
/// partition levels, `edges_scanned` the edges the filters inspect plus
/// the base-case sizes, and `parallel_regions` partitions + filters + base
/// cases.
#[test]
fn filter_kruskal_golden_trace_on_paper_graphs() {
    for threads in [1, 4] {
        let pool = ThreadPool::new(threads);
        let trace = |g: &llp_mst_suite::graph::CsrGraph| {
            let r = filter_kruskal_par_with_base_case(g, &pool, 2);
            let s = r.stats;
            (r.canonical_keys(), s.edges_scanned, s.rounds, s.parallel_regions)
        };
        // Fig. 1 (5 vertices, 7 edges, MST {2, 3, 4, 7}): three partition
        // rounds; the filters inspect 6 heavy edges (dropping 2) and three
        // base cases sort 5 edges.
        let g = fig1();
        let want = (kruskal(&g).canonical_keys(), 11, 3, 9);
        assert_eq!(trace(&g), want, "fig1, {threads} threads");
        // The disconnected forest sample (4 edges, 3 trees): one partition
        // round; the filter drops 1 of 2 heavy edges and two base cases
        // sort 3 edges.
        let g = small_forest();
        let want = (kruskal(&g).canonical_keys(), 5, 1, 4);
        assert_eq!(trace(&g), want, "small_forest, {threads} threads");
    }
}

/// §VII Fig. 2 headline, as a machine-independent assertion: LLP-Prim
/// performs strictly less heap work than Prim on both workload families.
#[test]
fn fig2_heap_work_reduction_holds_on_both_morphologies() {
    let road = llp_mst_suite::graph::generators::road_network(
        llp_mst_suite::graph::generators::RoadParams::usa_like(30, 30, 1),
    );
    let rmat = llp_mst_suite::graph::algo::largest_component(
        &llp_mst_suite::graph::generators::rmat(
            llp_mst_suite::graph::generators::RmatParams::graph500(10, 16, 1),
        ),
    );
    for g in [road, rmat] {
        let prim = prim_lazy(&g, 0).unwrap();
        let llp = llp_prim_seq(&g, 0).unwrap();
        assert!(llp.stats.heap_ops() < prim.stats.heap_ops());
    }
}
