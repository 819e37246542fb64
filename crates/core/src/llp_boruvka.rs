//! LLP-Boruvka (the paper's Algorithm 6).
//!
//! Recursive Boruvka where each round is structured to need "little to no
//! synchronization between vertices":
//!
//! 1. **Per-vertex MWE + symmetry breaking** — every vertex `v` picks its
//!    minimum-weight edge `mwe(v) = (v, w)` and sets `G[v] := w`, except
//!    when the choice is mutual (`mwe(w) = (w, v)`) and `v < w`, in which
//!    case `G[v] := v` — making `v` the root and `G` a rooted forest. Each
//!    non-root's chosen edge joins the MSF.
//! 2. **LLP pointer jumping** — the rooted trees are flattened to rooted
//!    stars with the predicate `B ≡ ∀j : G[j] = G[G[j]]`
//!    (`forbidden(j) ≡ G[j] ≠ G[G[j]]`, `advance: G[j] := G[G[j]]`): the
//!    `llp_core` engine `solve_parallel` on `PointerJump`, with relaxed
//!    atomic loads/stores — no CAS, no locks (Lemma 3/4: every intermediate
//!    pointer is a valid ancestor, so racy readers only ever observe
//!    correct states).
//! 3. **Contraction** — roots are renumbered densely; edges with distinct
//!    root labels survive into the recursive instance, carrying their
//!    original edge identity so the final forest references input vertices.
//!
//! The per-round machinery is the flat-memory engine in
//! [`crate::contraction`], which the out-of-core [`crate::sharded`] solver
//! and the [`crate::dynamic`] rebuild share. Over a graph, round 1 is
//! vertex-centric, as step 1 reads: each vertex scans its own CSR
//! adjacency for its MWE, with no atomics and no m-sized edge list, and
//! only the edges that survive round 1 are copied into the engine (32 B
//! each). Later rounds, and every round of [`llp_boruvka_from_edges`], run
//! edge-centric over the contracted edge list. Compare with
//! [`crate::parallel_boruvka`], which synchronises through shared
//! per-component CAS cells and a concurrent union–find every round.

use crate::contraction::Contraction;
use crate::result::MstResult;
use crate::stats::AlgoStats;
use llp_graph::{CsrGraph, Edge};
use llp_runtime::{ParallelForConfig, ThreadPool};

/// LLP-Boruvka; computes the canonical MSF.
///
/// Round 1 runs straight off the CSR, vertex-centric as in step (a)
/// ([`Contraction::from_csr`]); the returned forest is bit-identical to
/// [`llp_boruvka_from_edges`] over `graph.edges()`, in edge order and
/// orientation.
pub fn llp_boruvka(graph: &CsrGraph, pool: &ThreadPool) -> MstResult {
    let mut stats = AlgoStats::default();
    let c = Contraction::from_csr(graph, pool, config(), &mut stats);
    drive(c, graph.num_vertices(), pool, stats)
}

/// LLP-Boruvka over a raw undirected edge list — the Boruvka family never
/// needs adjacency, so pipelines that already hold an edge list (e.g.
/// streaming loaders, contraction outputs) can skip CSR construction
/// entirely. Self-loops are ignored and parallel edges, verbatim
/// duplicates included, are allowed; endpoints must be `< n`.
pub fn llp_boruvka_from_edges(n: usize, edges: Vec<Edge>, pool: &ThreadPool) -> MstResult {
    assert!(
        edges.iter().all(|e| (e.u as usize) < n && (e.v as usize) < n),
        "edge endpoint out of range"
    );
    drive(
        Contraction::from_edge_list(n, edges),
        n,
        pool,
        AlgoStats::default(),
    )
}

fn config() -> ParallelForConfig {
    ParallelForConfig::with_grain(512)
}

fn drive(mut c: Contraction, n: usize, pool: &ThreadPool, mut stats: AlgoStats) -> MstResult {
    while !c.is_done() {
        c.round(pool, config(), &mut stats);
    }
    c.arena.report_telemetry();
    MstResult::from_edges(n, c.chosen, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal::kruskal;
    use llp_graph::samples::{fig1, small_forest, FIG1_MST_WEIGHT, SMALL_FOREST_MSF_WEIGHT};

    fn pools() -> Vec<ThreadPool> {
        vec![ThreadPool::new(1), ThreadPool::new(4)]
    }

    #[test]
    fn fig1_matches_paper_trace() {
        for pool in pools() {
            let mst = llp_boruvka(&fig1(), &pool);
            assert_eq!(mst.total_weight, FIG1_MST_WEIGHT);
            // Paper: first iteration chooses {4, 3, 2} (a,c), (b,c), (d,e);
            // second iteration chooses {7}; two rounds total.
            assert_eq!(mst.stats.rounds, 2);
            let mut ws: Vec<f64> = mst.edges.iter().map(|e| e.w).collect();
            ws.sort_by(f64::total_cmp);
            assert_eq!(ws, vec![2.0, 3.0, 4.0, 7.0]);
        }
    }

    #[test]
    fn forest_support() {
        for pool in pools() {
            let msf = llp_boruvka(&small_forest(), &pool);
            assert_eq!(msf.total_weight, SMALL_FOREST_MSF_WEIGHT);
            assert_eq!(msf.num_trees, 3);
        }
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for pool in pools() {
            for seed in 0..6 {
                let g = llp_graph::generators::erdos_renyi(250, 900, seed);
                assert_eq!(
                    llp_boruvka(&g, &pool).canonical_keys(),
                    kruskal(&g).canonical_keys(),
                    "seed {seed} threads {}",
                    pool.threads()
                );
            }
        }
    }

    #[test]
    fn road_and_rmat_graphs() {
        let pool = ThreadPool::new(4);
        let road = llp_graph::generators::road_network(
            llp_graph::generators::RoadParams::usa_like(25, 25, 3),
        );
        assert_eq!(
            llp_boruvka(&road, &pool).canonical_keys(),
            kruskal(&road).canonical_keys()
        );
        let rmat = llp_graph::generators::rmat(llp_graph::generators::RmatParams::graph500(
            9, 8, 4,
        ));
        assert_eq!(
            llp_boruvka(&rmat, &pool).canonical_keys(),
            kruskal(&rmat).canonical_keys()
        );
    }

    #[test]
    fn no_cas_in_pointer_jumping() {
        // LLP-Boruvka must do strictly less synchronization than the
        // baseline: no union-find, no per-component CAS beyond MWE writes.
        let g = llp_graph::generators::erdos_renyi(300, 2000, 2);
        let pool = ThreadPool::new(2);
        let llp = llp_boruvka(&g, &pool);
        let base = crate::parallel_boruvka::boruvka_par(&g, &pool);
        assert_eq!(llp.stats.cas_retries, 0);
        assert!(llp.stats.pointer_jumps > 0);
        assert_eq!(llp.canonical_keys(), base.canonical_keys());
    }

    /// The forest as exact bits: order, orientation and weight.
    fn edge_bits(r: &MstResult) -> Vec<(u32, u32, u64)> {
        r.edges.iter().map(|e| (e.u, e.v, e.w.to_bits())).collect()
    }

    /// `llp_boruvka(&g)`, whose round 1 runs off the CSR, against the
    /// edge-centric engine over `g.edges()`: bit-identical edges, the same
    /// rounds and scanned edges, and exactly `2m` fewer atomic RMWs (round
    /// 1 makes no priority writes). Pointer jumps race on more than one
    /// thread, so they are compared on the 1-thread pool.
    fn assert_csr_round_matches_edge_list(name: &str, g: &CsrGraph) {
        for pool in pools() {
            let t = pool.threads();
            let csr = llp_boruvka(g, &pool);
            let list = llp_boruvka_from_edges(g.num_vertices(), g.edges().collect(), &pool);
            assert_eq!(
                edge_bits(&csr),
                edge_bits(&list),
                "{name}, {t} threads: edges"
            );
            let (c, l) = (csr.stats, list.stats);
            assert_eq!(c.rounds, l.rounds, "{name}, {t} threads: rounds");
            assert_eq!(
                c.edges_scanned, l.edges_scanned,
                "{name}, {t} threads: edges_scanned"
            );
            assert_eq!(
                c.atomic_rmw + 2 * g.num_edges() as u64,
                l.atomic_rmw,
                "{name}, {t} threads: atomic_rmw"
            );
            if t == 1 {
                assert_eq!(c.pointer_jumps, l.pointer_jumps, "{name}: pointer_jumps");
            }
        }
    }

    #[test]
    fn edge_list_entry_matches_csr_entry() {
        let pool = ThreadPool::new(2);
        for seed in 0..4 {
            let g = llp_graph::generators::erdos_renyi(150, 500, seed);
            let edges: Vec<llp_graph::Edge> = g.edges().collect();
            let via_csr = llp_boruvka(&g, &pool);
            let via_edges = llp_boruvka_from_edges(g.num_vertices(), edges, &pool);
            assert_eq!(via_csr.edges, via_edges.edges, "seed {seed}");
        }
    }

    #[test]
    fn csr_round_matches_edge_list_on_paper_and_empty_graphs() {
        assert_csr_round_matches_edge_list("fig1", &fig1());
        assert_csr_round_matches_edge_list("no vertices", &CsrGraph::empty(0));
        assert_csr_round_matches_edge_list("3 isolated vertices", &CsrGraph::empty(3));
    }

    #[test]
    fn csr_round_matches_edge_list_on_all_equal_weights() {
        for n in [2, 5, 16, 40] {
            let g = llp_graph::samples::all_equal_weights(n);
            assert_csr_round_matches_edge_list(&format!("K{n}, all weights 1"), &g);
        }
    }

    #[test]
    fn csr_round_matches_edge_list_on_parallel_and_duplicate_edges() {
        // Parallel edges of different weights, and verbatim duplicates
        // (the same weight bits both ways), which tie in both endpoints'
        // scans and must still commit once.
        let g = CsrGraph::from_edges(
            6,
            &[
                Edge::new(0, 1, 2.0),
                Edge::new(1, 0, 1.0),
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 3.0),
                Edge::new(2, 1, 3.0),
                Edge::new(2, 3, 1.0),
                Edge::new(3, 2, 1.0),
                Edge::new(3, 4, 0.5),
                Edge::new(4, 3, 0.75),
                Edge::new(4, 5, 1.0),
                Edge::new(4, 5, 1.0),
                Edge::new(0, 5, 1.0),
            ],
        );
        assert_csr_round_matches_edge_list("hand-made multigraph", &g);
        // Seeded multigraphs: three weights, one edge in three duplicated.
        for seed in 0..16u64 {
            let mut rng = llp_runtime::rng::SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(2usize..60);
            let mut edges = Vec::new();
            for _ in 0..rng.gen_range(0usize..200) {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                if u == v {
                    continue;
                }
                let e = Edge::new(u, v, rng.gen_range(1u32..4) as f64);
                edges.push(e);
                if rng.gen_range(0u32..3) == 0 {
                    edges.push(e);
                }
            }
            let g = CsrGraph::from_edges(n, &edges);
            assert_csr_round_matches_edge_list(&format!("multigraph seed {seed}"), &g);
        }
    }

    #[test]
    fn csr_round_matches_edge_list_on_forests_with_isolated_vertices() {
        assert_csr_round_matches_edge_list("small forest", &small_forest());
        let g = CsrGraph::from_edges(
            10,
            &[
                Edge::new(2, 3, 1.0),
                Edge::new(5, 7, 2.0),
                Edge::new(7, 8, 2.0),
            ],
        );
        assert_csr_round_matches_edge_list("forest with isolated vertices", &g);
        let sparse = llp_graph::generators::erdos_renyi(3000, 1500, 9);
        assert_csr_round_matches_edge_list("sparse ER forest", &sparse);
    }

    #[test]
    fn csr_round_matches_edge_list_on_seeded_er_and_rmat() {
        // Over 4096 vertices, so the 4-thread pool runs the chunked
        // vertex-range emission, not its serial path.
        for seed in 0..3 {
            let er = llp_graph::generators::erdos_renyi(5000, 20_000, seed);
            assert_csr_round_matches_edge_list(&format!("ER seed {seed}"), &er);
            let rmat = llp_graph::generators::rmat(llp_graph::generators::RmatParams::graph500(
                13, 8, seed,
            ));
            assert_csr_round_matches_edge_list(&format!("RMAT seed {seed}"), &rmat);
        }
    }

    #[test]
    fn edge_list_entry_skips_self_loops() {
        let pool = ThreadPool::new(1);
        let edges = vec![
            llp_graph::Edge::new(0, 0, 1.0), // self loop: ignored
            llp_graph::Edge::new(0, 1, 2.0),
            llp_graph::Edge::new(1, 2, 3.0),
        ];
        let msf = llp_boruvka_from_edges(3, edges, &pool);
        assert_eq!(msf.total_weight, 5.0);
        assert_eq!(msf.num_trees, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_list_entry_rejects_bad_endpoints() {
        let pool = ThreadPool::new(1);
        let _ = llp_boruvka_from_edges(2, vec![llp_graph::Edge::new(0, 5, 1.0)], &pool);
    }

    #[test]
    fn empty_graph() {
        let pool = ThreadPool::new(2);
        let r = llp_boruvka(&CsrGraph::empty(3), &pool);
        assert!(r.edges.is_empty());
        assert_eq!(r.num_trees, 3);
        assert_eq!(r.stats.rounds, 0);
    }

    #[test]
    fn rounds_shrink_geometrically() {
        let g = llp_graph::generators::path(4096, 8);
        let pool = ThreadPool::new(2);
        let mst = llp_boruvka(&g, &pool);
        assert_eq!(mst.edges.len(), 4095);
        assert!(mst.stats.rounds <= 13, "rounds = {}", mst.stats.rounds);
    }
}
