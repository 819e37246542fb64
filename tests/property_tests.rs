//! Property-style tests over randomly generated graphs.
//!
//! Originally written against `proptest`; hermetic builds have no registry
//! access, so the same properties are exercised as deterministic seed sweeps
//! over the in-repo [`llp_runtime::rng::SmallRng`] — every case that runs in
//! CI is exactly reproducible from its seed.
//!
//! Core invariants:
//! * every algorithm's output equals the Kruskal oracle (canonical MSF);
//! * the MSF satisfies the cut property directly (no oracle);
//! * the MSF is invariant under edge insertion order;
//! * LLP-Prim's work never exceeds classic Prim's heap traffic;
//! * the MWE of every vertex is always a forest edge (the fact early
//!   fixing relies on).

use llp_mst_suite::graph::{CsrGraph, Edge, GraphBuilder};
use llp_mst_suite::prelude::*;
use llp_runtime::rng::SmallRng;

const CASES: u64 = 64;

/// A random weighted graph with `2..max_n` vertices. Weights are drawn from
/// a tiny integer set to force duplicate raw weights, which stresses the
/// EdgeKey tie-breaking.
fn random_graph(rng: &mut SmallRng, max_n: usize, max_m: usize) -> CsrGraph {
    let n = rng.gen_range(2..max_n);
    let m = rng.gen_range(0..max_m);
    let mut b = GraphBuilder::new(n);
    for _ in 0..m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v {
            b.add_edge(u, v, rng.gen_range(1..6u32) as f64);
        }
    }
    b.build()
}

/// A guaranteed-connected graph (random graph + spanning path).
fn random_connected_graph(rng: &mut SmallRng, max_n: usize, max_m: usize) -> CsrGraph {
    let n = rng.gen_range(2..max_n);
    let m = rng.gen_range(0..max_m);
    let mut b = GraphBuilder::new(n);
    for i in 1..n as u32 {
        // spine guarantees connectivity; weights vary by index
        b.add_edge(i - 1, i, 10.0 + (i % 7) as f64);
    }
    for _ in 0..m {
        let u = rng.gen_range(0..n as u32);
        let v = rng.gen_range(0..n as u32);
        if u != v {
            b.add_edge(u, v, rng.gen_range(1..6u32) as f64);
        }
    }
    b.build()
}

#[test]
fn forest_algorithms_match_kruskal() {
    let pool = ThreadPool::new(2);
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, 40, 120);
        let oracle = kruskal(&g);
        assert_eq!(
            boruvka_seq(&g).canonical_keys(),
            oracle.canonical_keys(),
            "seed {seed}"
        );
        assert_eq!(
            boruvka_par(&g, &pool).canonical_keys(),
            oracle.canonical_keys(),
            "seed {seed}"
        );
        assert_eq!(
            llp_boruvka(&g, &pool).canonical_keys(),
            oracle.canonical_keys(),
            "seed {seed}"
        );
    }
}

#[test]
fn prim_family_matches_kruskal_on_connected() {
    let pool = ThreadPool::new(2);
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_connected_graph(&mut rng, 30, 90);
        let oracle = kruskal(&g);
        assert_eq!(
            prim_lazy(&g, 0).unwrap().canonical_keys(),
            oracle.canonical_keys(),
            "seed {seed}"
        );
        assert_eq!(
            prim_indexed(&g, 0).unwrap().canonical_keys(),
            oracle.canonical_keys(),
            "seed {seed}"
        );
        assert_eq!(
            llp_prim_seq(&g, 0).unwrap().canonical_keys(),
            oracle.canonical_keys(),
            "seed {seed}"
        );
        assert_eq!(
            llp_prim_par(&g, 0, &pool).unwrap().canonical_keys(),
            oracle.canonical_keys(),
            "seed {seed}"
        );
    }
}

#[test]
fn msf_satisfies_cut_and_cycle_properties() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, 20, 50);
        let msf = kruskal(&g);
        assert!(verify_cut_property(&g, &msf).is_ok(), "seed {seed}");
        assert!(verify_cycle_property(&g, &msf).is_ok(), "seed {seed}");
        assert!(verify_forest_structure(&g, &msf).is_ok(), "seed {seed}");
    }
}

#[test]
fn msf_invariant_under_edge_order() {
    let pool = ThreadPool::new(2);
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, 25, 60);
        // Rebuild the same graph with shuffled edge insertion order.
        let mut edges: Vec<Edge> = g.edges().collect();
        rng.shuffle(&mut edges);
        let mut b = GraphBuilder::new(g.num_vertices());
        b.extend(edges);
        let g2 = b.build();
        assert_eq!(
            kruskal(&g).canonical_keys(),
            kruskal(&g2).canonical_keys(),
            "seed {seed}"
        );
        assert_eq!(
            llp_boruvka(&g, &pool).canonical_keys(),
            llp_boruvka(&g2, &pool).canonical_keys(),
            "seed {seed}"
        );
    }
}

#[test]
fn llp_prim_never_does_more_heap_work() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_connected_graph(&mut rng, 40, 150);
        let prim = prim_lazy(&g, 0).unwrap();
        let llp = llp_prim_seq(&g, 0).unwrap();
        assert!(
            llp.stats.heap_ops() <= prim.stats.heap_ops(),
            "seed {seed}: llp {} > prim {}",
            llp.stats.heap_ops(),
            prim.stats.heap_ops()
        );
        // Accounting: every vertex except the root is fixed exactly once.
        assert_eq!(
            llp.stats.early_fixes + llp.stats.heap_fixes,
            (g.num_vertices() - 1) as u64,
            "seed {seed}"
        );
    }
}

#[test]
fn every_vertex_mwe_is_a_forest_edge() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, 25, 60);
        let msf_keys = kruskal(&g).canonical_keys();
        for v in 0..g.num_vertices() as u32 {
            if let Some(mwe) = g.min_edge(v) {
                assert!(
                    msf_keys.binary_search(&mwe).is_ok(),
                    "seed {seed}: mwe of {v} ({mwe:?}) not in MSF"
                );
            }
        }
    }
}

#[test]
fn msf_weight_is_minimal_among_random_spanning_structures() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_connected_graph(&mut rng, 15, 40);
        // Any spanning tree obtained from a random edge order (via union-
        // find) weighs at least the MSF.
        let mut edges: Vec<Edge> = g.edges().collect();
        rng.shuffle(&mut edges);
        let mut uf = llp_mst_suite::mst::union_find::UnionFind::new(g.num_vertices());
        let mut weight = 0.0;
        for e in &edges {
            if uf.union(e.u, e.v) {
                weight += e.w;
            }
        }
        let mst = kruskal(&g);
        assert!(mst.total_weight <= weight + 1e-9, "seed {seed}");
    }
}

#[test]
fn mst_equivariant_under_vertex_permutation() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_connected_graph(&mut rng, 25, 70);
        use llp_mst_suite::graph::transform::{permute_vertices, random_permutation};
        let n = g.num_vertices();
        let perm = random_permutation(n, seed);
        let pg = permute_vertices(&g, &perm);
        // With duplicate raw weights the canonical tie-breaking depends on
        // vertex ids, so only the *weight* is permutation-invariant…
        let w1 = kruskal(&g).total_weight;
        let w2 = kruskal(&pg).total_weight;
        assert!((w1 - w2).abs() < 1e-9, "seed {seed}: {w1} vs {w2}");

        // …but with distinct weights the edge set itself is equivariant.
        let mut b = GraphBuilder::new(n);
        for (i, e) in g.edges().enumerate() {
            b.add_edge(e.u, e.v, 1.0 + i as f64); // force distinct weights
        }
        let gd = b.build();
        let pgd = permute_vertices(&gd, &perm);
        let mut mapped: Vec<llp_mst_suite::graph::EdgeKey> = kruskal(&gd)
            .edges
            .iter()
            .map(|e| {
                llp_mst_suite::graph::EdgeKey::new(e.w, perm[e.u as usize], perm[e.v as usize])
            })
            .collect();
        mapped.sort_unstable();
        assert_eq!(mapped, kruskal(&pgd).canonical_keys(), "seed {seed}");
    }
}

#[test]
fn mst_invariant_under_monotone_weight_maps() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_connected_graph(&mut rng, 25, 70);
        use llp_mst_suite::graph::transform::map_weights;
        let doubled = map_weights(&g, |w| 2.0 * w + 1.0);
        let mut base: Vec<(u32, u32)> = kruskal(&g)
            .edges
            .iter()
            .map(|e| e.canonical_endpoints())
            .collect();
        let mut mapped: Vec<(u32, u32)> = kruskal(&doubled)
            .edges
            .iter()
            .map(|e| e.canonical_endpoints())
            .collect();
        base.sort_unstable();
        mapped.sort_unstable();
        assert_eq!(base, mapped, "seed {seed}");
    }
}

#[test]
fn rooted_forest_is_consistent() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, 25, 60);
        use llp_mst_suite::mst::tree::RootedForest;
        let msf = kruskal(&g);
        let f = RootedForest::new(g.num_vertices(), &msf, 0);
        assert_eq!(f.num_trees(), msf.num_trees, "seed {seed}");
        // Total of parent weights equals the forest weight.
        let sum: f64 = f.parent_weight.iter().sum();
        assert!((sum - msf.total_weight).abs() < 1e-9, "seed {seed}");
        // Depths are consistent with parents.
        for v in 0..g.num_vertices() as u32 {
            if !f.is_root(v) {
                assert_eq!(
                    f.depth[v as usize],
                    f.depth[f.parent[v as usize] as usize] + 1,
                    "seed {seed}"
                );
            }
        }
    }
}

#[test]
fn stats_are_internally_consistent() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_connected_graph(&mut rng, 30, 90);
        let r = llp_prim_seq(&g, 0).unwrap();
        // Heap pops never exceed pushes; every heap fix required a pop.
        assert!(r.stats.heap_pops <= r.stats.heap_pushes, "seed {seed}");
        assert!(
            r.stats.heap_fixes <= r.stats.heap_pops.max(r.stats.heap_fixes),
            "seed {seed}"
        );
        // Edge scans are bounded by the arc count.
        assert!(r.stats.edges_scanned <= g.num_arcs() as u64, "seed {seed}");
    }
}
