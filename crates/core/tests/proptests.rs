//! Property-style tests for the MST crate's data structures: the lazy heap
//! against sorted order, concurrent against sequential union–find, and
//! Filter-Kruskal against the Kruskal oracle. Cases are deterministic seed sweeps over
//! [`llp_runtime::rng::SmallRng`] (hermetic builds cannot depend on
//! `proptest`).

use llp_mst::heap::LazyHeap;
use llp_mst::prelude::{filter_kruskal_par, filter_kruskal_par_with_base_case, kruskal};
use llp_mst::union_find::{ConcurrentUnionFind, UnionFind};
use llp_runtime::rng::SmallRng;
use llp_runtime::ThreadPool;

const CASES: u64 = 64;

#[test]
fn lazy_heap_pops_sorted() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = rng.gen_range(0usize..500);
        let entries: Vec<(u64, u32)> = (0..len)
            .map(|_| (rng.gen_range(0u64..1000), rng.gen_range(0u32..100)))
            .collect();
        let mut h: LazyHeap<u64> = LazyHeap::new();
        for &(k, v) in &entries {
            h.push(k, v);
        }
        let mut popped = Vec::new();
        while let Some((k, _)) = h.pop() {
            popped.push(k);
        }
        assert!(popped.windows(2).all(|w| w[0] <= w[1]), "seed {seed}");
        assert_eq!(popped.len(), entries.len(), "seed {seed}");
        assert_eq!(h.pushes, entries.len() as u64, "seed {seed}");
        assert_eq!(h.pops, entries.len() as u64, "seed {seed}");
    }
}

#[test]
fn union_find_implementations_agree() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..200);
        let len = rng.gen_range(0usize..400);
        let mut seq = UnionFind::new(n);
        let conc = ConcurrentUnionFind::new(n);
        for _ in 0..len {
            let a = rng.gen_range(0u32..n as u32);
            let b = rng.gen_range(0u32..n as u32);
            let s = seq.union(a, b);
            let c = conc.union(a, b);
            assert_eq!(s, c, "seed {seed}: union({a}, {b})");
        }
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                assert_eq!(seq.same(a, b), conc.same(a, b), "seed {seed}");
            }
        }
    }
}

#[test]
fn union_find_component_count_is_exact() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(1usize..100);
        let len = rng.gen_range(0usize..200);
        let mut uf = UnionFind::new(n);
        let mut merges = 0;
        for _ in 0..len {
            if uf.union(rng.gen_range(0u32..n as u32), rng.gen_range(0u32..n as u32)) {
                merges += 1;
            }
        }
        assert_eq!(uf.num_components(), n - merges, "seed {seed}");
    }
}

#[test]
fn filter_kruskal_family_matches_kruskal_oracle() {
    // Random multigraphs with tie-heavy integer weights (EdgeKey breaks the
    // ties) that are frequently disconnected forests; a tiny forced base
    // case drives deep partition/filter recursions even on small inputs.
    let pool = ThreadPool::new(4);
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(2usize..120);
        let m = rng.gen_range(0usize..500);
        let mut b = llp_graph::GraphBuilder::new(n);
        for _ in 0..m {
            let u = rng.gen_range(0u32..n as u32);
            let v = rng.gen_range(0u32..n as u32);
            if u != v {
                b.add_edge(u, v, rng.gen_range(1u32..6) as f64);
            }
        }
        let g = b.build();
        let oracle = kruskal(&g);
        let oracle_keys = oracle.canonical_keys();
        for (name, r) in [
            ("filter_kruskal_par", filter_kruskal_par(&g, &pool)),
            (
                "filter_kruskal_par(base=4)",
                filter_kruskal_par_with_base_case(&g, &pool, 4),
            ),
        ] {
            assert_eq!(r.canonical_keys(), oracle_keys, "{name}, seed {seed}");
            assert_eq!(r.num_trees, oracle.num_trees, "{name}, seed {seed}");
            assert_eq!(r.total_weight, oracle.total_weight, "{name}, seed {seed}");
        }
    }
}

#[test]
fn filter_kruskal_par_matches_kruskal_on_large_sparse_graphs() {
    // Edge counts above the runtime's parallel-partition threshold, so the
    // scan-based partition/filter/sample-sort paths actually run on the
    // pool; m = 3n leaves some instances disconnected.
    let pool = ThreadPool::new(4);
    for seed in 0..4u64 {
        let g = llp_graph::generators::erdos_renyi(3000, 9000, seed);
        let oracle = kruskal(&g);
        let fk = filter_kruskal_par(&g, &pool);
        assert_eq!(fk.canonical_keys(), oracle.canonical_keys(), "seed {seed}");
        assert_eq!(fk.num_trees, oracle.num_trees, "seed {seed}");
        let fk_small = filter_kruskal_par_with_base_case(&g, &pool, 512);
        assert_eq!(fk_small.canonical_keys(), oracle.canonical_keys(), "seed {seed}");
        assert!(fk_small.stats.rounds > 0, "seed {seed}: partitioning should trigger");
        assert!(fk_small.stats.parallel_regions > 0, "seed {seed}");
    }
}
