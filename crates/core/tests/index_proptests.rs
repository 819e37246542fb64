//! Property-style tests for [`llp_mst::index::PathMaxIndex`]: the O(1)
//! answers are compared against the naive tree-path walk of
//! [`llp_mst::verify::TreePaths`] on seeded random forests.
//! Cases are deterministic seed sweeps over
//! [`llp_runtime::rng::SmallRng`] (hermetic builds cannot depend on
//! `proptest`).
//!
//! The sweep deliberately covers the index's block machinery: vertex
//! counts straddling the 32-position block size (31/32/33/63/64/65 and
//! random non-multiples), long paths whose queries cross many block
//! boundaries, and multi-component forests where queries must answer
//! `None` across trees. The sentinel merge rank `t` (which decodes to the
//! infinite key) is pinned at its extremes: no tree edges at all, and one
//! spanning tree whose heaviest key is the last real rank, with `-0.0`
//! and negative weights.

use llp_graph::{CsrGraph, Edge};
use llp_mst::index::PathMaxIndex;
use llp_mst::prelude::{certify_msf, kruskal};
use llp_mst::result::MstResult;
use llp_mst::union_find::UnionFind;
use llp_mst::verify::TreePaths;
use llp_runtime::rng::SmallRng;
use llp_runtime::ThreadPool;

const CASES: u64 = 48;

/// A random forest over `n` vertices: each vertex after the first either
/// starts a new tree (probability `p_break`) or attaches to a uniformly
/// random earlier vertex with a uniform weight. A quarter of the weights
/// collide at 0.5 to exercise the endpoint tiebreak.
fn random_forest(rng: &mut SmallRng, n: usize, p_break: f64) -> Vec<Edge> {
    let mut edges = Vec::new();
    for v in 1..n as u32 {
        if rng.gen_bool(p_break) {
            continue; // v roots a new tree
        }
        let u = rng.gen_range(0..v);
        let w = if rng.gen_bool(0.25) {
            0.5 // deliberate tie: order falls to the endpoint pair
        } else {
            rng.gen::<f64>()
        };
        edges.push(Edge::new(u, v, w));
    }
    edges
}

fn build(n: usize, edges: Vec<Edge>) -> (PathMaxIndex, Vec<Edge>) {
    let result = MstResult::from_edges(n, edges, Default::default());
    let index = PathMaxIndex::build(n, &result).expect("forests must index");
    (index, result.edges)
}

#[test]
fn path_max_matches_naive_walk_on_random_forests() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Deliberately not a multiple of the 32-position block size most
        // of the time.
        let n = rng.gen_range(2usize..300);
        let (index, edges) = build(n, random_forest(&mut rng, n, 0.08));
        let paths = TreePaths::new(n, &edges);
        for _ in 0..64 {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            let want = paths.heaviest(u, v);
            let got = index.path_max(u, v);
            assert_eq!(
                got.map(|k| (k.lo(), k.hi())),
                want.map(|e| e.key()).map(|k| (k.lo(), k.hi())),
                "seed {seed}, n {n}, query ({u}, {v})"
            );
            // The decoded bottleneck is the same physical edge.
            let bottleneck = index.bottleneck(u, v);
            assert_eq!(
                bottleneck.map(|e| e.key()),
                want.map(|e| e.key()),
                "seed {seed}, n {n}, query ({u}, {v})"
            );
            if let (Some(b), Some(w)) = (bottleneck, want) {
                assert_eq!(b.w, w.w, "seed {seed}: decoded weight must survive");
            }
        }
    }
}

#[test]
fn block_boundary_sizes_and_straddling_queries() {
    // Path forests at sizes around the 32-position block boundary: the
    // chain layout makes every adjacent pair one separator apart, and
    // long-range queries cross many blocks.
    for &n in &[2usize, 31, 32, 33, 63, 64, 65, 95, 96, 97, 255, 256, 257] {
        let mut rng = SmallRng::seed_from_u64(n as u64);
        let edges: Vec<Edge> = (1..n as u32)
            .map(|v| Edge::new(v - 1, v, rng.gen::<f64>()))
            .collect();
        let (index, edges) = build(n, edges);
        let mut queries: Vec<(u32, u32)> = vec![(0, n as u32 - 1)];
        // Pairs hugging every block multiple that fits.
        for b in (32..n).step_by(32) {
            let b = b as u32;
            queries.push((b - 1, b));
            queries.push((b - 1, (b + 1).min(n as u32 - 1)));
            queries.push((0, b));
        }
        for _ in 0..32 {
            queries.push((rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)));
        }
        let paths = TreePaths::new(n, &edges);
        for (u, v) in queries {
            assert_eq!(
                index.path_max(u, v),
                paths.heaviest(u, v).map(|e| e.key()),
                "n {n}, query ({u}, {v})"
            );
        }
    }
}

#[test]
fn components_and_thresholds_match_union_find() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xc0ff_ee00);
        let n = rng.gen_range(1usize..250);
        let forest = random_forest(&mut rng, n, 0.15);
        let (index, edges) = build(n, forest);

        let mut uf = UnionFind::new(n);
        for e in &edges {
            uf.union(e.u, e.v);
        }
        assert_eq!(index.num_components(), uf.num_components(), "seed {seed}");

        // Threshold connectivity under three random λ values per case.
        for _ in 0..3 {
            let lambda = rng.gen::<f64>();
            let mut tf = UnionFind::new(n);
            for e in edges.iter().filter(|e| e.w <= lambda) {
                tf.union(e.u, e.v);
            }
            for _ in 0..48 {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                assert_eq!(
                    index.connected(u, v),
                    uf.find(u) == uf.find(v),
                    "seed {seed}, ({u}, {v})"
                );
                assert_eq!(
                    index.connected_under(u, v, lambda),
                    tf.find(u) == tf.find(v),
                    "seed {seed}, λ {lambda}, ({u}, {v})"
                );
            }
        }
    }
}

#[test]
fn parallel_build_is_bit_identical_to_sequential() {
    let pool = ThreadPool::new(3);
    for seed in 0..CASES / 2 {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        let n = rng.gen_range(1usize..400);
        let forest = random_forest(&mut rng, n, 0.1);
        let result = MstResult::from_edges(n, forest, Default::default());
        let seq = PathMaxIndex::build(n, &result).unwrap();
        let par = PathMaxIndex::build_par(n, &result, &pool).unwrap();
        assert_eq!(seq.num_components(), par.num_components(), "seed {seed}");
        for _ in 0..64 {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            assert_eq!(seq.path_max(u, v), par.path_max(u, v), "seed {seed}");
            assert_eq!(seq.component(u), par.component(u), "seed {seed}");
        }
    }
}

/// Every pair's `path_max`, `bottleneck` and `connected_under` (at each
/// of `lambdas`) against the naive walk of [`TreePaths::heaviest`].
fn assert_all_pairs_match(
    what: &str,
    n: usize,
    index: &PathMaxIndex,
    edges: &[Edge],
    lambdas: &[f64],
) {
    let paths = TreePaths::new(n, edges);
    for u in 0..n as u32 {
        for v in 0..n as u32 {
            let want = paths.heaviest(u, v);
            assert_eq!(
                index.path_max(u, v),
                want.map(|e| e.key()),
                "{what}: path_max({u}, {v})"
            );
            let got = index.bottleneck(u, v);
            assert_eq!(
                got.map(|e| e.key()),
                want.map(|e| e.key()),
                "{what}: bottleneck({u}, {v})"
            );
            if let (Some(b), Some(w)) = (got, want) {
                assert_eq!(
                    b.w.to_bits(),
                    w.w.to_bits(),
                    "{what}: decoded weight ({u}, {v})"
                );
            }
            for &lambda in lambdas {
                assert_eq!(
                    index.connected_under(u, v, lambda),
                    u == v || want.is_some_and(|e| e.w <= lambda),
                    "{what}: connected_under({u}, {v}, {lambda})"
                );
            }
        }
    }
}

#[test]
fn sentinel_rank_edge_cases() {
    let lambdas = [
        f64::NEG_INFINITY,
        -2.5,
        -1.0,
        -0.0,
        0.0,
        0.5,
        1.0,
        f64::INFINITY,
    ];

    // t = 0: every vertex isolated, so the key table is the sentinel alone
    // and every range-max level holds rank 0.
    for n in [1usize, 2, 33, 65] {
        let (index, edges) = build(n, Vec::new());
        assert_eq!(index.num_components(), n);
        assert_all_pairs_match(&format!("isolated n {n}"), n, &index, &edges, &lambdas);
    }

    // t + 1 = n: one spanning tree, whose heaviest key (`keys[t - 1]`)
    // also gives the certifier's weight filter. Weights include -0.0, 0.0
    // and negatives, whose packed order flips sign bits.
    let weights = [-2.5, -1.0, -0.0, 0.0, 0.5, 1.0];
    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e17);
        let n = rng.gen_range(2usize..80);
        let tree: Vec<Edge> = (1..n as u32)
            .map(|v| {
                Edge::new(
                    rng.gen_range(0..v),
                    v,
                    weights[rng.gen_range(0..weights.len())],
                )
            })
            .collect();
        let (index, edges) = build(n, tree);
        assert_eq!(index.num_components(), 1, "seed {seed}");
        assert_all_pairs_match(
            &format!("spanning seed {seed}"),
            n,
            &index,
            &edges,
            &lambdas,
        );

        // The filter retires only edges heavier than the heaviest tree
        // edge: the tree plus heavier and lighter extra edges certifies
        // as its graph's MSF exactly when Kruskal agrees.
        let mut graph_edges = edges.clone();
        for _ in 0..n {
            let (a, b) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
            if a != b {
                graph_edges.push(Edge::new(
                    a,
                    b,
                    weights[rng.gen_range(0..weights.len())] + 0.25,
                ));
            }
        }
        let g = CsrGraph::from_edges(n, &graph_edges);
        let msf = kruskal(&g);
        assert_eq!(certify_msf(&g, &msf), Ok(()), "seed {seed}");
        let given = MstResult::from_edges(n, edges, Default::default());
        assert_eq!(
            certify_msf(&g, &given).is_ok(),
            given.canonical_keys() == msf.canonical_keys(),
            "seed {seed}"
        );
    }

    // A single spanning path at sizes straddling one and two 32-position
    // blocks: the last position ends the only component.
    for n in [32usize, 33, 64, 65] {
        let mut rng = SmallRng::seed_from_u64(n as u64 ^ 0xb10c);
        let path: Vec<Edge> = (1..n as u32)
            .map(|v| Edge::new(v - 1, v, weights[rng.gen_range(0..weights.len())]))
            .collect();
        let (index, edges) = build(n, path);
        assert_all_pairs_match(&format!("path n {n}"), n, &index, &edges, &lambdas);
    }
}
