//! Seed-sweep agreement between the fast certifiers and the library's
//! naive reference, `verify::reference_certify`, which walks explicit tree
//! paths: on every genuine and mutated forest, `certify_msf` and
//! `certify_msf_par` (1 to 4 threads) return the reference's exact
//! `Result`, witness included, and the Kruskal oracle `verify_msf` reaches
//! the same verdict. `PathMaxIndex` must give the same path maxima,
//! components and threshold connectivity as the reference's walker,
//! `verify::TreePaths`. Cases are deterministic seed sweeps (hermetic
//! builds cannot depend on `proptest`).

use llp_graph::generators::{erdos_renyi, random_geometric, road_network, RoadParams};
use llp_graph::transform::map_weights;
use llp_graph::{CsrGraph, Edge};
use llp_mst::index::PathMaxIndex;
use llp_mst::prelude::{
    certify_msf, certify_msf_par, filter_kruskal_par, filter_kruskal_par_with_base_case, kruskal,
    reference_certify, sharded_msf_graph, verify_msf,
};
use llp_mst::verify::{TreePaths, VerifyError};
use llp_mst::{AlgoStats, MstResult};
use llp_runtime::rng::SmallRng;
use llp_runtime::{chaos, ThreadPool};

const CASES: u64 = 16;

/// A spread of families: dense-ish connected, sparse disconnected forest,
/// geometric, grid-like road, and a tie-heavy graph whose weights take
/// only four values (so many MSFs share the minimum weight and only the
/// `EdgeKey` order picks the canonical one).
fn graphs(seed: u64) -> Vec<CsrGraph> {
    vec![
        erdos_renyi(150, 400, seed),
        map_weights(&erdos_renyi(150, 400, seed), |w| (w * 4.0).floor()),
        erdos_renyi(120, 90, seed ^ 0xA5),
        random_geometric(130, 0.18, seed),
        road_network(RoadParams::usa_like(10, 12, seed)),
    ]
}

fn forest(n: usize, edges: Vec<Edge>) -> MstResult {
    MstResult::from_edges(n, edges, AlgoStats::default())
}

/// `e` with its endpoints in `(smaller, larger)` order, as the certifier
/// names graph edges.
fn canonical(e: Edge) -> Edge {
    let (u, v) = e.canonical_endpoints();
    Edge::new(u, v, e.w)
}

/// Pools of 1 to 4 threads, for `certify_msf_par`.
fn pools() -> Vec<ThreadPool> {
    (1..=4).map(ThreadPool::new).collect()
}

/// `certify_msf` and `certify_msf_par` on every pool return exactly
/// [`reference_certify`]'s `Result` on `f`, witness included; returns it.
fn agree(g: &CsrGraph, f: &MstResult, pools: &[ThreadPool], what: &str) -> Result<(), VerifyError> {
    let records: Vec<Edge> = g.edges().collect();
    let want = reference_certify(g.num_vertices(), &records, f);
    assert_eq!(certify_msf(g, f), want, "certify/{what}");
    for (t, pool) in pools.iter().enumerate() {
        assert_eq!(
            certify_msf_par(g, f, pool),
            want,
            "certify_par/{what}, {} threads",
            t + 1
        );
    }
    want
}

#[test]
fn certifier_and_oracle_accept_genuine_msfs() {
    let pools = pools();
    for seed in 0..CASES {
        for (gi, g) in graphs(seed).into_iter().enumerate() {
            let msf = kruskal(&g);
            verify_msf(&g, &msf).unwrap_or_else(|e| panic!("oracle seed {seed} graph {gi}: {e}"));
            assert_eq!(
                agree(&g, &msf, &pools, &format!("genuine {seed}/{gi}")),
                Ok(()),
                "seed {seed} graph {gi}"
            );
        }
    }
}

#[test]
fn certifier_and_oracle_reject_mutated_forests() {
    /// Position of the tie-heavy graph in [`graphs`].
    const TIED: usize = 1;
    let pools = pools();
    for seed in 0..CASES {
        for (gi, g) in graphs(seed).into_iter().enumerate() {
            let msf = kruskal(&g);
            if msf.edges.is_empty() {
                continue;
            }
            // Each mutation below has exactly one right answer under the
            // cut property: the reference must name it, the certifiers
            // must agree with the reference, and the oracle must reject.
            let rejects = |g: &CsrGraph, f: &MstResult, want: VerifyError, what: &str| {
                assert!(verify_msf(g, f).is_err(), "oracle/{what} {seed}/{gi}");
                assert_eq!(
                    agree(g, f, &pools, &format!("{what} {seed}/{gi}")),
                    Err(want),
                    "reference/{what} {seed}/{gi}"
                );
            };
            let n = g.num_vertices();
            let mut rng = SmallRng::seed_from_u64(seed * 31 + gi as u64);
            let i = rng.gen_range(0usize..msf.edges.len());

            // Drop one tree edge: no longer spanning. The dropped edge is
            // the lightest across the cut it leaves.
            let mut edges = msf.edges.clone();
            edges.remove(i);
            let dropped = forest(n, edges);
            rejects(&g, &dropped, VerifyError::NotSpanning(canonical(msf.edges[i])), "drop");

            // Heavier weight on one tree edge: foreign to the graph, and
            // the original edge is lighter than every other edge whose
            // tree path now crosses the heavier copy.
            let mut edges = msf.edges.clone();
            edges[i].w += 0.5;
            let heavier = forest(n, edges);
            rejects(&g, &heavier, VerifyError::CutViolation(canonical(msf.edges[i])), "heavy");

            // Duplicate one tree edge: a two-edge cycle.
            let mut edges = msf.edges.clone();
            edges.push(edges[i]);
            let cyclic = forest(n, edges);
            rejects(&g, &cyclic, VerifyError::Cycle(msf.edges[i]), "cycle");

            // Longer cycle: append a non-tree graph edge. Its endpoints are
            // already joined by the tree path, so the appended copy closes
            // a cycle through that whole path.
            let tree_keys = msf.canonical_keys();
            let mut non_tree: Vec<Edge> = g
                .edges()
                .filter(|e| tree_keys.binary_search(&e.key()).is_err())
                .collect();
            if !non_tree.is_empty() {
                let start = rng.gen_range(0usize..non_tree.len());
                non_tree.rotate_left(start);
                let e = non_tree[0];
                let mut edges = msf.edges.clone();
                edges.push(e);
                let cyclic = forest(n, edges);
                rejects(&g, &cyclic, VerifyError::Cycle(e), "long-cycle");
            }

            // Tie flip: swap a tree edge `t` for a non-tree edge of equal
            // weight on `t`'s cycle. The result is a spanning forest of the
            // same total weight, but not the canonical one: `t` now closes
            // a cycle through the heavier-keyed replacement.
            let paths = TreePaths::new(n, &msf.edges);
            let flip = non_tree.iter().find_map(|&e| {
                paths
                    .path(e.u, e.v)
                    .expect("a non-tree edge's endpoints share a tree")
                    .into_iter()
                    .find(|&t| msf.edges[t].w == e.w)
                    .map(|t| (t, e))
            });
            if let Some((t, e)) = flip {
                let mut edges = msf.edges.clone();
                edges[t] = e;
                let swapped = forest(n, edges);
                assert_eq!(
                    swapped.total_weight, msf.total_weight,
                    "tie flip {seed}/{gi}"
                );
                rejects(
                    &g,
                    &swapped,
                    VerifyError::CutViolation(canonical(msf.edges[t])),
                    "tie-flip",
                );
            } else {
                assert_ne!(gi, TIED, "the tie-heavy graph has no tie to flip ({seed})");
            }

            // Lighter weight on one tree edge, in a graph that repeats
            // another tree edge verbatim: foreign, with no cut violation
            // (path maxima only shrink), and the repeat keeps the number of
            // key matches equal to the tree size.
            if msf.edges.len() >= 2 {
                let j = (i + 1) % msf.edges.len();
                let mut graph_edges: Vec<Edge> = g.edges().collect();
                graph_edges.push(msf.edges[j]);
                let doubled = CsrGraph::from_edges(n, &graph_edges);
                let mut edges = msf.edges.clone();
                edges[i].w -= 0.5;
                let masked = forest(n, edges);
                let foreign = VerifyError::ForeignEdge(masked.edges[i]);
                assert_eq!(
                    verify_msf(&doubled, &masked),
                    Err(foreign.clone()),
                    "oracle/mask {seed}/{gi}"
                );
                rejects(&doubled, &masked, foreign, "mask");
            }
        }
    }
}

#[test]
fn path_max_index_matches_naive_tree_paths() {
    /// Position of the sparse, disconnected forest in [`graphs`].
    const DISCONNECTED: usize = 2;
    for seed in 0..CASES {
        for (gi, g) in graphs(seed).into_iter().enumerate() {
            let n = g.num_vertices();
            let msf = kruskal(&g);
            let index = PathMaxIndex::build(n, &msf).expect("a forest");
            let paths = TreePaths::new(n, &msf.edges);
            let mut rng = SmallRng::seed_from_u64(seed * 17 + gi as u64);
            let mut apart = 0;
            let mut ties = 0;
            for _ in 0..64 {
                let u = rng.gen_range(0..n as u32);
                let v = if rng.gen_range(0u32..8) == 0 { u } else { rng.gen_range(0..n as u32) };
                let path = paths.path(u, v);
                let want = paths.heaviest(u, v).map(|e| e.key());
                let joined = path.is_some();
                assert_eq!(index.path_max(u, v), want, "path_max({u}, {v}) {seed}/{gi}");
                assert_eq!(
                    index.connected(u, v),
                    joined,
                    "connected({u}, {v}) {seed}/{gi}"
                );
                assert_eq!(
                    index.component(u) == index.component(v),
                    joined,
                    "component({u}) vs component({v}) {seed}/{gi}"
                );
                apart += usize::from(!joined);

                // Thresholds at the forest's own weights hit ties at
                // exactly λ; the path's own maximum is always among them.
                let mut lambdas = vec![f64::NEG_INFINITY, f64::INFINITY];
                lambdas.extend((0..4).map(|_| msf.edges[rng.gen_range(0..msf.edges.len())].w));
                lambdas.extend(want.map(|k| k.weight()));
                for lambda in lambdas {
                    let naive = path
                        .as_ref()
                        .is_some_and(|p| p.iter().all(|&i| msf.edges[i].w <= lambda));
                    ties += usize::from(want.is_some_and(|k| k.weight() == lambda));
                    assert_eq!(
                        index.connected_under(u, v, lambda),
                        naive,
                        "connected_under({u}, {v}, {lambda}) {seed}/{gi}"
                    );
                }
            }
            if gi == DISCONNECTED {
                assert!(apart > 0, "no pair in different trees sampled ({seed})");
            }
            assert!(ties > 0, "no threshold tied a path maximum ({seed}/{gi})");

            // Component ids are dense: every id in `0..num_components` names
            // a tree, and there is one tree per vertex a tree edge does not
            // add.
            assert_eq!(index.num_components(), n - msf.edges.len(), "{seed}/{gi}");
            let mut seen = vec![false; index.num_components()];
            for u in 0..n as u32 {
                seen[index.component(u) as usize] = true;
            }
            assert!(
                seen.iter().all(|&s| s),
                "component ids not dense ({seed}/{gi})"
            );
        }
    }
}

#[test]
fn certifiers_name_the_smallest_key_witness_at_every_thread_count() {
    // Certified against its *maximum* spanning forest, a graph violates
    // the cycle property at many vertices. The witness must be the
    // graph's smallest-key violating edge, whatever the pool and its
    // chunking, not the first one some chunk happened to meet.
    let pools = pools();
    for seed in 0..4u64 {
        let g = erdos_renyi(4000, 16000, seed);
        let n = g.num_vertices();
        let negated: Vec<Edge> = g.edges().map(|e| Edge::new(e.u, e.v, -e.w)).collect();
        let heaviest = kruskal(&CsrGraph::from_edges(n, &negated));
        let max_forest = forest(
            n,
            heaviest.edges.iter().map(|e| Edge::new(e.u, e.v, -e.w)).collect(),
        );
        let want = agree(&g, &max_forest, &pools, &format!("maximum forest {seed}"));
        assert!(
            matches!(want, Err(VerifyError::CutViolation(_))),
            "a maximum spanning forest violates the cycle property ({seed}): {want:?}"
        );
    }
}

#[test]
fn filter_kruskal_par_certifies_and_rejects_mutations_under_chaos_seeds() {
    // The parallel partition/filter paths under every chaos seed the CI
    // matrix runs: genuine outputs are accepted by oracle, certifiers and
    // reference, mutated ones rejected, with the certifiers naming the
    // reference's witness.
    let _serial = llp_runtime::test_serial_lock();
    let pool = ThreadPool::new(4);
    for chaos_seed in [1u64, 2, 3, 4] {
        chaos::set_seed(Some(chaos_seed));
        for seed in 0..4u64 {
            for (gi, g) in graphs(seed).into_iter().enumerate() {
                // A small base case forces partition + filter rounds even on
                // these sub-threshold graphs.
                let msf = filter_kruskal_par_with_base_case(&g, &pool, 16);
                assert_eq!(
                    msf.canonical_keys(),
                    filter_kruskal_par(&g, &pool).canonical_keys(),
                    "base-case invariance {chaos_seed}/{seed}/{gi}"
                );
                let pools = std::slice::from_ref(&pool);
                let what = |m: &str| format!("{m} {chaos_seed}/{seed}/{gi}");
                verify_msf(&g, &msf).unwrap_or_else(|e| panic!("oracle/{}: {e}", what("genuine")));
                assert_eq!(agree(&g, &msf, pools, &what("genuine")), Ok(()));

                if msf.edges.is_empty() {
                    continue;
                }
                let n = g.num_vertices();
                let mut rng = SmallRng::seed_from_u64(chaos_seed * 101 + seed * 31 + gi as u64);
                let i = rng.gen_range(0usize..msf.edges.len());
                let mutate = |f: &dyn Fn(&mut Vec<Edge>)| {
                    let mut edges = msf.edges.clone();
                    f(&mut edges);
                    forest(n, edges)
                };
                for (m, mutant) in [
                    (
                        "drop",
                        mutate(&|e| {
                            e.remove(i);
                        }),
                    ),
                    ("heavy", mutate(&|e| e[i].w += 0.5)),
                    ("cycle", mutate(&|e| e.push(e[i]))),
                ] {
                    assert!(verify_msf(&g, &mutant).is_err(), "oracle/{}", what(m));
                    assert!(agree(&g, &mutant, pools, &what(m)).is_err(), "{}", what(m));
                }
            }
        }
    }
}

#[test]
fn sharded_ooc_certifies_and_agrees_under_chaos_seeds() {
    // The out-of-core backend under every chaos seed the CI matrix runs:
    // its per-shard contraction rounds, parallel filter scans and sorted
    // merges all run on the pool, and each run is already certified by
    // its own streaming sweep over the temp file. On top of that, assert
    // cross-family agreement and in-RAM oracle + certifier acceptance —
    // and that replaying the same graph under the same chaos seed is
    // bit-identical (the forest is a pure function of the edge file).
    let _serial = llp_runtime::test_serial_lock();
    let pool = ThreadPool::new(4);
    for chaos_seed in [1u64, 2, 3, 4] {
        chaos::set_seed(Some(chaos_seed));
        for seed in 0..4u64 {
            for (gi, g) in graphs(seed).into_iter().enumerate() {
                // Shard small enough that every graph folds across shards.
                let shard = g.num_edges() / 5 + 1;
                let msf = sharded_msf_graph(&g, shard, &pool);
                assert_eq!(
                    msf.canonical_keys(),
                    filter_kruskal_par(&g, &pool).canonical_keys(),
                    "cross-family agreement {chaos_seed}/{seed}/{gi}"
                );
                verify_msf(&g, &msf)
                    .unwrap_or_else(|e| panic!("oracle {chaos_seed}/{seed}/{gi}: {e}"));
                let what = format!("sharded {chaos_seed}/{seed}/{gi}");
                assert_eq!(agree(&g, &msf, std::slice::from_ref(&pool), &what), Ok(()));

                let replay = sharded_msf_graph(&g, shard, &pool);
                assert_eq!(replay.edges.len(), msf.edges.len());
                for (x, y) in replay.edges.iter().zip(&msf.edges) {
                    assert_eq!(
                        (x.u, x.v, x.w.to_bits()),
                        (y.u, y.v, y.w.to_bits()),
                        "replay divergence {chaos_seed}/{seed}/{gi}"
                    );
                }
            }
        }
    }
}
