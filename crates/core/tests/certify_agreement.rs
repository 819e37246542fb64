//! Seed-sweep agreement between the oracle-free certifier and the
//! Kruskal-oracle verifier, in both directions: genuine MSFs must be
//! accepted by both, mutated forests rejected by both. Cases are
//! deterministic seed sweeps (hermetic builds cannot depend on
//! `proptest`).

use llp_graph::generators::{erdos_renyi, random_geometric, road_network, RoadParams};
use llp_graph::{CsrGraph, Edge};
use llp_mst::prelude::{
    certify_msf, certify_msf_par, filter_kruskal_par, filter_kruskal_par_with_base_case, kruskal,
    sharded_msf_graph, verify_msf,
};
use llp_mst::{AlgoStats, MstResult};
use llp_runtime::rng::SmallRng;
use llp_runtime::{chaos, ThreadPool};

const CASES: u64 = 16;

/// A spread of families: dense-ish connected, sparse disconnected forest,
/// geometric, and grid-like road.
fn graphs(seed: u64) -> Vec<CsrGraph> {
    vec![
        erdos_renyi(150, 400, seed),
        erdos_renyi(120, 90, seed ^ 0xA5),
        random_geometric(130, 0.18, seed),
        road_network(RoadParams::usa_like(10, 12, seed)),
    ]
}

fn forest(n: usize, edges: Vec<Edge>) -> MstResult {
    MstResult::from_edges(n, edges, AlgoStats::default())
}

#[test]
fn certifier_and_oracle_accept_genuine_msfs() {
    let pool = ThreadPool::new(3);
    for seed in 0..CASES {
        for (gi, g) in graphs(seed).into_iter().enumerate() {
            let msf = kruskal(&g);
            verify_msf(&g, &msf).unwrap_or_else(|e| panic!("oracle seed {seed} graph {gi}: {e}"));
            certify_msf(&g, &msf)
                .unwrap_or_else(|e| panic!("certifier seed {seed} graph {gi}: {e}"));
            certify_msf_par(&g, &msf, &pool)
                .unwrap_or_else(|e| panic!("par certifier seed {seed} graph {gi}: {e}"));
        }
    }
}

#[test]
fn certifier_and_oracle_reject_mutated_forests() {
    for seed in 0..CASES {
        for (gi, g) in graphs(seed).into_iter().enumerate() {
            let msf = kruskal(&g);
            if msf.edges.is_empty() {
                continue;
            }
            let n = g.num_vertices();
            let mut rng = SmallRng::seed_from_u64(seed * 31 + gi as u64);
            let i = rng.gen_range(0usize..msf.edges.len());

            // Drop one tree edge: no longer spanning.
            let mut edges = msf.edges.clone();
            edges.remove(i);
            let dropped = forest(n, edges);
            assert!(verify_msf(&g, &dropped).is_err(), "oracle/drop {seed}/{gi}");
            assert!(certify_msf(&g, &dropped).is_err(), "certify/drop {seed}/{gi}");

            // Heavier weight on one tree edge: foreign to the graph (and
            // a cut violation against the original edge).
            let mut edges = msf.edges.clone();
            edges[i].w += 0.5;
            let heavier = forest(n, edges);
            assert!(verify_msf(&g, &heavier).is_err(), "oracle/heavy {seed}/{gi}");
            assert!(certify_msf(&g, &heavier).is_err(), "certify/heavy {seed}/{gi}");

            // Duplicate one tree edge: a two-edge cycle.
            let mut edges = msf.edges.clone();
            edges.push(edges[i]);
            let cyclic = forest(n, edges);
            assert!(verify_msf(&g, &cyclic).is_err(), "oracle/cycle {seed}/{gi}");
            assert!(certify_msf(&g, &cyclic).is_err(), "certify/cycle {seed}/{gi}");
        }
    }
}

#[test]
fn filter_kruskal_par_certifies_and_rejects_mutations_under_chaos_seeds() {
    // The parallel partition/filter paths under every chaos seed the CI
    // matrix runs: genuine outputs are accepted by oracle and certifier,
    // mutated ones rejected. Without the `chaos` feature the seeds are
    // inert and this is a plain accept/reject sweep.
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
                verify_msf(&g, &msf)
                    .unwrap_or_else(|e| panic!("oracle {chaos_seed}/{seed}/{gi}: {e}"));
                certify_msf(&g, &msf)
                    .unwrap_or_else(|e| panic!("certify {chaos_seed}/{seed}/{gi}: {e}"));
                certify_msf_par(&g, &msf, &pool)
                    .unwrap_or_else(|e| panic!("certify_par {chaos_seed}/{seed}/{gi}: {e}"));

                if msf.edges.is_empty() {
                    continue;
                }
                let n = g.num_vertices();
                let mut rng = SmallRng::seed_from_u64(chaos_seed * 101 + seed * 31 + gi as u64);
                let i = rng.gen_range(0usize..msf.edges.len());

                let mut edges = msf.edges.clone();
                edges.remove(i);
                let dropped = forest(n, edges);
                assert!(verify_msf(&g, &dropped).is_err(), "oracle/drop {chaos_seed}/{seed}/{gi}");
                assert!(
                    certify_msf(&g, &dropped).is_err(),
                    "certify/drop {chaos_seed}/{seed}/{gi}"
                );

                let mut edges = msf.edges.clone();
                edges[i].w += 0.5;
                let heavier = forest(n, edges);
                assert!(
                    verify_msf(&g, &heavier).is_err(),
                    "oracle/heavy {chaos_seed}/{seed}/{gi}"
                );
                assert!(
                    certify_msf(&g, &heavier).is_err(),
                    "certify/heavy {chaos_seed}/{seed}/{gi}"
                );

                let mut edges = msf.edges.clone();
                edges.push(edges[i]);
                let cyclic = forest(n, edges);
                assert!(
                    verify_msf(&g, &cyclic).is_err(),
                    "oracle/cycle {chaos_seed}/{seed}/{gi}"
                );
                assert!(
                    certify_msf(&g, &cyclic).is_err(),
                    "certify/cycle {chaos_seed}/{seed}/{gi}"
                );
            }
        }
        chaos::set_seed(None);
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
                certify_msf(&g, &msf)
                    .unwrap_or_else(|e| panic!("certify {chaos_seed}/{seed}/{gi}: {e}"));
                certify_msf_par(&g, &msf, &pool)
                    .unwrap_or_else(|e| panic!("certify_par {chaos_seed}/{seed}/{gi}: {e}"));

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
        chaos::set_seed(None);
    }
}
