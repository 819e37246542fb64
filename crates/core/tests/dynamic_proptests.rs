//! Seed-sweep property tests for the fully dynamic MSF: after any mix of
//! insert/delete epochs, [`DynamicMsf`] must hold exactly the canonical
//! forest a from-scratch `filter_kruskal_par` recompute of the surviving
//! edge set produces, and every epoch snapshot must pass the oracle-free
//! `certify_msf_par` sweep. Weights are tie-heavy on purpose (the
//! `EdgeKey` order breaks the ties), deletes frequently disconnect, and
//! deleted edges go back in through later epochs. Deterministic seed
//! sweeps over [`llp_runtime::rng::SmallRng`] (hermetic builds cannot
//! depend on `proptest`).

use llp_graph::generators::{rmat, road_network, RmatParams, RoadParams};
use llp_graph::{CsrGraph, Edge};
use llp_mst::dynamic::DynamicMsf;
use llp_mst::prelude::{certify_msf_par, filter_kruskal_par};
use llp_runtime::rng::SmallRng;
use llp_runtime::ThreadPool;
use std::collections::HashMap;

const CASES: u64 = 24;

/// The ground truth the dynamic structure races against: a plain map of
/// the surviving undirected edges, mutated with the same batch semantics
/// (deletes first, then insert-if-absent).
struct Mirror {
    n: usize,
    edges: HashMap<(u32, u32), f64>,
}

impl Mirror {
    fn apply(&mut self, inserts: &[Edge], deletes: &[(u32, u32)]) {
        for &(u, v) in deletes {
            let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
            self.edges.remove(&(lo, hi));
        }
        for e in inserts {
            self.edges.entry(e.canonical_endpoints()).or_insert(e.w);
        }
    }

    fn edge_list(&self) -> Vec<Edge> {
        let mut v: Vec<Edge> = self
            .edges
            .iter()
            .map(|(&(lo, hi), &w)| Edge::new(lo, hi, w))
            .collect();
        v.sort_unstable_by_key(Edge::key);
        v
    }
}

/// Asserts the dynamic structure equals a from-scratch recompute of its
/// mirror, and that its snapshot passes full certification.
fn assert_epoch_sound(d: &DynamicMsf, mirror: &Mirror, pool: &ThreadPool, ctx: &str) {
    let edges = mirror.edge_list();
    let graph = CsrGraph::from_edges(mirror.n, &edges);
    let want = filter_kruskal_par(&graph, pool);
    assert_eq!(
        d.msf().canonical_keys(),
        want.canonical_keys(),
        "{ctx}: dynamic forest diverged from recompute"
    );
    assert_eq!(d.msf().num_trees, want.num_trees, "{ctx}");
    assert!(
        (d.msf().total_weight - want.total_weight).abs() < 1e-9,
        "{ctx}: weight {} vs {}",
        d.msf().total_weight,
        want.total_weight
    );
    certify_msf_par(&graph, d.msf(), pool)
        .unwrap_or_else(|e| panic!("{ctx}: epoch snapshot failed certification: {e}"));
}

#[test]
fn random_epochs_match_recompute_and_certify() {
    let pool = ThreadPool::new(4);
    // Totals across the sweep, to prove every insert verdict and the
    // fragment-Kruskal delete path actually ran (not just one of them).
    let (mut fast_swaps, mut fast_rejects, mut rebuilds, mut links) = (0u64, 0u64, 0u64, 0u64);
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(2usize..80);

        // Initial graph: unique random pairs with tie-heavy weights.
        let mut mirror = Mirror {
            n,
            edges: HashMap::new(),
        };
        for _ in 0..rng.gen_range(0usize..250) {
            let u = rng.gen_range(0u32..n as u32);
            let v = rng.gen_range(0u32..n as u32);
            if u != v {
                let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
                mirror
                    .edges
                    .entry((lo, hi))
                    .or_insert(rng.gen_range(1u32..5) as f64);
            }
        }
        let mut d = DynamicMsf::from_edges(n, mirror.edge_list(), &pool)
            .unwrap_or_else(|e| panic!("seed {seed}: build: {e}"));
        assert_epoch_sound(&d, &mirror, &pool, &format!("seed {seed} epoch 0"));

        // A pool of edges we deleted, to re-insert in later epochs.
        let mut graveyard: Vec<(u32, u32)> = Vec::new();
        let epochs = rng.gen_range(3usize..6);
        for epoch in 1..=epochs {
            let mut inserts: Vec<Edge> = Vec::new();
            let mut deletes: Vec<(u32, u32)> = Vec::new();
            if rng.gen_bool(0.1) {
                // Empty batch: still an epoch, still certified.
            } else {
                // Deletes: mostly real edges (tree edges included, so
                // components disconnect), some misses. Sorted so the
                // picks are a function of the seed alone (HashMap
                // iteration order is randomized per process, and the
                // cross-sweep coverage assertions below need the same
                // batches every run).
                let mut live: Vec<(u32, u32)> = mirror.edges.keys().copied().collect();
                live.sort_unstable();
                for _ in 0..rng.gen_range(0usize..8) {
                    if !live.is_empty() && rng.gen_bool(0.75) {
                        let pick = live[rng.gen_range(0usize..live.len())];
                        deletes.push(pick);
                        graveyard.push(pick);
                    } else {
                        let u = rng.gen_range(0u32..n as u32);
                        let v = rng.gen_range(0u32..n as u32);
                        deletes.push((u, v));
                    }
                }
                // Inserts: fresh random pairs, plus re-insertions of
                // previously deleted edges at (usually new) weights.
                for _ in 0..rng.gen_range(0usize..10) {
                    let (u, v) = if !graveyard.is_empty() && rng.gen_bool(0.3) {
                        graveyard[rng.gen_range(0usize..graveyard.len())]
                    } else {
                        (rng.gen_range(0u32..n as u32), rng.gen_range(0u32..n as u32))
                    };
                    if u != v {
                        inserts.push(Edge::new(u, v, rng.gen_range(1u32..5) as f64));
                    }
                }
            }

            let report = d
                .apply_batch(&inserts, &deletes, &pool)
                .unwrap_or_else(|e| panic!("seed {seed} epoch {epoch}: {e}"));
            mirror.apply(&inserts, &deletes);
            assert_eq!(report.epoch, epoch as u64, "seed {seed}");
            fast_swaps += report.fast_swaps as u64;
            fast_rejects += report.fast_rejects as u64;
            links += report.links as u64;
            rebuilds += u64::from(report.dirty_components > 0);
            assert_epoch_sound(&d, &mirror, &pool, &format!("seed {seed} epoch {epoch}"));
        }
        assert_eq!(d.epoch(), epochs as u64, "seed {seed}");
        assert_eq!(d.num_edges(), mirror.edges.len(), "seed {seed}");
    }
    // The sweep must have exercised every update path.
    assert!(fast_swaps > 0, "no insert ever won via the fast path");
    assert!(fast_rejects > 0, "no insert ever lost via the fast path");
    assert!(links > 0, "no insert ever linked two trees");
    assert!(rebuilds > 0, "no epoch ever lost a tree edge");
}

#[test]
fn single_insert_epochs_ride_the_fast_path_and_match_recompute() {
    // A connected graph receiving one intra-tree insert per epoch: every
    // epoch must resolve as a swap or a reject (no tree loses an edge),
    // and still match the from-scratch recompute exactly.
    let pool = ThreadPool::new(4);
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(1000 + seed);
        let n = rng.gen_range(3usize..60);
        let mut mirror = Mirror {
            n,
            edges: HashMap::new(),
        };
        // Spine keeps it connected; extras make path-max non-trivial.
        for i in 1..n as u32 {
            mirror
                .edges
                .insert((i - 1, i), rng.gen_range(2u32..6) as f64);
        }
        for _ in 0..rng.gen_range(0usize..40) {
            let u = rng.gen_range(0u32..n as u32);
            let v = rng.gen_range(0u32..n as u32);
            if u != v {
                let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
                mirror
                    .edges
                    .entry((lo, hi))
                    .or_insert(rng.gen_range(2u32..6) as f64);
            }
        }
        let mut d = DynamicMsf::from_edges(n, mirror.edge_list(), &pool).unwrap();

        for epoch in 0..6 {
            // One fresh intra-tree edge (graph is connected ⇒ any fresh
            // pair is intra-tree); weight 1 beats everything, weight 9
            // loses to everything — both fast-path verdicts occur.
            let mut pick = None;
            for _ in 0..64 {
                let u = rng.gen_range(0u32..n as u32);
                let v = rng.gen_range(0u32..n as u32);
                let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
                if u != v && !mirror.edges.contains_key(&(lo, hi)) {
                    pick = Some((lo, hi));
                    break;
                }
            }
            let Some((lo, hi)) = pick else { continue };
            let w = if rng.gen_bool(0.5) { 1.0 } else { 9.0 };
            let inserts = [Edge::new(lo, hi, w)];
            let report = d.apply_batch(&inserts, &[], &pool).unwrap();
            mirror.apply(&inserts, &[]);
            assert_eq!(
                report.fast_swaps + report.fast_rejects,
                1,
                "seed {seed} epoch {epoch}: expected the fast path"
            );
            assert_eq!(report.dirty_components, 0, "seed {seed} epoch {epoch}");
            if w == 9.0 {
                // Every other weight is ≤ 6, so a 9.0 insert can never
                // beat the path max. (A 1.0 insert *usually* wins but may
                // lose an EdgeKey tie-break against an earlier 1.0 win,
                // so only the losing direction is asserted exactly.)
                assert_eq!(report.fast_swaps, 0, "seed {seed} epoch {epoch}");
            }
            assert_epoch_sound(&d, &mirror, &pool, &format!("seed {seed} epoch {epoch}"));
        }
    }
}

#[test]
fn empty_and_noop_batches_leave_the_forest_bit_identical() {
    let pool = ThreadPool::new(2);
    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 40;
        let mut mirror = Mirror {
            n,
            edges: HashMap::new(),
        };
        for _ in 0..120 {
            let u = rng.gen_range(0u32..n as u32);
            let v = rng.gen_range(0u32..n as u32);
            if u != v {
                let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
                mirror
                    .edges
                    .entry((lo, hi))
                    .or_insert(rng.gen_range(1u32..4) as f64);
            }
        }
        let mut d = DynamicMsf::from_edges(n, mirror.edge_list(), &pool).unwrap();
        let before = d.msf().canonical_keys();

        // Empty batch.
        let r = d.apply_batch(&[], &[], &pool).unwrap();
        assert!(!r.tree_changed, "seed {seed}");
        // All-noop batch: duplicate insert + missing delete.
        let some_edge = *mirror.edges.keys().next().unwrap();
        let missing = (0u32, 0u32); // self-pair never exists
        let r = d
            .apply_batch(
                &[Edge::new(some_edge.0, some_edge.1, 99.0)],
                &[(missing.0, missing.1)],
                &pool,
            )
            .unwrap();
        assert_eq!(r.inserts_duplicate, 1, "seed {seed}");
        assert_eq!(r.deletes_missing, 1, "seed {seed}");
        assert!(!r.tree_changed, "seed {seed}");

        assert_eq!(d.msf().canonical_keys(), before, "seed {seed}");
        assert_eq!(d.epoch(), 2, "seed {seed}");
        assert_epoch_sound(&d, &mirror, &pool, &format!("seed {seed}"));
    }
}

#[test]
fn benchmark_shaped_traffic_matches_recompute_under_ties() {
    // The benchmark's update stream at test size: every epoch deletes half
    // a batch of random live edges (tree edges included) and re-inserts
    // the previous epoch's deletes at weights drawn from the graph. On a
    // grid (one tree every tree delete dirties) and an RMAT forest, with
    // four distinct weights and with all weights equal, so the `EdgeKey`
    // endpoint tie-break decides nearly every comparison.
    const BATCH: usize = 64;
    let pool = ThreadPool::new(2);
    let graphs = [
        ("road", road_network(RoadParams::usa_like(32, 32, 3))),
        ("rmat", rmat(RmatParams::graph500(8, 8, 3))),
    ];
    for (name, g) in &graphs {
        for all_equal in [false, true] {
            let ctx = format!("{name} all_equal={all_equal}");
            let mut rng = SmallRng::seed_from_u64(u64::from(all_equal) + 17);
            let mut mirror = Mirror {
                n: g.num_vertices(),
                edges: HashMap::new(),
            };
            for e in g.edges() {
                let w = if all_equal {
                    1.0
                } else {
                    rng.gen_range(1u32..5) as f64
                };
                // Parallel edges: the smallest key wins, as in the build.
                let slot = mirror.edges.entry(e.canonical_endpoints()).or_insert(w);
                *slot = slot.min(w);
            }
            let start = mirror.edge_list();
            let weights: Vec<f64> = start.iter().map(|e| e.w).collect();
            let mut live: Vec<(u32, u32)> = start.iter().map(Edge::canonical_endpoints).collect();
            let mut d = DynamicMsf::from_edges(mirror.n, start, &pool).unwrap();
            let mut pending: Vec<(u32, u32)> = Vec::new();
            let mut tree_delete_epochs = 0;
            for epoch in 1..=10 {
                let half = (BATCH / 2).min(live.len().saturating_sub(1));
                let deletes: Vec<(u32, u32)> = (0..half)
                    .map(|_| live.swap_remove(rng.gen_range(0..live.len())))
                    .collect();
                let inserts: Vec<Edge> = pending
                    .iter()
                    .map(|&(u, v)| Edge::new(u, v, weights[rng.gen_range(0..weights.len())]))
                    .collect();
                live.append(&mut pending);
                pending.clone_from(&deletes);

                let r = d
                    .apply_batch(&inserts, &deletes, &pool)
                    .unwrap_or_else(|e| panic!("{ctx} epoch {epoch}: {e}"));
                mirror.apply(&inserts, &deletes);
                assert_eq!(
                    r.fast_swaps + r.fast_rejects + r.links,
                    r.inserts_applied,
                    "{ctx} epoch {epoch}: every fresh insert gets one verdict"
                );
                if r.dirty_components > 0 {
                    tree_delete_epochs += 1;
                    assert!(
                        r.rebuild_edges < d.num_edges(),
                        "{ctx} epoch {epoch}: {} crossing edges of {}",
                        r.rebuild_edges,
                        d.num_edges()
                    );
                }
                assert_epoch_sound(&d, &mirror, &pool, &format!("{ctx} epoch {epoch}"));
            }
            assert!(
                tree_delete_epochs > 0,
                "{ctx}: no epoch deleted a tree edge"
            );
        }
    }
}
