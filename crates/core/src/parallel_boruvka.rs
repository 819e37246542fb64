//! Parallel Boruvka baseline (GBBS-style, non-LLP).
//!
//! This is the comparison point of the paper's Figs 3–4 ("a fast parallel
//! implementation of Boruvka" from GBBS). Synchronous rounds over a shared
//! edge list:
//!
//! 1. **MWE selection** — every live edge does a `find` on both endpoints
//!    and, when they differ, performs an atomic *priority write* into both
//!    components' best-edge cells (one packed-word CAS loop per write,
//!    keyed by the weight discriminant with an exact
//!    [`llp_graph::EdgeKey`] tie-break).
//! 2. **Hooking** — each component's winning edge is committed by a
//!    concurrent union–find `union` (more CAS traffic).
//! 3. **Filtering** — edges whose endpoints merged are packed away.
//!
//! Every step synchronises through atomic read-modify-writes on *shared*
//! cells (component best-edge slots, union–find parents). That per-round
//! synchronization burden is precisely what LLP-Boruvka removes with its
//! per-vertex MWE + relaxed pointer jumping; the `atomic_rmw`/`cas_retries`
//! counters make the contrast measurable on any machine.
//!
//! Round state follows the flat-memory discipline of
//! [`crate::contraction`]: the best-edge cells are one whole-run leased
//! `u64` buffer of packed MWE words, winners and survivors compact through
//! arena-backed count–scan–scatter passes, and the live list double-buffers
//! — steady-state rounds perform zero heap allocations. After each round
//! only cells owned by endpoints of *surviving* edges are reset (any root
//! that can receive a proposal next round is `find` of such an endpoint),
//! replacing the old all-`n` reset sweep.

use crate::result::MstResult;
use crate::stats::AlgoStats;
use crate::union_find::ConcurrentUnionFind;
use llp_graph::{CsrGraph, Edge};
use llp_runtime::atomics::{as_atomic_u64, mwe_idx, mwe_propose, weight_hi32, MWE_EMPTY};
use llp_runtime::partition::compact_map_into;
use llp_runtime::scan::pack_indices_in;
use llp_runtime::telemetry;
use llp_runtime::{parallel_for, parallel_for_chunks, ParallelForConfig, ScratchArena, ThreadPool};
use std::sync::atomic::{AtomicU64, Ordering};

/// Parallel Boruvka; computes the canonical MSF.
pub fn boruvka_par(graph: &CsrGraph, pool: &ThreadPool) -> MstResult {
    boruvka_par_observed(graph, pool, |_| ())
}

/// [`boruvka_par`] with a round observer: `on_round(r)` runs at the top of
/// round `r` (0-based) and once more after the final round, with no
/// algorithm work in between — the hook harnesses (e.g. the counting
/// allocator test) use to snapshot state at exact round boundaries.
pub fn boruvka_par_observed<F>(graph: &CsrGraph, pool: &ThreadPool, mut on_round: F) -> MstResult
where
    F: FnMut(usize),
{
    let n = graph.num_vertices();
    let mut stats = AlgoStats::default();
    let all_edges: Vec<Edge> = graph.edges().collect();
    let keys: Vec<llp_graph::EdgeKey> = all_edges.iter().map(Edge::key).collect();
    let whis: Vec<u32> = all_edges.iter().map(|e| weight_hi32(e.w)).collect();

    let uf = ConcurrentUnionFind::new(n);
    let arena = ScratchArena::new();
    let cfg = ParallelForConfig::with_grain(512);
    // One packed MWE word per component, leased for the whole run.
    let mut best = arena.lease_filled::<u64>(pool, cfg, n, MWE_EMPTY);
    let mut live: Vec<u32> = (0..all_edges.len() as u32).collect();
    let mut live_next: Vec<u32> = Vec::new();
    // Winner counts shrink monotonically (round r commits c_r - c_{r+1}
    // unions and c_{r+1} <= c_r / 2), so this capacity never grows.
    let mut winners: Vec<u32> = Vec::with_capacity(n / 2 + 1);
    let mut chosen: Vec<Edge> = Vec::with_capacity(n.saturating_sub(1));
    let rmw = AtomicU64::new(0);
    let mut round = 0usize;

    while !live.is_empty() {
        on_round(round);
        round += 1;
        stats.rounds += 1;
        stats.parallel_regions += 3;
        telemetry::record_value("live-edges", live.len() as u64);

        // Phase 1: priority-write each live edge into both components.
        {
            let _t = telemetry::span("mwe-compute");
            let best_cells = as_atomic_u64(&mut best);
            let live_ref: &[u32] = &live;
            let edges_ref: &[Edge] = &all_edges;
            let keys_ref = &keys;
            let whis_ref: &[u32] = &whis;
            let uf_ref = &uf;
            let rmw_ref = &rmw;
            parallel_for_chunks(pool, 0..live.len(), cfg, |r| {
                // Two priority writes per proposing edge, summed per chunk.
                let mut writes = 0u64;
                for i in r {
                    let ei = live_ref[i];
                    let e = edges_ref[ei as usize];
                    let ru = uf_ref.find(e.u);
                    let rv = uf_ref.find(e.v);
                    if ru == rv {
                        continue;
                    }
                    let exact = |idx: u32| keys_ref[idx as usize];
                    let whi = whis_ref[ei as usize];
                    mwe_propose(&best_cells[ru as usize], whi, ei, exact);
                    mwe_propose(&best_cells[rv as usize], whi, ei, exact);
                    writes += 2;
                }
                rmw_ref.fetch_add(writes, Ordering::Relaxed);
            });
        }

        // Phase 2: hook every component along its winning edge. The
        // exactly-once pack (the predicate commits `union` as a side
        // effect) collects winners in ascending live order — deterministic
        // without the old bag-drain-and-sort. Each edge that won a slot
        // counts one RMW: the committed ones are `winners`, counted after
        // the pack; a won edge whose `union` finds its endpoints already
        // joined (a verbatim duplicate of an edge that won the other slot)
        // is rare and counted in place.
        let hook_span = telemetry::span("contract");
        {
            let best_ro: &[u64] = &best;
            let live_ref: &[u32] = &live;
            let edges_ref: &[Edge] = &all_edges;
            let uf_ref = &uf;
            let rmw_ref = &rmw;
            pack_indices_in(pool, live.len(), cfg, &arena, &mut winners, |i| {
                // Each live edge checks whether it won either endpoint's
                // component slot; the winning edge performs the union. The
                // same edge can win both slots — `union` returns false the
                // second time, so it is committed exactly once.
                let ei = live_ref[i];
                let e = edges_ref[ei as usize];
                let ru = uf_ref.find(e.u);
                let rv = uf_ref.find(e.v);
                if ru == rv {
                    return false;
                }
                let wu = best_ro[ru as usize];
                let wv = best_ro[rv as usize];
                let won = (wu != MWE_EMPTY && mwe_idx(wu) == ei)
                    || (wv != MWE_EMPTY && mwe_idx(wv) == ei);
                if !won {
                    return false;
                }
                let committed = uf_ref.union(e.u, e.v);
                if !committed {
                    rmw_ref.fetch_add(1, Ordering::Relaxed);
                }
                committed
            });
        }
        rmw.fetch_add(winners.len() as u64, Ordering::Relaxed);
        if winners.is_empty() {
            break;
        }
        chosen.extend(winners.iter().map(|&i| all_edges[live[i as usize] as usize]));

        // Phase 3: pack away intra-component edges.
        {
            let live_ref: &[u32] = &live;
            let edges_ref: &[Edge] = &all_edges;
            let uf_ref = &uf;
            compact_map_into(pool, &arena, live.len(), &mut live_next, |i| {
                let ei = live_ref[i];
                let e = edges_ref[ei as usize];
                (uf_ref.find(e.u) != uf_ref.find(e.v)).then_some(ei)
            });
        }
        std::mem::swap(&mut live, &mut live_next);
        stats.edges_scanned += live.len() as u64;

        // Reset best cells for the next round — live components only. A
        // cell is read next round only as `find` of a surviving live
        // edge's endpoint (phases 1–2 guard on `ru != rv`), and no union
        // runs between here and then, so sweeping the new live set covers
        // every readable cell. Stores are idempotent; duplicate endpoints
        // are harmless.
        {
            let best_cells = as_atomic_u64(&mut best);
            let live_ref: &[u32] = &live;
            let edges_ref: &[Edge] = &all_edges;
            let uf_ref = &uf;
            parallel_for(pool, 0..live.len(), cfg, |i| {
                let e = edges_ref[live_ref[i] as usize];
                best_cells[uf_ref.find(e.u) as usize].store(MWE_EMPTY, Ordering::Relaxed);
                best_cells[uf_ref.find(e.v) as usize].store(MWE_EMPTY, Ordering::Relaxed);
            });
        }
        drop(hook_span);
    }
    on_round(round);

    stats.cas_retries = uf.cas_retries();
    stats.atomic_rmw = rmw.into_inner();
    arena.report_telemetry();
    MstResult::from_edges(n, chosen, stats)
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
    fn fig1_mst() {
        for pool in pools() {
            let mst = boruvka_par(&fig1(), &pool);
            assert_eq!(mst.total_weight, FIG1_MST_WEIGHT);
            assert_eq!(mst.edges.len(), 4);
        }
    }

    #[test]
    fn forest_support() {
        for pool in pools() {
            let msf = boruvka_par(&small_forest(), &pool);
            assert_eq!(msf.total_weight, SMALL_FOREST_MSF_WEIGHT);
            assert_eq!(msf.num_trees, 3);
        }
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for pool in pools() {
            for seed in 0..5 {
                let g = llp_graph::generators::erdos_renyi(300, 1200, seed);
                assert_eq!(
                    boruvka_par(&g, &pool).canonical_keys(),
                    kruskal(&g).canonical_keys(),
                    "seed {seed} threads {}",
                    pool.threads()
                );
            }
        }
    }

    #[test]
    fn road_graph_connected_tree() {
        let g = llp_graph::generators::road_network(
            llp_graph::generators::RoadParams::usa_like(20, 20, 9),
        );
        let pool = ThreadPool::new(4);
        let mst = boruvka_par(&g, &pool);
        assert!(mst.is_spanning_tree(g.num_vertices()));
        assert_eq!(
            mst.canonical_keys(),
            kruskal(&g).canonical_keys()
        );
    }

    #[test]
    fn empty_graph() {
        let pool = ThreadPool::new(2);
        let r = boruvka_par(&CsrGraph::empty(5), &pool);
        assert!(r.edges.is_empty());
        assert_eq!(r.num_trees, 5);
    }

    #[test]
    fn reports_synchronization_work() {
        let g = llp_graph::generators::erdos_renyi(200, 2000, 1);
        let pool = ThreadPool::new(2);
        let r = boruvka_par(&g, &pool);
        assert!(r.stats.atomic_rmw > 0, "baseline must count RMW traffic");
    }

    #[test]
    fn observer_sees_every_round_boundary() {
        let g = llp_graph::generators::erdos_renyi(300, 1500, 3);
        let pool = ThreadPool::new(2);
        let mut boundaries = Vec::new();
        let r = boruvka_par_observed(&g, &pool, |round| boundaries.push(round));
        // One call per round top plus the terminal call.
        assert_eq!(boundaries.len() as u64, r.stats.rounds + 1);
        assert!(boundaries.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn duplicate_weights_stay_canonical() {
        // All-equal weights force every MWE pick through the packed word's
        // exact-key tie-break path.
        let g = llp_graph::samples::all_equal_weights(16);
        for pool in pools() {
            assert_eq!(
                boruvka_par(&g, &pool).canonical_keys(),
                kruskal(&g).canonical_keys()
            );
        }
    }
}
