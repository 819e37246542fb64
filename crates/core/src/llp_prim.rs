//! LLP-Prim (the paper's Algorithm 5: "Early Fixing").
//!
//! Prim's algorithm fixes exactly one vertex per heap extraction. The LLP
//! formulation (Algorithm 4) shows a vertex may be *fixed early*, without
//! ever entering the heap, whenever it is joined to an already-fixed vertex
//! `z` by an edge that is the **minimum-weight edge (MWE) of either
//! endpoint** — such an edge is always in the MST, and `z` being fixed
//! makes it the new vertex's parent edge.
//!
//! The implementation keeps a bag `R` of freshly fixed vertices. Processing
//! `R` cascades: fixing `k` can make further neighbours fixable, all
//! without heap traffic, and all items of `R` can be processed **in
//! parallel**. Relaxations that do not early-fix are collected in a side
//! set `Q`; only when `R` runs dry is `Q` flushed into the heap and a
//! single minimum extracted (the classic Prim step), reseeding `R`.
//!
//! Invariants making any schedule correct (and the output canonical):
//! * every early-fix edge is some vertex's MWE, hence an MST edge;
//! * every heap fix extracts the minimum-key cut edge between fixed and
//!   non-fixed vertices, an MST edge by the cut property;
//! * each fix claims a distinct vertex (CAS in the parallel version), so
//!   `n - 1` distinct MST edges are chosen: exactly the canonical MST.
//!
//! [`llp_prim_seq`] is the paper's *LLP-Prim (1T)*: the same algorithm with
//! plain arrays and no atomics (Fig. 2). [`llp_prim_par`] processes `R` as
//! parallel frontiers (Figs 3–4).

use crate::heap::LazyHeap;
use crate::result::{check_root, MstError, MstResult};
use crate::stats::AlgoStats;
use llp_graph::{CsrGraph, Edge, EdgeKey, VertexId};
use llp_runtime::atomics::{f64_to_ordered, mwe_idx, mwe_propose, weight_hi32, MWE_EMPTY};
use llp_runtime::telemetry;
use llp_runtime::{
    parallel_for_chunks_ctx, parallel_for_chunks_mut, Bag, ParallelForConfig, ThreadPool,
};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// LLP-Prim, single-threaded ("LLP-Prim (1T)" in the paper's figures).
///
/// Computes the per-vertex MWE table first, under the `mwe-compute`
/// telemetry span: the paper computes it "when the graph is input" and
/// leaves it out of LLP-Prim's time, so that span is what to subtract.
///
/// ```
/// use llp_mst::llp_prim::llp_prim_seq;
///
/// let graph = llp_graph::samples::fig1();
/// let mst = llp_prim_seq(&graph, 0).unwrap();
/// assert_eq!(mst.total_weight, 16.0); // the paper's {2, 3, 4, 7}
/// assert_eq!(mst.stats.early_fixes, 3); // c, b, e never touch the heap
/// ```
pub fn llp_prim_seq(graph: &CsrGraph, root: VertexId) -> Result<MstResult, MstError> {
    let mwe: Vec<EdgeKey> = {
        let _t = telemetry::span("mwe-compute");
        (0..graph.num_vertices() as VertexId)
            .map(|v| graph.min_edge(v).unwrap_or_else(EdgeKey::infinite))
            .collect()
    };
    llp_prim_seq_with_mwe(graph, root, &mwe)
}

/// LLP-Prim (1T) given the minimum-weight-edge table (`mwe[v] =` the
/// canonical minimum edge adjacent to `v`, or [`EdgeKey::infinite`] for
/// isolated vertices).
fn llp_prim_seq_with_mwe(
    graph: &CsrGraph,
    root: VertexId,
    mwe: &[EdgeKey],
) -> Result<MstResult, MstError> {
    check_root(graph, root)?;
    let n = graph.num_vertices();
    assert_eq!(mwe.len(), n, "mwe table must cover every vertex");
    let mut stats = AlgoStats::default();

    let mut dist: Vec<EdgeKey> = vec![EdgeKey::infinite(); n];
    let mut fixed = vec![false; n];
    let mut edges: Vec<Edge> = Vec::with_capacity(n - 1);
    let mut r_set: Vec<VertexId> = Vec::new();
    let mut q_set: Vec<VertexId> = Vec::new();
    let mut heap: LazyHeap<EdgeKey> = LazyHeap::new();

    fixed[root as usize] = true;
    let mut fixed_count = 1usize;
    r_set.push(root);

    loop {
        // Drain R: process freshly fixed vertices, cascading early fixes.
        {
            let _t = telemetry::span("frontier-wave");
            while let Some(j) = r_set.pop() {
                for (k, w) in graph.neighbors(j) {
                    stats.edges_scanned += 1;
                    if fixed[k as usize] {
                        continue;
                    }
                    let key = EdgeKey::new(w, j, k);
                    if key == mwe[j as usize] || key == mwe[k as usize] {
                        // Early fix: an MWE into the fixed set is a tree edge.
                        fixed[k as usize] = true;
                        fixed_count += 1;
                        stats.early_fixes += 1;
                        edges.push(Edge::new(j, k, w));
                        r_set.push(k);
                    } else if key < dist[k as usize] {
                        dist[k as usize] = key;
                        q_set.push(k);
                    }
                }
            }
        }

        // Flush Q into the heap (deferred insertions: vertices fixed while
        // in Q never touch the heap — the work LLP-Prim saves over Prim).
        {
            let _t = telemetry::span("q-flush");
            for k in q_set.drain(..) {
                if !fixed[k as usize] {
                    heap.push(dist[k as usize], k);
                }
            }
        }

        // Classic Prim step: fix the nearest non-fixed vertex.
        let _t = telemetry::span("heap-extract");
        let mut reseeded = false;
        while let Some((key, k)) = heap.pop() {
            if fixed[k as usize] {
                continue; // stale entry
            }
            debug_assert_eq!(key, dist[k as usize]);
            fixed[k as usize] = true;
            fixed_count += 1;
            stats.heap_fixes += 1;
            edges.push(Edge::new(key.other(k), k, key.weight()));
            r_set.push(k);
            reseeded = true;
            break;
        }
        drop(_t);
        if !reseeded {
            break;
        }
    }

    stats.heap_pushes = heap.pushes;
    stats.heap_pops = heap.pops;
    if fixed_count < n {
        return Err(MstError::Disconnected {
            reached: fixed_count,
            total: n,
        });
    }
    Ok(MstResult::from_edges(n, edges, stats))
}

/// LLP-Prim, parallel: the `R` set is processed as parallel frontiers.
///
/// Per-vertex state is lock-free:
/// * `fixed[k]` — claimed once via CAS (the *advance* of Algorithm 4);
/// * `best[k]` — the best incoming arc so far, a packed MWE word (weight
///   discriminant high, arc index low; see [`mwe_propose`]) whose exact
///   key `(weight, arc source)` orders arcs into `k` exactly like
///   [`EdgeKey`], so relaxation races resolve to the canonical parent;
/// * `parent_arc[k]` — written only by k's unique fixer.
///
/// The heap is touched only between frontier waves, by one thread — the
/// paper's `Q`-batching ("to avoid the expense of inserting these vertices
/// in the heap... only when we are done processing R, we call
/// H.insertOrAdjust on vertices in Q").
///
/// # Panics
/// Panics when the graph has `u32::MAX` arcs or more: an arc index must fit
/// the packed word's 32-bit index half.
pub fn llp_prim_par(
    graph: &CsrGraph,
    root: VertexId,
    pool: &ThreadPool,
) -> Result<MstResult, MstError> {
    let mwe: Vec<EdgeKey> = {
        let _t = telemetry::span("mwe-compute");
        graph.compute_mwe(pool)
    };
    llp_prim_par_with_mwe(graph, root, pool, &mwe)
}

/// Parallel LLP-Prim given the MWE table (see [`llp_prim_seq_with_mwe`]).
fn llp_prim_par_with_mwe(
    graph: &CsrGraph,
    root: VertexId,
    pool: &ThreadPool,
    mwe: &[EdgeKey],
) -> Result<MstResult, MstError> {
    check_root(graph, root)?;
    let n = graph.num_vertices();
    assert_eq!(mwe.len(), n, "mwe table must cover every vertex");
    assert!(
        u32::try_from(graph.num_arcs()).is_ok(),
        "{} arcs: an arc index must fit a packed MWE word's 32-bit index half",
        graph.num_arcs()
    );
    let mut stats = AlgoStats::default();
    let cfg = ParallelForConfig::with_grain(64);

    // arc_source[a] = the vertex whose adjacency list contains arc `a`;
    // lets the argmin key be computed in O(1) from an arc index.
    let arc_source: Vec<VertexId> = build_arc_sources(graph, pool);

    let fixed: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let best: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(MWE_EMPTY)).collect();
    // Read only at fixed non-root vertices, after their fixer wrote it.
    let parent_arc: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    let rmw = AtomicU64::new(0);
    let scans = AtomicU64::new(0);
    let early = AtomicU64::new(0);

    let mut frontier: Vec<VertexId> = Vec::new();
    let mut q_buf: Vec<VertexId> = Vec::new();
    let mut heap: LazyHeap<EdgeKey> = LazyHeap::new();
    let mut heap_fixes = 0u64;
    // Reused across waves: allocating bags per wave would dominate the many
    // short rounds on sparse graphs.
    let next: Bag<VertexId> = Bag::new(pool.threads());
    let q_bag: Bag<VertexId> = Bag::new(pool.threads());
    let mut q_wave: Vec<VertexId> = Vec::new();

    fixed[root as usize].store(true, Ordering::Relaxed);
    frontier.push(root);

    let key_of_arc = |a: u32| -> EdgeKey {
        let a = a as usize;
        let (targets, weights) = graph.arc(a);
        EdgeKey::new(weights, arc_source[a], targets)
    };

    loop {
        // Parallel frontier waves, cascading early fixes.
        while !frontier.is_empty() {
            stats.parallel_regions += 1;
            {
                let _t = telemetry::span("frontier-wave");
                let frontier_ref = &frontier;
                let fixed_ref = &fixed;
                let best_ref = &best;
                let parent_ref = &parent_arc;
                let mwe_ref = &mwe;
                let next_ref = &next;
                let q_ref = &q_bag;
                let rmw_ref = &rmw;
                let scans_ref = &scans;
                let early_ref = &early;
                let arc_source_ref = &arc_source;
                // The exact key of a packed word's arc: `EdgeKey` order
                // among the arcs into one vertex.
                let exact = |arc: u32| {
                    let (_, wt) = graph.arc(arc as usize);
                    (f64_to_ordered(wt), arc_source_ref[arc as usize])
                };
                parallel_for_chunks_ctx(pool, 0..frontier.len(), cfg, |ctx, chunk| {
                    let seg = ctx.tid; // own bag segment: uncontended pushes
                    let (mut local_scans, mut local_rmw, mut local_early) = (0u64, 0u64, 0u64);
                    for fi in chunk {
                        let j = frontier_ref[fi];
                        let (lo, hi) = graph.arc_range(j);
                        for a in lo..hi {
                            local_scans += 1;
                            let (k, w) = graph.arc(a);
                            if fixed_ref[k as usize].load(Ordering::Relaxed) {
                                continue;
                            }
                            // One atomic read-modify-write per relaxation:
                            // the fixing CAS or the priority write.
                            local_rmw += 1;
                            let key = EdgeKey::new(w, j, k);
                            if key == mwe_ref[j as usize] || key == mwe_ref[k as usize] {
                                if fixed_ref[k as usize]
                                    .compare_exchange(
                                        false,
                                        true,
                                        Ordering::AcqRel,
                                        Ordering::Relaxed,
                                    )
                                    .is_ok()
                                {
                                    parent_ref[k as usize].store(a as u32, Ordering::Release);
                                    local_early += 1;
                                    next_ref.push(seg, k);
                                }
                            } else if mwe_propose(
                                &best_ref[k as usize],
                                weight_hi32(w),
                                a as u32,
                                exact,
                            ) {
                                q_ref.push(seg, k);
                            }
                        }
                    }
                    // Each chunk publishes its counts once.
                    scans_ref.fetch_add(local_scans, Ordering::Relaxed);
                    rmw_ref.fetch_add(local_rmw, Ordering::Relaxed);
                    early_ref.fetch_add(local_early, Ordering::Relaxed);
                });
            }
            next.drain_into(&mut frontier);
            // Q is flushed lazily: remember the candidates for heap entry.
            q_bag.drain_into(&mut q_wave);
            q_buf.append(&mut q_wave);
        }

        // Single-threaded heap phase (the paper's Q flush + one extraction).
        {
            let _t = telemetry::span("q-flush");
            for &k in &q_buf {
                if !fixed[k as usize].load(Ordering::Relaxed) {
                    let word = best[k as usize].load(Ordering::Acquire);
                    if word == MWE_EMPTY {
                        // k was proposed by a thread whose `mwe_propose`
                        // lost every round *and* whose winning competitor's
                        // vertex got early-fixed later: nothing to insert.
                        // (Not reachable under the current propose/push
                        // protocol, but a stale entry must never turn into
                        // an out-of-bounds arc read in release builds.)
                        continue;
                    }
                    heap.push(key_of_arc(mwe_idx(word)), k);
                }
            }
            q_buf.clear();
        }

        let _t = telemetry::span("heap-extract");
        let mut reseeded = false;
        while let Some((key, k)) = heap.pop() {
            if fixed[k as usize].load(Ordering::Relaxed) {
                continue;
            }
            let word = best[k as usize].load(Ordering::Acquire);
            if word == MWE_EMPTY {
                // No surviving proposal for k (see the flush guard above):
                // drop the entry rather than dereference an empty cell.
                continue;
            }
            let arc = mwe_idx(word);
            // The heap key was computed when k was flushed; `best[k]` may
            // have been improved by a *later* wave whose flush pushed a
            // second, fresher entry. Never trust a popped key without
            // re-reading `best[k]`: re-push under the fresh key and let the
            // heap re-order instead of fixing k through a stale arc.
            let fresh = key_of_arc(arc);
            if key != fresh {
                heap.push(fresh, k);
                continue;
            }
            fixed[k as usize].store(true, Ordering::Relaxed);
            parent_arc[k as usize].store(arc, Ordering::Relaxed);
            heap_fixes += 1;
            frontier.push(k);
            reseeded = true;
            break;
        }
        drop(_t);
        if !reseeded {
            break;
        }
    }

    // Collect the tree (single-threaded epilogue; all writes are visible
    // after the final pool barrier).
    let mut edges: Vec<Edge> = Vec::with_capacity(n - 1);
    let mut fixed_count = 0usize;
    for v in 0..n {
        if fixed[v].load(Ordering::Relaxed) {
            fixed_count += 1;
            if v as VertexId != root {
                let arc = parent_arc[v].load(Ordering::Relaxed) as usize;
                let (_, w) = graph.arc(arc);
                edges.push(Edge::new(arc_source[arc], v as VertexId, w));
            }
        }
    }
    if fixed_count < n {
        return Err(MstError::Disconnected {
            reached: fixed_count,
            total: n,
        });
    }

    stats.heap_pushes = heap.pushes;
    stats.heap_pops = heap.pops;
    stats.heap_fixes = heap_fixes;
    stats.early_fixes = early.into_inner();
    stats.edges_scanned = scans.into_inner();
    stats.atomic_rmw = rmw.into_inner();
    Ok(MstResult::from_edges(n, edges, stats))
}

/// Builds the arc → source-vertex table.
///
/// The fill is memory-bound, so it parallelises over *arc* chunks rather
/// than vertices (vertex chunks would be badly skewed on power-law
/// graphs). Each chunk locates its first source vertex by binary search
/// on the CSR offsets, then walks the ranges forward through its own part
/// of `out`.
fn build_arc_sources(graph: &CsrGraph, pool: &ThreadPool) -> Vec<VertexId> {
    let mut out = vec![0 as VertexId; graph.num_arcs()];
    let n = graph.num_vertices();
    parallel_for_chunks_mut(
        pool,
        &mut out,
        ParallelForConfig::with_grain(4096),
        |start, part| {
            // First vertex whose arc range extends past the chunk start.
            let (mut lo_v, mut hi_v) = (0usize, n);
            while lo_v < hi_v {
                let mid = lo_v + (hi_v - lo_v) / 2;
                if graph.arc_range(mid as VertexId).1 <= start {
                    lo_v = mid + 1;
                } else {
                    hi_v = mid;
                }
            }
            // Arc ranges are consecutive, so each vertex fills the next
            // `[a, stop)` of the part (empty ranges fill nothing).
            let end = start + part.len();
            let (mut v, mut a) = (lo_v, start);
            while a < end {
                let stop = graph.arc_range(v as VertexId).1.min(end);
                part[a - start..stop - start].fill(v as VertexId);
                a = stop;
                v += 1;
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal::kruskal;
    use crate::prim::prim_lazy;
    use llp_graph::samples::{fig1, FIG1_MST_WEIGHT};

    #[test]
    fn fig1_sequential_matches_paper() {
        let mst = llp_prim_seq(&fig1(), 0).unwrap();
        assert_eq!(mst.total_weight, FIG1_MST_WEIGHT);
        let mut ws: Vec<f64> = mst.edges.iter().map(|e| e.w).collect();
        ws.sort_by(f64::total_cmp);
        assert_eq!(ws, vec![2.0, 3.0, 4.0, 7.0]);
        // Paper trace: c, b, e fixed early; only d goes through the heap.
        assert_eq!(mst.stats.early_fixes, 3);
        assert_eq!(mst.stats.heap_fixes, 1);
    }

    #[test]
    fn fig1_parallel_matches() {
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let mst = llp_prim_par(&fig1(), 0, &pool).unwrap();
            assert_eq!(mst.total_weight, FIG1_MST_WEIGHT);
            assert_eq!(mst.stats.early_fixes, 3);
        }
    }

    #[test]
    fn matches_prim_on_random_connected_graphs() {
        let pool = ThreadPool::new(4);
        for seed in 0..8 {
            let g = llp_graph::generators::road_network(
                llp_graph::generators::RoadParams::usa_like(15, 15, seed),
            );
            let reference = prim_lazy(&g, 0).unwrap().canonical_keys();
            assert_eq!(
                llp_prim_seq(&g, 0).unwrap().canonical_keys(),
                reference,
                "seq seed {seed}"
            );
            assert_eq!(
                llp_prim_par(&g, 0, &pool).unwrap().canonical_keys(),
                reference,
                "par seed {seed}"
            );
        }
    }

    #[test]
    fn rmat_graphs_with_kruskal_oracle() {
        let pool = ThreadPool::new(4);
        for seed in 0..4 {
            let g = llp_graph::generators::rmat(
                llp_graph::generators::RmatParams::graph500(8, 16, seed),
            );
            let oracle = kruskal(&g);
            if oracle.num_trees == 1 {
                assert_eq!(
                    llp_prim_par(&g, 0, &pool).unwrap().canonical_keys(),
                    oracle.canonical_keys(),
                    "seed {seed}"
                );
            } else {
                assert!(llp_prim_par(&g, 0, &pool).is_err(), "seed {seed}");
            }
        }
    }

    #[test]
    fn root_invariance() {
        let g = fig1();
        let pool = ThreadPool::new(2);
        let base = llp_prim_seq(&g, 0).unwrap().canonical_keys();
        for root in 1..5 {
            assert_eq!(llp_prim_seq(&g, root).unwrap().canonical_keys(), base);
            assert_eq!(
                llp_prim_par(&g, root, &pool).unwrap().canonical_keys(),
                base
            );
        }
    }

    #[test]
    fn early_fixing_reduces_heap_traffic_vs_prim() {
        // The headline mechanism: LLP-Prim must do strictly fewer heap
        // operations than classic Prim on any nontrivial graph.
        for seed in 0..4 {
            let g = llp_graph::generators::road_network(
                llp_graph::generators::RoadParams::usa_like(40, 40, seed),
            );
            let prim = prim_lazy(&g, 0).unwrap();
            let llp = llp_prim_seq(&g, 0).unwrap();
            assert!(
                llp.stats.heap_ops() < prim.stats.heap_ops(),
                "seed {seed}: llp {} vs prim {}",
                llp.stats.heap_ops(),
                prim.stats.heap_ops()
            );
            assert!(llp.stats.early_fixes > 0);
        }
    }

    #[test]
    fn disconnected_graph_reports_error() {
        let g = CsrGraph::from_edges(4, &[Edge::new(0, 1, 1.0), Edge::new(2, 3, 1.0)]);
        assert!(matches!(
            llp_prim_seq(&g, 0),
            Err(MstError::Disconnected {
                reached: 2,
                total: 4
            })
        ));
        let pool = ThreadPool::new(2);
        assert!(llp_prim_par(&g, 0, &pool).is_err());
    }

    #[test]
    fn singleton_and_invalid_inputs() {
        assert!(llp_prim_seq(&CsrGraph::empty(1), 0).unwrap().edges.is_empty());
        assert_eq!(
            llp_prim_seq(&CsrGraph::empty(0), 0),
            Err(MstError::EmptyGraph)
        );
        assert!(matches!(
            llp_prim_seq(&CsrGraph::empty(2), 9),
            Err(MstError::InvalidRoot { .. })
        ));
    }

    #[test]
    fn equal_weights_resolve_canonically() {
        let g = llp_graph::samples::all_equal_weights(7);
        let pool = ThreadPool::new(4);
        let oracle = kruskal(&g).canonical_keys();
        assert_eq!(llp_prim_seq(&g, 2).unwrap().canonical_keys(), oracle);
        assert_eq!(llp_prim_par(&g, 2, &pool).unwrap().canonical_keys(), oracle);
    }

    #[test]
    fn arc_sources_parallel_fill_matches_sequential() {
        // Reference: the obvious sequential per-vertex fill.
        fn sequential(graph: &CsrGraph) -> Vec<llp_graph::VertexId> {
            let mut out = vec![0; graph.num_arcs()];
            for v in 0..graph.num_vertices() as u32 {
                let (lo, hi) = graph.arc_range(v);
                for slot in &mut out[lo..hi] {
                    *slot = v;
                }
            }
            out
        }
        use llp_runtime::rng::SmallRng;
        for seed in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            // Mix of shapes, including graphs with many isolated vertices
            // (empty CSR ranges) and skewed degrees.
            let n = rng.gen_range(1usize..300);
            let m = rng.gen_range(0usize..900);
            let mut b = llp_graph::GraphBuilder::new(n);
            for _ in 0..m {
                let u = rng.gen_range(0u32..n as u32);
                let hub = rng.gen_bool(0.3);
                let v = if hub { 0 } else { rng.gen_range(0u32..n as u32) };
                if u != v {
                    b.add_edge(u, v, rng.gen_range(1u32..50) as f64);
                }
            }
            let g = b.build();
            let want = sequential(&g);
            for threads in [1, 2, 4, 7] {
                let pool = ThreadPool::new(threads);
                assert_eq!(
                    build_arc_sources(&g, &pool),
                    want,
                    "seed {seed} threads {threads}"
                );
            }
        }
        // Degenerate shapes.
        let empty = CsrGraph::empty(5);
        let pool = ThreadPool::new(3);
        assert!(build_arc_sources(&empty, &pool).is_empty());
    }

    #[test]
    fn contention_stress_equal_weight_graphs_stay_canonical() {
        // Adversarial input for the CAS protocol: every weight equal, so
        // every relaxation is a tie broken purely by (weight, source,
        // target) — the maximum number of propose_min_by races per vertex.
        // Oversubscribed pools (threads >> cores) force preemption inside
        // the frontier wave, the interleaving the release-mode heap-phase
        // guards exist for.
        let complete = llp_graph::samples::all_equal_weights(24);
        let grid = {
            let mut b = llp_graph::GraphBuilder::new(64);
            for r in 0..8u32 {
                for c in 0..8u32 {
                    let v = r * 8 + c;
                    if c + 1 < 8 {
                        b.add_edge(v, v + 1, 1.0);
                    }
                    if r + 1 < 8 {
                        b.add_edge(v, v + 8, 1.0);
                    }
                }
            }
            b.build()
        };
        for g in [&complete, &grid] {
            let oracle = kruskal(g).canonical_keys();
            for threads in [2, 4, 8, 16] {
                let pool = ThreadPool::new(threads);
                for rep in 0..8 {
                    let got = llp_prim_par(g, 0, &pool).unwrap();
                    assert_eq!(
                        got.canonical_keys(),
                        oracle,
                        "threads {threads} rep {rep}"
                    );
                    // Accounting survives contention: each non-root vertex
                    // fixed exactly once, by exactly one mechanism.
                    assert_eq!(
                        got.stats.early_fixes + got.stats.heap_fixes,
                        (g.num_vertices() - 1) as u64,
                        "threads {threads} rep {rep}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_deterministic_across_schedules() {
        let g = llp_graph::generators::erdos_renyi(400, 2400, 5);
        if kruskal(&g).num_trees != 1 {
            return; // want a connected instance for this seed
        }
        let oracle = kruskal(&g).canonical_keys();
        for threads in [1, 2, 3, 4] {
            let pool = ThreadPool::new(threads);
            for _ in 0..3 {
                assert_eq!(
                    llp_prim_par(&g, 0, &pool).unwrap().canonical_keys(),
                    oracle,
                    "threads {threads}"
                );
            }
        }
    }
}
