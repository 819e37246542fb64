//! Shared Boruvka contraction machinery (one LLP round of Algorithm 6),
//! built on the flat-memory round engine.
//!
//! The one contraction engine behind every LLP-Borůvka path:
//! [`crate::llp_boruvka`] runs rounds to exhaustion over a graph or a raw
//! edge list, [`crate::sharded`] runs it per shard of an out-of-core file,
//! and [`crate::dynamic`] rebuilds dirty components through it.
//!
//! ## Round 1 straight off the CSR
//!
//! Over a graph, [`Contraction::from_csr`] runs round 1 the way the paper's
//! step (a) states it, vertex-centric: every vertex picks its MWE arc from
//! its own adjacency ([`CsrGraph::min_arc`]), with no atomics and no edge
//! list. A choice is mutual when both endpoints chose the same
//! `(weight, endpoint pair)`, so verbatim-duplicate arcs still commit once.
//! Hooking, pointer jumping and renumbering are the later rounds' own
//! steps. One pass over the `u < v` arcs then writes round 2's
//! [`WorkEdge`]s and their original edges, for cross-component edges only
//! (a larger pool counts each chunk's survivors first, so every chunk
//! writes exactly its own parts of the two arrays). Identity arrays
//! therefore hold 32 B per edge that survives round 1 (`orig_edges` 16 B +
//! `work` 16 B), never the whole input.
//! [`Contraction::from_edge_list`] is the entry for callers that hold an
//! edge list; all its rounds run on the edge-centric engine below.
//!
//! Every round's pointer jumping is [`solve_parallel`], llp-core's
//! Algorithm 1 engine, on [`PointerJump`] over the round's parent array:
//! its sweeps count as `parallel_regions`, its advances as `pointer_jumps`.
//!
//! ## Flat-memory round engine
//!
//! Round state lives in plain `u64`/`u32` buffers leased from a
//! [`ScratchArena`] and viewed as atomics only inside the parallel regions
//! that need concurrency:
//!
//! * the per-vertex MWE cell is a single packed
//!   [`AtomicU64`](std::sync::atomic::AtomicU64) word —
//!   weight discriminant high, edge index low (see
//!   [`llp_runtime::atomics::mwe_propose`]); discriminant ties fall back
//!   to the total key `(EdgeKey, orig)` (see `tie_key`), so both endpoint
//!   cells of an edge always pick the same winner, even among
//!   verbatim-duplicate records;
//! * the survivor filter and endpoint relabel are fused into one
//!   count–scan–scatter pass into a double-buffered [`WorkEdge`] array
//!   (buffers swap between rounds, so steady-state rounds allocate
//!   nothing);
//! * the dense root renumbering writes every slot of a leased buffer in
//!   the one pass that reads the parent array: roots get `0..n_roots`,
//!   other vertices a sentinel, so the relabel steps index it safely.
//!
//! Because component counts shrink geometrically, every leased buffer fits
//! inside its round-1 incarnation. [`Contraction::from_csr`] leaves the
//! arena and the double buffer warm, so every [`Contraction::round`] after
//! it performs zero heap allocations (pinned by `tests/zero_alloc.rs`).

use crate::stats::AlgoStats;
use llp_core::instances::PointerJump;
use llp_core::solve_parallel;
use llp_graph::{CsrGraph, Edge, EdgeKey};
use llp_runtime::atomics::{as_atomic_u64, mwe_idx, mwe_propose, weight_hi32, MWE_EMPTY};
use llp_runtime::partition::{compact_map_into, count_buffer_capacity, ChunkCounts};
use llp_runtime::telemetry;
use llp_runtime::{
    parallel_for, split_by_lens, ParallelForConfig, ScratchArena, ScratchVec, ThreadPool,
};

/// `new_id` of a vertex that is not a root.
const NOT_ROOT: u32 = u32::MAX;

/// Renumbers the roots of the star forest `g` densely: returns a leased
/// buffer holding `0..n_roots` at the roots, in ascending root order, and
/// [`NOT_ROOT`] everywhere else, plus the root count.
fn renumber_roots<'a>(
    pool: &ThreadPool,
    arena: &'a ScratchArena,
    g: &[u32],
) -> (ScratchVec<'a, u32>, usize) {
    let n = g.len();
    let is_root = |v: usize| g[v] == v as u32;
    let mut new_id = arena.lease::<u32>(n);
    let count = |r: std::ops::Range<usize>| r.filter(|&v| is_root(v)).count();
    let Some(counts) = ChunkCounts::count(pool, arena, n, count) else {
        let mut k = 0;
        new_id.extend((0..n).map(|v| {
            if !is_root(v) {
                return NOT_ROOT;
            }
            k += 1;
            k - 1
        }));
        return (new_id, k as usize);
    };
    new_id.resize(n, NOT_ROOT);
    counts.emit(
        pool,
        new_id.chunks_mut(counts.chunk_len()),
        |r, base, part| {
            let mut k = base;
            for (v, id) in r.zip(part) {
                let root = is_root(v);
                *id = if root { k as u32 } else { NOT_ROOT };
                k += usize::from(root);
            }
            k - base
        },
    );
    (new_id, counts.total())
}

/// A contracted edge: endpoints in the current (renumbered) vertex space,
/// the index of the original edge it stands for, and the cached weight
/// discriminant (high 32 bits of the order-preserving weight encoding) so
/// the MWE propose fast path touches no other arrays.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkEdge {
    pub u: u32,
    pub v: u32,
    pub orig: u32,
    pub whi: u32,
}

/// The exact MWE tie key of work edge `wi`: its canonical [`EdgeKey`], then
/// its original-edge index. `EdgeKey` alone is not enough: verbatim
/// duplicate records share it, so under the proposal order "copy 1→u,
/// copy 0→u, copy 0→v, copy 1→v" the endpoint cells would keep different
/// copies, the choice would not be mutual, and both copies would enter
/// the forest. The original index makes the key a total order over edge
/// records, so every cell's winner is independent of proposal order.
/// The key is computed from `orig_edges`: only discriminant ties get here.
fn tie_key(orig_edges: &[Edge], work: &[WorkEdge], wi: u32) -> (EdgeKey, u32) {
    let orig = work[wi as usize].orig;
    (orig_edges[orig as usize].key(), orig)
}

/// No MWE arc: the vertex has no arc to another vertex.
const NO_ARC: u64 = u64::MAX;

/// Mutable contraction state threaded through rounds.
pub struct Contraction {
    /// Original edges of the live work edges (immutable identities for the
    /// final forest), indexed by [`WorkEdge::orig`].
    pub orig_edges: Vec<Edge>,
    /// Live contracted edges.
    pub work: Vec<WorkEdge>,
    /// Scatter target for the fused filter+relabel; swapped with `work`
    /// at the end of every round.
    work_next: Vec<WorkEdge>,
    /// Vertices in the current contracted space.
    pub n_cur: usize,
    /// Forest edges chosen so far, in commit order.
    pub chosen: Vec<Edge>,
    /// Reusable round-state buffers (MWE words, parents, renumber tables).
    pub arena: ScratchArena,
}

impl Contraction {
    /// Initial state over a graph, with round 1 already run straight off
    /// the CSR (see the module docs): vertex-centric MWE with no atomics,
    /// the usual hook, pointer jump and renumber, then one fused pass that
    /// emits round 2's cross-component edges. `stats` counts the round as
    /// [`Contraction::round`] would, minus the priority writes it never
    /// makes. The arena and the double buffer are left warm for round 2.
    ///
    /// The graph must have no self-loops (the [`CsrGraph`] contract);
    /// self-loop arcs are skipped all the same.
    pub fn from_csr(
        graph: &CsrGraph,
        pool: &ThreadPool,
        cfg: ParallelForConfig,
        stats: &mut AlgoStats,
    ) -> Self {
        let n = graph.num_vertices();
        let m = graph.num_edges();
        let mut c = Contraction {
            orig_edges: Vec::new(),
            work: Vec::new(),
            work_next: Vec::new(),
            n_cur: n,
            chosen: Vec::new(),
            arena: ScratchArena::new(),
        };
        if m == 0 {
            return c;
        }
        stats.rounds += 1;
        stats.parallel_regions += 4;
        stats.edges_scanned += m as u64;
        telemetry::record_value("live-edges", m as u64);
        telemetry::record_value("live-vertices", n as u64);
        let arena = &c.arena;

        // Step 1a: every vertex's MWE arc, read from its own adjacency.
        let mwe_span = telemetry::span("mwe-compute");
        let best = arena.lease_init_with::<u64, _>(pool, cfg, n, |v| {
            graph.min_arc(v as u32).map_or(NO_ARC, |a| a as u64)
        });
        // Later rounds lease a count buffer; shelve one now so round 2
        // finds it (the passes below may run serially and lease none).
        let count_buffer = count_buffer_capacity(pool);
        if count_buffer > 0 {
            drop(arena.lease::<usize>(count_buffer));
        }
        let best_ro: &[u64] = &best;

        // Step 1b: hook. The choice is mutual when `w` chose the same
        // `(weight bits, endpoint)` pair back; the smaller endpoint roots.
        let mut g = arena.lease_init_with::<u32, _>(pool, cfg, n, |v| {
            let a = best_ro[v];
            if a == NO_ARC {
                return v as u32; // isolated
            }
            let (w, wt) = graph.arc(a as usize);
            let b = best_ro[w as usize];
            let mutual = b != NO_ARC && {
                let (x, xt) = graph.arc(b as usize);
                x == v as u32 && xt.to_bits() == wt.to_bits()
            };
            if mutual && (v as u32) < w {
                v as u32
            } else {
                w
            }
        });

        // Step 1c: every non-root's MWE joins the forest as `{u < v}`, in
        // vertex order. `chosen` is sized here for the whole run (a forest
        // has fewer than `n` edges), so later rounds only append.
        {
            let g_ro: &[u32] = &g;
            compact_map_into(pool, arena, n, &mut c.chosen, |v| {
                (g_ro[v] != v as u32).then(|| {
                    let (w, wt) = graph.arc(best_ro[v] as usize);
                    let v = v as u32;
                    Edge::new(v.min(w), v.max(w), wt)
                })
            });
        }
        drop(mwe_span);

        // Step 2: pointer jumping, as in every round.
        let jump_span = telemetry::span("pointer-jump");
        let llp = solve_parallel(&PointerJump, &mut g, pool, cfg).expect("always feasible");
        stats.parallel_regions += llp.rounds;
        stats.pointer_jumps += llp.advances;
        drop(jump_span);

        // Step 3: renumber roots, then one pass over the `u < v` arcs
        // writes round 2's work edges and their original edges,
        // cross-component edges only. On one thread that pass is the only
        // sweep: output is reserved for all `m` edges and shrunk to the
        // survivors afterwards. A larger pool counts each chunk's
        // survivors first and hands every chunk its exact output parts.
        let contract_span = telemetry::span("contract");
        let g_ro: &[u32] = &g;
        let (new_id, n_roots) = renumber_roots(pool, arena, g_ro);
        let nid: &[u32] = &new_id;
        // Cross-component `u < v` arcs of vertex `u`, in arc order — the
        // order of `CsrGraph::edges`.
        let cross = move |u: usize| {
            let ru = g_ro[u];
            let (targets, weights) = graph.neighbor_slices(u as u32);
            targets
                .iter()
                .zip(weights)
                .filter(move |&(&v, _)| v as usize > u && g_ro[v as usize] != ru)
                .map(move |(&v, &w)| (ru, v, w))
        };
        // Survivor `k`: arc `u → v` of weight `w`, between roots `ru` and
        // `g[v]`, as its original edge and its round-2 work edge.
        let survivor = move |k: usize, u: usize, ru: u32, v: u32, w: f64| {
            let rv = g_ro[v as usize];
            let work = WorkEdge {
                u: nid[ru as usize],
                v: nid[rv as usize],
                orig: k as u32,
                whi: weight_hi32(w),
            };
            (Edge::new(u as u32, v, w), work)
        };
        let count = |r: std::ops::Range<usize>| r.map(|u| cross(u).count()).sum();
        let (orig_edges, work) = match ChunkCounts::count(pool, arena, n, count) {
            None => {
                let mut orig_edges: Vec<Edge> = Vec::with_capacity(m);
                let mut work: Vec<WorkEdge> = Vec::with_capacity(m);
                for u in 0..n {
                    for (ru, v, w) in cross(u) {
                        let (e, we) = survivor(orig_edges.len(), u, ru, v, w);
                        orig_edges.push(e);
                        work.push(we);
                    }
                }
                orig_edges.shrink_to_fit();
                work.shrink_to_fit();
                (orig_edges, work)
            }
            Some(counts) => {
                let mut orig_edges = vec![Edge::default(); counts.total()];
                let mut work = vec![WorkEdge::default(); counts.total()];
                let parts = split_by_lens(&mut orig_edges, counts.lens())
                    .zip(split_by_lens(&mut work, counts.lens()));
                counts.emit(pool, parts, |r, base, (orig_part, work_part)| {
                    let mut k = 0;
                    for u in r {
                        for (ru, v, w) in cross(u) {
                            (orig_part[k], work_part[k]) = survivor(base + k, u, ru, v, w);
                            k += 1;
                        }
                    }
                    k
                });
                (orig_edges, work)
            }
        };
        let m_next = work.len();
        drop(new_id);
        drop(g);
        drop(best);
        drop(contract_span);

        c.work_next = Vec::with_capacity(m_next);
        c.orig_edges = orig_edges;
        c.work = work;
        c.n_cur = n_roots;
        c
    }

    /// Initial state over a raw undirected edge list (no CSR required —
    /// the Boruvka family is edge-centric). Self-loops are skipped.
    /// Parallel edges, verbatim duplicates included, are allowed: the
    /// `(EdgeKey, orig)` tie key picks one record per endpoint pair.
    pub fn from_edge_list(n: usize, orig_edges: Vec<Edge>) -> Self {
        let work: Vec<WorkEdge> = orig_edges
            .iter()
            .enumerate()
            .filter(|(_, e)| !e.is_self_loop())
            .map(|(i, e)| WorkEdge {
                u: e.u,
                v: e.v,
                orig: i as u32,
                whi: weight_hi32(e.w),
            })
            .collect();
        Contraction {
            orig_edges,
            work,
            work_next: Vec::new(),
            n_cur: n,
            chosen: Vec::with_capacity(n.saturating_sub(1)),
            arena: ScratchArena::new(),
        }
    }

    /// True when no cross-component edges remain.
    pub fn is_done(&self) -> bool {
        self.work.is_empty()
    }

    /// Runs one full LLP-Boruvka round: per-vertex MWE selection with
    /// symmetry breaking, relaxed pointer jumping to stars, contraction.
    /// Adds the round's counters into `stats` (rounds, regions, scanned
    /// edges, priority writes, pointer jumps), so one `stats` can sum runs.
    pub fn round(&mut self, pool: &ThreadPool, cfg: ParallelForConfig, stats: &mut AlgoStats) {
        debug_assert!(!self.is_done());
        stats.rounds += 1;
        stats.parallel_regions += 4;
        stats.edges_scanned += self.work.len() as u64;
        let n_cur = self.n_cur;
        let m_cur = self.work.len();
        let arena = &self.arena;
        telemetry::record_value("live-edges", m_cur as u64);
        telemetry::record_value("live-vertices", n_cur as u64);

        // Step 1a: per-vertex minimum weight edge, one packed word per
        // vertex. The cached `whi` discriminant resolves almost every
        // propose without loading the key array; only hi-32 ties fall back
        // to the exact `(EdgeKey, orig)` comparison.
        let mwe_span = telemetry::span("mwe-compute");
        let mut best = arena.lease_filled::<u64>(pool, cfg, n_cur, MWE_EMPTY);
        {
            let best_cells = as_atomic_u64(&mut best);
            let work_ref: &[WorkEdge] = &self.work;
            let orig_ref: &[Edge] = &self.orig_edges;
            parallel_for(pool, 0..m_cur, cfg, |i| {
                let e = work_ref[i];
                let exact = |wi: u32| tie_key(orig_ref, work_ref, wi);
                mwe_propose(&best_cells[e.u as usize], e.whi, i as u32, exact);
                mwe_propose(&best_cells[e.v as usize], e.whi, i as u32, exact);
            });
        }
        // Two priority writes per live edge, counted once per round.
        stats.atomic_rmw += 2 * m_cur as u64;
        let best_ro: &[u64] = &best;

        // Step 1b: choose parents with symmetry breaking; G becomes a
        // rooted forest. Vertices with no incident edge root themselves.
        // A mutual choice is a full packed-word match: the cell's winning
        // index determines the whole word.
        let mut g = {
            let work_ref: &[WorkEdge] = &self.work;
            arena.lease_init_with::<u32, _>(pool, cfg, n_cur, |v| {
                let word = best_ro[v];
                if word == MWE_EMPTY {
                    return v as u32; // isolated in the contracted graph
                }
                let e = work_ref[mwe_idx(word) as usize];
                let w = if e.u == v as u32 { e.v } else { e.u };
                let mutual = best_ro[w as usize] == word;
                if mutual && (v as u32) < w {
                    v as u32 // break symmetry: the smaller endpoint roots
                } else {
                    w
                }
            })
        };

        // Step 1c: every non-root's MWE joins the forest (each chosen edge
        // exactly once: mutual pairs add from the non-root side only;
        // otherwise MWEs of distinct vertices are distinct edges). The
        // count–scan–scatter compaction emits in vertex order —
        // deterministic without the old bag-drain-and-sort.
        {
            let g_ro: &[u32] = &g;
            let work_ref: &[WorkEdge] = &self.work;
            let mut round_chosen = arena.lease::<u32>(n_cur);
            compact_map_into(pool, arena, n_cur, &mut round_chosen, |v| {
                (g_ro[v] != v as u32).then(|| work_ref[mwe_idx(best_ro[v]) as usize].orig)
            });
            let orig_ref: &[Edge] = &self.orig_edges;
            self.chosen
                .extend(round_chosen.iter().map(|&o| orig_ref[o as usize]));
        }

        drop(mwe_span);

        // Step 2: pointer jumping until G is a star forest (the inner LLP
        // instance, Lemma 3/4).
        let jump_span = telemetry::span("pointer-jump");
        let llp = solve_parallel(&PointerJump, &mut g, pool, cfg).expect("always feasible");
        stats.parallel_regions += llp.rounds;
        stats.pointer_jumps += llp.advances;
        drop(jump_span);

        // Step 3: contract. `g` now maps every vertex to its root.
        // Renumber roots densely, then filter + relabel surviving edges in
        // one fused pass into the double buffer.
        let _t = telemetry::span("contract");
        let g_ro: &[u32] = &g;
        let (new_id, n_roots) = renumber_roots(pool, arena, g_ro);
        {
            let new_id: &[u32] = &new_id;
            let work_ref: &[WorkEdge] = &self.work;
            compact_map_into(pool, arena, m_cur, &mut self.work_next, move |i| {
                let e = work_ref[i];
                let ru = g_ro[e.u as usize];
                let rv = g_ro[e.v as usize];
                (ru != rv).then(|| WorkEdge {
                    u: new_id[ru as usize],
                    v: new_id[rv as usize],
                    orig: e.orig,
                    whi: e.whi,
                })
            });
        }
        std::mem::swap(&mut self.work, &mut self.work_next);
        self.work_next.clear();
        self.n_cur = n_roots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_graph::samples::fig1;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cfg() -> ParallelForConfig {
        ParallelForConfig::with_grain(64)
    }

    #[test]
    fn csr_round_one_on_fig1_contracts_to_two_vertices() {
        let g = fig1();
        let pool = ThreadPool::new(2);
        let mut stats = AlgoStats::default();
        let mut c = Contraction::from_csr(&g, &pool, cfg(), &mut stats);
        // Paper trace: after round 1, components {a,b,c} and {d,e}, edges
        // {4, 3, 2} chosen, and the three edges 7, 9, 11 cross.
        assert_eq!(stats.rounds, 1);
        assert_eq!(c.n_cur, 2);
        let ws: Vec<f64> = c.chosen.iter().map(|e| e.w).collect();
        assert_eq!(ws, vec![4.0, 3.0, 2.0]);
        assert_eq!(c.work.len(), 3);
        assert!(!c.is_done());
        c.round(&pool, cfg(), &mut stats);
        assert!(c.is_done());
        assert_eq!(c.chosen.len(), 4);
        // Only round 2 made priority writes: two per live edge.
        assert_eq!(stats.atomic_rmw, 6);
    }

    #[test]
    fn csr_round_one_emits_cross_edges_in_edge_order() {
        let g = llp_graph::generators::erdos_renyi(200, 700, 5);
        let pool = ThreadPool::new(1);
        let c = Contraction::from_csr(&g, &pool, cfg(), &mut AlgoStats::default());
        // The survivors are a subsequence of `edges()`, each carrying its
        // own index into `orig_edges` and its weight discriminant.
        let all: Vec<Edge> = g.edges().collect();
        let mut it = all.iter();
        for (k, (w, e)) in c.work.iter().zip(&c.orig_edges).enumerate() {
            assert!(it.any(|x| x == e), "survivor {k} out of edge order");
            assert_eq!(w.orig as usize, k);
            assert_eq!(w.whi, weight_hi32(e.w));
            assert_ne!(w.u, w.v, "survivor {k} is intra-component");
        }
        assert_eq!(c.work.len(), c.orig_edges.len());
    }

    #[test]
    fn rounds_preserve_edge_identity() {
        let g = llp_graph::generators::erdos_renyi(80, 300, 4);
        let pool = ThreadPool::new(2);
        let mut stats = AlgoStats::default();
        let mut c = Contraction::from_csr(&g, &pool, cfg(), &mut stats);
        while !c.is_done() {
            c.round(&pool, cfg(), &mut stats);
        }
        // Every chosen edge exists in the input graph.
        for e in &c.chosen {
            assert!(g.neighbors(e.u).any(|(v, w)| v == e.v && w == e.w));
        }
    }

    #[test]
    fn duplicate_records_pick_the_same_winner_in_both_endpoint_cells() {
        // Two verbatim copies of edge (0, 1): equal discriminants and equal
        // EdgeKeys. Replay the interleaving in which each endpoint cell
        // sees the copies in opposite orders; the cells must still agree,
        // or the hook step would commit both copies.
        let c = Contraction::from_edge_list(2, vec![Edge::new(0, 1, 1.0); 2]);
        let exact = |wi: u32| tie_key(&c.orig_edges, &c.work, wi);
        let whi = c.work[0].whi;
        let (u, v) = (AtomicU64::new(MWE_EMPTY), AtomicU64::new(MWE_EMPTY));
        mwe_propose(&u, whi, 1, exact);
        mwe_propose(&u, whi, 0, exact);
        mwe_propose(&v, whi, 0, exact);
        mwe_propose(&v, whi, 1, exact);
        let (wu, wv) = (u.load(Ordering::Relaxed), v.load(Ordering::Relaxed));
        assert_eq!(wu, wv, "endpoint cells kept different copies");
        assert_eq!(c.work[mwe_idx(wu) as usize].orig, 0);
    }

    #[test]
    fn work_edges_cache_their_weight_discriminant() {
        let g = fig1();
        let c = Contraction::from_edge_list(g.num_vertices(), g.edges().collect());
        for e in &c.work {
            assert_eq!(e.whi, weight_hi32(c.orig_edges[e.orig as usize].w));
        }
    }

    #[test]
    fn steady_state_rounds_do_not_grow_the_arena() {
        // The CSR constructor warms the arena and the double buffer, so no
        // round after it grows either.
        let g = llp_graph::generators::erdos_renyi(3000, 20_000, 7);
        let pool = ThreadPool::new(4);
        let cfg = ParallelForConfig::with_grain(256);
        let mut stats = AlgoStats::default();
        let mut c = Contraction::from_csr(&g, &pool, cfg, &mut stats);
        let footprint = c.arena.footprint_bytes();
        let caps = (
            c.work.capacity(),
            c.work_next.capacity(),
            c.chosen.capacity(),
        );
        assert!(!c.is_done());
        while !c.is_done() {
            c.round(&pool, cfg, &mut stats);
            assert_eq!(
                c.arena.footprint_bytes(),
                footprint,
                "arena grew after the CSR round"
            );
            let now = (
                c.work.capacity(),
                c.work_next.capacity(),
                c.chosen.capacity(),
            );
            assert_eq!(
                (now.0.max(now.1), now.2),
                (caps.0.max(caps.1), caps.2),
                "double buffer or forest reallocated after the CSR round"
            );
        }
        assert!(c.arena.reuse_count() > 0);
    }
}
