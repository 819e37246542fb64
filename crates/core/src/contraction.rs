//! Shared Boruvka contraction machinery (one LLP round of Algorithm 6),
//! built on the flat-memory round engine.
//!
//! The one contraction engine behind every LLP-Borůvka path:
//! [`crate::llp_boruvka`] runs rounds to exhaustion over a graph or a raw
//! edge list, [`crate::sharded`] runs it per shard of an out-of-core file,
//! and [`crate::dynamic`] rebuilds dirty components through it.
//!
//! ## Flat-memory round engine
//!
//! Round state lives in plain `u64`/`u32` buffers leased from a
//! [`ScratchArena`] and viewed as atomics only inside the parallel regions
//! that need concurrency:
//!
//! * the per-vertex MWE cell is a single packed [`AtomicU64`] word —
//!   weight discriminant high, edge index low (see
//!   [`llp_runtime::atomics::mwe_propose`]) — replacing the old two-word
//!   `AtomicIndexMin` protocol whose key function chased `work -> keys`
//!   through two extra cache lines per propose; discriminant ties fall
//!   back to the total key `(EdgeKey, orig)` (see `tie_key`), so both
//!   endpoint cells of an edge always pick the same winner, even among
//!   verbatim-duplicate records;
//! * the survivor filter and endpoint relabel are fused into one
//!   count–scan–scatter pass into a double-buffered [`WorkEdge`] array
//!   (buffers swap between rounds, so steady-state rounds allocate
//!   nothing);
//! * the dense root renumbering writes only root slots of an uninitialised
//!   leased buffer — no `u32::MAX` prefill pass.
//!
//! Because component counts shrink geometrically, every leased buffer fits
//! inside its round-1 incarnation; from round 2 on the engine performs zero
//! heap allocations (pinned by `tests/zero_alloc.rs`).

use crate::stats::AlgoStats;
use llp_graph::{CsrGraph, Edge, EdgeKey};
use llp_runtime::atomics::{as_atomic_u32, as_atomic_u64, mwe_idx, mwe_propose, weight_hi32, MWE_EMPTY};
use llp_runtime::partition::{compact_map_into, count_scan_chunks};
use llp_runtime::telemetry;
use llp_runtime::{parallel_for, ParallelForConfig, ScratchArena, ScratchVec, SendPtr, ThreadPool};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Pointer-jumps the rooted forest `g` to a star forest with relaxed
/// atomics (the inner LLP instance, Lemma 3/4): every vertex repeatedly
/// adopts its grandparent until the whole forest is flat. Assignments are
/// counted into `jumps`; each sweep is one parallel region in `stats`.
fn pointer_jump_to_roots(
    pool: &ThreadPool,
    cfg: ParallelForConfig,
    g: &mut [u32],
    jumps: &AtomicU64,
    stats: &mut AlgoStats,
) {
    let n = g.len();
    let g_cells = as_atomic_u32(g);
    loop {
        stats.parallel_regions += 1;
        let changed = AtomicBool::new(false);
        {
            let changed_ref = &changed;
            parallel_for(pool, 0..n, cfg, |j| {
                let p = g_cells[j].load(Ordering::Relaxed);
                let gp = g_cells[p as usize].load(Ordering::Relaxed);
                if p != gp {
                    g_cells[j].store(gp, Ordering::Relaxed);
                    jumps.fetch_add(1, Ordering::Relaxed);
                    changed_ref.store(true, Ordering::Relaxed);
                }
            });
        }
        if !changed.load(Ordering::Relaxed) {
            break;
        }
    }
}

/// Renumbers the roots of the star forest `g` densely: returns a leased
/// buffer whose *root* slots hold `0..n_roots` in ascending root order,
/// plus the root count. Non-root slots stay uninitialised (the returned
/// `ScratchVec` keeps len 0) — read root slots through raw pointers only,
/// exactly as the renumber pass wrote them.
fn renumber_roots<'a>(
    pool: &ThreadPool,
    arena: &'a ScratchArena,
    g: &[u32],
) -> (ScratchVec<'a, u32>, usize) {
    let n = g.len();
    let mut new_id = arena.lease::<u32>(n);
    let n_roots = {
        let nid_ptr = SendPtr::new(new_id.as_mut_ptr());
        count_scan_chunks(
            pool,
            n,
            arena,
            |r| r.filter(|&v| g[v] == v as u32).count() as u64,
            |r, base| {
                let mut k = base;
                for v in r {
                    if g[v] == v as u32 {
                        // SAFETY: root slots are disjoint across chunks
                        // and written exactly once; non-root slots are
                        // never touched.
                        unsafe { *nid_ptr.get().add(v) = k as u32 };
                        k += 1;
                    }
                }
                k - base
            },
        )
    };
    (new_id, n_roots)
}

/// A contracted edge: endpoints in the current (renumbered) vertex space,
/// the index of the original edge it stands for, and the cached weight
/// discriminant (high 32 bits of the order-preserving weight encoding) so
/// the MWE propose fast path touches no other arrays.
#[derive(Clone, Copy, Debug)]
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
fn tie_key(keys: &[EdgeKey], work: &[WorkEdge], wi: u32) -> (EdgeKey, u32) {
    let orig = work[wi as usize].orig;
    (keys[orig as usize], orig)
}

/// Mutable contraction state threaded through rounds.
pub struct Contraction {
    /// Original edges (immutable identities for the final forest).
    pub orig_edges: Vec<Edge>,
    /// Canonical keys of the original edges.
    pub keys: Vec<EdgeKey>,
    /// Live contracted edges.
    pub work: Vec<WorkEdge>,
    /// Scatter target for the fused filter+relabel; swapped with `work`
    /// at the end of every round.
    work_next: Vec<WorkEdge>,
    /// Vertices in the current contracted space.
    pub n_cur: usize,
    /// Original-edge indices chosen into the forest so far.
    pub chosen: Vec<u32>,
    /// Pointer-jump assignment counter.
    pub jumps: AtomicU64,
    /// Atomic RMW counter (MWE priority writes).
    pub rmw: AtomicU64,
    /// Reusable round-state buffers (MWE words, parents, renumber tables).
    pub arena: ScratchArena,
}

impl Contraction {
    /// Initial state over a graph.
    pub fn new(graph: &CsrGraph) -> Self {
        Self::from_edge_list(graph.num_vertices(), graph.edges().collect())
    }

    /// Initial state over a raw undirected edge list (no CSR required —
    /// the Boruvka family is edge-centric). Self-loops are skipped.
    /// Parallel edges, verbatim duplicates included, are allowed: the
    /// `(EdgeKey, orig)` tie key picks one record per endpoint pair.
    pub fn from_edge_list(n: usize, orig_edges: Vec<Edge>) -> Self {
        let keys: Vec<EdgeKey> = orig_edges.iter().map(Edge::key).collect();
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
            keys,
            work,
            work_next: Vec::new(),
            n_cur: n,
            chosen: Vec::with_capacity(n.saturating_sub(1)),
            jumps: AtomicU64::new(0),
            rmw: AtomicU64::new(0),
            arena: ScratchArena::new(),
        }
    }

    /// True when no cross-component edges remain.
    pub fn is_done(&self) -> bool {
        self.work.is_empty()
    }

    /// Runs one full LLP-Boruvka round: per-vertex MWE selection with
    /// symmetry breaking, relaxed pointer jumping to stars, contraction.
    /// Updates `stats` round/region/scan counters.
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
            let keys_ref: &[EdgeKey] = &self.keys;
            let rmw_ref = &self.rmw;
            parallel_for(pool, 0..m_cur, cfg, |i| {
                let e = work_ref[i];
                let exact = |wi: u32| tie_key(keys_ref, work_ref, wi);
                mwe_propose(&best_cells[e.u as usize], e.whi, i as u32, exact);
                mwe_propose(&best_cells[e.v as usize], e.whi, i as u32, exact);
                rmw_ref.fetch_add(2, Ordering::Relaxed);
            });
        }
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
            self.chosen.extend_from_slice(&round_chosen);
        }

        drop(mwe_span);

        // Step 2: pointer jumping with relaxed atomics until G is a star
        // forest (the inner LLP instance, Lemma 3/4).
        let jump_span = telemetry::span("pointer-jump");
        pointer_jump_to_roots(pool, cfg, &mut g, &self.jumps, stats);
        drop(jump_span);

        // Step 3: contract. `g` now maps every vertex to its root.
        // Renumber roots densely into a leased buffer whose non-root slots
        // stay uninitialised (only root slots are ever written or read),
        // then filter + relabel surviving edges in one fused pass into the
        // double buffer.
        let _t = telemetry::span("contract");
        let g_ro: &[u32] = &g;
        let (mut new_id, n_roots) = renumber_roots(pool, arena, g_ro);
        {
            let nid_ptr = SendPtr::new(new_id.as_mut_ptr());
            let work_ref: &[WorkEdge] = &self.work;
            compact_map_into(pool, arena, m_cur, &mut self.work_next, |i| {
                let e = work_ref[i];
                let ru = g_ro[e.u as usize];
                let rv = g_ro[e.v as usize];
                (ru != rv).then(|| WorkEdge {
                    // SAFETY: `ru`/`rv` are roots, whose slots the
                    // renumbering pass initialised.
                    u: unsafe { *nid_ptr.get().add(ru as usize) },
                    v: unsafe { *nid_ptr.get().add(rv as usize) },
                    orig: e.orig,
                    whi: e.whi,
                })
            });
        }
        std::mem::swap(&mut self.work, &mut self.work_next);
        self.work_next.clear();
        self.n_cur = n_roots;
    }

    /// Materialises the chosen original edges.
    pub fn chosen_edges(&self) -> Vec<Edge> {
        self.chosen
            .iter()
            .map(|&i| self.orig_edges[i as usize])
            .collect()
    }

    /// Flushes the atomic counters into `stats` and reports the arena's
    /// high-water footprint to telemetry.
    pub fn finish_stats(&self, stats: &mut AlgoStats) {
        stats.pointer_jumps = self.jumps.load(Ordering::Relaxed);
        stats.atomic_rmw = self.rmw.load(Ordering::Relaxed);
        self.arena.report_telemetry();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_graph::samples::fig1;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn one_round_on_fig1_contracts_to_two_vertices() {
        let g = fig1();
        let pool = ThreadPool::new(2);
        let mut c = Contraction::new(&g);
        let mut stats = AlgoStats::default();
        c.round(&pool, ParallelForConfig::with_grain(64), &mut stats);
        // Paper trace: after round 1, components {a,b,c} and {d,e}.
        assert_eq!(c.n_cur, 2);
        assert_eq!(c.chosen.len(), 3); // edges {4, 3, 2}
        assert!(!c.is_done());
        c.round(&pool, ParallelForConfig::with_grain(64), &mut stats);
        assert!(c.is_done());
        assert_eq!(c.chosen.len(), 4);
    }

    #[test]
    fn rounds_preserve_edge_identity() {
        let g = llp_graph::generators::erdos_renyi(80, 300, 4);
        let pool = ThreadPool::new(2);
        let mut c = Contraction::new(&g);
        let mut stats = AlgoStats::default();
        while !c.is_done() {
            c.round(&pool, ParallelForConfig::with_grain(64), &mut stats);
        }
        // Every chosen edge exists in the input graph.
        for e in c.chosen_edges() {
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
        let exact = |wi: u32| tie_key(&c.keys, &c.work, wi);
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
        let c = Contraction::new(&g);
        for e in &c.work {
            assert_eq!(e.whi, weight_hi32(c.orig_edges[e.orig as usize].w));
        }
    }

    #[test]
    fn steady_state_rounds_do_not_grow_the_arena() {
        let g = llp_graph::generators::erdos_renyi(3000, 20_000, 7);
        let pool = ThreadPool::new(4);
        let mut c = Contraction::new(&g);
        let mut stats = AlgoStats::default();
        c.round(&pool, ParallelForConfig::with_grain(256), &mut stats);
        let footprint = c.arena.footprint_bytes();
        let caps = c.work.capacity().max(c.work_next.capacity());
        while !c.is_done() {
            c.round(&pool, ParallelForConfig::with_grain(256), &mut stats);
            assert_eq!(c.arena.footprint_bytes(), footprint, "arena grew after round 1");
            assert_eq!(
                c.work.capacity().max(c.work_next.capacity()),
                caps,
                "double buffer reallocated after round 1"
            );
        }
        assert!(c.arena.reuse_count() > 0);
    }
}
