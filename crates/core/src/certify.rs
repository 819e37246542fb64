//! Near-linear, oracle-free MSF certification.
//!
//! [`crate::verify::verify_msf`] certifies a result by re-running Kruskal —
//! an oracle as expensive as the computation under test, useless at the
//! paper's 24M-vertex scale. This module certifies *without an oracle* in
//! near-linear time using the classic MST verification reduction (Tarjan;
//! Komlós; King):
//!
//! Under the workspace's strict [`llp_graph::EdgeKey`] total order the
//! MSF is unique, and a subforest `T ⊆ G` **is** that MSF iff
//!
//! 1. `T`'s edges exist in `G` (with matching weights),
//! 2. `T` is acyclic,
//! 3. `T` spans: no graph edge connects two different trees of `T`,
//! 4. **cycle property**: every non-tree edge is at least as heavy as
//!    every tree edge on the tree path between its endpoints.
//!
//! Check 4 needs path-maximum queries. The King-style machinery that
//! answers them — the Kruskal merge-order separator array plus an O(1)
//! range-max structure — lives in [`crate::index`] as the reusable
//! [`PathMaxIndex`]: building it *is* checks 1-in-part and 2 (the merge
//! replay rejects cycles and out-of-range endpoints), and this module is a
//! thin consumer that sweeps the graph's edges against it. The same index
//! an operator builds once to serve `component` / `path_max` /
//! `connected_under` traffic (see `llp-serve`) is the one certification
//! queries — verify and serve share one code path.
//!
//! The per-query constant is kept deliberately lean:
//!
//! * graph edges are packed into the same order-isomorphic `u128` keys
//!   the index answers with, so each check is one integer compare against
//!   `path_max_at`: an in-block answer is a separator key read directly,
//!   a cross-block one a `u32` merge-rank maximum decoded through the
//!   index's sorted tree-key table;
//! * no tree-edge hash lookups — a tree edge's key *equals* its own path
//!   maximum, so check 1 degenerates to counting exact key matches (a
//!   mismatch triggers a slow per-edge scan to name the foreign edge).
//!   A verbatim duplicate of one tree edge must not stand in for another,
//!   absent one: the CSR sweep counts each vertex's *distinct* matched
//!   targets, and the edge-slice sweep (`SliceCertifier`, behind
//!   `certify_edges` and the out-of-core pass) checks matched degrees
//!   against forest degrees;
//! * check 2 falls out of the index's merge replay (a merge of an
//!   already-joined component is the cycle witness);
//! * check 3 is the infinite-separator sentinel — spanning violations are
//!   discovered by the same `key < path-max` compare that catches cycle
//!   violations, keeping one rare branch in the whole sweep (the failing
//!   vertex is re-scanned slowly to classify and name the error);
//! * when `T` is a single spanning tree, any edge heavier than `T`'s
//!   heaviest passes the cycle property with one register compare, before
//!   any loads.
//!
//! [`certify_msf_par`] parallelizes the query sweep and the tree-edge sort
//! over a [`ThreadPool`]; certification is cheap enough to ride along
//! every benchmarked construction (see the `certified` field of each
//! record in `repro`'s `llp-mst-run-report/v2` output).
//!
//! Every certifier here returns exactly the `Result` of the naive
//! path-walking [`crate::verify::reference_certify`], witness included;
//! the witness rule is documented there, and the tests diff the two.

use crate::index::{key_bits, PathMaxIndex, INF_KEY};
use crate::result::MstResult;
use crate::verify::VerifyError;
use llp_graph::{CsrGraph, Edge, EdgeKey, VertexId};
use llp_runtime::sync::Mutex;
use llp_runtime::{parallel_for_chunks, telemetry, ParallelForConfig, ThreadPool};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Sequential near-linear certification that `result` is the canonical MSF
/// of `graph` — no Kruskal oracle, no explicit tree-path walks.
///
/// Returns [`VerifyError::ForeignEdge`], [`VerifyError::Cycle`],
/// [`VerifyError::NotSpanning`] or [`VerifyError::CutViolation`], naming
/// exactly the witness [`crate::verify::reference_certify`] names for
/// `graph.edges()`.
pub fn certify_msf(graph: &CsrGraph, result: &MstResult) -> Result<(), VerifyError> {
    certify_impl(graph, result, None)
}

/// [`certify_msf`] with the tree-edge sort and the per-edge query sweep
/// parallelized over `pool`.
pub fn certify_msf_par(
    graph: &CsrGraph,
    result: &MstResult,
    pool: &ThreadPool,
) -> Result<(), VerifyError> {
    certify_impl(graph, result, Some(pool))
}

/// Reusable per-worker buffers for [`check_vertex`]'s gather phase.
#[derive(Default)]
struct Scratch {
    pv: Vec<u32>,
    key: Vec<u128>,
    /// Targets of the arcs that matched a tree edge.
    hit: Vec<u32>,
}

/// Hot path of the sweep over one vertex's adjacency: how many distinct
/// tree edges its forward arcs matched exactly, or `Err(())` on the first
/// violation — [`classify_vertex`] then re-scans the vertex to name it.
///
/// Runs in two branch-free phases so the out-of-order window is never cut
/// short by data-dependent branches: a gather pass compacts the surviving
/// arcs (forward edges not retired by the weight filter) into `scratch`
/// with a conditional increment, then a query pass folds every range
/// maximum into a violation flag and a match count with no branching at
/// all. Violations surface after the vertex, which is fine: they are
/// terminal, and [`classify_vertex`] re-derives the precise error.
///
/// Forced inline: the sweep calls it once per vertex. Left to the
/// heuristic, an unrelated edit elsewhere in the crate moved it out of
/// line, which made `certify_ms` ~10% slower on the benchmark's `rmat`
/// workload (2-vCPU Xeon host).
#[inline(always)]
fn check_vertex(
    index: &PathMaxIndex,
    graph: &CsrGraph,
    u: VertexId,
    scratch: &mut Scratch,
) -> Result<usize, ()> {
    let (targets, weights) = graph.neighbor_slices(u);
    let deg = targets.len();
    if scratch.pv.len() < deg {
        scratch.pv.resize(deg, 0);
        scratch.key.resize(deg, 0);
    }
    if scratch.hit.len() < deg.max(2) {
        scratch.hit.resize(deg.max(2), 0);
    }
    let pu = index.pos[u as usize];
    let pass_above = index.pass_above;
    let mut k = 0usize;
    for i in 0..deg {
        let (v, w) = (targets[i], weights[i]);
        scratch.pv[k] = index.pos[v as usize];
        scratch.key[k] = key_bits(w, u, v);
        // Keep forward arcs not already retired by the single-tree weight
        // filter (an edge heavier than every tree edge passes the cycle
        // property outright). Non-short-circuit `&` keeps this a compare
        // and an add, never a branch.
        k += usize::from((v > u) & (w <= pass_above));
    }
    let mut bad = false;
    let mut matched = 0usize;
    for j in 0..k {
        // `key < max` is both failure modes at once: a genuine cycle
        // violation, or `max = INF_KEY` marking a cross-tree edge. A graph
        // edge whose key *equals* the path max is the tree edge joining
        // those components (keys are unique).
        let max_on_path = index.path_max_at(pu, scratch.pv[j]);
        bad |= scratch.key[j] < max_on_path;
        // The low word of a packed key is the larger endpoint: `v`.
        scratch.hit[matched] = scratch.key[j] as u32;
        matched += usize::from(scratch.key[j] == max_on_path);
    }
    if bad {
        return Err(());
    }
    // A tree edge is matched only here, at its smaller endpoint, so a
    // repeated target is a verbatim duplicate record: count it once, or it
    // would make up for an absent tree edge in the caller's total. Two
    // hits compare branch-free; more are rare enough to sort.
    let hits = &mut scratch.hit;
    if matched > 2 {
        hits[..matched].sort_unstable();
        matched -= hits[..matched].windows(2).filter(|w| w[0] == w[1]).count();
    } else {
        matched -= usize::from((matched == 2) & (hits[0] == hits[1]));
    }
    Ok(matched)
}

/// A sweep violation and the key of the graph edge it names.
type Witness = (EdgeKey, VerifyError);

/// Keeps whichever of `worst` and `found` has the smaller ordering key
/// (the witness edge's key, plus a tie-break where records can repeat),
/// so a sweep reports the same witness however its work was split.
fn keep_smaller<K: Ord>(worst: &mut Option<(K, VerifyError)>, found: (K, VerifyError)) {
    if worst.as_ref().is_none_or(|(k, _)| found.0 < *k) {
        *worst = Some(found);
    }
}

/// Slow mirror of [`check_vertex`], taken only for a vertex whose sweep
/// failed: classifies and names the vertex's smallest-key offending edge.
#[cold]
fn classify_vertex(index: &PathMaxIndex, graph: &CsrGraph, u: VertexId) -> Witness {
    let pu = index.pos[u as usize];
    let mut worst: Option<Witness> = None;
    for (v, w) in graph.neighbors(u) {
        if v <= u || w > index.pass_above {
            continue;
        }
        let max_on_path = index.path_max_at(pu, index.pos[v as usize]);
        if key_bits(w, u, v) < max_on_path {
            let err = if max_on_path == INF_KEY {
                VerifyError::NotSpanning(Edge::new(u, v, w))
            } else {
                VerifyError::CutViolation(Edge::new(u, v, w))
            };
            keep_smaller(&mut worst, (EdgeKey::new(w, u, v), err));
        }
    }
    worst.expect("classify_vertex called for a vertex with no violation")
}

/// Slow path taken only when the sweep's key-match count disagrees with
/// the tree size: names a tree edge absent from the graph, if any.
/// Weights compare bitwise, as keys do: `-0.0` does not match `0.0`.
fn find_foreign_edge(graph: &CsrGraph, result: &MstResult) -> Option<Edge> {
    result
        .edges
        .iter()
        .find(|e| {
            !graph
                .neighbors(e.u)
                .any(|(v, w)| v == e.v && w.to_bits() == e.w.to_bits())
        })
        .copied()
}

fn certify_impl(
    graph: &CsrGraph,
    result: &MstResult,
    pool: Option<&ThreadPool>,
) -> Result<(), VerifyError> {
    let n = graph.num_vertices();
    let t = result.edges.len();
    let index = {
        let _s = telemetry::span("certify-build");
        match pool {
            Some(pool) => PathMaxIndex::build_par(n, result, pool)?,
            None => PathMaxIndex::build(n, result)?,
        }
    };
    certify_against(graph, result, &index, pool)?;
    debug_assert_eq!(index.num_components() + t, n);
    Ok(())
}

/// The query half of certification: sweeps every graph edge against an
/// already-built [`PathMaxIndex`] of `result`. Callers that keep the index
/// around for serving (e.g. `llp-serve`) use this directly so the build
/// cost is paid once.
pub fn certify_against(
    graph: &CsrGraph,
    result: &MstResult,
    index: &PathMaxIndex,
    pool: Option<&ThreadPool>,
) -> Result<(), VerifyError> {
    let n = graph.num_vertices();
    let t = result.edges.len();
    assert_eq!(
        index.num_vertices(),
        n,
        "index built over a different vertex set than the graph"
    );

    // Sweep every graph edge once: non-tree edges must not beat the path
    // maximum between their endpoints (cycle property) and must not cross
    // trees (spanning); exact key matches count tree edges found in the
    // graph. Visiting `u`'s adjacency with the `u < v` filter sees each
    // undirected edge exactly once. A violation does not stop the sweep:
    // every vertex is still checked, so the reported witness is the
    // smallest-key violating edge of the whole graph, independent of the
    // pool and its chunking.
    let _s = telemetry::span("certify-query");
    let matched = match pool {
        None => {
            let mut scratch = Scratch::default();
            let mut matched = 0usize;
            let mut worst = None;
            for u in 0..n as VertexId {
                match check_vertex(index, graph, u, &mut scratch) {
                    Ok(m) => matched += m,
                    Err(()) => keep_smaller(&mut worst, classify_vertex(index, graph, u)),
                }
            }
            if let Some((_, err)) = worst {
                return Err(err);
            }
            matched
        }
        Some(pool) => {
            let worst: Mutex<Option<Witness>> = Mutex::new(None);
            let matched = AtomicUsize::new(0);
            parallel_for_chunks(pool, 0..n, ParallelForConfig::default(), |chunk| {
                let mut scratch = Scratch::default();
                let mut local = 0usize;
                let mut local_worst = None;
                for u in chunk {
                    match check_vertex(index, graph, u as VertexId, &mut scratch) {
                        Ok(m) => local += m,
                        Err(()) => keep_smaller(
                            &mut local_worst,
                            classify_vertex(index, graph, u as VertexId),
                        ),
                    }
                }
                if let Some(found) = local_worst {
                    keep_smaller(&mut worst.lock(), found);
                }
                matched.fetch_add(local, Ordering::Relaxed);
            });
            if let Some((_, err)) = worst.into_inner() {
                return Err(err);
            }
            matched.into_inner()
        }
    };

    // Every tree edge present in the graph was counted exactly once, so a
    // shortfall means a tree edge the graph doesn't contain.
    if matched != t {
        if let Some(e) = find_foreign_edge(graph, result) {
            return Err(VerifyError::ForeignEdge(e));
        }
    }
    Ok(())
}

/// The sweep of [`certify_against`] over flat edge slices instead of a
/// CSR, fed one slice at a time: the dynamic edge store in one slice, an
/// out-of-core file shard by shard. Records may repeat and come in either
/// orientation.
///
/// Every record must not beat the path maximum between its endpoints
/// (`key < max` is a cycle violation, or at [`INF_KEY`] a cross-tree edge
/// the forest fails to span). The witness is the smallest-key violating
/// record over all slices, ties broken by its first endpoint as given, so
/// neither the slicing nor the pool can change it.
///
/// A record whose key *equals* the path maximum is the tree edge that
/// realises it. Presence is checked by matched degree: each match takes
/// one off both endpoints' forest degree, and every counter must end at
/// zero. Zero counters prove every tree edge present: a leaf has one tree
/// edge, so that edge was matched exactly once; peel it and repeat. The
/// argument holds modulo 2³², so counters that wrap stay sound: a leaf's
/// edge was matched ≡ 1 (mod 2³²) times, hence at least once. A counter
/// that ends non-zero means a repeated tree-edge record or a tree edge no
/// record matches; only then does [`Self::finish`] rescan the records to
/// tell the two apart.
pub(crate) struct SliceCertifier<'a> {
    index: &'a PathMaxIndex,
    /// Forest degree of each vertex, minus the records matched at it.
    left: Vec<AtomicU32>,
    /// Smallest violating record so far, keyed by `(key, first endpoint)`.
    worst: Option<((EdgeKey, VertexId), VerifyError)>,
}

impl<'a> SliceCertifier<'a> {
    /// Starts certifying `result` against `index`, an index of `result`.
    pub(crate) fn new(index: &'a PathMaxIndex, result: &MstResult) -> Self {
        let mut left: Vec<AtomicU32> = (0..index.num_vertices())
            .map(|_| AtomicU32::new(0))
            .collect();
        for e in &result.edges {
            *left[e.u as usize].get_mut() += 1;
            *left[e.v as usize].get_mut() += 1;
        }
        SliceCertifier {
            index,
            left,
            worst: None,
        }
    }

    /// Checks one slice of records. A violation does not stop the sweep:
    /// the witness is chosen in [`Self::finish`].
    pub(crate) fn sweep(&mut self, edges: &[Edge], pool: &ThreadPool, cfg: ParallelForConfig) {
        let (index, left) = (self.index, &self.left);
        let worst = Mutex::new(self.worst.take());
        parallel_for_chunks(pool, 0..edges.len(), cfg, |chunk| {
            for e in &edges[chunk] {
                if e.w > index.pass_above {
                    continue; // heavier than every tree edge: passes outright
                }
                let kb = key_bits(e.w, e.u, e.v);
                let maxk = index.path_max_at(index.pos[e.u as usize], index.pos[e.v as usize]);
                if kb < maxk {
                    let err = if maxk == INF_KEY {
                        VerifyError::NotSpanning(*e)
                    } else {
                        VerifyError::CutViolation(*e)
                    };
                    keep_smaller(&mut worst.lock(), ((e.key(), e.u), err));
                } else if kb == maxk {
                    // Relaxed: the counters publish no other data, and the
                    // sweep's join orders every decrement before `finish`.
                    left[e.u as usize].fetch_sub(1, Ordering::Relaxed);
                    left[e.v as usize].fetch_sub(1, Ordering::Relaxed);
                }
            }
        });
        self.worst = worst.into_inner();
    }

    /// The verdict once every slice is swept: the smallest violation, else
    /// [`VerifyError::ForeignEdge`] naming the first tree edge of
    /// `result.edges` that no record matches, else `Ok`. The cold path
    /// runs only when a counter ends non-zero: `rescan` must then feed
    /// every record, in slices, to the callback it is given.
    pub(crate) fn finish<E: From<VerifyError>>(
        mut self,
        result: &MstResult,
        rescan: impl FnOnce(&mut dyn FnMut(&[Edge])) -> Result<(), E>,
    ) -> Result<(), E> {
        if let Some((_, err)) = self.worst {
            return Err(err.into());
        }
        if self.left.iter_mut().all(|d| *d.get_mut() == 0) {
            return Ok(());
        }
        // Tree keys are unique (the index build rejects a repeat as a
        // cycle), so a key's rank in the index's sorted table names it.
        let keys = self.index.tree_keys();
        let rank = |e: &Edge| keys.binary_search(&key_bits(e.w, e.u, e.v));
        let mut seen = vec![0u64; keys.len().div_ceil(64)];
        rescan(&mut |edges| {
            for r in edges.iter().filter_map(|e| rank(e).ok()) {
                seen[r >> 6] |= 1 << (r & 63);
            }
        })?;
        let absent = result.edges.iter().find(|e| {
            let r = rank(e).expect("the index holds every tree key");
            seen[r >> 6] & (1 << (r & 63)) == 0
        });
        match absent {
            Some(e) => Err(VerifyError::ForeignEdge(*e).into()),
            None => Ok(()),
        }
    }
}

/// [`certify_against`] over a flat edge list (any orientation) instead of
/// a CSR graph — what the dynamic structure certifies every epoch
/// against, with no per-epoch CSR build. One [`SliceCertifier`] pass; its
/// cold path rescans the same slice.
pub(crate) fn certify_edges(
    edges: &[Edge],
    result: &MstResult,
    index: &PathMaxIndex,
    pool: &ThreadPool,
) -> Result<(), VerifyError> {
    let mut check = SliceCertifier::new(index, result);
    check.sweep(edges, pool, ParallelForConfig::default());
    check.finish(result, |mark| {
        mark(edges);
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal::kruskal;
    use crate::stats::AlgoStats;
    use crate::verify::{reference_certify, verify_msf, TreePaths};
    use llp_graph::samples::{fig1, small_forest};

    #[test]
    fn accepts_msf_on_samples_and_generators() {
        for (name, g) in [
            ("fig1", fig1()),
            ("small_forest", small_forest()),
            ("er", llp_graph::generators::erdos_renyi(200, 600, 7)),
            (
                "road",
                llp_graph::generators::road_network(
                    llp_graph::generators::RoadParams::usa_like(12, 12, 3),
                ),
            ),
        ] {
            let msf = kruskal(&g);
            certify_msf(&g, &msf).unwrap_or_else(|e| panic!("{name}: {e}"));
            let pool = ThreadPool::new(3);
            certify_msf_par(&g, &msf, &pool).unwrap_or_else(|e| panic!("{name} (par): {e}"));
        }
    }

    #[test]
    fn accepts_unsorted_tree_edges() {
        // Parallel algorithms emit tree edges in arbitrary order; the
        // certifier must sort rather than assume Kruskal order.
        let g = llp_graph::generators::erdos_renyi(150, 500, 3);
        let mut msf = kruskal(&g);
        msf.edges.reverse();
        certify_msf(&g, &msf).unwrap();
        let pool = ThreadPool::new(2);
        certify_msf_par(&g, &msf, &pool).unwrap();
    }

    #[test]
    fn key_bits_order_matches_edge_key_order() {
        // The u128 packing must be order-isomorphic to EdgeKey, including
        // negative, zero and subnormal weights.
        let samples = [
            (-3.5, 0u32, 1u32),
            (-0.0, 2, 3),
            (0.0, 1, 4),
            (1e-310, 0, 2),
            (2.0, 0, 1),
            (2.0, 0, 2),
            (2.0, 1, 2),
            (1e300, 5, 6),
        ];
        for &(w1, u1, v1) in &samples {
            for &(w2, u2, v2) in &samples {
                let by_key = EdgeKey::new(w1, u1, v1).cmp(&EdgeKey::new(w2, u2, v2));
                let by_bits = key_bits(w1, u1, v1).cmp(&key_bits(w2, u2, v2));
                assert_eq!(by_key, by_bits, "({w1},{u1},{v1}) vs ({w2},{u2},{v2})");
            }
        }
    }

    #[test]
    fn rejects_suboptimal_spanning_tree_with_cut_violation() {
        let g = fig1();
        // The 9-edge replaces the 7-edge: spanning, acyclic, not minimum.
        let subopt = MstResult::from_edges(
            5,
            vec![
                Edge::new(3, 4, 2.0),
                Edge::new(1, 2, 3.0),
                Edge::new(0, 2, 4.0),
                Edge::new(2, 3, 9.0),
            ],
            AlgoStats::default(),
        );
        assert!(matches!(
            certify_msf(&g, &subopt),
            Err(VerifyError::CutViolation(_))
        ));
    }

    #[test]
    fn rejects_non_spanning_foreign_and_cyclic() {
        let g = fig1();
        let partial = MstResult::from_edges(
            5,
            vec![Edge::new(1, 2, 3.0)],
            AlgoStats::default(),
        );
        assert!(matches!(
            certify_msf(&g, &partial),
            Err(VerifyError::NotSpanning(_))
        ));

        // Swap a real MST edge for a same-endpoints edge with a weight the
        // graph doesn't have: still spanning and acyclic, but foreign.
        let foreign = MstResult::from_edges(
            5,
            vec![
                Edge::new(3, 4, 2.0),
                Edge::new(1, 2, 3.0),
                Edge::new(0, 2, 4.0),
                Edge::new(1, 3, 6.5),
            ],
            AlgoStats::default(),
        );
        assert!(matches!(
            certify_msf(&g, &foreign),
            Err(VerifyError::ForeignEdge(e)) if (e.u, e.v, e.w) == (1, 3, 6.5)
        ));

        let cyclic = MstResult::from_edges(
            5,
            vec![
                Edge::new(1, 2, 3.0),
                Edge::new(0, 2, 4.0),
                Edge::new(0, 1, 5.0),
            ],
            AlgoStats::default(),
        );
        assert!(matches!(
            certify_msf(&g, &cyclic),
            Err(VerifyError::Cycle(_))
        ));
    }

    #[test]
    fn agrees_with_oracle_on_disconnected_forests() {
        // Multiple components plus isolated vertices.
        let g = llp_graph::generators::erdos_renyi(120, 100, 11);
        let msf = kruskal(&g);
        assert!(verify_msf(&g, &msf).is_ok());
        certify_msf(&g, &msf).unwrap();
    }

    #[test]
    fn empty_and_edgeless_graphs_certify() {
        let g = CsrGraph::from_edges(0, &[]);
        let r = MstResult::from_edges(0, vec![], AlgoStats::default());
        certify_msf(&g, &r).unwrap();

        let g = CsrGraph::from_edges(4, &[]);
        let r = MstResult::from_edges(4, vec![], AlgoStats::default());
        certify_msf(&g, &r).unwrap();
        let pool = ThreadPool::new(2);
        certify_msf_par(&g, &r, &pool).unwrap();
    }

    #[test]
    fn deep_path_graph_does_not_overflow() {
        // A 50k-vertex path with monotone weights: one chain absorbs one
        // vertex per merge, the worst case for the replay and the chain
        // walk (and, historically, for a recursive tour).
        let n = 50_000u32;
        let edges: Vec<Edge> = (0..n - 1)
            .map(|i| Edge::new(i, i + 1, i as f64 + 1.0))
            .collect();
        let g = CsrGraph::from_edges(n as usize, &edges);
        let msf = kruskal(&g);
        certify_msf(&g, &msf).unwrap();
    }

    #[test]
    fn parallel_rejection_is_stable_and_matches_sequential() {
        let g = fig1();
        let partial = MstResult::from_edges(
            5,
            vec![Edge::new(1, 2, 3.0)],
            AlgoStats::default(),
        );
        let seq = certify_msf(&g, &partial).unwrap_err();
        assert!(matches!(seq, VerifyError::NotSpanning(_)));
        let pool = ThreadPool::new(4);
        for _ in 0..10 {
            // The witness is the graph's smallest-key offending edge, so
            // neither the pool nor a chaos grain sweep can change it.
            assert_eq!(certify_msf_par(&g, &partial, &pool).unwrap_err(), seq);
        }
    }

    #[test]
    fn path_max_matches_tree_walk_on_random_forest() {
        // Cross-check path_max against an explicit BFS path walk on a
        // sparse random forest (several components).
        let g = llp_graph::generators::erdos_renyi(80, 70, 5);
        let msf = kruskal(&g);
        let index = PathMaxIndex::build(g.num_vertices(), &msf).unwrap();

        let n = g.num_vertices();
        let paths = TreePaths::new(n, &msf.edges);
        for u in (0..n as u32).step_by(7) {
            for v in (0..n as u32).step_by(5) {
                if u != v {
                    assert_eq!(
                        index.path_max(u, v),
                        paths.heaviest(u, v).map(|e| e.key()),
                        "path {u}..{v}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_duplicated_tree_edge_cannot_mask_a_foreign_one() {
        // The graph holds (0,1,1.0) twice and (1,2) only at weight 5.0;
        // the forest claims (1,2,2.0). Two key matches equal the tree
        // size, but one tree edge is not in the graph.
        let edges = [
            Edge::new(0, 1, 1.0),
            Edge::new(0, 1, 1.0),
            Edge::new(1, 2, 5.0),
        ];
        let g = CsrGraph::from_edges(3, &edges);
        let forest = MstResult::from_edges(
            3,
            vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0)],
            AlgoStats::default(),
        );
        let foreign = VerifyError::ForeignEdge(Edge::new(1, 2, 2.0));
        assert_eq!(verify_msf(&g, &forest), Err(foreign.clone()));
        assert_eq!(certify_msf(&g, &forest), Err(foreign.clone()));
        let pool = ThreadPool::new(2);
        assert_eq!(certify_msf_par(&g, &forest, &pool), Err(foreign.clone()));
        let index = PathMaxIndex::build(3, &forest).unwrap();
        assert_eq!(
            certify_against(&g, &forest, &index, None),
            Err(foreign.clone())
        );
        assert_eq!(certify_edges(&edges, &forest, &index, &pool), Err(foreign));
    }

    #[test]
    fn edge_slice_certifier_accepts_msfs_and_names_defects() {
        let pool = ThreadPool::new(3);
        let g = llp_graph::generators::erdos_renyi(150, 400, 17);
        let edges: Vec<Edge> = g.edges().collect();
        let msf = kruskal(&g);
        let index = PathMaxIndex::build(g.num_vertices(), &msf).unwrap();
        certify_edges(&edges, &msf, &index, &pool).unwrap();

        // Drop a tree edge: the forest no longer spans.
        let mut dropped = msf.clone();
        dropped.edges.pop();
        let index = PathMaxIndex::build(g.num_vertices(), &dropped).unwrap();
        assert!(matches!(
            certify_edges(&edges, &dropped, &index, &pool),
            Err(VerifyError::NotSpanning(_))
        ));

        // Make a tree edge lighter than its graph copy: foreign, and no
        // non-tree edge beats the (smaller) path maxima.
        let mut lighter = msf.clone();
        lighter.edges[0].w -= 0.5;
        let index = PathMaxIndex::build(g.num_vertices(), &lighter).unwrap();
        assert_eq!(
            certify_edges(&edges, &lighter, &index, &pool),
            Err(VerifyError::ForeignEdge(lighter.edges[0]))
        );
    }

    #[test]
    fn edge_slice_witness_does_not_depend_on_record_order() {
        // (0,2,1.5) beats the path maximum (1,2,2.0), recorded in both
        // orientations: equal keys, so the witness is the record whose
        // first endpoint is smaller, wherever each copy sits.
        let pool = ThreadPool::new(2);
        let forest = MstResult::from_edges(
            3,
            vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0)],
            AlgoStats::default(),
        );
        let index = PathMaxIndex::build(3, &forest).unwrap();
        let mut records = vec![
            Edge::new(2, 0, 1.5),
            Edge::new(0, 1, 1.0),
            Edge::new(1, 2, 2.0),
            Edge::new(0, 2, 1.5),
        ];
        let want = Err(VerifyError::CutViolation(Edge::new(0, 2, 1.5)));
        assert_eq!(certify_edges(&records, &forest, &index, &pool), want);
        records.reverse();
        assert_eq!(certify_edges(&records, &forest, &index, &pool), want);
    }

    #[test]
    fn edge_slice_certifier_agrees_with_the_csr_sweep_on_mutations() {
        // `certify_edges` is the other reader of `path_max_at` (the
        // dynamic and out-of-core paths): over every mutation class it must
        // reach `certify_msf`'s verdict and name the same witness.
        let pool = ThreadPool::new(3);
        let er = llp_graph::generators::erdos_renyi(160, 420, 23);
        let tied = llp_graph::transform::map_weights(&er, |w| (w * 4.0).floor());
        for (name, g) in [("er", er), ("tie-heavy", tied)] {
            let n = g.num_vertices();
            let edges: Vec<Edge> = g.edges().collect();
            let msf = kruskal(&g);
            let via_edges = |f: &MstResult| {
                let index = PathMaxIndex::build_par(n, f, &pool)?;
                certify_edges(&edges, f, &index, &pool)
            };
            assert_eq!(via_edges(&msf), Ok(()), "{name}/genuine");
            let t = msf.edges.len();
            for i in (0..t).step_by(t / 8 + 1) {
                let mutate = |f: &dyn Fn(&mut Vec<Edge>)| {
                    let mut e = msf.edges.clone();
                    f(&mut e);
                    MstResult::from_edges(n, e, AlgoStats::default())
                };
                for (what, mutant) in [
                    (
                        "drop",
                        mutate(&|e| {
                            e.remove(i);
                        }),
                    ),
                    ("heavier", mutate(&|e| e[i].w += 0.5)),
                    ("cycle", mutate(&|e| e.push(e[i]))),
                    ("foreign", mutate(&|e| e[i].w -= 0.5)),
                ] {
                    let want = certify_msf(&g, &mutant);
                    assert!(want.is_err(), "{name}/{what} {i}: certify_msf accepted");
                    assert_eq!(via_edges(&mutant), want, "{name}/{what} {i}");
                    assert_eq!(reference_certify(n, &edges, &mutant), want, "{name}/{what} {i}");
                }
            }
        }
    }

    #[test]
    fn certify_against_reuses_a_prebuilt_index() {
        // The serve-style flow: build once, certify against it, then keep
        // answering queries from the same index.
        let g = llp_graph::generators::erdos_renyi(150, 400, 13);
        let msf = kruskal(&g);
        let index = PathMaxIndex::build(g.num_vertices(), &msf).unwrap();
        certify_against(&g, &msf, &index, None).unwrap();
        let pool = ThreadPool::new(2);
        certify_against(&g, &msf, &index, Some(&pool)).unwrap();
        assert_eq!(index.num_components(), msf.num_trees);
    }
}
