//! Fully dynamic MSF: batched edge insertions and deletions as epochs on
//! the lattice.
//!
//! The paper's fixed-point framing (and Alves & Garg's common LLP
//! framework) treats MSF construction as advancing a global state vector
//! up a lattice until a predicate holds. Nothing in that framing requires
//! starting from the bottom: a *batch of updates* re-enters the lattice
//! from a warm start — the previous epoch's certified forest `F` — and
//! only the state the batch invalidates is recomputed. Both halves of an
//! epoch are exact updates built on the filter identity
//! `MSF(A ∪ B) = MSF(MSF(A) ∪ B)` that also drives the out-of-core
//! backend (Sanders & Schimek):
//!
//! * **Deletions by fragment contraction.** A deleted edge is a tree edge
//!   iff its key equals its own path maximum in the epoch's
//!   [`PathMaxIndex`] (keys are unique, and a non-tree edge is strictly
//!   heavier than the path it closes). The surviving tree edges `F − D`
//!   stay in the forest and cut their trees into fragments; only old
//!   non-tree edges that cross fragments can reconnect them. One Kruskal
//!   over those edges, seeded with the fragments and run in their
//!   original [`EdgeKey`] order (a fragment relabel is not monotone, so
//!   relabelled tie-breaks would be wrong), gives `F1`, the MSF after the
//!   deletes.
//! * **Insertions by one merge.** Edges outside `F1` stay cycle-maximal
//!   when edges are added, so the new forest is `MSF(F1 ∪ I)`. `F1` is kept
//!   key-sorted, and one merge-scan of it with the sorted fresh inserts
//!   under a union-find resolves the whole batch exactly — winners,
//!   evictions, links between trees — giving `F2`, again key-sorted, so
//!   [`PathMaxIndex::build_par`] skips its sort.
//! * **Certification**: every epoch's forest is certified against
//!   **every** live edge (`certify::certify_edges`, straight off
//!   the flat edge store) before it is published, so a served epoch is
//!   never weaker than the from-scratch pipeline. The lattice never
//!   retracts: a certified epoch is a fixed point, and the next batch
//!   advances from it.
//!
//! The graph is a flat edge list plus a pair → slot map: O(1) duplicate
//! checks, swap-remove deletes, and a list the certification sweep reads
//! as is. An epoch costs a few linear scans of the list and the forest.
//!
//! Failure posture: inputs are validated (range, self-loops, non-finite
//! weights) *before* any state is touched, so user errors are clean
//! [`DynamicError`]s with the structure untouched. An error *after*
//! mutation began ([`DynamicError::Overflow`] /
//! [`DynamicError::Certify`]) indicates an internal invariant violation;
//! the structure must then be discarded and rebuilt — it never serves an
//! uncertified epoch.

use crate::certify::certify_edges;
use crate::index::PathMaxIndex;
use crate::llp_boruvka::llp_boruvka_from_edges;
use crate::result::{ForestOverflow, MstResult};
use crate::stats::AlgoStats;
use crate::union_find::UnionFind;
use crate::verify::VerifyError;
use llp_graph::{CsrGraph, Edge, EdgeKey, VertexId};
use llp_runtime::ThreadPool;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// A rejected or failed dynamic update.
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicError {
    /// An update named a vertex outside `0..n`.
    OutOfRange(Edge),
    /// An inserted edge had both endpoints equal.
    SelfLoop(Edge),
    /// An inserted edge carried a NaN or infinite weight.
    NonFiniteWeight(Edge),
    /// The epoch assembled more tree edges than vertices — an internal
    /// invariant violation (the update produced a non-forest).
    Overflow(ForestOverflow),
    /// The epoch snapshot failed certification — an internal invariant
    /// violation; the structure must be rebuilt from scratch.
    Certify(VerifyError),
}
impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::OutOfRange(e) => {
                write!(f, "update ({}, {}) names a vertex out of range", e.u, e.v)
            }
            DynamicError::SelfLoop(e) => write!(f, "insert ({}, {}) is a self-loop", e.u, e.v),
            DynamicError::NonFiniteWeight(e) => write!(
                f,
                "insert ({}, {}) carries non-finite weight {}",
                e.u, e.v, e.w
            ),
            DynamicError::Overflow(o) => write!(f, "epoch produced a non-forest: {o}"),
            DynamicError::Certify(e) => write!(f, "epoch snapshot failed certification: {e}"),
        }
    }
}

impl std::error::Error for DynamicError {}

impl From<VerifyError> for DynamicError {
    fn from(e: VerifyError) -> Self {
        DynamicError::Certify(e)
    }
}

/// What one [`DynamicMsf::apply_batch`] epoch did, with per-phase wall
/// clock. `F` is the previous epoch's forest, `F1` the forest after the
/// batch's deletes, `F2` the new forest.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochReport {
    /// Epoch number after this batch (starts at 0 for the initial build).
    pub epoch: u64,
    /// Fresh edges added to the graph.
    pub inserts_applied: usize,
    /// Inserts naming an edge already present (no-ops).
    pub inserts_duplicate: usize,
    /// Edges removed from the graph.
    pub deletes_applied: usize,
    /// Deletes naming an edge not present (no-ops).
    pub deletes_missing: usize,
    /// Fresh inserts in `F2` whose endpoints were already connected in
    /// `F1`: each displaced the heaviest edge of that path.
    pub fast_swaps: usize,
    /// Fresh inserts not in `F2`.
    pub fast_rejects: usize,
    /// Fresh inserts in `F2` that joined two trees of `F1`.
    pub links: usize,
    /// Trees of `F` that lost a tree edge.
    pub dirty_components: usize,
    /// Fragments those trees fell into: the super-vertices of the
    /// fragment Kruskal.
    pub rebuild_vertices: usize,
    /// Old non-tree edges crossing fragments, fed to the fragment Kruskal.
    pub rebuild_edges: usize,
    /// Whether the forest changed (and the index was rebuilt); false on
    /// empty and all-no-op batches.
    pub tree_changed: bool,
    /// Graph mutation plus tree-delete detection, milliseconds.
    pub classify_ms: f64,
    /// Fragment Kruskal plus the insert merge, milliseconds.
    pub rebuild_ms: f64,
    /// Index rebuild, milliseconds.
    pub index_ms: f64,
    /// Certification sweep, milliseconds.
    pub certify_ms: f64,
}

impl EpochReport {
    /// Updates this epoch actually consumed (applied + no-ops) — the
    /// numerator of the bench's edges/sec.
    pub fn updates(&self) -> usize {
        self.inserts_applied + self.inserts_duplicate + self.deletes_applied + self.deletes_missing
    }
}

/// An epoch-based fully dynamic minimum spanning forest.
///
/// Owns the current graph (a flat edge list), the certified forest of the
/// latest epoch, and its [`PathMaxIndex`]. [`DynamicMsf::apply_batch`]
/// advances one epoch; queries go through [`DynamicMsf::index`], which is
/// an `Arc` so a server can keep answering from a snapshot while the next
/// epoch is being applied.
pub struct DynamicMsf {
    n: usize,
    /// The live undirected edges, each once as `(lo, hi, w)` with
    /// `lo < hi`. The graph is simple: parallel edges are deduplicated on
    /// construction (smallest key wins) and duplicate inserts are no-ops.
    edges: Vec<Edge>,
    /// `(lo, hi)` → position in `edges`.
    slot: HashMap<(VertexId, VertexId), u32>,
    /// The certified forest of the latest epoch, key-sorted.
    msf: MstResult,
    /// Path-max index over `msf`, shared with snapshot readers.
    index: Arc<PathMaxIndex>,
    /// Batches applied so far.
    epoch: u64,
}

impl DynamicMsf {
    /// Builds the initial epoch from a CSR graph: flat-memory contraction
    /// for the forest, [`PathMaxIndex`] for queries, certification sweep
    /// before anything is served.
    pub fn new(graph: &CsrGraph, pool: &ThreadPool) -> Result<DynamicMsf, DynamicError> {
        Self::from_edges(graph.num_vertices(), graph.edges().collect(), pool)
    }

    /// Builds the initial epoch from a raw undirected edge list.
    ///
    /// Validates endpoints, self-loops and weight finiteness; parallel
    /// edges are deduplicated keeping the smallest [`EdgeKey`] (the only
    /// one the canonical MSF can ever use).
    pub fn from_edges(
        n: usize,
        edges: Vec<Edge>,
        pool: &ThreadPool,
    ) -> Result<DynamicMsf, DynamicError> {
        let mut store: Vec<Edge> = Vec::with_capacity(edges.len());
        // Room for half as many again. In a map built full, a delete
        // leaves a tombstone that only a rehash reclaims, so churn would
        // force a rehash inside an early epoch; at this load a delete
        // almost always frees its slot outright.
        let mut slot = HashMap::with_capacity(edges.len() + edges.len() / 2);
        for e in edges {
            validate_insert(&e, n)?;
            let (lo, hi) = e.canonical_endpoints();
            match slot.entry((lo, hi)) {
                Entry::Occupied(s) => {
                    // Parallel edge: keep the smaller key.
                    let kept = &mut store[*s.get() as usize];
                    if e.key() < kept.key() {
                        kept.w = e.w;
                    }
                }
                Entry::Vacant(s) => {
                    s.insert(store.len() as u32);
                    store.push(Edge::new(lo, hi, e.w));
                }
            }
        }
        store.shrink_to_fit();

        let mut msf = llp_boruvka_from_edges(n, store.clone(), pool);
        msf.edges.sort_unstable_by_key(Edge::key);
        let index = Arc::new(PathMaxIndex::build_par(n, &msf, pool)?);
        let this = DynamicMsf {
            n,
            edges: store,
            slot,
            msf,
            index,
            epoch: 0,
        };
        this.certify_now(pool)?;
        Ok(this)
    }

    /// Vertices of the graph (fixed for the structure's lifetime).
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Current undirected edge count.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Batches applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The certified forest of the latest epoch.
    pub fn msf(&self) -> &MstResult {
        &self.msf
    }

    /// The latest epoch's query index. Clone the `Arc` to keep serving a
    /// snapshot while the next batch applies.
    pub fn index(&self) -> &Arc<PathMaxIndex> {
        &self.index
    }

    /// The current undirected edge set (each edge once, `u < v`).
    pub fn current_edges(&self) -> Vec<Edge> {
        self.edges.clone()
    }

    /// Applies one batch of updates and advances the epoch.
    ///
    /// Deletes are applied first (so a batch can delete an edge and
    /// re-insert it at a new weight), then inserts. Inserts of edges
    /// already present and deletes of absent edges are counted no-ops.
    /// Returns the epoch's [`EpochReport`]; on `Err` for invalid *input*
    /// (range / self-loop / non-finite) no state was touched.
    pub fn apply_batch(
        &mut self,
        inserts: &[Edge],
        deletes: &[(VertexId, VertexId)],
        pool: &ThreadPool,
    ) -> Result<EpochReport, DynamicError> {
        // Validate everything before touching anything.
        for e in inserts {
            validate_insert(e, self.n)?;
        }
        for &(u, v) in deletes {
            if (u as usize) >= self.n || (v as usize) >= self.n {
                return Err(DynamicError::OutOfRange(Edge::new(u, v, 0.0)));
            }
        }

        let mut report = EpochReport {
            epoch: self.epoch + 1,
            ..EpochReport::default()
        };

        // ---- Mutate the graph. A deleted edge is a tree edge iff it is
        // its own path maximum in the old index.
        let t = Instant::now();
        let mut dead: Vec<EdgeKey> = Vec::new();
        let mut dirty: Vec<u32> = Vec::new();
        for &(u, v) in deletes {
            let (lo, hi) = if u <= v { (u, v) } else { (v, u) };
            let Some(e) = self.remove_edge(lo, hi) else {
                report.deletes_missing += 1;
                continue;
            };
            report.deletes_applied += 1;
            if self.index.path_max(lo, hi) == Some(e.key()) {
                dead.push(e.key());
                dirty.push(self.index.component(lo));
            }
        }
        // Inserts land past this point of the store.
        let old_len = self.edges.len();
        let mut fresh: Vec<Edge> = Vec::with_capacity(inserts.len());
        for e in inserts {
            let (lo, hi) = e.canonical_endpoints();
            match self.slot.entry((lo, hi)) {
                Entry::Occupied(_) => report.inserts_duplicate += 1,
                Entry::Vacant(s) => {
                    s.insert(self.edges.len() as u32);
                    let e = Edge::new(lo, hi, e.w);
                    self.edges.push(e);
                    fresh.push(e);
                }
            }
        }
        report.inserts_applied = fresh.len();
        dirty.sort_unstable();
        dirty.dedup();
        report.dirty_components = dirty.len();
        // A tree that loses k edges falls into k + 1 fragments.
        report.rebuild_vertices = dead.len() + dirty.len();
        report.classify_ms = t.elapsed().as_secs_f64() * 1e3;

        // ---- F1 from the fragments, then F2 from one merge with the
        // fresh inserts. F1's connectivity is the old index's when no
        // tree edge died, else the fragment Kruskal's union-find.
        let t = Instant::now();
        let (f1, f1_trees) = if dead.is_empty() {
            (Cow::Borrowed(&self.msf.edges[..]), None)
        } else {
            dead.sort_unstable();
            let (f1, uf) = self.reconnect_fragments(&dead, &self.edges[..old_len], &mut report);
            (Cow::Owned(f1), Some(uf))
        };
        let connected_in_f1 = |e: &Edge| match &f1_trees {
            Some(uf) => uf.find_immutable(e.u) == uf.find_immutable(e.v),
            None => self.index.connected(e.u, e.v),
        };
        let f2 = if fresh.is_empty() {
            f1
        } else {
            fresh.sort_unstable_by_key(Edge::key);
            let mut uf = UnionFind::new(self.n);
            let mut f2 = Vec::with_capacity(f1.len() + fresh.len());
            for (e, is_fresh) in merge_by_key(&f1, &fresh) {
                let joins = uf.union(e.u, e.v);
                if joins {
                    f2.push(e);
                }
                if !is_fresh {
                    continue;
                }
                if !joins {
                    report.fast_rejects += 1;
                } else if connected_in_f1(&e) {
                    report.fast_swaps += 1;
                } else {
                    report.links += 1;
                }
            }
            Cow::Owned(f2)
        };
        report.rebuild_ms = t.elapsed().as_secs_f64() * 1e3;

        report.tree_changed = !dead.is_empty() || report.fast_swaps + report.links > 0;
        let graph_changed = report.inserts_applied > 0 || report.deletes_applied > 0;
        if report.tree_changed {
            let msf = MstResult::try_from_edges(self.n, f2.into_owned(), AlgoStats::default())
                .map_err(DynamicError::Overflow)?;
            let t = Instant::now();
            let index = Arc::new(PathMaxIndex::build_par(self.n, &msf, pool)?);
            report.index_ms = t.elapsed().as_secs_f64() * 1e3;
            self.msf = msf;
            self.index = index;
        }

        if report.tree_changed || graph_changed {
            let t = Instant::now();
            self.certify_now(pool)?;
            report.certify_ms = t.elapsed().as_secs_f64() * 1e3;
        }

        self.epoch += 1;
        Ok(report)
    }

    /// `F1`, the MSF after the deletes: the forest minus its `dead` edges
    /// (key-sorted), reconnected by a Kruskal over the `live` edges that
    /// cross its fragments. Tree edges never cross, so those are exactly
    /// the old non-tree edges between fragments. Returns `F1` key-sorted
    /// and a union-find holding its trees.
    fn reconnect_fragments(
        &self,
        dead: &[EdgeKey],
        live: &[Edge],
        report: &mut EpochReport,
    ) -> (Vec<Edge>, UnionFind) {
        let mut uf = UnionFind::new(self.n);
        let mut kept = Vec::with_capacity(self.msf.edges.len());
        let mut dead = dead.iter().peekable();
        for e in &self.msf.edges {
            // Both lists are key-sorted: one walk drops the dead edges.
            if dead.next_if_eq(&&e.key()).is_none() {
                uf.union(e.u, e.v);
                kept.push(*e);
            }
        }
        let fragment: Vec<u32> = (0..self.n as u32).map(|v| uf.find(v)).collect();
        let mut crossing: Vec<Edge> = live
            .iter()
            .filter(|e| fragment[e.u as usize] != fragment[e.v as usize])
            .copied()
            .collect();
        report.rebuild_edges = crossing.len();
        crossing.sort_unstable_by_key(Edge::key);
        crossing.retain(|e| uf.union(e.u, e.v));
        (merge_by_key(&kept, &crossing).map(|(e, _)| e).collect(), uf)
    }

    /// Full certification sweep of the current forest against every live
    /// edge, through the current index.
    fn certify_now(&self, pool: &ThreadPool) -> Result<(), DynamicError> {
        certify_edges(&self.edges, &self.msf, &self.index, pool)?;
        Ok(())
    }

    /// Swap-removes `(lo, hi)` from the store, re-pointing the slot of the
    /// edge moved into its place; `None` if absent.
    fn remove_edge(&mut self, lo: u32, hi: u32) -> Option<Edge> {
        let i = self.slot.remove(&(lo, hi))? as usize;
        let e = self.edges.swap_remove(i);
        if let Some(moved) = self.edges.get(i) {
            self.slot.insert((moved.u, moved.v), i as u32);
        }
        Some(e)
    }
}

/// Merges two key-sorted edge lists into one key-sorted stream, tagging
/// each edge with whether it came from `b`.
fn merge_by_key<'a>(a: &'a [Edge], b: &'a [Edge]) -> impl Iterator<Item = (Edge, bool)> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        if j < b.len() && (i == a.len() || b[j].key() < a[i].key()) {
            j += 1;
            Some((b[j - 1], true))
        } else if i < a.len() {
            i += 1;
            Some((a[i - 1], false))
        } else {
            None
        }
    })
}

fn validate_insert(e: &Edge, n: usize) -> Result<(), DynamicError> {
    if (e.u as usize) >= n || (e.v as usize) >= n {
        return Err(DynamicError::OutOfRange(*e));
    }
    if e.u == e.v {
        return Err(DynamicError::SelfLoop(*e));
    }
    if !e.w.is_finite() {
        return Err(DynamicError::NonFiniteWeight(*e));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal::kruskal;

    fn pool() -> ThreadPool {
        ThreadPool::new(2)
    }

    /// Recompute the canonical MSF of the dynamic structure's current
    /// graph from scratch and compare edge sets.
    fn assert_matches_recompute(d: &DynamicMsf) {
        let edges = d.current_edges();
        let g = CsrGraph::from_edges(d.num_vertices(), &edges);
        let want = kruskal(&g);
        assert_eq!(d.msf().canonical_keys(), want.canonical_keys());
        assert_eq!(d.msf().num_trees, want.num_trees);
    }

    #[test]
    fn losing_insert_stays_out_of_the_tree() {
        let p = pool();
        // Path 0-1-2 with light edges; a heavy chord loses.
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0)];
        let mut d = DynamicMsf::from_edges(3, edges, &p).unwrap();
        let r = d
            .apply_batch(&[Edge::new(0, 2, 9.0)], &[], &p)
            .unwrap();
        assert_eq!(r.fast_rejects, 1);
        assert_eq!(r.fast_swaps, 0);
        assert!(!r.tree_changed);
        assert_eq!(d.num_edges(), 3);
        assert_matches_recompute(&d);
    }

    #[test]
    fn winning_insert_evicts_the_bottleneck() {
        let p = pool();
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 5.0)];
        let mut d = DynamicMsf::from_edges(3, edges, &p).unwrap();
        let r = d
            .apply_batch(&[Edge::new(0, 2, 2.0)], &[], &p)
            .unwrap();
        assert_eq!(r.fast_swaps, 1);
        assert!(r.tree_changed);
        // The 5.0 edge is evicted but stays in the graph.
        assert_eq!(d.num_edges(), 3);
        assert_eq!(d.msf().edges.len(), 2);
        assert!((d.msf().total_weight - 3.0).abs() < 1e-12);
        assert_matches_recompute(&d);
    }

    #[test]
    fn linking_insert_merges_trees() {
        let p = pool();
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(2, 3, 1.0)];
        let mut d = DynamicMsf::from_edges(4, edges, &p).unwrap();
        assert_eq!(d.msf().num_trees, 2);
        let r = d
            .apply_batch(&[Edge::new(1, 2, 0.5)], &[], &p)
            .unwrap();
        assert_eq!(r.links, 1);
        assert_eq!(r.dirty_components, 0, "no tree lost an edge");
        assert_eq!(d.msf().num_trees, 1);
        assert_matches_recompute(&d);
    }

    #[test]
    fn deleting_a_tree_edge_finds_the_replacement() {
        let p = pool();
        // Cycle: tree is 0-1, 1-2; deleting 1-2 promotes the chord 0-2.
        let edges = vec![
            Edge::new(0, 1, 1.0),
            Edge::new(1, 2, 2.0),
            Edge::new(0, 2, 3.0),
        ];
        let mut d = DynamicMsf::from_edges(3, edges, &p).unwrap();
        let r = d.apply_batch(&[], &[(2, 1)], &p).unwrap();
        assert_eq!(r.deletes_applied, 1);
        assert_eq!(r.dirty_components, 1);
        assert_eq!((r.rebuild_vertices, r.rebuild_edges), (2, 1));
        assert_eq!(d.msf().num_trees, 1);
        assert!((d.msf().total_weight - 4.0).abs() < 1e-12);
        assert_matches_recompute(&d);
    }

    #[test]
    fn disconnecting_delete_splits_the_forest() {
        let p = pool();
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0)];
        let mut d = DynamicMsf::from_edges(3, edges, &p).unwrap();
        let r = d.apply_batch(&[], &[(0, 1)], &p).unwrap();
        assert_eq!(r.deletes_applied, 1);
        assert_eq!(d.msf().num_trees, 2);
        assert_eq!(d.num_edges(), 1);
        assert_matches_recompute(&d);
    }

    #[test]
    fn empty_batch_is_a_certified_noop() {
        let p = pool();
        let mut d =
            DynamicMsf::from_edges(3, vec![Edge::new(0, 1, 1.0)], &p).unwrap();
        let before = d.msf().canonical_keys();
        let r = d.apply_batch(&[], &[], &p).unwrap();
        assert_eq!(r.updates(), 0);
        assert!(!r.tree_changed);
        assert_eq!(d.epoch(), 1);
        assert_eq!(d.msf().canonical_keys(), before);
    }

    #[test]
    fn duplicate_insert_and_missing_delete_are_noops() {
        let p = pool();
        let mut d =
            DynamicMsf::from_edges(3, vec![Edge::new(0, 1, 1.0)], &p).unwrap();
        let r = d
            .apply_batch(&[Edge::new(1, 0, 7.0)], &[(1, 2)], &p)
            .unwrap();
        assert_eq!(r.inserts_duplicate, 1);
        assert_eq!(r.deletes_missing, 1);
        assert_eq!(r.updates(), 2);
        assert_eq!(d.num_edges(), 1);
        assert_matches_recompute(&d);
    }

    #[test]
    fn delete_then_reinsert_in_one_batch_updates_the_weight() {
        let p = pool();
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0)];
        let mut d = DynamicMsf::from_edges(3, edges, &p).unwrap();
        let r = d
            .apply_batch(&[Edge::new(0, 1, 0.25)], &[(0, 1)], &p)
            .unwrap();
        assert_eq!(r.deletes_applied, 1);
        assert_eq!(r.inserts_applied, 1);
        assert!((d.msf().total_weight - 2.25).abs() < 1e-12);
        assert_matches_recompute(&d);
    }

    #[test]
    fn swap_removes_keep_the_slot_map_in_step() {
        let p = pool();
        // Store order: (0,1) (1,2) (2,3) (0,3) (0,2). Deleting (1,2)
        // swap-moves (0,2) into its slot; the batch then deletes that
        // moved edge too, deletes and re-inserts (0,1), and re-inserts
        // (1,2) at a new weight.
        let edges = vec![
            Edge::new(0, 1, 1.0),
            Edge::new(1, 2, 2.0),
            Edge::new(2, 3, 3.0),
            Edge::new(0, 3, 4.0),
            Edge::new(0, 2, 5.0),
        ];
        let mut d = DynamicMsf::from_edges(4, edges, &p).unwrap();
        let r = d
            .apply_batch(
                &[Edge::new(1, 0, 6.0), Edge::new(2, 1, 0.5)],
                &[(1, 2), (2, 0), (0, 1)],
                &p,
            )
            .unwrap();
        assert_eq!((r.deletes_applied, r.deletes_missing), (3, 0));
        assert_eq!((r.inserts_applied, r.inserts_duplicate), (2, 0));
        assert_eq!(d.num_edges(), 4);
        let mut live: Vec<(u32, u32, f64)> =
            d.current_edges().iter().map(|e| (e.u, e.v, e.w)).collect();
        live.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(
            live,
            vec![(0, 1, 6.0), (0, 3, 4.0), (1, 2, 0.5), (2, 3, 3.0)]
        );
        assert_matches_recompute(&d);
        // A later batch still finds every edge through its slot.
        let r = d
            .apply_batch(&[], &[(0, 3), (3, 2), (0, 1), (2, 1)], &p)
            .unwrap();
        assert_eq!((r.deletes_applied, r.deletes_missing), (4, 0));
        assert_eq!(d.num_edges(), 0);
        assert_matches_recompute(&d);
    }

    #[test]
    fn invalid_updates_error_without_touching_state() {
        let p = pool();
        let mut d =
            DynamicMsf::from_edges(3, vec![Edge::new(0, 1, 1.0)], &p).unwrap();
        let before_edges = d.num_edges();
        let before_epoch = d.epoch();
        assert!(matches!(
            d.apply_batch(&[Edge::new(0, 9, 1.0)], &[], &p),
            Err(DynamicError::OutOfRange(_))
        ));
        assert!(matches!(
            d.apply_batch(&[Edge::new(1, 1, 1.0)], &[], &p),
            Err(DynamicError::SelfLoop(_))
        ));
        assert!(matches!(
            d.apply_batch(&[Edge::new(0, 2, f64::NAN)], &[], &p),
            Err(DynamicError::NonFiniteWeight(_))
        ));
        assert!(matches!(
            d.apply_batch(&[], &[(0, 9)], &p),
            Err(DynamicError::OutOfRange(_))
        ));
        assert_eq!(d.num_edges(), before_edges);
        assert_eq!(d.epoch(), before_epoch);
    }

    #[test]
    fn parallel_edge_dedup_keeps_the_smallest_key() {
        let p = pool();
        let edges = vec![
            Edge::new(0, 1, 3.0),
            Edge::new(1, 0, 1.0),
            Edge::new(0, 1, 2.0),
        ];
        let d = DynamicMsf::from_edges(2, edges, &p).unwrap();
        assert_eq!(d.num_edges(), 1);
        assert!((d.msf().total_weight - 1.0).abs() < 1e-12);
    }

    #[test]
    fn many_epochs_of_mixed_updates_stay_canonical() {
        let p = pool();
        let g = llp_graph::generators::erdos_renyi(60, 120, 3);
        let mut d = DynamicMsf::new(&g, &p).unwrap();
        let mut rng = llp_runtime::rng::SmallRng::seed_from_u64(7);
        for _ in 0..6 {
            let mut inserts = Vec::new();
            let mut deletes = Vec::new();
            for _ in 0..10 {
                let u = rng.gen_range(0..60u32);
                let v = rng.gen_range(0..60u32);
                if u == v {
                    continue;
                }
                if rng.gen_bool(0.5) {
                    inserts.push(Edge::new(u, v, rng.gen_range(1..8u32) as f64 / 2.0));
                } else {
                    deletes.push((u, v));
                }
            }
            d.apply_batch(&inserts, &deletes, &p).unwrap();
            assert_matches_recompute(&d);
        }
        assert_eq!(d.epoch(), 6);
    }
}
