//! MST/MSF verification by two independent oracles, both for small inputs.
//!
//! * [`verify_msf`] re-runs Kruskal and compares canonical edge sets.
//! * [`reference_certify`] walks explicit tree paths ([`TreePaths`]) and
//!   returns exactly the [`Result`] the fast certifiers in
//!   [`crate::certify`] return, witness included, so their witnesses are
//!   checked against something other than themselves.

use crate::kruskal::kruskal;
use crate::result::MstResult;
use crate::union_find::UnionFind;
use llp_graph::{CsrGraph, Edge, EdgeKey, VertexId};
use std::collections::{HashSet, VecDeque};

/// A verification failure, with what went wrong.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// An edge in the result does not exist in the graph.
    ForeignEdge(Edge),
    /// The result contains a cycle.
    Cycle(Edge),
    /// A graph edge connects two trees the result leaves unjoined: the
    /// forest fails to span a connected component. Carries the offending
    /// (non-tree) graph edge whose endpoints the forest does not connect.
    NotSpanning(Edge),
    /// The result's edge set differs from the canonical MSF.
    NotMinimum {
        /// Weight of the submitted forest.
        got_weight: f64,
        /// Weight of the canonical MSF.
        min_weight: f64,
    },
    /// A graph edge is lighter than the heaviest tree edge on the tree
    /// path between its endpoints: that tree edge is not the minimum
    /// across the cut it defines. Carries the lighter graph edge.
    CutViolation(Edge),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::ForeignEdge(e) => write!(f, "edge ({},{}) not in graph", e.u, e.v),
            VerifyError::Cycle(e) => write!(f, "edge ({},{}) closes a cycle", e.u, e.v),
            VerifyError::NotSpanning(e) => write!(
                f,
                "forest does not span its component: graph edge ({},{}) \
                 connects two unjoined trees",
                e.u, e.v
            ),
            VerifyError::NotMinimum {
                got_weight,
                min_weight,
            } => write!(f, "forest weighs {got_weight}, minimum is {min_weight}"),
            VerifyError::CutViolation(e) => {
                write!(f, "edge ({},{}) is not minimal across its cut", e.u, e.v)
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// The Kruskal oracle: `result` is the canonical MSF of `graph` iff every
/// edge it names is a graph edge (endpoints in range, weight included) and
/// its canonical keys equal Kruskal's. A cycle or a wrong edge count reads
/// [`VerifyError::NotMinimum`], since Kruskal's output is a forest.
pub fn verify_msf(graph: &CsrGraph, result: &MstResult) -> Result<(), VerifyError> {
    let n = graph.num_vertices();
    let in_graph = |e: &Edge| {
        (e.u as usize) < n
            && (e.v as usize) < n
            && graph.neighbors(e.u).any(|(v, w)| v == e.v && w == e.w)
    };
    if let Some(e) = result.edges.iter().find(|e| !in_graph(e)) {
        return Err(VerifyError::ForeignEdge(*e));
    }
    let oracle = kruskal(graph);
    if result.canonical_keys() != oracle.canonical_keys() {
        return Err(VerifyError::NotMinimum {
            got_weight: result.total_weight,
            min_weight: oracle.total_weight,
        });
    }
    Ok(())
}

/// Explicit paths through a set of tree edges, found by breadth-first
/// search: the naive walker behind [`reference_certify`]. O(n) per query.
pub struct TreePaths<'a> {
    tree: &'a [Edge],
    /// `(neighbour, index into tree)` for every tree edge at each vertex.
    adj: Vec<Vec<(VertexId, usize)>>,
}

impl<'a> TreePaths<'a> {
    /// Builds the adjacency of `tree` over vertices `0..n` once.
    ///
    /// # Panics
    /// Panics if an edge names a vertex `≥ n`.
    pub fn new(n: usize, tree: &'a [Edge]) -> Self {
        let mut adj = vec![Vec::new(); n];
        for (i, e) in tree.iter().enumerate() {
            adj[e.u as usize].push((e.v, i));
            adj[e.v as usize].push((e.u, i));
        }
        TreePaths { tree, adj }
    }

    /// Indices into `tree` of the edges on the path from `u` to `v`: empty
    /// when `u == v`, `None` when they lie in different trees.
    pub fn path(&self, u: VertexId, v: VertexId) -> Option<Vec<usize>> {
        // BFS from `u` until `v` is reached, remembering the tree edge each
        // vertex was reached by.
        let mut via: Vec<Option<usize>> = vec![None; self.adj.len()];
        let mut seen = vec![false; self.adj.len()];
        seen[u as usize] = true;
        let mut queue = VecDeque::from([u]);
        while !seen[v as usize] {
            let x = queue.pop_front()?;
            for &(y, i) in &self.adj[x as usize] {
                if !seen[y as usize] {
                    seen[y as usize] = true;
                    via[y as usize] = Some(i);
                    queue.push_back(y);
                }
            }
        }
        let mut path = Vec::new();
        let mut x = v;
        while x != u {
            let i = via[x as usize].expect("reached by a tree edge");
            path.push(i);
            x = if self.tree[i].u == x { self.tree[i].v } else { self.tree[i].u };
        }
        Some(path)
    }

    /// The largest-key edge on the path from `u` to `v`, as given in
    /// `tree`: `None` when the path is empty or does not exist.
    pub fn heaviest(&self, u: VertexId, v: VertexId) -> Option<Edge> {
        let path = self.path(u, v)?;
        path.into_iter().map(|i| self.tree[i]).max_by_key(Edge::key)
    }
}

/// Naive reference for the fast certifiers: O(m·n), for small inputs only.
/// Returns exactly what [`crate::certify::certify_msf`] returns when
/// `records` is `graph.edges()` (each edge once, `u < v`), and what the
/// edge-slice and out-of-core certifiers return on any record multiset
/// (repeats and either orientation allowed). The first rule that fires
/// names the witness:
///
/// 1. the first edge of `forest.edges` with an endpoint `≥ n` is
///    [`VerifyError::ForeignEdge`];
/// 2. replaying `forest.edges` in key order, ties in the order given, the
///    first edge whose endpoints are already joined is
///    [`VerifyError::Cycle`], as given;
/// 3. among the records that beat the maximum key on their tree path, the
///    one smallest by `(key, first endpoint)` is
///    [`VerifyError::CutViolation`], as given, or
///    [`VerifyError::NotSpanning`] when its endpoints lie in different
///    trees. Self-loops and records equal to their own path maximum pass;
/// 4. the first edge of `forest.edges` whose key no record matches is
///    [`VerifyError::ForeignEdge`].
///
/// # Panics
/// Panics if a record names a vertex `≥ n`.
pub fn reference_certify(n: usize, records: &[Edge], forest: &MstResult) -> Result<(), VerifyError> {
    let tree = &forest.edges;
    if let Some(e) = tree.iter().find(|e| (e.u as usize) >= n || (e.v as usize) >= n) {
        return Err(VerifyError::ForeignEdge(*e));
    }

    let mut by_key: Vec<&Edge> = tree.iter().collect();
    by_key.sort_by_key(|e| e.key()); // stable: ties stay in the order given
    let mut uf = UnionFind::new(n);
    if let Some(e) = by_key.into_iter().find(|e| !uf.union(e.u, e.v)) {
        return Err(VerifyError::Cycle(*e));
    }

    let paths = TreePaths::new(n, tree);
    let witness = records
        .iter()
        .filter_map(|r| {
            let err = match paths.path(r.u, r.v) {
                None => VerifyError::NotSpanning(*r),
                Some(p) if p.iter().any(|&i| r.key() < tree[i].key()) => {
                    VerifyError::CutViolation(*r)
                }
                Some(_) => return None,
            };
            Some(((r.key(), r.u), err))
        })
        .min_by_key(|&(k, _)| k);
    if let Some((_, err)) = witness {
        return Err(err);
    }

    let keys: HashSet<EdgeKey> = records.iter().map(Edge::key).collect();
    match tree.iter().find(|e| !keys.contains(&e.key())) {
        Some(e) => Err(VerifyError::ForeignEdge(*e)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify_msf;
    use crate::stats::AlgoStats;
    use llp_graph::samples::{fig1, small_forest};

    fn reference(g: &CsrGraph, f: &MstResult) -> Result<(), VerifyError> {
        let records: Vec<Edge> = g.edges().collect();
        reference_certify(g.num_vertices(), &records, f)
    }

    fn forest(n: usize, edges: Vec<Edge>) -> MstResult {
        MstResult::from_edges(n, edges, AlgoStats::default())
    }

    #[test]
    fn both_oracles_accept_the_msf() {
        for g in [
            fig1(),
            small_forest(),
            llp_graph::generators::erdos_renyi(80, 250, 3),
        ] {
            let msf = kruskal(&g);
            verify_msf(&g, &msf).unwrap();
            reference(&g, &msf).unwrap();
        }
    }

    #[test]
    fn suboptimal_tree_is_a_cut_violation_of_the_lighter_non_tree_edge() {
        let g = fig1();
        // Spanning with the 9-edge instead of the 7-edge: weight 18 > 16.
        // The non-tree 7-edge (b,d) beats the 9-edge on its tree path.
        let subopt = forest(
            5,
            vec![
                Edge::new(3, 4, 2.0),
                Edge::new(1, 2, 3.0),
                Edge::new(0, 2, 4.0),
                Edge::new(2, 3, 9.0),
            ],
        );
        let want = Err(VerifyError::CutViolation(Edge::new(1, 3, 7.0)));
        assert_eq!(reference(&g, &subopt), want);
        assert_eq!(certify_msf(&g, &subopt), want);
        assert!(matches!(
            verify_msf(&g, &subopt),
            Err(VerifyError::NotMinimum { got_weight, min_weight })
                if (got_weight, min_weight) == (18.0, 16.0)
        ));
    }

    #[test]
    fn stranded_vertex_is_not_spanning_at_its_lightest_edge() {
        let g = fig1();
        // Without (d,e)=2, vertex 4 is stranded; of the graph edges that
        // reach it, (d,e) itself is the smallest key.
        let partial = forest(
            5,
            vec![Edge::new(1, 2, 3.0), Edge::new(0, 2, 4.0), Edge::new(1, 3, 7.0)],
        );
        let want = Err(VerifyError::NotSpanning(Edge::new(3, 4, 2.0)));
        assert_eq!(reference(&g, &partial), want);
        assert_eq!(certify_msf(&g, &partial), want);
        assert!(matches!(
            verify_msf(&g, &partial),
            Err(VerifyError::NotMinimum { .. })
        ));
    }

    #[test]
    fn foreign_edges_and_cycles_are_named() {
        let g = fig1();
        let fake = forest(5, vec![Edge::new(0, 4, 1.0)]); // no such edge
        let want = Err(VerifyError::ForeignEdge(Edge::new(0, 4, 1.0)));
        assert_eq!(verify_msf(&g, &fake), want);
        // The fake edge joins 0 and 4, so graph edges across that join
        // pass; the graph edges that reach the unjoined vertices 1..=3 do
        // not.
        let want = Err(VerifyError::NotSpanning(Edge::new(3, 4, 2.0)));
        assert_eq!(reference(&g, &fake), want);
        assert_eq!(certify_msf(&g, &fake), want);

        // The 5-edge closes the triangle (b,c), (a,c), (a,b) last in key
        // order. Kruskal's forest has no cycle, so the oracle reads it as
        // a different edge set.
        let cyclic = forest(
            5,
            vec![Edge::new(0, 1, 5.0), Edge::new(1, 2, 3.0), Edge::new(0, 2, 4.0)],
        );
        let want = Err(VerifyError::Cycle(Edge::new(0, 1, 5.0)));
        assert_eq!(reference(&g, &cyclic), want);
        assert_eq!(certify_msf(&g, &cyclic), want);
        assert!(matches!(
            verify_msf(&g, &cyclic),
            Err(VerifyError::NotMinimum { .. })
        ));
    }

    #[test]
    fn out_of_range_tree_edge_is_foreign_not_a_panic() {
        let g = CsrGraph::from_edges(3, &[Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0)]);
        let f = forest(3, vec![Edge::new(7, 0, 1.0)]);
        let want = Err(VerifyError::ForeignEdge(Edge::new(7, 0, 1.0)));
        assert_eq!(verify_msf(&g, &f), want);
        assert_eq!(reference(&g, &f), want);
        assert_eq!(certify_msf(&g, &f), want);
    }

    #[test]
    fn a_signed_zero_twin_of_a_graph_edge_is_foreign() {
        // `-0.0 == 0.0` as floats, but the keys differ: no record matches
        // the forest's edge.
        let g = CsrGraph::from_edges(2, &[Edge::new(0, 1, 0.0)]);
        let f = forest(2, vec![Edge::new(0, 1, -0.0)]);
        let foreign = |r: Result<(), VerifyError>| {
            matches!(r, Err(VerifyError::ForeignEdge(e)) if e.w.is_sign_negative())
        };
        assert!(foreign(reference(&g, &f)));
        assert!(foreign(certify_msf(&g, &f)), "{:?}", certify_msf(&g, &f));
        assert!(verify_msf(&g, &f).is_err());
    }

    #[test]
    fn tree_paths_walk_the_forest() {
        let g = small_forest();
        let msf = kruskal(&g);
        let paths = TreePaths::new(g.num_vertices(), &msf.edges);
        assert_eq!(paths.path(0, 0), Some(vec![]));
        assert!(paths.path(0, 3).is_none(), "different trees");
        assert!(paths.heaviest(5, 5).is_none(), "empty path");

        let g = fig1();
        let mst = kruskal(&g);
        let paths = TreePaths::new(5, &mst.edges);
        // Path e..a: edges 2, 7, 3, 4; the heaviest is (b,d) = 7.
        assert_eq!(paths.path(4, 0).map(|p| p.len()), Some(4));
        assert_eq!(paths.heaviest(4, 0).map(|e| e.key()), Some(EdgeKey::new(7.0, 1, 3)));
        assert_eq!(paths.heaviest(2, 1).map(|e| e.w), Some(3.0));
    }
}
