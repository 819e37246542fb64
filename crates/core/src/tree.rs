//! Rooted-tree utilities over MST/MSF results.
//!
//! Algorithms return edge sets; consumers usually want the *rooted*
//! structure the paper describes ("the problem of finding minimum spanning
//! tree rooted at v0 can be reformulated as finding the parent for every
//! node"): parent pointers, depths, and the naive tree-path maximum that
//! serves as the cycle-property oracle.

use crate::result::MstResult;
use llp_graph::{VertexId, NO_VERTEX};
use std::collections::VecDeque;

/// A forest of rooted trees derived from an [`MstResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct RootedForest {
    /// `parent[v]` — parent vertex, or `v` itself for roots.
    pub parent: Vec<VertexId>,
    /// Weight of the edge to the parent (0 for roots).
    pub parent_weight: Vec<f64>,
    /// Hop depth from the root.
    pub depth: Vec<u32>,
    /// Root of each vertex's tree.
    pub root: Vec<VertexId>,
    /// The roots, in increasing id order.
    pub roots: Vec<VertexId>,
}

impl RootedForest {
    /// Orients a forest at the given preferred root (used for the tree
    /// containing it; other trees root at their least vertex).
    ///
    /// # Panics
    /// Panics if the result's edges reference vertices `>= n` or contain a
    /// cycle (impossible for verified algorithm outputs).
    pub fn new(n: usize, result: &MstResult, preferred_root: VertexId) -> Self {
        // Adjacency of the forest.
        let mut adj: Vec<Vec<(VertexId, f64)>> = vec![Vec::new(); n];
        for e in &result.edges {
            adj[e.u as usize].push((e.v, e.w));
            adj[e.v as usize].push((e.u, e.w));
        }
        let mut parent = vec![NO_VERTEX; n];
        let mut parent_weight = vec![0.0; n];
        let mut depth = vec![0u32; n];
        let mut root = vec![NO_VERTEX; n];
        let mut roots = Vec::new();
        let mut queue = VecDeque::new();

        let mut bfs_root = |r: VertexId,
                            parent: &mut Vec<VertexId>,
                            parent_weight: &mut Vec<f64>,
                            depth: &mut Vec<u32>,
                            root: &mut Vec<VertexId>| {
            parent[r as usize] = r;
            root[r as usize] = r;
            queue.push_back(r);
            while let Some(u) = queue.pop_front() {
                for &(v, w) in &adj[u as usize] {
                    if parent[v as usize] == NO_VERTEX {
                        parent[v as usize] = u;
                        parent_weight[v as usize] = w;
                        depth[v as usize] = depth[u as usize] + 1;
                        root[v as usize] = r;
                        queue.push_back(v);
                    }
                }
            }
        };

        if (preferred_root as usize) < n {
            roots.push(preferred_root);
            bfs_root(
                preferred_root,
                &mut parent,
                &mut parent_weight,
                &mut depth,
                &mut root,
            );
        }
        for v in 0..n as VertexId {
            if parent[v as usize] == NO_VERTEX {
                roots.push(v);
                bfs_root(v, &mut parent, &mut parent_weight, &mut depth, &mut root);
            }
        }
        roots.sort_unstable();
        RootedForest {
            parent,
            parent_weight,
            depth,
            root,
            roots,
        }
    }

    /// Number of trees.
    pub fn num_trees(&self) -> usize {
        self.roots.len()
    }

    /// True when `v` is a root.
    pub fn is_root(&self, v: VertexId) -> bool {
        self.parent[v as usize] == v
    }

    /// The heaviest edge key on the unique tree path between `u` and `v`
    /// (`None` when different trees or `u == v`). This is the query behind
    /// the MST *cycle property*: a non-tree edge is MST-consistent iff it
    /// is at least as heavy as every tree edge on the cycle it closes.
    pub fn path_max_key(&self, u: VertexId, v: VertexId) -> Option<llp_graph::EdgeKey> {
        use llp_graph::EdgeKey;
        if self.root[u as usize] != self.root[v as usize] || u == v {
            return None;
        }
        let key_up = |x: VertexId| {
            EdgeKey::new(self.parent_weight[x as usize], x, self.parent[x as usize])
        };
        let (mut a, mut b) = (u, v);
        let mut best: Option<EdgeKey> = None;
        let bump = |k: EdgeKey, best: &mut Option<EdgeKey>| {
            if best.is_none_or(|b| b < k) {
                *best = Some(k);
            }
        };
        while self.depth[a as usize] > self.depth[b as usize] {
            bump(key_up(a), &mut best);
            a = self.parent[a as usize];
        }
        while self.depth[b as usize] > self.depth[a as usize] {
            bump(key_up(b), &mut best);
            b = self.parent[b as usize];
        }
        while a != b {
            bump(key_up(a), &mut best);
            a = self.parent[a as usize];
            bump(key_up(b), &mut best);
            b = self.parent[b as usize];
        }
        best
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal::kruskal;
    use llp_graph::samples::fig1;

    fn fig1_forest() -> RootedForest {
        let g = fig1();
        let mst = kruskal(&g);
        RootedForest::new(g.num_vertices(), &mst, 0)
    }

    #[test]
    fn fig1_rooted_structure() {
        let f = fig1_forest();
        assert_eq!(f.num_trees(), 1);
        assert_eq!(f.roots, vec![0]);
        assert!(f.is_root(0));
        // MST edges: (a,c)=4, (b,c)=3, (b,d)=7, (d,e)=2 rooted at a:
        // a -> c -> b -> d -> e
        assert_eq!(f.parent[2], 0);
        assert_eq!(f.parent[1], 2);
        assert_eq!(f.parent[3], 1);
        assert_eq!(f.parent[4], 3);
        assert_eq!(f.depth[4], 4);
    }

    #[test]
    fn path_max_key_finds_heaviest_edge() {
        let f = fig1_forest();
        // Path e..a: edges 2, 7, 3, 4 — the max is 7 = (b,d).
        let k = f.path_max_key(4, 0).unwrap();
        assert_eq!(k.weight(), 7.0);
        // Path c..b is the single edge 3.
        assert_eq!(f.path_max_key(2, 1).unwrap().weight(), 3.0);
        assert!(f.path_max_key(3, 3).is_none());
    }

    #[test]
    fn forest_with_multiple_trees() {
        let g = llp_graph::samples::small_forest();
        let msf = kruskal(&g);
        let f = RootedForest::new(g.num_vertices(), &msf, 0);
        assert_eq!(f.num_trees(), 3);
        assert!(f.path_max_key(0, 3).is_none(), "different trees");
        assert!(f.is_root(5), "isolated vertex is its own root");
    }

    #[test]
    fn preferred_root_respected_in_other_trees_too() {
        let g = llp_graph::samples::small_forest();
        let msf = kruskal(&g);
        let f = RootedForest::new(g.num_vertices(), &msf, 4);
        assert!(f.is_root(4));
        assert_eq!(f.root[3], 4);
    }

}
