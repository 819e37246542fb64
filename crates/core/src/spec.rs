//! Executable specification of LLP-Prim (the paper's Algorithm 4).
//!
//! Algorithm 4 states LLP-Prim directly from the definitions: the state
//! vector `G` holds every non-root vertex's *proposed parent edge*
//! (initially its minimum adjacent edge); a vertex is **fixed** when
//! following proposed edges reaches the root; `j` is **forbidden** when it
//! is the non-fixed endpoint of the minimum-weight edge in the cut
//! `E' = {(i,k) : fixed(i) ∧ ¬fixed(k)}`; advancing sets `G[j]` to that
//! cut edge.
//!
//! Run through the generic `llp-core` solver this is O(n·m) per advance —
//! useless as an implementation, invaluable as an oracle: the optimised
//! [`crate::llp_prim`] must produce exactly the same tree. Requires a
//! connected graph (the paper's stated precondition for LLP-Prim); on a
//! disconnected graph the predicate is not detectable (E' empties before
//! all vertices fix) and [`LlpPrimSpec::solve`] reports it.

use crate::result::{MstError, MstResult};
use crate::stats::AlgoStats;
use llp_core::{solve_sequential, LlpProblem};
use llp_graph::{CsrGraph, Edge, EdgeKey, VertexId};

/// The Algorithm 4 problem instance.
pub struct LlpPrimSpec<'g> {
    graph: &'g CsrGraph,
    root: VertexId,
    bottom: Vec<EdgeKey>,
}

impl<'g> LlpPrimSpec<'g> {
    /// Creates the instance rooted at `root`.
    pub fn new(graph: &'g CsrGraph, root: VertexId) -> Result<Self, MstError> {
        let n = graph.num_vertices();
        if n == 0 {
            return Err(MstError::EmptyGraph);
        }
        if root as usize >= n {
            return Err(MstError::InvalidRoot { root, total: n });
        }
        let bottom = (0..n as VertexId)
            .map(|v| graph.min_edge(v).unwrap_or_else(EdgeKey::infinite))
            .collect();
        Ok(LlpPrimSpec {
            graph,
            root,
            bottom,
        })
    }

    /// Which vertices are fixed under proposal vector `g`: those whose
    /// proposed-edge path reaches the root.
    fn fixed_set(&self, g: &[EdgeKey]) -> Vec<bool> {
        let n = self.graph.num_vertices();
        let mut fixed = vec![false; n];
        fixed[self.root as usize] = true;
        // Iterate to a fixpoint: v is fixed if its proposed edge leads to a
        // fixed vertex. (O(n²) worst case; this is a specification.)
        loop {
            let mut changed = false;
            for v in 0..n as VertexId {
                if fixed[v as usize] || g[v as usize] == EdgeKey::infinite() {
                    continue;
                }
                let to = g[v as usize].other(v);
                if fixed[to as usize] {
                    fixed[v as usize] = true;
                    changed = true;
                }
            }
            if !changed {
                return fixed;
            }
        }
    }

    /// The minimum cut edge of `E'(G)` with its non-fixed endpoint, if any.
    fn min_cut_edge(&self, g: &[EdgeKey]) -> Option<(EdgeKey, VertexId)> {
        let fixed = self.fixed_set(g);
        let mut best: Option<(EdgeKey, VertexId)> = None;
        for i in 0..self.graph.num_vertices() as VertexId {
            if !fixed[i as usize] {
                continue;
            }
            for (k, w) in self.graph.neighbors(i) {
                if fixed[k as usize] {
                    continue;
                }
                let key = EdgeKey::new(w, i, k);
                if best.is_none_or(|(b, _)| key < b) {
                    best = Some((key, k));
                }
            }
        }
        best
    }

    /// Solves the spec and assembles the MST.
    pub fn solve(&self) -> Result<MstResult, MstError> {
        let n = self.graph.num_vertices();
        let solution =
            solve_sequential(self).expect("advance never leaves the lattice in Algorithm 4");
        let fixed = self.fixed_set(&solution.state);
        let reached = fixed.iter().filter(|&&f| f).count();
        if reached < n {
            return Err(MstError::Disconnected { reached, total: n });
        }
        let mut stats = AlgoStats::default();
        stats.rounds = solution.stats.rounds;
        let edges: Vec<Edge> = (0..n as VertexId)
            .filter(|&v| v != self.root)
            .map(|v| {
                let key = solution.state[v as usize];
                Edge::new(key.other(v), v, key.weight())
            })
            .collect();
        Ok(MstResult::from_edges(n, edges, stats))
    }
}

impl LlpProblem for LlpPrimSpec<'_> {
    type State = EdgeKey;

    fn num_indices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn bottom(&self, j: usize) -> EdgeKey {
        self.bottom[j]
    }

    fn forbidden(&self, g: &[EdgeKey], j: usize) -> bool {
        // The root never proposes; isolated vertices are unreachable.
        if j as VertexId == self.root {
            return false;
        }
        match self.min_cut_edge(g) {
            Some((_, k)) => k == j as VertexId,
            None => false,
        }
    }

    fn advance(&self, g: &[EdgeKey], j: usize) -> Option<EdgeKey> {
        let (key, k) = self.min_cut_edge(g).expect("forbidden implies cut edge");
        debug_assert_eq!(k, j as VertexId);
        Some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kruskal::kruskal;
    use crate::llp_prim::llp_prim_seq;
    use llp_graph::samples::{fig1, FIG1_MST_WEIGHT};

    #[test]
    fn fig1_spec_finds_the_mst() {
        let g = fig1();
        let spec = LlpPrimSpec::new(&g, 0).unwrap();
        let mst = spec.solve().unwrap();
        assert_eq!(mst.total_weight, FIG1_MST_WEIGHT);
    }

    #[test]
    fn fig1_bottom_matches_paper_initial_vector() {
        let g = fig1();
        let spec = LlpPrimSpec::new(&g, 0).unwrap();
        // Paper: initially G[b]=3, G[c]=3, G[d]=2, G[e]=2.
        assert_eq!(spec.bottom(1).weight(), 3.0);
        assert_eq!(spec.bottom(2).weight(), 3.0);
        assert_eq!(spec.bottom(3).weight(), 2.0);
        assert_eq!(spec.bottom(4).weight(), 2.0);
    }

    #[test]
    fn spec_matches_optimised_llp_prim() {
        for seed in 0..5 {
            let g = llp_graph::generators::road_network(
                llp_graph::generators::RoadParams::usa_like(5, 6, seed),
            );
            let spec = LlpPrimSpec::new(&g, 0).unwrap().solve().unwrap();
            let fast = llp_prim_seq(&g, 0).unwrap();
            assert_eq!(
                spec.canonical_keys(),
                fast.canonical_keys(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn spec_matches_kruskal_on_tiny_random_graphs() {
        for seed in 0..8 {
            let g = llp_graph::generators::erdos_renyi(12, 40, seed);
            if kruskal(&g).num_trees != 1 {
                continue;
            }
            let spec = LlpPrimSpec::new(&g, 0).unwrap().solve().unwrap();
            assert_eq!(
                spec.canonical_keys(),
                kruskal(&g).canonical_keys(),
                "seed {seed}"
            );
        }
    }

    /// Algorithm 1's parallel rounds (every forbidden index advanced
    /// against a frozen snapshot) reach the same least vector as the
    /// sequential sweeps on the MST instance, whatever the pool size.
    #[test]
    fn parallel_solver_reaches_the_sequential_state() {
        use llp_core::solve_parallel;
        use llp_graph::algo::largest_component;
        use llp_graph::generators::erdos_renyi;
        use llp_runtime::ThreadPool;

        let mut graphs = vec![fig1()];
        for seed in 0..6 {
            let g = largest_component(&erdos_renyi(40, 100, seed));
            assert!(g.num_vertices() <= 40);
            graphs.push(g);
        }
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            for (i, g) in graphs.iter().enumerate() {
                let spec = LlpPrimSpec::new(g, 0).unwrap();
                let seq = solve_sequential(&spec).unwrap();
                let par = solve_parallel(&spec, &pool).unwrap();
                assert_eq!(par.state, seq.state, "graph {i}, {threads} threads");
            }
        }
    }

    #[test]
    fn disconnected_detected() {
        let g = CsrGraph::from_edges(4, &[Edge::new(0, 1, 1.0), Edge::new(2, 3, 1.0)]);
        let spec = LlpPrimSpec::new(&g, 0).unwrap();
        assert!(matches!(
            spec.solve(),
            Err(MstError::Disconnected {
                reached: 2,
                total: 4
            })
        ));
    }

    #[test]
    fn invalid_inputs() {
        assert!(matches!(
            LlpPrimSpec::new(&CsrGraph::empty(0), 0),
            Err(MstError::EmptyGraph)
        ));
        assert!(matches!(
            LlpPrimSpec::new(&CsrGraph::empty(2), 7),
            Err(MstError::InvalidRoot { .. })
        ));
    }
}
