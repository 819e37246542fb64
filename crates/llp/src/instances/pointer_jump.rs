//! Pointer jumping (rooted trees → rooted stars) as LLP detection.
//!
//! This is the inner LLP instance of the paper's LLP-Boruvka (Lemma 3/4):
//! given a rooted forest encoded as parent pointers `G[j]` (roots point to
//! themselves), a node is *forbidden* while `G[j] ≠ G[G[j]]` and advances
//! by `G[j] := G[G[j]]`. When no node is forbidden every tree has become a
//! star: each node points directly at its root.
//!
//! `llp-mst`'s LLP-Boruvka inlines this computation with relaxed atomics
//! (the paper's "little to no synchronization" point); this module is the
//! same predicate expressed through the generic solver, used as its
//! executable specification and for the framework example.

use crate::problem::LlpProblem;

/// A pointer-jumping LLP instance over an initial parent assignment.
#[derive(Debug, Clone)]
pub struct PointerJump {
    parent: Vec<usize>,
}

impl PointerJump {
    /// Creates the instance from initial parent pointers.
    ///
    /// The pointers must form a rooted forest: following parents from any
    /// node must reach a self-loop (root). Cycles of length ≥ 2 would make
    /// the predicate unsatisfiable; a debug check rejects them.
    pub fn new(parent: Vec<usize>) -> Self {
        let n = parent.len();
        for &p in &parent {
            assert!(p < n, "parent pointer out of range");
        }
        debug_assert!(
            (0..n).all(|mut v| {
                // A rooted forest reaches a self-loop within n hops.
                for _ in 0..=n {
                    let p = parent[v];
                    if p == v {
                        return true;
                    }
                    v = p;
                }
                false
            }),
            "parent pointers contain a cycle of length >= 2"
        );
        PointerJump { parent }
    }

    /// The root each node would reach by walking pointers (reference
    /// semantics for tests).
    pub fn roots_by_walking(&self) -> Vec<usize> {
        (0..self.parent.len())
            .map(|mut v| {
                while self.parent[v] != v {
                    v = self.parent[v];
                }
                v
            })
            .collect()
    }
}

impl LlpProblem for PointerJump {
    type State = usize;

    fn num_indices(&self) -> usize {
        self.parent.len()
    }

    fn bottom(&self, j: usize) -> usize {
        self.parent[j]
    }

    fn forbidden(&self, g: &[usize], j: usize) -> bool {
        g[j] != g[g[j]]
    }

    fn advance(&self, g: &[usize], j: usize) -> Option<usize> {
        Some(g[g[j]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve_parallel, solve_sequential};
    use llp_runtime::ThreadPool;

    #[test]
    fn chain_becomes_star() {
        // 0 <- 1 <- 2 <- 3 <- 4
        let p = PointerJump::new(vec![0, 0, 1, 2, 3]);
        let sol = solve_sequential(&p).unwrap();
        assert_eq!(sol.state, vec![0; 5]);
    }

    #[test]
    fn forest_becomes_stars() {
        // two trees rooted at 0 and 3
        let p = PointerJump::new(vec![0, 0, 1, 3, 3, 4]);
        let sol = solve_sequential(&p).unwrap();
        assert_eq!(sol.state, vec![0, 0, 0, 3, 3, 3]);
        assert_eq!(sol.state, p.roots_by_walking());
    }

    #[test]
    fn already_star_is_feasible_immediately() {
        let p = PointerJump::new(vec![0, 0, 0, 0]);
        let sol = solve_sequential(&p).unwrap();
        assert_eq!(sol.stats.advances, 0);
        assert_eq!(sol.state, vec![0; 4]);
    }

    #[test]
    fn parallel_matches_sequential_on_random_forests() {
        use llp_runtime::rng::SmallRng;
        let pool = ThreadPool::new(4);
        for seed in 0..6 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 200;
            // Random forest: each node's parent has a smaller index (or is
            // itself, making it a root).
            let parent: Vec<usize> = (0..n)
                .map(|v| if v == 0 || rng.gen_bool(0.1) { v } else { rng.gen_range(0..v) })
                .collect();
            let p = PointerJump::new(parent);
            let seq = solve_sequential(&p).unwrap();
            let par = solve_parallel(&p, &pool).unwrap();
            assert_eq!(seq.state, par.state, "seed {seed}");
            assert_eq!(seq.state, p.roots_by_walking(), "seed {seed}");
        }
    }

    #[test]
    fn parallel_rounds_are_logarithmic() {
        // A chain of 1024 nodes needs ~log2(1024) = 10 doubling rounds
        // (plus the final all-clear round).
        let n = 1024;
        let parent: Vec<usize> = (0..n).map(|v: usize| v.saturating_sub(1)).collect();
        let p = PointerJump::new(parent);
        let pool = ThreadPool::new(2);
        let sol = solve_parallel(&p, &pool).unwrap();
        assert!(
            sol.stats.rounds <= 12,
            "pointer jumping should double depth each round; took {} rounds",
            sol.stats.rounds
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_parent() {
        let _ = PointerJump::new(vec![5]);
    }
}
