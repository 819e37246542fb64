//! Pointer jumping (rooted trees → rooted stars) as LLP detection.
//!
//! This is the inner LLP instance of the paper's LLP-Boruvka (Lemma 3/4):
//! given a rooted forest encoded as parent pointers `G[j]` (roots point to
//! themselves), a node is *forbidden* while `G[j] ≠ G[G[j]]` and advances
//! by `G[j] := G[G[j]]`. When no node is forbidden every tree has become a
//! star: each node points directly at its root.
//!
//! This is the predicate's only definition. `llp-mst`'s LLP-Borůvka runs
//! it through [`crate::solve_parallel`] on its parent array, in place and
//! with relaxed atomics (the paper's "little to no synchronization" point).
//! The starting vector must be a rooted forest: following parents from
//! any node reaches a root, and every pointer is in range.

use crate::problem::LlpProblem;

/// The pointer-jumping predicate over parent pointers. It holds no state:
/// the solver advances the caller's parent array.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointerJump;

impl LlpProblem for PointerJump {
    type State = u32;

    fn forbidden(&self, g: impl Fn(usize) -> u32, j: usize) -> bool {
        let p = g(j);
        p != g(p as usize)
    }

    fn advance(&self, g: impl Fn(usize) -> u32, j: usize) -> Option<u32> {
        Some(g(g(j) as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve_parallel, solve_sequential};
    use llp_runtime::rng::SmallRng;
    use llp_runtime::{ParallelForConfig, ThreadPool};

    /// The root each node reaches by walking pointers: Lemma 3's
    /// consequence, the reference both solvers must reproduce.
    fn roots_by_walking(parent: &[u32]) -> Vec<u32> {
        (0..parent.len() as u32)
            .map(|mut v| {
                while parent[v as usize] != v {
                    v = parent[v as usize];
                }
                v
            })
            .collect()
    }

    /// A random rooted forest on `n` nodes whose labels are shuffled, so
    /// parents sit both before and after their children in index order.
    fn random_forest(n: usize, seed: u64) -> Vec<u32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut label: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut label);
        let mut parent: Vec<u32> = (0..n as u32).collect();
        for v in 1..n {
            // One node in ten stays a root; the rest hang off an earlier one.
            if !rng.gen_bool(0.1) {
                parent[label[v] as usize] = label[rng.gen_range(0..v)];
            }
        }
        parent
    }

    /// Both solvers flatten `parent` to `roots_by_walking(parent)` on 1-
    /// and 4-thread pools, and one thread sweeps exactly as the oracle does.
    /// Returns the most rounds a pool took.
    fn check(parent: &[u32]) -> u64 {
        let want = roots_by_walking(parent);
        let mut seq = parent.to_vec();
        let seq_stats = solve_sequential(&PointerJump, &mut seq).unwrap();
        assert_eq!(seq, want);
        let mut rounds = 0;
        for threads in [1, 4] {
            let mut par = parent.to_vec();
            let pool = ThreadPool::new(threads);
            let cfg = ParallelForConfig::with_grain(16);
            let stats = solve_parallel(&PointerJump, &mut par, &pool, cfg).unwrap();
            assert_eq!(par, want, "{threads} threads");
            if threads == 1 {
                assert_eq!(stats, seq_stats);
            }
            rounds = rounds.max(stats.rounds);
        }
        rounds
    }

    #[test]
    fn small_forests_become_stars() {
        // A chain 0 <- 1 <- 2 <- 3 <- 4, two trees rooted at 0 and 3.
        assert_eq!(
            roots_by_walking(&[0, 0, 1, 3, 3, 4]),
            vec![0, 0, 0, 3, 3, 3]
        );
        check(&[0, 0, 1, 2, 3]);
        check(&[0, 0, 1, 3, 3, 4]);
        // A star is feasible at once: one sweep, no advance.
        assert_eq!(check(&[0, 0, 0, 0]), 1);
    }

    #[test]
    fn parallel_matches_sequential_on_random_forests() {
        for seed in 0..6 {
            check(&random_forest(200, seed));
        }
    }

    #[test]
    fn deep_chains_flatten_in_logarithmic_rounds() {
        // Chains of 1024 nodes need at most ~log2(1024) = 10 doubling
        // rounds plus the final all-clear round: in-place reads only ever
        // see pointers at least as far up as the round's start. Parents
        // after their children in index order defeat a single sweep.
        let n = 1024u32;
        assert!(check(&(0..n).map(|v| v.saturating_sub(1)).collect::<Vec<_>>()) <= 12);
        assert!(check(&(0..n).map(|v| (v + 1).min(n - 1)).collect::<Vec<_>>()) <= 12);
    }
}
