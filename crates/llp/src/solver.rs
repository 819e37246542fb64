//! Sequential and parallel LLP solvers (the paper's Algorithm 1).

use crate::problem::LlpProblem;
use llp_runtime::{parallel_map_collect, Bag, ParallelForConfig, ThreadPool};

/// Why a solve failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LlpError {
    /// Some index would have to advance beyond the top of its chain: no
    /// feasible vector exists (Algorithm 1's `return null`).
    Infeasible {
        /// The index that could not advance.
        index: usize,
    },
}

impl std::fmt::Display for LlpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LlpError::Infeasible { index } => {
                write!(f, "no feasible vector: index {index} cannot advance")
            }
        }
    }
}

impl std::error::Error for LlpError {}

/// Work metrics of a solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LlpStats {
    /// Synchronous rounds executed (parallel solver) or outer sweeps
    /// (sequential solver).
    pub rounds: u64,
    /// Total number of `advance` applications.
    pub advances: u64,
    /// Total number of `forbidden` evaluations.
    pub forbidden_checks: u64,
}

/// The least feasible vector plus solve statistics.
#[derive(Debug, Clone)]
pub struct LlpSolution<S> {
    /// The minimum vector satisfying the predicate.
    pub state: Vec<S>,
    /// Work metrics.
    pub stats: LlpStats,
}

/// Finds the least feasible vector by sweeping indices until none is
/// forbidden.
///
/// A sweep evaluates every index once and advances the forbidden ones in
/// place (Gauss–Seidel style: later indices in the same sweep observe
/// earlier advances — lattice-linearity makes the result independent of
/// this choice, which the tests cross-check against the parallel solver).
pub fn solve_sequential<P: LlpProblem>(
    problem: &P,
) -> Result<LlpSolution<P::State>, LlpError> {
    let n = problem.num_indices();
    let mut state: Vec<P::State> = (0..n).map(|j| problem.bottom(j)).collect();
    let mut stats = LlpStats::default();

    loop {
        let mut any = false;
        stats.rounds += 1;
        for j in 0..n {
            stats.forbidden_checks += 1;
            if problem.forbidden(&state, j) {
                let next = problem
                    .advance(&state, j)
                    .ok_or(LlpError::Infeasible { index: j })?;
                debug_assert!(
                    next != state[j],
                    "advance must strictly increase state[{j}]"
                );
                state[j] = next;
                stats.advances += 1;
                any = true;
            }
        }
        if !any {
            return Ok(LlpSolution { state, stats });
        }
    }
}

/// Finds the least feasible vector with synchronous parallel rounds.
///
/// Each round evaluates `forbidden` for every index in parallel (reading a
/// frozen snapshot of `G`), computes the advanced values, then applies them
/// — the "for all j such that forbidden(G, j) in parallel" of Algorithm 1.
pub fn solve_parallel<P: LlpProblem>(
    problem: &P,
    pool: &ThreadPool,
) -> Result<LlpSolution<P::State>, LlpError> {
    let n = problem.num_indices();
    let mut state: Vec<P::State> = (0..n).map(|j| problem.bottom(j)).collect();
    let mut stats = LlpStats::default();
    let cfg = ParallelForConfig::with_grain(256);

    loop {
        stats.rounds += 1;
        stats.forbidden_checks += n as u64;

        // Evaluate forbidden + advance against the frozen snapshot.
        let failed: Bag<usize> = Bag::new(pool.threads());
        let frozen = &state;
        let updates: Vec<Option<P::State>> = {
            let failed = &failed;
            parallel_map_collect(pool, 0..n, cfg, |j| {
                if problem.forbidden(frozen, j) {
                    match problem.advance(frozen, j) {
                        Some(next) => Some(next),
                        None => {
                            // Record infeasibility; resolved after the round.
                            failed.push(0, j);
                            None
                        }
                    }
                } else {
                    None
                }
            })
        };
        if let Some(&j) = failed.drain_to_vec().first() {
            return Err(LlpError::Infeasible { index: j });
        }

        let mut any = false;
        for (j, upd) in updates.into_iter().enumerate() {
            if let Some(next) = upd {
                debug_assert!(next != state[j]);
                state[j] = next;
                stats.advances += 1;
                any = true;
            }
        }
        if !any {
            return Ok(LlpSolution { state, stats });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy LLP problem: find the least vector with `G[j] >= target[j]`,
    /// advancing by steps of 1. Trivially lattice-linear.
    struct AtLeast {
        target: Vec<u32>,
        top: u32,
    }

    impl LlpProblem for AtLeast {
        type State = u32;
        fn num_indices(&self) -> usize {
            self.target.len()
        }
        fn bottom(&self, _j: usize) -> u32 {
            0
        }
        fn forbidden(&self, g: &[u32], j: usize) -> bool {
            g[j] < self.target[j]
        }
        fn advance(&self, g: &[u32], j: usize) -> Option<u32> {
            let next = g[j] + 1;
            (next <= self.top).then_some(next)
        }
    }

    /// A coupled problem: G[j] must be at least G[j-1] (a chain), and
    /// G[0] >= k. The least solution is all-k.
    struct Chain {
        n: usize,
        k: u32,
    }

    impl LlpProblem for Chain {
        type State = u32;
        fn num_indices(&self) -> usize {
            self.n
        }
        fn bottom(&self, _j: usize) -> u32 {
            0
        }
        fn forbidden(&self, g: &[u32], j: usize) -> bool {
            if j == 0 {
                g[0] < self.k
            } else {
                g[j] < g[j - 1]
            }
        }
        fn advance(&self, g: &[u32], j: usize) -> Option<u32> {
            Some(if j == 0 { self.k } else { g[j - 1] })
        }
    }

    #[test]
    fn sequential_reaches_least_vector() {
        let p = AtLeast {
            target: vec![3, 0, 5, 1],
            top: 10,
        };
        let sol = solve_sequential(&p).unwrap();
        assert_eq!(sol.state, vec![3, 0, 5, 1]);
        assert_eq!(sol.stats.advances, 9);
    }

    #[test]
    fn parallel_matches_sequential() {
        let p = AtLeast {
            target: (0..100).map(|i| (i * 7) % 13).collect(),
            top: 20,
        };
        let pool = ThreadPool::new(4);
        let seq = solve_sequential(&p).unwrap();
        let par = solve_parallel(&p, &pool).unwrap();
        assert_eq!(seq.state, par.state);
    }

    #[test]
    fn infeasible_detected_sequentially_and_parallel() {
        let p = AtLeast {
            target: vec![5],
            top: 3,
        };
        assert_eq!(
            solve_sequential(&p).unwrap_err(),
            LlpError::Infeasible { index: 0 }
        );
        let pool = ThreadPool::new(2);
        assert!(matches!(
            solve_parallel(&p, &pool).unwrap_err(),
            LlpError::Infeasible { .. }
        ));
    }

    #[test]
    fn coupled_chain_converges() {
        let p = Chain { n: 50, k: 7 };
        let pool = ThreadPool::new(3);
        let seq = solve_sequential(&p).unwrap();
        let par = solve_parallel(&p, &pool).unwrap();
        assert!(seq.state.iter().all(|&x| x == 7));
        assert_eq!(seq.state, par.state);
        // Parallel needs at least one round per chain hop; sequential
        // propagates in one Gauss–Seidel sweep plus a verification sweep.
        assert!(seq.stats.rounds <= 3);
        assert!(par.stats.rounds >= 50);
    }

    #[test]
    fn empty_problem_is_trivially_feasible() {
        let p = AtLeast {
            target: vec![],
            top: 0,
        };
        let sol = solve_sequential(&p).unwrap();
        assert!(sol.state.is_empty());
    }
}
