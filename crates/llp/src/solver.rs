//! The paper's Algorithm 1: a sequential oracle and the in-place
//! parallel engine.

use crate::problem::LlpProblem;
use llp_runtime::atomics::as_atomic_u32;
use llp_runtime::{parallel_for_chunks, ParallelForConfig, ThreadPool};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

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
    /// Sweeps over every index, counting the last one, which finds no
    /// index forbidden.
    pub rounds: u64,
    /// Total number of `advance` applications.
    pub advances: u64,
}

/// Advances `g`, Algorithm 1's starting vector, in place to the least
/// feasible vector above it by sweeping indices until none is forbidden.
///
/// A sweep evaluates every index once and advances the forbidden ones in
/// place (Gauss–Seidel style: later indices in the same sweep observe
/// earlier advances — lattice-linearity makes the result independent of
/// this choice). This is the oracle, and the solver for instances whose
/// state is more than one word.
pub fn solve_sequential<P: LlpProblem>(
    problem: &P,
    g: &mut [P::State],
) -> Result<LlpStats, LlpError> {
    let mut stats = LlpStats::default();
    loop {
        stats.rounds += 1;
        let mut any = false;
        for j in 0..g.len() {
            let read = |i: usize| g[i].clone();
            if !problem.forbidden(read, j) {
                continue;
            }
            let next = problem
                .advance(read, j)
                .ok_or(LlpError::Infeasible { index: j })?;
            debug_assert!(next != g[j], "advance must change G[{j}]");
            g[j] = next;
            stats.advances += 1;
            any = true;
        }
        if !any {
            return Ok(stats);
        }
    }
}

/// Advances `g`, Algorithm 1's starting vector, in place to the least
/// feasible vector above it: every sweep runs "for all `j` such that
/// `forbidden(G, j)` in parallel: `G[j] := advance(G, j)`" over the pool
/// until a sweep finds no index forbidden.
///
/// The sweep is unsynchronised: each index reads the live vector with
/// relaxed loads and stores its advance with a relaxed store. For a
/// lattice-linear predicate this is sound (for pointer jumping, the
/// paper's §VI Lemmas 3/4): the vector only moves up, an index stays
/// forbidden until it advances itself, and a sweep that advances nothing
/// saw a vector nothing changed. Each chunk of `cfg` publishes its advance
/// count once. On one thread the sweep is [`solve_sequential`]'s, counts
/// included.
///
/// Under `debug_assertions` the engine checks Algorithm 1's contract
/// without allocating: every advance changes its cell, an index is still
/// forbidden when its advance is stored, and none is forbidden on return.
pub fn solve_parallel<P: LlpProblem<State = u32>>(
    problem: &P,
    g: &mut [u32],
    pool: &ThreadPool,
    cfg: ParallelForConfig,
) -> Result<LlpStats, LlpError> {
    let n = g.len();
    let cells = as_atomic_u32(g);
    let read = |i: usize| cells[i].load(Ordering::Relaxed);
    let mut stats = LlpStats::default();
    loop {
        stats.rounds += 1;
        let advances = AtomicU64::new(0);
        let failed = AtomicUsize::new(usize::MAX);
        parallel_for_chunks(pool, 0..n, cfg, |chunk| {
            let mut local = 0u64;
            for j in chunk {
                if !problem.forbidden(read, j) {
                    continue;
                }
                let Some(next) = problem.advance(read, j) else {
                    failed.fetch_min(j, Ordering::Relaxed);
                    continue;
                };
                debug_assert!(next != read(j), "advance must change G[{j}]");
                debug_assert!(
                    problem.forbidden(read, j),
                    "index {j} advanced while not forbidden"
                );
                cells[j].store(next, Ordering::Relaxed);
                local += 1;
            }
            if local > 0 {
                advances.fetch_add(local, Ordering::Relaxed);
            }
        });
        let failed = failed.into_inner();
        if failed != usize::MAX {
            return Err(LlpError::Infeasible { index: failed });
        }
        let advances = advances.into_inner();
        stats.advances += advances;
        if advances == 0 {
            debug_assert!(
                (0..n).all(|j| !problem.forbidden(read, j)),
                "a forbidden index is left on return"
            );
            return Ok(stats);
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
        fn forbidden(&self, g: impl Fn(usize) -> u32, j: usize) -> bool {
            g(j) < self.target[j]
        }
        fn advance(&self, g: impl Fn(usize) -> u32, j: usize) -> Option<u32> {
            let next = g(j) + 1;
            (next <= self.top).then_some(next)
        }
    }

    /// A coupled problem: G[j] must be at least G[j-1] (a chain), and
    /// G[0] >= k. The least solution is all-k.
    struct Chain {
        k: u32,
    }

    impl LlpProblem for Chain {
        type State = u32;
        fn forbidden(&self, g: impl Fn(usize) -> u32, j: usize) -> bool {
            if j == 0 {
                g(0) < self.k
            } else {
                g(j) < g(j - 1)
            }
        }
        fn advance(&self, g: impl Fn(usize) -> u32, j: usize) -> Option<u32> {
            Some(if j == 0 { self.k } else { g(j - 1) })
        }
    }

    fn cfg() -> ParallelForConfig {
        ParallelForConfig::with_grain(8)
    }

    #[test]
    fn parallel_matches_sequential() {
        let p = AtLeast {
            target: (0..100).map(|i| (i * 7) % 13).collect(),
            top: 20,
        };
        // Both start from the caller's vector, above bottom in places.
        let start: Vec<u32> = (0..100).map(|i| i % 5).collect();
        let mut seq = start.clone();
        let seq_stats = solve_sequential(&p, &mut seq).unwrap();
        assert!((0..100).all(|j| seq[j] == start[j].max(p.target[j])));
        let gaps = (0..100).map(|j| p.target[j].saturating_sub(start[j]) as u64);
        assert_eq!(seq_stats.advances, gaps.sum());
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let mut par = start.clone();
            let par_stats = solve_parallel(&p, &mut par, &pool, cfg()).unwrap();
            assert_eq!(seq, par, "{threads} threads");
            // Every index advances alone, so the count is schedule-free.
            assert_eq!(seq_stats.advances, par_stats.advances);
        }
    }

    #[test]
    fn infeasible_detected_sequentially_and_parallel() {
        let p = AtLeast {
            target: vec![5],
            top: 3,
        };
        assert_eq!(
            solve_sequential(&p, &mut [0]).unwrap_err(),
            LlpError::Infeasible { index: 0 }
        );
        let pool = ThreadPool::new(2);
        assert_eq!(
            solve_parallel(&p, &mut [0], &pool, cfg()).unwrap_err(),
            LlpError::Infeasible { index: 0 }
        );
    }

    #[test]
    fn coupled_chain_converges() {
        let p = Chain { k: 7 };
        let mut seq = vec![0; 50];
        let seq_stats = solve_sequential(&p, &mut seq).unwrap();
        assert!(seq.iter().all(|&x| x == 7));
        // Sequential propagates in one Gauss–Seidel sweep plus a
        // verification sweep.
        assert!(seq_stats.rounds <= 3);
        for threads in [1, 3] {
            let pool = ThreadPool::new(threads);
            let mut par = vec![0; 50];
            let par_stats = solve_parallel(&p, &mut par, &pool, cfg()).unwrap();
            assert_eq!(seq, par, "{threads} threads");
            if threads == 1 {
                assert_eq!(par_stats, seq_stats);
            }
        }
    }

    #[test]
    fn empty_problem_is_trivially_feasible() {
        let p = AtLeast {
            target: vec![],
            top: 0,
        };
        assert_eq!(solve_sequential(&p, &mut []).unwrap().advances, 0);
        let stats = solve_parallel(&p, &mut [], &ThreadPool::new(2), cfg()).unwrap();
        assert_eq!((stats.rounds, stats.advances), (1, 0));
    }

    /// Breaks the progress rule: `advance` returns the current state.
    struct Stuck;

    impl LlpProblem for Stuck {
        type State = u32;
        fn forbidden(&self, g: impl Fn(usize) -> u32, j: usize) -> bool {
            g(j) < 1
        }
        fn advance(&self, g: impl Fn(usize) -> u32, j: usize) -> Option<u32> {
            Some(g(j))
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "advance must change G[0]")]
    fn debug_build_rejects_an_advance_that_does_not_move() {
        let _ = solve_parallel(&Stuck, &mut [0], &ThreadPool::new(1), cfg());
    }
}
