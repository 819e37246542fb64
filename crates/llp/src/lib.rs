//! # llp-core — the Lattice Linear Predicate detection framework
//!
//! The paper (§II) frames combinatorial optimisation as *predicate
//! detection*: find the minimum vector `G` in a distributive lattice `L`
//! that satisfies a boolean predicate `B`. When `B` is **lattice-linear**,
//! any infeasible `G` contains a *forbidden* index `j`, and `G` can only
//! become feasible by *advancing* `G[j]`. Algorithm 1 of the paper then
//! finds the least feasible vector by repeatedly advancing all forbidden
//! indices — in any order, sequentially or in parallel.
//!
//! Both solvers advance, in place, a starting vector the caller holds.
//! [`solve_parallel`] is the engine: it sweeps the live vector over the
//! thread pool with relaxed atomics and no other synchronisation, for
//! one-`u32` states. [`solve_sequential`] is its oracle, and the solver for
//! wider states. [`problem::LlpProblem`] gives an instance as
//! `(forbidden, advance)`, reading the vector through an accessor so that
//! one definition serves both. The paper's two MST instances are:
//!
//! * [`instances::pointer_jump`] — rooted-tree → rooted-star conversion,
//!   the inner LLP instance of the paper's LLP-Boruvka (Lemma 3/4), which
//!   `llp-mst` runs through [`solve_parallel`] every round;
//! * Algorithm 4's LLP-Prim — `llp-mst`'s `spec::LlpPrimSpec`, run
//!   literally through [`solve_sequential`] as an executable
//!   specification. It needs a graph, so it lives beside the MST
//!   algorithms in `llp-mst`.

pub mod instances;
pub mod problem;
pub mod solver;

pub use problem::LlpProblem;
pub use solver::{solve_parallel, solve_sequential, LlpError, LlpStats};
