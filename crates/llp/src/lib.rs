//! # llp-core — the Lattice Linear Predicate detection framework
//!
//! The paper (§II) frames combinatorial optimisation as *predicate
//! detection*: find the minimum vector `G` in a distributive lattice `L`
//! that satisfies a boolean predicate `B`. When `B` is **lattice-linear**,
//! any infeasible `G` contains a *forbidden* index `j`, and `G` can only
//! become feasible by *advancing* `G[j]`. Algorithm 1 of the paper then
//! finds the least feasible vector by repeatedly advancing all forbidden
//! indices — in any order, sequentially or in parallel — which is exactly
//! what [`solve_sequential`] and [`solve_parallel`] implement.
//!
//! [`problem::LlpProblem`] captures a problem instance as the triple
//! `(bottom, forbidden, advance)`. The paper's two MST instances of it
//! are:
//!
//! * [`instances::pointer_jump`] — rooted-tree → rooted-star conversion,
//!   the inner LLP instance of the paper's LLP-Boruvka (Lemma 3/4);
//! * Algorithm 4's LLP-Prim — `llp-mst`'s `spec::LlpPrimSpec`, run
//!   literally through this solver as an executable specification. It
//!   needs a graph, so it lives beside the MST algorithms in `llp-mst`.

pub mod instances;
pub mod problem;
pub mod solver;

pub use problem::LlpProblem;
pub use solver::{solve_parallel, solve_sequential, LlpError, LlpSolution, LlpStats};
