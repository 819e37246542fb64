//! LLP problem instances.
//!
//! Pointer jumping, the inner LLP instance of the paper's LLP-Boruvka. It
//! is the one definition of the predicate: LLP-Borůvka runs it through
//! [`crate::solve_parallel`] in production, and its tests check both
//! solvers against a sequential pointer walk. (The other MST instance,
//! Algorithm 4's LLP-Prim, needs a graph and lives in `llp-mst`'s `spec`
//! module.)

pub mod pointer_jump;

pub use pointer_jump::PointerJump;
