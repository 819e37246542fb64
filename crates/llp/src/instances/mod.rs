//! LLP problem instances.
//!
//! The MST-side instance of the generic solver: pointer jumping, the inner
//! LLP instance of the paper's LLP-Boruvka. Its solver output is checked
//! against a sequential pointer walk in its tests. (The other MST instance,
//! Algorithm 4's LLP-Prim, needs a graph and lives in `llp-mst`'s `spec`
//! module.)

pub mod pointer_jump;

pub use pointer_jump::PointerJump;
