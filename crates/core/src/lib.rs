//! # llp-mst — minimum spanning trees via Lattice Linear Predicates
//!
//! The paper's contribution, implemented in full:
//!
//! | Algorithm | Function | Role in the paper |
//! |---|---|---|
//! | Prim (lazy heap) | [`prim::prim_lazy`] | Algorithm 2; "Prim" of Fig. 2 |
//! | Kruskal | [`kruskal::kruskal`] | §III baseline / test oracle |
//! | Filter-Kruskal | [`filter_kruskal::filter_kruskal_par`] | practical Kruskal baseline, pool-parallel partition + filter |
//! | Parallel Boruvka (GBBS-style) | [`parallel_boruvka::boruvka_par`] | Algorithm 3's rounds; "Boruvka" of Figs 2–4 (Fig. 2 on one thread) |
//! | **LLP-Prim** sequential | [`llp_prim::llp_prim_seq`] | Algorithm 5, "LLP-Prim (1T)" |
//! | **LLP-Prim** parallel | [`llp_prim::llp_prim_par`] | Algorithm 5, Figs 3–4 |
//! | **LLP-Boruvka** | [`llp_boruvka::llp_boruvka`] | Algorithm 6 |
//! | LLP-Prim spec | [`spec::LlpPrimSpec`] | Algorithm 4 run literally |
//!
//! All algorithms compare edges through [`llp_graph::EdgeKey`] (weight,
//! then endpoints), realising the paper's unique-weight assumption on any
//! input; consequently **every algorithm returns the identical canonical
//! MST/MSF**, which [`verify::verify_msf`] checks against the Kruskal
//! oracle and the test suite asserts pairwise. At road/RMAT scale, where
//! re-running Kruskal is as expensive as the run under test,
//! [`certify::certify_msf`] certifies the same property oracle-free in
//! near-linear time (Borůvka-tree path-max queries). Its verdict and
//! witness are diff-tested against [`verify::reference_certify`], a naive
//! O(m·n) certifier on explicit tree paths.
//!
//! Prim-family functions require a connected graph and return
//! [`result::MstError::Disconnected`] otherwise; Boruvka-family functions
//! compute minimum spanning forests.
//!
//! Every run returns [`stats::AlgoStats`] — heap traffic, early-fix
//! counts, rounds, pointer jumps, CAS/atomic traffic — the
//! machine-independent quantities behind the paper's Figs 2–4.

pub mod certify;
pub mod contraction;
pub mod dynamic;
pub mod filter_kruskal;
pub mod heap;
pub mod index;
pub mod kruskal;
pub mod llp_boruvka;
pub mod llp_prim;
pub mod parallel_boruvka;
pub mod prim;
pub mod result;
pub mod sharded;
pub mod spec;
pub mod stats;
pub mod union_find;
pub mod verify;

pub use result::{MstError, MstResult};
pub use stats::AlgoStats;

/// One-stop imports for examples and downstream code.
pub mod prelude {
    pub use crate::filter_kruskal::{filter_kruskal_par, filter_kruskal_par_with_base_case};
    pub use crate::kruskal::kruskal;
    pub use crate::llp_boruvka::{llp_boruvka, llp_boruvka_from_edges};
    pub use crate::llp_prim::{llp_prim_par, llp_prim_seq};
    pub use crate::parallel_boruvka::boruvka_par;
    pub use crate::prim::prim_lazy;
    pub use crate::result::{MstError, MstResult};
    pub use crate::stats::AlgoStats;
    pub use crate::certify::{certify_against, certify_msf, certify_msf_par};
    pub use crate::dynamic::{DynamicError, DynamicMsf, EpochReport};
    pub use crate::sharded::{
        sharded_msf_file, sharded_msf_graph, ShardedConfig, ShardedError, ShardedRun,
    };
    pub use crate::index::PathMaxIndex;
    pub use crate::verify::{reference_certify, verify_msf};
}
