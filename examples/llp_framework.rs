//! The generic LLP framework on the paper's two MST instances.
//!
//! The paper's §II framework (Algorithm 1) solves any problem expressed as
//! (forbidden, advance) from a starting vector. This example runs it on:
//!
//! 1. pointer jumping (the inner instance of LLP-Boruvka) on the in-place
//!    parallel engine, which advances the parent array itself,
//! 2. the literal LLP-Prim of the paper's Algorithm 4 on the sequential
//!    solver, cross-checked against the optimised implementation.
//!
//! ```text
//! cargo run --release --example llp_framework
//! ```

use llp_mst_suite::graph::samples::fig1;
use llp_mst_suite::llp::instances::PointerJump;
use llp_mst_suite::llp::solve_parallel;
use llp_mst_suite::mst::spec::LlpPrimSpec;
use llp_mst_suite::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

fn main() {
    let pool = ThreadPool::with_available_threads();

    // 1. Pointer jumping: forbidden(j) ≡ G[j] != G[G[j]] — Lemma 3/4 of
    // the paper, the synchronization-free core of LLP-Boruvka.
    let chain: Vec<AtomicU32> = [0, 0, 1, 2, 3, 4, 5, 6].map(AtomicU32::new).into();
    let stats = solve_parallel(&PointerJump, &chain, &pool, Default::default()).unwrap();
    let chain: Vec<u32> = chain.iter().map(|p| p.load(Ordering::Relaxed)).collect();
    println!(
        "pointer jumping flattened an 8-chain to a star in {} rounds: {:?}",
        stats.rounds, chain
    );
    assert!(chain.iter().all(|&p| p == 0));

    // 2. Algorithm 4 verbatim: LLP-Prim as predicate detection, solved by
    // the generic engine and compared with the optimised implementation.
    let graph = fig1();
    let spec_mst = LlpPrimSpec::new(&graph, 0).unwrap().solve().unwrap();
    let fast_mst = llp_prim_par(&graph, 0, &pool).unwrap();
    assert_eq!(spec_mst.canonical_keys(), fast_mst.canonical_keys());
    println!(
        "\nAlgorithm 4 (via the sequential solver) and Algorithm 5 (optimised) \
         agree on Fig. 1: weight {}",
        spec_mst.total_weight
    );
}
