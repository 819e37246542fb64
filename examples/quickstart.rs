//! Quickstart: build the paper's Fig. 1 graph, compute its MST with every
//! algorithm, and print the tree.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use llp_mst_suite::graph::samples::fig1;
use llp_mst_suite::prelude::*;

fn main() {
    // The weighted graph of the paper's Fig. 1 (vertices a..e = 0..4).
    let graph = fig1();
    println!(
        "graph: {} vertices, {} edges, total weight {}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.total_weight()
    );

    let pool = ThreadPool::with_available_threads();
    let root = 0; // vertex 'a'

    // The paper's two contributions…
    let llp_prim = llp_prim_par(&graph, root, &pool).expect("fig1 is connected");
    let llp_boruvka = llp_boruvka(&graph, &pool);

    // …and the classical baselines.
    let prim = prim_lazy(&graph, root).expect("fig1 is connected");
    let boruvka = boruvka_par(&graph, &pool);
    let kr = kruskal(&graph);

    println!("\nMST edges found by LLP-Prim:");
    let mut edges = llp_prim.edges.clone();
    edges.sort_by(|a, b| a.w.total_cmp(&b.w));
    for e in &edges {
        let name = |v: u32| (b'a' + v as u8) as char;
        println!("  ({}, {})  weight {}", name(e.u), name(e.v), e.w);
    }
    println!("total weight: {}", llp_prim.total_weight);

    // Every algorithm returns the identical canonical MST — the paper's
    // {2, 3, 4, 7} with weight 16.
    for (name, result) in [
        ("LLP-Prim", &llp_prim),
        ("LLP-Boruvka", &llp_boruvka),
        ("Prim", &prim),
        ("Boruvka", &boruvka),
        ("Kruskal", &kr),
    ] {
        assert_eq!(result.canonical_keys(), kr.canonical_keys());
        assert_eq!(result.total_weight, 16.0);
        println!("{name:>12}: weight {} ✓", result.total_weight);
    }

    // Work metrics: LLP-Prim fixed 3 of 4 vertices early (no heap).
    println!(
        "\nLLP-Prim stats: {} early fixes, {} heap fixes, {} heap ops",
        llp_prim.stats.early_fixes,
        llp_prim.stats.heap_fixes,
        llp_prim.stats.heap_ops()
    );
    println!(
        "    Prim stats: {} heap ops",
        prim.stats.heap_ops()
    );
}
