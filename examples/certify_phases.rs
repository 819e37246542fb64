//! Per-phase timing of oracle-free certification on the benchmark's two
//! graphs: the `PathMaxIndex` build (sort, merge replay, chain scatter,
//! range-max) and the query sweep, each the median over `reps` runs.
//!
//! The graphs are the ones `benchmark/` certifies: a 700×700 USA-like road
//! grid and the giant component of a Graph500 scale-17, edge-factor-16
//! RMAT graph, both from generator seed 1, solved by LLP-Borůvka on a
//! one-thread pool (so the forest arrives unsorted and the index sorts
//! it). Phases come from the always-compiled telemetry spans, switched on
//! here for the timed calls only.
//!
//! ```text
//! cargo build --release --example certify_phases
//! taskset -c 0 ./target/release/examples/certify_phases [road|rmat|all] [reps]
//! ```

use llp_mst_suite::graph::algo::largest_component;
use llp_mst_suite::graph::generators::{rmat, road_network, RmatParams, RoadParams};
use llp_mst_suite::prelude::*;
use llp_mst_suite::runtime::telemetry;
use std::time::Instant;

/// Index-build phases first, then the two halves of `certify_msf_par`.
const PHASES: [(&str, &str); 6] = [
    ("sort", "index-build-sort"),
    ("merge", "index-build-merge"),
    ("scatter", "index-build-scatter"),
    ("range-max", "index-build-rmq"),
    ("build", "certify-build"),
    ("query", "certify-query"),
];

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn run(name: &str, graph: &CsrGraph, reps: usize) {
    let pool = ThreadPool::new(1);
    let forest = llp_boruvka(graph, &pool);
    certify_msf_par(graph, &forest, &pool).expect("LLP-Borůvka's forest certifies");
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len() + 1];
    telemetry::set_enabled(true);
    for _ in 0..reps {
        telemetry::begin_run();
        let t = Instant::now();
        certify_msf_par(graph, &forest, &pool).expect("LLP-Borůvka's forest certifies");
        samples[PHASES.len()].push(t.elapsed().as_secs_f64() * 1e3);
        let report = telemetry::take_report();
        for (i, (_, span)) in PHASES.iter().enumerate() {
            let ns = report
                .phases
                .iter()
                .find(|p| p.name == *span)
                .map_or(0, |p| p.total_ns);
            samples[i].push(ns as f64 / 1e6);
        }
    }
    telemetry::set_enabled(false);
    print!(
        "{name}: n {} m {} t {}, median of {reps} (ms):",
        graph.num_vertices(),
        graph.num_edges(),
        forest.edges.len()
    );
    for (i, (label, _)) in PHASES.iter().enumerate() {
        print!(" {label} {:.1}", median(samples[i].clone()));
    }
    println!(" total {:.1}", median(samples[PHASES.len()].clone()));
}

fn main() {
    let mut args = std::env::args().skip(1);
    let which = args.next().unwrap_or_else(|| "all".into());
    let reps: usize = args
        .next()
        .map_or(10, |r| r.parse().expect("reps: a positive integer"));
    assert!(reps > 0, "reps: a positive integer");
    if which == "road" || which == "all" {
        run(
            "road",
            &road_network(RoadParams::usa_like(700, 700, 1)),
            reps,
        );
    }
    if which == "rmat" || which == "all" {
        let g = largest_component(&rmat(RmatParams::graph500(17, 16, 1)));
        run("rmat", &g, reps);
    }
}
