//! Per-phase timing of the certified out-of-core solve on the benchmark's
//! two graphs: the sharded build (shard read wait, local contraction,
//! candidate sort, merge scan) and the certify pass (index build, shard
//! read wait, sweep), each the median over `reps` runs of
//! `sharded_msf_file`.
//!
//! The files are the ones `benchmark/` solves out of core: a 700×700
//! USA-like road grid and the giant component of a Graph500 scale-17,
//! edge-factor-16 RMAT graph, both from generator seed 1, written in the
//! binary format and cut into 8 shards, solved on a one-thread pool.
//! Phases come from the always-compiled telemetry spans, switched on here
//! for the timed calls only. Time the listed phases do not claim (shard
//! bookkeeping, the reader thread's start) is printed as `other`.
//! `restreams` is how many runs took the certifier's cold path, which
//! re-reads the file to name an absent tree edge; on these duplicate-free
//! files it must read 0.
//!
//! ```text
//! cargo build --release --example ooc_phases
//! taskset -c 0 ./target/release/examples/ooc_phases [road|rmat|all] [reps]
//! ```

use llp_mst_suite::graph::algo::largest_component;
use llp_mst_suite::graph::generators::{rmat, road_network, RmatParams, RoadParams};
use llp_mst_suite::graph::io::BinaryFileWriter;
use llp_mst_suite::prelude::*;
use llp_mst_suite::runtime::telemetry;
use std::path::Path;
use std::time::Instant;

/// Each pass, then the phases inside it: `(label, span, inner)`. `other`
/// is the total minus every inner phase.
const PHASES: [(&str, &str, bool); 9] = [
    ("build", "sharded-build", false),
    ("read", "sharded-build-read", true),
    ("contract", "sharded-build-contract", true),
    ("sort", "sharded-build-sort", true),
    ("merge", "sharded-build-merge", true),
    ("certify", "sharded-certify", false),
    ("index", "sharded-certify-index", true),
    ("read", "sharded-certify-read", true),
    ("sweep", "sharded-certify-sweep", true),
];

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn write_file(graph: &CsrGraph, path: &Path) {
    let mut w = BinaryFileWriter::create(path, graph.num_vertices()).expect("create graph file");
    let edges: Vec<Edge> = graph.edges().collect();
    w.write_edges(&edges).expect("write graph file");
    w.finish().expect("finish graph file");
}

fn run(name: &str, graph: &CsrGraph, reps: usize) {
    let path = std::env::temp_dir().join(format!("ooc-phases-{name}-{}.bin", std::process::id()));
    write_file(graph, &path);
    let cfg = ShardedConfig {
        shard_edges: graph.num_edges().div_ceil(8).max(1),
        certify: true,
        ..ShardedConfig::default()
    };
    let pool = ThreadPool::new(1);
    let warm = sharded_msf_file(&path, &cfg, &pool).expect("the sharded solve certifies");
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len() + 2];
    let mut restreams = 0u64;
    telemetry::set_enabled(true);
    for _ in 0..reps {
        telemetry::begin_run();
        let t = Instant::now();
        sharded_msf_file(&path, &cfg, &pool).expect("the sharded solve certifies");
        let total = t.elapsed().as_secs_f64() * 1e3;
        let report = telemetry::take_report();
        let ms = |span: &str| {
            report
                .phases
                .iter()
                .find(|p| p.name == span)
                .map_or(0.0, |p| p.total_ns as f64 / 1e6)
        };
        let mut inner = 0.0;
        for (i, &(_, span, is_inner)) in PHASES.iter().enumerate() {
            samples[i].push(ms(span));
            if is_inner {
                inner += ms(span);
            }
        }
        samples[PHASES.len()].push(total - inner);
        samples[PHASES.len() + 1].push(total);
        restreams += report
            .counters
            .iter()
            .find(|(c, _)| c == "sharded-certify-restreams")
            .map_or(0, |&(_, v)| v);
    }
    telemetry::set_enabled(false);
    let _ = std::fs::remove_file(&path);
    print!(
        "{name}: n {} m {} t {} shards {}, median of {reps} (ms):",
        graph.num_vertices(),
        graph.num_edges(),
        warm.result.edges.len(),
        warm.shards
    );
    for (i, (label, _, _)) in PHASES.iter().enumerate() {
        print!(" {label} {:.1}", median(samples[i].clone()));
    }
    println!(
        " other {:.1} total {:.1} restreams {restreams}",
        median(samples[PHASES.len()].clone()),
        median(samples[PHASES.len() + 1].clone())
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let which = args.next().unwrap_or_else(|| "all".into());
    let reps: usize = args
        .next()
        .map_or(10, |r| r.parse().expect("reps: a positive integer"));
    assert!(reps > 0, "reps: a positive integer");
    if which == "road" || which == "all" {
        let g = largest_component(&road_network(RoadParams::usa_like(700, 700, 1)));
        run("road", &g, reps);
    }
    if which == "rmat" || which == "all" {
        let g = largest_component(&rmat(RmatParams::graph500(17, 16, 1)));
        run("rmat", &g, reps);
    }
}
