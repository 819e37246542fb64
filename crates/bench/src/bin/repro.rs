//! `repro` — counts the work behind the paper's tables and figures.
//!
//! ```text
//! repro <table1|ablation|all> [options]
//!
//! options:
//!   --scale small|medium|large   workload size preset (default: medium)
//!   --seed N                     generator seed (default: 42)
//!   --out DIR                    report directory (default: results)
//!   --dimacs FILE.gr             use a real DIMACS road graph for the
//!                                road workload (e.g. USA-road-d.USA.gr)
//! ```
//!
//! Output: paper-style text tables on stdout plus, for `ablation`, the
//! JSON run report `DIR/ablation.json` (schema `llp-mst-run-report/v2`):
//! one record per (algorithm, workload) with its total weight, its
//! certificate and its work counters. Each algorithm runs once, on a
//! one-thread pool, where every counter is exact, so two runs with the
//! same flags print and write the same bytes. `repro` times nothing:
//! wall-clock numbers come from the repository's benchmark.
//!
//! Flags are parsed by [`llp_bench::cli`]: a bad or missing flag exits 2.
//! `--out` is created before any graph is built; failing to create it, to
//! read `--dimacs`, or to write a report exits 1 with the path.

use llp_bench::cli::{command, exit_status, no_leftovers, take_opt, take_parsed, usage_error};
use llp_bench::harness::{format_table, run_record, write_json_report};
use llp_bench::{Algorithm, Scale, Workload};
use llp_runtime::ThreadPool;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Prints one table and writes its report, given the road and the
/// scale-free workload.
type Artifact = fn(&[Workload; 2], &Path) -> Result<(), String>;

const USAGE: &str = "usage: repro <table1|ablation|all>
  [--scale small|medium|large] [--seed 42] [--out results] [--dimacs FILE.gr]";

fn main() -> ExitCode {
    let (cmd, mut args) = command(USAGE);
    let scale = take_parsed(&mut args, "--scale", Scale::Medium);
    let seed = take_parsed(&mut args, "--seed", 42);
    let out = take_opt(&mut args, "--out").map_or_else(|| PathBuf::from("results"), PathBuf::from);
    let dimacs = take_opt(&mut args, "--dimacs").map(PathBuf::from);
    no_leftovers(&args);
    let artifacts: &[Artifact] = match cmd.as_str() {
        "table1" => &[table1],
        "ablation" => &[ablation],
        "all" => &[table1, ablation],
        other => usage_error(format_args!("unknown command `{other}`\n{USAGE}")),
    };
    let result = std::fs::create_dir_all(&out)
        .map_err(|e| format!("{}: {e}", out.display()))
        .and_then(|()| road_workload(scale, seed, dimacs.as_deref()))
        .map(|road| [road, Workload::rmat(scale, seed)])
        .and_then(|workloads| {
            artifacts
                .iter()
                .try_for_each(|artifact| artifact(&workloads, &out))
        });
    exit_status("repro", &cmd, result)
}

/// The road workload: generated, or read from `--dimacs`.
fn road_workload(scale: Scale, seed: u64, dimacs: Option<&Path>) -> Result<Workload, String> {
    let Some(path) = dimacs else {
        return Ok(Workload::road(scale, seed));
    };
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Workload::from_dimacs(
        &path.file_stem().unwrap_or_default().to_string_lossy(),
        std::io::BufReader::new(file),
    )
    .map_err(|e| format!("{}: {e}", path.display()))
}

/// Table I: dataset summary.
fn table1(workloads: &[Workload; 2], _out: &Path) -> Result<(), String> {
    let rows: Vec<Vec<String>> = workloads
        .iter()
        .map(|w| {
            let s = llp_graph::algo::degree_stats(&w.graph);
            vec![
                w.name.clone(),
                w.kind.to_string(),
                s.n.to_string(),
                s.m.to_string(),
                format!("{:.2}", s.avg),
                s.max.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            "Table I: graphs used in experimental evaluation",
            &["Name used", "Type", "Vertices", "Edges", "AvgDeg", "MaxDeg"],
            &rows,
        )
    );
    Ok(())
}

/// Ablation: the §V/§VI mechanisms and the Figs 3–4 barrier counts, as
/// exact machine-independent work counters from one-thread runs.
fn ablation(workloads: &[Workload; 2], out: &Path) -> Result<(), String> {
    let pool = ThreadPool::new(1);
    let saved = |base: u64, llp: u64| {
        format!(
            "{:.1}% saved",
            100.0 * (1.0 - llp as f64 / base.max(1) as f64)
        )
    };
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for w in workloads {
        let [prim, llp, llp_par, bor, llb] = [
            Algorithm::Prim,
            Algorithm::LlpPrimSeq,
            Algorithm::LlpPrim,
            Algorithm::Boruvka,
            Algorithm::LlpBoruvka,
        ]
        .map(|algo| run_record(algo, w, &pool));
        let (p, l, lp, b, lb) = (
            &prim.stats,
            &llp.stats,
            &llp_par.stats,
            &bor.stats,
            &llb.stats,
        );
        let n = w.graph.num_vertices() as f64;
        let mut row = |metric: &str, base: u64, llp: u64, delta: String| {
            rows.push(vec![
                w.name.clone(),
                metric.into(),
                base.to_string(),
                llp.to_string(),
                delta,
            ]);
        };
        // Heap traffic: Prim vs LLP-Prim (the early-fixing claim).
        let heap_saved = saved(p.heap_ops(), l.heap_ops());
        row("heap ops", p.heap_ops(), l.heap_ops(), heap_saved);
        let fixed = format!("{:.1}% of n", 100.0 * l.early_fixes as f64 / n);
        row("early-fixed vertices", p.early_fixes, l.early_fixes, fixed);
        // Synchronisation: parallel Boruvka vs LLP-Boruvka, whose RMW
        // counts are exact on one thread (pinned by `tests/paper_traces.rs`).
        let rmw_saved = saved(b.atomic_rmw, lb.atomic_rmw);
        row("atomic RMW ops", b.atomic_rmw, lb.atomic_rmw, rmw_saved);
        row("Boruvka rounds", b.rounds, lb.rounds, String::new());
        // Barriers (Figs 3–4): one per parallel region. LLP-Prim's are its
        // frontier waves; sequential Prim has none.
        let (bor_regions, llp_waves) = (b.parallel_regions, lp.parallel_regions);
        row(
            "Boruvka barriers",
            bor_regions,
            lb.parallel_regions,
            String::new(),
        );
        let ratio = format!(
            "{:.0}x Boruvka's",
            llp_waves as f64 / bor_regions.max(1) as f64
        );
        row("LLP-Prim barriers", p.parallel_regions, llp_waves, ratio);
        records.extend([prim, llp, llp_par, bor, llb]);
    }
    println!(
        "{}",
        format_table(
            "Ablation: LLP mechanisms (baseline vs LLP, machine-independent, 1 thread)",
            &["Workload", "Metric", "Baseline", "LLP", "Delta"],
            &rows,
        )
    );
    let path = out.join("ablation.json");
    write_json_report(&path, &records).map_err(|e| format!("{}: {e}", path.display()))
}
