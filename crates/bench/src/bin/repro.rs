//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro <table1|fig2|fig3|fig4|ablation|sizes|all> [options]
//!
//! options:
//!   --scale small|medium|large   workload size preset (default: medium)
//!   --reps N                     timed repetitions per config (default: 3)
//!   --max-threads N              top of the thread sweep (default: 8)
//!   --seed N                     generator seed (default: 42)
//!   --out DIR                    report directory (default: results)
//!   --dimacs FILE.gr             use a real DIMACS road graph for the
//!                                road workload (e.g. USA-road-d.USA.gr)
//! ```
//!
//! Output: paper-style text tables on stdout plus, per artifact, one
//! structured JSON run report `DIR/<artifact>.json` (schema
//! `llp-mst-run-report/v1`) carrying timings, work counters, per-phase
//! timings, per-wave histograms and telemetry counters for every
//! (algorithm, workload, threads) configuration.
//!
//! Flags are parsed by [`llp_bench::cli`]: a bad or missing flag exits 2.
//! `--out` is created before any timing; failing to create it, to read
//! `--dimacs`, or to write a report exits 1 with the path.

use llp_bench::cli::{
    command, exit_status, no_leftovers, take_count, take_opt, take_parsed, usage_error,
};
use llp_bench::harness::{format_table, time_algorithm_with_report, write_json_report, RunRecord};
use llp_bench::{Algorithm, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    scale: Scale,
    reps: usize,
    max_threads: usize,
    seed: u64,
    out: PathBuf,
    dimacs: Option<PathBuf>,
}

impl Options {
    fn road_workload(&self) -> Result<Workload, String> {
        let Some(path) = &self.dimacs else {
            return Ok(Workload::road(self.scale, self.seed));
        };
        let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Workload::from_dimacs(
            &path.file_stem().unwrap_or_default().to_string_lossy(),
            std::io::BufReader::new(file),
        )
        .map_err(|e| format!("{}: {e}", path.display()))
    }

    fn thread_sweep(&self) -> Vec<usize> {
        let mut t = 1;
        let mut sweep = Vec::new();
        while t <= self.max_threads {
            sweep.push(t);
            t *= 2;
        }
        sweep
    }

    /// Writes `records` as the JSON report `<out>/<artifact>.json`.
    fn write_report(&self, artifact: &str, records: &[RunRecord]) -> Result<(), String> {
        let path = self.out.join(format!("{artifact}.json"));
        write_json_report(&path, records).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Prints one table or figure and writes its report.
type Artifact = fn(&Options) -> Result<(), String>;

const USAGE: &str = "usage: repro <table1|fig2|fig3|fig4|ablation|sizes|all>
  [--scale small|medium|large] [--reps 3] [--max-threads 8] [--seed 42] [--out results]
  [--dimacs FILE.gr]";

fn main() -> ExitCode {
    let (cmd, mut args) = command(USAGE);
    let opts = Options {
        scale: take_parsed(&mut args, "--scale", Scale::Medium),
        reps: take_count(&mut args, "--reps", 3),
        max_threads: take_count(&mut args, "--max-threads", 8),
        seed: take_parsed(&mut args, "--seed", 42),
        out: take_opt(&mut args, "--out").map_or_else(|| PathBuf::from("results"), PathBuf::from),
        dimacs: take_opt(&mut args, "--dimacs").map(PathBuf::from),
    };
    no_leftovers(&args);
    let artifacts: &[Artifact] = match cmd.as_str() {
        "table1" => &[table1],
        "fig2" => &[fig2],
        "fig3" => &[fig3],
        "fig4" => &[fig4],
        "ablation" => &[ablation],
        "sizes" => &[sizes],
        "all" => &[table1, fig2, fig3, fig4, ablation, sizes],
        other => usage_error(format_args!("unknown command `{other}`\n{USAGE}")),
    };
    let result = std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("{}: {e}", opts.out.display()))
        .and_then(|()| artifacts.iter().try_for_each(|artifact| artifact(&opts)));
    exit_status("repro", &cmd, result)
}

/// Table I: dataset summary.
fn table1(opts: &Options) -> Result<(), String> {
    let workloads = [opts.road_workload()?, Workload::rmat(opts.scale, opts.seed)];
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

/// Fig. 2: single-threaded Prim vs LLP-Prim (1T) vs Boruvka, road + rmat.
fn fig2(opts: &Options) -> Result<(), String> {
    let workloads = [opts.road_workload()?, Workload::rmat(opts.scale, opts.seed)];
    let algos = [
        Algorithm::Prim,
        Algorithm::LlpPrimSeq,
        Algorithm::Boruvka, // parallel Boruvka run with 1 thread, as in the paper
    ];
    let mut records: Vec<RunRecord> = Vec::new();
    let mut rows = Vec::new();
    for w in &workloads {
        let base = records.len();
        for &algo in &algos {
            records.push(time_algorithm_with_report(algo, w, 1, opts.reps));
        }
        let prim_ms = records[base].sample.median_ms;
        for r in &records[base..] {
            let s = &r.sample;
            rows.push(vec![
                s.workload.clone(),
                s.algo.label().to_string(),
                format!("{:.2}", s.median_ms),
                format!("{:.2}x", prim_ms / s.median_ms),
            ]);
        }
    }
    println!(
        "{}",
        format_table(
            "Fig. 2: single-threaded runtimes (speedup relative to Prim)",
            &["Workload", "Algorithm", "Median ms", "vs Prim"],
            &rows,
        )
    );
    opts.write_report("fig2", &records)?;
    println!(
        "paper shape: LLP-Prim(1T) ≈ 1.21–1.27x faster than Prim; both ≈ 3x faster than Boruvka\n"
    );
    Ok(())
}

/// Fig. 3: thread sweep on the road network.
fn fig3(opts: &Options) -> Result<(), String> {
    let w = opts.road_workload()?;
    let algos = [Algorithm::LlpPrim, Algorithm::Boruvka, Algorithm::LlpBoruvka];
    let mut records: Vec<RunRecord> = Vec::new();
    let mut rows = Vec::new();
    for threads in opts.thread_sweep() {
        for &algo in &algos {
            let r = time_algorithm_with_report(algo, &w, threads, opts.reps);
            let s = &r.sample;
            rows.push(vec![
                threads.to_string(),
                s.algo.label().to_string(),
                format!("{:.2}", s.median_ms),
                s.stats.rounds.to_string(),
                s.stats.parallel_regions.to_string(),
                s.stats.atomic_rmw.to_string(),
            ]);
            records.push(r);
        }
    }
    println!(
        "{}",
        format_table(
            &format!("Fig. 3: thread sweep on {}", w.name),
            &[
                "Threads",
                "Algorithm",
                "Median ms",
                "Rounds",
                "Barriers",
                "AtomicRMW",
            ],
            &rows,
        )
    );
    opts.write_report("fig3", &records)?;
    println!(
        "paper shape: LLP-Prim fastest at 1–4 threads, plateaus ~8; Boruvka-family scales,\n\
         crosses over ~8 threads; LLP-Boruvka ≤ Boruvka runtime throughout.\n\
         NOTE: wall-clock scaling requires physical cores; see the work metrics in fig3.json\n\
         (stats.atomic_rmw, stats.parallel_regions) for the machine-independent shape.\n"
    );
    Ok(())
}

/// Fig. 4: low vs high core counts across graph types.
fn fig4(opts: &Options) -> Result<(), String> {
    let workloads = [opts.road_workload()?, Workload::rmat(opts.scale, opts.seed)];
    let algos = [Algorithm::LlpPrim, Algorithm::Boruvka, Algorithm::LlpBoruvka];
    let low = 2usize;
    let high = opts.max_threads.max(4);
    let mut records: Vec<RunRecord> = Vec::new();
    let mut rows = Vec::new();
    for w in &workloads {
        for &threads in &[low, high] {
            for &algo in &algos {
                let r = time_algorithm_with_report(algo, w, threads, opts.reps);
                let s = &r.sample;
                rows.push(vec![
                    w.name.clone(),
                    format!("{threads}"),
                    s.algo.label().to_string(),
                    format!("{:.2}", s.median_ms),
                ]);
                records.push(r);
            }
        }
    }
    println!(
        "{}",
        format_table(
            "Fig. 4: parallel algorithms at low/high core counts, different graphs",
            &["Workload", "Threads", "Algorithm", "Median ms"],
            &rows,
        )
    );
    opts.write_report("fig4", &records)?;
    println!(
        "paper shape: LLP-Prim best at low core counts (more so on denser graphs);\n\
         Boruvka-family best at high core counts with LLP-Boruvka modestly ahead.\n"
    );
    Ok(())
}

/// Ablation: the §V mechanisms, as machine-independent work metrics.
fn ablation(opts: &Options) -> Result<(), String> {
    let workloads = [opts.road_workload()?, Workload::rmat(opts.scale, opts.seed)];
    let mut rows = Vec::new();
    let mut records: Vec<RunRecord> = Vec::new();
    for w in &workloads {
        // Heap traffic: Prim vs LLP-Prim (the early-fixing claim).
        let prim_r = time_algorithm_with_report(Algorithm::Prim, w, 1, 1);
        let llp_r = time_algorithm_with_report(Algorithm::LlpPrimSeq, w, 1, 1);
        let (prim, llp) = (&prim_r.sample, &llp_r.sample);
        let n = w.graph.num_vertices() as f64;
        rows.push(vec![
            w.name.clone(),
            "heap ops".into(),
            prim.stats.heap_ops().to_string(),
            llp.stats.heap_ops().to_string(),
            format!(
                "{:.1}% saved",
                100.0 * (1.0 - llp.stats.heap_ops() as f64 / prim.stats.heap_ops() as f64)
            ),
        ]);
        rows.push(vec![
            w.name.clone(),
            "early-fixed vertices".into(),
            "0".into(),
            llp.stats.early_fixes.to_string(),
            format!("{:.1}% of n", 100.0 * llp.stats.early_fixes as f64 / n),
        ]);
        // Synchronization: parallel Boruvka vs LLP-Boruvka, on one thread,
        // where both RMW counts are exact (pinned by `tests/paper_traces.rs`).
        let bor_r = time_algorithm_with_report(Algorithm::Boruvka, w, 1, 1);
        let llb_r = time_algorithm_with_report(Algorithm::LlpBoruvka, w, 1, 1);
        let (bor, llb) = (&bor_r.sample, &llb_r.sample);
        rows.push(vec![
            w.name.clone(),
            "atomic RMW ops".into(),
            bor.stats.atomic_rmw.to_string(),
            llb.stats.atomic_rmw.to_string(),
            format!(
                "{:.1}% saved",
                100.0 * (1.0 - llb.stats.atomic_rmw as f64 / bor.stats.atomic_rmw.max(1) as f64)
            ),
        ]);
        rows.push(vec![
            w.name.clone(),
            "Boruvka rounds".into(),
            bor.stats.rounds.to_string(),
            llb.stats.rounds.to_string(),
            String::new(),
        ]);
        records.extend([prim_r, llp_r, bor_r, llb_r]);
    }
    println!(
        "{}",
        format_table(
            "Ablation: LLP mechanisms (baseline vs LLP, machine-independent)",
            &["Workload", "Metric", "Baseline", "LLP", "Delta"],
            &rows,
        )
    );
    opts.write_report("ablation", &records)
}

/// §VII.C closing remark ("graphs of different sizes and the same
/// morphology ... results were analogous"): a size sweep over the road
/// morphology checking that the Fig. 2 ordering is size-stable.
fn sizes(opts: &Options) -> Result<(), String> {
    let mut rows = Vec::new();
    let mut records: Vec<RunRecord> = Vec::new();
    for scale in [Scale::Small, Scale::Medium, Scale::Large] {
        if matches!(scale, Scale::Large) && !matches!(opts.scale, Scale::Large) {
            continue; // only pay for the 1M-vertex graph when asked
        }
        let w = Workload::road(scale, opts.seed);
        let prim_r = time_algorithm_with_report(Algorithm::Prim, &w, 1, opts.reps);
        let llp_r = time_algorithm_with_report(Algorithm::LlpPrimSeq, &w, 1, opts.reps);
        let llb_r = time_algorithm_with_report(Algorithm::LlpBoruvka, &w, 1, opts.reps);
        let (prim, llp, llb) = (&prim_r.sample, &llp_r.sample, &llb_r.sample);
        rows.push(vec![
            w.name.clone(),
            format!("{}", w.graph.num_vertices()),
            format!("{:.2}", prim.median_ms),
            format!("{:.2}", llp.median_ms),
            format!("{:.2}", llb.median_ms),
            format!("{:.2}x", prim.median_ms / llp.median_ms),
        ]);
        records.extend([prim_r, llp_r, llb_r]);
    }
    println!(
        "{}",
        format_table(
            "Size sweep (road morphology): Fig. 2 ordering is size-stable",
            &[
                "Workload",
                "Vertices",
                "Prim ms",
                "LLP-Prim(1T) ms",
                "LLP-Boruvka ms",
                "LLP speedup",
            ],
            &rows,
        )
    );
    opts.write_report("sizes", &records)
}
