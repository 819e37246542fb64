//! `ooc-bench` — the out-of-core pipeline end to end, with an RSS gate.
//!
//! ```text
//! ooc-bench gen --out g.bin [--kind rmat|er] [--scale 16] [--ef 16] [--seed 1]
//!               [--chunk-edges N]
//! ooc-bench run --graph g.bin [--shard-mb MB | --shard-edges N] [--threads T]
//!               [--read-ahead K] [--no-certify] [--report out.json]
//!               [--max-rss-frac 0.5] [--rss-baseline-mb 0]
//!               [--checkpoint ck.llp] [--stop-after-shards N]
//! ```
//!
//! `gen` streams an RMAT / Erdős–Rényi sample straight to the binary
//! file in bounded chunks — RAM stays at the chunk size no matter the
//! scale, so graphs far bigger than memory can be produced. `run` solves
//! and (by default) certifies the file with the sharded Borůvka solver,
//! then gates the process peak RSS against
//! `max_rss_frac · file_bytes + rss_baseline_mb`: the baseline term
//! absorbs the fixed runtime footprint that dominates on tiny graphs,
//! the fractional term is the headline out-of-core claim (default: peak
//! RSS at most half the edge list).
//!
//! `--checkpoint` names a manifest that is fsync'd after every
//! completed shard: a killed run re-launched with the same flags skips
//! the shards already folded in and still certifies. `--stop-after-shards`
//! interrupts deliberately so CI can rehearse the kill-and-resume path
//! without an actual SIGKILL.
//!
//! Exit codes:
//!
//! * 0 — success;
//! * 1 — the run failed: the RSS gate failed, certification rejected or
//!   did not run, or an I/O error;
//! * 2 — usage error: an unknown command or argument, a missing or
//!   unparsable value, a count of 0, an out-of-range `--shard-mb` or
//!   `--rss-baseline-mb`, a `--max-rss-frac` that is negative, NaN or
//!   infinite, or both `--shard-mb` and `--shard-edges`;
//! * 3 — deliberately interrupted by `--stop-after-shards`; the same
//!   command line resumes.
//!
//! The JSON report (`llp-mst-ooc-report/v1`):
//!
//! ```json
//! {
//!   "schema": "llp-mst-ooc-report/v1",
//!   "graph": { "path": "g.bin", "n": 65536, "m": 1043931, "bytes": 16702924 },
//!   "shard_edges": 262144, "shards": 4, "threads": 2, "read_ahead": 1,
//!   "certified": true, "msf_edges": 65535, "total_weight": 123.456,
//!   "candidate_edges": 180000, "filtered_edges": 0,
//!   "wall_ms": 1234.5,
//!   "peak_rss_bytes": 52428800, "rss_frac": 0.31,
//!   "gate": { "max_rss_frac": 0.5, "rss_baseline_mb": 24,
//!             "limit_bytes": 33522462, "pass": true }
//! }
//! ```
//!
//! `filtered_edges` is always 0: the sharded solver has no cross-shard
//! filter, and the key keeps the schema stable.

use llp_bench::workloads::{stream_to_binary, StreamKind};
use llp_bench::{parse_count, parse_flag, usage_error};
use llp_mst::prelude::*;
use llp_runtime::{telemetry, ThreadPool};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        usage_error(USAGE);
    };
    args.remove(0);
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&mut args),
        "run" => cmd_run(&mut args),
        other => usage_error(format_args!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ooc-bench {cmd}: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: ooc-bench <gen|run> [options]
  gen --out g.bin [--kind rmat|er] [--scale 16] [--ef 16] [--seed 1] [--chunk-edges N]
  run --graph g.bin [--shard-mb MB | --shard-edges N] [--threads T] [--read-ahead K]
      [--no-certify] [--report out.json] [--max-rss-frac 0.5] [--rss-baseline-mb 0]
      [--checkpoint ck.llp] [--stop-after-shards N]   (exit 3 = interrupted, resumable)";

/// Removes `--name value` from `args`, if present.
fn take_opt(args: &mut Vec<String>, name: &str) -> Option<String> {
    let i = args.iter().position(|a| a == name)?;
    if i + 1 >= args.len() {
        usage_error(format_args!("{name} needs a value"));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

/// Removes the bare flag `--name` from `args`; true if it was present.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let Some(i) = args.iter().position(|a| a == name) else {
        return false;
    };
    args.remove(i);
    true
}

/// Removes the required `--name value` from `args`.
fn take_required(args: &mut Vec<String>, name: &str) -> String {
    take_opt(args, name).unwrap_or_else(|| usage_error(format_args!("{name} is required")))
}

/// Parses `--name value`, or returns `default` when the flag is absent.
fn take_parsed<T: std::str::FromStr>(args: &mut Vec<String>, name: &str, default: T) -> T {
    take_opt(args, name).map_or(default, |v| parse_flag(name, &v))
}

/// [`take_parsed`] for a count that must be at least 1.
fn take_count(args: &mut Vec<String>, name: &str, default: usize) -> usize {
    take_opt(args, name).map_or(default, |v| parse_count(name, &v))
}

/// Rejects leftover (unrecognized) arguments.
fn no_leftovers(args: &[String]) {
    if !args.is_empty() {
        usage_error(format_args!("unrecognized arguments: {}", args.join(" ")));
    }
}

fn cmd_gen(args: &mut Vec<String>) -> Result<(), String> {
    let out = take_required(args, "--out");
    let kind_s = take_opt(args, "--kind").unwrap_or_else(|| "rmat".into());
    let kind = StreamKind::parse(&kind_s)
        .unwrap_or_else(|| usage_error(format_args!("bad --kind {kind_s} (rmat|er)")));
    let scale: u32 = take_parsed(args, "--scale", 16);
    let ef: usize = take_parsed(args, "--ef", 16);
    let seed: u64 = take_parsed(args, "--seed", 1);
    let chunk: usize = take_parsed(args, "--chunk-edges", 0);
    no_leftovers(args);
    if scale > 31 {
        usage_error("--scale must be <= 31");
    }
    let t0 = Instant::now();
    let info = stream_to_binary(&PathBuf::from(&out), kind, scale, ef, seed, chunk)?;
    println!(
        "gen {kind} scale={scale} ef={ef} seed={seed}: n={} m={} bytes={} ({:.1}s)",
        info.num_vertices,
        info.num_edges,
        info.file_bytes,
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// Everything `run` measures, marshalled into the report and the gate.
struct RunReport {
    graph: String,
    n: usize,
    m: u64,
    file_bytes: u64,
    shard_edges: usize,
    shards: usize,
    threads: usize,
    read_ahead: usize,
    certified: bool,
    msf_edges: usize,
    total_weight: f64,
    candidate_edges: u64,
    filtered_edges: u64,
    wall_ms: f64,
    peak_rss_bytes: Option<u64>,
    max_rss_frac: f64,
    rss_baseline_mb: u64,
}

impl RunReport {
    /// `max_rss_frac · file_bytes + rss_baseline_mb` in bytes.
    fn limit_bytes(&self) -> u64 {
        ((self.max_rss_frac * self.file_bytes as f64) as u64)
            .saturating_add(self.rss_baseline_mb << 20)
    }

    /// The gate passes when peak RSS is measurable and under the limit.
    /// On platforms without an RSS probe the gate abstains (passes) —
    /// the report says so via `"peak_rss_bytes": null`.
    fn gate_pass(&self) -> bool {
        match self.peak_rss_bytes {
            Some(rss) => rss <= self.limit_bytes(),
            None => true,
        }
    }

    fn to_json(&self) -> String {
        let (rss, frac) = match self.peak_rss_bytes {
            Some(b) => (b.to_string(), format!("{:.4}", b as f64 / self.file_bytes as f64)),
            None => ("null".into(), "null".into()),
        };
        let mut graph = String::new();
        telemetry::escape_json(&self.graph, &mut graph);
        format!(
            "{{\"schema\":\"llp-mst-ooc-report/v1\",\
             \"graph\":{{\"path\":\"{}\",\"n\":{},\"m\":{},\"bytes\":{}}},\
             \"shard_edges\":{},\"shards\":{},\"threads\":{},\"read_ahead\":{},\
             \"certified\":{},\"msf_edges\":{},\"total_weight\":{:.6},\
             \"candidate_edges\":{},\"filtered_edges\":{},\
             \"wall_ms\":{:.3},\"peak_rss_bytes\":{rss},\"rss_frac\":{frac},\
             \"gate\":{{\"max_rss_frac\":{},\"rss_baseline_mb\":{},\
             \"limit_bytes\":{},\"pass\":{}}}}}",
            graph,
            self.n,
            self.m,
            self.file_bytes,
            self.shard_edges,
            self.shards,
            self.threads,
            self.read_ahead,
            self.certified,
            self.msf_edges,
            self.total_weight,
            self.candidate_edges,
            self.filtered_edges,
            self.wall_ms,
            self.max_rss_frac,
            self.rss_baseline_mb,
            self.limit_bytes(),
            self.gate_pass(),
        )
    }
}

fn cmd_run(args: &mut Vec<String>) -> Result<(), String> {
    let graph = take_required(args, "--graph");
    let shard_edges = match (
        take_opt(args, "--shard-mb"),
        take_opt(args, "--shard-edges"),
    ) {
        (Some(_), Some(_)) => usage_error("--shard-mb and --shard-edges are mutually exclusive"),
        // ~64 B/edge peak working set per resident shard during
        // contraction (see the sharded module docs); budget accordingly.
        (Some(mb), None) => parse_count("--shard-mb", &mb)
            .checked_mul((1 << 20) / 64)
            .unwrap_or_else(|| usage_error("--shard-mb is out of range")),
        (None, Some(n)) => parse_count("--shard-edges", &n),
        (None, None) => ShardedConfig::default().shard_edges,
    };
    let threads = take_count(
        args,
        "--threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let read_ahead = take_count(args, "--read-ahead", 1);
    let certify = !take_flag(args, "--no-certify");
    let report_path = take_opt(args, "--report");
    let max_rss_frac: f64 = take_parsed(args, "--max-rss-frac", 0.5);
    if !(max_rss_frac.is_finite() && max_rss_frac >= 0.0) {
        usage_error("--max-rss-frac must be a finite number >= 0");
    }
    let rss_baseline_mb: u64 = take_parsed(args, "--rss-baseline-mb", 0);
    if rss_baseline_mb.checked_mul(1 << 20).is_none() {
        usage_error("--rss-baseline-mb is out of range");
    }
    let checkpoint = take_opt(args, "--checkpoint").map(PathBuf::from);
    let stop_after_shards: Option<usize> =
        take_opt(args, "--stop-after-shards").map(|v| parse_flag("--stop-after-shards", &v));
    no_leftovers(args);
    if stop_after_shards.is_some() && checkpoint.is_none() {
        usage_error("--stop-after-shards without --checkpoint would lose the partial run");
    }

    let path = PathBuf::from(&graph);
    let file_bytes = std::fs::metadata(&path).map_err(|e| format!("{graph}: {e}"))?.len();
    let pool = ThreadPool::new(threads);
    let cfg = ShardedConfig {
        shard_edges,
        certify,
        read_ahead,
        checkpoint,
        stop_after_shards,
    };

    let t0 = Instant::now();
    let run = match sharded_msf_file(&path, &cfg, &pool) {
        Ok(run) => run,
        Err(ShardedError::Interrupted { shards_done, shards_total }) => {
            // Deliberate interruption is not a failure: the manifest holds
            // shards_done folded shards, and the same command line resumes.
            println!(
                "run {graph}: interrupted after shard {shards_done}/{shards_total}; \
                 re-run with the same --checkpoint to resume"
            );
            std::process::exit(3);
        }
        Err(e) => return Err(e.to_string()),
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some(done) = run.resumed_from {
        println!("resumed from checkpoint: {done} shards skipped");
    }

    let report = RunReport {
        graph,
        n: run.num_vertices,
        m: run.num_edges,
        file_bytes,
        shard_edges: cfg.shard_edges,
        shards: run.shards,
        threads,
        read_ahead,
        certified: run.certified,
        msf_edges: run.result.edges.len(),
        total_weight: run.result.total_weight,
        candidate_edges: run.candidate_edges,
        filtered_edges: run.filtered_edges,
        wall_ms,
        peak_rss_bytes: telemetry::peak_rss_bytes(),
        max_rss_frac,
        rss_baseline_mb,
    };

    println!(
        "run {}: n={} m={} shards={} msf_edges={} weight={:.6} certified={} wall={:.1}ms",
        report.graph,
        report.n,
        report.m,
        report.shards,
        report.msf_edges,
        report.total_weight,
        report.certified,
        report.wall_ms,
    );
    match report.peak_rss_bytes {
        Some(rss) => println!(
            "peak rss {:.1} MiB / file {:.1} MiB = {:.3} (limit {:.1} MiB) gate={}",
            rss as f64 / (1 << 20) as f64,
            report.file_bytes as f64 / (1 << 20) as f64,
            rss as f64 / report.file_bytes as f64,
            report.limit_bytes() as f64 / (1 << 20) as f64,
            if report.gate_pass() { "pass" } else { "FAIL" },
        ),
        None => println!("peak rss unavailable on this platform; gate abstains"),
    }

    if let Some(p) = report_path {
        std::fs::write(&p, report.to_json()).map_err(|e| format!("{p}: {e}"))?;
        println!("report written to {p}");
    }

    if !report.certified && certify {
        return Err("certification did not run".into());
    }
    if !report.gate_pass() {
        return Err(format!(
            "RSS gate failed: peak {} > limit {} bytes",
            report.peak_rss_bytes.unwrap_or(0),
            report.limit_bytes()
        ));
    }
    Ok(())
}
