//! `dynamic-bench` — update throughput of the fully dynamic MSF
//! (`llp_mst::dynamic::DynamicMsf`): edges/sec applied across mixed
//! insert/delete epochs, with per-epoch latency percentiles, written as
//! `llp-mst-dynamic-report/v1` JSON and gated on `--min-eps`.
//!
//! ```text
//! dynamic-bench [--scale 14] [--ef 8] [--seed 1] [--epochs 24]
//!               [--batch 1024] [--threads N] [--no-certify]
//!               [--report BENCH_dynamic.json] [--min-eps 0]
//! ```
//!
//! Each epoch deletes `batch/2` random live edges (tree edges included,
//! so fragments get reconnected) and inserts `batch/2`
//! edges — half re-insertions of previously deleted edges, half fresh
//! random pairs — then applies the batch as one [`DynamicMsf`] epoch.
//! Unless `--no-certify`, every epoch ends with the full certification
//! sweep, so the reported throughput is *certified* update throughput:
//! the number a serving deployment would actually sustain.

use llp_graph::generators::{rmat, RmatParams};
use llp_graph::Edge;
use llp_mst::dynamic::DynamicMsf;
use llp_runtime::rng::SmallRng;
use llp_runtime::ThreadPool;
use std::io::Write;
use std::time::Instant;

struct Opts {
    scale: u32,
    ef: usize,
    seed: u64,
    epochs: usize,
    batch: usize,
    threads: usize,
    certify: bool,
    report: String,
    min_eps: f64,
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        scale: 14,
        ef: 8,
        seed: 1,
        epochs: 24,
        batch: 1024,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        certify: true,
        report: "BENCH_dynamic.json".into(),
        min_eps: 0.0,
    };
    let mut args = std::env::args().skip(1);
    fn value<T: std::str::FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> T {
        args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            std::process::exit(2);
        })
    }
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scale" => opts.scale = value("--scale", &mut args),
            "--ef" => opts.ef = value("--ef", &mut args),
            "--seed" => opts.seed = value("--seed", &mut args),
            "--epochs" => opts.epochs = value("--epochs", &mut args),
            "--batch" => opts.batch = value("--batch", &mut args),
            "--threads" => opts.threads = value("--threads", &mut args),
            "--no-certify" => opts.certify = false,
            "--report" => opts.report = value("--report", &mut args),
            "--min-eps" => opts.min_eps = value("--min-eps", &mut args),
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
    }
    if opts.epochs == 0 || opts.batch < 2 {
        eprintln!("--epochs must be >= 1 and --batch >= 2");
        std::process::exit(2);
    }
    opts
}

struct EpochRow {
    epoch: u64,
    updates: usize,
    ms: f64,
    eps: f64,
    fast_swaps: usize,
    fast_rejects: usize,
    links: usize,
    dirty: usize,
}

/// Percentile over a sorted slice (nearest-rank on the closed range).
fn percentile(sorted: &[f64], p: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

fn main() {
    let opts = parse_opts();
    if cfg!(debug_assertions) {
        eprintln!("warning: debug build; run with --release for meaningful numbers");
    }

    let graph = rmat(RmatParams::graph500(opts.scale, opts.ef, opts.seed));
    let n = graph.num_vertices();
    let pool = ThreadPool::new(opts.threads);
    println!(
        "graph: rmat scale {} ef {} seed {} (n={n}, m={})",
        opts.scale,
        opts.ef,
        opts.seed,
        graph.num_edges()
    );

    let t = Instant::now();
    let mut d = DynamicMsf::new(&graph, &pool).unwrap_or_else(|e| {
        eprintln!("initial build failed: {e}");
        std::process::exit(1);
    });
    d.set_certify_epochs(opts.certify);
    let m0 = d.num_edges();
    println!(
        "initial epoch: {:.1} ms (m={m0}, trees={}, certified)",
        t.elapsed().as_secs_f64() * 1e3,
        d.msf().num_trees
    );

    let mut rng = SmallRng::seed_from_u64(opts.seed ^ 0x9e3779b97f4a7c15);
    let mut live: Vec<(u32, u32)> = d
        .current_edges()
        .iter()
        .map(Edge::canonical_endpoints)
        .collect();
    let mut graveyard: Vec<Edge> = Vec::new();
    let mut rows: Vec<EpochRow> = Vec::with_capacity(opts.epochs);
    let (mut classify_ms, mut rebuild_ms, mut index_ms, mut certify_ms) = (0.0, 0.0, 0.0, 0.0);
    let (mut tot_ins, mut tot_del) = (0usize, 0usize);

    for _ in 0..opts.epochs {
        let half = opts.batch / 2;
        let mut deletes: Vec<(u32, u32)> = Vec::with_capacity(half);
        for _ in 0..half.min(live.len().saturating_sub(1)) {
            let i = rng.gen_range(0usize..live.len());
            let (u, v) = live.swap_remove(i);
            deletes.push((u, v));
            graveyard.push(Edge::new(u, v, 0.0));
        }
        let mut inserts: Vec<Edge> = Vec::with_capacity(half);
        for k in 0..half {
            if k % 2 == 0 && !graveyard.is_empty() {
                let i = rng.gen_range(0usize..graveyard.len());
                let e = graveyard.swap_remove(i);
                inserts.push(Edge::new(e.u, e.v, rng.gen_range(1u32..1000) as f64));
            } else {
                let u = rng.gen_range(0u32..n as u32);
                let v = rng.gen_range(0u32..n as u32);
                if u != v {
                    inserts.push(Edge::new(u, v, rng.gen_range(1u32..1000) as f64));
                }
            }
        }

        let t = Instant::now();
        let report = d.apply_batch(&inserts, &deletes, &pool).unwrap_or_else(|e| {
            eprintln!("epoch failed: {e}");
            std::process::exit(1);
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let updates = report.updates();
        rows.push(EpochRow {
            epoch: report.epoch,
            updates,
            ms,
            eps: updates as f64 / (ms / 1e3),
            fast_swaps: report.fast_swaps,
            fast_rejects: report.fast_rejects,
            links: report.links,
            dirty: report.dirty_components,
        });
        classify_ms += report.classify_ms;
        rebuild_ms += report.rebuild_ms;
        index_ms += report.index_ms;
        certify_ms += report.certify_ms;
        tot_ins += report.inserts_applied;
        tot_del += report.deletes_applied;

        // Refresh the live list from the structure (cheap vs an epoch).
        live.clear();
        live.extend(d.current_edges().iter().map(Edge::canonical_endpoints));
    }

    let mut eps_sorted: Vec<f64> = rows.iter().map(|r| r.eps).collect();
    eps_sorted.sort_by(f64::total_cmp);
    let mut ms_sorted: Vec<f64> = rows.iter().map(|r| r.ms).collect();
    ms_sorted.sort_by(f64::total_cmp);
    // Throughput percentiles quote the *slow* tail: p99 is the 1st
    // percentile of eps (the worst epochs), mirroring latency p99.
    let eps_p50 = percentile(&eps_sorted, 50);
    let eps_p99 = percentile(&eps_sorted, 1);
    let ms_p50 = percentile(&ms_sorted, 50);
    let ms_p99 = percentile(&ms_sorted, 99);

    println!("epoch  updates      ms        eps  swaps rejects links dirty");
    for r in &rows {
        println!(
            "{:>5} {:>8} {:>7.2} {:>10.0} {:>6} {:>7} {:>5} {:>5}",
            r.epoch, r.updates, r.ms, r.eps, r.fast_swaps, r.fast_rejects, r.links, r.dirty
        );
    }
    println!(
        "eps: p50 {eps_p50:.0} p99 {eps_p99:.0} | epoch ms: p50 {ms_p50:.2} p99 {ms_p99:.2} \
         | certified: {}",
        opts.certify
    );

    write_report(&opts, n, m0, &rows, eps_p50, eps_p99, ms_p50, ms_p99, [
        classify_ms,
        rebuild_ms,
        index_ms,
        certify_ms,
    ], tot_ins, tot_del)
    .unwrap_or_else(|e| {
        eprintln!("{}: {e}", opts.report);
        std::process::exit(1);
    });
    println!("report: {}", opts.report);

    if eps_p50 < opts.min_eps {
        eprintln!(
            "gate FAILED: p50 throughput {eps_p50:.0} updates/s is below --min-eps {:.0}",
            opts.min_eps
        );
        std::process::exit(1);
    }
    if opts.min_eps > 0.0 {
        println!("gate: p50 {eps_p50:.0} updates/s >= {:.0}", opts.min_eps);
    }
}

#[allow(clippy::too_many_arguments)]
fn write_report(
    opts: &Opts,
    n: usize,
    m0: usize,
    rows: &[EpochRow],
    eps_p50: f64,
    eps_p99: f64,
    ms_p50: f64,
    ms_p99: f64,
    phase_ms: [f64; 4],
    tot_ins: usize,
    tot_del: usize,
) -> std::io::Result<()> {
    let path = std::path::Path::new(&opts.report);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{\"schema\":\"llp-mst-dynamic-report/v1\",")?;
    writeln!(f, "\"graph\":{{\"n\":{n},\"m0\":{m0}}},")?;
    writeln!(
        f,
        "\"config\":{{\"scale\":{},\"ef\":{},\"seed\":{},\"epochs\":{},\"batch\":{},\
         \"threads\":{},\"certified\":{}}},",
        opts.scale, opts.ef, opts.seed, opts.epochs, opts.batch, opts.threads, opts.certify
    )?;
    writeln!(f, "\"eps\":{{\"p50\":{eps_p50:.1},\"p99\":{eps_p99:.1}}},")?;
    writeln!(f, "\"epoch_ms\":{{\"p50\":{ms_p50:.3},\"p99\":{ms_p99:.3}}},")?;
    writeln!(
        f,
        "\"phase_ms_total\":{{\"classify\":{:.3},\"rebuild\":{:.3},\"index\":{:.3},\
         \"certify\":{:.3}}},",
        phase_ms[0], phase_ms[1], phase_ms[2], phase_ms[3]
    )?;
    writeln!(
        f,
        "\"totals\":{{\"inserts_applied\":{tot_ins},\"deletes_applied\":{tot_del}}},"
    )?;
    writeln!(f, "\"epochs\":[")?;
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            f,
            "{{\"epoch\":{},\"updates\":{},\"ms\":{:.3},\"eps\":{:.1},\"fast_swaps\":{},\
             \"fast_rejects\":{},\"links\":{},\"dirty_components\":{}}}{}",
            r.epoch, r.updates, r.ms, r.eps, r.fast_swaps, r.fast_rejects, r.links, r.dirty, sep
        )?;
    }
    writeln!(f, "]}}")?;
    Ok(())
}
