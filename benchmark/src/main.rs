//! End-to-end benchmark of the llp-mst stack. One invocation runs one
//! workload under one seed, checks every output, and prints every metric
//! by name with its unit; the last line of standard output is one JSON
//! object (`correct`, `attempted`, `failed`, `metrics`).
//!
//! ```text
//! llp-mst-benchmark --workload <road|rmat> --seed N [--seconds S] [--trace 0|1]
//!                   [--trace-out spans.json] [--out result.json] [--smoke]
//! llp-mst-benchmark compare A.json... -- B.json... [--bench BENCHMARK.json]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (and writes the span log). See `README.md` for the workloads, the
//! metrics and how a layer metric maps onto an end-to-end one.

use llp_mst_benchmark::{alloc, compare, conditions, json, metrics, run, workload};
use std::fmt::Write as _;
use std::path::PathBuf;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: llp-mst-benchmark --workload <road|rmat> --seed N [--seconds S] \
[--trace 0|1] [--trace-out PATH] [--out PATH] [--smoke]\n       \
llp-mst-benchmark compare A.json... -- B.json... [--bench BENCHMARK.json]";

struct Opts {
    workload: workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut opts = Opts {
        workload: workload::Workload::Road,
        seed: 0,
        seconds: 50.0,
        trace: false,
        trace_out: None,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(workload::Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-out" => opts.trace_out = Some(value()?.into()),
            "--out" => opts.out = Some(value()?.into()),
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    opts.seed = seed.ok_or("--seed is required")?;
    Ok(opts)
}

/// Scratch files go under the build directory, inside the checkout.
fn work_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")));
    target.join("bench-work")
}

/// `{"name": {"value": v, "unit": u}, ...}` over `list`.
fn metrics_json(
    list: &[&metrics::Metric],
    values: &std::collections::BTreeMap<&str, f64>,
) -> String {
    let mut out = String::from("{");
    for (i, m) in list.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str(&mut out, m.name);
        out.push_str(":{\"value\":");
        json::push_num(&mut out, values.get(m.name).copied().unwrap_or(f64::NAN));
        out.push_str(",\"unit\":");
        json::push_str(&mut out, m.unit);
        out.push('}');
    }
    out.push('}');
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        std::process::exit(compare::main(&args[1..]));
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("warning: debug build; run with --release for meaningful numbers");
    }
    match conditions::pin_to_one_cpu() {
        Ok(cpu) => eprintln!("pinned to CPU {cpu}"),
        Err(e) => eprintln!("warning: not pinned to one CPU: {e}"),
    }
    if let Err(e) = conditions::fix_allocator_policy() {
        eprintln!("warning: allocator policy not fixed: {e}");
    }
    let cfg = run::Config {
        workload: opts.workload,
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        sizes: if opts.smoke {
            workload::Sizes::smoke()
        } else {
            workload::Sizes::full()
        },
        work_dir: work_dir(),
    };
    let outcome = match run::run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{}: set-up failed: {e}", opts.workload.name());
            std::process::exit(1);
        }
    };
    for note in &outcome.failures {
        eprintln!("FAILED: {note}");
    }
    for note in &outcome.warnings {
        eprintln!("warning: {note}");
    }
    if opts.trace && outcome.max_gap_frac > 0.01 {
        eprintln!(
            "warning: a traced call's phase self-times miss its wall time by {:.2}%",
            outcome.max_gap_frac * 100.0
        );
    }

    let selected: Vec<&metrics::Metric> = if opts.trace {
        metrics::PER_LAYER.iter().collect()
    } else {
        metrics::END_TO_END.iter().collect()
    };
    println!(
        "workload {} seed {} rounds {} attempted {} failed {} peak RSS {:.1} MB",
        opts.workload.name(),
        opts.seed,
        outcome.rounds,
        outcome.attempted,
        outcome.failed,
        llp_runtime::telemetry::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1 << 20) as f64)
    );
    for m in &selected {
        let v = outcome.values.get(m.name).copied().unwrap_or(f64::NAN);
        let mut line = format!(
            "{:<34} {:>16.4} {:<6} {:<6}",
            m.name,
            v,
            m.unit,
            m.better.as_str()
        );
        if let Some((n, lo, hi)) = outcome.samples.get(m.name) {
            let _ = write!(line, "  samples {n}, min {lo:.4}, max {hi:.4}");
        }
        if let Some(r) = outcome.raw.get(m.name) {
            let _ = write!(line, "  as measured {r:.4}");
        }
        if !m.moves.is_empty() {
            let _ = write!(line, "  moves {}", m.moves);
        }
        println!("{line}");
    }

    if let Some(path) = &opts.out {
        let all: Vec<&metrics::Metric> = metrics::END_TO_END
            .iter()
            .chain(metrics::PER_LAYER)
            .collect();
        let present: Vec<&metrics::Metric> = all
            .into_iter()
            .filter(|m| outcome.values.contains_key(m.name))
            .collect();
        let mut doc = String::from("{\"workload\":");
        json::push_str(&mut doc, opts.workload.name());
        let _ = write!(
            doc,
            ",\"seed\":{},\"seconds\":{},\"trace\":{},\"rounds\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":",
            opts.seed,
            opts.seconds,
            opts.trace,
            outcome.rounds,
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed
        );
        doc.push_str(&metrics_json(&present, &outcome.values));
        doc.push_str(",\"raw\":{");
        for (i, (name, v)) in outcome.raw.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            json::push_str(&mut doc, name);
            doc.push(':');
            json::push_num(&mut doc, *v);
        }
        doc.push('}');
        doc.push_str(",\"samples\":{");
        for (i, (name, (n, lo, hi))) in outcome.samples.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            json::push_str(&mut doc, name);
            let _ = write!(doc, ":{{\"n\":{n},\"min\":");
            json::push_num(&mut doc, *lo);
            doc.push_str(",\"max\":");
            json::push_num(&mut doc, *hi);
            doc.push('}');
        }
        doc.push_str("}}\n");
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("{}: {e}", path.display());
        }
    }
    if let Some(tracer) = &outcome.tracer {
        let path = opts.trace_out.clone().unwrap_or_else(|| {
            work_dir().join(format!("trace-{}-{}.json", opts.workload.name(), opts.seed))
        });
        match std::fs::write(&path, tracer.to_json()) {
            Ok(()) => eprintln!("spans: {}", path.display()),
            Err(e) => eprintln!("{}: {e}", path.display()),
        }
    }

    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&selected, &outcome.values)
    );
    std::process::exit(i32::from(outcome.failed > 0));
}
