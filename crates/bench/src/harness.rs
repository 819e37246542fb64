//! Timing, aggregation and table/CSV/JSON output.

use crate::algorithms::{run_algorithm_with_mwe, Algorithm};
use crate::workloads::Workload;
use llp_mst::AlgoStats;
use llp_runtime::{telemetry, ThreadPool};
use std::io::Write;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One timed configuration.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Algorithm run.
    pub algo: Algorithm,
    /// Workload name.
    pub workload: String,
    /// Threads in the pool.
    pub threads: usize,
    /// Median wall-clock milliseconds over the repetitions.
    pub median_ms: f64,
    /// Minimum observed milliseconds.
    pub min_ms: f64,
    /// Work metrics of the last run.
    pub stats: AlgoStats,
    /// Total weight (sanity echo; all algorithms must agree).
    pub total_weight: f64,
}

/// Convenience alias used by the repro binary.
pub type Measurement = Sample;

/// Times `algo` on a workload with a dedicated pool of `threads`,
/// returning the median of `reps` runs (first run warms caches and is
/// discarded when `reps > 1`). The workload's precomputed MWE table is
/// passed through, so LLP-Prim timings exclude graph-load work, as in the
/// paper.
pub fn time_algorithm(algo: Algorithm, w: &Workload, threads: usize, reps: usize) -> Sample {
    let pool = ThreadPool::new(threads);
    let mut times_ms: Vec<f64> = Vec::with_capacity(reps);
    let mut last = None;
    let total = if reps > 1 { reps + 1 } else { reps };
    for i in 0..total {
        let t0 = Instant::now();
        let result = run_algorithm_with_mwe(algo, &w.graph, w.root(), &pool, Some(&w.mwe));
        let dt = t0.elapsed().as_secs_f64() * 1e3;
        if !(reps > 1 && i == 0) {
            times_ms.push(dt);
        }
        last = Some(result);
    }
    times_ms.sort_by(f64::total_cmp);
    let last = last.expect("at least one run");
    Sample {
        algo,
        workload: w.name.clone(),
        threads,
        median_ms: times_ms[times_ms.len() / 2],
        min_ms: times_ms[0],
        stats: last.stats,
        total_weight: last.total_weight,
    }
}

/// A timed sample paired with the phase-level telemetry of one
/// instrumented run of the same configuration.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Timing and work metrics from the *uninstrumented* repetitions.
    pub sample: Sample,
    /// Phase timings / wave histograms / counters from one extra run with
    /// telemetry recording force-enabled.
    pub telemetry: telemetry::RunReport,
    /// Whether the instrumented run's output passed the oracle-free
    /// near-linear MSF certifier ([`llp_mst::certify::certify_msf_par`]).
    pub certified: bool,
    /// Process peak RSS in bytes after the run
    /// ([`telemetry::peak_rss_bytes`]); `None` off-Linux. A process-level
    /// high-water mark: it only rises across records of one process.
    pub peak_rss_bytes: Option<u64>,
}

/// Like [`time_algorithm`], additionally executing one extra run with
/// telemetry recording force-enabled to capture a [`telemetry::RunReport`],
/// and certifying that run's output with the near-linear oracle-free
/// certifier (recorded as [`RunRecord::certified`]). The timing statistics
/// come exclusively from the uninstrumented repetitions, so enabling
/// reports never perturbs the published numbers.
pub fn time_algorithm_with_report(
    algo: Algorithm,
    w: &Workload,
    threads: usize,
    reps: usize,
) -> RunRecord {
    let sample = time_algorithm(algo, w, threads, reps);
    // The telemetry flag and registry are process-global and hold one run
    // at a time, so concurrent callers take turns from the flag save to
    // its restore.
    let _run = report_lock();
    let was_enabled = telemetry::enabled();
    telemetry::set_enabled(true);
    telemetry::begin_run();
    let pool = ThreadPool::new(threads);
    let result = run_algorithm_with_mwe(algo, &w.graph, w.root(), &pool, Some(&w.mwe));
    let certified = match llp_mst::certify::certify_msf_par(&w.graph, &result, &pool) {
        Ok(()) => true,
        Err(err) => {
            eprintln!(
                "warning: {} on {} with {} threads FAILED certification: {err}",
                algo.label(),
                w.name,
                threads
            );
            false
        }
    };
    let report = telemetry::take_report();
    telemetry::set_enabled(was_enabled);
    RunRecord {
        sample,
        telemetry: report,
        certified,
        peak_rss_bytes: telemetry::peak_rss_bytes(),
    }
}

/// Serialises instrumented runs: held from saving the telemetry flag to
/// restoring it, around `begin_run` … `take_report`.
fn report_lock() -> MutexGuard<'static, ()> {
    static REPORT_RUN: Mutex<()> = Mutex::new(());
    // A panicking holder leaves no state behind worth refusing to reuse.
    REPORT_RUN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Renders samples as an aligned text table.
pub fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Writes samples as CSV to `path` (creating parent directories).
pub fn write_csv(path: &std::path::Path, samples: &[Sample]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        "algorithm,workload,threads,median_ms,min_ms,total_weight,heap_pushes,heap_pops,\
         edges_scanned,early_fixes,heap_fixes,rounds,pointer_jumps,\
         cas_retries,atomic_rmw,parallel_regions"
    )?;
    for s in samples {
        writeln!(
            f,
            "{},{},{},{:.3},{:.3},{},{},{},{},{},{},{},{},{},{},{}",
            s.algo.label(),
            s.workload,
            s.threads,
            s.median_ms,
            s.min_ms,
            s.total_weight,
            s.stats.heap_pushes,
            s.stats.heap_pops,
            s.stats.edges_scanned,
            s.stats.early_fixes,
            s.stats.heap_fixes,
            s.stats.rounds,
            s.stats.pointer_jumps,
            s.stats.cas_retries,
            s.stats.atomic_rmw,
            s.stats.parallel_regions,
        )?;
    }
    Ok(())
}

fn stats_json(s: &AlgoStats) -> String {
    format!(
        "{{\"heap_pushes\":{},\"heap_pops\":{},\"edges_scanned\":{},\
         \"early_fixes\":{},\"heap_fixes\":{},\"rounds\":{},\"pointer_jumps\":{},\
         \"cas_retries\":{},\"atomic_rmw\":{},\"parallel_regions\":{}}}",
        s.heap_pushes,
        s.heap_pops,
        s.edges_scanned,
        s.early_fixes,
        s.heap_fixes,
        s.rounds,
        s.pointer_jumps,
        s.cas_retries,
        s.atomic_rmw,
        s.parallel_regions,
    )
}

/// Serialises one record as a JSON object: identity + timing + work
/// metrics + the embedded telemetry report.
pub fn record_json(r: &RunRecord) -> String {
    let s = &r.sample;
    let peak_rss = match r.peak_rss_bytes {
        Some(b) => b.to_string(),
        None => "null".into(),
    };
    let mut out = String::from("{\"algorithm\":\"");
    telemetry::escape_json(s.algo.label(), &mut out);
    out.push_str("\",\"workload\":\"");
    telemetry::escape_json(&s.workload, &mut out);
    out.push_str(&format!(
        "\",\"threads\":{},\
         \"median_ms\":{:.6},\"min_ms\":{:.6},\"total_weight\":{:.6},\
         \"certified\":{},\"peak_rss_bytes\":{},\"stats\":{},\"telemetry\":{}}}",
        s.threads,
        s.median_ms,
        s.min_ms,
        s.total_weight,
        r.certified,
        peak_rss,
        stats_json(&s.stats),
        r.telemetry.to_json(),
    ));
    out
}

/// Writes run records as a structured JSON report to `path` (creating
/// parent directories). Schema:
///
/// ```json
/// {
///   "schema": "llp-mst-run-report/v1",
///   "runs": [
///     {
///       "algorithm": "...", "workload": "...", "threads": 1,
///       "median_ms": 1.5, "min_ms": 1.4, "total_weight": 16.0,
///       "certified": true,
///       "peak_rss_bytes": 20971520,
///       "stats": { "heap_pushes": 0, ... },
///       "telemetry": { "enabled": true, "phases": [...],
///                      "series": [...], "counters": {...} }
///     }
///   ]
/// }
/// ```
pub fn write_json_report(path: &std::path::Path, records: &[RunRecord]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{\"schema\":\"llp-mst-run-report/v1\",\"runs\":[")?;
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 < records.len() { "," } else { "" };
        writeln!(f, "{}{}", record_json(r), sep)?;
    }
    writeln!(f, "]}}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Scale;

    #[test]
    fn time_algorithm_produces_sane_sample() {
        let w = Workload::road(Scale::Small, 1);
        let s = time_algorithm(Algorithm::Kruskal, &w, 1, 2);
        assert!(s.median_ms > 0.0);
        assert!(s.min_ms <= s.median_ms);
        assert!(s.total_weight > 0.0);
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            "demo",
            &["algo", "ms"],
            &[
                vec!["Prim".into(), "1.5".into()],
                vec!["LLP-Prim (1T)".into(), "1.2".into()],
            ],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("LLP-Prim (1T)"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn run_record_captures_telemetry_without_perturbing_timing() {
        let w = Workload::road(Scale::Small, 3);
        // Read the flag under the run lock so a concurrent instrumented
        // run cannot show its temporary state.
        let enabled = || {
            let _run = report_lock();
            llp_runtime::telemetry::enabled()
        };
        let was = enabled();
        let rec = time_algorithm_with_report(Algorithm::LlpPrimSeq, &w, 1, 1);
        // The pre-existing enable state is restored.
        assert_eq!(enabled(), was);
        assert!(rec.sample.median_ms > 0.0);
        assert!(rec.certified, "instrumented run must certify");
        assert!(rec.telemetry.enabled);
        let names: Vec<&str> = rec
            .telemetry
            .phases
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert!(names.contains(&"frontier-wave"), "phases: {names:?}");
        assert!(names.contains(&"q-flush"), "phases: {names:?}");
        assert!(
            rec.telemetry
                .series
                .iter()
                .any(|s| s.name == "frontier-size" && s.count > 0),
            "series: {:?}",
            rec.telemetry.series
        );
    }

    #[test]
    fn json_report_is_structurally_valid() {
        let w = Workload::road(Scale::Small, 4);
        let rec = time_algorithm_with_report(Algorithm::LlpBoruvka, &w, 2, 1);
        let dir = std::env::temp_dir().join("llp-bench-json-test");
        let path = dir.join("report.json");
        write_json_report(&path, &[rec.clone(), rec]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"schema\":\"llp-mst-run-report/v1\""));
        assert!(text.contains("\"certified\":true"));
        assert!(text.contains("\"peak_rss_bytes\":"));
        if cfg!(target_os = "linux") {
            // The gauge is live on Linux: a real byte count, never null.
            assert!(!text.contains("\"peak_rss_bytes\":null"));
        }
        assert!(text.contains("\"stats\":{\"heap_pushes\""));
        assert!(text.contains("\"telemetry\":{\"enabled\""));
        // Balanced braces/brackets outside of strings (no strings here
        // contain braces) — a cheap structural validity check.
        let opens = text.matches(['{', '[']).count();
        let closes = text.matches(['}', ']']).count();
        assert_eq!(opens, closes);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn csv_round_trip_has_header_and_rows() {
        let w = Workload::road(Scale::Small, 2);
        let s = time_algorithm(Algorithm::Kruskal, &w, 1, 1);
        let dir = std::env::temp_dir().join("llp-bench-test");
        let path = dir.join("out.csv");
        write_csv(&path, &[s]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("algorithm,workload"));
        assert_eq!(text.lines().count(), 2);
        let _ = std::fs::remove_dir_all(dir);
    }
}
