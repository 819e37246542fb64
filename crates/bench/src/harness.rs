//! One exact, certified run per record, and table/JSON output.

use crate::algorithms::{run_algorithm, Algorithm};
use crate::workloads::Workload;
use llp_mst::AlgoStats;
use llp_runtime::{telemetry, ThreadPool};
use std::io::Write;

/// One algorithm's run on one workload: its work counters and whether
/// its output certified.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Algorithm run.
    pub algo: Algorithm,
    /// Workload name.
    pub workload: String,
    /// Total weight (sanity echo; all algorithms must agree).
    pub total_weight: f64,
    /// Whether the output passed the oracle-free near-linear MSF
    /// certifier ([`llp_mst::certify::certify_msf_par`]).
    pub certified: bool,
    /// Work metrics of the run.
    pub stats: AlgoStats,
}

/// Runs `algo` once on a workload with `pool` and certifies its output.
/// On a one-thread pool every counter in [`RunRecord::stats`] is exact:
/// the same inputs give the same record.
pub fn run_record(algo: Algorithm, w: &Workload, pool: &ThreadPool) -> RunRecord {
    let result = run_algorithm(algo, &w.graph, w.root(), pool);
    let certified = match llp_mst::certify::certify_msf_par(&w.graph, &result, pool) {
        Ok(()) => true,
        Err(err) => {
            eprintln!(
                "warning: {} on {} FAILED certification: {err}",
                algo.label(),
                w.name
            );
            false
        }
    };
    RunRecord {
        algo,
        workload: w.name.clone(),
        total_weight: result.total_weight,
        certified,
        stats: result.stats,
    }
}

/// Renders rows as an aligned text table.
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

/// Serialises one record as a JSON object: identity, total weight,
/// certificate and work metrics.
fn record_json(r: &RunRecord) -> String {
    let mut out = String::from("{\"algorithm\":\"");
    telemetry::escape_json(r.algo.label(), &mut out);
    out.push_str("\",\"workload\":\"");
    telemetry::escape_json(&r.workload, &mut out);
    out.push_str(&format!(
        "\",\"total_weight\":{:.6},\"certified\":{},\"stats\":{}}}",
        r.total_weight,
        r.certified,
        stats_json(&r.stats),
    ));
    out
}

/// Writes run records as a structured JSON report to `path` (creating
/// parent directories). Schema:
///
/// ```json
/// {
///   "schema": "llp-mst-run-report/v2",
///   "runs": [
///     {
///       "algorithm": "...", "workload": "...", "total_weight": 16.0,
///       "certified": true,
///       "stats": { "heap_pushes": 0, ... }
///     }
///   ]
/// }
/// ```
pub fn write_json_report(path: &std::path::Path, records: &[RunRecord]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{{\"schema\":\"llp-mst-run-report/v2\",\"runs\":[")?;
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 < records.len() { "," } else { "" };
        writeln!(f, "{}{}", record_json(r), sep)?;
    }
    writeln!(f, "]}}")?;
    // Dropping a `BufWriter` discards a failed final write.
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Scale;

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
    fn json_report_is_structurally_valid() {
        let w = Workload::road(Scale::Small, 4);
        let rec = run_record(Algorithm::LlpBoruvka, &w, &ThreadPool::new(1));
        let dir = std::env::temp_dir().join(format!("llp-bench-json-{}", std::process::id()));
        let path = dir.join("report.json");
        write_json_report(&path, &[rec.clone(), rec]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"schema\":\"llp-mst-run-report/v2\""));
        assert!(text.contains("\"certified\":true"));
        assert!(text.contains("\"stats\":{\"heap_pushes\""));
        // Balanced braces/brackets outside of strings (no strings here
        // contain braces) — a cheap structural validity check.
        let opens = text.matches(['{', '[']).count();
        let closes = text.matches(['}', ']']).count();
        assert_eq!(opens, closes);
        let _ = std::fs::remove_dir_all(dir);
    }
}
