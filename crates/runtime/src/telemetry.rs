//! Phase-level telemetry: span timers and peak gauges.
//!
//! The paper's speedup claims are *work structure* claims — heap traffic
//! removed by early fixing, synchronization removed by pointer jumping.
//! The exact counts behind them are each algorithm's `AlgoStats`, and the
//! reports a call returns (`ShardedRun`, `EpochReport`, `BuildTimings`)
//! carry the rest. This module records only what those cannot: where the
//! wall-clock time of a call goes, and two high-water marks.
//!
//! * [`span`] — a named phase timer; elapsed time is accumulated per phase
//!   name when the guard drops (`mwe-compute`, `frontier-wave`, `q-flush`,
//!   `heap-extract`, `pointer-jump`, `contract`, ...).
//! * [`record_max`] — a peak gauge that keeps the largest value recorded
//!   under its name (`heap-peak-len`, `scratch-high-water-bytes`).
//!
//! Every name a production call records is read by the benchmark's
//! `--trace 1` or by an `examples/*_phases.rs` tool; `tests/telemetry_readers.rs`
//! keeps it so.
//!
//! # Gating
//!
//! The recorder is always compiled in and gated at run time only: it
//! records while the `LLP_TELEMETRY` environment variable is set to
//! something other than `0`/`false`/empty, or after a harness called
//! [`set_enabled`]`(true)`. When disabled, every call is a single relaxed
//! atomic load and branch, so the benchmark's timings are unaffected.
//!
//! # Collection
//!
//! A harness brackets a run with [`begin_run`] and [`take_report`] and
//! reads the returned [`RunReport`]; [`escape_json`] is there for writers
//! that put its names into JSON (no external serialisation crates are
//! available in hermetic builds).

use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Aggregate timing for one named phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name as passed to [`span`].
    pub name: String,
    /// Number of completed spans.
    pub calls: u64,
    /// Total nanoseconds across all spans.
    pub total_ns: u64,
    /// Shortest single span, ns.
    pub min_ns: u64,
    /// Longest single span, ns.
    pub max_ns: u64,
}

/// The peak of one gauge recorded with [`record_max`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesStat {
    /// Gauge name as passed to [`record_max`].
    pub name: String,
    /// Largest value recorded.
    pub max: u64,
}

/// Snapshot of everything recorded between [`begin_run`] and [`take_report`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Whether recording was enabled when the report was taken.
    pub enabled: bool,
    /// Per-phase timing aggregates, sorted by phase name.
    pub phases: Vec<PhaseStat>,
    /// Peak gauges, sorted by name.
    pub series: Vec<SeriesStat>,
}

/// Appends `s` to `out` as the body of a JSON string: `"` and `\` are
/// backslash-escaped and every control character below U+0020 becomes a
/// `\u00XX` escape, so the result is valid JSON whatever `s` holds.
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

// 0 = read LLP_TELEMETRY on first use, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

#[derive(Default)]
struct PhaseAgg {
    calls: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

#[derive(Default)]
struct Registry {
    phases: BTreeMap<&'static str, PhaseAgg>,
    gauges: BTreeMap<&'static str, u64>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// True when telemetry recording is active.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => init_from_env(),
        1 => false,
        _ => true,
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = match std::env::var("LLP_TELEMETRY") {
        Ok(v) => !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false")),
        Err(_) => false,
    };
    // A `set_enabled` that ran while the variable was read wins.
    let state = if on { 2 } else { 1 };
    match ENABLED.compare_exchange(0, state, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => on,
        Err(won) => won == 2,
    }
}

/// Programmatically enables or disables recording, overriding the
/// `LLP_TELEMETRY` environment gate (harnesses call this).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Guard returned by [`span`]; accumulates elapsed time on drop.
pub struct SpanGuard(Option<(&'static str, Instant)>);

/// Starts a named phase span. Time from this call until the guard drops
/// is accumulated under `name`.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if enabled() {
        SpanGuard(Some((name, Instant::now())))
    } else {
        SpanGuard(None)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, start)) = self.0.take() {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let mut reg = registry().lock();
            let agg = reg.phases.entry(name).or_default();
            if agg.calls == 0 {
                agg.min_ns = ns;
                agg.max_ns = ns;
            } else {
                agg.min_ns = agg.min_ns.min(ns);
                agg.max_ns = agg.max_ns.max(ns);
            }
            agg.calls += 1;
            agg.total_ns += ns;
        }
    }
}

/// Raises the named gauge to `value` if that is above its peak so far.
#[inline]
pub fn record_max(gauge: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    let mut reg = registry().lock();
    let peak = reg.gauges.entry(gauge).or_default();
    *peak = (*peak).max(value);
}

/// Clears all recorded data, starting a fresh measurement window.
pub fn begin_run() {
    let mut reg = registry().lock();
    *reg = Registry::default();
}

/// Snapshots everything recorded since [`begin_run`] and clears it.
pub fn take_report() -> RunReport {
    let mut reg = registry().lock();
    let taken = std::mem::take(&mut *reg);
    drop(reg);
    RunReport {
        enabled: enabled(),
        phases: taken
            .phases
            .into_iter()
            .map(|(name, a)| PhaseStat {
                name: name.to_string(),
                calls: a.calls,
                total_ns: a.total_ns,
                min_ns: a.min_ns,
                max_ns: a.max_ns,
            })
            .collect(),
        series: taken
            .gauges
            .into_iter()
            .map(|(name, max)| SeriesStat {
                name: name.to_string(),
                max,
            })
            .collect(),
    }
}

/// Peak resident set size of this process in bytes, read from the
/// kernel's high-water mark (`VmHWM` in `/proc/self/status`) on Linux;
/// `None` on other platforms or when procfs is unavailable.
///
/// This is a process-lifetime gauge, not a phase measurement: it only
/// ever rises, and it ignores the runtime gate so memory-budget checks
/// (the out-of-core harness gate) work whether or not recording is on.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        parse_vm_hwm_bytes(&status)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Parses the `VmHWM:` line of a `/proc/<pid>/status` dump into bytes.
/// The kernel always reports the value in kB.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn parse_vm_hwm_bytes(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    // The registry is process-global; serialise tests that mutate it.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = serial();
        set_enabled(false);
        begin_run();
        {
            let _s = span("p");
            record_max("v", 10);
        }
        let r = take_report();
        assert!(!r.enabled);
        assert!(r.phases.is_empty());
        assert!(r.series.is_empty());
    }

    #[test]
    fn spans_accumulate_per_name() {
        let _g = serial();
        set_enabled(true);
        begin_run();
        for _ in 0..3 {
            let _s = span("wave");
        }
        {
            let _s = span("flush");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let r = take_report();
        set_enabled(false);
        assert!(r.enabled);
        assert_eq!(r.phases.len(), 2);
        let flush = r.phases.iter().find(|p| p.name == "flush").unwrap();
        assert_eq!(flush.calls, 1);
        assert!(flush.total_ns >= 2_000_000, "slept 2ms, got {}", flush.total_ns);
        assert!(flush.min_ns <= flush.max_ns);
        let wave = r.phases.iter().find(|p| p.name == "wave").unwrap();
        assert_eq!(wave.calls, 3);
        assert!(wave.total_ns >= wave.min_ns);
    }

    #[test]
    fn gauges_keep_their_peak() {
        let _g = serial();
        set_enabled(true);
        begin_run();
        for v in [3u64, 1000, 0, 7] {
            record_max("heap-peak-len", v);
        }
        record_max("scratch-high-water-bytes", 0);
        let r = take_report();
        set_enabled(false);
        assert_eq!(
            r.series,
            vec![
                SeriesStat {
                    name: "heap-peak-len".to_string(),
                    max: 1000
                },
                SeriesStat {
                    name: "scratch-high-water-bytes".to_string(),
                    max: 0
                },
            ]
        );
    }

    #[test]
    fn begin_run_clears_previous_data() {
        let _g = serial();
        set_enabled(true);
        begin_run();
        record_max("x", 1);
        begin_run();
        let r = take_report();
        set_enabled(false);
        assert!(r.series.is_empty());
    }

    #[test]
    fn escape_json_writes_control_characters_as_unicode_escapes() {
        let mut out = String::new();
        escape_json("/tmp/a\tb\n\u{1}\"q\"\\", &mut out);
        assert_eq!(out, "/tmp/a\\u0009b\\u000a\\u0001\\\"q\\\"\\\\");
        assert!(
            out.chars().all(|c| c >= ' '),
            "no raw control character: {out:?}"
        );
    }

    #[test]
    fn parses_vm_hwm_lines() {
        let status = "Name:\tcargo\nVmPeak:\t  123 kB\nVmHWM:\t   20512 kB\nVmRSS:\t 20000 kB\n";
        assert_eq!(parse_vm_hwm_bytes(status), Some(20512 * 1024));
        assert_eq!(parse_vm_hwm_bytes("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_bytes("VmHWM:\tgarbage kB\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_positive_and_monotone() {
        let before = peak_rss_bytes().expect("procfs available");
        assert!(before > 0);
        // Touch a real allocation; the high-water mark can only rise.
        let v = vec![1u8; 4 << 20];
        std::hint::black_box(&v);
        let after = peak_rss_bytes().expect("procfs available");
        assert!(after >= before);
    }
}
