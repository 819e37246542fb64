//! A tiny-size run of every workload through the real binary: the last
//! line of standard output is the result object, and it carries exactly
//! the metrics `BENCHMARK.json` declares, with their units.

use llp_mst_benchmark::json::{self, Json};
use llp_mst_benchmark::run::{self, Config};
use llp_mst_benchmark::workload::{Sizes, Workload};
use std::process::Command;
use std::time::{Duration, Instant};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses")
}

fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect(key)
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn smoke_runs_emit_exactly_the_declared_metrics() {
    let doc = benchmark_json();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let start = Instant::now();
    for w in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_llp-mst-benchmark"))
                .args([
                    "--workload",
                    w,
                    "--seed",
                    "3",
                    "--seconds",
                    "0",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .output()
                .expect("benchmark binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{w} --trace {trace}: {stderr}");
            let stdout = String::from_utf8(out.stdout).expect("utf-8");
            let last = stdout.lines().last().expect("output");
            let result = json::parse(last).expect("last line is JSON");
            let keys: Vec<&str> = result
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{w}: {stderr}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );

            let metrics = result
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics");
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(got, declared(&doc, key), "{w} --trace {trace}");
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::as_f64);
                assert!(v.is_some_and(f64::is_finite), "{w} {name} = {v:?}");
                if key == "end_to_end" {
                    assert!(v.unwrap() > 0.0, "{w} {name} must never be 0");
                }
            }
        }
    }
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "smoke took {:?}",
        start.elapsed()
    );
}

/// Every traced call's phase self-times plus its unattributed time add
/// up to the call's wall time within 1%.
#[test]
fn traced_self_times_account_for_the_wall_time() {
    for w in Workload::ALL {
        let cfg = Config {
            workload: w,
            seed: 5,
            seconds: 0.0,
            trace: true,
            sizes: Sizes::smoke(),
            work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-work"),
        };
        let outcome = run::run(&cfg).expect("smoke run");
        assert_eq!(outcome.failed, 0, "{:?}", outcome.failures);
        assert!(
            outcome.max_gap_frac <= 0.01,
            "{}: gap {}",
            w.name(),
            outcome.max_gap_frac
        );
        let tracer = outcome.tracer.expect("traced run keeps its spans");
        assert!(tracer
            .spans
            .iter()
            .any(|s| s.name == "llp_boruvka.contract"));
        std::fs::remove_dir_all(&cfg.work_dir).ok();
    }
}
