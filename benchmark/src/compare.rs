//! `compare A.json… -- B.json…`: for every (workload, end-to-end metric)
//! the median and quartiles of each side over its runs, and a verdict
//! under the metric's bound from `BENCHMARK.json`:
//!
//! - `unresolved`: either side's run-to-run spread (interquartile distance
//!   over median) exceeds the bound, unless every B run beats every A run;
//!   `setup_s` is exempt from the spread rule, as in the acceptance check;
//! - `worse`: B's median is worse than A's by more than the bound;
//! - `better`: B wins at least 9 in 10 of the run pairs (A and B files
//!   paired in the order given) and the medians differ by more than A's
//!   interquartile distance;
//! - `same` otherwise.
//!
//! Comparing two sets of runs of one build is the agreement check: every
//! verdict should read `same`. Exit code 1 when any verdict is `worse` or
//! `unresolved`.

use crate::json::{self, Json};
use crate::stats;
use std::collections::BTreeMap;

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// `workload → metric → values`, one value per result file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_runs(paths: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for p in paths {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{p}: {e}"))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{p}: no \"workload\" (write results with --out)"))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or(format!("{p}: no \"metrics\" object"))?;
        let per = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                per.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(runs)
}

fn load_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or(format!("{path}: no end_to_end list"))?;
    list.iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without name")?
                    .into(),
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// The verdict for one metric; `a`/`b` are the two sides' run values.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    higher_is_better: bool,
    bound: f64,
    spread_rule: bool,
) -> &'static str {
    let (a1, am, a3) = stats::quartiles(a);
    let bm = stats::quartiles(b).1;
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread_rule && (stats::spread(a) > bound || stats::spread(b) > bound) {
        return if all_b_better { "better" } else { "unresolved" };
    }
    let worse_by = if higher_is_better {
        (am - bm) / am
    } else {
        (bm - am) / am
    };
    if worse_by > bound {
        return "worse";
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    if pairs > 0 && wins * 10 >= pairs * 9 && (bm - am).abs() > a3 - a1 {
        return "better";
    }
    "same"
}

pub fn main(args: &[String]) -> i32 {
    let mut bench = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json").to_string();
    let (mut a, mut b, mut side_b) = (Vec::new(), Vec::new(), false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--" => side_b = true,
            "--bench" => match it.next() {
                Some(p) => bench = p.clone(),
                None => {
                    eprintln!("--bench needs a path");
                    return 2;
                }
            },
            p if side_b => b.push(p.to_string()),
            p => a.push(p.to_string()),
        }
    }
    if a.is_empty() || b.is_empty() {
        eprintln!("usage: compare A.json... -- B.json... [--bench BENCHMARK.json]");
        return 2;
    }
    let (runs_a, runs_b, bounds) = match (load_runs(&a), load_runs(&b), load_bounds(&bench)) {
        (Ok(x), Ok(y), Ok(z)) => (x, y, z),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };

    println!(
        "{:<9} {:<18} {:>36} {:>36} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "change",
        "sprA",
        "sprB",
        "bound"
    );
    let mut bad = 0;
    for (workload, ma) in &runs_a {
        let Some(mb) = runs_b.get(workload) else {
            println!("{workload:<9} only in A");
            bad += 1;
            continue;
        };
        for m in &bounds {
            let (Some(va), Some(vb)) = (ma.get(&m.name), mb.get(&m.name)) else {
                println!("{workload:<9} {:<18} missing on one side", m.name);
                bad += 1;
                continue;
            };
            let v = verdict(va, vb, m.higher_is_better, m.bound, m.name != "setup_s");
            if matches!(v, "worse" | "unresolved") {
                bad += 1;
            }
            let (qa, qb) = (stats::quartiles(va), stats::quartiles(vb));
            let side = |q: (f64, f64, f64)| format!("{:.4} [{:.4}, {:.4}]", q.1, q.0, q.2);
            println!(
                "{workload:<9} {:<18} {:>36} {:>36} {:>+7.2}% {:>7.4} {:>7.4} {:>6.2}  {v}",
                m.name,
                side(qa),
                side(qb),
                (qb.1 / qa.1 - 1.0) * 100.0,
                stats::spread(va),
                stats::spread(vb),
                m.bound
            );
        }
    }
    for workload in runs_b.keys().filter(|w| !runs_a.contains_key(*w)) {
        println!("{workload:<9} only in B");
        bad += 1;
    }
    println!(
        "{} A runs, {} B runs: {}",
        a.len(),
        b.len(),
        if bad == 0 {
            "no worse or unresolved metric".to_string()
        } else {
            format!("{bad} worse, unresolved or missing")
        }
    );
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let same: Vec<f64> = a.iter().map(|x| x * 1.02).collect();
        assert_eq!(verdict(&a, &same, false, 0.10, true), "same");
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&a, &slower, false, 0.10, true), "worse");
        // Higher is better: the same shift is an improvement.
        assert_eq!(verdict(&a, &slower, true, 0.10, true), "better");
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(&a, &noisy, false, 0.10, true), "unresolved");
        // Without the spread rule (set-up time) only the medians count.
        assert_eq!(verdict(&a, &noisy, false, 0.10, false), "same");
    }
}
