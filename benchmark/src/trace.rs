//! Benchmark-side tracing: spans around every public call of a traced
//! run, kept in memory and written out at exit, and the folding of each
//! call's telemetry phases into child self-times.

use crate::json;
use llp_runtime::telemetry::{self, RunReport};
use std::fmt::Write;
use std::time::Instant;

/// One recorded interval. Folded telemetry phases are children of the
/// call's span with only a self-time (telemetry aggregates per name, so
/// they carry no start or end of their own).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub op: u64,
    pub self_ms: f64,
}

/// A phase an op's telemetry reports: the telemetry span name, the
/// metric suffix it is reported under, and the phase it nests inside.
pub struct Phase {
    pub span: &'static str,
    pub metric: &'static str,
    pub parent: Option<&'static str>,
}

const fn phase(span: &'static str, metric: &'static str, parent: Option<&'static str>) -> Phase {
    Phase {
        span,
        metric,
        parent,
    }
}

/// Phase tree per traced op (metric prefix → phases). Phases not listed
/// nest inside listed ones (index builds inside certify, contraction
/// rounds inside the sharded build), so they never double-count.
pub fn phases(op: &str) -> &'static [Phase] {
    const PRIM: &[Phase] = &[phase("heap-extract", "heap-extract", None)];
    const LLP_PRIM: &[Phase] = &[
        phase("mwe-compute", "mwe-compute", None),
        phase("frontier-wave", "frontier-wave", None),
        phase("q-flush", "q-flush", None),
        phase("heap-extract", "heap-extract", None),
    ];
    const BORUVKA: &[Phase] = &[
        phase("mwe-compute", "mwe-compute", None),
        phase("contract", "contract", None),
    ];
    const LLP_BORUVKA: &[Phase] = &[
        phase("mwe-compute", "mwe-compute", None),
        phase("pointer-jump", "pointer-jump", None),
        phase("contract", "contract", None),
    ];
    const FILTER_KRUSKAL: &[Phase] = &[
        phase("partition", "partition", None),
        phase("filter", "filter", Some("partition")),
    ];
    const CERTIFY: &[Phase] = &[
        phase("certify-build", "build", None),
        phase("certify-query", "query", None),
    ];
    const OOC: &[Phase] = &[
        phase("sharded-build", "build", None),
        phase("sharded-certify", "certify", None),
    ];
    match op {
        "prim" => PRIM,
        "llp_prim" => LLP_PRIM,
        "boruvka" => BORUVKA,
        "llp_boruvka" => LLP_BORUVKA,
        "filter_kruskal" => FILTER_KRUSKAL,
        "certify" => CERTIFY,
        "ooc" => OOC,
        _ => &[],
    }
}

/// Self-times of one traced call.
#[derive(Debug, Clone)]
pub struct Folded {
    /// `(metric suffix, self ms)` for each listed phase.
    pub self_ms: Vec<(&'static str, f64)>,
    /// Wall time no listed top-level phase claims.
    pub unattributed_ms: f64,
    /// |Σ self + unattributed − wall| / wall, counting any negative self
    /// time as a gap: 0 when the phase tree accounts for the wall exactly.
    pub gap_frac: f64,
}

/// Folds `report`'s phases for `op` under a call of `wall_ms`. A phase's
/// self time is its total minus its listed children's totals.
pub fn fold(op: &str, wall_ms: f64, report: &RunReport) -> Folded {
    let total = |span: &str| {
        report
            .phases
            .iter()
            .find(|p| p.name == span)
            .map_or(0.0, |p| p.total_ns as f64 / 1e6)
    };
    let tree = phases(op);
    let mut self_ms = Vec::with_capacity(tree.len());
    let mut negative = 0.0f64;
    for p in tree {
        let children: f64 = tree
            .iter()
            .filter(|c| c.parent == Some(p.span))
            .map(|c| total(c.span))
            .sum();
        let s = total(p.span) - children;
        negative += (-s).max(0.0);
        self_ms.push((p.metric, s));
    }
    let top: f64 = tree
        .iter()
        .filter(|p| p.parent.is_none())
        .map(|p| total(p.span))
        .sum();
    let unattributed_ms = wall_ms - top;
    negative += (-unattributed_ms).max(0.0);
    let sum: f64 = self_ms.iter().map(|(_, s)| s).sum::<f64>() + unattributed_ms;
    let gap_frac = ((sum - wall_ms).abs() + negative) / wall_ms.max(f64::MIN_POSITIVE);
    Folded {
        self_ms,
        unattributed_ms,
        gap_frac,
    }
}

/// Runs `f` with telemetry recording and returns its result, its wall
/// time in ms and the telemetry report of exactly that call.
pub fn traced<R>(f: impl FnOnce() -> R) -> (R, f64, RunReport) {
    telemetry::set_enabled(true);
    telemetry::begin_run();
    let t = Instant::now();
    let r = f();
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let report = telemetry::take_report();
    telemetry::set_enabled(false);
    (r, wall_ms, report)
}

/// In-memory span log of a run.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    next_op: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_op: 0,
        }
    }
}

impl Tracer {
    /// Records a call that ran from `start` for `wall_ms`, and its folded
    /// phases as children sharing the call's op id.
    pub fn record(&mut self, name: &str, start: Instant, wall_ms: f64, folded: Option<&Folded>) {
        let op = self.next_op;
        self.next_op += 1;
        let start_us = start.duration_since(self.epoch).as_secs_f64() * 1e6;
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us,
            end_us: start_us + wall_ms * 1e3,
            parent: None,
            op,
            self_ms: folded.map_or(wall_ms, |f| f.unattributed_ms),
        });
        if let Some(f) = folded {
            for (metric, s) in &f.self_ms {
                self.spans.push(Span {
                    name: format!("{name}.{metric}"),
                    start_us,
                    end_us: start_us,
                    parent: Some(id),
                    op,
                    self_ms: *s,
                });
            }
        }
    }

    /// The span log as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str("{\"id\":");
            let _ = write!(out, "{i},\"name\":");
            json::push_str(&mut out, &s.name);
            out.push_str(",\"start_us\":");
            json::push_num(&mut out, s.start_us);
            out.push_str(",\"end_us\":");
            json::push_num(&mut out, s.end_us);
            match s.parent {
                Some(p) => {
                    let _ = write!(out, ",\"parent\":{p}");
                }
                None => out.push_str(",\"parent\":null"),
            }
            let _ = write!(out, ",\"op\":{},\"self_ms\":", s.op);
            json::push_num(&mut out, s.self_ms);
            out.push('}');
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_runtime::telemetry::PhaseStat;

    fn report(phases: &[(&str, u64)]) -> RunReport {
        RunReport {
            enabled: true,
            phases: phases
                .iter()
                .map(|&(name, ms)| PhaseStat {
                    name: name.to_string(),
                    calls: 1,
                    total_ns: ms * 1_000_000,
                    min_ns: 0,
                    max_ns: 0,
                })
                .collect(),
            ..RunReport::default()
        }
    }

    #[test]
    fn nested_phases_fold_into_self_times() {
        let f = fold(
            "filter_kruskal",
            100.0,
            &report(&[("partition", 80), ("filter", 30)]),
        );
        assert_eq!(f.self_ms, vec![("partition", 50.0), ("filter", 30.0)]);
        assert_eq!(f.unattributed_ms, 20.0);
        assert_eq!(f.gap_frac, 0.0);
    }

    #[test]
    fn unlisted_phases_do_not_count_and_overlap_shows_as_a_gap() {
        // index-build-* nests inside certify-build: not listed, not counted.
        let f = fold(
            "certify",
            10.0,
            &report(&[
                ("certify-build", 4),
                ("index-build-sort", 3),
                ("certify-query", 5),
            ]),
        );
        assert_eq!(f.unattributed_ms, 1.0);
        assert_eq!(f.gap_frac, 0.0);
        // Phases claiming more than the wall leave a negative remainder.
        let f = fold("prim", 10.0, &report(&[("heap-extract", 12)]));
        assert!((f.gap_frac - 0.2).abs() < 1e-12, "{}", f.gap_frac);
    }

    #[test]
    fn spans_serialise_as_json() {
        let mut t = Tracer::default();
        let folded = fold("prim", 5.0, &report(&[("heap-extract", 4)]));
        t.record("prim", Instant::now(), 5.0, Some(&folded));
        let doc = json::parse(&t.to_json()).unwrap();
        let spans = doc.as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[1].get("parent").and_then(json::Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            spans[1].get("name").and_then(json::Json::as_str),
            Some("prim.heap-extract")
        );
    }
}
