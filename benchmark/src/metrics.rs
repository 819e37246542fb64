//! The metric catalogue: every name the benchmark reports, its unit and
//! direction, and (for per-layer metrics) the end-to-end metric it should
//! move. `BENCHMARK.json` must list exactly these; a test holds them equal.

/// Which way is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// For a per-layer metric: the end-to-end metric it should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Solver times are medians over the
/// run's repetitions; latency percentiles are nearest-rank within a round,
/// median over rounds.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower),
    e2e("prim_ms", "ms", Lower),
    e2e("llp_prim_ms", "ms", Lower),
    e2e("boruvka_ms", "ms", Lower),
    e2e("llp_boruvka_ms", "ms", Lower),
    e2e("filter_kruskal_ms", "ms", Lower),
    e2e("certify_ms", "ms", Lower),
    e2e("ooc_ms", "ms", Lower),
    e2e("b1_p50_us", "us", Lower),
    e2e("b1_p99_us", "us", Lower),
    e2e("b256_qps", "1/s", Higher),
    e2e("updates_per_s", "1/s", Higher),
    e2e("epoch_p90_ms", "ms", Lower),
    e2e("peak_heap_mb", "MB", Lower),
];

/// Single-layer work, busy time and waste, from the traced run (phase
/// self-times) and from exact counters (`AlgoStats`, `ShardedRun`,
/// `EpochReport`).
pub const PER_LAYER: &[Metric] = &[
    layer("graph.generate_ms", "ms", Lower, "setup_s"),
    layer("graph.largest_component_ms", "ms", Lower, "setup_s"),
    layer("graph.write_binary_ms", "ms", Lower, "setup_s"),
    layer("graph.read_binary_ms", "ms", Lower, "setup_s"),
    layer("prim.edges_scanned", "count", Lower, "prim_ms"),
    layer("prim.heap_ops", "count", Lower, "prim_ms"),
    layer("prim.heap-extract_ms", "ms", Lower, "prim_ms"),
    layer("prim.unattributed_ms", "ms", Lower, "prim_ms"),
    layer("llp_prim.edges_scanned", "count", Lower, "llp_prim_ms"),
    layer("llp_prim.heap_ops", "count", Lower, "llp_prim_ms"),
    layer("llp_prim.early_fix_frac", "frac", Higher, "llp_prim_ms"),
    layer("llp_prim.mwe-compute_ms", "ms", Lower, "llp_prim_ms"),
    layer("llp_prim.frontier-wave_ms", "ms", Lower, "llp_prim_ms"),
    layer("llp_prim.q-flush_ms", "ms", Lower, "llp_prim_ms"),
    layer("llp_prim.heap-extract_ms", "ms", Lower, "llp_prim_ms"),
    layer("llp_prim.unattributed_ms", "ms", Lower, "llp_prim_ms"),
    layer("boruvka.edges_scanned", "count", Lower, "boruvka_ms"),
    layer("boruvka.rounds", "count", Lower, "boruvka_ms"),
    layer("boruvka.atomic_rmw", "count", Lower, "boruvka_ms"),
    layer("boruvka.mwe-compute_ms", "ms", Lower, "boruvka_ms"),
    layer("boruvka.contract_ms", "ms", Lower, "boruvka_ms"),
    layer("boruvka.unattributed_ms", "ms", Lower, "boruvka_ms"),
    layer(
        "llp_boruvka.edges_scanned",
        "count",
        Lower,
        "llp_boruvka_ms",
    ),
    layer("llp_boruvka.rounds", "count", Lower, "llp_boruvka_ms"),
    layer(
        "llp_boruvka.pointer_jumps",
        "count",
        Lower,
        "llp_boruvka_ms",
    ),
    layer("llp_boruvka.mwe-compute_ms", "ms", Lower, "llp_boruvka_ms"),
    layer("llp_boruvka.pointer-jump_ms", "ms", Lower, "llp_boruvka_ms"),
    layer("llp_boruvka.contract_ms", "ms", Lower, "llp_boruvka_ms"),
    layer("llp_boruvka.unattributed_ms", "ms", Lower, "llp_boruvka_ms"),
    layer(
        "filter_kruskal.edges_scanned",
        "count",
        Lower,
        "filter_kruskal_ms",
    ),
    layer("filter_kruskal.rounds", "count", Lower, "filter_kruskal_ms"),
    layer(
        "filter_kruskal.partition_ms",
        "ms",
        Lower,
        "filter_kruskal_ms",
    ),
    layer("filter_kruskal.filter_ms", "ms", Lower, "filter_kruskal_ms"),
    layer(
        "filter_kruskal.unattributed_ms",
        "ms",
        Lower,
        "filter_kruskal_ms",
    ),
    layer("certify.build_ms", "ms", Lower, "certify_ms"),
    layer("certify.query_ms", "ms", Lower, "certify_ms"),
    layer("certify.unattributed_ms", "ms", Lower, "certify_ms"),
    layer("index.build_ms", "ms", Lower, "certify_ms"),
    layer("ooc.candidate_edges", "count", Lower, "ooc_ms"),
    layer("ooc.filtered_frac", "frac", Higher, "ooc_ms"),
    layer("ooc.build_ms", "ms", Lower, "ooc_ms"),
    layer("ooc.certify_ms", "ms", Lower, "ooc_ms"),
    layer("ooc.unattributed_ms", "ms", Lower, "ooc_ms"),
    layer("ooc.stream_mb_per_s", "MB/s", Higher, "ooc_ms"),
    layer("runtime.scratch_high_water_mb", "MB", Lower, "peak_heap_mb"),
    layer("runtime.heap_peak_len", "count", Lower, "peak_heap_mb"),
    layer("service.build_msf_ms", "ms", Lower, "setup_s"),
    layer("service.build_index_ms", "ms", Lower, "setup_s"),
    layer("service.build_certify_ms", "ms", Lower, "setup_s"),
    layer("service.answer_ns_per_query", "ns", Lower, "b256_qps"),
    layer("protocol.encode_ns_per_query", "ns", Lower, "b256_qps"),
    layer("protocol.decode_ns_per_query", "ns", Lower, "b256_qps"),
    layer("server.wire_us_b1", "us", Lower, "b1_p50_us"),
    layer("retry.retries", "count", Lower, "b1_p99_us"),
    layer("dynamic.classify_ms", "ms", Lower, "updates_per_s"),
    layer("dynamic.rebuild_ms", "ms", Lower, "updates_per_s"),
    layer("dynamic.index_ms", "ms", Lower, "updates_per_s"),
    layer("dynamic.certify_ms", "ms", Lower, "updates_per_s"),
    layer("dynamic.unattributed_ms", "ms", Lower, "updates_per_s"),
    layer("dynamic.fast_path_frac", "frac", Higher, "updates_per_s"),
    layer("dynamic.tree_delete_frac", "frac", Lower, "updates_per_s"),
    layer("dynamic.dirty_components", "count", Lower, "updates_per_s"),
    layer("dynamic.rebuild_edges", "count", Lower, "updates_per_s"),
    layer("dynamic.links", "count", Lower, "updates_per_s"),
    layer("trace.overhead_frac", "frac", Lower, ""),
];

/// The catalogue entry for `name`, end-to-end or per-layer.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// A name is 1–64 of `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        let b = name.as_bytes();
        !b.is_empty()
            && b.len() <= 64
            && b[0].is_ascii_alphanumeric()
            && b.iter()
                .all(|c| c.is_ascii_alphanumeric() || b"_.-".contains(c))
    }

    /// A unit is 1–16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|c| c.is_ascii_alphanumeric() || b"_/%.-".contains(&c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        assert!(!valid_name("-x") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn counts_fit_the_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn every_layer_metric_moves_a_declared_end_to_end_metric() {
        for m in PER_LAYER {
            assert!(
                m.moves.is_empty() || END_TO_END.iter().any(|e| e.name == m.moves),
                "{} moves unknown {}",
                m.name,
                m.moves
            );
        }
    }

    /// `BENCHMARK.json` at the repository root declares exactly this
    /// catalogue, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, expect) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(json::Json::as_array).expect(key);
            let names: Vec<&str> = listed
                .iter()
                .map(|m| m.get("name").and_then(json::Json::as_str).expect("name"))
                .collect();
            let want: Vec<&str> = expect.iter().map(|m| m.name).collect();
            assert_eq!(names, want, "{key} names");
            for (m, e) in listed.iter().zip(expect) {
                assert_eq!(
                    m.get("unit").and_then(json::Json::as_str),
                    Some(e.unit),
                    "{}",
                    e.name
                );
                assert_eq!(
                    m.get("better").and_then(json::Json::as_str),
                    Some(e.better.as_str()),
                    "{}",
                    e.name
                );
                if key == "end_to_end" {
                    let bound = m.get("bound").and_then(json::Json::as_f64).expect("bound");
                    assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", e.name);
                }
            }
        }
        let workloads = doc
            .get("workloads")
            .and_then(json::Json::as_array)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(json::Json::as_str).expect("name"))
            .collect();
        let want: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, want);
    }
}
