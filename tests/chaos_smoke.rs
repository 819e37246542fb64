//! Chaos-seeded smoke run across every algorithm in the suite.
//!
//! With the `chaos` feature compiled in (`cargo test --features chaos`)
//! each seed perturbs `parallel_for` chunk claims, broadcast start order
//! and grain choices, so the same assertions explore adversarial
//! schedules; without the feature the seeds are inert and this remains a
//! plain cross-algorithm certification smoke test, cheap enough for
//! tier-1.

use llp_mst_suite::graph::algo::largest_component;
use llp_mst_suite::graph::generators::{erdos_renyi, road_network, RoadParams};
use llp_mst_suite::prelude::*;
use llp_mst_suite::runtime::chaos;

#[test]
fn all_algorithms_certify_under_chaos_seeds() {
    let road = road_network(RoadParams::usa_like(28, 28, 9));
    let er = largest_component(&erdos_renyi(600, 2400, 7));
    let pool = ThreadPool::new(4);
    for seed in [1u64, 2, 3, 4] {
        chaos::set_seed(Some(seed));
        for (gname, g) in [("road", &road), ("er", &er)] {
            let reference = kruskal(g);
            certify_msf(g, &reference)
                .unwrap_or_else(|e| panic!("kruskal on {gname}, seed {seed}: {e}"));
            let keys = reference.canonical_keys();
            let results: Vec<(&str, MstResult)> = vec![
                ("kruskal_par_sort", kruskal_par_sort(g, &pool)),
                ("filter_kruskal", filter_kruskal(g)),
                ("filter_kruskal_par", filter_kruskal_par(g, &pool)),
                // Small base case: partition + filter rounds actually run on
                // the pool under each chaos schedule, not just the base sort.
                (
                    "filter_kruskal_par(base=64)",
                    filter_kruskal_par_with_base_case(g, &pool, 64),
                ),
                ("boruvka_seq", boruvka_seq(g)),
                ("boruvka_par", boruvka_par(g, &pool)),
                ("llp_boruvka", llp_boruvka(g, &pool)),
                // Round-trips through a temp binary file; a shard size
                // forcing several fold rounds under each chaos schedule.
                ("sharded_ooc", sharded_msf_graph(g, g.num_edges() / 5 + 1, &pool)),
                ("prim_lazy", prim_lazy(g, 0).unwrap()),
                ("prim_indexed", prim_indexed(g, 0).unwrap()),
                ("llp_prim_seq", llp_prim_seq(g, 0).unwrap()),
                ("llp_prim_par", llp_prim_par(g, 0, &pool).unwrap()),
            ];
            for (name, r) in &results {
                assert_eq!(
                    r.canonical_keys(),
                    keys,
                    "{name} diverges on {gname} under chaos seed {seed}"
                );
                certify_msf_par(g, r, &pool)
                    .unwrap_or_else(|e| panic!("{name} on {gname}, seed {seed}: {e}"));
            }
        }
        chaos::set_seed(None);
    }
}
