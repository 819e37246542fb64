//! Chaos-seeded smoke run across every algorithm in the suite.
//!
//! Each seed perturbs `parallel_for` chunk claims, broadcast start order
//! and grain choices, so the same assertions explore adversarial
//! schedules; the whole sweep stays cheap enough for tier-1.

use llp_mst_suite::graph::algo::largest_component;
use llp_mst_suite::graph::generators::{erdos_renyi, road_network, RoadParams};
use llp_mst_suite::prelude::*;
use llp_mst_suite::runtime::chaos;

#[test]
fn all_algorithms_certify_under_chaos_seeds() {
    let _serial = llp_mst_suite::runtime::test_serial_lock();
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
                ("filter_kruskal_par", filter_kruskal_par(g, &pool)),
                // Small base case: partition + filter rounds actually run on
                // the pool under each chaos schedule, not just the base sort.
                (
                    "filter_kruskal_par(base=64)",
                    filter_kruskal_par_with_base_case(g, &pool, 64),
                ),
                ("boruvka_par", boruvka_par(g, &pool)),
                ("llp_boruvka", llp_boruvka(g, &pool)),
                // Round-trips through a temp binary file; a shard size
                // forcing several fold rounds under each chaos schedule.
                ("sharded_ooc", sharded_msf_graph(g, g.num_edges() / 5 + 1, &pool)),
                ("prim_lazy", prim_lazy(g, 0).unwrap()),
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
    }
}
