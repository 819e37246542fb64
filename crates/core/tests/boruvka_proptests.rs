//! Property-style tests for the Borůvka family on the contraction engine:
//! seed sweeps over adversarial random inputs (disconnected forests,
//! tie-heavy duplicate weights, self-loops and verbatim-duplicate parallel
//! edges) run on 1- and 4-thread pools and cross-checked against
//! `filter_kruskal` and the oracle-free certifier, plus the determinism
//! property of the engine — sequential and parallel runs produce
//! *bit-identical* round traces and forests. Cases are deterministic
//! sweeps over [`llp_runtime::rng::SmallRng`] (hermetic builds cannot
//! depend on `proptest`).

use llp_graph::generators::{barabasi_albert, erdos_renyi, random_geometric};
use llp_graph::{CsrGraph, Edge, GraphBuilder};
use llp_mst::certify::certify_msf_par;
use llp_mst::contraction::Contraction;
use llp_mst::prelude::{boruvka_par, filter_kruskal, llp_boruvka_from_edges};
use llp_mst::{AlgoStats, MstResult};
use llp_runtime::rng::SmallRng;
use llp_runtime::{ParallelForConfig, ThreadPool};

const CASES: u64 = 48;

fn pools() -> [ThreadPool; 2] {
    [ThreadPool::new(1), ThreadPool::new(4)]
}

/// Raw multigraph edge list: self-loops, exact-duplicate parallel edges,
/// and weights quantised to a handful of values so discriminant ties are
/// the common case. Returns `(n, edges)`.
fn adversarial_edges(seed: u64) -> (usize, Vec<Edge>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(2usize..120);
    let m = rng.gen_range(0usize..400);
    let mut edges = Vec::with_capacity(m + m / 4);
    for _ in 0..m {
        let u = rng.gen_range(0u32..n as u32);
        // 1 in 8 edges is a self-loop — the engine must drop them.
        let v = if rng.gen_range(0u32..8) == 0 {
            u
        } else {
            rng.gen_range(0u32..n as u32)
        };
        let w = rng.gen_range(1u32..5) as f64;
        edges.push(Edge { u, v, w });
        // 1 in 4 edges is duplicated verbatim — a parallel edge with the
        // identical weight, separable only by edge identity.
        if rng.gen_range(0u32..4) == 0 {
            edges.push(Edge { u, v, w });
        }
    }
    (n, edges)
}

/// The sanitised CSR view of a raw multigraph (self-loops dropped,
/// parallel edges collapsed to the canonical minimum) — same MSF.
fn sanitised(n: usize, edges: &[Edge]) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    for e in edges {
        b.add_edge(e.u, e.v, e.w);
    }
    b.build()
}

/// Asserts `r` is exactly the oracle's forest and certifies on `g`.
fn assert_matches(g: &CsrGraph, r: &MstResult, oracle: &MstResult, pool: &ThreadPool, what: &str) {
    assert_eq!(r.canonical_keys(), oracle.canonical_keys(), "{what}");
    assert_eq!(r.num_trees, oracle.num_trees, "{what}");
    // Same edges, possibly summed in a different order.
    let tol = 1e-9 * oracle.total_weight.abs().max(1.0);
    assert!((r.total_weight - oracle.total_weight).abs() <= tol, "{what}");
    certify_msf_par(g, r, pool).unwrap_or_else(|e| panic!("{what}: {e:?}"));
}

#[test]
fn boruvka_family_matches_filter_kruskal_on_adversarial_multigraphs() {
    for pool in pools() {
        let t = pool.threads();
        for seed in 0..CASES {
            let (n, edges) = adversarial_edges(seed);
            let g = sanitised(n, &edges);
            let oracle = filter_kruskal(&g);
            // The edge-list entry consumes the raw multigraph; self-loops
            // can never be tree edges and of verbatim duplicates either
            // record has the same canonical key, so the forests must agree
            // exactly.
            let llp = llp_boruvka_from_edges(n, edges, &pool);
            assert_matches(&g, &llp, &oracle, &pool, &format!("llp seed {seed} threads {t}"));
            let par = boruvka_par(&g, &pool);
            assert_matches(&g, &par, &oracle, &pool, &format!("par seed {seed} threads {t}"));
        }
    }
}

#[test]
fn boruvka_family_matches_filter_kruskal_on_disconnected_forests() {
    // m ~ n/2 .. 2n: almost every instance is a forest of many trees, so
    // rounds hit components that finish early and vertices that empty out.
    for pool in pools() {
        let t = pool.threads();
        let mut forests = 0;
        for seed in 0..CASES {
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5f5f);
            let n = rng.gen_range(4usize..400);
            let m = rng.gen_range(n / 2..2 * n);
            let g = erdos_renyi(n, m, seed);
            let oracle = filter_kruskal(&g);
            let llp = llp_boruvka_from_edges(n, g.edges().collect(), &pool);
            assert_matches(&g, &llp, &oracle, &pool, &format!("llp seed {seed} threads {t}"));
            let par = boruvka_par(&g, &pool);
            assert_matches(&g, &par, &oracle, &pool, &format!("par seed {seed} threads {t}"));
            if oracle.num_trees > 1 {
                forests += 1;
            }
        }
        assert!(
            forests * 2 > CASES as usize,
            "sweep lost its point: only {forests}/{CASES} cases were disconnected"
        );
    }
}

#[test]
fn boruvka_family_matches_filter_kruskal_on_generator_families() {
    // Structured families the sweep binary also uses: hub-heavy
    // preferential attachment and (possibly disconnected) geometric
    // graphs — skewed and near-planar degree distributions.
    for pool in pools() {
        let t = pool.threads();
        for seed in 0..6u64 {
            let ba = barabasi_albert(800, 3, seed);
            let rgg = random_geometric(600, (4.0 / 600.0f64).sqrt(), seed);
            for (name, g) in [("ba", &ba), ("rgg", &rgg)] {
                let oracle = filter_kruskal(g);
                let n = g.num_vertices();
                let llp = llp_boruvka_from_edges(n, g.edges().collect(), &pool);
                let what = format!("llp {name} seed {seed} threads {t}");
                assert_matches(g, &llp, &oracle, &pool, &what);
                let par = boruvka_par(g, &pool);
                let what = format!("par {name} seed {seed} threads {t}");
                assert_matches(g, &par, &oracle, &pool, &what);
            }
        }
    }
}

/// `(n_cur, work.len(), chosen.len())` at the top of every round, plus
/// once after the last.
type RoundTrace = Vec<(usize, usize, usize)>;

/// Drives the contraction engine to exhaustion over a raw edge list and
/// returns its round trace with the result.
fn traced_run(n: usize, edges: Vec<Edge>, pool: &ThreadPool) -> (RoundTrace, MstResult) {
    let mut c = Contraction::from_edge_list(n, edges);
    let mut stats = AlgoStats::default();
    let cfg = ParallelForConfig::with_grain(16);
    let mut trace = Vec::new();
    loop {
        trace.push((c.n_cur, c.work.len(), c.chosen.len()));
        if c.is_done() {
            break;
        }
        c.round(pool, cfg, &mut stats);
    }
    c.finish_stats(&mut stats);
    (trace, MstResult::from_edges(n, c.chosen_edges(), stats))
}

#[test]
fn sequential_and_parallel_round_traces_are_bit_identical() {
    // Every MWE cell's winner is the minimum under the total key
    // `(EdgeKey, orig)`, independent of proposal order, so the per-round
    // trace — live vertices, live edges, edges chosen — and the final
    // forest are identical under any thread schedule, not merely
    // weight-equal. The raw multigraph (verbatim duplicates included) is
    // what makes this bite: an EdgeKey-only tie key would let racing
    // cells keep different copies.
    let [seq_pool, par_pool] = pools();
    for seed in 0..24u64 {
        let (n, edges) = adversarial_edges(seed ^ 0xabcd);
        let (seq_trace, seq) = traced_run(n, edges.clone(), &seq_pool);
        let (par_trace, par) = traced_run(n, edges, &par_pool);
        assert_eq!(seq_trace, par_trace, "seed {seed}: round traces diverged");
        assert_eq!(seq.edges.len(), seq_trace.last().unwrap().2, "seed {seed}");
        assert_eq!(
            seq.canonical_keys(),
            par.canonical_keys(),
            "seed {seed}: forests diverged"
        );
        // Bit-identical, not approximately equal: the same edges summed in
        // canonical order on both sides.
        assert_eq!(
            seq.total_weight.to_bits(),
            par.total_weight.to_bits(),
            "seed {seed}: total weights not bit-identical"
        );
        assert_eq!(seq.stats.rounds, par.stats.rounds, "seed {seed}");
    }
}

#[test]
fn round_trace_is_stable_across_repeat_runs() {
    // Same pool, same graph, many runs: the trace is a pure function of
    // the input, so repeats must reproduce it exactly (this is what the
    // chaos matrix perturbs schedules against).
    let pool = ThreadPool::new(4);
    let g = erdos_renyi(1000, 3000, 17);
    let mut first: Option<(RoundTrace, Vec<llp_graph::EdgeKey>)> = None;
    for run in 0..8 {
        let (trace, r) = traced_run(g.num_vertices(), g.edges().collect(), &pool);
        let keys = r.canonical_keys();
        match &first {
            None => first = Some((trace, keys)),
            Some((t0, k0)) => {
                assert_eq!(&trace, t0, "run {run}: trace diverged");
                assert_eq!(&keys, k0, "run {run}: forest diverged");
            }
        }
    }
}
