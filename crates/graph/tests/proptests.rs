//! Property-style tests for the graph substrate: builders, CSR invariants,
//! generators and I/O round-trips on randomised inputs. Cases are
//! deterministic seed sweeps over [`llp_runtime::rng::SmallRng`] (hermetic
//! builds cannot depend on `proptest`).

use llp_graph::generators::{erdos_renyi, road_network, RoadParams};
use llp_graph::io::{read_binary, read_dimacs, write_binary, write_dimacs, IoError};
use llp_graph::{CsrGraph, Edge, EdgeKey, GraphBuilder};
use llp_runtime::rng::SmallRng;
use llp_runtime::ThreadPool;

const CASES: u64 = 48;

/// Random raw edge triples over `2..max_n` vertices (self-loops included,
/// the builder must reject them).
fn raw_edges(rng: &mut SmallRng, max_n: u32, max_m: usize) -> (u32, Vec<(u32, u32, f64)>) {
    let n = rng.gen_range(2..max_n);
    let m = rng.gen_range(0..max_m);
    let edges = (0..m)
        .map(|_| {
            (
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(0u32..100) as f64,
            )
        })
        .collect();
    (n, edges)
}

fn build(n: u32, raw: &[(u32, u32, f64)]) -> CsrGraph {
    let mut b = GraphBuilder::new(n as usize);
    for &(u, v, w) in raw {
        if u != v {
            b.add_edge(u, v, w);
        }
    }
    b.build()
}

#[test]
fn builder_always_produces_valid_simple_graphs() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (n, raw) = raw_edges(&mut rng, 50, 400);
        let g = build(n, &raw);
        assert!(g.validate().is_ok(), "seed {seed}");
        // Simple graph: no duplicate neighbour entries.
        for v in 0..n {
            let mut ts: Vec<u32> = g.neighbors(v).map(|(t, _)| t).collect();
            let before = ts.len();
            ts.sort_unstable();
            ts.dedup();
            assert_eq!(ts.len(), before, "seed {seed}: vertex {v} has parallel arcs");
        }
    }
}

#[test]
fn builder_keeps_minimum_of_parallel_edges() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (n, raw) = raw_edges(&mut rng, 20, 200);
        let mut best = std::collections::HashMap::new();
        let mut b = GraphBuilder::new(n as usize);
        for &(u, v, w) in &raw {
            if u != v {
                b.add_edge(u, v, w);
                let key = (u.min(v), u.max(v));
                let e = best.entry(key).or_insert(w);
                if w < *e {
                    *e = w;
                }
            }
        }
        let g = b.build();
        assert_eq!(g.num_edges(), best.len(), "seed {seed}");
        for e in g.edges() {
            assert_eq!(e.w, best[&e.canonical_endpoints()], "seed {seed}");
        }
    }
}

#[test]
fn csr_edges_round_trip() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (n, raw) = raw_edges(&mut rng, 40, 300);
        let g = build(n, &raw);
        // edges() -> from_edges reproduces the same graph.
        let edges: Vec<Edge> = g.edges().collect();
        let g2 = CsrGraph::from_edges(n as usize, &edges);
        let mut k1: Vec<EdgeKey> = g.edges().map(|e| e.key()).collect();
        let mut k2: Vec<EdgeKey> = g2.edges().map(|e| e.key()).collect();
        k1.sort_unstable();
        k2.sort_unstable();
        assert_eq!(k1, k2, "seed {seed}");
    }
}

#[test]
fn binary_io_round_trips_any_graph() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (n, raw) = raw_edges(&mut rng, 30, 200);
        let g = build(n, &raw);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(buf.as_slice()).unwrap();
        assert_eq!(g, g2, "seed {seed}");
    }
}

#[test]
fn dimacs_io_round_trips_integer_weights() {
    for seed in 0..CASES {
        // DIMACS prints decimal weights; integers survive exactly.
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(2u32..30);
        let m = rng.gen_range(0usize..150);
        let mut b = GraphBuilder::new(n as usize);
        for _ in 0..m {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                b.add_edge(u, v, rng.gen_range(1..1000) as f64);
            }
        }
        let g = b.build();
        let mut buf = Vec::new();
        write_dimacs(&g, &mut buf).unwrap();
        let g2 = read_dimacs(std::io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(g, g2, "seed {seed}");
    }
}

#[test]
fn edge_key_total_order_is_strict_on_distinct_edges() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (n, raw) = raw_edges(&mut rng, 20, 100);
        let g = build(n, &raw);
        let keys: Vec<EdgeKey> = g.edges().map(|e| e.key()).collect();
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j], "seed {seed}");
            }
        }
    }
}

/// The one MWE scan, `min_arc`, against the definition: its arc is `v`'s
/// arc with the `EdgeKey`-minimum edge, the first such arc among ties, and
/// `min_edge` is its key. Tie-heavy multigraphs: three raw weights (signed
/// zeros among them), parallel edges and verbatim duplicates, built with
/// `CsrGraph::from_edges` so the parallel arcs survive.
#[test]
fn min_arc_gives_the_edge_key_minimum_on_tie_heavy_graphs() {
    const WEIGHTS: [f64; 4] = [-0.0, 0.0, 1.0, 1.0];
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
        let n = rng.gen_range(1u32..40);
        let mut edges = Vec::new();
        for _ in 0..rng.gen_range(0usize..160) {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u == v {
                continue;
            }
            let e = Edge::new(u, v, WEIGHTS[rng.gen_range(0..4u32) as usize]);
            edges.push(e);
            if rng.gen_range(0u32..4) == 0 {
                edges.push(e);
            }
        }
        let g = CsrGraph::from_edges(n as usize, &edges);
        for v in 0..n {
            let key_of = |a: usize| {
                let (to, w) = g.arc(a);
                EdgeKey::new(w, v, to)
            };
            let (lo, hi) = g.arc_range(v);
            let want = (lo..hi).map(key_of).min();
            let got = g.min_arc(v);
            assert_eq!(got.map(key_of), want, "seed {seed}, vertex {v}");
            assert_eq!(g.min_edge(v), want, "seed {seed}, vertex {v}");
            if let Some(a) = got {
                assert!(
                    (lo..hi).contains(&a),
                    "seed {seed}, vertex {v}: foreign arc"
                );
                assert!(
                    (lo..a).all(|b| key_of(b) != key_of(a)),
                    "seed {seed}, vertex {v}: not the first tied arc"
                );
            }
        }
    }
}

#[test]
fn er_generator_is_deterministic_and_valid() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(2usize..200);
        let m = rng.gen_range(0usize..600);
        let a = erdos_renyi(n, m, seed);
        let b = erdos_renyi(n, m, seed);
        assert_eq!(&a, &b, "seed {seed}");
        assert!(a.validate().is_ok(), "seed {seed}");
        assert!(a.num_edges() <= m, "seed {seed}");
    }
}

#[test]
fn road_generator_always_connected() {
    for seed in 0..20 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rows = rng.gen_range(1usize..20);
        let cols = rng.gen_range(1usize..20);
        let g = road_network(RoadParams::usa_like(rows, cols, seed));
        assert_eq!(g.num_vertices(), rows * cols, "seed {seed}");
        assert!(llp_graph::algo::is_connected(&g), "seed {seed}");
    }
}

/// Robustness: the readers must never panic on arbitrary input — they
/// return `Err` for anything malformed.
#[test]
fn readers_never_panic_on_junk() {
    for seed in 0..96 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let len = rng.gen_range(0usize..400);
        let junk: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        let _ = read_dimacs(std::io::BufReader::new(junk.as_slice()));
        let _ = read_binary(junk.as_slice());
    }
    // Well-formed DIMACS lines carrying values the reader must refuse: a
    // NaN or infinite weight, an edge count no allocation can hold, and a
    // vertex count past the `u32` id space.
    for src in [
        "p sp 2 1\na 1 2 NaN\n",
        "p sp 2 1\na 1 2 inf\n",
        "p sp 2 18446744073709551615\n",
        "p sp 4294967298 1\n",
    ] {
        let r = read_dimacs(std::io::BufReader::new(src.as_bytes()));
        assert!(
            matches!(r, Err(IoError::Parse(..))),
            "{src:?} must be rejected, got {r:?}"
        );
    }
}

/// Weights spanning the full non-NaN `f64` range: random bit patterns plus
/// the adversarial corners (signed zeros, subnormals, infinities, extremes).
fn arbitrary_weight(rng: &mut SmallRng) -> f64 {
    const CORNERS: [f64; 10] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324, // smallest subnormal
        f64::MAX,
        f64::MIN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0,
    ];
    if rng.gen_range(0..4) == 0 {
        CORNERS[rng.gen_range(0..CORNERS.len() as u32) as usize]
    } else {
        loop {
            let w = f64::from_bits(rng.gen::<u64>());
            if !w.is_nan() {
                return w;
            }
        }
    }
}

/// The packed-`u64` MWE protocol is order-isomorphic to [`EdgeKey`]: for
/// any batch of distinct-key edges proposed in any order, the cell
/// converges to the `EdgeKey`-minimum edge. This is the proof obligation
/// behind replacing the two-word `AtomicIndexMin` protocol — the high-32
/// weight discriminant decides fast, and the exact-key fallback must agree
/// with `EdgeKey` on every hi32 collision (equal weights, nearby weights
/// sharing high bits, subnormals, infinities). With verbatim-duplicate
/// edges the order needs a record id as well: under `(EdgeKey, id)` the
/// fold over any permutation yields the unique minimum.
#[test]
fn packed_word_order_is_isomorphic_to_edge_key() {
    use llp_runtime::atomics::{mwe_idx, mwe_propose, weight_hi32, MWE_EMPTY};
    use std::sync::atomic::{AtomicU64, Ordering};

    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let batch = rng.gen_range(2u32..12) as usize;
        // Force hi32 collisions in half the cases by reusing one weight.
        let shared = arbitrary_weight(&mut rng);
        let edges: Vec<Edge> = (0..batch)
            .map(|i| {
                let w = if rng.gen_range(0..2) == 0 {
                    shared
                } else {
                    arbitrary_weight(&mut rng)
                };
                // Distinct endpoint pairs => distinct EdgeKeys even on
                // equal weights.
                Edge::new(2 * i as u32, 2 * i as u32 + 1, w)
            })
            .collect();
        let keys: Vec<EdgeKey> = edges.iter().map(Edge::key).collect();
        let expect = (0..batch).min_by_key(|&i| keys[i]).unwrap();

        // Every pairwise comparison agrees with EdgeKey, both ways.
        for i in 0..batch {
            assert!(
                weight_hi32(edges[i].w) < u32::MAX,
                "seed {seed}: discriminant must stay below the empty word"
            );
            for j in 0..batch {
                if i == j {
                    continue;
                }
                let cell = AtomicU64::new(MWE_EMPTY);
                let exact = |idx: u32| keys[idx as usize];
                mwe_propose(&cell, weight_hi32(edges[i].w), i as u32, exact);
                mwe_propose(&cell, weight_hi32(edges[j].w), j as u32, exact);
                let winner = mwe_idx(cell.load(Ordering::Relaxed)) as usize;
                assert_eq!(
                    winner,
                    if keys[i] < keys[j] { i } else { j },
                    "seed {seed}: pair ({i}, {j})"
                );
            }
        }

        // Whole-batch convergence under a random proposal order.
        let mut order: Vec<u32> = (0..batch as u32).collect();
        rng.shuffle(&mut order);
        let cell = AtomicU64::new(MWE_EMPTY);
        let exact = |idx: u32| keys[idx as usize];
        for &i in &order {
            mwe_propose(&cell, weight_hi32(edges[i as usize].w), i, exact);
        }
        assert_eq!(
            mwe_idx(cell.load(Ordering::Relaxed)) as usize,
            expect,
            "seed {seed}: batch winner"
        );

        // Verbatim duplicates: append copies of random edges, so some
        // candidates tie on the whole EdgeKey. Under the total key
        // `(EdgeKey, id)` the fold over any permutation still lands on the
        // unique minimum — the law that keeps both endpoint cells of a
        // duplicated edge agreeing on one record.
        let mut dup_edges = edges.clone();
        for _ in 0..rng.gen_range(1usize..batch + 1) {
            let copy = dup_edges[rng.gen_range(0..dup_edges.len())];
            dup_edges.push(copy);
        }
        let dup_keys: Vec<(EdgeKey, u32)> =
            dup_edges.iter().enumerate().map(|(i, e)| (e.key(), i as u32)).collect();
        let dup_expect = (0..dup_edges.len()).min_by_key(|&i| dup_keys[i]).unwrap();
        let mut order: Vec<u32> = (0..dup_edges.len() as u32).collect();
        for trial in 0..8 {
            rng.shuffle(&mut order);
            let cell = AtomicU64::new(MWE_EMPTY);
            let exact = |idx: u32| dup_keys[idx as usize];
            for &i in &order {
                mwe_propose(&cell, weight_hi32(dup_edges[i as usize].w), i, exact);
            }
            assert_eq!(
                mwe_idx(cell.load(Ordering::Relaxed)) as usize,
                dup_expect,
                "seed {seed} trial {trial}: duplicate-batch winner"
            );
        }
    }
}

/// Tie-breaking stays deterministic under concurrent proposals and chaos
/// schedules: many threads racing equal-weight proposals into shared cells
/// always converge to the `EdgeKey` minimum, for every chaos seed.
#[test]
fn packed_word_ties_deterministic_under_chaos_seeds() {
    use llp_runtime::atomics::{mwe_idx, mwe_propose, weight_hi32, MWE_EMPTY};
    use llp_runtime::{chaos, parallel_for, ParallelForConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    let _serial = llp_runtime::test_serial_lock();
    let n_cells = 16usize;
    let n_edges = 512usize;
    let mut rng = SmallRng::seed_from_u64(0xfeed);
    // Only 3 distinct weights over 512 edges: ties everywhere.
    let weights = [1.5, 1.5, 2.5];
    let edges: Vec<Edge> = (0..n_edges)
        .map(|_| {
            let w = weights[rng.gen_range(0..3) as usize];
            let u = rng.gen_range(0..64);
            Edge::new(u, u + 1 + rng.gen_range(0..8), w)
        })
        .collect();
    let keys: Vec<EdgeKey> = edges.iter().map(Edge::key).collect();
    let whis: Vec<u32> = edges.iter().map(|e| weight_hi32(e.w)).collect();

    let mut expected: Option<Vec<u64>> = None;
    for chaos_seed in [11u64, 23, 47] {
        chaos::set_seed(Some(chaos_seed));
        let pool = ThreadPool::new(4);
        let cells: Vec<AtomicU64> = (0..n_cells).map(|_| AtomicU64::new(MWE_EMPTY)).collect();
        let cells_ref = &cells;
        let keys_ref = &keys;
        let whis_ref = &whis;
        parallel_for(
            &pool,
            0..n_edges,
            ParallelForConfig::with_grain(8),
            |i| {
                let cell = &cells_ref[i % n_cells];
                mwe_propose(cell, whis_ref[i], i as u32, |idx| keys_ref[idx as usize]);
            },
        );
        let got: Vec<u64> = cells.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        // Every cell holds the EdgeKey-minimum of its residue class.
        for (c, &word) in got.iter().enumerate() {
            let min = (c..n_edges).step_by(n_cells).min_by_key(|&i| keys[i]).unwrap();
            assert_eq!(
                mwe_idx(word) as usize, min,
                "chaos seed {chaos_seed}: cell {c}"
            );
        }
        match &expected {
            None => expected = Some(got),
            Some(prev) => assert_eq!(prev, &got, "chaos seed {chaos_seed} diverged"),
        }
    }
}
