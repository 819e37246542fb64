//! `microbench` — targeted kernels behind the flat-memory contraction
//! engine, runnable standalone (CI smoke: `--quick`).
//!
//! ```text
//! microbench [--quick] [--threads N]
//! ```
//!
//! Groups:
//!
//! * `scratch-arena` — leasing a warm buffer from a [`ScratchArena`]
//!   versus allocating a fresh `Vec` per round (the allocation the arena
//!   removes from every contraction round).
//! * `mwe-word` — the packed single-`u64` MWE propose versus the retired
//!   two-word `AtomicIndexMin` protocol on an identical proposal stream.
//! * `relabel-prim` — the Prim family before/after the cache-aware
//!   relabelings in `llp_graph::transform` (degree-descending on a
//!   hub-heavy RMAT component, BFS order on a road mesh).
//! * `contraction-round` — end-to-end LLP-Boruvka and parallel Boruvka on
//!   the flat-memory engine.
//!
//! `--quick` shrinks inputs and sample counts to a few seconds for CI;
//! without it the groups run at benchmark sizes. `LLP_BENCH_SAMPLES`
//! overrides every group's sample count either way.

use llp_bench::microbench::{black_box, BenchmarkId, Criterion};
use llp_graph::algo::largest_component;
use llp_graph::generators::{erdos_renyi, rmat, road_network, RmatParams, RoadParams};
use llp_graph::transform::{
    permute_vertices, random_permutation, relabel_bfs, relabel_degree_descending,
};
use llp_graph::CsrGraph;
use llp_mst::prelude::{boruvka_par, llp_boruvka, prim_indexed};
use llp_runtime::atomics::{mwe_propose, weight_hi32, AtomicIndexMin, MWE_EMPTY};
use llp_runtime::rng::SmallRng;
use llp_runtime::{atomics, parallel_for, ParallelForConfig, ScratchArena, ThreadPool};
use std::sync::atomic::Ordering;

struct Opts {
    quick: bool,
    threads: usize,
}

fn main() {
    let mut opts = Opts {
        quick: false,
        threads: 4,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => opts.quick = true,
            "--threads" => {
                opts.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--threads needs an integer");
                        std::process::exit(2);
                    })
            }
            other => {
                eprintln!("unknown option {other}; usage: microbench [--quick] [--threads N]");
                std::process::exit(2);
            }
        }
    }
    if cfg!(debug_assertions) {
        eprintln!("warning: debug build; run with --release for meaningful numbers");
    }

    let mut c = Criterion::default();
    scratch_arena(&mut c, &opts);
    mwe_word(&mut c, &opts);
    relabel_prim(&mut c, &opts);
    contraction_round(&mut c, &opts);
}

fn samples(opts: &Opts, full: usize) -> usize {
    if opts.quick {
        3
    } else {
        full
    }
}

/// Warm lease vs fresh allocation, at a contraction-round buffer size.
fn scratch_arena(c: &mut Criterion, opts: &Opts) {
    let n: usize = if opts.quick { 1 << 16 } else { 1 << 22 };
    let pool = ThreadPool::new(opts.threads);
    let cfg = ParallelForConfig::default();
    let mut g = c.benchmark_group("scratch-arena");
    g.sample_size(samples(opts, 20));

    g.bench_with_input(BenchmarkId::new("fresh-vec", n), &n, |b, &n| {
        b.iter(|| {
            let v = vec![MWE_EMPTY; n];
            black_box(v.len())
        })
    });
    let arena = ScratchArena::new();
    // Warm the shelf once so the loop measures steady-state reuse.
    drop(arena.lease_filled::<u64>(&pool, cfg, n, MWE_EMPTY));
    g.bench_with_input(BenchmarkId::new("warm-lease", n), &n, |b, &n| {
        b.iter(|| {
            let v = arena.lease_filled::<u64>(&pool, cfg, n, MWE_EMPTY);
            black_box(v.len())
        })
    });
    g.finish();
}

/// Packed one-word propose vs the retired two-word protocol, identical
/// proposal stream (n cells, 8n proposals, 25% duplicate weights so both
/// protocols hit their tie paths).
fn mwe_word(c: &mut Criterion, opts: &Opts) {
    let n: usize = if opts.quick { 1 << 12 } else { 1 << 16 };
    let m = 8 * n;
    let mut rng = SmallRng::seed_from_u64(9);
    let weights: Vec<f64> = (0..m)
        .map(|_| {
            if rng.gen_range(0..4) == 0 {
                0.5
            } else {
                rng.gen::<f64>()
            }
        })
        .collect();
    let whis: Vec<u32> = weights.iter().map(|&w| weight_hi32(w)).collect();
    let cells: Vec<usize> = (0..m).map(|_| rng.gen_range(0..n as u32) as usize).collect();
    let keys: Vec<(u64, u32)> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| (atomics::f64_to_ordered(w), i as u32))
        .collect();
    let pool = ThreadPool::new(opts.threads);
    let cfg = ParallelForConfig::default();

    let mut g = c.benchmark_group("mwe-word");
    g.sample_size(samples(opts, 20));

    let mut packed = vec![MWE_EMPTY; n];
    g.bench_function("packed-u64", |b| {
        b.iter(|| {
            let cells_ref = &cells;
            let whis_ref = &whis;
            let keys_ref = &keys;
            let slots = atomics::as_atomic_u64(&mut packed);
            parallel_for(&pool, 0..m, cfg, |i| {
                mwe_propose(&slots[cells_ref[i]], whis_ref[i], i as u32, |idx| {
                    keys_ref[idx as usize]
                });
            });
            for s in slots {
                s.store(MWE_EMPTY, Ordering::Relaxed);
            }
        })
    });

    let two_word: Vec<AtomicIndexMin> = (0..n).map(|_| AtomicIndexMin::new()).collect();
    g.bench_function("two-word", |b| {
        b.iter(|| {
            let cells_ref = &cells;
            let keys_ref = &keys;
            let slots = &two_word;
            parallel_for(&pool, 0..m, cfg, |i| {
                slots[cells_ref[i]].propose_min_by(i as u64, |idx| keys_ref[idx as usize]);
            });
            for s in slots {
                s.reset();
            }
        })
    });
    g.finish();
}

/// Prim (indexed heap) before/after the cache-aware relabelings. The
/// `shuffled` row is the realistic starting point — inputs arrive in
/// arbitrary vertex order (our generators happen to emit near-optimal
/// orders already: row-major grids, BFS-ish RMAT components) — and the
/// relabelings are applied to that shuffled graph to show what they
/// recover.
fn relabel_prim(c: &mut Criterion, opts: &Opts) {
    let (rmat_g, road_g): (CsrGraph, CsrGraph) = if opts.quick {
        (
            largest_component(&rmat(RmatParams::graph500(13, 8, 5))),
            road_network(RoadParams::usa_like(60, 60, 5)),
        )
    } else {
        (
            largest_component(&rmat(RmatParams::graph500(17, 8, 5))),
            road_network(RoadParams::usa_like(400, 400, 5)),
        )
    };
    let mut g = c.benchmark_group("relabel-prim");
    g.sample_size(samples(opts, 10));

    for (name, graph) in [("rmat", &rmat_g), ("road", &road_g)] {
        let n = graph.num_vertices();
        let shuffled = permute_vertices(graph, &random_permutation(n, 99));
        let (deg_g, _) = relabel_degree_descending(&shuffled);
        let (bfs_g, _) = relabel_bfs(&shuffled);
        let param = format!("{name}/n={n}");
        g.bench_with_input(BenchmarkId::new("generator-order", &param), graph, |b, gr| {
            b.iter(|| black_box(prim_indexed(gr, 0).expect("connected").total_weight))
        });
        g.bench_with_input(BenchmarkId::new("shuffled", &param), &shuffled, |b, gr| {
            b.iter(|| black_box(prim_indexed(gr, 0).expect("connected").total_weight))
        });
        g.bench_with_input(BenchmarkId::new("degree-desc", &param), &deg_g, |b, gr| {
            b.iter(|| black_box(prim_indexed(gr, 0).expect("connected").total_weight))
        });
        g.bench_with_input(BenchmarkId::new("bfs-order", &param), &bfs_g, |b, gr| {
            b.iter(|| black_box(prim_indexed(gr, 0).expect("connected").total_weight))
        });
    }
    g.finish();
}

/// End-to-end rounds on the flat-memory engine.
fn contraction_round(c: &mut Criterion, opts: &Opts) {
    let graph = if opts.quick {
        largest_component(&erdos_renyi(20_000, 120_000, 11))
    } else {
        largest_component(&rmat(RmatParams::graph500(18, 8, 11)))
    };
    let pool = ThreadPool::new(opts.threads);
    let mut g = c.benchmark_group("contraction-round");
    g.sample_size(samples(opts, 10));
    let param = format!("n={} m={}", graph.num_vertices(), graph.num_edges());

    g.bench_with_input(BenchmarkId::new("llp-boruvka", &param), &graph, |b, gr| {
        b.iter(|| black_box(llp_boruvka(gr, &pool).total_weight))
    });
    g.bench_with_input(BenchmarkId::new("boruvka-par", &param), &graph, |b, gr| {
        b.iter(|| black_box(boruvka_par(gr, &pool).total_weight))
    });
    g.finish();
}
