//! Workloads and their set-up.
//!
//! Each workload runs every user-visible path (in-RAM solvers, certify,
//! out-of-core, serve, dynamic) so that every end-to-end metric means the
//! same thing on every workload; the workloads differ in the graph family
//! the paper contrasts (Table I): a sparse, large-diameter road network
//! and a dense, scale-free Graph500 graph.
//!
//! Both graphs are fixed datasets per workload, as the paper's graphs are:
//! how hard a generated graph is varies with its generator seed far more
//! than runs vary (Filter-Kruskal took 71–97 ms on six Graph500 s17 seeds,
//! and 73–79 ms in three processes on one; with the dynamic graph drawn
//! from the run's seed, the median epoch moved by 8% between runs). The
//! run's seed generates everything else: the queries and the update
//! batches.

use llp_graph::generators::{rmat, road_network, RmatParams, RoadParams};
use llp_graph::io::{read_binary_file, BinaryFileWriter};
use llp_graph::CsrGraph;
use llp_mst::dynamic::DynamicMsf;
use llp_runtime::ThreadPool;
use llp_serve::service::{BuildTimings, MsfService};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Road,
    Rmat,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Road, Workload::Rmat];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Road => "road",
            Workload::Rmat => "rmat",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes and per-round traffic. [`Sizes::full`] is the benchmark;
/// [`Sizes::smoke`] is a seconds-long run of the same code for tests.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Road grid side of the main graph (`side²` vertices).
    pub road_side: usize,
    /// Road grid side of the dynamic graph.
    pub road_dynamic_side: usize,
    /// Graph500 scale and edge factor of the main graph (giant component).
    pub rmat_scale: u32,
    pub rmat_edge_factor: usize,
    /// Graph500 scale and edge factor of the dynamic graph (whole graph).
    pub rmat_dynamic_scale: u32,
    pub rmat_dynamic_edge_factor: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Time each batch op gets per round, about: an op faster than this
    /// runs `round(op_ms_per_round / warm-up time)` times a round, so short
    /// ops (certify on `rmat` takes ~70 ms) get the samples their noise
    /// needs without lengthening the round for the long ones.
    pub op_ms_per_round: f64,
    /// Batch-1 frames per round.
    pub b1_frames: usize,
    /// Batch-256 frames per round (a round's p99 has 1% of them beyond it).
    pub b256_frames: usize,
    /// Dynamic epochs per round.
    pub epochs_per_round: usize,
    /// Consecutive epochs an epoch-time percentile is taken over (p90 has
    /// a tenth of them beyond it).
    pub epoch_window: usize,
    /// Updates per epoch (half deletes, half inserts).
    pub batch: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            road_side: 700,
            road_dynamic_side: 128,
            rmat_scale: 17,
            rmat_edge_factor: 16,
            rmat_dynamic_scale: 14,
            rmat_dynamic_edge_factor: 8,
            setups: 3,
            op_ms_per_round: 250.0,
            b1_frames: 20_000,
            b256_frames: 8_000,
            epochs_per_round: 50,
            epoch_window: 100,
            batch: 1024,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            road_side: 40,
            road_dynamic_side: 16,
            rmat_scale: 9,
            rmat_edge_factor: 16,
            rmat_dynamic_scale: 8,
            rmat_dynamic_edge_factor: 8,
            setups: 3,
            op_ms_per_round: 0.0,
            b1_frames: 300,
            b256_frames: 30,
            epochs_per_round: 12,
            epoch_window: 12,
            batch: 32,
        }
    }
}

/// Everything one set-up builds.
pub struct Inputs {
    /// The main graph, as read back from its binary file.
    pub graph: CsrGraph,
    /// Size of that file (the out-of-core input).
    pub file_bytes: u64,
    /// Certified service over the main graph.
    pub service: Arc<MsfService>,
    /// Dynamic structure over the (smaller) dynamic graph.
    pub dynamic: DynamicMsf,
}

/// Wall-clock of one set-up, by step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_ms: f64,
    pub largest_component_ms: f64,
    pub write_binary_ms: f64,
    pub read_binary_ms: f64,
    pub service: BuildTimings,
    pub dynamic_ms: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Generator seed of every workload's graphs.
const DATASET_SEED: u64 = 1;

/// Generates the workload's graphs, writes the main graph to `file` and
/// ingests it back (as a user pays for it), builds the certified service
/// and the dynamic structure.
pub fn setup(
    w: Workload,
    sizes: &Sizes,
    file: &Path,
    pool: &ThreadPool,
) -> Result<(Inputs, SetupTimes), String> {
    let start = Instant::now();
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let (generated, dynamic_graph) = match w {
        Workload::Road => (
            road_network(RoadParams::usa_like(
                sizes.road_side,
                sizes.road_side,
                DATASET_SEED,
            )),
            road_network(RoadParams::usa_like(
                sizes.road_dynamic_side,
                sizes.road_dynamic_side,
                DATASET_SEED,
            )),
        ),
        Workload::Rmat => (
            rmat(RmatParams::graph500(
                sizes.rmat_scale,
                sizes.rmat_edge_factor,
                DATASET_SEED,
            )),
            rmat(RmatParams::graph500(
                sizes.rmat_dynamic_scale,
                sizes.rmat_dynamic_edge_factor,
                DATASET_SEED,
            )),
        ),
    };
    times.generate_ms = ms_since(t);

    // The Prim family needs a connected graph, like the paper's "Graph500
    // 18M" subset; the road generator is connected by construction.
    let t = Instant::now();
    let graph = llp_graph::algo::largest_component(&generated);
    drop(generated);
    times.largest_component_ms = ms_since(t);

    let t = Instant::now();
    let mut writer = BinaryFileWriter::create(file, graph.num_vertices())
        .map_err(|e| format!("{}: {e}", file.display()))?;
    let edges: Vec<_> = graph.edges().collect();
    writer
        .write_edges(&edges)
        .map_err(|e| format!("{}: {e}", file.display()))?;
    writer
        .finish()
        .map_err(|e| format!("{}: {e}", file.display()))?;
    drop(edges);
    times.write_binary_ms = ms_since(t);
    let file_bytes = std::fs::metadata(file).map_err(|e| e.to_string())?.len();

    let t = Instant::now();
    let ingested = read_binary_file(file).map_err(|e| format!("{}: {e}", file.display()))?;
    times.read_binary_ms = ms_since(t);
    if ingested != graph {
        return Err("the graph read back from the binary file differs from the one written".into());
    }
    drop(graph);

    let service = MsfService::build(&ingested, pool).map_err(|e| format!("service build: {e}"))?;
    times.service = service.timings;

    let t = Instant::now();
    let dynamic =
        DynamicMsf::new(&dynamic_graph, pool).map_err(|e| format!("dynamic build: {e}"))?;
    times.dynamic_ms = ms_since(t);

    times.total_s = start.elapsed().as_secs_f64();
    Ok((
        Inputs {
            graph: ingested,
            file_bytes,
            service: Arc::new(service),
            dynamic,
        },
        times,
    ))
}
