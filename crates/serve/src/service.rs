//! The answer engine: a certified MSF wrapped behind the wire queries.
//!
//! [`MsfService::build`] runs the flat-memory LLP-Borůvka engine over the
//! loaded graph, builds the shared [`PathMaxIndex`], and certifies the
//! forest *against that same index* ([`llp_mst::certify::certify_against`])
//! — so every answer the service ever gives comes from a structure the
//! certifier has already swept the whole graph through.
//!
//! [`MsfService::build_dynamic`] serves the same queries from an
//! [`EpochSnapshot`] that a background updater thread advances: `insert` /
//! `delete` queries enqueue updates, the updater drains them into batches
//! for [`llp_mst::dynamic::DynamicMsf`], and each *certified* epoch is
//! published by swapping one `Arc` — readers never wait on an update, and
//! an epoch that fails certification is never published (the previous
//! snapshot keeps serving and the error is retained for inspection).
//!
//! Each build phase is timed into the service's [`BuildTimings`]. The
//! service adds no telemetry of its own; the solver, index and certifier
//! it calls keep their phase spans.

use crate::protocol::{Query, Response};
use llp_graph::io::{read_binary_file, IoError};
use llp_graph::{CsrGraph, Edge};
use llp_mst::certify::certify_against;
use llp_mst::dynamic::{DynamicError, DynamicMsf};
use llp_mst::index::PathMaxIndex;
use llp_mst::llp_boruvka::llp_boruvka;
use llp_mst::verify::VerifyError;
use llp_runtime::sync::{Condvar, Mutex};
use llp_runtime::ThreadPool;
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock cost of each build phase, for the serve report.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimings {
    /// MSF construction (flat-memory LLP-Borůvka). For dynamic builds
    /// this covers the whole initial epoch (forest + index + certify).
    pub msf_ms: f64,
    /// [`PathMaxIndex`] construction.
    pub index_ms: f64,
    /// Full-graph certification sweep against the index.
    pub certify_ms: f64,
}

/// One certified, immutable epoch: everything a query needs, swapped in
/// atomically (one `Arc` store) when the updater publishes.
pub struct EpochSnapshot {
    /// Epoch number (0 = the initial build).
    pub epoch: u64,
    /// Undirected edges of the graph at this epoch.
    pub m: usize,
    /// Trees in this epoch's certified forest.
    pub num_trees: usize,
    /// Total weight of this epoch's certified forest.
    pub total_weight: f64,
    /// When this snapshot was published (swap instant). `status` reports
    /// its age so a stalled updater is observable from the wire.
    pub published_at: Instant,
    /// The epoch's query index.
    pub index: Arc<PathMaxIndex>,
}

/// Updates waiting for the updater thread, plus its control state.
struct UpdateState {
    inserts: Vec<Edge>,
    deletes: Vec<(u32, u32)>,
    stop: bool,
    last_error: Option<String>,
}

struct Shared {
    current: Mutex<Arc<EpochSnapshot>>,
    update: Mutex<UpdateState>,
    ready: Condvar,
}

/// A certified MSF and its query index, ready to answer traffic.
pub struct MsfService {
    /// Vertices of the served graph.
    pub n: usize,
    /// Undirected edges of the served graph at build time.
    pub m: usize,
    /// Trees in the initially certified forest.
    pub num_trees: usize,
    /// Total weight of the initially certified forest.
    pub total_weight: f64,
    /// How long each build phase took.
    pub timings: BuildTimings,
    /// Whether `insert`/`delete` queries are accepted.
    dynamic: bool,
    shared: Arc<Shared>,
    updater: Option<std::thread::JoinHandle<()>>,
}

impl MsfService {
    /// Builds the MSF with the flat-memory engine, indexes it, and
    /// certifies the result against the index it will serve from.
    /// The graph is static: `insert`/`delete` queries answer `Invalid`.
    pub fn build(graph: &CsrGraph, pool: &ThreadPool) -> Result<MsfService, VerifyError> {
        let n = graph.num_vertices();
        let mut timings = BuildTimings::default();

        let t = Instant::now();
        let msf = llp_boruvka(graph, pool);
        timings.msf_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let index = Arc::new(PathMaxIndex::build_par(n, &msf, pool)?);
        timings.index_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        certify_against(graph, &msf, &index, Some(pool))?;
        timings.certify_ms = t.elapsed().as_secs_f64() * 1e3;

        let snapshot = Arc::new(EpochSnapshot {
            epoch: 0,
            m: graph.num_edges(),
            num_trees: index.num_components(),
            total_weight: msf.total_weight,
            published_at: Instant::now(),
            index,
        });
        Ok(Self::assemble(n, graph.num_edges(), timings, snapshot, None))
    }

    /// Builds a *dynamic* service: the initial epoch comes from
    /// [`DynamicMsf`] (built, indexed, and certified), and a background
    /// updater thread with its own `update_threads`-wide pool applies
    /// queued `insert`/`delete` batches, publishing each certified epoch
    /// as a fresh [`EpochSnapshot`].
    pub fn build_dynamic(
        graph: &CsrGraph,
        pool: &ThreadPool,
        update_threads: usize,
    ) -> Result<MsfService, DynamicError> {
        let n = graph.num_vertices();
        let mut timings = BuildTimings::default();
        let t = Instant::now();
        let dynamic = DynamicMsf::new(graph, pool)?;
        timings.msf_ms = t.elapsed().as_secs_f64() * 1e3;

        let snapshot = Arc::new(snapshot_of(&dynamic));
        let m = graph.num_edges();
        let mut service = Self::assemble(n, m, timings, snapshot, None);
        service.dynamic = true;

        let shared = Arc::clone(&service.shared);
        let threads = update_threads.max(1);
        service.updater = Some(std::thread::spawn(move || {
            updater_loop(dynamic, shared, threads)
        }));
        Ok(service)
    }

    fn assemble(
        n: usize,
        m: usize,
        timings: BuildTimings,
        snapshot: Arc<EpochSnapshot>,
        updater: Option<std::thread::JoinHandle<()>>,
    ) -> MsfService {
        let num_trees = snapshot.num_trees;
        let total_weight = snapshot.total_weight;
        MsfService {
            n,
            m,
            num_trees,
            total_weight,
            timings,
            dynamic: false,
            shared: Arc::new(Shared {
                current: Mutex::new(snapshot),
                update: Mutex::new(UpdateState {
                    inserts: Vec::new(),
                    deletes: Vec::new(),
                    stop: false,
                    last_error: None,
                }),
                ready: Condvar::new(),
            }),
            updater,
        }
    }

    /// The latest certified epoch. Queries answered against one snapshot
    /// are mutually consistent even while updates apply.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.shared.current.lock())
    }

    /// The latest epoch's shared index, for callers that want direct
    /// (non-wire) queries.
    pub fn index(&self) -> Arc<PathMaxIndex> {
        Arc::clone(&self.shared.current.lock().index)
    }

    /// Epoch number currently being served.
    pub fn epoch(&self) -> u64 {
        self.shared.current.lock().epoch
    }

    /// The most recent update-batch failure, if any. A failed batch never
    /// unpublishes the previous certified epoch.
    pub fn last_update_error(&self) -> Option<String> {
        self.shared.update.lock().last_error.clone()
    }

    /// Answers one query against the latest snapshot. Out-of-range vertex
    /// ids get [`Response::Invalid`] rather than a panic — the wire is
    /// untrusted.
    pub fn answer(&self, q: &Query) -> Response {
        self.answer_with(&self.snapshot(), q)
    }

    fn answer_with(&self, snap: &EpochSnapshot, q: &Query) -> Response {
        let ok = |u: u32| (u as usize) < self.n;
        match *q {
            Query::Component(u) if ok(u) => Response::Component(snap.index.component(u)),
            Query::PathMax(u, v) if ok(u) && ok(v) => Response::PathMax(
                snap.index
                    .path_max(u, v)
                    .map(|k| (k.lo(), k.hi(), k.weight())),
            ),
            Query::ConnectedUnder(u, v, l) if ok(u) && ok(v) && l.is_finite() => {
                Response::ConnectedUnder(snap.index.connected_under(u, v, l))
            }
            Query::Info => Response::Info {
                n: self.n as u32,
                trees: snap.num_trees as u32,
                total_weight: snap.total_weight,
            },
            Query::Shutdown => Response::ShuttingDown,
            Query::Insert(u, v, w)
                if self.dynamic && ok(u) && ok(v) && u != v && w.is_finite() =>
            {
                let mut s = self.shared.update.lock();
                s.inserts.push(Edge::new(u, v, w));
                drop(s);
                self.shared.ready.notify_one();
                Response::Accepted
            }
            Query::Delete(u, v) if self.dynamic && ok(u) && ok(v) && u != v => {
                let mut s = self.shared.update.lock();
                s.deletes.push((u, v));
                drop(s);
                self.shared.ready.notify_one();
                Response::Accepted
            }
            Query::Epoch => Response::Epoch {
                epoch: snap.epoch as u32,
                trees: snap.num_trees as u32,
                total_weight: snap.total_weight,
            },
            Query::Status => {
                let (queue_depth, degraded) = {
                    let s = self.shared.update.lock();
                    (s.inserts.len() + s.deletes.len(), s.last_error.is_some())
                };
                Response::Status {
                    epoch: snap.epoch as u32,
                    queue_depth: queue_depth.min(0x7FFF_FFFF) as u32,
                    snapshot_age_s: snap.published_at.elapsed().as_secs_f64(),
                    degraded,
                }
            }
            _ => Response::Invalid,
        }
    }

    /// Answers a batch in order against one consistent snapshot.
    pub fn answer_batch(&self, batch: &[Query]) -> Vec<Response> {
        let snap = self.snapshot();
        batch.iter().map(|q| self.answer_with(&snap, q)).collect()
    }
}

impl Drop for MsfService {
    fn drop(&mut self) {
        if let Some(h) = self.updater.take() {
            self.shared.update.lock().stop = true;
            self.shared.ready.notify_all();
            let _ = h.join();
        }
    }
}

fn snapshot_of(d: &DynamicMsf) -> EpochSnapshot {
    EpochSnapshot {
        epoch: d.epoch(),
        m: d.num_edges(),
        num_trees: d.msf().num_trees,
        total_weight: d.msf().total_weight,
        published_at: Instant::now(),
        index: Arc::clone(d.index()),
    }
}

/// The updater thread: drain queued updates into one batch, apply it as a
/// dynamic epoch (certified inside `apply_batch`), publish the snapshot.
fn updater_loop(mut dynamic: DynamicMsf, shared: Arc<Shared>, threads: usize) {
    let pool = ThreadPool::new(threads);
    loop {
        let (inserts, deletes) = {
            let mut s = shared.update.lock();
            loop {
                if s.stop {
                    return;
                }
                if !s.inserts.is_empty() || !s.deletes.is_empty() {
                    break (
                        std::mem::take(&mut s.inserts),
                        std::mem::take(&mut s.deletes),
                    );
                }
                s = shared.ready.wait(s);
            }
        };
        match dynamic.apply_batch(&inserts, &deletes, &pool) {
            Ok(_report) => {
                *shared.current.lock() = Arc::new(snapshot_of(&dynamic));
            }
            Err(e) => {
                // Should be unreachable: the wire layer validates before
                // enqueueing. Keep serving the last certified epoch.
                shared.update.lock().last_error = Some(e.to_string());
            }
        }
    }
}

/// Loads and validates a binary graph file with the hardened,
/// length-checked file reader, which streams it through the fault
/// injector's `graph.file-read` site.
pub fn load_graph(path: &std::path::Path) -> Result<CsrGraph, IoError> {
    read_binary_file(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llp_mst::prelude::kruskal;

    fn service() -> MsfService {
        let g = llp_graph::generators::erdos_renyi(200, 380, 5);
        let pool = ThreadPool::new(2);
        MsfService::build(&g, &pool).unwrap()
    }

    #[test]
    fn answers_agree_with_direct_index_queries() {
        let g = llp_graph::generators::erdos_renyi(200, 380, 5);
        let svc = service();
        let msf = kruskal(&g);
        assert_eq!(svc.num_trees, msf.num_trees);
        assert!((svc.total_weight - msf.total_weight).abs() < 1e-9);
        for (u, v) in [(0u32, 1u32), (5, 199), (17, 17), (3, 150)] {
            assert_eq!(
                svc.answer(&Query::PathMax(u, v)),
                Response::PathMax(svc.index().path_max(u, v).map(|k| (k.lo(), k.hi(), k.weight())))
            );
            assert_eq!(
                svc.answer(&Query::Component(u)),
                Response::Component(svc.index().component(u))
            );
        }
    }

    #[test]
    fn out_of_range_ids_are_invalid_not_panics() {
        let svc = service();
        assert_eq!(svc.answer(&Query::Component(10_000)), Response::Invalid);
        assert_eq!(svc.answer(&Query::PathMax(0, 10_000)), Response::Invalid);
        assert_eq!(
            svc.answer(&Query::ConnectedUnder(10_000, 0, 1.0)),
            Response::Invalid
        );
    }

    #[test]
    fn info_reports_the_forest() {
        let svc = service();
        match svc.answer(&Query::Info) {
            Response::Info { n, trees, .. } => {
                assert_eq!(n as usize, svc.n);
                assert_eq!(trees as usize, svc.num_trees);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn static_service_rejects_updates_but_answers_epoch() {
        let svc = service();
        assert_eq!(svc.answer(&Query::Insert(0, 1, 1.0)), Response::Invalid);
        assert_eq!(svc.answer(&Query::Delete(0, 1)), Response::Invalid);
        assert_eq!(
            svc.answer(&Query::Epoch),
            Response::Epoch {
                epoch: 0,
                trees: svc.num_trees as u32,
                total_weight: svc.total_weight,
            }
        );
    }

    #[test]
    fn status_reports_health_on_a_static_service() {
        let svc = service();
        match svc.answer(&Query::Status) {
            Response::Status {
                epoch,
                queue_depth,
                snapshot_age_s,
                degraded,
            } => {
                assert_eq!(epoch, 0);
                assert_eq!(queue_depth, 0);
                assert!((0.0..60.0).contains(&snapshot_age_s));
                assert!(!degraded);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dynamic_service_applies_updates_in_the_background() {
        let g = llp_graph::generators::erdos_renyi(100, 160, 9);
        let pool = ThreadPool::new(2);
        let svc = MsfService::build_dynamic(&g, &pool, 2).unwrap();
        assert_eq!(svc.epoch(), 0);

        // Self-loops and out-of-range updates are rejected up front.
        assert_eq!(svc.answer(&Query::Insert(5, 5, 1.0)), Response::Invalid);
        assert_eq!(svc.answer(&Query::Delete(0, 5_000)), Response::Invalid);

        // A valid insert of an edge the graph does not have is queued and
        // eventually certified into an epoch.
        let taken: std::collections::HashSet<(u32, u32)> =
            g.edges().map(|e| e.canonical_endpoints()).collect();
        let v = (1..100u32).find(|&v| !taken.contains(&(0, v))).unwrap();
        assert_eq!(svc.answer(&Query::Insert(0, v, 1e-7)), Response::Accepted);
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while svc.epoch() == 0 {
            assert!(Instant::now() < deadline, "updater never published");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(svc.last_update_error(), None);
        // The inserted edge is so light it must be a tree edge now, and
        // the bottleneck on the direct path is the edge itself.
        assert_eq!(svc.index().component(0), svc.index().component(v));
        match svc.answer(&Query::PathMax(0, v)) {
            Response::PathMax(Some((lo, hi, w))) => {
                assert_eq!((lo, hi), (0, v));
                assert!((w - 1e-7).abs() < 1e-20);
            }
            other => panic!("expected the inserted edge as bottleneck, got {other:?}"),
        }
    }
}
