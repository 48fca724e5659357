//! `ksp-serve`: the concurrent query-serving subsystem for KSP-DG.
//!
//! The paper's deployment (Section 6.1) answers k-shortest-path queries *while*
//! traffic updates stream in. The rest of this workspace provides the engine
//! and a measurement cluster for offline batch experiments; this crate provides
//! the serving substrate around them:
//!
//! * [`epoch`] — **epoch-based snapshots**: every applied update batch becomes
//!   an immutable, internally consistent `(DynamicGraph, DtlpIndex)` pair
//!   behind a swap-on-publish generation pointer. Queries never block updates
//!   and never observe a torn graph/index combination. Publication is
//!   **copy-on-write**: consecutive epochs share the graph topology, every
//!   untouched per-subgraph index, the bounding-path shapes of the touched
//!   ones, the skeleton's topology and the auxiliary tables, so staging an
//!   epoch copies the weights the batch reaches, never structure.
//! * [`service`] — the [`QueryService`]: a pool of `num_shards` worker
//!   threads draining **one bounded queue** (reject-with-backpressure
//!   admission control). A worker blocks on the queue's condvar and pops one
//!   request per wake, so no miss waits while a worker idles, however skewed
//!   the workload. `service.rs` holds the service's state, boot and admission
//!   (`submit`); three private submodules hold the rest: `service::shard`,
//!   the worker loop and a queued request's `Reply` callback;
//!   `service::publish`, `apply_batch` with cache retention, the stall
//!   triggers and the background checkpointer; and `service::degraded`, the
//!   read-only mode a failed delta-log append enters and the probe that
//!   lifts it. `QueryService::obs_snapshot` lives next to the counters in
//!   [`metrics`].
//! * [`admission`] — besides the static queue cap, an **SLO-driven adaptive
//!   controller**: it tracks an EWMA of engine-run service times, predicts
//!   an arriving miss's completion as `(backlog per worker + 1) × EWMA`, and
//!   rejects with a typed `Overloaded { retry_after_ms }` when the
//!   prediction breaches the [`ObsConfig::slo_p99`](ksp_obs::ObsConfig)
//!   budget — load is shed *before* it queues, and the retry hint sizes the
//!   client's backoff. Cache hits are answered at admission and always
//!   admitted.
//! * [`cache`] — an **LRU result cache** in `num_shards` stripes keyed by
//!   `(source, target, k)`, with entries stamped by epoch and carrying their
//!   query's subgraph trace ([`QueryTrace`](ksp_core::kspdg::QueryTrace)).
//!   An epoch publish evicts only the entries whose trace intersects the
//!   batch's dirty set; everything else survives, re-stamped to the new
//!   epoch — so under steady small-batch churn the hit rate tracks update
//!   locality instead of collapsing to zero at every publish.
//! * [`metrics`] — lock-free latency histograms (p50/p95/p99), cache hit rate,
//!   retention counters and the queue gauge. All counters are
//!   cumulative-monotonic.
//! * **observability** (via `ksp-obs`) — every request and every epoch
//!   publish carries a [`StageSpan`](ksp_obs::StageSpan) stamped at each
//!   stage boundary (admission → queue → cache → engine → trace_sweep →
//!   reply; stage_index → wal_append → fsync → swap → retention →
//!   checkpoint_encode → checkpoint_commit); the finished chains aggregate
//!   into per-stage histograms that sum exactly to the end-to-end ones. A
//!   lock-free flight recorder
//!   ([`FlightRecorder`](ksp_obs::FlightRecorder)) keeps the last N
//!   structured events (publishes, checkpoints, rejections, hostile
//!   frames, recovery steps) and dumps itself on anomalies (SLO breach,
//!   publish stall). [`QueryService::obs_snapshot`] exports the lot, and
//!   [`QueryService::render_exposition`] renders it in the Prometheus text
//!   format.
//! * [`rpc`] — the **protocol endpoint**: [`QueryService::handle`] dispatches
//!   `ksp-proto`'s typed [`Request`](ksp_proto::Request)s, and the zero-copy
//!   [`InProcTransport`] serves same-process clients.
//! * [`event_loop`] — the **TCP server**, on two threads: one poller thread
//!   drives a level-triggered `epoll` set with non-blocking sockets,
//!   per-connection buffers and partial-frame reassembly and submits each
//!   query to the service: a cache hit is answered inline on the poller, a
//!   miss enters the request queue, and the worker that pops it frames the
//!   reply; one
//!   control thread runs every other request. Floods are answered with the
//!   service's typed rejections instead of occupying threads, malformed or
//!   foreign-version frames with a typed error and a disconnect, and a
//!   thousand idle connections cost file descriptors, not stacks. `epoll`
//!   makes this crate Linux-only.
//!
//! A service can also be **persistent**: started with
//! [`QueryService::start_with_store`], every published batch is appended to
//! `ksp-store`'s fsync-on-commit delta log *before* the epoch becomes
//! visible, and a background thread checkpoints the `(graph, index)` pair
//! every N epochs. After a crash or restart, [`QueryService::open`] loads the
//! newest checkpoint and replays the log instead of paying a full
//! `DtlpIndex::build` — and answers queries byte-identically to the service
//! that went down.
//!
//! # Example
//!
//! ```
//! use ksp_core::dtlp::DtlpConfig;
//! use ksp_graph::VertexId;
//! use ksp_serve::{QueryService, ServiceConfig};
//! use ksp_workload::{RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig, TrafficModel};
//!
//! let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(200))
//!     .generate(7)
//!     .unwrap()
//!     .graph;
//! let service =
//!     QueryService::start(graph.clone(), ServiceConfig::new(2, DtlpConfig::new(20, 2))).unwrap();
//!
//! // Serve a query, publish a traffic epoch, serve again.
//! let target = VertexId(graph.num_vertices() as u32 - 1);
//! let before = service.query(VertexId(0), target, 2).unwrap();
//! assert_eq!(before.epoch, 0);
//! let mut traffic = TrafficModel::new(&graph, TrafficConfig::default(), 1);
//! service.apply_batch(&traffic.next_snapshot()).unwrap();
//! let after = service.query(VertexId(0), target, 2).unwrap();
//! assert_eq!(after.epoch, 1);
//! ```

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("ksp-serve serves over epoll and builds for Linux only");

pub mod admission;
pub mod cache;
pub mod epoch;
pub mod event_loop;
pub mod metrics;
pub mod rpc;
pub mod service;

pub use admission::{AdmissionConfig, QueueFull};
pub use cache::{CacheKey, CacheRetention, ResultCache};
pub use epoch::{EpochPointer, EpochSnapshot};
pub use event_loop::{EventLoopServer, EventLoopStats};
pub use metrics::{LatencyHistogram, MetricsReport, QueueGauge, ServiceMetrics};
pub use rpc::{InProcTransport, ReplicationHook};
pub use service::{
    route_shard, Observability, PublishError, QueryResponse, QueryService, ServiceConfig,
    ServiceError, RECOVERY_STEP_COMPLETED,
};
