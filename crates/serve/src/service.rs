//! The concurrent query service: shard workers over epoch snapshots.
//!
//! [`QueryService`] owns the master `(DynamicGraph, DtlpIndex)` pair and serves
//! `(source, target, k)` requests from a pool of shard worker threads:
//!
//! * **One queue.** Every miss enters one bounded queue, and all
//!   `num_shards` workers drain it: a worker blocks on the queue's condvar
//!   and pops one request per wake, so no request waits while a worker idles.
//! * **Epoch consistency.** A worker loads the current [`EpochSnapshot`] once
//!   per request; graph and index come from the same atomic pointer read, so a
//!   query can never observe a torn (graph, index) pair even while
//!   [`QueryService::apply_batch`] publishes new epochs concurrently.
//! * **Admission control.** The queue is bounded; a full queue rejects the
//!   request immediately with [`ServiceError::Overloaded`] instead of letting
//!   latency grow without bound.
//! * **Caching.** Results are cached in `num_shards` stripes, stamped with
//!   the epoch they are exact for and carrying the query's subgraph trace. A
//!   request is hashed by its full identity to its home stripe
//!   ([`route_shard`]); the lookup at admission and the insert after an
//!   engine run both use that stripe, whichever worker ran it, so a repeat
//!   always finds the answer. A current entry is answered at admission, on
//!   the submitting thread, without entering the queue. Publishing an epoch
//!   evicts only the entries whose trace intersects the batch's dirty set
//!   ([`ksp_core::kspdg::QueryTrace`]); everything else is re-stamped to the
//!   new epoch — the read path's analogue of maintenance cost scaling with
//!   what changed, not with index size.

mod degraded;
mod publish;
mod shard;

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionVerdict, BoundedQueue};
use crate::cache::{CacheKey, ResultCache};
use crate::epoch::{EpochPointer, EpochSnapshot};
use crate::metrics::{MetricsReport, QueueGauge, ServiceMetrics};
use degraded::{degraded_probe_main, DegradedHealth};
use ksp_algo::Path;
use ksp_core::dtlp::{DtlpConfig, DtlpIndex};
use ksp_core::kspdg::QueryStats;
use ksp_graph::{DynamicGraph, GraphError, VertexId};
use ksp_obs::{EventKind, FlightRecorder, ObsConfig, SpanChain, Stage, StageSpan};
use ksp_store::{RecoveryReport, StorageIo, Store, StoreConfig, StoreError};
use publish::{checkpointer_main, CheckpointJob};
pub(crate) use shard::Reply;
use shard::{answer, shard_main, Request, WorkerContext};
use std::path::Path as FsPath;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`QueryService`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Number of shard worker threads, which all drain the one request
    /// queue, and of result-cache stripes.
    pub num_shards: usize,
    /// Capacity of each cache stripe, in entries.
    pub cache_capacity: usize,
    /// Admission control for the request queue. The adaptive controller's
    /// latency budget is [`ObsConfig::slo_p99`]; a zero SLO leaves only the
    /// static queue cap.
    pub admission: AdmissionConfig,
    /// DTLP index configuration (subgraph size `z`, bounding paths `ξ`).
    pub dtlp: DtlpConfig,
    /// Observability: per-request span recording and the SLO trigger.
    /// Per-request instrumentation can be switched off
    /// ([`ObsConfig::disabled`]) for a benchmark baseline; service-level
    /// events (publishes, checkpoints, recovery) are always recorded.
    pub observability: ObsConfig,
}

impl ServiceConfig {
    /// A configuration with the given shard count and DTLP settings, defaults
    /// elsewhere.
    pub fn new(num_shards: usize, dtlp: DtlpConfig) -> Self {
        ServiceConfig {
            num_shards,
            cache_capacity: 4096,
            admission: AdmissionConfig::default(),
            dtlp,
            observability: ObsConfig::default(),
        }
    }

    fn validate(&self) {
        assert!(self.num_shards >= 1, "a service needs at least one shard");
        assert!(self.cache_capacity >= 1, "cache capacity must be at least 1");
        self.admission.validate();
    }
}

/// Why the service could not answer a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// Admission control rejected the request: either the request queue is
    /// at its configured depth, or the adaptive controller predicted
    /// the queueing delay would breach the SLO budget. Retry later.
    Overloaded {
        /// The queue depth observed at rejection time.
        depth: usize,
        /// Suggested backoff before retrying, in milliseconds; `0` when the
        /// service has no service-time signal yet to derive one from.
        retry_after_ms: u64,
    },
    /// The service is shutting down and dropped the request.
    ShuttingDown,
    /// A query endpoint does not exist in the current graph.
    InvalidQuery(GraphError),
    /// `k` must be at least 1.
    InvalidK,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { depth, retry_after_ms: 0 } => {
                write!(f, "request queue full (depth {depth}); request rejected")
            }
            ServiceError::Overloaded { depth, retry_after_ms } => {
                write!(
                    f,
                    "admission rejected (queue depth {depth}); retry after {retry_after_ms} ms"
                )
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::InvalidQuery(e) => write!(f, "invalid query: {e}"),
            ServiceError::InvalidK => write!(f, "k must be at least 1"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Why publishing an epoch failed.
///
/// A publish can be rejected by the data layer (an invalid batch — see
/// [`QueryService::apply_batch`]'s staging contract) or, for a persistent
/// service, by the storage layer (the batch could not be made durable). In
/// both cases nothing is published: readers keep the previous epoch.
#[derive(Debug)]
pub enum PublishError {
    /// The batch is invalid for the current graph/index (e.g. an out-of-range
    /// edge id).
    Graph(GraphError),
    /// The batch could not be appended to the durable delta log.
    Store(StoreError),
    /// The service is in read-only degraded mode: a delta-log append failed,
    /// so writes are refused while queries keep serving the last published
    /// epoch. A background probe retries the log with capped exponential
    /// backoff and lifts the degradation once an append can succeed again.
    Degraded(String),
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::Graph(e) => write!(f, "invalid update batch: {e}"),
            PublishError::Store(e) => write!(f, "batch could not be made durable: {e}"),
            PublishError::Degraded(reason) => {
                write!(f, "service degraded (read-only): {reason}")
            }
        }
    }
}

impl std::error::Error for PublishError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PublishError::Graph(e) => Some(e),
            PublishError::Store(e) => Some(e),
            PublishError::Degraded(_) => None,
        }
    }
}

impl From<GraphError> for PublishError {
    fn from(e: GraphError) -> Self {
        PublishError::Graph(e)
    }
}

impl From<StoreError> for PublishError {
    fn from(e: StoreError) -> Self {
        PublishError::Store(e)
    }
}

/// The answer to one request.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The k shortest paths, ascending by distance.
    pub paths: Vec<Path>,
    /// Engine statistics (zeroed for cache hits — no engine work was done).
    pub stats: QueryStats,
    /// The epoch the answer is exact for.
    pub epoch: u64,
    /// Whether the answer came from the result cache.
    pub cache_hit: bool,
    /// End-to-end latency: submission to completion, including queueing.
    pub latency: Duration,
}

/// Step code the recovery-completed flight event uses, extending the per-step
/// codes of [`ksp_store::RecoveryReport::steps`] (payload: recovery duration
/// in microseconds).
pub const RECOVERY_STEP_COMPLETED: u64 = 5;

/// Capacity of the flight-recorder ring, in events.
const FLIGHT_CAPACITY: usize = 256;

/// The shared observability runtime of one service: the configuration plus
/// the flight recorder every instrumentation point records into.
#[derive(Debug)]
pub struct Observability {
    config: ObsConfig,
    flight: FlightRecorder,
}

impl Observability {
    fn new(config: ObsConfig) -> Self {
        Observability { config, flight: FlightRecorder::new(FLIGHT_CAPACITY) }
    }

    /// The observability configuration the service was started with.
    pub fn config(&self) -> ObsConfig {
        self.config
    }

    /// The service's flight recorder.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Records a flight event — a no-op when observability is disabled, so
    /// instrumentation points cost one branch on the disabled path.
    pub fn record(&self, kind: EventKind, a: u64, b: u64, c: u64) {
        if self.config.enabled {
            self.flight.record(kind, a, b, c);
        }
    }

    /// Records an anomaly cause and captures a flight dump; a no-op when
    /// observability is disabled.
    pub fn trigger(&self, kind: EventKind, a: u64, b: u64, c: u64, span: Option<SpanChain<Stage>>) {
        self.trigger_traced(kind, a, b, c, span, 0);
    }

    /// [`Observability::trigger`] carrying the offending request's trace id,
    /// so the dump can be resolved back to the client that sent it.
    pub fn trigger_traced(
        &self,
        kind: EventKind,
        a: u64,
        b: u64,
        c: u64,
        span: Option<SpanChain<Stage>>,
        trace_id: u64,
    ) {
        if self.config.enabled {
            self.flight.trigger_traced(kind, a, b, c, span, trace_id);
        }
    }
}

/// The one request queue and the result-cache stripes, shared by the
/// service and every shard worker.
struct Pool {
    queue: BoundedQueue<Request>,
    /// Workers still running; the last one out closes and drains the queue
    /// (see [`CloseQueueOnExit`](shard::CloseQueueOnExit)).
    live_workers: AtomicUsize,
    /// One result cache per stripe, indexed by a request's [`route_shard`].
    caches: Vec<Mutex<ResultCache>>,
}

/// Masters owned by the updater path; workers never touch these. Held as
/// `Arc`s so committing a staged update and publishing the epoch share the
/// same allocation.
struct Masters {
    graph: Arc<DynamicGraph>,
    index: Arc<DtlpIndex>,
}

/// The durable side of a persistent service.
struct Persistence {
    /// Shared with the background checkpointer; the publish path holds it
    /// only for the append, the checkpointer only for the commit.
    store: Arc<Mutex<Store>>,
    store_config: StoreConfig,
    /// The store directory, kept outside the lock so checkpoint images can
    /// be staged (written + fsynced) without blocking the publish path.
    dir: std::path::PathBuf,
    /// The store's I/O backend, captured at boot so checkpoint images are
    /// staged through the same (possibly fault-injected) backend the WAL
    /// writes through.
    io: Arc<dyn StorageIo>,
    /// Dropped first on shutdown so the checkpointer's `recv` ends.
    jobs: Option<mpsc::Sender<CheckpointJob>>,
    checkpointer: Option<JoinHandle<()>>,
    /// Wakes the degraded-mode probe immediately when degradation is entered
    /// (it otherwise blocks, costing nothing while healthy). Dropped on
    /// shutdown so the probe's `recv` ends.
    probe_wake: Option<mpsc::Sender<()>>,
    probe_stop: Arc<AtomicBool>,
    probe: Option<JoinHandle<()>>,
}

/// A concurrent KSP query service over a dynamic road network.
pub struct QueryService {
    config: ServiceConfig,
    pool: Arc<Pool>,
    workers: Vec<JoinHandle<()>>,
    epoch: Arc<EpochPointer>,
    pub(crate) metrics: Arc<ServiceMetrics>,
    pub(crate) obs: Arc<Observability>,
    pub(crate) admission: Arc<AdmissionController>,
    masters: Mutex<Masters>,
    persistence: Option<Persistence>,
    /// Read-only degraded mode (see [`PublishError::Degraded`]); always
    /// healthy for an in-memory service.
    pub(crate) degraded: Arc<DegradedHealth>,
    /// Replication endpoint (`ksp-repl`'s leader-side source), registered
    /// after construction via [`QueryService::set_replication_hook`]. Behind
    /// an `RwLock` because every request dispatch reads it and registration
    /// writes it exactly once.
    replication: RwLock<Option<Arc<dyn crate::rpc::ReplicationHook>>>,
}

impl QueryService {
    /// Builds the DTLP index for `graph`, publishes epoch 0 and starts the
    /// shard workers. Purely in-memory: a restart rebuilds from scratch and a
    /// crash loses applied batches — see [`QueryService::start_with_store`]
    /// for the durable variant.
    pub fn start(graph: DynamicGraph, config: ServiceConfig) -> Result<Self, GraphError> {
        config.validate();
        let index = Arc::new(DtlpIndex::build(&graph, config.dtlp)?);
        let graph = Arc::new(graph);
        Ok(Self::boot(graph, index, config, None))
    }

    /// Like [`QueryService::start`], but also initialises a durable store in
    /// `dir`: the freshly built index is checkpointed, every published batch
    /// is appended to the delta log before it becomes visible, and a
    /// background thread re-checkpoints every
    /// [`StoreConfig::checkpoint_interval`] epochs so the log stays bounded.
    ///
    /// Fails if `dir` already contains a store — recover it with
    /// [`QueryService::open`] instead of overwriting it.
    pub fn start_with_store(
        graph: DynamicGraph,
        config: ServiceConfig,
        dir: &FsPath,
        store_config: StoreConfig,
    ) -> Result<Self, PublishError> {
        Self::start_with_store_io(graph, config, dir, store_config, ksp_store::default_io())
    }

    /// [`QueryService::start_with_store`] with an explicit storage I/O
    /// backend — the fault-injection seam: a [`ksp_store::FaultyIo`] here
    /// drives every WAL append, fsync and checkpoint image the service
    /// writes through a deterministic fault plan.
    pub fn start_with_store_io(
        graph: DynamicGraph,
        config: ServiceConfig,
        dir: &FsPath,
        store_config: StoreConfig,
        io: Arc<dyn StorageIo>,
    ) -> Result<Self, PublishError> {
        config.validate();
        // Probe before the index build: an occupied directory must fail in
        // microseconds, not after minutes of DtlpIndex::build.
        if Store::exists(dir).map_err(PublishError::Store)? {
            return Err(PublishError::Store(StoreError::Corrupt {
                path: dir.to_path_buf(),
                detail: "directory already contains a store (recover it with QueryService::open)"
                    .to_string(),
            }));
        }
        let index = Arc::new(DtlpIndex::build(&graph, config.dtlp).map_err(PublishError::Graph)?);
        let graph = Arc::new(graph);
        let store = Store::create_with_io(dir, store_config, graph.version(), &graph, &index, io)
            .map_err(PublishError::Store)?;
        Ok(Self::boot(graph, index, config, Some(store)))
    }

    /// Starts a service from the store in `dir` without rebuilding the index:
    /// loads the newest valid checkpoint, replays the delta log (truncating a
    /// torn tail left by a crash), and serves from the recovered epoch. The
    /// recovered service continues logging and checkpointing into the same
    /// directory.
    ///
    /// `config.dtlp` is replaced by the configuration the recovered index was
    /// built with, so queries behave exactly as they did before the restart.
    pub fn open(
        dir: &FsPath,
        config: ServiceConfig,
        store_config: StoreConfig,
    ) -> Result<(Self, RecoveryReport), PublishError> {
        Self::open_with_io(dir, config, store_config, ksp_store::default_io())
    }

    /// [`QueryService::open`] with an explicit storage I/O backend (see
    /// [`QueryService::start_with_store_io`]).
    pub fn open_with_io(
        dir: &FsPath,
        mut config: ServiceConfig,
        store_config: StoreConfig,
        io: Arc<dyn StorageIo>,
    ) -> Result<(Self, RecoveryReport), PublishError> {
        let (store, recovered) =
            Store::recover_with_io(dir, store_config, io).map_err(PublishError::Store)?;
        config.dtlp = *recovered.index.config();
        config.validate();
        let report = recovered.report;
        let graph = Arc::new(recovered.graph);
        let index = Arc::new(recovered.index);
        let service = Self::boot(graph, index, config, Some(store));
        // Recovery is an anomaly trigger: replay the trajectory into the
        // flight recorder and dump, so the first post-restart scrape shows
        // what recovery did even if nothing else ever goes wrong.
        for (_, code, value) in report.steps() {
            service.obs.record(EventKind::RecoveryStep, code, value, 0);
        }
        service.obs.trigger(
            EventKind::RecoveryStep,
            RECOVERY_STEP_COMPLETED,
            report.duration.as_micros().min(u64::MAX as u128) as u64,
            0,
            None,
        );
        Ok((service, report))
    }

    /// Publishes the initial epoch, starts the shard workers and (when a
    /// store is given) the background checkpointer.
    fn boot(
        graph: Arc<DynamicGraph>,
        index: Arc<DtlpIndex>,
        config: ServiceConfig,
        store: Option<Store>,
    ) -> Self {
        let initial = EpochSnapshot::new(graph.version(), graph.clone(), index.clone());
        let epoch = Arc::new(EpochPointer::new(initial));
        let metrics = Arc::new(ServiceMetrics::default());
        let obs = Arc::new(Observability::new(config.observability));
        // The adaptive controller's budget is the SLO itself: a request
        // predicted to finish within `slo_p99` is admitted, one predicted to
        // breach it is rejected up front. A zero SLO leaves only the static
        // queue cap.
        let admission = Arc::new(AdmissionController::new(config.observability.slo_p99));

        let pool = Arc::new(Pool {
            queue: BoundedQueue::new(config.admission.max_queue_depth),
            live_workers: AtomicUsize::new(config.num_shards),
            caches: (0..config.num_shards)
                .map(|_| Mutex::new(ResultCache::new(config.cache_capacity)))
                .collect(),
        });
        let workers = (0..config.num_shards)
            .map(|shard_id| {
                std::thread::Builder::new()
                    .name(format!("ksp-serve-shard-{shard_id}"))
                    .spawn({
                        let pool = pool.clone();
                        let epoch = epoch.clone();
                        let metrics = metrics.clone();
                        let obs = obs.clone();
                        let admission = admission.clone();
                        move || {
                            let ctx = WorkerContext {
                                pool: &pool,
                                epoch: &epoch,
                                metrics: &metrics,
                                obs: &obs,
                                admission: &admission,
                            };
                            shard_main(&ctx)
                        }
                    })
                    .expect("failed to spawn shard worker")
            })
            .collect();

        let degraded = Arc::new(DegradedHealth::new());
        let persistence = store.map(|store| {
            let store_config = *store.config();
            let dir = store.dir().to_path_buf();
            let io = store.io_handle();
            let store = Arc::new(Mutex::new(store));
            let (jobs, receiver) = mpsc::channel::<CheckpointJob>();
            let checkpointer = std::thread::Builder::new()
                .name("ksp-serve-checkpointer".to_string())
                .spawn({
                    let store = store.clone();
                    let dir = dir.clone();
                    let io = Arc::clone(&io);
                    let obs = obs.clone();
                    let metrics = metrics.clone();
                    move || checkpointer_main(&store, &dir, &io, &receiver, &obs, &metrics)
                })
                .expect("failed to spawn checkpointer");
            let (probe_wake, probe_recv) = mpsc::channel::<()>();
            let probe_stop = Arc::new(AtomicBool::new(false));
            let probe = std::thread::Builder::new()
                .name("ksp-serve-degraded-probe".to_string())
                .spawn({
                    let store = store.clone();
                    let health = degraded.clone();
                    let obs = obs.clone();
                    let epoch = epoch.clone();
                    let stop = probe_stop.clone();
                    move || degraded_probe_main(&store, &health, &obs, &epoch, &stop, &probe_recv)
                })
                .expect("failed to spawn degraded probe");
            Persistence {
                store,
                store_config,
                dir,
                io,
                jobs: Some(jobs),
                checkpointer: Some(checkpointer),
                probe_wake: Some(probe_wake),
                probe_stop,
                probe: Some(probe),
            }
        });

        QueryService {
            config,
            pool,
            workers,
            epoch,
            metrics,
            obs,
            admission,
            masters: Mutex::new(Masters { graph, index }),
            persistence,
            degraded,
            replication: RwLock::new(None),
        }
    }

    /// Registers the replication endpoint `ShipSegment` / `SnapshotChunk` /
    /// `ReplAck` requests are delegated to. Every transport routes through
    /// [`QueryService::handle`], so one registration covers them all.
    pub fn set_replication_hook(&self, hook: Arc<dyn crate::rpc::ReplicationHook>) {
        *self.replication.write().unwrap_or_else(PoisonError::into_inner) = Some(hook);
    }

    /// The registered replication endpoint, if any.
    pub(crate) fn replication_hook(&self) -> Option<Arc<dyn crate::rpc::ReplicationHook>> {
        self.replication.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// The shared durable-store handle, when this service was started with a
    /// store. `ksp-repl`'s leader-side source reads the delta log and
    /// checkpoint images through this handle — the store's directory lock
    /// admits one opener, so replication must share the service's.
    pub fn store_handle(&self) -> Option<Arc<Mutex<Store>>> {
        self.persistence.as_ref().map(|p| p.store.clone())
    }

    /// The durable store's directory, when this service has one.
    pub fn store_dir(&self) -> Option<&FsPath> {
        self.persistence.as_ref().map(|p| p.dir.as_path())
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Number of shard workers, which is also the number of cache stripes.
    pub fn num_shards(&self) -> usize {
        self.config.num_shards
    }

    /// The current epoch number.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load().epoch()
    }

    /// The current epoch snapshot (kept alive for as long as the caller holds it).
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        self.epoch.load()
    }

    /// A point-in-time metrics summary, including the request queue's gauge:
    /// its current depth and all-time high-water mark.
    pub fn metrics(&self) -> MetricsReport {
        let mut report = self.metrics.report();
        report.queue_gauges = vec![QueueGauge {
            depth: self.pool.queue.depth(),
            high_water: self.pool.queue.high_water(),
            max_depth: self.config.admission.max_queue_depth,
        }];
        report
    }

    /// Submits a query and blocks until it is answered.
    ///
    /// Fails fast with [`ServiceError::Overloaded`] when the request queue is
    /// at capacity — the backpressure signal of admission control.
    pub fn query(
        &self,
        source: VertexId,
        target: VertexId,
        k: usize,
    ) -> Result<QueryResponse, ServiceError> {
        self.query_traced(source, target, k, 0)
    }

    /// [`QueryService::query`] carrying the caller's trace id (zero for
    /// untraced callers). The id is stamped into any flight dump the request
    /// triggers — an SLO breach dump taken for this request can be resolved
    /// back to the client-side trace that caused it.
    pub fn query_traced(
        &self,
        source: VertexId,
        target: VertexId,
        k: usize,
        trace_id: u64,
    ) -> Result<QueryResponse, ServiceError> {
        let (sender, receiver) = mpsc::channel();
        self.submit(
            source,
            target,
            k,
            trace_id,
            Reply::new(move |result| {
                let _ = sender.send(result);
            }),
        );
        receiver.recv().unwrap_or(Err(ServiceError::ShuttingDown))
    }

    /// Admits one query without blocking; `reply` receives the outcome.
    ///
    /// Takes the home stripe's cache lock once. A current-epoch hit is
    /// answered right here: `reply` runs on the calling thread before
    /// `submit` returns. A miss passes the adaptive controller as an engine
    /// run and enters the request queue; the worker that pops it runs
    /// `reply`. This is the service's one admission point:
    /// [`QueryService::query_traced`] blocks on the reply through a channel,
    /// and the event loop's reply frames the response for its connection.
    pub(crate) fn submit(
        &self,
        source: VertexId,
        target: VertexId,
        k: usize,
        trace_id: u64,
        reply: Reply,
    ) {
        // The span clock starts before validation so the admission stage
        // covers the full submit path (validate + route + enqueue attempt);
        // `submitted` shares the origin, so end-to-end latency and the stage
        // chain telescope to the same total.
        let submitted = Instant::now();
        let mut span = StageSpan::begin_at(submitted, self.obs.config.enabled);
        if k == 0 {
            return reply.send(Err(ServiceError::InvalidK));
        }
        // Validate endpoints against the current structure (the vertex set is
        // immutable across epochs, only weights change).
        let snapshot = self.epoch.load();
        for vertex in [source, target] {
            if let Err(e) = snapshot.graph().check_vertex(vertex) {
                return reply.send(Err(ServiceError::InvalidQuery(e)));
            }
        }
        let epoch_now = snapshot.epoch();
        drop(snapshot);

        use std::sync::atomic::Ordering::Relaxed;
        let stripe = route_shard(source, target, k, self.pool.caches.len());
        // A current-epoch entry in the home stripe is answered here, on the
        // calling thread: no queue, no worker wake-up. It costs no
        // queue slot and waits behind no backlog, so it is always admitted.
        // Its span stamps a zero-width queue stage and a cache stage covering
        // the lookup; a miss re-marks admission below, so its admission stage
        // still covers the lookup and the enqueue attempt.
        span.mark(Stage::Admission);
        let key = CacheKey { source, target, k };
        let cached = self.pool.caches[stripe]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key, epoch_now)
            .map(<[Path]>::to_vec);
        let mut request = Request { source, target, k, submitted, span, trace_id, stripe, reply };
        if let Some(paths) = cached {
            request.span.mark(Stage::Cache);
            self.metrics.admission_accepted.fetch_add(1, Relaxed);
            let hit = (paths, QueryStats::default(), true);
            return answer(&self.metrics, &self.obs, request, epoch_now, hit);
        }
        // Adaptive admission for a miss: ask the controller whether the
        // predicted latency — an engine run for each request queued ahead of
        // it per worker, plus its own — fits the SLO budget. Rejecting *here*
        // keeps overload out of the queue entirely, so admitted requests keep
        // their latency.
        let workers = self.config.num_shards;
        let depth_now = self.pool.queue.depth();
        if let AdmissionVerdict::Reject(r) = self.admission.assess(depth_now.div_ceil(workers)) {
            self.metrics.admission_rejected_predicted.fetch_add(1, Relaxed);
            self.obs.record(
                EventKind::Rejection,
                stripe as u64,
                depth_now as u64,
                r.retry_after_ms,
            );
            let micros = |d: Duration| d.as_micros().min(u64::MAX as u128) as u64;
            if r.entered_breach {
                // One dump per breach episode, not per rejected request: the
                // ring around the *first* rejection is the diagnostic.
                self.obs.trigger_traced(
                    EventKind::AdmissionBreach,
                    stripe as u64,
                    micros(r.estimated_wait),
                    micros(r.budget),
                    None,
                    trace_id,
                );
            }
            return request.reply.send(Err(ServiceError::Overloaded {
                depth: depth_now,
                retry_after_ms: r.retry_after_ms,
            }));
        }
        request.span.mark(Stage::Admission);
        if let Err((request, _)) = self.pool.queue.submit(request) {
            self.metrics.admission_rejected_queue_full.fetch_add(1, Relaxed);
            let depth = self.config.admission.max_queue_depth;
            let retry_after_ms = self.admission.queue_full_hint_ms(depth.div_ceil(workers));
            self.obs.record(EventKind::Rejection, stripe as u64, depth as u64, retry_after_ms);
            return request.reply.send(Err(ServiceError::Overloaded { depth, retry_after_ms }));
        }
        self.metrics.admission_accepted.fetch_add(1, Relaxed);
    }

    /// Whether this service persists its epochs to a store.
    pub fn is_persistent(&self) -> bool {
        self.persistence.is_some()
    }

    /// The observability runtime: configuration and flight recorder.
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// [`QueryService::obs_snapshot`] rendered in the Prometheus text
    /// exposition format.
    pub fn render_exposition(&self) -> String {
        ksp_obs::render_prometheus(&self.obs_snapshot())
    }

    /// Epoch of the newest committed checkpoint, for a persistent service.
    pub fn last_checkpoint_epoch(&self) -> Option<u64> {
        self.persistence
            .as_ref()
            .map(|p| p.store.lock().unwrap_or_else(PoisonError::into_inner).last_checkpoint_epoch())
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        if let Some(p) = &mut self.persistence {
            // Closing the job channel ends the checkpointer after it finishes
            // any in-flight commit; logged batches need no flushing (appends
            // are durable when apply_batch returns).
            p.jobs.take();
            if let Some(checkpointer) = p.checkpointer.take() {
                let _ = checkpointer.join();
            }
            // Stop the degraded probe: flag first (honoured mid-backoff),
            // then drop the wake sender so a healthy probe's recv ends.
            p.probe_stop.store(true, Ordering::Release);
            p.probe_wake.take();
            if let Some(probe) = p.probe.take() {
                let _ = probe.join();
            }
        }
        // Workers answer what is still queued, then exit.
        self.pool.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The home cache stripe of a request: FNV-1a over its identity, so a
/// repeat always looks where the first answer was inserted.
///
/// Public so workload tooling (stress tests) can *construct* skew — query
/// sets that all hash to one stripe — without depending on the hash's
/// internals.
pub fn route_shard(source: VertexId, target: VertexId, k: usize, num_shards: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in [source.0 as u64, target.0 as u64, k as u64] {
        h ^= part;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % num_shards as u64) as usize
}

#[cfg(test)]
mod tests;
