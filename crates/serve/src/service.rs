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

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionVerdict, BoundedQueue};
use crate::cache::{CacheKey, ResultCache};
use crate::epoch::{EpochPointer, EpochSnapshot};
use crate::metrics::{MetricsReport, QueueGauge, ServiceMetrics};
use ksp_algo::Path;
use ksp_core::dtlp::{DtlpConfig, DtlpIndex};
use ksp_core::kspdg::{KspDgConfig, KspDgEngine, QueryStats};
use ksp_graph::{DynamicGraph, GraphError, SubgraphSet, UpdateBatch, VertexId};
use ksp_obs::{
    Counter, EventKind, FlightRecorder, Gauge, ObsConfig, ObsSnapshot, PublishStage, SpanChain,
    Stage, StageSpan,
};
use ksp_store::{AppendTimings, RecoveryReport, StorageIo, Store, StoreConfig, StoreError};
use std::path::Path as FsPath;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

struct Request {
    source: VertexId,
    target: VertexId,
    k: usize,
    submitted: Instant,
    /// Stage clock of this request; shares `submitted` as its origin so the
    /// per-stage durations telescope to the recorded end-to-end latency.
    span: StageSpan<Stage>,
    /// The caller's trace id (zero when untraced); stamped into any flight
    /// dump this request triggers so a remote client can resolve its own
    /// trace ids to server-side span chains.
    trace_id: u64,
    /// The home cache stripe: the admission lookup and the worker's insert
    /// both use it.
    stripe: usize,
    reply: Reply,
}

/// Where one query's outcome goes: a callback run exactly once — inline by
/// [`QueryService::submit`] on the submitting thread for a current cache hit
/// or a rejected or invalid query, by the shard worker that answered it
/// otherwise, and with [`ServiceError::ShuttingDown`] if it is dropped
/// uncalled (the queue drained when its last worker exits). It runs on whichever thread
/// submitted (the event loop's poller among them) or on a shard worker, so
/// it must never block and never own the service: the last service handle
/// dropped on a shard worker would join the very thread it runs on.
pub(crate) struct Reply(Option<Box<dyn FnOnce(Outcome) + Send>>);

/// What a [`Reply`] receives.
type Outcome = Result<QueryResponse, ServiceError>;

impl Reply {
    pub(crate) fn new(f: impl FnOnce(Outcome) + Send + 'static) -> Self {
        Reply(Some(Box::new(f)))
    }

    fn send(mut self, outcome: Outcome) {
        if let Some(f) = self.0.take() {
            f(outcome);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(f) = self.0.take() {
            f(Err(ServiceError::ShuttingDown));
        }
    }
}

/// Step code the recovery-completed flight event uses, extending the per-step
/// codes of [`ksp_store::RecoveryReport::steps`] (payload: recovery duration
/// in microseconds).
pub const RECOVERY_STEP_COMPLETED: u64 = 5;

/// Capacity of the flight-recorder ring, in events.
const FLIGHT_CAPACITY: usize = 256;

/// An epoch publish slower than this triggers a flight dump.
const PUBLISH_STALL: Duration = Duration::from_millis(250);

/// A delta-log append (record encode + write, excluding the fsync) slower
/// than this triggers a flight dump.
const WAL_APPEND_STALL: Duration = Duration::from_millis(50);

/// A delta-log fsync slower than this triggers a flight dump.
const FSYNC_STALL: Duration = Duration::from_millis(100);

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
    /// (see [`CloseQueueOnExit`]).
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

/// One background-checkpoint request: `Arc`'d snapshots of a just-published
/// epoch, encoded off the publish path.
struct CheckpointJob {
    epoch: u64,
    graph: Arc<DynamicGraph>,
    index: Arc<DtlpIndex>,
    /// The publish span of the epoch that requested this checkpoint: it rides
    /// into the checkpointer so the checkpoint encode/commit stages land in
    /// the same telescoped chain as the synchronous write-path stages (the
    /// channel wait is absorbed into `checkpoint_encode`).
    span: StageSpan<PublishStage>,
}

/// Shared read-only-degraded state of a persistent service.
///
/// Entered when a delta-log append fails: the failed batch publishes nothing,
/// queries keep serving the last published epoch, and every further
/// [`QueryService::apply_batch`] fast-fails with [`PublishError::Degraded`]
/// until the background probe gets an append path working again.
#[derive(Debug)]
struct DegradedHealth {
    degraded: AtomicBool,
    /// Why the service degraded (the append error's rendering); empty while
    /// healthy.
    reason: Mutex<String>,
    /// When degradation was entered, for the recovery event's duration.
    entered_at: Mutex<Option<Instant>>,
    entered_total: AtomicU64,
    recovered_total: AtomicU64,
}

impl DegradedHealth {
    fn new() -> Self {
        DegradedHealth {
            degraded: AtomicBool::new(false),
            reason: Mutex::new(String::new()),
            entered_at: Mutex::new(None),
            entered_total: AtomicU64::new(0),
            recovered_total: AtomicU64::new(0),
        }
    }

    fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    fn reason(&self) -> String {
        self.reason.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
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
    metrics: Arc<ServiceMetrics>,
    obs: Arc<Observability>,
    admission: Arc<AdmissionController>,
    masters: Mutex<Masters>,
    persistence: Option<Persistence>,
    /// Read-only degraded mode (see [`PublishError::Degraded`]); always
    /// healthy for an in-memory service.
    degraded: Arc<DegradedHealth>,
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

    /// Applies one weight-update batch and publishes the next epoch.
    ///
    /// Updates are serialised through the master copies; queries in flight keep
    /// reading their already-loaded epochs and are never blocked by this call
    /// (beyond the final pointer swap). Returns the epoch id the batch
    /// produced, so callers can correlate answers (`QueryResponse::epoch`) and
    /// log records with the batch that caused them.
    ///
    /// The update is staged on copy-on-write forks and committed only when
    /// both the graph and the index accepted the whole batch: a failing batch
    /// (e.g. an out-of-range edge id) leaves the masters — and therefore every
    /// future epoch — exactly as they were. Staging copies weights, never
    /// structure: the graph fork copies its weight table and shares its
    /// topology; the index fork unshares only the subgraph indexes the batch
    /// routes updates into, each copying its bounding-path distances, pair
    /// bounds and subgraph edge records while sharing its path shape and
    /// subgraph shape, and the skeleton copies its weights while sharing its
    /// topology (everything
    /// else stays pointer-shared across epochs). For a persistent service
    /// the batch is additionally appended to the delta log (fsync-on-commit)
    /// *before* the epoch becomes visible: an epoch a reader can observe is
    /// always an epoch recovery can reproduce.
    pub fn apply_batch(&self, batch: &UpdateBatch) -> Result<u64, PublishError> {
        // Fast-fail while degraded: the log is known-broken, so staging a
        // fork just to throw it away would waste the write path's budget.
        if self.degraded.is_degraded() {
            return Err(PublishError::Degraded(self.degraded.reason()));
        }
        let publish_started = Instant::now();
        // The publish span shares `publish_started` as its origin, so the
        // per-stage durations telescope to exactly the end-to-end publish
        // latency recorded into `metrics.publish_latency`.
        let mut span = StageSpan::begin_at(publish_started, self.obs.config.enabled);
        let mut masters = self.masters.lock().unwrap_or_else(PoisonError::into_inner);
        let prev_epoch = masters.graph.version();
        let next_graph = Arc::new(masters.graph.with_batch(batch)?);
        let mut staged_index = (*masters.index).clone();
        let maintenance = staged_index.apply_batch(batch)?;
        let dirty_set: SubgraphSet = maintenance.dirty_subgraphs.iter().copied().collect();
        let next_index = Arc::new(staged_index);
        let epoch = next_graph.version();
        span.mark(PublishStage::StageIndex);
        // Durability before visibility: a batch that cannot be logged
        // publishes nothing.
        let mut append_timings = AppendTimings::default();
        if let Some(p) = &self.persistence {
            match p.store.lock().unwrap_or_else(PoisonError::into_inner).log_batch(epoch, batch) {
                Ok(timings) => append_timings = timings,
                Err(e) => {
                    // The append failed, so this epoch never becomes visible;
                    // flip into read-only degraded mode and hand the failed
                    // batch's caller the typed error. The staged forks are
                    // simply dropped — the masters are untouched.
                    drop(masters);
                    return Err(self.enter_degraded(epoch, &e, p));
                }
            }
        }
        span.mark_with_tail(PublishStage::WalAppend, append_timings.fsync);
        // The published snapshot and the masters share one (graph, index)
        // `Arc` pair; the only extra handles taken here are for a checkpoint
        // job, when this epoch needs one.
        let checkpoint_job = self.persistence.as_ref().and_then(|p| {
            p.store_config.is_checkpoint_epoch(epoch).then(|| CheckpointJob {
                epoch,
                graph: Arc::clone(&next_graph),
                index: Arc::clone(&next_index),
                span: StageSpan::disabled(),
            })
        });
        // Publish before releasing the masters lock so epochs appear in order.
        self.epoch.publish(EpochSnapshot::new(
            epoch,
            Arc::clone(&next_graph),
            Arc::clone(&next_index),
        ));
        masters.graph = next_graph;
        masters.index = next_index;
        span.mark(PublishStage::Swap);
        // Selective invalidation: drop only the entries whose trace the batch
        // dirtied; re-stamp the rest to the new epoch. Running under the
        // masters lock keeps publishes (and therefore retention passes)
        // strictly ordered, which the one-epoch-lag rule of
        // `retain_for_publish` relies on.
        let mut retained = 0u64;
        let mut evicted = 0u64;
        for cache in &self.pool.caches {
            let outcome = cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .retain_for_publish(prev_epoch, epoch, &dirty_set);
            retained += outcome.retained as u64;
            evicted += outcome.evicted as u64;
        }
        span.mark(PublishStage::Retention);
        drop(masters);
        use std::sync::atomic::Ordering::Relaxed;
        self.metrics.cache_retained.fetch_add(retained, Relaxed);
        self.metrics.cache_evicted.fetch_add(evicted, Relaxed);
        self.metrics.epochs_published.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.metrics.note_publish();
        let publish_time = publish_started.elapsed();
        let publish_micros = publish_time.as_micros().min(u64::MAX as u128) as u64;
        self.obs.record(EventKind::EpochPublished, epoch, dirty_set.len() as u64, publish_micros);
        self.obs.record(EventKind::CacheRetention, epoch, retained, evicted);
        if publish_time > PUBLISH_STALL {
            self.obs.trigger(EventKind::PublishStall, epoch, publish_micros, 0, None);
        }
        let micros = |d: Duration| d.as_micros().min(u64::MAX as u128) as u64;
        if append_timings.write > WAL_APPEND_STALL {
            self.obs.trigger(
                EventKind::WalAppendStall,
                epoch,
                micros(append_timings.write),
                micros(WAL_APPEND_STALL),
                None,
            );
        }
        if append_timings.fsync > FSYNC_STALL {
            self.obs.trigger(
                EventKind::FsyncStall,
                epoch,
                micros(append_timings.fsync),
                micros(FSYNC_STALL),
                None,
            );
        }
        match checkpoint_job {
            Some(mut job) => {
                // The span rides into the checkpointer, which finishes it
                // after the commit; from here on the channel wait counts
                // toward the checkpoint_encode stage.
                job.span = span;
                // A full or closed channel only delays the checkpoint; the
                // log still holds every batch.
                match &self.persistence.as_ref().expect("job implies store").jobs {
                    Some(jobs) => {
                        if let Err(mpsc::SendError(job)) = jobs.send(job) {
                            finish_publish_span(&self.metrics, &job.span);
                        }
                    }
                    None => finish_publish_span(&self.metrics, &job.span),
                }
            }
            // No checkpoint this epoch: the write path ends here, with the
            // checkpoint stages telescoping to (near-)zero width.
            None => finish_publish_span(&self.metrics, &span),
        }
        Ok(epoch)
    }

    /// Flips the service into read-only degraded mode after a failed append
    /// and returns the error the failed `apply_batch` call reports. Idempotent
    /// under races: only the first flip records the entry event and wakes the
    /// probe.
    fn enter_degraded(&self, epoch: u64, cause: &StoreError, p: &Persistence) -> PublishError {
        let reason = format!("delta-log append failed at epoch {epoch}: {cause}");
        if !self.degraded.degraded.swap(true, Ordering::AcqRel) {
            *self.degraded.reason.lock().unwrap_or_else(PoisonError::into_inner) = reason.clone();
            *self.degraded.entered_at.lock().unwrap_or_else(PoisonError::into_inner) =
                Some(Instant::now());
            self.degraded.entered_total.fetch_add(1, Ordering::Relaxed);
            // Entering degradation is an anomaly: capture the flight ring
            // around the failed append, then wake the probe so recovery
            // attempts start immediately.
            self.obs.trigger(EventKind::DegradedEntered, epoch, 0, 0, None);
            eprintln!("ksp-serve: entering read-only degraded mode: {reason}");
            if let Some(wake) = &p.probe_wake {
                let _ = wake.send(());
            }
        }
        PublishError::Degraded(reason)
    }

    /// Whether the service is in read-only degraded mode (see
    /// [`PublishError::Degraded`]). Queries are unaffected; writes fail fast
    /// until the background probe lifts the degradation.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_degraded()
    }

    /// Why the service is degraded; `None` while healthy.
    pub fn degraded_reason(&self) -> Option<String> {
        if self.degraded.is_degraded() {
            Some(self.degraded.reason())
        } else {
            None
        }
    }

    /// Whether this service persists its epochs to a store.
    pub fn is_persistent(&self) -> bool {
        self.persistence.is_some()
    }

    /// Synchronously checkpoints the current epoch into the store. Returns
    /// `Ok(None)` for an in-memory service, `Ok(Some(epoch))` after a
    /// successful checkpoint. Useful at controlled shutdown so the next
    /// [`QueryService::open`] replays an empty log.
    pub fn checkpoint_now(&self) -> Result<Option<u64>, PublishError> {
        let Some(p) = &self.persistence else { return Ok(None) };
        let (epoch, graph, index) = {
            let masters = self.masters.lock().unwrap_or_else(PoisonError::into_inner);
            (masters.graph.version(), masters.graph.clone(), masters.index.clone())
        };
        // Encode and stage (write + fsync) without the store lock — the slow
        // halves must not stall concurrent publishes — then commit under it.
        let checkpoint_started = Instant::now();
        let encoded = Store::encode_checkpoint(epoch, &graph, &index);
        let staged = Store::stage_checkpoint_with_io(&p.dir, &encoded, &p.io)?;
        p.store.lock().unwrap_or_else(PoisonError::into_inner).commit_staged_checkpoint(staged)?;
        self.obs.record(
            EventKind::CheckpointCommitted,
            epoch,
            1,
            checkpoint_started.elapsed().as_micros().min(u64::MAX as u128) as u64,
        );
        Ok(Some(epoch))
    }

    /// The observability runtime: configuration and flight recorder.
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// A full observability snapshot: per-stage latency histograms, the
    /// end-to-end histogram, every counter and gauge the service exports, and
    /// the latest flight-recorder dump. This is the payload behind the wire
    /// `ObsSnapshot` request; render it with [`ksp_obs::render_prometheus`]
    /// for scrapers that speak the Prometheus text format.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let report = self.metrics();
        let flight = &self.obs.flight;
        let unlabelled = |name: &str, value: u64| Counter {
            name: name.to_string(),
            labels: String::new(),
            value,
        };
        let mut counters = vec![
            unlabelled("ksp_requests_completed_total", report.completed),
            unlabelled("ksp_requests_rejected_total", report.rejected),
            unlabelled("ksp_cache_hits_total", report.cache_hits),
            unlabelled("ksp_cache_misses_total", report.cache_misses),
            unlabelled("ksp_epochs_published_total", report.epochs_published),
            unlabelled("ksp_cache_retained_total", report.cache_retained),
            unlabelled("ksp_cache_evicted_total", report.cache_evicted),
            unlabelled("ksp_flight_events_total", flight.events_recorded()),
            unlabelled("ksp_flight_dumps_total", flight.dumps_taken()),
            unlabelled("ksp_flight_overwritten_total", flight.events_overwritten()),
            unlabelled("ksp_admission_accepted_total", report.admission_accepted),
            unlabelled(
                "ksp_degraded_entered_total",
                self.degraded.entered_total.load(Ordering::Relaxed),
            ),
            unlabelled(
                "ksp_degraded_recovered_total",
                self.degraded.recovered_total.load(Ordering::Relaxed),
            ),
        ];
        for (reason, value) in [
            ("queue_full", report.admission_rejected_queue_full),
            ("slo_budget", report.admission_rejected_predicted),
        ] {
            counters.push(Counter {
                name: "ksp_admission_rejected_total".to_string(),
                labels: format!("reason=\"{reason}\""),
                value,
            });
        }
        let queue = report.queue_gauges[0];
        let mut gauges = vec![
            Gauge {
                name: "ksp_epoch".to_string(),
                labels: String::new(),
                value: self.current_epoch() as f64,
            },
            Gauge {
                name: "ksp_epoch_age_seconds".to_string(),
                labels: String::new(),
                value: report.epoch_age.as_secs_f64(),
            },
            // Always exported (0 while healthy) so a scraper can alert on the
            // transition rather than on the family appearing.
            Gauge {
                name: "ksp_degraded".to_string(),
                labels: String::new(),
                value: u64::from(self.degraded.is_degraded()) as f64,
            },
            Gauge {
                name: "ksp_queue_depth".to_string(),
                labels: String::new(),
                value: queue.depth as f64,
            },
            Gauge {
                name: "ksp_queue_high_water".to_string(),
                labels: String::new(),
                value: queue.high_water as f64,
            },
            // The admission controller's live view: the engine-run
            // service-time EWMA (zero until the first run) — the multiplier
            // of the queueing-delay prediction, exported so an operator can
            // sanity-check a rejection rate against what the controller
            // believed.
            Gauge {
                name: "ksp_admission_est_service_micros".to_string(),
                labels: String::new(),
                value: self.admission.estimator().nanos() as f64 / 1_000.0,
            },
        ];
        // Replication (`ksp_repl_*`) families, when a hook is registered —
        // the shipping counters and per-follower lag gauges ride the same
        // snapshot as every native family.
        if let Some(hook) = self.replication_hook() {
            let (repl_counters, repl_gauges) = hook.metric_families();
            counters.extend(repl_counters);
            gauges.extend(repl_gauges);
        }
        ObsSnapshot {
            stages: self.metrics.stages.snapshot(),
            end_to_end: self.metrics.latency.snapshot(),
            publish_stages: self.metrics.publish_stages.snapshot(),
            publish_end_to_end: self.metrics.publish_latency.snapshot(),
            counters,
            gauges,
            dump: flight.last_dump(),
        }
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

/// Drains checkpoint jobs, always encoding only the newest pending epoch
/// (checkpoints are whole-pair images, so an older queued job is simply
/// superseded). The two slow halves — encoding the image and writing/fsyncing
/// it to a temp file — run without any lock; the store is held only for the
/// rename-and-prune commit, so epoch publishes never wait on checkpoint I/O.
fn checkpointer_main(
    store: &Mutex<Store>,
    store_dir: &std::path::Path,
    io: &Arc<dyn StorageIo>,
    jobs: &mpsc::Receiver<CheckpointJob>,
    obs: &Observability,
    metrics: &ServiceMetrics,
) {
    /// First retry delay after a failed stage/commit.
    const RETRY_BASE: Duration = Duration::from_millis(10);
    /// Retry-delay ceiling: a persistently broken checkpoint path is probed a
    /// couple of times per second, cheap next to the image it would write.
    const RETRY_CAP: Duration = Duration::from_secs(2);

    // A job whose image failed to stage or commit is carried into the next
    // iteration and retried with capped exponential backoff: a transient
    // storage fault only delays the checkpoint (the log still holds every
    // batch), and a newer job arriving during the backoff supersedes the
    // failed one.
    let mut carry: Option<CheckpointJob> = None;
    let mut backoff = RETRY_BASE;
    let mut quarantine_seq = 0u64;
    // Jobs are sent outside the masters lock, so queue order is not epoch
    // order: pick the max epoch, not the last queued. A superseded job's
    // publish span is finished here — its epoch was published, so its chain
    // still records (with the checkpoint stages covering only the wait before
    // coalescing).
    let merge = |best: CheckpointJob, next: CheckpointJob| {
        if next.epoch > best.epoch {
            finish_publish_span(metrics, &best.span);
            next
        } else {
            finish_publish_span(metrics, &next.span);
            best
        }
    };
    loop {
        let first = match carry.take() {
            // Retrying: wait out the backoff, absorbing a newer job if one
            // arrives during it. Channel shutdown abandons the retry — the
            // log covers the un-imaged epochs.
            Some(prev) => match jobs.recv_timeout(backoff) {
                Ok(next) => merge(prev, next),
                Err(mpsc::RecvTimeoutError::Timeout) => prev,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            },
            None => match jobs.recv() {
                Ok(first) => first,
                Err(_) => break,
            },
        };
        let mut job = jobs.try_iter().fold(first, &merge);

        let checkpoint_started = Instant::now();
        let encoded = Store::encode_checkpoint(job.epoch, &job.graph, &job.index);
        job.span.mark(PublishStage::CheckpointEncode);
        let result = Store::stage_checkpoint_with_io(store_dir, &encoded, io).and_then(|staged| {
            store.lock().unwrap_or_else(PoisonError::into_inner).commit_staged_checkpoint(staged)
        });
        // The epoch was published either way, so the publish span always
        // finishes: exactly one publish chain records per published epoch,
        // which is what lets the per-stage totals telescope to the end-to-end
        // publish histogram. (A retry of the same epoch carries a disabled
        // span, so finishing here stays once-per-epoch.)
        finish_publish_span(metrics, &job.span);
        match result {
            Ok(()) => {
                backoff = RETRY_BASE;
                obs.record(
                    EventKind::CheckpointCommitted,
                    job.epoch,
                    1,
                    checkpoint_started.elapsed().as_micros().min(u64::MAX as u128) as u64,
                );
            }
            Err(e) => {
                // The log still holds every batch, so a failed checkpoint only
                // costs recovery time. Quarantine the image bytes for
                // post-mortem (best-effort) and retry after a backoff without
                // stalling publishes.
                obs.record(EventKind::CheckpointFailed, job.epoch, 1, 0);
                eprintln!("ksp-serve: background checkpoint at epoch {} failed: {e}", job.epoch);
                quarantine_seq += 1;
                if let Err(qe) = quarantine_image(store_dir, &encoded, quarantine_seq) {
                    eprintln!(
                        "ksp-serve: could not quarantine failed image for epoch {}: {qe}",
                        job.epoch
                    );
                }
                job.span = StageSpan::disabled();
                carry = Some(job);
                backoff = (backoff * 2).min(RETRY_CAP);
            }
        }
    }
}

/// Preserves the bytes of a checkpoint image whose staging or commit failed
/// under `<store>/quarantine/image-<epoch>-<seq>.bad`, for post-mortem
/// inspection. Best-effort: a quarantine failure loses only the artefact,
/// never the retry. The subdirectory is invisible to recovery — the store's
/// scanners match file-name prefixes in the store root only.
fn quarantine_image(
    store_dir: &std::path::Path,
    encoded: &ksp_store::EncodedCheckpoint,
    seq: u64,
) -> std::io::Result<()> {
    let dir = store_dir.join("quarantine");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("image-{:020}-{seq}.bad", encoded.epoch)), encoded.bytes())
}

/// The degraded-mode probe: blocks (costing nothing) until a failed append
/// wakes it, then retries the delta log with capped exponential backoff and
/// lifts the degradation once an append path works again.
///
/// The probe's unit of work is [`Store::probe_log`]: rewind any impaired
/// active segment, then exercise a sync through the store's I/O backend —
/// the same backend a real append would use, so a still-broken log keeps the
/// probe failing and the service degraded.
fn degraded_probe_main(
    store: &Mutex<Store>,
    health: &DegradedHealth,
    obs: &Observability,
    epoch: &EpochPointer,
    stop: &AtomicBool,
    wake: &mpsc::Receiver<()>,
) {
    /// First retry delay after entering degradation.
    const PROBE_BASE: Duration = Duration::from_millis(5);
    /// Retry-delay ceiling while degraded.
    const PROBE_CAP: Duration = Duration::from_millis(500);
    /// Sleep slice, so shutdown is observed promptly mid-backoff.
    const SLICE: Duration = Duration::from_millis(2);

    loop {
        // Healthy: block until a degradation entry wakes us (or shutdown
        // drops the sender).
        if !health.is_degraded() {
            match wake.recv() {
                Ok(()) => {}
                Err(_) => return,
            }
        }
        if stop.load(Ordering::Acquire) {
            return;
        }
        let mut backoff = PROBE_BASE;
        let mut attempts = 0u64;
        while health.is_degraded() {
            attempts += 1;
            let probed = store.lock().unwrap_or_else(PoisonError::into_inner).probe_log();
            match probed {
                Ok(()) => {
                    let degraded_for = health
                        .entered_at
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take()
                        .map(|t| t.elapsed())
                        .unwrap_or(Duration::ZERO);
                    health.reason.lock().unwrap_or_else(PoisonError::into_inner).clear();
                    health.recovered_total.fetch_add(1, Ordering::Relaxed);
                    // Release-store after the repair so an apply_batch that
                    // sees "healthy" sees the repaired log.
                    health.degraded.store(false, Ordering::Release);
                    obs.trigger(
                        EventKind::DegradedRecovered,
                        epoch.load().epoch(),
                        attempts,
                        degraded_for.as_micros().min(u64::MAX as u128) as u64,
                        None,
                    );
                    eprintln!(
                        "ksp-serve: degraded mode recovered after {attempts} probe attempt(s)"
                    );
                }
                Err(_) => {
                    // Still broken: sleep out the backoff in slices so a
                    // shutdown mid-degradation is honoured promptly.
                    let mut remaining = backoff;
                    while !remaining.is_zero() {
                        if stop.load(Ordering::Acquire) {
                            return;
                        }
                        let slice = remaining.min(SLICE);
                        std::thread::sleep(slice);
                        remaining = remaining.saturating_sub(slice);
                    }
                    backoff = (backoff * 2).min(PROBE_CAP);
                }
            }
            if stop.load(Ordering::Acquire) {
                return;
            }
        }
    }
}

/// Finishes one epoch's publish span and records its telescoped chain into
/// the write-path histograms. Called exactly once per published epoch —
/// synchronously for non-checkpoint epochs, from the checkpointer (after the
/// image commit, or at coalesce time for superseded jobs) otherwise.
fn finish_publish_span(metrics: &ServiceMetrics, span: &StageSpan<PublishStage>) {
    if let Some((chain, total)) = span.finish() {
        metrics.publish_stages.record_chain(&chain);
        metrics.publish_latency.record_micros(chain.total_micros());
        debug_assert_eq!(total.as_micros().min(u64::MAX as u128) as u64, chain.total_micros());
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

/// Counts a shard worker out when it exits — including by panic. A worker
/// that panics while others run leaves the queue open for them; the last
/// worker out closes the queue and drains it. Dropping the drained requests
/// drops their [`Reply`]s, which answer [`ServiceError::ShuttingDown`], so no
/// caller waits forever on a queue no worker drains.
struct CloseQueueOnExit<'a> {
    queue: &'a BoundedQueue<Request>,
    live_workers: &'a AtomicUsize,
}

impl Drop for CloseQueueOnExit<'_> {
    fn drop(&mut self) {
        // Exactly one worker sees the count reach zero: the last one out.
        if self.live_workers.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.queue.close();
            while self.queue.pop().is_some() {}
        }
    }
}

/// Everything a shard worker shares with its siblings: the request queue and
/// cache stripes, the epoch pointer, the metrics sink, the observability
/// runtime and the admission controller it feeds.
struct WorkerContext<'a> {
    pool: &'a Pool,
    epoch: &'a EpochPointer,
    metrics: &'a ServiceMetrics,
    obs: &'a Observability,
    admission: &'a AdmissionController,
}

fn shard_main(ctx: &WorkerContext<'_>) {
    let queue = &ctx.pool.queue;
    let _guard = CloseQueueOnExit { queue, live_workers: &ctx.pool.live_workers };
    while let Some(request) = queue.pop() {
        run_request(request, ctx);
    }
}

/// Answers one popped request against the current epoch, inserting an engine
/// run's answer into the request's home stripe. Its [`StageSpan`] is stamped
/// at every stage boundary and finished by [`answer`].
fn run_request(mut request: Request, ctx: &WorkerContext<'_>) {
    let WorkerContext { pool, epoch, metrics, obs, admission } = *ctx;
    request.span.mark(Stage::Queue);
    let started = Instant::now();
    // Graph and index come from one consistent epoch.
    let snapshot = epoch.load();
    let cache = &pool.caches[request.stripe];
    let key = CacheKey { source: request.source, target: request.target, k: request.k };
    let cached = cache
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key, snapshot.epoch())
        .map(<[Path]>::to_vec);
    request.span.mark(Stage::Cache);
    let outcome = match cached {
        // `submit` answers current hits inline, so this is a request that
        // became a hit while it was queued (an identical miss ahead of it
        // inserted the answer).
        Some(paths) => {
            request.span.mark(Stage::Engine);
            (paths, QueryStats::default(), true)
        }
        None => {
            // Tracing is on: the cache's publish-time survival consumes the
            // answer's subgraph trace.
            let result =
                KspDgEngine::with_config(snapshot.index(), KspDgConfig::default().with_trace())
                    .query(request.source, request.target, request.k);
            request.span.mark_with_tail(Stage::Engine, result.sweep_time);
            // The insert is post-engine bookkeeping: it lands in the span's
            // reply stage, not the cache-lookup stage.
            cache.lock().unwrap_or_else(PoisonError::into_inner).insert(
                key,
                snapshot.epoch(),
                result.trace,
                result.paths.clone(),
            );
            // Feed the admission controller's estimator: this service time
            // (cache lookup + engine work, no queue wait) is exactly the
            // per-request cost its queueing-delay prediction multiplies by.
            admission.estimator().observe(started.elapsed());
            (result.paths, result.stats, false)
        }
    };
    answer(metrics, obs, request, snapshot.epoch(), outcome);
}

/// Accounts one answered request and sends its reply: the cache-hit or miss
/// counter, the stage chain, the latency histogram, `completed` and the
/// SLO-breach trigger. The one completion path of both the inline hit in
/// [`QueryService::submit`] and the workers' [`run_request`].
///
/// When observability is on, the end-to-end latency recorded is the span's
/// own telescoped total, so the per-stage histograms sum exactly to the
/// end-to-end histogram.
fn answer(
    metrics: &ServiceMetrics,
    obs: &Observability,
    request: Request,
    epoch: u64,
    (paths, stats, cache_hit): (Vec<Path>, QueryStats, bool),
) {
    use std::sync::atomic::Ordering::Relaxed;
    if cache_hit {
        metrics.cache_hits.fetch_add(1, Relaxed);
    } else {
        metrics.cache_misses.fetch_add(1, Relaxed);
    }
    let (latency, chain) = match request.span.finish() {
        Some((chain, total)) => {
            metrics.stages.record_chain(&chain);
            (total, Some(chain))
        }
        None => (request.submitted.elapsed(), None),
    };
    metrics.latency.record(latency);
    metrics.completed.fetch_add(1, Relaxed);
    if let Some(chain) = chain {
        let slo = obs.config.slo_p99;
        if !slo.is_zero() && latency > slo {
            obs.trigger_traced(
                EventKind::SloBreach,
                latency.as_micros().min(u64::MAX as u128) as u64,
                slo.as_micros().min(u64::MAX as u128) as u64,
                request.stripe as u64,
                Some(chain),
                request.trace_id,
            );
        }
    }
    let response = QueryResponse { paths, stats, epoch, cache_hit, latency };
    request.reply.send(Ok(response));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_algo::yen_ksp;
    use ksp_obs::StageSet;
    use ksp_workload::{
        QueryWorkload, QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig,
        TrafficModel,
    };

    fn service(n: usize, shards: usize, seed: u64) -> (QueryService, DynamicGraph) {
        let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n))
            .generate(seed)
            .unwrap()
            .graph;
        let config = ServiceConfig::new(shards, DtlpConfig::new(18, 2));
        let service = QueryService::start(graph.clone(), config).unwrap();
        (service, graph)
    }

    #[test]
    fn answers_match_yen_on_the_initial_epoch() {
        let (service, graph) = service(200, 3, 5);
        let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(10, 2), 3);
        for q in workload.iter() {
            let response = service.query(q.source, q.target, q.k).unwrap();
            assert_eq!(response.epoch, 0);
            let expected = yen_ksp(&graph, q.source, q.target, q.k);
            assert_eq!(response.paths.len(), expected.len());
            for (a, b) in response.paths.iter().zip(expected.iter()) {
                assert!(a.distance().approx_eq(b.distance()));
            }
        }
        let report = service.metrics();
        assert_eq!(report.completed, 10);
        assert_eq!(report.rejected, 0);
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let (service, graph) = service(150, 2, 7);
        let (s, t) = (VertexId(1), VertexId(graph.num_vertices() as u32 - 1));
        let cold = service.query(s, t, 2).unwrap();
        assert!(!cold.cache_hit);
        let warm = service.query(s, t, 2).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(cold.paths.len(), warm.paths.len());
        for (a, b) in cold.paths.iter().zip(warm.paths.iter()) {
            assert_eq!(a.vertices(), b.vertices());
            assert!(a.distance().approx_eq(b.distance()));
        }
        assert!(service.metrics().cache_hit_rate() > 0.0);
    }

    /// The tentpole behaviour: a publish evicts exactly the entries whose
    /// trace the batch dirtied. An entry whose answer the batch touched must
    /// miss afterwards; an entry far away from the dirty set must keep
    /// hitting, re-stamped to the new epoch.
    #[test]
    fn publish_evicts_dirty_entries_and_keeps_disjoint_ones() {
        use ksp_graph::{Weight, WeightUpdate};
        let (service, graph) = service(300, 2, 7);
        let (s, t) = (VertexId(1), VertexId(8));
        let cold = service.query(s, t, 2).unwrap();
        assert!(!cold.cache_hit);

        // A batch updating an edge *on* the answer path: its owner subgraph is
        // necessarily in the query's trace, so the entry must be evicted.
        let (u, v) = {
            let verts = cold.paths[0].vertices();
            (verts[0], verts[1])
        };
        let on_path_edge = graph
            .edge_ids()
            .find(|&e| {
                let rec = graph.edge(e);
                (rec.u == u && rec.v == v) || (rec.u == v && rec.v == u)
            })
            .expect("answer path edge exists");
        let batch = ksp_graph::UpdateBatch::new(vec![WeightUpdate::new(
            on_path_edge,
            Weight::new(graph.weight(on_path_edge).value() * 3.0),
        )]);
        assert_eq!(service.apply_batch(&batch).unwrap(), 1);
        let after = service.query(s, t, 2).unwrap();
        assert_eq!(after.epoch, 1);
        assert!(!after.cache_hit, "an entry whose trace was dirtied must be evicted");

        // A batch updating an edge owned by a subgraph outside the cached
        // entry's trace: the entry must survive the publish and keep
        // answering, now stamped with the new epoch. The trace of the cached
        // (epoch-1) entry is recomputed here through the same deterministic
        // engine the shard worker ran.
        let snapshot = service.snapshot();
        let trace = {
            // Same engine configuration the shard workers run (tracing on).
            let engine = ksp_core::kspdg::KspDgEngine::with_config(
                snapshot.index(),
                KspDgConfig::default().with_trace(),
            );
            let result = engine.query(s, t, 2);
            assert!(result.trace.complete);
            result.trace.subgraphs
        };
        let far_edge = graph
            .edge_ids()
            .find(|&e| !trace.contains(snapshot.index().owner_of_edge(e)))
            .expect("some edge is owned by an untraced subgraph");
        let far_batch = ksp_graph::UpdateBatch::new(vec![WeightUpdate::new(
            far_edge,
            Weight::new(snapshot.graph().weight(far_edge).value() * 2.0),
        )]);
        assert_eq!(service.apply_batch(&far_batch).unwrap(), 2);
        let survived = service.query(s, t, 2).unwrap();
        assert_eq!(survived.epoch, 2);
        assert!(survived.cache_hit, "a disjoint publish must not evict the entry");
        for (a, b) in survived.paths.iter().zip(after.paths.iter()) {
            assert_eq!(a.vertices(), b.vertices());
            assert_eq!(a.distance().value().to_bits(), b.distance().value().to_bits());
        }
        let report = service.metrics();
        assert!(report.cache_retained >= 1, "retention must be counted");
        assert_eq!(report.epochs_published, 2);
    }

    /// Hot keys that all hash to one cache stripe, asked at once by many
    /// clients: every answer must stay correct, and since an engine run's
    /// answer lands in the request's home stripe whichever worker ran it, a
    /// repeat of every hot key afterwards is an inline cache hit.
    #[test]
    fn a_skew_pinned_burst_is_answered_and_cached_in_its_home_stripe() {
        let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(250))
            .generate(23)
            .unwrap()
            .graph;
        let mut config = ServiceConfig::new(4, DtlpConfig::new(18, 2));
        // Room in the hot stripe for every hot key, and no more.
        config.cache_capacity = 12;
        let service = Arc::new(QueryService::start(graph.clone(), config).unwrap());

        // Find the hot keys: queries that all route to stripe 0.
        let n = graph.num_vertices() as u32;
        let mut hot: Vec<(VertexId, VertexId)> = Vec::new();
        's: for a in 0..n {
            for b in 0..n {
                if a != b && route_shard(VertexId(a), VertexId(b), 3, 4) == 0 {
                    hot.push((VertexId(a), VertexId(b)));
                    if hot.len() == 12 {
                        break 's;
                    }
                }
            }
        }
        let expected: Vec<_> = hot.iter().map(|&(s, t)| yen_ksp(&graph, s, t, 3)).collect();
        let check = |response: &QueryResponse, pick: usize| {
            assert_eq!(response.paths.len(), expected[pick].len());
            for (got, want) in response.paths.iter().zip(expected[pick].iter()) {
                assert!(got.distance().approx_eq(want.distance()));
            }
        };

        std::thread::scope(|scope| {
            for client in 0..8usize {
                let service = service.clone();
                let hot = &hot;
                let check = &check;
                scope.spawn(move || {
                    for i in 0..30usize {
                        let pick = (client + i) % hot.len();
                        let (s, t) = hot[pick];
                        match service.query(s, t, 3) {
                            Ok(response) => check(&response, pick),
                            Err(ServiceError::Overloaded { .. }) => continue,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                });
            }
        });

        assert!(service.metrics().cache_misses >= hot.len() as u64);
        for (pick, &(s, t)) in hot.iter().enumerate() {
            let repeat = service.query(s, t, 3).unwrap();
            assert!(repeat.cache_hit, "hot key {pick} must hit its home stripe");
            check(&repeat, pick);
        }
    }

    #[test]
    fn queries_reflect_published_weight_updates() {
        let (service, graph) = service(180, 2, 13);
        let mut live = graph.clone();
        let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), 3);
        for _ in 0..3 {
            let batch = traffic.next_snapshot();
            live.apply_batch(&batch).unwrap();
            service.apply_batch(&batch).unwrap();
        }
        assert_eq!(service.current_epoch(), 3);
        let workload = QueryWorkload::generate(&live, QueryWorkloadConfig::new(8, 3), 17);
        for q in workload.iter() {
            let response = service.query(q.source, q.target, q.k).unwrap();
            assert_eq!(response.epoch, 3);
            let expected = yen_ksp(&live, q.source, q.target, q.k);
            assert_eq!(response.paths.len(), expected.len());
            for (a, b) in response.paths.iter().zip(expected.iter()) {
                assert!(a.distance().approx_eq(b.distance()));
            }
        }
    }

    #[test]
    fn invalid_requests_are_rejected_without_panicking_workers() {
        let (service, graph) = service(100, 2, 19);
        let bad = VertexId(graph.num_vertices() as u32 + 5);
        assert!(matches!(service.query(bad, VertexId(1), 2), Err(ServiceError::InvalidQuery(_))));
        assert!(matches!(service.query(VertexId(0), VertexId(1), 0), Err(ServiceError::InvalidK)));
        // Workers are still healthy afterwards.
        let ok = service.query(VertexId(0), VertexId(50), 1).unwrap();
        assert!(!ok.paths.is_empty());
    }

    #[test]
    fn failed_batch_leaves_masters_and_epochs_untouched() {
        use ksp_graph::{EdgeId, Weight, WeightUpdate};
        let (service, graph) = service(150, 2, 31);
        let valid_edge = EdgeId(0);
        let bogus_edge = EdgeId(graph.num_edges() as u32 + 100);
        // A batch that fails halfway: the valid update must NOT leak into any
        // future epoch.
        let poisoned = ksp_graph::UpdateBatch::new(vec![
            WeightUpdate::new(valid_edge, Weight::new(999.0)),
            WeightUpdate::new(bogus_edge, Weight::new(1.0)),
        ]);
        assert!(service.apply_batch(&poisoned).is_err());
        assert_eq!(service.current_epoch(), 0, "failed batch must not publish");

        // A follow-up valid batch publishes epoch 1, whose graph must match
        // the pristine graph plus only this batch.
        let fix =
            ksp_graph::UpdateBatch::new(vec![WeightUpdate::new(valid_edge, Weight::new(2.5))]);
        assert_eq!(service.apply_batch(&fix).unwrap(), 1);
        let snapshot = service.snapshot();
        let expected = graph.with_batch(&fix).unwrap();
        assert_eq!(snapshot.graph().weight(valid_edge), Weight::new(2.5));
        assert_eq!(snapshot.graph().total_weight(), expected.total_weight());
        // And queries still agree with Yen on that graph.
        let q = service.query(VertexId(0), VertexId(100), 2).unwrap();
        assert_eq!(q.epoch, 1);
        let want = yen_ksp(&expected, VertexId(0), VertexId(100), 2);
        assert_eq!(q.paths.len(), want.len());
        for (a, b) in q.paths.iter().zip(want.iter()) {
            assert!(a.distance().approx_eq(b.distance()));
        }
    }

    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ksp-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn apply_batch_returns_the_epoch_id_the_batch_produced() {
        let (service, graph) = service(150, 2, 41);
        let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.4, 0.4), 5);
        for expected in 1..=3u64 {
            let epoch = service.apply_batch(&traffic.next_snapshot()).unwrap();
            assert_eq!(epoch, expected, "apply_batch must report the produced epoch");
            assert_eq!(service.current_epoch(), epoch);
            // Answers carry the same epoch id.
            let response = service.query(VertexId(0), VertexId(60), 1).unwrap();
            assert_eq!(response.epoch, epoch);
        }
    }

    #[test]
    fn persistent_service_recovers_with_identical_answers() {
        let dir = temp_store_dir("recover");
        let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(160))
            .generate(23)
            .unwrap()
            .graph;
        let config = ServiceConfig::new(2, DtlpConfig::new(16, 2));
        let store_config = StoreConfig {
            checkpoint_interval: 2,
            sync: ksp_store::SyncPolicy::Never,
            ..StoreConfig::default()
        };
        let service =
            QueryService::start_with_store(graph.clone(), config, &dir, store_config).unwrap();
        assert!(service.is_persistent());
        let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), 9);
        for _ in 0..3 {
            service.apply_batch(&traffic.next_snapshot()).unwrap();
        }
        let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(8, 2), 3);
        let live: Vec<_> =
            workload.iter().map(|q| service.query(q.source, q.target, q.k).unwrap()).collect();
        drop(service); // crash/stop: recovery must rely only on the store

        let (recovered, report) = QueryService::open(&dir, config, store_config).unwrap();
        assert_eq!(recovered.current_epoch(), 3);
        // The background checkpointer imaged epoch 2, so recovery must not
        // replay all three batches from the log.
        assert_eq!(report.checkpoint_epoch, 2);
        assert_eq!(report.batches_replayed, 1);
        for (q, before) in workload.iter().zip(live.iter()) {
            let after = recovered.query(q.source, q.target, q.k).unwrap();
            assert_eq!(after.epoch, before.epoch);
            assert_eq!(after.paths.len(), before.paths.len());
            for (a, b) in after.paths.iter().zip(before.paths.iter()) {
                assert_eq!(a.vertices(), b.vertices());
                // Byte-identical, not merely approximately equal.
                assert_eq!(a.distance().value().to_bits(), b.distance().value().to_bits());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_service_keeps_publishing_and_checkpointing() {
        let dir = temp_store_dir("continue");
        let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(120))
            .generate(29)
            .unwrap()
            .graph;
        let config = ServiceConfig::new(1, DtlpConfig::new(14, 2));
        let store_config = StoreConfig {
            checkpoint_interval: 0, // only explicit checkpoints
            sync: ksp_store::SyncPolicy::Never,
            ..StoreConfig::default()
        };
        let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.4, 0.5), 2);
        {
            let service =
                QueryService::start_with_store(graph.clone(), config, &dir, store_config).unwrap();
            service.apply_batch(&traffic.next_snapshot()).unwrap();
            assert_eq!(service.checkpoint_now().unwrap(), Some(1));
            assert_eq!(service.last_checkpoint_epoch(), Some(1));
        }
        // Second life: recover, publish two more epochs, stop.
        {
            let (service, report) = QueryService::open(&dir, config, store_config).unwrap();
            assert_eq!(report.checkpoint_epoch, 1);
            assert_eq!(report.batches_replayed, 0);
            assert_eq!(service.apply_batch(&traffic.next_snapshot()).unwrap(), 2);
            assert_eq!(service.apply_batch(&traffic.next_snapshot()).unwrap(), 3);
        }
        // Third life: both post-checkpoint epochs replay from the log.
        let (service, report) = QueryService::open(&dir, config, store_config).unwrap();
        assert_eq!(report.batches_replayed, 2);
        assert_eq!(service.current_epoch(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn start_with_store_refuses_an_existing_store() {
        let dir = temp_store_dir("exists");
        let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(80))
            .generate(3)
            .unwrap()
            .graph;
        let config = ServiceConfig::new(1, DtlpConfig::new(12, 1));
        let store_config =
            StoreConfig { sync: ksp_store::SyncPolicy::Never, ..StoreConfig::default() };
        let first =
            QueryService::start_with_store(graph.clone(), config, &dir, store_config).unwrap();
        drop(first);
        assert!(matches!(
            QueryService::start_with_store(graph, config, &dir, store_config),
            Err(PublishError::Store(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn publish_shares_untouched_state_across_epochs() {
        use ksp_graph::{EdgeId, Weight, WeightUpdate};
        let (service, graph) = service(300, 2, 43);
        let before = service.snapshot();
        // One-edge batch: exactly one subgraph index may be copied.
        let batch =
            ksp_graph::UpdateBatch::new(vec![WeightUpdate::new(EdgeId(0), Weight::new(42.0))]);
        service.apply_batch(&batch).unwrap();
        let after = service.snapshot();

        assert!(after.graph().shares_topology_with(before.graph()), "graph structure is shared");
        let owner = before.index().owner_of_edge(EdgeId(0));
        let total = before.index().num_subgraphs();
        let shared = (0..total)
            .filter(|&i| {
                let id = ksp_graph::SubgraphId(i as u32);
                Arc::ptr_eq(
                    before.index().subgraph_index_handle(id),
                    after.index().subgraph_index_handle(id),
                )
            })
            .count();
        assert_eq!(shared, total - 1, "only the dirtied subgraph may be copied");
        assert!(!Arc::ptr_eq(
            before.index().subgraph_index_handle(owner),
            after.index().subgraph_index_handle(owner)
        ));
        // Even the dirtied subgraph copied only its weights: its edge records are
        // its own, its shape (vertices, adjacency, lookups, boundary) is shared.
        let (old, new) =
            (before.index().subgraph_index(owner), after.index().subgraph_index(owner));
        assert!(!Arc::ptr_eq(old.subgraph_handle(), new.subgraph_handle()));
        assert!(new.subgraph().shares_shape_with(old.subgraph()), "the subgraph was deep-copied");
        assert!(new.shares_structure_with(old), "the bounding-path shape was copied");
        // The published snapshot and the masters share one Arc pair: applying
        // the next batch forks off the published epoch, not a private copy.
        let masters_snapshot = service.snapshot();
        assert!(Arc::ptr_eq(after.graph(), masters_snapshot.graph()));
        assert!(Arc::ptr_eq(after.index(), masters_snapshot.index()));
        drop(graph);
    }

    #[test]
    fn metrics_report_carries_one_queue_gauge() {
        let (service, graph) = service(120, 3, 47);
        let t = VertexId(graph.num_vertices() as u32 - 1);
        for s in 0..6u32 {
            service.query(VertexId(s), t, 1).unwrap();
        }
        let report = service.metrics();
        // Three workers drain one queue, so there is one gauge.
        let [gauge] = report.queue_gauges[..] else { panic!("one queue, one gauge") };
        assert_eq!(gauge.max_depth, service.config().admission.max_queue_depth);
        assert!(gauge.high_water <= gauge.max_depth);
        assert!(gauge.depth <= gauge.high_water.max(1));
        assert!(gauge.saturation() <= 1.0);
        // At least one request sat in the queue at some point.
        assert!(gauge.high_water >= 1);
        let snap = service.obs_snapshot();
        assert_eq!(snap.gauge("ksp_queue_high_water"), Some(gauge.high_water as f64));
        assert_eq!(report.steals, 0, "no request moves between workers");
    }

    #[test]
    fn stage_histograms_telescope_to_the_end_to_end_histogram() {
        let (service, graph) = service(150, 2, 61);
        let t = VertexId(graph.num_vertices() as u32 - 1);
        // Eight misses run by the workers, then the same eight again as
        // hits answered inline at admission.
        for round in 0..2 {
            for s in 0..8u32 {
                let response = service.query(VertexId(s), t, 2).unwrap();
                assert_eq!(response.cache_hit, round == 1);
            }
        }
        let snap = service.obs_snapshot();
        assert_eq!(snap.end_to_end.count, 16);
        assert_eq!(snap.counter("ksp_cache_hits_total"), 8);
        let stage_total: u64 = snap.stages.iter().map(|s| s.histogram.total_micros).sum();
        // Spans share the submission Instant as their origin and the service
        // records the telescoped total as the e2e latency, so the per-stage
        // sums match the end-to-end histogram *exactly*, not approximately.
        assert_eq!(stage_total, snap.end_to_end.total_micros);
        // Every request passes every stage, an inline hit with a zero-width
        // queue stage.
        assert_eq!(snap.stages.len(), Stage::COUNT);
        for stage in &snap.stages {
            assert_eq!(stage.histogram.count, 16, "stage {}", stage.stage.name());
        }
        assert_eq!(snap.counter("ksp_requests_completed_total"), 16);
        assert!(snap.gauge("ksp_epoch_age_seconds").is_some());
    }

    #[test]
    fn inline_hits_are_admitted_but_never_feed_the_cost_estimator() {
        let (service, graph) = service(150, 2, 67);
        let t = VertexId(graph.num_vertices() as u32 - 1);
        assert!(!service.query(VertexId(0), t, 2).unwrap().cache_hit);
        let estimate = |snap: &ObsSnapshot| {
            snap.gauge("ksp_admission_est_service_micros").expect("the estimator gauge is exported")
        };
        let after_miss = estimate(&service.obs_snapshot());
        assert!(after_miss > 0.0, "the worker observed the miss it ran");
        for _ in 0..100 {
            assert!(service.query(VertexId(0), t, 2).unwrap().cache_hit);
        }
        // Hits that never queued say nothing about how fast a backlog drains.
        let snap = service.obs_snapshot();
        assert_eq!(estimate(&snap), after_miss);
        assert_eq!(snap.counter("ksp_cache_hits_total"), 100);
        // Every submitted request was either accepted or rejected.
        let report = service.metrics();
        assert_eq!(report.admission_accepted + report.rejected, 101);
        assert_eq!(report.completed, 101);
    }

    #[test]
    fn slo_breach_dumps_the_offending_span_chain() {
        let mut config = ServiceConfig::new(1, DtlpConfig::new(14, 2));
        // A 1ns SLO: every request breaches, so the first completion dumps.
        config.observability.slo_p99 = Duration::from_nanos(1);
        let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(120))
            .generate(9)
            .unwrap()
            .graph;
        let service = QueryService::start(graph.clone(), config).unwrap();
        let t = VertexId(graph.num_vertices() as u32 - 1);
        service.query(VertexId(0), t, 2).unwrap();
        let dump = service.observability().flight().last_dump().expect("breach dumps");
        assert_eq!(dump.cause.kind, EventKind::SloBreach);
        let chain = dump.span.expect("the dump carries the offending request's span chain");
        assert_eq!(chain.total_micros(), dump.cause.a, "cause payload is the e2e latency");
        let snap = service.obs_snapshot();
        assert!(snap.dump.is_some());
        assert_eq!(snap.counter("ksp_flight_dumps_total"), 1);
    }

    #[test]
    fn disabled_observability_stays_inert() {
        let mut config = ServiceConfig::new(2, DtlpConfig::new(14, 2));
        config.observability = ksp_obs::ObsConfig::disabled();
        let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(120))
            .generate(17)
            .unwrap()
            .graph;
        let service = QueryService::start(graph.clone(), config).unwrap();
        let t = VertexId(graph.num_vertices() as u32 - 1);
        for s in 0..4u32 {
            service.query(VertexId(s), t, 1).unwrap();
        }
        let mut traffic = TrafficModel::new(&graph, TrafficConfig::default(), 3);
        service.apply_batch(&traffic.next_snapshot()).unwrap();
        let snap = service.obs_snapshot();
        // The plain metrics still work; the obs machinery records nothing.
        assert_eq!(snap.counter("ksp_requests_completed_total"), 4);
        assert!(snap.stages.iter().all(|s| s.histogram.count == 0));
        assert_eq!(snap.counter("ksp_flight_events_total"), 0);
        assert!(snap.dump.is_none());
        // The e2e histogram still fills (it predates ksp-obs).
        assert_eq!(snap.end_to_end.count, 4);
    }

    #[test]
    fn publishes_reach_the_flight_ring() {
        let (service, graph) = service(150, 2, 71);
        let mut traffic = TrafficModel::new(&graph, TrafficConfig::default(), 5);
        service.apply_batch(&traffic.next_snapshot()).unwrap();
        service.apply_batch(&traffic.next_snapshot()).unwrap();
        let events = service.observability().flight().snapshot();
        let published =
            events.iter().filter(|e| e.kind == EventKind::EpochPublished).collect::<Vec<_>>();
        assert_eq!(published.len(), 2);
        assert_eq!(published[0].a, 1, "payload a is the epoch");
        assert_eq!(published[1].a, 2);
        assert!(events.iter().any(|e| e.kind == EventKind::CacheRetention));
    }

    /// A request with a probe reply, for driving the queue directly.
    fn probe_request(replies: &mpsc::Sender<Outcome>) -> Request {
        let replies = replies.clone();
        Request {
            source: VertexId(0),
            target: VertexId(1),
            k: 1,
            submitted: Instant::now(),
            span: StageSpan::disabled(),
            trace_id: 0,
            stripe: 0,
            reply: Reply::new(move |outcome| {
                let _ = replies.send(outcome);
            }),
        }
    }

    #[test]
    fn last_worker_out_closes_and_drains_the_queue() {
        let queue = BoundedQueue::new(4);
        let live_workers = AtomicUsize::new(2);
        let (replies, outcomes) = mpsc::channel();
        let first = CloseQueueOnExit { queue: &queue, live_workers: &live_workers };
        let second = CloseQueueOnExit { queue: &queue, live_workers: &live_workers };
        // One worker gone (a panic, say): the other still drains the queue.
        drop(first);
        assert!(queue.submit(probe_request(&replies)).is_ok(), "submissions still accepted");
        assert_eq!(queue.depth(), 1);
        assert!(outcomes.try_recv().is_err(), "the queued request is not answered yet");
        // The last one out closes the queue and drains it with ShuttingDown.
        drop(second);
        assert_eq!(queue.depth(), 0);
        assert!(matches!(outcomes.try_recv(), Ok(Err(ServiceError::ShuttingDown))));
        assert!(queue.submit(probe_request(&replies)).is_err(), "a closed queue rejects");
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 7, 16] {
            for s in 0..20u32 {
                for t in 0..20u32 {
                    let a = route_shard(VertexId(s), VertexId(t), 3, shards);
                    let b = route_shard(VertexId(s), VertexId(t), 3, shards);
                    assert_eq!(a, b);
                    assert!(a < shards);
                }
            }
        }
    }
}
