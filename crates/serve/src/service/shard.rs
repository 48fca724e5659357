//! The shard worker: a queued request, its reply callback, and the worker
//! loop that answers it against the current epoch.

use super::{Observability, Pool, QueryResponse, ServiceError};
use crate::admission::{AdmissionController, BoundedQueue};
use crate::cache::CacheKey;
use crate::epoch::EpochPointer;
use crate::metrics::ServiceMetrics;
use ksp_algo::Path;
use ksp_core::kspdg::{KspDgConfig, KspDgEngine, QueryStats};
use ksp_graph::VertexId;
use ksp_obs::{EventKind, Stage, StageSpan};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::PoisonError;
use std::time::Instant;

pub(super) struct Request {
    pub(super) source: VertexId,
    pub(super) target: VertexId,
    pub(super) k: usize,
    pub(super) submitted: Instant,
    /// Stage clock of this request; shares `submitted` as its origin so the
    /// per-stage durations telescope to the recorded end-to-end latency.
    pub(super) span: StageSpan<Stage>,
    /// The caller's trace id (zero when untraced); stamped into any flight
    /// dump this request triggers so a remote client can resolve its own
    /// trace ids to server-side span chains.
    pub(super) trace_id: u64,
    /// The home cache stripe: the admission lookup and the worker's insert
    /// both use it.
    pub(super) stripe: usize,
    pub(super) reply: Reply,
}

/// Where one query's outcome goes: a callback run exactly once — inline by
/// [`QueryService::submit`] on the submitting thread for a current cache hit
/// or a rejected or invalid query, by the shard worker that answered it
/// otherwise, and with [`ServiceError::ShuttingDown`] if it is dropped
/// uncalled (the queue drained when its last worker exits). It runs on whichever thread
/// submitted (the event loop's poller among them) or on a shard worker, so
/// it must never block and never own the service: the last service handle
/// dropped on a shard worker would join the very thread it runs on.
///
/// [`QueryService::submit`]: super::QueryService::submit
pub(crate) struct Reply(Option<Box<dyn FnOnce(Outcome) + Send>>);

/// What a [`Reply`] receives.
pub(super) type Outcome = Result<QueryResponse, ServiceError>;

impl Reply {
    pub(crate) fn new(f: impl FnOnce(Outcome) + Send + 'static) -> Self {
        Reply(Some(Box::new(f)))
    }

    pub(super) fn send(mut self, outcome: Outcome) {
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

/// Counts a shard worker out when it exits — including by panic. A worker
/// that panics while others run leaves the queue open for them; the last
/// worker out closes the queue and drains it. Dropping the drained requests
/// drops their [`Reply`]s, which answer [`ServiceError::ShuttingDown`], so no
/// caller waits forever on a queue no worker drains.
pub(super) struct CloseQueueOnExit<'a> {
    pub(super) queue: &'a BoundedQueue<Request>,
    pub(super) live_workers: &'a AtomicUsize,
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
pub(super) struct WorkerContext<'a> {
    pub(super) pool: &'a Pool,
    pub(super) epoch: &'a EpochPointer,
    pub(super) metrics: &'a ServiceMetrics,
    pub(super) obs: &'a Observability,
    pub(super) admission: &'a AdmissionController,
}

pub(super) fn shard_main(ctx: &WorkerContext<'_>) {
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
///
/// [`QueryService::submit`]: super::QueryService::submit
pub(super) fn answer(
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
