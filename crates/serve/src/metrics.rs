//! Latency/throughput metrics for the serving subsystem.
//!
//! Everything on the hot path is an atomic counter: workers record into a
//! log-scale latency histogram and plain counters without locks, and
//! [`ServiceMetrics::report`] folds the counters into the summary the
//! operator cares about — p50/p95/p99 latency, cache hit rate, admission
//! rejections and epochs published.
//!
//! The histogram type itself lives in `ksp-obs` (re-exported here), which also
//! supplies the per-stage histograms ([`StageHistograms`]) that span chains
//! of both paths aggregate into alongside the end-to-end ones.
//!
//! **Counter semantics.** Every `u64` counter in [`MetricsReport`] —
//! `completed`, `rejected`, `cache_hits`, `cache_misses`, `epochs_published`,
//! `cache_retained`, `cache_evicted` — is *cumulative-monotonic*
//! over the service's lifetime: it only ever grows, and a report is a
//! point-in-time snapshot of the running totals. Per-interval figures are the
//! difference of two reports, never a counter reset.

use crate::QueryService;
pub use ksp_obs::LatencyHistogram;
use ksp_obs::{Counter, Gauge, ObsSnapshot, PublishStage, Stage, StageHistograms};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// All counters of one [`crate::QueryService`].
#[derive(Debug)]
pub struct ServiceMetrics {
    /// End-to-end latency of completed requests (queueing + compute).
    pub latency: LatencyHistogram,
    /// Per-stage latency histograms, populated from finished request span
    /// chains when observability is enabled.
    pub stages: StageHistograms<Stage>,
    /// Per-write-path-stage latency histograms, populated from finished
    /// publish span chains when observability is enabled.
    pub publish_stages: StageHistograms<PublishStage>,
    /// End-to-end publish latency (batch submission through retention, plus
    /// checkpoint encode/commit for checkpoint epochs). The write-path stage
    /// histograms telescope to exactly this distribution.
    pub publish_latency: LatencyHistogram,
    /// Completed requests.
    pub completed: AtomicU64,
    /// Requests the admission path accepted: answered inline or queued.
    pub admission_accepted: AtomicU64,
    /// Rejections from the static queue cap (the queue held `max_queue_depth`
    /// requests).
    pub admission_rejected_queue_full: AtomicU64,
    /// Rejections from the adaptive controller (predicted latency breached
    /// the SLO budget before the request queued).
    pub admission_rejected_predicted: AtomicU64,
    /// Requests answered from the result cache.
    pub cache_hits: AtomicU64,
    /// Requests that had to run the engine.
    pub cache_misses: AtomicU64,
    /// Epochs published (excluding the initial build).
    pub epochs_published: AtomicU64,
    /// Cache entries re-stamped (kept servable) across epoch publishes by
    /// dirty-set retention, summed over all cache stripes.
    pub cache_retained: AtomicU64,
    /// Cache entries evicted at epoch publishes (dirty or incomplete trace,
    /// or stamped older than the previous epoch), summed over all cache
    /// stripes.
    pub cache_evicted: AtomicU64,
    /// When these metrics were created (service boot).
    started: Instant,
    /// Microseconds after `started` at which the last epoch publish
    /// completed; 0 until the first publish (the boot epoch counts as
    /// published at boot).
    last_publish_micros: AtomicU64,
}

/// Zeroed metrics, their clock started now.
impl Default for ServiceMetrics {
    fn default() -> Self {
        ServiceMetrics {
            latency: LatencyHistogram::default(),
            stages: StageHistograms::default(),
            publish_stages: StageHistograms::default(),
            publish_latency: LatencyHistogram::default(),
            completed: AtomicU64::new(0),
            admission_accepted: AtomicU64::new(0),
            admission_rejected_queue_full: AtomicU64::new(0),
            admission_rejected_predicted: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            epochs_published: AtomicU64::new(0),
            cache_retained: AtomicU64::new(0),
            cache_evicted: AtomicU64::new(0),
            started: Instant::now(),
            last_publish_micros: AtomicU64::new(0),
        }
    }
}

impl ServiceMetrics {
    /// Stamps "an epoch was just published" for the staleness gauge.
    pub fn note_publish(&self) {
        let now = self.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.last_publish_micros.fetch_max(now, Ordering::Relaxed);
    }

    /// Time since the last epoch publish (since boot, before the first one).
    pub fn epoch_age(&self) -> Duration {
        let now = self.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        Duration::from_micros(now.saturating_sub(self.last_publish_micros.load(Ordering::Relaxed)))
    }

    /// Folds the live counters into an immutable report.
    pub fn report(&self) -> MetricsReport {
        let completed = self.completed.load(Ordering::Relaxed);
        let hits = self.cache_hits.load(Ordering::Relaxed);
        let misses = self.cache_misses.load(Ordering::Relaxed);
        let queue_full = self.admission_rejected_queue_full.load(Ordering::Relaxed);
        let predicted = self.admission_rejected_predicted.load(Ordering::Relaxed);
        MetricsReport {
            completed,
            rejected: queue_full + predicted,
            admission_accepted: self.admission_accepted.load(Ordering::Relaxed),
            admission_rejected_queue_full: queue_full,
            admission_rejected_predicted: predicted,
            cache_hits: hits,
            cache_misses: misses,
            epochs_published: self.epochs_published.load(Ordering::Relaxed),
            cache_retained: self.cache_retained.load(Ordering::Relaxed),
            cache_evicted: self.cache_evicted.load(Ordering::Relaxed),
            steals: 0,
            epoch_age: self.epoch_age(),
            p50: self.latency.quantile(0.50),
            p95: self.latency.quantile(0.95),
            p99: self.latency.quantile(0.99),
            mean: self.latency.mean(),
            max: self.latency.max(),
            queue_gauges: Vec::new(),
        }
    }
}

/// Point-in-time backlog gauges of the service's request queue.
///
/// The current depth is the instantaneous queueing-delay signal, and the
/// high-water mark tells the operator how close the queue has come to its
/// configured rejection depth since the service started.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueGauge {
    /// Requests admitted and waiting right now.
    pub depth: usize,
    /// Deepest the queue has ever been.
    pub high_water: usize,
    /// The configured depth at which submissions are rejected.
    pub max_depth: usize,
}

impl QueueGauge {
    /// High-water backlog as a fraction of the configured depth, in `[0, 1]`.
    /// A value near 1 means admission control has been the binding constraint.
    pub fn saturation(&self) -> f64 {
        if self.max_depth == 0 {
            0.0
        } else {
            self.high_water as f64 / self.max_depth as f64
        }
    }
}

/// A point-in-time summary of a service's metrics. All `u64` counters are
/// cumulative-monotonic (see the module docs).
///
/// This is the in-process view ([`QueryService::metrics`]). Remote callers
/// read the same numbers as counters and gauges of the `ObsSnapshot` wire
/// response, which [`QueryService::obs_snapshot`] builds from this report.
///
/// [`QueryService::metrics`]: crate::QueryService::metrics
/// [`QueryService::obs_snapshot`]: crate::QueryService::obs_snapshot
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Requests answered.
    pub completed: u64,
    /// Requests rejected by admission control (static cap + adaptive, total).
    pub rejected: u64,
    /// Requests accepted: answered inline or queued.
    pub admission_accepted: u64,
    /// Rejections from the static queue cap.
    pub admission_rejected_queue_full: u64,
    /// Rejections from the adaptive controller's SLO-budget prediction.
    pub admission_rejected_predicted: u64,
    /// Requests served from the result cache.
    pub cache_hits: u64,
    /// Requests that ran the engine.
    pub cache_misses: u64,
    /// Epochs published since the service started.
    pub epochs_published: u64,
    /// Cache entries that survived epoch publishes via dirty-set retention.
    pub cache_retained: u64,
    /// Cache entries dropped at epoch publishes.
    pub cache_evicted: u64,
    /// Always 0: every worker drains the one request queue, so no request
    /// moves between workers. Kept because the ledger's `serve.steals` row
    /// reads it.
    pub steals: u64,
    /// Time since the last epoch publish when the report was taken (time
    /// since boot, before the first publish) — the staleness gauge a replica
    /// or freshness SLO watches.
    pub epoch_age: Duration,
    /// Median end-to-end latency.
    pub p50: Duration,
    /// 95th-percentile end-to-end latency.
    pub p95: Duration,
    /// 99th-percentile end-to-end latency.
    pub p99: Duration,
    /// Mean end-to-end latency.
    pub mean: Duration,
    /// Worst observed end-to-end latency.
    pub max: Duration,
    /// The request queue's backlog gauge, one entry (empty when the report
    /// was produced directly from [`ServiceMetrics::report`], which cannot
    /// see the queue; [`crate::QueryService::metrics`] fills it in).
    pub queue_gauges: Vec<QueueGauge>,
}

impl MetricsReport {
    /// Fraction of completed requests answered from the cache, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let denom = self.cache_hits + self.cache_misses;
        if denom == 0 {
            0.0
        } else {
            self.cache_hits as f64 / denom as f64
        }
    }
}

impl QueryService {
    /// A full observability snapshot: per-stage latency histograms, the
    /// end-to-end histogram, every counter and gauge the service exports, and
    /// the latest flight-recorder dump. This is the payload behind the wire
    /// `ObsSnapshot` request; render it with [`ksp_obs::render_prometheus`]
    /// for scrapers that speak the Prometheus text format.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let report = self.metrics();
        let flight = self.obs.flight();
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
            // What queries memoised on the published epoch's weights: partial
            // paths per subgraph and distances per target (an estimate).
            Gauge {
                name: "ksp_memo_bytes".to_string(),
                labels: String::new(),
                value: self.snapshot().index().memo_bytes() as f64,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_computes_hit_rate_and_shard_loads() {
        let m = ServiceMetrics::default();
        m.cache_hits.fetch_add(3, Ordering::Relaxed);
        m.cache_misses.fetch_add(1, Ordering::Relaxed);
        m.completed.fetch_add(4, Ordering::Relaxed);
        m.latency.record(Duration::from_millis(2));
        let report = m.report();
        assert!((report.cache_hit_rate() - 0.75).abs() < 1e-9);
        assert!(report.p50 > Duration::ZERO);
    }

    #[test]
    fn report_surfaces_the_rejected_admission_counter() {
        // Regression guard: overload must stay observable — every rejection
        // the admission path counts, whatever its cause, has to reach the
        // report's `rejected` total (and from there the wire `ObsSnapshot`
        // response) unchanged.
        let m = ServiceMetrics::default();
        m.admission_rejected_queue_full.fetch_add(5, Ordering::Relaxed);
        m.completed.fetch_add(2, Ordering::Relaxed);
        assert_eq!(m.report().rejected, 5);
        m.admission_rejected_predicted.fetch_add(1, Ordering::Relaxed);
        assert_eq!(m.report().rejected, 6);
    }

    #[test]
    fn report_splits_admission_counters_by_cause() {
        // The split (static cap vs adaptive SLO-budget prediction) plus the
        // accepted count must each reach the report for the `ksp_admission_*`
        // exposition families, and the total `rejected` is their sum, so
        // overload stays observable on the wire.
        let m = ServiceMetrics::default();
        m.admission_accepted.fetch_add(10, Ordering::Relaxed);
        m.admission_rejected_queue_full.fetch_add(3, Ordering::Relaxed);
        m.admission_rejected_predicted.fetch_add(4, Ordering::Relaxed);
        m.completed.fetch_add(2, Ordering::Relaxed);
        let report = m.report();
        assert_eq!(report.admission_accepted, 10);
        assert_eq!(report.admission_rejected_queue_full, 3);
        assert_eq!(report.admission_rejected_predicted, 4);
        assert_eq!(report.rejected, 7);
    }

    #[test]
    fn report_surfaces_retention_counters() {
        // Regression guard for the cache-survival telemetry: publish-time
        // retention totals must reach the report (and from there the wire
        // `ObsSnapshot` response).
        let m = ServiceMetrics::default();
        m.cache_retained.fetch_add(17, Ordering::Relaxed);
        m.cache_evicted.fetch_add(3, Ordering::Relaxed);
        let report = m.report();
        assert_eq!(report.cache_retained, 17);
        assert_eq!(report.cache_evicted, 3);
    }

    #[test]
    fn epoch_age_resets_on_publish() {
        let m = ServiceMetrics::default();
        std::thread::sleep(Duration::from_millis(5));
        let before = m.epoch_age();
        assert!(before >= Duration::from_millis(5), "age accrues from boot: {before:?}");
        m.note_publish();
        let after = m.epoch_age();
        assert!(after < before, "publish resets the staleness gauge");
        assert!(m.report().epoch_age >= after);
    }

    #[test]
    fn queue_gauge_saturation_is_a_fraction_of_the_cap() {
        let gauge = QueueGauge { depth: 3, high_water: 48, max_depth: 64 };
        assert!((gauge.saturation() - 0.75).abs() < 1e-9);
        assert_eq!(QueueGauge::default().saturation(), 0.0);
    }
}
