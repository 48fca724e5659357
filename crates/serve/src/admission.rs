//! The bounded request queue and admission control.
//!
//! The service owns one [`BoundedQueue`], drained by every shard worker.
//! Producers (`submit`) are rejected with [`QueueFull`] once the queue holds
//! `max_depth` requests — backpressure the client observes immediately
//! instead of unbounded queueing delay. A worker blocks on the queue's
//! condvar and pops one request per wake, so no request waits while a worker
//! idles.
//!
//! On top of the static cap sits the **adaptive controller**
//! ([`AdmissionController`]): it keeps an EWMA of recent engine-run service
//! times ([`CostEstimator`]) and predicts each arriving miss's end-to-end
//! latency as
//!
//! ```text
//! predicted = (backlog_per_worker + 1) × engine_run_service_time
//! ```
//!
//! where `backlog_per_worker` is the queue depth divided among the workers
//! draining it, rounded up. Only misses queue, so only engine runs feed the
//! estimator: a current cache hit is answered at admission, waits behind no
//! backlog and is always admitted. When the prediction breaches the
//! `slo_p99`-derived budget the request is rejected *before* it queues, with
//! a `retry_after_ms` hint telling the client how far over budget the
//! backlog currently is. Overload thus shows up as fast typed rejections
//! instead of SLO breaches on admitted work.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Admission-control settings of the request queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum number of queued (admitted but not yet executing) requests;
    /// submissions beyond this are rejected.
    pub max_queue_depth: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { max_queue_depth: 1024 }
    }
}

impl AdmissionConfig {
    /// Validates the configuration.
    pub fn validate(&self) {
        assert!(self.max_queue_depth >= 1, "max_queue_depth must be at least 1");
    }
}

/// Rejection marker: the queue is at its configured depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The configured depth that was reached.
    pub depth: usize,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Deepest the queue has ever been; the backlog gauge adaptive admission
    /// control will key off (a depth that *reached* the cap tells the operator
    /// the configured depth, not the default, is the binding constraint).
    high_water: usize,
}

/// A bounded MPMC queue: many submitting clients, many draining workers.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    max_depth: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue admitting at most `max_depth` pending items.
    pub fn new(max_depth: usize) -> Self {
        assert!(max_depth >= 1, "queue depth must be at least 1");
        BoundedQueue {
            state: Mutex::new(QueueState { items: VecDeque::new(), closed: false, high_water: 0 }),
            ready: Condvar::new(),
            max_depth,
        }
    }

    /// Number of currently queued items.
    pub fn depth(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).items.len()
    }

    /// The deepest the queue has ever been (admitted items waiting at once).
    pub fn high_water(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).high_water
    }

    /// Admits `item`, or rejects it if the queue is full or closed.
    ///
    /// On rejection the item is handed back so the caller can fail the request
    /// without losing its reply channel.
    pub fn submit(&self, item: T) -> Result<(), (T, QueueFull)> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed || state.items.len() >= self.max_depth {
            return Err((item, QueueFull { depth: self.max_depth }));
        }
        state.items.push_back(item);
        state.high_water = state.high_water.max(state.items.len());
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item is available and takes the oldest. Returns
    /// `None` once the queue is closed and empty: a closed queue still hands
    /// out what it holds.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: further submissions are rejected and the workers
    /// drain what remains, then observe the shutdown.
    pub fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.ready.notify_all();
    }
}

/// EWMA shift: each sample moves the average by 1/8 of the residual. Small
/// enough to ride out one-off outliers, large enough that a phase change
/// (e.g. a publish storm evicting the cache) re-converges within ~20 samples.
const EWMA_SHIFT: u32 = 3;

/// Engine-run service-time estimator.
///
/// Workers feed it one sample per engine run ([`CostEstimator::observe`]);
/// the admission path reads it lock-free. The EWMA is a plain relaxed
/// load/store cell — a lost update under contention nudges the average by
/// one sample and is harmless, which is the price of keeping the hot path at
/// two atomic ops.
#[derive(Debug, Default)]
pub struct CostEstimator {
    /// EWMA of engine-run service time, nanoseconds; 0 = no samples yet.
    nanos: AtomicU64,
}

impl CostEstimator {
    /// Creates an estimator with no samples (it estimates zero until the
    /// first observation, and the controller admits blind).
    pub fn new() -> Self {
        CostEstimator::default()
    }

    /// Feeds one engine run's service time (cache lookup + engine work,
    /// excluding queue wait) into the EWMA.
    pub fn observe(&self, service_time: Duration) {
        let sample = service_time.as_nanos().min(u64::MAX as u128) as u64;
        let old = self.nanos.load(Ordering::Relaxed);
        let new = if old == 0 {
            // First sample seeds the average directly; a warm-up ramp from
            // zero would under-admit nothing but under-predict for dozens of
            // requests.
            sample
        } else {
            old - (old >> EWMA_SHIFT) + (sample >> EWMA_SHIFT)
        };
        self.nanos.store(new.max(1), Ordering::Relaxed);
    }

    /// The current EWMA, in nanoseconds; zero until the first sample.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

/// One adaptive rejection: the prediction, the budget it breached, and the
/// client-facing backoff hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionRejection {
    /// Predicted end-to-end latency had the request been admitted.
    pub estimated_wait: Duration,
    /// The SLO-derived budget the prediction breached.
    pub budget: Duration,
    /// Suggested client backoff: how far over budget the backlog currently
    /// is, in milliseconds, clamped to `[1, 60_000]`.
    pub retry_after_ms: u64,
    /// Whether this rejection *entered* a breach episode (the previous
    /// decision admitted). Edge-triggered, so the caller can take one flight
    /// dump per episode instead of one per rejected request.
    pub entered_breach: bool,
}

/// Verdict of the adaptive controller for one arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Predicted latency fits the budget (or the controller is disabled /
    /// has no signal yet): enqueue.
    Admit,
    /// Predicted latency breaches the budget: reject with a typed
    /// `Overloaded { retry_after_ms }` before the request queues.
    Reject(AdmissionRejection),
}

/// SLO-driven admission controller (see the module docs for the formula).
/// One per service, shared by the submit path (decisions) and every shard
/// worker (service-time observations).
#[derive(Debug)]
pub struct AdmissionController {
    estimator: CostEstimator,
    /// The latency budget in nanoseconds; 0 disables adaptive admission
    /// (static queue cap only).
    budget_nanos: u64,
    /// Whether the last decision rejected — breach episodes are
    /// edge-triggered for flight-dump purposes.
    in_breach: AtomicBool,
}

/// Ceiling of the `retry_after_ms` hint: a backlog predicted to take longer
/// than a minute signals misconfiguration, not a retry opportunity.
const MAX_RETRY_AFTER_MS: u64 = 60_000;

impl AdmissionController {
    /// A controller with the given latency budget. Pass the service's
    /// `ObsConfig::slo_p99` (zero = disabled): a request predicted to finish
    /// within the SLO is admitted, one predicted to breach it is rejected.
    pub fn new(budget: Duration) -> Self {
        AdmissionController {
            estimator: CostEstimator::new(),
            budget_nanos: budget.as_nanos().min(u64::MAX as u128) as u64,
            in_breach: AtomicBool::new(false),
        }
    }

    /// The service-time estimator, for workers to feed.
    pub fn estimator(&self) -> &CostEstimator {
        &self.estimator
    }

    /// Decides one arriving miss, which would queue for an engine run behind
    /// `backlog` queued requests per worker.
    pub fn assess(&self, backlog: usize) -> AdmissionVerdict {
        if self.budget_nanos == 0 {
            return AdmissionVerdict::Admit;
        }
        let per_item = self.estimator.nanos();
        if per_item == 0 {
            // No engine run completed yet: nothing to predict with; admit.
            return AdmissionVerdict::Admit;
        }
        let predicted_nanos = (backlog as u64).saturating_add(1).saturating_mul(per_item);
        if predicted_nanos <= self.budget_nanos {
            self.in_breach.store(false, Ordering::Relaxed);
            return AdmissionVerdict::Admit;
        }
        let over_ms = (predicted_nanos - self.budget_nanos).div_ceil(1_000_000);
        AdmissionVerdict::Reject(AdmissionRejection {
            estimated_wait: Duration::from_nanos(predicted_nanos),
            budget: Duration::from_nanos(self.budget_nanos),
            retry_after_ms: over_ms.clamp(1, MAX_RETRY_AFTER_MS),
            entered_breach: !self.in_breach.swap(true, Ordering::Relaxed),
        })
    }

    /// Backoff hint for a *static-cap* rejection (the queue hit
    /// `max_queue_depth`): the predicted time to drain `backlog` requests per
    /// worker, in milliseconds. Zero when no engine run has completed yet,
    /// which the wire reads as "no hint".
    pub fn queue_full_hint_ms(&self, backlog: usize) -> u64 {
        let per_item = self.estimator.nanos();
        if per_item == 0 {
            return 0;
        }
        ((backlog as u64).saturating_mul(per_item).div_ceil(1_000_000)).clamp(1, MAX_RETRY_AFTER_MS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn submissions_beyond_depth_are_rejected() {
        let q = BoundedQueue::new(2);
        q.submit(1).unwrap();
        q.submit(2).unwrap();
        let (item, err) = q.submit(3).unwrap_err();
        assert_eq!(item, 3);
        assert_eq!(err.depth, 2);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn high_water_tracks_the_deepest_backlog() {
        let q = BoundedQueue::new(8);
        assert_eq!(q.high_water(), 0);
        q.submit(1).unwrap();
        q.submit(2).unwrap();
        q.submit(3).unwrap();
        assert_eq!(q.high_water(), 3);
        // Draining lowers the depth but never the high-water mark.
        assert_eq!((q.pop(), q.pop()), (Some(1), Some(2)));
        assert_eq!(q.depth(), 1);
        assert_eq!(q.high_water(), 3);
        q.submit(4).unwrap();
        assert_eq!(q.high_water(), 3, "2 queued now; the mark stays at 3");
    }

    #[test]
    fn pop_takes_one_item_in_arrival_order() {
        let q = BoundedQueue::new(8);
        for i in 0..3 {
            q.submit(i).unwrap();
        }
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.depth(), 2, "one item per pop");
        assert_eq!((q.pop(), q.pop()), (Some(1), Some(2)));
    }

    #[test]
    fn close_wakes_blocked_worker_and_rejects_producers() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || q.pop())
        };
        // Give the worker a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(worker.join().unwrap(), None);
        assert!(q.submit(1).is_err());
    }

    #[test]
    fn close_lets_worker_drain_remaining_items() {
        let q = BoundedQueue::new(4);
        q.submit(7).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(7));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn estimator_converges_toward_a_shifted_service_time() {
        let e = CostEstimator::new();
        assert_eq!(e.nanos(), 0, "no samples, no estimate");
        e.observe(Duration::from_micros(100));
        assert_eq!(e.nanos(), 100_000, "the first sample seeds the average");
        for _ in 0..100 {
            e.observe(Duration::from_micros(900));
        }
        let est = e.nanos();
        assert!(
            (800_000..=1_000_000).contains(&est),
            "EWMA should have re-converged near 900µs, got {est}ns"
        );
    }

    #[test]
    fn controller_admits_blind_and_rejects_on_predicted_breach() {
        let c = AdmissionController::new(Duration::from_millis(10));
        // No completed request yet: no signal, admit anything.
        assert_eq!(c.assess(10_000), AdmissionVerdict::Admit);
        // 1ms per queued item: backlog 5 predicts ~6ms, within the 10ms budget.
        for _ in 0..8 {
            c.estimator().observe(Duration::from_millis(1));
        }
        assert_eq!(c.assess(5), AdmissionVerdict::Admit);
        // Backlog 50 predicts ~51ms: over budget, with a ceil'd backoff hint.
        match c.assess(50) {
            AdmissionVerdict::Reject(r) => {
                assert!(r.estimated_wait > r.budget);
                assert!(r.retry_after_ms >= 1);
                assert!(r.entered_breach, "first rejection opens the episode");
            }
            v => panic!("expected rejection, got {v:?}"),
        }
    }

    #[test]
    fn breach_episodes_are_edge_triggered() {
        let c = AdmissionController::new(Duration::from_millis(1));
        c.estimator().observe(Duration::from_millis(1));
        let first = c.assess(100);
        let second = c.assess(100);
        match (first, second) {
            (AdmissionVerdict::Reject(a), AdmissionVerdict::Reject(b)) => {
                assert!(a.entered_breach);
                assert!(!b.entered_breach, "episode already open");
            }
            other => panic!("expected two rejections, got {other:?}"),
        }
        // An admit closes the episode; the next rejection re-enters it.
        assert_eq!(c.assess(0), AdmissionVerdict::Admit);
        match c.assess(100) {
            AdmissionVerdict::Reject(r) => assert!(r.entered_breach),
            v => panic!("expected rejection, got {v:?}"),
        }
    }

    #[test]
    fn disabled_controller_admits_everything_but_still_hints() {
        let c = AdmissionController::new(Duration::ZERO);
        c.estimator().observe(Duration::from_millis(2));
        assert_eq!(c.assess(1_000_000), AdmissionVerdict::Admit);
        // The static-cap hint still works off the estimator: 64 × 2ms = 128ms.
        assert_eq!(c.queue_full_hint_ms(64), 128);
        assert_eq!(AdmissionController::new(Duration::ZERO).queue_full_hint_ms(64), 0);
    }
}
