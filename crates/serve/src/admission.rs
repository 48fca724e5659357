//! Bounded request queues with admission control.
//!
//! Each shard owns one [`BoundedQueue`]. Producers (`submit`) are rejected with
//! [`QueueFull`] once the queue holds `max_depth` requests — backpressure the
//! client observes immediately instead of unbounded queueing delay. The shard's
//! worker drains requests in batches, which lets it load the current epoch
//! once (and take its cache lock once) per batch instead of per request.
//!
//! For the work-stealing scheduler the queue additionally supports a timed
//! drain ([`BoundedQueue::pop_batch_timeout`]) — an idle worker wakes after
//! the timeout to look for a victim — and a non-blocking
//! [`BoundedQueue::steal_batch`] that removes the *oldest* queued requests, so
//! a thief always relieves the requests that have waited longest (the ones
//! driving the victim's tail latency).
//!
//! On top of the static cap sits the **adaptive controller**
//! ([`AdmissionController`]): it keeps a per-cost-class EWMA of recent service
//! times ([`CostEstimator`]) — a request whose trace-checked cache entry
//! survived costs microseconds, an evicted/incomplete one costs a full engine
//! run — and predicts each arriving request's end-to-end latency as
//!
//! ```text
//! predicted = queue_depth × blended_service_time + engine_run_service_time
//! ```
//!
//! The service asks only about requests that would queue, and only misses
//! queue, so a request's own term is an engine run: a current cache hit is
//! answered at admission, waits behind no backlog and is always admitted. When the prediction breaches the `slo_p99`-derived budget the
//! request is rejected *before* it queues, with a `retry_after_ms` hint telling the
//! client how far over budget the backlog currently is. Overload thus shows up
//! as fast typed rejections instead of SLO breaches on admitted work.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Admission-control settings for every shard queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum number of queued (admitted but not yet executing) requests per
    /// shard; submissions beyond this are rejected.
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

/// Rejection marker: the shard's queue is at its configured depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The configured depth that was reached.
    pub depth: usize,
}

/// Outcome of a [`BoundedQueue::pop_batch_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum TimedPop<T> {
    /// At least one item arrived within the timeout.
    Items(Vec<T>),
    /// The queue stayed empty for the whole timeout; the caller may steal.
    TimedOut,
    /// The queue is closed and drained; the worker should exit.
    Closed,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Deepest the queue has ever been; the backlog gauge adaptive admission
    /// control will key off (a depth that *reached* the cap tells the operator
    /// the configured depth, not the default, is the binding constraint).
    high_water: usize,
}

/// A bounded MPSC queue: many submitting clients, one draining worker.
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

    /// Blocks until at least one item is available, then drains up to
    /// `max_batch` items. Returns `None` once the queue is closed and empty.
    pub fn pop_batch(&self, max_batch: usize) -> Option<Vec<T>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !state.items.is_empty() {
                let take = state.items.len().min(max_batch.max(1));
                return Some(state.items.drain(..take).collect());
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Like [`BoundedQueue::pop_batch`], but waits at most `timeout` for an
    /// item. [`TimedPop::TimedOut`] tells an idle worker it is free to go
    /// looking for steal victims; [`TimedPop::Closed`] is terminal.
    pub fn pop_batch_timeout(&self, max_batch: usize, timeout: Duration) -> TimedPop<T> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if !state.items.is_empty() {
                let take = state.items.len().min(max_batch.max(1));
                return TimedPop::Items(state.items.drain(..take).collect());
            }
            if state.closed {
                return TimedPop::Closed;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return TimedPop::TimedOut;
            }
            let (next, wait) =
                self.ready.wait_timeout(state, deadline - now).unwrap_or_else(|e| e.into_inner());
            state = next;
            if wait.timed_out() && state.items.is_empty() && !state.closed {
                return TimedPop::TimedOut;
            }
        }
    }

    /// Steals up to `max` of the *oldest* queued items without blocking.
    /// Returns `None` when there is nothing to steal. Closed queues can still
    /// be stolen from: draining a dead shard's backlog is exactly what the
    /// thief is for during shutdown races.
    pub fn steal_batch(&self, max: usize) -> Option<Vec<T>> {
        if max == 0 {
            return None;
        }
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.items.is_empty() {
            return None;
        }
        let take = state.items.len().min(max);
        Some(state.items.drain(..take).collect())
    }

    /// Closes the queue: further submissions are rejected and the worker drains
    /// what remains, then observes the shutdown.
    pub fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.ready.notify_all();
    }
}

/// The predicted (and later, observed) cost class of one request.
///
/// The split is what makes the controller *cost-aware*: a request whose
/// trace-checked cache entry survived the last publishes is answered in
/// microseconds, while an evicted or never-cached request pays a full engine
/// run — typically three to five orders of magnitude more. Folding both into
/// one average would make the delay estimate useless under any real hit rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// The home shard's cache holds a current-epoch entry for this identity.
    CacheHit,
    /// No servable cache entry: the engine will run.
    EngineRun,
}

/// EWMA shift: each sample moves the average by 1/8 of the residual. Small
/// enough to ride out one-off outliers, large enough that a phase change
/// (e.g. a publish storm evicting the cache) re-converges within ~20 samples.
const EWMA_SHIFT: u32 = 3;

/// Per-cost-class service-time estimator.
///
/// Workers feed it one sample per completed request
/// ([`CostEstimator::observe`]); the admission path reads it lock-free. The
/// EWMAs are plain relaxed load/store cells — a lost update under contention
/// nudges the average by one sample and is harmless, which is the price of
/// keeping the hot path at two atomic ops.
#[derive(Debug, Default)]
pub struct CostEstimator {
    /// EWMA of cache-hit service time, nanoseconds; 0 = no samples yet.
    hit_nanos: AtomicU64,
    /// EWMA of engine-run service time, nanoseconds; 0 = no samples yet.
    miss_nanos: AtomicU64,
    /// Requests observed per class, for the hit-rate blend.
    hits_seen: AtomicU64,
    misses_seen: AtomicU64,
}

impl CostEstimator {
    /// Creates an estimator with no samples (every class estimates as zero
    /// until the first observation, and the controller admits blind).
    pub fn new() -> Self {
        CostEstimator::default()
    }

    /// Feeds one completed request's service time (cache lookup + engine work,
    /// excluding queue wait) into the class's EWMA.
    pub fn observe(&self, class: CostClass, service_time: Duration) {
        let sample = service_time.as_nanos().min(u64::MAX as u128) as u64;
        let (cell, seen) = match class {
            CostClass::CacheHit => (&self.hit_nanos, &self.hits_seen),
            CostClass::EngineRun => (&self.miss_nanos, &self.misses_seen),
        };
        seen.fetch_add(1, Ordering::Relaxed);
        let old = cell.load(Ordering::Relaxed);
        let new = if old == 0 {
            // First sample seeds the average directly; a warm-up ramp from
            // zero would under-admit nothing but under-predict for dozens of
            // requests.
            sample
        } else {
            old - (old >> EWMA_SHIFT) + (sample >> EWMA_SHIFT)
        };
        cell.store(new.max(1), Ordering::Relaxed);
    }

    /// The current EWMA for one class; zero until the class has a sample.
    pub fn class_nanos(&self, class: CostClass) -> u64 {
        match class {
            CostClass::CacheHit => self.hit_nanos.load(Ordering::Relaxed),
            CostClass::EngineRun => self.miss_nanos.load(Ordering::Relaxed),
        }
    }

    /// Hit-rate-blended expected service time of an *unknown* queued request,
    /// in nanoseconds — the per-item multiplier of the queueing-delay
    /// estimate. Falls back to whichever class has samples; zero only before
    /// any request completed.
    pub fn blended_nanos(&self) -> u64 {
        let hit = self.hit_nanos.load(Ordering::Relaxed);
        let miss = self.miss_nanos.load(Ordering::Relaxed);
        let hits = self.hits_seen.load(Ordering::Relaxed);
        let misses = self.misses_seen.load(Ordering::Relaxed);
        match (hit, miss) {
            (0, m) => m,
            (h, 0) => h,
            (h, m) => {
                let total = (hits + misses).max(1) as f64;
                let rate = hits as f64 / total;
                (h as f64 * rate + m as f64 * (1.0 - rate)) as u64
            }
        }
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

/// SLO-driven, cost-aware admission controller (see the module docs for the
/// formula). One per service, shared by the submit path (decisions) and every
/// shard worker (service-time observations).
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
    /// the target shard's live queue `depth`.
    pub fn assess(&self, depth: usize) -> AdmissionVerdict {
        if self.budget_nanos == 0 {
            return AdmissionVerdict::Admit;
        }
        let per_item = self.estimator.blended_nanos();
        if per_item == 0 {
            // No completed request yet: nothing to predict with; admit.
            return AdmissionVerdict::Admit;
        }
        let own = match self.estimator.class_nanos(CostClass::EngineRun) {
            0 => per_item,
            n => n,
        };
        let predicted_nanos = (depth as u64).saturating_mul(per_item).saturating_add(own);
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
    /// `max_queue_depth`): the predicted time to drain the full backlog, in
    /// milliseconds. Zero when no request has completed yet, which the wire
    /// reads as "no hint".
    pub fn queue_full_hint_ms(&self, depth: usize) -> u64 {
        let per_item = self.estimator.blended_nanos();
        if per_item == 0 {
            return 0;
        }
        ((depth as u64).saturating_mul(per_item).div_ceil(1_000_000)).clamp(1, MAX_RETRY_AFTER_MS)
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
        assert_eq!(q.pop_batch(2), Some(vec![1, 2]));
        assert_eq!(q.depth(), 1);
        assert_eq!(q.high_water(), 3);
        q.submit(4).unwrap();
        assert_eq!(q.high_water(), 3, "2 queued now; the mark stays at 3");
    }

    #[test]
    fn pop_batch_drains_up_to_max_batch() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.submit(i).unwrap();
        }
        assert_eq!(q.pop_batch(3), Some(vec![0, 1, 2]));
        assert_eq!(q.pop_batch(3), Some(vec![3, 4]));
    }

    #[test]
    fn close_wakes_blocked_worker_and_rejects_producers() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || q.pop_batch(4))
        };
        // Give the worker a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(worker.join().unwrap(), None);
        assert!(q.submit(1).is_err());
    }

    #[test]
    fn timed_pop_returns_items_timeout_and_closed() {
        let q = BoundedQueue::new(4);
        q.submit(1).unwrap();
        assert_eq!(
            q.pop_batch_timeout(4, std::time::Duration::from_millis(1)),
            TimedPop::Items(vec![1])
        );
        assert_eq!(q.pop_batch_timeout(4, std::time::Duration::from_millis(1)), TimedPop::TimedOut);
        q.close();
        assert_eq!(q.pop_batch_timeout(4, std::time::Duration::from_millis(1)), TimedPop::Closed);
    }

    #[test]
    fn timed_pop_wakes_on_late_submission() {
        let q = Arc::new(BoundedQueue::new(4));
        let worker = {
            let q = q.clone();
            std::thread::spawn(move || q.pop_batch_timeout(4, std::time::Duration::from_secs(5)))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.submit(9).unwrap();
        assert_eq!(worker.join().unwrap(), TimedPop::Items(vec![9]));
    }

    #[test]
    fn steal_takes_the_oldest_items_first() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.submit(i).unwrap();
        }
        assert_eq!(q.steal_batch(2), Some(vec![0, 1]));
        assert_eq!(q.depth(), 3);
        // The owner still drains FIFO after the theft.
        assert_eq!(q.pop_batch(8), Some(vec![2, 3, 4]));
        assert_eq!(q.steal_batch(2), None, "empty queue has nothing to steal");
        assert_eq!(q.steal_batch(0), None, "zero-sized steals are refused");
        // A closed queue's backlog is still stealable.
        let q = BoundedQueue::new(8);
        q.submit(7).unwrap();
        q.close();
        assert_eq!(q.steal_batch(4), Some(vec![7]));
    }

    #[test]
    fn close_lets_worker_drain_remaining_items() {
        let q = BoundedQueue::new(4);
        q.submit(7).unwrap();
        q.close();
        assert_eq!(q.pop_batch(4), Some(vec![7]));
        assert_eq!(q.pop_batch(4), None);
    }

    #[test]
    fn estimator_tracks_each_cost_class_separately() {
        let e = CostEstimator::new();
        assert_eq!(e.blended_nanos(), 0, "no samples, no estimate");
        e.observe(CostClass::CacheHit, Duration::from_micros(5));
        e.observe(CostClass::EngineRun, Duration::from_millis(5));
        // The first sample seeds each class directly.
        assert_eq!(e.class_nanos(CostClass::CacheHit), 5_000);
        assert_eq!(e.class_nanos(CostClass::EngineRun), 5_000_000);
        // The blend sits strictly between the classes.
        let blend = e.blended_nanos();
        assert!(blend > 5_000 && blend < 5_000_000, "blend {blend} out of range");
    }

    #[test]
    fn estimator_converges_toward_a_shifted_service_time() {
        let e = CostEstimator::new();
        e.observe(CostClass::EngineRun, Duration::from_micros(100));
        for _ in 0..100 {
            e.observe(CostClass::EngineRun, Duration::from_micros(900));
        }
        let est = e.class_nanos(CostClass::EngineRun);
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
        // 1ms per queued item: depth 5 predicts ~6ms, within the 10ms budget.
        for _ in 0..8 {
            c.estimator().observe(CostClass::EngineRun, Duration::from_millis(1));
        }
        assert_eq!(c.assess(5), AdmissionVerdict::Admit);
        // Depth 50 predicts ~51ms: over budget, with a ceil'd backoff hint.
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
    fn cost_classes_split_the_admission_decision() {
        // Budget 2ms, engine runs cost 10ms, hits cost 1µs and make up nine
        // tenths of the traffic: the blended estimate (~1ms) fits the budget,
        // but the request's own term is an engine run, so even an empty
        // queue rejects it — the cost-aware half of the controller.
        let c = AdmissionController::new(Duration::from_millis(2));
        for _ in 0..8 {
            for _ in 0..9 {
                c.estimator().observe(CostClass::CacheHit, Duration::from_micros(1));
            }
            c.estimator().observe(CostClass::EngineRun, Duration::from_millis(10));
        }
        assert!(c.estimator().blended_nanos() < 2_000_000);
        assert!(matches!(c.assess(0), AdmissionVerdict::Reject(_)));
    }

    #[test]
    fn breach_episodes_are_edge_triggered() {
        let c = AdmissionController::new(Duration::from_millis(1));
        c.estimator().observe(CostClass::EngineRun, Duration::from_millis(1));
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
        c.estimator().observe(CostClass::EngineRun, Duration::from_millis(2));
        assert_eq!(c.assess(1_000_000), AdmissionVerdict::Admit);
        // The static-cap hint still works off the estimator: 64 × 2ms = 128ms.
        assert_eq!(c.queue_full_hint_ms(64), 128);
        assert_eq!(AdmissionController::new(Duration::ZERO).queue_full_hint_ms(64), 0);
    }
}
