//! The degraded-mode state machine: entering read-only mode after a failed
//! delta-log append, and the probe that lifts it.

use super::{Observability, Persistence, PublishError, QueryService};
use crate::epoch::EpochPointer;
use ksp_obs::EventKind;
use ksp_store::{Store, StoreError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Shared read-only-degraded state of a persistent service.
///
/// Entered when a delta-log append fails: the failed batch publishes nothing,
/// queries keep serving the last published epoch, and every further
/// [`QueryService::apply_batch`] fast-fails with [`PublishError::Degraded`]
/// until the background probe gets an append path working again.
#[derive(Debug)]
pub(crate) struct DegradedHealth {
    degraded: AtomicBool,
    /// Why the service degraded (the append error's rendering); empty while
    /// healthy.
    reason: Mutex<String>,
    /// When degradation was entered, for the recovery event's duration.
    entered_at: Mutex<Option<Instant>>,
    pub(crate) entered_total: AtomicU64,
    pub(crate) recovered_total: AtomicU64,
}

impl DegradedHealth {
    pub(super) fn new() -> Self {
        DegradedHealth {
            degraded: AtomicBool::new(false),
            reason: Mutex::new(String::new()),
            entered_at: Mutex::new(None),
            entered_total: AtomicU64::new(0),
            recovered_total: AtomicU64::new(0),
        }
    }

    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    pub(super) fn reason(&self) -> String {
        self.reason.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

impl QueryService {
    /// Flips the service into read-only degraded mode after a failed append
    /// and returns the error the failed `apply_batch` call reports. Idempotent
    /// under races: only the first flip records the entry event and wakes the
    /// probe.
    pub(super) fn enter_degraded(
        &self,
        epoch: u64,
        cause: &StoreError,
        p: &Persistence,
    ) -> PublishError {
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
}

/// The degraded-mode probe: blocks (costing nothing) until a failed append
/// wakes it, then retries the delta log with capped exponential backoff and
/// lifts the degradation once an append path works again.
///
/// The probe's unit of work is [`Store::probe_log`]: rewind any impaired
/// active segment, then exercise a sync through the store's I/O backend —
/// the same backend a real append would use, so a still-broken log keeps the
/// probe failing and the service degraded.
pub(super) fn degraded_probe_main(
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
