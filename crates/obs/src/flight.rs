//! The flight recorder: a fixed-size lock-free ring of recent structured
//! events, snapshotted ("dumped") when an anomaly trigger fires.
//!
//! Events are fixed-size — a kind byte plus three `u64` payload words — so a
//! slot is five atomics and recording is wait-free: claim a monotonically
//! increasing ticket with one `fetch_add`, then publish the slot with a
//! per-slot sequence word (a seqlock). Readers validate the sequence before
//! and after copying a slot and simply skip slots that are mid-write or were
//! lapped, so a snapshot never blocks writers and writers never block each
//! other. The ring's memory is `capacity` slots forever, no matter how many
//! events storm through it.

use crate::span::SpanChain;
use crate::stage::Stage;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What kind of service event an [`ObsEvent`] records. The discriminants are
/// stable wire values.
///
/// # Stable wire codes
///
/// The `u8` discriminants below travel verbatim in flight events, dumps and
/// `ObsSnapshot` payloads. Changing or adding one is a wire change that bumps
/// `ksp-proto`'s `PROTOCOL_VERSION`. A decoder that meets a code it does not
/// know fails the whole payload with a typed error (see
/// [`EventKind::from_code`]). A retired code is never reused.
///
/// | code | variant                 |
/// |-----:|-------------------------|
/// |    0 | `EpochPublished`        |
/// |    1 | `CheckpointCommitted`   |
/// |    2 | `CheckpointFailed`      |
/// |    3 | `CacheRetention`        |
/// |    4 | retired                 |
/// |    5 | `Rejection`             |
/// |    6 | `HostileFrame`          |
/// |    7 | `RecoveryStep`          |
/// |    8 | `SloBreach`             |
/// |    9 | `PublishStall`          |
/// |   10 | `WalAppendStall`        |
/// |   11 | `FsyncStall`            |
/// |   12 | `AdmissionBreach`       |
/// |   13 | `DegradedEntered`       |
/// |   14 | `DegradedRecovered`     |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// An epoch publish. `a` = epoch, `b` = dirty-subgraph count,
    /// `c` = publish duration in microseconds.
    EpochPublished = 0,
    /// A checkpoint commit. `a` = epoch, `b` = 1 (every checkpoint is a
    /// whole-pair image), `c` = duration in microseconds.
    CheckpointCommitted = 1,
    /// A failed checkpoint attempt. `a` = epoch.
    CheckpointFailed = 2,
    /// Publish-time cache retention over every cache stripe. `a` = epoch,
    /// `b` = entries retained, `c` = entries evicted.
    CacheRetention = 3,
    /// An admission rejection. `a` = the request's cache stripe, `b` = queue
    /// depth at rejection, `c` = the retry hint in milliseconds.
    Rejection = 5,
    /// A hostile or malformed frame on a wire connection. `a` = reason code
    /// (see the serve layer's frame handling).
    HostileFrame = 6,
    /// One step of store recovery. `a` = step code (0 checkpoint loaded,
    /// 2 batches replayed, 3 torn bytes dropped, 4 corrupt checkpoints
    /// skipped, 5 recovery completed, 6 empty segment files skipped; 1 is
    /// reserved), `b` = the step's value (the recovered epoch, a count, or —
    /// for code 5 — the recovery duration in microseconds).
    RecoveryStep = 7,
    /// A completed request breached the configured latency SLO.
    /// `a` = latency in microseconds, `b` = the SLO bound in microseconds.
    SloBreach = 8,
    /// An epoch publish exceeded the service's stall bound.
    /// `a` = epoch, `b` = publish duration in microseconds.
    PublishStall = 9,
    /// A delta-log append (record encode + write, excluding the fsync)
    /// exceeded the service's stall bound. `a` = epoch, `b` = append
    /// duration in microseconds, `c` = the bound in microseconds.
    WalAppendStall = 10,
    /// A delta-log fsync exceeded the service's stall bound.
    /// `a` = epoch, `b` = fsync duration in microseconds, `c` = the bound in
    /// microseconds.
    FsyncStall = 11,
    /// The adaptive admission controller started rejecting: its estimated
    /// queueing delay crossed the SLO-derived budget (the controller entered
    /// a breach episode). `a` = the request's cache stripe, `b` = estimated
    /// wait in microseconds, `c` = the budget in microseconds.
    AdmissionBreach = 12,
    /// The service flipped into read-only degraded mode: the delta log
    /// refused an append, so writes are rejected while reads keep serving
    /// the last published epoch. `a` = the epoch that failed to append.
    DegradedEntered = 13,
    /// The background probe repaired the log and the service left degraded
    /// mode. `a` = the last published epoch, `b` = how many probe attempts
    /// it took, `c` = time spent degraded in microseconds.
    DegradedRecovered = 14,
}

impl EventKind {
    /// All kinds, for decoding and iteration.
    pub const ALL: [EventKind; 14] = [
        EventKind::EpochPublished,
        EventKind::CheckpointCommitted,
        EventKind::CheckpointFailed,
        EventKind::CacheRetention,
        EventKind::Rejection,
        EventKind::HostileFrame,
        EventKind::RecoveryStep,
        EventKind::SloBreach,
        EventKind::PublishStall,
        EventKind::WalAppendStall,
        EventKind::FsyncStall,
        EventKind::AdmissionBreach,
        EventKind::DegradedEntered,
        EventKind::DegradedRecovered,
    ];

    /// Stable label for exposition.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::EpochPublished => "epoch_published",
            EventKind::CheckpointCommitted => "checkpoint_committed",
            EventKind::CheckpointFailed => "checkpoint_failed",
            EventKind::CacheRetention => "cache_retention",
            EventKind::Rejection => "rejection",
            EventKind::HostileFrame => "hostile_frame",
            EventKind::RecoveryStep => "recovery_step",
            EventKind::SloBreach => "slo_breach",
            EventKind::PublishStall => "publish_stall",
            EventKind::WalAppendStall => "wal_append_stall",
            EventKind::FsyncStall => "fsync_stall",
            EventKind::AdmissionBreach => "admission_breach",
            EventKind::DegradedEntered => "degraded_entered",
            EventKind::DegradedRecovered => "degraded_recovered",
        }
    }

    /// Inverse of `self as u8`; `None` for an unknown or retired code.
    pub fn from_code(code: u8) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|&kind| kind as u8 == code)
    }
}

/// One structured flight-recorder event. The payload words `a`/`b`/`c` are
/// interpreted per [`EventKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// Microseconds since the recorder started.
    pub at_micros: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// Third payload word.
    pub c: u64,
}

/// A bounded snapshot captured when an anomaly trigger fired: the ring's
/// recent events, the triggering event, and — for per-request triggers — the
/// offending request's span chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDump {
    /// Microseconds since recorder start at which the trigger fired.
    pub at_micros: u64,
    /// The event that tripped the trigger.
    pub cause: ObsEvent,
    /// Span chain of the offending request, when the trigger was per-request
    /// (SLO breach).
    pub span: Option<SpanChain<Stage>>,
    /// The client trace id of the offending request, when the trigger was
    /// per-request and the request carried a wire trace context; `0` when
    /// untraced. Lets a client resolve its own trace id to the server's span
    /// chain.
    pub trace_id: u64,
    /// Ring contents at trigger time, oldest first, at most the ring's
    /// capacity.
    pub events: Vec<ObsEvent>,
}

/// A slot is a per-slot seqlock: `seq` is `2·ticket + 1` while the claiming
/// writer fills the payload words and `2·ticket + 2` once published, so a
/// reader can tell "mid-write" and "lapped" apart from "valid for ticket t"
/// with two loads.
struct Slot {
    seq: AtomicU64,
    at: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
    c: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            at: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
            c: AtomicU64::new(0),
        }
    }
}

/// The fixed-size lock-free event ring plus the latest anomaly dump.
#[derive(Debug)]
pub struct FlightRecorder {
    started: Instant,
    slots: Box<[Slot]>,
    head: AtomicU64,
    dumps: AtomicU64,
    last_dump: Mutex<Option<FlightDump>>,
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot").field("seq", &self.seq.load(Ordering::Relaxed)).finish()
    }
}

impl FlightRecorder {
    /// Creates a recorder whose ring holds at most `capacity` events
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            started: Instant::now(),
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            last_dump: Mutex::new(None),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events recorded since start (including overwritten ones).
    pub fn events_recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events silently evicted by ring-slot overwrites since start: every
    /// recorded event past the ring's capacity displaced an older one. A
    /// nonzero value tells an operator the ring window is shorter than the
    /// event rate — the signal that used to be invisible.
    pub fn events_overwritten(&self) -> u64 {
        self.head.load(Ordering::Relaxed).saturating_sub(self.slots.len() as u64)
    }

    /// Anomaly dumps taken since start.
    pub fn dumps_taken(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Records one event, overwriting the oldest when the ring is full.
    /// Wait-free for writers; concurrent writers never block each other.
    pub fn record(&self, kind: EventKind, a: u64, b: u64, c: u64) -> ObsEvent {
        let at_micros = self.now_micros();
        let event = ObsEvent { at_micros, kind, a, b, c };
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        // Publish protocol: odd seq while writing, even (2·ticket + 2) once
        // done. A writer lapped mid-write by a much faster producer leaves a
        // ticket mismatch behind, which readers treat as "skip".
        slot.seq.store(ticket * 2 + 1, Ordering::Release);
        slot.at.store(at_micros, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.c.store(c, Ordering::Relaxed);
        slot.seq.store(ticket * 2 + 2, Ordering::Release);
        event
    }

    /// Copies the ring's current contents, oldest first. Slots that are
    /// mid-write or were overwritten between the head read and the slot read
    /// are skipped, so the result length is at most [`capacity`](Self::capacity).
    pub fn snapshot(&self) -> Vec<ObsEvent> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let window = head.min(cap);
        let mut events = Vec::with_capacity(window as usize);
        for ticket in (head - window)..head {
            let slot = &self.slots[(ticket % cap) as usize];
            let seq_before = slot.seq.load(Ordering::Acquire);
            if seq_before != ticket * 2 + 2 {
                continue; // mid-write, or lapped by a newer ticket
            }
            let at = slot.at.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let (a, b, c) = (
                slot.a.load(Ordering::Relaxed),
                slot.b.load(Ordering::Relaxed),
                slot.c.load(Ordering::Relaxed),
            );
            if slot.seq.load(Ordering::Acquire) != seq_before {
                continue; // overwritten while we were copying
            }
            let Some(kind) = EventKind::from_code(kind as u8) else { continue };
            events.push(ObsEvent { at_micros: at, kind, a, b, c });
        }
        events
    }

    /// Records `cause` and captures an anomaly dump: the ring snapshot, the
    /// cause, and (for per-request triggers) the offending span chain. The
    /// latest dump replaces the previous one, so anomaly storms keep memory
    /// bounded and the operator always sees the most recent incident.
    pub fn trigger(&self, kind: EventKind, a: u64, b: u64, c: u64, span: Option<SpanChain<Stage>>) {
        self.trigger_traced(kind, a, b, c, span, 0);
    }

    /// [`trigger`](Self::trigger) with the offending request's wire trace id
    /// attached to the dump (`0` for untraced requests), so a remote client
    /// can pin the dumped span chain to a trace it originated.
    pub fn trigger_traced(
        &self,
        kind: EventKind,
        a: u64,
        b: u64,
        c: u64,
        span: Option<SpanChain<Stage>>,
        trace_id: u64,
    ) {
        let cause = self.record(kind, a, b, c);
        let dump = FlightDump {
            at_micros: cause.at_micros,
            cause,
            span,
            trace_id,
            events: self.snapshot(),
        };
        *self.last_dump.lock().unwrap_or_else(|e| e.into_inner()) = Some(dump);
        self.dumps.fetch_add(1, Ordering::Relaxed);
    }

    /// The most recent anomaly dump, if any trigger has fired.
    pub fn last_dump(&self) -> Option<FlightDump> {
        self.last_dump.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Microseconds since the recorder started.
    pub fn now_micros(&self) -> u64 {
        self.started.elapsed().as_micros().min(u64::MAX as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ring_keeps_the_newest_events() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(EventKind::Rejection, i, 0, 0);
        }
        let events = rec.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(events.iter().map(|e| e.a).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(rec.events_recorded(), 10);
        assert_eq!(rec.events_overwritten(), 6, "every event past capacity displaced one");
    }

    #[test]
    fn overwrite_counter_stays_zero_until_the_ring_wraps() {
        let rec = FlightRecorder::new(4);
        for _ in 0..4 {
            rec.record(EventKind::Rejection, 0, 0, 0);
        }
        assert_eq!(rec.events_overwritten(), 0);
        rec.record(EventKind::Rejection, 0, 0, 0);
        assert_eq!(rec.events_overwritten(), 1);
    }

    #[test]
    fn codes_decode_by_value_and_the_retired_code_fails() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_code(kind as u8), Some(kind));
        }
        assert_eq!(EventKind::from_code(4), None, "code 4 is retired");
        assert_eq!(EventKind::from_code(15), None);
    }

    #[test]
    fn traced_trigger_carries_the_trace_id_into_the_dump() {
        let rec = FlightRecorder::new(8);
        rec.trigger_traced(EventKind::SloBreach, 900, 100, 0, None, 0xDEAD_BEEF);
        assert_eq!(rec.last_dump().unwrap().trace_id, 0xDEAD_BEEF);
        // The untraced path stamps zero.
        rec.trigger(EventKind::SloBreach, 900, 100, 0, None);
        assert_eq!(rec.last_dump().unwrap().trace_id, 0);
    }

    #[test]
    fn snapshot_of_a_partially_filled_ring() {
        let rec = FlightRecorder::new(64);
        rec.record(EventKind::EpochPublished, 1, 5, 100);
        rec.record(EventKind::Rejection, 0, 32, 0);
        let events = rec.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::EpochPublished);
        assert_eq!(events[1].kind, EventKind::Rejection);
        assert!(events[0].at_micros <= events[1].at_micros);
    }

    #[test]
    fn trigger_captures_cause_and_ring() {
        let rec = FlightRecorder::new(8);
        rec.record(EventKind::EpochPublished, 3, 2, 50);
        assert!(rec.last_dump().is_none());
        rec.trigger(EventKind::PublishStall, 3, 900_000, 0, None);
        let dump = rec.last_dump().expect("dump after trigger");
        assert_eq!(dump.cause.kind, EventKind::PublishStall);
        assert_eq!(dump.cause.a, 3);
        assert!(dump.events.iter().any(|e| e.kind == EventKind::EpochPublished));
        assert!(dump.events.iter().any(|e| e.kind == EventKind::PublishStall));
        assert_eq!(rec.dumps_taken(), 1);
    }

    #[test]
    fn concurrent_storm_stays_bounded_and_valid() {
        let rec = Arc::new(FlightRecorder::new(32));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        rec.record(EventKind::Rejection, t, i, 0);
                    }
                })
            })
            .collect();
        for _ in 0..100 {
            let snap = rec.snapshot();
            assert!(snap.len() <= 32);
            assert!(snap.windows(2).all(|w| w[0].at_micros <= w[1].at_micros));
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(rec.events_recorded(), 20_000);
        assert_eq!(rec.snapshot().len(), 32);
    }
}
