//! [`FaultTransport`]: deterministic network-fault injection over any
//! [`Transport`].
//!
//! The wrapper consults a seeded [`FaultPlan`] at two points — once before a
//! request is sent ([`FaultPoint::NetSend`]) and once when its response
//! arrives ([`FaultPoint::NetRecv`]) — and turns the drawn
//! [`FaultAction`]s into the failures a flaky network produces at the
//! message level:
//!
//! * `DelayMs` — the round trip stalls (a congested or lossy-and-retrying
//!   link). With an I/O deadline armed on the inner transport, a long enough
//!   delay manifests as [`TransportError::TimedOut`] exactly as a real stall
//!   would.
//! * `DropReply` — the response is discarded after the inner transport
//!   produced it: the caller sees [`TransportError::TimedOut`], the server
//!   believes it answered. This is the classic "did my write commit?"
//!   ambiguity.
//! * `DuplicateReply` — the response is delivered *and* stashed; the next
//!   round trip returns the stale copy without consulting the server (a
//!   retransmitted frame answering the wrong request).
//! * `Sever` — the connection dies mid-exchange and stays dead: this and
//!   every later call fail with [`TransportError::Disconnected`] until the
//!   caller reconnects (which, for a [`FaultTransport`], means building a
//!   new wrapper).
//! * `Fail` / anything else — the round trip fails with the action's
//!   injected [`std::io::Error`].
//!
//! Because the plan is seeded, a chaos test replays the exact same fault
//! schedule from the same seed — see `ksp-fault`'s crate docs.

use crate::message::{Request, Response};
use crate::transport::{Transport, TransportError, TransportStats};
use ksp_fault::{FaultAction, FaultPlan, FaultPoint};
use std::time::Duration;

/// A [`Transport`] wrapper injecting scheduled message-level faults. See the
/// [module docs](self) for the action semantics.
pub struct FaultTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    /// Once severed, every call fails `Disconnected` — a dead socket does
    /// not come back.
    severed: bool,
    /// A stashed duplicate response, delivered on the next round trip in
    /// place of a fresh exchange.
    duplicate: Option<Response>,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner`, drawing faults from `plan` (clones of one plan share
    /// one schedule — wrap several transports with clones to spread a single
    /// deterministic schedule across connections).
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultTransport { inner, plan, severed: false, duplicate: None }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The fault plan faults are drawn from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Applies one drawn action around the send side. `Ok(())` means the
    /// request may proceed to the inner transport.
    fn apply_send(&mut self, action: FaultAction) -> Result<(), TransportError> {
        match action {
            FaultAction::DelayMs { ms } => {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(())
            }
            FaultAction::Sever => {
                self.severed = true;
                Err(TransportError::Disconnected)
            }
            FaultAction::DropReply | FaultAction::DuplicateReply => {
                // Reply-shaped actions armed on the send point have nothing
                // to act on yet; treat them as a generic send failure so an
                // over-broad plan still fails loudly instead of silently.
                Err(TransportError::Io(action.to_io_error()))
            }
            other => Err(TransportError::Io(other.to_io_error())),
        }
    }

    /// Applies one drawn action to a received response.
    fn apply_recv(
        &mut self,
        action: FaultAction,
        response: Response,
    ) -> Result<Response, TransportError> {
        match action {
            FaultAction::DelayMs { ms } => {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(response)
            }
            FaultAction::DropReply => Err(TransportError::TimedOut),
            FaultAction::DuplicateReply => {
                self.duplicate = Some(response.clone());
                Ok(response)
            }
            FaultAction::Sever => {
                self.severed = true;
                Err(TransportError::Disconnected)
            }
            other => Err(TransportError::Io(other.to_io_error())),
        }
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn roundtrip(&mut self, request: Request) -> Result<Response, TransportError> {
        if self.severed {
            return Err(TransportError::Disconnected);
        }
        if let Some(stale) = self.duplicate.take() {
            // A duplicated frame sits first in the receive buffer: it answers
            // this request, whatever was asked.
            return Ok(stale);
        }
        if let Some(action) = self.plan.next(FaultPoint::NetSend) {
            self.apply_send(action)?;
        }
        let response = self.inner.roundtrip(request)?;
        match self.plan.next(FaultPoint::NetRecv) {
            Some(action) => self.apply_recv(action, response),
            None => Ok(response),
        }
    }

    // `pipeline` intentionally uses the trait's sequential default: every
    // message then passes both fault points, which is the coverage a chaos
    // test wants (true pipelining would bypass per-message injection).

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_fault::Schedule;

    /// Answers every round trip with a Pong carrying the call ordinal as the
    /// epoch, so tests can see *which* exchange produced a response.
    struct CountingTransport {
        calls: u64,
    }

    impl Transport for CountingTransport {
        fn roundtrip(&mut self, _request: Request) -> Result<Response, TransportError> {
            self.calls += 1;
            Ok(Response::Pong { epoch: self.calls, num_shards: 1 })
        }

        fn stats(&self) -> TransportStats {
            TransportStats::default()
        }
    }

    fn pong_epoch(r: &Response) -> u64 {
        match r {
            Response::Pong { epoch, .. } => *epoch,
            other => panic!("expected Pong, got {other:?}"),
        }
    }

    #[test]
    fn drop_reply_times_out_but_server_answered() {
        let plan = FaultPlan::new(7);
        plan.arm(FaultPoint::NetRecv, Schedule::Nth(2), FaultAction::DropReply);
        let mut t = FaultTransport::new(CountingTransport { calls: 0 }, plan);
        assert_eq!(pong_epoch(&t.roundtrip(Request::Ping).unwrap()), 1);
        assert!(matches!(t.roundtrip(Request::Ping), Err(TransportError::TimedOut)));
        // The server side did process the dropped exchange.
        assert_eq!(t.inner().calls, 2);
        assert_eq!(pong_epoch(&t.roundtrip(Request::Ping).unwrap()), 3);
    }

    #[test]
    fn duplicate_reply_answers_the_next_request() {
        let plan = FaultPlan::new(7);
        plan.arm(FaultPoint::NetRecv, Schedule::Nth(1), FaultAction::DuplicateReply);
        let mut t = FaultTransport::new(CountingTransport { calls: 0 }, plan);
        assert_eq!(pong_epoch(&t.roundtrip(Request::Ping).unwrap()), 1);
        // The duplicate answers without reaching the server.
        assert_eq!(pong_epoch(&t.roundtrip(Request::Ping).unwrap()), 1);
        assert_eq!(t.inner().calls, 1);
        assert_eq!(pong_epoch(&t.roundtrip(Request::Ping).unwrap()), 2);
    }

    #[test]
    fn sever_is_permanent() {
        let plan = FaultPlan::new(7);
        plan.arm(FaultPoint::NetSend, Schedule::Nth(2), FaultAction::Sever);
        let mut t = FaultTransport::new(CountingTransport { calls: 0 }, plan);
        assert!(t.roundtrip(Request::Ping).is_ok());
        for _ in 0..3 {
            assert!(matches!(t.roundtrip(Request::Ping), Err(TransportError::Disconnected)));
        }
        assert_eq!(t.inner().calls, 1, "nothing reaches a severed connection");
    }

    #[test]
    fn same_seed_same_network_schedule() {
        let run = |seed: u64| {
            let plan = FaultPlan::new(seed);
            plan.arm(FaultPoint::NetRecv, Schedule::PerMille(300), FaultAction::DropReply);
            let mut t = FaultTransport::new(CountingTransport { calls: 0 }, plan);
            let outcomes: Vec<bool> = (0..64).map(|_| t.roundtrip(Request::Ping).is_ok()).collect();
            (outcomes, t.plan().fingerprint())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds should diverge");
    }
}
