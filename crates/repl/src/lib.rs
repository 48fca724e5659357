//! `ksp-repl`: log-shipping replication for the KSP-DG serving subsystem.
//!
//! A persistent [`QueryService`](ksp_serve::QueryService) already writes
//! every published epoch to `ksp-store`'s CRC-guarded delta log before the
//! epoch becomes visible. This crate turns that durability artifact into a
//! replication stream:
//!
//! * [`ReplicationSource`] plugs into a **leader** service (via
//!   [`ksp_serve::ReplicationHook`]) and answers the protocol's replication
//!   surface — `ShipSegment` streams contiguous, CRC-revalidated WAL records
//!   from a requested epoch; when the follower's position has fallen out of
//!   the retained log window (or it is joining fresh — epoch 0 lives in the
//!   initial checkpoint, never in the log), the reply downgrades to a
//!   **snapshot fallback**: a manifest naming the newest checkpoint, fetched
//!   chunk by chunk with `SnapshotChunk` requests.
//!   `ReplAck` reports follower positions back, so the leader exports
//!   per-follower lag (`ksp_repl_lag_epochs{follower="..."}`) alongside
//!   shipping throughput counters in its observability snapshot.
//! * [`Replica`] is the **follower**: it bootstraps from the snapshot
//!   fallback into its own durable store directory, then pulls record batches
//!   over a [`TcpTransport`](ksp_proto::TcpTransport) connection and replays
//!   them through the same copy-on-write `apply_batch` publish path the
//!   leader ran — replay is deterministic, so a caught-up follower's
//!   `(graph, index)` pair is **byte-identical** to the leader's, and its
//!   queries answer bit-for-bit the same distances. Reads are served the
//!   whole time, with observable staleness bounded by
//!   [`ReplicaConfig::max_read_lag`].
//! * **Warm failover**: [`Replica::promote`] stops the replication pull and
//!   declares the already-running service the new authority — promotion takes
//!   milliseconds (no index build, no log replay, no image load), versus a
//!   cold [`Store::recover`](ksp_store::Store::recover) start paying image
//!   decode plus replay. The ledger's `repl.promote_us` and
//!   `store.recovery_ms` rows measure the gap.
//!
//! Replication speaks the one `ksp-proto` wire format: a peer built at
//! another protocol version is refused at the frame header, before any
//! replication request is decoded.

#![warn(missing_docs)]

pub mod replica;
pub mod source;

pub use replica::{Promotion, Replica, ReplicaConfig, SyncOutcome};
pub use source::{FollowerLag, ReplicationSource};

use ksp_proto::ClientError;
use ksp_serve::{PublishError, ServiceError};
use ksp_store::StoreError;

/// Why a replication operation failed.
#[derive(Debug)]
pub enum ReplError {
    /// The service has no durable store, so there is no log to ship.
    NotPersistent,
    /// The leader connection failed or answered with a typed error.
    Client(ClientError),
    /// The follower's local store rejected an operation.
    Store(StoreError),
    /// Replaying a shipped batch through the publish path failed.
    Publish(PublishError),
    /// Local filesystem I/O failed (snapshot transfer, directory setup).
    Io(std::io::Error),
    /// The peer violated the replication protocol (non-contiguous records,
    /// a mid-transfer manifest change).
    Protocol(String),
    /// A manual sync was requested while the background replication thread
    /// owns the connection.
    Busy,
    /// The replica refused a read because its lag exceeds the configured
    /// staleness bound.
    StaleRead {
        /// Epochs behind the leader's last reported position.
        lag: u64,
        /// The configured [`ReplicaConfig::max_read_lag`].
        bound: u64,
    },
    /// The replica's service rejected the query.
    Service(ServiceError),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::NotPersistent => {
                write!(f, "replication needs a persistent service (no durable store attached)")
            }
            ReplError::Client(e) => write!(f, "leader connection failed: {e}"),
            ReplError::Store(e) => write!(f, "follower store error: {e}"),
            ReplError::Publish(e) => write!(f, "replaying a shipped batch failed: {e:?}"),
            ReplError::Io(e) => write!(f, "replication I/O failed: {e}"),
            ReplError::Protocol(msg) => write!(f, "replication protocol violation: {msg}"),
            ReplError::Busy => {
                write!(f, "the background replication thread owns the leader connection")
            }
            ReplError::StaleRead { lag, bound } => {
                write!(f, "replica is {lag} epochs behind (staleness bound {bound})")
            }
            ReplError::Service(e) => write!(f, "replica query rejected: {e:?}"),
        }
    }
}

impl std::error::Error for ReplError {}

impl From<ClientError> for ReplError {
    fn from(e: ClientError) -> Self {
        ReplError::Client(e)
    }
}

impl From<StoreError> for ReplError {
    fn from(e: StoreError) -> Self {
        ReplError::Store(e)
    }
}

impl From<PublishError> for ReplError {
    fn from(e: PublishError) -> Self {
        ReplError::Publish(e)
    }
}

impl From<std::io::Error> for ReplError {
    fn from(e: std::io::Error) -> Self {
        ReplError::Io(e)
    }
}
