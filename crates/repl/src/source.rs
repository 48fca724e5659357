//! The leader side of log-shipping replication: a [`ReplicationSource`]
//! registered on a persistent [`QueryService`] answers the protocol's
//! replication requests out of the service's own durable store.
//!
//! The source never copies the log: `ShipSegment` reads records straight out
//! of the retained WAL segments under the store lock (appends hold the same
//! lock, so a shipped record is always complete), re-validating every CRC on
//! the way out. When a follower asks for an epoch the log no longer retains —
//! a fresh join (epoch 0 lives in the initial checkpoint, not the log) or a
//! laggard that slept through pruning — the reply carries a **snapshot
//! fallback** manifest instead, and the follower fetches the image files with
//! bounded `SnapshotChunk` requests.

use ksp_obs::{Counter, Gauge};
use ksp_proto::message::{ErrorReply, Request, Response};
use ksp_proto::{
    WireSegmentBatch, WireShippedRecord, WireSnapshotChunk, WireSnapshotFile, WireSnapshotManifest,
};
use ksp_serve::{QueryService, ReplicationHook};
use ksp_store::{SnapshotManifest, Store};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};

use crate::ReplError;

/// Hard cap on records per `ShipSegment` reply, whatever the follower asks.
pub const MAX_SHIP_RECORDS: u64 = 4096;
/// Hard cap on (estimated) record bytes per `ShipSegment` reply — well under
/// the 64 MiB frame payload limit.
pub const MAX_SHIP_BYTES: u64 = 32 * 1024 * 1024;
/// Hard cap on bytes per `SnapshotChunk` reply.
pub const MAX_CHUNK_BYTES: u64 = 8 * 1024 * 1024;

const DEFAULT_SHIP_RECORDS: u64 = 512;
const DEFAULT_SHIP_BYTES: u64 = 4 * 1024 * 1024;
const DEFAULT_CHUNK_BYTES: u64 = 1024 * 1024;

/// One follower's last acknowledged position, as the leader sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FollowerLag {
    /// The follower's self-reported name.
    pub follower: String,
    /// The newest epoch the follower has acknowledged applying.
    pub applied_epoch: u64,
    /// Epochs between the leader's current epoch and `applied_epoch`.
    pub lag_epochs: u64,
}

/// The leader-side replication endpoint. Construct with
/// [`ReplicationSource::attach`]; afterwards every transport of the service
/// answers `ShipSegment`, `SnapshotChunk` and `ReplAck`, and the service's
/// observability snapshot grows the `ksp_repl_*` metric families.
pub struct ReplicationSource {
    /// Weak: the service holds an `Arc` of this hook, so a strong pointer
    /// back would leak both.
    service: Weak<QueryService>,
    store: Arc<Mutex<Store>>,
    /// follower name → newest acknowledged epoch.
    followers: Mutex<BTreeMap<String, u64>>,
    ship_records: AtomicU64,
    ship_bytes: AtomicU64,
    snapshot_bytes: AtomicU64,
    snapshot_fallbacks: AtomicU64,
    acks: AtomicU64,
}

impl ReplicationSource {
    /// Builds a source over `service`'s durable store and registers it as the
    /// service's replication hook. Fails with [`ReplError::NotPersistent`]
    /// for an in-memory service — there is no log to ship.
    pub fn attach(service: &Arc<QueryService>) -> Result<Arc<Self>, ReplError> {
        let store = service.store_handle().ok_or(ReplError::NotPersistent)?;
        let source = Arc::new(ReplicationSource {
            service: Arc::downgrade(service),
            store,
            followers: Mutex::new(BTreeMap::new()),
            ship_records: AtomicU64::new(0),
            ship_bytes: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(0),
            snapshot_fallbacks: AtomicU64::new(0),
            acks: AtomicU64::new(0),
        });
        service.set_replication_hook(source.clone());
        Ok(source)
    }

    /// The leader's current epoch — the lag reference followers are measured
    /// against. Zero once the service itself has been dropped.
    fn leader_epoch(&self) -> u64 {
        self.service.upgrade().map(|s| s.current_epoch()).unwrap_or(0)
    }

    /// Every follower that has acknowledged at least once, with its lag
    /// relative to the current leader epoch.
    pub fn follower_lags(&self) -> Vec<FollowerLag> {
        let leader_epoch = self.leader_epoch();
        self.followers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(follower, &applied_epoch)| FollowerLag {
                follower: follower.clone(),
                applied_epoch,
                lag_epochs: leader_epoch.saturating_sub(applied_epoch),
            })
            .collect()
    }

    /// Cumulative WAL records shipped.
    pub fn records_shipped(&self) -> u64 {
        self.ship_records.load(Ordering::Relaxed)
    }

    /// Cumulative estimated WAL bytes shipped.
    pub fn bytes_shipped(&self) -> u64 {
        self.ship_bytes.load(Ordering::Relaxed)
    }

    /// Cumulative snapshot-fallback replies (fresh joins + laggards).
    pub fn snapshot_fallbacks(&self) -> u64 {
        self.snapshot_fallbacks.load(Ordering::Relaxed)
    }

    fn ship(&self, from_epoch: u64, max_records: u64, max_bytes: u64) -> Response {
        let max_records = match max_records {
            0 => DEFAULT_SHIP_RECORDS,
            n => n.min(MAX_SHIP_RECORDS),
        } as usize;
        let max_bytes = match max_bytes {
            0 => DEFAULT_SHIP_BYTES,
            n => n.min(MAX_SHIP_BYTES),
        };
        let leader_epoch = self.leader_epoch();
        let store = self.store.lock().unwrap_or_else(PoisonError::into_inner);
        if from_epoch < store.oldest_retained_epoch() {
            // The requested position predates the retained log window: the
            // log cannot serve it, but the newest checkpoint always can — pruning is
            // bounded by the oldest retained checkpoint.
            return match store.snapshot_manifest() {
                Ok(manifest) => {
                    self.snapshot_fallbacks.fetch_add(1, Ordering::Relaxed);
                    Response::SegmentBatch(WireSegmentBatch {
                        leader_epoch,
                        records: Vec::new(),
                        fallback: Some(wire_manifest(&manifest)),
                    })
                }
                Err(e) => Response::Error(ErrorReply::Storage(e.to_string())),
            };
        }
        match store.read_log_from(from_epoch, max_records, max_bytes) {
            Ok(records) => {
                let shipped: u64 = records.iter().map(|r| 16 + r.batch.len() as u64 * 12).sum();
                self.ship_records.fetch_add(records.len() as u64, Ordering::Relaxed);
                self.ship_bytes.fetch_add(shipped, Ordering::Relaxed);
                Response::SegmentBatch(WireSegmentBatch {
                    leader_epoch,
                    records: records
                        .into_iter()
                        .map(|r| WireShippedRecord { epoch: r.epoch, batch: r.batch })
                        .collect(),
                    fallback: None,
                })
            }
            Err(e) => Response::Error(ErrorReply::Storage(e.to_string())),
        }
    }

    fn chunk(&self, name: &str, offset: u64, max_len: u64) -> Response {
        let max_len = match max_len {
            0 => DEFAULT_CHUNK_BYTES,
            n => n.min(MAX_CHUNK_BYTES),
        };
        match self
            .store
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .read_image_chunk(name, offset, max_len)
        {
            Ok((total_len, bytes)) => {
                self.snapshot_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
                Response::SnapshotChunk(WireSnapshotChunk {
                    name: name.to_string(),
                    offset,
                    total_len,
                    bytes,
                })
            }
            Err(e) => Response::Error(ErrorReply::Storage(e.to_string())),
        }
    }

    fn ack(&self, follower: &str, applied_epoch: u64) -> Response {
        self.followers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(follower.to_string(), applied_epoch);
        self.acks.fetch_add(1, Ordering::Relaxed);
        Response::ReplAck { leader_epoch: self.leader_epoch() }
    }
}

impl ReplicationHook for ReplicationSource {
    fn handle(&self, request: &Request) -> Response {
        match request {
            Request::ShipSegment { from_epoch, max_records, max_bytes } => {
                self.ship(*from_epoch, *max_records, *max_bytes)
            }
            Request::SnapshotChunk { name, offset, max_len } => self.chunk(name, *offset, *max_len),
            Request::ReplAck { follower, applied_epoch } => self.ack(follower, *applied_epoch),
            _ => Response::Error(ErrorReply::Unsupported("not a replication request".to_string())),
        }
    }

    fn metric_families(&self) -> (Vec<Counter>, Vec<Gauge>) {
        let unlabelled = |name: &str, value: u64| Counter {
            name: name.to_string(),
            labels: String::new(),
            value,
        };
        let counters = vec![
            unlabelled("ksp_repl_ship_records_total", self.ship_records.load(Ordering::Relaxed)),
            unlabelled("ksp_repl_ship_bytes_total", self.ship_bytes.load(Ordering::Relaxed)),
            unlabelled(
                "ksp_repl_snapshot_bytes_total",
                self.snapshot_bytes.load(Ordering::Relaxed),
            ),
            unlabelled(
                "ksp_repl_snapshot_fallbacks_total",
                self.snapshot_fallbacks.load(Ordering::Relaxed),
            ),
            unlabelled("ksp_repl_acks_total", self.acks.load(Ordering::Relaxed)),
        ];
        let lags = self.follower_lags();
        let mut gauges = vec![Gauge {
            name: "ksp_repl_followers".to_string(),
            labels: String::new(),
            value: lags.len() as f64,
        }];
        for lag in &lags {
            gauges.push(Gauge {
                name: "ksp_repl_lag_epochs".to_string(),
                labels: format!("follower=\"{}\"", lag.follower),
                value: lag.lag_epochs as f64,
            });
        }
        (counters, gauges)
    }
}

fn wire_manifest(manifest: &SnapshotManifest) -> WireSnapshotManifest {
    WireSnapshotManifest {
        snapshot_epoch: manifest.snapshot_epoch,
        files: manifest
            .files
            .iter()
            .map(|(name, len)| WireSnapshotFile { name: name.clone(), len: *len })
            .collect(),
    }
}
