//! The follower side of log-shipping replication: a [`Replica`] bootstraps
//! from the leader's snapshot fallback, replays shipped WAL records through
//! its own copy-on-write publish path, and stands ready to be promoted in
//! milliseconds.
//!
//! A replica is a full persistent [`QueryService`] of its own: every shipped
//! record is re-logged to the replica's WAL and folded into its checkpoints,
//! so a follower restart recovers locally instead of re-downloading the
//! leader's checkpoint. Replay goes through the same `apply_batch` path the
//! leader ran — deterministic, so a caught-up replica holds a byte-identical
//! `(graph, index)` pair and answers queries bit-for-bit the same.

use ksp_fault::FaultPlan;
use ksp_graph::VertexId;
use ksp_obs::{Counter, Gauge};
use ksp_proto::message::{ErrorReply, Request, Response};
use ksp_proto::{
    ClientError, FaultTransport, KspClient, TcpTransport, Transport, WireSnapshotManifest,
};
use ksp_serve::{QueryResponse, QueryService, ReplicationHook, ServiceConfig};
use ksp_store::StoreConfig;
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::ReplError;

/// Configuration of a [`Replica`]. Shipping caps are the leader's: every
/// `ShipSegment` request passes `0` for its record and byte caps.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// The name this follower acknowledges under; the leader labels its
    /// `ksp_repl_lag_epochs` gauge with it.
    pub follower: String,
    /// Service configuration for the replica's own [`QueryService`]. The
    /// DTLP settings are overridden by the recovered snapshot.
    pub service: ServiceConfig,
    /// Store configuration for the replica's own durable directory.
    pub store: StoreConfig,
    /// When set, [`Replica::query`] refuses reads once the replica has
    /// fallen more than this many epochs behind the leader's last reported
    /// position — the observable-staleness bound. `None` serves reads at any
    /// lag. Promotion lifts the bound.
    pub max_read_lag: Option<u64>,
    /// How long the background thread sleeps after a caught-up round.
    pub poll_interval: Duration,
    /// Lower bound of the reconnect backoff after a failed sync round. Each
    /// sleep is drawn with decorrelated jitter — uniform in
    /// `[backoff_base, 3 × previous sleep]`, clamped to
    /// [`ReplicaConfig::backoff_cap`] — so a fleet of followers cut off by
    /// one leader outage reconnects spread out instead of in lockstep.
    pub backoff_base: Duration,
    /// Upper clamp on any single reconnect-backoff sleep. Kept low by
    /// default (100 ms) so a promotion request never waits long.
    pub backoff_cap: Duration,
    /// When set, every leader connection this replica opens (bootstrap,
    /// reconnect) is wrapped in a [`FaultTransport`] drawing from this plan —
    /// the chaos-test seam for link faults. Clones of a plan share one
    /// schedule, so the test keeps its own handle for assertions. `None`
    /// (the default) connects directly.
    pub fault_plan: Option<FaultPlan>,
}

impl ReplicaConfig {
    /// A configuration with the given follower name and service/store
    /// settings; no staleness bound, 20 ms poll interval.
    pub fn new(follower: impl Into<String>, service: ServiceConfig, store: StoreConfig) -> Self {
        ReplicaConfig {
            follower: follower.into(),
            service,
            store,
            max_read_lag: None,
            poll_interval: Duration::from_millis(20),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
            fault_plan: None,
        }
    }
}

/// What one replication round did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncOutcome {
    /// WAL records applied this round.
    pub applied_records: u64,
    /// Whether the round fell back to a full snapshot re-sync (the
    /// replica's position had left the leader's retained log window).
    pub resynced: bool,
    /// Whether the replica's applied epoch has reached the leader epoch the
    /// leader reported this round.
    pub caught_up: bool,
}

/// The result of a [`Replica::promote`] call.
#[derive(Debug, Clone, Copy)]
pub struct Promotion {
    /// Wall-clock time promotion took: stopping the replication pull and
    /// declaring the already-running service authoritative. No index build,
    /// no replay — milliseconds, versus a cold `Store::recover`.
    pub duration: Duration,
    /// The epoch the replica serves at the moment of promotion.
    pub epoch: u64,
}

/// Lag counters shared between the replica handle, its background thread and
/// the follower-side metrics hook.
struct ReplicaShared {
    applied: AtomicU64,
    leader_epoch: AtomicU64,
    records_applied: AtomicU64,
    resyncs: AtomicU64,
    promoted: AtomicBool,
}

/// The follower-side metrics hook: registered on the replica's own service so
/// a scrape of the *replica* exports its applied epoch and lag. Replication
/// requests sent to a replica are refused — followers do not fan out.
struct FollowerHook {
    shared: Arc<ReplicaShared>,
}

impl ReplicationHook for FollowerHook {
    fn handle(&self, _request: &Request) -> Response {
        Response::Error(ErrorReply::Unsupported(
            "this server is a replica; ship from its leader".to_string(),
        ))
    }

    fn metric_families(&self) -> (Vec<Counter>, Vec<Gauge>) {
        let applied = self.shared.applied.load(Ordering::Relaxed);
        let leader = self.shared.leader_epoch.load(Ordering::Relaxed);
        let counters = vec![
            Counter {
                name: "ksp_repl_records_applied_total".to_string(),
                labels: String::new(),
                value: self.shared.records_applied.load(Ordering::Relaxed),
            },
            Counter {
                name: "ksp_repl_resyncs_total".to_string(),
                labels: String::new(),
                value: self.shared.resyncs.load(Ordering::Relaxed),
            },
        ];
        let gauges = vec![
            Gauge {
                name: "ksp_repl_applied_epoch".to_string(),
                labels: String::new(),
                value: applied as f64,
            },
            Gauge {
                name: "ksp_repl_lag_epochs".to_string(),
                labels: String::new(),
                value: leader.saturating_sub(applied) as f64,
            },
            Gauge {
                name: "ksp_repl_promoted".to_string(),
                labels: String::new(),
                value: if self.shared.promoted.load(Ordering::Relaxed) { 1.0 } else { 0.0 },
            },
        ];
        (counters, gauges)
    }
}

/// Everything a replication round needs besides the leader connection —
/// shared with the background thread.
struct SyncCtx {
    addr: SocketAddr,
    config: ReplicaConfig,
    root: PathBuf,
    shared: Arc<ReplicaShared>,
    /// The replica's live service. Swapped wholesale on a snapshot re-sync;
    /// readers holding the old `Arc` finish on the old epoch.
    service: RwLock<Arc<QueryService>>,
}

/// The leader connection plus the bootstrap-generation counter. Owned by the
/// replica handle, or moved into the background thread while it runs. The
/// transport is boxed so a [`ReplicaConfig::fault_plan`] can interpose a
/// [`FaultTransport`] without changing any replication code.
struct Core {
    client: KspClient<Box<dyn Transport>>,
    generation: u64,
}

/// Opens one leader connection, wrapping it in a [`FaultTransport`] when the
/// configuration carries a fault plan, and performs the `Ping` handshake.
fn connect_leader(
    addr: SocketAddr,
    config: &ReplicaConfig,
) -> Result<KspClient<Box<dyn Transport>>, ClientError> {
    let tcp = TcpTransport::connect(addr)
        .map_err(|e| ClientError::from(ksp_proto::TransportError::from(e)))?;
    let transport: Box<dyn Transport> = match &config.fault_plan {
        Some(plan) => Box::new(FaultTransport::new(tcp, plan.clone())),
        None => Box::new(tcp),
    };
    Ok(KspClient::handshake(transport)?.0)
}

/// A log-shipping read replica of a persistent leader service.
///
/// Build one with [`Replica::bootstrap`], then either drive it manually with
/// [`Replica::sync_once`] (deterministic, for tests) or start the background
/// pull with [`Replica::run`]. Reads are served from
/// [`Replica::service`] (or the staleness-bounded [`Replica::query`])
/// throughout. [`Replica::promote`] turns it into the authority.
pub struct Replica {
    ctx: Arc<SyncCtx>,
    core: Option<Core>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Core>>,
}

impl Replica {
    /// Connects to the leader at `addr`, transfers the leader's newest
    /// checkpoint into a fresh generation directory under `root` and opens the
    /// replica's own persistent service over it.
    pub fn bootstrap(
        addr: SocketAddr,
        root: impl Into<PathBuf>,
        config: ReplicaConfig,
    ) -> Result<Self, ReplError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let mut client = connect_leader(addr, &config)?;
        // Epoch 0 lives in the initial checkpoint, never in the log, so a
        // fresh join always receives the snapshot fallback.
        let batch = client.ship_segment(0, 0, 0)?;
        let manifest = batch.fallback.ok_or_else(|| {
            ReplError::Protocol("leader did not offer a snapshot to a fresh follower".to_string())
        })?;
        let mut core = Core { client, generation: 0 };
        let service = fetch_and_open(&mut core, &root, &config, &manifest)?;
        let applied = service.current_epoch();
        let shared = Arc::new(ReplicaShared {
            applied: AtomicU64::new(applied),
            leader_epoch: AtomicU64::new(batch.leader_epoch),
            records_applied: AtomicU64::new(0),
            resyncs: AtomicU64::new(0),
            promoted: AtomicBool::new(false),
        });
        service.set_replication_hook(Arc::new(FollowerHook { shared: shared.clone() }));
        let leader_epoch = core.client.repl_ack(&config.follower, applied)?;
        shared.leader_epoch.store(leader_epoch, Ordering::Relaxed);
        Ok(Replica {
            ctx: Arc::new(SyncCtx { addr, config, root, shared, service: RwLock::new(service) }),
            core: Some(core),
            stop: Arc::new(AtomicBool::new(false)),
            thread: None,
        })
    }

    /// The replica's live query service. The handle stays valid across a
    /// snapshot re-sync (it keeps serving the pre-re-sync epoch); call again
    /// for the freshest one.
    pub fn service(&self) -> Arc<QueryService> {
        self.ctx.service.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// One replication round: ship from the next needed epoch, replay, ack.
    /// Falls back to a full snapshot re-sync when the leader's log no longer
    /// retains the replica's position. Fails with [`ReplError::Busy`] while
    /// the background thread owns the connection.
    pub fn sync_once(&mut self) -> Result<SyncOutcome, ReplError> {
        let core = self.core.as_mut().ok_or(ReplError::Busy)?;
        sync_round(&self.ctx, core)
    }

    /// Drives [`Replica::sync_once`] until a round reports `caught_up`,
    /// erroring after `max_rounds` attempts. Returns the applied epoch.
    pub fn sync_to_caught_up(&mut self, max_rounds: usize) -> Result<u64, ReplError> {
        for _ in 0..max_rounds {
            if self.sync_once()?.caught_up {
                return Ok(self.applied_epoch());
            }
        }
        Err(ReplError::Protocol(format!(
            "replica did not catch up within {max_rounds} rounds (applied {}, leader {})",
            self.applied_epoch(),
            self.leader_epoch()
        )))
    }

    /// Starts the background replication thread: sync rounds back to back
    /// while behind, [`ReplicaConfig::poll_interval`] sleeps while caught
    /// up, reconnect with capped backoff on connection loss.
    pub fn run(&mut self) -> Result<(), ReplError> {
        let core = self.core.take().ok_or(ReplError::Busy)?;
        self.stop.store(false, Ordering::SeqCst);
        let ctx = self.ctx.clone();
        let stop = self.stop.clone();
        let thread = std::thread::Builder::new()
            .name("ksp-repl-follower".to_string())
            .spawn(move || run_loop(&ctx, core, &stop))
            .expect("failed to spawn replication thread");
        self.thread = Some(thread);
        Ok(())
    }

    /// Whether the background replication thread is running.
    pub fn is_running(&self) -> bool {
        self.thread.is_some()
    }

    /// Promotes the replica: stops the replication pull and declares the
    /// already-running service the new authority. The service itself needs
    /// no work — no image load, no replay, no index build — which is the
    /// entire point of a warm standby.
    pub fn promote(&mut self) -> Promotion {
        let started = Instant::now();
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            if let Ok(core) = thread.join() {
                self.core = Some(core);
            }
        }
        self.ctx.shared.promoted.store(true, Ordering::SeqCst);
        Promotion { duration: started.elapsed(), epoch: self.applied_epoch() }
    }

    /// Whether [`Replica::promote`] has run.
    pub fn is_promoted(&self) -> bool {
        self.ctx.shared.promoted.load(Ordering::Relaxed)
    }

    /// The newest epoch this replica has applied.
    pub fn applied_epoch(&self) -> u64 {
        self.ctx.shared.applied.load(Ordering::Relaxed)
    }

    /// The leader's current epoch as of the last exchange.
    pub fn leader_epoch(&self) -> u64 {
        self.ctx.shared.leader_epoch.load(Ordering::Relaxed)
    }

    /// Epochs between the last observed leader position and this replica.
    pub fn lag_epochs(&self) -> u64 {
        self.leader_epoch().saturating_sub(self.applied_epoch())
    }

    /// Snapshot re-syncs this replica has performed (0 in steady state).
    pub fn resyncs(&self) -> u64 {
        self.ctx.shared.resyncs.load(Ordering::Relaxed)
    }

    /// Answers a query from the replica's current epoch, enforcing the
    /// [`ReplicaConfig::max_read_lag`] staleness bound (until promotion,
    /// which makes this replica the authority and lifts the bound).
    pub fn query(
        &self,
        source: VertexId,
        target: VertexId,
        k: usize,
    ) -> Result<QueryResponse, ReplError> {
        if let Some(bound) = self.ctx.config.max_read_lag {
            if !self.is_promoted() {
                let lag = self.lag_epochs();
                if lag > bound {
                    return Err(ReplError::StaleRead { lag, bound });
                }
            }
        }
        self.service().query(source, target, k).map_err(ReplError::Service)
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Transfers the manifest's image files into a fresh generation directory
/// and opens a persistent service over them. `Store::recover` on an
/// image-only directory starts a fresh log at `snapshot_epoch + 1`, so the
/// replica's own durability picks up exactly where the transfer ended.
fn fetch_and_open(
    core: &mut Core,
    root: &Path,
    config: &ReplicaConfig,
    manifest: &WireSnapshotManifest,
) -> Result<Arc<QueryService>, ReplError> {
    core.generation += 1;
    let dir = root.join(format!("gen-{:06}", core.generation));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    for file in &manifest.files {
        let mut out = std::fs::File::create(dir.join(&file.name))?;
        let mut offset = 0u64;
        while offset < file.len {
            let chunk = core.client.snapshot_chunk(&file.name, offset, 0)?;
            if chunk.total_len != file.len {
                // The file changed size under us — the leader pruned or
                // replaced it mid-transfer. The caller re-ships for a fresh
                // manifest.
                return Err(ReplError::Protocol(format!(
                    "{} changed size during transfer ({} -> {})",
                    file.name, file.len, chunk.total_len
                )));
            }
            if chunk.bytes.is_empty() {
                return Err(ReplError::Protocol(format!(
                    "leader returned an empty chunk for {} at offset {offset}",
                    file.name
                )));
            }
            out.write_all(&chunk.bytes)?;
            offset += chunk.bytes.len() as u64;
        }
        out.sync_all()?;
    }
    let (service, _report) = QueryService::open(&dir, config.service, config.store)?;
    let applied = service.current_epoch();
    if applied != manifest.snapshot_epoch {
        return Err(ReplError::Protocol(format!(
            "snapshot recovered to epoch {applied}, manifest promised {}",
            manifest.snapshot_epoch
        )));
    }
    Ok(Arc::new(service))
}

/// One ship → replay → ack round over an established connection.
fn sync_round(ctx: &SyncCtx, core: &mut Core) -> Result<SyncOutcome, ReplError> {
    let service = ctx.service.read().unwrap_or_else(PoisonError::into_inner).clone();
    let from = service.current_epoch() + 1;
    let batch = core.client.ship_segment(from, 0, 0)?;
    ctx.shared.leader_epoch.store(batch.leader_epoch, Ordering::Relaxed);
    if let Some(manifest) = batch.fallback {
        // The leader pruned past our position: full re-sync into the next
        // generation directory, then swap the live service.
        return full_resync(ctx, core, &manifest);
    }
    let mut applied_records = 0u64;
    for record in &batch.records {
        let expected = service.current_epoch() + 1;
        if record.epoch != expected {
            // A duplicated, re-ordered or otherwise damaged shipment broke
            // the contiguous epoch chain. The shipped records can no longer
            // be trusted against our position, but the leader's checkpoint
            // can: salvage with a full snapshot re-sync instead of killing
            // the sync loop over one bad payload.
            eprintln!(
                "ksp-repl: leader shipped epoch {} where {expected} was expected; \
                 falling back to snapshot re-sync",
                record.epoch
            );
            return salvage_resync(ctx, core);
        }
        let published = service.apply_batch(&record.batch)?;
        debug_assert_eq!(published, record.epoch);
        applied_records += 1;
    }
    let applied = service.current_epoch();
    ctx.shared.applied.store(applied, Ordering::Relaxed);
    ctx.shared.records_applied.fetch_add(applied_records, Ordering::Relaxed);
    let leader_epoch = core.client.repl_ack(&ctx.config.follower, applied)?;
    ctx.shared.leader_epoch.store(leader_epoch.max(batch.leader_epoch), Ordering::Relaxed);
    Ok(SyncOutcome { applied_records, resynced: false, caught_up: applied >= leader_epoch })
}

/// Transfers the manifest's snapshot into a fresh generation directory,
/// swaps the live service to it and acks the recovered position.
fn full_resync(
    ctx: &SyncCtx,
    core: &mut Core,
    manifest: &WireSnapshotManifest,
) -> Result<SyncOutcome, ReplError> {
    let old_generation = core.generation;
    let fresh = fetch_and_open(core, &ctx.root, &ctx.config, manifest)?;
    fresh.set_replication_hook(Arc::new(FollowerHook { shared: ctx.shared.clone() }));
    let applied = fresh.current_epoch();
    *ctx.service.write().unwrap_or_else(PoisonError::into_inner) = fresh;
    ctx.shared.applied.store(applied, Ordering::Relaxed);
    ctx.shared.resyncs.fetch_add(1, Ordering::Relaxed);
    let _ = std::fs::remove_dir_all(ctx.root.join(format!("gen-{old_generation:06}")));
    let leader_epoch = core.client.repl_ack(&ctx.config.follower, applied)?;
    ctx.shared.leader_epoch.store(leader_epoch, Ordering::Relaxed);
    Ok(SyncOutcome { applied_records: 0, resynced: true, caught_up: applied >= leader_epoch })
}

/// Recovers from an untrusted shipment by requesting the snapshot fallback
/// outright: epoch 0 lives in the leader's initial checkpoint, never in its
/// log, so shipping from 0 always answers with a manifest.
fn salvage_resync(ctx: &SyncCtx, core: &mut Core) -> Result<SyncOutcome, ReplError> {
    let batch = core.client.ship_segment(0, 0, 0)?;
    ctx.shared.leader_epoch.store(batch.leader_epoch, Ordering::Relaxed);
    let manifest = batch.fallback.ok_or_else(|| {
        ReplError::Protocol("leader did not offer a snapshot for a salvage re-sync".to_string())
    })?;
    full_resync(ctx, core, &manifest)
}

/// The background pull loop. Returns the core so a later [`Replica::promote`]
/// (or a restart of [`Replica::run`]) can reuse the connection state.
///
/// Failed rounds back off with decorrelated jitter (uniform in
/// `[backoff_base, 3 × previous sleep]`, clamped to `backoff_cap`), seeded
/// from the follower name so concurrent followers decorrelate without any
/// shared randomness — and deterministically, so a seeded chaos run replays.
fn run_loop(ctx: &Arc<SyncCtx>, mut core: Core, stop: &Arc<AtomicBool>) -> Core {
    let base_ms = ctx.config.backoff_base.as_millis().max(1) as u64;
    let cap_ms = (ctx.config.backoff_cap.as_millis() as u64).max(base_ms);
    let mut prev_ms = 0u64;
    let mut jitter = {
        // FNV-1a over the follower name, xorshift-ready (never zero).
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in ctx.config.follower.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h | 1
    };
    while !stop.load(Ordering::SeqCst) {
        match sync_round(ctx, &mut core) {
            Ok(outcome) => {
                prev_ms = 0;
                if outcome.caught_up {
                    sleep_unless_stopped(stop, ctx.config.poll_interval);
                }
            }
            Err(_) => {
                // Connection lost or the leader is unhealthy: back off
                // (capped low so a promotion request never waits long) and
                // reconnect.
                jitter ^= jitter << 13;
                jitter ^= jitter >> 7;
                jitter ^= jitter << 17;
                let prev = prev_ms.max(base_ms);
                let span = prev.saturating_mul(3).saturating_sub(base_ms).max(1);
                let sleep_ms = base_ms.saturating_add(jitter % span).min(cap_ms);
                prev_ms = sleep_ms;
                sleep_unless_stopped(stop, Duration::from_millis(sleep_ms));
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(client) = connect_leader(ctx.addr, &ctx.config) {
                    core.client = client;
                }
            }
        }
    }
    core
}

/// Sleeps up to `total`, in small slices, returning early when `stop` flips —
/// promotion must never wait out a full backoff.
fn sleep_unless_stopped(stop: &AtomicBool, total: Duration) {
    let slice = Duration::from_millis(2);
    let mut slept = Duration::ZERO;
    while slept < total && !stop.load(Ordering::SeqCst) {
        let step = slice.min(total - slept);
        std::thread::sleep(step);
        slept += step;
    }
}
