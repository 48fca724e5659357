//! Chaos acceptance tests: deterministic fault injection (`ksp-fault`)
//! against the full stack.
//!
//! The headline property: a service that survives twenty consecutive
//! injected-fault / crash / recover cycles — live append faults (write
//! errors, `ENOSPC`, short writes) plus post-crash tail damage (torn tails,
//! bit flips) — ends **byte-identical** to a fault-free in-memory control
//! fed the same batches, and the fault schedule itself is reproducible:
//! the same seed yields the same injection log, fingerprint-asserted.
//! Plus the network arm: a follower replicating through a fault-injecting
//! transport (dropped replies, duplicate delivery, a severed link) still
//! converges to byte identity with its leader. Plus the checkpoint arm: a
//! failed background image is quarantined for post-mortem and retried until
//! it commits, without ever blocking the write path.

use ksp_dg::core::dtlp::DtlpConfig;
use ksp_dg::fault::{FaultAction, FaultPlan, FaultPoint, Schedule};
use ksp_dg::graph::{DynamicGraph, UpdateBatch, VertexId};
use ksp_dg::repl::{Replica, ReplicaConfig, ReplicationSource};
use ksp_dg::serve::{EventLoopServer, PublishError, QueryService, ServiceConfig};
use ksp_dg::store::{apply_crash_damage, FaultyIo, StorageIo, StoreCodec, StoreConfig, SyncPolicy};
use ksp_dg::workload::{RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig, TrafficModel};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ksp-dg-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn road_network(n: usize, seed: u64) -> DynamicGraph {
    RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n)).generate(seed).unwrap().graph
}

/// Applies `batch`, riding out read-only degraded mode: a faulted append
/// flips the service degraded, the background probe repairs the log within
/// milliseconds, and the retry then lands. Anything other than `Degraded`
/// is a real failure.
fn apply_riding_out_degradation(service: &QueryService, batch: &UpdateBatch) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match service.apply_batch(batch) {
            Ok(epoch) => return epoch,
            Err(PublishError::Degraded(reason)) => {
                assert!(
                    Instant::now() < deadline,
                    "probe did not lift degradation in time: {reason}"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("append failed outside the degraded contract: {e}"),
        }
    }
}

/// The newest WAL segment file in `dir` (highest start epoch), with its
/// length — the file a simulated crash damages.
fn newest_segment(dir: &Path) -> Option<(PathBuf, u64)> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    let path = segments.pop()?;
    let len = std::fs::metadata(&path).unwrap().len();
    Some((path, len))
}

const CYCLES: usize = 20;
const BATCHES_PER_CYCLE: usize = 2;

/// What one full chaos run produced, for cross-run equality assertions.
struct ChaosOutcome {
    fingerprint: u64,
    injected: u64,
    /// The epoch each cycle's recovery came back at (regressions mark
    /// cycles whose tail damage tore off a committed record).
    recovered_epochs: Vec<u64>,
    graph_bytes: Vec<u8>,
    index_bytes: Vec<u8>,
}

/// Runs `CYCLES` injected-fault / crash / recover cycles over `batches`:
/// every cycle arms one live append fault (chosen deterministically from the
/// plan's seeded generator), applies its batches riding out degradation,
/// "crashes" (drops the service), and on odd cycles damages the newest
/// segment's tail before recovery. Records torn off by damage are re-applied
/// after recovery, exactly as an upstream feed replaying unacknowledged
/// batches would.
fn chaos_run(seed: u64, tag: &str, graph: &DynamicGraph, batches: &[UpdateBatch]) -> ChaosOutcome {
    assert_eq!(batches.len(), CYCLES * BATCHES_PER_CYCLE);
    let dir = temp_dir(tag);
    let plan = FaultPlan::new(seed);
    let io: Arc<dyn StorageIo> = Arc::new(FaultyIo::new(plan.clone()));
    let sconfig = ServiceConfig::new(2, DtlpConfig::new(20, 2));
    let st =
        StoreConfig { checkpoint_interval: 0, sync: SyncPolicy::Never, ..StoreConfig::default() };

    let mut recovered_epochs = Vec::with_capacity(CYCLES);
    let mut applied = 0usize; // batches the service has acknowledged so far
    for cycle in 0..CYCLES {
        let service = if cycle == 0 {
            QueryService::start_with_store_io(graph.clone(), sconfig, &dir, st, io.clone()).unwrap()
        } else {
            QueryService::open_with_io(&dir, sconfig, st, io.clone()).unwrap().0
        };
        let at = service.snapshot().epoch() as usize;
        assert!(at <= applied, "recovery must never invent epochs");
        assert!(
            applied - at <= 1,
            "tail damage is bounded to the final record, yet {} epochs vanished",
            applied - at
        );
        recovered_epochs.push(at as u64);
        // Re-feed whatever the crash tore off, then this cycle's fresh load.
        for batch in &batches[at..applied] {
            apply_riding_out_degradation(&service, batch);
        }
        // One live fault per cycle, aimed at the very next WAL write. Action
        // choice comes from the plan's own seeded generator so the whole
        // schedule is a pure function of the seed. (Only `WalWrite` is armed:
        // the repair probe fsyncs on its own timing-dependent cadence, so
        // arming the fsync point would make op counts — and thus `Nth`
        // firings — racy. The fsync point gets its coverage in
        // `tests/degraded.rs`, which asserts behaviour, not fingerprints.)
        let action = match plan.draw() % 3 {
            0 => FaultAction::Fail,
            1 => FaultAction::Enospc,
            _ => FaultAction::ShortWrite { keep: (plan.draw() % 8) as usize },
        };
        plan.arm(
            FaultPoint::WalWrite,
            Schedule::Nth(plan.ops_at(FaultPoint::WalWrite) + 1),
            action,
        );
        for batch in &batches[applied..applied + BATCHES_PER_CYCLE] {
            apply_riding_out_degradation(&service, batch);
        }
        applied += BATCHES_PER_CYCLE;
        assert_eq!(service.snapshot().epoch() as usize, applied);
        assert!(!service.is_degraded(), "every cycle must end repaired");
        // Crash: kill the service, then (on odd cycles) tear the log's tail
        // the way a power cut mid-append would.
        drop(service);
        if cycle % 2 == 1 {
            let (segment, len) = newest_segment(&dir).expect("a WAL segment must exist");
            if len > 16 {
                let damage = if plan.draw().is_multiple_of(2) {
                    FaultAction::TornTail { bytes: 1 + (plan.draw() % 4) as usize }
                } else {
                    FaultAction::BitFlip { offset: (plan.draw() % 4) as usize }
                };
                apply_crash_damage(&segment, damage).unwrap();
            }
        }
    }

    // Final recovery, then read the terminal state.
    let (service, _report) = QueryService::open_with_io(&dir, sconfig, st, io).unwrap();
    let at = service.snapshot().epoch() as usize;
    for batch in &batches[at..applied] {
        apply_riding_out_degradation(&service, batch);
    }
    let snapshot = service.snapshot();
    let outcome = ChaosOutcome {
        fingerprint: plan.fingerprint(),
        injected: plan.injected_total(),
        recovered_epochs,
        graph_bytes: snapshot.graph().to_bytes(),
        index_bytes: snapshot.index().to_bytes(),
    };
    drop(snapshot);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

#[test]
fn twenty_fault_recover_cycles_stay_byte_identical_to_control() {
    let graph = road_network(200, 61);
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), 17);
    let batches: Vec<UpdateBatch> =
        (0..CYCLES * BATCHES_PER_CYCLE).map(|_| traffic.next_snapshot()).collect();

    // Fault-free control: a purely in-memory service fed the same batches.
    let sconfig = ServiceConfig::new(2, DtlpConfig::new(20, 2));
    let control = QueryService::start(graph.clone(), sconfig).unwrap();
    for batch in &batches {
        control.apply_batch(batch).unwrap();
    }

    let chaos = chaos_run(4242, "run-a", &graph, &batches);
    assert!(
        chaos.injected >= CYCLES as u64,
        "one armed fault per cycle must fire, got {}",
        chaos.injected
    );
    assert!(
        chaos.recovered_epochs.iter().enumerate().any(|(i, &e)| e < (i * BATCHES_PER_CYCLE) as u64),
        "tail damage must have cost at least one recovery a record"
    );

    // Byte identity with the control, at state level...
    let want = control.snapshot();
    assert_eq!(want.epoch() as usize, CYCLES * BATCHES_PER_CYCLE);
    assert_eq!(chaos.graph_bytes, want.graph().to_bytes(), "graph must match the control's");
    assert_eq!(chaos.index_bytes, want.index().to_bytes(), "index must match the control's");

    // ...and the schedule itself is reproducible: same seed, same injection
    // log, same recovery trajectory, same bytes.
    let again = chaos_run(4242, "run-b", &graph, &batches);
    assert_eq!(again.fingerprint, chaos.fingerprint, "same seed must give the same schedule");
    assert_eq!(again.injected, chaos.injected);
    assert_eq!(again.recovered_epochs, chaos.recovered_epochs);
    assert_eq!(again.graph_bytes, chaos.graph_bytes);
    assert_eq!(again.index_bytes, chaos.index_bytes);
}

#[test]
fn follower_converges_to_byte_identity_through_a_faulty_link() {
    let leader_dir = temp_dir("net-leader");
    let replica_root = temp_dir("net-replica");
    let graph = road_network(180, 37);
    let sconfig = ServiceConfig::new(2, DtlpConfig::new(18, 2));
    let st =
        StoreConfig { checkpoint_interval: 0, sync: SyncPolicy::Never, ..StoreConfig::default() };
    let leader =
        Arc::new(QueryService::start_with_store(graph.clone(), sconfig, &leader_dir, st).unwrap());
    let _source = ReplicationSource::attach(&leader).unwrap();
    let server = EventLoopServer::bind(leader.clone(), "127.0.0.1:0").unwrap();
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), 53);

    // The replica's every leader connection is wrapped in a FaultTransport
    // drawing from this plan; the test keeps its own handle (clones share
    // one schedule).
    let plan = FaultPlan::new(99);
    let mut rconfig = ReplicaConfig::new("chaos", sconfig, st);
    rconfig.fault_plan = Some(plan.clone());
    rconfig.poll_interval = Duration::from_millis(5);
    rconfig.backoff_base = Duration::from_millis(2);
    rconfig.backoff_cap = Duration::from_millis(20);
    for _ in 0..2 {
        leader.apply_batch(&traffic.next_snapshot()).unwrap();
    }
    // Arm only after a clean bootstrap: the faults target steady-state
    // shipping and the reconnect path, not the initial seeding.
    let mut replica = Replica::bootstrap(server.local_addr(), &replica_root, rconfig).unwrap();
    plan.arm(FaultPoint::NetRecv, Schedule::Every(4), FaultAction::DropReply)
        .arm(FaultPoint::NetRecv, Schedule::Nth(11), FaultAction::DuplicateReply)
        .arm(FaultPoint::NetRecv, Schedule::Every(9), FaultAction::DelayMs { ms: 3 })
        .arm(FaultPoint::NetSend, Schedule::Nth(13), FaultAction::Sever);

    replica.run().unwrap();
    const EPOCHS: u64 = 24;
    for _ in 2..EPOCHS {
        leader.apply_batch(&traffic.next_snapshot()).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while replica.applied_epoch() < EPOCHS {
        assert!(
            Instant::now() < deadline,
            "follower stuck at epoch {} of {EPOCHS} (injected {})",
            replica.applied_epoch(),
            plan.injected_total()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    replica.promote(); // stops the pull loop; state is untouched

    assert!(
        plan.injected_total() >= 5,
        "the link must actually have been faulty, injected only {}",
        plan.injected_total()
    );
    assert!(plan.injected_at(FaultPoint::NetRecv) >= 4);
    let a = leader.snapshot();
    let b = replica.service().snapshot();
    assert_eq!(a.epoch(), b.epoch());
    assert_eq!(a.graph().to_bytes(), b.graph().to_bytes(), "graphs must be byte-identical");
    assert_eq!(a.index().to_bytes(), b.index().to_bytes(), "indexes must be byte-identical");
    let last = VertexId(graph.num_vertices() as u32 - 1);
    let want = leader.query(VertexId(0), last, 3).unwrap();
    let got = replica.query(VertexId(0), last, 3).unwrap();
    assert_eq!(got.paths.len(), want.paths.len());
    for (x, y) in got.paths.iter().zip(want.paths.iter()) {
        assert_eq!(x.vertices(), y.vertices());
        assert_eq!(x.distance().value().to_bits(), y.distance().value().to_bits());
    }

    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&replica_root);
}

#[test]
fn failed_background_checkpoint_is_quarantined_and_retried() {
    let dir = temp_dir("ckpt");
    let graph = road_network(160, 43);
    let sconfig = ServiceConfig::new(2, DtlpConfig::new(16, 2));
    // Background checkpoints every 2 epochs (the committed artefact is a
    // `checkpoint-*.ckpt` we can watch for).
    let st =
        StoreConfig { checkpoint_interval: 2, sync: SyncPolicy::Never, ..StoreConfig::default() };
    let plan = FaultPlan::new(7);
    let io: Arc<dyn StorageIo> = Arc::new(FaultyIo::new(plan.clone()));
    let service = QueryService::start_with_store_io(graph.clone(), sconfig, &dir, st, io).unwrap();
    // Arm only now: store creation already wrote the initial image through
    // the same backend, and that one must succeed.
    plan.arm(
        FaultPoint::CheckpointWrite,
        Schedule::Nth(plan.ops_at(FaultPoint::CheckpointWrite) + 1),
        FaultAction::Fail,
    );

    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), 29);
    for _ in 0..2 {
        service.apply_batch(&traffic.next_snapshot()).unwrap();
    }

    // The checkpointer's first image write fails: the bytes land in
    // quarantine for post-mortem, the job is carried, and the retry (10 ms
    // backoff, fault spent) commits the epoch-2 image.
    let quarantine = dir.join("quarantine");
    let committed = dir.join("checkpoint-00000000000000000002.ckpt");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let quarantined = std::fs::read_dir(&quarantine)
            .map(|d| {
                d.filter_map(|e| e.ok()).any(|e| e.file_name().to_string_lossy().ends_with(".bad"))
            })
            .unwrap_or(false);
        if quarantined && committed.is_file() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "quarantine present: {quarantined}, committed present: {}, injected: {}",
            committed.is_file(),
            plan.injected_total()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(plan.injected_at(FaultPoint::CheckpointWrite), 1);
    // The write path never noticed: the service is healthy and still
    // accepting batches.
    assert!(!service.is_degraded());
    assert_eq!(service.apply_batch(&traffic.next_snapshot()).unwrap(), 3);
    drop(service);

    // The quarantined bytes are a decodable image (post-mortem value), and
    // recovery sees only the committed one: it comes back at epoch 3.
    let (recovered, _report) = QueryService::open(&dir, sconfig, st).unwrap();
    assert_eq!(recovered.snapshot().epoch(), 3);
    drop(recovered);

    let _ = std::fs::remove_dir_all(&dir);
}
