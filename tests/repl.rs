//! Acceptance tests for log-shipping replication (`ksp-repl`).
//!
//! The headline property: a follower that bootstraps over a real TCP socket
//! and replays shipped WAL records holds a `(graph, index)` pair
//! **byte-identical** to the leader's at the same epoch, and answers queries
//! bit-for-bit the same. Plus the fallback property: a follower whose
//! position has been pruned out of the leader's retained log window (and a
//! late joiner arriving after rotation + pruning) is re-seeded through the
//! snapshot manifest, never fed torn or skipped records. Plus warm failover:
//! promotion is a flag flip on an already-running service, not a recovery.

use ksp_dg::core::dtlp::DtlpConfig;
use ksp_dg::graph::{DynamicGraph, VertexId};
use ksp_dg::proto::KspClient;
use ksp_dg::repl::{Replica, ReplicaConfig, ReplicationSource};
use ksp_dg::serve::{EventLoopServer, QueryService, ServiceConfig};
use ksp_dg::store::{StoreCodec, StoreConfig, SyncPolicy};
use ksp_dg::workload::{RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig, TrafficModel};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ksp-dg-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn road_network(n: usize, seed: u64) -> DynamicGraph {
    RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n)).generate(seed).unwrap().graph
}

/// Manual checkpointing only, fsync off: the tests control image commits.
fn store_config() -> StoreConfig {
    StoreConfig { checkpoint_interval: 0, sync: SyncPolicy::Never, ..StoreConfig::default() }
}

fn assert_byte_identical(leader: &QueryService, follower: &QueryService) {
    let a = leader.snapshot();
    let b = follower.snapshot();
    assert_eq!(a.epoch(), b.epoch(), "leader and follower must sit on the same epoch");
    assert_eq!(
        a.graph().to_bytes(),
        b.graph().to_bytes(),
        "follower graph must be byte-identical to the leader's"
    );
    assert_eq!(
        a.index().to_bytes(),
        b.index().to_bytes(),
        "follower index must be byte-identical to the leader's"
    );
}

#[test]
fn follower_replays_to_byte_identity_over_a_real_socket() {
    let leader_dir = temp_dir("ident-leader");
    let replica_root = temp_dir("ident-replica");
    let graph = road_network(200, 71);
    let sconfig = ServiceConfig::new(2, DtlpConfig::new(20, 2));
    let leader = Arc::new(
        QueryService::start_with_store(graph.clone(), sconfig, &leader_dir, store_config())
            .unwrap(),
    );
    let source = ReplicationSource::attach(&leader).unwrap();
    let server = EventLoopServer::bind(leader.clone(), "127.0.0.1:0").unwrap();

    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), 9);
    for _ in 0..3 {
        leader.apply_batch(&traffic.next_snapshot()).unwrap();
    }

    // A fresh join bootstraps from the snapshot fallback (epoch 0 lives in
    // the initial checkpoint, not the log), then catches up over the log.
    let rconfig = ReplicaConfig::new("r1", sconfig, store_config());
    let mut replica = Replica::bootstrap(server.local_addr(), &replica_root, rconfig).unwrap();
    assert_eq!(replica.sync_to_caught_up(16).unwrap(), 3);
    assert_eq!(source.snapshot_fallbacks(), 1);
    assert!(source.records_shipped() >= 3);
    assert_byte_identical(&leader, &replica.service());

    // Bit-exact answers from the replica.
    let last = VertexId(graph.num_vertices() as u32 - 1);
    let want = leader.query(VertexId(0), last, 3).unwrap();
    let got = replica.query(VertexId(0), last, 3).unwrap();
    assert_eq!(got.epoch, want.epoch);
    assert_eq!(got.paths.len(), want.paths.len());
    for (a, b) in got.paths.iter().zip(want.paths.iter()) {
        assert_eq!(a.vertices(), b.vertices());
        assert_eq!(a.distance().value().to_bits(), b.distance().value().to_bits());
    }

    // Steady state ships the log, never images, and stays byte-identical.
    for _ in 0..4 {
        leader.apply_batch(&traffic.next_snapshot()).unwrap();
    }
    assert_eq!(replica.sync_to_caught_up(16).unwrap(), 7);
    assert_eq!(source.snapshot_fallbacks(), 1, "steady state must ship the log, not images");
    assert_eq!(replica.resyncs(), 0);
    assert_byte_identical(&leader, &replica.service());

    // The leader exports per-follower lag and shipping counters on the same
    // scrape surface as everything else.
    let (mut client, _) = KspClient::connect(server.local_addr()).unwrap();
    let text = client.scrape_text().unwrap();
    for family in [
        "ksp_repl_ship_records_total",
        "ksp_repl_ship_bytes_total",
        "ksp_repl_snapshot_fallbacks_total",
        "ksp_repl_acks_total",
    ] {
        assert!(text.contains(family), "leader scrape must carry {family}");
    }
    assert!(text.contains("ksp_repl_lag_epochs{follower=\"r1\"}"));

    // The replica exposes its own applied epoch and lag.
    let follower_text = replica.service().render_exposition();
    assert!(follower_text.contains("ksp_repl_applied_epoch"));
    assert!(follower_text.contains("ksp_repl_records_applied_total"));

    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&replica_root);
}

#[test]
fn pruned_log_falls_back_to_snapshot_for_laggards_and_late_joiners() {
    let leader_dir = temp_dir("prune-leader");
    let laggard_root = temp_dir("prune-laggard");
    let late_root = temp_dir("prune-late");
    let graph = road_network(180, 29);
    let sconfig = ServiceConfig::new(2, DtlpConfig::new(18, 2));
    // Tiny segments (rotation every 2 records), retain a single checkpoint:
    // pruning bites as soon as a checkpoint commits.
    let st = StoreConfig {
        checkpoint_interval: 0,
        segment_max_records: 2,
        retain_checkpoints: 1,
        sync: SyncPolicy::Never,
    };
    let leader =
        Arc::new(QueryService::start_with_store(graph.clone(), sconfig, &leader_dir, st).unwrap());
    let source = ReplicationSource::attach(&leader).unwrap();
    let server = EventLoopServer::bind(leader.clone(), "127.0.0.1:0").unwrap();
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), 41);

    // A follower catches up to epoch 4 (its shipping crossed at least one
    // segment-rotation boundary: segments hold 2 records each)...
    for _ in 0..4 {
        leader.apply_batch(&traffic.next_snapshot()).unwrap();
    }
    let mut laggard = Replica::bootstrap(
        server.local_addr(),
        &laggard_root,
        ReplicaConfig::new("lag", sconfig, st),
    )
    .unwrap();
    assert_eq!(laggard.sync_to_caught_up(16).unwrap(), 4);

    // ...then sleeps while the leader publishes four more epochs and commits
    // a checkpoint at epoch 8 — pruning every segment the image covers, so
    // the laggard's next position (5) has left the retained window.
    for _ in 0..4 {
        leader.apply_batch(&traffic.next_snapshot()).unwrap();
    }
    assert_eq!(leader.checkpoint_now().unwrap(), Some(8));
    let outcome = laggard.sync_once().unwrap();
    assert!(outcome.resynced, "a pruned position must re-seed via the snapshot fallback");
    assert_eq!(laggard.resyncs(), 1);
    assert_eq!(laggard.applied_epoch(), 8);
    assert_byte_identical(&leader, &laggard.service());

    // A follower joining only now never sees the pruned log either: it
    // bootstraps from the epoch-8 image and lands byte-identical.
    let mut late = Replica::bootstrap(
        server.local_addr(),
        &late_root,
        ReplicaConfig::new("late", sconfig, st),
    )
    .unwrap();
    assert_eq!(late.applied_epoch(), 8);
    assert_eq!(late.sync_to_caught_up(16).unwrap(), 8);
    assert_byte_identical(&leader, &late.service());

    // Replication keeps flowing for both after the fallback — records again,
    // not images, and still never a torn or skipped epoch.
    for _ in 0..2 {
        leader.apply_batch(&traffic.next_snapshot()).unwrap();
    }
    let fallbacks_before = source.snapshot_fallbacks();
    assert_eq!(laggard.sync_to_caught_up(16).unwrap(), 10);
    assert_eq!(late.sync_to_caught_up(16).unwrap(), 10);
    assert_eq!(source.snapshot_fallbacks(), fallbacks_before);
    assert_byte_identical(&leader, &laggard.service());
    assert_byte_identical(&leader, &late.service());

    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&laggard_root);
    let _ = std::fs::remove_dir_all(&late_root);
}

#[test]
fn staleness_bound_and_warm_failover_promotion() {
    let leader_dir = temp_dir("failover-leader");
    let replica_root = temp_dir("failover-replica");
    let graph = road_network(180, 57);
    let sconfig = ServiceConfig::new(2, DtlpConfig::new(18, 2));
    let leader = Arc::new(
        QueryService::start_with_store(graph.clone(), sconfig, &leader_dir, store_config())
            .unwrap(),
    );
    let source = ReplicationSource::attach(&leader).unwrap();
    let server = EventLoopServer::bind(leader.clone(), "127.0.0.1:0").unwrap();
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), 83);
    for _ in 0..6 {
        leader.apply_batch(&traffic.next_snapshot()).unwrap();
    }

    // Zero-staleness bound, one record per round: the replica observes its
    // lag and refuses reads until caught up.
    let mut rconfig = ReplicaConfig::new("standby", sconfig, store_config());
    rconfig.max_read_lag = Some(0);
    rconfig.max_records = 1;
    let mut replica = Replica::bootstrap(server.local_addr(), &replica_root, rconfig).unwrap();
    let last = VertexId(graph.num_vertices() as u32 - 1);
    replica.sync_once().unwrap();
    assert!(replica.lag_epochs() > 0);
    assert!(
        matches!(
            replica.query(VertexId(0), last, 2),
            Err(ksp_dg::repl::ReplError::StaleRead { .. })
        ),
        "a replica beyond its staleness bound must refuse reads"
    );
    assert_eq!(replica.sync_to_caught_up(16).unwrap(), 6);
    let standby_answer = replica.query(VertexId(0), last, 2).unwrap();

    // Kill the leader. (The source holds the leader's store open — drop it
    // too, or the cold-recovery control below could not reacquire the
    // directory lock.)
    let mut server = server;
    server.shutdown();
    drop(server);
    drop(source);
    drop(leader);

    // Control: cold recovery of the leader's directory — image decode plus
    // log replay — versus promotion, which does no state work at all.
    let cold_started = Instant::now();
    let (cold, _report) = QueryService::open(&leader_dir, sconfig, store_config()).unwrap();
    let cold_duration = cold_started.elapsed();
    // The magnitude gap is the ledger's measurement; here just surface both
    // numbers when running with --nocapture.
    eprintln!("cold recovery {cold_duration:?}");

    replica.run().unwrap();
    std::thread::sleep(Duration::from_millis(30)); // let it hit the dead leader
    let promotion = replica.promote();
    assert_eq!(promotion.epoch, 6);
    assert!(replica.is_promoted());
    assert!(
        promotion.duration < Duration::from_secs(2),
        "promotion must be a stop-and-flip, took {:?}",
        promotion.duration
    );

    // The promoted replica answers exactly what the recovered leader would.
    assert_byte_identical(&cold, &replica.service());
    let promoted_answer = replica.query(VertexId(0), last, 2).unwrap();
    let cold_answer = cold.query(VertexId(0), last, 2).unwrap();
    assert_eq!(promoted_answer.paths.len(), cold_answer.paths.len());
    for (a, b) in promoted_answer.paths.iter().zip(cold_answer.paths.iter()) {
        assert_eq!(a.vertices(), b.vertices());
        assert_eq!(a.distance().value().to_bits(), b.distance().value().to_bits());
    }
    // Promotion lifted the staleness bound (the leader's last reported epoch
    // is now meaningless) and the service accepts writes: it is the leader.
    assert_eq!(standby_answer.epoch, promoted_answer.epoch);
    let epoch = replica.service().apply_batch(&traffic.next_snapshot()).unwrap();
    assert_eq!(epoch, 7);

    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&replica_root);
}
