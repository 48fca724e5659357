//! The partial-path memo is derived state: no answer depends on who filled it or
//! whether it was filled at all, and it never reaches a checkpoint image.
//!
//! Two threads that share one cold index, racing to fill, read and regrow its
//! memos, answer as a sequential run does. A leader serves a persistent store
//! over a real socket; after a global batch and an incident, its engine warms the
//! memos of the current epoch's subgraphs. The checkpoint image of that epoch
//! must be the same bytes before and after, and a follower bootstrapped from the
//! leader and a service recovered from its store, both starting with empty memos,
//! must answer byte-identically to the warmed index.
//!
//! Answers are compared as routes, distance bits, counters (all but the
//! history-dependent `partials_reused`) and certified traces.

mod common;

use common::incident;
use ksp_dg::core::dtlp::{DtlpConfig, DtlpIndex};
use ksp_dg::core::kspdg::{KspDgConfig, KspDgEngine, QueryResult, QueryStats};
use ksp_dg::graph::{SubgraphId, VertexId};
use ksp_dg::repl::{Replica, ReplicaConfig, ReplicationSource};
use ksp_dg::serve::{EpochSnapshot, EventLoopServer, QueryService, ServiceConfig};
use ksp_dg::store::{Store, StoreConfig, SyncPolicy};
use ksp_dg::workload::{
    QueryWorkload, QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig,
    TrafficModel, Xoshiro256,
};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ksp-dg-memo-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Manual checkpointing only, fsync off.
fn store_config() -> StoreConfig {
    StoreConfig { checkpoint_interval: 0, sync: SyncPolicy::Never, ..StoreConfig::default() }
}

/// Routes, distance bits, counters but `partials_reused`, and the certified trace.
type Answer = (Vec<(Vec<VertexId>, u64)>, QueryStats, bool, Vec<SubgraphId>);

fn answer(r: QueryResult) -> Answer {
    let paths = r.paths.iter().map(|p| (p.vertices().to_vec(), p.distance().value().to_bits()));
    let stats = QueryStats { partials_reused: 0, ..r.stats };
    (paths.collect(), stats, r.trace.complete, r.trace.subgraphs.iter().collect())
}

/// The engine's answers on `index`, and how many partials they read from memos.
fn answers(index: &DtlpIndex, workload: &QueryWorkload) -> (Vec<Answer>, usize) {
    let engine = KspDgEngine::with_config(index, KspDgConfig::default().with_trace());
    let mut reused = 0;
    let answers = workload
        .iter()
        .map(|q| {
            let result = engine.query(q.source, q.target, q.k);
            reused += result.stats.partials_reused;
            answer(result)
        })
        .collect();
    (answers, reused)
}

fn image(snapshot: &EpochSnapshot) -> Vec<u8> {
    Store::encode_checkpoint(snapshot.epoch(), snapshot.graph(), snapshot.index()).bytes().to_vec()
}

#[test]
fn warmed_memos_reach_no_image_and_no_answer_of_a_replica_or_a_recovered_store() {
    let leader_dir = temp_dir("leader");
    let replica_root = temp_dir("replica");
    let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(220))
        .generate(79)
        .unwrap()
        .graph;
    let sconfig = ServiceConfig::new(2, DtlpConfig::new(20, 2));
    let leader = Arc::new(
        QueryService::start_with_store(graph.clone(), sconfig, &leader_dir, store_config())
            .unwrap(),
    );
    let source = ReplicationSource::attach(&leader).unwrap();
    let server = EventLoopServer::bind(leader.clone(), "127.0.0.1:0").unwrap();
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), 79);
    leader.apply_batch(&traffic.next_snapshot()).unwrap();
    leader.apply_batch(&incident(&graph, &mut Xoshiro256::seed_from_u64(79))).unwrap();

    // Warm the memos of the current epoch; a second pass reads from them.
    let live = leader.snapshot();
    assert_eq!(live.epoch(), 2);
    let cold_image = image(&live);
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(60, 3), 79);
    let (warm, _) = answers(live.index(), &workload);
    let (again, reused) = answers(live.index(), &workload);
    assert_eq!(again, warm);
    assert!(reused > 0, "the second pass must read memoised partials");
    assert_eq!(image(&live), cold_image, "a warmed memo must not reach the checkpoint image");

    let rconfig = ReplicaConfig::new("r1", sconfig, store_config());
    let mut replica = Replica::bootstrap(server.local_addr(), &replica_root, rconfig).unwrap();
    assert_eq!(replica.sync_to_caught_up(16).unwrap(), 2);
    let follower = replica.service().snapshot();
    assert_eq!(image(&follower), cold_image);
    assert_eq!(answers(follower.index(), &workload).0, warm, "the replica answers differently");

    // Recovery needs the store the leader holds.
    drop((replica, server, source, leader));
    let (_store, recovered) = Store::recover(&leader_dir, store_config()).unwrap();
    assert_eq!(recovered.epoch, 2);
    assert_eq!(
        answers(&recovered.index, &workload).0,
        warm,
        "the recovered store answers differently"
    );

    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&replica_root);
}

#[test]
fn two_threads_on_one_cold_index_answer_as_a_sequential_run() {
    // Two threads run the same 200 queries, in opposite orders, on one cold index,
    // so they race to compute, read and regrow the same memo entries (k runs over
    // 1..=5). Every answer must be the one a sequential run on its own cold index
    // gives.
    let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(300))
        .generate(2023)
        .unwrap()
        .graph;
    let cold = || DtlpIndex::build(&graph, DtlpConfig::new(25, 2)).unwrap();
    let (shared, alone) = (cold(), cold());
    let mut workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(200, 1), 63);
    for (i, q) in workload.queries.iter_mut().enumerate() {
        q.k = 1 + i % 5;
    }
    let run = |index: &DtlpIndex, order: &mut dyn Iterator<Item = usize>| {
        let engine = KspDgEngine::with_config(index, KspDgConfig::default().with_trace());
        let mut answers = vec![None; workload.len()];
        for i in order {
            let q = &workload.queries[i];
            answers[i] = Some(answer(engine.query(q.source, q.target, q.k)));
        }
        answers
    };
    let sequential = run(&alone, &mut (0..workload.len()));
    let (forward, backward) = std::thread::scope(|scope| {
        let forward = scope.spawn(|| run(&shared, &mut (0..workload.len())));
        let backward = scope.spawn(|| run(&shared, &mut (0..workload.len()).rev()));
        (forward.join().unwrap(), backward.join().unwrap())
    });
    for (i, want) in sequential.iter().enumerate() {
        let q = &workload.queries[i];
        assert_eq!(forward[i], *want, "forward thread, query {i}: {q:?}");
        assert_eq!(backward[i], *want, "backward thread, query {i}: {q:?}");
    }
}
