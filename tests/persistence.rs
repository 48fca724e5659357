//! Crash-recovery acceptance tests for the storage subsystem.
//!
//! The headline property: build graph + index, checkpoint, apply batches
//! (each logged), kill the service, `Store::recover` — and every
//! `(source, target, k)` answer equals, *byte for byte*, the answer a
//! never-persisted service gives at the same epoch. Plus the torn-write
//! property: truncating the log mid-record costs exactly the unacknowledged
//! tail, nothing more.

use ksp_dg::core::dtlp::DtlpConfig;
use ksp_dg::graph::{DynamicGraph, UpdateBatch, VertexId};
use ksp_dg::serve::{QueryService, ServiceConfig};
use ksp_dg::store::{Store, StoreConfig, SyncPolicy};
use ksp_dg::workload::{
    QueryWorkload, QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig,
    TrafficModel,
};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ksp-dg-persistence-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn road_network(n: usize, seed: u64) -> DynamicGraph {
    RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n)).generate(seed).unwrap().graph
}

fn store_config(checkpoint_interval: u64) -> StoreConfig {
    // fsync off: these tests measure correctness, not disk latency.
    StoreConfig { checkpoint_interval, sync: SyncPolicy::Never, ..StoreConfig::default() }
}

/// The acceptance criterion: recovered answers are byte-identical to a
/// never-persisted service's answers at the same epoch.
#[test]
fn recovered_service_answers_byte_identically_to_a_never_persisted_one() {
    let dir = temp_dir("byte-identical");
    let graph = road_network(220, 77);
    let config = ServiceConfig::new(2, DtlpConfig::new(20, 2));

    // Reference: a purely in-memory service.
    let reference = QueryService::start(graph.clone(), config).unwrap();
    // Subject: a persistent service with a mid-run checkpoint (interval 2).
    let persistent =
        QueryService::start_with_store(graph.clone(), config, &dir, store_config(2)).unwrap();

    let mut traffic_a = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), 13);
    let mut traffic_b = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), 13);
    let batches: Vec<UpdateBatch> = (0..3).map(|_| traffic_a.next_snapshot()).collect();
    for batch in &batches {
        assert_eq!(batch, &traffic_b.next_snapshot(), "traffic model must be deterministic");
        reference.apply_batch(batch).unwrap();
        persistent.apply_batch(batch).unwrap();
    }
    drop(persistent); // kill: recovery may use only what is on disk

    let (recovered, report) = QueryService::open(&dir, config, store_config(2)).unwrap();
    assert_eq!(recovered.current_epoch(), reference.current_epoch());
    // The background checkpointer imaged epoch 2, so recovery is
    // checkpoint(2) + one replayed batch (epoch 3).
    assert_eq!(
        report.checkpoint_epoch, 2,
        "the interval-2 checkpoint must be the recovery base (got {report:?})"
    );
    assert_eq!(
        report.batches_replayed, 1,
        "the checkpoint must cover every epoch before the last (got {report:?})"
    );

    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(25, 3), 7);
    for q in workload.iter() {
        let want = reference.query(q.source, q.target, q.k).unwrap();
        let got = recovered.query(q.source, q.target, q.k).unwrap();
        assert_eq!(got.epoch, want.epoch);
        assert_eq!(got.paths.len(), want.paths.len(), "{} -> {} k={}", q.source, q.target, q.k);
        for (a, b) in got.paths.iter().zip(want.paths.iter()) {
            assert_eq!(a.vertices(), b.vertices());
            assert_eq!(
                a.distance().value().to_bits(),
                b.distance().value().to_bits(),
                "distance must round-trip bit-exactly for {} -> {}",
                q.source,
                q.target
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Torn-write recovery: truncating the delta log mid-record drops exactly the
/// torn tail, and the store recovers to the last acknowledged epoch before it.
#[test]
fn torn_log_write_loses_only_the_tail() {
    let dir = temp_dir("torn-tail");
    let mut graph = road_network(150, 31);
    let index = ksp_dg::core::dtlp::DtlpIndex::build(&graph, DtlpConfig::new(16, 2)).unwrap();
    let mut live_index = index.clone();
    let mut store = Store::create(&dir, store_config(0), 0, &graph, &index).unwrap();

    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), 5);
    let mut epoch2_state: Option<(Vec<u8>, Vec<u8>)> = None;
    for _ in 0..3 {
        let batch = traffic.next_snapshot();
        let epoch = graph.apply_batch(&batch).unwrap();
        live_index.apply_batch(&batch).unwrap();
        store.log_batch(epoch, &batch).unwrap();
        if epoch == 2 {
            use ksp_dg::store::StoreCodec;
            epoch2_state = Some((graph.to_bytes(), live_index.to_bytes()));
        }
    }
    drop(store);

    // Tear the last record: chop bytes off the newest segment so the final
    // (epoch 3) record is incomplete.
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "log"))
        .max()
        .expect("a log segment exists");
    let len = std::fs::metadata(&segment).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&segment).unwrap();
    file.set_len(len - 5).unwrap();
    drop(file);

    // Verify reports the damage but still calls the store recoverable.
    let verify = Store::verify(&dir).unwrap();
    assert!(verify.recoverable);
    assert!(verify.torn_bytes > 0);
    assert_eq!(verify.intact_records, 2);

    let (_store, recovered) = Store::recover(&dir, store_config(0)).unwrap();
    assert_eq!(recovered.epoch, 2, "recovery drops only the torn epoch-3 tail");
    assert!(recovered.report.torn_bytes_dropped > 0);
    let (graph_bytes, index_bytes) = epoch2_state.unwrap();
    use ksp_dg::store::StoreCodec;
    assert_eq!(recovered.graph.to_bytes(), graph_bytes);
    assert_eq!(recovered.index.to_bytes(), index_bytes);

    // The truncated store accepts new epochs where the torn one used to be.
    let mut store = _store;
    let batch = traffic.next_snapshot();
    let mut graph = recovered.graph;
    let epoch = graph.apply_batch(&batch).unwrap();
    assert_eq!(epoch, 3);
    store.log_batch(epoch, &batch).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run of background checkpoints (one per epoch, retention pruning the
/// older ones) recovers byte-identically at every stage and across several
/// lives of the service.
#[test]
fn incremental_checkpoint_chain_recovers_byte_identically() {
    use ksp_dg::store::StoreCodec;
    let dir = temp_dir("chain");
    let graph = road_network(180, 91);
    let config = ServiceConfig::new(1, DtlpConfig::new(18, 2));
    // Checkpoint every epoch.
    let store_config =
        StoreConfig { checkpoint_interval: 1, sync: SyncPolicy::Never, ..StoreConfig::default() };

    let reference = QueryService::start(graph.clone(), config).unwrap();
    let mut traffic_a = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), 29);
    let mut traffic_b = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), 29);
    {
        let persistent =
            QueryService::start_with_store(graph.clone(), config, &dir, store_config).unwrap();
        // 5 epochs, each checkpointed.
        for _ in 0..5 {
            let batch = traffic_a.next_snapshot();
            reference.apply_batch(&batch).unwrap();
            persistent.apply_batch(&batch).unwrap();
        }
    }
    // Recover, compare answers bit-for-bit, publish one more epoch, crash
    // again, recover again: checkpointing keeps going across lives.
    for life in 0..2u64 {
        let (recovered, _report) = QueryService::open(&dir, config, store_config).unwrap();
        assert_eq!(recovered.current_epoch(), reference.current_epoch());
        let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(15, 2), 3 + life);
        for q in workload.iter() {
            let want = reference.query(q.source, q.target, q.k).unwrap();
            let got = recovered.query(q.source, q.target, q.k).unwrap();
            assert_eq!(got.paths.len(), want.paths.len());
            for (a, b) in got.paths.iter().zip(want.paths.iter()) {
                assert_eq!(a.vertices(), b.vertices());
                assert_eq!(a.distance().value().to_bits(), b.distance().value().to_bits());
            }
        }
        let batch = traffic_a.next_snapshot();
        reference.apply_batch(&batch).unwrap();
        recovered.apply_batch(&batch).unwrap();
    }
    // Sanity: both traffic models were driven identically.
    for _ in 0..7 {
        traffic_b.next_snapshot();
    }
    assert_eq!(traffic_a.next_snapshot(), traffic_b.next_snapshot());

    // The final recovered state equals the reference masters byte-for-byte.
    let (final_service, _) = QueryService::open(&dir, config, store_config).unwrap();
    let snapshot = final_service.snapshot();
    let reference_snapshot = reference.snapshot();
    assert_eq!(snapshot.graph().to_bytes(), reference_snapshot.graph().to_bytes());
    assert_eq!(snapshot.index().to_bytes(), reference_snapshot.index().to_bytes());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Epochs replayed from the log during recovery are not covered by any
/// on-disk checkpoint, so the *next* checkpoint after a restart must capture
/// them too. A recovered service that imaged anything but its full recovered
/// state would silently drop those updates at the following recovery.
#[test]
fn post_restart_incremental_image_covers_log_replayed_epochs() {
    use ksp_dg::graph::{UpdateBatch, Weight, WeightUpdate};
    let dir = temp_dir("replay-dirty");
    let graph = road_network(200, 57);
    let config = ServiceConfig::new(1, DtlpConfig::new(16, 2));
    let store_config =
        StoreConfig { checkpoint_interval: 2, sync: SyncPolicy::Never, ..StoreConfig::default() };

    // Three edges owned by three different subgraphs, so each single-edge
    // batch dirties a different subgraph.
    let index = ksp_dg::core::dtlp::DtlpIndex::build(&graph, DtlpConfig::new(16, 2)).unwrap();
    let mut picked = Vec::new();
    let mut seen_owners = Vec::new();
    for e in graph.edge_ids() {
        let owner = index.owner_of_edge(e);
        if !seen_owners.contains(&owner) {
            seen_owners.push(owner);
            picked.push(e);
            if picked.len() == 4 {
                break;
            }
        }
    }
    assert_eq!(picked.len(), 4, "need four edges in distinct subgraphs");
    let batch_for = |i: usize| {
        UpdateBatch::new(vec![WeightUpdate::new(picked[i], Weight::new(5.5 + i as f64))])
    };

    let reference = QueryService::start(graph.clone(), config).unwrap();
    {
        // Life 1: epochs 1 and 2 (the checkpoint at 2 covers them), then
        // epoch 3 — durable in the log only — and crash.
        let service =
            QueryService::start_with_store(graph.clone(), config, &dir, store_config).unwrap();
        for i in 0..3 {
            reference.apply_batch(&batch_for(i)).unwrap();
            service.apply_batch(&batch_for(i)).unwrap();
        }
    }
    {
        // Life 2: recovery replays epoch 3 (dirtying a subgraph no
        // checkpoint covers), then epoch 4 triggers the next checkpoint: it
        // must carry epoch 3's update too.
        let (service, report) = QueryService::open(&dir, config, store_config).unwrap();
        assert_eq!(report.batches_replayed, 1);
        reference.apply_batch(&batch_for(3)).unwrap();
        service.apply_batch(&batch_for(3)).unwrap();
    }
    // Life 3: if the epoch-4 checkpoint under-covered, this recovery silently
    // resurrects the pre-epoch-3 weight; byte equality catches it.
    let (final_service, report) = QueryService::open(&dir, config, store_config).unwrap();
    assert_eq!(report.batches_replayed, 0, "the epoch-4 checkpoint must cover epochs 3 and 4");
    assert_eq!(final_service.current_epoch(), 4);
    use ksp_dg::store::StoreCodec;
    let got = final_service.snapshot();
    let want = reference.snapshot();
    assert_eq!(got.graph().to_bytes(), want.graph().to_bytes());
    assert_eq!(got.index().to_bytes(), want.index().to_bytes());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A recovered service keeps serving correct (Yen-verified) answers and the
/// epoch sequence stays monotone across multiple restarts.
#[test]
fn multiple_restarts_preserve_correctness() {
    let dir = temp_dir("restarts");
    let graph = road_network(140, 3);
    let config = ServiceConfig::new(1, DtlpConfig::new(15, 2));
    let mut live = graph.clone();
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.4, 0.6), 11);

    {
        let service =
            QueryService::start_with_store(graph.clone(), config, &dir, store_config(2)).unwrap();
        let batch = traffic.next_snapshot();
        live.apply_batch(&batch).unwrap();
        assert_eq!(service.apply_batch(&batch).unwrap(), 1);
    }
    for round in 0..2 {
        let (service, _) = QueryService::open(&dir, config, store_config(2)).unwrap();
        let batch = traffic.next_snapshot();
        live.apply_batch(&batch).unwrap();
        let epoch = service.apply_batch(&batch).unwrap();
        assert_eq!(epoch, 2 + round);

        let q = service.query(VertexId(5), VertexId(100), 2).unwrap();
        let want = ksp_dg::algo::yen_ksp(&live, VertexId(5), VertexId(100), 2);
        assert_eq!(q.paths.len(), want.len());
        for (a, b) in q.paths.iter().zip(want.iter()) {
            assert!(a.distance().approx_eq(b.distance()));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
