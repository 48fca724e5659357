use super::shard::{CloseQueueOnExit, Outcome};
use super::*;
use ksp_algo::yen_ksp;
use ksp_core::kspdg::KspDgConfig;
use ksp_obs::{ObsSnapshot, StageSet};
use ksp_workload::{
    QueryWorkload, QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig,
    TrafficModel,
};

fn service(n: usize, shards: usize, seed: u64) -> (QueryService, DynamicGraph) {
    let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n))
        .generate(seed)
        .unwrap()
        .graph;
    let config = ServiceConfig::new(shards, DtlpConfig::new(18, 2));
    let service = QueryService::start(graph.clone(), config).unwrap();
    (service, graph)
}

#[test]
fn answers_match_yen_on_the_initial_epoch() {
    let (service, graph) = service(200, 3, 5);
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(10, 2), 3);
    for q in workload.iter() {
        let response = service.query(q.source, q.target, q.k).unwrap();
        assert_eq!(response.epoch, 0);
        let expected = yen_ksp(&graph, q.source, q.target, q.k);
        assert_eq!(response.paths.len(), expected.len());
        for (a, b) in response.paths.iter().zip(expected.iter()) {
            assert!(a.distance().approx_eq(b.distance()));
        }
    }
    let report = service.metrics();
    assert_eq!(report.completed, 10);
    assert_eq!(report.rejected, 0);
}

#[test]
fn repeated_queries_hit_the_cache() {
    let (service, graph) = service(150, 2, 7);
    let (s, t) = (VertexId(1), VertexId(graph.num_vertices() as u32 - 1));
    let cold = service.query(s, t, 2).unwrap();
    assert!(!cold.cache_hit);
    let warm = service.query(s, t, 2).unwrap();
    assert!(warm.cache_hit);
    assert_eq!(cold.paths.len(), warm.paths.len());
    for (a, b) in cold.paths.iter().zip(warm.paths.iter()) {
        assert_eq!(a.vertices(), b.vertices());
        assert!(a.distance().approx_eq(b.distance()));
    }
    assert!(service.metrics().cache_hit_rate() > 0.0);
}

/// The tentpole behaviour: a publish evicts exactly the entries whose
/// trace the batch dirtied. An entry whose answer the batch touched must
/// miss afterwards; an entry far away from the dirty set must keep
/// hitting, re-stamped to the new epoch.
#[test]
fn publish_evicts_dirty_entries_and_keeps_disjoint_ones() {
    use ksp_graph::{Weight, WeightUpdate};
    let (service, graph) = service(300, 2, 7);
    let (s, t) = (VertexId(1), VertexId(8));
    let cold = service.query(s, t, 2).unwrap();
    assert!(!cold.cache_hit);

    // A batch updating an edge *on* the answer path: its owner subgraph is
    // necessarily in the query's trace, so the entry must be evicted.
    let (u, v) = {
        let verts = cold.paths[0].vertices();
        (verts[0], verts[1])
    };
    let on_path_edge = graph
        .edge_ids()
        .find(|&e| {
            let rec = graph.edge(e);
            (rec.u == u && rec.v == v) || (rec.u == v && rec.v == u)
        })
        .expect("answer path edge exists");
    let batch = ksp_graph::UpdateBatch::new(vec![WeightUpdate::new(
        on_path_edge,
        Weight::new(graph.weight(on_path_edge).value() * 3.0),
    )]);
    assert_eq!(service.apply_batch(&batch).unwrap(), 1);
    let after = service.query(s, t, 2).unwrap();
    assert_eq!(after.epoch, 1);
    assert!(!after.cache_hit, "an entry whose trace was dirtied must be evicted");

    // A batch updating an edge owned by a subgraph outside the cached
    // entry's trace: the entry must survive the publish and keep
    // answering, now stamped with the new epoch. The trace of the cached
    // (epoch-1) entry is recomputed here through the same deterministic
    // engine the shard worker ran.
    let snapshot = service.snapshot();
    let trace = {
        // Same engine configuration the shard workers run (tracing on).
        let engine = ksp_core::kspdg::KspDgEngine::with_config(
            snapshot.index(),
            KspDgConfig::default().with_trace(),
        );
        let result = engine.query(s, t, 2);
        assert!(result.trace.complete);
        result.trace.subgraphs
    };
    let far_edge = graph
        .edge_ids()
        .find(|&e| !trace.contains(snapshot.index().owner_of_edge(e)))
        .expect("some edge is owned by an untraced subgraph");
    let far_batch = ksp_graph::UpdateBatch::new(vec![WeightUpdate::new(
        far_edge,
        Weight::new(snapshot.graph().weight(far_edge).value() * 2.0),
    )]);
    assert_eq!(service.apply_batch(&far_batch).unwrap(), 2);
    let survived = service.query(s, t, 2).unwrap();
    assert_eq!(survived.epoch, 2);
    assert!(survived.cache_hit, "a disjoint publish must not evict the entry");
    for (a, b) in survived.paths.iter().zip(after.paths.iter()) {
        assert_eq!(a.vertices(), b.vertices());
        assert_eq!(a.distance().value().to_bits(), b.distance().value().to_bits());
    }
    let report = service.metrics();
    assert!(report.cache_retained >= 1, "retention must be counted");
    assert_eq!(report.epochs_published, 2);
}

/// Hot keys that all hash to one cache stripe, asked at once by many
/// clients: every answer must stay correct, and since an engine run's
/// answer lands in the request's home stripe whichever worker ran it, a
/// repeat of every hot key afterwards is an inline cache hit.
#[test]
fn a_skew_pinned_burst_is_answered_and_cached_in_its_home_stripe() {
    let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(250))
        .generate(23)
        .unwrap()
        .graph;
    let mut config = ServiceConfig::new(4, DtlpConfig::new(18, 2));
    // Room in the hot stripe for every hot key, and no more.
    config.cache_capacity = 12;
    let service = Arc::new(QueryService::start(graph.clone(), config).unwrap());

    // Find the hot keys: queries that all route to stripe 0.
    let n = graph.num_vertices() as u32;
    let mut hot: Vec<(VertexId, VertexId)> = Vec::new();
    's: for a in 0..n {
        for b in 0..n {
            if a != b && route_shard(VertexId(a), VertexId(b), 3, 4) == 0 {
                hot.push((VertexId(a), VertexId(b)));
                if hot.len() == 12 {
                    break 's;
                }
            }
        }
    }
    let expected: Vec<_> = hot.iter().map(|&(s, t)| yen_ksp(&graph, s, t, 3)).collect();
    let check = |response: &QueryResponse, pick: usize| {
        assert_eq!(response.paths.len(), expected[pick].len());
        for (got, want) in response.paths.iter().zip(expected[pick].iter()) {
            assert!(got.distance().approx_eq(want.distance()));
        }
    };

    std::thread::scope(|scope| {
        for client in 0..8usize {
            let service = service.clone();
            let hot = &hot;
            let check = &check;
            scope.spawn(move || {
                for i in 0..30usize {
                    let pick = (client + i) % hot.len();
                    let (s, t) = hot[pick];
                    match service.query(s, t, 3) {
                        Ok(response) => check(&response, pick),
                        Err(ServiceError::Overloaded { .. }) => continue,
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            });
        }
    });

    assert!(service.metrics().cache_misses >= hot.len() as u64);
    for (pick, &(s, t)) in hot.iter().enumerate() {
        let repeat = service.query(s, t, 3).unwrap();
        assert!(repeat.cache_hit, "hot key {pick} must hit its home stripe");
        check(&repeat, pick);
    }
}

#[test]
fn queries_reflect_published_weight_updates() {
    let (service, graph) = service(180, 2, 13);
    let mut live = graph.clone();
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), 3);
    for _ in 0..3 {
        let batch = traffic.next_snapshot();
        live.apply_batch(&batch).unwrap();
        service.apply_batch(&batch).unwrap();
    }
    assert_eq!(service.current_epoch(), 3);
    let workload = QueryWorkload::generate(&live, QueryWorkloadConfig::new(8, 3), 17);
    for q in workload.iter() {
        let response = service.query(q.source, q.target, q.k).unwrap();
        assert_eq!(response.epoch, 3);
        let expected = yen_ksp(&live, q.source, q.target, q.k);
        assert_eq!(response.paths.len(), expected.len());
        for (a, b) in response.paths.iter().zip(expected.iter()) {
            assert!(a.distance().approx_eq(b.distance()));
        }
    }
}

#[test]
fn invalid_requests_are_rejected_without_panicking_workers() {
    let (service, graph) = service(100, 2, 19);
    let bad = VertexId(graph.num_vertices() as u32 + 5);
    assert!(matches!(service.query(bad, VertexId(1), 2), Err(ServiceError::InvalidQuery(_))));
    assert!(matches!(service.query(VertexId(0), VertexId(1), 0), Err(ServiceError::InvalidK)));
    // Workers are still healthy afterwards.
    let ok = service.query(VertexId(0), VertexId(50), 1).unwrap();
    assert!(!ok.paths.is_empty());
}

#[test]
fn failed_batch_leaves_masters_and_epochs_untouched() {
    use ksp_graph::{EdgeId, Weight, WeightUpdate};
    let (service, graph) = service(150, 2, 31);
    let valid_edge = EdgeId(0);
    let bogus_edge = EdgeId(graph.num_edges() as u32 + 100);
    // A batch that fails halfway: the valid update must NOT leak into any
    // future epoch.
    let poisoned = ksp_graph::UpdateBatch::new(vec![
        WeightUpdate::new(valid_edge, Weight::new(999.0)),
        WeightUpdate::new(bogus_edge, Weight::new(1.0)),
    ]);
    assert!(service.apply_batch(&poisoned).is_err());
    assert_eq!(service.current_epoch(), 0, "failed batch must not publish");

    // A follow-up valid batch publishes epoch 1, whose graph must match
    // the pristine graph plus only this batch.
    let fix = ksp_graph::UpdateBatch::new(vec![WeightUpdate::new(valid_edge, Weight::new(2.5))]);
    assert_eq!(service.apply_batch(&fix).unwrap(), 1);
    let snapshot = service.snapshot();
    let expected = graph.with_batch(&fix).unwrap();
    assert_eq!(snapshot.graph().weight(valid_edge), Weight::new(2.5));
    assert_eq!(snapshot.graph().total_weight(), expected.total_weight());
    // And queries still agree with Yen on that graph.
    let q = service.query(VertexId(0), VertexId(100), 2).unwrap();
    assert_eq!(q.epoch, 1);
    let want = yen_ksp(&expected, VertexId(0), VertexId(100), 2);
    assert_eq!(q.paths.len(), want.len());
    for (a, b) in q.paths.iter().zip(want.iter()) {
        assert!(a.distance().approx_eq(b.distance()));
    }
}

fn temp_store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ksp-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn apply_batch_returns_the_epoch_id_the_batch_produced() {
    let (service, graph) = service(150, 2, 41);
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.4, 0.4), 5);
    for expected in 1..=3u64 {
        let epoch = service.apply_batch(&traffic.next_snapshot()).unwrap();
        assert_eq!(epoch, expected, "apply_batch must report the produced epoch");
        assert_eq!(service.current_epoch(), epoch);
        // Answers carry the same epoch id.
        let response = service.query(VertexId(0), VertexId(60), 1).unwrap();
        assert_eq!(response.epoch, epoch);
    }
}

#[test]
fn persistent_service_recovers_with_identical_answers() {
    let dir = temp_store_dir("recover");
    let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(160))
        .generate(23)
        .unwrap()
        .graph;
    let config = ServiceConfig::new(2, DtlpConfig::new(16, 2));
    let store_config = StoreConfig {
        checkpoint_interval: 2,
        sync: ksp_store::SyncPolicy::Never,
        ..StoreConfig::default()
    };
    let service =
        QueryService::start_with_store(graph.clone(), config, &dir, store_config).unwrap();
    assert!(service.is_persistent());
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), 9);
    for _ in 0..3 {
        service.apply_batch(&traffic.next_snapshot()).unwrap();
    }
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(8, 2), 3);
    let live: Vec<_> =
        workload.iter().map(|q| service.query(q.source, q.target, q.k).unwrap()).collect();
    drop(service); // crash/stop: recovery must rely only on the store

    let (recovered, report) = QueryService::open(&dir, config, store_config).unwrap();
    assert_eq!(recovered.current_epoch(), 3);
    // The background checkpointer imaged epoch 2, so recovery must not
    // replay all three batches from the log.
    assert_eq!(report.checkpoint_epoch, 2);
    assert_eq!(report.batches_replayed, 1);
    for (q, before) in workload.iter().zip(live.iter()) {
        let after = recovered.query(q.source, q.target, q.k).unwrap();
        assert_eq!(after.epoch, before.epoch);
        assert_eq!(after.paths.len(), before.paths.len());
        for (a, b) in after.paths.iter().zip(before.paths.iter()) {
            assert_eq!(a.vertices(), b.vertices());
            // Byte-identical, not merely approximately equal.
            assert_eq!(a.distance().value().to_bits(), b.distance().value().to_bits());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_service_keeps_publishing_and_checkpointing() {
    let dir = temp_store_dir("continue");
    let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(120))
        .generate(29)
        .unwrap()
        .graph;
    let config = ServiceConfig::new(1, DtlpConfig::new(14, 2));
    let store_config = StoreConfig {
        checkpoint_interval: 0, // only explicit checkpoints
        sync: ksp_store::SyncPolicy::Never,
        ..StoreConfig::default()
    };
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.4, 0.5), 2);
    {
        let service =
            QueryService::start_with_store(graph.clone(), config, &dir, store_config).unwrap();
        service.apply_batch(&traffic.next_snapshot()).unwrap();
        assert_eq!(service.checkpoint_now().unwrap(), Some(1));
        assert_eq!(service.last_checkpoint_epoch(), Some(1));
    }
    // Second life: recover, publish two more epochs, stop.
    {
        let (service, report) = QueryService::open(&dir, config, store_config).unwrap();
        assert_eq!(report.checkpoint_epoch, 1);
        assert_eq!(report.batches_replayed, 0);
        assert_eq!(service.apply_batch(&traffic.next_snapshot()).unwrap(), 2);
        assert_eq!(service.apply_batch(&traffic.next_snapshot()).unwrap(), 3);
    }
    // Third life: both post-checkpoint epochs replay from the log.
    let (service, report) = QueryService::open(&dir, config, store_config).unwrap();
    assert_eq!(report.batches_replayed, 2);
    assert_eq!(service.current_epoch(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn start_with_store_refuses_an_existing_store() {
    let dir = temp_store_dir("exists");
    let graph =
        RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(80)).generate(3).unwrap().graph;
    let config = ServiceConfig::new(1, DtlpConfig::new(12, 1));
    let store_config = StoreConfig { sync: ksp_store::SyncPolicy::Never, ..StoreConfig::default() };
    let first = QueryService::start_with_store(graph.clone(), config, &dir, store_config).unwrap();
    drop(first);
    assert!(matches!(
        QueryService::start_with_store(graph, config, &dir, store_config),
        Err(PublishError::Store(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn publish_shares_untouched_state_across_epochs() {
    use ksp_graph::{EdgeId, Weight, WeightUpdate};
    let (service, graph) = service(300, 2, 43);
    let before = service.snapshot();
    // One-edge batch: exactly one subgraph index may be copied.
    let batch = ksp_graph::UpdateBatch::new(vec![WeightUpdate::new(EdgeId(0), Weight::new(42.0))]);
    service.apply_batch(&batch).unwrap();
    let after = service.snapshot();

    assert!(after.graph().shares_topology_with(before.graph()), "graph structure is shared");
    let owner = before.index().owner_of_edge(EdgeId(0));
    let total = before.index().num_subgraphs();
    let shared = (0..total)
        .filter(|&i| {
            let id = ksp_graph::SubgraphId(i as u32);
            Arc::ptr_eq(
                before.index().subgraph_index_handle(id),
                after.index().subgraph_index_handle(id),
            )
        })
        .count();
    assert_eq!(shared, total - 1, "only the dirtied subgraph may be copied");
    assert!(!Arc::ptr_eq(
        before.index().subgraph_index_handle(owner),
        after.index().subgraph_index_handle(owner)
    ));
    // Even the dirtied subgraph copied only its weights: its edge records are
    // its own, its shape (vertices, adjacency, lookups, boundary) is shared.
    let (old, new) = (before.index().subgraph_index(owner), after.index().subgraph_index(owner));
    assert!(!Arc::ptr_eq(old.subgraph_handle(), new.subgraph_handle()));
    assert!(new.subgraph().shares_shape_with(old.subgraph()), "the subgraph was deep-copied");
    assert!(new.shares_structure_with(old), "the bounding-path shape was copied");
    // The published snapshot and the masters share one Arc pair: applying
    // the next batch forks off the published epoch, not a private copy.
    let masters_snapshot = service.snapshot();
    assert!(Arc::ptr_eq(after.graph(), masters_snapshot.graph()));
    assert!(Arc::ptr_eq(after.index(), masters_snapshot.index()));
    drop(graph);
}

#[test]
fn metrics_report_carries_one_queue_gauge() {
    let (service, graph) = service(120, 3, 47);
    let t = VertexId(graph.num_vertices() as u32 - 1);
    for s in 0..6u32 {
        service.query(VertexId(s), t, 1).unwrap();
    }
    let report = service.metrics();
    // Three workers drain one queue, so there is one gauge.
    let [gauge] = report.queue_gauges[..] else { panic!("one queue, one gauge") };
    assert_eq!(gauge.max_depth, service.config().admission.max_queue_depth);
    assert!(gauge.high_water <= gauge.max_depth);
    assert!(gauge.depth <= gauge.high_water.max(1));
    assert!(gauge.saturation() <= 1.0);
    // At least one request sat in the queue at some point.
    assert!(gauge.high_water >= 1);
    let snap = service.obs_snapshot();
    assert_eq!(snap.gauge("ksp_queue_high_water"), Some(gauge.high_water as f64));
    assert_eq!(report.steals, 0, "no request moves between workers");
}

#[test]
fn stage_histograms_telescope_to_the_end_to_end_histogram() {
    let (service, graph) = service(150, 2, 61);
    let t = VertexId(graph.num_vertices() as u32 - 1);
    // Eight misses run by the workers, then the same eight again as
    // hits answered inline at admission.
    for round in 0..2 {
        for s in 0..8u32 {
            let response = service.query(VertexId(s), t, 2).unwrap();
            assert_eq!(response.cache_hit, round == 1);
        }
    }
    let snap = service.obs_snapshot();
    assert_eq!(snap.end_to_end.count, 16);
    assert_eq!(snap.counter("ksp_cache_hits_total"), 8);
    let stage_total: u64 = snap.stages.iter().map(|s| s.histogram.total_micros).sum();
    // Spans share the submission Instant as their origin and the service
    // records the telescoped total as the e2e latency, so the per-stage
    // sums match the end-to-end histogram *exactly*, not approximately.
    assert_eq!(stage_total, snap.end_to_end.total_micros);
    // Every request passes every stage, an inline hit with a zero-width
    // queue stage.
    assert_eq!(snap.stages.len(), Stage::COUNT);
    for stage in &snap.stages {
        assert_eq!(stage.histogram.count, 16, "stage {}", stage.stage.name());
    }
    assert_eq!(snap.counter("ksp_requests_completed_total"), 16);
    assert!(snap.gauge("ksp_epoch_age_seconds").is_some());
}

#[test]
fn inline_hits_are_admitted_but_never_feed_the_cost_estimator() {
    let (service, graph) = service(150, 2, 67);
    let t = VertexId(graph.num_vertices() as u32 - 1);
    assert!(!service.query(VertexId(0), t, 2).unwrap().cache_hit);
    let estimate = |snap: &ObsSnapshot| {
        snap.gauge("ksp_admission_est_service_micros").expect("the estimator gauge is exported")
    };
    let after_miss = estimate(&service.obs_snapshot());
    assert!(after_miss > 0.0, "the worker observed the miss it ran");
    for _ in 0..100 {
        assert!(service.query(VertexId(0), t, 2).unwrap().cache_hit);
    }
    // Hits that never queued say nothing about how fast a backlog drains.
    let snap = service.obs_snapshot();
    assert_eq!(estimate(&snap), after_miss);
    assert_eq!(snap.counter("ksp_cache_hits_total"), 100);
    // Every submitted request was either accepted or rejected.
    let report = service.metrics();
    assert_eq!(report.admission_accepted + report.rejected, 101);
    assert_eq!(report.completed, 101);
}

#[test]
fn slo_breach_dumps_the_offending_span_chain() {
    let mut config = ServiceConfig::new(1, DtlpConfig::new(14, 2));
    // A 1ns SLO: every request breaches, so the first completion dumps.
    config.observability.slo_p99 = Duration::from_nanos(1);
    let graph =
        RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(120)).generate(9).unwrap().graph;
    let service = QueryService::start(graph.clone(), config).unwrap();
    let t = VertexId(graph.num_vertices() as u32 - 1);
    service.query(VertexId(0), t, 2).unwrap();
    let dump = service.observability().flight().last_dump().expect("breach dumps");
    assert_eq!(dump.cause.kind, EventKind::SloBreach);
    let chain = dump.span.expect("the dump carries the offending request's span chain");
    assert_eq!(chain.total_micros(), dump.cause.a, "cause payload is the e2e latency");
    let snap = service.obs_snapshot();
    assert!(snap.dump.is_some());
    assert_eq!(snap.counter("ksp_flight_dumps_total"), 1);
}

#[test]
fn disabled_observability_stays_inert() {
    let mut config = ServiceConfig::new(2, DtlpConfig::new(14, 2));
    config.observability = ksp_obs::ObsConfig::disabled();
    let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(120))
        .generate(17)
        .unwrap()
        .graph;
    let service = QueryService::start(graph.clone(), config).unwrap();
    let t = VertexId(graph.num_vertices() as u32 - 1);
    for s in 0..4u32 {
        service.query(VertexId(s), t, 1).unwrap();
    }
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::default(), 3);
    service.apply_batch(&traffic.next_snapshot()).unwrap();
    let snap = service.obs_snapshot();
    // The plain metrics still work; the obs machinery records nothing.
    assert_eq!(snap.counter("ksp_requests_completed_total"), 4);
    assert!(snap.stages.iter().all(|s| s.histogram.count == 0));
    assert_eq!(snap.counter("ksp_flight_events_total"), 0);
    assert!(snap.dump.is_none());
    // The e2e histogram still fills (it predates ksp-obs).
    assert_eq!(snap.end_to_end.count, 4);
}

#[test]
fn publishes_reach_the_flight_ring() {
    let (service, graph) = service(150, 2, 71);
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::default(), 5);
    service.apply_batch(&traffic.next_snapshot()).unwrap();
    service.apply_batch(&traffic.next_snapshot()).unwrap();
    let events = service.observability().flight().snapshot();
    let published =
        events.iter().filter(|e| e.kind == EventKind::EpochPublished).collect::<Vec<_>>();
    assert_eq!(published.len(), 2);
    assert_eq!(published[0].a, 1, "payload a is the epoch");
    assert_eq!(published[1].a, 2);
    assert!(events.iter().any(|e| e.kind == EventKind::CacheRetention));
}

/// A request with a probe reply, for driving the queue directly.
fn probe_request(replies: &mpsc::Sender<Outcome>) -> Request {
    let replies = replies.clone();
    Request {
        source: VertexId(0),
        target: VertexId(1),
        k: 1,
        submitted: Instant::now(),
        span: StageSpan::disabled(),
        trace_id: 0,
        stripe: 0,
        reply: Reply::new(move |outcome| {
            let _ = replies.send(outcome);
        }),
    }
}

#[test]
fn last_worker_out_closes_and_drains_the_queue() {
    let queue = BoundedQueue::new(4);
    let live_workers = AtomicUsize::new(2);
    let (replies, outcomes) = mpsc::channel();
    let first = CloseQueueOnExit { queue: &queue, live_workers: &live_workers };
    let second = CloseQueueOnExit { queue: &queue, live_workers: &live_workers };
    // One worker gone (a panic, say): the other still drains the queue.
    drop(first);
    assert!(queue.submit(probe_request(&replies)).is_ok(), "submissions still accepted");
    assert_eq!(queue.depth(), 1);
    assert!(outcomes.try_recv().is_err(), "the queued request is not answered yet");
    // The last one out closes the queue and drains it with ShuttingDown.
    drop(second);
    assert_eq!(queue.depth(), 0);
    assert!(matches!(outcomes.try_recv(), Ok(Err(ServiceError::ShuttingDown))));
    assert!(queue.submit(probe_request(&replies)).is_err(), "a closed queue rejects");
}

#[test]
fn routing_is_stable_and_in_range() {
    for shards in [1usize, 2, 7, 16] {
        for s in 0..20u32 {
            for t in 0..20u32 {
                let a = route_shard(VertexId(s), VertexId(t), 3, shards);
                let b = route_shard(VertexId(s), VertexId(t), 3, shards);
                assert_eq!(a, b);
                assert!(a < shards);
            }
        }
    }
}
