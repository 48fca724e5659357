//! Snapshot-consistency stress tests of the serving subsystem: many client
//! threads hammer a `QueryService` while an updater publishes traffic epochs,
//! and every response must be *exactly* the answer Yen's algorithm computes on
//! the graph of the epoch the response claims — i.e. no torn (graph, index)
//! reads, ever.

use ksp_dg::algo::yen_ksp;
use ksp_dg::core::dtlp::DtlpConfig;
use ksp_dg::graph::DynamicGraph;
use ksp_dg::serve::{QueryService, ServiceConfig, ServiceError};
use ksp_dg::workload::{
    QueryWorkload, QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig,
    TrafficModel,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn network(n: usize, seed: u64) -> DynamicGraph {
    RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n)).generate(seed).unwrap().graph
}

/// The central guarantee: under concurrent queries and epoch publishes, every
/// returned path set exactly matches `yen_ksp` recomputed on that response's
/// epoch graph. Every request is answered or explicitly rejected, and the
/// service's own accounting agrees with what the clients saw.
#[test]
fn concurrent_queries_are_exact_for_their_epoch() {
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 40;
    const EPOCHS: usize = 6;

    let graph = network(220, 71);
    let service =
        QueryService::start(graph.clone(), ServiceConfig::new(3, DtlpConfig::new(18, 2))).unwrap();
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(30, 2), 13);

    // Precompute the graph of every epoch the updater will publish: epoch e is
    // the initial graph with batches 1..=e applied. The updater below applies
    // the same deterministic batches through the service, so a response tagged
    // epoch e must match Yen on `per_epoch[e]`.
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.45, 0.45), 29);
    let batches: Vec<_> = traffic.snapshots(EPOCHS);
    let mut per_epoch: Vec<DynamicGraph> = vec![graph.clone()];
    for batch in &batches {
        per_epoch.push(per_epoch.last().unwrap().with_batch(batch).unwrap());
    }

    let torn = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    let overloaded = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let service = &service;
            let workload = &workload;
            let per_epoch = &per_epoch;
            let (torn, answered, overloaded) = (&torn, &answered, &overloaded);
            scope.spawn(move || {
                for q in workload.cycle_from(client * 7).take(REQUESTS_PER_CLIENT) {
                    let response = match service.query(q.source, q.target, q.k) {
                        Ok(r) => r,
                        Err(ServiceError::Overloaded { .. }) => {
                            overloaded.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        Err(other) => panic!("unexpected error: {other}"),
                    };
                    answered.fetch_add(1, Ordering::Relaxed);
                    let epoch_graph = &per_epoch[response.epoch as usize];
                    let expected = yen_ksp(epoch_graph, q.source, q.target, q.k);
                    if response.paths.len() != expected.len() {
                        torn.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    for (got, want) in response.paths.iter().zip(expected.iter()) {
                        if !got.distance().approx_eq(want.distance()) {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                        // The path must also be valid on the epoch graph with
                        // exactly the claimed distance.
                        let recomputed = got
                            .recompute_distance(epoch_graph)
                            .expect("returned path uses edges that exist");
                        if !recomputed.approx_eq(got.distance()) {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }

        // Updater: publish the precomputed batches while clients are running.
        // All EPOCHS batches are published even if clients finish early, so the
        // final epoch count below is deterministic.
        let service = &service;
        let batches = &batches;
        scope.spawn(move || {
            for batch in batches {
                std::thread::sleep(Duration::from_millis(3));
                service.apply_batch(batch).unwrap();
            }
        });
    });

    assert_eq!(torn.load(Ordering::Relaxed), 0, "torn or stale reads detected");
    assert_eq!(service.current_epoch(), EPOCHS as u64);
    let report = service.metrics();
    let answered = answered.load(Ordering::Relaxed) as u64;
    assert!(answered > 0);
    assert_eq!(report.completed, answered);
    assert_eq!(report.rejected, overloaded.load(Ordering::Relaxed) as u64);
    assert_eq!(report.cache_hits + report.cache_misses, report.completed);
    assert!(report.p50 <= report.p95 && report.p95 <= report.p99);
    assert_eq!(report.epochs_published, EPOCHS as u64);
}

/// A cached hit must be byte-identical to a cold miss for the same
/// `(source, target, k, epoch)`.
#[test]
fn cache_hit_equals_cold_miss() {
    let graph = network(180, 3);
    let service =
        QueryService::start(graph.clone(), ServiceConfig::new(2, DtlpConfig::new(15, 2))).unwrap();
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(12, 3), 5);

    for q in workload.iter() {
        let cold = service.query(q.source, q.target, q.k).unwrap();
        let warm = service.query(q.source, q.target, q.k).unwrap();
        assert!(!cold.cache_hit, "first request for {q:?} must be a miss");
        assert!(warm.cache_hit, "second request for {q:?} must hit");
        assert_eq!(cold.epoch, warm.epoch);
        assert_eq!(cold.paths.len(), warm.paths.len());
        for (a, b) in cold.paths.iter().zip(warm.paths.iter()) {
            assert_eq!(a.vertices(), b.vertices());
            assert!(a.distance().approx_eq(b.distance()));
        }
    }
    let report = service.metrics();
    assert_eq!(report.cache_hits, workload.len() as u64);
    assert_eq!(report.cache_misses, workload.len() as u64);
    assert!((report.cache_hit_rate() - 0.5).abs() < 1e-9);
}

/// A closed loop of client threads against a live service with traffic
/// updates: every request completes or is explicitly rejected, and the
/// metrics add up.
#[test]
fn closed_loop_driver_accounts_for_every_request() {
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 30;

    let graph = network(200, 41);
    let service =
        QueryService::start(graph.clone(), ServiceConfig::new(3, DtlpConfig::new(18, 2))).unwrap();
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(24, 2), 9);
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.35, 0.3), 17);

    let (completed, rejected) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let (clients_done, published) = (AtomicBool::new(false), AtomicUsize::new(0));
    let started = Instant::now();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (service, workload) = (&service, &workload);
                let (completed, rejected) = (&completed, &rejected);
                scope.spawn(move || {
                    for q in workload.cycle_from(client * 7).take(REQUESTS_PER_CLIENT) {
                        match service.query(q.source, q.target, q.k) {
                            Ok(_) => completed.fetch_add(1, Ordering::Relaxed),
                            Err(ServiceError::Overloaded { .. }) => {
                                rejected.fetch_add(1, Ordering::Relaxed)
                            }
                            Err(other) => panic!("unexpected error: {other}"),
                        };
                    }
                })
            })
            .collect();
        let (service, clients_done, published) = (&service, &clients_done, &published);
        scope.spawn(move || {
            while !clients_done.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(4));
                service.apply_batch(&traffic.next_snapshot()).unwrap();
                published.fetch_add(1, Ordering::Relaxed);
            }
        });
        for client in clients {
            client.join().unwrap();
        }
        clients_done.store(true, Ordering::Relaxed);
    });
    let elapsed = started.elapsed();
    let (completed, rejected) = (completed.into_inner(), rejected.into_inner());

    assert_eq!(completed + rejected, CLIENTS * REQUESTS_PER_CLIENT);
    let report = service.metrics();
    assert_eq!(report.completed, completed as u64);
    assert_eq!(report.rejected, rejected as u64);
    assert_eq!(report.cache_hits + report.cache_misses, completed as u64);
    assert!(completed as f64 / elapsed.as_secs_f64() > 0.0);
    assert!(report.p50 <= report.p95);
    assert!(report.p95 <= report.p99);
    assert_eq!(report.epochs_published, published.into_inner() as u64);
    assert_eq!(service.current_epoch(), report.epochs_published);
}
