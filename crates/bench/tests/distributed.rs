//! Integration tests of the simulated cluster: after updates it must still answer
//! exactly, and its scaling reports must be self-consistent.

use ksp_algo::yen_ksp;
use ksp_bench::cluster::{Cluster, ClusterConfig, QuerySpec};
use ksp_core::dtlp::DtlpConfig;
use ksp_core::kspdg::KspDgEngine;
use ksp_workload::datasets::DatasetScale;
use ksp_workload::{
    DatasetPreset, QueryWorkload, QueryWorkloadConfig, TrafficConfig, TrafficModel,
};

fn tiny_graph() -> ksp_graph::DynamicGraph {
    DatasetPreset::NewYork.spec(DatasetScale::Tiny).generate().expect("dataset").graph
}

#[test]
fn cluster_agrees_with_yen_after_updates() {
    let mut graph = tiny_graph();
    let dtlp = DtlpConfig::new(18, 2);
    let (mut cluster, _) = Cluster::build(&graph, ClusterConfig::new(4, dtlp)).expect("cluster");

    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.4, 0.5), 21);
    for _ in 0..2 {
        let batch = traffic.next_snapshot();
        graph.apply_batch(&batch).expect("graph update");
        cluster.apply_batch(&batch).expect("cluster maintenance");
    }

    let engine = KspDgEngine::new(cluster.index());
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(8, 2), 31);
    for q in workload.iter() {
        let local = engine.query(q.source, q.target, q.k);
        let truth = yen_ksp(&graph, q.source, q.target, q.k);
        assert_eq!(local.paths.len(), truth.len(), "query {q:?}");
        for (a, c) in local.paths.iter().zip(truth.iter()) {
            assert!(a.distance().approx_eq(c.distance()));
        }
    }
}

#[test]
fn query_batch_reports_are_consistent() {
    let graph = tiny_graph();
    let (cluster, build) =
        Cluster::build(&graph, ClusterConfig::new(5, DtlpConfig::new(18, 2))).expect("cluster");
    assert_eq!(build.per_server.len(), 5);

    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(20, 2), 41);
    let specs: Vec<QuerySpec> =
        workload.iter().map(|q| QuerySpec { source: q.source, target: q.target, k: q.k }).collect();
    let report = cluster.process_queries(&specs);
    assert_eq!(report.queries_answered, 20);
    let items: usize = report.per_server.iter().map(|l| l.items_processed).sum();
    assert_eq!(items, 20, "every query must be attributed to a server");
    assert!(report.total_iterations >= 20);
    assert!(report.simulated_makespan() <= report.per_server.iter().map(|l| l.busy_time).sum());
    assert!(report.load_balance.busy_spread <= 1.0);
}

#[test]
fn more_servers_never_increase_simulated_makespan_much() {
    let graph = tiny_graph();
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(30, 2), 51);
    let specs: Vec<QuerySpec> =
        workload.iter().map(|q| QuerySpec { source: q.source, target: q.target, k: q.k }).collect();
    let mut previous = None;
    for servers in [1usize, 2, 8] {
        let (cluster, _) =
            Cluster::build(&graph, ClusterConfig::new(servers, DtlpConfig::new(18, 2)))
                .expect("cluster");
        let makespan = cluster.process_queries(&specs).simulated_makespan();
        if let Some(prev) = previous {
            // Allow a generous tolerance: measurement noise on very fast queries.
            assert!(
                makespan.as_secs_f64() <= 1.5 * f64::max(prev, 1e-6),
                "makespan grew sharply when adding servers"
            );
        }
        previous = Some(makespan.as_secs_f64());
    }
}
