//! Integration tests of the simulated cluster: its scaling reports must be
//! self-consistent.

use ksp_bench::cluster::Cluster;
use ksp_core::dtlp::{DtlpConfig, DtlpIndex};
use ksp_workload::datasets::DatasetScale;
use ksp_workload::{DatasetPreset, QueryWorkload, QueryWorkloadConfig};

fn tiny_graph() -> ksp_graph::DynamicGraph {
    DatasetPreset::NewYork.spec(DatasetScale::Tiny).generate().expect("dataset").graph
}

#[test]
fn query_batch_reports_are_consistent() {
    let graph = tiny_graph();
    let index = DtlpIndex::build(&graph, DtlpConfig::new(18, 2)).expect("index");
    let cluster = Cluster::new(&index, 5);
    assert_eq!(cluster.build_report().per_server.len(), 5);

    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(20, 2), 41);
    let report = cluster.process_queries(&workload);
    assert_eq!(report.queries_answered, 20);
    let items: usize = report.per_server.iter().map(|l| l.items_processed).sum();
    assert_eq!(items, 20, "every query must be attributed to a server");
    assert!(report.total_iterations >= 20);
    assert!(report.simulated_makespan() <= report.per_server.iter().map(|l| l.busy_time).sum());
    assert!(report.load_balance.busy_spread <= 1.0);
}

/// The simulated makespan is the busiest server's share of the work. Wall-clock
/// times of 30 tiny queries are noise beside the suite's other tests, so this checks
/// what the report counts: adding servers never gives the busiest one more queries,
/// and never changes the work the queries do.
#[test]
fn more_servers_never_increase_simulated_makespan_much() {
    let graph = tiny_graph();
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(30, 2), 51);
    let index = DtlpIndex::build(&graph, DtlpConfig::new(18, 2)).expect("index");
    let mut previous = None;
    for servers in [1usize, 2, 8] {
        let report = Cluster::new(&index, servers).process_queries(&workload);
        let busiest = report.per_server.iter().map(|l| l.items_processed).max().expect("servers");
        let work = (report.total_iterations, report.total_candidates, report.total_partials_reused);
        if let Some((prev_busiest, prev_work)) = previous {
            assert!(
                busiest <= prev_busiest,
                "{servers} servers: the busiest ran {busiest} queries, {prev_busiest} before"
            );
            assert_eq!(work, prev_work, "{servers} servers did other work");
        }
        previous = Some((busiest, work));
    }
}
