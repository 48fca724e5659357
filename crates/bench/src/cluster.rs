//! The simulated cluster behind the Section 6 scaling figures.
//!
//! The paper deploys KSP-DG on Apache Storm over 10–20 servers: an EntranceSpout
//! routes updates and queries, SubgraphBolts own the partitioned subgraphs and their
//! level-one DTLP indexes, and QueryBolts run the filter-and-refine loop of each query.
//! This harness reproduces the cost model of that deployment on one processor, over
//! the one [`DtlpIndex`] the service runs and the real engine ([`KspDgEngine`]).
//!
//! Subgraphs are assigned to `Ns` *logical servers* with the same load-balancing rule
//! the paper uses ("allocated to workers on a many-to-one basis based on their load").
//! Work items — per-subgraph index builds, as [`DtlpIndex::build`] times them, and
//! per-query executions — run one after another, and each item's duration is
//! attributed to the logical server that owns it. The reports expose both the
//! one-processor wall-clock time and the *simulated makespan* (maximum per-server
//! busy time), which is the quantity that scales with `Ns` the way a real cluster's
//! batch latency does. The `fig42`–`fig46` and `loadbal` experiments read these
//! reports; per-server accounting lives in [`crate::metrics`].

use crate::metrics::{balanced_assignment, LoadBalanceReport, ServerLoad};
use ksp_core::dtlp::{DtlpConfig, DtlpIndex};
use ksp_core::kspdg::KspDgEngine;
use ksp_graph::{DynamicGraph, GraphError};
use ksp_workload::QueryWorkload;
use std::time::{Duration, Instant};

/// Configuration of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of logical servers (the paper's `Ns`, 10 by default and up to 20 in the
    /// scaling experiments).
    pub num_servers: usize,
    /// DTLP configuration used to build the index.
    pub dtlp: DtlpConfig,
}

impl ClusterConfig {
    /// Creates a configuration with the given server count and DTLP settings.
    pub fn new(num_servers: usize, dtlp: DtlpConfig) -> Self {
        ClusterConfig { num_servers, dtlp }
    }
}

/// Report of an index build (Figure 42).
#[derive(Debug, Clone)]
pub struct DistributedBuildReport {
    /// One-processor time of the whole build ([`ksp_core::dtlp::BuildStats::build_time`]).
    pub wall_clock: Duration,
    /// Per-server attributed build time.
    pub per_server: Vec<ServerLoad>,
    /// Load balance summary; its makespan is the simulated cluster build time.
    pub load_balance: LoadBalanceReport,
}

/// Report of a query batch (the query-scaling Figures 43–46 and the Section 6.6
/// load-balance report; the engine-level query figures 28–34 time the engine
/// directly).
#[derive(Debug, Clone)]
pub struct DistributedQueryReport {
    /// One-processor time of the whole batch.
    pub wall_clock: Duration,
    /// Per-server attributed query time.
    pub per_server: Vec<ServerLoad>,
    /// Load balance summary; its makespan is the simulated cluster batch latency.
    pub load_balance: LoadBalanceReport,
    /// Number of queries answered.
    pub queries_answered: usize,
    /// Sum of per-query iteration counts.
    pub total_iterations: usize,
    /// Sum of per-query communication cost in vertex units (Section 5.6.1).
    pub total_vertices_transferred: usize,
    /// Sum of per-query candidate paths generated.
    pub total_candidates: usize,
}

impl DistributedQueryReport {
    /// The simulated batch latency on a cluster with `num_servers` servers.
    pub fn simulated_makespan(&self) -> Duration {
        self.load_balance.simulated_makespan()
    }

    /// Mean number of iterations per query.
    pub fn mean_iterations(&self) -> f64 {
        if self.queries_answered == 0 {
            0.0
        } else {
            self.total_iterations as f64 / self.queries_answered as f64
        }
    }
}

/// The simulated cluster: a DTLP index whose subgraphs are assigned to logical servers.
#[derive(Debug)]
pub struct Cluster {
    num_servers: usize,
    index: DtlpIndex,
    /// For every subgraph, the logical server that owns it.
    subgraph_server: Vec<usize>,
}

impl Cluster {
    /// Builds the DTLP index for `graph`, assigns its subgraphs to servers, and
    /// charges each server the build time of the subgraphs it owns.
    pub fn build(
        graph: &DynamicGraph,
        config: ClusterConfig,
    ) -> Result<(Self, DistributedBuildReport), GraphError> {
        assert!(config.num_servers >= 1, "a cluster needs at least one server");
        let index = DtlpIndex::build(graph, config.dtlp)?;

        // Assign subgraphs to servers by estimated load (boundary² is the dominant cost
        // of bounding-path computation; edges dominate for interior subgraphs).
        let load_estimates: Vec<usize> = index
            .subgraph_indexes()
            .iter()
            .map(|idx| idx.subgraph().num_edges() + idx.subgraph().boundary_vertices().len().pow(2))
            .collect();
        let subgraph_server = balanced_assignment(&load_estimates, config.num_servers);

        let stats = index.build_stats();
        let mut per_server = vec![ServerLoad::default(); config.num_servers];
        for (&server, &elapsed) in subgraph_server.iter().zip(&stats.subgraph_build_times) {
            per_server[server].record(elapsed);
        }
        let wall_clock = stats.build_time;
        let cluster = Cluster { num_servers: config.num_servers, index, subgraph_server };
        cluster.set_memory(&mut per_server);
        let report = DistributedBuildReport {
            wall_clock,
            load_balance: LoadBalanceReport::from_loads(&per_server),
            per_server,
        };
        Ok((cluster, report))
    }

    /// The DTLP index.
    pub fn index(&self) -> &DtlpIndex {
        &self.index
    }

    /// The logical server owning each subgraph.
    pub fn subgraph_assignment(&self) -> &[usize] {
        &self.subgraph_server
    }

    /// Per-server memory consumption (index + subgraph bytes), for the load-balance
    /// report of Section 6.6.
    pub fn per_server_memory(&self) -> Vec<usize> {
        let mut memory = vec![0usize; self.num_servers];
        for (i, idx) in self.index.subgraph_indexes().iter().enumerate() {
            memory[self.subgraph_server[i]] +=
                idx.index_memory_bytes() + idx.subgraph_memory_bytes();
        }
        memory
    }

    fn set_memory(&self, per_server: &mut [ServerLoad]) {
        for (load, memory) in per_server.iter_mut().zip(self.per_server_memory()) {
            load.memory_bytes = memory;
        }
    }

    /// Answers a batch of queries one after another, attributing each query to a
    /// logical server round-robin (every query is handled by a single QueryBolt in
    /// the deployed system).
    pub fn process_queries(&self, workload: &QueryWorkload) -> DistributedQueryReport {
        let start = Instant::now();
        let engine = KspDgEngine::new(&self.index);
        let mut per_server = vec![ServerLoad::default(); self.num_servers];
        let mut total_iterations = 0;
        let mut total_vertices_transferred = 0;
        let mut total_candidates = 0;
        for (i, q) in workload.iter().enumerate() {
            let t0 = Instant::now();
            let stats = engine.query(q.source, q.target, q.k).stats;
            per_server[i % self.num_servers].record(t0.elapsed());
            total_iterations += stats.iterations;
            total_vertices_transferred += stats.vertices_transferred;
            total_candidates += stats.candidates_generated;
        }
        let wall_clock = start.elapsed();
        self.set_memory(&mut per_server);
        DistributedQueryReport {
            wall_clock,
            load_balance: LoadBalanceReport::from_loads(&per_server),
            per_server,
            queries_answered: workload.len(),
            total_iterations,
            total_vertices_transferred,
            total_candidates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_algo::yen_ksp;
    use ksp_workload::{QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator};

    fn network(n: usize, seed: u64) -> DynamicGraph {
        RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n)).generate(seed).unwrap().graph
    }

    #[test]
    fn cluster_build_covers_all_subgraphs_and_balances_load() {
        let g = network(400, 3);
        let config = ClusterConfig::new(4, DtlpConfig::new(25, 2));
        let (cluster, report) = Cluster::build(&g, config).unwrap();
        assert_eq!(cluster.subgraph_assignment().len(), cluster.index().num_subgraphs());
        assert!(cluster.subgraph_assignment().iter().all(|&s| s < 4));
        assert_eq!(report.per_server.len(), 4);
        let total_items: usize = report.per_server.iter().map(|l| l.items_processed).sum();
        assert_eq!(total_items, cluster.index().num_subgraphs());
        // Each server is charged exactly the build times of the subgraphs it owns.
        let busy: Duration = report.per_server.iter().map(|l| l.busy_time).sum();
        let built: Duration = cluster.index().build_stats().subgraph_build_times.iter().sum();
        assert_eq!(busy, built);
        assert!(report.wall_clock >= built);
        assert!(report.load_balance.simulated_makespan() > Duration::ZERO);
    }

    #[test]
    fn query_batch_answers_match_yen() {
        let g = network(250, 7);
        let (cluster, _) =
            Cluster::build(&g, ClusterConfig::new(4, DtlpConfig::new(18, 2))).unwrap();
        let workload = QueryWorkload::generate(&g, QueryWorkloadConfig::new(8, 2), 3);
        // Check correctness through the shared engine (the batch API reports stats only).
        let engine = KspDgEngine::new(cluster.index());
        for q in workload.iter() {
            let got = engine.query(q.source, q.target, q.k);
            let want = yen_ksp(&g, q.source, q.target, q.k);
            assert_eq!(got.paths.len(), want.len());
            for (a, b) in got.paths.iter().zip(want.iter()) {
                assert!(a.distance().approx_eq(b.distance()));
            }
        }
        let report = cluster.process_queries(&workload);
        assert_eq!(report.queries_answered, 8);
        assert!(report.total_iterations >= 8);
        assert!(report.total_vertices_transferred > 0);
        assert!(report.mean_iterations() >= 1.0);
    }

    #[test]
    fn query_batch_totals_are_the_engine_counters() {
        let g = network(300, 29);
        let (cluster, _) =
            Cluster::build(&g, ClusterConfig::new(3, DtlpConfig::new(20, 2))).unwrap();
        let workload = QueryWorkload::generate(&g, QueryWorkloadConfig::new(16, 3), 5);
        let report = cluster.process_queries(&workload);
        let engine = KspDgEngine::new(cluster.index());
        let (mut iterations, mut candidates) = (0, 0);
        for q in workload.iter() {
            let stats = engine.query(q.source, q.target, q.k).stats;
            iterations += stats.iterations;
            candidates += stats.candidates_generated;
        }
        assert_eq!(report.total_iterations, iterations);
        assert_eq!(report.total_candidates, candidates);
    }

    #[test]
    fn more_servers_reduce_simulated_makespan() {
        let g = network(350, 11);
        let workload = QueryWorkload::generate(&g, QueryWorkloadConfig::new(40, 2), 9);
        let mut makespans = Vec::new();
        for servers in [1, 4, 16] {
            let (cluster, _) =
                Cluster::build(&g, ClusterConfig::new(servers, DtlpConfig::new(20, 2))).unwrap();
            let report = cluster.process_queries(&workload);
            makespans.push(report.simulated_makespan());
        }
        assert!(
            makespans[2] < makespans[0],
            "16 servers ({:?}) should beat 1 server ({:?})",
            makespans[2],
            makespans[0]
        );
    }

    #[test]
    fn per_server_memory_is_fully_assigned() {
        let g = network(300, 17);
        let (cluster, _) =
            Cluster::build(&g, ClusterConfig::new(6, DtlpConfig::new(20, 1))).unwrap();
        let memory = cluster.per_server_memory();
        assert_eq!(memory.len(), 6);
        let total: usize = memory.iter().sum();
        let expected: usize = cluster
            .index()
            .subgraph_indexes()
            .iter()
            .map(|i| i.index_memory_bytes() + i.subgraph_memory_bytes())
            .sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn load_balance_spread_is_reasonable() {
        // Section 6.6: CPU spread < 6 %, memory spread < 2 % on the real cluster. On a
        // small synthetic graph the spread is larger, but it must stay well below total
        // imbalance for the balanced assignment to be considered working.
        let g = network(500, 19);
        let (cluster, build) =
            Cluster::build(&g, ClusterConfig::new(4, DtlpConfig::new(25, 2))).unwrap();
        assert!(build.load_balance.memory_spread < 0.9);
        let workload = QueryWorkload::generate(&g, QueryWorkloadConfig::new(32, 2), 23);
        let report = cluster.process_queries(&workload);
        assert!(report.load_balance.busy_spread < 0.95);
    }
}
