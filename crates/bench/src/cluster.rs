//! The simulated cluster behind the Section 6 scaling figures.
//!
//! The paper deploys KSP-DG on Apache Storm over 10–20 servers: an EntranceSpout
//! routes updates and queries, SubgraphBolts own the partitioned subgraphs and their
//! level-one DTLP indexes, and QueryBolts run the filter-and-refine loop of each query.
//! This harness reproduces the cost model of that deployment on one processor, over
//! the one [`DtlpIndex`] the service runs and the real engine ([`KspDgEngine`]).
//!
//! Subgraphs are assigned to `Ns` *logical servers* with the same load-balancing rule
//! the paper uses ("allocated to workers on a many-to-one basis based on their load"):
//! the assignment is a function of the index and `Ns` alone, so one build serves every
//! server count. Work items — per-subgraph index builds, as [`DtlpIndex::build`] times
//! them, and per-query executions — run one after another, and each item's duration is
//! attributed to the logical server that owns it. The reports expose both the
//! one-processor wall-clock time and the *simulated makespan* (maximum per-server
//! busy time), which is the quantity that scales with `Ns` the way a real cluster's
//! batch latency does. The `fig42`–`fig46` and `loadbal` experiments read these
//! reports; per-server accounting lives in [`crate::metrics`].
//!
//! **Every query batch starts cold.** Queries memoise partial paths and target
//! distances in the index they run on. A batch therefore runs on a copy of the index
//! decoded from its storage encoding, which carries no memo, so that its time does not
//! depend on the batches run before it, and its report counts how many partial paths
//! the memos answered within the batch.

use crate::metrics::{balanced_assignment, LoadBalanceReport, ServerLoad};
use ksp_core::dtlp::DtlpIndex;
use ksp_core::kspdg::KspDgEngine;
use ksp_store::StoreCodec;
use ksp_workload::QueryWorkload;
use std::time::{Duration, Instant};

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
    /// Sum of per-query partial path computations.
    pub total_partials: usize,
    /// How many of those partial computations a subgraph's memo answered, filled by
    /// an earlier query of the batch.
    pub total_partials_reused: usize,
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

    /// The share of partial path computations the memos answered.
    pub fn memo_hit_share(&self) -> f64 {
        if self.total_partials == 0 {
            0.0
        } else {
            self.total_partials_reused as f64 / self.total_partials as f64
        }
    }
}

/// The simulated cluster: the subgraphs of one DTLP index assigned to logical servers.
#[derive(Debug)]
pub struct Cluster<'i> {
    index: &'i DtlpIndex,
    num_servers: usize,
    /// For every subgraph, the logical server that owns it.
    subgraph_server: Vec<usize>,
}

impl<'i> Cluster<'i> {
    /// Assigns the subgraphs of `index` to `num_servers` servers by estimated load
    /// (boundary² is the dominant cost of bounding-path computation; edges dominate
    /// for interior subgraphs).
    pub fn new(index: &'i DtlpIndex, num_servers: usize) -> Self {
        assert!(num_servers >= 1, "a cluster needs at least one server");
        let load_estimates: Vec<usize> = index
            .subgraph_indexes()
            .iter()
            .map(|idx| idx.subgraph().num_edges() + idx.subgraph().boundary_vertices().len().pow(2))
            .collect();
        let subgraph_server = balanced_assignment(&load_estimates, num_servers);
        Cluster { index, num_servers, subgraph_server }
    }

    /// The index build, each server charged the build times of the subgraphs it owns.
    pub fn build_report(&self) -> DistributedBuildReport {
        let stats = self.index.build_stats();
        let mut per_server = vec![ServerLoad::default(); self.num_servers];
        for (&server, &elapsed) in self.subgraph_server.iter().zip(&stats.subgraph_build_times) {
            per_server[server].record(elapsed);
        }
        self.set_memory(&mut per_server);
        DistributedBuildReport {
            wall_clock: stats.build_time,
            load_balance: LoadBalanceReport::from_loads(&per_server),
            per_server,
        }
    }

    /// The DTLP index.
    pub fn index(&self) -> &'i DtlpIndex {
        self.index
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

    /// Answers a batch of queries one after another on a memo-empty copy of the
    /// index, attributing each query to a logical server round-robin (every query is
    /// handled by a single QueryBolt in the deployed system).
    pub fn process_queries(&self, workload: &QueryWorkload) -> DistributedQueryReport {
        let cold = DtlpIndex::from_bytes(&self.index.to_bytes()).expect("an index decodes");
        let start = Instant::now();
        let engine = KspDgEngine::new(&cold);
        let mut per_server = vec![ServerLoad::default(); self.num_servers];
        let mut totals = [0usize; 5];
        for (i, q) in workload.iter().enumerate() {
            let t0 = Instant::now();
            let stats = engine.query(q.source, q.target, q.k).stats;
            per_server[i % self.num_servers].record(t0.elapsed());
            let counts = [
                stats.iterations,
                stats.vertices_transferred,
                stats.candidates_generated,
                stats.partial_computations,
                stats.partials_reused,
            ];
            for (total, count) in totals.iter_mut().zip(counts) {
                *total += count;
            }
        }
        let wall_clock = start.elapsed();
        self.set_memory(&mut per_server);
        let [total_iterations, total_vertices_transferred, total_candidates, total_partials, total_partials_reused] =
            totals;
        DistributedQueryReport {
            wall_clock,
            load_balance: LoadBalanceReport::from_loads(&per_server),
            per_server,
            queries_answered: workload.len(),
            total_iterations,
            total_vertices_transferred,
            total_candidates,
            total_partials,
            total_partials_reused,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_algo::yen_ksp;
    use ksp_core::dtlp::DtlpConfig;
    use ksp_graph::DynamicGraph;
    use ksp_workload::{QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator};

    fn network(n: usize, seed: u64) -> DynamicGraph {
        RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n)).generate(seed).unwrap().graph
    }

    #[test]
    fn cluster_build_covers_all_subgraphs_and_balances_load() {
        let g = network(400, 3);
        let index = DtlpIndex::build(&g, DtlpConfig::new(25, 2)).unwrap();
        let cluster = Cluster::new(&index, 4);
        let report = cluster.build_report();
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
        let index = DtlpIndex::build(&g, DtlpConfig::new(18, 2)).unwrap();
        let cluster = Cluster::new(&index, 4);
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
        let index = DtlpIndex::build(&g, DtlpConfig::new(20, 2)).unwrap();
        let cluster = Cluster::new(&index, 3);
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
    fn every_batch_starts_with_empty_memos() {
        // The batch repeats its first half, so the memos it fills answer some of its
        // own partials, and the same batch run again reads no more than that.
        let g = network(300, 31);
        let index = DtlpIndex::build(&g, DtlpConfig::new(20, 2)).unwrap();
        let cluster = Cluster::new(&index, 2);
        let mut workload = QueryWorkload::generate(&g, QueryWorkloadConfig::new(12, 2), 7);
        workload.queries.extend(workload.queries.clone());
        let first = cluster.process_queries(&workload);
        assert!(first.total_partials_reused > 0 && first.memo_hit_share() < 1.0);
        let again = cluster.process_queries(&workload);
        assert_eq!(again.total_partials_reused, first.total_partials_reused);
        assert_eq!(index.memo_bytes(), 0, "the batches ran on copies");
    }

    #[test]
    fn more_servers_reduce_simulated_makespan() {
        let g = network(350, 11);
        let workload = QueryWorkload::generate(&g, QueryWorkloadConfig::new(40, 2), 9);
        let index = DtlpIndex::build(&g, DtlpConfig::new(20, 2)).unwrap();
        let mut makespans = Vec::new();
        for servers in [1, 4, 16] {
            let report = Cluster::new(&index, servers).process_queries(&workload);
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
        let index = DtlpIndex::build(&g, DtlpConfig::new(20, 1)).unwrap();
        let cluster = Cluster::new(&index, 6);
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
        let index = DtlpIndex::build(&g, DtlpConfig::new(25, 2)).unwrap();
        let cluster = Cluster::new(&index, 4);
        assert!(cluster.build_report().load_balance.memory_spread < 0.9);
        let workload = QueryWorkload::generate(&g, QueryWorkloadConfig::new(32, 2), 23);
        let report = cluster.process_queries(&workload);
        assert!(report.load_balance.busy_spread < 0.95);
    }
}
