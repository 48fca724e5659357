//! The simulated cluster behind the Section 6 scaling figures.
//!
//! The paper deploys KSP-DG on Apache Storm over 10–20 servers: an EntranceSpout
//! routes updates and queries, SubgraphBolts own the partitioned subgraphs and their
//! level-one DTLP indexes, and QueryBolts run the filter-and-refine loop of each query.
//! This harness reproduces the cost model of that deployment on one machine, running
//! the real engine ([`KspDgEngine`]) rather than a copy of it.
//!
//! Subgraphs are assigned to `Ns` *logical servers* with the same load-balancing rule
//! the paper uses ("allocated to workers on a many-to-one basis based on their load").
//! Work items — per-subgraph index builds, per-subgraph maintenance, per-query
//! executions — run on a pool of OS threads sized to the machine and each item's
//! duration is measured individually, then attributed to the logical server that owns
//! it. The reports expose both the wall-clock time of the parallel run and the
//! *simulated makespan* (maximum per-server busy time), which is the quantity that
//! scales with `Ns` the way a real cluster's batch latency does, independent of how
//! many physical cores this machine happens to have. The `fig42`–`fig46` and `loadbal`
//! experiments read these reports; per-server accounting lives in [`crate::metrics`].

use crate::metrics::{balanced_assignment, LoadBalanceReport, ServerLoad};
use ksp_core::dtlp::{DtlpConfig, DtlpIndex, SubgraphIndex};
use ksp_core::kspdg::{KspDgEngine, QueryStats};
use ksp_graph::{
    DynamicGraph, GraphError, PartitionConfig, Partitioner, SubgraphId, UpdateBatch, VertexId,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Configuration of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of logical servers (the paper's `Ns`, 10 by default and up to 20 in the
    /// scaling experiments).
    pub num_servers: usize,
    /// DTLP configuration used to build the distributed index.
    pub dtlp: DtlpConfig,
}

impl ClusterConfig {
    /// Creates a configuration with the given server count and DTLP settings.
    pub fn new(num_servers: usize, dtlp: DtlpConfig) -> Self {
        ClusterConfig { num_servers, dtlp }
    }
}

/// OS threads used to execute `items` work items: the machine's available
/// parallelism, but never more threads than items.
fn worker_threads(items: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    hw.min(items.max(1))
}

/// A single KSP query submitted to the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuerySpec {
    /// Source vertex.
    pub source: VertexId,
    /// Destination vertex.
    pub target: VertexId,
    /// Number of shortest paths requested.
    pub k: usize,
}

/// Report of a distributed index build (Figure 42).
#[derive(Debug, Clone)]
pub struct DistributedBuildReport {
    /// Wall-clock time of the parallel build on this machine.
    pub wall_clock: Duration,
    /// Per-server attributed build time.
    pub per_server: Vec<ServerLoad>,
    /// Load balance summary; its makespan is the simulated cluster build time.
    pub load_balance: LoadBalanceReport,
}

/// Report of a distributed maintenance call (Figures 19–23 at cluster level).
#[derive(Debug, Clone)]
pub struct DistributedMaintenanceReport {
    /// Wall-clock time of the maintenance pass.
    pub wall_clock: Duration,
    /// Per-server attributed maintenance time.
    pub per_server: Vec<ServerLoad>,
    /// Load balance summary; its makespan is the simulated cluster maintenance time.
    pub load_balance: LoadBalanceReport,
    /// Total number of bounding-path distance adjustments.
    pub paths_touched: usize,
    /// Total number of skeleton edges whose weight changed.
    pub skeleton_edges_changed: usize,
}

/// Report of a distributed query batch (the query-scaling Figures 43–46 and the
/// Section 6.6 load-balance report; the engine-level query figures 28–34 time the
/// engine directly).
#[derive(Debug, Clone)]
pub struct DistributedQueryReport {
    /// Wall-clock time of the parallel batch on this machine.
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
    config: ClusterConfig,
    index: DtlpIndex,
    /// For every subgraph, the logical server that owns it.
    subgraph_server: Vec<usize>,
}

impl Cluster {
    /// Builds the distributed DTLP index for `graph` and reports per-server build cost.
    pub fn build(
        graph: &DynamicGraph,
        config: ClusterConfig,
    ) -> Result<(Self, DistributedBuildReport), GraphError> {
        assert!(config.num_servers >= 1, "a cluster needs at least one server");
        let start = Instant::now();
        let partitioning =
            Partitioner::new(PartitionConfig::with_max_vertices(config.dtlp.max_subgraph_vertices))
                .partition(graph)?;

        let boundary = partitioning.boundary_vertices().to_vec();
        let mut vertex_subgraphs = HashMap::new();
        for v in graph.vertices() {
            vertex_subgraphs.insert(v, partitioning.subgraphs_of_vertex(v).to_vec());
        }
        let edge_owner: Vec<SubgraphId> =
            graph.edge_ids().map(|e| partitioning.owner_of_edge(e)).collect();
        let subgraphs = partitioning.into_subgraphs();

        // Assign subgraphs to servers by estimated load (boundary² is the dominant cost
        // of bounding-path computation; edges dominate for interior subgraphs).
        let load_estimates: Vec<usize> = subgraphs
            .iter()
            .map(|sg| sg.num_edges() + sg.boundary_vertices().len().pow(2))
            .collect();
        let subgraph_server = balanced_assignment(&load_estimates, config.num_servers);

        // Build every subgraph index on a bounded worker pool, measuring each build.
        let threads = worker_threads(subgraphs.len());
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<(SubgraphIndex, Duration)>>> =
            Mutex::new((0..subgraphs.len()).map(|_| None).collect());
        let dtlp_cfg = config.dtlp;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= subgraphs.len() {
                        break;
                    }
                    let sg = subgraphs[i].clone();
                    let t0 = Instant::now();
                    let built = SubgraphIndex::build(
                        sg,
                        dtlp_cfg.xi,
                        dtlp_cfg.max_enumerated_per_pair,
                        dtlp_cfg.backend,
                    );
                    let elapsed = t0.elapsed();
                    results.lock()[i] = Some((built, elapsed));
                });
            }
        });
        let mut per_server = vec![ServerLoad::default(); config.num_servers];
        let mut indexes: Vec<SubgraphIndex> = Vec::with_capacity(subgraphs.len());
        for (i, slot) in results.into_inner().into_iter().enumerate() {
            let (idx, elapsed) = slot.expect("every subgraph index was built");
            per_server[subgraph_server[i]].record(elapsed);
            per_server[subgraph_server[i]].memory_bytes +=
                idx.index_memory_bytes() + idx.subgraph_memory_bytes();
            indexes.push(idx);
        }

        let index = DtlpIndex::assemble(
            config.dtlp,
            graph.is_directed(),
            indexes,
            vertex_subgraphs,
            edge_owner,
            boundary,
        );
        let report = DistributedBuildReport {
            wall_clock: start.elapsed(),
            load_balance: LoadBalanceReport::from_loads(&per_server),
            per_server,
        };
        Ok((Cluster { config, index, subgraph_server }, report))
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The assembled DTLP index.
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
        let mut memory = vec![0usize; self.config.num_servers];
        for (i, idx) in self.index.subgraph_indexes().iter().enumerate() {
            memory[self.subgraph_server[i]] +=
                idx.index_memory_bytes() + idx.subgraph_memory_bytes();
        }
        memory
    }

    /// Applies a batch of weight updates, attributing per-subgraph maintenance cost to
    /// the owning server.
    pub fn apply_batch(
        &mut self,
        batch: &UpdateBatch,
    ) -> Result<DistributedMaintenanceReport, GraphError> {
        let start = Instant::now();
        let routed = self.index.route_batch(batch)?;
        let mut per_server = vec![ServerLoad::default(); self.config.num_servers];
        let mut paths_touched = 0;
        let mut skeleton_edges_changed = 0;
        for (sg_id, updates) in routed {
            let t0 = Instant::now();
            let stats = self.index.apply_updates_for_subgraph(sg_id, &updates)?;
            per_server[self.subgraph_server[sg_id.index()]].record(t0.elapsed());
            paths_touched += stats.paths_touched;
            skeleton_edges_changed += stats.skeleton_edges_changed;
        }
        for (s, mem) in self.per_server_memory().into_iter().enumerate() {
            per_server[s].memory_bytes = mem;
        }
        Ok(DistributedMaintenanceReport {
            wall_clock: start.elapsed(),
            load_balance: LoadBalanceReport::from_loads(&per_server),
            per_server,
            paths_touched,
            skeleton_edges_changed,
        })
    }

    /// Processes a batch of concurrent queries, running them on a bounded thread pool
    /// and attributing each query to a logical server round-robin (every query is
    /// handled by a single QueryBolt in the deployed system).
    pub fn process_queries(&self, queries: &[QuerySpec]) -> DistributedQueryReport {
        let start = Instant::now();
        let threads = worker_threads(queries.len());
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<(Duration, QueryStats)>>> =
            Mutex::new((0..queries.len()).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let engine = KspDgEngine::new(&self.index);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= queries.len() {
                            break;
                        }
                        let q = queries[i];
                        let t0 = Instant::now();
                        let result = engine.query(q.source, q.target, q.k);
                        let elapsed = t0.elapsed();
                        results.lock()[i] = Some((elapsed, result.stats));
                    }
                });
            }
        });

        let mut per_server = vec![ServerLoad::default(); self.config.num_servers];
        let mut total_iterations = 0;
        let mut total_vertices_transferred = 0;
        let mut total_candidates = 0;
        for (i, slot) in results.into_inner().into_iter().enumerate() {
            let (elapsed, stats) = slot.expect("every query was answered");
            per_server[i % self.config.num_servers].record(elapsed);
            total_iterations += stats.iterations;
            total_vertices_transferred += stats.vertices_transferred;
            total_candidates += stats.candidates_generated;
        }
        for (s, mem) in self.per_server_memory().into_iter().enumerate() {
            per_server[s].memory_bytes = mem;
        }
        DistributedQueryReport {
            wall_clock: start.elapsed(),
            load_balance: LoadBalanceReport::from_loads(&per_server),
            per_server,
            queries_answered: queries.len(),
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
    use ksp_workload::{
        QueryWorkload, QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig,
        TrafficModel,
    };

    fn network(n: usize, seed: u64) -> DynamicGraph {
        RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n)).generate(seed).unwrap().graph
    }

    fn specs(workload: &QueryWorkload) -> Vec<QuerySpec> {
        workload.iter().map(|q| QuerySpec { source: q.source, target: q.target, k: q.k }).collect()
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
        assert!(report.wall_clock > Duration::ZERO);
        assert!(report.load_balance.simulated_makespan() > Duration::ZERO);
    }

    #[test]
    fn distributed_build_matches_sequential_build_results() {
        let g = network(300, 5);
        let dtlp_cfg = DtlpConfig::new(20, 2);
        let sequential = DtlpIndex::build(&g, dtlp_cfg).unwrap();
        let (cluster, _) = Cluster::build(&g, ClusterConfig::new(3, dtlp_cfg)).unwrap();
        assert_eq!(sequential.num_subgraphs(), cluster.index().num_subgraphs());
        assert_eq!(
            sequential.skeleton().num_skeleton_edges(),
            cluster.index().skeleton().num_skeleton_edges()
        );
        assert_eq!(sequential.boundary_vertices(), cluster.index().boundary_vertices());
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
        let report = cluster.process_queries(&specs(&workload));
        assert_eq!(report.queries_answered, 8);
        assert!(report.total_iterations >= 8);
        assert!(report.total_vertices_transferred > 0);
        assert!(report.mean_iterations() >= 1.0);
    }

    #[test]
    fn more_servers_reduce_simulated_makespan() {
        let g = network(350, 11);
        let workload = QueryWorkload::generate(&g, QueryWorkloadConfig::new(40, 2), 9);
        let mut makespans = Vec::new();
        for servers in [1, 4, 16] {
            let (cluster, _) =
                Cluster::build(&g, ClusterConfig::new(servers, DtlpConfig::new(20, 2))).unwrap();
            let report = cluster.process_queries(&specs(&workload));
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
    fn maintenance_is_attributed_to_owning_servers() {
        let g = network(300, 13);
        let (mut cluster, _) =
            Cluster::build(&g, ClusterConfig::new(5, DtlpConfig::new(20, 2))).unwrap();
        let mut traffic = TrafficModel::new(&g, TrafficConfig::new(0.5, 0.4), 7);
        let report = cluster.apply_batch(&traffic.next_snapshot()).unwrap();
        assert!(report.paths_touched > 0);
        assert!(report.skeleton_edges_changed > 0);
        let busy: usize = report.per_server.iter().map(|l| l.items_processed).sum();
        assert!(busy > 0);
        assert_eq!(report.per_server.len(), 5);
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
        let report = cluster.process_queries(&specs(&workload));
        assert!(report.load_balance.busy_spread < 0.95);
    }
}
