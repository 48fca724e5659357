//! A faithful message-passing implementation of the Storm topology of Section 6.1.
//!
//! Worker threads play the role of the servers in the cluster: each owns the
//! SubgraphBolts (per-subgraph DTLP indexes) assigned to it and serves three kinds of
//! tuples — weight-update batches, partial-KSP requests for the adjacent pairs of a
//! reference path, and endpoint-attachment requests for non-boundary query endpoints.
//! The master holds the EntranceSpout (routing) and the skeleton graph; `query` runs
//! the QueryBolt logic: it enumerates reference paths on the skeleton replica,
//! broadcasts them to the workers, merges the partial k shortest paths returned, joins
//! them into candidates and maintains the top-k list until the Theorem 3 termination
//! condition holds.
//!
//! The resulting answers are bit-identical to [`ksp_core::kspdg::KspDgEngine`]; the
//! topology exists to demonstrate and test the distributed decomposition, while the
//! benchmarks use [`crate::cluster::Cluster`] for timing (in-process channels do not
//! model network cost).

use crate::metrics::balanced_assignment;
use crossbeam::channel::{unbounded, Receiver, Sender};
use ksp_algo::path::keep_k_shortest;
use ksp_algo::{yen_ksp_in, KspEnumerator, Path, SearchArena};
use ksp_core::dtlp::{DtlpConfig, SkeletonGraph, SubgraphIndex};
use ksp_graph::{
    DynamicGraph, EdgeId, GraphError, PartitionConfig, Partitioner, SubgraphId, UpdateBatch,
    VertexId, Weight, WeightUpdate,
};
use ksp_proto::shard::{
    apply_updates_frame_cost, endpoint_distances_reply_frame_cost, lower_bound_deltas_frame_cost,
    partial_ksp_reply_frame_cost, partial_ksp_request_frame_cost, LowerBoundDelta, ShardTuple,
};
use std::collections::HashMap;
use std::thread::JoinHandle;

/// Configuration of the message-passing topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyConfig {
    /// Number of worker threads (servers).
    pub num_workers: usize,
    /// DTLP configuration.
    pub dtlp: DtlpConfig,
}

impl TopologyConfig {
    /// Creates a configuration.
    pub fn new(num_workers: usize, dtlp: DtlpConfig) -> Self {
        TopologyConfig { num_workers, dtlp }
    }
}

/// Tuples sent from the master (EntranceSpout / QueryBolt) to a worker.
enum WorkerRequest {
    /// Apply weight updates to the subgraphs owned by this worker.
    ApplyUpdates {
        /// The updates, all owned by this worker's subgraphs.
        updates: Vec<WeightUpdate>,
        /// Reply channel: lower-bound changes tagged with the contributing subgraph.
        reply: Sender<Vec<(SubgraphId, VertexId, VertexId, Weight)>>,
    },
    /// Compute partial k shortest paths for each requested pair, within the subgraphs
    /// this worker owns that contain both endpoints of the pair.
    PartialKsp {
        pairs: Vec<(VertexId, VertexId)>,
        k: usize,
        reply: Sender<HashMap<(VertexId, VertexId), Vec<Path>>>,
    },
    /// Distances between a (possibly non-boundary) vertex and the boundary vertices of
    /// the worker's subgraphs containing it; `reverse` asks for boundary → vertex
    /// distances (needed for directed graphs).
    EndpointDistances { vertex: VertexId, reverse: bool, reply: Sender<Vec<(VertexId, Weight)>> },
    /// Shortest within-subgraph distance between two vertices, over the worker's
    /// subgraphs containing both.
    WithinSubgraph { source: VertexId, target: VertexId, reply: Sender<Option<Weight>> },
    /// Stop the worker thread.
    Shutdown,
}

impl WorkerRequest {
    /// The bytes this tuple would occupy as a `ksp-proto` shard frame — the
    /// physical cost of sending it over a socket instead of a channel. The
    /// reply channels are transport artifacts and carry no wire bytes; reply
    /// *payloads* are priced separately when they arrive. Variable-size
    /// payloads are priced through the borrowed-slice helpers, so accounting
    /// never clones them.
    fn wire_cost(&self) -> usize {
        match self {
            WorkerRequest::ApplyUpdates { updates, .. } => apply_updates_frame_cost(updates),
            WorkerRequest::PartialKsp { pairs, k, reply: _ } => {
                partial_ksp_request_frame_cost(pairs, *k as u64)
            }
            WorkerRequest::EndpointDistances { vertex, reverse, reply: _ } => {
                ShardTuple::EndpointDistancesRequest { vertex: *vertex, reverse: *reverse }
                    .frame_cost()
            }
            WorkerRequest::WithinSubgraph { source, target, reply: _ } => {
                ShardTuple::WithinSubgraphRequest { source: *source, target: *target }.frame_cost()
            }
            WorkerRequest::Shutdown => ShardTuple::Shutdown.frame_cost(),
        }
    }
}

/// One worker thread and its request channel.
struct WorkerHandle {
    sender: Sender<WorkerRequest>,
    join: Option<JoinHandle<()>>,
}

/// The assembled topology.
pub struct StormTopology {
    workers: Vec<WorkerHandle>,
    skeleton: SkeletonGraph,
    /// vertex → subgraphs, for routing endpoint requests and refine requests.
    vertex_subgraphs: HashMap<VertexId, Vec<SubgraphId>>,
    /// edge → owning subgraph, for routing updates.
    edge_owner: Vec<SubgraphId>,
    /// subgraph → worker.
    subgraph_worker: Vec<usize>,
    boundary: Vec<VertexId>,
    directed: bool,
    /// Messages (tuples) sent from master to workers, for communication accounting.
    tuples_sent: std::cell::Cell<usize>,
    /// Physical wire bytes the master→worker tuples would occupy as
    /// `ksp-proto` shard frames (header + encoded payload).
    wire_bytes_sent: std::cell::Cell<usize>,
    /// Physical wire bytes of the worker→master reply payloads, priced the
    /// same way.
    wire_bytes_received: std::cell::Cell<usize>,
}

impl StormTopology {
    /// Builds the topology: partitions the graph, builds per-subgraph indexes on the
    /// worker threads that own them, and assembles the skeleton on the master.
    pub fn build(graph: &DynamicGraph, config: TopologyConfig) -> Result<Self, GraphError> {
        assert!(config.num_workers >= 1, "need at least one worker");
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
        let loads: Vec<usize> = subgraphs
            .iter()
            .map(|sg| sg.num_edges() + sg.boundary_vertices().len().pow(2))
            .collect();
        let subgraph_worker = balanced_assignment(&loads, config.num_workers);

        // Build the per-subgraph indexes on the owning workers (in parallel) and
        // collect their lower bounds to assemble the skeleton on the master.
        let mut per_worker_subgraphs: Vec<Vec<std::sync::Arc<ksp_graph::Subgraph>>> =
            (0..config.num_workers).map(|_| Vec::new()).collect();
        for (i, sg) in subgraphs.into_iter().enumerate() {
            per_worker_subgraphs[subgraph_worker[i]].push(sg);
        }

        let dtlp_cfg = config.dtlp;
        let mut built: Vec<(usize, Vec<SubgraphIndex>)> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (w, sgs) in per_worker_subgraphs.into_iter().enumerate() {
                handles.push(scope.spawn(move || {
                    let indexes: Vec<SubgraphIndex> = sgs
                        .into_iter()
                        .map(|sg| {
                            SubgraphIndex::build(
                                sg,
                                dtlp_cfg.xi,
                                dtlp_cfg.max_enumerated_per_pair,
                                dtlp_cfg.backend,
                            )
                        })
                        .collect();
                    (w, indexes)
                }));
            }
            for h in handles {
                built.push(h.join().expect("worker build thread panicked"));
            }
        });
        built.sort_by_key(|(w, _)| *w);

        let skeleton = SkeletonGraph::assemble(
            graph.is_directed(),
            built
                .iter()
                .flat_map(|(_, indexes)| indexes)
                .flat_map(|idx| idx.lower_bounds().map(|lb| (idx.id(), lb))),
        );

        // Spawn the long-lived worker threads, each owning its indexes.
        let mut workers = Vec::with_capacity(config.num_workers);
        for (_, indexes) in built {
            let (tx, rx) = unbounded::<WorkerRequest>();
            let join = std::thread::spawn(move || worker_main(indexes, rx));
            workers.push(WorkerHandle { sender: tx, join: Some(join) });
        }

        Ok(StormTopology {
            workers,
            skeleton,
            vertex_subgraphs,
            edge_owner,
            subgraph_worker,
            boundary,
            directed: graph.is_directed(),
            tuples_sent: std::cell::Cell::new(0),
            wire_bytes_sent: std::cell::Cell::new(0),
            wire_bytes_received: std::cell::Cell::new(0),
        })
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The master's skeleton-graph replica.
    pub fn skeleton(&self) -> &SkeletonGraph {
        &self.skeleton
    }

    /// Total number of tuples the master has sent to workers so far.
    pub fn tuples_sent(&self) -> usize {
        self.tuples_sent.get()
    }

    /// Physical wire bytes the master→worker tuples sent so far would occupy
    /// as `ksp-proto` shard frames. Channels move them for free in process;
    /// this is what the same traffic costs once workers live behind sockets,
    /// which makes the paper's communication-cost accounting (Section 5.6.1)
    /// physical instead of abstract.
    pub fn wire_bytes_sent(&self) -> usize {
        self.wire_bytes_sent.get()
    }

    /// Physical wire bytes of the worker→master replies received so far,
    /// priced as `ksp-proto` shard frames.
    pub fn wire_bytes_received(&self) -> usize {
        self.wire_bytes_received.get()
    }

    fn price_reply(&self, frame_cost: usize) {
        self.wire_bytes_received.set(self.wire_bytes_received.get() + frame_cost);
    }

    /// Whether `v` is a boundary vertex.
    pub fn is_boundary(&self, v: VertexId) -> bool {
        self.boundary.binary_search(&v).is_ok()
    }

    fn send(&self, worker: usize, request: WorkerRequest) {
        self.tuples_sent.set(self.tuples_sent.get() + 1);
        self.wire_bytes_sent.set(self.wire_bytes_sent.get() + request.wire_cost());
        self.workers[worker].sender.send(request).expect("worker thread terminated unexpectedly");
    }

    /// Routes a weight-update batch to the owning workers (the EntranceSpout role) and
    /// applies the resulting lower-bound changes to the skeleton.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<(), GraphError> {
        let mut per_worker: Vec<Vec<WeightUpdate>> =
            (0..self.workers.len()).map(|_| Vec::new()).collect();
        for u in batch.iter() {
            let owner = *self.edge_owner.get(u.edge.index()).ok_or(GraphError::EdgeOutOfRange {
                edge: u.edge,
                num_edges: self.edge_owner.len(),
            })?;
            per_worker[self.subgraph_worker[owner.index()]].push(*u);
        }
        let (reply_tx, reply_rx) = unbounded();
        let mut outstanding = 0;
        for (w, updates) in per_worker.into_iter().enumerate() {
            if updates.is_empty() {
                continue;
            }
            self.send(w, WorkerRequest::ApplyUpdates { updates, reply: reply_tx.clone() });
            outstanding += 1;
        }
        drop(reply_tx);
        for _ in 0..outstanding {
            let changes = reply_rx.recv().expect("worker dropped its reply channel");
            self.price_reply(lower_bound_deltas_frame_cost(changes.iter().map(
                |&(subgraph, a, b, lower_bound)| LowerBoundDelta { subgraph, a, b, lower_bound },
            )));
            for (sg, a, b, lbd) in changes {
                self.skeleton.set_contribution(a, b, sg, lbd);
            }
        }
        Ok(())
    }

    /// Answers a KSP query by running the QueryBolt logic against the worker pool.
    pub fn query(&self, source: VertexId, target: VertexId, k: usize) -> Vec<Path> {
        assert!(k >= 1);
        if source == target {
            return vec![Path::trivial(source)];
        }

        // Step 1: attach non-boundary endpoints (broadcast EndpointDistances).
        let mut overlay = self.skeleton.overlay();
        if !self.is_boundary(source) {
            for (b, d) in self.broadcast_endpoint(source, false) {
                if b != source {
                    if self.directed {
                        overlay.add_edge(source, b, d);
                    } else {
                        overlay.add_undirected_edge(source, b, d);
                    }
                }
            }
        }
        if !self.is_boundary(target) {
            for (b, d) in self.broadcast_endpoint(target, true) {
                if b != target {
                    if self.directed {
                        overlay.add_edge(b, target, d);
                    } else {
                        overlay.add_undirected_edge(b, target, d);
                    }
                }
            }
        }
        let shares_subgraph = self
            .vertex_subgraphs
            .get(&source)
            .map(|ss| {
                ss.iter().any(|s| {
                    self.vertex_subgraphs.get(&target).map(|ts| ts.contains(s)).unwrap_or(false)
                })
            })
            .unwrap_or(false);
        if shares_subgraph && (!self.is_boundary(source) || !self.is_boundary(target)) {
            if let Some(d) = self.broadcast_within_subgraph(source, target) {
                if self.directed {
                    overlay.add_edge(source, target, d);
                } else {
                    overlay.add_undirected_edge(source, target, d);
                }
            }
        }

        // Step 2: filter-and-refine iterations.
        let mut reference_paths = KspEnumerator::new(&overlay, source, target);
        let mut partial_cache: HashMap<(VertexId, VertexId), Vec<Path>> = HashMap::new();
        let mut results: Vec<Path> = Vec::new();
        let mut next_reference = reference_paths.next_path();
        while let Some(reference) = next_reference {
            // Request partials for the pairs we have not cached yet (one broadcast of
            // the reference path to all workers).
            let missing: Vec<(VertexId, VertexId)> = reference
                .vertices()
                .windows(2)
                .map(|w| (w[0], w[1]))
                .filter(|p| !partial_cache.contains_key(p))
                .collect();
            if !missing.is_empty() {
                let merged = self.broadcast_partial_ksp(&missing, k);
                for (pair, mut paths) in merged {
                    keep_k_shortest(&mut paths, k);
                    partial_cache.insert(pair, paths);
                }
                for pair in &missing {
                    partial_cache.entry(*pair).or_default();
                }
            }

            // Join the partials along the reference path.
            let mut combined = vec![Path::trivial(reference.vertices()[0])];
            let mut dead_end = false;
            for w in reference.vertices().windows(2) {
                let partials = &partial_cache[&(w[0], w[1])];
                if partials.is_empty() {
                    dead_end = true;
                    break;
                }
                let mut next: Vec<Path> = Vec::new();
                for left in &combined {
                    for right in partials {
                        if let Some(joined) = left.concat(right) {
                            next.push(joined);
                        }
                    }
                }
                keep_k_shortest(&mut next, k);
                if next.is_empty() {
                    dead_end = true;
                    break;
                }
                combined = next;
            }
            if !dead_end {
                results.extend(combined);
                keep_k_shortest(&mut results, k);
            }

            next_reference = reference_paths.next_path();
            if results.len() >= k {
                let kth = results[k - 1].distance();
                match &next_reference {
                    None => break,
                    Some(r) if kth <= r.distance() || kth.approx_eq(r.distance()) => break,
                    Some(_) => {}
                }
            }
        }
        results
    }

    fn broadcast_endpoint(&self, vertex: VertexId, reverse: bool) -> Vec<(VertexId, Weight)> {
        let (tx, rx) = unbounded();
        for w in 0..self.workers.len() {
            self.send(w, WorkerRequest::EndpointDistances { vertex, reverse, reply: tx.clone() });
        }
        drop(tx);
        let mut best: HashMap<VertexId, Weight> = HashMap::new();
        for _ in 0..self.workers.len() {
            let distances = rx.recv().expect("worker reply lost");
            self.price_reply(endpoint_distances_reply_frame_cost(&distances));
            for (b, d) in distances {
                best.entry(b).and_modify(|w| *w = (*w).min(d)).or_insert(d);
            }
        }
        best.into_iter().collect()
    }

    fn broadcast_within_subgraph(&self, source: VertexId, target: VertexId) -> Option<Weight> {
        let (tx, rx) = unbounded();
        for w in 0..self.workers.len() {
            self.send(w, WorkerRequest::WithinSubgraph { source, target, reply: tx.clone() });
        }
        drop(tx);
        let mut best: Option<Weight> = None;
        for _ in 0..self.workers.len() {
            let distance = rx.recv().expect("worker reply lost");
            self.price_reply(ShardTuple::WithinSubgraphReply { distance }.frame_cost());
            if let Some(d) = distance {
                best = Some(best.map_or(d, |b| b.min(d)));
            }
        }
        best
    }

    fn broadcast_partial_ksp(
        &self,
        pairs: &[(VertexId, VertexId)],
        k: usize,
    ) -> HashMap<(VertexId, VertexId), Vec<Path>> {
        let (tx, rx) = unbounded();
        for w in 0..self.workers.len() {
            self.send(w, WorkerRequest::PartialKsp { pairs: pairs.to_vec(), k, reply: tx.clone() });
        }
        drop(tx);
        let mut merged: HashMap<(VertexId, VertexId), Vec<Path>> = HashMap::new();
        for _ in 0..self.workers.len() {
            let reply = rx.recv().expect("worker reply lost");
            self.price_reply(partial_ksp_reply_frame_cost(
                reply.iter().map(|(&(source, target), paths)| (source, target, paths.as_slice())),
            ));
            for (pair, paths) in reply {
                merged.entry(pair).or_default().extend(paths);
            }
        }
        merged
    }

    /// The subgraph owning an edge (exposed for tests).
    pub fn owner_of_edge(&self, e: EdgeId) -> SubgraphId {
        self.edge_owner[e.index()]
    }
}

impl Drop for StormTopology {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.sender.send(WorkerRequest::Shutdown);
        }
        for w in &mut self.workers {
            if let Some(join) = w.join.take() {
                let _ = join.join();
            }
        }
    }
}

/// Worker thread main loop: serve requests against the owned subgraph indexes.
fn worker_main(mut indexes: Vec<SubgraphIndex>, rx: Receiver<WorkerRequest>) {
    // The worker's searches all run on one arena it owns.
    let mut arena = SearchArena::new();
    while let Ok(request) = rx.recv() {
        match request {
            WorkerRequest::Shutdown => break,
            WorkerRequest::ApplyUpdates { updates, reply } => {
                // Group the updates by the owning subgraph among this worker's indexes.
                let mut per_index: HashMap<usize, Vec<WeightUpdate>> = HashMap::new();
                for u in updates {
                    if let Some(i) = indexes.iter().position(|idx| idx.subgraph().owns_edge(u.edge))
                    {
                        per_index.entry(i).or_default().push(u);
                    }
                }
                let mut changes = Vec::new();
                for (i, ups) in per_index {
                    if let Ok((chs, _)) = indexes[i].apply_updates(&ups) {
                        let sg = indexes[i].id();
                        changes.extend(chs.into_iter().map(|c| (sg, c.a, c.b, c.new_lbd)));
                    }
                }
                let _ = reply.send(changes);
            }
            WorkerRequest::PartialKsp { pairs, k, reply } => {
                let mut out: HashMap<(VertexId, VertexId), Vec<Path>> = HashMap::new();
                for &(u, v) in &pairs {
                    for idx in &indexes {
                        let sg = idx.subgraph();
                        if sg.contains_vertex(u) && sg.contains_vertex(v) {
                            let paths = yen_ksp_in(sg, u, v, k, &mut arena);
                            if !paths.is_empty() {
                                out.entry((u, v)).or_default().extend(paths);
                            }
                        }
                    }
                }
                let _ = reply.send(out);
            }
            WorkerRequest::EndpointDistances { vertex, reverse, reply } => {
                let mut out = Vec::new();
                for idx in &indexes {
                    if idx.subgraph().contains_vertex(vertex) {
                        let dists = if reverse {
                            idx.boundary_distances_to(vertex, &mut arena)
                        } else {
                            idx.boundary_distances_from(vertex, &mut arena)
                        };
                        out.extend(dists);
                    }
                }
                let _ = reply.send(out);
            }
            WorkerRequest::WithinSubgraph { source, target, reply } => {
                let mut best: Option<Weight> = None;
                for idx in &indexes {
                    let sg = idx.subgraph();
                    if sg.contains_vertex(source) && sg.contains_vertex(target) {
                        if let Some(p) = arena.shortest_path(sg, source, target, &[], &[]) {
                            let d = p.distance();
                            best = Some(best.map_or(d, |b| b.min(d)));
                        }
                    }
                }
                let _ = reply.send(best);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_core::dtlp::DtlpIndex;
    use ksp_core::kspdg::KspDgEngine;
    use ksp_workload::{
        QueryWorkload, QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig,
        TrafficModel,
    };

    fn network(n: usize, seed: u64) -> DynamicGraph {
        RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n)).generate(seed).unwrap().graph
    }

    #[test]
    fn topology_answers_match_the_local_engine() {
        let g = network(220, 5);
        let dtlp = DtlpConfig::new(18, 2);
        let topology = StormTopology::build(&g, TopologyConfig::new(3, dtlp)).unwrap();
        let index = DtlpIndex::build(&g, dtlp).unwrap();
        let engine = KspDgEngine::new(&index);
        let workload = QueryWorkload::generate(&g, QueryWorkloadConfig::new(10, 2), 3);
        for q in workload.iter() {
            let distributed = topology.query(q.source, q.target, q.k);
            let local = engine.query(q.source, q.target, q.k);
            assert_eq!(distributed.len(), local.paths.len(), "count mismatch for {q:?}");
            for (a, b) in distributed.iter().zip(local.paths.iter()) {
                assert!(a.distance().approx_eq(b.distance()));
            }
        }
        assert!(topology.tuples_sent() > 0);
        // Every tuple is priced in physical frame bytes: at least one frame
        // header per tuple sent, and the partial-KSP replies cost bytes too.
        assert!(topology.wire_bytes_sent() >= topology.tuples_sent() * ksp_proto::FRAME_HEADER_LEN);
        assert!(topology.wire_bytes_received() > 0);
    }

    #[test]
    fn wire_byte_accounting_scales_with_the_update_batch() {
        let g = network(200, 21);
        let dtlp = DtlpConfig::new(15, 2);
        let mut topology = StormTopology::build(&g, TopologyConfig::new(2, dtlp)).unwrap();
        let mut traffic = TrafficModel::new(&g, TrafficConfig::new(0.2, 0.4), 3);
        let small = traffic.next_snapshot();
        topology.apply_batch(&small).unwrap();
        let after_small = topology.wire_bytes_sent();
        let mut heavy = TrafficModel::new(&g, TrafficConfig::new(0.9, 0.4), 5);
        let large = heavy.next_snapshot();
        assert!(large.len() > small.len());
        topology.apply_batch(&large).unwrap();
        let after_large = topology.wire_bytes_sent();
        // A bigger batch ships more update payload: the increment grows.
        assert!(after_large - after_small > after_small);
    }

    #[test]
    fn topology_skeleton_matches_sequential_skeleton() {
        let g = network(200, 7);
        let dtlp = DtlpConfig::new(15, 2);
        let topology = StormTopology::build(&g, TopologyConfig::new(4, dtlp)).unwrap();
        let index = DtlpIndex::build(&g, dtlp).unwrap();
        assert_eq!(topology.skeleton().num_skeleton_edges(), index.skeleton().num_skeleton_edges());
        assert_eq!(
            topology.skeleton().num_skeleton_vertices(),
            index.skeleton().num_skeleton_vertices()
        );
    }

    #[test]
    fn updates_flow_through_the_topology() {
        let mut g = network(200, 9);
        let dtlp = DtlpConfig::new(15, 2);
        let mut topology = StormTopology::build(&g, TopologyConfig::new(3, dtlp)).unwrap();
        let mut index = DtlpIndex::build(&g, dtlp).unwrap();
        let mut traffic = TrafficModel::new(&g, TrafficConfig::new(0.4, 0.5), 11);
        for _ in 0..2 {
            let batch = traffic.next_snapshot();
            g.apply_batch(&batch).unwrap();
            topology.apply_batch(&batch).unwrap();
            index.apply_batch(&batch).unwrap();
        }
        // After identical update streams, skeleton edge weights agree.
        let engine = KspDgEngine::new(&index);
        let workload = QueryWorkload::generate(&g, QueryWorkloadConfig::new(6, 2), 13);
        for q in workload.iter() {
            let distributed = topology.query(q.source, q.target, q.k);
            let local = engine.query(q.source, q.target, q.k);
            assert_eq!(distributed.len(), local.paths.len());
            for (a, b) in distributed.iter().zip(local.paths.iter()) {
                assert!(a.distance().approx_eq(b.distance()));
            }
        }
    }

    #[test]
    fn single_worker_topology_works() {
        let g = network(150, 13);
        let topology =
            StormTopology::build(&g, TopologyConfig::new(1, DtlpConfig::new(12, 1))).unwrap();
        assert_eq!(topology.num_workers(), 1);
        let paths = topology.query(VertexId(0), VertexId(40), 2);
        assert!(!paths.is_empty());
    }

    #[test]
    fn trivial_query_short_circuits() {
        let g = network(150, 17);
        let topology =
            StormTopology::build(&g, TopologyConfig::new(2, DtlpConfig::new(12, 1))).unwrap();
        let before = topology.tuples_sent();
        let paths = topology.query(VertexId(5), VertexId(5), 3);
        assert_eq!(paths.len(), 1);
        assert_eq!(topology.tuples_sent(), before, "no worker traffic for a trivial query");
    }
}
