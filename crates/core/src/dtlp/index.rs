//! The assembled DTLP index (Algorithms 1 and 2 of the paper).

use crate::dtlp::memo::Memo;
use crate::dtlp::skeleton::SkeletonGraph;
use crate::dtlp::subgraph_index::SubgraphIndex;
use crate::dtlp::target_row::TargetRow;
use ksp_algo::SearchArena;
use ksp_graph::{
    DynamicGraph, EdgeId, GraphError, PartitionConfig, Partitioner, SubgraphId, UpdateBatch,
    VertexId,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A batch that dirties at most one in this many subgraphs is local, and
/// [`DtlpIndex::apply_batch`] repairs its loose bounds. On the ledger's
/// 1 200-vertex network an incident dirties 2.6 of 32 subgraphs on average and
/// a batch of the paper's network-wide traffic 30.6.
const LOCAL_BATCH_DIVISOR: usize = 2;

/// Configuration of the DTLP index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DtlpConfig {
    /// Maximum number of vertices per subgraph (the paper's `z`).
    pub max_subgraph_vertices: usize,
    /// Number of distinct vfrag counts among the bounding paths of a boundary pair
    /// (the paper's `ξ`); paths tied below the largest count are all kept.
    pub xi: usize,
}

impl DtlpConfig {
    /// Creates a configuration with the given `z` and `ξ`.
    pub fn new(z: usize, xi: usize) -> Self {
        DtlpConfig { max_subgraph_vertices: z, xi }
    }
}

impl Default for DtlpConfig {
    fn default() -> Self {
        DtlpConfig::new(200, 5)
    }
}

/// Statistics recorded while building the index (reported by Figures 15–18 / Table 1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildStats {
    /// Number of subgraphs produced by the partitioner.
    pub num_subgraphs: usize,
    /// Number of subgraphs with more than five boundary vertices (Table 1).
    pub num_subgraphs_boundary_over_5: usize,
    /// Number of boundary vertices (= skeleton vertices).
    pub num_boundary_vertices: usize,
    /// Number of boundary pairs indexed across all subgraphs.
    pub num_pairs: usize,
    /// Total number of bounding paths stored.
    pub num_bounding_paths: usize,
    /// Number of edges in the skeleton graph.
    pub skeleton_edges: usize,
    /// Wall-clock time spent building.
    pub build_time: Duration,
    /// Wall-clock time of each subgraph's level-one build, by subgraph id. Empty
    /// for an index assembled from persisted parts.
    pub subgraph_build_times: Vec<Duration>,
    /// Memory used by the level-one (per-subgraph) index structures, in bytes.
    pub level1_memory_bytes: usize,
    /// Memory used by the skeleton graph, in bytes.
    pub skeleton_memory_bytes: usize,
}

/// Statistics returned by a maintenance (update-batch) call (Figures 19–23).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Number of weight updates applied.
    pub updates_applied: usize,
    /// Number of bounding-path distance adjustments performed.
    pub paths_touched: usize,
    /// Number of boundary pairs whose lower bound distance changed.
    pub pairs_changed: usize,
    /// Number of boundary pairs whose Theorem 1 bound was replaced by the exact
    /// in-subgraph distance (local batches only; see [`DtlpIndex::apply_batch`]).
    pub pairs_repaired: usize,
    /// Number of skeleton edges whose weight changed as a result.
    pub skeleton_edges_changed: usize,
    /// The subgraphs that received at least one update from this batch —
    /// exactly the per-subgraph indexes the copy-on-write maintenance path
    /// unshared. Sorted ascending. Everything *not* listed here still shares
    /// its allocation with the pre-batch index, and the serving layer's
    /// result cache evicts only entries whose trace touches these ids.
    pub dirty_subgraphs: Vec<SubgraphId>,
}

/// The Distributed Two-Level Path index over one graph.
///
/// The index is a copy-on-write persistent structure: every per-subgraph index
/// sits behind its own `Arc`, and the (immutable after build) membership,
/// ownership and boundary tables and the skeleton graph behind shared ones.
/// `clone()` is therefore a handle copy — O(#subgraphs) reference-count bumps.
/// [`DtlpIndex::apply_batch`] on the clone unshares only the subgraph indexes
/// the batch routes updates into, and the skeleton if a lower bound moved.
/// Neither copy reaches structure: an unshared subgraph index copies its flat
/// bounding-path distances and per-pair bounds (plus, on its first update, its
/// subgraph's edge records, one weight each) and shares its path shape and its
/// subgraph's shape; an unshared skeleton copies its per-contribution and
/// per-edge weights and shares its topology, through which maintenance patches a
/// changed bound by (subgraph, pair index) position. Every
/// untouched entry stays pointer-shared with the original. Publishing an epoch
/// thus costs the dirty subgraphs' weights, not the index's structure.
///
/// The index also keeps what queries learned from its weights: each subgraph's
/// partial paths and each target's [`TargetRow`], in memos whose lifetime rule
/// `dtlp::memo` states; [`DtlpIndex::memo_bytes`] estimates them.
#[derive(Debug, Clone)]
pub struct DtlpIndex {
    config: DtlpConfig,
    directed: bool,
    subgraph_indexes: Vec<Arc<SubgraphIndex>>,
    /// By vertex id: the subgraphs the vertex belongs to, in refine-step
    /// candidate order.
    vertex_subgraphs: Arc<Vec<Vec<SubgraphId>>>,
    edge_owner: Arc<Vec<SubgraphId>>,
    boundary: Arc<Vec<VertexId>>,
    skeleton: Arc<SkeletonGraph>,
    build_stats: BuildStats,
    /// The target rows on the current weights.
    pub(crate) target_rows: Memo<VertexId, TargetRow>,
}

impl DtlpIndex {
    /// Builds the index for `graph` (Algorithm 1): partition, compute bounding paths
    /// and lower bounds per subgraph, then assemble the skeleton graph.
    pub fn build(graph: &DynamicGraph, config: DtlpConfig) -> Result<Self, GraphError> {
        let start = Instant::now();
        let partitioning =
            Partitioner::new(PartitionConfig::with_max_vertices(config.max_subgraph_vertices))
                .partition(graph)?;

        let boundary = partitioning.boundary_vertices().to_vec();
        let num_subgraphs = partitioning.num_subgraphs();
        let num_subgraphs_boundary_over_5 = partitioning.subgraphs_with_boundary_over(5);
        let vertex_subgraphs =
            graph.vertices().map(|v| partitioning.subgraphs_of_vertex(v).to_vec()).collect();
        let edge_owner: Vec<SubgraphId> =
            graph.edge_ids().map(|e| partitioning.owner_of_edge(e)).collect();

        let mut subgraph_build_times = Vec::with_capacity(num_subgraphs);
        let subgraph_indexes: Vec<Arc<SubgraphIndex>> = partitioning
            .into_subgraphs()
            .into_iter()
            .map(|sg| {
                let t0 = Instant::now();
                let built = SubgraphIndex::build(sg, config.xi);
                subgraph_build_times.push(t0.elapsed());
                Arc::new(built)
            })
            .collect();

        let mut index = Self::assemble(
            config,
            graph.is_directed(),
            subgraph_indexes,
            vertex_subgraphs,
            edge_owner,
            boundary,
        );
        index.build_stats.num_subgraphs = num_subgraphs;
        index.build_stats.num_subgraphs_boundary_over_5 = num_subgraphs_boundary_over_5;
        index.build_stats.subgraph_build_times = subgraph_build_times;
        index.build_stats.build_time = start.elapsed();
        Ok(index)
    }

    /// Assembles an index from per-subgraph indexes: [`DtlpIndex::build`]'s
    /// own, or the storage layer's checkpoint decode.
    /// `subgraph_indexes[s]` is the index of subgraph `s`, and `vertex_subgraphs[v]`
    /// lists the subgraphs vertex `v` belongs to, in the refine step's candidate
    /// order.
    pub fn assemble(
        config: DtlpConfig,
        directed: bool,
        subgraph_indexes: Vec<Arc<SubgraphIndex>>,
        vertex_subgraphs: Vec<Vec<SubgraphId>>,
        edge_owner: Vec<SubgraphId>,
        boundary: Vec<VertexId>,
    ) -> Self {
        let (skeleton, build_stats) =
            Self::derive_from_parts(directed, &subgraph_indexes, &boundary);
        DtlpIndex {
            config,
            directed,
            subgraph_indexes,
            vertex_subgraphs: Arc::new(vertex_subgraphs),
            edge_owner: Arc::new(edge_owner),
            boundary: Arc::new(boundary),
            skeleton: Arc::new(skeleton),
            build_stats,
            target_rows: Memo::default(),
        }
    }

    /// Rebuilds the skeleton graph and the assembly-time statistics from the
    /// per-subgraph indexes. The skeleton is a deterministic function of the
    /// `last_lbd` state every [`SubgraphIndex`] carries, repaired bounds
    /// included, so assembling it from a maintained index's parts (as a restore
    /// does) reproduces the live skeleton bit for bit.
    fn derive_from_parts(
        directed: bool,
        subgraph_indexes: &[Arc<SubgraphIndex>],
        boundary: &[VertexId],
    ) -> (SkeletonGraph, BuildStats) {
        let skeleton = SkeletonGraph::assemble(
            directed,
            subgraph_indexes.iter().map(|idx| idx.lower_bounds()),
        );
        let mut num_pairs = 0;
        let mut num_bounding_paths = 0;
        let mut level1_memory_bytes = 0;
        for idx in subgraph_indexes {
            num_pairs += idx.num_pairs();
            num_bounding_paths += idx.num_bounding_paths();
            level1_memory_bytes += idx.index_memory_bytes();
        }
        let build_stats = BuildStats {
            num_subgraphs: subgraph_indexes.len(),
            num_subgraphs_boundary_over_5: 0,
            num_boundary_vertices: boundary.len(),
            num_pairs,
            num_bounding_paths,
            skeleton_edges: skeleton.num_skeleton_edges(),
            build_time: Duration::default(),
            subgraph_build_times: Vec::new(),
            level1_memory_bytes,
            skeleton_memory_bytes: skeleton.memory_bytes(),
        };
        (skeleton, build_stats)
    }

    /// The configuration this index was built with.
    pub fn config(&self) -> &DtlpConfig {
        &self.config
    }

    /// Whether the indexed graph is directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Build statistics.
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }

    /// The skeleton graph `Gλ`.
    pub fn skeleton(&self) -> &SkeletonGraph {
        &self.skeleton
    }

    /// The per-subgraph indexes (indexed by [`SubgraphId`]), as the shared
    /// handles the copy-on-write clone path bumps. Pointer-equal handles
    /// across two indexes mean the subgraph state is structurally shared.
    pub fn subgraph_indexes(&self) -> &[Arc<SubgraphIndex>] {
        &self.subgraph_indexes
    }

    /// The index of one subgraph.
    pub fn subgraph_index(&self, id: SubgraphId) -> &SubgraphIndex {
        &self.subgraph_indexes[id.index()]
    }

    /// The shared handle of one subgraph's index. `Arc::ptr_eq` over handles
    /// from two epochs tells whether publication shared or copied the entry.
    pub fn subgraph_index_handle(&self, id: SubgraphId) -> &Arc<SubgraphIndex> {
        &self.subgraph_indexes[id.index()]
    }

    /// Number of subgraphs.
    pub fn num_subgraphs(&self) -> usize {
        self.subgraph_indexes.len()
    }

    /// All boundary vertices, sorted ascending.
    pub fn boundary_vertices(&self) -> &[VertexId] {
        &self.boundary
    }

    /// Whether `v` is a boundary vertex.
    pub fn is_boundary(&self, v: VertexId) -> bool {
        self.boundary.binary_search(&v).is_ok()
    }

    /// The subgraphs a vertex belongs to.
    pub fn subgraphs_of_vertex(&self, v: VertexId) -> &[SubgraphId] {
        self.vertex_subgraphs.get(v.index()).map_or(&[], Vec::as_slice)
    }

    /// Every vertex → subgraphs membership entry the table covers, by ascending
    /// vertex id. Exposed so the storage layer can persist the table exactly as
    /// built. No answer depends on the order of a vertex's memberships: the query
    /// engine refines each hop in the one subgraph its reference path names, and
    /// reads memberships in order only to attach non-boundary endpoints, each of
    /// which lies in a single subgraph.
    pub fn vertex_memberships(
        &self,
    ) -> impl ExactSizeIterator<Item = (VertexId, &[SubgraphId])> + '_ {
        let table = self.vertex_subgraphs.iter().enumerate();
        table.map(|(v, sgs)| (VertexId(v as u32), sgs.as_slice()))
    }

    /// The subgraph owning an edge.
    pub fn owner_of_edge(&self, e: EdgeId) -> SubgraphId {
        self.edge_owner[e.index()]
    }

    /// The owner of every edge, indexed by [`EdgeId`]. Exposed so the storage
    /// layer can persist the ownership table wholesale.
    pub fn edge_owners(&self) -> &[SubgraphId] {
        &self.edge_owner
    }

    /// The subgraphs containing both vertices, in `a`'s membership order.
    pub fn subgraphs_containing_pair(
        &self,
        a: VertexId,
        b: VertexId,
    ) -> impl Iterator<Item = SubgraphId> + '_ {
        let sb = self.subgraphs_of_vertex(b);
        self.subgraphs_of_vertex(a).iter().copied().filter(move |id| sb.contains(id))
    }

    /// Splits a batch of updates by owning subgraph, mirroring how the EntranceSpout
    /// scatters an update stream to the SubgraphBolts. Subgraphs come in ascending id
    /// order, each with its updates in batch order, so maintenance visits them in an
    /// order that does not vary between runs.
    fn route_batch(
        &self,
        batch: &UpdateBatch,
    ) -> Result<Vec<(SubgraphId, Vec<ksp_graph::WeightUpdate>)>, GraphError> {
        let mut per_subgraph: Vec<Vec<ksp_graph::WeightUpdate>> =
            vec![Vec::new(); self.subgraph_indexes.len()];
        for u in batch.iter() {
            let owner = *self.edge_owner.get(u.edge.index()).ok_or(GraphError::EdgeOutOfRange {
                edge: u.edge,
                num_edges: self.edge_owner.len(),
            })?;
            per_subgraph[owner.index()].push(*u);
        }
        Ok(per_subgraph
            .into_iter()
            .enumerate()
            .filter(|(_, updates)| !updates.is_empty())
            .map(|(id, updates)| (SubgraphId(id as u32), updates))
            .collect())
    }

    /// Applies the updates destined for one subgraph (they must all belong to it),
    /// repairing loose bounds on `repair` if given (see
    /// [`SubgraphIndex::apply_updates`]), and patches the skeleton graph with the
    /// resulting lower-bound changes.
    fn maintain_subgraph(
        &mut self,
        sg_id: SubgraphId,
        updates: &[ksp_graph::WeightUpdate],
        repair: Option<&mut SearchArena>,
    ) -> Result<MaintenanceStats, GraphError> {
        // Copy-on-write: unshare this subgraph's index (and only this one) if
        // another epoch still references it.
        let idx = Arc::make_mut(&mut self.subgraph_indexes[sg_id.index()]);
        let refresh = idx.apply_updates(updates, repair)?;
        let mut stats = MaintenanceStats {
            updates_applied: updates.len(),
            paths_touched: refresh.paths_touched,
            pairs_changed: refresh.changes.len(),
            pairs_repaired: refresh.pairs_repaired,
            skeleton_edges_changed: 0,
            dirty_subgraphs: if updates.is_empty() { Vec::new() } else { vec![sg_id] },
        };
        for (pair, lbd) in refresh.changes {
            // The skeleton unshares lazily too (its weights only): epochs whose
            // batches move no lower bound keep sharing the previous skeleton.
            if Arc::make_mut(&mut self.skeleton).set_contribution(sg_id, pair, lbd) {
                stats.skeleton_edges_changed += 1;
            }
        }
        Ok(stats)
    }

    /// Applies a batch of weight updates (Algorithm 2): routes each update to the
    /// owning subgraph, refreshes bounding-path distances and lower bounds, and patches
    /// the skeleton graph.
    ///
    /// A *local* batch, one that dirties at most half of the subgraphs (an
    /// incident), also repairs: every bound of a dirty subgraph that Theorem 1's
    /// claim 1 does not certify becomes the exact in-subgraph distance, found by
    /// one single-source search per affected boundary vertex on one arena. Loose
    /// bounds make the engine's filter step iterate more, so repair makes the
    /// queries after an update cheaper. A larger batch (network-wide
    /// traffic) keeps Theorem 1's bounds: it would need a search from nearly every
    /// boundary vertex of the index, several times the cost of the batch itself.
    /// The repaired value is stored as the pair's `last_lbd`, so what a checkpoint,
    /// a log replay or a replica derives is bit-identical to the live index.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<MaintenanceStats, GraphError> {
        let per_subgraph = self.route_batch(batch)?;
        if !per_subgraph.is_empty() {
            self.target_rows.forget();
        }
        let local = per_subgraph.len() * LOCAL_BATCH_DIVISOR <= self.num_subgraphs();
        let mut repair = local.then(SearchArena::new);
        let mut stats = MaintenanceStats::default();
        for (sg_id, updates) in per_subgraph {
            let part = self.maintain_subgraph(sg_id, &updates, repair.as_mut())?;
            stats.updates_applied += part.updates_applied;
            stats.paths_touched += part.paths_touched;
            stats.pairs_changed += part.pairs_changed;
            stats.pairs_repaired += part.pairs_repaired;
            stats.skeleton_edges_changed += part.skeleton_edges_changed;
            stats.dirty_subgraphs.extend(part.dirty_subgraphs);
        }
        Ok(stats)
    }

    /// The row of `target`'s distances over the skeleton that queries filled on
    /// this index's weights, if any has (see [`crate::dtlp::target_row`]).
    pub fn target_row(&self, target: VertexId) -> Option<Arc<TargetRow>> {
        self.target_rows.get(&target)
    }

    /// An estimate of the bytes the memos hold that queries filled on this index's
    /// weights: every subgraph's partial paths and the target rows. Zero after
    /// build and restore, and after a batch that dirties every subgraph.
    pub fn memo_bytes(&self) -> usize {
        let partials = self.subgraph_indexes.iter().map(|idx| idx.partials.memory_bytes());
        self.target_rows.memory_bytes() + partials.sum::<usize>()
    }

    /// Total memory of the level-one index structures across all subgraphs, in bytes.
    pub fn level1_memory_bytes(&self) -> usize {
        self.subgraph_indexes.iter().map(|i| i.index_memory_bytes()).sum()
    }

    /// Memory of the skeleton graph in bytes.
    pub fn skeleton_memory_bytes(&self) -> usize {
        self.skeleton.memory_bytes()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ksp_algo::dijkstra_path;
    use ksp_graph::{GraphBuilder, GraphView, Weight};
    use ksp_workload::{
        incident, QueryWorkload, QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator,
        TrafficConfig, TrafficModel, Xoshiro256,
    };

    /// The paper's Figure 3 graph.
    pub(crate) fn paper_graph() -> DynamicGraph {
        let edges: &[(u32, u32, u32)] = &[
            (1, 2, 3),
            (1, 3, 3),
            (2, 3, 6),
            (2, 4, 3),
            (3, 5, 2),
            (4, 5, 3),
            (4, 6, 4),
            (5, 6, 4),
            (4, 7, 3),
            (6, 9, 3),
            (7, 8, 5),
            (8, 9, 4),
            (8, 10, 6),
            (9, 10, 5),
            (9, 14, 7),
            (10, 11, 5),
            (11, 12, 3),
            (12, 13, 3),
            (10, 13, 6),
            (13, 14, 3),
            (13, 18, 3),
            (14, 16, 3),
            (16, 13, 5),
            (16, 17, 2),
            (17, 18, 2),
            (18, 19, 3),
        ];
        let mut b = GraphBuilder::undirected(19);
        for &(x, y, w) in edges {
            b.edge(x - 1, y - 1, w);
        }
        b.build().unwrap()
    }

    pub(crate) fn road_network(n: usize, seed: u64) -> DynamicGraph {
        RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n)).generate(seed).unwrap().graph
    }

    #[test]
    fn build_produces_consistent_statistics() {
        let g = paper_graph();
        let index = DtlpIndex::build(&g, DtlpConfig::new(6, 3)).unwrap();
        let stats = index.build_stats();
        assert_eq!(stats.num_subgraphs, index.num_subgraphs());
        assert_eq!(stats.num_boundary_vertices, index.boundary_vertices().len());
        assert_eq!(stats.skeleton_edges, index.skeleton().num_skeleton_edges());
        assert!(stats.num_pairs > 0);
        assert!(stats.num_bounding_paths >= stats.num_pairs);
        assert!(stats.level1_memory_bytes > 0);
        assert!(stats.skeleton_memory_bytes > 0);
        assert_eq!(stats.subgraph_build_times.len(), index.num_subgraphs());
        assert!(stats.subgraph_build_times.iter().sum::<Duration>() <= stats.build_time);
        // Every boundary vertex appears in the skeleton.
        for &b in index.boundary_vertices() {
            assert!(index.skeleton().contains(b), "boundary vertex {b} missing from skeleton");
        }
    }

    #[test]
    fn theorem2_skeleton_distance_is_a_lower_bound_on_graph_distance() {
        let g = road_network(300, 11);
        let index = DtlpIndex::build(&g, DtlpConfig::new(20, 2)).unwrap();
        let workload = QueryWorkload::generate_from_candidates(
            index.boundary_vertices(),
            QueryWorkloadConfig::new(40, 1),
            7,
        );
        for q in workload.iter() {
            let skeleton_dist = dijkstra_path(index.skeleton(), q.source, q.target)
                .map(|p| p.distance())
                .unwrap_or(Weight::INFINITY);
            let graph_dist = dijkstra_path(&g, q.source, q.target)
                .map(|p| p.distance())
                .unwrap_or(Weight::INFINITY);
            assert!(
                skeleton_dist <= graph_dist || skeleton_dist.approx_eq(graph_dist),
                "Theorem 2 violated for {} -> {}: skeleton {skeleton_dist} > graph {graph_dist}",
                q.source,
                q.target
            );
        }
    }

    #[test]
    fn theorem2_holds_after_traffic_updates() {
        let mut g = road_network(250, 3);
        let mut index = DtlpIndex::build(&g, DtlpConfig::new(18, 2)).unwrap();
        let mut traffic = TrafficModel::new(&g, TrafficConfig::new(0.4, 0.5), 5);
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut repaired = 0;
        for round in 0..6 {
            let batch =
                if round % 2 == 0 { traffic.next_snapshot() } else { incident(&g, 2, &mut rng) };
            g.apply_batch(&batch).unwrap();
            repaired += index.apply_batch(&batch).unwrap().pairs_repaired;
        }
        assert!(repaired > 0, "the incidents must repair some bounds");
        let workload = QueryWorkload::generate_from_candidates(
            index.boundary_vertices(),
            QueryWorkloadConfig::new(30, 1),
            13,
        );
        for q in workload.iter() {
            let skeleton_dist = dijkstra_path(index.skeleton(), q.source, q.target)
                .map(|p| p.distance())
                .unwrap_or(Weight::INFINITY);
            let graph_dist = dijkstra_path(&g, q.source, q.target)
                .map(|p| p.distance())
                .unwrap_or(Weight::INFINITY);
            assert!(
                skeleton_dist <= graph_dist || skeleton_dist.approx_eq(graph_dist),
                "Theorem 2 violated after updates for {} -> {}",
                q.source,
                q.target
            );
        }
    }

    #[test]
    fn subgraph_weights_track_applied_batches() {
        let g = road_network(200, 9);
        let mut index = DtlpIndex::build(&g, DtlpConfig::new(15, 1)).unwrap();
        let edge = EdgeId(0);
        let owner = index.owner_of_edge(edge);
        let batch = UpdateBatch::new(vec![ksp_graph::WeightUpdate::new(edge, Weight::new(123.0))]);
        let stats = index.apply_batch(&batch).unwrap();
        assert_eq!(stats.updates_applied, 1);
        let stored = index.subgraph_index(owner).subgraph().edge(edge).unwrap();
        assert_eq!(stored.current_weight, Weight::new(123.0));
    }

    #[test]
    fn apply_batch_rejects_unknown_edges() {
        let g = road_network(150, 2);
        let mut index = DtlpIndex::build(&g, DtlpConfig::new(15, 1)).unwrap();
        let batch =
            UpdateBatch::new(vec![ksp_graph::WeightUpdate::new(EdgeId(999_999), Weight::new(1.0))]);
        assert!(index.apply_batch(&batch).is_err());
    }

    #[test]
    fn skeleton_is_much_smaller_than_the_graph() {
        let g = road_network(800, 21);
        let index = DtlpIndex::build(&g, DtlpConfig::new(60, 1)).unwrap();
        assert!(index.skeleton().num_skeleton_vertices() < g.num_vertices() / 2);
        assert!(index.skeleton().num_skeleton_vertices() > 0);
    }

    #[test]
    fn larger_z_yields_smaller_skeleton() {
        // Table 3 of the paper: the skeleton shrinks as z grows.
        let g = road_network(600, 5);
        let small = DtlpIndex::build(&g, DtlpConfig::new(15, 1)).unwrap();
        let large = DtlpIndex::build(&g, DtlpConfig::new(80, 1)).unwrap();
        assert!(
            large.skeleton().num_skeleton_vertices() < small.skeleton().num_skeleton_vertices()
        );
        assert!(large.num_subgraphs() < small.num_subgraphs());
    }

    #[test]
    fn directed_index_doubles_pair_work() {
        let cfg = RoadNetworkConfig::with_vertices(200).directed();
        let gd = RoadNetworkGenerator::new(cfg).generate(31).unwrap().graph;
        let gu = road_network(200, 31);
        let id = DtlpIndex::build(&gd, DtlpConfig::new(15, 1)).unwrap();
        let iu = DtlpIndex::build(&gu, DtlpConfig::new(15, 1)).unwrap();
        assert!(id.is_directed());
        assert!(!iu.is_directed());
        // The directed index maintains bounds per direction, so it stores more pairs
        // relative to its boundary-vertex count.
        assert!(id.build_stats().num_pairs > 0);
        assert!(iu.build_stats().num_pairs > 0);
    }

    #[test]
    fn vertex_and_edge_ownership_lookups_are_consistent() {
        let g = road_network(300, 8);
        let index = DtlpIndex::build(&g, DtlpConfig::new(25, 1)).unwrap();
        for e in g.edge_ids().take(100) {
            let owner = index.owner_of_edge(e);
            let record = g.edge(e);
            assert!(index.subgraphs_of_vertex(record.u).contains(&owner));
            assert!(index.subgraphs_of_vertex(record.v).contains(&owner));
            assert!(index.subgraph_index(owner).subgraph().owns_edge(e));
        }
        for &b in index.boundary_vertices().iter().take(50) {
            assert!(index.is_boundary(b));
            assert!(index.subgraphs_of_vertex(b).len() >= 2);
        }
    }

    #[test]
    fn maintenance_stats_reflect_work_done() {
        let g = road_network(300, 10);
        let mut index = DtlpIndex::build(&g, DtlpConfig::new(20, 3)).unwrap();
        let mut traffic = TrafficModel::new(&g, TrafficConfig::new(0.5, 0.5), 3);
        let batch = traffic.next_snapshot();
        let stats = index.apply_batch(&batch).unwrap();
        assert_eq!(stats.updates_applied, batch.len());
        assert!(stats.paths_touched > 0);
        assert!(stats.pairs_changed > 0);
        assert!(stats.skeleton_edges_changed > 0);
        assert!(stats.skeleton_edges_changed <= stats.pairs_changed);
    }

    #[test]
    fn maintenance_stats_do_not_depend_on_the_fork() {
        // Subgraphs sharing a skeleton edge patch it in routing order; that
        // order must not change from one application of a batch to the next.
        let g = road_network(600, 42);
        let index = DtlpIndex::build(&g, DtlpConfig::new(30, 2)).unwrap();
        let batch = TrafficModel::new(&g, TrafficConfig::new(0.35, 0.30), 42).next_snapshot();
        let first = index.clone().apply_batch(&batch).unwrap();
        for _ in 1..20 {
            assert_eq!(index.clone().apply_batch(&batch).unwrap(), first);
        }
    }

    #[test]
    fn cloned_index_shares_untouched_subgraphs_and_copies_dirty_ones() {
        let g = road_network(300, 17);
        let base = DtlpIndex::build(&g, DtlpConfig::new(20, 2)).unwrap();
        assert!(base.num_subgraphs() > 3, "test needs several subgraphs");

        // Dirty exactly one subgraph: update a single edge.
        let edge = EdgeId(0);
        let owner = base.owner_of_edge(edge);
        let batch = UpdateBatch::new(vec![ksp_graph::WeightUpdate::new(edge, Weight::new(77.0))]);

        let mut next = base.clone();
        let stats = next.apply_batch(&batch).unwrap();
        assert_eq!(stats.dirty_subgraphs, vec![owner]);

        for id in 0..base.num_subgraphs() {
            let id = ksp_graph::SubgraphId(id as u32);
            let shared = std::sync::Arc::ptr_eq(
                base.subgraph_index_handle(id),
                next.subgraph_index_handle(id),
            );
            if id == owner {
                assert!(!shared, "the dirtied subgraph must be unshared");
                // Even the unshared copy still shares its bounding-path shape and
                // its subgraph's shape.
                assert!(next.subgraph_index(id).shares_structure_with(base.subgraph_index(id)));
                let (sg, base_sg) =
                    (next.subgraph_index(id).subgraph(), base.subgraph_index(id).subgraph());
                assert!(sg.shares_shape_with(base_sg));
                assert_eq!(
                    next.subgraph_index(id).subgraph().edge(edge).unwrap().current_weight,
                    Weight::new(77.0)
                );
            } else {
                assert!(shared, "untouched subgraph {id} was deep-copied");
            }
        }
        // The original is untouched.
        assert_eq!(
            base.subgraph_index(owner).subgraph().edge(edge).unwrap().current_weight,
            g.weight(edge)
        );
        // The auxiliary tables are shared wholesale, the skeleton's topology too.
        assert_eq!(base.boundary_vertices(), next.boundary_vertices());
        assert!(next.skeleton().shares_structure_with(base.skeleton()));
    }

    /// Maintains an index of `g` over global batches interleaved with incidents,
    /// then checks that reassembling it from its per-subgraph parts (as a restore
    /// does) reproduces the slot-patched skeleton bit for bit. Returns the index.
    fn assert_parts_reproduce_maintenance(mut g: DynamicGraph, seed: u64) -> DtlpIndex {
        let mut live = DtlpIndex::build(&g, DtlpConfig::new(18, 2)).unwrap();
        let mut traffic = TrafficModel::new(&g, TrafficConfig::new(0.4, 0.5), seed);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let (mut repaired, mut patched) = (0, 0);
        for round in 0..6 {
            let batch =
                if round % 2 == 0 { traffic.next_snapshot() } else { incident(&g, 2, &mut rng) };
            g.apply_batch(&batch).unwrap();
            let stats = live.apply_batch(&batch).unwrap();
            repaired += stats.pairs_repaired;
            patched += stats.skeleton_edges_changed;
        }
        assert!(repaired > 0, "the stream must leave repaired bounds behind");
        assert!(patched > 0, "the stream must move skeleton weights");
        // Reassemble the way a restore does: from the per-subgraph parts alone.
        let rebuilt = DtlpIndex::assemble(
            *live.config(),
            live.is_directed(),
            live.subgraph_indexes().to_vec(),
            live.vertex_memberships().map(|(_, sgs)| sgs.to_vec()).collect(),
            live.edge_owners().to_vec(),
            live.boundary_vertices().to_vec(),
        );
        assert!(rebuilt.build_stats().subgraph_build_times.is_empty());
        // The skeleton derived from the parts matches the live, incrementally
        // patched skeleton edge for edge, bit for bit.
        assert_eq!(rebuilt.skeleton().num_skeleton_edges(), live.skeleton().num_skeleton_edges());
        for e in live.skeleton().edges() {
            let w = rebuilt.skeleton().skeleton_edge_weight(e.a, e.b).unwrap();
            assert_eq!(w.value().to_bits(), e.weight.value().to_bits());
        }
        live
    }

    #[test]
    fn assembled_parts_reproduce_incremental_maintenance_exactly() {
        assert_parts_reproduce_maintenance(road_network(250, 23), 7);
    }

    #[test]
    fn directed_assembled_parts_reproduce_incremental_maintenance_exactly() {
        let cfg = RoadNetworkConfig::with_vertices(250).directed();
        let g = RoadNetworkGenerator::new(cfg).generate(23).unwrap().graph;
        let live = assert_parts_reproduce_maintenance(g, 7);
        // The skeleton keys edges by ordered pair: some pair is maintained in
        // both directions, with bounds that moved apart.
        let sk = live.skeleton();
        assert!(sk.is_directed());
        assert!(
            sk.edges().any(|e| sk
                .skeleton_edge_weight(e.b, e.a)
                .is_some_and(|back| back.value().to_bits() != e.weight.value().to_bits())),
            "no ordered pair carries a weight of its own"
        );
    }

    #[test]
    fn skeleton_view_num_vertices_covers_ids() {
        let g = paper_graph();
        let index = DtlpIndex::build(&g, DtlpConfig::new(6, 2)).unwrap();
        let max_boundary = index.boundary_vertices().iter().map(|v| v.index()).max().unwrap();
        assert!(GraphView::num_vertices(index.skeleton()) > max_boundary);
    }
}
