//! The CANDS index: exact boundary-pair shortest paths per subgraph, and the overlay
//! search that answers single-shortest-path queries against it.

use ksp_algo::SearchArena;
use ksp_graph::{
    DynamicGraph, GraphError, GraphView, PartitionConfig, Partitioner, Subgraph, SubgraphId,
    UpdateBatch, VertexId, Weight,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Statistics of one maintenance call (Figure 41 compares this against DTLP).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CandsMaintenanceStats {
    /// Number of weight updates applied.
    pub updates_applied: usize,
    /// Number of subgraphs whose boundary-pair index had to be recomputed.
    pub subgraphs_recomputed: usize,
    /// Number of boundary-pair shortest paths recomputed.
    pub pairs_recomputed: usize,
    /// Wall-clock time of the maintenance call.
    pub elapsed: Duration,
}

/// The answer to a CANDS single-shortest-path query.
#[derive(Debug, Clone, PartialEq)]
pub struct CandsQueryResult {
    /// The shortest distance from source to target, or `None` if unreachable.
    pub distance: Option<Weight>,
    /// The sequence of boundary vertices (plus the endpoints) the shortest route passes
    /// through, outermost first. Empty when the target is unreachable.
    pub boundary_route: Vec<VertexId>,
    /// Number of overlay vertices settled while answering (a work metric).
    pub settled_vertices: usize,
}

/// The CANDS index over one dynamic graph.
#[derive(Debug, Clone)]
pub struct CandsIndex {
    /// Shared handles from the partitioner; weight maintenance unshares a
    /// subgraph copy-on-write before mutating it.
    subgraphs: Vec<std::sync::Arc<Subgraph>>,
    vertex_subgraphs: HashMap<VertexId, Vec<SubgraphId>>,
    edge_owner: Vec<SubgraphId>,
    boundary: Vec<VertexId>,
    /// Exact within-subgraph shortest distances between boundary pairs, per subgraph.
    pair_distances: Vec<HashMap<(VertexId, VertexId), Weight>>,
    /// Overlay adjacency over boundary vertices: for every boundary vertex, the
    /// boundary vertices reachable within one subgraph and the minimum indexed
    /// distance over the subgraphs that contain both.
    overlay: HashMap<VertexId, Vec<(VertexId, Weight)>>,
    directed: bool,
    build_time: Duration,
}

impl CandsIndex {
    /// Builds the index: partitions the graph and computes the exact shortest path
    /// between every pair of boundary vertices within every subgraph.
    pub fn build(graph: &DynamicGraph, max_subgraph_vertices: usize) -> Result<Self, GraphError> {
        let start = Instant::now();
        let partitioning =
            Partitioner::new(PartitionConfig::with_max_vertices(max_subgraph_vertices))
                .partition(graph)?;
        let boundary = partitioning.boundary_vertices().to_vec();
        let mut vertex_subgraphs = HashMap::new();
        for v in graph.vertices() {
            vertex_subgraphs.insert(v, partitioning.subgraphs_of_vertex(v).to_vec());
        }
        let edge_owner: Vec<SubgraphId> =
            graph.edge_ids().map(|e| partitioning.owner_of_edge(e)).collect();
        let subgraphs = partitioning.into_subgraphs();

        let mut index = CandsIndex {
            subgraphs,
            vertex_subgraphs,
            edge_owner,
            boundary,
            pair_distances: Vec::new(),
            overlay: HashMap::new(),
            directed: graph.is_directed(),
            build_time: Duration::default(),
        };
        index.pair_distances = index
            .subgraphs
            .iter()
            .map(|sg| Self::compute_pair_distances(sg, index.directed))
            .collect();
        index.rebuild_overlay();
        index.build_time = start.elapsed();
        Ok(index)
    }

    /// Wall-clock time of the initial build.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Number of subgraphs.
    pub fn num_subgraphs(&self) -> usize {
        self.subgraphs.len()
    }

    /// Number of indexed boundary pairs across all subgraphs.
    pub fn num_indexed_pairs(&self) -> usize {
        self.pair_distances.iter().map(|m| m.len()).sum()
    }

    /// All boundary vertices.
    pub fn boundary_vertices(&self) -> &[VertexId] {
        &self.boundary
    }

    /// Whether `v` is a boundary vertex.
    pub fn is_boundary(&self, v: VertexId) -> bool {
        self.boundary.binary_search(&v).is_ok()
    }

    /// Estimated memory of the shortest-path index (not counting the subgraphs).
    pub fn index_memory_bytes(&self) -> usize {
        self.pair_distances
            .iter()
            .map(|m| m.len() * (std::mem::size_of::<(VertexId, VertexId)>() + 8))
            .sum::<usize>()
            + self
                .overlay
                .values()
                .map(|v| v.len() * std::mem::size_of::<(VertexId, Weight)>())
                .sum::<usize>()
    }

    fn compute_pair_distances(
        subgraph: &Subgraph,
        directed: bool,
    ) -> HashMap<(VertexId, VertexId), Weight> {
        let mut out = HashMap::new();
        let boundary = subgraph.boundary_vertices();
        let mut arena = SearchArena::new();
        for &a in boundary {
            arena.search_from(subgraph, a);
            for &b in boundary {
                if a == b {
                    continue;
                }
                if !directed && a > b {
                    continue; // store undirected pairs once, canonically (min, max)
                }
                let d = arena.distance(b);
                if d.is_finite() {
                    out.insert((a, b), d);
                }
            }
        }
        out
    }

    fn rebuild_overlay(&mut self) {
        let mut overlay: HashMap<VertexId, Vec<(VertexId, Weight)>> = HashMap::new();
        let mut best: HashMap<(VertexId, VertexId), Weight> = HashMap::new();
        for pairs in &self.pair_distances {
            for (&(a, b), &d) in pairs {
                best.entry((a, b)).and_modify(|w| *w = (*w).min(d)).or_insert(d);
            }
        }
        for ((a, b), d) in best {
            overlay.entry(a).or_default().push((b, d));
            if !self.directed {
                overlay.entry(b).or_default().push((a, d));
            }
        }
        self.overlay = overlay;
    }

    /// Applies a batch of weight updates. Every subgraph containing an updated edge
    /// recomputes all of its boundary-pair shortest paths — the expensive maintenance
    /// step that Figure 41 contrasts with DTLP's cheap bound refresh.
    pub fn apply_batch(
        &mut self,
        batch: &UpdateBatch,
    ) -> Result<CandsMaintenanceStats, GraphError> {
        let start = Instant::now();
        let mut dirty: Vec<bool> = vec![false; self.subgraphs.len()];
        for u in batch.iter() {
            let owner = *self.edge_owner.get(u.edge.index()).ok_or(GraphError::EdgeOutOfRange {
                edge: u.edge,
                num_edges: self.edge_owner.len(),
            })?;
            std::sync::Arc::make_mut(&mut self.subgraphs[owner.index()]).apply_update(u)?;
            dirty[owner.index()] = true;
        }
        let mut stats =
            CandsMaintenanceStats { updates_applied: batch.len(), ..Default::default() };
        for (i, is_dirty) in dirty.iter().enumerate() {
            if !is_dirty {
                continue;
            }
            self.pair_distances[i] =
                Self::compute_pair_distances(&self.subgraphs[i], self.directed);
            stats.subgraphs_recomputed += 1;
            stats.pairs_recomputed += self.pair_distances[i].len();
        }
        if stats.subgraphs_recomputed > 0 {
            self.rebuild_overlay();
        }
        stats.elapsed = start.elapsed();
        Ok(stats)
    }

    /// Answers a single-shortest-path query from `source` to `target`.
    pub fn shortest_path(&self, source: VertexId, target: VertexId) -> CandsQueryResult {
        if source == target {
            return CandsQueryResult {
                distance: Some(Weight::ZERO),
                boundary_route: vec![source],
                settled_vertices: 1,
            };
        }
        // Overlay view: indexed boundary edges plus query-local attachments.
        let mut extra: HashMap<VertexId, Vec<(VertexId, Weight)>> = HashMap::new();
        let mut arena = SearchArena::new();
        for &sg in self.subgraphs_of_vertex(source) {
            let sgref = &self.subgraphs[sg.index()];
            arena.search_from(&**sgref, source);
            for &b in sgref.boundary_vertices() {
                let d = arena.distance(b);
                if d.is_finite() && b != source {
                    extra.entry(source).or_default().push((b, d));
                }
            }
            // Direct connection if the target shares this subgraph.
            if sgref.contains_vertex(target) {
                let d = arena.distance(target);
                if d.is_finite() {
                    extra.entry(source).or_default().push((target, d));
                }
            }
        }
        for &sg in self.subgraphs_of_vertex(target) {
            let sgref = &self.subgraphs[sg.index()];
            if self.directed {
                // Reverse search within the subgraph: distance from each boundary
                // vertex to the target.
                for &b in sgref.boundary_vertices() {
                    if b == target {
                        continue;
                    }
                    if let Some(p) = arena.shortest_path(&**sgref, b, target, &[], &[]) {
                        extra.entry(b).or_default().push((target, p.distance()));
                    }
                }
            } else {
                arena.search_from(&**sgref, target);
                for &b in sgref.boundary_vertices() {
                    let d = arena.distance(b);
                    if d.is_finite() && b != target {
                        extra.entry(b).or_default().push((target, d));
                    }
                }
            }
        }

        let view = CandsOverlayView { index: self, extra: &extra };
        match arena.shortest_path(&view, source, target, &[], &[]) {
            Some(p) => CandsQueryResult {
                distance: Some(p.distance()),
                settled_vertices: p.num_vertices(),
                boundary_route: p.vertices().to_vec(),
            },
            None => {
                CandsQueryResult { distance: None, boundary_route: Vec::new(), settled_vertices: 0 }
            }
        }
    }

    fn subgraphs_of_vertex(&self, v: VertexId) -> &[SubgraphId] {
        self.vertex_subgraphs.get(&v).map(|s| s.as_slice()).unwrap_or(&[])
    }
}

/// Overlay graph view used by the CANDS query: indexed boundary edges plus query-local
/// source/target attachments.
struct CandsOverlayView<'a> {
    index: &'a CandsIndex,
    extra: &'a HashMap<VertexId, Vec<(VertexId, Weight)>>,
}

impl GraphView for CandsOverlayView<'_> {
    fn num_vertices(&self) -> usize {
        // The query target appears only as a neighbour in `extra`, so bound by the
        // whole graph: `vertex_subgraphs` has an entry for every vertex.
        self.index.vertex_subgraphs.len()
    }

    fn contains_vertex(&self, v: VertexId) -> bool {
        self.index.overlay.contains_key(&v)
            || self.extra.contains_key(&v)
            || self.index.is_boundary(v)
    }

    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        if let Some(list) = self.index.overlay.get(&v) {
            for &(to, w) in list {
                f(to, w);
            }
        }
        if let Some(list) = self.extra.get(&v) {
            for &(to, w) in list {
                f(to, w);
            }
        }
    }

    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let mut best: Option<Weight> = None;
        self.for_each_neighbor(u, |to, w| {
            if to == v {
                best = Some(best.map_or(w, |b| b.min(w)));
            }
        });
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_algo::dijkstra_path;
    use ksp_graph::EdgeId;
    use ksp_workload::{
        QueryWorkload, QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig,
        TrafficModel,
    };

    fn network(n: usize, seed: u64) -> DynamicGraph {
        RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n)).generate(seed).unwrap().graph
    }

    #[test]
    fn distances_match_dijkstra_ground_truth() {
        let g = network(250, 7);
        let index = CandsIndex::build(&g, 20).unwrap();
        let workload = QueryWorkload::generate(&g, QueryWorkloadConfig::new(25, 1), 3);
        for q in workload.iter() {
            let result = index.shortest_path(q.source, q.target);
            let expected = dijkstra_path(&g, q.source, q.target).map(|p| p.distance());
            match (result.distance, expected) {
                (Some(a), Some(b)) => {
                    assert!(
                        a.approx_eq(b),
                        "{} -> {}: CANDS {a} vs Dijkstra {b}",
                        q.source,
                        q.target
                    )
                }
                (None, None) => {}
                other => {
                    panic!("reachability mismatch for {} -> {}: {other:?}", q.source, q.target)
                }
            }
        }
    }

    #[test]
    fn distances_stay_correct_after_updates() {
        let mut g = network(200, 9);
        let mut index = CandsIndex::build(&g, 18).unwrap();
        let mut traffic = TrafficModel::new(&g, TrafficConfig::new(0.5, 0.5), 4);
        for _ in 0..2 {
            let batch = traffic.next_snapshot();
            g.apply_batch(&batch).unwrap();
            let stats = index.apply_batch(&batch).unwrap();
            assert!(stats.subgraphs_recomputed > 0);
            assert!(stats.pairs_recomputed > 0);
        }
        let workload = QueryWorkload::generate(&g, QueryWorkloadConfig::new(15, 1), 11);
        for q in workload.iter() {
            let result = index.shortest_path(q.source, q.target);
            let expected = dijkstra_path(&g, q.source, q.target).map(|p| p.distance());
            match (result.distance, expected) {
                (Some(a), Some(b)) => assert!(a.approx_eq(b)),
                (None, None) => {}
                other => panic!("reachability mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn trivial_and_unreachable_queries() {
        let g = network(150, 5);
        let index = CandsIndex::build(&g, 15).unwrap();
        let r = index.shortest_path(VertexId(3), VertexId(3));
        assert_eq!(r.distance, Some(Weight::ZERO));
        assert_eq!(r.boundary_route, vec![VertexId(3)]);
    }

    #[test]
    fn maintenance_recomputes_only_affected_subgraphs() {
        let g = network(300, 13);
        let mut index = CandsIndex::build(&g, 25).unwrap();
        // A single-edge update touches exactly one subgraph.
        let batch =
            UpdateBatch::new(vec![ksp_graph::WeightUpdate::new(EdgeId(0), Weight::new(99.0))]);
        let stats = index.apply_batch(&batch).unwrap();
        assert_eq!(stats.updates_applied, 1);
        assert_eq!(stats.subgraphs_recomputed, 1);
    }

    #[test]
    fn index_statistics_are_consistent() {
        let g = network(300, 17);
        let index = CandsIndex::build(&g, 25).unwrap();
        assert!(index.num_subgraphs() > 1);
        assert!(index.num_indexed_pairs() > 0);
        assert!(!index.boundary_vertices().is_empty());
        assert!(index.index_memory_bytes() > 0);
        for &b in index.boundary_vertices().iter().take(20) {
            assert!(index.is_boundary(b));
        }
    }

    #[test]
    fn unknown_edge_update_is_rejected() {
        let g = network(120, 19);
        let mut index = CandsIndex::build(&g, 15).unwrap();
        let batch = UpdateBatch::new(vec![ksp_graph::WeightUpdate::new(
            EdgeId(1_000_000),
            Weight::new(1.0),
        )]);
        assert!(index.apply_batch(&batch).is_err());
    }
}
