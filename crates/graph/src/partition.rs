//! BFS edge partitioning into subgraphs with at most `z` vertices (Section 3.3).
//!
//! The partitioner traverses the graph breadth-first from a seed vertex and assigns
//! unassigned incident edges to the current subgraph as long as doing so keeps the
//! subgraph's vertex count within the threshold `z`. The result satisfies the
//! properties required by the paper:
//!
//! * every edge belongs to exactly one subgraph (subgraphs share no edges);
//! * every vertex belongs to at least one subgraph, and the union of the subgraphs is
//!   the original graph;
//! * each subgraph has at most `z` vertices;
//! * vertices belonging to two or more subgraphs are *boundary vertices* — the only
//!   contact points between subgraphs.

use crate::error::GraphError;
use crate::graph::DynamicGraph;
use crate::ids::{EdgeId, SubgraphId, VertexId};
use crate::subgraph::{Subgraph, SubgraphEdge};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Configuration of the partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionConfig {
    /// Maximum number of vertices per subgraph (the paper's `z`). Must be at least 2.
    pub max_vertices: usize,
}

impl PartitionConfig {
    /// Creates a configuration with the given subgraph capacity `z`.
    pub fn with_max_vertices(z: usize) -> Self {
        PartitionConfig { max_vertices: z }
    }
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig { max_vertices: 200 }
    }
}

/// The BFS edge partitioner.
#[derive(Debug, Clone, Default)]
pub struct Partitioner {
    config: PartitionConfig,
}

/// The result of partitioning a graph.
///
/// Subgraphs are held behind `Arc`s: the partitioning is the birthplace of the
/// per-subgraph state that the DTLP index, the serving layer and the store all
/// share structurally, so handing out shared handles here means an index build
/// never copies a subgraph it can reference.
#[derive(Debug, Clone)]
pub struct Partitioning {
    subgraphs: Vec<Arc<Subgraph>>,
    /// All boundary vertices of the graph, sorted.
    boundary: Vec<VertexId>,
    /// For every vertex, the subgraphs it belongs to.
    vertex_subgraphs: BTreeMap<VertexId, Vec<SubgraphId>>,
    /// For every edge, the subgraph that owns it.
    edge_owner: Vec<SubgraphId>,
}

impl Partitioner {
    /// Creates a partitioner with the given configuration.
    pub fn new(config: PartitionConfig) -> Self {
        Partitioner { config }
    }

    /// Partitions `graph` into subgraphs of at most `z` vertices.
    pub fn partition(&self, graph: &DynamicGraph) -> Result<Partitioning, GraphError> {
        let z = self.config.max_vertices;
        if z < 2 {
            return Err(GraphError::InvalidPartitionSize { z });
        }
        let n = graph.num_vertices();
        let m = graph.num_edges();

        let mut edge_assigned = vec![false; m];
        let mut edge_owner = vec![SubgraphId(u32::MAX); m];
        // Remaining unassigned incident edges per vertex, to pick good seeds cheaply.
        let mut remaining_degree: Vec<u32> =
            (0..n).map(|v| incident_count(graph, VertexId(v as u32))).collect();
        // Each subgraph's vertices and edges; the subgraphs are built once the
        // boundary is known.
        let mut parts: Vec<(Vec<VertexId>, Vec<SubgraphEdge>)> = Vec::new();
        let mut vertex_subgraphs: BTreeMap<VertexId, Vec<SubgraphId>> = BTreeMap::new();

        // Seeds are scanned in vertex order; a frontier of vertices that still have
        // unassigned edges left over from a full subgraph is preferred, so consecutive
        // subgraphs stay spatially close (mirrors the BFS strategy of the paper).
        let mut pending_seeds: VecDeque<VertexId> = VecDeque::new();
        let mut next_scan: u32 = 0;

        loop {
            // Pick the next seed: first any frontier vertex with remaining edges, then
            // the next vertex in id order with remaining edges.
            let seed = loop {
                if let Some(v) = pending_seeds.pop_front() {
                    if remaining_degree[v.index()] > 0 {
                        break Some(v);
                    }
                    continue;
                }
                if (next_scan as usize) < n {
                    let v = VertexId(next_scan);
                    next_scan += 1;
                    if remaining_degree[v.index()] > 0 {
                        break Some(v);
                    }
                    continue;
                }
                break None;
            };
            let Some(seed) = seed else { break };

            let sg_id = SubgraphId(parts.len() as u32);
            let mut sg_vertices: BTreeSet<VertexId> = BTreeSet::new();
            sg_vertices.insert(seed);
            let mut sg_edges: Vec<SubgraphEdge> = Vec::new();
            let mut queue: VecDeque<VertexId> = VecDeque::new();
            queue.push_back(seed);

            while let Some(v) = queue.pop_front() {
                let mut leftover = false;
                for &(to, e) in graph.adjacency(v) {
                    if edge_assigned[e.index()] {
                        continue;
                    }
                    let is_new = !sg_vertices.contains(&to);
                    if is_new && sg_vertices.len() >= z {
                        // Adding this edge would exceed the vertex budget; leave it for
                        // a later subgraph seeded near here.
                        leftover = true;
                        continue;
                    }
                    edge_assigned[e.index()] = true;
                    edge_owner[e.index()] = sg_id;
                    remaining_degree[v.index()] = remaining_degree[v.index()].saturating_sub(1);
                    if !graph.is_directed() {
                        // Undirected adjacency lists contain the edge at both endpoints,
                        // so the neighbour's remaining count drops too. For directed
                        // graphs `remaining_degree` counts out-edges only and the
                        // neighbour's count is unaffected by consuming an in-edge.
                        remaining_degree[to.index()] =
                            remaining_degree[to.index()].saturating_sub(1);
                    }
                    let record = graph.edge(e);
                    sg_edges.push(SubgraphEdge {
                        global_id: e,
                        u: record.u,
                        v: record.v,
                        initial_weight: record.initial_weight,
                        current_weight: record.current_weight,
                    });
                    if is_new {
                        sg_vertices.insert(to);
                        queue.push_back(to);
                    }
                }
                // For directed graphs, in-edges of v are incident too: they were walked
                // when their tail was visited; any still unassigned will be picked up by
                // later subgraphs seeded at their tails.
                if leftover {
                    pending_seeds.push_back(v);
                }
            }

            if sg_edges.is_empty() {
                // The seed's remaining edges could not be placed without exceeding z
                // from this seed (possible only for directed in-edges); skip, they will
                // be assigned when their tail becomes a seed.
                continue;
            }

            let vertices: Vec<VertexId> = sg_edges
                .iter()
                .flat_map(|e| [e.u, e.v])
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            for &v in &vertices {
                vertex_subgraphs.entry(v).or_default().push(sg_id);
            }
            parts.push((vertices, sg_edges));
        }

        // Isolated vertices (degree zero) still need a home so that the union of the
        // subgraph vertex sets equals V.
        for v in graph.vertices() {
            if !vertex_subgraphs.contains_key(&v) {
                let sg_id = SubgraphId(parts.len() as u32);
                vertex_subgraphs.entry(v).or_default().push(sg_id);
                parts.push((vec![v], Vec::new()));
            }
        }

        let boundary: Vec<VertexId> =
            vertex_subgraphs.iter().filter(|(_, sgs)| sgs.len() >= 2).map(|(&v, _)| v).collect();
        // Freeze the finished subgraphs behind shared handles.
        let directed = graph.is_directed();
        let subgraphs = (0..).zip(parts).map(|(i, (vertices, edges))| {
            Arc::new(Subgraph::restore(SubgraphId(i), directed, vertices, edges, boundary.clone()))
        });
        let subgraphs = subgraphs.collect();
        Ok(Partitioning { subgraphs, boundary, vertex_subgraphs, edge_owner })
    }
}

/// Number of edges incident to `v` from the adjacency list (out-edges for directed
/// graphs, all edges for undirected graphs).
fn incident_count(graph: &DynamicGraph, v: VertexId) -> u32 {
    graph.adjacency(v).len() as u32
}

impl Partitioning {
    /// The subgraphs, indexed by [`SubgraphId`], as shared handles. An index
    /// built over them references the partitioner's allocations instead of
    /// copying them.
    pub fn subgraphs(&self) -> &[Arc<Subgraph>] {
        &self.subgraphs
    }

    /// Number of subgraphs.
    pub fn num_subgraphs(&self) -> usize {
        self.subgraphs.len()
    }

    /// A specific subgraph.
    pub fn subgraph(&self, id: SubgraphId) -> &Subgraph {
        &self.subgraphs[id.index()]
    }

    /// All boundary vertices of the graph, sorted ascending.
    pub fn boundary_vertices(&self) -> &[VertexId] {
        &self.boundary
    }

    /// Whether `v` is a boundary vertex.
    pub fn is_boundary(&self, v: VertexId) -> bool {
        self.boundary.binary_search(&v).is_ok()
    }

    /// The subgraphs a vertex belongs to (empty slice if the vertex is unknown).
    pub fn subgraphs_of_vertex(&self, v: VertexId) -> &[SubgraphId] {
        self.vertex_subgraphs.get(&v).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The subgraph owning an edge.
    pub fn owner_of_edge(&self, e: EdgeId) -> SubgraphId {
        self.edge_owner[e.index()]
    }

    /// The subgraphs containing *both* vertices. For adjacent boundary vertices on a
    /// reference path this is the set of subgraphs examined by the refine step.
    pub fn subgraphs_containing_pair(&self, a: VertexId, b: VertexId) -> Vec<SubgraphId> {
        let sa = self.subgraphs_of_vertex(a);
        let sb = self.subgraphs_of_vertex(b);
        sa.iter().filter(|id| sb.contains(id)).copied().collect()
    }

    /// Number of subgraphs with strictly more than `threshold` boundary vertices
    /// (Table 1 of the paper reports this for `threshold = 5`).
    pub fn subgraphs_with_boundary_over(&self, threshold: usize) -> usize {
        self.subgraphs.iter().filter(|sg| sg.boundary_vertices().len() > threshold).count()
    }

    /// Consumes the partitioning and returns the subgraph handles.
    pub fn into_subgraphs(self) -> Vec<Arc<Subgraph>> {
        self.subgraphs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::view::GraphView;
    use std::collections::HashSet;

    /// Builds the example graph of Figure 3 in the paper (19 vertices, 24 edges).
    /// Vertex names v1..v19 map to ids 0..18.
    pub(crate) fn paper_figure3_graph() -> DynamicGraph {
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
        for &(u, v, w) in edges {
            b.edge(u - 1, v - 1, w);
        }
        b.build().unwrap()
    }

    fn grid_graph(width: u32, height: u32) -> DynamicGraph {
        let mut b = GraphBuilder::undirected((width * height) as usize);
        for y in 0..height {
            for x in 0..width {
                let v = y * width + x;
                if x + 1 < width {
                    b.edge(v, v + 1, 1 + (x + y) % 5);
                }
                if y + 1 < height {
                    b.edge(v, v + width, 1 + (x * y) % 7);
                }
            }
        }
        b.build().unwrap()
    }

    fn check_invariants(graph: &DynamicGraph, partitioning: &Partitioning, z: usize) {
        // 1. Every edge appears in exactly one subgraph.
        let mut edge_count = vec![0usize; graph.num_edges()];
        for sg in partitioning.subgraphs() {
            for e in sg.edges() {
                edge_count[e.global_id.index()] += 1;
            }
        }
        assert!(edge_count.iter().all(|&c| c == 1), "every edge must be owned exactly once");

        // 2. Every vertex appears in at least one subgraph and unions give back V.
        let mut covered: HashSet<VertexId> = HashSet::new();
        for sg in partitioning.subgraphs() {
            covered.extend(sg.vertices().iter().copied());
            // 3. Vertex budget respected (isolated-vertex subgraphs have one vertex).
            // Deref to the inherent method: through the Arc handle, GraphView's
            // num_vertices (a global-id upper bound) would shadow it.
            assert!(sg.as_ref().num_vertices() <= z, "subgraph exceeds z={z}");
        }
        assert_eq!(covered.len(), graph.num_vertices());

        // 4. Boundary vertices are exactly those in >= 2 subgraphs.
        for v in graph.vertices() {
            let count = partitioning.subgraphs_of_vertex(v).len();
            assert_eq!(partitioning.is_boundary(v), count >= 2, "boundary flag mismatch for {v}");
        }

        // 5. The owner map agrees with ownership.
        for (e, _) in graph.edges() {
            let owner = partitioning.owner_of_edge(e);
            assert!(partitioning.subgraph(owner).owns_edge(e));
        }
    }

    #[test]
    fn rejects_too_small_z() {
        let g = grid_graph(3, 3);
        let err =
            Partitioner::new(PartitionConfig::with_max_vertices(1)).partition(&g).unwrap_err();
        assert_eq!(err, GraphError::InvalidPartitionSize { z: 1 });
    }

    #[test]
    fn paper_example_partitions_with_z6() {
        let g = paper_figure3_graph();
        let partitioning =
            Partitioner::new(PartitionConfig::with_max_vertices(6)).partition(&g).unwrap();
        check_invariants(&g, &partitioning, 6);
        // With z = 6, the 19-vertex graph needs at least 4 subgraphs.
        assert!(partitioning.num_subgraphs() >= 4);
        assert!(!partitioning.boundary_vertices().is_empty());
    }

    #[test]
    fn grid_partitions_respect_invariants_for_various_z() {
        let g = grid_graph(12, 9);
        for z in [4, 8, 16, 40, 200] {
            let partitioning =
                Partitioner::new(PartitionConfig::with_max_vertices(z)).partition(&g).unwrap();
            check_invariants(&g, &partitioning, z);
        }
    }

    #[test]
    fn larger_z_gives_fewer_subgraphs() {
        let g = grid_graph(15, 15);
        let small = Partitioner::new(PartitionConfig::with_max_vertices(8)).partition(&g).unwrap();
        let large = Partitioner::new(PartitionConfig::with_max_vertices(64)).partition(&g).unwrap();
        assert!(large.num_subgraphs() < small.num_subgraphs());
        assert!(large.boundary_vertices().len() < small.boundary_vertices().len());
    }

    #[test]
    fn single_subgraph_when_z_covers_everything() {
        let g = grid_graph(4, 4);
        let partitioning =
            Partitioner::new(PartitionConfig::with_max_vertices(1000)).partition(&g).unwrap();
        assert_eq!(partitioning.num_subgraphs(), 1);
        assert!(partitioning.boundary_vertices().is_empty());
        check_invariants(&g, &partitioning, 1000);
    }

    #[test]
    fn isolated_vertices_get_their_own_subgraph() {
        let mut b = GraphBuilder::undirected(4);
        b.edge(0, 1, 1);
        // Vertices 2 and 3 are isolated.
        let g = b.build().unwrap();
        let partitioning =
            Partitioner::new(PartitionConfig::with_max_vertices(10)).partition(&g).unwrap();
        check_invariants(&g, &partitioning, 10);
        assert!(partitioning.subgraphs_of_vertex(VertexId(2)).len() == 1);
        assert!(partitioning.subgraphs_of_vertex(VertexId(3)).len() == 1);
    }

    #[test]
    fn directed_graph_partitioning_covers_all_edges() {
        let mut b = GraphBuilder::directed(6);
        for (u, v) in [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 5), (3, 1)] {
            b.edge(u, v, 2);
        }
        let g = b.build().unwrap();
        let partitioning =
            Partitioner::new(PartitionConfig::with_max_vertices(3)).partition(&g).unwrap();
        check_invariants(&g, &partitioning, 3);
    }

    #[test]
    fn subgraphs_containing_pair_finds_shared_subgraphs() {
        let g = paper_figure3_graph();
        let partitioning =
            Partitioner::new(PartitionConfig::with_max_vertices(6)).partition(&g).unwrap();
        for &b1 in partitioning.boundary_vertices() {
            for sg_id in partitioning.subgraphs_of_vertex(b1) {
                let sg = partitioning.subgraph(*sg_id);
                for &b2 in sg.boundary_vertices() {
                    if b1 != b2 {
                        let shared = partitioning.subgraphs_containing_pair(b1, b2);
                        assert!(shared.contains(sg_id));
                    }
                }
            }
        }
    }

    #[test]
    fn subgraph_weights_match_graph_weights_at_partition_time() {
        let g = grid_graph(6, 6);
        let partitioning =
            Partitioner::new(PartitionConfig::with_max_vertices(9)).partition(&g).unwrap();
        for sg in partitioning.subgraphs() {
            for e in sg.edges() {
                assert_eq!(e.current_weight, g.weight(e.global_id));
                assert_eq!(e.initial_weight, g.initial_weight(e.global_id));
            }
        }
    }

    #[test]
    fn boundary_count_statistic() {
        let g = grid_graph(20, 20);
        let partitioning =
            Partitioner::new(PartitionConfig::with_max_vertices(25)).partition(&g).unwrap();
        let over0 = partitioning.subgraphs_with_boundary_over(0);
        let over5 = partitioning.subgraphs_with_boundary_over(5);
        assert!(over0 >= over5);
        assert!(over0 <= partitioning.num_subgraphs());
    }

    #[test]
    fn subgraph_view_weights_are_queryable() {
        let g = paper_figure3_graph();
        let partitioning =
            Partitioner::new(PartitionConfig::with_max_vertices(6)).partition(&g).unwrap();
        for sg in partitioning.subgraphs() {
            for e in sg.edges() {
                assert_eq!(sg.edge_weight(e.u, e.v), Some(e.current_weight));
            }
        }
    }
}
