//! The dynamic weighted graph (Definition 1 of the paper).

use crate::error::GraphError;
use crate::ids::{EdgeId, VertexId};
use crate::update::{UpdateBatch, WeightUpdate};
use crate::view::GraphView;
use crate::weight::Weight;
use std::collections::HashMap;
use std::sync::Arc;

/// A single edge of the graph together with its evolving weight.
///
/// The *initial* weight is kept separately from the *current* weight because the DTLP
/// index interprets the initial weight as the number of virtual fragments of the edge
/// (Section 3.4); that number never changes even as the current weight evolves.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeRecord {
    /// First endpoint (the tail for directed graphs).
    pub u: VertexId,
    /// Second endpoint (the head for directed graphs).
    pub v: VertexId,
    /// Initial weight, interpreted as the number of virtual fragments (>= 1).
    pub initial_weight: u32,
    /// Current weight (travel time); changes over time.
    pub current_weight: Weight,
}

impl EdgeRecord {
    /// The endpoint of this edge that is not `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of the edge.
    #[inline]
    pub fn other_endpoint(&self, from: VertexId) -> VertexId {
        if from == self.u {
            self.v
        } else if from == self.v {
            self.u
        } else {
            panic!("{from} is not an endpoint of edge ({}, {})", self.u, self.v)
        }
    }

    /// The unit weight of the edge: current weight divided by the vfrag count.
    #[inline]
    pub fn unit_weight(&self) -> Weight {
        self.current_weight / self.initial_weight as f64
    }
}

/// The structural (weight-independent) part of a [`DynamicGraph`]: adjacency
/// and the endpoint-pair lookup. Weight updates never touch it, so epoch
/// publication shares one allocation across every derived graph copy.
#[derive(Debug, Clone)]
struct Topology {
    directed: bool,
    /// Out-adjacency. For undirected graphs each edge appears in both endpoint lists.
    adj: Vec<Vec<(VertexId, EdgeId)>>,
    /// Lookup from endpoint pair to edge id. Keys are canonicalised (min, max) for
    /// undirected graphs and kept as (tail, head) for directed graphs.
    edge_lookup: HashMap<(u32, u32), EdgeId>,
}

/// An in-memory dynamic weighted graph.
///
/// The graph is either undirected (the road-network default in the paper) or directed
/// (Section 5.3 discusses the directed extension). Edge weights can be updated in
/// batches via [`DynamicGraph::apply_batch`]; every batch advances the graph version,
/// which models the `Gcurr` snapshot buffer of Section 2.
///
/// Cloning is copy-on-write with respect to structure: the adjacency lists and
/// endpoint lookup live behind an `Arc` shared by every clone, and only the
/// edge-record table (the evolving weights) is copied. Structural mutation
/// ([`DynamicGraph::add_edge`]) unshares the topology on demand, so building a
/// graph is unaffected while [`DynamicGraph::with_batch`] — the epoch publish
/// primitive — costs one flat `memcpy` of the weight table instead of
/// reallocating per-vertex adjacency.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    topology: Arc<Topology>,
    edges: Vec<EdgeRecord>,
    version: u64,
}

impl DynamicGraph {
    /// Creates an empty graph with `num_vertices` vertices and no edges.
    pub fn new(num_vertices: usize, directed: bool) -> Self {
        DynamicGraph {
            topology: Arc::new(Topology {
                directed,
                adj: vec![Vec::new(); num_vertices],
                edge_lookup: HashMap::new(),
            }),
            edges: Vec::new(),
            version: 0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.topology.adj.len()
    }

    /// Number of edges. For undirected graphs each undirected edge counts once.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.topology.directed
    }

    /// Whether `self` and `other` share one structural (adjacency + lookup)
    /// allocation. Diagnostic for the copy-on-write publish path: a graph
    /// derived via [`DynamicGraph::with_batch`] must share its parent's
    /// topology, never deep-copy it.
    pub fn shares_topology_with(&self, other: &DynamicGraph) -> bool {
        Arc::ptr_eq(&self.topology, &other.topology)
    }

    /// Current version of the graph; incremented by every applied update batch.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.topology.adj.len() as u32).map(VertexId)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Iterator over all edge records.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &EdgeRecord)> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i as u32), e))
    }

    /// Returns the record of an edge.
    ///
    /// # Panics
    ///
    /// Panics if the edge id is out of range.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &EdgeRecord {
        &self.edges[e.index()]
    }

    /// Returns the edge id between `u` and `v`, if one exists.
    ///
    /// For directed graphs this looks up the edge from `u` to `v` only.
    pub fn edge_between(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        self.topology.edge_lookup.get(&self.lookup_key(u, v)).copied()
    }

    /// Out-degree of a vertex (degree for undirected graphs).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.topology.adj[v.index()].len()
    }

    /// Returns the adjacency list of `v`: pairs of (neighbour, edge id).
    #[inline]
    pub fn adjacency(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        &self.topology.adj[v.index()]
    }

    /// Validates a vertex id against this graph.
    pub fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        if v.index() >= self.num_vertices() {
            Err(GraphError::VertexOutOfRange { vertex: v, num_vertices: self.num_vertices() })
        } else {
            Ok(())
        }
    }

    /// Adds an edge with the given initial (integer) weight; the current weight starts
    /// equal to the initial weight.
    ///
    /// Returns the id of the new edge.
    pub fn add_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        initial_weight: u32,
    ) -> Result<EdgeId, GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if initial_weight == 0 {
            return Err(GraphError::ZeroInitialWeight { u, v });
        }
        let key = self.lookup_key(u, v);
        if self.topology.edge_lookup.contains_key(&key) {
            return Err(GraphError::DuplicateEdge { u, v });
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeRecord {
            u,
            v,
            initial_weight,
            current_weight: Weight::from(initial_weight),
        });
        // Structural mutation unshares the topology; during graph construction
        // the Arc is unique and this mutates in place.
        let topology = Arc::make_mut(&mut self.topology);
        topology.edge_lookup.insert(key, id);
        topology.adj[u.index()].push((v, id));
        if !topology.directed {
            topology.adj[v.index()].push((u, id));
        }
        Ok(id)
    }

    /// Sets the current weight of an edge, returning the previous weight.
    pub fn set_weight(&mut self, e: EdgeId, weight: Weight) -> Result<Weight, GraphError> {
        let record = self
            .edges
            .get_mut(e.index())
            .ok_or(GraphError::EdgeOutOfRange { edge: e, num_edges: 0 })?;
        let old = record.current_weight;
        record.current_weight = weight;
        Ok(old)
    }

    /// Applies one weight update, returning the signed delta that was applied.
    pub fn apply_update(&mut self, update: &WeightUpdate) -> Result<f64, GraphError> {
        let num_edges = self.edges.len();
        let record = self
            .edges
            .get_mut(update.edge.index())
            .ok_or(GraphError::EdgeOutOfRange { edge: update.edge, num_edges })?;
        let old = record.current_weight;
        record.current_weight = update.new_weight;
        Ok(update.new_weight.value() - old.value())
    }

    /// Applies a batch of updates and advances the graph version.
    ///
    /// Returns the new version.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<u64, GraphError> {
        for update in &batch.updates {
            self.apply_update(update)?;
        }
        self.version += 1;
        Ok(self.version)
    }

    /// Rebuilds a graph from its persisted parts: the edge records (in edge-id
    /// order, carrying both initial and current weights) and the version
    /// counter. This is the decode-side counterpart of iterating
    /// [`DynamicGraph::edges`]; `ksp-store` uses it to reconstruct the exact
    /// graph a checkpoint captured, including in-flight weight updates.
    pub fn restore(
        directed: bool,
        num_vertices: usize,
        edges: Vec<EdgeRecord>,
        version: u64,
    ) -> Result<Self, GraphError> {
        let mut graph = DynamicGraph::new(num_vertices, directed);
        for record in edges {
            let id = graph.add_edge(record.u, record.v, record.initial_weight)?;
            graph.edges[id.index()].current_weight = record.current_weight;
        }
        graph.version = version;
        Ok(graph)
    }

    /// Copy-on-write batch application: returns a new graph with `batch` applied and
    /// the version advanced, leaving `self` untouched.
    ///
    /// This is the publish primitive of the serving subsystem: the updater derives the
    /// next epoch's graph without ever mutating the one concurrent readers hold. The
    /// returned graph shares `self`'s topology allocation (see the type-level
    /// docs), so the cost is one copy of the edge-record table plus the batch.
    pub fn with_batch(&self, batch: &UpdateBatch) -> Result<DynamicGraph, GraphError> {
        let mut next = self.clone();
        next.apply_batch(batch)?;
        Ok(next)
    }

    /// Current weight of an edge.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> Weight {
        self.edges[e.index()].current_weight
    }

    /// Initial (vfrag-count) weight of an edge.
    #[inline]
    pub fn initial_weight(&self, e: EdgeId) -> u32 {
        self.edges[e.index()].initial_weight
    }

    /// Total current weight over all edges. Useful for sanity checks in tests.
    pub fn total_weight(&self) -> Weight {
        self.edges.iter().map(|e| e.current_weight).sum()
    }

    #[inline]
    fn lookup_key(&self, u: VertexId, v: VertexId) -> (u32, u32) {
        if self.topology.directed || u.0 <= v.0 {
            (u.0, v.0)
        } else {
            (v.0, u.0)
        }
    }
}

impl GraphView for DynamicGraph {
    fn num_vertices(&self) -> usize {
        self.topology.adj.len()
    }

    fn contains_vertex(&self, v: VertexId) -> bool {
        v.index() < self.topology.adj.len()
    }

    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        for &(to, e) in &self.topology.adj[v.index()] {
            f(to, self.edges[e.index()].current_weight);
        }
    }

    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.edge_between(u, v).map(|e| self.edges[e.index()].current_weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> DynamicGraph {
        let mut g = DynamicGraph::new(3, false);
        g.add_edge(VertexId(0), VertexId(1), 2).unwrap();
        g.add_edge(VertexId(1), VertexId(2), 3).unwrap();
        g.add_edge(VertexId(0), VertexId(2), 7).unwrap();
        g
    }

    #[test]
    fn add_edge_populates_adjacency_both_ways_when_undirected() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(VertexId(0)), 2);
        assert_eq!(g.degree(VertexId(1)), 2);
        assert_eq!(g.degree(VertexId(2)), 2);
    }

    #[test]
    fn directed_graph_only_adds_out_adjacency() {
        let mut g = DynamicGraph::new(3, true);
        g.add_edge(VertexId(0), VertexId(1), 1).unwrap();
        assert_eq!(g.degree(VertexId(0)), 1);
        assert_eq!(g.degree(VertexId(1)), 0);
        assert!(g.edge_between(VertexId(0), VertexId(1)).is_some());
        assert!(g.edge_between(VertexId(1), VertexId(0)).is_none());
    }

    #[test]
    fn directed_graph_allows_both_directions_as_distinct_edges() {
        let mut g = DynamicGraph::new(2, true);
        let e0 = g.add_edge(VertexId(0), VertexId(1), 5).unwrap();
        let e1 = g.add_edge(VertexId(1), VertexId(0), 9).unwrap();
        assert_ne!(e0, e1);
        assert_eq!(g.edge_weight(VertexId(0), VertexId(1)), Some(Weight::new(5.0)));
        assert_eq!(g.edge_weight(VertexId(1), VertexId(0)), Some(Weight::new(9.0)));
    }

    #[test]
    fn duplicate_edges_are_rejected() {
        let mut g = DynamicGraph::new(3, false);
        g.add_edge(VertexId(0), VertexId(1), 1).unwrap();
        let err = g.add_edge(VertexId(1), VertexId(0), 2).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge { u: VertexId(1), v: VertexId(0) });
    }

    #[test]
    fn self_loops_are_rejected() {
        let mut g = DynamicGraph::new(2, false);
        let err = g.add_edge(VertexId(1), VertexId(1), 1).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { vertex: VertexId(1) });
    }

    #[test]
    fn zero_initial_weight_is_rejected() {
        let mut g = DynamicGraph::new(2, false);
        let err = g.add_edge(VertexId(0), VertexId(1), 0).unwrap_err();
        assert!(matches!(err, GraphError::ZeroInitialWeight { .. }));
    }

    #[test]
    fn out_of_range_vertices_are_rejected() {
        let mut g = DynamicGraph::new(2, false);
        let err = g.add_edge(VertexId(0), VertexId(5), 1).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { .. }));
    }

    #[test]
    fn weight_updates_change_current_but_not_initial_weight() {
        let mut g = triangle();
        let e = g.edge_between(VertexId(0), VertexId(1)).unwrap();
        let update = WeightUpdate { edge: e, new_weight: Weight::new(10.0) };
        let delta = g.apply_update(&update).unwrap();
        assert_eq!(delta, 8.0);
        assert_eq!(g.weight(e), Weight::new(10.0));
        assert_eq!(g.initial_weight(e), 2);
    }

    #[test]
    fn apply_batch_advances_version() {
        let mut g = triangle();
        assert_eq!(g.version(), 0);
        let e = g.edge_between(VertexId(1), VertexId(2)).unwrap();
        let batch = UpdateBatch::new(vec![WeightUpdate { edge: e, new_weight: Weight::new(1.0) }]);
        let v = g.apply_batch(&batch).unwrap();
        assert_eq!(v, 1);
        assert_eq!(g.version(), 1);
        assert_eq!(g.weight(e), Weight::new(1.0));
    }

    #[test]
    fn unit_weight_reflects_current_over_initial() {
        let mut g = triangle();
        let e = g.edge_between(VertexId(0), VertexId(2)).unwrap();
        assert_eq!(g.edge(e).unit_weight(), Weight::new(1.0));
        g.set_weight(e, Weight::new(3.5)).unwrap();
        assert_eq!(g.edge(e).unit_weight(), Weight::new(0.5));
    }

    #[test]
    fn graph_view_neighbors_report_current_weights() {
        let mut g = triangle();
        let e = g.edge_between(VertexId(0), VertexId(1)).unwrap();
        g.set_weight(e, Weight::new(9.0)).unwrap();
        let mut seen = Vec::new();
        g.for_each_neighbor(VertexId(0), |to, w| seen.push((to, w)));
        seen.sort();
        assert_eq!(seen, vec![(VertexId(1), Weight::new(9.0)), (VertexId(2), Weight::new(7.0))]);
    }

    #[test]
    fn other_endpoint_returns_the_opposite_vertex() {
        let g = triangle();
        let e = g.edge(g.edge_between(VertexId(0), VertexId(1)).unwrap());
        assert_eq!(e.other_endpoint(VertexId(0)), VertexId(1));
        assert_eq!(e.other_endpoint(VertexId(1)), VertexId(0));
    }

    #[test]
    fn total_weight_sums_current_weights() {
        let g = triangle();
        assert_eq!(g.total_weight(), Weight::new(12.0));
    }

    #[test]
    fn with_batch_shares_topology_with_the_parent() {
        let g = triangle();
        let e = g.edge_between(VertexId(0), VertexId(1)).unwrap();
        let batch = UpdateBatch::new(vec![WeightUpdate::new(e, Weight::new(4.0))]);
        let next = g.with_batch(&batch).unwrap();
        assert!(next.shares_topology_with(&g), "weight updates must not copy structure");
        assert_eq!(next.weight(e), Weight::new(4.0));
        assert_eq!(g.weight(e), Weight::new(2.0), "the parent graph is untouched");

        // Structural mutation unshares on demand: adding an edge to a clone
        // leaves the original's adjacency untouched.
        let mut grown = next.clone();
        assert!(grown.shares_topology_with(&next));
        grown.add_edge(VertexId(1), VertexId(2), 1).unwrap_err(); // duplicate: no unshare
        assert!(grown.shares_topology_with(&next));
        let mut wider = DynamicGraph::new(4, false);
        wider.add_edge(VertexId(0), VertexId(1), 1).unwrap();
        let shared = wider.clone();
        assert!(shared.shares_topology_with(&wider));
        let mut mutated = shared.clone();
        mutated.add_edge(VertexId(2), VertexId(3), 1).unwrap();
        assert!(!mutated.shares_topology_with(&wider), "add_edge must unshare");
        assert_eq!(wider.num_edges(), 1);
        assert_eq!(wider.degree(VertexId(2)), 0, "the shared parent is untouched");
    }
}
