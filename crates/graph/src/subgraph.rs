//! Subgraphs produced by the partitioner (Definition 2 / Section 3.3).
//!
//! A subgraph owns a subset of the edges of the full graph (every edge of `G` belongs
//! to exactly one subgraph) together with all vertices incident to those edges.
//! Vertices that occur in more than one subgraph are *boundary vertices*; they are the
//! only places where a path can move from one subgraph to another.
//!
//! In the distributed deployment each subgraph lives on one worker and receives the
//! weight updates for its own edges, so a [`Subgraph`] stores its own copy of the
//! current weights rather than referencing the master copy of the graph. Its
//! structure is shared: see [`Subgraph::shares_shape_with`].

use crate::error::GraphError;
use crate::ids::{EdgeId, SubgraphId, VertexId};
use crate::update::WeightUpdate;
use crate::view::GraphView;
use crate::weight::Weight;
use std::collections::HashMap;
use std::sync::Arc;

/// An edge owned by a subgraph, carrying its own copy of the evolving weight.
#[derive(Debug, Clone, PartialEq)]
pub struct SubgraphEdge {
    /// Id of this edge in the full graph.
    pub global_id: EdgeId,
    /// First endpoint (tail for directed graphs), in global vertex ids.
    pub u: VertexId,
    /// Second endpoint (head for directed graphs), in global vertex ids.
    pub v: VertexId,
    /// Initial weight = number of virtual fragments. Never changes.
    pub initial_weight: u32,
    /// Current weight; updated when the owning worker receives a weight update.
    pub current_weight: Weight,
}

impl SubgraphEdge {
    /// Unit weight of the edge (current weight divided by vfrag count).
    #[inline]
    pub fn unit_weight(&self) -> Weight {
        self.current_weight / self.initial_weight as f64
    }
}

/// One partition of the graph: at most `z` vertices, a disjoint set of edges.
///
/// Structure and weights are held apart. Everything fixed at partitioning — the
/// vertex set, the adjacency, the edge lookup and the boundary — sits in a shared
/// `SubgraphShape`; only the edge records, whose current weights the owning
/// worker updates, belong to the value. Cloning a subgraph (as an epoch's
/// copy-on-write fork of a dirty subgraph does) therefore copies the edge records
/// and bumps one reference count ([`Subgraph::shares_shape_with`]).
#[derive(Debug, Clone)]
pub struct Subgraph {
    shape: Arc<SubgraphShape>,
    /// Edges owned by this subgraph, in construction order.
    edges: Vec<SubgraphEdge>,
}

/// The part of a [`Subgraph`] that never changes after construction.
#[derive(Debug)]
struct SubgraphShape {
    id: SubgraphId,
    directed: bool,
    /// Sorted list of the (global) vertices of this subgraph; a vertex's position
    /// here is its local index.
    vertices: Vec<VertexId>,
    /// Local vertex `i`'s adjacency is `adj[adj_start[i]..adj_start[i + 1]]`.
    adj_start: Vec<u32>,
    /// Adjacency entries (global neighbour id, local edge index), each vertex's in
    /// edge order.
    adj: Vec<(VertexId, u32)>,
    /// Maps a global edge id to its index in the edge records.
    edge_index: HashMap<EdgeId, u32>,
    /// Boundary vertices of this subgraph (a sorted subset of `vertices`).
    boundary: Vec<VertexId>,
}

impl SubgraphShape {
    #[inline]
    fn local_index(&self, v: VertexId) -> Option<usize> {
        self.vertices.binary_search(&v).ok()
    }

    /// The adjacency entries of `v`, empty if `v` is not in the subgraph.
    #[inline]
    fn adjacency(&self, v: VertexId) -> &[(VertexId, u32)] {
        match self.local_index(v) {
            Some(i) => &self.adj[self.adj_start[i] as usize..self.adj_start[i + 1] as usize],
            None => &[],
        }
    }
}

impl Subgraph {
    /// Creates a subgraph from its vertex set and owned edges, with no boundary.
    ///
    /// The vertex set must contain every endpoint of every edge; this is checked.
    pub fn new(
        id: SubgraphId,
        directed: bool,
        vertices: Vec<VertexId>,
        edges: Vec<SubgraphEdge>,
    ) -> Self {
        Subgraph::restore(id, directed, vertices, edges, Vec::new())
    }

    /// Creates a subgraph with its boundary vertex list, as the partitioner
    /// assigns it. The list is filtered to vertices of this subgraph and sorted.
    /// Also the decode-side counterpart of [`Subgraph::vertices`] /
    /// [`Subgraph::edges`] / [`Subgraph::boundary_vertices`], used by `ksp-store`
    /// to reconstruct checkpointed subgraphs exactly.
    ///
    /// The vertex set must contain every endpoint of every edge; this is checked.
    pub fn restore(
        id: SubgraphId,
        directed: bool,
        mut vertices: Vec<VertexId>,
        edges: Vec<SubgraphEdge>,
        mut boundary: Vec<VertexId>,
    ) -> Self {
        vertices.sort_unstable();
        vertices.dedup();
        let local = |v: VertexId| {
            vertices
                .binary_search(&v)
                .unwrap_or_else(|_| panic!("edge endpoint {v} missing from subgraph {id}"))
        };
        // CSR by counting sort: entries are placed in edge order, so each vertex
        // lists its edges in the order they were given (search tie-breaking
        // depends on it).
        let mut adj_start = vec![0u32; vertices.len() + 1];
        for e in &edges {
            let (iu, iv) = (local(e.u), local(e.v));
            adj_start[iu + 1] += 1;
            if !directed {
                adj_start[iv + 1] += 1;
            }
        }
        for i in 1..adj_start.len() {
            adj_start[i] += adj_start[i - 1];
        }
        let mut fill = adj_start.clone();
        let mut adj = vec![(VertexId(0), 0); adj_start[vertices.len()] as usize];
        let mut edge_index = HashMap::with_capacity(edges.len());
        for (i, e) in edges.iter().enumerate() {
            let mut push = |from: VertexId, to: VertexId| {
                let slot = &mut fill[local(from)];
                adj[*slot as usize] = (to, i as u32);
                *slot += 1;
            };
            push(e.u, e.v);
            if !directed {
                push(e.v, e.u);
            }
            edge_index.insert(e.global_id, i as u32);
        }
        boundary.retain(|v| vertices.binary_search(v).is_ok());
        boundary.sort_unstable();
        boundary.dedup();
        let shape = SubgraphShape { id, directed, vertices, adj_start, adj, edge_index, boundary };
        Subgraph { shape: Arc::new(shape), edges }
    }

    /// Identifier of this subgraph.
    #[inline]
    pub fn id(&self) -> SubgraphId {
        self.shape.id
    }

    /// Whether the subgraph (and the graph it came from) is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.shape.directed
    }

    /// Whether `self` and `other` share one shape allocation. Weight updates never
    /// copy the shape, so every epoch descended from one construction shares it.
    pub fn shares_shape_with(&self, other: &Subgraph) -> bool {
        Arc::ptr_eq(&self.shape, &other.shape)
    }

    /// Number of vertices in this subgraph.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.shape.vertices.len()
    }

    /// Number of edges owned by this subgraph.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The (sorted, global) vertices of this subgraph.
    #[inline]
    pub fn vertices(&self) -> &[VertexId] {
        &self.shape.vertices
    }

    /// The edges owned by this subgraph.
    #[inline]
    pub fn edges(&self) -> &[SubgraphEdge] {
        &self.edges
    }

    /// The boundary vertices of this subgraph (vertices shared with other subgraphs).
    #[inline]
    pub fn boundary_vertices(&self) -> &[VertexId] {
        &self.shape.boundary
    }

    /// Whether `v` belongs to this subgraph.
    #[inline]
    pub fn contains_vertex(&self, v: VertexId) -> bool {
        self.shape.local_index(v).is_some()
    }

    /// Whether this subgraph owns the edge with the given global id.
    #[inline]
    pub fn owns_edge(&self, e: EdgeId) -> bool {
        self.shape.edge_index.contains_key(&e)
    }

    /// Returns the locally stored edge with the given global id, if owned.
    pub fn edge(&self, e: EdgeId) -> Option<&SubgraphEdge> {
        self.shape.edge_index.get(&e).map(|&i| &self.edges[i as usize])
    }

    /// Applies a weight update to an edge owned by this subgraph.
    ///
    /// Returns the signed weight delta. Fails with [`GraphError::NoSuchEdge`]-style
    /// error if the edge is not owned here (the caller routed the update incorrectly).
    pub fn apply_update(&mut self, update: &WeightUpdate) -> Result<f64, GraphError> {
        let idx = *self
            .shape
            .edge_index
            .get(&update.edge)
            .ok_or(GraphError::EdgeOutOfRange { edge: update.edge, num_edges: self.edges.len() })?;
        let e = &mut self.edges[idx as usize];
        let delta = update.new_weight.value() - e.current_weight.value();
        e.current_weight = update.new_weight;
        Ok(delta)
    }

    /// Iterates over the multiset of unit weights of this subgraph: for every edge,
    /// `initial_weight` copies of its unit weight. This is the multiset used to compute
    /// bound distances in DTLP (Section 3.4).
    pub fn unit_weight_multiset(&self) -> impl Iterator<Item = (Weight, u32)> + '_ {
        self.edges.iter().map(|e| (e.unit_weight(), e.initial_weight))
    }

    /// Total number of virtual fragments in this subgraph.
    pub fn total_vfrags(&self) -> u64 {
        self.edges.iter().map(|e| e.initial_weight as u64).sum()
    }

    /// Calls `f` for every edge incident to `v` (outgoing edges for directed graphs),
    /// passing the neighbour and the full edge record. This exposes the *initial*
    /// weight (vfrag count) alongside the current weight, which the DTLP bounding-path
    /// search needs (it measures paths in vfrags, not current travel time).
    pub fn for_each_incident_edge(&self, v: VertexId, mut f: impl FnMut(VertexId, &SubgraphEdge)) {
        for &(to, ei) in self.shape.adjacency(v) {
            f(to, &self.edges[ei as usize]);
        }
    }

    /// Estimated memory footprint of the subgraph structure in bytes: the shape,
    /// counted in full, plus the edge records.
    pub fn memory_bytes(&self) -> usize {
        let s = &*self.shape;
        (s.vertices.len() + s.boundary.len()) * std::mem::size_of::<VertexId>()
            + self.edges.len() * std::mem::size_of::<SubgraphEdge>()
            + s.adj.len() * std::mem::size_of::<(VertexId, u32)>()
            + s.adj_start.len() * std::mem::size_of::<u32>()
            + s.edge_index.len() * (std::mem::size_of::<EdgeId>() + 4)
    }
}

impl GraphView for Subgraph {
    fn num_vertices(&self) -> usize {
        // Scratch tables in the algorithms are indexed by *global* vertex id, so report
        // an upper bound on the global id space covered by this subgraph.
        self.shape.vertices.last().map(|v| v.index() + 1).unwrap_or(0)
    }

    fn contains_vertex(&self, v: VertexId) -> bool {
        Subgraph::contains_vertex(self, v)
    }

    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        for &(to, ei) in self.shape.adjacency(v) {
            f(to, self.edges[ei as usize].current_weight);
        }
    }

    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.shape
            .adjacency(u)
            .iter()
            .find(|&&(to, _)| to == v)
            .map(|&(_, ei)| self.edges[ei as usize].current_weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_subgraph() -> Subgraph {
        // Square 0-1-2-3 with one diagonal, all initial weights 2.
        let vs = vec![VertexId(10), VertexId(11), VertexId(12), VertexId(13)];
        let mk = |id: u32, u: u32, v: u32| SubgraphEdge {
            global_id: EdgeId(id),
            u: VertexId(u),
            v: VertexId(v),
            initial_weight: 2,
            current_weight: Weight::new(2.0),
        };
        let edges = vec![mk(0, 10, 11), mk(1, 11, 12), mk(2, 12, 13), mk(3, 13, 10), mk(4, 10, 12)];
        Subgraph::new(SubgraphId(0), false, vs, edges)
    }

    #[test]
    fn construction_builds_local_adjacency() {
        let sg = sample_subgraph();
        assert_eq!(sg.num_vertices(), 4);
        assert_eq!(sg.num_edges(), 5);
        // Each vertex lists its edges in the order they were given (10-11, 11-12,
        // 12-13, 13-10, 10-12): search tie-breaking depends on it.
        let order = |v: u32| -> Vec<u32> {
            sg.neighbors(VertexId(v)).into_iter().map(|(u, _)| u.0).collect()
        };
        assert_eq!(order(10), vec![11, 13, 12]);
        assert_eq!(order(12), vec![11, 13, 10]);
        assert!(order(99).is_empty());
    }

    #[test]
    fn contains_and_owns_queries() {
        let sg = sample_subgraph();
        assert!(sg.contains_vertex(VertexId(12)));
        assert!(!sg.contains_vertex(VertexId(99)));
        assert!(sg.owns_edge(EdgeId(4)));
        assert!(!sg.owns_edge(EdgeId(7)));
    }

    #[test]
    fn apply_update_changes_only_current_weight() {
        let base = sample_subgraph();
        let mut sg = base.clone();
        let delta = sg.apply_update(&WeightUpdate::new(EdgeId(1), Weight::new(6.0))).unwrap();
        assert_eq!(delta, 4.0);
        let e = sg.edge(EdgeId(1)).unwrap();
        assert_eq!(e.current_weight, Weight::new(6.0));
        assert_eq!(e.initial_weight, 2);
        assert_eq!(e.unit_weight(), Weight::new(3.0));
        // The clone owns its weights and shares the shape it was cloned from.
        assert_eq!(base.edge(EdgeId(1)).unwrap().current_weight, Weight::new(2.0));
        assert!(sg.shares_shape_with(&base));
        assert!(!sample_subgraph().shares_shape_with(&base));
    }

    #[test]
    fn apply_update_rejects_foreign_edges() {
        let mut sg = sample_subgraph();
        let err = sg.apply_update(&WeightUpdate::new(EdgeId(42), Weight::new(1.0))).unwrap_err();
        assert!(matches!(err, GraphError::EdgeOutOfRange { .. }));
    }

    #[test]
    fn unit_weight_multiset_counts_vfrags() {
        let sg = sample_subgraph();
        let total: u32 = sg.unit_weight_multiset().map(|(_, c)| c).sum();
        assert_eq!(total as u64, sg.total_vfrags());
        assert_eq!(total, 10); // 5 edges * 2 vfrags
        assert!(sg.unit_weight_multiset().all(|(w, _)| w == Weight::new(1.0)));
    }

    #[test]
    fn graph_view_num_vertices_covers_global_id_space() {
        let sg = sample_subgraph();
        // Max vertex id is 13, so scratch arrays must have at least 14 slots.
        assert_eq!(GraphView::num_vertices(&sg), 14);
    }

    #[test]
    fn edge_weight_lookup_through_view() {
        let sg = sample_subgraph();
        assert_eq!(sg.edge_weight(VertexId(10), VertexId(12)), Some(Weight::new(2.0)));
        assert_eq!(sg.edge_weight(VertexId(11), VertexId(13)), None);
        assert_eq!(sg.edge_weight(VertexId(99), VertexId(13)), None);
    }

    #[test]
    fn directed_subgraph_has_one_way_adjacency() {
        let vs = vec![VertexId(0), VertexId(1)];
        let e = SubgraphEdge {
            global_id: EdgeId(0),
            u: VertexId(0),
            v: VertexId(1),
            initial_weight: 1,
            current_weight: Weight::new(1.0),
        };
        let sg = Subgraph::new(SubgraphId(0), true, vs, vec![e]);
        assert_eq!(sg.neighbors(VertexId(0)).len(), 1);
        assert_eq!(sg.neighbors(VertexId(1)).len(), 0);
    }

    #[test]
    fn boundary_setter_filters_and_sorts() {
        let base = sample_subgraph();
        let sg = Subgraph::restore(
            base.id(),
            false,
            base.vertices().to_vec(),
            base.edges().to_vec(),
            vec![VertexId(13), VertexId(10), VertexId(99), VertexId(13)],
        );
        assert_eq!(sg.boundary_vertices(), &[VertexId(10), VertexId(13)]);
    }

    #[test]
    fn memory_estimate_is_positive() {
        let sg = sample_subgraph();
        assert!(sg.memory_bytes() > 0);
    }
}
