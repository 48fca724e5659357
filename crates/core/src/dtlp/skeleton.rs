//! The skeleton graph `Gλ` (Section 3.6) and the query-time overlay view (Section 5.3).
//!
//! The skeleton graph contains every boundary vertex of every subgraph; a pair of
//! boundary vertices that co-occur in at least one subgraph is connected by an edge
//! whose weight is the *minimum lower bound distance* over those subgraphs. Because
//! each subgraph contributes its own lower bound, the skeleton keeps the per-subgraph
//! contributions and recomputes the minimum whenever one of them changes.
//!
//! Queries whose endpoints are not boundary vertices are handled with an
//! [`OverlayView`]: the endpoints are attached to `Gλ` with temporary edges to the
//! boundary vertices of their home subgraphs, without mutating the shared skeleton.

use ksp_graph::{GraphView, SubgraphId, VertexId, Weight};
use std::collections::HashMap;

/// One edge of the skeleton graph, with per-subgraph lower-bound contributions.
#[derive(Debug, Clone)]
pub struct SkeletonEdge {
    /// First endpoint (source for directed skeletons).
    pub a: VertexId,
    /// Second endpoint (destination for directed skeletons).
    pub b: VertexId,
    /// Lower bound distance contributed by each subgraph containing both endpoints.
    contributions: Vec<(SubgraphId, Weight)>,
    /// Cached minimum over the contributions (the paper's `MBD(a, b)`).
    weight: Weight,
}

impl SkeletonEdge {
    /// The current weight (minimum lower bound distance) of this edge.
    pub fn weight(&self) -> Weight {
        self.weight
    }

    /// The per-subgraph contributions.
    pub fn contributions(&self) -> &[(SubgraphId, Weight)] {
        &self.contributions
    }

    fn set_contribution(&mut self, sg: SubgraphId, w: Weight) -> bool {
        match self.contributions.iter_mut().find(|(s, _)| *s == sg) {
            Some(entry) => entry.1 = w,
            None => self.contributions.push((sg, w)),
        }
        let new_weight =
            self.contributions.iter().map(|&(_, w)| w).min().unwrap_or(Weight::INFINITY);
        let changed = !new_weight.approx_eq(self.weight);
        self.weight = new_weight;
        changed
    }
}

/// Adjacency lists over a sparse set of vertex ids: an id → position map and one list
/// per position, each in insertion order. Lookups are two array reads; ids beyond the
/// map, and ids never inserted, have no list.
#[derive(Debug, Clone)]
struct Adjacency<T> {
    /// By vertex id: the vertex's position in `lists`, or [`Adjacency::ABSENT`].
    position: Vec<u32>,
    lists: Vec<Vec<(VertexId, T)>>,
}

impl<T> Adjacency<T> {
    const ABSENT: u32 = u32::MAX;

    fn new() -> Self {
        Adjacency { position: Vec::new(), lists: Vec::new() }
    }

    /// Number of vertices with a list.
    fn len(&self) -> usize {
        self.lists.len()
    }

    /// One more than the largest id inserted (0 if none).
    fn id_bound(&self) -> usize {
        self.position.len()
    }

    fn contains(&self, v: VertexId) -> bool {
        self.position.get(v.index()).is_some_and(|&p| p != Self::ABSENT)
    }

    fn list(&self, v: VertexId) -> &[(VertexId, T)] {
        match self.position.get(v.index()) {
            Some(&p) if p != Self::ABSENT => &self.lists[p as usize],
            _ => &[],
        }
    }

    /// The list of `v`, inserting `v` with an empty list if it has none.
    fn list_mut(&mut self, v: VertexId) -> &mut Vec<(VertexId, T)> {
        if v.index() >= self.position.len() {
            self.position.resize(v.index() + 1, Self::ABSENT);
        }
        if self.position[v.index()] == Self::ABSENT {
            self.position[v.index()] = self.lists.len() as u32;
            self.lists.push(Vec::new());
        }
        &mut self.lists[self.position[v.index()] as usize]
    }

    fn num_entries(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// The ids with a list, ascending.
    fn ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.position.len() as u32).map(VertexId).filter(|&v| self.contains(v))
    }
}

/// The skeleton graph `Gλ`.
#[derive(Debug, Clone)]
pub struct SkeletonGraph {
    directed: bool,
    edges: Vec<SkeletonEdge>,
    edge_lookup: HashMap<(VertexId, VertexId), u32>,
    /// Outgoing edges as (neighbour, index into `edges`).
    adj: Adjacency<u32>,
}

impl SkeletonGraph {
    /// Creates an empty skeleton graph.
    pub fn new(directed: bool) -> Self {
        SkeletonGraph {
            directed,
            edges: Vec::new(),
            edge_lookup: HashMap::new(),
            adj: Adjacency::new(),
        }
    }

    /// Whether the skeleton is directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Number of (boundary) vertices in the skeleton.
    pub fn num_skeleton_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges in the skeleton.
    pub fn num_skeleton_edges(&self) -> usize {
        self.edges.len()
    }

    /// Whether the skeleton contains the vertex.
    pub fn contains(&self, v: VertexId) -> bool {
        self.adj.contains(v)
    }

    /// All skeleton vertices, ascending.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.adj.ids()
    }

    /// Iterates over all skeleton edges.
    pub fn edges(&self) -> impl Iterator<Item = &SkeletonEdge> {
        self.edges.iter()
    }

    /// Records (or updates) the lower bound distance contributed by subgraph `sg` for
    /// the boundary pair `(a, b)`. Returns `true` if the edge's effective weight (the
    /// minimum over contributions) changed.
    pub fn set_contribution(
        &mut self,
        a: VertexId,
        b: VertexId,
        sg: SubgraphId,
        lbd: Weight,
    ) -> bool {
        let key = self.key(a, b);
        match self.edge_lookup.get(&key) {
            Some(&idx) => self.edges[idx as usize].set_contribution(sg, lbd),
            None => {
                let idx = self.edges.len() as u32;
                self.edges.push(SkeletonEdge {
                    a: key.0,
                    b: key.1,
                    contributions: vec![(sg, lbd)],
                    weight: lbd,
                });
                self.edge_lookup.insert(key, idx);
                self.adj.list_mut(key.0).push((key.1, idx));
                let back = self.adj.list_mut(key.1);
                if !self.directed {
                    back.push((key.0, idx));
                }
                true
            }
        }
    }

    /// The current weight of the skeleton edge between `a` and `b`, if present.
    pub fn skeleton_edge_weight(&self, a: VertexId, b: VertexId) -> Option<Weight> {
        let key = self.key(a, b);
        self.edge_lookup.get(&key).map(|&i| self.edges[i as usize].weight())
    }

    /// Estimated memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.edges.len() * std::mem::size_of::<SkeletonEdge>()
            + self
                .edges
                .iter()
                .map(|e| e.contributions.len() * std::mem::size_of::<(SubgraphId, Weight)>())
                .sum::<usize>()
            + self.edge_lookup.len() * (std::mem::size_of::<(VertexId, VertexId)>() + 4)
            + self.adj.num_entries() * std::mem::size_of::<(VertexId, u32)>()
            + self.adj.id_bound() * std::mem::size_of::<u32>()
    }

    /// Builds an overlay view that adds temporary vertices/edges (query endpoints that
    /// are not boundary vertices) on top of this skeleton.
    pub fn overlay(&self) -> OverlayView<'_> {
        OverlayView { skeleton: self, extra: Adjacency::new() }
    }

    #[inline]
    fn key(&self, a: VertexId, b: VertexId) -> (VertexId, VertexId) {
        if self.directed || a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

impl GraphView for SkeletonGraph {
    fn num_vertices(&self) -> usize {
        self.adj.id_bound()
    }

    fn contains_vertex(&self, v: VertexId) -> bool {
        self.adj.contains(v)
    }

    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        for &(to, idx) in self.adj.list(v) {
            f(to, self.edges[idx as usize].weight());
        }
    }

    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        if self.directed {
            let key = (u, v);
            return self.edge_lookup.get(&key).map(|&i| self.edges[i as usize].weight());
        }
        self.skeleton_edge_weight(u, v)
    }
}

/// A read-only view of the skeleton graph plus query-local extra edges.
///
/// The extra edges attach a non-boundary source/destination to the boundary vertices of
/// its home subgraph(s) with lower-bound weights (Section 5.3). The underlying skeleton
/// is not mutated, so concurrent queries can each hold their own overlay.
#[derive(Debug, Clone)]
pub struct OverlayView<'a> {
    skeleton: &'a SkeletonGraph,
    /// Extra adjacency: vertex → (neighbour, weight). Entries are directional; the
    /// caller adds both directions for undirected graphs.
    extra: Adjacency<Weight>,
}

impl OverlayView<'_> {
    /// Adds a one-directional overlay edge from `u` to `v` with the given weight.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        self.extra.list_mut(u).push((v, w));
        self.extra.list_mut(v);
    }

    /// Adds overlay edges in both directions between `u` and `v`.
    pub fn add_undirected_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        self.add_edge(u, v, w);
        self.add_edge(v, u, w);
    }

    /// Number of extra (overlay) directed edge entries.
    pub fn num_overlay_edges(&self) -> usize {
        self.extra.num_entries()
    }
}

impl GraphView for OverlayView<'_> {
    fn num_vertices(&self) -> usize {
        self.skeleton.num_vertices().max(self.extra.id_bound())
    }

    fn contains_vertex(&self, v: VertexId) -> bool {
        self.skeleton.contains_vertex(v) || self.extra.contains(v)
    }

    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        self.skeleton.for_each_neighbor(v, &mut f);
        for &(to, w) in self.extra.list(v) {
            f(to, w);
        }
    }

    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let base = self.skeleton.edge_weight(u, v);
        let extra = self.extra.list(u).iter().find(|&&(to, _)| to == v).map(|&(_, w)| w);
        match (base, extra) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_algo::dijkstra_path;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn sample_skeleton() -> SkeletonGraph {
        let mut sk = SkeletonGraph::new(false);
        sk.set_contribution(v(1), v(2), SubgraphId(0), Weight::new(5.0));
        sk.set_contribution(v(2), v(3), SubgraphId(1), Weight::new(4.0));
        sk.set_contribution(v(1), v(3), SubgraphId(2), Weight::new(20.0));
        sk
    }

    #[test]
    fn contributions_take_the_minimum() {
        let mut sk = sample_skeleton();
        assert_eq!(sk.skeleton_edge_weight(v(1), v(2)), Some(Weight::new(5.0)));
        // A second subgraph contributes a smaller bound: the weight drops.
        assert!(sk.set_contribution(v(2), v(1), SubgraphId(5), Weight::new(3.0)));
        assert_eq!(sk.skeleton_edge_weight(v(1), v(2)), Some(Weight::new(3.0)));
        // Raising the non-minimal contribution does not change the weight.
        assert!(!sk.set_contribution(v(1), v(2), SubgraphId(0), Weight::new(100.0)));
        assert_eq!(sk.skeleton_edge_weight(v(1), v(2)), Some(Weight::new(3.0)));
        // Raising the minimal contribution re-evaluates the minimum.
        assert!(sk.set_contribution(v(1), v(2), SubgraphId(5), Weight::new(50.0)));
        assert_eq!(sk.skeleton_edge_weight(v(1), v(2)), Some(Weight::new(50.0)));
    }

    #[test]
    fn undirected_skeleton_is_symmetric() {
        let sk = sample_skeleton();
        assert_eq!(sk.edge_weight(v(2), v(1)), sk.edge_weight(v(1), v(2)));
        let n1 = sk.neighbors(v(1));
        assert_eq!(n1.len(), 2);
        assert_eq!(sk.num_skeleton_vertices(), 3);
        assert_eq!(sk.num_skeleton_edges(), 3);
    }

    #[test]
    fn directed_skeleton_keeps_directions_apart() {
        let mut sk = SkeletonGraph::new(true);
        sk.set_contribution(v(1), v(2), SubgraphId(0), Weight::new(5.0));
        sk.set_contribution(v(2), v(1), SubgraphId(0), Weight::new(8.0));
        assert_eq!(sk.edge_weight(v(1), v(2)), Some(Weight::new(5.0)));
        assert_eq!(sk.edge_weight(v(2), v(1)), Some(Weight::new(8.0)));
        assert_eq!(sk.neighbors(v(1)).len(), 1);
        assert_eq!(sk.num_skeleton_edges(), 2);
    }

    #[test]
    fn shortest_paths_run_over_the_skeleton() {
        let sk = sample_skeleton();
        let p = dijkstra_path(&sk, v(1), v(3)).unwrap();
        assert_eq!(p.distance(), Weight::new(9.0));
        assert_eq!(p.vertices(), &[v(1), v(2), v(3)]);
    }

    #[test]
    fn overlay_attaches_temporary_endpoints() {
        let sk = sample_skeleton();
        let mut overlay = sk.overlay();
        // Vertex 50 is a non-boundary source attached to boundary vertices 1 and 2.
        overlay.add_undirected_edge(v(50), v(1), Weight::new(1.0));
        overlay.add_undirected_edge(v(50), v(2), Weight::new(7.0));
        assert!(overlay.contains_vertex(v(50)));
        assert_eq!(overlay.num_overlay_edges(), 4);
        let p = dijkstra_path(&overlay, v(50), v(3)).unwrap();
        // 50 -> 1 -> 2 -> 3 = 1 + 5 + 4 = 10, vs 50 -> 2 -> 3 = 7 + 4 = 11.
        assert_eq!(p.distance(), Weight::new(10.0));
        // The underlying skeleton is untouched.
        assert!(!sk.contains(v(50)));
    }

    #[test]
    fn one_arena_serves_a_high_id_graph_then_the_skeleton() {
        // A query's arena first searches a subgraph whose ids sit high, then the
        // skeleton overlay over low ids; the overlay answer must match a fresh arena.
        let mut b = ksp_graph::GraphBuilder::undirected(100);
        b.edge(90, 91, 1).edge(91, 92, 1).edge(90, 92, 5);
        let high = b.build().unwrap();
        let sk = sample_skeleton();
        let mut overlay = sk.overlay();
        overlay.add_undirected_edge(v(50), v(1), Weight::new(1.0));
        let mut arena = ksp_algo::SearchArena::new();
        let p = arena.shortest_path(&high, v(90), v(92), &[], &[]).unwrap();
        assert_eq!(p.distance(), Weight::new(2.0));
        let shared = arena.shortest_path(&overlay, v(50), v(3), &[v(2)], &[]);
        assert_eq!(
            shared,
            ksp_algo::SearchArena::new().shortest_path(&overlay, v(50), v(3), &[v(2)], &[])
        );
        assert_eq!(shared.unwrap().vertices(), &[v(50), v(1), v(3)]);
        assert_eq!(sk.vertices().collect::<Vec<_>>(), vec![v(1), v(2), v(3)]);
    }

    #[test]
    fn overlay_edge_weight_prefers_the_smaller_of_base_and_extra() {
        let sk = sample_skeleton();
        let mut overlay = sk.overlay();
        overlay.add_undirected_edge(v(1), v(2), Weight::new(1.5));
        assert_eq!(overlay.edge_weight(v(1), v(2)), Some(Weight::new(1.5)));
        assert_eq!(overlay.edge_weight(v(2), v(3)), Some(Weight::new(4.0)));
    }

    #[test]
    fn memory_estimate_is_positive() {
        let sk = sample_skeleton();
        assert!(sk.memory_bytes() > 0);
    }
}
