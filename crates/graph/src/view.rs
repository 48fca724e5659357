//! The read-only [`GraphView`] abstraction used by all path algorithms.

use crate::ids::VertexId;
use crate::weight::Weight;

/// A read-only view of a weighted graph.
///
/// The trait is implemented by [`crate::DynamicGraph`], [`crate::Subgraph`]
/// and (in `ksp-core`) the skeleton graph, so the algorithms in `ksp-algo` are
/// written once and reused everywhere.
///
/// Vertex ids are *global*: a subgraph reports the ids its vertices carry in the full
/// graph, not local indices. Views over a sparse vertex set simply return no neighbours
/// for ids they do not contain.
pub trait GraphView {
    /// An upper bound (usually exact) on the number of vertices reachable through this
    /// view. It is used to size per-vertex scratch tables in the algorithms, so it must
    /// be at least `max(vertex id) + 1` over all vertices the view can return.
    fn num_vertices(&self) -> usize;

    /// Whether the view contains the vertex.
    fn contains_vertex(&self, v: VertexId) -> bool;

    /// Calls `f` once per outgoing neighbour of `v` with the current edge weight.
    fn for_each_neighbor(&self, v: VertexId, f: impl FnMut(VertexId, Weight))
    where
        Self: Sized;

    /// Current weight of the edge from `u` to `v`, if the view contains it.
    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight>;

    /// Collects the neighbours of `v` into a vector. Convenience for tests and
    /// non-hot-path callers.
    fn neighbors(&self, v: VertexId) -> Vec<(VertexId, Weight)>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        self.for_each_neighbor(v, |to, w| out.push((to, w)));
        out
    }
}

/// Blanket implementation so `Arc<G>` handles (as shared between the serving
/// subsystem's epoch snapshots and worker threads) can be passed wherever a
/// view is expected.
impl<G: GraphView> GraphView for std::sync::Arc<G> {
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    fn contains_vertex(&self, v: VertexId) -> bool {
        (**self).contains_vertex(v)
    }

    fn for_each_neighbor(&self, v: VertexId, f: impl FnMut(VertexId, Weight)) {
        (**self).for_each_neighbor(v, f)
    }

    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        (**self).edge_weight(u, v)
    }
}

/// Blanket implementation so `&G` can be passed wherever a view is expected.
impl<G: GraphView> GraphView for &G {
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    fn contains_vertex(&self, v: VertexId) -> bool {
        (**self).contains_vertex(v)
    }

    fn for_each_neighbor(&self, v: VertexId, f: impl FnMut(VertexId, Weight)) {
        (**self).for_each_neighbor(v, f)
    }

    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        (**self).edge_weight(u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DynamicGraph;

    #[test]
    fn neighbors_convenience_collects_all_edges() {
        let mut g = DynamicGraph::new(3, false);
        g.add_edge(VertexId(0), VertexId(1), 4).unwrap();
        g.add_edge(VertexId(0), VertexId(2), 6).unwrap();
        let mut n = g.neighbors(VertexId(0));
        n.sort();
        assert_eq!(n, vec![(VertexId(1), Weight::new(4.0)), (VertexId(2), Weight::new(6.0))]);
    }

    #[test]
    fn reference_to_view_is_a_view() {
        fn count_neighbors<G: GraphView>(g: G, v: VertexId) -> usize {
            let mut c = 0;
            g.for_each_neighbor(v, |_, _| c += 1);
            c
        }
        let mut g = DynamicGraph::new(3, false);
        g.add_edge(VertexId(0), VertexId(1), 1).unwrap();
        assert_eq!(count_neighbors(&g, VertexId(0)), 1);
        // A double reference and an Arc are views too (the blanket impls).
        let byref: &&DynamicGraph = &&g;
        assert_eq!(count_neighbors(byref, VertexId(1)), 1);
        let shared = std::sync::Arc::new(g);
        assert_eq!(count_neighbors(shared.clone(), VertexId(0)), 1);
        assert_eq!(count_neighbors(&shared, VertexId(1)), 1);
    }
}
