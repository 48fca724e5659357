//! Enumeration of paths by virtual-fragment count (Section 3.4).
//!
//! DTLP measures candidate bounding paths not by their (evolving) travel time but by
//! their number of *virtual fragments*: edge `e` contributes `w0(e)` vfrags, where
//! `w0(e)` is its initial weight. The vfrag count of a path never changes as traffic
//! evolves, which is precisely why bounding paths never need recomputation.
//!
//! [`VfragView`] presents a subgraph with vfrag counts as edge weights so the generic
//! KSP machinery can enumerate paths in non-decreasing vfrag order, and
//! [`fewest_vfrag_paths`] extracts the paths with the `ξ` smallest vfrag counts — the
//! bounding-path set `B_{i,j}` of the paper.

use crate::dijkstra::SearchArena;
use crate::path::Path;
use crate::yen::KspEnumerator;
use ksp_graph::{GraphView, Subgraph, VertexId, Weight};

/// A view of a subgraph whose edge weights are the vfrag counts (initial weights).
#[derive(Debug, Clone, Copy)]
pub struct VfragView<'a> {
    subgraph: &'a Subgraph,
}

impl<'a> VfragView<'a> {
    /// Wraps a subgraph.
    pub fn new(subgraph: &'a Subgraph) -> Self {
        VfragView { subgraph }
    }
}

impl GraphView for VfragView<'_> {
    fn num_vertices(&self) -> usize {
        GraphView::num_vertices(self.subgraph)
    }

    fn contains_vertex(&self, v: VertexId) -> bool {
        self.subgraph.contains_vertex(v)
    }

    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        self.subgraph.for_each_incident_edge(v, |to, e| f(to, Weight::from(e.initial_weight)));
    }

    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let mut found = None;
        self.subgraph.for_each_incident_edge(u, |to, e| {
            if to == v && found.is_none() {
                found = Some(Weight::from(e.initial_weight));
            }
        });
        found
    }
}

/// A path selected as a bounding-path candidate: its vertex sequence and vfrag count.
#[derive(Debug, Clone, PartialEq)]
pub struct VfragPath {
    /// The vertex sequence of the path (in global vertex ids).
    pub vertices: Vec<VertexId>,
    /// Total number of virtual fragments along the path (φ in the paper).
    pub vfrags: u64,
}

/// Enumerates paths between `source` and `target` inside `subgraph` in non-decreasing
/// vfrag order and returns every path with fewer vfrags than the `xi`-th smallest
/// distinct count, followed by one path with that count (the paper's `ξ`).
///
/// Keeping the ties below the last count is what makes the lower bound of
/// Theorem 1 valid: every path *not* returned has at least as many vfrags as the last
/// one returned, so its distance is at least the last path's bound distance. Dropping
/// a tie instead would leave a path that may be shorter than every returned one yet
/// has fewer vfrags than the last.
///
/// Enumeration also stops after `max_enumerated` paths have been examined, returning
/// every path examined. Truncating early is always *safe*: every path not examined
/// has a vfrag count at least as large as the largest returned count (the enumeration
/// is ordered), so the lower-bound property of the resulting bound distances is
/// preserved — the bounds merely become looser, costing extra KSP-DG iterations rather
/// than correctness.
///
/// The spur searches run on `arena`, so an index build that enumerates every boundary
/// pair of a subgraph sizes one arena for all of them.
pub fn fewest_vfrag_paths(
    subgraph: &Subgraph,
    source: VertexId,
    target: VertexId,
    xi: usize,
    max_enumerated: usize,
    arena: &mut SearchArena,
) -> Vec<VfragPath> {
    assert!(xi >= 1, "at least one bounding path per pair is required");
    let view = VfragView::new(subgraph);
    let mut enumerator = KspEnumerator::new(&view, source, target);
    let mut result: Vec<VfragPath> = Vec::with_capacity(xi);
    let mut distinct = 0;
    while distinct < xi && result.len() < max_enumerated {
        let Some(path) = enumerator.next_path_in(arena) else { break };
        let vfrags = path.distance().value().round() as u64;
        debug_assert!(result.last().is_none_or(|p| p.vfrags <= vfrags));
        if result.last().map(|p| p.vfrags) != Some(vfrags) {
            distinct += 1;
        }
        result.push(VfragPath { vertices: path.vertices().to_vec(), vfrags });
    }
    result
}

/// Computes the vfrag count of an explicit path within a subgraph. Returns `None` if
/// an edge of the path is not present in the subgraph.
pub fn vfrag_count_of(subgraph: &Subgraph, vertices: &[VertexId]) -> Option<u64> {
    let view = VfragView::new(subgraph);
    let path = Path::from_vertices(&view, vertices.to_vec())?;
    Some(path.distance().value().round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_graph::{GraphBuilder, PartitionConfig, Partitioner};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Builds the paper's subgraph SG4 (Figure 5a): vertices v13, v14, v16, v17, v18,
    /// v19 with the weights from the example. Mapped to ids 0..6:
    /// v13=0, v14=1, v16=2, v17=3, v18=4, v19=5.
    fn paper_sg4() -> Subgraph {
        let mut b = GraphBuilder::undirected(6);
        b.edge(0, 2, 5) // v13-v16, weight 5
            .edge(2, 1, 3) // v16-v14, weight 3
            .edge(0, 4, 3) // v13-v18, weight 3
            .edge(4, 3, 3) // v18-v17, weight 3 (via v19? paper: v18-v19 3, v17-v16 2, v17-v18 2)
            .edge(3, 2, 2) // v17-v16, weight 2
            .edge(4, 5, 3) // v18-v19, weight 3
            .edge(3, 4, 2); // duplicate guard (v17-v18 2) -- first entry wins
        let g = b.build().unwrap();
        // Single subgraph covering everything.
        let sg = Partitioner::new(PartitionConfig::with_max_vertices(100))
            .partition(&g)
            .unwrap()
            .into_subgraphs()
            .remove(0);
        std::sync::Arc::try_unwrap(sg).expect("sole handle")
    }

    #[test]
    fn vfrag_view_reports_initial_weights() {
        let sg = paper_sg4();
        let view = VfragView::new(&sg);
        assert_eq!(view.edge_weight(v(0), v(2)), Some(Weight::new(5.0)));
        assert_eq!(view.edge_weight(v(3), v(2)), Some(Weight::new(2.0)));
        assert!(view.contains_vertex(v(5)));
    }

    #[test]
    fn paper_example_bounding_paths_between_v13_and_v14() {
        // Example 3 of the paper: with ξ = 2, the bounding paths between v13 and v14
        // are ⟨v13,v16,v14⟩ (8 vfrags) and ⟨v13,v18,v17,v16,v14⟩ (11 vfrags).
        let sg = paper_sg4();
        let paths = fewest_vfrag_paths(&sg, v(0), v(1), 2, 64, &mut SearchArena::new());
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].vertices, vec![v(0), v(2), v(1)]);
        assert_eq!(paths[0].vfrags, 8);
        assert_eq!(paths[1].vertices, vec![v(0), v(4), v(3), v(2), v(1)]);
        assert_eq!(paths[1].vfrags, 11);
    }

    #[test]
    fn xi_one_returns_only_the_fewest_vfrag_path() {
        let sg = paper_sg4();
        let paths = fewest_vfrag_paths(&sg, v(0), v(1), 1, 64, &mut SearchArena::new());
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].vfrags, 8);
    }

    #[test]
    fn ties_below_the_last_count_are_kept_and_counts_never_decrease() {
        // A 2x3 grid with unit initial weights: three 3-vfrag routes from 0 to 5 and
        // one 5-vfrag route. With ξ = 2 every 3-vfrag route is kept (any one left out
        // could turn out shorter than all kept ones) and one 5-vfrag route closes the
        // set; with ξ = 1 the first route is the last count and stands alone.
        let mut b = GraphBuilder::undirected(6);
        b.edge(0, 1, 1).edge(1, 2, 1).edge(3, 4, 1).edge(4, 5, 1);
        b.edge(0, 3, 1).edge(1, 4, 1).edge(2, 5, 1);
        let g = b.build().unwrap();
        let sg = Partitioner::new(PartitionConfig::with_max_vertices(100))
            .partition(&g)
            .unwrap()
            .into_subgraphs()
            .remove(0);
        let counts = |xi| -> Vec<u64> {
            fewest_vfrag_paths(&sg, v(0), v(5), xi, 128, &mut SearchArena::new())
                .iter()
                .map(|p| p.vfrags)
                .collect()
        };
        assert_eq!(counts(2), vec![3, 3, 3, 5]);
        assert_eq!(counts(1), vec![3]);
    }

    #[test]
    fn truncation_by_max_enumerated_is_safe_and_bounded() {
        let sg = paper_sg4();
        let truncated = fewest_vfrag_paths(&sg, v(0), v(1), 5, 1, &mut SearchArena::new());
        assert_eq!(truncated.len(), 1);
        assert_eq!(truncated[0].vfrags, 8);
    }

    #[test]
    fn disconnected_pair_yields_no_paths() {
        let mut b = GraphBuilder::undirected(4);
        b.edge(0, 1, 2).edge(2, 3, 2);
        let g = b.build().unwrap();
        let sg = Partitioner::new(PartitionConfig::with_max_vertices(100))
            .partition(&g)
            .unwrap()
            .into_subgraphs()
            .remove(0);
        assert!(fewest_vfrag_paths(&sg, v(0), v(3), 3, 32, &mut SearchArena::new()).is_empty());
    }

    #[test]
    fn vfrag_count_of_matches_enumeration() {
        let sg = paper_sg4();
        assert_eq!(vfrag_count_of(&sg, &[v(0), v(2), v(1)]), Some(8));
        assert_eq!(vfrag_count_of(&sg, &[v(0), v(1)]), None);
    }
}
