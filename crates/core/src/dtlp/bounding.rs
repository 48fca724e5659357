//! Bounding paths, lower bounding paths and lower bound distances (Sections 3.4–3.5).

use crate::dtlp::unit_weights::UnitWeightMultiset;
use ksp_graph::{VertexId, Weight};

/// One bounding path between a pair of boundary vertices in a subgraph.
///
/// The *structure* of a bounding path (its vertex sequence and vfrag count) never
/// changes as edge weights evolve; only `current_distance` is maintained, via the
/// EP-Index / MFP-tree backend, as weight updates arrive.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundingPath {
    /// The vertex sequence of the path, in global vertex ids.
    pub vertices: Vec<VertexId>,
    /// Total number of virtual fragments along the path (φ); immutable.
    pub vfrags: u64,
    /// The path's actual distance at the current weights.
    pub current_distance: Weight,
}

impl BoundingPath {
    /// Creates a bounding path.
    pub fn new(vertices: Vec<VertexId>, vfrags: u64, current_distance: Weight) -> Self {
        debug_assert!(vertices.len() >= 2, "a bounding path joins two distinct vertices");
        BoundingPath { vertices, vfrags, current_distance }
    }

    /// Number of edges on the path.
    pub fn num_edges(&self) -> usize {
        self.vertices.len() - 1
    }

    /// The bound distance of this path given the subgraph's unit-weight multiset: the
    /// sum of the `vfrags` smallest unit weights (Section 3.4).
    pub fn bound_distance(&self, multiset: &UnitWeightMultiset) -> Weight {
        multiset.bound_distance(self.vfrags)
    }

    /// Estimated memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.vertices.len() * std::mem::size_of::<VertexId>() + 24
    }
}

/// The set of bounding paths between one pair of boundary vertices in one subgraph,
/// ordered by non-decreasing vfrag count (equivalently bound distance): every path with
/// fewer vfrags than the last one, and the last (see [`ksp_algo::fewest_vfrag_paths`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundingPathSet {
    /// First endpoint (source for directed subgraphs).
    pub a: VertexId,
    /// Second endpoint (destination for directed subgraphs).
    pub b: VertexId,
    /// The bounding paths, by non-decreasing vfrag count; ξ distinct counts at most.
    pub paths: Vec<BoundingPath>,
}

impl BoundingPathSet {
    /// Creates the set, asserting the vfrag ordering invariant.
    pub fn new(a: VertexId, b: VertexId, paths: Vec<BoundingPath>) -> Self {
        debug_assert!(
            paths.windows(2).all(|w| w[0].vfrags <= w[1].vfrags),
            "bounding paths must have non-decreasing vfrag counts"
        );
        BoundingPathSet { a, b, paths }
    }

    /// Whether the set is empty (the pair is not connected within the subgraph).
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Number of bounding paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// The lower bound distance `LBD(a, b)` for this subgraph (Definitions 6–7,
    /// computed via Theorem 1).
    ///
    /// Writing `D_u` for the smallest *actual* distance among the bounding paths and
    /// `BD_r` for the largest *bound* distance (the last path's, since bound distance
    /// is monotone in vfrag count), Theorem 1 gives:
    ///
    /// * if `BD_r ≥ D_u` (claim 1), the path achieving `D_u` is the true shortest path
    ///   between `a` and `b` in the subgraph, so `LBD = D_u`;
    /// * otherwise (claim 2), `BD_r` is a valid lower bound, so `LBD = BD_r`.
    ///
    /// Both cases reduce to `LBD = min(D_u, BD_r)`, which is what this returns. Both
    /// claims rest on the set holding every path with fewer vfrags than the last one:
    /// a path outside it then has at least the last path's vfrags, hence a distance of
    /// at least `BD_r`. Returns [`Weight::INFINITY`] for an empty set (unconnected
    /// pair).
    pub fn lower_bound_distance(&self, multiset: &UnitWeightMultiset) -> Weight {
        if self.paths.is_empty() {
            return Weight::INFINITY;
        }
        let d_u = self.paths.iter().map(|p| p.current_distance).min().expect("non-empty path set");
        let bd_r = self.paths.last().expect("non-empty path set").bound_distance(multiset);
        d_u.min(bd_r)
    }

    /// Whether Theorem 1's claim 1 applies, i.e. the lower bound distance is exactly
    /// the shortest distance between the pair within the subgraph. Exposed so tests
    /// and diagnostics can distinguish tight from loose bounds.
    pub fn bound_is_exact(&self, multiset: &UnitWeightMultiset) -> bool {
        if self.paths.is_empty() {
            return false;
        }
        let d_u = self.paths.iter().map(|p| p.current_distance).min().unwrap();
        let bd_r = self.paths.last().unwrap().bound_distance(multiset);
        bd_r >= d_u
    }

    /// Applies a weight delta to every path in this set that traverses edge `(u, v)`
    /// (in either orientation). Returns the number of paths touched. Used by the
    /// simple (non-indexed) maintenance path and by tests; the EP-Index backend
    /// locates affected paths without scanning.
    pub fn apply_edge_delta(&mut self, u: VertexId, v: VertexId, delta: f64) -> usize {
        let mut touched = 0;
        for p in &mut self.paths {
            let on_path =
                p.vertices.windows(2).any(|w| (w[0] == u && w[1] == v) || (w[0] == v && w[1] == u));
            if on_path {
                let new = (p.current_distance.value() + delta).max(0.0);
                p.current_distance = Weight::new(new);
                touched += 1;
            }
        }
        touched
    }

    /// Estimated memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.paths.iter().map(|p| p.memory_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_graph::{GraphBuilder, PartitionConfig, Partitioner, Subgraph, WeightUpdate};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Figure 6 of the paper: vs=0, vt=7, three parallel routes.
    /// Route 1: 0-1-7 (2 edges), route 2: 0-2-3-7 (3 edges), route 3: 0-4-5-6-7 (4 edges).
    fn figure6_subgraph(weights: &[(u32, u32, u32)]) -> Subgraph {
        let mut b = GraphBuilder::undirected(8);
        for &(u, w, wt) in weights {
            b.edge(u, w, wt);
        }
        let g = b.build().unwrap();
        let sg = Partitioner::new(PartitionConfig::with_max_vertices(100))
            .partition(&g)
            .unwrap()
            .into_subgraphs()
            .remove(0);
        std::sync::Arc::try_unwrap(sg).expect("sole handle")
    }

    /// Edge list of Figure 6a (all weights 1).
    fn fig6a_edges() -> Vec<(u32, u32, u32)> {
        vec![
            (0, 1, 1),
            (1, 7, 1),
            (0, 2, 1),
            (2, 3, 1),
            (3, 7, 1),
            (0, 4, 1),
            (4, 5, 1),
            (5, 6, 1),
            (6, 7, 1),
        ]
    }

    fn fig6_bounding_paths(sg: &Subgraph) -> BoundingPathSet {
        // The three bounding paths of Example 5 (ξ = 3).
        let routes: Vec<Vec<VertexId>> = vec![
            vec![v(0), v(1), v(7)],
            vec![v(0), v(2), v(3), v(7)],
            vec![v(0), v(4), v(5), v(6), v(7)],
        ];
        let paths = routes
            .into_iter()
            .map(|r| {
                let vfrags: u64 = r
                    .windows(2)
                    .map(|w| {
                        sg.edges()
                            .iter()
                            .find(|e| (e.u == w[0] && e.v == w[1]) || (e.u == w[1] && e.v == w[0]))
                            .map(|e| e.initial_weight as u64)
                            .unwrap()
                    })
                    .sum();
                let dist: f64 = r
                    .windows(2)
                    .map(|w| {
                        sg.edges()
                            .iter()
                            .find(|e| (e.u == w[0] && e.v == w[1]) || (e.u == w[1] && e.v == w[0]))
                            .map(|e| e.current_weight.value())
                            .unwrap()
                    })
                    .sum();
                BoundingPath::new(r, vfrags, Weight::new(dist))
            })
            .collect();
        BoundingPathSet::new(v(0), v(7), paths)
    }

    #[test]
    fn example5_case1_bound_equals_shortest_distance() {
        // Figure 6b: weights become 8,8 / 4,4,4 / 2,2,2,2. The 4-edge route is now the
        // shortest (distance 8) and Theorem 1 claim 1 applies: LBD = 8.
        let weights = vec![
            (0, 1, 1),
            (1, 7, 1),
            (0, 2, 1),
            (2, 3, 1),
            (3, 7, 1),
            (0, 4, 1),
            (4, 5, 1),
            (5, 6, 1),
            (6, 7, 1),
        ];
        let mut sg = figure6_subgraph(&weights);
        // Update current weights to the Figure 6b values.
        let new_weights: Vec<(u32, u32, f64)> = vec![
            (0, 1, 8.0),
            (1, 7, 8.0),
            (0, 2, 4.0),
            (2, 3, 4.0),
            (3, 7, 4.0),
            (0, 4, 2.0),
            (4, 5, 2.0),
            (5, 6, 2.0),
            (6, 7, 2.0),
        ];
        for (u, w, nw) in new_weights {
            let e = sg
                .edges()
                .iter()
                .find(|e| (e.u == v(u) && e.v == v(w)) || (e.u == v(w) && e.v == v(u)))
                .unwrap()
                .global_id;
            sg.apply_update(&WeightUpdate::new(e, Weight::new(nw))).unwrap();
        }
        let mut set = fig6_bounding_paths(&figure6_subgraph(&weights));
        // Propagate the weight deltas into the bounding-path distances.
        set.apply_edge_delta(v(0), v(1), 7.0);
        set.apply_edge_delta(v(1), v(7), 7.0);
        set.apply_edge_delta(v(0), v(2), 3.0);
        set.apply_edge_delta(v(2), v(3), 3.0);
        set.apply_edge_delta(v(3), v(7), 3.0);
        set.apply_edge_delta(v(0), v(4), 1.0);
        set.apply_edge_delta(v(4), v(5), 1.0);
        set.apply_edge_delta(v(5), v(6), 1.0);
        set.apply_edge_delta(v(6), v(7), 1.0);

        let ms = UnitWeightMultiset::from_subgraph(&sg);
        // Paper: BD(P1)=4, BD(P2)=6, BD(P3)=8 and D(P3)=8 -> exact.
        assert!(set.paths[0].bound_distance(&ms).approx_eq(Weight::new(4.0)));
        assert!(set.paths[1].bound_distance(&ms).approx_eq(Weight::new(6.0)));
        assert!(set.paths[2].bound_distance(&ms).approx_eq(Weight::new(8.0)));
        assert!(set.bound_is_exact(&ms));
        assert!(set.lower_bound_distance(&ms).approx_eq(Weight::new(8.0)));
    }

    #[test]
    fn example5_case2_bound_is_loose_but_valid() {
        // Figure 6c/6d: an extra chain 0-8-9-10-... of unit edges (five extra vfrags of
        // unit weight 1) keeps small unit weights in the subgraph, so BD(P3) = 4 while
        // D(P3) = 8: claim 2 applies and LBD = BD_r = 4.
        let mut weights = fig6a_edges();
        weights.extend_from_slice(&[(1, 2, 1), (3, 4, 1), (5, 2, 1), (6, 2, 1), (1, 4, 1)]);
        let sg0 = figure6_subgraph(&weights);
        let mut sg = sg0.clone();
        let new_weights: Vec<(u32, u32, f64)> = vec![
            (0, 1, 8.0),
            (1, 7, 8.0),
            (0, 2, 4.0),
            (2, 3, 4.0),
            (3, 7, 4.0),
            (0, 4, 2.0),
            (4, 5, 2.0),
            (5, 6, 2.0),
            (6, 7, 2.0),
        ];
        for (u, w, nw) in &new_weights {
            let e = sg
                .edges()
                .iter()
                .find(|e| (e.u == v(*u) && e.v == v(*w)) || (e.u == v(*w) && e.v == v(*u)))
                .unwrap()
                .global_id;
            sg.apply_update(&WeightUpdate::new(e, Weight::new(*nw))).unwrap();
        }
        let mut set = fig6_bounding_paths(&sg0);
        for (u, w, nw) in &new_weights {
            set.apply_edge_delta(v(*u), v(*w), nw - 1.0);
        }
        let ms = UnitWeightMultiset::from_subgraph(&sg);
        let bd_r = set.paths[2].bound_distance(&ms);
        let d_u = set.paths.iter().map(|p| p.current_distance).min().unwrap();
        assert!(bd_r < d_u, "claim 2 scenario requires BD_r < D_u");
        assert_eq!(set.lower_bound_distance(&ms), bd_r);
        assert!(!set.bound_is_exact(&ms));
    }

    #[test]
    fn lower_bound_never_exceeds_true_shortest_distance() {
        use ksp_algo::dijkstra_path;
        // Randomised check on the Figure 6 subgraph under several weight assignments.
        let base = fig6a_edges();
        for scale in 1..6u32 {
            let weights: Vec<(u32, u32, u32)> =
                base.iter().map(|&(u, w, _)| (u, w, 1 + (u + w + scale) % 7)).collect();
            let sg = figure6_subgraph(&weights);
            let set = {
                // Recompute bounding paths for this weighting via the vfrag search.
                let paths = ksp_algo::fewest_vfrag_paths(&sg, v(0), v(7), 3, 64);
                let bps: Vec<BoundingPath> = paths
                    .into_iter()
                    .map(|p| {
                        let dist = ksp_algo::Path::from_vertices(&sg, p.vertices.clone())
                            .unwrap()
                            .distance();
                        BoundingPath::new(p.vertices, p.vfrags, dist)
                    })
                    .collect();
                BoundingPathSet::new(v(0), v(7), bps)
            };
            let ms = UnitWeightMultiset::from_subgraph(&sg);
            let lbd = set.lower_bound_distance(&ms);
            let true_shortest = dijkstra_path(&sg, v(0), v(7)).unwrap().distance();
            assert!(
                lbd <= true_shortest || lbd.approx_eq(true_shortest),
                "LBD {lbd} exceeds shortest {true_shortest} at scale {scale}"
            );
        }
    }

    #[test]
    fn empty_set_has_infinite_lower_bound() {
        let set = BoundingPathSet::new(v(0), v(1), vec![]);
        let sg = figure6_subgraph(&fig6a_edges());
        let ms = UnitWeightMultiset::from_subgraph(&sg);
        assert_eq!(set.lower_bound_distance(&ms), Weight::INFINITY);
        assert!(set.is_empty());
        assert!(!set.bound_is_exact(&ms));
    }

    #[test]
    fn apply_edge_delta_only_touches_paths_containing_the_edge() {
        let sg = figure6_subgraph(&fig6a_edges());
        let mut set = fig6_bounding_paths(&sg);
        let touched = set.apply_edge_delta(v(0), v(1), 5.0);
        assert_eq!(touched, 1);
        assert_eq!(set.paths[0].current_distance, Weight::new(7.0));
        assert_eq!(set.paths[1].current_distance, Weight::new(3.0));
        // Reverse orientation also matches.
        let touched = set.apply_edge_delta(v(7), v(1), 1.0);
        assert_eq!(touched, 1);
        assert_eq!(set.paths[0].current_distance, Weight::new(8.0));
    }

    #[test]
    fn memory_accounting_is_positive() {
        let sg = figure6_subgraph(&fig6a_edges());
        let set = fig6_bounding_paths(&sg);
        assert!(set.memory_bytes() > 0);
        assert_eq!(set.len(), 3);
    }
}
