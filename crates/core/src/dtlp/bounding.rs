//! Bounding paths, lower bounding paths and lower bound distances (Sections 3.4–3.5).
//!
//! The *structure* of a bounding path (its vertex sequence and vfrag count) never
//! changes as edge weights evolve; only its distance is maintained. A subgraph's paths
//! are therefore stored as a `BoundingPathTable` — structure only, built once and
//! shared by every epoch — beside a flat distance vector that maintenance updates, one
//! entry per path in table order. [`PairPaths`] reads one boundary pair's paths from
//! the two and computes its lower bound distance (Theorem 1).
//!
//! [`BoundingPath`] and [`BoundingPathSet`] are the owned form in which paths enter a
//! table (at build and restore) and are read back from storage.

use crate::dtlp::unit_weights::UnitWeightMultiset;
use ksp_graph::{VertexId, Weight};
use std::ops::Range;

/// One bounding path between a pair of boundary vertices in a subgraph (owned form).
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
}

/// The bounding paths between one pair of boundary vertices in one subgraph (owned
/// form), ordered by non-decreasing vfrag count (equivalently bound distance): every
/// path with fewer vfrags than the last one, and the last (see
/// [`ksp_algo::fewest_vfrag_paths`]).
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
}

/// The structure of every bounding path of one subgraph, pair-major: each pair's
/// endpoints and path range, each path's vertex range and vfrag count. Paths are
/// numbered from 0 in this order; distances live outside the table, in a slice
/// indexed by that number.
#[derive(Debug)]
pub(crate) struct BoundingPathTable {
    /// Endpoints of each boundary pair.
    ends: Vec<(VertexId, VertexId)>,
    /// Pair `i`'s paths are `pair_start[i]..pair_start[i + 1]`.
    pair_start: Vec<u32>,
    /// Path `j`'s vertices are `vertices[vertex_start[j]..vertex_start[j + 1]]`.
    vertex_start: Vec<u32>,
    vertices: Vec<VertexId>,
    /// Vfrag count (φ) of each path.
    vfrags: Vec<u64>,
}

impl BoundingPathTable {
    /// Flattens owned sets into a table, returning it with the paths' distances in
    /// table order.
    pub fn from_sets(sets: &[BoundingPathSet]) -> (Self, Vec<Weight>) {
        let num_paths: usize = sets.iter().map(BoundingPathSet::len).sum();
        let mut table = BoundingPathTable {
            ends: Vec::with_capacity(sets.len()),
            pair_start: Vec::with_capacity(sets.len() + 1),
            vertex_start: Vec::with_capacity(num_paths + 1),
            vertices: Vec::new(),
            vfrags: Vec::with_capacity(num_paths),
        };
        let mut distances = Vec::with_capacity(num_paths);
        table.pair_start.push(0);
        table.vertex_start.push(0);
        for set in sets {
            table.ends.push((set.a, set.b));
            for p in &set.paths {
                table.vertices.extend_from_slice(&p.vertices);
                table.vertex_start.push(table.vertices.len() as u32);
                table.vfrags.push(p.vfrags);
                distances.push(p.current_distance);
            }
            table.pair_start.push(table.vfrags.len() as u32);
        }
        (table, distances)
    }

    /// Number of boundary pairs.
    pub fn num_pairs(&self) -> usize {
        self.ends.len()
    }

    /// The numbers of pair `pair`'s paths.
    pub fn paths_of(&self, pair: usize) -> Range<usize> {
        self.pair_start[pair] as usize..self.pair_start[pair + 1] as usize
    }

    /// The vertex sequence of path `path`.
    pub fn vertices(&self, path: usize) -> &[VertexId] {
        &self.vertices[self.vertex_start[path] as usize..self.vertex_start[path + 1] as usize]
    }

    /// Pair `pair` read against `distances` (one per path, in table order).
    pub fn pair<'a>(&'a self, pair: usize, distances: &'a [Weight]) -> PairPaths<'a> {
        let (a, b) = self.ends[pair];
        let paths = self.paths_of(pair);
        PairPaths { a, b, table: self, first: paths.start, distances: &distances[paths] }
    }

    /// Estimated memory footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.ends.len() * std::mem::size_of::<(VertexId, VertexId)>()
            + (self.pair_start.len() + self.vertex_start.len()) * std::mem::size_of::<u32>()
            + self.vertices.len() * std::mem::size_of::<VertexId>()
            + self.vfrags.len() * std::mem::size_of::<u64>()
    }
}

/// One boundary pair's bounding paths, read from a `BoundingPathTable` and its
/// distances. Paths are numbered `0..len()` within the pair.
#[derive(Debug, Clone, Copy)]
pub struct PairPaths<'a> {
    /// First endpoint (source for directed subgraphs).
    pub a: VertexId,
    /// Second endpoint (destination for directed subgraphs).
    pub b: VertexId,
    table: &'a BoundingPathTable,
    /// The number of the pair's first path in `table`.
    first: usize,
    /// The pair's distances, one per path.
    distances: &'a [Weight],
}

impl<'a> PairPaths<'a> {
    /// Number of bounding paths.
    pub fn len(&self) -> usize {
        self.distances.len()
    }

    /// Whether the pair has no bounding path (it is not connected within the subgraph).
    pub fn is_empty(&self) -> bool {
        self.distances.is_empty()
    }

    /// The vertex sequence of path `i`.
    pub fn vertices(&self, i: usize) -> &'a [VertexId] {
        self.table.vertices(self.first + i)
    }

    /// The vfrag count of path `i`.
    pub fn vfrags(&self, i: usize) -> u64 {
        self.table.vfrags[self.first + i]
    }

    /// The actual distance of path `i` at the current weights.
    pub fn distance(&self, i: usize) -> Weight {
        self.distances[i]
    }

    /// Theorem 1's two quantities: `D_u`, the smallest *actual* distance among the
    /// bounding paths, and `BD_r`, the largest *bound* distance — the sum of the last
    /// path's vfrag count's smallest unit weights (Section 3.4), the largest since
    /// bound distance is monotone in vfrag count. `None` for an empty set.
    fn theorem1(&self, multiset: &UnitWeightMultiset) -> Option<(Weight, Weight)> {
        let d_u = self.distances.iter().copied().min()?;
        Some((d_u, multiset.bound_distance(self.vfrags(self.len() - 1))))
    }

    /// The lower bound distance `LBD(a, b)` for this subgraph (Definitions 6–7,
    /// computed via Theorem 1):
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
        self.theorem1(multiset).map_or(Weight::INFINITY, |(d_u, bd_r)| d_u.min(bd_r))
    }

    /// Whether Theorem 1's claim 1 applies, i.e. the lower bound distance is exactly
    /// the shortest distance between the pair within the subgraph. Maintenance that
    /// repairs bounds ([`crate::dtlp::DtlpIndex::apply_batch`] on a local batch)
    /// replaces exactly the bounds for which this is `false` with searched distances.
    pub fn bound_is_exact(&self, multiset: &UnitWeightMultiset) -> bool {
        self.theorem1(multiset).is_some_and(|(d_u, bd_r)| bd_r >= d_u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtlp::subgraph_index::SubgraphIndex;
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

    /// The Figure 6b/6c weights of the three routes.
    fn fig6b_weights() -> Vec<(u32, u32, f64)> {
        vec![
            (0, 1, 8.0),
            (1, 7, 8.0),
            (0, 2, 4.0),
            (2, 3, 4.0),
            (3, 7, 4.0),
            (0, 4, 2.0),
            (4, 5, 2.0),
            (5, 6, 2.0),
            (6, 7, 2.0),
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
                let path = ksp_algo::Path::from_vertices(sg, r.clone()).unwrap();
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
                BoundingPath::new(r, vfrags, path.distance())
            })
            .collect();
        BoundingPathSet::new(v(0), v(7), paths)
    }

    /// An index over `sg` holding exactly `set`, maintained by the real update path.
    fn index_of(sg: Subgraph, set: BoundingPathSet) -> SubgraphIndex {
        SubgraphIndex::restore(sg, vec![set], vec![Weight::INFINITY])
    }

    /// Moves every listed edge of `idx`'s subgraph to its new weight.
    fn reweigh(idx: &mut SubgraphIndex, weights: &[(u32, u32, f64)]) -> usize {
        let updates: Vec<WeightUpdate> = weights
            .iter()
            .map(|&(u, w, nw)| {
                let e = idx
                    .subgraph()
                    .edges()
                    .iter()
                    .find(|e| (e.u == v(u) && e.v == v(w)) || (e.u == v(w) && e.v == v(u)))
                    .unwrap()
                    .global_id;
                WeightUpdate::new(e, Weight::new(nw))
            })
            .collect();
        idx.apply_updates(&updates, None).unwrap().paths_touched
    }

    #[test]
    fn example5_case1_bound_equals_shortest_distance() {
        // Figure 6b: weights become 8,8 / 4,4,4 / 2,2,2,2. The 4-edge route is now the
        // shortest (distance 8) and Theorem 1 claim 1 applies: LBD = 8.
        let sg = figure6_subgraph(&fig6a_edges());
        let set = fig6_bounding_paths(&sg);
        let mut idx = index_of(sg, set);
        reweigh(&mut idx, &fig6b_weights());

        let ms = UnitWeightMultiset::from_subgraph(idx.subgraph());
        let pair = idx.pair(0);
        // Paper: BD(P1)=4, BD(P2)=6, BD(P3)=8 and D(P3)=8 -> exact.
        assert!(ms.bound_distance(pair.vfrags(0)).approx_eq(Weight::new(4.0)));
        assert!(ms.bound_distance(pair.vfrags(1)).approx_eq(Weight::new(6.0)));
        assert!(ms.bound_distance(pair.vfrags(2)).approx_eq(Weight::new(8.0)));
        assert!(pair.bound_is_exact(&ms));
        assert!(pair.lower_bound_distance(&ms).approx_eq(Weight::new(8.0)));
    }

    #[test]
    fn example5_case2_bound_is_loose_but_valid() {
        // Figure 6c/6d: extra unit-weight edges keep small unit weights in the
        // subgraph, so BD(P3) = 4 while D(P3) = 8: claim 2 applies and LBD = BD_r = 4.
        let mut weights = fig6a_edges();
        weights.extend_from_slice(&[(1, 2, 1), (3, 4, 1), (5, 2, 1), (6, 2, 1), (1, 4, 1)]);
        let sg = figure6_subgraph(&weights);
        let set = fig6_bounding_paths(&sg);
        let mut idx = index_of(sg, set);
        reweigh(&mut idx, &fig6b_weights());

        let ms = UnitWeightMultiset::from_subgraph(idx.subgraph());
        let pair = idx.pair(0);
        let bd_r = ms.bound_distance(pair.vfrags(2));
        let d_u = (0..pair.len()).map(|i| pair.distance(i)).min().unwrap();
        assert!(bd_r < d_u, "claim 2 scenario requires BD_r < D_u");
        assert_eq!(pair.lower_bound_distance(&ms), bd_r);
        assert!(!pair.bound_is_exact(&ms));
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
            // Recompute bounding paths for this weighting via the vfrag search.
            let paths = ksp_algo::fewest_vfrag_paths(
                &sg,
                v(0),
                v(7),
                3,
                64,
                &mut ksp_algo::SearchArena::new(),
            )
            .into_iter()
            .map(|p| {
                let dist =
                    ksp_algo::Path::from_vertices(&sg, p.vertices.clone()).unwrap().distance();
                BoundingPath::new(p.vertices, p.vfrags, dist)
            })
            .collect();
            let idx = index_of(sg, BoundingPathSet::new(v(0), v(7), paths));
            let ms = UnitWeightMultiset::from_subgraph(idx.subgraph());
            let lbd = idx.pair(0).lower_bound_distance(&ms);
            let true_shortest = dijkstra_path(idx.subgraph(), v(0), v(7)).unwrap().distance();
            assert!(
                lbd <= true_shortest || lbd.approx_eq(true_shortest),
                "LBD {lbd} exceeds shortest {true_shortest} at scale {scale}"
            );
        }
    }

    #[test]
    fn empty_set_has_infinite_lower_bound() {
        let sg = figure6_subgraph(&fig6a_edges());
        let idx = index_of(sg, BoundingPathSet::new(v(0), v(1), vec![]));
        let ms = UnitWeightMultiset::from_subgraph(idx.subgraph());
        let pair = idx.pair(0);
        assert_eq!(pair.lower_bound_distance(&ms), Weight::INFINITY);
        assert!(pair.is_empty());
        assert!(!pair.bound_is_exact(&ms));
    }

    #[test]
    fn apply_edge_delta_only_touches_paths_containing_the_edge() {
        let sg = figure6_subgraph(&fig6a_edges());
        let set = fig6_bounding_paths(&sg);
        let mut idx = index_of(sg, set);
        assert_eq!(reweigh(&mut idx, &[(0, 1, 6.0)]), 1);
        assert_eq!(idx.pair(0).distance(0), Weight::new(7.0));
        assert_eq!(idx.pair(0).distance(1), Weight::new(3.0));
        // Reverse orientation also matches.
        assert_eq!(reweigh(&mut idx, &[(7, 1, 2.0)]), 1);
        assert_eq!(idx.pair(0).distance(0), Weight::new(8.0));
    }

    #[test]
    fn memory_accounting_is_positive() {
        let sg = figure6_subgraph(&fig6a_edges());
        let set = fig6_bounding_paths(&sg);
        let (table, distances) = BoundingPathTable::from_sets(std::slice::from_ref(&set));
        assert!(table.memory_bytes() > 0);
        assert_eq!(table.pair(0, &distances).len(), 3);
        assert_eq!(table.pair(0, &distances).vertices(2), &set.paths[2].vertices[..]);
    }
}
