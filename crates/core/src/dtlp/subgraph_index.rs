//! The per-subgraph (level-one) part of DTLP.
//!
//! A [`SubgraphIndex`] is what a worker keeps for each subgraph it owns: the subgraph
//! itself (with live weights), the bounding paths between its boundary-vertex pairs
//! and the EP-Index that maps an edge to the bounding paths covering it. It receives
//! the weight updates routed to this subgraph and reports which pairs' lower bound
//! distances changed, so the skeleton graph can be patched incrementally. On request
//! it repairs the bounds Theorem 1 leaves loose with exact in-subgraph distances.

use crate::dtlp::bounding::{BoundingPath, BoundingPathSet, BoundingPathTable, PairPaths};
use crate::dtlp::ep_index::{EpIndex, PathRef};
use crate::dtlp::memo::Memo;
use crate::dtlp::unit_weights::UnitWeightMultiset;
use crate::kspdg::refine::Partials;
use ksp_algo::{fewest_vfrag_paths, Path, SearchArena};
use ksp_graph::{EdgeId, GraphError, Subgraph, SubgraphId, VertexId, Weight, WeightUpdate};
use std::collections::HashMap;
use std::sync::Arc;

/// How many paths [`SubgraphIndex::build`] enumerates per boundary pair at most
/// while searching for bounding paths; see [`ksp_algo::fewest_vfrag_paths`] for why
/// truncation trades bound tightness for build time, never correctness.
const MAX_PATHS_ENUMERATED: usize = 48;

/// Per-pair change reported after applying a batch of weight updates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowerBoundChange {
    /// First endpoint of the boundary pair.
    pub a: VertexId,
    /// Second endpoint of the boundary pair.
    pub b: VertexId,
    /// The new lower bound distance for this subgraph.
    pub new_lbd: Weight,
}

/// What one [`SubgraphIndex::apply_updates`] call did.
#[derive(Debug, Default)]
pub(crate) struct BoundRefresh {
    /// The pairs whose lower bound distance changed, each once, in pair order:
    /// (pair index, new lower bound distance).
    pub(crate) changes: Vec<(usize, Weight)>,
    /// Number of bounding paths whose stored distance was adjusted (a cost metric).
    pub(crate) paths_touched: usize,
    /// Number of pairs whose Theorem 1 bound was replaced by a searched distance.
    pub(crate) pairs_repaired: usize,
}

/// What never changes after a subgraph index is built: the bounding paths'
/// structure and the EP-Index over it (which maps edges to path *numbers*, not
/// distances).
#[derive(Debug)]
struct PathShape {
    table: BoundingPathTable,
    ep: EpIndex,
}

/// The level-one DTLP index of a single subgraph.
///
/// Structure and numbers are held apart. The subgraph sits behind an `Arc` so
/// the partitioner's allocation is referenced rather than copied, and the
/// bounding-path shape behind another because maintenance never changes it.
/// What maintenance does change is flat: one distance per bounding path and one
/// last-reported lower bound per pair. Cloning a `SubgraphIndex` (as the
/// copy-on-write fork of an epoch does) therefore copies those two vectors and
/// bumps the reference counts of what it shares; the first update then unshares the subgraph via
/// `Arc::make_mut`, which copies its edge records and shares its vertices,
/// adjacency and lookups ([`Subgraph::shares_shape_with`]). The path shape is
/// never copied: every epoch descended from one build shares it
/// ([`SubgraphIndex::shares_structure_with`]).
///
/// The index also carries a memo of the partial k shortest paths that queries
/// computed between its boundary vertices (see [`crate::kspdg::refine`]), which
/// lives by the rule `dtlp::memo` states.
#[derive(Debug, Clone)]
pub struct SubgraphIndex {
    subgraph: Arc<Subgraph>,
    shape: Arc<PathShape>,
    /// Current distance of every bounding path, in `shape.table` order.
    distance: Vec<Weight>,
    /// Last lower bound distance reported for each pair, to detect changes:
    /// Theorem 1's bound, or the exact distance a repair stored in its place.
    last_lbd: Vec<Weight>,
    /// Partial k shortest paths between boundary vertices on the current weights,
    /// by `(from, to)`.
    pub(crate) partials: Memo<(VertexId, VertexId), Partials>,
}

impl SubgraphIndex {
    /// Builds the index for one subgraph.
    ///
    /// `xi` is the number of distinct vfrag counts among a pair's bounding paths (the
    /// paper's ξ); see [`ksp_algo::fewest_vfrag_paths`] for which paths are kept.
    pub fn build(subgraph: impl Into<Arc<Subgraph>>, xi: usize) -> Self {
        let subgraph: Arc<Subgraph> = subgraph.into();
        let directed = subgraph.is_directed();
        let boundary: Vec<VertexId> = subgraph.boundary_vertices().to_vec();

        let mut pairs: Vec<BoundingPathSet> = Vec::new();
        let mut arena = SearchArena::new();
        for (i, &a) in boundary.iter().enumerate() {
            for (j, &b) in boundary.iter().enumerate() {
                let take = if directed { i != j } else { j > i };
                if !take {
                    continue;
                }
                let candidates =
                    fewest_vfrag_paths(&subgraph, a, b, xi, MAX_PATHS_ENUMERATED, &mut arena);
                let paths: Vec<BoundingPath> = candidates
                    .into_iter()
                    .filter_map(|c| {
                        let dist = Path::from_vertices(&subgraph, c.vertices.clone())?.distance();
                        Some(BoundingPath::new(c.vertices, c.vfrags, dist))
                    })
                    .collect();
                if !paths.is_empty() {
                    pairs.push(BoundingPathSet::new(a, b, paths));
                }
            }
        }

        let mut index = Self::with_paths(subgraph, &pairs);
        let unit_weights = UnitWeightMultiset::from_subgraph(&index.subgraph);
        index.last_lbd = index.pairs().map(|p| p.lower_bound_distance(&unit_weights)).collect();
        index
    }

    /// Reassembles an index from persisted parts, skipping the expensive
    /// bounding-path enumeration of [`SubgraphIndex::build`].
    ///
    /// `pairs` carries the accumulated `current_distance` of every bounding
    /// path and `last_lbd` the exact lower bounds last reported to the
    /// skeleton, so the restored index continues maintenance bit-identically
    /// to the instance that was checkpointed. The EP-Index is derived data
    /// and is rebuilt here (a deterministic function of `subgraph` and
    /// `pairs`).
    pub fn restore(
        subgraph: impl Into<Arc<Subgraph>>,
        pairs: Vec<BoundingPathSet>,
        last_lbd: Vec<Weight>,
    ) -> Self {
        assert_eq!(pairs.len(), last_lbd.len(), "one stored lower bound per boundary pair");
        SubgraphIndex { last_lbd, ..Self::with_paths(subgraph.into(), &pairs) }
    }

    /// Flattens `pairs` into a new shape; no lower bound is reported yet.
    fn with_paths(subgraph: Arc<Subgraph>, pairs: &[BoundingPathSet]) -> Self {
        let (table, distance) = BoundingPathTable::from_sets(pairs);
        let ep = build_ep_index(&subgraph, &table);
        let shape = Arc::new(PathShape { table, ep });
        let partials = Memo::default();
        SubgraphIndex { subgraph, shape, distance, last_lbd: Vec::new(), partials }
    }

    /// The subgraph this index covers (with live weights).
    pub fn subgraph(&self) -> &Subgraph {
        &self.subgraph
    }

    /// The shared handle to the subgraph. Two indexes (or two epochs of the
    /// same index) that return pointer-equal handles share one allocation.
    pub fn subgraph_handle(&self) -> &Arc<Subgraph> {
        &self.subgraph
    }

    /// The EP-Index: which bounding paths cross each edge of the subgraph.
    pub fn ep_index(&self) -> &EpIndex {
        &self.shape.ep
    }

    /// Whether `self` and `other` share one bounding-path shape allocation.
    /// Maintenance never copies the shape, so every epoch descended from one
    /// build (or restore) shares it, dirty or not.
    pub fn shares_structure_with(&self, other: &SubgraphIndex) -> bool {
        Arc::ptr_eq(&self.shape, &other.shape)
    }

    /// The bounding paths of indexed pair `i`, with their current distances.
    pub fn pair(&self, i: usize) -> PairPaths<'_> {
        self.shape.table.pair(i, &self.distance)
    }

    /// The bounding paths of every indexed pair, in pair order.
    pub fn pairs(&self) -> impl Iterator<Item = PairPaths<'_>> + '_ {
        (0..self.num_pairs()).map(|i| self.pair(i))
    }

    /// The lower bound distance last reported for each pair (parallel to
    /// [`SubgraphIndex::pairs`]). Persisted verbatim so a restored index
    /// detects future bound changes against the same baseline.
    pub fn last_lower_bounds(&self) -> &[Weight] {
        &self.last_lbd
    }

    /// Identifier of the underlying subgraph.
    pub fn id(&self) -> SubgraphId {
        self.subgraph.id()
    }

    /// Number of boundary pairs indexed.
    pub fn num_pairs(&self) -> usize {
        self.shape.table.num_pairs()
    }

    /// Total number of bounding paths stored.
    pub fn num_bounding_paths(&self) -> usize {
        self.distance.len()
    }

    /// Iterates over the current lower bound distances of every indexed pair.
    pub fn lower_bounds(&self) -> impl Iterator<Item = LowerBoundChange> + '_ {
        self.pairs().zip(&self.last_lbd).map(|(pair, &lbd)| LowerBoundChange {
            a: pair.a,
            b: pair.b,
            new_lbd: lbd,
        })
    }

    /// Applies a batch of weight updates belonging to this subgraph (Algorithm 2).
    ///
    /// Every pair's lower bound is refreshed by Theorem 1. Given an arena (`repair`),
    /// a pair whose bound claim 1 does not certify ([`PairPaths::bound_is_exact`])
    /// gets its exact in-subgraph distance instead, stored bit for bit as the search
    /// found it: one single-source search per first endpoint of such a pair. Pairs
    /// are grouped by first endpoint, so the searches number at most the subgraph's
    /// boundary vertices. Without an arena every bound is Theorem 1's.
    ///
    /// Returns what changed, each changed pair once by its pair index, so the caller
    /// can patch the skeleton graph by position.
    pub(crate) fn apply_updates(
        &mut self,
        updates: &[WeightUpdate],
        mut repair: Option<&mut SearchArena>,
    ) -> Result<BoundRefresh, GraphError> {
        let mut refresh = BoundRefresh::default();
        if updates.is_empty() {
            return Ok(refresh);
        }
        self.partials.forget();
        let table = &self.shape.table;
        // Copy-on-write: the first update of a batch unshares the subgraph's
        // edge records if a previous epoch still holds them (its shape stays
        // shared); later updates mutate in place.
        for update in updates {
            let delta = Arc::make_mut(&mut self.subgraph).apply_update(update)?;
            if delta == 0.0 {
                continue;
            }
            for r in self.shape.ep.paths_through(update.edge) {
                let d = &mut self.distance[table.paths_of(r.pair as usize).start + r.path as usize];
                *d = Weight::new((d.value() + delta).max(0.0));
                refresh.paths_touched += 1;
            }
        }

        // The unit-weight multiset depends on every weight in the subgraph, so build
        // it once per batch, then refresh every pair's lower bound (each refresh is
        // O(ξ log |E_sg|)). Only pairs whose bound actually moved are reported.
        let unit_weights = UnitWeightMultiset::from_subgraph(&self.subgraph);
        let mut searched_from = None;
        for (i, last) in self.last_lbd.iter_mut().enumerate() {
            let pair = table.pair(i, &self.distance);
            let lbd = match repair.as_deref_mut() {
                Some(arena) if !pair.bound_is_exact(&unit_weights) => {
                    if searched_from != Some(pair.a) {
                        arena.search_from(&*self.subgraph, pair.a);
                        searched_from = Some(pair.a);
                    }
                    refresh.pairs_repaired += 1;
                    let exact = arena.distance(pair.b);
                    if exact.value().to_bits() == last.value().to_bits() {
                        continue;
                    }
                    exact
                }
                _ => {
                    let lbd = pair.lower_bound_distance(&unit_weights);
                    if lbd.approx_eq(*last) {
                        continue;
                    }
                    lbd
                }
            };
            *last = lbd;
            refresh.changes.push((i, lbd));
        }
        Ok(refresh)
    }

    /// Shortest distances from `v` to every boundary vertex of this subgraph, computed
    /// on the current weights with one search on `arena`. Used to attach a
    /// non-boundary query endpoint to the skeleton graph (Section 5.3 / Step 1 of the
    /// Storm deployment).
    pub fn boundary_distances_from(
        &self,
        v: VertexId,
        arena: &mut SearchArena,
    ) -> Vec<(VertexId, Weight)> {
        arena.search_from(&*self.subgraph, v);
        self.boundary_distances(arena)
    }

    /// Shortest distances from every boundary vertex of this subgraph *to* `v`: one
    /// search from `v` over [`Subgraph::reversed`], which reads the in-adjacency the
    /// subgraph's shape keeps (an undirected subgraph is its own reverse).
    pub fn boundary_distances_to(
        &self,
        v: VertexId,
        arena: &mut SearchArena,
    ) -> Vec<(VertexId, Weight)> {
        arena.search_from(&self.subgraph.reversed(), v);
        self.boundary_distances(arena)
    }

    /// The finite distances `arena`'s last search found to this subgraph's boundary.
    fn boundary_distances(&self, arena: &SearchArena) -> Vec<(VertexId, Weight)> {
        self.subgraph
            .boundary_vertices()
            .iter()
            .filter_map(|&b| {
                let d = arena.distance(b);
                d.is_finite().then_some((b, d))
            })
            .collect()
    }

    /// Estimated memory footprint of the level-one index structures in bytes
    /// (excluding the subgraph itself): the shape, counted once, plus this
    /// epoch's distances and lower bounds. Epochs that share the shape
    /// ([`SubgraphIndex::shares_structure_with`]) each count it in full.
    pub fn index_memory_bytes(&self) -> usize {
        self.shape.table.memory_bytes()
            + self.shape.ep.memory_bytes()
            + (self.distance.len() + self.last_lbd.len()) * std::mem::size_of::<Weight>()
    }

    /// Memory footprint of the subgraph structure itself in bytes.
    pub fn subgraph_memory_bytes(&self) -> usize {
        self.subgraph.memory_bytes()
    }
}

/// Builds the EP-Index for `table` over `subgraph`. Shared by
/// [`SubgraphIndex::build`] and [`SubgraphIndex::restore`]: the EP-Index is
/// fully derived from the paths, so it is never persisted.
fn build_ep_index(subgraph: &Subgraph, table: &BoundingPathTable) -> EpIndex {
    // Edge lookup (endpoint pair -> global edge id) for registering paths.
    let mut edge_of: HashMap<(VertexId, VertexId), EdgeId> = HashMap::new();
    for e in subgraph.edges() {
        edge_of.insert((e.u, e.v), e.global_id);
        if !subgraph.is_directed() {
            edge_of.insert((e.v, e.u), e.global_id);
        }
    }
    let mut ep = EpIndex::new();
    for pi in 0..table.num_pairs() {
        for (qi, path) in table.paths_of(pi).enumerate() {
            for w in table.vertices(path).windows(2) {
                let Some(&e) = edge_of.get(&(w[0], w[1])) else { continue };
                ep.insert(e, PathRef { pair: pi as u32, path: qi as u32 });
            }
        }
    }
    ep
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_algo::dijkstra_path;
    use ksp_graph::{GraphBuilder, PartitionConfig, Partitioner};

    /// Builds the Figure 3 graph of the paper and partitions it with z = 6.
    fn paper_partitioning() -> (ksp_graph::DynamicGraph, ksp_graph::Partitioning) {
        let g = crate::dtlp::index::tests::paper_graph();
        let p = Partitioner::new(PartitionConfig::with_max_vertices(6)).partition(&g).unwrap();
        (g, p)
    }

    fn build_indexes(partitioning: &ksp_graph::Partitioning, xi: usize) -> Vec<SubgraphIndex> {
        partitioning.subgraphs().iter().map(|sg| SubgraphIndex::build(sg.clone(), xi)).collect()
    }

    #[test]
    fn lower_bounds_never_exceed_subgraph_shortest_distances() {
        let (_, partitioning) = paper_partitioning();
        for idx in build_indexes(&partitioning, 3) {
            for lb in idx.lower_bounds() {
                let shortest = dijkstra_path(idx.subgraph(), lb.a, lb.b)
                    .map(|p| p.distance())
                    .unwrap_or(Weight::INFINITY);
                assert!(
                    lb.new_lbd <= shortest || lb.new_lbd.approx_eq(shortest),
                    "LBD({}, {}) = {} exceeds shortest {shortest}",
                    lb.a,
                    lb.b,
                    lb.new_lbd
                );
            }
        }
    }

    #[test]
    fn initial_lower_bounds_equal_shortest_distances() {
        // Section 5.5: at construction time all unit weights equal 1 and the lower
        // bound distance equals the true shortest distance within every subgraph.
        let (_, partitioning) = paper_partitioning();
        for idx in build_indexes(&partitioning, 3) {
            for lb in idx.lower_bounds() {
                if !lb.new_lbd.is_finite() {
                    continue;
                }
                let shortest = dijkstra_path(idx.subgraph(), lb.a, lb.b).unwrap().distance();
                assert!(
                    lb.new_lbd.approx_eq(shortest),
                    "initial LBD({}, {}) = {} != shortest {shortest}",
                    lb.a,
                    lb.b,
                    lb.new_lbd
                );
            }
        }
    }

    #[test]
    fn updates_keep_lower_bound_property() {
        let (_, partitioning) = paper_partitioning();
        let mut indexes = build_indexes(&partitioning, 2);
        // Repeatedly perturb each subgraph's edges and re-check the bound property.
        for round in 1..5u32 {
            for idx in &mut indexes {
                let updates: Vec<WeightUpdate> = idx
                    .subgraph()
                    .edges()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (i + round as usize).is_multiple_of(3))
                    .map(|(i, e)| {
                        let factor = 0.5 + ((i as f64 * 0.37 + round as f64) % 1.0);
                        WeightUpdate::new(
                            e.global_id,
                            Weight::new(e.initial_weight as f64 * factor),
                        )
                    })
                    .collect();
                idx.apply_updates(&updates, None).unwrap();
                for lb in idx.lower_bounds() {
                    let shortest = dijkstra_path(idx.subgraph(), lb.a, lb.b)
                        .map(|p| p.distance())
                        .unwrap_or(Weight::INFINITY);
                    assert!(
                        lb.new_lbd <= shortest || lb.new_lbd.approx_eq(shortest),
                        "after update: LBD({}, {}) = {} exceeds shortest {shortest}",
                        lb.a,
                        lb.b,
                        lb.new_lbd
                    );
                }
            }
        }
    }

    #[test]
    fn tied_vfrag_counts_keep_the_lower_bound_valid() {
        // Between boundary vertices 0 and 3, routes 0-1-3 and 0-2-3 both have two
        // vfrags and 0-4-5-3 has three. With ξ = 2 the bound must track both tied
        // routes: once 0-2-3 becomes the shortest, a bound built from 0-1-3 alone
        // (2.6) would exceed it (1.4).
        let mut b = GraphBuilder::undirected(6);
        b.edge(0, 1, 1).edge(1, 3, 1).edge(0, 2, 1).edge(2, 3, 1);
        b.edge(0, 4, 1).edge(4, 5, 1).edge(5, 3, 1);
        let g = b.build().unwrap();
        let sg = Partitioner::new(PartitionConfig::with_max_vertices(100))
            .partition(&g)
            .unwrap()
            .into_subgraphs()
            .remove(0);
        let v = VertexId;
        let sg = Subgraph::restore(
            sg.id(),
            false,
            sg.vertices().to_vec(),
            sg.edges().to_vec(),
            vec![v(0), v(3)],
        );
        let mut idx = SubgraphIndex::build(sg, 2);
        assert_eq!(idx.pair(0).len(), 3, "both tied routes and the 3-vfrag one");
        let factors = [1.3, 1.3, 0.7, 0.7, 1.3, 1.3, 1.3];
        let updates: Vec<WeightUpdate> = factors
            .iter()
            .enumerate()
            .map(|(e, &f)| WeightUpdate::new(EdgeId(e as u32), Weight::new(f)))
            .collect();
        idx.apply_updates(&updates, None).unwrap();
        let lb = idx.lower_bounds().next().unwrap();
        let shortest = dijkstra_path(idx.subgraph(), v(0), v(3)).unwrap().distance();
        assert!(shortest.approx_eq(Weight::new(1.4)));
        assert!(lb.new_lbd <= shortest, "LBD {} exceeds shortest {shortest}", lb.new_lbd);
    }

    #[test]
    fn local_batches_repair_loose_bounds_and_global_batches_keep_theorem1() {
        use crate::dtlp::index::tests::road_network;
        use crate::dtlp::{DtlpConfig, DtlpIndex};
        use ksp_workload::{incident, TrafficConfig, TrafficModel, Xoshiro256};

        let mut g = road_network(400, 19);
        let mut index = DtlpIndex::build(&g, DtlpConfig::new(20, 2)).unwrap();
        let mut traffic = TrafficModel::new(&g, TrafficConfig::new(0.35, 0.30), 19);
        let mut rng = Xoshiro256::seed_from_u64(19);
        let mut arena = SearchArena::new();
        let mut repaired_total = 0;
        for round in 0..8 {
            let global = round % 4 == 0;
            let batch = if global { traffic.next_snapshot() } else { incident(&g, 2, &mut rng) };
            g.apply_batch(&batch).unwrap();
            let stats = index.apply_batch(&batch).unwrap();
            let dirty = stats.dirty_subgraphs.len();
            assert_eq!(global, 2 * dirty > index.num_subgraphs(), "round {round}: {dirty} dirty");
            let mut loose = 0;
            for &sg in &stats.dirty_subgraphs {
                let idx = index.subgraph_index(sg);
                let ms = UnitWeightMultiset::from_subgraph(idx.subgraph());
                for (i, &lbd) in idx.last_lower_bounds().iter().enumerate() {
                    let pair = idx.pair(i);
                    let theorem1 = pair.lower_bound_distance(&ms);
                    if global {
                        // A global batch keeps Theorem 1's bounds.
                        assert!(lbd.approx_eq(theorem1), "round {round}: {sg} pair {i}");
                        continue;
                    }
                    arena.search_from(idx.subgraph(), pair.a);
                    let exact = arena.distance(pair.b);
                    if pair.bound_is_exact(&ms) {
                        // Claim 1 certifies Theorem 1's bound: it is the distance.
                        assert!(lbd.approx_eq(exact), "round {round}: {sg} pair {i}");
                    } else {
                        // A repaired bound is the searched distance, bit for bit ...
                        assert_eq!(lbd.value().to_bits(), exact.value().to_bits());
                        // ... and never below the bound it replaced.
                        assert!(theorem1 <= lbd, "round {round}: {sg} pair {i}");
                        loose += 1;
                    }
                }
            }
            assert_eq!(stats.pairs_repaired, loose, "round {round}");
            repaired_total += loose;
        }
        assert!(repaired_total > 0, "the incidents must leave some bounds loose");
    }

    #[test]
    fn apply_updates_reports_touched_paths_and_changes() {
        let (_, partitioning) = paper_partitioning();
        let mut indexes = build_indexes(&partitioning, 2);
        let idx = indexes
            .iter_mut()
            .find(|i| i.num_pairs() > 0 && i.subgraph().num_edges() > 2)
            .expect("some subgraph has pairs");
        // Raise the weight of every edge sharply: distances of all bounding paths grow.
        let updates: Vec<WeightUpdate> = idx
            .subgraph()
            .edges()
            .iter()
            .map(|e| WeightUpdate::new(e.global_id, Weight::new(e.initial_weight as f64 * 10.0)))
            .collect();
        let refresh = idx.apply_updates(&updates, None).unwrap();
        assert!(refresh.paths_touched > 0, "bounding paths must have been adjusted");
        assert!(!refresh.changes.is_empty(), "lower bounds must change when all weights grow 10x");
        // A second identical batch changes nothing.
        assert!(idx.apply_updates(&updates, None).unwrap().changes.is_empty());
    }

    #[test]
    fn updates_for_foreign_edges_are_rejected() {
        let (_, partitioning) = paper_partitioning();
        let mut indexes = build_indexes(&partitioning, 1);
        let foreign = EdgeId(10_000);
        let err = indexes[0]
            .apply_updates(&[WeightUpdate::new(foreign, Weight::new(1.0))], None)
            .unwrap_err();
        assert!(matches!(err, GraphError::EdgeOutOfRange { .. }));
    }

    #[test]
    fn boundary_distances_from_cover_reachable_boundary_vertices() {
        let (_, partitioning) = paper_partitioning();
        let indexes = build_indexes(&partitioning, 1);
        for idx in &indexes {
            let Some(&start) = idx.subgraph().vertices().first() else { continue };
            let dists = idx.boundary_distances_from(start, &mut SearchArena::new());
            for (b, d) in dists {
                let expected = dijkstra_path(idx.subgraph(), start, b).unwrap().distance();
                assert!(d.approx_eq(expected));
            }
        }
    }

    #[test]
    fn directed_boundary_distances_respect_direction() {
        let mut b = GraphBuilder::directed(4);
        // 0 -> 1 -> 2 -> 3 and a back edge 3 -> 0.
        b.edge(0, 1, 1).edge(1, 2, 1).edge(2, 3, 1).edge(3, 0, 1);
        let g = b.build().unwrap();
        let partitioning =
            Partitioner::new(PartitionConfig::with_max_vertices(3)).partition(&g).unwrap();
        for sg in partitioning.subgraphs() {
            let idx = SubgraphIndex::build(sg.clone(), 1);
            for &bv in idx.subgraph().boundary_vertices() {
                // distances *to* bv from bv must be zero in both helper directions.
                let mut arena = SearchArena::new();
                let from = idx.boundary_distances_from(bv, &mut arena);
                let to = idx.boundary_distances_to(bv, &mut arena);
                assert!(from.iter().any(|&(x, d)| x == bv && d == Weight::ZERO));
                assert!(to.iter().any(|&(x, d)| x == bv && d == Weight::ZERO));
            }
        }
    }

    #[test]
    fn memory_accounting_is_positive_for_nonempty_indexes() {
        let (_, partitioning) = paper_partitioning();
        let indexes = build_indexes(&partitioning, 2);
        let with_pairs = indexes.iter().filter(|i| i.num_pairs() > 0).count();
        assert!(with_pairs > 0);
        for idx in indexes.iter().filter(|i| i.num_pairs() > 0) {
            assert!(idx.index_memory_bytes() > 0);
            assert!(idx.subgraph_memory_bytes() > 0);
            assert!(idx.num_bounding_paths() >= idx.num_pairs());
        }
    }
}
