//! The iterative filter-and-refine KSP-DG query loop (Algorithm 3, Theorem 3).
//!
//! **Reference paths are canonical decompositions.** The loop enumerates reference
//! paths with FindKSP over the overlay's [`LabelledView`](crate::dtlp::LabelledView):
//! sequences of (subgraph, boundary pair) hops, no two consecutive hops in one
//! subgraph, each weighted by its own subgraph's bound. Every simple route has
//! exactly one such sequence, its maximal runs inside one subgraph (see
//! [`crate::kspdg::refine`]), so a route is re-derived by one reference, not by
//! every split of its runs at the boundary vertices they pass.
//!
//! **Why it stays exact.** Let `T` be the k-th answer distance when Theorem 3's
//! test stops the loop, the next reference being no shorter than `T`. Take a route
//! shorter than `T`. Its canonical reference has a bound sum no greater than the
//! route's length, so below `T`. FindKSP produces references in order of distance,
//! so that reference came before the stop: the stopping test is unchanged. Its
//! refine yielded the route, or k shorter simple routes (the refine module's
//! domination argument). Either way the answer holds k routes no longer than it.
//!
//! The enumeration's heuristic is the exact distance to the target over the
//! *unlabelled* overlay, asked about each state's vertex ([`TargetDistances`]). It
//! stays admissible and consistent: a labelled path projects onto an overlay path
//! between the same vertices, and each labelled edge weighs one subgraph's bound, at
//! least the overlay edge's minimum. So the survival sweep reads the same distances.
//! Simplicity and bans are judged on vertices, not states, through the view's
//! state → vertex projection (see [`ksp_algo::Projection`]).
//!
//! **The distances are shared per target.** They come from the index's
//! [`TargetRow`](crate::dtlp::TargetRow) for the target: one search over the
//! skeleton plus the target's attachments, settled as far as the queries to that
//! target on the current weights have asked (see [`crate::dtlp::target_row`], which
//! also shows why its distances are those of a search over the query's own overlay;
//! rows live by the rule `dtlp::memo` states). The query reads them through
//! [`TargetDistances`], which resumes the row's search only past what the row
//! settled, and adds the source, whose distance is the least `w + d(b)` over its
//! out-edges in the overlay. The row also supplies the overlay's target attachments.

use crate::dtlp::{DtlpIndex, OverlayView, TargetDistances};
use crate::kspdg::refine::{candidate_ksp, PartialPathCache};
use ksp_algo::path::keep_k_shortest;
use ksp_algo::{FindKsp, Path, SearchArena};
use ksp_graph::{SubgraphSet, VertexId, Weight};

/// Safety cap on the number of filter/refine iterations per query. The paper shows
/// the number of iterations stays near `k` in practice (Section 5.5); the cap only
/// guards against pathological inputs.
pub const MAX_ITERATIONS: usize = 10_000;

/// Configuration of the query engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KspDgConfig {
    /// Whether queries produce a *certified* [`QueryTrace`] — i.e. run the
    /// survival sweep after the answer is found. Off by default: the sweep
    /// costs a bounded Dijkstra over the skeleton overlay from the source to a
    /// quarter of the k-th answer distance, plus settling the target's distances
    /// to the rest of it (a target's row often already reaches that far) and a
    /// pass over the boundary vertices, which only pays for itself
    /// when something consumes the certificate (the serving layer's
    /// cache-survival machinery turns it on). With it off, the cheap level-one
    /// recording still happens but `QueryTrace::complete` stays `false`, so
    /// nothing downstream can mistake the trace for a certificate.
    pub collect_trace: bool,
}

impl KspDgConfig {
    /// Returns a copy with certified trace collection enabled.
    pub fn with_trace(mut self) -> Self {
        self.collect_trace = true;
        self
    }
}

/// Per-query statistics, matching the cost model of Section 5.6.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Number of filter/refine iterations executed (reference paths examined).
    pub iterations: usize,
    /// Number of partial k-shortest-path computations (per-query cache misses);
    /// Operation (2) of the computation-cost analysis. A miss a subgraph's memo
    /// answers counts here too, and the other counters are charged what its
    /// computation cost, so none of them depends on what ran before.
    pub partial_computations: usize,
    /// Number of partial computations answered from the per-query cache.
    pub partial_cache_hits: usize,
    /// Number of (subgraph, pair) combinations examined by the refine steps.
    pub subgraphs_examined: usize,
    /// Number of candidate complete paths generated across all iterations.
    pub candidates_generated: usize,
    /// Communication cost in vertex units: reference paths broadcast to workers plus
    /// partial paths returned to the query coordinator (Section 5.6.1).
    pub vertices_transferred: usize,
    /// Spur searches run by the reference-path enumeration and the partial FindKSP
    /// computations together.
    pub spur_searches: usize,
    /// Iterations whose refine produced no candidate. A candidate's canonical
    /// decomposition is the hop sequence of the reference that produced it, so
    /// no two references of one query yield the same route: an iteration found
    /// no new route exactly when it found no route at all.
    pub barren_iterations: usize,
    /// Partial computations that a subgraph's memo answered because an earlier query
    /// on the same weights ran them (see [`crate::kspdg::refine`]). The one counter
    /// that depends on query history.
    pub partials_reused: usize,
}

/// The set of subgraphs a query's answer depended on, plus whether that set is
/// a *complete* dependency certificate.
///
/// The trace has two parts, collected on the fly:
///
/// * **Level-one lookups** — every subgraph examined while attaching the
///   endpoints to the skeleton and while computing partial k shortest paths in
///   the refine steps. The answer paths' edges all live in these subgraphs,
///   so their distances are a function of exactly this set.
/// * **The survival sweep** — after the filter/refine loop terminates with a
///   k-th answer distance `T`, two balls around the endpoints on the skeleton
///   overlay, split at `α = T/4`. One bounded Dijkstra from the source records
///   the subgraphs of every vertex closer than `α` to it. The search behind the
///   reference FindKSP's heuristic, from the target over the skeleton and the
///   target's attachments ([`TargetDistances`]), is resumed until `α + d >= T`,
///   and the subgraphs of every boundary vertex with `α + d < T` for its
///   distance `d` to the target are recorded too.
///
/// Why that suffices (the meet-in-the-middle argument of bidirectional search):
/// after any weight change confined to untraced subgraphs, take a path that
/// uses an edge of one. Its prefix up to the first untraced subgraph `S1` it
/// uses is unchanged and enters `S1` at a boundary vertex (the endpoints' own
/// subgraphs are traced), so, the overlay's edges being lower bounds, it is at
/// least the overlay distance from the source to that vertex: `α` or more,
/// since `S1` is outside the source ball. Its suffix from the last untraced
/// subgraph `S2` it uses leaves `S2` at a boundary vertex `b`, is unchanged,
/// and is at least the distance `d` from `b` to the target over the skeleton and
/// the target's attachments: the suffix of a simple path never returns to the
/// source, so it needs none of the source's attachments. The two
/// parts do not overlap, so the path is at least `α + d`, which is `T` or more
/// since `S2` is outside the target ball. No weight change outside the trace,
/// increase or decrease, can produce a path shorter than `T`. The test is the
/// sum `α + d < T`, not `d < T − α`, so the split adds no rounding of its own.
/// `α = T/4` is exact in binary; any `α` in `[0, T]` gives a valid
/// certificate, and `α = T` is the source ball alone.
///
/// Together: if a later update batch dirties no subgraph in a complete trace,
/// the answer is *bit-identical* on the new epoch — which is what lets the
/// serving layer's result cache survive epoch publishes selectively instead
/// of clearing wholesale.
///
/// `complete` is `false` when certified tracing is disabled
/// ([`KspDgConfig::collect_trace`], the default — the sweep is pure overhead
/// for callers that never consume the certificate) or when the query loop was
/// cut short by the [`MAX_ITERATIONS`] safety cap, in which case
/// the answer is not certified exact and a cached copy must not outlive its
/// epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// The subgraphs the answer depends on.
    pub subgraphs: SubgraphSet,
    /// Whether the trace certifies the answer (see the type-level docs).
    pub complete: bool,
}

/// The answer to one KSP query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The k shortest paths found, ascending by distance. Fewer than `k` paths are
    /// returned when the graph does not contain `k` distinct simple paths.
    pub paths: Vec<Path>,
    /// Execution statistics.
    pub stats: QueryStats,
    /// The subgraph dependency set of the answer.
    pub trace: QueryTrace,
    /// Wall time the engine spent in the survival sweep that certifies the
    /// trace ([`Duration::ZERO`](std::time::Duration::ZERO) when tracing is
    /// off or the sweep was skipped). The serving layer reports this as its
    /// own span stage, separate from the filter/refine run.
    pub sweep_time: std::time::Duration,
}

impl QueryResult {
    /// Distance of the best path, if any.
    pub fn shortest_distance(&self) -> Option<Weight> {
        self.paths.first().map(|p| p.distance())
    }
}

/// The KSP-DG query engine: runs Algorithm 3 against a [`DtlpIndex`].
#[derive(Debug, Clone)]
pub struct KspDgEngine<'a> {
    index: &'a DtlpIndex,
    config: KspDgConfig,
}

impl<'a> KspDgEngine<'a> {
    /// Creates an engine over the given index with default configuration.
    pub fn new(index: &'a DtlpIndex) -> Self {
        KspDgEngine { index, config: KspDgConfig::default() }
    }

    /// Creates an engine with an explicit configuration.
    pub fn with_config(index: &'a DtlpIndex, config: KspDgConfig) -> Self {
        KspDgEngine { index, config }
    }

    /// The index this engine queries.
    pub fn index(&self) -> &DtlpIndex {
        self.index
    }

    /// Answers the query `q(source, target)` with parameter `k`.
    pub fn query(&self, source: VertexId, target: VertexId, k: usize) -> QueryResult {
        assert!(k >= 1, "k must be at least 1");
        let mut stats = QueryStats::default();
        let mut trace = QueryTrace::default();

        if source == target {
            // The trivial path has no edges: it depends on no subgraph at all,
            // so the empty trace is trivially complete.
            trace.complete = true;
            return QueryResult {
                paths: vec![Path::trivial(source)],
                stats,
                trace,
                sweep_time: std::time::Duration::ZERO,
            };
        }

        // Every search of this query — endpoint attachment, the spur searches of the
        // reference and partial enumerations, and the source half of the survival
        // sweep — runs on `arena`. Two more arenas are made on demand: the target's
        // distances keep one to resume its row's search past what the row settled,
        // and the query's partial-path cache one that every partial FindKSP reuses
        // for its reverse search.
        let mut arena = SearchArena::new();
        let mut to_target = TargetDistances::new(self.index, target, &mut arena);

        // Filter-step search structure: the skeleton graph with the query endpoints
        // attached (Section 5.3 / Step 1 of the Storm deployment).
        let overlay =
            self.build_overlay(source, target, &to_target, &mut arena, &mut trace.subgraphs);
        to_target.add_source(&overlay, source);

        // Reference paths come from FindKSP over the labelled overlay (see the module
        // docs): every spur search is an A* guided by exact unlabelled overlay
        // distances to the target. Those distances are taken without bans or labels,
        // which only remove paths, so the heuristic stays admissible and each spur path
        // is still a shortest one: the reference distances, and so Theorem 3's stopping
        // test, are the ones Yen would produce over the labelled view.
        let states = overlay.labelled(source, target);
        let mut reference_paths =
            FindKsp::with_heuristic(&states, &states, states.source_state(), target, |v| {
                to_target.get(v)
            });
        let mut cache = PartialPathCache::new(k);
        let mut results: Vec<Path> = Vec::new();
        let mut capped = false;

        let mut next_reference = reference_paths.next_path_in(&mut arena);
        while let Some(reference) = next_reference {
            if stats.iterations >= MAX_ITERATIONS {
                capped = true;
                break;
            }
            stats.iterations += 1;
            // Broadcasting the reference path to the workers costs O(|Pλ|) vertices.
            stats.vertices_transferred += reference.num_vertices();

            let candidates = candidate_ksp(
                self.index,
                source,
                states.hops(reference.vertices()),
                &mut cache,
                &mut arena,
                &mut stats,
                &mut trace.subgraphs,
            );
            stats.candidates_generated += candidates.len();
            stats.barren_iterations += candidates.is_empty() as usize;
            results.extend(candidates);
            keep_k_shortest(&mut results, k);

            // Termination (Theorem 3): stop when the k-th best complete path found so
            // far is no longer than the next reference path.
            next_reference = reference_paths.next_path_in(&mut arena);
            if results.len() >= k {
                let kth = results[k - 1].distance();
                match &next_reference {
                    None => break,
                    Some(r) if kth <= r.distance() || kth.approx_eq(r.distance()) => break,
                    Some(_) => {}
                }
            }
        }
        stats.partial_computations = cache.misses();
        stats.partial_cache_hits = cache.hits();
        stats.partials_reused = cache.reused();
        stats.spur_searches += reference_paths.spur_searches();

        let mut sweep_time = std::time::Duration::ZERO;
        if self.config.collect_trace && !capped {
            // Survival sweep (see [`QueryTrace`]): with a full answer, record
            // every subgraph with a boundary vertex closer than `α = T/4` to the
            // source, or with `α + d < T` for its distance `d` to the target. With
            // fewer than k paths the enumeration was exhaustive: every simple s→t
            // path is already in the answer (and traced through its refine
            // subgraphs), and weight updates cannot create new simple paths, so no
            // sweep is needed.
            if results.len() >= k {
                let sweep_started = std::time::Instant::now();
                let bound = results[k - 1].distance();
                let alpha = bound / 4.0;
                arena.settled_within(&overlay, source, alpha, |v| {
                    trace.subgraphs.extend(self.index.subgraphs_of_vertex(v).iter().copied());
                });
                // The target half reads the reference heuristic's distances, settled
                // as far as `α + d < T`.
                to_target.settle_within(alpha, bound);
                for &v in self.index.boundary_vertices() {
                    if alpha + to_target.settled(v) < bound {
                        trace.subgraphs.extend(self.index.subgraphs_of_vertex(v).iter().copied());
                    }
                }
                sweep_time = sweep_started.elapsed();
            }
            trace.complete = true;
        }
        to_target.offer();
        QueryResult { paths: results, stats, trace, sweep_time }
    }

    /// Builds the overlay view attaching non-boundary endpoints to the skeleton,
    /// the target through the attachments its distances carry, recording the
    /// subgraphs whose level-one data the overlay edges are derived from. Each
    /// attachment carries the subgraph it was computed in.
    fn build_overlay(
        &self,
        source: VertexId,
        target: VertexId,
        to_target: &TargetDistances<'_>,
        arena: &mut SearchArena,
        trace: &mut SubgraphSet,
    ) -> OverlayView<'_> {
        trace.extend(self.index.subgraphs_of_vertex(source).iter().copied());
        trace.extend(self.index.subgraphs_of_vertex(target).iter().copied());
        let skeleton = self.index.skeleton();
        let mut overlay = skeleton.overlay();

        if !self.index.is_boundary(source) {
            for &sg in self.index.subgraphs_of_vertex(source) {
                for (b, d) in self.index.subgraph_index(sg).boundary_distances_from(source, arena) {
                    if b == source {
                        continue;
                    }
                    overlay.attach(source, b, d, sg);
                }
            }
        }
        for &(b, d, sg) in to_target.attachments() {
            overlay.attach(b, target, d, sg);
        }
        // If neither endpoint is a boundary vertex and they share a subgraph, neither
        // the skeleton nor an attachment covers the routes that stay inside it; add a
        // direct overlay edge with the in-subgraph shortest distance (a lower bound of
        // any such route). A non-boundary vertex lies in one subgraph only. When one
        // endpoint is a boundary vertex, the other's attachment already reaches it.
        if !self.index.is_boundary(source) && !self.index.is_boundary(target) {
            for sg in self.index.subgraphs_containing_pair(source, target) {
                let subgraph = self.index.subgraph_index(sg).subgraph();
                if let Some(p) = arena.shortest_path(subgraph, source, target, &[], &[]) {
                    overlay.attach(source, target, p.distance(), sg);
                }
            }
        }
        overlay
    }
}

// The serving subsystem's workers share `&DtlpIndex` and run `KspDgEngine`s
// across threads; keep that property from regressing silently.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DtlpIndex>();
    assert_send_sync::<KspDgEngine<'_>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtlp::index::tests::paper_graph;
    use crate::dtlp::{DtlpConfig, DtlpIndex, Hop};
    use ksp_algo::{dijkstra_path, find_ksp, yen_ksp};
    use ksp_graph::GraphView;
    use ksp_graph::{DynamicGraph, GraphBuilder};
    use ksp_workload::{
        QueryWorkload, QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig,
        TrafficModel,
    };
    use std::collections::HashMap;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Checks that KSP-DG and Yen (ground truth on the full graph) return the same
    /// multiset of path distances for the given query.
    fn assert_matches_yen(
        graph: &DynamicGraph,
        index: &DtlpIndex,
        s: VertexId,
        t: VertexId,
        k: usize,
    ) {
        let engine = KspDgEngine::new(index);
        let result = engine.query(s, t, k);
        let expected = yen_ksp(graph, s, t, k);
        assert_eq!(
            result.paths.len(),
            expected.len(),
            "path count mismatch for {s}->{t} k={k}: got {:?}, expected {:?}",
            result.paths,
            expected
        );
        for (got, want) in result.paths.iter().zip(expected.iter()) {
            assert!(
                got.distance().approx_eq(want.distance()),
                "distance mismatch for {s}->{t} k={k}: got {} expected {}",
                got.distance(),
                want.distance()
            );
        }
    }

    #[test]
    fn reproduces_the_paper_running_example() {
        // Example 8 of the paper runs q(v4, v13) with k = 2 on the Figure 3 graph. Our
        // reconstruction of that figure's edge weights is close but not byte-identical
        // (some labels are ambiguous in the figure), so the expected distances below
        // are the exact 2 shortest path distances of *this* reconstruction (17 and 18),
        // cross-checked against Yen's algorithm on the full graph.
        let g = paper_graph();
        let index = DtlpIndex::build(&g, DtlpConfig::new(6, 3)).unwrap();
        let engine = KspDgEngine::new(&index);
        let result = engine.query(v(3), v(12), 2);
        assert_eq!(result.paths.len(), 2);
        assert!(result.paths[0].distance().approx_eq(Weight::new(17.0)));
        assert!(result.paths[1].distance().approx_eq(Weight::new(18.0)));
        assert_matches_yen(&g, &index, v(3), v(12), 2);
        assert!(result.stats.iterations >= 1);
        assert!(result.stats.vertices_transferred > 0);
        assert_eq!(result.shortest_distance(), Some(result.paths[0].distance()));
    }

    #[test]
    fn matches_yen_for_boundary_endpoint_queries() {
        let net =
            RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(250)).generate(41).unwrap();
        let index = DtlpIndex::build(&net.graph, DtlpConfig::new(18, 2)).unwrap();
        let workload = QueryWorkload::generate_from_candidates(
            index.boundary_vertices(),
            QueryWorkloadConfig::new(12, 3),
            3,
        );
        for q in workload.iter() {
            assert_matches_yen(&net.graph, &index, q.source, q.target, q.k);
        }
    }

    #[test]
    fn matches_yen_for_arbitrary_endpoint_queries() {
        let net =
            RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(220)).generate(43).unwrap();
        let index = DtlpIndex::build(&net.graph, DtlpConfig::new(15, 2)).unwrap();
        let workload = QueryWorkload::generate(&net.graph, QueryWorkloadConfig::new(12, 2), 5);
        for q in workload.iter() {
            assert_matches_yen(&net.graph, &index, q.source, q.target, q.k);
        }
    }

    #[test]
    fn matches_yen_after_traffic_updates() {
        let mut net =
            RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(200)).generate(47).unwrap();
        let mut index = DtlpIndex::build(&net.graph, DtlpConfig::new(15, 2)).unwrap();
        let mut traffic = TrafficModel::new(&net.graph, TrafficConfig::new(0.4, 0.4), 9);
        for _ in 0..3 {
            let batch = traffic.next_snapshot();
            net.graph.apply_batch(&batch).unwrap();
            index.apply_batch(&batch).unwrap();
        }
        let workload = QueryWorkload::generate(&net.graph, QueryWorkloadConfig::new(10, 2), 19);
        for q in workload.iter() {
            assert_matches_yen(&net.graph, &index, q.source, q.target, q.k);
        }
    }

    #[test]
    fn tied_bounding_paths_keep_post_update_answers_exact() {
        // The benchmark's network (1 200 vertices, z = 50, ξ = 2) after four global
        // batches of seed 301: between boundary vertices v652 and v694 two routes tie
        // at 23 vfrags, and once the untracked one became the shorter, a bound built
        // from the other made the skeleton overestimate it and the query stop early
        // with a wrong shortest path.
        let mut graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(1200))
            .generate(2020)
            .unwrap()
            .graph;
        let mut index = DtlpIndex::build(&graph, DtlpConfig::new(50, 2)).unwrap();
        let mut traffic = TrafficModel::new(&graph, TrafficConfig::default(), 301);
        for _ in 0..4 {
            let batch = traffic.next_snapshot();
            graph.apply_batch(&batch).unwrap();
            index.apply_batch(&batch).unwrap();
        }
        assert_matches_yen(&graph, &index, v(652), v(1052), 3);
    }

    #[test]
    fn same_subgraph_non_boundary_endpoints_are_answered() {
        let net =
            RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(150)).generate(53).unwrap();
        let index = DtlpIndex::build(&net.graph, DtlpConfig::new(30, 2)).unwrap();
        // Find two non-boundary vertices sharing a subgraph.
        let pair = (0..net.graph.num_vertices() as u32)
            .flat_map(|a| (0..net.graph.num_vertices() as u32).map(move |b| (v(a), v(b))))
            .find(|&(a, b)| {
                a != b
                    && !index.is_boundary(a)
                    && !index.is_boundary(b)
                    && index.subgraphs_containing_pair(a, b).next().is_some()
            });
        if let Some((a, b)) = pair {
            assert_matches_yen(&net.graph, &index, a, b, 2);
        }
    }

    #[test]
    fn identical_endpoints_return_the_trivial_path() {
        let g = paper_graph();
        let index = DtlpIndex::build(&g, DtlpConfig::new(6, 2)).unwrap();
        let engine = KspDgEngine::new(&index);
        let result = engine.query(v(4), v(4), 3);
        assert_eq!(result.paths.len(), 1);
        assert_eq!(result.paths[0].num_edges(), 0);
        assert_eq!(result.stats.iterations, 0);
    }

    #[test]
    fn unreachable_targets_return_no_paths() {
        let mut b = GraphBuilder::undirected(6);
        b.edge(0, 1, 2).edge(1, 2, 2).edge(3, 4, 2).edge(4, 5, 2);
        let g = b.build().unwrap();
        let index = DtlpIndex::build(&g, DtlpConfig::new(3, 1)).unwrap();
        let engine = KspDgEngine::new(&index);
        let result = engine.query(v(0), v(5), 2);
        assert!(result.paths.is_empty());
    }

    #[test]
    fn endpoints_with_no_overlay_attachment_return_no_paths() {
        // Vertex 7 is isolated: its subgraph has no boundary vertex, so the overlay
        // attaches it to nothing, and its id lies above every skeleton id. The guided
        // reference search must treat it as unreachable, as source and as target.
        let mut b = GraphBuilder::undirected(8);
        b.edge(0, 1, 2).edge(1, 2, 2).edge(2, 3, 2).edge(3, 4, 2).edge(4, 5, 2).edge(5, 6, 2);
        let g = b.build().unwrap();
        let index = DtlpIndex::build(&g, DtlpConfig::new(3, 1)).unwrap();
        assert!(!index.is_boundary(v(7)));
        assert!(index.skeleton().vertices().all(|x| x < v(7)));
        let engine = KspDgEngine::with_config(&index, KspDgConfig::default().with_trace());
        for (s, t) in [(v(0), v(7)), (v(7), v(0)), (v(7), v(3))] {
            let result = engine.query(s, t, 3);
            assert!(result.paths.is_empty(), "{s}->{t}");
            assert_eq!(result.stats.iterations, 0);
            assert!(result.trace.complete);
        }
    }

    #[test]
    fn directed_networks_match_yen_after_traffic_updates() {
        // The only directed index the other suites query is at epoch 0; this one runs
        // the guided reference search over a directed skeleton's in-adjacency after
        // three traffic batches, for k = 1..5. The batches change a road's two
        // directions independently and widely (τ = 0.9), so a reverse search that read
        // out-edges for in-edges would misguide the search and fail here.
        let mut net = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(200).directed())
            .generate(29)
            .unwrap();
        assert!(net.graph.is_directed());
        let mut index = DtlpIndex::build(&net.graph, DtlpConfig::new(15, 2)).unwrap();
        assert!(index.is_directed());
        let mut traffic = TrafficModel::new(&net.graph, TrafficConfig::new(0.5, 0.9), 13);
        for _ in 0..3 {
            let batch = traffic.next_snapshot();
            net.graph.apply_batch(&batch).unwrap();
            index.apply_batch(&batch).unwrap();
        }
        for k in 1..=5 {
            let workload =
                QueryWorkload::generate(&net.graph, QueryWorkloadConfig::new(6, k), 31 + k as u64);
            for q in workload.iter() {
                assert_matches_yen(&net.graph, &index, q.source, q.target, q.k);
            }
        }
    }

    #[test]
    fn higher_xi_never_increases_iterations() {
        // Figure 24: more bounding paths tighten the bounds and reduce iterations.
        let net =
            RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(300)).generate(61).unwrap();
        let mut g = net.graph.clone();
        let mut traffic = TrafficModel::new(&g, TrafficConfig::new(0.5, 0.6), 3);
        let batch = traffic.next_snapshot();
        g.apply_batch(&batch).unwrap();

        let mut index_lo = DtlpIndex::build(&net.graph, DtlpConfig::new(20, 1)).unwrap();
        let mut index_hi = DtlpIndex::build(&net.graph, DtlpConfig::new(20, 6)).unwrap();
        index_lo.apply_batch(&batch).unwrap();
        index_hi.apply_batch(&batch).unwrap();

        let workload = QueryWorkload::generate(&g, QueryWorkloadConfig::new(8, 6), 71);
        let total = |index: &DtlpIndex| -> usize {
            let engine = KspDgEngine::new(index);
            workload.iter().map(|q| engine.query(q.source, q.target, q.k).stats.iterations).sum()
        };
        let iters_lo = total(&index_lo);
        let iters_hi = total(&index_hi);
        assert!(
            iters_hi <= iters_lo,
            "ξ=6 used more iterations ({iters_hi}) than ξ=1 ({iters_lo})"
        );
    }

    #[test]
    fn trace_covers_answer_paths_and_is_complete() {
        let net =
            RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(250)).generate(91).unwrap();
        let index = DtlpIndex::build(&net.graph, DtlpConfig::new(18, 2)).unwrap();
        let engine = KspDgEngine::with_config(&index, KspDgConfig::default().with_trace());
        let workload = QueryWorkload::generate(&net.graph, QueryWorkloadConfig::new(10, 3), 17);
        for q in workload.iter() {
            let result = engine.query(q.source, q.target, q.k);
            assert!(result.trace.complete, "uncapped queries must certify their trace");
            assert!(!result.trace.subgraphs.is_empty());
            // Every edge of every answer path is owned by a traced subgraph —
            // the invariant that makes trace-disjoint updates unable to move
            // any answer distance.
            for path in &result.paths {
                for (u, v) in path.edges() {
                    let e = net
                        .graph
                        .edge_ids()
                        .find(|&e| {
                            let rec = net.graph.edge(e);
                            (rec.u == u && rec.v == v) || (rec.u == v && rec.v == u)
                        })
                        .expect("answer edge exists in the graph");
                    assert!(
                        result.trace.subgraphs.contains(index.owner_of_edge(e)),
                        "answer edge {u}->{v} owned by an untraced subgraph"
                    );
                }
            }
        }
        // The trivial query depends on nothing and says so.
        let trivial = engine.query(VertexId(3), VertexId(3), 2);
        assert!(trivial.trace.complete);
        assert!(trivial.trace.subgraphs.is_empty());
    }

    #[test]
    fn trace_disjoint_updates_leave_the_answer_bit_identical() {
        // The survival certificate end to end at the engine level: apply a
        // batch touching only subgraphs *outside* a query's trace, and the
        // answer recomputed from scratch on the updated index must be
        // bit-identical to the pre-update answer — increase or decrease.
        let net =
            RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(300)).generate(97).unwrap();
        let index = DtlpIndex::build(&net.graph, DtlpConfig::new(16, 2)).unwrap();
        let engine = KspDgEngine::with_config(&index, KspDgConfig::default().with_trace());
        let workload = QueryWorkload::generate(&net.graph, QueryWorkloadConfig::new(12, 2), 23);
        let mut exercised = 0;
        for q in workload.iter() {
            let before = engine.query(q.source, q.target, q.k);
            assert!(before.trace.complete);
            // Perturb every edge owned by untraced subgraphs, halving half of
            // them (decreases are the dangerous direction: they could open new
            // shortcuts if the trace under-covered).
            let updates: Vec<ksp_graph::WeightUpdate> = net
                .graph
                .edge_ids()
                .filter(|&e| !before.trace.subgraphs.contains(index.owner_of_edge(e)))
                .enumerate()
                .map(|(i, e)| {
                    let factor = if i % 2 == 0 { 0.5 } else { 1.7 };
                    ksp_graph::WeightUpdate::new(
                        e,
                        Weight::new(net.graph.weight(e).value() * factor),
                    )
                })
                .collect();
            if updates.is_empty() {
                continue;
            }
            exercised += 1;
            let mut updated = index.clone();
            updated.apply_batch(&ksp_graph::UpdateBatch::new(updates)).unwrap();
            let after = KspDgEngine::new(&updated).query(q.source, q.target, q.k);
            assert_eq!(before.paths.len(), after.paths.len(), "{q:?} answer size changed");
            for (a, b) in before.paths.iter().zip(after.paths.iter()) {
                assert_eq!(a.vertices(), b.vertices(), "{q:?} answer route changed");
                assert_eq!(
                    a.distance().value().to_bits(),
                    b.distance().value().to_bits(),
                    "{q:?} answer distance changed"
                );
            }
        }
        assert!(exercised > 0, "at least one query must have untraced subgraphs to perturb");
    }

    #[test]
    fn shrinking_every_untraced_subgraph_moves_no_answer() {
        // The two-ball certificate against the updates most likely to break it: every
        // edge of every untraced subgraph falls to 2 % or to 30 % of its weight, as
        // one batch, and as two batches splitting the subgraphs by id parity (each
        // dirtying fewer subgraphs, so maintenance may take its local repair path).
        // Every answer after every batch must keep its routes and distance bits.
        let (mut checked, mut perturbed) = (0, 0);
        let mut moved = Vec::new();
        for directed in [false, true] {
            let mut config = RoadNetworkConfig::with_vertices(300);
            config.directed = directed;
            let graph = RoadNetworkGenerator::new(config).generate(97).unwrap().graph;
            let index = DtlpIndex::build(&graph, DtlpConfig::new(16, 2)).unwrap();
            let engine = KspDgEngine::with_config(&index, KspDgConfig::default().with_trace());
            let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(40, 3), 23);
            for q in workload.iter() {
                let before = engine.query(q.source, q.target, q.k);
                assert!(before.trace.complete);
                let answer = |r: &QueryResult| {
                    let bits = |p: &Path| (p.vertices().to_vec(), p.distance().value().to_bits());
                    r.paths.iter().map(bits).collect::<Vec<_>>()
                };
                let untraced: Vec<_> = graph
                    .edge_ids()
                    .filter(|&e| !before.trace.subgraphs.contains(index.owner_of_edge(e)))
                    .collect();
                for factor in [0.02, 0.30] {
                    let scaled = |keep: &dyn Fn(u32) -> bool| {
                        let updates = untraced
                            .iter()
                            .filter(|&&e| keep(index.owner_of_edge(e).0))
                            .map(|&e| ksp_graph::WeightUpdate::new(e, graph.weight(e) * factor))
                            .collect();
                        ksp_graph::UpdateBatch::new(updates)
                    };
                    let requery = |updated: &DtlpIndex| {
                        answer(&KspDgEngine::new(updated).query(q.source, q.target, q.k))
                    };
                    let mut whole = index.clone();
                    whole.apply_batch(&scaled(&|_| true)).unwrap();
                    let mut split = index.clone();
                    split.apply_batch(&scaled(&|sg| sg % 2 == 0)).unwrap();
                    let mut answers = vec![requery(&whole), requery(&split)];
                    split.apply_batch(&scaled(&|sg| sg % 2 == 1)).unwrap();
                    answers.push(requery(&split));
                    for after in answers {
                        checked += 1;
                        if after != answer(&before) {
                            moved.push((directed, q.source, q.target, factor));
                        }
                    }
                }
                perturbed += !untraced.is_empty() as usize;
            }
        }
        assert_eq!(checked, 480);
        assert!(perturbed >= 60, "only {perturbed} of 80 queries left a subgraph untraced");
        assert!(moved.is_empty(), "{} of {checked} answers moved: {moved:?}", moved.len());
    }

    /// Every simple `s → t` route of `graph` no longer than `budget`, with its
    /// length, by depth-first search pruned by exact distances to `t`.
    fn simple_routes(
        graph: &DynamicGraph,
        s: VertexId,
        t: VertexId,
        budget: Weight,
    ) -> Vec<(Vec<VertexId>, Weight)> {
        struct Walk<'g> {
            graph: &'g DynamicGraph,
            to_target: SearchArena,
            t: VertexId,
            budget: Weight,
            out: Vec<(Vec<VertexId>, Weight)>,
        }
        impl Walk<'_> {
            fn walk(&mut self, route: &mut Vec<VertexId>, length: Weight) {
                let at = *route.last().expect("non-empty");
                if at == self.t {
                    self.out.push((route.clone(), length));
                    return;
                }
                for &(next, e) in self.graph.adjacency(at) {
                    let reached = length + self.graph.weight(e);
                    let rest = self.to_target.distance(next);
                    if route.contains(&next) || reached + rest > self.budget {
                        continue;
                    }
                    route.push(next);
                    self.walk(route, reached);
                    route.pop();
                }
            }
        }
        let mut to_target = SearchArena::new();
        to_target.search_from(&graph.reversed(), t);
        let mut walk = Walk { graph, to_target, t, budget, out: Vec::new() };
        walk.walk(&mut vec![s], Weight::ZERO);
        walk.out
    }

    /// The canonical decomposition of a route: its maximal runs of edges owned by one
    /// subgraph, as hops.
    fn canonical_hops(graph: &DynamicGraph, index: &DtlpIndex, route: &[VertexId]) -> Vec<Hop> {
        let mut hops: Vec<Hop> = Vec::new();
        for pair in route.windows(2) {
            let e = graph.edge_between(pair[0], pair[1]).expect("route edges exist");
            let owner = index.owner_of_edge(e);
            match hops.last_mut() {
                Some(hop) if hop.subgraph == owner => hop.to = pair[1],
                _ => hops.push(Hop { subgraph: owner, from: pair[0], to: pair[1] }),
            }
        }
        hops
    }

    #[test]
    fn every_route_has_its_canonical_decomposition_enumerated() {
        // Every simple route of the full graph must find its canonical decomposition
        // among the labelled references, with a bound sum no greater than its length,
        // and no reference may take two hops in a row in one subgraph or repeat a
        // vertex. On the Figure 3 graph, undirected and directed, the enumeration runs
        // to exhaustion and every simple route is checked. On a 54-vertex network it
        // has tens of thousands of references per pair, so there it runs past twice
        // the shortest distance and every route up to that length is checked: a
        // route's canonical reference is no longer than the route.
        let directed_paper = {
            let mut b = GraphBuilder::directed(19);
            for u in 0..19u32 {
                for (w, weight) in paper_graph().neighbors(v(u)) {
                    // One direction of each road is a unit slower; a few are one-way.
                    if (u + w.0) % 5 != 0 || u < w.0 {
                        b.edge(u, w.0, weight.value() as u32 + (u < w.0) as u32);
                    }
                }
            }
            b.build().unwrap()
        };
        let generated = |directed: bool| {
            let mut config = RoadNetworkConfig::with_vertices(60);
            config.directed = directed;
            RoadNetworkGenerator::new(config).generate(7).unwrap().graph
        };
        let networks = [
            (paper_graph(), 6, false),
            (directed_paper, 6, false),
            (generated(false), 15, true),
            (generated(true), 15, true),
        ];
        let (mut routes_checked, mut pairs_checked) = (0, 0);
        for (graph, z, budgeted) in &networks {
            let index = DtlpIndex::build(graph, DtlpConfig::new(*z, 2)).unwrap();
            assert!(index.num_subgraphs() >= 3);
            let engine = KspDgEngine::new(&index);
            let n = graph.num_vertices() as u64;
            let mut rng = ksp_workload::Xoshiro256::seed_from_u64(n);
            let mut pairs = 0;
            while pairs < 6 {
                let (s, t) = (v(rng.next_bounded(n) as u32), v(rng.next_bounded(n) as u32));
                let Some(shortest) = dijkstra_path(graph, s, t).filter(|_| s != t) else {
                    continue;
                };
                let budget = if *budgeted { shortest.distance() * 2.0 } else { Weight::INFINITY };
                let mut arena = SearchArena::new();
                let mut to_target = TargetDistances::new(&index, t, &mut arena);
                let overlay =
                    engine.build_overlay(s, t, &to_target, &mut arena, &mut SubgraphSet::new());
                to_target.add_source(&overlay, s);
                let states = overlay.labelled(s, t);
                let mut enumeration =
                    FindKsp::with_heuristic(&states, &states, states.source_state(), t, |x| {
                        to_target.get(x)
                    });
                let mut references: HashMap<Vec<Hop>, Weight> = HashMap::new();
                while let Some(reference) = enumeration.next_path_in(&mut arena) {
                    let hops: Vec<Hop> = states.hops(reference.vertices()).collect();
                    for pair in hops.windows(2) {
                        assert_ne!(pair[0].subgraph, pair[1].subgraph, "{s}->{t}: {hops:?}");
                    }
                    let mut vertices = vec![s];
                    vertices.extend(hops.iter().map(|h| h.to));
                    assert!(Path::is_simple(&vertices), "{s}->{t}: {hops:?}");
                    assert!(references.insert(hops, reference.distance()).is_none());
                    if reference.distance() > budget {
                        break;
                    }
                }
                for (route, length) in simple_routes(graph, s, t, budget) {
                    let hops = canonical_hops(graph, &index, &route);
                    let bound = references.get(&hops).unwrap_or_else(|| {
                        panic!("{s}->{t}: route {route:?} has no reference {hops:?}")
                    });
                    assert!(
                        *bound <= length || bound.approx_eq(length),
                        "{s}->{t}: bound {bound} over the route's length {length}"
                    );
                    routes_checked += 1;
                }
                pairs += 1;
            }
            pairs_checked += pairs;
        }
        assert_eq!(pairs_checked, 24);
        assert!(routes_checked >= 1_000, "only {routes_checked} routes checked");
    }

    #[test]
    fn spur_searches_are_counted_and_repeat_exactly() {
        let g = paper_graph();
        let index = DtlpIndex::build(&g, DtlpConfig::new(6, 1)).unwrap();
        let engine = KspDgEngine::new(&index);
        let first = engine.query(v(3), v(12), 5).stats;
        assert!(first.spur_searches > 0);
        // The repeat reads its boundary-pair partials from the subgraphs' memos, and
        // is charged what computing them cost: only `partials_reused` differs.
        let second = engine.query(v(3), v(12), 5).stats;
        assert_eq!((first.partials_reused, second.partials_reused > 0), (0, true));
        assert_eq!(QueryStats { partials_reused: 0, ..second }, first);
    }

    #[test]
    fn a_huge_k_returns_every_route_twice_alike() {
        // `k` reaches the engine unchecked but for zero. Asked for `usize::MAX` paths,
        // a query returns every simple route whole-graph FindKSP finds, and so does
        // its repeat, which reads the boundary-pair partials from the memos.
        let g = paper_graph();
        let index = DtlpIndex::build(&g, DtlpConfig::new(6, 1)).unwrap();
        let engine = KspDgEngine::new(&index);
        let bits = |paths: &[Path]| -> Vec<(Vec<VertexId>, u64)> {
            paths.iter().map(|p| (p.vertices().to_vec(), p.distance().value().to_bits())).collect()
        };
        let want = find_ksp(&g, v(3), v(12), usize::MAX);
        let first = engine.query(v(3), v(12), usize::MAX);
        let second = engine.query(v(3), v(12), usize::MAX);
        assert_eq!(first.paths.len(), want.len());
        for (got, want) in first.paths.iter().zip(&want) {
            assert!(got.distance().approx_eq(want.distance()));
        }
        assert_eq!(bits(&second.paths), bits(&first.paths));
        assert_eq!((first.stats.partials_reused, second.stats.partials_reused > 0), (0, true));
    }

    #[test]
    fn stats_account_for_cache_effectiveness() {
        let g = paper_graph();
        let index = DtlpIndex::build(&g, DtlpConfig::new(6, 1)).unwrap();
        let engine = KspDgEngine::new(&index);
        let result = engine.query(v(3), v(12), 5);
        // With k = 5 several iterations are needed; the cache should absorb repeats.
        assert!(result.stats.partial_computations > 0);
        assert!(result.stats.iterations >= 1);
        assert!(result.stats.subgraphs_examined >= result.stats.partial_computations);
    }
}
