//! The iterative filter-and-refine KSP-DG query loop (Algorithm 3, Theorem 3).

use crate::dtlp::{DtlpIndex, OverlayView};
use crate::kspdg::refine::{candidate_ksp, PartialPathCache};
use ksp_algo::path::keep_k_shortest;
use ksp_algo::{FindKsp, Path, SearchArena};
use ksp_graph::{SubgraphSet, VertexId, Weight};

/// Configuration of the query engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KspDgConfig {
    /// Safety cap on the number of filter/refine iterations per query. The paper shows
    /// the number of iterations stays near `k` in practice (Section 5.5); the cap only
    /// guards against pathological inputs.
    pub max_iterations: usize,
    /// Whether queries produce a *certified* [`QueryTrace`] — i.e. run the
    /// survival sweep after the answer is found. Off by default: the sweep
    /// costs one extra bounded Dijkstra over the skeleton overlay, which only
    /// pays for itself when something consumes the certificate (the serving
    /// layer's cache-survival machinery turns it on). With it off, the cheap
    /// level-one recording still happens but `QueryTrace::complete` stays
    /// `false`, so nothing downstream can mistake the trace for a
    /// certificate.
    pub collect_trace: bool,
}

impl Default for KspDgConfig {
    fn default() -> Self {
        KspDgConfig { max_iterations: 10_000, collect_trace: false }
    }
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
    /// Number of partial k-shortest-path computations actually performed (cache
    /// misses); Operation (2) of the computation-cost analysis.
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
///   k-th answer distance `T`, one bounded Dijkstra sweeps the skeleton
///   overlay from the source out to distance `T` and records the subgraphs of
///   every settled vertex. Any subgraph outside the sweep is provably too far
///   for *any* weight change inside it — increase or decrease — to produce a
///   new path shorter than `T`: a path entering such a subgraph first touches
///   one of its boundary vertices, whose overlay distance from the source
///   already lower-bounds the path at `T` or more.
///
/// Together: if a later update batch dirties no subgraph in a complete trace,
/// the answer is *bit-identical* on the new epoch — which is what lets the
/// serving layer's result cache survive epoch publishes selectively instead
/// of clearing wholesale.
///
/// `complete` is `false` when certified tracing is disabled
/// ([`KspDgConfig::collect_trace`], the default — the sweep is pure overhead
/// for callers that never consume the certificate) or when the query loop was
/// cut short by the [`KspDgConfig::max_iterations`] safety cap, in which case
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
        // reference and partial enumerations, and the survival sweep — runs on
        // `arena`. The two FindKSP heuristics, each a reverse search resumed on
        // demand, keep their own: one for the reference paths over the overlay, one
        // reused by every partial computation inside a subgraph.
        let mut arena = SearchArena::new();
        let mut reference_heuristic = SearchArena::new();
        let mut partial_heuristic = SearchArena::new();

        // Filter-step search structure: the skeleton graph with the query endpoints
        // attached (Section 5.3 / Step 1 of the Storm deployment).
        let overlay = self.build_overlay(source, target, &mut arena, &mut trace.subgraphs);

        // Reference paths come from FindKSP over the overlay: every spur search is an A*
        // guided by exact overlay distances to the target. Those distances are taken
        // without bans, and a spur's bans only remove paths, so the heuristic stays
        // admissible and each spur path is still a shortest one: the reference
        // distances, and so Theorem 3's stopping test, are the ones Yen would produce.
        let reverse = overlay.reversed();
        let mut reference_paths =
            FindKsp::new(&overlay, &reverse, source, target, &mut reference_heuristic);
        let mut cache = PartialPathCache::new(k);
        let mut results: Vec<Path> = Vec::new();
        let mut capped = false;

        let mut next_reference = reference_paths.next_path_in(&mut arena);
        while let Some(reference) = next_reference {
            if stats.iterations >= self.config.max_iterations {
                capped = true;
                break;
            }
            stats.iterations += 1;
            // Broadcasting the reference path to the workers costs O(|Pλ|) vertices.
            stats.vertices_transferred += reference.num_vertices();

            let candidates = candidate_ksp(
                self.index,
                reference.vertices(),
                &mut cache,
                &mut arena,
                &mut partial_heuristic,
                &mut stats,
                &mut trace.subgraphs,
            );
            stats.candidates_generated += candidates.len();
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
        stats.spur_searches += reference_paths.spur_searches();

        let mut sweep_time = std::time::Duration::ZERO;
        if self.config.collect_trace && !capped {
            // Survival sweep (see [`QueryTrace`]): with a full answer, record
            // every subgraph whose boundary lies within the k-th distance of
            // the source — outside that ball no weight change can produce a
            // path short enough to alter the answer. With fewer than k paths
            // the enumeration was exhaustive: every simple s→t path is already
            // in the answer (and traced through its refine subgraphs), and
            // weight updates cannot create new simple paths, so no sweep is
            // needed.
            if results.len() >= k {
                let sweep_started = std::time::Instant::now();
                let bound = results[k - 1].distance();
                arena.settled_within(&overlay, source, bound, |v| {
                    trace.subgraphs.extend(self.index.subgraphs_of_vertex(v).iter().copied());
                });
                sweep_time = sweep_started.elapsed();
            }
            trace.complete = true;
        }
        QueryResult { paths: results, stats, trace, sweep_time }
    }

    /// Builds the overlay view attaching non-boundary endpoints to the skeleton,
    /// recording the subgraphs whose level-one data the overlay edges are
    /// derived from.
    fn build_overlay(
        &self,
        source: VertexId,
        target: VertexId,
        arena: &mut SearchArena,
        trace: &mut SubgraphSet,
    ) -> OverlayView<'_> {
        trace.extend(self.index.subgraphs_of_vertex(source).iter().copied());
        trace.extend(self.index.subgraphs_of_vertex(target).iter().copied());
        let skeleton = self.index.skeleton();
        let directed = self.index.is_directed();
        let mut overlay = skeleton.overlay();

        if !self.index.is_boundary(source) {
            for &sg in self.index.subgraphs_of_vertex(source) {
                for (b, d) in self.index.subgraph_index(sg).boundary_distances_from(source, arena) {
                    if b == source {
                        continue;
                    }
                    if directed {
                        overlay.add_edge(source, b, d);
                    } else {
                        overlay.add_undirected_edge(source, b, d);
                    }
                }
            }
        }
        if !self.index.is_boundary(target) {
            for &sg in self.index.subgraphs_of_vertex(target) {
                for (b, d) in self.index.subgraph_index(sg).boundary_distances_to(target, arena) {
                    if b == target {
                        continue;
                    }
                    if directed {
                        overlay.add_edge(b, target, d);
                    } else {
                        overlay.add_undirected_edge(b, target, d);
                    }
                }
            }
        }
        // If the endpoints co-occur in a subgraph and at least one of them is not a
        // boundary vertex, the skeleton has no edge covering paths that stay entirely
        // inside that subgraph; add a direct overlay edge with the within-subgraph
        // shortest distance (a valid lower bound of any such path).
        if !self.index.is_boundary(source) || !self.index.is_boundary(target) {
            let best = self
                .index
                .subgraphs_containing_pair(source, target)
                .filter_map(|sg| {
                    let subgraph = self.index.subgraph_index(sg).subgraph();
                    arena.shortest_path(subgraph, source, target, &[], &[]).map(|p| p.distance())
                })
                .min();
            if let Some(d) = best {
                if directed {
                    overlay.add_edge(source, target, d);
                } else {
                    overlay.add_undirected_edge(source, target, d);
                }
            }
        }
        overlay
    }
}

/// A query engine that owns its index behind an [`Arc`](std::sync::Arc), so it can be
/// moved into `'static` worker threads (the serving subsystem's shards) and shared
/// freely.
///
/// Queries are read-only, so any number of `SharedEngine`s (or clones of one) can
/// answer queries against the same index concurrently.
#[derive(Debug, Clone)]
pub struct SharedEngine {
    index: std::sync::Arc<DtlpIndex>,
    config: KspDgConfig,
}

impl SharedEngine {
    /// Creates a shared engine over the given index with default configuration.
    pub fn new(index: std::sync::Arc<DtlpIndex>) -> Self {
        SharedEngine { index, config: KspDgConfig::default() }
    }

    /// Creates a shared engine with an explicit configuration.
    pub fn with_config(index: std::sync::Arc<DtlpIndex>, config: KspDgConfig) -> Self {
        SharedEngine { index, config }
    }

    /// The index this engine queries.
    pub fn index(&self) -> &std::sync::Arc<DtlpIndex> {
        &self.index
    }

    /// Answers the query `q(source, target)` with parameter `k`.
    pub fn query(&self, source: VertexId, target: VertexId, k: usize) -> QueryResult {
        KspDgEngine::with_config(&self.index, self.config).query(source, target, k)
    }
}

// The serving subsystem hands `&DtlpIndex` / `SharedEngine` across threads; keep
// that property from regressing silently.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DtlpIndex>();
    assert_send_sync::<SharedEngine>();
    assert_send_sync::<KspDgEngine<'_>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtlp::{DtlpConfig, DtlpIndex};
    use ksp_algo::yen_ksp;
    use ksp_graph::{DynamicGraph, GraphBuilder};
    use ksp_workload::{
        QueryWorkload, QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig,
        TrafficModel,
    };

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn paper_graph() -> DynamicGraph {
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
        for &(x, y, w) in edges {
            b.edge(x - 1, y - 1, w);
        }
        b.build().unwrap()
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
    fn spur_searches_are_counted_and_repeat_exactly() {
        let g = paper_graph();
        let index = DtlpIndex::build(&g, DtlpConfig::new(6, 1)).unwrap();
        let engine = KspDgEngine::new(&index);
        let first = engine.query(v(3), v(12), 5).stats;
        assert!(first.spur_searches > 0);
        assert_eq!(engine.query(v(3), v(12), 5).stats, first);
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
