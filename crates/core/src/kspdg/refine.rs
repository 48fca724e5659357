//! The refine step of KSP-DG: partial k shortest paths and their join (Algorithm 4).

use crate::dtlp::DtlpIndex;
use crate::kspdg::QueryStats;
use ksp_algo::path::keep_k_shortest;
use ksp_algo::{FindKsp, Path, SearchArena};
use ksp_graph::{SubgraphSet, VertexId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Cache of partial k-shortest-path computations, keyed by the (ordered) vertex pair.
///
/// Two consecutive reference paths usually share many adjacent boundary-vertex pairs
/// (Section 5.2); caching the partial results avoids recomputing them in later
/// iterations of the same query. The cache is per-query: it must be discarded when the
/// underlying weights change.
#[derive(Debug, Clone)]
pub struct PartialPathCache {
    k: usize,
    entries: HashMap<(VertexId, VertexId), Vec<Path>>,
    hits: usize,
    misses: usize,
}

impl PartialPathCache {
    /// Creates an empty cache for partial results of size `k`.
    pub fn new(k: usize) -> Self {
        PartialPathCache { k, entries: HashMap::new(), hits: 0, misses: 0 }
    }

    /// The `k` this cache was created for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of cache misses (i.e. actual partial computations) so far.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Returns the partial k shortest paths from `u` to `v` of `pair`, computing (and
    /// caching) them if necessary. The paths are lent from the cache, not copied.
    ///
    /// The computation examines every subgraph containing both endpoints, runs
    /// FindKSP inside each (Algorithm 4, line 6) — its spur searches on `arena`, its
    /// reverse search from `v` over [`ksp_graph::Subgraph::reversed`] on `heuristic` —
    /// merges the results and keeps the `k` shortest (line 8). Adds the number of
    /// newly computed path-vertices to `stats.vertices_transferred`, modelling the
    /// tuples a SubgraphBolt would send back to the QueryBolt, counts every examined
    /// subgraph in `stats.subgraphs_examined` and every spur search in
    /// `stats.spur_searches`, and records each subgraph in `trace` — the level-one
    /// half of the query's dependency set.
    pub fn partial_ksp(
        &mut self,
        index: &DtlpIndex,
        pair: (VertexId, VertexId),
        arena: &mut SearchArena,
        heuristic: &mut SearchArena,
        stats: &mut QueryStats,
        trace: &mut SubgraphSet,
    ) -> &[Path] {
        let slot = match self.entries.entry(pair) {
            Entry::Occupied(cached) => {
                self.hits += 1;
                return cached.into_mut();
            }
            Entry::Vacant(slot) => slot,
        };
        self.misses += 1;
        let (u, v) = pair;
        let mut merged: Vec<Path> = Vec::new();
        for sg_id in index.subgraphs_containing_pair(u, v) {
            stats.subgraphs_examined += 1;
            trace.insert(sg_id);
            let sg = index.subgraph_index(sg_id).subgraph();
            let reverse = sg.reversed();
            let mut partials = FindKsp::new(sg, &reverse, u, v, heuristic);
            partials.produce_up_to_in(self.k, arena);
            stats.spur_searches += partials.spur_searches();
            merged.extend(partials.into_produced(heuristic));
        }
        keep_k_shortest(&mut merged, self.k);
        stats.vertices_transferred += merged.iter().map(|p| p.num_vertices()).sum::<usize>();
        slot.insert(merged)
    }
}

/// Computes the candidate KSPs for one reference path (Algorithm 4), with the `k` of
/// `cache`, computing missing partials on `arena` and `heuristic` (see
/// [`PartialPathCache::partial_ksp`]).
///
/// `reference` is the vertex sequence of the reference path in the (overlaid) skeleton
/// graph; adjacent vertices always share at least one subgraph. The function joins the
/// partial k shortest paths of each adjacent pair left to right, keeping only the `k`
/// shortest (and only simple) combinations after every join. Returns an empty vector if
/// any adjacent pair is disconnected inside its subgraphs.
pub fn candidate_ksp(
    index: &DtlpIndex,
    reference: &[VertexId],
    cache: &mut PartialPathCache,
    arena: &mut SearchArena,
    heuristic: &mut SearchArena,
    stats: &mut QueryStats,
    trace: &mut SubgraphSet,
) -> Vec<Path> {
    assert!(!reference.is_empty(), "reference path must contain at least one vertex");
    let k = cache.k();
    assert!(k >= 1, "k must be at least 1");
    let mut combined: Vec<Path> = vec![Path::trivial(reference[0])];
    for pair in reference.windows(2) {
        let partials = cache.partial_ksp(index, (pair[0], pair[1]), arena, heuristic, stats, trace);
        if partials.is_empty() {
            return Vec::new();
        }
        let mut next: Vec<Path> = Vec::with_capacity(combined.len() * partials.len());
        for left in &combined {
            for right in partials {
                if let Some(joined) = left.concat(right) {
                    next.push(joined);
                }
            }
        }
        keep_k_shortest(&mut next, k);
        if next.is_empty() {
            return Vec::new();
        }
        combined = next;
    }
    combined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtlp::{DtlpConfig, DtlpIndex};
    use ksp_algo::dijkstra_path;
    use ksp_graph::GraphBuilder;

    /// Arenas and accounting sinks for one refine call.
    fn sinks() -> (SearchArena, SearchArena, QueryStats, SubgraphSet) {
        (SearchArena::new(), SearchArena::new(), QueryStats::default(), SubgraphSet::new())
    }

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// The paper's Figure 3 graph with z = 6 (the running example of Section 5.2).
    fn paper_index() -> DtlpIndex {
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
        let g = b.build().unwrap();
        DtlpIndex::build(&g, DtlpConfig::new(6, 3)).unwrap()
    }

    #[test]
    fn partial_ksp_matches_subgraph_shortest_paths() {
        let index = paper_index();
        let mut cache = PartialPathCache::new(2);
        let (mut arena, mut heuristic, mut stats, mut trace) = sinks();
        // Pick two boundary vertices that share a subgraph.
        let pair = index
            .boundary_vertices()
            .iter()
            .flat_map(|&a| index.boundary_vertices().iter().map(move |&b| (a, b)))
            .find(|&(a, b)| a != b && index.subgraphs_containing_pair(a, b).next().is_some())
            .expect("some boundary pair shares a subgraph");
        let partials =
            cache.partial_ksp(&index, pair, &mut arena, &mut heuristic, &mut stats, &mut trace);
        assert!(!partials.is_empty());
        // The best partial equals the best single-subgraph shortest path.
        let best_direct = index
            .subgraphs_containing_pair(pair.0, pair.1)
            .filter_map(|sg| dijkstra_path(index.subgraph_index(sg).subgraph(), pair.0, pair.1))
            .map(|p| p.distance())
            .min()
            .unwrap();
        assert!(partials[0].distance().approx_eq(best_direct));
        assert!(stats.subgraphs_examined >= 1);
        assert!(stats.vertices_transferred > 0);
    }

    #[test]
    fn partial_cache_avoids_recomputation() {
        let index = paper_index();
        let mut cache = PartialPathCache::new(2);
        let (mut arena, mut heuristic, mut stats, mut trace) = sinks();
        let (a, b) = (index.boundary_vertices()[0], index.boundary_vertices()[1]);
        let mut partials = |cache: &mut PartialPathCache, stats: &mut QueryStats| {
            cache
                .partial_ksp(&index, (a, b), &mut arena, &mut heuristic, stats, &mut trace)
                .to_vec()
        };
        let first = partials(&mut cache, &mut stats);
        let t_after_first = stats.vertices_transferred;
        let second = partials(&mut cache, &mut stats);
        assert_eq!(first, second);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(
            stats.vertices_transferred, t_after_first,
            "cache hits must not re-transfer paths"
        );
        assert_eq!(cache.k(), 2);
    }

    #[test]
    fn candidate_ksp_reproduces_the_paper_example_structure() {
        // Example 8: query (v4, v13), k = 2, first reference path ⟨v4, v6, v9, v13⟩.
        // Our reconstruction of Figure 3's weights is not byte-identical to the paper,
        // so the exact candidate distances differ; the structural claims of the example
        // are what is asserted: exactly k candidates are produced, they traverse the
        // reference boundary sequence in order, and none can beat the true shortest
        // path of the full graph.
        let index = paper_index();
        let mut cache = PartialPathCache::new(2);
        let (mut arena, mut heuristic, mut stats, mut trace) = sinks();
        let reference = [v(3), v(5), v(8), v(12)]; // v4, v6, v9, v13 (0-based ids)
        let candidates = candidate_ksp(
            &index,
            &reference,
            &mut cache,
            &mut arena,
            &mut heuristic,
            &mut stats,
            &mut trace,
        );
        assert_eq!(candidates.len(), 2);
        assert!(candidates[0].distance() <= candidates[1].distance());
        for c in &candidates {
            assert_eq!(c.source(), v(3));
            assert_eq!(c.target(), v(12));
            // Candidates follow the reference sequence v4 → v6 → v9 → v13.
            let mut pos = 0;
            for rv in &reference {
                pos = c.vertices()[pos..]
                    .iter()
                    .position(|x| x == rv)
                    .map(|p| p + pos)
                    .expect("reference vertex missing from candidate");
            }
        }
        // No candidate can be shorter than the true shortest path of the reconstructed
        // graph (distance 17, via v4-v6-v9-v14-v13).
        assert!(candidates[0].distance() >= ksp_graph::Weight::new(17.0));
    }

    #[test]
    fn candidate_ksp_returns_simple_paths_following_the_reference_sequence() {
        let index = paper_index();
        let mut cache = PartialPathCache::new(3);
        let (mut arena, mut heuristic, mut stats, mut trace) = sinks();
        let reference = [v(3), v(5), v(8), v(12)];
        let candidates = candidate_ksp(
            &index,
            &reference,
            &mut cache,
            &mut arena,
            &mut heuristic,
            &mut stats,
            &mut trace,
        );
        for c in &candidates {
            assert!(Path::is_simple(c.vertices()));
            assert_eq!(c.source(), v(3));
            assert_eq!(c.target(), v(12));
            // The candidate visits the reference vertices in order.
            let mut pos = 0;
            for rv in &reference {
                pos = c.vertices()[pos..]
                    .iter()
                    .position(|x| x == rv)
                    .map(|p| p + pos)
                    .expect("reference vertex missing from candidate");
            }
        }
        // Candidates are sorted ascending.
        for w in candidates.windows(2) {
            assert!(w[0].distance() <= w[1].distance());
        }
    }

    #[test]
    fn disconnected_pair_produces_no_candidates() {
        let index = paper_index();
        let mut cache = PartialPathCache::new(2);
        let (mut arena, mut heuristic, mut stats, mut trace) = sinks();
        // v1 (id 0) and v19 (id 18) never share a subgraph in this partitioning, so the
        // partial computation finds no subgraph and yields nothing.
        if index.subgraphs_containing_pair(v(0), v(18)).next().is_none() {
            let candidates = candidate_ksp(
                &index,
                &[v(0), v(18)],
                &mut cache,
                &mut arena,
                &mut heuristic,
                &mut stats,
                &mut trace,
            );
            assert!(candidates.is_empty());
        }
    }

    #[test]
    fn single_vertex_reference_path_yields_the_trivial_path() {
        let index = paper_index();
        let mut cache = PartialPathCache::new(2);
        let (mut arena, mut heuristic, mut stats, mut trace) = sinks();
        let candidates = candidate_ksp(
            &index,
            &[v(3)],
            &mut cache,
            &mut arena,
            &mut heuristic,
            &mut stats,
            &mut trace,
        );
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].num_edges(), 0);
    }
}
