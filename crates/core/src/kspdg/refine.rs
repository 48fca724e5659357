//! The refine step of KSP-DG: partial k shortest paths and their join (Algorithm 4).
//!
//! A reference path is a sequence of [`Hop`]s, each a (subgraph, boundary pair) with
//! no two consecutive hops in one subgraph (see [`crate::dtlp::LabelledView`]). The
//! refine step runs one FindKSP per hop, inside that hop's subgraph only, and joins
//! the hops' partial paths left to right.
//!
//! **Why this stays exact.** Subgraphs partition the edges, so a simple route has
//! exactly one *canonical decomposition*: its maximal runs of edges inside one
//! subgraph. Consecutive runs lie in different subgraphs and meet at boundary
//! vertices, so the decomposition is a hop sequence the labelled enumeration
//! produces, and its bound sum is at most the route's length: every hop's weight is
//! a lower bound of the in-subgraph distance between its ends, or that distance
//! itself for an endpoint attachment. The refine of that reference yields the route
//! itself, or k shorter simple routes: each hop keeps its k shortest partials and
//! every join keeps the k shortest simple combinations, so the route's own
//! combination falls out only where k shorter ones displaced it. This is the
//! domination argument of the unlabelled join, applied one hop at a time; the
//! property test `crates/core/tests/engine_vs_findksp.rs` checks it against
//! whole-graph FindKSP.
//! The query loop's side of the argument is in [`crate::kspdg::query`].
//!
//! A by-product: a route's distance is summed over its one decomposition, hop by
//! hop in path order, so its bits depend only on the route and on the weights of its
//! subgraphs, not on which reference found it.
//!
//! **Two scopes of reuse.** A hop's partials are a function of its subgraph's
//! weights, its ends and `k`, so they are kept at two scopes:
//!
//! * *Per query*, by [`PartialPathCache`], keyed by [`Hop`]: consecutive reference
//!   paths share most of their hops (Section 5.2), and a hop seen again in the same
//!   query is a cache hit that counts no work.
//! * *Across queries*, by each [`SubgraphIndex`]'s memo, for hops between two
//!   boundary vertices: queries on the same weights keep meeting the same boundary
//!   pairs. A hop with a non-boundary end (an endpoint attachment) is per query only.
//!   The memo is dropped before its subgraph's weights change, by the rule
//!   `dtlp::memo` states.
//!
//! **Why a memo hit is the computation, bit for bit.** FindKSP produces paths one
//! at a time, and what it produces does not depend on how many it was asked for:
//! the first `k` paths of a run asked for more are those of a run asked for `k`,
//! with the same distance bits. A memo entry keeps the spur searches each prefix
//! cost, so a query asking for fewer paths reads a prefix and is charged what
//! computing that prefix costs; one asking for more recomputes and replaces the
//! entry. A hit records the hop's subgraph in the trace and counts the same
//! `subgraphs_examined`, `spur_searches` and `vertices_transferred` as computing it;
//! only [`QueryStats::partials_reused`] tells the two apart.
//!
//! [`SubgraphIndex`]: crate::dtlp::SubgraphIndex

use crate::dtlp::memo::MemoEntry;
use crate::dtlp::{DtlpIndex, Hop};
use crate::kspdg::QueryStats;
use ksp_algo::path::keep_k_shortest;
use ksp_algo::{FindKsp, Path, SearchArena};
use ksp_graph::{Subgraph, SubgraphSet, VertexId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// FindKSP's first partial paths between two vertices of one subgraph and, for a
/// memo entry, the spur searches each prefix cost. A memo entry holds the paths of
/// the largest `k` asked so far, or all the paths its hop has if fewer.
#[derive(Debug)]
pub(crate) struct Partials {
    paths: Vec<Path>,
    /// `spur_searches[i]` is the number of spur searches a run asked for `i + 1`
    /// paths performs. One entry longer than `paths` when the run ran out of paths:
    /// the last entry is then what a run asked for any larger number performs.
    /// Empty for partials computed for one query alone.
    spur_searches: Vec<usize>,
}

impl Partials {
    /// Runs FindKSP from `from` to `to` inside `subgraph` until it has produced `k`
    /// paths or none remain: its spur searches on `arena`, its reverse search over
    /// [`Subgraph::reversed`] on `heuristic`. Returns the partials and the spur
    /// searches the run performed. With `prefixes` the partials also keep what each
    /// shorter run performs, as a memo entry must; the run then produces one path at
    /// a time, so its cost stays that of the paths the hop has, whatever `k` is.
    pub(crate) fn compute(
        subgraph: &Subgraph,
        from: VertexId,
        to: VertexId,
        k: usize,
        prefixes: bool,
        arena: &mut SearchArena,
        heuristic: &mut SearchArena,
    ) -> (Self, usize) {
        let reverse = subgraph.reversed();
        let mut find = FindKsp::new(subgraph, &reverse, from, to, heuristic);
        let mut spur_searches = Vec::new();
        if prefixes {
            for asked in 1..=k {
                find.produce_up_to_in(asked, arena);
                spur_searches.push(find.spur_searches());
                if find.num_produced() < asked {
                    // Out of paths: a run asked for more stops at the same search.
                    break;
                }
            }
        } else {
            find.produce_up_to_in(k, arena);
        }
        let performed = find.spur_searches();
        (Partials { paths: find.into_produced(heuristic), spur_searches }, performed)
    }

    /// The spur searches a run asked for `k` paths performs; `k` must be within
    /// [`MemoEntry::reach`] of this memo entry.
    fn spur_searches(&self, k: usize) -> usize {
        debug_assert!((1..=self.reach()).contains(&k));
        self.spur_searches[k.min(self.spur_searches.len()) - 1]
    }
}

impl MemoEntry for Partials {
    /// How many paths a run may be asked for and be answered from this memo entry.
    fn reach(&self) -> usize {
        if self.spur_searches.len() > self.paths.len() {
            usize::MAX
        } else {
            self.paths.len()
        }
    }

    fn memory_bytes(&self) -> usize {
        let paths = self.paths.iter().map(|p| {
            std::mem::size_of::<Path>() + p.num_vertices() * std::mem::size_of::<VertexId>()
        });
        std::mem::size_of::<Self>()
            + paths.sum::<usize>()
            + self.spur_searches.len() * std::mem::size_of::<usize>()
    }
}

/// One query's partial k-shortest-path computations, keyed by hop: subgraph and
/// (ordered) vertex pair.
///
/// Two consecutive reference paths usually share many hops (Section 5.2); keeping
/// the partial results avoids recomputing them in later iterations of the same
/// query. On a miss between two boundary vertices the cache asks the subgraph's
/// memo, shared across queries on the same weights, before it computes; see the
/// module docs for the two scopes and when the memo is dropped. Entries are shared
/// with the memo, not copied.
#[derive(Debug)]
pub struct PartialPathCache {
    k: usize,
    /// Each hop's partials and how many of their paths this query uses.
    entries: HashMap<Hop, (Arc<Partials>, usize)>,
    /// The heuristic arena every partial FindKSP reuses for its reverse search.
    heuristic: SearchArena,
    hits: usize,
    misses: usize,
    reused: usize,
}

impl PartialPathCache {
    /// Creates an empty cache for partial results of size `k`.
    pub fn new(k: usize) -> Self {
        PartialPathCache {
            k,
            entries: HashMap::new(),
            heuristic: SearchArena::new(),
            hits: 0,
            misses: 0,
            reused: 0,
        }
    }

    /// The `k` this cache was created for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Number of cache misses so far: partial computations, whether run here or
    /// read from a subgraph's memo.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Number of cache misses a subgraph's memo answered.
    pub fn reused(&self) -> usize {
        self.reused
    }

    /// Returns the partial k shortest paths of `hop`, computing (and caching) them if
    /// necessary. The paths are lent from the cache, not copied.
    ///
    /// The computation runs FindKSP inside the hop's subgraph (Algorithm 4, line 6) —
    /// its spur searches on `arena`, its reverse search from `hop.to` over
    /// [`ksp_graph::Subgraph::reversed`] on the cache's own heuristic arena — unless
    /// both ends are boundary vertices and the subgraph's memo holds it. Either way
    /// it adds the number of path-vertices to `stats.vertices_transferred`, modelling
    /// the tuples a SubgraphBolt would send back to the QueryBolt, counts the
    /// subgraph in `stats.subgraphs_examined` and the computation's spur searches in
    /// `stats.spur_searches`, and records the subgraph in `trace` — the level-one half
    /// of the query's dependency set.
    pub fn partial_ksp(
        &mut self,
        index: &DtlpIndex,
        hop: Hop,
        arena: &mut SearchArena,
        stats: &mut QueryStats,
        trace: &mut SubgraphSet,
    ) -> &[Path] {
        let slot = match self.entries.entry(hop) {
            Entry::Occupied(cached) => {
                self.hits += 1;
                let (partials, used) = cached.into_mut();
                return &partials.paths[..*used];
            }
            Entry::Vacant(slot) => slot,
        };
        self.misses += 1;
        stats.subgraphs_examined += 1;
        trace.insert(hop.subgraph);
        let sg = index.subgraph_index(hop.subgraph);
        let memo =
            (index.is_boundary(hop.from) && index.is_boundary(hop.to)).then_some(&sg.partials);
        let key = (hop.from, hop.to);
        let kept = memo.and_then(|m| m.get(&key)).filter(|kept| self.k <= kept.reach());
        let (partials, spur_searches) = match kept {
            Some(kept) => {
                self.reused += 1;
                let spur_searches = kept.spur_searches(self.k);
                (kept, spur_searches)
            }
            None => {
                let (computed, spur_searches) = Partials::compute(
                    sg.subgraph(),
                    hop.from,
                    hop.to,
                    self.k,
                    memo.is_some(),
                    arena,
                    &mut self.heuristic,
                );
                let computed = Arc::new(computed);
                if let Some(memo) = memo {
                    memo.offer(key, Arc::clone(&computed));
                }
                (computed, spur_searches)
            }
        };
        let used = partials.paths.len().min(self.k);
        stats.spur_searches += spur_searches;
        stats.vertices_transferred +=
            partials.paths[..used].iter().map(|p| p.num_vertices()).sum::<usize>();
        let (partials, used) = slot.insert((partials, used));
        &partials.paths[..*used]
    }
}

/// Computes the candidate KSPs for one reference path (Algorithm 4), with the `k` of
/// `cache`, computing missing partials on `arena` (see
/// [`PartialPathCache::partial_ksp`]).
///
/// The reference path starts at `source` and takes `hops` in order, each starting
/// where the one before ends. The function joins the partial k shortest paths of
/// each hop left to right, keeping only the `k` shortest (and only simple)
/// combinations after every join. Returns an empty vector if any hop is disconnected
/// inside its subgraph.
pub fn candidate_ksp(
    index: &DtlpIndex,
    source: VertexId,
    hops: impl IntoIterator<Item = Hop>,
    cache: &mut PartialPathCache,
    arena: &mut SearchArena,
    stats: &mut QueryStats,
    trace: &mut SubgraphSet,
) -> Vec<Path> {
    let k = cache.k();
    assert!(k >= 1, "k must be at least 1");
    let mut combined: Vec<Path> = vec![Path::trivial(source)];
    for hop in hops {
        let partials = cache.partial_ksp(index, hop, arena, stats, trace);
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
    use ksp_graph::{GraphBuilder, SubgraphId};

    /// The arena and accounting sinks for one refine call.
    fn sinks() -> (SearchArena, QueryStats, SubgraphSet) {
        (SearchArena::new(), QueryStats::default(), SubgraphSet::new())
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

    /// The hops of a vertex sequence, each in the first subgraph holding both ends.
    fn hops(index: &DtlpIndex, vertices: &[VertexId]) -> Vec<Hop> {
        let sg = |a, b| index.subgraphs_containing_pair(a, b).next().unwrap_or(SubgraphId(0));
        let hop = |w: &[VertexId]| Hop { subgraph: sg(w[0], w[1]), from: w[0], to: w[1] };
        vertices.windows(2).map(hop).collect()
    }

    #[test]
    fn partial_ksp_matches_subgraph_shortest_paths() {
        let index = paper_index();
        let mut cache = PartialPathCache::new(2);
        let (mut arena, mut stats, mut trace) = sinks();
        // Pick two boundary vertices that share a subgraph.
        let pair = index
            .boundary_vertices()
            .iter()
            .flat_map(|&a| index.boundary_vertices().iter().map(move |&b| (a, b)))
            .find(|&(a, b)| a != b && index.subgraphs_containing_pair(a, b).next().is_some())
            .expect("some boundary pair shares a subgraph");
        for sg in index.subgraphs_containing_pair(pair.0, pair.1) {
            let hop = Hop { subgraph: sg, from: pair.0, to: pair.1 };
            let partials = cache.partial_ksp(&index, hop, &mut arena, &mut stats, &mut trace);
            // The best partial is the subgraph's own shortest path, and only that
            // subgraph is examined and traced.
            match dijkstra_path(index.subgraph_index(sg).subgraph(), pair.0, pair.1) {
                Some(best) => assert!(partials[0].distance().approx_eq(best.distance())),
                None => assert!(partials.is_empty()),
            }
            assert!(trace.contains(sg));
        }
        assert_eq!(stats.subgraphs_examined, trace.len());
        assert!(stats.vertices_transferred > 0);
    }

    #[test]
    fn partial_cache_avoids_recomputation() {
        let index = paper_index();
        let mut cache = PartialPathCache::new(2);
        let (mut arena, mut stats, mut trace) = sinks();
        let hop = hops(&index, &index.boundary_vertices()[..2])[0];
        let mut partials = |cache: &mut PartialPathCache, stats: &mut QueryStats| {
            cache.partial_ksp(&index, hop, &mut arena, stats, &mut trace).to_vec()
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
        let (mut arena, mut stats, mut trace) = sinks();
        let reference = [v(3), v(5), v(8), v(12)]; // v4, v6, v9, v13 (0-based ids)
        let candidates = candidate_ksp(
            &index,
            reference[0],
            hops(&index, &reference),
            &mut cache,
            &mut arena,
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
        let (mut arena, mut stats, mut trace) = sinks();
        let reference = [v(3), v(5), v(8), v(12)];
        let candidates = candidate_ksp(
            &index,
            reference[0],
            hops(&index, &reference),
            &mut cache,
            &mut arena,
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
        let (mut arena, mut stats, mut trace) = sinks();
        // v1 (id 0) and v19 (id 18) never share a subgraph, so a hop between them
        // inside v1's subgraph finds no partial path and yields nothing.
        assert!(index.subgraphs_containing_pair(v(0), v(18)).next().is_none());
        let hop = Hop { subgraph: index.subgraphs_of_vertex(v(0))[0], from: v(0), to: v(18) };
        let candidates =
            candidate_ksp(&index, v(0), [hop], &mut cache, &mut arena, &mut stats, &mut trace);
        assert!(candidates.is_empty());
    }

    #[test]
    fn single_vertex_reference_path_yields_the_trivial_path() {
        let index = paper_index();
        let mut cache = PartialPathCache::new(2);
        let (mut arena, mut stats, mut trace) = sinks();
        let candidates =
            candidate_ksp(&index, v(3), [], &mut cache, &mut arena, &mut stats, &mut trace);
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].num_edges(), 0);
    }

    /// A fresh FindKSP run for up to `k` paths of `hop`, and its spur searches.
    fn findksp_hop(index: &DtlpIndex, hop: Hop, k: usize) -> (Vec<Path>, usize) {
        let sg = index.subgraph_index(hop.subgraph).subgraph();
        let (reverse, mut heuristic) = (sg.reversed(), SearchArena::new());
        let mut find = FindKsp::new(sg, &reverse, hop.from, hop.to, &mut heuristic);
        find.produce_up_to_in(k, &mut SearchArena::new());
        let spur_searches = find.spur_searches();
        (find.into_produced(&mut heuristic), spur_searches)
    }

    /// Asks a new query's cache for `k` paths of `hop` and checks them against a
    /// fresh FindKSP run: routes, distance bits, spur searches, vertices transferred
    /// and trace. Returns whether the subgraph's memo answered.
    fn memo_run_matches_findksp(index: &DtlpIndex, hop: Hop, k: usize) -> bool {
        let bits = |paths: &[Path]| -> Vec<(Vec<VertexId>, u64)> {
            paths.iter().map(|p| (p.vertices().to_vec(), p.distance().value().to_bits())).collect()
        };
        let mut cache = PartialPathCache::new(k);
        let (mut arena, mut stats, mut trace) = sinks();
        let got = bits(cache.partial_ksp(index, hop, &mut arena, &mut stats, &mut trace));
        let (want, spur_searches) = findksp_hop(index, hop, k);
        let case = format!("{hop:?}, k = {k}");
        assert_eq!(got, bits(&want), "{case}");
        assert_eq!(stats.spur_searches, spur_searches, "{case}");
        let transferred: usize = want.iter().map(|p| p.num_vertices()).sum();
        assert_eq!(stats.vertices_transferred, transferred, "{case}");
        assert!(trace.contains(hop.subgraph), "{case}: a hit is traced too");
        cache.reused() == 1
    }

    /// A hop between the first and last boundary vertex of each subgraph with two.
    fn boundary_hops(index: &DtlpIndex) -> Vec<Hop> {
        let hop = |sg: &Arc<crate::dtlp::SubgraphIndex>| {
            let boundary = sg.subgraph().boundary_vertices();
            let (&from, &to) = boundary.first().zip(boundary.last())?;
            (from != to).then_some(Hop { subgraph: sg.id(), from, to })
        };
        index.subgraph_indexes().iter().filter_map(hop).collect()
    }

    #[test]
    fn memo_prefixes_and_regrowth_match_fresh_findksp_runs() {
        // One boundary hop asked for 5, then 2, then 7 paths, each by a new query's
        // cache over the same index: every run must be a fresh FindKSP run's paths,
        // distance bits and counters, whether the memo answered it (2 reads the
        // prefix of 5) or not (7 regrows the entry unless 5 ran out of paths).
        let (mut regrown, mut ran_out) = (0, 0);
        let road = crate::dtlp::index::tests::road_network(400, 19);
        for index in [paper_index(), DtlpIndex::build(&road, DtlpConfig::new(20, 2)).unwrap()] {
            for hop in boundary_hops(&index) {
                for (run, k) in [5, 2, 7, 7].into_iter().enumerate() {
                    let reused = memo_run_matches_findksp(&index, hop, k);
                    // 5 runs first and 2 reads its prefix; 7 regrows the entry unless
                    // 5 found fewer paths, and the second 7 reads the regrown one.
                    let exhausted_at_5 = run == 2 && findksp_hop(&index, hop, 5).0.len() < 5;
                    assert_eq!(reused, matches!(run, 1 | 3) || exhausted_at_5, "{hop:?} run {run}");
                    regrown += (run == 2 && !reused) as usize;
                    ran_out += exhausted_at_5 as usize;
                }
            }
        }
        assert!(regrown > 0 && ran_out > 0, "regrown {regrown}, ran out {ran_out}");
    }

    #[test]
    fn a_huge_k_costs_only_the_paths_a_hop_has() {
        // `k` reaches the engine unchecked but for zero. A memo entry records one
        // prefix per path the hop has, not one per path asked for, so a run asked
        // for `usize::MAX` paths stops when FindKSP runs out, and the next such run
        // reads the entry.
        let index = paper_index();
        let hops = boundary_hops(&index);
        assert!(!hops.is_empty());
        for hop in hops {
            assert!(!memo_run_matches_findksp(&index, hop, usize::MAX), "{hop:?} computed");
            assert!(memo_run_matches_findksp(&index, hop, usize::MAX), "{hop:?} reused");
            assert!(memo_run_matches_findksp(&index, hop, 2), "{hop:?} prefix");
        }
    }
}
