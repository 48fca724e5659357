//! FindKSP \[21\]: deviation-based KSP guided by a shortest path tree, over any
//! [`GraphView`].
//!
//! FindKSP (Liu et al., *Finding top-k shortest paths with diversity*, TKDE 2018)
//! improves on Yen's algorithm by maintaining a shortest path tree (SPT) rooted at the
//! destination and using it to direct the search for deviation (spur) paths toward the
//! destination. We reproduce the performance-relevant core of that idea: every spur
//! search is an A* search whose heuristic is the exact distance-to-destination taken
//! from the SPT, so it settles only a small neighbourhood instead of a Dijkstra ball.
//! The result set is the same as Yen's, and the growth with `k` is much better.
//!
//! Like Yen's enumerator it spurs each produced path only from the index where that
//! path deviated from its parent (Lawler 1972, see [`crate::yen`]): the spurs before
//! it would repeat searches already run and find no new route, so the answer set is
//! unchanged.
//!
//! It serves twice: as the whole-graph FindKSP baseline of the paper's experiments
//! ([`find_ksp`]), and as the enumerator of KSP-DG's reference paths over the skeleton
//! overlay (Algorithm 3), where it replaces plain Yen.

use crate::dijkstra::SearchArena;
use crate::path::Path;
use crate::yen::{yen_ksp, Deviations};
use ksp_graph::{DynamicGraph, GraphView, VertexId, Weight};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Lazy enumerator of k shortest simple paths using SPT-guided deviations. Its
/// searches run on the caller's [`SearchArena`], passed to [`FindKsp::new`] and
/// [`FindKsp::next_path_in`].
pub struct FindKsp<'a, G: GraphView> {
    view: &'a G,
    source: VertexId,
    target: VertexId,
    /// Exact distance from every vertex to the target (the reverse SPT), by vertex id;
    /// ids at or beyond its length cannot reach the target.
    dist_to_target: Vec<Weight>,
    lists: Deviations,
    /// The A* open list, ordered by (f, g, vertex) and reused across spurs.
    open: BinaryHeap<Reverse<Entry>>,
    /// Number of vertices settled across all spur searches (cost accounting).
    settled_vertices: usize,
}

impl<'a, G: GraphView> FindKsp<'a, G> {
    /// Creates the enumerator for paths from `source` to `target` in `view`, building
    /// the reverse shortest path tree with one search from `target` over `reverse` on
    /// `arena`.
    ///
    /// `reverse` must be `view` with every edge turned around (`view` itself when it
    /// is undirected); [`Transpose`] builds one for a view that keeps no in-adjacency.
    pub fn new<R: GraphView>(
        view: &'a G,
        reverse: &R,
        source: VertexId,
        target: VertexId,
        arena: &mut SearchArena,
    ) -> Self {
        arena.search_from(reverse, target);
        let dist_to_target =
            (0..view.num_vertices() as u32).map(|i| arena.distance(VertexId(i))).collect();
        FindKsp {
            view,
            source,
            target,
            dist_to_target,
            lists: Deviations::default(),
            open: BinaryHeap::new(),
            settled_vertices: 0,
        }
    }

    /// Number of spur searches performed so far.
    pub fn spur_searches(&self) -> usize {
        self.lists.spur_searches
    }

    /// Number of vertices settled across all A* spur searches so far.
    pub fn settled_vertices(&self) -> usize {
        self.settled_vertices
    }

    /// Produces the next shortest simple path, searching on `arena`, or `None` once
    /// no further simple path exists.
    pub fn next_path_in(&mut self, arena: &mut SearchArena) -> Option<Path> {
        self.advance(arena).then(|| self.lists.produced.last().expect("just produced").clone())
    }

    fn advance(&mut self, arena: &mut SearchArena) -> bool {
        let FindKsp { view, source, target, dist_to_target, lists, open, settled_vertices, .. } =
            self;
        let mut search = AStar { arena, open, settled_vertices, h: dist_to_target };
        lists.advance(*view, *source, *target, |from, banned_vertices, banned_edges| {
            search.run(*view, *target, from, banned_vertices, banned_edges)
        })
    }
}

#[derive(PartialEq, Eq)]
struct Entry {
    f: Weight,
    g: Weight,
    vertex: VertexId,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.f
            .cmp(&other.f)
            .then_with(|| self.g.cmp(&other.g))
            .then_with(|| self.vertex.cmp(&other.vertex))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One A* spur search: per-vertex state on a [`SearchArena`] and the enumerator's
/// open list.
struct AStar<'s> {
    arena: &'s mut SearchArena,
    open: &'s mut BinaryHeap<Reverse<Entry>>,
    settled_vertices: &'s mut usize,
    /// The exact distance-to-target heuristic from the reverse SPT.
    h: &'s [Weight],
}

impl AStar<'_> {
    /// The heuristic at `v`: infinite for ids the reverse search did not cover.
    #[inline]
    fn h(&self, v: VertexId) -> Weight {
        self.h.get(v.index()).copied().unwrap_or(Weight::INFINITY)
    }

    /// Goal-directed A* from `from` to `target` using the exact distance-to-target
    /// heuristic `h` from the reverse SPT. The heuristic is admissible and consistent on
    /// the unbanned graph; banning edges/vertices only removes paths, so it remains
    /// admissible and the search stays correct. A vertex with an infinite heuristic
    /// cannot reach the target even without bans, so it is never queued. Banned edges
    /// are checked only when their tail is expanded.
    fn run<G: GraphView>(
        &mut self,
        view: &G,
        target: VertexId,
        from: VertexId,
        banned_vertices: &[VertexId],
        banned_edges: &[(VertexId, VertexId)],
    ) -> Option<Path> {
        let h_from = self.h(from);
        if banned_vertices.contains(&from) || !h_from.is_finite() {
            // Banned, or the target is unreachable from here even without bans.
            return None;
        }
        self.arena.begin(view.num_vertices());
        for &v in banned_vertices {
            self.arena.ban(v);
        }
        self.arena.start(from);
        self.open.clear();
        self.open.push(Reverse(Entry { f: h_from, g: Weight::ZERO, vertex: from }));

        while let Some(Reverse(Entry { g, vertex, .. })) = self.open.pop() {
            if self.arena.is_settled(vertex) {
                continue;
            }
            self.arena.settle(vertex);
            *self.settled_vertices += 1;
            if vertex == target {
                return self.arena.path_to(vertex);
            }
            let edge_bans = banned_edges.iter().any(|&(tail, _)| tail == vertex);
            view.for_each_neighbor(vertex, |to, w| {
                if edge_bans && banned_edges.contains(&(vertex, to)) {
                    return;
                }
                let h_to = self.h(to);
                if !h_to.is_finite() {
                    return;
                }
                let tentative = g + w;
                if self.arena.improve(vertex, to, tentative) {
                    self.open.push(Reverse(Entry {
                        f: tentative + h_to,
                        g: tentative,
                        vertex: to,
                    }));
                }
            });
        }
        None
    }
}

/// A view with every edge of another view turned around, built once by walking every
/// vertex's out-neighbours: the reverse FindKSP searches for its heuristic when the
/// view keeps no in-adjacency of its own.
#[derive(Debug, Clone)]
pub struct Transpose {
    /// By vertex id: (in-neighbour, weight) of every edge entering it.
    radj: Vec<Vec<(VertexId, Weight)>>,
}

impl Transpose {
    /// The transpose of `view`, with its current weights.
    pub fn of<G: GraphView>(view: &G) -> Self {
        let n = view.num_vertices();
        let mut radj: Vec<Vec<(VertexId, Weight)>> = vec![Vec::new(); n];
        for u in (0..n as u32).map(VertexId).filter(|&u| view.contains_vertex(u)) {
            view.for_each_neighbor(u, |to, w| radj[to.index()].push((u, w)));
        }
        Transpose { radj }
    }
}

impl GraphView for Transpose {
    fn num_vertices(&self) -> usize {
        self.radj.len()
    }
    fn contains_vertex(&self, v: VertexId) -> bool {
        v.index() < self.radj.len()
    }
    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        for &(to, w) in self.radj.get(v.index()).map_or(&[][..], Vec::as_slice) {
            f(to, w);
        }
    }
    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.radj.get(u.index())?.iter().find(|&&(to, _)| to == v).map(|&(_, w)| w)
    }
}

/// The FindKSP baseline over a whole graph: the `k` shortest simple paths from
/// `source` to `target`. A directed graph's reverse is built per call.
pub fn find_ksp(graph: &DynamicGraph, source: VertexId, target: VertexId, k: usize) -> Vec<Path> {
    let mut arena = SearchArena::new();
    let mut enumerator = if graph.is_directed() {
        FindKsp::new(graph, &Transpose::of(graph), source, target, &mut arena)
    } else {
        FindKsp::new(graph, graph, source, target, &mut arena)
    };
    while enumerator.lists.produced.len() < k && enumerator.advance(&mut arena) {}
    enumerator.lists.produced
}

/// Debug helper used by tests and benchmarks: checks FindKSP and Yen agree on the
/// distances of the k shortest paths.
pub fn agrees_with_yen(graph: &DynamicGraph, source: VertexId, target: VertexId, k: usize) -> bool {
    let a = find_ksp(graph, source, target, k);
    let b = yen_ksp(graph, source, target, k);
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.distance().approx_eq(y.distance()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_graph::GraphBuilder;
    use ksp_workload::{RoadNetworkConfig, RoadNetworkGenerator, Xoshiro256};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn yen_wikipedia_graph() -> DynamicGraph {
        let mut b = GraphBuilder::directed(6);
        b.edge(0, 1, 3).edge(0, 2, 2).edge(1, 3, 4).edge(2, 1, 1).edge(2, 3, 2).edge(2, 4, 3);
        b.edge(3, 4, 2).edge(3, 5, 1).edge(4, 5, 2);
        b.build().unwrap()
    }

    #[test]
    fn matches_yen_on_the_classic_example() {
        let g = yen_wikipedia_graph();
        let paths = find_ksp(&g, v(0), v(5), 3);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].distance(), Weight::new(5.0));
        assert_eq!(paths[1].distance(), Weight::new(7.0));
        assert_eq!(paths[2].distance(), Weight::new(8.0));
        assert!(agrees_with_yen(&g, v(0), v(5), 6));
    }

    #[test]
    fn matches_yen_on_random_road_networks() {
        let net =
            RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(220)).generate(17).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(4);
        for _ in 0..8 {
            let s = v(rng.next_bounded(net.graph.num_vertices() as u64) as u32);
            let t = v(rng.next_bounded(net.graph.num_vertices() as u64) as u32);
            if s == t {
                continue;
            }
            assert!(agrees_with_yen(&net.graph, s, t, 4), "mismatch for {s}->{t}");
        }
    }

    #[test]
    fn unreachable_target_returns_empty() {
        let mut b = GraphBuilder::undirected(4);
        b.edge(0, 1, 1).edge(2, 3, 1);
        let g = b.build().unwrap();
        assert!(find_ksp(&g, v(0), v(3), 3).is_empty());
    }

    #[test]
    fn endpoints_beyond_the_views_id_range_are_unreachable() {
        // The view covers ids 0..4; an endpoint at id 9 has no heuristic entry and must
        // count as unreachable, in either role, rather than index past the table.
        let mut b = GraphBuilder::undirected(4);
        b.edge(0, 1, 1).edge(1, 2, 1).edge(2, 3, 1);
        let g = b.build().unwrap();
        let mut arena = SearchArena::new();
        for (s, t) in [(v(0), v(9)), (v(9), v(0))] {
            let mut f = FindKsp::new(&g, &g, s, t, &mut arena);
            assert!(f.next_path_in(&mut arena).is_none(), "{s}->{t}");
            assert_eq!(f.settled_vertices(), 0);
        }
    }

    #[test]
    fn transpose_turns_every_edge_around() {
        let g = yen_wikipedia_graph();
        let t = Transpose::of(&g);
        assert_eq!(t.num_vertices(), g.num_vertices());
        for u in 0..6 {
            for (to, w) in g.neighbors(v(u)) {
                assert_eq!(t.edge_weight(to, v(u)), Some(w));
            }
            let in_degree = (0..6).filter(|&x| g.edge_weight(v(x), v(u)).is_some()).count();
            assert_eq!(t.neighbors(v(u)).len(), in_degree);
        }
        assert!(t.neighbors(v(9)).is_empty());
    }

    #[test]
    fn trivial_query_returns_single_vertex_path() {
        let g = yen_wikipedia_graph();
        let paths = find_ksp(&g, v(1), v(1), 2);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].num_edges(), 0);
    }

    #[test]
    fn directed_reverse_spt_respects_direction() {
        // 0 -> 1 -> 2, but no way back: from 2 nothing is reachable.
        let mut b = GraphBuilder::directed(3);
        b.edge(0, 1, 1).edge(1, 2, 1);
        let g = b.build().unwrap();
        assert_eq!(find_ksp(&g, v(0), v(2), 2).len(), 1);
        assert!(find_ksp(&g, v(2), v(0), 2).is_empty());
    }

    #[test]
    fn spt_guidance_settles_fewer_vertices_than_unguided_yen_on_a_corridor() {
        // A long corridor with a small detour near the start. A* guided to the target
        // should not explore the whole corridor for every spur search.
        let n = 200u32;
        let mut b = GraphBuilder::undirected(n as usize + 2);
        for i in 0..n {
            b.edge(i, i + 1, 1);
        }
        // Detour near the start.
        b.edge(0, n + 1, 1);
        b.edge(n + 1, 2, 1);
        let g = b.build().unwrap();
        let mut arena = SearchArena::new();
        let mut f = FindKsp::new(&g, &g, v(0), v(n), &mut arena);
        assert!(f.next_path_in(&mut arena).is_some());
        assert!(f.next_path_in(&mut arena).is_some());
        // The A* searches should settle on the order of the corridor length per search,
        // not corridor length × number of spur positions.
        assert!(
            f.settled_vertices() < 5 * n as usize,
            "settled {} vertices, guidance appears ineffective",
            f.settled_vertices()
        );
    }

    #[test]
    fn produced_paths_are_sorted_and_simple() {
        let net =
            RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(150)).generate(23).unwrap();
        let paths = find_ksp(&net.graph, v(1), v(100), 6);
        for w in paths.windows(2) {
            assert!(w[0].distance() <= w[1].distance());
        }
        for p in &paths {
            assert!(Path::is_simple(p.vertices()));
        }
    }
}
