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
//! **The heuristic is built on demand.** The reverse SPT is one Dijkstra search from
//! the destination over the reversed view, kept open on its own [`SearchArena`] and
//! resumed ([`SearchArena::settle_through`]) only until the vertex A* asks about is
//! settled. A spur search asks about the vertices it relaxes, which lie near the
//! routes it explores, so the reverse search never has to cover the vertices no spur
//! goes near. It settles in the order a full search would, so every heuristic value
//! has the bits the full search gives it. The heuristic plays two roles: its value at
//! a vertex orders the open list (`f = g + h`), and an infinite value prunes the
//! vertex outright, since nothing there reaches the destination even without bans.
//!
//! Like Yen's enumerator it spurs each produced path only from the index where that
//! path deviated from its parent (Lawler 1972, see [`crate::yen`]): the spurs before
//! it would repeat searches already run and find no new route, so the answer set is
//! unchanged.
//!
//! It serves three times: as the whole-graph FindKSP baseline of the paper's
//! experiments ([`find_ksp`]), as the enumerator of KSP-DG's reference paths over the
//! skeleton overlay (Algorithm 3), and for KSP-DG's partial k shortest paths inside
//! each subgraph (Algorithm 4).

use crate::dijkstra::SearchArena;
use crate::path::Path;
use crate::yen::{yen_ksp, Deviations};
use ksp_graph::{DynamicGraph, GraphView, VertexId, Weight};

/// Lazy enumerator of k shortest simple paths using SPT-guided deviations.
///
/// It runs on two caller-owned arenas: the heuristic arena handed to
/// [`FindKsp::new`], which the enumerator keeps for its life and hands back in
/// [`FindKsp::into_produced`], and the arena each [`FindKsp::next_path_in`] runs its
/// spur searches on.
pub struct FindKsp<'a, G: GraphView, R: GraphView> {
    view: &'a G,
    /// `view` with every edge turned around: the heuristic's search runs on it.
    reverse: &'a R,
    source: VertexId,
    target: VertexId,
    /// The search from the target over `reverse`, settled only as far as A* has
    /// asked: the heuristic at `v` is its distance to `v`.
    heuristic: SearchArena,
    lists: Deviations,
    /// Number of vertices settled across all spur searches (cost accounting).
    settled_vertices: usize,
}

impl<'a, G: GraphView, R: GraphView> FindKsp<'a, G, R> {
    /// Creates the enumerator for paths from `source` to `target` in `view`, opening
    /// the reverse shortest-path search from `target` over `reverse` on `heuristic`.
    /// The enumerator takes over `heuristic`'s storage, leaving an empty arena in its
    /// place, until [`FindKsp::into_produced`] hands it back.
    ///
    /// `reverse` must be `view` with every edge turned around (`view` itself when it
    /// is undirected); [`Transpose`] builds one for a view that keeps no in-adjacency.
    pub fn new(
        view: &'a G,
        reverse: &'a R,
        source: VertexId,
        target: VertexId,
        heuristic: &mut SearchArena,
    ) -> Self {
        let mut heuristic = std::mem::take(heuristic);
        heuristic.open_search(reverse, target);
        FindKsp {
            view,
            reverse,
            source,
            target,
            heuristic,
            lists: Deviations::default(),
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

    /// Produces paths, searching on `arena`, until `k` are produced or none remain.
    pub fn produce_up_to_in(&mut self, k: usize, arena: &mut SearchArena) {
        while self.lists.produced.len() < k && self.advance(arena) {}
    }

    /// The paths produced so far, consuming the enumerator and handing its heuristic
    /// arena back to `heuristic`.
    pub fn into_produced(self, heuristic: &mut SearchArena) -> Vec<Path> {
        *heuristic = self.heuristic;
        self.lists.produced
    }

    fn advance(&mut self, arena: &mut SearchArena) -> bool {
        let FindKsp { view, reverse, source, target, heuristic, lists, settled_vertices } = self;
        let mut search = AStar { arena, heuristic, reverse: *reverse, settled_vertices };
        lists.advance(*view, *source, *target, |from, banned_vertices, banned_edges| {
            search.run(*view, *target, from, banned_vertices, banned_edges)
        })
    }
}

/// One A* spur search: per-vertex state on the spur arena, guided by the on-demand
/// reverse search.
struct AStar<'s, R: GraphView> {
    arena: &'s mut SearchArena,
    /// The reverse search from the target, resumed as the spur search asks.
    heuristic: &'s mut SearchArena,
    reverse: &'s R,
    settled_vertices: &'s mut usize,
}

impl<R: GraphView> AStar<'_, R> {
    /// The exact unbanned distance from `v` to the target; infinite if none exists.
    #[inline]
    fn h(&mut self, v: VertexId) -> Weight {
        self.heuristic.settle_through(self.reverse, v)
    }

    /// Goal-directed A* from `from` to `target` using the exact distance-to-target
    /// heuristic `h` from the reverse SPT. The heuristic is admissible and consistent on
    /// the unbanned graph; banning edges/vertices only removes paths, so it remains
    /// admissible and the search stays correct. A vertex with an infinite heuristic
    /// cannot reach the target even without bans, so it is never queued. Banned edges
    /// are checked only when their tail is expanded, and the heuristic is asked only
    /// about a vertex the relaxation would improve.
    fn run<G: GraphView>(
        &mut self,
        view: &G,
        target: VertexId,
        from: VertexId,
        banned_vertices: &[VertexId],
        banned_edges: &[(VertexId, VertexId)],
    ) -> Option<Path> {
        if banned_vertices.contains(&from) {
            return None;
        }
        let h_from = self.h(from);
        if !h_from.is_finite() {
            // The target is unreachable from here even without bans.
            return None;
        }
        self.arena.begin(view.num_vertices());
        for &v in banned_vertices {
            self.arena.ban(v);
        }
        self.arena.open(from, h_from);

        while let Some((vertex, g)) = self.arena.pop() {
            *self.settled_vertices += 1;
            if vertex == target {
                return self.arena.path_to(vertex);
            }
            let edge_bans = banned_edges.iter().any(|&(tail, _)| tail == vertex);
            view.for_each_neighbor(vertex, |to, w| {
                if edge_bans && banned_edges.contains(&(vertex, to)) {
                    return;
                }
                let tentative = g + w;
                if !self.arena.improves(to, tentative) {
                    return;
                }
                let h_to = self.h(to);
                if h_to.is_finite() {
                    self.arena.relax(vertex, to, tentative, tentative + h_to);
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
    fn first_k<G: GraphView, R: GraphView>(
        view: &G,
        reverse: &R,
        source: VertexId,
        target: VertexId,
        k: usize,
    ) -> Vec<Path> {
        let mut heuristic = SearchArena::new();
        let mut enumerator = FindKsp::new(view, reverse, source, target, &mut heuristic);
        enumerator.produce_up_to_in(k, &mut SearchArena::new());
        enumerator.into_produced(&mut heuristic)
    }
    if graph.is_directed() {
        first_k(graph, &Transpose::of(graph), source, target, k)
    } else {
        first_k(graph, graph, source, target, k)
    }
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
