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
//! **The heuristic is a [`Heuristic`]: built on demand, or given.** [`FindKsp::new`]
//! guides by a [`ReverseSearch`]: one Dijkstra search from the destination over the
//! reversed view, kept open on its own [`SearchArena`] and resumed
//! ([`SearchArena::settle_through`]) only until the vertex A* asks about is settled.
//! A spur search asks about the vertices it relaxes, which lie near the routes it
//! explores, so the reverse search never has to cover the vertices no spur goes near.
//! It settles in the order a full search would, so every heuristic value has the bits
//! the full search gives it. [`FindKsp::with_heuristic`] takes the distances from the
//! caller instead, such as a search shared by many enumerations to one destination
//! (KSP-DG's per-target rows over the skeleton, which each query extends only past
//! what earlier ones settled). Either way the heuristic plays two roles: its value
//! at a vertex orders the open list (`f = g + h`), and an infinite value prunes the
//! vertex outright, since nothing there reaches the destination even without bans.
//!
//! Like Yen's enumerator it spurs each produced path only from the index where that
//! path deviated from its parent (Lawler 1972, see [`crate::yen`]): the spurs before
//! it would repeat searches already run and find no new route, so the answer set is
//! unchanged.
//!
//! **Spurs run only when they can matter.** Most spurs of a produced path find a
//! path longer than every path the enumeration is asked for. Before searching one,
//! FindKSP bounds it with the sidetrack bound of Eppstein's deviation cost: the root
//! distance plus the least `w + h(x)` over the edges `spur node → x` the spur may
//! take first (not banned, `x` not on the root). Every spur path takes one of those
//! edges and then needs at least `h(x)`, so no spur path is shorter. The shared
//! deviation step defers each spur by that bound and searches it only once no
//! candidate beats it (see [`crate::yen`] for why the produced paths, their distance
//! bits and the version kept of a duplicate route are those of searching every spur
//! at once). [`FindKsp::spur_searches`] counts the searches run, not the spurs
//! generated.
//!
//! **States and vertices.** The graph FindKSP searches may stand for another: each of
//! its vertices is a *state* that a [`Projection`] maps to a vertex of the network
//! (the identity for a plain graph). KSP-DG's reference enumeration searches a
//! labelled skeleton whose states carry the subgraph of the hop that entered them,
//! so that each route's subgraph decomposition is enumerated once (see
//! `ksp_core::dtlp::LabelledView`). Everything that concerns routes is judged on the
//! projection: the heuristic is asked about a state's vertex, the search ends at the
//! first state of the target vertex, a spur bans every state of every root vertex and
//! the other states of its own, and a path is returned only if its projection is
//! simple. A spur search can still revisit a vertex under another label inside its
//! own spur path when the state graph's weights break the triangle inequality. Such a
//! path is produced, so that its spurs are generated and its next edges banned as
//! Yen's completeness argument needs, but it is never returned: every path with a
//! simple projection still comes out, in order of distance.
//!
//! It serves three times: as the whole-graph FindKSP baseline of the paper's
//! experiments ([`find_ksp`]), as the enumerator of KSP-DG's reference paths over the
//! labelled skeleton overlay (Algorithm 3), and for KSP-DG's partial k shortest paths
//! inside each subgraph (Algorithm 4).

use crate::dijkstra::SearchArena;
use crate::path::Path;
use crate::yen::{Deviations, SpurSearch};
use ksp_graph::{DynamicGraph, GraphView, VertexId, Weight};

/// How the vertices of a search graph, its *states*, stand for the vertices of a
/// network; see the module docs.
pub trait Projection {
    /// The vertex `state` stands for.
    fn vertex_of(&self, state: VertexId) -> VertexId;

    /// Calls `f` on every state that stands for `vertex`.
    fn for_each_state(&self, vertex: VertexId, f: impl FnMut(VertexId));
}

/// The projection of a plain graph: every vertex stands for itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl Projection for Identity {
    #[inline]
    fn vertex_of(&self, state: VertexId) -> VertexId {
        state
    }

    #[inline]
    fn for_each_state(&self, vertex: VertexId, mut f: impl FnMut(VertexId)) {
        f(vertex)
    }
}

impl<P: Projection> Projection for &P {
    #[inline]
    fn vertex_of(&self, state: VertexId) -> VertexId {
        (**self).vertex_of(state)
    }

    #[inline]
    fn for_each_state(&self, vertex: VertexId, f: impl FnMut(VertexId)) {
        (**self).for_each_state(vertex, f)
    }
}

/// The exact distance from a vertex to FindKSP's target over the unbanned graph,
/// infinite if none exists: the A* heuristic of every spur search, asked about the
/// vertices a state stands for.
///
/// It must be a *consistent* lower bound on the distance through the graph FindKSP
/// searches: `h(u) <= w + h(v)` for each edge `u → v` of weight `w`, and `h` is zero
/// at the target. The exact distances over the network the states stand for are.
pub trait Heuristic {
    /// The distance from `v` to the target.
    fn to_target(&mut self, v: VertexId) -> Weight;
}

impl<F: FnMut(VertexId) -> Weight> Heuristic for F {
    #[inline]
    fn to_target(&mut self, v: VertexId) -> Weight {
        self(v)
    }
}

/// The heuristic [`FindKsp::new`] builds: a Dijkstra search from the target over the
/// reversed view, resumed on its own arena until it settles each vertex asked about.
#[derive(Debug)]
pub struct ReverseSearch<'a, R: GraphView> {
    reverse: &'a R,
    arena: SearchArena,
}

impl<R: GraphView> Heuristic for ReverseSearch<'_, R> {
    #[inline]
    fn to_target(&mut self, v: VertexId) -> Weight {
        self.arena.settle_through(self.reverse, v)
    }
}

/// Lazy enumerator of k shortest simple paths using SPT-guided deviations.
///
/// It runs on the arena each [`FindKsp::next_path_in`] runs its spur searches on and
/// on its [`Heuristic`]: with [`FindKsp::new`], a reverse search on the caller-owned
/// arena handed to it, which the enumerator keeps for its life and hands back in
/// [`FindKsp::into_produced`].
pub struct FindKsp<'a, G: GraphView, H: Heuristic, P: Projection = Identity> {
    view: &'a G,
    /// The vertices of the network that `view`'s states stand for.
    projection: P,
    /// The source state.
    source: VertexId,
    /// The target vertex: a path ends at the first state that stands for it.
    target: VertexId,
    /// Each vertex's exact distance to the target.
    heuristic: H,
    lists: Deviations,
    /// Number of vertices settled across all spur searches (cost accounting).
    settled_vertices: usize,
}

impl<'a, G: GraphView, R: GraphView> FindKsp<'a, G, ReverseSearch<'a, R>> {
    /// Creates the enumerator for paths from `source` to `target` in `view`, opening
    /// the reverse shortest-path search from `target` over `reverse` on `heuristic`.
    /// The enumerator takes over `heuristic`'s storage, leaving an empty arena in its
    /// place, until [`FindKsp::into_produced`] hands it back.
    ///
    /// `reverse` must be `view` with every edge turned around (`view` itself when it
    /// is undirected), such as [`DynamicGraph::reversed`].
    pub fn new(
        view: &'a G,
        reverse: &'a R,
        source: VertexId,
        target: VertexId,
        heuristic: &mut SearchArena,
    ) -> Self {
        let mut arena = std::mem::take(heuristic);
        arena.open_search(reverse, target);
        FindKsp::with_heuristic(view, Identity, source, target, ReverseSearch { reverse, arena })
    }

    /// The paths produced so far, consuming the enumerator and handing its heuristic
    /// arena back to `heuristic`.
    pub fn into_produced(self, heuristic: &mut SearchArena) -> Vec<Path> {
        *heuristic = self.heuristic.arena;
        self.lists.produced
    }
}

impl<'a, G: GraphView, H: Heuristic, P: Projection> FindKsp<'a, G, H, P> {
    /// The enumerator over a graph of states: paths from the state `source` to the
    /// first state that `projection` maps to the vertex `target`, guided by
    /// `heuristic`, which is asked about the vertex each state stands for. Its
    /// distance at a vertex must be at most that of every path of `view` from a state
    /// standing for it to the target, and consistent (see [`Heuristic`]).
    pub fn with_heuristic(
        view: &'a G,
        projection: P,
        source: VertexId,
        target: VertexId,
        heuristic: H,
    ) -> Self {
        FindKsp {
            view,
            projection,
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

    /// Number of paths produced so far.
    pub fn num_produced(&self) -> usize {
        self.lists.produced.len()
    }

    /// Number of vertices settled across all A* spur searches so far.
    pub fn settled_vertices(&self) -> usize {
        self.settled_vertices
    }

    /// Produces the next shortest path whose projection is simple, searching on
    /// `arena`, or `None` once no further such path exists.
    pub fn next_path_in(&mut self, arena: &mut SearchArena) -> Option<Path> {
        while self.advance(arena) {
            let path = self.lists.produced.last().expect("just produced");
            if self.projects_simply(path) {
                return Some(path.clone());
            }
        }
        None
    }

    /// Whether `path` visits no vertex twice under the projection.
    fn projects_simply(&self, path: &Path) -> bool {
        let states = path.vertices();
        states.iter().enumerate().all(|(i, &x)| {
            let v = self.projection.vertex_of(x);
            states[..i].iter().all(|&y| self.projection.vertex_of(y) != v)
        })
    }

    /// Produces paths, searching on `arena`, until `k` are produced or none remain.
    pub fn produce_up_to_in(&mut self, k: usize, arena: &mut SearchArena) {
        while self.lists.produced.len() < k && self.advance(arena) {}
    }

    fn advance(&mut self, arena: &mut SearchArena) -> bool {
        let FindKsp { view, projection, source, target, heuristic, lists, settled_vertices } = self;
        let trivial = projection.vertex_of(*source) == *target;
        let mut search =
            AStar { view: *view, projection, target: *target, arena, heuristic, settled_vertices };
        lists.advance(*view, *source, trivial, &mut search)
    }
}

/// The spur searches of one enumerator: A* on the spur arena, guided by the
/// heuristic, which also bounds each spur before it runs.
struct AStar<'s, G: GraphView, H: Heuristic, P: Projection> {
    view: &'s G,
    projection: &'s P,
    target: VertexId,
    arena: &'s mut SearchArena,
    heuristic: &'s mut H,
    settled_vertices: &'s mut usize,
}

impl<G: GraphView, H: Heuristic, P: Projection> AStar<'_, G, H, P> {
    /// The exact unbanned distance from the vertex of state `x` to the target;
    /// infinite if none exists.
    #[inline]
    fn h(&mut self, x: VertexId) -> Weight {
        self.heuristic.to_target(self.projection.vertex_of(x))
    }

    /// Whether some state of `root` stands for the vertex of state `x`.
    #[inline]
    fn in_root(&self, root: &[VertexId], x: VertexId) -> bool {
        let v = self.projection.vertex_of(x);
        root.iter().any(|&r| self.projection.vertex_of(r) == v)
    }
}

impl<G: GraphView, H: Heuristic, P: Projection> SpurSearch for AStar<'_, G, H, P> {
    /// Goal-directed A* from `from` to the target using the exact distance-to-target
    /// heuristic `h`. The heuristic is admissible and consistent on
    /// the unbanned graph; banning edges/vertices only removes paths, so it remains
    /// admissible and the search stays correct. A vertex with an infinite heuristic
    /// cannot reach the target even without bans, so it is never queued. Banned edges
    /// are checked only when their tail is expanded, and the heuristic is asked only
    /// about a vertex the relaxation would improve. `banned_vertices` is the root: every
    /// state of its vertices is banned, and so is every state of `from`'s vertex but
    /// `from` itself.
    fn search(
        &mut self,
        from: VertexId,
        banned_vertices: &[VertexId],
        banned_edges: &[(VertexId, VertexId)],
    ) -> Option<Path> {
        if self.in_root(banned_vertices, from) {
            return None;
        }
        let h_from = self.h(from);
        if !h_from.is_finite() {
            // The target is unreachable from here even without bans.
            return None;
        }
        let view = self.view;
        self.arena.begin(view.num_vertices());
        for &r in banned_vertices {
            let arena = &mut *self.arena;
            self.projection.for_each_state(self.projection.vertex_of(r), |x| arena.ban(x));
        }
        let arena = &mut *self.arena;
        self.projection.for_each_state(self.projection.vertex_of(from), |x| {
            if x != from {
                arena.ban(x);
            }
        });
        self.arena.open(from, h_from);

        while let Some((vertex, g)) = self.arena.pop() {
            *self.settled_vertices += 1;
            if self.projection.vertex_of(vertex) == self.target {
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

    /// The sidetrack bound: the least `w + h(x)` over the edges `from → x` the spur
    /// may take first. Any spur path takes one of them and then needs at least `h(x)`.
    /// Infinite when `from`'s own vertex is on the root, where the search finds none.
    fn spur_bound(
        &mut self,
        from: VertexId,
        banned_vertices: &[VertexId],
        banned_edges: &[(VertexId, VertexId)],
    ) -> Option<Weight> {
        let mut bound = Weight::INFINITY;
        if self.in_root(banned_vertices, from) {
            return Some(bound);
        }
        let view = self.view;
        view.for_each_neighbor(from, |to, w| {
            if !banned_edges.contains(&(from, to)) && !self.in_root(banned_vertices, to) {
                bound = bound.min(w + self.h(to));
            }
        });
        Some(bound)
    }
}

/// The FindKSP baseline over a whole graph: the `k` shortest simple paths from
/// `source` to `target`, guided by a search over [`DynamicGraph::reversed`].
pub fn find_ksp(graph: &DynamicGraph, source: VertexId, target: VertexId, k: usize) -> Vec<Path> {
    let reverse = graph.reversed();
    let mut heuristic = SearchArena::new();
    let mut enumerator = FindKsp::new(graph, &reverse, source, target, &mut heuristic);
    enumerator.produce_up_to_in(k, &mut SearchArena::new());
    enumerator.into_produced(&mut heuristic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{yen_ksp, KspEnumerator};
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
        let (ours, yen) = (find_ksp(&g, v(0), v(5), 6), yen_ksp(&g, v(0), v(5), 6));
        assert!(
            ours.len() == yen.len()
                && ours.iter().zip(&yen).all(|(x, y)| x.distance().approx_eq(y.distance()))
        );
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
            let (ours, yen) = (find_ksp(&net.graph, s, t, 4), yen_ksp(&net.graph, s, t, 4));
            assert!(
                ours.len() == yen.len()
                    && ours.iter().zip(&yen).all(|(x, y)| x.distance().approx_eq(y.distance())),
                "mismatch for {s}->{t}"
            );
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
    fn reversed_turns_every_edge_around() {
        // `find_ksp` guides a directed graph's spurs by a search over its reverse.
        let g = yen_wikipedia_graph();
        let t = g.reversed();
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

    /// The weighted graph of the two tied routes below: ids `s = 0`, `x = 1`, `y = 2`,
    /// `a = 3`, `c = 4`, `t = 5`, directed.
    fn tied_routes_graph() -> DynamicGraph {
        let mut g = DynamicGraph::new(6, true);
        for (u, w, weight) in [
            (0, 3, 0.1),
            (3, 5, 0.1),
            (3, 4, 0.25),
            (4, 5, 0.25),
            (0, 1, 0.3),
            (1, 2, 0.2),
            (2, 5, 0.1),
        ] {
            let e = g.add_edge(v(u), v(w), 1).unwrap();
            g.set_weight(e, Weight::new(weight)).unwrap();
        }
        g
    }

    #[test]
    fn a_tied_smaller_route_behind_a_larger_bound_pops_in_eager_order() {
        // The first path is s-a-t (0.2). Its spur at a finds C = s-a-c-t at
        // 0.1 + (0.25 + 0.25) = 0.6; its spur at s finds R = s-x-y-t at
        // (0.3 + 0.2) + 0.1 = 0.6, the same bits, and R < C. The spur at s is bounded
        // by 0.3 + h(x) = 0.3 + (0.1 + 0.2), one ulp above 0.6: only the tolerance
        // searches it before C pops, so that R comes second, as Yen produces it.
        let premise = (0.3 + (0.1 + 0.2), (0.3 + 0.2) + 0.1, 0.1 + (0.25 + 0.25));
        assert!(premise.0 > premise.1 && premise.1 == premise.2, "{premise:?}");
        let g = tied_routes_graph();
        let route = |p: &Path| p.vertices().iter().map(|x| x.0).collect::<Vec<_>>();
        let bits = |paths: &[Path]| {
            paths.iter().map(|p| (route(p), p.distance().value().to_bits())).collect::<Vec<_>>()
        };
        let lazy = find_ksp(&g, v(0), v(5), 3);
        assert_eq!(
            lazy.iter().map(route).collect::<Vec<_>>(),
            [vec![0, 3, 5], vec![0, 1, 2, 5], vec![0, 3, 4, 5]]
        );
        assert_eq!(bits(&lazy), bits(&yen_ksp(&g, v(0), v(5), 3)));
    }

    #[test]
    fn the_ladder_needs_fewer_spur_searches_than_yen_for_the_same_paths() {
        let mut b = GraphBuilder::undirected(8);
        for i in 0..3u32 {
            b.edge(2 * i, 2 * i + 2, 1).edge(2 * i + 1, 2 * i + 3, 1).edge(2 * i, 2 * i + 1, 2);
        }
        b.edge(6, 7, 2);
        let g = b.build().unwrap();
        let bits = |paths: &[Path]| {
            paths
                .iter()
                .map(|p| (p.vertices().to_vec(), p.distance().value().to_bits()))
                .collect::<Vec<_>>()
        };
        let (mut arena, mut heuristic) = (SearchArena::new(), SearchArena::new());
        let mut lazy = FindKsp::new(&g, &g, v(0), v(7), &mut heuristic);
        lazy.produce_up_to_in(6, &mut arena);
        let lazy_searches = lazy.spur_searches();
        let lazy = lazy.into_produced(&mut heuristic);
        let mut eager = KspEnumerator::new(&g, v(0), v(7));
        eager.produce_up_to_in(6, &mut arena);
        let eager_searches = eager.spur_searches();
        assert_eq!(lazy.len(), 6);
        assert_eq!(bits(&lazy), bits(&eager.into_produced()));
        assert!(
            lazy_searches < eager_searches,
            "{lazy_searches} spur searches, Yen runs {eager_searches}"
        );
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
