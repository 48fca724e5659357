//! Binary-heap Dijkstra searches over any [`GraphView`], run on a caller-owned
//! [`SearchArena`].
//!
//! Every search in this crate — point-to-point, Yen's spur searches, single-source,
//! the bounded survival sweep and FindKSP's A* — keeps its per-vertex state in one
//! dense arena indexed by [`VertexId`] and sized by [`GraphView::num_vertices`]. A
//! search starts a new *generation*: a slot counts as reached, settled or banned only
//! while its stamp equals the current generation, so starting a search costs O(1) and
//! never clears the table. A search confined to a 50-vertex subgraph therefore touches
//! 50 slots, even though the table spans the global id range.
//!
//! The caller owns the arena and threads it through one unit of work — a KSP-DG query
//! runs every search it makes on one arena, a [`crate::KspEnumerator`] keeps one for
//! its spur searches, and the free functions here make a fresh one per call. An arena
//! is never kept in a thread-local or a global, so what a call allocates depends on the
//! call alone, not on what ran before it on the same thread.
//!
//! Tie-breaking is part of the contract and keeps answers bit-identical across
//! arenas: the heap pops by (distance, vertex id), a parent is recorded only on strict
//! improvement, and neighbours are relaxed in the order the view yields them.

use crate::path::Path;
use ksp_graph::{GraphView, VertexId, Weight};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-vertex search state. The stamps hold the generation in which the vertex was
/// last reached, settled or banned; `dist` and `parent` are valid while `reached` is
/// current.
#[derive(Debug, Clone, Copy)]
struct Slot {
    dist: Weight,
    parent: VertexId,
    reached: u32,
    settled: u32,
    banned: u32,
}

impl Slot {
    const FRESH: Slot =
        Slot { dist: Weight::ZERO, parent: VertexId(0), reached: 0, settled: 0, banned: 0 };
}

#[derive(Debug, PartialEq, Eq)]
struct HeapEntry {
    dist: Weight,
    vertex: VertexId,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist.cmp(&other.dist).then_with(|| self.vertex.cmp(&other.vertex))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable, generation-stamped scratch space for shortest-path searches.
///
/// The results of the most recent search stay readable through
/// [`SearchArena::distance`] and [`SearchArena::path_to`] until the next one starts.
/// Only *settled* vertices report a distance, so an early-terminated search never
/// exposes a tentative one.
#[derive(Debug, Default)]
pub struct SearchArena {
    slots: Vec<Slot>,
    generation: u32,
    heap: BinaryHeap<Reverse<HeapEntry>>,
}

impl SearchArena {
    /// Creates an empty arena. It allocates on first use, sized by the first view.
    pub fn new() -> Self {
        SearchArena::default()
    }

    /// The shortest path from `source` to `target` that enters no vertex of
    /// `banned_vertices` and traverses no directed edge of `banned_edges`, stopping as
    /// soon as the target is settled. `None` if the target is unreachable or either
    /// endpoint is banned.
    ///
    /// This is the spur search of Yen's algorithm: the banned vertices are the root
    /// prefix, and the banned edges are checked only when their tail is expanded, so a
    /// short list costs nothing on every other relaxation.
    pub fn shortest_path<G: GraphView>(
        &mut self,
        view: &G,
        source: VertexId,
        target: VertexId,
        banned_vertices: &[VertexId],
        banned_edges: &[(VertexId, VertexId)],
    ) -> Option<Path> {
        self.begin(view.num_vertices());
        if banned_vertices.contains(&source) || banned_vertices.contains(&target) {
            return None;
        }
        for &v in banned_vertices {
            self.ban(v);
        }
        self.run(view, source, Some(target), None, banned_edges, |_| {});
        self.path_to(target)
    }

    /// A full single-source search from `source`; read the result with
    /// [`SearchArena::distance`] and [`SearchArena::path_to`].
    pub fn search_from<G: GraphView>(&mut self, view: &G, source: VertexId) {
        self.begin(view.num_vertices());
        self.run(view, source, None, None, &[], |_| {});
    }

    /// Settles vertices outward from `source` until the next vertex would be at
    /// distance `bound` or more, calling `visit` on every vertex settled — i.e. on
    /// exactly the set `{v : dist(source, v) < bound}`, nearest first.
    ///
    /// This is the *survival sweep* of the query-trace machinery: after a KSP
    /// query finishes with a k-th answer distance `T`, sweeping the skeleton
    /// overlay to `T` enumerates every skeleton vertex through which a path
    /// shorter than `T` could possibly route. Any region outside the sweep is
    /// provably too far to ever change the answer, which is what lets a cached
    /// result survive epoch publishes that only dirty far-away subgraphs.
    pub fn settled_within<G: GraphView>(
        &mut self,
        view: &G,
        source: VertexId,
        bound: Weight,
        visit: impl FnMut(VertexId),
    ) {
        self.begin(view.num_vertices());
        if Weight::ZERO < bound {
            self.run(view, source, None, Some(bound), &[], visit);
        }
    }

    /// The distance from the last search's source to `v`, or [`Weight::INFINITY`] if
    /// the search did not settle `v`.
    pub fn distance(&self, v: VertexId) -> Weight {
        if self.is_settled(v) {
            self.slots[v.index()].dist
        } else {
            Weight::INFINITY
        }
    }

    /// The shortest path from the last search's source to `v`, if the search settled
    /// `v`.
    pub fn path_to(&self, v: VertexId) -> Option<Path> {
        if !self.is_settled(v) {
            return None;
        }
        let mut len = 1;
        let mut cur = v;
        while self.slots[cur.index()].parent != cur {
            cur = self.slots[cur.index()].parent;
            len += 1;
        }
        let mut vertices = vec![v; len];
        for i in (0..len - 1).rev() {
            vertices[i] = self.slots[vertices[i + 1].index()].parent;
        }
        Some(Path::new(vertices, self.slots[v.index()].dist))
    }

    /// Starts a new generation covering ids below `n` and empties the heap.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::FRESH);
        }
        self.heap.clear();
        if self.heap.capacity() < n {
            self.heap.reserve(n);
        }
        if self.generation == u32::MAX {
            // Every stamp is now ambiguous: restart the count from a clean table.
            self.slots.fill(Slot::FRESH);
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// Bans `v` for the current search.
    pub(crate) fn ban(&mut self, v: VertexId) {
        let generation = self.generation;
        if let Some(slot) = self.slots.get_mut(v.index()) {
            slot.banned = generation;
        }
    }

    /// Reaches `source` at distance zero, as its own parent.
    pub(crate) fn start(&mut self, source: VertexId) {
        let slot = &mut self.slots[source.index()];
        *slot = Slot { dist: Weight::ZERO, parent: source, reached: self.generation, ..*slot };
    }

    #[inline]
    pub(crate) fn settle(&mut self, v: VertexId) {
        self.slots[v.index()].settled = self.generation;
    }

    /// Whether the current search settled `v`. A fresh arena has no slots, so the
    /// zero generation never matches.
    #[inline]
    pub(crate) fn is_settled(&self, v: VertexId) -> bool {
        self.slots.get(v.index()).is_some_and(|s| s.settled == self.generation)
    }

    /// Offers `candidate` as the distance of `to`, reached from `from`. Refused if
    /// `to` is settled or banned; taken if `to` is unreached or strictly improved.
    #[inline]
    pub(crate) fn improve(&mut self, from: VertexId, to: VertexId, candidate: Weight) -> bool {
        let generation = self.generation;
        let slot = &mut self.slots[to.index()];
        if slot.settled == generation || slot.banned == generation {
            return false;
        }
        if slot.reached == generation && candidate >= slot.dist {
            return false;
        }
        *slot = Slot { dist: candidate, parent: from, reached: generation, ..*slot };
        true
    }

    /// The Dijkstra loop shared by every search. `target` stops the search once it is
    /// settled; `bound` stops it before settling a vertex at that distance or more and
    /// prunes relaxations that reach it.
    fn run<G: GraphView>(
        &mut self,
        view: &G,
        source: VertexId,
        target: Option<VertexId>,
        bound: Option<Weight>,
        banned_edges: &[(VertexId, VertexId)],
        mut visit: impl FnMut(VertexId),
    ) {
        if !view.contains_vertex(source) {
            return;
        }
        self.start(source);
        self.heap.push(Reverse(HeapEntry { dist: Weight::ZERO, vertex: source }));
        while let Some(Reverse(HeapEntry { dist, vertex })) = self.heap.pop() {
            if self.is_settled(vertex) {
                continue;
            }
            if bound.is_some_and(|b| dist >= b) {
                break;
            }
            self.settle(vertex);
            visit(vertex);
            if target == Some(vertex) {
                break;
            }
            let edge_bans = banned_edges.iter().any(|&(tail, _)| tail == vertex);
            view.for_each_neighbor(vertex, |to, w| {
                if edge_bans && banned_edges.contains(&(vertex, to)) {
                    return;
                }
                let candidate = dist + w;
                if bound.is_some_and(|b| candidate >= b) {
                    return;
                }
                if self.improve(vertex, to, candidate) {
                    self.heap.push(Reverse(HeapEntry { dist: candidate, vertex: to }));
                }
            });
        }
    }
}

/// Computes the shortest path from `source` to `target` on a fresh arena, stopping as
/// soon as the target is settled. Returns `None` if `target` is unreachable.
pub fn dijkstra_path<G: GraphView>(view: &G, source: VertexId, target: VertexId) -> Option<Path> {
    SearchArena::new().shortest_path(view, source, target, &[], &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_graph::{GraphBuilder, PartitionConfig, Partitioner};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// The small example used throughout the paper's Figure 6a: a 3-way parallel graph.
    fn parallel_graph() -> ksp_graph::DynamicGraph {
        let mut b = GraphBuilder::undirected(8);
        // vs=0, vt=7; route A via 1, route B via 2,3, route C via 4,5,6.
        b.edge(0, 1, 1).edge(1, 7, 1);
        b.edge(0, 2, 1).edge(2, 3, 1).edge(3, 7, 1);
        b.edge(0, 4, 1).edge(4, 5, 1).edge(5, 6, 1).edge(6, 7, 1);
        b.build().unwrap()
    }

    fn weighted_graph() -> ksp_graph::DynamicGraph {
        let mut b = GraphBuilder::undirected(6);
        b.edge(0, 1, 7).edge(0, 2, 9).edge(0, 5, 14);
        b.edge(1, 2, 10).edge(1, 3, 15);
        b.edge(2, 3, 11).edge(2, 5, 2);
        b.edge(3, 4, 6);
        b.edge(4, 5, 9);
        b.build().unwrap()
    }

    fn distances_from<G: GraphView>(view: &G, source: VertexId) -> Vec<Weight> {
        let mut arena = SearchArena::new();
        arena.search_from(view, source);
        (0..view.num_vertices() as u32).map(|i| arena.distance(v(i))).collect()
    }

    #[test]
    fn single_source_distances_match_known_values() {
        // Classic Wikipedia Dijkstra example: distances from vertex 0.
        let g = weighted_graph();
        let d = distances_from(&g, v(0));
        let expected = [0.0, 7.0, 9.0, 20.0, 20.0, 11.0];
        assert_eq!(d, expected.map(Weight::new).to_vec());
    }

    #[test]
    fn point_to_point_path_is_reconstructed() {
        let g = weighted_graph();
        let p = dijkstra_path(&g, v(0), v(4)).unwrap();
        assert_eq!(p.distance(), Weight::new(20.0));
        assert_eq!(p.source(), v(0));
        assert_eq!(p.target(), v(4));
        assert_eq!(p.vertices(), &[v(0), v(2), v(5), v(4)]);
    }

    #[test]
    fn unreachable_target_returns_none() {
        let mut b = GraphBuilder::undirected(4);
        b.edge(0, 1, 1).edge(2, 3, 1);
        let g = b.build().unwrap();
        assert!(dijkstra_path(&g, v(0), v(3)).is_none());
        let mut arena = SearchArena::new();
        arena.search_from(&g, v(0));
        assert_eq!(arena.distance(v(3)), Weight::INFINITY);
        assert!(arena.path_to(v(3)).is_none());
    }

    #[test]
    fn source_equals_target_gives_trivial_path() {
        let g = weighted_graph();
        let p = dijkstra_path(&g, v(3), v(3)).unwrap();
        assert_eq!(p.vertices(), &[v(3)]);
        assert_eq!(p.distance(), Weight::ZERO);
    }

    #[test]
    fn banned_vertices_are_avoided() {
        let g = parallel_graph();
        let shortest = dijkstra_path(&g, v(0), v(7)).unwrap();
        assert_eq!(shortest.distance(), Weight::new(2.0));
        // Ban the middle vertex of the shortest route; the 3-hop route must be used.
        let p = SearchArena::new().shortest_path(&g, v(0), v(7), &[v(1)], &[]).unwrap();
        assert_eq!(p.distance(), Weight::new(3.0));
        assert!(!p.contains(v(1)));
    }

    #[test]
    fn banned_edges_are_avoided() {
        let g = parallel_graph();
        // Ban the first edge of the 2-hop route, leaving its tail.
        let p = SearchArena::new().shortest_path(&g, v(0), v(7), &[], &[(v(0), v(1))]).unwrap();
        assert_eq!(p.distance(), Weight::new(3.0));
        // A banned edge is directed: banning only the reverse orientation changes nothing.
        let p = SearchArena::new().shortest_path(&g, v(0), v(7), &[], &[(v(1), v(0))]).unwrap();
        assert_eq!(p.distance(), Weight::new(2.0));
    }

    #[test]
    fn banning_source_or_target_returns_none() {
        let g = parallel_graph();
        let mut arena = SearchArena::new();
        assert!(arena.shortest_path(&g, v(0), v(7), &[v(0)], &[]).is_none());
        assert!(arena.shortest_path(&g, v(0), v(7), &[v(7)], &[]).is_none());
    }

    #[test]
    fn directed_graphs_respect_edge_direction() {
        let mut b = GraphBuilder::directed(3);
        b.edge(0, 1, 1).edge(1, 2, 1);
        let g = b.build().unwrap();
        assert!(dijkstra_path(&g, v(0), v(2)).is_some());
        assert!(dijkstra_path(&g, v(2), v(0)).is_none());
    }

    #[test]
    fn early_termination_reports_only_settled_vertices() {
        let g = weighted_graph();
        let mut arena = SearchArena::new();
        arena.shortest_path(&g, v(0), v(1), &[], &[]).unwrap();
        // Vertex 2 (9) and 5 (14) were reached but not settled when the search stopped
        // at vertex 1 (7): they must not report their tentative distances.
        assert_eq!(arena.distance(v(2)), Weight::INFINITY);
        assert_eq!(arena.distance(v(5)), Weight::INFINITY);
        // Every distance it does report must be final (equal to the full search).
        let full = distances_from(&g, v(0));
        for (i, &d) in full.iter().enumerate() {
            let reported = arena.distance(v(i as u32));
            assert!(reported == d || reported == Weight::INFINITY, "v{i}: {reported} vs {d}");
        }
        assert_eq!(arena.distance(v(1)), Weight::new(7.0));
    }

    #[test]
    fn settled_within_returns_exactly_the_strictly_closer_ball() {
        let g = weighted_graph();
        let full = distances_from(&g, v(0));
        let mut arena = SearchArena::new();
        let mut sweep = |source: VertexId, bound: Weight| {
            let mut swept = Vec::new();
            arena.settled_within(&g, source, bound, |x| swept.push(x));
            swept.sort();
            swept
        };
        for bound in [0.0, 5.0, 9.0, 11.5, 25.0] {
            let bound = Weight::new(bound);
            let expected: Vec<VertexId> =
                (0..6).filter(|&i| full[i as usize] < bound).map(v).collect();
            assert_eq!(sweep(v(0), bound), expected, "sweep mismatch at bound {bound}");
        }
        // An infinite bound sweeps the whole reachable component.
        assert_eq!(sweep(v(0), Weight::INFINITY).len(), 6);
        // A missing source sweeps nothing.
        assert!(sweep(VertexId(99), Weight::new(5.0)).is_empty());
    }

    #[test]
    fn path_to_unreached_vertex_is_none() {
        let g = weighted_graph();
        let mut arena = SearchArena::new();
        assert!(arena.path_to(v(0)).is_none(), "a fresh arena has settled nothing");
        arena.search_from(&g, v(0));
        assert!(arena.path_to(v(5)).is_some());
        assert!(arena.path_to(VertexId(99)).is_none());
    }

    #[test]
    fn stamps_wrap_around_without_leaking_state() {
        let g = parallel_graph();
        let full = distances_from(&g, v(0));
        let mut arena = SearchArena::new();
        arena.generation = u32::MAX - 1;
        // Generation u32::MAX: ban the short route's middle vertex.
        let detour = arena.shortest_path(&g, v(0), v(7), &[v(1)], &[]).unwrap();
        assert_eq!(detour.distance(), Weight::new(3.0));
        assert_eq!(arena.generation, u32::MAX);
        // The next search wraps to generation 1. Nothing banned, reached or settled
        // under u32::MAX may survive into it.
        let direct = arena.shortest_path(&g, v(0), v(7), &[], &[]).unwrap();
        assert_eq!(arena.generation, 1);
        assert_eq!(direct.vertices(), &[v(0), v(1), v(7)]);
        arena.search_from(&g, v(0));
        assert_eq!(arena.generation, 2);
        for (i, &d) in full.iter().enumerate() {
            assert_eq!(arena.distance(v(i as u32)), d, "v{i}");
        }
    }

    /// Every shortest path from `source` on `arena` equals the one a fresh arena finds.
    fn assert_same_as_fresh<G: GraphView>(
        arena: &mut SearchArena,
        view: &G,
        source: VertexId,
        banned: &[VertexId],
    ) {
        let targets = (0..view.num_vertices() as u32).map(v).filter(|&t| view.contains_vertex(t));
        for t in targets {
            let fresh = SearchArena::new().shortest_path(view, source, t, banned, &[]);
            assert_eq!(arena.shortest_path(view, source, t, banned, &[]), fresh, "{source}->{t}");
        }
    }

    #[test]
    fn one_arena_serves_views_with_different_id_ranges() {
        // The whole graph, then a subgraph whose ids all sit high in the range, then a
        // small view over low ids (the skeleton's shape: fewer vertices than the table
        // already holds), then the whole graph again.
        let graph = ksp_workload::RoadNetworkGenerator::new(
            ksp_workload::RoadNetworkConfig::with_vertices(200),
        )
        .generate(5)
        .unwrap()
        .graph;
        let subgraphs = Partitioner::new(PartitionConfig::with_max_vertices(20))
            .partition(&graph)
            .unwrap()
            .into_subgraphs();
        let high = subgraphs.iter().max_by_key(|sg| sg.vertices()[0]).unwrap();
        assert!(high.vertices()[0].index() > 100, "the chosen subgraph must sit at high ids");

        let mut arena = SearchArena::new();
        assert_same_as_fresh(&mut arena, &graph, v(3), &[]);
        assert_same_as_fresh(&mut arena, &**high, high.vertices()[0], &[]);
        assert_same_as_fresh(&mut arena, &parallel_graph(), v(0), &[v(1)]);
        assert_same_as_fresh(&mut arena, &graph, v(180), &[v(3)]);
    }
}
