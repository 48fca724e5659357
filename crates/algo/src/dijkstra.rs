//! Dijkstra and A* searches over any [`GraphView`], run on a caller-owned
//! [`SearchArena`].
//!
//! Every search in this crate — point-to-point, Yen's spur searches, single-source
//! (at once, or resumed on demand, such as FindKSP's reverse search and KSP-DG's
//! per-target distances, which a query resumes to a bound for the target half of its
//! certificate), the bounded survival sweep and FindKSP's A* — keeps its per-vertex
//! state in one dense arena indexed by [`VertexId`] and sized by
//! [`GraphView::num_vertices`]. A search starts a new *generation*: a slot counts as
//! reached, settled or banned only while its stamp equals the current generation, so
//! starting a search costs O(1) and never clears the table. A search confined to a
//! 50-vertex subgraph therefore touches 50 slots, even though the table spans the
//! global id range.
//!
//! The caller owns the arena and threads it through one unit of work — a KSP-DG query
//! runs its spur searches, attachments and sweep on one arena, resumes its target's
//! distances on another and each partial FindKSP's reverse search on a third, a
//! [`crate::KspEnumerator`] keeps one for its spur searches, and the free functions
//! here make a fresh one per call. An arena is never kept in a
//! thread-local or a global, so what a call allocates depends on the call alone, not
//! on what ran before it on the same thread.
//!
//! **The heap.** The open list is an indexed 4-ary min-heap of `(f, g, vertex)`
//! entries, where `g` is the distance from the source and `f` the priority: `f = g`
//! for Dijkstra, `f = g + h` for A*. A queued vertex's heap position lives in its
//! slot, so it is queued at most once: an improvement rewrites its entry in place and
//! sifts it up (decrease-key) instead of pushing a second copy to be skipped later.
//! Pops therefore settle vertices in the order a lazily-deleting binary heap of the
//! same entries would.
//!
//! Tie-breaking is part of the contract and keeps answers bit-identical across
//! arenas: the heap pops by `(f, g, vertex id)`, a parent is recorded only on strict
//! improvement of `g`, and neighbours are relaxed in the order the view yields them.

use crate::path::Path;
use ksp_graph::{GraphView, VertexId, Weight};

/// Per-vertex search state. The stamps hold the generation in which the vertex was
/// last reached or banned; `dist` and `parent` are valid while `reached` is current,
/// and so is `pos`: the vertex's index in the heap while it is queued, [`SETTLED`]
/// once it is settled.
#[derive(Debug, Clone, Copy)]
struct Slot {
    dist: Weight,
    parent: VertexId,
    pos: u32,
    reached: u32,
    banned: u32,
}

impl Slot {
    const FRESH: Slot =
        Slot { dist: Weight::ZERO, parent: VertexId(0), pos: 0, reached: 0, banned: 0 };
}

/// The heap position of a settled vertex.
const SETTLED: u32 = u32::MAX;

/// One queued vertex: its priority `f`, its distance `g` and its id.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    f: Weight,
    g: Weight,
    vertex: VertexId,
}

impl HeapEntry {
    /// Whether `self` pops before `other`: by `f`, then `g`, then vertex id.
    #[inline]
    fn precedes(&self, other: &HeapEntry) -> bool {
        (self.f, self.g, self.vertex) < (other.f, other.g, other.vertex)
    }
}

/// Children per heap node.
const ARITY: usize = 4;

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
    /// The indexed open list; `slots[e.vertex].pos` is the index of entry `e`.
    heap: Vec<HeapEntry>,
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

    /// Starts a single-source search from `source` that settles nothing yet:
    /// [`SearchArena::settle_through`] resumes it as far as each call needs.
    pub fn open_search<G: GraphView>(&mut self, view: &G, source: VertexId) {
        self.begin(view.num_vertices());
        if view.contains_vertex(source) {
            self.open(source, Weight::ZERO);
        }
    }

    /// Starts a single-source search over `view` where another search over `view`
    /// stopped: `settled` are the vertices it settled, at their distances, and
    /// `queued` its open list ([`SearchArena::queued`]). Resuming it
    /// ([`SearchArena::settle_through`], [`SearchArena::resume_within`]) settles
    /// the rest in the order that search would have, with the same bits. The
    /// restored search records no routes: [`SearchArena::path_to`] is meaningless
    /// after it.
    pub fn restore_search<G: GraphView>(
        &mut self,
        view: &G,
        settled: impl IntoIterator<Item = (VertexId, Weight)>,
        queued: impl IntoIterator<Item = (VertexId, Weight)>,
    ) {
        self.begin(view.num_vertices());
        let generation = self.generation;
        for (v, dist) in settled {
            let slot = &mut self.slots[v.index()];
            *slot = Slot { dist, parent: v, pos: SETTLED, reached: generation, ..*slot };
        }
        for (v, g) in queued {
            self.relax(v, v, g, g);
        }
    }

    /// The open list of the current search: every vertex it reached and has not
    /// settled, with its tentative distance, in no particular order.
    pub fn queued(&self) -> impl ExactSizeIterator<Item = (VertexId, Weight)> + '_ {
        self.heap.iter().map(|e| (e.vertex, e.g))
    }

    /// The distance from the source of the search [`SearchArena::open_search`]
    /// started to `v`, resuming that search until `v` is settled; infinite if `v` is
    /// outside `view` or the search runs out first. `view` must be the view the search
    /// was opened on.
    ///
    /// The search settles and expands vertices in the same order as
    /// [`SearchArena::search_from`], however the calls interleave, so every distance
    /// has the same bits as the full search's.
    pub fn settle_through<G: GraphView>(&mut self, view: &G, v: VertexId) -> Weight {
        if self.is_settled(v) {
            return self.slots[v.index()].dist;
        }
        if !view.contains_vertex(v) {
            return Weight::INFINITY;
        }
        while let Some((u, g)) = self.pop() {
            self.expand(view, u, g, None, &[]);
            if u == v {
                return g;
            }
        }
        Weight::INFINITY
    }

    /// Resumes the search [`SearchArena::open_search`] started until the next vertex
    /// would be at a distance `d` with `offset + d >= bound`. Afterwards
    /// [`SearchArena::distance`] reports every vertex with `offset + d < bound`, each
    /// with the bits the full search gives it, together with whatever earlier
    /// [`SearchArena::settle_through`] calls settled beyond that. The test is a sum,
    /// so a caller splitting `bound` in two adds no rounding of its own.
    pub fn resume_within<G: GraphView>(&mut self, view: &G, offset: Weight, bound: Weight) {
        while self.heap.first().is_some_and(|top| offset + top.g < bound) {
            let (u, g) = self.pop().expect("the heap is non-empty");
            self.expand(view, u, g, None, &[]);
        }
    }

    /// Settles vertices outward from `source` until the next vertex would be at
    /// distance `bound` or more, calling `visit` on every vertex settled — i.e. on
    /// exactly the set `{v : dist(source, v) < bound}`, nearest first.
    ///
    /// This is the source half of the query-trace *survival sweep*: after a KSP
    /// query finishes with a k-th answer distance `T`, KSP-DG sweeps the skeleton
    /// overlay from the source to a quarter of `T` and takes the rest of its
    /// certificate from a search from the target, resumed to the bound
    /// ([`SearchArena::resume_within`]). A subgraph outside both balls is too far
    /// for any weight change inside it to create a path shorter than `T`, which is
    /// what lets a cached result survive epoch publishes that only dirty far-away
    /// subgraphs.
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

    /// Reaches `source` at distance zero, as its own parent, and queues it with
    /// priority `f`.
    pub(crate) fn open(&mut self, source: VertexId, f: Weight) {
        let slot = &mut self.slots[source.index()];
        *slot = Slot { dist: Weight::ZERO, parent: source, reached: self.generation, ..*slot };
        let entry = HeapEntry { f, g: Weight::ZERO, vertex: source };
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1, entry);
    }

    /// Whether the current search settled `v`. A fresh arena has no slots, so the
    /// zero generation never matches.
    #[inline]
    pub(crate) fn is_settled(&self, v: VertexId) -> bool {
        self.slots.get(v.index()).is_some_and(|s| s.reached == self.generation && s.pos == SETTLED)
    }

    /// Whether [`SearchArena::relax`] would take distance `g` for `to`: `to` is
    /// neither settled nor banned, and is unreached or strictly improved.
    #[inline]
    pub(crate) fn improves(&self, to: VertexId, g: Weight) -> bool {
        let slot = &self.slots[to.index()];
        let generation = self.generation;
        if slot.reached == generation {
            slot.pos != SETTLED && g < slot.dist
        } else {
            slot.banned != generation
        }
    }

    /// Offers distance `g` and priority `f` for `to`, reached from `from`: queues
    /// `to`, or lowers its queued entry, if [`SearchArena::improves`] holds. `f` must
    /// fall with `g` (`f = g + h` for a fixed `h`), so a lowered entry only sifts up.
    #[inline]
    pub(crate) fn relax(&mut self, from: VertexId, to: VertexId, g: Weight, f: Weight) -> bool {
        let generation = self.generation;
        let entry = HeapEntry { f, g, vertex: to };
        let slot = &mut self.slots[to.index()];
        let pos = if slot.reached == generation {
            if slot.pos == SETTLED || g >= slot.dist {
                return false;
            }
            slot.pos as usize
        } else {
            if slot.banned == generation {
                return false;
            }
            self.heap.push(entry);
            self.heap.len() - 1
        };
        *slot = Slot { dist: g, parent: from, reached: generation, ..*slot };
        self.sift_up(pos, entry);
        true
    }

    /// Removes the first entry of the heap and settles its vertex, returning the
    /// vertex and its distance.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(VertexId, Weight)> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("the heap is non-empty");
        if !self.heap.is_empty() {
            self.sift_down(0, last);
        }
        self.slots[top.vertex.index()].pos = SETTLED;
        Some((top.vertex, top.g))
    }

    /// Places `entry` at index `i`, or nearer the root past every ancestor it
    /// precedes.
    #[inline]
    fn sift_up(&mut self, mut i: usize, entry: HeapEntry) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            let above = self.heap[parent];
            if !entry.precedes(&above) {
                break;
            }
            self.heap[i] = above;
            self.slots[above.vertex.index()].pos = i as u32;
            i = parent;
        }
        self.heap[i] = entry;
        self.slots[entry.vertex.index()].pos = i as u32;
    }

    /// Places `entry` at index `i`, or nearer the leaves past every descendant that
    /// precedes it.
    #[inline]
    fn sift_down(&mut self, mut i: usize, entry: HeapEntry) {
        let len = self.heap.len();
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let mut best = first;
            for child in first + 1..(first + ARITY).min(len) {
                if self.heap[child].precedes(&self.heap[best]) {
                    best = child;
                }
            }
            let below = self.heap[best];
            if !below.precedes(&entry) {
                break;
            }
            self.heap[i] = below;
            self.slots[below.vertex.index()].pos = i as u32;
            i = best;
        }
        self.heap[i] = entry;
        self.slots[entry.vertex.index()].pos = i as u32;
    }

    /// Relaxes every edge leaving `vertex`, settled at distance `g`, except those in
    /// `banned_edges` and those reaching `bound` or more.
    #[inline]
    fn expand<G: GraphView>(
        &mut self,
        view: &G,
        vertex: VertexId,
        g: Weight,
        bound: Option<Weight>,
        banned_edges: &[(VertexId, VertexId)],
    ) {
        let edge_bans = banned_edges.iter().any(|&(tail, _)| tail == vertex);
        view.for_each_neighbor(vertex, |to, w| {
            if edge_bans && banned_edges.contains(&(vertex, to)) {
                return;
            }
            let candidate = g + w;
            if bound.is_some_and(|b| candidate >= b) {
                return;
            }
            self.relax(vertex, to, candidate, candidate);
        });
    }

    /// The Dijkstra loop shared by the searches that run to completion in one call.
    /// `target` stops the search once it is settled; `bound` prunes relaxations that
    /// reach it, so no vertex at that distance or more is ever queued or settled.
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
        self.open(source, Weight::ZERO);
        while let Some((vertex, g)) = self.pop() {
            visit(vertex);
            if target == Some(vertex) {
                break;
            }
            self.expand(view, vertex, g, bound, banned_edges);
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
    #[test]
    fn settle_through_in_any_order_matches_the_full_search_bit_for_bit() {
        // Road networks, undirected and directed, after a traffic batch (so distances
        // are sums of non-integral weights), and a graph whose second component is
        // unreachable. Every id is asked, and a few beyond the view.
        let mut views = Vec::new();
        for directed in [false, true] {
            let mut config = ksp_workload::RoadNetworkConfig::with_vertices(150);
            config.directed = directed;
            let mut graph =
                ksp_workload::RoadNetworkGenerator::new(config).generate(9).unwrap().graph;
            let mut traffic =
                ksp_workload::TrafficModel::new(&graph, ksp_workload::TrafficConfig::default(), 9);
            graph.apply_batch(&traffic.next_snapshot()).unwrap();
            views.push(graph);
        }
        let mut b = GraphBuilder::directed(7);
        b.edge(0, 1, 2).edge(1, 2, 3).edge(2, 0, 1).edge(3, 4, 1).edge(4, 5, 2).edge(6, 0, 4);
        views.push(b.build().unwrap());

        let mut rng = ksp_workload::Xoshiro256::seed_from_u64(3);
        let mut full = SearchArena::new();
        let mut lazy = SearchArena::new();
        for view in &views {
            let n = view.num_vertices() as u32;
            for _ in 0..4 {
                let source = v(rng.next_bounded(n as u64) as u32);
                full.search_from(view, source);
                lazy.open_search(view, source);
                let mut ids: Vec<VertexId> = (0..n + 3).map(v).collect();
                for i in (1..ids.len()).rev() {
                    ids.swap(i, rng.next_bounded(i as u64 + 1) as usize);
                }
                for &id in &ids {
                    let got = lazy.settle_through(view, id);
                    let want = full.distance(id);
                    assert_eq!(got.value().to_bits(), want.value().to_bits(), "{source}->{id}");
                }
                // Every id is now settled or out of reach: the search ran to its end,
                // and the routes it recorded are the full search's.
                for &id in &ids {
                    assert_eq!(lazy.path_to(id), full.path_to(id), "{source}->{id}");
                }
            }
        }
        // The unreachable component really is asked about.
        full.search_from(&views[2], v(0));
        assert_eq!(full.distance(v(4)), Weight::INFINITY);
    }

    #[test]
    fn resume_within_settles_exactly_the_offset_ball_after_any_settle_through() {
        // Undirected and directed road networks after a traffic batch. Each round
        // opens a search, settles a random handful of vertices on demand (none in some
        // rounds), then resumes with an offset and a bound whose difference is a
        // settled distance, so that some vertex sits exactly on the bound.
        let mut rng = ksp_workload::Xoshiro256::seed_from_u64(5);
        let mut settled_inside = 0;
        let mut full = SearchArena::new();
        let mut lazy = SearchArena::new();
        for directed in [false, true] {
            let mut config = ksp_workload::RoadNetworkConfig::with_vertices(150);
            config.directed = directed;
            let mut graph =
                ksp_workload::RoadNetworkGenerator::new(config).generate(13).unwrap().graph;
            let mut traffic =
                ksp_workload::TrafficModel::new(&graph, ksp_workload::TrafficConfig::default(), 13);
            graph.apply_batch(&traffic.next_snapshot()).unwrap();
            let n = graph.num_vertices() as u32;
            for round in 0..12 {
                let source = v(rng.next_bounded(n as u64) as u32);
                full.search_from(&graph, source);
                let reach = full.distance(v(rng.next_bounded(n as u64) as u32));
                let offset = if round % 2 == 0 { reach / 4.0 } else { reach * 0.3 };
                let bound = offset + reach;
                lazy.open_search(&graph, source);
                let asked = if round % 3 == 0 { 0 } else { rng.next_bounded(n as u64 / 2) };
                for _ in 0..asked {
                    lazy.settle_through(&graph, v(rng.next_bounded(n as u64) as u32));
                }
                lazy.resume_within(&graph, offset, bound);
                for id in (0..n).map(v) {
                    let (got, want) = (lazy.distance(id), full.distance(id));
                    let inside = offset + got < bound;
                    assert_eq!(inside, offset + want < bound, "{source}->{id} at {bound}");
                    if got.is_finite() {
                        assert_eq!(got.value().to_bits(), want.value().to_bits(), "{source}->{id}");
                    }
                    // With nothing asked first, nothing beyond the bound settles.
                    assert!(inside || asked > 0 || !got.is_finite(), "{source}->{id} settled");
                    settled_inside += inside as usize;
                }
            }
        }
        assert!(settled_inside > 200, "only {settled_inside} vertices fell inside a bound");
    }

    #[test]
    fn a_restored_search_resumes_as_the_search_it_was_taken_from() {
        // Undirected and directed road networks after a traffic batch. A search
        // settles a random handful of vertices on demand; its settled distances and
        // open list seed a second arena, which then settles every id in a random
        // order. Every distance must have the full search's bits.
        let mut rng = ksp_workload::Xoshiro256::seed_from_u64(17);
        let (mut full, mut first, mut restored) =
            (SearchArena::new(), SearchArena::new(), SearchArena::new());
        for directed in [false, true] {
            let mut config = ksp_workload::RoadNetworkConfig::with_vertices(150);
            config.directed = directed;
            let mut graph =
                ksp_workload::RoadNetworkGenerator::new(config).generate(17).unwrap().graph;
            let mut traffic =
                ksp_workload::TrafficModel::new(&graph, ksp_workload::TrafficConfig::default(), 17);
            graph.apply_batch(&traffic.next_snapshot()).unwrap();
            let n = graph.num_vertices() as u32;
            for round in 0..8 {
                let source = v(rng.next_bounded(n as u64) as u32);
                full.search_from(&graph, source);
                first.open_search(&graph, source);
                let asked = if round == 0 { 0 } else { rng.next_bounded(n as u64 / 2) };
                for _ in 0..asked {
                    first.settle_through(&graph, v(rng.next_bounded(n as u64) as u32));
                }
                let settled: Vec<(VertexId, Weight)> = (0..n)
                    .map(v)
                    .filter(|&x| first.distance(x).is_finite())
                    .map(|x| (x, first.distance(x)))
                    .collect();
                restored.restore_search(&graph, settled, first.queued());
                for _ in 0..n {
                    let x = v(rng.next_bounded(n as u64) as u32);
                    let (got, want) = (restored.settle_through(&graph, x), full.distance(x));
                    assert_eq!(got.value().to_bits(), want.value().to_bits(), "{source}->{x}");
                }
                for x in (0..n).map(v) {
                    let (got, want) = (restored.settle_through(&graph, x), full.distance(x));
                    assert_eq!(got.value().to_bits(), want.value().to_bits(), "{source}->{x}");
                }
            }
        }
    }

    #[test]
    fn the_indexed_heap_pops_like_a_binary_heap_under_decrease_key() {
        // A model of the open list: a lazily-deleting `BinaryHeap` of (f, g, vertex)
        // entries and the current distance of every queued vertex. `relax` offers
        // random distances with `f = g + h` for a fixed per-vertex `h`, so ties in `f`
        // and `g` are common; a pop must return what the model pops.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut rng = ksp_workload::Xoshiro256::seed_from_u64(11);
        let mut arena = SearchArena::new();
        for round in 0..40 {
            let n = 1 + rng.next_bounded(60) as usize;
            let h: Vec<Weight> = (0..n).map(|_| Weight::new(rng.next_bounded(6) as f64)).collect();
            let mut model: BinaryHeap<Reverse<(Weight, Weight, VertexId)>> = BinaryHeap::new();
            let mut queued: Vec<Option<Weight>> = vec![None; n];
            let mut settled = vec![false; n];
            arena.begin(n);
            for _ in 0..8 * n {
                if rng.next_bounded(3) == 0 {
                    let got = arena.pop();
                    let want = loop {
                        match model.pop() {
                            Some(Reverse((_, g, x))) if queued[x.index()] == Some(g) => {
                                queued[x.index()] = None;
                                settled[x.index()] = true;
                                break Some((x, g));
                            }
                            Some(_) => continue,
                            None => break None,
                        }
                    };
                    assert_eq!(got, want, "round {round}");
                } else {
                    let to = v(rng.next_bounded(n as u64) as u32);
                    let g = Weight::new(rng.next_bounded(20) as f64);
                    let f = g + h[to.index()];
                    let takes = !settled[to.index()] && queued[to.index()].is_none_or(|d| g < d);
                    assert_eq!(arena.improves(to, g), takes);
                    assert_eq!(arena.relax(v(0), to, g, f), takes, "round {round}");
                    if takes {
                        queued[to.index()] = Some(g);
                        model.push(Reverse((f, g, to)));
                    }
                }
            }
            while let Some(Reverse((_, g, x))) = model.pop() {
                if queued[x.index()] == Some(g) {
                    queued[x.index()] = None;
                    assert_eq!(arena.pop(), Some((x, g)), "round {round}");
                }
            }
            assert_eq!(arena.pop(), None);
        }
    }
}
