//! The FindKSP baseline [21]: deviation-based KSP guided by a shortest path tree.
//!
//! FindKSP (Liu et al., *Finding top-k shortest paths with diversity*, TKDE 2018)
//! improves on Yen's algorithm by maintaining a shortest path tree (SPT) rooted at the
//! destination and using it to direct the search for deviation (spur) paths toward the
//! destination. We reproduce the performance-relevant core of that idea: every spur
//! search is an A* search whose heuristic is the exact distance-to-destination taken
//! from the SPT, so it settles only a small neighbourhood instead of a Dijkstra ball.
//! The asymptotics and, more importantly for Figure 39, the growth with `k` are
//! substantially better than plain Yen while the result set is identical.

use crate::dijkstra::SearchArena;
use crate::path::Path;
use crate::yen::{yen_ksp, Deviations};
use ksp_graph::{DynamicGraph, GraphView, VertexId, Weight};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Enumerator of k shortest simple paths using SPT-guided deviations.
pub struct FindKsp<'a> {
    graph: &'a DynamicGraph,
    source: VertexId,
    target: VertexId,
    /// Exact distance from every vertex to the target (the reverse SPT), by vertex id.
    dist_to_target: Vec<Weight>,
    lists: Deviations,
    search: AStar,
}

impl<'a> FindKsp<'a> {
    /// Creates the enumerator, building the reverse shortest path tree from `target`.
    pub fn new(graph: &'a DynamicGraph, source: VertexId, target: VertexId) -> Self {
        let mut search = AStar::default();
        let dist_to_target = reverse_distances(graph, target, &mut search.arena);
        FindKsp { graph, source, target, dist_to_target, lists: Deviations::default(), search }
    }

    /// Number of vertices settled across all A* spur searches so far.
    pub fn settled_vertices(&self) -> usize {
        self.search.settled_vertices
    }

    /// The paths produced so far, ascending by distance.
    pub fn produced(&self) -> &[Path] {
        &self.lists.produced
    }

    /// Produces the next shortest simple path, or `None` if exhausted.
    pub fn next_path(&mut self) -> Option<Path> {
        let FindKsp { graph, source, target, dist_to_target, lists, search } = self;
        let spur = |from, banned_vertices: &[VertexId], banned_edges: &[(VertexId, VertexId)]| {
            search.run(graph, *target, dist_to_target, from, banned_vertices, banned_edges)
        };
        lists
            .advance(*graph, *source, *target, spur)
            .then(|| lists.produced.last().expect("just produced").clone())
    }

    /// Produces up to `k` paths.
    pub fn take_up_to(&mut self, k: usize) -> Vec<Path> {
        while self.lists.produced.len() < k {
            if self.next_path().is_none() {
                break;
            }
        }
        self.lists.produced.iter().take(k).cloned().collect()
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

/// The A* spur search: per-vertex state on a [`SearchArena`], an open list ordered by
/// (f, g, vertex), both reused across spurs.
#[derive(Default)]
struct AStar {
    arena: SearchArena,
    open: BinaryHeap<Reverse<Entry>>,
    /// Number of vertices settled across all spur searches (cost accounting).
    settled_vertices: usize,
}

impl AStar {
    /// Goal-directed A* from `from` to `target` using the exact distance-to-target
    /// heuristic `h` from the reverse SPT. The heuristic is admissible and consistent on
    /// the unbanned graph; banning edges/vertices only removes paths, so it remains
    /// admissible and the search stays correct. Banned edges are checked only when
    /// their tail is expanded.
    fn run(
        &mut self,
        graph: &DynamicGraph,
        target: VertexId,
        h: &[Weight],
        from: VertexId,
        banned_vertices: &[VertexId],
        banned_edges: &[(VertexId, VertexId)],
    ) -> Option<Path> {
        if banned_vertices.contains(&from) || !h[from.index()].is_finite() {
            // Banned, or the target is unreachable from here even without bans.
            return None;
        }
        let AStar { arena, open, settled_vertices } = self;
        arena.begin(graph.num_vertices());
        for &v in banned_vertices {
            arena.ban(v);
        }
        arena.start(from);
        open.clear();
        open.push(Reverse(Entry { f: h[from.index()], g: Weight::ZERO, vertex: from }));

        while let Some(Reverse(Entry { g, vertex, .. })) = open.pop() {
            if arena.is_settled(vertex) {
                continue;
            }
            arena.settle(vertex);
            *settled_vertices += 1;
            if vertex == target {
                return arena.path_to(vertex);
            }
            let edge_bans = banned_edges.iter().any(|&(tail, _)| tail == vertex);
            graph.for_each_neighbor(vertex, |to, w| {
                if edge_bans && banned_edges.contains(&(vertex, to)) {
                    return;
                }
                let tentative = g + w;
                if arena.improve(vertex, to, tentative) {
                    let f = tentative + h[to.index()];
                    open.push(Reverse(Entry { f, g: tentative, vertex: to }));
                }
            });
        }
        None
    }
}

/// Exact distances from every vertex to `target`, by vertex id ([`Weight::INFINITY`]
/// where unreachable), i.e. a shortest path tree rooted at the destination. For
/// directed graphs this searches the reversed graph.
fn reverse_distances(
    graph: &DynamicGraph,
    target: VertexId,
    arena: &mut SearchArena,
) -> Vec<Weight> {
    let n = graph.num_vertices();
    if !graph.is_directed() {
        arena.search_from(graph, target);
    } else {
        // Build reverse adjacency once and run Dijkstra over it.
        let mut radj: Vec<Vec<(VertexId, Weight)>> = vec![Vec::new(); n];
        for (_, e) in graph.edges() {
            radj[e.v.index()].push((e.u, e.current_weight));
        }
        arena.search_from(&Reversed { radj: &radj }, target);
    }
    (0..n as u32).map(|i| arena.distance(VertexId(i))).collect()
}

struct Reversed<'g> {
    radj: &'g [Vec<(VertexId, Weight)>],
}

impl GraphView for Reversed<'_> {
    fn num_vertices(&self) -> usize {
        self.radj.len()
    }
    fn contains_vertex(&self, v: VertexId) -> bool {
        v.index() < self.radj.len()
    }
    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, Weight)) {
        for &(to, w) in &self.radj[v.index()] {
            f(to, w);
        }
    }
    fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.radj[u.index()].iter().find(|&&(to, _)| to == v).map(|&(_, w)| w)
    }
}

/// Convenience wrapper: the `k` shortest simple paths from `source` to `target`.
pub fn find_ksp(graph: &DynamicGraph, source: VertexId, target: VertexId, k: usize) -> Vec<Path> {
    FindKsp::new(graph, source, target).take_up_to(k)
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
        let mut f = FindKsp::new(&g, v(0), v(n));
        let paths = f.take_up_to(2);
        assert_eq!(paths.len(), 2);
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
