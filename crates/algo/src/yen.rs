//! Yen's k-shortest-simple-paths algorithm \[27\], as a lazy enumerator.
//!
//! The enumerator serves the plain Yen baseline ([`yen_ksp`], also the answer oracle
//! the benchmarks and tests check KSP-DG against) and DTLP's bounding-path selection
//! ([`crate::fewest_vfrag_paths`], over vfrag counts at index build). The KSP-DG
//! engine runs none of it: its reference paths over the skeleton and its partial
//! paths inside subgraphs come from [`crate::FindKsp`], which shares this module's
//! deviation step and differs in searching each spur path with A* and in deferring
//! the spurs that cannot beat the next path.
//!
//! **Deviation index.** Each produced path records the spur index at which it left
//! the path it was spurred from (0 for the first path), and its own spurs start there:
//! Lawler's refinement of Yen's algorithm (Lawler, *Management Science* 18(7), 1972).
//! The answer set is unchanged. A path deviating at index `d` shares its first `d`
//! edges with its parent, so for every `i < d` the next edges that the paths produced
//! with root `prefix[..=i]` take at `i` are already those that the latest spur run
//! at that root banned. Spurring there again would search with the same root and the
//! same bans, find the same route, and add nothing. Only the count of spur searches
//! drops; every candidate, and so every answer, is unchanged bit for bit.
//!
//! **Deferred spurs.** Yen's enumerator searches every spur of a produced path as soon
//! as the path is produced. A search that can bound its spurs beforehand (FindKSP's
//! sidetrack bound, see [`crate::findksp`]) has them deferred instead: each waits in
//! a heap by its bound, and before a candidate is popped every deferred spur whose
//! bound is at most that candidate's distance is searched, best bound first, until
//! none is left. A spur whose bound is infinite finds nothing and is dropped. The
//! produced paths, their distance bits and their deviation indices are those of eager
//! search:
//!
//! - *Same searches.* A spur is identified by its parent path and its index, and its
//!   bans are the next edges of the paths produced up to and including its parent
//!   that share its root, recomputed from that prefix of the produced list when it
//!   runs. A deferred spur therefore searches exactly what it would have searched
//!   eagerly and finds the same path.
//! - *Same pop.* A spur still deferred has a bound above the best candidate's
//!   distance, so it can only find a longer path. Bounds and distances are float
//!   sums taken in different orders (the bound adds the heuristic, itself summed from
//!   the target), so a bound can exceed the distance of the path it bounds by a few
//!   units in the last place: a spur whose bound is [`Weight::approx_eq`] to the best
//!   distance is searched too, so an equal-distance route that sorts first is never
//!   left behind.
//! - *Same version of a duplicate.* When two spurs find one route, eager search keeps
//!   the version of the spur generated first; deferred search keeps the version found
//!   first, which is the same one. Say spur `X` (of path `p`, index `i`) is generated
//!   before spur `Y` (of a later path `q`, index `j`) and both find route `R`. If
//!   `j < i`, `R` takes `p`'s edge at `j`, which `Y` bans: impossible. If `i < j`,
//!   `q` shares `R`'s first `i + 1` vertices and its edge at `i`, so `q` is a path `X`
//!   may find: `X`'s bound is at most `q`'s distance, and `X` was searched before `q`
//!   was popped, so before `Y` existed. If `i = j`, the two versions have the same
//!   root and the same spur path, so the same distance bits and deviation index.

use crate::dijkstra::SearchArena;
use crate::path::Path;
use ksp_graph::{GraphView, VertexId, Weight};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Lazy enumerator of the successive shortest simple paths between two vertices.
///
/// Spur searches run on a [`SearchArena`]: [`KspEnumerator::next_path`] uses one the
/// enumerator owns, [`KspEnumerator::next_path_in`] one the caller passes, so a caller
/// running several searches per unit of work (a KSP-DG query) keeps them all on one.
pub struct KspEnumerator<'a, G: GraphView> {
    view: &'a G,
    source: VertexId,
    target: VertexId,
    lists: Deviations,
    /// The arena [`KspEnumerator::next_path`] searches on.
    arena: SearchArena,
}

impl<'a, G: GraphView> KspEnumerator<'a, G> {
    /// Creates an enumerator for paths from `source` to `target` in `view`.
    pub fn new(view: &'a G, source: VertexId, target: VertexId) -> Self {
        KspEnumerator {
            view,
            source,
            target,
            lists: Deviations::default(),
            arena: SearchArena::new(),
        }
    }

    /// The paths produced so far, in ascending distance order.
    pub fn produced(&self) -> &[Path] {
        &self.lists.produced
    }

    /// Number of spur-path searches performed so far (a proxy for the computation cost
    /// of the enumeration, reported by the cost-model benchmarks).
    pub fn spur_searches(&self) -> usize {
        self.lists.spur_searches
    }

    /// Produces the next shortest simple path, or `None` when no further simple path
    /// exists.
    pub fn next_path(&mut self) -> Option<Path> {
        let mut arena = std::mem::take(&mut self.arena);
        let next = self.next_path_in(&mut arena);
        self.arena = arena;
        next
    }

    /// [`KspEnumerator::next_path`], searching on the caller's `arena`.
    pub fn next_path_in(&mut self, arena: &mut SearchArena) -> Option<Path> {
        self.advance(arena).then(|| self.lists.produced.last().expect("just produced").clone())
    }

    /// Produces up to `k` paths (including any already produced).
    pub fn take_up_to(&mut self, k: usize) -> Vec<Path> {
        while self.lists.produced.len() < k {
            if self.next_path().is_none() {
                break;
            }
        }
        self.lists.produced.iter().take(k).cloned().collect()
    }

    /// Produces paths, searching on `arena`, until `k` are produced or none remain.
    pub fn produce_up_to_in(&mut self, k: usize, arena: &mut SearchArena) {
        while self.lists.produced.len() < k && self.advance(arena) {}
    }

    /// The paths produced so far, consuming the enumerator.
    pub fn into_produced(self) -> Vec<Path> {
        self.lists.produced
    }

    fn advance(&mut self, arena: &mut SearchArena) -> bool {
        let KspEnumerator { view, source, target, lists, .. } = self;
        let mut spur =
            |from, banned_vertices: &[VertexId], banned_edges: &[(VertexId, VertexId)]| {
                arena.shortest_path(*view, from, *target, banned_vertices, banned_edges)
            };
        lists.advance(*view, *source, source == target, &mut spur)
    }
}

/// One spur search of the deviation step, with the bans of the spur it runs.
///
/// Any `FnMut(from, banned_vertices, banned_edges) -> Option<Path>` is one that keeps
/// no bound, so each of its spurs runs as soon as it is generated: Yen's.
pub(crate) trait SpurSearch {
    /// A shortest path from `from` to the target that enters no vertex of
    /// `banned_vertices` and takes no edge of `banned_edges`.
    fn search(
        &mut self,
        from: VertexId,
        banned_vertices: &[VertexId],
        banned_edges: &[(VertexId, VertexId)],
    ) -> Option<Path>;

    /// A lower bound on the distance of the path [`SpurSearch::search`] returns for
    /// the same arguments, infinite if it returns none; `None` if the search keeps
    /// no bound, which makes the spur run at once.
    fn spur_bound(
        &mut self,
        _from: VertexId,
        _banned_vertices: &[VertexId],
        _banned_edges: &[(VertexId, VertexId)],
    ) -> Option<Weight> {
        None
    }
}

impl<F> SpurSearch for F
where
    F: FnMut(VertexId, &[VertexId], &[(VertexId, VertexId)]) -> Option<Path>,
{
    fn search(
        &mut self,
        from: VertexId,
        banned_vertices: &[VertexId],
        banned_edges: &[(VertexId, VertexId)],
    ) -> Option<Path> {
        self(from, banned_vertices, banned_edges)
    }
}

/// Yen's two lists and the deviation step, shared by [`KspEnumerator`] and FindKSP,
/// which differ in how they search a spur path and in whether they bound it first.
#[derive(Default)]
pub(crate) struct Deviations {
    /// Paths already produced, in ascending distance order (Yen's list `A`).
    pub(crate) produced: Vec<Path>,
    /// Candidate paths not yet produced (Yen's list `B`), keyed by distance.
    candidates: BinaryHeap<Reverse<Candidate>>,
    /// Routes already present in `produced` or `candidates`, to avoid duplicates.
    seen_routes: HashSet<Vec<VertexId>>,
    /// Spurs generated but not yet searched, by the lower bound of their distance.
    deferred: BinaryHeap<Reverse<Deferred>>,
    exhausted: bool,
    /// Spur index at which the last produced path deviated from its parent: its spurs
    /// start there.
    last_deviation: usize,
    /// Number of spur searches performed; exposed for cost accounting in benchmarks.
    pub(crate) spur_searches: usize,
    /// Scratch for one spur's banned edges, reused across spurs.
    banned_edges: Vec<(VertexId, VertexId)>,
}

/// One spur of a produced path: its root is the first `index + 1` vertices of
/// `produced[parent]`, and it bans the next edge of every path among
/// `produced[..=parent]` sharing that root. Spurs order as they are generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Spur {
    parent: usize,
    index: usize,
}

/// A spur generated but not searched yet: no path it can find is shorter than
/// `bound`. Deferred spurs pop by bound, then in generation order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Deferred {
    bound: Weight,
    spur: Spur,
    /// Distance of the spur's root path.
    root_distance: Weight,
}

struct Candidate {
    distance: Weight,
    vertices: Vec<VertexId>,
    /// Spur index at which the route leaves the path it was spurred from; not part of
    /// the order, so ties pop as before.
    deviation: usize,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.distance.cmp(&other.distance).then_with(|| self.vertices.cmp(&other.vertices))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Deviations {
    /// Appends the next shortest path from `source` to the target to `produced`;
    /// `false` once no further path exists. `trivial` says that `source` already
    /// stands at the target, whose only path is then the trivial one.
    ///
    /// `spur` searches each spur path; the first path is `spur.search(source, &[],
    /// &[])`.
    pub(crate) fn advance<G: GraphView>(
        &mut self,
        view: &G,
        source: VertexId,
        trivial: bool,
        spur: &mut impl SpurSearch,
    ) -> bool {
        if self.exhausted {
            return false;
        }
        let next = if self.produced.is_empty() {
            let first =
                if trivial { Some(Path::trivial(source)) } else { spur.search(source, &[], &[]) };
            if let Some(p) = &first {
                self.seen_routes.insert(p.vertices().to_vec());
            }
            first
        } else {
            self.generate_spurs(view, spur);
            self.search_due_spurs(spur);
            self.candidates.pop().map(|Reverse(c)| {
                self.last_deviation = c.deviation;
                Path::new(c.vertices, c.distance)
            })
        };
        match next {
            Some(path) => self.produced.push(path),
            None => self.exhausted = true,
        }
        !self.exhausted
    }

    /// Generates every spur of the most recently produced path past its deviation
    /// index: searches it at once if `spur` keeps no bound, defers it otherwise, and
    /// drops it if its bound is infinite.
    fn generate_spurs<G: GraphView>(&mut self, view: &G, spur: &mut impl SpurSearch) {
        let Deviations {
            produced,
            candidates,
            seen_routes,
            deferred,
            last_deviation,
            spur_searches,
            banned_edges,
            ..
        } = self;
        let parent = produced.len() - 1;
        let prev_vertices = produced[parent].vertices();
        let num_edges = prev_vertices.len() - 1;
        let edge_weight = |i: usize| {
            view.edge_weight(prev_vertices[i], prev_vertices[i + 1])
                .expect("root edges exist in the view")
        };
        // Distance of the root path `prev_vertices[..=i]`, summed edge by edge in path
        // order as the spur node advances.
        let mut root_distance = Weight::ZERO;
        for i in 0..*last_deviation {
            root_distance += edge_weight(i);
        }
        for index in *last_deviation..num_edges {
            let at = Spur { parent, index };
            ban_next_edges(produced, at, banned_edges);
            let (spur_node, root) = (prev_vertices[index], &prev_vertices[..index]);
            match spur.spur_bound(spur_node, root, banned_edges) {
                None => {
                    *spur_searches += 1;
                    let found = spur.search(spur_node, root, banned_edges);
                    offer(candidates, seen_routes, root, root_distance, found);
                }
                Some(bound) if bound.is_finite() => deferred.push(Reverse(Deferred {
                    bound: root_distance + bound,
                    spur: at,
                    root_distance,
                })),
                Some(_) => {}
            }
            if index + 1 < num_edges {
                root_distance += edge_weight(index);
            }
        }
    }

    /// Searches every deferred spur that could find a path no longer than the best
    /// candidate, or tied with it up to float rounding, until none is left that
    /// could: the best candidate is then the one eager search would pop.
    fn search_due_spurs(&mut self, spur: &mut impl SpurSearch) {
        while let Some(Reverse(next)) = self.deferred.peek() {
            let due = self.candidates.peek().is_none_or(|Reverse(best)| {
                next.bound <= best.distance || next.bound.approx_eq(best.distance)
            });
            if !due {
                break;
            }
            let Reverse(Deferred { spur: at, root_distance, .. }) =
                self.deferred.pop().expect("peeked");
            ban_next_edges(&self.produced, at, &mut self.banned_edges);
            let prev_vertices = self.produced[at.parent].vertices();
            let (spur_node, root) = (prev_vertices[at.index], &prev_vertices[..at.index]);
            self.spur_searches += 1;
            let found = spur.search(spur_node, root, &self.banned_edges);
            offer(&mut self.candidates, &mut self.seen_routes, root, root_distance, found);
        }
    }
}

/// Offers `root` (the root path without the spur node) followed by `spur_path`, the
/// path a spur search found from the spur node, as a candidate, unless the route is
/// already known. The candidate deviates at `root.len()`. It repeats no vertex of the
/// searched graph: the search bans the root and returns a path of its search tree.
/// Over states it may repeat a projected vertex; FindKSP then produces it without
/// returning it (see [`crate::findksp`]).
fn offer(
    candidates: &mut BinaryHeap<Reverse<Candidate>>,
    seen_routes: &mut HashSet<Vec<VertexId>>,
    root: &[VertexId],
    root_distance: Weight,
    spur_path: Option<Path>,
) {
    let Some(spur_path) = spur_path else { return };
    let mut vertices = Vec::with_capacity(root.len() + spur_path.num_vertices());
    vertices.extend_from_slice(root);
    vertices.extend_from_slice(spur_path.vertices());
    if !seen_routes.contains(&vertices) {
        let distance = root_distance + spur_path.distance();
        seen_routes.insert(vertices.clone());
        candidates.push(Reverse(Candidate { distance, vertices, deviation: root.len() }));
    }
}

/// Fills `banned_edges` with the bans of spur `at`: the edge leaving the spur node on
/// every path among `produced[..=at.parent]` that shares the spur's root, so the spur
/// path deviates from all of them. Only that edge needs banning: the spur node is the
/// search's source, so no relaxation ever enters it. The root path's other vertices
/// are banned by the search itself, so the whole path stays simple.
fn ban_next_edges(produced: &[Path], at: Spur, banned_edges: &mut Vec<(VertexId, VertexId)>) {
    let Spur { parent, index } = at;
    let root = &produced[parent].vertices()[..=index];
    banned_edges.clear();
    for p in &produced[..=parent] {
        let pv = p.vertices();
        if pv.len() > index + 1 && &pv[..=index] == root {
            banned_edges.push((pv[index], pv[index + 1]));
        }
    }
}

/// Convenience wrapper: computes the `k` shortest simple paths from `source` to
/// `target`, fewer if fewer exist.
pub fn yen_ksp<G: GraphView>(view: &G, source: VertexId, target: VertexId, k: usize) -> Vec<Path> {
    let mut enumerator = KspEnumerator::new(view, source, target);
    enumerator.produce_up_to_in(k, &mut SearchArena::new());
    enumerator.into_produced()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_graph::{DynamicGraph, GraphBuilder};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// The classic Yen example graph (from the original paper / Wikipedia), directed.
    /// Vertices: C=0, D=1, E=2, F=3, G=4, H=5.
    fn yen_wikipedia_graph() -> DynamicGraph {
        let mut b = GraphBuilder::directed(6);
        b.edge(0, 1, 3) // C -> D
            .edge(0, 2, 2) // C -> E
            .edge(1, 3, 4) // D -> F
            .edge(2, 1, 1) // E -> D
            .edge(2, 3, 2) // E -> F
            .edge(2, 4, 3) // E -> G
            .edge(3, 4, 2) // F -> G
            .edge(3, 5, 1) // F -> H
            .edge(4, 5, 2); // G -> H
        b.build().unwrap()
    }

    #[test]
    fn reproduces_the_classic_yen_example() {
        let g = yen_wikipedia_graph();
        let paths = yen_ksp(&g, v(0), v(5), 3);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].distance(), Weight::new(5.0));
        assert_eq!(paths[0].vertices(), &[v(0), v(2), v(3), v(5)]);
        assert_eq!(paths[1].distance(), Weight::new(7.0));
        assert_eq!(paths[2].distance(), Weight::new(8.0));
    }

    #[test]
    fn paths_are_simple_distinct_and_sorted() {
        let g = yen_wikipedia_graph();
        let paths = yen_ksp(&g, v(0), v(5), 10);
        for w in paths.windows(2) {
            assert!(w[0].distance() <= w[1].distance());
            assert!(!w[0].same_route(&w[1]));
        }
        for p in &paths {
            assert!(Path::is_simple(p.vertices()));
            assert_eq!(p.source(), v(0));
            assert_eq!(p.target(), v(5));
        }
    }

    #[test]
    fn enumeration_terminates_when_paths_are_exhausted() {
        // A graph with exactly 2 simple routes between the endpoints.
        let mut b = GraphBuilder::undirected(4);
        b.edge(0, 1, 1).edge(1, 3, 1).edge(0, 2, 2).edge(2, 3, 2);
        let g = b.build().unwrap();
        let paths = yen_ksp(&g, v(0), v(3), 10);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].distance(), Weight::new(2.0));
        assert_eq!(paths[1].distance(), Weight::new(4.0));

        let mut e = KspEnumerator::new(&g, v(0), v(3));
        assert!(e.next_path().is_some());
        assert!(e.next_path().is_some());
        assert!(e.next_path().is_none());
        assert!(e.next_path().is_none(), "enumerator stays exhausted");
        assert!(e.spur_searches() > 0);
    }

    #[test]
    fn unreachable_pairs_yield_no_paths() {
        let mut b = GraphBuilder::undirected(4);
        b.edge(0, 1, 1).edge(2, 3, 1);
        let g = b.build().unwrap();
        assert!(yen_ksp(&g, v(0), v(3), 5).is_empty());
    }

    #[test]
    fn identical_endpoints_yield_the_trivial_path() {
        let g = yen_wikipedia_graph();
        let paths = yen_ksp(&g, v(2), v(2), 3);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].vertices(), &[v(2)]);
        assert_eq!(paths[0].distance(), Weight::ZERO);
    }

    #[test]
    fn lazy_enumeration_matches_batch_results() {
        let g = yen_wikipedia_graph();
        let batch = yen_ksp(&g, v(0), v(5), 5);
        let mut enumerator = KspEnumerator::new(&g, v(0), v(5));
        let mut lazy = Vec::new();
        while let Some(p) = enumerator.next_path() {
            lazy.push(p);
            if lazy.len() == 5 {
                break;
            }
        }
        assert_eq!(batch.len(), lazy.len());
        for (a, b) in batch.iter().zip(lazy.iter()) {
            assert!(a.same_route(b));
            assert_eq!(a.distance(), b.distance());
        }
    }

    #[test]
    fn undirected_triangle_has_expected_second_path() {
        let mut b = GraphBuilder::undirected(3);
        b.edge(0, 1, 1).edge(1, 2, 1).edge(0, 2, 5);
        let g = b.build().unwrap();
        let paths = yen_ksp(&g, v(0), v(2), 3);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].distance(), Weight::new(2.0));
        assert_eq!(paths[1].distance(), Weight::new(5.0));
        assert_eq!(paths[1].vertices(), &[v(0), v(2)]);
    }

    #[test]
    fn produces_exactly_k_paths_when_more_exist() {
        // A ladder graph has many simple paths; ask for 4.
        let mut b = GraphBuilder::undirected(8);
        for i in 0..3u32 {
            b.edge(2 * i, 2 * i + 2, 1);
            b.edge(2 * i + 1, 2 * i + 3, 1);
            b.edge(2 * i, 2 * i + 1, 2);
        }
        b.edge(6, 7, 2);
        let g = b.build().unwrap();
        let paths = yen_ksp(&g, v(0), v(7), 4);
        assert_eq!(paths.len(), 4);
        for w in paths.windows(2) {
            assert!(w[0].distance() <= w[1].distance());
        }
    }

    #[test]
    fn spurs_start_at_each_paths_deviation_index() {
        // Spurring every produced path from index 0 runs one search per edge of every
        // path but the last; starting at the deviation index skips some of them.
        let mut b = GraphBuilder::undirected(8);
        for i in 0..3u32 {
            b.edge(2 * i, 2 * i + 2, 1).edge(2 * i + 1, 2 * i + 3, 1).edge(2 * i, 2 * i + 1, 2);
        }
        b.edge(6, 7, 2);
        let g = b.build().unwrap();
        let mut e = KspEnumerator::new(&g, v(0), v(7));
        let paths = e.take_up_to(6);
        assert_eq!(paths.len(), 6);
        let unpruned: usize = paths[..5].iter().map(Path::num_edges).sum();
        assert!(
            e.spur_searches() < unpruned,
            "{} spur searches, {unpruned} without the deviation index",
            e.spur_searches()
        );
    }

    /// Dijkstra spur searches that bound each spur before it runs: by zero, the
    /// loosest bound, or by the distance the search will find, the tightest.
    struct BoundedDijkstra<'a> {
        view: &'a DynamicGraph,
        target: VertexId,
        arena: SearchArena,
        exact: bool,
    }

    impl SpurSearch for BoundedDijkstra<'_> {
        fn search(
            &mut self,
            from: VertexId,
            banned_vertices: &[VertexId],
            banned_edges: &[(VertexId, VertexId)],
        ) -> Option<Path> {
            self.arena.shortest_path(self.view, from, self.target, banned_vertices, banned_edges)
        }

        fn spur_bound(
            &mut self,
            from: VertexId,
            banned_vertices: &[VertexId],
            banned_edges: &[(VertexId, VertexId)],
        ) -> Option<Weight> {
            if !self.exact {
                return Some(Weight::ZERO);
            }
            let found = self.search(from, banned_vertices, banned_edges);
            Some(found.map_or(Weight::INFINITY, |p| p.distance()))
        }
    }

    #[test]
    fn deferred_spurs_produce_the_eager_paths_bit_for_bit() {
        // Weights with inexact float sums and many ties, so spurs run far out of
        // generation order and tied routes, duplicates and rounding all occur.
        let menu = [0.1, 0.2, 0.3, 0.4, 0.6, 0.7];
        let bits = |paths: &[Path]| {
            paths
                .iter()
                .map(|p| (p.vertices().to_vec(), p.distance().value().to_bits()))
                .collect::<Vec<_>>()
        };
        let mut rng = ksp_workload::Xoshiro256::seed_from_u64(47);
        let (mut eager_searches, mut deferred_searches) = (0, 0);
        for round in 0..2000 {
            let n = 5 + rng.next_bounded(4) as usize;
            let mut g = DynamicGraph::new(n, round % 2 == 1);
            for _ in 0..2 * n + rng.next_bounded(n as u64) as usize {
                let (a, b) = (rng.next_bounded(n as u64) as u32, rng.next_bounded(n as u64) as u32);
                if let Ok(e) = g.add_edge(v(a), v(b), 1) {
                    let w = menu[rng.next_bounded(menu.len() as u64) as usize];
                    g.set_weight(e, Weight::new(w)).unwrap();
                }
            }
            let (s, t) = (v(0), v(n as u32 - 1));
            let mut eager = KspEnumerator::new(&g, s, t);
            let eager_paths = eager.take_up_to(10);
            for exact in [false, true] {
                let mut spur =
                    BoundedDijkstra { view: &g, target: t, arena: SearchArena::new(), exact };
                let mut lists = Deviations::default();
                while lists.produced.len() < 10 && lists.advance(&g, s, false, &mut spur) {}
                assert_eq!(
                    bits(&lists.produced),
                    bits(&eager_paths),
                    "round {round}, exact {exact}"
                );
                if exact {
                    eager_searches += eager.spur_searches();
                    deferred_searches += lists.spur_searches;
                }
            }
        }
        assert!(
            deferred_searches < eager_searches,
            "{deferred_searches} deferred spur searches, {eager_searches} eager ones"
        );
    }

    #[test]
    fn take_up_to_is_idempotent() {
        let g = yen_wikipedia_graph();
        let mut e = KspEnumerator::new(&g, v(0), v(5));
        let first = e.take_up_to(2);
        let again = e.take_up_to(2);
        assert_eq!(first.len(), 2);
        assert_eq!(again.len(), 2);
        assert!(first[0].same_route(&again[0]));
        assert_eq!(e.produced().len(), 2);
    }
}
