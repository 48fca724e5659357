//! Yen's k-shortest-simple-paths algorithm \[27\], as a lazy enumerator.
//!
//! The enumerator powers the plain Yen baseline and the partial-KSP computation inside
//! each subgraph (Algorithm 4, line 6), where it is consumed lazily as the join needs
//! more partials. KSP-DG's reference paths over the skeleton come from
//! [`crate::FindKsp`], which shares this module's deviation step and differs only in
//! searching each spur path with A*.
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
        lists.advance(*view, *source, *target, |from, banned_vertices, banned_edges| {
            arena.shortest_path(*view, from, *target, banned_vertices, banned_edges)
        })
    }
}

/// Yen's two lists and the deviation step, shared by [`KspEnumerator`] and FindKSP,
/// which differ only in how they search a spur path.
#[derive(Default)]
pub(crate) struct Deviations {
    /// Paths already produced, in ascending distance order (Yen's list `A`).
    pub(crate) produced: Vec<Path>,
    /// Candidate paths not yet produced (Yen's list `B`), keyed by distance.
    candidates: BinaryHeap<Reverse<Candidate>>,
    /// Routes already present in `produced` or `candidates`, to avoid duplicates.
    seen_routes: HashSet<Vec<VertexId>>,
    exhausted: bool,
    /// Spur index at which the last produced path deviated from its parent: its spurs
    /// start there.
    last_deviation: usize,
    /// Number of spur searches performed; exposed for cost accounting in benchmarks.
    pub(crate) spur_searches: usize,
    /// Scratch for one spur's banned edges, reused across spurs.
    banned_edges: Vec<(VertexId, VertexId)>,
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
    /// Appends the next shortest simple path from `source` to `target` to `produced`;
    /// `false` once no further path exists.
    ///
    /// `spur(from, banned_vertices, banned_edges)` searches a shortest path from `from`
    /// to `target` that avoids the bans; the first path is `spur(source, &[], &[])`.
    pub(crate) fn advance<G: GraphView>(
        &mut self,
        view: &G,
        source: VertexId,
        target: VertexId,
        mut spur: impl FnMut(VertexId, &[VertexId], &[(VertexId, VertexId)]) -> Option<Path>,
    ) -> bool {
        if self.exhausted {
            return false;
        }
        let next = if self.produced.is_empty() {
            let first =
                if source == target { Some(Path::trivial(source)) } else { spur(source, &[], &[]) };
            if let Some(p) = &first {
                self.seen_routes.insert(p.vertices().to_vec());
            }
            first
        } else {
            self.generate_deviations(view, &mut spur);
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

    /// Pushes every deviation of the most recently produced path past its deviation
    /// index onto `candidates`.
    fn generate_deviations<G: GraphView>(
        &mut self,
        view: &G,
        spur: &mut impl FnMut(VertexId, &[VertexId], &[(VertexId, VertexId)]) -> Option<Path>,
    ) {
        let Deviations {
            produced,
            candidates,
            seen_routes,
            last_deviation,
            spur_searches,
            banned_edges,
            ..
        } = self;
        let prev_vertices = produced.last().expect("produced is non-empty").vertices();
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
        for i in *last_deviation..num_edges {
            let spur_node = prev_vertices[i];
            let root_vertices = &prev_vertices[..=i];

            // Ban the next edge of every already-produced path sharing this root, so
            // the spur path deviates from all of them. Only the edge leaving the spur
            // node needs banning: the spur node is the search's source, so no
            // relaxation ever enters it.
            banned_edges.clear();
            for p in produced.iter() {
                let pv = p.vertices();
                if pv.len() > i + 1 && &pv[..=i] == root_vertices {
                    banned_edges.push((pv[i], pv[i + 1]));
                }
            }
            // Ban the root path's vertices (except the spur node) so the total path
            // stays simple.
            *spur_searches += 1;
            if let Some(spur_path) = spur(spur_node, &root_vertices[..i], banned_edges) {
                // Assemble root + spur.
                let mut vertices = Vec::with_capacity(i + spur_path.num_vertices());
                vertices.extend_from_slice(&root_vertices[..i]);
                vertices.extend_from_slice(spur_path.vertices());
                if Path::is_simple(&vertices) && !seen_routes.contains(&vertices) {
                    let distance = root_distance + spur_path.distance();
                    seen_routes.insert(vertices.clone());
                    candidates.push(Reverse(Candidate { distance, vertices, deviation: i }));
                }
            }
            if i + 1 < num_edges {
                root_distance += edge_weight(i);
            }
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
