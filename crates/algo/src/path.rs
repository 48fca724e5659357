//! Simple paths and their manipulation (Definition 3 of the paper).

use ksp_graph::{GraphView, VertexId, Weight};
use std::fmt;

/// Up to this many vertices, simplicity is checked by a quadratic scan of the
/// sequence, which allocates nothing; longer sequences sort a copy.
const SCAN_LIMIT: usize = 64;

/// A simple (loop-free) path through the graph, together with its distance.
///
/// The distance is carried with the path because the graph is dynamic: a path computed
/// against one snapshot keeps the distance it had at that snapshot, which is exactly
/// the semantics the paper gives query answers (Section 2).
#[derive(Clone, PartialEq)]
pub struct Path {
    vertices: Vec<VertexId>,
    distance: Weight,
}

impl Path {
    /// Creates a path from its vertex sequence and a pre-computed distance.
    ///
    /// # Panics
    ///
    /// Panics if the vertex sequence is empty or contains a repeated vertex; only
    /// simple paths are meaningful in the KSP problem (Definition 3).
    pub fn new(vertices: Vec<VertexId>, distance: Weight) -> Self {
        assert!(!vertices.is_empty(), "a path must contain at least one vertex");
        debug_assert!(Self::is_simple(&vertices), "paths must be simple (no repeated vertices)");
        Path { vertices, distance }
    }

    /// Creates a single-vertex path with zero distance.
    pub fn trivial(v: VertexId) -> Self {
        Path { vertices: vec![v], distance: Weight::ZERO }
    }

    /// Builds a path from a vertex sequence, computing its distance from `view`.
    ///
    /// Returns `None` if any consecutive pair is not connected in the view or the
    /// sequence is not simple.
    pub fn from_vertices<G: GraphView>(view: &G, vertices: Vec<VertexId>) -> Option<Self> {
        if vertices.is_empty() || !Self::is_simple(&vertices) {
            return None;
        }
        let mut distance = Weight::ZERO;
        for pair in vertices.windows(2) {
            distance += view.edge_weight(pair[0], pair[1])?;
        }
        Some(Path { vertices, distance })
    }

    /// The vertex sequence of the path.
    #[inline]
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// The source vertex.
    #[inline]
    pub fn source(&self) -> VertexId {
        self.vertices[0]
    }

    /// The destination vertex.
    #[inline]
    pub fn target(&self) -> VertexId {
        *self.vertices.last().expect("paths are non-empty")
    }

    /// The stored distance of the path.
    #[inline]
    pub fn distance(&self) -> Weight {
        self.distance
    }

    /// Number of edges on the path.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.vertices.len() - 1
    }

    /// Number of vertices on the path.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the path visits the given vertex.
    pub fn contains(&self, v: VertexId) -> bool {
        self.vertices.contains(&v)
    }

    /// Whether a vertex sequence is simple (contains no repeated vertex).
    pub fn is_simple(vertices: &[VertexId]) -> bool {
        if vertices.len() <= SCAN_LIMIT {
            return (1..vertices.len()).all(|i| !vertices[..i].contains(&vertices[i]));
        }
        let mut sorted = vertices.to_vec();
        sorted.sort_unstable();
        sorted.windows(2).all(|w| w[0] != w[1])
    }

    /// Iterates over the consecutive edges of the path as vertex pairs.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices.windows(2).map(|w| (w[0], w[1]))
    }

    /// Concatenates two paths that share exactly one vertex: the target of `self` must
    /// equal the source of `other`. Returns `None` if the concatenation would repeat a
    /// vertex (i.e. would not be a simple path).
    ///
    /// This is the join operation (⨝) used when assembling candidate KSPs from partial
    /// k shortest paths in Algorithm 4.
    pub fn concat(&self, other: &Path) -> Option<Path> {
        if self.target() != other.source() {
            return None;
        }
        let tail = &other.vertices[1..];
        let len = self.vertices.len() + tail.len();
        if len <= SCAN_LIMIT
            && (0..tail.len())
                .any(|i| self.vertices.contains(&tail[i]) || tail[..i].contains(&tail[i]))
        {
            return None;
        }
        let mut vertices = Vec::with_capacity(len);
        vertices.extend_from_slice(&self.vertices);
        vertices.extend_from_slice(tail);
        if len > SCAN_LIMIT && !Self::is_simple(&vertices) {
            return None;
        }
        Some(Path { vertices, distance: self.distance + other.distance })
    }

    /// Recomputes the distance of the path against (a possibly newer view of) the
    /// graph. Returns `None` if an edge of the path no longer exists in the view.
    pub fn recompute_distance<G: GraphView>(&self, view: &G) -> Option<Weight> {
        let mut d = Weight::ZERO;
        for (u, v) in self.edges() {
            d += view.edge_weight(u, v)?;
        }
        Some(d)
    }

    /// Returns a copy of the path carrying a new distance (e.g. after weights changed).
    pub fn with_distance(&self, distance: Weight) -> Path {
        Path { vertices: self.vertices.clone(), distance }
    }

    /// Whether two paths visit the same vertex sequence (ignoring distance).
    pub fn same_route(&self, other: &Path) -> bool {
        self.vertices == other.vertices
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Path[{:.3}](", self.distance.value())?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, "→")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Sorts paths by distance (ties broken by the vertex sequence so the order is total
/// and deterministic), removes duplicate routes, and truncates to `k`.
///
/// This is the "keep only the k shortest paths" step that appears in Algorithms 3 and 4.
pub fn keep_k_shortest(paths: &mut Vec<Path>, k: usize) {
    paths.sort_by(|a, b| {
        a.distance().cmp(&b.distance()).then_with(|| a.vertices().cmp(b.vertices()))
    });
    paths.dedup_by(|a, b| a.same_route(b));
    paths.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_graph::GraphBuilder;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn line_graph() -> ksp_graph::DynamicGraph {
        let mut b = GraphBuilder::undirected(5);
        b.edge(0, 1, 2).edge(1, 2, 3).edge(2, 3, 4).edge(3, 4, 5);
        b.build().unwrap()
    }

    #[test]
    fn from_vertices_computes_distance() {
        let g = line_graph();
        let p = Path::from_vertices(&g, vec![v(0), v(1), v(2), v(3)]).unwrap();
        assert_eq!(p.distance(), Weight::new(9.0));
        assert_eq!(p.num_edges(), 3);
        assert_eq!(p.source(), v(0));
        assert_eq!(p.target(), v(3));
    }

    #[test]
    fn from_vertices_rejects_missing_edges_and_loops() {
        let g = line_graph();
        assert!(Path::from_vertices(&g, vec![v(0), v(2)]).is_none());
        assert!(Path::from_vertices(&g, vec![v(0), v(1), v(0)]).is_none());
        assert!(Path::from_vertices(&g, vec![]).is_none());
    }

    #[test]
    fn concat_joins_at_shared_vertex() {
        let g = line_graph();
        let a = Path::from_vertices(&g, vec![v(0), v(1), v(2)]).unwrap();
        let b = Path::from_vertices(&g, vec![v(2), v(3), v(4)]).unwrap();
        let joined = a.concat(&b).unwrap();
        assert_eq!(joined.vertices(), &[v(0), v(1), v(2), v(3), v(4)]);
        assert_eq!(joined.distance(), Weight::new(14.0));
    }

    #[test]
    fn concat_rejects_mismatched_endpoints() {
        let g = line_graph();
        let a = Path::from_vertices(&g, vec![v(0), v(1)]).unwrap();
        let b = Path::from_vertices(&g, vec![v(2), v(3)]).unwrap();
        assert!(a.concat(&b).is_none());
    }

    #[test]
    fn concat_rejects_loops() {
        let g = line_graph();
        let a = Path::from_vertices(&g, vec![v(0), v(1), v(2)]).unwrap();
        let b = Path::from_vertices(&g, vec![v(2), v(1)]).unwrap();
        assert!(a.concat(&b).is_none(), "concatenation revisiting v1 must be rejected");
    }

    #[test]
    fn concat_rejects_a_vertex_repeated_within_other_at_any_length() {
        // `other` is built directly: `Path::new` refuses non-simple sequences.
        for len in [3u32, SCAN_LIMIT as u32 + 10] {
            let a = Path { vertices: vec![v(1000), v(0)], distance: Weight::new(1.0) };
            let mut looped: Vec<VertexId> = (0..len).map(v).collect();
            looped.push(v(len / 2));
            let b = Path { vertices: looped.clone(), distance: Weight::new(1.0) };
            assert!(a.concat(&b).is_none(), "len {len}: repeat inside other must be rejected");
            looped.pop();
            let b = Path { vertices: looped, distance: Weight::new(1.0) };
            assert_eq!(a.concat(&b).unwrap().num_vertices(), len as usize + 1);
            // A repeat across the join is rejected too.
            let mut crossing: Vec<VertexId> = (0..len).map(v).collect();
            crossing.push(v(1000));
            let b = Path { vertices: crossing, distance: Weight::new(1.0) };
            assert!(a.concat(&b).is_none(), "len {len}: repeat across the join");
        }
    }

    #[test]
    fn is_simple_agrees_on_short_and_long_sequences() {
        for len in [0u32, 1, 5, SCAN_LIMIT as u32, SCAN_LIMIT as u32 + 1, 200] {
            let mut seq: Vec<VertexId> = (0..len).rev().map(v).collect();
            assert!(Path::is_simple(&seq), "len {len}");
            if len > 1 {
                seq.push(v(len - 1));
                assert!(!Path::is_simple(&seq), "len {len} with a repeat");
            }
        }
    }

    #[test]
    fn trivial_path_concatenates_as_identity() {
        let g = line_graph();
        let a = Path::trivial(v(2));
        let b = Path::from_vertices(&g, vec![v(2), v(3)]).unwrap();
        let joined = a.concat(&b).unwrap();
        assert_eq!(joined.vertices(), b.vertices());
        assert_eq!(joined.distance(), b.distance());
    }

    #[test]
    fn recompute_distance_tracks_weight_changes() {
        let mut g = line_graph();
        let p = Path::from_vertices(&g, vec![v(0), v(1), v(2)]).unwrap();
        assert_eq!(p.distance(), Weight::new(5.0));
        let e = g.edge_between(v(0), v(1)).unwrap();
        g.set_weight(e, Weight::new(10.0)).unwrap();
        assert_eq!(p.recompute_distance(&g), Some(Weight::new(13.0)));
        // The stored distance does not silently change.
        assert_eq!(p.distance(), Weight::new(5.0));
        assert_eq!(p.with_distance(Weight::new(13.0)).distance(), Weight::new(13.0));
    }

    #[test]
    fn keep_k_shortest_sorts_dedups_and_truncates() {
        let g = line_graph();
        let p1 = Path::from_vertices(&g, vec![v(0), v(1)]).unwrap(); // 2
        let p2 = Path::from_vertices(&g, vec![v(0), v(1), v(2)]).unwrap(); // 5
        let p3 = Path::from_vertices(&g, vec![v(0), v(1), v(2), v(3)]).unwrap(); // 9
        let mut paths = vec![p3.clone(), p1.clone(), p2.clone(), p1.clone()];
        keep_k_shortest(&mut paths, 2);
        assert_eq!(paths.len(), 2);
        assert!(paths[0].same_route(&p1));
        assert!(paths[1].same_route(&p2));
    }

    #[test]
    fn display_shows_route_and_distance() {
        let g = line_graph();
        let p = Path::from_vertices(&g, vec![v(0), v(1)]).unwrap();
        let s = format!("{p}");
        assert!(s.contains("v0"));
        assert!(s.contains("v1"));
        assert!(s.contains("2.000"));
    }

    #[test]
    fn edge_iterator_yields_consecutive_pairs() {
        let g = line_graph();
        let p = Path::from_vertices(&g, vec![v(0), v(1), v(2)]).unwrap();
        let edges: Vec<_> = p.edges().collect();
        assert_eq!(edges, vec![(v(0), v(1)), (v(1), v(2))]);
    }
}
