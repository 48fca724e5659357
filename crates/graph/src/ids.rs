//! Strongly typed identifiers for vertices, edges and subgraphs.
//!
//! Using newtypes instead of raw `u32`s prevents an entire class of mix-ups between
//! global vertex ids, edge ids and partition ids that would otherwise only be caught
//! at runtime (if at all).

use std::fmt;

/// Identifier of a vertex in the *global* graph.
///
/// Vertex ids are dense: a graph with `n` vertices uses ids `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

/// Identifier of an edge in the *global* graph.
///
/// Edge ids are dense: a graph with `m` edges uses ids `0..m`. For undirected graphs a
/// single id covers both directions of travel.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

/// Identifier of a subgraph produced by [`crate::partition::Partitioner`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubgraphId(pub u32);

impl VertexId {
    /// Returns the id as a `usize` suitable for indexing dense per-vertex arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Returns the id as a `usize` suitable for indexing dense per-edge arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl SubgraphId {
    /// Returns the id as a `usize` suitable for indexing dense per-subgraph arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for VertexId {
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

impl From<u32> for EdgeId {
    fn from(v: u32) -> Self {
        EdgeId(v)
    }
}

impl From<u32> for SubgraphId {
    fn from(v: u32) -> Self {
        SubgraphId(v)
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Debug for SubgraphId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sg{}", self.0)
    }
}

impl fmt::Display for SubgraphId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sg{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrips_through_u32() {
        let v = VertexId::from(42u32);
        assert_eq!(v.0, 42);
        assert_eq!(v.index(), 42usize);
    }

    #[test]
    fn ids_are_ordered_by_numeric_value() {
        assert!(VertexId(1) < VertexId(2));
        assert!(EdgeId(10) > EdgeId(3));
        assert!(SubgraphId(0) < SubgraphId(1));
    }

    #[test]
    fn display_uses_prefixed_form() {
        assert_eq!(VertexId(7).to_string(), "v7");
        assert_eq!(EdgeId(7).to_string(), "e7");
        assert_eq!(SubgraphId(7).to_string(), "sg7");
        assert_eq!(format!("{:?}", VertexId(7)), "v7");
    }

    #[test]
    fn ids_usable_as_map_keys() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(VertexId(3), "a");
        m.insert(VertexId(4), "b");
        assert_eq!(m[&VertexId(3)], "a");
        assert_eq!(m.len(), 2);
    }
}
