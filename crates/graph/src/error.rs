//! Error types shared by the graph substrate.

use crate::ids::{EdgeId, VertexId};
use std::fmt;

/// Errors produced when constructing or mutating a [`crate::DynamicGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A vertex id referenced an index outside `0..num_vertices`.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: VertexId,
        /// Number of vertices in the graph.
        num_vertices: usize,
    },
    /// An edge id referenced an index outside `0..num_edges`.
    EdgeOutOfRange {
        /// The offending edge.
        edge: EdgeId,
        /// Number of edges in the graph.
        num_edges: usize,
    },
    /// Attempted to add an edge that already exists between the two endpoints.
    DuplicateEdge {
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
    },
    /// Attempted to add a self-loop, which is meaningless in a road network.
    SelfLoop {
        /// The vertex the loop was attached to.
        vertex: VertexId,
    },
    /// An initial edge weight of zero was supplied; initial weights define the number
    /// of virtual fragments of an edge and therefore must be at least 1.
    ZeroInitialWeight {
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
    },
    /// No edge exists between the two given endpoints.
    NoSuchEdge {
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
    },
    /// The partitioner was configured with a subgraph capacity that cannot hold a
    /// single edge (`z < 2`).
    InvalidPartitionSize {
        /// The offending capacity.
        z: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, num_vertices } => {
                write!(f, "vertex {vertex} out of range (graph has {num_vertices} vertices)")
            }
            GraphError::EdgeOutOfRange { edge, num_edges } => {
                write!(f, "edge {edge} out of range (graph has {num_edges} edges)")
            }
            GraphError::DuplicateEdge { u, v } => {
                write!(f, "edge between {u} and {v} already exists")
            }
            GraphError::SelfLoop { vertex } => {
                write!(f, "self-loop at {vertex} is not allowed")
            }
            GraphError::ZeroInitialWeight { u, v } => {
                write!(
                    f,
                    "initial weight of edge ({u}, {v}) must be >= 1 (it defines the vfrag count)"
                )
            }
            GraphError::NoSuchEdge { u, v } => {
                write!(f, "no edge between {u} and {v}")
            }
            GraphError::InvalidPartitionSize { z } => {
                write!(f, "subgraph capacity z={z} is too small; z must be at least 2")
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::VertexOutOfRange { vertex: VertexId(9), num_vertices: 5 };
        assert!(e.to_string().contains("v9"));
        assert!(e.to_string().contains('5'));

        let e = GraphError::DuplicateEdge { u: VertexId(1), v: VertexId(2) };
        assert!(e.to_string().contains("v1"));
        assert!(e.to_string().contains("v2"));

        let e = GraphError::InvalidPartitionSize { z: 1 };
        assert!(e.to_string().contains("z=1"));
    }

    #[test]
    fn error_implements_std_error() {
        fn assert_error<E: std::error::Error>(_e: &E) {}
        assert_error(&GraphError::SelfLoop { vertex: VertexId(0) });
    }
}
