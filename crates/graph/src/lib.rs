//! Dynamic weighted graph substrate for the KSP-DG system.
//!
//! This crate provides the graph model used throughout the reproduction of
//! *Distributed Processing of k Shortest Path Queries over Dynamic Road Networks*
//! (SIGMOD 2020):
//!
//! * [`DynamicGraph`] — an in-memory undirected or directed weighted graph whose edge
//!   weights evolve over time (Definition 1 in the paper). Weight updates are applied
//!   in batches and bump a version counter so that query answers can be stamped with
//!   the snapshot they were computed against. Clones share the topology and copy only
//!   the weights, so a published epoch is an immutable clone; the serving layer's
//!   `EpochSnapshot` over such a clone is the paper's `Gcurr` buffer (Section 2).
//! * [`partition`] — the BFS edge-partitioning scheme of Section 3.3, producing
//!   [`Subgraph`]s of at most `z` vertices that share *boundary vertices* but no edges.
//! * [`GraphView`] — a lightweight read-only abstraction over "something with weighted
//!   adjacency" implemented by the full graph, subgraphs and (in `ksp-core`) the
//!   skeleton graph, so that the path algorithms in `ksp-algo` can run on any of them.
//!
//! The crate is deliberately free of any indexing or query logic; it is the substrate
//! that both the paper's contribution (`ksp-core`) and the baselines build upon.

#![warn(missing_docs)]

pub mod builder;
pub mod error;
pub mod graph;
pub mod ids;
pub mod partition;
pub mod subgraph;
pub mod subgraph_set;
pub mod update;
pub mod view;
pub mod weight;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{DynamicGraph, EdgeRecord, ReversedGraph};
pub use ids::{EdgeId, SubgraphId, VertexId};
pub use partition::{PartitionConfig, Partitioner, Partitioning};
pub use subgraph::{Subgraph, TransposedSubgraph};
pub use subgraph_set::SubgraphSet;
pub use update::{UpdateBatch, WeightUpdate};
pub use view::GraphView;
pub use weight::Weight;
