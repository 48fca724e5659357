//! The primary contribution of *Distributed Processing of k Shortest Path Queries over
//! Dynamic Road Networks* (SIGMOD 2020): the DTLP index and the KSP-DG algorithm.
//!
//! # Overview
//!
//! The system answers k-shortest-path (KSP) queries over a road network whose edge
//! weights (travel times) change continuously. It is built from two pieces:
//!
//! * [`dtlp`] — the **D**istributed **T**wo-**L**evel **P**ath index. The graph is
//!   partitioned into subgraphs of at most `z` vertices; inside every subgraph, up to
//!   `ξ` *bounding paths* are precomputed between each pair of boundary vertices. The
//!   bounding paths are selected by *virtual-fragment* count, which never changes as
//!   weights evolve, so the index structure itself never has to be rebuilt — only the
//!   cheap *bound distances* are refreshed. The second level is the *skeleton graph*
//!   `Gλ` over all boundary vertices whose edge weights are lower bounds of
//!   within-subgraph shortest distances.
//! * [`kspdg`] — the iterative filter-and-refine query algorithm. The filter step
//!   enumerates *reference paths* (successive shortest paths in `Gλ`); the refine step
//!   computes partial k-shortest paths between adjacent boundary vertices of the
//!   reference path inside the relevant subgraphs (in parallel across workers in the
//!   distributed runtime) and joins them into candidate KSPs. Iteration stops when the
//!   k-th best complete path found so far is no longer than the next reference path
//!   (Theorem 3), which guarantees the exact answer.
//!
//! The crate is deliberately independent of any particular execution environment: the
//! query service and the simulated cluster in `ksp-bench` drive the same types from
//! worker threads, while the examples and tests drive them single-threaded.
//!
//! # Quick example
//!
//! ```
//! use ksp_core::dtlp::{DtlpConfig, DtlpIndex};
//! use ksp_core::kspdg::KspDgEngine;
//! use ksp_graph::{GraphBuilder, VertexId};
//!
//! // A small road network.
//! let mut b = GraphBuilder::undirected(6);
//! b.edge(0, 1, 2).edge(1, 2, 2).edge(2, 3, 2).edge(3, 4, 2).edge(4, 5, 2).edge(0, 5, 9);
//! let graph = b.build().unwrap();
//!
//! // Build the index with subgraphs of at most 3 vertices and ξ = 2 bounding paths.
//! let index = DtlpIndex::build(&graph, DtlpConfig::new(3, 2)).unwrap();
//!
//! // Answer a 2-shortest-paths query.
//! let engine = KspDgEngine::new(&index);
//! let result = engine.query(VertexId(0), VertexId(4), 2);
//! assert_eq!(result.paths.len(), 2);
//! assert!(result.paths[0].distance() <= result.paths[1].distance());
//! ```

#![warn(missing_docs)]

pub mod dtlp;
pub mod kspdg;

pub use dtlp::{DtlpConfig, DtlpIndex, PathStorageBackend};
pub use kspdg::{KspDgEngine, QueryResult, QueryStats, QueryTrace, SharedEngine};
