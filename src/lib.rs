//! Facade crate for the KSP-DG system: distributed processing of k shortest path
//! queries over dynamic road networks (reproduction of the SIGMOD 2020 paper).
//!
//! This crate re-exports the workspace members under short module names so that
//! applications (and the examples in `examples/`) can depend on a single crate:
//!
//! * [`graph`] — the dynamic weighted graph substrate ([`ksp_graph`]).
//! * [`algo`] — Dijkstra, Yen's algorithm, FindKSP and path utilities ([`ksp_algo`]).
//! * [`core`] — the DTLP index and the KSP-DG query engine ([`ksp_core`]).
//! * [`workload`] — dataset generators, the traffic model and query workloads
//!   ([`ksp_workload`]).
//! * [`serve`] — the concurrent query-serving subsystem: epoch snapshots,
//!   sharded workers, admission control and an epoch-keyed result cache
//!   ([`ksp_serve`]).
//! * [`store`] — durable checkpoints and the epoch delta log with crash
//!   recovery: cold starts load a checkpoint and replay the log instead of
//!   rebuilding the index ([`ksp_store`]).
//! * [`obs`] — the observability toolkit: per-stage request spans, latency
//!   histograms, the flight recorder and the Prometheus text renderer
//!   ([`ksp_obs`]); `serve` threads it through the query pipeline and
//!   `proto` carries its snapshots over the wire.
//! * [`fault`] — seeded deterministic fault injection ([`ksp_fault`]): the
//!   fault plans the chaos tests drive the storage backend ([`store::FaultyIo`])
//!   and network wrapper ([`proto::FaultTransport`]) with.
//! * [`proto`] — the typed request/response wire protocol (CRC-guarded,
//!   versioned frames) and the pluggable [`Transport`](ksp_proto::Transport)
//!   with its TCP implementation and [`KspClient`](ksp_proto::KspClient)
//!   handle ([`ksp_proto`]); the matching server lives in
//!   [`serve::rpc`].
//!
//! # Quickstart
//!
//! ```
//! use ksp_dg::core::dtlp::{DtlpConfig, DtlpIndex};
//! use ksp_dg::core::kspdg::KspDgEngine;
//! use ksp_dg::workload::{RoadNetworkConfig, RoadNetworkGenerator};
//! use ksp_dg::graph::VertexId;
//!
//! let net = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(300))
//!     .generate(42)
//!     .expect("network generation");
//! let index = DtlpIndex::build(&net.graph, DtlpConfig::new(25, 2)).expect("index build");
//! let engine = KspDgEngine::new(&index);
//! let result = engine.query(VertexId(0), VertexId(120), 3);
//! assert!(!result.paths.is_empty());
//! ```

#![warn(missing_docs)]

pub use ksp_algo as algo;
pub use ksp_core as core;
pub use ksp_fault as fault;
pub use ksp_graph as graph;
pub use ksp_obs as obs;
pub use ksp_proto as proto;
pub use ksp_repl as repl;
pub use ksp_serve as serve;
pub use ksp_store as store;
pub use ksp_workload as workload;
