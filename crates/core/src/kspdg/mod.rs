//! The KSP-DG query algorithm (Section 5 of the paper).
//!
//! * [`refine`] — the refine step: partial k-shortest-path computation between adjacent
//!   reference-path vertices inside the relevant subgraphs, the join that assembles
//!   candidate complete paths (Algorithm 4), the cross-iteration cache of partial
//!   results the paper describes as the main optimisation of `candidateKSP`, and its
//!   use of the per-subgraph memo that shares boundary-pair partials across queries
//!   on one set of weights (lifetime rule in `dtlp::memo`).
//! * [`query`] — the full iterative filter-and-refine loop (Algorithm 3) with the
//!   termination condition of Theorem 3, support for non-boundary endpoints
//!   (Section 5.3) and per-query statistics matching the paper's cost model
//!   (Section 5.6).

pub mod query;
pub mod refine;

pub use query::{KspDgConfig, KspDgEngine, QueryResult, QueryStats, QueryTrace, MAX_ITERATIONS};
pub use refine::{candidate_ksp, PartialPathCache};
