//! Workload substrate for the KSP-DG reproduction.
//!
//! The paper evaluates on four DIMACS road networks (NY, COL, FLA, CUSA) whose travel
//! times evolve according to a published traffic model, and on batches of randomly
//! generated KSP queries. This crate provides everything needed to regenerate those
//! inputs deterministically:
//!
//! * [`rng`] — a small, seedable, portable PRNG (SplitMix64 + Xoshiro256**) so that
//!   every experiment is reproducible bit-for-bit across platforms without depending on
//!   the evolving API of external randomness crates.
//! * [`synthetic`] — a quasi-planar road-network generator producing graphs with the
//!   degree distribution and local structure of real road networks.
//! * [`datasets`] — named presets (`NY-S`, `COL-S`, `FLA-S`, `CUSA-S`) that preserve the
//!   relative sizes of the paper's four datasets at laptop-feasible scale, plus their
//!   default partition sizes `z`.
//! * [`dimacs`] — a parser for the DIMACS `.gr` format so the real datasets can be used
//!   when available.
//! * [`traffic`] — the Fleischmann-style traffic evolution model used in Section 6.2
//!   (a fraction `α` of edges change weight within a relative range `[-τ, +τ]`).
//! * [`queries`] — KSP query workload generation.

#![warn(missing_docs)]

pub mod datasets;
pub mod dimacs;
pub mod queries;
pub mod rng;
pub mod synthetic;
pub mod traffic;

pub use datasets::{DatasetPreset, DatasetSpec};
pub use queries::{KspQuery, QueryWorkload, QueryWorkloadConfig};
pub use rng::Xoshiro256;
pub use synthetic::{RoadNetworkConfig, RoadNetworkGenerator};
pub use traffic::{incident, TrafficConfig, TrafficModel};
