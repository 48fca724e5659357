//! Helpers shared by the integration tests.

use ksp_dg::graph::{DynamicGraph, UpdateBatch};
use ksp_dg::workload::Xoshiro256;

/// An incident: every edge within two hops of a random centre moves to
/// initial × U[0.7, 1.3]. It dirties a few subgraphs, so index maintenance
/// repairs the bounds it loosens.
pub fn incident(graph: &DynamicGraph, rng: &mut Xoshiro256) -> UpdateBatch {
    ksp_dg::workload::incident(graph, 2, rng)
}
