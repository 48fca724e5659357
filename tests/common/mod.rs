//! Helpers shared by the integration tests.

use ksp_dg::graph::{DynamicGraph, GraphView, UpdateBatch, VertexId, Weight, WeightUpdate};
use ksp_dg::workload::Xoshiro256;

/// An incident: every edge within two hops of a random centre moves to
/// initial × U[0.7, 1.3]. It dirties a few subgraphs, so index maintenance
/// repairs the bounds it loosens.
pub fn incident(graph: &DynamicGraph, rng: &mut Xoshiro256) -> UpdateBatch {
    let mut reached = vec![VertexId(rng.next_bounded(graph.num_vertices() as u64) as u32)];
    let mut edges = std::collections::BTreeSet::new();
    for _ in 0..2 {
        for u in std::mem::take(&mut reached) {
            for (v, _) in graph.neighbors(u) {
                if edges.insert(graph.edge_between(u, v).unwrap()) {
                    reached.push(v);
                }
            }
        }
    }
    let updates = edges
        .into_iter()
        .map(|e| {
            let factor = rng.next_range_f64(0.7, 1.3);
            WeightUpdate::new(e, Weight::new(graph.initial_weight(e) as f64 * factor))
        })
        .collect();
    UpdateBatch::new(updates)
}
