//! Property tests of copy-on-write epoch publication.
//!
//! Two properties, checked over random road networks and random batch
//! sequences:
//!
//! 1. **Answer equivalence.** After any sequence of incrementally applied
//!    update batches, the COW-maintained index answers every `(s, t, k)`
//!    query with the same path distances as a `DtlpIndex::build` from scratch
//!    on the final graph. Incremental maintenance only loosens *bounds*
//!    (which cost work, never correctness), so the exact k-shortest-path
//!    answers must agree to the bit.
//! 2. **Structural sharing.** Publication copies exactly the subgraph indexes
//!    the batch dirtied: across any two consecutive epochs, every subgraph id
//!    not in the batch's dirty set is pointer-equal (`Arc::ptr_eq`) between
//!    the epochs — no silent deep copies. What it copies is weights only: a
//!    dirty subgraph index shares its bounding-path shape with the previous
//!    epoch, and the graph's and the skeleton's topology allocations are
//!    shared across the whole epoch chain.

use ksp_dg::core::dtlp::{DtlpConfig, DtlpIndex};
use ksp_dg::core::kspdg::KspDgEngine;
use ksp_dg::graph::{SubgraphId, UpdateBatch, Weight, WeightUpdate};
use ksp_dg::workload::{
    QueryWorkload, QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator, Xoshiro256,
};
use proptest::prelude::*;
use std::sync::Arc;

fn network(seed: u64) -> ksp_dg::graph::DynamicGraph {
    let size = 80 + (seed % 80) as usize;
    RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(size))
        .generate(seed)
        .expect("network generation")
        .graph
}

/// A random batch touching `fraction` of the edges.
fn perturb(graph: &ksp_dg::graph::DynamicGraph, seed: u64, fraction: f64) -> UpdateBatch {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let m = graph.num_edges();
    let count = (((m as f64) * fraction) as usize).max(1);
    let updates = rng
        .sample_indices(m, count)
        .into_iter()
        .map(|i| {
            let e = ksp_dg::graph::EdgeId(i as u32);
            let w0 = graph.initial_weight(e) as f64;
            let factor = rng.next_range_f64(0.4, 1.8);
            WeightUpdate::new(e, Weight::new((w0 * factor).max(0.05)))
        })
        .collect();
    UpdateBatch::new(updates)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn incremental_publication_matches_from_scratch_build(
        seed in 0u64..5_000,
        z in 10usize..32,
        rounds in 1usize..4,
    ) {
        let mut graph = network(seed);
        let config = DtlpConfig::new(z, 2);
        let mut index = DtlpIndex::build(&graph, config).unwrap();

        for round in 0..rounds {
            let batch = perturb(&graph, seed ^ (0xA5A5 + round as u64), 0.1);
            graph.apply_batch(&batch).unwrap();
            index.apply_batch(&batch).unwrap();
        }

        // From-scratch reference on the final graph, same configuration.
        let fresh = DtlpIndex::build(&graph, config).unwrap();
        let incremental_engine = KspDgEngine::new(&index);
        let fresh_engine = KspDgEngine::new(&fresh);

        let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(6, 3), seed ^ 0x51);
        for q in workload.iter() {
            let a = incremental_engine.query(q.source, q.target, q.k);
            let b = fresh_engine.query(q.source, q.target, q.k);
            prop_assert_eq!(
                a.paths.len(), b.paths.len(),
                "path count diverged for {} -> {} k={}", q.source, q.target, q.k
            );
            for (pa, pb) in a.paths.iter().zip(b.paths.iter()) {
                // Rank-by-rank bit-equal distances: the engines may tie-break
                // equal-length paths differently, but the distance multiset of
                // the exact k shortest paths is unique.
                prop_assert_eq!(
                    pa.distance().value().to_bits(),
                    pb.distance().value().to_bits(),
                    "distance diverged for {} -> {} k={}", q.source, q.target, q.k
                );
            }
        }
    }

    #[test]
    fn publication_shares_every_untouched_subgraph(
        seed in 0u64..5_000,
        z in 10usize..32,
        rounds in 1usize..5,
    ) {
        let initial_graph = network(seed);
        let config = DtlpConfig::new(z, 2);
        let mut graph = initial_graph.clone();
        let initial_index = DtlpIndex::build(&graph, config).unwrap();
        let mut index = initial_index.clone();

        for round in 0..rounds {
            let prev_index = index.clone();
            let batch = perturb(&graph, seed ^ (0xBEEF + round as u64), 0.05);
            graph.apply_batch(&batch).unwrap();
            let stats = index.apply_batch(&batch).unwrap();

            // The reported dirty set is exactly the owners of updated edges.
            let mut expected: Vec<SubgraphId> =
                batch.iter().map(|u| index.owner_of_edge(u.edge)).collect();
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(&stats.dirty_subgraphs, &expected);

            for id in 0..index.num_subgraphs() {
                let id = SubgraphId(id as u32);
                let shared = Arc::ptr_eq(
                    prev_index.subgraph_index_handle(id),
                    index.subgraph_index_handle(id),
                );
                if stats.dirty_subgraphs.contains(&id) {
                    prop_assert!(!shared, "dirty subgraph {} must be unshared", id.0);
                    prop_assert!(
                        index.subgraph_index(id).shares_structure_with(prev_index.subgraph_index(id)),
                        "dirty subgraph {} copied its bounding-path shape", id.0
                    );
                } else {
                    prop_assert!(shared, "untouched subgraph {} was deep-copied", id.0);
                }
            }
        }
        // Weight-only maintenance never copies graph or skeleton structure.
        prop_assert!(graph.shares_topology_with(&initial_graph));
        prop_assert!(index.skeleton().shares_structure_with(initial_index.skeleton()));
    }
}
