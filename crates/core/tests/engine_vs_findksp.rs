//! The KSP-DG engine against whole-graph FindKSP, answer by answer.
//!
//! Reference paths are canonical decompositions and each hop is refined inside its
//! own subgraph only, so exactness rests on two arguments written in the
//! `kspdg::query` and `kspdg::refine` module docs: a route's canonical reference
//! comes before Theorem 3's stop, and its refine yields the route or k shorter
//! simple routes. This test checks their conclusion on 300-vertex networks,
//! undirected and directed, at epoch 0 and after three paper-default global batches
//! (float weights, slack Theorem 1 bounds): every answer has FindKSP's distances, up
//! to float rounding, and only simple routes.

use ksp_algo::{find_ksp, Path};
use ksp_core::dtlp::{DtlpConfig, DtlpIndex};
use ksp_core::kspdg::KspDgEngine;
use ksp_graph::{DynamicGraph, VertexId};
use ksp_workload::{
    RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig, TrafficModel, Xoshiro256,
};

/// Uniform pairs per network state.
const UNIFORM_PAIRS: usize = 80;
/// Pairs of non-boundary endpoints that share a subgraph, per network state.
const SHARED_PAIRS: usize = 20;

/// The query pairs of one network state: uniform ones, then non-boundary pairs in
/// one subgraph.
fn pairs(graph: &DynamicGraph, index: &DtlpIndex, seed: u64) -> Vec<(VertexId, VertexId)> {
    let n = graph.num_vertices() as u64;
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut pairs = Vec::new();
    while pairs.len() < UNIFORM_PAIRS {
        let (s, t) = (VertexId(rng.next_bounded(n) as u32), VertexId(rng.next_bounded(n) as u32));
        if s != t {
            pairs.push((s, t));
        }
    }
    while pairs.len() < UNIFORM_PAIRS + SHARED_PAIRS {
        let sg = index.subgraph_index(ksp_graph::SubgraphId(
            rng.next_bounded(index.num_subgraphs() as u64) as u32,
        ));
        let inner: Vec<VertexId> =
            sg.subgraph().vertices().iter().copied().filter(|&x| !index.is_boundary(x)).collect();
        if inner.len() < 2 {
            continue;
        }
        let s = inner[rng.next_bounded(inner.len() as u64) as usize];
        let t = inner[rng.next_bounded(inner.len() as u64) as usize];
        if s != t {
            pairs.push((s, t));
        }
    }
    pairs
}

#[test]
fn engine_answers_match_whole_graph_findksp() {
    let mut answers = 0;
    for directed in [false, true] {
        let mut config = RoadNetworkConfig::with_vertices(300);
        config.directed = directed;
        let mut graph = RoadNetworkGenerator::new(config).generate(2023).unwrap().graph;
        let mut index = DtlpIndex::build(&graph, DtlpConfig::new(25, 2)).unwrap();
        let mut traffic = TrafficModel::new(&graph, TrafficConfig::default(), 5);
        for batches in [0, 3] {
            while traffic.snapshots_generated() < batches as u64 {
                let batch = traffic.next_snapshot();
                graph.apply_batch(&batch).unwrap();
                index.apply_batch(&batch).unwrap();
            }
            let engine = KspDgEngine::new(&index);
            for (s, t) in pairs(&graph, &index, 17 + batches as u64) {
                for k in 1..=5 {
                    let got = engine.query(s, t, k);
                    assert!(got.stats.iterations < 10_000, "{s}->{t} k={k} hit the cap");
                    let want = find_ksp(&graph, s, t, k);
                    let case = format!("directed {directed}, {batches} batches, {s}->{t}, k={k}");
                    assert_eq!(got.paths.len(), want.len(), "{case}: answer size");
                    for (g, w) in got.paths.iter().zip(&want) {
                        assert!(
                            g.distance().approx_eq(w.distance()),
                            "{case}: {} where FindKSP has {}",
                            g.distance(),
                            w.distance()
                        );
                        assert!(Path::is_simple(g.vertices()), "{case}: {:?}", g.vertices());
                    }
                    answers += 1;
                }
            }
        }
    }
    assert_eq!(answers, 2 * 2 * (UNIFORM_PAIRS + SHARED_PAIRS) * 5);
}
