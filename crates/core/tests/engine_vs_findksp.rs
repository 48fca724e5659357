//! The KSP-DG engine against whole-graph FindKSP, answer by answer.
//!
//! Reference paths are canonical decompositions and each hop is refined inside its
//! own subgraph only, so exactness rests on two arguments written in the
//! `kspdg::query` and `kspdg::refine` module docs: a route's canonical reference
//! comes before Theorem 3's stop, and its refine yields the route or k shorter
//! simple routes. This test checks their conclusion on 300-vertex networks,
//! undirected and directed, at epoch 0, after three paper-default global batches
//! (float weights, slack Theorem 1 bounds) and after an incident on top of them:
//! every answer has FindKSP's distances, up to float rounding, and only simple
//! routes.
//!
//! One index serves all three states, so the subgraphs' memos of boundary-pair
//! partials carry over: the global batches dirty nearly every subgraph and must
//! drop what they memoised, and the incident dirties one to three and must leave
//! the others' entries in use. A second test measures what the memo is worth on
//! pairs no earlier query asked.

use ksp_algo::{find_ksp, Path};
use ksp_core::dtlp::{DtlpConfig, DtlpIndex};
use ksp_core::kspdg::KspDgEngine;
use ksp_graph::{DynamicGraph, UpdateBatch, VertexId};
use ksp_workload::{
    incident, RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig, TrafficModel, Xoshiro256,
};
use std::collections::BTreeSet;

/// Uniform pairs per network state.
const UNIFORM_PAIRS: usize = 80;
/// Pairs of non-boundary endpoints that share a subgraph, per network state.
const SHARED_PAIRS: usize = 20;

/// The 300-vertex network and its index at epoch 0.
fn network(directed: bool) -> (DynamicGraph, DtlpIndex) {
    let mut config = RoadNetworkConfig::with_vertices(300);
    config.directed = directed;
    let graph = RoadNetworkGenerator::new(config).generate(2023).unwrap().graph;
    let index = DtlpIndex::build(&graph, DtlpConfig::new(25, 2)).unwrap();
    (graph, index)
}

/// `uniform` seeded pairs with distinct endpoints, then `shared` pairs of
/// non-boundary endpoints in one subgraph.
fn pairs(
    graph: &DynamicGraph,
    index: &DtlpIndex,
    (uniform, shared): (usize, usize),
    seed: u64,
) -> Vec<(VertexId, VertexId)> {
    let n = graph.num_vertices() as u64;
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut pairs = Vec::new();
    while pairs.len() < uniform {
        let (s, t) = (VertexId(rng.next_bounded(n) as u32), VertexId(rng.next_bounded(n) as u32));
        if s != t {
            pairs.push((s, t));
        }
    }
    while pairs.len() < uniform + shared {
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

/// An incident of radius three, its centre drawn until its edges lie in one to
/// three subgraphs, so the batch is local.
fn local_incident(graph: &DynamicGraph, index: &DtlpIndex, rng: &mut Xoshiro256) -> UpdateBatch {
    loop {
        let batch = incident(graph, 3, rng);
        let owners: BTreeSet<_> = batch.iter().map(|u| index.owner_of_edge(u.edge)).collect();
        if owners.len() <= 3 {
            return batch;
        }
    }
}

#[test]
fn engine_answers_match_whole_graph_findksp() {
    let mut answers = 0;
    for directed in [false, true] {
        let (mut graph, mut index) = network(directed);
        let mut traffic = TrafficModel::new(&graph, TrafficConfig::default(), 5);
        let mut rng = Xoshiro256::seed_from_u64(41);
        let mut asked = Vec::new();
        for (state, seed) in [("epoch 0", 17), ("3 global batches", 20), ("an incident", 23)] {
            match state {
                "3 global batches" => {
                    for _ in 0..3 {
                        let batch = traffic.next_snapshot();
                        graph.apply_batch(&batch).unwrap();
                        index.apply_batch(&batch).unwrap();
                    }
                }
                "an incident" => {
                    // The previous state's pair whose answer reads the most memoised
                    // partials: all of them are boundary-pair hops its k = 5 run
                    // memoised.
                    let engine = KspDgEngine::new(&index);
                    let reads = |&(s, t): &(VertexId, VertexId)| {
                        (engine.query(s, t, 5).stats.partials_reused, s, t)
                    };
                    let (reads, s, t) = asked.iter().map(reads).max().unwrap();
                    assert!(reads > 0, "directed {directed}: no answer reads a memoised partial");
                    let batch = local_incident(&graph, &index, &mut rng);
                    graph.apply_batch(&batch).unwrap();
                    let dirty = index.apply_batch(&batch).unwrap().dirty_subgraphs.len();
                    assert!((1..=3).contains(&dirty), "directed {directed}: {dirty} dirty");
                    // The first query after the batch can only read partials memoised
                    // before it: those of the subgraphs the incident left clean.
                    let after = KspDgEngine::new(&index).query(s, t, 5).stats.partials_reused;
                    assert!(after > 0, "directed {directed}: {s}->{t} read {reads}, now 0");
                }
                _ => {}
            }
            let engine = KspDgEngine::new(&index);
            asked = pairs(&graph, &index, (UNIFORM_PAIRS, SHARED_PAIRS), seed);
            for &(s, t) in &asked {
                for k in 1..=5 {
                    let got = engine.query(s, t, k);
                    assert!(got.stats.iterations < 10_000, "{s}->{t} k={k} hit the cap");
                    let want = find_ksp(&graph, s, t, k);
                    let case = format!("directed {directed}, {state}, {s}->{t}, k={k}");
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
    assert_eq!(answers, 2 * 3 * (UNIFORM_PAIRS + SHARED_PAIRS) * 5);
}

#[test]
fn fresh_pairs_read_most_boundary_partials_from_the_memo() {
    // The gain must not come from replaying the same pairs. After 200 seeded
    // queries, 100 pairs none of them asked: the share of their boundary-pair
    // partials that an earlier query had computed. Run a second time, every such
    // partial is a memo hit, so that run's `partials_reused` counts them all.
    let (graph, index) = network(false);
    let engine = KspDgEngine::new(&index);
    let reads = |pairs: &[(VertexId, VertexId)]| -> usize {
        pairs.iter().map(|&(s, t)| engine.query(s, t, 3).stats.partials_reused).sum()
    };
    let warm = pairs(&graph, &index, (200, 0), 61);
    reads(&warm);
    let fresh: Vec<_> = pairs(&graph, &index, (400, 0), 62)
        .into_iter()
        .filter(|p| !warm.contains(p))
        .take(100)
        .collect();
    assert_eq!(fresh.len(), 100);
    let (reused, boundary_partials) = (reads(&fresh), reads(&fresh));
    assert!(boundary_partials >= 100, "only {boundary_partials} boundary-pair partials");
    assert!(
        2 * reused >= boundary_partials,
        "{reused} of {boundary_partials} boundary-pair partials came from the memo"
    );
}
