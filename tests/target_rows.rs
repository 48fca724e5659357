//! The index's target rows are derived state, like the partial-path memo: each
//! row has the bits of the search it replaces, no answer depends on who filled it
//! or whether it was filled at all, and it never reaches a checkpoint image.
//!
//! A row replaces the reverse search a query used to run over its own overlay:
//! the skeleton plus both endpoints' attachments. Every row entry, and the
//! source's distance added to it, must have the bits of that search, on
//! undirected and directed networks, at epoch 0, after global batches and after
//! incidents, with the rows filled at earlier epochs by the same targets.

mod common;

use common::incident;
use ksp_dg::algo::SearchArena;
use ksp_dg::core::dtlp::{DtlpConfig, DtlpIndex, OverlayView, TargetDistances, TargetRow};
use ksp_dg::core::kspdg::{KspDgConfig, KspDgEngine, QueryResult, QueryStats};
use ksp_dg::graph::{DynamicGraph, SubgraphId, UpdateBatch, VertexId, Weight, WeightUpdate};
use ksp_dg::store::Store;
use ksp_dg::workload::{QueryWorkload, QueryWorkloadConfig, Xoshiro256};
use ksp_dg::workload::{RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig, TrafficModel};
use std::sync::Arc;

fn network(directed: bool, seed: u64) -> DynamicGraph {
    let mut config = RoadNetworkConfig::with_vertices(300);
    config.directed = directed;
    RoadNetworkGenerator::new(config).generate(seed).unwrap().graph
}

/// Routes, distance bits, counters but `partials_reused`, and the certified trace.
type Answer = (Vec<(Vec<VertexId>, u64)>, QueryStats, bool, Vec<SubgraphId>);

fn answer(r: QueryResult) -> Answer {
    let paths = r.paths.iter().map(|p| (p.vertices().to_vec(), p.distance().value().to_bits()));
    let stats = QueryStats { partials_reused: 0, ..r.stats };
    (paths.collect(), stats, r.trace.complete, r.trace.subgraphs.iter().collect())
}

fn answers(index: &DtlpIndex, workload: &QueryWorkload) -> Vec<Answer> {
    let engine = KspDgEngine::with_config(index, KspDgConfig::default().with_trace());
    workload.iter().map(|q| answer(engine.query(q.source, q.target, q.k))).collect()
}

/// The overlay a query from `s` to `t` searched before rows existed: the skeleton,
/// both endpoints' attachments and, for two non-boundary endpoints sharing a
/// subgraph, the edge between them.
fn query_overlay<'i>(
    index: &'i DtlpIndex,
    s: VertexId,
    t: VertexId,
    arena: &mut SearchArena,
) -> OverlayView<'i> {
    let mut overlay = index.skeleton().overlay();
    let add = |overlay: &mut OverlayView<'_>, u, v, d, sg| {
        if index.is_directed() {
            overlay.add_edge(u, v, d, sg);
        } else {
            overlay.add_undirected_edge(u, v, d, sg);
        }
    };
    if !index.is_boundary(s) {
        for &sg in index.subgraphs_of_vertex(s) {
            for (b, d) in index.subgraph_index(sg).boundary_distances_from(s, arena) {
                if b != s {
                    add(&mut overlay, s, b, d, sg);
                }
            }
        }
    }
    if !index.is_boundary(t) {
        for &sg in index.subgraphs_of_vertex(t) {
            for (b, d) in index.subgraph_index(sg).boundary_distances_to(t, arena) {
                if b != t {
                    add(&mut overlay, b, t, d, sg);
                }
            }
        }
    }
    if !index.is_boundary(s) && !index.is_boundary(t) {
        for sg in index.subgraphs_containing_pair(s, t) {
            let subgraph = index.subgraph_index(sg).subgraph();
            if let Some(p) = arena.shortest_path(subgraph, s, t, &[], &[]) {
                add(&mut overlay, s, t, p.distance(), sg);
            }
        }
    }
    overlay
}

/// Checks every distance the query `s → t` reads through [`TargetDistances`], and
/// every entry of its target's row, against a full search over the query's own
/// overlay. Returns how many distances read larger than the search's.
///
/// The source's distance and every vertex whose searched route avoids the source
/// must have the search's bits. A vertex whose route passes through the source may
/// read larger: over an undirected skeleton, a detour `b → s → b'` through the
/// source's attachments is never shorter than the skeleton edge `b → b'` it
/// bypasses, but its sum can round below that edge's. No reference path and no
/// simple route's suffix passes through the source, so the row's value is the one
/// the heuristic and the survival sweep need; it must still agree with the search
/// up to rounding.
fn assert_distances_are_the_search(index: &DtlpIndex, s: VertexId, t: VertexId) -> usize {
    let mut arena = SearchArena::new();
    let overlay = query_overlay(index, s, t, &mut arena);
    let mut search = SearchArena::new();
    search.search_from(&overlay.reversed(), t);
    let bits = |w: Weight| w.value().to_bits();

    let mut attached = Vec::new();
    if !index.is_boundary(t) {
        for &sg in index.subgraphs_of_vertex(t) {
            let to_t = index.subgraph_index(sg).boundary_distances_to(t, &mut arena);
            attached.extend(to_t.into_iter().filter(|&(b, _)| b != t).map(|(b, d)| (b, d, sg)));
        }
    }
    let row = index.target_row(t).expect("the query left a row");
    assert_eq!(row.attachments(), attached.as_slice(), "{s}->{t}: attachments");
    let mut to_target = TargetDistances::new(index, t, &mut arena);
    assert_eq!(to_target.attachments(), attached.as_slice(), "{s}->{t}: attachments");
    to_target.add_source(&overlay, s);

    let skeleton = index.skeleton();
    let attachment_ends = row.attachments().iter().map(|&(b, _, _)| b);
    let mut larger = 0;
    for v in skeleton.vertices().chain(attachment_ends).chain([t]) {
        let (got, want) = (to_target.get(v), search.distance(v));
        if let Some(entry) = row.distance(skeleton, v) {
            assert_eq!(bits(entry), bits(got), "{s}->{t}: row at {v}");
        }
        if v == s {
            continue;
        }
        if search.path_to(v).is_some_and(|route| route.contains(s)) {
            assert!(want <= got && got.approx_eq(want), "{s}->{t}: at {v}: {got} {want}");
            larger += (want < got) as usize;
        } else {
            assert_eq!(bits(got), bits(want), "{s}->{t}: at {v}");
        }
    }
    assert_eq!(bits(to_target.get(s)), bits(search.distance(s)), "{s}->{t}: h(source)");
    larger
}

#[test]
fn rows_have_the_bits_of_each_querys_own_reverse_search() {
    // 90 queries per state over 30 targets, so most queries read a row an earlier
    // one filled; the same targets recur after each batch, so a row kept across
    // `apply_batch` would be read at the next state and fail the bit check.
    let (mut checked, mut larger) = (0, 0);
    for directed in [false, true] {
        let mut graph = network(directed, 97);
        let mut index = DtlpIndex::build(&graph, DtlpConfig::new(25, 2)).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(7);
        let n = graph.num_vertices() as u64;
        let targets: Vec<VertexId> =
            (0..30).map(|_| VertexId(rng.next_bounded(n) as u32)).collect();
        let mut traffic = TrafficModel::new(&graph, TrafficConfig::default(), 97);
        for state in 0..3 {
            let batches: Vec<UpdateBatch> = match state {
                0 => Vec::new(),
                1 => (0..3).map(|_| traffic.next_snapshot()).collect(),
                _ => (0..3).map(|_| incident(&graph, &mut rng)).collect(),
            };
            for batch in &batches {
                graph.apply_batch(batch).unwrap();
                index.apply_batch(batch).unwrap();
                assert!(targets.iter().all(|&t| index.target_row(t).is_none()));
            }
            let engine = KspDgEngine::with_config(&index, KspDgConfig::default().with_trace());
            for i in 0..90 {
                let s = VertexId(rng.next_bounded(n) as u32);
                let t = targets[i % targets.len()];
                if s == t {
                    continue;
                }
                engine.query(s, t, 2);
                larger += assert_distances_are_the_search(&index, s, t);
                checked += 1;
            }
        }
    }
    assert!(checked >= 500, "only {checked} queries checked");
    eprintln!("{larger} distances read larger than a query's search, by rounding");
}

#[test]
fn a_clone_shares_the_rows_until_it_is_updated() {
    let graph = network(false, 2024);
    let config = DtlpConfig::new(25, 2);
    let index = DtlpIndex::build(&graph, config).unwrap();
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(40, 3), 5);
    let before = answers(&index, &workload);
    let rows: Vec<Arc<TargetRow>> =
        workload.iter().map(|q| index.target_row(q.target).expect("a row")).collect();

    let mut clone = index.clone();
    for (q, row) in workload.iter().zip(&rows) {
        assert!(Arc::ptr_eq(&clone.target_row(q.target).unwrap(), row), "{q:?} not shared");
    }
    let batch = TrafficModel::new(&graph, TrafficConfig::default(), 5).next_snapshot();
    clone.apply_batch(&batch).unwrap();

    // The original keeps its rows and its answers.
    for (q, row) in workload.iter().zip(&rows) {
        assert!(Arc::ptr_eq(&index.target_row(q.target).unwrap(), row), "{q:?} row lost");
    }
    assert_eq!(answers(&index, &workload), before);
    // The clone recomputes, and answers as an index that never had rows.
    assert!(workload.iter().all(|q| clone.target_row(q.target).is_none()), "a row was kept");
    let mut cold = DtlpIndex::build(&graph, config).unwrap();
    cold.apply_batch(&batch).unwrap();
    assert_eq!(answers(&clone, &workload), answers(&cold, &workload));
    for (q, row) in workload.iter().zip(&rows) {
        assert!(!Arc::ptr_eq(&clone.target_row(q.target).unwrap(), row), "{q:?} row kept");
    }
}

#[test]
fn two_threads_on_one_cold_index_answer_as_a_sequential_run() {
    // 240 queries over 12 targets, run forward and backward by two threads on one
    // cold index, so they race to compute and offer the same rows.
    let graph = network(true, 2023);
    let cold = || DtlpIndex::build(&graph, DtlpConfig::new(25, 2)).unwrap();
    let (shared, alone) = (cold(), cold());
    let mut workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(240, 3), 31);
    let targets: Vec<VertexId> = workload.queries[..12].iter().map(|q| q.target).collect();
    for (i, q) in workload.queries.iter_mut().enumerate() {
        q.target = targets[i % targets.len()];
    }
    workload.queries.retain(|q| q.source != q.target);
    let run = |index: &DtlpIndex, order: &mut dyn Iterator<Item = usize>| {
        let engine = KspDgEngine::with_config(index, KspDgConfig::default().with_trace());
        let mut answers = vec![None; workload.len()];
        for i in order {
            let q = &workload.queries[i];
            answers[i] = Some(answer(engine.query(q.source, q.target, q.k)));
        }
        answers
    };
    let sequential = run(&alone, &mut (0..workload.len()));
    let (forward, backward) = std::thread::scope(|scope| {
        let forward = scope.spawn(|| run(&shared, &mut (0..workload.len())));
        let backward = scope.spawn(|| run(&shared, &mut (0..workload.len()).rev()));
        (forward.join().unwrap(), backward.join().unwrap())
    });
    assert_eq!(forward, sequential, "forward thread");
    assert_eq!(backward, sequential, "backward thread");
}

#[test]
fn warmed_rows_reach_no_checkpoint_image() {
    let graph = network(false, 79);
    let index = DtlpIndex::build(&graph, DtlpConfig::new(20, 2)).unwrap();
    let image = || Store::encode_checkpoint(0, &graph, &index).bytes().to_vec();
    let cold = image();
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(30, 2), 79);
    let _ = answers(&index, &workload);
    assert!(index.memo_bytes() > 0, "the queries must fill memos");
    assert_eq!(image(), cold, "warmed rows must not reach the checkpoint image");
}

#[test]
fn memo_bytes_count_what_queries_filled_on_the_current_weights() {
    let graph = network(false, 11);
    let mut index = DtlpIndex::build(&graph, DtlpConfig::new(25, 2)).unwrap();
    assert_eq!(index.memo_bytes(), 0, "after build");
    index
        .apply_batch(&TrafficModel::new(&graph, TrafficConfig::default(), 11).next_snapshot())
        .unwrap();
    assert_eq!(index.memo_bytes(), 0, "after a batch on a cold index");

    let engine = KspDgEngine::new(&index);
    let first = engine.query(VertexId(3), VertexId(250), 3);
    assert!(!first.paths.is_empty());
    let one = index.memo_bytes();
    assert!(one > 0, "after a query");
    engine.query(VertexId(40), VertexId(120), 3);
    assert!(index.memo_bytes() > one, "a second target adds a row");

    // A batch that dirties every subgraph lets go of every memo; the epoch it
    // forked from keeps them.
    let mut owned = vec![None; index.num_subgraphs()];
    for e in graph.edge_ids() {
        owned[index.owner_of_edge(e).index()].get_or_insert(e);
    }
    let updates = owned.into_iter().flatten().map(|e| WeightUpdate::new(e, graph.weight(e) * 1.5));
    let mut next = index.clone();
    next.apply_batch(&UpdateBatch::new(updates.collect())).unwrap();
    assert_eq!(next.memo_bytes(), 0, "after a batch dirtying every subgraph");
    assert!(index.memo_bytes() > one);
}
