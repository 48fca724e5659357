//! End-to-end integration tests spanning the whole workspace: dataset generation →
//! partitioning → DTLP construction → traffic evolution → KSP-DG queries, validated
//! against the centralized baselines on the live graph.

use ksp_dg::algo::{find_ksp, yen_ksp};
use ksp_dg::core::dtlp::{DtlpConfig, DtlpIndex};
use ksp_dg::core::kspdg::KspDgEngine;
use ksp_dg::workload::datasets::DatasetScale;
use ksp_dg::workload::{
    DatasetPreset, QueryWorkload, QueryWorkloadConfig, TrafficConfig, TrafficModel,
};

fn tiny_dataset(preset: DatasetPreset) -> (ksp_dg::graph::DynamicGraph, usize) {
    let spec = preset.spec(DatasetScale::Tiny);
    let net = spec.generate().expect("dataset generation");
    (net.graph, spec.default_z)
}

#[test]
fn full_pipeline_matches_yen_across_traffic_snapshots() {
    let (mut graph, z) = tiny_dataset(DatasetPreset::NewYork);
    let mut index = DtlpIndex::build(&graph, DtlpConfig::new(z, 2)).expect("index build");
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::default(), 11);

    for snapshot in 0..3 {
        let workload =
            QueryWorkload::generate(&graph, QueryWorkloadConfig::new(6, 3), 100 + snapshot);
        let engine = KspDgEngine::new(&index);
        for q in workload.iter() {
            let got = engine.query(q.source, q.target, q.k);
            let expected = yen_ksp(&graph, q.source, q.target, q.k);
            assert_eq!(got.paths.len(), expected.len(), "snapshot {snapshot}, query {q:?}");
            for (a, b) in got.paths.iter().zip(expected.iter()) {
                assert!(
                    a.distance().approx_eq(b.distance()),
                    "snapshot {snapshot}, query {q:?}: {} vs {}",
                    a.distance(),
                    b.distance()
                );
            }
        }
        let batch = traffic.next_snapshot();
        graph.apply_batch(&batch).expect("graph update");
        index.apply_batch(&batch).expect("index maintenance");
    }
}

#[test]
fn all_three_ksp_algorithms_agree() {
    let (graph, _) = tiny_dataset(DatasetPreset::Colorado);
    let index = DtlpIndex::build(&graph, DtlpConfig::new(20, 2)).expect("index build");
    let engine = KspDgEngine::new(&index);
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(5, 4), 77);
    for q in workload.iter() {
        let a = engine.query(q.source, q.target, q.k);
        let b = yen_ksp(&graph, q.source, q.target, q.k);
        let c = find_ksp(&graph, q.source, q.target, q.k);
        assert_eq!(a.paths.len(), b.len());
        assert_eq!(b.len(), c.len());
        for ((x, y), z) in a.paths.iter().zip(b.iter()).zip(c.iter()) {
            assert!(x.distance().approx_eq(y.distance()));
            assert!(y.distance().approx_eq(z.distance()));
        }
    }
}

#[test]
fn dimacs_roundtrip_feeds_the_index() {
    // Write a miniature DIMACS file, parse it and run the whole stack on it.
    let gr = "\
c tiny test network
p sp 6 14
a 1 2 4\na 2 1 4\na 2 3 3\na 3 2 3\na 3 4 2\na 4 3 2\na 4 5 5\na 5 4 5\na 5 6 1\na 6 5 1\na 1 6 20\na 6 1 20\na 2 5 9\na 5 2 9\n";
    let graph = ksp_dg::workload::dimacs::parse_gr(std::io::Cursor::new(gr), false).expect("parse");
    assert_eq!(graph.num_vertices(), 6);
    let index = DtlpIndex::build(&graph, DtlpConfig::new(3, 2)).expect("index build");
    let engine = KspDgEngine::new(&index);
    let result = engine.query(ksp_dg::graph::VertexId(0), ksp_dg::graph::VertexId(5), 2);
    let expected = yen_ksp(&graph, ksp_dg::graph::VertexId(0), ksp_dg::graph::VertexId(5), 2);
    assert_eq!(result.paths.len(), expected.len());
    for (a, b) in result.paths.iter().zip(expected.iter()) {
        assert!(a.distance().approx_eq(b.distance()));
    }
}

#[test]
fn directed_dataset_queries_match_yen() {
    let spec = DatasetPreset::NewYork.spec(DatasetScale::Tiny);
    let net = spec.generate_directed().expect("dataset generation");
    let graph = net.graph;
    assert!(graph.is_directed());
    let index = DtlpIndex::build(&graph, DtlpConfig::new(spec.default_z, 2)).expect("index build");
    assert!(index.is_directed());
    let engine = KspDgEngine::new(&index);
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(6, 2), 19);
    for q in workload.iter() {
        let got = engine.query(q.source, q.target, q.k);
        let expected = yen_ksp(&graph, q.source, q.target, q.k);
        assert_eq!(got.paths.len(), expected.len(), "query {q:?}");
        for (a, b) in got.paths.iter().zip(expected.iter()) {
            assert!(a.distance().approx_eq(b.distance()));
        }
    }
}

#[test]
fn skeleton_stays_small_relative_to_graph() {
    let (graph, z) = tiny_dataset(DatasetPreset::Colorado);
    let index = DtlpIndex::build(&graph, DtlpConfig::new(z, 1)).expect("index build");
    let skeleton = index.skeleton();
    assert!(skeleton.num_skeleton_vertices() < graph.num_vertices());
    assert!(skeleton.num_skeleton_vertices() > 0);
    // Every skeleton vertex is a boundary vertex of the partitioning.
    for v in skeleton.vertices() {
        assert!(index.is_boundary(v));
    }
}
