//! Bit-identity guard for the KSP-DG engine.
//!
//! The other engine tests compare answer *distances* against Yen, which would
//! not notice a search that breaks a tie differently: an equally long route, a
//! different candidate order, or one more partial computation. Each network
//! here has two pins. The answer pin folds routes, the exact bits of every
//! distance and the `QueryStats` counters into one FNV-1a digest; the trace pin
//! folds `trace.complete` and the traced subgraph set into another. A change to
//! the search internals must leave both alone. A change to how the survival
//! certificate is drawn moves only the trace pins, and re-pins them saying why;
//! a change that is *meant* to alter answers or counters re-pins the answer pins.

use ksp_core::dtlp::{DtlpConfig, DtlpIndex};
use ksp_core::kspdg::{KspDgConfig, KspDgEngine, QueryResult};
use ksp_workload::{
    QueryWorkload, QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig,
    TrafficModel,
};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Routes, distance bits and statistics of one answer.
    fn answer(&mut self, r: &QueryResult) {
        self.word(r.paths.len() as u64);
        for path in &r.paths {
            self.word(path.distance().value().to_bits());
            self.word(path.num_vertices() as u64);
            for v in path.vertices() {
                self.word(v.0 as u64);
            }
        }
        let s = &r.stats;
        for count in [
            s.iterations,
            s.partial_computations,
            s.partial_cache_hits,
            s.subgraphs_examined,
            s.candidates_generated,
            s.vertices_transferred,
            s.spur_searches,
        ] {
            self.word(count as u64);
        }
    }

    /// The survival certificate of one answer.
    fn trace(&mut self, r: &QueryResult) {
        self.word(r.trace.complete as u64);
        self.word(r.trace.subgraphs.len() as u64);
        for sg in r.trace.subgraphs.iter() {
            self.word(sg.0 as u64);
        }
    }
}

/// The answer and trace digests of one workload, the paths it returned and the
/// subgraphs its traces hold in total.
struct Digests {
    answers: u64,
    traces: u64,
    paths: usize,
    traced: usize,
}

/// Answers of the undirected network at epoch 0.
const GOLDEN: u64 = 0x0875_e65a_13b2_df89;
/// Traces of the undirected network at epoch 0.
const GOLDEN_TRACES: u64 = 0x860a_87e6_1e38_3726;

/// The same workload over the directed variant of the network after two
/// paper-default traffic batches, which change the two directions of a road
/// independently.
const DIRECTED_GOLDEN: u64 = 0x4f61_5325_e371_4c37;
/// Traces of the directed network after two batches.
const DIRECTED_GOLDEN_TRACES: u64 = 0x80e7_0897_9f76_2830;

/// The undirected network after three paper-default traffic batches, each dirtying
/// enough subgraphs to keep Theorem 1's slack bounds rather than repair them.
const SLACK_GOLDEN: u64 = 0xde5e_18f0_4eec_db73;
/// Traces of the undirected network after three batches.
const SLACK_GOLDEN_TRACES: u64 = 0xe74c_30d3_4c71_dbef;

/// The 300-vertex network, its DTLP index at z = 25, ξ = 2, after `batches`
/// paper-default traffic snapshots, and the digests of 60 seeded `k = 3` queries
/// answered with certified traces.
fn digests_of(directed: bool, batches: usize) -> Digests {
    let mut config = RoadNetworkConfig::with_vertices(300);
    config.directed = directed;
    let mut graph = RoadNetworkGenerator::new(config).generate(2024).unwrap().graph;
    let mut index = DtlpIndex::build(&graph, DtlpConfig::new(25, 2)).unwrap();
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::default(), 7);
    for _ in 0..batches {
        let batch = traffic.next_snapshot();
        graph.apply_batch(&batch).unwrap();
        index.apply_batch(&batch).unwrap();
    }
    let engine = KspDgEngine::with_config(&index, KspDgConfig::default().with_trace());
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(60, 3), 11);
    let (mut answers, mut traces) = (Fnv::new(), Fnv::new());
    let (mut paths, mut traced) = (0, 0);
    for q in workload.iter() {
        let result = engine.query(q.source, q.target, q.k);
        paths += result.paths.len();
        traced += result.trace.subgraphs.len();
        answers.answer(&result);
        traces.trace(&result);
    }
    Digests { answers: answers.0, traces: traces.0, paths, traced }
}

/// Checks the answer pin of one network.
fn assert_answers(directed: bool, batches: usize, golden: u64) {
    let d = digests_of(directed, batches);
    assert!(d.paths >= 150, "the workload must exercise multi-path answers, got {} paths", d.paths);
    assert_eq!(d.answers, golden, "engine answers moved: digest {:#018x}", d.answers);
}

/// Checks the trace pin of one network.
fn assert_traces(directed: bool, batches: usize, golden: u64) {
    let d = digests_of(directed, batches);
    assert_eq!(
        d.traces, golden,
        "traces moved: digest {:#018x}, {} traced subgraphs in total",
        d.traces, d.traced
    );
}

#[test]
fn answers_and_stats_match_the_pinned_digest() {
    assert_answers(false, 0, GOLDEN);
}

#[test]
fn traces_match_the_pinned_digest() {
    assert_traces(false, 0, GOLDEN_TRACES);
}

#[test]
fn directed_answers_match_the_pinned_digest() {
    assert_answers(true, 2, DIRECTED_GOLDEN);
}

#[test]
fn directed_traces_match_the_pinned_digest() {
    assert_traces(true, 2, DIRECTED_GOLDEN_TRACES);
}

#[test]
fn answers_over_slack_bounds_match_the_pinned_digest() {
    assert_answers(false, 3, SLACK_GOLDEN);
}

#[test]
fn traces_over_slack_bounds_match_the_pinned_digest() {
    assert_traces(false, 3, SLACK_GOLDEN_TRACES);
}
