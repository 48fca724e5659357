//! Bit-identity guard for the KSP-DG engine.
//!
//! The other engine tests compare answer *distances* against Yen, which would
//! not notice a search that breaks a tie differently: an equally long route, a
//! different candidate order, or one more partial computation. Each network
//! here has three FNV-1a pins:
//!
//! - the *route pin* folds the vertex sequence of every answer path;
//! - the *bits-and-counters pin* folds the exact bits of every answer distance
//!   and the `QueryStats` counters;
//! - the *trace pin* folds `trace.complete` and the traced subgraph set.
//!
//! A change to the search internals must leave all three alone. A change to how
//! the survival certificate is drawn moves only the trace pins, and re-pins them
//! saying why. A change to how the engine enumerates or sums (its counters, or
//! the float order a distance is summed in) may move the bits-and-counters pins,
//! and re-pins them saying why; its route pins must still pass, apart from exact
//! ties at the k-th place, each listed with both routes where it is re-pinned.

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

    /// The routes of one answer.
    fn routes(&mut self, r: &QueryResult) {
        self.word(r.paths.len() as u64);
        for path in &r.paths {
            self.word(path.num_vertices() as u64);
            for v in path.vertices() {
                self.word(v.0 as u64);
            }
        }
    }

    /// Distance bits and statistics of one answer.
    fn bits_and_counters(&mut self, r: &QueryResult) {
        self.word(r.paths.len() as u64);
        for path in &r.paths {
            self.word(path.distance().value().to_bits());
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
            s.barren_iterations,
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

/// The route, bits-and-counters and trace digests of one workload, the paths it
/// returned and the subgraphs its traces hold in total.
struct Digests {
    routes: u64,
    bits: u64,
    traces: u64,
    paths: usize,
    traced: usize,
}

/// Routes of the undirected network at epoch 0. Re-pinned when reference paths
/// became canonical decompositions: two answers changed their third route for
/// another of exactly the same length (queries 266 → 34 and 19 → 247, both tied
/// at the k-th place); every other route is unchanged.
const GOLDEN_ROUTES: u64 = 0xf147_aa38_3011_544a;
/// Distance bits and counters of the undirected network at epoch 0. The bits-and-
/// counters pins were re-pinned when reference paths became canonical
/// decompositions: fewer iterations and partials, and a route's distance summed
/// over its one decomposition.
const GOLDEN: u64 = 0x95c2_ae32_238f_c408;
/// Traces of the undirected network at epoch 0.
const GOLDEN_TRACES: u64 = 0x860a_87e6_1e38_3726;

/// The same workload over the directed variant of the network after two
/// paper-default traffic batches, which change the two directions of a road
/// independently. Its routes:
const DIRECTED_GOLDEN_ROUTES: u64 = 0x5051_37fd_08b2_f95a;
/// Distance bits and counters of the directed network after two batches.
const DIRECTED_GOLDEN: u64 = 0x366e_1bea_ee49_1805;
/// Traces of the directed network after two batches.
const DIRECTED_GOLDEN_TRACES: u64 = 0x80e7_0897_9f76_2830;

/// The undirected network after three paper-default traffic batches, each dirtying
/// enough subgraphs to keep Theorem 1's slack bounds rather than repair them. Its
/// routes:
const SLACK_GOLDEN_ROUTES: u64 = 0xa983_f7f7_a7a9_7be5;
/// Distance bits and counters of the undirected network after three batches.
const SLACK_GOLDEN: u64 = 0x29dc_2146_7af3_a29e;
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
    let (mut routes, mut bits, mut traces) = (Fnv::new(), Fnv::new(), Fnv::new());
    let (mut paths, mut traced) = (0, 0);
    for q in workload.iter() {
        let result = engine.query(q.source, q.target, q.k);
        paths += result.paths.len();
        traced += result.trace.subgraphs.len();
        routes.routes(&result);
        bits.bits_and_counters(&result);
        traces.trace(&result);
    }
    Digests { routes: routes.0, bits: bits.0, traces: traces.0, paths, traced }
}

/// Checks the route pin of one network.
fn assert_routes(directed: bool, batches: usize, golden: u64) {
    let d = digests_of(directed, batches);
    assert!(d.paths >= 150, "the workload must exercise multi-path answers, got {} paths", d.paths);
    assert_eq!(d.routes, golden, "answer routes moved: digest {:#018x}", d.routes);
}

/// Checks the bits-and-counters pin of one network.
fn assert_bits_and_counters(directed: bool, batches: usize, golden: u64) {
    let d = digests_of(directed, batches);
    assert_eq!(d.bits, golden, "answer bits or counters moved: digest {:#018x}", d.bits);
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
fn routes_match_the_pinned_digest() {
    assert_routes(false, 0, GOLDEN_ROUTES);
}

#[test]
fn answers_and_stats_match_the_pinned_digest() {
    assert_bits_and_counters(false, 0, GOLDEN);
}

#[test]
fn traces_match_the_pinned_digest() {
    assert_traces(false, 0, GOLDEN_TRACES);
}

#[test]
fn directed_routes_match_the_pinned_digest() {
    assert_routes(true, 2, DIRECTED_GOLDEN_ROUTES);
}

#[test]
fn directed_answers_match_the_pinned_digest() {
    assert_bits_and_counters(true, 2, DIRECTED_GOLDEN);
}

#[test]
fn directed_traces_match_the_pinned_digest() {
    assert_traces(true, 2, DIRECTED_GOLDEN_TRACES);
}

#[test]
fn routes_over_slack_bounds_match_the_pinned_digest() {
    assert_routes(false, 3, SLACK_GOLDEN_ROUTES);
}

#[test]
fn answers_over_slack_bounds_match_the_pinned_digest() {
    assert_bits_and_counters(false, 3, SLACK_GOLDEN);
}

#[test]
fn traces_over_slack_bounds_match_the_pinned_digest() {
    assert_traces(false, 3, SLACK_GOLDEN_TRACES);
}
