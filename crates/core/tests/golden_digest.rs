//! Bit-identity guard for the KSP-DG engine.
//!
//! The other engine tests compare answer *distances* against Yen, which would
//! not notice a search that breaks a tie differently: an equally long route, a
//! different candidate order, or one more partial computation. This test folds
//! everything an answer is made of — routes, the exact bits of every distance,
//! the `QueryStats` counters and the traced subgraph set — into one FNV-1a
//! digest and pins it. A change to the search internals must leave it alone;
//! a change that is *meant* to alter answers or counters re-pins it and says
//! why.

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

    fn result(&mut self, r: &QueryResult) {
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
        ] {
            self.word(count as u64);
        }
        self.word(r.trace.complete as u64);
        self.word(r.trace.subgraphs.len() as u64);
        for sg in r.trace.subgraphs.iter() {
            self.word(sg.0 as u64);
        }
    }
}

/// Recorded with the hash-map search state the flat arena replaced.
const GOLDEN: u64 = 0x365e_b813_9e99_d953;

/// The same workload over the directed variant of the network after two
/// paper-default traffic batches, which change the two directions of a road
/// independently: recorded before the spur, heuristic and partial searches moved
/// onto one indexed heap.
const DIRECTED_GOLDEN: u64 = 0x803b_65fd_99ff_6426;

/// The undirected network after three paper-default traffic batches, each dirtying
/// enough subgraphs to keep Theorem 1's slack bounds rather than repair them:
/// recorded with the same searches as [`DIRECTED_GOLDEN`].
const SLACK_GOLDEN: u64 = 0x0518_ddcd_04ae_bb6b;

/// The 300-vertex network, its DTLP index at z = 25, ξ = 2, after `batches`
/// paper-default traffic snapshots, and the digest of 60 seeded `k = 3` queries
/// answered with certified traces, with the number of paths they returned.
fn digest_of(directed: bool, batches: usize) -> (u64, usize) {
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
    let mut digest = Fnv::new();
    let mut paths = 0;
    for q in workload.iter() {
        let result = engine.query(q.source, q.target, q.k);
        paths += result.paths.len();
        digest.result(&result);
    }
    (digest.0, paths)
}

#[test]
fn answers_stats_and_traces_match_the_pinned_digest() {
    let (digest, paths) = digest_of(false, 0);
    assert!(paths >= 150, "the workload must exercise multi-path answers, got {paths} paths");
    assert_eq!(digest, GOLDEN, "engine answers moved: digest {digest:#018x}");
}

#[test]
fn directed_answers_match_the_pinned_digest() {
    let (digest, paths) = digest_of(true, 2);
    assert!(paths >= 150, "the workload must exercise multi-path answers, got {paths} paths");
    assert_eq!(digest, DIRECTED_GOLDEN, "directed engine answers moved: digest {digest:#018x}");
}

#[test]
fn answers_over_slack_bounds_match_the_pinned_digest() {
    let (digest, paths) = digest_of(false, 3);
    assert!(paths >= 150, "the workload must exercise multi-path answers, got {paths} paths");
    assert_eq!(digest, SLACK_GOLDEN, "engine answers after updates moved: digest {digest:#018x}");
}
