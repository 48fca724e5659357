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
use ksp_workload::{QueryWorkload, QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator};

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

#[test]
fn answers_stats_and_traces_match_the_pinned_digest() {
    let net =
        RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(300)).generate(2024).unwrap();
    let index = DtlpIndex::build(&net.graph, DtlpConfig::new(25, 2)).unwrap();
    let engine = KspDgEngine::with_config(&index, KspDgConfig::default().with_trace());
    let workload = QueryWorkload::generate(&net.graph, QueryWorkloadConfig::new(60, 3), 11);
    let mut digest = Fnv::new();
    let mut paths = 0;
    for q in workload.iter() {
        let result = engine.query(q.source, q.target, q.k);
        paths += result.paths.len();
        digest.result(&result);
    }
    assert!(paths >= 150, "the workload must exercise multi-path answers, got {paths} paths");
    assert_eq!(digest.0, GOLDEN, "engine answers moved: digest {:#018x}", digest.0);
}
