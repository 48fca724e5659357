//! Bit-identity guard for FindKSP where ties live.
//!
//! With integer weights from 1 to 3, many simple routes share a distance, so the
//! order in which FindKSP produces tied routes, and which of two equal routes it
//! keeps, decides its answers. This test folds every produced path's route,
//! distance bits and position into one FNV-1a digest, over seeded small graphs
//! (undirected and directed, `k` up to 8) and over a DTLP skeleton overlay at epoch
//! 0, whose bound distances are vfrag counts and so integral too. A change to the
//! deviation machinery must leave it alone.

use ksp_algo::{find_ksp, FindKsp, Path, SearchArena};
use ksp_core::dtlp::{DtlpConfig, DtlpIndex};
use ksp_graph::{DynamicGraph, GraphBuilder, VertexId};
use ksp_workload::{RoadNetworkConfig, RoadNetworkGenerator, Xoshiro256};

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

    /// Folds in the paths of one query, in the order they were produced.
    fn paths(&mut self, paths: &[Path]) {
        self.word(paths.len() as u64);
        for (rank, path) in paths.iter().enumerate() {
            self.word(rank as u64);
            self.word(path.distance().value().to_bits());
            self.word(path.num_vertices() as u64);
            for v in path.vertices() {
                self.word(v.0 as u64);
            }
        }
    }
}

/// Consecutive produced paths with equal distances: the ties the digest covers.
fn ties(paths: &[Path]) -> usize {
    paths.windows(2).filter(|w| w[0].distance() == w[1].distance()).count()
}

/// A seeded graph of 6–12 vertices with integer weights from 1 to 3.
fn small_graph(rng: &mut Xoshiro256, directed: bool) -> DynamicGraph {
    let n = rng.next_range_u32(6, 12);
    let mut b = if directed {
        GraphBuilder::directed(n as usize)
    } else {
        GraphBuilder::undirected(n as usize)
    };
    let edges = if directed { 4 * n } else { 5 * n / 2 };
    for _ in 0..edges {
        let (u, v) = (rng.next_bounded(n as u64) as u32, rng.next_bounded(n as u64) as u32);
        if u != v {
            b.edge(u, v, rng.next_range_u32(1, 3));
        }
    }
    b.build().expect("valid graph")
}

/// The digest of `find_ksp` over 400 seeded small graphs, four pairs each, and the
/// number of tied neighbours among the paths it produced.
fn small_graph_digest() -> (u64, usize) {
    let mut rng = Xoshiro256::seed_from_u64(47);
    let mut digest = Fnv::new();
    let mut tied = 0;
    for round in 0..400 {
        let graph = small_graph(&mut rng, round % 2 == 1);
        let n = graph.num_vertices() as u64;
        for _ in 0..4 {
            let s = VertexId(rng.next_bounded(n) as u32);
            let t = VertexId(rng.next_bounded(n) as u32);
            let k = rng.next_range_u32(1, 8) as usize;
            let paths = find_ksp(&graph, s, t, k);
            tied += ties(&paths);
            digest.paths(&paths);
        }
    }
    (digest.0, tied)
}

/// The digest of `FindKsp` over the skeleton overlay of a 300-vertex network's DTLP
/// index (z = 25, ξ = 2) at epoch 0, for 60 seeded boundary pairs at `k = 8`, and the
/// number of tied neighbours among the paths it produced.
fn overlay_digest() -> (u64, usize) {
    let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(300))
        .generate(2024)
        .expect("valid network")
        .graph;
    let index = DtlpIndex::build(&graph, DtlpConfig::new(25, 2)).expect("index build");
    let overlay = index.skeleton().overlay();
    let reverse = overlay.reversed();
    let boundary = index.boundary_vertices();
    let mut rng = Xoshiro256::seed_from_u64(11);
    let mut digest = Fnv::new();
    let mut tied = 0;
    let (mut arena, mut heuristic) = (SearchArena::new(), SearchArena::new());
    for _ in 0..60 {
        let s = boundary[rng.next_bounded(boundary.len() as u64) as usize];
        let t = boundary[rng.next_bounded(boundary.len() as u64) as usize];
        let mut enumerator = FindKsp::new(&overlay, &reverse, s, t, &mut heuristic);
        enumerator.produce_up_to_in(8, &mut arena);
        let paths = enumerator.into_produced(&mut heuristic);
        tied += ties(&paths);
        digest.paths(&paths);
    }
    (digest.0, tied)
}

/// Recorded with eager spur searches: every deviation of a produced path searched
/// as soon as the path was produced.
const SMALL_GRAPHS_GOLDEN: u64 = 0xc596_3062_ca05_53dd;

/// Recorded with the same searches as [`SMALL_GRAPHS_GOLDEN`].
const OVERLAY_GOLDEN: u64 = 0x7c26_c26c_ac8a_f283;

#[test]
fn findksp_on_small_integer_graphs_matches_the_pinned_digest() {
    let (digest, tied) = small_graph_digest();
    assert!(tied >= 1000, "the graphs must produce ties, got {tied}");
    assert_eq!(digest, SMALL_GRAPHS_GOLDEN, "FindKSP paths moved: digest {digest:#018x}");
}

#[test]
fn findksp_on_an_epoch_zero_overlay_matches_the_pinned_digest() {
    let (digest, tied) = overlay_digest();
    assert!(tied >= 200, "the overlay must produce ties, got {tied}");
    assert_eq!(digest, OVERLAY_GOLDEN, "FindKSP overlay paths moved: digest {digest:#018x}");
}
