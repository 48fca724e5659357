//! Property tests: the codec round-trips arbitrary graph+index pairs
//! byte-identically, including after randomised traffic maintenance, and the
//! full store survives create → log → recover at any batch count. A pinned
//! digest guards maintenance itself bit for bit.

use ksp_core::dtlp::{DtlpConfig, DtlpIndex};
use ksp_store::{Store, StoreCodec, StoreConfig, SyncPolicy};
use ksp_workload::{
    incident, RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig, TrafficModel, Xoshiro256,
};
use proptest::prelude::*;
use std::path::PathBuf;

fn temp_dir(tag: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ksp-store-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Recorded when local batches began repairing loose bounds with exact
/// in-subgraph distances (the incident rounds below are local). With the repair
/// switched off, the same stream hashes to the previous pin, 0x9918_087e_a840_ecb1.
const MAINTENANCE_GOLDEN: u64 = 0x69db_4c94_aa72_c6eb;

/// Pins DTLP maintenance bit for bit: the encoded index after a seeded stream
/// of global and local batches, and every batch's work counters and dirty set.
/// A storage-layout change must leave it alone. `skeleton_edges_changed` is
/// left out: it once depended on hash-map iteration order.
#[test]
fn maintenance_matches_the_pinned_digest() {
    let mut graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(300))
        .generate(42)
        .unwrap()
        .graph;
    let mut index = DtlpIndex::build(&graph, DtlpConfig::new(20, 2)).unwrap();
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.35, 0.30), 42);
    let mut rng = Xoshiro256::seed_from_u64(7);
    let mut digest = Fnv(0xcbf2_9ce4_8422_2325);
    for round in 0..24 {
        let batch =
            if round % 2 == 0 { traffic.next_snapshot() } else { incident(&graph, 2, &mut rng) };
        graph.apply_batch(&batch).unwrap();
        let stats = index.apply_batch(&batch).unwrap();
        digest.word(stats.updates_applied as u64);
        digest.word(stats.paths_touched as u64);
        digest.word(stats.pairs_changed as u64);
        digest.word(stats.dirty_subgraphs.len() as u64);
        for sg in &stats.dirty_subgraphs {
            digest.word(sg.0 as u64);
        }
    }
    for byte in index.to_bytes() {
        digest.word(byte as u64);
    }
    assert_eq!(digest.0, MAINTENANCE_GOLDEN, "maintenance moved: digest {:#018x}", digest.0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// encode → decode → encode is the identity on bytes, for random road
    /// networks perturbed by random amounts of traffic.
    #[test]
    fn graph_and_index_round_trip_byte_identically(
        n in 40usize..120,
        seed in 0u64..1_000,
        num_batches in 0usize..4,
    ) {
        let mut graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n))
            .generate(seed)
            .expect("network generation")
            .graph;
        let mut index = DtlpIndex::build(&graph, DtlpConfig::new(12, 2)).expect("index build");
        let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), seed ^ 0xABCD);
        for _ in 0..num_batches {
            let batch = traffic.next_snapshot();
            graph.apply_batch(&batch).expect("graph update");
            index.apply_batch(&batch).expect("index maintenance");
        }

        let graph_bytes = graph.to_bytes();
        let index_bytes = index.to_bytes();
        let decoded_graph = ksp_graph::DynamicGraph::from_bytes(&graph_bytes).expect("graph decode");
        let decoded_index = DtlpIndex::from_bytes(&index_bytes).expect("index decode");
        prop_assert_eq!(decoded_graph.to_bytes(), graph_bytes);
        prop_assert_eq!(decoded_index.to_bytes(), index_bytes);

        // Structural spot checks beyond byte equality.
        prop_assert_eq!(decoded_graph.version(), graph.version());
        prop_assert_eq!(decoded_index.num_subgraphs(), index.num_subgraphs());
        prop_assert_eq!(
            decoded_index.skeleton().num_skeleton_edges(),
            index.skeleton().num_skeleton_edges()
        );
    }

    /// Full store round trip: recovery reproduces the live state exactly for
    /// any interleaving of logged batches and checkpoints.
    #[test]
    fn store_recovery_is_exact(
        n in 40usize..90,
        seed in 0u64..1_000,
        num_batches in 1usize..6,
        interval in 1u64..4,
    ) {
        let mut graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n))
            .generate(seed)
            .expect("network generation")
            .graph;
        let mut index = DtlpIndex::build(&graph, DtlpConfig::new(10, 2)).expect("index build");
        let config = StoreConfig {
            checkpoint_interval: interval,
            segment_max_records: 3,
            sync: SyncPolicy::Never,
            ..StoreConfig::default()
        };
        let dir = temp_dir(seed.wrapping_mul(31).wrapping_add(n as u64));
        let mut store = Store::create(&dir, config, 0, &graph, &index).expect("store create");
        let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.4, 0.6), seed ^ 0x77);
        for _ in 0..num_batches {
            let batch = traffic.next_snapshot();
            let epoch = graph.apply_batch(&batch).expect("graph update");
            index.apply_batch(&batch).expect("index maintenance");
            store.log_batch(epoch, &batch).expect("log append");
            if config.is_checkpoint_epoch(epoch) {
                store.checkpoint(epoch, &graph, &index).expect("checkpoint");
            }
        }
        drop(store);

        let (_store, recovered) = Store::recover(&dir, config).expect("recover");
        prop_assert_eq!(recovered.epoch, num_batches as u64);
        prop_assert_eq!(recovered.graph.to_bytes(), graph.to_bytes());
        prop_assert_eq!(recovered.index.to_bytes(), index.to_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
