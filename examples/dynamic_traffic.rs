//! Demonstrates index maintenance under a long stream of traffic snapshots, and how
//! the same route request gets different answers as congestion builds up — while the
//! DTLP structure itself (bounding paths) never has to be rebuilt. A query that
//! reaches the engine's iteration cap stops without the Theorem 3 certificate: the
//! output says so, and the example exits with status 1, so that a run is a check
//! that every snapshot's answer is certified.
//!
//! ```text
//! cargo run --release --example dynamic_traffic
//! ```

use ksp_dg::core::dtlp::{DtlpConfig, DtlpIndex};
use ksp_dg::core::kspdg::{KspDgEngine, MAX_ITERATIONS};
use ksp_dg::graph::VertexId;
use ksp_dg::workload::{RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig, TrafficModel};

fn main() {
    let net = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(1200))
        .generate(4242)
        .expect("network generation");
    let mut graph = net.graph;
    let dtlp_config = DtlpConfig::new(50, 3);
    let mut index = DtlpIndex::build(&graph, dtlp_config).expect("index build");

    let source = VertexId(10);
    let target = VertexId((graph.num_vertices() as u32) - 10);
    let k = 3;

    // Heavy rush-hour traffic: 40 % of edges change per snapshot, up to ±60 %.
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.40, 0.60), 31);

    let mut uncertified = 0;
    for snapshot in 0..5 {
        let engine = KspDgEngine::new(&index);
        let result = engine.query(source, target, k);
        let distances: Vec<String> =
            result.paths.iter().map(|p| format!("{:.1}", p.distance().value())).collect();
        let capped = if result.stats.iterations >= MAX_ITERATIONS {
            uncertified += 1;
            " (iteration cap hit: not certified)"
        } else {
            ""
        };
        println!(
            "snapshot {snapshot}: top-{k} travel times [{}] ({} iterations, {} partial computations){capped}",
            distances.join(", "),
            result.stats.iterations,
            result.stats.partial_computations
        );

        // Next traffic snapshot: update the live graph and the index.
        let batch = traffic.next_snapshot();
        graph.apply_batch(&batch).expect("graph update");
        let stats = index.apply_batch(&batch).expect("index maintenance");
        println!(
            "    applied {} updates: {} bounding-path distances adjusted, {} skeleton edges changed",
            batch.len(),
            stats.paths_touched,
            stats.skeleton_edges_changed
        );
    }
    println!("dynamic traffic example finished");
    if uncertified > 0 {
        eprintln!("{uncertified} snapshot(s) hit the iteration cap: answers not certified");
        std::process::exit(1);
    }
}
