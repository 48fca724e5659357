//! Integration tests for write-path publish tracing and wire trace-context
//! propagation, end to end.
//!
//! Three contracts are proven here:
//!
//! 1. **Exact write-path decomposition over the wire** — an `ObsSnapshot`
//!    fetched over TCP splits every published epoch into the seven write-path
//!    stages, and the stage totals sum *exactly* to the end-to-end publish
//!    total, including for a persistent service whose checkpoint epochs
//!    finish their spans on the background checkpointer thread.
//! 2. **Telescoping under random load** — a property test applies random
//!    numbers of update batches and checks that the decomposition stays an
//!    attribution (stage sums bit-equal to the end-to-end histogram), never a
//!    sample.
//! 3. **Trace-context propagation** — a TCP client stamps every request with
//!    its own trace id; the server echoes it and threads it into flight-ring
//!    dumps, so the client can resolve an SLO-breach dump back to the exact
//!    request it sent, and decompose its perceived latency into
//!    serialize / network / server / decode.

use ksp_dg::core::dtlp::DtlpConfig;
use ksp_dg::graph::VertexId;
use ksp_dg::obs::{EventKind, ObsSnapshot, PublishStage};
use ksp_dg::proto::KspClient;
use ksp_dg::serve::{EventLoopServer, QueryService, ServiceConfig};
use ksp_dg::store::{StoreConfig, SyncPolicy};
use ksp_dg::workload::{RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig, TrafficModel};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ksp-dg-publish-trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Asserts the telescoping contract on a snapshot: per-stage publish totals
/// sum bit-exactly to the end-to-end publish total, and every published
/// epoch passed through every stage exactly once.
fn assert_publish_stages_telescope(snap: &ObsSnapshot, epochs: u64) {
    assert_eq!(snap.publish_end_to_end.count, epochs);
    let stage_total: u64 = PublishStage::ALL
        .iter()
        .filter_map(|&s| snap.publish_stage(s))
        .map(|h| h.total_micros)
        .sum();
    assert_eq!(
        stage_total, snap.publish_end_to_end.total_micros,
        "write-path stage totals must sum exactly to the end-to-end publish total"
    );
    for stage in PublishStage::ALL {
        assert_eq!(
            snap.publish_stage(stage).expect("every stage is present").count,
            epochs,
            "stage {} must see every epoch",
            stage.name()
        );
    }
}

#[test]
fn persistent_publishes_decompose_exactly_over_the_wire() {
    let dir = temp_dir("wire");
    let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(180))
        .generate(0x9001)
        .unwrap()
        .graph;
    let config = ServiceConfig::new(2, DtlpConfig::new(16, 2));
    // A persistent store with a real fsync per append and checkpoints every
    // other epoch: all seven write-path stages get non-trivial work, and the
    // checkpoint epochs finish their spans on the background checkpointer.
    let store_config =
        StoreConfig { checkpoint_interval: 2, sync: SyncPolicy::Always, ..StoreConfig::default() };
    let service = Arc::new(
        QueryService::start_with_store(graph.clone(), config, &dir, store_config).unwrap(),
    );
    let server = EventLoopServer::bind(service.clone(), "127.0.0.1:0").unwrap();
    let (mut client, _) = KspClient::connect(server.local_addr()).unwrap();

    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.4, 0.4), 7);
    let epochs = 5u64;
    for _ in 0..epochs {
        client.apply_batch(&traffic.next_snapshot()).unwrap();
    }

    // Checkpoint epochs finish their publish spans asynchronously after the
    // checkpoint commits; quiesce by polling until every epoch's chain has
    // landed in the end-to-end histogram.
    let deadline = Instant::now() + Duration::from_secs(10);
    let snap = loop {
        let snap = client.obs_snapshot().unwrap();
        if snap.publish_end_to_end.count == epochs {
            break snap;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {epochs} publish chains; have {}",
            snap.publish_end_to_end.count
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_publish_stages_telescope(&snap, epochs);
    assert_eq!(snap.counter("ksp_epochs_published_total"), epochs);
    // With a real fsync per append, the log stages cannot all be zero-width.
    let logged = snap.publish_stage(PublishStage::WalAppend).unwrap().total_micros
        + snap.publish_stage(PublishStage::Fsync).unwrap().total_micros;
    assert!(logged > 0, "durable appends must take measurable time");

    // The scrape renders the write-path families, one series per stage.
    let text = client.scrape_text().unwrap();
    assert!(text.contains("# TYPE ksp_publish_stage_duration_seconds histogram"));
    assert!(text.contains("# TYPE ksp_publish_duration_seconds histogram"));
    for stage in PublishStage::ALL {
        assert!(
            text.contains(&format!(
                "ksp_publish_stage_duration_seconds_count{{stage=\"{}\"}} {epochs}",
                stage.name()
            )),
            "missing publish stage series for {}",
            stage.name()
        );
    }
    assert!(text.contains(&format!("ksp_publish_duration_seconds_count {epochs}")));
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The write-path decomposition is an attribution for *any* update load:
    /// across random batch counts and traffic intensities, the per-stage
    /// totals sum bit-exactly to the end-to-end publish histogram and every
    /// stage counts every epoch. A non-persistent service finishes every
    /// span synchronously inside `apply_batch`, so no quiescing is needed.
    #[test]
    fn publish_stage_totals_telescope_for_random_batches(
        batches in 1u64..8,
        change_pct in 10u64..90,
        seed in 0u64..1_000,
    ) {
        let change = change_pct as f64 / 100.0;
        let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(140))
            .generate(0xA11 + seed)
            .unwrap()
            .graph;
        let service = QueryService::start(
            graph.clone(),
            ServiceConfig::new(2, DtlpConfig::new(15, 2)),
        )
        .unwrap();
        let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(change, change), seed);
        for _ in 0..batches {
            service.apply_batch(&traffic.next_snapshot()).unwrap();
        }
        let snap = service.obs_snapshot();
        prop_assert_eq!(snap.publish_end_to_end.count, batches);
        let stage_total: u64 = PublishStage::ALL
            .iter()
            .filter_map(|&s| snap.publish_stage(s))
            .map(|h| h.total_micros)
            .sum();
        prop_assert_eq!(stage_total, snap.publish_end_to_end.total_micros);
        for stage in PublishStage::ALL {
            prop_assert_eq!(snap.publish_stage(stage).unwrap().count, batches);
        }
        // A non-persistent service never fsyncs: that sub-stage is marked
        // with an explicit zero duration, so it stays exactly zero-width.
        // (The neighbouring unmarked stages clamp to their predecessor and
        // the *final* stage absorbs the tail up to the end stamp, so only
        // fsync is guaranteed empty.)
        prop_assert_eq!(snap.publish_stage(PublishStage::Fsync).unwrap().total_micros, 0);
    }
}

#[test]
fn slo_breach_dump_resolves_to_the_clients_own_trace_id() {
    // An unmeetable SLO: the very first query breaches and dumps, carrying
    // the trace id the client stamped on the request.
    let mut config = ServiceConfig::new(2, DtlpConfig::new(16, 2));
    config.observability.slo_p99 = Duration::from_nanos(1);
    let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(160))
        .generate(0x9002)
        .unwrap()
        .graph;
    let service = Arc::new(QueryService::start(graph.clone(), config).unwrap());
    let server = EventLoopServer::bind(service.clone(), "127.0.0.1:0").unwrap();
    let (mut client, _) = KspClient::connect(server.local_addr()).unwrap();

    let last = VertexId(graph.num_vertices() as u32 - 1);
    client.query(VertexId(0), last, 2).unwrap();
    let trace_id = client.last_trace_id();
    assert_ne!(trace_id, 0, "a tracing client stamps every request");

    let snap = client.obs_snapshot().unwrap();
    let dump = snap.dump.expect("the breach must dump");
    assert_eq!(dump.cause.kind, EventKind::SloBreach);
    assert_eq!(
        dump.trace_id, trace_id,
        "the dump must pin the server's span chain to the client's trace id"
    );
    // The chain the dump carries is the breaching request's, with its stamps
    // accounting for the reported latency exactly.
    let chain = dump.span.expect("an SLO dump carries the offending span chain");
    assert_eq!(chain.total_micros(), dump.cause.a);

    // The client decomposes its perceived latency: every component is
    // accounted and none exceeds the total.
    let breakdown = client.latency_breakdown();
    assert!(breakdown.total_micros >= breakdown.server_micros);
    assert_eq!(
        breakdown.total_micros,
        breakdown.serialize_micros
            + breakdown.network_micros
            + breakdown.server_micros
            + breakdown.decode_micros,
        "the breakdown must attribute the whole perceived latency"
    );
}
