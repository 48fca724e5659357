//! Degraded-mode acceptance, observed over the wire.
//!
//! The contract: when the durable append path breaks (here, a persistent
//! injected fsync failure), the service flips into *read-only degraded
//! mode* — `ApplyBatch` is refused with the typed `Degraded` error while
//! queries keep serving the last published epoch, bit-identically. The
//! `ksp_degraded` gauge flips to 1 on the same scrape surface as everything
//! else. Once the disk "heals", the background probe repairs the log,
//! the gauge drops back to 0, writes land again — and everything accepted
//! before, during and after the episode survives a restart.

use ksp_dg::core::dtlp::DtlpConfig;
use ksp_dg::fault::{FaultAction, FaultPlan, FaultPoint, Schedule};
use ksp_dg::graph::VertexId;
use ksp_dg::proto::{ClientConfig, ClientError, ErrorReply, KspClient, QueryAnswer};
use ksp_dg::serve::{EventLoopServer, QueryService, ServiceConfig};
use ksp_dg::store::{FaultyIo, StorageIo, StoreConfig, SyncPolicy};
use ksp_dg::workload::{RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig, TrafficModel};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ksp-dg-degraded-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_bit_identical(a: &QueryAnswer, b: &QueryAnswer, what: &str) {
    assert_eq!(a.epoch, b.epoch, "{what}: epochs differ");
    assert_eq!(a.paths.len(), b.paths.len(), "{what}: path counts differ");
    for (x, y) in a.paths.iter().zip(b.paths.iter()) {
        assert_eq!(x.vertices(), y.vertices(), "{what}: vertices differ");
        assert_eq!(
            x.distance().value().to_bits(),
            y.distance().value().to_bits(),
            "{what}: distances differ"
        );
    }
}

#[test]
fn fsync_fault_degrades_to_read_only_then_recovers_and_survives_restart() {
    let dir = temp_dir("wire");
    let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(180))
        .generate(23)
        .unwrap()
        .graph;
    let sconfig = ServiceConfig::new(2, DtlpConfig::new(18, 2));
    // fsync on every append: the faulted operation must actually be on the
    // commit path.
    let st =
        StoreConfig { checkpoint_interval: 0, sync: SyncPolicy::Always, ..StoreConfig::default() };
    let plan = FaultPlan::new(11);
    let io: Arc<dyn StorageIo> = Arc::new(FaultyIo::new(plan.clone()));
    let service =
        Arc::new(QueryService::start_with_store_io(graph.clone(), sconfig, &dir, st, io).unwrap());
    let mut server = EventLoopServer::bind(service.clone(), "127.0.0.1:0").unwrap();
    let config = ClientConfig { io_timeout: Some(Duration::from_secs(10)) };
    let (mut client, _hello) = KspClient::connect_with_config(server.local_addr(), config).unwrap();

    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), 31);
    assert_eq!(client.apply_batch(&traffic.next_snapshot()).unwrap(), 1);
    assert_eq!(client.apply_batch(&traffic.next_snapshot()).unwrap(), 2);
    let last = VertexId(graph.num_vertices() as u32 - 1);
    let before = client.query(VertexId(0), last, 3).unwrap();
    assert_eq!(before.epoch, 2);

    // The disk goes bad for good: every fsync from here on fails until the
    // plan is disarmed.
    plan.arm(
        FaultPoint::WalFsync,
        Schedule::From(plan.ops_at(FaultPoint::WalFsync) + 1),
        FaultAction::Fail,
    );
    let stuck = traffic.next_snapshot();
    match client.apply_batch(&stuck) {
        Err(ClientError::Server(ErrorReply::Degraded(reason))) => {
            assert!(reason.contains("injected"), "reason must carry the cause, got: {reason}")
        }
        other => panic!("a failed append must surface as typed Degraded, got {other:?}"),
    }
    assert!(service.is_degraded());
    assert!(service.degraded_reason().is_some());
    // Repeat writes are refused up front (fast-fail, no staging work) with
    // the same typed error.
    assert!(matches!(
        client.apply_batch(&stuck),
        Err(ClientError::Server(ErrorReply::Degraded(_)))
    ));

    // Reads ride through, bit-identical to the pre-fault answer, and the
    // scrape says so.
    let during = client.query(VertexId(0), last, 3).unwrap();
    assert_bit_identical(&before, &during, "degraded-mode read");
    let text = client.scrape_text().unwrap();
    assert!(text.contains("ksp_degraded 1"), "gauge must be up:\n{text}");
    assert!(text.contains("ksp_degraded_entered_total 1"), "{text}");
    // The probe is live against the still-bad disk: it keeps consuming fsync
    // attempts without lifting anything.
    let probing_deadline = Instant::now() + Duration::from_secs(10);
    let seen = plan.injected_at(FaultPoint::WalFsync);
    while plan.injected_at(FaultPoint::WalFsync) <= seen {
        assert!(Instant::now() < probing_deadline, "probe stopped retrying the bad log");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(service.is_degraded(), "a failing probe must not lift degradation");

    // Heal the disk. The probe's next attempt succeeds and lifts degraded
    // mode without any restart.
    plan.disarm(FaultPoint::WalFsync);
    let recovery_deadline = Instant::now() + Duration::from_secs(20);
    while service.is_degraded() {
        assert!(Instant::now() < recovery_deadline, "probe did not lift degradation after heal");
        std::thread::sleep(Duration::from_millis(5));
    }
    let text = client.scrape_text().unwrap();
    assert!(text.contains("ksp_degraded 0"), "gauge must be down after recovery:\n{text}");
    assert!(text.contains("ksp_degraded_recovered_total 1"), "{text}");

    // Writes land again; the once-stuck batch publishes as epoch 3.
    assert_eq!(client.apply_batch(&stuck).unwrap(), 3);
    let after = client.query(VertexId(0), last, 3).unwrap();
    assert_eq!(after.epoch, 3);

    // Everything accepted around the episode is durable: a cold restart of
    // the directory comes back at epoch 3 and answers bit-identically.
    server.shutdown();
    drop(server);
    drop(client);
    drop(service);
    let (recovered, _report) = QueryService::open(&dir, sconfig, st).unwrap();
    assert_eq!(recovered.snapshot().epoch(), 3);
    let answer = recovered.query(VertexId(0), last, 3).unwrap();
    assert_eq!(answer.epoch, after.epoch);
    assert_eq!(answer.paths.len(), after.paths.len());
    for (x, y) in answer.paths.iter().zip(after.paths.iter()) {
        assert_eq!(x.vertices(), y.vertices());
        assert_eq!(x.distance().value().to_bits(), y.distance().value().to_bits());
    }
    drop(recovered);

    let _ = std::fs::remove_dir_all(&dir);
}
