//! Replication experiment: what log-shipping replication buys at failover
//! time.
//!
//! One leader publishes traffic epochs while a follower bootstraps over a
//! loopback TCP socket (snapshot fallback for the fresh join, WAL records
//! from then on) and replays them through the same COW publish path. The
//! experiment then kills the leader and measures the two takeover paths side
//! by side: **warm failover** — promoting the caught-up follower, a
//! stop-and-flip with no state work — versus **cold recovery** — reopening
//! the leader's directory, which decodes the newest checkpoint image and
//! replays the log tail. The third table dumps every `ksp_repl_*` metric
//! family from both sides of the wire, so a scraper (and the CI smoke run)
//! sees the replication surface exactly as an operator would.

use crate::report::{f2, Table};
use crate::Scale;
use ksp_core::dtlp::DtlpConfig;
use ksp_graph::VertexId;
use ksp_proto::KspClient;
use ksp_repl::{Replica, ReplicaConfig, ReplicationSource};
use ksp_serve::{EventLoopServer, QueryService, ServiceConfig};
use ksp_store::{StoreCodec, StoreConfig, SyncPolicy};
use ksp_workload::{DatasetPreset, TrafficConfig, TrafficModel};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ksp-repl-exp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn byte_identical(a: &QueryService, b: &QueryService) -> bool {
    let (sa, sb) = (a.snapshot(), b.snapshot());
    sa.epoch() == sb.epoch()
        && sa.graph().to_bytes() == sb.graph().to_bytes()
        && sa.index().to_bytes() == sb.index().to_bytes()
}

/// Collects every `ksp_repl_*` sample line from a Prometheus text exposition.
fn repl_families(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter(|line| line.starts_with("ksp_repl_"))
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            Some((series.to_string(), value.to_string()))
        })
        .collect()
}

/// Log shipping, snapshot fallback and warm failover vs cold recovery.
pub fn repl(scale: Scale) -> Vec<Table> {
    let spec = DatasetPreset::NewYork.spec(scale.dataset_scale());
    let net = spec.generate().expect("dataset generation");
    let graph = net.graph;
    let leader_dir = scratch_dir("leader");
    let replica_root = scratch_dir("replica");
    let epochs_per_phase = 4u64;

    let sconfig = ServiceConfig::new(2, DtlpConfig::new(spec.default_z, 2));
    // Manual checkpoints keep the shipped-record accounting deterministic;
    // fsync off because durability of the scratch dir is not the measurement.
    let store =
        StoreConfig { checkpoint_interval: 0, sync: SyncPolicy::Never, ..Default::default() };
    let leader = Arc::new(
        QueryService::start_with_store(graph.clone(), sconfig, &leader_dir, store)
            .expect("leader start"),
    );
    let source = ReplicationSource::attach(&leader).expect("attach replication source");
    let server = EventLoopServer::bind(leader.clone(), "127.0.0.1:0").expect("bind loopback");
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.5), 0x4E7);

    let mut shipping = Table::new(
        format!(
            "repl: log shipping over TCP ({}, {} vertices, {} epochs)",
            spec.preset.short_name(),
            graph.num_vertices(),
            epochs_per_phase * 2
        ),
        &[
            "phase",
            "leader_epoch",
            "applied_epoch",
            "records_shipped",
            "ship_kib",
            "img_fallbacks",
            "img_kib",
            "byte_identical",
        ],
    );
    let mut shipping_row = |phase: &str,
                            leader: &QueryService,
                            follower: &QueryService,
                            src: &ReplicationSource,
                            applied: u64| {
        shipping.row(vec![
            phase.to_string(),
            leader.current_epoch().to_string(),
            applied.to_string(),
            src.records_shipped().to_string(),
            f2(src.bytes_shipped() as f64 / 1024.0),
            src.snapshot_fallbacks().to_string(),
            f2(src.snapshot_bytes_shipped() as f64 / 1024.0),
            byte_identical(leader, follower).to_string(),
        ]);
    };

    // Phase 1: the follower joins after the leader has already published —
    // epoch 0 lives in the initial checkpoint, so the fresh join re-seeds
    // from the snapshot fallback, then catches up over the log.
    for _ in 0..epochs_per_phase {
        leader.apply_batch(&traffic.next_snapshot()).expect("leader publish");
    }
    let rconfig = ReplicaConfig::new("f1", sconfig, store);
    let mut replica =
        Replica::bootstrap(server.local_addr(), &replica_root, rconfig).expect("bootstrap");
    let applied = replica.sync_to_caught_up(64).expect("catch up");
    shipping_row("bootstrap", &leader, &replica.service(), &source, applied);

    // Phase 2: steady state ships WAL records only, never images.
    for _ in 0..epochs_per_phase {
        leader.apply_batch(&traffic.next_snapshot()).expect("leader publish");
    }
    let applied = replica.sync_to_caught_up(64).expect("catch up");
    shipping_row("steady", &leader, &replica.service(), &source, applied);

    // Scrape the leader's replication families while it is still alive; the
    // follower's own exposition is collected after promotion below.
    let (mut client, _hello) = KspClient::connect(server.local_addr()).expect("connect");
    let leader_exposition = client.scrape_text().expect("scrape");
    drop(client);

    // Kill the leader. The source holds the leader's store open — drop it
    // too, or cold recovery below could not reacquire the directory lock.
    let mut server = server;
    server.shutdown();
    drop(server);
    drop(source);
    drop(leader);

    // Takeover path A: cold recovery — newest checkpoint image + log replay.
    let cold_started = Instant::now();
    let (cold, _report) = QueryService::open(&leader_dir, sconfig, store).expect("cold recovery");
    let cold_duration = cold_started.elapsed();

    // Takeover path B: warm failover — stop the already-caught-up follower's
    // sync loop and flip the promoted flag. No images, no replay.
    replica.run().expect("follower loop");
    std::thread::sleep(Duration::from_millis(30)); // let it notice the dead leader
    let promotion = replica.promote();

    let last = VertexId(graph.num_vertices() as u32 - 1);
    let cold_answer = cold.query(VertexId(0), last, 2).expect("cold query");
    let warm_answer = replica.query(VertexId(0), last, 2).expect("promoted query");
    let answers_match = cold_answer.paths.len() == warm_answer.paths.len()
        && cold_answer.paths.iter().zip(warm_answer.paths.iter()).all(|(a, b)| {
            a.vertices() == b.vertices()
                && a.distance().value().to_bits() == b.distance().value().to_bits()
        });

    let mut failover = Table::new(
        "repl: warm failover (promote) vs cold recovery (checkpoint + log replay)",
        &["path", "time_us", "epoch", "speedup", "answers_match", "byte_identical"],
    );
    let speedup = cold_duration.as_secs_f64() / promotion.duration.as_secs_f64().max(1e-9);
    let identical = byte_identical(&cold, &replica.service());
    failover.row(vec![
        "cold_recover".to_string(),
        cold_duration.as_micros().to_string(),
        cold.current_epoch().to_string(),
        "1.00".to_string(),
        answers_match.to_string(),
        identical.to_string(),
    ]);
    failover.row(vec![
        "promote".to_string(),
        promotion.duration.as_micros().to_string(),
        promotion.epoch.to_string(),
        f2(speedup),
        answers_match.to_string(),
        identical.to_string(),
    ]);

    let mut families = Table::new(
        "repl: ksp_repl_* metric families (leader scrape + follower exposition)",
        &["side", "series", "value"],
    );
    for (series, value) in repl_families(&leader_exposition) {
        families.row(vec!["leader".to_string(), series, value]);
    }
    for (series, value) in repl_families(&replica.service().render_exposition()) {
        families.row(vec!["follower".to_string(), series, value]);
    }

    let _ = std::fs::remove_dir_all(&leader_dir);
    let _ = std::fs::remove_dir_all(&replica_root);
    vec![shipping, failover, families]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repl_ships_catches_up_and_promotes() {
        let tables = repl(Scale::Tiny);
        assert_eq!(tables.len(), 3);
        assert_eq!(tables[0].num_rows(), 2);
        let shipping = tables[0].render();
        assert!(shipping.contains("bootstrap") && shipping.contains("steady"));
        assert!(!shipping.contains("false"), "every phase must end byte-identical");
        assert_eq!(tables[1].num_rows(), 2);
        let failover = tables[1].render();
        assert!(failover.contains("promote") && failover.contains("cold_recover"));
        assert!(!failover.contains("false"), "promoted answers must match cold recovery");
        // Both sides of the wire expose their replication families.
        let families = tables[2].render();
        for series in [
            "ksp_repl_ship_records_total",
            "ksp_repl_ship_bytes_total",
            "ksp_repl_snapshot_fallbacks_total",
            "ksp_repl_lag_epochs{follower=\"f1\"}",
            "ksp_repl_applied_epoch",
            "ksp_repl_records_applied_total",
        ] {
            assert!(families.contains(series), "missing {series}");
        }
    }
}
