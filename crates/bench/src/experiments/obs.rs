//! Observability experiment: drives a closed loop over a loopback TCP
//! endpoint, then answers the operator questions `ksp-obs` exists for —
//! *where inside the service does a query spend its time*, *what changed in
//! the last measurement interval*, and *what does a scraper see*.
//!
//! Three tables come out of one run:
//!
//! 1. the per-stage latency decomposition fetched over the wire with
//!    `ObsSnapshot` (the stage histograms telescope: their totals sum to the
//!    end-to-end total, so the `share` column is an exact attribution);
//! 2. interval counters computed with `MetricsReport::delta_since` against a
//!    mid-run baseline, next to the cumulative values a scraper would rate();
//! 3. a summary of the Prometheus text exposition scraped through
//!    `KspClient::scrape_text`, one row per metric family, plus the flight
//!    recorder's event tally.

use crate::report::{f2, Table};
use crate::Scale;
use ksp_core::dtlp::DtlpConfig;
use ksp_obs::{EventKind, HistogramSnapshot, PublishStage, Stage};
use ksp_proto::KspClient;
use ksp_serve::{
    run_closed_loop_over, EventLoopServer, LoadDriverConfig, QueryService, ServiceConfig,
};
use ksp_workload::{
    DatasetPreset, QueryWorkload, QueryWorkloadConfig, TrafficConfig, TrafficModel,
};
use std::sync::Arc;
use std::time::Duration;

/// Per-stage latency decomposition, interval counters and exposition scrape
/// of one closed-loop run over TCP.
pub fn observability(scale: Scale) -> Vec<Table> {
    let spec = DatasetPreset::NewYork.spec(scale.dataset_scale());
    let net = spec.generate().expect("dataset generation");
    let graph = net.graph;
    let workload = QueryWorkload::generate(
        &graph,
        QueryWorkloadConfig::new(scale.default_num_queries(), 2),
        0x0B5,
    );
    let shards = 4;
    let clients = 8;
    let requests_per_client = (workload.len() * 2 / clients).max(1);

    let mut config = ServiceConfig::new(shards, DtlpConfig::new(spec.default_z, 2));
    // A deliberately unmeetable SLO so the run exercises the anomaly path:
    // the first breach dumps the offending span chain into the flight
    // recorder, and the scrape below carries it back over the wire.
    config.observability.slo_p99 = Duration::from_nanos(1);
    let service = Arc::new(QueryService::start(graph.clone(), config).expect("service start"));
    let server = EventLoopServer::bind(service.clone(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();

    // First half of the traffic, then a metrics baseline, then the second
    // half: `delta_since` should attribute only the second half.
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::default(), 0x0B5);
    let driver_config = LoadDriverConfig::new(clients, requests_per_client / 2)
        .with_updates_every(Duration::from_millis(10));
    run_closed_loop_over(
        || KspClient::connect(addr).expect("connect").0,
        &workload,
        Some(&mut traffic),
        driver_config,
    );
    let baseline = service.metrics();
    run_closed_loop_over(
        || KspClient::connect(addr).expect("connect").0,
        &workload,
        Some(&mut traffic),
        driver_config,
    );
    let report = service.metrics();
    let delta = report.delta_since(&baseline);

    let mut client = KspClient::connect(addr).expect("connect").0;
    let snap = client.obs_snapshot().expect("obs snapshot");
    let exposition = client.scrape_text().expect("scrape");
    drop(server);

    // Table 1: where a query's time goes, stage by stage. The telescoping
    // span stamps guarantee the stage totals sum to the end-to-end total.
    let mut stages_table = Table::new(
        format!(
            "obs: per-stage latency decomposition over TCP ({}, {} vertices, {} shards)",
            spec.preset.short_name(),
            graph.num_vertices(),
            shards
        ),
        &["stage", "count", "mean_us", "p50_us", "p99_us", "max_us", "total_ms", "share_pct"],
    );
    let stage_total_micros: u64 =
        Stage::ALL.iter().filter_map(|&s| snap.stage(s)).map(|h| h.total_micros).sum();
    let stage_row = |name: &str, h: &HistogramSnapshot| {
        vec![
            name.to_string(),
            h.count.to_string(),
            h.mean().as_micros().to_string(),
            h.quantile(0.5).as_micros().to_string(),
            h.quantile(0.99).as_micros().to_string(),
            h.max_micros.to_string(),
            f2(h.total_micros as f64 / 1e3),
            f2(100.0 * h.total_micros as f64 / stage_total_micros.max(1) as f64),
        ]
    };
    for stage in Stage::ALL {
        if let Some(h) = snap.stage(stage) {
            stages_table.row(stage_row(stage.name(), h));
        }
    }
    stages_table.row(stage_row("end_to_end", &snap.end_to_end));

    // Table 2: where an epoch publish spends its time, stage by stage down
    // the write path. The same telescoping discipline as the read side: the
    // stage totals sum exactly to the end-to-end publish total. This service
    // is not persistent, so the log and checkpoint stages are near-zero —
    // the table shows the shape of the decomposition, the persistence
    // experiment shows the durable costs.
    let publish_total_micros: u64 = PublishStage::ALL
        .iter()
        .filter_map(|&s| snap.publish_stage(s))
        .map(|h| h.total_micros)
        .sum();
    let mut publish_table = Table::new(
        format!(
            "obs: write-path publish decomposition over TCP ({} epochs published)",
            snap.publish_end_to_end.count
        ),
        &["stage", "count", "mean_us", "p50_us", "p99_us", "max_us", "total_ms", "share_pct"],
    );
    let publish_row = |name: &str, h: &HistogramSnapshot| {
        vec![
            name.to_string(),
            h.count.to_string(),
            h.mean().as_micros().to_string(),
            h.quantile(0.5).as_micros().to_string(),
            h.quantile(0.99).as_micros().to_string(),
            h.max_micros.to_string(),
            f2(h.total_micros as f64 / 1e3),
            f2(100.0 * h.total_micros as f64 / publish_total_micros.max(1) as f64),
        ]
    };
    for stage in PublishStage::ALL {
        if let Some(h) = snap.publish_stage(stage) {
            publish_table.row(publish_row(stage.name(), h));
        }
    }
    publish_table.row(publish_row("end_to_end", &snap.publish_end_to_end));

    // Table 3: what a scraper derives by differencing two cumulative
    // samples, computed here with `MetricsReport::delta_since`.
    let mut delta_table = Table::new(
        "obs: cumulative counters vs second-half interval (delta_since)",
        &["counter", "cumulative", "interval"],
    );
    for (name, cumulative, interval) in [
        ("completed", report.completed, delta.completed),
        ("rejected", report.rejected, delta.rejected),
        ("cache_hits", report.cache_hits, delta.cache_hits),
        ("cache_misses", report.cache_misses, delta.cache_misses),
        ("epochs_published", report.epochs_published, delta.epochs_published),
        ("cache_retained", report.cache_retained, delta.cache_retained),
        ("cache_evicted", report.cache_evicted, delta.cache_evicted),
        ("steals", report.steals, delta.steals),
    ] {
        delta_table.row(vec![name.to_string(), cumulative.to_string(), interval.to_string()]);
    }

    // Table 4: the scrape as a scraper sees it — one row per metric family
    // with its sample count — plus the flight recorder's tally per event
    // kind and the anomaly dump the SLO breaches produced.
    let mut scrape_table = Table::new(
        format!("obs: text exposition scrape ({} bytes) and flight recorder", exposition.len()),
        &["series", "kind", "samples"],
    );
    let mut families: Vec<(String, String, usize)> = Vec::new();
    for line in exposition.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or_default().to_string();
            let kind = parts.next().unwrap_or_default().to_string();
            families.push((name, kind, 0));
        } else if let Some(last) = families.last_mut() {
            last.2 += 1;
        }
    }
    for (name, kind, samples) in families {
        scrape_table.row(vec![name, kind, samples.to_string()]);
    }
    let events = service.observability().flight().snapshot();
    for kind in EventKind::ALL {
        let tally = events.iter().filter(|e| e.kind == kind).count();
        if tally > 0 {
            scrape_table.row(vec![
                format!("flight:{}", kind.name()),
                "event".to_string(),
                tally.to_string(),
            ]);
        }
    }
    if let Some(dump) = &snap.dump {
        scrape_table.row(vec![
            format!("flight_dump:{}", dump.cause.kind.name()),
            "dump".to_string(),
            dump.events.len().to_string(),
        ]);
    }

    vec![stages_table, publish_table, delta_table, scrape_table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observability_reports_all_stages_and_counters() {
        let tables = observability(Scale::Tiny);
        assert_eq!(tables.len(), 4);
        // Seven stages plus the end-to-end row, on both the read and the
        // write path.
        assert_eq!(tables[0].num_rows(), Stage::COUNT + 1);
        assert_eq!(tables[1].num_rows(), PublishStage::COUNT + 1);
        // Eight counters in the delta table.
        assert_eq!(tables[2].num_rows(), 8);
        // The scrape summary names the histogram families of both paths.
        let rendered = tables[3].render();
        assert!(rendered.contains("ksp_stage_duration_seconds"));
        assert!(rendered.contains("ksp_request_duration_seconds"));
        assert!(rendered.contains("ksp_publish_stage_duration_seconds"));
        assert!(rendered.contains("ksp_requests_completed_total"));
    }
}
