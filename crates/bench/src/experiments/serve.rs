//! Serving-layer experiments: closed-loop throughput and tail latency of
//! `ksp_serve::QueryService` as the shard count grows, with traffic epochs
//! publishing concurrently — and the same closed loop run over the typed
//! wire protocol, pricing the event-loop TCP server against the in-process
//! path.
//!
//! This is the serving-side companion of the batch scaling figures: instead of
//! a batch makespan it reports what an online operator watches — queries per
//! second, p50/p95/p99 latency, cache hit rate and admission rejections.

use crate::report::{f2, Table};
use crate::Scale;
use ksp_core::dtlp::DtlpConfig;
use ksp_proto::{KspClient, TransportStats};
use ksp_serve::{
    run_closed_loop, run_closed_loop_over, run_open_loop_over, EventLoopServer, InProcTransport,
    LoadDriverConfig, OpenLoopConfig, QueryService, ServiceConfig, WireLoadReport,
};
use ksp_workload::{
    DatasetPreset, QueryWorkload, QueryWorkloadConfig, TrafficConfig, TrafficModel,
};
use std::sync::Arc;
use std::time::Duration;

/// Closed-loop serving throughput vs number of shards.
pub fn serve_throughput(scale: Scale) -> Vec<Table> {
    let spec = DatasetPreset::NewYork.spec(scale.dataset_scale());
    let net = spec.generate().expect("dataset generation");
    let graph = net.graph;
    let workload = QueryWorkload::generate(
        &graph,
        QueryWorkloadConfig::new(scale.default_num_queries(), 2),
        0x5E11,
    );

    let mut table = Table::new(
        format!(
            "serve: closed-loop throughput vs shards ({}, {} vertices, Nq = {})",
            spec.preset.short_name(),
            graph.num_vertices(),
            workload.len()
        ),
        &[
            "shards",
            "clients",
            "completed",
            "rejected",
            "qps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "hit_rate",
            "epochs",
            "q_high_water",
        ],
    );

    for &shards in &[1usize, 2, 4, 8] {
        let service = QueryService::start(
            graph.clone(),
            ServiceConfig::new(shards, DtlpConfig::new(spec.default_z, 2)),
        )
        .expect("service start");
        let clients = shards * 2;
        let requests_per_client = (workload.len() * 2 / clients).max(1);
        let mut traffic = TrafficModel::new(&graph, TrafficConfig::default(), 0xE9);
        let report = run_closed_loop(
            &service,
            &workload,
            Some(&mut traffic),
            LoadDriverConfig::new(clients, requests_per_client)
                .with_updates_every(Duration::from_millis(10)),
        );
        table.row(vec![
            shards.to_string(),
            clients.to_string(),
            report.completed.to_string(),
            report.rejected.to_string(),
            f2(report.throughput_qps()),
            f2(report.metrics.p50.as_secs_f64() * 1e3),
            f2(report.metrics.p95.as_secs_f64() * 1e3),
            f2(report.metrics.p99.as_secs_f64() * 1e3),
            f2(report.metrics.cache_hit_rate()),
            report.epochs_published.to_string(),
            // Deepest backlog any shard saw: the admission-control signal.
            service.queue_gauges().iter().map(|g| g.high_water).max().unwrap_or(0).to_string(),
        ]);
    }
    vec![table]
}

/// The same closed loop driven through `ksp-proto` transports: once over the
/// zero-copy in-process transport and once over real loopback TCP
/// connections served by the epoll event loop. The delta between the two
/// rows is serialisation + socket cost.
pub fn serve_tcp(scale: Scale) -> Vec<Table> {
    let spec = DatasetPreset::NewYork.spec(scale.dataset_scale());
    let net = spec.generate().expect("dataset generation");
    let graph = net.graph;
    let workload = QueryWorkload::generate(
        &graph,
        QueryWorkloadConfig::new(scale.default_num_queries(), 2),
        0x7C9,
    );
    let shards = 4;
    let clients = 8;
    let requests_per_client = (workload.len() * 2 / clients).max(1);

    let mut table = Table::new(
        format!(
            "serve_tcp: closed loop over in-proc vs event-loop transport ({}, {} vertices, {} shards, {} clients)",
            spec.preset.short_name(),
            graph.num_vertices(),
            shards,
            clients
        ),
        &[
            "transport",
            "srv_threads",
            "completed",
            "rejected",
            "qps",
            "p50_ms",
            "p99_ms",
            "seen_p50_ms",
            "seen_p95_ms",
            "seen_p99_ms",
            "hit_rate",
            "epochs",
            "wire_kb",
            "bytes_per_req",
        ],
    );

    let run = |transport: &str, service: &Arc<QueryService>| -> (WireLoadReport, usize) {
        let config = LoadDriverConfig::new(clients, requests_per_client)
            .with_updates_every(Duration::from_millis(10));
        let mut traffic = TrafficModel::new(&graph, TrafficConfig::default(), 0xB7);
        match transport {
            "in-proc" => {
                let report = run_closed_loop_over(
                    || KspClient::new(InProcTransport::new(service.clone())),
                    &workload,
                    Some(&mut traffic),
                    config,
                );
                (report, 0)
            }
            _ => {
                let server =
                    EventLoopServer::bind(service.clone(), "127.0.0.1:0").expect("bind event loop");
                let addr = server.local_addr();
                let report = run_closed_loop_over(
                    || KspClient::connect(addr).expect("connect").0,
                    &workload,
                    Some(&mut traffic),
                    config,
                );
                (report, server.thread_count())
            }
        }
    };

    for transport in ["in-proc", "event-loop"] {
        // A fresh service per transport so cache warmth and epochs are
        // comparable across rows.
        let service = Arc::new(
            QueryService::start(
                graph.clone(),
                ServiceConfig::new(shards, DtlpConfig::new(spec.default_z, 2)),
            )
            .expect("service start"),
        );
        let (report, srv_threads) = run(transport, &service);
        let wire: TransportStats = report.wire;
        table.row(vec![
            transport.to_string(),
            srv_threads.to_string(),
            report.completed.to_string(),
            report.rejected.to_string(),
            f2(report.throughput_qps()),
            f2(report.metrics.p50_micros as f64 / 1e3),
            f2(report.metrics.p99_micros as f64 / 1e3),
            // Client-perceived percentiles sit next to the server-side ones:
            // the gap is the transport's own cost (serialization, framing,
            // the socket), zero-ish for in-proc and real over the loop.
            f2(report.perceived_p50().as_secs_f64() * 1e3),
            f2(report.perceived_p95().as_secs_f64() * 1e3),
            f2(report.perceived_p99().as_secs_f64() * 1e3),
            f2(report.metrics.cache_hit_rate()),
            report.epochs_published.to_string(),
            f2((wire.bytes_sent + wire.bytes_received) as f64 / 1024.0),
            f2(wire.bytes_per_request()),
        ]);
    }

    vec![table, serve_overload(&graph, spec.default_z)]
}

/// Open-loop overload against the event loop at ~2× measured capacity, across
/// a widening connection fleet: SLO-driven adaptive admission sheds the
/// excess with typed, `retry_after_ms`-hinted rejections (the `hinted`
/// column) and holds the accepted p99 near the budget.
fn serve_overload(graph: &ksp_graph::DynamicGraph, z: usize) -> Table {
    let shards = 2usize;
    let base_config = |slo: Duration| {
        let mut config = ServiceConfig::new(shards, DtlpConfig::new(z, 2));
        config.observability.slo_p99 = slo;
        // A small cache keeps the run compute-bound: overload must mean
        // engine-run queueing, not a warmed cache absorbing the flood.
        config.cache_capacity = 32;
        config
    };

    // A wide pool of *distinct* queries, so (unlike the closed-loop table
    // above) repeats are rare and every request costs a real engine run —
    // the regime where capacity is well-defined and 2× of it must queue.
    // Modest k keeps the per-query cost distribution narrow: an SLO budget
    // is a *queueing* budget, and a mean-based queueing prediction can only
    // defend it when one request's own run does not swing past the whole
    // budget on its own.
    let overload_workload =
        QueryWorkload::generate(graph, QueryWorkloadConfig::new(2048, 4), 0xFEED);

    // Calibrate: a short closed loop over the event loop measures what the
    // service actually sustains here, so "2× overload" means 2× *this
    // machine's* capacity, not a magic number.
    let calibration_service = Arc::new(
        QueryService::start(graph.clone(), base_config(Duration::ZERO)).expect("service start"),
    );
    let calibration_server =
        EventLoopServer::bind(calibration_service.clone(), "127.0.0.1:0").expect("bind event loop");
    let calibration_addr = calibration_server.local_addr();
    let calibration = run_closed_loop_over(
        || KspClient::connect(calibration_addr).expect("connect").0,
        &overload_workload,
        None,
        LoadDriverConfig::new(4, 32),
    );
    drop(calibration_server);
    let base_qps = calibration.throughput_qps().max(50.0);
    // Two numbers, the way a real deployment sets them: the *admission
    // budget* (the internal queueing-delay target the adaptive controller
    // predicts against) is the calibration tail — itself rounded up to a
    // power-of-two bucket edge, so roughly 2× the true uncontended p99 —
    // and the *external SLO* the verdict is judged against is 3× the
    // budget. The gap is deliberate headroom: an accepted request's latency
    // is its queueing delay (what admission bounds, using mean service
    // times) plus its own run (which the controller cannot shrink and whose
    // p99 the budget must leave room for). A budget equal to the SLO would
    // admit a full SLO's worth of queueing and then breach on the service
    // tail riding on top.
    let budget = calibration.perceived_p99().max(Duration::from_millis(2));
    let slo = budget * 3;
    let offered_qps = base_qps * 2.0;

    let mut table = Table::new(
        format!(
            "serve_overload: open loop at ~2x capacity over the event loop ({} sustained qps, admission budget = {:.2} ms, slo_p99 = {:.2} ms)",
            f2(base_qps),
            budget.as_secs_f64() * 1e3,
            slo.as_secs_f64() * 1e3
        ),
        &[
            "conns",
            "offered_qps",
            "achieved_qps",
            "completed",
            "rejected",
            "hinted",
            "acc_p50_ms",
            "acc_p99_ms",
            "srv_p99_ms",
            "slo_ms",
            "within_slo",
        ],
    );

    // Fleet width bounds server queue depth (each blocking connection has at
    // most one request in flight): the narrow fleet never builds a deep
    // queue, the wide one would — deep enough that waiting out the backlog
    // breaches the SLO — and the controller sheds it at admission.
    for &conns in &[4usize, 64] {
        let service = Arc::new(
            QueryService::start(graph.clone(), base_config(budget)).expect("service start"),
        );
        let server =
            EventLoopServer::bind(service.clone(), "127.0.0.1:0").expect("bind event loop");
        let addr = server.local_addr();
        // Warm the controller before measuring, at the *same concurrency
        // as the flood*: the closed loop seeds the per-class service-time
        // EWMAs under realistic CPU contention, so the flood hits a
        // controller that already knows what an engine run costs here —
        // otherwise the opening wave is admitted against a stale
        // low-contention estimate, queues deeply, and that startup
        // cohort, not steady-state behaviour, sets the accepted p99.
        let _ = run_closed_loop_over(
            || KspClient::connect(addr).expect("connect").0,
            &overload_workload,
            None,
            LoadDriverConfig::new(conns, 6),
        );
        let interval = Duration::from_secs_f64(conns as f64 / offered_qps);
        let config = OpenLoopConfig::new(conns, 48, interval);
        let report = run_open_loop_over(
            || KspClient::connect(addr).expect("connect").0,
            &overload_workload,
            config,
        );
        // The SLO verdict is held against the *server-reported* accepted
        // p99 (queueing + service, the quantity admission predicts and
        // the service's own breach detection measures); the perceived
        // columns additionally carry wire transit and client-side
        // scheduling, which no server-side controller can shed.
        let srv_p99 = report.server_p99();
        table.row(vec![
            conns.to_string(),
            f2(config.offered_qps()),
            f2(report.achieved_qps()),
            report.completed.to_string(),
            report.rejected.to_string(),
            report.rejected_with_hint.to_string(),
            f2(report.accepted_p50().as_secs_f64() * 1e3),
            f2(report.accepted_p99().as_secs_f64() * 1e3),
            f2(srv_p99.as_secs_f64() * 1e3),
            f2(slo.as_secs_f64() * 1e3),
            if srv_p99 <= slo { "yes" } else { "no" }.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_throughput_reports_all_shard_counts() {
        let tables = serve_throughput(Scale::Tiny);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].num_rows(), 4);
    }

    #[test]
    fn serve_tcp_reports_every_transport_and_the_overload_arm() {
        let tables = serve_tcp(Scale::Tiny);
        // in-proc and the event loop, plus the open-loop overload table (one
        // row per fleet width).
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].num_rows(), 2);
        assert_eq!(tables[1].num_rows(), 2);
    }
}
