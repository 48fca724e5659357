//! A navigation-service scenario (the paper's first motivating application):
//! a stream of concurrent route requests is answered by `ksp_dg::serve`'s
//! `QueryService` — sharded workers over epoch snapshots — while traffic keeps
//! changing underneath.
//!
//! Client threads replay a query workload against the service; an updater
//! thread publishes a traffic epoch every few milliseconds. Every answer is
//! exact for the epoch it reports, repeated requests within an epoch hit the
//! result cache, and the run ends with the latency/throughput/cache summary a
//! service operator would watch.
//!
//! The service is **durable**: epochs are logged to a store directory and the
//! index is checkpointed, so a second run recovers from disk (checkpoint +
//! delta-log replay) instead of paying the full index build again — run the
//! example twice and compare the reported cold-start times.
//!
//! It is also **network-ready**: after the concurrent run the example binds
//! the same service to a loopback TCP port behind the epoll `EventLoopServer`
//! and talks to it through `KspClient` — version handshake, pipelined
//! queries, a metrics scrape and a checkpoint request over the typed wire
//! protocol — reporting the physical bytes the protocol moved, then answers a
//! fleet of concurrent sessions on the server's fixed handful of threads.
//!
//! ```text
//! cargo run --release --example navigation_service
//! KSP_STORE_DIR=/tmp/nav-store cargo run --release --example navigation_service
//! ```

use ksp_dg::core::dtlp::DtlpConfig;
use ksp_dg::proto::{KspClient, QueryKey, PROTOCOL_VERSION};
use ksp_dg::serve::{EventLoopServer, QueryService, ServiceConfig, ServiceError};
use ksp_dg::store::{Store, StoreConfig};
use ksp_dg::workload::datasets::DatasetScale;
use ksp_dg::workload::{
    DatasetPreset, QueryWorkload, QueryWorkloadConfig, TrafficConfig, TrafficModel,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    // The NY-like preset. Tiny keeps the demo interactive (single KSP-DG
    // queries on the Small scale take around a second each, which is a
    // benchmark, not a demo); set KSP_EXAMPLE_SCALE=small for serving numbers
    // on the benchmark-sized network.
    let (scale, scale_name) = match std::env::var("KSP_EXAMPLE_SCALE").as_deref() {
        Ok("small") => (DatasetScale::Small, "small"),
        Ok("medium") => (DatasetScale::Medium, "medium"),
        _ => (DatasetScale::Tiny, "tiny"),
    };
    let spec = DatasetPreset::NewYork.spec(scale);
    let net = spec.generate().expect("dataset generation");
    let graph = net.graph;
    println!(
        "dataset {} ({} vertices, {} edges), z = {}",
        spec.preset.short_name(),
        graph.num_vertices(),
        graph.num_edges(),
        spec.default_z
    );

    // A 4-shard service with the paper's default DTLP parameters, persisting
    // epochs into a store directory: recover it when it exists, initialise it
    // otherwise. Checkpoint every 16 epochs keeps the delta log bounded.
    let config = ServiceConfig::new(4, DtlpConfig::new(spec.default_z, 3));
    // The scale is part of the directory name: a store holds one specific
    // graph, and recovering it under a differently-scaled workload would
    // fail on the first out-of-range edge update.
    let store_dir = std::env::var_os("KSP_STORE_DIR").map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("ksp-navigation-store-{}-{scale_name}", spec.preset.short_name()))
    });
    let store_config = StoreConfig { checkpoint_interval: 16, ..StoreConfig::default() };
    let cold_start = Instant::now();
    let service: Arc<QueryService> = if Store::exists(&store_dir).expect("store probe") {
        let (service, report) =
            QueryService::open(&store_dir, config, store_config).expect("store recovery");
        // The recovered graph must be the one this run's workload targets
        // (someone may have pointed KSP_STORE_DIR at a store for a
        // different network).
        let recovered = service.snapshot();
        assert_eq!(
            (recovered.graph().num_vertices(), recovered.graph().num_edges()),
            (graph.num_vertices(), graph.num_edges()),
            "store at {} holds a different graph than this scale/preset generates",
            store_dir.display(),
        );
        println!(
            "recovered store {}: checkpoint epoch {}, {} logged batch(es) replayed{} ({:.0} ms)",
            store_dir.display(),
            report.checkpoint_epoch,
            report.batches_replayed,
            if report.torn_bytes_dropped > 0 { " after torn-tail truncation" } else { "" },
            cold_start.elapsed().as_secs_f64() * 1e3,
        );
        Arc::new(service)
    } else {
        let service =
            QueryService::start_with_store(graph.clone(), config, &store_dir, store_config)
                .expect("service start");
        println!(
            "initialised store {} with a fresh index build ({:.0} ms)",
            store_dir.display(),
            cold_start.elapsed().as_secs_f64() * 1e3,
        );
        Arc::new(service)
    };
    println!(
        "query service up: {} shards, cache {} entries/shard, queue depth {}, epoch {}",
        service.num_shards(),
        config.cache_capacity,
        config.admission.max_queue_depth,
        service.current_epoch(),
    );

    // Traffic evolves with the paper's default parameters (α = 35 %, τ = 30 %)
    // while client threads replay top-3 route requests.
    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 150;
    let update_cadence = Duration::from_millis(20);
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::default(), 99);
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(60, 3), 7);
    println!(
        "concurrent run: {CLIENTS} clients x {REQUESTS_PER_CLIENT} requests, \
         traffic epoch every {update_cadence:?}"
    );

    let (completed, rejected) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let clients_done = AtomicBool::new(false);
    let started = Instant::now();
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (service, workload) = (&service, &workload);
                let (completed, rejected) = (&completed, &rejected);
                scope.spawn(move || {
                    for q in workload.cycle_from(client * 7).take(REQUESTS_PER_CLIENT) {
                        match service.query(q.source, q.target, q.k) {
                            Ok(_) => completed.fetch_add(1, Ordering::Relaxed),
                            Err(ServiceError::Overloaded { .. }) => {
                                rejected.fetch_add(1, Ordering::Relaxed)
                            }
                            Err(e) => panic!("query failed: {e}"),
                        };
                    }
                })
            })
            .collect();
        let (service, clients_done) = (&service, &clients_done);
        scope.spawn(move || {
            while !clients_done.load(Ordering::Relaxed) {
                std::thread::sleep(update_cadence);
                service.apply_batch(&traffic.next_snapshot()).expect("publish");
            }
        });
        for client in clients {
            client.join().expect("client thread");
        }
        clients_done.store(true, Ordering::Relaxed);
    });
    let elapsed = started.elapsed();
    let (completed, rejected) = (completed.into_inner(), rejected.into_inner());
    let metrics = service.metrics();

    println!();
    println!("== concurrent serving report ==");
    println!("requests: {completed} completed, {rejected} rejected by admission control");
    println!(
        "throughput: {:.0} queries/s over {:.2} s",
        completed as f64 / elapsed.as_secs_f64(),
        elapsed.as_secs_f64()
    );
    println!(
        "latency: p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms (mean {:.3} ms, max {:.3} ms)",
        metrics.p50.as_secs_f64() * 1e3,
        metrics.p95.as_secs_f64() * 1e3,
        metrics.p99.as_secs_f64() * 1e3,
        metrics.mean.as_secs_f64() * 1e3,
        metrics.max.as_secs_f64() * 1e3,
    );
    println!(
        "cache: {:.1} % hit rate ({} hits, {} misses)",
        metrics.cache_hit_rate() * 100.0,
        metrics.cache_hits,
        metrics.cache_misses
    );
    println!(
        "epochs: {} published since the service started (now at epoch {}), all logged durably",
        metrics.epochs_published,
        service.current_epoch()
    );

    // The same service, this time across a socket: bind a loopback TCP
    // endpoint and drive it through the typed wire protocol — the path a
    // remote navigation client or operator console would use.
    println!();
    println!("== wire protocol showcase (loopback TCP) ==");
    let server = EventLoopServer::bind(service.clone(), "127.0.0.1:0").expect("bind loopback");
    let (mut client, hello) = KspClient::connect(server.local_addr()).expect("connect");
    println!(
        "connected to {} — protocol v{PROTOCOL_VERSION}, epoch {}, {} shards",
        server.local_addr(),
        hello.epoch,
        hello.num_shards
    );
    let keys: Vec<QueryKey> =
        workload.iter().take(10).map(|q| QueryKey::new(q.source, q.target, q.k)).collect();
    let answers = client.query_pipelined(&keys).expect("pipelined queries");
    let answered = answers.iter().filter(|a| a.is_ok()).count();
    println!("pipelined {} queries in one round trip: {answered} answered", keys.len());
    // The observability surface, over the same socket: a typed `ObsSnapshot`
    // carries every counter and gauge, decomposes every served request into
    // its pipeline stages (the stage totals sum to the end-to-end total — an
    // exact attribution), and `scrape_text` renders the whole thing in the
    // Prometheus text format a monitoring stack would poll.
    let snap = client.obs_snapshot().expect("obs snapshot over the wire");
    let (hits, misses) =
        (snap.counter("ksp_cache_hits_total"), snap.counter("ksp_cache_misses_total"));
    println!(
        "remote metrics: {} completed, {} rejected by admission control, {:.1} % cache hits",
        snap.counter("ksp_requests_completed_total"),
        snap.counter("ksp_requests_rejected_total"),
        hits as f64 * 100.0 / (hits + misses).max(1) as f64
    );
    println!();
    println!("== observability showcase (over the same TCP connection) ==");
    println!(
        "where a request's time goes ({} requests, epoch age {:.3} s):",
        snap.end_to_end.count,
        snap.gauge("ksp_epoch_age_seconds").unwrap_or(0.0),
    );
    let stage_total: u64 = snap.stages.iter().map(|s| s.histogram.total_micros).sum();
    for stage in &snap.stages {
        let h = &stage.histogram;
        println!(
            "    {:<12} p50 {:>6} us  p99 {:>8} us  {:>5.1} % of total",
            stage.stage.name(),
            h.quantile(0.5).as_micros(),
            h.quantile(0.99).as_micros(),
            100.0 * h.total_micros as f64 / stage_total.max(1) as f64,
        );
    }
    println!(
        "    {:<12} p50 {:>6} us  p99 {:>8} us  (stage sum {:.3} ms = e2e {:.3} ms)",
        "end_to_end",
        snap.end_to_end.quantile(0.5).as_micros(),
        snap.end_to_end.quantile(0.99).as_micros(),
        stage_total as f64 / 1e3,
        snap.end_to_end.total_micros as f64 / 1e3,
    );
    // The write path gets the same treatment: every epoch publish is split
    // into its seven stages (staging, WAL append, fsync, snapshot swap,
    // cache retention, checkpoint encode and commit), and the stage totals
    // sum exactly to the end-to-end publish total.
    println!(
        "where an epoch publish's time goes ({} epochs published):",
        snap.publish_end_to_end.count
    );
    let publish_total: u64 = snap.publish_stages.iter().map(|s| s.histogram.total_micros).sum();
    for stage in &snap.publish_stages {
        let h = &stage.histogram;
        println!(
            "    {:<17} p50 {:>6} us  p99 {:>8} us  {:>5.1} % of total",
            stage.stage.name(),
            h.quantile(0.5).as_micros(),
            h.quantile(0.99).as_micros(),
            100.0 * h.total_micros as f64 / publish_total.max(1) as f64,
        );
    }
    println!(
        "    {:<17} (stage sum {:.3} ms = e2e {:.3} ms)",
        "end_to_end",
        publish_total as f64 / 1e3,
        snap.publish_end_to_end.total_micros as f64 / 1e3,
    );
    match &snap.dump {
        Some(dump) => println!(
            "flight recorder: {} events recorded; latest anomaly dump: {} ({} events captured, trace {:#x})",
            snap.counter("ksp_flight_events_total"),
            dump.cause.kind.name(),
            dump.events.len(),
            dump.trace_id,
        ),
        None => println!(
            "flight recorder: {} events recorded, no anomaly triggers fired",
            snap.counter("ksp_flight_events_total"),
        ),
    }
    // Every request this client sent carried a trace id the server echoed
    // back (and threads into any anomaly dump it causes), and the client
    // decomposes its own perceived latency around the server's numbers.
    let breakdown = client.latency_breakdown();
    println!(
        "trace context: last request stamped {:#x}; perceived latency so far: \
         {} us = {} serialize + {} network + {} server + {} decode",
        client.last_trace_id(),
        breakdown.total_micros,
        breakdown.serialize_micros,
        breakdown.network_micros,
        breakdown.server_micros,
        breakdown.decode_micros,
    );
    println!(
        "connections: {} open; the server has moved {} frames in / {} frames out so far",
        snap.gauge("ksp_eventloop_open_connections").unwrap_or(0.0),
        snap.counter("ksp_eventloop_frames_in_total"),
        snap.counter("ksp_eventloop_frames_out_total"),
    );
    let exposition = client.scrape_text().expect("scrape over the wire");
    let families = exposition.lines().filter(|l| l.starts_with("# TYPE ")).count();
    println!(
        "text exposition: {} metric families, {} samples, {} bytes; e.g.",
        families,
        exposition.lines().filter(|l| !l.starts_with('#')).count(),
        exposition.len(),
    );
    for line in exposition.lines().filter(|l| !l.starts_with('#')).take(4) {
        println!("    {line}");
    }

    // A fleet of sessions on the same server: the serving thread count is a
    // small constant, not one thread per connection — the deployment shape
    // for a fleet of mostly-idle navigation sessions.
    println!();
    println!("== session fleet showcase (epoll, fixed thread count) ==");
    let mut sessions: Vec<_> =
        (0..32).map(|_| KspClient::connect(server.local_addr()).expect("connect").0).collect();
    let q = workload.iter().next().expect("non-empty workload");
    for session in &mut sessions {
        session.query(q.source, q.target, q.k).expect("query over the event loop");
    }
    let stats = server.stats();
    println!(
        "{} concurrent sessions answered on {} serving threads \
         (peak {} connections open, {} frames in / {} frames out, {} rejected)",
        sessions.len(),
        server.thread_count(),
        stats.peak_connections,
        stats.frames_in,
        stats.frames_out,
        stats.rejected,
    );
    drop(sessions);

    // A controlled shutdown checkpoints the final epoch — requested over the
    // wire, so the next run recovers without replaying this run's log.
    match client.checkpoint_now() {
        Ok(Some(epoch)) => println!("shutdown checkpoint written at epoch {epoch} (via TCP)"),
        Ok(None) => {}
        Err(e) => eprintln!("shutdown checkpoint failed: {e}"),
    }
    let wire = client.stats();
    println!(
        "wire cost: {} requests, {} B sent, {} B received ({:.0} B/request)",
        wire.requests,
        wire.bytes_sent,
        wire.bytes_received,
        wire.bytes_per_request()
    );
    drop(client);
    drop(server); // graceful: stops the poller and joins it and the control thread
    println!("navigation service example finished");
}
