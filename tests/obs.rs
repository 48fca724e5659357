//! Integration tests for the observability subsystem, end to end: a
//! `QueryService` behind a loopback `EventLoopServer`, scraped through
//! `KspClient`.
//!
//! Three contracts are proven here:
//!
//! 1. **Exact decomposition over the wire** — an `ObsSnapshot` fetched over
//!    TCP splits every served request into the seven pipeline stages, and the
//!    stage totals sum *exactly* to the end-to-end total (the span stamps
//!    telescope, so nothing is double-counted or lost).
//! 2. **Anomaly dumps travel** — an SLO breach dumps the offending span
//!    chain plus the flight ring, and a later scrape carries the whole dump
//!    across the socket, validated back into typed form.
//! 3. **Bounded memory** — the flight ring never holds more than its
//!    capacity no matter how many events storm through it, from one thread
//!    (property test) or many (concurrent storm with live readers).

use ksp_dg::core::dtlp::DtlpConfig;
use ksp_dg::obs::{EventKind, FlightRecorder, Stage, StageSet};
use ksp_dg::proto::KspClient;
use ksp_dg::serve::{EventLoopServer, QueryService, ServiceConfig};
use ksp_dg::workload::{
    QueryWorkload, QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig,
    TrafficModel,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn start_server(
    n: usize,
    config: ServiceConfig,
    seed: u64,
) -> (EventLoopServer, Arc<QueryService>, ksp_dg::graph::DynamicGraph) {
    let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n))
        .generate(seed)
        .unwrap()
        .graph;
    let service = Arc::new(QueryService::start(graph.clone(), config).unwrap());
    let server = EventLoopServer::bind(service.clone(), "127.0.0.1:0").unwrap();
    (server, service, graph)
}

#[test]
fn tcp_queries_decompose_into_stages_that_sum_to_end_to_end() {
    let (server, _service, graph) =
        start_server(200, ServiceConfig::new(2, DtlpConfig::new(16, 2)), 0x0B51);
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(10, 3), 11);
    let (mut client, _) = KspClient::connect(server.local_addr()).unwrap();

    // Publish one epoch, then run the workload twice: the second pass is
    // served (at least partly) from the result cache, so both the hit and
    // the miss paths contribute span chains.
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::default(), 5);
    client.apply_batch(&traffic.next_snapshot()).unwrap();
    for _ in 0..2 {
        for q in workload.iter() {
            client.query(q.source, q.target, q.k).unwrap();
        }
    }

    let snap = client.obs_snapshot().unwrap();
    let completed = snap.counter("ksp_requests_completed_total");
    assert_eq!(completed, 2 * workload.len() as u64);
    assert_eq!(snap.end_to_end.count, completed);

    // The telescoping contract: per-stage totals sum exactly to the
    // end-to-end total — the decomposition is an attribution, not a sample.
    let stage_total: u64 =
        Stage::ALL.iter().filter_map(|&s| snap.stage(s)).map(|h| h.total_micros).sum();
    assert_eq!(stage_total, snap.end_to_end.total_micros);

    // Every request passes through every stage exactly once, except the
    // queue/steal pair, which are mutually exclusive per request.
    for stage in [Stage::Admission, Stage::Cache, Stage::Engine, Stage::Reply] {
        assert_eq!(snap.stage(stage).unwrap().count, completed, "{}", stage.name());
    }
    let queued = snap.stage(Stage::Queue).unwrap().count;
    let stolen = snap.stage(Stage::Steal).unwrap().count;
    assert_eq!(queued + stolen, completed);

    // The cache counters agree with the stage view, and both hit and miss
    // paths were exercised.
    let hits = snap.counter("ksp_cache_hits_total");
    let misses = snap.counter("ksp_cache_misses_total");
    assert_eq!(hits + misses, completed);
    assert!(hits > 0, "second pass must produce cache hits");
    assert!(misses > 0, "first pass must produce cache misses");
    assert_eq!(snap.counter("ksp_epochs_published_total"), 1);

    // The client-side scrape renders every family a monitoring stack would
    // chart, including one series per stage.
    let text = client.scrape_text().unwrap();
    assert!(text.contains("# TYPE ksp_stage_duration_seconds histogram"));
    assert!(text.contains("# TYPE ksp_request_duration_seconds histogram"));
    for stage in Stage::ALL {
        assert!(text.contains(&format!("stage=\"{}\"", stage.name())), "{}", stage.name());
    }
    assert!(text.contains(&format!("ksp_requests_completed_total {completed}")));
}

#[test]
fn slo_breach_dump_carries_the_span_chain_over_the_wire() {
    // An unmeetable SLO: the very first request breaches it and dumps.
    let mut config = ServiceConfig::new(2, DtlpConfig::new(16, 2));
    config.observability.slo_p99 = Duration::from_nanos(1);
    let (server, _service, graph) = start_server(160, config, 0x0B52);
    let (mut client, _) = KspClient::connect(server.local_addr()).unwrap();
    let last = ksp_dg::graph::VertexId(graph.num_vertices() as u32 - 1);
    client.query(ksp_dg::graph::VertexId(0), last, 2).unwrap();

    let snap = client.obs_snapshot().unwrap();
    assert!(snap.counter("ksp_flight_dumps_total") >= 1);
    let dump = snap.dump.expect("the breach must dump, and the dump must travel the wire");
    assert_eq!(dump.cause.kind, EventKind::SloBreach);
    // The dump carries the full per-stage chain of the offending request,
    // and its stamps account for the reported end-to-end latency exactly.
    let chain = dump.span.expect("an SLO dump carries the offending span chain");
    assert_eq!(chain.micros.len(), Stage::COUNT);
    assert_eq!(chain.total_micros(), dump.cause.a);
    // The ring snapshot inside the dump includes the breach event itself.
    assert!(dump.events.iter().any(|e| e.kind == EventKind::SloBreach));
}

#[test]
fn epoch_age_gauge_travels_the_wire_and_resets_on_publish() {
    let (server, _service, graph) =
        start_server(160, ServiceConfig::new(2, DtlpConfig::new(16, 2)), 0x0B53);
    let (mut client, _) = KspClient::connect(server.local_addr()).unwrap();

    std::thread::sleep(Duration::from_millis(80));
    let aged = client.obs_snapshot().unwrap().gauge("ksp_epoch_age_seconds").unwrap();
    assert!(aged >= 0.05, "epoch age must accumulate while nothing publishes (got {aged} s)");

    let mut traffic = TrafficModel::new(&graph, TrafficConfig::default(), 9);
    client.apply_batch(&traffic.next_snapshot()).unwrap();
    let fresh = client.obs_snapshot().unwrap().gauge("ksp_epoch_age_seconds").unwrap();
    assert!(fresh < aged, "a publish must reset the age ({fresh} s !< {aged} s)");
}

/// Splits one exposition sample line into `(metric name, labels, value)`,
/// panicking with the offending line on any malformation.
fn parse_sample(line: &str) -> (String, Vec<(String, String)>, f64) {
    let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("no value: {line}"));
    let value: f64 = value.parse().unwrap_or_else(|_| panic!("bad value: {line}"));
    let (name, labels) = match series.split_once('{') {
        None => (series.to_string(), Vec::new()),
        Some((name, rest)) => {
            let body = rest.strip_suffix('}').unwrap_or_else(|| panic!("unclosed braces: {line}"));
            let labels = body
                .split(',')
                .map(|pair| {
                    let (k, v) =
                        pair.split_once('=').unwrap_or_else(|| panic!("bad label: {line}"));
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .unwrap_or_else(|| panic!("unquoted label value: {line}"));
                    (k.to_string(), v.to_string())
                })
                .collect();
            (name.to_string(), labels)
        }
    };
    let valid = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
    assert!(!name.is_empty() && name.chars().all(valid), "bad metric name: {line}");
    (name, labels, value)
}

/// The scrape output must be parseable by a real Prometheus server: every
/// line is either a `# TYPE` comment or a well-formed sample, every family's
/// type is declared exactly once and *before* its first sample, histogram
/// buckets are cumulative-monotone with the `+Inf` bucket equal to `_count`,
/// and every histogram series carries its `_sum` and `_count`.
#[test]
fn scrape_text_is_well_formed_prometheus_exposition() {
    use std::collections::HashMap;

    let (server, _service, graph) =
        start_server(180, ServiceConfig::new(2, DtlpConfig::new(16, 2)), 0x0B54);
    let (mut client, _) = KspClient::connect(server.local_addr()).unwrap();
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::default(), 3);
    client.apply_batch(&traffic.next_snapshot()).unwrap();
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(8, 2), 5);
    for q in workload.iter() {
        client.query(q.source, q.target, q.k).unwrap();
    }
    let text = client.scrape_text().unwrap();

    let mut types: HashMap<String, String> = HashMap::new();
    let mut sampled: HashMap<String, bool> = HashMap::new();
    // (family, non-le labels) -> cumulative bucket counts in emission order,
    // the +Inf count, and the _count sample, checked against each other after
    // the parse.
    #[derive(Default)]
    struct Series {
        cumulative: Vec<f64>,
        inf: Option<f64>,
        count: Option<f64>,
        sum: bool,
    }
    let mut series: HashMap<(String, String), Series> = HashMap::new();

    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let family = parts.next().expect("family name").to_string();
            let kind = parts.next().unwrap_or_else(|| panic!("no kind: {line}"));
            assert!(parts.next().is_none(), "trailing tokens: {line}");
            assert!(matches!(kind, "counter" | "gauge" | "histogram"), "unknown kind: {line}");
            assert!(!sampled.contains_key(&family), "# TYPE for {family} after its first sample");
            let previous = types.insert(family.clone(), kind.to_string());
            assert!(previous.is_none(), "duplicate # TYPE for {family}");
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line}");
        let (name, labels, value) = parse_sample(line);

        // Resolve the owning family: histogram samples carry a suffix.
        let (family, suffix) = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|s| {
                let stem = name.strip_suffix(s)?;
                (types.get(stem).map(String::as_str) == Some("histogram"))
                    .then(|| (stem.to_string(), *s))
            })
            .unwrap_or((name.clone(), ""));
        let kind = types.get(&family).unwrap_or_else(|| panic!("sample before its # TYPE: {line}"));
        sampled.insert(family.clone(), true);
        assert_eq!(kind == "histogram", !suffix.is_empty(), "suffix/kind mismatch: {line}");

        if kind == "histogram" {
            let non_le: Vec<String> =
                labels.iter().filter(|(k, _)| k != "le").map(|(k, v)| format!("{k}={v}")).collect();
            let entry = series.entry((family, non_le.join(","))).or_default();
            match suffix {
                "_bucket" => {
                    let le = &labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .unwrap_or_else(|| panic!("bucket without le: {line}"))
                        .1;
                    if le == "+Inf" {
                        entry.inf = Some(value);
                    } else {
                        le.parse::<f64>().unwrap_or_else(|_| panic!("bad le: {line}"));
                        assert!(entry.inf.is_none(), "finite bucket after +Inf: {line}");
                        entry.cumulative.push(value);
                    }
                }
                "_sum" => entry.sum = true,
                "_count" => entry.count = Some(value),
                _ => unreachable!(),
            }
        }
    }

    assert!(!series.is_empty(), "the scrape must carry histograms");
    for ((family, labels), s) in &series {
        let at = format!("{family}{{{labels}}}");
        assert!(s.sum, "{at} missing _sum");
        let count = s.count.unwrap_or_else(|| panic!("{at} missing _count"));
        let inf = s.inf.unwrap_or_else(|| panic!("{at} missing +Inf bucket"));
        assert_eq!(inf, count, "{at}: +Inf bucket must equal _count");
        for pair in s.cumulative.windows(2) {
            assert!(pair[0] <= pair[1], "{at}: buckets not cumulative-monotone");
        }
        if let Some(&last) = s.cumulative.last() {
            assert!(last <= inf, "{at}: finite bucket exceeds +Inf");
        }
    }
    // The families this PR adds are all present and typed.
    for family in [
        "ksp_publish_stage_duration_seconds",
        "ksp_publish_duration_seconds",
        "ksp_eventloop_frames_in_total",
        "ksp_eventloop_bytes_out_total",
        "ksp_flight_overwritten_total",
        "ksp_eventloop_open_connections",
    ] {
        assert!(types.contains_key(family), "missing family {family}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The flight ring's memory is its capacity, forever: storms of any size
    /// leave at most `capacity` events visible, the tally still counts every
    /// event that passed through, and the snapshot holds exactly the most
    /// recent window, oldest first.
    #[test]
    fn flight_ring_stays_bounded_under_event_storms(
        capacity in 1usize..300,
        storm in 1usize..4_000,
    ) {
        let ring = FlightRecorder::new(capacity);
        for i in 0..storm {
            let kind = EventKind::ALL[i % EventKind::ALL.len()];
            ring.record(kind, i as u64, 0, 0);
        }
        prop_assert_eq!(ring.capacity(), capacity);
        prop_assert_eq!(ring.events_recorded(), storm as u64);

        let events = ring.snapshot();
        prop_assert!(events.len() <= capacity);
        // Single-threaded, so the snapshot is the exact trailing window.
        prop_assert_eq!(events.len(), storm.min(capacity));
        for (offset, event) in events.iter().enumerate() {
            prop_assert_eq!(event.a, (storm - events.len() + offset) as u64);
        }

        // A trigger snapshots the ring into a dump of the same bounded size,
        // and repeated triggers replace rather than accumulate.
        ring.trigger(EventKind::PublishStall, 7, 0, 0, None);
        ring.trigger(EventKind::PublishStall, 8, 0, 0, None);
        let dump = ring.last_dump().unwrap();
        prop_assert!(dump.events.len() <= capacity);
        prop_assert_eq!(dump.cause.a, 8);
        prop_assert_eq!(ring.dumps_taken(), 2);
    }
}

#[test]
fn concurrent_event_storm_never_blocks_writers_or_readers() {
    let ring = Arc::new(FlightRecorder::new(64));
    let writers = 4u64;
    let per_writer = 20_000u64;
    std::thread::scope(|scope| {
        for w in 0..writers {
            let ring = Arc::clone(&ring);
            scope.spawn(move || {
                for i in 0..per_writer {
                    ring.record(EventKind::Steal, w, i, 0);
                    if i % 1024 == 0 {
                        ring.trigger(EventKind::SloBreach, w, i, 0, None);
                    }
                }
            });
        }
        // A reader snapshots throughout the storm: every snapshot stays
        // within capacity and never observes a torn slot (a torn slot would
        // surface as an event with field values no writer ever wrote, which
        // the seqlock double-check prevents by skipping it).
        let ring = Arc::clone(&ring);
        scope.spawn(move || {
            for _ in 0..200 {
                let events = ring.snapshot();
                assert!(events.len() <= ring.capacity());
                for e in &events {
                    assert!(e.b < per_writer, "torn slot leaked: {e:?}");
                }
            }
        });
    });
    // Triggers record their cause event too, so the tally exceeds the plain
    // per-writer records.
    assert!(ring.events_recorded() >= writers * per_writer);
    assert!(ring.snapshot().len() <= 64);
    assert!(ring.dumps_taken() > 0);
    assert!(ring.last_dump().is_some());
}
