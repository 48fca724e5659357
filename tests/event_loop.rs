//! Integration tests for the epoll event-loop server: the typed wire
//! protocol over real loopback TCP, on a bounded thread count, with the
//! service's SLO-driven admission deciding every query.
//!
//! Six contracts are proven here:
//!
//! 1. **Bit-exactness** — answers served through the event loop equal the
//!    in-process answers byte for byte, for sequential, batched and
//!    pipelined clients alike, and a batch published by one connection is
//!    visible to every other.
//! 2. **Reassembly** — a frame dribbled one byte per segment, several frames
//!    coalesced into one segment, and a frame torn at every possible offset
//!    all behave exactly as the blocking reader: complete frames answer,
//!    tears answer typed and disconnect.
//! 3. **Robustness** — malformed frames, CRC corruption, oversized lengths
//!    and foreign protocol versions are answered with a typed `ErrorReply`
//!    and a clean disconnect, and the server keeps serving afterwards.
//! 4. **Scale** — a thousand-plus concurrent connections are served with
//!    correct answers while the process thread count stays flat (a
//!    thread-per-connection server would add a thousand threads).
//! 5. **Admission under burst** — property-tested: whatever mix of idle
//!    connection storms, hot-shard floods and epoch publishes arrives, every
//!    accepted request is answered byte-identically to in-proc and every
//!    rejection is a typed `Overloaded` — never a dropped connection — that
//!    the service counts exactly once.
//! 6. **Lifetimes** — replies run on shard workers, so dropping the server
//!    and the last service handle with queries still queued neither hangs
//!    nor panics.

use ksp_dg::core::dtlp::DtlpConfig;
use ksp_dg::graph::{DynamicGraph, VertexId};
use ksp_dg::obs::EventKind;
use ksp_dg::proto::frame::{read_frame, write_frame, FrameKind, MAX_FRAME_PAYLOAD};
use ksp_dg::proto::message::{ErrorReply, QueryKey, Request, Response, PROTOCOL_VERSION};
use ksp_dg::proto::{ClientError, KspClient};
use ksp_dg::serve::event_loop::hostile_frame;
use ksp_dg::serve::{route_shard, EventLoopServer, QueryService, ServiceConfig};
use ksp_dg::store::StoreCodec;
use ksp_dg::workload::{
    QueryWorkload, QueryWorkloadConfig, RoadNetworkConfig, RoadNetworkGenerator, TrafficConfig,
    TrafficModel,
};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn start_server(
    n: usize,
    config: ServiceConfig,
    seed: u64,
) -> (EventLoopServer, Arc<QueryService>, DynamicGraph) {
    let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(n))
        .generate(seed)
        .unwrap()
        .graph;
    let service = Arc::new(QueryService::start(graph.clone(), config).unwrap());
    let server = EventLoopServer::bind(service.clone(), "127.0.0.1:0").unwrap();
    (server, service, graph)
}

fn default_server(
    n: usize,
    shards: usize,
    seed: u64,
) -> (EventLoopServer, Arc<QueryService>, DynamicGraph) {
    let config = ServiceConfig::new(shards, DtlpConfig::new(16, 2));
    start_server(n, config, seed)
}

fn raw_conn(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
}

fn read_response(stream: &mut TcpStream) -> Option<Response> {
    match read_frame(stream) {
        Ok(Some((FrameKind::Response, payload))) => {
            Some(Response::from_bytes(&payload).expect("server responses must decode"))
        }
        Ok(None) => None,
        other => panic!("expected a response frame or clean EOF, got {other:?}"),
    }
}

fn assert_disconnected(stream: &mut TcpStream) {
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => {}
        other => panic!("expected a clean disconnect, got {other:?}"),
    }
}

fn assert_answers_match(
    got: &[ksp_dg::algo::Path],
    want: &[ksp_dg::algo::Path],
    got_epoch: u64,
    want_epoch: u64,
) {
    assert_eq!(got_epoch, want_epoch, "answers must come from the same epoch");
    assert_eq!(got.len(), want.len());
    for (a, b) in got.iter().zip(want.iter()) {
        assert_eq!(a.vertices(), b.vertices());
        assert_eq!(a.distance().value().to_bits(), b.distance().value().to_bits());
    }
}

/// Live thread count of this test process, from /proc (Linux-only, like the
/// server under test).
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("/proc/self/status reports Threads")
}

#[test]
fn event_loop_answers_are_byte_identical_to_in_proc() {
    let (server, service, graph) = default_server(200, 3, 41);
    let addr = server.local_addr();
    let workload = QueryWorkload::generate(&graph, QueryWorkloadConfig::new(12, 3), 7);
    let reference: Vec<_> =
        workload.iter().map(|q| service.query(q.source, q.target, q.k).unwrap()).collect();

    std::thread::scope(|scope| {
        for client_id in 0..3 {
            let workload = &workload;
            let reference = &reference;
            scope.spawn(move || {
                let (mut client, info) = KspClient::connect(addr).unwrap();
                assert_eq!(info.num_shards, 3);
                match client_id {
                    0 => {
                        for (q, want) in workload.iter().zip(reference.iter()) {
                            let got = client.query(q.source, q.target, q.k).unwrap();
                            assert_answers_match(&got.paths, &want.paths, got.epoch, want.epoch);
                        }
                    }
                    _ => {
                        let keys: Vec<QueryKey> = workload
                            .iter()
                            .map(|q| QueryKey::new(q.source, q.target, q.k))
                            .collect();
                        for (got, want) in
                            client.query_pipelined(&keys).unwrap().into_iter().zip(reference.iter())
                        {
                            let got = got.unwrap();
                            assert_answers_match(&got.paths, &want.paths, got.epoch, want.epoch);
                        }
                    }
                }
                assert!(client.stats().bytes_sent > 0, "the event loop moves real bytes");
            });
        }
    });

    // The metrics surface (including the rejected counter) is visible over
    // the wire.
    let (mut client, _) = KspClient::connect(addr).unwrap();
    let snap = client.obs_snapshot().unwrap();
    assert!(snap.counter("ksp_requests_completed_total") >= 3 * workload.len() as u64);
    assert_eq!(snap.counter("ksp_requests_rejected_total"), 0);
    assert_eq!(snap.gauges.iter().filter(|g| g.name == "ksp_queue_depth").count(), 1);

    let stats = server.stats();
    assert!(stats.accepted >= 3);
    assert!(stats.frames_in > 0 && stats.frames_out > 0);
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
}

#[test]
fn pipelined_bursts_larger_than_the_pending_cap_all_answer() {
    // 200 queries written in one burst, far past the per-connection decode
    // backpressure cap (64 pending requests). The client sends everything
    // before reading a byte, so once the burst is buffered server-side there
    // is no further EPOLLIN on the socket — the loop must resume decoding
    // the buffered remainder as completions free slots, or the tail of the
    // burst is never answered and the connection hangs forever.
    let (server, service, graph) = default_server(160, 2, 71);
    let n = graph.num_vertices() as u32;
    let keys: Vec<QueryKey> = (0..200u32)
        .map(|i| QueryKey::new(VertexId(i % n), VertexId((i + 7) % n), 2))
        .filter(|k| k.source != k.target)
        .collect();
    assert!(keys.len() > 64, "the burst must exceed the pending cap");
    let reference: Vec<_> =
        keys.iter().map(|k| service.query(k.source, k.target, k.k).unwrap()).collect();

    let (mut client, _) = KspClient::connect(server.local_addr()).unwrap();
    let got = client.query_pipelined(&keys).unwrap();
    assert_eq!(got.len(), keys.len(), "every pipelined request must be answered");
    for (got, want) in got.into_iter().zip(reference.iter()) {
        let got = got.unwrap();
        assert_answers_match(&got.paths, &want.paths, got.epoch, want.epoch);
    }
    assert!(server.stats().frames_in >= keys.len() as u64);
}

#[test]
fn pipelined_cache_hits_answer_without_waiting_for_a_wake() {
    // One warm key repeated 200 times in one burst. Each repeat is a cache
    // hit answered inline on the poller, which queues its completion without
    // a wake byte; handing on the next buffered repeat while applying that
    // completion answers it inline too. The poller must keep applying until
    // none are left, or every repeat waits out one idle epoll timeout.
    let (server, service, graph) = default_server(160, 2, 73);
    let key = QueryKey::new(VertexId(0), VertexId(graph.num_vertices() as u32 - 1), 3);
    let want = service.query(key.source, key.target, key.k).unwrap();
    assert!(!want.cache_hit, "the warming query runs the engine");

    let (mut client, _) = KspClient::connect(server.local_addr()).unwrap();
    let started = std::time::Instant::now();
    let got = client.query_pipelined(&[key; 200]).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(got.len(), 200);
    for answer in got {
        let answer = answer.unwrap();
        assert!(answer.cache_hit, "every repeat of the warm key is a hit");
        assert_answers_match(&answer.paths, &want.paths, answer.epoch, want.epoch);
    }
    assert!(elapsed < Duration::from_secs(2), "200 pipelined hits took {elapsed:?}");
}

#[test]
fn publishes_over_the_event_loop_are_visible_to_every_connection() {
    let (server, service, graph) = default_server(160, 2, 23);
    let addr = server.local_addr();
    let (mut writer_conn, _) = KspClient::connect(addr).unwrap();
    let (mut reader_conn, info) = KspClient::connect(addr).unwrap();
    assert_eq!(info.epoch, 0);

    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.4), 19);
    for expected in 1..=2u64 {
        let batch = traffic.next_snapshot();
        assert_eq!(writer_conn.apply_batch(&batch).unwrap(), expected);
    }
    assert_eq!(reader_conn.ping().unwrap().epoch, 2);
    assert_eq!(service.current_epoch(), 2);

    let last = VertexId(graph.num_vertices() as u32 - 1);
    let over_wire = reader_conn.query(VertexId(0), last, 3).unwrap();
    let direct = service.query(VertexId(0), last, 3).unwrap();
    assert_answers_match(&over_wire.paths, &direct.paths, over_wire.epoch, direct.epoch);

    // An invalid batch is rejected typed over the wire and publishes nothing.
    use ksp_dg::graph::{EdgeId, UpdateBatch, Weight, WeightUpdate};
    let bogus = UpdateBatch::new(vec![WeightUpdate::new(
        EdgeId(graph.num_edges() as u32 + 50),
        Weight::new(1.0),
    )]);
    match writer_conn.apply_batch(&bogus) {
        Err(ClientError::Server(ErrorReply::InvalidBatch(_))) => {}
        other => panic!("invalid batch must fail typed, got {other:?}"),
    }
    assert_eq!(service.current_epoch(), 2);
}

#[test]
fn dribbled_coalesced_and_torn_frames_reassemble_exactly() {
    let (server, _service, graph) = default_server(140, 2, 31);
    let addr = server.local_addr();
    let last = VertexId(graph.num_vertices() as u32 - 1);

    let ping_frame = {
        let mut frame = Vec::new();
        let payload = Request::Ping.to_bytes();
        write_frame(&mut frame, FrameKind::Request, &payload).unwrap();
        frame
    };
    let query_frame = {
        let mut frame = Vec::new();
        let payload = Request::Query(QueryKey::new(VertexId(0), last, 2)).to_bytes();
        write_frame(&mut frame, FrameKind::Request, &payload).unwrap();
        frame
    };

    // (a) One byte per segment: the adversarial dribble. The poller must
    // reassemble across dozens of partial reads.
    {
        let mut conn = raw_conn(addr);
        for (i, byte) in ping_frame.iter().enumerate() {
            conn.write_all(std::slice::from_ref(byte)).unwrap();
            conn.flush().unwrap();
            if i % 5 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        match read_response(&mut conn) {
            Some(Response::Pong { .. }) => {}
            other => panic!("expected Pong from a dribbled ping, got {other:?}"),
        }
    }

    // (b) Two frames in one TCP segment: both must answer, in order.
    {
        let mut coalesced = ping_frame.clone();
        coalesced.extend_from_slice(&query_frame);
        let mut conn = raw_conn(addr);
        conn.write_all(&coalesced).unwrap();
        conn.flush().unwrap();
        match read_response(&mut conn) {
            Some(Response::Pong { .. }) => {}
            other => panic!("first response must be the Pong, got {other:?}"),
        }
        match read_response(&mut conn) {
            Some(Response::Query(answer)) => assert!(!answer.paths.is_empty()),
            other => panic!("second response must be the query answer, got {other:?}"),
        }
    }

    // (c) A good frame followed by a tail torn at *every* offset: the good
    // frame answers, the tear is reported typed — exactly the blocking
    // reader's Truncated error — and the connection closes.
    for cut in 1..ping_frame.len() {
        let mut conn = raw_conn(addr);
        conn.write_all(&query_frame).unwrap();
        conn.write_all(&ping_frame[..cut]).unwrap();
        conn.flush().unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        match read_response(&mut conn) {
            Some(Response::Query(answer)) => assert!(!answer.paths.is_empty()),
            other => panic!("cut {cut}: the complete frame must answer, got {other:?}"),
        }
        match read_response(&mut conn) {
            Some(Response::Error(ErrorReply::Malformed(detail))) => {
                assert!(detail.contains("mid-frame"), "cut {cut}: unexpected detail {detail}")
            }
            other => panic!("cut {cut}: expected a typed truncation reply, got {other:?}"),
        }
        assert_disconnected(&mut conn);
    }
}

#[test]
fn hostile_frames_fail_typed_and_the_event_loop_survives() {
    let (server, service, graph) = default_server(120, 2, 43);
    let addr = server.local_addr();
    let last = VertexId(graph.num_vertices() as u32 - 1);

    // (a) Garbage bytes: not even the magic matches.
    {
        let mut conn = raw_conn(addr);
        conn.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        conn.flush().unwrap();
        match read_response(&mut conn) {
            Some(Response::Error(ErrorReply::Malformed(detail))) => {
                assert!(detail.contains("magic"), "unexpected detail: {detail}")
            }
            other => panic!("expected a typed Malformed reply, got {other:?}"),
        }
        assert_disconnected(&mut conn);
        // The incident is a flight-recorder anomaly with its reason code.
        let dump = service.observability().flight().last_dump().expect("hostile frame dumps");
        assert_eq!(dump.cause.kind, EventKind::HostileFrame);
        assert_eq!(dump.cause.a, hostile_frame::FRAMING_LOST);
    }

    // (b) CRC mismatch.
    {
        let mut frame = Vec::new();
        let payload = Request::Query(QueryKey::new(VertexId(0), last, 2)).to_bytes();
        write_frame(&mut frame, FrameKind::Request, &payload).unwrap();
        let end = frame.len() - 1;
        frame[end] ^= 0x01;
        let mut conn = raw_conn(addr);
        conn.write_all(&frame).unwrap();
        conn.flush().unwrap();
        match read_response(&mut conn) {
            Some(Response::Error(ErrorReply::Malformed(detail))) => {
                assert!(detail.contains("CRC"), "unexpected detail: {detail}")
            }
            other => panic!("expected a typed CRC failure, got {other:?}"),
        }
        assert_disconnected(&mut conn);
    }

    // (c) Foreign protocol version in the frame header.
    {
        let mut frame = Vec::new();
        let payload = Request::Ping.to_bytes();
        write_frame(&mut frame, FrameKind::Request, &payload).unwrap();
        frame[4..8].copy_from_slice(&999u32.to_le_bytes());
        let mut conn = raw_conn(addr);
        conn.write_all(&frame).unwrap();
        conn.flush().unwrap();
        match read_response(&mut conn) {
            Some(Response::Error(ErrorReply::UnsupportedVersion { server, client })) => {
                assert_eq!(server, PROTOCOL_VERSION);
                assert_eq!(client, 999);
            }
            other => panic!("expected a typed version rejection, got {other:?}"),
        }
        assert_disconnected(&mut conn);
    }

    // (d) Oversized declared length: rejected on the header alone.
    {
        let mut frame = Vec::new();
        write_frame(&mut frame, FrameKind::Request, &Request::ObsSnapshot.to_bytes()).unwrap();
        frame[9..13].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        let mut conn = raw_conn(addr);
        conn.write_all(&frame).unwrap();
        conn.flush().unwrap();
        match read_response(&mut conn) {
            Some(Response::Error(ErrorReply::Malformed(detail))) => {
                assert!(detail.contains("exceeds"), "unexpected detail: {detail}")
            }
            other => panic!("expected a typed oversize rejection, got {other:?}"),
        }
        assert_disconnected(&mut conn);
    }

    // (e) A frame that parses but whose payload is not a valid Request.
    {
        let mut frame = Vec::new();
        write_frame(&mut frame, FrameKind::Request, &[250, 1, 2, 3]).unwrap();
        let mut conn = raw_conn(addr);
        conn.write_all(&frame).unwrap();
        conn.flush().unwrap();
        match read_response(&mut conn) {
            Some(Response::Error(ErrorReply::Malformed(detail))) => {
                assert!(detail.contains("decode"), "unexpected detail: {detail}")
            }
            other => panic!("expected a typed decode failure, got {other:?}"),
        }
        assert_disconnected(&mut conn);
    }

    // (f) A response-kind frame sent to the server.
    {
        let mut frame = Vec::new();
        write_frame(&mut frame, FrameKind::Response, &Request::ObsSnapshot.to_bytes()).unwrap();
        let mut conn = raw_conn(addr);
        conn.write_all(&frame).unwrap();
        conn.flush().unwrap();
        match read_response(&mut conn) {
            Some(Response::Error(ErrorReply::Malformed(detail))) => {
                assert!(detail.contains("request frames"), "unexpected detail: {detail}")
            }
            other => panic!("expected a typed kind rejection, got {other:?}"),
        }
        assert_disconnected(&mut conn);
    }

    // After the abuse, a well-formed client is still served, and the hostile
    // incidents were counted.
    let (mut client, _) = KspClient::connect(addr).unwrap();
    let answer = client.query(VertexId(0), last, 2).unwrap();
    assert!(!answer.paths.is_empty(), "server must keep serving after hostile clients");
    assert!(server.stats().hostile_frames >= 6);
}

#[test]
fn a_thousand_connections_are_served_on_a_bounded_thread_count() {
    let (server, service, graph) = default_server(150, 2, 53);
    let addr = server.local_addr();
    let last = VertexId(graph.num_vertices() as u32 - 1);
    let reference = service.query(VertexId(0), last, 2).unwrap();

    let threads_before = process_threads();
    assert_eq!(server.thread_count(), 2, "the poller and the control thread");

    // 1024 idle connections held open at once...
    let mut idle = Vec::with_capacity(1024);
    for _ in 0..1024 {
        idle.push(TcpStream::connect(addr).unwrap());
    }
    // ...plus active clients querying through the same loop.
    for _ in 0..16 {
        let (mut client, _) = KspClient::connect(addr).unwrap();
        let got = client.query(VertexId(0), last, 2).unwrap();
        assert_answers_match(&got.paths, &reference.paths, got.epoch, reference.epoch);
    }

    // The storm is visible in the loop's accounting...
    let stats = server.stats();
    assert!(stats.peak_connections >= 1024, "peak {} too low", stats.peak_connections);
    assert!(stats.open_connections >= 1024);

    // ...but the process thread count stayed flat. A thread-per-connection
    // server would have added ~1040 threads here; allow generous slack for
    // unrelated tests running in this same process.
    let threads_during = process_threads();
    assert!(
        threads_during < threads_before + 64,
        "thread count must not scale with connections: {threads_before} -> {threads_during}"
    );

    drop(idle);
    drop(server);
}

#[test]
fn slo_breaching_requests_are_rejected_typed_with_retry_hints() {
    // A 50µs budget no engine run can meet: the first cold query is admitted
    // blind (no samples yet) and seeds the EWMA; every later engine-run
    // prediction breaches the budget and must be rejected with a hint.
    let mut config = ServiceConfig::new(2, DtlpConfig::new(16, 2));
    config.observability.slo_p99 = Duration::from_micros(50);
    let (server, _service, graph) = start_server(140, config, 61);
    let last = VertexId(graph.num_vertices() as u32 - 1);

    let (mut client, _) = KspClient::connect(server.local_addr()).unwrap();
    client.query(VertexId(0), last, 2).expect("the seeding query is admitted blind");

    let mut saw_rejection = false;
    for t in 1..8 {
        // A cache hit may legitimately fit even this budget, so Ok is allowed.
        if let Err(e) = client.query(VertexId(1), VertexId(t), 2) {
            assert!(e.is_overloaded(), "rejections must be typed Overloaded: {e}");
            if let ClientError::Server(reply) = &e {
                let hint = reply.retry_after_ms().expect("adaptive rejections carry a hint");
                assert!(hint >= 1, "retry_after_ms must be at least 1ms");
            }
            saw_rejection = true;
        }
    }
    assert!(saw_rejection, "a 50µs SLO must reject engine-run queries");
    // The connection survived every rejection.
    assert!(client.ping().is_ok());
    assert!(server.stats().rejected >= 1);

    // The rejections are visible in the exposition scraped over the same
    // loop, next to the service's own admission counters.
    let text = client.scrape_text().unwrap();
    assert!(text.contains("ksp_eventloop_rejected_total"), "missing eventloop counters");
    assert!(text.contains("ksp_eventloop_open_connections"), "missing eventloop gauges");
    assert!(text.contains("ksp_admission_rejected_total"), "missing admission counters");
}

#[test]
fn tcp_rejections_are_counted_once_by_the_service() {
    // The same 50µs budget: after the blind first query, every cold query
    // is predicted to breach it. Each rejection must be one decision, made
    // and counted by the service, and mirrored by the loop's reply count.
    let mut config = ServiceConfig::new(2, DtlpConfig::new(16, 2));
    config.observability.slo_p99 = Duration::from_micros(50);
    let (server, service, graph) = start_server(140, config, 61);
    let last = VertexId(graph.num_vertices() as u32 - 1);

    let (mut client, _) = KspClient::connect(server.local_addr()).unwrap();
    let mut rejected = 0u64;
    for s in 0..12 {
        if let Err(e) = client.query(VertexId(s), last, 2) {
            assert!(e.is_overloaded(), "rejections must be typed Overloaded: {e}");
            rejected += 1;
        }
    }
    assert!(rejected >= 1, "a 50µs SLO must reject cold queries");

    let snap = client.obs_snapshot().unwrap();
    let counts = [
        snap.counter("ksp_eventloop_rejected_total"),
        snap.counter("ksp_requests_rejected_total"),
        // Summed over its `reason` labels.
        snap.counter("ksp_admission_rejected_total"),
        service.metrics().rejected,
    ];
    assert_eq!(counts, [rejected; 4], "loop, exposition, admission reasons, MetricsReport");
}

#[test]
fn queries_and_control_requests_share_one_connections_order() {
    let (server, service, graph) = default_server(160, 2, 29);
    let last = VertexId(graph.num_vertices() as u32 - 1);
    let key = QueryKey::new(VertexId(0), last, 3);
    let at_epoch_0 = service.query(key.source, key.target, key.k).unwrap();
    let batch = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.4), 3).next_snapshot();

    // Shard-worker replies (queries) and control-thread replies (the rest),
    // pipelined in one write.
    let mut burst = Vec::new();
    for request in [
        Request::Query(key),
        Request::ApplyBatch(batch),
        Request::Query(key),
        Request::ObsSnapshot,
        Request::Ping,
    ] {
        write_frame(&mut burst, FrameKind::Request, &request.to_bytes()).unwrap();
    }
    let mut conn = raw_conn(server.local_addr());
    conn.write_all(&burst).unwrap();

    let Some(Response::Query(first)) = read_response(&mut conn) else {
        panic!("first reply must answer the first query")
    };
    assert_answers_match(&first.paths, &at_epoch_0.paths, first.epoch, at_epoch_0.epoch);
    assert_eq!(read_response(&mut conn), Some(Response::ApplyBatch { epoch: 1 }));
    let Some(Response::Query(second)) = read_response(&mut conn) else {
        panic!("third reply must answer the second query")
    };
    let at_epoch_1 = service.query(key.source, key.target, key.k).unwrap();
    assert_eq!(second.epoch, 1, "the query behind the publish sees its epoch");
    assert_answers_match(&second.paths, &at_epoch_1.paths, second.epoch, at_epoch_1.epoch);
    assert!(matches!(read_response(&mut conn), Some(Response::ObsSnapshot(_))));
    assert_eq!(read_response(&mut conn), Some(Response::Pong { epoch: 1, num_shards: 2 }));
}

#[test]
fn dropping_the_server_and_service_with_queued_misses_neither_hangs_nor_panics() {
    // One shard, so the cold misses queue behind each other; their replies
    // run on that shard's worker after the server is gone.
    let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(400))
        .generate(37)
        .unwrap()
        .graph;
    let service = Arc::new(
        QueryService::start(graph.clone(), ServiceConfig::new(1, DtlpConfig::new(16, 2))).unwrap(),
    );
    let server = EventLoopServer::bind(service.clone(), "127.0.0.1:0").unwrap();
    let last = graph.num_vertices() as u32 - 1;
    let conns: Vec<TcpStream> = (0..8u32)
        .map(|i| {
            let mut frame = Vec::new();
            let request = Request::Query(QueryKey::new(VertexId(i), VertexId(last - i), 4));
            write_frame(&mut frame, FrameKind::Request, &request.to_bytes()).unwrap();
            let mut conn = raw_conn(server.local_addr());
            conn.write_all(&frame).unwrap();
            conn
        })
        .collect();
    // A decoded query is handed to its shard in the same poller pass.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().frames_in < 8 {
        assert!(std::time::Instant::now() < deadline, "the loop never decoded the queries");
        std::thread::sleep(Duration::from_millis(1));
    }

    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        drop(server);
        drop(service); // the last handle: joins the shard worker
        done.send(()).unwrap();
    });
    finished
        .recv_timeout(Duration::from_secs(10))
        .expect("teardown must finish, without a panic, within seconds");
    drop(conns);
}

#[test]
fn obs_snapshots_over_the_loop_carry_eventloop_metrics() {
    let (server, _service, _graph) = default_server(120, 2, 67);
    let (mut client, _) = KspClient::connect(server.local_addr()).unwrap();
    let snapshot = client.obs_snapshot().unwrap();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("snapshot must carry {name}"))
            .value
    };
    assert!(counter("ksp_eventloop_accepted_total") >= 1);
    assert!(counter("ksp_eventloop_frames_in_total") >= 1);
    let threads = snapshot
        .gauges
        .iter()
        .find(|g| g.name == "ksp_eventloop_threads")
        .expect("snapshot must carry the thread gauge");
    assert_eq!(threads.value as usize, server.thread_count());
}

/// One property-test scenario: a burst mix derived from the seed.
fn burst_scenario(seed: u64, idle_conns: usize, flood_threads: usize) {
    let graph = RoadNetworkGenerator::new(RoadNetworkConfig::with_vertices(120))
        .generate(seed)
        .unwrap()
        .graph;
    let mut config = ServiceConfig::new(2, DtlpConfig::new(16, 2));
    // A real but tight budget plus a tiny queue cap: floods must trip one
    // of the two rejection paths without making steady-state unservable.
    config.observability.slo_p99 = Duration::from_millis(250);
    config.admission.max_queue_depth = 4;
    let service = Arc::new(QueryService::start(graph.clone(), config).unwrap());
    let server = EventLoopServer::bind(service.clone(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Idle-connection storm: sockets that connect and say nothing.
    let idle: Vec<TcpStream> = (0..idle_conns).map(|_| TcpStream::connect(addr).unwrap()).collect();

    // Hot-shard flood targets: keys that all route to shard 0.
    let n = graph.num_vertices() as u32;
    let mut hot = Vec::new();
    's: for a in 0..n {
        for b in 0..n {
            if a != b && route_shard(VertexId(a), VertexId(b), 2, 2) == 0 {
                hot.push((VertexId(a), VertexId(b)));
                if hot.len() == 6 {
                    break 's;
                }
            }
        }
    }
    // In-proc reference at epoch 0, computed before the flood so the
    // estimator warm-up cannot reject it.
    let reference: Vec<_> = hot.iter().map(|&(s, t)| service.query(s, t, 2).unwrap()).collect();

    let flood = |hot: &[(VertexId, VertexId)], reference: &[ksp_dg::serve::QueryResponse]| {
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..flood_threads {
                handles.push(scope.spawn(move || {
                    let (mut client, _) = KspClient::connect(addr).unwrap();
                    let mut accepted = 0u64;
                    let mut rejected = 0u64;
                    for round in 0..4 {
                        for (i, &(s, t)) in hot.iter().enumerate() {
                            match client.query(s, t, 2) {
                                Ok(answer) => {
                                    let want = &reference[i];
                                    assert_answers_match(
                                        &answer.paths,
                                        &want.paths,
                                        answer.epoch,
                                        want.epoch,
                                    );
                                    accepted += 1;
                                }
                                Err(e) => {
                                    // The one and only acceptable failure:
                                    // typed Overloaded. An I/O or framing
                                    // error would mean a dropped connection.
                                    assert!(
                                        e.is_overloaded(),
                                        "round {round}: non-overload failure {e}"
                                    );
                                    rejected += 1;
                                }
                            }
                        }
                    }
                    // The connection survived the whole burst.
                    assert!(client.ping().is_ok(), "connection must survive rejections");
                    (accepted, rejected)
                }));
            }
            let mut total_accepted = 0;
            let mut total_rejected = 0;
            for h in handles {
                let (a, r) = h.join().unwrap();
                total_accepted += a;
                total_rejected += r;
            }
            (total_accepted, total_rejected)
        })
    };

    let (accepted, rejected) = flood(&hot, &reference);
    assert_eq!(
        accepted + rejected,
        (flood_threads * 4 * hot.len()) as u64,
        "every request must be answered, one way or the other"
    );

    // Publish an epoch through the same loop, then flood again against the
    // new reference: accepted answers must be byte-identical at the new
    // epoch.
    let (mut publisher, _) = KspClient::connect(addr).unwrap();
    let mut traffic = TrafficModel::new(&graph, TrafficConfig::new(0.5, 0.4), seed ^ 0x5EED);
    assert_eq!(publisher.apply_batch(&traffic.next_snapshot()).unwrap(), 1);
    let reference: Vec<_> = hot
        .iter()
        .map(|&(s, t)| {
            // Post-publish references retry through transient overload: the
            // flood may have left the estimator hot.
            loop {
                match service.query(s, t, 2) {
                    Ok(r) => break r,
                    Err(e) => {
                        assert!(matches!(e, ksp_dg::serve::ServiceError::Overloaded { .. }));
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
            }
        })
        .collect();
    assert!(reference.iter().all(|r| r.epoch == 1));
    let (accepted, rejected) = flood(&hot, &reference);
    assert_eq!(accepted + rejected, (flood_threads * 4 * hot.len()) as u64);

    drop(idle);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Satellite property: under any interleaving of idle-connection storms,
    /// hot-shard floods and epoch publishes, the event loop answers every
    /// accepted request byte-identically to in-proc and rejects with typed
    /// `Overloaded` only — no dropped connections, no torn responses.
    #[test]
    fn admission_under_burst_never_drops_a_connection(
        seed in 0u64..1_000,
        idle_conns in 20usize..120,
        flood_threads in 3usize..7,
    ) {
        burst_scenario(seed, idle_conns, flood_threads);
    }
}
