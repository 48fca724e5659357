//! [`KspClient`]: the typed handle applications hold on a serving endpoint.
//!
//! A client wraps any [`Transport`] — the TCP transport for a remote shard,
//! `ksp-serve`'s `InProcTransport` for the same-process path — behind the
//! operations the protocol offers: single queries, pipelined multi-query
//! batches, epoch publication, metrics and checkpointing. Server-side
//! failures arrive as typed [`ErrorReply`] values inside
//! [`ClientError::Server`]; a client never needs to parse error strings to
//! tell backpressure from a bad request.

use crate::message::{
    ErrorReply, QueryAnswer, QueryKey, QueryOutcome, Request, Response, TraceContext, WireMetrics,
    WireSegmentBatch, WireSnapshotChunk,
};
use crate::transport::{TcpTransport, Transport, TransportError, TransportStats};
use ksp_graph::{UpdateBatch, VertexId};
use std::net::ToSocketAddrs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Process-wide client id allocator: every `KspClient` gets a distinct id so
/// trace ids minted by different clients (threads) never collide.
static NEXT_CLIENT_ID: AtomicU64 = AtomicU64::new(1);

/// A client-perceived latency decomposition, all values cumulative
/// microseconds since the client was created.
///
/// `total` is wall-clock time spent inside client calls; `serialize` and
/// `decode` come from [`TransportStats`]; `server` is the sum of the
/// server-reported per-query latencies echoed in [`QueryAnswer`]s. What
/// remains — `network` — is the unattributed residual: wire transit, kernel
/// buffers and server-side queueing outside the measured request span. For
/// in-process transports serialize/decode/network are all zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Wall-clock microseconds spent inside client calls.
    pub total_micros: u64,
    /// Microseconds encoding request payloads.
    pub serialize_micros: u64,
    /// Residual microseconds not attributed to any other bucket
    /// (`total − serialize − server − decode`, saturating at zero).
    pub network_micros: u64,
    /// Sum of server-reported query latencies, microseconds.
    pub server_micros: u64,
    /// Microseconds decoding response payloads.
    pub decode_micros: u64,
}

/// What the server reported during the `Ping` handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandshakeInfo {
    /// The protocol version the server speaks (equals
    /// [`PROTOCOL_VERSION`] — a mismatch fails the handshake instead).
    pub protocol_version: u32,
    /// The epoch the server was publishing at handshake time.
    pub epoch: u64,
    /// Number of shard workers behind the endpoint.
    pub num_shards: u64,
    /// The protocol version negotiated from this client's announced range;
    /// `0` when the server predates negotiation (treat as v1).
    pub negotiated_version: u32,
}

/// Client-side connection knobs. An [`ErrorReply::Overloaded`] rejection is
/// never retried behind the caller's back: it surfaces as
/// [`ClientError::Server`], carrying the server's `retry_after_ms` hint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientConfig {
    /// Deadline applied to the TCP connect and to every individual socket
    /// read and write ([`KspClient::connect_with_config`]). An expired
    /// deadline surfaces as [`ClientError::TimedOut`]. `None` (the default)
    /// blocks forever — the pre-deadline behaviour.
    pub io_timeout: Option<Duration>,
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport could not complete the round trip.
    Transport(TransportError),
    /// An I/O deadline ([`ClientConfig::io_timeout`]) expired before the
    /// server answered. The connection's stream state is unknown (a late
    /// response may still be in flight); reconnect before reusing it.
    TimedOut,
    /// The server answered with a typed error.
    Server(ErrorReply),
    /// The server answered with a response of the wrong kind (protocol
    /// violation).
    UnexpectedResponse {
        /// The response kind that was expected.
        expected: &'static str,
    },
}

impl ClientError {
    /// Whether this is the admission-control backpressure signal — the one
    /// error a load generator treats as "slow down", not "fail".
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ClientError::Server(e) if e.is_overloaded())
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport failed: {e}"),
            ClientError::TimedOut => write!(f, "I/O deadline expired waiting for the server"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::UnexpectedResponse { expected } => {
                write!(f, "server sent the wrong response kind (expected {expected})")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Transport(e) => Some(e),
            ClientError::Server(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::TimedOut => ClientError::TimedOut,
            other => ClientError::Transport(other),
        }
    }
}

/// A blocking client for the KSP serving protocol, generic over its
/// [`Transport`].
///
/// Every request is stamped with a [`TraceContext`] — a process-unique trace
/// id plus the client-clock origin — wrapped in a `Request::Traced` envelope.
/// The server echoes the context on its response and records the trace id in
/// any flight-recorder dump the request triggers, so a client can resolve its
/// own trace ids to server-side span chains. Call
/// [`KspClient::set_tracing`]`(false)` to send bare requests instead.
pub struct KspClient<T: Transport> {
    transport: T,
    /// Origin of this client's trace clock; `origin_micros` stamps are
    /// elapsed time since here.
    origin: Instant,
    client_id: u64,
    requests_sent: u64,
    tracing: bool,
    last_trace_id: u64,
    total_micros: u64,
    server_micros: u64,
}

impl KspClient<TcpTransport> {
    /// Connects over TCP and performs the `Ping` version handshake.
    ///
    /// A version disagreement always fails typed, through one of two shapes:
    /// when the server rejects the *announced* version it answers
    /// [`ErrorReply::UnsupportedVersion`] (surfaced as
    /// [`ClientError::Server`]); when the peers' *frame-level* versions
    /// differ, each side detects the foreign header locally as a
    /// [`FrameError::VersionMismatch`](crate::FrameError::VersionMismatch)
    /// before touching the payload — the frozen header layout is what makes
    /// that possible without decoding bytes of an unknown format.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<(Self, HandshakeInfo), ClientError> {
        Self::connect_with_config(addr, ClientConfig::default())
    }

    /// [`KspClient::connect`] with explicit policy knobs. In particular,
    /// [`ClientConfig::io_timeout`] bounds the TCP connect and every socket
    /// read/write (including the handshake): a dead or wedged peer surfaces
    /// as [`ClientError::TimedOut`] instead of blocking forever.
    pub fn connect_with_config(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<(Self, HandshakeInfo), ClientError> {
        let transport = TcpTransport::connect_timeout(addr, config.io_timeout)
            .map_err(|e| ClientError::from(TransportError::from(e)))?;
        Self::handshake(transport)
    }
}

impl<T: Transport> KspClient<T> {
    /// Wraps a transport without a handshake. Useful for in-process
    /// transports, where both ends are the same build by construction.
    pub fn new(transport: T) -> Self {
        KspClient {
            transport,
            origin: Instant::now(),
            client_id: NEXT_CLIENT_ID.fetch_add(1, Ordering::Relaxed),
            requests_sent: 0,
            tracing: true,
            last_trace_id: 0,
            total_micros: 0,
            server_micros: 0,
        }
    }

    /// Wraps a transport and performs the `Ping` version handshake.
    pub fn handshake(transport: T) -> Result<(Self, HandshakeInfo), ClientError> {
        let mut client = KspClient::new(transport);
        let info = client.ping()?;
        Ok((client, info))
    }

    /// Enables or disables trace-context stamping (on by default).
    pub fn set_tracing(&mut self, tracing: bool) {
        self.tracing = tracing;
    }

    /// The trace id stamped on the most recent traced request, or zero if no
    /// traced request has been sent. Matches the `trace_id` a server-side
    /// flight dump records when that request trips an anomaly trigger.
    pub fn last_trace_id(&self) -> u64 {
        self.last_trace_id
    }

    /// Decomposes cumulative client-perceived latency into
    /// serialize / network / server / decode buckets.
    pub fn latency_breakdown(&self) -> LatencyBreakdown {
        let stats = self.transport.stats();
        let attributed = stats.serialize_micros + self.server_micros + stats.decode_micros;
        LatencyBreakdown {
            total_micros: self.total_micros,
            serialize_micros: stats.serialize_micros,
            network_micros: self.total_micros.saturating_sub(attributed),
            server_micros: self.server_micros,
            decode_micros: stats.decode_micros,
        }
    }

    /// Mints the next trace context: the id is `client_id << 32 | sequence`,
    /// unique across every client in this process.
    fn next_trace(&mut self) -> TraceContext {
        self.requests_sent += 1;
        TraceContext {
            trace_id: (self.client_id << 32) | (self.requests_sent & 0xFFFF_FFFF),
            origin_micros: self.origin.elapsed().as_micros().min(u64::MAX as u128) as u64,
        }
    }

    /// Sends a `Ping` announcing the full `[PROTOCOL_VERSION,
    /// PROTOCOL_VERSION_MAX]` range this build can speak, returning the
    /// server's version, negotiated version and current epoch. A server that
    /// predates negotiation reports `negotiated_version` 0 — callers treat
    /// that as v1.
    pub fn ping(&mut self) -> Result<HandshakeInfo, ClientError> {
        match self.call(Request::ping())? {
            Response::Pong { protocol_version, epoch, num_shards, negotiated_version } => {
                Ok(HandshakeInfo { protocol_version, epoch, num_shards, negotiated_version })
            }
            _ => Err(ClientError::UnexpectedResponse { expected: "Pong" }),
        }
    }

    /// Requests WAL records from `from_epoch` (replication surface;
    /// negotiate protocol version `>= 2` first). `max_records`/`max_bytes`
    /// of `0` accept the server's caps.
    pub fn ship_segment(
        &mut self,
        from_epoch: u64,
        max_records: u64,
        max_bytes: u64,
    ) -> Result<WireSegmentBatch, ClientError> {
        match self.call(Request::ShipSegment { from_epoch, max_records, max_bytes })? {
            Response::SegmentBatch(batch) => Ok(batch),
            _ => Err(ClientError::UnexpectedResponse { expected: "SegmentBatch" }),
        }
    }

    /// Fetches one chunk of a snapshot file named by a fallback manifest.
    pub fn snapshot_chunk(
        &mut self,
        name: &str,
        offset: u64,
        max_len: u64,
    ) -> Result<WireSnapshotChunk, ClientError> {
        match self.call(Request::SnapshotChunk { name: name.to_string(), offset, max_len })? {
            Response::SnapshotChunk(chunk) => Ok(chunk),
            _ => Err(ClientError::UnexpectedResponse { expected: "SnapshotChunk" }),
        }
    }

    /// Acknowledges the newest epoch this follower has applied, returning
    /// the leader's current epoch (the lag reference).
    pub fn repl_ack(&mut self, follower: &str, applied_epoch: u64) -> Result<u64, ClientError> {
        match self.call(Request::ReplAck { follower: follower.to_string(), applied_epoch })? {
            Response::ReplAck { leader_epoch } => Ok(leader_epoch),
            _ => Err(ClientError::UnexpectedResponse { expected: "ReplAck" }),
        }
    }

    /// Answers one KSP query.
    pub fn query(
        &mut self,
        source: VertexId,
        target: VertexId,
        k: usize,
    ) -> Result<QueryAnswer, ClientError> {
        match self.call(Request::Query(QueryKey::new(source, target, k)))? {
            Response::Query(answer) => Ok(answer),
            _ => Err(ClientError::UnexpectedResponse { expected: "Query" }),
        }
    }

    /// Answers a batch of queries with one request frame; each query
    /// succeeds or fails independently, in request order.
    pub fn query_batch(
        &mut self,
        keys: &[QueryKey],
    ) -> Result<Vec<Result<QueryAnswer, ErrorReply>>, ClientError> {
        match self.call(Request::QueryBatch(keys.to_vec()))? {
            Response::QueryBatch(outcomes) => {
                if outcomes.len() != keys.len() {
                    return Err(ClientError::UnexpectedResponse {
                        expected: "one outcome per batched query",
                    });
                }
                Ok(outcomes.into_iter().map(|o| o.into_result()).collect())
            }
            _ => Err(ClientError::UnexpectedResponse { expected: "QueryBatch" }),
        }
    }

    /// Issues many single-query requests *pipelined*: every request frame is
    /// written before the first response is read, so the batch costs one
    /// round trip of latency instead of one per query.
    pub fn query_pipelined(
        &mut self,
        keys: &[QueryKey],
    ) -> Result<Vec<Result<QueryAnswer, ErrorReply>>, ClientError> {
        let started = Instant::now();
        let requests = keys
            .iter()
            .map(|&key| {
                let request = Request::Query(key);
                if self.tracing {
                    let trace = self.next_trace();
                    self.last_trace_id = trace.trace_id;
                    Request::Traced { trace, inner: Box::new(request) }
                } else {
                    request
                }
            })
            .collect();
        let responses = self.transport.pipeline(requests)?;
        self.total_micros += started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        responses
            .into_iter()
            .map(|response| {
                let (_trace, response) = response.into_parts();
                self.absorb_server_micros(&response);
                match response {
                    Response::Query(answer) => Ok(Ok(answer)),
                    Response::Error(e) => Ok(Err(e)),
                    _ => Err(ClientError::UnexpectedResponse { expected: "Query" }),
                }
            })
            .collect()
    }

    /// Applies one weight-update batch, returning the epoch it published.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<u64, ClientError> {
        match self.call(Request::ApplyBatch(batch.clone()))? {
            Response::ApplyBatch { epoch } => Ok(epoch),
            _ => Err(ClientError::UnexpectedResponse { expected: "ApplyBatch" }),
        }
    }

    /// Fetches a point-in-time metrics snapshot.
    pub fn metrics(&mut self) -> Result<WireMetrics, ClientError> {
        match self.call(Request::Metrics)? {
            Response::Metrics(metrics) => Ok(metrics),
            _ => Err(ClientError::UnexpectedResponse { expected: "Metrics" }),
        }
    }

    /// Synchronously checkpoints the current epoch. `Ok(None)` means the
    /// service has no store attached.
    pub fn checkpoint_now(&mut self) -> Result<Option<u64>, ClientError> {
        match self.call(Request::CheckpointNow)? {
            Response::CheckpointNow { epoch } => Ok(epoch),
            _ => Err(ClientError::UnexpectedResponse { expected: "CheckpointNow" }),
        }
    }

    /// Fetches a full observability snapshot — per-stage latency histograms,
    /// the end-to-end histogram, counters/gauges and the latest
    /// flight-recorder dump — validated back into the `ksp-obs` types.
    pub fn obs_snapshot(&mut self) -> Result<ksp_obs::ObsSnapshot, ClientError> {
        match self.call(Request::ObsSnapshot)? {
            Response::ObsSnapshot(wire) => wire.into_snapshot().map_err(|_| {
                ClientError::UnexpectedResponse { expected: "a well-formed ObsSnapshot" }
            }),
            _ => Err(ClientError::UnexpectedResponse { expected: "ObsSnapshot" }),
        }
    }

    /// Scrapes the server's metrics in the Prometheus text exposition format:
    /// one `ObsSnapshot` round trip rendered client-side with
    /// [`ksp_obs::render_prometheus`] — byte-identical to what the server
    /// renders locally.
    pub fn scrape_text(&mut self) -> Result<String, ClientError> {
        Ok(ksp_obs::render_prometheus(&self.obs_snapshot()?))
    }

    /// Physical communication cost so far (zero for in-process transports).
    pub fn stats(&self) -> TransportStats {
        self.transport.stats()
    }

    fn call(&mut self, request: Request) -> Result<Response, ClientError> {
        let started = Instant::now();
        let (sent_trace, request) = if self.tracing {
            let trace = self.next_trace();
            self.last_trace_id = trace.trace_id;
            (Some(trace), Request::Traced { trace, inner: Box::new(request) })
        } else {
            (None, request)
        };
        let response = self.transport.roundtrip(request)?;
        self.total_micros += started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        // Unwrap the trace envelope *before* the error check: the server
        // echoes `Traced` around typed error replies too.
        let (echoed, response) = response.into_parts();
        if let (Some(sent), Some(echo)) = (sent_trace, echoed) {
            if echo.trace_id != sent.trace_id {
                return Err(ClientError::UnexpectedResponse {
                    expected: "the request's own trace id echoed back",
                });
            }
        }
        self.absorb_server_micros(&response);
        match response {
            Response::Error(e) => Err(ClientError::Server(e)),
            response => Ok(response),
        }
    }

    /// Accumulates the server-reported latency carried by query answers, the
    /// `server` bucket of [`LatencyBreakdown`].
    fn absorb_server_micros(&mut self, response: &Response) {
        match response {
            Response::Query(answer) => self.server_micros += answer.latency_micros,
            Response::QueryBatch(outcomes) => {
                for outcome in outcomes {
                    if let QueryOutcome::Answer(answer) = outcome {
                        self.server_micros += answer.latency_micros;
                    }
                }
            }
            _ => {}
        }
    }
}
