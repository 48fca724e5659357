//! The typed request/response surface of the serving protocol.
//!
//! Every message is encoded with the store's [`StoreCodec`] discipline —
//! little-endian integers, `u64` length prefixes validated against the bytes
//! actually available, floats as raw IEEE-754 bits — so answers survive the
//! wire bit-identically to the in-process path, and a hostile payload fails
//! with a typed [`CodecError`] before it can allocate unbounded memory.
//!
//! Enum variants carry a leading `u8` tag, and every message has exactly one
//! encoding: each decoder reads every field unconditionally, so no strict
//! prefix of a message decodes. Any tag or payload change bumps
//! [`PROTOCOL_VERSION`]; the frame header carries it, and that is the one
//! place a version is checked.

use ksp_algo::Path;
use ksp_core::kspdg::QueryStats;
use ksp_graph::{UpdateBatch, VertexId, Weight};
use ksp_obs::ObsSnapshot;
use ksp_store::{CodecError, Reader, StoreCodec, Writer};

/// The protocol version this build speaks, carried in every frame header. A
/// frame stamped with any other version is rejected before its payload is
/// read.
pub const PROTOCOL_VERSION: u32 = 5;

/// A client-originated trace context, carried in a [`Request::Traced`] /
/// [`Response::Traced`] envelope.
///
/// `trace_id` names one client-side operation; the server echoes it verbatim
/// in the response envelope and pins it to any flight dump the request
/// triggers, so a client can resolve *its own* trace id to the server's span
/// chain. `origin_micros` is the client's clock at send time, measured from
/// an origin only the client knows — the server treats it as opaque and
/// echoes it, letting the client difference its clock around the round trip
/// without any cross-host clock agreement.
///
/// Wire layout: 16 bytes, `trace_id` (u64 LE) then `origin_micros` (u64 LE),
/// between the envelope tag and the wrapped message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// Client-chosen id of the traced operation; `0` means untraced.
    pub trace_id: u64,
    /// The client's send-time stamp, microseconds from a client-local origin.
    pub origin_micros: u64,
}

impl StoreCodec for TraceContext {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.trace_id);
        w.put_u64(self.origin_micros);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(TraceContext { trace_id: r.get_u64()?, origin_micros: r.get_u64()? })
    }
}

/// The identity of one KSP query: find the `k` shortest paths from `source`
/// to `target`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryKey {
    /// Source vertex.
    pub source: VertexId,
    /// Target vertex.
    pub target: VertexId,
    /// Number of shortest paths requested (must be at least 1).
    pub k: usize,
}

impl QueryKey {
    /// Creates a query key.
    pub fn new(source: VertexId, target: VertexId, k: usize) -> Self {
        QueryKey { source, target, k }
    }
}

impl StoreCodec for QueryKey {
    fn encode(&self, w: &mut Writer) {
        self.source.encode(w);
        self.target.encode(w);
        w.put_u64(self.k as u64);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let source = VertexId::decode(r)?;
        let target = VertexId::decode(r)?;
        let k = r.get_u64()?;
        let k = usize::try_from(k).map_err(|_| CodecError::InvalidValue("k does not fit usize"))?;
        Ok(QueryKey { source, target, k })
    }
}

/// A request frame's payload: everything an operator or client can ask of a
/// serving shard.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake and liveness probe, answered with [`Response::Pong`]. It
    /// carries no version: the frame header already did.
    Ping,
    /// One KSP query.
    Query(QueryKey),
    /// Apply one weight-update batch and publish the next epoch.
    ApplyBatch(UpdateBatch),
    /// Synchronously checkpoint the current epoch (persistent services only).
    CheckpointNow,
    /// A full observability snapshot: per-stage latency histograms, every
    /// counter and gauge, and the latest flight-recorder dump.
    ObsSnapshot,
    /// Any request wrapped in a client [`TraceContext`]. The server answers
    /// with the same envelope around its response; envelopes never nest — a
    /// nested `Traced` tag fails the decode typed.
    Traced {
        /// The client's trace context, echoed back verbatim.
        trace: TraceContext,
        /// The wrapped request.
        inner: Box<Request>,
    },
    /// Ship WAL records starting at `from_epoch`. The server answers
    /// [`Response::SegmentBatch`]: either a run of contiguous records, or a
    /// snapshot-fallback manifest when `from_epoch` predates the retained
    /// log window.
    ShipSegment {
        /// First epoch the follower still needs (inclusive).
        from_epoch: u64,
        /// Upper bound on records in the reply; `0` means the server's cap.
        max_records: u64,
        /// Upper bound on summed record payload bytes in the reply; `0`
        /// means the server's cap. Keeps the reply under the frame limit.
        max_bytes: u64,
    },
    /// Fetch one chunk of a snapshot file named by a fallback manifest.
    SnapshotChunk {
        /// File name exactly as listed in the manifest (no path components).
        name: String,
        /// Byte offset to read from.
        offset: u64,
        /// Maximum bytes to return; the server may answer with fewer.
        max_len: u64,
    },
    /// Acknowledge that a follower has durably applied (published) every
    /// epoch up to and including `applied_epoch`. Feeds the leader's
    /// per-follower lag gauges.
    ReplAck {
        /// Stable identity of the follower (chosen by the follower).
        follower: String,
        /// Newest epoch the follower has applied.
        applied_epoch: u64,
    },
}

impl Request {
    /// Splits a possibly-traced request into its trace context (if any) and
    /// the inner request.
    pub fn into_parts(self) -> (Option<TraceContext>, Request) {
        match self {
            Request::Traced { trace, inner } => (Some(trace), *inner),
            other => (None, other),
        }
    }
}

const REQ_PING: u8 = 0;
const REQ_QUERY: u8 = 1;
const REQ_APPLY_BATCH: u8 = 3;
const REQ_CHECKPOINT_NOW: u8 = 5;
const REQ_OBS_SNAPSHOT: u8 = 6;
const REQ_TRACED: u8 = 7;
const REQ_SHIP_SEGMENT: u8 = 8;
const REQ_SNAPSHOT_CHUNK: u8 = 9;
const REQ_REPL_ACK: u8 = 10;

impl Request {
    /// Decodes the body of one non-envelope request tag. `REQ_TRACED` falls
    /// to the unknown-tag arm by design: the caller handles envelopes, so a
    /// nested one fails typed here instead of recursing on hostile input.
    fn decode_body(tag: u8, r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match tag {
            REQ_PING => Ok(Request::Ping),
            REQ_QUERY => Ok(Request::Query(QueryKey::decode(r)?)),
            REQ_APPLY_BATCH => Ok(Request::ApplyBatch(UpdateBatch::decode(r)?)),
            REQ_CHECKPOINT_NOW => Ok(Request::CheckpointNow),
            REQ_OBS_SNAPSHOT => Ok(Request::ObsSnapshot),
            REQ_SHIP_SEGMENT => Ok(Request::ShipSegment {
                from_epoch: r.get_u64()?,
                max_records: r.get_u64()?,
                max_bytes: r.get_u64()?,
            }),
            REQ_SNAPSHOT_CHUNK => Ok(Request::SnapshotChunk {
                name: String::decode(r)?,
                offset: r.get_u64()?,
                max_len: r.get_u64()?,
            }),
            REQ_REPL_ACK => {
                Ok(Request::ReplAck { follower: String::decode(r)?, applied_epoch: r.get_u64()? })
            }
            tag => Err(CodecError::InvalidTag { what: "Request", tag }),
        }
    }
}

impl StoreCodec for Request {
    fn encode(&self, w: &mut Writer) {
        match self {
            Request::Ping => w.put_u8(REQ_PING),
            Request::Query(key) => {
                w.put_u8(REQ_QUERY);
                key.encode(w);
            }
            Request::ApplyBatch(batch) => {
                w.put_u8(REQ_APPLY_BATCH);
                batch.encode(w);
            }
            Request::CheckpointNow => w.put_u8(REQ_CHECKPOINT_NOW),
            Request::ObsSnapshot => w.put_u8(REQ_OBS_SNAPSHOT),
            Request::Traced { trace, inner } => {
                w.put_u8(REQ_TRACED);
                trace.encode(w);
                inner.encode(w);
            }
            Request::ShipSegment { from_epoch, max_records, max_bytes } => {
                w.put_u8(REQ_SHIP_SEGMENT);
                w.put_u64(*from_epoch);
                w.put_u64(*max_records);
                w.put_u64(*max_bytes);
            }
            Request::SnapshotChunk { name, offset, max_len } => {
                w.put_u8(REQ_SNAPSHOT_CHUNK);
                name.encode(w);
                w.put_u64(*offset);
                w.put_u64(*max_len);
            }
            Request::ReplAck { follower, applied_epoch } => {
                w.put_u8(REQ_REPL_ACK);
                follower.encode(w);
                w.put_u64(*applied_epoch);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            REQ_TRACED => {
                let trace = TraceContext::decode(r)?;
                let inner = Request::decode_body(r.get_u8()?, r)?;
                Ok(Request::Traced { trace, inner: Box::new(inner) })
            }
            tag => Request::decode_body(tag, r),
        }
    }
}

/// A path as it travels on the wire: the vertex sequence plus the distance as
/// raw IEEE-754 bits. Conversion back into a [`Path`] validates simplicity, so
/// a hostile peer cannot smuggle a looping path into the engine's invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct WirePath {
    /// The vertex sequence.
    pub vertices: Vec<VertexId>,
    /// The distance, exact for the epoch the answer was computed at.
    pub distance: Weight,
}

impl WirePath {
    /// Converts a computed path to its wire form.
    pub fn from_path(path: &Path) -> Self {
        WirePath { vertices: path.vertices().to_vec(), distance: path.distance() }
    }

    /// Validates and converts the wire form back into a [`Path`].
    pub fn into_path(self) -> Result<Path, CodecError> {
        if self.vertices.is_empty() {
            return Err(CodecError::InvalidValue("a path must contain at least one vertex"));
        }
        if !Path::is_simple(&self.vertices) {
            return Err(CodecError::InvalidValue("paths on the wire must be simple"));
        }
        Ok(Path::new(self.vertices, self.distance))
    }
}

impl StoreCodec for WirePath {
    fn encode(&self, w: &mut Writer) {
        self.vertices.encode(w);
        self.distance.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WirePath { vertices: Vec::decode(r)?, distance: Weight::decode(r)? })
    }
}

/// Engine statistics of one answered query, flattened for the wire
/// (mirrors [`QueryStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireQueryStats {
    /// Filter/refine iterations executed.
    pub iterations: u64,
    /// Partial-KSP computations performed (cache misses).
    pub partial_computations: u64,
    /// Partial-KSP computations answered from the per-query cache.
    pub partial_cache_hits: u64,
    /// (subgraph, pair) combinations examined.
    pub subgraphs_examined: u64,
    /// Candidate complete paths generated.
    pub candidates_generated: u64,
    /// Communication cost in vertex units (Section 5.6.1 of the paper).
    pub vertices_transferred: u64,
}

impl From<&QueryStats> for WireQueryStats {
    fn from(s: &QueryStats) -> Self {
        WireQueryStats {
            iterations: s.iterations as u64,
            partial_computations: s.partial_computations as u64,
            partial_cache_hits: s.partial_cache_hits as u64,
            subgraphs_examined: s.subgraphs_examined as u64,
            candidates_generated: s.candidates_generated as u64,
            vertices_transferred: s.vertices_transferred as u64,
        }
    }
}

impl StoreCodec for WireQueryStats {
    fn encode(&self, w: &mut Writer) {
        for v in [
            self.iterations,
            self.partial_computations,
            self.partial_cache_hits,
            self.subgraphs_examined,
            self.candidates_generated,
            self.vertices_transferred,
        ] {
            w.put_u64(v);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WireQueryStats {
            iterations: r.get_u64()?,
            partial_computations: r.get_u64()?,
            partial_cache_hits: r.get_u64()?,
            subgraphs_examined: r.get_u64()?,
            candidates_generated: r.get_u64()?,
            vertices_transferred: r.get_u64()?,
        })
    }
}

/// The answer to one query, as carried on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// The k shortest paths, ascending by distance. Distances are bit-exact:
    /// they decode to the same `f64` the serving shard computed.
    pub paths: Vec<Path>,
    /// The epoch the answer is exact for.
    pub epoch: u64,
    /// Whether the answer came from the shard's result cache.
    pub cache_hit: bool,
    /// Server-side end-to-end latency (submission to completion) in
    /// microseconds.
    pub latency_micros: u64,
    /// Engine statistics (zeroed for cache hits).
    pub stats: WireQueryStats,
}

impl StoreCodec for QueryAnswer {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.paths.len() as u64);
        for path in &self.paths {
            WirePath::from_path(path).encode(w);
        }
        w.put_u64(self.epoch);
        self.cache_hit.encode(w);
        w.put_u64(self.latency_micros);
        self.stats.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let count = r.get_count(1)?;
        let mut paths = Vec::with_capacity(count);
        for _ in 0..count {
            paths.push(WirePath::decode(r)?.into_path()?);
        }
        Ok(QueryAnswer {
            paths,
            epoch: r.get_u64()?,
            cache_hit: bool::decode(r)?,
            latency_micros: r.get_u64()?,
            stats: WireQueryStats::decode(r)?,
        })
    }
}

/// Why the server could not satisfy a request — the wire form of the serving
/// layer's error types plus the protocol-level failures only a remote peer
/// can observe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorReply {
    /// Admission control rejected the request — either the target shard's
    /// queue is at its configured depth, or the adaptive controller predicted
    /// the queueing delay would breach the SLO budget. Retry later.
    Overloaded {
        /// The queue depth observed at rejection time.
        depth: u64,
        /// Suggested client backoff in milliseconds before retrying; `0`
        /// means the server offered no hint.
        retry_after_ms: u64,
    },
    /// The service is shutting down.
    ShuttingDown,
    /// A query endpoint does not exist in the current graph.
    InvalidQuery(String),
    /// `k` must be at least 1.
    InvalidK,
    /// The update batch was rejected by the data layer; nothing was published.
    InvalidBatch(String),
    /// The storage layer could not make the request durable.
    Storage(String),
    /// The request is not supported by this server (e.g. `CheckpointNow` on a
    /// service without a store would be a no-op, or a future request kind).
    Unsupported(String),
    /// The peer speaks a different protocol version; the connection closes
    /// after this reply.
    UnsupportedVersion {
        /// The version the server speaks.
        server: u32,
        /// The version the peer's frame header carried.
        client: u32,
    },
    /// The peer sent bytes that do not parse as a frame or message; the
    /// connection closes after this reply (stream synchronisation is lost).
    Malformed(String),
    /// The service is in read-only degraded mode: the delta log refused an
    /// append, so writes are rejected while queries keep serving the last
    /// published epoch. A background probe repairs the log; retry later.
    Degraded(String),
}

impl ErrorReply {
    /// Whether this error is the admission-control backpressure signal.
    pub fn is_overloaded(&self) -> bool {
        matches!(self, ErrorReply::Overloaded { .. })
    }

    /// The server's suggested backoff before retrying, if this is an
    /// [`ErrorReply::Overloaded`] rejection that carried a non-zero hint.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ErrorReply::Overloaded { retry_after_ms, .. } if *retry_after_ms > 0 => {
                Some(*retry_after_ms)
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErrorReply::Overloaded { depth, retry_after_ms: 0 } => {
                write!(f, "shard queue full (depth {depth}); request rejected")
            }
            ErrorReply::Overloaded { depth, retry_after_ms } => {
                write!(
                    f,
                    "admission rejected (queue depth {depth}); retry after {retry_after_ms} ms"
                )
            }
            ErrorReply::ShuttingDown => write!(f, "service is shutting down"),
            ErrorReply::InvalidQuery(detail) => write!(f, "invalid query: {detail}"),
            ErrorReply::InvalidK => write!(f, "k must be at least 1"),
            ErrorReply::InvalidBatch(detail) => write!(f, "invalid update batch: {detail}"),
            ErrorReply::Storage(detail) => write!(f, "storage error: {detail}"),
            ErrorReply::Unsupported(detail) => write!(f, "unsupported request: {detail}"),
            ErrorReply::UnsupportedVersion { server, client } => {
                write!(f, "protocol version mismatch: server speaks v{server}, client v{client}")
            }
            ErrorReply::Malformed(detail) => write!(f, "malformed frame: {detail}"),
            ErrorReply::Degraded(detail) => {
                write!(f, "service degraded (read-only): {detail}")
            }
        }
    }
}

impl std::error::Error for ErrorReply {}

const ERR_OVERLOADED: u8 = 0;
const ERR_SHUTTING_DOWN: u8 = 1;
const ERR_INVALID_QUERY: u8 = 2;
const ERR_INVALID_K: u8 = 3;
const ERR_INVALID_BATCH: u8 = 4;
const ERR_STORAGE: u8 = 5;
const ERR_UNSUPPORTED: u8 = 6;
const ERR_UNSUPPORTED_VERSION: u8 = 7;
const ERR_MALFORMED: u8 = 8;
const ERR_DEGRADED: u8 = 9;

impl StoreCodec for ErrorReply {
    fn encode(&self, w: &mut Writer) {
        match self {
            ErrorReply::Overloaded { depth, retry_after_ms } => {
                w.put_u8(ERR_OVERLOADED);
                w.put_u64(*depth);
                w.put_u64(*retry_after_ms);
            }
            ErrorReply::ShuttingDown => w.put_u8(ERR_SHUTTING_DOWN),
            ErrorReply::InvalidQuery(detail) => {
                w.put_u8(ERR_INVALID_QUERY);
                detail.encode(w);
            }
            ErrorReply::InvalidK => w.put_u8(ERR_INVALID_K),
            ErrorReply::InvalidBatch(detail) => {
                w.put_u8(ERR_INVALID_BATCH);
                detail.encode(w);
            }
            ErrorReply::Storage(detail) => {
                w.put_u8(ERR_STORAGE);
                detail.encode(w);
            }
            ErrorReply::Unsupported(detail) => {
                w.put_u8(ERR_UNSUPPORTED);
                detail.encode(w);
            }
            ErrorReply::UnsupportedVersion { server, client } => {
                w.put_u8(ERR_UNSUPPORTED_VERSION);
                w.put_u32(*server);
                w.put_u32(*client);
            }
            ErrorReply::Malformed(detail) => {
                w.put_u8(ERR_MALFORMED);
                detail.encode(w);
            }
            ErrorReply::Degraded(detail) => {
                w.put_u8(ERR_DEGRADED);
                detail.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            ERR_OVERLOADED => {
                Ok(ErrorReply::Overloaded { depth: r.get_u64()?, retry_after_ms: r.get_u64()? })
            }
            ERR_SHUTTING_DOWN => Ok(ErrorReply::ShuttingDown),
            ERR_INVALID_QUERY => Ok(ErrorReply::InvalidQuery(String::decode(r)?)),
            ERR_INVALID_K => Ok(ErrorReply::InvalidK),
            ERR_INVALID_BATCH => Ok(ErrorReply::InvalidBatch(String::decode(r)?)),
            ERR_STORAGE => Ok(ErrorReply::Storage(String::decode(r)?)),
            ERR_UNSUPPORTED => Ok(ErrorReply::Unsupported(String::decode(r)?)),
            ERR_UNSUPPORTED_VERSION => {
                Ok(ErrorReply::UnsupportedVersion { server: r.get_u32()?, client: r.get_u32()? })
            }
            ERR_MALFORMED => Ok(ErrorReply::Malformed(String::decode(r)?)),
            ERR_DEGRADED => Ok(ErrorReply::Degraded(String::decode(r)?)),
            tag => Err(CodecError::InvalidTag { what: "ErrorReply", tag }),
        }
    }
}

/// One WAL record as shipped to a follower: the epoch it published and the
/// update batch that produced it. CRC integrity is re-established by the
/// carrying frame; the leader only ships records its own CRC-checked log
/// reader accepted, so a torn or corrupt record can never reach a follower.
#[derive(Debug, Clone, PartialEq)]
pub struct WireShippedRecord {
    /// The epoch this record published on the leader.
    pub epoch: u64,
    /// The weight-update batch to replay through `apply_batch`.
    pub batch: UpdateBatch,
}

impl StoreCodec for WireShippedRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.epoch);
        self.batch.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WireShippedRecord { epoch: r.get_u64()?, batch: UpdateBatch::decode(r)? })
    }
}

/// One file of a snapshot-fallback manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSnapshotFile {
    /// Bare checkpoint file name (`checkpoint-*.ckpt`), no path components —
    /// the chunk server rejects anything else.
    pub name: String,
    /// Total file length in bytes, so the follower knows when a transfer is
    /// complete.
    pub len: u64,
}

impl StoreCodec for WireSnapshotFile {
    fn encode(&self, w: &mut Writer) {
        self.name.encode(w);
        w.put_u64(self.len);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WireSnapshotFile { name: String::decode(r)?, len: r.get_u64()? })
    }
}

/// The snapshot fallback a leader answers when the requested epoch predates
/// its retained log window: the newest checkpoint, fetched chunk by chunk via
/// [`Request::SnapshotChunk`]. After recovering from it the follower resumes
/// shipping from `snapshot_epoch + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSnapshotManifest {
    /// The epoch the manifest's checkpoint recovers to.
    pub snapshot_epoch: u64,
    /// The files to fetch: one entry, the checkpoint. A list, so the wire
    /// shape does not depend on the number of image files.
    pub files: Vec<WireSnapshotFile>,
}

impl StoreCodec for WireSnapshotManifest {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.snapshot_epoch);
        self.files.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WireSnapshotManifest { snapshot_epoch: r.get_u64()?, files: Vec::decode(r)? })
    }
}

/// The answer to a [`Request::ShipSegment`]: a contiguous run of WAL records
/// starting exactly at the requested epoch, or a snapshot-fallback manifest
/// when that epoch has been pruned. An empty batch with no fallback means
/// the follower is caught up to `leader_epoch`.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSegmentBatch {
    /// The epoch the leader was publishing when it answered — the follower's
    /// lag reference.
    pub leader_epoch: u64,
    /// Contiguous records from the requested epoch (possibly truncated by
    /// the request's `max_records`/`max_bytes` caps; ship again to continue).
    pub records: Vec<WireShippedRecord>,
    /// Present when the requested epoch predates the retained log window:
    /// bootstrap from this checkpoint instead.
    pub fallback: Option<WireSnapshotManifest>,
}

impl StoreCodec for WireSegmentBatch {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.leader_epoch);
        self.records.encode(w);
        self.fallback.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(WireSegmentBatch {
            leader_epoch: r.get_u64()?,
            records: Vec::decode(r)?,
            fallback: Option::decode(r)?,
        })
    }
}

/// One chunk of a snapshot file, answering a [`Request::SnapshotChunk`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSnapshotChunk {
    /// The file name, echoed from the request.
    pub name: String,
    /// The offset these bytes start at, echoed from the request.
    pub offset: u64,
    /// The file's total length (lets the follower detect truncation races).
    pub total_len: u64,
    /// The raw bytes; shorter than requested at end of file.
    pub bytes: Vec<u8>,
}

impl StoreCodec for WireSnapshotChunk {
    fn encode(&self, w: &mut Writer) {
        self.name.encode(w);
        w.put_u64(self.offset);
        w.put_u64(self.total_len);
        w.put_u64(self.bytes.len() as u64);
        w.put_bytes(&self.bytes);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let name = String::decode(r)?;
        let offset = r.get_u64()?;
        let total_len = r.get_u64()?;
        let len = r.get_count(1)?;
        let bytes = r.get_bytes(len)?.to_vec();
        Ok(WireSnapshotChunk { name, offset, total_len, bytes })
    }
}

/// A response frame's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful handshake.
    Pong {
        /// The epoch the server is currently publishing.
        epoch: u64,
        /// Number of shard workers behind this endpoint.
        num_shards: u64,
    },
    /// The answer to a [`Request::Query`].
    Query(QueryAnswer),
    /// The epoch a [`Request::ApplyBatch`] published.
    ApplyBatch {
        /// The epoch id the batch produced.
        epoch: u64,
    },
    /// Outcome of a [`Request::CheckpointNow`]: `Some(epoch)` after a
    /// successful checkpoint, `None` for an in-memory service.
    CheckpointNow {
        /// The checkpointed epoch, when the service persists one.
        epoch: Option<u64>,
    },
    /// The observability snapshot answering a [`Request::ObsSnapshot`].
    ObsSnapshot(Box<ObsSnapshot>),
    /// The request failed; see the carried [`ErrorReply`].
    Error(ErrorReply),
    /// Any response wrapped in the [`TraceContext`] echoed from a
    /// [`Request::Traced`]. The envelope wraps *whatever* the server answered — including
    /// [`Response::Error`] — so clients must unwrap it before matching.
    /// Envelopes never nest.
    Traced {
        /// The request's trace context, echoed verbatim.
        trace: TraceContext,
        /// The wrapped response.
        inner: Box<Response>,
    },
    /// The record run (or snapshot fallback) answering a
    /// [`Request::ShipSegment`].
    SegmentBatch(WireSegmentBatch),
    /// The file chunk answering a [`Request::SnapshotChunk`].
    SnapshotChunk(WireSnapshotChunk),
    /// Acknowledges a [`Request::ReplAck`].
    ReplAck {
        /// The epoch the leader was publishing when the ack landed — lets
        /// the follower compute its lag from the ack round trip alone.
        leader_epoch: u64,
    },
}

impl Response {
    /// Splits a possibly-traced response into its trace context (if any) and
    /// the inner response.
    pub fn into_parts(self) -> (Option<TraceContext>, Response) {
        match self {
            Response::Traced { trace, inner } => (Some(trace), *inner),
            other => (None, other),
        }
    }
}

const RESP_PONG: u8 = 0;
const RESP_QUERY: u8 = 1;
const RESP_APPLY_BATCH: u8 = 3;
const RESP_CHECKPOINT_NOW: u8 = 5;
const RESP_ERROR: u8 = 6;
const RESP_OBS_SNAPSHOT: u8 = 7;
const RESP_TRACED: u8 = 8;
const RESP_SEGMENT_BATCH: u8 = 9;
const RESP_SNAPSHOT_CHUNK: u8 = 10;
const RESP_REPL_ACK: u8 = 11;

impl Response {
    /// Decodes the body of one non-envelope response tag; like
    /// [`Request::decode_body`], a nested `RESP_TRACED` fails typed here
    /// instead of recursing.
    fn decode_body(tag: u8, r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match tag {
            RESP_PONG => Ok(Response::Pong { epoch: r.get_u64()?, num_shards: r.get_u64()? }),
            RESP_QUERY => Ok(Response::Query(QueryAnswer::decode(r)?)),
            RESP_APPLY_BATCH => Ok(Response::ApplyBatch { epoch: r.get_u64()? }),
            RESP_CHECKPOINT_NOW => Ok(Response::CheckpointNow { epoch: Option::decode(r)? }),
            RESP_OBS_SNAPSHOT => Ok(Response::ObsSnapshot(Box::new(ObsSnapshot::decode(r)?))),
            RESP_ERROR => Ok(Response::Error(ErrorReply::decode(r)?)),
            RESP_SEGMENT_BATCH => Ok(Response::SegmentBatch(WireSegmentBatch::decode(r)?)),
            RESP_SNAPSHOT_CHUNK => Ok(Response::SnapshotChunk(WireSnapshotChunk::decode(r)?)),
            RESP_REPL_ACK => Ok(Response::ReplAck { leader_epoch: r.get_u64()? }),
            tag => Err(CodecError::InvalidTag { what: "Response", tag }),
        }
    }
}

impl StoreCodec for Response {
    fn encode(&self, w: &mut Writer) {
        match self {
            Response::Pong { epoch, num_shards } => {
                w.put_u8(RESP_PONG);
                w.put_u64(*epoch);
                w.put_u64(*num_shards);
            }
            Response::Query(answer) => {
                w.put_u8(RESP_QUERY);
                answer.encode(w);
            }
            Response::ApplyBatch { epoch } => {
                w.put_u8(RESP_APPLY_BATCH);
                w.put_u64(*epoch);
            }
            Response::CheckpointNow { epoch } => {
                w.put_u8(RESP_CHECKPOINT_NOW);
                epoch.encode(w);
            }
            Response::ObsSnapshot(snapshot) => {
                w.put_u8(RESP_OBS_SNAPSHOT);
                snapshot.encode(w);
            }
            Response::Error(e) => {
                w.put_u8(RESP_ERROR);
                e.encode(w);
            }
            Response::Traced { trace, inner } => {
                w.put_u8(RESP_TRACED);
                trace.encode(w);
                inner.encode(w);
            }
            Response::SegmentBatch(batch) => {
                w.put_u8(RESP_SEGMENT_BATCH);
                batch.encode(w);
            }
            Response::SnapshotChunk(chunk) => {
                w.put_u8(RESP_SNAPSHOT_CHUNK);
                chunk.encode(w);
            }
            Response::ReplAck { leader_epoch } => {
                w.put_u8(RESP_REPL_ACK);
                w.put_u64(*leader_epoch);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            RESP_TRACED => {
                let trace = TraceContext::decode(r)?;
                let inner = Response::decode_body(r.get_u8()?, r)?;
                Ok(Response::Traced { trace, inner: Box::new(inner) })
            }
            tag => Response::decode_body(tag, r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_graph::{EdgeId, WeightUpdate};

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Ping,
            Request::ShipSegment { from_epoch: 41, max_records: 128, max_bytes: 1 << 20 },
            Request::SnapshotChunk {
                name: "checkpoint-00000000000000000007.ckpt".to_string(),
                offset: 4096,
                max_len: 1 << 22,
            },
            Request::ReplAck { follower: "replica-a".to_string(), applied_epoch: 40 },
            Request::Query(QueryKey::new(v(3), v(9), 4)),
            Request::ApplyBatch(UpdateBatch::new(vec![
                WeightUpdate::new(EdgeId(7), Weight::new(2.5)),
                WeightUpdate::new(EdgeId(0), Weight::new(0.125)),
            ])),
            Request::CheckpointNow,
            Request::ObsSnapshot,
            Request::Traced {
                trace: TraceContext { trace_id: 0xABCD_0001, origin_micros: 987_654 },
                inner: Box::new(Request::Query(QueryKey::new(v(3), v(9), 4))),
            },
        ]
    }

    fn sample_path() -> Path {
        Path::new(vec![v(1), v(4), v(2)], Weight::new(0.1 + 0.2))
    }

    fn sample_responses() -> Vec<Response> {
        let answer = QueryAnswer {
            paths: vec![sample_path()],
            epoch: 42,
            cache_hit: true,
            latency_micros: 1234,
            stats: WireQueryStats { iterations: 3, ..Default::default() },
        };
        vec![
            Response::Pong { epoch: 7, num_shards: 4 },
            Response::SegmentBatch(WireSegmentBatch {
                leader_epoch: 19,
                records: vec![WireShippedRecord {
                    epoch: 17,
                    batch: UpdateBatch::new(vec![WeightUpdate::new(EdgeId(3), Weight::new(1.5))]),
                }],
                fallback: None,
            }),
            Response::SegmentBatch(WireSegmentBatch {
                leader_epoch: 19,
                records: vec![],
                fallback: Some(WireSnapshotManifest {
                    snapshot_epoch: 16,
                    files: vec![WireSnapshotFile {
                        name: "checkpoint-00000000000000000016.ckpt".to_string(),
                        len: 1024,
                    }],
                }),
            }),
            Response::SnapshotChunk(WireSnapshotChunk {
                name: "checkpoint-00000000000000000010.ckpt".to_string(),
                offset: 512,
                total_len: 1024,
                bytes: vec![0xAB; 512],
            }),
            Response::ReplAck { leader_epoch: 21 },
            Response::Query(answer),
            Response::ApplyBatch { epoch: 9 },
            Response::CheckpointNow { epoch: Some(12) },
            Response::CheckpointNow { epoch: None },
            Response::ObsSnapshot(Box::new(ObsSnapshot {
                counters: vec![ksp_obs::Counter {
                    name: "ksp_requests_completed_total".to_string(),
                    labels: String::new(),
                    value: 11,
                }],
                ..Default::default()
            })),
            Response::Error(ErrorReply::UnsupportedVersion { server: 1, client: 99 }),
        ]
    }

    fn sample_errors() -> Vec<ErrorReply> {
        vec![
            ErrorReply::Overloaded { depth: 64, retry_after_ms: 0 },
            ErrorReply::Overloaded { depth: 2048, retry_after_ms: 125 },
            ErrorReply::ShuttingDown,
            ErrorReply::InvalidQuery("vertex v99 out of range".to_string()),
            ErrorReply::InvalidK,
            ErrorReply::InvalidBatch("edge e7 out of range".to_string()),
            ErrorReply::Storage("disk full".to_string()),
            ErrorReply::Unsupported("no store attached".to_string()),
            ErrorReply::UnsupportedVersion { server: 1, client: 2 },
            ErrorReply::Malformed("bad magic".to_string()),
            ErrorReply::Degraded("log append failed".to_string()),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for request in sample_requests() {
            let decoded = Request::from_bytes(&request.to_bytes()).unwrap();
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn trace_envelopes_round_trip_and_split() {
        let trace = TraceContext { trace_id: 7, origin_micros: 13 };
        let traced =
            Response::Traced { trace, inner: Box::new(Response::Error(ErrorReply::InvalidK)) };
        let decoded = Response::from_bytes(&traced.to_bytes()).unwrap();
        assert_eq!(decoded, traced);
        let (got_trace, inner) = decoded.into_parts();
        assert_eq!(got_trace, Some(trace));
        assert_eq!(inner, Response::Error(ErrorReply::InvalidK));
        // An untraced message splits into (None, itself).
        let (none, inner) = Request::ObsSnapshot.into_parts();
        assert_eq!(none, None);
        assert_eq!(inner, Request::ObsSnapshot);
    }

    #[test]
    fn nested_trace_envelopes_fail_typed_without_recursing() {
        // Hand-encode Traced(Traced(...)) nesting — a hostile peer could
        // nest thousands deep; the decoder must reject at depth one with a
        // typed error rather than recurse.
        for depth in [2usize, 10_000] {
            let mut w = Writer::new();
            for _ in 0..depth {
                w.put_u8(7); // REQ_TRACED
                TraceContext::default().encode(&mut w);
            }
            w.put_u8(6); // REQ_OBS_SNAPSHOT
            assert!(matches!(
                Request::from_bytes(&w.into_bytes()),
                Err(CodecError::InvalidTag { what: "Request", tag: 7 })
            ));
            let mut w = Writer::new();
            for _ in 0..depth {
                w.put_u8(8); // RESP_TRACED
                TraceContext::default().encode(&mut w);
            }
            w.put_u8(3); // RESP_APPLY_BATCH
            w.put_u64(1);
            assert!(matches!(
                Response::from_bytes(&w.into_bytes()),
                Err(CodecError::InvalidTag { what: "Response", tag: 8 })
            ));
        }
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        for response in sample_responses() {
            let decoded = Response::from_bytes(&response.to_bytes()).unwrap();
            assert_eq!(decoded, response);
        }
        // Distances survive bit-for-bit, not merely approximately.
        let path = sample_path();
        let encoded = Response::Query(QueryAnswer {
            paths: vec![path.clone()],
            epoch: 0,
            cache_hit: false,
            latency_micros: 0,
            stats: WireQueryStats::default(),
        })
        .to_bytes();
        let Response::Query(decoded) = Response::from_bytes(&encoded).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(
            decoded.paths[0].distance().value().to_bits(),
            path.distance().value().to_bits()
        );
    }

    #[test]
    fn error_replies_round_trip() {
        for e in sample_errors() {
            assert_eq!(ErrorReply::from_bytes(&e.to_bytes()).unwrap(), e);
        }
        // A zero hint is carried on the wire but reads as "no hint".
        assert_eq!(
            ErrorReply::Overloaded { depth: 9, retry_after_ms: 250 }.retry_after_ms(),
            Some(250)
        );
        assert_eq!(ErrorReply::Overloaded { depth: 9, retry_after_ms: 0 }.retry_after_ms(), None);
    }

    #[test]
    fn non_simple_wire_paths_are_rejected() {
        let looping = WirePath { vertices: vec![v(1), v(2), v(1)], distance: Weight::new(3.0) };
        assert!(looping.into_path().is_err());
        let empty = WirePath { vertices: vec![], distance: Weight::ZERO };
        assert!(empty.into_path().is_err());
    }

    #[test]
    fn unknown_tags_fail_typed() {
        // Tags 2 and 4 are retired in both directions; 200 was never assigned.
        for tag in [2, 4, 200] {
            assert!(matches!(
                Request::from_bytes(&[tag]),
                Err(CodecError::InvalidTag { what: "Request", tag: t }) if t == tag
            ));
            assert!(matches!(
                Response::from_bytes(&[tag]),
                Err(CodecError::InvalidTag { what: "Response", tag: t }) if t == tag
            ));
        }
    }

    /// Asserts that no strict prefix of `bytes` decodes as a `T`.
    fn assert_no_prefix_decodes<T: StoreCodec + std::fmt::Debug>(bytes: &[u8]) {
        for cut in 0..bytes.len() {
            if let Ok(value) = T::from_bytes(&bytes[..cut]) {
                panic!("a {cut}-byte prefix of {} bytes decoded as {value:?}", bytes.len());
            }
        }
    }

    #[test]
    fn truncated_messages_fail_typed() {
        let trace = TraceContext { trace_id: 0x1234_0005, origin_micros: 77 };
        for request in sample_requests() {
            assert_no_prefix_decodes::<Request>(&request.to_bytes());
            if !matches!(request, Request::Traced { .. }) {
                let traced = Request::Traced { trace, inner: Box::new(request) };
                assert_no_prefix_decodes::<Request>(&traced.to_bytes());
            }
        }
        let errors = sample_errors().into_iter().map(Response::Error);
        for response in sample_responses().into_iter().chain(errors) {
            assert_no_prefix_decodes::<Response>(&response.to_bytes());
            let traced = Response::Traced { trace, inner: Box::new(response) };
            assert_no_prefix_decodes::<Response>(&traced.to_bytes());
        }
        for error in sample_errors() {
            assert_no_prefix_decodes::<ErrorReply>(&error.to_bytes());
        }
    }

    #[test]
    fn oversized_batch_count_fails_before_allocation() {
        // An ApplyBatch claiming u64::MAX updates with a tiny payload must be
        // rejected by the count validation, not by the allocator.
        let mut w = Writer::new();
        w.put_u8(REQ_APPLY_BATCH);
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(matches!(Request::from_bytes(&bytes), Err(CodecError::LengthOutOfBounds { .. })));
    }
}
