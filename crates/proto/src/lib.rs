//! `ksp-proto`: the typed wire protocol and transport abstraction for KSP-DG
//! serving.
//!
//! Clients and the query service sit on opposite sides of a network; this
//! crate is the contract they speak. It has three layers, each usable on its own:
//!
//! * [`message`] — the **operator surface** as data: [`Request`] / [`Response`]
//!   enums covering single queries, pipelined multi-query batches, epoch
//!   publication (`ApplyBatch`), observability snapshots (`ObsSnapshot`,
//!   carrying `ksp-obs`'s [`ObsSnapshot`](ksp_obs::ObsSnapshot) itself: every
//!   counter, gauge, per-stage histogram and the latest flight dump),
//!   checkpointing, log shipping to replicas and the `Ping` handshake.
//!   Payloads are encoded with the same
//!   [`StoreCodec`](ksp_store::StoreCodec) discipline as the on-disk
//!   checkpoint format: little-endian, length-validated counts, floats as raw
//!   IEEE-754 bits so a path distance survives the wire bit-for-bit.
//! * [`frame`] — the **framing**: every message travels as one
//!   length-prefixed, CRC-32-guarded, version-stamped frame. A corrupt,
//!   truncated or foreign-version frame is detected *before* payload decoding
//!   and surfaces as a typed [`FrameError`], never a panic or a garbage
//!   message.
//! * [`transport`] / [`client`] — the **pluggable transport**: the
//!   [`Transport`] trait abstracts "send a request, get a response" with
//!   physical byte accounting ([`TransportStats`]), [`TcpTransport`] is the
//!   blocking-socket implementation (with true pipelining for batches), and
//!   [`KspClient`] is the typed handle applications hold. The in-process
//!   zero-copy implementation lives in `ksp-serve` (`InProcTransport`), next
//!   to the service it short-circuits into.
//!
//! # Wire format
//!
//! ```text
//! offset  size  field
//! 0       4     magic "KSPF"
//! 4       4     protocol version (u32 LE, currently 5)
//! 8       1     frame kind (0 = request, 1 = response)
//! 9       4     payload length in bytes (u32 LE)
//! 13      4     CRC-32 (ISO-HDLC) of the payload
//! 17      n     payload: one StoreCodec-encoded Request or Response
//! ```
//!
//! The header is the only place a version is checked, and its layout is
//! frozen across protocol versions: a server can always parse the header of
//! a foreign client's frame, reject it with a typed
//! [`ErrorReply::UnsupportedVersion`] response and close the connection
//! cleanly instead of reading garbage. Every message has exactly one
//! payload encoding; any tag or payload change bumps [`PROTOCOL_VERSION`].

#![warn(missing_docs)]

pub mod client;
pub mod fault;
pub mod frame;
pub mod message;
pub mod transport;

pub use client::{ClientConfig, ClientError, HandshakeInfo, KspClient, LatencyBreakdown};
pub use fault::FaultTransport;
pub use frame::{FrameError, FrameKind, FRAME_HEADER_LEN, FRAME_MAGIC, MAX_FRAME_PAYLOAD};
pub use message::{
    ErrorReply, QueryAnswer, QueryKey, Request, Response, TraceContext, WirePath, WireQueryStats,
    WireSegmentBatch, WireShippedRecord, WireSnapshotChunk, WireSnapshotFile, WireSnapshotManifest,
    PROTOCOL_VERSION,
};
pub use transport::{TcpTransport, Transport, TransportError, TransportStats};
