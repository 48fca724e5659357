//! The pluggable transport underneath [`crate::KspClient`].
//!
//! A [`Transport`] moves one [`Request`] to a serving endpoint and brings one
//! [`Response`] back. Two implementations exist:
//!
//! * [`TcpTransport`] (here) — blocking sockets with the [`crate::frame`]
//!   codec; [`Transport::pipeline`] writes every request frame before reading
//!   the first response, so a multi-query batch costs one flush instead of a
//!   round trip per query.
//! * `InProcTransport` (in `ksp-serve`, next to the service it wraps) — the
//!   zero-copy in-process path: requests are dispatched directly, nothing is
//!   serialised, and [`TransportStats`] stays at zero bytes — which is
//!   exactly the baseline the communication-cost accounting compares against.

use crate::frame::{read_frame, write_frame, FrameError, FrameKind};
use crate::message::{Request, Response};
use ksp_store::StoreCodec;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Physical communication cost accounting of one transport.
///
/// For a TCP transport these are real wire bytes (headers + payloads); for
/// the in-process transport they stay zero — comparing the two prices the
/// protocol itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Requests sent.
    pub requests: u64,
    /// Responses received.
    pub responses: u64,
    /// Bytes written to the wire (zero for in-process transports).
    pub bytes_sent: u64,
    /// Bytes read from the wire (zero for in-process transports).
    pub bytes_received: u64,
    /// Cumulative time spent encoding request payloads, in microseconds
    /// (zero for in-process transports, which never serialise).
    pub serialize_micros: u64,
    /// Cumulative time spent decoding response payloads, in microseconds
    /// (zero for in-process transports).
    pub decode_micros: u64,
}

impl TransportStats {
    /// Adds another transport's counters to this one (e.g. folding per-client
    /// stats into a run total).
    pub fn absorb(&mut self, other: &TransportStats) {
        self.requests += other.requests;
        self.responses += other.responses;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.serialize_micros += other.serialize_micros;
        self.decode_micros += other.decode_micros;
    }

    /// Mean wire bytes per request (sent + received), or zero for an
    /// in-process transport.
    pub fn bytes_per_request(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            (self.bytes_sent + self.bytes_received) as f64 / self.requests as f64
        }
    }
}

/// Why a transport could not complete a round trip.
#[derive(Debug)]
pub enum TransportError {
    /// Framing or payload decoding failed (corrupt, truncated or
    /// foreign-version bytes).
    Frame(FrameError),
    /// The underlying connection failed.
    Io(io::Error),
    /// An I/O deadline expired before the peer answered (see
    /// [`TcpTransport::set_io_timeout`]). Distinct from [`TransportError::Io`]
    /// so callers can tell "slow or dead peer" from "broken connection".
    TimedOut,
    /// The peer closed the connection before answering.
    Disconnected,
    /// The peer sent a frame that is not a response (protocol violation).
    UnexpectedFrame,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Frame(e) => write!(f, "frame error: {e}"),
            TransportError::Io(e) => write!(f, "connection error: {e}"),
            TransportError::TimedOut => write!(f, "I/O deadline expired"),
            TransportError::Disconnected => write!(f, "server closed the connection"),
            TransportError::UnexpectedFrame => write!(f, "peer sent a non-response frame"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Frame(e) => Some(e),
            TransportError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => TransportError::from(io),
            other => TransportError::Frame(other),
        }
    }
}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> Self {
        // A socket deadline expiring surfaces as `WouldBlock` on Unix and
        // `TimedOut` on Windows; both mean "deadline", not "broken".
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => TransportError::TimedOut,
            _ => TransportError::Io(e),
        }
    }
}

/// Moves requests to a serving endpoint and responses back.
///
/// Implementations are blocking and owned by one client at a time (`&mut
/// self`); concurrency comes from opening one transport per client thread,
/// which is also how connections behave.
pub trait Transport: Send {
    /// Sends one request and blocks for its response.
    fn roundtrip(&mut self, request: Request) -> Result<Response, TransportError>;

    /// Sends every request before reading any response, then returns the
    /// responses in request order. The default implementation degrades to
    /// sequential round trips; socket transports override it with true
    /// pipelining.
    fn pipeline(&mut self, requests: Vec<Request>) -> Result<Vec<Response>, TransportError> {
        requests.into_iter().map(|r| self.roundtrip(r)).collect()
    }

    /// Physical communication cost so far.
    fn stats(&self) -> TransportStats;
}

// Forward through boxes so a connection can be composed at runtime (e.g. a
// replica interposing a `FaultTransport` under test). Explicit forwarding
// matters for `pipeline`: the default would degrade a boxed TcpTransport to
// sequential round trips.
impl Transport for Box<dyn Transport> {
    fn roundtrip(&mut self, request: Request) -> Result<Response, TransportError> {
        (**self).roundtrip(request)
    }

    fn pipeline(&mut self, requests: Vec<Request>) -> Result<Vec<Response>, TransportError> {
        (**self).pipeline(requests)
    }

    fn stats(&self) -> TransportStats {
        (**self).stats()
    }
}

/// The blocking TCP transport: one connection, the [`crate::frame`] codec,
/// buffered reads and writes, pipelined batches.
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Everything but the two codec times, which accumulate unrounded below
    /// and are converted in [`Transport::stats`]: a sub-microsecond encode
    /// would otherwise add zero every time.
    stats: TransportStats,
    serialize: Duration,
    decode: Duration,
}

impl TcpTransport {
    /// Connects to a serving endpoint.
    ///
    /// This performs no handshake; [`crate::KspClient::connect`] layers the
    /// `Ping` handshake on top.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_timeout(addr, None)
    }

    /// [`TcpTransport::connect`] bounded by a deadline: the connect itself
    /// and every subsequent read and write must complete within `timeout`
    /// (each individually), or the operation fails — surfaced by the client
    /// as [`crate::ClientError::TimedOut`]. `None` keeps the unbounded
    /// default.
    pub fn connect_timeout(
        addr: impl ToSocketAddrs,
        timeout: Option<std::time::Duration>,
    ) -> io::Result<Self> {
        let stream = match timeout {
            None => TcpStream::connect(addr)?,
            Some(deadline) => {
                // `TcpStream::connect_timeout` takes one resolved address;
                // try each resolution like `connect` would.
                let mut last_err = None;
                let mut connected = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, deadline) {
                        Ok(stream) => {
                            connected = Some(stream);
                            break;
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                connected.ok_or_else(|| {
                    last_err.unwrap_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
                    })
                })?
            }
        };
        stream.set_nodelay(true)?;
        let transport = TcpTransport {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            stats: TransportStats::default(),
            serialize: Duration::ZERO,
            decode: Duration::ZERO,
        };
        transport.set_io_timeout(timeout)?;
        Ok(transport)
    }

    /// Bounds how long a blocked read waits for the server, `None` for
    /// forever. Useful in tests that must never hang on a dead peer.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Bounds both reads and writes with one deadline, `None` for forever.
    /// An expired deadline surfaces as [`TransportError::TimedOut`].
    pub fn set_io_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.writer.get_ref().set_write_timeout(timeout)
    }

    fn send(&mut self, request: &Request) -> Result<(), TransportError> {
        let started = Instant::now();
        let payload = request.to_bytes();
        self.serialize += started.elapsed();
        write_frame(&mut self.writer, FrameKind::Request, &payload)?;
        self.stats.requests += 1;
        self.stats.bytes_sent += crate::frame::frame_len(payload.len()) as u64;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, TransportError> {
        match read_frame(&mut self.reader)? {
            None => Err(TransportError::Disconnected),
            Some((FrameKind::Response, payload)) => {
                self.stats.responses += 1;
                self.stats.bytes_received += crate::frame::frame_len(payload.len()) as u64;
                let started = Instant::now();
                let response = Response::from_bytes(&payload).map_err(FrameError::Codec)?;
                self.decode += started.elapsed();
                Ok(response)
            }
            Some((FrameKind::Request, _)) => Err(TransportError::UnexpectedFrame),
        }
    }
}

impl Transport for TcpTransport {
    fn roundtrip(&mut self, request: Request) -> Result<Response, TransportError> {
        self.send(&request)?;
        self.writer.flush()?;
        self.recv()
    }

    fn pipeline(&mut self, requests: Vec<Request>) -> Result<Vec<Response>, TransportError> {
        let n = requests.len();
        for request in &requests {
            self.send(request)?;
        }
        self.writer.flush()?;
        let mut responses = Vec::with_capacity(n);
        for _ in 0..n {
            responses.push(self.recv()?);
        }
        Ok(responses)
    }

    fn stats(&self) -> TransportStats {
        let micros = |d: Duration| d.as_micros().min(u64::MAX as u128) as u64;
        TransportStats {
            serialize_micros: micros(self.serialize),
            decode_micros: micros(self.decode),
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_fold_and_average() {
        let mut total = TransportStats::default();
        total.absorb(&TransportStats {
            requests: 2,
            responses: 2,
            bytes_sent: 100,
            bytes_received: 300,
            serialize_micros: 7,
            decode_micros: 11,
        });
        total.absorb(&TransportStats {
            requests: 2,
            responses: 2,
            bytes_sent: 60,
            bytes_received: 40,
            serialize_micros: 3,
            decode_micros: 9,
        });
        assert_eq!(total.requests, 4);
        assert_eq!(total.bytes_sent, 160);
        assert_eq!(total.serialize_micros, 10);
        assert_eq!(total.decode_micros, 20);
        assert!((total.bytes_per_request() - 125.0).abs() < 1e-9);
        assert_eq!(TransportStats::default().bytes_per_request(), 0.0);
    }

    #[test]
    fn sub_microsecond_encodes_add_up() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut transport = TcpTransport::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        // Drain the socket so buffered frames never block the sender.
        let drain = std::thread::spawn(move || io::copy(&mut peer, &mut io::sink()));
        for _ in 0..10_000 {
            transport.send(&Request::Ping).unwrap();
        }
        let stats = transport.stats();
        assert_eq!(stats.requests, 10_000);
        assert!(stats.serialize_micros >= 1, "10 000 encodes must not round to zero");
        drop(transport);
        drain.join().unwrap().unwrap();
    }
}
