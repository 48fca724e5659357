//! Readiness-polled TCP serving: one epoll-driven poller thread and one
//! control thread.
//!
//! A thread per connection would spend one OS thread (and its stack) per
//! client; at a thousand mostly-idle clients that is a thousand blocked
//! threads the scheduler has to care about. [`EventLoopServer`] serves the
//! wire protocol — CRC-guarded frames, typed errors, a typed reply and a
//! clean disconnect for every hostile frame — on two threads, however many
//! connections are open:
//!
//! ```text
//!              ┌────────────────────────────────────────────┐
//!   accept ──▶ │ poller thread (epoll: listener + N socks)  │
//!              │  · non-blocking read → reassemble frames   │
//!              │  · Query: submit; a cache hit (or a        │
//!              │    rejection) replies inline, right here   │
//!              │  · non-blocking write of queued responses  │
//!              └───┬─────────────▲───────────────┬──────▲───┘
//!   Query miss:    │ completions │ every other   │      │ completions
//!   enters the     │ (self-pipe  │ request       │      │ (self-pipe
//!   request queue  │  wake)      │ (mpsc)        │      │  wake)
//!              ┌───▼─────────────┴───┐      ┌────▼──────┴───┐
//!              │ request queue       │      │ control thread│
//!              │ → the shard worker  │      │ · handle()    │
//!              │   that pops it runs │      └───────────────┘
//!              │   the reply callback│
//!              └─────────────────────┘
//! ```
//!
//! The poller owns every socket. Incoming bytes accumulate in a
//! per-connection buffer and are cut into frames *incrementally* — a client
//! may dribble a frame one byte per segment or coalesce several frames into
//! one segment; both decode to exactly what the blocking
//! [`read_frame`](ksp_proto::frame::read_frame) would have produced, in the
//! same validation order (magic → version → kind → length cap → payload →
//! CRC).
//!
//! A single `Query` (bare or in one trace envelope) goes straight to the
//! service's own admission. A current cache hit is answered there and then:
//! its reply callback frames the response on the poller itself, so a hit
//! crosses no thread hand-over. A miss enters the request queue without
//! blocking, and the shard worker that answers it runs the reply callback,
//! so a miss crosses two hand-overs: to the worker and back. Either way the
//! framed response reaches the connection through a completion queue. A
//! rejected query is answered inline through the same callback, so the
//! service counts every rejection once, and the connection stays healthy.
//! Every other request goes to the control thread, which runs
//! [`QueryService::handle`]. Another thread's completion writes a byte to a
//! self-pipe to wake the poller; one made on the poller needs none, because
//! the poller applies completions until the queue is empty before it waits
//! again.
//!
//! Requests of one connection are handed on strictly in arrival order, one
//! at a time — a pipelined client gets its responses in request order.
//!
//! Aggregate `ksp_eventloop_*` counters/gauges are appended to every
//! `ObsSnapshot` response served through the loop, next to the service's own
//! exposition.

use crate::rpc::{echo_trace, query_response};
use crate::service::{QueryService, Reply};
use ksp_obs::{Counter, EventKind, Gauge};
use ksp_proto::frame::{
    frame_len, write_frame, FrameError, FrameKind, FRAME_HEADER_LEN, FRAME_MAGIC, MAX_FRAME_PAYLOAD,
};
use ksp_proto::message::{ErrorReply, Request, Response, PROTOCOL_VERSION};
use ksp_store::{crc32, StoreCodec};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::{JoinHandle, ThreadId};
use std::time::Instant;

/// Raw, dependency-free bindings to the handful of kernel calls the loop
/// needs: epoll for readiness, a pipe for cross-thread wakeup. `std` already
/// links libc on Linux, so these resolve without any external crate.
mod sys;

/// Token the listener registers under; connection tokens count up from zero
/// and cannot collide before the heat death of the universe.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Token of the self-pipe's read end.
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Decoded-but-undispatched requests one connection may hold before the
/// poller stops reading its socket (TCP backpressure takes over) — the bound
/// that keeps a hostile pipeliner from growing server memory without limit.
const PENDING_CAP: usize = 64;
/// How long `epoll_wait` may sleep with nothing to do; bounds shutdown
/// latency if a wake byte is ever lost.
const IDLE_POLL_MS: i32 = 500;
/// Serving threads of one server: the poller and the control thread.
const LOOP_THREADS: usize = 2;

/// Hostile-frame reason codes carried in the [`EventKind::HostileFrame`]
/// flight events (payload word `a`).
pub mod hostile_frame {
    /// The frame parsed but its request payload did not decode.
    pub const UNDECODABLE_PAYLOAD: u64 = 0;
    /// The peer sent a response-kind frame to a server.
    pub const RESPONSE_KIND_FRAME: u64 = 1;
    /// The peer's frame header announced a foreign protocol version
    /// (payload word `b` = the version it announced).
    pub const VERSION_MISMATCH: u64 = 2;
    /// Framing was lost: bad magic, CRC mismatch, truncation or an oversized
    /// length.
    pub const FRAMING_LOST: u64 = 3;
}

/// Point-in-time view of the loop's aggregate transport accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventLoopStats {
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Currently open connections.
    pub open_connections: u64,
    /// Most connections ever open at once.
    pub peak_connections: u64,
    /// Request frames decoded.
    pub frames_in: u64,
    /// Response frames queued for write (including typed error replies).
    pub frames_out: u64,
    /// Wire bytes of decoded request frames (headers + payloads).
    pub bytes_in: u64,
    /// Wire bytes of queued response frames.
    pub bytes_out: u64,
    /// `Overloaded` replies sent through the loop, one per rejected query.
    /// The service made every one of these decisions and counted it too. Always answered, never
    /// dropped.
    pub rejected: u64,
    /// Hostile frames answered with a typed error and a disconnect.
    pub hostile_frames: u64,
    /// Requests in flight through the loop: handed on, not yet answered.
    pub dispatch_backlog: u64,
}

/// Aggregate counters, shared between the poller (which drives most of them)
/// and the completing threads (which stamp handle time and read them for
/// `ObsSnapshot`).
#[derive(Debug, Default)]
struct LoopMetrics {
    accepted: AtomicU64,
    open: AtomicU64,
    peak: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    rejected: AtomicU64,
    hostile: AtomicU64,
    handle_micros: AtomicU64,
    outstanding: AtomicU64,
}

/// One non-query request on its way to the control thread.
struct ControlJob {
    token: u64,
    request: Request,
    submitted: Instant,
}

/// One framed response on its way back to the poller.
struct Completion {
    token: u64,
    bytes: Vec<u8>,
}

/// State shared by the poller, the control thread, the server handle and
/// every reply callback a shard worker holds. It owns no service handle: a
/// callback may outlive the server, and the last service handle must never
/// be dropped on a shard worker.
struct LoopShared {
    shutting_down: AtomicBool,
    completions: Mutex<Vec<Completion>>,
    /// The poller's thread, set once when it starts: a completion produced
    /// on it (an inline cache hit, a rejection) needs no wake byte, because
    /// the poller applies completions until none are left before it waits.
    poller: OnceLock<ThreadId>,
    /// The self-pipe, owned here rather than by the poller so that a reply
    /// completing after the poller exited still writes into this pipe, never
    /// into a closed (and possibly reused) descriptor.
    wake: sys::WakePipe,
    metrics: LoopMetrics,
}

impl LoopShared {
    /// Frames `response` for connection `token` and queues it for the
    /// poller, waking it unless this is the poller's own thread. Never
    /// blocks: it runs on shard workers too.
    fn complete(&self, token: u64, submitted: Instant, response: &Response) {
        let m = &self.metrics;
        m.handle_micros.fetch_add(
            submitted.elapsed().as_micros().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        if is_overloaded(response) {
            m.rejected.fetch_add(1, Ordering::Relaxed);
        }
        let bytes = encode_response(response);
        self.completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Completion { token, bytes });
        if self.poller.get() != Some(&std::thread::current().id()) {
            self.wake.wake();
        }
    }

    fn stats(&self) -> EventLoopStats {
        let m = &self.metrics;
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        EventLoopStats {
            accepted: load(&m.accepted),
            open_connections: load(&m.open),
            peak_connections: load(&m.peak),
            frames_in: load(&m.frames_in),
            frames_out: load(&m.frames_out),
            bytes_in: load(&m.bytes_in),
            bytes_out: load(&m.bytes_out),
            rejected: load(&m.rejected),
            hostile_frames: load(&m.hostile),
            dispatch_backlog: load(&m.outstanding),
        }
    }
}

/// A readiness-polled TCP serving endpoint over a [`QueryService`]: one
/// epoll poller thread plus one control thread, graceful shutdown on drop.
/// Speaks the wire protocol a [`KspClient`](ksp_proto::KspClient) expects on
/// a thread count independent of the connection count.
pub struct EventLoopServer {
    local_addr: SocketAddr,
    shared: Arc<LoopShared>,
    poller: Option<JoinHandle<()>>,
    control: Option<JoinHandle<()>>,
}

impl EventLoopServer {
    /// Binds `addr` (port 0 for ephemeral) and starts the poller and the
    /// control thread.
    pub fn bind(service: Arc<QueryService>, addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let epoll = sys::Epoll::new()?;
        let shared = Arc::new(LoopShared {
            shutting_down: AtomicBool::new(false),
            completions: Mutex::new(Vec::new()),
            poller: OnceLock::new(),
            wake: sys::WakePipe::new()?,
            metrics: LoopMetrics::default(),
        });
        epoll.add(listener.as_raw_fd(), LISTENER_TOKEN, sys::EPOLLIN)?;
        epoll.add(shared.wake.read_fd(), WAKE_TOKEN, sys::EPOLLIN)?;
        let (control_tx, control_rx) = mpsc::channel();
        let control = std::thread::Builder::new()
            .name("ksp-evloop-control".to_string())
            .spawn({
                let service = service.clone();
                let shared = shared.clone();
                move || control_main(&service, &shared, &control_rx)
            })
            .expect("failed to spawn control thread");
        let poller = std::thread::Builder::new()
            .name("ksp-evloop-poll".to_string())
            .spawn({
                let handoff = Handoff { service, shared: shared.clone(), control: control_tx };
                move || Poller::new(listener, epoll, handoff).run()
            })
            .expect("failed to spawn poller");
        Ok(EventLoopServer { local_addr, shared, poller: Some(poller), control: Some(control) })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Total serving threads (poller + control thread). Constant for the
    /// server's lifetime — the property the event loop exists for.
    pub fn thread_count(&self) -> usize {
        LOOP_THREADS
    }

    /// Snapshot of the loop's aggregate transport accounting.
    pub fn stats(&self) -> EventLoopStats {
        self.shared.stats()
    }

    /// Stops accepting, disconnects every live connection and joins both
    /// threads. Idempotent; also runs on drop. Queries still queued in the
    /// service are answered into the void.
    pub fn shutdown(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.wake.wake();
        // The poller owns the control channel's sender: once it is gone, the
        // control thread finishes the jobs already sent and exits.
        for thread in [self.poller.take(), self.control.take()].into_iter().flatten() {
            let _ = thread.join();
        }
    }
}

impl Drop for EventLoopServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The control thread: every request that is not a single query, one at a
/// time, through [`QueryService::handle`].
fn control_main(service: &QueryService, shared: &LoopShared, jobs: &mpsc::Receiver<ControlJob>) {
    for job in jobs {
        let mut response = service.handle(job.request);
        append_eventloop_metrics(shared, &mut response);
        shared.complete(job.token, job.submitted, &response);
    }
}

/// Whether a response, traced or not, is an `Overloaded` rejection.
fn is_overloaded(response: &Response) -> bool {
    let inner = match response {
        Response::Traced { inner, .. } => inner.as_ref(),
        other => other,
    };
    matches!(inner, Response::Error(ErrorReply::Overloaded { .. }))
}

/// Frames a response, substituting the typed `Unsupported` reply when the
/// payload exceeds the frame cap — `write_frame` refuses before emitting a
/// byte, so framing stays intact and the connection stays alive.
fn encode_response(response: &Response) -> Vec<u8> {
    let payload = response.to_bytes();
    let mut frame = Vec::with_capacity(frame_len(payload.len().min(4096)));
    match write_frame(&mut frame, FrameKind::Response, &payload) {
        Ok(()) => frame,
        Err(e) => {
            frame.clear();
            let reply = Response::Error(ErrorReply::Unsupported(format!(
                "response does not fit one frame ({e}); split the request"
            )));
            let reply_payload = reply.to_bytes();
            write_frame(&mut frame, FrameKind::Response, &reply_payload)
                .expect("a typed error reply always fits one frame");
            frame
        }
    }
}

/// Appends the loop's aggregate transport metrics to an `ObsSnapshot`
/// response (unwrapping a trace envelope if present) — aggregated over all
/// connections, because a thousand per-connection series would drown the
/// exposition the loop exists to keep cheap.
fn append_eventloop_metrics(shared: &LoopShared, response: &mut Response) {
    let snapshot = match response {
        Response::ObsSnapshot(s) => s,
        Response::Traced { inner, .. } => match inner.as_mut() {
            Response::ObsSnapshot(s) => s,
            _ => return,
        },
        _ => return,
    };
    let stats = shared.stats();
    let handle_micros = shared.metrics.handle_micros.load(Ordering::Relaxed);
    let counters = [
        ("ksp_eventloop_accepted_total", stats.accepted),
        ("ksp_eventloop_frames_in_total", stats.frames_in),
        ("ksp_eventloop_frames_out_total", stats.frames_out),
        ("ksp_eventloop_bytes_in_total", stats.bytes_in),
        ("ksp_eventloop_bytes_out_total", stats.bytes_out),
        ("ksp_eventloop_rejected_total", stats.rejected),
        ("ksp_eventloop_hostile_frames_total", stats.hostile_frames),
        ("ksp_eventloop_handle_micros_total", handle_micros),
    ];
    for (name, value) in counters {
        snapshot.counters.push(Counter { name: name.to_string(), labels: String::new(), value });
    }
    let gauges = [
        ("ksp_eventloop_open_connections", stats.open_connections as f64),
        ("ksp_eventloop_peak_connections", stats.peak_connections as f64),
        ("ksp_eventloop_dispatch_backlog", stats.dispatch_backlog as f64),
        ("ksp_eventloop_threads", LOOP_THREADS as f64),
    ];
    for (name, value) in gauges {
        snapshot.gauges.push(Gauge { name: name.to_string(), labels: String::new(), value });
    }
}

/// One step of the incremental frame decoder.
enum Decoded {
    /// Not enough buffered bytes for a verdict.
    NeedMore,
    /// One complete, CRC-verified frame (consumed from the buffer).
    Frame(FrameKind, Vec<u8>),
    /// The buffered bytes can never become a valid frame.
    Fail(FrameError),
}

/// Cuts one frame off the front of `buf`, validating in exactly the blocking
/// reader's order: magic → version → kind → length cap (all on the complete
/// 17-byte header) → payload bytes → CRC. Anything the blocking
/// [`read_frame`](ksp_proto::frame::read_frame) rejects, this rejects with
/// the same [`FrameError`]; anything it accepts arrives here byte-identical.
fn try_decode(buf: &mut Vec<u8>) -> Decoded {
    if buf.len() < FRAME_HEADER_LEN {
        return Decoded::NeedMore;
    }
    if buf[0..4] != FRAME_MAGIC {
        return Decoded::Fail(FrameError::BadMagic {
            found: buf[0..4].try_into().expect("4 bytes"),
        });
    }
    let version = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    if version != PROTOCOL_VERSION {
        return Decoded::Fail(FrameError::VersionMismatch {
            ours: PROTOCOL_VERSION,
            theirs: version,
        });
    }
    let kind = match buf[8] {
        0 => FrameKind::Request,
        1 => FrameKind::Response,
        tag => return Decoded::Fail(FrameError::BadKind(tag)),
    };
    let declared = u32::from_le_bytes(buf[9..13].try_into().expect("4 bytes"));
    if declared > MAX_FRAME_PAYLOAD {
        return Decoded::Fail(FrameError::Oversized { declared });
    }
    let total = FRAME_HEADER_LEN + declared as usize;
    if buf.len() < total {
        return Decoded::NeedMore;
    }
    let expected = u32::from_le_bytes(buf[13..17].try_into().expect("4 bytes"));
    let payload = buf[FRAME_HEADER_LEN..total].to_vec();
    buf.drain(..total);
    let actual = crc32(&payload);
    if actual != expected {
        return Decoded::Fail(FrameError::CrcMismatch { expected, actual });
    }
    Decoded::Frame(kind, payload)
}

/// One connection's state machine, owned by the poller.
struct Conn {
    stream: TcpStream,
    token: u64,
    /// Received, not-yet-framed bytes.
    read_buf: Vec<u8>,
    /// Framed responses awaiting socket capacity; `write_pos` marks the
    /// already-written prefix.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Decoded requests waiting for their in-order hand-off.
    pending: VecDeque<Request>,
    /// Whether a request of this connection is dispatched and unanswered
    /// (at most one — that is what keeps pipelined responses in order).
    inflight: bool,
    /// The final typed error frame of a hostile-frame incident, sent after
    /// every earlier request is answered, then the connection closes.
    tail: Option<Vec<u8>>,
    /// No more bytes will be read (EOF or a hostile frame).
    read_dead: bool,
    /// Reading paused for backpressure (`PENDING_CAP` decoded requests wait).
    paused: bool,
    /// Close once `write_buf` drains.
    close_after_flush: bool,
    /// The socket failed hard; close immediately, nothing to flush or tell.
    io_dead: bool,
    /// Interest bits currently registered with epoll.
    interest: u32,
}

impl Conn {
    fn new(stream: TcpStream, token: u64) -> Self {
        Conn {
            stream,
            token,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            pending: VecDeque::new(),
            inflight: false,
            tail: None,
            read_dead: false,
            paused: false,
            close_after_flush: false,
            io_dead: false,
            interest: sys::EPOLLIN,
        }
    }

    fn has_write_pending(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    fn desired_interest(&self) -> u32 {
        let mut interest = 0;
        if !self.read_dead && !self.paused {
            interest |= sys::EPOLLIN;
        }
        if self.has_write_pending() {
            interest |= sys::EPOLLOUT;
        }
        interest
    }

    /// Appends one framed response and accounts it.
    fn queue_reply(&mut self, bytes: &[u8], metrics: &LoopMetrics) {
        metrics.frames_out.fetch_add(1, Ordering::Relaxed);
        metrics.bytes_out.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.write_buf.extend_from_slice(bytes);
    }
}

/// Where the poller hands decoded requests: single queries to the service,
/// everything else to the control thread.
struct Handoff {
    service: Arc<QueryService>,
    shared: Arc<LoopShared>,
    /// Dropped with the poller, which ends the control thread.
    control: mpsc::Sender<ControlJob>,
}

/// The poller: owns the listener, the epoll instance and every connection.
/// Single-threaded by construction — no connection state is ever touched off
/// this thread.
struct Poller {
    listener: TcpListener,
    epoll: sys::Epoll,
    handoff: Handoff,
    conns: HashMap<u64, Conn>,
    next_token: u64,
}

impl Poller {
    fn new(listener: TcpListener, epoll: sys::Epoll, handoff: Handoff) -> Self {
        Poller { listener, epoll, handoff, conns: HashMap::new(), next_token: 0 }
    }

    fn run(mut self) {
        let _ = self.handoff.shared.poller.set(std::thread::current().id());
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 256];
        loop {
            let n = match self.epoll.wait(&mut events, IDLE_POLL_MS) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("ksp-evloop: epoll_wait failed: {e}");
                    break;
                }
            };
            for event in &events[..n] {
                let ev = *event;
                let (bits, token) = (ev.events, ev.data);
                match token {
                    WAKE_TOKEN => self.handoff.shared.wake.drain(),
                    LISTENER_TOKEN => self.accept_ready(),
                    token => self.conn_ready(token, bits),
                }
            }
            // Completions are applied every cycle — a wake byte may
            // coalesce with socket readiness, and completions made on this
            // thread write none — so this must not depend on having seen
            // WAKE_TOKEN.
            self.apply_completions();
            if self.handoff.shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
        }
        for (_, conn) in self.conns.drain() {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        self.handoff.shared.metrics.open.store(0, Ordering::Relaxed);
    }

    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // EMFILE and friends: stop for this cycle; level-triggered
                // epoll re-offers the listener next wait, which is the retry
                // backoff.
                Err(_) => return,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            if self.epoll.add(stream.as_raw_fd(), token, sys::EPOLLIN).is_err() {
                continue;
            }
            self.conns.insert(token, Conn::new(stream, token));
            let metrics = &self.handoff.shared.metrics;
            metrics.accepted.fetch_add(1, Ordering::Relaxed);
            let open = metrics.open.fetch_add(1, Ordering::Relaxed) + 1;
            metrics.peak.fetch_max(open, Ordering::Relaxed);
        }
    }

    fn conn_ready(&mut self, token: u64, bits: u32) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
            conn.io_dead = true;
        } else {
            if bits & sys::EPOLLIN != 0 {
                on_readable(conn, &self.handoff);
            }
            if bits & sys::EPOLLOUT != 0 {
                flush_writes(conn);
            }
        }
        self.service_conn(token);
    }

    /// Applies completions until none are left. Handing on a connection's
    /// next request may complete it inline (a cache hit answered at
    /// admission), queueing a completion that wrote no wake byte: it must be
    /// applied now, not after the next `epoll_wait` times out.
    fn apply_completions(&mut self) {
        loop {
            let completions = std::mem::take(
                &mut *self.handoff.shared.completions.lock().unwrap_or_else(|e| e.into_inner()),
            );
            if completions.is_empty() {
                return;
            }
            for completion in completions {
                self.handoff.shared.metrics.outstanding.fetch_sub(1, Ordering::Relaxed);
                let Some(conn) = self.conns.get_mut(&completion.token) else {
                    continue; // the connection died while its request was served
                };
                conn.inflight = false;
                conn.queue_reply(&completion.bytes, &self.handoff.shared.metrics);
                // Full parse, not just a hand-off: the freed slot may unblock
                // requests already buffered in `read_buf` past PENDING_CAP,
                // which no future EPOLLIN will announce.
                parse_frames(conn, &self.handoff);
                self.service_conn(completion.token);
            }
        }
    }

    /// Settles a connection after any activity: appends a due tail reply,
    /// flushes what the socket will take, closes if finished, and keeps the
    /// epoll interest registration in sync with what the connection is
    /// actually waiting for.
    fn service_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.tail.is_some() && !conn.inflight && conn.pending.is_empty() {
            let bytes = conn.tail.take().expect("checked is_some");
            conn.queue_reply(&bytes, &self.handoff.shared.metrics);
            conn.close_after_flush = true;
        }
        if conn.read_dead && conn.tail.is_none() && !conn.inflight && conn.pending.is_empty() {
            conn.close_after_flush = true;
        }
        flush_writes(conn);
        if conn.io_dead || (conn.close_after_flush && !conn.has_write_pending()) {
            self.close_conn(token);
            return;
        }
        let want = conn.desired_interest();
        if want != conn.interest && self.epoll.modify(conn.stream.as_raw_fd(), token, want).is_ok()
        {
            conn.interest = want;
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.epoll.delete(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            self.handoff.shared.metrics.open.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Pumps the socket into the connection's read buffer until it would block,
/// then cuts and handles as many complete frames as arrived.
fn on_readable(conn: &mut Conn, handoff: &Handoff) {
    if conn.read_dead {
        return;
    }
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                conn.read_dead = true;
                break;
            }
            Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // The peer is gone; there is nobody to answer.
                conn.io_dead = true;
                return;
            }
        }
    }
    parse_frames(conn, handoff);
}

/// Cuts complete frames off `read_buf`, handing well-formed requests on and
/// converting the first protocol violation into a typed reply-then-close,
/// deferred behind any earlier requests still in flight so responses keep
/// arrival order.
///
/// The second decode pass matters: a pipelined burst larger than
/// `PENDING_CAP` sits fully buffered in `read_buf` with no further `EPOLLIN`
/// coming, so the slot a hand-off frees must be refilled *here* — stopping
/// after one pass would strand the remainder of the buffer forever.
fn parse_frames(conn: &mut Conn, handoff: &Handoff) {
    decode_frames(conn, handoff);
    hand_off_next(conn, handoff);
    decode_frames(conn, handoff);
}

/// One decode pass of [`parse_frames`]: cuts frames until the buffer runs
/// out of complete ones, `pending` reaches `PENDING_CAP`, or a protocol
/// violation condemns the connection.
fn decode_frames(conn: &mut Conn, handoff: &Handoff) {
    let obs = handoff.service.observability();
    let metrics = &handoff.shared.metrics;
    while conn.tail.is_none() {
        if conn.pending.len() >= PENDING_CAP {
            conn.paused = true;
            break;
        }
        conn.paused = false;
        match try_decode(&mut conn.read_buf) {
            Decoded::NeedMore => break,
            Decoded::Frame(FrameKind::Request, payload) => {
                metrics.frames_in.fetch_add(1, Ordering::Relaxed);
                metrics.bytes_in.fetch_add(frame_len(payload.len()) as u64, Ordering::Relaxed);
                match Request::from_bytes(&payload) {
                    Ok(request) => conn.pending.push_back(request),
                    Err(e) => {
                        metrics.hostile.fetch_add(1, Ordering::Relaxed);
                        obs.trigger(
                            EventKind::HostileFrame,
                            hostile_frame::UNDECODABLE_PAYLOAD,
                            0,
                            0,
                            None,
                        );
                        let reply = Response::Error(ErrorReply::Malformed(format!(
                            "request payload did not decode: {e}"
                        )));
                        conn.tail = Some(encode_response(&reply));
                    }
                }
            }
            Decoded::Frame(FrameKind::Response, _) => {
                metrics.hostile.fetch_add(1, Ordering::Relaxed);
                obs.trigger(
                    EventKind::HostileFrame,
                    hostile_frame::RESPONSE_KIND_FRAME,
                    0,
                    0,
                    None,
                );
                let reply = Response::Error(ErrorReply::Malformed(
                    "clients must send request frames".to_string(),
                ));
                conn.tail = Some(encode_response(&reply));
            }
            Decoded::Fail(FrameError::VersionMismatch { ours, theirs }) => {
                metrics.hostile.fetch_add(1, Ordering::Relaxed);
                obs.trigger(
                    EventKind::HostileFrame,
                    hostile_frame::VERSION_MISMATCH,
                    theirs as u64,
                    0,
                    None,
                );
                let reply = Response::Error(ErrorReply::UnsupportedVersion {
                    server: ours,
                    client: theirs,
                });
                conn.tail = Some(encode_response(&reply));
            }
            Decoded::Fail(e) => {
                // BadMagic / CRC mismatch / oversized length / bad kind:
                // framing is lost, answer typed and close.
                metrics.hostile.fetch_add(1, Ordering::Relaxed);
                obs.trigger(EventKind::HostileFrame, hostile_frame::FRAMING_LOST, 0, 0, None);
                let reply = Response::Error(ErrorReply::Malformed(e.to_string()));
                conn.tail = Some(encode_response(&reply));
            }
        }
    }
    if conn.tail.is_some() {
        conn.read_dead = true;
        conn.read_buf.clear();
    } else if conn.read_dead && !conn.read_buf.is_empty() {
        // EOF mid-frame: the blocking reader's Truncated error, answered
        // typed exactly as it would be.
        let while_reading =
            if conn.read_buf.len() < FRAME_HEADER_LEN { "frame header" } else { "frame payload" };
        metrics.hostile.fetch_add(1, Ordering::Relaxed);
        obs.trigger(EventKind::HostileFrame, hostile_frame::FRAMING_LOST, 0, 0, None);
        let reply = Response::Error(ErrorReply::Malformed(
            FrameError::Truncated { while_reading }.to_string(),
        ));
        conn.tail = Some(encode_response(&reply));
        conn.read_buf.clear();
    }
}

/// Hands the connection's next request on, unless one is already in flight
/// (one at a time keeps responses in arrival order). A single query goes
/// straight to the service: a current cache hit runs its reply callback
/// right here on the poller, a miss enters the request queue and the
/// callback frames the response on the worker that answers it. Every other
/// request goes to the control thread.
fn hand_off_next(conn: &mut Conn, handoff: &Handoff) {
    if conn.inflight {
        return;
    }
    let Some(request) = conn.pending.pop_front() else { return };
    conn.inflight = true;
    let shared = &handoff.shared;
    shared.metrics.outstanding.fetch_add(1, Ordering::Relaxed);
    let (token, submitted) = (conn.token, Instant::now());
    let query = match &request {
        Request::Query(key) => Some((None, *key)),
        Request::Traced { trace, inner } => match inner.as_ref() {
            Request::Query(key) => Some((Some(*trace), *key)),
            _ => None,
        },
        _ => None,
    };
    match query {
        Some((trace, key)) => {
            let shared = Arc::clone(shared);
            let reply = Reply::new(move |result| {
                shared.complete(token, submitted, &echo_trace(trace, query_response(result)))
            });
            let trace_id = trace.map_or(0, |t| t.trace_id);
            handoff.service.submit(key.source, key.target, key.k, trace_id, reply);
        }
        // The control thread outlives the poller; the send fails only if it
        // died.
        None => {
            let _ = handoff.control.send(ControlJob { token, request, submitted });
        }
    }
}

/// Writes as much of the queued response bytes as the socket accepts,
/// compacting the buffer when it drains (or when the written prefix grows
/// large enough to be worth reclaiming).
fn flush_writes(conn: &mut Conn) {
    if conn.io_dead {
        return;
    }
    while conn.write_pos < conn.write_buf.len() {
        match (&conn.stream).write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => {
                conn.io_dead = true;
                return;
            }
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.io_dead = true;
                return;
            }
        }
    }
    if conn.write_pos >= conn.write_buf.len() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    } else if conn.write_pos > 64 * 1024 {
        conn.write_buf.drain(..conn.write_pos);
        conn.write_pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksp_proto::frame::read_frame;
    use std::io::Cursor;

    fn framed(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind, payload).unwrap();
        buf
    }

    #[test]
    fn incremental_decode_matches_the_blocking_reader_at_every_split() {
        let bytes = framed(FrameKind::Request, b"incremental decode parity");
        for split in 0..=bytes.len() {
            let mut buf = bytes[..split].to_vec();
            match try_decode(&mut buf) {
                Decoded::NeedMore => assert!(split < bytes.len(), "full frame must decode"),
                Decoded::Frame(kind, payload) => {
                    assert_eq!(split, bytes.len(), "partial frame must not decode");
                    assert_eq!(kind, FrameKind::Request);
                    assert_eq!(payload, b"incremental decode parity");
                    assert!(buf.is_empty(), "the frame must be consumed");
                }
                Decoded::Fail(e) => panic!("split {split} must not fail, got {e}"),
            }
        }
    }

    #[test]
    fn incremental_decode_cuts_coalesced_frames_in_order() {
        let mut buf = framed(FrameKind::Request, b"first");
        buf.extend_from_slice(&framed(FrameKind::Request, b"second"));
        buf.extend_from_slice(&framed(FrameKind::Request, b"third")[..9]); // torn tail
        let Decoded::Frame(_, p1) = try_decode(&mut buf) else { panic!("first frame") };
        let Decoded::Frame(_, p2) = try_decode(&mut buf) else { panic!("second frame") };
        assert_eq!((p1.as_slice(), p2.as_slice()), (&b"first"[..], &b"second"[..]));
        assert!(matches!(try_decode(&mut buf), Decoded::NeedMore));
        assert_eq!(buf.len(), 9, "the torn tail stays buffered");
    }

    #[test]
    fn incremental_decode_validates_in_the_blocking_readers_order() {
        // Bad magic.
        let mut bad_magic = framed(FrameKind::Request, b"x");
        bad_magic[0] = b'Z';
        assert!(matches!(try_decode(&mut bad_magic), Decoded::Fail(FrameError::BadMagic { .. })));
        // Foreign version beats bad kind: version is validated first.
        let mut foreign = framed(FrameKind::Request, b"x");
        foreign[4..8].copy_from_slice(&0xBEEF_u32.to_le_bytes());
        foreign[8] = 9;
        assert!(matches!(
            try_decode(&mut foreign),
            Decoded::Fail(FrameError::VersionMismatch { theirs: 0xBEEF, .. })
        ));
        // Bad kind.
        let mut bad_kind = framed(FrameKind::Request, b"x");
        bad_kind[8] = 7;
        assert!(matches!(try_decode(&mut bad_kind), Decoded::Fail(FrameError::BadKind(7))));
        // Oversized declared length fails on the header alone — no payload
        // bytes needed, no allocation made.
        let mut oversized = framed(FrameKind::Request, b"x")[..FRAME_HEADER_LEN].to_vec();
        oversized[9..13].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(try_decode(&mut oversized), Decoded::Fail(FrameError::Oversized { .. })));
        // CRC mismatch, only once the payload is complete.
        let mut corrupt = framed(FrameKind::Request, b"payload");
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert!(matches!(try_decode(&mut corrupt), Decoded::Fail(FrameError::CrcMismatch { .. })));
    }

    #[test]
    fn decoded_frames_equal_the_blocking_readers_output() {
        for payload in [&b""[..], b"a", b"some longer payload with bytes \x00\xff"] {
            let bytes = framed(FrameKind::Response, payload);
            let blocking = read_frame(&mut Cursor::new(bytes.clone())).unwrap().unwrap();
            let mut buf = bytes;
            let Decoded::Frame(kind, incremental) = try_decode(&mut buf) else {
                panic!("must decode")
            };
            assert_eq!((kind, incremental), blocking);
        }
    }
}
