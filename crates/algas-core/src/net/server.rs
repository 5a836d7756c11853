//! [`NetServer`]: the query protocol's readiness loop.
//!
//! One thread owns a nonblocking `TcpListener` plus every accepted
//! connection and blocks in [`Poller::wait`] (`poll(2)`; no epoll, no
//! async runtime) until a socket is ready or a worker wakes it with a
//! finished reply. Each pass:
//!
//! 0. **wait** — register the listener and every reading connection
//!    for input, every connection with an unflushed write buffer for
//!    output, and block; nothing below touches a socket the wait did
//!    not report;
//! 1. **accept** — drain the listener's accept queue;
//! 2. **read** — per ready connection, pull bytes into its read buffer
//!    and decode as many complete frames as arrived (partial frames
//!    stay buffered and resume on a later pass);
//! 3. **submit** — SEARCH frames go straight into the
//!    [`AlgasServer`] submission queue; each accepted request takes a
//!    token in the in-flight slab (`token → connection, request id`)
//!    and hands the runtime the loop's one [`CompletionQueue`] to
//!    reply on;
//! 4. **complete** — drain that queue; each `(token, reply)` resolves
//!    through the slab in O(1) and is encoded into its connection's
//!    write buffer *in completion order*, which is how out-of-order
//!    pipelining falls out for free;
//! 5. **write** — flush write buffers; `WouldBlock` leaves the tail
//!    for the pass in which the socket reports writable
//!    (partial-write resume).
//!
//! **Backpressure** is protocol-level, not TCP-level: when the
//! runtime's bounded submission queue — the one place load is refused —
//! rejects a submit ([`SubmitError::QueueFull`]), the request is
//! answered immediately with RETRY_AFTER carrying a suggested delay
//! derived from the SLO controller's live p99 (its view of load),
//! instead of queueing unboundedly. Rejections are counted in
//! [`super::NetStats::backpressure_rejects`].
//!
//! The loop keeps no counters of its own: it bumps the runtime's, so
//! [`AlgasServer::runtime_stats`] carries them to every surface.
//!
//! Stopping uses the shared [`super::lifecycle`] path: set the flag,
//! wake the loop, drain in-flight replies and write buffers for at
//! most the 500 ms linger, join.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::frame::{self, Decoded, ErrorCode, Opcode};
use super::lifecycle::{ListenerHandle, MAX_PARK};
use super::poll::{Key, Poller};
use super::{ConnCells, NetCounters};
use crate::obs::qlog::{STATUS_ERROR, STATUS_REJECTED};
use crate::runtime::{AlgasServer, CompletionQueue, ReplyTo, SearchReply, SubmitError, WireCtx};

/// A running query listener over an [`AlgasServer`].
pub struct NetServer {
    handle: ListenerHandle,
}

impl NetServer {
    /// Binds `addr` (port 0 for ephemeral) and starts the readiness
    /// loop serving queries from `server`.
    ///
    /// # Errors
    /// Propagates bind / spawn failures.
    pub fn start(addr: impl ToSocketAddrs, server: Arc<AlgasServer>) -> std::io::Result<Self> {
        let handle = ListenerHandle::spawn("algas-net", addr, move |listener, stop, poller| {
            event_loop(&listener, stop, poller, &server);
        })?;
        Ok(Self { handle })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    /// Stops accepting, drains for at most 500 ms, joins the
    /// loop thread. The underlying [`AlgasServer`] keeps running.
    pub fn stop(self) {
        self.handle.stop();
    }
}

/// Max simultaneously open connections; excess accepts are closed
/// immediately.
const MAX_CONNS: usize = 1024;
/// How long `stop()` keeps draining in-flight replies and unflushed
/// write buffers before closing connections.
const LINGER: Duration = Duration::from_millis(500);
/// Per-pass read chunk; also the initial read-buffer headroom.
const READ_CHUNK: usize = 16 * 1024;
/// A connection whose unflushed write buffer exceeds this is a slow
/// consumer and gets dropped (bounds server-side memory per client).
const MAX_WRITE_BACKLOG: usize = 8 * 1024 * 1024;

struct Conn {
    stream: TcpStream,
    /// Read buffer; bytes `[0..rlen)` are valid undecoded input.
    rbuf: Vec<u8>,
    rlen: usize,
    /// Write buffer; bytes `[wpos..wbuf.len())` are pending output.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Stop reading (EOF or fatal frame error); flush + drain, then
    /// close.
    closing: bool,
    /// Guards the in-flight slab against connection-slot reuse.
    gen: u64,
    /// This pass's registration with the poller. `None`: accepted
    /// during the pass, or nothing to wait for on this socket (not
    /// reading and fully flushed) — such a connection only moves when
    /// one of its replies completes.
    key: Option<Key>,
    /// The write buffer was already backed up when this pass
    /// registered, so the socket is written again only once the poller
    /// reports room. Output produced during the pass is written
    /// straight away.
    backed_up: bool,
    /// Shared per-connection telemetry cells; also registered with the
    /// runtime's counters so `/stats.json` lists the open connections.
    cells: Arc<ConnCells>,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.wpos == self.wbuf.len()
    }
}

/// Who is owed the reply a token stands for.
struct Pending {
    conn: usize,
    gen: u64,
    request_id: u64,
}

/// The in-flight table: a token is an index, so a completion finds its
/// request without a search. A token is issued at submit and retired
/// by its one completion (or at once, if the submit is refused), so an
/// index is never reused while the runtime still holds it.
#[derive(Default)]
struct Slab {
    entries: Vec<Option<Pending>>,
    free: Vec<usize>,
}

impl Slab {
    fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    fn insert(&mut self, pending: Pending) -> u64 {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.entries.push(None);
            self.entries.len() - 1
        });
        self.entries[idx] = Some(pending);
        idx as u64
    }

    fn remove(&mut self, token: u64) -> Option<Pending> {
        let idx = usize::try_from(token).ok()?;
        let pending = self.entries.get_mut(idx)?.take()?;
        self.free.push(idx);
        Some(pending)
    }
}

/// What every connection's frame handling shares within the loop.
struct Front<'a> {
    server: &'a Arc<AlgasServer>,
    counters: &'a NetCounters,
    dim: usize,
    /// The one queue every submitted request replies on.
    completions: Arc<CompletionQueue>,
    pending: Slab,
    scratch_query: Vec<f32>,
}

fn event_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    poller: &mut Poller,
    server: &Arc<AlgasServer>,
) {
    let counters = server.net_counters();
    let dim = server.dim();
    let mut front = Front {
        server,
        counters,
        dim,
        completions: Arc::new(CompletionQueue::new(poller.waker())),
        pending: Slab::default(),
        scratch_query: Vec::with_capacity(dim),
    };
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut completed: VecDeque<(u64, SearchReply)> = VecDeque::new();
    let mut next_gen: u64 = 0;
    let mut linger_deadline: Option<Instant> = None;
    // Set while `accept` is failing hard (descriptor exhaustion): the
    // listener stays readable then, and polling it would spin.
    let mut accept_retry_at: Option<Instant> = None;
    // Thread-state marker for the sampling profiler: one relaxed store
    // per phase transition (a no-op with `obs` compiled out).
    let prof = server.prof_registry().register(crate::obs::ThreadKind::Net, "net-loop");
    use crate::obs::ProfState;

    loop {
        // Stopping: no more accepts or reads; leave once everything
        // owed is written, or the linger runs out.
        let stopping = stop.load(Ordering::Acquire);
        if stopping {
            let deadline = *linger_deadline.get_or_insert_with(|| Instant::now() + LINGER);
            let drained = front.pending.len() == 0 && conns.iter().flatten().all(Conn::flushed);
            if drained || Instant::now() >= deadline {
                break;
            }
        }

        // 0. Wait for a ready socket, a finished reply or a stop
        // request. The re-check names the two things announced through
        // the waker (see `net::poll` for why neither can be missed);
        // MAX_PARK bounds the linger-deadline overshoot.
        poller.clear();
        if accept_retry_at.is_some_and(|at| Instant::now() >= at) {
            accept_retry_at = None;
        }
        let listener_key =
            (!stopping && accept_retry_at.is_none()).then(|| poller.add(listener, true, false));
        for conn in conns.iter_mut().flatten() {
            let read = !stopping && !conn.closing;
            conn.backed_up = !conn.flushed();
            conn.key =
                (read || conn.backed_up).then(|| poller.add(&conn.stream, read, conn.backed_up));
        }
        prof.stamp(ProfState::Idle);
        poller.wait(MAX_PARK, || {
            !front.completions.is_empty() || (!stopping && stop.load(Ordering::Acquire))
        });

        // 1. Accept burst.
        if listener_key.is_some_and(|key| poller.readable(key)) {
            prof.stamp(ProfState::Accept);
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        // The accept count doubles as the connection id
                        // (monotone, starting at 1) — the label every
                        // per-connection series carries.
                        let conn_id =
                            counters.connections_accepted.fetch_add(1, Ordering::Relaxed) + 1;
                        let open = conns.iter().filter(|c| c.is_some()).count();
                        if open >= MAX_CONNS || stream.set_nonblocking(true).is_err() {
                            counters.connections_closed.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        next_gen += 1;
                        // Unregistered this pass: the next wait reports
                        // whatever the client has already sent.
                        let conn = Conn {
                            stream,
                            rbuf: Vec::new(),
                            rlen: 0,
                            wbuf: Vec::new(),
                            wpos: 0,
                            closing: false,
                            gen: next_gen,
                            key: None,
                            backed_up: false,
                            cells: counters.register_conn(conn_id),
                        };
                        match conns.iter_mut().position(|c| c.is_none()) {
                            Some(idx) => conns[idx] = Some(conn),
                            None => conns.push(Some(conn)),
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        accept_retry_at = Some(Instant::now() + MAX_PARK);
                        break;
                    }
                }
            }
        }

        // 2–3. Read, decode, submit — only where the wait saw input.
        if !stopping {
            prof.stamp(ProfState::Read);
            for (idx, slot) in conns.iter_mut().enumerate() {
                let Some(conn) = slot.as_mut() else { continue };
                if conn.closing || !conn.key.is_some_and(|key| poller.readable(key)) {
                    continue;
                }
                if !read_some(conn, counters) {
                    close_conn(slot, counters);
                    continue;
                }
                prof.stamp(ProfState::Decode);
                decode_and_handle(conn, idx, &mut front);
            }
        }

        // 4. Complete: whatever finished, in the order it finished.
        prof.stamp(ProfState::Complete);
        front.completions.drain_into(&mut completed);
        for (token, reply) in completed.drain(..) {
            let Some(p) = front.pending.remove(token) else { continue };
            // The connection may have died, and its slot been reused,
            // while the query ran; the reply is then dropped.
            let Some(conn) = conns.get_mut(p.conn).and_then(Option::as_mut) else { continue };
            if conn.gen != p.gen {
                continue;
            }
            conn.cells.inflight.fetch_sub(1, Ordering::Relaxed);
            frame::encode_result(&mut conn.wbuf, p.request_id, &reply.ids, &reply.distances);
            counters.frames_out.fetch_add(1, Ordering::Relaxed);
        }

        // 5. Flush writes; reap drained connections.
        prof.stamp(ProfState::Flush);
        for slot in &mut conns {
            let Some(conn) = slot.as_mut() else { continue };
            let has_room = !conn.backed_up || conn.key.is_some_and(|key| poller.writable(key));
            let alive = (!has_room || flush_some(conn, counters)) && !slow_consumer(conn);
            if !alive {
                close_conn(slot, counters);
                continue;
            }
            if conn.closing && conn.cells.inflight.load(Ordering::Relaxed) == 0 && conn.flushed() {
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                close_conn(slot, counters);
            }
        }
    }

    for slot in &mut conns {
        close_conn(slot, counters);
    }
}

/// Pulls what the socket holds into the read buffer. Returns false if
/// the connection died.
fn read_some(conn: &mut Conn, counters: &NetCounters) -> bool {
    loop {
        if conn.rbuf.len() < conn.rlen + READ_CHUNK {
            conn.rbuf.resize(conn.rlen + READ_CHUNK, 0);
        }
        match conn.stream.read(&mut conn.rbuf[conn.rlen..]) {
            Ok(0) => {
                // Clean EOF: the client is done sending; finish what
                // it is owed, then close.
                conn.closing = true;
                return true;
            }
            Ok(n) => {
                conn.rlen += n;
                counters.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                conn.cells.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                // A short read emptied the socket; if more arrived
                // since, the next wait reports it.
                if n < READ_CHUNK {
                    return true;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

/// Decodes every complete frame buffered on `conn` and handles it.
fn decode_and_handle(conn: &mut Conn, conn_idx: usize, front: &mut Front<'_>) {
    let mut cursor = 0;
    loop {
        match frame::decode_frame(&conn.rbuf[cursor..conn.rlen], frame::DEFAULT_MAX_PAYLOAD) {
            Ok(Decoded::NeedMore) => break,
            Ok(Decoded::Frame { header, payload, consumed }) => {
                front.counters.frames_in.fetch_add(1, Ordering::Relaxed);
                // Borrow dance: the payload borrows rbuf, the write
                // path needs wbuf — split the handling out over an
                // explicit range instead.
                let payload_range = (cursor + frame::HEADER_LEN, cursor + consumed);
                debug_assert_eq!(payload.len(), payload_range.1 - payload_range.0);
                cursor += consumed;
                handle_frame(conn, conn_idx, header, payload_range, front);
                if conn.closing {
                    break;
                }
            }
            Err(e) => {
                // Framing is lost: answer once, stop reading, close
                // after the flush.
                front.counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                conn.cells.errors.fetch_add(1, Ordering::Relaxed);
                frame::encode_error(&mut conn.wbuf, 0, e.error_code(), e.message());
                front.counters.frames_out.fetch_add(1, Ordering::Relaxed);
                conn.closing = true;
                break;
            }
        }
    }
    if cursor > 0 {
        conn.rbuf.copy_within(cursor..conn.rlen, 0);
        conn.rlen -= cursor;
    }
}

fn handle_frame(
    conn: &mut Conn,
    conn_idx: usize,
    header: frame::FrameHeader,
    payload_range: (usize, usize),
    front: &mut Front<'_>,
) {
    let id = header.request_id;
    let counters = front.counters;
    match header.opcode {
        Opcode::Search => {
            let payload = &conn.rbuf[payload_range.0..payload_range.1];
            // A flagged SEARCH carries a trailing client-send
            // timestamp (dim x f32 + u64); a plain one is dim x f32.
            let (vector, client_ts_us) = if header.has_client_ts() {
                match frame::split_search_ts(payload) {
                    Ok(pair) if pair.0.len() == front.dim * 4 => pair,
                    _ => (&[][..], 0),
                }
            } else {
                (payload, 0u64)
            };
            if vector.len() != front.dim * 4
                || frame::decode_search_into(vector, &mut front.scratch_query).is_err()
            {
                protocol_error(
                    conn,
                    id,
                    ErrorCode::BadPayload,
                    "SEARCH payload must be dim x finite f32 (+ u64 ts when flagged)",
                    front,
                );
                return;
            }
            let wire = WireCtx { request_id: id, conn_id: conn.cells.id, client_ts_us };
            let token =
                front.pending.insert(Pending { conn: conn_idx, gen: conn.gen, request_id: id });
            let reply_to = ReplyTo::Queue { queue: Arc::clone(&front.completions), token };
            let query = std::mem::take(&mut front.scratch_query);
            match front.server.submit_traced(query, wire, reply_to) {
                Ok(_tag) => {
                    conn.cells.inflight.fetch_add(1, Ordering::Relaxed);
                }
                Err(refused) => {
                    front.pending.remove(token);
                    match refused {
                        // Admission control: the runtime's bounded
                        // queue refuses with RETRY_AFTER rather than
                        // queueing unboundedly.
                        SubmitError::QueueFull => reject(conn, id, front),
                        SubmitError::ShuttingDown => {
                            frame::encode_error(
                                &mut conn.wbuf,
                                id,
                                ErrorCode::ShuttingDown,
                                "server shutting down",
                            );
                            counters.frames_out.fetch_add(1, Ordering::Relaxed);
                            conn.closing = true;
                        }
                    }
                }
            }
        }
        Opcode::Ping => {
            let (start, end) = payload_range;
            // Echo in place: copy the payload tail-first into wbuf via
            // a split borrow of the conn.
            let (rbuf, wbuf) = (&conn.rbuf, &mut conn.wbuf);
            frame::encode_header(wbuf, Opcode::Pong, id, (end - start) as u32);
            wbuf.extend_from_slice(&rbuf[start..end]);
            counters.frames_out.fetch_add(1, Ordering::Relaxed);
        }
        Opcode::Stats => {
            let body = front.server.runtime_stats().to_json();
            frame::encode_frame(&mut conn.wbuf, Opcode::StatsReply, id, body.as_bytes());
            counters.frames_out.fetch_add(1, Ordering::Relaxed);
        }
        // A reply opcode sent as a request: answer an error, keep the
        // connection (the frame boundary is intact).
        Opcode::Result | Opcode::Pong | Opcode::StatsReply | Opcode::Error | Opcode::RetryAfter => {
            protocol_error(conn, id, ErrorCode::BadOpcode, "reply opcode in request", front);
        }
    }
}

/// Answers a request the frame boundary survived but the server cannot
/// serve with ERROR, and logs its wire id in the query log (status
/// "error"). The connection stays open.
fn protocol_error(
    conn: &mut Conn,
    request_id: u64,
    code: ErrorCode,
    message: &str,
    front: &Front<'_>,
) {
    let counters = front.counters;
    counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
    conn.cells.errors.fetch_add(1, Ordering::Relaxed);
    front.server.qlog_refused(request_id, conn.cells.id, STATUS_ERROR);
    frame::encode_error(&mut conn.wbuf, request_id, code, message);
    counters.frames_out.fetch_add(1, Ordering::Relaxed);
}

fn reject(conn: &mut Conn, request_id: u64, front: &Front<'_>) {
    let (server, counters) = (front.server, front.counters);
    counters.backpressure_rejects.fetch_add(1, Ordering::Relaxed);
    conn.cells.retry_afters.fetch_add(1, Ordering::Relaxed);
    let delay_us = suggest_delay_us(server);
    // How hard we asked clients to back off, and which requests were
    // turned away: the advised delay lands in a histogram, the wire id
    // in the query log (status "rejected").
    counters.retry_backoff_us.record(u64::from(delay_us));
    server.qlog_refused(request_id, conn.cells.id, STATUS_REJECTED);
    frame::encode_retry_after(&mut conn.wbuf, request_id, delay_us);
    counters.frames_out.fetch_add(1, Ordering::Relaxed);
}

/// The RETRY_AFTER hint: about two p99s of the SLO controller's live
/// service-time window (its view of current load), falling back to the
/// running mean when the controller is off, clamped to a sane band.
fn suggest_delay_us(server: &AlgasServer) -> u32 {
    let p99_ns = server.controller().last_p99_ns();
    let base_ns = match (p99_ns, server.mean_service_ns()) {
        (0, 0) => 1_000_000, // nothing served yet: suggest 1ms
        (0, mean_ns) => mean_ns,
        (p99_ns, _) => p99_ns,
    };
    ((base_ns * 2) / 1000).clamp(100, 200_000) as u32
}

/// Writes as much pending output as the socket accepts. Returns false
/// if the connection died.
fn flush_some(conn: &mut Conn, counters: &NetCounters) -> bool {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return false,
            Ok(n) => {
                conn.wpos += n;
                counters.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                conn.cells.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    if conn.flushed() {
        // Fully drained: reset in place so the capacity is reused
        // (steady-state encodes stay allocation-free).
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    true
}

/// Records the unflushed backlog and reports whether it has outgrown
/// [`MAX_WRITE_BACKLOG`]. Checked every pass, not only when the socket
/// has room: a client that pipelines requests without ever reading
/// grows the buffer exactly while nothing can be written.
fn slow_consumer(conn: &Conn) -> bool {
    let backlog = conn.wbuf.len() - conn.wpos;
    if backlog > 0 {
        conn.cells.note_backlog(backlog as u64);
    }
    backlog > MAX_WRITE_BACKLOG
}

fn close_conn(slot: &mut Option<Conn>, counters: &NetCounters) {
    if let Some(conn) = slot.take() {
        counters.unregister_conn(conn.cells.id);
        counters.connections_closed.fetch_add(1, Ordering::Relaxed);
    }
}
