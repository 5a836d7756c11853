//! The load generator: one thread, two nonblocking connections, request
//! `i` on connection `i % 2`. Open-loop requests are sent when their
//! precomputed due time arrives whatever the server is doing, and their
//! latency counts from the due time, so a stall in the generator or the
//! server is charged to every request it delays.

use crate::wire;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long after the last due time outstanding replies are awaited; a
/// request still unanswered then is lost.
const DRAIN: Duration = Duration::from_secs(2);
/// Below this distance to the next due time the generator spins instead
/// of sleeping in `ppoll`, whose wake-up may be ~50 µs late (timer slack).
const SPIN_NS: u64 = 100_000;
/// A connection whose unsent bytes exceed this takes no further requests;
/// they are recorded as unsent.
const MAX_UNSENT_BYTES: usize = 1 << 20;

#[repr(C)]
struct PollFd {
    fd: std::os::raw::c_int,
    events: std::os::raw::c_short,
    revents: std::os::raw::c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: std::os::raw::c_long,
}

const POLLIN: std::os::raw::c_short = 0x001;
const POLLOUT: std::os::raw::c_short = 0x004;

extern "C" {
    // The standard library has no readiness wait over several sockets;
    // `ppoll(2)` is the one foreign call the generator needs, for a
    // timeout finer than `poll`'s milliseconds.
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::os::raw::c_void,
    ) -> std::os::raw::c_int;
}

/// One nonblocking connection with its unsent and unparsed bytes.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inb: Vec<u8>,
    in_len: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let err = |e: std::io::Error| format!("connect {addr}: {e}");
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).map_err(err)?;
        stream.set_nodelay(true).map_err(err)?;
        stream.set_nonblocking(true).map_err(err)?;
        Ok(Self { stream, out: Vec::new(), out_pos: 0, inb: vec![0; 1 << 16], in_len: 0 })
    }

    fn unsent(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Writes as much of the unsent bytes as the socket takes.
    fn flush(&mut self) -> Result<(), String> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }

    /// Reads what the socket holds and hands each complete frame to `f`.
    fn drain_frames(
        &mut self,
        mut f: impl FnMut(wire::Header, &[u8]) -> Result<(), String>,
    ) -> Result<(), String> {
        loop {
            if self.in_len == self.inb.len() {
                self.inb.resize(self.inb.len() * 2, 0);
            }
            match self.stream.read(&mut self.inb[self.in_len..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => self.in_len += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read: {e}")),
            }
            let mut start = 0;
            while let Some((header, payload, used)) = wire::decode(&self.inb[start..self.in_len])? {
                f(header, payload)?;
                start += used;
            }
            self.inb.copy_within(start..self.in_len, 0);
            self.in_len -= start;
        }
    }
}

/// Sleeps until a connection is readable (or writable, if it has unsent
/// bytes) or `timeout_ns` passes.
fn wait_ready(conns: &[Conn; 2], timeout_ns: u64) {
    let mut fds = [0, 1].map(|i| PollFd {
        fd: conns[i].stream.as_raw_fd(),
        events: if conns[i].unsent() > 0 { POLLIN | POLLOUT } else { POLLIN },
        revents: 0,
    });
    let ts = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as std::os::raw::c_long,
    };
    // SAFETY: `fds` is a live array of two `pollfd`-layout structs and
    // `nfds` is its length; `ts` outlives the call; a null signal mask is
    // allowed. The descriptors belong to `conns`, borrowed for the call.
    // The return value is not needed: on timeout, readiness or EINTR the
    // caller looks at the clock and the sockets again.
    unsafe { ppoll(fds.as_mut_ptr(), 2, &ts, std::ptr::null()) };
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Never handed to a socket: the connection's unsent bytes were over the cap.
    Unsent,
    /// Sent; no reply by the end of the drain.
    Lost,
    /// A RESULT that passed every check.
    Ok,
    /// RETRY_AFTER: the server refused the request. Never retried.
    Refused,
    /// ERROR frame or a RESULT that failed a check.
    Failed,
}

/// What happened to one request; times are ns since the generator's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    pub due_ns: u64,
    pub sent_ns: u64,
    pub reply_ns: u64,
    pub outcome: Outcome,
    /// Returned ids found in the exact top-k (of k).
    pub hits: u8,
}

/// The inputs every request is built from and checked against.
pub struct Corpus {
    /// Query vectors as little-endian `f32` bytes.
    pub queries_le: Vec<Vec<u8>>,
    /// Exact top-k ids per query.
    pub truth: Vec<Vec<u32>>,
    /// Seeded order in which requests walk the queries.
    pub order: Vec<u32>,
    pub k: usize,
    pub n_base: u32,
}

impl Corpus {
    /// Request `id` carries query `order[id mod nq]` (low 32 bits of the
    /// id, so id ranges can be told apart by their high bits).
    fn query_of(&self, id: u64) -> usize {
        self.order[(id & 0xFFFF_FFFF) as usize % self.order.len()] as usize
    }

    /// Checks a RESULT for request `id`; the hits against the exact top-k.
    fn check(&self, id: u64, payload: &[u8], ids: &mut Vec<u32>) -> Result<u8, &'static str> {
        wire::check_result(payload, self.k, self.n_base, ids)?;
        let truth = &self.truth[self.query_of(id)];
        Ok(ids.iter().filter(|id| truth.contains(id)).count() as u8)
    }
}

pub struct Generator {
    pub conns: [Conn; 2],
    epoch: Instant,
    /// First ERROR text or failed check seen, for the failure report.
    pub first_failure: Option<String>,
}

/// Request ids of the unloaded closed loop: apart from the open loop's,
/// which index its schedule from 0.
const CLOSED_LOOP_BASE: u64 = 1 << 32;
const PING_BASE: u64 = 1 << 40;

impl Generator {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        Ok(Self {
            conns: [Conn::connect(addr)?, Conn::connect(addr)?],
            epoch: Instant::now(),
            first_failure: None,
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sends the frame already in `conns[c].out`, waits for the one reply
    /// and hands it to `f`; the reply time minus the send time, ns.
    fn round_trip(
        &mut self,
        c: usize,
        mut f: impl FnMut(wire::Header, &[u8]) -> Result<(), String>,
    ) -> Result<u64, String> {
        let sent = self.now_ns();
        let deadline = sent + DRAIN.as_nanos() as u64;
        let mut replied = None;
        loop {
            self.conns[c].flush()?;
            let epoch = self.epoch;
            self.conns[c].drain_frames(|h, p| {
                replied = Some(epoch.elapsed().as_nanos() as u64);
                f(h, p)
            })?;
            if let Some(t) = replied {
                return Ok(t - sent);
            }
            let now = self.now_ns();
            if now >= deadline {
                return Err("no reply within 2 s on an idle server".into());
            }
            wait_ready(&self.conns, deadline - now);
        }
    }

    /// `n` PING round trips, alternating connections; each PONG must echo
    /// its payload. Round-trip times in ns.
    pub fn ping(&mut self, n: usize) -> Result<Vec<u64>, String> {
        let mut rtts = Vec::with_capacity(n);
        for i in 0..n {
            let id = PING_BASE + i as u64;
            let payload = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes();
            let c = i % 2;
            wire::put_ping(&mut self.conns[c].out, id, &payload);
            rtts.push(self.round_trip(c, |h, p| {
                if h.opcode != wire::OP_PONG || h.request_id != id || p != payload {
                    return Err(format!(
                        "PING {id} answered by opcode {:#x} id {}",
                        h.opcode, h.request_id
                    ));
                }
                Ok(())
            })?);
        }
        Ok(rtts)
    }

    /// Closed loop with one request outstanding for `span`: the path
    /// length of a request that never queues. Round-trip times in ns.
    pub fn closed_loop(&mut self, corpus: &Corpus, span: Duration) -> Result<Vec<u64>, String> {
        let (mut rtts, mut ids) = (Vec::new(), Vec::new());
        let end = self.now_ns() + span.as_nanos() as u64;
        let mut i = 0u64;
        while self.now_ns() < end {
            let id = CLOSED_LOOP_BASE + i;
            let c = (i % 2) as usize;
            let ts_us = self.now_ns() / 1000;
            wire::put_search(
                &mut self.conns[c].out,
                id,
                &corpus.queries_le[corpus.query_of(id)],
                ts_us,
            );
            rtts.push(self.round_trip(c, |h, p| {
                if h.request_id != id || h.opcode != wire::OP_RESULT {
                    return Err(format!(
                        "unloaded request {id} answered by opcode {:#x}",
                        h.opcode
                    ));
                }
                corpus.check(id, p, &mut ids).map(|_| ()).map_err(|e| format!("request {id}: {e}"))
            })?);
            i += 1;
        }
        Ok(rtts)
    }

    /// Replays the schedule `due_ns` (ns from now). Request `i` has wire
    /// id `i`. `on_mark(j)` runs once when the clock passes `marks_ns[j]`
    /// (ascending, same origin as `due_ns`), for reading counters at the
    /// window's edges from this thread. Returns one record per request;
    /// record times are relative to the schedule's origin.
    pub fn open_loop(
        &mut self,
        corpus: &Corpus,
        due_ns: &[u64],
        marks_ns: &[u64],
        mut on_mark: impl FnMut(usize) -> Result<(), String>,
    ) -> Result<Vec<Record>, String> {
        let origin = self.now_ns();
        let mut records: Vec<Record> = due_ns
            .iter()
            .map(|&due_ns| Record {
                due_ns,
                sent_ns: 0,
                reply_ns: 0,
                outcome: Outcome::Unsent,
                hits: 0,
            })
            .collect();
        let mut ids = Vec::new();
        let mut first_failure = self.first_failure.take();
        let (mut next, mut next_mark, mut outstanding) = (0usize, 0usize, 0usize);
        let last_due = due_ns.last().copied().unwrap_or(0);
        let end = last_due.max(marks_ns.last().copied().unwrap_or(0));
        loop {
            let now = self.now_ns() - origin;
            while next_mark < marks_ns.len() && marks_ns[next_mark] <= now {
                on_mark(next_mark)?;
                next_mark += 1;
            }
            while next < records.len() && records[next].due_ns <= now {
                let conn = &mut self.conns[next % 2];
                if conn.unsent() <= MAX_UNSENT_BYTES {
                    let sent = self.epoch.elapsed().as_nanos() as u64 - origin;
                    let query = &corpus.queries_le[corpus.query_of(next as u64)];
                    wire::put_search(&mut conn.out, next as u64, query, (origin + sent) / 1000);
                    conn.flush()?;
                    records[next].sent_ns = sent;
                    records[next].outcome = Outcome::Lost;
                    outstanding += 1;
                }
                next += 1;
            }
            for c in 0..2 {
                self.conns[c].flush()?;
                let epoch = self.epoch;
                self.conns[c].drain_frames(|h, p| {
                    let reply_ns = epoch.elapsed().as_nanos() as u64 - origin;
                    let rec = records
                        .get_mut(h.request_id as usize)
                        .filter(|r| r.outcome == Outcome::Lost)
                        .ok_or_else(|| {
                            format!("reply for unknown or answered request {}", h.request_id)
                        })?;
                    rec.reply_ns = reply_ns;
                    outstanding -= 1;
                    let failure = match h.opcode {
                        wire::OP_RESULT => match corpus.check(h.request_id, p, &mut ids) {
                            Ok(hits) => {
                                rec.hits = hits;
                                rec.outcome = Outcome::Ok;
                                return Ok(());
                            }
                            Err(e) => e.to_string(),
                        },
                        wire::OP_RETRY_AFTER => match wire::retry_after_us(p) {
                            Ok(_) => {
                                rec.outcome = Outcome::Refused;
                                return Ok(());
                            }
                            Err(e) => e.to_string(),
                        },
                        wire::OP_ERROR => wire::error_text(p),
                        other => return Err(format!("unexpected reply opcode {other:#x}")),
                    };
                    rec.outcome = Outcome::Failed;
                    first_failure.get_or_insert(format!("request {}: {failure}", h.request_id));
                    Ok(())
                })?;
            }
            let now = self.now_ns() - origin;
            let wake = if next < records.len() {
                records[next].due_ns
            } else if next_mark < marks_ns.len() {
                marks_ns[next_mark]
            } else if outstanding > 0 && now < end + DRAIN.as_nanos() as u64 {
                end + DRAIN.as_nanos() as u64
            } else {
                break;
            };
            if wake > now + SPIN_NS {
                wait_ready(&self.conns, wake - now - SPIN_NS);
            } else {
                std::hint::spin_loop();
            }
        }
        self.first_failure = first_failure;
        Ok(records)
    }
}
