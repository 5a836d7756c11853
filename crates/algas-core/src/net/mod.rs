//! The network front end: a compact binary query protocol over TCP.
//!
//! * [`frame`] — the length-prefixed little-endian wire format
//!   (SEARCH / PING / STATS requests, RESULT / PONG / STATS_REPLY /
//!   ERROR / RETRY_AFTER replies) with a resumable, allocation-free
//!   codec.
//! * [`poll`] — [`poll::Poller`] / [`poll::Waker`]: the `poll(2)`
//!   readiness wait and its cross-thread wake-up; the one way the
//!   crate blocks on sockets.
//! * [`lifecycle`] — the shared nonblocking-listener stop path used by
//!   both this server and the [`crate::obs::http::StatsServer`].
//! * [`server`] — [`server::NetServer`]: a readiness loop over
//!   `std::net` sockets that decodes pipelined requests, submits them
//!   to the [`crate::runtime::AlgasServer`] slot runtime, and is woken
//!   to complete responses out of order as slots finish, with
//!   RETRY_AFTER backpressure once the in-flight budget or submission
//!   queue fills.
//! * [`client`] — [`client::NetClient`]: a blocking pipelining client.

pub mod client;
pub mod frame;
pub mod lifecycle;
pub mod poll;
pub mod server;

use crate::obs::hist::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Always-on network counters (like the runtime's query counters,
/// these are live even with the `obs` feature off — they are the
/// protocol's source of truth for backpressure accounting).
#[derive(Default)]
pub(crate) struct NetCounters {
    pub connections_accepted: AtomicU64,
    pub connections_closed: AtomicU64,
    pub frames_in: AtomicU64,
    pub frames_out: AtomicU64,
    pub bytes_in: AtomicU64,
    pub bytes_out: AtomicU64,
    pub protocol_errors: AtomicU64,
    pub backpressure_rejects: AtomicU64,
    /// RETRY_AFTER advised delays (µs): how hard the server is asking
    /// clients to back off, not just how often.
    pub retry_backoff_us: Histogram,
    /// Telemetry cells of the currently open connections. Registration
    /// happens at accept (not steady state, so the allocation is fine);
    /// the event loop keeps its own `Arc` and bumps cells lock-free.
    pub conns: Mutex<Vec<Arc<ConnCells>>>,
}

/// Live per-connection telemetry cells, shared between the event loop
/// (relaxed bumps) and the stats snapshot (relaxed reads).
pub(crate) struct ConnCells {
    pub id: u64,
    pub inflight: AtomicU64,
    pub bytes_in: AtomicU64,
    pub bytes_out: AtomicU64,
    pub backlog_high_water: AtomicU64,
    pub errors: AtomicU64,
    pub retry_afters: AtomicU64,
}

impl ConnCells {
    fn new(id: u64) -> Self {
        Self {
            id,
            inflight: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            backlog_high_water: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            retry_afters: AtomicU64::new(0),
        }
    }

    /// Raises the write-backlog high-water mark to `backlog` if higher.
    pub fn note_backlog(&self, backlog: u64) {
        if backlog > self.backlog_high_water.load(Ordering::Relaxed) {
            self.backlog_high_water.store(backlog, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> ConnStats {
        ConnStats {
            id: self.id,
            inflight: self.inflight.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            backlog_high_water: self.backlog_high_water.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            retry_afters: self.retry_afters.load(Ordering::Relaxed),
        }
    }
}

impl NetCounters {
    pub(crate) fn snapshot(&self) -> NetStats {
        NetStats {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            backpressure_rejects: self.backpressure_rejects.load(Ordering::Relaxed),
        }
    }

    /// Registers a newly accepted connection's telemetry cells.
    pub(crate) fn register_conn(&self, id: u64) -> Arc<ConnCells> {
        let cells = Arc::new(ConnCells::new(id));
        crate::lock(&self.conns).push(Arc::clone(&cells));
        cells
    }

    /// Drops a closed connection from the open-connection registry.
    pub(crate) fn unregister_conn(&self, id: u64) {
        crate::lock(&self.conns).retain(|c| c.id != id);
    }

    /// Per-connection snapshots of the currently open connections,
    /// ordered by connection id.
    pub(crate) fn conn_snapshots(&self) -> Vec<ConnStats> {
        let mut out: Vec<ConnStats> =
            crate::lock(&self.conns).iter().map(|c| c.snapshot()).collect();
        out.sort_by_key(|c| c.id);
        out
    }

    /// Snapshot of the advised RETRY_AFTER delays (µs).
    pub(crate) fn backoff_snapshot(&self) -> HistogramSnapshot {
        self.retry_backoff_us.snapshot()
    }
}

/// A point-in-time view of the network front end's counters. Carried
/// in [`crate::obs::RuntimeStats::net`] (all-zero when no listener is
/// running) and exposed as the `algas_net_*` Prometheus families.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// TCP connections accepted by the query listener.
    pub connections_accepted: u64,
    /// Connections fully closed (EOF, error, or shutdown).
    pub connections_closed: u64,
    /// Complete frames decoded from clients.
    pub frames_in: u64,
    /// Complete frames written to clients.
    pub frames_out: u64,
    /// Raw bytes read from client sockets.
    pub bytes_in: u64,
    /// Raw bytes written to client sockets.
    pub bytes_out: u64,
    /// Frames rejected as malformed (bad magic/version/opcode/payload).
    pub protocol_errors: u64,
    /// Requests answered with RETRY_AFTER instead of being queued.
    pub backpressure_rejects: u64,
}

/// A point-in-time view of one open connection's telemetry. Carried in
/// [`crate::obs::RuntimeStats::net_conns`] (closed connections drop out
/// of the list; their traffic stays in the [`NetStats`] totals) and
/// listed on `/stats.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Connection id (monotone accept order, starting at 1).
    pub id: u64,
    /// Requests currently submitted and not yet replied to.
    pub inflight: u64,
    /// Raw bytes read from this connection.
    pub bytes_in: u64,
    /// Raw bytes written to this connection.
    pub bytes_out: u64,
    /// Largest pending-write backlog seen (bytes).
    pub backlog_high_water: u64,
    /// Protocol errors answered on this connection.
    pub errors: u64,
    /// RETRY_AFTER responses sent on this connection.
    pub retry_afters: u64,
}

pub use client::{NetClient, Reply};
pub use frame::{DecodeError, Decoded, ErrorCode, FrameHeader, Opcode};
pub use server::{NetConfig, NetServer};
