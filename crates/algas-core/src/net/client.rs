//! [`NetClient`]: a small blocking client for the query protocol.
//!
//! Sends are independent of receives, so a single client can keep many
//! requests in flight on one connection (pipelining) and collect
//! replies in whatever order the server completes them — replies carry
//! the request id, never positional meaning. [`NetClient::search`] is
//! the one-shot convenience wrapper.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use super::frame::{self, Decoded, Opcode};

/// A decoded server reply.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// TopK for the SEARCH with this id.
    Result {
        /// Echoed request id.
        request_id: u64,
        /// TopK ids, ascending by distance.
        ids: Vec<u32>,
        /// Matching distances.
        distances: Vec<f32>,
    },
    /// Echo of a PING.
    Pong {
        /// Echoed request id.
        request_id: u64,
        /// The echoed payload.
        payload: Vec<u8>,
    },
    /// The stats snapshot JSON.
    Stats {
        /// Echoed request id.
        request_id: u64,
        /// The [`crate::obs::RuntimeStats`] JSON document.
        json: String,
    },
    /// The request failed.
    Error {
        /// Echoed request id (0 when framing was lost).
        request_id: u64,
        /// An [`super::ErrorCode`] value.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// The server is loaded; retry after the suggested delay.
    RetryAfter {
        /// Echoed request id.
        request_id: u64,
        /// Suggested client-side delay before retrying.
        delay_us: u32,
    },
}

impl Reply {
    /// The echoed request id, whatever the reply kind.
    pub fn request_id(&self) -> u64 {
        match *self {
            Reply::Result { request_id, .. }
            | Reply::Pong { request_id, .. }
            | Reply::Stats { request_id, .. }
            | Reply::Error { request_id, .. }
            | Reply::RetryAfter { request_id, .. } => request_id,
        }
    }
}

/// A blocking pipelining client over one TCP connection.
pub struct NetClient {
    stream: TcpStream,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
    rlen: usize,
}

impl NetClient {
    /// Connects (Nagle off — this is a latency benchmark protocol).
    ///
    /// # Errors
    /// Propagates connect failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream, wbuf: Vec::new(), rbuf: Vec::new(), rlen: 0 })
    }

    /// Bounds how long [`NetClient::recv`] blocks (None = forever).
    ///
    /// # Errors
    /// Propagates the socket option failure.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(dur)
    }

    /// Sends a SEARCH frame; does not wait for the reply.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn send_search(&mut self, request_id: u64, query: &[f32]) -> io::Result<()> {
        self.wbuf.clear();
        frame::encode_search(&mut self.wbuf, request_id, query);
        self.stream.write_all(&self.wbuf)
    }

    /// Sends a SEARCH frame carrying a client-send timestamp
    /// (`FLAG_CLIENT_TS`): `client_ts_us` rides in the payload tail
    /// and lands in the server's query log next to this request id, so
    /// wire-transit delay is attributable per query.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn send_search_ts(
        &mut self,
        request_id: u64,
        query: &[f32],
        client_ts_us: u64,
    ) -> io::Result<()> {
        self.wbuf.clear();
        frame::encode_search_ts(&mut self.wbuf, request_id, query, client_ts_us);
        self.stream.write_all(&self.wbuf)
    }

    /// Sends a PING frame.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn send_ping(&mut self, request_id: u64, payload: &[u8]) -> io::Result<()> {
        self.wbuf.clear();
        frame::encode_frame(&mut self.wbuf, Opcode::Ping, request_id, payload);
        self.stream.write_all(&self.wbuf)
    }

    /// Sends a STATS frame.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn send_stats(&mut self, request_id: u64) -> io::Result<()> {
        self.wbuf.clear();
        frame::encode_frame(&mut self.wbuf, Opcode::Stats, request_id, &[]);
        self.stream.write_all(&self.wbuf)
    }

    /// Sends raw bytes as-is — test hook for malformed input.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Blocks until the next complete reply frame arrives.
    ///
    /// # Errors
    /// `UnexpectedEof` if the server closed; `InvalidData` if the
    /// server sent bytes that don't frame or an opcode that isn't a
    /// reply; otherwise the underlying socket error (including
    /// `WouldBlock`/`TimedOut` when a read timeout is set).
    pub fn recv(&mut self) -> io::Result<Reply> {
        loop {
            match frame::decode_frame(&self.rbuf[..self.rlen], frame::DEFAULT_MAX_PAYLOAD) {
                Ok(Decoded::Frame { header, payload, consumed }) => {
                    let reply = parse_reply(header, payload)?;
                    self.rbuf.copy_within(consumed..self.rlen, 0);
                    self.rlen -= consumed;
                    return Ok(reply);
                }
                Ok(Decoded::NeedMore) => {
                    const CHUNK: usize = 16 * 1024;
                    if self.rbuf.len() < self.rlen + CHUNK {
                        self.rbuf.resize(self.rlen + CHUNK, 0);
                    }
                    let n = self.stream.read(&mut self.rbuf[self.rlen..])?;
                    if n == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        ));
                    }
                    self.rlen += n;
                }
                Err(e) => {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
                }
            }
        }
    }

    /// Convenience: one SEARCH, block for its reply (which, on a
    /// connection with nothing else in flight, is the next frame).
    ///
    /// # Errors
    /// Propagates send/recv failures.
    pub fn search(&mut self, request_id: u64, query: &[f32]) -> io::Result<Reply> {
        self.send_search(request_id, query)?;
        self.recv()
    }
}

fn parse_reply(header: frame::FrameHeader, payload: &[u8]) -> io::Result<Reply> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let request_id = header.request_id;
    match header.opcode {
        Opcode::Result => {
            let (mut ids, mut distances) = (Vec::new(), Vec::new());
            frame::decode_result_into(payload, &mut ids, &mut distances)
                .map_err(|_| bad("malformed RESULT payload"))?;
            Ok(Reply::Result { request_id, ids, distances })
        }
        Opcode::Pong => Ok(Reply::Pong { request_id, payload: payload.to_vec() }),
        Opcode::StatsReply => Ok(Reply::Stats {
            request_id,
            json: String::from_utf8(payload.to_vec()).map_err(|_| bad("non-UTF8 stats"))?,
        }),
        Opcode::Error => {
            let (code, message) = frame::decode_error(payload);
            Ok(Reply::Error { request_id, code, message })
        }
        Opcode::RetryAfter => {
            let delay_us =
                frame::decode_retry_after(payload).ok_or_else(|| bad("malformed RETRY_AFTER"))?;
            Ok(Reply::RetryAfter { request_id, delay_us })
        }
        Opcode::Search | Opcode::Ping | Opcode::Stats => Err(bad("request opcode in reply")),
    }
}
