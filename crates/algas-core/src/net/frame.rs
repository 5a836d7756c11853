//! The ALGAS binary wire format: length-prefixed frames with a fixed
//! little-endian header.
//!
//! ```text
//! offset  size  field        notes
//! ------  ----  -----------  ----------------------------------------
//!      0     4  magic        0x53474C41 — the bytes b"ALGS"
//!      4     1  version      protocol version, currently 1
//!      5     1  opcode       see [`Opcode`]
//!      6     2  flags        see below; unknown bits are rejected
//!      8     8  request_id   client-chosen, echoed verbatim in replies
//!     16     4  payload_len  bytes of payload following the header
//!     20     …  payload      opcode-specific, see below
//! ```
//!
//! The only defined flag is [`FLAG_CLIENT_TS`] (bit 0), valid solely
//! on `SEARCH` frames: it extends the payload with a trailing `u64`
//! client-send timestamp (microseconds on the *client's* clock, echoed
//! opaquely into the server's query log so a client can correlate its
//! own send time with server-side spans). Every other flag bit is
//! reserved and rejected, so the extension is version-gated: old
//! servers reject flagged frames with `BadPayload` ("reserved flags
//! set") instead of misparsing them, and old clients never set the bit.
//!
//! Payload layouts (all little-endian):
//!
//! * `SEARCH` — `dim × f32` query vector (`payload_len == 4 * dim`);
//!   with [`FLAG_CLIENT_TS`] set, `dim × f32` then `u64 client_ts_us`
//!   (`payload_len == 4 * dim + 8`).
//! * `RESULT` — `u32 n`, then `n × (u32 id, f32 distance)` ascending
//!   by distance.
//! * `PING` / `PONG` — opaque bytes (≤ 64), echoed verbatim.
//! * `STATS` — empty request; `STATS_REPLY` carries the
//!   [`crate::obs::RuntimeStats`] JSON document.
//! * `ERROR` — `u16 code` ([`ErrorCode`]) + UTF-8 message.
//! * `RETRY_AFTER` — `u32 delay_us`: the server is loaded; retry after
//!   the suggested delay.
//!
//! The codec is allocation-free in steady state: [`encode_frame`]
//! appends into a caller-owned `Vec<u8>` (whose capacity is reused)
//! and [`decode_frame`] borrows the payload out of the caller's read
//! buffer. Decoding is resumable — feed any prefix and get
//! [`Decoded::NeedMore`] until a whole frame is buffered.

/// Frame magic: the bytes `b"ALGS"` read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"ALGS");
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 20;
/// Default cap on `payload_len`; larger frames are a protocol error.
/// Generous for any sane query dimension (1 MiB ≈ d = 262144).
pub const DEFAULT_MAX_PAYLOAD: u32 = 1 << 20;
/// Header flag (bit 0), SEARCH only: the payload carries a trailing
/// `u64` client-send timestamp in microseconds after the query vector.
pub const FLAG_CLIENT_TS: u16 = 0x0001;

/// Frame opcodes. Requests have the high bit clear, replies set;
/// `0xE0+` is the error space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Request: search for the TopK of the payload query vector.
    Search = 0x01,
    /// Request: liveness probe; payload echoed back in [`Opcode::Pong`].
    Ping = 0x02,
    /// Request: return the runtime stats snapshot as JSON.
    Stats = 0x03,
    /// Reply to [`Opcode::Search`].
    Result = 0x81,
    /// Reply to [`Opcode::Ping`].
    Pong = 0x82,
    /// Reply to [`Opcode::Stats`].
    StatsReply = 0x83,
    /// Reply: the request failed; payload is `u16 code` + message.
    Error = 0xE0,
    /// Reply: server overloaded; payload is `u32 delay_us`.
    RetryAfter = 0xE1,
}

impl Opcode {
    /// Parses a wire byte; `None` for unknown opcodes.
    pub fn from_u8(v: u8) -> Option<Opcode> {
        Some(match v {
            0x01 => Opcode::Search,
            0x02 => Opcode::Ping,
            0x03 => Opcode::Stats,
            0x81 => Opcode::Result,
            0x82 => Opcode::Pong,
            0x83 => Opcode::StatsReply,
            0xE0 => Opcode::Error,
            0xE1 => Opcode::RetryAfter,
            _ => return None,
        })
    }

    /// The wire byte.
    pub fn as_u8(self) -> u8 {
        self as u8
    }
}

/// Error codes carried in [`Opcode::Error`] payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Header magic did not match [`MAGIC`].
    BadMagic = 1,
    /// Unsupported protocol version.
    BadVersion = 2,
    /// Unknown opcode byte, or a reply opcode sent as a request.
    BadOpcode = 3,
    /// Payload malformed for the opcode (e.g. SEARCH length not
    /// `4 * dim`).
    BadPayload = 4,
    /// `payload_len` exceeded the server's cap.
    Oversize = 5,
    /// The server is shutting down.
    ShuttingDown = 6,
}

/// A decoded frame header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// The frame's opcode.
    pub opcode: Opcode,
    /// Validated flag bits ([`FLAG_CLIENT_TS`] or zero).
    pub flags: u16,
    /// Client-chosen id, echoed in the matching reply.
    pub request_id: u64,
    /// Payload bytes following the header.
    pub payload_len: u32,
}

impl FrameHeader {
    /// True when the SEARCH payload ends in a client-send timestamp.
    pub fn has_client_ts(&self) -> bool {
        self.flags & FLAG_CLIENT_TS != 0
    }
}

/// Why a buffered byte stream cannot be a valid frame. All of these
/// are unrecoverable for the connection: the frame boundary is lost
/// (or untrusted), so the peer answers with one [`Opcode::Error`]
/// frame and closes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// First four bytes were not [`MAGIC`].
    BadMagic,
    /// Version byte we don't speak.
    BadVersion(u8),
    /// Opcode byte outside the vocabulary.
    BadOpcode(u8),
    /// Reserved flags bits were set.
    BadFlags(u16),
    /// `payload_len` exceeded the decoder's cap.
    Oversize {
        /// The offending length from the header.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
}

impl DecodeError {
    /// The [`ErrorCode`] a server reports for this decode failure.
    pub fn error_code(self) -> ErrorCode {
        match self {
            DecodeError::BadMagic => ErrorCode::BadMagic,
            DecodeError::BadVersion(_) => ErrorCode::BadVersion,
            DecodeError::BadOpcode(_) => ErrorCode::BadOpcode,
            DecodeError::BadFlags(_) => ErrorCode::BadPayload,
            DecodeError::Oversize { .. } => ErrorCode::Oversize,
        }
    }

    /// A static human-readable message for the error frame.
    pub fn message(self) -> &'static str {
        match self {
            DecodeError::BadMagic => "bad frame magic",
            DecodeError::BadVersion(_) => "unsupported protocol version",
            DecodeError::BadOpcode(_) => "unknown opcode",
            DecodeError::BadFlags(_) => "reserved flags set",
            DecodeError::Oversize { .. } => "payload exceeds size cap",
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "bad frame magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            DecodeError::BadOpcode(b) => write!(f, "unknown opcode 0x{b:02X}"),
            DecodeError::BadFlags(fl) => write!(f, "reserved flags 0x{fl:04X} set"),
            DecodeError::Oversize { len, max } => {
                write!(f, "payload length {len} exceeds cap {max}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Outcome of [`decode_frame`] on a buffered prefix of the stream.
#[derive(Debug, PartialEq)]
pub enum Decoded<'a> {
    /// Not enough bytes buffered for a whole frame yet; read more and
    /// call again (the partial-frame resume path).
    NeedMore,
    /// One complete frame. `consumed` bytes (header + payload) should
    /// be drained from the buffer before the next call.
    Frame {
        /// The validated header.
        header: FrameHeader,
        /// Payload borrowed from the input buffer.
        payload: &'a [u8],
        /// Total bytes this frame occupied ([`HEADER_LEN`] `+ payload_len`).
        consumed: usize,
    },
}

/// Decodes the first frame buffered in `buf`, if complete.
///
/// Header fields are validated as soon as [`HEADER_LEN`] bytes are
/// present, so garbage is rejected without waiting for a (possibly
/// absurd) payload length to arrive.
///
/// # Errors
/// [`DecodeError`] when the buffered bytes cannot begin a valid frame;
/// the connection should send one error frame and close.
pub fn decode_frame(buf: &[u8], max_payload: u32) -> Result<Decoded<'_>, DecodeError> {
    if buf.len() < HEADER_LEN {
        // Cheap early rejection: if the bytes we *do* have already
        // contradict the magic, don't wait for a full header.
        let magic_prefix = &MAGIC.to_le_bytes()[..buf.len().min(4)];
        if !buf.is_empty() && &buf[..buf.len().min(4)] != magic_prefix {
            return Err(DecodeError::BadMagic);
        }
        return Ok(Decoded::NeedMore);
    }
    let magic = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    if buf[4] != VERSION {
        return Err(DecodeError::BadVersion(buf[4]));
    }
    let opcode = Opcode::from_u8(buf[5]).ok_or(DecodeError::BadOpcode(buf[5]))?;
    let flags = u16::from_le_bytes([buf[6], buf[7]]);
    // FLAG_CLIENT_TS is only meaningful on SEARCH; any other set bit
    // (or the flag on a non-SEARCH frame) is reserved and rejected.
    let valid = if opcode == Opcode::Search { FLAG_CLIENT_TS } else { 0 };
    if flags & !valid != 0 {
        return Err(DecodeError::BadFlags(flags));
    }
    let request_id = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let payload_len = u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes"));
    if payload_len > max_payload {
        return Err(DecodeError::Oversize { len: payload_len, max: max_payload });
    }
    let total = HEADER_LEN + payload_len as usize;
    if buf.len() < total {
        return Ok(Decoded::NeedMore);
    }
    Ok(Decoded::Frame {
        header: FrameHeader { opcode, flags, request_id, payload_len },
        payload: &buf[HEADER_LEN..total],
        consumed: total,
    })
}

/// Appends one complete frame (header + payload) to `out`.
pub fn encode_frame(out: &mut Vec<u8>, opcode: Opcode, request_id: u64, payload: &[u8]) {
    encode_header(out, opcode, request_id, payload.len() as u32);
    out.extend_from_slice(payload);
}

/// Appends just the 20-byte header; the caller writes `payload_len`
/// payload bytes next. Lets composite payloads (RESULT) encode without
/// a staging copy.
pub fn encode_header(out: &mut Vec<u8>, opcode: Opcode, request_id: u64, payload_len: u32) {
    encode_header_flags(out, opcode, 0, request_id, payload_len);
}

/// [`encode_header`] with explicit flag bits (the codec does not
/// validate them here; [`decode_frame`] is the gatekeeper).
pub fn encode_header_flags(
    out: &mut Vec<u8>,
    opcode: Opcode,
    flags: u16,
    request_id: u64,
    payload_len: u32,
) {
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(opcode.as_u8());
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&payload_len.to_le_bytes());
}

/// Appends a SEARCH frame for `query`.
pub fn encode_search(out: &mut Vec<u8>, request_id: u64, query: &[f32]) {
    encode_header(out, Opcode::Search, request_id, (query.len() * 4) as u32);
    for &v in query {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends a SEARCH frame carrying a client-send timestamp: the
/// [`FLAG_CLIENT_TS`] bit is set and `client_ts_us` (microseconds on
/// the client's clock, opaque to the server) trails the query vector.
pub fn encode_search_ts(out: &mut Vec<u8>, request_id: u64, query: &[f32], client_ts_us: u64) {
    encode_header_flags(
        out,
        Opcode::Search,
        FLAG_CLIENT_TS,
        request_id,
        (query.len() * 4 + 8) as u32,
    );
    for &v in query {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&client_ts_us.to_le_bytes());
}

/// Appends a RESULT frame for a TopK reply.
///
/// # Panics
/// Panics if `ids` and `distances` differ in length.
pub fn encode_result(out: &mut Vec<u8>, request_id: u64, ids: &[u32], distances: &[f32]) {
    assert_eq!(ids.len(), distances.len(), "ids/distances length mismatch");
    let payload_len = 4 + ids.len() * 8;
    encode_header(out, Opcode::Result, request_id, payload_len as u32);
    out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for (&id, &d) in ids.iter().zip(distances) {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&d.to_le_bytes());
    }
}

/// Appends an ERROR frame.
pub fn encode_error(out: &mut Vec<u8>, request_id: u64, code: ErrorCode, message: &str) {
    let payload_len = 2 + message.len();
    encode_header(out, Opcode::Error, request_id, payload_len as u32);
    out.extend_from_slice(&(code as u16).to_le_bytes());
    out.extend_from_slice(message.as_bytes());
}

/// Appends a RETRY_AFTER frame suggesting the client wait `delay_us`.
pub fn encode_retry_after(out: &mut Vec<u8>, request_id: u64, delay_us: u32) {
    encode_header(out, Opcode::RetryAfter, request_id, 4);
    out.extend_from_slice(&delay_us.to_le_bytes());
}

/// A frame payload that is malformed for its opcode. Unlike
/// [`DecodeError`] this is recoverable: the frame boundary is intact,
/// so the server answers [`ErrorCode::BadPayload`] and keeps the
/// connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BadPayload;

impl std::fmt::Display for BadPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "payload malformed for opcode")
    }
}

impl std::error::Error for BadPayload {}

/// Decodes a SEARCH payload into `query` (cleared first).
///
/// # Errors
/// The payload length must be a non-zero multiple of 4 and every
/// component finite: a NaN or infinite component makes every distance
/// NaN or infinite, which poisons the candidate order for that query,
/// so it is refused here, where remote input enters.
pub fn decode_search_into(payload: &[u8], query: &mut Vec<f32>) -> Result<(), BadPayload> {
    if payload.is_empty() || !payload.len().is_multiple_of(4) {
        return Err(BadPayload);
    }
    query.clear();
    query.extend(
        payload.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes"))),
    );
    if query.iter().all(|x| x.is_finite()) {
        Ok(())
    } else {
        Err(BadPayload)
    }
}

/// Splits a [`FLAG_CLIENT_TS`] SEARCH payload into the query-vector
/// bytes and the trailing client-send timestamp (µs). The query bytes
/// still need [`decode_search_into`].
///
/// # Errors
/// The payload must be at least one f32 plus the 8-byte timestamp.
pub fn split_search_ts(payload: &[u8]) -> Result<(&[u8], u64), BadPayload> {
    if payload.len() < 12 {
        return Err(BadPayload);
    }
    let (query, ts) = payload.split_at(payload.len() - 8);
    Ok((query, u64::from_le_bytes(ts.try_into().expect("8 bytes"))))
}

/// Decodes a RESULT payload into `ids` / `distances` (cleared first).
///
/// # Errors
/// The payload must carry exactly the advertised number of entries.
pub fn decode_result_into(
    payload: &[u8],
    ids: &mut Vec<u32>,
    distances: &mut Vec<f32>,
) -> Result<(), BadPayload> {
    if payload.len() < 4 {
        return Err(BadPayload);
    }
    let n = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
    if payload.len() != 4 + n.saturating_mul(8) {
        return Err(BadPayload);
    }
    ids.clear();
    distances.clear();
    for entry in payload[4..].chunks_exact(8) {
        ids.push(u32::from_le_bytes(entry[..4].try_into().expect("4 bytes")));
        distances.push(f32::from_le_bytes(entry[4..].try_into().expect("4 bytes")));
    }
    Ok(())
}

/// Decodes an ERROR payload into `(code, message)`.
pub fn decode_error(payload: &[u8]) -> (u16, String) {
    if payload.len() < 2 {
        return (0, String::new());
    }
    let code = u16::from_le_bytes(payload[..2].try_into().expect("2 bytes"));
    (code, String::from_utf8_lossy(&payload[2..]).into_owned())
}

/// Decodes a RETRY_AFTER payload; `None` if malformed.
pub fn decode_retry_after(payload: &[u8]) -> Option<u32> {
    if payload.len() != 4 {
        return None;
    }
    Some(u32::from_le_bytes(payload.try_into().expect("4 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(opcode: Opcode, request_id: u64, payload: &[u8]) {
        let mut buf = Vec::new();
        encode_frame(&mut buf, opcode, request_id, payload);
        match decode_frame(&buf, DEFAULT_MAX_PAYLOAD).unwrap() {
            Decoded::Frame { header, payload: got, consumed } => {
                assert_eq!(header.opcode, opcode);
                assert_eq!(header.request_id, request_id);
                assert_eq!(header.payload_len as usize, payload.len());
                assert_eq!(got, payload);
                assert_eq!(consumed, buf.len());
            }
            Decoded::NeedMore => panic!("complete frame decoded as NeedMore"),
        }
    }

    #[test]
    fn header_layout_is_20_bytes_le() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, Opcode::Ping, 0x0123_4567_89AB_CDEF, b"hi");
        assert_eq!(buf.len(), HEADER_LEN + 2);
        assert_eq!(&buf[..4], b"ALGS");
        assert_eq!(buf[4], VERSION);
        assert_eq!(buf[5], 0x02);
        assert_eq!(&buf[6..8], &[0, 0]);
        assert_eq!(&buf[8..16], &0x0123_4567_89AB_CDEFu64.to_le_bytes());
        assert_eq!(&buf[16..20], &2u32.to_le_bytes());
    }

    #[test]
    fn partial_reads_resume_byte_by_byte() {
        let mut frame = Vec::new();
        encode_search(&mut frame, 7, &[1.0, 2.0, 3.0]);
        for cut in 0..frame.len() {
            assert_eq!(
                decode_frame(&frame[..cut], DEFAULT_MAX_PAYLOAD).unwrap(),
                Decoded::NeedMore,
                "prefix of {cut} bytes must ask for more"
            );
        }
        assert!(matches!(
            decode_frame(&frame, DEFAULT_MAX_PAYLOAD).unwrap(),
            Decoded::Frame { .. }
        ));
    }

    #[test]
    fn two_frames_back_to_back_decode_in_order() {
        let mut buf = Vec::new();
        encode_search(&mut buf, 1, &[0.5; 4]);
        encode_frame(&mut buf, Opcode::Ping, 2, b"x");
        let Decoded::Frame { header, consumed, .. } =
            decode_frame(&buf, DEFAULT_MAX_PAYLOAD).unwrap()
        else {
            panic!("first frame incomplete")
        };
        assert_eq!(header.request_id, 1);
        let Decoded::Frame { header, .. } =
            decode_frame(&buf[consumed..], DEFAULT_MAX_PAYLOAD).unwrap()
        else {
            panic!("second frame incomplete")
        };
        assert_eq!((header.opcode, header.request_id), (Opcode::Ping, 2));
    }

    #[test]
    fn garbage_magic_rejected_even_from_one_byte() {
        assert_eq!(decode_frame(b"GET ", DEFAULT_MAX_PAYLOAD), Err(DecodeError::BadMagic));
        assert_eq!(decode_frame(b"G", DEFAULT_MAX_PAYLOAD), Err(DecodeError::BadMagic));
        // A true prefix of the magic is indistinguishable from a
        // partial frame.
        assert_eq!(decode_frame(b"AL", DEFAULT_MAX_PAYLOAD), Ok(Decoded::NeedMore));
    }

    #[test]
    fn bad_version_opcode_flags_and_oversize_rejected() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, Opcode::Ping, 9, b"");
        let mut v = buf.clone();
        v[4] = 9;
        assert_eq!(decode_frame(&v, DEFAULT_MAX_PAYLOAD), Err(DecodeError::BadVersion(9)));
        let mut o = buf.clone();
        o[5] = 0x7F;
        assert_eq!(decode_frame(&o, DEFAULT_MAX_PAYLOAD), Err(DecodeError::BadOpcode(0x7F)));
        let mut f = buf.clone();
        f[6] = 1;
        assert_eq!(decode_frame(&f, DEFAULT_MAX_PAYLOAD), Err(DecodeError::BadFlags(1)));
        let mut big = buf;
        big[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_frame(&big, 1024),
            Err(DecodeError::Oversize { len: u32::MAX, max: 1024 })
        );
    }

    #[test]
    fn client_ts_flag_roundtrips_on_search_only() {
        let mut buf = Vec::new();
        encode_search_ts(&mut buf, 11, &[1.0, 2.0, 3.0], 987_654_321);
        let Decoded::Frame { header, payload, consumed } =
            decode_frame(&buf, DEFAULT_MAX_PAYLOAD).unwrap()
        else {
            panic!("complete flagged frame")
        };
        assert_eq!(header.opcode, Opcode::Search);
        assert_eq!(header.flags, FLAG_CLIENT_TS);
        assert!(header.has_client_ts());
        assert_eq!(consumed, buf.len());
        let (qbytes, ts) = split_search_ts(payload).unwrap();
        assert_eq!(ts, 987_654_321);
        let mut q = Vec::new();
        decode_search_into(qbytes, &mut q).unwrap();
        assert_eq!(q, vec![1.0, 2.0, 3.0]);

        // Undefined flag bits stay rejected, on SEARCH too.
        let mut other = buf.clone();
        other[6] = 0x02;
        assert_eq!(decode_frame(&other, DEFAULT_MAX_PAYLOAD), Err(DecodeError::BadFlags(2)));
        // And the client-ts bit is SEARCH-only: flagged PING is refused.
        let mut ping = Vec::new();
        encode_header_flags(&mut ping, Opcode::Ping, FLAG_CLIENT_TS, 12, 0);
        assert_eq!(decode_frame(&ping, DEFAULT_MAX_PAYLOAD), Err(DecodeError::BadFlags(1)));
        // A flagged payload too short to hold vector + timestamp is a
        // recoverable BadPayload, not a panic.
        assert!(split_search_ts(&[0u8; 11]).is_err());
    }

    #[test]
    fn search_and_result_payload_helpers_roundtrip() {
        let mut buf = Vec::new();
        encode_search(&mut buf, 3, &[1.5, -2.5]);
        let Decoded::Frame { payload, .. } = decode_frame(&buf, DEFAULT_MAX_PAYLOAD).unwrap()
        else {
            panic!()
        };
        let mut q = Vec::new();
        decode_search_into(payload, &mut q).unwrap();
        assert_eq!(q, vec![1.5, -2.5]);

        let mut buf = Vec::new();
        encode_result(&mut buf, 4, &[10, 20], &[0.1, 0.2]);
        let Decoded::Frame { payload, .. } = decode_frame(&buf, DEFAULT_MAX_PAYLOAD).unwrap()
        else {
            panic!()
        };
        let (mut ids, mut dists) = (Vec::new(), Vec::new());
        decode_result_into(payload, &mut ids, &mut dists).unwrap();
        assert_eq!(ids, vec![10, 20]);
        assert_eq!(dists, vec![0.1, 0.2]);

        // Malformed result payloads are errors, not panics.
        assert!(decode_result_into(&payload[..payload.len() - 1], &mut ids, &mut dists).is_err());
        assert!(decode_search_into(b"abc", &mut q).is_err());
        assert!(decode_search_into(b"", &mut q).is_err());
        // Non-finite components are refused at the boundary.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut buf = Vec::new();
            encode_search(&mut buf, 5, &[1.0, bad, 3.0]);
            assert_eq!(decode_search_into(&buf[HEADER_LEN..], &mut q), Err(BadPayload), "{bad}");
        }
    }

    #[test]
    fn error_and_retry_after_helpers_roundtrip() {
        let mut buf = Vec::new();
        encode_error(&mut buf, 5, ErrorCode::BadPayload, "nope");
        let Decoded::Frame { header, payload, .. } =
            decode_frame(&buf, DEFAULT_MAX_PAYLOAD).unwrap()
        else {
            panic!()
        };
        assert_eq!(header.opcode, Opcode::Error);
        assert_eq!(decode_error(payload), (ErrorCode::BadPayload as u16, "nope".to_string()));

        let mut buf = Vec::new();
        encode_retry_after(&mut buf, 6, 1500);
        let Decoded::Frame { payload, .. } = decode_frame(&buf, DEFAULT_MAX_PAYLOAD).unwrap()
        else {
            panic!()
        };
        assert_eq!(decode_retry_after(payload), Some(1500));
        assert_eq!(decode_retry_after(b"xy"), None);
    }

    #[test]
    fn opcode_bytes_roundtrip() {
        for op in [
            Opcode::Search,
            Opcode::Ping,
            Opcode::Stats,
            Opcode::Result,
            Opcode::Pong,
            Opcode::StatsReply,
            Opcode::Error,
            Opcode::RetryAfter,
        ] {
            assert_eq!(Opcode::from_u8(op.as_u8()), Some(op));
        }
        assert_eq!(Opcode::from_u8(0x00), None);
        assert_eq!(Opcode::from_u8(0xFF), None);
    }

    const ALL_OPCODES: [Opcode; 8] = [
        Opcode::Search,
        Opcode::Ping,
        Opcode::Stats,
        Opcode::Result,
        Opcode::Pong,
        Opcode::StatsReply,
        Opcode::Error,
        Opcode::RetryAfter,
    ];

    proptest! {
        #[test]
        fn prop_roundtrip_arbitrary_payload(
            op_idx in 0usize..8,
            request_id in 0u64..u64::MAX,
            payload in prop::collection::vec(0u8..255, 0..512),
        ) {
            roundtrip(ALL_OPCODES[op_idx], request_id, &payload);
        }

        #[test]
        fn prop_search_roundtrip(
            request_id in 0u64..u64::MAX,
            query in prop::collection::vec(-1e9f32..1e9, 1..256),
        ) {
            let mut buf = Vec::new();
            encode_search(&mut buf, request_id, &query);
            let Decoded::Frame { header, payload, .. } =
                decode_frame(&buf, DEFAULT_MAX_PAYLOAD).unwrap() else { panic!() };
            prop_assert_eq!(header.opcode, Opcode::Search);
            prop_assert_eq!(header.request_id, request_id);
            let mut got = Vec::new();
            decode_search_into(payload, &mut got).unwrap();
            prop_assert_eq!(got.len(), query.len());
            for (a, b) in got.iter().zip(&query) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn prop_fuzz_garbage_never_panics(
            bytes in prop::collection::vec(0u8..255, 0..64),
        ) {
            // Any byte soup either decodes, wants more, or errors —
            // never panics.
            let _ = decode_frame(&bytes, DEFAULT_MAX_PAYLOAD);
        }

        #[test]
        fn prop_truncated_valid_frames_want_more(
            request_id in 0u64..u64::MAX,
            payload in prop::collection::vec(0u8..255, 0..128),
            cut_fraction in 0.0f64..1.0,
        ) {
            let mut buf = Vec::new();
            encode_frame(&mut buf, Opcode::Ping, request_id, &payload);
            let cut = ((buf.len() as f64) * cut_fraction) as usize;
            prop_assert_eq!(
                decode_frame(&buf[..cut.min(buf.len() - 1)], DEFAULT_MAX_PAYLOAD),
                Ok(Decoded::NeedMore)
            );
        }
    }
}
