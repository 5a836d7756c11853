//! The client side of the ALGAS wire protocol, written from the format
//! description (20-byte little-endian header: magic `ALGS`, version,
//! opcode, flags, request id, payload length), not linked from the
//! library: the benchmark keeps speaking the protocol whatever happens
//! to the server's codec.

pub const HEADER_LEN: usize = 20;
const MAGIC: [u8; 4] = *b"ALGS";
const VERSION: u8 = 1;
/// SEARCH only: the payload ends in a `u64` client-send time in µs.
const FLAG_CLIENT_TS: u16 = 1;
/// Largest reply the client accepts; a RESULT of k = 10 is 84 bytes.
const MAX_REPLY_PAYLOAD: u32 = 1 << 16;

pub const OP_SEARCH: u8 = 0x01;
pub const OP_PING: u8 = 0x02;
pub const OP_RESULT: u8 = 0x81;
pub const OP_PONG: u8 = 0x82;
pub const OP_ERROR: u8 = 0xE0;
pub const OP_RETRY_AFTER: u8 = 0xE1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    pub opcode: u8,
    pub request_id: u64,
    pub payload_len: u32,
}

fn put_header(out: &mut Vec<u8>, opcode: u8, flags: u16, request_id: u64, payload_len: u32) {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(opcode);
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&payload_len.to_le_bytes());
}

/// Appends a SEARCH frame. `query_le` is the query vector already laid
/// out as little-endian `f32` bytes (done once per query, before the run).
pub fn put_search(out: &mut Vec<u8>, request_id: u64, query_le: &[u8], client_ts_us: u64) {
    put_header(out, OP_SEARCH, FLAG_CLIENT_TS, request_id, (query_le.len() + 8) as u32);
    out.extend_from_slice(query_le);
    out.extend_from_slice(&client_ts_us.to_le_bytes());
}

pub fn put_ping(out: &mut Vec<u8>, request_id: u64, payload: &[u8]) {
    put_header(out, OP_PING, 0, request_id, payload.len() as u32);
    out.extend_from_slice(payload);
}

/// A decoded frame: its header, its payload, the bytes it occupied.
pub type Frame<'a> = (Header, &'a [u8], usize);

/// Decodes the first frame buffered in `buf`: `Ok(None)` until a whole
/// frame is there. An error means the stream is not the protocol any more.
pub fn decode(buf: &[u8]) -> Result<Option<Frame<'_>>, String> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    if buf[..4] != MAGIC {
        return Err(format!("bad magic {:02x?}", &buf[..4]));
    }
    if buf[4] != VERSION {
        return Err(format!("protocol version {} (expected {VERSION})", buf[4]));
    }
    let header = Header {
        opcode: buf[5],
        request_id: u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")),
        payload_len: u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes")),
    };
    if header.payload_len > MAX_REPLY_PAYLOAD {
        return Err(format!("reply payload of {} bytes", header.payload_len));
    }
    let total = HEADER_LEN + header.payload_len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((header, &buf[HEADER_LEN..total], total)))
}

/// Checks a RESULT payload — exactly `k` entries, every id below
/// `n_base`, distances finite and non-decreasing — and leaves the ids
/// in `ids`.
pub fn check_result(
    payload: &[u8],
    k: usize,
    n_base: u32,
    ids: &mut Vec<u32>,
) -> Result<(), &'static str> {
    ids.clear();
    if payload.len() < 4 {
        return Err("RESULT shorter than its count");
    }
    let n = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes")) as usize;
    if n != k {
        return Err("RESULT does not carry k entries");
    }
    if payload.len() != 4 + n * 8 {
        return Err("RESULT length disagrees with its count");
    }
    let mut last = f32::NEG_INFINITY;
    for entry in payload[4..].chunks_exact(8) {
        let id = u32::from_le_bytes(entry[..4].try_into().expect("4 bytes"));
        let dist = f32::from_le_bytes(entry[4..].try_into().expect("4 bytes"));
        if id >= n_base {
            return Err("RESULT id outside the corpus");
        }
        if !dist.is_finite() || dist < last {
            return Err("RESULT distances not finite and non-decreasing");
        }
        last = dist;
        ids.push(id);
    }
    Ok(())
}

/// The advised delay of a RETRY_AFTER payload in µs.
pub fn retry_after_us(payload: &[u8]) -> Result<u32, &'static str> {
    payload.try_into().map(u32::from_le_bytes).map_err(|_| "RETRY_AFTER payload is not four bytes")
}

/// `(code, message)` of an ERROR payload, for the failure report.
pub fn error_text(payload: &[u8]) -> String {
    if payload.len() < 2 {
        return "ERROR frame without a code".into();
    }
    let code = u16::from_le_bytes([payload[0], payload[1]]);
    format!("ERROR code {code}: {}", String::from_utf8_lossy(&payload[2..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_payload(entries: &[(u32, f32)]) -> Vec<u8> {
        let mut p = (entries.len() as u32).to_le_bytes().to_vec();
        for (id, d) in entries {
            p.extend_from_slice(&id.to_le_bytes());
            p.extend_from_slice(&d.to_le_bytes());
        }
        p
    }

    #[test]
    fn search_frame_has_the_documented_layout() {
        let mut out = Vec::new();
        put_search(&mut out, 0x0102, &1.5f32.to_le_bytes(), 99);
        assert_eq!(&out[..4], b"ALGS");
        assert_eq!(out[4], 1);
        assert_eq!(out[5], OP_SEARCH);
        assert_eq!(u16::from_le_bytes([out[6], out[7]]), 1);
        assert_eq!(u64::from_le_bytes(out[8..16].try_into().unwrap()), 0x0102);
        assert_eq!(u32::from_le_bytes(out[16..20].try_into().unwrap()), 12);
        assert_eq!(out.len(), HEADER_LEN + 12);
        assert_eq!(u64::from_le_bytes(out[24..32].try_into().unwrap()), 99);
    }

    #[test]
    fn decode_resumes_on_partial_frames_and_rejects_garbage() {
        let mut out = Vec::new();
        put_ping(&mut out, 7, b"abc");
        for cut in 0..out.len() {
            assert_eq!(decode(&out[..cut]), Ok(None), "prefix of {cut} bytes");
        }
        let (h, payload, used) = decode(&out).unwrap().unwrap();
        assert_eq!((h.opcode, h.request_id, payload, used), (OP_PING, 7, &b"abc"[..], 23));
        out[0] = b'X';
        assert!(decode(&out).is_err());
    }

    #[test]
    fn check_result_enforces_shape_range_and_order() {
        let mut ids = Vec::new();
        let good = result_payload(&[(1, 0.5), (2, 0.5), (0, 2.0)]);
        assert_eq!(check_result(&good, 3, 3, &mut ids), Ok(()));
        assert_eq!(ids, vec![1, 2, 0]);
        assert!(check_result(&good, 2, 3, &mut ids).is_err(), "wrong k");
        assert!(check_result(&good, 3, 2, &mut ids).is_err(), "id out of range");
        let unordered = result_payload(&[(1, 0.5), (2, 0.25), (0, 2.0)]);
        assert!(check_result(&unordered, 3, 3, &mut ids).is_err());
        let nan = result_payload(&[(1, f32::NAN), (2, 0.25), (0, 2.0)]);
        assert!(check_result(&nan, 3, 3, &mut ids).is_err());
        assert!(check_result(&good[..good.len() - 1], 3, 3, &mut ids).is_err());
    }
}
