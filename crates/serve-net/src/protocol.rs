//! Wire protocol: length-prefixed binary frames, little-endian.
//!
//! # Connection preamble
//!
//! On connect the client sends 8 bytes — magic `b"RSNV"` then `u32`
//! protocol version — and the server answers with 16 bytes: the same
//! magic and version, then the model's input length and output length as
//! `u32` float counts (so clients can size buffers without a side
//! channel). A bad magic or version closes the connection.
//!
//! # Request (client → server)
//!
//! | field        | type  | notes                                       |
//! |--------------|-------|---------------------------------------------|
//! | `len`        | `u32` | bytes after this field: `17 + 4·input_len`  |
//! | `stream_id`  | `u64` | routing key (shard + session)               |
//! | `seq`        | `u32` | client-chosen, echoed in the response       |
//! | `flags`      | `u8`  | bit 1 deadline; 0, 2–7 reserved, rejected   |
//! | `deadline_us`| `u32` | slack from server receipt, µs (0 if unset)  |
//! | payload      | `f32`×input_len | the input frame                   |
//!
//! # Response (server → client)
//!
//! | field       | type  | notes                                      |
//! |-------------|-------|--------------------------------------------|
//! | `len`       | `u32` | bytes after this field                     |
//! | `stream_id` | `u64` | echo                                       |
//! | `seq`       | `u32` | echo                                       |
//! | `status`    | `u8`  | see [`Status`]                             |
//! | payload     | `f32`×output_len | present only when status is `Ok` |
//!
//! Within one stream, `Ok` responses arrive in submission order (the
//! reuse chain is sequential); reject responses (`QueueFull`, `Shed`,
//! `DeadlineShed`, and `Failed` for a request with a reserved flag bit set)
//! are sent immediately at ingress, and `Expired` / `Failed` when the drop
//! is discovered, so they can interleave with earlier accepted frames'
//! completions.

use std::io::{Error, ErrorKind};

/// Connection magic (`b"RSNV"`).
pub const MAGIC: [u8; 4] = *b"RSNV";

/// Protocol version.
pub const VERSION: u32 = 1;

/// Request flag bit: `deadline_us` carries a completion deadline.
pub const FLAG_DEADLINE: u8 = 1 << 1;

/// Fixed request-body bytes before the f32 payload
/// (`stream_id + seq + flags + deadline_us`).
pub const REQUEST_HEADER: usize = 8 + 4 + 1 + 4;

/// Fixed response-body bytes before the optional f32 payload
/// (`stream_id + seq + status`).
pub const RESPONSE_HEADER: usize = 8 + 4 + 1;

/// Hard cap on one message's length prefix — rejects garbage/hostile
/// prefixes before any allocation (16 MiB is ~4M floats, far above any
/// model input in the tree).
pub const MAX_MESSAGE: u32 = 16 << 20;

/// Outcome of one submitted frame, as carried in the response `status`
/// byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// The frame completed; the response carries the output payload.
    Ok = 0,
    /// Rejected at ingress: the stream's bounded queue was full.
    QueueFull = 1,
    /// Rejected at ingress: the stream is degraded and past its shed
    /// watermark.
    Shed = 2,
    /// Rejected at ingress: projected to miss its deadline.
    DeadlineShed = 3,
    /// Accepted but dropped before execution: its deadline passed while
    /// queued.
    Expired = 4,
    /// The frame will never complete: its stream failed (sticky execution
    /// error), was evicted, or is owned by another connection; or the
    /// request was malformed (wrong payload length, a reserved flag bit).
    Failed = 5,
}

impl Status {
    /// Parses a status byte.
    pub fn from_u8(v: u8) -> Option<Status> {
        Some(match v {
            0 => Status::Ok,
            1 => Status::QueueFull,
            2 => Status::Shed,
            3 => Status::DeadlineShed,
            4 => Status::Expired,
            5 => Status::Failed,
            _ => return None,
        })
    }
}

/// One parsed request body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Routing key: shard and session identity.
    pub stream_id: u64,
    /// Client-chosen sequence number, echoed in the response.
    pub seq: u32,
    /// Flag bits: [`FLAG_DEADLINE`]; any other bit is reserved, and the
    /// server answers a request that sets one with [`Status::Failed`].
    pub flags: u8,
    /// Deadline slack from server receipt in microseconds (meaningful only
    /// with [`FLAG_DEADLINE`]).
    pub deadline_us: u32,
    /// The input frame.
    pub payload: Vec<f32>,
}

/// Appends the client preamble (magic + version) to `buf`.
pub fn encode_client_preamble(buf: &mut Vec<u8>) {
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
}

/// Appends the server preamble (magic + version + model input/output
/// lengths in floats) to `buf`.
pub fn encode_server_preamble(buf: &mut Vec<u8>, input_len: u32, output_len: u32) {
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&input_len.to_le_bytes());
    buf.extend_from_slice(&output_len.to_le_bytes());
}

/// Appends one length-prefixed request message to `buf`.
pub fn encode_request(
    buf: &mut Vec<u8>,
    stream_id: u64,
    seq: u32,
    flags: u8,
    deadline_us: u32,
    payload: &[f32],
) {
    let len = (REQUEST_HEADER + 4 * payload.len()) as u32;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&stream_id.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.push(flags);
    buf.extend_from_slice(&deadline_us.to_le_bytes());
    for v in payload {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends one length-prefixed response message to `buf`. `payload` must
/// be empty unless `status` is [`Status::Ok`].
pub fn encode_response(
    buf: &mut Vec<u8>,
    stream_id: u64,
    seq: u32,
    status: Status,
    payload: &[f32],
) {
    debug_assert!(status == Status::Ok || payload.is_empty());
    let len = (RESPONSE_HEADER + 4 * payload.len()) as u32;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&stream_id.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.push(status as u8);
    for v in payload {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// A length prefix above [`MAX_MESSAGE`]: a protocol violation — the only
/// sane response is closing the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OversizedFrame;

/// Reads the `u32` length prefix at the start of `buf`, if complete.
/// Returns [`OversizedFrame`] on a prefix above [`MAX_MESSAGE`].
pub fn peek_len(buf: &[u8]) -> Result<Option<u32>, OversizedFrame> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_MESSAGE {
        return Err(OversizedFrame);
    }
    Ok(Some(len))
}

/// Checks the client preamble at the start of `buf`: `Ok(false)` while its 8
/// bytes have not all arrived (wait), `Ok(true)` once they carry [`MAGIC`]
/// and [`VERSION`] (accept), and an `InvalidData` error otherwise (reject).
pub fn check_client_preamble(buf: &[u8]) -> Result<bool, Error> {
    match buf.get(..8) {
        None => Ok(false),
        Some(pre) if pre[..4] == MAGIC && read_u32(pre, 4) == VERSION => Ok(true),
        Some(_) => Err(Error::new(ErrorKind::InvalidData, "bad client preamble")),
    }
}

/// Parses the server preamble a client reads on connect — the client's 8
/// bytes, then the model's lengths — into `(input_len, output_len)` in
/// floats; an `InvalidData` error when it is short or its magic or version
/// is wrong.
pub fn parse_server_preamble(buf: &[u8]) -> Result<(u32, u32), Error> {
    match check_client_preamble(buf) {
        Ok(true) if buf.len() >= 16 => Ok((read_u32(buf, 8), read_u32(buf, 12))),
        _ => Err(Error::new(ErrorKind::InvalidData, "bad server preamble")),
    }
}

/// Little-endian `u64` at `buf[at..at + 8]`.
pub fn read_u64(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Little-endian `u32` at `buf[at..at + 4]`.
pub fn read_u32(buf: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&buf[at..at + 4]);
    u32::from_le_bytes(b)
}

/// Decodes one request body (the bytes after the length prefix). Returns
/// `None` when the body is malformed (short header, payload not a whole
/// number of floats).
pub fn decode_request(body: &[u8]) -> Option<Request> {
    if body.len() < REQUEST_HEADER || !(body.len() - REQUEST_HEADER).is_multiple_of(4) {
        return None;
    }
    let stream_id = read_u64(body, 0);
    let seq = read_u32(body, 8);
    let flags = body[12];
    let deadline_us = read_u32(body, 13);
    let payload = decode_f32s(&body[REQUEST_HEADER..]);
    Some(Request {
        stream_id,
        seq,
        flags,
        deadline_us,
        payload,
    })
}

/// Decodes a little-endian f32 payload. `bytes.len()` must be a multiple
/// of 4 (callers validate).
pub fn decode_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_is_exact() {
        let payload = [1.0f32, -2.5, f32::MIN_POSITIVE, 0.0];
        let mut buf = Vec::new();
        // The codec carries reserved bits through; the server rejects them.
        let flags = FLAG_DEADLINE | 1 << 7;
        encode_request(&mut buf, 42, 7, flags, 1500, &payload);
        let len = peek_len(&buf).unwrap().unwrap() as usize;
        assert_eq!(4 + len, buf.len());
        let req = decode_request(&buf[4..4 + len]).unwrap();
        assert_eq!(req.stream_id, 42);
        assert_eq!(req.seq, 7);
        assert_eq!(req.flags, flags);
        assert_eq!(req.deadline_us, 1500);
        assert_eq!(req.payload, payload);
    }

    #[test]
    fn response_status_bytes_roundtrip() {
        for status in [
            Status::Ok,
            Status::QueueFull,
            Status::Shed,
            Status::DeadlineShed,
            Status::Expired,
            Status::Failed,
        ] {
            assert_eq!(Status::from_u8(status as u8), Some(status));
        }
        assert_eq!(Status::from_u8(6), None);
    }

    #[test]
    fn oversized_prefix_is_a_protocol_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_MESSAGE + 1).to_le_bytes());
        assert!(peek_len(&buf).is_err());
        assert_eq!(peek_len(&[0u8; 3]), Ok(None));
    }

    #[test]
    fn malformed_request_bodies_are_rejected() {
        assert!(decode_request(&[0u8; REQUEST_HEADER - 1]).is_none());
        assert!(decode_request(&[0u8; REQUEST_HEADER + 3]).is_none());
        assert!(decode_request(&[0u8; REQUEST_HEADER]).is_some());
    }
}
