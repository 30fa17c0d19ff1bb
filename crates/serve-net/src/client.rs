//! A small blocking client for the serve-net protocol — what the CI
//! smoke, the round-trip tests, and `reuse_cli serve-net --smoke` drive
//! the server with. Not a production client: one blocking socket, no
//! pipelining beyond what the caller interleaves itself.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::protocol::{
    decode_f32s, encode_client_preamble, encode_request, parse_server_preamble, read_u32, read_u64,
    Status, RESPONSE_HEADER,
};

/// One decoded response message.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Stream the response belongs to.
    pub stream_id: u64,
    /// Echo of the request's sequence number.
    pub seq: u32,
    /// Outcome of the frame.
    pub status: Status,
    /// Output payload (empty unless `status` is [`Status::Ok`]).
    pub payload: Vec<f32>,
}

/// A blocking protocol client over one TCP connection.
#[derive(Debug)]
pub struct NetClient {
    sock: TcpStream,
    input_len: usize,
    output_len: usize,
    scratch: Vec<u8>,
}

/// Protocol-violation error helper.
fn proto_err(msg: &str) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, msg.to_string())
}

impl NetClient {
    /// Connects, performs the preamble exchange, and returns a ready
    /// client.
    ///
    /// # Errors
    ///
    /// Socket errors, or [`ErrorKind::InvalidData`] when the server's
    /// preamble is malformed.
    pub fn connect(addr: SocketAddr) -> std::io::Result<NetClient> {
        let mut sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true).ok();
        let mut hello = Vec::with_capacity(8);
        encode_client_preamble(&mut hello);
        sock.write_all(&hello)?;
        let mut pre = [0u8; 16];
        sock.read_exact(&mut pre)?;
        let (input_len, output_len) = parse_server_preamble(&pre)?;
        Ok(NetClient {
            sock,
            input_len: input_len as usize,
            output_len: output_len as usize,
            scratch: Vec::with_capacity(1024),
        })
    }

    /// The model's input length in floats, from the server preamble.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// The model's output length in floats, from the server preamble.
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// Sets the socket read timeout (None blocks forever).
    ///
    /// # Errors
    ///
    /// Propagates the socket option error.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.sock.set_read_timeout(timeout)
    }

    /// Sends one frame (fire-and-forget; pair with [`Self::recv`]).
    ///
    /// # Errors
    ///
    /// Socket write errors.
    pub fn send(
        &mut self,
        stream_id: u64,
        seq: u32,
        flags: u8,
        deadline_us: u32,
        frame: &[f32],
    ) -> std::io::Result<()> {
        self.scratch.clear();
        encode_request(&mut self.scratch, stream_id, seq, flags, deadline_us, frame);
        let buf = std::mem::take(&mut self.scratch);
        let result = self.sock.write_all(&buf);
        self.scratch = buf;
        result
    }

    /// Receives one response message (blocking).
    ///
    /// # Errors
    ///
    /// Socket read errors (including timeout), or
    /// [`ErrorKind::InvalidData`] on a malformed message.
    pub fn recv(&mut self) -> std::io::Result<Response> {
        let mut prefix = [0u8; 4];
        self.sock.read_exact(&mut prefix)?;
        let len = u32::from_le_bytes(prefix) as usize;
        if len < RESPONSE_HEADER || len > crate::protocol::MAX_MESSAGE as usize {
            return Err(proto_err("bad response length"));
        }
        let mut body = vec![0u8; len];
        self.sock.read_exact(&mut body)?;
        let status = Status::from_u8(body[12]).ok_or_else(|| proto_err("bad status byte"))?;
        let payload_bytes = &body[RESPONSE_HEADER..];
        if !payload_bytes.len().is_multiple_of(4) {
            return Err(proto_err("response payload not float-aligned"));
        }
        Ok(Response {
            stream_id: read_u64(&body, 0),
            seq: read_u32(&body, 8),
            status,
            payload: decode_f32s(payload_bytes),
        })
    }

    /// Submits one frame and blocks until *its* response arrives
    /// (responses for other in-flight seqs of the same connection are an
    /// error here — use send/recv directly for pipelined traffic),
    /// retrying [`Status::QueueFull`] with a short backoff.
    ///
    /// # Errors
    ///
    /// Socket errors, or [`ErrorKind::InvalidData`] when the response does
    /// not match the request.
    pub fn roundtrip(
        &mut self,
        stream_id: u64,
        seq: u32,
        frame: &[f32],
    ) -> std::io::Result<Response> {
        loop {
            self.send(stream_id, seq, 0, 0, frame)?;
            let resp = self.recv()?;
            if resp.stream_id != stream_id || resp.seq != seq {
                return Err(proto_err("response does not match request"));
            }
            if resp.status == Status::QueueFull {
                std::thread::sleep(Duration::from_micros(200));
                continue;
            }
            return Ok(resp);
        }
    }
}
