//! The network front-end: a non-blocking TCP event loop routing protocol
//! frames to a [`ShardedServer`].
//!
//! One thread runs the poll loop (accept, read, submit, drain, write);
//! dedicated per-shard workers ([`reuse_serve::ShardWorkers`]) execute
//! frames concurrently. No external event-loop dependency: sockets are
//! `set_nonblocking` and the loop sleeps briefly when idle.
//!
//! **Stream ownership.** The first connection to submit a stream id owns
//! it; submits for a stream owned by another live connection are answered
//! [`Status::Failed`] (interleaving two connections' frames into one
//! reuse chain would corrupt both). Ownership is released when the owning
//! connection closes.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use reuse_core::CompiledModel;
use reuse_serve::{
    ServeError, ServerConfig, ShardWorkers, ShardedServer, SubmitOptions, SubmitResult,
};

use crate::protocol::{
    check_client_preamble, decode_request, encode_response, encode_server_preamble, peek_len,
    Status, FLAG_DEADLINE, FLAG_HIGH_PRIORITY,
};

/// Read chunk size per socket per poll iteration.
const READ_CHUNK: usize = 64 * 1024;

/// Idle poll sleep when no socket made progress.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// One accepted connection's buffers and owned streams.
struct Conn {
    sock: TcpStream,
    /// Bytes read but not yet parsed (`roff` already consumed).
    rbuf: Vec<u8>,
    roff: usize,
    /// Bytes queued for writing (`woff` already written).
    wbuf: Vec<u8>,
    woff: usize,
    /// Whether the 8-byte client preamble has been validated.
    preamble_done: bool,
    /// Stream ids this connection owns (released on close).
    streams: Vec<u64>,
    /// Set on protocol violation or socket error; reaped after the pass.
    closed: bool,
}

impl Conn {
    fn new(sock: TcpStream, input_len: u32, output_len: u32) -> Conn {
        let mut wbuf = Vec::with_capacity(4096);
        encode_server_preamble(&mut wbuf, input_len, output_len);
        Conn {
            sock,
            rbuf: Vec::with_capacity(READ_CHUNK),
            roff: 0,
            wbuf,
            woff: 0,
            preamble_done: false,
            streams: Vec::new(),
            closed: false,
        }
    }
}

/// Routing state for one owned stream.
struct StreamRoute {
    /// Slot of the owning connection.
    conn: usize,
    /// Sequence numbers of accepted frames not yet answered, oldest first.
    pending: VecDeque<u32>,
}

/// The serve-net front-end: a bound listener plus the sharded server and
/// its worker threads. Drive it with [`NetServer::run`].
pub struct NetServer {
    listener: TcpListener,
    workers: ShardWorkers,
    input_len: usize,
    output_len: usize,
    conns: Vec<Option<Conn>>,
    routes: HashMap<u64, StreamRoute>,
}

impl NetServer {
    /// Binds `addr` and builds a [`ShardedServer`] with `shards` shards
    /// over `model`, spawning one worker thread per shard. Use port 0 for
    /// an OS-assigned port ([`Self::local_addr`] reports it).
    ///
    /// # Errors
    ///
    /// I/O errors from binding; [`ServeError`] config errors are mapped to
    /// [`ErrorKind::InvalidInput`].
    pub fn bind(
        addr: SocketAddr,
        model: Arc<CompiledModel>,
        config: ServerConfig,
        shards: usize,
    ) -> std::io::Result<NetServer> {
        let input_len = model.network().input_shape().volume();
        let output_len = model.network().output_shape().volume();
        let sharded = ShardedServer::new(model, config, shards)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e.to_string()))?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(NetServer {
            listener,
            workers: ShardWorkers::start(Arc::new(sharded)),
            input_len,
            output_len,
            conns: Vec::new(),
            routes: HashMap::new(),
        })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket's `local_addr` error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The underlying sharded server (snapshots, counters).
    pub fn sharded(&self) -> &Arc<ShardedServer> {
        self.workers.server()
    }

    /// Runs the event loop until `stop` is set: accepts connections, reads
    /// and validates protocol frames, submits them to the owning shard,
    /// drains completions/expiries into responses, and writes them back.
    ///
    /// # Errors
    ///
    /// Returns only listener-level I/O errors; per-connection errors close
    /// that connection.
    pub fn run(&mut self, stop: &AtomicBool) -> std::io::Result<()> {
        while !stop.load(Ordering::SeqCst) {
            let mut progressed = false;
            progressed |= self.accept_new()?;
            for slot in 0..self.conns.len() {
                progressed |= self.read_conn(slot);
            }
            progressed |= self.drain_completions();
            for slot in 0..self.conns.len() {
                progressed |= self.write_conn(slot);
            }
            self.reap_closed();
            if !progressed {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        Ok(())
    }

    /// Accepts all pending connections. Returns whether any arrived.
    fn accept_new(&mut self) -> std::io::Result<bool> {
        let mut any = false;
        loop {
            match self.listener.accept() {
                Ok((sock, _)) => {
                    sock.set_nonblocking(true)?;
                    sock.set_nodelay(true).ok();
                    let conn = Conn::new(sock, self.input_len as u32, self.output_len as u32);
                    let slot = self.conns.iter().position(Option::is_none);
                    match slot {
                        Some(s) => self.conns[s] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                    any = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(any),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads and parses everything available on one connection. Returns
    /// whether any bytes were consumed.
    fn read_conn(&mut self, slot: usize) -> bool {
        let Some(conn) = self.conns[slot].as_mut() else {
            return false;
        };
        if conn.closed {
            return false;
        }
        let mut any = false;
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match conn.sock.read(&mut chunk) {
                Ok(0) => {
                    conn.closed = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    any = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.closed = true;
                    break;
                }
            }
        }
        self.parse_conn(slot);
        any
    }

    /// Parses complete messages out of a connection's read buffer and
    /// submits them.
    fn parse_conn(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            let avail = &conn.rbuf[conn.roff..];
            if !conn.preamble_done {
                match check_client_preamble(avail) {
                    Ok(false) => break,
                    Ok(true) => {
                        conn.roff += 8;
                        conn.preamble_done = true;
                    }
                    Err(_) => {
                        conn.closed = true;
                        return;
                    }
                }
                continue;
            }
            let body = match peek_len(avail) {
                Err(_) => {
                    conn.closed = true;
                    return;
                }
                Ok(None) => break,
                Ok(Some(len)) => {
                    if avail.len() < 4 + len as usize {
                        break;
                    }
                    conn.roff += 4 + len as usize;
                    let start = conn.roff - len as usize;
                    conn.rbuf[start..conn.roff].to_vec()
                }
            };
            self.handle_request(slot, &body);
        }
        // Compact the read buffer once everything parseable is consumed.
        if let Some(conn) = self.conns[slot].as_mut() {
            if conn.roff > 0 {
                conn.rbuf.drain(..conn.roff);
                conn.roff = 0;
            }
        }
    }

    /// Decodes and submits one request body, queueing any immediate
    /// response.
    fn handle_request(&mut self, slot: usize, body: &[u8]) {
        let Some(req) = decode_request(body) else {
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.closed = true;
            }
            return;
        };
        if req.payload.len() != self.input_len {
            self.respond(slot, req.stream_id, req.seq, Status::Failed, &[]);
            return;
        }
        match self.routes.get(&req.stream_id) {
            Some(route) if route.conn != slot => {
                // Owned by another live connection.
                self.respond(slot, req.stream_id, req.seq, Status::Failed, &[]);
                return;
            }
            Some(_) => {}
            None => {
                self.routes.insert(
                    req.stream_id,
                    StreamRoute {
                        conn: slot,
                        pending: VecDeque::new(),
                    },
                );
                if let Some(conn) = self.conns[slot].as_mut() {
                    conn.streams.push(req.stream_id);
                }
            }
        }
        let mut opts = SubmitOptions::default().tagged(req.seq as u64);
        if req.flags & FLAG_HIGH_PRIORITY != 0 {
            opts = opts.high_priority();
        }
        if req.flags & FLAG_DEADLINE != 0 {
            opts = opts.with_deadline(Duration::from_micros(u64::from(req.deadline_us)));
        }
        let result = self
            .workers
            .server()
            .submit_with(req.stream_id, &req.payload, opts);
        let status = match result {
            Ok(SubmitResult::Accepted) => {
                if let Some(route) = self.routes.get_mut(&req.stream_id) {
                    route.pending.push_back(req.seq);
                }
                return;
            }
            Ok(SubmitResult::QueueFull) => Status::QueueFull,
            Ok(SubmitResult::Shed) => Status::Shed,
            Ok(SubmitResult::DeadlineShed) => Status::DeadlineShed,
            Err(ServeError::Reuse(_)) | Err(_) => Status::Failed,
        };
        self.respond(slot, req.stream_id, req.seq, status, &[]);
    }

    /// Drains completed outputs and expiries for every routed stream into
    /// response buffers; fails pending frames of dead streams. Returns
    /// whether any response was produced.
    fn drain_completions(&mut self) -> bool {
        let mut produced = false;
        let server = Arc::clone(self.workers.server());
        let ids: Vec<u64> = self
            .routes
            .iter()
            .filter(|(_, r)| !r.pending.is_empty())
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            let Some(slot) = self.routes.get(&id).map(|r| r.conn) else {
                continue;
            };
            // The tag carried through the server is the request seq, so
            // completions and expiries pair exactly; responses are ordered
            // by submission order (position in `pending`), since a frame
            // that expired can sit between two that completed.
            let mut events: Vec<(u32, Status, Vec<f32>)> = Vec::new();
            server.drain_expired(id, |tag| {
                events.push((tag as u32, Status::Expired, Vec::new()));
            });
            server.drain_outputs_tagged(id, |tag, out| {
                events.push((tag as u32, Status::Ok, out.to_vec()));
            });
            let mut failed_pending: Vec<u32> = Vec::new();
            {
                let route = self.routes.get_mut(&id).expect("route alive");
                events.sort_by_key(|&(seq, _, _)| {
                    route
                        .pending
                        .iter()
                        .position(|&s| s == seq)
                        .unwrap_or(usize::MAX)
                });
                for &(seq, _, _) in &events {
                    route.pending.retain(|&s| s != seq);
                }
                if !route.pending.is_empty() && (server.stream_failed(id) || !server.contains(id)) {
                    // Sticky stream error or LRU eviction: queued frames
                    // will never complete. Answer everything outstanding
                    // and drop the route so a resubmit starts fresh.
                    failed_pending = route.pending.drain(..).collect();
                }
            }
            for (seq, status, payload) in events {
                produced = true;
                self.respond(slot, id, seq, status, &payload);
            }
            if !failed_pending.is_empty() {
                self.routes.remove(&id);
                if let Some(conn) = self.conns[slot].as_mut() {
                    conn.streams.retain(|&s| s != id);
                }
                for seq in failed_pending {
                    produced = true;
                    self.respond(slot, id, seq, Status::Failed, &[]);
                }
            }
        }
        produced
    }

    /// Queues one response on a connection's write buffer.
    fn respond(&mut self, slot: usize, stream_id: u64, seq: u32, status: Status, payload: &[f32]) {
        if let Some(conn) = self.conns[slot].as_mut() {
            encode_response(&mut conn.wbuf, stream_id, seq, status, payload);
        }
    }

    /// Flushes as much of one connection's write buffer as the socket
    /// accepts. Returns whether any bytes moved.
    fn write_conn(&mut self, slot: usize) -> bool {
        let Some(conn) = self.conns[slot].as_mut() else {
            return false;
        };
        if conn.closed || conn.woff >= conn.wbuf.len() {
            return false;
        }
        let mut any = false;
        while conn.woff < conn.wbuf.len() {
            match conn.sock.write(&conn.wbuf[conn.woff..]) {
                Ok(0) => {
                    conn.closed = true;
                    break;
                }
                Ok(n) => {
                    conn.woff += n;
                    any = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.closed = true;
                    break;
                }
            }
        }
        if conn.woff >= conn.wbuf.len() {
            conn.wbuf.clear();
            conn.woff = 0;
        } else if conn.woff > READ_CHUNK {
            conn.wbuf.drain(..conn.woff);
            conn.woff = 0;
        }
        any
    }

    /// Drops closed connections and releases their stream ownership.
    /// In-flight frames of released streams stay in the shard (they
    /// execute and their outputs age out of the bounded output queue).
    fn reap_closed(&mut self) {
        for slot in 0..self.conns.len() {
            let close = self.conns[slot].as_ref().is_some_and(|c| c.closed);
            if close {
                if let Some(conn) = self.conns[slot].take() {
                    for id in conn.streams {
                        self.routes.remove(&id);
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.listener.local_addr().ok())
            .field("conns", &self.conns.iter().flatten().count())
            .field("routes", &self.routes.len())
            .finish_non_exhaustive()
    }
}
