//! The network front-end: a non-blocking TCP event loop routing protocol
//! frames to a [`ShardedServer`].
//!
//! One thread runs the event loop (accept, read, submit, drain, write);
//! dedicated per-shard workers ([`reuse_serve::ShardWorkers`]) execute
//! frames concurrently. No external event-loop dependency: sockets are
//! `set_nonblocking`, and between passes the loop blocks in `poll(2)` on
//! the listener, every connection and a wake pipe that each shard worker
//! writes one byte to after a tick, so a pass runs when a socket is ready
//! or a shard has results to drain — never on a timer.
//!
//! **Stream ownership.** The first connection to submit a stream id owns
//! it; submits for a stream owned by another live connection are answered
//! [`Status::Failed`] (interleaving two connections' frames into one
//! reuse chain would corrupt both). Ownership is released when the owning
//! connection closes, and a released stream is closed
//! ([`ShardedServer::close_stream`]): its session, queued frames and
//! undrained outputs are dropped, so the id's next owner starts a fresh
//! session and never receives an earlier owner's responses.

use std::collections::{HashMap, VecDeque};
use std::ffi::{c_int, c_short, c_ulong};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use reuse_core::CompiledModel;
use reuse_serve::{
    ServeError, ServerConfig, ShardWorkers, ShardedServer, SubmitOptions, SubmitResult,
};

use crate::protocol::{
    check_client_preamble, decode_request, encode_response, encode_server_preamble, peek_len,
    Status, FLAG_DEADLINE,
};

/// Read chunk size per socket per poll iteration.
const READ_CHUNK: usize = 64 * 1024;

/// How long one `poll` blocks with nothing to do, in milliseconds. It
/// bounds only how late [`NetServer::run`] sees its stop flag: sockets and
/// shard completions end the wait as they happen.
const POLL_TIMEOUT_MS: c_int = 20;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// One accepted connection's buffers.
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
            closed: false,
        }
    }
}

/// Routing state for one owned stream: the only record of which
/// connection owns it.
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
    /// Read end of the pipe the shard workers' completion waker writes to.
    wake: UnixStream,
    /// The `poll` set, rebuilt before every wait: the wake pipe, the
    /// listener, then every live connection.
    pollfds: Vec<PollFd>,
    input_len: usize,
    output_len: usize,
    conns: Vec<Option<Conn>>,
    routes: HashMap<u64, StreamRoute>,
}

impl NetServer {
    /// Binds `addr` and builds a [`ShardedServer`] with `shards` shards
    /// over `model`, spawning one worker thread per shard whose every tick
    /// wakes [`Self::run`]. Use port 0 for an OS-assigned port
    /// ([`Self::local_addr`] reports it).
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
        // Non-blocking at both ends: a worker holding its shard lock never
        // waits on a full pipe (a byte already queued wakes the loop all
        // the same), and the loop drains it without blocking.
        let (wake, signal) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        signal.set_nonblocking(true)?;
        sharded.set_completion_waker(move || {
            let _ = (&signal).write(&[1]);
        });
        Ok(NetServer {
            listener,
            workers: ShardWorkers::start(Arc::new(sharded)),
            wake,
            pollfds: Vec::new(),
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

    /// Runs the event loop until `stop` is set: waits until a socket is
    /// ready or a shard worker has ticked, then accepts connections, reads
    /// and validates protocol frames, submits them to the owning shard,
    /// drains completions/expiries into responses, and writes them back.
    /// `stop` is checked between passes, and an idle wait lasts at most
    /// 20 ms, so a set `stop` returns within about that long.
    ///
    /// # Errors
    ///
    /// Returns only listener-level and `poll` I/O errors; per-connection
    /// errors close that connection.
    pub fn run(&mut self, stop: &AtomicBool) -> std::io::Result<()> {
        while !stop.load(Ordering::SeqCst) {
            self.wait_for_events()?;
            self.accept_new()?;
            for slot in 0..self.conns.len() {
                self.read_conn(slot);
            }
            self.drain_completions();
            for slot in 0..self.conns.len() {
                self.write_conn(slot);
            }
            self.reap_closed();
        }
        Ok(())
    }

    /// Blocks in `poll` until the listener or a connection is readable, a
    /// connection with queued output is writable, a shard worker has
    /// written to the wake pipe, or [`POLL_TIMEOUT_MS`] passes; then empties
    /// the wake pipe. A pass reads every socket until it would block and
    /// drains every shard result, so what is left when the next wait starts
    /// is exactly what this wait watches: nothing a socket or a tick makes
    /// ready goes unseen. (A stream error injected from outside a tick, or
    /// an eviction by another thread's submit, writes no byte; the pass
    /// after the timeout answers it.)
    fn wait_for_events(&mut self) -> std::io::Result<()> {
        let watch = |fd: RawFd, events: c_short| PollFd {
            fd,
            events,
            revents: 0,
        };
        self.pollfds.clear();
        self.pollfds.push(watch(self.wake.as_raw_fd(), POLLIN));
        self.pollfds.push(watch(self.listener.as_raw_fd(), POLLIN));
        for conn in self.conns.iter().flatten() {
            let events = if conn.woff < conn.wbuf.len() {
                POLLIN | POLLOUT
            } else {
                POLLIN
            };
            self.pollfds.push(watch(conn.sock.as_raw_fd(), events));
        }
        // SAFETY: `pollfds` is an initialised array of `len` `#[repr(C)]`
        // `struct pollfd`s, exclusively borrowed for the call; `poll` only
        // writes their `revents` and keeps no pointer past its return.
        let ready = unsafe {
            poll(
                self.pollfds.as_mut_ptr(),
                self.pollfds.len() as c_ulong,
                POLL_TIMEOUT_MS,
            )
        };
        if ready < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() != ErrorKind::Interrupted {
                return Err(err);
            }
        }
        if self.pollfds[0].revents & POLLIN != 0 {
            let mut bytes = [0u8; 64];
            loop {
                match (&self.wake).read(&mut bytes) {
                    Ok(n) if n == bytes.len() => {}
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    _ => break,
                }
            }
        }
        Ok(())
    }

    /// Accepts all pending connections.
    fn accept_new(&mut self) -> std::io::Result<()> {
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
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads and parses everything available on one connection.
    fn read_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.closed {
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match conn.sock.read(&mut chunk) {
                Ok(0) => {
                    conn.closed = true;
                    break;
                }
                Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.closed = true;
                    break;
                }
            }
        }
        self.parse_conn(slot);
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
        // Failed: a reserved flag bit (serving the frame anyway would ignore
        // what it asks for), a wrong-length payload, or a stream another
        // live connection owns.
        let owner = self.routes.get(&req.stream_id).map_or(slot, |r| r.conn);
        if req.flags & !FLAG_DEADLINE != 0 || req.payload.len() != self.input_len || owner != slot {
            self.respond(slot, req.stream_id, req.seq, Status::Failed, &[]);
            return;
        }
        let route = self
            .routes
            .entry(req.stream_id)
            .or_insert_with(|| StreamRoute {
                conn: slot,
                pending: VecDeque::new(),
            });
        let mut opts = SubmitOptions::default().tagged(req.seq as u64);
        if req.flags & FLAG_DEADLINE != 0 {
            opts = opts.with_deadline(Duration::from_micros(u64::from(req.deadline_us)));
        }
        let result = self
            .workers
            .server()
            .submit_with(req.stream_id, &req.payload, opts);
        let status = match result {
            Ok(SubmitResult::Accepted) => {
                route.pending.push_back(req.seq);
                return;
            }
            Ok(SubmitResult::QueueFull) => Status::QueueFull,
            Ok(SubmitResult::Shed) => Status::Shed,
            Ok(SubmitResult::DeadlineShed) => Status::DeadlineShed,
            Err(ServeError::Reuse(_)) | Err(_) => Status::Failed,
        };
        self.respond(slot, req.stream_id, req.seq, status, &[]);
    }

    /// Drains completed outputs and expiries for every routed stream
    /// straight into its connection's write buffer; fails pending frames
    /// of dead streams.
    fn drain_completions(&mut self) {
        let server = self.workers.server();
        let conns = &mut self.conns;
        self.routes.retain(|&id, route| {
            if route.pending.is_empty() {
                return true;
            }
            let Some(conn) = conns[route.conn].as_mut() else {
                return true;
            };
            // The tag carried through the server is the request seq. `Ok`s
            // leave in submission order; an `Expired` may overtake earlier
            // frames' `Ok`s, which the protocol allows.
            let mut answer = |tag: u64, status, payload: &[f32]| {
                let seq = tag as u32;
                if let Some(at) = route.pending.iter().position(|&s| s == seq) {
                    route.pending.remove(at);
                }
                encode_response(&mut conn.wbuf, id, seq, status, payload);
            };
            server.drain_expired(id, |tag| answer(tag, Status::Expired, &[]));
            server.drain_outputs_tagged(id, |tag, out| answer(tag, Status::Ok, out));
            if !route.pending.is_empty() && (server.stream_failed(id) || !server.contains(id)) {
                // Sticky stream error or LRU eviction: queued frames will
                // never complete. Answer everything outstanding, close the
                // stream (a failed one still holds its session) and drop
                // the route, so a resubmit starts fresh.
                for seq in route.pending.drain(..) {
                    encode_response(&mut conn.wbuf, id, seq, Status::Failed, &[]);
                }
                server.close_stream(id);
                return false;
            }
            true
        });
    }

    /// Queues one response on a connection's write buffer.
    fn respond(&mut self, slot: usize, stream_id: u64, seq: u32, status: Status, payload: &[f32]) {
        if let Some(conn) = self.conns[slot].as_mut() {
            encode_response(&mut conn.wbuf, stream_id, seq, status, payload);
        }
    }

    /// Flushes as much of one connection's write buffer as the socket
    /// accepts.
    fn write_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        if conn.closed || conn.woff >= conn.wbuf.len() {
            return;
        }
        while conn.woff < conn.wbuf.len() {
            match conn.sock.write(&conn.wbuf[conn.woff..]) {
                Ok(0) => {
                    conn.closed = true;
                    break;
                }
                Ok(n) => conn.woff += n,
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
    }

    /// Drops closed connections and closes the streams they owned, so the
    /// next owner of an id starts a fresh session and no earlier output is
    /// left to send it.
    fn reap_closed(&mut self) {
        let mut any = false;
        for conn in &mut self.conns {
            if conn.as_ref().is_some_and(|c| c.closed) {
                *conn = None;
                any = true;
            }
        }
        if any {
            let server = self.workers.server();
            let conns = &self.conns;
            self.routes.retain(|&id, route| {
                let live = conns[route.conn].is_some();
                if !live {
                    server.close_stream(id);
                }
                live
            });
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
