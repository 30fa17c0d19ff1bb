//! The two serving workloads: `serve_open_loop` (many streams on the
//! sharded server, closed loop for capacity, then an open-loop arrival
//! schedule) and `net_closed_loop` (the same tier behind the TCP
//! front-end), plus the tier-by-tier probes of their traced runs.
//!
//! The load generator is this thread alone. It never spins on the shard
//! mutex: between polls it waits on the clock.

use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use reuse_core::{CompiledModel, ReuseConfig};
use reuse_nn::Network;
use reuse_serve::{
    ServerConfig, ShardWorkers, ShardedServer, StreamServer, SubmitOptions, SubmitResult,
};
use reuse_serve_net::protocol::{self, REQUEST_HEADER, RESPONSE_HEADER};
use reuse_serve_net::{NetClient, NetServer, Status};
use reuse_workloads::{Scale, Workload, WorkloadKind};

use crate::affinity::{self, Placement};
use crate::report::{Args, Report, Tally};
use crate::spec::{
    LIMIT_US, NET_CONNECTIONS, NET_STREAMS_PER_CONNECTION, POLL_US, RATE_HI, RATE_LO,
    SERVE_IN_FLIGHT, SERVE_STREAMS,
};
use crate::stats::{self, Measured, PingPong, Segment};
use crate::stream::{self, SessionTrace, Unit};
use crate::trace::{Tracer, ROOT};

/// Frames generated per stream after the warm-up ones.
const POOL_FRAMES: usize = 256;
/// Streams and frames per stream the bit-identity check pushes through a
/// tier, on stream ids the timed phases never used.
const VERIFY_STREAMS: usize = 4;
const VERIFY_FRAMES: usize = 48;
const VERIFY_ID_BASE: u64 = 1 << 20;
/// Segments of a closed-loop phase. The loop runs in cycles of everything in
/// flight (256 frames, 35-60 ms: the worker keeps the shard lock until its
/// queues are empty), so a segment must hold several cycles or the best
/// segments are merely the luckiest cycles.
const CLOSED_SEGMENTS: usize = 8;
/// Frames each tier probe of the traced run sends, one at a time.
const PROBE_FRAMES: usize = 400;
/// How long to keep polling for frames still in flight when a phase ends.
const GRACE: Duration = Duration::from_millis(500);
/// A blocked socket read gives up after this long rather than hang the run.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

fn poll_interval() -> Duration {
    Duration::from_micros(POLL_US)
}

/// Sleeps most of the way to `deadline`, then watches the clock. A plain
/// sleep overshoots by the timer slack, which is as long as a poll interval,
/// and wakes late by milliseconds when the host is busy: with sleeps alone
/// the send lateness p99 of the open loop rose from about 1 ms to 3-47 ms.
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The Kaldi model and per-stream frames both serving workloads use.
struct Inputs {
    workload: Workload,
    /// `feeds[s]` is stream `s`'s frames: warm-up frames first, then the
    /// pool the timed phases ping-pong over.
    feeds: Vec<Vec<Vec<f32>>>,
    warm: usize,
    /// Server threads on one CPU, this thread on another, for as long as
    /// the workload runs.
    placement: Option<Placement>,
}

impl Inputs {
    fn generate(streams: usize, args: &Args) -> Inputs {
        let scale = if args.quick {
            Scale::Tiny
        } else {
            Scale::Small
        };
        let workload = Workload::build(WorkloadKind::Kaldi, scale);
        let warm = stream::warm_units(workload.reuse_config());
        let pool = if args.quick { 32 } else { POOL_FRAMES };
        let feeds = (0..streams + VERIFY_STREAMS)
            .map(|s| {
                workload.generate_frames(warm + pool, args.seed.wrapping_add(1009 * (s as u64 + 1)))
            })
            .collect();
        Inputs {
            workload,
            feeds,
            warm,
            placement: Placement::detect(),
        }
    }

    fn network(&self) -> &Network {
        self.workload.network()
    }

    fn config(&self) -> &ReuseConfig {
        self.workload.reuse_config()
    }

    fn cursors(&self, streams: usize) -> Vec<PingPong> {
        (0..streams)
            .map(|s| PingPong::new(self.warm, self.feeds[s].len()))
            .collect()
    }
}

/// Room for the measured streams and for the verification streams after them.
fn server_config(streams: usize) -> ServerConfig {
    ServerConfig::default().max_sessions(streams + 2 * VERIFY_STREAMS)
}

/// One sharded server with its worker thread, warmed on `streams` streams.
struct Tier {
    model: Arc<CompiledModel>,
    workers: ShardWorkers,
}

impl Tier {
    fn start(inputs: &Inputs, network: &Network, config: &ReuseConfig, streams: usize) -> Tier {
        let model = Arc::new(CompiledModel::new(network, config));
        let server = ShardedServer::new(Arc::clone(&model), server_config(streams), 1)
            .expect("feed-forward model with default queues is a valid server configuration");
        let workers = affinity::spawn_server(inputs.placement.as_ref(), || {
            ShardWorkers::start(Arc::new(server))
        });
        let tier = Tier { model, workers };
        for s in 0..streams {
            for frame in &inputs.feeds[s][..inputs.warm] {
                let accepted = tier.server().submit(s as u64, frame);
                assert!(
                    matches!(accepted, Ok(SubmitResult::Accepted)),
                    "warm-up submit refused"
                );
            }
            tier.await_outputs(s as u64, inputs.warm, |_, _| {});
        }
        tier
    }

    fn server(&self) -> &Arc<ShardedServer> {
        self.workers.server()
    }

    /// Polls stream `id` until `count` outputs were drained or [`GRACE`]
    /// passed; returns how many arrived.
    fn await_outputs(&self, id: u64, count: usize, mut f: impl FnMut(u64, &[f32])) -> usize {
        let begun = Instant::now();
        let mut got = 0;
        while got < count && begun.elapsed() < GRACE + READ_TIMEOUT {
            got += self.server().drain_outputs_tagged(id, &mut f);
            if got < count {
                wait_until(Instant::now() + poll_interval());
            }
        }
        got
    }
}

/// Closed loop: every stream keeps up to [`SERVE_IN_FLIGHT`] frames in
/// flight. A segment's units are the frames the server completed while it
/// ran, read from the server's own counter at the segment's two ends: the
/// generator drains in bursts of up to everything in flight, which at 45 ms
/// a segment would be most of a segment's count.
fn closed_loop(
    tier: &Tier,
    inputs: &Inputs,
    cursors: &mut [PingPong],
    n_segments: usize,
    segment: Duration,
) -> Measured {
    let server = tier.server();
    let mut in_flight = vec![0usize; cursors.len()];
    let mut tally = Tally::default();
    let mut segments = Vec::with_capacity(n_segments);
    let mut completed = server.frames_completed();
    let mut begun = Instant::now();
    for _ in 0..n_segments {
        loop {
            for (s, cursor) in cursors.iter_mut().enumerate() {
                while in_flight[s] < SERVE_IN_FLIGHT {
                    let frame = &inputs.feeds[s][cursor.next_index()];
                    if matches!(server.submit(s as u64, frame), Ok(SubmitResult::Accepted)) {
                        in_flight[s] += 1;
                    } else {
                        tally.record(false);
                        break;
                    }
                }
            }
            let mut drained = 0;
            for (s, flying) in in_flight.iter_mut().enumerate().filter(|(_, n)| **n > 0) {
                let got = server.drain_outputs(s as u64, |out| {
                    black_box(out);
                });
                *flying -= got;
                drained += got;
            }
            tally.attempted += drained as u64;
            if begun.elapsed() >= segment {
                break;
            }
            if drained == 0 {
                wait_until(Instant::now() + poll_interval());
            }
        }
        let (now_completed, now) = (server.frames_completed(), Instant::now());
        segments.push(Segment {
            units: now_completed - completed,
            elapsed_ns: (now - begun).as_nanos() as u64,
            lat_ns: Vec::new(),
        });
        (completed, begun) = (now_completed, now);
    }
    for (s, flying) in in_flight.iter().enumerate() {
        let got = tier.await_outputs(s as u64, *flying, |_, _| {});
        tally.attempted += got as u64;
        for _ in got..*flying {
            tally.record(false);
        }
    }
    Measured { segments, tally }
}

/// What one open-loop phase measured.
struct OpenLoop {
    /// Due-time-to-drain latency of each offered frame by tag;
    /// `u64::MAX` for one that was refused, expired or never came back.
    lat_ns: Vec<u64>,
    /// How late each send ran against its due time.
    late_ns: Vec<u64>,
}

impl OpenLoop {
    fn offered(&self) -> usize {
        self.lat_ns.len()
    }

    fn tally(&self) -> Tally {
        Tally {
            attempted: self.offered() as u64,
            failed: self.lat_ns.iter().filter(|&&l| l == u64::MAX).count() as u64,
        }
    }

    /// Frames drained within the limit of their due time, over frames
    /// offered: a refused, shed or expired frame misses.
    fn within_limit_share(&self) -> f64 {
        let limit = LIMIT_US * 1000;
        self.lat_ns.iter().filter(|&&l| l <= limit).count() as f64 / self.offered().max(1) as f64
    }

    /// Completed latencies split into segments in due-time order.
    fn segments(&self, n: usize) -> Vec<Segment> {
        self.lat_ns
            .chunks(self.offered().div_ceil(n.max(1)).max(1))
            .map(|chunk| Segment {
                lat_ns: chunk.iter().copied().filter(|&l| l != u64::MAX).collect(),
                ..Segment::default()
            })
            .collect()
    }

    /// Median due-time-to-drain latency in the best decile of `n` chunks
    /// of the schedule, in microseconds.
    fn p50_us(&self, n: usize) -> f64 {
        stats::latency_p50(&self.segments(n)) / 1e3
    }

    /// 99th percentile over all completed frames (0 when the phase is too
    /// short to support it), in microseconds.
    fn p99_us(&self) -> f64 {
        stats::tail_percentile(&self.segments(1), 99).unwrap_or(0.0) / 1e3
    }

    fn late_p99_us(&self) -> f64 {
        let mut late = self.late_ns.clone();
        late.sort_unstable();
        stats::percentile(&late, 99)
            .or(late.last().copied())
            .unwrap_or(0) as f64
            / 1e3
    }
}

/// Open loop at a fixed `rate`: frame `k` is due at `start + k / rate` on
/// stream `k % streams`, latency runs from the due time to the moment this
/// thread drains the tagged output, and `late_ns` records how late each
/// send ran. With `deadline` every frame must complete within the limit of
/// its due time or be shed or expired by the server.
fn open_loop_once(
    tier: &Tier,
    inputs: &Inputs,
    cursors: &mut [PingPong],
    rate: f64,
    duration: Duration,
    deadline: bool,
) -> OpenLoop {
    let server = tier.server();
    let streams = cursors.len();
    let total = ((rate * duration.as_secs_f64()) as usize).max(1);
    let due_ns = |k: usize| (k as f64 * 1e9 / rate) as u64;
    let limit = Duration::from_micros(LIMIT_US);
    let mut lat_ns = vec![u64::MAX; total];
    let mut late_ns = Vec::with_capacity(total);
    let mut in_flight = vec![0usize; streams];
    let mut flying = 0usize;
    let start = Instant::now() + Duration::from_millis(2);
    let since_start = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    let mut next = 0usize;
    let mut next_poll = start;
    let give_up = start + duration + GRACE;
    loop {
        let mut now = Instant::now();
        while next < total && due_ns(next) <= since_start(now) {
            let s = next % streams;
            let due = start + Duration::from_nanos(due_ns(next));
            let opts = SubmitOptions {
                deadline: deadline.then_some(due + limit),
                tag: next as u64,
                ..SubmitOptions::default()
            };
            late_ns.push(since_start(now) - due_ns(next));
            let frame = &inputs.feeds[s][cursors[s].next_index()];
            if matches!(
                server.submit_with(s as u64, frame, opts),
                Ok(SubmitResult::Accepted)
            ) {
                in_flight[s] += 1;
                flying += 1;
            }
            next += 1;
            now = Instant::now();
        }
        if now >= next_poll && flying > 0 {
            for (s, flying_here) in in_flight.iter_mut().enumerate().filter(|(_, n)| **n > 0) {
                let mut done = 0;
                server.drain_outputs_tagged(s as u64, |tag, out| {
                    black_box(out);
                    lat_ns[tag as usize] =
                        since_start(Instant::now()).saturating_sub(due_ns(tag as usize));
                    done += 1;
                });
                if deadline {
                    done += server.drain_expired(s as u64, |_| {});
                }
                *flying_here -= done;
                flying -= done;
            }
            next_poll = Instant::now() + poll_interval();
        }
        if (next == total && flying == 0) || now >= give_up {
            break;
        }
        let next_due = if next < total {
            start + Duration::from_nanos(due_ns(next))
        } else {
            next_poll
        };
        wait_until(if flying > 0 {
            next_due.min(next_poll)
        } else {
            next_due
        });
    }
    OpenLoop { lat_ns, late_ns }
}

/// [`open_loop_once`], rerun once when sends ran late (lateness p99 above
/// half the limit), keeping the run whose sends were more punctual. A phase
/// that is late both times is marked `generator_stalled` in the notes: its
/// latencies say more about the host or about this thread being blocked
/// than about the server at this rate. It is not counted as a failed
/// operation, because no operation of the server failed.
fn open_loop(
    tier: &Tier,
    inputs: &Inputs,
    cursors: &mut [PingPong],
    rate: f64,
    duration: Duration,
    deadline: bool,
    report: &mut Report,
) -> OpenLoop {
    let late = |phase: &OpenLoop| phase.late_p99_us() > LIMIT_US as f64 / 2.0;
    let mut phase = open_loop_once(tier, inputs, cursors, rate, duration, deadline);
    if late(&phase) {
        let again = open_loop_once(tier, inputs, cursors, rate, duration, deadline);
        report.notes.push(format!(
            "open loop at {rate} frames/s rerun: send lateness p99 {:.0} us, then {:.0} us",
            phase.late_p99_us(),
            again.late_p99_us()
        ));
        if again.late_p99_us() < phase.late_p99_us() {
            phase = again;
        }
        if late(&phase) {
            report
                .notes
                .push(format!("generator_stalled at {rate} frames/s"));
        }
    }
    phase
}

/// What the bit-identity check of a tier found.
struct TierVerified {
    tally: Tally,
    checksum: u64,
    /// Per-stream reuse state of the standalone reference session.
    state_kib: f64,
}

/// Outside the timed phases: pushes the first frames of fresh streams
/// through the tier with `send` (which returns the tier's output for one
/// frame of one stream) and requires each output to be bit-identical to a
/// standalone `ReuseSession` fed the same frames.
fn verify_tier(
    inputs: &Inputs,
    model: &Arc<CompiledModel>,
    streams: usize,
    frames: usize,
    mut send: impl FnMut(u64, usize, &[f32]) -> Option<Vec<f32>>,
) -> TierVerified {
    let mut v = TierVerified {
        tally: Tally::default(),
        checksum: 0,
        state_kib: 0.0,
    };
    let mut expected = Vec::new();
    for i in 0..VERIFY_STREAMS {
        let feed = &inputs.feeds[streams + i];
        let mut session = model.new_session();
        for (t, frame) in feed.iter().take(frames).enumerate() {
            session
                .execute_into(frame, &mut expected)
                .expect("generated frame fits the model");
            let got = send(VERIFY_ID_BASE + i as u64, t, frame);
            let same = got.as_ref().is_some_and(|out| {
                out.len() == expected.len()
                    && out
                        .iter()
                        .zip(&expected)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            });
            v.tally.record(same);
            v.checksum = stats::checksum(v.checksum, got.as_deref().unwrap_or(&[]));
        }
        v.state_kib = stream::state_kib(&session);
    }
    v
}

/// Sends one frame through a sharded tier and waits for its output.
fn sharded_roundtrip(tier: &Tier, id: u64, tag: usize, frame: &[f32]) -> Option<Vec<f32>> {
    let opts = SubmitOptions::default().tagged(tag as u64);
    if !matches!(
        tier.server().submit_with(id, frame, opts),
        Ok(SubmitResult::Accepted)
    ) {
        return None;
    }
    let mut output = None;
    tier.await_outputs(id, 1, |got, out| {
        if got == tag as u64 {
            output = Some(out.to_vec());
        }
    });
    output
}

fn verify_frames(args: &Args) -> usize {
    if args.quick {
        12
    } else {
        VERIFY_FRAMES
    }
}

fn set_verified(report: &mut Report, v: &TierVerified) {
    report.set("state_kib_per_stream", v.state_kib);
    report.phase("verify", v.tally);
    report.correct = v.tally.failed == 0;
    report.checksum = v.checksum;
}

/// `serve_open_loop`, untraced: closed-loop capacity with reuse on and on
/// the reuse-off twin, then the gated open-loop phase at [`RATE_LO`].
pub fn run_serve(args: &Args) -> Report {
    let mut report = Report::new("serve_open_loop");
    let streams = if args.quick { 8 } else { SERVE_STREAMS };
    let inputs = Inputs::generate(streams, args);
    let n = args.segments();
    let share = |s: f64| Duration::from_secs_f64(args.seconds * s);

    let (tier, setup_s) = stream::median_setup(args.quick, || {
        let w = Workload::build(WorkloadKind::Kaldi, inputs.workload.scale());
        Tier::start(&inputs, w.network(), w.reuse_config(), streams)
    });
    let mut cursors = inputs.cursors(streams);
    let closed_n = n.min(CLOSED_SEGMENTS);
    let closed = closed_loop(
        &tier,
        &inputs,
        &mut cursors,
        closed_n,
        share(0.25) / closed_n as u32,
    );
    report.phase("closed_loop", closed.tally);

    let off_config = stream::disabled_config(inputs.network(), inputs.config());
    let twin = Tier::start(&inputs, inputs.network(), &off_config, streams);
    let closed_off = closed_loop(
        &twin,
        &inputs,
        &mut inputs.cursors(streams),
        closed_n,
        share(0.25) / closed_n as u32,
    );
    report.phase("closed_loop_off", closed_off.tally);
    drop(twin);

    let open = open_loop(
        &tier,
        &inputs,
        &mut cursors,
        RATE_LO,
        share(0.5),
        false,
        &mut report,
    );
    report.phase("open_loop", open.tally());

    let verified = verify_tier(
        &inputs,
        &tier.model,
        streams,
        verify_frames(args),
        |id, t, frame| sharded_roundtrip(&tier, id, t, frame),
    );
    report.set("setup_s", setup_s);
    report.set("frames_per_s", stats::throughput(&closed.segments));
    report.set(
        "baseline_frames_per_s",
        stats::throughput(&closed_off.segments),
    );
    report.set("unit_p50_us", open.p50_us(n));
    set_verified(&mut report, &verified);
    report.notes.push(format!(
        "open loop at {RATE_LO} frames/s: {} offered, median over all frames {:.1} us, within {LIMIT_US} us of due time {:.4}, send lateness p99 {:.0} us",
        open.offered(),
        stats::raw_median_ns(&open.segments(1)) / 1e3,
        open.within_limit_share(),
        open.late_p99_us()
    ));
    report
}

/// A `NetServer` on an OS-assigned loopback port with its event-loop
/// thread, and the connected clients driving it.
struct NetTier {
    model: Arc<CompiledModel>,
    addr: SocketAddr,
    clients: Vec<NetClient>,
    stop: Arc<AtomicBool>,
    event_loop: Option<JoinHandle<std::io::Result<()>>>,
}

impl NetTier {
    fn start(
        inputs: &Inputs,
        network: &Network,
        config: &ReuseConfig,
        connections: usize,
        per_conn: usize,
    ) -> NetTier {
        let model = Arc::new(CompiledModel::new(network, config));
        let loopback: SocketAddr = "127.0.0.1:0".parse().expect("literal socket address");
        let stop = Arc::new(AtomicBool::new(false));
        let stop_loop = Arc::clone(&stop);
        let server_config = server_config(connections * per_conn);
        let (addr, event_loop) = affinity::spawn_server(inputs.placement.as_ref(), || {
            let mut server = NetServer::bind(loopback, Arc::clone(&model), server_config, 1)
                .expect("bind a loopback port");
            let addr = server.local_addr().expect("bound socket has an address");
            let event_loop = std::thread::Builder::new()
                .name("bench-net-loop".into())
                .spawn(move || server.run(&stop_loop))
                .expect("spawn the event-loop thread");
            (addr, event_loop)
        });
        let mut tier = NetTier {
            model,
            addr,
            clients: Vec::new(),
            stop,
            event_loop: Some(event_loop),
        };
        for c in 0..connections {
            tier.clients.push(tier.connect());
            for s in c * per_conn..(c + 1) * per_conn {
                for (t, frame) in inputs.feeds[s][..inputs.warm].iter().enumerate() {
                    let response = tier.clients[c].roundtrip(s as u64, t as u32, frame);
                    assert!(
                        response.is_ok_and(|r| r.status == Status::Ok),
                        "warm-up round trip failed"
                    );
                }
            }
        }
        tier
    }

    fn connect(&self) -> NetClient {
        let client = NetClient::connect(self.addr).expect("connect to the loopback server");
        client
            .set_read_timeout(Some(READ_TIMEOUT))
            .expect("set a read timeout");
        client
    }
}

impl Drop for NetTier {
    fn drop(&mut self) {
        self.clients.clear();
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.event_loop.take() {
            let _ = handle.join();
        }
    }
}

/// Closed loop over the wire: one frame in flight per connection, each
/// connection rotating over its own streams. A unit is one round trip.
fn net_closed_loop(
    tier: &mut NetTier,
    inputs: &Inputs,
    cursors: &mut [PingPong],
    per_conn: usize,
    n_segments: usize,
    segment: Duration,
) -> Measured {
    let mut tally = Tally::default();
    let mut segments = Vec::with_capacity(n_segments);
    let mut turn = 0usize;
    let mut sent_at = vec![Instant::now(); tier.clients.len()];
    for _ in 0..n_segments {
        let mut seg = Segment {
            lat_ns: Vec::with_capacity(1 << 14),
            ..Segment::default()
        };
        let begun = Instant::now();
        while begun.elapsed() < segment {
            let seq = turn as u32;
            for (c, client) in tier.clients.iter_mut().enumerate() {
                let s = c * per_conn + turn % per_conn;
                let frame = &inputs.feeds[s][cursors[s].next_index()];
                sent_at[c] = Instant::now();
                if client.send(s as u64, seq, 0, 0, frame).is_err() {
                    tally.record(false);
                }
            }
            for (c, client) in tier.clients.iter_mut().enumerate() {
                let ok = client.recv().is_ok_and(|r| {
                    black_box(&r.payload);
                    r.status == Status::Ok && r.seq == seq
                });
                seg.lat_ns.push(sent_at[c].elapsed().as_nanos() as u64);
                tally.record(ok);
            }
            turn += 1;
        }
        seg.units = seg.lat_ns.len() as u64;
        seg.elapsed_ns = begun.elapsed().as_nanos() as u64;
        segments.push(seg);
    }
    Measured { segments, tally }
}

/// `net_closed_loop`, untraced.
pub fn run_net(args: &Args) -> Report {
    let mut report = Report::new("net_closed_loop");
    let (connections, per_conn) = (NET_CONNECTIONS, NET_STREAMS_PER_CONNECTION);
    let streams = connections * per_conn;
    let inputs = Inputs::generate(streams, args);
    let n = args.segments();
    let share = |s: f64| Duration::from_secs_f64(args.seconds * s);

    let (mut tier, setup_s) = stream::median_setup(args.quick, || {
        let w = Workload::build(WorkloadKind::Kaldi, inputs.workload.scale());
        NetTier::start(
            &inputs,
            w.network(),
            w.reuse_config(),
            connections,
            per_conn,
        )
    });
    let mut cursors = inputs.cursors(streams);
    let on = net_closed_loop(
        &mut tier,
        &inputs,
        &mut cursors,
        per_conn,
        n,
        share(0.6) / n as u32,
    );
    report.phase("round_trips", on.tally);

    let off_config = stream::disabled_config(inputs.network(), inputs.config());
    let mut twin = NetTier::start(
        &inputs,
        inputs.network(),
        &off_config,
        connections,
        per_conn,
    );
    let off = net_closed_loop(
        &mut twin,
        &inputs,
        &mut inputs.cursors(streams),
        per_conn,
        n,
        share(0.4) / n as u32,
    );
    report.phase("round_trips_off", off.tally);
    drop(twin);

    let model = Arc::clone(&tier.model);
    let client = &mut tier.clients[0];
    let verified = verify_tier(
        &inputs,
        &model,
        streams,
        verify_frames(args),
        |id, t, frame| {
            client
                .roundtrip(id, t as u32, frame)
                .ok()
                .filter(|r| r.status == Status::Ok)
                .map(|r| r.payload)
        },
    );
    report.set("setup_s", setup_s);
    report.set("frames_per_s", stats::throughput(&on.segments));
    report.set("baseline_frames_per_s", stats::throughput(&off.segments));
    report.set("unit_p50_us", stream::p50_us(&on.segments));
    set_verified(&mut report, &verified);
    report
}

/// One frame at a time through a tier: the per-frame latency samples and
/// the span id of each frame (for the next tier in to name as its parent).
struct ProbePass {
    lat_ns: Vec<u64>,
    span: Vec<u32>,
}

impl ProbePass {
    fn p50_ns(&self) -> f64 {
        stats::median(&mut self.lat_ns.iter().map(|&v| v as f64).collect::<Vec<_>>())
    }
}

/// Times `f(unit index, frame)` once per probe frame of stream 0, as one
/// span named `name` under `parents`.
fn probe_pass(
    inputs: &Inputs,
    frames: usize,
    name: &'static str,
    parents: &[u32],
    tracer: &mut Tracer,
    tally: &mut Tally,
    mut f: impl FnMut(&mut Tracer, u32, usize, &[f32]) -> bool,
) -> ProbePass {
    let mut pass = ProbePass {
        lat_ns: Vec::with_capacity(frames),
        span: vec![ROOT; inputs.warm + frames],
    };
    for index in inputs.warm..inputs.warm + frames {
        let parent = parents.get(index).copied().unwrap_or(ROOT);
        let frame = &inputs.feeds[0][index];
        let start = tracer.now_ns();
        // Recorded open so children recorded inside `f` can name it.
        let id = tracer.record(name, parent, index as u32, start, start);
        let ok = f(tracer, id, index, frame);
        let end = tracer.now_ns();
        tracer.close(id, end);
        pass.lat_ns.push(end - start);
        pass.span[index] = id;
        tally.record(ok);
    }
    pass
}

/// The tier-by-tier probes shared by both serving traces, outermost tier
/// first so each inner tier can name the outer span of the same frame as
/// its parent: (wire round trip ⊃) sharded submit→drain ⊃ StreamServer
/// tick ⊃ session execute ⊃ layer replays.
fn trace_tiers(
    inputs: &Inputs,
    args: &Args,
    with_wire: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let frames =
        if args.quick { 16 } else { PROBE_FRAMES }.min(inputs.feeds[0].len() - inputs.warm);
    let mut tally = Tally::default();

    let wire = with_wire.then(|| {
        let mut net = NetTier::start(inputs, inputs.network(), inputs.config(), 1, 1);
        let mut not_ok = 0u64;
        let pass = probe_pass(
            inputs,
            frames,
            "serve_net.roundtrip_p50_us",
            &[],
            tracer,
            &mut tally,
            |_, _, index, frame| {
                let ok = net.clients[0]
                    .roundtrip(0, index as u32, frame)
                    .is_ok_and(|r| r.status == Status::Ok);
                not_ok += u64::from(!ok);
                ok
            },
        );
        let mut connects: Vec<f64> = (0..9)
            .map(|_| {
                let t = Instant::now();
                drop(net.connect());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        report.set("serve_net.connect_us", stats::median(&mut connects));
        report.set("serve_net.status_not_ok", not_ok as f64);
        pass
    });
    let no_parents = Vec::new();
    let wire_spans = wire.as_ref().map_or(&no_parents, |w| &w.span);

    let sharded = {
        let tier = Tier::start(inputs, inputs.network(), inputs.config(), 1);
        probe_pass(
            inputs,
            frames,
            "serve.sharded_rtt_p50_us",
            wire_spans,
            tracer,
            &mut tally,
            |_, _, index, frame| sharded_roundtrip(&tier, 0, index, frame).is_some(),
        )
    };

    let (mut submit_ns, mut tick_ns, mut drain_ns) = (Vec::new(), Vec::new(), Vec::new());
    let single = {
        let model = Arc::new(CompiledModel::new(inputs.network(), inputs.config()));
        let mut server =
            StreamServer::new(model, server_config(1)).expect("valid server configuration");
        for frame in &inputs.feeds[0][..inputs.warm] {
            let _ = server.submit(0, frame);
            let _ = server.tick();
            server.drain_outputs(0, |_| {});
        }
        probe_pass(
            inputs,
            frames,
            "serve.stream_server_frame",
            &sharded.span,
            tracer,
            &mut tally,
            |tracer, id, index, frame| {
                let unit = index as u32;
                let (accepted, ns) =
                    tracer.span("serve.submit_ns", id, unit, || server.submit(0, frame));
                submit_ns.push(ns as f64);
                let (ticked, ns) =
                    tracer.span("serve.tick_ns_per_frame", id, unit, || server.tick());
                tick_ns.push(ns as f64);
                let (drained, ns) = tracer.span("serve.drain_ns", id, unit, || {
                    server.drain_outputs(0, |out| {
                        black_box(out);
                    })
                });
                drain_ns.push(ns as f64);
                matches!(accepted, Ok(SubmitResult::Accepted))
                    && ticked.is_ok_and(|t| t.frames == 1)
                    && drained == 1
            },
        )
    };
    report.phase("tier_probes", tally);

    // The session tier and the layers under it, on the same frames.
    let units: Vec<Unit> = inputs.feeds[0].iter().map(|f| vec![f.clone()]).collect();
    let st = SessionTrace {
        network: inputs.network(),
        config: inputs.config(),
        units: &units,
        replay_units: if args.quick { 4 } else { 200 },
        verify_units: if args.quick { 12 } else { 200 },
        verify_every: 4,
        share: 0.3,
        traced_passes: 8,
        parents: &single.span,
    };
    // The tiers ran sessions without telemetry, so the untraced session
    // median is what their spans contain.
    let session_ns = stream::trace_session(&st, args, tracer, report);

    let (submit, tick, drain) = (
        stats::median(&mut submit_ns),
        stats::median(&mut tick_ns),
        stats::median(&mut drain_ns),
    );
    report.set("serve.submit_ns", submit);
    report.set("serve.tick_ns_per_frame", tick);
    report.set("serve.drain_ns", drain);
    report.set(
        "serve.stream_server_self_ns",
        submit + tick + drain - session_ns,
    );
    report.set("serve.sharded_rtt_p50_us", sharded.p50_ns() / 1e3);
    report.set(
        "serve.sharded_self_us",
        (sharded.p50_ns() - single.p50_ns()) / 1e3,
    );
    if let Some(wire) = wire {
        report.set("serve_net.roundtrip_p50_us", wire.p50_ns() / 1e3);
        report.set(
            "serve_net.wire_self_us",
            (wire.p50_ns() - sharded.p50_ns()) / 1e3,
        );
    }
}

/// `serve_open_loop`, traced: tier probes, then the open-loop phases with
/// the server's own counters read beside them.
pub fn run_serve_traced(args: &Args) -> Report {
    let mut report = Report::new("serve_open_loop");
    let streams = if args.quick { 8 } else { SERVE_STREAMS };
    let t = Instant::now();
    let inputs = Inputs::generate(streams, args);
    report.set("workloads.generate_s", t.elapsed().as_secs_f64());
    let mut tracer = Tracer::with_capacity(1 << 17);
    trace_tiers(&inputs, args, false, &mut tracer, &mut report);

    let tier = Tier::start(&inputs, inputs.network(), inputs.config(), streams);
    let mut cursors = inputs.cursors(streams);
    let share = |s: f64| Duration::from_secs_f64(args.seconds * s);
    let n = args.segments();
    let server = tier.server();
    server.clear_latency();
    let before = server.snapshot();
    let lo = open_loop(
        &tier,
        &inputs,
        &mut cursors,
        RATE_LO,
        share(0.3),
        false,
        &mut report,
    );
    let after = server.snapshot();
    let latency = server.merged_latency();
    report.phase("open_loop", lo.tally());
    report.set("serve.server_latency_p50_us", latency.p50_ns() as f64 / 1e3);
    report.set("serve.server_latency_p99_us", latency.p99_ns() as f64 / 1e3);
    let ticks = |s: &reuse_serve::ShardedSnapshot| s.shards.iter().map(|x| x.ticks).sum::<u64>();
    let frames = after.frames_completed() - before.frames_completed();
    report.set(
        "serve.frames_per_tick",
        frames as f64 / (ticks(&after) - ticks(&before)).max(1) as f64,
    );
    report.set("serve.open_p50_us", lo.p50_us(n));
    report.set("serve.open_p99_us", lo.p99_us());
    report.set("serve.within_limit_share", lo.within_limit_share());
    report.set("serve.gen_late_p99_us", lo.late_p99_us());

    // The overload probe carries deadlines, so the admission path (projected
    // miss, expiry) runs; what it sheds is the server working as designed
    // and is reported as a share, not counted as a failed operation.
    let hi = open_loop(
        &tier,
        &inputs,
        &mut cursors,
        RATE_HI,
        share(0.2),
        true,
        &mut report,
    );
    let t = hi.tally();
    report.notes.push(format!(
        "overload probe at {RATE_HI} frames/s with {LIMIT_US} us deadlines: {} offered, {} shed, expired or late beyond grace (not counted as failed)",
        t.attempted, t.failed
    ));
    report.set("serve.open_hi_p50_us", hi.p50_us(n));
    report.set("serve.open_hi_within_limit_share", hi.within_limit_share());
    let end = server.snapshot();
    report.set("serve.queue_full", end.rejected_queue_full() as f64);
    report.set("serve.shed", end.shed() as f64);
    report.set("serve.deadline_shed", end.deadline_shed() as f64);
    report.set("serve.expired", end.expired() as f64);
    report.set(
        "serve.evictions",
        end.shards.iter().map(|s| s.evictions).sum::<u64>() as f64,
    );
    stream::finish_trace(&tracer, &mut report);
    report
}

/// Mean nanoseconds per call of `f` over enough repetitions to swamp the
/// clock reads.
fn mean_ns(mut f: impl FnMut()) -> f64 {
    const REPS: u32 = 2000;
    let t = Instant::now();
    for _ in 0..REPS {
        f();
    }
    t.elapsed().as_nanos() as f64 / f64::from(REPS)
}

/// `net_closed_loop`, traced: tier probes including the wire, plus the
/// protocol functions called directly.
pub fn run_net_traced(args: &Args) -> Report {
    let mut report = Report::new("net_closed_loop");
    let t = Instant::now();
    let inputs = Inputs::generate(1, args);
    report.set("workloads.generate_s", t.elapsed().as_secs_f64());
    let mut tracer = Tracer::with_capacity(1 << 17);
    trace_tiers(&inputs, args, true, &mut tracer, &mut report);

    let frame = &inputs.feeds[0][inputs.warm];
    let output = inputs
        .network()
        .forward_flat(frame)
        .expect("generated frame fits the network")
        .into_vec();
    let mut buf = Vec::with_capacity(4 * (frame.len() + output.len()) + 64);
    report.set(
        "serve_net.encode_request_ns",
        mean_ns(|| {
            buf.clear();
            protocol::encode_request(&mut buf, 7, 1, 0, 0, black_box(frame));
        }),
    );
    let request = buf.clone();
    report.set(
        "serve_net.decode_request_ns",
        mean_ns(|| {
            black_box(protocol::decode_request(black_box(&request[4..])));
        }),
    );
    report.set(
        "serve_net.encode_response_ns",
        mean_ns(|| {
            buf.clear();
            protocol::encode_response(&mut buf, 7, 1, Status::Ok, black_box(&output));
        }),
    );
    let response = buf.clone();
    report.set(
        "serve_net.decode_f32s_ns",
        mean_ns(|| {
            black_box(protocol::decode_f32s(black_box(
                &response[4 + RESPONSE_HEADER..],
            )));
        }),
    );
    let bytes = 4 + REQUEST_HEADER + 4 * frame.len() + 4 + RESPONSE_HEADER + 4 * output.len();
    report.set("serve_net.bytes_per_roundtrip", bytes as f64);
    stream::finish_trace(&tracer, &mut report);
    report
}
