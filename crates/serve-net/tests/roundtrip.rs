//! Loopback round-trips through the full network stack — preamble,
//! framing, sharded submit, worker ticks, tagged drains — must return
//! outputs **bit-identical** to a standalone [`ReuseSession`] fed the
//! same frames.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use reuse_core::{CompiledModel, ReuseConfig, ReuseError};
use reuse_nn::{init::Rng64, Activation, Network, NetworkBuilder};
use reuse_serve::{ServerConfig, ShardedServer};
use reuse_serve_net::protocol::FLAG_DEADLINE;
use reuse_serve_net::{NetClient, NetServer, Status};

fn mlp() -> Network {
    NetworkBuilder::new("net-mlp", 12)
        .seed(11)
        .fully_connected(24, Activation::Relu)
        .fully_connected(16, Activation::Relu)
        .fully_connected(4, Activation::Identity)
        .build()
        .unwrap()
}

/// A smooth random walk of frames, mimicking consecutive input windows.
fn walk(len: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Rng64::new(seed);
    let mut frame: Vec<f32> = (0..dim).map(|_| rng.uniform(0.5)).collect();
    (0..len)
        .map(|_| {
            for v in &mut frame {
                *v = (*v + rng.uniform(0.05)).clamp(-1.0, 1.0);
            }
            frame.clone()
        })
        .collect()
}

fn assert_bits_eq(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
    }
}

/// Starts a server on an OS-assigned loopback port; returns its address
/// and a guard that holds the sharded server and stops the event loop on
/// drop.
fn start_server(model: Arc<CompiledModel>, shards: usize) -> (SocketAddr, ServerGuard) {
    start_named_server(model, shards, "net-loop")
}

/// [`start_server`], running the event loop on a thread called `name`.
fn start_named_server(
    model: Arc<CompiledModel>,
    shards: usize,
    name: &str,
) -> (SocketAddr, ServerGuard) {
    let mut server = NetServer::bind(
        "127.0.0.1:0".parse().unwrap(),
        model,
        ServerConfig::default(),
        shards,
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let sharded = Arc::clone(server.sharded());
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || server.run(&stop2).unwrap())
        .unwrap();
    (
        addr,
        ServerGuard {
            sharded,
            stop,
            handle: Some(handle),
        },
    )
}

struct ServerGuard {
    sharded: Arc<ShardedServer>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Polls `done` every millisecond; panics with `what` after 20 s.
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < give_up, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn roundtrip_is_bit_identical_to_standalone_session() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(8)));
    let (addr, _guard) = start_server(Arc::clone(&model), 2);

    let mut client = NetClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    assert_eq!(client.input_len(), 12);
    assert_eq!(client.output_len(), 4);

    // Three streams interleaved over one connection; each must match its
    // own standalone session exactly.
    let stream_ids = [3u64, 900, 41];
    let streams: Vec<Vec<Vec<f32>>> = stream_ids
        .iter()
        .map(|&id| walk(24, 12, 1000 + id))
        .collect();
    let mut outputs: Vec<Vec<Vec<f32>>> = streams.iter().map(|_| Vec::new()).collect();
    // Index-driven on purpose: frame t of every stream is submitted before
    // frame t+1 of any, interleaving the streams over one connection.
    #[allow(clippy::needless_range_loop)]
    for t in 0..streams[0].len() {
        for (s, &id) in stream_ids.iter().enumerate() {
            let resp = client.roundtrip(id, t as u32, &streams[s][t]).unwrap();
            assert_eq!(resp.status, Status::Ok, "stream {id} frame {t}");
            outputs[s].push(resp.payload);
        }
    }

    for (s, stream) in streams.iter().enumerate() {
        let mut session = model.new_session();
        for (t, frame) in stream.iter().enumerate() {
            let expect = session.execute(frame).unwrap();
            assert_bits_eq(&outputs[s][t], expect.as_slice());
        }
    }
}

#[test]
fn pipelined_submits_complete_in_order() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(8)));
    let (addr, _guard) = start_server(Arc::clone(&model), 1);

    let mut client = NetClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let frames = walk(16, 12, 77);
    // Fire the whole stream without waiting (fits the default queue).
    for (t, frame) in frames.iter().enumerate() {
        client.send(5, t as u32, 0, 0, frame).unwrap();
    }
    let mut session = model.new_session();
    let mut got = 0usize;
    while got < frames.len() {
        let resp = client.recv().unwrap();
        match resp.status {
            Status::Ok => {
                // In-order completion within the stream.
                assert_eq!(resp.seq as usize, got);
                let expect = session.execute(&frames[got]).unwrap();
                assert_bits_eq(&resp.payload, expect.as_slice());
                got += 1;
            }
            Status::QueueFull => {
                // Resubmit the rejected frame (and everything after it was
                // not sent yet in this test, so just retry it).
                let t = resp.seq as usize;
                std::thread::sleep(Duration::from_micros(500));
                client.send(5, resp.seq, 0, 0, &frames[t]).unwrap();
            }
            other => panic!("unexpected status {other:?}"),
        }
    }
}

#[test]
fn second_connection_cannot_hijack_a_stream() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(8)));
    let (addr, _guard) = start_server(model, 2);

    let mut owner = NetClient::connect(addr).unwrap();
    owner
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let frames = walk(2, 12, 9);
    let resp = owner.roundtrip(70, 0, &frames[0]).unwrap();
    assert_eq!(resp.status, Status::Ok);

    let mut intruder = NetClient::connect(addr).unwrap();
    intruder
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let resp = intruder.roundtrip(70, 0, &frames[1]).unwrap();
    assert_eq!(resp.status, Status::Failed, "stream 70 belongs to `owner`");

    // The owner keeps working.
    let resp = owner.roundtrip(70, 1, &frames[1]).unwrap();
    assert_eq!(resp.status, Status::Ok);
}

#[test]
fn wrong_length_frame_fails_cleanly() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(8)));
    let (addr, _guard) = start_server(model, 1);
    let mut client = NetClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let resp = client.roundtrip(1, 0, &[0.0f32; 5]).unwrap();
    assert_eq!(resp.status, Status::Failed);
    // The connection survives and serves correct frames afterwards.
    let frame = walk(1, 12, 3).pop().unwrap();
    let resp = client.roundtrip(1, 1, &frame).unwrap();
    assert_eq!(resp.status, Status::Ok);
}

#[test]
fn reserved_flag_bits_are_rejected_and_the_connection_survives() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(8)));
    let (addr, _guard) = start_server(Arc::clone(&model), 1);
    let mut client = NetClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let frame = walk(1, 12, 4).pop().unwrap();
    for (seq, flags) in [(0u32, 1u8 << 0), (1, 1 << 7)] {
        client.send(2, seq, flags, 0, &frame).unwrap();
        let resp = client.recv().unwrap();
        assert_eq!(
            (resp.seq, resp.status),
            (seq, Status::Failed),
            "flags {flags:#04x}"
        );
    }
    // Neither rejected request reached the stream: the next frame runs on a
    // fresh session.
    let resp = client.roundtrip(2, 2, &frame).unwrap();
    assert_eq!(resp.status, Status::Ok);
    let expect = model.new_session().execute(&frame).unwrap();
    assert_bits_eq(&resp.payload, expect.as_slice());
}

#[test]
fn a_new_owner_never_sees_the_previous_owners_responses() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(8)));
    let (addr, guard) = start_server(Arc::clone(&model), 1);
    let frames = walk(31, 12, 21);

    // The owner pipelines 30 frames on stream 7 and, once the server has
    // taken them all, vanishes without reading a response.
    let mut owner = NetClient::connect(addr).unwrap();
    for (t, frame) in frames[..30].iter().enumerate() {
        owner.send(7, t as u32, 0, 0, frame).unwrap();
    }
    wait_for("the owner's frames never arrived", || {
        guard.sharded.snapshot().frames_submitted() == 30
    });
    drop(owner);
    // None of its frames is left queued: each one ran, or was dropped with
    // the stream.
    wait_for("the owner's frames never ran", || {
        guard.sharded.pending() == 0
    });

    // The next client takes the id once the owner's connection is reaped
    // (until then the id is still owned, and its submits fail).
    let mut next = NetClient::connect(addr).unwrap();
    next.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut first = None;
    wait_for("the owner's connection was never reaped", || {
        next.send(7, 1000, 0, 0, &frames[30]).unwrap();
        let resp = next.recv().unwrap();
        let taken = resp.status != Status::Failed;
        first = Some(resp);
        taken
    });
    let resp = first.unwrap();
    // Its first response answers its own frame, computed on a fresh session.
    assert_eq!((resp.seq, resp.status), (1000, Status::Ok));
    let mut session = model.new_session();
    let expect = session.execute(&frames[30]).unwrap();
    assert_bits_eq(&resp.payload, expect.as_slice());
    // And nothing else was waiting: the next response answers the next frame.
    let resp = next.roundtrip(7, 1001, &frames[0]).unwrap();
    assert_eq!(resp.status, Status::Ok);
    let expect = session.execute(&frames[0]).unwrap();
    assert_bits_eq(&resp.payload, expect.as_slice());
}

#[test]
fn a_frame_past_its_deadline_expires_and_later_frames_complete_in_order() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(8)));
    let (addr, _guard) = start_server(Arc::clone(&model), 1);
    let mut client = NetClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let frames = walk(6, 12, 31);
    // A fresh server has no service-time estimate, so it accepts a frame
    // with no slack and drops it at dispatch instead.
    client.send(4, 0, FLAG_DEADLINE, 0, &frames[0]).unwrap();
    for (t, frame) in frames.iter().enumerate().skip(1) {
        client.send(4, t as u32, 0, 0, frame).unwrap();
    }
    let mut expired = Vec::new();
    let mut ok = Vec::new();
    for _ in 0..frames.len() {
        let resp = client.recv().unwrap();
        match resp.status {
            Status::Expired => expired.push(resp.seq),
            Status::Ok => ok.push(resp),
            other => panic!("seq {}: unexpected status {other:?}", resp.seq),
        }
    }
    assert_eq!(expired, vec![0]);
    // The plain frames ran in order, on a session that never saw frame 0.
    let mut session = model.new_session();
    for (t, resp) in (1..).zip(&ok) {
        assert_eq!(resp.seq, t);
        let expect = session.execute(&frames[t as usize]).unwrap();
        assert_bits_eq(&resp.payload, expect.as_slice());
    }
    assert_eq!(ok.len(), frames.len() - 1);
}

#[test]
fn a_failed_stream_is_closed_and_its_next_frame_starts_fresh() {
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(8)));
    let (addr, guard) = start_server(Arc::clone(&model), 1);
    let mut client = NetClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let frames = walk(3, 12, 51);
    let resp = client.roundtrip(6, 0, &frames[0]).unwrap();
    assert_eq!(resp.status, Status::Ok);

    let injected = ReuseError::Nn(reuse_nn::NnError::InputShape {
        expected: 12,
        actual: 11,
    });
    assert!(guard.sharded.inject_stream_error(6, injected));
    // The failed stream accepts the next frame but will never run it: the
    // loop answers it `Failed` and, in the same pass, drops the route and
    // closes the stream, before the response is written.
    let resp = client.roundtrip(6, 1, &frames[1]).unwrap();
    assert_eq!((resp.seq, resp.status), (1, Status::Failed));
    assert!(
        !guard.sharded.contains(6),
        "the failed stream outlived its route"
    );

    // So the owner's next frame runs on a fresh session.
    let resp = client.roundtrip(6, 2, &frames[2]).unwrap();
    assert_eq!((resp.seq, resp.status), (2, Status::Ok));
    let expect = model.new_session().execute(&frames[2]).unwrap();
    assert_bits_eq(&resp.payload, expect.as_slice());
    assert!(!guard.sharded.stream_failed(6));
}

/// CPU time (`utime + stime`) a thread of this process has used so far.
#[cfg(target_os = "linux")]
fn thread_cpu_time(tid: &str) -> Duration {
    extern "C" {
        fn sysconf(name: std::ffi::c_int) -> std::ffi::c_long;
    }
    const SC_CLK_TCK: std::ffi::c_int = 2;
    // SAFETY: `sysconf` reads a configuration value and touches no memory
    // of ours.
    let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) };
    assert!(ticks_per_s > 0, "sysconf(_SC_CLK_TCK) failed");
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).unwrap();
    // Fields after the parenthesised name, from field 3 (`state`) on;
    // `utime` and `stime` are fields 14 and 15.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 1..]
        .split_whitespace()
        .collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    Duration::from_secs_f64(ticks as f64 / ticks_per_s as f64)
}

/// With every client connected and idle, the event loop sleeps in `poll`
/// rather than spinning: over two seconds its thread uses at most 1% of a
/// CPU.
#[cfg(target_os = "linux")]
#[test]
fn an_idle_event_loop_uses_no_cpu() {
    const NAME: &str = "idle-net-loop";
    let model = Arc::new(CompiledModel::new(&mlp(), &ReuseConfig::uniform(8)));
    let (addr, _guard) = start_named_server(model, 1, NAME);
    // One round trip each proves the server has taken the client's
    // preamble; then all eight sit idle.
    let frame = walk(1, 12, 8).pop().unwrap();
    let clients: Vec<NetClient> = (0..8u64)
        .map(|id| {
            let mut client = NetClient::connect(addr).unwrap();
            client
                .set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            assert_eq!(client.roundtrip(id, 0, &frame).unwrap().status, Status::Ok);
            client
        })
        .collect();
    let tid = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .map(|task| task.unwrap().path())
        .find(|task| {
            std::fs::read_to_string(task.join("comm")).is_ok_and(|comm| comm.trim_end() == NAME)
        })
        .expect("the event loop's thread")
        .file_name()
        .unwrap()
        .to_string_lossy()
        .into_owned();

    let window = Duration::from_secs(2);
    let before = thread_cpu_time(&tid);
    std::thread::sleep(window);
    let used = thread_cpu_time(&tid) - before;
    assert!(
        used <= window / 100,
        "the idle event loop used {used:?} of CPU in {window:?}"
    );
    drop(clients);
}
