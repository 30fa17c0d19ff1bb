//! Input streams, the submit → advance → drain driver, standalone reference
//! outputs and the bitwise compare shared by the `reuse_cli` smokes,
//! `serve_bench`'s closed-loop cycles and `kernel_bench`'s engine pair.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reuse_core::{CompiledModel, ReuseError, ReuseSession};
use reuse_nn::init::Rng64;
use reuse_serve::{ServeError, ShardedServer, StreamServer, SubmitResult};
use reuse_workloads::Workload;

/// A smooth random walk of `len` frames in `[-1, 1]^dim`: starts uniform
/// within `±start`, moves every value by up to `±step` per frame.
pub fn random_walk(len: usize, dim: usize, start: f32, step: f32, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Rng64::new(seed);
    let mut frame: Vec<f32> = (0..dim).map(|_| rng.uniform(start)).collect();
    (0..len)
        .map(|_| {
            for v in &mut frame {
                *v = (*v + rng.uniform(step)).clamp(-1.0, 1.0);
            }
            frame.clone()
        })
        .collect()
}

/// `count` windows over one generated stream, each starting one step after
/// the previous: every stream sees realistic frame-to-frame similarity
/// while no two streams see the same frame at the same step.
#[derive(Debug)]
pub struct OffsetStreams {
    pool: Vec<Vec<f32>>,
    count: usize,
    len: usize,
    /// Frames between the starts of consecutive streams: one, or one whole
    /// sequence for a recurrent workload.
    stride: usize,
}

impl OffsetStreams {
    /// `count` streams of `len` frames each. A recurrent workload passes its
    /// `seq_len` (and a `len` of whole sequences); a feed-forward one 0.
    pub fn new(w: &Workload, count: usize, len: usize, seq_len: usize) -> Self {
        let pool = match len.checked_div(seq_len) {
            Some(n_seq) => w
                .generate_sequences(n_seq + count - 1, seq_len, 42)
                .into_iter()
                .flatten()
                .collect(),
            None => w.generate_frames(len + count - 1, 42),
        };
        OffsetStreams {
            pool,
            count,
            len,
            stride: seq_len.max(1),
        }
    }

    /// The frames of stream `s`, in order.
    pub fn stream(&self, s: usize) -> &[Vec<f32>] {
        &self.pool[s * self.stride..][..self.len]
    }
}

/// What [`drive`] needs of a serving tier: the passive [`StreamServer`]
/// the caller ticks, or a [`ShardedServer`] whose workers tick for it.
pub trait Tier {
    /// Submits one frame to stream `id`.
    fn submit(&mut self, id: u64, frame: &[f32]) -> Result<SubmitResult, ServeError>;
    /// Lets queued work run: one tick of a passive server, a yield to the
    /// workers of a threaded one.
    fn advance(&mut self) -> Result<(), ServeError>;
    /// Drains stream `id`'s completed outputs, oldest first.
    fn drain(&mut self, id: u64, f: impl FnMut(&[f32]));
    /// Units still waiting to run.
    fn backlog(&self) -> usize;
}

impl Tier for StreamServer {
    fn submit(&mut self, id: u64, frame: &[f32]) -> Result<SubmitResult, ServeError> {
        StreamServer::submit(self, id, frame)
    }
    fn advance(&mut self) -> Result<(), ServeError> {
        self.tick().map(|_| ())
    }
    fn drain(&mut self, id: u64, f: impl FnMut(&[f32])) {
        self.drain_outputs(id, f);
    }
    fn backlog(&self) -> usize {
        self.ready_units()
    }
}

impl Tier for &ShardedServer {
    fn submit(&mut self, id: u64, frame: &[f32]) -> Result<SubmitResult, ServeError> {
        ShardedServer::submit(self, id, frame)
    }
    fn advance(&mut self) -> Result<(), ServeError> {
        std::thread::yield_now();
        Ok(())
    }
    fn drain(&mut self, id: u64, f: impl FnMut(&[f32])) {
        self.drain_outputs(id, f);
    }
    fn backlog(&self) -> usize {
        self.pending()
    }
}

/// Serves frames `window` of every stream (stream `s` under id `s`) to
/// completion: `burst` frames per stream, then an advance and a drain of
/// every stream into `sink(stream, output)`; once all are submitted, more
/// of the same until nothing is left to run. A rejected submit advances,
/// drains and retries, so bounded queues only slow the walk.
/// Returns the first submit or advance error.
///
/// # Panics
///
/// Panics when the backlog has not cleared a minute after the last submit
/// (a stalled worker or a failed stream).
pub fn drive<T: Tier>(
    tier: &mut T,
    streams: &OffsetStreams,
    window: Range<usize>,
    burst: usize,
    mut sink: impl FnMut(usize, &[f32]),
) -> Result<(), ServeError> {
    let mut drain_all = |tier: &mut T| {
        for s in 0..streams.count {
            tier.drain(s as u64, |out| sink(s, out));
        }
    };
    for t in window.clone().step_by(burst) {
        for step in t..(t + burst).min(window.end) {
            for s in 0..streams.count {
                let frame = &streams.stream(s)[step];
                while tier.submit(s as u64, frame)? != SubmitResult::Accepted {
                    tier.advance()?;
                    drain_all(tier);
                }
            }
        }
        tier.advance()?;
        drain_all(tier);
    }
    let give_up = Instant::now() + Duration::from_secs(60);
    while tier.backlog() > 0 {
        tier.advance()?;
        drain_all(tier);
        assert!(Instant::now() < give_up, "serving tier stalled");
    }
    drain_all(tier);
    Ok(())
}

/// Runs `frames` through `session` — as whole sequences of `seq_len` for a
/// recurrent model, frame by frame for `seq_len == 0` — handing every
/// output to `sink`. Returns the first execution error.
pub fn run_frames(
    session: &mut ReuseSession,
    frames: &[Vec<f32>],
    seq_len: usize,
    mut sink: impl FnMut(&[f32]),
) -> Result<(), ReuseError> {
    if seq_len > 0 {
        for seq in frames.chunks(seq_len) {
            let outs = session.execute_sequence(seq)?;
            outs.iter().for_each(|t| sink(t.as_slice()));
        }
    } else {
        let mut out = Vec::new();
        for frame in frames {
            session.execute_into(frame, &mut out)?;
            sink(&out);
        }
    }
    Ok(())
}

/// The reference a served stream is held to: a fresh session over `model`
/// fed `frames` alone. Returns its outputs and the session (for metrics).
pub fn standalone(
    model: &Arc<CompiledModel>,
    frames: &[Vec<f32>],
    seq_len: usize,
) -> Result<(Vec<Vec<f32>>, ReuseSession), ReuseError> {
    let mut session = model.new_session();
    let mut outs = Vec::with_capacity(frames.len());
    run_frames(&mut session, frames, seq_len, |out| outs.push(out.to_vec()))?;
    Ok((outs, session))
}

/// Bit-for-bit equality of two outputs.
pub fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
