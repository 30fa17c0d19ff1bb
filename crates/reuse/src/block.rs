//! The block walk: frames of one or more sessions of one model, walked
//! through the network together one layer at a time.
//!
//! A [`Block`] is a list of rows, each one frame of one session, pushed a
//! unit at a time: a frame of a feed-forward network, a whole sequence of a
//! recurrent one. Walking it layer by layer fetches a layer's weights once
//! for the whole block instead of once per frame: the rows a layer does not
//! step — a reuse-disabled or passive layer, a calibrating unit — go through
//! one [`reuse_nn::Network::apply_rows_into`] (one GEMM for a
//! fully-connected layer), or one [`reuse_nn::Layer::forward_sequence_into`]
//! per sequence, and a session's rows that step go through one
//! [`crate::ReuseLayer::step`]: row after row, or as one sequence.
//!
//! Per-layer state chains only along one session's inputs to that layer, so
//! a session's rows step in frame order and every session sees exactly what
//! it would see alone. What chains across layers is cut out: a session's run
//! of rows is whole units and ends at its last calibrating unit (the next
//! one builds the quantizers from every layer's profile), and a recurrent
//! unit, whose state resets at its start, is a run of its own; a session's
//! later rows walk in a later wave of the same block.
//! [`ReuseSession::execute_into`] is the one-row block and
//! [`ReuseSession::execute_sequence_into`] the one-sequence block.

use std::sync::Arc;

use reuse_nn::lstm::LstmScratch;

use crate::layer::ExecStats;
use crate::model::CompiledModel;
use crate::session::{BufferPool, ReuseSession};
use crate::ReuseError;

/// Where one row of a block stands.
#[derive(Debug, Clone)]
enum RowState {
    /// Waiting for a later wave.
    Queued,
    /// In the wave being walked.
    Running,
    Done,
    Failed(ReuseError),
    Skipped,
}

/// What became of one row of a walked [`Block`].
#[derive(Debug, Clone, Copy)]
pub enum RowOutcome<'a> {
    /// The network output for the row's frame.
    Done(&'a [f32]),
    /// The row's session failed on this frame.
    Failed(&'a ReuseError),
    /// An earlier frame of the row's session failed, so this one did not
    /// finish.
    Skipped,
}

/// One session's rows in a wave, whole units, all calibrating or all not.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// Position of the session in the walk's slice.
    session: usize,
    first: usize,
    len: usize,
    calibrating: bool,
    /// The session's execution count at the run's first frame.
    execution: u64,
}

/// Frames of one or more sessions of one [`CompiledModel`], walked through
/// the network together one layer at a time (see the module docs).
///
/// [`Self::push`] each session's units — one session's consecutive and in
/// frame order — then [`Self::walk`] and read each row's [`RowOutcome`].
/// Everything a walk needs is kept, so once a block has walked its largest
/// shape, walking it again allocates nothing in the block.
#[derive(Debug, Default)]
pub struct Block {
    /// Per row, the position of its session in the walk's slice.
    sessions: Vec<usize>,
    /// Per row, the rows of the unit it starts; 0 for a row inside a unit.
    units: Vec<usize>,
    states: Vec<RowState>,
    /// The rows' outputs back to back.
    outputs: Vec<f32>,
    runs: Vec<Run>,
    /// Outputs of a span that is not the whole wave, on their way into place.
    scratch: Vec<f32>,
    /// Per-row counters and spans of the run a layer steps.
    steps: Vec<(ExecStats, u64)>,
    /// Working memory of a recurrent layer run at full precision.
    lstm: LstmScratch,
    pub(crate) pool: BufferPool,
}

impl Block {
    /// Empties the block, keeping its capacity.
    pub fn clear(&mut self) {
        self.sessions.clear();
        self.units.clear();
        self.states.clear();
    }

    /// Appends a unit of `rows` rows: the next frames of the session at
    /// position `session` of the slice [`Self::walk`] will be handed — one
    /// frame of a feed-forward network, one whole sequence of a recurrent
    /// one.
    pub fn push(&mut self, session: usize, rows: usize) {
        debug_assert!(rows > 0, "an empty unit");
        debug_assert!(
            self.sessions.last() == Some(&session) || !self.sessions.contains(&session),
            "session {session}'s rows are not consecutive"
        );
        self.sessions.extend(std::iter::repeat_n(session, rows));
        self.units.push(rows);
        self.units.extend(std::iter::repeat_n(0, rows - 1));
    }

    /// What became of row `row` in the last walk.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of range or was not walked.
    pub fn outcome(&self, row: usize) -> RowOutcome<'_> {
        match &self.states[row] {
            RowState::Done => {
                let width = self.outputs.len() / self.sessions.len();
                RowOutcome::Done(&self.outputs[row * width..][..width])
            }
            RowState::Failed(e) => RowOutcome::Failed(e),
            RowState::Skipped => RowOutcome::Skipped,
            RowState::Queued | RowState::Running => panic!("row {row} was not walked"),
        }
    }

    /// Every row's output of the last walk back to back, or the first
    /// row's failure.
    pub(crate) fn outputs(&self) -> Result<&[f32], ReuseError> {
        let failed = self.states.iter().find_map(|s| match s {
            RowState::Failed(e) => Some(e.clone()),
            _ => None,
        });
        failed.map_or(Ok(&self.outputs), Err)
    }

    /// Walks every row through the network: `frames` holds the rows' frames
    /// back to back, `sessions` the sessions they name, all over one
    /// [`CompiledModel`]. Every session's outputs, metrics and step records
    /// are bit-identical to running its units alone through
    /// [`ReuseSession::execute_into`] or
    /// [`ReuseSession::execute_sequence_into`]. A failing frame fails its row
    /// and skips its session's later rows; other sessions' rows go on.
    pub fn walk<S: AsMut<ReuseSession>>(&mut self, sessions: &mut [S], frames: &[f32]) {
        let rows = self.sessions.len();
        self.states.clear();
        self.states.resize(rows, RowState::Queued);
        let Some(&first) = self.sessions.first() else {
            return;
        };
        let model = Arc::clone(sessions[first].as_mut().model());
        let network = model.network();
        let in_width = network.input_shape().volume();
        let out_width = network.output_shape().volume();
        if frames.len() != rows * in_width {
            let e = reuse_nn::NnError::InputShape {
                expected: rows * in_width,
                actual: frames.len(),
            };
            self.states.fill(RowState::Failed(e.into()));
            return;
        }
        self.outputs.clear();
        self.outputs.resize(rows * out_width, 0.0);
        loop {
            // The wave: every session's next run of queued rows.
            self.runs.clear();
            let mut row = 0;
            while let Some(queued) = self.states[row..]
                .iter()
                .position(|s| matches!(s, RowState::Queued))
            {
                let first = row + queued;
                let s = self.sessions[first];
                let ahead = self.sessions[first..].iter().take_while(|&&t| t == s);
                row = first + ahead.count();
                let session = sessions[s].as_mut();
                debug_assert!(Arc::ptr_eq(session.model(), &model), "one model per block");
                let (calibrating, len) = session.begin_run(row - first, self.units[first]);
                self.states[first..first + len].fill(RowState::Running);
                let execution = session.executions();
                self.runs.push(Run {
                    session: s,
                    first,
                    len,
                    calibrating,
                    execution,
                });
            }
            if self.runs.is_empty() {
                return;
            }
            self.walk_wave(sessions, &model, frames);
            for run in &self.runs {
                let session = sessions[run.session].as_mut();
                for row in run.first..run.first + run.len {
                    if matches!(self.states[row], RowState::Running) {
                        let unit_end = self.units.get(row + 1).is_none_or(|&u| u > 0);
                        session.finish_frame(run.calibrating, unit_end);
                        self.states[row] = RowState::Done;
                    }
                }
            }
        }
    }

    /// One wave through every layer, its rows' frames gathered into one flat
    /// buffer. At each layer a run that steps goes through one
    /// [`ReuseSession::step_slot`] over its running rows; the others go at
    /// full precision — through a recurrent layer one run at a time, through
    /// a frame-wise one in spans of neighbouring runs that share one
    /// rows-forward. The last layer's rows land in `outputs`.
    fn walk_wave<S: AsMut<ReuseSession>>(
        &mut self,
        sessions: &mut [S],
        model: &CompiledModel,
        frames: &[f32],
    ) {
        let Block {
            sessions: owners,
            states,
            outputs,
            runs,
            scratch,
            steps,
            lstm,
            pool,
            ..
        } = self;
        let network = model.network();
        let rows: usize = runs.iter().map(|r| r.len).sum();
        let mut width = network.input_shape().volume();
        let mut cur = pool.take(rows * width);
        for run in runs.iter() {
            cur.extend_from_slice(&frames[run.first * width..][..run.len * width]);
        }
        for (i, &slot) in model.slot_of_layer().iter().enumerate() {
            let layer = &network.layers()[i].1;
            let out_width = model.layer_out_volumes()[i];
            let mut next = pool.take(rows * out_width);
            let steps_run = |run: &Run, sessions: &mut [S]| {
                !run.calibrating
                    && slot != usize::MAX
                    && sessions[run.session].as_mut().slot_enabled(slot)
            };
            // `next` holds the outputs of the wave's rows before `at`. A span
            // that is the whole wave writes straight into it, a shorter one
            // goes through `scratch`; a row that does not run keeps its place.
            let (mut k, mut at) = (0, 0);
            while k < runs.len() {
                let (span, start) = (k, at);
                let stepping = steps_run(&runs[k], sessions);
                loop {
                    at += runs[k].len;
                    k += 1;
                    if stepping
                        || layer.is_recurrent()
                        || k == runs.len()
                        || steps_run(&runs[k], sessions)
                    {
                        break;
                    }
                }
                let input = &cur[start * width..at * width];
                let target = if at - start == rows {
                    &mut next
                } else {
                    &mut *scratch
                };
                if stepping {
                    let run = runs[span];
                    let live = states[run.first..][..run.len]
                        .iter()
                        .take_while(|s| matches!(s, RowState::Running))
                        .count();
                    if live > 0 {
                        let session = sessions[run.session].as_mut();
                        let xs = &input[..live * width];
                        let result = session.step_slot(model, slot, xs, target, steps);
                        for (execution, &step) in (run.execution..).zip(steps.iter()) {
                            session.record_step(execution, i, Some(step));
                        }
                        if let Err(e) = result {
                            fail(owners, states, run.first + steps.len().min(live - 1), e);
                        }
                    }
                } else {
                    let result = if layer.is_recurrent() {
                        layer.forward_sequence_into(input, at - start, target, lstm)
                    } else {
                        network.apply_rows_into(i, input, at - start, target)
                    };
                    let mut offset = 0;
                    for run in &runs[span..k] {
                        let session = sessions[run.session].as_mut();
                        let xs = &input[offset * width..][..run.len * width];
                        let hs = match result {
                            Ok(()) => &target[offset * out_width..][..run.len * out_width],
                            Err(_) => &[],
                        };
                        session.profile_unstepped(i, xs, hs);
                        let members = (run.first..run.first + run.len).zip(run.execution..);
                        for (row, execution) in members {
                            if matches!(states[row], RowState::Running) {
                                match &result {
                                    Ok(()) => session.record_step(execution, i, None),
                                    Err(e) => fail(owners, states, row, e.clone().into()),
                                }
                            }
                        }
                        offset += run.len;
                    }
                }
                if at - start < rows {
                    next.extend_from_slice(scratch);
                }
                next.resize(at * out_width, 0.0);
            }
            pool.give(std::mem::replace(&mut cur, next));
            width = out_width;
        }
        let mut finished = cur.chunks_exact(width);
        for run in runs.iter() {
            for row in run.first..run.first + run.len {
                let out = finished.next().expect("one output per wave row");
                outputs[row * width..][..width].copy_from_slice(out);
            }
        }
        pool.give(cur);
    }
}

/// Fails `row` with `error` and skips every later row of its session.
fn fail(owners: &[usize], states: &mut [RowState], row: usize, error: ReuseError) {
    states[row] = RowState::Failed(error);
    let later = owners[row + 1..]
        .iter()
        .take_while(|&&s| s == owners[row])
        .count();
    states[row + 1..=row + later].fill(RowState::Skipped);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A failure ends its session's rows — the later ones are skipped, the
    /// earlier ones and every other session's keep their states.
    #[test]
    fn a_failed_row_skips_only_its_sessions_later_rows() {
        let owners = [0, 0, 1, 1, 1, 2];
        let mut states = vec![RowState::Running; owners.len()];
        let error = ReuseError::WrongApi {
            context: "injected".into(),
        };
        fail(&owners, &mut states, 3, error);
        let kinds: Vec<&str> = states
            .iter()
            .map(|s| match s {
                RowState::Running => "running",
                RowState::Failed(_) => "failed",
                RowState::Skipped => "skipped",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            ["running", "running", "running", "failed", "skipped", "running"]
        );
    }

    /// Frames that do not fill the rows fail every row, and touch no session.
    #[test]
    fn a_short_frame_buffer_fails_every_row() {
        let net = reuse_nn::NetworkBuilder::new("block", 4)
            .fully_connected(3, reuse_nn::Activation::Relu)
            .build()
            .unwrap();
        let model = Arc::new(CompiledModel::new(&net, &crate::ReuseConfig::uniform(8)));
        let mut sessions = [model.new_session(), model.new_session()];
        let mut block = Block::default();
        for s in [0, 1, 1] {
            block.push(s, 1);
        }
        block.walk(&mut sessions, &[0.5; 11]);
        for row in 0..3 {
            assert!(matches!(
                block.outcome(row),
                RowOutcome::Failed(ReuseError::Nn(reuse_nn::NnError::InputShape {
                    expected: 12,
                    actual: 11
                }))
            ));
        }
        assert!(sessions.iter().all(|s| s.executions() == 0));
    }
}
