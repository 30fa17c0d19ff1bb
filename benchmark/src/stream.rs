//! The five single-session workloads: one `ReuseSession` executing a
//! correlated stream back to back, reuse on, then the same units through a
//! twin model with every layer's reuse disabled.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use reuse_core::{CompiledModel, ReuseConfig, ReuseError, ReuseSession};
use reuse_nn::Network;
use reuse_workloads::{Scale, Workload, WorkloadKind};

use crate::layers;
use crate::report::{Args, Report, Tally};
use crate::spec::EESEN_SEQ_LEN;
use crate::stats::{self, Measured, PingPong, Segment};
use crate::trace::{Tracer, ROOT};

/// One execution unit: a frame or window (one inner vector) for
/// feed-forward networks, a whole sequence for recurrent ones.
pub type Unit = Vec<Vec<f32>>;

/// Default share of the timed seconds the reuse-on lane gets.
const ON_SHARE: f64 = 0.6;

pub struct StreamSpec {
    pub name: &'static str,
    pub kind: WorkloadKind,
    pub scale: Scale,
    /// Permute the post-warm-up units (same marginals, so calibration stays
    /// valid, but consecutive units are independent).
    pub shuffled: bool,
    /// Units generated after the warm-up ones; timed phases ping-pong over
    /// them for as long as they run.
    pub pool_units: usize,
    /// Units the verification pass executes, and how often it samples one
    /// (the last of every `verify_every`) for the from-scratch and fp32
    /// comparisons.
    pub verify_units: usize,
    pub verify_every: usize,
    /// Units the traced run replays layer by layer.
    pub replay_units: usize,
    /// Share of `--seconds` the reuse-on lane gets; the reuse-off twin gets
    /// the rest.
    pub on_share: f64,
}

pub fn spec(name: &str, quick: bool) -> Option<StreamSpec> {
    use WorkloadKind::{AutoPilot, C3d, Eesen, Kaldi};
    let kaldi = StreamSpec {
        name: "kaldi_stream",
        kind: Kaldi,
        scale: Scale::Full,
        shuffled: false,
        pool_units: 2000,
        verify_units: 1000,
        verify_every: 10,
        replay_units: 200,
        on_share: ON_SHARE,
    };
    let full = match name {
        "kaldi_stream" => kaldi,
        "kaldi_shuffled" => StreamSpec {
            name: "kaldi_shuffled",
            shuffled: true,
            ..kaldi
        },
        "eesen_stream" => StreamSpec {
            name: "eesen_stream",
            kind: Eesen,
            pool_units: 24,
            verify_units: 12,
            verify_every: 2,
            replay_units: 5,
            ..kaldi
        },
        "autopilot_stream" => StreamSpec {
            name: "autopilot_stream",
            kind: AutoPilot,
            scale: Scale::Small,
            pool_units: 160,
            verify_units: 160,
            verify_every: 4,
            replay_units: 16,
            ..kaldi
        },
        // A reuse-off window costs half a second, so the twin gets a
        // smaller share and the fp32 comparison a single window.
        "c3d_stream" => StreamSpec {
            name: "c3d_stream",
            kind: C3d,
            scale: Scale::Small,
            pool_units: 16,
            verify_units: 3,
            verify_every: 3,
            replay_units: 2,
            on_share: 0.7,
            ..kaldi
        },
        _ => return None,
    };
    Some(if quick {
        StreamSpec {
            scale: Scale::Tiny,
            pool_units: full.pool_units.min(40),
            verify_units: full.verify_units.min(12),
            verify_every: full.verify_every.min(4),
            replay_units: full.replay_units.min(4),
            ..full
        }
    } else {
        full
    })
}

/// Every weighted layer `disable_layer`'d: the reuse-off twin.
pub fn disabled_config(network: &Network, config: &ReuseConfig) -> ReuseConfig {
    network
        .layers()
        .iter()
        .filter(|(_, layer)| layer.has_weights())
        .fold(config.clone(), |c, (name, _)| c.disable_layer(name))
}

/// Calibration executions plus the state-initialising execution plus one
/// more: after these a session is in its steady state.
pub fn warm_units(config: &ReuseConfig) -> usize {
    config.calibration() + 2
}

/// Generates the warm-up and pool units from the seed alone.
pub fn generate(spec: &StreamSpec, workload: &Workload, seed: u64) -> Vec<Unit> {
    let total = warm_units(workload.reuse_config()) + spec.pool_units;
    let mut units: Vec<Unit> = if workload.is_recurrent() {
        workload.generate_sequences(total, EESEN_SEQ_LEN, seed)
    } else {
        workload
            .generate_frames(total, seed)
            .into_iter()
            .map(|f| vec![f])
            .collect()
    };
    if spec.shuffled {
        let warm = warm_units(workload.reuse_config());
        stats::shuffle(&mut units[warm..], seed);
    }
    units
}

/// Executes one unit, leaving the flat output (all timesteps for a
/// sequence) in `out`.
pub fn run_unit(
    session: &mut ReuseSession,
    unit: &Unit,
    out: &mut Vec<f32>,
) -> Result<(), ReuseError> {
    if session.network().is_recurrent() {
        let steps = session.execute_sequence(unit)?;
        out.clear();
        for t in &steps {
            out.extend_from_slice(t.as_slice());
        }
        Ok(())
    } else {
        session.execute_into(&unit[0], out)
    }
}

/// The fp32 network's output for one unit, flattened like [`run_unit`]'s.
pub fn fp32_unit(network: &Network, unit: &Unit) -> Vec<f32> {
    if network.is_recurrent() {
        let steps = network
            .forward_sequence(unit)
            .expect("generated units fit the network");
        steps
            .iter()
            .flat_map(|t| t.as_slice().iter().copied())
            .collect()
    } else {
        network
            .forward_flat(&unit[0])
            .expect("generated units fit the network")
            .into_vec()
    }
}

/// A session in steady state over its model.
pub struct Warm {
    pub model: Arc<CompiledModel>,
    pub session: ReuseSession,
    /// Duration of the state-initialising execution.
    pub first_unit_ns: u64,
    /// Duration of the last warm-up unit: an estimate of a steady unit.
    pub steady_unit_ns: u64,
}

/// Compiles `network` under `config`, opens a session and runs the warm-up
/// units through it.
pub fn warm_session(network: &Network, config: &ReuseConfig, units: &[Unit]) -> Warm {
    let model = Arc::new(CompiledModel::new(network, config));
    let mut session = model.new_session();
    let mut out = Vec::new();
    let warm = warm_units(config);
    let (mut first_unit_ns, mut steady_unit_ns) = (0, 0);
    for (i, unit) in units[..warm].iter().enumerate() {
        let t = Instant::now();
        run_unit(&mut session, unit, &mut out).expect("warm-up unit executes");
        steady_unit_ns = t.elapsed().as_nanos() as u64;
        if i + 2 == warm {
            first_unit_ns = steady_unit_ns;
        }
    }
    Warm {
        model,
        session,
        first_unit_ns,
        steady_unit_ns,
    }
}

/// Repeats `setup` at least three times (more while they are cheap, so the
/// median of a millisecond-scale set-up is steady) and returns the last
/// instance with the median set-up time in seconds.
pub fn median_setup<T>(quick: bool, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let begun = Instant::now();
    loop {
        let t = Instant::now();
        let built = setup();
        times.push(t.elapsed().as_secs_f64());
        let enough =
            times.len() >= 3 && (begun.elapsed() > Duration::from_millis(1500) || times.len() >= 9);
        if enough || quick {
            return (built, stats::median(&mut times));
        }
    }
}

/// How a timed phase is cut into segments: as many as `max` when units are
/// short, fewer when a single unit outlasts a `max`-th of the phase (every
/// segment runs at least one whole unit).
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub count: usize,
    pub each: Duration,
}

impl Plan {
    pub fn new(total: Duration, unit_estimate_ns: u64, max: usize) -> Plan {
        let fit = (total.as_nanos() / u128::from(unit_estimate_ns.max(1))) as usize;
        let count = fit.clamp(1, max.max(1));
        Plan {
            count,
            each: total / count as u32,
        }
    }
}

/// Runs the segments of two phases alternately over `rounds` rounds, each
/// phase's segments spread evenly across the rounds, so both phases sample
/// the same stretch of wall time and whatever the host does during it.
pub fn interleave(
    rounds: usize,
    a: Plan,
    mut run_a: impl FnMut(Duration),
    b: Plan,
    mut run_b: impl FnMut(Duration),
) {
    let rounds = rounds.max(a.count).max(b.count);
    let due = |plan: Plan, r: usize| (r + 1) * plan.count / rounds > r * plan.count / rounds;
    for r in 0..rounds {
        if due(a, r) {
            run_a(a.each);
        }
        if due(b, r) {
            run_b(b.each);
        }
    }
}

/// How long one segment runs.
pub enum Until {
    /// Whole units for about this long (at least one unit).
    Time(Duration),
    /// Exactly this many units.
    Units(usize),
}

/// One session executing units back to back, a segment at a time.
pub struct Lane<'a> {
    session: &'a mut ReuseSession,
    units: &'a [Unit],
    cursor: PingPong,
    out: Vec<f32>,
    pub measured: Measured,
}

impl<'a> Lane<'a> {
    /// A lane over the post-warm-up units of `units`.
    pub fn new(session: &'a mut ReuseSession, units: &'a [Unit]) -> Self {
        let warm = warm_units(session.model().config());
        Lane {
            session,
            units,
            cursor: PingPong::new(warm, units.len()),
            out: Vec::new(),
            measured: Measured::default(),
        }
    }

    /// Runs one segment. One clock read per unit boundary: a unit's latency
    /// is the distance between consecutive reads. `on_unit(unit index,
    /// start, end)` sees every unit after its latency is recorded (the
    /// traced run records spans there).
    pub fn segment(&mut self, until: &Until, mut on_unit: impl FnMut(usize, Instant, Instant)) {
        let mut seg = Segment {
            lat_ns: Vec::with_capacity(1 << 12),
            ..Segment::default()
        };
        let begun = Instant::now();
        let mut prev = begun;
        loop {
            let index = self.cursor.next_index();
            let ok = run_unit(self.session, &self.units[index], &mut self.out).is_ok();
            black_box(&self.out);
            let now = Instant::now();
            seg.lat_ns.push((now - prev).as_nanos() as u64);
            self.measured.tally.record(ok);
            on_unit(index, prev, now);
            let done = match until {
                // Stop where one more unit would overshoot the segment by
                // more than stopping undershoots it.
                Until::Time(d) => (now - begun) + (now - prev) / 2 >= *d,
                Until::Units(n) => seg.lat_ns.len() >= *n,
            };
            prev = now;
            if done {
                break;
            }
        }
        seg.units = seg.lat_ns.len() as u64;
        seg.elapsed_ns = (prev - begun).as_nanos() as u64;
        self.measured.segments.push(seg);
    }
}

/// Reuse-on and reuse-off lanes run with their segments interleaved;
/// `seconds` is split `on_share` to the first.
pub fn run_on_off(
    on: &mut Warm,
    off: &mut Warm,
    units: &[Unit],
    seconds: f64,
    on_share: f64,
    rounds: usize,
) -> (Measured, Measured) {
    let plan = |w: &Warm, share: f64| {
        Plan::new(
            Duration::from_secs_f64(seconds * share),
            w.steady_unit_ns,
            rounds,
        )
    };
    let (plan_on, plan_off) = (plan(on, on_share), plan(off, 1.0 - on_share));
    let mut lane_on = Lane::new(&mut on.session, units);
    let mut lane_off = Lane::new(&mut off.session, units);
    interleave(
        rounds,
        plan_on,
        |d| lane_on.segment(&Until::Time(d), |_, _, _| {}),
        plan_off,
        |d| lane_off.segment(&Until::Time(d), |_, _, _| {}),
    );
    (lane_on.measured, lane_off.measured)
}

/// Median per-unit latency in microseconds in the best twentieth of segments.
pub fn p50_us(segments: &[Segment]) -> f64 {
    stats::latency_p50(segments) / 1e3
}

/// Frames per unit: a sequence counts its timesteps.
fn frames_per_unit(units: &[Unit]) -> f64 {
    units[0].len() as f64
}

/// Over all sampled units taken together, the incremental outputs may be at
/// most this many times as far from the fp32 network as the from-scratch
/// outputs are (L2). Per unit the ratio means little: AutoPilot's output is
/// one number, and a from-scratch error that happens to be near zero made
/// it 52 once.
const ERROR_RATIO_LIMIT: f64 = 1.5;
/// Reuse-on outputs further than this from the fp32 network (relative L2)
/// fail verification outright.
const REL_ERR_LIMIT: f64 = 0.5;

/// What the verification pass found.
#[derive(Default)]
pub struct Verified {
    pub mismatches: u64,
    pub compared: u64,
    /// Relative L2 error against the fp32 network over all sampled units
    /// taken together: of the incremental (reuse-on) outputs, and of the
    /// from-scratch outputs on the same quantizers.
    pub output_rel_err: f64,
    pub scratch_rel_err: f64,
    pub checksum: u64,
}

impl Verified {
    pub fn note(&self) -> String {
        format!(
            "error against fp32 over {} sampled units: incremental {:.4}, from scratch {:.4}",
            self.compared, self.output_rel_err, self.scratch_rel_err
        )
    }

    pub fn tally(&self) -> Tally {
        Tally {
            attempted: self.compared.max(self.mismatches),
            failed: self.mismatches,
        }
    }
}

fn l2_distance(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| f64::from(x - y).powi(2))
        .sum::<f64>()
        .sqrt()
}

/// Outside the timed phases, on the measured session itself: drops its
/// buffered state, runs `verify_units` units incrementally, then reruns
/// each sampled unit from scratch on the same quantizers (`reset_state()`
/// then the unit) and through the fp32 network.
///
/// Incremental and from-scratch outputs are not comparable element by
/// element at any SIMD level. The correction `z + (c' - c) * w` rounds
/// differently from a fresh sum; a last-bit difference moves an activation
/// across a quantization boundary now and then; and every quantizer
/// downstream amplifies that, so the two outputs end up a fair share of
/// the quantization error apart (at Kaldi full scale up to 0.9 of it after
/// a few hundred frames). What must hold is that the incremental output is
/// as good an approximation of the fp32 network as the from-scratch one:
/// over all sampled units its error may exceed the from-scratch error by
/// [`ERROR_RATIO_LIMIT`] at most. A wrong index or a stale buffer misses by
/// far more.
pub fn verify(
    session: &mut ReuseSession,
    units: &[Unit],
    verify_units: usize,
    verify_every: usize,
) -> Verified {
    let warm = warm_units(session.model().config());
    let mut v = Verified::default();
    let last = (warm + verify_units).min(units.len());
    let mut out = Vec::new();
    let mut sampled: Vec<(usize, Vec<f32>)> = Vec::new();
    session.reset_state();
    for (i, unit) in units[warm..last].iter().enumerate() {
        v.mismatches += u64::from(run_unit(session, unit, &mut out).is_err());
        v.checksum = stats::checksum(v.checksum, &out);
        if (i + 1) % verify_every.max(1) == 0 {
            sampled.push((warm + i, out.clone()));
        }
    }
    let (mut inc_sq, mut scratch_sq, mut ref_sq) = (0.0f64, 0.0f64, 0.0f64);
    for (index, incremental) in &sampled {
        session.reset_state();
        let reran = run_unit(session, &units[*index], &mut out).is_ok();
        let reference = fp32_unit(session.network(), &units[*index]);
        let scratch_error = l2_distance(&out, &reference);
        let incremental_error = l2_distance(incremental, &reference);
        v.compared += 1;
        v.mismatches += u64::from(!(reran && incremental.len() == out.len()));
        inc_sq += incremental_error.powi(2);
        scratch_sq += scratch_error.powi(2);
        ref_sq += reference.iter().map(|r| f64::from(*r).powi(2)).sum::<f64>();
    }
    let ref_sq = ref_sq.max(f64::MIN_POSITIVE);
    v.output_rel_err = (inc_sq / ref_sq).sqrt();
    v.scratch_rel_err = (scratch_sq / ref_sq).sqrt();
    let as_good = v.output_rel_err <= ERROR_RATIO_LIMIT * v.scratch_rel_err
        && v.output_rel_err <= REL_ERR_LIMIT;
    v.mismatches += u64::from(!as_good);
    v
}

/// KiB of per-stream reuse state: buffered indices and outputs plus the
/// centroid tables.
pub fn state_kib(session: &ReuseSession) -> f64 {
    (session.reuse_storage_bytes() + session.centroid_table_bytes()) as f64 / 1024.0
}

/// The untraced run: end-to-end metrics only.
pub fn run(spec: &StreamSpec, args: &Args) -> Report {
    let mut report = Report::new(spec.name);
    let workload = Workload::build(spec.kind, spec.scale);
    let units = generate(spec, &workload, args.seed);

    let (mut on, setup_s) = median_setup(args.quick, || {
        let w = Workload::build(spec.kind, spec.scale);
        warm_session(w.network(), w.reuse_config(), &units)
    });
    let off_config = disabled_config(workload.network(), workload.reuse_config());
    let mut off = warm_session(workload.network(), &off_config, &units);

    let (on_phase, off_phase) = run_on_off(
        &mut on,
        &mut off,
        &units,
        args.seconds,
        spec.on_share,
        args.segments(),
    );
    let (segs_on, segs_off) = (&on_phase.segments, &off_phase.segments);

    let similarity = on.session.metrics().overall_input_similarity();
    let state_kib = state_kib(&on.session);
    let verified = verify(
        &mut on.session,
        &units,
        spec.verify_units,
        spec.verify_every,
    );

    let per_unit = frames_per_unit(&units);
    report.set("setup_s", setup_s);
    report.set("frames_per_s", stats::throughput(segs_on) * per_unit);
    report.set(
        "baseline_frames_per_s",
        stats::throughput(segs_off) * per_unit,
    );
    report.set("unit_p50_us", p50_us(segs_on));
    report.set("state_kib_per_stream", state_kib);
    report.phase("reuse_on", on_phase.tally);
    report.phase("reuse_off", off_phase.tally);
    report.phase("verify", verified.tally());
    report.correct = verified.mismatches == 0;
    report.checksum = verified.checksum;
    for (phase, segs) in [("reuse-on", segs_on), ("reuse-off", segs_off)] {
        let mut rates: Vec<f64> = segs.iter().map(|s| s.units_per_s() * per_unit).collect();
        let median = stats::median(&mut rates);
        report.notes.push(format!(
            "{phase} frames/s over {} segments: slowest {:.1}, median {median:.1}, fastest {:.1}",
            rates.len(),
            rates[0],
            rates[rates.len() - 1]
        ));
    }
    report.notes.push(format!(
        "reuse-on {:.1} frames/s over reuse-off {:.1} = {:.3}x; input similarity {similarity:.4}; {}",
        report.get("frames_per_s"),
        report.get("baseline_frames_per_s"),
        report.get("frames_per_s") / report.get("baseline_frames_per_s").max(f64::MIN_POSITIVE),
        verified.note(),
    ));
    report
}

/// What the session-level part of a traced run works on.
pub struct SessionTrace<'a> {
    pub network: &'a Network,
    pub config: &'a ReuseConfig,
    pub units: &'a [Unit],
    pub replay_units: usize,
    /// Units the accuracy check executes and how often it samples one.
    pub verify_units: usize,
    pub verify_every: usize,
    /// Share of `--seconds` the short untraced phases may use.
    pub share: f64,
    /// Pool lengths the traced pass runs: a fixed unit count,
    /// so every counter repeats exactly for a seed.
    pub traced_passes: usize,
    /// Parent span of each unit's session span ([`ROOT`] where the session
    /// is the outermost tier).
    pub parents: &'a [u32],
}

/// The session-level part of a traced run: short untraced phases (the base
/// of the ratios, tails and tracing overhead), one traced pass over the
/// pool with telemetry on, and the layer-by-layer replay. Returns the
/// untraced session's median unit latency in nanoseconds, which the serving
/// traces subtract from their tiers.
pub fn trace_session(
    st: &SessionTrace<'_>,
    args: &Args,
    tracer: &mut Tracer,
    report: &mut Report,
) -> f64 {
    let (network, units) = (st.network, st.units);
    let warm = warm_units(st.config);
    let per_unit = frames_per_unit(units);
    let mut on = warm_session(network, st.config, units);
    let mut off = warm_session(network, &disabled_config(network, st.config), units);
    let pool_before = on.session.pool_stats().misses;
    let (on_phase, off_phase) = run_on_off(
        &mut on,
        &mut off,
        units,
        args.seconds * st.share,
        ON_SHARE,
        args.segments(),
    );
    report.phase("session_untraced", on_phase.tally.plus(off_phase.tally));
    let segs_on = &on_phase.segments;
    let fps_on = stats::throughput(segs_on) * per_unit;
    let fps_off = stats::throughput(&off_phase.segments) * per_unit;
    report.set(
        "reuse.speedup_vs_off",
        fps_on / fps_off.max(f64::MIN_POSITIVE),
    );
    report.set(
        "reuse.pool_misses_steady",
        (on.session.pool_stats().misses - pool_before) as f64,
    );
    for (name, pct) in [("reuse.unit_p90_us", 90), ("reuse.unit_p99_us", 99)] {
        report.set(
            name,
            stats::tail_percentile(segs_on, pct).unwrap_or(0.0) / 1e3,
        );
    }
    report.set(
        "reuse.packed_weights_mib",
        on.model.packed_weight_bytes() as f64 / f64::from(1 << 20),
    );
    let verified = verify(&mut on.session, units, st.verify_units, st.verify_every);
    report.set("reuse.output_rel_err", verified.output_rel_err);
    report.phase("verify", verified.tally());
    report.correct &= verified.mismatches == 0;
    report.checksum = verified.checksum;
    report.notes.push(verified.note());

    // Traced pass: telemetry on, one span per unit, a fixed number of units.
    let mut traced = warm_session(network, &st.config.clone().telemetry(true), units);
    report.set("reuse.first_unit_ns", traced.first_unit_ns as f64);
    let pool = units.len() - warm;
    let mut session_span = vec![ROOT; units.len()];
    let segments = args.segments().min(2);
    let (epoch_ns, epoch) = (tracer.now_ns(), Instant::now());
    let mut lane = Lane::new(&mut traced.session, units);
    for _ in 0..segments {
        lane.segment(
            &Until::Units((pool * st.traced_passes / segments).max(1)),
            |index, start, end| {
                let at = |t: Instant| epoch_ns + (t - epoch).as_nanos() as u64;
                let parent = st.parents.get(index).copied().unwrap_or(ROOT);
                session_span[index] = tracer.record(
                    "reuse.session_execute_ns",
                    parent,
                    index as u32,
                    at(start),
                    at(end),
                );
            },
        );
    }
    let segs_traced = lane.measured.segments;
    report.phase("session_traced", lane.measured.tally);
    let fps_traced = stats::throughput(&segs_traced) * per_unit;
    report.set(
        "reuse.trace_overhead_pct",
        (fps_on - fps_traced) / fps_on.max(f64::MIN_POSITIVE) * 100.0,
    );
    let session_ns = stats::raw_median_ns(&segs_traced);
    report.set("reuse.session_execute_ns", session_ns);

    let metrics = traced.session.metrics();
    report.set("reuse.input_similarity", metrics.overall_input_similarity());
    report.set(
        "reuse.computation_reuse",
        metrics.overall_computation_reuse(),
    );
    let macs: u64 = metrics.layers.iter().map(|l| l.macs_performed).sum();
    let executed = segs_traced.iter().map(|s| s.units).sum::<u64>().max(1);
    report.set(
        "reuse.macs_performed_per_unit",
        macs as f64 / executed as f64,
    );
    report.set(
        "reuse.rebaselines",
        traced.session.watchdog_stats().rebaselines as f64,
    );
    report.set(
        "reuse.auto_disabled_layers",
        traced.session.auto_disabled_layers().count() as f64,
    );
    // Telemetry keeps one mean span per slot execution; a recurrent slot
    // executes once per timestep.
    let steps_per_unit = if network.is_recurrent() {
        per_unit
    } else {
        1.0
    };
    if let Some(snapshot) = traced.session.telemetry_snapshot() {
        let slots: f64 = snapshot.layers.iter().map(|l| l.span_ns_window).sum();
        report.set("reuse.slot_span_ns", slots * steps_per_unit);
    }

    // Layer-by-layer replay of the first units after warm-up, each replay
    // span a child of that unit's session span.
    let replay = &units[warm - 1..(warm + st.replay_units).min(units.len())];
    let parents = &session_span[warm - 1..warm - 1 + replay.len()];
    let calibration = &units[..st.config.calibration()];
    let walk = layers::replay(
        network,
        &traced.session,
        calibration,
        replay,
        parents,
        (warm - 1) as u32,
        tracer,
        report,
    );
    report.set(
        "reuse.speedup_vs_fp32",
        report.get("nn.forward_fp32_ns") * fps_on / per_unit / 1e9,
    );
    let steps = [
        "reuse.fc_step_ns",
        "reuse.conv2d_step_ns",
        "reuse.conv3d_step_ns",
        "reuse.lstm_step_ns",
    ]
    .iter()
    .map(|m| report.get(m))
    .sum::<f64>();
    report.set(
        "reuse.correct_self_ns",
        steps - report.get("quant.diff_codes_ns"),
    );
    report.set("reuse.session_self_ns", session_ns - walk.per_unit_ns);
    report.notes.push(format!(
        "session span {session_ns:.0} ns = replayed reuse steps {steps:.0} + reuse-disabled layers {:.0} + passive layers {:.0} + session self {:.0}; telemetry's in-program slot span {:.0} ns (replay minus in-program {:.0}); untraced {fps_on:.1} frames/s, traced {fps_traced:.1}",
        walk.disabled_ns,
        walk.passive_ns,
        session_ns - walk.per_unit_ns,
        report.get("reuse.slot_span_ns"),
        steps - report.get("reuse.slot_span_ns"),
    ));
    stats::latency_p50(segs_on)
}

/// Closes a traced run: the kernel reference ceiling, the failure share and
/// `trace.json`.
pub fn finish_trace(tracer: &Tracer, report: &mut Report) {
    report.set(
        "tensor.matmul_packed_gflops",
        layers::matmul_reference_gflops(),
    );
    report.set(
        "failed_share",
        report.failed() as f64 / report.attempted() as f64,
    );
    match tracer.write_json(report.workload) {
        Ok(()) => report.notes.push(format!(
            "{} spans written to {}",
            tracer.len(),
            crate::trace::TRACE_PATH
        )),
        Err(e) => report.notes.push(format!("trace.json not written: {e}")),
    }
}

/// The traced run: per-layer metrics, spans written to `trace.json`.
pub fn run_traced(spec: &StreamSpec, args: &Args) -> Report {
    let mut report = Report::new(spec.name);
    let workload = Workload::build(spec.kind, spec.scale);
    let t = Instant::now();
    let units = generate(spec, &workload, args.seed);
    report.set("workloads.generate_s", t.elapsed().as_secs_f64());
    let mut tracer = Tracer::with_capacity(1 << 17);
    let st = SessionTrace {
        network: workload.network(),
        config: workload.reuse_config(),
        units: &units,
        replay_units: spec.replay_units,
        verify_units: spec.verify_units,
        verify_every: spec.verify_every,
        share: 0.5,
        traced_passes: 1,
        parents: &[],
    };
    trace_session(&st, args, &mut tracer, &mut report);
    finish_trace(&tracer, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_plan_never_cuts_a_phase_finer_than_its_units() {
        let second = Duration::from_secs(1);
        let short = Plan::new(6 * second, 400_000, 56);
        assert_eq!((short.count, short.each), (56, 6 * second / 56));
        let long = Plan::new(3 * second, 500_000_000, 56);
        assert_eq!((long.count, long.each), (6, second / 2));
        assert_eq!(Plan::new(second, 5_000_000_000, 56).count, 1);
    }

    #[test]
    fn interleaving_spreads_the_shorter_phase_over_all_rounds() {
        let each = Duration::from_millis(1);
        let (a, b) = (Plan { count: 8, each }, Plan { count: 2, each });
        let order = std::cell::RefCell::new(String::new());
        interleave(
            8,
            a,
            |_| order.borrow_mut().push('a'),
            b,
            |_| order.borrow_mut().push('b'),
        );
        assert_eq!(order.into_inner(), "aaaabaaaab");
    }
}
