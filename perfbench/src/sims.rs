//! `sim-scenarios` and `sim-oam2`: streams through
//! `StreamingSimulation::run`, single-threaded.
//!
//! A `sim-scenarios` unit is one seed's six E16 scenarios
//! (`ScenarioConfig::all(n, 1, 2.5, seed)`), each run with PD, OA, qOA,
//! CLL, AVR and BKP through `StreamingSimulation::with_coalescing(1e-3)`.
//! A `sim-oam2` unit is one E12 Poisson stream
//! (`stream_instance_on(2, n, seed)`) run with OA(m) through
//! `StreamingSimulation::default()`.  Set-up is the simulator's
//! construction plus a fixed warm-up prefix: the unit's algorithms over the
//! first 64 arrivals of its first stream.
//!
//! `StreamingSimulation::run` validates every schedule it returns; the
//! benchmark also checks that each stream yields one decision per arrival,
//! in arrival order, and a finite cost.  A stream whose run returns an
//! error is a failed operation, printed with its seed, and the run goes on.
//!
//! The traced run re-drives each stream through the public calls
//! `StreamingSimulation::run` makes — `start_for`, `coalesce_arrivals`
//! (or `arrival_order` without coalescing), `on_arrivals` per burst (or
//! `on_arrival` per job), `finish`, then `Simulation::run` — with a span
//! around each, and checks the re-drive reproduces the untraced run's
//! decisions, duals and schedule bit for bit.  `Simulation::run` validates
//! before it replays, so the re-drive also times `validate_schedule` on
//! its own, just before: `sim.replay_ms` is the `Simulation::run` time
//! minus that validation time.  That extra validation is the benchmark's
//! probe, not the program's work, so the traced end-to-end figures leave
//! it out.

use std::time::Instant;

use pss_baselines::{
    AvrScheduler, BkpScheduler, CllScheduler, MultiOaScheduler, OaScheduler, QoaScheduler,
};
use pss_bench::experiments::streaming::stream_instance_on;
use pss_core::PdScheduler;
use pss_sim::{coalesce_arrivals, Simulation, StreamReport, StreamingSimulation};
use pss_types::{
    validate_schedule, Decision, Instance, OnlineAlgorithm, OnlineScheduler, ScheduleError,
};
use pss_workloads::ScenarioConfig;

use crate::stats::{peak_rss_mb, start_memory_window, unit_seed};
use crate::trace::Tracer;
use crate::{
    compare_e2e, drive_units, e2e, note_coverage, same_schedule, write_spans, Config, Outcome,
    Scale, UnitTally,
};

/// Energy exponent of every stream.
const ALPHA: f64 = 2.5;
/// Arrivals in the warm-up prefix.
const WARMUP_ARRIVALS: usize = 64;
/// Coalescing window of `sim-scenarios`.
const SCENARIO_WINDOW: f64 = 1e-3;

/// An algorithm the simulator drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// PD (`PdScheduler::coarse()`).
    Pd,
    /// OA.
    Oa,
    /// qOA.
    Qoa,
    /// CLL.
    Cll,
    /// AVR.
    Avr,
    /// BKP.
    Bkp,
    /// OA(m).
    Oam,
}

/// The algorithms of `sim-scenarios`.
pub const SCENARIO_ALGOS: [Algo; 6] = [
    Algo::Pd,
    Algo::Oa,
    Algo::Qoa,
    Algo::Cll,
    Algo::Avr,
    Algo::Bkp,
];

impl Algo {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Pd => "PD",
            Algo::Oa => "OA",
            Algo::Qoa => "qOA",
            Algo::Cll => "CLL",
            Algo::Avr => "AVR",
            Algo::Bkp => "BKP",
            Algo::Oam => "OA(m)",
        }
    }

    /// The span around this algorithm's arrival calls.
    fn arrivals_span(self) -> &'static str {
        match self {
            Algo::Pd => "core.pd.on_arrivals",
            Algo::Oa => "baselines.oa.on_arrivals",
            Algo::Qoa => "baselines.qoa.on_arrivals",
            Algo::Cll => "baselines.cll.on_arrivals",
            Algo::Avr => "baselines.avr.on_arrivals",
            Algo::Bkp => "baselines.bkp.on_arrivals",
            Algo::Oam => "baselines.oam.on_arrival",
        }
    }

    /// The per-layer metrics of this algorithm's arrival calls: their
    /// total time and, where the layer table names one, their p99.
    fn arrival_metrics(self) -> (&'static str, Option<&'static str>) {
        match self {
            Algo::Pd => ("core.pd.on_arrivals_ms", Some("core.pd.on_arrivals_p99_us")),
            Algo::Oa => ("baselines.oa.on_arrivals_ms", None),
            Algo::Qoa => ("baselines.qoa.on_arrivals_ms", None),
            Algo::Cll => ("baselines.cll.on_arrivals_ms", None),
            Algo::Avr => ("baselines.avr.on_arrivals_ms", None),
            Algo::Bkp => ("baselines.bkp.on_arrivals_ms", None),
            Algo::Oam => (
                "baselines.oam.on_arrival_ms",
                Some("baselines.oam.on_arrival_p99_us"),
            ),
        }
    }

    /// The per-layer metric counting this algorithm's schedule segments.
    fn segments_metric(self) -> Option<&'static str> {
        match self {
            Algo::Pd => None,
            Algo::Oa => Some("baselines.oa.segments"),
            Algo::Qoa => Some("baselines.qoa.segments"),
            Algo::Cll => Some("baselines.cll.segments"),
            Algo::Avr => Some("baselines.avr.segments"),
            Algo::Bkp => Some("baselines.bkp.segments"),
            Algo::Oam => Some("baselines.oam.segments"),
        }
    }

    /// `StreamingSimulation::run` with this algorithm.
    fn simulate(
        self,
        sim: &StreamingSimulation,
        inst: &Instance,
    ) -> Result<StreamReport, ScheduleError> {
        match self {
            Algo::Pd => sim.run(&PdScheduler::coarse(), inst),
            Algo::Oa => sim.run(&OaScheduler, inst),
            Algo::Qoa => sim.run(&QoaScheduler::default(), inst),
            Algo::Cll => sim.run(&CllScheduler, inst),
            Algo::Avr => sim.run(&AvrScheduler, inst),
            Algo::Bkp => sim.run(&BkpScheduler::default(), inst),
            Algo::Oam => sim.run(&MultiOaScheduler::default(), inst),
        }
    }

    /// The traced re-drive with this algorithm.
    fn redrive(
        self,
        window: f64,
        inst: &Instance,
        t: &mut Tracer,
        op: u64,
    ) -> Result<Redriven, ScheduleError> {
        let span = self.arrivals_span();
        match self {
            Algo::Pd => redrive_with(
                &PdScheduler::coarse(),
                window,
                inst,
                t,
                op,
                span,
                no_descent,
            ),
            Algo::Oa => redrive_with(&OaScheduler, window, inst, t, op, span, no_descent),
            Algo::Qoa => redrive_with(
                &QoaScheduler::default(),
                window,
                inst,
                t,
                op,
                span,
                no_descent,
            ),
            Algo::Cll => redrive_with(&CllScheduler, window, inst, t, op, span, no_descent),
            Algo::Avr => redrive_with(&AvrScheduler, window, inst, t, op, span, no_descent),
            Algo::Bkp => redrive_with(
                &BkpScheduler::default(),
                window,
                inst,
                t,
                op,
                span,
                no_descent,
            ),
            Algo::Oam => redrive_with(
                &MultiOaScheduler::default(),
                window,
                inst,
                t,
                op,
                span,
                |run: &<MultiOaScheduler as OnlineAlgorithm>::Run| {
                    run.plan_cache()
                        .multi
                        .as_ref()
                        .map_or(Descent::default(), |w| Descent {
                            replans: w.replans,
                            passes: w.total_passes,
                            converged: w.converged_replans,
                        })
                },
            ),
        }
    }
}

fn no_descent<R>(_: &R) -> Descent {
    Descent::default()
}

/// OA(m) coordinate-descent statistics of one run.
#[derive(Debug, Clone, Copy, Default)]
struct Descent {
    replans: usize,
    passes: usize,
    converged: usize,
}

/// What a traced re-drive produced.
struct Redriven {
    decisions: Vec<Decision>,
    /// Per-arrival handling times as `StreamReport` records them (within a
    /// burst, the burst's time divided by its size), in µs.
    latency_us: Vec<f64>,
    schedule: pss_types::Schedule,
    calls: usize,
    descent: Descent,
    validate_ns: u64,
}

/// Re-drives one stream through the calls `StreamingSimulation::run`
/// makes, inside a `sim.stream` span.
fn redrive_with<A: OnlineAlgorithm>(
    algo: &A,
    window: f64,
    inst: &Instance,
    t: &mut Tracer,
    op: u64,
    span: &'static str,
    descent: impl FnOnce(&A::Run) -> Descent,
) -> Result<Redriven, ScheduleError> {
    t.enter("sim.stream", op);
    let result = (|| {
        let mut run = t.time("sim.start_for", op, || algo.start_for(inst))?;
        let mut decisions = Vec::with_capacity(inst.len());
        let mut latency_us = Vec::with_capacity(inst.len());
        let mut calls = 0usize;
        if window > 0.0 {
            let bursts = t.time("sim.coalesce_arrivals", op, || {
                coalesce_arrivals(inst, window)
            });
            let mut jobs = Vec::new();
            for (feed_time, ids) in &bursts {
                jobs.clear();
                jobs.extend(ids.iter().map(|&id| *inst.job(id)));
                let start = Instant::now();
                decisions.extend(run.on_arrivals(&jobs, *feed_time)?);
                let end = Instant::now();
                t.record(span, op, start, end);
                let each = (end - start).as_secs_f64() * 1e6 / ids.len().max(1) as f64;
                latency_us.extend(std::iter::repeat_n(each, ids.len()));
                calls += 1;
            }
        } else {
            let order = t.time("sim.arrival_order", op, || inst.arrival_order());
            for id in order {
                let job = inst.job(id);
                let start = Instant::now();
                decisions.push(run.on_arrival(job, job.release)?);
                let end = Instant::now();
                t.record(span, op, start, end);
                latency_us.push((end - start).as_secs_f64() * 1e6);
                calls += 1;
            }
        }
        let descent = descent(&run);
        let schedule = t.time("sim.finish", op, || run.finish())?;
        let start = Instant::now();
        validate_schedule(inst, &schedule)?;
        let end = Instant::now();
        t.record("types.validate_schedule", op, start, end);
        t.time("sim.simulation_run", op, || Simulation.run(inst, &schedule))?;
        Ok(Redriven {
            decisions,
            latency_us,
            schedule,
            calls,
            descent,
            validate_ns: (end - start).as_nanos() as u64,
        })
    })();
    t.exit();
    result
}

/// Sizes of one scale.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Arrivals per stream.
    pub n: usize,
    /// Distinct units a run drives: its operations, and the units
    /// `cost_per_job` is taken over.  Time left within `--seconds` after
    /// them re-times the same units.
    pub units: usize,
    /// Units a traced run drives.
    pub trace_units: usize,
}

/// `sim-scenarios` sizes.  On a 2-vCPU machine a unit took about 1.6 s.
pub fn scenario_sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            n: 500,
            units: 16,
            trace_units: 1,
        },
        Scale::Tiny => Sizes {
            n: 40,
            units: 2,
            trace_units: 1,
        },
    }
}

/// `sim-oam2` sizes.  On a 2-vCPU machine a unit took about 1.7 s.
pub fn oam2_sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            n: 2_500,
            units: 16,
            trace_units: 2,
        },
        Scale::Tiny => Sizes {
            n: 60,
            units: 2,
            trace_units: 1,
        },
    }
}

/// One stream of a unit.
struct Stream {
    label: String,
    instance: Instance,
    algo: Algo,
}

/// One unit's inputs: its streams and its warm-up prefix.
struct UnitInput {
    sim: fn() -> StreamingSimulation,
    streams: Vec<Stream>,
    warmup: Instance,
    warmup_algos: Vec<Algo>,
}

fn scenario_unit(seed: u64, n: usize) -> UnitInput {
    let mut streams = Vec::new();
    for cfg in ScenarioConfig::all(n, 1, ALPHA, seed) {
        let instance = cfg.generate();
        for algo in SCENARIO_ALGOS {
            streams.push(Stream {
                label: format!(
                    "seed={seed} scenario={} n={n} algorithm={}",
                    cfg.name(),
                    algo.name()
                ),
                instance: instance.clone(),
                algo,
            });
        }
    }
    let warmup = prefix(&streams[0].instance, WARMUP_ARRIVALS);
    UnitInput {
        sim: || StreamingSimulation::with_coalescing(SCENARIO_WINDOW),
        streams,
        warmup,
        warmup_algos: SCENARIO_ALGOS.to_vec(),
    }
}

fn oam2_unit(seed: u64, n: usize) -> UnitInput {
    let instance = stream_instance_on(2, n, seed);
    let warmup = prefix(&instance, WARMUP_ARRIVALS);
    UnitInput {
        sim: StreamingSimulation::default,
        streams: vec![Stream {
            label: format!("seed={seed} stream=stream_instance_on(2, {n}, {seed}) algorithm=OA(m)"),
            instance,
            algo: Algo::Oam,
        }],
        warmup,
        warmup_algos: vec![Algo::Oam],
    }
}

/// The first `k` arrivals of `inst` as an instance of their own.
fn prefix(inst: &Instance, k: usize) -> Instance {
    let jobs = inst
        .arrival_order()
        .into_iter()
        .take(k)
        .enumerate()
        .map(|(i, id)| pss_types::Job {
            id: pss_types::JobId(i),
            ..*inst.job(id)
        })
        .collect();
    Instance::from_jobs(inst.machines, inst.alpha, jobs)
        .expect("a prefix of a valid instance is valid")
}

/// The checks on an untraced stream's report.
fn check_stream(inst: &Instance, report: &StreamReport) -> Result<(), String> {
    let order = inst.arrival_order();
    if report.events.len() != order.len()
        || report.events.iter().zip(&order).any(|(e, id)| e.job != *id)
    {
        return Err(format!(
            "{} decisions for {} arrivals, or out of arrival order",
            report.events.len(),
            order.len()
        ));
    }
    if !report.total_cost().is_finite() {
        return Err(format!("non-finite cost {}", report.total_cost()));
    }
    Ok(())
}

/// Runs one unit untraced.  Returns its tally and, with `keep`, each
/// stream's report (`None` for a failed stream); without it each report is
/// dropped once tallied, so the unit's peak memory is one stream's.
fn run_unit(
    input: &UnitInput,
    keep: bool,
    out: &mut Outcome,
) -> (UnitTally, Vec<Option<StreamReport>>) {
    let mut tally = UnitTally::default();
    let mut latency_us = Vec::new();
    start_memory_window();
    let setup_start = Instant::now();
    let sim = (input.sim)();
    for &algo in &input.warmup_algos {
        out.attempted += 1;
        if let Err(e) = algo.simulate(&sim, &input.warmup) {
            out.fail(
                false,
                format!("warm-up prefix algorithm={}: {e}", algo.name()),
            );
        }
    }
    tally.setup_s = setup_start.elapsed().as_secs_f64();
    let mut reports = Vec::with_capacity(input.streams.len());
    for stream in &input.streams {
        out.attempted += 1;
        let start = Instant::now();
        let result = stream.algo.simulate(&sim, &stream.instance);
        let wall = start.elapsed().as_secs_f64();
        let checked = result.map_err(|e| (false, e.to_string())).and_then(|r| {
            match check_stream(&stream.instance, &r) {
                Ok(()) => Ok(r),
                Err(e) => Err((true, e)),
            }
        });
        match checked {
            Ok(report) => {
                tally.timed_s += wall;
                latency_us.extend(report.events.iter().map(|e| e.latency_secs * 1e6));
                tally.cost += report.total_cost();
                tally.arrivals += report.events.len();
                reports.push(keep.then_some(report));
            }
            Err((wrong, e)) => {
                out.fail(wrong, format!("stream {}: {e}", stream.label));
                reports.push(None);
            }
        }
    }
    tally.set_latencies(&latency_us);
    tally.peak_rss_mb = peak_rss_mb();
    (tally, reports)
}

fn run_units(
    cfg: &Config,
    sizes: Sizes,
    make: fn(u64, usize) -> UnitInput,
    what: &str,
) -> Result<Outcome, String> {
    if cfg.trace {
        return run_traced(cfg, sizes, make);
    }
    let mut out = Outcome::default();
    let units = drive_units(cfg, sizes.units, &mut out, |seed, _, own| {
        Ok(run_unit(&make(seed, sizes.n), false, own).0)
    })?;
    for (name, value) in e2e(&units, sizes.units) {
        out.set(name, value);
    }
    let decided: usize = units.iter().map(|u| u.decisions).sum();
    out.notes.push(format!(
        "{what}: {} distinct units, {} streams attempted (warm-ups included), then {} \
         re-timed units; {decided} arrivals decided and sampled; cost over the distinct units",
        sizes.units,
        out.attempted,
        units.len() - sizes.units
    ));
    Ok(out)
}

fn run_traced(
    cfg: &Config,
    sizes: Sizes,
    make: fn(u64, usize) -> UnitInput,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut t = Tracer::new();
    let mut descent = Descent::default();
    let mut calls = 0usize;
    let mut probe_ns = 0u64;
    let mut arrivals = 0usize;
    for u in 0..sizes.trace_units {
        let input = make(unit_seed(cfg.seed, u as u64), sizes.n);
        let (tally, reports) = run_unit(&input, true, &mut out);
        plain.push(tally);

        let mut tally = UnitTally::default();
        let mut latency_us = Vec::new();
        start_memory_window();
        let setup_start = Instant::now();
        let sim = (input.sim)();
        for &algo in &input.warmup_algos {
            // Failures were counted by the untraced pass.
            let _ = algo.simulate(&sim, &input.warmup);
        }
        tally.setup_s = setup_start.elapsed().as_secs_f64();
        for (k, (stream, reference)) in input.streams.iter().zip(&reports).enumerate() {
            let op = (u * input.streams.len() + k) as u64;
            let start = Instant::now();
            let result = stream
                .algo
                .redrive(sim.coalesce_window, &stream.instance, &mut t, op);
            let wall = start.elapsed().as_secs_f64();
            let (reference, r) = match (reference, result) {
                (Some(reference), Ok(r)) => (reference, r),
                // The untraced pass counted this stream's failure.
                (None, Err(_)) => continue,
                (_, r) => {
                    let what = r
                        .err()
                        .map_or("succeeded".into(), |e| format!("failed ({e})"));
                    out.fail(
                        true,
                        format!(
                            "stream {}: traced re-drive {what}, unlike the untraced run",
                            stream.label
                        ),
                    );
                    continue;
                }
            };
            let same = r.decisions.len() == reference.events.len()
                && r.decisions
                    .iter()
                    .zip(&reference.events)
                    .all(|(d, e)| d.accepted == e.accepted && d.dual.to_bits() == e.dual.to_bits())
                && same_schedule(&r.schedule, &reference.schedule);
            if !same {
                out.fail(
                    true,
                    format!(
                        "stream {}: traced re-drive differs from the untraced run",
                        stream.label
                    ),
                );
            }
            tally.timed_s += wall - r.validate_ns as f64 / 1e9;
            latency_us.extend(&r.latency_us);
            tally.cost += reference.total_cost();
            tally.arrivals += r.decisions.len();
            arrivals += r.decisions.len();
            probe_ns += r.validate_ns;
            calls += r.calls;
            descent.replans += r.descent.replans;
            descent.passes += r.descent.passes;
            descent.converged += r.descent.converged;
            if let Some(metric) = stream.algo.segments_metric() {
                *out.metrics.entry(metric).or_default() += r.schedule.segments.len() as f64;
            }
        }
        tally.set_latencies(&latency_us);
        tally.peak_rss_mb = peak_rss_mb();
        traced.push(tally);
    }
    let layers = t.layers();
    let layer = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let validate = layer("types.validate_schedule");
    out.set("types.validate_ms", validate.total_ms());
    out.set(
        "sim.replay_ms",
        layer("sim.simulation_run").total_ms() - validate.total_ms(),
    );
    out.set("sim.finish_ms", layer("sim.finish").total_ms());
    out.set("sim.mean_burst", arrivals as f64 / calls.max(1) as f64);
    for algo in SCENARIO_ALGOS.into_iter().chain([Algo::Oam]) {
        let spans = layer(algo.arrivals_span());
        let (total, p99) = algo.arrival_metrics();
        out.set(total, spans.total_ms());
        if let Some(p99) = p99 {
            out.set(p99, spans.percentile_us(99.0));
        }
    }
    if descent.replans > 0 {
        out.set(
            "convex.oam.passes_per_replan",
            descent.passes as f64 / descent.replans as f64,
        );
        out.set(
            "convex.oam.converged_share",
            descent.converged as f64 / descent.replans as f64,
        );
    }
    compare_e2e(
        &mut out,
        &e2e(&plain, sizes.trace_units),
        &e2e(&traced, sizes.trace_units),
    );
    let wall = layer("sim.stream");
    note_coverage(&mut out, wall.total_ns, wall.total_ns - wall.self_ns);
    out.notes.push(format!(
        "traced: {} unit(s); the validation probe ({:.3} ms) is left out of the traced end-to-end figures",
        sizes.trace_units,
        probe_ns as f64 / 1e6
    ));
    write_spans(cfg, &t, &mut out);
    Ok(out)
}

/// Runs `sim-scenarios`.
pub fn run_scenarios(cfg: &Config) -> Result<Outcome, String> {
    run_units(
        cfg,
        scenario_sizes(cfg.scale),
        scenario_unit,
        "sim-scenarios",
    )
}

/// Runs `sim-oam2`.
pub fn run_oam2(cfg: &Config) -> Result<Outcome, String> {
    run_units(cfg, oam2_sizes(cfg.scale), oam2_unit, "sim-oam2")
}
