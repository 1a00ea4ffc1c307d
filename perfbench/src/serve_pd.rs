//! `serve-pd`: PD served by a `pss-serve` daemon, driven through
//! `TenantHandle::submit` by one caller in a closed loop.
//!
//! A unit is one daemon lifetime: `Daemon::spawn` with one shard and one
//! tenant that rejects on price, a warm-up prefix of the stream (part of
//! `setup_s`), then the timed rest of the stream, one submission at a time.
//! A decision is either the synchronous `Submission::RejectedByPrice` or
//! the shard watermark reaching the job's release.  The watermark test is
//! valid only while releases strictly increase, so every stream is checked
//! for that before it is submitted.  With one caller the batch structure
//! and the prices the gate sees depend only on the seed, so
//! `cost_per_job` repeats exactly for a seed.
//!
//! After shutdown the benchmark validates the shard's final schedule
//! against the instance it was fed and checks that price-gate rejections
//! plus served events equal the submissions, and that the decisions seen
//! through the watermark equal the served events.  Validation is
//! O(jobs × segments) and took about 0.7 s of a 1.1-s lifetime on a 2-vCPU
//! machine, so a re-timed lifetime skips it; its cost must still repeat the
//! validated first run's bit for bit ([`crate::drive_units`]).
//!
//! The traced run drives the same unit twice, untraced and with spans
//! around the caller's own calls, checks with
//! `pss_serve::deterministic_fields_equal` that both reports agree on every
//! deterministic field (fed jobs, decisions, duals, prices and schedule,
//! bit for bit), and then replays the batches the
//! `ShardReport` journalled on one thread through the worker's public
//! calls (`on_arrivals`, `fold_price`, `SegmentLog::sync_from`, and at the
//! daemon's checkpoint cadence `snapshot_live`, `StateBlob::to_bytes` and
//! `SegmentLog::compact`), checking that the replay reproduces the
//! daemon's decisions, duals, prices, schedule and newest blob size.

use std::time::{Duration, Instant};

use pss_bench::experiments::streaming::stream_instance_on;
use pss_core::PdScheduler;
use pss_serve::{
    deterministic_fields_equal, Daemon, ServeConfig, ServiceReport, ShardReport, Submission,
    TenantHandle, TenantSpec,
};
use pss_types::{
    fold_price, validate_schedule, JobEnvelope, LogCheckpointable, OnlineAlgorithm,
    OnlineScheduler, SegmentLog,
};
use pss_workloads::arrival_envelopes;

use crate::stats::{peak_rss_mb, start_memory_window, unit_seed};
use crate::trace::Tracer;
use crate::{
    compare_e2e, drive_units, e2e, note_coverage, same_schedule, write_spans, Config, Outcome,
    Scale, UnitTally,
};

/// Machines per shard run.
pub const MACHINES: usize = 2;
/// Energy exponent.
pub const ALPHA: f64 = 2.5;
/// How long a queued submission may take to become visible before it
/// counts as a decision that never became visible.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(10);

/// Sizes of one scale.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Arrivals per daemon lifetime, warm-up included.  PD's state grows
    /// with every job, so this is part of the workload's definition.
    pub stream_len: usize,
    /// Leading arrivals submitted during set-up.
    pub warmup: usize,
    /// Distinct daemon lifetimes a run drives: their submissions are its
    /// operations, and `cost_per_job` is taken over them.  Time left within
    /// `--seconds` after them re-times the same lifetimes.
    pub units: usize,
    /// Units a traced run drives.
    pub trace_units: usize,
}

/// The sizes of a scale.
pub fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            stream_len: 20_000,
            warmup: 500,
            units: 8,
            trace_units: 1,
        },
        Scale::Tiny => Sizes {
            stream_len: 1_500,
            warmup: 100,
            units: 2,
            trace_units: 1,
        },
    }
}

/// The daemon's configuration: PD's defaults with one shard.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        machines: MACHINES,
        alpha: ALPHA,
        ..ServeConfig::default()
    }
}

/// What one daemon lifetime measured and checked.
#[derive(Debug, Default)]
pub struct Unit {
    /// The stream's seed (`stream_instance_on(2, stream_len, seed)`).
    pub seed: u64,
    /// End-to-end tallies: set-up is spawn plus the warm-up prefix, the
    /// latencies are the timed decisions', the cost is the whole stream's.
    pub tally: UnitTally,
    /// Submissions made, warm-up included.
    pub submissions: usize,
    /// Price-gate rejections, warm-up included.
    pub gate_rejects: usize,
    /// Queued decisions seen through the watermark, warm-up included.
    pub visible_decisions: usize,
    /// Failed operations (with the stream seed).
    pub failures: Vec<String>,
    /// Outputs a check found wrong.
    pub wrong: Vec<String>,
    /// Wire size of the newest retained checkpoint.
    pub newest_blob: usize,
    /// Release of the first timed arrival.
    pub first_timed_release: f64,
    /// The daemon's report, when shutdown succeeded.
    pub report: Option<ServiceReport>,
}

enum Decided {
    Rejected,
    Visible(Instant),
}

/// Why a submission was not decided.
enum Undecided {
    /// `submit` returned an `IngressError`; later submissions may succeed.
    Ingress(String),
    /// The job was queued but its decision never became visible: the
    /// worker stopped publishing, so later submissions cannot be decided.
    Invisible(String),
}

/// Submits one envelope and waits until its decision is visible.  Returns
/// when `submit` returned and how the job was decided.
fn submit_and_wait(
    handle: &TenantHandle,
    env: JobEnvelope,
) -> Result<(Instant, Decided), Undecided> {
    let result = handle.submit(env);
    let returned = Instant::now();
    match result {
        Ok(Submission::RejectedByPrice { .. }) => Ok((returned, Decided::Rejected)),
        Ok(Submission::Queued { .. }) => {
            let mut spins = 0u32;
            while handle.watermark() < env.release {
                std::hint::spin_loop();
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(4096) && returned.elapsed() > VISIBLE_TIMEOUT {
                    return Err(Undecided::Invisible(format!(
                        "queued job never became visible within {VISIBLE_TIMEOUT:?}"
                    )));
                }
            }
            Ok((returned, Decided::Visible(Instant::now())))
        }
        Err(e) => Err(Undecided::Ingress(format!("IngressError: {e}"))),
    }
}

/// Drives one daemon lifetime over the stream of `seed`.  With a tracer,
/// records a `serve.unit` span over the timed phase with one
/// `serve.submit` span per submission and one `serve.wait` span per queued
/// job.  With `validate`, the post-shutdown checks also validate the final
/// schedule against the fed instance; a re-timing of a lifetime already
/// validated skips that O(jobs × segments) check and relies on its cost
/// repeating bit for bit.  `Err` means the stream itself is unusable.
pub fn drive_unit(
    seed: u64,
    sizes: Sizes,
    mut tracer: Option<&mut Tracer>,
    validate: bool,
) -> Result<Unit, String> {
    let envelopes = arrival_envelopes(&stream_instance_on(MACHINES, sizes.stream_len, seed));
    if let Some(w) = envelopes.windows(2).find(|w| w[1].release <= w[0].release) {
        return Err(format!(
            "stream seed {seed}: releases do not strictly increase ({} then {}), so the \
             watermark cannot mark decisions",
            w[0].release, w[1].release
        ));
    }
    let mut unit = Unit {
        seed,
        ..Unit::default()
    };
    let (warmup, timed) = envelopes.split_at(sizes.warmup.min(envelopes.len()));
    unit.first_timed_release = timed.first().map_or(f64::INFINITY, |e| e.release);

    start_memory_window();
    let setup_start = Instant::now();
    let (daemon, handles) = Daemon::spawn(
        PdScheduler::coarse(),
        serve_config(),
        vec![TenantSpec::new("bench").rejecting_on_price()],
    )
    .map_err(|e| format!("Daemon::spawn: {e}"))?;
    let handle = &handles[0];
    for env in warmup {
        unit.submissions += 1;
        match submit_and_wait(handle, *env) {
            Ok((_, Decided::Rejected)) => unit.gate_rejects += 1,
            Ok((_, Decided::Visible(_))) => unit.visible_decisions += 1,
            Err(Undecided::Ingress(e) | Undecided::Invisible(e)) => unit
                .failures
                .push(format!("stream seed {seed} tag {}: {e}", env.tag)),
        }
    }
    unit.tally.setup_s = setup_start.elapsed().as_secs_f64();

    let mut latency_us = Vec::with_capacity(timed.len());
    if let Some(t) = tracer.as_deref_mut() {
        t.enter("serve.unit", seed);
    }
    let timed_start = Instant::now();
    for env in timed {
        unit.submissions += 1;
        let start = Instant::now();
        let (returned, decided) = match submit_and_wait(handle, *env) {
            Ok(r) => r,
            Err(Undecided::Ingress(e)) => {
                unit.failures
                    .push(format!("stream seed {seed} tag {}: {e}", env.tag));
                continue;
            }
            Err(Undecided::Invisible(e)) => {
                unit.failures
                    .push(format!("stream seed {seed} tag {}: {e}", env.tag));
                break;
            }
        };
        let end = match decided {
            Decided::Rejected => {
                unit.gate_rejects += 1;
                returned
            }
            Decided::Visible(seen) => {
                unit.visible_decisions += 1;
                if let Some(t) = tracer.as_deref_mut() {
                    t.record("serve.wait", env.tag, returned, seen);
                }
                seen
            }
        };
        if let Some(t) = tracer.as_deref_mut() {
            t.record("serve.submit", env.tag, start, returned);
        }
        latency_us.push((end - start).as_secs_f64() * 1e6);
    }
    unit.tally.timed_s = timed_start.elapsed().as_secs_f64();
    unit.tally.set_latencies(&latency_us);
    if let Some(t) = tracer {
        t.exit();
    }

    // Park the worker at a quiescent boundary so the newest checkpoint is
    // the last one this stream produces.
    let epoch = daemon.shard_idle_epoch(0);
    daemon.pause();
    let paused_at = Instant::now();
    while daemon.shard_idle_epoch(0) == epoch && paused_at.elapsed() < VISIBLE_TIMEOUT {
        std::thread::sleep(Duration::from_micros(50));
    }
    unit.newest_blob = daemon
        .shard_checkpoint_sizes(0)
        .last()
        .copied()
        .unwrap_or(0);
    let shutdown = daemon.shutdown();
    // The daemon's peak, before the benchmark's own checks allocate.
    unit.tally.peak_rss_mb = peak_rss_mb();
    match shutdown {
        Ok(report) => {
            check_report(&mut unit, &report, validate);
            unit.report = Some(report);
        }
        Err(e) => unit
            .failures
            .push(format!("stream seed {seed}: Daemon::shutdown: {e}")),
    }
    Ok(unit)
}

/// The post-shutdown checks, and the stream's cost.
fn check_report(unit: &mut Unit, report: &ServiceReport, validate: bool) {
    let seed = unit.seed;
    let (Some(shard), Some(tenant)) = (report.shards.first(), report.tenants.first()) else {
        unit.wrong.push(format!(
            "stream seed {seed}: report lacks its shard or tenant"
        ));
        return;
    };
    let served = shard.events.len();
    let priced = tenant.rejected_by_price as usize;
    let decided = unit.submissions - unit.failures.len();
    if served + priced != decided || priced != unit.gate_rejects {
        unit.wrong.push(format!(
            "stream seed {seed}: {served} served events + {priced} price rejections != \
             {decided} decided submissions ({} rejections seen)",
            unit.gate_rejects
        ));
    }
    if unit.visible_decisions != served {
        unit.wrong.push(format!(
            "stream seed {seed}: {} decisions seen through the watermark, {served} served events",
            unit.visible_decisions
        ));
    }
    let instance = match shard.instance(MACHINES, ALPHA) {
        Ok(i) => i,
        Err(e) => {
            unit.wrong.push(format!(
                "stream seed {seed}: fed jobs are not an instance: {e}"
            ));
            return;
        }
    };
    if validate {
        if let Err(e) = validate_schedule(&instance, &shard.schedule) {
            unit.wrong.push(format!(
                "stream seed {seed}: final schedule is invalid: {e}"
            ));
        }
    }
    unit.tally.cost = shard.schedule.cost(&instance).total() + tenant.lost_value;
    unit.tally.arrivals = unit.submissions;
}

/// Replays the batches `shard` journalled through the worker's public
/// calls, with spans, and checks the replay reproduces the daemon's run.
/// Returns the replayed layer time of the batches fed in the timed phase,
/// in ns.
fn replay(
    shard: &ShardReport,
    newest_blob: usize,
    first_timed_release: f64,
    tracer: &mut Tracer,
    seed: u64,
) -> Result<u64, String> {
    let config = serve_config();
    let mut run = PdScheduler::coarse()
        .start(MACHINES, ALPHA)
        .map_err(|e| format!("start: {e}"))?;
    let mut log = SegmentLog::new(MACHINES);
    let capture = |run: &<PdScheduler as OnlineAlgorithm>::Run, log: &mut SegmentLog| {
        let bytes = run.snapshot_live(log).map(|blob| blob.to_bytes());
        let cursor = log.cursor();
        log.compact(cursor);
        bytes
            .map(|b| b.len())
            .map_err(|e| format!("snapshot_live: {e}"))
    };
    // The capture `Daemon::spawn` makes before the first batch.
    let mut last_blob = capture(&run, &mut log)?;
    let mut captures = 1usize;
    let mut price = 0.0_f64;
    let mut timed_ns = 0u64;
    let mut live = Vec::new();
    let mut lo = 0usize;
    tracer.enter("serve.replay", seed);
    while lo < shard.events.len() {
        let batch = shard.events[lo].batch;
        let hi = lo
            + shard.events[lo..]
                .iter()
                .take_while(|e| e.batch == batch)
                .count();
        let events = &shard.events[lo..hi];
        let feed_time = events[0].feed_time;
        live.clear();
        live.extend(
            shard.jobs[lo..hi]
                .iter()
                .filter(|j| j.deadline > feed_time)
                .copied(),
        );
        let t0 = Instant::now();
        let decisions = run
            .on_arrivals(&live, feed_time)
            .map_err(|e| format!("on_arrivals at batch {batch}: {e}"))?;
        let t1 = Instant::now();
        let mut fed = decisions.iter();
        for (event, job) in events.iter().zip(&shard.jobs[lo..hi]) {
            let (accepted, dual) = if job.deadline <= feed_time {
                (false, job.value)
            } else {
                let d = fed.next().ok_or("fewer decisions than live jobs")?;
                (d.accepted, d.dual)
            };
            if accepted != event.accepted || dual.to_bits() != event.dual.to_bits() {
                return Err(format!(
                    "batch {batch}: replayed decision ({accepted}, {dual}) differs from the \
                     daemon's ({}, {})",
                    event.accepted, event.dual
                ));
            }
            price = fold_price(
                price,
                config.price_smoothing,
                &pss_types::Decision { accepted, dual },
            );
        }
        let t2 = Instant::now();
        if shard.price_trace.get(batch).map(|p| p.to_bits()) != Some(price.to_bits()) {
            return Err(format!("batch {batch}: replayed price {price} differs"));
        }
        log.sync_from(run.frontier())
            .map_err(|e| format!("sync_from at batch {batch}: {e}"))?;
        let t3 = Instant::now();
        tracer.record("core.pd.on_arrivals", batch as u64, t0, t1);
        tracer.record("types.fold_price", batch as u64, t1, t2);
        tracer.record("types.seglog_sync", batch as u64, t2, t3);
        let mut t4 = t3;
        if config.checkpoint_every > 0 && (batch + 1).is_multiple_of(config.checkpoint_every) {
            last_blob = capture(&run, &mut log)?;
            captures += 1;
            t4 = Instant::now();
            tracer.record("types.capture", batch as u64, t3, t4);
        }
        if events[0].release >= first_timed_release {
            timed_ns += (t4 - t0).as_nanos() as u64;
        }
        lo = hi;
    }
    tracer.exit();
    let schedule = run.finish().map_err(|e| format!("finish: {e}"))?;
    if !same_schedule(&schedule, &shard.schedule) {
        return Err("replayed schedule differs from the daemon's".into());
    }
    if captures != shard.checkpoints || last_blob != newest_blob {
        return Err(format!(
            "replay captured {captures} checkpoints (newest {last_blob} B), daemon {} ({newest_blob} B)",
            shard.checkpoints
        ));
    }
    Ok(timed_ns)
}

fn tally(out: &mut Outcome, unit: &Unit) {
    out.attempted += unit.submissions as u64;
    for f in &unit.failures {
        out.fail(false, f.clone());
    }
    for w in &unit.wrong {
        out.fail(true, w.clone());
    }
}

/// Runs `serve-pd`.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let sizes = sizes(cfg.scale);
    if cfg.trace {
        return run_traced(cfg, sizes);
    }
    let mut out = Outcome::default();
    let units = drive_units(cfg, sizes.units, &mut out, |seed, first, own| {
        let unit = drive_unit(seed, sizes, None, first)?;
        tally(own, &unit);
        Ok(unit.tally)
    })?;
    for (name, value) in e2e(&units, sizes.units) {
        out.set(name, value);
    }
    let decided: usize = units.iter().map(|u| u.decisions).sum();
    out.notes.push(format!(
        "serve-pd: {} distinct daemon runs of {} arrivals ({} warm-up), then {} re-timed; \
         {decided} timed decisions sampled; cost over the distinct runs",
        sizes.units,
        sizes.stream_len,
        sizes.warmup,
        units.len() - sizes.units
    ));
    Ok(out)
}

fn run_traced(cfg: &Config, sizes: Sizes) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut replayed_ns = 0u64;
    let (mut submissions, mut rejects) = (0usize, 0usize);
    for u in 0..sizes.trace_units {
        let seed = unit_seed(cfg.seed, u as u64);
        let mut plain = drive_unit(seed, sizes, None, true)?;
        let mut unit = drive_unit(seed, sizes, Some(&mut tracer), true)?;
        tally(&mut out, &plain);
        tally(&mut out, &unit);
        match (&plain.report, &unit.report) {
            (Some(p), Some(t)) => {
                if !deterministic_fields_equal(p, t) {
                    out.fail(
                        true,
                        format!("stream seed {seed}: traced and untraced decisions differ"),
                    );
                }
                match replay(
                    &t.shards[0],
                    unit.newest_blob,
                    unit.first_timed_release,
                    &mut tracer,
                    seed,
                ) {
                    Ok(ns) => replayed_ns += ns,
                    Err(e) => out.fail(true, format!("stream seed {seed}: replay: {e}")),
                }
            }
            _ => out.fail(true, format!("stream seed {seed}: no report to compare")),
        }
        plain.report = None;
        untraced.push(plain.tally);
        if let Some(shard) = unit.report.take().as_ref().and_then(|r| r.shards.first()) {
            *out.metrics.entry("serve.batches").or_default() += shard.batches as f64;
            *out.metrics.entry("serve.checkpoints").or_default() += shard.checkpoints as f64;
        }
        out.set("serve.blob_bytes", unit.newest_blob as f64);
        submissions += unit.submissions;
        rejects += unit.gate_rejects;
        traced.push(unit.tally);
    }
    let layers = tracer.layers();
    let layer = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let (submit, wait) = (layer("serve.submit"), layer("serve.wait"));
    out.set("serve.submit_p50_us", submit.percentile_us(50.0));
    out.set("serve.submit_p99_us", submit.percentile_us(99.0));
    out.set(
        "serve.gate_reject_share",
        rejects as f64 / submissions.max(1) as f64,
    );
    out.set("serve.wait_p50_us", wait.percentile_us(50.0));
    out.set("serve.wait_p99_us", wait.percentile_us(99.0));
    out.set(
        "serve.worker_self_ms",
        (wait.total_ns as f64 - replayed_ns as f64) / 1e6,
    );
    let capture = layer("types.capture");
    out.set("types.capture_ms", capture.total_ms());
    out.set("types.capture_max_us", capture.max_us());
    out.set(
        "types.seglog_sync_ms",
        layer("types.seglog_sync").total_ms(),
    );
    let pd = layer("core.pd.on_arrivals");
    out.set("core.pd.on_arrivals_ms", pd.total_ms());
    out.set("core.pd.on_arrivals_p99_us", pd.percentile_us(99.0));

    compare_e2e(
        &mut out,
        &e2e(&untraced, sizes.trace_units),
        &e2e(&traced, sizes.trace_units),
    );
    note_coverage(
        &mut out,
        layer("serve.unit").total_ns,
        submit.total_ns + wait.total_ns,
    );
    out.notes.push(format!(
        "serve-pd traced: {} daemon run(s); worker time = waits {:.3} ms = replayed layers {:.3} ms + worker self",
        sizes.trace_units,
        wait.total_ms(),
        replayed_ns as f64 / 1e6
    ));
    write_spans(cfg, &tracer, &mut out);
    Ok(out)
}
