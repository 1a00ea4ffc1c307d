//! The repository's benchmark: three single-process workloads, each driven
//! through a public entry point, with end-to-end metrics measured untraced
//! and per-layer metrics from a separate traced run.
//!
//! Run it from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-pd --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  The lines before it
//! give the environment fingerprint, sample counts, every failed operation
//! with its seed and, in a traced run, the traced end-to-end numbers beside
//! the untraced ones.  `cargo test --manifest-path perfbench/Cargo.toml`
//! runs the self-test (`tests/selftest.rs`) at a tiny size.
//!
//! # Workloads
//!
//! The source paper (Kling & Pietrzyk, SPAA 2013) makes PD on m
//! speed-scalable processors the algorithm to serve and multiprocessor OA
//! (OA(m)) its baseline, so PD is timed through the serving daemon and
//! OA(m) through the simulator; the single-processor baselines, including
//! CLL (the algorithm the paper generalises), run over the six scenario
//! shapes of experiment E16.  The three workloads spend their time in
//! different layers, so each likely optimisation has one workload that
//! shows it and one that predicts no change.  Every stream is derived from
//! the run's `--seed` ([`stats::unit_seed`]) and no workload uses more than
//! two threads.
//!
//! * **`serve-pd`** ([`serve_pd`]) — the production path of the ROADMAP's
//!   north star: `TenantHandle::submit` on a `pss-serve` daemon running PD
//!   (`PdScheduler::coarse()`, m = 2, α = 2.5, one shard, default
//!   checkpoint cadence) for one tenant that rejects on price.  One caller
//!   runs a closed loop over the E12 Poisson stream: it submits the next
//!   arrival only after the previous one is decided.  Loads the admission
//!   gate, the worker, and above all PD's checkpoint capture: on a 2-vCPU
//!   machine PD's checkpoint capture took about 2/3 of the wall time
//!   (`checkpoint_every = 0` gave 144k decisions/s against 48–57k), the
//!   price gate decided 64% of the submissions, and at 20k fed arrivals
//!   PD's blob was 4.5 MB and took 13.8 ms to capture (OA's: 743 B,
//!   14 µs).  The traced run of this benchmark attributes about 55% of the
//!   timed wall time to capture, 10% to PD's `on_arrivals` and 28% to the
//!   worker's own time.  PD's state grows with every job, so the stream
//!   length is part of the workload and fixed.
//! * **`sim-scenarios`** ([`sims`]) — the offline simulator the ROADMAP
//!   asks a rate for: single-threaded
//!   `StreamingSimulation::with_coalescing(1e-3)` over the six E16
//!   scenarios, each run with PD, OA, qOA, CLL, AVR and BKP at m = 1.
//!   Loads schedule validation and replay: at n = 500 per stream
//!   (36 streams, 18k arrivals, about 1.8 s) `validate_schedule` took about
//!   45% of the wall time and the replay in `Simulation::run` another 45%
//!   (both filter every segment once per job; the traced run of this
//!   benchmark measures about 50% and 40%); AVR's many segments carry most
//!   of it, and `on_arrivals` took about 9%.  The workload grows by adding
//!   streams, not lengthening them: at n = 1,000 the same 36 streams take
//!   24 s.
//! * **`sim-oam2`** ([`sims`]) — OA(m), the largest per-algorithm gap the
//!   ROADMAP measures: `StreamingSimulation::default()` running
//!   `MultiOaScheduler::default()` at m = 2 over E12 Poisson streams of
//!   2,500 arrivals.  About 92% of the wall time is in `on_arrival` (the
//!   warm coordinate descent) and 8% in validation (the traced run: about
//!   91% and 4%), so a validation fix predicts a small gain here and a
//!   large one on `sim-scenarios`, and a descent fix the reverse.  OA(m)
//!   sometimes emits a segment of about 1e-9 s on machine 2 of a 2-machine
//!   instance, and `StreamingSimulation::run` then fails with
//!   `UnknownMachine(2)` (for example `stream_instance_on(2, 2500, 14)`).
//!   Such a stream counts as a failed operation, its seed is printed, and
//!   the run continues; a unit left without a timed decision is kept out of
//!   the timing medians ([`e2e`]).
//!
//! # End-to-end metrics
//!
//! Every workload reports all of [`END_TO_END`], measured with tracing off.
//! A *unit* is one daemon lifetime (`serve-pd`), one seed's 36 streams
//! (`sim-scenarios`) or one stream (`sim-oam2`).  A run drives a fixed
//! number of distinct units derived from its seed — 8 for `serve-pd`
//! (about 9 s on a 2-vCPU machine) and 16 for the simulator (about 27 s) —
//! and then re-times the same units in order until `--seconds` have passed
//! ([`drive_units`]).
//! The distinct units are the run's operations, so `attempted`, `failed`
//! and `cost_per_job` are functions of the seed alone, however fast the
//! machine ran: a stream the OA(m) defect fails is counted once per run, or
//! not at all, never depending on whether the run reached it.  A re-timed
//! unit must reproduce its first run's failures and cost bit for bit.  Each
//! timing and memory metric is the median of the per-unit figures, re-timed
//! units included ([`e2e`]), so a unit the machine disturbed does not move
//! it.  Each unit prints its own figures.
//!
//! * `setup_s` — program construction plus a fixed warm-up prefix, up to
//!   the first timed arrival.
//! * `ingest_rate` — decisions per second over the timed phase.  For the
//!   simulator this is arrivals over the wall time of the
//!   `StreamingSimulation::run` calls, so it includes `finish`, validation
//!   and replay.
//! * `decide_p50_us`, `decide_p99_us` — the latency of each decision.  A
//!   unit times 19,500 (`serve-pd`), 18,000 (`sim-scenarios`) or 2,500
//!   (`sim-oam2`) decisions, so at least 25 lie beyond its p99; each unit's
//!   line prints its count.  In `serve-pd`, from the call to `submit`
//!   until the decision is visible to the caller (the synchronous
//!   `RejectedByPrice`, or the shard watermark reaching the job's
//!   release).  In the simulator, the per-arrival handling times
//!   `StreamReport` records (within a burst, the burst time divided by its
//!   size).
//! * `cost_per_job` — energy plus lost value, divided by arrivals, over the
//!   distinct units, so it repeats exactly for a seed.  In
//!   `serve-pd` lost value includes the values the price gate rejected.
//! * `peak_rss_mb` — `VmHWM` of the benchmark's own process during a unit
//!   (in `serve-pd`, up to the daemon's shutdown, before the benchmark's
//!   own checks).  Before each unit the allocator returns its free memory
//!   and the peak is reset ([`stats::start_memory_window`]), so the figure
//!   is the unit's own and does not grow with the number of units run.
//!
//! An operation is one submission (`serve-pd`) or one stream (simulator).
//! A failure is an `IngressError`, a decision that never becomes visible,
//! a stream whose run returns an error, or an output the benchmark's checks
//! find wrong.  `correct` is false only when a check found a wrong output;
//! an operation the program itself reported as an error is counted in
//! `failed` with its seed, but is not a wrong output.
//!
//! # Per-layer metrics
//!
//! `--trace 1` re-runs a fixed number of leading units twice, untraced and
//! traced, and reports [`PER_LAYER`] from spans the benchmark records
//! around its own calls into each layer ([`trace`]).  A metric of a layer a
//! workload does not exercise reads 0.  Each row names the end-to-end
//! metric the layer metric should move, the workload where the layer does
//! most of its work, and the workloads where the prediction is no change.
//!
//! | Layer (crate) | Metrics | Timed public call or count | Should move | Most work on | No change on |
//! |---|---|---|---|---|---|
//! | pss-serve admission | `serve.submit_p50_us`, `serve.submit_p99_us`, `serve.gate_reject_share` | `TenantHandle::submit`; `RejectedByPrice` ÷ submissions | `decide_p50_us`, `cost_per_job` | serve-pd | sims |
//! | pss-serve worker | `serve.wait_p50_us`, `serve.wait_p99_us`, `serve.worker_self_ms` | from `submit` returning until the watermark reaches the release (queued jobs only); self time = total wait − replayed layers below | `decide_p99_us`, `ingest_rate` | serve-pd | sims |
//! | pss-serve state | `serve.batches`, `serve.checkpoints`, `serve.blob_bytes` | `ShardReport`; the newest entry of `Daemon::shard_checkpoint_sizes` | `ingest_rate`, `peak_rss_mb` | serve-pd | sims |
//! | pss-types checkpoint | `types.capture_ms`, `types.capture_max_us`, `types.seglog_sync_ms` | replay: `snapshot_live` + `StateBlob::to_bytes` + `SegmentLog::compact` every 64 batches; `SegmentLog::sync_from` every batch | `ingest_rate`, `peak_rss_mb` | serve-pd | sims |
//! | pss-core PD | `core.pd.on_arrivals_ms`, `core.pd.on_arrivals_p99_us` | `on_arrivals` on `OnlinePd` (serve-pd replay; PD streams in sim-scenarios) | `ingest_rate`, `decide_p99_us` | serve-pd | sim-oam2 |
//! | pss-types validation | `types.validate_ms` | `validate_schedule` | `ingest_rate` | sim-scenarios (~45%) | serve-pd; ~4% of sim-oam2 |
//! | pss-sim | `sim.replay_ms`, `sim.finish_ms`, `sim.mean_burst` | `Simulation::run` minus its validation; `OnlineScheduler::finish`; arrivals per `on_arrivals` call | `ingest_rate`; `decide_p50_us` for `mean_burst` | sim-scenarios | serve-pd |
//! | pss-baselines + pss-offline | `baselines.{oa,qoa,cll,avr,bkp}.on_arrivals_ms`, `baselines.{oa,qoa,cll,avr,bkp}.segments` | `on_arrivals` per burst; segment count of the finished schedule | `decide_p50_us`, `decide_p99_us`; segment counts drive validation time, so `ingest_rate` | sim-scenarios | serve-pd, sim-oam2 |
//! | pss-baselines OA(m) | `baselines.oam.on_arrival_ms`, `baselines.oam.on_arrival_p99_us`, `baselines.oam.segments` | `on_arrival` on OA(m) | `decide_p50_us`, `decide_p99_us`, `ingest_rate` | sim-oam2 | serve-pd, sim-scenarios |
//! | pss-convex | `convex.oam.passes_per_replan`, `convex.oam.converged_share` | counts from `ReplanState::plan_cache().multi` | `decide_p50_us`, `ingest_rate` | sim-oam2 | serve-pd, sim-scenarios |
//!
//! Time and count metrics are totals over the traced units.  The traced
//! run also prints its own end-to-end numbers beside the untraced ones (the
//! difference is the tracing overhead) and the share of the traced wall
//! time the named layers' self times cover; the rest is the benchmark's
//! own loop.

pub mod serve_pd;
pub mod sims;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["serve-pd", "sim-scenarios", "sim-oam2"];

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit }
}

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [MetricSpec; 6] = [
    spec("setup_s", "s"),
    spec("ingest_rate", "arrivals/s"),
    spec("decide_p50_us", "us"),
    spec("decide_p99_us", "us"),
    spec("cost_per_job", "cost"),
    spec("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1` (see the table above).
pub const PER_LAYER: [MetricSpec; 33] = [
    spec("serve.submit_p50_us", "us"),
    spec("serve.submit_p99_us", "us"),
    spec("serve.gate_reject_share", "share"),
    spec("serve.wait_p50_us", "us"),
    spec("serve.wait_p99_us", "us"),
    spec("serve.worker_self_ms", "ms"),
    spec("serve.batches", "count"),
    spec("serve.checkpoints", "count"),
    spec("serve.blob_bytes", "bytes"),
    spec("types.capture_ms", "ms"),
    spec("types.capture_max_us", "us"),
    spec("types.seglog_sync_ms", "ms"),
    spec("core.pd.on_arrivals_ms", "ms"),
    spec("core.pd.on_arrivals_p99_us", "us"),
    spec("types.validate_ms", "ms"),
    spec("sim.replay_ms", "ms"),
    spec("sim.finish_ms", "ms"),
    spec("sim.mean_burst", "arrivals/call"),
    spec("baselines.oa.on_arrivals_ms", "ms"),
    spec("baselines.qoa.on_arrivals_ms", "ms"),
    spec("baselines.cll.on_arrivals_ms", "ms"),
    spec("baselines.avr.on_arrivals_ms", "ms"),
    spec("baselines.bkp.on_arrivals_ms", "ms"),
    spec("baselines.oa.segments", "count"),
    spec("baselines.qoa.segments", "count"),
    spec("baselines.cll.segments", "count"),
    spec("baselines.avr.segments", "count"),
    spec("baselines.bkp.segments", "count"),
    spec("baselines.oam.on_arrival_ms", "ms"),
    spec("baselines.oam.on_arrival_p99_us", "us"),
    spec("baselines.oam.segments", "count"),
    spec("convex.oam.passes_per_replan", "passes"),
    spec("convex.oam.converged_share", "share"),
];

/// Problem sizes: the benchmark's own, or a tiny one for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the end-to-end bounds were set at.
    Full,
    /// Seconds-long sizes for the self-test.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every stream of the run derives from.
    pub seed: u64,
    /// How long the untraced run measures.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead.
    pub trace: bool,
    /// Problem sizes.
    pub scale: Scale,
}

/// Where a traced run writes its spans: `.bench_trace/` at the repository
/// root, which the root `.gitignore` lists.
pub const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_trace");

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, wrong outputs included.
    pub failed: u64,
    /// Outputs the benchmark's checks found wrong.
    pub wrong: u64,
    /// One line per failed operation, with its seed.
    pub failures: Vec<String>,
    /// Metric values by name; units come from the metric lists.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts a failed operation; `wrong` marks an output a check rejected.
    pub fn fail(&mut self, wrong: bool, what: String) {
        self.failed += 1;
        if wrong {
            self.wrong += 1;
        }
        self.failures.push(what);
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: every end-to-end metric, or with `trace` every
    /// per-layer metric (0 for a layer the workload does not exercise).
    /// A non-finite value prints as 0 and makes the result incorrect.
    pub fn json_line(&self, trace: bool) -> String {
        let specs: &[MetricSpec] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut correct = self.wrong == 0;
        let body: Vec<String> = specs
            .iter()
            .map(|s| {
                let mut value = self.metrics.get(s.name).copied().unwrap_or(0.0);
                if !value.is_finite() {
                    correct = false;
                    value = 0.0;
                }
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    s.name, value, s.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            correct,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// One unit's end-to-end tallies.
#[derive(Debug, Clone, Default)]
pub struct UnitTally {
    /// Set-up time, in s.
    pub setup_s: f64,
    /// Wall time of the timed phase, in s.
    pub timed_s: f64,
    /// Timed decisions.
    pub decisions: usize,
    /// Median decision latency, in µs.
    pub p50_us: f64,
    /// 99th-percentile decision latency, in µs.
    pub p99_us: f64,
    /// Energy plus lost value of the unit's streams.
    pub cost: f64,
    /// Arrivals the cost is spread over.
    pub arrivals: usize,
    /// Peak resident set size during the unit, in MB.
    pub peak_rss_mb: f64,
}

impl UnitTally {
    /// Records the unit's timed decision latencies, in µs, as their count
    /// and percentiles.
    pub fn set_latencies(&mut self, latency_us: &[f64]) {
        self.decisions = latency_us.len();
        self.p50_us = stats::percentile(latency_us, 50.0);
        self.p99_us = stats::percentile(latency_us, 99.0);
    }

    /// Decisions per second of the timed phase; 0 without a timed decision.
    pub fn rate(&self) -> f64 {
        if self.decisions == 0 {
            return 0.0;
        }
        self.decisions as f64 / self.timed_s
    }

    /// A line describing the unit, so a unit the machine disturbed shows.
    pub fn line(&self, label: &str) -> String {
        if self.decisions == 0 {
            return format!(
                "unit {label}: setup {:.6} s, no timed decision (left out of the timing medians)",
                self.setup_s
            );
        }
        format!(
            "unit {label}: setup {:.6} s, {:.1} decisions/s, p50 {:.3} us, p99 {:.3} us \
             ({} decisions), cost/job {:.6}, peak rss {:.2} MB",
            self.setup_s,
            self.rate(),
            self.p50_us,
            self.p99_us,
            self.decisions,
            self.cost / self.arrivals.max(1) as f64,
            self.peak_rss_mb
        )
    }
}

/// The end-to-end metrics of a set of units: timings and memory are
/// medians of the per-unit figures, so a unit the machine disturbed does
/// not move them.  A unit that timed no decision (its only stream failed)
/// is already counted in `failed`; it is left out of every median but
/// `setup_s`, so operations that fail more often cannot read as faster
/// ones.  `cost_per_job` is taken over the first `cost_units` units, a
/// fixed amount of work (a run's distinct units), so it repeats exactly
/// for a seed.
pub fn e2e(units: &[UnitTally], cost_units: usize) -> Vec<(&'static str, f64)> {
    let timed: Vec<&UnitTally> = units.iter().filter(|u| u.decisions > 0).collect();
    let median =
        |f: fn(&UnitTally) -> f64| stats::median(&timed.iter().map(|u| f(u)).collect::<Vec<_>>());
    let setup: Vec<f64> = units.iter().map(|u| u.setup_s).collect();
    let costed = &units[..cost_units.min(units.len())];
    let cost: f64 = costed.iter().map(|u| u.cost).sum();
    let arrivals: usize = costed.iter().map(|u| u.arrivals).sum();
    vec![
        ("setup_s", stats::median(&setup)),
        ("ingest_rate", median(UnitTally::rate)),
        ("decide_p50_us", median(|u| u.p50_us)),
        ("decide_p99_us", median(|u| u.p99_us)),
        ("cost_per_job", cost / arrivals.max(1) as f64),
        ("peak_rss_mb", median(|u| u.peak_rss_mb)),
    ]
}

/// Drives a run's units.  Unit `k` is derived from
/// `stats::unit_seed(cfg.seed, k)`.  The first `distinct` units are the
/// run's operations, so `attempted`, `failed` and `cost_per_job` depend on
/// the seed alone, not on how fast the machine ran.  Time left within
/// `cfg.seconds` after them re-times the same units in order: a re-timing
/// adds timing samples, and one whose failures or cost differ from the
/// unit's first run is a wrong output.  `drive(seed, first, own)` runs the
/// unit of `seed` — `first` is false for a re-timing — and counts its
/// operations in `own`.
pub fn drive_units(
    cfg: &Config,
    distinct: usize,
    out: &mut Outcome,
    mut drive: impl FnMut(u64, bool, &mut Outcome) -> Result<UnitTally, String>,
) -> Result<Vec<UnitTally>, String> {
    let distinct = distinct.max(1);
    let mut units = Vec::new();
    let mut first: Vec<(Vec<String>, u64)> = Vec::with_capacity(distinct);
    let started = Instant::now();
    while units.len() < distinct || started.elapsed().as_secs_f64() < cfg.seconds {
        let k = units.len() % distinct;
        let seed = stats::unit_seed(cfg.seed, k as u64);
        let mut own = Outcome::default();
        let tally = drive(seed, units.len() < distinct, &mut own)?;
        let cost = tally.cost.to_bits();
        if units.len() < distinct {
            out.notes.push(tally.line(&format!("seed={seed}")));
            out.attempted += own.attempted;
            out.failed += own.failed;
            out.wrong += own.wrong;
            out.failures.extend(own.failures.iter().cloned());
            first.push((own.failures, cost));
        } else {
            out.notes
                .push(tally.line(&format!("seed={seed} (re-timed)")));
            if (&own.failures, cost) != (&first[k].0, first[k].1) {
                out.fail(
                    true,
                    format!(
                        "unit seed={seed}: re-timed run differs from its first run \
                         (failures {:?})",
                        own.failures
                    ),
                );
            }
        }
        units.push(tally);
    }
    Ok(units)
}

/// Runs one workload.  `Err` means the benchmark itself could not run
/// (unknown workload, unusable input), not that an operation failed.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "serve-pd" => serve_pd::run(cfg),
        "sim-scenarios" => sims::run_scenarios(cfg),
        "sim-oam2" => sims::run_oam2(cfg),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Bitwise schedule equality.
pub(crate) fn same_schedule(a: &pss_types::Schedule, b: &pss_types::Schedule) -> bool {
    a.machines == b.machines
        && a.segments.len() == b.segments.len()
        && a.segments.iter().zip(&b.segments).all(|(x, y)| {
            x.machine == y.machine
                && x.job == y.job
                && x.start.to_bits() == y.start.to_bits()
                && x.end.to_bits() == y.end.to_bits()
                && x.speed.to_bits() == y.speed.to_bits()
        })
}

/// Writes a traced run's spans to `<TRACE_DIR>/<workload>-seed<seed>.tsv`.
pub(crate) fn write_spans(cfg: &Config, tracer: &trace::Tracer, out: &mut Outcome) {
    let path = Path::new(TRACE_DIR).join(format!("{}-seed{}.tsv", cfg.workload, cfg.seed));
    match tracer.write_tsv(&path) {
        Ok(()) => out.notes.push(format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => out.notes.push(format!("spans: not written ({e})")),
    }
}

/// Prints the traced end-to-end numbers beside the untraced ones.
pub(crate) fn compare_e2e(out: &mut Outcome, untraced: &[(&str, f64)], traced: &[(&str, f64)]) {
    out.notes
        .push("end-to-end    untraced        traced  traced/untraced".into());
    for ((name, u), (_, t)) in untraced.iter().zip(traced) {
        let ratio = if *u != 0.0 { t / u } else { f64::NAN };
        out.notes
            .push(format!("{name:<14} {u:>12.4} {t:>13.4} {ratio:>9.3}"));
    }
}

/// Notes how much of the traced wall time the named layers' self times
/// cover; the remainder is the benchmark's own loop.
pub(crate) fn note_coverage(out: &mut Outcome, wall_ns: u64, attributed_ns: u64) {
    let share = if wall_ns > 0 {
        attributed_ns as f64 / wall_ns as f64
    } else {
        0.0
    };
    out.notes.push(format!(
        "coverage: layer self times sum to {:.2}% of the traced wall time ({:.3} of {:.3} ms)",
        100.0 * share,
        attributed_ns as f64 / 1e6,
        wall_ns as f64 / 1e6
    ));
}

/// The environment fingerprint printed with every run: processor count,
/// compiler, clock source and the commit.
pub fn fingerprint() -> Vec<String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let clocksource =
        std::fs::read_to_string("/sys/devices/system/clocksource/clocksource0/current_clocksource")
            .map_or("unknown".into(), |s| s.trim().to_string());
    let commit = if Path::new(".git").exists() {
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".into(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    } else {
        "none (not a git checkout)".into()
    };
    vec![
        format!("env: nproc={nproc}"),
        format!("env: rustc={rustc}"),
        format!("env: clocksource={clocksource}"),
        format!("env: commit={commit}"),
    ]
}
