//! E17 — sharding one logical stream: price-routed partitioning across
//! daemon shards, parallel frontier merge, and the sharding-cost oracle.
//!
//! Three questions, one per table:
//!
//! 1. **What does sharding buy?**  Every scenario in the PR-8 fleet is
//!    ingested free-running through [`StreamRouter`] at S ∈ {1, 2, 4, 8}
//!    under each routing policy, measuring end-to-end arrivals/sec
//!    (submission through drained shutdown), the speedup over S = 1, the
//!    per-shard load imbalance (max/mean queued arrivals) and the true
//!    push-side peak queue depth.  On this host the speedup is *work*
//!    reduction, not parallelism: PD's per-arrival replan cost grows
//!    with the active set, so routing a stream across S independent runs
//!    cuts the single-threaded work superlinearly.
//! 2. **What does sharding cost?**  The sharding-cost oracle
//!    ([`pss_sim::sharding_drift`]) replays the same workload unsharded
//!    and sharded through the single-threaded harness and reports the
//!    decision-quality drift: total value accepted, merged energy, and
//!    the competitive ratio of each against the best available lower
//!    bound, alongside merged per-decision latency percentiles — under
//!    hash routing (a true partition) and cheapest-price routing (which
//!    spreads even rejection-dominated streams now that rejected duals
//!    fold into the price signal).
//! 3. **Is routing deterministic?**  Per policy: a wave-stepped replay
//!    must be bit-identical ([`routed_fields_equal`]), the assignment
//!    law must hold (hash routing never moves a job when wave structure
//!    or prices change; round-robin is `seq mod S`; cheapest-price is
//!    pinned by replay), S = 1's one record and schedule must equal the
//!    unsharded simulator's, and the merged energy must equal the sum of
//!    the shard energies in every cell.

use pss_core::prelude::*;
use pss_metrics::table::fmt_f64;
use pss_metrics::Table;
use pss_serve::{routed_fields_equal, RoutedReport, StreamRouter};
use pss_sim::{sharding_drift, RoutePolicy, ShardedOutcome, ShardedStreaming, StreamingSimulation};
use pss_workloads::{ScenarioConfig, ScenarioKind};

use super::ExperimentOutput;
use crate::support::{best_lower_bound, check, safe_ratio};

/// The shard counts E17 sweeps.
const SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Relative tolerance for the merged-energy identity (stable summation
/// over concatenated segments vs per-shard sums may differ in the last
/// few ulps).
const ENERGY_TOL: f64 = 1e-9;

fn router_for(instance: &Instance, shards: usize, policy: RoutePolicy) -> StreamRouter {
    StreamRouter {
        shards,
        policy,
        machines_per_shard: instance.machines,
        alpha: instance.alpha,
        ..StreamRouter::default()
    }
}

/// Merged energy equals the sum of the shard energies, to `ENERGY_TOL`.
fn energy_identity(report: &RoutedReport, alpha: f64) -> bool {
    let shard_sum: f64 = report
        .service
        .shards
        .iter()
        .map(|s| s.schedule.energy(alpha))
        .sum();
    let merged = report.merged_energy(alpha);
    (merged - shard_sum).abs() <= ENERGY_TOL * shard_sum.max(1.0)
}

/// One scenario × policy row of the throughput sweep.
struct Throughput {
    scenario: &'static str,
    policy: RoutePolicy,
    jobs: usize,
    /// Arrivals/sec per entry of [`SHARDS`].
    rates: [f64; 4],
    imbalance4: f64,
    peak4: usize,
    energy_ok: bool,
}

impl Throughput {
    fn speedup4(&self) -> f64 {
        if self.rates[0] > 0.0 {
            self.rates[2] / self.rates[0]
        } else {
            0.0
        }
    }
}

/// Best arrivals/sec over `trials` free-running ingests (wall-clock rates
/// on a contended host are noisy downward — worker threads time-slice
/// against the producer — so the best trial is the least-noise estimate
/// of capability), plus the last report for the derived columns.
fn best_rate(
    config: &ScenarioConfig,
    instance: &Instance,
    shards: usize,
    policy: RoutePolicy,
    trials: usize,
) -> (f64, RoutedReport) {
    let mut best = 0.0f64;
    let mut last = None;
    for trial in 0..trials.max(1) {
        let report = router_for(instance, shards, policy)
            .run_free(PdScheduler::coarse(), instance, config.seed + trial as u64)
            .expect("free-running routed ingest");
        best = best.max(report.arrivals_per_sec());
        last = Some(report);
    }
    (best, last.expect("at least one trial"))
}

/// Free-running ingest of one scenario under one policy across the shard
/// sweep.  S = 1 is policy-independent (there is only one shard to pick),
/// so the caller runs it once and passes the rate in.
fn throughput_row(
    config: &ScenarioConfig,
    instance: &Instance,
    policy: RoutePolicy,
    base_rate: f64,
    trials: usize,
) -> Throughput {
    let mut rates = [base_rate, 0.0, 0.0, 0.0];
    let mut imbalance4 = 1.0;
    let mut peak4 = 0usize;
    let mut energy_ok = true;
    for (i, &shards) in SHARDS.iter().enumerate().skip(1) {
        let (rate, report) = best_rate(config, instance, shards, policy, trials);
        rates[i] = rate;
        energy_ok &= energy_identity(&report, instance.alpha);
        if shards == 4 {
            imbalance4 = report.load_imbalance();
            peak4 = report.peak_queue_depth();
        }
    }
    Throughput {
        scenario: config.name(),
        policy,
        jobs: instance.len(),
        rates,
        imbalance4,
        peak4,
        energy_ok,
    }
}

/// One scenario × policy × S row of the sharding-cost oracle.
struct Drift {
    scenario: &'static str,
    policy: RoutePolicy,
    shards: usize,
    value_ratio: f64,
    energy_ratio: f64,
    ratio_unsharded: f64,
    ratio_sharded: f64,
    p50_us: f64,
    p99_us: f64,
    imbalance: f64,
    energy_ok: bool,
}

fn drift_row(
    config: &ScenarioConfig,
    instance: &Instance,
    shards: usize,
    policy: RoutePolicy,
) -> Drift {
    let harness = ShardedStreaming {
        shards,
        policy,
        coalesce_window: 1e-3,
        price_smoothing: 0.1,
    };
    let (report, drift) =
        sharding_drift(&PdScheduler::coarse(), instance, &harness).expect("sharding drift");
    let pd = PdScheduler::coarse().run(instance).expect("PD batch run");
    let lb = best_lower_bound(instance, &pd).expect("lower bound");
    let shard_sum: f64 = report
        .shard_schedules
        .iter()
        .map(|s| s.energy(instance.alpha))
        .sum();
    let energy_ok = (drift.sharded_energy - shard_sum).abs() <= ENERGY_TOL * shard_sum.max(1.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 1.0 };
    Drift {
        scenario: config.name(),
        policy,
        shards,
        value_ratio: ratio(drift.sharded_value, drift.unsharded_value),
        energy_ratio: ratio(drift.sharded_energy, drift.unsharded_energy),
        ratio_unsharded: safe_ratio(drift.unsharded_cost, lb.value),
        ratio_sharded: safe_ratio(drift.sharded_cost, lb.value),
        p50_us: report.latency_percentile_secs(50.0) * 1e6,
        p99_us: report.latency_percentile_secs(99.0) * 1e6,
        imbalance: report.load_imbalance(),
        energy_ok,
    }
}

/// One policy row of the determinism gates.
struct Gate {
    policy: RoutePolicy,
    replay: bool,
    law: bool,
    pin: bool,
    energy: bool,
}

fn gate_row(policy: RoutePolicy, instance: &Instance) -> Gate {
    let stepped = router_for(instance, 4, policy);
    let a = stepped
        .run_stepped(PdScheduler::coarse(), instance)
        .expect("stepped routed run");
    let b = stepped
        .run_stepped(PdScheduler::coarse(), instance)
        .expect("stepped routed replay");
    let replay = routed_fields_equal(&a, &b);
    let law = match policy {
        RoutePolicy::HashById => {
            // Wave structure changes the price trajectory and batch
            // boundaries; the hash assignment must not move — and it must
            // equal the advertised pure function of the sequence number.
            let wide = StreamRouter {
                wave_size: stepped.wave_size * 2,
                ..stepped
            };
            let c = wide
                .run_stepped(PdScheduler::coarse(), instance)
                .expect("wide-wave routed run");
            let pinned = a
                .submissions
                .iter()
                .zip(&c.submissions)
                .all(|(x, y)| x.job == y.job && x.shard == y.shard);
            let zeros = vec![0.0; 4];
            pinned
                && a.submissions
                    .iter()
                    .enumerate()
                    .all(|(seq, s)| s.shard == policy.route(seq as u64, &zeros))
        }
        RoutePolicy::RoundRobin => a
            .submissions
            .iter()
            .enumerate()
            .all(|(seq, s)| s.shard == seq % 4),
        // Cheapest-price depends on the observed price trajectory by
        // design; its law *is* the bit-identical replay above.
        RoutePolicy::CheapestPrice => a.submissions == b.submissions,
    };
    // S = 1 through the sharded harness is the unsharded simulator: the
    // same record and the same schedule.
    let sharded = ShardedStreaming {
        shards: 1,
        policy,
        coalesce_window: 1e-3,
        price_smoothing: 0.1,
    }
    .run(&PdScheduler::coarse(), instance)
    .expect("S=1 sharded run");
    let plain = StreamingSimulation::with_coalescing(1e-3)
        .run(&PdScheduler::coarse(), instance)
        .expect("unsharded streaming run");
    Gate {
        policy,
        replay,
        law,
        pin: sharded.records == [plain.record] && sharded.merged == plain.schedule,
        energy: energy_identity(&a, instance.alpha),
    }
}

/// Runs E17.
pub fn run(quick: bool) -> ExperimentOutput {
    let (n_throughput, n_drift, n_gate, trials) = if quick {
        (96, 48, 48, 1)
    } else {
        (4000, 400, 64, 3)
    };

    // ---- Table 1: free-running throughput, scenario × policy × S.
    let fleet = ScenarioConfig::all(n_throughput, 1, 2.5, 1700);
    let mut throughput_rows: Vec<Throughput> = Vec::new();
    for config in &fleet {
        let instance = config.generate();
        let (base_rate, _) = best_rate(config, &instance, 1, RoutePolicy::CheapestPrice, trials);
        for policy in RoutePolicy::all() {
            throughput_rows.push(throughput_row(config, &instance, policy, base_rate, trials));
        }
    }
    let mut throughput = Table::new(
        "Free-running ingest throughput by scenario, routing policy and shard count (best of 3)",
        &[
            "scenario",
            "policy",
            "jobs",
            "S=1 (arr/s)",
            "S=2 (arr/s)",
            "S=4 (arr/s)",
            "S=8 (arr/s)",
            "S=4 speedup",
            "S=4 imbalance",
            "S=4 peak depth",
        ],
    );
    for r in &throughput_rows {
        throughput.push_row(vec![
            r.scenario.into(),
            r.policy.name().into(),
            r.jobs.to_string(),
            fmt_f64(r.rates[0]),
            fmt_f64(r.rates[1]),
            fmt_f64(r.rates[2]),
            fmt_f64(r.rates[3]),
            fmt_f64(r.speedup4()),
            fmt_f64(r.imbalance4),
            r.peak4.to_string(),
        ]);
    }

    // ---- Table 2: the sharding-cost oracle, scenario × policy × S.
    // Hash partitions for real (every shard sees a slice); cheapest-price
    // follows the per-shard dual prices, so its drift doubles as a
    // routing-behaviour probe.
    let drift_fleet = ScenarioConfig::all(n_drift, 1, 2.5, 1700);
    let mut drift_rows: Vec<Drift> = Vec::new();
    for config in &drift_fleet {
        let instance = config.generate();
        for policy in [RoutePolicy::HashById, RoutePolicy::CheapestPrice] {
            for &shards in &SHARDS[1..] {
                drift_rows.push(drift_row(config, &instance, shards, policy));
            }
        }
    }
    let mut drift = Table::new(
        "Sharding-cost oracle: decision-quality drift vs the unsharded run",
        &[
            "scenario",
            "policy",
            "S",
            "value ratio",
            "energy ratio",
            "ratio (S=1)",
            "ratio (sharded)",
            "p50 (us)",
            "p99 (us)",
            "imbalance",
        ],
    );
    for r in &drift_rows {
        drift.push_row(vec![
            r.scenario.into(),
            r.policy.name().into(),
            r.shards.to_string(),
            fmt_f64(r.value_ratio),
            fmt_f64(r.energy_ratio),
            fmt_f64(r.ratio_unsharded),
            fmt_f64(r.ratio_sharded),
            fmt_f64(r.p50_us),
            fmt_f64(r.p99_us),
            fmt_f64(r.imbalance),
        ]);
    }

    // ---- Table 3: determinism gates per policy.
    let gate_instance = ScenarioConfig {
        n_jobs: n_gate,
        ..ScenarioConfig::new(ScenarioKind::FlashCrowd, 1701)
    }
    .generate();
    let gates: Vec<Gate> = RoutePolicy::all()
        .into_iter()
        .map(|policy| gate_row(policy, &gate_instance))
        .collect();
    let mut determinism = Table::new(
        "Routing determinism gates per policy (wave-stepped, S=4)",
        &[
            "policy",
            "replay bit-identical",
            "assignment law",
            "S=1 pin",
            "energy identity",
        ],
    );
    for g in &gates {
        determinism.push_row(vec![
            g.policy.name().into(),
            check(g.replay).into(),
            check(g.law).into(),
            check(g.pin).into(),
            check(g.energy).into(),
        ]);
    }

    let replay_ok = gates.iter().all(|g| g.replay);
    let law_ok = gates.iter().all(|g| g.law);
    let pin_ok = gates.iter().all(|g| g.pin);
    let energy_ok = gates.iter().all(|g| g.energy)
        && throughput_rows.iter().all(|r| r.energy_ok)
        && drift_rows.iter().all(|r| r.energy_ok);
    let ratios_finite = drift_rows
        .iter()
        .all(|r| r.ratio_unsharded.is_finite() && r.ratio_sharded.is_finite());
    // Per-scenario hash-routed S=4 speedups.  The gate asks for >=2x on at
    // least two fleet scenarios: on scenarios whose S=1 baseline is cheap
    // (flash-crowd's compressed releases coalesce into large bursts that
    // amortise the replan) there is little work for sharding to shave, and
    // the residual speedup is wall-clock noise on a contended host.
    let hash_speedups: Vec<(&'static str, f64)> = throughput_rows
        .iter()
        .filter(|r| r.policy == RoutePolicy::HashById)
        .map(|r| (r.scenario, r.speedup4()))
        .collect();
    let at_2x = hash_speedups.iter().filter(|(_, s)| *s >= 2.0).count();
    let speedup_list = hash_speedups
        .iter()
        .map(|(name, s)| format!("{name} {s:.2}x"))
        .collect::<Vec<_>>()
        .join(", ");
    // Cheapest-price can only spread load when the price EWMA moves.
    // Since the rejection-starvation fix, every decision prices in —
    // rejected duals included — so rejection-dominated streams no longer
    // herd onto the argmin shard.  The gate reads the drift harness,
    // where routing is synchronous with price publication (each burst is
    // fed before the next routes); the free-running throughput ingest
    // routes against whatever the workers have published so far, and on
    // this host the producer outruns them, so its imbalance column stays
    // near S by construction and is reported, not gated.
    let worst_imbalance = drift_rows
        .iter()
        .filter(|r| r.policy == RoutePolicy::CheapestPrice && r.shards == 4)
        .map(|r| r.imbalance)
        .fold(1.0, f64::max);
    let spread_ok = worst_imbalance < 2.0;
    let overload_speedup = throughput_rows
        .iter()
        .find(|r| r.policy == RoutePolicy::CheapestPrice && r.scenario == "overload")
        .map(|r| r.speedup4())
        .unwrap_or(0.0);

    let mut notes = vec![
        format!(
            "wave-stepped replay is bit-identical for every routing policy at S=4 \
             (routing log, shard records, schedules, merged frontier): {}",
            check(replay_ok)
        ),
        format!(
            "assignment laws hold (hash never moves a job under wave/price changes and \
             matches the pure sequence function; round-robin is seq mod S; \
             cheapest-price is replay-pinned): {}",
            check(law_ok)
        ),
        format!(
            "S=1 through the sharded harness is bit-identical to the unsharded \
             streaming simulator for every policy: {}",
            check(pin_ok)
        ),
        format!(
            "merged logical energy equals the sum of the shard energies in every \
             throughput, drift and gate cell: {}",
            check(energy_ok)
        ),
        format!(
            "sharded and unsharded competitive ratios stay finite against the best \
             lower bound on every scenario: {}",
            check(ratios_finite)
        ),
        format!(
            "cheapest-price routing spreads rejection-dominated load now that rejected \
             duals ratchet the price up (and cold-start ties rotate): synchronous-harness \
             S=4 imbalance < 2.0 on every scenario (worst {worst_imbalance:.2}; it was ~4 \
             — total herding — while all-rejected batches were not pricing events, and \
             2.25 while below-price rejections could drag the price back down): {}",
            check(spread_ok)
        ),
    ];
    notes.push(
        "the free-running throughput ingest routes each submission against the prices \
         published so far; exact price ties rotate by sequence number, so even when the \
         producer outruns the workers (prices still cold) the stream spreads like \
         round-robin instead of pinning shard 0 into queue-full backoff — balance under \
         live prices is the drift table's imbalance column"
            .into(),
    );
    if quick {
        notes.push(format!(
            "S=4 hash-routed speedup over S=1, quick sweep (informational — the \
             >=2x gate runs in the full sweep): {speedup_list}"
        ));
    } else {
        notes.push(format!(
            "arrivals/sec at S=4 (hash) is >=2x S=1 on at least two fleet \
             scenarios: {} ({at_2x}/6 at >=2x: {speedup_list})",
            check(at_2x >= 2)
        ));
    }
    if quick {
        notes.push(format!(
            "cheapest-price S=4 overload speedup over S=1, quick sweep (informational — \
             the >1x gate runs in the full sweep): {overload_speedup:.2}x"
        ));
    } else {
        notes.push(format!(
            "cheapest-price S=4 ingest on the rejection-dominated overload scenario beats \
             S=1 ({overload_speedup:.2}x) — un-starving the price signal bought back the \
             sharding speedup: {}",
            check(overload_speedup > 1.0)
        ));
    }

    ExperimentOutput {
        id: "E17".into(),
        title: "Sharding one stream: routed partitioning, frontier merge, sharding-cost oracle"
            .into(),
        tables: vec![throughput, drift, determinism],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e17_quick_produces_three_tables_and_passing_notes() {
        let out = run(true);
        assert_eq!(out.tables.len(), 3);
        assert_eq!(out.tables[0].rows.len(), 18, "6 scenarios x 3 policies");
        assert_eq!(
            out.tables[1].rows.len(),
            36,
            "6 scenarios x 2 policies x 3 shard counts"
        );
        assert_eq!(out.tables[2].rows.len(), 3, "one row per policy");
        for note in &out.notes[..6] {
            assert!(note.contains("yes"), "failing E17 note: {note}");
        }
    }
}
