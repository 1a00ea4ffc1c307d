//! E16 — the chaos soak: the adversarial scenario fleet crossed with
//! deterministic fault plans.
//!
//! Every scenario in `pss_workloads::scenarios` (flash crowd, diurnal,
//! heavy-tailed, overload, staircase adversary, grid-resonant) is driven
//! through the serving layer three times under the same seeded
//! [`FaultPlan`]: once fault-free (the reference), once with every fault
//! class injected (worker kills, checkpoint-blob corruption, transient
//! feed faults, queue-full storms with retry give-ups, dead-on-arrival
//! floods), and once more to pin replay.  The regression gate is the
//! tentpole invariant: **chaos is invisible on every deterministic field**
//! ([`deterministic_fields_equal`]), and the same plan seed reproduces the
//! same report *and* the same injection counters.
//!
//! Alongside the soak, each scenario instance is measured on its own:
//! competitive ratio of PD against the best available lower bound, tail
//! latency percentiles through `StreamingSimulation`, and the
//! toggle-matrix differential oracle (warm-started vs from-scratch
//! replans must agree on every decision and on cost).

use pss_core::prelude::*;
use pss_metrics::table::fmt_f64;
use pss_metrics::Table;
use pss_serve::{deterministic_fields_equal, ring_capacity, ChaosDriver, ChaosRun, FaultPlan};
use pss_sim::{FeedRecord, ShardCore, StreamingSimulation, PRICE_SMOOTHING};
use pss_workloads::ScenarioConfig;

use super::ExperimentOutput;
use crate::support::{best_lower_bound, check, safe_ratio};

/// Everything one scenario cell produces.
struct Cell {
    name: &'static str,
    jobs: usize,
    noisy: ChaosRun,
    /// Fault-injected == fault-free on every deterministic field.
    invisible: bool,
    /// Same plan, second injected run == first, report and counters.
    replays: bool,
    /// Dense feed-order ids, one price per batch, bounded queue depths, a
    /// schedule that validates offline, and tenant counters that partition
    /// every submission attempt.
    consistent: bool,
    /// Warm-started and from-scratch replans agree on the scenario.
    toggles_agree: bool,
    ratio: f64,
    lb_exact: bool,
    p50_us: f64,
    p99_us: f64,
}

/// The toggle-matrix differential oracle on one instance: CLL driven
/// warm-started vs from-scratch, one job per feed at its release, must
/// record identical decisions (records `==`, dual bits included) and agree
/// on total cost.
fn warm_vs_cold_agree(instance: &Instance) -> bool {
    let drive = |warm: bool| -> (FeedRecord, Schedule) {
        let run = CllScheduler
            .start(instance.machines, instance.alpha)
            .expect("CLL start")
            .with_warm_start(warm);
        let mut core = ShardCore::new(run, PRICE_SMOOTHING);
        let mut record = FeedRecord::default();
        for job in &instance.jobs {
            let tag = job.id.index() as u64;
            core.feed(&mut record, [(*job, tag)], job.release)
                .expect("arrival");
        }
        (record, core.finish().expect("finish"))
    };
    let (warm_record, warm_schedule) = drive(true);
    let (cold_record, cold_schedule) = drive(false);
    let warm_cost = warm_schedule.cost(instance).total();
    let cold_cost = cold_schedule.cost(instance).total();
    warm_record == cold_record && (warm_cost - cold_cost).abs() <= 1e-9 * warm_cost.max(1.0)
}

/// Runs one scenario cell: the three chaos runs plus the stand-alone
/// instance measurements.
fn run_cell(config: &ScenarioConfig, driver: &ChaosDriver, waves: usize, idx: usize) -> Cell {
    let instance = config.generate();
    let plan = FaultPlan::generate(config.seed + idx as u64, waves, driver.checkpoint_chain);

    let free = driver
        .run(PdScheduler::coarse(), &instance, &plan, false)
        .expect("fault-free chaos run");
    let noisy = driver
        .run(PdScheduler::coarse(), &instance, &plan, true)
        .expect("fault-injected chaos run");
    let replay = driver
        .run(PdScheduler::coarse(), &instance, &plan, true)
        .expect("replayed chaos run");

    let invisible = deterministic_fields_equal(&free.report, &noisy.report);
    let n = &noisy.stats;
    let r = &replay.stats;
    let replays = deterministic_fields_equal(&noisy.report, &replay.report)
        && n.kills == r.kills
        && n.feed_faults == r.feed_faults
        && n.corruptions == r.corruptions
        && n.chain_skipped == r.chain_skipped
        && n.cold_restarts == r.cold_restarts
        && n.recoveries == r.recoveries
        && n.replayed_batches == r.replayed_batches
        && n.priced_out == r.priced_out
        && n.storm_bounces == r.storm_bounces
        && n.retry_give_ups == r.retry_give_ups
        && n.flood_bounces == r.flood_bounces;
    let report = &noisy.report;
    let consistent = report.shards.iter().all(|s| {
        s.jobs.iter().enumerate().all(|(i, j)| j.id == JobId(i))
            && s.events.len() == s.jobs.len()
            && s.price_trace.len() == s.batches
            && ring_capacity(driver.queue_capacity).is_ok_and(|ring| s.max_queue_depth() <= ring)
            && s.instance(report.machines, report.alpha)
                .is_ok_and(|inst| validate_schedule(&inst, &s.schedule).is_ok())
    }) && report.tenants.iter().all(|t| {
        t.submitted
            == t.accepted
                + t.rejected_by_scheduler
                + t.rejected_by_price
                + t.rejected_invalid
                + t.rejected_stale
                + t.deferred
                + t.queue_full
                + t.quota_exceeded
    });

    let pd = PdScheduler::coarse().run(&instance).expect("PD batch run");
    let lb = best_lower_bound(&instance, &pd).expect("lower bound");
    let stream = StreamingSimulation::default()
        .run(&PdScheduler::coarse(), &instance)
        .expect("streaming run");

    Cell {
        name: config.name(),
        jobs: instance.len(),
        noisy,
        invisible,
        replays,
        consistent,
        toggles_agree: warm_vs_cold_agree(&instance),
        ratio: safe_ratio(pd.cost().total(), lb.value),
        lb_exact: lb.exact,
        p50_us: stream.latency_percentile_secs(50.0) * 1e6,
        p99_us: stream.latency_percentile_secs(99.0) * 1e6,
    }
}

/// Runs E16.
pub fn run(quick: bool) -> ExperimentOutput {
    // `SOAK_N` overrides the full-mode soak length (jobs per scenario) so
    // CI and long-running soaks can stretch or shrink E16 without a code
    // edit; the recorded EXPERIMENTS.md numbers use the 320-job default.
    let (n_jobs, waves, wave_size, capacity) = if quick {
        (48, 8, 6, 8)
    } else {
        let n_jobs = std::env::var("SOAK_N")
            .ok()
            .and_then(|n| n.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(320);
        (n_jobs, 24, 13, 16)
    };
    let driver = ChaosDriver {
        wave_size,
        queue_capacity: capacity,
        price_smoothing: 0.2,
        checkpoint_chain: 3,
    };
    let fleet = ScenarioConfig::all(n_jobs, 1, 2.5, 1600);
    let cells: Vec<Cell> = fleet
        .iter()
        .enumerate()
        .map(|(idx, config)| run_cell(config, &driver, waves, idx))
        .collect();

    // ---- Table 1: what each scenario's fault plan injected and how the
    // service recovered.
    let mut faults = Table::new(
        "Injected faults and supervised recovery per scenario",
        &[
            "scenario",
            "jobs",
            "waves",
            "kills",
            "feed faults",
            "corrupted",
            "chain skips",
            "cold restarts",
            "recoveries",
            "replayed",
            "recovery (ms)",
            "storm bounce",
            "give-ups",
            "flood bounce",
            "priced out",
        ],
    );
    for c in &cells {
        let s = &c.noisy.stats;
        faults.push_row(vec![
            c.name.into(),
            c.jobs.to_string(),
            s.waves.to_string(),
            s.kills.to_string(),
            s.feed_faults.to_string(),
            s.corruptions.to_string(),
            s.chain_skipped.to_string(),
            s.cold_restarts.to_string(),
            s.recoveries.to_string(),
            s.replayed_batches.to_string(),
            fmt_f64(s.recovery_secs * 1e3),
            s.storm_bounces.to_string(),
            s.retry_give_ups.to_string(),
            s.flood_bounces.to_string(),
            s.priced_out.to_string(),
        ]);
    }

    // ---- Table 2: determinism gates and per-scenario quality.
    let mut quality = Table::new(
        "Determinism gates, competitive ratio and tail latency per scenario",
        &[
            "scenario",
            "injected == fault-free",
            "replay identical",
            "invariants green",
            "toggle oracle",
            "PD ratio",
            "bound source",
            "p50 (us)",
            "p99 (us)",
        ],
    );
    for c in &cells {
        quality.push_row(vec![
            c.name.into(),
            check(c.invisible).into(),
            check(c.replays).into(),
            check(c.consistent).into(),
            check(c.toggles_agree).into(),
            fmt_f64(c.ratio),
            if c.lb_exact {
                "exact OPT"
            } else {
                "dual bound"
            }
            .into(),
            fmt_f64(c.p50_us),
            fmt_f64(c.p99_us),
        ]);
    }

    let invisible = cells.iter().all(|c| c.invisible);
    let replays = cells.iter().all(|c| c.replays);
    let consistent = cells.iter().all(|c| c.consistent);
    let toggles = cells.iter().all(|c| c.toggles_agree);
    let recovered = cells.iter().all(|c| {
        let s = &c.noisy.stats;
        s.recoveries == s.kills + s.feed_faults
    });
    // Kills with blob corruption and chain fallback are guaranteed per
    // scenario.  Feed faults degrade to no-ops on waves the price gate
    // emptied (a fault on a batch that never forms cannot fire), and
    // storms/floods need a full ring / a positive watermark — those
    // classes are gated fleet-wide instead.
    let every_class = cells.iter().all(|c| {
        let s = &c.noisy.stats;
        s.kills >= 1 && s.corruptions >= 1 && s.chain_skipped >= 1
    }) && cells
        .iter()
        .map(|c| c.noisy.stats.feed_faults)
        .sum::<usize>()
        >= 1
        && cells
            .iter()
            .map(|c| c.noisy.stats.storm_bounces)
            .sum::<usize>()
            >= 1
        && cells
            .iter()
            .map(|c| c.noisy.stats.flood_bounces)
            .sum::<usize>()
            >= 1;
    let ratios_finite = cells.iter().all(|c| c.ratio.is_finite());
    let cold_restarts: usize = cells.iter().map(|c| c.noisy.stats.cold_restarts).sum();
    let give_ups: usize = cells.iter().map(|c| c.noisy.stats.retry_give_ups).sum();

    ExperimentOutput {
        id: "E16".into(),
        title: "Chaos soak: scenario fleet x deterministic fault plans, recovery, regression gates"
            .into(),
        tables: vec![faults, quality],
        notes: vec![
            format!(
                "every fault-injected soak equals its fault-free reference on every \
                 deterministic field (shard records, schedules, bit-compared): {}",
                check(invisible)
            ),
            format!(
                "the same FaultPlan seed reproduces the same report and the same \
                 injection/recovery counters: {}",
                check(replays)
            ),
            format!(
                "every injected lifecycle fault was healed by exactly one supervised \
                 recovery (no watchdog give-ups): {}",
                check(recovered)
            ),
            format!(
                "every scenario was killed and recovered through a corrupted \
                 checkpoint chain, and the fleet saw every fault class (feed \
                 faults, queue-full storms, expiry floods): {}",
                check(every_class)
            ),
            format!(
                "invariants stay green under chaos (dense ids, one price per batch, \
                 bounded queue depths, schedules validate offline, tenant counters \
                 partition every attempt): {}",
                check(consistent)
            ),
            format!(
                "toggle-matrix differential oracle: warm-started and from-scratch \
                 replans agree on every scenario: {}",
                check(toggles)
            ),
            format!(
                "PD competitive ratios stay finite on every scenario (overload and \
                 adversaries included): {}",
                check(ratios_finite)
            ),
            format!(
                "full-chain corruption forced {cold_restarts} cold restart(s); storms \
                 drove {give_ups} retry loop(s) to a typed give-up"
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_quick_produces_both_tables_and_passing_notes() {
        let out = run(true);
        assert_eq!(out.tables.len(), 2);
        assert_eq!(out.tables[0].rows.len(), 6, "six scenarios");
        assert_eq!(out.tables[1].rows.len(), 6);
        for note in &out.notes[..7] {
            assert!(note.contains("yes"), "failing E16 note: {note}");
        }
    }
}
