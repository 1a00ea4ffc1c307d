//! Chaos-layer tests: the determinism pin (fault-injected runs equal
//! fault-free runs on every deterministic field, and same plan seed means
//! same report), chain-fallback recovery at every corruption depth,
//! watchdog supervision with capped give-up, the all-rejected price-EWMA
//! guard, queue-full storms driven through the retry policy, and
//! out-of-order producers against the release-floor clamp.

use std::time::{Duration, Instant};

use pss_baselines::CllScheduler;
use pss_core::PdScheduler;
use pss_serve::{
    deterministic_fields_equal, ChaosDriver, ChaosStats, Daemon, FaultPlan, RetryError,
    RetryPolicy, ServeConfig, ServiceReport, Submission, TenantSpec, WatchdogVerdict,
};
use pss_types::{IngressError, JobEnvelope, TenantId};
use pss_workloads::{RandomConfig, SmallRng};

/// A valid envelope for tenant 0 with the given tag and release.
fn env(tag: u64, release: f64) -> JobEnvelope {
    JobEnvelope::new(TenantId(0), tag, release, release + 20.0, 0.2, 1.0)
}

/// A job PD provably rejects: far more work than its window can hold at
/// any sane speed, with a value high enough to pass every price gate.
fn hopeless(tag: u64, release: f64, value: f64) -> JobEnvelope {
    JobEnvelope::new(TenantId(0), tag, release, release + 0.1, 50.0, value)
}

/// Polls `probe` until it returns true or the deadline passes.
fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// Single-shard lifecycle config: one batch per paused wave (unbounded
/// coalescing), a checkpoint after every batch, a chain of 3.
fn wave_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 64,
        coalesce_window: f64::INFINITY,
        max_batch: 64,
        checkpoint_every: 1,
        checkpoint_chain: 3,
        stale_tolerance: f64::INFINITY,
        start_paused: true,
        ..ServeConfig::default()
    }
}

/// Feeds one wave of envelopes as a single deterministic batch: queue
/// everything while paused, resume, wait for the decision events, pause
/// again at the quiescent boundary.
fn feed_wave<A>(daemon: &Daemon<A>, handle: &pss_serve::TenantHandle, wave: &[JobEnvelope])
where
    A: pss_types::OnlineAlgorithm,
    A::Run: pss_types::LogCheckpointable + Send + 'static,
{
    let epoch = daemon.shard_idle_epoch(0);
    wait_for("worker parked", || daemon.shard_idle_epoch(0) > epoch);
    for envelope in wave {
        assert!(
            matches!(handle.submit(*envelope), Ok(Submission::Queued { .. })),
            "wave envelope must queue"
        );
    }
    let expected = daemon.shard_event_count(0) + wave.len();
    daemon.resume();
    wait_for("wave events", || daemon.shard_event_count(0) >= expected);
    daemon.pause();
}

// ---------------------------------------------------------------------------
// The tentpole pin: chaos is invisible on every deterministic field.
// ---------------------------------------------------------------------------

/// Everything but wall-clock: injected counts and recovery work must
/// replay exactly under the same plan.
fn assert_stats_replay(a: &ChaosStats, b: &ChaosStats) {
    assert_eq!(a.waves, b.waves);
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.kills, b.kills);
    assert_eq!(a.feed_faults, b.feed_faults);
    assert_eq!(a.corruptions, b.corruptions);
    assert_eq!(a.chain_skipped, b.chain_skipped);
    assert_eq!(a.cold_restarts, b.cold_restarts);
    assert_eq!(a.recoveries, b.recoveries);
    assert_eq!(a.replayed_batches, b.replayed_batches);
    assert_eq!(a.priced_out, b.priced_out);
    assert_eq!(a.storm_bounces, b.storm_bounces);
    assert_eq!(a.retry_give_ups, b.retry_give_ups);
    assert_eq!(a.flood_bounces, b.flood_bounces);
}

#[test]
fn fault_injected_soak_equals_fault_free_run_and_replays_bit_identically() {
    let instance = RandomConfig {
        n_jobs: 36,
        ..RandomConfig::standard(11)
    }
    .generate();
    let driver = ChaosDriver::default();
    let plan = FaultPlan::generate(11, 9, driver.checkpoint_chain);

    // The fault-free reference runs the SAME plan with injection off: the
    // wave partition and adversarial interleavings apply, faults do not.
    let free = driver
        .run(PdScheduler::coarse(), &instance, &plan, false)
        .unwrap();
    let noisy = driver
        .run(PdScheduler::coarse(), &instance, &plan, true)
        .unwrap();
    let replay = driver
        .run(PdScheduler::coarse(), &instance, &plan, true)
        .unwrap();

    // The reference injected nothing; the noisy run injected every class.
    assert_eq!(free.stats.kills, 0);
    assert_eq!(free.stats.feed_faults, 0);
    assert_eq!(free.stats.recoveries, 0);
    assert_eq!(free.stats.storm_bounces, 0);
    // Every instance job either fed the scheduler or was priced out by the
    // dual gate — and the split itself is deterministic.
    assert_eq!(free.stats.jobs + free.stats.priced_out, 36);
    assert_eq!(free.stats.jobs, noisy.stats.jobs);
    assert_eq!(free.stats.priced_out, noisy.stats.priced_out);
    assert!(noisy.stats.kills >= 1, "plan must kill at least once");
    assert!(noisy.stats.feed_faults >= 1, "plan must poison a feed");
    assert!(noisy.stats.corruptions >= 1, "plan must corrupt a blob");
    assert_eq!(
        noisy.stats.recoveries,
        noisy.stats.kills + noisy.stats.feed_faults,
        "every lifecycle fault is healed by exactly one recovery"
    );

    // The pin: chaos is invisible on every deterministic field, and the
    // same plan seed reproduces the same report and the same injections.
    assert!(
        deterministic_fields_equal(&free.report, &noisy.report),
        "fault-injected run diverged from the fault-free reference"
    );
    assert!(
        deterministic_fields_equal(&noisy.report, &replay.report),
        "same fault plan, different report"
    );
    assert_stats_replay(&noisy.stats, &replay.stats);
}

#[test]
fn chaos_runs_are_seed_sensitive() {
    let instance = RandomConfig {
        n_jobs: 24,
        machines: 1, // CLL is a single-machine algorithm
        ..RandomConfig::standard(3)
    }
    .generate();
    let driver = ChaosDriver::default();
    let a = driver
        .run(
            CllScheduler,
            &instance,
            &FaultPlan::generate(1, 6, 3),
            false,
        )
        .unwrap();
    let b = driver
        .run(
            CllScheduler,
            &instance,
            &FaultPlan::generate(2, 6, 3),
            false,
        )
        .unwrap();
    // Different seeds shape the workload differently (interleavings and
    // storm-sized waves), so the reports legitimately differ.
    assert!(
        !deterministic_fields_equal(&a.report, &b.report),
        "different plan seeds should not collide on the full report"
    );
}

/// A queue capacity whose power-of-two rounding overflows is a typed error,
/// found before the daemon spawns or allocates.
#[test]
fn an_overflowing_queue_capacity_is_an_error_not_a_panic() {
    let instance = RandomConfig {
        n_jobs: 8,
        machines: 1,
        ..RandomConfig::standard(3)
    }
    .generate();
    let driver = ChaosDriver {
        queue_capacity: usize::MAX,
        ..ChaosDriver::default()
    };
    let plan = FaultPlan::generate(1, 4, driver.checkpoint_chain);
    assert!(driver.run(CllScheduler, &instance, &plan, false).is_err());
}

// ---------------------------------------------------------------------------
// Satellite: chain fallback at every corruption depth.
// ---------------------------------------------------------------------------

#[test]
fn recovery_falls_back_through_the_chain_at_every_corruption_depth() {
    // Reference: the same five single-job waves with no crash at all.
    let (daemon, handles) = Daemon::spawn(
        PdScheduler::coarse(),
        wave_config(),
        vec![TenantSpec::new("t")],
    )
    .unwrap();
    for i in 0..5 {
        feed_wave(&daemon, &handles[0], &[env(i, i as f64)]);
    }
    daemon.resume();
    let reference = daemon.shutdown().unwrap();

    // With a chain of 3 and five checkpoints taken, corrupting the k
    // newest blobs forces recovery k levels deep; k == 3 corrupts the
    // whole chain and must cold-restart, replaying the entire journal.
    for k in 0..=3usize {
        let (mut daemon, handles) = Daemon::spawn(
            PdScheduler::coarse(),
            wave_config(),
            vec![TenantSpec::new("t")],
        )
        .unwrap();
        for i in 0..5 {
            feed_wave(&daemon, &handles[0], &[env(i, i as f64)]);
        }
        daemon.crash_shard(0, 0).unwrap();
        let mut rng = SmallRng::seed_from_u64(k as u64);
        for depth in 0..k {
            daemon
                .corrupt_checkpoint(0, depth, rng.usize_range(0, 4095))
                .unwrap();
        }
        let report = daemon.recover_shard(0).unwrap();
        assert_eq!(report.chain_skipped, k, "k corrupted blobs, k skips");
        assert_eq!(report.cold_restart, k == 3, "full-chain corruption");
        // Chain entries hold batches 3, 4, 5 (newest last); restoring the
        // (k+1)-newest replays the k newer batches — or all 5 from cold.
        let expected_replay = if k == 3 { 5 } else { k };
        assert_eq!(report.replayed_batches, expected_replay);
        daemon.resume();
        let recovered = daemon.shutdown().unwrap();
        assert!(
            deterministic_fields_equal(&reference, &recovered),
            "depth-{k} recovery diverged from the crash-free reference"
        );
    }
}

#[test]
fn corrupting_a_missing_checkpoint_is_a_typed_error() {
    let (mut daemon, handles) = Daemon::spawn(
        PdScheduler::coarse(),
        wave_config(),
        vec![TenantSpec::new("t")],
    )
    .unwrap();
    feed_wave(&daemon, &handles[0], &[env(0, 0.0)]);
    // One checkpoint exists; offset 0 works, offset 7 does not.
    daemon.crash_shard(0, 0).unwrap();
    assert!(daemon.corrupt_checkpoint(0, 0, 17).is_ok());
    assert!(daemon.corrupt_checkpoint(0, 7, 17).is_err());
    daemon.recover_shard(0).unwrap();
    daemon.resume();
    daemon.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Tentpole: O(active) checkpoints — the segment log compacts at every
// capture, the chain respects its bound, and crash recovery from
// (log, blob) is bit-identical.
// ---------------------------------------------------------------------------

#[test]
fn seglog_checkpoints_compact_and_recover_bit_identically() {
    let run = |crash: bool| {
        let (mut daemon, handles) = Daemon::spawn(
            PdScheduler::coarse(),
            wave_config(),
            vec![TenantSpec::new("t")],
        )
        .unwrap();
        for i in 0..6 {
            feed_wave(&daemon, &handles[0], &[env(i, i as f64)]);
        }
        // Wait for the park after the last wave's checkpoint so the log
        // stats and chain sizes are read at a quiescent boundary.
        let epoch = daemon.shard_idle_epoch(0);
        wait_for("post-wave park", || daemon.shard_idle_epoch(0) > epoch);
        let (segments, records) = daemon.shard_log_stats(0);
        let chain = daemon.shard_checkpoint_sizes(0).len();
        if crash {
            // Corrupt the newest blob: recovery falls back one level, so
            // the restored run reassembles its frontier from a log cursor
            // *below* the compaction point, truncates the log there, and
            // replays the newer batch on top.
            daemon.crash_shard(0, 0).unwrap();
            daemon.corrupt_checkpoint(0, 0, 33).unwrap();
            let report = daemon.recover_shard(0).unwrap();
            assert_eq!(report.chain_skipped, 1);
            assert!(!report.cold_restart);
            assert_eq!(report.replayed_batches, 1);
        }
        daemon.resume();
        (daemon.shutdown().unwrap(), segments, records, chain)
    };

    let (crashed, segments, records, chain) = run(true);
    let (free, ..) = run(false);

    // The crash is invisible on every deterministic field.
    assert!(
        deterministic_fields_equal(&crashed, &free),
        "seglog crash recovery diverged from the crash-free reference"
    );

    // Compaction at capture: every committed segment lives in the log's
    // prefix, no record envelope outlives the capture that folded it.
    assert!(segments > 0, "committed work must reach the log");
    assert_eq!(
        records, 0,
        "capture must compact the log's record envelopes"
    );
    // The chain respects its bound.
    assert!(chain <= 3, "checkpoint chain of {chain} exceeds its bound");
}

// ---------------------------------------------------------------------------
// Satellite-adjacent: watchdog supervision — poisoned feeds heal, and
// consecutive failures hit the cap as a typed give-up.
// ---------------------------------------------------------------------------

#[test]
fn watchdog_recovers_a_poisoned_feed_and_replays_the_logged_batch() {
    let (mut daemon, handles) = Daemon::spawn(
        PdScheduler::coarse(),
        wave_config(),
        vec![TenantSpec::new("t")],
    )
    .unwrap();
    feed_wave(&daemon, &handles[0], &[env(0, 0.0)]);

    // Arm the transient fault at the next batch, queue a wave, resume: the
    // worker journals the batch, poisons and dies without feeding it.
    daemon.inject_feed_fault(0, 1);
    assert!(matches!(
        handles[0].submit(env(1, 1.0)),
        Ok(Submission::Queued { .. })
    ));
    daemon.resume();
    let verdict = loop {
        match daemon.watchdog_sweep().unwrap()[0] {
            WatchdogVerdict::Healthy => std::thread::yield_now(),
            verdict => break verdict,
        }
    };
    match verdict {
        WatchdogVerdict::Recovered { report, attempts } => {
            assert_eq!(attempts, 1);
            assert!(
                report.replayed_batches >= 1,
                "the poisoned batch was journalled and must be replayed"
            );
            assert!(!report.cold_restart);
        }
        other => panic!("expected a recovery, got {other:?}"),
    }
    wait_for("replayed events", || daemon.shard_event_count(0) >= 2);
    let report = daemon.shutdown().unwrap();
    assert_eq!(report.total_arrivals(), 2, "no event lost to the fault");
}

#[test]
fn watchdog_gives_up_after_the_configured_consecutive_attempts() {
    let config = ServeConfig {
        max_recovery_attempts: 2,
        ..wave_config()
    };
    let (mut daemon, handles) =
        Daemon::spawn(PdScheduler::coarse(), config, vec![TenantSpec::new("t")]).unwrap();
    feed_wave(&daemon, &handles[0], &[env(0, 0.0)]);

    // Two consecutive dead sweeps auto-recover; the third gives up.
    for expected in 1..=2usize {
        daemon.crash_shard(0, 0).unwrap();
        match daemon.watchdog_sweep().unwrap()[0] {
            WatchdogVerdict::Recovered { attempts, .. } => assert_eq!(attempts, expected),
            other => panic!("expected recovery #{expected}, got {other:?}"),
        }
    }
    daemon.crash_shard(0, 0).unwrap();
    assert_eq!(
        daemon.watchdog_sweep().unwrap()[0],
        WatchdogVerdict::GaveUp { attempts: 2 }
    );
    // Manual recovery still works after a give-up, and a healthy sweep
    // resets the consecutive counter so supervision can resume.
    daemon.recover_shard(0).unwrap();
    assert_eq!(
        daemon.watchdog_sweep().unwrap()[0],
        WatchdogVerdict::Healthy
    );
    daemon.crash_shard(0, 0).unwrap();
    match daemon.watchdog_sweep().unwrap()[0] {
        WatchdogVerdict::Recovered { attempts, .. } => {
            assert_eq!(attempts, 1, "healthy sweep must reset the counter");
        }
        other => panic!("expected a post-reset recovery, got {other:?}"),
    }
    daemon.resume();
    daemon.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Satellite: rejection duals price in; decision-free bounces never do.
// ---------------------------------------------------------------------------

#[test]
fn rejection_only_batches_fold_their_duals_into_the_price() {
    let config = ServeConfig {
        price_smoothing: 0.5,
        ..wave_config()
    };
    let (daemon, handles) =
        Daemon::spawn(PdScheduler::coarse(), config, vec![TenantSpec::new("t")]).unwrap();

    // An accepted batch is a pricing event and moves the EWMA off zero.
    feed_wave(&daemon, &handles[0], &[env(0, 0.0)]);
    let price = daemon.shard_price(0);
    assert!(price.is_finite() && !price.is_nan());

    // A batch of provably rejected jobs (duals = their values, 8.0 each)
    // IS a pricing event: every rejection folds its lost value v_j into
    // the EWMA — the congestion signal cheapest-price routing reads.
    // (Skipping rejection-only batches froze a congested shard's price
    // and made the router herd onto it — the E17 starvation bug.)  The
    // fold is deterministic, one EWMA step per decision in feed order.
    feed_wave(
        &daemon,
        &handles[0],
        &[hopeless(1, 1.0, 8.0), hopeless(2, 1.0, 8.0)],
    );
    let mut expected = price;
    for _ in 0..2 {
        expected = 0.5 * expected + 0.5 * 8.0;
    }
    assert_eq!(daemon.shard_price(0).to_bits(), expected.to_bits());
    assert!(
        daemon.shard_price(0) > price,
        "a rejection flood must raise a low price, not freeze it"
    );

    // The ratchet side of the fold: a rejection whose lost value sits
    // *below* the current price is only one-sided evidence (the clearing
    // price is at least v_j), so it must leave the price bit-unchanged —
    // a flood of cheap hopeless jobs cannot drag the price down and keep
    // the congested shard the routing argmin (the cheap-job magnetism
    // half of the E17 fix).  Both jobs pass admission against the price
    // *at queue time*; in feed order the first rejection (v = 20) folds
    // the price up past the second (v = 7), which must then not fold.
    feed_wave(
        &daemon,
        &handles[0],
        &[hopeless(4, 2.0, 20.0), hopeless(5, 2.0, 7.0)],
    );
    expected = 0.5 * expected + 0.5 * 20.0;
    assert_eq!(
        daemon.shard_price(0).to_bits(),
        expected.to_bits(),
        "a below-price rejection must not move the price"
    );
    let frozen = daemon.shard_price(0);

    // The surviving PR-8 guard: a typed admission bounce produces no
    // decision, so it leaves the price bit-unchanged — and the price is
    // never NaN.  The dead-on-arrival path exercises it.
    let doa = JobEnvelope::new(TenantId(0), 3, 0.5, 0.9, 0.1, 1.0);
    let epoch = daemon.shard_idle_epoch(0);
    wait_for("worker parked", || daemon.shard_idle_epoch(0) > epoch);
    // Watermark sits past 1.0, so the gate bounces it typed — and typed
    // bounces are decision-free by construction.
    assert!(matches!(
        handles[0].submit(doa),
        Err(IngressError::Expired { .. })
    ));
    assert_eq!(daemon.shard_price(0).to_bits(), frozen.to_bits());
    daemon.resume();
    let report = daemon.shutdown().unwrap();
    assert_eq!(report.shards[0].final_price.to_bits(), frozen.to_bits());
    assert!(report.shards[0].price_trace.iter().all(|p| !p.is_nan()));
}

#[test]
fn ceiling_zero_flood_bounces_typed_and_never_poisons_the_price() {
    // Tenant 1 has a price ceiling of 0 and a rejecting policy: once the
    // price is positive, its flood is refused at admission, every bounce
    // is typed, and the EWMA never sees a decoy.
    let config = ServeConfig {
        price_smoothing: 1.0,
        ..wave_config()
    };
    let tenants = vec![
        TenantSpec::new("svc"),
        TenantSpec::new("flood").with_price_ceiling(0.0),
    ];
    let (daemon, handles) = Daemon::spawn(PdScheduler::coarse(), config, tenants).unwrap();

    // Establish a strictly positive price: PD accepts the anchor and the
    // coalesced hopeless job folds its rejection dual (value 8).
    feed_wave(&daemon, &handles[0], &[env(0, 0.0), hopeless(1, 0.0, 8.0)]);
    let price = daemon.shard_price(0);
    assert!(price > 0.0, "the anchor wave must lift the price");

    let mut flood = env(100, 2.0);
    flood.tenant = TenantId(1);
    for i in 0..50 {
        flood.tag = 100 + i;
        match handles[1].submit(flood) {
            Err(IngressError::Backpressure { threshold, .. }) => {
                assert_eq!(threshold.to_bits(), 0.0f64.to_bits());
            }
            other => panic!("flood decoy must bounce on price, got {other:?}"),
        }
    }
    assert_eq!(
        daemon.shard_price(0).to_bits(),
        price.to_bits(),
        "admission bounces must not move the price"
    );
    assert!(!daemon.shard_price(0).is_nan());
    daemon.resume();
    let report = daemon.shutdown().unwrap();
    assert_eq!(report.tenants[1].submitted, 50);
    assert_eq!(report.total_arrivals(), 2, "no decoy reached the scheduler");
}

// ---------------------------------------------------------------------------
// Satellite: retry termination against a capacity-2 queue-full storm.
// ---------------------------------------------------------------------------

#[test]
fn retry_terminates_with_typed_give_up_against_a_parked_full_ring() {
    let config = ServeConfig {
        queue_capacity: 2,
        ..wave_config()
    };
    let (daemon, handles) =
        Daemon::spawn(PdScheduler::coarse(), config, vec![TenantSpec::new("t")]).unwrap();
    // Fill the capacity-2 ring while the worker is parked: nothing drains.
    for tag in 0..2 {
        assert!(matches!(
            handles[0].submit(env(tag, 0.0)),
            Ok(Submission::Queued { .. })
        ));
    }
    let policy = RetryPolicy {
        max_attempts: 5,
        base_delay: 1e-5,
        max_delay: 1e-4,
        jitter: 0.5,
    };
    let mut rng = SmallRng::seed_from_u64(21);
    match policy.submit(&handles[0], env(2, 0.0), &mut rng) {
        Err(RetryError::Exhausted { last, attempts }) => {
            assert_eq!(attempts, 5, "the budget is spent exactly");
            match last {
                IngressError::QueueFull { capacity, .. } => assert_eq!(capacity, 2),
                other => panic!("expected QueueFull, got {other}"),
            }
        }
        other => panic!("expected a typed give-up, got {other:?}"),
    }

    // Non-retryable errors short-circuit on the first attempt.
    let mut invalid = env(3, 0.0);
    invalid.work = f64::NAN;
    match policy.submit(&handles[0], invalid, &mut rng) {
        Err(RetryError::Fatal { error, attempts }) => {
            assert_eq!(attempts, 1, "no budget burned on a hopeless cause");
            assert!(!error.is_retryable());
        }
        other => panic!("expected a fatal short-circuit, got {other:?}"),
    }

    // Once the worker drains, the same retry loop runs to completion.
    daemon.resume();
    let patient = RetryPolicy {
        max_attempts: 200,
        ..policy
    };
    match patient.submit(&handles[0], env(4, 0.5), &mut rng) {
        Ok(Submission::Queued { .. }) => {}
        other => panic!("retry against a draining ring must land, got {other:?}"),
    }
    wait_for("drain", || daemon.shard_event_count(0) >= 3);
    let report = daemon.shutdown().unwrap();
    assert_eq!(report.total_arrivals(), 3);
    // The give-up burned 5 attempts, the fatal 1, the landing >= 1.
    assert!(report.tenants[0].submitted >= 8);
}

// ---------------------------------------------------------------------------
// Satellite: out-of-order producers and the release-floor clamp.
// ---------------------------------------------------------------------------

fn run_out_of_order() -> ServiceReport {
    let (daemon, handles) =
        Daemon::spawn(CllScheduler, wave_config(), vec![TenantSpec::new("t")]).unwrap();
    // Wave 1 arrives shuffled far beyond ARRIVAL_ORDER_TOLERANCE; wave 2
    // opens with a release (2.0) behind the watermark wave 1 left (5.0).
    feed_wave(
        &daemon,
        &handles[0],
        &[env(0, 5.0), env(1, 1.0), env(2, 3.0), env(3, 0.5)],
    );
    feed_wave(&daemon, &handles[0], &[env(4, 2.0), env(5, 9.0)]);
    daemon.resume();
    daemon.shutdown().unwrap()
}

#[test]
fn out_of_order_submissions_clamp_to_the_release_floor_and_replay_bit_identically() {
    let report = run_out_of_order();
    let shard = &report.shards[0];
    assert_eq!(shard.jobs.len(), 6);

    // The scheduler saw nondecreasing releases (the floor only ratchets),
    // no fed release moved past its batch's feed time, and windows stayed
    // open — that is the whole clamp contract.
    let mut floor = f64::NEG_INFINITY;
    for (job, event) in shard.jobs.iter().zip(&shard.events) {
        assert!(job.release >= floor, "releases must be nondecreasing");
        floor = job.release;
        assert!(job.release >= event.release, "clamp only lifts releases");
        assert!(job.release <= event.feed_time, "clamp never passes feed");
        assert!(job.deadline > job.release, "clamp keeps windows open");
    }
    // Events preserve the original (unclamped) submitted releases.
    let submitted: Vec<f64> = shard.events.iter().map(|e| e.release).collect();
    assert_eq!(submitted, vec![5.0, 1.0, 3.0, 0.5, 2.0, 9.0]);
    // The late opener of wave 2 was clamped up to wave 1's floor.
    assert!(shard.jobs[4].release >= 5.0);

    // Bit-identical replay: the same out-of-order protocol reproduces the
    // report exactly.
    let again = run_out_of_order();
    assert!(deterministic_fields_equal(&report, &again));
}
