//! End-to-end tests of the ingestion daemon: total ingress (one typed
//! error path per violation class), multi-tenant admission accounting,
//! dual-price backpressure, and the checkpointed crash / hand-off
//! lifecycle with bit-identical recovery.

use std::time::{Duration, Instant};

use pss_baselines::CllScheduler;
use pss_core::PdScheduler;
use pss_serve::{Daemon, ServeConfig, ServiceReport, Submission, TenantSpec};
use pss_types::{
    Decision, IngressError, Job, JobEnvelope, LogCheckpointable, OnlineAlgorithm, OnlineScheduler,
    Schedule, ScheduleError, SegmentLog, SnapshotError, StateBlob, TenantId,
};

/// A valid envelope for tenant 0 with the given tag and release.
fn env(tag: u64, release: f64) -> JobEnvelope {
    JobEnvelope::new(TenantId(0), tag, release, release + 1.0, 0.2, 1.0)
}

/// Polls `probe` until it returns true or the deadline passes.
fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// Single-tenant config with everything deterministic and roomy.
fn solo_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 1024,
        start_paused: true,
        ..ServeConfig::default()
    }
}

#[test]
fn unknown_tenant_is_a_typed_rejection() {
    let (daemon, _handles) =
        Daemon::spawn(CllScheduler, solo_config(), vec![TenantSpec::new("only")]).unwrap();
    match daemon.handle(TenantId(7)) {
        Err(IngressError::UnknownTenant(t)) => assert_eq!(t, TenantId(7)),
        other => panic!("expected UnknownTenant, got {other:?}"),
    }
    // A registered tenant resolves, and the clone submits fine.
    let handle = daemon.handle(TenantId(0)).unwrap();
    assert!(matches!(
        handle.submit(env(0, 0.0)),
        Ok(Submission::Queued { shard: 0 })
    ));
    daemon.resume();
    let report = daemon.shutdown().unwrap();
    assert_eq!(report.total_arrivals(), 1);
}

#[test]
fn invalid_envelopes_are_rejected_at_the_boundary() {
    let (daemon, handles) =
        Daemon::spawn(CllScheduler, solo_config(), vec![TenantSpec::new("t")]).unwrap();
    let mut bad = env(1, 0.0);
    bad.work = f64::NAN;
    match handles[0].submit(bad) {
        Err(IngressError::InvalidJob { tag, .. }) => assert_eq!(tag, 1),
        other => panic!("expected InvalidJob, got {other:?}"),
    }
    let mut bad = env(2, 0.0);
    bad.deadline = bad.release; // empty window
    assert!(matches!(
        handles[0].submit(bad),
        Err(IngressError::InvalidJob { .. })
    ));
    daemon.resume();
    let report = daemon.shutdown().unwrap();
    // Nothing reached the scheduler; the rejections are accounted.
    assert_eq!(report.total_arrivals(), 0);
    assert_eq!(report.tenants[0].rejected_invalid, 2);
    assert_eq!(report.tenants[0].submitted, 2);
}

#[test]
fn stale_submissions_are_rejected_against_the_watermark() {
    let config = ServeConfig {
        stale_tolerance: 0.5,
        ..ServeConfig::default()
    };
    let (daemon, handles) =
        Daemon::spawn(CllScheduler, config, vec![TenantSpec::new("t")]).unwrap();
    handles[0].submit(env(0, 10.0)).unwrap();
    wait_for("the watermark to reach 10", || {
        daemon.shard_watermark(0) == 10.0
    });
    // 9.6 is within tolerance of the watermark: admitted (fed at 10).
    assert!(matches!(
        handles[0].submit(env(1, 9.6)),
        Ok(Submission::Queued { .. })
    ));
    // 5.0 is far behind: typed stale rejection.
    match handles[0].submit(env(2, 5.0)) {
        Err(IngressError::Stale {
            release,
            watermark,
            tolerance,
            ..
        }) => {
            assert_eq!(release, 5.0);
            assert_eq!(watermark, 10.0);
            assert_eq!(tolerance, 0.5);
        }
        other => panic!("expected Stale, got {other:?}"),
    }
    let report = daemon.shutdown().unwrap();
    assert_eq!(report.total_arrivals(), 2);
    assert_eq!(report.tenants[0].rejected_stale, 1);
    // The late job was fed at the watermark, never before its release.
    for event in &report.shards[0].events {
        assert!(event.feed_time >= event.release);
    }
}

#[test]
fn dead_on_arrival_submissions_are_rejected_as_expired() {
    // Default config: infinite stale tolerance, so lateness alone never
    // rejects — but a deadline behind the watermark always does.
    let (daemon, handles) = Daemon::spawn(
        CllScheduler,
        ServeConfig::default(),
        vec![TenantSpec::new("t")],
    )
    .unwrap();
    handles[0].submit(env(0, 10.0)).unwrap();
    wait_for("the watermark to reach 10", || {
        daemon.shard_watermark(0) == 10.0
    });
    assert_eq!(handles[0].watermark(), 10.0);
    // Release within tolerance (infinite), but the deadline has passed.
    match handles[0].submit(JobEnvelope::new(TenantId(0), 1, 9.8, 10.0, 0.2, 1.0)) {
        Err(IngressError::Expired {
            deadline,
            watermark,
            ..
        }) => {
            assert_eq!(deadline, 10.0);
            assert_eq!(watermark, 10.0);
        }
        other => panic!("expected Expired, got {other:?}"),
    }
    let report = daemon.shutdown().unwrap();
    assert_eq!(report.total_arrivals(), 1);
    assert_eq!(report.tenants[0].rejected_stale, 1);
}

#[test]
fn jobs_expiring_in_the_queue_are_rejected_at_feed_time() {
    // Pre-queue on a paused daemon: both envelopes are admitted against a
    // -inf watermark, then the first burst drags the watermark past the
    // second job's deadline — it must be rejected at feed time without
    // ever being shown to the scheduler (which would reject the whole
    // batch as a contract violation).
    let (daemon, handles) =
        Daemon::spawn(CllScheduler, solo_config(), vec![TenantSpec::new("t")]).unwrap();
    handles[0].submit(env(0, 10.0)).unwrap();
    handles[0]
        .submit(JobEnvelope::new(TenantId(0), 1, 0.5, 1.5, 0.2, 1.0))
        .unwrap();
    daemon.resume();
    let report = daemon.shutdown().unwrap();
    let shard = &report.shards[0];
    assert_eq!(shard.events.len(), 2);
    assert_eq!(shard.expired(), 1);
    let late = shard.events.iter().find(|e| e.tag == 1).unwrap();
    assert!(late.expired && !late.accepted);
    assert_eq!(late.feed_time, 10.0);
    // The synthesised decision is the one the model implies: the job's
    // value is lost, and it feeds the dual-price signal like any rejection.
    assert_eq!(late.dual, 1.0);
    let on_time = shard.events.iter().find(|e| e.tag == 0).unwrap();
    assert!(on_time.accepted && !on_time.expired);
    // Accounting: the expiry is a Decision-level rejection, not an
    // admission failure.
    assert_eq!(report.tenants[0].submitted, 2);
    assert_eq!(report.tenants[0].accepted, 1);
    assert_eq!(report.tenants[0].rejected_by_scheduler, 1);
    assert_eq!(report.tenants[0].rejected_stale, 0);
}

/// A multi-tenant queue interleaves producers' releases out of order; the
/// worker clamps a late live release up to the release floor so runs that
/// key on release order (PD's partition refinement) are never poisoned.
#[test]
fn out_of_order_releases_are_clamped_to_the_release_floor() {
    let (daemon, handles) = Daemon::spawn(
        PdScheduler::coarse(),
        solo_config(),
        vec![TenantSpec::new("t")],
    )
    .unwrap();
    // Release 10 queued first, then a straggler with release 0.5 but a
    // deadline far past the watermark: it stays live and must be fed.
    handles[0].submit(env(0, 10.0)).unwrap();
    handles[0]
        .submit(JobEnvelope::new(TenantId(0), 1, 0.5, 60.0, 0.2, 1.0))
        .unwrap();
    daemon.resume();
    let report = daemon.shutdown().unwrap();
    let shard = &report.shards[0];
    assert_eq!(shard.events.len(), 2);
    assert!(shard.events.iter().all(|e| !e.expired));
    // The straggler was fed with its release clamped to the floor (10.0);
    // the event keeps the envelope's original release for the record.
    assert_eq!(shard.jobs[1].release, 10.0);
    assert_eq!(shard.events[1].release, 0.5);
    // The run survived and its schedule validates against the fed stream.
    let instance = shard.instance(report.machines, report.alpha).unwrap();
    pss_core::prelude::validate_schedule(&instance, &shard.schedule).unwrap();
}

#[test]
fn full_queues_bounce_submissions() {
    let config = ServeConfig {
        queue_capacity: 4,
        ..solo_config()
    };
    let (daemon, handles) =
        Daemon::spawn(CllScheduler, config, vec![TenantSpec::new("t")]).unwrap();
    for tag in 0..4 {
        handles[0].submit(env(tag, tag as f64)).unwrap();
    }
    match handles[0].submit(env(4, 4.0)) {
        Err(
            e @ IngressError::QueueFull {
                shard: 0,
                capacity: 4,
            },
        ) => assert!(e.is_retryable()),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    daemon.resume();
    let report = daemon.shutdown().unwrap();
    assert_eq!(report.total_arrivals(), 4);
    assert_eq!(report.tenants[0].queue_full, 1);
    assert!(report.shards[0].max_queue_depth() <= 4);
}

#[test]
fn quotas_cap_outstanding_jobs_and_release_on_drain() {
    let config = ServeConfig {
        queue_capacity: 64,
        ..solo_config()
    };
    let spec = TenantSpec::new("t").with_quota(3);
    let (daemon, handles) = Daemon::spawn(CllScheduler, config, vec![spec]).unwrap();
    for tag in 0..3 {
        handles[0].submit(env(tag, 0.1 * tag as f64)).unwrap();
    }
    match handles[0].submit(env(3, 0.3)) {
        Err(e @ IngressError::QuotaExceeded { limit: 3, .. }) => assert!(e.is_retryable()),
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    // Draining frees quota: once the worker ingests the backlog the same
    // submission goes through.
    daemon.resume();
    // The worker journals a batch's events only after it has released
    // their quota slots, so three events mean three free slots.
    wait_for("the backlog to be journalled", || {
        daemon.shard_event_count(0) == 3
    });
    wait_for("quota to free up", || {
        handles[0].submit(env(4, 0.4)).is_ok()
    });
    let report = daemon.shutdown().unwrap();
    assert_eq!(report.tenants[0].quota_exceeded, 1);
    assert!(report.total_arrivals() >= 4);
}

/// Drives the shard price up by feeding jobs the scheduler must reject
/// (huge density, tiny value relative to the energy needed), then checks
/// both backpressure policies.  Every decision folds into the price (the
/// fold in `pss_sim::ShardCore::feed`, `crates/sim/src/feed.rs`): an
/// acceptance folds in the job's dual, and under `fold_price`'s one-sided
/// rule a rejection ratchets the price up toward its value.  The hopeless
/// job rides in one coalesced batch behind an accepted anchor; with
/// `price_smoothing` 1.0 the batch's last decision, the rejection, sets the
/// price to its value.
#[test]
fn dual_price_backpressure_defers_and_rejects() {
    let config = ServeConfig {
        price_smoothing: 1.0, // price = the batch's last decision dual
        coalesce_window: 0.5, // anchor + hopeless coalesce into one batch
        start_paused: true,
        ..ServeConfig::default()
    };
    let tenants = vec![
        TenantSpec::new("defer"),
        TenantSpec::new("reject").rejecting_on_price(),
    ];
    let (daemon, handles) = Daemon::spawn(CllScheduler, config, tenants).unwrap();
    // The anchor is trivially profitable (speed 0.2, energy ≪ value), so
    // CLL accepts it at a small dual.  Work 50 in a window of 0.1 needs
    // speed 500: energy ≈ 500² · 0.1 ≫ value 8, so CLL rejects the hopeless
    // job, and its value 8, above the anchor's dual, becomes the price.
    let anchor = JobEnvelope::new(TenantId(0), 98, 0.0, 1.0, 0.2, 1.0);
    let hopeless = JobEnvelope::new(TenantId(0), 99, 0.0, 0.1, 50.0, 8.0);
    handles[0].submit(anchor).unwrap();
    handles[0].submit(hopeless).unwrap();
    daemon.resume();
    wait_for("the dual price to spike", || daemon.shard_price(0) >= 8.0);

    // A Defer-policy tenant gets a retryable Backpressure error...
    let cheap = JobEnvelope::new(TenantId(0), 1, 1.0, 2.0, 0.2, 1.0);
    match handles[0].submit(cheap) {
        Err(
            e @ IngressError::Backpressure {
                price, threshold, ..
            },
        ) => {
            assert!(e.is_retryable());
            assert!(price >= 8.0);
            assert_eq!(threshold, 1.0); // min(ceiling ∞, value 1.0)
        }
        other => panic!("expected Backpressure, got {other:?}"),
    }
    // ...a Reject-policy tenant has the job dropped and its value booked.
    let cheap2 = JobEnvelope::new(TenantId(1), 2, 1.0, 2.0, 0.2, 1.5);
    match handles[1].submit(cheap2) {
        Ok(Submission::RejectedByPrice { price }) => assert!(price >= 8.0),
        other => panic!("expected RejectedByPrice, got {other:?}"),
    }
    // A job rich enough to clear the price passes the gate.
    let rich = JobEnvelope::new(TenantId(0), 3, 1.0, 2.0, 0.2, 100.0);
    assert!(matches!(
        handles[0].submit(rich),
        Ok(Submission::Queued { .. })
    ));

    let report = daemon.shutdown().unwrap();
    assert_eq!(report.tenants[0].deferred, 1);
    assert_eq!(report.tenants[1].rejected_by_price, 1);
    assert_eq!(report.tenants[1].lost_value, 1.5);
    // The price trace recorded the spike.
    assert!(report.shards[0].price_trace.iter().any(|&p| p >= 8.0));
}

/// CLL whose `on_arrivals` drops the last decision of every burst: a run
/// that breaks the one-decision-per-job contract.
#[derive(Debug, Clone, Copy)]
struct DropsLastDecision;

struct DropsLastRun(<CllScheduler as OnlineAlgorithm>::Run);

impl OnlineAlgorithm for DropsLastDecision {
    type Run = DropsLastRun;

    fn algorithm_name(&self) -> String {
        "CLL dropping its last decision".into()
    }

    fn start(&self, machines: usize, alpha: f64) -> Result<Self::Run, ScheduleError> {
        CllScheduler.start(machines, alpha).map(DropsLastRun)
    }
}

impl OnlineScheduler for DropsLastRun {
    fn on_arrival(&mut self, job: &Job, now: f64) -> Result<Decision, ScheduleError> {
        self.0.on_arrival(job, now)
    }

    fn on_arrivals(&mut self, jobs: &[Job], now: f64) -> Result<Vec<Decision>, ScheduleError> {
        let mut decisions = self.0.on_arrivals(jobs, now)?;
        decisions.pop();
        Ok(decisions)
    }

    fn frontier(&self) -> &Schedule {
        self.0.frontier()
    }

    fn finish(self) -> Result<Schedule, ScheduleError> {
        self.0.finish()
    }
}

impl LogCheckpointable for DropsLastRun {
    fn snapshot_live(&self, log: &mut SegmentLog) -> Result<StateBlob, SnapshotError> {
        self.0.snapshot_live(log)
    }

    fn restore_with_log(blob: &StateBlob, log: &SegmentLog) -> Result<Self, SnapshotError> {
        LogCheckpointable::restore_with_log(blob, log).map(DropsLastRun)
    }
}

#[test]
fn a_contract_violating_run_poisons_the_shard_instead_of_panicking() {
    let (daemon, handles) =
        Daemon::spawn(DropsLastDecision, solo_config(), vec![TenantSpec::new("t")]).unwrap();
    for tag in 0..3 {
        assert!(matches!(
            handles[0].submit(env(tag, tag as f64)),
            Ok(Submission::Queued { .. })
        ));
    }
    daemon.resume();
    // An invalid envelope is a probe that never reaches the queue: a
    // poisoned shard bounces it as shutting down before validating it.
    let mut probe = env(99, 0.0);
    probe.work = f64::NAN;
    wait_for("the shard to be poisoned", || {
        matches!(handles[0].submit(probe), Err(IngressError::ShuttingDown))
    });
    // The journal lock is intact: the worker returned an error, it did not
    // unwind while holding the lock.
    assert_eq!(daemon.shard_event_count(0), 0);
    match daemon.shutdown() {
        Err(e) => assert!(
            e.to_string()
                .contains("on_arrivals contract violation: 0 decisions for a burst of 1 jobs"),
            "unexpected error: {e}"
        ),
        Ok(_) => panic!("a poisoned shard must fail the shutdown"),
    }
}

#[test]
fn shutdown_rejects_new_submissions() {
    let (daemon, handles) = Daemon::spawn(
        CllScheduler,
        ServeConfig::default(),
        vec![TenantSpec::new("t")],
    )
    .unwrap();
    handles[0].submit(env(0, 0.0)).unwrap();
    let report = daemon.shutdown().unwrap();
    assert_eq!(report.total_arrivals(), 1);
    assert!(matches!(
        handles[0].submit(env(1, 1.0)),
        Err(IngressError::ShuttingDown)
    ));
}

/// The per-tenant counters partition `submitted` exactly once the service
/// has drained.
#[test]
fn admission_counters_partition_submissions() {
    let config = ServeConfig {
        shards: 2,
        queue_capacity: 8,
        ..ServeConfig::default()
    };
    let tenants = vec![
        TenantSpec::new("a").on_shard(0).with_quota(4),
        TenantSpec::new("b").on_shard(1),
        TenantSpec::new("c").on_shard(1).rejecting_on_price(),
    ];
    let (daemon, handles) = Daemon::spawn(CllScheduler, config, tenants).unwrap();
    let mut produced = 0u64;
    for round in 0..200u64 {
        for handle in &handles {
            let release = round as f64 * 0.01;
            let mut e = env(round, release);
            if round % 50 == 7 {
                e.work = -1.0; // invalid on purpose
            }
            let _ = handle.submit(e); // any typed outcome is fine
            produced += 1;
        }
    }
    let report = daemon.shutdown().unwrap();
    let mut submitted_total = 0;
    for t in &report.tenants {
        assert_eq!(
            t.submitted,
            t.accepted
                + t.rejected_by_scheduler
                + t.rejected_by_price
                + t.rejected_invalid
                + t.rejected_stale
                + t.deferred
                + t.queue_full
                + t.quota_exceeded,
            "counters do not partition for tenant {}",
            t.tenant
        );
        submitted_total += t.submitted;
    }
    assert_eq!(submitted_total, produced);
    // Queue depth never exceeded the bound.
    for shard in &report.shards {
        assert!(shard.max_queue_depth() <= 8);
    }
}

/// Runs `submit everything paused → resume → lifecycle() → shutdown` and
/// returns the report.  With a fixed envelope stream and config, the fed
/// stream is deterministic, so two runs differing only in lifecycle events
/// (crashes, hand-offs) must agree on every deterministic field.
fn run_with_lifecycle(
    config: ServeConfig,
    stream: &[JobEnvelope],
    lifecycle: impl FnOnce(&mut Daemon<PdScheduler>),
) -> ServiceReport {
    let (mut daemon, handles) =
        Daemon::spawn(PdScheduler::coarse(), config, vec![TenantSpec::new("t")]).unwrap();
    for e in stream {
        match handles[0].submit(*e) {
            Ok(Submission::Queued { .. }) => {}
            other => panic!("pre-queued submission failed: {other:?}"),
        }
    }
    daemon.resume();
    lifecycle(&mut daemon);
    daemon.shutdown().unwrap()
}

fn assert_deterministic_fields_equal(a: &ServiceReport, b: &ServiceReport) {
    assert_eq!(a.shards.len(), b.shards.len());
    for (sa, sb) in a.shards.iter().zip(&b.shards) {
        assert_eq!(sa.jobs, sb.jobs, "fed job streams differ");
        assert_eq!(sa.batches, sb.batches, "batch counts differ");
        assert_eq!(sa.events.len(), sb.events.len(), "event counts differ");
        for (ea, eb) in sa.events.iter().zip(&sb.events) {
            assert_eq!(ea.job, eb.job);
            assert_eq!(ea.tag, eb.tag);
            assert_eq!(ea.batch, eb.batch);
            assert_eq!(ea.feed_time.to_bits(), eb.feed_time.to_bits());
            assert_eq!(
                ea.accepted, eb.accepted,
                "decision flipped for {:?}",
                ea.job
            );
            assert_eq!(ea.expired, eb.expired, "expiry flipped for {:?}", ea.job);
            assert_eq!(
                ea.dual.to_bits(),
                eb.dual.to_bits(),
                "dual differs for {:?}",
                ea.job
            );
        }
        assert_eq!(
            sa.price_trace.len(),
            sb.price_trace.len(),
            "price trace lengths differ"
        );
        for (pa, pb) in sa.price_trace.iter().zip(&sb.price_trace) {
            assert_eq!(pa.to_bits(), pb.to_bits(), "price traces diverge");
        }
        assert_eq!(sa.final_price.to_bits(), sb.final_price.to_bits());
        assert_eq!(sa.schedule, sb.schedule, "schedules differ");
    }
    assert_eq!(a.tenants[0].accepted, b.tenants[0].accepted);
    assert_eq!(
        a.tenants[0].rejected_by_scheduler,
        b.tenants[0].rejected_by_scheduler
    );
}

/// A deterministic single-tenant stream: increasing releases with bursts
/// of near-simultaneous arrivals, values straddling profitability.
fn lifecycle_stream(n: usize) -> Vec<JobEnvelope> {
    (0..n)
        .map(|k| {
            let burst = (k / 4) as f64;
            let jitter = (k % 4) as f64 * 1e-4;
            let release = burst * 0.5 + jitter;
            let work = 0.3 + 0.1 * ((k * 7) % 5) as f64;
            let value = 0.5 + 0.25 * ((k * 3) % 8) as f64;
            JobEnvelope::new(TenantId(0), k as u64, release, release + 2.0, work, value)
        })
        .collect()
}

fn lifecycle_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 256,
        coalesce_window: 1e-3, // each 4-burst coalesces into one batch
        max_batch: 16,
        checkpoint_every: 3,
        start_paused: true,
        ..ServeConfig::default()
    }
}

/// Kill the worker mid-load, recover on a fresh thread from the last
/// checkpoint blob: the merged outcome equals an uninterrupted run on
/// every deterministic field.  `SERVE_SMOKE=1` (the CI serve-smoke step)
/// upgrades the single mid-load kill to a sweep of crash boundaries.
#[test]
fn crash_recovery_merges_bit_identically() {
    let stream = lifecycle_stream(96);
    let baseline = run_with_lifecycle(lifecycle_config(), &stream, |_| {});
    let kills: Vec<usize> = if std::env::var_os("SERVE_SMOKE").is_some() {
        (1..=12).collect()
    } else {
        vec![5]
    };
    for kill in kills {
        let recovered = run_with_lifecycle(lifecycle_config(), &stream, |daemon| {
            daemon.crash_shard(0, kill).unwrap();
            let recovery = daemon.recover_shard(0).unwrap();
            // The crash landed past checkpoint 3k <= crash boundary: at
            // most a checkpoint cadence of batches is replayed.
            assert!(recovery.replayed_batches <= 3);
        });
        assert_deterministic_fields_equal(&baseline, &recovered);
        // The recovered run kept its checkpoint history in the report.
        assert!(recovered.shards[0].checkpoints >= 2, "kill at {kill}");
    }
}

/// A graceful hand-off (checkpoint at a quiescent boundary, resume on a
/// fresh thread) is invisible in the deterministic output.
#[test]
fn handoff_is_bit_identical_and_records_latency() {
    let stream = lifecycle_stream(96);
    let baseline = run_with_lifecycle(lifecycle_config(), &stream, |_| {});
    let handed_off = run_with_lifecycle(lifecycle_config(), &stream, |daemon| {
        let first = daemon.handoff_shard(0).unwrap();
        assert_eq!(first.replayed_batches, 0, "hand-off replays nothing");
        daemon.handoff_shard(0).unwrap();
    });
    assert_deterministic_fields_equal(&baseline, &handed_off);
    assert_eq!(handed_off.shards[0].handoffs, 2);
    assert_eq!(handed_off.drain.handoff_secs.len(), 2);
    assert!(handed_off.drain.handoff_secs.iter().all(|&s| s >= 0.0));
}

/// Crash + recovery works repeatedly, including a crash after all arrivals
/// were already fed (recovery replays the tail of the journal).
#[test]
fn repeated_crashes_still_converge() {
    let stream = lifecycle_stream(48);
    let baseline = run_with_lifecycle(lifecycle_config(), &stream, |_| {});
    let battered = run_with_lifecycle(lifecycle_config(), &stream, |daemon| {
        daemon.crash_shard(0, 2).unwrap();
        daemon.recover_shard(0).unwrap();
        daemon.crash_shard(0, 7).unwrap();
        daemon.recover_shard(0).unwrap();
    });
    assert_deterministic_fields_equal(&baseline, &battered);
}

/// The service summary of a real run survives its JSON round-trip.
#[test]
fn service_summary_round_trips_through_json() {
    let stream = lifecycle_stream(32);
    let report = run_with_lifecycle(lifecycle_config(), &stream, |daemon| {
        daemon.handoff_shard(0).unwrap();
    });
    let summary = report.summary();
    let json = summary.to_json();
    let back = pss_metrics::ServiceSummary::from_json(&json).unwrap();
    assert_eq!(back, summary);
    assert_eq!(back.shards[0].arrivals, 32);
    assert_eq!(back.drain.handoff_secs.len(), 1);
}
