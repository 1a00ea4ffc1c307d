//! End-to-end tests of the ingestion daemon: total ingress (one typed
//! error path per violation class), multi-tenant admission accounting,
//! dual-price backpressure, and the checkpointed crash / hand-off
//! lifecycle with bit-identical recovery.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pss_baselines::CllScheduler;
use pss_core::PdScheduler;
use pss_metrics::JsonValue;
use pss_serve::{Daemon, ServeConfig, ServiceReport, Submission, TenantSpec, WatchdogVerdict};
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

/// `on_arrivals` calls made by every run of [`FailsThirdBurst`], restored
/// runs included.  Only the one test below starts such runs.
static FLAKY_BURSTS: AtomicUsize = AtomicUsize::new(0);

/// CLL whose third `on_arrivals` call, counted over all of its runs, fails
/// once: a transient fault that strikes a recovery's journal replay.
#[derive(Debug, Clone, Copy)]
struct FailsThirdBurst;

struct FailsThirdBurstRun(<CllScheduler as OnlineAlgorithm>::Run);

impl OnlineAlgorithm for FailsThirdBurst {
    type Run = FailsThirdBurstRun;

    fn algorithm_name(&self) -> String {
        "CLL failing its third burst".into()
    }

    fn start(&self, machines: usize, alpha: f64) -> Result<Self::Run, ScheduleError> {
        CllScheduler.start(machines, alpha).map(FailsThirdBurstRun)
    }
}

impl OnlineScheduler for FailsThirdBurstRun {
    fn on_arrivals(&mut self, jobs: &[Job], now: f64) -> Result<Vec<Decision>, ScheduleError> {
        if FLAKY_BURSTS.fetch_add(1, Ordering::Relaxed) == 2 {
            return Err(ScheduleError::Internal("transient fault".into()));
        }
        self.0.on_arrivals(jobs, now)
    }

    fn frontier(&self) -> &Schedule {
        self.0.frontier()
    }

    fn finish(self) -> Result<Schedule, ScheduleError> {
        self.0.finish()
    }
}

impl LogCheckpointable for FailsThirdBurstRun {
    fn snapshot_live(&self, log: &mut SegmentLog) -> Result<StateBlob, SnapshotError> {
        self.0.snapshot_live(log)
    }

    fn restore_with_log(blob: &StateBlob, log: &SegmentLog) -> Result<Self, SnapshotError> {
        LogCheckpointable::restore_with_log(blob, log).map(FailsThirdBurstRun)
    }
}

/// A recovery whose replay fails leaves the shard without a worker, so it
/// must keep admission closed until a later recovery succeeds; no event is
/// lost on the way.
#[test]
fn a_failed_recovery_keeps_admission_closed_until_one_succeeds() {
    let (mut daemon, handles) =
        Daemon::spawn(FailsThirdBurst, solo_config(), vec![TenantSpec::new("t")]).unwrap();
    for tag in 0..2 {
        assert!(matches!(
            handles[0].submit(env(tag, tag as f64)),
            Ok(Submission::Queued { .. })
        ));
    }
    daemon.resume();
    wait_for("two fed bursts", || daemon.shard_event_count(0) == 2);
    daemon.crash_shard(0, 2).unwrap();
    // The replay's first burst is the runs' third call, which fails.
    let error = daemon.recover_shard(0).unwrap_err();
    assert!(
        error
            .to_string()
            .contains("journal replay rejected a logged batch"),
        "unexpected error: {error}"
    );
    assert!(matches!(
        handles[0].submit(env(2, 2.0)),
        Err(IngressError::ShuttingDown)
    ));
    match daemon.watchdog_sweep().unwrap()[0] {
        WatchdogVerdict::Recovered { report, .. } => assert_eq!(report.replayed_batches, 2),
        other => panic!("expected a recovery, got {other:?}"),
    }
    assert!(matches!(
        handles[0].submit(env(2, 2.0)),
        Ok(Submission::Queued { .. })
    ));
    let report = daemon.shutdown().unwrap();
    assert_eq!(report.total_arrivals(), 3);
    let tags: Vec<u64> = report.shards[0].events.iter().map(|e| e.tag).collect();
    assert_eq!(tags, [0, 1, 2]);
}

/// Raised by every run of [`PanicsOnMark`] just before it panics.  Only
/// the one test below starts such runs.
static MARKED_PANIC: AtomicBool = AtomicBool::new(false);

/// A job worth more than this marks its burst for [`PanicsOnMark`].
const MARK_VALUE: f64 = 5.0;

/// CLL whose `on_arrivals` panics on a burst holding a marked job: a
/// worker that dies mid-feed, with the journal lock held.
#[derive(Debug, Clone, Copy)]
struct PanicsOnMark;

struct PanicsOnMarkRun(<CllScheduler as OnlineAlgorithm>::Run);

impl OnlineAlgorithm for PanicsOnMark {
    type Run = PanicsOnMarkRun;

    fn algorithm_name(&self) -> String {
        "CLL panicking on a marked job".into()
    }

    fn start(&self, machines: usize, alpha: f64) -> Result<Self::Run, ScheduleError> {
        CllScheduler.start(machines, alpha).map(PanicsOnMarkRun)
    }
}

impl OnlineScheduler for PanicsOnMarkRun {
    fn on_arrivals(&mut self, jobs: &[Job], now: f64) -> Result<Vec<Decision>, ScheduleError> {
        if jobs.iter().any(|job| job.value > MARK_VALUE) {
            MARKED_PANIC.store(true, Ordering::SeqCst);
            panic!("a marked burst");
        }
        self.0.on_arrivals(jobs, now)
    }

    fn frontier(&self) -> &Schedule {
        self.0.frontier()
    }

    fn finish(self) -> Result<Schedule, ScheduleError> {
        self.0.finish()
    }
}

impl LogCheckpointable for PanicsOnMarkRun {
    fn snapshot_live(&self, log: &mut SegmentLog) -> Result<StateBlob, SnapshotError> {
        self.0.snapshot_live(log)
    }

    fn restore_with_log(blob: &StateBlob, log: &SegmentLog) -> Result<Self, SnapshotError> {
        LogCheckpointable::restore_with_log(blob, log).map(PanicsOnMarkRun)
    }
}

/// A hand-off whose departing worker died leaves the shard without a
/// worker, so it must close admission, as a failed recovery does, and the
/// shutdown must report the failure instead of waiting on the shard.
#[test]
fn a_failed_handoff_closes_admission() {
    let (mut daemon, handles) =
        Daemon::spawn(PanicsOnMark, solo_config(), vec![TenantSpec::new("t")]).unwrap();
    let mut marked = env(1, 1.0);
    marked.value = 2.0 * MARK_VALUE;
    for envelope in [env(0, 0.0), marked] {
        assert!(matches!(
            handles[0].submit(envelope),
            Ok(Submission::Queued { .. })
        ));
    }
    daemon.resume();
    wait_for("the worker to panic", || {
        MARKED_PANIC.load(Ordering::SeqCst)
    });
    let error = daemon.handoff_shard(0).unwrap_err();
    assert!(
        error.to_string().contains("worker panicked"),
        "unexpected error: {error}"
    );
    assert!(matches!(
        handles[0].submit(env(2, 2.0)),
        Err(IngressError::ShuttingDown)
    ));
    assert!(
        daemon.shutdown().is_err(),
        "a dead shard must fail the shutdown"
    );
}

/// Raised by the first run of [`PanicsOnceOnMark`] that panics; later runs
/// feed the marked burst normally.  Only the one test below starts such
/// runs.
static PANICKED_ONCE: AtomicBool = AtomicBool::new(false);

/// CLL whose `on_arrivals` panics on the first feed of a burst holding a
/// marked job, and only then: a worker that dies mid-feed, with the journal
/// lock held, whose recovery replays the burst successfully.
#[derive(Debug, Clone, Copy)]
struct PanicsOnceOnMark;

struct PanicsOnceOnMarkRun(<CllScheduler as OnlineAlgorithm>::Run);

impl OnlineAlgorithm for PanicsOnceOnMark {
    type Run = PanicsOnceOnMarkRun;

    fn algorithm_name(&self) -> String {
        CllScheduler.algorithm_name()
    }

    fn start(&self, machines: usize, alpha: f64) -> Result<Self::Run, ScheduleError> {
        CllScheduler.start(machines, alpha).map(PanicsOnceOnMarkRun)
    }
}

impl OnlineScheduler for PanicsOnceOnMarkRun {
    fn on_arrivals(&mut self, jobs: &[Job], now: f64) -> Result<Vec<Decision>, ScheduleError> {
        if jobs.iter().any(|job| job.value > MARK_VALUE)
            && !PANICKED_ONCE.swap(true, Ordering::SeqCst)
        {
            panic!("a marked burst");
        }
        self.0.on_arrivals(jobs, now)
    }

    fn frontier(&self) -> &Schedule {
        self.0.frontier()
    }

    fn finish(self) -> Result<Schedule, ScheduleError> {
        self.0.finish()
    }
}

impl LogCheckpointable for PanicsOnceOnMarkRun {
    fn snapshot_live(&self, log: &mut SegmentLog) -> Result<StateBlob, SnapshotError> {
        self.0.snapshot_live(log)
    }

    fn restore_with_log(blob: &StateBlob, log: &SegmentLog) -> Result<Self, SnapshotError> {
        LogCheckpointable::restore_with_log(blob, log).map(PanicsOnceOnMarkRun)
    }
}

/// A worker that panicked mid-feed poisoned its journal lock; the watchdog
/// still recovers it like a crashed one, and the replay makes the outcome
/// bit-identical to a daemon whose run never panicked.
#[test]
fn the_watchdog_recovers_a_worker_that_panicked_mid_feed() {
    let config = ServeConfig {
        checkpoint_every: 2,
        ..solo_config()
    };
    // The marked job comes last, so the burst that panics is the last one
    // the worker drained.
    let mut envelopes: Vec<JobEnvelope> = (0..6).map(|tag| env(tag, tag as f64)).collect();
    envelopes[5].value = 2.0 * MARK_VALUE;
    let submit_all = |handles: &[pss_serve::TenantHandle]| {
        for envelope in &envelopes {
            assert!(matches!(
                handles[0].submit(*envelope),
                Ok(Submission::Queued { .. })
            ));
        }
    };

    let (plain, handles) = Daemon::spawn(CllScheduler, config, vec![TenantSpec::new("t")]).unwrap();
    submit_all(&handles);
    plain.resume();
    let expected = plain.shutdown().unwrap();

    let (mut daemon, handles) =
        Daemon::spawn(PanicsOnceOnMark, config, vec![TenantSpec::new("t")]).unwrap();
    submit_all(&handles);
    daemon.resume();
    wait_for("the worker to panic", || {
        PANICKED_ONCE.load(Ordering::SeqCst)
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    let verdict = loop {
        match daemon.watchdog_sweep().unwrap().remove(0) {
            WatchdogVerdict::Healthy => {
                assert!(
                    Instant::now() < deadline,
                    "the panicked worker never exited"
                );
                std::thread::yield_now();
            }
            other => break other,
        }
    };
    assert!(
        matches!(verdict, WatchdogVerdict::Recovered { .. }),
        "expected a recovery, got {verdict:?}"
    );
    let report = daemon.shutdown().unwrap();
    assert_eq!(report.total_arrivals(), envelopes.len());
    assert!(pss_serve::deterministic_fields_equal(&report, &expected));
}

/// Where the two tests below break the worker inside a drained chunk of
/// six singleton bursts: at the third burst, or at each of the six under
/// `SERVE_SMOKE=1` (the CI serve-smoke step).
fn chunk_breaks() -> Vec<usize> {
    if std::env::var_os("SERVE_SMOKE").is_some() {
        (0..6).collect()
    } else {
        vec![2]
    }
}

/// A paused daemon over `algorithm` with `envelopes` queued, which its
/// worker drains as one chunk once resumed.
fn spawn_with_chunk<A>(algorithm: A, envelopes: &[JobEnvelope]) -> Daemon<A>
where
    A: OnlineAlgorithm,
    A::Run: LogCheckpointable + Send + 'static,
{
    let (daemon, handles) =
        Daemon::spawn(algorithm, solo_config(), vec![TenantSpec::new("t")]).unwrap();
    for envelope in envelopes {
        assert!(matches!(
            handles[0].submit(*envelope),
            Ok(Submission::Queued { .. })
        ));
    }
    daemon
}

/// Sweeps the watchdog until it has reaped and recovered the shard's dead
/// worker.
fn recover_by_watchdog<A>(daemon: &mut Daemon<A>)
where
    A: OnlineAlgorithm,
    A::Run: LogCheckpointable + Send + 'static,
{
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match daemon.watchdog_sweep().unwrap().remove(0) {
            WatchdogVerdict::Healthy => {
                assert!(Instant::now() < deadline, "the worker never exited");
                std::thread::yield_now();
            }
            WatchdogVerdict::Recovered { .. } => return,
            other => panic!("expected a recovery, got {other:?}"),
        }
    }
}

/// Checks that a daemon whose worker broke at burst `k` of the chunk served
/// all of it: the tenant's counters partition its submissions, and every
/// deterministic field, the event count included, equals the unbroken run's.
fn assert_whole_chunk(report: &ServiceReport, expected: &ServiceReport, k: usize) {
    assert_eq!(
        report.total_arrivals(),
        expected.total_arrivals(),
        "events after a break at burst {k}"
    );
    let t = &report.tenants[0];
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
        "counters do not partition after a break at burst {k}"
    );
    assert!(
        pss_serve::deterministic_fields_equal(report, expected),
        "a break at burst {k} diverged from the unbroken run"
    );
}

/// A feed fault inside a drained chunk loses none of it: the worker
/// journals the whole chunk before it feeds a burst, so the recovery feeds
/// the bursts the poisoned worker never reached.
#[test]
fn a_feed_fault_inside_a_drained_chunk_loses_no_acknowledged_work() {
    let envelopes: Vec<JobEnvelope> = (0..6).map(|tag| env(tag, tag as f64)).collect();
    let plain = spawn_with_chunk(CllScheduler, &envelopes);
    plain.resume();
    let expected = plain.shutdown().unwrap();
    for k in chunk_breaks() {
        let mut daemon = spawn_with_chunk(CllScheduler, &envelopes);
        daemon.inject_feed_fault(0, k);
        daemon.resume();
        recover_by_watchdog(&mut daemon);
        assert_whole_chunk(&daemon.shutdown().unwrap(), &expected, k);
    }
}

/// Raised by the first run of [`PanicsMidChunk`] that panics; the one
/// test below lowers it before each daemon it starts.
static PANICKED_MID_CHUNK: AtomicBool = AtomicBool::new(false);

/// CLL whose `on_arrivals` panics on the first feed of a burst holding a
/// marked job, and only then: a worker that dies inside a drained chunk,
/// before it feeds the chunk's later bursts.
#[derive(Debug, Clone, Copy)]
struct PanicsMidChunk;

struct PanicsMidChunkRun(<CllScheduler as OnlineAlgorithm>::Run);

impl OnlineAlgorithm for PanicsMidChunk {
    type Run = PanicsMidChunkRun;

    fn algorithm_name(&self) -> String {
        CllScheduler.algorithm_name()
    }

    fn start(&self, machines: usize, alpha: f64) -> Result<Self::Run, ScheduleError> {
        CllScheduler.start(machines, alpha).map(PanicsMidChunkRun)
    }
}

impl OnlineScheduler for PanicsMidChunkRun {
    fn on_arrivals(&mut self, jobs: &[Job], now: f64) -> Result<Vec<Decision>, ScheduleError> {
        if jobs.iter().any(|job| job.value > MARK_VALUE)
            && !PANICKED_MID_CHUNK.swap(true, Ordering::SeqCst)
        {
            panic!("a marked burst");
        }
        self.0.on_arrivals(jobs, now)
    }

    fn frontier(&self) -> &Schedule {
        self.0.frontier()
    }

    fn finish(self) -> Result<Schedule, ScheduleError> {
        self.0.finish()
    }
}

impl LogCheckpointable for PanicsMidChunkRun {
    fn snapshot_live(&self, log: &mut SegmentLog) -> Result<StateBlob, SnapshotError> {
        self.0.snapshot_live(log)
    }

    fn restore_with_log(blob: &StateBlob, log: &SegmentLog) -> Result<Self, SnapshotError> {
        LogCheckpointable::restore_with_log(blob, log).map(PanicsMidChunkRun)
    }
}

/// A run that panics inside a drained chunk loses none of it either: the
/// recovery replays the panicking burst and feeds the ones after it.
#[test]
fn a_panic_inside_a_drained_chunk_loses_no_acknowledged_work() {
    for k in chunk_breaks() {
        let mut envelopes: Vec<JobEnvelope> = (0..6).map(|tag| env(tag, tag as f64)).collect();
        envelopes[k].value = 2.0 * MARK_VALUE;
        let plain = spawn_with_chunk(CllScheduler, &envelopes);
        plain.resume();
        let expected = plain.shutdown().unwrap();
        PANICKED_MID_CHUNK.store(false, Ordering::SeqCst);
        let mut daemon = spawn_with_chunk(PanicsMidChunk, &envelopes);
        daemon.resume();
        recover_by_watchdog(&mut daemon);
        assert!(PANICKED_MID_CHUNK.load(Ordering::SeqCst));
        assert_whole_chunk(&daemon.shutdown().unwrap(), &expected, k);
    }
}

/// Feeds of a marked burst by runs of [`PanicsOnEachMark`], the worker's
/// and the recoveries' alike.  Only the one test below starts such runs.
static MARK_PANICS: AtomicUsize = AtomicUsize::new(0);

/// CLL whose `on_arrivals` panics on every feed of a burst holding a
/// marked job: a run whose journal replay panics as its worker did.
#[derive(Debug, Clone, Copy)]
struct PanicsOnEachMark;

struct PanicsOnEachMarkRun(<CllScheduler as OnlineAlgorithm>::Run);

impl OnlineAlgorithm for PanicsOnEachMark {
    type Run = PanicsOnEachMarkRun;

    fn algorithm_name(&self) -> String {
        "CLL panicking on every marked burst".into()
    }

    fn start(&self, machines: usize, alpha: f64) -> Result<Self::Run, ScheduleError> {
        CllScheduler.start(machines, alpha).map(PanicsOnEachMarkRun)
    }
}

impl OnlineScheduler for PanicsOnEachMarkRun {
    fn on_arrivals(&mut self, jobs: &[Job], now: f64) -> Result<Vec<Decision>, ScheduleError> {
        if jobs.iter().any(|job| job.value > MARK_VALUE) {
            MARK_PANICS.fetch_add(1, Ordering::SeqCst);
            panic!("a marked burst");
        }
        self.0.on_arrivals(jobs, now)
    }

    fn frontier(&self) -> &Schedule {
        self.0.frontier()
    }

    fn finish(self) -> Result<Schedule, ScheduleError> {
        self.0.finish()
    }
}

impl LogCheckpointable for PanicsOnEachMarkRun {
    fn snapshot_live(&self, log: &mut SegmentLog) -> Result<StateBlob, SnapshotError> {
        self.0.snapshot_live(log)
    }

    fn restore_with_log(blob: &StateBlob, log: &SegmentLog) -> Result<Self, SnapshotError> {
        LogCheckpointable::restore_with_log(blob, log).map(PanicsOnEachMarkRun)
    }
}

/// A recovery whose journal replay panics fails like one whose replay
/// returns an error: the sweep reports it as the shard's `Failed` verdict,
/// the shard stays poisoned, and after the configured attempts the watchdog
/// gives up.  The control plane never unwinds, and shutdown returns the
/// error the failed recovery left.
#[test]
fn a_replay_that_panics_fails_the_recovery_instead_of_unwinding() {
    let config = ServeConfig {
        max_recovery_attempts: 2,
        ..solo_config()
    };
    let (mut daemon, handles) =
        Daemon::spawn(PanicsOnEachMark, config, vec![TenantSpec::new("t")]).unwrap();
    let mut marked = env(1, 1.0);
    marked.value = 2.0 * MARK_VALUE;
    for envelope in [env(0, 0.0), marked] {
        assert!(matches!(
            handles[0].submit(envelope),
            Ok(Submission::Queued { .. })
        ));
    }
    daemon.resume();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut sweep = daemon.watchdog_sweep();
    while matches!(sweep.as_deref(), Ok([WatchdogVerdict::Healthy])) {
        assert!(Instant::now() < deadline, "the worker never exited");
        std::thread::yield_now();
        sweep = daemon.watchdog_sweep();
    }
    for attempts in 1..=2 {
        assert_eq!(
            sweep.unwrap(),
            [WatchdogVerdict::Failed { attempts }],
            "a replay that panics must fail the recovery"
        );
        assert!(matches!(
            handles[0].submit(env(2, 2.0)),
            Err(IngressError::ShuttingDown)
        ));
        sweep = daemon.watchdog_sweep();
    }
    assert_eq!(sweep.unwrap(), [WatchdogVerdict::GaveUp { attempts: 2 }]);
    assert_eq!(
        MARK_PANICS.load(Ordering::SeqCst),
        3,
        "the worker's feed and two replays"
    );
    let error = daemon
        .shutdown()
        .expect_err("a shard left down must fail the shutdown");
    assert!(
        error.to_string().contains("the run panicked"),
        "unexpected error: {error}"
    );
}

/// Feeds of a marked burst by runs of [`AlwaysPanicsOnMark`], the worker's
/// and the recoveries' alike.  Only the one test below starts such runs.
static ALWAYS_MARK_PANICS: AtomicUsize = AtomicUsize::new(0);

/// CLL whose `on_arrivals` panics on every feed of a burst holding a
/// marked job: the shard fed one never recovers.
#[derive(Debug, Clone, Copy)]
struct AlwaysPanicsOnMark;

struct AlwaysPanicsOnMarkRun(<CllScheduler as OnlineAlgorithm>::Run);

impl OnlineAlgorithm for AlwaysPanicsOnMark {
    type Run = AlwaysPanicsOnMarkRun;

    fn algorithm_name(&self) -> String {
        "CLL panicking on every marked burst".into()
    }

    fn start(&self, machines: usize, alpha: f64) -> Result<Self::Run, ScheduleError> {
        CllScheduler
            .start(machines, alpha)
            .map(AlwaysPanicsOnMarkRun)
    }
}

impl OnlineScheduler for AlwaysPanicsOnMarkRun {
    fn on_arrivals(&mut self, jobs: &[Job], now: f64) -> Result<Vec<Decision>, ScheduleError> {
        if jobs.iter().any(|job| job.value > MARK_VALUE) {
            ALWAYS_MARK_PANICS.fetch_add(1, Ordering::SeqCst);
            panic!("a marked burst");
        }
        self.0.on_arrivals(jobs, now)
    }

    fn frontier(&self) -> &Schedule {
        self.0.frontier()
    }

    fn finish(self) -> Result<Schedule, ScheduleError> {
        self.0.finish()
    }
}

impl LogCheckpointable for AlwaysPanicsOnMarkRun {
    fn snapshot_live(&self, log: &mut SegmentLog) -> Result<StateBlob, SnapshotError> {
        self.0.snapshot_live(log)
    }

    fn restore_with_log(blob: &StateBlob, log: &SegmentLog) -> Result<Self, SnapshotError> {
        LogCheckpointable::restore_with_log(blob, log).map(AlwaysPanicsOnMarkRun)
    }
}

/// One sweep gives every shard its verdict: shard 0's recovery fails (its
/// replay panics on every attempt), and the same sweep still recovers
/// shard 1, whose crashed worker left a job queued, which is then decided.
#[test]
fn one_sweep_gives_every_shard_a_verdict() {
    let config = ServeConfig {
        shards: 2,
        ..solo_config()
    };
    let tenants = vec![TenantSpec::new("zero"), TenantSpec::new("one").on_shard(1)];
    let (mut daemon, handles) = Daemon::spawn(AlwaysPanicsOnMark, config, tenants).unwrap();
    let mut marked = env(1, 1.0);
    marked.value = 2.0 * MARK_VALUE;
    for envelope in [env(0, 0.0), marked] {
        assert!(matches!(
            handles[0].submit(envelope),
            Ok(Submission::Queued { .. })
        ));
    }
    assert!(matches!(
        handles[1].submit(env(0, 0.0)),
        Ok(Submission::Queued { .. })
    ));
    daemon.resume();
    // Shard 0's worker panics on the marked burst, and its first recovery
    // fails the same way.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut verdicts = daemon.watchdog_sweep().unwrap();
    while verdicts[0] == WatchdogVerdict::Healthy {
        assert!(Instant::now() < deadline, "shard 0's worker never exited");
        std::thread::yield_now();
        verdicts = daemon.watchdog_sweep().unwrap();
    }
    assert_eq!(
        verdicts,
        [
            WatchdogVerdict::Failed { attempts: 1 },
            WatchdogVerdict::Healthy
        ]
    );
    // Shard 1 dies after its burst, and a job is queued while it is down.
    daemon.crash_shard(1, 1).unwrap();
    assert!(matches!(
        handles[1].submit(env(1, 1.0)),
        Ok(Submission::Queued { .. })
    ));
    let verdicts = daemon.watchdog_sweep().unwrap();
    assert_eq!(verdicts[0], WatchdogVerdict::Failed { attempts: 2 });
    assert!(
        matches!(
            verdicts[1],
            WatchdogVerdict::Recovered {
                attempts: 1,
                report: _
            }
        ),
        "shard 1 was not recovered: {verdicts:?}"
    );
    daemon
        .wait_events(1, 2, Duration::from_secs(10))
        .expect("shard 1's queued job is decided");
    assert!(matches!(
        handles[0].submit(env(2, 2.0)),
        Err(IngressError::ShuttingDown)
    ));
    assert_eq!(
        ALWAYS_MARK_PANICS.load(Ordering::SeqCst),
        3,
        "shard 0's feed and two replays"
    );
    assert!(
        daemon.shutdown().is_err(),
        "a shard left down must fail the shutdown"
    );
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

/// The service summary of a real run survives its JSON round-trip: the
/// exported document parses, and reads back the run's counts.
#[test]
fn service_summary_round_trips_through_json() {
    let stream = lifecycle_stream(32);
    let report = run_with_lifecycle(lifecycle_config(), &stream, |daemon| {
        daemon.handoff_shard(0).unwrap();
    });
    let summary = report.summary();
    let json = JsonValue::parse(&summary.to_json()).unwrap();
    let shard = &json.get("shards").and_then(JsonValue::as_array).unwrap()[0];
    let count = |key: &str| shard.get(key).and_then(JsonValue::as_u64);
    assert_eq!(count("arrivals"), Some(32));
    assert_eq!(count("handoffs"), Some(1));
    assert_eq!(
        count("max_queue_depth"),
        Some(summary.shards[0].max_queue_depth)
    );
    assert_eq!(
        count("peak_queue_depth"),
        Some(summary.shards[0].peak_queue_depth)
    );
    let handoffs = json
        .get("drain")
        .and_then(|drain| drain.get("handoff_secs"))
        .and_then(JsonValue::as_array);
    assert_eq!(handoffs.map(<[JsonValue]>::len), Some(1));
}
