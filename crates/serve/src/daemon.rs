//! The ingestion daemon: sharded worker threads draining lock-free arrival
//! queues into long-running [`OnlineScheduler`] runs, with dual-price
//! backpressure at admission and a checkpointed crash / hand-off / drain
//! lifecycle.
//!
//! # Architecture
//!
//! ```text
//! TenantHandle ──submit()──▶ admission gates ──▶ ArrivalQueue ─┐  (shard 0)
//! TenantHandle ──submit()──▶ (validate, stale,                 ├─▶ worker ─▶ A::Run
//!    ...                      quota, dual price)               │   thread
//! TenantHandle ──────────────────────────────▶ ArrivalQueue ───┘  (shard 1) ...
//! ```
//!
//! Each shard has one worker thread, which owns a [`pss_sim::ShardCore`]
//! around the shard's scheduler run.  The worker drains its queue in
//! bounded chunks, cuts each chunk into *bursts* with the same
//! maximal-run rule as `pss_sim::coalesce_arrivals` (releases within
//! `coalesce_window` of the burst's first), and feeds each burst through
//! the core, which makes one [`OnlineScheduler::on_arrivals`] call per
//! burst — so a b-job burst costs one replan instead of b, automatically,
//! exactly when load is high enough for the queue to hold a backlog.  The
//! core applies the same arrival rules as the simulator (release floor,
//! expiry, one decision per job, the price fold), so a shard decides what
//! `pss_sim::StreamingSimulation` decides on the stream it fed.  Dense
//! [`JobId`]s are assigned in feed order, making each shard's fed stream a
//! valid standalone instance.
//!
//! Between batches the worker stays *hot* for a moment: after a round
//! that fed a batch it polls its queue for up to `HOT_SPIN` (tens of µs)
//! before it parks for `IDLE_PARK`.  In the paper's online model every job
//! is decided when it arrives, so a caller typically submits, waits for
//! the decision and submits the next job a few µs later.  A parked worker
//! makes each such round trip pay a futex wake in the submitter's
//! `unpark` and a scheduler wake-up in the worker, which cost more than
//! PD's own arrival; a polling worker finds the next job in the queue, and
//! the `unpark` only leaves a token.  Each fed batch buys at most one
//! window, and a worker whose last round fed nothing parks at once.  The
//! spin also runs only while the shards leave a CPU for the producers
//! (`shards < available_parallelism()`, read once at spawn): with as many
//! shards as CPUs the hot workers and the callers compete for the CPUs,
//! and a spinning worker can starve the very thread it waits for (see
//! `HotSpin` for the measurements), so those services keep the park-only
//! loop.
//!
//! # Backpressure
//!
//! The duals the scheduler emits (λ_j on acceptance, the lost value v_j on
//! rejection) are folded into a per-shard rolling EWMA — the *price* —
//! decision by decision, so a shard drowning in rejections *raises* its
//! published price instead of freezing it (the rule lives in
//! [`pss_sim::ShardCore::feed`]).
//! Admission compares the price against `min(tenant price ceiling, job
//! value)`: a submission whose declared value cannot cover the current
//! marginal price is deferred (retryable) or rejected at the boundary,
//! per the tenant's [`BackpressurePolicy`],
//! before it ever loads the scheduler.  Ahead of the price gate sit the
//! cheaper gates: model-field validation, the staleness window, the
//! tenant's outstanding-jobs quota and the bounded queue itself.
//!
//! # Lifecycle and determinism
//!
//! A shard's arrival journal fixes its run, and it is the one queue the
//! run is fed from.  Every drained envelope is journalled before any burst
//! of its chunk is fed, in the same journal-lock hold, and the worker and
//! recovery feed the journal through one path (`feed_batch`).  So a worker
//! that dies inside a chunk (a feed error, an injected fault, a panic in
//! the run) loses nothing it acknowledged: recovery feeds what it left.
//!
//! Workers act on lifecycle signals (crash injection, hand-off, shutdown)
//! only at *quiescent batch boundaries*, with every journalled burst fed.
//! A hot spin that sees an arrival returns to that boundary before it
//! drains, so pauses, crashes and hand-offs land exactly where they did
//! for a parked worker.  The shard's [`pss_sim::CheckpointChain`] holds
//! its segment log and its checkpoints, under the journal lock: the
//! segments each batch *committed* are synced into the log, and every
//! `checkpoint_every` batches the worker captures its run into the chain,
//! which retains the `checkpoint_chain` newest.  A checkpoint holds only
//! the run's *live* state plus a log cursor — O(active) bytes, independent
//! of how long the shard has been fed.
//!
//! Recovery takes the run from the newest checkpoint that decodes against
//! the log (a corrupted checkpoint costs replay length, not the shard),
//! rewinds the shard's record to it, and feeds the journal's bursts after
//! it — reproducing the pre-crash decisions bit-for-bit, because every
//! run's restore is bit-identical and the journal fixes feed times and id
//! assignment.  If the whole chain is corrupt, the run restarts cold and
//! the full journal replays: the journal is the source of truth,
//! checkpoints only shorten replay.  A recovery that fails, its replay
//! panicking included, poisons the shard, so admission bounces until a
//! later one succeeds.  A hand-off is
//! the graceful special case: checkpoint at the boundary, exit, ship the
//! `(log tail, blob)` pair, restore on a fresh thread with an empty delta.
//! A `watchdog_sweep` on the control plane reaps dead workers (injected
//! crashes, poisoned runs) and auto-recovers them with capped consecutive
//! attempts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// All shared-state atomics go through the `pss_check` facade: identical
// `std` re-exports in normal builds, model-checked replacements under
// `--cfg pss_model_check`.  This file and `queue.rs` are the only places
// outside the facade allowed to spell `Ordering::` (enforced by
// `pss-lint`); every use below carries its ordering contract in a
// comment.
use pss_check::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use pss_metrics::DrainSummary;
use pss_sim::{burst_len, CheckpointChain, FeedRecord, ShardCore, PRICE_SMOOTHING};
use pss_types::{
    IngressError, JobEnvelope, JobId, LogCheckpointable, OnlineAlgorithm, OnlineScheduler,
    Schedule, ScheduleError, TenantId,
};

use crate::queue::{ring_capacity, ArrivalQueue};
use crate::report::{ServiceReport, ShardReport};
use crate::tenant::{BackpressurePolicy, TenantSpec, TenantState};

/// How long an idle worker parks between queue polls.  Bounded parking
/// (rather than unbounded park/unpark handshakes) keeps the loop correct
/// even if an unpark races worker startup.  A worker that just fed a batch
/// first polls for [`HOT_SPIN`]; one whose last round fed nothing parks
/// straight away, so an idle worker still wakes only once per park.
const IDLE_PARK: Duration = Duration::from_micros(100);

/// How long a worker that just fed a batch polls its queue before it
/// parks.  A closed-loop caller comes back with its next job within a few
/// µs of seeing a decision, so the window has to outlast one such round
/// trip and no more: a few tens of µs, well under [`IDLE_PARK`].  On
/// serve-pd (one shard, a 2-vCPU x86_64 guest) a 10 µs window gained as
/// much as 50 µs on four seeds of six and less on the other two; the
/// longer one leaves slack for a caller descheduled between submissions.
const HOT_SPIN: Duration = Duration::from_micros(50);

/// The hot hand-off rule: how long the worker polls its queue before it
/// parks.  It spins only right after a round that fed a batch, and only
/// while the service's shards leave at least one CPU to the producers;
/// otherwise the window is zero and the worker parks at once.
///
/// Each fed batch buys at most one window: taking it clears the flag.  So
/// a poll that saw the queue non-empty but whose drain then got nothing (a
/// producer that claimed its slot and has not yet published it) ends in a
/// park, not in another spin.
///
/// The CPU rule is measured, on a 2-vCPU x86_64 guest with PD, 20 seeds
/// per shape, spinning forced on against this rule's park: with two
/// shards, one caller alternating its jobs between them lost 60% of its
/// throughput, and E17's routed free-running ingest over four shards lost
/// 23% (neither faster on any seed; over two shards it was a tie); two
/// callers on two shards doubled in the median but fell to a third of the
/// parked rate on 4 seeds of 20.  Only a lone caller on one shard of two
/// gained throughout (2.1x), and the rule gives that up.  With one shard
/// the rule spins: 1.6–1.8x on the same host.
#[derive(Debug)]
struct HotSpin {
    /// Whether the shards leave a CPU to spare: `shards < cpus`.
    allowed: bool,
    /// Whether a batch was fed since the last window was taken.
    fed: bool,
}

impl HotSpin {
    fn new(shards: usize, cpus: usize) -> Self {
        Self {
            allowed: shards < cpus,
            fed: false,
        }
    }

    /// Records a fed batch.
    fn fed(&mut self) {
        self.fed = true;
    }

    /// The window to poll for now: [`HOT_SPIN`] once per fed batch,
    /// otherwise zero.
    fn take_window(&mut self) -> Duration {
        if std::mem::take(&mut self.fed) && self.allowed {
            HOT_SPIN
        } else {
            Duration::ZERO
        }
    }
}

/// How long the crate's wave-stepped drivers (the chaos engine and the
/// stream router) wait for any single worker transition.
pub(crate) const WAIT_LIMIT: Duration = Duration::from_secs(30);

/// Yields until `done` holds, or fails once `deadline` has passed; `what`
/// names the awaited transition in the error.
fn wait_until(
    deadline: Instant,
    what: impl FnOnce() -> String,
    mut done: impl FnMut() -> bool,
) -> Result<(), ScheduleError> {
    while !done() {
        if Instant::now() > deadline {
            return Err(ScheduleError::Internal(format!(
                "timed out waiting for {}",
                what()
            )));
        }
        pss_check::thread::yield_now();
    }
    Ok(())
}

/// Polls `queue` for up to `window`: true as soon as it holds an arrival,
/// false once the window has run out (at once for a zero window).
fn poll_for_arrival<T>(queue: &ArrivalQueue<T>, window: Duration) -> bool {
    if window.is_zero() {
        return false;
    }
    let deadline = Instant::now() + window;
    loop {
        if !queue.is_empty() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        pss_check::hint::spin_loop();
    }
}

/// Static configuration of a service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Machines per shard run.
    pub machines: usize,
    /// Energy exponent α > 1.
    pub alpha: f64,
    /// Number of shards (independent queues, workers and scheduler runs).
    pub shards: usize,
    /// Capacity of each shard's arrival queue (rounded up to a power of
    /// two).  A full queue is the outermost backpressure layer.
    pub queue_capacity: usize,
    /// Burst-coalescing window: consecutive drained arrivals whose releases
    /// lie within this window of a burst's first are fed as one batch.
    /// `0.0` feeds every arrival individually.
    pub coalesce_window: f64,
    /// Most arrivals a worker drains from its queue per chunk.
    pub max_batch: usize,
    /// Checkpoint the run every this many ingestion batches (`0` keeps
    /// only the initial checkpoint).
    pub checkpoint_every: usize,
    /// How many checkpoints each shard retains (a bounded *chain*, newest
    /// last).  Recovery restores from the newest blob that decodes and
    /// replays the correspondingly longer journal delta, so a corrupted
    /// latest checkpoint degrades replay cost instead of killing the
    /// shard.  Must be at least 1.
    pub checkpoint_chain: usize,
    /// How many consecutive automatic recoveries [`Daemon::watchdog_sweep`]
    /// attempts per shard before giving up (the verdict turns into
    /// [`WatchdogVerdict::GaveUp`]).  Must be at least 1.  A sweep that
    /// finds the shard healthy resets the counter.
    pub max_recovery_attempts: usize,
    /// EWMA weight β ∈ (0, 1] of the rolling dual price:
    /// `price ← (1-β)·price + β·dual` per decision.
    pub price_smoothing: f64,
    /// How far a submission's release may lie behind the shard's feed
    /// watermark and still be admitted; beyond it the submission is
    /// rejected as stale.  `f64::INFINITY` (the default) never rejects on
    /// lateness alone — late jobs are fed at the watermark.  Independent
    /// of the tolerance, a job whose *deadline* the watermark has already
    /// passed is rejected as expired (dead on arrival), and one whose
    /// deadline the watermark overtakes while it waits in the queue is
    /// rejected at feed time without being shown to the scheduler.
    pub stale_tolerance: f64,
    /// Start with ingestion paused (workers park, queues fill).  Used by
    /// deterministic tests to control batching; [`Daemon::resume`] unpauses.
    pub start_paused: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            machines: 1,
            alpha: 2.0,
            shards: 1,
            queue_capacity: 1024,
            coalesce_window: 0.0,
            max_batch: 256,
            checkpoint_every: 64,
            checkpoint_chain: 4,
            max_recovery_attempts: 3,
            price_smoothing: PRICE_SMOOTHING,
            stale_tolerance: f64::INFINITY,
            start_paused: false,
        }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), ScheduleError> {
        let bad = |msg: String| Err(ScheduleError::Internal(msg));
        if self.machines == 0 {
            return bad("service needs at least one machine".into());
        }
        if !(self.alpha.is_finite() && self.alpha > 1.0) {
            return bad(format!(
                "energy exponent must be finite and > 1, got {}",
                self.alpha
            ));
        }
        if self.shards == 0 {
            return bad("service needs at least one shard".into());
        }
        ring_capacity(self.queue_capacity)?;
        if self.max_batch == 0 {
            return bad("max_batch must be positive".into());
        }
        if self.checkpoint_chain == 0 {
            return bad("checkpoint_chain must retain at least one checkpoint".into());
        }
        if self.max_recovery_attempts == 0 {
            return bad("max_recovery_attempts must be positive".into());
        }
        if !(self.price_smoothing > 0.0 && self.price_smoothing <= 1.0) {
            return bad(format!(
                "price_smoothing must lie in (0, 1], got {}",
                self.price_smoothing
            ));
        }
        if self.coalesce_window.is_nan() || self.coalesce_window < 0.0 {
            return bad(format!(
                "coalesce_window must be nonnegative, got {}",
                self.coalesce_window
            ));
        }
        if self.stale_tolerance.is_nan() || self.stale_tolerance < 0.0 {
            return bad(format!(
                "stale_tolerance must be nonnegative, got {}",
                self.stale_tolerance
            ));
        }
        Ok(())
    }
}

/// Outcome of a successful [`TenantHandle::submit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Submission {
    /// The envelope entered the shard's arrival queue and will be fed to
    /// the scheduler.
    Queued {
        /// The shard that queued it.
        shard: usize,
    },
    /// Dual-price backpressure rejected the job at admission under the
    /// tenant's [`Reject`](BackpressurePolicy::Reject) policy; its value is
    /// booked as lost.  (This is an `Ok` outcome: the service did exactly
    /// what the tenant's policy asked for.)
    RejectedByPrice {
        /// The rolling dual price that triggered the rejection.
        price: f64,
    },
}

/// Statistics of one recovery ([`Daemon::recover_shard`]) or hand-off
/// ([`Daemon::handoff_shard`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryReport {
    /// Journal batches replayed on top of the restored checkpoint, counting
    /// those a worker that died inside a drained chunk journalled unfed.
    pub replayed_batches: usize,
    /// Wall-clock seconds from the request to the fresh worker running.
    pub recovery_secs: f64,
    /// Checkpoints in the chain that failed to decode and were skipped
    /// (newest first) before one restored.
    pub chain_skipped: usize,
    /// Every checkpoint in the chain was undecodable, so the run was
    /// rebuilt from scratch and the *entire* journal replayed.
    pub cold_restart: bool,
}

/// What [`Daemon::watchdog_sweep`] found (and did) for one shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WatchdogVerdict {
    /// The worker is alive (running, parked or draining) — nothing to do.
    Healthy,
    /// The worker was dead (injected crash, poisoned run, or a previous
    /// give-up) and was restored; `attempts` counts the consecutive
    /// automatic recoveries for this shard including this one.
    Recovered {
        /// The recovery statistics.
        report: RecoveryReport,
        /// Consecutive automatic recovery attempts, including this one.
        attempts: usize,
    },
    /// The worker was dead and this sweep's recovery failed (its replay
    /// panicking included).  The shard stays down and poisoned, and
    /// [`Daemon::shutdown`] returns the error; a later sweep tries again
    /// until the attempts run out.
    Failed {
        /// Consecutive automatic recovery attempts, including this one.
        attempts: usize,
    },
    /// The worker was dead but the shard already exhausted
    /// [`ServeConfig::max_recovery_attempts`] consecutive recoveries; the
    /// shard is left down for the operator.
    GaveUp {
        /// Consecutive automatic recovery attempts already spent.
        attempts: usize,
    },
}

/// Everything a shard's worker writes: the arrival journal the run is fed
/// from, the record of what the run decided, and the lifecycle outcome.
#[derive(Debug)]
struct ShardJournal {
    /// Every envelope the worker drained, in drain order; envelope k is fed
    /// as dense job k.  Never truncated: with `bursts` it fixes the run.
    envelopes: Vec<JobEnvelope>,
    /// One `(feed time, end)` per burst cut from `envelopes`, in feed
    /// order: a burst's envelopes run from the previous burst's end to its
    /// own.  The run has fed the first `ShardCore::state().batches`.
    bursts: Vec<(f64, usize)>,
    /// What the shard's core decided for each fed envelope, at the
    /// envelope's index, and the price after each fed burst.
    record: FeedRecord,
    depth_samples: Vec<usize>,
    /// The shard's segment log and its bounded checkpoint chain: synced
    /// after every fed batch and captured on the checkpoint cadence, both
    /// under this lock.  A checkpoint's event count indexes the record's
    /// jobs, and its batch count indexes `bursts`.
    chain: CheckpointChain,
    handoff_secs: Vec<f64>,
    drain_secs: f64,
    finished: Option<Schedule>,
    failed: Option<ScheduleError>,
    crashed: bool,
}

impl ShardJournal {
    fn new(machines: usize, retain: usize) -> Self {
        Self {
            envelopes: Vec::new(),
            bursts: Vec::new(),
            record: FeedRecord::default(),
            depth_samples: Vec::new(),
            chain: CheckpointChain::new(machines, retain),
            handoff_secs: Vec::new(),
            drain_secs: 0.0,
            finished: None,
            failed: None,
            crashed: false,
        }
    }

    /// Journals a drained chunk, leaving `chunk` empty: appends its
    /// envelopes and cuts them into bursts by the rule of
    /// `pss_sim::coalesce_arrivals` ([`burst_len`]; `window == 0` yields
    /// singletons).  A burst is fed at its largest release, or at the
    /// previous burst's feed time if that is later, so late (stale-admitted)
    /// jobs are fed at the watermark and feed times never decrease.
    fn append(&mut self, chunk: &mut Vec<JobEnvelope>, window: f64) {
        let mut start = self.envelopes.len();
        self.envelopes.append(chunk);
        while start < self.envelopes.len() {
            let rest = self.envelopes[start..].iter().map(|e| e.release);
            let end = start + burst_len(rest, window);
            let releases = self.envelopes[start..end].iter().map(|e| e.release);
            let release_max = releases.fold(f64::NEG_INFINITY, f64::max);
            let previous = self.bursts.last().map_or(f64::NEG_INFINITY, |b| b.0);
            self.bursts.push((previous.max(release_max), end));
            start = end;
        }
    }

    /// Captures the core's run into the chain, at the journal's event count
    /// and the feed time of the run's last burst (`-inf` before the first).
    fn capture<R>(&mut self, core: &ShardCore<R>) -> Result<(), ScheduleError>
    where
        R: OnlineScheduler + LogCheckpointable,
    {
        let last = core.state().batches.checked_sub(1);
        let time = last.map_or(f64::NEG_INFINITY, |b| self.bursts[b].0);
        self.chain.capture(core, self.record.jobs.len(), time)
    }
}

/// Shared per-shard state: the queue, the published backpressure signals
/// and the journal.
#[derive(Debug)]
struct ShardShared {
    shard: usize,
    queue: ArrivalQueue<JobEnvelope>,
    /// Submissions currently inside `submit()` for this shard; a draining
    /// worker finishes only when this reaches zero, closing the race
    /// between a final push and the shutdown check.
    submitting: AtomicUsize,
    /// True maximum queue depth ever reached, bumped by producers at every
    /// successful push (`fetch_max`).  The journal's `depth_samples` are
    /// taken only at drain points, so a transient storm that builds and
    /// drains between two drains would otherwise under-report — this
    /// counter is the storm-proof bound E17's imbalance column needs.
    /// Relaxed: a monotone max carries no ordering obligations.
    peak_depth: AtomicUsize,
    /// The rolling dual price, published as f64 bits.
    price_bits: AtomicU64,
    /// The shard's feed watermark (last feed time), published as f64 bits.
    watermark_bits: AtomicU64,
    /// Crash injection: the worker exits (without checkpointing) at the
    /// first quiescent boundary with `batches_done >= crash_at`.
    crash_at: AtomicUsize,
    /// Fault injection: the worker poisons the shard *instead of* feeding
    /// the journalled batch numbered `fail_feed_at` — modelling a transient
    /// feed failure after the durable journal write.  Recovery feeds that
    /// batch and the rest of its chunk successfully, so the merged outcome
    /// is bit-identical to a fault-free run.  `usize::MAX` (the default)
    /// never fires; the hook is one relaxed-free load per batch when
    /// disabled.
    fail_feed_at: AtomicUsize,
    /// Bumped every time the worker parks at a quiescent boundary while
    /// the service is paused.  Deterministic drivers (the chaos engine)
    /// wait for a bump after pausing to know the worker holds no
    /// drained-but-unfed arrivals.
    idle_epoch: AtomicU64,
    /// Consecutive automatic recoveries by the watchdog; reset when a
    /// sweep finds the shard healthy.
    recovery_attempts: AtomicUsize,
    /// Hand-off request: the worker checkpoints at the next quiescent
    /// boundary and exits.
    handoff: AtomicBool,
    /// Raised when the shard's run was poisoned by an ingestion error (the
    /// worker exits, surfacing the error at shutdown).  Admission bounces
    /// new submissions instead of letting producers spin on a queue no
    /// worker will ever drain.
    failed: AtomicBool,
    /// The live worker thread, for unparking.
    worker: Mutex<Option<std::thread::Thread>>,
    journal: Mutex<ShardJournal>,
}

impl ShardShared {
    fn new(shard: usize, config: &ServeConfig) -> Result<Self, ScheduleError> {
        Ok(Self {
            shard,
            queue: ArrivalQueue::with_capacity(config.queue_capacity)?,
            submitting: AtomicUsize::new(0),
            peak_depth: AtomicUsize::new(0),
            price_bits: AtomicU64::new(0.0_f64.to_bits()),
            watermark_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            crash_at: AtomicUsize::new(usize::MAX),
            fail_feed_at: AtomicUsize::new(usize::MAX),
            idle_epoch: AtomicU64::new(0),
            recovery_attempts: AtomicUsize::new(0),
            handoff: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            worker: Mutex::new(None),
            journal: Mutex::new(ShardJournal::new(config.machines, config.checkpoint_chain)),
        })
    }

    // Ordering contract for the published signals: the worker stores both
    // with `Release` after updating the journal under its mutex, and
    // admission reads them with `Acquire`.  Each signal is a single
    // `AtomicU64` of f64 bits, so a read is never torn — it is some value
    // the worker actually published — and the acquire edge makes the
    // batch that produced it (journal entries, watermark advance) visible
    // to the reader.
    fn price(&self) -> f64 {
        f64::from_bits(self.price_bits.load(Ordering::Acquire))
    }

    fn watermark(&self) -> f64 {
        f64::from_bits(self.watermark_bits.load(Ordering::Acquire))
    }

    fn unpark_worker(&self) {
        if let Some(t) = self.worker().as_ref() {
            t.unpark();
        }
    }

    /// The journal, even if a worker panicked while holding it: such a
    /// worker is dead like a crashed one, and recovery truncates the
    /// journal's record to the restored checkpoint and feeds the bursts
    /// after it, so whatever it half-wrote is never read.
    fn journal(&self) -> MutexGuard<'_, ShardJournal> {
        self.journal.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Poisons the shard with `error`: the journal keeps it for shutdown to
    /// return, and admission bounces until a recovery succeeds.  Takes the
    /// journal because its lock must be held: recovery clears both under
    /// that lock, so it cannot hide a failure of the worker it starts.
    fn poison(&self, journal: &mut ShardJournal, error: ScheduleError) {
        journal.failed = Some(error);
        self.failed.store(true, Ordering::Release);
    }

    /// The live worker's handle, poison-tolerant like
    /// [`journal`](Self::journal).
    fn worker(&self) -> MutexGuard<'_, Option<std::thread::Thread>> {
        self.worker.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// State shared between the daemon, the tenant handles and the workers.
#[derive(Debug)]
struct ServiceShared {
    config: ServeConfig,
    /// The CPUs available to the process, read once at spawn (1 when the
    /// count is unknown): the hot hand-off rule's input.  The probe parses
    /// cgroup files (20–80 µs on a 2-vCPU Linux guest), so workers started
    /// per shard, hand-off and recovery read this copy instead.
    cpus: usize,
    shutdown: AtomicBool,
    paused: AtomicBool,
    tenants: Vec<TenantState>,
    shards: Vec<Arc<ShardShared>>,
}

/// A tenant's submission capability.  Cloneable and sendable: a tenant may
/// submit from as many threads as it likes; the handle *is* the identity
/// (the envelope's `tenant` field is overwritten with the handle's).
#[derive(Debug, Clone)]
pub struct TenantHandle {
    inner: Arc<ServiceShared>,
    tenant: TenantId,
}

impl TenantHandle {
    /// The tenant this handle submits as.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The shard this tenant's submissions enter.
    pub fn shard(&self) -> usize {
        self.inner.tenants[self.tenant.index()].spec.shard
    }

    /// The feed watermark of this tenant's shard (the time of its last
    /// ingestion batch; `-inf` before the first).  Tenants producing from a
    /// replayed or simulated clock pace against this to keep their releases
    /// near the shard's virtual time — submissions whose deadlines fall
    /// behind it are rejected as expired.
    pub fn watermark(&self) -> f64 {
        self.inner.shards[self.shard()].watermark()
    }

    /// Submits an envelope through the admission gates, in order: shutdown,
    /// model-field validity, staleness and expiry against the shard
    /// watermark, the dual-price gate, the outstanding-jobs quota, and
    /// finally the bounded queue.  Returns where the submission ended up,
    /// or the typed gate that stopped it — never panics, never poisons the
    /// scheduler run.
    pub fn submit(&self, mut envelope: JobEnvelope) -> Result<Submission, IngressError> {
        envelope.tenant = self.tenant;
        let state = &self.inner.tenants[self.tenant.index()];
        let shard = &self.inner.shards[state.spec.shard];
        // Announce the in-flight submission before the shutdown check, so
        // a draining worker that sees the flag raised always waits for us.
        //
        // Ordering contract: both RMWs are `AcqRel` so the counter's
        // modification order carries synchronisation.  The increment's
        // acquire side pairs with the worker's probe (see the drain check
        // in `worker_loop`): if the probe read zero *after* shutdown was
        // observed, our increment comes later in the modification order
        // and its acquire edge makes the shutdown flag visible to the
        // `admit` call below, which then bounces.  The decrement's release
        // side publishes the queue push that `admit` performed, so a probe
        // that reads zero also observes every completed push.
        shard.submitting.fetch_add(1, Ordering::AcqRel);
        let result = self.admit(state, shard, envelope);
        shard.submitting.fetch_sub(1, Ordering::AcqRel);
        if matches!(result, Ok(Submission::Queued { .. })) {
            shard.unpark_worker();
        }
        result
    }

    fn admit(
        &self,
        state: &TenantState,
        shard: &ShardShared,
        envelope: JobEnvelope,
    ) -> Result<Submission, IngressError> {
        if self.inner.shutdown.load(Ordering::Acquire) || shard.failed.load(Ordering::Acquire) {
            return Err(IngressError::ShuttingDown);
        }
        state.submitted.incr();
        envelope.validate().inspect_err(|_| {
            state.rejected_invalid.incr();
        })?;
        let watermark = shard.watermark();
        let tolerance = self.inner.config.stale_tolerance;
        if envelope.release < watermark - tolerance {
            state.rejected_stale.incr();
            return Err(IngressError::Stale {
                tenant: self.tenant,
                tag: envelope.tag,
                release: envelope.release,
                watermark,
                tolerance,
            });
        }
        // Dead on arrival: the job would be fed no earlier than the
        // watermark, past its own deadline.  (A job can still *expire in
        // the queue* if the watermark overtakes it before feeding — the
        // worker then synthesises the rejection at feed time.)
        if envelope.deadline <= watermark {
            state.rejected_stale.incr();
            return Err(IngressError::Expired {
                tenant: self.tenant,
                tag: envelope.tag,
                deadline: envelope.deadline,
                watermark,
            });
        }
        let price = shard.price();
        let threshold = state.spec.price_ceiling.min(envelope.value);
        if price > threshold {
            return match state.spec.policy {
                BackpressurePolicy::Defer => {
                    state.deferred.incr();
                    Err(IngressError::Backpressure {
                        tenant: self.tenant,
                        price,
                        threshold,
                    })
                }
                BackpressurePolicy::Reject => {
                    state.rejected_by_price.incr();
                    state.add_lost_value(envelope.value);
                    Ok(Submission::RejectedByPrice { price })
                }
            };
        }
        // The gauge's atomic increment *reserves* the quota slot (it
        // returns the previous value), so concurrent submitters cannot
        // jointly overshoot; failed gates release the reservation.
        let outstanding = state.outstanding.incr();
        if outstanding >= state.spec.quota {
            state.outstanding.decr();
            state.quota_exceeded.incr();
            return Err(IngressError::QuotaExceeded {
                tenant: self.tenant,
                limit: state.spec.quota,
            });
        }
        if shard.queue.push(envelope).is_err() {
            state.outstanding.decr();
            state.queue_full.incr();
            return Err(IngressError::QueueFull {
                shard: state.spec.shard,
                capacity: shard.queue.capacity(),
            });
        }
        shard
            .peak_depth
            .fetch_max(shard.queue.len(), Ordering::Relaxed);
        Ok(Submission::Queued {
            shard: state.spec.shard,
        })
    }
}

/// Feeds the journal's first unfed burst, the one numbered by the core's
/// batch count, through the shard's core into the journal's record, then
/// syncs the segment log and publishes the price and watermark.  The live
/// worker and the recovery replay both feed the journal through this,
/// which is what makes replay bit-identical.
///
/// A job that *expired in the queue* (admitted in time, then overtaken by
/// the watermark) is rejected by the core at its value without reaching
/// the run, and its entry is marked expired; the run is never poisoned by
/// it.
fn feed_batch<R: OnlineScheduler>(
    core: &mut ShardCore<R>,
    shard: &ShardShared,
    journal: &mut ShardJournal,
) -> Result<(), ScheduleError> {
    let (feed_time, end) = journal.bursts[core.state().batches];
    // Every earlier burst is fed, so this one starts at the first envelope
    // without a job, and envelope k is fed as dense job k.
    let base = journal.record.jobs.len();
    let envelopes = journal.envelopes[base..end].iter().zip(base..);
    let burst = envelopes.map(|(e, k)| (e.job(JobId(k)), e.tag));
    core.feed(&mut journal.record, burst, feed_time)?;
    // The run's frontier just grew by this batch's committed segments;
    // mirror the delta into the shard's segment log.  Recovery replays
    // through this same path, so a restored shard rebuilds the identical
    // log.
    journal.chain.sync(core)?;
    // `Release` publication: an admission thread that acquires either
    // signal also sees this batch's journal updates (see the contract on
    // `ShardShared::price`).  The watermark is stored after the price so a
    // tenant pacing on the watermark never sees a price older than it.
    shard
        .price_bits
        .store(core.price().to_bits(), Ordering::Release);
    shard
        .watermark_bits
        .store(feed_time.to_bits(), Ordering::Release);
    Ok(())
}

fn spawn_worker<R>(
    shared: Arc<ServiceShared>,
    shard: Arc<ShardShared>,
    core: ShardCore<R>,
) -> Result<JoinHandle<()>, ScheduleError>
where
    R: OnlineScheduler + LogCheckpointable + Send + 'static,
{
    let index = shard.shard;
    std::thread::Builder::new()
        .name(format!("pss-serve-{index}"))
        .spawn(move || worker_loop(shared, shard, core))
        .map_err(|e| {
            ScheduleError::Internal(format!(
                "failed to spawn shard {index}'s worker thread: {e}"
            ))
        })
}

fn worker_loop<R: OnlineScheduler + LogCheckpointable>(
    shared: Arc<ServiceShared>,
    shard: Arc<ShardShared>,
    mut core: ShardCore<R>,
) {
    *shard.worker() = Some(std::thread::current());
    let config = shared.config;
    let mut drained: Vec<JobEnvelope> = Vec::new();
    let mut drain_from: Option<Instant> = None;
    let mut hot = HotSpin::new(config.shards, shared.cpus);
    loop {
        // A quiescent batch boundary: every journalled burst is fed.
        // Lifecycle signals are honoured only here.
        if core.state().batches >= shard.crash_at.load(Ordering::Acquire) {
            // Injected crash: die *without* checkpointing; the run's
            // in-memory state is lost with this thread.
            shard.journal().crashed = true;
            return;
        }
        // `AcqRel` swap: consume the request (release keeps the reset
        // ordered for a later requester; acquire pairs with the control
        // plane's `Release` store so its writes are visible).
        if shard.handoff.swap(false, Ordering::AcqRel) {
            let mut journal = shard.journal();
            if let Err(e) = journal.capture(&core) {
                shard.poison(&mut journal, e);
            }
            return;
        }
        if shared.paused.load(Ordering::Acquire) && !shared.shutdown.load(Ordering::Acquire) {
            // Publish that we parked at a quiescent boundary while paused:
            // a deterministic driver that paused the service and saw the
            // epoch advance knows every lifecycle signal above was checked
            // with every drained arrival fed.  `AcqRel` so the bump orders
            // after the signal checks for the driver's `Acquire` read.
            shard.idle_epoch.fetch_add(1, Ordering::AcqRel);
            std::thread::park_timeout(IDLE_PARK);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) && drain_from.is_none() {
            drain_from = Some(Instant::now());
        }
        let depth = shard.queue.len();
        shard.peak_depth.fetch_max(depth, Ordering::Relaxed);
        if shard.queue.drain_into(&mut drained, config.max_batch) == 0 {
            // Drain-completion check.  Probe `submitting` FIRST, with an
            // `AcqRel` RMW (not a plain load): an RMW always reads the
            // latest value in the counter's modification order, and its
            // release side means any submitter whose increment lands
            // *after* this probe synchronises with it — having already
            // observed `shutdown` (which happened-before the probe via our
            // acquire load above), that submitter bounces in `admit` and
            // never pushes.  A probe of zero also observes every completed
            // push, because each submitter's `AcqRel` decrement released
            // its push into the RMW chain the probe acquires.  Only then
            // re-check the queue: any push the probe admitted is now
            // visible, so an empty queue here really is the last word.
            // (A plain `Acquire` load could miss a submitter that slipped
            // between the drain and the check, losing its final push — the
            // model checker's shutdown model catches exactly that
            // interleaving.)
            if shared.shutdown.load(Ordering::Acquire)
                && shard.submitting.fetch_add(0, Ordering::AcqRel) == 0
                && shard.queue.is_empty()
            {
                let started = drain_from.unwrap_or_else(Instant::now);
                let result = core.finish();
                let mut journal = shard.journal();
                journal.drain_secs = started.elapsed().as_secs_f64();
                match result {
                    Ok(schedule) => journal.finished = Some(schedule),
                    Err(e) => journal.failed = Some(e),
                }
                return;
            }
            // Hot hand-off: poll for the caller's next job before parking.
            // An arrival sends the worker back to the quiescent boundary
            // above, so every lifecycle signal is still checked before the
            // drain.
            if poll_for_arrival(&shard.queue, hot.take_window()) {
                continue;
            }
            std::thread::park_timeout(IDLE_PARK);
            continue;
        }
        for envelope in &drained {
            shared.tenants[envelope.tenant.index()].outstanding.decr();
        }
        // One journal-lock hold per chunk: journal all of it, then feed
        // it, so a worker that dies anywhere inside the chunk leaves every
        // envelope it acknowledged to recovery.
        let mut journal = shard.journal();
        journal.depth_samples.push(depth);
        journal.append(&mut drained, config.coalesce_window);
        while core.state().batches < journal.bursts.len() {
            let fed = if core.state().batches >= shard.fail_feed_at.load(Ordering::Acquire) {
                // Injected transient feed fault: the burst is journalled
                // but its feed "fails", poisoning the run exactly as a
                // real ingestion error would; recovery feeds it (and the
                // rest of the chunk) for a bit-identical merged outcome.
                shard.fail_feed_at.store(usize::MAX, Ordering::Release);
                Err(ScheduleError::Internal(
                    "injected transient feed fault".into(),
                ))
            } else {
                feed_batch(&mut core, &shard, &mut journal).and_then(|()| {
                    let every = config.checkpoint_every;
                    if every > 0 && core.state().batches.is_multiple_of(every) {
                        journal.capture(&core)
                    } else {
                        Ok(())
                    }
                })
            };
            if let Err(e) = fed {
                // A feed error or a failed capture poisons the run: surface
                // it at shutdown instead of panicking the worker, stop
                // admitting so producers don't spin on a dead queue, and
                // let the watchdog recover from the journal.
                shard.poison(&mut journal, e);
                return;
            }
            hot.fed();
        }
    }
}

/// A running multi-tenant ingestion service over online algorithm `A`.
///
/// Created by [`Daemon::spawn`]; submissions flow through the
/// [`TenantHandle`]s it returns.  The daemon object itself is the *control
/// plane*: lifecycle operations (crash injection, recovery, hand-off,
/// shutdown) and introspection (prices, queue depths).
pub struct Daemon<A: OnlineAlgorithm>
where
    A::Run: LogCheckpointable + Send + 'static,
{
    algorithm: A,
    inner: Arc<ServiceShared>,
    workers: Vec<Option<JoinHandle<()>>>,
}

impl<A> Daemon<A>
where
    A: OnlineAlgorithm,
    A::Run: LogCheckpointable + Send + 'static,
{
    /// Starts the service: one scheduler run and one worker thread per
    /// shard, plus one [`TenantHandle`] per registered tenant (in
    /// registration order).
    pub fn spawn(
        algorithm: A,
        config: ServeConfig,
        tenants: Vec<TenantSpec>,
    ) -> Result<(Self, Vec<TenantHandle>), ScheduleError> {
        config.validate()?;
        for (i, spec) in tenants.iter().enumerate() {
            if spec.shard >= config.shards {
                return Err(ScheduleError::Internal(format!(
                    "tenant {i} ({}) is placed on shard {} but the service has {} shard(s)",
                    spec.name, spec.shard, config.shards
                )));
            }
        }
        let inner = Arc::new(ServiceShared {
            config,
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            shutdown: AtomicBool::new(false),
            paused: AtomicBool::new(config.start_paused),
            tenants: tenants.into_iter().map(TenantState::new).collect(),
            shards: (0..config.shards)
                .map(|s| ShardShared::new(s, &config).map(Arc::new))
                .collect::<Result<_, _>>()?,
        });
        // The daemon exists before its first worker, so an error part-way
        // through drops it, and its `Drop` releases the workers already
        // started.
        let mut daemon = Self {
            algorithm,
            inner,
            workers: Vec::with_capacity(config.shards),
        };
        for shard in &daemon.inner.shards {
            let run = daemon.algorithm.start(config.machines, config.alpha)?;
            let core = ShardCore::new(run, config.price_smoothing);
            // An initial checkpoint makes recovery possible from batch 0.
            shard.journal().capture(&core)?;
            let worker = spawn_worker(Arc::clone(&daemon.inner), Arc::clone(shard), core)?;
            daemon.workers.push(Some(worker));
        }
        let handles = (0..daemon.inner.tenants.len())
            .map(|i| TenantHandle {
                inner: Arc::clone(&daemon.inner),
                tenant: TenantId(i as u32),
            })
            .collect();
        Ok((daemon, handles))
    }

    /// The algorithm's display name.
    pub fn algorithm_name(&self) -> String {
        self.algorithm.algorithm_name()
    }

    /// The service configuration.
    pub fn config(&self) -> ServeConfig {
        self.inner.config
    }

    /// A fresh handle for a registered tenant, or
    /// [`IngressError::UnknownTenant`] — the error-path twin of the handles
    /// [`spawn`](Self::spawn) returns.
    pub fn handle(&self, tenant: TenantId) -> Result<TenantHandle, IngressError> {
        if tenant.index() >= self.inner.tenants.len() {
            return Err(IngressError::UnknownTenant(tenant));
        }
        Ok(TenantHandle {
            inner: Arc::clone(&self.inner),
            tenant,
        })
    }

    /// Unpauses a service spawned with `start_paused` (or re-paused by
    /// [`pause`](Self::pause)).
    pub fn resume(&self) {
        self.inner.paused.store(false, Ordering::Release);
        for shard in &self.inner.shards {
            shard.unpark_worker();
        }
    }

    /// Pauses ingestion: workers park at their next quiescent boundary and
    /// queues fill.  Together with [`shard_idle_epoch`](Self::shard_idle_epoch)
    /// this lets a deterministic driver (the chaos engine) stage a wave of
    /// submissions while no worker drains, fixing the drain chunking —
    /// and therefore the batch structure — independent of producer timing.
    pub fn pause(&self) {
        self.inner.paused.store(true, Ordering::Release);
    }

    /// The shard's idle epoch: bumped every time its worker parks at a
    /// quiescent boundary while the service is paused.  After
    /// [`pause`](Self::pause), an epoch advance proves the worker is parked
    /// with nothing drained-but-unfed in hand.
    pub fn shard_idle_epoch(&self, shard: usize) -> u64 {
        // `Acquire` pairs with the worker's `AcqRel` bump.
        self.inner.shards[shard].idle_epoch.load(Ordering::Acquire)
    }

    /// How many decisions the shard has recorded so far.  A driver that
    /// knows how many envelopes it queued polls this to detect that the
    /// worker has fed them all.
    pub fn shard_event_count(&self, shard: usize) -> usize {
        self.inner.shards[shard].journal().record.events.len()
    }

    /// Waits until every shard's worker has parked at a quiescent boundary
    /// since the call (an advance of each [`shard_idle_epoch`](Self::shard_idle_epoch)),
    /// or fails once `limit` has passed.  After [`pause`](Self::pause), this
    /// proves no worker holds drained-but-unfed arrivals.
    pub fn wait_parked(&self, limit: Duration) -> Result<(), ScheduleError> {
        let deadline = Instant::now() + limit;
        let shards = 0..self.inner.shards.len();
        let epochs: Vec<u64> = shards.map(|s| self.shard_idle_epoch(s)).collect();
        for (shard, &epoch) in epochs.iter().enumerate() {
            wait_until(
                deadline,
                || format!("shard {shard} to park"),
                || self.shard_idle_epoch(shard) != epoch,
            )?;
        }
        Ok(())
    }

    /// Waits until the shard has journalled at least `expected` decision
    /// events, or fails once `limit` has passed.
    pub fn wait_events(
        &self,
        shard: usize,
        expected: usize,
        limit: Duration,
    ) -> Result<(), ScheduleError> {
        wait_until(
            Instant::now() + limit,
            || format!("{expected} events on shard {shard}"),
            || self.shard_event_count(shard) >= expected,
        )
    }

    /// The shard's current rolling dual price (the backpressure signal).
    pub fn shard_price(&self, shard: usize) -> f64 {
        self.inner.shards[shard].price()
    }

    /// The shard's segment-log end cursor (realised segments) and live
    /// record-envelope count — introspection for the checkpoint drills
    /// and E18 (compaction keeps the envelope count O(retained chain)).
    pub fn shard_log_stats(&self, shard: usize) -> (u64, usize) {
        let journal = self.inner.shards[shard].journal();
        let log = journal.chain.log();
        (log.cursor().segments(), log.record_count())
    }

    /// Wire sizes of the shard's retained checkpoint blobs, oldest first —
    /// the O(active)-vs-O(events) measurement E18 and the chaos drills
    /// read.
    pub fn shard_checkpoint_sizes(&self, shard: usize) -> Vec<usize> {
        let journal = self.inner.shards[shard].journal();
        let checkpoints = journal.chain.checkpoints();
        checkpoints.iter().map(|c| c.wire.len()).collect()
    }

    /// A snapshot of the shard's arrival-queue depth.
    pub fn queue_depth(&self, shard: usize) -> usize {
        self.inner.shards[shard].queue.len()
    }

    /// The shard's feed watermark (the time of its last ingestion batch;
    /// `-inf` before the first).  Staleness is judged against this.
    pub fn shard_watermark(&self, shard: usize) -> f64 {
        self.inner.shards[shard].watermark()
    }

    /// Injects a crash: the shard's worker exits *without* checkpointing at
    /// the first quiescent boundary where it has fed at least `at_batches`
    /// batches, losing all in-memory run state.  Blocks until the worker is
    /// dead.  The shard's queue keeps accepting submissions; call
    /// [`recover_shard`](Self::recover_shard) to resume ingestion.
    ///
    /// The worker only reaches boundaries while it has arrivals to feed or
    /// polls an empty queue, so `at_batches` must be at most the batches
    /// the pending workload produces, or this blocks until more arrive.
    pub fn crash_shard(&mut self, shard: usize, at_batches: usize) -> Result<(), ScheduleError> {
        let sh = &self.inner.shards[shard];
        sh.crash_at.store(at_batches, Ordering::Release);
        sh.unpark_worker();
        let handle = self.workers[shard]
            .take()
            .ok_or_else(|| ScheduleError::Internal(format!("shard {shard} has no live worker")))?;
        handle
            .join()
            .map_err(|_| ScheduleError::Internal(format!("shard {shard} worker panicked")))?;
        sh.crash_at.store(usize::MAX, Ordering::Release);
        debug_assert!(sh.journal().crashed);
        Ok(())
    }

    /// Restores a dead shard on a fresh worker thread: reconstructs the run
    /// from the newest checkpoint in the chain whose blob still decodes
    /// (skipping corrupted blobs towards older ones), rewinds
    /// the shard's record to that checkpoint, replays the journalled
    /// batches after it (bit-identically — same feed times, same dense
    /// ids), and resumes ingestion where the dead worker left off.  If
    /// *every* blob in the chain is corrupt the run is rebuilt from scratch
    /// and the whole journal replayed (`cold_restart`) — the journal, not
    /// the checkpoint, is the source of truth; checkpoints only shorten
    /// replay.  A poisoned shard (`failed` raised by a feed fault) is
    /// un-poisoned once the new worker runs: the pending error is dropped
    /// and admission reopens.  A recovery that fails, or whose replay
    /// panics, leaves no worker, so it poisons the shard instead: admission
    /// bounces until a later recovery succeeds.
    pub fn recover_shard(&mut self, shard: usize) -> Result<RecoveryReport, ScheduleError> {
        if self.workers[shard].is_some() {
            return Err(ScheduleError::Internal(format!(
                "shard {shard} still has a live worker; crash or hand it off first"
            )));
        }
        let started = Instant::now();
        let sh = Arc::clone(&self.inner.shards[shard]);
        // The journal stays locked until the new worker runs: the worker
        // raises `failed` only under this lock, so clearing the flags here
        // cannot hide a failure of the new worker.
        let mut journal = sh.journal();
        let restarted = self.replay(&sh, &mut journal).and_then(|(core, report)| {
            let worker = spawn_worker(Arc::clone(&self.inner), Arc::clone(&sh), core)?;
            Ok((worker, report))
        });
        let (worker, report) = restarted.inspect_err(|e| sh.poison(&mut journal, e.clone()))?;
        journal.crashed = false;
        journal.failed = None;
        sh.failed.store(false, Ordering::Release);
        self.workers[shard] = Some(worker);
        Ok(RecoveryReport {
            recovery_secs: started.elapsed().as_secs_f64(),
            ..report
        })
    }

    /// Recovers the shard's run from its checkpoint chain, rewinds the
    /// record and the published signals to the restored checkpoint, and
    /// replays the journalled batches after it.
    fn replay(
        &self,
        sh: &ShardShared,
        journal: &mut ShardJournal,
    ) -> Result<(ShardCore<A::Run>, RecoveryReport), ScheduleError> {
        let config = self.inner.config;
        let recovery = journal.chain.recover(config.price_smoothing, || {
            self.algorithm.start(config.machines, config.alpha)
        })?;
        let mut core = recovery.core;
        let restored = core.state();
        journal.record.truncate(recovery.events, restored.batches);
        sh.price_bits
            .store(restored.price.to_bits(), Ordering::Release);
        sh.watermark_bits
            .store(recovery.time.to_bits(), Ordering::Release);
        let replayed_batches = journal.bursts.len() - restored.batches;
        // A run that panics on every feed of a burst fails the recovery
        // instead of unwinding the control plane; the journal lock is held
        // outside the closure, so a caught panic leaves it unpoisoned.
        let replayed = catch_unwind(AssertUnwindSafe(|| {
            while core.state().batches < journal.bursts.len() {
                feed_batch(&mut core, sh, journal)?;
            }
            Ok(())
        }))
        .unwrap_or_else(|_| Err(ScheduleError::Internal("the run panicked".into())));
        replayed.map_err(|e| {
            ScheduleError::Internal(format!("journal replay rejected a logged batch: {e}"))
        })?;
        let report = RecoveryReport {
            replayed_batches,
            recovery_secs: 0.0,
            chain_skipped: recovery.skipped,
            cold_restart: recovery.cold,
        };
        Ok((core, report))
    }

    /// Sweeps every shard for dead workers and auto-recovers them with
    /// capped attempts — the supervision loop a chaos run (or an operator
    /// timer) drives.  A shard whose worker thread has exited outside
    /// shutdown — an injected crash, a poisoned run (feed fault), a panic
    /// inside the run, or a previous give-up — is joined and restored via
    /// [`recover_shard`](Self::recover_shard), up to
    /// [`ServeConfig::max_recovery_attempts`] *consecutive* recoveries;
    /// past the cap the verdict is [`WatchdogVerdict::GaveUp`] and the
    /// shard stays down.  A recovery that fails is the shard's
    /// [`WatchdogVerdict::Failed`], and the sweep goes on to the next shard.
    /// A healthy shard resets its attempt counter.  Returns one verdict per
    /// shard, in shard order.
    pub fn watchdog_sweep(&mut self) -> Result<Vec<WatchdogVerdict>, ScheduleError> {
        let mut verdicts = Vec::with_capacity(self.inner.shards.len());
        for shard in 0..self.inner.shards.len() {
            let sh = &self.inner.shards[shard];
            let dead = match self.workers[shard].take_if(|handle| handle.is_finished()) {
                // Reap the exited thread before restoring the shard.  A
                // worker that panicked is dead like a crashed one, and
                // recovery restores it the same way, so the panic's payload
                // is dropped.
                Some(handle) => {
                    let _ = handle.join();
                    true
                }
                None => self.workers[shard].is_none(),
            };
            if !dead {
                // Store (not RMW): the watchdog is the only writer.
                sh.recovery_attempts.store(0, Ordering::Release);
                verdicts.push(WatchdogVerdict::Healthy);
                continue;
            }
            let spent = sh.recovery_attempts.load(Ordering::Acquire);
            if spent >= self.inner.config.max_recovery_attempts {
                verdicts.push(WatchdogVerdict::GaveUp { attempts: spent });
                continue;
            }
            let attempts = spent + 1;
            sh.recovery_attempts.store(attempts, Ordering::Release);
            // A failed recovery poisons the shard, which keeps its error for
            // `shutdown`.
            verdicts.push(match self.recover_shard(shard) {
                Ok(report) => WatchdogVerdict::Recovered { report, attempts },
                Err(_) => WatchdogVerdict::Failed { attempts },
            });
        }
        Ok(verdicts)
    }

    /// Corrupts a stored checkpoint blob in place (a chaos-engine hook):
    /// flips one bit of the wire image of the checkpoint `newest_offset`
    /// back from the newest in the shard's chain (`0` = the newest).  The
    /// checksummed container makes any flipped bit decode to an error at
    /// recovery, exercising the chain fallback.  Errors if the chain has
    /// no such entry.  Zero cost when never called.
    pub fn corrupt_checkpoint(
        &self,
        shard: usize,
        newest_offset: usize,
        bit: usize,
    ) -> Result<(), ScheduleError> {
        let mut journal = self.inner.shards[shard].journal();
        journal.chain.corrupt(newest_offset, bit)
    }

    /// Arms the transient-feed-fault injection hook (a chaos-engine hook):
    /// the shard's worker will poison the run instead of feeding the
    /// journalled batch number `at_batches` (0-based), exactly as a real
    /// ingestion error would — the worker exits, admission bounces, and
    /// [`watchdog_sweep`](Self::watchdog_sweep) (or
    /// [`recover_shard`](Self::recover_shard) after joining) un-poisons the
    /// shard by feeding the journal.  One-shot: the hook disarms when it
    /// fires.  Zero cost when never armed (one `Acquire` load per batch).
    pub fn inject_feed_fault(&self, shard: usize, at_batches: usize) {
        let sh = &self.inner.shards[shard];
        sh.fail_feed_at.store(at_batches, Ordering::Release);
        sh.unpark_worker();
    }

    /// Gracefully migrates a shard to a fresh worker thread: the old worker
    /// checkpoints at its next quiescent boundary and exits, the new one
    /// restores from the blob (empty replay delta) and continues —
    /// bit-identically, as if the hand-off never happened.  Returns the
    /// recovery statistics; the hand-off latency is also recorded in the
    /// service report.  A hand-off whose old worker died (or whose log
    /// fails to ship, or whose recovery fails) leaves no worker and
    /// poisons the shard: admission bounces until a recovery succeeds.
    pub fn handoff_shard(&mut self, shard: usize) -> Result<RecoveryReport, ScheduleError> {
        let started = Instant::now();
        let sh = &self.inner.shards[shard];
        sh.handoff.store(true, Ordering::Release);
        sh.unpark_worker();
        let handle = self.workers[shard]
            .take()
            .ok_or_else(|| ScheduleError::Internal(format!("shard {shard} has no live worker")))?;
        // The hand-off ships the `(log tail, blob)` pair across the worker
        // boundary: the departing worker's final checkpoint plus the log,
        // which `recover_shard` then restores from.  If the departing
        // worker died instead, or the log cannot ship, the shard is left
        // without a worker: poison it, as a failed recovery does, so
        // admission bounces.  A worker that panicked poisoned the journal
        // lock too.
        let shipped = handle
            .join()
            .map_err(|_| ScheduleError::Internal(format!("shard {shard} worker panicked")))
            .and_then(|()| sh.journal().chain.ship_log());
        shipped.inspect_err(|e| sh.poison(&mut sh.journal(), e.clone()))?;
        let report = self.recover_shard(shard)?;
        let secs = started.elapsed().as_secs_f64();
        self.inner.shards[shard].journal().handoff_secs.push(secs);
        Ok(report)
    }

    /// Drains and stops the service: no new submissions are admitted,
    /// every worker feeds its queue dry, finishes its run, and the full
    /// [`ServiceReport`] is assembled — per-shard schedules, decision
    /// events, price traces, per-tenant accounting and lifecycle latencies.
    pub fn shutdown(mut self) -> Result<ServiceReport, ScheduleError> {
        self.inner.shutdown.store(true, Ordering::Release);
        for shard in &self.inner.shards {
            shard.unpark_worker();
        }
        for (s, worker) in self.workers.iter_mut().enumerate() {
            let Some(handle) = worker.take() else {
                // A shard left down by a failed recovery or hand-off reports
                // the error that poisoned it.
                let failed = self.inner.shards[s].journal().failed.take();
                return Err(failed.unwrap_or_else(|| {
                    ScheduleError::Internal(format!(
                        "shard {s} has no live worker at shutdown (crashed and never recovered?)"
                    ))
                }));
            };
            handle
                .join()
                .map_err(|_| ScheduleError::Internal(format!("shard {s} worker panicked")))?;
        }
        let tenant_count = self.inner.tenants.len();
        let mut accepted = vec![0u64; tenant_count];
        let mut rejected = vec![0u64; tenant_count];
        let mut shards = Vec::with_capacity(self.inner.shards.len());
        let mut drain = DrainSummary::default();
        for sh in &self.inner.shards {
            let mut journal = sh.journal();
            if let Some(e) = journal.failed.take() {
                return Err(e);
            }
            let schedule = journal.finished.take().ok_or_else(|| {
                ScheduleError::Internal(format!("shard {} did not finish its run", sh.shard))
            })?;
            let record = std::mem::take(&mut journal.record);
            let tenants: Vec<TenantId> = journal.envelopes.iter().map(|e| e.tenant).collect();
            for (tenant, event) in tenants.iter().zip(&record.events) {
                if event.accepted {
                    accepted[tenant.index()] += 1;
                } else {
                    rejected[tenant.index()] += 1;
                }
            }
            drain.drain_secs.push(journal.drain_secs);
            drain
                .handoff_secs
                .extend(journal.handoff_secs.iter().copied());
            shards.push(ShardReport {
                shard: sh.shard,
                record,
                tenants,
                batches: journal.bursts.len(),
                schedule,
                final_price: sh.price(),
                depth_samples: std::mem::take(&mut journal.depth_samples),
                peak_queue_depth: sh.peak_depth.load(Ordering::Relaxed),
                checkpoints: journal.chain.taken(),
                handoffs: journal.handoff_secs.len(),
                drain_secs: journal.drain_secs,
            });
        }
        let tenants = self
            .inner
            .tenants
            .iter()
            .enumerate()
            .map(|(i, state)| state.summary(accepted[i], rejected[i]))
            .collect();
        Ok(ServiceReport {
            algorithm: self.algorithm.algorithm_name(),
            machines: self.inner.config.machines,
            alpha: self.inner.config.alpha,
            shards,
            tenants,
            drain,
        })
    }
}

impl<A: OnlineAlgorithm> Drop for Daemon<A>
where
    A::Run: LogCheckpointable + Send + 'static,
{
    fn drop(&mut self) {
        // A dropped daemon releases its workers: raise the drain flag so
        // parked threads exit instead of leaking.  (Orderly users call
        // `shutdown`, which joins them and collects the report.)
        self.inner.shutdown.store(true, Ordering::Release);
        for shard in &self.inner.shards {
            shard.unpark_worker();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(ServeConfig::default().validate().is_ok());
        for broken in [
            ServeConfig {
                machines: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                alpha: 1.0,
                ..ServeConfig::default()
            },
            ServeConfig {
                shards: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                price_smoothing: 0.0,
                ..ServeConfig::default()
            },
            ServeConfig {
                price_smoothing: 1.5,
                ..ServeConfig::default()
            },
            ServeConfig {
                coalesce_window: -1.0,
                ..ServeConfig::default()
            },
            ServeConfig {
                stale_tolerance: f64::NAN,
                ..ServeConfig::default()
            },
            ServeConfig {
                queue_capacity: usize::MAX,
                ..ServeConfig::default()
            },
        ] {
            assert!(broken.validate().is_err(), "accepted {broken:?}");
        }
    }

    #[test]
    fn hot_spin_runs_only_after_a_fed_round_with_a_cpu_to_spare() {
        let window_after_a_feed = |shards, cpus| {
            let mut hot = HotSpin::new(shards, cpus);
            hot.fed();
            hot.take_window()
        };
        // A worker that has fed nothing parks at once.
        assert_eq!(HotSpin::new(1, 8).take_window(), Duration::ZERO);
        // As many shards as CPUs, or more, park at once; an unknown CPU
        // count reads as one CPU, so it never spins either.
        assert_eq!(window_after_a_feed(2, 2), Duration::ZERO);
        assert_eq!(window_after_a_feed(8, 2), Duration::ZERO);
        assert_eq!(window_after_a_feed(1, 1), Duration::ZERO);
        // Otherwise the fixed window, well under the idle park.
        assert_eq!(window_after_a_feed(1, 2), HOT_SPIN);
        assert_eq!(window_after_a_feed(3, 4), HOT_SPIN);
        assert!(HOT_SPIN < IDLE_PARK);
        // Each fed batch buys one window.  A poll that saw an arrival
        // whose drain then fed nothing (a producer between claiming its
        // slot and publishing it) is followed by a park, not a spin.
        let mut hot = HotSpin::new(1, 2);
        hot.fed();
        assert_eq!(hot.take_window(), HOT_SPIN);
        assert_eq!(hot.take_window(), Duration::ZERO);
        hot.fed();
        hot.fed();
        assert_eq!(hot.take_window(), HOT_SPIN);
        assert_eq!(hot.take_window(), Duration::ZERO);
    }

    #[test]
    fn polling_stops_at_an_arrival_or_when_the_window_runs_out() {
        let queue = ArrivalQueue::with_capacity(4).unwrap();
        // A zero window never polls, whatever the queue holds.
        assert!(!poll_for_arrival(&queue, Duration::ZERO));
        let started = Instant::now();
        assert!(!poll_for_arrival(&queue, HOT_SPIN));
        assert!(started.elapsed() >= HOT_SPIN);
        queue.push(7u8).unwrap();
        assert!(poll_for_arrival(&queue, HOT_SPIN));
        assert!(!poll_for_arrival(&queue, Duration::ZERO));
    }
}
