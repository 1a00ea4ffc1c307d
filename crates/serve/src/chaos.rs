//! Deterministic fault injection for the serving layer: seeded
//! [`FaultPlan`]s, a wave-stepped [`ChaosDriver`], and the
//! [`deterministic_fields_equal`] oracle.
//!
//! # The replayability contract
//!
//! A chaos run must be *regression-gateable*: the same [`FaultPlan`] seed
//! injects the same faults at the same points and produces the same
//! report, and a fault-injected run ends equal to the fault-free run on
//! every deterministic field.  Two ingredients make that hold:
//!
//! 1. **Wave-stepped driving.**  The driver pauses the daemon
//!    ([`Daemon::pause`]), waits for the worker to park at a quiescent
//!    boundary ([`Daemon::wait_parked`]), queues one *wave* of envelopes,
//!    resumes, and waits for the wave's decision events
//!    ([`Daemon::wait_events`]).  All of a wave's envelopes sit in the
//!    queue before the worker wakes, so the drain chunking — and therefore
//!    the batch structure, feed times and dense id assignment — is a pure
//!    function of the plan, not of producer/worker timing.  Each wave
//!    feeds as exactly one batch.
//! 2. **Fault taxonomy.**  *Workload shaping* (the wave partition,
//!    including queue-capacity-sized storm waves, and the adversarial
//!    out-of-order interleaving within each wave) derives from the plan
//!    seed and applies identically to fault-free and fault-injected runs.
//!    *Lifecycle faults* (worker kills, checkpoint-blob corruption,
//!    transient feed faults, queue-full storm decoys, dead-on-arrival
//!    tenant floods) are injected only when asked and are provably
//!    invisible: kills and feed faults are healed by journal replay
//!    (bit-identical by the PR-5 restore contract), corrupted blobs only
//!    lengthen replay via the checkpoint chain, storm decoys bounce off a
//!    ring the wave has filled to capacity, and flood decoys die at the
//!    expiry gate before touching a queue.
//!
//! Every random draw comes from [`SmallRng`] substreams of the plan seed
//! ([`SmallRng::split_stream`]), so the whole construction — faults,
//! interleavings, retry jitter, corrupted bit positions — replays
//! bit-for-bit from one `u64`.

use std::time::Instant;

use pss_types::{
    IngressError, Instance, JobEnvelope, LogCheckpointable, OnlineAlgorithm, ScheduleError,
    TenantId,
};
use pss_workloads::SmallRng;

use crate::daemon::{Daemon, ServeConfig, Submission, WatchdogVerdict, WAIT_LIMIT};
use crate::queue::ring_capacity;
use crate::report::ServiceReport;
use crate::retry::{RetryError, RetryPolicy};
use crate::tenant::TenantSpec;

/// Substream indices off the plan seed (disjoint by [`SmallRng::jump`]).
const STREAM_SHUFFLE: u64 = 0;
const STREAM_CORRUPT: u64 = 1;
const STREAM_STORM: u64 = 2;
const STREAM_CLASSES: u64 = 10;

/// Decoy submissions hurled at a full ring during a storm wave.
const STORM_DECOYS: usize = 3;
/// Dead-on-arrival decoys per tenant-flood wave.
const FLOOD_DECOYS: usize = 4;

/// Which lifecycle fault (if any) a wave injects.  At most one per wave:
/// a kill and a feed fault at the same boundary would race over the same
/// worker corpse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaveFault {
    None,
    /// Kill the worker after the wave is fed, corrupt the `corrupt` newest
    /// checkpoint blobs, then let the watchdog recover it.
    Kill {
        /// Newest chain blobs to corrupt before recovery (0 = none; at or
        /// past the chain length forces a cold restart).
        corrupt: usize,
    },
    /// Arm the transient feed fault: the wave's batch is journalled, the
    /// run poisons instead of feeding, and the watchdog heals it by
    /// replay.
    FeedFault,
}

/// A seeded, fully replayable fault schedule.
///
/// Generated by [`FaultPlan::generate`] from a single seed via disjoint
/// [`SmallRng`] substreams: the same seed always yields the same plan, and
/// the driver derives its interleavings, corrupted bit positions and retry
/// jitter from further substreams of the same seed.  Waves past
/// `n_waves` wrap around (index modulo length), so one plan drives any
/// workload length deterministically.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<WaveFault>,
    storms: Vec<bool>,
    floods: Vec<bool>,
}

impl FaultPlan {
    /// A plan that injects nothing and marks no storm waves.  Note the
    /// equality baseline for a noisy plan is *the same plan* run with
    /// `inject == false` (the wave partition reads the storm flags), not a
    /// quiet plan.
    pub fn quiet(seed: u64, n_waves: usize) -> Self {
        let n = n_waves.max(1);
        Self {
            seed,
            faults: vec![WaveFault::None; n],
            storms: vec![false; n],
            floods: vec![false; n],
        }
    }

    /// Generates a noisy plan: each wave independently draws a lifecycle
    /// fault (worker kill with 0–`chain` corrupted newest blobs, or a
    /// transient feed fault), a queue-full storm, and a dead-on-arrival
    /// tenant flood.  Every fault class is guaranteed to appear at least
    /// once when `n_waves >= 4`.  Deterministic in `(seed, n_waves,
    /// chain)`.
    pub fn generate(seed: u64, n_waves: usize, chain: usize) -> Self {
        let n = n_waves.max(1);
        let base = SmallRng::seed_from_u64(seed);
        let mut kill_rng = base.split_stream(STREAM_CLASSES);
        let mut feed_rng = base.split_stream(STREAM_CLASSES + 1);
        let mut storm_rng = base.split_stream(STREAM_CLASSES + 2);
        let mut flood_rng = base.split_stream(STREAM_CLASSES + 3);
        let mut pick_rng = base.split_stream(STREAM_CLASSES + 4);
        let mut faults = Vec::with_capacity(n);
        let mut storms = Vec::with_capacity(n);
        let mut floods = Vec::with_capacity(n);
        for w in 0..n {
            // Kill wins over feed fault; both roll every wave so the draw
            // count (and hence every later draw) is independent of the
            // outcomes.
            let kill = kill_rng.next_f64() < 0.25;
            let corrupt = kill_rng.usize_range(0, chain.max(1));
            let feed = feed_rng.next_f64() < 0.2;
            faults.push(if kill {
                WaveFault::Kill { corrupt }
            } else if feed {
                WaveFault::FeedFault
            } else {
                WaveFault::None
            });
            storms.push(storm_rng.next_f64() < 0.25);
            // Flood decoys need a finite watermark, so wave 0 never floods.
            floods.push(w > 0 && flood_rng.next_f64() < 0.25);
        }
        let mut plan = Self {
            seed,
            faults,
            storms,
            floods,
        };
        if n >= 4 {
            // Force every class to appear at least once, at a
            // deterministically drawn wave.
            let pick = |rng: &mut SmallRng, lo: usize| rng.usize_range(lo, n - 1);
            if !plan
                .faults
                .iter()
                .any(|f| matches!(f, WaveFault::Kill { .. }))
            {
                let w = pick(&mut pick_rng, 0);
                plan.faults[w] = WaveFault::Kill { corrupt: 0 };
            }
            if !plan
                .faults
                .iter()
                .any(|f| matches!(f, WaveFault::Kill { corrupt } if *corrupt > 0))
            {
                // At least one kill recovers through a corrupted newest
                // blob (the chain-fallback path).
                let w = (0..n)
                    .find(|&w| matches!(plan.faults[w], WaveFault::Kill { .. }))
                    .unwrap_or_else(|| pick(&mut pick_rng, 0));
                plan.faults[w] = WaveFault::Kill { corrupt: 1 };
            }
            if !plan.faults.contains(&WaveFault::FeedFault) {
                let w = (0..n)
                    .find(|&w| plan.faults[w] == WaveFault::None)
                    .unwrap_or(0);
                plan.faults[w] = WaveFault::FeedFault;
            }
            if !plan.storms.contains(&true) {
                let w = pick(&mut pick_rng, 0);
                plan.storms[w] = true;
            }
            if !plan.floods.contains(&true) {
                let w = pick(&mut pick_rng, 1).max(1);
                plan.floods[w] = true;
            }
        }
        plan
    }

    /// The plan's seed (workload shaping and injection draws derive from
    /// it).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Planned waves before the schedule wraps around.
    pub fn n_waves(&self) -> usize {
        self.faults.len()
    }

    fn fault(&self, wave: usize) -> WaveFault {
        self.faults[wave % self.faults.len()]
    }

    fn storm(&self, wave: usize) -> bool {
        self.storms[wave % self.storms.len()]
    }

    fn flood(&self, wave: usize) -> bool {
        self.floods[wave % self.floods.len()]
    }
}

/// Counters of what a chaos run injected and how the service recovered.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ChaosStats {
    /// Waves driven (each is one ingestion batch).
    pub waves: usize,
    /// Workload envelopes fed through the scheduler.
    pub jobs: usize,
    /// Worker kills injected.
    pub kills: usize,
    /// Transient feed faults injected.
    pub feed_faults: usize,
    /// Checkpoint blobs corrupted in place.
    pub corruptions: usize,
    /// Corrupted blobs recovery had to skip (chain fallbacks).
    pub chain_skipped: usize,
    /// Recoveries that found the whole chain corrupt and replayed the full
    /// journal from a cold run.
    pub cold_restarts: usize,
    /// Successful watchdog recoveries.
    pub recoveries: usize,
    /// Journal batches replayed across all recoveries (the replay cost).
    pub replayed_batches: usize,
    /// Workload envelopes the dual-price gate rejected at admission (the
    /// workload tenant runs the `Reject` backpressure policy, so pricing
    /// out low-value jobs under load is a deterministic, typed outcome).
    pub priced_out: usize,
    /// Wall-clock seconds spent in recovery.
    pub recovery_secs: f64,
    /// Storm decoys bounced with a typed `QueueFull`.
    pub storm_bounces: usize,
    /// Retry loops that ended in a typed give-up during storms.
    pub retry_give_ups: usize,
    /// Flood decoys killed at the expiry gate.
    pub flood_bounces: usize,
}

/// The outcome of one chaos run: the drained service report plus the
/// injection/recovery counters.
#[derive(Debug)]
pub struct ChaosRun {
    /// The merged service report (shutdown output).
    pub report: ServiceReport,
    /// What was injected and recovered along the way.
    pub stats: ChaosStats,
}

/// Drives one single-shard daemon through a scenario workload under a
/// [`FaultPlan`], wave by wave.  See the module docs for the determinism
/// argument; the daemon configuration is derived so that each wave feeds
/// as exactly one batch (whole-backlog drain, unbounded coalescing,
/// checkpoint after every batch).
#[derive(Debug, Clone, Copy)]
pub struct ChaosDriver {
    /// Envelopes per ordinary wave (storm waves are sized to the rounded
    /// queue capacity instead, so every storm decoy meets a full ring).
    pub wave_size: usize,
    /// Requested arrival-queue capacity (rounded up to a power of two by
    /// the queue itself).
    pub queue_capacity: usize,
    /// EWMA weight of the rolling dual price.
    pub price_smoothing: f64,
    /// Checkpoints retained per shard (the chain recovery falls back
    /// along).
    pub checkpoint_chain: usize,
}

impl Default for ChaosDriver {
    fn default() -> Self {
        Self {
            wave_size: 4,
            queue_capacity: 8,
            price_smoothing: 0.2,
            checkpoint_chain: 3,
        }
    }
}

impl ChaosDriver {
    /// Splits the instance's jobs (in arrival order) into waves: storm
    /// waves take a full ring of `cap` envelopes, others `wave_size`.  Pure
    /// workload shaping — identical for fault-free and fault-injected runs.
    fn partition(
        &self,
        instance: &Instance,
        plan: &FaultPlan,
        cap: usize,
    ) -> Vec<Vec<JobEnvelope>> {
        let envelopes = pss_workloads::arrival_envelopes(instance);
        let mut waves = Vec::new();
        let mut idx = 0;
        let mut w = 0;
        while idx < envelopes.len() {
            let want = if plan.storm(w) {
                cap
            } else {
                self.wave_size.max(1).min(cap)
            };
            let take = want.min(envelopes.len() - idx);
            waves.push(envelopes[idx..idx + take].to_vec());
            idx += take;
            w += 1;
        }
        waves
    }

    /// Runs the scenario under the plan.  With `inject == false` only the
    /// workload shaping applies (the fault-free reference); with `true`
    /// the lifecycle faults are injected and supervised recovery must heal
    /// every one of them.  The two runs end equal on every deterministic
    /// field ([`deterministic_fields_equal`]).
    pub fn run<A>(
        &self,
        algorithm: A,
        instance: &Instance,
        plan: &FaultPlan,
        inject: bool,
    ) -> Result<ChaosRun, ScheduleError>
    where
        A: OnlineAlgorithm,
        A::Run: LogCheckpointable + Send + 'static,
    {
        // The ring after the queue's rounding: the size a storm wave must
        // have to fill it exactly.
        let cap = ring_capacity(self.queue_capacity)?;
        let config = ServeConfig {
            machines: instance.machines,
            alpha: instance.alpha,
            shards: 1,
            queue_capacity: cap,
            // One batch per wave: the drained backlog coalesces whole.
            coalesce_window: f64::INFINITY,
            max_batch: cap,
            checkpoint_every: 1,
            price_smoothing: self.price_smoothing,
            stale_tolerance: f64::INFINITY,
            start_paused: true,
            checkpoint_chain: self.checkpoint_chain,
            ..ServeConfig::default()
        };
        let tenants = vec![
            // The workload tenant rejects on price: when the rolling dual
            // price tops a job's value the service drops it at admission —
            // a deterministic decision at a paused wave boundary.
            TenantSpec::new("svc").rejecting_on_price(),
            TenantSpec::new("storm"),
            TenantSpec::new("flood"),
        ];
        let (mut daemon, handles) = Daemon::spawn(algorithm, config, tenants)?;
        let svc = &handles[0];
        let storm_handle = &handles[1];
        let flood_handle = &handles[2];

        let base = SmallRng::seed_from_u64(plan.seed);
        let mut shuffle_rng = base.split_stream(STREAM_SHUFFLE);
        let mut corrupt_rng = base.split_stream(STREAM_CORRUPT);
        let mut storm_rng = base.split_stream(STREAM_STORM);
        let retry = RetryPolicy {
            max_attempts: 3,
            base_delay: 10e-6,
            max_delay: 100e-6,
            jitter: 0.5,
        };

        let waves = self.partition(instance, plan, cap);
        let mut stats = ChaosStats::default();
        let mut expected_events = 0usize;
        let mut batches_fed = 0usize;
        for (w, wave) in waves.iter().enumerate() {
            daemon.wait_parked(WAIT_LIMIT)?;
            // Adversarial interleaving: the wave enters the queue in a
            // seeded shuffle of arrival order, putting releases out of
            // order far beyond ARRIVAL_ORDER_TOLERANCE — the release-floor
            // clamp absorbs it.  Workload shaping: both runs shuffle.
            let mut wave = wave.clone();
            shuffle(&mut wave, &mut shuffle_rng);
            let fault = if inject {
                plan.fault(w)
            } else {
                WaveFault::None
            };
            if inject && plan.flood(w) {
                stats.flood_bounces += flood(&daemon, flood_handle)?;
            }
            let mut queued = 0usize;
            for envelope in &wave {
                match svc.submit(*envelope) {
                    Ok(Submission::Queued { .. }) => queued += 1,
                    Ok(Submission::RejectedByPrice { .. }) => stats.priced_out += 1,
                    other => {
                        return Err(ScheduleError::Internal(format!(
                            "chaos wave {w}: workload submission not queued: {other:?}"
                        )));
                    }
                }
            }
            // A transient feed fault needs a batch to poison; a wave the
            // price gate emptied out feeds nothing, so the fault degrades
            // to a no-op rather than an unfired trap.
            let fault = if fault == WaveFault::FeedFault && queued == 0 {
                WaveFault::None
            } else {
                fault
            };
            if fault == WaveFault::FeedFault {
                daemon.inject_feed_fault(0, batches_fed);
                stats.feed_faults += 1;
            }
            // A storm only makes sense against a ring the wave actually
            // filled (priced-out envelopes never reached the queue).
            if inject && plan.storm(w) && queued == cap {
                let (bounces, give_ups) = storm(&daemon, storm_handle, &retry, &mut storm_rng)?;
                stats.storm_bounces += bounces;
                stats.retry_give_ups += give_ups;
            }
            daemon.resume();
            expected_events += queued;
            if fault == WaveFault::FeedFault {
                // The worker journals the wave's batch, poisons, and dies;
                // the watchdog heals it by replaying the logged batch.
                absorb(&mut daemon, &mut stats)?;
            }
            daemon.wait_events(0, expected_events, WAIT_LIMIT)?;
            if queued > 0 {
                batches_fed += 1;
            }
            if let WaveFault::Kill { corrupt } = fault {
                daemon.crash_shard(0, 0)?;
                stats.kills += 1;
                for depth in 0..corrupt.min(self.checkpoint_chain + 1) {
                    let bit = corrupt_rng.usize_range(0, 4095);
                    // The chain may hold fewer blobs than requested early
                    // on; corrupting what exists still exercises fallback.
                    if daemon.corrupt_checkpoint(0, depth, bit).is_ok() {
                        stats.corruptions += 1;
                    }
                }
                absorb(&mut daemon, &mut stats)?;
            }
            daemon.pause();
        }
        stats.waves = waves.len();
        stats.jobs = expected_events;
        daemon.resume();
        let report = daemon.shutdown()?;
        Ok(ChaosRun { report, stats })
    }
}

/// Seeded Fisher–Yates shuffle (deterministic adversarial interleaving).
fn shuffle(wave: &mut [JobEnvelope], rng: &mut SmallRng) {
    for i in (1..wave.len()).rev() {
        let j = rng.usize_range(0, i);
        wave.swap(i, j);
    }
}

/// Sweeps the watchdog until the shard's dead worker is reaped and
/// recovered, folding the recovery statistics into `stats`.
fn absorb<A>(daemon: &mut Daemon<A>, stats: &mut ChaosStats) -> Result<(), ScheduleError>
where
    A: OnlineAlgorithm,
    A::Run: LogCheckpointable + Send + 'static,
{
    let deadline = Instant::now() + WAIT_LIMIT;
    loop {
        let verdicts = daemon.watchdog_sweep();
        match verdicts[0] {
            WatchdogVerdict::Recovered { report, .. } => {
                stats.recoveries += 1;
                stats.replayed_batches += report.replayed_batches;
                stats.chain_skipped += report.chain_skipped;
                stats.cold_restarts += usize::from(report.cold_restart);
                stats.recovery_secs += report.recovery_secs;
                // Confirm health with one more sweep: the watchdog's
                // give-up counter only resets on a *Healthy* observation,
                // and a chaos run injects lifecycle faults back to back —
                // without the confirmation every recovery would count as
                // consecutive and the cap would fire spuriously.
                return match daemon.watchdog_sweep()[0] {
                    WatchdogVerdict::Healthy => Ok(()),
                    _ => Err(ScheduleError::Internal(
                        "shard died again immediately after a supervised recovery".into(),
                    )),
                };
            }
            WatchdogVerdict::Failed { attempts } => {
                return Err(ScheduleError::Internal(format!(
                    "recovery attempt {attempts} failed during a chaos run"
                )));
            }
            WatchdogVerdict::GaveUp { attempts } => {
                return Err(ScheduleError::Internal(format!(
                    "watchdog gave up after {attempts} attempts during a chaos run"
                )));
            }
            WatchdogVerdict::Healthy => {
                if Instant::now() > deadline {
                    return Err(ScheduleError::Internal(
                        "chaos driver timed out waiting for the worker to die".into(),
                    ));
                }
                pss_check::thread::yield_now();
            }
        }
    }
}

/// Hurls [`STORM_DECOYS`] high-value decoys at a ring the current wave has
/// filled to capacity: every direct submission must bounce with a typed
/// [`IngressError::QueueFull`], and a retry-policy loop must end in a
/// typed give-up (the worker is parked, so the queue cannot drain).
fn storm<A>(
    daemon: &Daemon<A>,
    handle: &crate::daemon::TenantHandle,
    retry: &RetryPolicy,
    rng: &mut SmallRng,
) -> Result<(usize, usize), ScheduleError>
where
    A: OnlineAlgorithm,
    A::Run: LogCheckpointable + Send + 'static,
{
    let watermark = daemon.shard_watermark(0);
    let release = if watermark.is_finite() {
        watermark + 1.0
    } else {
        0.0
    };
    // Huge value: the decoy sails past the price gate and meets the ring.
    let decoy = JobEnvelope::new(TenantId(0), u64::MAX, release, release + 1.0, 0.1, 1e9);
    let mut bounces = 0;
    for _ in 0..STORM_DECOYS {
        match handle.submit(decoy) {
            Err(IngressError::QueueFull { .. }) => bounces += 1,
            other => {
                return Err(ScheduleError::Internal(format!(
                    "storm decoy was not bounced by the full ring: {other:?}"
                )));
            }
        }
    }
    let give_ups = match retry.submit(handle, decoy, rng) {
        Err(RetryError::Exhausted { .. }) => 1,
        other => {
            return Err(ScheduleError::Internal(format!(
                "storm retry loop did not give up on a parked worker: {other:?}"
            )));
        }
    };
    Ok((bounces, give_ups))
}

/// Submits [`FLOOD_DECOYS`] dead-on-arrival envelopes (deadline at the
/// watermark): each dies at the expiry gate with a typed
/// [`IngressError::Expired`] and never touches a queue or the scheduler.
/// Skipped silently before the first batch (no finite watermark yet).
fn flood<A>(
    daemon: &Daemon<A>,
    handle: &crate::daemon::TenantHandle,
) -> Result<usize, ScheduleError>
where
    A: OnlineAlgorithm,
    A::Run: LogCheckpointable + Send + 'static,
{
    let watermark = daemon.shard_watermark(0);
    if !watermark.is_finite() || watermark <= 0.0 {
        // No batch fed yet (or a degenerate all-zero-release wave): there
        // is no valid dead-on-arrival window behind the watermark.
        return Ok(0);
    }
    let release = (watermark - 1.0).max(0.0);
    let decoy = JobEnvelope::new(TenantId(0), u64::MAX, release, watermark, 0.1, 1.0);
    let mut bounces = 0;
    for _ in 0..FLOOD_DECOYS {
        match handle.submit(decoy) {
            Err(IngressError::Expired { .. }) => bounces += 1,
            other => {
                return Err(ScheduleError::Internal(format!(
                    "flood decoy was not killed at the expiry gate: {other:?}"
                )));
            }
        }
    }
    Ok(bounces)
}

/// Whether two service reports agree on every *deterministic* field: the
/// algorithm, machines and α, and per shard its record (`==`: the fed
/// jobs, every decision and the price trace, bit for bit), its jobs'
/// tenants, its final price and its schedule.  Wall-clock fields (feed,
/// drain and recovery latencies, depth samples, checkpoint counts) and
/// per-tenant decoy accounting are excluded on purpose — they legitimately
/// differ between a fault-free and a fault-injected run.
pub fn deterministic_fields_equal(a: &ServiceReport, b: &ServiceReport) -> bool {
    a.algorithm == b.algorithm
        && a.machines == b.machines
        && a.alpha.to_bits() == b.alpha.to_bits()
        && a.shards.len() == b.shards.len()
        && a.shards.iter().zip(&b.shards).all(|(x, y)| {
            x.shard == y.shard
                && x.record == y.record
                && x.tenants == y.tenants
                && x.final_price.to_bits() == y.final_price.to_bits()
                && x.schedule == y.schedule
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_cover_every_class() {
        let a = FaultPlan::generate(42, 8, 3);
        let b = FaultPlan::generate(42, 8, 3);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.storms, b.storms);
        assert_eq!(a.floods, b.floods);
        let c = FaultPlan::generate(43, 8, 3);
        assert!(a.faults != c.faults || a.storms != c.storms || a.floods != c.floods);
        for seed in 0..20 {
            let plan = FaultPlan::generate(seed, 6, 3);
            assert!(plan
                .faults
                .iter()
                .any(|f| matches!(f, WaveFault::Kill { .. })));
            assert!(plan
                .faults
                .iter()
                .any(|f| matches!(f, WaveFault::Kill { corrupt } if *corrupt > 0)));
            assert!(plan.faults.contains(&WaveFault::FeedFault));
            assert!(plan.storms.contains(&true));
            assert!(plan.floods.contains(&true));
            assert!(!plan.flood(0), "wave 0 has no finite watermark to flood");
        }
    }

    #[test]
    fn quiet_plans_inject_nothing_but_shape_identically() {
        let quiet = FaultPlan::quiet(5, 6);
        assert!(quiet.faults.iter().all(|f| *f == WaveFault::None));
        assert!(!quiet.storms.contains(&true));
        assert!(!quiet.floods.contains(&true));
        assert_eq!(quiet.seed(), 5);
        assert_eq!(quiet.n_waves(), 6);
    }

    #[test]
    fn wave_indexing_wraps() {
        let plan = FaultPlan::generate(7, 4, 2);
        for w in 0..4 {
            assert_eq!(plan.fault(w), plan.fault(w + 4));
            assert_eq!(plan.storm(w), plan.storm(w + 4));
            assert_eq!(plan.flood(w), plan.flood(w + 4));
        }
    }

    #[test]
    fn shuffles_are_seeded_and_disturb_order() {
        let envs: Vec<JobEnvelope> = (0..16)
            .map(|i| JobEnvelope::new(TenantId(0), i, i as f64, i as f64 + 1.0, 0.1, 1.0))
            .collect();
        let mut a = envs.clone();
        let mut b = envs.clone();
        shuffle(&mut a, &mut SmallRng::seed_from_u64(9));
        shuffle(&mut b, &mut SmallRng::seed_from_u64(9));
        assert_eq!(a, b, "same seed, same interleaving");
        assert_ne!(a, envs, "16 elements shuffle away from identity");
        let tags: std::collections::BTreeSet<u64> = a.iter().map(|e| e.tag).collect();
        assert_eq!(tags.len(), 16, "a shuffle is a permutation");
    }
}
