//! Routing *one* logical stream across the daemon's shards and
//! reassembling one logical answer.
//!
//! The daemon (PR 6) already runs `S` independent shard workers, but its
//! tenants are *placed*: each tenant's stream enters exactly one shard.
//! [`StreamRouter`] lifts that to a single logical stream: every arrival
//! is routed to a shard by a pluggable [`RoutePolicy`] — deterministic
//! hash of the submission sequence, round-robin, or **cheapest-price**
//! (the argmin of the shards' published rolling dual-price EWMAs, read
//! lock-free via [`Daemon::shard_price`], exact ties rotated by sequence
//! number so an all-zero cold start spreads like round-robin) —
//! and the per-shard outcomes are zipped back into one logical schedule
//! with [`pss_types::merge_frontiers`].
//!
//! Routing is a *pure function* of the submission sequence number and the
//! published prices, so a replay that observes the same price trajectory
//! routes identically.  Two drive modes make that useful:
//!
//! * [`StreamRouter::run_stepped`] — the determinism mode, borrowed from
//!   the chaos driver's wave-stepping: pause, wait for every worker to
//!   park at a quiescent boundary, route and queue one wave against the
//!   frozen price snapshot, resume, wait for the wave's decisions,
//!   repeat.  Batch structure, feed times, dense id assignment and
//!   routing are then pure functions of the workload — same workload,
//!   same configuration ⇒ equal routing logs, shard records and merged
//!   schedules ([`routed_fields_equal`]), the replay gate of the router
//!   suites.
//! * [`StreamRouter::run_free`] — the throughput mode: workers run
//!   freely, the producer submits the stream as fast as admission allows
//!   (bounded retry on a full ring), and the report carries the
//!   wall-clock ingest rate.  Not bit-replayable (drain chunking follows
//!   real timing) — E17 uses it for arrivals/sec and the stepped mode for
//!   the replay gates.
//!
//! The single-threaded, daemon-free sibling (same policies, same merge,
//! same EWMA pricing) lives in `pss_sim::sharded` and hosts the
//! sharding-cost oracle.

use std::time::Instant;

use pss_sim::{merge_shards, FeedRecord, RoutePolicy, ShardedOutcome, PRICE_SMOOTHING};
use pss_types::{Instance, JobId, Schedule, ScheduleError};
use pss_types::{LogCheckpointable, OnlineAlgorithm};
use pss_workloads::{arrival_envelopes, SmallRng};

use crate::chaos::deterministic_fields_equal;
use crate::daemon::{Daemon, ServeConfig, Submission, WAIT_LIMIT};
use crate::queue::ring_capacity;
use crate::report::ServiceReport;
use crate::retry::RetryPolicy;
use crate::tenant::TenantSpec;

/// Drives one logical arrival stream across an `S`-shard daemon under a
/// [`RoutePolicy`].  See the module docs for the two drive modes.
#[derive(Debug, Clone, Copy)]
pub struct StreamRouter {
    /// Number of shard workers `S`.
    pub shards: usize,
    /// The routing policy.
    pub policy: RoutePolicy,
    /// Machines per shard run (the merged logical schedule spans
    /// `shards · machines_per_shard` lanes).
    pub machines_per_shard: usize,
    /// Energy exponent α of every shard run.
    pub alpha: f64,
    /// Envelopes per stepped wave (each wave feeds as one batch per
    /// touched shard).
    pub wave_size: usize,
    /// Requested per-shard arrival-queue capacity (rounded up to a power
    /// of two by the queue itself).
    pub queue_capacity: usize,
    /// EWMA weight of each shard's rolling dual price.
    pub price_smoothing: f64,
}

impl Default for StreamRouter {
    fn default() -> Self {
        Self {
            shards: 1,
            policy: RoutePolicy::CheapestPrice,
            machines_per_shard: 1,
            alpha: 2.0,
            wave_size: 8,
            queue_capacity: 1024,
            price_smoothing: PRICE_SMOOTHING,
        }
    }
}

/// One logical submission's routing record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedSubmission {
    /// The logical job id (also the envelope tag).
    pub job: JobId,
    /// The shard the policy picked.
    pub shard: usize,
    /// Whether the submission entered the shard's queue (`false`: the
    /// dual-price gate rejected it at admission — a terminal, deterministic
    /// outcome under the router's `Reject` backpressure policy).
    pub queued: bool,
}

/// What routing one logical stream produced: the routing log, the daemon's
/// per-shard report, and the merged logical schedule.
#[derive(Debug)]
pub struct RoutedReport {
    /// The policy that produced the assignment.
    pub policy: RoutePolicy,
    /// Machines per shard run.
    pub machines_per_shard: usize,
    /// One record per logical submission, in sequence order.
    pub submissions: Vec<RoutedSubmission>,
    /// The daemon's drained report (per-shard records and schedules, tenant
    /// accounting).
    pub service: ServiceReport,
    /// The merged logical schedule: per-shard finished schedules zipped
    /// onto lane-offset machines with logical job ids
    /// ([`pss_types::merge_frontiers`]).
    pub merged: Schedule,
    /// Wall-clock seconds from the first submission to the drained
    /// shutdown.
    pub wall_secs: f64,
}

impl RoutedReport {
    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.service.shards.len()
    }

    /// Logical submissions per wall-clock second, end to end (submission
    /// through drained shutdown) — the throughput E17 sweeps.
    pub fn arrivals_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.submissions.len() as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// The largest push-side peak queue depth across shards (the
    /// storm-proof bound, not the drain-point sample).
    pub fn peak_queue_depth(&self) -> usize {
        self.service
            .shards
            .iter()
            .map(|s| s.peak_queue_depth)
            .max()
            .unwrap_or(0)
    }
}

/// The shards' records hold the logical ids in their tags: every queued
/// envelope's tag is its logical job id.
impl ShardedOutcome for RoutedReport {
    fn records(&self) -> Vec<&FeedRecord> {
        self.service.shards.iter().map(|s| &s.record).collect()
    }

    fn merged(&self) -> &Schedule {
        &self.merged
    }
}

/// Whether two routed reports agree on every deterministic field: the
/// routing log (assignment + admission outcome per submission), the
/// daemon's deterministic fields (the shard records' `==` and extras,
/// [`deterministic_fields_equal`]), and the merged schedule.  Wall-clock
/// throughput is excluded.
pub fn routed_fields_equal(a: &RoutedReport, b: &RoutedReport) -> bool {
    a.policy == b.policy
        && a.machines_per_shard == b.machines_per_shard
        && a.submissions == b.submissions
        && a.merged == b.merged
        && deterministic_fields_equal(&a.service, &b.service)
}

impl StreamRouter {
    fn config(&self, start_paused: bool) -> Result<ServeConfig, ScheduleError> {
        Ok(ServeConfig {
            machines: self.machines_per_shard,
            alpha: self.alpha,
            shards: self.shards,
            queue_capacity: self.queue_capacity,
            // A wave (stepped) or a drained backlog chunk (free) coalesces
            // whole: one replan per burst under load.
            coalesce_window: f64::INFINITY,
            max_batch: ring_capacity(self.queue_capacity)?,
            price_smoothing: self.price_smoothing,
            stale_tolerance: f64::INFINITY,
            start_paused,
            ..ServeConfig::default()
        })
    }

    /// One routing tenant per shard, all on the `Reject` backpressure
    /// policy: a priced-out submission is a terminal, deterministic
    /// outcome (`Submission::RejectedByPrice`), never a `Defer` a stepped
    /// driver would spin on while the workers are paused.
    fn tenants(&self) -> Vec<TenantSpec> {
        (0..self.shards)
            .map(|s| {
                TenantSpec::new(format!("route-{s}"))
                    .on_shard(s)
                    .rejecting_on_price()
            })
            .collect()
    }

    /// Reads every shard's published price (lock-free `Acquire` loads) —
    /// the snapshot the policy routes against.
    fn prices<A>(daemon: &Daemon<A>, shards: usize) -> Vec<f64>
    where
        A: OnlineAlgorithm,
        A::Run: LogCheckpointable + Send + 'static,
    {
        (0..shards).map(|s| daemon.shard_price(s)).collect()
    }

    /// Drives the instance through the daemon wave-stepped — the
    /// bit-replayable mode.  Every wave is routed against a frozen price
    /// snapshot (all workers parked), queued, then fed as exactly one
    /// batch per touched shard.
    pub fn run_stepped<A>(
        &self,
        algorithm: A,
        instance: &Instance,
    ) -> Result<RoutedReport, ScheduleError>
    where
        A: OnlineAlgorithm,
        A::Run: LogCheckpointable + Send + 'static,
    {
        self.check()?;
        let (daemon, handles) = Daemon::spawn(algorithm, self.config(true)?, self.tenants())?;
        let envelopes = arrival_envelopes(instance);
        let started = Instant::now();
        let mut submissions = Vec::with_capacity(envelopes.len());
        let mut expected = vec![0usize; self.shards];
        let mut seq = 0u64;
        for wave in envelopes.chunks(self.wave_size.max(1)) {
            daemon.wait_parked(WAIT_LIMIT)?;
            // All workers are parked: the price snapshot cannot move while
            // this wave routes, so the whole wave routes against one
            // consistent snapshot — routing is a pure function of the
            // sequence numbers and the published prices.
            let prices = Self::prices(&daemon, self.shards);
            for envelope in wave {
                let shard = self.policy.route(seq, &prices);
                seq += 1;
                let queued = match handles[shard].submit(*envelope) {
                    Ok(Submission::Queued { .. }) => {
                        expected[shard] += 1;
                        true
                    }
                    Ok(Submission::RejectedByPrice { .. }) => false,
                    other => {
                        return Err(ScheduleError::Internal(format!(
                            "routed submission ended unexpectedly: {other:?}"
                        )));
                    }
                };
                submissions.push(RoutedSubmission {
                    job: JobId(envelope.tag as usize),
                    shard,
                    queued,
                });
            }
            daemon.resume();
            for (s, &count) in expected.iter().enumerate() {
                daemon.wait_events(s, count, WAIT_LIMIT)?;
            }
            daemon.pause();
        }
        daemon.resume();
        let service = daemon.shutdown()?;
        let wall_secs = started.elapsed().as_secs_f64();
        Self::assemble(self, submissions, service, wall_secs)
    }

    /// Drives the instance through the daemon free-running — the
    /// throughput mode.  The producer submits the stream as fast as
    /// admission allows (bounded deterministic-jitter retry on a full
    /// ring) while the workers drain concurrently; `retry_seed` seeds the
    /// retry jitter.
    pub fn run_free<A>(
        &self,
        algorithm: A,
        instance: &Instance,
        retry_seed: u64,
    ) -> Result<RoutedReport, ScheduleError>
    where
        A: OnlineAlgorithm,
        A::Run: LogCheckpointable + Send + 'static,
    {
        self.check()?;
        let (daemon, handles) = Daemon::spawn(algorithm, self.config(false)?, self.tenants())?;
        let envelopes = arrival_envelopes(instance);
        let retry = RetryPolicy {
            max_attempts: 1000,
            base_delay: 5e-6,
            max_delay: 500e-6,
            jitter: 0.5,
        };
        let mut rng = SmallRng::seed_from_u64(retry_seed);
        let started = Instant::now();
        let mut submissions = Vec::with_capacity(envelopes.len());
        for (seq, envelope) in envelopes.iter().enumerate() {
            let prices = Self::prices(&daemon, self.shards);
            let shard = self.policy.route(seq as u64, &prices);
            let queued = match retry.submit(&handles[shard], *envelope, &mut rng) {
                Ok(Submission::Queued { .. }) => true,
                Ok(Submission::RejectedByPrice { .. }) => false,
                Err(e) => {
                    return Err(ScheduleError::Internal(format!(
                        "routed submission gave up under free-running ingest: {e}"
                    )));
                }
            };
            submissions.push(RoutedSubmission {
                job: JobId(envelope.tag as usize),
                shard,
                queued,
            });
        }
        let service = daemon.shutdown()?;
        let wall_secs = started.elapsed().as_secs_f64();
        Self::assemble(self, submissions, service, wall_secs)
    }

    fn check(&self) -> Result<(), ScheduleError> {
        if self.shards == 0 {
            return Err(ScheduleError::Internal(
                "a stream router needs at least one shard".into(),
            ));
        }
        Ok(())
    }

    /// Zips the drained service report into the logical outcome: each
    /// shard's record maps its dense local ids back to the logical ids
    /// (the envelope tags), and the finished shard schedules merge onto
    /// lane-offset machines.
    fn assemble(
        &self,
        submissions: Vec<RoutedSubmission>,
        service: ServiceReport,
        wall_secs: f64,
    ) -> Result<RoutedReport, ScheduleError> {
        for shard in &service.shards {
            let dense = shard
                .jobs
                .iter()
                .enumerate()
                .all(|(i, job)| job.id.index() == i);
            if !dense {
                return Err(ScheduleError::Internal(format!(
                    "shard {} fed ids out of feed order",
                    shard.shard
                )));
            }
        }
        let shards = service.shards.iter().map(|s| (&s.schedule, &s.record));
        let merged = merge_shards(self.machines_per_shard, shards)?;
        Ok(RoutedReport {
            policy: self.policy,
            machines_per_shard: self.machines_per_shard,
            submissions,
            service,
            merged,
            wall_secs,
        })
    }
}
