//! Sharding *one* logical stream: routing policies, the in-process
//! sharded stream driver, and the sharding-cost oracle.
//!
//! Independent streams need no coordination; production traffic is one
//! logical stream.  This module partitions a single arrival sequence
//! across `S` independent scheduler runs and reassembles one logical
//! answer:
//!
//! * [`RoutePolicy`] — the pluggable routing decision, a *pure function*
//!   of the submission sequence number and the published per-shard prices
//!   (`route(seq, prices)`): deterministic hash-by-id, round-robin, or
//!   **cheapest-price** (argmin of the rolling dual-price EWMAs, exact
//!   ties rotated by sequence number — the paper's own congestion signal
//!   turned into a router, exactly the duals PD publishes).
//! * [`ShardedStream`] — a stateful driver holding one [`ShardCore`] and
//!   one [`FeedRecord`] per shard: bursts are routed job by job, relabelled
//!   to each shard's dense local ids and fed through the shard's core,
//!   which prices them exactly as the serving daemon's worker does and
//!   tags each entry with the job's logical id.
//!   [`ShardedStream::merged_frontier`] zips the per-shard committed
//!   frontiers into one logical schedule ([`pss_types::merge_frontiers`])
//!   at any point mid-stream.
//! * [`ShardedStreaming`] — the one-call harness (the sharded sibling of
//!   [`StreamingSimulation`]): drives
//!   a whole instance through a sharded stream and reports the shards'
//!   records, the routing log and the merged schedule.  With `shards = 1`
//!   its one record equals the unsharded simulator's — the pin that makes
//!   drift measurements meaningful.
//! * [`ShardedOutcome`] — the logical figures of a stream sharded over
//!   records (value accepted, merged energy, loads), written once for this
//!   harness and `pss-serve`'s router.
//! * [`sharding_drift`] — the sharding-cost oracle: the same workload run
//!   unsharded and sharded, with the decision-quality drift (value
//!   accepted, energy, total cost) reported side by side.
//!
//! Everything here is single-threaded and deterministic: same instance,
//! same configuration ⇒ equal records, routing logs and schedules
//! ([`sharded_fields_equal`]).
//! The *throughput* story (real queues, worker threads, admission gates)
//! lives in `pss-serve`'s `StreamRouter`, which reuses [`RoutePolicy`]
//! unchanged.

use pss_types::{
    merge_frontiers, Instance, Job, JobId, OnlineAlgorithm, OnlineScheduler, Schedule,
    ScheduleError, ShardPiece,
};

use crate::engine::{coalesce_arrivals, nearest_rank, StreamReport, StreamingSimulation};
use crate::feed::{ShardCore, PRICE_SMOOTHING};
use crate::record::FeedRecord;

/// How the router picks a shard for each submission.
///
/// Routing is a pure function `(seq, prices) -> shard`: the submission's
/// sequence number in the logical stream and the shards' published rolling
/// dual prices fully determine the choice, so a replay with the same
/// sequence and the same price trajectory routes identically — the
/// determinism pin of the sharded suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Deterministic hash of the submission sequence number (SplitMix64
    /// finalizer), ignoring prices: a job's shard never changes across
    /// runs for a fixed shard count.
    HashById,
    /// `seq mod S`: perfectly balanced arrival counts, ignoring prices.
    RoundRobin,
    /// Route to the shard with the lowest published rolling dual price —
    /// cross-shard admission driven by the paper's own congestion signal.
    /// Exact price ties rotate by sequence number (`seq mod #tied`), so a
    /// cold start with every price at 0.0 degrades to round-robin instead
    /// of herding the whole stream onto shard 0.
    CheapestPrice,
}

impl RoutePolicy {
    /// All policies, in a fixed sweep order.
    pub fn all() -> [RoutePolicy; 3] {
        [
            RoutePolicy::HashById,
            RoutePolicy::RoundRobin,
            RoutePolicy::CheapestPrice,
        ]
    }

    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            RoutePolicy::HashById => "hash",
            RoutePolicy::RoundRobin => "round-robin",
            RoutePolicy::CheapestPrice => "cheapest-price",
        }
    }

    /// Routes submission number `seq` given the shards' published prices.
    /// Total: an empty price slice routes to shard 0.
    pub fn route(&self, seq: u64, prices: &[f64]) -> usize {
        let shards = prices.len().max(1);
        match self {
            RoutePolicy::HashById => (splitmix64(seq) % shards as u64) as usize,
            RoutePolicy::RoundRobin => (seq % shards as u64) as usize,
            RoutePolicy::CheapestPrice => {
                if prices.is_empty() {
                    return 0;
                }
                let cheapest = prices
                    .iter()
                    .copied()
                    .min_by(f64::total_cmp)
                    .expect("non-empty price slice");
                // Rotate across exact ties by sequence number: still a
                // pure function of (seq, prices), so replay with the same
                // price trajectory routes identically, but an all-tied
                // cold start spreads like round-robin instead of pinning
                // every submission on the lowest index.
                let tied: Vec<usize> = prices
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.total_cmp(&cheapest).is_eq())
                    .map(|(i, _)| i)
                    .collect();
                tied[(seq % tied.len() as u64) as usize]
            }
        }
    }
}

/// SplitMix64 finalizer: the avalanche mix used to spread sequence numbers
/// across shards (same mixer the workspace RNG uses for seeding).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A live sharded stream: one [`ShardCore`] and one [`FeedRecord`] per
/// shard plus the routing log.  Created by [`ShardedStream::start`];
/// driven by [`on_burst`](ShardedStream::on_burst); observed mid-stream
/// through [`merged_frontier`](ShardedStream::merged_frontier); consumed
/// by [`finish`](ShardedStream::finish).
#[derive(Debug)]
pub struct ShardedStream<R: OnlineScheduler> {
    policy: RoutePolicy,
    machines_per_shard: usize,
    cores: Vec<ShardCore<R>>,
    records: Vec<FeedRecord>,
    assignments: Vec<usize>,
}

impl<R: OnlineScheduler> ShardedStream<R> {
    /// Starts one fresh run per shard (each over `machines_per_shard`
    /// machines) with all published prices at zero.
    pub fn start<A: OnlineAlgorithm<Run = R> + ?Sized>(
        algo: &A,
        shards: usize,
        machines_per_shard: usize,
        alpha: f64,
        policy: RoutePolicy,
        smoothing: f64,
    ) -> Result<Self, ScheduleError> {
        if shards == 0 {
            return Err(ScheduleError::Internal(
                "a sharded stream needs at least one shard".into(),
            ));
        }
        if !(smoothing > 0.0 && smoothing <= 1.0) {
            return Err(ScheduleError::Internal(format!(
                "price_smoothing must lie in (0, 1], got {smoothing}"
            )));
        }
        let mut cores = Vec::with_capacity(shards);
        for _ in 0..shards {
            cores.push(ShardCore::new(
                algo.start(machines_per_shard, alpha)?,
                smoothing,
            ));
        }
        Ok(Self {
            policy,
            machines_per_shard,
            cores,
            records: vec![FeedRecord::default(); shards],
            assignments: Vec::new(),
        })
    }

    /// Routes and feeds one burst of simultaneous arrivals at time `now`.
    ///
    /// Each job is routed individually (`route(seq, prices)` with `seq`
    /// advancing per job), the burst is partitioned into per-shard
    /// sub-bursts preserving arrival order, and each sub-burst is
    /// relabelled to the shard's dense local ids and fed through the
    /// shard's core into the shard's record, tagged with the jobs' logical
    /// ids; the core folds every decision into the shard's price.
    pub fn on_burst(&mut self, jobs: &[Job], now: f64) -> Result<(), ScheduleError> {
        // Route first: every job's shard is fixed by (seq, prices) before
        // any feeding updates the prices — within a burst the router sees
        // one consistent price snapshot, mirroring a paused daemon wave.
        let prices: Vec<f64> = self.cores.iter().map(ShardCore::price).collect();
        let first = self.assignments.len();
        for seq in first..first + jobs.len() {
            let shard = self.policy.route(seq as u64, &prices);
            self.assignments.push(shard);
        }
        let routed = &self.assignments[first..];
        for (shard, (core, record)) in self.cores.iter_mut().zip(&mut self.records).enumerate() {
            if !routed.contains(&shard) {
                continue;
            }
            let base = record.jobs.len();
            let sub = jobs.iter().zip(routed).filter(|&(_, &s)| s == shard);
            let sub = sub.enumerate().map(|(k, (job, _))| {
                let local = Job {
                    id: JobId(base + k),
                    ..*job
                };
                (local, job.id.index() as u64)
            });
            core.feed(record, sub, now)?;
        }
        Ok(())
    }

    /// The merged logical frontier: the per-shard committed frontiers
    /// zipped into one schedule over `shards · machines_per_shard` lanes
    /// (see [`pss_types::merge_frontiers`]).  Inherits prefix stability
    /// from the shards — segments present in one merge reappear unchanged
    /// in every later merge.
    pub fn merged_frontier(&self) -> Result<Schedule, ScheduleError> {
        let frontiers = self.cores.iter().map(|core| core.run().frontier());
        merge_shards(self.machines_per_shard, frontiers.zip(&self.records))
    }

    /// Finishes every shard run and reassembles the logical outcome.
    pub fn finish(self, algorithm: String) -> Result<ShardedReport, ScheduleError> {
        let shard_schedules = self
            .cores
            .into_iter()
            .map(ShardCore::finish)
            .collect::<Result<Vec<_>, _>>()?;
        let merged = merge_shards(
            self.machines_per_shard,
            shard_schedules.iter().zip(&self.records),
        )?;
        Ok(ShardedReport {
            algorithm,
            policy: self.policy,
            machines_per_shard: self.machines_per_shard,
            records: self.records,
            assignments: self.assignments,
            shard_schedules,
            merged,
        })
    }
}

/// Merges `(schedule, record)` pairs, one per shard, into one logical
/// schedule over `machines_per_shard` lanes per shard
/// ([`pss_types::merge_frontiers`]): each shard's dense local ids map back
/// to the logical ids its record's entries are tagged with.
pub fn merge_shards<'a>(
    machines_per_shard: usize,
    shards: impl IntoIterator<Item = (&'a Schedule, &'a FeedRecord)>,
) -> Result<Schedule, ScheduleError> {
    let (schedules, maps): (Vec<&Schedule>, Vec<Vec<JobId>>) = shards
        .into_iter()
        .map(|(schedule, record)| {
            let ids = record.events.iter().map(|e| JobId(e.tag as usize));
            (schedule, ids.collect())
        })
        .unzip();
    let pieces: Vec<ShardPiece<'_>> = schedules
        .into_iter()
        .zip(&maps)
        .map(|(schedule, jobs)| ShardPiece { schedule, jobs })
        .collect();
    merge_frontiers(machines_per_shard, &pieces)
}

/// A logical stream sharded over `S` runs, as a report holds it: one
/// [`FeedRecord`] per shard, whose entries are tagged with the logical job
/// ids, and the merged logical schedule.  The in-process
/// [`ShardedReport`], `pss-serve`'s routed report and the unsharded
/// [`StreamReport`] (`S = 1`) implement it, so the logical figures are
/// written once.
pub trait ShardedOutcome {
    /// The shards' records, in shard order.
    fn records(&self) -> Vec<&FeedRecord>;

    /// The merged logical schedule.
    fn merged(&self) -> &Schedule;

    /// Total value of the logical jobs accepted by their shard's run, under
    /// `instance`'s values.
    fn value_accepted(&self, instance: &Instance) -> f64 {
        let events = self.records().into_iter().flat_map(|r| &r.events);
        let accepted = events.filter(|e| e.accepted);
        accepted
            .map(|e| instance.job(JobId(e.tag as usize)).value)
            .sum()
    }

    /// Energy of the merged logical schedule — by the merge identity, equal
    /// to the sum of the shard energies.
    fn merged_energy(&self, alpha: f64) -> f64 {
        self.merged().energy(alpha)
    }

    /// Jobs fed per shard — the load-balance view.
    fn shard_loads(&self) -> Vec<usize> {
        self.records().iter().map(|r| r.events.len()).collect()
    }

    /// Max/mean ratio of the per-shard loads (1.0 is perfectly balanced;
    /// `S` means one shard took everything).
    fn load_imbalance(&self) -> f64 {
        let loads = self.shard_loads();
        let total: usize = loads.iter().sum();
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        let mean = total as f64 / loads.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }
}

/// What a sharded run of one logical stream produced.
#[derive(Debug, Clone)]
pub struct ShardedReport {
    /// The algorithm's display name.
    pub algorithm: String,
    /// The routing policy that produced the assignment.
    pub policy: RoutePolicy,
    /// Machines per shard run (the merged schedule spans
    /// `shards · machines_per_shard` lanes).
    pub machines_per_shard: usize,
    /// Each shard's record: the jobs it fed under dense local ids, one
    /// entry per job tagged with its logical id, and its price trace.
    pub records: Vec<FeedRecord>,
    /// The shard each arrival was routed to, in sequence order.
    pub assignments: Vec<usize>,
    /// Each shard's finished schedule (shard-local machine lanes and ids).
    pub shard_schedules: Vec<Schedule>,
    /// The merged logical schedule (lane-offset machines, logical ids).
    pub merged: Schedule,
}

/// The unsharded run is the one-shard case: its record is tagged with the
/// instance ids, and its schedule is the merged one.
impl ShardedOutcome for StreamReport {
    fn records(&self) -> Vec<&FeedRecord> {
        vec![&self.record]
    }

    fn merged(&self) -> &Schedule {
        &self.schedule
    }
}

impl ShardedOutcome for ShardedReport {
    fn records(&self) -> Vec<&FeedRecord> {
        self.records.iter().collect()
    }

    fn merged(&self) -> &Schedule {
        &self.merged
    }
}

impl ShardedReport {
    /// Total cost (energy + lost value) of the merged schedule against the
    /// logical instance.
    pub fn total_cost(&self, instance: &Instance) -> f64 {
        self.merged.cost(instance).total()
    }

    /// Nearest-rank percentile of the per-job handling latencies, pooled
    /// across shards.
    pub fn latency_percentile_secs(&self, p: f64) -> f64 {
        let events = self.records.iter().flat_map(|r| &r.events);
        let mut sorted: Vec<f64> = events.map(|e| e.latency_secs).collect();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, p)
    }
}

/// Whether two sharded reports agree on every deterministic field: the
/// shards' records (`==`, bit for bit), the routing log, and the shard and
/// merged schedules, bit for bit.  Wall-clock latencies are excluded.
pub fn sharded_fields_equal(a: &ShardedReport, b: &ShardedReport) -> bool {
    let schedules_eq = |x: &Schedule, y: &Schedule| {
        let bits = |s: &pss_types::Segment| {
            let times = [s.start, s.end, s.speed].map(f64::to_bits);
            (s.machine, s.job, times)
        };
        x.machines == y.machines && x.segments.iter().map(bits).eq(y.segments.iter().map(bits))
    };
    a.records == b.records
        && a.assignments == b.assignments
        && a.shard_schedules.len() == b.shard_schedules.len()
        && a.shard_schedules
            .iter()
            .zip(&b.shard_schedules)
            .all(|(x, y)| schedules_eq(x, y))
        && schedules_eq(&a.merged, &b.merged)
}

/// One-call harness: drives a whole instance through a sharded stream
/// with burst coalescing, the sharded sibling of
/// [`StreamingSimulation`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedStreaming {
    /// Number of shards `S` (each gets its own scheduler run over the
    /// instance's machine count).
    pub shards: usize,
    /// The routing policy.
    pub policy: RoutePolicy,
    /// Burst-coalescing window, exactly as in `StreamingSimulation`.
    pub coalesce_window: f64,
    /// EWMA weight β of each shard's rolling dual price.
    pub price_smoothing: f64,
}

impl Default for ShardedStreaming {
    fn default() -> Self {
        Self {
            shards: 1,
            policy: RoutePolicy::CheapestPrice,
            coalesce_window: 0.0,
            price_smoothing: PRICE_SMOOTHING,
        }
    }
}

impl ShardedStreaming {
    /// Feeds the instance's coalesced arrival bursts through a sharded
    /// stream (each shard run over `instance.machines` machines) and
    /// returns the logical report.
    pub fn run<A: OnlineAlgorithm + ?Sized>(
        &self,
        algo: &A,
        instance: &Instance,
    ) -> Result<ShardedReport, ScheduleError> {
        let mut stream = ShardedStream::start(
            algo,
            self.shards,
            instance.machines,
            instance.alpha,
            self.policy,
            self.price_smoothing,
        )?;
        let mut burst_jobs = Vec::new();
        for (feed_time, ids) in coalesce_arrivals(instance, self.coalesce_window.max(0.0)) {
            burst_jobs.clear();
            burst_jobs.extend(ids.iter().map(|&id| *instance.job(id)));
            stream.on_burst(&burst_jobs, feed_time)?;
        }
        stream.finish(algo.algorithm_name())
    }
}

/// The sharding-cost oracle's verdict: the same workload unsharded vs
/// sharded, decision quality side by side.
#[derive(Debug, Clone, Copy)]
pub struct ShardingDrift {
    /// Total value the unsharded (S = 1) run accepted.
    pub unsharded_value: f64,
    /// Total value the sharded run accepted.
    pub sharded_value: f64,
    /// Energy of the unsharded schedule.
    pub unsharded_energy: f64,
    /// Energy of the merged sharded schedule.
    pub sharded_energy: f64,
    /// Total cost (energy + lost value) of the unsharded run.
    pub unsharded_cost: f64,
    /// Total cost of the merged sharded run.
    pub sharded_cost: f64,
}

/// Runs the sharding-cost oracle: the same instance through the plain
/// unsharded simulator and through `sharded`, reporting the drift.  The
/// caller turns the costs into competitive ratios against its lower
/// bound of choice.
pub fn sharding_drift<A: OnlineAlgorithm + ?Sized>(
    algo: &A,
    instance: &Instance,
    sharded: &ShardedStreaming,
) -> Result<(ShardedReport, ShardingDrift), ScheduleError> {
    let unsharded =
        StreamingSimulation::with_coalescing(sharded.coalesce_window).run(algo, instance)?;
    let report = sharded.run(algo, instance)?;
    let drift = ShardingDrift {
        unsharded_value: unsharded.value_accepted(instance),
        sharded_value: report.value_accepted(instance),
        unsharded_energy: unsharded.schedule.energy(instance.alpha),
        sharded_energy: report.merged_energy(instance.alpha),
        unsharded_cost: unsharded.schedule.cost(instance).total(),
        sharded_cost: report.total_cost(instance),
    };
    Ok((report, drift))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_a_pure_total_function() {
        let prices = [0.5, 0.2, 0.2, 0.9];
        for policy in RoutePolicy::all() {
            for seq in 0..64 {
                let a = policy.route(seq, &prices);
                let b = policy.route(seq, &prices);
                assert_eq!(a, b);
                assert!(a < prices.len());
            }
            // Total on the empty fleet.
            assert_eq!(policy.route(7, &[]), 0);
        }
        // Cheapest price: argmin, exact ties rotated by sequence number
        // (indices 1 and 2 are tied at 0.2 here).
        assert_eq!(RoutePolicy::CheapestPrice.route(0, &prices), 1);
        assert_eq!(RoutePolicy::CheapestPrice.route(1, &prices), 2);
        assert_eq!(RoutePolicy::CheapestPrice.route(2, &prices), 1);
        // An all-tied cold start degrades to round-robin.
        let cold = [0.0; 4];
        for seq in 0..8 {
            assert_eq!(
                RoutePolicy::CheapestPrice.route(seq, &cold),
                RoutePolicy::RoundRobin.route(seq, &cold)
            );
        }
        assert_eq!(RoutePolicy::RoundRobin.route(6, &prices), 2);
        // Hash ignores prices entirely.
        let other = [9.0, 0.0, 1.0, 2.0];
        for seq in 0..64 {
            assert_eq!(
                RoutePolicy::HashById.route(seq, &prices),
                RoutePolicy::HashById.route(seq, &other)
            );
        }
    }

    #[test]
    fn hash_routing_spreads_across_shards() {
        let prices = vec![0.0; 8];
        let mut hits = [0usize; 8];
        for seq in 0..4096 {
            hits[RoutePolicy::HashById.route(seq, &prices)] += 1;
        }
        for (shard, &h) in hits.iter().enumerate() {
            assert!(
                h > 4096 / 16,
                "shard {shard} starved by the hash mixer: {h} of 4096"
            );
        }
    }
}
