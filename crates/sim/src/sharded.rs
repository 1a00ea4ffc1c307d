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
//! * [`ShardedStream`] — a stateful driver holding one [`ShardCore`] per
//!   shard: bursts are routed job by job, relabelled to each shard's dense
//!   local ids and fed through the shard's core, which prices them exactly
//!   as the serving daemon's worker does.
//!   [`ShardedStream::merged_frontier`] zips the per-shard committed
//!   frontiers into one logical schedule ([`pss_types::merge_frontiers`])
//!   at any point mid-stream.
//! * [`ShardedStreaming`] — the one-call harness (the sharded sibling of
//!   [`StreamingSimulation`]): drives
//!   a whole instance through a sharded stream and reports the merged
//!   schedule, per-event decisions, latencies and price traces.  With
//!   `shards = 1` it is bit-identical to the unsharded simulator — the
//!   pin that makes drift measurements meaningful.
//! * [`sharding_drift`] — the sharding-cost oracle: the same workload run
//!   unsharded and sharded, with the decision-quality drift (value
//!   accepted, energy, total cost) reported side by side.
//!
//! Everything here is single-threaded and deterministic: same instance,
//! same configuration ⇒ bit-identical reports ([`sharded_fields_equal`]).
//! The *throughput* story (real queues, worker threads, admission gates)
//! lives in `pss-serve`'s `StreamRouter`, which reuses [`RoutePolicy`]
//! unchanged.

use std::time::Instant;

use pss_types::{
    merge_frontiers, Decision, Instance, Job, JobId, OnlineAlgorithm, OnlineScheduler, Schedule,
    ScheduleError, ShardPiece,
};

use crate::engine::{coalesce_arrivals, nearest_rank, StreamingSimulation};
use crate::feed::{ShardCore, PRICE_SMOOTHING};

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

/// One logical arrival's outcome in a sharded stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedEvent {
    /// The logical stream's job id.
    pub job: JobId,
    /// The shard the router picked.
    pub shard: usize,
    /// The time the job was fed to its shard's run.
    pub feed_time: f64,
    /// Whether the shard's scheduler accepted the job.
    pub accepted: bool,
    /// The decision's dual value (λ_j accepted, lost value rejected).
    pub dual: f64,
    /// Wall-clock handling latency, amortised over the job's sub-burst.
    pub latency_secs: f64,
    /// Size of the sub-burst the job rode in on its shard.
    pub burst: usize,
}

/// A live sharded stream: one [`ShardCore`] per shard plus the routing
/// state.  Created by [`ShardedStream::start`]; driven by
/// [`on_burst`](ShardedStream::on_burst); observed mid-stream through
/// [`merged_frontier`](ShardedStream::merged_frontier); consumed by
/// [`finish`](ShardedStream::finish).
#[derive(Debug)]
pub struct ShardedStream<R: OnlineScheduler> {
    policy: RoutePolicy,
    machines_per_shard: usize,
    cores: Vec<ShardCore<R>>,
    price_traces: Vec<Vec<f64>>,
    job_maps: Vec<Vec<JobId>>,
    events: Vec<ShardedEvent>,
    next_seq: u64,
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
            price_traces: vec![Vec::new(); shards],
            job_maps: vec![Vec::new(); shards],
            events: Vec::new(),
            next_seq: 0,
        })
    }

    /// Routes and feeds one burst of simultaneous arrivals at time `now`,
    /// returning one decision per job in slice order.
    ///
    /// Each job is routed individually (`route(seq, prices)` with `seq`
    /// advancing per job), the burst is partitioned into per-shard
    /// sub-bursts preserving arrival order, and each sub-burst is
    /// relabelled to the shard's dense local ids and fed through the
    /// shard's core, which folds every decision into the shard's price.
    pub fn on_burst(&mut self, jobs: &[Job], now: f64) -> Result<Vec<Decision>, ScheduleError> {
        let shards = self.cores.len();
        // Route first: every job's shard is fixed by (seq, prices) before
        // any feeding updates the prices — within a burst the router sees
        // one consistent price snapshot, mirroring a paused daemon wave.
        let prices: Vec<f64> = self.cores.iter().map(ShardCore::price).collect();
        let mut routed: Vec<usize> = Vec::with_capacity(jobs.len());
        for _ in jobs {
            routed.push(self.policy.route(self.next_seq, &prices));
            self.next_seq += 1;
        }
        let mut subs: Vec<Vec<Job>> = vec![Vec::new(); shards];
        for (job, &shard) in jobs.iter().zip(&routed) {
            let mut local = *job;
            local.id = JobId(self.job_maps[shard].len());
            self.job_maps[shard].push(job.id);
            subs[shard].push(local);
        }
        let mut latencies = vec![0.0; shards];
        for (shard, sub) in subs.iter_mut().enumerate() {
            if sub.is_empty() {
                continue;
            }
            let core = &mut self.cores[shard];
            let started = Instant::now();
            core.feed(sub, now)?;
            latencies[shard] = started.elapsed().as_secs_f64() / sub.len() as f64;
            self.price_traces[shard].push(core.price());
        }
        // The k-th job routed to a shard takes its core's k-th decision.
        let mut taken = vec![0usize; shards];
        let mut out = Vec::with_capacity(jobs.len());
        for (job, &shard) in jobs.iter().zip(&routed) {
            let decision = self.cores[shard].decisions()[taken[shard]];
            taken[shard] += 1;
            self.events.push(ShardedEvent {
                job: job.id,
                shard,
                feed_time: now,
                accepted: decision.accepted,
                dual: decision.dual,
                latency_secs: latencies[shard],
                burst: subs[shard].len(),
            });
            out.push(decision);
        }
        Ok(out)
    }

    /// The merged logical frontier: the per-shard committed frontiers
    /// zipped into one schedule over `shards · machines_per_shard` lanes
    /// (see [`pss_types::merge_frontiers`]).  Inherits prefix stability
    /// from the shards — segments present in one merge reappear unchanged
    /// in every later merge.
    pub fn merged_frontier(&self) -> Result<Schedule, ScheduleError> {
        let pieces: Vec<ShardPiece<'_>> = self
            .cores
            .iter()
            .zip(&self.job_maps)
            .map(|(core, jobs)| ShardPiece {
                schedule: core.run().frontier(),
                jobs,
            })
            .collect();
        merge_frontiers(self.machines_per_shard, &pieces)
    }

    /// Finishes every shard run and reassembles the logical outcome.
    pub fn finish(self, algorithm: String) -> Result<ShardedReport, ScheduleError> {
        let batches = self.cores.iter().map(|core| core.state().batches).collect();
        let shard_schedules = self
            .cores
            .into_iter()
            .map(ShardCore::finish)
            .collect::<Result<Vec<_>, _>>()?;
        let pieces: Vec<ShardPiece<'_>> = shard_schedules
            .iter()
            .zip(&self.job_maps)
            .map(|(schedule, jobs)| ShardPiece {
                schedule,
                jobs: jobs.as_slice(),
            })
            .collect();
        let merged = merge_frontiers(self.machines_per_shard, &pieces)?;
        Ok(ShardedReport {
            algorithm,
            policy: self.policy,
            machines_per_shard: self.machines_per_shard,
            assignments: self.events.iter().map(|e| e.shard).collect(),
            events: self.events,
            batches,
            price_traces: self.price_traces,
            shard_schedules,
            merged,
        })
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
    /// One record per logical arrival, in sequence order.
    pub events: Vec<ShardedEvent>,
    /// The shard each arrival was routed to, in sequence order.
    pub assignments: Vec<usize>,
    /// Ingestion batches per shard.
    pub batches: Vec<usize>,
    /// The rolling dual price after each batch, per shard.
    pub price_traces: Vec<Vec<f64>>,
    /// Each shard's finished schedule (shard-local machine lanes and ids).
    pub shard_schedules: Vec<Schedule>,
    /// The merged logical schedule (lane-offset machines, logical ids).
    pub merged: Schedule,
}

impl ShardedReport {
    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.shard_schedules.len()
    }

    /// Logical arrivals accepted by their shard's scheduler.
    pub fn accepted_jobs(&self) -> usize {
        self.events.iter().filter(|e| e.accepted).count()
    }

    /// Total value of the accepted arrivals under `instance`'s values.
    pub fn value_accepted(&self, instance: &Instance) -> f64 {
        self.events
            .iter()
            .filter(|e| e.accepted)
            .map(|e| instance.job(e.job).value)
            .sum()
    }

    /// Energy of the merged logical schedule — by the merge identity,
    /// equal to the sum of the shard energies.
    pub fn merged_energy(&self, alpha: f64) -> f64 {
        self.merged.energy(alpha)
    }

    /// Total cost (energy + lost value) of the merged schedule against the
    /// logical instance.
    pub fn total_cost(&self, instance: &Instance) -> f64 {
        self.merged.cost(instance).total()
    }

    /// Arrival counts per shard — the load-balance view.
    pub fn shard_loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.shards()];
        for e in &self.events {
            loads[e.shard] += 1;
        }
        loads
    }

    /// Max/mean ratio of the per-shard arrival counts (1.0 is perfectly
    /// balanced; `S` means one shard took everything).
    pub fn load_imbalance(&self) -> f64 {
        let loads = self.shard_loads();
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        let mean = self.events.len() as f64 / self.shards().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Nearest-rank percentile of the per-event handling latencies,
    /// pooled across shards.
    pub fn latency_percentile_secs(&self, p: f64) -> f64 {
        let mut sorted: Vec<f64> = self.events.iter().map(|e| e.latency_secs).collect();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, p)
    }
}

/// Bit-compares the deterministic fields of two sharded reports:
/// assignments, per-event decisions (shard, id, accepted, dual and feed
/// time as bits), price traces, shard schedules and the merged schedule.
/// Wall-clock latencies are excluded.
pub fn sharded_fields_equal(a: &ShardedReport, b: &ShardedReport) -> bool {
    let events = a.events.len() == b.events.len()
        && a.events.iter().zip(&b.events).all(|(x, y)| {
            x.job == y.job
                && x.shard == y.shard
                && x.accepted == y.accepted
                && x.dual.to_bits() == y.dual.to_bits()
                && x.feed_time.to_bits() == y.feed_time.to_bits()
                && x.burst == y.burst
        });
    let prices = a.price_traces.len() == b.price_traces.len()
        && a.price_traces.iter().zip(&b.price_traces).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        });
    let schedules_eq = |x: &Schedule, y: &Schedule| {
        x.machines == y.machines
            && x.segments.len() == y.segments.len()
            && x.segments.iter().zip(&y.segments).all(|(s, t)| {
                s.machine == t.machine
                    && s.start.to_bits() == t.start.to_bits()
                    && s.end.to_bits() == t.end.to_bits()
                    && s.speed.to_bits() == t.speed.to_bits()
                    && s.job == t.job
            })
    };
    events
        && prices
        && a.assignments == b.assignments
        && a.batches == b.batches
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
    let unsharded_value: f64 = unsharded
        .events
        .iter()
        .filter(|e| e.accepted)
        .map(|e| instance.job(e.job).value)
        .sum();
    let report = sharded.run(algo, instance)?;
    let drift = ShardingDrift {
        unsharded_value,
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
