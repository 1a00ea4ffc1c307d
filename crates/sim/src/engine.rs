//! The discrete-event schedule simulator and the streaming online event
//! loop.
//!
//! [`Simulation`] replays a complete schedule and reports per-machine and
//! per-job execution statistics.  [`StreamingSimulation`] drives an
//! event-driven online algorithm ([`OnlineAlgorithm`]) one coalesced burst
//! at a time (one arrival per burst by default) through a [`ShardCore`],
//! which records every decision in the run's [`FeedRecord`], before
//! replaying the finished schedule through [`Simulation`] — the runtime
//! view of the paper's online model.

use std::ops::Deref;

use pss_power::{AlphaPower, PowerFunction};
use pss_types::{
    num, Instance, JobId, OnlineAlgorithm, OnlineScheduler, Schedule, ScheduleError, Segment,
};

use crate::feed::{burst_len, ShardCore, PRICE_SMOOTHING};
use crate::record::FeedRecord;

/// Per-machine execution statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MachineStats {
    /// Time the machine spent running jobs.
    pub busy_time: f64,
    /// Time the machine was idle within the simulated horizon.
    pub idle_time: f64,
    /// Energy the machine consumed.
    pub energy: f64,
    /// Work the machine processed.
    pub work: f64,
    /// Maximum speed the machine ever ran at.
    pub peak_speed: f64,
    /// Utilisation `busy / (busy + idle)` (0 for an unused machine).
    pub utilization: f64,
}

/// Per-job execution outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job.
    pub job: JobId,
    /// Work processed for the job.
    pub work_done: f64,
    /// Whether the job was finished.
    pub finished: bool,
    /// Completion time (time at which the job's workload was fully
    /// processed), if finished.
    pub completion_time: Option<f64>,
    /// Slack `deadline − completion_time`, if finished.
    pub slack: Option<f64>,
    /// Number of preemptions: times the job stopped running and resumed
    /// later.
    pub preemptions: usize,
    /// Number of migrations: times the job resumed on a different machine
    /// than it last ran on.
    pub migrations: usize,
}

/// The full simulation report.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Simulated horizon `[start, end)`.
    pub horizon: (f64, f64),
    /// Per-machine statistics.
    pub machines: Vec<MachineStats>,
    /// Per-job outcomes, indexed by job id.
    pub jobs: Vec<JobOutcome>,
    /// Total energy (sum over machines).
    pub total_energy: f64,
    /// Total lost value (sum of values of unfinished jobs).
    pub lost_value: f64,
    /// Total number of preemptions.
    pub preemptions: usize,
    /// Total number of migrations.
    pub migrations: usize,
}

impl SimReport {
    /// Total cost `energy + lost value`, matching the paper's objective.
    pub fn total_cost(&self) -> f64 {
        self.total_energy + self.lost_value
    }

    /// Average machine utilisation.
    pub fn mean_utilization(&self) -> f64 {
        if self.machines.is_empty() {
            return 0.0;
        }
        self.machines.iter().map(|m| m.utilization).sum::<f64>() / self.machines.len() as f64
    }
}

/// The simulator: validates a schedule and replays it event by event.
#[derive(Debug, Clone, Copy, Default)]
pub struct Simulation;

impl Simulation {
    /// Replays `schedule` for `instance`, producing a [`SimReport`].
    ///
    /// The schedule must be feasible (this is checked first via
    /// [`validate_schedule`](pss_types::validate_schedule)); the simulation
    /// then walks each job's segments in time order, read from one
    /// [`Schedule::segments_by_job`] index, and each machine's segments, and
    /// accumulates the statistics.  For S segments and n jobs, checking plus
    /// replay cost O(S log S + n) (plus one pass over the segments per
    /// machine).
    pub fn run(
        &self,
        instance: &Instance,
        schedule: &Schedule,
    ) -> Result<SimReport, ScheduleError> {
        pss_types::validate_schedule(instance, schedule)?;
        let power = AlphaPower::new(instance.alpha);
        let m = instance.machines;
        let n = instance.len();

        let horizon = {
            let (ilo, ihi) = instance.horizon();
            match schedule.span() {
                Some((slo, shi)) => (ilo.min(slo), ihi.max(shi)),
                None => (ilo, ihi),
            }
        };

        // Walk each job's segments by start time to count preemptions and
        // migrations and to find completion times.
        let by_job = schedule.segments_by_job(n);
        let mut jobs = Vec::with_capacity(n);
        for job in &instance.jobs {
            let mut work_done = 0.0;
            let mut completion_time = None;
            let mut preemptions = 0usize;
            let mut migrations = 0usize;
            let mut prev: Option<&Segment> = None;
            for &seg in by_job.job(job.id) {
                if let Some(p) = prev {
                    if !num::approx_eq(p.end, seg.start) {
                        preemptions += 1;
                    }
                    if p.machine != seg.machine {
                        migrations += 1;
                    }
                }
                let before = work_done;
                work_done += seg.work_amount();
                if completion_time.is_none() && num::approx_ge(work_done, job.work) {
                    // The job completes inside this segment; interpolate.
                    let needed = job.work - before;
                    let t = if seg.speed > 0.0 {
                        seg.start + needed / seg.speed
                    } else {
                        seg.end
                    };
                    completion_time = Some(t.min(seg.end));
                }
                prev = Some(seg);
            }
            let finished = num::approx_ge(work_done, job.work);
            jobs.push(JobOutcome {
                job: job.id,
                work_done,
                finished,
                completion_time: if finished { completion_time } else { None },
                slack: if finished {
                    completion_time.map(|t| job.deadline - t)
                } else {
                    None
                },
                preemptions,
                migrations,
            });
        }

        // Per-machine statistics.
        let mut machines = vec![MachineStats::default(); m];
        for (machine, stats) in machines.iter_mut().enumerate() {
            for seg in schedule.machine_segments(machine) {
                stats.busy_time += seg.duration();
                stats.energy += power.energy_at_speed(seg.speed, seg.duration());
                stats.work += seg.work_amount();
                stats.peak_speed = stats.peak_speed.max(seg.speed);
            }
            let span = horizon.1 - horizon.0;
            stats.idle_time = (span - stats.busy_time).max(0.0);
            stats.utilization = if span > 0.0 {
                stats.busy_time / span
            } else {
                0.0
            };
        }

        let total_energy = num::stable_sum(machines.iter().map(|s| s.energy));
        let lost_value = num::stable_sum(
            jobs.iter()
                .filter(|o| !o.finished)
                .map(|o| instance.job(o.job).value),
        );
        let preemptions = jobs.iter().map(|o| o.preemptions).sum();
        let migrations = jobs.iter().map(|o| o.migrations).sum();

        Ok(SimReport {
            horizon,
            machines,
            jobs,
            total_energy,
            lost_value,
            preemptions,
            migrations,
        })
    }
}

/// The result of one streaming run: the feed record, the finished
/// schedule, and the execution report of replaying it.  Derefs to its
/// [`FeedRecord`], so `report.events` reads the decisions.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Name of the algorithm that was driven.
    pub algorithm: String,
    /// What the core decided, in arrival order.  Each entry's tag is the
    /// job's instance id.
    pub record: FeedRecord,
    /// Committed frontier segments after each batch.
    pub frontier_segments: Vec<usize>,
    /// Number of ingestion calls made (`on_arrivals` batches; equals
    /// `events.len()` in per-event mode).
    pub batches: usize,
    /// The finished schedule.
    pub schedule: Schedule,
    /// The execution report of replaying `schedule`.
    pub report: SimReport,
}

impl Deref for StreamReport {
    type Target = FeedRecord;

    fn deref(&self) -> &FeedRecord {
        &self.record
    }
}

impl StreamReport {
    /// Total cost of the finished schedule (energy + lost value).
    pub fn total_cost(&self) -> f64 {
        self.report.total_cost()
    }
}

/// The nearest-rank `p`-th percentile (`0 ≤ p ≤ 100`) of an
/// ascending-sorted sample list; 0 for an empty list.  The single
/// percentile definition shared by [`FeedRecord`]'s latencies, the sharded
/// report (`pss_sim::sharded`) and the `pss-serve` daemon's queue-depth
/// statistics, so per-shard, pooled and service-level numbers can never
/// follow different formulas.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Partitions an instance's arrival stream into coalesced ingestion bursts:
/// each burst is a maximal run of consecutive arrivals (in arrival order)
/// whose release times lie within `window` of the burst's **first** release
/// ([`burst_len`]).  Returned as `(feed_time, job ids)` pairs, where
/// `feed_time` is the burst's *last* (largest) release — feeding the whole
/// burst there keeps every job's `check_arrival` ingress contract satisfied
/// (`now ≥ release`).
///
/// `window = 0` yields one singleton burst per arrival, fed at its own
/// release, including for bit-equal release times: the per-event stream.
pub fn coalesce_arrivals(instance: &Instance, window: f64) -> Vec<(f64, Vec<JobId>)> {
    let order = instance.arrival_order();
    let mut bursts: Vec<(f64, Vec<JobId>)> = Vec::new();
    let mut i = 0usize;
    while i < order.len() {
        let releases = order[i..].iter().map(|&id| instance.job(id).release);
        let j = i + burst_len(releases, window);
        let feed_time = instance.job(order[j - 1]).release;
        bursts.push((feed_time, order[i..j].to_vec()));
        i = j;
    }
    bursts
}

/// What a streaming run has fed so far: its record and the frontier size
/// after each batch.
pub(crate) type Fed = (FeedRecord, Vec<usize>);

/// Feeds one burst of `instance`'s jobs through `core` at `feed_time` into
/// the record, tagging each job with its instance id, and appends the
/// post-burst frontier size.
pub(crate) fn ingest_batch<R: OnlineScheduler>(
    core: &mut ShardCore<R>,
    instance: &Instance,
    feed_time: f64,
    ids: &[JobId],
    (record, frontier): &mut Fed,
) -> Result<(), ScheduleError> {
    let burst = ids.iter().map(|&id| (*instance.job(id), id.index() as u64));
    core.feed(record, burst, feed_time)?;
    frontier.push(core.run().frontier().segments.len());
    Ok(())
}

/// Finishes a run and wraps its record into a [`StreamReport`], validating
/// and replaying the schedule through [`Simulation`].
pub(crate) fn finish_stream<R: OnlineScheduler>(
    algorithm: String,
    core: ShardCore<R>,
    instance: &Instance,
    (record, frontier_segments): Fed,
) -> Result<StreamReport, ScheduleError> {
    let batches = core.state().batches;
    let schedule = core.finish()?;
    let report = Simulation.run(instance, &schedule)?;
    Ok(StreamReport {
        algorithm,
        record,
        frontier_segments,
        batches,
        schedule,
        report,
    })
}

/// Drives an event-driven online algorithm over an instance's arrival
/// stream, one coalesced burst at a time through a [`ShardCore`], and
/// reports the [`FeedRecord`] the core wrote.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamingSimulation {
    /// Width of the burst-coalescing window: arrivals within this much of a
    /// burst's first release are fed together through
    /// [`OnlineScheduler::on_arrivals`] at the burst's last release (see
    /// [`coalesce_arrivals`]).  `0` (the default) makes every arrival a
    /// burst of its own, fed at its own release — the one-job burst that
    /// [`OnlineScheduler::on_arrival`] also feeds.
    ///
    /// Coalescing deliberately treats near-simultaneous arrivals as
    /// simultaneous: jobs are fed up to one window *later* than their
    /// release.  Replanning algorithms catch up (they plan the *remaining*
    /// work), but fixed-rate algorithms like AVR permanently under-process
    /// a delayed job by `density × delay`, and a job whose deadline the
    /// delay passes is rejected at its value without being shown to the
    /// run — keep the window far below the jobs' time scale (it models
    /// timestamp jitter, not load shedding).
    pub coalesce_window: f64,
}

impl StreamingSimulation {
    /// A simulator with the given burst-coalescing window.
    pub fn with_coalescing(window: f64) -> Self {
        Self {
            coalesce_window: window.max(0.0),
        }
    }

    /// Feeds the instance's jobs to a fresh run of `algo` in arrival order,
    /// one coalesced burst per [`ShardCore::feed`] into the run's
    /// [`FeedRecord`], then finishes the run, validates the schedule and
    /// replays it through [`Simulation`].
    pub fn run<A: OnlineAlgorithm + ?Sized>(
        &self,
        algo: &A,
        instance: &Instance,
    ) -> Result<StreamReport, ScheduleError> {
        let mut core = ShardCore::new(algo.start_for(instance)?, PRICE_SMOOTHING);
        let mut fed: Fed = (FeedRecord::with_capacity(instance.len()), Vec::new());
        for (feed_time, ids) in coalesce_arrivals(instance, self.coalesce_window) {
            ingest_batch(&mut core, instance, feed_time, &ids, &mut fed)?;
        }
        finish_stream(algo.algorithm_name(), core, instance, fed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_types::Segment;

    /// The size of the batch the `i`-th arrival rode in.
    fn burst_width(stream: &StreamReport, i: usize) -> usize {
        let batch = stream.events[i].batch;
        stream.events.iter().filter(|e| e.batch == batch).count()
    }

    fn instance() -> Instance {
        Instance::from_tuples(2, 2.0, vec![(0.0, 4.0, 2.0, 5.0), (1.0, 3.0, 1.0, 2.0)]).unwrap()
    }

    #[test]
    fn simulation_matches_schedule_cost() {
        let inst = instance();
        let mut s = Schedule::empty(2);
        s.push(Segment::work(0, 0.0, 4.0, 0.5, JobId(0)));
        s.push(Segment::work(1, 1.0, 3.0, 0.5, JobId(1)));
        let report = Simulation.run(&inst, &s).unwrap();
        let cost = s.cost(&inst);
        assert!((report.total_cost() - cost.total()).abs() < 1e-9);
        assert_eq!(report.lost_value, 0.0);
        assert!(report.jobs.iter().all(|j| j.finished));
    }

    #[test]
    fn completion_times_and_slack_are_interpolated() {
        let inst = instance();
        let mut s = Schedule::empty(2);
        // Job 0 finishes exactly at t = 4 (work 2 at speed 0.5).
        s.push(Segment::work(0, 0.0, 4.0, 0.5, JobId(0)));
        // Job 1 runs at speed 1 from t=1, needs 1 unit of work -> done at 2.
        s.push(Segment::work(1, 1.0, 3.0, 1.0, JobId(1)));
        let report = Simulation.run(&inst, &s).unwrap();
        // Overshoot is permitted by the validator but completion is at the
        // point the workload is reached.
        assert!((report.jobs[0].completion_time.unwrap() - 4.0).abs() < 1e-9);
        assert!((report.jobs[1].completion_time.unwrap() - 2.0).abs() < 1e-9);
        assert!((report.jobs[1].slack.unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn preemptions_and_migrations_are_counted() {
        let inst = Instance::from_tuples(2, 2.0, vec![(0.0, 10.0, 3.0, 1.0)]).unwrap();
        let mut s = Schedule::empty(2);
        // Run, pause, resume on another machine.
        s.push(Segment::work(0, 0.0, 1.0, 1.0, JobId(0)));
        s.push(Segment::work(1, 2.0, 4.0, 1.0, JobId(0)));
        let report = Simulation.run(&inst, &s).unwrap();
        assert_eq!(report.preemptions, 1);
        assert_eq!(report.migrations, 1);
    }

    #[test]
    fn unfinished_jobs_contribute_lost_value() {
        let inst = instance();
        let s = Schedule::empty(2);
        let report = Simulation.run(&inst, &s).unwrap();
        assert_eq!(report.total_energy, 0.0);
        assert!((report.lost_value - 7.0).abs() < 1e-12);
        assert!(report.jobs.iter().all(|j| !j.finished));
    }

    #[test]
    fn machine_stats_track_utilization_and_peak_speed() {
        let inst = instance();
        let mut s = Schedule::empty(2);
        s.push(Segment::work(0, 0.0, 2.0, 1.0, JobId(0)));
        s.push(Segment::work(1, 1.0, 3.0, 0.5, JobId(1)));
        let report = Simulation.run(&inst, &s).unwrap();
        assert!((report.machines[0].busy_time - 2.0).abs() < 1e-12);
        assert!((report.machines[0].peak_speed - 1.0).abs() < 1e-12);
        assert!((report.machines[0].utilization - 0.5).abs() < 1e-12);
        assert!((report.machines[1].busy_time - 2.0).abs() < 1e-12);
        assert!(report.mean_utilization() > 0.0);
    }

    #[test]
    fn infeasible_schedules_are_rejected() {
        let inst = instance();
        let mut s = Schedule::empty(2);
        s.push(Segment::work(0, 0.0, 5.0, 1.0, JobId(0))); // outside window
        assert!(Simulation.run(&inst, &s).is_err());
    }

    #[test]
    fn streaming_simulation_traces_every_arrival_and_matches_batch_cost() {
        use pss_baselines::AvrScheduler;
        use pss_types::Scheduler;

        let inst = Instance::from_tuples(
            1,
            2.0,
            vec![
                (0.0, 4.0, 2.0, 5.0),
                (1.0, 3.0, 1.0, 2.0),
                (2.0, 5.0, 1.5, 3.0),
            ],
        )
        .unwrap();
        let stream = StreamingSimulation::default()
            .run(&AvrScheduler, &inst)
            .unwrap();
        assert_eq!(stream.algorithm, "AVR");
        assert_eq!(stream.events.len(), inst.len());
        assert_eq!(stream.accepted(), inst.len());
        assert_eq!(stream.rejected(), 0);
        assert!((stream.acceptance_rate() - 1.0).abs() < 1e-12);
        assert!(stream.mean_latency_secs() >= 0.0);
        assert!(stream.max_latency_secs() >= stream.mean_latency_secs());
        // Event times follow the arrival order and the frontier only grows.
        for pair in stream.events.windows(2) {
            assert!(pair[0].release <= pair[1].release);
        }
        for pair in stream.frontier_segments.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
        // The streamed schedule costs the same as the batch adapter's.
        let batch_cost = AvrScheduler.schedule(&inst).unwrap().cost(&inst).total();
        assert!((stream.total_cost() - batch_cost).abs() < 1e-9 * batch_cost.max(1.0));
    }

    #[test]
    fn latency_percentiles_follow_nearest_rank() {
        use pss_baselines::AvrScheduler;

        let inst = Instance::from_tuples(
            1,
            2.0,
            vec![
                (0.0, 4.0, 2.0, 5.0),
                (1.0, 3.0, 1.0, 2.0),
                (2.0, 5.0, 1.5, 3.0),
            ],
        )
        .unwrap();
        let mut stream = StreamingSimulation::default()
            .run(&AvrScheduler, &inst)
            .unwrap();
        // Install deterministic latencies to pin the percentile math.
        for (i, e) in stream.record.events.iter_mut().enumerate() {
            e.latency_secs = (i + 1) as f64; // 1, 2, 3
        }
        assert_eq!(stream.latency_percentile_secs(50.0), 2.0);
        assert_eq!(stream.latency_percentile_secs(95.0), 3.0);
        assert_eq!(stream.latency_percentile_secs(99.0), 3.0);
        assert_eq!(stream.latency_percentile_secs(0.0), 1.0);
        assert_eq!(stream.total_arrival_secs(), 6.0);
    }

    #[test]
    fn empty_and_single_sample_streams_have_safe_statistics() {
        use pss_baselines::AvrScheduler;

        // Empty stream: every statistic must be defined (no NaN, no
        // division by zero).
        let empty = Instance::from_tuples(1, 2.0, vec![]).unwrap();
        let stream = StreamingSimulation::default()
            .run(&AvrScheduler, &empty)
            .unwrap();
        assert_eq!(stream.events.len(), 0);
        assert_eq!(stream.batches, 0);
        assert_eq!(stream.acceptance_rate(), 1.0);
        assert_eq!(stream.mean_latency_secs(), 0.0);
        assert_eq!(stream.max_latency_secs(), 0.0);
        assert_eq!(stream.latency_percentile_secs(50.0), 0.0);
        assert_eq!(stream.total_arrival_secs(), 0.0);
        assert!(stream.total_cost().is_finite());

        // Single-sample stream: every percentile is that sample.
        let single = Instance::from_tuples(1, 2.0, vec![(0.0, 2.0, 1.0, 1.0)]).unwrap();
        let mut stream = StreamingSimulation::default()
            .run(&AvrScheduler, &single)
            .unwrap();
        stream.record.events[0].latency_secs = 3.5;
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(stream.latency_percentile_secs(p), 3.5);
        }
        assert_eq!(stream.mean_latency_secs(), 3.5);
        assert_eq!(stream.batches, 1);
        assert_eq!(burst_width(&stream, 0), 1);
    }

    #[test]
    fn coalescing_window_batches_near_simultaneous_arrivals() {
        use pss_baselines::AvrScheduler;

        // Two bursts of two (1e-5 apart) and a lone straggler.
        let inst = Instance::from_tuples(
            1,
            2.0,
            vec![
                (0.0, 4.0, 1.0, 1.0),
                (1e-5, 4.0, 1.0, 1.0),
                (1.0, 5.0, 1.0, 1.0),
                (1.0 + 1e-5, 5.0, 1.0, 1.0),
                (2.0, 6.0, 1.0, 1.0),
            ],
        )
        .unwrap();
        let bursts = coalesce_arrivals(&inst, 1e-4);
        assert_eq!(bursts.len(), 3);
        assert_eq!(bursts[0].1.len(), 2);
        assert_eq!(bursts[1].1.len(), 2);
        assert_eq!(bursts[2].1.len(), 1);
        // Each burst is fed at its last release.
        assert_eq!(bursts[0].0, 1e-5);
        assert_eq!(bursts[2].0, 2.0);
        // Window 0: strict per-event partition, even for equal times.
        assert_eq!(coalesce_arrivals(&inst, 0.0).len(), 5);

        let coalesced = StreamingSimulation::with_coalescing(1e-4)
            .run(&AvrScheduler, &inst)
            .unwrap();
        assert_eq!(coalesced.batches, 3);
        assert_eq!(coalesced.events.len(), 5);
        assert_eq!(burst_width(&coalesced, 0), 2);
        assert_eq!(burst_width(&coalesced, 4), 1);
        // Burst members share the amortised latency and the post-burst
        // frontier size (one per batch).
        assert_eq!(
            coalesced.events[0].latency_secs,
            coalesced.events[1].latency_secs
        );
        assert_eq!(coalesced.events[0].batch, coalesced.events[1].batch);
        assert_eq!(coalesced.frontier_segments.len(), coalesced.batches);
        // For a replanning algorithm (which replans *remaining* work, so a
        // burst-delayed feed catches up) the coalesced schedule matches the
        // per-event one up to the jitter scale.
        use pss_baselines::OaScheduler;
        let coalesced_oa = StreamingSimulation::with_coalescing(1e-4)
            .run(&OaScheduler, &inst)
            .unwrap();
        let per_event_oa = StreamingSimulation::default()
            .run(&OaScheduler, &inst)
            .unwrap();
        assert_eq!(per_event_oa.batches, 5);
        assert_eq!(coalesced_oa.accepted(), per_event_oa.accepted());
        assert!(
            (coalesced_oa.total_cost() - per_event_oa.total_cost()).abs()
                < 1e-3 * per_event_oa.total_cost().max(1.0)
        );
    }

    #[test]
    fn streaming_simulation_records_rejections_and_duals() {
        use pss_baselines::CllScheduler;

        // One hopeless job (huge work, tiny value) and one easy job.
        let inst =
            Instance::from_tuples(1, 2.0, vec![(0.0, 1.0, 10.0, 0.001), (0.0, 2.0, 0.5, 10.0)])
                .unwrap();
        let stream = StreamingSimulation::default()
            .run(&CllScheduler, &inst)
            .unwrap();
        assert_eq!(stream.accepted(), 1);
        assert_eq!(stream.rejected(), 1);
        let rejected = stream.events.iter().find(|e| !e.accepted).unwrap();
        assert_eq!(rejected.job, JobId(0));
        assert!((rejected.dual - 0.001).abs() < 1e-12);
        // The execution report agrees: the rejected job's value is lost.
        assert!((stream.report.lost_value - 0.001).abs() < 1e-9);
    }

    #[test]
    fn a_job_its_burst_carries_past_its_deadline_is_rejected_at_its_value() {
        use pss_baselines::{
            AvrScheduler, BkpScheduler, CllScheduler, MultiOaScheduler, OaScheduler, QoaScheduler,
        };

        // Coalesced with the second arrival, job 0 is fed at 8e-4, after
        // its deadline 5e-4.
        let inst =
            Instance::from_tuples(1, 2.0, vec![(0.0, 5e-4, 1e-4, 5.0), (8e-4, 3.0, 1.0, 2.0)])
                .unwrap();
        fn check<A: OnlineAlgorithm>(algo: &A, inst: &Instance) {
            let name = algo.algorithm_name();
            let stream = StreamingSimulation::with_coalescing(1e-3)
                .run(algo, inst)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(stream.batches, 1, "{name}");
            let job0 = &stream.events[0];
            assert_eq!(job0.job, JobId(0), "{name}");
            assert!(!job0.accepted, "{name}");
            assert_eq!(job0.dual, 5.0, "{name}");
            assert!(
                stream
                    .schedule
                    .segments
                    .iter()
                    .all(|s| s.job != Some(JobId(0))),
                "{name}: job 0 was scheduled"
            );
        }
        check(&OaScheduler, &inst);
        check(&QoaScheduler::default(), &inst);
        check(&CllScheduler, &inst);
        check(&MultiOaScheduler::default(), &inst);
        check(&AvrScheduler, &inst);
        check(&BkpScheduler::default(), &inst);
    }

    #[test]
    fn multi_oa_stream_keeps_every_segment_on_its_machines() {
        use pss_baselines::MultiOaScheduler;
        use pss_workloads::{ArrivalModel, RandomConfig, ValueModel};

        // The E12 Poisson stream at m = 2 with 2,500 arrivals and seed 14:
        // one of its atomic intervals used to wrap a pool job onto a third
        // machine, and the run failed with `UnknownMachine(2)`.
        let inst = RandomConfig {
            n_jobs: 2_500,
            machines: 2,
            alpha: 2.5,
            arrival: ArrivalModel::Poisson { rate: 4.0 },
            value: ValueModel::ProportionalToEnergy { min: 0.3, max: 4.0 },
            ..RandomConfig::standard(14)
        }
        .generate();
        let stream = StreamingSimulation::default()
            .run(&MultiOaScheduler::default(), &inst)
            .unwrap();
        assert_eq!(stream.events.len(), inst.len());
        assert!(stream.schedule.segments.iter().all(|s| s.machine < 2));
    }
}
