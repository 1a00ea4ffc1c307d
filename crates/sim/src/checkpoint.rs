//! Checkpoint chains and the crash drill.
//!
//! Suspending and resuming a stream must not perturb a single committed
//! decision.  In the paper's online model a committed decision is never
//! revised, so a checkpoint can be an O(active) blob plus a cursor into
//! the run's append-only [`SegmentLog`].  [`CheckpointChain`] owns that
//! `(log, blob)` pair, and the daemon's shards and the drills here all go
//! through it.  It keeps two rules:
//!
//! * **sync before capture**: [`sync`](CheckpointChain::sync) appends the
//!   segments the run committed since the last sync, after every batch,
//!   and [`capture`](CheckpointChain::capture) drops the oldest checkpoint
//!   beyond the chain's bound (the log keeps every segment, so every
//!   retained blob still reassembles);
//! * **restore, then truncate**: [`recover`](CheckpointChain::recover)
//!   restores the newest blob that decodes against the log and truncates
//!   the log to its cursor, since replay re-commits the segments past it.
//!   If no blob decodes, the log resets and the run starts cold.
//!
//! [`StreamingSimulation::run_checkpointed`] and the crash drill
//! [`StreamingSimulation::run_with_failover`] (ingest, *drop the run*,
//! recover, replay the delta) are loops around a chain.  What is (and is
//! not) in a blob, cadence guidance and the RNG-position caveat are in the
//! checkpoint recipe in `src/README.md`.

use std::collections::VecDeque;
use std::time::Instant;

use pss_types::seglog::{LogCheckpointable, LogCursor, SegmentLog};
use pss_types::snapshot::StateBlob;
use pss_types::{Instance, JobId, OnlineAlgorithm, OnlineScheduler, ScheduleError};

use crate::engine::{
    coalesce_arrivals, finish_stream, ingest_batch, Fed, StreamReport, StreamingSimulation,
};
use crate::feed::{FeedState, ShardCore, PRICE_SMOOTHING};
use crate::record::FeedRecord;

/// One captured checkpoint: the run's live-state blob and where the stream
/// stood when it was taken.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The core's feed state; its batch count is where replay resumes.
    pub feed: FeedState,
    /// Arrival events processed so far (one per fed job).
    pub events: usize,
    /// Feed time of the last ingested batch (`-inf` before the first).
    pub time: f64,
    /// End cursor of the run's frontier in the log.
    pub cursor: LogCursor,
    /// Wall-clock cost of the capture, in seconds.
    pub capture_secs: f64,
    /// The live-state blob's wire bytes.
    pub wire: Vec<u8>,
}

/// A shard's segment log and its bounded chain of checkpoints, oldest
/// first (see the module docs).
#[derive(Debug, Clone)]
pub struct CheckpointChain {
    log: SegmentLog,
    checkpoints: VecDeque<Checkpoint>,
    retain: usize,
    taken: usize,
}

/// A run rebuilt by [`CheckpointChain::recover`].
#[derive(Debug)]
pub struct Recovery<R> {
    /// The core, resumed at the restored checkpoint's feed state.
    pub core: ShardCore<R>,
    /// Arrival events the restored checkpoint had processed.
    pub events: usize,
    /// Feed time of the restored checkpoint's last batch.
    pub time: f64,
    /// Wire size of the restored blob (0 after a cold start).
    pub bytes: usize,
    /// Checkpoints skipped, newest first, because they did not decode.
    pub skipped: usize,
    /// No checkpoint decoded, so the run started cold.
    pub cold: bool,
}

impl CheckpointChain {
    /// An empty log for runs on `machines` machines, with a chain that
    /// retains the `retain` newest checkpoints (at least 1).
    pub fn new(machines: usize, retain: usize) -> Self {
        Self {
            log: SegmentLog::new(machines),
            checkpoints: VecDeque::new(),
            retain: retain.max(1),
            taken: 0,
        }
    }

    /// The segment log.
    pub fn log(&self) -> &SegmentLog {
        &self.log
    }

    /// The retained checkpoints, oldest first.
    pub fn checkpoints(&self) -> &VecDeque<Checkpoint> {
        &self.checkpoints
    }

    /// Checkpoints captured so far, the dropped ones included.
    pub fn taken(&self) -> usize {
        self.taken
    }

    /// Appends the segments the core's run has committed since the last
    /// sync.  A frontier that lost committed segments is an error.
    pub fn sync<R: OnlineScheduler>(&mut self, core: &ShardCore<R>) -> Result<(), ScheduleError> {
        self.log.sync_from(core.run().frontier())?;
        Ok(())
    }

    /// Captures the core's run after `events` arrival events, the last fed
    /// at `time`: its live state goes to wire bytes, and the oldest
    /// checkpoint beyond the chain's bound is dropped.
    pub fn capture<R>(
        &mut self,
        core: &ShardCore<R>,
        events: usize,
        time: f64,
    ) -> Result<(), ScheduleError>
    where
        R: OnlineScheduler + LogCheckpointable,
    {
        let started = Instant::now();
        let wire = core.run().snapshot_live(&mut self.log)?.to_bytes();
        let capture_secs = started.elapsed().as_secs_f64();
        self.taken += 1;
        self.checkpoints.push_back(Checkpoint {
            feed: core.state(),
            events,
            time,
            cursor: self.log.cursor(),
            capture_secs,
            wire,
        });
        if self.checkpoints.len() > self.retain {
            self.checkpoints.pop_front();
        }
        Ok(())
    }

    /// Rebuilds the run from the newest checkpoint whose blob decodes
    /// against the log, truncates the log to that checkpoint's cursor and
    /// resumes a core, pricing with EWMA weight `smoothing`, at the
    /// checkpoint's feed state.  If no blob decodes, the log resets and the
    /// core starts from `cold()` at [`FeedState::START`].  Either way the
    /// caller replays its batches from the core's batch count on.
    pub fn recover<R>(
        &mut self,
        smoothing: f64,
        cold: impl FnOnce() -> Result<R, ScheduleError>,
    ) -> Result<Recovery<R>, ScheduleError>
    where
        R: OnlineScheduler + LogCheckpointable,
    {
        for (skipped, ckpt) in self.checkpoints.iter().rev().enumerate() {
            let restored = StateBlob::from_bytes(&ckpt.wire)
                .and_then(|blob| R::restore_with_log(&blob, &self.log));
            if let Ok(run) = restored {
                self.log.truncate(ckpt.cursor)?;
                return Ok(Recovery {
                    core: ShardCore::resume(run, smoothing, ckpt.feed),
                    events: ckpt.events,
                    time: ckpt.time,
                    bytes: ckpt.wire.len(),
                    skipped,
                    cold: false,
                });
            }
        }
        self.log = SegmentLog::new(self.log.machines());
        Ok(Recovery {
            core: ShardCore::new(cold()?, smoothing),
            events: 0,
            time: f64::NEG_INFINITY,
            bytes: 0,
            skipped: self.checkpoints.len(),
            cold: true,
        })
    }

    /// Flips one bit of the checkpoint `newest_offset` back from the newest
    /// (`0` = the newest), a chaos-engine hook.  The checksummed wire form
    /// makes the blob fail to decode, so recovery falls back along the
    /// chain.  Errors if the chain holds no such checkpoint.
    pub fn corrupt(&mut self, newest_offset: usize, bit: usize) -> Result<(), ScheduleError> {
        let len = self.checkpoints.len();
        let Some(ckpt) = self.checkpoints.iter_mut().rev().nth(newest_offset) else {
            return Err(ScheduleError::Internal(format!(
                "the chain holds {len} checkpoint(s); cannot corrupt offset {newest_offset}"
            )));
        };
        let bit = bit % (ckpt.wire.len() * 8);
        ckpt.wire[bit / 8] ^= 1 << (bit % 8);
        Ok(())
    }

    /// Ships the log across a worker boundary, as a hand-off does: the
    /// whole log travels as one encoded tail and is absorbed into a fresh
    /// log, which replaces this one.  The receiving worker then restores
    /// from shipped bytes alone, which proves the pair self-contained.
    pub fn ship_log(&mut self) -> Result<(), ScheduleError> {
        let tail = self.log.encode_tail(LogCursor(0))?;
        let mut shipped = SegmentLog::new(self.log.machines());
        shipped.absorb_tail(&tail)?;
        self.log = shipped;
        Ok(())
    }
}

/// What a recovery cost: the numbers E18's recovery table reports.
#[derive(Debug, Clone)]
pub struct RecoveryStats {
    /// Ingestion batches the dead worker had processed when it was killed.
    pub killed_at_batch: usize,
    /// Ingestion batches covered by the checkpoint the run was restored
    /// from (everything after it was lost and replayed).
    pub restored_batches: usize,
    /// Arrival events re-fed after the restore (the delta).
    pub replayed_events: usize,
    /// Size of the checkpoint blob that was restored, in bytes (binary wire
    /// form).
    pub checkpoint_bytes: usize,
    /// Wall-clock cost of decoding + restoring the scheduler state.
    pub restore_secs: f64,
    /// Wall-clock cost of replaying the delta arrivals.
    pub replay_secs: f64,
}

impl RecoveryStats {
    /// Total recovery latency: restore plus delta replay.
    pub fn recovery_secs(&self) -> f64 {
        self.restore_secs + self.replay_secs
    }
}

/// Feeds `bursts` through `core` into `fed`, syncing the chain after every
/// batch and capturing after every `every`-th (never when `every` is 0).
fn feed_chained<R>(
    core: &mut ShardCore<R>,
    chain: &mut CheckpointChain,
    instance: &Instance,
    bursts: &[(f64, Vec<JobId>)],
    every: usize,
    fed: &mut Fed,
) -> Result<(), ScheduleError>
where
    R: OnlineScheduler + LogCheckpointable,
{
    for (feed_time, ids) in bursts {
        ingest_batch(core, instance, *feed_time, ids, fed)?;
        chain.sync(core)?;
        if every > 0 && core.state().batches.is_multiple_of(every) {
            chain.capture(core, fed.0.jobs.len(), *feed_time)?;
        }
    }
    Ok(())
}

impl StreamingSimulation {
    /// Like [`run`](Self::run), but captures a checkpoint every
    /// `every_batches` ingestion batches (and once before any ingestion)
    /// into a [`CheckpointChain`] that retains the `retain_chain` newest.
    ///
    /// The stream itself is driven identically — same batches, same feed
    /// times — so decisions and the finished schedule match the plain run.
    /// Returns the chain, whose log ends at the run's final frontier;
    /// recovery from any retained checkpoint is bit-identical (see
    /// [`run_with_failover`](Self::run_with_failover)).  `every_batches`
    /// and `retain_chain` are clamped to at least 1.
    pub fn run_checkpointed<A>(
        &self,
        algo: &A,
        instance: &Instance,
        every_batches: usize,
        retain_chain: usize,
    ) -> Result<(StreamReport, CheckpointChain), ScheduleError>
    where
        A: OnlineAlgorithm + ?Sized,
        A::Run: LogCheckpointable,
    {
        let plan = coalesce_arrivals(instance, self.coalesce_window);
        let mut core = ShardCore::new(algo.start_for(instance)?, PRICE_SMOOTHING);
        let mut chain = CheckpointChain::new(instance.machines, retain_chain);
        let mut fed: Fed = (FeedRecord::with_capacity(instance.len()), Vec::new());
        chain.capture(&core, 0, f64::NEG_INFINITY)?;
        let every = every_batches.max(1);
        feed_chained(&mut core, &mut chain, instance, &plan, every, &mut fed)?;
        let report = finish_stream(algo.algorithm_name(), core, instance, fed)?;
        Ok((report, chain))
    }

    /// The crash drill: ingest until `kill_at_batch`, checkpointing every
    /// `every_batches` into a chain that keeps the newest checkpoint,
    /// **drop the run** (the chain survives: its log and blob are durable),
    /// [`recover`](CheckpointChain::recover) and replay the delta.
    ///
    /// The returned report is indistinguishable from the failure-free run
    /// on every deterministic field, and the returned chain's log ends
    /// bit-equal to an uninterrupted run's; the [`RecoveryStats`] record
    /// what the recovery cost.  `kill_at_batch` is clamped to the stream's
    /// batch count.
    pub fn run_with_failover<A>(
        &self,
        algo: &A,
        instance: &Instance,
        every_batches: usize,
        kill_at_batch: usize,
    ) -> Result<(StreamReport, RecoveryStats, CheckpointChain), ScheduleError>
    where
        A: OnlineAlgorithm + ?Sized,
        A::Run: LogCheckpointable,
    {
        let plan = coalesce_arrivals(instance, self.coalesce_window);
        let killed_at_batch = kill_at_batch.min(plan.len());
        let mut chain = CheckpointChain::new(instance.machines, 1);
        let mut fed: Fed = (FeedRecord::with_capacity(instance.len()), Vec::new());
        // Dropping the core at the end of this block *is* the crash.
        {
            let mut core = ShardCore::new(algo.start_for(instance)?, PRICE_SMOOTHING);
            chain.capture(&core, 0, f64::NEG_INFINITY)?;
            let every = every_batches.max(1);
            let before = &plan[..killed_at_batch];
            feed_chained(&mut core, &mut chain, instance, before, every, &mut fed)?;
        }

        // Everything the dead worker did after the checkpoint is lost.
        let started = Instant::now();
        let recovery = chain.recover(PRICE_SMOOTHING, || algo.start_for(instance))?;
        let restore_secs = started.elapsed().as_secs_f64();
        let mut core = recovery.core;
        let restored_batches = core.state().batches;
        fed.0.truncate(recovery.events, restored_batches);
        fed.1.truncate(restored_batches);
        let started = Instant::now();
        let delta = &plan[restored_batches..];
        feed_chained(&mut core, &mut chain, instance, delta, 0, &mut fed)?;
        let replay_secs = started.elapsed().as_secs_f64();
        let stats = RecoveryStats {
            killed_at_batch,
            restored_batches,
            replayed_events: fed.0.jobs.len() - recovery.events,
            checkpoint_bytes: recovery.bytes,
            restore_secs,
            replay_secs,
        };
        let report = finish_stream(algo.algorithm_name(), core, instance, fed)?;
        Ok((report, stats, chain))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_baselines::avr::AvrState;
    use pss_baselines::bkp::BkpState;
    use pss_baselines::{AvrScheduler, BkpScheduler, CllScheduler, OaScheduler};
    use pss_types::snapshot::SnapshotError;
    use pss_workloads::{ArrivalModel, RandomConfig, ValueModel};

    fn bursty_instance(n: usize, seed: u64) -> Instance {
        RandomConfig {
            n_jobs: n,
            machines: 1,
            alpha: 2.0,
            arrival: ArrivalModel::BurstyPoisson {
                rate: 1.0,
                burst_size: 4,
                jitter: 1e-4,
            },
            value: ValueModel::ProportionalToEnergy { min: 0.3, max: 4.0 },
            ..RandomConfig::standard(seed)
        }
        .generate()
    }

    /// Asserts two stream reports agree on every deterministic field
    /// (records, schedules, batch counts — latencies are wall-clock and
    /// excluded).
    fn assert_streams_equal(a: &StreamReport, b: &StreamReport, label: &str) {
        assert_eq!(a.algorithm, b.algorithm, "{label}: algorithm");
        assert_eq!(a.batches, b.batches, "{label}: batch counts");
        assert_eq!(
            a.schedule.segments, b.schedule.segments,
            "{label}: schedule"
        );
        assert!(a.record == b.record, "{label}: records differ");
        assert_eq!(
            a.report.total_cost().to_bits(),
            b.report.total_cost().to_bits(),
            "{label}: cost"
        );
    }

    #[test]
    fn logged_run_matches_plain_and_blobs_stay_o_active() {
        let inst = bursty_instance(40, 4242);
        let sim = StreamingSimulation::with_coalescing(1e-3);
        let plain = sim.run(&CllScheduler, &inst).unwrap();
        let (stream, chain) = sim
            .run_checkpointed(&CllScheduler, &inst, 3, usize::MAX)
            .unwrap();
        assert_streams_equal(&plain, &stream, "logged CLL");
        assert_eq!(chain.checkpoints().len(), 1 + stream.batches / 3);
        assert_eq!(chain.taken(), chain.checkpoints().len());
        // The log mirrors the committed frontier: its end cursor equals the
        // frontier size the last event observed, and cursors are monotone.
        let log = chain.log();
        let final_frontier = *stream.frontier_segments.last().unwrap();
        assert_eq!(log.cursor(), LogCursor(final_frontier as u64));
        let retained = chain.checkpoints();
        for (older, newer) in retained.iter().zip(retained.iter().skip(1)) {
            assert!(older.cursor <= newer.cursor);
        }
    }

    #[test]
    fn every_retained_chain_depth_recovers_from_every_retained_blob() {
        let inst = bursty_instance(36, 1337);
        let sim = StreamingSimulation::with_coalescing(1e-3);
        let plain = sim.run(&CllScheduler, &inst).unwrap();
        for retain in 1..=4 {
            let (stream, chain) = sim
                .run_checkpointed(&CllScheduler, &inst, 2, retain)
                .unwrap();
            assert_streams_equal(&plain, &stream, &format!("retain {retain}"));
            assert!(chain.checkpoints().len() <= retain);
            // Every retained blob restores against the log truncated to its
            // cursor, the oldest included.
            for (k, ckpt) in chain.checkpoints().iter().enumerate() {
                let mut cut = chain.log().clone();
                cut.truncate(ckpt.cursor).unwrap();
                let run = <CllScheduler as OnlineAlgorithm>::Run::restore_with_log(
                    &StateBlob::from_bytes(&ckpt.wire).unwrap(),
                    &cut,
                )
                .unwrap_or_else(|e| panic!("retain {retain} chain[{k}]: {e}"));
                assert_eq!(
                    run.frontier().segments.len() as u64,
                    ckpt.cursor.segments(),
                    "retain {retain} chain[{k}]: frontier size"
                );
            }
        }
    }

    #[test]
    fn logged_failover_is_invisible_and_leaves_a_consistent_log() {
        let inst = bursty_instance(48, 9000);
        let sim = StreamingSimulation::with_coalescing(1e-3);
        for algo_run in 0..2 {
            // Two very different state shapes: the replanning executor and
            // the BKP grid.
            let (plain, recovered, stats, chain, label) = if algo_run == 0 {
                let plain = sim.run(&OaScheduler, &inst).unwrap();
                let kill = plain.batches / 2;
                let (r, s, l) = sim.run_with_failover(&OaScheduler, &inst, 4, kill).unwrap();
                (plain, r, s, l, "OA")
            } else {
                let algo = BkpScheduler { resolution: 400 };
                let plain = sim.run(&algo, &inst).unwrap();
                let kill = plain.batches / 2;
                let (r, s, l) = sim.run_with_failover(&algo, &inst, 4, kill).unwrap();
                (plain, r, s, l, "BKP")
            };
            assert_streams_equal(&plain, &recovered, label);
            assert!(stats.replayed_events > 0, "{label}: nothing was replayed");
            // The recovered log ends exactly at the uninterrupted run's
            // final frontier.
            let final_frontier = *plain.frontier_segments.last().unwrap();
            let end = chain.log().cursor();
            assert_eq!(end, LogCursor(final_frontier as u64), "{label}");
        }
    }

    /// The chain's fallback and cold start, pinned inside pss-sim: a bursty
    /// stream fed through a core and a chain of 3 that captures after every
    /// batch is killed mid-stream.  With the k newest blobs corrupted,
    /// recovery skips k of them (k = 3 is the whole chain, so the run starts
    /// cold), resumes the core's full feed state, and the replayed stream
    /// and log end bit-equal to the uninterrupted ones.
    #[test]
    fn chain_recovery_falls_back_past_corrupted_blobs_and_resumes_the_feed_state() {
        let inst = bursty_instance(40, 77);
        let plan = coalesce_arrivals(&inst, 1e-3);
        let start = || CllScheduler.start_for(&inst);
        let kill = plan.len() / 2;
        assert!(kill >= 3, "the chain must be full at the kill");

        // The uninterrupted run, with its feed state after every batch.
        let mut core = ShardCore::new(start().unwrap(), PRICE_SMOOTHING);
        let mut chain = CheckpointChain::new(inst.machines, 3);
        let mut fed = Fed::default();
        let mut states = vec![core.state()];
        for burst in plan.chunks(1) {
            feed_chained(&mut core, &mut chain, &inst, burst, 1, &mut fed).unwrap();
            states.push(core.state());
        }
        let log = chain.log();
        let plain_log = log.reassemble(log.cursor()).unwrap();
        let plain = finish_stream("CLL".into(), core, &inst, fed).unwrap();

        for k in 0..=3 {
            let label = format!("{k} corrupted");
            let mut chain = CheckpointChain::new(inst.machines, 3);
            let mut fed = Fed::default();
            {
                let mut core = ShardCore::new(start().unwrap(), PRICE_SMOOTHING);
                chain.capture(&core, 0, f64::NEG_INFINITY).unwrap();
                let before = &plan[..kill];
                feed_chained(&mut core, &mut chain, &inst, before, 1, &mut fed).unwrap();
            }
            for depth in 0..k {
                chain.corrupt(depth, 8 * depth + 3).unwrap();
            }
            let recovery = chain.recover(PRICE_SMOOTHING, start).unwrap();
            assert_eq!(recovery.skipped, k, "{label}: skipped");
            assert_eq!(recovery.cold, k == 3, "{label}: cold start");
            // The chain held the checkpoints after batches kill-2..=kill.
            let at = if k == 3 { 0 } else { kill - k };
            let resumed = recovery.core.state();
            let expected = states[at];
            assert_eq!(resumed.batches, at, "{label}: batches");
            assert_eq!(
                resumed.price.to_bits(),
                expected.price.to_bits(),
                "{label}: price"
            );
            assert_eq!(
                resumed.release_floor.to_bits(),
                expected.release_floor.to_bits(),
                "{label}: release floor"
            );
            fed.0.truncate(recovery.events, at);
            fed.1.truncate(at);
            let mut core = recovery.core;
            feed_chained(&mut core, &mut chain, &inst, &plan[at..], 1, &mut fed).unwrap();
            let log = chain.log();
            assert_eq!(log.reassemble(log.cursor()).unwrap(), plain_log, "{label}");
            let recovered = finish_stream("CLL".into(), core, &inst, fed).unwrap();
            assert_streams_equal(&plain, &recovered, &label);
        }
    }

    #[test]
    fn corrupted_and_truncated_blobs_error_and_never_panic() {
        // A mid-stream BKP state: the richest blob (grid cursor, speed
        // index with the live jobs, hull).
        let inst = bursty_instance(30, 31);
        let algo = BkpScheduler { resolution: 300 };
        let (_, chain) = StreamingSimulation::default()
            .run_checkpointed(&algo, &inst, 5, 1)
            .unwrap();
        let log = chain.log();
        let ckpt = chain.checkpoints().back().unwrap();
        assert!(
            ckpt.cursor > LogCursor(0),
            "the blob must point into the log"
        );
        let wire = &ckpt.wire;
        let blob = &StateBlob::from_bytes(wire).unwrap();
        // Every truncation fails cleanly.
        for len in (0..wire.len()).step_by(7) {
            assert!(StateBlob::from_bytes(&wire[..len]).is_err());
        }
        // Every probed bit flip fails cleanly (checksummed container).
        for i in (0..wire.len()).step_by(11) {
            let mut corrupted = wire.clone();
            corrupted[i] ^= 0x10;
            assert!(StateBlob::from_bytes(&corrupted).is_err());
        }
        // Restoring the wrong kind errors.
        assert!(matches!(
            AvrState::restore_with_log(blob, log),
            Err(SnapshotError::WrongKind { .. })
        ));
        // A kind-right blob with a truncated payload errors.
        let short = StateBlob::new(
            "bkp",
            blob.version(),
            blob.payload()[..blob.payload().len() / 2].to_vec(),
        );
        assert!(BkpState::restore_with_log(&short, log).is_err());
        // A version-1 blob (the pre-seglog layout) is rejected with the
        // typed version error, never misparsed.
        let old = StateBlob::new("bkp", 1, blob.payload().to_vec());
        assert!(matches!(
            BkpState::restore_with_log(&old, log),
            Err(SnapshotError::UnsupportedVersion(1))
        ));
        // A log that does not reach the blob's cursor errors.
        assert!(BkpState::restore_with_log(blob, &SegmentLog::new(1)).is_err());
    }

    #[test]
    fn empty_single_job_and_large_states_round_trip() {
        // Empty state: a fresh run, never fed.
        let fresh = AvrScheduler.start(1, 2.0).unwrap();
        let mut log = SegmentLog::new(1);
        let blob = fresh.snapshot_live(&mut log).unwrap();
        let restored =
            AvrState::restore_with_log(&StateBlob::from_bytes(&blob.to_bytes()).unwrap(), &log)
                .unwrap();
        assert!(restored.finish().unwrap().segments.is_empty());

        // Single-job state.
        let single = Instance::from_tuples(1, 2.0, vec![(0.0, 2.0, 1.0, 1.0)]).unwrap();
        let mut run = AvrScheduler.start_for(&single).unwrap();
        run.on_arrival(&single.jobs[0], 0.0).unwrap();
        let mut log = SegmentLog::new(1);
        let restored =
            AvrState::restore_with_log(&run.snapshot_live(&mut log).unwrap(), &log).unwrap();
        assert_eq!(
            restored.finish().unwrap().segments,
            run.finish().unwrap().segments
        );

        // A 10k-job state round-trips bit-exactly through both wire formats.
        let big = RandomConfig {
            n_jobs: 10_000,
            machines: 1,
            alpha: 2.0,
            arrival: ArrivalModel::Poisson { rate: 4.0 },
            value: ValueModel::ProportionalToEnergy { min: 0.3, max: 4.0 },
            ..RandomConfig::standard(808)
        }
        .generate();
        let mut run = AvrScheduler.start_for(&big).unwrap();
        for id in big.arrival_order() {
            let job = big.job(id);
            run.on_arrival(job, job.release).unwrap();
        }
        let mut log = SegmentLog::new(1);
        let blob = run.snapshot_live(&mut log).unwrap();
        let back = StateBlob::from_bytes(&blob.to_bytes()).unwrap();
        assert_eq!(back, blob);
        let log = SegmentLog::from_bytes(&log.to_bytes()).unwrap();
        let restored = AvrState::restore_with_log(&back, &log).unwrap();
        // The restored state is observably the same state: identical
        // snapshot against the same log, identical finish.
        assert_eq!(restored.snapshot_live(&mut log.clone()).unwrap(), blob);
        assert_eq!(
            restored.finish().unwrap().segments,
            run.finish().unwrap().segments
        );
    }
}
