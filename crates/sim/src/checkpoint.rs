//! Checkpointed streaming and the crash drill.
//!
//! A production stream runs for days; suspending and resuming it must not
//! perturb a single committed decision.  This module builds that on the
//! `(log, blob)` contract of `pss_types::seglog`: every run carries a
//! [`SegmentLog`] that the driver syncs with the frontier after every
//! ingested batch (the worker appending realised segments as it commits),
//! and each checkpoint is a [`LogCheckpointable::snapshot_live`] blob that
//! holds only live state plus a log cursor, so blobs stay O(active).
//!
//! * [`StreamingSimulation::run_checkpointed`] — drive a stream like
//!   [`StreamingSimulation::run`], capturing a checkpoint every `k`
//!   ingestion batches (plus once before any ingestion, so a crash at any
//!   point is recoverable), keeping a bounded chain of the newest ones and
//!   compacting the log's record envelopes below the newest cursor.
//! * [`StreamingSimulation::run_with_failover`] — the crash drill: ingest
//!   until `kill_at_batch`, *drop the run* (the worker died; everything
//!   since the last checkpoint is lost, while the log and the checkpoint
//!   survive), truncate the log to the checkpoint's cursor (write-ahead-log
//!   discipline — replay re-commits those segments through the run
//!   itself), restore through [`LogCheckpointable::restore_with_log`] and
//!   **replay the delta** (the arrivals after the checkpoint, which a real
//!   deployment would re-read from its ingestion log).  Because restores
//!   continue bit-identically, the recovered stream's decisions, schedule
//!   and report equal the failure-free run's.
//!
//! What is (and is not) in a blob, cadence guidance and the RNG-position
//! caveat are documented in the checkpoint recipe in `src/README.md`.

use std::time::Instant;

use pss_types::seglog::{LogCheckpointable, LogCursor, SegmentLog};
use pss_types::snapshot::StateBlob;
use pss_types::{Instance, OnlineAlgorithm, OnlineScheduler, ScheduleError};

use crate::engine::{
    coalesce_arrivals, finish_stream, ingest_batch, StreamReport, StreamingSimulation,
};
use crate::feed::{FeedState, ShardCore, PRICE_SMOOTHING};

/// One captured checkpoint of a streaming run: the blob holds only live
/// state, and `cursor` records where in the run's [`SegmentLog`] its
/// frontier ends (recovery truncates the log here before replay).
#[derive(Debug, Clone)]
pub struct CheckpointRecord {
    /// Ingestion batches already processed when the checkpoint was taken
    /// (0 for the pre-ingestion checkpoint).
    pub batches_done: usize,
    /// Arrival events already processed when the checkpoint was taken.
    pub events_done: usize,
    /// Feed time of the last ingested batch (`-inf` before the first).
    pub time: f64,
    /// Wall-clock cost of capturing the snapshot, in seconds.
    pub capture_secs: f64,
    /// End cursor of the run's frontier in the segment log.
    pub cursor: LogCursor,
    /// The live-state snapshot (no frontier inside).
    pub blob: StateBlob,
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

/// Snapshots a core's live run state into `log`, timing the capture.  The
/// log is synced with the frontier by `snapshot_live`, then compacted to
/// the new checkpoint's cursor — the newest retained blob — so record
/// envelopes stay bounded by the retained chain.
fn capture<R: OnlineScheduler + LogCheckpointable>(
    core: &ShardCore<R>,
    log: &mut SegmentLog,
    events_done: usize,
    time: f64,
) -> Result<CheckpointRecord, ScheduleError> {
    let started = Instant::now();
    let blob = core.run().snapshot_live(log)?;
    let capture_secs = started.elapsed().as_secs_f64();
    let cursor = log.cursor();
    log.compact(cursor);
    Ok(CheckpointRecord {
        batches_done: core.state().batches,
        events_done,
        time,
        capture_secs,
        cursor,
        blob,
    })
}

impl StreamingSimulation {
    /// Like [`run`](Self::run), but captures a checkpoint every
    /// `every_batches` ingestion batches (and once before any ingestion).
    ///
    /// The stream itself is driven identically — same batches, same feed
    /// times — so decisions and the finished schedule match the plain run.
    /// At most `retain_chain` checkpoints are kept (oldest dropped first,
    /// clamped to at least 1 — the bounded chain a daemon would hold); the
    /// log is compacted to the newest retained blob's cursor after each
    /// capture.  Returns the retained chain and the log; recovery from any
    /// `(log, chain[k])` pair is bit-identical (see
    /// [`run_with_failover`](Self::run_with_failover)).  `every_batches` is
    /// clamped to at least 1.
    pub fn run_checkpointed<A>(
        &self,
        algo: &A,
        instance: &Instance,
        every_batches: usize,
        retain_chain: usize,
    ) -> Result<(StreamReport, Vec<CheckpointRecord>, SegmentLog), ScheduleError>
    where
        A: OnlineAlgorithm + ?Sized,
        A::Run: LogCheckpointable,
    {
        let every = every_batches.max(1);
        let retain = retain_chain.max(1);
        let plan = coalesce_arrivals(instance, self.coalesce_window);
        let mut core = ShardCore::new(algo.start_for(instance)?, PRICE_SMOOTHING);
        let mut log = SegmentLog::new(instance.machines);
        let mut events = Vec::with_capacity(instance.len());
        let mut burst_jobs = Vec::new();
        let mut chain = vec![capture(&core, &mut log, 0, f64::NEG_INFINITY)?];
        for (feed_time, ids) in &plan {
            ingest_batch(
                &mut core,
                instance,
                *feed_time,
                ids,
                &mut burst_jobs,
                &mut events,
            )?;
            // The worker appends realised segments as it commits them.
            log.sync_from(core.run().frontier())?;
            if core.state().batches.is_multiple_of(every) {
                chain.push(capture(&core, &mut log, events.len(), *feed_time)?);
                if chain.len() > retain {
                    chain.remove(0);
                }
            }
        }
        let report = finish_stream(algo.algorithm_name(), core, instance, events)?;
        Ok((report, chain, log))
    }

    /// The crash drill over the `(log, blob)` pair: ingest until
    /// `kill_at_batch` (checkpointing every `every_batches`), **drop the
    /// run** (the log and the last checkpoint survive — both are durable),
    /// truncate the log to the checkpoint's cursor, restore from the blob's
    /// wire bytes through [`LogCheckpointable::restore_with_log`] and
    /// replay the delta.
    ///
    /// The returned report is indistinguishable from the failure-free run
    /// on every deterministic field, and the returned log ends bit-equal
    /// to an uninterrupted run's; the [`RecoveryStats`] record what the
    /// recovery cost.  `kill_at_batch` is clamped to the stream's batch
    /// count.
    pub fn run_with_failover<A>(
        &self,
        algo: &A,
        instance: &Instance,
        every_batches: usize,
        kill_at_batch: usize,
    ) -> Result<(StreamReport, RecoveryStats, SegmentLog), ScheduleError>
    where
        A: OnlineAlgorithm + ?Sized,
        A::Run: LogCheckpointable,
    {
        let every = every_batches.max(1);
        let plan = coalesce_arrivals(instance, self.coalesce_window);
        let killed_at_batch = kill_at_batch.min(plan.len());

        // Phase 1: ingest until the kill point, keeping only the most
        // recent checkpoint.  Dropping the run at the end of this block
        // *is* the crash.
        let mut log = SegmentLog::new(instance.machines);
        let mut events = Vec::new();
        let mut burst_jobs = Vec::new();
        let checkpoint = {
            let mut core = ShardCore::new(algo.start_for(instance)?, PRICE_SMOOTHING);
            let mut last = capture(&core, &mut log, 0, f64::NEG_INFINITY)?;
            for (feed_time, ids) in plan.iter().take(killed_at_batch) {
                ingest_batch(
                    &mut core,
                    instance,
                    *feed_time,
                    ids,
                    &mut burst_jobs,
                    &mut events,
                )?;
                log.sync_from(core.run().frontier())?;
                if core.state().batches.is_multiple_of(every) {
                    last = capture(&core, &mut log, events.len(), *feed_time)?;
                }
            }
            last
        };

        // Phase 2: truncate the surviving log to the checkpoint's cursor,
        // restore from the blob's wire bytes with the log, replay the delta
        // and finish the stream.
        let wire = checkpoint.blob.to_bytes();
        let started = Instant::now();
        let blob = StateBlob::from_bytes(&wire)?;
        log.truncate(checkpoint.cursor)?;
        let run = <A::Run as LogCheckpointable>::restore_with_log(&blob, &log)?;
        let restore_secs = started.elapsed().as_secs_f64();

        // Everything the dead worker did after the checkpoint is lost.  With
        // no price reported and releases in order, the batch count suffices.
        events.truncate(checkpoint.events_done);
        let replay_from = checkpoint.batches_done;
        let resume_at = FeedState {
            batches: replay_from,
            ..FeedState::START
        };
        let mut core = ShardCore::resume(run, PRICE_SMOOTHING, resume_at);
        let started = Instant::now();
        for (feed_time, ids) in plan.get(replay_from..).unwrap_or_default() {
            ingest_batch(
                &mut core,
                instance,
                *feed_time,
                ids,
                &mut burst_jobs,
                &mut events,
            )?;
            log.sync_from(core.run().frontier())?;
        }
        let replay_secs = started.elapsed().as_secs_f64();
        let stats = RecoveryStats {
            killed_at_batch,
            restored_batches: replay_from,
            replayed_events: events.len() - checkpoint.events_done,
            checkpoint_bytes: wire.len(),
            restore_secs,
            replay_secs,
        };
        let report = finish_stream(algo.algorithm_name(), core, instance, events)?;
        Ok((report, stats, log))
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
    /// (decisions, duals, schedules, batch counts — latencies are
    /// wall-clock and excluded).
    fn assert_streams_equal(a: &StreamReport, b: &StreamReport, label: &str) {
        assert_eq!(a.algorithm, b.algorithm, "{label}: algorithm");
        assert_eq!(a.batches, b.batches, "{label}: batch counts");
        assert_eq!(
            a.schedule.segments, b.schedule.segments,
            "{label}: schedule"
        );
        assert_eq!(a.events.len(), b.events.len(), "{label}: event counts");
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.job, y.job, "{label}: event order");
            assert_eq!(x.accepted, y.accepted, "{label}: decision for {:?}", x.job);
            assert_eq!(
                x.dual.to_bits(),
                y.dual.to_bits(),
                "{label}: dual for {:?}",
                x.job
            );
            assert_eq!(x.burst, y.burst, "{label}: burst width for {:?}", x.job);
        }
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
        let (stream, chain, log) = sim
            .run_checkpointed(&CllScheduler, &inst, 3, usize::MAX)
            .unwrap();
        assert_streams_equal(&plain, &stream, "logged CLL");
        assert_eq!(chain.len(), 1 + stream.batches / 3);
        // The log mirrors the committed frontier: its end cursor equals the
        // frontier size the last event observed, and cursors are monotone.
        let final_frontier = stream.events.last().unwrap().frontier_segments;
        assert_eq!(log.cursor(), LogCursor(final_frontier as u64));
        for pair in chain.windows(2) {
            assert!(pair[0].cursor <= pair[1].cursor);
        }
        // Compaction after each capture bounds the record envelopes.
        assert!(log.record_count() <= stream.batches % 3 + 1);
    }

    #[test]
    fn every_retained_chain_depth_recovers_from_every_retained_blob() {
        let inst = bursty_instance(36, 1337);
        let sim = StreamingSimulation::with_coalescing(1e-3);
        let plain = sim.run(&CllScheduler, &inst).unwrap();
        for retain in 1..=4 {
            let (stream, chain, log) = sim
                .run_checkpointed(&CllScheduler, &inst, 2, retain)
                .unwrap();
            assert_streams_equal(&plain, &stream, &format!("retain {retain}"));
            assert!(chain.len() <= retain);
            // Every retained blob restores against the log truncated to its
            // cursor — including the oldest, whose records were compacted
            // into the prefix.
            for (k, ckpt) in chain.iter().enumerate() {
                let mut cut = log.clone();
                cut.truncate(ckpt.cursor).unwrap();
                let run = <CllScheduler as OnlineAlgorithm>::Run::restore_with_log(
                    &StateBlob::from_bytes(&ckpt.blob.to_bytes()).unwrap(),
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
            let (plain, recovered, stats, log, label) = if algo_run == 0 {
                let plain = sim.run(&OaScheduler, &inst).unwrap();
                let kill = plain.batches / 2;
                let (r, s, l) = sim.run_with_failover(&OaScheduler, &inst, 4, kill).unwrap();
                (plain, r, s, l, "OA")
            } else {
                let algo = BkpScheduler {
                    resolution: 400,
                    ..Default::default()
                };
                let plain = sim.run(&algo, &inst).unwrap();
                let kill = plain.batches / 2;
                let (r, s, l) = sim.run_with_failover(&algo, &inst, 4, kill).unwrap();
                (plain, r, s, l, "BKP")
            };
            assert_streams_equal(&plain, &recovered, label);
            assert!(stats.replayed_events > 0, "{label}: nothing was replayed");
            // The recovered log ends exactly at the uninterrupted run's
            // final frontier.
            let final_frontier = plain.events.last().unwrap().frontier_segments;
            assert_eq!(log.cursor(), LogCursor(final_frontier as u64), "{label}");
        }
    }

    #[test]
    fn corrupted_and_truncated_blobs_error_and_never_panic() {
        // A mid-stream BKP state: the richest blob (grid cursor, speed
        // index, hull, EDF heap).
        let inst = bursty_instance(30, 31);
        let algo = BkpScheduler {
            resolution: 300,
            ..Default::default()
        };
        let (_, chain, log) = StreamingSimulation::default()
            .run_checkpointed(&algo, &inst, 5, 1)
            .unwrap();
        let ckpt = chain.last().unwrap();
        assert!(
            ckpt.cursor > LogCursor(0),
            "the blob must point into the log"
        );
        let blob = &ckpt.blob;
        let wire = blob.to_bytes();
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
            AvrState::restore_with_log(blob, &log),
            Err(SnapshotError::WrongKind { .. })
        ));
        // A kind-right blob with a truncated payload errors.
        let short = StateBlob::new(
            "bkp",
            blob.version(),
            blob.payload()[..blob.payload().len() / 2].to_vec(),
        );
        assert!(BkpState::restore_with_log(&short, &log).is_err());
        // A version-1 blob (the pre-seglog layout) is rejected with the
        // typed version error, never misparsed.
        let old = StateBlob::new("bkp", 1, blob.payload().to_vec());
        assert!(matches!(
            BkpState::restore_with_log(&old, &log),
            Err(SnapshotError::UnsupportedVersion(1))
        ));
        // A log that does not reach the blob's cursor errors.
        assert!(BkpState::restore_with_log(blob, &SegmentLog::new(1)).is_err());
        // The JSON envelope round-trips the same state.
        let json = pss_metrics::blob_to_json(blob);
        let back = pss_metrics::blob_from_json(&json).unwrap();
        assert_eq!(&back, blob);
        assert!(BkpState::restore_with_log(&back, &log).is_ok());
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
