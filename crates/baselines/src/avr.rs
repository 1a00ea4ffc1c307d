//! Average Rate (AVR), Yao, Demers & Shenker's second online algorithm.
//!
//! Every job is processed at its own density `w_j / (d_j − r_j)`, spread
//! uniformly over its availability window; the machine's speed at any time
//! is the sum of the densities of the jobs available at that time.  AVR is
//! `(2α)^α / 2`-competitive and serves as an easy-to-predict baseline in the
//! classical (mandatory completion) experiments.
//!
//! AVR is naturally event-driven: a job's contribution to the speed profile
//! is fixed at its own arrival and never touches the past, so the
//! incremental [`AvrState`] simply *commits* the window between consecutive
//! arrivals using the densities of the jobs known so far.  The one-shot
//! construction over the full atomic-interval partition is retained as
//! [`AvrScheduler::batch_schedule`] for the equivalence tests.
//!
//! ### The active-set index
//!
//! Committing a window only needs the jobs whose availability window
//! intersects it.  Because arrivals are fed in release order, every stored
//! job is already released when a window is committed, so the only interior
//! boundaries are *deadlines* and the relevant jobs are exactly the ones
//! whose deadline has not passed.  [`AvrState`] therefore keeps a persistent
//! **active-set index**: released jobs sorted by deadline (descending), with
//! expired jobs popped from the tail as the committed frontier advances.
//! Each committed piece touches only the jobs covering it — amortised
//! `O(active)` per commit, independent of the stream length — and the run
//! keeps no job history, so its checkpoint blob is `O(active)` too.

use pss_intervals::IntervalPartition;
use pss_types::seglog::{FrontierPart, LogCheckpointable, SegmentLog};
use pss_types::snapshot::{BlobReader, BlobWriter, SnapshotError, SnapshotPart, StateBlob};
use pss_types::{
    check_arrival, num, Decision, Instance, Job, JobId, OnlineAlgorithm, OnlineScheduler, Schedule,
    ScheduleError, Segment,
};

/// The Average Rate scheduler (single machine).
#[derive(Debug, Clone, Copy, Default)]
pub struct AvrScheduler;

impl AvrScheduler {
    /// The original batch construction over the instance's atomic-interval
    /// partition, kept as the reference implementation for the
    /// incremental-vs-batch equivalence tests.
    pub fn batch_schedule(&self, instance: &Instance) -> Result<Schedule, ScheduleError> {
        crate::require_single_machine(instance.machines, "AVR", "")?;
        let mut schedule = Schedule::empty(1);
        let partition = IntervalPartition::from_jobs(&instance.jobs);

        for iv in partition.intervals() {
            // Jobs available throughout this atomic interval.
            let active: Vec<(JobId, f64)> = instance
                .jobs
                .iter()
                .filter(|j| partition.job_covers(j, iv.index))
                .map(|j| (j.id, j.density()))
                .collect();
            let total_speed: f64 = active.iter().map(|(_, d)| d).sum();
            if total_speed <= 0.0 {
                continue;
            }
            // Run at the summed density; each job receives a share of the
            // interval proportional to its own density, which processes
            // exactly `density · length` of its work.
            let mut t = iv.start;
            for (job, density) in &active {
                let duration = iv.length() * density / total_speed;
                if duration <= 0.0 {
                    continue;
                }
                schedule.push(Segment::work(0, t, t + duration, total_speed, *job));
                t += duration;
            }
        }
        Ok(schedule)
    }
}

/// One entry of the active-set index: a released job that can still cover a
/// future commit piece.
#[derive(Debug, Clone, Copy)]
struct ActiveJob {
    deadline: f64,
    density: f64,
    id: JobId,
}

/// One event-driven AVR run.
#[derive(Debug, Clone)]
pub struct AvrState {
    /// Released, not-yet-expired jobs sorted by deadline *descending*, so
    /// expiry pops from the tail and the jobs covering a piece are a prefix.
    active: Vec<ActiveJob>,
    /// Largest deadline seen so far (the finish horizon).
    horizon_end: f64,
    committed: Schedule,
    now: f64,
}

impl AvrState {
    /// Commits the window `[self.now, to)` using the densities of the jobs
    /// known so far.  Future arrivals have release `≥ to`, so they can never
    /// contribute to this window — the commit is final.
    ///
    /// The interior cuts are the active deadlines (all stored jobs are
    /// already released, so releases never cut the window) and each piece
    /// is covered by a prefix of the deadline-descending active set, so the
    /// commit touches only jobs intersecting the window.
    fn commit_to(&mut self, to: f64) {
        if !self.now.is_finite() || to <= self.now + 1e-15 {
            self.now = self.now.max(to);
            return;
        }
        // Cuts closer than 1e-12 to the previous cut are merged into it.
        let mut cuts: Vec<f64> = vec![self.now];
        for a in self.active.iter().rev() {
            if a.deadline > self.now + 1e-12
                && a.deadline < to - 1e-12
                && cuts.last().is_none_or(|last| a.deadline - last > 1e-12)
            {
                cuts.push(a.deadline);
            }
        }
        cuts.push(to);

        for pair in cuts.windows(2) {
            let (start, end) = (pair[0], pair[1]);
            // Covering jobs are the prefix whose deadline reaches `end`
            // (releases are all <= start already).
            let covering = self
                .active
                .partition_point(|a| num::approx_le(end, a.deadline));
            let total_speed: f64 = self.active[..covering].iter().map(|a| a.density).sum();
            if total_speed <= 0.0 {
                continue;
            }
            let mut t = start;
            for a in &self.active[..covering] {
                let duration = (end - start) * a.density / total_speed;
                if duration <= 0.0 {
                    continue;
                }
                self.committed
                    .push(Segment::work(0, t, t + duration, total_speed, a.id));
                t += duration;
            }
        }
        self.now = to;
        // Jobs whose deadline lies definitely before the frontier can never
        // cover a future piece: drop them so the index stays `O(active)`.
        while let Some(last) = self.active.last() {
            if num::definitely_lt(last.deadline, self.now) {
                self.active.pop();
            } else {
                break;
            }
        }
    }
}

impl SnapshotPart for ActiveJob {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_f64(self.deadline);
        w.write_f64(self.density);
        w.write_part(&self.id);
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            deadline: r.read_f64()?,
            density: r.read_f64()?,
            id: r.read_part()?,
        })
    }
}

/// State version of [`AvrState`] snapshots.  Version 4 dropped the job
/// history and the index toggle; older blobs are rejected with a typed
/// error.
const AVR_STATE_VERSION: u16 = 4;

/// The blob holds the deadline-descending active-set index, the horizon,
/// the clock and the frontier's log cursor — `O(active)` bytes — so a run
/// restored from the `(log, blob)` pair commits bit-identical windows.
impl LogCheckpointable for AvrState {
    fn snapshot_live(&self, log: &mut SegmentLog) -> Result<StateBlob, SnapshotError> {
        let frontier = FrontierPart::sync(log, &self.committed)?;
        let mut w = BlobWriter::new();
        w.write_seq(&self.active);
        w.write_f64(self.horizon_end);
        w.write_part(&frontier);
        w.write_f64(self.now);
        Ok(StateBlob::new("avr", AVR_STATE_VERSION, w.into_payload()))
    }

    fn restore_with_log(blob: &StateBlob, log: &SegmentLog) -> Result<Self, SnapshotError> {
        let mut r = blob.expect("avr", AVR_STATE_VERSION)?;
        let state = Self {
            active: r.read_seq()?,
            horizon_end: r.read_f64()?,
            committed: r.read_part::<FrontierPart>()?.resolve(log)?,
            now: r.read_f64()?,
        };
        r.finish()?;
        if state
            .active
            .iter()
            .any(|a| !a.deadline.is_finite() || !a.density.is_finite())
        {
            return Err(SnapshotError::Invalid(
                "active set holds a non-finite deadline or density".into(),
            ));
        }
        if state
            .active
            .windows(2)
            .any(|pair| pair[0].deadline < pair[1].deadline)
        {
            return Err(SnapshotError::Invalid(
                "active set is not sorted by deadline descending".into(),
            ));
        }
        Ok(state)
    }
}

impl OnlineScheduler for AvrState {
    fn on_arrival(&mut self, job: &Job, now: f64) -> Result<Decision, ScheduleError> {
        check_arrival(job, self.now, now)?;
        self.commit_to(now.max(self.now));
        // Keep the active set sorted by deadline descending (ties keep
        // arrival order); expired-on-arrival jobs can still cover nothing,
        // but inserting them is harmless — the next commit pops them.
        let pos = self.active.partition_point(|a| a.deadline >= job.deadline);
        self.active.insert(
            pos,
            ActiveJob {
                deadline: job.deadline,
                density: job.density(),
                id: job.id,
            },
        );
        self.horizon_end = self.horizon_end.max(job.deadline);
        Ok(Decision::accept(0.0))
    }

    /// Batch ingestion: one commit for the whole burst, then a single
    /// sorted merge of the burst into the deadline-descending active set —
    /// `O(active + b log b)` instead of `b` binary-search insertions each
    /// moving an `O(active)` tail.
    ///
    /// The merge keeps existing entries ahead of burst entries on tied
    /// deadlines and preserves slice order within the burst, which is
    /// exactly the order the one-insertion-at-a-time path produces, so the
    /// committed time-sharing order is identical too.
    fn on_arrivals(&mut self, jobs: &[Job], now: f64) -> Result<Vec<Decision>, ScheduleError> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        for job in jobs {
            check_arrival(job, self.now, now)?;
        }
        self.commit_to(now.max(self.now));
        let mut fresh: Vec<ActiveJob> = jobs
            .iter()
            .map(|job| {
                self.horizon_end = self.horizon_end.max(job.deadline);
                ActiveJob {
                    deadline: job.deadline,
                    density: job.density(),
                    id: job.id,
                }
            })
            .collect();
        fresh.sort_by(|a, b| b.deadline.total_cmp(&a.deadline));
        let mut merged = Vec::with_capacity(self.active.len() + fresh.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.active.len() && j < fresh.len() {
            if self.active[i].deadline >= fresh[j].deadline {
                merged.push(self.active[i]);
                i += 1;
            } else {
                merged.push(fresh[j]);
                j += 1;
            }
        }
        merged.extend_from_slice(&self.active[i..]);
        merged.extend_from_slice(&fresh[j..]);
        self.active = merged;
        Ok(vec![Decision::accept(0.0); jobs.len()])
    }

    fn frontier(&self) -> &Schedule {
        &self.committed
    }

    fn finish(mut self) -> Result<Schedule, ScheduleError> {
        if self.horizon_end.is_finite() {
            self.commit_to(self.horizon_end);
        }
        // One segment per covering job per piece makes this frontier the
        // one schedule in the workspace that reaches megabytes.  Return it
        // without the up-to-half of its capacity that doubling left unused:
        // freed at its exact size, it does not raise glibc's dynamic mmap
        // threshold to the doubled capacity, so a later run's last doubling
        // step gets a mapping of its own instead of depending on where
        // earlier blocks sit in the heap.
        self.committed.segments.shrink_to_fit();
        Ok(self.committed)
    }
}

impl OnlineAlgorithm for AvrScheduler {
    type Run = AvrState;

    fn algorithm_name(&self) -> String {
        "AVR".into()
    }

    fn start(&self, machines: usize, _alpha: f64) -> Result<Self::Run, ScheduleError> {
        crate::require_single_machine(machines, "AVR", "")?;
        Ok(AvrState {
            active: Vec::new(),
            horizon_end: f64::NEG_INFINITY,
            committed: Schedule::empty(1),
            now: f64::NEG_INFINITY,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_offline::YdsScheduler;
    use pss_types::{validate_schedule, Scheduler};

    fn instance() -> Instance {
        Instance::from_tuples(
            1,
            2.0,
            vec![
                (0.0, 4.0, 2.0, 1.0),
                (1.0, 3.0, 1.0, 1.0),
                (2.0, 5.0, 1.5, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn avr_finishes_every_job() {
        let inst = instance();
        let s = AvrScheduler.schedule(&inst).unwrap();
        let report = validate_schedule(&inst, &s).unwrap();
        assert!(report.rejected.is_empty(), "rejected {:?}", report.rejected);
    }

    #[test]
    fn avr_single_job_matches_optimum() {
        let inst = Instance::from_tuples(1, 3.0, vec![(0.0, 2.0, 1.0, 1.0)]).unwrap();
        let s = AvrScheduler.schedule(&inst).unwrap();
        assert!((s.cost(&inst).energy - 2.0 * 0.5f64.powi(3)).abs() < 1e-9);
    }

    #[test]
    fn avr_uses_at_least_as_much_energy_as_yds() {
        let inst = instance();
        let avr = AvrScheduler.schedule(&inst).unwrap().cost(&inst).energy;
        let yds = YdsScheduler.schedule(&inst).unwrap().cost(&inst).energy;
        assert!(avr >= yds - 1e-9, "AVR {avr} below optimal {yds}");
    }

    #[test]
    fn avr_speed_is_sum_of_densities() {
        let inst = instance();
        let s = AvrScheduler.schedule(&inst).unwrap();
        // At t = 2.5 all three jobs are active: densities 0.5, 0.5, 0.5.
        let expected: f64 = inst
            .jobs
            .iter()
            .filter(|j| j.available_at(2.5))
            .map(|j| j.density())
            .sum();
        assert!((s.total_speed_at(2.5) - expected).abs() < 1e-9);
    }

    #[test]
    fn incremental_avr_matches_the_batch_reference() {
        let inst = instance();
        let batch = AvrScheduler.batch_schedule(&inst).unwrap();
        let inc = AvrScheduler.schedule(&inst).unwrap();
        assert!(
            (batch.cost(&inst).energy - inc.cost(&inst).energy).abs() < 1e-9,
            "energy differs: batch {} vs incremental {}",
            batch.cost(&inst).energy,
            inc.cost(&inst).energy
        );
        for t in [0.5, 1.5, 2.5, 3.5, 4.5] {
            assert!(
                (batch.total_speed_at(t) - inc.total_speed_at(t)).abs() < 1e-9,
                "profiles differ at t={t}"
            );
        }
        // Per-job work is also identical.
        let bw = batch.work_per_job(inst.len());
        let iw = inc.work_per_job(inst.len());
        for j in 0..inst.len() {
            assert!((bw[j] - iw[j]).abs() < 1e-9, "work differs for job {j}");
        }
    }

    #[test]
    fn frontier_is_committed_only_up_to_the_last_arrival() {
        let inst = instance();
        let mut run = AvrScheduler.start_for(&inst).unwrap();
        for id in inst.arrival_order() {
            let job = inst.job(id);
            run.on_arrival(job, job.release).unwrap();
            for seg in &run.frontier().segments {
                assert!(seg.end <= job.release + 1e-12);
            }
        }
        let s = run.finish().unwrap();
        assert!(validate_schedule(&inst, &s).unwrap().rejected.is_empty());
    }

    #[test]
    fn avr_rejects_multi_machine_instances() {
        let inst = Instance::from_tuples(2, 2.0, vec![(0.0, 1.0, 1.0, 1.0)]).unwrap();
        assert!(AvrScheduler.schedule(&inst).is_err());
    }

    #[test]
    fn restore_refuses_an_unsorted_or_non_finite_active_set() {
        let blob = |active: &[(f64, f64)]| {
            let mut log = SegmentLog::new(1);
            let frontier = FrontierPart::sync(&mut log, &Schedule::empty(1)).unwrap();
            let active: Vec<ActiveJob> = active
                .iter()
                .enumerate()
                .map(|(j, &(deadline, density))| ActiveJob {
                    deadline,
                    density,
                    id: JobId(j),
                })
                .collect();
            let mut w = BlobWriter::new();
            w.write_seq(&active);
            w.write_f64(5.0);
            w.write_part(&frontier);
            w.write_f64(1.0);
            (
                StateBlob::new("avr", AVR_STATE_VERSION, w.into_payload()),
                log,
            )
        };
        // Deadline descending, ties allowed: restores.
        let (ok, log) = blob(&[(5.0, 0.5), (3.0, 0.5), (3.0, 1.0)]);
        assert!(AvrState::restore_with_log(&ok, &log).is_ok());
        for bad in [
            vec![(3.0, 0.5), (5.0, 0.5)],
            vec![(5.0, 0.5), (f64::NAN, 0.5)],
            vec![(f64::INFINITY, 0.5)],
            vec![(5.0, f64::INFINITY)],
        ] {
            let (blob, log) = blob(&bad);
            assert!(
                matches!(
                    AvrState::restore_with_log(&blob, &log),
                    Err(SnapshotError::Invalid(_))
                ),
                "active set {bad:?} was not refused"
            );
        }
    }
}
