//! Average Rate (AVR), Yao, Demers & Shenker's second online algorithm.
//!
//! Every job is processed at its own density `w_j / (d_j − r_j)` over its
//! availability window: the machine's speed at any time is the sum of the
//! densities of the jobs available at that time.  That speed profile alone
//! fixes AVR's energy.  AVR is `(2α)^α / 2`-competitive and serves as an
//! easy-to-predict baseline in the classical (mandatory completion)
//! experiments.
//!
//! ### EDF dispatch
//!
//! The profile is usually realised by time-sharing: every piece of time is
//! split among the available jobs in proportion to their densities.  Both
//! paths here run the same profile in EDF order instead.  Each job carries
//! a work budget, and each piece runs the pending job with the earliest
//! deadline until its budget is spent or the piece ends.  Time-sharing
//! meets every budget by its deadline at this profile, so on one machine
//! EDF meets them too, and it never idles while the speed is positive:
//! per-job work and energy are those of time-sharing.  A segment, though,
//! ends only at a feed time, a deadline or a completion, so a stream of `n`
//! jobs has at most `3n` segments instead of one per covering job per
//! piece.  Every segment with `end > start` is kept, completion slivers
//! shorter than [`Schedule::push`]'s absolute 1e-9 s cut included: dropping
//! one would leave its job short of its work.
//!
//! AVR is naturally event-driven: a job's contribution to the speed profile
//! is fixed at its own arrival and never touches the past, so the
//! incremental [`AvrState`] simply *commits* the window between consecutive
//! arrivals using the densities of the jobs known so far.  A job's budget
//! is the work time-sharing gives it over what is left of its window when
//! it is fed, `density × (deadline − frontier)`: its whole work when it is
//! fed at its release, and `density × delay` less when a coalescing window
//! feeds it late.  The one-shot construction over the full atomic-interval
//! partition, where every budget is the job's work, is retained as
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
//! The jobs covering a piece are a prefix of the index: its speed sums their
//! densities, and EDF walks the prefix back from its earliest deadline.
//! Each piece costs `O(active)`, independent of the stream length, and the
//! run keeps no job history, so its checkpoint blob is `O(active)` too.

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
    /// incremental-vs-batch equivalence tests.  Every job is seen at its
    /// release, so its budget is its work.
    pub fn batch_schedule(&self, instance: &Instance) -> Result<Schedule, ScheduleError> {
        crate::require_single_machine(instance.machines, "AVR", "")?;
        let mut schedule = Schedule::empty(1);
        let partition = IntervalPartition::from_jobs(&instance.jobs);
        let mut jobs: Vec<ActiveJob> = instance
            .jobs
            .iter()
            .map(|j| ActiveJob {
                deadline: j.deadline,
                density: j.density(),
                remaining: j.work,
                id: j.id,
            })
            .collect();

        let mut covering = Vec::new();
        for iv in partition.intervals() {
            // Jobs available throughout this atomic interval run at the
            // sum of their densities, in EDF order.
            covering.clear();
            covering.extend(
                (0..jobs.len()).filter(|&k| partition.job_covers(&instance.jobs[k], iv.index)),
            );
            let speed: f64 = covering.iter().map(|&k| jobs[k].density).sum();
            if speed <= 0.0 {
                continue;
            }
            covering.sort_by(|&a, &b| jobs[a].deadline.total_cmp(&jobs[b].deadline));
            run_edf(
                &mut schedule,
                (iv.start, iv.end),
                speed,
                &mut jobs,
                covering.iter().copied(),
            );
        }
        Ok(schedule)
    }
}

/// Runs the piece `[start, end)` at `speed` in EDF order: `order` lists
/// indices into `jobs` by deadline ascending, and each pending job runs
/// until its budget is spent or the piece ends.  Every segment with
/// `end > start` is pushed straight into `schedule.segments`, bypassing
/// [`Schedule::push`]'s absolute 1e-9 s cut.
fn run_edf(
    schedule: &mut Schedule,
    (start, end): (f64, f64),
    speed: f64,
    jobs: &mut [ActiveJob],
    order: impl Iterator<Item = usize>,
) {
    let mut t = start;
    for k in order {
        if t >= end {
            break;
        }
        let job = &mut jobs[k];
        if job.remaining <= 0.0 {
            continue;
        }
        let finish = t + job.remaining / speed;
        let stop = finish.min(end);
        if stop > t {
            schedule
                .segments
                .push(Segment::work(0, t, stop, speed, job.id));
        }
        job.remaining = if finish < end {
            0.0
        } else {
            (job.remaining - speed * (end - t)).max(0.0)
        };
        t = stop;
    }
}

/// One job as EDF dispatches it.  In [`AvrState`]'s active-set index, a
/// released job that can still cover a future commit piece.
#[derive(Debug, Clone, Copy)]
struct ActiveJob {
    deadline: f64,
    density: f64,
    /// The job's work budget left to run: `density × (deadline − frontier)`
    /// at its arrival (its work in the batch construction), less what EDF
    /// has run since.
    remaining: f64,
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
    /// already released, so releases never cut the window); a cut closer
    /// than 1e-12 to the previous one is merged into it.
    fn commit_to(&mut self, to: f64) {
        if !self.now.is_finite() || to <= self.now + 1e-15 {
            self.now = self.now.max(to);
            return;
        }
        let mut start = self.now;
        for k in (0..self.active.len()).rev() {
            let deadline = self.active[k].deadline;
            if deadline >= to - 1e-12 {
                break;
            }
            if deadline > self.now + 1e-12 && deadline - start > 1e-12 {
                self.commit_piece(start, deadline);
                start = deadline;
            }
        }
        self.commit_piece(start, to);
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

    /// Commits one piece `[start, end)` free of interior cuts: the covering
    /// jobs are the prefix whose deadline reaches `end` (releases are all
    /// `≤ start` already), and EDF runs them at the sum of their densities.
    fn commit_piece(&mut self, start: f64, end: f64) {
        let covering = self
            .active
            .partition_point(|a| num::approx_le(end, a.deadline));
        let speed: f64 = self.active[..covering].iter().map(|a| a.density).sum();
        if speed > 0.0 {
            run_edf(
                &mut self.committed,
                (start, end),
                speed,
                &mut self.active,
                (0..covering).rev(),
            );
        }
    }
}

impl SnapshotPart for ActiveJob {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_f64(self.deadline);
        w.write_f64(self.density);
        w.write_f64(self.remaining);
        w.write_part(&self.id);
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            deadline: r.read_f64()?,
            density: r.read_f64()?,
            remaining: r.read_f64()?,
            id: r.read_part()?,
        })
    }
}

/// State version of [`AvrState`] snapshots.  Version 4 dropped the job
/// history and the index toggle; version 5 added each active job's
/// remaining budget.  Older blobs are rejected with a typed error.
const AVR_STATE_VERSION: u16 = 5;

/// The blob holds the deadline-descending active-set index with each job's
/// remaining budget, the horizon, the clock and the frontier's log cursor —
/// `O(active)` bytes — so a run restored from the `(log, blob)` pair
/// commits bit-identical windows.
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
        if state.active.iter().any(|a| {
            !a.deadline.is_finite()
                || !a.density.is_finite()
                || !a.remaining.is_finite()
                || a.remaining < 0.0
        }) {
            return Err(SnapshotError::Invalid(
                "active set holds a non-finite deadline, density or budget, or a negative budget"
                    .into(),
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
    /// Burst ingestion: one commit for the whole burst, then a single
    /// sorted merge of the burst into the deadline-descending active set —
    /// `O(active + b log b)` instead of `b` binary-search insertions each
    /// moving an `O(active)` tail.  Expired-on-arrival jobs cover nothing,
    /// but merging them is harmless: the next commit pops them.
    ///
    /// Each job's budget is `density × (deadline − frontier)` after the
    /// burst's commit: the work time-sharing would give it over the rest of
    /// its window (0 for a job already expired).  The merge keeps existing
    /// entries ahead of burst entries on tied deadlines and preserves slice
    /// order within the burst, which is exactly the order feeding the jobs
    /// as one-job bursts produces, so EDF breaks deadline ties identically
    /// too.
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
                let density = job.density();
                ActiveJob {
                    deadline: job.deadline,
                    density,
                    remaining: (density * (job.deadline - self.now)).max(0.0),
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
        let blob = |active: &[(f64, f64, f64)]| {
            let mut log = SegmentLog::new(1);
            let frontier = FrontierPart::sync(&mut log, &Schedule::empty(1)).unwrap();
            let active: Vec<ActiveJob> = active
                .iter()
                .enumerate()
                .map(|(j, &(deadline, density, remaining))| ActiveJob {
                    deadline,
                    density,
                    remaining,
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
        // Deadline descending, ties allowed, spent budgets allowed: restores.
        let (ok, log) = blob(&[(5.0, 0.5, 2.0), (3.0, 0.5, 0.0), (3.0, 1.0, 1.5)]);
        assert!(AvrState::restore_with_log(&ok, &log).is_ok());
        for bad in [
            vec![(3.0, 0.5, 1.0), (5.0, 0.5, 1.0)],
            vec![(5.0, 0.5, 1.0), (f64::NAN, 0.5, 1.0)],
            vec![(f64::INFINITY, 0.5, 1.0)],
            vec![(5.0, f64::INFINITY, 1.0)],
            vec![(5.0, 0.5, -1e-300)],
            vec![(5.0, 0.5, 1.0), (3.0, 0.5, f64::NAN)],
            vec![(5.0, 0.5, f64::INFINITY)],
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
