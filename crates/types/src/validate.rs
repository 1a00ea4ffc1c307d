//! Schedule feasibility checking.
//!
//! The model of Section 2 of the paper imposes three structural constraints
//! on a schedule besides meeting workloads:
//!
//! 1. every machine processes at most one job at any time,
//! 2. every job is processed by at most one machine at any time
//!    (jobs are nonparallel),
//! 3. work on a job only counts inside its availability window `[r_j, d_j)`.
//!
//! [`validate_schedule`] checks all of these plus basic well-formedness of
//! the segments, and reports which jobs are finished.  It is used by the
//! integration tests and by the simulator to certify every schedule the
//! algorithms produce.
//!
//! For S segments and n jobs the check costs O(S log S + n) (plus one pass
//! over the segments per machine): constraint 2 reads every job's segments
//! in time order from one [`Schedule::segments_by_job`] index instead of
//! scanning the schedule once per job.

use crate::error::ScheduleError;
use crate::instance::Instance;
use crate::job::JobId;
use crate::num;
use crate::segment::Schedule;

/// Result of validating a schedule against an instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Work processed inside its window for each job.
    pub work_done: Vec<f64>,
    /// Whether each job is finished.
    pub finished: Vec<bool>,
    /// Ids of unfinished jobs (the rejected set).
    pub rejected: Vec<JobId>,
    /// Total energy of the schedule under the instance's `α`.
    pub energy: f64,
}

impl ValidationReport {
    /// Number of finished jobs.
    pub fn finished_count(&self) -> usize {
        self.finished.iter().filter(|b| **b).count()
    }
}

/// Validates a schedule against an instance.
///
/// Returns a [`ValidationReport`] on success and a [`ScheduleError`]
/// describing the first violated constraint otherwise.  Work scheduled for a
/// job outside its `[r_j, d_j)` window is an error (rather than silently not
/// counted) because no algorithm in this workspace should ever produce it.
pub fn validate_schedule(
    instance: &Instance,
    schedule: &Schedule,
) -> Result<ValidationReport, ScheduleError> {
    let n = instance.len();
    let m = instance.machines;

    if schedule.machines != m {
        return Err(ScheduleError::Internal(format!(
            "schedule declares {} machines but instance has {}",
            schedule.machines, m
        )));
    }

    // -- Per-segment well-formedness -------------------------------------
    for seg in &schedule.segments {
        if !seg.start.is_finite() || !seg.end.is_finite() || !seg.speed.is_finite() {
            return Err(ScheduleError::BadSegment(format!(
                "non-finite segment {seg:?}"
            )));
        }
        if seg.end <= seg.start {
            return Err(ScheduleError::BadSegment(format!(
                "empty or reversed segment [{}, {})",
                seg.start, seg.end
            )));
        }
        if seg.speed < 0.0 {
            return Err(ScheduleError::BadSegment(format!(
                "negative speed {} in segment",
                seg.speed
            )));
        }
        if seg.machine >= m {
            return Err(ScheduleError::UnknownMachine(seg.machine));
        }
        if let Some(j) = seg.job {
            if j.index() >= n {
                return Err(ScheduleError::UnknownJob(j));
            }
            let job = instance.job(j);
            if !job.covers(seg.start, seg.end) {
                return Err(ScheduleError::BadSegment(format!(
                    "job {j} processed in [{:.6}, {:.6}) outside its window [{:.6}, {:.6})",
                    seg.start, seg.end, job.release, job.deadline
                )));
            }
        }
    }

    // -- Constraint 1: one job per machine at a time ----------------------
    for machine in 0..m {
        let segs = schedule.machine_segments(machine);
        for pair in segs.windows(2) {
            if pair[0].overlaps(pair[1]) {
                return Err(ScheduleError::BadSegment(format!(
                    "machine {machine} runs two overlapping segments: {:?} and {:?}",
                    pair[0], pair[1]
                )));
            }
        }
    }

    // -- Constraint 2: one machine per job at a time ----------------------
    let by_job = schedule.segments_by_job(n);
    for j in 0..n {
        for pair in by_job.job(JobId(j)).windows(2) {
            if pair[0].overlaps(pair[1]) && pair[0].machine != pair[1].machine {
                return Err(ScheduleError::BadSegment(format!(
                    "job j{j} runs on machines {} and {} simultaneously",
                    pair[0].machine, pair[1].machine
                )));
            }
            // Same machine overlaps were already rejected by constraint 1,
            // but duplicated segments on the same machine for the same job
            // would double count work, so reject them here too.
            if pair[0].overlaps(pair[1]) && pair[0].machine == pair[1].machine {
                return Err(ScheduleError::BadSegment(format!(
                    "job j{j} has overlapping segments on machine {}",
                    pair[0].machine
                )));
            }
        }
    }

    // -- Work and energy accounting ---------------------------------------
    let work_done = schedule.work_per_job(n);
    let finished: Vec<bool> = instance
        .jobs
        .iter()
        .map(|job| num::approx_ge(work_done[job.id.index()], job.work))
        .collect();
    let rejected = finished
        .iter()
        .enumerate()
        .filter_map(|(i, done)| if *done { None } else { Some(JobId(i)) })
        .collect();

    Ok(ValidationReport {
        work_done,
        finished,
        rejected,
        energy: schedule.energy(instance.alpha),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Segment;

    fn inst() -> Instance {
        Instance::from_tuples(2, 2.0, vec![(0.0, 2.0, 2.0, 4.0), (1.0, 3.0, 1.0, 1.0)]).unwrap()
    }

    #[test]
    fn accepts_feasible_schedule() {
        let inst = inst();
        let mut s = Schedule::empty(2);
        s.push(Segment::work(0, 0.0, 2.0, 1.0, JobId(0)));
        s.push(Segment::work(1, 1.0, 3.0, 0.5, JobId(1)));
        let report = validate_schedule(&inst, &s).unwrap();
        assert_eq!(report.finished, vec![true, true]);
        assert!(report.rejected.is_empty());
        assert_eq!(report.finished_count(), 2);
        assert!((report.energy - (2.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn reports_unfinished_jobs() {
        let inst = inst();
        let mut s = Schedule::empty(2);
        s.push(Segment::work(0, 0.0, 2.0, 1.0, JobId(0)));
        let report = validate_schedule(&inst, &s).unwrap();
        assert_eq!(report.rejected, vec![JobId(1)]);
    }

    #[test]
    fn rejects_work_outside_window() {
        let inst = inst();
        let mut s = Schedule::empty(2);
        s.push(Segment::work(0, 2.5, 3.0, 1.0, JobId(0))); // job 0 deadline is 2.0
        assert!(matches!(
            validate_schedule(&inst, &s),
            Err(ScheduleError::BadSegment(_))
        ));
    }

    #[test]
    fn rejects_machine_overlap() {
        let inst = inst();
        let mut s = Schedule::empty(2);
        s.push(Segment::work(0, 0.0, 2.0, 1.0, JobId(0)));
        s.push(Segment::work(0, 1.0, 2.0, 1.0, JobId(1)));
        assert!(validate_schedule(&inst, &s).is_err());
    }

    #[test]
    fn rejects_parallel_execution_of_one_job() {
        let inst = inst();
        let mut s = Schedule::empty(2);
        s.push(Segment::work(0, 0.0, 1.5, 1.0, JobId(0)));
        s.push(Segment::work(1, 1.0, 2.0, 1.0, JobId(0)));
        assert!(validate_schedule(&inst, &s).is_err());
    }

    #[test]
    fn rejects_unknown_machine_and_job() {
        let inst = inst();
        let mut s = Schedule::empty(2);
        s.push(Segment::work(5, 0.0, 1.0, 1.0, JobId(0)));
        assert!(matches!(
            validate_schedule(&inst, &s),
            Err(ScheduleError::UnknownMachine(5))
        ));

        let mut s = Schedule::empty(2);
        s.push(Segment::work(0, 0.0, 1.0, 1.0, JobId(9)));
        assert!(matches!(
            validate_schedule(&inst, &s),
            Err(ScheduleError::UnknownJob(JobId(9)))
        ));
    }

    #[test]
    fn rejects_wrong_machine_count() {
        let inst = inst();
        let s = Schedule::empty(1);
        assert!(validate_schedule(&inst, &s).is_err());
    }

    #[test]
    fn rejects_negative_speed_and_bad_times() {
        let inst = inst();
        let mut s = Schedule::empty(2);
        s.segments.push(Segment {
            machine: 0,
            start: 0.0,
            end: 1.0,
            speed: -1.0,
            job: Some(JobId(0)),
        });
        assert!(validate_schedule(&inst, &s).is_err());

        let mut s = Schedule::empty(2);
        s.segments.push(Segment {
            machine: 0,
            start: 1.0,
            end: 0.5,
            speed: 1.0,
            job: Some(JobId(0)),
        });
        assert!(validate_schedule(&inst, &s).is_err());
    }

    #[test]
    fn empty_schedule_rejects_everything() {
        let inst = inst();
        let s = Schedule::empty(2);
        let report = validate_schedule(&inst, &s).unwrap();
        assert_eq!(report.rejected.len(), 2);
        assert_eq!(report.energy, 0.0);
    }
}
