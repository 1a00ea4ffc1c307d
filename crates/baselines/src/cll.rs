//! The Chan–Lam–Li (CLL) profitable scheduler for a single machine.
//!
//! CLL extends Optimal Available with a rejection rule evaluated once, when
//! a job arrives: compute the OA plan *including* the new job and reject the
//! job if the speed OA plans to run it at exceeds the threshold
//! `(α^{α-2} · v_j / w_j)^{1/(α-1)}` — equivalently, if the energy the plan
//! would invest in the job exceeds `α^{α-2} · v_j`.  Admitted jobs are then
//! always finished.  Chan, Lam & Li prove this is `(α^α + 2e^α)`-competitive
//! for the cost = energy + lost value objective; the paper's PD algorithm
//! improves the bound to `α^α`.
//!
//! Like the other plan-revision baselines, CLL is event-driven: it
//! implements [`OnlineAlgorithm`] through a [`ReplanState`] whose admission
//! policy is the rejection rule above, and recovers its batch
//! [`Scheduler`](pss_types::Scheduler) impl through the blanket adapter.

use std::cmp::Ordering;

use pss_offline::Staircase;
use pss_power::AlphaPower;
use pss_types::snapshot::{BlobReader, BlobWriter, SnapshotError, SnapshotPart};
use pss_types::{Instance, Job, OnlineAlgorithm, Schedule, ScheduleError};

use crate::oa::OaPlanner;
use crate::replan::{
    insertion_point, run_replanning, AdmissionPolicy, OnlineEnv, PendingJob, ReplanState,
};

/// The Chan–Lam–Li admission rule: reject a job if OA would plan it at a
/// speed above the value/workload threshold.
///
/// The planned speed is evaluated with the left-aligned YDS special case
/// (every job the rule sees has already been released, so all windows start
/// at `now`), one `O(k)` staircase pass per arrival instead of the general
/// `O(k³)` critical-interval search.  The pending list is already in
/// deadline order, so the new job is spliced in where the executor would
/// insert it and nothing is sorted; the rule reads the job's step speed off
/// the [`Staircase`] (in buffers the run reuses) and builds no plan: the
/// speed is bit for bit the one the whole left-aligned plan gives the job.
#[derive(Debug, Clone, Copy, Default)]
pub struct CllAdmission;

/// The speed the left-aligned plan at `now` runs `job` at, with `job`
/// spliced into `pending` at its [`insertion_point`].
fn planned_speed(
    now: f64,
    job: &Job,
    pending: &[PendingJob],
    staircase: &mut Staircase,
) -> Result<f64, ScheduleError> {
    let at = insertion_point(pending, job.deadline);
    let item = |i: usize| match i.cmp(&at) {
        Ordering::Less => (pending[i].deadline, pending[i].remaining),
        Ordering::Equal => (job.deadline, job.work),
        Ordering::Greater => (pending[i - 1].deadline, pending[i - 1].remaining),
    };
    let (deadline, work) = (|i| item(i).0, |i| item(i).1);
    staircase.planned_speed(now, pending.len() + 1, deadline, work, at)
}

impl AdmissionPolicy for CllAdmission {
    type Scratch = Staircase;

    fn admit(
        &self,
        env: &OnlineEnv,
        now: f64,
        job: &Job,
        pending: &[PendingJob],
        scratch: &mut Staircase,
    ) -> Result<bool, ScheduleError> {
        let power = AlphaPower::new(env.alpha);
        let planned_speed = planned_speed(now, job, pending, scratch)?;
        let threshold = power.rejection_speed_threshold(job.value, job.work);
        Ok(planned_speed <= threshold * (1.0 + 1e-9))
    }
}

/// The admission rule is stateless; its snapshot is a tag so a CLL blob can
/// never restore into an admit-all executor (or vice versa).
impl SnapshotPart for CllAdmission {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_str("cll-admission");
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        match r.read_str()?.as_str() {
            "cll-admission" => Ok(CllAdmission),
            other => Err(SnapshotError::Invalid(format!(
                "expected the CLL admission rule, found {other}"
            ))),
        }
    }
}

/// The Chan–Lam–Li scheduler: OA with the value-based rejection rule.
#[derive(Debug, Clone, Copy, Default)]
pub struct CllScheduler;

impl CllScheduler {
    /// The original batch replanning loop, kept as the reference
    /// implementation for the incremental-vs-batch equivalence tests.
    pub fn batch_schedule(&self, instance: &Instance) -> Result<Schedule, ScheduleError> {
        crate::require_single_machine(instance.machines, "CLL", "; the paper's PD handles m > 1")?;
        run_replanning(instance, &OaPlanner { speed_factor: 1.0 }, &CllAdmission)
    }
}

impl OnlineAlgorithm for CllScheduler {
    type Run = ReplanState<OaPlanner, CllAdmission>;

    fn algorithm_name(&self) -> String {
        "CLL".into()
    }

    fn start(&self, machines: usize, alpha: f64) -> Result<Self::Run, ScheduleError> {
        crate::require_single_machine(machines, "CLL", "; the paper's PD handles m > 1")?;
        Ok(ReplanState::new(
            OaPlanner { speed_factor: 1.0 },
            CllAdmission,
            OnlineEnv { machines, alpha },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_types::{validate_schedule, JobId, OnlineScheduler, Scheduler};

    #[test]
    fn high_value_jobs_are_all_finished() {
        let inst = Instance::from_tuples(
            1,
            2.0,
            vec![
                (0.0, 4.0, 1.0, 100.0),
                (1.0, 3.0, 1.0, 100.0),
                (2.0, 6.0, 2.0, 100.0),
            ],
        )
        .unwrap();
        let s = CllScheduler.schedule(&inst).unwrap();
        let report = validate_schedule(&inst, &s).unwrap();
        assert!(
            report.rejected.is_empty(),
            "rejected: {:?}",
            report.rejected
        );
    }

    #[test]
    fn worthless_expensive_job_is_rejected() {
        // Needs speed 10 over a unit window (energy 100 at alpha 2) but is
        // worth almost nothing.
        let inst = Instance::from_tuples(1, 2.0, vec![(0.0, 1.0, 10.0, 0.001)]).unwrap();
        let s = CllScheduler.schedule(&inst).unwrap();
        let report = validate_schedule(&inst, &s).unwrap();
        assert_eq!(report.rejected, vec![JobId(0)]);
        assert!((s.cost(&inst).total() - 0.001).abs() < 1e-9);
    }

    #[test]
    fn arrival_decisions_report_the_rejection_and_its_dual() {
        let inst =
            Instance::from_tuples(1, 2.0, vec![(0.0, 1.0, 10.0, 0.001), (0.0, 2.0, 0.5, 10.0)])
                .unwrap();
        let mut run = CllScheduler.start_for(&inst).unwrap();
        let mut decisions = Vec::new();
        for id in inst.arrival_order() {
            let job = inst.job(id);
            decisions.push(run.on_arrival(job, job.release).unwrap());
        }
        assert!(!decisions[0].accepted);
        assert!((decisions[0].dual - 0.001).abs() < 1e-12);
        assert!(decisions[1].accepted);
    }

    #[test]
    fn threshold_case_alpha2_admits_exactly_when_value_covers_energy() {
        // With alpha = 2 the factor alpha^{alpha-2} is 1: a lone job is
        // admitted iff its planned energy w·s is at most its value.
        // Job over [0,1) with work 2 plans at speed 2, energy 4.
        let admit = Instance::from_tuples(1, 2.0, vec![(0.0, 1.0, 2.0, 4.1)]).unwrap();
        let reject = Instance::from_tuples(1, 2.0, vec![(0.0, 1.0, 2.0, 3.9)]).unwrap();
        let sa = CllScheduler.schedule(&admit).unwrap();
        let sr = CllScheduler.schedule(&reject).unwrap();
        assert!(validate_schedule(&admit, &sa).unwrap().rejected.is_empty());
        assert_eq!(
            validate_schedule(&reject, &sr).unwrap().rejected,
            vec![JobId(0)]
        );
    }

    #[test]
    fn rejection_is_permanent_even_if_load_later_drops() {
        // A burst makes job 1 expensive at its arrival; even though the
        // burst jobs finish quickly, job 1 stays rejected.
        let inst = Instance::from_tuples(
            1,
            2.0,
            vec![
                (0.0, 1.0, 3.0, 1000.0), // burst job forcing high speed
                (0.0, 1.2, 1.0, 0.5),    // cheap job arriving during the burst
            ],
        )
        .unwrap();
        let s = CllScheduler.schedule(&inst).unwrap();
        let report = validate_schedule(&inst, &s).unwrap();
        assert!(report.rejected.contains(&JobId(1)));
    }

    #[test]
    fn incremental_cll_matches_the_batch_reference() {
        let inst = Instance::from_tuples(
            1,
            2.0,
            vec![
                (0.0, 4.0, 1.0, 2.0),
                (0.5, 2.0, 2.0, 0.3),
                (1.0, 3.0, 1.0, 5.0),
                (2.0, 6.0, 1.5, 1.0),
            ],
        )
        .unwrap();
        let batch = CllScheduler.batch_schedule(&inst).unwrap();
        let inc = CllScheduler.schedule(&inst).unwrap();
        assert!(
            (batch.cost(&inst).total() - inc.cost(&inst).total()).abs()
                < 1e-9 * batch.cost(&inst).total().max(1.0)
        );
        assert_eq!(batch.unfinished_jobs(&inst), inc.unfinished_jobs(&inst));
    }

    #[test]
    fn admission_reads_the_spliced_jobs_reference_speed_bit_for_bit() {
        let mut state = 11u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let mut staircase = Staircase::default();
        let (mut pending, mut now, mut ties) = (Vec::<PendingJob>::new(), 0.0, 0);
        for id in 0..400 {
            now += 0.2 * next();
            pending.retain(|p| p.deadline > now);
            for p in &mut pending {
                p.remaining = (p.remaining - 0.1 * next()).max(0.0);
            }
            let deadline = match pending.len() {
                len if len > 0 && next() < 0.4 => {
                    ties += 1;
                    pending[(next() * len as f64) as usize].deadline
                }
                _ => now + 0.05 + 3.0 * next(),
            };
            let work = if next() < 0.1 { 1e-11 } else { 0.05 + next() };
            let job = Job::new(id, now, deadline, work, 1.0);
            // The reference sorts a copy in which the job comes last, so it
            // runs after the pending jobs of equal deadline.
            let mut items: Vec<(f64, f64)> =
                pending.iter().map(|p| (p.deadline, p.remaining)).collect();
            items.push((job.deadline, job.work));
            let want = pss_offline::left_aligned_planned_speed(now, &items, pending.len())
                .expect("reference");
            let got = planned_speed(now, &job, &pending, &mut staircase).expect("spliced");
            assert_eq!(got.to_bits(), want.to_bits(), "job {id}");
            pending.insert(insertion_point(&pending, deadline), PendingJob::new(&job));
        }
        assert!(ties > 100, "only {ties} tied deadlines");
    }

    #[test]
    fn cll_requires_single_machine() {
        let inst = Instance::from_tuples(2, 2.0, vec![(0.0, 1.0, 1.0, 1.0)]).unwrap();
        assert!(CllScheduler.schedule(&inst).is_err());
    }
}
