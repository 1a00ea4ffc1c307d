//! The paper's primal-dual algorithm PD (Listing 1 of Section 3).
//!
//! For every arriving job `j`, PD greedily raises the primal variables
//! `x_{jk}` of the convex program: it pours the job's workload into the
//! atomic intervals of its availability window, always into the intervals
//! with the currently smallest marginal cost `λ_{jk} = δ·∂P_k/∂x_{jk}`,
//! keeping all used intervals at a common level.  The pour stops when
//!
//! * the whole job is assigned (`Σ_k x_{jk} = 1`): the job is **accepted**,
//!   its dual variable is set to the final level `λ_j = δ·∂P_k/∂x_{jk}`, or
//! * the level reaches the job's value (`λ_{jk} = v_j`): the planned
//!   fractions are reset to zero, the job is **rejected**, and `λ_j = v_j`.
//!
//! Work assigned by earlier jobs is never moved — unlike OA, PD only adds
//! speed where it is needed (the conservatism illustrated by Figure 3 of
//! the paper).  The actual machine-level schedule is obtained by running
//! Chen et al.'s algorithm on the final per-interval work assignment.
//!
//! With `δ = α^{1-α}` (the default), Theorem 3 shows PD is exactly
//! `α^α`-competitive; [`crate::analysis`] certifies the bound on every run
//! via the dual function.

use pss_convex::{waterfill_job, ProgramContext, WaterfillOptions};
use pss_intervals::WorkAssignment;
use pss_types::{Instance, OnlineAlgorithm, Schedule, ScheduleError};

use crate::online::OnlinePd;

/// The PD scheduler.
///
/// The one knob is the primal-dual parameter `δ` (defaults to the analysed
/// optimum `α^{1-α}`): the water level has a closed form, so the fill has
/// no tolerance to set.
#[derive(Debug, Clone, Copy, Default)]
pub struct PdScheduler {
    /// The parameter `δ` of Listing 1; `None` selects `δ* = α^{1-α}`.
    pub delta: Option<f64>,
}

impl PdScheduler {
    /// PD with an explicit `δ` (used by the δ-ablation experiment).
    pub fn with_delta(delta: f64) -> Self {
        assert!(delta.is_finite() && delta > 0.0, "delta must be positive");
        Self { delta: Some(delta) }
    }

    /// The same scheduler as [`default`](Self::default).  The water level
    /// has no tolerance left to coarsen; the constructor stays for the
    /// callers that name it.
    pub fn coarse() -> Self {
        Self::default()
    }

    /// The effective `δ` for an instance with the given `α`.
    pub fn effective_delta(&self, alpha: f64) -> f64 {
        self.delta
            .unwrap_or_else(|| pss_power::AlphaPower::new(alpha).delta_star())
    }

    /// Runs PD and returns the full run record (assignment, duals,
    /// accept/reject decisions and the realised schedule).
    pub fn run(&self, instance: &Instance) -> Result<PdRun, ScheduleError> {
        let ctx = ProgramContext::new(instance);
        let delta = self.effective_delta(instance.alpha);
        let n = instance.len();
        let n_intervals = ctx.partition().len();

        let mut assignment = WorkAssignment::zeros(n, n_intervals);
        let mut lambda = vec![0.0_f64; n];
        let mut accepted = vec![false; n];
        let mut planned_fraction = vec![0.0_f64; n];
        let mut decision_speed = vec![0.0_f64; n];

        for id in instance.arrival_order() {
            let j = id.index();
            let job = instance.job(id);
            // Level cap: λ_{jk} = δ·marginal may rise to at most v_j, i.e.
            // the marginal may rise to v_j / δ.
            let opts = WaterfillOptions {
                max_fraction: 1.0,
                max_marginal: Some(job.value / delta),
            };
            let fill = waterfill_job(&ctx, &assignment, j, &opts);
            planned_fraction[j] = fill.total;
            decision_speed[j] = fill.level_speed;
            if fill.saturated {
                for (k, f) in &fill.added {
                    assignment.set(j, *k, *f);
                }
                lambda[j] = delta * fill.level_marginal;
                accepted[j] = true;
            } else {
                // Listing 1, line 12: reset the planned fractions, remember
                // the value as the dual variable.
                lambda[j] = job.value;
            }
        }

        let schedule = ctx.realize_schedule(&assignment);
        Ok(PdRun {
            context: ctx,
            delta,
            assignment,
            lambda,
            accepted,
            planned_fraction,
            decision_speed,
            schedule,
        })
    }
}

/// PD is event-driven: a run is an [`OnlinePd`] fed one arrival at a time.
/// The batch [`Scheduler`](pss_types::Scheduler) impl is recovered by the
/// blanket adapter in `pss-types`; [`PdScheduler::run`] remains the
/// independent batch reference (whole-instance partition, no refinement)
/// that the equivalence tests compare against.
impl OnlineAlgorithm for PdScheduler {
    type Run = OnlinePd;

    fn algorithm_name(&self) -> String {
        "PD".into()
    }

    fn start(&self, machines: usize, alpha: f64) -> Result<Self::Run, ScheduleError> {
        if machines == 0 {
            return Err(ScheduleError::Internal(
                "PD needs at least one machine".into(),
            ));
        }
        Ok(OnlinePd::with_delta(
            machines,
            alpha,
            self.effective_delta(alpha),
        ))
    }
}

/// The complete record of one PD run: everything the analysis of Section 4
/// needs, plus the realised schedule.
#[derive(Debug, Clone)]
pub struct PdRun {
    /// The program context (instance, partition, power function).
    pub context: ProgramContext,
    /// The effective `δ` used for the run.
    pub delta: f64,
    /// The final primal variables `x̃` (zero rows for rejected jobs).
    pub assignment: WorkAssignment,
    /// The dual variables `λ̃` (level reached for accepted jobs, `v_j` for
    /// rejected jobs).
    pub lambda: Vec<f64>,
    /// The indicator `ỹ`: whether each job was accepted (finished).
    pub accepted: Vec<bool>,
    /// The fraction `x̌_j` PD had planned at the moment the decision was
    /// made (equal to 1 for accepted jobs, `< 1` for rejected ones).
    pub planned_fraction: Vec<f64>,
    /// The common speed level of the job's water-fill at decision time
    /// (the planned speed `s̃_j` of Section 4.2, before any later arrival).
    pub decision_speed: Vec<f64>,
    /// The realised machine-level schedule (Chen et al. per interval).
    pub schedule: Schedule,
}

impl PdRun {
    /// Ids of the jobs PD rejected.
    pub fn rejected_jobs(&self) -> Vec<usize> {
        self.accepted
            .iter()
            .enumerate()
            .filter_map(|(j, a)| if *a { None } else { Some(j) })
            .collect()
    }

    /// The cost of the run's schedule on its instance.
    pub fn cost(&self) -> pss_types::Cost {
        self.schedule.cost(self.context.instance())
    }

    /// Total value of the jobs PD rejected.
    pub fn lost_value(&self) -> f64 {
        pss_types::num::stable_sum(
            self.rejected_jobs()
                .iter()
                .map(|&j| self.context.instance().jobs[j].value),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_offline::brute_force_optimum;
    use pss_power::AlphaPower;
    use pss_types::{validate_schedule, JobId, Scheduler};

    #[test]
    fn lone_valuable_job_is_accepted_and_spread_optimally() {
        let inst = Instance::from_tuples(1, 3.0, vec![(0.0, 4.0, 2.0, 100.0)]).unwrap();
        let run = PdScheduler::default().run(&inst).unwrap();
        assert!(run.accepted[0]);
        // Optimal energy 0.5 (speed 0.5 for 4 units).
        assert!((run.cost().energy - 0.5).abs() < 1e-6);
        assert!(validate_schedule(&inst, &run.schedule)
            .unwrap()
            .rejected
            .is_empty());
    }

    #[test]
    fn worthless_expensive_job_is_rejected() {
        let inst = Instance::from_tuples(1, 2.0, vec![(0.0, 1.0, 10.0, 0.01)]).unwrap();
        let run = PdScheduler::default().run(&inst).unwrap();
        assert!(!run.accepted[0]);
        assert_eq!(run.lambda[0], 0.01);
        // The schedule does nothing; the cost is the lost value.
        assert!((run.cost().total() - 0.01).abs() < 1e-12);
        assert!(run.assignment.total_fraction(0) == 0.0);
    }

    #[test]
    fn rejection_threshold_matches_closed_form_single_job() {
        // For a single job on an empty machine the planned speed is w / window,
        // and PD (with δ*) rejects exactly when that exceeds
        // (α^{α-2}·v/w)^{1/(α-1)}.
        let alpha = 3.0;
        let power = AlphaPower::new(alpha);
        let (w, window): (f64, f64) = (2.0, 1.0);
        let planned_speed = w / window;
        // Value exactly at the threshold: planned energy = α^{α-2}·v.
        let v_threshold = w * planned_speed.powf(alpha - 1.0) / power.rejection_energy_factor();
        for (v, should_accept) in [(v_threshold * 1.05, true), (v_threshold * 0.95, false)] {
            let inst = Instance::from_tuples(1, alpha, vec![(0.0, window, w, v)]).unwrap();
            let run = PdScheduler::default().run(&inst).unwrap();
            assert_eq!(
                run.accepted[0], should_accept,
                "value {v}, threshold {v_threshold}"
            );
        }
    }

    #[test]
    fn accepted_jobs_are_always_finished_and_valid() {
        let inst = Instance::from_tuples(
            2,
            2.5,
            vec![
                (0.0, 3.0, 1.5, 10.0),
                (0.5, 2.0, 1.0, 8.0),
                (1.0, 4.0, 2.0, 0.05),
                (1.5, 3.5, 0.5, 3.0),
                (2.0, 5.0, 1.0, 6.0),
            ],
        )
        .unwrap();
        let run = PdScheduler::default().run(&inst).unwrap();
        let report = validate_schedule(&inst, &run.schedule).unwrap();
        for (j, acc) in run.accepted.iter().enumerate() {
            if *acc {
                assert!(report.finished[j], "accepted job {j} not finished");
            } else {
                assert!(!report.finished[j], "rejected job {j} was finished anyway");
            }
        }
    }

    #[test]
    fn pd_never_exceeds_alpha_alpha_times_brute_force_optimum() {
        let cases = vec![
            (
                1,
                2.0,
                vec![
                    (0.0, 1.0, 1.0, 0.5),
                    (0.0, 2.0, 1.0, 3.0),
                    (1.0, 3.0, 1.5, 1.0),
                ],
            ),
            (
                2,
                3.0,
                vec![
                    (0.0, 2.0, 1.0, 2.0),
                    (0.0, 2.0, 1.0, 2.0),
                    (1.0, 3.0, 2.0, 0.3),
                ],
            ),
            (1, 1.5, vec![(0.0, 1.0, 2.0, 1.0), (0.5, 2.0, 1.0, 4.0)]),
        ];
        for (m, alpha, tuples) in cases {
            let inst = Instance::from_tuples(m, alpha, tuples).unwrap();
            let run = PdScheduler::default().run(&inst).unwrap();
            let opt = brute_force_optimum(&inst).unwrap();
            let bound = AlphaPower::new(alpha).competitive_ratio_pd();
            assert!(
                run.cost().total() <= bound * opt.cost.total() + 1e-6,
                "m={m}, alpha={alpha}: PD {} vs bound {} * OPT {}",
                run.cost().total(),
                bound,
                opt.cost.total()
            );
        }
    }

    #[test]
    fn later_jobs_do_not_move_earlier_assignments() {
        // PD never reassigns earlier jobs: job 0's per-interval fractions
        // must be identical whether or not job 1 exists.
        let base = Instance::from_tuples(1, 2.0, vec![(0.0, 2.0, 1.0, 100.0)]).unwrap();
        let both =
            Instance::from_tuples(1, 2.0, vec![(0.0, 2.0, 1.0, 100.0), (1.0, 2.0, 1.0, 100.0)])
                .unwrap();
        let run_base = PdScheduler::default().run(&base).unwrap();
        let run_both = PdScheduler::default().run(&both).unwrap();
        // In the base run there is a single interval [0,2); in the refined
        // run it is split into [0,1) and [1,2).  Job 0's work per unit time
        // must be unchanged (0.5 in both halves).
        let w0 = base.jobs[0].work;
        let base_total = run_base.assignment.total_fraction(0) * w0;
        let both_total = run_both.assignment.total_fraction(0) * w0;
        assert!((base_total - both_total).abs() < 1e-9);
        let first_half = run_both.assignment.get(0, 0) * w0;
        let second_half = run_both.assignment.get(0, 1) * w0;
        assert!((first_half - 0.5).abs() < 1e-6, "first half {first_half}");
        assert!(
            (second_half - 0.5).abs() < 1e-6,
            "second half {second_half}"
        );
    }

    #[test]
    fn multiprocessor_run_uses_all_machines_when_beneficial() {
        // Two identical heavy jobs, two machines: each should get (almost)
        // a dedicated machine and both be accepted.
        let inst =
            Instance::from_tuples(2, 2.0, vec![(0.0, 1.0, 1.0, 50.0), (0.0, 1.0, 1.0, 50.0)])
                .unwrap();
        let run = PdScheduler::default().run(&inst).unwrap();
        assert!(run.accepted.iter().all(|a| *a));
        assert!((run.cost().energy - 2.0).abs() < 1e-6);
        let report = validate_schedule(&inst, &run.schedule).unwrap();
        assert!(report.rejected.is_empty());
        // Both machines are actually used.
        let machines_used: std::collections::BTreeSet<usize> =
            run.schedule.segments.iter().map(|s| s.machine).collect();
        assert_eq!(machines_used.len(), 2);
    }

    #[test]
    fn scheduler_trait_name_and_schedule() {
        let inst = Instance::from_tuples(1, 2.0, vec![(0.0, 1.0, 0.5, 5.0)]).unwrap();
        let s: &dyn Scheduler = &PdScheduler::default();
        assert_eq!(s.name(), "PD");
        let schedule = s.schedule(&inst).unwrap();
        assert!(validate_schedule(&inst, &schedule)
            .unwrap()
            .rejected
            .is_empty());
    }

    #[test]
    fn run_helpers_report_rejections() {
        let inst =
            Instance::from_tuples(1, 2.0, vec![(0.0, 1.0, 10.0, 0.5), (0.0, 2.0, 0.5, 10.0)])
                .unwrap();
        let run = PdScheduler::default().run(&inst).unwrap();
        assert_eq!(run.rejected_jobs(), vec![0]);
        assert!((run.lost_value() - 0.5).abs() < 1e-12);
        assert!(run.planned_fraction[0] < 1.0);
        assert!(run.accepted[1]);
        let _ = JobId(0);
    }

    #[test]
    fn custom_delta_changes_rejection_behaviour() {
        // A job near the default threshold: a tiny delta makes PD much more
        // willing to reject (level cap v/δ is higher, but λ rises slower...
        // concretely, larger δ means the cap v/δ is reached sooner).
        let alpha = 2.0;
        let inst = Instance::from_tuples(1, alpha, vec![(0.0, 1.0, 2.0, 4.5)]).unwrap();
        // Planned energy = w·s^{α-1} = 2·2 = 4. With δ* = 1/2 the threshold
        // is α^{α-2}·v = v = 4.5 > 4, so default PD accepts.
        let default_run = PdScheduler::default().run(&inst).unwrap();
        assert!(default_run.accepted[0]);
        // With δ = 2 the cap on the marginal is v/δ = 2.25, i.e. a maximal
        // speed of (2.25/(2·2))^{1} ≈ 0.56 < 2, so the job is rejected.
        let strict_run = PdScheduler::with_delta(2.0).run(&inst).unwrap();
        assert!(!strict_run.accepted[0]);
    }

    #[test]
    #[should_panic(expected = "delta must be positive")]
    fn with_delta_rejects_nonpositive_values() {
        PdScheduler::with_delta(0.0);
    }
}
