//! The duality-based analysis of Section 4, made executable.
//!
//! Given a [`PdRun`], this module evaluates the dual function `g(λ̃)` at the
//! duals PD produced, classifies jobs into the three categories of
//! Section 4.3 (finished, unfinished low-yield, unfinished high-yield), and
//! checks the certified inequality behind Theorem 3:
//!
//! ```text
//! g(λ̃) ≥ α^{-α} · cost(PD)        (so cost(PD) ≤ α^α · OPT).
//! ```
//!
//! It also provides the rejection-policy equivalence check of Section 3
//! ("Relation to the OA Algorithm"): with `δ = α^{1-α}`, PD rejects a job
//! exactly when fully scheduling it would require a planned speed above
//! `(α^{α-2}·v_j/w_j)^{1/(α-1)}` — the threshold of Chan, Lam & Li.

use pss_convex::{dual_bound, waterfill_job, DualSolution, ProgramContext, WaterfillOptions};
use pss_intervals::WorkAssignment;
use pss_power::AlphaPower;
use pss_types::{Cost, Instance, ScheduleError};

use crate::pd::{PdRun, PdScheduler};

/// The analysis categories of Section 4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobCategory {
    /// `J1`: jobs finished by PD.
    Finished,
    /// `J2`: jobs rejected by PD of which the optimal infeasible solution
    /// schedules only a small fraction (`x̂_j ≤ (α − α^{1-α})/(α − 1)`).
    LowYield,
    /// `J3`: jobs rejected by PD of which the optimal infeasible solution
    /// schedules a large fraction.
    HighYield,
}

/// The result of analysing a PD run.
#[derive(Debug, Clone)]
pub struct PdAnalysis {
    /// The dual solution at PD's duals `λ̃` — `dual.value` is a lower bound
    /// on the optimal cost.
    pub dual: DualSolution,
    /// The cost of PD's schedule.
    pub cost: Cost,
    /// The energy exponent.
    pub alpha: f64,
    /// The proven competitive ratio `α^α`.
    pub competitive_bound: f64,
    /// The certified ratio `cost / g(λ̃)` (an upper bound on the true ratio
    /// `cost / OPT`); `1.0` when both are zero.
    pub certified_ratio: f64,
    /// Per-job category (J1 / J2 / J3).
    pub categories: Vec<JobCategory>,
}

impl PdAnalysis {
    /// Returns `true` if the certified inequality `cost ≤ α^α·g(λ̃)` holds
    /// (up to numeric tolerance), which implies the paper's guarantee
    /// `cost ≤ α^α · OPT`.
    pub fn guarantee_holds(&self) -> bool {
        self.cost.total()
            <= self.competitive_bound * self.dual.value.max(0.0) + 1e-6 * self.cost.total().max(1.0)
    }

    /// Number of jobs in each category, as `(finished, low_yield, high_yield)`.
    pub fn category_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for c in &self.categories {
            match c {
                JobCategory::Finished => counts.0 += 1,
                JobCategory::LowYield => counts.1 += 1,
                JobCategory::HighYield => counts.2 += 1,
            }
        }
        counts
    }
}

/// Analyses a PD run: evaluates the dual bound, the certified ratio and the
/// job categories.
pub fn analyze_run(run: &PdRun) -> PdAnalysis {
    let ctx = &run.context;
    let instance = ctx.instance();
    let alpha = instance.alpha;
    let power = AlphaPower::new(alpha);
    let competitive_bound = power.competitive_ratio_pd();

    let dual = dual_bound(ctx, &run.lambda);
    let cost = run.cost();

    // Category threshold (α − α^{1-α}) / (α − 1) from Section 4.3.
    let threshold = (alpha - alpha.powf(1.0 - alpha)) / (alpha - 1.0);
    let categories: Vec<JobCategory> = (0..instance.len())
        .map(|j| {
            if run.accepted[j] {
                JobCategory::Finished
            } else if dual.assigned_fraction(ctx, j) <= threshold {
                JobCategory::LowYield
            } else {
                JobCategory::HighYield
            }
        })
        .collect();

    let certified_ratio = if cost.total() <= 1e-12 {
        1.0
    } else if dual.value <= 1e-12 {
        f64::INFINITY
    } else {
        cost.total() / dual.value
    };

    PdAnalysis {
        dual,
        cost,
        alpha,
        competitive_bound,
        certified_ratio,
        categories,
    }
}

/// Per-job outcome of the rejection-policy comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RejectionDecision {
    /// Whether PD accepted the job.
    pub pd_accepted: bool,
    /// Whether the closed-form threshold rule of Section 3 accepts the job
    /// (planned speed for the full job at arrival ≤ `(α^{α-2}·v/w)^{1/(α-1)}`).
    pub threshold_accepts: bool,
    /// The speed PD would need to fully schedule the job at its arrival.
    pub forced_speed: f64,
    /// The closed-form threshold speed.
    pub threshold_speed: f64,
}

/// The rejection-policy equivalence report (experiment E6).
#[derive(Debug, Clone)]
pub struct RejectionPolicyReport {
    /// Decision pair per job, in job-id order.
    pub decisions: Vec<RejectionDecision>,
}

impl RejectionPolicyReport {
    /// `true` if PD's decision matches the threshold rule for every job
    /// whose forced speed is not borderline (within `1e-6` of the
    /// threshold, where either decision is legitimate).
    pub fn all_match(&self) -> bool {
        self.decisions.iter().all(|d| {
            d.pd_accepted == d.threshold_accepts
                || (d.forced_speed - d.threshold_speed).abs() <= 1e-6 * d.threshold_speed.max(1.0)
        })
    }
}

/// Replays PD on the instance, recording for every job both PD's decision
/// and the decision of the closed-form threshold rule evaluated on the same
/// arrival state.  With `δ = α^{1-α}` (the scheduler default) the two must
/// agree — this is the Section 3 claim verified by experiment E6.
pub fn rejection_policy_report(
    scheduler: &PdScheduler,
    instance: &Instance,
) -> Result<RejectionPolicyReport, ScheduleError> {
    let ctx = ProgramContext::new(instance);
    let power = AlphaPower::new(instance.alpha);
    let delta = scheduler.effective_delta(instance.alpha);
    let n = instance.len();
    let mut assignment = WorkAssignment::zeros(n, ctx.partition().len());
    let mut decisions = vec![
        RejectionDecision {
            pd_accepted: false,
            threshold_accepts: false,
            forced_speed: 0.0,
            threshold_speed: 0.0,
        };
        n
    ];

    for id in instance.arrival_order() {
        let j = id.index();
        let job = instance.job(id);

        // The speed needed to schedule the *whole* job at its arrival.
        let forced = waterfill_job(
            &ctx,
            &assignment,
            j,
            &WaterfillOptions {
                max_fraction: 1.0,
                max_marginal: None,
            },
        );
        let threshold_speed = power.rejection_speed_threshold(job.value, job.work);

        // PD's own decision (capped fill), which also updates the state.
        let capped = waterfill_job(
            &ctx,
            &assignment,
            j,
            &WaterfillOptions {
                max_fraction: 1.0,
                max_marginal: Some(job.value / delta),
            },
        );
        if capped.saturated {
            for (k, f) in &capped.added {
                assignment.set(j, *k, *f);
            }
        }
        decisions[j] = RejectionDecision {
            pd_accepted: capped.saturated,
            threshold_accepts: forced.level_speed <= threshold_speed * (1.0 + 1e-9),
            forced_speed: forced.level_speed,
            threshold_speed,
        };
    }

    Ok(RejectionPolicyReport { decisions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_offline::brute_force_optimum;
    use pss_types::Instance;

    fn mixed_instance(m: usize, alpha: f64) -> Instance {
        Instance::from_tuples(
            m,
            alpha,
            vec![
                (0.0, 2.0, 1.0, 5.0),
                (0.5, 1.5, 2.0, 0.2),
                (1.0, 4.0, 1.5, 3.0),
                (2.0, 3.0, 2.5, 0.4),
                (2.5, 5.0, 1.0, 2.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn dual_bound_lower_bounds_brute_force_optimum() {
        for (m, alpha) in [(1usize, 2.0), (1, 3.0), (2, 2.0), (3, 2.5)] {
            let inst = mixed_instance(m, alpha);
            let run = PdScheduler::default().run(&inst).unwrap();
            let analysis = analyze_run(&run);
            let opt = brute_force_optimum(&inst).unwrap();
            assert!(
                analysis.dual.value <= opt.cost.total() + 1e-6,
                "m={m}, alpha={alpha}: dual {} exceeds OPT {}",
                analysis.dual.value,
                opt.cost.total()
            );
        }
    }

    #[test]
    fn theorem3_certified_on_mixed_instances() {
        for (m, alpha) in [(1usize, 1.5), (1, 2.0), (2, 2.0), (2, 3.0), (4, 2.5)] {
            let inst = mixed_instance(m, alpha);
            let run = PdScheduler::default().run(&inst).unwrap();
            let analysis = analyze_run(&run);
            assert!(
                analysis.guarantee_holds(),
                "m={m}, alpha={alpha}: cost {} vs bound {} * dual {}",
                analysis.cost.total(),
                analysis.competitive_bound,
                analysis.dual.value
            );
        }
    }

    #[test]
    fn categories_partition_the_jobs() {
        let inst = mixed_instance(2, 2.0);
        let run = PdScheduler::default().run(&inst).unwrap();
        let analysis = analyze_run(&run);
        let (f, l, h) = analysis.category_counts();
        assert_eq!(f + l + h, inst.len());
        // Finished category must match the run's accepted flags.
        for (j, cat) in analysis.categories.iter().enumerate() {
            assert_eq!(*cat == JobCategory::Finished, run.accepted[j]);
        }
    }

    #[test]
    fn rejection_policy_equivalence_single_machine() {
        // Sweep values across the threshold for a couple of workloads.
        for alpha in [2.0, 3.0] {
            let mut tuples = Vec::new();
            for i in 0..6 {
                let w = 0.5 + i as f64 * 0.5;
                for v in [0.05, 0.5, 2.0, 10.0] {
                    tuples.push((i as f64 * 0.7, i as f64 * 0.7 + 1.5, w, v));
                }
            }
            let inst = Instance::from_tuples(1, alpha, tuples).unwrap();
            let report = rejection_policy_report(&PdScheduler::default(), &inst).unwrap();
            assert!(
                report.all_match(),
                "alpha={alpha}: decisions diverge: {:?}",
                report
                    .decisions
                    .iter()
                    .filter(|d| d.pd_accepted != d.threshold_accepts)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn certified_ratio_is_finite_and_above_one_for_nontrivial_runs() {
        let inst = mixed_instance(1, 2.0);
        let run = PdScheduler::default().run(&inst).unwrap();
        let analysis = analyze_run(&run);
        assert!(analysis.certified_ratio >= 1.0 - 1e-9);
        assert!(analysis.certified_ratio.is_finite());
        assert!(analysis.certified_ratio <= analysis.competitive_bound + 1e-6);
    }

    #[test]
    fn empty_instance_analysis_is_trivial() {
        let inst = Instance::from_tuples(1, 2.0, vec![]).unwrap();
        let run = PdScheduler::default().run(&inst).unwrap();
        let analysis = analyze_run(&run);
        assert_eq!(analysis.certified_ratio, 1.0);
        assert!(analysis.guarantee_holds());
    }
}
