//! The dual function `g(λ)` of the convex program in closed form
//! (Lemmas 4–6 of the paper).
//!
//! For dual variables `λ ≥ 0`, the dual function is the infimum of the
//! Lagrangian over the primal domain.  The paper shows (Lemma 4/5) that the
//! infimum is attained by an "optimal infeasible solution" in which every
//! atomic interval runs at most `m` jobs, namely the available jobs with the
//! largest *dual speeds* `ŝ_j = (λ_j / (α w_j))^{1/(α-1)}`, each dedicated
//! at speed `ŝ_j`.  This yields the job-centric closed form of Lemma 6:
//!
//! ```text
//! g(λ) = (1 − α) Σ_j E_λ(j) + Σ_j min(λ_j, v_j),
//! E_λ(j) = l(j) · ŝ_j^α,
//! ```
//!
//! where `l(j)` is the total length of the atomic intervals in which `j` is
//! among the top-`min(m, n_k)` available jobs by dual speed.  (The paper
//! states the second sum as `Σ λ_j` because PD's duals always satisfy
//! `λ_j ≤ v_j`; the `min` is the correct infimum over `y ∈ [0,1]` for
//! arbitrary `λ` and makes the bound valid for any nonnegative duals.)
//!
//! By weak duality `g(λ)` lower-bounds the optimum of (CP), hence of the
//! integral program (IMP), hence the cost of *every* schedule — which is how
//! the experiment harness certifies competitive ratios on instances where
//! the true optimum cannot be computed exactly.

use pss_types::num;

use crate::program::ProgramContext;

/// The evaluated dual solution: the bound and its per-job decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct DualSolution {
    /// The dual variables the bound was evaluated at.
    pub lambda: Vec<f64>,
    /// The dual function value `g(λ)`: a lower bound on the optimal cost.
    pub value: f64,
    /// Dual speeds `ŝ_j = (λ_j / (α w_j))^{1/(α-1)}`.
    pub hat_speed: Vec<f64>,
    /// Total scheduled time `l(j)` of each job in the optimal infeasible
    /// solution.
    pub scheduled_time: Vec<f64>,
    /// Energy `E_λ(j) = l(j) ŝ_j^α` the optimal infeasible solution invests
    /// in each job.
    pub energy: Vec<f64>,
}

impl DualSolution {
    /// The assigned fraction `x̂_j = l(j)·ŝ_j / w_j` of job `j` in the
    /// optimal infeasible solution (used to classify low-/high-yield jobs in
    /// the analysis of Section 4.3).
    pub fn assigned_fraction(&self, ctx: &ProgramContext, job: usize) -> f64 {
        let w = ctx.workloads()[job];
        if w <= 0.0 {
            0.0
        } else {
            self.scheduled_time[job] * self.hat_speed[job] / w
        }
    }
}

/// Evaluates the dual function `g(λ)` for the given dual variables.
///
/// # Panics
/// Panics if `lambda.len()` differs from the number of jobs or contains a
/// negative or non-finite entry.
pub fn dual_bound(ctx: &ProgramContext, lambda: &[f64]) -> DualSolution {
    let n = ctx.n_jobs();
    assert_eq!(lambda.len(), n, "one dual variable per job required");
    assert!(
        lambda.iter().all(|l| l.is_finite() && *l >= 0.0),
        "dual variables must be finite and nonnegative"
    );
    let power = ctx.power();
    let alpha = power.alpha();
    let m = ctx.machines();

    let hat_speed: Vec<f64> = (0..n)
        .map(|j| power.dual_speed(lambda[j], ctx.workloads()[j]))
        .collect();

    // Scheduled time l(j): in every interval, the available jobs with the
    // largest dual speeds (at most m of them) are scheduled for the whole
    // interval.
    let mut scheduled_time = vec![0.0_f64; n];
    for iv in ctx.partition().intervals() {
        let mut available: Vec<usize> = (0..n)
            .filter(|&j| ctx.covered(j).binary_search(&iv.index).is_ok() && hat_speed[j] > 0.0)
            .collect();
        available.sort_by(|&a, &b| hat_speed[b].total_cmp(&hat_speed[a]).then(a.cmp(&b)));
        for &j in available.iter().take(m) {
            scheduled_time[j] += iv.length();
        }
    }

    let energy: Vec<f64> = (0..n)
        .map(|j| scheduled_time[j] * power.power(hat_speed[j]))
        .collect();

    let value = (1.0 - alpha) * num::stable_sum(energy.iter().copied())
        + num::stable_sum((0..n).map(|j| lambda[j].min(ctx.values()[j])));

    DualSolution {
        lambda: lambda.to_vec(),
        value,
        hat_speed,
        scheduled_time,
        energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_intervals::WorkAssignment;
    use pss_types::Instance;

    fn ctx_one_job(alpha: f64) -> ProgramContext {
        let inst = Instance::from_tuples(1, alpha, vec![(0.0, 1.0, 1.0, 100.0)]).unwrap();
        ProgramContext::new(&inst)
    }

    #[test]
    fn zero_lambda_gives_zero_bound() {
        let ctx = ctx_one_job(2.0);
        let d = dual_bound(&ctx, &[0.0]);
        assert_eq!(d.value, 0.0);
        assert_eq!(d.hat_speed, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_lambda_is_rejected() {
        let ctx = ctx_one_job(2.0);
        dual_bound(&ctx, &[-1.0]);
    }

    #[test]
    fn single_job_bound_is_maximised_at_kkt_lambda() {
        // Single job, unit work, unit interval, alpha = 2.  The optimal
        // schedule runs at speed 1 with energy 1.  g(λ) = -l ŝ^2 + λ with
        // ŝ = λ/2, maximised at λ = 2 where g = 1 = OPT.
        let ctx = ctx_one_job(2.0);
        let opt = 1.0;
        let at_kkt = dual_bound(&ctx, &[2.0]).value;
        assert!((at_kkt - opt).abs() < 1e-9);
        for l in [0.5, 1.0, 1.5, 2.5, 3.0, 10.0] {
            let v = dual_bound(&ctx, &[l]).value;
            assert!(v <= opt + 1e-9, "g({l}) = {v} exceeds OPT = {opt}");
        }
    }

    #[test]
    fn bound_never_exceeds_cost_of_feasible_schedules() {
        // Two jobs, one machine.  Compare g(λ) for a grid of duals against
        // the cost of an explicit feasible schedule.
        let inst = Instance::from_tuples(1, 3.0, vec![(0.0, 2.0, 1.0, 4.0), (1.0, 3.0, 1.0, 2.0)])
            .unwrap();
        let ctx = ProgramContext::new(&inst);
        // Feasible: job 0 at speed 0.5 on [0,2), job 1 at speed 1 on [2,3).
        let mut x = WorkAssignment::zeros(2, ctx.partition().len());
        x.set(0, 0, 0.5);
        x.set(0, 1, 0.5);
        x.set(1, 2, 1.0);
        let schedule = ctx.realize_schedule(&x);
        let cost = schedule.cost(ctx.instance()).total();
        for l0 in [0.0, 0.5, 1.0, 2.0, 4.0] {
            for l1 in [0.0, 0.5, 1.0, 2.0] {
                let g = dual_bound(&ctx, &[l0, l1]).value;
                assert!(
                    g <= cost + 1e-9,
                    "g({l0},{l1}) = {g} exceeds feasible cost {cost}"
                );
            }
        }
    }

    #[test]
    fn value_cap_limits_contribution_of_large_duals() {
        // With λ far above v, the y-part of the bound is capped at v.
        let inst = Instance::from_tuples(1, 2.0, vec![(0.0, 1.0, 1.0, 0.5)]).unwrap();
        let ctx = ProgramContext::new(&inst);
        let d = dual_bound(&ctx, &[100.0]);
        // y-contribution is min(100, 0.5) = 0.5; x-contribution is negative.
        assert!(d.value <= 0.5);
    }

    #[test]
    fn only_top_m_jobs_are_scheduled_per_interval() {
        // Three identical jobs on two machines in one interval: only the two
        // with the largest duals get scheduled time.
        let inst = Instance::from_tuples(
            2,
            2.0,
            vec![
                (0.0, 1.0, 1.0, 10.0),
                (0.0, 1.0, 1.0, 10.0),
                (0.0, 1.0, 1.0, 10.0),
            ],
        )
        .unwrap();
        let ctx = ProgramContext::new(&inst);
        let d = dual_bound(&ctx, &[3.0, 2.0, 1.0]);
        assert_eq!(d.scheduled_time, vec![1.0, 1.0, 0.0]);
    }

    #[test]
    fn assigned_fraction_is_time_times_speed_over_work() {
        let ctx = ctx_one_job(2.0);
        let d = dual_bound(&ctx, &[2.0]);
        assert!((d.assigned_fraction(&ctx, 0) - 1.0).abs() < 1e-9);
    }
}
