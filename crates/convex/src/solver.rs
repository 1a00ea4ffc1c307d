//! Offline energy-minimal scheduling of a *mandatory* job set by cyclic
//! coordinate descent on the convex program.
//!
//! With the rejection decision fixed (all jobs must be finished), the
//! remaining problem is the classical multiprocessor speed-scaling problem:
//! minimise `Σ_k P_k(x_{·k})` subject to `Σ_k c_{jk} x_{jk} = 1` and
//! `x ≥ 0`.  The objective is convex and differentiable (Proposition 1) and
//! the feasible set is a product of per-job simplices, so block coordinate
//! descent — re-optimising one job's row at a time, exactly, by the water
//! fill of [`crate::waterfill`] — converges to the global optimum.  The
//! descent keeps each interval's loads as a sparse `(job, work)` list, so a
//! fill reads the other jobs' works and a pass prices its energy with
//! Chen's rule without densifying an `n`-job column.
//!
//! This solver is used as
//!
//! * the multiprocessor offline baseline (`pss-offline`), cross-validated
//!   against the independent YDS implementation for `m = 1`,
//! * the replanning engine of multiprocessor Optimal Available
//!   (`pss-baselines`),
//! * the "energy of the kept set" oracle inside the brute-force optimum.

use pss_intervals::WorkAssignment;
use pss_types::num;
use pss_types::snapshot::{BlobReader, BlobWriter, SnapshotError, SnapshotPart};

use crate::program::ProgramContext;
use crate::waterfill::{Capacities, WaterfillOptions};

/// Options for the coordinate-descent solver.
#[derive(Debug, Clone, Copy)]
pub struct SolverOptions {
    /// Maximum number of passes over all jobs.
    pub max_passes: usize,
    /// Relative improvement of the energy below which the solver stops.
    pub energy_tol: f64,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            max_passes: 60,
            energy_tol: 1e-9,
        }
    }
}

impl SolverOptions {
    /// A cheaper configuration for large benchmark sweeps.
    pub fn coarse() -> Self {
        Self {
            max_passes: 25,
            energy_tol: 1e-6,
        }
    }
}

impl SnapshotPart for SolverOptions {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_usize(self.max_passes);
        w.write_f64(self.energy_tol);
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            max_passes: r.read_usize()?,
            energy_tol: r.read_f64()?,
        })
    }
}

/// The result of the offline minimisation.
#[derive(Debug, Clone, PartialEq)]
pub struct MinEnergySolution {
    /// The optimal (up to tolerance) work assignment.
    pub assignment: WorkAssignment,
    /// Its energy `Σ_k P_k`.
    pub energy: f64,
    /// Number of coordinate-descent passes performed.
    pub passes: usize,
    /// Whether the energy improvement dropped below the tolerance before
    /// the pass limit was reached.
    pub converged: bool,
}

/// Minimises the total energy of finishing *every* job of the context's
/// instance, using default options.
pub fn solve_min_energy(ctx: &ProgramContext) -> MinEnergySolution {
    solve_min_energy_with(ctx, &SolverOptions::default())
}

/// Minimises the total energy of finishing every job, with explicit options.
pub fn solve_min_energy_with(ctx: &ProgramContext, opts: &SolverOptions) -> MinEnergySolution {
    descend(ctx, opts, None)
}

/// Minimises the total energy of finishing every job, *warm-started* from a
/// seed assignment (typically the previous solution of a replanning step,
/// remapped onto the current partition).
///
/// The seed does not need to be feasible or optimal: the first
/// coordinate-descent pass re-waterfills every job's row exactly, so the
/// seed only shapes the loads the early passes see.  A seed near the
/// optimum makes the descent converge in a small, instance-size-independent
/// number of passes — this is the entry point the multiprocessor OA
/// replanner uses for its per-arrival warm restarts.  Warm and cold starts
/// converge to the same (unique, strictly convex) optimum up to the energy
/// tolerance; `kkt::max_stationarity_violation` certifies either.
///
/// The seed's dimensions must match the context (`n_jobs × n_intervals`);
/// mismatching seeds are ignored (plain cold start).
pub fn solve_min_energy_warm(
    ctx: &ProgramContext,
    opts: &SolverOptions,
    seed: &WorkAssignment,
) -> MinEnergySolution {
    let fits = seed.n_jobs() == ctx.n_jobs() && seed.n_intervals() == ctx.partition().len();
    descend(ctx, opts, fits.then(|| seed.clone()))
}

/// The cyclic coordinate-descent core shared by the cold and warm entry
/// points; `seed` preloads the assignment the first pass starts from.
fn descend(
    ctx: &ProgramContext,
    opts: &SolverOptions,
    seed: Option<WorkAssignment>,
) -> MinEnergySolution {
    let n = ctx.n_jobs();
    let n_intervals = ctx.partition().len();
    let seeded = seed.is_some();
    let mut x = seed.unwrap_or_else(|| WorkAssignment::zeros(n, n_intervals));
    if n == 0 || n_intervals == 0 {
        return MinEnergySolution {
            assignment: WorkAssignment::zeros(n, n_intervals),
            energy: 0.0,
            passes: 0,
            converged: true,
        };
    }

    let wf_opts = WaterfillOptions::default();
    let workloads = ctx.workloads();
    // The columns of `x` as sparse `(job, work)` lists of positive works,
    // kept in step with `x`: every fill reads the other jobs' works from
    // them and every energy runs Chen's rule on them, so nothing densifies
    // an n-job column.  Chen's rule and the fill ignore non-positive works
    // and the order of the entries, so both see exactly what the dense
    // columns would give them.
    let mut loads: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_intervals];
    for (job, &w) in workloads.iter().enumerate() {
        for (k, &f) in x.row(job).iter().enumerate() {
            place(&mut loads[k], job, f * w);
        }
    }
    let mut capacities = Capacities::default();

    // A seed near the optimum makes the very first pass a no-op; pricing it
    // lets the convergence check fire after one pass instead of two.  This
    // is what makes warm restarts cheap: the check still cannot stop early
    // spuriously, because an unseeded new arrival changes the energy far
    // beyond the tolerance.
    let mut prev_energy = if seeded {
        total_energy(ctx, &mut loads)
    } else {
        f64::INFINITY
    };
    // Warm restarts descend in *deadline order*: the replanning instances
    // this entry point serves are left-aligned (every pending job's window
    // starts at the planning time), and the sweep follows the staircase of
    // increasing deadlines.  It does not land on the optimum in one sweep:
    // on the E12 m = 2 streams of seeds 1 and 2 (2,500 arrivals each) the
    // seeded descent took a median of 5 passes and a mean of 8.3–8.6; 31%
    // of the replans restarted from zeros and 0.7–0.8% stopped at the
    // 60-pass cap.  The cold path keeps the original pending-order cyclic
    // sweep: it is the retained from-scratch baseline and the
    // general-purpose offline solver, and must stay bit-identical to its
    // pre-warm-start behaviour.
    let mut order: Vec<usize> = (0..n).collect();
    if seeded {
        let jobs = &ctx.instance().jobs;
        order.sort_by(|&a, &b| jobs[a].deadline.total_cmp(&jobs[b].deadline));
    }
    // Escape hatch for slow seeds: a seed can park the descent on a slow
    // geometric zigzag that the *constructive* deadline-ordered sweep from
    // zeros does not suffer (the 31% of replans above that restart).  When
    // two successive improvements shrink by less than the restart ratio,
    // discard the seed once and rebuild from zeros — the passes already
    // spent still count.
    const RESTART_RATIO: f64 = 0.15;
    let mut restarted = !seeded;
    let mut last_improvement = f64::INFINITY;
    let mut passes = 0;
    let mut converged = false;
    for pass in 0..opts.max_passes {
        passes = pass + 1;
        for &job in &order {
            for (k, &f) in x.row(job).iter().enumerate() {
                if f > 0.0 {
                    loads[k].retain(|&(i, _)| i != job);
                }
            }
            x.clear_job(job);
            capacities.clear();
            for &k in ctx.covered(job) {
                let others = loads[k].iter().map(|&(_, u)| u);
                capacities.push(k, ctx.partition().length(k), others);
            }
            let w = workloads[job];
            let fill = capacities.fill(ctx.power(), ctx.machines(), w, &wf_opts);
            for (k, f) in fill.added {
                x.set(job, k, f);
                place(&mut loads[k], job, f * w);
            }
        }
        let energy = total_energy(ctx, &mut loads);
        let improvement = prev_energy - energy;
        if prev_energy.is_finite() && improvement.abs() <= opts.energy_tol * energy.max(1.0) {
            converged = true;
            prev_energy = energy;
            break;
        }
        if !restarted
            && improvement > 0.0
            && last_improvement.is_finite()
            && last_improvement > 0.0
            && improvement > RESTART_RATIO * last_improvement
        {
            x = WorkAssignment::zeros(n, n_intervals);
            loads.iter_mut().for_each(Vec::clear);
            prev_energy = f64::INFINITY;
            last_improvement = f64::INFINITY;
            restarted = true;
            continue;
        }
        last_improvement = improvement;
        prev_energy = energy;
    }

    MinEnergySolution {
        energy: prev_energy,
        assignment: x,
        passes,
        converged,
    }
}

/// Records that `job` places `work` in an interval, if the work is
/// positive (the only works Chen's rule and the fill see).
fn place(load: &mut Vec<(usize, f64)>, job: usize, work: f64) {
    if work > 0.0 {
        load.push((job, work));
    }
}

/// Total energy `Σ_k P_k` of the sparse interval loads, equal to
/// [`ProgramContext::total_energy`] of the assignment they mirror, bit for
/// bit.  Each list is left in Chen's order.
fn total_energy(ctx: &ProgramContext, loads: &mut [Vec<(usize, f64)>]) -> f64 {
    let energies = loads
        .iter_mut()
        .enumerate()
        .map(|(k, load)| ctx.chen(k).energy_of_pairs(load));
    num::stable_sum(energies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_types::{validate_schedule, Instance};

    fn solve(inst: &Instance) -> (ProgramContext, MinEnergySolution) {
        let ctx = ProgramContext::new(inst);
        let sol = solve_min_energy(&ctx);
        (ctx, sol)
    }

    #[test]
    fn single_job_runs_at_its_density() {
        let inst = Instance::from_tuples(1, 3.0, vec![(0.0, 4.0, 2.0, 1.0)]).unwrap();
        let (_, sol) = solve(&inst);
        // Optimal: speed 0.5 for 4 time units => energy 0.5^3 * 4 = 0.5.
        assert!((sol.energy - 0.5).abs() < 1e-6, "energy {}", sol.energy);
        assert!(sol.converged);
    }

    #[test]
    fn two_disjoint_jobs_single_machine() {
        // Two jobs with disjoint windows: each runs at its own density.
        let inst = Instance::from_tuples(1, 2.0, vec![(0.0, 1.0, 1.0, 1.0), (1.0, 3.0, 1.0, 1.0)])
            .unwrap();
        let (_, sol) = solve(&inst);
        let expected = 1.0 + 2.0 * 0.25; // 1^2*1 + 0.5^2*2
        assert!((sol.energy - expected).abs() < 1e-6);
    }

    #[test]
    fn nested_jobs_match_yds_hand_computation() {
        // Classic YDS example: job 0 on [0,4) with work 2, job 1 on [1,2)
        // with work 2.  The critical interval is [1,2) at speed 2 (job 1);
        // job 0 then runs at speed 2/3 on the remaining 3 time units.
        let inst = Instance::from_tuples(1, 2.0, vec![(0.0, 4.0, 2.0, 1.0), (1.0, 2.0, 2.0, 1.0)])
            .unwrap();
        let (_, sol) = solve(&inst);
        let expected = 4.0 + 3.0 * (2.0 / 3.0_f64).powi(2);
        assert!(
            (sol.energy - expected).abs() < 1e-5,
            "energy {} vs {}",
            sol.energy,
            expected
        );
    }

    #[test]
    fn two_machines_split_parallel_jobs() {
        // Two identical jobs on two machines: each gets its own machine at
        // its density; energy is twice the single-job energy.
        let inst = Instance::from_tuples(2, 3.0, vec![(0.0, 2.0, 2.0, 1.0), (0.0, 2.0, 2.0, 1.0)])
            .unwrap();
        let (_, sol) = solve(&inst);
        assert!(
            (sol.energy - 2.0 * 2.0).abs() < 1e-6,
            "energy {}",
            sol.energy
        );
    }

    #[test]
    fn more_machines_never_increase_energy() {
        let tuples = vec![
            (0.0, 3.0, 2.0, 1.0),
            (0.5, 2.5, 1.0, 1.0),
            (1.0, 4.0, 1.5, 1.0),
            (2.0, 5.0, 2.5, 1.0),
        ];
        let mut prev = f64::INFINITY;
        for m in [1usize, 2, 3, 4] {
            let inst = Instance::from_tuples(m, 2.5, tuples.clone()).unwrap();
            let (_, sol) = solve(&inst);
            assert!(
                sol.energy <= prev + 1e-6,
                "energy increased with more machines: {} -> {}",
                prev,
                sol.energy
            );
            prev = sol.energy;
        }
    }

    #[test]
    fn solution_realizes_into_a_feasible_schedule_finishing_everything() {
        let inst = Instance::from_tuples(
            2,
            2.0,
            vec![
                (0.0, 3.0, 2.0, 1.0),
                (1.0, 2.0, 1.0, 1.0),
                (0.5, 2.5, 1.5, 1.0),
            ],
        )
        .unwrap();
        let (ctx, sol) = solve(&inst);
        let schedule = ctx.realize_schedule(&sol.assignment);
        let report = validate_schedule(&inst, &schedule).unwrap();
        assert!(
            report.rejected.is_empty(),
            "rejected: {:?}",
            report.rejected
        );
        assert!((report.energy - sol.energy).abs() < 1e-6);
    }

    #[test]
    fn empty_instance_is_trivial() {
        let inst = Instance::from_tuples(1, 2.0, vec![]).unwrap();
        let (_, sol) = solve(&inst);
        assert_eq!(sol.energy, 0.0);
        assert!(sol.converged);
    }

    #[test]
    fn warm_start_from_the_optimum_converges_immediately_to_the_same_energy() {
        let inst = Instance::from_tuples(
            2,
            2.5,
            vec![
                (0.0, 3.0, 2.0, 1.0),
                (1.0, 2.0, 1.0, 1.0),
                (0.5, 2.5, 1.5, 1.0),
                (0.0, 1.5, 0.7, 1.0),
            ],
        )
        .unwrap();
        let (ctx, cold) = solve(&inst);
        let warm = solve_min_energy_warm(&ctx, &SolverOptions::default(), &cold.assignment);
        assert!(warm.converged);
        assert!(
            warm.passes <= cold.passes,
            "warm took {} passes, cold {}",
            warm.passes,
            cold.passes
        );
        assert!(
            (warm.energy - cold.energy).abs() <= 1e-6 * cold.energy.max(1.0),
            "warm energy {} vs cold {}",
            warm.energy,
            cold.energy
        );
        // The warm solution satisfies the KKT conditions, like the cold one.
        let report = crate::kkt::max_stationarity_violation(&ctx, &warm.assignment);
        assert!(
            report.max_violation < 1e-3,
            "warm KKT violation {}",
            report.max_violation
        );
    }

    #[test]
    fn warm_start_tolerates_garbage_and_mismatched_seeds() {
        let inst = Instance::from_tuples(1, 2.0, vec![(0.0, 2.0, 2.0, 1.0), (1.0, 2.0, 1.0, 1.0)])
            .unwrap();
        let ctx = ProgramContext::new(&inst);
        let cold = solve_min_energy(&ctx);
        // An infeasible all-mass-in-one-interval seed still converges to the
        // optimum (the first pass rebuilds every row exactly).
        let mut garbage = WorkAssignment::zeros(2, ctx.partition().len());
        garbage.set(0, 0, 1.0);
        garbage.set(1, 1, 1.0);
        let warm = solve_min_energy_warm(&ctx, &SolverOptions::default(), &garbage);
        assert!(
            (warm.energy - cold.energy).abs() <= 1e-6 * cold.energy.max(1.0),
            "garbage-seeded warm energy {} vs cold {}",
            warm.energy,
            cold.energy
        );
        // A seed with wrong dimensions falls back to a cold start.
        let wrong = WorkAssignment::zeros(5, 1);
        let fallback = solve_min_energy_warm(&ctx, &SolverOptions::default(), &wrong);
        assert!((fallback.energy - cold.energy).abs() <= 1e-9 * cold.energy.max(1.0));
    }
}
