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
//! * the from-scratch reference of multiprocessor Optimal Available's
//!   replans (`pss-baselines`), which solves them exactly with
//!   `pss_offline::MultiStaircase`,
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

/// Minimises the total energy of finishing every job, with explicit
/// options: cyclic coordinate descent from the all-zero assignment, one
/// pass re-filling every job's row in job order.
pub fn solve_min_energy_with(ctx: &ProgramContext, opts: &SolverOptions) -> MinEnergySolution {
    let n = ctx.n_jobs();
    let n_intervals = ctx.partition().len();
    let mut x = WorkAssignment::zeros(n, n_intervals);
    if n == 0 || n_intervals == 0 {
        return MinEnergySolution {
            assignment: x,
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
    let mut capacities = Capacities::default();
    let mut prev_energy = f64::INFINITY;
    let mut passes = 0;
    let mut converged = false;
    for pass in 0..opts.max_passes {
        passes = pass + 1;
        for (job, &w) in workloads.iter().enumerate() {
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
            let fill = capacities.fill(ctx.power(), ctx.machines(), w, &wf_opts);
            for (k, f) in fill.added {
                x.set(job, k, f);
                place(&mut loads[k], job, f * w);
            }
        }
        let energy = total_energy(ctx, &mut loads);
        let improvement = prev_energy - energy;
        prev_energy = energy;
        if improvement.abs() <= opts.energy_tol * energy.max(1.0) {
            converged = true;
            break;
        }
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
}
