//! # pss-convex
//!
//! The convex-programming machinery of the paper (Sections 2.1, 4.1, 4.2):
//!
//! * [`ProgramContext`] — binds an instance to its atomic-interval partition
//!   and evaluates the objective of the (relaxed) program (CP): the sum of
//!   per-interval energies `P_k` plus the value of unfinished jobs,
//! * [`waterfill`] — the greedy marginal-cost-equalising allocation of one
//!   job's workload across its atomic intervals.  This is both the inner
//!   step of the paper's online primal-dual algorithm (`pss-core`) and the
//!   coordinate step of the offline solver.  Every fill runs through one
//!   reusable buffer, [`Capacities`]: a caller clears it, pushes the job's
//!   candidate intervals with the other jobs' works, and fills, so a caller
//!   filling job after job (PD's arrivals, the solver's passes) allocates
//!   no per-interval vectors; [`waterfill_job`] is the one-shot form over a
//!   [`ProgramContext`] and a dense assignment,
//! * [`dual`] — the dual function `g(λ)` of Lemma 5/6 in closed form.  For
//!   any `λ ≥ 0`, `g(λ)` is a *rigorous lower bound* on the optimal cost,
//!   which is how the experiment harness measures empirical competitive
//!   ratios on instances too large for brute force,
//! * [`solver`] — an offline cyclic coordinate-descent solver for the
//!   "finish everything" relaxation, run from zeros: the multiprocessor
//!   offline baseline and the from-scratch reference of multiprocessor
//!   Optimal Available's replans, which `pss_offline::MultiStaircase`
//!   solves exactly,
//! * [`kkt`] — KKT stationarity residuals used to certify solver output
//!   and the exact replans in tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dual;
pub mod kkt;
pub mod program;
pub mod solver;
pub mod waterfill;

pub use dual::{dual_bound, DualSolution};
pub use program::ProgramContext;
pub use solver::{solve_min_energy, solve_min_energy_with, MinEnergySolution, SolverOptions};
pub use waterfill::{waterfill_job, Capacities, WaterfillOptions, WaterfillResult};
