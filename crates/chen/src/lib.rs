//! # pss-chen
//!
//! The per-interval multiprocessor substrate of the paper: an implementation
//! of the energy-optimal algorithm of **Chen et al. (ECRTS 2004)** for
//! scheduling a fixed work assignment on `m` speed-scalable processors
//! within one atomic interval, as described in Section 2.2 of Kling &
//! Pietrzyk and in Bingham & Greenstreet (ISPA 2008), Section 3.1.
//!
//! Given the amounts of work `u_j = x_{jk} · w_j` that each job places in an
//! atomic interval `T_k` of length `l_k`, the algorithm
//!
//! 1. sorts the jobs by decreasing work,
//! 2. declares the maximal prefix of "large" jobs *dedicated* — a job is
//!    dedicated when its work is at least the average of the remaining work
//!    over the remaining machines (Equation (5) of the paper) — and runs
//!    each dedicated job alone on its own machine at the minimal feasible
//!    constant speed `u_j / l_k`,
//! 3. runs all remaining (*pool*) jobs on the remaining machines at one
//!    common speed, placed with McNaughton's wrap-around rule.
//!
//! The crate exposes:
//!
//! * [`ChenInterval`] / [`IntervalSolution`] — the solver and its result
//!   (dedicated set, pool speed, machine loads, energy),
//! * [`interval_power`] and [`interval_power_derivative`] — the per-interval
//!   power function `P_k` of the convex program and its partial derivatives
//!   (Proposition 1 of the paper),
//! * [`placement`] — conversion of Chen's solution into concrete
//!   machine-level [`Segment`](pss_types::Segment)s: one McNaughton
//!   routine with two entries, [`placement::place_interval`] for an
//!   [`IntervalSolution`] and [`ChenInterval::place_pairs`], which sorts
//!   sparse `(job, work)` pairs in place and hands each segment to the
//!   caller without allocating.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod placement;
pub mod power_fn;
pub mod solution;

pub use power_fn::{interval_power, interval_power_derivative};
pub use solution::{ChenInterval, IntervalSolution, JobRole};
