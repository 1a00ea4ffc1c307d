//! # pss-offline
//!
//! Offline reference algorithms used as competitive-ratio denominators and
//! as building blocks of the online baselines:
//!
//! * [`yds`] — the classical Yao–Demers–Shenker algorithm: the exact
//!   energy-optimal single-processor schedule for a mandatory job set,
//!   implemented independently of the convex machinery (and cross-validated
//!   against it in tests).  Includes the preemptive-EDF sub-scheduler used
//!   inside critical intervals.
//! * [`incremental`] — the left-aligned YDS special case used by the
//!   online replanning executor: at replanning time every pending job's
//!   window starts "now", which collapses YDS to a concave-majorant
//!   staircase, one `O(k)` pass over the jobs in deadline order
//!   ([`Staircase`], which emits only the segments of the window the
//!   executor runs, or reads one job's speed for CLL's admission rule).
//!   [`MultiStaircase`] is its exact form on `m` machines with migration,
//!   multiprocessor OA's replan: Fujishige's lexicographically optimal
//!   base of the processing times the nested windows allow, realised by
//!   Chen et al.'s rule.
//! * [`brute`] — the exact optimum of the *profitable* problem for small
//!   instances: exhaustive search over rejection sets, with the energy of
//!   each kept set computed by YDS (`m = 1`) or the convex coordinate
//!   descent solver (`m > 1`).
//! * [`schedulers`] — [`Scheduler`](pss_types::Scheduler) wrappers:
//!   [`schedulers::YdsScheduler`],
//!   [`schedulers::MinEnergyScheduler`] (multiprocessor,
//!   finish everything) and
//!   [`schedulers::BruteForceScheduler`] (exact optimum
//!   with rejection).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod brute;
pub mod incremental;
pub mod schedulers;
pub mod yds;

pub use brute::{brute_force_optimum, BruteForceResult};
pub use incremental::{left_aligned_plan, left_aligned_planned_speed, MultiStaircase, Staircase};
pub use schedulers::{BruteForceScheduler, MinEnergyScheduler, YdsScheduler};
pub use yds::{edf_schedule, yds_schedule, YdsResult};
