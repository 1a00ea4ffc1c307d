//! # pss-baselines
//!
//! The online baseline algorithms the paper compares against or builds on:
//!
//! * [`oa::OaScheduler`] — **Optimal Available** (Yao, Demers & Shenker):
//!   at every arrival, recompute the optimal (YDS) schedule for the
//!   remaining work and follow it until the next arrival.  Exactly
//!   `α^α`-competitive for mandatory completion.
//! * [`oa::QoaScheduler`] — **qOA** (Bansal et al.): follow the OA plan but
//!   at `q` times its speed (default `q = 2 − 1/α`), finishing work early.
//! * [`oa::MultiOaScheduler`] — the multiprocessor extension of OA (Albers,
//!   Antoniadis & Greiner): replan with the multiprocessor offline optimum
//!   of the remaining work at every arrival, solved exactly by the
//!   `m`-machine left-aligned staircase (`pss_offline::MultiStaircase`).
//! * [`avr::AvrScheduler`] — **Average Rate**: every job is processed at its
//!   own density; the machine speed is the sum of densities of the active
//!   jobs, run in EDF order (at most three segments per job).
//! * [`bkp::BkpScheduler`] — the **BKP** algorithm (Bansal, Kimbrel &
//!   Pruhs), evaluated on a configurable time grid.
//! * [`cll::CllScheduler`] — the **Chan–Lam–Li** profitable scheduler for a
//!   single machine: OA plus the rejection rule "reject a job if its planned
//!   speed exceeds `(α^{α-2}·v/w)^{1/(α-1)}`", `(α^α + 2e^α)`-competitive.
//!   This is the algorithm the paper's PD improves upon.
//!
//! All of them implement the event-driven
//! [`OnlineAlgorithm`](pss_types::OnlineAlgorithm) API — jobs arrive one at
//! a time, the committed past is never revised — and recover their batch
//! [`Scheduler`](pss_types::Scheduler) impl through the blanket adapter in
//! `pss-types`.  The plan-revision algorithms (OA, qOA, multiprocessor OA,
//! CLL) share the incremental replanning executor in [`replan`], which
//! enforces the online information model: plans may only depend on jobs
//! released so far and on the remaining (unprocessed) work.
//!
//! Every arrival path avoids rebuild-per-arrival work: the per-arrival
//! cost depends on the active set — except BKP's grid evaluation, which
//! costs `O(active + recent + log n)` (its work term never forgets old
//! jobs; a convex hull aggregates the aged history).  The replanning
//! executor plans each window when it runs, and only that window: OA, qOA
//! and CLL warm-start their left-aligned YDS replans
//! (`pss_offline::incremental` via [`replan::PlanCache`]) and emit only
//! the segments that start before the next arrival, into a buffer the run
//! reuses; CLL's admission rule reads the new job's planned speed off the
//! same staircase without building a plan; multiprocessor OA solves its
//! replan exactly in buffers the cache keeps ([`oa::MultiOaWarm`]) and
//! realises only the atomic intervals that start before the next arrival;
//! AVR commits through a
//! deadline-sorted active-set index ([`avr::AvrState`]); and BKP keeps a
//! resident deadline/release speed index whose deadline list, holding the
//! live jobs' remaining works, also drives its EDF dispatch
//! ([`bkp::BkpState`]).  Each algorithm has one arrival path, pinned to its
//! batch reference (`batch_schedule`) by the `incremental_equivalence`
//! integration tests.  The one fast-path toggle,
//! `ReplanState::with_warm_start(false)`, selects the from-scratch
//! `Planner::plan` that the batch references run; the `toggle_matrix`
//! suite sweeps it, crossed with the coalescing mode, against the batch
//! references.
//!
//! Every run state ([`replan::ReplanState`], [`avr::AvrState`],
//! [`bkp::BkpState`]) implements `pss_types::LogCheckpointable`: a blob
//! captures the live state — pending/active sets, warm caches (the YDS
//! order, OA(m)'s replan counts and BKP's speed index with its convex
//! hull) and the warm-start toggle, but no plan and no scratch buffer —
//! plus a cursor into the run's segment log, which holds the committed
//! frontier, and a run restored from the `(log, blob)` pair continues
//! bit-identically.  This is what the checkpoint layers in `pss-sim` and
//! `pss-serve` build on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod avr;
pub mod bkp;
pub mod cll;
pub mod oa;
pub mod replan;

pub(crate) fn require_single_machine(
    machines: usize,
    name: &str,
    hint: &str,
) -> Result<(), pss_types::ScheduleError> {
    if machines != 1 {
        return Err(pss_types::ScheduleError::Internal(format!(
            "{name} is a single-machine algorithm{hint}"
        )));
    }
    Ok(())
}

pub use avr::AvrScheduler;
pub use bkp::BkpScheduler;
pub use cll::CllScheduler;
pub use oa::{MultiOaScheduler, OaScheduler, QoaScheduler};
