//! # pss-core — Profitable Scheduling on Multiple Speed-Scalable Processors
//!
//! This crate implements the primary contribution of Kling & Pietrzyk
//! (SPAA 2013): the online greedy **primal-dual algorithm PD** for
//! profit-oriented deadline scheduling on `m` speed-scalable processors with
//! power function `P_α(s) = s^α`, together with the duality-based analysis
//! machinery used to certify its `α^α` competitive ratio.
//!
//! It also acts as the **facade crate** of the workspace: the substrates the
//! algorithm is built on (model types, the power algebra, atomic intervals,
//! Chen et al.'s per-interval algorithm, the convex program, the offline and
//! online baselines) are re-exported so that downstream users only need a
//! single dependency.
//!
//! ## Quick start
//!
//! ```
//! use pss_core::prelude::*;
//!
//! // Two machines, cube-law power, three valuable jobs.
//! let instance = Instance::from_tuples(
//!     2,
//!     3.0,
//!     vec![
//!         // (release, deadline, work, value)
//!         (0.0, 4.0, 2.0, 8.0),
//!         (1.0, 3.0, 1.0, 5.0),
//!         (2.0, 6.0, 3.0, 0.1), // cheap job: PD may sacrifice it
//!     ],
//! )
//! .unwrap();
//!
//! let run = PdScheduler::default().run(&instance).unwrap();
//! let cost = run.schedule.cost(&instance);
//! let analysis = analyze_run(&run);
//!
//! // The paper's Theorem 3: cost(PD) is at most α^α times the optimum,
//! // certified here against the dual lower bound g(λ̃).
//! assert!(analysis.guarantee_holds());
//! println!("cost = {cost}, lower bound = {}", analysis.dual.value);
//! ```
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`pd`] | The PD algorithm ([`PdScheduler`]) and its run record ([`PdRun`]) |
//! | [`online`] | The event-driven form ([`OnlinePd`], the [`OnlineScheduler`](pss_types::OnlineScheduler) run behind `PdScheduler`) that refines atomic intervals and commits the elapsed frontier as jobs arrive |
//! | [`analysis`] | Dual bound, job categories (J1/J2/J3), Lemma 9–11 checks, rejection-policy equivalence |
//! | re-exports | `types`, `power`, `intervals`, `chen`, `convex`, `offline`, `baselines` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod online;
pub mod pd;

pub use analysis::{analyze_run, JobCategory, PdAnalysis};
pub use online::OnlinePd;
pub use pd::{PdRun, PdScheduler};

// -- Substrate re-exports -------------------------------------------------

pub use pss_baselines as baselines;
pub use pss_chen as chen;
pub use pss_convex as convex;
pub use pss_intervals as intervals;
pub use pss_offline as offline;
pub use pss_power as power;
pub use pss_types as types;

/// Convenience prelude pulling in the types most programs need.
pub mod prelude {
    pub use crate::analysis::{analyze_run, JobCategory, PdAnalysis};
    pub use crate::online::OnlinePd;
    pub use crate::pd::{PdRun, PdScheduler};
    pub use pss_baselines::{
        AvrScheduler, BkpScheduler, CllScheduler, MultiOaScheduler, OaScheduler, QoaScheduler,
    };
    pub use pss_convex::{dual_bound, ProgramContext};
    pub use pss_offline::{BruteForceScheduler, MinEnergyScheduler, YdsScheduler};
    pub use pss_power::AlphaPower;
    pub use pss_types::{
        run_online, validate_schedule, Cost, Decision, Instance, Job, JobId, LogCheckpointable,
        OnlineAlgorithm, OnlineScheduler, Schedule, Scheduler, Segment, SegmentLog, StateBlob,
    };
}
