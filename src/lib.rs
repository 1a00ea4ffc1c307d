//! Workspace facade for the *Profitable Speed Scaling* reproduction
//! (Kling & Pietrzyk, "Profitable Scheduling on Multiple Speed-Scalable
//! Processors", SPAA 2013).
//!
//! This crate only re-exports the member crates so that downstream users
//! (and the repository's own integration tests and examples) can depend on
//! a single package.  See [`pss_core`] for the algorithmic entry points and
//! `ROADMAP.md` for the crate graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use pss_core as core;
pub use pss_metrics as metrics;
pub use pss_sim as sim;
pub use pss_workloads as workloads;

/// Convenience prelude: everything `pss_core::prelude` exports, plus the
/// simulator entry points.
pub mod prelude {
    pub use pss_core::prelude::*;
    pub use pss_sim::{
        prefix_stability_report, streaming_prefix_report, Simulation, StreamingSimulation,
    };
}
