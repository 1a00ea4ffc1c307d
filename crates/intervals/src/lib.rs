//! # pss-intervals
//!
//! Atomic-interval machinery (Section 2.1 of the paper).
//!
//! The convex-programming formulation of the scheduling problem partitions
//! time into *atomic intervals* `T_k = [τ_{k-1}, τ_k)` whose boundaries are
//! exactly the release times and deadlines of the jobs.  Within an atomic
//! interval the set of available jobs does not change, which is what makes
//! the per-interval power function of `pss-chen` well defined.
//!
//! This crate provides:
//!
//! * [`IntervalPartition`] — the ordered boundary set and the induced
//!   intervals, with availability tests (`c_jk` of the paper), in-place
//!   boundary insertion, and retirement of an elapsed prefix,
//! * [`Refinement`] — the bookkeeping needed when a newly released job adds
//!   boundaries to an existing partition (the online case discussed in
//!   Section 3, "Concerning the Time Partitioning"): old intervals are split
//!   and already-assigned work is divided proportionally to the lengths of
//!   the pieces,
//! * [`WorkAssignment`] — the primal variables `x_{jk}` of the convex
//!   program: for every job, the fraction of its workload assigned to each
//!   atomic interval.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod assignment;
pub mod partition;

pub use assignment::WorkAssignment;
pub use partition::{AtomicInterval, BoundaryInsert, IntervalPartition, Refinement};
