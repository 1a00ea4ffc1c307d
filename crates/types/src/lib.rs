//! # pss-types
//!
//! Foundational types for the *Profitable Speed Scaling* workspace, a
//! reproduction of Kling & Pietrzyk, "Profitable Scheduling on Multiple
//! Speed-Scalable Processors" (SPAA 2013).
//!
//! This crate defines the problem model shared by every other crate:
//!
//! * [`Job`] — a preemptable job with release time, deadline, workload and
//!   value,
//! * [`Instance`] — a problem instance (job set, number of machines, energy
//!   exponent `α`),
//! * [`Schedule`] — a machine-level schedule as a set of constant-speed
//!   [`Segment`]s, together with cost accounting ([`Cost`]),
//! * [`validate`] — feasibility checking of schedules against instances,
//! * [`Scheduler`] — the batch algorithm trait implemented by the offline
//!   baselines, plus the event-driven online pair
//!   [`OnlineAlgorithm`]/[`OnlineScheduler`] (incremental arrivals via
//!   [`OnlineScheduler::on_arrivals`], a never-revised committed
//!   [`OnlineScheduler::frontier`], and a blanket batch adapter) implemented
//!   by every online algorithm in the workspace,
//! * [`merge`] — reassembling one logical schedule from per-shard
//!   committed schedules ([`merge_frontiers`]: lane-offset machines,
//!   remapped job ids, additive speeds/energy — the frontier-merge half of
//!   the sharded-stream router),
//! * [`ingress`] — service-facing ingestion types: [`TenantId`],
//!   [`JobEnvelope`] (a submitted job before the service assigns its dense
//!   [`JobId`]) and the typed [`IngressError`]s a total
//!   ingestion boundary returns instead of panicking,
//! * [`num`] — tolerance-aware floating point helpers used by all numeric
//!   code in the workspace,
//! * [`snapshot`] — the checkpoint codec: versioned [`StateBlob`]s, the
//!   hand-rolled bounds-checked binary codec ([`BlobWriter`]/[`BlobReader`],
//!   no serde in the offline build) and the [`SnapshotPart`] trait payloads
//!   are assembled from (the JSON envelope lives in `pss-metrics`),
//! * [`seglog`] — the append-only realised-segment log that holds a run's
//!   committed frontier: checksummed [`SegmentLog`] records, [`LogCursor`]s,
//!   the [`FrontierPart`] cursor a snapshot stores in place of its frontier,
//!   and the [`LogCheckpointable`] trait every online scheduler state
//!   implements (snapshot only live state, restore from a `(log, blob)`
//!   pair bit-identically).
//!
//! The model follows Section 2 of the paper: `m` speed-scalable processors,
//! power `P_α(s) = s^α` with `α > 1`, preemption and migration allowed, at
//! most one job per processor and one processor per job at any time, and the
//! cost of a schedule is the consumed energy plus the total value of jobs it
//! does not finish.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cost;
pub mod error;
pub mod ingress;
pub mod instance;
pub mod job;
pub mod merge;
pub mod num;
pub mod scheduler;
pub mod seglog;
pub mod segment;
pub mod snapshot;
pub mod validate;

pub use cost::Cost;
pub use error::{InstanceError, ScheduleError};
pub use ingress::{IngressError, JobEnvelope, TenantId};
pub use instance::Instance;
pub use job::{Job, JobId};
pub use merge::{merge_frontiers, ShardPiece};
pub use num::Tolerance;
pub use scheduler::{
    check_arrival, check_arrival_order, fold_price, run_online, Decision, OnlineAlgorithm,
    OnlineScheduler, Scheduler, ARRIVAL_ORDER_TOLERANCE,
};
pub use seglog::{FrontierPart, LogCheckpointable, LogCursor, SegmentLog};
pub use segment::{Schedule, Segment, SegmentsByJob};
pub use snapshot::{BlobReader, BlobWriter, SnapshotError, SnapshotPart, StateBlob};
pub use validate::{validate_schedule, ValidationReport};
