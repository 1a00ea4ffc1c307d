//! # pss-serve
//!
//! A long-running, multi-tenant ingestion daemon over the event-driven
//! online scheduling API — the paper's online model turned into a service.
//!
//! Where `pss-sim`'s `StreamingSimulation` *replays* a finite instance,
//! the [`Daemon`] ingests an open-ended stream from concurrent tenants:
//!
//! * **[`queue`]** — a bounded lock-free multi-producer arrival queue
//!   (Vyukov-style per-slot sequence ring; the workspace's only `unsafe`),
//!   one per shard, between tenant handles and the worker thread.
//! * **[`tenant`]** — the tenant registry: placement, outstanding-jobs
//!   quota, price ceiling and [`BackpressurePolicy`], plus lock-free
//!   admission accounting.
//! * **[`daemon`]** — the service itself: sharded workers draining queues
//!   into `OnlineScheduler` runs with burst coalescing (one replan per
//!   burst under load), dual-price backpressure at admission (the rolling
//!   EWMA of the scheduler's own duals is the congestion signal), and a
//!   checkpointed lifecycle — crash injection, bit-identical journal-replay
//!   recovery, graceful worker hand-off, and a draining shutdown.
//! * **[`report`]** — what a run produces: each shard's
//!   `pss_sim::FeedRecord` (every decision and the price trace) and
//!   schedule, per-tenant accounting, and the projection onto
//!   `pss_metrics::ServiceSummary` for JSON export.
//! * **[`retry`]** — producer-side supervision: [`RetryPolicy`] drives a
//!   submission through bounded exponential backoff with deterministic
//!   jitter, honouring `IngressError::is_retryable`, to success or a typed
//!   [`RetryError`] give-up.
//! * **[`router`]** — one logical stream over many shards:
//!   [`StreamRouter`] routes every arrival by a pluggable
//!   [`RoutePolicy`](pss_sim::RoutePolicy) (hash / round-robin /
//!   cheapest-price over the shards' lock-free published dual-price
//!   EWMAs) and zips the per-shard outcomes into one logical schedule
//!   (`pss_types::merge_frontiers`) — wave-stepped for bit-replayable
//!   routing, free-running for throughput.
//! * **[`chaos`]** — deterministic fault injection: a seeded [`FaultPlan`]
//!   (worker kills, checkpoint corruption, transient feed faults,
//!   queue-full storms, dead-on-arrival floods, adversarial out-of-order
//!   interleavings) driven wave-by-wave by [`ChaosDriver`], with
//!   [`deterministic_fields_equal`] (the shard records' bit-exact `==`
//!   plus a few extras) as the oracle that a fault-injected run ends equal
//!   to the fault-free run on every deterministic field.
//!
//! The service boundary is *total*: every way a submission can fail
//! surfaces as a typed `pss_types::IngressError`, never a panic and never
//! a poisoned scheduler run.  A single-tenant, single-shard daemon is
//! bit-identical to `StreamingSimulation::with_coalescing` on the same
//! stream — pinned by the workspace's differential tests.

// The one crate with `unsafe` (the queue's slot handoff): every unsafe
// operation must sit in an explicit `unsafe { }` block with its own
// SAFETY comment, even inside `unsafe fn` — enforced by pss-lint's
// `crate-attrs` rule.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod daemon;
pub mod queue;
pub mod report;
pub mod retry;
pub mod router;
pub mod tenant;

pub use chaos::{deterministic_fields_equal, ChaosDriver, ChaosRun, ChaosStats, FaultPlan};
pub use daemon::{Daemon, RecoveryReport, ServeConfig, Submission, TenantHandle, WatchdogVerdict};
pub use queue::{ring_capacity, ArrivalQueue};
pub use report::{ServiceReport, ShardReport};
pub use retry::{RetryError, RetryPolicy};
pub use router::{routed_fields_equal, RoutedReport, RoutedSubmission, StreamRouter};
pub use tenant::{BackpressurePolicy, TenantSpec};
