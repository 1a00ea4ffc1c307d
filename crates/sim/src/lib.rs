//! # pss-sim
//!
//! The execution substrate: a discrete-event simulator that "runs" a
//! schedule on `m` speed-scalable machines and reports what actually
//! happened, plus an online-behaviour replay harness.
//!
//! The paper analyses schedules purely through their cost functional; a
//! system reproducing it still needs the runtime view a practitioner would
//! use — per-machine utilisation, preemptions, migrations, completion
//! times, deadline slack, energy split per machine.  [`engine::Simulation`]
//! provides exactly that, and doubles as an independent check of the cost
//! accounting in `pss-types` (the simulator integrates power over its own
//! event timeline).
//!
//! [`feed::ShardCore`] is the one place where jobs reach an online run: it
//! applies the model's arrival rules (release floor, expiry, one decision
//! per job, the price fold), and every driver here and in `pss-serve` is a
//! loop around it.  It is also the one place that records what was
//! decided: every burst it feeds lands in the caller's
//! [`record::FeedRecord`] (the jobs as fed, one entry per job with its
//! decision and dual, the price after each burst), and the record's
//! bit-exact `==` is every driver's determinism oracle.
//!
//! [`engine::StreamingSimulation`] drives an event-driven online algorithm
//! ([`OnlineAlgorithm`](pss_types::OnlineAlgorithm)) over an arrival
//! stream and reports its record, with the frontier size after each
//! batch — the runtime counterpart of the paper's online model.  A
//! configurable **burst-coalescing window** feeds near-simultaneous
//! arrivals (within the window of a burst's first release) as one batch
//! through [`OnlineScheduler::on_arrivals`](pss_types::OnlineScheduler::on_arrivals),
//! at the burst's last release time, so a burst costs one replan / index
//! merge instead of one per job; with `coalesce_window = 0` (the default)
//! every arrival is a burst of its own, fed at its own release.
//!
//! [`sharded`] partitions *one* logical stream across `S` independent
//! scheduler runs — [`sharded::RoutePolicy`] (hash / round-robin /
//! cheapest-price over the shards' published dual-price EWMAs) routes each
//! arrival, [`sharded::ShardedStream`] keeps a mergeable per-shard frontier
//! ([`pss_types::merge_frontiers`]), and [`sharded::sharding_drift`] is the
//! sharding-cost oracle comparing the same workload unsharded vs sharded.
//! With `shards = 1`, [`sharded::ShardedStreaming`]'s one record equals
//! [`engine::StreamingSimulation`]'s.
//!
//! [`checkpoint`] makes streams *restartable*.  Every run state implements
//! `pss_types::LogCheckpointable`, and [`checkpoint::CheckpointChain`]
//! owns a shard's `(log, blob)` pair: it syncs the run's committed
//! segments into an append-only `pss_types::SegmentLog`, captures blobs of
//! live state plus a log cursor (O(active) bytes) into a bounded chain, and
//! recovers from the newest blob that decodes.  The daemon's shards and the
//! drills here all go through it:
//! [`StreamingSimulation::run_checkpointed`](engine::StreamingSimulation)
//! captures every k ingestion batches, and the crash drill
//! (`run_with_failover`) kills a worker mid-stream, recovers and replays
//! the delta, bit-identically.  E18 measures blob size, capture/restore
//! cost and recovery latency.
//!
//! [`replay`] provides the operational definition of "online": the
//! streaming check [`replay::streaming_prefix_report`] feeds one run
//! through a [`ShardCore`] and verifies in a single pass that the machine
//! speed profiles it *commits to* are never revised by later arrivals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checkpoint;
pub mod engine;
pub mod feed;
pub mod gantt;
pub mod record;
pub mod replay;
pub mod sharded;

pub use checkpoint::{Checkpoint, CheckpointChain, Recovery, RecoveryStats};
pub use engine::{
    coalesce_arrivals, nearest_rank, JobOutcome, MachineStats, SimReport, Simulation, StreamReport,
    StreamingSimulation,
};
pub use feed::{burst_len, expired_at, FeedState, ShardCore, PRICE_SMOOTHING};
pub use gantt::{render_gantt, GanttOptions};
pub use record::{FeedEntry, FeedRecord};
pub use replay::{streaming_prefix_report, PrefixStabilityReport};
pub use sharded::{
    merge_shards, sharded_fields_equal, sharding_drift, RoutePolicy, ShardedOutcome, ShardedReport,
    ShardedStream, ShardedStreaming, ShardingDrift,
};
