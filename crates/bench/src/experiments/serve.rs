//! E15 — the multi-tenant ingestion soak: dual-driven backpressure, bounded
//! queues and the crash/hand-off lifecycle of the `pss-serve` daemon.
//!
//! The daemon (PR 6) promises that the paper's online model survives being
//! turned into a *service*: concurrent tenants blasting bounded lock-free
//! queues, admission priced by the scheduler's own duals, and a
//! checkpointed lifecycle that can lose a worker mid-soak without losing a
//! decision.  This experiment soaks exactly that:
//!
//! 1. **Per-tenant admission accounting** — a mixed tenant population
//!    (best-effort `Defer` tenants, a quota-capped bulk tenant, a
//!    zero-ceiling throttled tenant and a zero-ceiling `Reject` "spot"
//!    tenant) drives an overloaded service; the per-tenant counters must
//!    partition every submission attempt exactly.
//! 2. **Per-shard ingestion** — queue depths stay bounded under overload,
//!    burst coalescing collapses the backlog into few replans, and the
//!    rolling dual price ends positive (the congestion signal is live).
//! 3. **Lifecycle latencies** — a graceful hand-off of shard 0 and an
//!    injected crash + journal-replay recovery of shard 1, both *during*
//!    the soak, with drain latency and end-to-end throughput at shutdown.
//!
//! The notes also pin the service against the offline replay: a
//! single-tenant, single-shard daemon must be bit-identical to
//! `StreamingSimulation::with_coalescing` on the same stream.

use pss_check::sync::Counter;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pss_core::prelude::*;
use pss_metrics::table::fmt_f64;
use pss_metrics::{JsonValue, Table};
use pss_serve::{Daemon, RecoveryReport, ServeConfig, ServiceReport, TenantHandle, TenantSpec};
use pss_sim::StreamingSimulation;
use pss_types::{IngressError, JobEnvelope, LogCheckpointable, TenantId};
use pss_workloads::{ArrivalModel, RandomConfig, ValueModel, WindowModel, WorkModel};

use super::ExperimentOutput;
use crate::support::check;

/// An overloaded bursty stream for one tenant: far more work per unit time
/// than one machine can profitably absorb, with values spread around the
/// stand-alone energy so the scheduler rejects freely and its duals (the
/// backpressure signal) stay alive.
fn tenant_stream(per_tenant: usize, alpha: f64, seed: u64) -> Vec<JobEnvelope> {
    let config = RandomConfig {
        n_jobs: per_tenant,
        machines: 1,
        alpha,
        horizon: 0.0, // ignored by BurstyPoisson
        arrival: ArrivalModel::BurstyPoisson {
            rate: 4.0,
            burst_size: 4,
            jitter: 1e-4,
        },
        // Windows comfortably wider than the producers' pacing lead, so a
        // job submitted near the watermark still has a live deadline.
        window: WindowModel::Uniform { min: 1.0, max: 4.0 },
        work: WorkModel::Uniform { min: 0.5, max: 2.0 },
        value: ValueModel::ProportionalToEnergy { min: 0.2, max: 3.0 },
        seed,
    };
    let mut jobs = config.generate().jobs;
    jobs.sort_by(|a, b| a.release.total_cmp(&b.release));
    jobs.iter()
        .enumerate()
        .map(|(tag, j)| {
            // The tenant is overwritten by the submitting handle.
            JobEnvelope::new(
                TenantId(0),
                tag as u64,
                j.release,
                j.deadline,
                j.work,
                j.value,
            )
        })
        .collect()
}

/// The price-seeding primer pair for one shard: an easy anchor the
/// algorithm is certain to accept, plus a job no algorithm can profitably
/// run (huge work in a sliver of a window).  Submitted back-to-back into a
/// paused shard they coalesce into one batch; the anchor's acceptance
/// folds λ and the hopeless job's rejection dual (its value) drags the
/// published price positive — the backpressure gates only engage once the
/// price is positive.  (Since the rejection-starvation fix, every decision
/// prices in, so a lone rejected batch would also lift the price; the
/// anchor is kept so the soak still exercises a mixed batch.)
fn primer_pair() -> [JobEnvelope; 2] {
    [
        JobEnvelope::new(TenantId(0), u64::MAX - 1, 0.0, 4.0, 0.2, 8.0),
        JobEnvelope::new(TenantId(0), u64::MAX, 0.0, 0.1, 50.0, 8.0),
    ]
}

/// How far ahead of the shard's feed watermark a producer lets its
/// releases run.  Pacing keeps the interleaved tenants near the shard's
/// virtual time, so expiry-based load shedding stays the exception.
const PACE_LEAD: f64 = 2.0;

/// One producer: submits its stream in release order, pacing against the
/// shard's feed watermark, spinning politely on the retryable gates (full
/// queue, quota) and accepting the terminal ones.
fn produce(handle: TenantHandle, stream: Vec<JobEnvelope>, progress: Arc<Counter>) {
    for envelope in stream {
        // Pace: wait (bounded — the watermark freezes during a shard
        // crash) until the shard's virtual time approaches this release.
        let pace = Instant::now() + Duration::from_millis(20);
        while handle.watermark().is_finite()
            && envelope.release > handle.watermark() + PACE_LEAD
            && Instant::now() < pace
        {
            std::thread::yield_now();
        }
        loop {
            match handle.submit(envelope) {
                Ok(_) => break,
                Err(IngressError::QueueFull { .. }) | Err(IngressError::QuotaExceeded { .. }) => {
                    std::thread::yield_now();
                }
                Err(IngressError::ShuttingDown) => return,
                // Deferred by backpressure, or expired behind the
                // watermark: the submission is dropped, its attempt stays
                // in the tenant's counters.
                Err(_) => break,
            }
        }
        progress.incr();
    }
}

/// Everything one soak produces, for the tables and notes.
struct SoakOutcome {
    report: ServiceReport,
    policies: Vec<&'static str>,
    queue_capacity: usize,
    handoff: RecoveryReport,
    crash: Option<RecoveryReport>,
    wall_secs: f64,
}

/// Drives one algorithm through the full multi-tenant soak: primed dual
/// prices, concurrent producers, a mid-soak hand-off of shard 0 and a
/// mid-soak crash + recovery of shard 1, then a draining shutdown.
fn soak<A>(
    algorithm: A,
    shards: usize,
    per_tenant: usize,
    queue_capacity: usize,
    quota: usize,
    seed: u64,
) -> SoakOutcome
where
    A: OnlineAlgorithm,
    A::Run: LogCheckpointable + Send + 'static,
{
    let config = ServeConfig {
        machines: 1,
        alpha: 2.0,
        shards,
        queue_capacity,
        coalesce_window: 1e-3,
        max_batch: 64,
        checkpoint_every: 16,
        price_smoothing: 0.1,
        start_paused: true,
        ..ServeConfig::default()
    };
    // One best-effort tenant per shard, plus the three special tenants on
    // shard 0: quota-capped bulk, a zero-ceiling Defer tenant (throttled)
    // and a zero-ceiling Reject tenant (spot).
    let mut specs: Vec<TenantSpec> = (0..shards)
        .map(|s| TenantSpec::new(format!("svc-{s}")).on_shard(s))
        .collect();
    let mut policies: Vec<&'static str> = vec!["defer"; shards];
    specs.push(TenantSpec::new("bulk").on_shard(0).with_quota(quota));
    policies.push("defer, quota");
    specs.push(
        TenantSpec::new("throttled")
            .on_shard(0)
            .with_price_ceiling(0.0),
    );
    policies.push("defer, ceiling 0");
    specs.push(
        TenantSpec::new("spot")
            .on_shard(0)
            .with_price_ceiling(0.0)
            .rejecting_on_price(),
    );
    policies.push("reject, ceiling 0");
    let tenant_count = specs.len();

    let started = Instant::now();
    let (mut daemon, handles) = Daemon::spawn(algorithm, config, specs).expect("daemon spawn");

    // Prime every shard's dual price while the feeds are still paused, so
    // the price gates are live before the special tenants start submitting.
    for handle in handles.iter().take(shards) {
        for envelope in primer_pair() {
            handle.submit(envelope).expect("primer queued");
        }
    }
    daemon.resume();
    let deadline = Instant::now() + Duration::from_secs(10);
    while (0..shards).any(|s| daemon.shard_price(s) <= 0.0) && Instant::now() < deadline {
        std::thread::yield_now();
    }

    let progress = Arc::new(Counter::new());
    let total = tenant_count * per_tenant;
    let mut producers = Vec::with_capacity(tenant_count);
    for (i, handle) in handles.into_iter().enumerate() {
        let stream = tenant_stream(per_tenant, config.alpha, seed + i as u64);
        let progress = Arc::clone(&progress);
        producers.push(std::thread::spawn(move || {
            produce(handle, stream, progress)
        }));
    }

    // Mid-soak lifecycle: a graceful hand-off of shard 0 and an injected
    // crash + journal-replay recovery of shard 1, under live producers.
    let half = Instant::now() + Duration::from_secs(120);
    while progress.get() < (total / 2) as u64 && Instant::now() < half {
        std::thread::yield_now();
    }
    let handoff = daemon.handoff_shard(0).expect("hand-off shard 0");
    let crash = (shards > 1).then(|| {
        daemon.crash_shard(1, 0).expect("crash shard 1");
        daemon.recover_shard(1).expect("recover shard 1")
    });

    for p in producers {
        p.join().expect("producer thread");
    }
    let report = daemon.shutdown().expect("drained shutdown");
    let wall_secs = started.elapsed().as_secs_f64();
    SoakOutcome {
        report,
        policies,
        queue_capacity,
        handoff,
        crash,
        wall_secs,
    }
}

/// The per-tenant counters must partition every submission attempt: each
/// attempt ends in exactly one bucket.
fn accounting_partitions(outcome: &SoakOutcome) -> bool {
    outcome.report.tenants.iter().all(|t| {
        t.submitted
            == t.accepted
                + t.rejected_by_scheduler
                + t.rejected_by_price
                + t.rejected_invalid
                + t.rejected_stale
                + t.deferred
                + t.queue_full
                + t.quota_exceeded
    })
}

/// Queue depths under overload: backlogs really formed (some sample > 0)
/// and never exceeded the bounded queue's capacity.
fn depths_bounded(outcome: &SoakOutcome) -> bool {
    outcome.report.shards.iter().all(|s| {
        let max = s.max_queue_depth();
        max > 0 && max <= outcome.queue_capacity.next_power_of_two()
    })
}

/// Internal consistency of each shard's artefacts: dense feed-order ids,
/// one event per fed job, one price per ingestion batch, and a finished
/// schedule that validates offline against the shard's reassembled stream.
fn shards_consistent(outcome: &SoakOutcome) -> bool {
    let report = &outcome.report;
    report.shards.iter().all(|s| {
        s.jobs.iter().enumerate().all(|(i, j)| j.id == JobId(i))
            && s.events.len() == s.jobs.len()
            && s.price_trace.len() == s.batches
            && s.instance(report.machines, report.alpha)
                .is_ok_and(|inst| validate_schedule(&inst, &s.schedule).is_ok())
    })
}

/// The differential pin, inline: a single-tenant, single-shard daemon fed a
/// pre-queued stream must match `StreamingSimulation::with_coalescing`
/// bit-for-bit (ids, decisions, duals, batch structure, schedule).
fn daemon_matches_streaming<A>(algorithm: A, window: f64, seed: u64) -> bool
where
    A: OnlineAlgorithm + Clone,
    A::Run: LogCheckpointable + Send + 'static,
{
    let config = RandomConfig {
        n_jobs: 48,
        machines: 1,
        alpha: 2.0,
        horizon: 0.0,
        arrival: ArrivalModel::BurstyPoisson {
            rate: 3.0,
            burst_size: 4,
            jitter: 1e-4,
        },
        window: WindowModel::Uniform { min: 0.5, max: 2.0 },
        work: WorkModel::Uniform { min: 0.5, max: 2.0 },
        value: ValueModel::ProportionalToEnergy { min: 0.2, max: 3.0 },
        seed,
    };
    let instance = config.generate();
    // Re-densify ids in arrival order so daemon feed-order ids match.
    let instance = instance.restrict(&instance.arrival_order());
    let serve = ServeConfig {
        machines: instance.machines,
        alpha: instance.alpha,
        shards: 1,
        queue_capacity: instance.len().max(2),
        coalesce_window: window,
        max_batch: instance.len().max(1),
        checkpoint_every: 0,
        start_paused: true,
        ..ServeConfig::default()
    };
    let (daemon, handles) =
        Daemon::spawn(algorithm.clone(), serve, vec![TenantSpec::new("pin")]).expect("pin daemon");
    for j in &instance.jobs {
        handles[0]
            .submit(JobEnvelope::new(
                TenantId(0),
                j.id.0 as u64,
                j.release,
                j.deadline,
                j.work,
                j.value,
            ))
            .expect("pin submission");
    }
    daemon.resume();
    let report = daemon.shutdown().expect("pin shutdown");
    let stream = StreamingSimulation::with_coalescing(window)
        .run(&algorithm, &instance)
        .expect("offline stream");
    let shard = &report.shards[0];
    shard.events.len() == stream.events.len()
        && shard.batches == stream.batches
        && shard.events.iter().zip(&stream.events).all(|(a, b)| {
            a.job == b.job && a.accepted == b.accepted && a.dual.to_bits() == b.dual.to_bits()
        })
        && shard.schedule.segments == stream.schedule.segments
}

/// Runs E15.
pub fn run(quick: bool) -> ExperimentOutput {
    // Full mode: 4 shards x (4 + 3) tenants x 15k jobs = 105k arrivals.
    let (shards, per_tenant, capacity, quota) = if quick {
        (2, 150, 128, 4)
    } else {
        (4, 15_000, 512, 8)
    };
    let (pd_shards, pd_per_tenant) = if quick { (2, 60) } else { (2, 1_500) };

    let outcomes = vec![
        soak(CllScheduler, shards, per_tenant, capacity, quota, 15_000),
        soak(
            PdScheduler::coarse(),
            pd_shards,
            pd_per_tenant,
            capacity,
            quota,
            15_100,
        ),
    ];

    // ---- Table 1: per-tenant admission accounting.
    let mut tenants = Table::new(
        "Per-tenant admission accounting under overload",
        &[
            "algorithm",
            "tenant",
            "policy",
            "submitted",
            "accepted",
            "rej sched",
            "rej price",
            "stale/exp",
            "deferred",
            "queue full",
            "quota exc",
            "lost value",
        ],
    );
    for o in &outcomes {
        for (t, policy) in o.report.tenants.iter().zip(&o.policies) {
            tenants.push_row(vec![
                o.report.algorithm.clone(),
                t.tenant.clone(),
                (*policy).into(),
                t.submitted.to_string(),
                t.accepted.to_string(),
                t.rejected_by_scheduler.to_string(),
                t.rejected_by_price.to_string(),
                t.rejected_stale.to_string(),
                t.deferred.to_string(),
                t.queue_full.to_string(),
                t.quota_exceeded.to_string(),
                fmt_f64(t.lost_value),
            ]);
        }
    }

    // ---- Table 2: per-shard ingestion under overload.
    let mut ingestion = Table::new(
        "Per-shard ingestion: bounded queues, burst coalescing and the dual price",
        &[
            "algorithm",
            "shard",
            "arrivals",
            "batches",
            "coalesce x",
            "max depth",
            "p99 depth",
            "final price",
            "checkpoints",
            "handoffs",
        ],
    );
    for o in &outcomes {
        for s in &o.report.shards {
            let coalesce = s.events.len() as f64 / s.batches.max(1) as f64;
            ingestion.push_row(vec![
                o.report.algorithm.clone(),
                s.shard.to_string(),
                s.events.len().to_string(),
                s.batches.to_string(),
                fmt_f64(coalesce),
                s.max_queue_depth().to_string(),
                fmt_f64(s.queue_depth_percentile(99.0)),
                fmt_f64(s.final_price),
                s.checkpoints.to_string(),
                s.handoffs.to_string(),
            ]);
        }
    }

    // ---- Table 3: lifecycle latencies and end-to-end throughput.
    let mut lifecycle = Table::new(
        "Mid-soak lifecycle (hand-off of shard 0, crash + replay of shard 1) and throughput",
        &[
            "algorithm",
            "shards",
            "tenants",
            "arrivals",
            "handoff replay",
            "handoff (ms)",
            "crash replay",
            "recovery (ms)",
            "drain max (ms)",
            "wall (s)",
            "jobs/s",
        ],
    );
    for o in &outcomes {
        let drain_max = o
            .report
            .drain
            .drain_secs
            .iter()
            .copied()
            .fold(0.0, f64::max);
        let arrivals = o.report.total_arrivals();
        lifecycle.push_row(vec![
            o.report.algorithm.clone(),
            o.report.shards.len().to_string(),
            o.report.tenants.len().to_string(),
            arrivals.to_string(),
            o.handoff.replayed_batches.to_string(),
            fmt_f64(o.handoff.recovery_secs * 1e3),
            o.crash
                .map_or("-".into(), |c| c.replayed_batches.to_string()),
            o.crash
                .map_or("-".into(), |c| fmt_f64(c.recovery_secs * 1e3)),
            fmt_f64(drain_max * 1e3),
            fmt_f64(o.wall_secs),
            fmt_f64(arrivals as f64 / o.wall_secs.max(1e-12)),
        ]);
    }

    let backpressure = outcomes.iter().all(|o| {
        o.report
            .tenants
            .iter()
            .map(|t| t.deferred + t.rejected_by_price)
            .sum::<u64>()
            > 0
    });
    let partitions = outcomes.iter().all(accounting_partitions);
    let bounded = outcomes.iter().all(depths_bounded);
    let consistent = outcomes.iter().all(shards_consistent);
    let pinned = daemon_matches_streaming(CllScheduler, 0.0, 15_200)
        && daemon_matches_streaming(CllScheduler, 1e-3, 15_201)
        && daemon_matches_streaming(PdScheduler::coarse(), 1e-3, 15_202);
    let exports_parse = outcomes
        .iter()
        .all(|o| JsonValue::parse(&o.report.summary().to_json()).is_ok());
    let queue_full_total: u64 = outcomes
        .iter()
        .flat_map(|o| &o.report.tenants)
        .map(|t| t.queue_full)
        .sum();

    ExperimentOutput {
        id: "E15".into(),
        title: "Multi-tenant ingestion soak: dual-price backpressure, bounded queues, lifecycle"
            .into(),
        tables: vec![tenants, ingestion, lifecycle],
        notes: vec![
            format!(
                "dual-price backpressure engaged in every soak \
                 (deferred + price-rejected submissions > 0): {}",
                check(backpressure)
            ),
            format!(
                "per-tenant counters partition every submission attempt exactly \
                 (submitted = accepted + rejected + deferred + bounced): {}",
                check(partitions)
            ),
            format!(
                "arrival queues backed up under overload yet never exceeded their \
                 bounded capacity on any shard: {}",
                check(bounded)
            ),
            format!(
                "shard artefacts are internally consistent (dense feed-order ids, one \
                 price per batch, schedules validate offline): {}",
                check(consistent)
            ),
            format!(
                "a single-tenant single-shard daemon is bit-identical to \
                 StreamingSimulation::with_coalescing (CLL and PD, windows 0 and 1e-3): {}",
                check(pinned)
            ),
            format!(
                "ServiceSummary's JSON export parses: {}",
                check(exports_parse)
            ),
            format!(
                "producers bounced off full queues {queue_full_total} time(s) and retried; \
                 a bounce is the outermost backpressure layer, ahead of the price gate"
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e15_quick_produces_all_three_tables_and_passing_notes() {
        let out = run(true);
        assert_eq!(out.tables.len(), 3);
        // CLL soak: 2 shards -> 5 tenants; PD soak: 2 shards -> 5 tenants.
        assert_eq!(out.tables[0].rows.len(), 10);
        assert_eq!(out.tables[1].rows.len(), 4);
        assert_eq!(out.tables[2].rows.len(), 2);
        for note in &out.notes[..6] {
            assert!(note.contains("yes"), "failing E15 note: {note}");
        }
    }
}
