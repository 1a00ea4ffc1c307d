//! E13 — burst-batched ingestion.
//!
//! The ingestion-grain experiment: arrivals come in bursts of `b`
//! near-simultaneous jobs (distinct microsecond-scale timestamps — the shape
//! real "simultaneous" traffic has), and the streaming simulator's
//! **coalescing window** turns each burst back into one
//! [`OnlineScheduler::on_arrivals`] batch, so the burst costs one replan /
//! one index merge instead of one per job.  Two tables:
//!
//! 1. per-algorithm ingestion metrics over the burst sweep
//!    `b ∈ {1, 4, 16, 64}` (arrivals/s, batches, latency percentiles),
//! 2. the replanning executor's batch-vs-loop comparison (replans per
//!    arrival collapse `b`-fold; total arrival-processing speedup).
//!
//! Sharding one stream across scheduler runs is E17's subject.  The
//! `burst_ingest` criterion bench pins the same batch-vs-loop speedups as a
//! CI regression gate (`BURST_SMOKE=1`).

use std::time::Instant;

use pss_core::baselines::cll::CllAdmission;
use pss_core::baselines::oa::{MultiOaPlanner, OaPlanner};
use pss_core::baselines::replan::{AdmissionPolicy, AdmitAll, OnlineEnv, Planner, ReplanState};
use pss_core::prelude::*;
use pss_metrics::table::fmt_f64;
use pss_metrics::Table;
use pss_sim::{coalesce_arrivals, StreamingSimulation};
use pss_workloads::{ArrivalModel, RandomConfig, ValueModel};

use super::ExperimentOutput;
use crate::support::check;

/// Width of the intra-burst timestamp jitter (the "same millisecond,
/// different microsecond" regime).
pub const BURST_JITTER: f64 = 1e-4;

/// Coalescing window used throughout E13 and the `burst_ingest` bench:
/// comfortably above the jitter, far below the inter-burst gap and the
/// jobs' time scale.
pub const COALESCE_WINDOW: f64 = 1e-3;

/// A bursty Poisson stream of `n` jobs in bursts of `b`, with the *job*
/// arrival rate held at ~4 jobs per unit time (so the active set stays
/// bounded and comparable across burst sizes).
pub fn burst_instance(machines: usize, n: usize, b: usize, seed: u64) -> Instance {
    RandomConfig {
        n_jobs: n,
        machines,
        alpha: 2.5,
        arrival: ArrivalModel::BurstyPoisson {
            rate: 4.0 / b.max(1) as f64,
            burst_size: b.max(1),
            jitter: BURST_JITTER,
        },
        value: ValueModel::ProportionalToEnergy { min: 0.3, max: 4.0 },
        ..RandomConfig::standard(seed)
    }
    .generate()
}

/// Feeds every arrival one event at a time (the loop baseline) and returns
/// the wall-clock total of the `on_arrival` calls.
pub fn feed_per_event<R: OnlineScheduler>(run: &mut R, instance: &Instance) -> f64 {
    let started = Instant::now();
    for id in instance.arrival_order() {
        let job = instance.job(id);
        run.on_arrival(job, job.release).expect("arrival");
    }
    started.elapsed().as_secs_f64()
}

/// Feeds the stream as coalesced bursts through `on_arrivals` and returns
/// the wall-clock total of the batch calls.
pub fn feed_coalesced<R: OnlineScheduler>(run: &mut R, instance: &Instance, window: f64) -> f64 {
    let bursts = coalesce_arrivals(instance, window);
    let mut burst_jobs: Vec<Job> = Vec::new();
    let started = Instant::now();
    for (feed_time, ids) in bursts {
        burst_jobs.clear();
        burst_jobs.extend(ids.iter().map(|&id| *instance.job(id)));
        run.on_arrivals(&burst_jobs, feed_time).expect("burst");
    }
    started.elapsed().as_secs_f64()
}

/// The replan-executor algorithms of the batch-vs-loop table.
enum ExecutorKind {
    Oa(OaPlanner),
    Cll,
    MultiOa,
}

fn executor_row(
    kind: &ExecutorKind,
    label: &str,
    instance: &Instance,
    table: &mut Table,
    b: usize,
    speedups: &mut Vec<(String, usize, f64)>,
) {
    fn drive<P: Planner + Clone, A: AdmissionPolicy + Clone>(
        planner: P,
        admission: A,
        instance: &Instance,
    ) -> (f64, usize, f64, usize) {
        let env = OnlineEnv {
            machines: instance.machines,
            alpha: instance.alpha,
        };
        let mut looped = ReplanState::new(planner.clone(), admission.clone(), env);
        let loop_secs = feed_per_event(&mut looped, instance);
        let loop_replans = looped.replans();
        let mut batched = ReplanState::new(planner, admission, env);
        let batch_secs = feed_coalesced(&mut batched, instance, COALESCE_WINDOW);
        let batch_replans = batched.replans();
        (loop_secs, loop_replans, batch_secs, batch_replans)
    }

    let (loop_secs, loop_replans, batch_secs, batch_replans) = match kind {
        ExecutorKind::Oa(planner) => drive(*planner, AdmitAll, instance),
        ExecutorKind::Cll => drive(OaPlanner { speed_factor: 1.0 }, CllAdmission, instance),
        ExecutorKind::MultiOa => drive(
            MultiOaPlanner {
                options: Default::default(),
            },
            AdmitAll,
            instance,
        ),
    };
    let n = instance.len() as f64;
    let speedup = loop_secs / batch_secs.max(1e-12);
    speedups.push((label.to_string(), b, speedup));
    table.push_row(vec![
        label.into(),
        b.to_string(),
        instance.len().to_string(),
        fmt_f64(loop_replans as f64 / n),
        fmt_f64(batch_replans as f64 / n),
        fmt_f64(loop_secs * 1e3),
        fmt_f64(batch_secs * 1e3),
        fmt_f64(speedup),
    ]);
}

/// Runs E13.
pub fn run(quick: bool) -> ExperimentOutput {
    let burst_sizes: &[usize] = &[1, 4, 16, 64];
    // OA(m)'s batch speedup needs the pending sets at their steady-state
    // size before it amortises (the burst solve costs ~3x a warm
    // incremental one in descent passes), so its size is not scaled down
    // below 256 even in quick mode.
    let (n, moa_n) = if quick { (256, 256) } else { (2048, 512) };

    // ---- Table 1: coalesced ingestion per algorithm over the burst sweep.
    let mut ingest = Table::new(
        "Burst-coalesced ingestion (bursty Poisson stream, amortised per-arrival latency)",
        &[
            "algorithm",
            "b",
            "n",
            "batches",
            "accepted",
            "p50 (us)",
            "p95 (us)",
            "p99 (us)",
            "arrivals/s",
            "cost",
        ],
    );
    let mut percentiles_ordered = true;
    for &b in burst_sizes {
        let instance = burst_instance(1, n, b, 13_000 + b as u64);
        let moa_instance = burst_instance(1, moa_n, b, 13_100 + b as u64);
        let sim = StreamingSimulation::with_coalescing(COALESCE_WINDOW);
        let runs: Vec<pss_sim::StreamReport> = vec![
            sim.run(&PdScheduler::coarse(), &instance).expect("PD"),
            sim.run(&OaScheduler, &instance).expect("OA"),
            sim.run(&QoaScheduler::default(), &instance).expect("qOA"),
            sim.run(&MultiOaScheduler::default(), &moa_instance)
                .expect("OA(m)"),
            sim.run(&CllScheduler, &instance).expect("CLL"),
            sim.run(&AvrScheduler, &instance).expect("AVR"),
            sim.run(&BkpScheduler::default(), &instance).expect("BKP"),
        ];
        for stream in runs {
            let rows = stream.events.len();
            let (p50, p95, p99) = (
                stream.latency_percentile_secs(50.0),
                stream.latency_percentile_secs(95.0),
                stream.latency_percentile_secs(99.0),
            );
            percentiles_ordered &= p50 <= p95 + 1e-12 && p95 <= p99 + 1e-12;
            let total = stream.total_arrival_secs();
            ingest.push_row(vec![
                stream.algorithm.clone(),
                b.to_string(),
                rows.to_string(),
                stream.batches.to_string(),
                format!("{}/{rows}", stream.accepted_jobs()),
                fmt_f64(p50 * 1e6),
                fmt_f64(p95 * 1e6),
                fmt_f64(p99 * 1e6),
                fmt_f64(rows as f64 / total.max(1e-12)),
                fmt_f64(stream.total_cost()),
            ]);
        }
    }

    // ---- Table 2: the replanning executor's batch-vs-loop collapse.
    let mut collapse = Table::new(
        "Replan collapse: coalesced on_arrivals vs per-event on_arrival",
        &[
            "algorithm",
            "b",
            "n",
            "loop replans/arrival",
            "batch replans/arrival",
            "loop total (ms)",
            "batch total (ms)",
            "speedup",
        ],
    );
    let mut speedups: Vec<(String, usize, f64)> = Vec::new();
    for &b in burst_sizes {
        let instance = burst_instance(1, n, b, 13_200 + b as u64);
        let moa_instance = burst_instance(1, moa_n, b, 13_300 + b as u64);
        executor_row(
            &ExecutorKind::Oa(OaPlanner { speed_factor: 1.0 }),
            "OA",
            &instance,
            &mut collapse,
            b,
            &mut speedups,
        );
        executor_row(
            &ExecutorKind::Oa(OaPlanner::with_factor(2.0 - 1.0 / instance.alpha)),
            "qOA",
            &instance,
            &mut collapse,
            b,
            &mut speedups,
        );
        executor_row(
            &ExecutorKind::Cll,
            "CLL",
            &instance,
            &mut collapse,
            b,
            &mut speedups,
        );
        executor_row(
            &ExecutorKind::MultiOa,
            "OA(m)",
            &moa_instance,
            &mut collapse,
            b,
            &mut speedups,
        );
    }

    let b16_oa_speedup = speedups
        .iter()
        .filter(|(label, b, _)| *b == 16 && (label == "OA" || label == "OA(m)"))
        .map(|&(_, _, s)| s)
        .fold(f64::INFINITY, f64::min);
    let b16_min = speedups
        .iter()
        .filter(|(_, b, _)| *b == 16)
        .map(|&(_, _, s)| s)
        .fold(f64::INFINITY, f64::min);
    ExperimentOutput {
        id: "E13".into(),
        title: "Burst-batched arrivals: coalesced ingestion and replan collapse".into(),
        tables: vec![ingest, collapse],
        notes: vec![
            format!(
                "latency percentiles are ordered p50 <= p95 <= p99 in every row: {}",
                check(percentiles_ordered)
            ),
            format!(
                "batch ingestion at b = 16 is at least 3x the per-event loop for OA and OA(m): \
                 {} (min {}x; min across OA/qOA/CLL/OA(m) {}x)",
                check(b16_oa_speedup >= 3.0),
                fmt_f64(b16_oa_speedup),
                fmt_f64(b16_min)
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_quick_produces_all_three_tables() {
        let out = run(true);
        assert_eq!(out.tables.len(), 2);
        // 7 algorithms x 4 burst sizes; 4 executors x 4 burst sizes.
        assert_eq!(out.tables[0].rows.len(), 28);
        assert_eq!(out.tables[1].rows.len(), 16);
        assert_eq!(out.notes.len(), 2);
        assert!(out.notes[0].contains("yes"), "{:?}", out.notes);
    }

    #[test]
    fn replan_collapse_is_b_fold_on_coalesced_streams() {
        let b = 16usize;
        let instance = burst_instance(1, 192, b, 4242);
        let env = OnlineEnv {
            machines: 1,
            alpha: instance.alpha,
        };
        let mut looped = ReplanState::new(OaPlanner { speed_factor: 1.0 }, AdmitAll, env);
        feed_per_event(&mut looped, &instance);
        let mut batched = ReplanState::new(OaPlanner { speed_factor: 1.0 }, AdmitAll, env);
        feed_coalesced(&mut batched, &instance, COALESCE_WINDOW);
        // The loop replans roughly once per arrival; the coalesced feed
        // roughly once per burst.
        assert!(looped.replans() >= instance.len() / 2);
        assert!(
            batched.replans() <= instance.len() / b + instance.len() / (2 * b) + 2,
            "batched replans {} not collapsed (n = {}, b = {b})",
            batched.replans(),
            instance.len()
        );
    }
}
