//! E12 — streaming arrival latency: per-arrival handling time percentiles
//! (p50/p95/p99) versus stream length for *all* the event-driven online
//! algorithms (PD, OA, qOA, OA(m), CLL, AVR, BKP), driven through
//! [`StreamingSimulation`], plus the warm-started-vs-rebuild
//! arrival-processing speedups of the replanning executor (OA and OA(m);
//! PD, AVR and BKP have one arrival path, pinned to their batch references
//! instead) and the certificate of OA(m)'s exact replans: the KKT
//! violation of every replan's plan and its energy against coordinate
//! descent run to convergence on sampled replans.
//!
//! The workload is a Poisson arrival stream with a bounded active set (the
//! regime a long-running scheduler actually serves), so the stream length
//! `n` grows while the instantaneous load stays fixed — per-arrival latency
//! then measures how the *history* size affects the arrival step.  With the
//! persistent planning contexts and the AVR/BKP event indices this cost is
//! flat; the rebuild-per-arrival baselines degrade with `n`.

use std::time::Instant;

use pss_core::baselines::oa::MultiOaPlanner;
use pss_core::baselines::replan::{AdmitAll, OnlineEnv, ReplanState};
use pss_core::convex::kkt::max_stationarity_violation;
use pss_core::convex::{solve_min_energy_with, ProgramContext, SolverOptions};
use pss_core::intervals::WorkAssignment;
use pss_core::offline::MultiStaircase;
use pss_core::power::AlphaPower;
use pss_core::prelude::*;
use pss_metrics::table::fmt_f64;
use pss_metrics::Table;
use pss_sim::StreamingSimulation;
use pss_workloads::{ArrivalModel, RandomConfig, ValueModel};

use super::ExperimentOutput;
use crate::support::check;

/// A Poisson stream of `n` jobs with a bounded active set (~10 jobs).
pub fn stream_instance(n: usize, seed: u64) -> Instance {
    stream_instance_on(1, n, seed)
}

/// [`stream_instance`] over an explicit machine count (the multiprocessor
/// planner is benched on `m > 1` too, where the convex program's
/// cross-machine coupling makes warm convergence genuinely harder).
pub fn stream_instance_on(machines: usize, n: usize, seed: u64) -> Instance {
    RandomConfig {
        n_jobs: n,
        machines,
        alpha: 2.5,
        arrival: ArrivalModel::Poisson { rate: 4.0 },
        value: ValueModel::ProportionalToEnergy { min: 0.3, max: 4.0 },
        ..RandomConfig::standard(seed)
    }
    .generate()
}

/// Feeds every arrival of `instance` to `run` and returns the wall-clock
/// time spent in `on_arrival` calls.
fn drive_arrivals<R: OnlineScheduler>(run: &mut R, instance: &Instance) -> f64 {
    let start = Instant::now();
    for id in instance.arrival_order() {
        let job = instance.job(id);
        run.on_arrival(job, job.release).expect("arrival");
    }
    start.elapsed().as_secs_f64()
}

/// The certificate of OA(m)'s exact replans along one stream.
struct Certificate {
    /// Replans the run solved.
    replans: usize,
    /// Replans also solved by the converged coordinate descent.
    sampled: usize,
    /// Largest relative energy gap between the exact plan and the converged
    /// descent over the sampled replans.
    worst_gap: f64,
    /// Largest KKT stationarity violation of an exact plan.
    worst_kkt: f64,
}

/// Feeds `instance` to an OA(m) run and certifies every replan it solves:
/// the replan's left-aligned program is solved again by [`MultiStaircase`]
/// and its plan's KKT violation measured, and every `every`-th replan is
/// also solved by coordinate descent run to convergence.
fn certify_replans(instance: &Instance, every: usize) -> Certificate {
    let mut run = MultiOaScheduler::default()
        .start_for(instance)
        .expect("OA(m) run");
    let mut plan = MultiStaircase::default();
    let converged = SolverOptions {
        max_passes: 4_000,
        energy_tol: 1e-13,
    };
    let mut c = Certificate {
        replans: 0,
        sampled: 0,
        worst_gap: 0.0,
        worst_kkt: 0.0,
    };
    let mut now = f64::NEG_INFINITY;
    for id in instance.arrival_order() {
        let job = instance.job(id);
        let items: Vec<(f64, f64)> = run
            .pending()
            .iter()
            .map(|p| (p.deadline, p.remaining))
            .collect();
        let replans = run.replans();
        run.on_arrival(job, job.release).expect("arrival");
        if run.replans() > replans {
            let jobs = items
                .iter()
                .enumerate()
                .map(|(i, &(deadline, work))| Job::new(i, now, deadline, work, 1.0))
                .collect();
            let sub = Instance::from_jobs(instance.machines, instance.alpha, jobs)
                .expect("replan instance");
            let ctx = ProgramContext::new(&sub);
            let power = AlphaPower::new(instance.alpha);
            plan.solve(now, instance.machines, power, items.iter().copied())
                .expect("exact replan");
            let x = staircase_assignment(&ctx, &plan);
            let kkt = max_stationarity_violation(&ctx, &x).max_violation;
            c.worst_kkt = c.worst_kkt.max(kkt);
            if c.replans.is_multiple_of(every) {
                let exact = ctx.total_energy(&x);
                let descent = solve_min_energy_with(&ctx, &converged).energy;
                c.worst_gap = c.worst_gap.max((exact - descent).abs() / descent);
                c.sampled += 1;
            }
            c.replans += 1;
        }
        // The run's clock moves only when it replans (and at its first
        // arrival).
        if run.replans() > replans || !now.is_finite() {
            now = now.max(job.release);
        }
    }
    c
}

/// The exact plan as an assignment over the context's partition: each
/// piece's share goes to the atomic interval holding its midpoint.
fn staircase_assignment(ctx: &ProgramContext, plan: &MultiStaircase) -> WorkAssignment {
    let partition = ctx.partition();
    let mut x = WorkAssignment::zeros(ctx.n_jobs(), partition.len());
    for (item, start, end, share) in plan.pieces() {
        let mid = 0.5 * (start + end);
        let k = ctx
            .covered(item)
            .iter()
            .copied()
            .find(|&k| {
                let iv = partition.interval(k);
                iv.start <= mid && mid < iv.end
            })
            .expect("a piece inside the item's window");
        x.set(item, k, x.get(item, k) + share);
    }
    x
}

/// Runs E12.
pub fn run(quick: bool) -> ExperimentOutput {
    let sizes: Vec<usize> = if quick {
        vec![150, 400]
    } else {
        vec![1000, 4000, 10000]
    };

    let mut latency = Table::new(
        "Per-arrival latency percentiles (Poisson stream, bounded active set)",
        &[
            "algorithm",
            "n",
            "accepted",
            "p50 (us)",
            "p95 (us)",
            "p99 (us)",
            "max (us)",
            "total (ms)",
            "arrivals/s",
            "cost",
        ],
    );
    let mut percentiles_ordered = true;
    for &n in &sizes {
        let instance = stream_instance(n, 9100 + n as u64);
        let pd = PdScheduler::coarse();
        let oa = OaScheduler;
        let qoa = QoaScheduler::default();
        let multi_oa = MultiOaScheduler::default();
        let cll = CllScheduler;
        let avr = AvrScheduler;
        let bkp = BkpScheduler::default();
        let runs: Vec<pss_sim::StreamReport> = vec![
            StreamingSimulation::default()
                .run(&pd, &instance)
                .expect("PD stream"),
            StreamingSimulation::default()
                .run(&oa, &instance)
                .expect("OA stream"),
            StreamingSimulation::default()
                .run(&qoa, &instance)
                .expect("qOA stream"),
            StreamingSimulation::default()
                .run(&multi_oa, &instance)
                .expect("OA(m) stream"),
            StreamingSimulation::default()
                .run(&cll, &instance)
                .expect("CLL stream"),
            StreamingSimulation::default()
                .run(&avr, &instance)
                .expect("AVR stream"),
            StreamingSimulation::default()
                .run(&bkp, &instance)
                .expect("BKP stream"),
        ];
        for stream in runs {
            let (p50, p95, p99) = (
                stream.latency_percentile_secs(50.0),
                stream.latency_percentile_secs(95.0),
                stream.latency_percentile_secs(99.0),
            );
            percentiles_ordered &= p50 <= p95 + 1e-12 && p95 <= p99 + 1e-12;
            let total = stream.total_arrival_secs();
            latency.push_row(vec![
                stream.algorithm.clone(),
                n.to_string(),
                format!("{}/{n}", stream.accepted()),
                fmt_f64(p50 * 1e6),
                fmt_f64(p95 * 1e6),
                fmt_f64(p99 * 1e6),
                fmt_f64(stream.max_latency_secs() * 1e6),
                fmt_f64(total * 1e3),
                fmt_f64(n as f64 / total.max(1e-12)),
                fmt_f64(stream.total_cost()),
            ]);
        }
    }

    // Warm-started vs rebuild-per-arrival total arrival-processing time, at
    // sizes the (quadratic-per-arrival or worse) rebuild paths can still
    // handle.  OA(m)'s quick size is kept large enough for its pending
    // sets to reach their steady-state size.
    let (oa_n, moa_n) = if quick { (120, 150) } else { (1500, 400) };
    let mut speedup = Table::new(
        "Warm-started vs rebuild-per-arrival arrival processing",
        &[
            "algorithm",
            "n",
            "warm total (ms)",
            "from-scratch total (ms)",
            "speedup",
        ],
    );
    let mut all_speedups = Vec::new();
    let mut speedup_row = |table: &mut Table, label: &str, n: usize, warm: f64, cold: f64| {
        all_speedups.push(cold / warm.max(1e-12));
        table.push_row(vec![
            label.into(),
            n.to_string(),
            fmt_f64(warm * 1e3),
            fmt_f64(cold * 1e3),
            fmt_f64(cold / warm.max(1e-12)),
        ]);
    };

    let oa_inst = stream_instance(oa_n, 9300);
    let env = OnlineEnv {
        machines: 1,
        alpha: oa_inst.alpha,
    };
    let planner = pss_core::baselines::oa::OaPlanner { speed_factor: 1.0 };
    let mut warm_run = ReplanState::new(planner, AdmitAll, env);
    let warm = drive_arrivals(&mut warm_run, &oa_inst);
    let mut cold_run = ReplanState::new(planner, AdmitAll, env).with_warm_start(false);
    let cold = drive_arrivals(&mut cold_run, &oa_inst);
    speedup_row(&mut speedup, "OA", oa_n, warm, cold);

    // OA(m): the exact left-aligned replan against coordinate descent from
    // zeros, on one machine and on two.
    let moa_inst = stream_instance(moa_n, 9700);
    let moa2_inst = stream_instance_on(2, moa_n, 9800);
    let moa_planner = MultiOaPlanner {
        options: Default::default(),
    };
    let mut certificates = Table::new(
        "OA(m) exact replans: KKT certificate and gap to the converged descent",
        &[
            "machines",
            "n",
            "replans",
            "sampled",
            "worst energy gap",
            "worst KKT violation",
        ],
    );
    let mut certified = true;
    for (label, instance) in [("OA(m)", &moa_inst), ("OA(m) m=2", &moa2_inst)] {
        let env = OnlineEnv {
            machines: instance.machines,
            alpha: instance.alpha,
        };
        let mut warm_run = ReplanState::new(moa_planner, AdmitAll, env);
        let warm = drive_arrivals(&mut warm_run, instance);
        let mut cold_run = ReplanState::new(moa_planner, AdmitAll, env).with_warm_start(false);
        let cold = drive_arrivals(&mut cold_run, instance);
        speedup_row(&mut speedup, label, moa_n, warm, cold);
        let c = certify_replans(instance, 10);
        certified &= c.worst_gap <= 1e-9 && c.worst_kkt <= 1e-9;
        certificates.push_row(vec![
            instance.machines.to_string(),
            moa_n.to_string(),
            c.replans.to_string(),
            c.sampled.to_string(),
            format!("{:.2e}", c.worst_gap),
            format!("{:.2e}", c.worst_kkt),
        ]);
    }

    let min_speedup = all_speedups.iter().copied().fold(f64::INFINITY, f64::min);
    ExperimentOutput {
        id: "E12".into(),
        title: "Streaming arrival latency (percentiles vs n, warm-start speedup)".into(),
        tables: vec![latency, speedup, certificates],
        notes: vec![
            format!(
                "latency percentiles are ordered p50 <= p95 <= p99 in every row: {}",
                check(percentiles_ordered)
            ),
            format!(
                "warm-started arrival processing is faster than \
                 rebuild-per-arrival (min speedup {}x across OA and OA(m) \
                 at m = 1 and m = 2)",
                fmt_f64(min_speedup)
            ),
            format!(
                "every OA(m) replan carries the KKT certificate (violation \
                 <= 1e-9), and every sampled replan's energy is within 1e-9 \
                 of the converged descent's (m = 1 and m = 2): {}",
                check(certified)
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_quick_produces_ordered_percentiles() {
        let out = run(true);
        assert_eq!(out.tables.len(), 3);
        // 7 algorithms x 2 sizes latency rows, 3 speedup rows (OA, and
        // OA(m) at m = 1 and m = 2), 2 convergence rows.
        assert_eq!(out.tables[0].rows.len(), 14);
        assert_eq!(out.tables[1].rows.len(), 3);
        assert_eq!(out.tables[2].rows.len(), 2);
        assert!(out.notes[0].contains("yes"), "{:?}", out.notes);
    }
}
