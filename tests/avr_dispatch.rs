//! AVR's EDF dispatch: the time-sharing speed profile, run as at most three
//! segments per job.
//!
//! AVR's speed at any time is the sum of the densities of the available
//! jobs.  `AvrState` and `AvrScheduler::batch_schedule` run that profile in
//! EDF order over per-job work budgets, so a segment ends only at a feed
//! time, a deadline or a completion.  These tests pin what that buys:
//!
//! * a stream of `n` jobs has at most `3n` segments (time-sharing's
//!   staircase scenario had `n(n+1)/2`);
//! * a job fed at its own release runs its whole work.  Time-sharing's
//!   slices were often shorter than `Schedule::push`'s absolute 1e-9 s cut,
//!   and the dropped ones left such jobs unfinished and charged their
//!   value;
//! * a job fed late still runs exactly what time-sharing gives it over the
//!   rest of its window, `density × delay` short of its work.

mod common;

use common::{bursty_poisson_profitable, bursty_profitable, poisson_profitable, profitable_n};
use pss_core::prelude::*;
use pss_sim::{coalesce_arrivals, StreamingSimulation};
use pss_workloads::ScenarioConfig;

/// The coalescing window of the benchmark's scenario streams.
const WINDOW: f64 = 1e-3;

/// One E16 scenario on one machine at α = 2.5.
fn scenario(name: &str, n: usize, seed: u64) -> Instance {
    ScenarioConfig::all(n, 1, 2.5, seed)
        .into_iter()
        .find(|cfg| cfg.name() == name)
        .expect("a known scenario")
        .generate()
}

#[test]
fn avr_finishes_every_job_fed_at_its_release() {
    // Streams where time-sharing left 86, 24 and 18 such jobs unfinished.
    for (name, seed) in [("heavy-tailed", 10), ("flash-crowd", 3), ("overload", 6)] {
        let instance = scenario(name, 500, seed);
        let stream = StreamingSimulation::with_coalescing(WINDOW)
            .run(&AvrScheduler, &instance)
            .expect("AVR stream");
        let on_time: Vec<JobId> = coalesce_arrivals(&instance, WINDOW)
            .into_iter()
            .flat_map(|(feed_time, ids)| {
                ids.into_iter()
                    .filter(|&id| instance.job(id).release == feed_time)
                    .collect::<Vec<_>>()
            })
            .collect();
        assert!(on_time.len() > instance.len() / 2, "{name} seed {seed}");
        let unfinished: Vec<JobId> = on_time
            .iter()
            .copied()
            .filter(|&id| !stream.report.jobs[id.index()].finished)
            .collect();
        assert!(
            unfinished.is_empty(),
            "{name} seed {seed}: {} of {} jobs fed at their release are unfinished: {unfinished:?}",
            unfinished.len(),
            on_time.len()
        );
    }
}

#[test]
fn avr_runs_at_most_three_segments_per_job() {
    let check = |label: &str, instance: &Instance| {
        let bound = 3 * instance.len();
        for window in [0.0, WINDOW] {
            let stream = StreamingSimulation::with_coalescing(window)
                .run(&AvrScheduler, instance)
                .expect("AVR stream");
            assert!(
                stream.schedule.segments.len() <= bound,
                "{label} w={window:e}: {} segments for {} jobs",
                stream.schedule.segments.len(),
                instance.len()
            );
        }
        let batch = AvrScheduler.batch_schedule(instance).expect("batch AVR");
        assert!(
            batch.segments.len() <= bound,
            "{label} batch: {} segments for {} jobs",
            batch.segments.len(),
            instance.len()
        );
    };
    for seed in 0..4u64 {
        check("random", &profitable_n(8100 + seed, 1, 2.0, 120));
        check("bursty", &bursty_profitable(8200 + seed, 1, 2.5, 120, 6));
        check(
            "poisson",
            &poisson_profitable(8300 + seed, 1, 3.0, 120, 4.0),
        );
        check(
            "bursty poisson",
            &bursty_poisson_profitable(8400 + seed, 1, 2.0, 120, 4, 2.0, 1e-4),
        );
    }
    for seed in [1, 7] {
        for cfg in ScenarioConfig::all(500, 1, 2.5, seed) {
            check(&format!("{} seed {seed}", cfg.name()), &cfg.generate());
        }
    }
}

#[test]
fn a_job_fed_late_runs_what_time_sharing_gives_it() {
    // Density 0.5 over [0, 4), fed at 1: time-sharing runs 0.5 × 3 = 1.5 of
    // its work 2, and so does EDF over its budget.
    let instance = Instance::from_tuples(1, 2.0, vec![(0.0, 4.0, 2.0, 1.0)]).unwrap();
    let mut run = AvrScheduler.start_for(&instance).unwrap();
    run.on_arrival(instance.job(JobId(0)), 1.0).unwrap();
    let schedule = run.finish().unwrap();
    let work = schedule.work_per_job(1)[0];
    assert!((work - 1.5).abs() < 1e-12, "work {work}");
    assert!((schedule.total_speed_at(2.0) - 0.5).abs() < 1e-12);
    assert_eq!(schedule.unfinished_jobs(&instance), vec![JobId(0)]);
}
