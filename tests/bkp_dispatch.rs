//! BKP's EDF dispatch where the differential pins do not reach it: jobs fed
//! within the arrival-order tolerance *before* their release.
//!
//! `BkpState` keeps its live jobs in the speed index's deadline list and
//! dispatches the first entry that is released, unfinished and before its
//! deadline.  A job fed up to `ARRIVAL_ORDER_TOLERANCE` early sits in the
//! list before it may run, so the pick must skip it until its release, as
//! the batch loop does by never seeing it.  These tests feed every burst
//! 5e-10 before its last release, both as one-job bursts and as bursts
//! coalesced over 1e-3, and require the energy and each job's processed work
//! to match `BkpScheduler::batch_schedule` at the BKP pins' 1e-6, and no job
//! to run before its release.

mod common;

use common::{edge_instance, poisson_profitable};
use pss_core::prelude::*;
use pss_core::types::ARRIVAL_ORDER_TOLERANCE;
use pss_sim::coalesce_arrivals;

/// How far before its release each burst is fed: inside the tolerance.
const EARLY: f64 = 5e-10;
const _: () = assert!(EARLY < ARRIVAL_ORDER_TOLERANCE);

/// The coalescing window of the benchmark's scenario streams.
const WINDOW: f64 = 1e-3;

/// Streams `instance` through a fresh BKP run, each burst fed `EARLY`
/// before its last release, and finishes the run.
fn feed_early(algo: &BkpScheduler, instance: &Instance, window: f64) -> Schedule {
    let mut run = algo.start_for(instance).expect("BKP run");
    for (feed_time, ids) in coalesce_arrivals(instance, window) {
        let jobs: Vec<Job> = ids.iter().map(|&id| *instance.job(id)).collect();
        run.on_arrivals(&jobs, feed_time - EARLY)
            .expect("a burst fed within the tolerance");
    }
    run.finish().expect("finish")
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * b.abs().max(1.0)
}

/// A grid step (0.01 wide at resolution 400) starts at t = 1 while the
/// earliest-deadline job, released 2.5e-10 later, is already fed but not
/// released: the step's pick must skip it and run the other job.
fn release_just_past_a_grid_point() -> Instance {
    Instance::from_tuples(
        1,
        3.0,
        vec![(0.0, 4.0, 2.0, 10.0), (1.0 + 2.5e-10, 1.5, 0.3, 10.0)],
    )
    .expect("instance")
}

#[test]
fn jobs_fed_within_the_tolerance_before_release_match_the_batch_reference() {
    let workloads = (0..4u64)
        .map(|seed| {
            (
                format!("poisson seed {seed}"),
                500,
                poisson_profitable(24_000 + seed, 1, 3.0, 60, 4.0),
            )
        })
        .chain([
            ("edge".to_string(), 500, edge_instance(1, 3.0)),
            (
                "grid point".to_string(),
                400,
                release_just_past_a_grid_point(),
            ),
        ]);
    for (name, resolution, instance) in workloads {
        let algo = BkpScheduler { resolution };
        let reference = algo.batch_schedule(&instance).expect("batch BKP");
        let energy = reference.energy(instance.alpha);
        let work = reference.work_per_job(instance.len());
        for window in [0.0, WINDOW] {
            let early = feed_early(&algo, &instance, window);
            let label = format!("{name}, window {window:e}");
            assert!(
                close(early.energy(instance.alpha), energy),
                "{label}: energy {} vs batch {energy}",
                early.energy(instance.alpha)
            );
            for (id, (got, want)) in early
                .work_per_job(instance.len())
                .iter()
                .zip(&work)
                .enumerate()
            {
                assert!(
                    close(*got, *want),
                    "{label}: job {id} ran {got} vs batch {want}"
                );
            }
            for segment in &early.segments {
                let job = instance.job(segment.job.expect("BKP pushes work segments only"));
                assert!(
                    segment.start >= job.release - 1e-12,
                    "{label}: job {} ran from {} before its release {}",
                    job.id,
                    segment.start,
                    job.release
                );
            }
        }
    }
}
