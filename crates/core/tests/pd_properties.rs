//! Randomised property tests of the PD algorithm itself: feasibility, the
//! certified Theorem 3 inequality, monotonicity in the job values,
//! consistency between the batch and online variants, and the online
//! variant's history-free checkpoint.
//!
//! Cases are drawn from the workspace's seeded [`SmallRng`] (no crates.io
//! access, so `proptest` is unavailable); equal seeds make every failure
//! reproducible.

use pss_core::prelude::*;
use pss_types::{Instance, LogCheckpointable, SegmentLog, SnapshotError};
use pss_workloads::{RandomConfig, SmallRng};

const ALPHAS: [f64; 3] = [1.5, 2.0, 3.0];

fn random_instance(rng: &mut SmallRng, max_jobs: usize, max_machines: usize) -> Instance {
    let n = rng.usize_range(1, max_jobs);
    let machines = rng.usize_range(1, max_machines);
    let alpha = ALPHAS[rng.usize_range(0, ALPHAS.len() - 1)];
    let jobs: Vec<(f64, f64, f64, f64)> = (0..n)
        .map(|_| {
            let r = rng.f64_range(0.0, 6.0);
            let window = rng.f64_range(0.3, 4.0);
            let w = rng.f64_range(0.1, 2.5);
            let v = rng.f64_range(0.0, 6.0);
            (r, r + window, w, v)
        })
        .collect();
    Instance::from_tuples(machines, alpha, jobs).expect("valid random instance")
}

/// Every PD schedule is feasible, finishes exactly the accepted jobs,
/// and satisfies the certified Theorem 3 inequality.
#[test]
fn pd_is_feasible_and_certified() {
    let mut rng = SmallRng::seed_from_u64(0xBD + 1);
    for _ in 0..40 {
        let inst = random_instance(&mut rng, 7, 4);
        let run = PdScheduler::default().run(&inst).expect("PD run");
        let report = validate_schedule(&inst, &run.schedule).expect("feasible");
        for (j, accepted) in run.accepted.iter().enumerate() {
            assert_eq!(*accepted, report.finished[j], "job {j} mismatch");
        }
        let analysis = analyze_run(&run);
        assert!(
            analysis.guarantee_holds(),
            "cost {} vs bound {} * dual {}",
            analysis.cost.total(),
            analysis.competitive_bound,
            analysis.dual.value
        );
        // The dual bound is also sane: nonnegative and at most the total value.
        assert!(analysis.dual.value >= -1e-9);
        assert!(analysis.dual.value <= inst.total_value() + 1e-6);
    }
}

/// Raising every job's value to something enormous makes PD accept
/// everything (the mandatory-completion regime of Section 3).
#[test]
fn pd_accepts_everything_when_values_are_huge() {
    let mut rng = SmallRng::seed_from_u64(0xBD + 2);
    for _ in 0..40 {
        let inst = random_instance(&mut rng, 6, 3);
        let boosted = Instance::from_jobs(
            inst.machines,
            inst.alpha,
            inst.jobs
                .iter()
                .map(|j| {
                    let mut j = *j;
                    j.value = 1e12;
                    j
                })
                .collect(),
        )
        .expect("boosted instance");
        let run = PdScheduler::default().run(&boosted).expect("PD run");
        assert!(run.accepted.iter().all(|a| *a));
    }
}

/// Setting every job's value to zero makes PD reject everything and pay
/// exactly zero cost.
#[test]
fn pd_rejects_everything_when_values_are_zero() {
    let mut rng = SmallRng::seed_from_u64(0xBD + 3);
    for _ in 0..40 {
        let inst = random_instance(&mut rng, 6, 3);
        let zeroed = Instance::from_jobs(
            inst.machines,
            inst.alpha,
            inst.jobs
                .iter()
                .map(|j| {
                    let mut j = *j;
                    j.value = 0.0;
                    j
                })
                .collect(),
        )
        .expect("zeroed instance");
        let run = PdScheduler::default().run(&zeroed).expect("PD run");
        assert!(run.accepted.iter().all(|a| !a));
        assert!(run.cost().total() < 1e-9);
    }
}

/// The event-driven OnlinePd agrees with the batch scheduler on both
/// decisions and (up to numeric tolerance) cost.
#[test]
fn online_pd_matches_batch() {
    let mut rng = SmallRng::seed_from_u64(0xBD + 4);
    for _ in 0..40 {
        let inst = random_instance(&mut rng, 6, 3);
        let batch = PdScheduler::default().run(&inst).expect("batch");
        let mut online = OnlinePd::new(inst.machines, inst.alpha);
        for id in inst.arrival_order() {
            let job = inst.job(id);
            let decision = online.on_arrival(job, job.release).expect("arrive");
            assert_eq!(decision.accepted, batch.accepted[id.index()]);
        }
        let oc = online.finish().expect("schedule").cost(&inst).total();
        let bc = batch.schedule.cost(&inst).total();
        assert!(
            (oc - bc).abs() <= 1e-4 * bc.max(1.0),
            "online {oc} vs batch {bc}"
        );
    }
}

/// PD's cost never exceeds alpha^alpha times the cost of either trivial
/// strategy (reject everything; finish everything optimally), both of
/// which upper-bound the optimum.
#[test]
fn pd_within_bound_of_trivial_strategies() {
    let mut rng = SmallRng::seed_from_u64(0xBD + 5);
    for _ in 0..40 {
        let inst = random_instance(&mut rng, 6, 2);
        let run = PdScheduler::default().run(&inst).expect("PD run");
        let bound = AlphaPower::new(inst.alpha).competitive_ratio_pd();
        let reject_all = inst.total_value();
        let finish_all = MinEnergyScheduler::default()
            .schedule(&inst)
            .expect("finish all")
            .cost(&inst)
            .total();
        let best_trivial = reject_all.min(finish_all);
        assert!(
            run.cost().total() <= bound * best_trivial + 1e-5 * best_trivial.max(1.0),
            "PD {} vs {bound} * trivial {best_trivial}",
            run.cost().total()
        );
    }
}

/// Streams `RandomConfig::standard(77)` at `n` jobs (horizon `n / 2`)
/// through PD, then one sentinel job released 1 after the last deadline,
/// and returns the size of the live blob captured after it.
fn live_blob_bytes_after_sentinel(n: usize) -> usize {
    let inst = RandomConfig {
        n_jobs: n,
        horizon: n as f64 / 2.0,
        ..RandomConfig::standard(77)
    }
    .generate();
    let mut run = PdScheduler::default().start_for(&inst).expect("PD run");
    for id in inst.arrival_order() {
        let job = inst.job(id);
        run.on_arrival(job, job.release).expect("arrival");
    }
    let release = inst.horizon().1 + 1.0;
    let sentinel = Job::new(n, release, release + 1.0, 0.1, 1e6);
    let decision = run.on_arrival(&sentinel, release).expect("sentinel");
    assert!(decision.accepted, "the sentinel is accepted");
    let mut log = SegmentLog::new(inst.machines);
    run.snapshot_live(&mut log)
        .expect("live snapshot")
        .to_bytes()
        .len()
}

/// PD's live blob holds no history: once every earlier job's window has
/// elapsed, a run over 5,000 jobs checkpoints to as many bytes as a run
/// over 100.
#[test]
fn live_blob_size_does_not_grow_with_the_history() {
    let small = live_blob_bytes_after_sentinel(100);
    let large = live_blob_bytes_after_sentinel(5_000);
    assert_eq!(small, large, "live PD blob grew with the history");
}

/// Blobs of the job-history format (state version 2) are refused with a
/// typed error.
#[test]
fn version_2_pd_blobs_are_rejected() {
    let mut run = OnlinePd::new(1, 2.0);
    run.on_arrival(&Job::new(0, 0.0, 1.0, 1.0, 5.0), 0.0)
        .expect("arrival");
    let mut log = SegmentLog::new(1);
    let current = run.snapshot_live(&mut log).expect("live snapshot");
    assert!(OnlinePd::restore_with_log(&current, &log).is_ok());
    let old = StateBlob::new("pd", 2, current.payload().to_vec());
    assert!(matches!(
        OnlinePd::restore_with_log(&old, &log),
        Err(SnapshotError::UnsupportedVersion(2))
    ));
}
