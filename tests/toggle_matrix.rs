//! Toggle-matrix differential test: every fast-path toggle combination of
//! every algorithm, against the batch reference.
//!
//! There are two switches: the replanning executor's warm start
//! (`with_warm_start`, whose off-arm is the from-scratch `Planner::plan`
//! the batch references run) and the streaming coalescing window
//! (`w ∈ {0, w > 0}`).  PD, AVR and BKP keep no toggle: each has one
//! arrival path, pinned to its batch reference in both coalescing modes.
//! This suite sweeps the full *matrix* — every combination of each
//! algorithm's toggles crossed with the coalescing mode — on random and
//! adversarial workloads (equal-release bursts, tied deadlines, near-zero
//! works, the Bansal–Kimbrel–Pruhs staircase), pinning every path to the
//! independently coded batch reference.
//!
//! The daemon's checkpoint path gets the same treatment: a mid-stream
//! hand-off, which ships a `(log tail, blob)` pair to a fresh worker, is
//! pinned bit-identical to the unbroken run.

mod common;

use common::{bursty_profitable, edge_instance, profitable_n};
use pss_core::baselines::cll::CllAdmission;
use pss_core::baselines::oa::{MultiOaPlanner, OaPlanner};
use pss_core::baselines::replan::{AdmissionPolicy, AdmitAll, OnlineEnv, Planner, ReplanState};
use pss_core::prelude::*;
use pss_sim::coalesce_arrivals;
use pss_workloads::staircase_instance;

/// The coalescing window of the `w > 0` matrix column.  It only groups
/// bit-equal (well, sub-picosecond) release ties, so the coalesced feed
/// times equal the per-event ones and the batch reference stays the ground
/// truth for *both* columns; the bursty workloads have exact ties, which is
/// where the grouped `on_arrivals` path actually engages.
const WINDOW: f64 = 1e-12;

/// Drives a run over the instance's arrival stream — per-event when
/// `window == 0`, coalesced `on_arrivals` batches otherwise — and returns
/// the finished schedule.
fn drive<R: OnlineScheduler>(mut run: R, instance: &Instance, window: f64) -> Schedule {
    for (feed_time, ids) in coalesce_arrivals(instance, window) {
        let jobs: Vec<Job> = ids.iter().map(|&id| *instance.job(id)).collect();
        if window > 0.0 {
            run.on_arrivals(&jobs, feed_time).expect("burst arrival");
        } else {
            for job in &jobs {
                run.on_arrival(job, feed_time).expect("arrival");
            }
        }
    }
    run.finish().expect("finish")
}

/// Compares a toggled run's schedule against the batch reference: same
/// finished set, same cost, same sampled speed profiles.
fn assert_matches_reference(
    instance: &Instance,
    reference: &Schedule,
    toggled: &Schedule,
    label: &str,
    tol: f64,
) {
    let rc = reference.cost(instance);
    let tc = toggled.cost(instance);
    assert!(
        (rc.total() - tc.total()).abs() <= tol * rc.total().max(1.0),
        "{label}: cost differs — reference {} vs toggled {}",
        rc.total(),
        tc.total()
    );
    assert_eq!(
        reference.unfinished_jobs(instance),
        toggled.unfinished_jobs(instance),
        "{label}: finished sets differ"
    );
    let (lo, hi) = instance.horizon();
    if hi > lo {
        let samples = 120;
        let step = (hi - lo) / samples as f64;
        for i in 0..samples {
            let t = lo + (i as f64 + 0.5) * step;
            let r = reference.total_speed_at(t);
            let g = toggled.total_speed_at(t);
            assert!(
                (r - g).abs() <= tol * r.max(1.0),
                "{label}: speed profile differs at t={t}: reference {r} vs toggled {g}"
            );
        }
    }
}

/// The single-machine workload battery: random near-boundary instances,
/// equal-release bursts, the tied-deadline/near-zero-work edge case, and
/// the BKP staircase lower-bound construction.
fn single_machine_workloads(alpha: f64) -> Vec<(String, Instance)> {
    let mut out = vec![
        ("random-a".into(), profitable_n(9100, 1, alpha, 12)),
        ("random-b".into(), profitable_n(9200, 1, alpha, 12)),
        (
            "equal-release bursts".into(),
            bursty_profitable(9300, 1, alpha, 12, 3),
        ),
        ("tied-deadline edge".into(), edge_instance(1, alpha)),
    ];
    out.push(("staircase".into(), staircase_instance(10, alpha, 1e6)));
    out
}

/// Sweeps the replanning executor's matrix — `with_warm_start` × coalescing
/// — for one planner/admission pair against its batch reference.
fn sweep_replan_matrix<P, A>(
    planner: P,
    admission: A,
    batch_reference: impl Fn(&Instance) -> Schedule,
    workloads: &[(String, Instance)],
    label: &str,
    tol: f64,
) where
    P: Planner + Clone,
    A: AdmissionPolicy + Clone,
{
    for (name, instance) in workloads {
        let reference = batch_reference(instance);
        let env = OnlineEnv {
            machines: instance.machines,
            alpha: instance.alpha,
        };
        for warm in [true, false] {
            for window in [0.0, WINDOW] {
                let run =
                    ReplanState::new(planner.clone(), admission.clone(), env).with_warm_start(warm);
                let schedule = drive(run, instance, window);
                assert_matches_reference(
                    instance,
                    &reference,
                    &schedule,
                    &format!("{label} [{name}] warm={warm} w={window:e}"),
                    tol,
                );
            }
        }
    }
}

#[test]
fn oa_family_toggle_matrix_pins_to_the_batch_reference() {
    let workloads = single_machine_workloads(2.5);
    sweep_replan_matrix(
        OaPlanner { speed_factor: 1.0 },
        AdmitAll,
        |inst| OaScheduler.batch_schedule(inst).expect("batch OA"),
        &workloads,
        "OA",
        1e-9,
    );
    let q = 2.0 - 1.0 / 2.5;
    sweep_replan_matrix(
        OaPlanner::with_factor(q),
        AdmitAll,
        |inst| {
            QoaScheduler { q: Some(q) }
                .batch_schedule(inst)
                .expect("batch qOA")
        },
        &workloads,
        "qOA",
        1e-9,
    );
    sweep_replan_matrix(
        OaPlanner { speed_factor: 1.0 },
        CllAdmission,
        |inst| CllScheduler.batch_schedule(inst).expect("batch CLL"),
        &workloads,
        "CLL",
        1e-9,
    );
}

#[test]
fn multi_oa_toggle_matrix_pins_to_the_batch_reference() {
    // Two machines: the coordinate-descent planner, at solver accuracy.
    let workloads = vec![
        ("random".to_string(), profitable_n(9400, 2, 2.5, 10)),
        (
            "equal-release bursts".to_string(),
            bursty_profitable(9500, 2, 2.5, 12, 3),
        ),
        ("tied-deadline edge".to_string(), edge_instance(2, 2.5)),
    ];
    sweep_replan_matrix(
        MultiOaPlanner {
            options: Default::default(),
        },
        AdmitAll,
        |inst| {
            MultiOaScheduler::default()
                .batch_schedule(inst)
                .expect("batch OA(m)")
        },
        &workloads,
        "OA(m)",
        1e-4,
    );
}

#[test]
fn pd_toggle_matrix_pins_to_the_batch_reference() {
    // PD has no fast-path toggle of its own; its persistent sparse context
    // is pinned to the batch reference in both coalescing modes.
    for (name, instance) in single_machine_workloads(2.0)
        .into_iter()
        .chain(std::iter::once((
            "random multi".to_string(),
            profitable_n(9600, 2, 2.5, 12),
        )))
    {
        let scheduler = PdScheduler::default();
        let reference = scheduler.run(&instance).expect("batch PD").schedule;
        for window in [0.0, WINDOW] {
            let run = scheduler.start_for(&instance).expect("PD run");
            let schedule = drive(run, &instance, window);
            assert_matches_reference(
                &instance,
                &reference,
                &schedule,
                &format!("PD [{name}] w={window:e}"),
                1e-4,
            );
        }
    }
}

#[test]
fn avr_toggle_matrix_pins_to_the_batch_reference() {
    for (name, instance) in single_machine_workloads(2.0) {
        let reference = AvrScheduler.batch_schedule(&instance).expect("batch AVR");
        for window in [0.0, WINDOW] {
            let run = AvrScheduler.start_for(&instance).expect("AVR run");
            let schedule = drive(run, &instance, window);
            assert_matches_reference(
                &instance,
                &reference,
                &schedule,
                &format!("AVR [{name}] w={window:e}"),
                1e-9,
            );
        }
    }
}

#[test]
fn daemon_handoff_is_bit_identical_to_the_unbroken_run() {
    // A mid-stream hand-off checkpoints at a quiescent boundary, ships the
    // `(log tail, blob)` pair and restores on a fresh worker: the fed jobs,
    // decision events, price trace and final schedule must be bit-identical
    // to a run that was never handed off.
    use pss_serve::{deterministic_fields_equal, Daemon, ServeConfig, Submission, TenantSpec};
    use pss_workloads::arrival_envelopes;

    let instance = profitable_n(9700, 1, 2.0, 20);
    let envelopes = arrival_envelopes(&instance);
    let half = envelopes.len() / 2;

    let run = |handoff: bool| {
        let config = ServeConfig {
            machines: instance.machines,
            alpha: instance.alpha,
            checkpoint_every: 1,
            checkpoint_chain: 3,
            coalesce_window: 0.0,
            ..ServeConfig::default()
        };
        // Rejecting (not deferring) on price makes a priced-out submission
        // a terminal, deterministic outcome instead of a retry loop.
        let tenant = TenantSpec::new("t").rejecting_on_price();
        let (mut daemon, handles) =
            Daemon::spawn(CllScheduler, config, vec![tenant]).expect("spawn daemon");
        let mut fed = 0usize;
        for (k, envelope) in envelopes.iter().enumerate() {
            if handoff && k == half {
                daemon.handoff_shard(0).expect("hand-off");
            }
            match handles[0].submit(*envelope).expect("submission admitted") {
                Submission::Queued { .. } => fed += 1,
                Submission::RejectedByPrice { .. } => continue,
            }
            // Serialise the feeds: wait until the worker has ingested this
            // envelope before submitting the next, so every admission gate
            // sees a price that is a pure function of the prefix and both
            // runs batch identically.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while daemon.shard_event_count(0) < fed {
                assert!(
                    std::time::Instant::now() < deadline,
                    "worker stalled ingesting envelope {k}"
                );
                std::thread::yield_now();
            }
        }
        daemon.shutdown().expect("clean drain")
    };

    assert!(
        deterministic_fields_equal(&run(true), &run(false)),
        "hand-off with (log tail, blob) shipping was not invisible"
    );
}

#[test]
fn bkp_toggle_matrix_pins_to_the_batch_reference() {
    let algo = BkpScheduler { resolution: 500 };
    for (name, instance) in single_machine_workloads(3.0) {
        let reference = algo.batch_schedule(&instance).expect("batch BKP");
        for window in [0.0, WINDOW] {
            let run = algo.start_for(&instance).expect("BKP run");
            let schedule = drive(run, &instance, window);
            assert_matches_reference(
                &instance,
                &reference,
                &schedule,
                &format!("BKP [{name}] w={window:e}"),
                1e-6,
            );
        }
    }
}
