//! Batch-vs-incremental equivalence property test.
//!
//! Every online algorithm in the workspace exists in two forms: the
//! independently coded *batch* reference (`PdScheduler::run`, the
//! `batch_schedule` methods of the baselines — all retained from before the
//! event-driven redesign) and the *incremental* event-driven run driven by
//! the blanket `Scheduler` adapter.  This test asserts that on random
//! workloads both paths produce identical schedules: same accept/reject
//! outcome per job, same cost, and the same machine speed profiles.
//!
//! Segment lists are *not* compared verbatim — time-sharing within an
//! interval may order jobs differently — because the schedule semantics
//! live in the speed profiles and per-job work, which are compared.

mod common;

use common::{bursty_profitable, edge_instance, poisson_profitable, profitable};
use pss_core::baselines::cll::CllAdmission;
use pss_core::baselines::oa::{MultiOaPlanner, OaPlanner};
use pss_core::baselines::replan::{AdmissionPolicy, AdmitAll, OnlineEnv, Planner, ReplanState};
use pss_core::prelude::*;
use pss_core::types::SnapshotError;

/// Compares two schedules of the same instance as schedules-proper: cost,
/// finished set, and sampled total speed profiles.
fn assert_equivalent(
    instance: &Instance,
    batch: &Schedule,
    incremental: &Schedule,
    label: &str,
    tol: f64,
) {
    let bc = batch.cost(instance);
    let ic = incremental.cost(instance);
    assert!(
        (bc.total() - ic.total()).abs() <= tol * bc.total().max(1.0),
        "{label}: cost differs — batch {} vs incremental {}",
        bc.total(),
        ic.total()
    );
    assert_eq!(
        batch.unfinished_jobs(instance),
        incremental.unfinished_jobs(instance),
        "{label}: finished sets differ"
    );
    let (lo, hi) = instance.horizon();
    if hi > lo {
        let samples = 160;
        let step = (hi - lo) / samples as f64;
        for i in 0..samples {
            let t = lo + (i as f64 + 0.5) * step;
            let b = batch.total_speed_at(t);
            let a = incremental.total_speed_at(t);
            assert!(
                (b - a).abs() <= tol * b.max(1.0),
                "{label}: speed profile differs at t={t}: batch {b} vs incremental {a}"
            );
        }
    }
}

#[test]
fn pd_incremental_equals_batch_on_random_workloads() {
    for seed in 0..6u64 {
        let machines = 1 + (seed % 3) as usize;
        let alpha = 1.5 + 0.5 * (seed % 3) as f64;
        let instance = profitable(4200 + seed, machines, alpha);
        let batch = PdScheduler::default().run(&instance).expect("batch PD");
        let incremental = PdScheduler::default()
            .schedule(&instance)
            .expect("incremental PD");
        // PD's two paths run on different partitions (whole-instance vs
        // refined-on-arrival), so equality is numeric, not bitwise.
        assert_equivalent(&instance, &batch.schedule, &incremental, "PD", 1e-4);
        // Decisions must agree exactly.
        let finished = incremental.finished(&instance);
        for (j, accepted) in batch.accepted.iter().enumerate() {
            assert_eq!(*accepted, finished[j], "PD decision differs for job {j}");
        }
    }
}

#[test]
fn oa_incremental_equals_batch_on_random_workloads() {
    for seed in 0..6u64 {
        let instance = profitable(4300 + seed, 1, 2.0 + 0.5 * (seed % 3) as f64);
        let batch = OaScheduler.batch_schedule(&instance).expect("batch OA");
        let incremental = OaScheduler.schedule(&instance).expect("incremental OA");
        assert_equivalent(&instance, &batch, &incremental, "OA", 1e-9);
    }
}

#[test]
fn qoa_incremental_equals_batch_on_random_workloads() {
    for seed in 0..6u64 {
        let instance = profitable(4400 + seed, 1, 2.5);
        let algo = QoaScheduler::default();
        let batch = algo.batch_schedule(&instance).expect("batch qOA");
        let incremental = algo.schedule(&instance).expect("incremental qOA");
        assert_equivalent(&instance, &batch, &incremental, "qOA", 1e-9);
    }
}

#[test]
fn multi_oa_incremental_equals_batch_on_random_workloads() {
    for seed in 0..4u64 {
        let instance = profitable(4500 + seed, 1 + (seed % 3) as usize, 2.5);
        let algo = MultiOaScheduler::default();
        let batch = algo.batch_schedule(&instance).expect("batch OA(m)");
        // The default incremental run solves each replan exactly, and the
        // batch loop's coordinate descent reaches the same optimum only up
        // to its energy tolerance — so the comparison is at solver
        // accuracy, not bitwise.
        let incremental = algo.schedule(&instance).expect("incremental OA(m)");
        assert_equivalent(&instance, &batch, &incremental, "OA(m) warm", 1e-4);
        // The cold incremental run performs the identical sequence of
        // from-scratch solves as the batch loop: exact agreement.
        let env = OnlineEnv {
            machines: instance.machines,
            alpha: instance.alpha,
        };
        let planner = MultiOaPlanner {
            options: Default::default(),
        };
        let mut cold = ReplanState::new(planner, AdmitAll, env).with_warm_start(false);
        for id in instance.arrival_order() {
            let job = instance.job(id);
            cold.on_arrival(job, job.release).expect("cold arrival");
        }
        let cold_schedule = cold.finish().expect("cold finish");
        assert_equivalent(&instance, &batch, &cold_schedule, "OA(m) cold", 1e-9);
    }
}

#[test]
fn avr_incremental_equals_batch_on_random_workloads() {
    let workloads = (0..6u64)
        .flat_map(|seed| {
            [
                profitable(4600 + seed, 1, 2.0),
                profitable(5800 + seed, 1, 2.0),
            ]
        })
        .chain((0..3u64).map(|seed| bursty_profitable(5900 + seed, 1, 2.0, 12, 3)))
        .chain([edge_instance(1, 2.0)]);
    for (k, instance) in workloads.enumerate() {
        let batch = AvrScheduler.batch_schedule(&instance).expect("batch AVR");
        let incremental = AvrScheduler.schedule(&instance).expect("incremental AVR");
        let label = format!("AVR workload {k}");
        assert_equivalent(&instance, &batch, &incremental, &label, 1e-9);
        // AVR also guarantees identical per-job work.
        let bw = batch.work_per_job(instance.len());
        let iw = incremental.work_per_job(instance.len());
        for j in 0..instance.len() {
            assert!(
                (bw[j] - iw[j]).abs() < 1e-9,
                "{label}: work differs for job {j}: {} vs {}",
                bw[j],
                iw[j]
            );
        }
    }
}

#[test]
fn bkp_incremental_equals_batch_on_random_workloads() {
    // A moderate grid keeps the test fast; the comparison is grid-for-grid
    // so the resolution does not affect equality.
    let workloads = (0..4u64)
        .flat_map(|seed| [4700, 6000, 6200].map(|base| (800, profitable(base + seed, 1, 3.0))))
        .chain((0..2u64).map(|seed| (800, bursty_profitable(6100 + seed, 1, 3.0, 12, 3))))
        .chain((0..2u64).map(|seed| (800, poisson_profitable(6300 + seed, 1, 3.0, 60, 4.0))))
        .chain([(600, edge_instance(1, 3.0))]);
    for (k, (resolution, instance)) in workloads.enumerate() {
        let algo = BkpScheduler { resolution };
        let batch = algo.batch_schedule(&instance).expect("batch BKP");
        let incremental = algo.schedule(&instance).expect("incremental BKP");
        let label = format!("BKP workload {k}");
        assert_equivalent(&instance, &batch, &incremental, &label, 1e-6);
    }
}

#[test]
fn cll_incremental_equals_batch_on_random_workloads() {
    for seed in 0..6u64 {
        let instance = profitable(4800 + seed, 1, 2.0);
        let batch = CllScheduler.batch_schedule(&instance).expect("batch CLL");
        let incremental = CllScheduler.schedule(&instance).expect("incremental CLL");
        assert_equivalent(&instance, &batch, &incremental, "CLL", 1e-9);
    }
}

// ---- Warm-started vs from-scratch arrival paths -------------------------
//
// The arrival step itself is incremental: OA-family replans walk the YDS
// staircase over the deadline-ordered pending list (`Planner::plan_warm` +
// `PlanCache`), and PD keeps a persistent sparse planning context instead of
// rebuilding it per arrival.
// These tests pin the warm-started paths to the from-scratch ones on random
// workloads: identical decisions, costs and speed profiles.

/// Drives two fresh `ReplanState` runs — warm-started and from-scratch —
/// over the instance and asserts they are equivalent.
fn assert_warm_equals_cold<P, A>(
    instance: &Instance,
    planner: P,
    admission: A,
    label: &str,
    tol: f64,
) where
    P: Planner + Clone,
    A: AdmissionPolicy + Clone,
{
    let env = OnlineEnv {
        machines: instance.machines,
        alpha: instance.alpha,
    };
    let mut warm = ReplanState::new(planner.clone(), admission.clone(), env);
    let mut cold = ReplanState::new(planner, admission, env).with_warm_start(false);
    for id in instance.arrival_order() {
        let job = instance.job(id);
        let dw = warm.on_arrival(job, job.release).expect("warm arrival");
        let dc = cold.on_arrival(job, job.release).expect("cold arrival");
        assert_eq!(
            dw.accepted, dc.accepted,
            "{label}: decision for {id} differs between warm and cold"
        );
        assert!(
            (dw.dual - dc.dual).abs() <= tol * dc.dual.abs().max(1.0),
            "{label}: dual for {id} differs between warm and cold"
        );
    }
    let warm_schedule = warm.finish().expect("warm finish");
    let cold_schedule = cold.finish().expect("cold finish");
    assert_equivalent(instance, &cold_schedule, &warm_schedule, label, tol);
}

#[test]
fn warm_oa_equals_from_scratch_on_random_workloads() {
    for seed in 0..6u64 {
        let instance = profitable(5100 + seed, 1, 2.0 + 0.5 * (seed % 3) as f64);
        assert_warm_equals_cold(
            &instance,
            OaPlanner { speed_factor: 1.0 },
            AdmitAll,
            "warm OA",
            1e-9,
        );
    }
}

#[test]
fn warm_qoa_equals_from_scratch_on_random_workloads() {
    for seed in 0..6u64 {
        let instance = profitable(5200 + seed, 1, 2.5);
        let q = 2.0 - 1.0 / instance.alpha;
        assert_warm_equals_cold(
            &instance,
            OaPlanner::with_factor(q),
            AdmitAll,
            "warm qOA",
            1e-9,
        );
    }
}

#[test]
fn warm_cll_equals_from_scratch_on_random_workloads() {
    for seed in 0..6u64 {
        let instance = profitable(5300 + seed, 1, 2.0);
        assert_warm_equals_cold(
            &instance,
            OaPlanner { speed_factor: 1.0 },
            CllAdmission,
            "warm CLL",
            1e-9,
        );
    }
}

#[test]
fn warm_replanning_survives_equal_release_times() {
    // Bursty arrivals: several jobs share a release time, so the executor
    // replans once per burst and the warm state absorbs several insertions
    // between executions.
    for seed in 0..4u64 {
        let instance = bursty_profitable(5400 + seed, 1, 2.0, 12, 3);
        assert_warm_equals_cold(
            &instance,
            OaPlanner { speed_factor: 1.0 },
            AdmitAll,
            "warm OA (bursty)",
            1e-9,
        );
        assert_warm_equals_cold(
            &instance,
            OaPlanner { speed_factor: 1.0 },
            CllAdmission,
            "warm CLL (bursty)",
            1e-9,
        );
    }
}

#[test]
fn warm_replanning_survives_near_zero_works_and_tied_deadlines() {
    // Hand-crafted out-of-order-tolerance edge cases: equal releases, tied
    // deadlines and (nearly) zero-work jobs.
    let instance = edge_instance(1, 2.0);
    assert_warm_equals_cold(
        &instance,
        OaPlanner { speed_factor: 1.0 },
        AdmitAll,
        "warm OA (edge)",
        1e-9,
    );
    // The batch reference agrees too.
    let batch = OaScheduler.batch_schedule(&instance).expect("batch OA");
    let warm = OaScheduler.schedule(&instance).expect("warm OA");
    assert_equivalent(&instance, &batch, &warm, "warm OA vs batch (edge)", 1e-9);
}

#[test]
fn pd_persistent_context_equals_batch_oracle_on_random_workloads() {
    // Arrival by arrival, the live planning context (elapsed intervals
    // retired, no job tables) decides and prices exactly like the batch
    // oracle on the whole-instance partition.
    for seed in 0..6u64 {
        let machines = 1 + (seed % 3) as usize;
        let alpha = 1.5 + 0.5 * (seed % 3) as f64;
        let instance = profitable(5500 + seed, machines, alpha);
        let scheduler = PdScheduler::default();
        let batch = scheduler.run(&instance).expect("batch PD");
        let mut run = scheduler.start_for(&instance).expect("incremental PD");
        for id in instance.arrival_order() {
            let job = instance.job(id);
            let decision = run.on_arrival(job, job.release).expect("arrival");
            let lambda = batch.lambda[id.index()];
            assert_eq!(
                decision.accepted,
                batch.accepted[id.index()],
                "PD decision differs for {id}"
            );
            assert!(
                (decision.dual - lambda).abs() < 1e-6 * lambda.max(1.0),
                "PD dual differs for {id}: online {} vs batch {lambda}",
                decision.dual
            );
        }
        let schedule = run.finish().expect("finish");
        assert_equivalent(
            &instance,
            &batch.schedule,
            &schedule,
            "PD persistent vs batch",
            1e-4,
        );
    }
}

// ---- OA(m): exact replans vs from-scratch solves -------------------------
//
// The multiprocessor planner's warm path solves each left-aligned replan
// exactly (`pss_offline::MultiStaircase`); the cold path runs coordinate
// descent from zeros, which reaches the same optimum up to its energy
// tolerance, so these pins compare at solver accuracy; decisions must agree
// exactly.

#[test]
fn warm_multi_oa_equals_from_scratch_on_random_workloads() {
    for seed in 0..4u64 {
        let instance = profitable(5600 + seed, 1 + (seed % 3) as usize, 2.5);
        assert_warm_equals_cold(
            &instance,
            MultiOaPlanner {
                options: Default::default(),
            },
            AdmitAll,
            "warm OA(m)",
            1e-4,
        );
    }
}

#[test]
fn warm_multi_oa_survives_bursty_equal_releases() {
    for seed in 0..2u64 {
        let instance = bursty_profitable(5700 + seed, 2, 2.5, 12, 3);
        assert_warm_equals_cold(
            &instance,
            MultiOaPlanner {
                options: Default::default(),
            },
            AdmitAll,
            "warm OA(m) (bursty)",
            1e-4,
        );
    }
}

#[test]
fn warm_multi_oa_survives_near_zero_works_and_tied_deadlines() {
    let instance = edge_instance(2, 2.5);
    assert_warm_equals_cold(
        &instance,
        MultiOaPlanner {
            options: Default::default(),
        },
        AdmitAll,
        "warm OA(m) (edge)",
        1e-4,
    );
}

// ---- Burst ingestion: on_arrivals vs the on_arrival loop ----------------
//
// The batch ingestion paths (`OnlineScheduler::on_arrivals`: one replan /
// one index merge / one frontier commit per burst) must be observably
// equivalent to feeding the same jobs one at a time at the same instant:
// identical decisions and duals, and the same final schedule.  Exact for
// the combinatorial algorithms, solver accuracy for OA(m); the b = 1
// degenerate feed must be *bit-identical* to the per-event path.

use pss_workloads::SmallRng;

/// The instance's arrival stream grouped into its equal-release bursts
/// (bit-equal times, as the bursty generators produce).
fn equal_release_bursts(instance: &Instance) -> Vec<(f64, Vec<Job>)> {
    let mut bursts: Vec<(f64, Vec<Job>)> = Vec::new();
    for id in instance.arrival_order() {
        let job = *instance.job(id);
        match bursts.last_mut() {
            Some((t, jobs)) if job.release == *t => jobs.push(job),
            _ => bursts.push((job.release, vec![job])),
        }
    }
    bursts
}

/// Splits every burst into random sub-bursts (all sharing the release), so
/// the batch path is exercised at ragged sizes, not only full bursts.
fn ragged_bursts(bursts: &[(f64, Vec<Job>)], rng: &mut SmallRng) -> Vec<(f64, Vec<Job>)> {
    let mut out = Vec::new();
    for (t, jobs) in bursts {
        let mut rest = &jobs[..];
        while !rest.is_empty() {
            let take = rng.usize_range(1, rest.len());
            out.push((*t, rest[..take].to_vec()));
            rest = &rest[take..];
        }
    }
    out
}

fn drive_loop<R: OnlineScheduler>(
    mut run: R,
    bursts: &[(f64, Vec<Job>)],
) -> (Vec<Decision>, Schedule) {
    let mut decisions = Vec::new();
    for (t, jobs) in bursts {
        for job in jobs {
            decisions.push(run.on_arrival(job, *t).expect("loop arrival"));
        }
    }
    (decisions, run.finish().expect("loop finish"))
}

fn drive_bursts<R: OnlineScheduler>(
    mut run: R,
    bursts: &[(f64, Vec<Job>)],
) -> (Vec<Decision>, Schedule) {
    let mut decisions = Vec::new();
    for (t, jobs) in bursts {
        decisions.extend(run.on_arrivals(jobs, *t).expect("burst arrival"));
    }
    (decisions, run.finish().expect("burst finish"))
}

/// Asserts the burst feed of `make_run()` matches the one-at-a-time feed:
/// exact decisions, duals within `tol`, equivalent schedules.
fn assert_bursts_equal_loop<R: OnlineScheduler>(
    instance: &Instance,
    bursts: &[(f64, Vec<Job>)],
    mut make_run: impl FnMut() -> R,
    label: &str,
    tol: f64,
) {
    let (ld, ls) = drive_loop(make_run(), bursts);
    let (bd, bs) = drive_bursts(make_run(), bursts);
    assert_eq!(ld.len(), bd.len(), "{label}: decision counts differ");
    for (i, (l, b)) in ld.iter().zip(&bd).enumerate() {
        assert_eq!(
            l.accepted, b.accepted,
            "{label}: decision {i} differs between loop and burst feed"
        );
        assert!(
            (l.dual - b.dual).abs() <= tol * l.dual.abs().max(1.0),
            "{label}: dual {i} differs — loop {} vs burst {}",
            l.dual,
            b.dual
        );
    }
    assert_equivalent(instance, &ls, &bs, label, tol);
}

#[test]
fn burst_feed_equals_loop_for_every_algorithm() {
    for seed in 0..3u64 {
        let single = bursty_profitable(7000 + seed, 1, 2.0 + 0.5 * (seed % 3) as f64, 16, 4);
        let multi = bursty_profitable(7100 + seed, 2, 2.5, 16, 4);
        let bursts = equal_release_bursts(&single);
        let mut rng = SmallRng::seed_from_u64(7200 + seed);
        let ragged = ragged_bursts(&bursts, &mut rng);
        let multi_bursts = equal_release_bursts(&multi);

        for groups in [&bursts, &ragged] {
            assert_bursts_equal_loop(
                &single,
                groups,
                || OaScheduler.start_for(&single).expect("OA run"),
                "burst OA",
                1e-9,
            );
            assert_bursts_equal_loop(
                &single,
                groups,
                || QoaScheduler::default().start_for(&single).expect("qOA run"),
                "burst qOA",
                1e-9,
            );
            assert_bursts_equal_loop(
                &single,
                groups,
                || CllScheduler.start_for(&single).expect("CLL run"),
                "burst CLL",
                1e-9,
            );
            assert_bursts_equal_loop(
                &single,
                groups,
                || AvrScheduler.start_for(&single).expect("AVR run"),
                "burst AVR",
                1e-9,
            );
            let bkp = BkpScheduler { resolution: 600 };
            assert_bursts_equal_loop(
                &single,
                groups,
                || bkp.start_for(&single).expect("BKP run"),
                "burst BKP",
                1e-9,
            );
            assert_bursts_equal_loop(
                &single,
                groups,
                || PdScheduler::default().start_for(&single).expect("PD run"),
                "burst PD",
                1e-7,
            );
        }
        // OA(m) on two machines, at solver accuracy with exact decisions.
        assert_bursts_equal_loop(
            &multi,
            &multi_bursts,
            || {
                MultiOaScheduler::default()
                    .start_for(&multi)
                    .expect("OA(m) run")
            },
            "burst OA(m)",
            1e-4,
        );
    }
}

#[test]
fn whole_instance_as_one_burst_equals_loop() {
    // Every job shares one release time: the entire instance is a single
    // on_arrivals call.
    let instance = bursty_profitable(7300, 1, 2.0, 12, 12);
    let bursts = equal_release_bursts(&instance);
    assert_eq!(bursts.len(), 1, "expected a single burst");
    assert_eq!(bursts[0].1.len(), 12);
    assert_bursts_equal_loop(
        &instance,
        &bursts,
        || OaScheduler.start_for(&instance).expect("OA run"),
        "one-burst OA",
        1e-9,
    );
    assert_bursts_equal_loop(
        &instance,
        &bursts,
        || CllScheduler.start_for(&instance).expect("CLL run"),
        "one-burst CLL",
        1e-9,
    );
    assert_bursts_equal_loop(
        &instance,
        &bursts,
        || PdScheduler::default().start_for(&instance).expect("PD run"),
        "one-burst PD",
        1e-7,
    );
    assert_bursts_equal_loop(
        &instance,
        &bursts,
        || AvrScheduler.start_for(&instance).expect("AVR run"),
        "one-burst AVR",
        1e-9,
    );
}

#[test]
fn singleton_bursts_are_bit_identical_to_the_per_event_path() {
    // b = 1 degenerate case: feeding every job as a one-element slice must
    // produce bit-identical segments, not merely equivalent schedules.
    let instance = profitable(7400, 1, 2.5);
    let singletons: Vec<(f64, Vec<Job>)> = instance
        .arrival_order()
        .into_iter()
        .map(|id| (instance.job(id).release, vec![*instance.job(id)]))
        .collect();
    macro_rules! pin {
        ($label:expr, $make:expr) => {{
            let (ld, ls) = drive_loop($make, &singletons);
            let (bd, bs) = drive_bursts($make, &singletons);
            assert_eq!(ld, bd, "{}: decisions not bit-identical", $label);
            assert_eq!(
                ls.segments, bs.segments,
                "{}: segments not bit-identical",
                $label
            );
        }};
    }
    pin!("OA", OaScheduler.start_for(&instance).expect("OA run"));
    pin!(
        "qOA",
        QoaScheduler::default()
            .start_for(&instance)
            .expect("qOA run")
    );
    pin!("CLL", CllScheduler.start_for(&instance).expect("CLL run"));
    pin!("AVR", AvrScheduler.start_for(&instance).expect("AVR run"));
    pin!(
        "BKP",
        BkpScheduler { resolution: 500 }
            .start_for(&instance)
            .expect("BKP run")
    );
    pin!(
        "PD",
        PdScheduler::default().start_for(&instance).expect("PD run")
    );
    let multi = profitable(7500, 2, 2.5);
    let multi_singletons: Vec<(f64, Vec<Job>)> = multi
        .arrival_order()
        .into_iter()
        .map(|id| (multi.job(id).release, vec![*multi.job(id)]))
        .collect();
    let (ld, ls) = drive_loop(
        MultiOaScheduler::default()
            .start_for(&multi)
            .expect("OA(m)"),
        &multi_singletons,
    );
    let (bd, bs) = drive_bursts(
        MultiOaScheduler::default()
            .start_for(&multi)
            .expect("OA(m)"),
        &multi_singletons,
    );
    assert_eq!(ld, bd, "OA(m): decisions not bit-identical");
    assert_eq!(
        ls.segments, bs.segments,
        "OA(m): segments not bit-identical"
    );
}

// ---- Checkpoint/restore: snapshots at arbitrary cut points ---------------
//
// Every online run state implements `LogCheckpointable`: the committed
// frontier lives in an append-only `SegmentLog`, a blob carries only live
// state plus a log cursor, and suspending a run into that `(log, blob)`
// pair and restoring it must not perturb a single future decision.  These
// pins drive each algorithm twice over the same stream — once
// uninterrupted, once suspended/restored at a cut point — and assert the
// decisions, duals and schedules are bit-identical.  Cut points include
// every burst boundary shape:
// between bursts, immediately after a burst, and *mid-burst* (a burst split
// across the snapshot, both halves fed at the same instant).  They also
// drill the daemon's retention: recovery from every depth of a bounded
// checkpoint chain over one log.

/// Bit-compares a restored run's decision stream and final schedule
/// against the uninterrupted baseline.
fn assert_stream_matches(
    baseline_decisions: &[Decision],
    decisions: &[Decision],
    baseline_schedule: &Schedule,
    schedule: &Schedule,
    label: &str,
    cut: usize,
) {
    assert_eq!(
        decisions.len(),
        baseline_decisions.len(),
        "{label} cut {cut}: decision counts differ"
    );
    for (i, (a, b)) in baseline_decisions.iter().zip(decisions).enumerate() {
        assert_eq!(
            a.accepted, b.accepted,
            "{label} cut {cut}: decision {i} differs after restore"
        );
        assert_eq!(
            a.dual.to_bits(),
            b.dual.to_bits(),
            "{label} cut {cut}: dual {i} not bit-identical after restore"
        );
    }
    assert_eq!(
        baseline_schedule.segments, schedule.segments,
        "{label} cut {cut}: schedule not bit-identical after restore"
    );
}

/// Drives `make_run()` over the burst stream uninterrupted, and once per
/// cut point with a suspend/restore at the cut.  The run keeps a
/// realised-segment log synced after every arrival; at the cut it is
/// suspended with [`LogCheckpointable::snapshot_live`] (O(active) blob plus
/// log cursor), both halves cross the wire independently, the log is
/// truncated back to the cursor (WAL discipline — segments past the
/// checkpoint are discarded on recovery), and the run is reassembled
/// with [`LogCheckpointable::restore_with_log`].  Every future decision,
/// the reassembled frontier, and the final schedule must match the
/// uninterrupted run.
fn assert_restore_equivalent<R>(
    bursts: &[(f64, Vec<Job>)],
    mut make_run: impl FnMut() -> R,
    label: &str,
) where
    R: OnlineScheduler + LogCheckpointable,
{
    // Flatten to per-event feeds so cuts can land mid-burst: every event of
    // a burst is fed at the burst's time, so splitting a burst is exactly
    // the ragged sub-burst shape the burst-equivalence pins cover.
    let feeds: Vec<(f64, Job)> = bursts
        .iter()
        .flat_map(|(t, jobs)| jobs.iter().map(|j| (*t, *j)))
        .collect();
    let mut baseline_run = make_run();
    let mut baseline_decisions = Vec::new();
    for (t, job) in &feeds {
        baseline_decisions.push(baseline_run.on_arrival(job, *t).expect("baseline arrival"));
    }
    let baseline_schedule = baseline_run.finish().expect("baseline finish");

    // Cut points: start, one mid-burst, one immediately after a burst,
    // mid-stream, end — or, under `CHECKPOINT_SMOKE=1` (the CI checkpoint
    // smoke step), *every* cut point of the stream.
    let first_burst = bursts.first().map(|(_, j)| j.len()).unwrap_or(0);
    let cuts: Vec<usize> = if std::env::var("CHECKPOINT_SMOKE").is_ok() {
        (0..=feeds.len()).collect()
    } else {
        vec![
            0,
            1.min(feeds.len()),           // mid-first-burst (bursts have >1 job)
            first_burst.min(feeds.len()), // immediately after the first burst
            feeds.len() / 2,
            feeds.len(),
        ]
    };
    for &cut in &cuts {
        let mut run = make_run();
        let mut log = SegmentLog::new(run.frontier().machines);
        let mut decisions = Vec::new();
        for (t, job) in &feeds[..cut] {
            decisions.push(run.on_arrival(job, *t).expect("pre-cut arrival"));
            log.sync_from(run.frontier()).expect("pre-cut log sync");
        }
        // Capture: live-only blob + cursor, and send both halves through
        // their wire formats independently.
        let blob = run.snapshot_live(&mut log).expect("live snapshot");
        let cursor = log.cursor();
        let wire = blob.to_bytes();
        let log_wire = log.to_bytes();
        drop(run);
        drop(log);
        let decoded = StateBlob::from_bytes(&wire).expect("blob wire round-trip");
        let mut log = SegmentLog::from_bytes(&log_wire).expect("log wire round-trip");
        log.truncate(cursor).expect("truncate to checkpoint cursor");
        let mut resumed = R::restore_with_log(&decoded, &log).expect("restore with log");
        for (t, job) in &feeds[cut..] {
            decisions.push(resumed.on_arrival(job, *t).expect("post-cut arrival"));
            log.sync_from(resumed.frontier())
                .expect("post-cut log sync");
        }
        // The re-synced log reassembles the resumed run's committed
        // frontier bit-for-bit at its own cursor.
        let reassembled = log.reassemble(log.cursor()).expect("reassemble");
        assert_eq!(
            reassembled.segments,
            resumed.frontier().segments,
            "{label} cut {cut}: log does not reassemble the resumed frontier"
        );
        let schedule = resumed.finish().expect("restored finish");
        assert_stream_matches(
            &baseline_decisions,
            &decisions,
            &baseline_schedule,
            &schedule,
            label,
            cut,
        );
    }
}

/// The burst stream of an instance (bit-equal release times grouped).
fn as_bursts(instance: &Instance) -> Vec<(f64, Vec<Job>)> {
    equal_release_bursts(instance)
}

#[test]
fn log_restored_runs_continue_bit_identically_for_every_algorithm() {
    // Every algorithm, suspended at the cut points of
    // `assert_restore_equivalent` (all of them under CHECKPOINT_SMOKE)
    // through the (log, blob) pair.
    for seed in 0..3u64 {
        let single = bursty_profitable(7600 + seed, 1, 2.0 + 0.5 * (seed % 3) as f64, 16, 4);
        let bursts = as_bursts(&single);
        assert_restore_equivalent(
            &bursts,
            || OaScheduler.start_for(&single).expect("OA run"),
            "log-restore OA",
        );
        assert_restore_equivalent(
            &bursts,
            || QoaScheduler::default().start_for(&single).expect("qOA run"),
            "log-restore qOA",
        );
        assert_restore_equivalent(
            &bursts,
            || CllScheduler.start_for(&single).expect("CLL run"),
            "log-restore CLL",
        );
        assert_restore_equivalent(
            &bursts,
            || AvrScheduler.start_for(&single).expect("AVR run"),
            "log-restore AVR",
        );
        let bkp = BkpScheduler { resolution: 500 };
        assert_restore_equivalent(
            &bursts,
            || bkp.start_for(&single).expect("BKP run"),
            "log-restore BKP",
        );
        assert_restore_equivalent(
            &bursts,
            || PdScheduler::default().start_for(&single).expect("PD run"),
            "log-restore PD",
        );
        let multi = bursty_profitable(7700 + seed, 2, 2.5, 12, 3);
        let multi_bursts = as_bursts(&multi);
        assert_restore_equivalent(
            &multi_bursts,
            || {
                MultiOaScheduler::default()
                    .start_for(&multi)
                    .expect("OA(m) run")
            },
            "log-restore OA(m)",
        );
    }
}

#[test]
fn compacted_log_recovers_from_every_retained_checkpoint_depth() {
    // A capture after every burst feeds a bounded chain of (cursor, blob)
    // records — the daemon's retention discipline.  For every
    // retained-chain depth the daemon can be configured with, recovery
    // from EVERY record still in the chain (not just the newest) must
    // replay to the exact baseline: the log never loses the segment data
    // an older cursor needs.
    let instance = bursty_profitable(7900, 1, 2.5, 16, 4);
    let bursts = as_bursts(&instance);

    let mut baseline_run = CllScheduler.start_for(&instance).expect("CLL run");
    let mut baseline_decisions = Vec::new();
    for (t, jobs) in &bursts {
        baseline_decisions.extend(baseline_run.on_arrivals(jobs, *t).expect("baseline burst"));
    }
    let baseline_schedule = baseline_run.finish().expect("baseline finish");

    for retain in 1..=4usize {
        let mut run = CllScheduler.start_for(&instance).expect("CLL run");
        let mut log = SegmentLog::new(instance.machines);
        let mut chain = Vec::new();
        let mut decisions_done = 0usize;
        for (done, (t, jobs)) in bursts.iter().enumerate() {
            decisions_done += run.on_arrivals(jobs, *t).expect("burst").len();
            let blob = run.snapshot_live(&mut log).expect("capture");
            let cursor = log.cursor();
            chain.push((done + 1, decisions_done, cursor, blob.to_bytes()));
            if chain.len() > retain {
                chain.remove(0);
            }
        }
        assert_eq!(chain.len(), retain.min(bursts.len()));
        let log_wire = log.to_bytes();

        for (bursts_done, decided, cursor, wire) in &chain {
            let mut log = SegmentLog::from_bytes(&log_wire).expect("log decode");
            log.truncate(*cursor).expect("truncate to retained cursor");
            let blob = StateBlob::from_bytes(wire).expect("blob decode");
            let mut resumed = <CllScheduler as OnlineAlgorithm>::Run::restore_with_log(&blob, &log)
                .expect("restore with log");
            let mut decisions = Vec::new();
            for (t, jobs) in &bursts[*bursts_done..] {
                decisions.extend(resumed.on_arrivals(jobs, *t).expect("replayed burst"));
            }
            let schedule = resumed.finish().expect("replayed finish");
            // The replayed tail of the decision stream is bit-identical…
            assert_eq!(decided + decisions.len(), baseline_decisions.len());
            for (i, (a, b)) in baseline_decisions[*decided..]
                .iter()
                .zip(&decisions)
                .enumerate()
            {
                assert_eq!(
                    a.accepted, b.accepted,
                    "retain {retain}, record at burst {bursts_done}: replayed decision {i} flipped"
                );
                assert_eq!(
                    a.dual.to_bits(),
                    b.dual.to_bits(),
                    "retain {retain}, record at burst {bursts_done}: replayed dual {i} drifted"
                );
            }
            // …and so is the final schedule.
            assert_eq!(
                baseline_schedule.segments, schedule.segments,
                "retain {retain}, record at burst {bursts_done}: recovered schedule differs"
            );
        }
    }
}

#[test]
fn restored_runs_survive_the_tolerance_edge_cases() {
    // Tied deadlines, equal releases, near-zero works: the snapshots must
    // preserve the exact bit patterns these paths branch on.
    let instance = edge_instance(1, 2.0);
    let bursts = as_bursts(&instance);
    assert_restore_equivalent(
        &bursts,
        || OaScheduler.start_for(&instance).expect("OA run"),
        "log-restore OA (edge)",
    );
    assert_restore_equivalent(
        &bursts,
        || AvrScheduler.start_for(&instance).expect("AVR run"),
        "log-restore AVR (edge)",
    );
    assert_restore_equivalent(
        &bursts,
        || PdScheduler::default().start_for(&instance).expect("PD run"),
        "log-restore PD (edge)",
    );
    let bkp_edge = edge_instance(1, 3.0);
    let bkp_bursts = as_bursts(&bkp_edge);
    let bkp = BkpScheduler { resolution: 400 };
    assert_restore_equivalent(
        &bkp_bursts,
        || bkp.start_for(&bkp_edge).expect("BKP run"),
        "log-restore BKP (edge)",
    );
}

#[test]
fn mid_burst_snapshots_round_trip_through_on_arrivals() {
    // Split every burst across a snapshot: feed the first half through
    // on_arrivals, suspend/restore through the (log, blob) pair, feed the
    // rest through on_arrivals at the same instant — against the same split
    // without the restore.
    let instance = bursty_profitable(7800, 1, 2.0, 16, 4);
    let bursts = as_bursts(&instance);
    macro_rules! pin {
        ($label:expr, $make:expr) => {{
            let drive_split = |restore_mid: bool| {
                let mut run = $make;
                let mut log = SegmentLog::new(instance.machines);
                let mut decisions = Vec::new();
                for (t, jobs) in &bursts {
                    let half = jobs.len() / 2;
                    decisions.extend(run.on_arrivals(&jobs[..half], *t).expect("first half"));
                    if restore_mid {
                        let blob = run.snapshot_live(&mut log).expect("mid-burst snapshot");
                        run = LogCheckpointable::restore_with_log(&blob, &log)
                            .expect("mid-burst restore");
                    }
                    decisions.extend(run.on_arrivals(&jobs[half..], *t).expect("second half"));
                }
                (decisions, run.finish().expect("finish"))
            };
            let (plain_decisions, plain_schedule) = drive_split(false);
            let (restored_decisions, restored_schedule) = drive_split(true);
            assert_eq!(plain_decisions, restored_decisions, "{}: decisions", $label);
            assert_eq!(
                plain_schedule.segments, restored_schedule.segments,
                "{}: segments",
                $label
            );
        }};
    }
    pin!("OA", OaScheduler.start_for(&instance).expect("OA run"));
    pin!("CLL", CllScheduler.start_for(&instance).expect("CLL run"));
    pin!("AVR", AvrScheduler.start_for(&instance).expect("AVR run"));
    pin!(
        "BKP",
        BkpScheduler { resolution: 400 }
            .start_for(&instance)
            .expect("BKP run")
    );
    pin!(
        "PD",
        PdScheduler::default().start_for(&instance).expect("PD run")
    );
}

#[test]
fn superseded_state_versions_are_refused() {
    // Each state version was bumped when the payload's frontier lost its
    // inline-or-cursor tag byte, and AVR's and BKP's again when their
    // fast-path toggles (and AVR's job history) left the payload, AVR's
    // once more when its active jobs gained a remaining budget, BKP's once
    // more when its job history and EDF heap left the payload, and PD's and
    // the replanning executor's when the water-fill tolerance left PD's
    // payload and OA(m)'s solver options, and the executor's once more when
    // its plan and staleness flag left the payload, once more when OA(m)'s
    // warm descent rows left it, and once more when the pending jobs'
    // values and the warm YDS order left it, so blobs of different layouts
    // are never confused.  A live blob re-labelled with a superseded
    // version (replan 2, 3, 4, 5 and 6; AVR 2, 3 and 4; BKP 2, 3 and 4; PD 3
    // and 4) must be refused with the typed version error.
    fn refuse<R: OnlineScheduler + LogCheckpointable>(mut run: R, instance: &Instance, old: u16) {
        for (t, jobs) in as_bursts(instance) {
            run.on_arrivals(&jobs, t).expect("burst");
        }
        let mut log = SegmentLog::new(instance.machines);
        let blob = run.snapshot_live(&mut log).expect("live snapshot");
        assert!(R::restore_with_log(&blob, &log).is_ok(), "{}", blob.kind());
        let relabelled = StateBlob::new(blob.kind(), old, blob.payload().to_vec());
        assert!(
            matches!(
                R::restore_with_log(&relabelled, &log),
                Err(SnapshotError::UnsupportedVersion(v)) if v == old
            ),
            "{} blob labelled version {old} was not refused",
            blob.kind()
        );
    }
    let instance = bursty_profitable(7950, 1, 2.0, 12, 3);
    for old in [2, 4, 6] {
        refuse(
            CllScheduler.start_for(&instance).expect("CLL run"),
            &instance,
            old,
        );
    }
    for old in [2, 3, 4] {
        refuse(
            AvrScheduler.start_for(&instance).expect("AVR run"),
            &instance,
            old,
        );
    }
    for old in [2, 3, 4] {
        refuse(
            BkpScheduler::default()
                .start_for(&instance)
                .expect("BKP run"),
            &instance,
            old,
        );
    }
    for old in [3, 4, 5, 6] {
        refuse(
            MultiOaScheduler::default()
                .start_for(&instance)
                .expect("OA(m) run"),
            &instance,
            old,
        );
    }
    for old in [3, 4] {
        refuse(
            PdScheduler::default().start_for(&instance).expect("PD run"),
            &instance,
            old,
        );
    }
}

/// Differential pin of the ingestion daemon: a single-tenant, single-shard
/// `pss_serve::Daemon` run is **bit-identical** to a `StreamingSimulation`
/// of the stream it fed: same dense id assignment, same burst splits and
/// feed times, same decisions and duals (to the bit), same final schedule
/// segments.  Two feeds are pinned:
///
/// * pre-queued while paused, so the worker drains the whole stream as one
///   backlog and its burst splits are those of
///   `StreamingSimulation::with_coalescing` on the instance — the daemon's
///   contract that "the queue is just another coalescing window";
/// * closed loop, as a serving caller drives it: one submission at a time,
///   each awaited through the shard watermark, with price-gate rejections
///   and the default checkpoint cadence.  Every job reaches the worker
///   alone, across its hot spin and its park between batches, and the fed
///   stream replays through `StreamingSimulation::default()`.
#[test]
fn single_tenant_daemon_equals_streaming_simulation() {
    use std::time::{Duration, Instant};

    use pss_core::types::{JobEnvelope, TenantId};
    use pss_serve::{Daemon, ServeConfig, Submission, TenantSpec};
    use pss_sim::StreamingSimulation;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Feed {
        /// The whole stream queued while paused, then drained as one
        /// backlog.
        PreQueued,
        /// One submission at a time, each awaited through the watermark.
        ClosedLoop,
    }

    fn pin<A>(label: &str, algo: A, instance: &Instance, window: f64, feed: Feed)
    where
        A: OnlineAlgorithm + Clone,
        A::Run: LogCheckpointable + Send + 'static,
    {
        // Re-densify ids in arrival order so the daemon's feed-order id
        // assignment coincides with the instance's own ids.
        let inst = instance.restrict(&instance.arrival_order());
        let (config, tenant) = match feed {
            Feed::PreQueued => (
                ServeConfig {
                    machines: inst.machines,
                    alpha: inst.alpha,
                    shards: 1,
                    queue_capacity: inst.len().max(2),
                    coalesce_window: window,
                    // The daemon coalesces over its drained backlog;
                    // draining the whole pre-queued stream in one chunk
                    // makes its burst splits exactly those of
                    // `coalesce_arrivals`.
                    max_batch: inst.len().max(1),
                    checkpoint_every: 0,
                    start_paused: true,
                    ..ServeConfig::default()
                },
                TenantSpec::new("solo"),
            ),
            Feed::ClosedLoop => {
                // The watermark marks a job as fed only if no later job
                // shares its release.
                assert!(
                    inst.jobs.windows(2).all(|w| w[0].release < w[1].release),
                    "{label}: closed-loop releases must strictly increase"
                );
                (
                    ServeConfig {
                        machines: inst.machines,
                        alpha: inst.alpha,
                        coalesce_window: window,
                        ..ServeConfig::default()
                    },
                    TenantSpec::new("solo").rejecting_on_price(),
                )
            }
        };
        let (daemon, handles) = Daemon::spawn(algo.clone(), config, vec![tenant]).expect("spawn");
        // The jobs the shard should feed, densely re-numbered in
        // submission order.
        let mut queued: Vec<Job> = Vec::new();
        for job in &inst.jobs {
            let envelope = JobEnvelope::new(
                TenantId(0),
                job.id.index() as u64,
                job.release,
                job.deadline,
                job.work,
                job.value,
            );
            match handles[0].submit(envelope) {
                Ok(Submission::Queued { .. }) => {}
                Ok(Submission::RejectedByPrice { .. }) if feed == Feed::ClosedLoop => continue,
                other => panic!("{label}: submission failed: {other:?}"),
            }
            queued.push(Job {
                id: JobId(queued.len()),
                ..*job
            });
            if feed == Feed::ClosedLoop {
                let deadline = Instant::now() + Duration::from_secs(10);
                while handles[0].watermark() < job.release {
                    assert!(Instant::now() < deadline, "{label}: {:?} never fed", job.id);
                    std::hint::spin_loop();
                }
            }
        }
        daemon.resume();
        let served = daemon.shutdown().expect("daemon run");
        let shard = &served.shards[0];
        // The shard fed exactly the queued jobs, in submission order.
        let fed = shard.instance(inst.machines, inst.alpha).expect("rebuild");
        assert_eq!(fed.jobs, queued, "{label}: fed stream");
        let simulation = match feed {
            Feed::PreQueued => StreamingSimulation::with_coalescing(window),
            Feed::ClosedLoop => StreamingSimulation::default(),
        };
        let offline = simulation.run(&algo, &fed).expect("offline replay");

        assert_eq!(
            shard.events.len(),
            offline.events.len(),
            "{label}: event counts"
        );
        assert_eq!(shard.batches, offline.batches, "{label}: batch counts");
        if feed == Feed::ClosedLoop {
            assert_eq!(shard.batches, fed.len(), "{label}: one batch per fed job");
            assert!(
                shard.checkpoints > 1,
                "{label}: no checkpoint past the initial one"
            );
        }
        for (daemon_ev, sim_ev) in shard.events.iter().zip(&offline.events) {
            assert_eq!(daemon_ev.job, sim_ev.job, "{label}: id assignment");
            assert_eq!(
                daemon_ev.accepted, sim_ev.accepted,
                "{label}: decision flipped for {:?}",
                sim_ev.job
            );
            assert_eq!(
                daemon_ev.dual.to_bits(),
                sim_ev.dual.to_bits(),
                "{label}: dual differs for {:?}",
                sim_ev.job
            );
        }
        assert_eq!(
            shard.schedule.segments, offline.schedule.segments,
            "{label}: schedule segments"
        );
    }

    let poisson = poisson_profitable(9100, 1, 2.0, 40, 3.0);
    let bursty = common::bursty_poisson_profitable(9101, 1, 2.0, 48, 4, 2.0, 1e-4);
    pin("CLL window=0", CllScheduler, &poisson, 0.0, Feed::PreQueued);
    pin(
        "CLL window=1e-3",
        CllScheduler,
        &bursty,
        1e-3,
        Feed::PreQueued,
    );
    pin(
        "PD window=0",
        PdScheduler::coarse(),
        &poisson,
        0.0,
        Feed::PreQueued,
    );
    pin(
        "PD window=1e-3",
        PdScheduler::coarse(),
        &bursty,
        1e-3,
        Feed::PreQueued,
    );
    // Multiprocessor PD through the daemon.
    let multi = profitable(9102, 3, 2.5);
    pin(
        "PD m=3",
        PdScheduler::coarse(),
        &multi,
        1e-3,
        Feed::PreQueued,
    );
    // The coalescing window carries job 0 past its deadline: both sides
    // reject it at its value without showing it to the run.
    let expiring = Instance::from_tuples(
        1,
        2.0,
        vec![
            (0.0, 5e-4, 1e-4, 5.0),
            (8e-4, 3.0, 1.0, 2.0),
            (2.0, 4.0, 1.0, 3.0),
        ],
    )
    .unwrap();
    pin(
        "CLL expired in burst",
        CllScheduler,
        &expiring,
        1e-3,
        Feed::PreQueued,
    );
    pin(
        "PD expired in burst",
        PdScheduler::coarse(),
        &expiring,
        1e-3,
        Feed::PreQueued,
    );
    // Closed loop over enough fed jobs to cross a checkpoint.
    let long = poisson_profitable(9103, 1, 2.0, 400, 3.0);
    pin(
        "CLL closed loop",
        CllScheduler,
        &long,
        0.0,
        Feed::ClosedLoop,
    );
    pin(
        "PD closed loop",
        PdScheduler::coarse(),
        &long,
        0.0,
        Feed::ClosedLoop,
    );
}
