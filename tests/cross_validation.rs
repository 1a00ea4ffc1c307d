//! Cross-validation integration tests: independent implementations of the
//! same mathematical object must agree (YDS vs the convex solver, schedule
//! realisation vs per-interval energies, OA vs its multiprocessor
//! generalisation, PD vs OA in the mandatory-value regime).

mod common;

use common::mandatory as mandatory_instance;
use pss_convex::{solve_min_energy, ProgramContext};
use pss_core::prelude::*;

#[test]
fn yds_and_convex_solver_agree_on_single_machine_energy() {
    for seed in 0..5u64 {
        for alpha in [1.5, 2.0, 3.0] {
            let instance = mandatory_instance(seed, 1, alpha, 10);
            let yds = YdsScheduler
                .schedule(&instance)
                .expect("YDS")
                .cost(&instance)
                .energy;
            let ctx = ProgramContext::new(&instance);
            let convex = solve_min_energy(&ctx).energy;
            assert!(
                (yds - convex).abs() < 2e-4 * yds.max(1.0),
                "seed {seed}, alpha {alpha}: YDS {yds} vs convex {convex}"
            );
        }
    }
}

#[test]
fn realized_schedules_report_the_same_energy_as_the_assignment() {
    for seed in 0..3u64 {
        let instance = mandatory_instance(seed, 3, 2.5, 12);
        let ctx = ProgramContext::new(&instance);
        let sol = solve_min_energy(&ctx);
        let schedule = ctx.realize_schedule(&sol.assignment);
        let energy = schedule.cost(&instance).energy;
        assert!(
            (energy - sol.energy).abs() < 1e-6 * sol.energy.max(1.0),
            "seed {seed}: realized {energy} vs assignment {}",
            sol.energy
        );
        validate_schedule(&instance, &schedule).expect("realized schedule is feasible");
    }
}

#[test]
fn multiprocessor_oa_degenerates_to_oa_on_one_machine() {
    for seed in 0..3u64 {
        let instance = mandatory_instance(seed, 1, 2.0, 8);
        let oa = OaScheduler
            .schedule(&instance)
            .expect("OA")
            .cost(&instance)
            .energy;
        let multi = MultiOaScheduler::default()
            .schedule(&instance)
            .expect("OA(m)")
            .cost(&instance)
            .energy;
        assert!(
            (oa - multi).abs() < 5e-3 * oa.max(1.0),
            "seed {seed}: OA {oa} vs OA(m) {multi}"
        );
    }
}

#[test]
fn pd_with_mandatory_values_behaves_like_oa_on_one_machine() {
    // Section 3 of the paper: for a single processor and sufficiently high
    // values, PD is OA-like.  Their costs need not be identical (the
    // schedules differ structurally, cf. Figure 3) but must be close and
    // both within alpha^alpha of the optimum.
    for seed in 0..3u64 {
        let instance = mandatory_instance(seed, 1, 2.0, 10);
        let opt = YdsScheduler
            .schedule(&instance)
            .expect("YDS")
            .cost(&instance)
            .energy;
        let bound = AlphaPower::new(instance.alpha).competitive_ratio_pd();
        for algo in [&PdScheduler::default() as &dyn Scheduler, &OaScheduler] {
            let cost = algo
                .schedule(&instance)
                .expect("run")
                .cost(&instance)
                .total();
            assert!(
                cost <= bound * opt + 1e-6,
                "seed {seed}: {} cost {cost} exceeds {bound} * {opt}",
                algo.name()
            );
        }
    }
}

#[test]
fn online_and_offline_pd_agree_with_the_simulator_energy() {
    let instance = mandatory_instance(11, 2, 2.0, 14);
    let run = PdScheduler::default().run(&instance).expect("PD run");
    let sim = pss_sim::Simulation
        .run(&instance, &run.schedule)
        .expect("simulate");
    assert!((sim.total_energy - run.cost().energy).abs() < 1e-6 * sim.total_energy.max(1.0));
    let online = PdScheduler::default()
        .schedule(&instance)
        .expect("online PD");
    let sim_online = pss_sim::Simulation
        .run(&instance, &online)
        .expect("simulate online");
    assert!((sim_online.total_cost() - sim.total_cost()).abs() < 1e-5 * sim.total_cost().max(1.0));
}
