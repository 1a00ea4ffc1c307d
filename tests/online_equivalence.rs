//! Online-behaviour integration tests: the event-driven PD (with interval
//! refinement) matches the batch PD, and the online algorithms never revise
//! the past when new jobs arrive.
//!
//! Prefix stability is verified with the *streaming* replay harness: one
//! incremental run per algorithm, whose committed frontier is sampled as
//! arrivals are processed — no per-checkpoint re-solves.

mod common;

use pss_core::prelude::*;
use pss_sim::{streaming_prefix_report, StreamingSimulation};

fn instances() -> Vec<Instance> {
    (0..4u64)
        .map(|seed| {
            common::profitable_n(
                500 + seed,
                if seed % 2 == 0 { 1 } else { 3 },
                2.0 + 0.5 * (seed % 3) as f64,
                12,
            )
        })
        .collect()
}

#[test]
fn online_pd_matches_batch_pd_decisions_and_cost() {
    for instance in instances() {
        let batch = PdScheduler::default().run(&instance).expect("batch PD");
        let mut online = OnlinePd::new(instance.machines, instance.alpha);
        for id in instance.arrival_order() {
            let job = instance.job(id);
            let decision = online.on_arrival(job, job.release).expect("online arrival");
            assert_eq!(
                decision.accepted,
                batch.accepted[id.index()],
                "decision mismatch for {id} (alpha {})",
                instance.alpha
            );
        }
        let online_cost = online.finish().expect("online schedule").cost(&instance);
        let batch_cost = batch.schedule.cost(&instance);
        assert!(
            (online_cost.total() - batch_cost.total()).abs() < 1e-5 * batch_cost.total().max(1.0),
            "cost mismatch: online {} vs batch {}",
            online_cost.total(),
            batch_cost.total()
        );
    }
}

#[test]
fn on_arrival_decisions_report_pd_duals() {
    for instance in instances() {
        let batch = PdScheduler::default().run(&instance).expect("batch PD");
        let mut run = PdScheduler::default()
            .start_for(&instance)
            .expect("start run");
        for id in instance.arrival_order() {
            let job = instance.job(id);
            let decision = run.on_arrival(job, job.release).expect("arrival");
            assert_eq!(decision.accepted, batch.accepted[id.index()]);
            assert!(
                (decision.dual - batch.lambda[id.index()]).abs()
                    < 1e-6 * batch.lambda[id.index()].max(1.0),
                "dual mismatch for {id}: online {} vs batch {}",
                decision.dual,
                batch.lambda[id.index()]
            );
        }
    }
}

#[test]
fn pd_never_revises_the_past() {
    for instance in instances() {
        let report = streaming_prefix_report(&PdScheduler::default(), &instance, 48)
            .expect("streaming replay");
        assert!(
            report.is_online(1e-5),
            "PD revised the past: max deviation {}",
            report.max_deviation
        );
    }
}

#[test]
fn baselines_never_revise_the_past() {
    let instance = common::profitable(321, 1, 2.0);
    let oa = streaming_prefix_report(&OaScheduler, &instance, 48).expect("OA replay");
    assert!(
        oa.is_online(1e-5),
        "OA revised the past: {}",
        oa.max_deviation
    );
    let cll = streaming_prefix_report(&CllScheduler, &instance, 48).expect("CLL replay");
    assert!(
        cll.is_online(1e-5),
        "CLL revised the past: {}",
        cll.max_deviation
    );
    let avr = streaming_prefix_report(&AvrScheduler, &instance, 48).expect("AVR replay");
    assert!(
        avr.is_online(1e-9),
        "AVR revised the past: {}",
        avr.max_deviation
    );
    let bkp = streaming_prefix_report(&BkpScheduler::default(), &instance, 48).expect("BKP replay");
    assert!(
        bkp.is_online(1e-5),
        "BKP revised the past: {}",
        bkp.max_deviation
    );
}

#[test]
fn online_pd_schedule_is_feasible_for_the_full_instance() {
    for instance in instances() {
        let schedule = PdScheduler::default()
            .schedule(&instance)
            .expect("online run");
        validate_schedule(&instance, &schedule).expect("online schedule is feasible");
    }
}

#[test]
fn streaming_simulation_agrees_with_the_batch_adapter() {
    for instance in instances() {
        let stream = StreamingSimulation::default()
            .run(&PdScheduler::default(), &instance)
            .expect("streaming run");
        let batch = PdScheduler::default()
            .schedule(&instance)
            .expect("batch adapter")
            .cost(&instance)
            .total();
        assert!(
            (stream.total_cost() - batch).abs() < 1e-6 * batch.max(1.0),
            "stream {} vs batch {batch}",
            stream.total_cost()
        );
        assert_eq!(stream.events.len(), instance.len());
    }
}
