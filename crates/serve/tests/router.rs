//! Router suites: bit-identical stepped replay across shard counts and
//! policies, the hash-routing invariant (a job's shard never moves), the
//! S = 1 pin against a hand-driven unsharded daemon, the frontier-merge
//! energy identity with per-shard schedule validation, the true peak
//! queue depth counter, and the free-running throughput mode.
//!
//! `ROUTE_SMOKE=1` (the CI route-smoke step) widens the replay matrix to
//! the full S ∈ {1, 2, 4, 8} sweep.

use std::time::{Duration, Instant};

use pss_baselines::CllScheduler;
use pss_core::PdScheduler;
use pss_serve::{
    deterministic_fields_equal, routed_fields_equal, Daemon, ServeConfig, ServiceReport,
    StreamRouter, Submission, TenantSpec,
};
use pss_sim::{RoutePolicy, ShardedOutcome};
use pss_types::{Instance, JobEnvelope, JobId, TenantId};
use pss_workloads::{arrival_envelopes, ScenarioConfig, ScenarioKind};

fn scenario(kind: ScenarioKind, n_jobs: usize, seed: u64) -> Instance {
    ScenarioConfig {
        n_jobs,
        ..ScenarioConfig::new(kind, seed)
    }
    .generate()
}

fn router(instance: &Instance, shards: usize, policy: RoutePolicy) -> StreamRouter {
    StreamRouter {
        shards,
        policy,
        machines_per_shard: instance.machines,
        alpha: instance.alpha,
        ..StreamRouter::default()
    }
}

fn shard_counts() -> Vec<usize> {
    if std::env::var_os("ROUTE_SMOKE").is_some() {
        vec![1, 2, 4, 8]
    } else {
        vec![1, 4]
    }
}

#[test]
fn stepped_replay_is_bit_identical_across_shard_counts_and_policies() {
    let instance = scenario(ScenarioKind::FlashCrowd, 64, 11);
    for shards in shard_counts() {
        for policy in RoutePolicy::all() {
            let r = router(&instance, shards, policy);
            let a = r.run_stepped(PdScheduler::coarse(), &instance).unwrap();
            let b = r.run_stepped(PdScheduler::coarse(), &instance).unwrap();
            assert!(
                routed_fields_equal(&a, &b),
                "replay diverged at S={shards}, policy={}",
                policy.name()
            );
            assert_eq!(a.submissions.len(), instance.len());
            assert_eq!(a.shards(), shards);
        }
    }
}

/// Hash routing is a pure function of the submission sequence number:
/// changing the wave structure (which changes price trajectories and
/// batch boundaries) never moves a job's shard.
#[test]
fn hash_routing_pins_a_jobs_shard_across_runs() {
    let instance = scenario(ScenarioKind::Diurnal, 48, 23);
    let narrow = StreamRouter {
        wave_size: 8,
        ..router(&instance, 4, RoutePolicy::HashById)
    };
    let wide = StreamRouter {
        wave_size: 16,
        ..narrow
    };
    let a = narrow.run_stepped(CllScheduler, &instance).unwrap();
    let b = wide.run_stepped(CllScheduler, &instance).unwrap();
    let shards_of = |r: &pss_serve::RoutedReport| -> Vec<(JobId, usize)> {
        r.submissions.iter().map(|s| (s.job, s.shard)).collect()
    };
    assert_eq!(shards_of(&a), shards_of(&b));
    // And the assignment is exactly the advertised pure function.
    let prices = vec![0.0; 4];
    for (seq, sub) in a.submissions.iter().enumerate() {
        assert_eq!(sub.shard, RoutePolicy::HashById.route(seq as u64, &prices));
    }
}

/// Polls `probe` until it returns true or the deadline passes.
fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// Hand-drives a single-shard daemon through the router's exact
/// wave-stepped protocol and config — the unsharded reference run.
fn manual_unsharded(instance: &Instance, wave_size: usize) -> ServiceReport {
    let config = ServeConfig {
        machines: instance.machines,
        alpha: instance.alpha,
        shards: 1,
        queue_capacity: 1024,
        coalesce_window: f64::INFINITY,
        max_batch: 1024,
        price_smoothing: 0.1,
        stale_tolerance: f64::INFINITY,
        start_paused: true,
        ..ServeConfig::default()
    };
    let tenants = vec![TenantSpec::new("route-0").on_shard(0).rejecting_on_price()];
    let (daemon, handles) = Daemon::spawn(PdScheduler::coarse(), config, tenants).unwrap();
    let envelopes: Vec<JobEnvelope> = arrival_envelopes(instance);
    let mut expected = 0usize;
    for wave in envelopes.chunks(wave_size) {
        let epoch = daemon.shard_idle_epoch(0);
        wait_for("the worker to park", || daemon.shard_idle_epoch(0) != epoch);
        for envelope in wave {
            match handles[0].submit(*envelope) {
                Ok(Submission::Queued { .. }) => expected += 1,
                Ok(Submission::RejectedByPrice { .. }) => {}
                other => panic!("manual submission failed: {other:?}"),
            }
        }
        daemon.resume();
        wait_for("the wave's events", || {
            daemon.shard_event_count(0) >= expected
        });
        daemon.pause();
    }
    daemon.resume();
    daemon.shutdown().unwrap()
}

/// With one shard the router is the unsharded daemon: every policy routes
/// everything to shard 0, and the deterministic fields match a hand-driven
/// run bit for bit.
#[test]
fn router_s1_matches_the_unsharded_daemon() {
    let instance = scenario(ScenarioKind::FlashCrowd, 48, 31);
    let r = router(&instance, 1, RoutePolicy::CheapestPrice);
    let routed = r.run_stepped(PdScheduler::coarse(), &instance).unwrap();
    assert!(routed.submissions.iter().all(|s| s.shard == 0));
    let manual = manual_unsharded(&instance, r.wave_size);
    assert!(
        deterministic_fields_equal(&routed.service, &manual),
        "S=1 routed run diverged from the hand-driven unsharded daemon"
    );
}

/// The merged logical schedule spans `S · machines` lanes, its energy is
/// the sum of the shard energies, and every shard schedule validates
/// against the stream its shard was actually fed.
#[test]
fn merged_schedule_adds_shard_energies_and_validates() {
    let instance = scenario(ScenarioKind::Overload, 64, 43);
    let r = router(&instance, 4, RoutePolicy::RoundRobin);
    let report = r.run_stepped(PdScheduler::coarse(), &instance).unwrap();
    assert_eq!(report.merged.machines, 4 * instance.machines);
    let shard_sum: f64 = report
        .service
        .shards
        .iter()
        .map(|s| s.schedule.energy(instance.alpha))
        .sum();
    let merged = report.merged_energy(instance.alpha);
    assert!(
        (merged - shard_sum).abs() <= 1e-9 * shard_sum.max(1.0),
        "merged energy {merged} != shard sum {shard_sum}"
    );
    for shard in &report.service.shards {
        let fed = shard
            .instance(report.service.machines, report.service.alpha)
            .unwrap();
        pss_core::prelude::validate_schedule(&fed, &shard.schedule).unwrap();
    }
    // Merged segments speak the logical id vocabulary.
    for seg in &report.merged.segments {
        if let Some(job) = seg.job {
            assert!(job.index() < instance.len(), "dangling merged id {job}");
        }
    }
}

/// The push-side peak counter sees every enqueued arrival, including depth
/// the drain-point samples can miss entirely on a paused daemon.
#[test]
fn peak_queue_depth_bounds_the_sampled_max() {
    let config = ServeConfig {
        queue_capacity: 1024,
        start_paused: true,
        ..ServeConfig::default()
    };
    let (daemon, handles) =
        Daemon::spawn(CllScheduler, config, vec![TenantSpec::new("t")]).unwrap();
    for tag in 0..6u64 {
        let release = tag as f64 * 0.1;
        handles[0]
            .submit(JobEnvelope::new(
                TenantId(0),
                tag,
                release,
                release + 1.0,
                0.2,
                1.0,
            ))
            .unwrap();
    }
    daemon.resume();
    let report = daemon.shutdown().unwrap();
    let shard = &report.shards[0];
    assert_eq!(shard.peak_queue_depth, 6);
    assert!(shard.peak_queue_depth >= shard.max_queue_depth());
    assert_eq!(report.summary().shards[0].peak_queue_depth, 6);
}

/// The free-running throughput mode ingests the whole stream, reports a
/// positive ingest rate, and still satisfies the merge identity.
#[test]
fn free_run_ingests_the_whole_stream_and_merges() {
    let instance = scenario(ScenarioKind::Diurnal, 48, 7);
    let r = router(&instance, 2, RoutePolicy::CheapestPrice);
    let report = r.run_free(CllScheduler, &instance, 7).unwrap();
    assert_eq!(report.submissions.len(), instance.len());
    assert!(report.arrivals_per_sec() > 0.0);
    assert_eq!(report.shard_loads().iter().sum::<usize>(), {
        report.submissions.iter().filter(|s| s.queued).count()
    });
    assert!(report.load_imbalance() >= 1.0 - 1e-12);
    let shard_sum: f64 = report
        .service
        .shards
        .iter()
        .map(|s| s.schedule.energy(instance.alpha))
        .sum();
    let merged = report.merged_energy(instance.alpha);
    assert!(
        (merged - shard_sum).abs() <= 1e-9 * shard_sum.max(1.0),
        "merged energy {merged} != shard sum {shard_sum}"
    );
    assert!(report.value_accepted(&instance) >= 0.0);
    assert!(report.peak_queue_depth() >= 1);
}

/// A queue capacity whose power-of-two rounding overflows is a typed error
/// in both drive modes, found before the daemon spawns or allocates.
#[test]
fn an_overflowing_queue_capacity_is_an_error_not_a_panic() {
    let instance = scenario(ScenarioKind::Diurnal, 8, 7);
    let r = StreamRouter {
        queue_capacity: usize::MAX,
        ..router(&instance, 2, RoutePolicy::RoundRobin)
    };
    assert!(r.run_stepped(CllScheduler, &instance).is_err());
    assert!(r.run_free(CllScheduler, &instance, 7).is_err());
}
