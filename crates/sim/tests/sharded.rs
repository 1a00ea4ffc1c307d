//! Sharded-stream suites: routing determinism (bit-identical replay
//! across shard counts and policies, hash assignments pinned), the
//! frontier-merge contract (energy identity, per-shard prefix stability,
//! S = 1 bit-identical to the unsharded simulator), and the
//! sharding-cost oracle's bookkeeping.
//!
//! `ROUTE_SMOKE=1` (the CI route-smoke step) widens the replay matrix to
//! the full S ∈ {1, 2, 4, 8} sweep.

use pss_baselines::{AvrScheduler, CllScheduler, MultiOaScheduler, OaScheduler, QoaScheduler};
use pss_core::PdScheduler;
use pss_sim::{
    coalesce_arrivals, sharded_fields_equal, sharding_drift, RoutePolicy, ShardedOutcome,
    ShardedStream, ShardedStreaming, StreamingSimulation,
};
use pss_types::{Instance, Job, JobId, OnlineAlgorithm, Schedule};
use pss_workloads::{ScenarioConfig, ScenarioKind};

fn scenario(kind: ScenarioKind, n_jobs: usize, seed: u64) -> Instance {
    ScenarioConfig {
        n_jobs,
        ..ScenarioConfig::new(kind, seed)
    }
    .generate()
}

fn shard_counts() -> Vec<usize> {
    if std::env::var_os("ROUTE_SMOKE").is_some() {
        vec![1, 2, 4, 8]
    } else {
        vec![1, 4]
    }
}

#[test]
fn replay_is_bit_identical_across_shard_counts_and_policies() {
    let instance = scenario(ScenarioKind::FlashCrowd, 80, 17);
    for shards in shard_counts() {
        for policy in RoutePolicy::all() {
            let harness = ShardedStreaming {
                shards,
                policy,
                coalesce_window: 1e-3,
                price_smoothing: 0.1,
            };
            let a = harness.run(&CllScheduler, &instance).unwrap();
            let b = harness.run(&CllScheduler, &instance).unwrap();
            assert!(
                sharded_fields_equal(&a, &b),
                "replay diverged at S={shards}, policy={}",
                policy.name()
            );
            assert_eq!(a.assignments.len(), instance.len());
            assert_eq!(a.merged.machines, shards * instance.machines);
        }
    }
}

/// A job's hash shard is a pure function of its submission sequence
/// number: price trajectories (here perturbed via the EWMA weight) and
/// burst structure never move it.
#[test]
fn hash_routing_never_moves_a_job() {
    let instance = scenario(ScenarioKind::Diurnal, 64, 5);
    let smooth = ShardedStreaming {
        shards: 4,
        policy: RoutePolicy::HashById,
        coalesce_window: 0.0,
        price_smoothing: 0.1,
    };
    let jumpy = ShardedStreaming {
        coalesce_window: 1e-2,
        price_smoothing: 0.9,
        ..smooth
    };
    let a = smooth.run(&CllScheduler, &instance).unwrap();
    let b = jumpy.run(&CllScheduler, &instance).unwrap();
    assert_eq!(a.assignments, b.assignments);
    // And the assignment is exactly the advertised pure function.
    let prices = vec![0.0; 4];
    for (seq, &shard) in a.assignments.iter().enumerate() {
        assert_eq!(shard, RoutePolicy::HashById.route(seq as u64, &prices));
    }
}

/// With one shard the sharded harness *is* the unsharded simulator: the
/// same record (jobs, decisions, duals, feed times, prices) and the same
/// schedule, bit for bit.  BKP stays out: its grid spans the instance
/// horizon, so it has no horizon-free `start` for a shard.
#[test]
fn one_shard_is_bit_identical_to_the_unsharded_simulator() {
    fn pin<A: OnlineAlgorithm>(algo: &A) {
        let name = algo.algorithm_name();
        for (kind, seed) in [
            (ScenarioKind::FlashCrowd, 3),
            (ScenarioKind::Overload, 9),
            (ScenarioKind::HeavyTailed, 21),
        ] {
            let instance = scenario(kind, 72, seed);
            for window in [0.0, 1e-3] {
                let label = format!("{name} {kind:?} window {window}");
                let sharded = ShardedStreaming {
                    shards: 1,
                    policy: RoutePolicy::CheapestPrice,
                    coalesce_window: window,
                    price_smoothing: 0.1,
                }
                .run(algo, &instance)
                .unwrap();
                let plain = StreamingSimulation::with_coalescing(window)
                    .run(algo, &instance)
                    .unwrap();
                // Both feed each coalesced burst at its last release.
                let mut burst_time = vec![0.0f64; instance.len()];
                for (feed_time, ids) in coalesce_arrivals(&instance, window) {
                    for id in ids {
                        burst_time[id.index()] = feed_time;
                    }
                }
                for e in &plain.events {
                    assert_eq!(e.feed_time.to_bits(), burst_time[e.job.index()].to_bits());
                }
                assert_eq!(sharded.records.len(), 1, "{label}");
                assert!(
                    sharded.records[0] == plain.record,
                    "{label}: records differ"
                );
                assert_eq!(sharded.merged.machines, plain.schedule.machines);
                assert_eq!(sharded.merged.segments.len(), plain.schedule.segments.len());
                for (a, b) in sharded.merged.segments.iter().zip(&plain.schedule.segments) {
                    assert_eq!(a.machine, b.machine);
                    assert_eq!(a.start.to_bits(), b.start.to_bits());
                    assert_eq!(a.end.to_bits(), b.end.to_bits());
                    assert_eq!(a.speed.to_bits(), b.speed.to_bits());
                    assert_eq!(a.job, b.job);
                }
            }
        }
    }
    pin(&CllScheduler);
    pin(&PdScheduler::coarse());
    pin(&OaScheduler);
    pin(&QoaScheduler::default());
    pin(&AvrScheduler);
    pin(&MultiOaScheduler::default());
}

/// The segments a shard has committed into one merged frontier reappear
/// bit-identically, as that shard's lane prefix, in every later merge —
/// and the final merged energy is the sum of the shard energies.
#[test]
fn merged_frontier_is_prefix_stable_and_energy_adds() {
    let instance = scenario(ScenarioKind::FlashCrowd, 60, 29);
    let shards = 3;
    let mut stream = ShardedStream::start(
        &OaScheduler,
        shards,
        instance.machines,
        instance.alpha,
        RoutePolicy::RoundRobin,
        0.1,
    )
    .unwrap();
    let lane = |merged: &Schedule, s: usize| -> Vec<pss_types::Segment> {
        let m = instance.machines;
        merged
            .segments
            .iter()
            .filter(|seg| seg.machine >= s * m && seg.machine < (s + 1) * m)
            .copied()
            .collect()
    };
    let mut previous = stream.merged_frontier().unwrap();
    for (feed_time, ids) in coalesce_arrivals(&instance, 1e-3) {
        let burst: Vec<Job> = ids.iter().map(|&id| *instance.job(id)).collect();
        stream.on_burst(&burst, feed_time).unwrap();
        let current = stream.merged_frontier().unwrap();
        for s in 0..shards {
            let before = lane(&previous, s);
            let after = lane(&current, s);
            assert!(
                before.len() <= after.len(),
                "shard {s} lane shrank between merges"
            );
            for (i, (x, y)) in before.iter().zip(&after).enumerate() {
                assert_eq!(x.machine, y.machine, "shard {s} segment {i} moved lanes");
                assert_eq!(x.start.to_bits(), y.start.to_bits());
                assert_eq!(x.end.to_bits(), y.end.to_bits());
                assert_eq!(x.speed.to_bits(), y.speed.to_bits());
                assert_eq!(x.job, y.job);
            }
        }
        previous = current;
    }
    let report = stream.finish("OA".into()).unwrap();
    let shard_sum: f64 = report
        .shard_schedules
        .iter()
        .map(|s| s.energy(instance.alpha))
        .sum();
    let merged = report.merged_energy(instance.alpha);
    assert!(
        (merged - shard_sum).abs() <= 1e-9 * shard_sum.max(1.0),
        "merged energy {merged} != shard sum {shard_sum}"
    );
    // Every merged segment speaks the logical instance's id vocabulary.
    for seg in &report.merged.segments {
        if let Some(job) = seg.job {
            assert!(job.index() < instance.len(), "dangling merged id {job}");
        }
    }
}

/// The oracle's unsharded column is exactly a plain streaming run, and
/// its sharded column matches the report it returns.
#[test]
fn drift_oracle_totals_are_consistent() {
    let instance = scenario(ScenarioKind::Overload, 56, 41);
    let harness = ShardedStreaming {
        shards: 2,
        policy: RoutePolicy::CheapestPrice,
        coalesce_window: 1e-3,
        price_smoothing: 0.1,
    };
    let (report, drift) = sharding_drift(&CllScheduler, &instance, &harness).unwrap();
    let plain = StreamingSimulation::with_coalescing(1e-3)
        .run(&CllScheduler, &instance)
        .unwrap();
    let plain_value: f64 = plain
        .events
        .iter()
        .filter(|e| e.accepted)
        .map(|e| instance.job(e.job).value)
        .sum();
    assert_eq!(drift.unsharded_value.to_bits(), plain_value.to_bits());
    assert_eq!(
        drift.unsharded_energy.to_bits(),
        plain.schedule.energy(instance.alpha).to_bits()
    );
    assert_eq!(
        drift.sharded_value.to_bits(),
        report.value_accepted(&instance).to_bits()
    );
    assert_eq!(
        drift.sharded_energy.to_bits(),
        report.merged_energy(instance.alpha).to_bits()
    );
    assert!(drift.unsharded_cost.is_finite() && drift.unsharded_cost > 0.0);
    assert!(drift.sharded_cost.is_finite() && drift.sharded_cost > 0.0);
    // Load accounting is total: every arrival landed on exactly one shard.
    assert_eq!(report.shard_loads().iter().sum::<usize>(), instance.len());
    assert!(report.load_imbalance() >= 1.0 - 1e-12);
    let p50 = report.latency_percentile_secs(50.0);
    let p99 = report.latency_percentile_secs(99.0);
    assert!(p50 >= 0.0 && p99 >= p50);
    // JobId vocabulary sanity on the merged schedule.
    assert!(report
        .merged
        .segments
        .iter()
        .filter_map(|s| s.job)
        .all(|j: JobId| j.index() < instance.len()));
}
