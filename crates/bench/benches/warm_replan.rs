//! Criterion bench: the incremental arrival path of every algorithm with a
//! fast one.  OA and OA(m) (the replanning executor) run warm-started
//! against their rebuild-per-arrival baselines; PD's persistent planning
//! context, AVR's active-set index and BKP's resident speed index (whose
//! deadline list also drives its EDF dispatch) run on their own (each has
//! one arrival path, pinned to its batch reference by the test suite).
//!
//! The workload is a Poisson stream with a bounded active set, so the
//! per-arrival cost of the warm paths stays flat as the stream grows while
//! the rebuild paths degrade with the history size.  The measured quantity
//! is the *total arrival-processing time* of feeding the whole stream to a
//! fresh run (no `finish`, no validation) — the serving-path metric.
//!
//! The rebuild baselines are quadratic (or worse) per stream; OA(m)'s, the
//! heaviest, is benched at smaller sizes where the comparison is already
//! decisive (the E12 experiment tabulates the same speedups).  Set `WARM_REPLAN_SMOKE=1` to shrink every size for
//! CI smoke runs — the smoke step covers all five algorithm groups, so a
//! regression in any fast arrival path fails CI.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use pss_bench::experiments::streaming::{stream_instance, stream_instance_on};
use pss_core::baselines::oa::{MultiOaPlanner, OaPlanner};
use pss_core::baselines::replan::{AdmitAll, OnlineEnv, ReplanState};
use pss_core::prelude::*;

fn smoke() -> bool {
    std::env::var_os("WARM_REPLAN_SMOKE").is_some()
}

/// Feeds every arrival to the run and returns the frontier size (to keep the
/// work observable).
fn feed_all<R: OnlineScheduler>(mut run: R, instance: &Instance) -> usize {
    for id in instance.arrival_order() {
        let job = instance.job(id);
        run.on_arrival(job, job.release).expect("arrival");
    }
    run.frontier().segments.len()
}

fn oa_run(alpha: f64, warm: bool) -> ReplanState<OaPlanner, AdmitAll> {
    ReplanState::new(
        OaPlanner { speed_factor: 1.0 },
        AdmitAll,
        OnlineEnv { machines: 1, alpha },
    )
    .with_warm_start(warm)
}

fn bench_oa_arrivals(c: &mut Criterion) {
    let sizes: &[usize] = if smoke() { &[200] } else { &[2000, 10000] };
    let mut group = c.benchmark_group("oa_arrivals");
    group.sample_size(10);
    for &n in sizes {
        let inst = stream_instance(n, 7100 + n as u64);
        group.bench_with_input(BenchmarkId::new("warm", n), &inst, |b, inst| {
            b.iter(|| std::hint::black_box(feed_all(oa_run(inst.alpha, true), inst)))
        });
        group.bench_with_input(BenchmarkId::new("from_scratch", n), &inst, |b, inst| {
            b.iter(|| std::hint::black_box(feed_all(oa_run(inst.alpha, false), inst)))
        });
    }
    group.finish();
}

fn bench_pd_arrivals(c: &mut Criterion) {
    let sizes: &[usize] = if smoke() { &[200] } else { &[2000, 10000] };
    let mut group = c.benchmark_group("pd_arrivals");
    group.sample_size(10);
    for &n in sizes {
        let inst = stream_instance(n, 7100 + n as u64);
        group.bench_with_input(BenchmarkId::new("warm", n), &inst, |b, inst| {
            b.iter(|| {
                let run = PdScheduler::coarse().start_for(inst).expect("PD run");
                std::hint::black_box(feed_all(run, inst))
            })
        });
    }
    group.finish();
}

fn bench_avr_arrivals(c: &mut Criterion) {
    let sizes: &[usize] = if smoke() { &[200] } else { &[2000, 10000] };
    let mut group = c.benchmark_group("avr_arrivals");
    group.sample_size(10);
    for &n in sizes {
        let inst = stream_instance(n, 7100 + n as u64);
        group.bench_with_input(BenchmarkId::new("indexed", n), &inst, |b, inst| {
            b.iter(|| {
                let run = AvrScheduler.start_for(inst).expect("AVR run");
                std::hint::black_box(feed_all(run, inst))
            })
        });
    }
    group.finish();
}

fn bench_bkp_arrivals(c: &mut Criterion) {
    let sizes: &[usize] = if smoke() { &[200] } else { &[2000, 10000] };
    let algo = BkpScheduler::default();
    let mut group = c.benchmark_group("bkp_arrivals");
    group.sample_size(10);
    for &n in sizes {
        let inst = stream_instance(n, 7100 + n as u64);
        group.bench_with_input(BenchmarkId::new("indexed", n), &inst, |b, inst| {
            b.iter(|| {
                let run = algo.start_for(inst).expect("BKP run");
                std::hint::black_box(feed_all(run, inst))
            })
        });
    }
    group.finish();
}

fn multi_oa_run(machines: usize, alpha: f64, warm: bool) -> ReplanState<MultiOaPlanner, AdmitAll> {
    ReplanState::new(
        MultiOaPlanner {
            options: Default::default(),
        },
        AdmitAll,
        OnlineEnv { machines, alpha },
    )
    .with_warm_start(warm)
}

fn bench_multi_oa_arrivals(c: &mut Criterion) {
    // The convex replanner is much heavier per arrival than the
    // single-machine planners, so the sizes are smaller; warm and
    // from-scratch run the same sizes — the speedup is per-replan (descent
    // passes), not asymptotic in the history.
    let sizes: &[usize] = if smoke() { &[60] } else { &[300, 600] };
    let mut group = c.benchmark_group("multi_oa_arrivals");
    group.sample_size(10);
    for &machines in &[1usize, 2] {
        for &n in sizes {
            let inst = stream_instance_on(machines, n, 7100 + n as u64);
            let label = |kind: &str| format!("{kind}/m{machines}");
            group.bench_with_input(BenchmarkId::new(label("warm"), n), &inst, |b, inst| {
                b.iter(|| {
                    std::hint::black_box(feed_all(multi_oa_run(machines, inst.alpha, true), inst))
                })
            });
            group.bench_with_input(
                BenchmarkId::new(label("from_scratch"), n),
                &inst,
                |b, inst| {
                    b.iter(|| {
                        std::hint::black_box(feed_all(
                            multi_oa_run(machines, inst.alpha, false),
                            inst,
                        ))
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_oa_arrivals,
    bench_pd_arrivals,
    bench_avr_arrivals,
    bench_bkp_arrivals,
    bench_multi_oa_arrivals
);
criterion_main!(benches);
