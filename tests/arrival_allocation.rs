//! Micro-test: the warm arrival paths allocate `O(active set)` per arrival,
//! independent of how long the stream has been running.  OA, qOA and CLL
//! plan each window into a reused buffer and CLL's admission reads its
//! speed from reused scratch, so their count stays under 3 per arrival.
//!
//! PR 2/3 replaced the per-arrival full-history rebuilds (fresh
//! `Instance`/`ProgramContext` clones in PD, from-scratch YDS solves in the
//! replanning executor, full job-history scans in AVR/BKP) with persistent
//! indices maintained across arrivals.  The remaining per-arrival work —
//! pending-set snapshots for the planner, the plan itself, the committed
//! segment — is bounded by the *active* set, not the stream length.  This
//! test pins that property operationally: it feeds a long Poisson stream
//! with a bounded active set through the incremental runs and asserts that
//! the number of allocations per arrival does not grow between an early and
//! a late window of the stream (a full-history clone per arrival would make
//! the late window's allocation count scale with the history size).
//!
//! Everything lives in a single `#[test]` because the counting allocator is
//! a process-wide global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

mod common;

use pss_core::baselines::oa::OaPlanner;
use pss_core::baselines::replan::{AdmitAll, OnlineEnv, ReplanState};
use pss_core::prelude::*;
use pss_workloads::{ScenarioConfig, ScenarioKind};

/// Counts every allocation and reallocation (not bytes: a doubling realloc
/// of a long-lived buffer is amortised-O(1) per arrival and counts once).
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The pin's arrival rate: a Poisson stream at this rate keeps about ten
/// jobs pending at a time.
const RATE: f64 = 4.0;

/// A Poisson stream on one machine with a bounded active set.
fn stream(n: usize, seed: u64, rate: f64) -> Instance {
    stream_on(1, n, seed, rate)
}

/// The Poisson stream of E12 and sim-oam2 (`stream_instance_on`) over
/// `machines` machines.
fn stream_on(machines: usize, n: usize, seed: u64, rate: f64) -> Instance {
    common::poisson_profitable(seed, machines, 2.5, n, rate)
}

/// The allocations of one fed stream: in the arrival windows `[lo, lo+len)`
/// and `[hi, hi+len)` and over the whole stream, and the largest
/// pending-set size observed.
struct Counts {
    early: usize,
    late: usize,
    total: usize,
    max_pending: usize,
}

/// Feeds the whole stream to `run`, one arrival at a time, counting its
/// allocations; `peek` reads the pending-set size after every arrival.
fn windows<R: OnlineScheduler>(
    run: &mut R,
    instance: &Instance,
    (lo, hi, len): (usize, usize, usize),
    mut peek: impl FnMut(&R) -> usize,
) -> Counts {
    let mut counts = Counts {
        early: 0,
        late: 0,
        total: 0,
        max_pending: 0,
    };
    for (i, id) in instance.arrival_order().into_iter().enumerate() {
        let job = instance.job(id);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        run.on_arrival(job, job.release).expect("arrival");
        let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
        if (lo..lo + len).contains(&i) {
            counts.early += spent;
        } else if (hi..hi + len).contains(&i) {
            counts.late += spent;
        }
        counts.total += spent;
        counts.max_pending = counts.max_pending.max(peek(run));
    }
    counts
}

/// Prints the per-arrival counts of the two windows of `len` arrivals and
/// asserts they are flat.
fn assert_flat(label: &str, counts: &Counts, len: usize) {
    let (early, late) = (counts.early, counts.late);
    println!(
        "{label}: {:.1} allocations per arrival early, {:.1} late",
        early as f64 / len as f64,
        late as f64 / len as f64
    );
    // A full-history clone per arrival would make `late` scale with the
    // ~4x larger history; genuine per-arrival work is active-set-bounded
    // and stays put.  The slack absorbs occasional buffer doublings.
    assert!(
        late <= 2 * early + 64,
        "{label}: allocations grew with the stream — {early} in the early \
         window vs {late} in the late window"
    );
}

/// Prints the allocations per arrival over a whole stream of `n` arrivals
/// and asserts they stay under `bound`.
fn assert_under(label: &str, counts: &Counts, n: usize, bound: f64) {
    let per_arrival = counts.total as f64 / n as f64;
    println!("{label}: {per_arrival:.2} allocations per arrival over {n} arrivals");
    assert!(
        per_arrival < bound,
        "{label} allocates {per_arrival:.2} times per arrival (bound {bound})"
    );
}

#[test]
fn incremental_arrival_paths_do_not_allocate_with_history_size() {
    let n = 2000;
    let instance = stream(n, 8600, RATE);
    let windows_spec = (300usize, 1600usize, 200usize);
    let len = windows_spec.2;

    // OA through the warm replanning executor: the satellite audit target.
    let mut oa = ReplanState::new(
        OaPlanner { speed_factor: 1.0 },
        AdmitAll,
        OnlineEnv {
            machines: 1,
            alpha: instance.alpha,
        },
    );
    let counts = windows(&mut oa, &instance, windows_spec, |run| run.pending().len());
    assert_flat("OA warm replans", &counts, len);
    assert!(
        counts.max_pending <= 64,
        "OA pending set not bounded by the active set: {}",
        counts.max_pending
    );
    assert_under("OA", &counts, n, 3.0);

    // qOA shares OA's executor; CLL adds its admission rule, which reads
    // the new job's planned speed from scratch reused across arrivals.
    let mut qoa = QoaScheduler::default()
        .start_for(&instance)
        .expect("qOA run");
    let counts = windows(&mut qoa, &instance, windows_spec, |_| 0);
    assert_flat("qOA warm replans", &counts, len);
    assert_under("qOA", &counts, n, 3.0);
    let mut cll = CllScheduler.start_for(&instance).expect("CLL run");
    let counts = windows(&mut cll, &instance, windows_spec, |_| 0);
    assert_flat("CLL warm replans", &counts, len);
    assert_under("CLL", &counts, n, 3.0);

    // OA(m) at m = 2 on the E12 stream sim-oam2 runs: reported, not gated
    // (its coordinate descent builds a program context per replan).
    let oam_stream = stream_on(2, 2500, 7, RATE);
    let mut oam = MultiOaScheduler::default()
        .start_for(&oam_stream)
        .expect("OA(m) run");
    let counts = windows(&mut oam, &oam_stream, windows_spec, |_| 0);
    println!(
        "OA(m) at m = 2: {:.1} allocations per arrival over {} arrivals",
        counts.total as f64 / oam_stream.len() as f64,
        oam_stream.len()
    );

    // AVR through the active-set index.
    let mut avr = AvrScheduler.start_for(&instance).expect("AVR run");
    let counts = windows(&mut avr, &instance, windows_spec, |_| 0);
    assert_flat("AVR indexed commits", &counts, len);

    // BKP through the resident speed index, whose deadline list also
    // drives its EDF dispatch.
    let bkp = BkpScheduler::default();
    let mut run = bkp.start_for(&instance).expect("BKP run");
    let counts = windows(&mut run, &instance, windows_spec, |_| 0);
    assert_flat("BKP indexed grid", &counts, len);

    // PD through its live planning context, which fills and commits
    // through reused buffers: its allocations per arrival are flat, and
    // they do not depend on how many intervals a job covers either, which
    // ten times the rate multiplies.
    let pd = PdScheduler::coarse();
    let mut run = pd.start(1, instance.alpha).expect("PD run");
    let counts = windows(&mut run, &instance, windows_spec, |_| 0);
    assert_flat("PD live context", &counts, len);
    for rate in [RATE, 10.0 * RATE] {
        let instance = stream(n, 8602, rate);
        let mut run = pd.start(1, instance.alpha).expect("PD run");
        let counts = windows(&mut run, &instance, windows_spec, |_| 0);
        let per_arrival = counts.total as f64 / n as f64;
        println!("PD at rate {rate}: {per_arrival:.1} allocations per arrival over {n} arrivals");
        assert!(
            per_arrival < 10.0,
            "PD allocates {per_arrival:.1} times per arrival at rate {rate}"
        );
    }
    // A rejected job allocates nothing but its decision: on E16's overload
    // scenario PD rejects every job, and the fill stopped at the cap
    // builds no placement.
    let overload = ScenarioConfig {
        n_jobs: 500,
        ..ScenarioConfig::new(ScenarioKind::Overload, 7)
    }
    .generate();
    let mut run = pd.start(1, overload.alpha).expect("PD run");
    let counts = windows(&mut run, &overload, windows_spec, |_| 0);
    assert!(
        run.finish().expect("finish").segments.is_empty(),
        "PD accepted an overload job"
    );
    let per_arrival = counts.total as f64 / overload.len() as f64;
    println!("PD on overload: {per_arrival:.2} allocations per arrival, every job rejected");
    assert!(
        per_arrival < 1.5,
        "PD allocates {per_arrival:.2} times per rejected arrival"
    );

    // Burst ingestion: with the replan shared by the whole burst, the
    // allocation count *per arrival* must not grow with the burst size b —
    // a batch path that secretly re-planned per job would scale ~b-fold.
    let per_arrival = |b: usize, seed: u64| -> usize {
        let inst = common::bursty_poisson_profitable(seed, 1, 2.5, n, b, RATE / b as f64, 0.0);
        // Group the stream into its equal-release bursts up front, so the
        // measurement covers only the ingestion calls.
        let mut bursts: Vec<(f64, Vec<Job>)> = Vec::new();
        for id in inst.arrival_order() {
            let job = *inst.job(id);
            match bursts.last_mut() {
                Some((t, jobs)) if job.release == *t => jobs.push(job),
                _ => bursts.push((job.release, vec![job])),
            }
        }
        let mut run = ReplanState::new(
            OaPlanner { speed_factor: 1.0 },
            AdmitAll,
            OnlineEnv {
                machines: 1,
                alpha: inst.alpha,
            },
        );
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for (t, jobs) in &bursts {
            run.on_arrivals(jobs, *t).expect("burst");
        }
        (ALLOCATIONS.load(Ordering::Relaxed) - before) / n
    };
    let at_b4 = per_arrival(4, 8700);
    let at_b16 = per_arrival(16, 8701);
    println!("OA bursts: {at_b4} allocations per arrival at b = 4, {at_b16} at b = 16");
    assert!(
        at_b16 <= at_b4 + at_b4 / 2 + 8,
        "OA burst ingestion allocations grew with b: {at_b4}/arrival at b=4 \
         vs {at_b16}/arrival at b=16"
    );
}
