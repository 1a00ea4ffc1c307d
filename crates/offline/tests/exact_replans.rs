//! Pins of the exact left-aligned multiprocessor plan ([`MultiStaircase`]):
//! against the converged coordinate descent on random left-aligned
//! instances, against the YDS staircase on one machine, and through the KKT
//! certificate on every replan of an E12 stream on two machines and on a
//! replan whose nearly tight job leaves slivers Chen's rule cannot run.
//!
//! Cases are drawn from the workspace's seeded [`SmallRng`]; equal seeds
//! make every failure reproducible.

use pss_convex::kkt::max_stationarity_violation;
use pss_convex::{solve_min_energy_with, ProgramContext, SolverOptions};
use pss_intervals::WorkAssignment;
use pss_offline::{left_aligned_plan, MultiStaircase};
use pss_power::AlphaPower;
use pss_types::{Instance, Job, JobId, Schedule};
use pss_workloads::{ArrivalModel, RandomConfig, SmallRng, ValueModel};

const ALPHAS: [f64; 4] = [1.5, 2.0, 2.5, 3.0];

/// The left-aligned instance at `now` over `(deadline, work)` items, every
/// job released at `now`.
fn instance(now: f64, machines: usize, alpha: f64, items: &[(f64, f64)]) -> Instance {
    let jobs = items
        .iter()
        .enumerate()
        .map(|(i, &(deadline, work))| Job::new(i, now, deadline, work, 1.0))
        .collect();
    Instance::from_jobs(machines, alpha, jobs).expect("left-aligned instance")
}

/// The solved plan as an assignment over the context's partition: each
/// piece's share goes to the atomic interval holding its midpoint.
fn assignment(ctx: &ProgramContext, plan: &MultiStaircase) -> WorkAssignment {
    let partition = ctx.partition();
    let mut x = WorkAssignment::zeros(ctx.n_jobs(), partition.len());
    for (item, start, end, share) in plan.pieces() {
        let mid = 0.5 * (start + end);
        let k = ctx
            .covered(item)
            .iter()
            .copied()
            .find(|&k| {
                let iv = partition.interval(k);
                iv.start <= mid && mid < iv.end
            })
            .expect("a piece inside the item's window");
        x.set(item, k, x.get(item, k) + share);
    }
    x
}

/// A random left-aligned item set: a fifth of the deadlines tied to an
/// earlier one, works log-uniform over `least..5` and, with `tiny`, a tenth
/// of them 1e-11.
fn random_items(rng: &mut SmallRng, now: f64, n: usize, least: f64, tiny: bool) -> Vec<(f64, f64)> {
    let mut items: Vec<(f64, f64)> = Vec::with_capacity(n);
    for _ in 0..n {
        let deadline = match items.len() {
            0 => now + rng.f64_range(0.05, 4.0),
            len if rng.f64_range(0.0, 1.0) < 0.2 => items[rng.usize_range(0, len - 1)].0,
            _ => now + rng.f64_range(0.05, 4.0),
        };
        let work = if tiny && rng.f64_range(0.0, 1.0) < 0.1 {
            1e-11
        } else {
            10f64.powf(rng.f64_range(least.log10(), 5f64.log10()))
        };
        items.push((deadline, work));
    }
    items
}

/// The exact plan is the optimum the converged coordinate descent
/// approaches: energy within 1e-9 of it, every row summing to 1, and the
/// KKT conditions met to 1e-9, on random left-aligned instances whose works
/// reach down to 1e-11.
#[test]
fn the_exact_plan_is_the_converged_descents_optimum() {
    let mut rng = SmallRng::seed_from_u64(0xE8AC7);
    let mut plan = MultiStaircase::default();
    let (mut worst_gap, mut worst_kkt) = (0.0_f64, 0.0_f64);
    let cases = 300;
    for case in 0..cases {
        let machines = rng.usize_range(1, 4);
        let alpha = ALPHAS[rng.usize_range(0, ALPHAS.len() - 1)];
        let now = rng.f64_range(0.0, 10.0);
        let n = rng.usize_range(1, 14);
        let items = random_items(&mut rng, now, n, 1e-6, true);
        let ctx = ProgramContext::new(&instance(now, machines, alpha, &items));
        plan.solve(now, machines, AlphaPower::new(alpha), items.iter().copied())
            .expect("exact plan");
        let x = assignment(&ctx, &plan);
        let label = format!("case {case}: now = {now}, m = {machines}, alpha = {alpha}, {items:?}");
        for job in 0..n {
            let row = ctx.assigned_fraction(&x, job);
            assert!(
                (row - 1.0).abs() <= 1e-12,
                "{label}: row {job} sums to {row}"
            );
        }
        let kkt = max_stationarity_violation(&ctx, &x).max_violation;
        assert!(kkt <= 1e-9, "{label}: KKT violation {kkt}");
        worst_kkt = worst_kkt.max(kkt);
        // The descent stops on an improvement below `energy_tol · max(1,
        // energy)`; scaled by the energy, the stop is relative below 1.
        let exact = ctx.total_energy(&x);
        let converged = SolverOptions {
            max_passes: 4_000,
            energy_tol: 1e-13 * exact.min(1.0),
        };
        let cold = solve_min_energy_with(&ctx, &converged).energy;
        let gap = (exact - cold) / cold;
        assert!(
            gap.abs() <= 1e-9,
            "{label}: energy {exact} vs descent {cold}"
        );
        worst_gap = worst_gap.max(gap.abs());
    }
    println!(
        "exact plan over {cases} cases: worst energy gap {worst_gap:.2e}, worst KKT violation \
         {worst_kkt:.2e}"
    );
}

/// A replan OA(m)'s m = 1 E12 stream reached: item 1's remaining work fills
/// its window up to the rounding its executed segments left, so the exact
/// plan gives items 0 and 4 about 1e-15 of time beside it in the first
/// interval, works Chen's rule would leave idle beside item 1's machine.
/// The plan drops those slivers, so the KKT certificate holds.
#[test]
fn a_nearly_tight_jobs_slivers_are_not_left_idle() {
    let now = 17.764225606413497;
    let items = [
        (17.88431457355569, 0.31980778548683114),
        (17.78320667235335, 0.13912323911577712),
        (18.628959489613084, 1.1134054611701303),
        (18.85098422068922, 0.5485748761020417),
        (17.989189336723584, 1.1899586080177105),
        (18.59995896103435, 1.2943716362663655),
        (19.650901030162117, 1.442304039461416),
        (19.2231498271505, 0.5300998097132139),
        (19.039617116115757, 1.9032862055069328),
        (20.37635086398518, 1.289132884625281),
        (19.91375683290655, 0.767426641418107),
    ];
    let mut plan = MultiStaircase::default();
    plan.solve(now, 1, AlphaPower::new(2.5), items.iter().copied())
        .expect("exact plan");
    let ctx = ProgramContext::new(&instance(now, 1, 2.5, &items));
    let x = assignment(&ctx, &plan);
    for job in 0..items.len() {
        let row = ctx.assigned_fraction(&x, job);
        assert!((row - 1.0).abs() <= 1e-12, "row {job} sums to {row}");
    }
    let kkt = max_stationarity_violation(&ctx, &x).max_violation;
    assert!(kkt <= 1e-9, "KKT violation {kkt}");
}

/// On one machine the staircase's classes are YDS's steps: every item runs
/// at the speed the left-aligned YDS plan gives it, on the item sets of the
/// `m > 1` pin, whose works reach down to 1e-11.  Each YDS step's work is
/// summed over its own items, so a tiny step after large ones carries none
/// of their rounding.
#[test]
fn one_machine_speeds_are_the_yds_staircases() {
    let mut rng = SmallRng::seed_from_u64(0x5EED1);
    let mut plan = MultiStaircase::default();
    let speed_of = |schedule: &Schedule, item: usize| {
        schedule
            .segments
            .iter()
            .filter(|s| s.job == Some(JobId(item)))
            .map(|s| s.speed)
            .fold(0.0_f64, f64::max)
    };
    for case in 0..300 {
        let now = rng.f64_range(0.0, 10.0);
        let n = rng.usize_range(1, 14);
        let items = random_items(&mut rng, now, n, 1e-6, true);
        let yds = left_aligned_plan(now, &items).expect("YDS staircase");
        plan.solve(now, 1, AlphaPower::new(2.0), items.iter().copied())
            .expect("exact plan");
        let mut exact = Schedule::empty(1);
        plan.realize_window(f64::INFINITY, &mut exact);
        for item in 0..n {
            let (want, got) = (speed_of(&yds, item), speed_of(&exact, item));
            if want == 0.0 {
                // `Schedule::push` drops a segment this slow or this short.
                continue;
            }
            assert!(
                (got - want).abs() <= 1e-12 * want,
                "case {case}, item {item}: speed {got} vs YDS {want} ({items:?})"
            );
        }
    }
}

/// An E12 stream on two machines (Poisson arrivals at rate 4, α = 2.5).
fn e12_stream(n: usize, seed: u64) -> Instance {
    RandomConfig {
        n_jobs: n,
        machines: 2,
        alpha: 2.5,
        arrival: ArrivalModel::Poisson { rate: 4.0 },
        value: ValueModel::ProportionalToEnergy { min: 0.3, max: 4.0 },
        ..RandomConfig::standard(seed)
    }
    .generate()
}

/// A pending job of [`every_replan_of_an_e12_stream_carries_the_kkt_certificate`]:
/// deadline, remaining work, and its plan's `(start, end, share)` pieces.
struct Pending {
    deadline: f64,
    remaining: f64,
    pieces: Vec<(f64, f64, f64)>,
}

/// The replans OA(m) solves along an E12 m = 2 stream: at every arrival
/// the pending jobs' windows start at the arrival time, and each job's
/// remaining work is what its previous plan left after running its pieces
/// at constant speed until then.  Every replan's exact plan carries the KKT
/// certificate.
#[test]
fn every_replan_of_an_e12_stream_carries_the_kkt_certificate() {
    let stream = e12_stream(300, 7);
    let mut plan = MultiStaircase::default();
    let mut pending: Vec<Pending> = Vec::new();
    let (mut last, mut worst, mut replans) = (f64::NEG_INFINITY, 0.0_f64, 0);
    for id in stream.arrival_order() {
        let job = stream.job(id);
        let now = job.release.max(last);
        for p in &mut pending {
            let done: f64 = p
                .pieces
                .iter()
                .map(|&(s, e, f)| f * (now.min(e) - s.max(last)).max(0.0) / (e - s))
                .sum();
            p.remaining *= (1.0 - done).max(0.0);
        }
        pending.retain(|p| p.deadline > now && p.remaining > 1e-9);
        pending.push(Pending {
            deadline: job.deadline,
            remaining: job.work,
            pieces: Vec::new(),
        });
        last = now;
        let items: Vec<(f64, f64)> = pending.iter().map(|p| (p.deadline, p.remaining)).collect();
        plan.solve(now, 2, AlphaPower::new(2.5), items.iter().copied())
            .expect("exact replan");
        let ctx = ProgramContext::new(&instance(now, 2, 2.5, &items));
        let kkt = max_stationarity_violation(&ctx, &assignment(&ctx, &plan)).max_violation;
        assert!(
            kkt <= 1e-9,
            "replan at {now}: KKT violation {kkt} ({items:?})"
        );
        worst = worst.max(kkt);
        replans += 1;
        for p in &mut pending {
            p.pieces.clear();
        }
        for (item, start, end, share) in plan.pieces() {
            pending[item].pieces.push((start, end, share));
        }
    }
    println!("{replans} replans, worst KKT violation {worst:.2e}");
}
