//! Randomised property tests of the convex-program machinery: water-filling
//! invariants, duality (weak duality against explicitly constructed feasible
//! schedules), and solver optimality against per-job balance conditions.
//!
//! Cases are drawn from the workspace's seeded [`SmallRng`] (no crates.io
//! access, so `proptest` is unavailable); equal seeds make every failure
//! reproducible.

use pss_convex::{
    dual_bound, solve_min_energy, solve_min_energy_warm, solve_min_energy_with, waterfill_job,
    Capacities, MinEnergySolution, ProgramContext, SolverOptions, WaterfillOptions,
    WaterfillResult,
};
use pss_intervals::WorkAssignment;
use pss_power::AlphaPower;
use pss_types::num::{bisect_nondecreasing, stable_sum, Tolerance};
use pss_types::{Instance, Job};
use pss_workloads::{ArrivalModel, RandomConfig, SmallRng, ValueModel};

const ALPHAS: [f64; 4] = [1.5, 2.0, 2.5, 3.0];

/// A small random instance with valid windows.
fn random_instance(rng: &mut SmallRng, max_jobs: usize, max_machines: usize) -> Instance {
    let n = rng.usize_range(1, max_jobs);
    let machines = rng.usize_range(1, max_machines);
    let alpha = ALPHAS[rng.usize_range(0, ALPHAS.len() - 1)];
    let jobs: Vec<(f64, f64, f64, f64)> = (0..n)
        .map(|_| {
            let r = rng.f64_range(0.0, 5.0);
            let window = rng.f64_range(0.2, 4.0);
            let w = rng.f64_range(0.1, 3.0);
            let v = rng.f64_range(0.0, 10.0);
            (r, r + window, w, v)
        })
        .collect();
    Instance::from_tuples(machines, alpha, jobs).expect("valid random instance")
}

/// Water filling a job with no level cap always places the whole job,
/// only into intervals the job covers, with nonnegative fractions.
#[test]
fn waterfill_places_exactly_the_whole_job() {
    let mut rng = SmallRng::seed_from_u64(0xC0 + 1);
    for _ in 0..48 {
        let inst = random_instance(&mut rng, 6, 4);
        let job = rng.usize_range(0, inst.len() - 1);
        let ctx = ProgramContext::new(&inst);
        let x = WorkAssignment::zeros(inst.len(), ctx.partition().len());
        let fill = waterfill_job(&ctx, &x, job, &WaterfillOptions::default());
        assert!(fill.saturated);
        assert!((fill.total - 1.0).abs() < 1e-6, "total {}", fill.total);
        for (k, f) in &fill.added {
            assert!(*f >= 0.0);
            assert!(ctx.covered(job).contains(k), "interval {k} not covered");
        }
    }
}

/// A marginal cap never increases the amount placed, and the reported
/// level never exceeds the cap.
#[test]
fn waterfill_cap_is_respected() {
    let mut rng = SmallRng::seed_from_u64(0xC0 + 2);
    for _ in 0..48 {
        let inst = random_instance(&mut rng, 5, 3);
        let cap = rng.f64_range(0.01, 5.0);
        let ctx = ProgramContext::new(&inst);
        let x = WorkAssignment::zeros(inst.len(), ctx.partition().len());
        let free = waterfill_job(&ctx, &x, 0, &WaterfillOptions::default());
        let capped = waterfill_job(
            &ctx,
            &x,
            0,
            &WaterfillOptions {
                max_marginal: Some(cap),
                ..Default::default()
            },
        );
        assert!(capped.total <= free.total + 1e-9);
        assert!(capped.level_marginal <= cap * (1.0 + 1e-6) + 1e-9);
    }
}

/// Weak duality: for arbitrary nonnegative duals, g(λ) never exceeds the
/// cost of the "finish everything optimally" schedule nor the cost of
/// the "reject everything" schedule.
#[test]
fn dual_bound_respects_weak_duality() {
    let mut rng = SmallRng::seed_from_u64(0xC0 + 3);
    for _ in 0..48 {
        let inst = random_instance(&mut rng, 5, 3);
        let ctx = ProgramContext::new(&inst);
        let lambda: Vec<f64> = (0..inst.len()).map(|_| rng.f64_range(0.0, 8.0)).collect();
        let g = dual_bound(&ctx, &lambda).value;

        // Feasible schedule 1: reject everything.
        assert!(g <= inst.total_value() + 1e-6);

        // Feasible schedule 2: finish everything with the offline solver.
        let sol = solve_min_energy(&ctx);
        assert!(
            g <= sol.energy + 1e-5 * sol.energy.max(1.0) + 1e-6,
            "g = {g} exceeds finish-all energy {}",
            sol.energy
        );
    }
}

/// The offline solver's energy never exceeds the energy of the simple
/// feasible solution that spreads every job uniformly over its window,
/// and realising its assignment yields a schedule finishing every job.
#[test]
fn solver_beats_uniform_spreading() {
    let mut rng = SmallRng::seed_from_u64(0xC0 + 4);
    for _ in 0..48 {
        let inst = random_instance(&mut rng, 5, 3);
        let ctx = ProgramContext::new(&inst);
        let sol = solve_min_energy(&ctx);

        // Uniform spreading: x_{jk} = l_k / window_j for covered intervals.
        let mut uniform = WorkAssignment::zeros(inst.len(), ctx.partition().len());
        for job in &inst.jobs {
            let j = job.id.index();
            for &k in ctx.covered(j) {
                uniform.set(j, k, ctx.partition().length(k) / job.window());
            }
        }
        let uniform_energy = ctx.total_energy(&uniform);
        assert!(
            sol.energy <= uniform_energy + 1e-5 * uniform_energy.max(1.0),
            "solver {} worse than uniform {uniform_energy}",
            sol.energy
        );

        let schedule = ctx.realize_schedule(&sol.assignment);
        let report = pss_types::validate_schedule(&inst, &schedule).expect("feasible");
        assert!(
            report.rejected.is_empty(),
            "solver failed to finish: {:?}",
            report.rejected
        );
    }
}

// ---------------------------------------------------------------------------
// The guarded level search against a plain bisection, bit for bit.
// ---------------------------------------------------------------------------

/// Fills the bit-identity sweep compares: a few thousand by default, and
/// `WATERFILL_SMOKE=1` (the CI streaming smoke, in release) sweeps 2×10⁵.
fn sweep_fills() -> usize {
    if std::env::var_os("WATERFILL_SMOKE").is_some() {
        200_000
    } else {
        3_000
    }
}

/// One candidate interval of a fill: the interval's index (echoed back in
/// the result's `added` pairs), its length, and the works the *other* jobs
/// place in it (order irrelevant; non-positive entries are ignored).
#[derive(Debug, Clone)]
struct WaterfillCandidate {
    interval: usize,
    length: f64,
    other_works: Vec<f64>,
}

/// Fills through the one reused [`Capacities`] buffer, as a caller filling
/// job after job does: cleared, refilled with `candidates`, filled.
fn buffer_fill(
    capacities: &mut Capacities,
    power: AlphaPower,
    m: usize,
    w_j: f64,
    candidates: &[WaterfillCandidate],
    opts: &WaterfillOptions,
) -> WaterfillResult {
    capacities.clear();
    for c in candidates {
        capacities.push(c.interval, c.length, c.other_works.iter().copied());
    }
    capacities.fill(power, m, w_j, opts)
}

/// One interval of [`plain_fill`]: its other works in decreasing order and
/// their prefix sums.
struct PlainCapacity {
    interval: usize,
    length: f64,
    sorted_works: Vec<f64>,
    prefix: Vec<f64>,
}

impl PlainCapacity {
    fn new(c: &WaterfillCandidate) -> Self {
        let mut works = c.other_works.clone();
        works.retain(|u| *u > 0.0);
        works.sort_by(|a, b| b.total_cmp(a));
        let mut prefix = vec![0.0];
        let mut acc = 0.0;
        for u in &works {
            acc += u;
            prefix.push(acc);
        }
        Self {
            interval: c.interval,
            length: c.length,
            sorted_works: works,
            prefix,
        }
    }

    fn capacity(&self, speed: f64, machines: usize) -> f64 {
        if speed <= 0.0 {
            return 0.0;
        }
        let threshold = speed * self.length;
        let above = self.sorted_works.partition_point(|u| *u > threshold);
        if above >= machines {
            return 0.0;
        }
        let q = (machines - above) as f64;
        let b_small = self.prefix[self.sorted_works.len()] - self.prefix[above];
        let machine_cap = (q * threshold - b_small).max(0.0);
        threshold.min(machine_cap)
    }
}

/// The water-fill with an unguarded comparator: the same capacity sum,
/// start, doubling, cap, bisection and rescaling as [`Capacities::fill`],
/// evaluating the sum at every point the doubling and the bisection ask
/// for.
fn plain_fill(
    power: AlphaPower,
    m: usize,
    w_j: f64,
    candidates: &[WaterfillCandidate],
    opts: &WaterfillOptions,
) -> WaterfillResult {
    let caps: Vec<PlainCapacity> = candidates.iter().map(PlainCapacity::new).collect();
    let fraction_at = |s: f64| stable_sum(caps.iter().map(|c| c.capacity(s, m))) / w_j;
    let result = |level: f64, saturated: bool| {
        let mut added: Vec<(usize, f64)> = caps
            .iter()
            .map(|c| (c.interval, c.capacity(level, m) / w_j))
            .filter(|(_, f)| *f > 0.0)
            .collect();
        let mut total = stable_sum(added.iter().map(|(_, f)| *f));
        if saturated && total > 0.0 {
            let scale = opts.max_fraction / total;
            for (_, f) in &mut added {
                *f *= scale;
            }
            total = opts.max_fraction;
        }
        WaterfillResult {
            added,
            total,
            level_speed: level,
            level_marginal: power.dual_value(level, w_j),
            saturated: saturated && total >= opts.max_fraction * (1.0 - 1e-9),
        }
    };
    let speed_cap = opts.max_marginal.map(|mm| power.dual_speed(mm, w_j));
    if let Some(cap) = speed_cap {
        if fraction_at(cap) < opts.max_fraction * (1.0 - 1e-12) {
            return result(cap, false);
        }
    }
    let max_existing = caps
        .iter()
        .flat_map(|c| c.sorted_works.first().map(|u| u / c.length))
        .fold(0.0_f64, f64::max);
    let total_length: f64 = caps.iter().map(|c| c.length).sum();
    let mut hi = (max_existing + w_j * opts.max_fraction / total_length).max(1e-9);
    let mut guard = 0;
    while fraction_at(hi) < opts.max_fraction && guard < 200 {
        hi *= 2.0;
        guard += 1;
    }
    if let Some(cap) = speed_cap {
        hi = hi.min(cap);
    }
    let level = bisect_nondecreasing(0.0, hi, opts.max_fraction, opts.tol, fraction_at);
    result(level, true)
}

/// Whether two fills agree bit for bit: level, placed fractions, total and
/// saturation.
fn same_fill(a: &WaterfillResult, b: &WaterfillResult) -> bool {
    let bits = |r: &WaterfillResult| -> Vec<(usize, u64)> {
        r.added.iter().map(|&(k, f)| (k, f.to_bits())).collect()
    };
    a.level_speed.to_bits() == b.level_speed.to_bits()
        && bits(a) == bits(b)
        && a.total.to_bits() == b.total.to_bits()
        && a.saturated == b.saturated
}

/// A random fill's candidates over `m` machines, shaped by `shape`: 0
/// plain, 1 equal works, 2 empty intervals among full ones, 3 a 1e-12-long
/// interval beside a long one.
fn random_candidates(rng: &mut SmallRng, m: usize, shape: usize) -> Vec<WaterfillCandidate> {
    let n = rng.usize_range(1, 7);
    let equal = rng.f64_range(0.05, 3.0);
    (0..n)
        .map(|k| {
            let length = match shape {
                3 if k == 0 => 1e-12,
                3 => rng.f64_range(1.0, 10.0),
                _ => rng.f64_range(0.02, 3.0),
            };
            let count = if shape == 2 && k % 2 == 0 {
                0
            } else {
                rng.usize_range(0, m + 3)
            };
            let other_works = (0..count)
                .map(|_| match shape {
                    1 => equal,
                    3 if k == 0 => rng.f64_range(0.0, 2e-12),
                    _ => rng.f64_range(0.0, 4.0),
                })
                .collect();
            WaterfillCandidate {
                interval: k,
                length,
                other_works,
            }
        })
        .collect()
}

/// An interval of length `length` whose works make `q·s·l ≈ B` at `speed`,
/// within a relative `offset`: `above` works too large to share a machine
/// at `speed`, and `m − above + 1` equal works below the threshold adding up
/// to `(m − above)·s·l·(1 + offset)`.
fn kink_at(speed: f64, length: f64, m: usize, above: usize, offset: f64) -> Vec<f64> {
    let threshold = speed * length;
    let q = (m - above) as f64;
    let small = q * threshold * (1.0 + offset) / (q + 1.0);
    let mut works = vec![2.0 * threshold + 1.0; above];
    works.extend(std::iter::repeat_n(small, m - above + 1));
    works
}

/// The guarded level search returns the plain bisection's level, fill and
/// saturation bit for bit, over m ∈ {1, 2, 3, 4}, the three tolerances,
/// uncapped and capped fills (caps anywhere and within 1e-12 of the root),
/// equal works, empty intervals, a 1e-12-long interval beside a long one,
/// and roots placed on a kink where `q·s·l ≈ B`.  Every fill of the sweep
/// runs through one [`Capacities`] buffer, cleared and refilled, so state
/// carried from one fill into the next would fail it.
#[test]
fn guarded_level_search_matches_the_plain_bisection_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(0xC0 + 5);
    let tolerances = [Tolerance::default(), Tolerance::coarse(), Tolerance::fine()];
    let mut capacities = Capacities::default();
    for case in 0..sweep_fills() {
        let m = 1 + case % 4;
        let power = AlphaPower::new(ALPHAS[rng.usize_range(0, ALPHAS.len() - 1)]);
        let shape = rng.usize_range(0, 4);
        let mut candidates = random_candidates(&mut rng, m, if shape == 4 { 0 } else { shape });
        let w_j = 10f64.powf(rng.f64_range(-3.0, 1.5));
        let mut opts = WaterfillOptions {
            max_fraction: if rng.usize_range(0, 4) == 0 {
                rng.f64_range(0.1, 1.0)
            } else {
                1.0
            },
            max_marginal: None,
            tol: tolerances[(case / 4) % 3],
        };
        let root = plain_fill(power, m, w_j, &candidates, &opts).level_speed;
        if shape == 4 {
            // Move the root onto a kink: add an interval whose capacity
            // turns positive within 1e-12 of the current root.
            let above = rng.usize_range(0, m - 1);
            let offset = 1e-12 * rng.f64_range(-2.0, 2.0);
            let length = rng.f64_range(0.05, 2.0);
            candidates.push(WaterfillCandidate {
                interval: candidates.len(),
                length,
                other_works: kink_at(root, length, m, above, offset),
            });
        }
        opts.max_marginal = match rng.usize_range(0, 3) {
            0 => None,
            1 => Some(rng.f64_range(0.0, 2.0) * power.dual_value(root, w_j)),
            _ => {
                let cap = root * (1.0 + 1e-12 * rng.f64_range(-1.0, 1.0));
                Some(power.dual_value(cap, w_j))
            }
        };
        let guarded = buffer_fill(&mut capacities, power, m, w_j, &candidates, &opts);
        let plain = plain_fill(power, m, w_j, &candidates, &opts);
        assert!(
            same_fill(&guarded, &plain),
            "case {case}: m = {m}, shape {shape}, w = {w_j}, {opts:?}, {candidates:?}: \
             guarded {guarded:?}, plain {plain:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// The sparse coordinate descent against a dense reference, bit for bit.
// ---------------------------------------------------------------------------

/// The coordinate descent with dense interval loads: every fill's
/// candidates densified per covered interval through
/// `interval_works_excluding` (inside [`waterfill_job`]) and every pass's
/// energy through [`ProgramContext::total_energy`], with the solver's pass
/// order, convergence test and restart rule.
fn dense_descend(
    ctx: &ProgramContext,
    opts: &SolverOptions,
    seed: Option<&WorkAssignment>,
) -> (MinEnergySolution, bool) {
    let (n, n_intervals) = (ctx.n_jobs(), ctx.partition().len());
    let seeded = seed.is_some();
    let mut x = seed
        .cloned()
        .unwrap_or_else(|| WorkAssignment::zeros(n, n_intervals));
    let wf_opts = WaterfillOptions {
        tol: opts.waterfill_tol,
        ..WaterfillOptions::default()
    };
    let mut prev_energy = if seeded {
        ctx.total_energy(&x)
    } else {
        f64::INFINITY
    };
    let mut order: Vec<usize> = (0..n).collect();
    if seeded {
        let jobs = &ctx.instance().jobs;
        order.sort_by(|&a, &b| jobs[a].deadline.total_cmp(&jobs[b].deadline));
    }
    let mut restarted = !seeded;
    let mut last_improvement = f64::INFINITY;
    let (mut passes, mut converged) = (0, false);
    for pass in 0..opts.max_passes {
        passes = pass + 1;
        for &job in &order {
            x.clear_job(job);
            for (k, f) in waterfill_job(ctx, &x, job, &wf_opts).added {
                x.set(job, k, f);
            }
        }
        let energy = ctx.total_energy(&x);
        let improvement = prev_energy - energy;
        if prev_energy.is_finite() && improvement.abs() <= opts.energy_tol * energy.max(1.0) {
            converged = true;
            prev_energy = energy;
            break;
        }
        if !restarted
            && improvement > 0.0
            && last_improvement.is_finite()
            && last_improvement > 0.0
            && improvement > 0.15 * last_improvement
        {
            x = WorkAssignment::zeros(n, n_intervals);
            prev_energy = f64::INFINITY;
            last_improvement = f64::INFINITY;
            restarted = true;
            continue;
        }
        last_improvement = improvement;
        prev_energy = energy;
    }
    let solution = MinEnergySolution {
        assignment: x,
        energy: prev_energy,
        passes,
        converged,
    };
    (solution, seeded && restarted)
}

/// Asserts two descents agree bit for bit.
fn assert_same_descent(sparse: &MinEnergySolution, dense: &MinEnergySolution, case: &str) {
    assert_eq!(
        sparse.energy.to_bits(),
        dense.energy.to_bits(),
        "energy ({case})"
    );
    assert_eq!(sparse.passes, dense.passes, "passes ({case})");
    assert_eq!(sparse.converged, dense.converged, "converged ({case})");
    let n = dense.assignment.n_jobs();
    assert_eq!(sparse.assignment.n_jobs(), n, "rows ({case})");
    for j in 0..n {
        let bits =
            |x: &WorkAssignment| -> Vec<u64> { x.row(j).iter().map(|f| f.to_bits()).collect() };
        assert_eq!(
            bits(&sparse.assignment),
            bits(&dense.assignment),
            "row {j} ({case})"
        );
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

/// A pending job of [`replan_instances`]: deadline, remaining work, value,
/// and its previous plan's `(start, end, fraction)` pieces.
struct Pending {
    deadline: f64,
    remaining: f64,
    value: f64,
    pieces: Vec<(f64, f64, f64)>,
}

/// The replanning instances OA(m) solves along an E12 m = 2 stream, with
/// their warm seeds: at every arrival the pending jobs' windows start at
/// the arrival time, each job's remaining work is what the previous plan
/// left after running its pieces at constant speed until then, and the
/// seed spreads the previous plan's pieces over the new intervals by time
/// overlap, renormalised, as OA(m)'s warm cache does.
fn replan_instances(n: usize, seed: u64) -> Vec<(ProgramContext, Option<WorkAssignment>)> {
    let stream = e12_stream(n, seed);
    let mut pending: Vec<Pending> = Vec::new();
    let mut out = Vec::new();
    let mut last = f64::NEG_INFINITY;
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
            value: job.value,
            pieces: Vec::new(),
        });
        last = now;
        let jobs = pending
            .iter()
            .enumerate()
            .map(|(i, p)| Job::new(i, now, p.deadline, p.remaining, p.value))
            .collect();
        let ctx = ProgramContext::new(&Instance::from_jobs(2, 2.5, jobs).expect("replan instance"));
        let partition = ctx.partition();
        let mut seed = WorkAssignment::zeros(pending.len(), partition.len());
        let mut seeded = false;
        for (i, p) in pending.iter().enumerate() {
            let overlap = |k: usize| -> f64 {
                let iv = partition.interval(k);
                p.pieces
                    .iter()
                    .map(|&(s, e, f)| f * (iv.end.min(e) - iv.start.max(s)).max(0.0) / (e - s))
                    .sum()
            };
            let spread: Vec<(usize, f64)> =
                ctx.covered(i).iter().map(|&k| (k, overlap(k))).collect();
            let total: f64 = spread.iter().map(|(_, f)| f).sum();
            if total > 1e-9 {
                seeded = true;
                for (k, f) in spread {
                    if f > 0.0 {
                        seed.set(i, k, f / total);
                    }
                }
            }
        }
        let seed = seeded.then_some(seed);
        let sol = match &seed {
            Some(seed) => solve_min_energy_warm(&ctx, &SolverOptions::default(), seed),
            None => solve_min_energy_with(&ctx, &SolverOptions::default()),
        };
        for (i, p) in pending.iter_mut().enumerate() {
            p.pieces = ctx
                .covered(i)
                .iter()
                .filter(|&&k| sol.assignment.get(i, k) > 0.0)
                .map(|&k| {
                    let iv = partition.interval(k);
                    (iv.start, iv.end, sol.assignment.get(i, k))
                })
                .collect();
        }
        out.push((ctx, seed));
    }
    out
}

/// On the replanning instances of an E12 m = 2 stream, the solver's sparse
/// descent returns the dense reference's energy, pass count, convergence
/// flag and assignment bit for bit, warm-started from the stream's seeds
/// and cold.
#[test]
fn sparse_descent_matches_the_dense_reference_on_replans() {
    let opts = SolverOptions::default();
    let mut restarts = 0;
    for (i, (ctx, seed)) in replan_instances(120, 7).iter().enumerate() {
        let case = format!("replan {i}, {} jobs", ctx.n_jobs());
        let warm = match seed {
            Some(seed) => solve_min_energy_warm(ctx, &opts, seed),
            None => solve_min_energy_with(ctx, &opts),
        };
        let (dense, restarted) = dense_descend(ctx, &opts, seed.as_ref());
        assert_same_descent(&warm, &dense, &case);
        restarts += usize::from(restarted);
        if i % 10 == 0 {
            let cold = solve_min_energy_with(ctx, &SolverOptions::coarse());
            let (dense, _) = dense_descend(ctx, &SolverOptions::coarse(), None);
            assert_same_descent(&cold, &dense, &format!("cold {case}"));
        }
    }
    assert!(restarts > 0, "no replan restarted from zeros");
}
