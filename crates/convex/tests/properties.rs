//! Randomised property tests of the convex-program machinery: water-filling
//! invariants, duality (weak duality against explicitly constructed feasible
//! schedules), and solver optimality against per-job balance conditions.
//!
//! Cases are drawn from the workspace's seeded [`SmallRng`] (no crates.io
//! access, so `proptest` is unavailable); equal seeds make every failure
//! reproducible.

use pss_convex::{
    dual_bound, solve_min_energy, solve_min_energy_with, waterfill_job, Capacities,
    MinEnergySolution, ProgramContext, SolverOptions, WaterfillOptions, WaterfillResult,
};
use pss_intervals::WorkAssignment;
use pss_power::AlphaPower;
use pss_types::num::stable_sum;
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
// The fill's level against a breakpoint walk, to the sum's rounding error.
// ---------------------------------------------------------------------------

/// Fills the exactness sweep checks: a few thousand by default, and
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

    /// The speeds where the capacity's linear piece may change: each
    /// work's `u_i / l`, and for each count of works above the threshold,
    /// where `q·s·l − B` meets 0 and where it meets `s·l`.
    fn breakpoints(&self, machines: usize) -> impl Iterator<Item = f64> + '_ {
        let p = self.sorted_works.len();
        let kinks = (0..=p.min(machines - 1)).flat_map(move |above| {
            let q = (machines - above) as f64;
            let b = self.prefix[p] - self.prefix[above];
            [b / (q * self.length), b / ((q - 1.0) * self.length)]
        });
        let works = self.sorted_works.iter().map(|u| u / self.length);
        works.chain(kinks).filter(|s| s.is_finite())
    }
}

/// The capacity sum of a job of workload `w_j`, as a fraction of the job.
fn plain_fraction(caps: &[PlainCapacity], m: usize, w_j: f64, speed: f64) -> f64 {
    stable_sum(caps.iter().map(|c| c.capacity(speed, m))) / w_j
}

/// The speed at which the capacity sum reaches `target`, by walking its
/// breakpoints: the sum is linear between two consecutive ones, so the
/// level interpolates the first piece whose right end reaches `target`.
/// Past the last breakpoint every capacity grows as `s·l`.
fn breakpoint_level(caps: &[PlainCapacity], m: usize, w_j: f64, target: f64) -> f64 {
    let mut points: Vec<f64> = caps.iter().flat_map(|c| c.breakpoints(m)).collect();
    points.retain(|s| *s > 0.0);
    points.sort_by(f64::total_cmp);
    points.dedup();
    let (mut left, mut below) = (0.0, 0.0);
    for s in points {
        let value = plain_fraction(caps, m, w_j, s);
        if value >= target {
            return left + (target - below) * (s - left) / (value - below);
        }
        (left, below) = (s, value);
    }
    let slope: f64 = caps.iter().map(|c| c.length).sum::<f64>() / w_j;
    left + (target - below) / slope
}

/// A saturated fill at `level`: every capacity there, rescaled to add up
/// to `max_fraction`, as the fill places them.
fn plain_result(
    caps: &[PlainCapacity],
    power: AlphaPower,
    m: usize,
    w_j: f64,
    level: f64,
    max_fraction: f64,
) -> WaterfillResult {
    let mut added: Vec<(usize, f64)> = caps
        .iter()
        .map(|c| (c.interval, c.capacity(level, m) / w_j))
        .filter(|(_, f)| *f > 0.0)
        .collect();
    let mut total = stable_sum(added.iter().map(|(_, f)| *f));
    let saturated = total > 0.0;
    if saturated {
        let scale = max_fraction / total;
        for (_, f) in &mut added {
            *f *= scale;
        }
        total = max_fraction;
    }
    WaterfillResult {
        added,
        total,
        level_speed: level,
        level_marginal: power.dual_value(level, w_j),
        saturated,
    }
}

/// The water-fill with its level from [`breakpoint_level`]: the same
/// capacity sum, cap test and rescaling as [`Capacities::fill`].
fn plain_fill(
    power: AlphaPower,
    m: usize,
    w_j: f64,
    candidates: &[WaterfillCandidate],
    opts: &WaterfillOptions,
) -> WaterfillResult {
    let caps: Vec<PlainCapacity> = candidates.iter().map(PlainCapacity::new).collect();
    let speed_cap = opts.max_marginal.map(|mm| power.dual_speed(mm, w_j));
    if let Some(cap) = speed_cap {
        let total = plain_fraction(&caps, m, w_j, cap);
        if total < opts.max_fraction * (1.0 - 1e-12) {
            return WaterfillResult {
                added: Vec::new(),
                total,
                level_speed: cap,
                level_marginal: power.dual_value(cap, w_j),
                saturated: false,
            };
        }
    }
    let level = breakpoint_level(&caps, m, w_j, opts.max_fraction);
    let level = level.min(speed_cap.unwrap_or(f64::INFINITY));
    plain_result(&caps, power, m, w_j, level, opts.max_fraction)
}

/// How far apart two levels of the same fill may lie: sixteen times the
/// bound on the capacity sum's rounding error that the fill's window
/// check uses, at each level, over a lower bound on the sum's slope
/// between them, plus a few ulps.  Every capacity positive just below both
/// levels stays positive above, where it rises by at least its length per
/// unit of speed.
fn level_tolerance(
    caps: &[PlainCapacity],
    m: usize,
    w_j: f64,
    target: f64,
    levels: [f64; 2],
) -> f64 {
    let total_length: f64 = caps.iter().map(|c| c.length).sum();
    let prefix_share: f64 = caps
        .iter()
        .map(|c| c.prefix.len() as f64 * c.prefix[c.prefix.len() - 1])
        .sum();
    let error_bound = |speed: f64| {
        2.0 * f64::EPSILON * ((m as f64 * speed * total_length + prefix_share) / w_j + target)
    };
    let below = levels[0].min(levels[1]) * (1.0 - 1e-9);
    let slope: f64 = (caps.iter())
        .filter(|c| c.capacity(below, m) > 0.0)
        .map(|c| c.length / w_j)
        .sum();
    16.0 * (error_bound(levels[0]) + error_bound(levels[1])) / slope
        + 8.0 * f64::EPSILON * levels[0].max(levels[1])
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

/// The fill's level is exact: it matches the breakpoint walk's level to
/// within the capacity sum's rounding error, a saturated fill places
/// exactly its fraction (and places it as the reference does at the
/// fill's level, bit for bit), and a fill stopped at the cap is the
/// reference's bit for bit.  The sweep covers m ∈ {1, 2, 3, 4}, uncapped
/// and capped fills (caps anywhere and within 1e-12 of the root), equal
/// works, empty intervals, a 1e-12-long interval beside a long one, and
/// roots placed on a kink where `q·s·l ≈ B`.  Both ways to the level run:
/// the checked Newton root and the bisection the fill falls back to.
/// Every fill of the sweep runs through one [`Capacities`] buffer,
/// cleared and refilled, so state carried from one fill into the next
/// would fail it.
#[test]
fn fill_level_matches_the_breakpoint_walk() {
    let mut rng = SmallRng::seed_from_u64(0xC0 + 5);
    let mut capacities = Capacities::default();
    let (mut capped, mut newton, mut bisected) = (0, 0, 0);
    let mut widest = 0.0_f64;
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
        let fill = buffer_fill(&mut capacities, power, m, w_j, &candidates, &opts);
        let plain = plain_fill(power, m, w_j, &candidates, &opts);
        let case = format!(
            "case {case}: m = {m}, shape {shape}, w = {w_j}, {opts:?}, {candidates:?}: \
             fill {fill:?}, plain {plain:?}"
        );
        if !plain.saturated {
            capped += 1;
            assert!(same_fill(&fill, &plain), "{case}");
            continue;
        }
        match capacities.checked_root(m, w_j, opts.max_fraction) {
            Some(_) => newton += 1,
            None => bisected += 1,
        }
        assert!(fill.saturated, "{case}");
        let caps: Vec<PlainCapacity> = candidates.iter().map(PlainCapacity::new).collect();
        let (level, reference) = (fill.level_speed, plain.level_speed);
        let tolerance = level_tolerance(&caps, m, w_j, opts.max_fraction, [level, reference]);
        assert!(
            (level - reference).abs() <= tolerance,
            "{case}: levels {level} and {reference} differ by more than {tolerance}"
        );
        widest = widest.max((level - reference).abs() / tolerance);
        assert_eq!(fill.total.to_bits(), opts.max_fraction.to_bits(), "{case}");
        let placed = stable_sum(fill.added.iter().map(|(_, f)| *f));
        assert!(
            (placed - opts.max_fraction).abs() <= 4.0 * f64::EPSILON * opts.max_fraction,
            "{case}: placed {placed}"
        );
        let at_level = plain_result(&caps, power, m, w_j, level, opts.max_fraction);
        assert!(
            same_fill(&fill, &at_level),
            "{case}: placed {at_level:?} at the fill's level"
        );
    }
    println!(
        "exactness sweep: {capped} fills stopped at the cap, {newton} levels from the checked \
         Newton root, {bisected} from the bisection; widest level gap {widest:.3} of its tolerance"
    );
    assert!(
        newton > 0 && bisected > 0,
        "both ways to the level must run"
    );
}

// ---------------------------------------------------------------------------
// The sparse coordinate descent against a dense reference, bit for bit.
// ---------------------------------------------------------------------------

/// The coordinate descent with dense interval loads: every fill's
/// candidates densified per covered interval through
/// `interval_works_excluding` (inside [`waterfill_job`]) and every pass's
/// energy through [`ProgramContext::total_energy`], with the solver's pass
/// order and convergence test.
fn dense_descend(ctx: &ProgramContext, opts: &SolverOptions) -> MinEnergySolution {
    let (n, n_intervals) = (ctx.n_jobs(), ctx.partition().len());
    let mut x = WorkAssignment::zeros(n, n_intervals);
    let wf_opts = WaterfillOptions::default();
    let mut prev_energy = f64::INFINITY;
    let (mut passes, mut converged) = (0, false);
    for pass in 0..opts.max_passes {
        passes = pass + 1;
        for job in 0..n {
            x.clear_job(job);
            for (k, f) in waterfill_job(ctx, &x, job, &wf_opts).added {
                x.set(job, k, f);
            }
        }
        let energy = ctx.total_energy(&x);
        let improvement = prev_energy - energy;
        prev_energy = energy;
        if improvement.abs() <= opts.energy_tol * energy.max(1.0) {
            converged = true;
            break;
        }
    }
    MinEnergySolution {
        assignment: x,
        energy: prev_energy,
        passes,
        converged,
    }
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

/// The replanning instances OA(m) solves along an E12 m = 2 stream: at
/// every arrival the pending jobs' windows start at the arrival time, and
/// each job's remaining work is what the previous plan, the descent's,
/// left after running its pieces at constant speed until then.
fn replan_instances(n: usize, seed: u64) -> Vec<ProgramContext> {
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
        let sol = solve_min_energy_with(&ctx, &SolverOptions::default());
        let partition = ctx.partition();
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
        out.push(ctx);
    }
    out
}

/// On every replanning instance of an E12 m = 2 stream, the solver's sparse
/// descent returns the dense reference's energy, pass count, convergence
/// flag and assignment bit for bit.
#[test]
fn sparse_descent_matches_the_dense_reference_on_replans() {
    let opts = SolverOptions::default();
    for (i, ctx) in replan_instances(120, 7).iter().enumerate() {
        let case = format!("replan {i}, {} jobs", ctx.n_jobs());
        let sparse = solve_min_energy_with(ctx, &opts);
        assert_same_descent(&sparse, &dense_descend(ctx, &opts), &case);
    }
}
