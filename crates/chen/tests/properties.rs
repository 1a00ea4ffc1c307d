//! Randomised property tests of the Chen et al. substrate.
//!
//! These verify the structural results the paper's analysis relies on:
//!
//! * Proposition 1(a): `P_k` is convex with `P_k(0) = 0`;
//! * Proposition 1(b): the analytic partial derivatives match finite
//!   differences;
//! * Proposition 2: when a single job's work grows from 0 to `z`, the load
//!   of the i-th fastest machine changes by some amount in `[0, z]`;
//! * energy optimality: Chen's split never does worse than natural
//!   alternative feasible splits;
//! * the sparse placement entry places exactly what the dense solution
//!   places.
//!
//! The cases are drawn from the workspace's seeded [`SmallRng`] (the build
//! environment has no crates.io access, so `proptest` is unavailable); equal
//! seeds make every failure reproducible.

use pss_chen::placement::place_interval;
use pss_chen::{interval_power, interval_power_derivative, ChenInterval};
use pss_power::AlphaPower;
use pss_types::{JobId, Segment};
use pss_workloads::SmallRng;

const ALPHAS: [f64; 5] = [1.5, 2.0, 2.5, 3.0, 4.0];

fn sample_alpha(rng: &mut SmallRng) -> f64 {
    ALPHAS[rng.usize_range(0, ALPHAS.len() - 1)]
}

fn sample_works(rng: &mut SmallRng, max_jobs: usize) -> Vec<f64> {
    let n = rng.usize_range(1, max_jobs);
    (0..n).map(|_| rng.f64_range(0.0, 5.0)).collect()
}

/// Proposition 2: adding a new job with work `z` to an interval moves
/// every (sorted) machine load up by at most `z` and never down.
#[test]
fn prop2_load_monotonicity() {
    let mut rng = SmallRng::seed_from_u64(0xC4E4_0001);
    for _ in 0..128 {
        let alpha = sample_alpha(&mut rng);
        let mut works = sample_works(&mut rng, 8);
        let z = rng.f64_range(0.01, 8.0);
        let m = rng.usize_range(1, 5);
        let length = rng.f64_range(0.1, 4.0);
        let chen = ChenInterval::new(length, m, AlphaPower::new(alpha));
        let before = chen.solve(&works).machine_loads();
        works.push(z);
        let after = chen.solve(&works).machine_loads();
        assert_eq!(before.len(), after.len());
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            assert!(
                a - b >= -1e-9 * (1.0 + b.abs()),
                "load of machine {i} decreased: {b} -> {a}"
            );
            assert!(
                a - b <= z + 1e-9 * (1.0 + z),
                "load of machine {i} grew by more than z={z}: {b} -> {a}"
            );
        }
    }
}

/// Proposition 1(a): P_k is convex along random lines and P_k(0) = 0.
#[test]
fn prop1_convexity() {
    let mut rng = SmallRng::seed_from_u64(0xC4E4_0002);
    for _ in 0..128 {
        let alpha = sample_alpha(&mut rng);
        let n = rng.usize_range(1, 5);
        let a: Vec<f64> = (0..n).map(|_| rng.f64_range(0.0, 1.0)).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.f64_range(0.0, 1.0)).collect();
        let w: Vec<f64> = (0..n).map(|_| rng.f64_range(0.1, 4.0)).collect();
        let m = rng.usize_range(1, 4);
        let t = rng.f64_range(0.0, 1.0);
        let p = AlphaPower::new(alpha);
        let mix: Vec<f64> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| t * x + (1.0 - t) * y)
            .collect();
        let fa = interval_power(p, 1.0, m, &a, &w);
        let fb = interval_power(p, 1.0, m, &b, &w);
        let fmix = interval_power(p, 1.0, m, &mix, &w);
        assert!(
            fmix <= t * fa + (1.0 - t) * fb + 1e-7 * (1.0 + fa + fb),
            "convexity violated: {fmix} vs combination of {fa}, {fb}"
        );
        assert_eq!(interval_power(p, 1.0, m, &vec![0.0; n], &w), 0.0);
    }
}

/// Proposition 1(b): the closed-form derivative matches a finite
/// difference of P_k.
#[test]
fn prop1_derivative() {
    let mut rng = SmallRng::seed_from_u64(0xC4E4_0003);
    for _ in 0..128 {
        let alpha = sample_alpha(&mut rng);
        let n = rng.usize_range(1, 4);
        let fractions: Vec<f64> = (0..n).map(|_| rng.f64_range(0.05, 1.0)).collect();
        let w: Vec<f64> = (0..n).map(|_| rng.f64_range(0.2, 4.0)).collect();
        let m = rng.usize_range(1, 4);
        let p = AlphaPower::new(alpha);
        let h = 1e-6;
        for job in 0..n {
            let analytic = interval_power_derivative(p, 1.0, m, &fractions, &w, job);
            let mut up = fractions.clone();
            up[job] += h;
            let mut down = fractions.clone();
            down[job] -= h;
            let numeric = (interval_power(p, 1.0, m, &up, &w)
                - interval_power(p, 1.0, m, &down, &w))
                / (2.0 * h);
            assert!(
                (analytic - numeric).abs() <= 1e-3 * numeric.abs().max(1.0),
                "job {job}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }
}

/// Chen's schedule never uses more energy than two natural feasible
/// alternatives: (a) every job on its own machine whenever that is
/// feasible, and (b) the work order reversed (the optimum is unique in
/// terms of loads, so solving with any permutation gives the same energy).
#[test]
fn chen_energy_is_no_worse_than_alternatives() {
    let mut rng = SmallRng::seed_from_u64(0xC4E4_0004);
    for _ in 0..128 {
        let alpha = sample_alpha(&mut rng);
        let works = sample_works(&mut rng, 6);
        let m = rng.usize_range(1, 4);
        let p = AlphaPower::new(alpha);
        let chen = ChenInterval::new(1.0, m, p);
        let sol = chen.solve(&works);

        // (a) one machine per job, if enough machines exist.
        let positive: Vec<f64> = works.iter().copied().filter(|u| *u > 0.0).collect();
        if positive.len() <= m {
            let per_job: f64 = positive.iter().map(|u| p.energy_for_work(*u, 1.0)).sum();
            assert!(
                sol.energy <= per_job + 1e-9 * (1.0 + per_job),
                "Chen {} worse than one-machine-per-job {per_job}",
                sol.energy
            );
        }

        // (b) permutation invariance.
        let mut reversed = works.clone();
        reversed.reverse();
        let sol_rev = chen.solve(&reversed);
        assert!(
            (sol.energy - sol_rev.energy).abs() <= 1e-9 * (1.0 + sol.energy),
            "permutation changed energy: {} vs {}",
            sol.energy,
            sol_rev.energy
        );
    }
}

/// The total work across machine loads always equals the total input
/// work (nothing is lost or duplicated).
#[test]
fn loads_conserve_work() {
    let mut rng = SmallRng::seed_from_u64(0xC4E4_0005);
    for _ in 0..128 {
        let alpha = sample_alpha(&mut rng);
        let works = sample_works(&mut rng, 8);
        let m = rng.usize_range(1, 5);
        let chen = ChenInterval::new(1.0, m, AlphaPower::new(alpha));
        let sol = chen.solve(&works);
        let total_in: f64 = works.iter().sum();
        let total_loads: f64 = sol.machine_loads().iter().sum();
        assert!(
            (total_in - total_loads).abs() <= 1e-9 * (1.0 + total_in),
            "work not conserved: in {total_in}, loads {total_loads}"
        );
    }
}

/// The sparse placement entry emits the dense solution's segments, bit for
/// bit and in order, on scrambled pairs with tied works (Chen's rule breaks
/// ties by job id), zero and negative works, and a job id map.
#[test]
fn sparse_placement_matches_the_dense_solution_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(0xC4E4_0006);
    let bits = |s: &Segment| {
        (
            s.machine,
            s.job,
            [s.start, s.end, s.speed].map(f64::to_bits),
        )
    };
    for _ in 0..512 {
        let alpha = sample_alpha(&mut rng);
        let m = rng.usize_range(1, 5);
        let n = rng.usize_range(0, 12);
        let tie = rng.f64_range(0.05, 3.0);
        let works: Vec<f64> = (0..n)
            .map(|_| match rng.usize_range(0, 4) {
                0 => 0.0,
                1 => -rng.f64_range(0.0, 1.0),
                2 => tie,
                _ => rng.f64_range(0.0, 5.0),
            })
            .collect();
        let length = rng.f64_range(0.01, 4.0);
        let start = rng.f64_range(-10.0, 1e4);
        let offset = rng.usize_range(0, 3);
        let chen = ChenInterval::new(length, m, AlphaPower::new(alpha));
        let job_of = |i: usize| JobId(1000 + 7 * i);
        let dense: Vec<_> = place_interval(&chen.solve(&works), start, offset, job_of)
            .iter()
            .map(bits)
            .collect();
        // The pairs in a scrambled order: a random rotation, reversed on
        // every other case.
        let mut pairs: Vec<(usize, f64)> = works.iter().copied().enumerate().collect();
        pairs.rotate_left(rng.usize_range(0, n));
        if rng.usize_range(0, 1) == 0 {
            pairs.reverse();
        }
        let mut sparse = Vec::new();
        chen.place_pairs(&mut pairs, start, offset, job_of, |s| sparse.push(bits(&s)));
        assert_eq!(sparse, dense, "m = {m}, l = {length}, works {works:?}");
    }
}
