//! The per-interval power function `P_k` of the convex program and its
//! partial derivatives (Proposition 1 of the paper).

use pss_power::AlphaPower;

use crate::solution::ChenInterval;

/// Evaluates the per-interval power (energy) function
/// `P_k(x_{1k}, …, x_{nk})` of Equation (6): the energy Chen et al.'s
/// algorithm spends in an atomic interval of length `length` on `machines`
/// machines when job `j` places `fractions[j] · workloads[j]` units of work
/// in the interval.
///
/// `P_k` is convex with `P_k(0) = 0` (Proposition 1(a)).
pub fn interval_power(
    power: AlphaPower,
    length: f64,
    machines: usize,
    fractions: &[f64],
    workloads: &[f64],
) -> f64 {
    let works = to_works(fractions, workloads);
    ChenInterval::new(length, machines, power)
        .solve(&works)
        .energy
}

/// Evaluates the partial derivative `∂P_k/∂x_{jk}` at the given assignment:
/// `w_j · P'_α(s_{jk})`, where `s_{jk}` is the speed Chen et al.'s algorithm
/// uses for job `j`'s work in this interval (Proposition 1(b)).
///
/// For a job with no work in the interval this is the right derivative, i.e.
/// the marginal cost of giving it its first infinitesimal piece of work —
/// exactly the quantity `λ_{jk}/δ` the paper's PD algorithm evaluates on
/// arrival (Listing 1, line 3).
pub fn interval_power_derivative(
    power: AlphaPower,
    length: f64,
    machines: usize,
    fractions: &[f64],
    workloads: &[f64],
    job: usize,
) -> f64 {
    let works = to_works(fractions, workloads);
    let sol = ChenInterval::new(length, machines, power).solve(&works);
    let speed = sol.marginal_speed(job);
    workloads.get(job).copied().unwrap_or(0.0) * power.marginal(speed)
}

fn to_works(fractions: &[f64], workloads: &[f64]) -> Vec<f64> {
    assert_eq!(
        fractions.len(),
        workloads.len(),
        "fractions and workloads must have the same length"
    );
    fractions
        .iter()
        .zip(workloads)
        .map(|(x, w)| x * w)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-7;

    fn numeric_derivative(
        power: AlphaPower,
        length: f64,
        machines: usize,
        fractions: &[f64],
        workloads: &[f64],
        job: usize,
    ) -> f64 {
        // Central difference where possible, forward difference at 0.
        let h = 1e-6;
        let mut up = fractions.to_vec();
        up[job] += h;
        let f_up = interval_power(power, length, machines, &up, workloads);
        if fractions[job] >= h {
            let mut down = fractions.to_vec();
            down[job] -= h;
            let f_down = interval_power(power, length, machines, &down, workloads);
            (f_up - f_down) / (2.0 * h)
        } else {
            let f0 = interval_power(power, length, machines, fractions, workloads);
            (f_up - f0) / h
        }
    }

    #[test]
    fn power_at_zero_is_zero() {
        let p = AlphaPower::new(2.5);
        assert_eq!(interval_power(p, 1.0, 3, &[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn power_matches_hand_computation() {
        let p = AlphaPower::new(2.0);
        // One machine, one job: fraction 0.5 of workload 4 = work 2 in a
        // length-2 interval => speed 1, energy 1^2 * 2 = 2.
        let e = interval_power(p, 2.0, 1, &[0.5], &[4.0]);
        assert!((e - 2.0).abs() < 1e-12);
    }

    #[test]
    fn derivative_matches_finite_differences_dedicated_and_pool() {
        let p = AlphaPower::new(3.0);
        let workloads = [4.0, 2.0, 2.0, 1.0];
        let fractions = [0.9, 0.5, 0.5, 0.8];
        for m in [1usize, 2, 3, 4] {
            for job in 0..4 {
                let analytic = interval_power_derivative(p, 1.5, m, &fractions, &workloads, job);
                let numeric = numeric_derivative(p, 1.5, m, &fractions, &workloads, job);
                assert!(
                    (analytic - numeric).abs() <= TOL * numeric.abs().max(1.0),
                    "m={m}, job={job}: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn derivative_for_absent_job_is_marginal_cost_of_first_work() {
        let p = AlphaPower::new(2.0);
        let workloads = [2.0, 3.0];
        let fractions = [0.5, 0.0];
        // Job 1 has no work yet; its marginal cost equals w_1 * P'(pool speed).
        let d = interval_power_derivative(p, 1.0, 2, &fractions, &workloads, 1);
        let numeric = numeric_derivative(p, 1.0, 2, &fractions, &workloads, 1);
        assert!(
            (d - numeric).abs() < 1e-4,
            "analytic {d} vs numeric {numeric}"
        );
    }

    #[test]
    fn convexity_along_random_lines() {
        // P_k restricted to a segment between two assignments must satisfy
        // the midpoint convexity inequality (Proposition 1(a)).
        let p = AlphaPower::new(2.5);
        let workloads = [3.0, 1.0, 2.0];
        let a = [0.2, 0.9, 0.1];
        let b = [0.8, 0.1, 0.7];
        for m in [1usize, 2, 3] {
            let mid: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 0.5 * (x + y)).collect();
            let fa = interval_power(p, 1.0, m, &a, &workloads);
            let fb = interval_power(p, 1.0, m, &b, &workloads);
            let fm = interval_power(p, 1.0, m, &mid, &workloads);
            assert!(fm <= 0.5 * (fa + fb) + 1e-9, "m={m}");
        }
    }
}
