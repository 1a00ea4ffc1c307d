//! The Chen et al. per-interval solver.

use pss_power::AlphaPower;
use pss_types::num;

/// Relative tolerance used when testing the dedicated-job condition.  A job
/// whose work is within this relative margin of the remaining average is
/// treated as satisfying the `≥` of Equation (5); the resulting schedules
/// (and energies) are identical either way because the job then runs at the
/// pool speed anyway.
const DEDICATED_REL_EPS: f64 = 1e-12;

/// The role of a job inside one atomic interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobRole {
    /// The job runs alone on its own machine at speed `u_j / l_k`.
    Dedicated,
    /// The job shares the pool machines at the common pool speed.
    Pool,
    /// The job has no work in this interval.
    Absent,
}

/// Solver for one atomic interval: interval length, machine count and power
/// function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChenInterval {
    /// Length `l_k` of the atomic interval (must be positive).
    pub length: f64,
    /// Number of machines `m`.
    pub machines: usize,
    /// The power function `P_α`.
    pub power: AlphaPower,
}

/// The energy-optimal schedule structure Chen et al.'s algorithm produces
/// for one atomic interval and one fixed work assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSolution {
    /// Interval length the solution was computed for.
    pub length: f64,
    /// Number of machines.
    pub machines: usize,
    /// Dedicated jobs as `(job, work)` pairs, sorted by decreasing work.
    /// Job `i` of this list runs alone on machine `i` at speed `work / length`.
    pub dedicated: Vec<(usize, f64)>,
    /// Pool jobs as `(job, work)` pairs (every listed job has positive work).
    pub pool: Vec<(usize, f64)>,
    /// Number of pool machines `m − |dedicated|`.
    pub pool_machines: usize,
    /// The common speed of the pool machines (0 if there is no pool work).
    pub pool_speed: f64,
    /// Total energy `P_k` of the interval under the given power function.
    pub energy: f64,
}

impl ChenInterval {
    /// Creates a solver for an interval of length `length` on `machines`
    /// machines.
    ///
    /// # Panics
    /// Panics if `length` is not positive and finite or `machines == 0`.
    pub fn new(length: f64, machines: usize, power: AlphaPower) -> Self {
        assert!(
            length.is_finite() && length > 0.0,
            "atomic interval length must be positive, got {length}"
        );
        assert!(machines > 0, "need at least one machine");
        Self {
            length,
            machines,
            power,
        }
    }

    /// Runs Chen et al.'s algorithm for the dense work vector `works`
    /// (`works[j]` = work of job `j` in this interval; zero entries are
    /// ignored).
    ///
    /// The total work may exceed what the machines could do at any fixed
    /// speed bound — speeds are unbounded in the model — so the solver never
    /// fails; it returns the unique energy-minimal structure.
    pub fn solve(&self, works: &[f64]) -> IntervalSolution {
        let mut positive: Vec<(usize, f64)> = works
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, u)| *u > 0.0)
            .collect();
        let split = self.split(&mut positive);
        let energy = self.energy(&positive, &split);
        let pool = positive.split_off(split.dedicated);
        IntervalSolution {
            length: self.length,
            machines: self.machines,
            dedicated: positive,
            pool,
            pool_machines: self.machines - split.dedicated,
            pool_speed: split.pool_speed,
            energy,
        }
    }

    /// The energy `P_k` of Chen et al.'s algorithm for sparse `(job, work)`
    /// pairs, one per job with work in the interval; pairs whose work is not
    /// positive are ignored.  The pairs are sorted in place into the rule's
    /// order (work descending, ties by job id), so the energy equals, bit
    /// for bit, [`solve`](Self::solve)'s on the dense vector holding the
    /// same works.
    pub fn energy_of_pairs(&self, pairs: &mut [(usize, f64)]) -> f64 {
        let split = self.split(pairs);
        self.energy(pairs, &split)
    }

    /// Sorts `pairs` (positive works first, then by decreasing work, ties
    /// by job id for determinism) and applies the dedicated-prefix rule.
    pub(crate) fn split(&self, pairs: &mut [(usize, f64)]) -> Split {
        pairs.sort_by(|a, b| {
            (b.1 > 0.0)
                .cmp(&(a.1 > 0.0))
                .then(b.1.total_cmp(&a.1))
                .then(a.0.cmp(&b.0))
        });
        let positive = &pairs[..pairs.partition_point(|(_, u)| *u > 0.0)];

        let total: f64 = num::stable_sum(positive.iter().map(|(_, u)| *u));
        let m = self.machines;

        // -- Dedicated prefix (Equation (5)) ------------------------------
        let mut dedicated = 0;
        let mut remaining = total;
        for (rank, &(_, u)) in positive.iter().enumerate() {
            if rank >= m {
                break;
            }
            let rest = remaining - u;
            let machines_left = m - rank - 1;
            let is_dedicated = if machines_left == 0 {
                // Last machine: only dedicated if nothing else remains.
                rest <= DEDICATED_REL_EPS * total.max(1.0)
            } else {
                u * machines_left as f64 >= rest * (1.0 - DEDICATED_REL_EPS)
            };
            if is_dedicated {
                dedicated += 1;
                remaining = rest;
            } else {
                break;
            }
        }

        let pool_machines = m - dedicated;
        let pool_work: f64 = num::stable_sum(positive[dedicated..].iter().map(|(_, u)| *u));
        let pool_speed = if pool_machines > 0 && pool_work > 0.0 {
            pool_work / (pool_machines as f64 * self.length)
        } else {
            0.0
        };

        Split {
            positive: positive.len(),
            dedicated,
            pool_speed,
        }
    }

    /// The energy of the split of `pairs` (sorted by [`split`](Self::split)):
    /// the dedicated jobs alone, plus the pool machines at the pool speed.
    fn energy(&self, pairs: &[(usize, f64)], split: &Split) -> f64 {
        let ded: f64 = num::stable_sum(
            pairs[..split.dedicated]
                .iter()
                .map(|(_, u)| self.power.energy_for_work(*u, self.length)),
        );
        let pool_machines = self.machines - split.dedicated;
        let pool_e = if pool_machines > 0 {
            pool_machines as f64 * self.power.energy_at_speed(split.pool_speed, self.length)
        } else {
            0.0
        };
        ded + pool_e
    }
}

/// The shape of Chen et al.'s solution over pairs sorted by
/// [`ChenInterval::split`]: the first `positive` pairs have work, the first
/// `dedicated` of them run alone, and the rest of them share the pool.
pub(crate) struct Split {
    pub(crate) positive: usize,
    pub(crate) dedicated: usize,
    pub(crate) pool_speed: f64,
}

impl IntervalSolution {
    /// The role of job `j` in this interval.
    pub fn role(&self, job: usize) -> JobRole {
        if self.dedicated.iter().any(|(i, _)| *i == job) {
            JobRole::Dedicated
        } else if self.pool.iter().any(|(i, _)| *i == job) {
            JobRole::Pool
        } else {
            JobRole::Absent
        }
    }

    /// The speed at which job `j`'s work is processed: its own speed if
    /// dedicated, the pool speed if pooled, and 0 if absent.
    pub fn job_speed(&self, job: usize) -> f64 {
        if let Some((_, u)) = self.dedicated.iter().find(|(i, _)| *i == job) {
            u / self.length
        } else if self.pool.iter().any(|(i, _)| *i == job) {
            self.pool_speed
        } else {
            0.0
        }
    }

    /// The speed an *infinitesimal* amount of new work would be processed at
    /// if it were added to this interval for a job currently absent from it.
    ///
    /// A new infinitesimal job always enters as a pool job (it is the
    /// smallest); if all machines are currently dedicated, adding it demotes
    /// the slowest dedicated job to the pool, so the marginal speed is the
    /// slowest dedicated speed.  With no work at all the marginal speed is 0.
    pub fn marginal_speed_new_job(&self) -> f64 {
        if self.pool_machines > 0 {
            self.pool_speed
        } else {
            self.dedicated
                .last()
                .map(|(_, u)| u / self.length)
                .unwrap_or(0.0)
        }
    }

    /// The speed used for the marginal cost of job `j`: the job's current
    /// speed if it has work here, otherwise the marginal speed of a new job.
    pub fn marginal_speed(&self, job: usize) -> f64 {
        match self.role(job) {
            JobRole::Absent => self.marginal_speed_new_job(),
            _ => self.job_speed(job),
        }
    }

    /// The total work on each machine, sorted in decreasing order
    /// (`L_1 ≥ L_2 ≥ … ≥ L_m`), the quantity analysed in Proposition 2.
    pub fn machine_loads(&self) -> Vec<f64> {
        let mut loads: Vec<f64> = self.dedicated.iter().map(|(_, u)| *u).collect();
        let pool_load = self.pool_speed * self.length;
        loads.extend(std::iter::repeat_n(pool_load, self.pool_machines));
        // Dedicated loads are ≥ pool loads by construction, but sort anyway
        // to be robust against tolerance effects at the boundary.
        loads.sort_by(|a, b| b.total_cmp(a));
        loads
    }

    /// Number of jobs with positive work in this interval.
    pub fn active_jobs(&self) -> usize {
        self.dedicated.len() + self.pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solver(m: usize) -> ChenInterval {
        ChenInterval::new(1.0, m, AlphaPower::new(3.0))
    }

    fn dense(pairs: &[(usize, f64)], n: usize) -> Vec<f64> {
        let mut v = vec![0.0; n];
        for (j, u) in pairs {
            v[*j] = *u;
        }
        v
    }

    #[test]
    fn empty_interval_has_zero_energy() {
        let sol = solver(4).solve(&[0.0, 0.0]);
        assert_eq!(sol.energy, 0.0);
        assert_eq!(sol.active_jobs(), 0);
        assert_eq!(sol.machine_loads(), vec![0.0; 4]);
        assert_eq!(sol.marginal_speed_new_job(), 0.0);
        assert_eq!(sol.role(0), JobRole::Absent);
    }

    #[test]
    fn single_job_single_machine() {
        let sol = solver(1).solve(&[2.0]);
        assert_eq!(sol.dedicated, vec![(0, 2.0)]);
        assert_eq!(sol.pool_machines, 0);
        assert!((sol.energy - 8.0).abs() < 1e-12); // speed 2, alpha 3, time 1
        assert!((sol.job_speed(0) - 2.0).abs() < 1e-12);
        assert_eq!(sol.role(0), JobRole::Dedicated);
        // A new job would displace the dedicated one into the pool, so the
        // marginal speed is the dedicated speed.
        assert!((sol.marginal_speed_new_job() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn one_large_job_dominates_two_small_ones() {
        // m = 2: works 10, 1, 1.  Job 0 is dedicated (10 >= (1+1)/1);
        // jobs 1, 2 pool on one machine at speed 2.
        let sol = solver(2).solve(&dense(&[(0, 10.0), (1, 1.0), (2, 1.0)], 3));
        assert_eq!(sol.dedicated, vec![(0, 10.0)]);
        assert_eq!(sol.pool.len(), 2);
        assert_eq!(sol.pool_machines, 1);
        assert!((sol.pool_speed - 2.0).abs() < 1e-12);
        assert!((sol.energy - (1000.0 + 8.0)).abs() < 1e-9);
        assert_eq!(sol.role(1), JobRole::Pool);
        assert!((sol.job_speed(1) - 2.0).abs() < 1e-12);
        assert_eq!(sol.machine_loads(), vec![10.0, 2.0]);
    }

    #[test]
    fn equal_jobs_all_pool_when_more_jobs_than_machines() {
        // m = 2, three equal jobs of work 1: no job is dedicated
        // (1 < 2/1), all pool at speed 1.5.
        let sol = solver(2).solve(&[1.0, 1.0, 1.0]);
        assert!(sol.dedicated.is_empty());
        assert_eq!(sol.pool_machines, 2);
        assert!((sol.pool_speed - 1.5).abs() < 1e-12);
        assert_eq!(sol.machine_loads(), vec![1.5, 1.5]);
    }

    #[test]
    fn all_jobs_dedicated_when_fewer_jobs_than_machines_and_balanced() {
        // m = 3, works 3, 2, 1: job0: 3 >= 3/2, job1: 2 >= 1/1, job2: last
        // machine, nothing remains => all dedicated.
        let sol = solver(3).solve(&[3.0, 2.0, 1.0]);
        assert_eq!(sol.dedicated.len(), 3);
        assert_eq!(sol.pool_machines, 0);
        assert_eq!(sol.machine_loads(), vec![3.0, 2.0, 1.0]);
        let expected_energy = 27.0 + 8.0 + 1.0;
        assert!((sol.energy - expected_energy).abs() < 1e-9);
        // Marginal new work would run at the slowest dedicated speed.
        assert!((sol.marginal_speed_new_job() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_dedication_mixed_case() {
        // m = 3, works 9, 2, 2, 2: job0 dedicated (9 >= 6/2 = 3); job1 not
        // (2 < 4/1); pool = {1, 2, 3} on 2 machines at speed 3.
        let sol = solver(3).solve(&[9.0, 2.0, 2.0, 2.0]);
        assert_eq!(sol.dedicated, vec![(0, 9.0)]);
        assert_eq!(sol.pool.len(), 3);
        assert_eq!(sol.pool_machines, 2);
        assert!((sol.pool_speed - 3.0).abs() < 1e-12);
        assert_eq!(sol.machine_loads(), vec![9.0, 3.0, 3.0]);
    }

    #[test]
    fn dedicated_boundary_case_is_consistent() {
        // m = 2, works 1, 1: job0: 1 >= 1/1 holds with equality, so job0 is
        // dedicated; job1 is then alone on the last machine and dedicated
        // too.  Either classification gives the same loads and energy.
        let sol = solver(2).solve(&[1.0, 1.0]);
        assert_eq!(sol.machine_loads(), vec![1.0, 1.0]);
        assert!((sol.energy - 2.0).abs() < 1e-12);
    }

    #[test]
    fn interval_length_scales_speeds() {
        let chen = ChenInterval::new(2.0, 2, AlphaPower::new(2.0));
        let sol = chen.solve(&[4.0, 1.0, 1.0]);
        // Job 0 dedicated at speed 2; pool speed (1+1)/(1*2) = 1.
        assert!((sol.job_speed(0) - 2.0).abs() < 1e-12);
        assert!((sol.pool_speed - 1.0).abs() < 1e-12);
        // Energy: 2^2*2 + 1^2*2 = 10.
        assert!((sol.energy - 10.0).abs() < 1e-12);
    }

    #[test]
    fn sorting_is_by_work_not_job_id() {
        let sol = solver(2).solve(&dense(&[(3, 10.0), (0, 1.0), (1, 1.0)], 4));
        assert_eq!(sol.dedicated, vec![(3, 10.0)]);
    }

    #[test]
    fn sparse_pairs_price_like_the_dense_vector_bit_for_bit() {
        let chen = ChenInterval::new(0.7, 3, AlphaPower::new(2.5));
        let works = [0.0, 2.5, 0.3, 2.5, 0.0, 9.0, 0.3, 0.1];
        let dense = chen.solve(&works).energy;
        // Scrambled order, plus entries the rule must ignore.
        let mut pairs = vec![(6, 0.3), (9, 0.0), (1, 2.5), (7, 0.1), (10, -1.0)];
        pairs.extend([(5, 9.0), (3, 2.5), (2, 0.3), (11, f64::NAN)]);
        assert_eq!(chen.energy_of_pairs(&mut pairs).to_bits(), dense.to_bits());
        pairs.reverse();
        assert_eq!(chen.energy_of_pairs(&mut pairs).to_bits(), dense.to_bits());
        assert_eq!(chen.energy_of_pairs(&mut []), chen.solve(&[]).energy);
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_length_interval_rejected() {
        ChenInterval::new(0.0, 1, AlphaPower::new(2.0));
    }

    #[test]
    fn more_dedicated_than_pool_never_happens_beyond_m() {
        // With 5 equal jobs and 3 machines, at most 3 machines are used.
        let sol = solver(3).solve(&[1.0; 5]);
        assert!(sol.dedicated.len() <= 3);
        assert_eq!(sol.machine_loads().len(), 3);
        let total: f64 = sol.machine_loads().iter().sum();
        assert!((total - 5.0).abs() < 1e-9);
    }
}
