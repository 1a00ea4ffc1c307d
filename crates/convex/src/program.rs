//! The convex program context: an instance bound to its atomic-interval
//! partition.

use pss_chen::ChenInterval;
use pss_intervals::{IntervalPartition, WorkAssignment};
use pss_power::AlphaPower;
use pss_types::{num, Instance, JobId, Schedule};

/// An [`Instance`] together with the derived objects every algorithm in the
/// workspace needs: the atomic-interval partition, the workload vector, the
/// power function and, per job, the list of covered intervals.
///
/// The context corresponds to the data defining the mathematical program
/// (IMP)/(CP) of Figure 1 in the paper: the partition gives the intervals
/// `T_k`, `covered` gives the coefficients `c_{jk}`, and
/// [`interval_energy`](Self::interval_energy) evaluates the per-interval
/// power function `P_k`.
#[derive(Debug, Clone)]
pub struct ProgramContext {
    instance: Instance,
    partition: IntervalPartition,
    power: AlphaPower,
    workloads: Vec<f64>,
    values: Vec<f64>,
    covered: Vec<Vec<usize>>,
}

impl ProgramContext {
    /// Builds the context for an instance, deriving the atomic intervals
    /// from all release times and deadlines.
    pub fn new(instance: &Instance) -> Self {
        let partition = IntervalPartition::from_jobs(&instance.jobs);
        Self::with_partition(instance, partition)
    }

    /// Builds the context with an explicitly provided partition.  The
    /// partition must refine the one induced by the instance's jobs (each
    /// job's release and deadline must be boundaries); this is used by the
    /// online algorithms while the job set is still growing.
    pub fn with_partition(instance: &Instance, partition: IntervalPartition) -> Self {
        let power = AlphaPower::new(instance.alpha);
        let workloads: Vec<f64> = instance.jobs.iter().map(|j| j.work).collect();
        let values: Vec<f64> = instance.jobs.iter().map(|j| j.value).collect();
        let covered: Vec<Vec<usize>> = instance
            .jobs
            .iter()
            .map(|j| partition.covered_range(j).collect())
            .collect();
        Self {
            instance: instance.clone(),
            partition,
            power,
            workloads,
            values,
            covered,
        }
    }

    /// The underlying instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The atomic-interval partition.
    pub fn partition(&self) -> &IntervalPartition {
        &self.partition
    }

    /// The power function `P_α`.
    pub fn power(&self) -> AlphaPower {
        self.power
    }

    /// The workload vector `w`.
    pub fn workloads(&self) -> &[f64] {
        &self.workloads
    }

    /// The value vector `v`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of jobs.
    pub fn n_jobs(&self) -> usize {
        self.instance.len()
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.instance.machines
    }

    /// The atomic intervals covered by job `j` (the `k` with `c_{jk} = 1`).
    pub fn covered(&self, job: usize) -> &[usize] {
        &self.covered[job]
    }

    /// The work `x_{jk}·w_j` of every job in interval `k` under the given
    /// assignment, as a dense vector indexed by job.
    pub fn interval_works(&self, x: &WorkAssignment, interval: usize) -> Vec<f64> {
        (0..self.n_jobs())
            .map(|j| x.get(j, interval) * self.workloads[j])
            .collect()
    }

    /// The work of every job in interval `k`, excluding job `exclude`.
    pub fn interval_works_excluding(
        &self,
        x: &WorkAssignment,
        interval: usize,
        exclude: usize,
    ) -> Vec<f64> {
        let mut works = self.interval_works(x, interval);
        if exclude < works.len() {
            works[exclude] = 0.0;
        }
        works
    }

    /// The Chen et al. solver for interval `k`.
    pub fn chen(&self, interval: usize) -> ChenInterval {
        ChenInterval::new(self.partition.length(interval), self.machines(), self.power)
    }

    /// The per-interval energy `P_k` under the given assignment.
    pub fn interval_energy(&self, x: &WorkAssignment, interval: usize) -> f64 {
        let works = self.interval_works(x, interval);
        self.chen(interval).solve(&works).energy
    }

    /// Total energy `Σ_k P_k` of the assignment.
    pub fn total_energy(&self, x: &WorkAssignment) -> f64 {
        num::stable_sum((0..self.partition.len()).map(|k| self.interval_energy(x, k)))
    }

    /// The objective of (CP): total energy plus the value of jobs that are
    /// not fully assigned (`Σ_k c_{jk} x_{jk} < 1`).
    pub fn objective(&self, x: &WorkAssignment) -> f64 {
        let lost: f64 = num::stable_sum(self.instance.jobs.iter().map(|j| {
            let assigned = self.assigned_fraction(x, j.id.index());
            if num::approx_ge(assigned, 1.0) {
                0.0
            } else {
                j.value
            }
        }));
        self.total_energy(x) + lost
    }

    /// The fraction of job `j` assigned to intervals it covers.
    pub fn assigned_fraction(&self, x: &WorkAssignment, job: usize) -> f64 {
        num::stable_sum(self.covered[job].iter().map(|&k| x.get(job, k)))
    }

    /// Realises a single atomic interval of the assignment: runs Chen et
    /// al.'s algorithm on the interval's work column and places the result
    /// with McNaughton's rule.  Returns an empty vector for an interval with
    /// no work.
    ///
    /// Because the realisation of an interval depends only on that
    /// interval's column of `x`, the event-driven online algorithms use this
    /// to *commit* elapsed intervals one at a time as arrivals are
    /// processed, without ever touching already-committed intervals.
    pub fn realize_interval(&self, x: &WorkAssignment, interval: usize) -> Vec<pss_types::Segment> {
        let iv = self.partition.interval(interval);
        let works = self.interval_works(x, interval);
        if works.iter().all(|u| *u <= 0.0) {
            return Vec::new();
        }
        let sol = self.chen(interval).solve(&works);
        pss_chen::placement::place_interval(&sol, iv.start, 0, JobId)
    }

    /// Converts a work assignment into a machine-level [`Schedule`] by
    /// running Chen et al.'s algorithm in every atomic interval and placing
    /// the result with McNaughton's rule.
    pub fn realize_schedule(&self, x: &WorkAssignment) -> Schedule {
        let mut schedule = Schedule::empty(self.machines());
        for iv in self.partition.intervals() {
            for seg in self.realize_interval(x, iv.index) {
                schedule.push(seg);
            }
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ProgramContext {
        let inst = Instance::from_tuples(2, 2.0, vec![(0.0, 2.0, 2.0, 10.0), (1.0, 3.0, 1.0, 5.0)])
            .unwrap();
        ProgramContext::new(&inst)
    }

    #[test]
    fn covered_intervals_match_paper_coefficients() {
        let c = ctx();
        // Boundaries 0,1,2,3 -> intervals [0,1),[1,2),[2,3).
        assert_eq!(c.partition().len(), 3);
        assert_eq!(c.covered(0), &[0, 1]);
        assert_eq!(c.covered(1), &[1, 2]);
    }

    #[test]
    fn objective_counts_unassigned_jobs() {
        let c = ctx();
        let x = WorkAssignment::zeros(2, 3);
        assert!((c.objective(&x) - 15.0).abs() < 1e-12);

        let mut x = WorkAssignment::zeros(2, 3);
        x.set(0, 0, 0.5);
        x.set(0, 1, 0.5);
        // Job 0 fully assigned: energy = 1^2*1 + 1^2*1 = 2, job 1 lost (5).
        assert!((c.objective(&x) - 7.0).abs() < 1e-9);
        assert!((c.total_energy(&x) - 2.0).abs() < 1e-9);
        assert!((c.assigned_fraction(&x, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn realize_schedule_is_feasible_and_matches_energy() {
        let c = ctx();
        let mut x = WorkAssignment::zeros(2, 3);
        x.set(0, 0, 0.5);
        x.set(0, 1, 0.5);
        x.set(1, 1, 1.0);
        let schedule = c.realize_schedule(&x);
        let report = pss_types::validate_schedule(c.instance(), &schedule).unwrap();
        assert_eq!(report.rejected.len(), 0);
        assert!((report.energy - c.total_energy(&x)).abs() < 1e-9);
    }

    #[test]
    fn interval_works_excluding_masks_one_job() {
        let c = ctx();
        let mut x = WorkAssignment::zeros(2, 3);
        x.set(0, 1, 0.5);
        x.set(1, 1, 1.0);
        assert_eq!(c.interval_works(&x, 1), vec![1.0, 1.0]);
        assert_eq!(c.interval_works_excluding(&x, 1, 1), vec![1.0, 0.0]);
    }
}
