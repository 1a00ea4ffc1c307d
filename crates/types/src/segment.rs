//! Machine-level schedules: constant-speed segments.

use crate::cost::Cost;
use crate::instance::Instance;
use crate::job::JobId;
use crate::num;

/// A maximal piece of a schedule during which one machine runs at a constant
/// speed, processing at most one job.
///
/// Segments with `job == None` model idle-but-spinning time; well formed
/// schedules only emit such segments with `speed == 0`, and they are ignored
/// by the cost accounting when their speed is zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Machine index in `0..m`.
    pub machine: usize,
    /// Segment start time (inclusive).
    pub start: f64,
    /// Segment end time (exclusive), `end > start`.
    pub end: f64,
    /// Constant speed during the segment.
    pub speed: f64,
    /// The job being processed, or `None` for idle time.
    pub job: Option<JobId>,
}

impl Segment {
    /// Creates a new work segment.
    pub fn work(machine: usize, start: f64, end: f64, speed: f64, job: JobId) -> Self {
        Self {
            machine,
            start,
            end,
            speed,
            job: Some(job),
        }
    }

    /// Creates an idle segment (speed 0, no job).
    pub fn idle(machine: usize, start: f64, end: f64) -> Self {
        Self {
            machine,
            start,
            end,
            speed: 0.0,
            job: None,
        }
    }

    /// Duration `end - start` of the segment.
    #[inline]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Work `speed · duration` processed during the segment.
    #[inline]
    pub fn work_amount(&self) -> f64 {
        self.speed * self.duration()
    }

    /// Energy `s^α · duration` consumed during the segment.
    #[inline]
    pub fn energy(&self, alpha: f64) -> f64 {
        if self.speed <= 0.0 {
            0.0
        } else {
            self.speed.powf(alpha) * self.duration()
        }
    }

    /// Returns `true` if this segment overlaps in time with `other` by more
    /// than the numeric tolerance.
    pub fn overlaps(&self, other: &Segment) -> bool {
        let lo = self.start.max(other.start);
        let hi = self.end.min(other.end);
        num::definitely_gt(hi, lo)
    }
}

/// A schedule's work segments grouped by job, built by
/// [`Schedule::segments_by_job`]: one flat array of segment references with
/// per-job offsets.
#[derive(Debug, Clone)]
pub struct SegmentsByJob<'a> {
    /// `offsets[j]..offsets[j + 1]` is job `j`'s range of `segments`.
    offsets: Vec<usize>,
    segments: Vec<&'a Segment>,
}

impl<'a> SegmentsByJob<'a> {
    /// The segments of `job` in start-time order.
    ///
    /// # Panics
    /// Panics if `job` is outside the indexed ids `0..n`.
    pub fn job(&self, job: JobId) -> &[&'a Segment] {
        &self.segments[self.offsets[job.index()]..self.offsets[job.index() + 1]]
    }
}

/// A complete schedule for an instance: a collection of constant-speed
/// [`Segment`]s over `machines` machines.
///
/// The segment list is not required to be sorted; accessors sort on demand.
/// A job is *finished* by the schedule if the total work of its segments
/// (restricted to its availability window — enforced by
/// [`validate_schedule`](crate::validate::validate_schedule)) reaches its
/// workload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    /// Number of machines the schedule is defined over.
    pub machines: usize,
    /// The constant-speed pieces making up the schedule.
    pub segments: Vec<Segment>,
}

impl Schedule {
    /// Creates an empty schedule over `machines` machines.
    pub fn empty(machines: usize) -> Self {
        Self {
            machines,
            segments: Vec::new(),
        }
    }

    /// Appends a segment, silently dropping a segment whose duration is at
    /// most 1e-9 and a work segment whose speed is at most 1e-9; such
    /// segments arise naturally from degenerate atomic intervals.  Both
    /// tests are absolute ([`num::approx_zero`]), whatever the magnitude of
    /// the segment's times or work, so a genuinely short segment is dropped
    /// together with the work it carries.  A caller whose segments can be
    /// that short pushes into `segments` directly.
    pub fn push(&mut self, seg: Segment) {
        if seg.duration() <= 0.0 || num::approx_zero(seg.duration()) {
            return;
        }
        if seg.job.is_some() && num::approx_zero(seg.speed) {
            return;
        }
        self.segments.push(seg);
    }

    /// Appends every segment of `other` (which must be over the same number
    /// of machines).
    pub fn extend(&mut self, other: &Schedule) {
        debug_assert_eq!(self.machines, other.machines);
        for seg in &other.segments {
            self.push(*seg);
        }
    }

    /// Total energy `Σ s^α · duration` over all segments.
    pub fn energy(&self, alpha: f64) -> f64 {
        num::stable_sum(self.segments.iter().map(|s| s.energy(alpha)))
    }

    /// Work processed per job, indexed by job id, for an instance with `n`
    /// jobs.  Segments referring to ids `>= n` are ignored.
    pub fn work_per_job(&self, n: usize) -> Vec<f64> {
        let mut work = vec![0.0; n];
        for seg in &self.segments {
            if let Some(j) = seg.job {
                if j.index() < n {
                    work[j.index()] += seg.work_amount();
                }
            }
        }
        work
    }

    /// Returns, for each job of the instance, whether the schedule finishes
    /// it (processes at least its workload, up to numeric tolerance).
    pub fn finished(&self, instance: &Instance) -> Vec<bool> {
        let work = self.work_per_job(instance.len());
        instance
            .jobs
            .iter()
            .map(|j| num::approx_ge(work[j.id.index()], j.work))
            .collect()
    }

    /// Ids of the jobs the schedule does *not* finish (the rejected set
    /// `J_rej` of the paper).
    pub fn unfinished_jobs(&self, instance: &Instance) -> Vec<JobId> {
        self.finished(instance)
            .iter()
            .enumerate()
            .filter_map(|(i, done)| if *done { None } else { Some(JobId(i)) })
            .collect()
    }

    /// Cost of the schedule for the given instance: energy plus the total
    /// value of unfinished jobs (Equation (1) of the paper).
    pub fn cost(&self, instance: &Instance) -> Cost {
        let energy = self.energy(instance.alpha);
        let lost_value = num::stable_sum(
            self.unfinished_jobs(instance)
                .iter()
                .map(|j| instance.job(*j).value),
        );
        Cost { energy, lost_value }
    }

    /// The segments assigned to one machine, sorted by start time (stable:
    /// segments with equal starts keep their schedule order).
    pub fn machine_segments(&self, machine: usize) -> Vec<&Segment> {
        let mut segs: Vec<&Segment> = self
            .segments
            .iter()
            .filter(|s| s.machine == machine)
            .collect();
        segs.sort_by(|a, b| a.start.total_cmp(&b.start));
        segs
    }

    /// Groups the work segments by job for an instance with `n` jobs, each
    /// job's segments sorted by start time (stable: segments with equal
    /// starts keep their schedule order).
    ///
    /// One counting pass sizes every job's slice of a single flat array,
    /// a second fills it in schedule order, and each slice is then sorted,
    /// so building the index costs O(S log S + n) for S segments.  Idle
    /// segments and segments referring to ids `>= n` are left out.
    pub fn segments_by_job(&self, n: usize) -> SegmentsByJob<'_> {
        let job_of = |seg: &Segment| seg.job.map(JobId::index).filter(|&j| j < n);
        let mut offsets = vec![0usize; n + 1];
        for j in self.segments.iter().filter_map(job_of) {
            offsets[j + 1] += 1;
        }
        for j in 0..n {
            offsets[j + 1] += offsets[j];
        }
        // The fill pass below overwrites every slot of this placeholder.
        let mut segments = match self.segments.first() {
            Some(first) => vec![first; offsets[n]],
            None => Vec::new(),
        };
        let mut next = offsets[..n].to_vec();
        for seg in &self.segments {
            if let Some(j) = job_of(seg) {
                segments[next[j]] = seg;
                next[j] += 1;
            }
        }
        for j in 0..n {
            segments[offsets[j]..offsets[j + 1]].sort_by(|a, b| a.start.total_cmp(&b.start));
        }
        SegmentsByJob { offsets, segments }
    }

    /// The speed of the given machine at time `t` (0 if idle).
    pub fn speed_at(&self, machine: usize, t: f64) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.machine == machine && s.start <= t && t < s.end)
            .map(|s| s.speed)
            .fold(0.0, f64::max)
    }

    /// Total speed over all machines at time `t`; for `m = 1` this is the
    /// classical speed profile used in the paper's Figure 3.
    pub fn total_speed_at(&self, t: f64) -> f64 {
        num::stable_sum(
            self.segments
                .iter()
                .filter(|s| s.start <= t && t < s.end)
                .map(|s| s.speed),
        )
    }

    /// The time span `[min start, max end]` covered by the schedule's
    /// segments, or `None` if there are none.
    pub fn span(&self) -> Option<(f64, f64)> {
        if self.segments.is_empty() {
            return None;
        }
        let lo = self
            .segments
            .iter()
            .map(|s| s.start)
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .segments
            .iter()
            .map(|s| s.end)
            .fold(f64::NEG_INFINITY, f64::max);
        Some((lo, hi))
    }

    /// Samples the per-machine speed profile at `samples` evenly spaced
    /// points of `[from, to)`.  Used by examples to print/plot profiles.
    pub fn sample_total_speed(&self, from: f64, to: f64, samples: usize) -> Vec<(f64, f64)> {
        assert!(samples > 0 && to > from);
        let step = (to - from) / samples as f64;
        (0..samples)
            .map(|i| {
                let t = from + (i as f64 + 0.5) * step;
                (t, self.total_speed_at(t))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> Instance {
        Instance::from_tuples(2, 2.0, vec![(0.0, 2.0, 2.0, 10.0), (0.0, 4.0, 4.0, 3.0)]).unwrap()
    }

    #[test]
    fn segment_accounting() {
        let s = Segment::work(0, 1.0, 3.0, 2.0, JobId(0));
        assert_eq!(s.duration(), 2.0);
        assert_eq!(s.work_amount(), 4.0);
        assert_eq!(s.energy(2.0), 8.0);
        assert_eq!(s.energy(3.0), 16.0);
        let idle = Segment::idle(0, 0.0, 1.0);
        assert_eq!(idle.energy(3.0), 0.0);
    }

    #[test]
    fn overlap_detection() {
        let a = Segment::work(0, 0.0, 2.0, 1.0, JobId(0));
        let b = Segment::work(0, 1.0, 3.0, 1.0, JobId(1));
        let c = Segment::work(0, 2.0, 3.0, 1.0, JobId(1));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn push_drops_degenerate_segments() {
        let mut s = Schedule::empty(1);
        s.push(Segment::work(0, 1.0, 1.0, 5.0, JobId(0)));
        s.push(Segment::work(0, 1.0, 2.0, 0.0, JobId(0)));
        assert!(s.segments.is_empty());
        s.push(Segment::work(0, 1.0, 2.0, 1.0, JobId(0)));
        assert_eq!(s.segments.len(), 1);
    }

    #[test]
    fn cost_combines_energy_and_lost_value() {
        let inst = instance();
        let mut s = Schedule::empty(2);
        // Finish job 0 (2 work by t=2 at speed 1), do nothing for job 1.
        s.push(Segment::work(0, 0.0, 2.0, 1.0, JobId(0)));
        let cost = s.cost(&inst);
        assert!((cost.energy - 2.0).abs() < 1e-12); // 1^2 * 2
        assert!((cost.lost_value - 3.0).abs() < 1e-12); // job 1's value
        assert!((cost.total() - 5.0).abs() < 1e-12);
        assert_eq!(s.unfinished_jobs(&inst), vec![JobId(1)]);
    }

    #[test]
    fn finished_uses_tolerance() {
        let inst = instance();
        let mut s = Schedule::empty(2);
        s.push(Segment::work(0, 0.0, 2.0, 1.0 - 1e-13, JobId(0)));
        assert!(s.finished(&inst)[0]);
    }

    #[test]
    fn speed_queries() {
        let mut s = Schedule::empty(2);
        s.push(Segment::work(0, 0.0, 2.0, 1.5, JobId(0)));
        s.push(Segment::work(1, 1.0, 3.0, 0.5, JobId(1)));
        assert_eq!(s.speed_at(0, 1.0), 1.5);
        assert_eq!(s.speed_at(0, 2.5), 0.0);
        assert_eq!(s.total_speed_at(1.5), 2.0);
        assert_eq!(s.span(), Some((0.0, 3.0)));
        let profile = s.sample_total_speed(0.0, 3.0, 3);
        assert_eq!(profile.len(), 3);
        assert!((profile[0].1 - 1.5).abs() < 1e-12);
        assert!((profile[1].1 - 2.0).abs() < 1e-12);
        assert!((profile[2].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn machine_segments_are_sorted() {
        let mut s = Schedule::empty(1);
        s.push(Segment::work(0, 2.0, 3.0, 1.0, JobId(0)));
        s.push(Segment::work(0, 0.0, 1.0, 1.0, JobId(1)));
        let segs = s.machine_segments(0);
        assert_eq!(segs[0].start, 0.0);
        assert_eq!(segs[1].start, 2.0);
    }

    #[test]
    fn segments_by_job_groups_by_job_and_sorts_stably() {
        let mut s = Schedule::empty(2);
        s.push(Segment::work(1, 2.0, 3.0, 1.0, JobId(1)));
        s.push(Segment::work(0, 0.0, 1.0, 1.0, JobId(1)));
        s.push(Segment::idle(0, 1.0, 2.0));
        s.push(Segment::work(1, 0.0, 1.0, 2.0, JobId(0)));
        s.push(Segment::work(0, 0.0, 1.0, 3.0, JobId(0))); // ties the start above
        s.push(Segment::work(0, 4.0, 5.0, 1.0, JobId(7))); // outside 0..n
        let index = s.segments_by_job(3);
        let starts_and_speeds = |j| -> Vec<(f64, f64)> {
            index
                .job(JobId(j))
                .iter()
                .map(|seg| (seg.start, seg.speed))
                .collect()
        };
        assert_eq!(starts_and_speeds(0), vec![(0.0, 2.0), (0.0, 3.0)]);
        assert_eq!(starts_and_speeds(1), vec![(0.0, 1.0), (2.0, 1.0)]);
        assert!(starts_and_speeds(2).is_empty());
        assert!(Schedule::empty(1)
            .segments_by_job(2)
            .job(JobId(0))
            .is_empty());
    }
}
