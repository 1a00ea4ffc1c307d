//! The truly online, event-driven variant of PD.
//!
//! [`PdScheduler`](crate::pd::PdScheduler) runs over the atomic-interval
//! partition induced by the *whole* instance, which is convenient for
//! experiments but assumes the partition is known upfront.  The paper argues
//! ("Concerning the Time Partitioning", Section 3) that this is without loss
//! of generality: running the algorithm on the coarser partition known at
//! each arrival and splitting assigned work proportionally whenever a new
//! boundary refines an interval produces the identical schedule.
//!
//! [`OnlinePd`] implements that online version literally: jobs are fed
//! through [`OnlineScheduler::on_arrivals`] (a lone job as a one-job
//! burst), the partition grows by refinement, and previously assigned
//! work is split proportionally.  The equivalence with the batch scheduler
//! is verified by tests and by the `online_equivalence` integration test.
//!
//! ## The live planning context
//!
//! The arrival step is **incremental**: the run keeps a sparse planning
//! context — the current partition plus, per atomic interval, the list of
//! `(job, fraction, work)` loads assigned there — and updates it in place
//! on every arrival (partition refinement splits load entries
//! proportionally; an accepted fill appends its entries).  The water-filling
//! step reads its per-interval capacities straight from these lists, so an
//! arrival costs time proportional to the *locally* affected intervals, not
//! to the whole history: no job list is cloned, no `Instance` is rebuilt,
//! and no dense `n × N` assignment is materialised.
//!
//! The state holds only **uncommitted** intervals.  Once an interval has
//! fully elapsed its loads can never change again (later jobs are released
//! at or after the current time, and refinement only adds boundaries
//! there), so it is realised into the committed frontier and retired: its
//! boundary and load list are dropped, and the frontier's end becomes the
//! first boundary and the floor for every later boundary point.  A load
//! entry carries its job's original id and work, so no per-job table is
//! kept either: the state, and a checkpoint of it, is O(active), not
//! O(arrivals).

use pss_chen::{placement::place_interval, ChenInterval};
use pss_convex::{waterfill_candidates, WaterfillCandidate, WaterfillOptions};
use pss_intervals::{BoundaryInsert, IntervalPartition};
use pss_power::AlphaPower;
use pss_types::num::Tolerance;
use pss_types::seglog::{FrontierPart, LogCheckpointable, SegmentLog};
use pss_types::snapshot::{BlobReader, BlobWriter, SnapshotError, SnapshotPart, StateBlob};
use pss_types::{
    check_arrival, Decision, Job, JobId, OnlineScheduler, Schedule, ScheduleError, Segment,
    ARRIVAL_ORDER_TOLERANCE,
};

/// One job's share of an atomic interval: the job's original id, the
/// fraction of its work assigned there, and its total work.
#[derive(Debug, Clone, Copy)]
struct Load {
    job: JobId,
    fraction: f64,
    work: f64,
}

impl Load {
    /// The work this entry places in its interval.
    fn amount(&self) -> f64 {
        self.fraction * self.work
    }
}

/// The sparse planning context: the partition of the time not yet
/// committed and, per atomic interval, the loads assigned there.
#[derive(Debug, Clone)]
struct PlanState {
    partition: IntervalPartition,
    /// `loads[k]` lists the jobs with positive fraction in interval `k`.
    loads: Vec<Vec<Load>>,
}

impl PlanState {
    fn new() -> Self {
        Self {
            partition: IntervalPartition::from_boundaries(std::iter::empty()),
            loads: Vec::new(),
        }
    }

    /// Refines the partition with the new job's window endpoints **in
    /// place** and splits the affected load lists proportionally.  Each
    /// endpoint is an `O(log N)` search plus an `O(tail)` insertion —
    /// boundaries arrive in nondecreasing time order, so the moved tail is
    /// short.  The caller clamps the points to the floor, so none lands
    /// before the first boundary once anything is committed.  No new
    /// partition and no full `Refinement` mapping is ever materialised.
    fn refine(&mut self, points: &[f64]) {
        for &p in points {
            match self.partition.insert_boundary(p) {
                BoundaryInsert::Existing => {}
                BoundaryInsert::Append { created_interval } => {
                    if created_interval {
                        self.loads.push(Vec::new());
                    }
                }
                BoundaryInsert::Prepend { created_interval } => {
                    // Releases are nondecreasing, so a point before the very
                    // first boundary can only occur before anything was
                    // committed.
                    if created_interval {
                        self.loads.insert(0, Vec::new());
                    }
                }
                BoundaryInsert::Split {
                    interval,
                    left_fraction,
                } => {
                    let entries = &mut self.loads[interval];
                    let right: Vec<Load> = entries
                        .iter()
                        .map(|&e| Load {
                            fraction: e.fraction * (1.0 - left_fraction),
                            ..e
                        })
                        .collect();
                    for e in entries.iter_mut() {
                        e.fraction *= left_fraction;
                    }
                    self.loads.insert(interval + 1, right);
                }
            }
        }
        debug_assert_eq!(self.loads.len(), self.partition.len());
    }

    /// Drops the first `k` intervals and their load lists.
    fn retire_prefix(&mut self, k: usize) {
        self.partition.retire_prefix(k);
        self.loads.drain(..k);
    }
}

/// Event-driven PD: feed jobs in release order, read out the schedule at any
/// point.
#[derive(Debug, Clone)]
pub struct OnlinePd {
    machines: usize,
    alpha: f64,
    power: AlphaPower,
    delta: f64,
    tol: Tolerance,
    plan: PlanState,
    /// Number of jobs that have arrived so far.
    arrived: usize,
    last_release: f64,
    /// End of the committed frontier (`-∞` before the first commit), which
    /// is then the plan's first boundary: no boundary point may land before
    /// it.
    floor: f64,
    /// Realised segments of every fully elapsed atomic interval (original
    /// job ids) — the committed frontier of the event-driven API.
    committed: Schedule,
}

impl OnlinePd {
    /// Creates an online PD instance for `machines` machines, exponent
    /// `alpha` and the default parameter `δ = α^{1-α}`.
    pub fn new(machines: usize, alpha: f64) -> Self {
        let delta = AlphaPower::new(alpha).delta_star();
        Self::with_delta(machines, alpha, delta)
    }

    /// Creates an online PD instance with an explicit `δ`.
    pub fn with_delta(machines: usize, alpha: f64, delta: f64) -> Self {
        Self::with_options(machines, alpha, delta, Tolerance::default())
    }

    /// Creates an online PD instance with an explicit `δ` and water-level
    /// search tolerance (the knobs of
    /// [`PdScheduler`](crate::pd::PdScheduler)).
    pub fn with_options(machines: usize, alpha: f64, delta: f64, tol: Tolerance) -> Self {
        assert!(machines > 0, "need at least one machine");
        assert!(delta > 0.0 && delta.is_finite(), "delta must be positive");
        let power = AlphaPower::new(alpha);
        Self {
            machines,
            alpha,
            power,
            delta,
            tol,
            plan: PlanState::new(),
            arrived: 0,
            last_release: f64::NEG_INFINITY,
            floor: f64::NEG_INFINITY,
            committed: Schedule::empty(machines),
        }
    }

    /// Number of jobs that have arrived so far.
    pub fn arrived(&self) -> usize {
        self.arrived
    }

    /// PD's greedy primal-dual step for one job (Listing 1): refine the
    /// partition with the job's window endpoints, water-fill its work into
    /// the covered intervals, and keep the fill only if it saturates.
    /// Accepted jobs report their dual λ_j (the water level reached),
    /// rejected jobs their lost value.
    ///
    /// The boundary points are clamped to the floor: the arrival tolerance
    /// lets a release lie up to 1e-9 before the previous arrival, which
    /// could otherwise reach back into committed time.
    fn fill(&mut self, job: &Job) -> Decision {
        let plan = &mut self.plan;
        plan.refine(&[job.release.max(self.floor), job.deadline.max(self.floor)]);
        let candidates: Vec<WaterfillCandidate> = plan
            .partition
            .covered_intervals(job)
            .into_iter()
            .map(|k| WaterfillCandidate {
                interval: k,
                length: plan.partition.length(k),
                other_works: plan.loads[k].iter().map(Load::amount).collect(),
            })
            .collect();
        let opts = WaterfillOptions {
            max_fraction: 1.0,
            max_marginal: Some(job.value / self.delta),
            tol: self.tol,
        };
        let fill = waterfill_candidates(self.power, self.machines, job.work, candidates, &opts);
        self.arrived += 1;
        self.last_release = self.last_release.max(job.release);
        if !fill.saturated {
            return Decision::reject(job.value);
        }
        for &(k, fraction) in &fill.added {
            plan.loads[k].push(Load {
                job: job.id,
                fraction,
                work: job.work,
            });
        }
        Decision::accept(self.delta * fill.level_marginal)
    }

    /// Realises interval `k` of the planning context, with the jobs'
    /// original ids.
    fn realize_interval(&self, k: usize) -> Vec<Segment> {
        let entries = &self.plan.loads[k];
        if entries.is_empty() {
            return Vec::new();
        }
        let iv = self.plan.partition.interval(k);
        let works: Vec<f64> = entries.iter().map(Load::amount).collect();
        if works.iter().all(|u| *u <= 0.0) {
            return Vec::new();
        }
        let sol = ChenInterval::new(iv.length(), self.machines, self.power).solve(&works);
        place_interval(&sol, iv.start, 0, |i| entries[i].job)
    }

    /// Realises every interval ending at or before `now` into the committed
    /// frontier and retires it.  Its loads can never change again (later
    /// jobs are released at or after `now` and refinement only adds
    /// boundaries `>= now`), so its realisation is final.
    fn commit_elapsed(&mut self, now: f64) {
        let mut elapsed = 0;
        while elapsed < self.plan.partition.len()
            && self.plan.partition.interval(elapsed).end <= now + 1e-12
        {
            for seg in self.realize_interval(elapsed) {
                self.committed.push(seg);
            }
            elapsed += 1;
        }
        if elapsed > 0 {
            self.plan.retire_prefix(elapsed);
            self.floor = self.plan.partition.boundaries()[0];
        }
    }
}

/// The `now`-specific half of the ingress contract.  The rest is
/// `check_arrival` against the *release* time, since PD's partition
/// refinement needs nondecreasing releases.
fn check_fed(job: &Job, now: f64) -> Result<(), ScheduleError> {
    if now < job.release - ARRIVAL_ORDER_TOLERANCE {
        return Err(ScheduleError::Internal(format!(
            "job {} fed before its release time ({} < {})",
            job.id, now, job.release
        )));
    }
    Ok(())
}

impl SnapshotPart for Load {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_part(&self.job);
        w.write_f64(self.fraction);
        w.write_f64(self.work);
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        let load = Load {
            job: r.read_part()?,
            fraction: r.read_f64()?,
            work: r.read_f64()?,
        };
        // A non-finite or negative entry would poison every later fill and
        // Chen solve of its interval; restore stays total by refusing it.
        let valid = |x: f64| x.is_finite() && x >= 0.0;
        if !(valid(load.fraction) && valid(load.work)) {
            return Err(SnapshotError::Invalid(format!(
                "PD load of job {} out of range (fraction {}, work {})",
                load.job, load.fraction, load.work
            )));
        }
        Ok(load)
    }
}

impl SnapshotPart for PlanState {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_part(&self.partition);
        w.write_seq(&self.loads);
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        let partition: IntervalPartition = r.read_part()?;
        let loads: Vec<Vec<Load>> = r.read_seq()?;
        if loads.len() != partition.len() {
            return Err(SnapshotError::Invalid(format!(
                "{} load lists for {} intervals",
                loads.len(),
                partition.len()
            )));
        }
        Ok(Self { partition, loads })
    }
}

/// State version of [`OnlinePd`] snapshots.  Version 4 holds only live
/// state (no per-job tables, no elapsed intervals) and stores the committed
/// frontier as a bare [`FrontierPart`] cursor into the run's
/// [`SegmentLog`]; older blobs are rejected with a typed error.
const PD_STATE_VERSION: u16 = 4;

/// The blob holds PD's complete live state: the live planning context (the
/// boundaries of the uncommitted intervals and their `(job, fraction,
/// work)` load lists), the arrival count, the last release, the floor, the
/// run parameters (`m`, `α`, `δ`, water-level tolerance) and the frontier's
/// log cursor.  The power function is re-derived from `α` on restore;
/// continuation from the `(log, blob)` pair is bit-identical.
impl LogCheckpointable for OnlinePd {
    fn snapshot_live(&self, log: &mut SegmentLog) -> Result<StateBlob, SnapshotError> {
        let frontier = FrontierPart::sync(log, &self.committed)?;
        let mut w = BlobWriter::new();
        w.write_usize(self.machines);
        w.write_f64(self.alpha);
        w.write_f64(self.delta);
        w.write_part(&self.tol);
        w.write_part(&self.plan);
        w.write_usize(self.arrived);
        w.write_f64(self.last_release);
        w.write_f64(self.floor);
        w.write_part(&frontier);
        Ok(StateBlob::new("pd", PD_STATE_VERSION, w.into_payload()))
    }

    fn restore_with_log(blob: &StateBlob, log: &SegmentLog) -> Result<Self, SnapshotError> {
        let mut r = blob.expect("pd", PD_STATE_VERSION)?;
        let machines = r.read_usize()?;
        let alpha = r.read_f64()?;
        let delta = r.read_f64()?;
        if machines == 0
            || !(delta > 0.0 && delta.is_finite())
            || !(alpha.is_finite() && alpha > 1.0)
        {
            return Err(SnapshotError::Invalid("PD parameters out of range".into()));
        }
        let state = Self {
            machines,
            alpha,
            power: AlphaPower::new(alpha),
            delta,
            tol: r.read_part()?,
            plan: r.read_part()?,
            arrived: r.read_usize()?,
            last_release: r.read_f64()?,
            floor: r.read_f64()?,
            committed: r.read_part::<FrontierPart>()?.resolve(log)?,
        };
        r.finish()?;
        let first = state.plan.partition.boundaries().first().copied();
        if state.floor != f64::NEG_INFINITY
            && first.map(f64::to_bits) != Some(state.floor.to_bits())
        {
            return Err(SnapshotError::Invalid(
                "PD floor is not the first live boundary".into(),
            ));
        }
        Ok(state)
    }
}

impl OnlineScheduler for OnlinePd {
    /// Feeds a burst of jobs arriving together: per-job partition
    /// refinement + water-fill in slice order (the greedy primal-dual step
    /// is order-dependent, so the fills stay sequential — exactly Listing
    /// 1's semantics) and **one** frontier commit (the per-interval Chen
    /// realisations) at the end instead of one per arrival.  Jobs must be
    /// fed in nondecreasing order of release time (the online model); each
    /// keeps its original id for the final schedule.
    ///
    /// Splitting an interval proportionally never changes any water level
    /// or realised speed (the paper's partition-refinement invariance,
    /// Section 3), so committing after the whole burst realises exactly
    /// what feeding the jobs as one-job bursts would have; the
    /// burst-equivalence integration tests (`tests/incremental_equivalence.rs`)
    /// pin this.
    fn on_arrivals(&mut self, jobs: &[Job], now: f64) -> Result<Vec<Decision>, ScheduleError> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        // Validate the whole burst (against the sequential ordering
        // contract) before mutating any state.
        let mut last = self.last_release;
        for job in jobs {
            check_fed(job, now)?;
            check_arrival(job, last, job.release)?;
            last = last.max(job.release);
        }
        // The floor cannot move inside the burst (the commit is deferred),
        // and each job refines the partition with its own two boundaries
        // just before its fill, so the burst's earlier fills see the coarser
        // partition exactly as one-job bursts would.
        let decisions = jobs.iter().map(|job| self.fill(job)).collect();
        // One frontier commit for the whole burst: realising an atomic
        // interval (a Chen solve per interval) is the expensive part of an
        // arrival on a jittered burst, and deferring it until the burst's
        // loads are final does it once instead of per sliver.
        self.commit_elapsed(self.last_release);
        Ok(decisions)
    }

    fn frontier(&self) -> &Schedule {
        &self.committed
    }

    fn finish(mut self) -> Result<Schedule, ScheduleError> {
        self.commit_elapsed(f64::INFINITY);
        Ok(self.committed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pd::PdScheduler;
    use pss_types::{validate_schedule, Instance, Scheduler};

    fn instance() -> Instance {
        Instance::from_tuples(
            2,
            2.5,
            vec![
                (0.0, 3.0, 1.5, 6.0),
                (0.5, 2.0, 1.0, 0.2),
                (1.0, 4.0, 2.0, 5.0),
                (2.0, 3.5, 1.0, 2.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn online_matches_batch_pd() {
        let inst = instance();
        let batch = PdScheduler::default().run(&inst).unwrap();
        let mut online = OnlinePd::new(inst.machines, inst.alpha);
        for id in inst.arrival_order() {
            let job = inst.job(id);
            let decision = online.on_arrival(job, job.release).unwrap();
            assert_eq!(
                decision.accepted,
                batch.accepted[id.index()],
                "decision for {id} differs between online and batch PD"
            );
        }
        let online_cost = online.finish().unwrap().cost(&inst).total();
        let batch_cost = batch.schedule.cost(&inst).total();
        assert!(
            (online_cost - batch_cost).abs() < 1e-6 * batch_cost.max(1.0),
            "online {online_cost} vs batch {batch_cost}"
        );
    }

    #[test]
    fn online_schedule_is_feasible_at_every_prefix() {
        let inst = instance();
        let mut online = OnlinePd::new(inst.machines, inst.alpha);
        for (i, id) in inst.arrival_order().into_iter().enumerate() {
            let job = inst.job(id);
            online.on_arrival(job, job.release).unwrap();
            let schedule = online.clone().finish().unwrap();
            // Validate against the prefix instance (jobs released so far).
            let prefix_ids: Vec<JobId> = inst.arrival_order()[..=i].to_vec();
            let mut jobs: Vec<Job> = prefix_ids.iter().map(|j| *inst.job(*j)).collect();
            // Re-densify for validation.
            jobs.sort_by_key(|j| j.id);
            let dense: Vec<Job> = jobs
                .iter()
                .enumerate()
                .map(|(k, j)| Job::new(k, j.release, j.deadline, j.work, j.value))
                .collect();
            let id_map: std::collections::HashMap<usize, usize> = jobs
                .iter()
                .enumerate()
                .map(|(k, j)| (j.id.index(), k))
                .collect();
            let prefix_inst = Instance::from_jobs(inst.machines, inst.alpha, dense).unwrap();
            let mut remapped = Schedule::empty(inst.machines);
            for mut seg in schedule.segments {
                if let Some(j) = seg.job {
                    seg.job = Some(JobId(id_map[&j.index()]));
                }
                remapped.push(seg);
            }
            assert!(validate_schedule(&prefix_inst, &remapped).is_ok());
        }
    }

    #[test]
    fn elapsed_intervals_are_retired_into_the_frontier() {
        let inst = instance();
        let mut online = OnlinePd::new(inst.machines, inst.alpha);
        for id in inst.arrival_order() {
            let job = inst.job(id);
            online.on_arrival(job, job.release).unwrap();
        }
        // The last release is 2.0: everything before it is committed and
        // gone from the plan, whose first boundary is now the floor.
        assert_eq!(online.plan.partition.boundaries(), &[2.0, 3.0, 3.5, 4.0]);
        assert_eq!(online.floor.to_bits(), 2.0f64.to_bits());
        assert!(online
            .committed
            .segments
            .iter()
            .all(|seg| seg.end <= 2.0 + 1e-12));
        // The frontier plus the live realisation is the whole schedule.
        let batch = PdScheduler::default().run(&inst).unwrap().schedule;
        let schedule = online.finish().unwrap();
        for t in [0.25, 0.75, 1.5, 2.25, 3.25, 3.75] {
            assert!(
                (schedule.total_speed_at(t) - batch.total_speed_at(t)).abs() < 1e-6,
                "profiles differ at t={t}"
            );
        }
    }

    #[test]
    fn restore_rejects_non_finite_or_negative_loads() {
        let inst = instance();
        let mut online = OnlinePd::new(inst.machines, inst.alpha);
        let first = inst.job(JobId(0));
        online.on_arrival(first, first.release).unwrap();
        let mut log = SegmentLog::new(inst.machines);
        let mut round_trip = |run: &OnlinePd| {
            let blob = run.snapshot_live(&mut log).unwrap();
            OnlinePd::restore_with_log(&blob, &log)
        };
        assert!(round_trip(&online).is_ok());
        for bad in [-0.5, f64::NAN, f64::INFINITY] {
            let mut corrupt = online.clone();
            corrupt.plan.loads[0][0].fraction = bad;
            assert!(matches!(
                round_trip(&corrupt),
                Err(SnapshotError::Invalid(_))
            ));
            let mut corrupt = online.clone();
            corrupt.plan.loads[0][0].work = bad;
            assert!(matches!(
                round_trip(&corrupt),
                Err(SnapshotError::Invalid(_))
            ));
        }
    }

    #[test]
    fn out_of_order_arrivals_are_rejected() {
        let mut online = OnlinePd::new(1, 2.0);
        online
            .on_arrival(&Job::new(0, 5.0, 6.0, 1.0, 1.0), 5.0)
            .unwrap();
        let err = online.on_arrival(&Job::new(1, 1.0, 2.0, 1.0, 1.0), 1.0);
        assert!(err.is_err());
    }

    #[test]
    fn non_finite_jobs_are_rejected_at_ingress() {
        let mut online = OnlinePd::new(1, 2.0);
        let mut bad = Job::new(0, 0.0, 1.0, 1.0, 1.0);
        bad.work = f64::NAN;
        assert!(online.on_arrival(&bad, bad.release).is_err());
        assert_eq!(online.arrived(), 0);
    }

    #[test]
    fn run_instance_convenience_matches_batch_cost() {
        let inst = instance();
        let online = PdScheduler::default().schedule(&inst).unwrap();
        let batch = PdScheduler::default().run(&inst).unwrap();
        let a = online.cost(&inst).total();
        let b = batch.schedule.cost(&inst).total();
        assert!((a - b).abs() < 1e-6 * b.max(1.0));
    }

    #[test]
    fn empty_online_schedule_is_empty() {
        let online = OnlinePd::new(3, 2.0);
        assert_eq!(online.arrived(), 0);
        assert!(online.finish().unwrap().segments.is_empty());
    }

    #[test]
    fn rejected_jobs_follow_the_decision_convention() {
        // A hopeless job: huge work over a short window, negligible value.
        let job = Job::new(0, 0.0, 1.0, 10.0, 0.01);
        let mut online = OnlinePd::new(1, 2.0);
        let d = online.on_arrival(&job, 0.0).unwrap();
        assert!(!d.accepted);
        assert_eq!(d.dual, 0.01, "rejected jobs report their lost value");
    }
}
