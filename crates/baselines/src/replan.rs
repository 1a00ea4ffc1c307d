//! The replanning executor shared by the online baseline algorithms.
//!
//! All the plan-revision style algorithms (OA, qOA, multiprocessor OA, CLL)
//! follow the same loop: whenever a job arrives, decide whether to admit it,
//! recompute a plan for the *remaining* work of all admitted jobs, and
//! follow that plan until the next arrival.  The executor implements this
//! loop once, enforcing the online information model:
//!
//! * the planner only ever sees jobs that have already been released,
//! * it only sees the work that has not been processed yet,
//! * already executed segments are never revised.
//!
//! Two executors are provided:
//!
//! * [`ReplanState`] — the *incremental* executor implementing the
//!   event-driven [`OnlineScheduler`] trait: each
//!   [`on_arrivals`](OnlineScheduler::on_arrivals) burst plans the window
//!   since the previous arrival and executes it (extending the committed
//!   frontier), then consults the admission policy per job.  Every burst
//!   changes the pending set, so a plan is followed for exactly one
//!   window, and the planner builds only the part of it that starts
//!   before the window's end.  The pending jobs are kept in deadline
//!   order (ties in admission order), so every replan through
//!   [`Planner::plan_warm`] solves its left-aligned problem in closed form
//!   straight over that list, in buffers the per-run [`PlanCache`] reuses:
//!   the OA-family planners walk the YDS staircase
//!   ([`pss_offline::Staircase`]), and OA(m) solves its `m`-machine form
//!   exactly.  This is what the blanket batch adapter and the streaming
//!   simulator drive; `with_warm_start(false)` restores the from-scratch
//!   [`Planner::plan`] for benchmarks.
//! * [`run_replanning`] — the original *batch* loop over an instance's
//!   distinct release times, retained verbatim as an independently coded
//!   reference: the `incremental_equivalence` integration tests check that
//!   both paths produce identical schedules on random workloads.

use pss_types::seglog::{FrontierPart, LogCheckpointable, SegmentLog};
use pss_types::snapshot::{BlobReader, BlobWriter, SnapshotError, SnapshotPart, StateBlob};
use pss_types::{
    check_arrival, num, Decision, Instance, Job, JobId, OnlineScheduler, Schedule, ScheduleError,
    Segment,
};

/// The static environment an online run lives in: everything a planner may
/// know about the instance before any job is released.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineEnv {
    /// Number of identical speed-scalable machines.
    pub machines: usize,
    /// Energy exponent `α > 1` of the power function.
    pub alpha: f64,
}

/// A released, admitted and not yet finished job as seen by a planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingJob {
    /// The job's id in the original instance.
    pub id: JobId,
    /// Original release time.
    pub release: f64,
    /// Deadline.
    pub deadline: f64,
    /// Original workload.
    pub work: f64,
    /// Workload still to be processed.
    pub remaining: f64,
}

impl PendingJob {
    /// Creates the pending view of a freshly released job.
    pub fn new(job: &Job) -> Self {
        Self {
            id: job.id,
            release: job.release,
            deadline: job.deadline,
            work: job.work,
            remaining: job.work,
        }
    }

    /// The job as a [`Job`] with its remaining work and release clamped to
    /// `now` — the shape planners expect.  Its value is 0: a planner
    /// finishes every job it is given and never reads one.
    pub fn as_job_at(&self, now: f64, dense_id: usize) -> Job {
        Job::new(
            dense_id,
            self.release.max(now),
            self.deadline,
            self.remaining,
            0.0,
        )
    }
}

/// Where a job with deadline `deadline` joins the pending list, which is
/// kept in deadline order with ties in admission order: after every pending
/// job whose deadline is not later.
pub(crate) fn insertion_point(pending: &[PendingJob], deadline: f64) -> usize {
    pending.partition_point(|p| p.deadline.total_cmp(&deadline).is_le())
}

/// Adds an admitted job to the pending list at its
/// [`insertion_point`]: the one insertion of both executors.
fn insert_pending(pending: &mut Vec<PendingJob>, job: &Job) {
    pending.insert(insertion_point(pending, job.deadline), PendingJob::new(job));
}

/// What a [`Planner`] keeps across the replanning steps of one run: the
/// buffers its replans reuse, which no plan depends on and a checkpoint
/// leaves out, and OA(m)'s replan counts.
///
/// The executor owns one cache per run and hands it to
/// [`Planner::plan_warm`] at every replan; planners that need none simply
/// ignore it.  The cache is part of the run, not of the planner, so one
/// planner value can drive many concurrent runs.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    /// The OA-family planners' YDS staircase over the pending list.
    pub(crate) staircase: pss_offline::Staircase,
    /// Multiprocessor-OA state: the buffers of the exact left-aligned
    /// planner (`pss_offline::MultiStaircase`) and the replan counts.
    pub multi: Option<crate::oa::MultiOaWarm>,
}

/// A planning rule: given the current time and the pending jobs, produce a
/// schedule for the future (over the environment's machines).  `pending`
/// is in deadline order, ties in admission order.  Segment job ids must
/// refer to positions in the `pending` slice (dense ids `0..len`); the
/// executor maps them back to original ids.
pub trait Planner {
    /// Human-readable name of the planning rule.
    fn name(&self) -> String;

    /// Plans the remaining work of `pending` starting at time `now`.
    fn plan(
        &self,
        env: &OnlineEnv,
        now: f64,
        pending: &[PendingJob],
    ) -> Result<Schedule, ScheduleError>;

    /// The replan of the window `[now, until)` the executor runs: like
    /// [`plan`](Self::plan), written into `out` (whose segments it
    /// replaces), but it may solve in buffers `cache` keeps across the
    /// run's replans, may rely on `pending`'s deadline order (ties in
    /// admission order), and may leave out segments that start at or after
    /// `until`: the executor follows a plan only until the next arrival.
    ///
    /// On `[now, until)` implementations must produce a schedule
    /// *equivalent* to [`plan`](Self::plan) — same speeds, same per-job
    /// works — on every input, up to the reference's numeric tolerance
    /// (exact for the single-machine planners; the accuracy of the
    /// coordinate descent that the multiprocessor `plan` runs).  The
    /// `incremental_equivalence` integration tests pin this on random
    /// workloads.  The default ignores the cache and `until` and writes the
    /// from-scratch plan.
    fn plan_warm(
        &self,
        env: &OnlineEnv,
        now: f64,
        pending: &[PendingJob],
        until: f64,
        cache: &mut PlanCache,
        out: &mut Schedule,
    ) -> Result<(), ScheduleError> {
        let _ = (until, cache);
        *out = self.plan(env, now, pending)?;
        Ok(())
    }
}

/// An admission rule consulted once per job, at its release time, before the
/// job is added to the pending set.  Returning `false` rejects the job
/// permanently (its value is lost).
pub trait AdmissionPolicy {
    /// Buffers the rule reuses across the admissions of one run.  No
    /// decision depends on what they hold between calls, so a checkpoint
    /// leaves them out.
    type Scratch: std::fmt::Debug + Clone + Default;

    /// Decides whether to admit `job` at time `now` given the other pending
    /// jobs, in deadline order with ties in admission order; an admitted
    /// job joins them after every pending job whose deadline is not later.
    fn admit(
        &self,
        env: &OnlineEnv,
        now: f64,
        job: &Job,
        pending: &[PendingJob],
        scratch: &mut Self::Scratch,
    ) -> Result<bool, ScheduleError>;
}

/// Admits every job (the mandatory-completion baselines).
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmitAll;

impl AdmissionPolicy for AdmitAll {
    type Scratch = ();

    fn admit(
        &self,
        _env: &OnlineEnv,
        _now: f64,
        _job: &Job,
        _pending: &[PendingJob],
        _scratch: &mut (),
    ) -> Result<bool, ScheduleError> {
        Ok(true)
    }
}

/// The incremental replanning executor: event-driven state for one run of a
/// plan-revision algorithm.
///
/// The committed frontier grows window by window: when a burst arrives, the
/// window since the previous arrival is planned from the pending set as it
/// stood at the window's start and executed; admission happens after it, so
/// neither can affect the past.  The plan is built just before its window
/// runs, so a burst of simultaneous arrivals costs a single planning solve
/// (exactly like the batch loop, which plans once per distinct release
/// time).
#[derive(Debug, Clone)]
pub struct ReplanState<P: Planner, A: AdmissionPolicy> {
    planner: P,
    admission: A,
    /// The admission rule's reused buffers.
    admission_scratch: A::Scratch,
    env: OnlineEnv,
    /// Admitted, unfinished jobs in deadline order, ties in admission
    /// order.
    pending: Vec<PendingJob>,
    /// The plan of the window being executed (dense ids into `pending`): a
    /// buffer reused by every window, not state.
    plan: Schedule,
    /// Warm-start state handed to [`Planner::plan_warm`] at every replan.
    cache: PlanCache,
    /// Number of plans computed so far: one per executed window, so a burst
    /// of simultaneous arrivals costs one.  E13 reads it to report
    /// replans-per-arrival.
    replans: usize,
    /// When `false`, every replan calls the from-scratch [`Planner::plan`]
    /// instead — the pre-warm-start behaviour, kept for benchmarks and
    /// equivalence tests.
    warm_start: bool,
    /// The executed frontier (original job ids).
    committed: Schedule,
    /// Time up to which the frontier is committed.
    now: f64,
    /// Latest deadline among released jobs: the horizon the final plan is
    /// executed to by [`finish`](OnlineScheduler::finish).
    horizon_end: f64,
}

impl<P: Planner, A: AdmissionPolicy> ReplanState<P, A> {
    /// Creates a fresh run for the given environment.  Replans are
    /// warm-started by default; see [`with_warm_start`](Self::with_warm_start).
    pub fn new(planner: P, admission: A, env: OnlineEnv) -> Self {
        Self {
            planner,
            admission,
            admission_scratch: A::Scratch::default(),
            env,
            pending: Vec::new(),
            plan: Schedule::empty(env.machines),
            cache: PlanCache::default(),
            replans: 0,
            warm_start: true,
            committed: Schedule::empty(env.machines),
            now: f64::NEG_INFINITY,
            horizon_end: f64::NEG_INFINITY,
        }
    }

    /// Enables or disables warm-started replanning.  With `false` every
    /// replan calls the from-scratch [`Planner::plan`]; this is the
    /// rebuild-per-arrival baseline the `warm_replan` benchmark and the
    /// warm-vs-cold equivalence tests compare against.
    pub fn with_warm_start(mut self, enabled: bool) -> Self {
        self.warm_start = enabled;
        self
    }

    /// The jobs currently admitted and unfinished, in deadline order with
    /// ties in admission order.
    pub fn pending(&self) -> &[PendingJob] {
        &self.pending
    }

    /// The warm-start cache carried across this run's replans (read-only).
    ///
    /// The benchmark's traced run reads the planner statistics recorded
    /// here (the multiprocessor-OA planner's replan and density-solve
    /// counts).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Number of planning solves performed so far.
    ///
    /// A plan is computed just before each executed window, so
    /// simultaneous (or batch-fed) arrivals share one solve: on a
    /// burst-coalesced stream this counter grows with the number of
    /// *bursts*, not arrivals — the quantity E13 tabulates as
    /// replans-per-arrival.
    pub fn replans(&self) -> usize {
        self.replans
    }

    /// Plans the window `[self.now, to)`, executes it and drops finished or
    /// expired pending jobs, exactly like one window of the batch loop.
    ///
    /// Arrival times closer than the workspace tolerance are treated as
    /// simultaneous (no window is executed between them) — the same
    /// `approx_eq` rule the batch loop uses to dedup release times, so the
    /// two paths stay equivalent on near-tied releases.
    fn advance_to(&mut self, to: f64) -> Result<(), ScheduleError> {
        if !self.now.is_finite() {
            self.now = self.now.max(to);
            return Ok(());
        }
        if to <= self.now || num::approx_eq(to, self.now) {
            return Ok(());
        }
        if self.warm_start {
            self.planner.plan_warm(
                &self.env,
                self.now,
                &self.pending,
                to,
                &mut self.cache,
                &mut self.plan,
            )?;
        } else {
            self.plan = self.planner.plan(&self.env, self.now, &self.pending)?;
        }
        self.replans += 1;
        execute_window(
            &mut self.committed,
            &mut self.pending,
            &mut self.plan.segments,
            self.now,
            to,
        );
        self.pending
            .retain(|p| p.remaining > 1e-9 * p.work.max(1.0) && p.deadline > to + 1e-12);
        self.now = to;
        Ok(())
    }
}

impl<P: Planner, A: AdmissionPolicy> OnlineScheduler for ReplanState<P, A> {
    /// Burst ingestion: the window up to `now` is planned and executed
    /// **once** for the whole burst, and each job then runs the admission
    /// rule against the pending set as it stands (so the burst's earlier
    /// jobs are visible, exactly like the batch reference's per-release
    /// admission pass).  The next window performs a **single** (warm)
    /// replan for the burst.
    ///
    /// Because a plan is built only when its window runs, this is decision-
    /// and schedule-identical to feeding the jobs as one-job bursts at the
    /// same `now`.  The b-fold replan collapse comes from *feeding* bursts
    /// at one timestamp (e.g. via the streaming simulator's coalescing
    /// window) instead of at `b` distinct ones, each of which would execute
    /// a sliver of plan and force its own replan.
    ///
    /// A job whose deadline is not after the feed time has expired: it is
    /// rejected at its value and never reaches the admission rule or a
    /// planner, as the feed core rejects it.
    fn on_arrivals(&mut self, jobs: &[Job], now: f64) -> Result<Vec<Decision>, ScheduleError> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        // Validate the whole burst before mutating any state, so an invalid
        // job cannot leave a half-ingested window behind.
        for job in jobs {
            check_arrival(job, self.now, now)?;
        }
        let now = now.max(self.now);
        self.advance_to(now)?;
        let mut decisions = Vec::with_capacity(jobs.len());
        for job in jobs {
            if job.deadline <= now {
                decisions.push(Decision::reject(job.value));
                continue;
            }
            self.horizon_end = self.horizon_end.max(job.deadline);
            let admitted = self.admission.admit(
                &self.env,
                self.now,
                job,
                &self.pending,
                &mut self.admission_scratch,
            )?;
            if admitted {
                insert_pending(&mut self.pending, job);
            }
            decisions.push(if admitted {
                Decision::accept(0.0)
            } else {
                Decision::reject(job.value)
            });
        }
        Ok(decisions)
    }

    fn frontier(&self) -> &Schedule {
        &self.committed
    }

    fn finish(mut self) -> Result<Schedule, ScheduleError> {
        if self.horizon_end.is_finite() {
            self.advance_to(self.horizon_end)?;
        }
        Ok(self.committed)
    }
}

impl SnapshotPart for PendingJob {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_part(&self.id);
        w.write_f64(self.release);
        w.write_f64(self.deadline);
        w.write_f64(self.work);
        w.write_f64(self.remaining);
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            id: r.read_part()?,
            release: r.read_f64()?,
            deadline: r.read_f64()?,
            work: r.read_f64()?,
            remaining: r.read_f64()?,
        })
    }
}

impl SnapshotPart for PlanCache {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_part(&self.multi);
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            staircase: pss_offline::Staircase::default(),
            multi: r.read_part()?,
        })
    }
}

impl SnapshotPart for AdmitAll {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_str("admit-all");
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        match r.read_str()?.as_str() {
            "admit-all" => Ok(AdmitAll),
            other => Err(SnapshotError::Invalid(format!(
                "expected admit-all admission policy, found {other}"
            ))),
        }
    }
}

/// State version of [`ReplanState`] snapshots.  Version 3 stores the
/// committed frontier as a bare [`FrontierPart`] cursor into the run's
/// [`SegmentLog`]; version 4 drops the water-fill tolerance from OA(m)'s
/// solver options; version 5 drops the plan and its staleness flag, since
/// every window is planned when it runs; version 6 drops OA(m)'s warm
/// coordinate-descent rows, since its replans are solved exactly from the
/// pending set; version 7 drops the pending jobs' values and the warm YDS
/// order, since the pending list itself is kept in deadline order.  Older
/// blobs are rejected with a typed error.
const REPLAN_STATE_VERSION: u16 = 7;

/// Checkpoint/restore for the replanning executor: the blob holds the run's
/// live state — the deadline-ordered pending list with its remaining works,
/// OA(m)'s replan counts, the clock and the horizon — plus the planner and
/// admission configuration and the frontier's log cursor, so
/// [`LogCheckpointable::restore_with_log`] rebuilds the run from the `(log,
/// blob)` pair with no other context, and refuses a pending list out of
/// deadline order.  No plan is stored: the next window plans afresh, as the
/// uninterrupted run would.  A restored run continues bit-identically; the
/// restore-equivalence integration tests pin this at arbitrary cut points,
/// including mid-burst.
impl<P, A> LogCheckpointable for ReplanState<P, A>
where
    P: Planner + SnapshotPart,
    A: AdmissionPolicy + SnapshotPart,
{
    fn snapshot_live(&self, log: &mut SegmentLog) -> Result<StateBlob, SnapshotError> {
        let frontier = FrontierPart::sync(log, &self.committed)?;
        let mut w = BlobWriter::new();
        w.write_usize(self.env.machines);
        w.write_f64(self.env.alpha);
        w.write_part(&self.planner);
        w.write_part(&self.admission);
        w.write_seq(&self.pending);
        w.write_part(&self.cache);
        w.write_usize(self.replans);
        w.write_bool(self.warm_start);
        w.write_part(&frontier);
        w.write_f64(self.now);
        w.write_f64(self.horizon_end);
        Ok(StateBlob::new(
            "replan",
            REPLAN_STATE_VERSION,
            w.into_payload(),
        ))
    }

    fn restore_with_log(blob: &StateBlob, log: &SegmentLog) -> Result<Self, SnapshotError> {
        let mut r = blob.expect("replan", REPLAN_STATE_VERSION)?;
        let machines = r.read_usize()?;
        let alpha = r.read_f64()?;
        let state = Self {
            env: OnlineEnv { machines, alpha },
            planner: r.read_part()?,
            admission: r.read_part()?,
            admission_scratch: A::Scratch::default(),
            pending: r.read_seq()?,
            plan: Schedule::empty(machines),
            cache: r.read_part()?,
            replans: r.read_usize()?,
            warm_start: r.read_bool()?,
            committed: r.read_part::<FrontierPart>()?.resolve(log)?,
            now: r.read_f64()?,
            horizon_end: r.read_f64()?,
        };
        r.finish()?;
        if state.committed.machines != machines {
            return Err(SnapshotError::Invalid(
                "frontier machine count disagrees with the environment".into(),
            ));
        }
        if state
            .pending
            .windows(2)
            .any(|pair| pair[0].deadline.total_cmp(&pair[1].deadline).is_gt())
        {
            return Err(SnapshotError::Invalid(
                "pending list out of deadline order".into(),
            ));
        }
        Ok(state)
    }
}

/// Runs the batch replanning loop and returns the executed schedule.
///
/// This is the original, independently coded reference executor.  The
/// incremental [`ReplanState`] must produce an identical schedule when fed
/// the same instance arrival by arrival; the integration tests verify this
/// on random workloads.
pub fn run_replanning<P: Planner, A: AdmissionPolicy>(
    instance: &Instance,
    planner: &P,
    admission: &A,
) -> Result<Schedule, ScheduleError> {
    let env = OnlineEnv {
        machines: instance.machines,
        alpha: instance.alpha,
    };
    let mut schedule = Schedule::empty(instance.machines);
    if instance.is_empty() {
        return Ok(schedule);
    }

    // Distinct release times in increasing order.
    let mut release_times: Vec<f64> = instance.jobs.iter().map(|j| j.release).collect();
    release_times.sort_by(f64::total_cmp);
    release_times.dedup_by(|a, b| num::approx_eq(*a, *b));
    let horizon_end = instance.horizon().1;

    let mut pending: Vec<PendingJob> = Vec::new();
    let mut scratch = A::Scratch::default();

    for (idx, &now) in release_times.iter().enumerate() {
        // Admit the jobs released now (in id order, as the paper's online
        // model reveals them one at a time).
        let mut arrivals: Vec<&Job> = instance
            .jobs
            .iter()
            .filter(|j| num::approx_eq(j.release, now))
            .collect();
        arrivals.sort_by_key(|j| j.id);
        for job in arrivals {
            if admission.admit(&env, now, job, &pending, &mut scratch)? {
                insert_pending(&mut pending, job);
            }
        }

        // Plan for the remaining work and follow the plan until the next
        // arrival (or the end of the horizon after the last arrival).
        let window_end = release_times.get(idx + 1).copied().unwrap_or(horizon_end);
        if window_end <= now + 1e-15 {
            continue;
        }
        let mut plan = planner.plan(&env, now, &pending)?;
        execute_window(
            &mut schedule,
            &mut pending,
            &mut plan.segments,
            now,
            window_end,
        );
        pending.retain(|p| p.remaining > 1e-9 * p.work.max(1.0) && p.deadline > window_end + 1e-12);
    }

    Ok(schedule)
}

/// Executes the part of `plan` that falls into `[from, to)`, appending the
/// executed segments (with original job ids) to `schedule` and decreasing
/// the pending jobs' remaining work.  The plan's segments are filtered to
/// the window and sorted by start in place (a stable sort: ties keep the
/// planner's order).
fn execute_window(
    schedule: &mut Schedule,
    pending: &mut [PendingJob],
    plan: &mut Vec<Segment>,
    from: f64,
    to: f64,
) {
    plan.retain(|s| s.end > from + 1e-15 && s.start < to - 1e-15);
    plan.sort_by(|a, b| a.start.total_cmp(&b.start));

    for &seg in plan.iter() {
        let mut seg = seg;
        seg.start = seg.start.max(from);
        seg.end = seg.end.min(to);
        if seg.duration() <= 1e-15 {
            continue;
        }
        let Some(plan_id) = seg.job else {
            continue;
        };
        let Some(p) = pending.get_mut(plan_id.index()) else {
            continue;
        };
        // Never process more than the job still needs (guards against
        // overshoot when a planner runs faster than strictly necessary).
        let max_duration = if seg.speed > 0.0 {
            p.remaining / seg.speed
        } else {
            0.0
        };
        if max_duration <= 1e-15 {
            continue;
        }
        if seg.duration() > max_duration {
            seg.end = seg.start + max_duration;
        }
        p.remaining = (p.remaining - seg.work_amount()).max(0.0);
        seg.job = Some(p.id);
        schedule.push(seg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oa::OaPlanner;
    use pss_offline::yds::yds_schedule;
    use pss_types::{validate_schedule, OnlineAlgorithm};

    /// A planner that simply runs every pending job back to back at speed 1
    /// starting from `now` on machine 0 (only useful to test the executor).
    struct NaivePlanner;

    impl Planner for NaivePlanner {
        fn name(&self) -> String {
            "naive".into()
        }

        fn plan(
            &self,
            env: &OnlineEnv,
            now: f64,
            pending: &[PendingJob],
        ) -> Result<Schedule, ScheduleError> {
            let mut s = Schedule::empty(env.machines);
            let mut t = now;
            for (i, p) in pending.iter().enumerate() {
                let d = p.remaining;
                s.push(Segment::work(0, t, t + d, 1.0, JobId(i)));
                t += d;
            }
            Ok(s)
        }
    }

    /// A YDS planner, the real OA, to exercise the executor end to end.
    struct YdsPlanner;

    impl Planner for YdsPlanner {
        fn name(&self) -> String {
            "yds".into()
        }

        fn plan(
            &self,
            env: &OnlineEnv,
            now: f64,
            pending: &[PendingJob],
        ) -> Result<Schedule, ScheduleError> {
            let jobs: Vec<Job> = pending
                .iter()
                .enumerate()
                .map(|(i, p)| p.as_job_at(now, i))
                .collect();
            yds_schedule(&jobs, env.alpha).map(|r| r.schedule)
        }
    }

    fn drive_incremental<P: Planner + Clone, A: AdmissionPolicy + Clone>(
        instance: &Instance,
        planner: &P,
        admission: &A,
    ) -> Schedule {
        let mut state = ReplanState::new(
            planner.clone(),
            admission.clone(),
            OnlineEnv {
                machines: instance.machines,
                alpha: instance.alpha,
            },
        );
        for id in instance.arrival_order() {
            let job = instance.job(id);
            state.on_arrival(job, job.release).unwrap();
        }
        state.finish().unwrap()
    }

    impl Clone for NaivePlanner {
        fn clone(&self) -> Self {
            NaivePlanner
        }
    }

    impl Clone for YdsPlanner {
        fn clone(&self) -> Self {
            YdsPlanner
        }
    }

    #[test]
    fn executor_tracks_remaining_work_across_windows() {
        // Two jobs with generous deadlines; the naive planner at speed 1
        // finishes both.
        let inst =
            Instance::from_tuples(1, 2.0, vec![(0.0, 10.0, 2.0, 1.0), (1.0, 10.0, 3.0, 1.0)])
                .unwrap();
        let s = run_replanning(&inst, &NaivePlanner, &AdmitAll).unwrap();
        let report = validate_schedule(&inst, &s).unwrap();
        assert!(report.rejected.is_empty());
        // Exactly the total work is processed (no overshoot).
        let total: f64 = s.segments.iter().map(|x| x.work_amount()).sum();
        assert!((total - 5.0).abs() < 1e-9);
    }

    #[test]
    fn executor_with_yds_planner_is_oa_and_finishes_everything() {
        let inst = Instance::from_tuples(
            1,
            3.0,
            vec![
                (0.0, 4.0, 1.0, 1.0),
                (1.0, 3.0, 1.0, 1.0),
                (2.0, 6.0, 2.0, 1.0),
            ],
        )
        .unwrap();
        let s = run_replanning(&inst, &YdsPlanner, &AdmitAll).unwrap();
        let report = validate_schedule(&inst, &s).unwrap();
        assert!(report.rejected.is_empty(), "rejected {:?}", report.rejected);
    }

    #[test]
    fn incremental_state_matches_batch_executor() {
        let inst = Instance::from_tuples(
            1,
            2.5,
            vec![
                (0.0, 4.0, 1.0, 1.0),
                (1.0, 3.0, 1.5, 1.0),
                (1.0, 5.0, 0.5, 1.0), // simultaneous arrival
                (2.5, 6.0, 2.0, 1.0),
            ],
        )
        .unwrap();
        for (batch, inc) in [
            (
                run_replanning(&inst, &NaivePlanner, &AdmitAll).unwrap(),
                drive_incremental(&inst, &NaivePlanner, &AdmitAll),
            ),
            (
                run_replanning(&inst, &YdsPlanner, &AdmitAll).unwrap(),
                drive_incremental(&inst, &YdsPlanner, &AdmitAll),
            ),
        ] {
            let bc = batch.cost(&inst);
            let ic = inc.cost(&inst);
            assert!(
                (bc.total() - ic.total()).abs() < 1e-9 * bc.total().max(1.0),
                "batch {} vs incremental {}",
                bc.total(),
                ic.total()
            );
            for t in [0.25, 1.5, 2.0, 3.0, 4.5, 5.5] {
                assert!(
                    (batch.speed_at(0, t) - inc.speed_at(0, t)).abs() < 1e-9,
                    "profiles differ at t={t}"
                );
            }
        }
    }

    #[test]
    fn incremental_frontier_never_extends_past_now() {
        let inst =
            Instance::from_tuples(1, 2.0, vec![(0.0, 10.0, 2.0, 1.0), (3.0, 10.0, 1.0, 1.0)])
                .unwrap();
        let mut state = ReplanState::new(
            NaivePlanner,
            AdmitAll,
            OnlineEnv {
                machines: 1,
                alpha: 2.0,
            },
        );
        for id in inst.arrival_order() {
            let job = inst.job(id);
            state.on_arrival(job, job.release).unwrap();
            for seg in &state.frontier().segments {
                assert!(seg.end <= job.release + 1e-12, "frontier leaks into future");
            }
        }
        let s = state.finish().unwrap();
        assert!(validate_schedule(&inst, &s).unwrap().rejected.is_empty());
    }

    #[test]
    fn rejected_jobs_are_never_executed() {
        #[derive(Clone)]
        struct RejectSecond;
        impl AdmissionPolicy for RejectSecond {
            type Scratch = ();

            fn admit(
                &self,
                _env: &OnlineEnv,
                _now: f64,
                job: &Job,
                _p: &[PendingJob],
                _scratch: &mut (),
            ) -> Result<bool, ScheduleError> {
                Ok(job.id.index() != 1)
            }
        }
        let inst = Instance::from_tuples(1, 2.0, vec![(0.0, 5.0, 1.0, 1.0), (1.0, 5.0, 1.0, 7.0)])
            .unwrap();
        let s = run_replanning(&inst, &YdsPlanner, &RejectSecond).unwrap();
        let report = validate_schedule(&inst, &s).unwrap();
        assert_eq!(report.rejected, vec![JobId(1)]);
        assert!((s.cost(&inst).lost_value - 7.0).abs() < 1e-12);
        // The incremental path reports the rejection in its decision.
        let mut state = ReplanState::new(
            YdsPlanner,
            RejectSecond,
            OnlineEnv {
                machines: 1,
                alpha: 2.0,
            },
        );
        let mut decisions = Vec::new();
        for id in inst.arrival_order() {
            let job = inst.job(id);
            decisions.push(state.on_arrival(job, job.release).unwrap().accepted);
        }
        assert_eq!(decisions, vec![true, false]);
    }

    #[test]
    fn a_job_fed_at_its_deadline_is_rejected_at_its_value() {
        // Job 0 has expired when it is fed: OA, qOA, CLL, OA(m), AVR and
        // BKP lose it at its value without planning or running it, and
        // carry on with the jobs fed after it.
        let jobs = [
            Job::new(0, 0.5, 1.0, 1.0, 3.0),
            Job::new(1, 1.0, 4.0, 1.0, 50.0),
            Job::new(2, 2.0, 4.0, 1.0, 50.0),
            Job::new(3, 3.0, 5.0, 1.0, 50.0),
        ];
        fn drive<R: OnlineScheduler>(name: &str, jobs: &[Job], mut run: R) {
            let decisions = run.on_arrivals(&jobs[..2], 1.0).expect(name);
            assert_eq!(decisions[0], Decision::reject(3.0), "{name}");
            assert!(decisions[1].accepted, "{name}");
            for job in &jobs[2..] {
                let decisions = run.on_arrivals(&[*job], job.release).expect(name);
                assert!(decisions[0].accepted, "{name}: job {}", job.id);
            }
            let schedule = run.finish().expect(name);
            assert!(
                schedule.segments.iter().all(|s| s.job != Some(JobId(0))),
                "{name} ran the expired job"
            );
            let work: f64 = schedule.segments.iter().map(|s| s.work_amount()).sum();
            assert!((work - 3.0).abs() < 1e-9, "{name} processed {work}");
        }
        drive("OA", &jobs, crate::OaScheduler.start(1, 2.0).expect("OA"));
        let qoa = crate::QoaScheduler::default().start(1, 2.0);
        drive("qOA", &jobs, qoa.expect("qOA"));
        drive(
            "CLL",
            &jobs,
            crate::CllScheduler.start(1, 2.0).expect("CLL"),
        );
        drive(
            "AVR",
            &jobs,
            crate::AvrScheduler.start(1, 2.0).expect("AVR"),
        );
        for machines in [1, 2] {
            let run = crate::MultiOaScheduler::default().start(machines, 2.0);
            drive("OA(m)", &jobs, run.expect("OA(m)"));
        }
        // BKP's grid spans the instance it is started for.
        let instance = Instance::from_jobs(1, 2.0, jobs.to_vec()).expect("instance");
        let bkp = crate::BkpScheduler::default().start_for(&instance);
        drive("BKP", &jobs, bkp.expect("BKP run"));
    }

    /// Bursts of one to four equal releases whose deadlines fall on a
    /// quarter grid, so many tie, and whose values sit near CLL's threshold.
    /// Each burst lists its jobs in decreasing id order, so admission order
    /// is not id order.
    fn tied_bursts() -> Vec<(f64, Vec<Job>)> {
        let mut state = 31u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let (mut bursts, mut id, mut t) = (Vec::new(), 0, 0.0);
        while id < 240 {
            t += 0.4 * next();
            let mut burst = Vec::new();
            for _ in 0..1 + (4.0 * next()) as usize {
                let deadline = ((t * 4.0).floor() + 1.0 + (12.0 * next()).floor()) / 4.0;
                let work = 0.05 + next();
                let value = work * work / (deadline - t) * (1.0 + 4.0 * next());
                burst.push(Job::new(id, t, deadline, work, value));
                id += 1;
            }
            burst.reverse();
            bursts.push((t, burst));
        }
        bursts
    }

    #[test]
    fn pending_list_stays_in_deadline_order_with_ties_in_admission_order() {
        fn check<P: Planner, A: AdmissionPolicy>(name: &str, make: impl Fn() -> ReplanState<P, A>) {
            let bursts = tied_bursts();
            // Each job's position in the feed: its admission order.
            let mut fed = vec![0; bursts.iter().map(|(_, burst)| burst.len()).sum()];
            for (position, job) in bursts.iter().flat_map(|(_, burst)| burst).enumerate() {
                fed[job.id.index()] = position;
            }
            for coalesce in [false, true] {
                let mut run = make();
                let mut ties = 0;
                for (t, burst) in &bursts {
                    let feeds: Vec<&[Job]> = match coalesce {
                        true => vec![burst],
                        false => burst.chunks(1).collect(),
                    };
                    for jobs in feeds {
                        run.on_arrivals(jobs, *t).expect(name);
                        for pair in run.pending().windows(2) {
                            let (a, b) = (&pair[0], &pair[1]);
                            let order = a.deadline.total_cmp(&b.deadline);
                            assert!(order.is_le(), "{name}: {a:?} before {b:?}");
                            if order.is_eq() {
                                assert!(fed[a.id.index()] < fed[b.id.index()], "{name}: {a:?}");
                                ties += 1;
                            }
                        }
                    }
                }
                assert!(ties > 50, "{name}: only {ties} tied neighbours");
                run.finish().expect(name);
            }
        }
        use crate::{CllScheduler, MultiOaScheduler, OaScheduler, QoaScheduler};
        check("OA", || OaScheduler.start(1, 2.0).expect("OA"));
        let qoa = || QoaScheduler::default().start(1, 2.0).expect("qOA");
        check("qOA", qoa);
        check("CLL", || CllScheduler.start(1, 2.0).expect("CLL"));
        let oam = || MultiOaScheduler::default().start(2, 2.0).expect("OA(m)");
        check("OA(m)", oam);
    }

    #[test]
    fn restore_refuses_a_pending_list_out_of_deadline_order() {
        use crate::OaScheduler;
        let mut run = OaScheduler.start(1, 2.0).expect("OA");
        let jobs = [
            Job::new(0, 0.0, 4.0, 1.0, 1.0),
            Job::new(1, 0.0, 2.0, 1.0, 1.0),
            Job::new(2, 0.0, 3.0, 1.0, 1.0),
        ];
        run.on_arrivals(&jobs, 0.0).expect("burst");
        run.on_arrivals(&[Job::new(3, 0.5, 3.0, 1.0, 1.0)], 0.5)
            .expect("arrival");
        let deadlines: Vec<f64> = run.pending().iter().map(|p| p.deadline).collect();
        assert_eq!(deadlines, [2.0, 3.0, 3.0, 4.0]);
        let restore = |state: &ReplanState<OaPlanner, AdmitAll>| {
            let mut log = SegmentLog::new(1);
            let blob = state.snapshot_live(&mut log).expect("snapshot");
            ReplanState::<OaPlanner, AdmitAll>::restore_with_log(&blob, &log)
        };
        assert!(restore(&run).is_ok());
        // Tied deadlines may lie in either order; a later one may not come
        // first.
        let mut tied = run.clone();
        tied.pending.swap(1, 2);
        assert!(restore(&tied).is_ok());
        for (a, b) in [(0, 1), (2, 3), (0, 3)] {
            let mut state = run.clone();
            state.pending.swap(a, b);
            assert!(
                matches!(restore(&state), Err(SnapshotError::Invalid(_))),
                "a pending list with entries {a} and {b} swapped was not refused"
            );
        }
    }

    #[test]
    fn empty_instance_gives_empty_schedule() {
        let inst = Instance::from_tuples(2, 2.0, vec![]).unwrap();
        let s = run_replanning(&inst, &NaivePlanner, &AdmitAll).unwrap();
        assert!(s.segments.is_empty());
        let state = ReplanState::new(
            NaivePlanner,
            AdmitAll,
            OnlineEnv {
                machines: 2,
                alpha: 2.0,
            },
        );
        assert!(state.finish().unwrap().segments.is_empty());
    }
}
