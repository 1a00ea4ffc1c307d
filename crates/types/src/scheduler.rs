//! Algorithm traits implemented across the workspace.
//!
//! Two views of a scheduling algorithm coexist:
//!
//! * [`Scheduler`] — the *batch* view: map a complete [`Instance`] to a
//!   [`Schedule`].  Offline algorithms (YDS, brute force, the convex
//!   solver) implement this directly.
//! * [`OnlineScheduler`] / [`OnlineAlgorithm`] — the *event-driven* view:
//!   jobs arrive in bursts of simultaneous arrivals via
//!   [`OnlineScheduler::on_arrivals`] (a lone job is the one-job burst
//!   [`OnlineScheduler::on_arrival`]), every decision is made with only the
//!   jobs released so far, and the already-committed past
//!   ([`OnlineScheduler::frontier`]) is never revised.  All online
//!   algorithms in the workspace (PD, OA, qOA, multiprocessor OA, AVR, BKP,
//!   CLL) implement this pair, and a blanket adapter recovers their batch
//!   [`Scheduler`] impl, so the experiment harness can keep treating every
//!   algorithm uniformly.

use crate::error::ScheduleError;
use crate::instance::Instance;
use crate::job::Job;
use crate::segment::Schedule;

/// A scheduling algorithm that maps an instance to a schedule.
///
/// Both offline algorithms (YDS, brute force, the convex-program solver) and
/// online algorithms implement this trait (the latter through the blanket
/// adapter over [`OnlineAlgorithm`]); it is what the experiment harness and
/// the simulator consume.
pub trait Scheduler {
    /// Human-readable name used in experiment tables (e.g. `"PD"`, `"OA"`,
    /// `"YDS"`).
    fn name(&self) -> String;

    /// Computes a schedule for the instance.
    ///
    /// Implementations must return a schedule over `instance.machines`
    /// machines whose segments respect the availability windows of the jobs
    /// they process; [`validate_schedule`](crate::validate::validate_schedule)
    /// checks this.
    fn schedule(&self, instance: &Instance) -> Result<Schedule, ScheduleError>;
}

/// The outcome of one job's arrival.
///
/// # Dual-value convention
///
/// Every online algorithm in the workspace follows one convention for the
/// `dual` field, constructed through [`Decision::accept`] /
/// [`Decision::reject`]:
///
/// * **accepted** — `dual` is the dual variable `λ_j` the algorithm
///   associates with the job (for the paper's primal-dual algorithm the
///   water level `δ·∂P_k/∂x_{jk}` reached by the fill).  Algorithms without
///   a dual interpretation (OA, qOA, OA(m), AVR, BKP, CLL) report `0.0`.
/// * **rejected** — `dual` is always the job's value `v_j` (the lost value
///   paid by the objective), for *every* algorithm.  This matches the
///   paper's Listing 1 (`λ_j = v_j` on rejection) and makes
///   `Σ_rejected dual` the lost-value part of the cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Whether the algorithm committed to finishing the job.  Rejected jobs
    /// are permanently lost (their value is paid instead of energy).
    pub accepted: bool,
    /// The dual value `λ_j` of the job under the convention above: the
    /// algorithm's dual variable (or `0`) when accepted, the job's value
    /// when rejected.
    pub dual: f64,
}

impl Decision {
    /// An acceptance with the given dual value.
    pub fn accept(dual: f64) -> Self {
        Self {
            accepted: true,
            dual,
        }
    }

    /// A rejection; `lost_value` (the job's value) becomes the dual value.
    pub fn reject(lost_value: f64) -> Self {
        Self {
            accepted: false,
            dual: lost_value,
        }
    }
}

/// Folds one decision into a rolling dual-price EWMA — the pricing rule of
/// `pss_sim::ShardCore`, through which the serving daemon and the sharded
/// simulator feed (one implementation so replay, recovery and the drift
/// oracle agree to the bit).
///
/// * **Accepted** — the marginal price `λ_j` folds symmetrically:
///   `p ← (1-β)·p + β·λ_j`.  Cheap capacity pulls the price down.
/// * **Rejected** — a rejection of value `v_j` is one-sided evidence: the
///   shard's clearing price exceeds `v_j`, so the price folds `v_j` only
///   **upward** (`v_j > p`), and a rejection *below* the current price
///   leaves it bit-unchanged.  Folding cheap rejections symmetrically
///   would *lower* the price — claiming the shard got cheaper because it
///   turned away a cheap job — which makes a rejection-dominated shard a
///   magnet for cheapest-price routing (runs of consecutive cheap
///   rejections hold its EWMA at the bottom of the fleet).
///
/// The caller guarantees decision-free batches never reach this fold, so
/// a batch with no decisions leaves the price bit-unchanged and the
/// signal is never NaN for finite inputs.
pub fn fold_price(price: f64, smoothing: f64, decision: &Decision) -> f64 {
    if decision.accepted || decision.dual > price {
        (1.0 - smoothing) * price + smoothing * decision.dual
    } else {
        price
    }
}

/// One *run* of an event-driven online algorithm.
///
/// A run is stateful: jobs are fed in bursts, at nondecreasing times, via
/// [`on_arrivals`](Self::on_arrivals), the one arrival method a run
/// implements.  The online information model is structural: a run only
/// ever sees jobs that have been fed to it, so it cannot base decisions on
/// the future.  The complementary property — the *past* is never revised —
/// is exposed through [`frontier`](Self::frontier) and verified
/// operationally by the streaming replay harness in the `pss-sim` crate
/// (`replay` module).
///
/// Runs are created by [`OnlineAlgorithm::start`]; the blanket adapter
/// `impl<A: OnlineAlgorithm> Scheduler for A` drives a fresh run over a
/// whole instance via [`run_online`].
pub trait OnlineScheduler {
    /// Feeds a *burst* of simultaneous arrivals at time `now` and returns
    /// one accept/reject decision per job, in slice order, each with the
    /// job's dual value.
    ///
    /// # Contract
    ///
    /// * `now` must be nondecreasing across calls; implementations return
    ///   an error on out-of-order feeds.  Typically `now` is the release of
    ///   the burst's last job.
    /// * Every job in `jobs` arrives at the same instant `now` (each job's
    ///   release may precede `now`; the per-job ingress checks of
    ///   [`check_arrival`] still apply, so a job more than
    ///   [`ARRIVAL_ORDER_TOLERANCE`] *after* `now` is rejected with an
    ///   error).
    /// * Jobs are processed **in slice order**: admission rules that
    ///   consult the pending set see the burst's earlier jobs already
    ///   admitted.
    /// * A burst decides exactly as the same jobs fed as one-job bursts at
    ///   the same `now`: same decisions and duals, same frontier, same
    ///   final schedule.  The burst only shares the per-burst work (one
    ///   replan, one index merge, one partition update for the whole burst
    ///   instead of one per job) — the burst-equivalence integration tests
    ///   (`tests/incremental_equivalence.rs`) pin this for every algorithm
    ///   in the workspace.
    /// * On error the run may have ingested a prefix of the burst and
    ///   should be discarded.
    ///
    /// An empty burst is a no-op returning an empty vector (in particular
    /// it does not advance the run's clock).
    fn on_arrivals(&mut self, jobs: &[Job], now: f64) -> Result<Vec<Decision>, ScheduleError>;

    /// Feeds one job at time `now` as a one-job burst and returns its
    /// decision, or [`ScheduleError::ArrivalContract`] if `on_arrivals`
    /// breaks its contract by not answering with exactly one.
    fn on_arrival(&mut self, job: &Job, now: f64) -> Result<Decision, ScheduleError> {
        match self.on_arrivals(std::slice::from_ref(job), now)?[..] {
            [decision] => Ok(decision),
            ref other => Err(ScheduleError::ArrivalContract {
                jobs: 1,
                decisions: other.len(),
            }),
        }
    }

    /// The committed *frontier*: the partial schedule for the past (times
    /// `< now`) that the run guarantees never to revise.  It grows
    /// monotonically as arrivals are processed and, once
    /// [`finish`](Self::finish) is called, coincides with the final
    /// schedule on every already-committed time range.
    fn frontier(&self) -> &Schedule;

    /// Consumes the run and returns the complete schedule (the committed
    /// frontier extended to the end of the horizon of the released jobs).
    fn finish(self) -> Result<Schedule, ScheduleError>
    where
        Self: Sized;
}

/// An online algorithm: a (cheaply copyable) configuration able to start
/// fresh event-driven runs.
///
/// Implementing this trait is all an online algorithm needs to do; the
/// blanket impl `impl<A: OnlineAlgorithm> Scheduler for A` recovers the
/// batch interface by replaying an instance's arrival sequence through a
/// fresh run, so the experiment harness, metrics and simulator keep working
/// unchanged.
pub trait OnlineAlgorithm {
    /// The run state this algorithm produces.
    type Run: OnlineScheduler;

    /// Human-readable name used in experiment tables (e.g. `"PD"`, `"OA"`).
    fn algorithm_name(&self) -> String;

    /// Starts a fresh run for `machines` machines and energy exponent
    /// `alpha`, before any job is known.
    fn start(&self, machines: usize, alpha: f64) -> Result<Self::Run, ScheduleError>;

    /// Starts a fresh run for an instance's static parameters.
    ///
    /// The default forwards to [`start`](Self::start) with the instance's
    /// machine count and `α`.  Algorithms whose *discretisation* (not their
    /// decisions) depends on static instance metadata — BKP evaluates its
    /// speed expression on a uniform time grid over the horizon — override
    /// this to pick the grid; they still learn about individual jobs only
    /// through [`OnlineScheduler::on_arrivals`].
    fn start_for(&self, instance: &Instance) -> Result<Self::Run, ScheduleError> {
        self.start(instance.machines, instance.alpha)
    }
}

/// Slack of the arrival-time contract checks: times closer than this
/// are treated as simultaneous, and a job may be fed at most this much
/// before its nominal release.  Every `on_arrivals` implementation in the
/// workspace shares this single constant (via [`check_arrival`] /
/// [`check_arrival_order`]).
///
/// Producers that cannot honour the contract (concurrent tenants racing
/// far beyond this tolerance) go through the serving layer, whose
/// release-floor clamp restores monotone feed order; the chaos suite
/// submits adversarially shuffled waves to pin that the clamp replays
/// bit-identically.
pub const ARRIVAL_ORDER_TOLERANCE: f64 = 1e-9;

/// Checks the nondecreasing-arrival-time contract of
/// [`OnlineScheduler::on_arrivals`]: `now` may not lie (more than
/// [`ARRIVAL_ORDER_TOLERANCE`]) before the previous arrival time.  Every run
/// implementation in the workspace routes its ordering check through this
/// helper so the tolerance and error wording stay in one place.
pub fn check_arrival_order(previous: f64, now: f64) -> Result<(), ScheduleError> {
    if now < previous - ARRIVAL_ORDER_TOLERANCE {
        return Err(ScheduleError::Internal(format!(
            "jobs must arrive in release order: got time {now} after {previous}"
        )));
    }
    Ok(())
}

/// The full ingress check shared by every `on_arrivals` implementation:
///
/// 1. the job's fields are finite and well-formed ([`Job::validate`]) —
///    validating once at ingress is what lets the numeric code downstream
///    sort with [`f64::total_cmp`] instead of panicking on NaN,
/// 2. the job is not fed before its release time (more than
///    [`ARRIVAL_ORDER_TOLERANCE`] early),
/// 3. arrival times are nondecreasing ([`check_arrival_order`]).
///
/// `previous` is the run's last arrival time (`f64::NEG_INFINITY` before the
/// first arrival).
pub fn check_arrival(job: &Job, previous: f64, now: f64) -> Result<(), ScheduleError> {
    job.validate()
        .map_err(|e| ScheduleError::Internal(e.to_string()))?;
    if now < job.release - ARRIVAL_ORDER_TOLERANCE {
        return Err(ScheduleError::Internal(format!(
            "job {} fed before its release time ({} < {})",
            job.id, now, job.release
        )));
    }
    check_arrival_order(previous, now)
}

/// Drives a fresh run of `algo` over the whole instance, feeding jobs in
/// arrival order (release time, ties by id) and finishing the run.
///
/// This is the batch adapter used by the blanket [`Scheduler`] impl for
/// online algorithms; the streaming simulator and replay harness in
/// `pss-sim` provide richer drivers (per-event metrics, frontier-stability
/// checks) around the same trait.
pub fn run_online<A: OnlineAlgorithm + ?Sized>(
    algo: &A,
    instance: &Instance,
) -> Result<Schedule, ScheduleError> {
    let mut run = algo.start_for(instance)?;
    for id in instance.arrival_order() {
        let job = instance.job(id);
        run.on_arrival(job, job.release)?;
    }
    run.finish()
}

impl<A: OnlineAlgorithm> Scheduler for A {
    fn name(&self) -> String {
        self.algorithm_name()
    }

    fn schedule(&self, instance: &Instance) -> Result<Schedule, ScheduleError> {
        run_online(self, instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::segment::Segment;

    struct Noop;

    impl Scheduler for Noop {
        fn name(&self) -> String {
            "noop".into()
        }

        fn schedule(&self, instance: &Instance) -> Result<Schedule, ScheduleError> {
            Ok(Schedule::empty(instance.machines))
        }
    }

    /// A tiny online algorithm used to exercise the adapter: every job runs
    /// at its own density over its whole window on machine 0.
    struct Density;

    struct DensityRun {
        committed: Schedule,
        pending: Vec<Job>,
        now: f64,
    }

    impl DensityRun {
        fn commit_to(&mut self, to: f64) {
            // Commit the part of every known job's density segment that has
            // elapsed; jobs only extend into the future, so this never
            // revises the past.
            for job in &self.pending {
                let from = job.release.max(self.now);
                let until = job.deadline.min(to);
                if until > from {
                    self.committed
                        .push(Segment::work(0, from, until, job.density(), job.id));
                }
            }
            self.now = self.now.max(to);
        }
    }

    impl OnlineScheduler for DensityRun {
        fn on_arrivals(&mut self, jobs: &[Job], now: f64) -> Result<Vec<Decision>, ScheduleError> {
            if now < self.now {
                return Err(ScheduleError::Internal("out of order arrival".into()));
            }
            self.commit_to(now);
            self.pending.extend_from_slice(jobs);
            Ok(vec![Decision::accept(0.0); jobs.len()])
        }

        fn frontier(&self) -> &Schedule {
            &self.committed
        }

        fn finish(mut self) -> Result<Schedule, ScheduleError> {
            let end = self
                .pending
                .iter()
                .map(|j| j.deadline)
                .fold(self.now, f64::max);
            self.commit_to(end);
            Ok(self.committed)
        }
    }

    impl OnlineAlgorithm for Density {
        type Run = DensityRun;

        fn algorithm_name(&self) -> String {
            "density".into()
        }

        fn start(&self, machines: usize, _alpha: f64) -> Result<Self::Run, ScheduleError> {
            Ok(DensityRun {
                committed: Schedule::empty(machines),
                pending: Vec::new(),
                now: f64::NEG_INFINITY,
            })
        }
    }

    #[test]
    fn batch_scheduler_works_through_trait_objects() {
        let inst = Instance::from_tuples(1, 2.0, vec![(0.0, 1.0, 1.0, 1.0)]).unwrap();
        let by_ref: &dyn Scheduler = &Noop;
        assert_eq!(by_ref.name(), "noop");
        assert!(by_ref.schedule(&inst).is_ok());
        let boxed: Box<dyn Scheduler> = Box::new(Noop);
        assert_eq!(boxed.name(), "noop");
        assert!(boxed.schedule(&inst).unwrap().segments.is_empty());
    }

    #[test]
    fn blanket_adapter_recovers_the_batch_scheduler() {
        let inst = Instance::from_tuples(1, 2.0, vec![(0.0, 2.0, 1.0, 1.0), (1.0, 3.0, 1.0, 1.0)])
            .unwrap();
        // Via the blanket impl, the online algorithm is a Scheduler.
        let s: &dyn Scheduler = &Density;
        assert_eq!(s.name(), "density");
        let schedule = s.schedule(&inst).unwrap();
        // Both jobs fully processed at their densities.
        let work = schedule.work_per_job(2);
        assert!((work[0] - 1.0).abs() < 1e-12);
        assert!((work[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frontier_grows_monotonically_and_matches_the_final_schedule() {
        let inst = Instance::from_tuples(
            1,
            2.0,
            vec![
                (0.0, 1.0, 0.5, 1.0),
                (1.0, 2.0, 0.5, 1.0),
                (2.0, 3.0, 0.5, 1.0),
            ],
        )
        .unwrap();
        let mut run = Density.start_for(&inst).unwrap();
        let mut last_len = 0usize;
        for id in inst.arrival_order() {
            let job = inst.job(id);
            let d = run.on_arrival(job, job.release).unwrap();
            assert!(d.accepted);
            assert!(run.frontier().segments.len() >= last_len);
            last_len = run.frontier().segments.len();
        }
        // The frontier's committed speeds agree with the final schedule.
        let committed = run.frontier().clone();
        let full = run.finish().unwrap();
        for sample in [0.25, 0.75, 1.5] {
            assert!(
                (committed.speed_at(0, sample) - full.speed_at(0, sample)).abs() < 1e-12,
                "past revised at t={sample}"
            );
        }
    }

    /// A run that answers every burst with a fixed number of decisions,
    /// whatever the burst's length.
    struct Miscounting(usize, Schedule);

    impl OnlineScheduler for Miscounting {
        fn on_arrivals(&mut self, _: &[Job], _: f64) -> Result<Vec<Decision>, ScheduleError> {
            Ok(vec![Decision::accept(0.0); self.0])
        }

        fn frontier(&self) -> &Schedule {
            &self.1
        }

        fn finish(self) -> Result<Schedule, ScheduleError> {
            Ok(self.1)
        }
    }

    #[test]
    fn on_arrival_is_the_one_job_burst() {
        let inst = Instance::from_tuples(
            1,
            2.0,
            vec![
                (0.0, 2.0, 0.5, 1.0),
                (0.0, 3.0, 0.5, 1.0),
                (1.0, 4.0, 0.5, 1.0),
            ],
        )
        .unwrap();
        let mut single = Density.start_for(&inst).unwrap();
        let mut burst = Density.start_for(&inst).unwrap();
        for job in &inst.jobs {
            assert_eq!(
                vec![single.on_arrival(job, job.release).unwrap()],
                burst
                    .on_arrivals(std::slice::from_ref(job), job.release)
                    .unwrap()
            );
        }
        let a = single.finish().unwrap();
        let b = burst.finish().unwrap();
        assert_eq!(a.segments, b.segments, "one-job paths diverged");

        // A run answering a one-job burst with zero or two decisions breaks
        // the contract: `on_arrival` reports it instead of panicking.
        for answers in [0, 2] {
            let mut run = Miscounting(answers, Schedule::empty(1));
            match run.on_arrival(&inst.jobs[0], 0.0) {
                Err(ScheduleError::ArrivalContract { jobs, decisions }) => {
                    assert_eq!((jobs, decisions), (1, answers))
                }
                other => panic!("{answers} decisions: expected the violation, got {other:?}"),
            }
        }
    }

    #[test]
    fn decisions_carry_dual_values() {
        let accept = Decision::accept(2.5);
        assert!(accept.accepted);
        assert_eq!(accept.dual, 2.5);
        let reject = Decision::reject(7.0);
        assert!(!reject.accepted);
        assert_eq!(reject.dual, 7.0);
    }

    #[test]
    fn check_arrival_enforces_the_ingress_contract() {
        let job = Job::new(0, 2.0, 4.0, 1.0, 1.0);
        // Fresh run (previous = -inf) at the release time: fine.
        assert!(check_arrival(&job, f64::NEG_INFINITY, 2.0).is_ok());
        // Later than release and after the previous arrival: fine.
        assert!(check_arrival(&job, 2.0, 3.0).is_ok());
        // Fed clearly before its release: rejected.
        assert!(check_arrival(&job, f64::NEG_INFINITY, 1.0).is_err());
        // Within the tolerance of the release: fine.
        assert!(check_arrival(&job, f64::NEG_INFINITY, 2.0 - 1e-12).is_ok());
        // Out of order versus the previous arrival: rejected.
        assert!(check_arrival(&job, 3.0, 2.0).is_err());
    }

    #[test]
    fn check_arrival_rejects_non_finite_jobs_at_ingress() {
        let mut nan_work = Job::new(0, 0.0, 1.0, 1.0, 1.0);
        nan_work.work = f64::NAN;
        assert!(check_arrival(&nan_work, f64::NEG_INFINITY, 0.0).is_err());
        let mut inf_deadline = Job::new(0, 0.0, 1.0, 1.0, 1.0);
        inf_deadline.deadline = f64::INFINITY;
        assert!(check_arrival(&inf_deadline, f64::NEG_INFINITY, 0.0).is_err());
    }
}
