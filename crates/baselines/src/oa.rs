//! Optimal Available (OA), its speed-scaled variant qOA, and the
//! multiprocessor OA extension.
//!
//! All three are plan-revision algorithms driven by the replanning executor
//! in [`crate::replan`]: they implement the event-driven
//! [`OnlineAlgorithm`] trait (and hence, via the blanket adapter, the batch
//! [`Scheduler`](pss_types::Scheduler) trait) by starting a
//! [`ReplanState`] with the appropriate planner.  The original batch loops
//! are retained as `batch_schedule` reference paths for the equivalence
//! tests.
//!
//! Every replan is left-aligned (each pending job's window starts at the
//! replan time), and each planner solves it exactly in closed form over the
//! executor's deadline-ordered pending list: OA and qOA with the YDS
//! staircase ([`Staircase`](pss_offline::Staircase)), OA(m) with its
//! `m`-machine form ([`MultiStaircase`]).  Their from-scratch
//! [`Planner::plan`]s, general YDS and coordinate descent on the convex
//! program, are the references those are pinned against.

use pss_convex::{solve_min_energy_with, ProgramContext, SolverOptions};
use pss_offline::incremental::MultiStaircase;
use pss_offline::yds::yds_schedule;
use pss_power::AlphaPower;
use pss_types::snapshot::{BlobReader, BlobWriter, SnapshotError, SnapshotPart};
use pss_types::{Instance, Job, OnlineAlgorithm, Schedule, ScheduleError};

use crate::replan::{
    run_replanning, AdmitAll, OnlineEnv, PendingJob, PlanCache, Planner, ReplanState,
};

/// The YDS-replanning planner: the plan at time `t` is the energy-optimal
/// schedule of the remaining work, which is precisely OA's definition.
#[derive(Debug, Clone, Copy, Default)]
pub struct OaPlanner {
    /// Factor by which every planned speed is multiplied (1.0 for OA,
    /// `2 − 1/α` for the usual qOA parameterisation).
    pub speed_factor: f64,
}

impl OaPlanner {
    /// Planner with a given speed factor (must be ≥ 1 so deadlines are met).
    pub fn with_factor(speed_factor: f64) -> Self {
        assert!(speed_factor >= 1.0, "speed factor must be >= 1");
        Self { speed_factor }
    }

    /// Multiplies every planned speed by the configured factor (1.0 and the
    /// `Default` zero value are the plain OA plan).
    fn apply_factor(&self, plan: &mut Schedule) {
        let factor = if self.speed_factor > 0.0 {
            self.speed_factor
        } else {
            1.0
        };
        // pss-lint: allow(float-eq) — exact sentinel: skip the no-op scale
        if factor != 1.0 {
            for seg in &mut plan.segments {
                seg.speed *= factor;
            }
        }
    }
}

impl Planner for OaPlanner {
    fn name(&self) -> String {
        // pss-lint: allow(float-eq) — exact config sentinels (1.0 = plain OA)
        if self.speed_factor == 1.0 || self.speed_factor == 0.0 {
            "OA".into()
        } else {
            format!("qOA(q={:.3})", self.speed_factor)
        }
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
        let mut plan = yds_schedule(&jobs, env.alpha)?.schedule;
        self.apply_factor(&mut plan);
        Ok(plan)
    }

    /// The replan the executor runs: every pending job has already been
    /// released, so its effective window starts at `now` — the left-aligned
    /// YDS special case, one staircase pass over the pending list in its
    /// deadline order instead of the general `O(k³)` critical-interval
    /// search.  Only the segments that start before `until` are emitted.
    fn plan_warm(
        &self,
        _env: &OnlineEnv,
        now: f64,
        pending: &[PendingJob],
        until: f64,
        cache: &mut PlanCache,
        out: &mut Schedule,
    ) -> Result<(), ScheduleError> {
        // The staircase's segment ids are pending positions, the dense ids
        // the executor expects.
        let deadline = |i: usize| pending[i].deadline;
        let remaining = |i: usize| pending[i].remaining;
        cache
            .staircase
            .plan_window(now, pending.len(), deadline, remaining, until, out)?;
        self.apply_factor(out);
        Ok(())
    }
}

/// The planner's configuration is part of a [`ReplanState`] snapshot, so a
/// restored run replans with the identical speed factor; a tag guards
/// against restoring a blob captured from a different planner type.
impl SnapshotPart for OaPlanner {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_str("oa-planner");
        w.write_f64(self.speed_factor);
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        match r.read_str()?.as_str() {
            "oa-planner" => Ok(Self {
                speed_factor: r.read_f64()?,
            }),
            other => Err(SnapshotError::Invalid(format!(
                "expected an OA-family planner, found {other}"
            ))),
        }
    }
}

/// **Optimal Available** for a single machine (Yao, Demers & Shenker):
/// replan with YDS on the remaining work at every arrival.  `α^α`-competitive
/// for instances where every job must be finished.
#[derive(Debug, Clone, Copy, Default)]
pub struct OaScheduler;

impl OaScheduler {
    /// The original batch replanning loop, kept as the reference
    /// implementation for the incremental-vs-batch equivalence tests.
    pub fn batch_schedule(&self, instance: &Instance) -> Result<Schedule, ScheduleError> {
        crate::require_single_machine(instance.machines, "OA", "; use MultiOaScheduler for m > 1")?;
        run_replanning(instance, &OaPlanner { speed_factor: 1.0 }, &AdmitAll)
    }
}

impl OnlineAlgorithm for OaScheduler {
    type Run = ReplanState<OaPlanner, AdmitAll>;

    fn algorithm_name(&self) -> String {
        "OA".into()
    }

    fn start(&self, machines: usize, alpha: f64) -> Result<Self::Run, ScheduleError> {
        crate::require_single_machine(machines, "OA", "; use MultiOaScheduler for m > 1")?;
        Ok(ReplanState::new(
            OaPlanner { speed_factor: 1.0 },
            AdmitAll,
            OnlineEnv { machines, alpha },
        ))
    }
}

/// **qOA** (Bansal, Chan, Pruhs & Katz): follow OA's plan at `q` times its
/// speed.  The default `q = 2 − 1/α` is the parameterisation analysed in the
/// literature; any `q ≥ 1` is accepted.
#[derive(Debug, Clone, Copy, Default)]
pub struct QoaScheduler {
    /// The speed multiplier `q ≥ 1`; `None` selects `2 − 1/α`.
    pub q: Option<f64>,
}

impl QoaScheduler {
    fn effective_q(&self, alpha: f64) -> f64 {
        self.q.unwrap_or(2.0 - 1.0 / alpha).max(1.0)
    }

    /// The original batch replanning loop (reference implementation).
    pub fn batch_schedule(&self, instance: &Instance) -> Result<Schedule, ScheduleError> {
        crate::require_single_machine(
            instance.machines,
            "qOA",
            "; use MultiOaScheduler for m > 1",
        )?;
        let q = self.effective_q(instance.alpha);
        run_replanning(instance, &OaPlanner::with_factor(q), &AdmitAll)
    }
}

impl OnlineAlgorithm for QoaScheduler {
    type Run = ReplanState<OaPlanner, AdmitAll>;

    fn algorithm_name(&self) -> String {
        "qOA".into()
    }

    fn start(&self, machines: usize, alpha: f64) -> Result<Self::Run, ScheduleError> {
        crate::require_single_machine(machines, "qOA", "; use MultiOaScheduler for m > 1")?;
        Ok(ReplanState::new(
            OaPlanner::with_factor(self.effective_q(alpha)),
            AdmitAll,
            OnlineEnv { machines, alpha },
        ))
    }
}

/// Planner replanning with the *multiprocessor* offline optimum.
///
/// [`Planner::plan`] solves the replan's convex program by coordinate
/// descent from zeros with `options` and realises it with Chen et al.'s
/// algorithm: the from-scratch reference that `run_replanning`,
/// `batch_schedule` and
/// [`ReplanState::with_warm_start(false)`](crate::replan::ReplanState::with_warm_start)
/// run.  [`Planner::plan_warm`] solves the same left-aligned program
/// exactly with [`MultiStaircase`], whose buffers the run's [`PlanCache`]
/// keeps ([`MultiOaWarm`]), and realises only the atomic intervals that
/// start before the window's end.
#[derive(Debug, Clone, Copy)]
pub struct MultiOaPlanner {
    /// Options of the from-scratch coordinate descent.
    pub options: SolverOptions,
}

impl Planner for MultiOaPlanner {
    fn name(&self) -> String {
        "OA(m)".into()
    }

    fn plan(
        &self,
        env: &OnlineEnv,
        now: f64,
        pending: &[PendingJob],
    ) -> Result<Schedule, ScheduleError> {
        if pending.is_empty() {
            return Ok(Schedule::empty(env.machines));
        }
        let jobs: Vec<Job> = pending
            .iter()
            .enumerate()
            .map(|(i, p)| p.as_job_at(now, i))
            .collect();
        let sub = Instance::from_jobs(env.machines, env.alpha, jobs)
            .map_err(|e| ScheduleError::Internal(e.to_string()))?;
        let ctx = ProgramContext::new(&sub);
        let sol = solve_min_energy_with(&ctx, &self.options);
        Ok(ctx.realize_schedule(&sol.assignment))
    }

    /// Exact replan: every pending job is released, so its window is
    /// `[now, d_j)` and [`MultiStaircase`] solves the program in closed
    /// form.  Only the atomic intervals that start before `until` are
    /// realised; segment job ids are pending positions.
    fn plan_warm(
        &self,
        env: &OnlineEnv,
        now: f64,
        pending: &[PendingJob],
        until: f64,
        cache: &mut PlanCache,
        out: &mut Schedule,
    ) -> Result<(), ScheduleError> {
        out.segments.clear();
        if pending.is_empty() {
            return Ok(());
        }
        let warm = cache.multi.get_or_insert_with(MultiOaWarm::default);
        let items = pending.iter().map(|p| (p.deadline, p.remaining));
        let power = AlphaPower::new(env.alpha);
        let programs = warm.staircase.solve(now, env.machines, power, items)?;
        warm.replans += 1;
        warm.total_passes += programs;
        warm.converged_replans += 1;
        warm.staircase.realize_window(until, out);
        Ok(())
    }
}

/// What [`MultiOaPlanner`] keeps in the run's [`PlanCache`]: the exact
/// planner's buffers, which no plan depends on and a checkpoint leaves out,
/// and the replan counts the benchmark's traced run reads.
#[derive(Debug, Clone, Default)]
pub struct MultiOaWarm {
    staircase: MultiStaircase,
    /// Number of replans solved.
    pub replans: usize,
    /// Density solves (the staircase's dynamic programs) over all replans.
    pub total_passes: usize,
    /// Replans solved to the optimum: every replan, since the planner is
    /// exact.
    pub converged_replans: usize,
}

/// The multiprocessor planner's snapshot is its solver options; the tag
/// guards against cross-planner restores.
impl SnapshotPart for MultiOaPlanner {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_str("multi-oa-planner");
        w.write_part(&self.options);
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        match r.read_str()?.as_str() {
            "multi-oa-planner" => Ok(Self {
                options: r.read_part()?,
            }),
            other => Err(SnapshotError::Invalid(format!(
                "expected the multiprocessor OA planner, found {other}"
            ))),
        }
    }
}

/// Only the counts are encoded: every replan solves from the pending set
/// alone, so a restored run plans bit-identically with fresh buffers.
impl SnapshotPart for MultiOaWarm {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_usize(self.replans);
        w.write_usize(self.total_passes);
        w.write_usize(self.converged_replans);
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            staircase: MultiStaircase::default(),
            replans: r.read_usize()?,
            total_passes: r.read_usize()?,
            converged_replans: r.read_usize()?,
        })
    }
}

/// The multiprocessor extension of OA (in the spirit of Albers, Antoniadis &
/// Greiner): at every arrival, recompute the optimal schedule of the
/// remaining work on all `m` machines and follow it.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiOaScheduler {
    /// Convex solver options used for every replanning step.
    pub options: SolverOptions,
}

impl MultiOaScheduler {
    /// The original batch replanning loop (reference implementation).
    pub fn batch_schedule(&self, instance: &Instance) -> Result<Schedule, ScheduleError> {
        run_replanning(
            instance,
            &MultiOaPlanner {
                options: self.options,
            },
            &AdmitAll,
        )
    }
}

impl OnlineAlgorithm for MultiOaScheduler {
    type Run = ReplanState<MultiOaPlanner, AdmitAll>;

    fn algorithm_name(&self) -> String {
        "OA(m)".into()
    }

    fn start(&self, machines: usize, alpha: f64) -> Result<Self::Run, ScheduleError> {
        Ok(ReplanState::new(
            MultiOaPlanner {
                options: self.options,
            },
            AdmitAll,
            OnlineEnv { machines, alpha },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replan::insertion_point;
    use pss_offline::YdsScheduler;
    use pss_power::AlphaPower;
    use pss_types::{validate_schedule, JobId, Scheduler, Segment};

    fn instance(alpha: f64) -> Instance {
        Instance::from_tuples(
            1,
            alpha,
            vec![
                (0.0, 4.0, 1.0, 1.0),
                (1.0, 3.0, 1.5, 1.0),
                (2.0, 6.0, 2.0, 1.0),
                (2.5, 5.0, 0.5, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn oa_finishes_every_job() {
        let inst = instance(3.0);
        let s = OaScheduler.schedule(&inst).unwrap();
        let report = validate_schedule(&inst, &s).unwrap();
        assert!(
            report.rejected.is_empty(),
            "rejected: {:?}",
            report.rejected
        );
    }

    #[test]
    fn oa_cost_is_within_alpha_alpha_of_yds() {
        for alpha in [1.5, 2.0, 3.0] {
            let inst = instance(alpha);
            let oa = OaScheduler.schedule(&inst).unwrap().cost(&inst).energy;
            let opt = YdsScheduler.schedule(&inst).unwrap().cost(&inst).energy;
            let bound = AlphaPower::new(alpha).competitive_ratio_pd();
            assert!(oa >= opt - 1e-9, "OA beats OPT?! {oa} < {opt}");
            assert!(
                oa <= bound * opt + 1e-9,
                "alpha={alpha}: OA {oa} exceeds {bound}·OPT ({opt})"
            );
        }
    }

    #[test]
    fn incremental_oa_matches_the_batch_reference() {
        for alpha in [1.5, 2.0, 3.0] {
            let inst = instance(alpha);
            let batch = OaScheduler.batch_schedule(&inst).unwrap();
            let inc = OaScheduler.schedule(&inst).unwrap();
            assert!(
                (batch.cost(&inst).total() - inc.cost(&inst).total()).abs()
                    < 1e-9 * batch.cost(&inst).total().max(1.0)
            );
            for t in [0.5, 1.5, 2.2, 3.5, 4.5, 5.5] {
                assert!(
                    (batch.speed_at(0, t) - inc.speed_at(0, t)).abs() < 1e-9,
                    "alpha={alpha}: profiles differ at t={t}"
                );
            }
        }
    }

    #[test]
    fn oa_on_single_job_matches_optimum() {
        let inst = Instance::from_tuples(1, 2.0, vec![(0.0, 2.0, 2.0, 1.0)]).unwrap();
        let s = OaScheduler.schedule(&inst).unwrap();
        assert!((s.cost(&inst).energy - 2.0).abs() < 1e-9);
    }

    #[test]
    fn oa_requires_single_machine() {
        let inst = Instance::from_tuples(2, 2.0, vec![(0.0, 1.0, 1.0, 1.0)]).unwrap();
        assert!(OaScheduler.schedule(&inst).is_err());
        assert!(QoaScheduler::default().schedule(&inst).is_err());
    }

    #[test]
    fn qoa_finishes_every_job_and_uses_no_less_energy_than_opt() {
        let inst = instance(2.0);
        let s = QoaScheduler::default().schedule(&inst).unwrap();
        let report = validate_schedule(&inst, &s).unwrap();
        assert!(report.rejected.is_empty());
        let opt = YdsScheduler.schedule(&inst).unwrap().cost(&inst).energy;
        assert!(s.cost(&inst).energy >= opt - 1e-9);
    }

    #[test]
    fn multi_oa_finishes_every_job_on_two_machines() {
        let inst = Instance::from_tuples(
            2,
            2.5,
            vec![
                (0.0, 3.0, 1.0, 1.0),
                (0.5, 2.5, 1.5, 1.0),
                (1.0, 4.0, 2.0, 1.0),
                (1.5, 3.5, 0.8, 1.0),
            ],
        )
        .unwrap();
        let s = MultiOaScheduler::default().schedule(&inst).unwrap();
        let report = validate_schedule(&inst, &s).unwrap();
        assert!(
            report.rejected.is_empty(),
            "rejected: {:?}",
            report.rejected
        );
    }

    /// A segment as its bits, so `==` is bit-for-bit.
    fn bits(s: &Segment) -> (usize, u64, u64, u64, Option<JobId>) {
        (
            s.machine,
            s.start.to_bits(),
            s.end.to_bits(),
            s.speed.to_bits(),
            s.job,
        )
    }

    #[test]
    fn oa_window_plans_are_the_full_plans_prefix_for_both_speed_factors() {
        let alpha = 2.5;
        let env = OnlineEnv { machines: 1, alpha };
        for planner in [
            OaPlanner::default(),
            OaPlanner::with_factor(2.0 - 1.0 / alpha),
        ] {
            let mut state = 5u64;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64) / ((1u64 << 53) as f64)
            };
            let (mut cache, mut window) = (PlanCache::default(), Schedule::empty(1));
            let mut pending: Vec<PendingJob> = Vec::new();
            let mut now = 0.0;
            for round in 0..300 {
                now += 0.3 * next();
                pending.retain(|p| p.deadline > now);
                for p in &mut pending {
                    p.remaining = (p.remaining - 0.2 * next()).max(0.0);
                }
                let tied = pending.first().map(|p| p.deadline);
                let deadline = match tied {
                    Some(d) if next() < 0.3 => d,
                    _ => now + 0.05 + 3.0 * next(),
                };
                let work = if next() < 0.2 { 1e-11 } else { 0.05 + next() };
                // The executor's insertion: after the equal deadlines.
                let job = PendingJob::new(&Job::new(round, now, deadline, work, 1.0));
                pending.insert(insertion_point(&pending, deadline), job);
                let items: Vec<(f64, f64)> =
                    pending.iter().map(|p| (p.deadline, p.remaining)).collect();
                let mut full = pss_offline::left_aligned_plan(now, &items).unwrap();
                planner.apply_factor(&mut full);
                let until = now + 2.0 * next();
                planner
                    .plan_warm(&env, now, &pending, until, &mut cache, &mut window)
                    .unwrap();
                let prefix: Vec<_> = full
                    .segments
                    .iter()
                    .filter(|s| s.start < until)
                    .map(bits)
                    .collect();
                let got: Vec<_> = window.segments.iter().map(bits).collect();
                assert_eq!(got, prefix, "{} round {round}", planner.name());
            }
        }
    }

    #[test]
    fn multi_oa_window_realises_the_intervals_before_until() {
        let env = OnlineEnv {
            machines: 2,
            alpha: 2.5,
        };
        let pending: Vec<PendingJob> = [(3.0, 1.0), (2.5, 1.5), (4.0, 2.0), (3.5, 0.8), (1.0, 0.3)]
            .iter()
            .enumerate()
            .map(|(i, &(deadline, work))| PendingJob::new(&Job::new(i, 0.0, deadline, work, 1.0)))
            .collect();
        let planner = MultiOaPlanner {
            options: SolverOptions::default(),
        };
        let mut cache = PlanCache::default();
        let mut full = Schedule::empty(2);
        planner
            .plan_warm(&env, 0.0, &pending, f64::INFINITY, &mut cache, &mut full)
            .unwrap();
        let full: Vec<_> = full.segments.iter().map(bits).collect();
        let mut window = Schedule::empty(2);
        for until in [0.0, 0.5, 1.0, 2.7, 3.5, 10.0] {
            planner
                .plan_warm(&env, 0.0, &pending, until, &mut cache, &mut window)
                .unwrap();
            let got: Vec<_> = window.segments.iter().map(bits).collect();
            // The window is a prefix of the full realisation, and what it
            // leaves out lies in intervals starting at or after `until`.
            assert_eq!(got, full[..got.len()], "until {until}");
            assert!(
                full[got.len()..]
                    .iter()
                    .all(|s| f64::from_bits(s.1) >= until),
                "until {until}"
            );
        }
        assert!(window.segments.len() == full.len());
    }

    #[test]
    fn multi_oa_matches_oa_on_one_machine() {
        let inst = instance(2.0);
        let a = OaScheduler.schedule(&inst).unwrap().cost(&inst).energy;
        let b = MultiOaScheduler::default()
            .schedule(&inst)
            .unwrap()
            .cost(&inst)
            .energy;
        assert!((a - b).abs() < 1e-3 * a.max(1.0), "OA {a} vs OA(m) {b}");
    }
}
