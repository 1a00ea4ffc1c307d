//! Online-behaviour verification by replay.
//!
//! An algorithm is *online* when its decisions about the past do not depend
//! on jobs that have not been released yet.  An implementation bug could
//! leak future information, so this module checks the operational property
//! directly, in two flavours:
//!
//! * [`streaming_prefix_report`] — the primary, single-pass check for
//!   event-driven algorithms ([`OnlineAlgorithm`]): one run is fed the
//!   arrival stream; after each arrival the speed profile of the window
//!   that just became past is sampled *from the committed frontier*, and at
//!   the end the finished schedule is compared against every stored sample.
//!   Any deviation means the final schedule revised a past the run had
//!   already committed to.  Cost: one run plus `O(n · samples)` profile
//!   samples — no re-solves.
//! * [`prefix_stability_report`] — the batch fallback for arbitrary
//!   [`Scheduler`]s (including offline ones under test): re-runs the
//!   scheduler on every prefix instance and compares past speed profiles
//!   against the full run, at `O(n)` full solves.  Kept for algorithms that
//!   do not expose the incremental API and as an independent cross-check.

use pss_types::{Instance, OnlineAlgorithm, OnlineScheduler, Schedule, ScheduleError, Scheduler};

use crate::feed::{ShardCore, PRICE_SMOOTHING};

/// Result of the prefix-stability check.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixStabilityReport {
    /// The arrival times at which prefixes were compared.
    pub checkpoints: Vec<f64>,
    /// The largest absolute speed-profile deviation observed in the past of
    /// any checkpoint.
    pub max_deviation: f64,
    /// Number of profile samples per checkpoint.
    pub samples: usize,
}

impl PrefixStabilityReport {
    /// `true` if no past deviation above the tolerance was observed.
    pub fn is_online(&self, tol: f64) -> bool {
        self.max_deviation <= tol
    }
}

/// Runs the *batch* prefix-stability check for `scheduler` on `instance`,
/// sampling each machine's speed profile at `samples` points: the scheduler
/// is re-run on every prefix instance (`O(n)` full solves).  Prefer
/// [`streaming_prefix_report`] for algorithms implementing the event-driven
/// [`OnlineAlgorithm`] API.
pub fn prefix_stability_report<S: Scheduler + ?Sized>(
    scheduler: &S,
    instance: &Instance,
    samples: usize,
) -> Result<PrefixStabilityReport, ScheduleError> {
    let full = scheduler.schedule(instance)?;
    let mut checkpoints: Vec<f64> = instance.jobs.iter().map(|j| j.release).collect();
    checkpoints.sort_by(f64::total_cmp);
    checkpoints.dedup();

    let mut max_deviation = 0.0_f64;
    for &t in &checkpoints {
        if t <= instance.horizon().0 {
            continue;
        }
        // The prefix instance: jobs released strictly before t (jobs
        // released exactly at t may be processed from t onwards only, so
        // they cannot affect the past either way; excluding them keeps the
        // comparison strict).
        let keep: Vec<pss_types::JobId> = instance
            .jobs
            .iter()
            .filter(|j| j.release < t - 1e-12)
            .map(|j| j.id)
            .collect();
        if keep.is_empty() {
            continue;
        }
        let prefix = instance.restrict(&keep);
        let prefix_schedule = scheduler.schedule(&prefix)?;
        max_deviation = max_deviation.max(profile_deviation(
            &full,
            &prefix_schedule,
            instance.machines,
            instance.horizon().0,
            t,
            samples,
        ));
    }

    Ok(PrefixStabilityReport {
        checkpoints,
        max_deviation,
        samples,
    })
}

/// Runs the *streaming* prefix-stability check for an event-driven
/// algorithm: a single run of `algo` is fed the arrival stream (one
/// singleton burst per arrival, at its release, through a [`ShardCore`]),
/// the speed profile of each window between consecutive distinct arrival
/// times is sampled from the committed
/// [`frontier`](OnlineScheduler::frontier) at the moment the window
/// becomes past, and at the end the finished schedule is compared against
/// every stored sample.
///
/// A nonzero deviation means the finished schedule differs from what the
/// run had already committed to — i.e. the "past" was revised.  The whole
/// check costs one run plus `O(n · samples)` profile evaluations, instead
/// of the `O(n)` full re-solves of [`prefix_stability_report`].
///
/// `samples` is the number of profile samples per window and machine.
pub fn streaming_prefix_report<A: OnlineAlgorithm + ?Sized>(
    algo: &A,
    instance: &Instance,
    samples: usize,
) -> Result<PrefixStabilityReport, ScheduleError> {
    let samples = samples.max(1);
    let mut core = ShardCore::new(algo.start_for(instance)?, PRICE_SMOOTHING);
    let machines = instance.machines;

    // (from, to, per-machine frontier samples at window midpoints).
    let mut windows: Vec<(f64, f64, Vec<Vec<f64>>)> = Vec::new();
    let mut checkpoints: Vec<f64> = Vec::new();
    let mut last_time: Option<f64> = None;

    for id in instance.arrival_order() {
        let t = instance.job(id).release;
        core.feed(&mut [*instance.job(id)], t)?;
        match last_time {
            None => {
                checkpoints.push(t);
                last_time = Some(t);
            }
            Some(prev) if t > prev + 1e-12 => {
                // The window [prev, t) just became past: freeze its profile
                // as the frontier reports it right now.
                windows.push((
                    prev,
                    t,
                    sample_profile(core.run().frontier(), machines, prev, t, samples),
                ));
                checkpoints.push(t);
                last_time = Some(t);
            }
            Some(_) => {}
        }
    }

    let finished = core.finish()?;
    let mut max_deviation = 0.0_f64;
    for (from, to, frozen) in &windows {
        let final_profile = sample_profile(&finished, machines, *from, *to, samples);
        for (machine, row) in frozen.iter().enumerate() {
            for (i, committed_speed) in row.iter().enumerate() {
                let dev = (committed_speed - final_profile[machine][i]).abs();
                max_deviation = max_deviation.max(dev);
            }
        }
    }

    Ok(PrefixStabilityReport {
        checkpoints,
        max_deviation,
        samples,
    })
}

/// Samples each machine's speed profile at `samples` midpoints of
/// `[from, to)`.
fn sample_profile(
    schedule: &Schedule,
    machines: usize,
    from: f64,
    to: f64,
    samples: usize,
) -> Vec<Vec<f64>> {
    let step = (to - from) / samples as f64;
    (0..machines)
        .map(|machine| {
            (0..samples)
                .map(|i| schedule.speed_at(machine, from + (i as f64 + 0.5) * step))
                .collect()
        })
        .collect()
}

fn profile_deviation(
    a: &Schedule,
    b: &Schedule,
    machines: usize,
    from: f64,
    to: f64,
    samples: usize,
) -> f64 {
    if to <= from {
        return 0.0;
    }
    let step = (to - from) / samples as f64;
    let mut max_dev = 0.0_f64;
    for machine in 0..machines {
        for i in 0..samples {
            let t = from + (i as f64 + 0.5) * step;
            let dev = (a.speed_at(machine, t) - b.speed_at(machine, t)).abs();
            max_dev = max_dev.max(dev);
        }
    }
    max_dev
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_types::{JobId, Segment};

    /// A fake "offline" scheduler that schedules every job at a common speed
    /// proportional to the *total* number of jobs — later arrivals change
    /// the past, so the prefix check must flag it.
    struct Clairvoyant;

    impl Scheduler for Clairvoyant {
        fn name(&self) -> String {
            "clairvoyant".into()
        }

        fn schedule(&self, instance: &Instance) -> Result<Schedule, ScheduleError> {
            let mut s = Schedule::empty(instance.machines);
            let boost = instance.len() as f64;
            for job in &instance.jobs {
                s.push(Segment::work(
                    0,
                    job.release,
                    job.deadline,
                    boost * job.density(),
                    job.id,
                ));
            }
            Ok(s)
        }
    }

    /// An honest online scheduler: every job at its own density, which never
    /// depends on other jobs — but jobs of one machine may overlap, so use a
    /// one-job-per-interval instance.
    struct Honest;

    impl Scheduler for Honest {
        fn name(&self) -> String {
            "honest".into()
        }

        fn schedule(&self, instance: &Instance) -> Result<Schedule, ScheduleError> {
            let mut s = Schedule::empty(instance.machines);
            for job in &instance.jobs {
                s.push(Segment::work(
                    0,
                    job.release,
                    job.deadline,
                    job.density(),
                    job.id,
                ));
            }
            Ok(s)
        }
    }

    fn disjoint_instance() -> Instance {
        Instance::from_tuples(
            1,
            2.0,
            vec![
                (0.0, 1.0, 0.5, 1.0),
                (1.0, 2.0, 0.7, 1.0),
                (2.0, 3.0, 0.9, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn honest_scheduler_passes_the_check() {
        let report = prefix_stability_report(&Honest, &disjoint_instance(), 64).unwrap();
        assert!(report.is_online(1e-9), "deviation {}", report.max_deviation);
    }

    #[test]
    fn clairvoyant_scheduler_fails_the_check() {
        let report = prefix_stability_report(&Clairvoyant, &disjoint_instance(), 64).unwrap();
        assert!(!report.is_online(1e-6));
        assert!(report.max_deviation > 0.1);
    }

    #[test]
    fn single_job_instances_are_trivially_online() {
        let inst = Instance::from_tuples(1, 2.0, vec![(0.0, 1.0, 0.5, 1.0)]).unwrap();
        let report = prefix_stability_report(&Honest, &inst, 16).unwrap();
        assert_eq!(report.max_deviation, 0.0);
        let _ = JobId(0);
    }

    #[test]
    fn streaming_check_passes_for_honest_incremental_algorithms() {
        use pss_baselines::{AvrScheduler, CllScheduler, OaScheduler};

        let inst = Instance::from_tuples(
            1,
            2.0,
            vec![
                (0.0, 4.0, 1.0, 2.0),
                (1.0, 3.0, 1.5, 5.0),
                (2.0, 6.0, 2.0, 1.0),
                (2.5, 5.0, 0.5, 3.0),
            ],
        )
        .unwrap();
        let avr = streaming_prefix_report(&AvrScheduler, &inst, 32).unwrap();
        assert!(avr.is_online(1e-9), "AVR deviation {}", avr.max_deviation);
        let oa = streaming_prefix_report(&OaScheduler, &inst, 32).unwrap();
        assert!(oa.is_online(1e-9), "OA deviation {}", oa.max_deviation);
        let cll = streaming_prefix_report(&CllScheduler, &inst, 32).unwrap();
        assert!(cll.is_online(1e-9), "CLL deviation {}", cll.max_deviation);
        assert_eq!(avr.checkpoints.len(), 4);
    }

    /// A deliberately broken "online" algorithm: its frontier claims every
    /// job runs at its density, but `finish` doubles all speeds — revising
    /// the already-committed past.  The streaming check must flag it.
    struct Cheater;

    struct CheaterRun {
        committed: Schedule,
        jobs: Vec<pss_types::Job>,
        now: f64,
    }

    impl pss_types::OnlineScheduler for CheaterRun {
        fn on_arrival(
            &mut self,
            job: &pss_types::Job,
            now: f64,
        ) -> Result<pss_types::Decision, ScheduleError> {
            for j in &self.jobs {
                let from = j.release.max(self.now);
                let to = j.deadline.min(now);
                if to > from {
                    self.committed
                        .push(Segment::work(0, from, to, j.density(), j.id));
                }
            }
            self.now = self.now.max(now);
            self.jobs.push(*job);
            Ok(pss_types::Decision::accept(0.0))
        }

        fn frontier(&self) -> &Schedule {
            &self.committed
        }

        fn finish(self) -> Result<Schedule, ScheduleError> {
            // "Re-optimise" the whole run, doubling past speeds: exactly the
            // behaviour an online algorithm must not exhibit.
            let mut s = Schedule::empty(1);
            for j in &self.jobs {
                s.push(Segment::work(
                    0,
                    j.release,
                    j.deadline,
                    2.0 * j.density(),
                    j.id,
                ));
            }
            Ok(s)
        }
    }

    impl OnlineAlgorithm for Cheater {
        type Run = CheaterRun;

        fn algorithm_name(&self) -> String {
            "cheater".into()
        }

        fn start(&self, machines: usize, _alpha: f64) -> Result<Self::Run, ScheduleError> {
            Ok(CheaterRun {
                committed: Schedule::empty(machines),
                jobs: Vec::new(),
                now: f64::NEG_INFINITY,
            })
        }
    }

    #[test]
    fn streaming_check_flags_an_algorithm_that_revises_the_past() {
        let report = streaming_prefix_report(&Cheater, &disjoint_instance(), 32).unwrap();
        assert!(!report.is_online(1e-6));
        assert!(
            report.max_deviation > 0.4,
            "deviation {}",
            report.max_deviation
        );
    }
}
