//! Online-behaviour verification by replay.
//!
//! An algorithm is *online* when its decisions about the past do not depend
//! on jobs that have not been released yet.  An implementation bug could
//! leak future information, so [`streaming_prefix_report`] checks the
//! operational property directly, in a single pass over an event-driven
//! algorithm ([`OnlineAlgorithm`]): one run is fed the arrival stream;
//! after each arrival the speed profile of the window that just became past
//! is sampled *from the committed frontier*, and at the end the finished
//! schedule is compared against every stored sample.  Any deviation means
//! the final schedule revised a past the run had already committed to.
//! Cost: one run plus `O(n · samples)` profile samples — no re-solves.

use pss_types::{Instance, OnlineAlgorithm, OnlineScheduler, Schedule, ScheduleError};

use crate::feed::{ShardCore, PRICE_SMOOTHING};
use crate::record::FeedRecord;

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
/// check costs one run plus `O(n · samples)` profile evaluations.
///
/// `samples` is the number of profile samples per window and machine.
pub fn streaming_prefix_report<A: OnlineAlgorithm + ?Sized>(
    algo: &A,
    instance: &Instance,
    samples: usize,
) -> Result<PrefixStabilityReport, ScheduleError> {
    let samples = samples.max(1);
    let mut core = ShardCore::new(algo.start_for(instance)?, PRICE_SMOOTHING);
    let mut record = FeedRecord::default();
    let machines = instance.machines;

    // (from, to, per-machine frontier samples at window midpoints).
    let mut windows: Vec<(f64, f64, Vec<Vec<f64>>)> = Vec::new();
    let mut checkpoints: Vec<f64> = Vec::new();
    let mut last_time: Option<f64> = None;

    for id in instance.arrival_order() {
        let t = instance.job(id).release;
        core.feed(&mut record, [(*instance.job(id), id.index() as u64)], t)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use pss_types::Segment;

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
        fn on_arrivals(
            &mut self,
            jobs: &[pss_types::Job],
            now: f64,
        ) -> Result<Vec<pss_types::Decision>, ScheduleError> {
            for j in &self.jobs {
                let from = j.release.max(self.now);
                let to = j.deadline.min(now);
                if to > from {
                    self.committed
                        .push(Segment::work(0, from, to, j.density(), j.id));
                }
            }
            self.now = self.now.max(now);
            self.jobs.extend_from_slice(jobs);
            Ok(vec![pss_types::Decision::accept(0.0); jobs.len()])
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
