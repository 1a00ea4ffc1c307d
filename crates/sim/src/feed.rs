//! The feed core: the one place where jobs reach an online run.
//!
//! In the paper's model a job is shown to the scheduler once, never before
//! its release, and a job whose deadline has passed can only be lost at its
//! value `v_j`.  [`ShardCore`] applies those rules to every burst, and the
//! simulator, its drills, the sharded harness and the daemon's worker are
//! loops around it, so the daemon decides what the simulation decides.
//! A burst is fed in five steps:
//!
//! 1. each live job's release is clamped up to the release floor, in
//!    place, and the floor advances (a multi-tenant queue interleaves
//!    releases; the floor never passes the feed time, so windows stay open);
//! 2. a job already expired at the feed time ([`expired_at`]) is not shown
//!    to the run and is rejected at its value;
//! 3. the live jobs go to the run in one `on_arrivals` call;
//! 4. a run that breaks the one-decision-per-job contract is an error;
//! 5. every decision folds into the rolling dual price, and the batch
//!    count advances.

use pss_types::{fold_price, Decision, Job, OnlineScheduler, Schedule, ScheduleError};

/// The EWMA weight β of the rolling dual price: the default of the daemon,
/// the router and the sharded harness, and the drivers that report no price.
pub const PRICE_SMOOTHING: f64 = 0.1;

/// Whether `job`, fed at `feed_time`, has already expired: the model shows
/// a job to the scheduler only before its deadline.
pub fn expired_at(job: &Job, feed_time: f64) -> bool {
    job.deadline <= feed_time
}

/// The length of the coalesced burst at the front of a release sequence:
/// the maximal run of consecutive releases within `window` of the first.
/// A window of 0 (or less) yields a singleton, even for equal releases; an
/// empty sequence yields 0.
pub fn burst_len(releases: impl IntoIterator<Item = f64>, window: f64) -> usize {
    let mut releases = releases.into_iter();
    let Some(first) = releases.next() else {
        return 0;
    };
    if window > 0.0 {
        1 + releases.take_while(|&r| r <= first + window).count()
    } else {
        1
    }
}

/// Everything besides its run that a checkpoint needs to resume a
/// [`ShardCore`].
#[derive(Debug, Clone, Copy)]
pub struct FeedState {
    /// Bursts fed so far.
    pub batches: usize,
    /// The rolling dual price.
    pub price: f64,
    /// The largest release fed to the run so far.
    pub release_floor: f64,
}

impl FeedState {
    /// The state of a core that has fed nothing.
    pub const START: FeedState = FeedState {
        batches: 0,
        price: 0.0,
        release_floor: f64::NEG_INFINITY,
    };
}

/// One online run and the feed state around it (see the module docs).
/// Single-threaded; the daemon's worker owns one per shard.
#[derive(Debug)]
pub struct ShardCore<R> {
    run: R,
    smoothing: f64,
    state: FeedState,
    decisions: Vec<Decision>,
    /// The last burst's live jobs, when some of its jobs had expired.
    live: Vec<Job>,
}

impl<R: OnlineScheduler> ShardCore<R> {
    /// A core around a fresh run, pricing with EWMA weight
    /// `price_smoothing`.
    pub fn new(run: R, price_smoothing: f64) -> Self {
        Self::resume(run, price_smoothing, FeedState::START)
    }

    /// A core around a restored run, resuming at `state`.
    pub(crate) fn resume(run: R, price_smoothing: f64, state: FeedState) -> Self {
        Self {
            run,
            smoothing: price_smoothing,
            state,
            decisions: Vec::new(),
            live: Vec::new(),
        }
    }

    /// The run.
    pub fn run(&self) -> &R {
        &self.run
    }

    /// The feed state: what a checkpoint records besides the run.
    pub fn state(&self) -> FeedState {
        self.state
    }

    /// The rolling dual price.
    pub fn price(&self) -> f64 {
        self.state.price
    }

    /// The last burst's decisions, one per job in slice order.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Finishes the run.
    pub fn finish(self) -> Result<Schedule, ScheduleError> {
        self.run.finish()
    }

    /// Feeds one burst at `feed_time` by the rules in the module docs.
    /// Live jobs' releases are clamped in `jobs` itself, so the caller
    /// records the jobs as the run saw them; [`decisions`](Self::decisions)
    /// then holds one decision per job.  On error the run should be
    /// discarded, as after any failed `on_arrivals`.
    pub fn feed(&mut self, jobs: &mut [Job], feed_time: f64) -> Result<(), ScheduleError> {
        let mut expired = 0;
        for job in jobs.iter_mut() {
            if expired_at(job, feed_time) {
                expired += 1;
            } else {
                job.release = job.release.max(self.state.release_floor);
                self.state.release_floor = job.release;
            }
        }
        let live = jobs.len() - expired;
        let fed = if expired == 0 {
            self.run.on_arrivals(jobs, feed_time)?
        } else {
            self.live.clear();
            self.live
                .extend(jobs.iter().filter(|job| !expired_at(job, feed_time)));
            self.run.on_arrivals(&self.live, feed_time)?
        };
        if fed.len() != live {
            return Err(ScheduleError::Internal(format!(
                "on_arrivals contract violation: {} decisions for a burst of {} jobs",
                fed.len(),
                live
            )));
        }
        let mut fed = fed.into_iter();
        self.decisions.clear();
        self.decisions.extend(jobs.iter().filter_map(|job| {
            if expired_at(job, feed_time) {
                Some(Decision::reject(job.value))
            } else {
                fed.next()
            }
        }));
        // Every decision is a pricing event.  An acceptance folds its
        // marginal price λ_j in symmetrically; a rejection only ratchets the
        // price up toward its lost value v_j, so a shard drowning in hopeless
        // jobs raises its price, and cheap rejections cannot make a congested
        // shard the cheapest.  A burst without decisions leaves it unchanged.
        for decision in &self.decisions {
            self.state.price = fold_price(self.state.price, self.smoothing, decision);
        }
        self.state.batches += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_types::{JobId, OnlineAlgorithm};

    #[test]
    fn burst_len_follows_the_coalescing_rule() {
        assert_eq!(burst_len([], 1.0), 0);
        assert_eq!(burst_len([0.0, 0.0, 0.0], 0.0), 1);
        assert_eq!(burst_len([0.3, 0.9, 1.3, 1.31], 1.0), 3);
        assert_eq!(burst_len([2.0, 5.0], f64::NAN), 1);
    }

    #[test]
    fn feed_clamps_live_releases_rejects_expired_jobs_and_prices_every_decision() {
        use pss_baselines::CllScheduler;

        let mut core = ShardCore::new(CllScheduler.start(1, 2.0).unwrap(), PRICE_SMOOTHING);
        let job = |id, release, deadline, value| Job {
            id: JobId(id),
            release,
            deadline,
            work: 0.5,
            value,
        };
        let mut price = 0.0;
        let mut fold = |decisions: &[Decision]| {
            for d in decisions {
                price = fold_price(price, PRICE_SMOOTHING, d);
            }
            price
        };
        core.feed(&mut [job(0, 1.0, 3.0, 4.0)], 1.0).unwrap();
        assert_eq!(core.decisions().len(), 1);
        fold(core.decisions());
        let mut burst = [job(1, 0.5, 1.5, 9.0), job(2, 0.5, 4.0, 6.0)];
        core.feed(&mut burst, 2.0).unwrap();
        // The expired job keeps its release; the live one is clamped up
        // to the floor the first burst left.
        assert_eq!(burst[0].release, 0.5);
        assert_eq!(burst[1].release, 1.0);
        assert_eq!(core.decisions().len(), 2);
        assert_eq!(core.decisions()[0], Decision::reject(9.0));
        assert_eq!(core.price().to_bits(), fold(core.decisions()).to_bits());
        assert_eq!(core.state().batches, 2);
        assert_eq!(core.state().release_floor, 1.0);
        // A burst whose jobs have all expired still counts as a batch.
        core.feed(&mut [job(3, 0.0, 2.5, 1.0)], 3.0).unwrap();
        assert_eq!(core.decisions(), [Decision::reject(1.0)]);
        assert_eq!(core.price().to_bits(), fold(core.decisions()).to_bits());
        assert_eq!(core.state().batches, 3);
        assert!(core.finish().is_ok());
    }
}
