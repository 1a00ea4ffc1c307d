//! The feed core: the one place where jobs reach an online run.
//!
//! In the paper's model a job is shown to the scheduler once, never before
//! its release, and a job whose deadline has passed can only be lost at its
//! value `v_j`.  [`ShardCore`] applies those rules to every burst, and the
//! simulator, its drills, the sharded harness and the daemon's worker are
//! loops around it, so the daemon decides what the simulation decides.
//! A burst is fed in five steps, and the core records each one in the
//! caller's [`FeedRecord`]:
//!
//! 1. each live job's release is clamped up to the release floor, and the
//!    floor advances (a multi-tenant queue interleaves releases; the floor
//!    never passes the feed time, so windows stay open);
//! 2. a job already expired at the feed time ([`expired_at`]) is not shown
//!    to the run and is rejected at its value;
//! 3. the live jobs go to the run in one `on_arrivals` call;
//! 4. a run that breaks the one-decision-per-job contract is an error
//!    ([`ScheduleError::ArrivalContract`]);
//! 5. every decision folds into the rolling dual price, and the batch
//!    count advances.

use std::time::Instant;

use pss_types::{fold_price, Decision, Job, OnlineScheduler, Schedule, ScheduleError};

use crate::record::{FeedEntry, FeedRecord};

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

    /// Finishes the run.
    pub fn finish(self) -> Result<Schedule, ScheduleError> {
        self.run.finish()
    }

    /// Feeds one burst at `feed_time` by the rules in the module docs and
    /// appends it to `record`: each `(job, tag)` becomes one fed job and one
    /// entry, and the burst one price.  The jobs keep the ids the caller
    /// gave them; the entries carry the caller's tags.  The wall-clock time
    /// of the whole feed, divided by the burst's size, is each entry's
    /// latency.  On error the record is left as it was, and the run should
    /// be discarded, as after any failed `on_arrivals`.
    pub fn feed(
        &mut self,
        record: &mut FeedRecord,
        burst: impl IntoIterator<Item = (Job, u64)>,
        feed_time: f64,
    ) -> Result<(), ScheduleError> {
        let started = Instant::now();
        let base = record.jobs.len();
        let batch = self.state.batches;
        let mut expired = 0;
        for (mut job, tag) in burst {
            let entry = FeedEntry {
                job: job.id,
                tag,
                release: job.release,
                feed_time,
                batch,
                accepted: false,
                expired: expired_at(&job, feed_time),
                dual: 0.0,
                latency_secs: 0.0,
            };
            if entry.expired {
                expired += 1;
            } else {
                job.release = job.release.max(self.state.release_floor);
                self.state.release_floor = job.release;
            }
            record.events.push(entry);
            record.jobs.push(job);
        }
        let jobs = &record.jobs[base..];
        let live = jobs.len() - expired;
        let fed = if expired == 0 {
            self.run.on_arrivals(jobs, feed_time)
        } else {
            self.live.clear();
            self.live
                .extend(jobs.iter().filter(|job| !expired_at(job, feed_time)));
            self.run.on_arrivals(&self.live, feed_time)
        };
        let fed = match fed {
            Ok(fed) if fed.len() == live => fed,
            outcome => {
                record.truncate(base, record.price_trace.len());
                return Err(match outcome {
                    Ok(fed) => ScheduleError::ArrivalContract {
                        jobs: live,
                        decisions: fed.len(),
                    },
                    Err(e) => e,
                });
            }
        };
        // Every decision is a pricing event.  An acceptance folds its
        // marginal price λ_j in symmetrically; a rejection only ratchets the
        // price up toward its lost value v_j, so a shard drowning in hopeless
        // jobs raises its price, and cheap rejections cannot make a congested
        // shard the cheapest.  A burst without decisions leaves it unchanged.
        let mut fed = fed.into_iter();
        let entries = record.events[base..].iter_mut();
        for (entry, job) in entries.zip(&record.jobs[base..]) {
            // The contract check left one decision per live job.
            let decision = match entry.expired {
                true => Decision::reject(job.value),
                false => fed.next().unwrap_or(Decision::reject(job.value)),
            };
            entry.accepted = decision.accepted;
            entry.dual = decision.dual;
            self.state.price = fold_price(self.state.price, self.smoothing, &decision);
        }
        self.state.batches += 1;
        record.price_trace.push(self.state.price);
        let latency = started.elapsed().as_secs_f64() / (record.jobs.len() - base).max(1) as f64;
        for entry in &mut record.events[base..] {
            entry.latency_secs = latency;
        }
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
        let mut record = FeedRecord::default();
        let decisions = |record: &FeedRecord, from: usize| -> Vec<Decision> {
            let entries = &record.events[from..];
            entries
                .iter()
                .map(|e| Decision {
                    accepted: e.accepted,
                    dual: e.dual,
                })
                .collect()
        };
        core.feed(&mut record, [(job(0, 1.0, 3.0, 4.0), 0)], 1.0)
            .unwrap();
        assert_eq!(record.events.len(), 1);
        fold(&decisions(&record, 0));
        let burst = [(job(1, 0.5, 1.5, 9.0), 1), (job(2, 0.5, 4.0, 6.0), 2)];
        core.feed(&mut record, burst, 2.0).unwrap();
        // The expired job keeps its release; the live one is clamped up
        // to the floor the first burst left.
        assert_eq!(record.jobs[1].release, 0.5);
        assert_eq!(record.jobs[2].release, 1.0);
        assert_eq!(record.events.len(), 3);
        assert_eq!(decisions(&record, 1)[0], Decision::reject(9.0));
        assert_eq!(
            core.price().to_bits(),
            fold(&decisions(&record, 1)).to_bits()
        );
        assert_eq!(core.state().batches, 2);
        assert_eq!(core.state().release_floor, 1.0);
        // A burst whose jobs have all expired still counts as a batch.
        core.feed(&mut record, [(job(3, 0.0, 2.5, 1.0), 3)], 3.0)
            .unwrap();
        assert_eq!(decisions(&record, 3), [Decision::reject(1.0)]);
        assert_eq!(
            core.price().to_bits(),
            fold(&decisions(&record, 3)).to_bits()
        );
        assert_eq!(core.state().batches, 3);
        assert_eq!(record.price_trace.len(), 3);
        assert_eq!(record.price_trace[2].to_bits(), core.price().to_bits());
        assert!(core.finish().is_ok());
    }
}
