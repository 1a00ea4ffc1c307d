//! The feed record: what a shard's feed core decided, job by job.
//!
//! In the paper's online model, what an algorithm decides for a job j is
//! whether it accepts j and the dual it reports for it: λ_j for an accepted
//! job, the lost value v_j for a rejected one.  With the job itself, that
//! is the per-job input of Section 4's dual function g(λ̃).
//! [`ShardCore::feed`](crate::ShardCore::feed) is the only code that writes
//! these facts: it appends every burst it feeds to a [`FeedRecord`] that
//! its caller owns.  The simulator, its drills, the sharded harness and the
//! daemon's worker all report the records they fed, and their reports keep
//! only their driver's extras beside them.
//!
//! Records compare bit for bit (`==`): the fed jobs, every entry and the
//! price trace, floats as bits, the wall-clock latency left out.  That one
//! equality is the determinism oracle of every driver.

use pss_types::{Instance, InstanceError, Job, JobId};

use crate::engine::nearest_rank;

/// What the feed core decided for one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedEntry {
    /// The id the job was fed under: the id of the matching job in
    /// [`FeedRecord::jobs`].
    pub job: JobId,
    /// The caller's tag for the job: the instance id in the simulator, the
    /// logical id in the sharded harness, the envelope's correlation tag in
    /// the daemon.
    pub tag: u64,
    /// The job's release as submitted.  The fed job's release may be
    /// clamped up to the release floor.
    pub release: f64,
    /// The time the job's burst was fed to the run (never before the fed
    /// job's release).
    pub feed_time: f64,
    /// The index of the burst the job rode in.
    pub batch: usize,
    /// Whether the run accepted the job.
    pub accepted: bool,
    /// Whether the job had already expired at the feed time.  Such a job
    /// is not shown to the run and is rejected at its value.
    pub expired: bool,
    /// The decision's dual: λ_j if accepted, the lost value v_j if
    /// rejected.
    pub dual: f64,
    /// Wall-clock seconds the core spent on the job's burst, divided by the
    /// burst's size.  The one wall-clock value in the record; `==` ignores
    /// it.
    pub latency_secs: f64,
}

/// Everything a feed core decided, in feed order: the jobs as fed, one
/// [`FeedEntry`] per job, and the rolling dual price after each burst.
///
/// `==` compares the jobs, the entries and the prices bit for bit and
/// ignores [`FeedEntry::latency_secs`].
#[derive(Debug, Clone, Default)]
pub struct FeedRecord {
    /// The jobs as the run saw them: a live job's release is clamped up to
    /// the release floor.
    pub jobs: Vec<Job>,
    /// One entry per job, at the job's index.
    pub events: Vec<FeedEntry>,
    /// The rolling dual price after each burst.
    pub price_trace: Vec<f64>,
}

impl PartialEq for FeedRecord {
    fn eq(&self, other: &Self) -> bool {
        let job = |j: &Job| {
            let bits = [j.release, j.deadline, j.work, j.value].map(f64::to_bits);
            (j.id, bits)
        };
        let entry = |e: &FeedEntry| {
            let bits = [e.release, e.feed_time, e.dual].map(f64::to_bits);
            (e.job, e.tag, e.batch, e.accepted, e.expired, bits)
        };
        self.jobs.iter().map(job).eq(other.jobs.iter().map(job))
            && self
                .events
                .iter()
                .map(entry)
                .eq(other.events.iter().map(entry))
            && self
                .price_trace
                .iter()
                .map(|p| p.to_bits())
                .eq(other.price_trace.iter().map(|p| p.to_bits()))
    }
}

impl FeedRecord {
    /// An empty record with room for `jobs` jobs and their entries.
    pub fn with_capacity(jobs: usize) -> Self {
        Self {
            jobs: Vec::with_capacity(jobs),
            events: Vec::with_capacity(jobs),
            price_trace: Vec::new(),
        }
    }

    /// Cuts the record back to its first `jobs` jobs and `batches` bursts,
    /// as a recovery that resumes there does.
    pub fn truncate(&mut self, jobs: usize, batches: usize) {
        self.jobs.truncate(jobs);
        self.events.truncate(jobs);
        self.price_trace.truncate(batches);
    }

    /// Jobs the run accepted.
    pub fn accepted(&self) -> usize {
        self.events.iter().filter(|e| e.accepted).count()
    }

    /// Jobs rejected, the expired ones included.
    pub fn rejected(&self) -> usize {
        self.events.len() - self.accepted()
    }

    /// Jobs rejected because they had expired at the feed time, a subset of
    /// [`rejected`](Self::rejected).
    pub fn expired(&self) -> usize {
        self.events.iter().filter(|e| e.expired).count()
    }

    /// Fraction of jobs accepted (1 for an empty record).
    pub fn acceptance_rate(&self) -> f64 {
        if self.events.is_empty() {
            return 1.0;
        }
        self.accepted() as f64 / self.events.len() as f64
    }

    /// The fed jobs as a standalone [`Instance`], for offline cross-checks
    /// of the run's schedule.  Its ids must be dense in feed order, as the
    /// daemon and the sharded harness assign them.
    pub fn instance(&self, machines: usize, alpha: f64) -> Result<Instance, InstanceError> {
        Instance::from_jobs(machines, alpha, self.jobs.clone())
    }

    /// Mean per-job latency in seconds (0 for an empty record).
    pub fn mean_latency_secs(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        self.total_arrival_secs() / self.events.len() as f64
    }

    /// Largest per-job latency in seconds.
    pub fn max_latency_secs(&self) -> f64 {
        self.events
            .iter()
            .map(|e| e.latency_secs)
            .fold(0.0, f64::max)
    }

    /// The `p`-th percentile (`0 ≤ p ≤ 100`, nearest-rank) of the per-job
    /// latency, in seconds; 0 for an empty record.  The streaming latency
    /// experiment (E12) reports p50/p95/p99 through this.
    pub fn latency_percentile_secs(&self, p: f64) -> f64 {
        let mut lat: Vec<f64> = self.events.iter().map(|e| e.latency_secs).collect();
        lat.sort_by(f64::total_cmp);
        nearest_rank(&lat, p)
    }

    /// Total wall-clock time the core spent feeding, in seconds (the sum of
    /// per-job latencies).
    pub fn total_arrival_secs(&self) -> f64 {
        self.events.iter().map(|e| e.latency_secs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::{ShardCore, PRICE_SMOOTHING};
    use pss_baselines::CllScheduler;
    use pss_types::OnlineAlgorithm;

    /// A record of three bursts: one accepted job, a burst of a job clamped
    /// to the release floor and a hopeless job, and an expired job.
    fn record() -> FeedRecord {
        let mut core = ShardCore::new(CllScheduler.start(1, 2.0).unwrap(), PRICE_SMOOTHING);
        let mut record = FeedRecord::default();
        let job = |id, release, deadline, work, value| Job {
            id: JobId(id),
            release,
            deadline,
            work,
            value,
        };
        core.feed(&mut record, [(job(0, 1.0, 3.0, 0.5, 4.0), 10)], 1.0)
            .unwrap();
        let burst = [
            (job(1, 0.5, 4.0, 0.5, 6.0), 11),
            (job(2, 1.5, 2.0, 9.0, 0.01), 12),
        ];
        core.feed(&mut record, burst, 1.5).unwrap();
        core.feed(&mut record, [(job(3, 0.0, 2.5, 0.5, 1.0), 13)], 3.0)
            .unwrap();
        record
    }

    #[test]
    fn every_compared_field_breaks_the_equality_and_the_latency_does_not() {
        let base = record();
        assert_eq!(base.events.len(), 4);
        assert_eq!(base.price_trace.len(), 3);
        assert_eq!(
            (base.accepted(), base.rejected(), base.expired()),
            (2, 2, 1)
        );
        assert!(base == base.clone());
        // The clamp and the expiry are in the fixture, so flipping them is
        // a real change of what the core decided.
        assert_eq!(base.jobs[1].release, 1.0);
        assert_eq!(base.events[1].release, 0.5);
        assert!(base.events[3].expired && !base.events[3].accepted);

        type Flip = fn(&mut FeedRecord);
        let flips: [(&str, Flip); 13] = [
            ("dual bits", |r| {
                r.events[1].dual = f64::from_bits(r.events[1].dual.to_bits() ^ 1)
            }),
            ("accepted", |r| r.events[0].accepted ^= true),
            ("expired", |r| r.events[3].expired ^= true),
            ("feed time", |r| r.events[2].feed_time += 0.25),
            ("batch", |r| r.events[2].batch += 1),
            ("tag", |r| r.events[1].tag += 1),
            ("fed id", |r| r.events[0].job = JobId(7)),
            ("submitted release", |r| r.events[1].release = 1.0),
            ("clamped release", |r| r.jobs[1].release = 0.5),
            ("fed job's value", |r| r.jobs[0].value += 1.0),
            ("negative zero", |r| r.events[0].dual = -r.events[0].dual),
            ("price bit", |r| {
                r.price_trace[1] = f64::from_bits(r.price_trace[1].to_bits() ^ 1)
            }),
            ("one price fewer", |r| {
                r.price_trace.pop();
            }),
        ];
        for (what, flip) in flips {
            let mut changed = base.clone();
            flip(&mut changed);
            assert!(base != changed, "{what} left the records equal");
        }
        let mut slower = base.clone();
        for entry in &mut slower.events {
            entry.latency_secs += 1.0;
        }
        assert!(base == slower, "the latency is wall-clock, never compared");
    }

    #[test]
    fn truncation_cuts_jobs_entries_and_prices_together() {
        let mut cut = record();
        cut.truncate(1, 1);
        assert_eq!(
            (cut.jobs.len(), cut.events.len(), cut.price_trace.len()),
            (1, 1, 1)
        );
        let full = record();
        assert_eq!(cut.jobs[..], full.jobs[..1]);
        assert_eq!(cut.price_trace[0].to_bits(), full.price_trace[0].to_bits());
    }
}
