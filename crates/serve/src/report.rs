//! What a service run produces: each shard's [`FeedRecord`] and run
//! artefacts, and the whole-service report, plus its projection onto the
//! flat [`pss_metrics::ServiceSummary`] for JSON export.
//!
//! The report is deliberately *heavyweight* — it keeps each shard's
//! record (every fed job, every decision and the price after every batch)
//! and its finished [`Schedule`], so tests can compare a daemon run
//! bit-for-bit against an offline replay (`StreamingSimulation`) and
//! against a crash-recovered run.  The chaos oracle
//! ([`crate::chaos::deterministic_fields_equal`]) compares the records with
//! their bit-exact `==`, plus the few deterministic extras a shard report
//! holds beside its record.  Operators exporting to dashboards call
//! [`ServiceReport::summary`] and ship the JSON.

use std::ops::Deref;

use pss_metrics::{DrainSummary, ServiceSummary, ShardSummary, TenantSummary};
use pss_sim::{nearest_rank, FeedRecord};
use pss_types::{Schedule, TenantId};

/// Everything one shard's worker produced over the run.  Derefs to its
/// [`FeedRecord`], so `report.events`, `report.jobs` and
/// `report.price_trace` read what the shard's core decided.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// What the shard's core decided, in feed order: the jobs as fed
    /// (dense ids `0..`, so each shard's fed stream is a valid instance on
    /// its own), one entry per job tagged with the envelope's correlation
    /// tag, and the price after each batch.
    pub record: FeedRecord,
    /// The submitting tenant of each fed job, in feed order.
    pub tenants: Vec<TenantId>,
    /// Ingestion batches the worker made (burst coalescing makes this ≤
    /// `events.len()`).
    pub batches: usize,
    /// The finished schedule of the shard's run.
    pub schedule: Schedule,
    /// The rolling dual price when the run ended.
    pub final_price: f64,
    /// Queue depth observed at each drain point.
    pub depth_samples: Vec<usize>,
    /// True maximum queue depth ever reached, counted at every push (not
    /// just at drain points), so transient storms that build and drain
    /// between two drains are still visible.  Always ≥
    /// [`max_queue_depth`](Self::max_queue_depth).
    pub peak_queue_depth: usize,
    /// Checkpoints captured over the run.
    pub checkpoints: usize,
    /// Hand-offs (worker migrations) the shard went through.
    pub handoffs: usize,
    /// Wall-clock drain latency at shutdown, in seconds.
    pub drain_secs: f64,
}

impl Deref for ShardReport {
    type Target = FeedRecord;

    fn deref(&self) -> &FeedRecord {
        &self.record
    }
}

impl ShardReport {
    /// The largest queue depth observed at a drain point.  The push-side
    /// [`peak_queue_depth`](Self::peak_queue_depth) bounds this from above.
    pub fn max_queue_depth(&self) -> usize {
        self.depth_samples.iter().copied().max().unwrap_or(0)
    }

    /// Nearest-rank percentile of the queue depth samples.
    pub fn queue_depth_percentile(&self, p: f64) -> f64 {
        let mut sorted: Vec<f64> = self.depth_samples.iter().map(|&d| d as f64).collect();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, p)
    }

    fn summary(&self) -> ShardSummary {
        ShardSummary {
            shard: self.shard as u64,
            arrivals: self.events.len() as u64,
            batches: self.batches as u64,
            max_queue_depth: self.max_queue_depth() as u64,
            peak_queue_depth: self.peak_queue_depth as u64,
            queue_depth_p99: self.queue_depth_percentile(99.0),
            dual_price_trace: self.price_trace.clone(),
            final_price: self.final_price,
            checkpoints: self.checkpoints as u64,
            handoffs: self.handoffs as u64,
        }
    }
}

/// The complete outcome of a service run, assembled at shutdown.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Name of the scheduling algorithm the daemon ran.
    pub algorithm: String,
    /// Machines per shard run.
    pub machines: usize,
    /// Energy exponent α.
    pub alpha: f64,
    /// Per-shard artefacts, in shard order.
    pub shards: Vec<ShardReport>,
    /// Per-tenant admission accounting, in registry order.
    pub tenants: Vec<TenantSummary>,
    /// Drain / hand-off latencies of the lifecycle protocol.
    pub drain: DrainSummary,
}

impl ServiceReport {
    /// Total jobs fed across all shards.
    pub fn total_arrivals(&self) -> usize {
        self.shards.iter().map(|s| s.events.len()).sum()
    }

    /// Total jobs accepted across all shards.
    pub fn total_accepted(&self) -> usize {
        self.shards.iter().map(|s| s.accepted()).sum()
    }

    /// Projects the report onto the flat, JSON-serialisable
    /// [`ServiceSummary`].
    pub fn summary(&self) -> ServiceSummary {
        ServiceSummary {
            algorithm: self.algorithm.clone(),
            tenants: self.tenants.clone(),
            shards: self.shards.iter().map(ShardReport::summary).collect(),
            drain: self.drain.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_metrics::JsonValue;
    use pss_sim::FeedEntry;
    use pss_types::{Job, JobId};

    fn event(job: usize, accepted: bool, dual: f64) -> FeedEntry {
        FeedEntry {
            job: JobId(job),
            tag: job as u64,
            release: job as f64,
            feed_time: job as f64,
            batch: job,
            accepted,
            expired: false,
            dual,
            latency_secs: 0.0,
        }
    }

    fn shard_report() -> ShardReport {
        ShardReport {
            shard: 0,
            record: FeedRecord {
                jobs: vec![
                    Job::new(0, 0.0, 1.0, 0.5, 1.0),
                    Job::new(1, 1.0, 2.0, 0.5, 1.0),
                    Job::new(2, 2.0, 3.0, 0.5, 1.0),
                ],
                events: vec![
                    event(0, true, 0.5),
                    event(1, false, 1.0),
                    event(2, true, 0.25),
                ],
                price_trace: vec![0.5, 0.75, 0.5],
            },
            tenants: vec![TenantId(0); 3],
            batches: 3,
            schedule: Schedule::default(),
            final_price: 0.5,
            depth_samples: vec![3, 1, 7, 2],
            peak_queue_depth: 9,
            checkpoints: 1,
            handoffs: 0,
            drain_secs: 0.001,
        }
    }

    #[test]
    fn shard_report_counts_and_percentiles() {
        let r = shard_report();
        assert_eq!(r.accepted(), 2);
        assert_eq!(r.rejected(), 1);
        assert_eq!(r.max_queue_depth(), 7);
        assert_eq!(r.queue_depth_percentile(50.0), 2.0);
        assert_eq!(r.queue_depth_percentile(100.0), 7.0);
    }

    #[test]
    fn shard_stream_reassembles_as_an_instance() {
        let r = shard_report();
        let inst = r.instance(1, 2.0).unwrap();
        assert_eq!(inst.len(), 3);
        assert_eq!(inst.machines, 1);
        // Feed order is arrival order: ids are already dense and sorted.
        assert_eq!(inst.arrival_order(), vec![JobId(0), JobId(1), JobId(2)]);
    }

    #[test]
    fn summary_projection_round_trips_through_json() {
        let report = ServiceReport {
            algorithm: "CLL".into(),
            machines: 1,
            alpha: 2.0,
            shards: vec![shard_report()],
            tenants: vec![TenantSummary {
                tenant: "web".into(),
                submitted: 3,
                accepted: 2,
                rejected_by_scheduler: 1,
                rejected_by_price: 0,
                rejected_invalid: 0,
                rejected_stale: 0,
                deferred: 0,
                queue_full: 0,
                quota_exceeded: 0,
                lost_value: 0.0,
            }],
            drain: DrainSummary {
                drain_secs: vec![0.001],
                handoff_secs: vec![],
            },
        };
        assert_eq!(report.total_arrivals(), 3);
        assert_eq!(report.total_accepted(), 2);
        let json = JsonValue::parse(&report.summary().to_json()).unwrap();
        let shard = &json.get("shards").and_then(JsonValue::as_array).unwrap()[0];
        let count = |key: &str| shard.get(key).and_then(JsonValue::as_u64);
        assert_eq!(count("arrivals"), Some(3));
        assert_eq!(count("max_queue_depth"), Some(7));
        assert_eq!(count("peak_queue_depth"), Some(9));
    }
}
