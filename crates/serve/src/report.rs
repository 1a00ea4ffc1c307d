//! What a service run produces: the per-event decision records, per-shard
//! run artefacts and the whole-service report, plus its projection onto
//! the flat [`pss_metrics::ServiceSummary`] for JSON export.
//!
//! The report is deliberately *heavyweight* — it keeps every decision
//! event and each shard's finished [`Schedule`] so tests can compare a
//! daemon run bit-for-bit against an offline replay (`StreamingSimulation`)
//! and against a crash-recovered run; the chaos oracle
//! ([`crate::chaos::deterministic_fields_equal`]) compares exactly the
//! deterministic subset of these fields between a fault-free and a
//! fault-injected run.  Operators exporting to dashboards call
//! [`ServiceReport::summary`] and ship the JSON.

use pss_metrics::{DrainSummary, ServiceSummary, ShardSummary, TenantSummary};
use pss_sim::nearest_rank;
use pss_types::{Instance, InstanceError, Job, JobId, Schedule, TenantId};

/// One ingestion decision: which envelope became which dense-id job on
/// which shard, and what the scheduler said.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedEvent {
    /// The shard that ingested the job.
    pub shard: usize,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// The tenant's correlation tag from the envelope.
    pub tag: u64,
    /// The dense shard-local id the service assigned at feed time.
    pub job: JobId,
    /// The envelope's release time.
    pub release: f64,
    /// The time the job was fed to the scheduler (`max(release in burst,
    /// shard watermark)` — never before `release`).
    pub feed_time: f64,
    /// Index of the ingestion batch (shard-local) this job rode in.
    pub batch: usize,
    /// Whether the scheduling algorithm accepted the job.
    pub accepted: bool,
    /// Whether the job expired in the queue: the shard's watermark overtook
    /// its deadline before it could be fed, so the service synthesised the
    /// rejection (`accepted == false`, `dual == value`) without showing the
    /// job to the scheduler — the model forbids arrivals past the deadline.
    pub expired: bool,
    /// The decision's dual value (λ_j if accepted, the lost value v_j if
    /// rejected — the raw material of the backpressure signal).
    pub dual: f64,
}

/// Everything one shard's worker produced over the run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// The jobs actually fed, in feed order (dense ids `0..` — each
    /// shard's fed stream is a valid instance on its own).  Releases are
    /// as the scheduler saw them: a late live release is clamped up to the
    /// shard's release floor (the online model requires nondecreasing
    /// releases); the matching [`ServedEvent`] keeps the envelope's
    /// original release.
    pub jobs: Vec<Job>,
    /// One record per fed job, in feed order.
    pub events: Vec<ServedEvent>,
    /// Ingestion batches the worker made (burst coalescing makes this ≤
    /// `events.len()`).
    pub batches: usize,
    /// The finished schedule of the shard's run.
    pub schedule: Schedule,
    /// The rolling dual price after each ingestion batch.
    pub price_trace: Vec<f64>,
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

impl ShardReport {
    /// Jobs the scheduler accepted.
    pub fn accepted(&self) -> usize {
        self.events.iter().filter(|e| e.accepted).count()
    }

    /// Jobs the scheduler rejected (ordinary `Decision`-level rejections),
    /// including the service-synthesised rejections of jobs that expired in
    /// the queue.
    pub fn rejected(&self) -> usize {
        self.events.len() - self.accepted()
    }

    /// Jobs that expired in the queue (rejected at feed time without being
    /// shown to the scheduler) — a subset of [`rejected`](Self::rejected).
    pub fn expired(&self) -> usize {
        self.events.iter().filter(|e| e.expired).count()
    }

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

    /// Reassembles the shard's fed stream as a standalone [`Instance`]
    /// (dense ids in feed order), for offline cross-checks of the shard's
    /// schedule.
    pub fn instance(&self, machines: usize, alpha: f64) -> Result<Instance, InstanceError> {
        Instance::from_jobs(machines, alpha, self.jobs.clone())
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

    fn event(job: usize, accepted: bool, dual: f64) -> ServedEvent {
        ServedEvent {
            shard: 0,
            tenant: TenantId(0),
            tag: job as u64,
            job: JobId(job),
            release: job as f64,
            feed_time: job as f64,
            batch: job,
            accepted,
            expired: false,
            dual,
        }
    }

    fn shard_report() -> ShardReport {
        ShardReport {
            shard: 0,
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
            batches: 3,
            schedule: Schedule::default(),
            price_trace: vec![0.5, 0.75, 0.5],
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
