//! The machine-readable summary of a multi-tenant ingestion-service run —
//! and its JSON codec, built on the shared [`JsonValue`](crate::json) tree.
//!
//! The `pss-serve` daemon's full `ServiceReport` carries heavyweight run
//! artefacts (schedules, per-event records); what operators ship to
//! dashboards is this flat summary: per-tenant admission accounting,
//! per-shard queue/price/throughput statistics, and the drain / hand-off
//! latencies of the lifecycle protocol.  The type lives here (not in
//! `pss-serve`) for the same reason [`AlgorithmResult`](crate::report)
//! does — it is pure reporting data, and keeping it below the daemon crate
//! lets the codec be reused without a dependency cycle.
//!
//! [`ServiceSummary::to_json`] renders the summary as one JSON object:
//! every count is an integer, every latency/price is a finite `f64` rendered
//! in shortest round-trip form, so [`JsonValue::parse`] reads back every
//! value bit-for-bit.

use crate::json::JsonValue;

/// Per-tenant admission accounting over a service run.
///
/// The counters partition every submission the tenant attempted (once the
/// service has fully drained): `submitted = accepted +
/// rejected_by_scheduler + rejected_by_price + rejected_invalid +
/// rejected_stale + deferred + queue_full + quota_exceeded`.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// The tenant's registered name.
    pub tenant: String,
    /// Total submissions attempted through the tenant's handle.
    pub submitted: u64,
    /// Jobs the scheduling algorithm accepted.
    pub accepted: u64,
    /// Jobs that were ingested and rejected at the `Decision` level —
    /// by the scheduling algorithm itself, or synthesised by the service
    /// for jobs that expired in the queue (their value is lost either way).
    pub rejected_by_scheduler: u64,
    /// Jobs rejected *at admission* by dual-price backpressure under the
    /// tenant's `Reject` policy (their value is lost without ever loading
    /// the scheduler).
    pub rejected_by_price: u64,
    /// Submissions rejected as invalid (non-finite fields, bad windows).
    pub rejected_invalid: u64,
    /// Submissions rejected as too late: release beyond the staleness
    /// window, or deadline already behind the shard's feed watermark
    /// (dead on arrival).
    pub rejected_stale: u64,
    /// Submissions deferred by backpressure under the tenant's `Defer`
    /// policy (retryable; no value lost).
    pub deferred: u64,
    /// Submissions bounced off a full arrival queue (retryable).
    pub queue_full: u64,
    /// Submissions rejected because the tenant's outstanding-jobs quota
    /// was reached (retryable).
    pub quota_exceeded: u64,
    /// Total value lost to price-based admission rejections.
    pub lost_value: f64,
}

/// Per-shard ingestion statistics over a service run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: u64,
    /// Arrival events the shard's worker ingested.
    pub arrivals: u64,
    /// Ingestion batches (`on_arrivals` calls) the worker made — burst
    /// coalescing makes this ≤ `arrivals`.
    pub batches: u64,
    /// Largest queue depth observed at a drain point.
    pub max_queue_depth: u64,
    /// True maximum queue depth ever reached, counted at every push —
    /// transient storms that build and drain between two drain points are
    /// invisible to `max_queue_depth` but not to this; always ≥ it.
    pub peak_queue_depth: u64,
    /// Nearest-rank p99 of the queue depth samples.
    pub queue_depth_p99: f64,
    /// The rolling dual price after each ingestion batch (the backpressure
    /// signal's trajectory; may be downsampled by the producer).
    pub dual_price_trace: Vec<f64>,
    /// The rolling dual price when the run ended.
    pub final_price: f64,
    /// Checkpoints the worker captured.
    pub checkpoints: u64,
    /// Hand-offs (worker migrations) the shard went through.
    pub handoffs: u64,
}

/// Latencies of the lifecycle protocol: graceful drains and hand-offs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DrainSummary {
    /// Per-shard wall-clock drain latency at shutdown, in seconds (from
    /// the drain signal to the finished schedule), in shard order.
    pub drain_secs: Vec<f64>,
    /// Wall-clock latency of each hand-off (checkpoint on the old worker
    /// to resumption on the fresh one), in occurrence order.
    pub handoff_secs: Vec<f64>,
}

/// The flat, JSON-serialisable summary of a service run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSummary {
    /// Name of the scheduling algorithm the daemon ran.
    pub algorithm: String,
    /// Per-tenant admission accounting, in registry order.
    pub tenants: Vec<TenantSummary>,
    /// Per-shard ingestion statistics, in shard order.
    pub shards: Vec<ShardSummary>,
    /// Drain / hand-off latencies.
    pub drain: DrainSummary,
}

/// Value of the `"format"` field identifying a service-summary document.
const JSON_FORMAT: &str = "pss-service";

impl ServiceSummary {
    /// Renders the summary as a single JSON object.
    pub fn to_json(&self) -> String {
        let tenant = |t: &TenantSummary| {
            JsonValue::Obj(vec![
                ("tenant".into(), JsonValue::str(&t.tenant)),
                ("submitted".into(), JsonValue::Num(t.submitted as f64)),
                ("accepted".into(), JsonValue::Num(t.accepted as f64)),
                (
                    "rejected_by_scheduler".into(),
                    JsonValue::Num(t.rejected_by_scheduler as f64),
                ),
                (
                    "rejected_by_price".into(),
                    JsonValue::Num(t.rejected_by_price as f64),
                ),
                (
                    "rejected_invalid".into(),
                    JsonValue::Num(t.rejected_invalid as f64),
                ),
                (
                    "rejected_stale".into(),
                    JsonValue::Num(t.rejected_stale as f64),
                ),
                ("deferred".into(), JsonValue::Num(t.deferred as f64)),
                ("queue_full".into(), JsonValue::Num(t.queue_full as f64)),
                (
                    "quota_exceeded".into(),
                    JsonValue::Num(t.quota_exceeded as f64),
                ),
                ("lost_value".into(), JsonValue::Num(t.lost_value)),
            ])
        };
        let shard = |s: &ShardSummary| {
            JsonValue::Obj(vec![
                ("shard".into(), JsonValue::Num(s.shard as f64)),
                ("arrivals".into(), JsonValue::Num(s.arrivals as f64)),
                ("batches".into(), JsonValue::Num(s.batches as f64)),
                (
                    "max_queue_depth".into(),
                    JsonValue::Num(s.max_queue_depth as f64),
                ),
                (
                    "peak_queue_depth".into(),
                    JsonValue::Num(s.peak_queue_depth as f64),
                ),
                ("queue_depth_p99".into(), JsonValue::Num(s.queue_depth_p99)),
                (
                    "dual_price_trace".into(),
                    JsonValue::nums(s.dual_price_trace.iter().copied()),
                ),
                ("final_price".into(), JsonValue::Num(s.final_price)),
                ("checkpoints".into(), JsonValue::Num(s.checkpoints as f64)),
                ("handoffs".into(), JsonValue::Num(s.handoffs as f64)),
            ])
        };
        JsonValue::Obj(vec![
            ("format".into(), JsonValue::str(JSON_FORMAT)),
            ("algorithm".into(), JsonValue::str(&self.algorithm)),
            (
                "tenants".into(),
                JsonValue::Arr(self.tenants.iter().map(tenant).collect()),
            ),
            (
                "shards".into(),
                JsonValue::Arr(self.shards.iter().map(shard).collect()),
            ),
            (
                "drain".into(),
                JsonValue::Obj(vec![
                    (
                        "drain_secs".into(),
                        JsonValue::nums(self.drain.drain_secs.iter().copied()),
                    ),
                    (
                        "handoff_secs".into(),
                        JsonValue::nums(self.drain.handoff_secs.iter().copied()),
                    ),
                ]),
            ),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServiceSummary {
        ServiceSummary {
            algorithm: "PD".into(),
            tenants: vec![
                TenantSummary {
                    tenant: "analytics".into(),
                    submitted: 100,
                    accepted: 80,
                    rejected_by_scheduler: 5,
                    rejected_by_price: 7,
                    rejected_invalid: 1,
                    rejected_stale: 2,
                    deferred: 3,
                    queue_full: 2,
                    quota_exceeded: 4,
                    lost_value: 12.625,
                },
                TenantSummary {
                    tenant: "batch \"low\"".into(),
                    submitted: 0,
                    accepted: 0,
                    rejected_by_scheduler: 0,
                    rejected_by_price: 0,
                    rejected_invalid: 0,
                    rejected_stale: 0,
                    deferred: 0,
                    queue_full: 0,
                    quota_exceeded: 0,
                    lost_value: 0.0,
                },
            ],
            shards: vec![ShardSummary {
                shard: 0,
                arrivals: 95,
                batches: 40,
                max_queue_depth: 17,
                peak_queue_depth: 23,
                queue_depth_p99: 16.0,
                dual_price_trace: vec![0.0, 0.25, 1.0 / 3.0],
                final_price: 1.0 / 3.0,
                checkpoints: 4,
                handoffs: 1,
            }],
            drain: DrainSummary {
                drain_secs: vec![0.001953125],
                handoff_secs: vec![0.125, 0.0625],
            },
        }
    }

    #[test]
    fn summary_round_trips_bit_exactly() {
        let json = JsonValue::parse(&sample().to_json()).unwrap();
        assert_eq!(
            json.get("format").and_then(JsonValue::as_str),
            Some("pss-service")
        );
        let tenants = json.get("tenants").and_then(JsonValue::as_array).unwrap();
        assert_eq!(
            tenants[1].get("tenant").and_then(JsonValue::as_str),
            Some("batch \"low\"")
        );
        let shard = &json.get("shards").and_then(JsonValue::as_array).unwrap()[0];
        let count = |key: &str| shard.get(key).and_then(JsonValue::as_u64);
        assert_eq!(count("arrivals"), Some(95));
        assert_eq!(count("handoffs"), Some(1));
        assert_eq!(count("max_queue_depth"), Some(17));
        assert_eq!(count("peak_queue_depth"), Some(23));
        // Non-dyadic floats survive bit-for-bit.
        let trace = shard
            .get("dual_price_trace")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(
            trace[2].as_f64().map(f64::to_bits),
            Some((1.0f64 / 3.0).to_bits())
        );
    }

    #[test]
    fn empty_summary_round_trips() {
        let summary = ServiceSummary {
            algorithm: "CLL".into(),
            tenants: vec![],
            shards: vec![],
            drain: DrainSummary::default(),
        };
        let json = JsonValue::parse(&summary.to_json()).unwrap();
        assert_eq!(
            json.get("algorithm").and_then(JsonValue::as_str),
            Some("CLL")
        );
        for key in ["tenants", "shards"] {
            let items = json.get(key).and_then(JsonValue::as_array);
            assert_eq!(items.map(<[JsonValue]>::len), Some(0), "{key}");
        }
    }
}
