//! Self-test of the benchmark at a tiny size: every workload runs
//! untraced and traced (writing its spans), every named metric prints with
//! its unit, the decisions `serve-pd` sees through the watermark match the
//! daemon's report, a run's operations and cost do not depend on how long
//! it ran, a unit that timed no decision leaves the timing medians alone,
//! and `BENCHMARK.json` names exactly the metrics the benchmark prints.
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use perfbench::{
    e2e, serve_pd, Config, MetricSpec, Scale, UnitTally, END_TO_END, PER_LAYER, TRACE_DIR,
    WORKLOADS,
};
use pss_metrics::JsonValue;

fn tiny(workload: &str, trace: bool) -> Config {
    Config {
        workload: workload.into(),
        seed: 3,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
    }
}

/// Metrics a traced run of `workload` must report above zero: those of
/// the layers that do most of their work on it.
fn exercised(workload: &str) -> &'static [&'static str] {
    match workload {
        "serve-pd" => &[
            "serve.submit_p50_us",
            "serve.gate_reject_share",
            "serve.wait_p50_us",
            "serve.batches",
            "serve.checkpoints",
            "serve.blob_bytes",
            "types.capture_ms",
            "types.seglog_sync_ms",
            "core.pd.on_arrivals_ms",
        ],
        "sim-scenarios" => &[
            "types.validate_ms",
            "sim.replay_ms",
            "sim.finish_ms",
            "sim.mean_burst",
            "core.pd.on_arrivals_ms",
            "baselines.oa.on_arrivals_ms",
            "baselines.qoa.on_arrivals_ms",
            "baselines.cll.on_arrivals_ms",
            "baselines.avr.on_arrivals_ms",
            "baselines.bkp.on_arrivals_ms",
            "baselines.avr.segments",
        ],
        _ => &[
            "baselines.oam.on_arrival_ms",
            "baselines.oam.segments",
            "convex.oam.passes_per_replan",
            "types.validate_ms",
        ],
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit_untraced_and_traced() {
    for workload in WORKLOADS {
        let spans = std::path::Path::new(TRACE_DIR).join(format!("{workload}-seed3.tsv"));
        // A spans file left by an earlier run must not satisfy the check below.
        let _ = std::fs::remove_file(&spans);
        for trace in [false, true] {
            let out = perfbench::run(&tiny(workload, trace)).expect("the benchmark runs");
            let what = format!("{workload} trace={trace}");
            assert_eq!(out.wrong, 0, "{what}: {:?}", out.failures);
            assert_eq!(out.failures.len() as u64, out.failed, "{what}");
            assert!(
                out.failures.iter().all(|f| f.contains("seed")),
                "{what}: every failure names its seed: {:?}",
                out.failures
            );
            let json = JsonValue::parse(&out.json_line(trace)).expect("the result line is JSON");
            assert_eq!(json.get("correct").and_then(JsonValue::as_bool), Some(true));
            assert!(json.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
            let metrics = json.get("metrics").expect("metrics");
            let specs: &[MetricSpec] = if trace { &PER_LAYER } else { &END_TO_END };
            assert_eq!(metrics.as_object().map(<[_]>::len), Some(specs.len()));
            for spec in specs {
                let metric = metrics
                    .get(spec.name)
                    .unwrap_or_else(|| panic!("{what}: {}", spec.name));
                assert_eq!(
                    metric.get("unit").and_then(JsonValue::as_str),
                    Some(spec.unit),
                    "{what}: {}",
                    spec.name
                );
                let value = metric.get("value").and_then(JsonValue::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{what}: {}", spec.name);
                if !trace {
                    assert!(value > Some(0.0), "{what}: {} is {value:?}", spec.name);
                }
            }
            if trace {
                for name in exercised(workload) {
                    let value = metrics
                        .get(name)
                        .and_then(|m| m.get("value"))
                        .and_then(JsonValue::as_f64);
                    assert!(value > Some(0.0), "{what}: {name} is {value:?}");
                }
                assert!(
                    out.notes.iter().any(|n| n.starts_with("coverage:")),
                    "{what}"
                );
                assert!(
                    out.notes.iter().any(|n| n.starts_with("end-to-end")),
                    "{what}"
                );
                let written = std::fs::read_to_string(&spans)
                    .unwrap_or_else(|e| panic!("{what}: {}: {e}", spans.display()));
                assert!(written.lines().count() > 1, "{what}: no span written");
            }
        }
    }
}

#[test]
fn a_runs_operations_and_cost_depend_on_the_seed_alone() {
    for workload in WORKLOADS {
        let short = perfbench::run(&tiny(workload, false)).expect("the benchmark runs");
        let long = perfbench::run(&Config {
            seconds: 1.0,
            ..tiny(workload, false)
        })
        .expect("the benchmark runs");
        assert!(
            long.notes.iter().any(|n| n.contains("(re-timed)")),
            "{workload}: the longer run re-times its units"
        );
        assert_eq!(long.wrong, 0, "{workload}: {:?}", long.failures);
        assert_eq!(
            (long.attempted, long.failed, &long.failures),
            (short.attempted, short.failed, &short.failures),
            "{workload}"
        );
        assert_eq!(
            long.metrics["cost_per_job"].to_bits(),
            short.metrics["cost_per_job"].to_bits(),
            "{workload}"
        );
    }
}

#[test]
fn decisions_seen_through_the_watermark_match_the_service_report() {
    let unit =
        serve_pd::drive_unit(5, serve_pd::sizes(Scale::Tiny), None, true).expect("the unit runs");
    assert!(unit.failures.is_empty(), "{:?}", unit.failures);
    assert!(unit.wrong.is_empty(), "{:?}", unit.wrong);
    let report = unit.report.as_ref().expect("shutdown succeeded");
    assert_eq!(unit.visible_decisions, report.shards[0].events.len());
    assert_eq!(
        unit.gate_rejects as u64,
        report.tenants[0].rejected_by_price
    );
    assert_eq!(unit.visible_decisions + unit.gate_rejects, unit.submissions);
}

#[test]
fn serve_pd_cost_repeats_exactly_for_a_seed() {
    let sizes = serve_pd::sizes(Scale::Tiny);
    let a = serve_pd::drive_unit(9, sizes, None, true).expect("the unit runs");
    let b = serve_pd::drive_unit(9, sizes, None, false).expect("the unit runs");
    assert!(a.tally.cost > 0.0);
    assert_eq!(a.tally.cost.to_bits(), b.tally.cost.to_bits());
}

#[test]
fn a_unit_without_timed_decisions_leaves_the_timing_medians_alone() {
    let unit = |k: f64| {
        let mut u = UnitTally {
            setup_s: 0.01 * k,
            timed_s: k,
            cost: 5.0 * k,
            arrivals: 10,
            peak_rss_mb: 4.0 + k,
            ..UnitTally::default()
        };
        u.set_latencies(&[100.0 * k, 200.0 * k, 300.0 * k]);
        u
    };
    let good = vec![unit(1.0), unit(2.0), unit(3.0)];
    // A stream that failed before its first decision: set up, nothing timed.
    let failed = UnitTally {
        setup_s: 0.02,
        ..UnitTally::default()
    };
    assert_eq!(failed.rate(), 0.0);
    assert!(failed.line("failed").contains("no timed decision"));
    let mut with_failed = good.clone();
    with_failed.push(failed);
    let before = e2e(&good, 3);
    let after = e2e(&with_failed, 3);
    for ((name, b), (_, a)) in before.iter().zip(&after) {
        if *name != "setup_s" {
            assert_eq!(a.to_bits(), b.to_bits(), "{name}: {b} became {a}");
        }
    }
    assert!(after.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
}

#[test]
fn benchmark_json_names_the_printed_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    let json = JsonValue::parse(&text).expect("BENCHMARK.json is JSON");
    let names = |key: &str| -> Vec<(String, Option<String>)> {
        json.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(JsonValue::as_str)
                        .map(str::to_string),
                )
            })
            .collect()
    };
    let specs = |list: &[MetricSpec]| -> Vec<(String, Option<String>)> {
        list.iter()
            .map(|s| (s.name.to_string(), Some(s.unit.to_string())))
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(names("end_to_end"), specs(&END_TO_END));
    assert_eq!(names("per_layer"), specs(&PER_LAYER));
}
