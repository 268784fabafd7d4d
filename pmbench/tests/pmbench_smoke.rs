//! Every workload at smoke size, traced and untraced, and the names the
//! harness emits held against `BENCHMARK.json`.

use std::time::{Duration, Instant};

use pmbench::metrics::{expected, MetricDef, END_TO_END, PER_LAYER};
use pmbench::record::complete;
use pmbench::run::{run, RunRequest, RunResult};
use pmbench::workloads::{self, Shape, Workload};
use serde::Value;

fn smoke(workload: &Workload, seed: u64, trace: bool) -> RunResult {
    run(&RunRequest {
        shape: workload.smoke,
        seed,
        // No time budget: the statistics trials, or one pass.
        measure: Duration::ZERO,
        trace,
        process_start: Instant::now(),
    })
}

fn value(metrics: &[(MetricDef, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(def, _)| def.name == name)
        .unwrap_or_else(|| panic!("{name} was not emitted"))
        .1
}

#[test]
fn every_workload_runs_clean_untraced() {
    for workload in workloads::all() {
        let result = smoke(&workload, 42, false);
        assert!(result.attempted >= 1, "{}", workload.name);
        assert_eq!(result.failed, 0, "{}", workload.name);
        let metrics = complete(expected(false), &result.metrics);
        assert_eq!(result.metrics.len(), END_TO_END.len(), "{}", workload.name);
        for (def, value) in &metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {} = {value} (end-to-end metrics are never 0)",
                workload.name,
                def.name
            );
        }
        let ratio = value(&metrics, "delivery_ratio");
        assert!(ratio <= 1.0, "{}: delivery_ratio {ratio}", workload.name);
    }
}

#[test]
fn traced_trials_equal_untraced_and_spans_cover_the_trial() {
    for workload in workloads::all() {
        // `failed` counts every trial whose composed outcome differs from
        // `run_scenario_trial_with`'s.
        let result = smoke(&workload, 42, true);
        assert_eq!(result.failed, 0, "{}", workload.name);
        let metrics = complete(expected(true), &result.metrics);
        let tracer = result.tracer.expect("a traced run keeps its spans");
        assert!(!tracer.spans().is_empty(), "{}", workload.name);
        assert_eq!(
            tracer.to_jsonl().lines().count(),
            tracer.spans().len(),
            "{}",
            workload.name
        );
        if matches!(workload.smoke, Shape::Ticker { .. }) {
            assert!(value(&metrics, "net.ticks") > 0.0, "{}", workload.name);
            assert_eq!(value(&metrics, "simnet.step_ms"), 0.0, "{}", workload.name);
        } else {
            let unattributed = value(&metrics, "sim.unattributed_ratio");
            assert!(
                unattributed <= 0.05,
                "{}: {unattributed} of the trial is outside every layer span",
                workload.name
            );
            assert!(value(&metrics, "simnet.step_ms") > 0.0, "{}", workload.name);
            assert_eq!(value(&metrics, "net.ticks"), 0.0, "{}", workload.name);
        }
    }
}

#[test]
fn a_fixed_seed_repeats_the_simulated_statistics_exactly() {
    let workload = workloads::find("paper_delegate").expect("a contract workload");
    let (first, second) = (smoke(&workload, 7, false), smoke(&workload, 7, false));
    assert_eq!(first.outcome_digest, second.outcome_digest);
    for name in ["delivery_ratio", "spurious_ratio", "msgs_per_event"] {
        let of = |result: &RunResult| value(&complete(END_TO_END, &result.metrics), name);
        assert_eq!(of(&first), of(&second), "{name}");
    }
    assert_ne!(
        first.outcome_digest,
        smoke(&workload, 8, false).outcome_digest
    );
}

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no string \"{key}\" in {value:?}"))
}

fn list<'a>(benchmark: &'a Value, key: &str) -> &'a [Value] {
    benchmark
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no list \"{key}\""))
}

fn assert_metrics_match(listed: &[Value], defs: &[MetricDef]) {
    assert_eq!(listed.len(), defs.len());
    for (listed, def) in listed.iter().zip(defs) {
        assert_eq!(text(listed, "name"), def.name);
        assert_eq!(text(listed, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(listed, "better"), def.better.as_str(), "{}", def.name);
    }
}

#[test]
fn benchmark_json_lists_exactly_what_the_harness_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let benchmark: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json is JSON");

    let workloads = workloads::all();
    let listed = list(&benchmark, "workloads");
    assert_eq!(listed.len(), workloads.len());
    for (listed, workload) in listed.iter().zip(&workloads) {
        assert_eq!(text(listed, "name"), workload.name);
        assert_eq!(text(listed, "why"), workload.why);
        assert!(workload.why.len() <= 200, "{}", workload.name);
    }

    let end_to_end = list(&benchmark, "end_to_end");
    assert_metrics_match(end_to_end, END_TO_END);
    for metric in end_to_end {
        let bound = metric.get("bound").and_then(Value::as_f64);
        assert!(
            bound.is_some_and(|bound| bound > 0.0 && bound <= 0.25),
            "{}: bound {bound:?}",
            text(metric, "name")
        );
    }
    assert_metrics_match(list(&benchmark, "per_layer"), PER_LAYER);

    let paths: Vec<&str> = list(&benchmark, "paths")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["pmbench"]);
    assert!(list(&benchmark, "command")
        .iter()
        .any(|word| word.as_str() == Some("pmbench/Cargo.toml")));
}
