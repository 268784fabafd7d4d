//! What a run prints and writes: the contract's result line, and one
//! record per run in one versioned schema.

use serde::Value;

use crate::host::HostInfo;
use crate::metrics::{MetricDef, Values};
use crate::run::RunResult;

/// The version of the record schema.
pub const SCHEMA: &str = "pmbench/1";

/// Every metric of `defs` in definition order, 0 where the workload does
/// not exercise the layer.
///
/// # Panics
///
/// Panics if `values` names a metric `defs` does not list.
pub fn complete(defs: &[MetricDef], values: &Values) -> Vec<(MetricDef, f64)> {
    for (name, _) in values {
        assert!(
            defs.iter().any(|def| def.name == *name),
            "{name} is not a defined metric"
        );
    }
    defs.iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .map_or(0.0, |(_, value)| *value);
            (*def, value)
        })
        .collect()
}

fn metrics_value(metrics: &[(MetricDef, f64)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(def, value)| {
                let entry = Value::Object(vec![
                    ("value".to_string(), Value::Float(*value)),
                    ("unit".to_string(), Value::Str(def.unit.to_string())),
                ]);
                (def.name.to_string(), entry)
            })
            .collect(),
    )
}

fn render(value: &Value) -> String {
    serde_json::to_string(value).expect("benchmark metrics are finite numbers")
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(result: &RunResult, metrics: &[(MetricDef, f64)]) -> String {
    render(&Value::Object(vec![
        ("correct".to_string(), Value::Bool(result.failed == 0)),
        ("attempted".to_string(), Value::UInt(result.attempted)),
        ("failed".to_string(), Value::UInt(result.failed)),
        ("metrics".to_string(), metrics_value(metrics)),
    ]))
}

/// The record appended to `records.jsonl`: the result plus what it takes
/// to reproduce and compare it.
pub fn record_line(
    workload: &str,
    seed: u64,
    trace: bool,
    seconds: f64,
    result: &RunResult,
    metrics: &[(MetricDef, f64)],
    host: &HostInfo,
) -> String {
    let text = |value: &str| Value::Str(value.to_string());
    render(&Value::Object(vec![
        ("schema".to_string(), text(SCHEMA)),
        ("workload".to_string(), text(workload)),
        ("seed".to_string(), Value::UInt(seed)),
        ("trace".to_string(), Value::Bool(trace)),
        ("seconds".to_string(), Value::Float(seconds)),
        ("samples".to_string(), Value::UInt(result.samples)),
        ("calibration".to_string(), Value::Float(result.calibration)),
        ("attempted".to_string(), Value::UInt(result.attempted)),
        ("failed".to_string(), Value::UInt(result.failed)),
        ("outcome_digest".to_string(), text(&result.outcome_digest)),
        ("host".to_string(), text(&host.host)),
        ("nproc".to_string(), Value::UInt(host.nproc as u64)),
        ("commit".to_string(), text(&host.commit)),
        ("rustc".to_string(), text(&host.rustc)),
        ("metrics".to_string(), metrics_value(metrics)),
    ]))
}
