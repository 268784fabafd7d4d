//! Schema regression for the sweep examples' `--json` output, against the
//! emitter itself.
//!
//! The six sweep examples emit one JSON object per row (`topic_sweep`: one
//! object in all); downstream consumers (plotting scripts, the CI drift
//! gate) key on the field names.  Every test here holds one expected key
//! list against the rows the registered sweep writes right now through
//! `pmcast::sim::sweep` in JSON mode (quick profile, in-process) — renaming
//! or dropping a column fails here instead of silently breaking them.
//!
//! The prediction fields themselves (`predicted`, `predicted_rounds`,
//! `model_in_domain`) are additionally checked straight from a
//! [`pmcast::sim::sweep::Cell::Predicted`] cell.

use serde::Value;

use pmcast::sim::sweep;
use pmcast::{predict, Scenario, TopicWorkload};

/// Runs a registered sweep at the quick profile in JSON mode, in-process,
/// and parses every line the emitter wrote.
fn emitted(name: &str) -> Vec<Value> {
    let options = sweep::parse(&["--json".to_string()], Some(name)).expect("a registered sweep");
    let mut out = Vec::new();
    sweep::run(&options, &mut out, &mut std::io::sink()).expect("writing to memory cannot fail");
    let lines = String::from_utf8(out).expect("the emitter writes UTF-8");
    assert!(!lines.is_empty(), "{name} emitted nothing");
    lines
        .lines()
        .map(|line| serde_json::from_str(line).unwrap_or_else(|_| panic!("{name}: {line}")))
        .collect()
}

/// Holds one expected key list against the rows the sweep emits now.
fn assert_schema(name: &str, expected: &[&str]) {
    for (i, row) in emitted(name).iter().enumerate() {
        assert_exact_keys(row, expected, &format!("emitted {name}[{i}]"));
    }
}

/// A required field of a row.
fn field<'a>(row: &'a Value, key: &str, context: &str) -> &'a Value {
    row.get(key).unwrap_or_else(|| panic!("{context}: missing field `{key}`"))
}

/// A required numeric field.
fn float(row: &Value, key: &str, context: &str) -> f64 {
    field(row, key, context)
        .as_f64()
        .unwrap_or_else(|| panic!("{context}: `{key}` is not a number"))
}

/// A required boolean field.
fn boolean(row: &Value, key: &str, context: &str) -> bool {
    field(row, key, context)
        .as_bool()
        .unwrap_or_else(|| panic!("{context}: `{key}` is not a boolean"))
}

/// Asserts a row is an object carrying exactly `expected` keys.
fn assert_exact_keys(row: &Value, expected: &[&str], context: &str) {
    let object = row.as_object().unwrap_or_else(|| panic!("{context}: row is not an object"));
    for key in expected {
        assert!(
            object.iter().any(|(k, _)| k == key),
            "{context}: missing field `{key}`"
        );
    }
    for (key, _) in object {
        assert!(
            expected.contains(&key.as_str()),
            "{context}: unexpected field `{key}` (schema change? update this test)"
        );
    }
}

/// The scenario-level prediction fields every gated row carries.
const PREDICTION_FIELDS: [&str; 3] = ["predicted", "predicted_rounds", "model_in_domain"];

/// A row's `predicted` cell emits exactly the three fields consumers key
/// on.
#[test]
fn prediction_json_fields_match_the_documented_names() {
    let scenario = Scenario::builder().group(6, 3).matching_rate(0.5).build();
    let mut table = sweep::Sweep::new("schema", pmcast::sim::experiments::Profile::Quick, None);
    table.row(vec![sweep::col("predicted", "", sweep::Cell::Predicted(0.98, predict(&scenario)))]);
    let mut out = Vec::new();
    table.write(&mut out, sweep::Format::Json).expect("writing to memory cannot fail");
    let line = String::from_utf8(out).expect("the emitter writes UTF-8");
    let wrapped: Value = serde_json::from_str(&line).expect("a row is a valid JSON object");
    assert_exact_keys(&wrapped, &PREDICTION_FIELDS, "predicted cell");
    assert!(float(&wrapped, "predicted", "predicted cell").is_finite());
    assert!(field(&wrapped, "predicted_rounds", "predicted cell").as_u64().is_some());
    boolean(&wrapped, "model_in_domain", "predicted cell");
}

#[test]
fn reliability_sweep_rows_keep_their_schema() {
    let expected: Vec<&str> = ["matching_rate", "delivery_simulated", "delivery_std",
        "delivery_analytical", "rounds"]
    .into_iter()
    .chain(PREDICTION_FIELDS)
    .collect();
    assert_schema("reliability_sweep", &expected);
}

#[test]
fn partial_view_sweep_rows_keep_their_schema() {
    let expected: Vec<&str> = ["membership", "n", "entries", "pmcast", "flood", "genuine"]
        .into_iter()
        .chain(PREDICTION_FIELDS)
        .collect();
    assert_schema("partial_view_sweep", &expected);
}

#[test]
fn churn_sweep_rows_keep_their_schema() {
    let expected = [
        "workload", "n", "churn", "entries",
        "global", "global_predicted", "global_in_domain",
        "delegate", "delegate_predicted", "delegate_in_domain",
        "flat", "flat_predicted", "flat_in_domain",
    ];
    assert_schema("churn_sweep", &expected);
}

#[test]
fn adversarial_sweep_rows_keep_their_schema() {
    let per_provider: Vec<String> = ["global", "delegate", "flat"]
        .iter()
        .flat_map(|name| {
            ["", "_predicted", "_in_domain", "_lat_mean", "_lat_p99", "_latency"]
                .iter()
                .map(move |suffix| format!("{name}{suffix}"))
        })
        .collect();
    let mut expected = vec!["workload", "n", "publish_round", "entries"];
    expected.extend(per_provider.iter().map(String::as_str));
    assert_schema("adversarial_sweep", &expected);
}

/// What each fault axis does, pinned: the `global`, `delegate` and `flat`
/// delivery ratios of every quick `adversarial_sweep` row.  No CI digest
/// declares a fault axis, so this is the check that sees a fault decision
/// move; a change that means to move a row updates it here and says why.
#[test]
fn adversarial_sweep_ratios_are_pinned() {
    let pinned: [(&str, [f64; 3]); 7] = [
        ("baseline", [0.9748, 0.9778, 0.9435]),
        ("delay", [0.9778, 0.9778, 0.9404]),
        ("partition", [0.5079, 0.5079, 0.4926]),
        ("partition-heal", [0.9748, 0.9778, 0.9214]),
        ("subtree-loss", [0.9778, 0.9778, 0.9372]),
        ("straggler", [0.9778, 0.9778, 0.9402]),
        ("combined", [0.9745, 0.9745, 0.9247]),
    ];
    let rows = emitted("adversarial_sweep");
    assert_eq!(rows.len(), pinned.len(), "one row per fault workload");
    for (row, (workload, ratios)) in rows.iter().zip(pinned) {
        let context = format!("emitted adversarial_sweep {workload}");
        assert_eq!(field(row, "workload", &context).as_str(), Some(workload));
        let emitted = ["global", "delegate", "flat"].map(|provider| float(row, provider, &context));
        assert_eq!(emitted, ratios, "{context}: global, delegate, flat");
    }
}

#[test]
fn scale_sweep_rows_keep_their_schema() {
    let expected: Vec<&str> = ["n", "arity", "depth", "provider", "seconds_per_trial",
        "delivery_ratio", "rounds", "peak_rss_mb", "trials"]
    .into_iter()
    .chain(PREDICTION_FIELDS)
    .collect();
    assert_schema("scale_sweep", &expected);
    // One delegate provider, whatever the group size.
    for row in emitted("scale_sweep") {
        let provider = field(&row, "provider", "emitted scale_sweep").as_str();
        assert!(matches!(provider, Some("global" | "delegate")), "provider {provider:?}");
    }
}

#[test]
fn topic_sweep_object_keeps_its_schema() {
    // One object in all: sweep-level fields, the hashcons counters and one
    // row per routing arm.
    let emitted = emitted("topic_sweep");
    assert_eq!(emitted.len(), 1, "topic_sweep emits a single object");
    let (context, object) = ("emitted topic_sweep", &emitted[0]);
    let expected = ["n", "topics", "subscriptions_per_process", "events", "publish_rounds",
        "zipf_exponent", "hashcons", "rows"];
    assert_exact_keys(object, &expected, context);
    let hashcons = ["requested", "built", "hit_rate", "alloc_reduction"];
    let counters = field(object, "hashcons", context);
    assert_exact_keys(counters, &hashcons, &format!("{context}.hashcons"));
    let arms = field(object, "rows", context).as_array().expect("`rows` is an array");
    assert_eq!(arms.len(), 3, "{context}: oracle, summary, blind");
    for (i, row) in arms.iter().enumerate() {
        let arm = ["routing", "events_per_sec", "reliability", "spurious_ratio", "messages"];
        assert_exact_keys(row, &arm, &format!("{context}.rows[{i}]"));
    }
    // The envelope reports the workload that ran, not literals: the sweep
    // builds `TopicWorkload::new(topics, 3, events)`.
    let count = |key: &str| float(&emitted[0], key, context) as usize;
    let workload = TopicWorkload::new(count("topics"), 3, count("events"));
    assert_eq!(count("subscriptions_per_process"), workload.subscriptions_per_process);
    assert_eq!(float(&emitted[0], "zipf_exponent", context), TopicWorkload::ZIPF_EXPONENT);
}
