//! `pmbench compare <a.jsonl> <b.jsonl>`: is set `b` worse than set `a`?
//!
//! Each file holds the records of one set of runs (`records.jsonl` as
//! `pmbench run` appends it).  For every pairing of end-to-end metric and
//! workload the medians are compared against the metric's bound in
//! `BENCHMARK.json`; where the run-to-run spread is wider than the bound
//! the pair is `unresolved`, never `same`.  Outcome digests of equal
//! (workload, seed) pairs compare exactly.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;

use crate::metrics::{median, Better};

/// What `BENCHMARK.json` fixes for one end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// The metric's name.
    pub name: String,
    /// Which way it improves.
    pub better: Better,
    /// Share of the baseline's median by which it may worsen.
    pub bound: f64,
}

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the baseline's own spread, or every run of
    /// `b` beats every run of `a`.
    Better,
    /// Within the bound, and the spread is narrow enough to say so.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// The spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The end-to-end runs of one set: values per (workload, metric), and the
/// digest per (workload, seed).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RecordSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    digests: BTreeMap<(String, u64), String>,
}

fn field<'a>(value: &'a Value, key: &str, context: &str) -> Result<&'a Value, String> {
    value
        .get(key)
        .ok_or_else(|| format!("{context}: no \"{key}\""))
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json` text.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let benchmark: Value =
        serde_json::from_str(text).map_err(|error| format!("BENCHMARK.json: {error}"))?;
    field(&benchmark, "end_to_end", "BENCHMARK.json")?
        .as_array()
        .ok_or("BENCHMARK.json: end_to_end is not a list")?
        .iter()
        .map(|metric| {
            let name = field(metric, "name", "end_to_end")?
                .as_str()
                .ok_or("end_to_end: name is not a string")?;
            let better = match field(metric, "better", name)?.as_str() {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: better is neither lower nor higher")),
            };
            let bound = field(metric, "bound", name)?
                .as_f64()
                .ok_or_else(|| format!("{name}: bound is not a number"))?;
            Ok(Bound {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// Reads the untraced records of a `records.jsonl` text.
pub fn parse_records(text: &str) -> Result<RecordSet, String> {
    let mut set = RecordSet::default();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let context = format!("line {}", number + 1);
        let record: Value =
            serde_json::from_str(line).map_err(|error| format!("{context}: {error}"))?;
        if field(&record, "trace", &context)?.as_bool() != Some(false) {
            continue;
        }
        let workload = field(&record, "workload", &context)?
            .as_str()
            .ok_or_else(|| format!("{context}: workload is not a string"))?;
        let seed = field(&record, "seed", &context)?
            .as_u64()
            .ok_or_else(|| format!("{context}: seed is not a whole number"))?;
        if let Some(digest) = field(&record, "outcome_digest", &context)?.as_str() {
            set.digests
                .insert((workload.to_string(), seed), digest.to_string());
        }
        let metrics = field(&record, "metrics", &context)?
            .as_object()
            .ok_or_else(|| format!("{context}: metrics is not an object"))?;
        for (name, entry) in metrics {
            let value = field(entry, "value", name)?
                .as_f64()
                .ok_or_else(|| format!("{context}: {name} has no numeric value"))?;
            set.values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// Distance between the first and third quartile as a share of the median
/// (quartiles as Python's `statistics.quantiles(values, n=4)` gives them);
/// 0 for fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1) % 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / median(values).abs()
}

/// The verdict on baseline runs `a` against candidate runs `b`.
pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let sign = match bound.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    // Positive = worse, as a share of the baseline's median.
    let worsening = sign * (median(b) - median(a)) / median(a).abs();
    let every_b = |beats: fn(f64, f64) -> bool| {
        b.iter()
            .all(|&b| a.iter().all(|&a| beats(sign * b, sign * a)))
    };
    let repeated = a.len() >= 2 && b.len() >= 2;
    if repeated && every_b(|b, a| b < a) {
        Verdict::Better
    } else if repeated && every_b(|b, a| b > a) && worsening > bound.bound {
        Verdict::Worse
    } else if spread(a).max(spread(b)) > bound.bound {
        Verdict::Unresolved
    } else if worsening > bound.bound {
        Verdict::Worse
    } else if -worsening > spread(a).max(if repeated { 0.0 } else { bound.bound }) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Compares two record sets; returns the report and whether nothing is
/// `worse`.
pub fn compare(a: &RecordSet, b: &RecordSet, bounds: &[Bound]) -> (String, bool) {
    let mut report = format!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict\n",
        "workload", "metric", "a median", "b median", "delta", "spread", "bound"
    );
    let mut none_worse = true;
    for ((workload, metric), a_values) in &a.values {
        let Some(bound) = bounds.iter().find(|bound| bound.name == *metric) else {
            continue;
        };
        let Some(b_values) = b.values.get(&(workload.clone(), metric.clone())) else {
            report.push_str(&format!("{workload:<16} {metric:<16} missing from b\n"));
            continue;
        };
        let verdict = verdict(a_values, b_values, bound);
        none_worse &= verdict != Verdict::Worse;
        let (a_median, b_median) = (median(a_values), median(b_values));
        report.push_str(&format!(
            "{workload:<16} {metric:<16} {a_median:>14.6} {b_median:>14.6} {:>+7.2}% {:>6.2}% {:>6.2}%  {}\n",
            100.0 * (b_median - a_median) / a_median.abs(),
            100.0 * spread(a_values).max(spread(b_values)),
            100.0 * bound.bound,
            verdict.as_str()
        ));
    }
    for ((workload, seed), a_digest) in &a.digests {
        if a_digest.is_empty() {
            continue;
        }
        if let Some(b_digest) = b.digests.get(&(workload.clone(), *seed)) {
            let verdict = if a_digest == b_digest {
                "same"
            } else {
                "changed"
            };
            report.push_str(&format!(
                "{workload:<16} outcome_digest   seed {seed}: {a_digest} {b_digest}  {verdict}\n"
            ));
        }
    }
    (report, none_worse)
}

/// `pmbench compare`: prints the report; `Ok(false)` if anything is worse.
pub fn main(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--benchmark" {
            benchmark = args.next().ok_or("--benchmark needs a path")?.clone();
        } else {
            files.push(arg);
        }
    }
    let [a, b] = files[..] else {
        return Err(
            "usage: pmbench compare <a.jsonl> <b.jsonl> [--benchmark BENCHMARK.json]".into(),
        );
    };
    let read = |path: &str| {
        std::fs::read_to_string(Path::new(path)).map_err(|error| format!("{path}: {error}"))
    };
    let bounds = parse_bounds(&read(&benchmark)?)?;
    let (report, none_worse) = compare(
        &parse_records(&read(a)?)?,
        &parse_records(&read(b)?)?,
        &bounds,
    );
    print!("{report}");
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "latency".to_string(),
            better: Better::Lower,
            bound,
        }
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&values) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn verdicts() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            verdict(&steady, &[10.2, 10.1, 10.3, 10.2], &lower(0.1)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&steady, &[12.0, 12.1, 11.9, 12.2], &lower(0.1)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady, &[8.0, 8.1, 7.9, 8.2], &lower(0.1)),
            Verdict::Better
        );
        // Spread wider than the bound, runs overlapping: not "same".
        let noisy = [8.0, 12.0, 9.0, 11.0];
        assert_eq!(
            verdict(&noisy, &[8.5, 11.5, 9.5, 12.5], &lower(0.1)),
            Verdict::Unresolved
        );
        // Higher-is-better flips the sign.
        let throughput = Bound {
            better: Better::Higher,
            ..lower(0.1)
        };
        assert_eq!(
            verdict(&steady, &[8.0, 8.1, 7.9, 8.2], &throughput),
            Verdict::Worse
        );
        // Single runs: the bound decides both ways.
        assert_eq!(verdict(&[10.0], &[10.5], &lower(0.1)), Verdict::Same);
        assert_eq!(verdict(&[10.0], &[11.5], &lower(0.1)), Verdict::Worse);
        assert_eq!(verdict(&[10.0], &[8.5], &lower(0.1)), Verdict::Better);
    }

    #[test]
    fn compares_record_files() {
        let bounds = parse_bounds(
            r#"{"end_to_end":[{"name":"latency","unit":"ms","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let record = |value: f64, digest: &str| {
            format!(
                "{{\"workload\":\"w\",\"seed\":1,\"trace\":false,\"outcome_digest\":\"{digest}\",\
                 \"metrics\":{{\"latency\":{{\"value\":{value},\"unit\":\"ms\"}}}}}}\n"
            )
        };
        let a = parse_records(&record(10.0, "aa")).unwrap();
        let (report, ok) = compare(&a, &parse_records(&record(10.4, "aa")).unwrap(), &bounds);
        assert!(ok && report.contains("same"), "{report}");
        let (report, ok) = compare(&a, &parse_records(&record(12.0, "bb")).unwrap(), &bounds);
        assert!(
            !ok && report.contains("worse") && report.contains("changed"),
            "{report}"
        );
    }
}
