//! Every metric the benchmark emits: name, unit and direction.
//!
//! `BENCHMARK.json` lists the same names (plus the bound of each
//! end-to-end metric); `tests/pmbench_smoke.rs` holds the two together.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// The fixed name.
    pub name: &'static str,
    /// The unit printed with every value.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees; taken from the untraced run, defined
/// and non-zero on every workload.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("events_per_cpu_s", "1/s"),
    lower("peak_rss_mb", "MiB"),
    higher("delivery_ratio", "ratio"),
    lower("spurious_ratio", "ratio"),
    lower("msgs_per_event", "count"),
];

/// Single layers; taken from the traced run.  A layer a workload does not
/// exercise reads 0 there (`net.*` on the simulator workloads and the
/// reverse).
pub const PER_LAYER: &[MetricDef] = &[
    // Self time per trial of the spans around each layer call.
    lower("sim.workload_ms", "ms"),
    lower("membership.instantiate_ms", "ms"),
    lower("core.build_ms", "ms"),
    lower("simnet.new_ms", "ms"),
    lower("core.publish_ms", "ms"),
    lower("membership.round_ms", "ms"),
    lower("simnet.step_ms", "ms"),
    lower("sim.scan_ms", "ms"),
    lower("core.report_ms", "ms"),
    lower("sim.teardown_ms", "ms"),
    lower("sim.unattributed_ratio", "ratio"),
    // Untraced trial wall time and how many trials it was taken over.
    lower("sim.trial_ms_p50", "ms"),
    lower("sim.trial_ms_p90", "ms"),
    higher("sim.trials", "count"),
    // Exact counts per trial, over the workload's statistics trials.
    lower("sim.rounds", "count"),
    lower("sim.latency_rounds_mean", "rounds"),
    lower("sim.latency_rounds_p99", "rounds"),
    lower("simnet.msgs_sent", "count"),
    lower("simnet.msgs_delivered", "count"),
    lower("simnet.msgs_lost", "count"),
    lower("simnet.step_ns_per_msg", "ns"),
    higher("core.delivered_pairs", "count"),
    lower("core.spurious_pairs", "count"),
    lower("interest.audiences_built", "count"),
    higher("interest.hashcons_hit_ratio", "ratio"),
    // The daemon: spans around the handle calls and its own counters.
    lower("net.spawn_ms", "ms"),
    lower("net.publish_wait_us_p50", "us"),
    lower("net.publish_wait_us_p99", "us"),
    lower("net.publish_lag_ms_p50", "ms"),
    lower("net.publish_lag_ms_p99", "ms"),
    higher("net.on_time_ratio", "ratio"),
    lower("net.drain_ms", "ms"),
    lower("net.shutdown_ms", "ms"),
    lower("net.ticks", "count"),
    lower("net.frames_sent", "count"),
    lower("net.frames_dropped", "count"),
    lower("net.frame_drop_ratio", "ratio"),
    lower("net.frames_handled", "count"),
    lower("net.frames_deduped", "count"),
    lower("net.dedup_ratio", "ratio"),
    lower("net.peak_in_flight", "count"),
    lower("net.cpu_busy_ratio", "ratio"),
    higher("net.served_per_s", "1/s"),
    higher("net.passes", "count"),
    // The host, beside the timings.
    higher("host.calib_mops", "1/us"),
    lower("host.trace_overhead_ratio", "ratio"),
];

/// Named values of one run, in emission order.
pub type Values = Vec<(&'static str, f64)>;

/// The definitions a run with the given tracing mode must emit.
pub fn expected(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Median of a non-empty sample (mean of the two middle values for an even
/// count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The smallest sample value with at least the share `q` of the sample at
/// or below it (0 for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&sample, 0.5), 50.0);
        assert_eq!(quantile(&sample, 0.99), 99.0);
        assert_eq!(quantile(&sample, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn names_are_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|def| def.name)
            .collect();
        for (index, name) in all.iter().enumerate() {
            assert!(!all[..index].contains(name), "{name} is listed twice");
        }
    }
}
