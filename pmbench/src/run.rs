//! One benchmark run: set up, measure for the given time, check the
//! outputs, and turn what was measured into named metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pmcast_core::MulticastReport;
use pmcast_interest::EventId;
use pmcast_sim::runner::{DeliveryLatency, TrialOutcome};
use pmcast_sim::scenario::Scenario;

use crate::host::{peak_rss_mib, Calibration};
use crate::metrics::{median, quantile, ratio, Values};
use crate::sim::{
    assert_no_crash_axis, reached_quiescence, timed, traced_trial, untraced_trial, TrialCounts,
};
use crate::ticker::{run_pass, Feed, Pass};
use crate::trace::Tracer;
use crate::workloads::Shape;

/// How often the untraced run repeats its set-up at most; `setup_s` is
/// the median.  Repeating stops early once set-up has used an eighth of
/// the measuring time, so a workload with a seconds-long warm-up operation
/// sets up once.
const SETUP_REPEATS: usize = 9;

/// What the caller asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunRequest {
    /// The workload's shape (contract or smoke size).
    pub shape: Shape,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long to measure.
    pub measure: Duration,
    /// Per-layer run (spans, counts) or end-to-end run.
    pub trace: bool,
    /// When the process started; the first set-up is timed from here.
    pub process_start: Instant,
}

/// What one run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Operations attempted (trials or publishes).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics of the run's mode, in definition order.
    pub metrics: Values,
    /// Hash of the statistics trials' outcomes (empty for the ticker,
    /// whose outcomes depend on the wall clock).
    pub outcome_digest: String,
    /// Timed trials or passes behind the medians.
    pub samples: u64,
    /// Calibrated seconds per wall second during the measurement (see
    /// [`Calibration`]; 1 for the ticker, whose timings are not
    /// calibrated); divide a calibrated timing by it for wall time.
    pub calibration: f64,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// Runs one workload shape.
pub fn run(request: &RunRequest) -> RunResult {
    match request.shape.scenario(request.seed) {
        Some(scenario) => run_sim(request, &scenario),
        None => run_ticker(request),
    }
}

/// Repeats `set_up`; returns the median of its wall times, the first
/// taken from process start, and the host's speed beside them.
fn timed_setups(request: &RunRequest, mut set_up: impl FnMut()) -> (f64, Calibration) {
    let repeats = if request.trace { 1 } else { SETUP_REPEATS };
    let mut times = Vec::with_capacity(repeats);
    let mut calibration = Calibration::default();
    while times.len() < repeats {
        let started = if times.is_empty() {
            request.process_start
        } else {
            Instant::now()
        };
        set_up();
        times.push(started.elapsed().as_secs_f64());
        calibration.sample();
        if request.process_start.elapsed() > request.measure / 8 {
            break;
        }
    }
    (median(&times), calibration)
}

/// FNV-1a over the `Debug` text of what is written to it, so that
/// "identical outcomes" is one string compare.  Streams: a topic trial's
/// outcome prints to megabytes, which must not count as the workload's
/// peak memory.
#[derive(Debug)]
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, text: &str) -> std::fmt::Result {
        for byte in text.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

/// The simulated statistics of the statistics trials, merged as the
/// trials finish.
#[derive(Debug)]
struct SimStats {
    trials: u64,
    digest: Fnv,
    report: MulticastReport,
    events: u64,
    messages: u64,
    rounds: u64,
    /// Every (event, subscriber) delivery of the statistics trials.
    latency: DeliveryLatency,
}

impl SimStats {
    fn new() -> Self {
        SimStats {
            trials: 0,
            digest: Fnv(0xCBF2_9CE4_8422_2325),
            report: MulticastReport::default(),
            events: 0,
            messages: 0,
            rounds: 0,
            latency: DeliveryLatency {
                event: EventId(0),
                publish_round: 0,
                counts: Vec::new(),
            },
        }
    }

    fn add(&mut self, outcome: &TrialOutcome) {
        use std::fmt::Write as _;
        self.trials += 1;
        write!(self.digest, "{outcome:?}").expect("hashing cannot fail");
        self.report.merge(&outcome.report);
        self.events += outcome.per_event.len() as u64;
        self.messages += outcome.messages_sent;
        self.rounds += outcome.rounds;
        for latency in &outcome.latency {
            self.latency.merge(latency);
        }
    }
}

fn run_sim(request: &RunRequest, scenario: &Scenario) -> RunResult {
    assert_no_crash_axis(scenario);
    let stat_trials = request.shape.stat_trials();

    // Set-up: the warm-up trial takes the first-touch page faults of the
    // process arena, which later trials do not pay again.
    let mut warm_up = None;
    let (setup_wall_s, setup_calibration) = timed_setups(request, || {
        warm_up = untraced_trial(scenario, 0);
    });

    let mut tracer = request.trace.then(Tracer::new);
    let mut calibration = Calibration::default();
    let mut failed = 0u64;
    let mut untraced_s: Vec<f64> = Vec::new();
    let mut traced_s: Vec<f64> = Vec::new();
    let mut stats = SimStats::new();
    let mut stat_counts: Vec<TrialCounts> = Vec::with_capacity(stat_trials);
    let mut traced_messages = 0u64;

    let measure_started = Instant::now();
    let mut trial = 0usize;
    while trial < stat_trials || measure_started.elapsed() < request.measure {
        calibration.sample();
        let (outcome, seconds) = timed(|| untraced_trial(scenario, trial));
        untraced_s.push(seconds);
        let mut ok = outcome
            .as_ref()
            .is_some_and(|outcome| reached_quiescence(scenario, outcome));
        // The engine is deterministic: the warm-up already ran trial 0.
        if trial == 0 && outcome != warm_up {
            ok = false;
        }
        if let Some(tracer) = tracer.as_mut() {
            let (composed, seconds) = timed(|| {
                catch_unwind(AssertUnwindSafe(|| traced_trial(scenario, trial, tracer))).ok()
            });
            traced_s.push(seconds);
            match composed {
                Some((composed, counts)) => {
                    traced_messages += counts.traffic.messages_sent;
                    if outcome.as_ref() != Some(&composed) {
                        ok = false;
                    }
                    if trial < stat_trials {
                        stat_counts.push(counts);
                    }
                }
                None => {
                    // A panic left spans open: the trace is unusable.
                    failed += 1;
                    break;
                }
            }
        }
        if !ok {
            failed += 1;
        }
        if let Some(outcome) = outcome.as_ref().filter(|_| trial < stat_trials) {
            stats.add(outcome);
        }
        trial += 1;
    }
    calibration.sample();

    let events_per_trial = ratio(stats.events as f64, stats.trials as f64);
    let metrics: Values = match &tracer {
        None => vec![
            // A trial is one CPU-bound thread: wall time is processor time,
            // and it moves with the host's speed, so both timings are in
            // calibrated seconds.
            ("setup_s", setup_wall_s * setup_calibration.factor()),
            (
                "events_per_cpu_s",
                ratio(events_per_trial, median(&untraced_s) * calibration.factor()),
            ),
            ("peak_rss_mb", peak_rss_mib()),
            ("delivery_ratio", stats.report.delivery_ratio()),
            ("spurious_ratio", stats.report.spurious_ratio()),
            (
                "msgs_per_event",
                ratio(stats.messages as f64, stats.events as f64),
            ),
        ],
        Some(tracer) => {
            let traced_trials = traced_s.len() as f64;
            let self_times = tracer.self_times();
            let self_ns = |name: &str| {
                self_times
                    .iter()
                    .find(|(span, _)| *span == name)
                    .map_or(0.0, |(_, total)| *total as f64)
            };
            let self_ms = |name: &str| self_ns(name) / 1e6 / traced_trials;
            let per_trial = |total: u64| ratio(total as f64, stat_counts.len() as f64);
            let traffic = |field: fn(&TrialCounts) -> u64| {
                per_trial(stat_counts.iter().map(field).sum::<u64>())
            };
            let hits: u64 = stat_counts.iter().map(|c| c.audience_hits).sum();
            let built: u64 = stat_counts.iter().map(|c| c.audiences_built).sum();
            let traced_total: f64 = traced_s.iter().sum();
            let mut values: Values = vec![
                ("sim.workload_ms", self_ms("sim.workload")),
                (
                    "membership.instantiate_ms",
                    self_ms("membership.instantiate"),
                ),
                ("core.build_ms", self_ms("core.build")),
                ("simnet.new_ms", self_ms("simnet.new")),
                ("core.publish_ms", self_ms("core.publish")),
                ("membership.round_ms", self_ms("membership.round")),
                ("simnet.step_ms", self_ms("simnet.step")),
                ("sim.scan_ms", self_ms("sim.scan")),
                ("core.report_ms", self_ms("core.report")),
                ("sim.teardown_ms", self_ms("sim.teardown")),
                (
                    "sim.unattributed_ratio",
                    ratio(self_ns("sim.trial") / 1e9, traced_total),
                ),
                ("sim.trial_ms_p50", 1e3 * median(&untraced_s)),
                ("sim.trial_ms_p90", 1e3 * quantile(&untraced_s, 0.9)),
                ("sim.trials", untraced_s.len() as f64),
                ("sim.rounds", per_trial(stats.rounds)),
                ("sim.latency_rounds_mean", stats.latency.mean()),
                (
                    "sim.latency_rounds_p99",
                    stats.latency.quantile(0.99) as f64,
                ),
                ("simnet.msgs_sent", traffic(|c| c.traffic.messages_sent)),
                (
                    "simnet.msgs_delivered",
                    traffic(|c| c.traffic.messages_delivered),
                ),
                ("simnet.msgs_lost", traffic(|c| c.traffic.messages_lost)),
                (
                    "simnet.step_ns_per_msg",
                    ratio(self_ns("simnet.step"), traced_messages as f64),
                ),
                (
                    "core.delivered_pairs",
                    per_trial(stats.report.delivered_interested as u64),
                ),
                (
                    "core.spurious_pairs",
                    per_trial(stats.report.received_uninterested as u64),
                ),
                ("interest.audiences_built", per_trial(built)),
                (
                    "interest.hashcons_hit_ratio",
                    ratio(hits as f64, (hits + built) as f64),
                ),
            ];
            values.push(("host.calib_mops", calibration.blocks_per_s() / 1e6));
            values.push((
                "host.trace_overhead_ratio",
                ratio(traced_total, untraced_s.iter().sum()) - 1.0,
            ));
            values
        }
    };
    RunResult {
        attempted: untraced_s.len() as u64,
        failed,
        metrics,
        outcome_digest: format!("{:016x}", stats.digest.0),
        samples: untraced_s.len() as u64,
        calibration: calibration.factor(),
        tracer,
    }
}

/// The `net.*` per-layer metrics over the timed passes.
fn net_metrics(passes: &[Pass]) -> Values {
    let per_pass =
        |value: fn(&Pass) -> f64| median(&passes.iter().map(value).collect::<Vec<f64>>());
    let publish_us = |pick: fn(&crate::ticker::PublishTimes) -> Duration| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|pass| pass.publishes.iter())
            .map(|times| pick(times).as_secs_f64() * 1e6)
            .collect()
    };
    let waits = publish_us(|times| times.admitted.saturating_sub(times.called));
    let lags = publish_us(|times| times.admitted.saturating_sub(times.due));
    vec![
        ("net.spawn_ms", per_pass(|pass| 1e3 * pass.spawn_s)),
        ("net.publish_wait_us_p50", quantile(&waits, 0.5)),
        ("net.publish_wait_us_p99", quantile(&waits, 0.99)),
        ("net.publish_lag_ms_p50", quantile(&lags, 0.5) / 1e3),
        ("net.publish_lag_ms_p99", quantile(&lags, 0.99) / 1e3),
        ("net.on_time_ratio", per_pass(Pass::on_time_ratio)),
        ("net.drain_ms", per_pass(|pass| 1e3 * pass.drain_s)),
        ("net.shutdown_ms", per_pass(|pass| 1e3 * pass.shutdown_s)),
        ("net.ticks", per_pass(|pass| pass.brokers.ticks as f64)),
        (
            "net.frames_sent",
            per_pass(|pass| pass.transport.frames_sent as f64),
        ),
        (
            "net.frames_dropped",
            per_pass(|pass| pass.transport.frames_dropped as f64),
        ),
        ("net.frame_drop_ratio", per_pass(frame_drop_ratio)),
        (
            "net.frames_handled",
            per_pass(|pass| pass.brokers.frames_handled as f64),
        ),
        (
            "net.frames_deduped",
            per_pass(|pass| pass.brokers.frames_deduped as f64),
        ),
        (
            "net.dedup_ratio",
            per_pass(|pass| {
                ratio(
                    pass.brokers.frames_deduped as f64,
                    (pass.brokers.frames_deduped + pass.brokers.frames_handled) as f64,
                )
            }),
        ),
        (
            "net.peak_in_flight",
            per_pass(|pass| pass.transport.peak_in_flight as f64),
        ),
        (
            "net.cpu_busy_ratio",
            per_pass(|pass| ratio(pass.cpu_s, pass.wall_s)),
        ),
        (
            "net.served_per_s",
            per_pass(|pass| ratio(pass.admitted as f64, pass.dissemination_s)),
        ),
        ("net.passes", passes.len() as f64),
    ]
}

/// Frames offered to the transport, enqueued or dropped at a full mailbox.
fn frames_offered(pass: &Pass) -> f64 {
    (pass.transport.frames_sent + pass.transport.frames_dropped) as f64
}

fn frame_drop_ratio(pass: &Pass) -> f64 {
    ratio(pass.transport.frames_dropped as f64, frames_offered(pass))
}

fn run_ticker(request: &RunRequest) -> RunResult {
    let Shape::Ticker { trades, rate_per_s } = request.shape else {
        unreachable!("only the ticker shape has no scenario");
    };

    // Set-up: generate a feed and push a tenth of it through a daemon.
    let (setup_s, _) = timed_setups(request, || {
        let feed = Feed::generate(request.seed, trades);
        run_pass(&feed.prefix(trades as usize / 10), rate_per_s, 0, None);
    });

    // Pass `p` gets its own brokers and trades from `seed + p`, as trial
    // `t` of a scenario does: the ratios below merge over several
    // subscription draws instead of hanging on one.
    let mut tracer = request.trace.then(Tracer::new);
    let mut calibration = Calibration::default();
    calibration.sample();
    let mut passes: Vec<Pass> = Vec::new();
    let measure_started = Instant::now();
    while passes.is_empty() || measure_started.elapsed() < request.measure {
        let pass = passes.len() as u64;
        let feed = Feed::generate(request.seed.wrapping_add(pass), trades);
        passes.push(run_pass(&feed, rate_per_s, pass, tracer.as_mut()));
        calibration.sample();
    }

    let attempted = passes.len() as u64 * trades;
    let failed = passes.iter().map(|pass| pass.failed).sum();
    let mut report = MulticastReport::default();
    for pass in &passes {
        report.merge(&pass.report);
    }
    let total = |value: fn(&Pass) -> f64| passes.iter().map(value).sum::<f64>();
    let metrics: Values = if request.trace {
        let mut values = net_metrics(&passes);
        // No `host.trace_overhead_ratio`: the publish loop notes the same
        // timestamps traced or not, and files the spans after the pass.
        values.push(("host.calib_mops", calibration.blocks_per_s() / 1e6));
        values
    } else {
        vec![
            // Wall seconds and kernel-accounted CPU seconds, uncalibrated:
            // set-up is paced by the wall clock, and the daemon's CPU time
            // per trade did not move with the calibration rate (see
            // README, "Calibrated seconds").
            ("setup_s", setup_s),
            (
                "events_per_cpu_s",
                ratio(total(|pass| pass.admitted as f64), total(|pass| pass.cpu_s)),
            ),
            ("peak_rss_mb", peak_rss_mib()),
            ("delivery_ratio", report.delivery_ratio()),
            ("spurious_ratio", report.spurious_ratio()),
            (
                "msgs_per_event",
                ratio(total(frames_offered), total(|pass| pass.admitted as f64)),
            ),
        ]
    };
    RunResult {
        attempted,
        failed,
        metrics,
        outcome_digest: String::new(),
        samples: passes.len() as u64,
        calibration: 1.0,
        tracer,
    }
}
