//! The sweeps behind `examples/*_sweep.rs` — membership knowledge, churn,
//! adversarial faults, scale and multi-topic traffic.  Each example's
//! header documents the research point; the declarations are here.

use std::time::Instant;

use pmcast_core::{GenuineFactory, InterestRouting, PmcastConfig};
use pmcast_interest::Event;
use pmcast_membership::DelegateViewConfig;

use crate::runner::{run_scenario_trial_states, Protocol};
use crate::scenario::{MembershipSpec, Publisher, Scenario, ScenarioBuilder, TopicWorkload};
use crate::sweep::{col, Cell, Point, Sweep};

use super::Profile;

/// Subgroup size of the provider sweeps (`d = 3`): 6³, or Figures 4–7's 22³.
fn provider_arity(profile: Profile) -> u32 {
    match profile {
        Profile::Quick => 6,
        Profile::Paper => 22,
    }
}

/// One point of the membership-provider sweeps: a single event published
/// at `publish_round` by an interested process into an `arity`³ group at
/// matching rate 0.5 under 1% loss; three trials from seed 42.
fn provider_point(arity: u32, membership: MembershipSpec, publish_round: u64) -> ScenarioBuilder {
    let event = Event::builder(1).int("b", 1).build();
    Scenario::builder()
        .group(arity, 3)
        .matching_rate(0.5)
        .loss(0.01)
        .membership(membership)
        .publish_at(publish_round, Publisher::Interested, event)
        .trials(3)
        .seed(42)
}

/// Entries of a delegate table with `slots` delegates per subgroup.
fn delegate_entries(arity: u32, slots: usize) -> usize {
    DelegateViewConfig::default().with_slots(slots).table_entries(arity, 3)
}

/// The providers the churn and fault sweeps compare: the global oracle, the
/// paper's delegate tables (`R = 3`) and same-size flat lpbcast views.
fn providers(arity: u32) -> [(&'static str, MembershipSpec); 3] {
    let flat = MembershipSpec::partial(delegate_entries(arity, 3));
    [("global", MembershipSpec::Global), ("delegate", MembershipSpec::delegate(3)), ("flat", flat)]
}

/// `partial_view_sweep` — reliability vs. membership knowledge: one row
/// per membership bound with pmcast's simulated delivery next to the
/// provider-aware prediction (the gated column) and the two baselines.
pub fn partial_views(sweep: &mut Sweep) {
    let arity = provider_arity(sweep.profile);
    let n = (arity as usize).pow(3);
    let view_sizes: &[usize] = match sweep.profile {
        Profile::Quick => &[8, 16, 32, 64, 128],
        Profile::Paper => &[16, 32, 64, 128, 256, 512],
    };
    // Flat bounded uniform samples, then tree-structured tables of
    // comparable bounds, then the baseline every curve converges towards.
    let flat = |&size| (format!("flat ℓ={size}"), size, MembershipSpec::partial(size));
    let mut axis: Vec<(String, usize, MembershipSpec)> = view_sizes.iter().map(flat).collect();
    for slots in [1, 2, 3] {
        let entries = delegate_entries(arity, slots);
        axis.push((format!("delegate R={slots}"), entries, MembershipSpec::delegate(slots)));
    }
    axis.push(("global".to_string(), n - 1, MembershipSpec::Global));

    sweep.title = format!(
        "reliability vs. membership knowledge — n = {n}, matching rate 0.5, 1% loss, 3 trials \
         (pmcast column: simulated/model-predicted, '-' = out of model domain)"
    );
    for (label, entries, membership) in axis {
        let scenario = provider_point(arity, membership, 0).build();
        let pmcast = Point::run(&scenario, Protocol::Pmcast);
        let delivery = |protocol| Point::run(&scenario, protocol).outcome.delivery_mean;
        let (flood, genuine) = (Protocol::FloodBroadcast, Protocol::GenuineMulticast);
        sweep.row(vec![
            col("membership", "membership", Cell::Text(label)),
            col("n", "", Cell::Int(n as u64)),
            col("entries", "entries", Cell::Int(entries as u64)),
            col("", "ℓ/n", Cell::Float(entries as f64 / n as f64, 3, 3)),
            col("", "pmcast sim/pred", pmcast.pair()),
            col("pmcast", "", Cell::Float(pmcast.outcome.delivery_mean, 4, 3)),
            col("flood", "flood broadcast", Cell::Float(delivery(flood), 4, 3)),
            col("genuine", "genuine multicast", Cell::Float(delivery(genuine), 4, 3)),
            col("predicted", "", pmcast.predicted()),
        ]);
    }
    sweep.footer =
        "(flat = lpbcast-style bounded random views; delegate = the paper's Section 2 per-depth \
         delegate tables, whose bounded views contain pmcast's tree delegates by construction)"
            .to_string();
}

/// `churn_sweep` — reliability vs. graceful-leave churn plus a flash-crowd
/// row: one simulated/predicted pair per provider, each in-domain one gated.
pub fn churn(sweep: &mut Sweep) {
    let arity = provider_arity(sweep.profile);
    let (n, entries) = ((arity as usize).pow(3), delegate_entries(arity, 3));
    // Deterministic schedule: `rate · n` distinct processes spread evenly
    // over the index space, leaving (or joining) at rounds 2..=6.  No
    // randomness — lifecycle events never shift a stream.
    let schedule = |rate: f64| {
        let count = (rate * n as f64).round() as usize;
        (0..count).map(move |i| (2 + (i % 5) as u64, (i * n) / count.max(1)))
    };
    sweep.title = format!(
        "reliability vs. graceful-leave churn — n = {n}, matching rate 0.5, 1% loss, 3 trials \
         (delegate/flat bounded to {entries} entries; sim/pred = simulated vs. model-predicted, \
         '-' = out of model domain)"
    );
    // Shrinking population: graceful leaves after the round-0 publish.
    // Growing population (flash crowd): 10% start absent, join at rounds
    // 2..=6, and the event is published at round 8 — after the crowd is in.
    let leave = |rate| ("leave", rate, false);
    let axis = [leave(0.0), leave(0.05), leave(0.1), leave(0.2), ("flash-crowd", 0.1, true)];
    for (workload, churn, flash) in axis {
        let mut row = vec![
            col("workload", "workload", Cell::Text(workload.to_string())),
            col("n", "", Cell::Int(n as u64)),
            col("churn", "churn", Cell::Axis(churn, 2)),
            col("entries", "", Cell::Int(entries as u64)),
        ];
        for (name, membership) in providers(arity) {
            let base = provider_point(arity, membership, if flash { 8 } else { 0 });
            let scenario = schedule(churn).fold(base, |builder, (round, process)| match flash {
                true => builder.join_at(round, process),
                false => builder.leave_at(round, process),
            });
            row.push(col(name, name, Point::run(&scenario.build(), Protocol::Pmcast).pair()));
        }
        sweep.row(row);
    }
    sweep.footer =
        "(leave: the listed fraction unsubscribes at rounds 2-6, after the round-0 publish, and \
         counts as undelivered; flash-crowd: 10% start absent, join at rounds 2-6, publish at 8)"
            .to_string();
}

/// One fault family of `adversarial_sweep`: label, publish round, shape.
type Family<'a> = (&'static str, u64, &'a dyn Fn(ScenarioBuilder) -> ScenarioBuilder);

/// `adversarial_sweep` — degradation under the fault families: per
/// provider the delivery ratio against the prediction (only the baseline
/// row is inside the model's domain and gated) and the delivery-latency
/// distribution.
pub fn adversarial(sweep: &mut Sweep) {
    let arity = provider_arity(sweep.profile);
    let (n, entries) = ((arity as usize).pow(3), delegate_entries(arity, 3));
    // ~1% of the group straggles, spread evenly over the index space, each
    // sending only every 3rd round.  Deterministic — fault
    // schedules never consume randomness.
    let straggle = |builder: ScenarioBuilder| {
        let count = (n / 100).max(1);
        (0..count).fold(builder, |builder, i| builder.straggler((i * n) / count, 3))
    };
    // Every family publishes one event; round 0 is the paper's shape, the
    // partition-heal and combined rows publish after the outage instead.
    let families: [Family; 7] = [
        ("baseline", 0, &|b| b),
        ("delay", 0, &|b| b.link_delay(0, 2)),
        ("partition", 0, &|b| b.partition(0, 6, 2)),
        ("partition-heal", 8, &|b| b.partition(0, 6, 2)),
        ("subtree-loss", 0, &|b| b.subtree_loss(&[0], 0.25)),
        ("straggler", 0, &straggle),
        ("combined", 8, &|b| straggle(b.link_delay(0, 1).partition(0, 6, 2))),
    ];
    sweep.title = format!(
        "pmcast degradation under adversarial faults — n = {n}, matching rate 0.5, 1% loss, \
         0.1% crashes, 3 trials (delegate/flat bounded to {entries} entries)"
    );
    for (label, publish_round, shape) in families {
        let mut row = vec![
            col("workload", "fault", Cell::Text(label.to_string())),
            col("n", "", Cell::Int(n as u64)),
            col("publish_round", "", Cell::Int(publish_round)),
            col("entries", "", Cell::Int(entries as u64)),
        ];
        for (name, membership) in providers(arity) {
            let base = provider_point(arity, membership, publish_round).crash_fraction(0.001);
            let point = Point::run(&shape(base).build(), Protocol::Pmcast);
            // One latency distribution per provider: the per-trial
            // histograms merged (same event shape across trials).
            let mut latency = point.trials[0].latency[0].clone();
            for trial in &point.trials[1..] {
                latency.merge(&trial.latency[0]);
            }
            let (mean, p99) = (latency.mean(), latency.quantile(0.99));
            row.extend([
                col(name, name, point.pair()),
                col(&format!("{name}_lat_mean"), &format!("{name} lat"), Cell::Float(mean, 3, 2)),
                col(&format!("{name}_lat_p99"), &format!("{name} p99"), Cell::Int(p99)),
                col(&format!("{name}_latency"), "", Cell::List(latency.counts)),
            ]);
        }
        sweep.row(row);
    }
    sweep.footer =
        "(lat = mean rounds from publish to delivery, p99 = its 99th percentile; partition rows \
         split the group in two cells for rounds 0-5, healed at round 6; partition-heal and \
         combined publish at round 8, after the heal, so they measure provider recovery)"
            .to_string();
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0.0 when
/// `/proc/self/status` is unavailable (non-Linux hosts).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let peak = status.lines().find(|line| line.starts_with("VmHWM:"));
    let kb = peak.and_then(|line| line.split_whitespace().nth(1)?.parse::<f64>().ok());
    kb.map_or(0.0, |kb| kb / 1024.0)
}

/// `scale_sweep` — seconds per trial from n = 512 to n ≈ 1.05 million: one
/// row per group size and provider, trials run sequentially so
/// `seconds_per_trial` is a single-core cost; every row is gated.
pub fn scale(sweep: &mut Sweep) {
    // (arity, depth, trials), in increasing size so each row's peak RSS
    // bounds its own working set.
    let sizes: &[(u32, usize, usize)] = match sweep.profile {
        Profile::Quick => &[(8, 3, 3)],
        Profile::Paper => &[(8, 3, 3), (22, 3, 3), (32, 4, 1)],
    };
    sweep.title = "pmcast seconds-per-trial vs. group size — matching rate 0.5, 1% loss, \
                         one publication, single core"
        .to_string();
    for &(arity, depth, trials) in sizes {
        let n = (arity as usize).pow(depth as u32);
        for (provider, membership) in
            [("global", MembershipSpec::Global), ("delegate", MembershipSpec::delegate(3))]
        {
            let point = provider_point(arity, membership, 0).group(arity, depth).trials(trials);
            let scenario = point.build();
            let started = Instant::now();
            let outcomes = scenario.run(Protocol::Pmcast);
            let seconds = started.elapsed().as_secs_f64() / trials as f64;
            let point = Point::of(&scenario, outcomes);
            sweep.row(vec![
                col("n", "n", Cell::Int(n as u64)),
                col("", "a^d", Cell::Text(format!("{arity}^{depth}"))),
                col("arity", "", Cell::Int(arity.into())),
                col("depth", "", Cell::Int(depth as u64)),
                col("provider", "provider", Cell::Text(provider.to_string())),
                col("seconds_per_trial", "s/trial", Cell::Float(seconds, 3, 3)),
                col("delivery_ratio", "delivered", Cell::Float(point.outcome.delivery_mean, 4, 3)),
                col("rounds", "rounds", Cell::Float(point.outcome.rounds_mean, 1, 1)),
                col("peak_rss_mb", "peakMB", Cell::Float(peak_rss_mb(), 1, 0)),
                col("trials", "", Cell::Int(trials as u64)),
                col("predicted", "predicted", point.predicted()),
            ]);
        }
    }
    sweep.footer =
        "(s/trial includes group construction and the full dissemination to quiescence)"
            .to_string();
}

/// `topic_sweep` — heavy multi-topic traffic: one row per routing arm,
/// plus the hashcons counters of a genuine-multicast run over the same
/// schedule.  Multi-topic traffic is outside the single-audience model, so
/// the sweep declares no model column.
pub fn topics(sweep: &mut Sweep) {
    // 4^3 = 64 processes; every process subscribes to 3 topics.  The paper
    // profile is the acceptance workload (10k events over 50 overlapping
    // topics); quick keeps the same shape at smoke-test volume.
    let (topics, events, publish_rounds) = match sweep.profile {
        Profile::Quick => (12, 300, 30),
        Profile::Paper => (50, 10_000, 250),
    };
    let workload = TopicWorkload::new(topics, 3, events).with_publish_rounds(publish_rounds);
    let scenario_with = |routing: InterestRouting, membership: MembershipSpec| {
        Scenario::builder()
            .group(4, 3)
            .topics(workload.clone())
            .membership(membership)
            .protocol(PmcastConfig::default().with_interest_routing(routing))
            .trials(1)
            .seed(42)
            .build()
    };
    sweep.title = format!(
        "pmcast multi-topic throughput — n = 64, {topics} topics, {events} events \
         over {publish_rounds} rounds, {} subscriptions/process, Zipf {:.1}, loss-free",
        workload.subscriptions_per_process,
        TopicWorkload::ZIPF_EXPONENT
    );
    let arms = [
        ("oracle", InterestRouting::Oracle),
        ("summary", InterestRouting::Summary),
        ("blind", InterestRouting::Blind),
    ];
    for (name, routing) in arms {
        // The delegate hierarchy carries the subtree summaries the summary
        // arm consults; the other arms run on the same provider so the
        // only variable is the routing mode.
        let scenario = scenario_with(routing, MembershipSpec::delegate(4));
        let started = Instant::now();
        let trials = scenario.run(Protocol::Pmcast);
        let seconds = started.elapsed().as_secs_f64();
        let outcome = Point::of(&scenario, trials).outcome;
        sweep.row(vec![
            col("routing", "routing", Cell::Text(name.to_string())),
            col("events_per_sec", "events/s", Cell::Float(events as f64 / seconds, 0, 0)),
            col("reliability", "delivered", Cell::Float(outcome.delivery_mean, 4, 4)),
            col("spurious_ratio", "spurious", Cell::Float(outcome.spurious_mean, 4, 4)),
            col("messages", "messages", Cell::Int(outcome.messages_mean as u64)),
        ]);
    }

    // Hashcons effectiveness: the genuine baseline registers every event's
    // audience in its shared directory; keyed by topic index, the stream
    // builds one audience per *distinct* audience.  (Global membership: the
    // sharp-contract reference arm.)
    let genuine = scenario_with(InterestRouting::Oracle, MembershipSpec::Global);
    let (_, states) = run_scenario_trial_states::<GenuineFactory>(&genuine, 0);
    let stats = states[0].directory_stats();
    let requested = stats.hits + stats.misses;
    let reduction = requested as f64 / stats.misses.max(1) as f64;
    let hashcons = vec![
        col("requested", "", Cell::Int(requested)),
        col("built", "", Cell::Int(stats.misses)),
        col("hit_rate", "", Cell::Float(stats.hit_rate(), 4, 4)),
        col("alloc_reduction", "", Cell::Float(reduction, 1, 1)),
    ];
    sweep.envelope = vec![
        col("n", "", Cell::Int(64)),
        col("topics", "", Cell::Int(topics as u64)),
        col(
            "subscriptions_per_process",
            "",
            Cell::Int(workload.subscriptions_per_process as u64),
        ),
        col("events", "", Cell::Int(events as u64)),
        col("publish_rounds", "", Cell::Int(publish_rounds)),
        col("zipf_exponent", "", Cell::Float(TopicWorkload::ZIPF_EXPONENT, 1, 1)),
        col("hashcons", "", Cell::Record(hashcons)),
    ];
    sweep.footer = format!(
        "audience hashcons (genuine directory over the same {events}-event stream): \
         {requested} audience requests -> {} built ({:.1}% hits, {reduction:.0}x fewer \
         allocations)\n(summary = aggregated interest routing through the delegate hierarchy's \
         subtree summaries, skipping provably-uninterested subtrees before the draw; blind = \
         aggregation off)",
        stats.misses,
        stats.hit_rate() * 100.0
    );
}
