//! Net-vs-sim conformance: the async runtime (`pmcast-net`) replays
//! `pmcast-sim` scenario trials and must agree with the round-synchronous
//! simulator — **the simulator is the oracle** (its seed contract is
//! frozen by golden tests; the runtime is the thing under test).
//!
//! The matrix is all three protocols × all three membership providers on
//! the 4-ary depth-2 conformance group (n = 16, as in
//! `tests/protocol_contract.rs`), plus a multi-topic row (n = 64, delegate
//! tables) over pmcast's three routing arms.  Three agreement levels:
//!
//! 1. **Loss-free**: per-process delivered event *sets* are bit-identical
//!    between the engines.  The runtime's gossip paths differ (private RNG
//!    streams), but with no loss both must reach exactly the interested
//!    processes.
//! 2. **Lossy**: per-trial outcomes legitimately differ (different loss
//!    streams), so mean delivery rates over a handful of trials must agree
//!    within the stated tolerance of 0.05.
//! 3. **Determinism**: the same `(scenario, trial)` through the runtime
//!    twice is bit-identical — seeded task/timer ordering, per the
//!    per-trial seed contract.

use pmcast::net::run_net_scenario_trial;
use pmcast::sim::runner::run_scenario_trial_states;
use pmcast::{
    Event, EventId, FloodFactory, GenuineFactory, InterestRouting, MembershipSpec,
    MulticastProtocol, PmcastConfig, PmcastFactory, ProtocolFactory, Publisher, Scenario,
    ScenarioBuilder, TopicWorkload,
};

/// Mean-delivery-rate tolerance between the engines under loss.
const LOSSY_TOLERANCE: f64 = 0.05;

/// The conformance group: 4-ary, depth 2 — 16 processes.
fn conformance_scenario(membership: MembershipSpec) -> ScenarioBuilder {
    Scenario::builder()
        .group(4, 2)
        .matching_rate(0.5)
        .membership(membership)
        .publish(Publisher::Interested, Event::builder(1).int("b", 1).build())
        .publish_at(1, Publisher::Process(3), Event::builder(2).int("b", 2).build())
        .seed(9)
}

/// The provider axis of the matrix (mirrors `tests/protocol_contract.rs`:
/// global knowledge, a full-knowledge partial view, full-knowledge
/// delegate tables).
fn providers() -> [MembershipSpec; 3] {
    [
        MembershipSpec::Global,
        MembershipSpec::partial(15),
        MembershipSpec::delegate(4),
    ]
}

/// Loss-free agreement for one factory: the delivered set of every event
/// at every process matches the simulator bit for bit.
fn assert_lossfree_sets_identical<F: ProtocolFactory>(name: &str)
where
    F::Process: 'static,
{
    for membership in providers() {
        let scenario = conformance_scenario(membership).build();
        let (sim_outcome, sim_states) = run_scenario_trial_states::<F>(&scenario, 0);
        let net_outcome = run_net_scenario_trial::<F>(&scenario, 0);
        let events: Vec<Event> = scenario
            .publications
            .iter()
            .map(|p| p.event.clone())
            .collect();
        assert_eq!(net_outcome.reports.len(), sim_states.len(), "{name}/{membership:?}");
        for (index, (net, sim)) in net_outcome
            .reports
            .iter()
            .map(|r| &r.state)
            .zip(sim_states.iter())
            .enumerate()
        {
            for event in &events {
                assert_eq!(
                    net.has_delivered(event.id()),
                    sim.has_delivered(event.id()),
                    "{name}/{membership:?}: delivered({}) diverges at process {index}",
                    event.id(),
                );
            }
        }
        // Per-event reports therefore agree too — check the merged one as
        // a belt-and-braces summary.
        assert_eq!(
            net_outcome.report.delivery_ratio(),
            sim_outcome.report.delivery_ratio(),
            "{name}/{membership:?}"
        );
    }
}

#[test]
fn lossfree_delivered_sets_are_bit_identical_across_engines() {
    assert_lossfree_sets_identical::<PmcastFactory>("pmcast");
    assert_lossfree_sets_identical::<FloodFactory>("flood-broadcast");
    assert_lossfree_sets_identical::<GenuineFactory>("genuine-multicast");
}

/// Lossy agreement for one factory: mean delivery rates within tolerance.
fn assert_lossy_rates_agree<F: ProtocolFactory>(name: &str)
where
    F::Process: 'static,
{
    const TRIALS: usize = 4;
    for membership in providers() {
        let scenario = conformance_scenario(membership).loss(0.05).build();
        let mut sim_mean = 0.0;
        let mut net_mean = 0.0;
        for trial in 0..TRIALS {
            let (sim_outcome, _) = run_scenario_trial_states::<F>(&scenario, trial);
            let net_outcome = run_net_scenario_trial::<F>(&scenario, trial);
            sim_mean += sim_outcome.report.delivery_ratio();
            net_mean += net_outcome.report.delivery_ratio();
        }
        sim_mean /= TRIALS as f64;
        net_mean /= TRIALS as f64;
        assert!(
            (sim_mean - net_mean).abs() <= LOSSY_TOLERANCE,
            "{name}/{membership:?}: net mean delivery {net_mean:.3} strays more than \
             {LOSSY_TOLERANCE} from the simulator's {sim_mean:.3}"
        );
    }
}

#[test]
fn lossy_delivery_rates_agree_within_tolerance() {
    assert_lossy_rates_agree::<PmcastFactory>("pmcast");
    assert_lossy_rates_agree::<FloodFactory>("flood-broadcast");
    assert_lossy_rates_agree::<GenuineFactory>("genuine-multicast");
}

#[test]
fn net_runtime_is_deterministic_per_trial_seed() {
    // Lossy + partial views: the most stream-hungry configuration.  Two
    // runs of the same trial must agree on everything observable.
    let scenario = conformance_scenario(MembershipSpec::partial(15))
        .loss(0.1)
        .build();
    let first = run_net_scenario_trial::<PmcastFactory>(&scenario, 2);
    let second = run_net_scenario_trial::<PmcastFactory>(&scenario, 2);
    assert_eq!(first.report, second.report);
    assert_eq!(first.per_event, second.per_event);
    assert_eq!(first.rounds, second.rounds);
    assert_eq!(first.transport.frames_sent, second.transport.frames_sent);
    assert_eq!(first.transport.frames_lost, second.transport.frames_lost);
    for (a, b) in first.reports.iter().zip(second.reports.iter()) {
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.crashed, b.crashed);
    }
}

#[test]
fn topic_workloads_agree_across_engines_on_every_routing_arm() {
    // 4³ processes, 40 events over 6 topics and 8 rounds, delegate tables:
    // the runtime runs the simulator's own topic oracle, schedule and
    // summaries, so loss-free it reaches the simulator's share of the
    // audience without a mailbox overflowing — and does so reproducibly.
    for routing in [InterestRouting::Oracle, InterestRouting::Summary, InterestRouting::Blind] {
        let scenario = Scenario::builder()
            .group(4, 3)
            .membership(MembershipSpec::delegate(4))
            .topics(TopicWorkload::new(6, 2, 40).with_publish_rounds(8))
            .protocol(PmcastConfig::default().with_interest_routing(routing))
            .seed(9)
            .build();
        let (sim, _) = run_scenario_trial_states::<PmcastFactory>(&scenario, 0);
        let net = run_net_scenario_trial::<PmcastFactory>(&scenario, 0);
        assert_eq!(net.per_event.len(), sim.per_event.len(), "{routing:?}");
        assert_eq!(net.report.delivery_ratio(), sim.report.delivery_ratio(), "{routing:?}");
        assert_eq!(net.transport.frames_dropped, 0, "{routing:?}");
        let again = run_net_scenario_trial::<PmcastFactory>(&scenario, 0);
        assert_eq!(net.report, again.report, "{routing:?}");
        assert_eq!(net.per_event, again.per_event, "{routing:?}");
        assert_eq!(net.rounds, again.rounds, "{routing:?}");
        assert_eq!(net.transport.frames_sent, again.transport.frames_sent, "{routing:?}");
    }
}

#[test]
fn net_runtime_crashes_processes_mid_stream_like_the_simulator() {
    // A crash schedule through the conformance runner: the crashed process
    // must be flagged, and dissemination must still reach the surviving
    // audience (flooding, loss-free: everyone else delivers).
    let scenario = Scenario::builder()
        .group(4, 2)
        .matching_rate(1.0)
        .publish(Publisher::Process(0), Event::builder(7).int("b", 1).build())
        .crash_at(2, 5)
        .seed(11)
        .build();
    let outcome = run_net_scenario_trial::<FloodFactory>(&scenario, 0);
    assert!(outcome.reports[5].crashed, "the scheduled crash must land");
    assert_eq!(
        outcome.reports.iter().filter(|r| r.crashed).count(),
        1,
        "exactly one process crashes"
    );
    let event_id = scenario.publications[0].event.id();
    for (index, report) in outcome.reports.iter().enumerate() {
        if !report.crashed {
            assert!(
                report.state.has_delivered(event_id),
                "live process {index} must still deliver after the crash"
            );
        }
    }
}

#[test]
fn a_publisher_crashing_in_its_publish_round_delivers_alike_on_both_engines() {
    // Both engines take a round's publications before its crashes: the
    // publisher delivers its own event and then goes down without a gossip
    // round, so loss-free the delivered sets are exactly {3}.
    for round in [0, 2] {
        for membership in [MembershipSpec::Global, MembershipSpec::delegate(4)] {
            let scenario = Scenario::builder()
                .group(4, 2)
                .matching_rate(1.0)
                .membership(membership)
                .publish_at(round, Publisher::Process(3), Event::builder(5).int("b", 1).build())
                .crash_at(round, 3)
                .seed(13)
                .build();
            let id = scenario.publications[0].event.id();
            let flood = delivered_sets::<FloodFactory>(&scenario, id);
            let pmcast = delivered_sets::<PmcastFactory>(&scenario, id);
            for (name, (sim, net)) in [("flood", flood), ("pmcast", pmcast)] {
                assert_eq!(net, sim, "{name}/{membership:?}, round {round}");
                assert_eq!(sim, [3], "{name}/{membership:?}, round {round}");
            }
        }
    }
}

/// The processes that delivered `id`, on the simulator and on the runtime.
fn delivered_sets<F: ProtocolFactory>(scenario: &Scenario, id: EventId) -> (Vec<usize>, Vec<usize>)
where
    F::Process: 'static,
{
    let (_, sim) = run_scenario_trial_states::<F>(scenario, 0);
    let net = run_net_scenario_trial::<F>(scenario, 0).reports;
    let sim = sim.iter().map(|state| state.has_delivered(id));
    let net = net.iter().map(|report| report.state.has_delivered(id));
    (delivered_at(sim), delivered_at(net))
}

fn delivered_at(delivered: impl Iterator<Item = bool>) -> Vec<usize> {
    delivered.enumerate().filter_map(|(at, delivered)| delivered.then_some(at)).collect()
}
