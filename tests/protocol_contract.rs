//! Generic conformance suite for the [`MulticastProtocol`] /
//! [`ProtocolFactory`] contract, instantiated for all three protocols
//! **under every membership provider** ([`GlobalOracleView`],
//! [`PartialView`] and the hierarchical [`DelegateView`]).
//!
//! Every protocol behind the trait must uphold the same observable
//! contract, checked by one generic function per property:
//!
//! * publish-then-quiescence delivers to every interested non-crashed
//!   process on a loss-free network;
//! * duplicate receipt of the same event is deduplicated (publishing the
//!   same event twice is bit-identical to publishing it once);
//! * no process ever *delivers* an event it is not interested in, and the
//!   interest-aware protocols (pmcast, genuine multicast) keep spurious
//!   *reception* within their guarantees;
//! * the group is built in dense-identifier order, with trait addresses
//!   matching the topology's member order.
//!
//! The partial-view and delegate-view instantiations run the contract with
//! full-knowledge bounds (every peer discoverable), which must preserve the
//! exact guarantees; smaller views trade delivery for knowledge — that
//! regime is covered by the scenario-level tests at the bottom and by
//! `examples/partial_view_sweep.rs`.  A scenario-level lifecycle test runs
//! the three-protocol × three-provider matrix under a **mixed
//! join/leave/crash schedule** (including joins into a subgroup that
//! starts empty), and an adversarial sibling runs the same matrix under
//! **combined per-link delay, a healing partition and a straggler** (plus
//! a golden asserting that declaring every fault axis with its neutral
//! value stays bit-identical to declaring none).  Three deterministic
//! proptests assert the membership
//! layer's own invariants: a [`PartialView`] under the default churn-free
//! scenario converges to (and never leaves) a connected overlay with every
//! live process reachable, and a [`DelegateView`] under crash/unsubscribe
//! churn — bootstrapped over the full tree *or* a sparse population —
//! re-elects delegates so that every occupied subtree keeps at least one
//! live seated delegate.

use std::collections::VecDeque;
use std::sync::Arc;

use pmcast::simnet::{CrashPlan, FanoutScratch, RoundContext, RoundProcess};
use pmcast::{
    Address, AddressSpace, AssignmentOracle, DelegateView, DelegateViewConfig, Event, EventId,
    FloodFactory, GenuineFactory, GlobalOracleView, Gossip, ImplicitRegularTree, InterestOracle,
    InterestRouting, MembershipSpec, MembershipView, MulticastProtocol, NetworkConfig,
    PartialView, PartialViewConfig, PmcastConfig, PmcastFactory, Prefix, ProcessId, Protocol,
    ProtocolFactory, Publisher, Scenario, Simulation, TopicOracle, TopicWorkload, TreeTopology,
    TOPIC_ATTRIBUTE,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const GROUP: usize = 16;

/// The membership providers the conformance suite is instantiated with.
#[derive(Clone, Copy, Debug)]
enum Provider {
    Global,
    /// A bounded gossip view large enough to have discovered every peer:
    /// the partial-view machinery with the same knowledge guarantees.
    PartialFull,
    /// The hierarchical delegate-table machinery with enough slots per
    /// subgroup (`slots = a`) to seat every subgroup member: full knowledge
    /// through the Section 2 view-table structure.
    DelegateFull,
}

impl Provider {
    fn view(self, n: usize) -> Arc<dyn MembershipView> {
        match self {
            Provider::Global => Arc::new(GlobalOracleView::new(n)),
            Provider::PartialFull => Arc::new(PartialView::bootstrap(
                n,
                PartialViewConfig::default().with_view_size(n - 1),
                71,
            )),
            // The conformance topology is the regular 4-ary depth-2 tree.
            Provider::DelegateFull => Arc::new(DelegateView::bootstrap(
                4,
                2,
                DelegateViewConfig::default().with_slots(4),
                71,
            )),
        }
    }
}

const PROVIDERS: [Provider; 3] = [
    Provider::Global,
    Provider::PartialFull,
    Provider::DelegateFull,
];

fn topology() -> ImplicitRegularTree {
    ImplicitRegularTree::new(AddressSpace::regular(2, 4).expect("valid shape"))
}

/// Subtrees 0 and 1 are interested: 8 of 16 processes, publisher 0.0 among
/// them.
fn half_interested_oracle() -> Arc<AssignmentOracle> {
    let interested: Vec<Address> = (0..2u32)
        .flat_map(|hi| (0..4u32).map(move |lo| Address::from(vec![hi, lo])))
        .collect();
    Arc::new(AssignmentOracle::new(topology().space().clone(), interested))
}

/// A process's index in the oracle's space, read off the address the
/// topology gave it: what the interest checks ask about.
fn topology_index<P: MulticastProtocol>(process: &P) -> u128 {
    topology().space().index_of_address(process.address()).expect("a member's address")
}

/// Builds a group, publishes `copies` clones of one shared event from
/// process 0, runs to quiescence and returns the final states plus the
/// message count.
fn publish_and_run<F: ProtocolFactory>(
    provider: Provider,
    copies: usize,
) -> (Vec<F::Process>, Event, u64) {
    let topology = topology();
    let oracle = half_interested_oracle();
    let group = F::build(&topology, oracle, provider.view(GROUP), &PmcastConfig::default());
    assert_eq!(group.processes.len(), GROUP);
    let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(71));
    let event = Event::builder(40).int("b", 2).build();
    let shared = Arc::new(event.clone());
    for _ in 0..copies {
        sim.process_mut(ProcessId(0)).publish(Arc::clone(&shared));
    }
    sim.run_until_quiescent(300);
    let messages = sim.stats().messages_sent;
    (sim.into_processes(), event, messages)
}

fn assert_delivers_to_every_interested_process<F: ProtocolFactory>(
    name: &str,
    provider: Provider,
) {
    let oracle = half_interested_oracle();
    let (processes, event, _) = publish_and_run::<F>(provider, 1);
    for process in &processes {
        if oracle.is_interested(topology_index(process), &event) {
            assert!(
                process.has_delivered(event.id()),
                "{name}/{provider:?}: {} is interested but did not deliver",
                process.address()
            );
            assert!(
                process.has_received(event.id()),
                "{name}/{provider:?}: delivered implies received"
            );
        }
    }
}

fn assert_duplicate_publish_is_deduplicated<F: ProtocolFactory>(name: &str, provider: Provider) {
    let (once, event, messages_once) = publish_and_run::<F>(provider, 1);
    let (twice, _, messages_twice) = publish_and_run::<F>(provider, 2);
    assert_eq!(
        messages_once, messages_twice,
        "{name}/{provider:?}: a duplicate publish must be ignored, not re-gossiped"
    );
    for (a, b) in once.iter().zip(twice.iter()) {
        assert_eq!(
            a.has_delivered(event.id()),
            b.has_delivered(event.id()),
            "{name}/{provider:?}: duplicate publish changed delivery at {}",
            a.address()
        );
    }
}

fn assert_no_delivery_without_interest<F: ProtocolFactory>(
    name: &str,
    provider: Provider,
    never_receives_uninterested: bool,
) {
    let oracle = half_interested_oracle();
    let (processes, event, _) = publish_and_run::<F>(provider, 1);
    for process in &processes {
        if !oracle.is_interested(topology_index(process), &event) {
            assert!(
                !process.has_delivered(event.id()),
                "{name}/{provider:?}: {} delivered without interest",
                process.address()
            );
            if never_receives_uninterested {
                assert!(
                    !process.has_received(event.id()),
                    "{name}/{provider:?}: {} received the event despite the protocol's \
                     no-spurious-reception guarantee",
                    process.address()
                );
            }
        }
    }
}

fn assert_group_order_matches_topology<F: ProtocolFactory>(name: &str, provider: Provider) {
    let topology = topology();
    let group = F::build(
        &topology,
        half_interested_oracle(),
        provider.view(GROUP),
        &PmcastConfig::default(),
    );
    let members = topology.members();
    assert_eq!(group.addresses, members, "{name}/{provider:?}");
    for (process, address) in group.processes.iter().zip(members.iter()) {
        assert_eq!(process.address(), address, "{name}/{provider:?}");
        let index = topology.space().index_of_address(address).unwrap();
        assert_eq!(process.space_index(), index, "{name}/{provider:?}: {address}");
    }
}

/// The whole contract for one protocol, under every membership provider.
fn assert_contract<F: ProtocolFactory>(name: &str, never_receives_uninterested: bool) {
    for provider in PROVIDERS {
        assert_delivers_to_every_interested_process::<F>(name, provider);
        assert_duplicate_publish_is_deduplicated::<F>(name, provider);
        assert_no_delivery_without_interest::<F>(name, provider, never_receives_uninterested);
        assert_group_order_matches_topology::<F>(name, provider);
    }
}

#[test]
fn pmcast_satisfies_the_multicast_contract() {
    // pmcast is interest-aware but delegates of interested subtrees may
    // receive events they do not deliver, so spurious reception is allowed
    // (bounded — that is Figure 5's subject, not this contract's).
    assert_contract::<PmcastFactory>("pmcast", false);
}

#[test]
fn flood_broadcast_satisfies_the_multicast_contract() {
    // Flooding is interest-oblivious: uninterested processes receive (and
    // forward) events, they just never deliver them.
    assert_contract::<FloodFactory>("flood-broadcast", false);
}

#[test]
fn genuine_multicast_satisfies_the_multicast_contract() {
    // Genuine multicast never even contacts uninterested processes.
    assert_contract::<GenuineFactory>("genuine-multicast", true);
}

/// The network half of the message identity after every step of the
/// contract's publish-from-process-0 trial:
/// `sent = delivered + lost + to_crashed + from_crashed + partitioned + in
/// flight`.  Returns the messages in flight when `max_rounds` ends the run.
fn assert_every_message_is_accounted_for<F: ProtocolFactory>(
    row: &str,
    provider: Provider,
    network: NetworkConfig,
    max_rounds: u64,
) -> (u64, u64) {
    let group = F::build(
        &topology(),
        half_interested_oracle(),
        provider.view(GROUP),
        &PmcastConfig::default(),
    );
    let mut sim = Simulation::new(group.processes, network);
    let event = Arc::new(Event::builder(40).int("b", 2).build());
    sim.process_mut(ProcessId(0)).publish(event);
    for round in 0..max_rounds {
        sim.step();
        let stats = sim.stats();
        let settled = stats.messages_delivered
            + stats.messages_lost
            + stats.messages_to_crashed
            + stats.messages_from_crashed
            + stats.messages_partitioned;
        assert_eq!(
            stats.messages_sent,
            settled + sim.messages_in_flight(),
            "{row}/{provider:?} after round {round}: {stats:?}"
        );
        // A repeat the engine's receipt screen keeps from its receiver was
        // delivered all the same.
        assert!(
            sim.screened_repeats() <= stats.messages_delivered,
            "{row}/{provider:?} after round {round}: {} screened, {stats:?}",
            sim.screened_repeats()
        );
        if sim.is_quiescent() {
            break;
        }
    }
    (sim.messages_in_flight(), sim.screened_repeats())
}

#[test]
fn every_sent_message_is_delivered_dropped_or_in_flight() {
    fn rows<F: ProtocolFactory>(name: &str) {
        // A lossy row with every cause: ε, a lossy subtree, a crash, a
        // partition, jittered link delays and a straggler, cut short while
        // messages sit in the wheel.
        let faults = Scenario::builder()
            .group(4, 2)
            .link_delay(1, 3)
            .partition(0, 3, 2)
            .subtree_loss(&[1], 0.3)
            .straggler(3, 2)
            .build()
            .fault_plan();
        let lossy = NetworkConfig {
            loss_probability: 0.1,
            crash_plan: CrashPlan::Scheduled(vec![(2, 5)]),
            fault_plan: faults,
            seed: 71,
        };
        for provider in PROVIDERS {
            let (settled, screened) = assert_every_message_is_accounted_for::<F>(
                name,
                provider,
                NetworkConfig::reliable(71),
                300,
            );
            assert_eq!(settled, 0, "{name}/{provider:?}: quiescent with messages in flight");
            assert!(screened > 0, "{name}/{provider:?}: no repeat reached the receipt screen");
            let (cut, _) =
                assert_every_message_is_accounted_for::<F>(name, provider, lossy.clone(), 3);
            assert!(cut > 0, "{name}/{provider:?}: the cut row left nothing in flight");
        }
    }
    rows::<PmcastFactory>("pmcast");
    rows::<FloodFactory>("flood-broadcast");
    rows::<GenuineFactory>("genuine-multicast");
}

#[test]
fn retirement_at_one_process_is_invisible_to_every_other() {
    // `retire_below(floor)` on process A has no observable effect on any
    // process B: a first receipt at B of an event below the floor is
    // delivered iff B is interested and forwarded exactly as without the
    // retirement (invariant 10: retirement may suppress duplicates, never
    // dissemination).  The processes are driven by hand so that A can go
    // quiescent — and retire — before anybody else has seen the event.
    type Sends = Vec<(ProcessId, Gossip)>;

    /// Runs one callback of process `id` outside a simulation and returns
    /// what it sent.
    fn drive(id: usize, seed: u64, call: impl FnOnce(&mut RoundContext<'_, Gossip>)) -> Sends {
        let mut outbox = Vec::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut scratch = FanoutScratch::default();
        call(&mut RoundContext::external(ProcessId(id), 0, &mut outbox, &mut rng, &mut scratch));
        outbox
    }

    /// What the receivers of A's gossip deliver and send in their own first
    /// round, with A having retired the event in between or not.
    fn first_receipts<F: ProtocolFactory>(provider: Provider, retire: bool) -> Vec<(usize, bool, Sends)> {
        let mut processes = F::build(
            &topology(),
            half_interested_oracle(),
            provider.view(GROUP),
            &PmcastConfig::default(),
        )
        .processes;
        let event = Event::builder(41).int("b", 3).build();
        processes[0].publish(Arc::new(event.clone()));
        // A runs out its budgets alone; everything it sends stays in
        // flight until it has gone quiescent (and retired).
        let mut in_flight = Sends::new();
        while !processes[0].is_quiescent() {
            let seed = 5 + in_flight.len() as u64;
            in_flight.extend(drive(0, seed, |ctx| processes[0].on_round(ctx)));
        }
        if retire {
            let before = processes[0].dedup_len();
            processes[0].retire_below(EventId(event.id().0 + 1));
            assert!(processes[0].dedup_len() < before, "the retirement must be real");
        }
        let mut receivers = Vec::new();
        for (ProcessId(b), gossip) in in_flight {
            drive(b, 7, |ctx| processes[b].on_message(gossip, ctx));
            if !receivers.contains(&b) {
                receivers.push(b);
            }
        }
        assert!(!receivers.is_empty(), "A's gossip reaches somebody");
        receivers
            .into_iter()
            .map(|b| {
                let delivered = processes[b].has_delivered(event.id());
                (b, delivered, drive(b, 8, |ctx| processes[b].on_round(ctx)))
            })
            .collect()
    }

    fn check<F: ProtocolFactory>(name: &str, provider: Provider) {
        let oracle = half_interested_oracle();
        let event = Event::builder(41).int("b", 3).build();
        let undisturbed = first_receipts::<F>(provider, false);
        let retired = first_receipts::<F>(provider, true);
        assert_eq!(undisturbed, retired, "{name}/{provider:?}");
        for (b, delivered, sends) in &retired {
            let address = &topology().members()[*b];
            assert_eq!(
                *delivered,
                oracle.is_interested(topology().space().index_of_address(address).unwrap(), &event),
                "{name}/{provider:?}: {address}"
            );
            assert!(!sends.is_empty(), "{name}/{provider:?}: {address} must forward");
        }
    }
    for provider in PROVIDERS {
        check::<PmcastFactory>("pmcast", provider);
        check::<FloodFactory>("flood-broadcast", provider);
        check::<GenuineFactory>("genuine-multicast", provider);
    }
}

#[test]
fn small_partial_views_still_disseminate_through_the_scenario_engine() {
    // The genuinely partial regime: 216 processes that each know at most 12
    // peers, membership gossip running alongside the dissemination.  The
    // guarantees soften (that is the research point), but the flooding
    // broadcast — lpbcast's own shape — must still reach the vast majority
    // of its audience, and the run must stay deterministic in parallel.
    let scenario = Scenario::builder()
        .group(6, 3)
        .matching_rate(0.5)
        .membership(MembershipSpec::partial(12))
        .publish(Publisher::Interested, Event::builder(1).int("b", 1).build())
        .trials(2)
        .seed(3)
        .build();
    // Partial knowledge costs the protocols differently — which is the
    // research point.  Flooding (lpbcast's own shape: gossip to your view)
    // barely notices; the genuine baseline loses the audience members it
    // does not know; pmcast suffers most because its tree delegates are
    // mostly outside a 12-peer view until gossip discovers them.
    let floor = [
        (Protocol::Pmcast, 0.1),
        (Protocol::FloodBroadcast, 0.9),
        (Protocol::GenuineMulticast, 0.3),
    ];
    let delivery_mean = |outcomes: &[pmcast::TrialOutcome]| -> f64 {
        outcomes.iter().map(|o| o.report.delivery_ratio()).sum::<f64>() / outcomes.len() as f64
    };
    let mut narrow_pmcast_mean = 0.0;
    for (protocol, floor) in floor {
        let outcomes = scenario.run(protocol);
        for outcome in &outcomes {
            assert!(outcome.messages_sent > 0, "{protocol:?}");
            assert!(
                outcome.report.delivery_ratio() > floor,
                "{protocol:?} collapsed under partial views: {:?}",
                outcome.report
            );
        }
        if protocol == Protocol::Pmcast {
            narrow_pmcast_mean = delivery_mean(&outcomes);
        }
        if protocol == Protocol::FloodBroadcast {
            // Flooding over a 12-peer view behaves like lpbcast: near-total
            // delivery.
            assert!(
                outcomes[0].report.delivery_ratio() > 0.95,
                "{:?}",
                outcomes[0].report
            );
        }
        assert_eq!(
            outcomes,
            scenario.run_parallel(protocol),
            "{protocol:?}: partial-view trials must stay deterministic in parallel"
        );
    }
    // Widening the views restores pmcast's reliability — the
    // reliability-vs-view-size curve of examples/partial_view_sweep.rs.
    let wide = Scenario::builder()
        .group(6, 3)
        .matching_rate(0.5)
        .membership(MembershipSpec::partial(128))
        .publish(Publisher::Interested, Event::builder(1).int("b", 1).build())
        .trials(2)
        .seed(3)
        .build();
    let wide_mean = delivery_mean(&wide.run(Protocol::Pmcast));
    assert!(
        wide_mean > narrow_pmcast_mean + 0.2,
        "wider views must recover pmcast reliability ({narrow_pmcast_mean:.3} -> {wide_mean:.3})"
    );
}

#[test]
fn delegate_views_restore_pmcast_reliability_at_bounded_size() {
    // The PR 4 acceptance bar, at quick scale: under the hierarchical
    // `DelegateView` pmcast's delivery stays within 0.05 of the
    // global-knowledge curve at a *bounded* view size — the same regime in
    // which the flat `PartialView` collapses (its bounded random sample
    // rarely contains pmcast's tree delegates).  And the delegate-view
    // trials must stay bit-identical under the parallel runner.
    let scenario_with = |membership: MembershipSpec| {
        Scenario::builder()
            .group(6, 3)
            .matching_rate(0.5)
            .membership(membership)
            .publish(Publisher::Interested, Event::builder(1).int("b", 1).build())
            .trials(2)
            .seed(3)
            .build()
    };
    let delivery_mean = |outcomes: &[pmcast::TrialOutcome]| -> f64 {
        outcomes.iter().map(|o| o.report.delivery_ratio()).sum::<f64>() / outcomes.len() as f64
    };
    let global = delivery_mean(&scenario_with(MembershipSpec::Global).run(Protocol::Pmcast));

    // The delegate view's bound: (d−1)·a·slots + a = 42 entries, a fifth of
    // the 216-process group.
    let entries = DelegateViewConfig::default().with_slots(3).table_entries(6, 3);
    assert!(entries * 5 < 216, "the delegate view must be genuinely bounded");
    let delegate_scenario = scenario_with(MembershipSpec::delegate(3));
    let delegate_outcomes = delegate_scenario.run(Protocol::Pmcast);
    let delegate = delivery_mean(&delegate_outcomes);
    assert!(
        (global - delegate).abs() <= 0.05,
        "delegate-view pmcast ({delegate:.3}) must track the global curve ({global:.3})"
    );
    assert_eq!(
        delegate_outcomes,
        delegate_scenario.run_parallel(Protocol::Pmcast),
        "delegate-view trials must stay deterministic in parallel"
    );

    // Same bounded size, flat shape: the documented gap.  The contrast is
    // sharpest at tight bounds, so compare at the one-slot delegate size
    // ((d−1)·a·1 + a = 18 entries, a twelfth of the group); at paper scale
    // the flat curve collapses outright (examples/partial_view_sweep.rs
    // -- --paper: 0.36 at ℓ = 512 vs 0.998 for delegate R = 3).
    let tight = DelegateViewConfig::default().with_slots(1).table_entries(6, 3);
    let delegate_tight = delivery_mean(
        &scenario_with(MembershipSpec::delegate(1)).run(Protocol::Pmcast),
    );
    let flat_tight = delivery_mean(
        &scenario_with(MembershipSpec::partial(tight)).run(Protocol::Pmcast),
    );
    assert!(
        flat_tight < delegate_tight - 0.2,
        "an equally sized flat view ({flat_tight:.3}) must trail the hierarchy \
         ({delegate_tight:.3}) at {tight} entries"
    );

    // The other two protocols still disseminate through delegate views.
    for protocol in [Protocol::FloodBroadcast, Protocol::GenuineMulticast] {
        for outcome in delegate_scenario.run(protocol) {
            assert!(outcome.messages_sent > 0, "{protocol:?}");
            assert!(
                outcome.report.delivery_ratio() > 0.3,
                "{protocol:?} collapsed under delegate views: {:?}",
                outcome.report
            );
        }
    }
}

#[test]
fn conformance_holds_under_mixed_join_leave_crash_schedules() {
    // The dynamic-lifecycle acceptance bar for the conformance suite: one
    // scenario mixing joins (including into a subgroup that starts empty),
    // graceful leaves and crashes runs on all three protocols under all
    // three membership providers — through the single generic trial loop,
    // deterministically in parallel — and the protocols keep disseminating
    // to the processes that are actually there.
    let scenario_with = |membership: MembershipSpec| {
        Scenario::builder()
            .group(4, 3) // 64 addresses
            .matching_rate(1.0)
            // Leaf subgroup 15 (indices 60..64) starts empty and fills at
            // round 2 — the flash-crowd corner the sparse bootstrap exists
            // for.
            .join_at(2, 60)
            .join_at(2, 61)
            .join_at(2, 62)
            .join_at(2, 63)
            // Graceful unsubscribes and a crash, spread over early rounds.
            .leave_at(3, 1)
            .leave_at(4, 17)
            .leave_at(5, 33)
            .crash_at(4, 9)
            // One event before the churn, one after the joins.
            .publish(Publisher::Process(0), Event::builder(1).int("b", 1).build())
            .publish_at(6, Publisher::Process(5), Event::builder(2).int("b", 2).build())
            .membership(membership)
            .trials(2)
            .seed(13)
            .build()
    };
    for membership in [
        MembershipSpec::Global,
        MembershipSpec::partial(31),
        MembershipSpec::delegate(4),
    ] {
        let scenario = scenario_with(membership);
        let sizes = scenario.population_sizes();
        assert_eq!((sizes.initial, sizes.peak, sizes.end), (60, 64, 61));
        for protocol in [
            Protocol::Pmcast,
            Protocol::FloodBroadcast,
            Protocol::GenuineMulticast,
        ] {
            let outcomes = scenario.run(protocol);
            for outcome in &outcomes {
                assert!(outcome.messages_sent > 0, "{protocol:?}/{membership:?}");
                assert_eq!(outcome.per_event.len(), 2, "{protocol:?}/{membership:?}");
                // The round-6 event starts after the churn settles: the
                // joiners are up, and the audience that is actually present
                // is reached in bulk by every protocol under every provider.
                let late = &outcome.per_event[1];
                assert!(
                    late.delivery_ratio() > 0.5,
                    "{protocol:?}/{membership:?}: post-churn event collapsed: {late:?}"
                );
            }
            assert_eq!(
                outcomes,
                scenario.run_parallel(protocol),
                "{protocol:?}/{membership:?}: lifecycle trials must stay deterministic \
                 in parallel"
            );
        }
    }
}

#[test]
fn conformance_holds_under_combined_adversarial_faults() {
    // The adversarial-fault acceptance bar: one scenario combining jittered
    // per-link delay, a healing partition and a straggling process runs on
    // all three protocols under all three membership providers — through
    // the single generic trial loop, deterministically in parallel — and
    // dissemination recovers once the partition heals.
    let scenario_with = |membership: MembershipSpec| {
        Scenario::builder()
            .group(4, 3) // 64 addresses
            .matching_rate(1.0)
            .link_delay(0, 1)
            .partition(0, 6, 4) // four cells until the heal at round 6
            .straggler(3, 2)
            // One event into the partitioned network, one after the heal.
            .publish(Publisher::Process(0), Event::builder(1).int("b", 1).build())
            .publish_at(8, Publisher::Process(5), Event::builder(2).int("b", 2).build())
            .membership(membership)
            .trials(2)
            .seed(23)
            .build()
    };
    for membership in [
        MembershipSpec::Global,
        MembershipSpec::partial(31),
        MembershipSpec::delegate(4),
    ] {
        let scenario = scenario_with(membership);
        for protocol in [
            Protocol::Pmcast,
            Protocol::FloodBroadcast,
            Protocol::GenuineMulticast,
        ] {
            let outcomes = scenario.run(protocol);
            for outcome in &outcomes {
                assert!(outcome.messages_sent > 0, "{protocol:?}/{membership:?}");
                assert_eq!(outcome.per_event.len(), 2, "{protocol:?}/{membership:?}");
                assert_eq!(outcome.latency.len(), 2, "{protocol:?}/{membership:?}");
                // The post-heal event faces only delay + straggler: its
                // audience is reached in bulk by every protocol under every
                // provider.
                let late = &outcome.per_event[1];
                assert!(
                    late.delivery_ratio() > 0.5,
                    "{protocol:?}/{membership:?}: post-heal event collapsed: {late:?}"
                );
                // Jittered links keep the latency histogram honest: every
                // delivery of the late event is accounted for.
                assert_eq!(
                    outcome.latency[1].delivered(),
                    late.delivered_interested as u64,
                    "{protocol:?}/{membership:?}"
                );
            }
            assert_eq!(
                outcomes,
                scenario.run_parallel(protocol),
                "{protocol:?}/{membership:?}: adversarial trials must stay \
                 deterministic in parallel"
            );
        }
    }
}

#[test]
fn neutral_fault_plans_reproduce_the_faultless_engine_bit_for_bit() {
    // The stream-neutrality golden: declaring every fault axis with its
    // neutral value (zero delay, single-cell and empty-window partitions, a
    // zero-probability loss override, a period-1 straggler) must produce
    // outcomes bit-identical to a scenario declaring no fault plan at all —
    // on every protocol, including the loss and crash streams.
    let base = || {
        Scenario::builder()
            .group(4, 3)
            .matching_rate(0.6)
            .loss(0.05)
            .crash_fraction(0.05)
            .trials(2)
            .seed(13)
    };
    let plain = base().build();
    let neutral = base()
        .link_delay(0, 0)
        .partition(5, 5, 4)
        .partition(2, 9, 1)
        .subtree_loss(&[1], 0.0)
        .straggler(2, 1)
        .build();
    for protocol in [
        Protocol::Pmcast,
        Protocol::FloodBroadcast,
        Protocol::GenuineMulticast,
    ] {
        assert_eq!(
            plain.run(protocol),
            neutral.run(protocol),
            "{protocol:?}: a neutral fault plan shifted a random stream"
        );
    }
}

#[test]
fn a_static_delegate_trial_is_the_global_trial() {
    // Section 2's join handoff seats each subgroup's smallest members, and
    // pmcast elects its R = 3 delegates the same way: with `slots ≥ R` a
    // static `DelegateView` knows every depth view whole, as the global view
    // does, so a pmcast trial over it is the global trial — every message,
    // every round, every delivery and receipt.  With `slots < R` it seats
    // fewer than a view lists, and the trials part.
    type Trial = (u64, u64, Vec<(bool, bool)>);
    fn trial(arity: u32, depth: usize, seed: u64, membership: Arc<dyn MembershipView>) -> Trial {
        let topology =
            ImplicitRegularTree::new(AddressSpace::regular(depth, arity).expect("valid"));
        let n = topology.member_count();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let oracle = Arc::new(AssignmentOracle::sample(&topology, 0.5, &mut rng));
        let group = PmcastFactory::build(&topology, oracle, membership, &PmcastConfig::default());
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(seed));
        let event = Event::builder(seed + 1).int("b", 1).build();
        sim.process_mut(ProcessId(seed as usize * 37 % n))
            .publish(Arc::new(event.clone()));
        let rounds = sim.run_until_quiescent(1_000);
        let id = event.id();
        let outcome = sim
            .processes()
            .map(|process| (process.has_delivered(id), process.has_received(id)))
            .collect();
        (sim.stats().messages_sent, rounds, outcome)
    }
    for (arity, depth) in [(8u32, 3usize), (4, 3), (5, 2)] {
        let n = (arity as usize).pow(depth as u32);
        for seed in 0..6 {
            let global = trial(arity, depth, seed, Arc::new(GlobalOracleView::new(n)));
            let delegate = |slots: usize| {
                let config = DelegateViewConfig::default().with_slots(slots);
                let view = DelegateView::bootstrap(arity, depth, config, seed);
                trial(arity, depth, seed, Arc::new(view))
            };
            let shape = format!("{arity}^{depth}, seed {seed}");
            for slots in [3, 4] {
                assert_eq!(delegate(slots), global, "{shape}, delegate({slots})");
            }
            assert_ne!(delegate(2), global, "{shape}, delegate(2)");
        }
    }
}

#[test]
fn multi_topic_traffic_keeps_the_contract_with_hundreds_in_flight() {
    // The heavy-traffic conformance row: 64 processes, 24 overlapping
    // topics, 300 events spread over 30 publish rounds — hundreds of
    // events concurrently in flight across distinct audiences, under the
    // delegate hierarchy that carries the aggregated interest summaries.
    let scenario_with = |routing: InterestRouting, membership: MembershipSpec| {
        Scenario::builder()
            .group(4, 3) // 64 addresses
            .topics(TopicWorkload::new(24, 3, 300).with_publish_rounds(30))
            .membership(membership)
            .protocol(PmcastConfig::default().with_interest_routing(routing))
            .trials(1)
            .seed(29)
            .build()
    };

    // Genuine multicast resolves exact audiences, so under full knowledge
    // the topical contract is sharp even at this concurrency: every
    // subscriber delivers every event of its topics, and nobody else so
    // much as receives one.  (A bounded delegate view cannot promise this —
    // genuine needs to *know* each audience member it contacts.)
    for outcome in
        scenario_with(InterestRouting::Oracle, MembershipSpec::Global).run(Protocol::GenuineMulticast)
    {
        assert_eq!(outcome.per_event.len(), 300);
        assert_eq!(
            outcome.report.received_uninterested, 0,
            "genuine multicast leaked topical traffic: {:?}",
            outcome.report
        );
        assert_eq!(
            outcome.report.delivered_interested, outcome.report.interested,
            "a subscriber missed an event on a loss-free network: {:?}",
            outcome.report
        );
    }

    // pmcast: the aggregated-summary arm against the blind control arm.
    // Summaries only ever skip *provably* uninterested subtrees, so the
    // delivered reliability must match the blind run (the acceptance
    // tolerance), while spurious receptions and messages drop.
    let summary_scenario = scenario_with(InterestRouting::Summary, MembershipSpec::delegate(4));
    let summary = summary_scenario.run(Protocol::Pmcast);
    let blind =
        scenario_with(InterestRouting::Blind, MembershipSpec::delegate(4)).run(Protocol::Pmcast);
    let (s, b) = (&summary[0], &blind[0]);
    // ~0.89 is pmcast's level in this regime (matching rate 3/24 with no
    // audience-inflation tuning) — the point is that all three routing
    // modes sit at the *same* level, asserted tightly below.
    assert!(
        s.report.delivery_ratio() > 0.85,
        "summary routing lost reliability: {:?}",
        s.report
    );
    assert!(
        (s.report.delivery_ratio() - b.report.delivery_ratio()).abs() <= 0.01,
        "summary ({:.4}) and blind ({:.4}) reliability diverged",
        s.report.delivery_ratio(),
        b.report.delivery_ratio()
    );
    assert!(
        s.report.spurious_ratio() < b.report.spurious_ratio(),
        "summary routing must cut spurious receptions: {:.4} vs {:.4}",
        s.report.spurious_ratio(),
        b.report.spurious_ratio()
    );
    assert!(
        s.messages_sent < b.messages_sent,
        "skipping uninterested subtrees must also cut traffic: {} vs {}",
        s.messages_sent,
        b.messages_sent
    );
    assert_eq!(
        summary,
        summary_scenario.run_parallel(Protocol::Pmcast),
        "topical summary-routing trials must stay deterministic in parallel"
    );
}

/// Live-to-live reachability from process 0 over the view edges.
fn reachable_live(view: &PartialView, n: usize) -> usize {
    let start = (0..n).find(|&p| view.is_live(p)).expect("somebody is live");
    let mut seen = vec![false; n];
    let mut queue = VecDeque::from([start]);
    seen[start] = true;
    let mut count = 1;
    while let Some(process) = queue.pop_front() {
        for k in 0..view.peer_count(process) {
            let peer = view.peer_at(process, k);
            if view.is_live(peer) && !seen[peer] {
                seen[peer] = true;
                count += 1;
                queue.push_back(peer);
            }
        }
    }
    count
}

proptest! {
    /// Under the default churn-free scenario shape (n = 6³ = 216), a
    /// `PartialView` converges to — and never leaves — a connected overlay:
    /// after any number of gossip rounds, every live process is reachable
    /// from every other over view edges, for any seed and any admissible
    /// view size.
    #[test]
    fn partial_view_converges_to_a_connected_overlay(
        seed in 0u64..1_000_000,
        view_size in 4usize..32,
        rounds in 0usize..60,
    ) {
        let n = 216; // the default scenario group: arity 6, depth 3
        let config = PartialViewConfig::default().with_view_size(view_size);
        let view = PartialView::bootstrap(n, config, seed);
        for _ in 0..rounds {
            view.round_elapsed();
        }
        prop_assert_eq!(view.estimated_size(), n, "churn-free: everyone stays live");
        for process in 0..n {
            prop_assert!(view.peer_count(process) <= view_size.max(1));
        }
        prop_assert_eq!(reachable_live(&view, n), n);
    }

    /// Delegate re-election under churn: after any mix of crashes and
    /// unsubscriptions (bounded so a majority stays live) plus enough
    /// membership rounds for gossip to spread candidates, **every occupied
    /// subtree keeps at least one live seated delegate** in every live
    /// process's per-depth slot groups: the monitored sweep evicts dead
    /// delegates and re-election promotes gossiped candidates.
    #[test]
    fn delegate_re_election_keeps_live_delegates_per_occupied_subtree(
        seed in 0u64..1_000_000,
        churn in proptest::collection::vec((0usize..27, any::<bool>()), 0..8),
    ) {
        let view = DelegateView::bootstrap(
            3,
            3,
            DelegateViewConfig::default().with_slots(2),
            seed,
        );
        assert_delegate_cover_after_churn(&view, churn, 27 - 8);
    }

    /// The same invariant on **sparse** populations: bootstrap over a
    /// partially occupied tree (gap-aware seating), churn it, and every
    /// occupied subtree still keeps at least one live seated delegate in
    /// every live process's slot groups.
    #[test]
    fn gap_aware_re_election_keeps_live_delegates_on_sparse_populations(
        seed in 0u64..1_000_000,
        absent in proptest::collection::vec(0usize..27, 0..8),
        churn in proptest::collection::vec((0usize..27, any::<bool>()), 0..6),
    ) {
        // Punch at most 7 distinct occupancy gaps so a clear majority of
        // the 27 addresses stays occupied through bootstrap *and* churn.
        let mut occupied = vec![true; 27];
        for gap in absent {
            occupied[gap] = false;
        }
        let live_start = occupied.iter().filter(|&&o| o).count();
        let view = DelegateView::bootstrap_sparse(
            3,
            3,
            DelegateViewConfig::default().with_slots(2),
            seed,
            &occupied,
        );
        assert_delegate_cover_after_churn(&view, churn, live_start.saturating_sub(6));
    }
}

proptest! {
    /// The summary table's half of the skip contract, end-to-end from
    /// subscriptions to the routing question the fanout draw asks:
    /// aggregation up the tree stays an **over-approximation**.  Wherever
    /// the exact oracle knows a subscriber below a prefix, the merged
    /// summary must allow the event — a false negative here would make
    /// `InterestRouting::Summary` silently skip real audience members.  At
    /// leaf level the summary is the subscription filter itself, so it is
    /// exact (the table never degenerates into allow-everything).
    #[test]
    fn summary_aggregation_never_rules_out_a_subscriber(
        topic_count in 1u32..8,
        raw in proptest::collection::vec(
            proptest::collection::vec(0u32..8, 0..5),
            16,
        ),
    ) {
        const ARITY: usize = 4;
        const DEPTH: usize = 2;
        let space = AddressSpace::regular(DEPTH, ARITY as u32).unwrap();
        let subscriptions: Vec<Vec<u32>> = raw
            .into_iter()
            .map(|topics| topics.into_iter().map(|t| t % topic_count).collect())
            .collect();
        let oracle = TopicOracle::new(space.clone(), subscriptions.clone(), topic_count as usize);
        let summaries = oracle.subtree_summaries();
        let addresses: Vec<Address> = space.iter().collect();
        for topic in 0..topic_count {
            let event = Event::builder(1)
                .int(TOPIC_ATTRIBUTE, topic as i64)
                .build();
            for level in 0..=DEPTH {
                let span = ARITY.pow((DEPTH - level) as u32);
                for block in 0..ARITY.pow(level as u32) {
                    let base = block * span;
                    let prefix = Prefix::from_components(
                        addresses[base].components()[..level].to_vec(),
                    );
                    let subscribed = (base..base + span)
                        .any(|p| subscriptions[p].contains(&topic));
                    if subscribed {
                        prop_assert!(
                            summaries.allows(&prefix, &event),
                            "false negative: {prefix:?} holds a topic-{topic} subscriber"
                        );
                    } else if level == DEPTH {
                        prop_assert!(
                            !summaries.allows(&prefix, &event),
                            "leaf summaries must be exact: {prefix:?} vs topic {topic}"
                        );
                    }
                }
            }
        }
    }

    /// The same contract through the **runtime objects** a summary-routed
    /// trial actually uses: resolve a random topical trial workload, attach
    /// its summaries to the delegate membership view (exactly what the
    /// trial runner does), and check that for every scheduled event, no
    /// prefix on the root path of any interested process is ever ruled out
    /// by [`MembershipView::summary_allows`] — the question pmcast's fanout
    /// draw asks before skipping a subtree.  A false negative anywhere on
    /// that path would deterministically cut a subscriber off, which is why
    /// summary routing keeps the blind arm's reliability on the same seeds
    /// (asserted at fixed seed by the heavy-traffic row above: the noise on
    /// a 30-event proptest-sized sample is coarser than the ±0.01 bar).
    #[test]
    fn attached_summaries_never_rule_out_an_interested_process(
        seed in 0u64..10_000,
        topics in 1usize..6,
        subscriptions in 1usize..4,
    ) {
        const DEPTH: usize = 2;
        let subscriptions = subscriptions.min(topics);
        let scenario = Scenario::builder()
            .group(4, DEPTH) // 16 addresses
            .topics(TopicWorkload::new(topics, subscriptions, 30).with_publish_rounds(5))
            .membership(MembershipSpec::delegate(4))
            .protocol(PmcastConfig::default().with_interest_routing(InterestRouting::Summary))
            .trials(1)
            .seed(seed)
            .build();
        let workload = pmcast::sim::runner::trial_workload(&scenario, 0);
        let membership = workload.membership(&scenario);
        for (_, _, event) in &workload.schedule {
            for address in workload.topology.members() {
                let index = workload.topology.space().index_of_address(&address).unwrap();
                if !workload.oracle.is_interested(index, event) {
                    continue;
                }
                for level in 1..=DEPTH {
                    let prefix = Prefix::from_components(
                        address.components()[..level].to_vec(),
                    );
                    prop_assert!(
                        membership.summary_allows(&prefix, event),
                        "event {:?} skipped {prefix:?}, cutting off subscriber {address}",
                        event.id()
                    );
                }
            }
        }
    }
}

/// Applies a churn sequence (crash/leave per round), settles gossip, and
/// asserts that every live process still seats ≥ 1 live delegate for every
/// *occupied* subtree of every depth — the re-election invariant shared by
/// the full-population and sparse-population proptests (3-ary, depth 3).
fn assert_delegate_cover_after_churn(
    view: &DelegateView,
    churn: Vec<(usize, bool)>,
    min_live: usize,
) {
    const ARITY: usize = 3;
    const DEPTH: usize = 3;
    let n = ARITY.pow(DEPTH as u32); // 27
    for (victim, is_crash) in churn {
        if is_crash {
            view.observe_crash(victim);
        } else {
            view.observe_leave(victim);
        }
        view.round_elapsed();
    }
    // Settle: let gossip spread re-election candidates.
    for _ in 0..40 {
        view.round_elapsed();
    }
    let alive = |p: usize| view.is_live(p);
    assert!((0..n).filter(|&p| alive(p)).count() >= min_live);
    for q in (0..n).filter(|&p| alive(p)) {
        for depth in 1..=DEPTH {
            let span = ARITY.pow((DEPTH - depth + 1) as u32);
            let sub = ARITY.pow((DEPTH - depth) as u32);
            for g in 0..ARITY {
                let base = (q / span) * span + g * sub;
                let occupied = (base..base + sub).any(|m| m != q && alive(m));
                if occupied {
                    assert!(
                        !view.live_delegates_of(q, depth, g).is_empty(),
                        "process {q} lost all live delegates of depth-{depth} subgroup {g}"
                    );
                }
            }
        }
    }
}
