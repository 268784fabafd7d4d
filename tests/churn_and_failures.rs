//! Integration tests for the protocol's behaviour under failure injection
//! (crashed delegates, heavy message loss, crashed publishers).

use std::sync::Arc;

use pmcast::simnet::CrashPlan;
use pmcast::{
    Address, AddressSpace, AssignmentOracle, Event, GlobalOracleView, ImplicitRegularTree,
    InterestOracle, MembershipView, MulticastReport, NetworkConfig, PmcastConfig, PmcastFactory,
    ProcessId, ProtocolFactory, Simulation, TreeTopology, UniformOracle,
};

fn global_view(n: usize) -> Arc<dyn MembershipView> {
    Arc::new(GlobalOracleView::new(n))
}
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn crashed_root_delegates_do_not_prevent_delivery() {
    // Crash two of the three delegates of every depth-1 subgroup: the
    // redundancy R = 3 plus the publisher's participation at every depth
    // keeps delivery going.
    let topology = ImplicitRegularTree::new(AddressSpace::regular(2, 6).expect("valid shape"));
    let oracle: Arc<dyn InterestOracle + Send + Sync> =
        Arc::new(UniformOracle);
    let config = PmcastConfig::default().with_fanout(3);
    let group = PmcastFactory::build(&topology, oracle, global_view(topology.member_count()), &config);
    let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(77));

    // Delegates of subgroup k are k.0, k.1, k.2; crash k.0 and k.1 for k ≥ 1
    // (keeping subgroup 0 intact so the publisher's own subtree is healthy).
    for k in 1..6u32 {
        for low in 0..2u32 {
            let address = Address::new(vec![k, low]);
            let id = topology.space().index_of_address(&address).expect("member") as usize;
            sim.crash(ProcessId(id));
        }
    }
    let event = Event::builder(1).build();
    sim.process_mut(ProcessId(0)).pmcast(event.clone());
    sim.run_until_quiescent(300);

    let live: Vec<usize> = (0..topology.member_count())
        .filter(|&i| !sim.is_crashed(ProcessId(i)))
        .collect();
    let live_missed: Vec<String> = live
        .iter()
        .filter(|&&i| !sim.process(ProcessId(i)).has_delivered(event.id()))
        .map(|&i| sim.process(ProcessId(i)).address().to_string())
        .collect();
    let live_total = live.len();
    assert!(
        live_missed.len() <= live_total / 10,
        "{} of {} live processes missed the event: {:?}",
        live_missed.len(),
        live_total,
        live_missed
    );
}

#[test]
fn publisher_crash_after_injection_still_spreads_the_event() {
    let topology = ImplicitRegularTree::new(AddressSpace::regular(2, 5).expect("valid shape"));
    let oracle: Arc<dyn InterestOracle + Send + Sync> =
        Arc::new(UniformOracle);
    let group = PmcastFactory::build(
        &topology,
        oracle,
        global_view(topology.member_count()),
        &PmcastConfig::default().with_fanout(3),
    );
    let mut sim = Simulation::new(
        group.processes,
        NetworkConfig {
            crash_plan: CrashPlan::Scheduled(vec![(3, 0)]),
            ..NetworkConfig::reliable(5)
        },
    );
    let event = Event::builder(9).build();
    sim.process_mut(ProcessId(0)).pmcast(event.clone());
    sim.run_until_quiescent(300);

    // The publisher got three rounds before crashing: enough for the event
    // to escape its subtree and reach most of the group.
    let delivered = (0..topology.member_count())
        .filter(|&i| !sim.is_crashed(ProcessId(i)))
        .filter(|&i| sim.process(ProcessId(i)).has_delivered(event.id()))
        .count();
    assert!(
        delivered >= (topology.member_count() - 1) * 7 / 10,
        "only {delivered} live processes delivered after the publisher crashed"
    );
}

#[test]
fn heavy_loss_with_higher_fanout_still_delivers_to_interested_processes() {
    let topology = ImplicitRegularTree::new(AddressSpace::regular(3, 4).expect("valid shape"));
    let mut rng = ChaCha8Rng::seed_from_u64(19);
    let oracle = Arc::new(AssignmentOracle::sample(&topology, 0.5, &mut rng));
    // Tell the protocol about the harsher environment so its round budgets
    // stretch accordingly (Section 3.3, conservative estimates).
    let env = pmcast::EnvParams {
        loss_probability: 0.25,
        crash_probability: 0.01,
        pittel_constant: 2.0,
    };
    let config = PmcastConfig {
        env,
        ..PmcastConfig::default().with_fanout(4)
    };
    let group = PmcastFactory::build(&topology, oracle.clone(), global_view(topology.member_count()), &config);
    let mut sim = Simulation::new(
        group.processes,
        NetworkConfig {
            loss_probability: 0.25,
            crash_plan: CrashPlan::InitialFraction(0.01),
            ..NetworkConfig::reliable(21)
        },
    );
    let sender = oracle.nth_index(0).unwrap_or(0);
    sim.process_mut(ProcessId(sender)).pmcast(Event::builder(2).build());
    sim.run_until_quiescent(400);

    let event = Event::builder(2).build();
    let report = MulticastReport::collect(&event, sim.processes(), oracle.as_ref());
    assert!(
        report.delivery_ratio() > 0.75,
        "delivery ratio {} under 25% loss",
        report.delivery_ratio()
    );
    assert!(sim.stats().messages_lost > 0);
}
