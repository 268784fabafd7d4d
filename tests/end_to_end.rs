//! End-to-end integration tests spanning every crate of the workspace:
//! address space → membership tree → interest oracle → pmcast protocol →
//! simulated network → delivery report.

use std::sync::Arc;

use pmcast::simnet::CrashPlan;
use pmcast::{
    AddressSpace, AssignmentOracle, Event, Filter, FloodFactory, GlobalOracleView, GroupTree,
    ImplicitRegularTree, Interest, InterestOracle, MembershipView, MulticastProtocol,
    MulticastReport,
    NetworkConfig, PmcastConfig, PmcastFactory, Predicate, ProcessId, ProtocolFactory,
    Simulation, TreeTopology, UniformOracle,
};

fn global_view(n: usize) -> Arc<dyn MembershipView> {
    Arc::new(GlobalOracleView::new(n))
}
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn small_tree() -> ImplicitRegularTree {
    ImplicitRegularTree::new(AddressSpace::regular(3, 4).expect("valid shape"))
}

#[test]
fn multicast_reaches_interested_processes_across_subtrees() {
    let topology = small_tree();
    let mut rng = ChaCha8Rng::seed_from_u64(100);
    let oracle = Arc::new(AssignmentOracle::sample(&topology, 0.4, &mut rng));
    let event = Event::builder(1).int("b", 1).build();

    let group = PmcastFactory::build(&topology, oracle.clone(), global_view(topology.member_count()), &PmcastConfig::default());
    let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(100));
    // Publish from an interested process if possible.
    let sender = oracle.nth_index(0).unwrap_or(0);
    sim.process_mut(ProcessId(sender)).pmcast(event.clone());
    sim.run_until_quiescent(300);

    let report = MulticastReport::collect(&event, sim.processes(), oracle.as_ref());
    assert_eq!(report.interested, oracle.len());
    assert!(
        report.delivery_ratio() > 0.85,
        "delivery ratio {} too low",
        report.delivery_ratio()
    );
    // No uninterested process ever *delivers*.
    for process in sim.processes() {
        if process.has_delivered(event.id()) {
            let index = topology.space().index_of_address(process.address()).unwrap();
            assert!(oracle.is_interested(index, &event));
        }
    }
}

#[test]
fn broadcast_special_case_delivers_everywhere_even_with_losses() {
    let topology = small_tree();
    let oracle: Arc<dyn InterestOracle + Send + Sync> =
        Arc::new(UniformOracle);
    let event = Event::builder(2).build();

    let config = PmcastConfig::default().with_fanout(4);
    let group = PmcastFactory::build(&topology, oracle, global_view(topology.member_count()), &PmcastConfig { ..config });
    let mut sim = Simulation::new(
        group.processes,
        NetworkConfig::default().with_loss(0.05).with_seed(3),
    );
    sim.process_mut(ProcessId(17)).pmcast(event.clone());
    sim.run_until_quiescent(300);

    let delivered = sim
        .processes()
        .filter(|p| p.has_delivered(event.id()))
        .count();
    assert!(
        delivered >= 62,
        "only {delivered}/64 delivered under 5% loss with F = 4"
    );
}

#[test]
fn content_based_group_delivers_exactly_to_matching_subscribers() {
    // Explicit membership where subscriptions partition the group by topic.
    let space = AddressSpace::regular(2, 6).expect("valid shape");
    let mut tree = GroupTree::new(space.clone());
    for (index, address) in space.iter().enumerate() {
        let topic = match index % 3 {
            0 => "sports",
            1 => "markets",
            _ => "weather",
        };
        tree.join(address, Filter::new().with("topic", Predicate::Eq(topic.into())))
            .expect("fresh address");
    }
    let tree = Arc::new(tree);

    let group = PmcastFactory::build(tree.as_ref(), tree.clone(), global_view(tree.member_count()), &PmcastConfig::default().with_fanout(3));
    let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(8));
    let event = Event::builder(77).str("topic", "markets").build();
    sim.process_mut(ProcessId(1)).pmcast(event.clone());
    sim.run_until_quiescent(300);

    let mut delivered = 0;
    for process in sim.processes() {
        let wants = tree
            .subscription(process.address())
            .map(|f| f.matches(&event))
            .unwrap_or(false);
        assert_eq!(
            process.has_delivered(event.id()),
            wants,
            "delivery mismatch at {}",
            process.address()
        );
        if wants {
            delivered += 1;
        }
    }
    assert_eq!(delivered, 12, "a third of the 36 subscribers follow markets");
}

#[test]
fn crashes_of_a_minority_do_not_break_delivery_for_the_rest() {
    let topology = small_tree();
    let oracle: Arc<dyn InterestOracle + Send + Sync> =
        Arc::new(UniformOracle);
    let event = Event::builder(5).build();

    let group = PmcastFactory::build(&topology, oracle, global_view(topology.member_count()), &PmcastConfig::default().with_fanout(3));
    let mut sim = Simulation::new(
        group.processes,
        // 2% loss, ~5% of processes crashed
        NetworkConfig {
            loss_probability: 0.02,
            crash_plan: CrashPlan::InitialFraction(0.05),
            ..NetworkConfig::reliable(9)
        },
    );
    sim.process_mut(ProcessId(0)).pmcast(event.clone());
    sim.run_until_quiescent(300);

    let n = topology.member_count();
    let live: Vec<usize> = (0..n).filter(|&i| !sim.is_crashed(ProcessId(i))).collect();
    let live_delivered = live
        .iter()
        .filter(|&&i| sim.process(ProcessId(i)).has_delivered(event.id()))
        .count();
    let live_total = live.len();
    assert!(n - live_total < n / 2);
    assert!(
        live_delivered as f64 >= 0.9 * live_total as f64,
        "only {live_delivered}/{live_total} live processes delivered"
    );
}

#[test]
fn pmcast_uses_fewer_messages_than_flooding_when_interest_is_sparse() {
    let topology = small_tree();
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let oracle = Arc::new(AssignmentOracle::sample(&topology, 0.15, &mut rng));
    let event = Event::builder(6).build();
    let sender = oracle.nth_index(0).unwrap_or(0);

    // pmcast run.
    let group = PmcastFactory::build(&topology, oracle.clone(), global_view(topology.member_count()), &PmcastConfig::default());
    let mut pmcast_sim = Simulation::new(group.processes, NetworkConfig::reliable(12));
    pmcast_sim.process_mut(ProcessId(sender)).pmcast(event.clone());
    pmcast_sim.run_until_quiescent(300);

    // Flooding baseline run.
    let flood = FloodFactory::build(&topology, oracle.clone(), global_view(topology.member_count()), &PmcastConfig::default());
    let mut flood_sim = Simulation::new(flood.processes, NetworkConfig::reliable(12));
    flood_sim
        .process_mut(ProcessId(sender))
        .publish(Arc::new(event.clone()));
    flood_sim.run_until_quiescent(300);

    assert!(
        pmcast_sim.stats().messages_sent < flood_sim.stats().messages_sent,
        "pmcast sent {} messages, flooding {}",
        pmcast_sim.stats().messages_sent,
        flood_sim.stats().messages_sent
    );

    // And far fewer uninterested processes are touched.
    let pmcast_report = MulticastReport::collect(&event, pmcast_sim.processes(), oracle.as_ref());
    let flood_report = MulticastReport::collect(&event, flood_sim.processes(), oracle.as_ref());
    assert!(pmcast_report.received_uninterested < flood_report.received_uninterested);
}

#[test]
fn several_publishers_can_multicast_concurrently() {
    let topology = small_tree();
    let oracle: Arc<dyn InterestOracle + Send + Sync> =
        Arc::new(UniformOracle);
    let group = PmcastFactory::build(&topology, oracle, global_view(topology.member_count()), &PmcastConfig::default());
    let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(33));

    let events: Vec<Event> = (0..4).map(|i| Event::builder(500 + i).int("b", i as i64).build()).collect();
    for (offset, event) in events.iter().enumerate() {
        sim.process_mut(ProcessId(offset * 16)).pmcast(event.clone());
    }
    sim.run_until_quiescent(400);

    for event in &events {
        let delivered = sim
            .processes()
            .filter(|p| p.has_delivered(event.id()))
            .count();
        assert_eq!(delivered, 64, "event {} not fully delivered", event.id());
    }
}
