//! Quickstart: multicast one event over a 64-process group and print who
//! delivered it — then run the same workload on all three protocols with
//! the `Scenario` API.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! ## The API-stability invariant
//!
//! Two rules keep this example (and every harness in the workspace) stable
//! as the codebase grows:
//!
//! * **All protocols implement `MulticastProtocol`.**  pmcast and both
//!   baselines are built through a `ProtocolFactory` (`PmcastFactory`,
//!   `FloodFactory`, `GenuineFactory`) from the same
//!   `(topology, oracle, membership, config)` quadruple, publish shared `Arc<Event>`
//!   payloads, and answer the same delivery/reception queries.  Code
//!   written against the trait — like step 3 below — works for any
//!   protocol, with static dispatch only.
//! * **Scenarios are built, not forked.**  A workload (how many publishers,
//!   which events, at which rounds, under what loss and churn) is described
//!   declaratively with `Scenario::builder()` and executed by the one
//!   generic trial loop in `pmcast_sim::runner`; new workloads never copy
//!   simulation code.

use std::error::Error;
use std::sync::Arc;

use pmcast::{
    AddressSpace, AssignmentOracle, Event, GlobalOracleView, ImplicitRegularTree, InterestOracle,
    MembershipSpec, MulticastReport, NetworkConfig, PmcastConfig, PmcastFactory, ProcessId,
    Protocol, ProtocolFactory, Publisher, Scenario, Simulation, TreeTopology,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. Shape the group: a regular tree of depth 3 with 4 subgroups per
    //    level, i.e. 64 processes with addresses 0.0.0 … 3.3.3.
    let space = AddressSpace::regular(3, 4)?;
    let topology = ImplicitRegularTree::new(space);
    println!("group of {} processes, depth {}", topology.member_count(), topology.depth());

    // 2. Decide who is interested: every process independently with
    //    probability 0.5 (the workload of the paper's analysis).
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let oracle = Arc::new(AssignmentOracle::sample(&topology, 0.5, &mut rng));
    println!("{} processes are interested in the event", oracle.len());

    // 3. Build one pmcast protocol instance per process through the
    //    factory and wire them to the simulated network (1% message loss).
    //    Swapping `PmcastFactory` for `FloodFactory` or `GenuineFactory`
    //    is the only change needed to run a baseline instead.
    let config = PmcastConfig::default(); // R = 3, F = 2
    // Membership knowledge is pluggable too: `GlobalOracleView` models the
    // closed group every process knows in full (swap in a `PartialView` for
    // gossip-discovered membership — see examples/partial_view_sweep.rs).
    let membership = Arc::new(GlobalOracleView::new(topology.member_count()));
    let group = PmcastFactory::build(&topology, oracle.clone(), membership, &config);
    let mut sim = Simulation::new(group.processes, NetworkConfig::default().with_loss(0.01).with_seed(7));

    // 4. Publish an event from process 0.0.0 and run to quiescence.  The
    //    payload is allocated once and shared (`Arc`) through buffering,
    //    gossiping and delivery.
    let event = Event::builder(1).int("b", 2).float("c", 55.5).build();
    sim.process_mut(ProcessId(0)).publish(Arc::new(event.clone()));
    let rounds = sim.run_until_quiescent(300);

    // 5. Report.
    let report = MulticastReport::collect(&event, sim.processes(), oracle.as_ref());
    println!("\nafter {rounds} gossip rounds:");
    println!(
        "  interested processes     : {:4}  delivered: {:4}  (delivery probability {:.3})",
        report.interested,
        report.delivered_interested,
        report.delivery_ratio()
    );
    println!(
        "  uninterested processes   : {:4}  received : {:4}  (spurious reception  {:.3})",
        report.uninterested,
        report.received_uninterested,
        report.spurious_ratio()
    );
    println!("  gossip messages sent     : {}", sim.stats().messages_sent);

    // Show a few individual outcomes.
    println!("\nsample of deliveries:");
    for process in sim.processes().take(8) {
        println!(
            "  {}  interested={}  delivered={}",
            process.address(),
            oracle.is_interested(process.space_index(), &event),
            process.has_delivered(event.id()),
        );
    }

    // 6. The same comparison, declaratively: one scenario (two publishers,
    //    two events, 1% loss) run on all three protocols by the generic
    //    trial engine.
    let scenario = Scenario::builder()
        .group(4, 3)
        .matching_rate(0.5)
        .loss(0.01)
        .publish(Publisher::Interested, Event::builder(10).int("b", 2).build())
        .publish_at(3, Publisher::Uniform, Event::builder(11).int("b", 3).build())
        .membership(MembershipSpec::Global) // or MembershipSpec::partial(view_size)
        .seed(7)
        .build();
    println!("\nscenario (2 publishers, 2 events) across protocols:");
    for protocol in [Protocol::Pmcast, Protocol::FloodBroadcast, Protocol::GenuineMulticast] {
        let outcome = &scenario.run(protocol)[0];
        println!(
            "  {:>16?}: delivery {:.3}, spurious {:.3}, {:5} messages, {:3} rounds",
            protocol,
            outcome.report.delivery_ratio(),
            outcome.report.spurious_ratio(),
            outcome.messages_sent,
            outcome.rounds
        );
    }
    Ok(())
}
