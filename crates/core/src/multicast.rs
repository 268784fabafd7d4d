//! The protocol-agnostic multicast interface: every dissemination protocol
//! of this crate — pmcast and both baselines — implements
//! [`MulticastProtocol`], and a matching [`ProtocolFactory`] builds a whole
//! group of instances from the same four ingredients: a topology, an
//! interest oracle, a [`MembershipView`] provider and a [`PmcastConfig`].
//!
//! This is the API-stability contract of the workspace: simulation harnesses
//! (`pmcast-sim`), benches and examples are written once against these two
//! traits and work for any protocol.  Dispatch is fully monomorphized —
//! there is no trait object on the publish or gossip hot path, so the
//! generic code costs exactly the same as calling the concrete types
//! directly.
//!
//! ## Publishing
//!
//! [`MulticastProtocol::publish`] takes an [`Arc<Event>`]: the event payload
//! is allocated once by the caller and then kept once by the group and once
//! per buffering process, while the messages carry its id — the
//! shared-payload invariant of the gossip hot path.  A bare `publish` is
//! always sufficient to start dissemination: whatever a protocol needs to
//! know about an event (the genuine baseline's audience, say) it resolves
//! when a process first accepts it.
//!
//! ## Membership providers
//!
//! Protocols draw their fanout candidates from a [`MembershipView`], never
//! from the group definition directly: under
//! [`GlobalOracleView`](pmcast_membership::GlobalOracleView) every process
//! knows the whole group (stateless and stream-neutral: the construction
//! the goldens pin), [`PartialView`](pmcast_membership::PartialView) bounds each
//! process to a flat gossip-maintained partial view, and
//! [`DelegateView`](pmcast_membership::DelegateView) maintains the paper's
//! hierarchical per-depth delegate tables — candidates a process does not
//! currently know are simply not contacted.  pmcast asks the view
//! per depth, once per round for its whole view
//! ([`MembershipView::fill_known_or_whole`](pmcast_membership::MembershipView::fill_known_or_whole)),
//! so under the hierarchical provider its tree delegates come from the
//! maintained hierarchy itself.  Interest evaluation (the oracle) is
//! orthogonal and unaffected.
//!
//! The audience may **shrink and grow mid-trial**: under a join/leave
//! lifecycle schedule the provider's answers change between rounds, and
//! every protocol must tolerate that without re-deriving the group —
//! pmcast re-filters its per-depth candidates each round, the flooding
//! baseline re-queries its peer pool each round, and the genuine baseline
//! simply wastes fanout on targets that departed after its per-event
//! candidate cache was built (the network drops those messages, exactly
//! like sends to crashed processes).  The conformance suite runs all three
//! protocols under mixed join/leave/crash schedules to pin this down.

use std::sync::Arc;

use pmcast_addr::Address;
use pmcast_interest::{Event, EventId};
use pmcast_membership::{Addresses, InterestOracle, MembershipView, TreeTopology};
use pmcast_simnet::RoundProcess;

use crate::{Gossip, PmcastConfig};

/// The common interface of all dissemination protocols in this crate.
///
/// A `MulticastProtocol` is a [`RoundProcess`] gossiping [`Gossip`]
/// messages, plus the application-facing operations every protocol offers:
/// publishing an event and querying delivery/reception state — which is
/// also all [`crate::MulticastReport`] needs to classify any protocol's
/// processes (every implementor is a [`crate::DeliveryOutcome`]).
///
/// Deliveries are receipt-driven — a process first delivers an event while
/// a publication is injected into it or while it handles a message, never
/// inside `on_round` — and **reported**: an implementor whose `on_message`
/// delivers an event for the first time says so through
/// [`RoundIo::report_delivery`](pmcast_simnet::RoundIo::report_delivery)
/// with the event id's integer as the tag, once per (process, event).  That
/// is what lets a trial record delivery latencies in O(deliveries) instead
/// of polling [`has_delivered`](Self::has_delivered); a delivery made by
/// [`publish`](Self::publish) is the caller's to observe (it has no driver
/// context), by asking `has_delivered` around the call.
pub trait MulticastProtocol: RoundProcess<Message = Gossip> {
    /// Publishes an event into the dissemination from this process.
    ///
    /// The event is shared, never copied: the group keeps a clone of this
    /// [`Arc`] for the processes the event reaches, every buffer entry holds
    /// one, and a forwarded gossip names the event by id.  Publishing the
    /// same event id twice is idempotent (the duplicate is ignored);
    /// redundant publishers must publish one event, not two contents under
    /// one id (debug builds panic).
    fn publish(&mut self, event: Arc<Event>);

    /// Returns `true` if the event was delivered to the application here.
    fn has_delivered(&self, event: EventId) -> bool;

    /// Returns `true` if the event was received at all (delivered or merely
    /// buffered / forwarded); Figure 5 measures exactly this for
    /// uninterested processes.
    fn has_received(&self, event: EventId) -> bool;

    /// The process's address in the membership tree.
    fn address(&self) -> &Address;

    /// The process's index in its group's address space: what an
    /// [`InterestOracle`] is asked about.
    fn space_index(&self) -> u128;

    /// Retires dedup state for events with identifiers below `floor`.
    ///
    /// Long-running processes accumulate seen/delivered identifier sets
    /// without bound; once every event below a watermark is quiescent
    /// (fully disseminated and past its round budgets everywhere), those
    /// identifiers can be collapsed into the watermark itself: after the
    /// call, any identifier below the floor *counts as already seen* —
    /// re-deliveries stay impossible, only the per-id storage is gone.
    /// Implementations clamp the floor so identifiers still buffered
    /// in-flight are never retired, and the watermark is this process's
    /// alone: state shared with other processes may only be dropped if a
    /// process that meets the event later can rebuild it.  The default does
    /// nothing (a fresh process has nothing worth retiring).
    fn retire_below(&mut self, _floor: EventId) {}

    /// [`retire_below`](Self::retire_below), and then the group lets go of
    /// content: the process hands its clamped floor to the group's event
    /// store, which forgets every event below the highest floor any of its
    /// processes handed it.  This bounds a long-running daemon's content
    /// memory at the price of what `retire_below` alone never does —
    /// visibility: a *first* receipt anywhere in the group below the
    /// store's floor is filed as seen and delivers nothing.  The default
    /// only retires.
    fn retire_and_forget_below(&mut self, floor: EventId) {
        self.retire_below(floor);
    }

    /// Number of event identifiers currently held in dedup state — the
    /// quantity [`retire_below`](Self::retire_below) bounds: the identifiers
    /// stored in the received plane plus those in the delivered plane of the
    /// process's id window (a delivered one counts twice, a retired one not
    /// at all).  Diagnostic; defaults to zero without explicit dedup storage.
    fn dedup_len(&self) -> usize {
        0
    }
}

/// A whole group of protocol instances, one per member of a topology,
/// ordered by dense identifier (matching [`TreeTopology::members`]); hand
/// `processes` directly to [`pmcast_simnet::Simulation::new`].
pub struct ProtocolGroup<P> {
    /// One protocol instance per process, indexed by
    /// [`pmcast_simnet::ProcessId`].
    pub processes: Vec<P>,
    /// Member addresses by dense identifier, a full tree's computed, not
    /// stored; under pmcast, the group's views' own, shared by every group
    /// of a full tree's shape on a thread.
    pub addresses: Addresses,
}

impl<P> std::fmt::Debug for ProtocolGroup<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtocolGroup")
            .field("processes", &self.processes.len())
            .finish_non_exhaustive()
    }
}

/// Builds a whole [`ProtocolGroup`] for one protocol from the four shared
/// ingredients: topology, interest oracle, membership provider and
/// configuration.
///
/// Factories are zero-sized types used purely for static dispatch:
/// `PmcastFactory::build(…)` monomorphizes the simulation harness per
/// protocol, keeping the publish and gossip hot paths free of virtual
/// calls.  The membership provider is shared as a trait object — its
/// per-draw cost is a candidate lookup.
///
/// # Examples
///
/// Code written against the factory bound runs unchanged for every
/// protocol — this is the whole point of the contract:
///
/// ```rust
/// use std::sync::Arc;
/// use pmcast_addr::AddressSpace;
/// use pmcast_core::{
///     FloodFactory, GenuineFactory, MulticastProtocol, PmcastConfig, PmcastFactory,
///     ProtocolFactory,
/// };
/// use pmcast_interest::Event;
/// use pmcast_membership::{GlobalOracleView, UniformOracle};
/// use pmcast_simnet::{NetworkConfig, ProcessId, Simulation};
///
/// fn deliveries<F: ProtocolFactory>() -> usize {
///     let topology = pmcast_membership::ImplicitRegularTree::new(
///         AddressSpace::regular(2, 4).expect("valid shape"),
///     );
///     let oracle = Arc::new(UniformOracle);
///     let membership = Arc::new(GlobalOracleView::new(16));
///     let group = F::build(&topology, oracle, membership, &PmcastConfig::default());
///     let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(1));
///     let event = Event::builder(7).int("b", 1).build();
///     sim.process_mut(ProcessId(0)).publish(Arc::new(event.clone()));
///     sim.run_until_quiescent(200);
///     sim.processes().filter(|p| p.has_delivered(event.id())).count()
/// }
///
/// assert_eq!(deliveries::<PmcastFactory>(), 16);
/// assert_eq!(deliveries::<FloodFactory>(), 16);
/// assert_eq!(deliveries::<GenuineFactory>(), 16);
/// ```
pub trait ProtocolFactory {
    /// The protocol type this factory instantiates.
    type Process: MulticastProtocol;

    /// Builds one protocol instance per member of the topology.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`PmcastConfig::validate`]).
    fn build<T: TreeTopology>(
        topology: &T,
        oracle: Arc<dyn InterestOracle + Send + Sync>,
        membership: Arc<dyn MembershipView>,
        config: &PmcastConfig,
    ) -> ProtocolGroup<Self::Process>;
}

/// Factory for the pmcast protocol of Figure 3 ([`crate::PmcastProcess`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct PmcastFactory;

impl ProtocolFactory for PmcastFactory {
    type Process = crate::PmcastProcess;

    fn build<T: TreeTopology>(
        topology: &T,
        oracle: Arc<dyn InterestOracle + Send + Sync>,
        membership: Arc<dyn MembershipView>,
        config: &PmcastConfig,
    ) -> ProtocolGroup<Self::Process> {
        crate::protocol::build_pmcast_group(topology, oracle, membership, config)
    }
}

/// Factory for the flooding gossip-broadcast baseline
/// ([`crate::FloodBroadcastProcess`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct FloodFactory;

impl ProtocolFactory for FloodFactory {
    type Process = crate::FloodBroadcastProcess;

    fn build<T: TreeTopology>(
        topology: &T,
        oracle: Arc<dyn InterestOracle + Send + Sync>,
        membership: Arc<dyn MembershipView>,
        config: &PmcastConfig,
    ) -> ProtocolGroup<Self::Process> {
        crate::baseline::build_flat_group(topology, oracle, membership, config)
    }
}

/// Factory for the genuine-multicast baseline
/// ([`crate::GenuineMulticastProcess`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct GenuineFactory;

impl ProtocolFactory for GenuineFactory {
    type Process = crate::GenuineMulticastProcess;

    fn build<T: TreeTopology>(
        topology: &T,
        oracle: Arc<dyn InterestOracle + Send + Sync>,
        membership: Arc<dyn MembershipView>,
        config: &PmcastConfig,
    ) -> ProtocolGroup<Self::Process> {
        crate::baseline::build_flat_group(topology, oracle, membership, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcast_addr::AddressSpace;
    use pmcast_interest::Event;
    use pmcast_membership::{
        AssignmentOracle, GlobalOracleView, ImplicitRegularTree, UniformOracle,
    };
    use pmcast_simnet::{NetworkConfig, ProcessId, Simulation};

    fn topology() -> ImplicitRegularTree {
        ImplicitRegularTree::new(AddressSpace::regular(2, 4).unwrap())
    }

    fn global_view() -> Arc<dyn MembershipView> {
        Arc::new(GlobalOracleView::new(16))
    }

    /// Exercises the whole trait surface generically for one protocol.
    fn publish_and_run<F: ProtocolFactory>() -> Vec<F::Process> {
        let topology = topology();
        let oracle = Arc::new(UniformOracle);
        let group = F::build(&topology, oracle, global_view(), &PmcastConfig::default());
        assert_eq!(group.processes.len(), 16);
        assert_eq!(group.addresses.member_count(), 16);
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(9));
        let event = Arc::new(Event::builder(31).int("b", 5).build());
        sim.process_mut(ProcessId(0)).publish(event);
        sim.run_until_quiescent(300);
        sim.into_processes()
    }

    fn delivered_count<P: MulticastProtocol>(processes: &[P], id: pmcast_interest::EventId) -> usize {
        processes.iter().filter(|p| p.has_delivered(id)).count()
    }

    #[test]
    fn all_factories_build_and_deliver_generically() {
        let event_id = Event::builder(31).build().id();
        assert_eq!(delivered_count(&publish_and_run::<PmcastFactory>(), event_id), 16);
        assert_eq!(delivered_count(&publish_and_run::<FloodFactory>(), event_id), 16);
        assert_eq!(delivered_count(&publish_and_run::<GenuineFactory>(), event_id), 16);
    }

    #[test]
    fn trait_addresses_match_group_order() {
        let topology = topology();
        let oracle = Arc::new(AssignmentOracle::new(
            topology.space().clone(),
            vec!["0.0".parse().unwrap(), "1.2".parse().unwrap()],
        ));
        let group = GenuineFactory::build(&topology, oracle, global_view(), &PmcastConfig::default());
        assert_eq!(group.addresses, topology.members());
        for (id, process) in group.processes.iter().enumerate() {
            assert_eq!(MulticastProtocol::address(process), group.addresses.get(id));
            assert_eq!(MulticastProtocol::space_index(process), id as u128);
        }
        assert!(format!("{group:?}").contains("ProtocolGroup"));
    }
}
