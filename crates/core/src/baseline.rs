//! Baseline dissemination protocols pmcast is compared against.
//!
//! Section 1 of the paper discusses the alternatives to a dedicated
//! gossip-based multicast:
//!
//! * **Gossip broadcast with filtering on delivery** (pbcast / lpbcast
//!   style): every process gossips every event to random members of the
//!   whole group; uninterested processes receive (and forward) events they
//!   will never deliver.  High reliability, maximal spurious traffic.
//! * **Genuine multicast**: only interested processes are ever contacted.
//!   With global interest knowledge this is maximally frugal; the paper
//!   argues that with realistic partial knowledge crucial forwarders may be
//!   missing — which our simulations can reproduce by restricting the
//!   membership view.
//!
//! Both are the same *flat* gossip — drop duplicates, deliver if
//! interested, buffer, then for a bounded number of rounds forward to `F`
//! random candidates — so both are one process body,
//! [`FlatGossipProcess`], parameterised only by what differs (its
//! [`FlatPolicy`]): how an accepted event gets its round budget and its
//! candidate [`Pool`].  Flooding takes one budget from the group-size
//! estimate and gossips over the membership view's peers; the genuine
//! multicast takes the Pittel budget over the event's audience and gossips
//! among the audience members it knows.
//!
//! Both baselines run over the same [`pmcast_simnet`] substrate and the same
//! interest oracles as pmcast, and both implement
//! [`MulticastProtocol`](crate::MulticastProtocol) /
//! [`crate::ProtocolFactory`], so the comparison isolates the dissemination
//! strategy itself: the simulation harness drives all protocols through one
//! generic code path.

use std::cell::{RefCell, RefMut};
use std::rc::Rc;
use std::sync::Arc;

use pmcast_addr::Address;
use pmcast_analysis::pittel;
use pmcast_interest::{Event, EventId, EventIdSet, InternStats};
use pmcast_membership::{Addresses, InterestOracle, MembershipView, TreeTopology};
use pmcast_simnet::{ProcessId, RoundContext, RoundProcess};
use rustc_hash::FxHashMap;

use crate::config::MAX_ROUNDS_PER_DEPTH;
use crate::store::EventStore;
use crate::{BufferedGossip, Gossip, PmcastConfig, ProtocolGroup};

/// Gossip **broadcast** with filtering on delivery: every process forwards
/// every fresh event to `F` uniformly random members of the whole group for
/// the Pittel-bounded number of rounds; interest only decides whether the
/// event is delivered locally.
pub type FloodBroadcastProcess = FlatGossipProcess<Flood>;

/// Genuine multicast: gossip only among the processes interested in the
/// event, assuming (optimistically) that every process knows exactly which
/// other processes are interested.
pub type GenuineMulticastProcess = FlatGossipProcess<Genuine>;

/// What differs between the flat baselines: the per-group state a policy
/// keeps, and how an accepted event gets its round budget and its pool.
pub(crate) trait FlatPolicy: Sized {
    /// The public name of the process type, for its `Debug` output.
    const NAME: &'static str;

    /// The policy's per-group state, built once by the factory.
    fn for_group(config: &PmcastConfig, membership: &dyn MembershipView) -> Self;

    /// The round budget and candidate pool of an event process `own` has
    /// just accepted.
    fn admit(group: &FlatGroup<Self>, own: ProcessId, event: &Event) -> (u32, Pool);

    /// Releases per-event policy state below the floor.  That state is
    /// shared by the group while the floor is one process's, so whatever is
    /// dropped must be recoverable by a later [`admit`](Self::admit).
    fn retire_below(&self, _floor: EventId) {}
}

/// The Pittel round budget for gossiping among `size` processes.
fn round_budget(config: &PmcastConfig, size: usize) -> u32 {
    pittel::round_budget(size as f64, config.fanout as f64, &config.env)
        .min(MAX_ROUNDS_PER_DEPTH)
}

/// What every process of one group shares, stored once behind one [`Rc`]
/// (a group runs on one thread, so its tables take no lock).
pub(crate) struct FlatGroup<P> {
    /// Member addresses by dense identifier.
    addresses: Addresses,
    config: PmcastConfig,
    oracle: Arc<dyn InterestOracle + Send + Sync>,
    membership: Arc<dyn MembershipView>,
    policy: P,
    /// Every event published in the group, kept once (as pmcast's).
    store: EventStore,
}

/// The flooding policy: one round budget for every event, estimated from
/// the membership provider's group-size belief when the group is built.
#[derive(Debug)]
pub struct Flood {
    budget: u32,
}

impl FlatPolicy for Flood {
    const NAME: &'static str = "FloodBroadcastProcess";

    fn for_group(config: &PmcastConfig, membership: &dyn MembershipView) -> Self {
        Flood {
            budget: round_budget(config, membership.estimated_size()),
        }
    }

    fn admit(group: &FlatGroup<Self>, _own: ProcessId, _event: &Event) -> (u32, Pool) {
        (group.policy.budget, Pool::View)
    }
}

/// The genuine-multicast policy: the interested processes of every event,
/// shared by the whole group.
#[derive(Debug, Default)]
pub struct Genuine {
    directory: EventDirectory,
}

impl FlatPolicy for Genuine {
    const NAME: &'static str = "GenuineMulticastProcess";

    fn for_group(_config: &PmcastConfig, _membership: &dyn MembershipView) -> Self {
        Genuine::default()
    }

    fn admit(group: &FlatGroup<Self>, own: ProcessId, event: &Event) -> (u32, Pool) {
        let (oracle, membership) = (&group.oracle, &group.membership);
        // When the oracle supplies an audience key, repeated keys share one
        // audience allocation and skip the group scan.
        let key = oracle.audience_key(event);
        let audience = group.policy.directory.audience(event.id(), key, || {
            let addresses = &group.addresses;
            (0..addresses.member_count())
                .filter(|&id| oracle.is_interested(addresses.index(id), event))
                .map(ProcessId)
                .collect()
        });
        let budget = round_budget(&group.config, audience.len());
        // Resolve the candidate set once: the round loop only indexes it.
        let pool = if membership.is_global() {
            // Audiences are sorted by dense identifier, so "minus
            // ourselves" is an index shift, not a filtered copy.
            let own_pos = audience.binary_search(&own).ok();
            Pool::Audience { audience, own_pos }
        } else {
            // Partial knowledge: enumerate the (bounded) view and keep the
            // peers that are in the audience.
            let known = (0..membership.peer_count(own.0))
                .map(|k| ProcessId(membership.peer_at(own.0, k)))
                .filter(|peer| audience.binary_search(peer).is_ok())
                .collect();
            Pool::Known(known)
        };
        (budget, pool)
    }

    fn retire_below(&self, floor: EventId) {
        self.directory.retire_below(floor);
    }
}

/// The shared per-event audience directory of the genuine baseline: for
/// every event some process has accepted, the dense identifiers of the
/// interested processes.
///
/// This models the global interest knowledge the paper deems unrealistic —
/// which is the point of the comparison.  An audience is resolved by the
/// first process to accept the event (the publisher) and then shared behind
/// an [`Arc`]; the round loop never touches the directory.
///
/// Audiences are additionally **hashconsed** by the oracle's
/// [`audience_key`](InterestOracle::audience_key): two events with the same
/// key provably share an audience, so resolving the second one clones the
/// first one's [`Arc`] — no group rescan, no allocation.  Under a heavy
/// multi-topic workload (10k events over 50 topics) the directory therefore
/// builds ~50 audience vectors instead of 10k.
#[derive(Debug, Default)]
struct EventDirectory(RefCell<DirectoryState>);

#[derive(Debug, Default)]
struct DirectoryState {
    audiences: FxHashMap<EventId, Arc<Vec<ProcessId>>>,
    /// Hashcons table: audience key → the one shared audience vector.
    by_key: FxHashMap<u64, Arc<Vec<ProcessId>>>,
    /// Keyed resolutions served from `by_key` without a build.
    hits: u64,
    /// Resolutions that had to scan the group and allocate.
    misses: u64,
}

impl EventDirectory {
    fn state(&self) -> RefMut<'_, DirectoryState> {
        self.0.borrow_mut()
    }

    /// The audience of an event: looked up, or computed by `scan` and
    /// recorded on the first request for the event — and, when the oracle
    /// supplies an audience `key`, only on the first request *of that key*.
    fn audience(
        &self,
        id: EventId,
        key: Option<u64>,
        scan: impl FnOnce() -> Vec<ProcessId>,
    ) -> Arc<Vec<ProcessId>> {
        let mut state = self.state();
        if let Some(audience) = state.audiences.get(&id) {
            return Arc::clone(audience);
        }
        let cached = key.and_then(|key| state.by_key.get(&key).cloned());
        let audience = match cached {
            Some(audience) => {
                state.hits += 1;
                audience
            }
            None => {
                state.misses += 1;
                let audience = Arc::new(scan());
                if let Some(key) = key {
                    state.by_key.insert(key, Arc::clone(&audience));
                }
                audience
            }
        };
        state.audiences.insert(id, Arc::clone(&audience));
        audience
    }

    /// Drops per-event audience entries below the floor.  The hashcons
    /// table is retained — it is bounded by the number of *distinct*
    /// audiences — so a process that first meets a dropped event later
    /// resolves its audience again as a hit.
    fn retire_below(&self, floor: EventId) {
        self.state().audiences.retain(|&id, _| id >= floor);
    }

    /// Hashcons counters: `hits`/`misses` as in
    /// [`pmcast_interest::InternStats`], `live` the number of distinct
    /// audiences interned.
    fn stats(&self) -> InternStats {
        let state = self.state();
        InternStats {
            hits: state.hits,
            misses: state.misses,
            live: state.by_key.len(),
            reclaimed: 0,
        }
    }
}

/// The fanout-candidate pool of a buffered entry, resolved **once** when
/// the entry is accepted, so a gossip round never rebuilds an O(audience)
/// candidate list.
#[derive(Debug, Clone)]
pub(crate) enum Pool {
    /// Flooding: the membership view's peer enumeration (the whole group
    /// minus ourselves under a global view, the bounded partial view under
    /// gossip membership — lpbcast's own rule), re-queried every round; no
    /// O(n) candidate list is ever materialized: `F` distinct indices are
    /// drawn and mapped through `peer_at`.
    View,
    /// Genuine, global membership: the shared audience minus this process,
    /// accessed through an index shift — O(1) extra memory per entry.
    /// `own_pos` is this process's position in the (sorted) audience, if
    /// present.
    Audience {
        audience: Arc<Vec<ProcessId>>,
        own_pos: Option<usize>,
    },
    /// Genuine, partial membership: the audience restricted to the peers
    /// this process knew at accept time, bounded by the membership view
    /// size.
    Known(Vec<ProcessId>),
}

impl Pool {
    /// Number of candidates; `view_len` is the process's current peer count.
    fn len(&self, view_len: impl FnOnce() -> usize) -> usize {
        match self {
            Pool::View => view_len(),
            Pool::Audience { audience, own_pos } => {
                audience.len() - usize::from(own_pos.is_some())
            }
            Pool::Known(list) => list.len(),
        }
    }

    /// The `k`-th candidate of process `own`, `k < len()`.
    fn get(&self, k: usize, membership: &dyn MembershipView, own: usize) -> ProcessId {
        match self {
            Pool::View => ProcessId(membership.peer_at(own, k)),
            Pool::Audience { audience, own_pos } => {
                let index = match own_pos {
                    Some(own) if k >= *own => k + 1,
                    _ => k,
                };
                audience[index]
            }
            Pool::Known(list) => list[k],
        }
    }
}

/// A buffered event: the payload with its round counter and budget (as in
/// the pmcast hot path, this process's one share of the event; forwarding
/// sends its id) plus the candidate pool cached when the entry was accepted.
#[derive(Debug, Clone)]
struct FlatEntry {
    gossip: BufferedGossip,
    pool: Pool,
}

/// The one process body behind both baselines (see the [module docs](self)):
/// named through [`FloodBroadcastProcess`] and [`GenuineMulticastProcess`].
pub struct FlatGossipProcess<P> {
    id: ProcessId,
    group: Rc<FlatGroup<P>>,
    buffered: FxHashMap<EventId, FlatEntry>,
    /// The received identifiers, the delivered ones marked among them.
    ids: EventIdSet,
}

impl<P: FlatPolicy> std::fmt::Debug for FlatGossipProcess<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(P::NAME)
            .field("id", &self.id)
            .field("buffered", &self.buffered.len())
            .finish_non_exhaustive()
    }
}

impl GenuineMulticastProcess {
    /// Hashcons counters of the shared audience directory (hits = keyed
    /// audience resolutions served without a group scan).
    pub fn directory_stats(&self) -> InternStats {
        self.group.policy.directory.stats()
    }
}

impl<P: FlatPolicy> RoundProcess for FlatGossipProcess<P> {
    type Message = Gossip;

    fn on_round(&mut self, ctx: &mut RoundContext<'_, Gossip>) {
        // Nothing buffered → nothing to forward; return before even a
        // membership query so a quiescent round is a pure no-op (the
        // guarantee `RoundProcess::is_quiescent` asks for).
        if self.buffered.is_empty() {
            return;
        }
        let fanout = self.group.config.fanout;
        let membership = &*self.group.membership;
        let own = self.id.0;
        // The view cannot change mid-round: its peer count is queried once
        // per round, not per buffered entry.
        let mut view_len = None;
        // The picks live in the round driver's buffer, lent beside the rest
        // of the context so the sends below can borrow both.
        let (scratch, ctx) = ctx.scratch();
        self.buffered.retain(|_, FlatEntry { gossip, pool }| {
            if !gossip.has_budget() {
                return false;
            }
            gossip.round += 1;
            let len = pool.len(|| *view_len.get_or_insert_with(|| membership.peer_count(own)));
            ctx.choose_indices_into(len, fanout, &mut scratch.candidates);
            // Every gossip of this entry-round is the same message.
            let message = Gossip::new(gossip.event.id(), 1, gossip.rate, gossip.round);
            for &pick in &scratch.candidates {
                ctx.send(pool.get(pick, membership, own), message);
            }
            true
        });
    }

    fn on_message(&mut self, gossip: Gossip, ctx: &mut RoundContext<'_, Gossip>) {
        // The received set doubles as the seen-set: once an event has been
        // buffered (and possibly garbage collected), later copies are
        // ignored so gossiping terminates.  A duplicate reads the id alone.
        if !self.ids.insert(gossip.id) {
            return;
        }
        // A first receipt takes its share of the event from the group's
        // store, and is then handled exactly like one published here;
        // content the store forgot is filed as seen and delivers nothing.
        if let Some(event) = self.group.store.get(gossip.id) {
            if take_in(self, event) {
                ctx.report_delivery(gossip.id.0);
            }
        }
    }

    fn receipt_key(gossip: &Gossip) -> Option<u64> {
        // The first receipt files the id as received, which retiring only
        // grows: every later gossip of the id returns above.
        Some(gossip.id.0)
    }

    fn is_quiescent(&self) -> bool {
        // `on_round` early-returns on an empty buffer — this very
        // condition — without drawing randomness, so the engine skipping
        // quiescent rounds is stream-neutral.
        self.buffered.is_empty()
    }
}

/// Takes in an event `process` has just filed as received, published there
/// or received for the first time: deliver if interested, buffer for
/// forwarding.  Returns whether the event was delivered there for the first
/// time.
fn take_in<P: FlatPolicy>(process: &mut FlatGossipProcess<P>, event: Arc<Event>) -> bool {
    let id = event.id();
    let group = &process.group;
    let delivered = group.oracle.is_interested(group.addresses.index(process.id.0), &event)
        && process.ids.deliver(id);
    let (budget, pool) = P::admit(group, process.id, &event);
    let gossip = BufferedGossip::new(event, 1.0, 0, budget);
    process.buffered.insert(id, FlatEntry { gossip, pool });
    delivered
}

/// Retires `process`'s dedup state below `floor`, clamped to the lowest id
/// still buffered there, and returns the clamped floor.
fn retire<P: FlatPolicy>(process: &mut FlatGossipProcess<P>, floor: EventId) -> EventId {
    let floor = match process.buffered.keys().min() {
        Some(&min) => floor.min(min),
        None => floor,
    };
    process.ids.compact_below(floor);
    process.group.policy.retire_below(floor);
    floor
}

impl<P: FlatPolicy> crate::MulticastProtocol for FlatGossipProcess<P> {
    fn publish(&mut self, event: Arc<Event>) {
        if self.ids.insert(event.id()) {
            self.group.store.admit(&event);
            take_in(self, event);
        }
    }
    fn has_delivered(&self, event: EventId) -> bool {
        self.ids.is_delivered(event)
    }
    fn has_received(&self, event: EventId) -> bool {
        self.ids.contains(event)
    }
    fn address(&self) -> &Address {
        self.group.addresses.get(self.id.0)
    }
    fn space_index(&self) -> u128 {
        self.group.addresses.index(self.id.0)
    }
    fn retire_below(&mut self, floor: EventId) {
        retire(self, floor);
    }
    fn retire_and_forget_below(&mut self, floor: EventId) {
        let floor = retire(self, floor);
        self.group.store.forget_below(floor);
    }
    fn dedup_len(&self) -> usize {
        self.ids.len() + self.ids.delivered_len()
    }
}

/// Crate-internal construction backing [`crate::FloodFactory`] and
/// [`crate::GenuineFactory`].
pub(crate) fn build_flat_group<P: FlatPolicy, T: TreeTopology>(
    topology: &T,
    oracle: Arc<dyn InterestOracle + Send + Sync>,
    membership: Arc<dyn MembershipView>,
    config: &PmcastConfig,
) -> ProtocolGroup<FlatGossipProcess<P>> {
    config.validate();
    let addresses = Addresses::of(topology);
    let group = Rc::new(FlatGroup {
        addresses: addresses.clone(),
        policy: P::for_group(config, &*membership),
        config: config.clone(),
        oracle,
        membership,
        store: EventStore::default(),
    });
    let processes = (0..addresses.member_count())
        .map(|index| FlatGossipProcess {
            id: ProcessId(index),
            group: Rc::clone(&group),
            buffered: FxHashMap::default(),
            ids: EventIdSet::new(),
        })
        .collect();
    ProtocolGroup {
        processes,
        addresses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MulticastProtocol;
    use pmcast_addr::AddressSpace;
    use pmcast_membership::{AssignmentOracle, GlobalOracleView, ImplicitRegularTree, UniformOracle};
    use pmcast_simnet::{FanoutScratch, NetworkConfig, Simulation};

    fn topology() -> ImplicitRegularTree {
        ImplicitRegularTree::new(AddressSpace::regular(2, 4).unwrap())
    }

    fn global_view() -> Arc<dyn MembershipView> {
        Arc::new(GlobalOracleView::new(16))
    }

    fn half_interested_oracle() -> Arc<AssignmentOracle> {
        // Subtrees 0 and 1 are interested (8 of 16 processes).
        let interested: Vec<Address> = (0..2u32)
            .flat_map(|hi| (0..4u32).map(move |lo| Address::from(vec![hi, lo])))
            .collect();
        Arc::new(AssignmentOracle::new(topology().space().clone(), interested))
    }

    fn flood_group(
        oracle: Arc<dyn InterestOracle + Send + Sync>,
        config: &PmcastConfig,
    ) -> ProtocolGroup<FloodBroadcastProcess> {
        build_flat_group(&topology(), oracle, global_view(), config)
    }

    fn genuine_group(
        oracle: Arc<dyn InterestOracle + Send + Sync>,
    ) -> ProtocolGroup<GenuineMulticastProcess> {
        build_flat_group(&topology(), oracle, global_view(), &PmcastConfig::default())
    }

    fn event_with_id(id: u64) -> Event {
        Event::builder(id).build()
    }

    /// The shared audience a genuine process cached for a buffered event.
    fn cached_audience(process: &GenuineMulticastProcess, id: u64) -> Arc<Vec<ProcessId>> {
        match &process.buffered[&EventId(id)].pool {
            Pool::Audience { audience, .. } => Arc::clone(audience),
            other => panic!("global membership caches the shared audience, got {other:?}"),
        }
    }

    #[test]
    fn a_flat_process_is_small_and_keeps_one_id_window() {
        // 88 bytes since the received and the delivered identifiers share
        // one window (112 with two sets of four words): an id, the group's
        // `Rc`, the buffered map and the five-word window.
        assert!(
            std::mem::size_of::<FloodBroadcastProcess>() <= 88,
            "FlatGossipProcess grew to {} bytes",
            std::mem::size_of::<FloodBroadcastProcess>()
        );
        let group = flood_group(half_interested_oracle(), &PmcastConfig::default());
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(4));
        sim.process_mut(ProcessId(0)).publish(Arc::new(event_with_id(3)));
        sim.run_until_quiescent(200);
        // Processes 0.0 to 1.3 are interested: they received and delivered,
        // the others only received, and each id counts once per plane.
        for (id, process) in sim.processes().enumerate() {
            assert!(process.has_received(EventId(3)));
            assert_eq!(process.has_delivered(EventId(3)), id < 8);
            assert_eq!(process.dedup_len(), 1 + usize::from(id < 8));
        }
    }

    #[test]
    fn flood_broadcast_reaches_uninterested_processes_too() {
        let oracle = half_interested_oracle();
        let event = Event::builder(1).build();
        let group = flood_group(oracle.clone(), &PmcastConfig::default());
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(4));
        sim.process_mut(ProcessId(0)).publish(Arc::new(event.clone()));
        sim.run_until_quiescent(200);

        let delivered = sim
            .processes()
            .filter(|p| p.has_delivered(event.id()))
            .count();
        let received = sim
            .processes()
            .filter(|p| p.has_received(event.id()))
            .count();
        // Only interested processes deliver…
        assert_eq!(delivered, 8);
        // …but flooding makes (nearly) everybody receive.
        assert!(received >= 14, "flooding reached only {received}/16");
    }

    #[test]
    fn genuine_multicast_never_touches_uninterested_processes() {
        let oracle = half_interested_oracle();
        let event = Event::builder(2).build();
        let group = genuine_group(oracle.clone());
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(4));
        // The multicaster is an interested process (0.0); accepting the
        // event resolves its audience into the shared directory.
        sim.process_mut(ProcessId(0)).publish(Arc::new(event.clone()));
        sim.run_until_quiescent(200);

        for p in sim.processes() {
            let interested = oracle.is_interested(p.space_index(), &event);
            if interested {
                assert!(p.has_delivered(event.id()), "{} should deliver", p.address());
            } else {
                assert!(
                    !p.has_received(event.id()),
                    "{} should never receive the event",
                    p.address()
                );
            }
        }
    }

    #[test]
    fn flood_broadcast_sends_more_messages_than_genuine_multicast() {
        let oracle = half_interested_oracle();
        let event = Event::builder(3).build();

        let flood = flood_group(oracle.clone(), &PmcastConfig::default());
        let mut flood_sim = Simulation::new(flood.processes, NetworkConfig::reliable(9));
        flood_sim.process_mut(ProcessId(0)).publish(Arc::new(event.clone()));
        flood_sim.run_until_quiescent(200);

        let genuine = genuine_group(oracle);
        let mut genuine_sim = Simulation::new(genuine.processes, NetworkConfig::reliable(9));
        genuine_sim.process_mut(ProcessId(0)).publish(Arc::new(event.clone()));
        genuine_sim.run_until_quiescent(200);

        assert!(
            flood_sim.stats().messages_sent > genuine_sim.stats().messages_sent,
            "flooding ({}) should cost more than genuine multicast ({})",
            flood_sim.stats().messages_sent,
            genuine_sim.stats().messages_sent
        );
    }

    #[test]
    fn broadcast_case_delivers_to_everyone() {
        let oracle = Arc::new(UniformOracle);
        let group = flood_group(oracle, &PmcastConfig::default().with_fanout(3));
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(12));
        sim.process_mut(ProcessId(5)).publish(Arc::new(event_with_id(4)));
        sim.run_until_quiescent(200);
        let delivered = sim
            .processes()
            .filter(|p| p.has_delivered(EventId(4)))
            .count();
        assert_eq!(delivered, 16);
    }

    #[test]
    fn duplicate_events_are_accepted_once() {
        let oracle = Arc::new(UniformOracle);
        let mut group = flood_group(oracle, &PmcastConfig::default());
        let event = Arc::new(Event::builder(5).build());
        group.processes[0].publish(Arc::clone(&event));
        group.processes[0].publish(Arc::clone(&event));
        assert!(group.processes[0].has_delivered(event.id()));
        assert_eq!(group.processes[0].buffered.len(), 1);
        assert!(format!("{:?}", group.processes[0]).starts_with("FloodBroadcastProcess"));
    }

    #[test]
    fn retirement_at_one_process_never_stops_another_from_forwarding() {
        // Every message is lost, so the publisher goes quiescent alone and
        // retires the event — dropping its audience from the *shared*
        // directory — before any other process has seen it.
        let group = genuine_group(half_interested_oracle());
        let event = Arc::new(event_with_id(5));
        let mut sim = Simulation::new(group.processes, NetworkConfig::default().with_loss(1.0));
        sim.process_mut(ProcessId(0)).publish(Arc::clone(&event));
        sim.run_until_quiescent(200);
        sim.process_mut(ProcessId(0)).retire_below(EventId(6));
        let mut late = sim.into_processes().swap_remove(1);
        assert!(!late.has_received(event.id()));

        // A late first receipt at an interested process must still be
        // delivered *and* forwarded: retirement may suppress duplicates,
        // never dissemination.
        let mut outbox = Vec::new();
        let mut rng = rand::SeedableRng::seed_from_u64(1);
        let mut scratch = FanoutScratch::default();
        let mut ctx = RoundContext::external(ProcessId(1), 0, &mut outbox, &mut rng, &mut scratch);
        late.on_message(Gossip::new(event.id(), 1, 1.0, 1), &mut ctx);
        late.on_round(&mut ctx);
        assert!(late.has_delivered(EventId(5)));
        assert_eq!(outbox.len(), PmcastConfig::default().fanout);
        assert!(format!("{late:?}").starts_with("GenuineMulticastProcess"));
    }

    #[test]
    fn keyed_registrations_share_one_audience_allocation() {
        // `AssignmentOracle` ignores the event, so every event carries the
        // same audience key: resolving the second one must clone the first
        // audience instead of rescanning the group.
        let mut group = genuine_group(half_interested_oracle());
        group.processes[0].publish(Arc::new(event_with_id(20)));
        group.processes[1].publish(Arc::new(event_with_id(21)));
        let first = cached_audience(&group.processes[0], 20);
        let second = cached_audience(&group.processes[1], 21);
        assert!(Arc::ptr_eq(&first, &second), "audiences should be hashconsed");
        let stats = group.processes[0].directory_stats();
        assert_eq!((stats.misses, stats.hits, stats.live), (1, 1, 1));
    }

    #[test]
    fn retire_below_bounds_dedup_state_without_reviving_events() {
        let group = genuine_group(half_interested_oracle());
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(4));
        for id in 0..32u64 {
            sim.process_mut(ProcessId(0)).publish(Arc::new(event_with_id(id)));
        }
        sim.run_until_quiescent(400);
        let before = sim.process(ProcessId(0)).dedup_len();
        sim.process_mut(ProcessId(0)).retire_below(EventId(32));
        assert!(sim.process(ProcessId(0)).dedup_len() < before);
        // Per-event directory entries below the floor are gone.
        let directory = &sim.process(ProcessId(0)).group.policy.directory;
        assert!(!directory.state().audiences.contains_key(&EventId(3)));
        // Retired identifiers still dedup: a stale copy is not resurrected.
        sim.process_mut(ProcessId(0)).publish(Arc::new(event_with_id(3)));
        assert_eq!(sim.process(ProcessId(0)).buffered.len(), 0);
    }

    #[test]
    fn publishing_registers_the_audience_automatically() {
        let oracle = half_interested_oracle();
        let event = Event::builder(12).build();
        let group = genuine_group(oracle.clone());
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(6));
        // No up-front event list anywhere: publish alone suffices.
        sim.process_mut(ProcessId(0)).publish(Arc::new(event.clone()));
        sim.run_until_quiescent(200);
        for p in sim.processes() {
            assert_eq!(
                p.has_delivered(event.id()),
                oracle.is_interested(p.space_index(), &event),
                "{}",
                p.address()
            );
        }
    }
}
