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
//! Both baselines run over the same [`pmcast_simnet`] substrate and the same
//! interest oracles as pmcast, and both implement
//! [`MulticastProtocol`](crate::MulticastProtocol) /
//! [`crate::ProtocolFactory`], so the comparison isolates the dissemination
//! strategy itself: the simulation harness drives all protocols through one
//! generic code path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use pmcast_addr::Address;
use pmcast_analysis::pittel;
use pmcast_interest::{Event, EventId, EventIdSet, InternStats};
use pmcast_membership::{InterestOracle, MembershipView, TreeTopology};
use pmcast_simnet::{Activity, ProcessId, RoundContext, RoundProcess};
use rustc_hash::FxHashMap;

use crate::{DeliveryOutcome, Gossip, PmcastConfig, ProtocolGroup};

/// Shared state of a buffered event in the flooding protocol.  As in the
/// pmcast hot path, the event is held through an [`Arc`] so forwarding never
/// copies the payload.
#[derive(Debug, Clone)]
struct FlatEntry {
    event: Arc<Event>,
    round: u32,
    budget: u32,
}

/// Gossip **broadcast** with filtering on delivery: every process forwards
/// every fresh event to `F` uniformly random members of the whole group for
/// the Pittel-bounded number of rounds; interest only decides whether the
/// event is delivered locally.
pub struct FloodBroadcastProcess {
    address: Address,
    id: ProcessId,
    fanout: usize,
    budget: u32,
    oracle: Arc<dyn InterestOracle + Send + Sync>,
    membership: Arc<dyn MembershipView>,
    buffered: FxHashMap<EventId, FlatEntry>,
    delivered: EventIdSet,
    received: EventIdSet,
}

impl std::fmt::Debug for FloodBroadcastProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FloodBroadcastProcess")
            .field("address", &self.address)
            .field("buffered", &self.buffered.len())
            .finish_non_exhaustive()
    }
}

impl FloodBroadcastProcess {
    /// Creates one flood-broadcast process; the round budget is estimated
    /// from the membership provider's current group-size belief.
    pub fn new(
        address: Address,
        id: ProcessId,
        config: &PmcastConfig,
        oracle: Arc<dyn InterestOracle + Send + Sync>,
        membership: Arc<dyn MembershipView>,
    ) -> Self {
        let group_size = membership.estimated_size();
        let budget = pittel::round_budget(group_size as f64, config.fanout as f64, &config.env)
            .min(config.max_rounds_per_depth);
        Self {
            address,
            id,
            fanout: config.fanout,
            budget,
            oracle,
            membership,
            buffered: FxHashMap::default(),
            delivered: EventIdSet::new(),
            received: EventIdSet::new(),
        }
    }

    /// Publishes an event into the broadcast (convenience wrapper around
    /// [`publish`](Self::publish)).
    pub fn broadcast(&mut self, event: Event) {
        self.publish(Arc::new(event));
    }

    /// Publishes an already-shared event (the [`crate::MulticastProtocol`]
    /// entry point).  Duplicates are ignored.
    pub fn publish(&mut self, event: Arc<Event>) {
        self.accept(event);
    }

    fn accept(&mut self, event: Arc<Event>) {
        let id = event.id();
        // `received` doubles as the seen-set: once an event has been
        // buffered (and possibly garbage collected), later copies are
        // ignored so gossiping terminates.
        if !self.received.insert(id) {
            return;
        }
        if self.oracle.is_interested(&self.address, &event) {
            self.delivered.insert(id);
        }
        self.buffered.insert(
            id,
            FlatEntry {
                event,
                round: 0,
                budget: self.budget,
            },
        );
    }

    /// Returns `true` if the event was delivered locally.
    pub fn has_delivered(&self, event: EventId) -> bool {
        self.delivered.contains(event)
    }

    /// Returns `true` if the event was received at all.
    pub fn has_received(&self, event: EventId) -> bool {
        self.received.contains(event)
    }

    /// The process address.
    pub fn address(&self) -> &Address {
        &self.address
    }
}

impl RoundProcess for FloodBroadcastProcess {
    type Message = Gossip;

    fn on_round(&mut self, ctx: &mut RoundContext<'_, Gossip>) {
        // Nothing buffered → nothing to forward; return before even the
        // membership query so a quiescent round is a pure no-op (the
        // guarantee behind this process's `Activity::SkipWhenQuiescent`).
        if self.buffered.is_empty() {
            return;
        }
        // The target pool is the membership view's peer enumeration (the
        // whole group minus ourselves under a global view, the bounded
        // partial view under gossip membership — lpbcast's own rule); no
        // O(n) candidate list is ever materialized: F distinct indices are
        // drawn and mapped through `peer_at`.
        let fanout = self.fanout;
        let own = self.id.0;
        let membership = Arc::clone(&self.membership);
        // The view cannot change mid-round: query the pool once per round,
        // not per buffered entry.
        let pool = membership.peer_count(own);
        // The picks live in the round driver's buffer, moved out so the
        // sends below can borrow `ctx`.
        let mut scratch = std::mem::take(ctx.scratch());
        self.buffered.retain(|_, entry| {
            if entry.round >= entry.budget {
                return false;
            }
            entry.round += 1;
            ctx.choose_indices_into(pool, fanout, &mut scratch.candidates);
            for &pick in &scratch.candidates {
                let target = membership.peer_at(own, pick);
                let gossip = Gossip::new(Arc::clone(&entry.event), 1, 1.0, entry.round);
                let size = gossip.wire_size();
                ctx.send_sized(ProcessId(target), gossip, size);
            }
            true
        });
        *ctx.scratch() = scratch;
    }

    fn on_message(&mut self, _from: ProcessId, gossip: Gossip, _ctx: &mut RoundContext<'_, Gossip>) {
        self.accept(gossip.event);
    }

    fn is_quiescent(&self) -> bool {
        self.buffered.is_empty()
    }

    fn activity(&self) -> Activity {
        // `on_round` early-returns on an empty buffer — the quiescence
        // condition — without drawing randomness, so skipping quiescent
        // rounds is stream-neutral.
        Activity::SkipWhenQuiescent
    }
}

impl DeliveryOutcome for FloodBroadcastProcess {
    fn outcome_address(&self) -> &Address {
        &self.address
    }
    fn outcome_delivered(&self, event: EventId) -> bool {
        self.has_delivered(event)
    }
    fn outcome_received(&self, event: EventId) -> bool {
        self.has_received(event)
    }
}

impl crate::MulticastProtocol for FloodBroadcastProcess {
    fn publish(&mut self, event: Arc<Event>) {
        FloodBroadcastProcess::publish(self, event);
    }
    fn has_delivered(&self, event: EventId) -> bool {
        FloodBroadcastProcess::has_delivered(self, event)
    }
    fn has_received(&self, event: EventId) -> bool {
        FloodBroadcastProcess::has_received(self, event)
    }
    fn address(&self) -> &Address {
        FloodBroadcastProcess::address(self)
    }
    fn retire_below(&mut self, floor: EventId) {
        let floor = match self.buffered.keys().min() {
            Some(&min) => floor.min(min),
            None => floor,
        };
        self.delivered.compact_below(floor);
        self.received.compact_below(floor);
    }
    fn dedup_len(&self) -> usize {
        self.delivered.len() + self.received.len()
    }
}

/// Crate-internal construction backing [`crate::FloodFactory`].
pub(crate) fn build_flood_group_internal<T: TreeTopology>(
    topology: &T,
    oracle: Arc<dyn InterestOracle + Send + Sync>,
    membership: Arc<dyn MembershipView>,
    config: &PmcastConfig,
) -> ProtocolGroup<FloodBroadcastProcess> {
    config.validate();
    let addresses = Arc::new(topology.members());
    let processes = addresses
        .iter()
        .enumerate()
        .map(|(index, address)| {
            FloodBroadcastProcess::new(
                address.clone(),
                ProcessId(index),
                config,
                Arc::clone(&oracle),
                Arc::clone(&membership),
            )
        })
        .collect();
    ProtocolGroup {
        processes,
        addresses,
    }
}

/// The shared per-event audience directory of the genuine baseline: for
/// every *registered* event, the dense identifiers of the interested
/// processes.
///
/// This models the global interest knowledge the paper deems unrealistic —
/// which is the point of the comparison.  Events enter the directory through
/// [`GenuineMulticastProcess::register_event`] (publishing registers
/// automatically); audiences are resolved once at registration and then
/// shared behind an [`Arc`], so the round loop never touches the lock.
///
/// Audiences are additionally **hashconsed** by the oracle's
/// [`audience_key`](InterestOracle::audience_key): two events with the same
/// key provably share an audience, so registering the second one clones the
/// first one's [`Arc`] — no group rescan, no allocation.  Under a heavy
/// multi-topic workload (10k events over 50 topics) the directory therefore
/// builds ~50 audience vectors instead of 10k.
#[derive(Debug, Default)]
struct EventDirectory {
    audiences: RwLock<FxHashMap<EventId, Arc<Vec<ProcessId>>>>,
    /// Hashcons table: audience key → the one shared audience vector.
    by_key: RwLock<FxHashMap<u64, Arc<Vec<ProcessId>>>>,
    /// Keyed registrations served from `by_key` without a build.
    hits: AtomicU64,
    /// Registrations that had to scan the group and allocate.
    misses: AtomicU64,
}

impl EventDirectory {
    /// The audience of a registered event, if any.
    fn lookup(&self, id: EventId) -> Option<Arc<Vec<ProcessId>>> {
        self.audiences
            .read()
            .expect("event directory lock poisoned")
            .get(&id)
            .cloned()
    }

    /// Registers an event's audience, computing it only on first
    /// registration (idempotent) — and, when the oracle supplies an
    /// audience `key`, only on the first registration *of that key*.
    fn register(&self, id: EventId, key: Option<u64>, audience: impl FnOnce() -> Vec<ProcessId>) {
        if self
            .audiences
            .read()
            .expect("event directory lock poisoned")
            .contains_key(&id)
        {
            return;
        }
        let shared = match key {
            Some(key) => {
                let cached = self
                    .by_key
                    .read()
                    .expect("event directory lock poisoned")
                    .get(&key)
                    .cloned();
                match cached {
                    Some(shared) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        shared
                    }
                    None => {
                        let mut by_key =
                            self.by_key.write().expect("event directory lock poisoned");
                        match by_key.entry(key) {
                            std::collections::hash_map::Entry::Occupied(entry) => {
                                self.hits.fetch_add(1, Ordering::Relaxed);
                                Arc::clone(entry.get())
                            }
                            std::collections::hash_map::Entry::Vacant(entry) => {
                                self.misses.fetch_add(1, Ordering::Relaxed);
                                Arc::clone(entry.insert(Arc::new(audience())))
                            }
                        }
                    }
                }
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Arc::new(audience())
            }
        };
        self.audiences
            .write()
            .expect("event directory lock poisoned")
            .entry(id)
            .or_insert(shared);
    }

    /// Drops per-event audience entries below the floor.  The hashcons
    /// table is retained — it is bounded by the number of *distinct*
    /// audiences, and future events with a known key keep hitting it.
    fn retire_below(&self, floor: EventId) {
        self.audiences
            .write()
            .expect("event directory lock poisoned")
            .retain(|&id, _| id >= floor);
    }

    /// Hashcons counters: `hits`/`misses` as in
    /// [`pmcast_interest::InternStats`], `live` the number of distinct
    /// audiences interned.
    fn stats(&self) -> InternStats {
        InternStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            live: self
                .by_key
                .read()
                .expect("event directory lock poisoned")
                .len(),
            reclaimed: 0,
        }
    }
}

/// The cached fanout-candidate set of a buffered genuine-multicast entry,
/// resolved **once** when the entry is accepted — the per-round
/// O(audience) candidate rebuild this replaces was a ROADMAP open item
/// (guarded by the `genuine_rounds_n512` micro-bench case).
#[derive(Debug, Clone)]
enum GenuineCandidates {
    /// The event was never registered: nobody to forward to; the entry is
    /// garbage collected on its first round.
    Unknown,
    /// Global membership: the shared audience minus this process, accessed
    /// through an index shift — O(1) extra memory per entry.  `own_pos` is
    /// this process's position in the (sorted) audience, if present.
    Audience {
        audience: Arc<Vec<ProcessId>>,
        own_pos: Option<usize>,
    },
    /// Partial membership: the audience restricted to the peers this
    /// process knew at accept time, bounded by the membership view size.
    Known(Vec<ProcessId>),
}

impl GenuineCandidates {
    fn len(&self) -> usize {
        match self {
            GenuineCandidates::Unknown => 0,
            GenuineCandidates::Audience { audience, own_pos } => {
                audience.len() - usize::from(own_pos.is_some())
            }
            GenuineCandidates::Known(list) => list.len(),
        }
    }

    /// The `k`-th candidate, `k < len()`.
    fn get(&self, k: usize) -> ProcessId {
        match self {
            GenuineCandidates::Unknown => unreachable!("no candidates to index"),
            GenuineCandidates::Audience { audience, own_pos } => {
                let index = match own_pos {
                    Some(own) if k >= *own => k + 1,
                    _ => k,
                };
                audience[index]
            }
            GenuineCandidates::Known(list) => list[k],
        }
    }

    /// Whether the entry may be forwarded at all (its event is known to
    /// the directory).
    fn forwardable(&self) -> bool {
        !matches!(self, GenuineCandidates::Unknown)
    }
}

/// Shared state of a buffered event in the genuine multicast: the payload
/// plus the candidate set cached when the entry was accepted.
#[derive(Debug, Clone)]
struct GenuineEntry {
    event: Arc<Event>,
    round: u32,
    budget: u32,
    candidates: GenuineCandidates,
}

/// Genuine multicast: gossip only among the processes interested in the
/// event, assuming (optimistically) that every process knows exactly which
/// other processes are interested.
pub struct GenuineMulticastProcess {
    address: Address,
    id: ProcessId,
    fanout: usize,
    max_rounds: u32,
    env: pmcast_analysis::EnvParams,
    oracle: Arc<dyn InterestOracle + Send + Sync>,
    membership: Arc<dyn MembershipView>,
    /// Member addresses in dense-identifier order, for audience resolution.
    addresses: Arc<Vec<Address>>,
    /// Interested peers per event, shared by the whole group.
    directory: Arc<EventDirectory>,
    buffered: FxHashMap<EventId, GenuineEntry>,
    delivered: EventIdSet,
    received: EventIdSet,
}

impl std::fmt::Debug for GenuineMulticastProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GenuineMulticastProcess")
            .field("address", &self.address)
            .field("buffered", &self.buffered.len())
            .finish_non_exhaustive()
    }
}

impl GenuineMulticastProcess {
    fn budget_for(&self, audience: usize) -> u32 {
        pittel::round_budget(audience as f64, self.fanout as f64, &self.env).min(self.max_rounds)
    }

    /// Resolves the event's audience into the shared directory (idempotent;
    /// the [`crate::MulticastProtocol`] pre-registration hook).  When the
    /// oracle supplies an [`audience_key`](InterestOracle::audience_key),
    /// repeated keys share one audience allocation and skip the group scan.
    pub fn register_event(&mut self, event: &Event) {
        let directory = Arc::clone(&self.directory);
        directory.register(event.id(), self.oracle.audience_key(event), || {
            self.addresses
                .iter()
                .enumerate()
                .filter(|(_, address)| self.oracle.is_interested(address, event))
                .map(|(index, _)| ProcessId(index))
                .collect()
        });
    }

    /// Hashcons counters of the shared audience directory (hits = keyed
    /// registrations served without a group scan).
    pub fn directory_stats(&self) -> InternStats {
        self.directory.stats()
    }

    fn accept(&mut self, event: Arc<Event>) {
        let id = event.id();
        // As for the flooding baseline, the received set doubles as the
        // seen-set so garbage-collected events are not resurrected.
        if !self.received.insert(id) {
            return;
        }
        if self.oracle.is_interested(&self.address, &event) {
            self.delivered.insert(id);
        }
        let audience = self.directory.lookup(id);
        let budget = self.budget_for(audience.as_ref().map(|a| a.len()).unwrap_or(0));
        // Resolve the candidate set once: the round loop only indexes it.
        let candidates = match audience {
            None => GenuineCandidates::Unknown,
            Some(audience) => {
                if self.membership.is_global() {
                    // Audiences are sorted by dense identifier, so "minus
                    // ourselves" is an index shift, not a filtered copy.
                    let own_pos = audience.binary_search(&self.id).ok();
                    GenuineCandidates::Audience { audience, own_pos }
                } else {
                    // Partial knowledge: enumerate the (bounded) view and
                    // keep the peers that are in the audience.
                    let own = self.id.0;
                    let known = (0..self.membership.peer_count(own))
                        .map(|k| ProcessId(self.membership.peer_at(own, k)))
                        .filter(|peer| audience.binary_search(peer).is_ok())
                        .collect();
                    GenuineCandidates::Known(known)
                }
            }
        };
        self.buffered.insert(
            id,
            GenuineEntry {
                event,
                round: 0,
                budget,
                candidates,
            },
        );
    }

    /// Publishes an event into the genuine multicast (convenience wrapper
    /// around [`publish`](Self::publish)).
    pub fn multicast(&mut self, event: Event) {
        self.publish(Arc::new(event));
    }

    /// Publishes an already-shared event (the [`crate::MulticastProtocol`]
    /// entry point): registers its audience in the shared directory, then
    /// starts gossiping it.  Duplicates are ignored.
    pub fn publish(&mut self, event: Arc<Event>) {
        self.register_event(&event);
        self.accept(event);
    }

    /// Returns `true` if the event was delivered locally.
    pub fn has_delivered(&self, event: EventId) -> bool {
        self.delivered.contains(event)
    }

    /// Returns `true` if the event was received at all.
    pub fn has_received(&self, event: EventId) -> bool {
        self.received.contains(event)
    }

    /// The process address.
    pub fn address(&self) -> &Address {
        &self.address
    }
}

impl RoundProcess for GenuineMulticastProcess {
    type Message = Gossip;

    fn on_round(&mut self, ctx: &mut RoundContext<'_, Gossip>) {
        let fanout = self.fanout;
        let mut scratch = std::mem::take(ctx.scratch());
        self.buffered.retain(|_, entry| {
            if entry.round >= entry.budget {
                return false;
            }
            entry.round += 1;
            // Candidates were cached when the entry was accepted; an
            // unregistered event has nobody to go to.
            if !entry.candidates.forwardable() {
                return false;
            }
            ctx.choose_indices_into(entry.candidates.len(), fanout, &mut scratch.candidates);
            for &pick in &scratch.candidates {
                let gossip = Gossip::new(Arc::clone(&entry.event), 1, 1.0, entry.round);
                let size = gossip.wire_size();
                ctx.send_sized(entry.candidates.get(pick), gossip, size);
            }
            true
        });
        *ctx.scratch() = scratch;
    }

    fn on_message(&mut self, _from: ProcessId, gossip: Gossip, _ctx: &mut RoundContext<'_, Gossip>) {
        self.accept(gossip.event);
    }

    fn is_quiescent(&self) -> bool {
        self.buffered.is_empty()
    }

    fn activity(&self) -> Activity {
        // An empty buffer makes `on_round`'s retain a no-op over nothing:
        // no sends, no RNG draws — quiescent rounds are safely skippable.
        Activity::SkipWhenQuiescent
    }
}

impl DeliveryOutcome for GenuineMulticastProcess {
    fn outcome_address(&self) -> &Address {
        &self.address
    }
    fn outcome_delivered(&self, event: EventId) -> bool {
        self.has_delivered(event)
    }
    fn outcome_received(&self, event: EventId) -> bool {
        self.has_received(event)
    }
}

impl crate::MulticastProtocol for GenuineMulticastProcess {
    fn publish(&mut self, event: Arc<Event>) {
        GenuineMulticastProcess::publish(self, event);
    }
    fn register_event(&mut self, event: &Event) {
        GenuineMulticastProcess::register_event(self, event);
    }
    fn has_delivered(&self, event: EventId) -> bool {
        GenuineMulticastProcess::has_delivered(self, event)
    }
    fn has_received(&self, event: EventId) -> bool {
        GenuineMulticastProcess::has_received(self, event)
    }
    fn address(&self) -> &Address {
        GenuineMulticastProcess::address(self)
    }
    fn retire_below(&mut self, floor: EventId) {
        let floor = match self.buffered.keys().min() {
            Some(&min) => floor.min(min),
            None => floor,
        };
        self.delivered.compact_below(floor);
        self.received.compact_below(floor);
        // The shared directory drops the per-event audience entries too
        // (its hashcons table stays — bounded by distinct audiences).
        self.directory.retire_below(floor);
    }
    fn dedup_len(&self) -> usize {
        self.delivered.len() + self.received.len()
    }
}

/// Crate-internal construction backing [`crate::GenuineFactory`].
pub(crate) fn build_genuine_group_internal<T: TreeTopology>(
    topology: &T,
    oracle: Arc<dyn InterestOracle + Send + Sync>,
    membership: Arc<dyn MembershipView>,
    config: &PmcastConfig,
) -> ProtocolGroup<GenuineMulticastProcess> {
    config.validate();
    let addresses = Arc::new(topology.members());
    let directory = Arc::new(EventDirectory::default());
    let processes = addresses
        .iter()
        .enumerate()
        .map(|(index, address)| GenuineMulticastProcess {
            address: address.clone(),
            id: ProcessId(index),
            fanout: config.fanout,
            max_rounds: config.max_rounds_per_depth,
            env: config.env,
            oracle: Arc::clone(&oracle),
            membership: Arc::clone(&membership),
            addresses: Arc::clone(&addresses),
            directory: Arc::clone(&directory),
            buffered: FxHashMap::default(),
            delivered: EventIdSet::new(),
            received: EventIdSet::new(),
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
    use pmcast_addr::AddressSpace;
    use pmcast_membership::{AssignmentOracle, GlobalOracleView, ImplicitRegularTree, UniformOracle};
    use pmcast_simnet::{NetworkConfig, Simulation};

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
        Arc::new(AssignmentOracle::new(interested))
    }

    #[test]
    fn flood_broadcast_reaches_uninterested_processes_too() {
        let topology = topology();
        let oracle = half_interested_oracle();
        let event = Event::builder(1).build();
        let group = build_flood_group_internal(&topology, oracle.clone(), global_view(), &PmcastConfig::default());
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(4));
        sim.process_mut(ProcessId(0)).broadcast(event.clone());
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
        let topology = topology();
        let oracle = half_interested_oracle();
        let event = Event::builder(2).build();
        let group =
            build_genuine_group_internal(&topology, oracle.clone(), global_view(), &PmcastConfig::default());
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(4));
        // The multicaster is an interested process (0.0); publishing
        // registers the audience in the shared directory.
        sim.process_mut(ProcessId(0)).multicast(event.clone());
        sim.run_until_quiescent(200);

        for p in sim.processes() {
            let interested = oracle.is_interested(p.address(), &event);
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
        let topology = topology();
        let oracle = half_interested_oracle();
        let event = Event::builder(3).build();

        let flood = build_flood_group_internal(&topology, oracle.clone(), global_view(), &PmcastConfig::default());
        let mut flood_sim = Simulation::new(flood.processes, NetworkConfig::reliable(9));
        flood_sim.process_mut(ProcessId(0)).broadcast(event.clone());
        flood_sim.run_until_quiescent(200);

        let genuine = build_genuine_group_internal(&topology, oracle, global_view(), &PmcastConfig::default());
        let mut genuine_sim = Simulation::new(genuine.processes, NetworkConfig::reliable(9));
        genuine_sim.process_mut(ProcessId(0)).multicast(event.clone());
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
        let topology = topology();
        let oracle: Arc<dyn InterestOracle + Send + Sync> = Arc::new(UniformOracle::new(16));
        let group =
            build_flood_group_internal(&topology, oracle, global_view(), &PmcastConfig::default().with_fanout(3));
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(12));
        sim.process_mut(ProcessId(5)).broadcast(event_with_id(4));
        sim.run_until_quiescent(200);
        let delivered = sim
            .processes()
            .filter(|p| p.has_delivered(event_with_id(4).id()))
            .count();
        assert_eq!(delivered, 16);
    }

    fn event_with_id(id: u64) -> Event {
        Event::builder(id).build()
    }

    #[test]
    fn duplicate_events_are_accepted_once() {
        let topology = topology();
        let oracle: Arc<dyn InterestOracle + Send + Sync> = Arc::new(UniformOracle::new(16));
        let mut group = build_flood_group_internal(&topology, oracle, global_view(), &PmcastConfig::default());
        let event = Event::builder(5).build();
        group.processes[0].broadcast(event.clone());
        group.processes[0].broadcast(event.clone());
        assert!(group.processes[0].has_delivered(event.id()));
        assert_eq!(group.processes[0].buffered.len(), 1);
        assert!(!format!("{:?}", group.processes[0]).is_empty());
    }

    #[test]
    fn unregistered_events_cannot_spread_in_the_genuine_multicast() {
        // Restricting the directory models the paper's partial-knowledge
        // argument: without audience knowledge an event cannot be forwarded.
        let topology = topology();
        let oracle = half_interested_oracle();
        let known = Event::builder(10).build();
        let unknown = Event::builder(11).build();
        let mut group = build_genuine_group_internal(&topology, oracle, global_view(), &PmcastConfig::default());
        group.processes[0].register_event(&known);
        // Bypass `publish` (which would register) to model a process that
        // holds an event the directory knows nothing about.
        group.processes[0].accept(Arc::new(unknown.clone()));
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(2));
        sim.run_until_quiescent(50);
        let received = sim
            .processes()
            .filter(|p| p.has_received(unknown.id()))
            .count();
        assert_eq!(received, 1);
        assert!(!format!("{:?}", sim.process(ProcessId(0))).is_empty());
    }

    #[test]
    fn keyed_registrations_share_one_audience_allocation() {
        // `AssignmentOracle` ignores the event, so every event carries the
        // same audience key: the second registration must clone the first
        // audience instead of rescanning the group.
        let topology = topology();
        let oracle = half_interested_oracle();
        let mut group = build_genuine_group_internal(&topology, oracle, global_view(), &PmcastConfig::default());
        group.processes[0].register_event(&event_with_id(20));
        group.processes[1].register_event(&event_with_id(21));
        let first = group.processes[0].directory.lookup(EventId(20)).unwrap();
        let second = group.processes[0].directory.lookup(EventId(21)).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "audiences should be hashconsed");
        let stats = group.processes[0].directory_stats();
        assert_eq!((stats.misses, stats.hits, stats.live), (1, 1, 1));
    }

    #[test]
    fn retire_below_bounds_dedup_state_without_reviving_events() {
        use crate::MulticastProtocol;
        let topology = topology();
        let oracle = half_interested_oracle();
        let group = build_genuine_group_internal(&topology, oracle, global_view(), &PmcastConfig::default());
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(4));
        for id in 0..32u64 {
            sim.process_mut(ProcessId(0)).multicast(event_with_id(id));
        }
        sim.run_until_quiescent(400);
        let before = sim.process(ProcessId(0)).dedup_len();
        sim.process_mut(ProcessId(0)).retire_below(EventId(32));
        assert!(sim.process(ProcessId(0)).dedup_len() < before);
        // Per-event directory entries below the floor are gone.
        assert!(sim.process(ProcessId(0)).directory.lookup(EventId(3)).is_none());
        // Retired identifiers still dedup: a stale copy is not resurrected
        // (re-registering its audience is harmless — it hits the hashcons).
        sim.process_mut(ProcessId(0)).publish(Arc::new(event_with_id(3)));
        assert_eq!(sim.process(ProcessId(0)).buffered.len(), 0);
    }

    #[test]
    fn publishing_registers_the_audience_automatically() {
        let topology = topology();
        let oracle = half_interested_oracle();
        let event = Event::builder(12).build();
        let group = build_genuine_group_internal(&topology, oracle.clone(), global_view(), &PmcastConfig::default());
        let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(6));
        // No up-front event list anywhere: publish alone suffices.
        sim.process_mut(ProcessId(0)).publish(Arc::new(event.clone()));
        sim.run_until_quiescent(200);
        for p in sim.processes() {
            assert_eq!(
                p.has_delivered(event.id()),
                oracle.is_interested(p.address(), &event),
                "{}",
                p.address()
            );
        }
    }


}
