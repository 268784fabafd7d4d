//! Membership *providers*: where a process's knowledge of "who else is in
//! the group" comes from.
//!
//! The dissemination protocols never enumerate the group themselves; they
//! draw fanout candidates from a [`MembershipView`].  This is the boundary
//! that turns "a group of `n` known processes" into "a population
//! discovered by gossip": the same protocol code runs against
//!
//! * [`GlobalOracleView`] — every process knows every other process.  This
//!   is the omniscient-membership model the evaluation workloads of the
//!   paper assume, and the default provider.  It is stateless, consumes no
//!   randomness and ignores churn notifications, so a scenario built on it
//!   draws exactly the workload and network streams (the parallel-trial
//!   determinism invariant).
//! * [`PartialView`] — an lpbcast-style gossip membership layer: each
//!   process maintains a **bounded** partial view of the group
//!   ([`PartialViewConfig::view_size`] entries), membership knowledge
//!   spreads by piggybacking subscriptions on periodic gossip exchanges
//!   ([`PartialView::round_elapsed`], driven once per simulation round), and
//!   overflowing entries are evicted uniformly at random.  One entry per
//!   process is special: its **pinned contact**, the live ring successor it
//!   joined through.  The contact is monitored (crash detection) and never
//!   evicted, so the live overlay always contains a ring — every live
//!   process stays reachable by construction, the role HyParView assigns to
//!   its active view, while the remaining entries mix towards the uniform
//!   random bounded views lpbcast's analysis assumes.
//!
//! ## View trait contract
//!
//! Processes are identified by their **dense simulation index**
//! (`0..member_count`, the order of
//! [`TreeTopology::members`](crate::TreeTopology::members)); the provider
//! layer is deliberately independent of addresses so it can sit below any
//! topology.
//!
//! * [`peer_count`](MembershipView::peer_count) /
//!   [`peer_at`](MembershipView::peer_at) enumerate the peers a process
//!   currently knows, **never including the process itself**.  `peer_at(of,
//!   k)` must be a pure function of the view state (no interior RNG), so a
//!   fanout draw of `k` distinct indices in `0..peer_count(of)` maps to `k`
//!   distinct peers.
//! * [`knows_at_depth`](MembershipView::knows_at_depth) is the one
//!   single-peer question: may `of` gossip to `p` in its depth-`depth`
//!   view?  A flat provider has no per-depth structure and answers the
//!   enumeration at every depth: `p == peer_at(of, k)` for some `k`.
//! * **Sampling determinism.** All randomness a provider consumes (view
//!   exchanges, evictions) flows from the seed it was constructed with —
//!   for simulation trials, a stream derived from the per-trial seed (see
//!   the seed contract in `pmcast-sim`'s runner docs) — and never from
//!   shared global state.  Two providers built with the same parameters and
//!   seed go through bit-identical states, which keeps parallel Monte-Carlo
//!   trials bit-identical to sequential ones.
//! * **Eviction rules.** [`observe_leave`](MembershipView::observe_leave)
//!   models an *unsubscription*: the process is evicted from every view
//!   immediately (lpbcast propagates "unsubs" eagerly; a synchronous-round
//!   simulation collapses that propagation into the notification), and
//!   processes whose pinned contact left re-pin to their next live
//!   successor.  [`observe_crash`](MembershipView::observe_crash) only
//!   marks the process dead: a crashed process keeps occupying view entries
//!   until a peer *attempts to contact it* (or, for the monitored pinned
//!   contact, until the next membership round) and evicts it — failure
//!   detection by missed contact, so crash staleness is observable, exactly
//!   the effect partial-membership papers study.
//!   [`observe_join`](MembershipView::observe_join) re-admits a process
//!   through its ring contact.
//! * [`estimated_size`](MembershipView::estimated_size) is the provider's
//!   belief about the number of live processes, used for round-budget
//!   estimation (Pittel's bound needs `n`, or an estimate of it).
//! * **One ask per depth view.**  pmcast asks
//!   [`fill_known_or_whole`](MembershipView::fill_known_or_whole) once per
//!   depth per round, naming the view by its dense id: the answer is the
//!   positions [`knows_at_depth`](MembershipView::knows_at_depth) admits,
//!   or "the whole view but you", written nowhere.  The default asks the
//!   single probe per position, so a provider is correct without
//!   overriding it.  Whatever an override remembers between calls is
//!   derived state: it may be dropped at any time and must be dropped when
//!   what it was computed from changes.
//! * **Summary verdicts** are the caller's to keep.  Under summary routing
//!   pmcast asks [`summary_allows`](MembershipView::summary_allows) once
//!   per run of equal subgroups of a depth view, and its group's event
//!   store keeps the resulting mask per (event content, view) until
//!   [`summary_epoch`](MembershipView::summary_epoch) moves, content being
//!   the event's values on the
//!   [`summary_attributes`](MembershipView::summary_attributes).  A
//!   provider caches no verdict; it moves the epoch.

use std::sync::{Arc, RwLock};

use pmcast_addr::Prefix;
use pmcast_interest::Event;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::population::{ring_predecessor, ring_successor};
use crate::SubtreeSummaries;

/// A process's source of membership knowledge, keyed by dense process
/// index.  See the [module docs](self) for the full contract.
pub trait MembershipView: Send + Sync + std::fmt::Debug {
    /// The provider's estimate of the number of live group members.
    fn estimated_size(&self) -> usize;

    /// Number of peers the process currently knows (itself excluded).
    fn peer_count(&self, of: usize) -> usize;

    /// The `k`-th known peer of the process, `k < peer_count(of)`.
    ///
    /// # Panics
    ///
    /// May panic if `k` is out of range.
    fn peer_at(&self, of: usize, k: usize) -> usize;

    /// Returns `true` if `of` currently knows `peer` as a gossip candidate
    /// **at tree depth `depth`** (1-based, the paper's per-depth views): the
    /// one single-peer question.  Flat providers ([`GlobalOracleView`],
    /// [`PartialView`]) answer their flat view at every depth; the
    /// hierarchical [`DelegateView`](crate::DelegateView) answers from the
    /// slot group of that depth in `O(slots)`.  A peer past the group is
    /// nobody's peer.
    fn knows_at_depth(&self, of: usize, depth: usize, peer: usize) -> bool;

    /// The question the pmcast fanout draw asks once per depth per round:
    /// appends to `out`, strictly ascending, the position within `peers` of
    /// every peer but `of` that [`knows_at_depth`](Self::knows_at_depth)
    /// admits — unless the provider knows the view named `view` **whole**
    /// for `of`: every position but the asker's own.  Returns whether it
    /// does; a whole answer appends nothing and need not read `peers`.
    ///
    /// The default asks `knows_at_depth` per peer and never answers whole.
    /// An override takes its lock once and reuses what consecutive peers
    /// share (one slot-table row, one subgroup's seats), and must list
    /// exactly what the default lists.  pmcast relies on the ascending
    /// order: under summary routing it folds the listing into a mask and
    /// reads the pool back off its set bits (a debug build asserts it).
    ///
    /// `view` is the caller's dense identifier of the depth view (a group's
    /// `SharedViews` numbers them).  The caller vouches that one identifier
    /// always comes with the same `depth` and peers in the same order, only
    /// from processes holding that view (they share their first `depth − 1`
    /// address components), and that the peers are processes of the group.
    /// The name never changes whom `of` knows; it lets a provider remember
    /// a view every holder knows whole, where `of` knows every peer but
    /// itself.  [`GlobalOracleView`] always answers whole, and
    /// [`DelegateView`](crate::DelegateView) does for a view its static
    /// group seats whole — judged on the spot, then read without its lock.
    fn fill_known_or_whole(
        &self,
        of: usize,
        depth: usize,
        _view: u32,
        peers: &mut dyn Iterator<Item = usize>,
        out: &mut Vec<usize>,
    ) -> bool {
        out.extend(
            peers
                .enumerate()
                .filter(|&(_, peer)| peer != of && self.knows_at_depth(of, depth, peer))
                .map(|(position, _)| position),
        );
        false
    }

    /// Returns `true` if every process knows the whole group.  Protocols
    /// whose candidate sets are already subsets of the group (the genuine
    /// baseline's audiences) use this to skip materializing filtered
    /// candidate lists.
    fn is_global(&self) -> bool {
        false
    }

    /// Advances the membership layer by one gossip round (a no-op for
    /// providers that do not maintain state, like [`GlobalOracleView`]).
    fn round_elapsed(&self) {}

    /// Observes a process (re-)joining the group.
    fn observe_join(&self, _process: usize) {}

    /// Observes a graceful leave (an lpbcast "unsub"): the process is
    /// evicted from every view immediately.
    fn observe_leave(&self, _process: usize) {}

    /// Observes a crash: the process is marked dead and evicted lazily, on
    /// the next attempted contact.
    fn observe_crash(&self, _process: usize) {}

    /// Hands the provider the aggregated-interest tables of the group (one
    /// over-approximating [`InterestSummary`](pmcast_interest::InterestSummary)
    /// per subtree).  Providers that carry interest alongside membership —
    /// [`DelegateView`](crate::DelegateView), whose slot groups represent
    /// whole subtrees — store the table and serve
    /// [`summary_allows`](Self::summary_allows) from it; flat providers
    /// ignore the call (they have no subtree structure to hang summaries
    /// on, so their `summary_allows` stays vacuously `true`).
    fn attach_interest_summaries(&self, _summaries: SubtreeSummaries) {}

    /// Returns `true` unless the provider's aggregated interest knowledge
    /// **proves** that no process below `subgroup` wants `event`.
    ///
    /// This is the summary-routing query the pmcast fanout draw asks before
    /// spending a candidate slot on a subtree.  The contract mirrors the
    /// [`InterestSummary`](pmcast_interest::InterestSummary)
    /// over-approximation invariant: `false` is a *proof* of disinterest
    /// (skipping is reliability-safe), `true` is the safe default — a
    /// provider with no summaries attached never causes a skip.  The answer
    /// must be a pure function of the attached tables (no interior RNG), so
    /// routing decisions stay outside the three per-trial random streams.
    fn summary_allows(&self, _subgroup: &Prefix, _event: &Event) -> bool {
        true
    }

    /// A counter that has moved whenever an answer of
    /// [`summary_allows`](Self::summary_allows) may have changed: two reads
    /// returning the same value bracket a span in which every `(subgroup,
    /// event)` pair kept its verdict.  pmcast keeps, per buffered event and
    /// per event content, which view positions the summaries allow
    /// together with the epoch it asked under, and asks again only once
    /// the epoch has moved — so a provider whose verdicts can change
    /// **must** move the epoch with every such change (after making it),
    /// and the default, a constant, is right exactly for a provider whose
    /// verdicts never do (the default `summary_allows` among them).  Every
    /// `u64` is a valid epoch, `u64::MAX` and a wrap to 0 included: readers
    /// compare for equality and keep "never asked" apart from all of them.
    fn summary_epoch(&self) -> u64 {
        0
    }

    /// The attributes [`summary_allows`](Self::summary_allows) reads of an
    /// event, or `None` (the default) if the provider does not name them: a
    /// caller may keep one verdict per (values on these, subgroups asked
    /// about), as pmcast's event store does per depth view.  They change
    /// only with the [`summary_epoch`](Self::summary_epoch).
    fn summary_attributes(&self) -> Option<Arc<[String]>> {
        None
    }
}

/// Global membership knowledge: every process knows every other process.
///
/// The group is a closed set of `n` processes known to everyone.  The view
/// holds no state, consumes no randomness and ignores churn notifications:
/// crashed processes keep their view entries and the network layer drops
/// messages to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalOracleView {
    member_count: usize,
}

impl GlobalOracleView {
    /// Creates the global view of a group with `member_count` processes.
    pub fn new(member_count: usize) -> Self {
        Self { member_count }
    }
}

impl MembershipView for GlobalOracleView {
    fn estimated_size(&self) -> usize {
        self.member_count
    }

    fn peer_count(&self, _of: usize) -> usize {
        self.member_count.saturating_sub(1)
    }

    fn peer_at(&self, of: usize, k: usize) -> usize {
        // Everyone but `of`, in dense-index order: indices at or above the
        // process's own shift up by one.
        if k >= of {
            k + 1
        } else {
            k
        }
    }

    fn knows_at_depth(&self, of: usize, _depth: usize, peer: usize) -> bool {
        peer != of && peer < self.member_count
    }

    /// Everybody knows everybody: every view is known whole.
    fn fill_known_or_whole(
        &self,
        _of: usize,
        _depth: usize,
        _view: u32,
        _peers: &mut dyn Iterator<Item = usize>,
        _out: &mut Vec<usize>,
    ) -> bool {
        true
    }

    fn is_global(&self) -> bool {
        true
    }
}

/// Parameters of the [`PartialView`] gossip membership layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialViewConfig {
    /// Maximum number of peers a process keeps in its view (`ℓ` in
    /// lpbcast); overflowing entries are evicted uniformly at random
    /// (except the pinned ring contact).
    pub view_size: usize,
    /// Number of view peers each process contacts per membership round.
    pub gossip_fanout: usize,
    /// Number of additional view entries piggybacked on each contact
    /// (besides the sender's own subscription).
    pub digest_size: usize,
}

impl Default for PartialViewConfig {
    fn default() -> Self {
        Self {
            view_size: 12,
            gossip_fanout: 3,
            digest_size: 4,
        }
    }
}

impl PartialViewConfig {
    /// Sets the bounded view size, returning the config for chaining.
    pub fn with_view_size(mut self, view_size: usize) -> Self {
        self.view_size = view_size;
        self
    }
}

/// Mutable provider state, behind one lock: the per-process views, the
/// pinned contacts, the liveness map and the provider's own PRNG stream.
#[derive(Debug)]
struct PartialViewState {
    /// `views[i]` holds the dense indices of the peers `i` knows; bounded
    /// by [`PartialViewConfig::view_size`].
    views: Vec<Vec<u32>>,
    /// `contact[i]` is the pinned entry of `views[i]`: `i`'s live ring
    /// successor, monitored and never evicted (see the module docs).
    contact: Vec<u32>,
    alive: Vec<bool>,
    live: usize,
    rng: ChaCha8Rng,
    /// Scratch for the per-contact digest, reused across exchanges.
    digest: Vec<u32>,
}

impl PartialViewState {
    /// Inserts `peer` into `of`'s view, evicting a uniformly random
    /// non-pinned entry if the view overflows its bound.
    fn admit(&mut self, of: usize, peer: u32, bound: usize) {
        if self.views[of].contains(&peer) {
            return;
        }
        self.views[of].push(peer);
        if self.views[of].len() > bound {
            let pinned = self.contact[of];
            loop {
                let evict = self.rng.gen_range(0..self.views[of].len());
                // At most one entry is pinned and the view holds at least
                // two, so this terminates.
                if self.views[of][evict] != pinned {
                    self.views[of].swap_remove(evict);
                    break;
                }
            }
        }
    }

    /// Re-pins `of`'s contact to its current live ring successor and makes
    /// sure that successor is in `of`'s view.
    fn pin_contact(&mut self, of: usize, bound: usize) {
        if let Some(successor) = ring_successor(&self.alive, of) {
            self.contact[of] = successor as u32;
            self.admit(of, successor as u32, bound);
        }
    }
}

/// An lpbcast-style partial membership view with a pinned ring contact
/// (see the [module docs](self) for the contract and eviction rules).
///
/// Bootstrap seeds every process's view with its ring successors — the
/// first of which becomes its pinned contact — so the initial overlay is
/// strongly connected by construction; gossip exchanges then mix the
/// unpinned entries towards uniformly random bounded subsets.
#[derive(Debug)]
pub struct PartialView {
    config: PartialViewConfig,
    state: RwLock<PartialViewState>,
}

impl PartialView {
    /// Bootstraps the views of a fully populated group of `member_count`
    /// processes; all provider randomness (exchange picks, evictions) flows
    /// from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `view_size` or `gossip_fanout` is zero.
    pub fn bootstrap(member_count: usize, config: PartialViewConfig, seed: u64) -> Self {
        Self::bootstrap_sparse(&vec![true; member_count], config, seed)
    }

    /// Bootstraps over a **sparse** population: `occupied[i]` says whether
    /// dense index `i` is a member at round zero.  Occupied processes seed
    /// their views with their nearest occupied ring successors (the first
    /// of which becomes the pinned contact, so the initial overlay is the
    /// ring over the *occupied* subset); absent processes start with empty
    /// views and re-enter through [`observe_join`](MembershipView::observe_join).
    ///
    /// With every slot occupied this is exactly [`bootstrap`](Self::bootstrap)
    /// — same views, same untouched RNG stream — so static scenarios are
    /// unaffected.  Sparse bootstrap itself consumes **no** randomness.
    ///
    /// # Panics
    ///
    /// Panics if `view_size` or `gossip_fanout` is zero.
    pub fn bootstrap_sparse(occupied: &[bool], config: PartialViewConfig, seed: u64) -> Self {
        assert!(config.view_size > 0, "view_size must be positive");
        assert!(config.gossip_fanout > 0, "gossip_fanout must be positive");
        let member_count = occupied.len();
        let live = occupied.iter().filter(|&&o| o).count();
        let initial = config.view_size.min(live.saturating_sub(1));
        let views = (0..member_count)
            .map(|i| {
                if !occupied[i] {
                    return Vec::new();
                }
                (1..member_count)
                    .map(|offset| (i + offset) % member_count)
                    .filter(|&j| occupied[j])
                    .take(initial)
                    .map(|j| j as u32)
                    .collect()
            })
            .collect();
        // With nobody else occupied, the contact is the plain successor.
        let contact = (0..member_count)
            .map(|i| ring_successor(occupied, i).unwrap_or((i + 1) % member_count) as u32)
            .collect();
        Self {
            config,
            state: RwLock::new(PartialViewState {
                views,
                contact,
                alive: occupied.to_vec(),
                live,
                rng: ChaCha8Rng::seed_from_u64(seed),
                digest: Vec::new(),
            }),
        }
    }

    /// Returns `true` if the process is currently believed alive.
    pub fn is_live(&self, process: usize) -> bool {
        self.state.read().expect("partial view lock poisoned").alive[process]
    }
}

impl MembershipView for PartialView {
    fn estimated_size(&self) -> usize {
        self.state.read().expect("partial view lock poisoned").live
    }

    fn peer_count(&self, of: usize) -> usize {
        self.state.read().expect("partial view lock poisoned").views[of].len()
    }

    fn peer_at(&self, of: usize, k: usize) -> usize {
        self.state.read().expect("partial view lock poisoned").views[of][k] as usize
    }

    fn knows_at_depth(&self, of: usize, _depth: usize, peer: usize) -> bool {
        let state = self.state.read().expect("partial view lock poisoned");
        u32::try_from(peer).is_ok_and(|peer| state.views[of].contains(&peer))
    }

    /// One membership gossip round: every live process first checks its
    /// monitored pinned contact (evicting and re-pinning if it crashed),
    /// then pushes to `gossip_fanout` peers from its view; each reachable
    /// target learns the sender's subscription plus a random
    /// `digest_size`-entry digest of the sender's view, and targets found
    /// dead are evicted from the sender's view (failure detection by missed
    /// contact).
    fn round_elapsed(&self) {
        let state = &mut *self.state.write().expect("partial view lock poisoned");
        let bound = self.config.view_size;
        for sender in 0..state.views.len() {
            if !state.alive[sender] {
                continue;
            }
            // The pinned contact is monitored: a crashed contact is
            // detected within one round and the ring re-pins around it.
            let pinned = state.contact[sender] as usize;
            if !state.alive[pinned] {
                state.views[sender].retain(|&peer| peer as usize != pinned);
                state.pin_contact(sender, bound);
            }
            for _ in 0..self.config.gossip_fanout {
                if state.views[sender].is_empty() {
                    break;
                }
                let pick = state.rng.gen_range(0..state.views[sender].len());
                let target = state.views[sender][pick] as usize;
                if !state.alive[target] {
                    state.views[sender].swap_remove(pick);
                    continue;
                }
                // Piggyback the sender's subscription plus a view digest.
                let mut digest = std::mem::take(&mut state.digest);
                digest.clear();
                digest.push(sender as u32);
                for _ in 0..self.config.digest_size {
                    let len = state.views[sender].len();
                    digest.push(state.views[sender][state.rng.gen_range(0..len)]);
                }
                for &peer in digest.iter() {
                    if peer as usize != target && state.alive[peer as usize] {
                        state.admit(target, peer, bound);
                    }
                }
                state.digest = digest;
            }
        }
    }

    fn observe_join(&self, process: usize) {
        let state = &mut *self.state.write().expect("partial view lock poisoned");
        if state.alive[process] {
            return;
        }
        state.alive[process] = true;
        state.live += 1;
        let bound = self.config.view_size;
        // The joiner subscribes through its ring successor; its live ring
        // predecessor re-pins onto it, restoring the exact live ring.
        state.pin_contact(process, bound);
        if let Some(predecessor) = ring_predecessor(&state.alive, process) {
            state.contact[predecessor] = process as u32;
            state.admit(predecessor, process as u32, bound);
        }
    }

    fn observe_leave(&self, process: usize) {
        let state = &mut *self.state.write().expect("partial view lock poisoned");
        if !state.alive[process] {
            return;
        }
        state.alive[process] = false;
        state.live -= 1;
        // An unsub is propagated eagerly: evict the leaver everywhere and
        // re-pin anyone whose ring contact it was.
        for view in &mut state.views {
            view.retain(|&peer| peer as usize != process);
        }
        state.views[process].clear();
        let bound = self.config.view_size;
        for of in 0..state.views.len() {
            if state.alive[of] && state.contact[of] as usize == process {
                state.pin_contact(of, bound);
            }
        }
    }

    fn observe_crash(&self, process: usize) {
        let state = &mut *self.state.write().expect("partial view lock poisoned");
        if !state.alive[process] {
            return;
        }
        state.alive[process] = false;
        state.live -= 1;
        // No eager eviction: peers discover the crash on their next
        // attempted contact (see `round_elapsed`).
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Whether `of`'s flat view lists `peer`, asked of the enumeration.
    pub(crate) fn lists(view: &dyn MembershipView, of: usize, peer: usize) -> bool {
        (0..view.peer_count(of)).any(|k| view.peer_at(of, k) == peer)
    }

    /// Number of *live* processes reachable from `start` over live-to-live
    /// view edges.
    fn reachable_live(view: &PartialView, n: usize, start: usize) -> usize {
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

    #[test]
    fn global_view_enumerates_everyone_but_self() {
        let view = GlobalOracleView::new(5);
        assert_eq!(view.estimated_size(), 5);
        assert_eq!(view.peer_count(2), 4);
        let peers: Vec<usize> = (0..view.peer_count(2)).map(|k| view.peer_at(2, k)).collect();
        assert_eq!(peers, vec![0, 1, 3, 4]);
        assert!(view.knows_at_depth(2, 1, 4));
        assert!(!view.knows_at_depth(2, 1, 2));
        assert!(!view.knows_at_depth(2, 1, 5));
        // Churn notifications and rounds are no-ops.
        view.observe_crash(1);
        view.observe_leave(3);
        view.round_elapsed();
        assert_eq!(view.peer_count(2), 4);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_peer_past_the_group_is_nobody_s_peer() {
        // Process 0 knows peer 1 under every provider: the global view knows
        // everybody, the partial view starts with its ring successors and
        // the 2³ delegate tables seat a leaf neighbour at every depth.  A
        // peer past `u32` must not pass for the peer it wraps to.
        let (n, known) = (8, 1);
        let providers: [(&str, &dyn MembershipView); 3] = [
            ("global", &GlobalOracleView::new(n)),
            ("partial", &PartialView::bootstrap(n, PartialViewConfig::default(), 1)),
            ("delegate", &crate::DelegateView::bootstrap(2, 3, Default::default(), 1)),
        ];
        for (name, view) in providers {
            for depth in 1..=3 {
                assert!(view.knows_at_depth(0, depth, known), "{name} at {depth}");
                for stranger in [n, n + 3, (1 << 32) + known] {
                    assert!(!view.knows_at_depth(0, depth, stranger), "{name} knows {stranger} at {depth}");
                }
            }
        }
    }

    #[test]
    fn default_batched_veto_judges_each_run_of_subgroups_once() {
        /// Vetoes subtree 1 and counts how often it is asked.
        #[derive(Debug)]
        struct Counting(GlobalOracleView, std::sync::atomic::AtomicUsize);
        impl MembershipView for Counting {
            fn estimated_size(&self) -> usize {
                self.0.estimated_size()
            }
            fn peer_count(&self, of: usize) -> usize {
                self.0.peer_count(of)
            }
            fn peer_at(&self, of: usize, k: usize) -> usize {
                self.0.peer_at(of, k)
            }
            fn knows_at_depth(&self, of: usize, depth: usize, peer: usize) -> bool {
                self.0.knows_at_depth(of, depth, peer)
            }
            fn summary_allows(&self, subgroup: &Prefix, _event: &Event) -> bool {
                self.1.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                subgroup.components() != [1]
            }
        }
        let view = Counting(GlobalOracleView::new(9), Default::default());
        let event = Event::builder(1).build();
        let subgroups: Vec<Prefix> = [0, 0, 1, 1, 1, 2, 0]
            .iter()
            .map(|&component| Prefix::from_components(vec![component]))
            .collect();
        let allowed = |view: &dyn MembershipView| -> Vec<usize> {
            let listed = subgroups.iter().enumerate();
            crate::allowed_runs(listed, |subgroup| view.summary_allows(subgroup, &event)).collect()
        };
        assert_eq!(allowed(&view), [0, 1, 5, 6], "every position but the vetoed run");
        assert_eq!(view.1.into_inner(), 4, "one probe per run");
        // A provider without summaries admits everything.
        assert_eq!(allowed(&view.0), [0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn bootstrap_views_are_bounded_and_exclude_self() {
        let config = PartialViewConfig::default().with_view_size(6);
        let view = PartialView::bootstrap(40, config, 1);
        for process in 0..40 {
            assert_eq!(view.peer_count(process), 6);
            for k in 0..view.peer_count(process) {
                assert_ne!(view.peer_at(process, k), process);
            }
            assert!(!lists(&view, process, process));
            assert!(lists(&view, process, (process + 1) % 40), "ring contact present");
        }
        assert_eq!(view.estimated_size(), 40);
    }

    #[test]
    fn tiny_group_views_hold_everyone_else() {
        let view = PartialView::bootstrap(3, PartialViewConfig::default(), 2);
        assert_eq!(view.peer_count(0), 2);
        assert!(lists(&view, 0, 1) && lists(&view, 0, 2));
    }

    #[test]
    fn views_stay_bounded_and_connected_through_gossip() {
        let config = PartialViewConfig {
            view_size: 5,
            gossip_fanout: 3,
            digest_size: 4,
        };
        let view = PartialView::bootstrap(30, config, 7);
        for _ in 0..40 {
            view.round_elapsed();
        }
        for process in 0..30 {
            assert!(view.peer_count(process) <= 5);
            for k in 0..view.peer_count(process) {
                assert_ne!(view.peer_at(process, k), process);
            }
            // The pinned ring contact survives any amount of mixing.
            assert!(lists(&view, process, (process + 1) % 30));
        }
        assert_eq!(reachable_live(&view, 30, 0), 30, "overlay stays connected");
    }

    #[test]
    fn gossip_rounds_are_deterministic_per_seed() {
        let snapshot = |seed: u64| {
            let view = PartialView::bootstrap(25, PartialViewConfig::default(), seed);
            for _ in 0..10 {
                view.round_elapsed();
            }
            (0..25)
                .map(|p| (0..view.peer_count(p)).map(|k| view.peer_at(p, k)).collect())
                .collect::<Vec<Vec<usize>>>()
        };
        assert_eq!(snapshot(9), snapshot(9));
        assert_ne!(snapshot(9), snapshot(10), "different seeds mix differently");
    }

    #[test]
    fn leave_is_evicted_eagerly_crash_lazily() {
        let config = PartialViewConfig::default().with_view_size(8);
        let view = PartialView::bootstrap(20, config, 3);
        view.observe_leave(4);
        assert_eq!(view.estimated_size(), 19);
        assert!(!view.is_live(4));
        for process in 0..20 {
            assert!(!lists(&view, process, 4), "unsub evicts everywhere");
        }
        assert!(lists(&view, 3, 5), "predecessor re-pins past the leaver");

        view.observe_crash(5);
        assert_eq!(view.estimated_size(), 18);
        let still_known = (0..20).filter(|&p| lists(&view, p, 5)).count();
        assert!(still_known > 0, "crashed process lingers until detected");
        for _ in 0..60 {
            view.round_elapsed();
        }
        let after = (0..20).filter(|&p| lists(&view, p, 5)).count();
        assert_eq!(after, 0, "failure detection eventually evicts the crashed process");
        // The live overlay is whole again after the churn.
        assert_eq!(reachable_live(&view, 20, 0), 18);
        // Duplicate notifications are idempotent.
        view.observe_crash(5);
        view.observe_leave(4);
        assert_eq!(view.estimated_size(), 18);
    }

    #[test]
    fn rejoin_reconnects_through_the_ring_contact() {
        let view = PartialView::bootstrap(10, PartialViewConfig::default(), 5);
        view.observe_leave(3);
        view.observe_join(3);
        assert_eq!(view.estimated_size(), 10);
        assert!(lists(&view, 3, 4), "joiner knows its contact");
        assert!(lists(&view, 2, 3), "ring predecessor re-pins onto the joiner");
        // Already-live joins are idempotent.
        view.observe_join(3);
        assert_eq!(view.estimated_size(), 10);
    }

    #[test]
    fn connectivity_survives_heavy_churn() {
        let config = PartialViewConfig {
            view_size: 6,
            gossip_fanout: 2,
            digest_size: 3,
        };
        let view = PartialView::bootstrap(24, config, 11);
        for round in 0..30usize {
            if round % 3 == 0 {
                view.observe_crash((round * 5 + 1) % 24);
            }
            if round % 4 == 0 {
                view.observe_leave((round * 7 + 2) % 24);
            }
            view.round_elapsed();
        }
        // Settle: give failure detection time to repair the ring.
        for _ in 0..5 {
            view.round_elapsed();
        }
        let live: Vec<usize> = (0..24).filter(|&p| view.is_live(p)).collect();
        assert!(live.len() >= 2, "churn left enough of the group alive");
        assert_eq!(
            reachable_live(&view, 24, live[0]),
            live.len(),
            "every live process stays reachable after churn"
        );
    }

    #[test]
    fn sparse_bootstrap_rings_over_the_occupied_subset() {
        let mut occupied = vec![true; 20];
        for absent in [3, 4, 5, 11, 19] {
            occupied[absent] = false;
        }
        let config = PartialViewConfig::default().with_view_size(4);
        let view = PartialView::bootstrap_sparse(&occupied, config, 7);
        assert_eq!(view.estimated_size(), 15);
        for process in 0..20 {
            if !occupied[process] {
                assert_eq!(view.peer_count(process), 0, "absent views start empty");
                assert!(!view.is_live(process));
                continue;
            }
            assert_eq!(view.peer_count(process), 4);
            for k in 0..view.peer_count(process) {
                let peer = view.peer_at(process, k);
                assert!(occupied[peer], "bootstrap never seats an absent peer");
                assert_ne!(peer, process);
            }
        }
        // The pinned contact skips the occupancy gap: 2's ring successor is 6.
        assert!(lists(&view, 2, 6));
        // The live overlay is connected from the start.
        assert_eq!(reachable_live(&view, 20, 0), 15);
        // A gap process joining mid-run re-enters through the ring.
        view.observe_join(4);
        assert_eq!(view.estimated_size(), 16);
        assert!(lists(&view, 4, 6), "joiner pins its occupied ring successor");
        assert!(lists(&view, 2, 4), "ring predecessor re-pins onto the joiner");
        // Sparse bootstrap over a fully occupied group is the plain
        // bootstrap, state for state.
        let full = PartialView::bootstrap(9, PartialViewConfig::default(), 3);
        let sparse_full =
            PartialView::bootstrap_sparse(&[true; 9], PartialViewConfig::default(), 3);
        for p in 0..9 {
            let peers = |v: &PartialView| -> Vec<usize> {
                (0..v.peer_count(p)).map(|k| v.peer_at(p, k)).collect()
            };
            assert_eq!(peers(&full), peers(&sparse_full));
        }
    }

    #[test]
    #[should_panic(expected = "view_size must be positive")]
    fn zero_view_size_is_rejected() {
        let config = PartialViewConfig {
            view_size: 0,
            gossip_fanout: 1,
            digest_size: 1,
        };
        let _ = PartialView::bootstrap(4, config, 0);
    }
}
