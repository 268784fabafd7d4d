//! Property-based tests for the membership tree.
//!
//! The central invariants:
//!
//! * delegate election is deterministic and agrees between the explicit
//!   [`GroupTree`] and the arithmetic [`ImplicitRegularTree`] whenever the
//!   group is fully populated;
//! * join/leave bookkeeping (subtree counts, populated children) always
//!   matches a from-scratch recomputation;
//! * view sizes follow Equation 2 for fully populated regular trees;
//! * [`DelegateView`] under any interleaving of lifecycle observations and
//!   rounds is, step for step, the state machine in [`reference`] — tables,
//!   flat views, contacts and stream position — although its rounds skip
//!   settled tables and it stores no table until somebody flips or a flat
//!   view is asked for; its certificate only ever covers tables equal to
//!   the seat rule (the first `capacity` live members of each subgroup),
//!   and comes back for everybody once the churn stops;
//! * a depth view asked about *by name* answers exactly as the single
//!   probe, for every process holding it, before and after the tables
//!   exist.

mod reference;

use pmcast_addr::{Address, AddressSpace, Prefix};
use pmcast_interest::{Filter, Predicate};
use pmcast_membership::{
    DelegateView, DelegateViewConfig, GroupTree, ImplicitRegularTree, MembershipView,
    TreeTopology,
};
use proptest::prelude::*;
use reference::ReferenceDelegateView;

/// A small address-space shape plus a subset of its addresses.
fn arb_population() -> impl Strategy<Value = (AddressSpace, Vec<Address>)> {
    (2u32..5, 2usize..4).prop_flat_map(|(arity, depth)| {
        let space = AddressSpace::regular(depth, arity).expect("valid shape");
        let capacity = space.capacity() as usize;
        let space_for_map = space.clone();
        prop::collection::btree_set(0..capacity, 1..capacity.min(40))
            .prop_map(move |indices| {
                let members: Vec<Address> = indices
                    .into_iter()
                    .map(|index| space_for_map.address_of_index(index as u128))
                    .collect();
                (space_for_map.clone(), members)
            })
    })
}

fn build_tree(space: &AddressSpace, members: &[Address]) -> GroupTree {
    let mut tree = GroupTree::new(space.clone());
    for (i, address) in members.iter().enumerate() {
        let filter = Filter::new().with("b", Predicate::eq_int(i as i64 % 5));
        tree.join(address.clone(), filter).expect("fresh address");
    }
    tree
}

/// One step of a membership history.
#[derive(Debug, Clone, Copy)]
enum Step {
    Join(usize),
    Leave(usize),
    Crash(usize),
    Round,
}

/// A tree shape with an initial occupancy, a provider configuration and a
/// history: 3³ and 4² start full, 2⁴ starts sparse.
#[derive(Debug, Clone)]
struct History {
    arity: u32,
    depth: usize,
    config: DelegateViewConfig,
    seed: u64,
    occupied: Vec<bool>,
    steps: Vec<Step>,
}

fn arb_history() -> impl Strategy<Value = History> {
    (0usize..3, 1usize..4, 1usize..4, 1usize..5, 0u64..1_000).prop_flat_map(
        |(shape, slots, gossip_fanout, digest_size, seed)| {
            let (arity, depth, sparse) = [(3u32, 3usize, false), (4, 2, false), (2, 4, true)][shape];
            let n = (arity as usize).pow(depth as u32);
            let config = DelegateViewConfig {
                slots,
                gossip_fanout,
                digest_size,
            };
            // Half of the steps are rounds, the rest lifecycle observations
            // of any process — including ones that are no-ops (joining the
            // living, crashing the dead).  Up to five leading rounds run
            // before anybody can have flipped: the table-less seek.
            let step = (0u8..6, 0..n).prop_map(|(kind, process)| match kind {
                0 => Step::Join(process),
                1 => Step::Leave(process),
                2 => Step::Crash(process),
                _ => Step::Round,
            });
            (
                prop::collection::vec(0u8..4, n),
                0usize..6,
                prop::collection::vec(step, 0..60),
            )
                .prop_map(move |(occupancy, quiet_rounds, steps)| History {
                    arity,
                    depth,
                    config,
                    seed,
                    occupied: occupancy.iter().map(|&o| !sparse || o == 0).collect(),
                    steps: std::iter::repeat_n(Step::Round, quiet_rounds).chain(steps).collect(),
                })
        },
    )
}

/// The provider twice and the reference state machine, stepped together:
/// `view` is asked everything (so its flat enumeration stores its tables at
/// the first check), `probed` only the per-depth and certificate questions
/// (so it stores none until somebody flips).
struct Lockstep {
    n: usize,
    arity: usize,
    depth: usize,
    slots: usize,
    view: DelegateView,
    probed: DelegateView,
    reference: ReferenceDelegateView,
    /// Whether a lifecycle observation has changed anybody's liveness yet.
    flipped: bool,
}

impl Lockstep {
    fn new(history: &History) -> Self {
        let History {
            arity,
            depth,
            config,
            seed,
            ref occupied,
            ..
        } = *history;
        Self {
            n: occupied.len(),
            arity: arity as usize,
            depth,
            slots: config.slots,
            view: DelegateView::bootstrap_sparse(arity, depth, config, seed, occupied),
            probed: DelegateView::bootstrap_sparse(arity, depth, config, seed, occupied),
            reference: ReferenceDelegateView::bootstrap_sparse(
                arity,
                depth,
                config.slots,
                config.gossip_fanout,
                config.digest_size,
                seed,
                occupied,
            ),
            flipped: false,
        }
    }

    fn apply(&mut self, step: Step) {
        match step {
            Step::Join(process) => {
                self.flipped |= !self.reference.is_live(process);
                self.view.observe_join(process);
                self.probed.observe_join(process);
                self.reference.observe_join(process);
            }
            Step::Leave(process) => {
                self.flipped |= self.reference.is_live(process);
                self.view.observe_leave(process);
                self.probed.observe_leave(process);
                self.reference.observe_leave(process);
            }
            Step::Crash(process) => {
                self.flipped |= self.reference.is_live(process);
                self.view.observe_crash(process);
                self.probed.observe_crash(process);
                self.reference.observe_crash(process);
            }
            Step::Round => {
                self.view.round_elapsed();
                self.probed.round_elapsed();
                self.reference.round_elapsed();
            }
        }
    }

    /// The converged answer for `of`'s depth-`depth` view, by brute force:
    /// the first `capacity` live members of each sibling subgroup other
    /// than `of`.
    fn converged(&self, of: usize, depth: usize) -> Vec<usize> {
        if depth == 0 || depth > self.depth {
            return Vec::new();
        }
        let size = self.arity.pow((self.depth - depth) as u32);
        let block = of / (size * self.arity) * (size * self.arity);
        let capacity = if depth == self.depth { 1 } else { self.slots };
        (0..self.arity)
            .flat_map(|g| {
                let base = block + g * size;
                (base..base + size)
                    .filter(|&member| member != of && self.reference.is_live(member))
                    .take(capacity)
            })
            .collect()
    }

    /// Everything observable agrees with the reference — for both
    /// instances, whichever representation they are in — and the
    /// certificate is sound.
    fn check(&self, after: &str) {
        prop_assert_eq!(
            self.probed.has_tables(),
            self.flipped,
            "tables appear exactly with the first flip; after {}", after
        );
        for view in [&self.view, &self.probed] {
            prop_assert_eq!(
                view.stream_word_pos(),
                self.reference.stream_word_pos(),
                "stream position after {}", after
            );
            prop_assert_eq!(view.estimated_size(), self.reference.estimated_size());
        }
        // `u32::MAX` names no view, so the named ask lists the whole group.
        let everybody: Vec<usize> = (0..self.n).collect();
        let mut unsettled = 0;
        for of in 0..self.n {
            prop_assert_eq!(self.view.is_live(of), self.reference.is_live(of));
            prop_assert_eq!(self.probed.is_live(of), self.reference.is_live(of));
            let settled = self.view.is_settled(of);
            prop_assert_eq!(self.probed.is_settled(of), settled, "certificate of {} after {}", of, after);
            prop_assert!(!settled || self.view.is_live(of), "{} is settled but dead", of);
            unsettled += usize::from(self.view.is_live(of) && !settled);
            for depth in 0..=self.depth + 1 {
                let seated: Vec<usize> = (0..self.n)
                    .filter(|&peer| self.reference.knows_at_depth(of, depth, peer))
                    .collect();
                for view in [&self.view, &self.probed] {
                    let mut batched = Vec::new();
                    let whole =
                        view.fill_known_or_whole(of, depth, u32::MAX, &mut everybody.iter().copied(), &mut batched);
                    prop_assert!(!whole, "{} knows an unnamed view whole at depth {}", of, depth);
                    prop_assert_eq!(&batched, &seated, "batched probe of {} at depth {}", of, depth);
                    for peer in 0..self.n {
                        prop_assert_eq!(
                            view.knows_at_depth(of, depth, peer),
                            self.reference.knows_at_depth(of, depth, peer),
                            "table of {} at depth {} about {} after {}", of, depth, peer, after
                        );
                    }
                }
                if settled {
                    prop_assert_eq!(
                        &seated, &self.converged(of, depth),
                        "{} is settled after {} but its depth-{} groups are not the converged ones",
                        of, after, depth
                    );
                }
            }
        }
        // The flat enumeration comes last: at bootstrap it is what stores
        // `view`'s tables, so the probes above ran table-less on both.
        for of in 0..self.n {
            let peers: Vec<usize> =
                (0..self.view.peer_count(of)).map(|k| self.view.peer_at(of, k)).collect();
            prop_assert_eq!(peers, self.reference.peers(of), "flat view of {} after {}", of, after);
            prop_assert_eq!(
                self.view.contact_of(of),
                self.reference.contact_of(of),
                "contact of {} after {}", of, after
            );
        }
        prop_assert_eq!(self.view.unsettled(), unsettled);
        prop_assert_eq!(self.probed.unsettled(), unsettled);
    }
}

/// One depth view as a group's `SharedViews` would list and number it: the
/// first `listed` bootstrap members of every sibling subgroup under the
/// prefix `of` shares with the view's other holders.
#[derive(Debug)]
struct NamedView {
    id: u32,
    depth: usize,
    holders: std::ops::Range<usize>,
    peers: Vec<usize>,
}

impl NamedView {
    fn of(history: &History, of: usize, depth: usize, listed: usize) -> Self {
        let arity = history.arity as usize;
        let size = arity.pow((history.depth - depth) as u32);
        let block = of / (size * arity);
        let first = block * size * arity;
        Self {
            // Breadth-first rank: every view of a shallower depth, then the
            // blocks of this one in address order.
            id: ((0..depth - 1).map(|k| arity.pow(k as u32)).sum::<usize>() + block) as u32,
            depth,
            holders: first..first + size * arity,
            peers: (0..arity)
                .flat_map(|g| {
                    let base = first + g * size;
                    (base..base + size).filter(|&member| history.occupied[member]).take(listed)
                })
                .collect(),
        }
    }

    /// Every holder asks by name — a whole answer expanded to every position
    /// but the asker's — and the answer is the single probe's.
    fn check(&self, view: &DelegateView, after: &str) {
        for of in self.holders.clone() {
            let single: Vec<usize> = (0..self.peers.len())
                .filter(|&position| view.knows_at_depth(of, self.depth, self.peers[position]))
                .collect();
            let mut batched = Vec::new();
            let mut peers = self.peers.iter().copied();
            if view.fill_known_or_whole(of, self.depth, self.id, &mut peers, &mut batched) {
                prop_assert!(batched.is_empty(), "a whole answer writes nothing");
                batched.extend((0..self.peers.len()).filter(|&position| self.peers[position] != of));
            }
            prop_assert_eq!(&batched, &single, "view {} as {} holds it, after {}", self.id, of, after);
        }
    }
}

/// Rounds within which every history below is settled again once its last
/// lifecycle observation is in.  Convergence is gossip's, so the bound is
/// empirical: the slowest of 20 000 histories took 356.
const RECOVERY_ROUNDS: usize = 2_000;

proptest! {
    /// The provider is the reference state machine after every step; the
    /// certificate is sound after every step; the evict-on-contact branch
    /// the provider's round no longer has never runs in the reference; and
    /// after the last lifecycle observation every live process is settled
    /// again within [`RECOVERY_ROUNDS`] rounds — from where a round moves
    /// the stream exactly as the reference's draws do.
    #[test]
    fn delegate_rounds_match_the_full_round_loop(history in arb_history()) {
        let mut lockstep = Lockstep::new(&history);
        lockstep.check("bootstrap");
        prop_assert_eq!(lockstep.view.unsettled(), 0, "the handoff seats the converged answer");
        for (index, &step) in history.steps.iter().enumerate() {
            lockstep.apply(step);
            lockstep.check(&format!("step {index} ({step:?})"));
        }
        let mut rounds = 0;
        while lockstep.view.unsettled() > 0 {
            prop_assert!(
                rounds < RECOVERY_ROUNDS,
                "{} processes still unsettled {} rounds after the churn: {:?}",
                lockstep.view.unsettled(), rounds, history
            );
            lockstep.apply(Step::Round);
            rounds += 1;
        }
        lockstep.check("recovery");
        for _ in 0..3 {
            lockstep.apply(Step::Round);
        }
        lockstep.check("three settled rounds");
        prop_assert_eq!(lockstep.view.unsettled(), 0, "a settled group stays settled");
        prop_assert_eq!(lockstep.reference.stale_contacts, 0);
    }

    /// Naming a depth view never changes the answer: over a random sparse
    /// occupancy, two views' ids asked about alternately — by every process
    /// holding them — agree with the single probe while no table is stored
    /// (where a view seated whole is answered whole) and after every step of
    /// a random lifecycle history (where the first flip forgets every whole
    /// view).
    #[test]
    fn named_depth_views_answer_as_the_single_probe(
        mut history in arb_history(),
        thinned in prop::collection::vec(0u8..4, 27),
        asks in prop::collection::vec((0usize..27, 0usize..4), 2),
        listed in 1usize..5,
    ) {
        for (occupied, &thin) in history.occupied.iter_mut().zip(&thinned) {
            *occupied &= thin != 0;
        }
        let History { arity, depth, config, seed, ref occupied, ref steps } = history;
        let view = DelegateView::bootstrap_sparse(arity, depth, config, seed, occupied);
        let views: Vec<NamedView> = asks
            .iter()
            .map(|&(of, level)| NamedView::of(&history, of % occupied.len(), 1 + level % depth, listed))
            .collect();
        let check = |after: &str| {
            // Twice: the first pass judges a view, the second may read its bit.
            for _ in 0..2 {
                for named in &views {
                    named.check(&view, after);
                }
            }
        };
        check("bootstrap");
        prop_assert!(!view.has_tables(), "a named ask stores no table");
        for (index, &step) in steps.iter().enumerate() {
            match step {
                Step::Join(process) => view.observe_join(process),
                Step::Leave(process) => view.observe_leave(process),
                Step::Crash(process) => view.observe_crash(process),
                Step::Round => view.round_elapsed(),
            }
            check(&format!("step {index} ({step:?})"));
        }
    }

    /// Subtree sizes and populated children always match a brute-force
    /// recomputation from the member list.
    #[test]
    fn counts_match_brute_force((space, members) in arb_population()) {
        let tree = build_tree(&space, &members);
        prop_assert_eq!(tree.member_count(), members.len());
        for depth in 1..=space.depth() {
            for member in &members {
                let prefix = member.prefix_of_depth(depth);
                let expected = members.iter().filter(|m| m.has_prefix(&prefix)).count();
                prop_assert_eq!(tree.subtree_size(&prefix), expected);
                let mut expected_children: Vec<u32> = members
                    .iter()
                    .filter(|m| m.has_prefix(&prefix))
                    .map(|m| m.components()[prefix.len()])
                    .collect();
                expected_children.sort_unstable();
                expected_children.dedup();
                prop_assert_eq!(tree.populated_children(&prefix), expected_children);
            }
        }
    }

    /// Delegates are always the R smallest member addresses of the subtree.
    #[test]
    fn delegates_are_smallest_members((space, members) in arb_population(), r in 1usize..5) {
        let tree = build_tree(&space, &members);
        for member in &members {
            for depth in 1..=space.depth() {
                let prefix = member.prefix_of_depth(depth);
                let mut expected: Vec<Address> = members
                    .iter()
                    .filter(|m| m.has_prefix(&prefix))
                    .cloned()
                    .collect();
                expected.sort();
                expected.truncate(r);
                prop_assert_eq!(tree.delegates(&prefix, r), expected);
            }
        }
    }

    /// Leaving every member in any order empties the tree completely.
    #[test]
    fn leaves_empty_the_tree((space, members) in arb_population(), seed in 0u64..1000) {
        let mut tree = build_tree(&space, &members);
        // Deterministically shuffle the leave order from the seed.
        let mut order = members.clone();
        let len = order.len();
        for i in 0..len {
            let j = ((seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % len;
            order.swap(i, j);
        }
        for member in &order {
            tree.leave(member).expect("still a member");
        }
        prop_assert_eq!(tree.member_count(), 0);
        prop_assert!(tree.populated_children(&Prefix::root()).is_empty());
        prop_assert_eq!(tree.subtree_size(&Prefix::root()), 0);
        prop_assert!(tree.members().is_empty());
    }

    /// For a fully populated regular tree, the explicit and implicit
    /// topologies agree on everything the protocol uses, and view sizes
    /// follow Equation 2.
    #[test]
    fn explicit_matches_implicit(arity in 2u32..5, depth in 2usize..4, r in 1usize..4) {
        // Equation 2/12 assumes every populated subgroup holds at least R
        // processes (the paper's own assumption in §2.2), so cap R at a.
        let r = r.min(arity as usize);
        let space = AddressSpace::regular(depth, arity).expect("valid shape");
        let explicit = GroupTree::fully_populated(space.clone(), Filter::match_all());
        let implicit = ImplicitRegularTree::new(space.clone());
        prop_assert_eq!(explicit.member_count(), implicit.member_count());
        // Spot-check a handful of members (checking all of them would be
        // quadratic in the group size).
        for index in [0u128, 1, (space.capacity() - 1) / 2, space.capacity() - 1] {
            let member = space.address_of_index(index);
            for view_depth in 1..=depth {
                prop_assert_eq!(
                    explicit.view_of(&member, view_depth, r),
                    implicit.view_of(&member, view_depth, r)
                );
            }
            let expected_knowledge = r * arity as usize * (depth - 1) + arity as usize;
            prop_assert_eq!(implicit.knowledge_size(&member, r), expected_knowledge);
            prop_assert_eq!(explicit.knowledge_size(&member, r), expected_knowledge);
        }
    }

    /// Participation is monotone in depth: a delegate at depth i also
    /// participates at every deeper depth.
    #[test]
    fn participation_is_monotone((space, members) in arb_population(), r in 1usize..4) {
        let tree = build_tree(&space, &members);
        for member in &members {
            let mut participating = false;
            for depth in 1..=space.depth() {
                let now = tree.participates_at(member, depth, r);
                if participating {
                    prop_assert!(now, "{member} dropped out at depth {depth}");
                }
                participating = participating || now;
            }
            // Everybody participates at the leaf depth.
            prop_assert!(tree.participates_at(member, space.depth(), r));
        }
    }
}
