//! Property-based tests for the membership tree.
//!
//! The central invariants:
//!
//! * delegate election is deterministic and agrees between the explicit
//!   [`GroupTree`] and the arithmetic [`ImplicitRegularTree`] whenever the
//!   group is fully populated;
//! * join/leave bookkeeping (subtree counts, populated children) always
//!   matches a from-scratch recomputation;
//! * view sizes follow Equation 2 for fully populated regular trees.

use pmcast_addr::{Address, AddressSpace, Prefix};
use pmcast_interest::{Filter, Predicate};
use pmcast_membership::{GroupTree, ImplicitRegularTree, TreeTopology};
use proptest::prelude::*;

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

proptest! {
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
