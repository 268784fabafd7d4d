use std::collections::BTreeMap;

use pmcast_addr::{Address, AddressSpace, Component, Prefix};
use pmcast_interest::{Event, Filter, Interest};

use crate::{MembershipError, TreeTopology};

/// An explicit group membership: the set of populated addresses together
/// with each process's subscription.
///
/// `GroupTree` is the reference (oracle-side) implementation of the tree of
/// Section 2: it supports arbitrary populated subsets of the address space,
/// joins and leaves and per-subtree process counts.  The sorted member map
/// *is* the hierarchy — a subtree is a contiguous key range — so every
/// topology question is a range scan and a join or leave touches one entry.
/// It is the structure a simulation or a bootstrap service would hold;
/// individual processes hold only their bounded view (see
/// [`DelegateView`](crate::DelegateView)).
///
/// # Example
///
/// ```rust
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use pmcast_addr::{AddressSpace, Prefix};
/// use pmcast_interest::{Filter, Predicate};
/// use pmcast_membership::{GroupTree, TreeTopology};
///
/// let space = AddressSpace::regular(2, 8)?;
/// let mut tree = GroupTree::new(space);
/// tree.join("0.1".parse()?, Filter::new().with("b", Predicate::gt(0.0)))?;
/// tree.join("0.5".parse()?, Filter::new().with("b", Predicate::lt(0.0)))?;
/// tree.join("3.2".parse()?, Filter::match_all())?;
///
/// assert_eq!(tree.member_count(), 3);
/// assert_eq!(tree.subtree_size(&Prefix::from_components(vec![0])), 2);
/// assert_eq!(tree.populated_children(&Prefix::root()), vec![0, 3]);
/// # Ok(())
/// # }
/// ```
pub struct GroupTree {
    space: AddressSpace,
    members: BTreeMap<Address, Filter>,
}

impl std::fmt::Debug for GroupTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupTree")
            .field("space", &self.space)
            .field("member_count", &self.members.len())
            .finish_non_exhaustive()
    }
}

impl GroupTree {
    /// Creates an empty group over the given address space.
    pub fn new(space: AddressSpace) -> Self {
        Self {
            space,
            members: BTreeMap::new(),
        }
    }

    /// Creates a fully populated group where every process uses the given
    /// subscription.  Intended for tests and examples over small spaces.
    pub fn fully_populated(space: AddressSpace, filter: Filter) -> Self {
        let mut tree = Self::new(space.clone());
        for address in space.iter() {
            tree.join(address, filter.clone())
                .expect("addresses from the space are valid and unique");
        }
        tree
    }

    /// Adds a process with its subscription.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is invalid for the space or already a
    /// member.
    pub fn join(&mut self, address: Address, filter: Filter) -> Result<(), MembershipError> {
        self.space.validate(&address)?;
        if self.members.contains_key(&address) {
            return Err(MembershipError::AlreadyMember(address));
        }
        self.members.insert(address, filter);
        Ok(())
    }

    /// Removes a process (graceful leave or crash exclusion).
    ///
    /// # Errors
    ///
    /// Returns an error if the address is not a member.
    pub fn leave(&mut self, address: &Address) -> Result<Filter, MembershipError> {
        self.members
            .remove(address)
            .ok_or_else(|| MembershipError::NotAMember(address.clone()))
    }

    /// Returns a member's subscription.
    pub fn subscription(&self, address: &Address) -> Option<&Filter> {
        self.members.get(address)
    }

    /// Number of processes below the prefix interested in the given event,
    /// evaluated exactly against the individual subscriptions.
    pub fn interested_count_under(&self, prefix: &Prefix, event: &Event) -> usize {
        self.members_range(prefix)
            .filter(|(_, filter)| filter.matches(event))
            .count()
    }

    /// Iterates over the members below a prefix without allocating.
    fn members_range(&self, prefix: &Prefix) -> impl Iterator<Item = (&Address, &Filter)> {
        // Addresses sharing a prefix are contiguous in the ordered map; a
        // range scan from the first possible address under the prefix until
        // the prefix no longer matches enumerates exactly the subtree.
        let prefix = prefix.clone();
        self.members
            .range(std::ops::RangeFrom {
                start: lower_bound_address(&prefix, &self.space),
            })
            .take_while(move |(address, _)| address.has_prefix(&prefix))
    }
}

/// Smallest possible address under a prefix (used as a range scan lower
/// bound).  For the root prefix this is the all-zero address.
fn lower_bound_address(prefix: &Prefix, space: &AddressSpace) -> Address {
    let mut components = prefix.components().to_vec();
    components.resize(space.depth(), 0);
    Address::new(components)
}

impl TreeTopology for GroupTree {
    fn space(&self) -> &AddressSpace {
        &self.space
    }

    fn member_count(&self) -> usize {
        self.members.len()
    }

    fn contains(&self, address: &Address) -> bool {
        self.members.contains_key(address)
    }

    fn members(&self) -> Vec<Address> {
        self.members.keys().cloned().collect()
    }

    fn populated_children(&self, prefix: &Prefix) -> Vec<Component> {
        if prefix.len() >= self.space.depth() {
            return Vec::new();
        }
        // Members under a prefix are sorted by their next component.
        let mut children: Vec<Component> = self
            .members_range(prefix)
            .map(|(address, _)| address.components()[prefix.len()])
            .collect();
        children.dedup();
        children
    }

    fn subtree_size(&self, prefix: &Prefix) -> usize {
        self.members_range(prefix).count()
    }

    fn delegates(&self, prefix: &Prefix, r: usize) -> Vec<Address> {
        // Smallest addresses first: every process must reach the same
        // answer without an agreement protocol (Section 2.3).
        self.members_range(prefix)
            .take(r)
            .map(|(address, _)| address.clone())
            .collect()
    }

    fn members_under(&self, prefix: &Prefix) -> Vec<Address> {
        self.members_range(prefix)
            .map(|(address, _)| address.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcast_interest::Predicate;

    fn space() -> AddressSpace {
        AddressSpace::regular(3, 4).unwrap()
    }

    fn populated_tree() -> GroupTree {
        GroupTree::fully_populated(space(), Filter::match_all())
    }

    #[test]
    fn join_and_leave_maintain_counts() {
        let mut tree = GroupTree::new(space());
        assert_eq!(tree.member_count(), 0);
        tree.join("0.1.2".parse().unwrap(), Filter::match_all()).unwrap();
        tree.join("0.1.3".parse().unwrap(), Filter::match_all()).unwrap();
        tree.join("2.0.0".parse().unwrap(), Filter::match_all()).unwrap();
        assert_eq!(tree.member_count(), 3);
        assert_eq!(tree.subtree_size(&Prefix::from_components(vec![0])), 2);
        assert_eq!(tree.subtree_size(&Prefix::from_components(vec![0, 1])), 2);
        assert_eq!(tree.subtree_size(&Prefix::from_components(vec![2])), 1);
        assert_eq!(tree.subtree_size(&Prefix::from_components(vec![3])), 0);
        assert_eq!(tree.populated_children(&Prefix::root()), vec![0, 2]);

        tree.leave(&"0.1.3".parse().unwrap()).unwrap();
        assert_eq!(tree.member_count(), 2);
        assert_eq!(tree.subtree_size(&Prefix::from_components(vec![0, 1])), 1);
        tree.leave(&"0.1.2".parse().unwrap()).unwrap();
        assert_eq!(tree.subtree_size(&Prefix::from_components(vec![0])), 0);
        assert_eq!(tree.populated_children(&Prefix::root()), vec![2]);
    }

    #[test]
    fn join_rejects_duplicates_and_invalid_addresses() {
        let mut tree = GroupTree::new(space());
        let address: Address = "1.1.1".parse().unwrap();
        tree.join(address.clone(), Filter::match_all()).unwrap();
        assert_eq!(
            tree.join(address.clone(), Filter::match_all()),
            Err(MembershipError::AlreadyMember(address))
        );
        assert!(matches!(
            tree.join("9.9.9".parse().unwrap(), Filter::match_all()),
            Err(MembershipError::InvalidAddress(_))
        ));
        assert!(matches!(
            tree.join("1.1".parse().unwrap(), Filter::match_all()),
            Err(MembershipError::InvalidAddress(_))
        ));
    }

    #[test]
    fn leave_rejects_non_members() {
        let mut tree = GroupTree::new(space());
        assert!(matches!(
            tree.leave(&"1.1.1".parse().unwrap()),
            Err(MembershipError::NotAMember(_))
        ));
    }

    #[test]
    fn delegates_are_deterministic_smallest() {
        let tree = populated_tree();
        let delegates = tree.delegates(&Prefix::from_components(vec![1]), 3);
        let rendered: Vec<String> = delegates.iter().map(|a| a.to_string()).collect();
        assert_eq!(rendered, vec!["1.0.0", "1.0.1", "1.0.2"]);
    }

    /// Every topology answer of `left` equals `right`'s, over every prefix
    /// of the space from the root down to full addresses.
    fn assert_same_topology(left: &dyn TreeTopology, right: &dyn TreeTopology) {
        assert_eq!(left.member_count(), right.member_count());
        let space = space();
        let prefixes = space.iter().flat_map(|a| {
            [a.prefix_of_depth(1), a.prefix_of_depth(2), a.prefix_of_depth(3), a.as_prefix()]
        });
        for prefix in prefixes {
            assert_eq!(left.subtree_size(&prefix), right.subtree_size(&prefix), "{prefix}");
            assert_eq!(
                left.populated_children(&prefix),
                right.populated_children(&prefix),
                "{prefix}"
            );
            assert_eq!(left.delegates(&prefix, 3), right.delegates(&prefix, 3), "{prefix}");
            assert_eq!(left.members_under(&prefix), right.members_under(&prefix), "{prefix}");
        }
    }

    #[test]
    fn explicit_and_implicit_trees_agree_when_fully_populated() {
        let mut explicit = populated_tree();
        let implicit = crate::ImplicitRegularTree::new(space());
        assert_same_topology(&explicit, &implicit);
        let address: Address = "2.3.1".parse().unwrap();
        assert_eq!(
            explicit.view_of(&address, 2, 3),
            implicit.view_of(&address, 2, 3)
        );
        assert_eq!(
            explicit.knowledge_size(&address, 3),
            implicit.knowledge_size(&address, 3)
        );

        // Empty a whole leaf subgroup and a whole inner subtree, then bring
        // half of the subtree back: the answers are those of a tree that
        // only ever saw the survivors.
        let leaf_subgroup = Prefix::from_components(vec![3, 1]);
        let inner_subtree = Prefix::from_components(vec![2]);
        for prefix in [&leaf_subgroup, &inner_subtree] {
            for gone in explicit.members_under(prefix) {
                explicit.leave(&gone).unwrap();
            }
            assert_eq!(explicit.subtree_size(prefix), 0);
            assert!(explicit.populated_children(prefix).is_empty());
            assert!(explicit.delegates(prefix, 3).is_empty());
        }
        assert_eq!(explicit.populated_children(&Prefix::root()), vec![0, 1, 3]);
        assert_eq!(
            explicit.populated_children(&Prefix::from_components(vec![3])),
            vec![0, 2, 3]
        );
        for back in implicit.members_under(&inner_subtree).into_iter().step_by(2) {
            explicit.join(back, Filter::match_all()).unwrap();
        }
        assert_eq!(explicit.subtree_size(&inner_subtree), 8);
        let mut fresh = GroupTree::new(space());
        for (survivor, filter) in &explicit.members {
            fresh.join(survivor.clone(), filter.clone()).unwrap();
        }
        assert_same_topology(&explicit, &fresh);
    }

    #[test]
    fn subscriptions_and_interest_queries() {
        let mut tree = GroupTree::new(space());
        tree.join(
            "0.0.0".parse().unwrap(),
            Filter::new().with("b", Predicate::gt(5.0)),
        )
        .unwrap();
        tree.join(
            "0.1.0".parse().unwrap(),
            Filter::new().with("b", Predicate::lt(0.0)),
        )
        .unwrap();
        tree.join(
            "3.0.0".parse().unwrap(),
            Filter::new().with("e", Predicate::Eq("Bob".into())),
        )
        .unwrap();

        let hot = Event::builder(1).int("b", 10).build();
        let cold = Event::builder(2).int("b", -3).build();
        let bob = Event::builder(3).str("e", "Bob").build();

        let zero_subtree = Prefix::from_components(vec![0]);
        assert_eq!(tree.interested_count_under(&zero_subtree, &hot), 1);
        assert_eq!(tree.interested_count_under(&zero_subtree, &cold), 1);
        assert_eq!(tree.interested_count_under(&zero_subtree, &bob), 0);
        assert_eq!(tree.interested_count_under(&Prefix::root(), &bob), 1);
        assert_eq!(tree.interested_count_under(&Prefix::root(), &hot), 1);
    }

    #[test]
    fn members_iteration_is_sorted() {
        let tree = populated_tree();
        let members = tree.members();
        let mut sorted = members.clone();
        sorted.sort();
        assert_eq!(members, sorted);
        assert_eq!(tree.members.len(), 64);
    }
}
