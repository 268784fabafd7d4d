use pmcast_addr::{Address, AddressSpace, Component, Depth, Prefix};

/// The "who is where" interface of the compound spanning tree.
///
/// The dissemination layer only needs to know, for any subgroup (prefix):
/// which child subgroups are populated, how many processes live below it,
/// and which processes are its `R` delegates.  Two implementations are
/// provided:
///
/// * [`ImplicitRegularTree`] — every address of the space is populated; all
///   answers are computed arithmetically.  This is the *regular tree* of the
///   paper's analysis (Section 4.1) and is what the large-scale evaluation
///   runs use, because it needs no per-process state at all.
/// * [`crate::GroupTree`] — an explicit membership supporting arbitrary
///   populated addresses, per-process subscriptions, joins and leaves.
pub trait TreeTopology {
    /// The address space shaping the tree.
    fn space(&self) -> &AddressSpace;

    /// Number of processes currently in the group.
    fn member_count(&self) -> usize;

    /// Returns `true` if the given address is populated.
    fn contains(&self, address: &Address) -> bool;

    /// All members, in address order.  Intended for small groups (tests,
    /// examples, explicit view construction); large-scale simulations should
    /// iterate indices instead.
    fn members(&self) -> Vec<Address>;

    /// Calls `visit` with the index in [`space`](Self::space) of every
    /// member, in address order: [`members`](Self::members) without
    /// writing the addresses out.
    fn for_each_member_index(&self, visit: &mut dyn FnMut(usize)) {
        for address in self.members() {
            let index = self.space().index_of_address(&address);
            visit(index.expect("a member's address is valid for its space") as usize);
        }
    }

    /// The populated child components directly below the given prefix, in
    /// increasing order.
    fn populated_children(&self, prefix: &Prefix) -> Vec<Component>;

    /// Number of processes in the subtree rooted at the given prefix
    /// (`‖prefix‖` in Equation 4).
    fn subtree_size(&self, prefix: &Prefix) -> usize;

    /// The delegates representing the subtree rooted at `prefix`: the `r`
    /// smallest populated addresses below it (fewer if the subtree holds
    /// fewer than `r` processes).
    fn delegates(&self, prefix: &Prefix, r: usize) -> Vec<Address>;

    /// Tree depth `d`.
    fn depth(&self) -> Depth {
        self.space().depth()
    }

    /// All members below a prefix, in address order.
    fn members_under(&self, prefix: &Prefix) -> Vec<Address> {
        self.members()
            .into_iter()
            .filter(|a| a.has_prefix(prefix))
            .collect()
    }

    /// Whether the process takes part in the gossip of the given depth.
    ///
    /// Every process takes part at the leaf depth `d`; at a depth `i < d` a
    /// process participates iff it is one of the `r` delegates of its own
    /// subgroup of depth `i + 1` (the subtree denoted by its first `i`
    /// address components).
    fn participates_at(&self, address: &Address, depth: Depth, r: usize) -> bool {
        if depth == self.depth() {
            return self.contains(address);
        }
        let own_subgroup = address.prefix_of_depth(depth + 1);
        self.delegates(&own_subgroup, r).contains(address)
    }

    /// The membership view of a process at the given depth: one entry per
    /// populated sibling subgroup, holding that subgroup's delegates — or,
    /// at the leaf depth, one entry per immediate neighbour process.
    ///
    /// The total number of processes appearing across all depths is the
    /// paper's Equation 2.
    fn view_of(&self, address: &Address, depth: Depth, r: usize) -> Vec<(Prefix, Vec<Address>)> {
        assert!(
            depth >= 1 && depth <= self.depth(),
            "depth {depth} out of range 1..={}",
            self.depth()
        );
        let parent = address.prefix_of_depth(depth);
        if depth == self.depth() {
            self.members_under(&parent)
                .into_iter()
                .map(|a| (a.as_prefix(), vec![a]))
                .collect()
        } else {
            self.populated_children(&parent)
                .into_iter()
                .map(|component| {
                    let child = parent.child(component);
                    let delegates = self.delegates(&child, r);
                    (child, delegates)
                })
                .collect()
        }
    }

    /// Total number of process entries in the views of the given process
    /// across all depths (Equation 2 of the paper; delegates appearing at
    /// several depths are counted once per depth, as in the paper).
    fn knowledge_size(&self, address: &Address, r: usize) -> usize {
        (1..=self.depth())
            .map(|depth| {
                self.view_of(address, depth, r)
                    .iter()
                    .map(|(_, processes)| processes.len())
                    .sum::<usize>()
            })
            .sum()
    }
}

/// A fully populated regular tree: every address of the space hosts exactly
/// one process.
///
/// This is the membership assumed by the paper's analysis and evaluation
/// (`n = a^d`); all topology queries are answered arithmetically from the
/// address space, so the structure costs `O(1)` memory regardless of `n`.
///
/// # Example
///
/// ```rust
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use pmcast_addr::{AddressSpace, Prefix};
/// use pmcast_membership::{ImplicitRegularTree, TreeTopology};
///
/// let tree = ImplicitRegularTree::new(AddressSpace::regular(3, 22)?);
/// assert_eq!(tree.member_count(), 10_648);
/// assert_eq!(tree.subtree_size(&Prefix::from_components(vec![7])), 484);
/// let root_delegates = tree.delegates(&Prefix::root(), 3);
/// assert_eq!(root_delegates[2].to_string(), "0.0.2");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplicitRegularTree {
    space: AddressSpace,
}

impl ImplicitRegularTree {
    /// Creates the fully populated tree over the given address space.
    ///
    /// # Panics
    ///
    /// Panics if the space capacity exceeds `usize::MAX` processes, which
    /// cannot be simulated anyway.
    pub fn new(space: AddressSpace) -> Self {
        assert!(
            space.capacity() <= usize::MAX as u128,
            "address space too large to enumerate"
        );
        Self { space }
    }

    /// Returns the address at the given dense index.
    pub fn address_of(&self, index: usize) -> Address {
        self.space.address_of_index(index as u128)
    }

    /// Returns the dense index range `[start, end)` of the subtree below a
    /// prefix; all addresses of a subtree are contiguous in index order.
    pub fn index_range(&self, prefix: &Prefix) -> (usize, usize) {
        let (start, end) = self
            .space
            .index_range_under(prefix)
            .expect("prefix is valid for the tree's space");
        (start as usize, end as usize)
    }
}

impl TreeTopology for ImplicitRegularTree {
    fn space(&self) -> &AddressSpace {
        &self.space
    }

    fn member_count(&self) -> usize {
        self.space.capacity() as usize
    }

    fn contains(&self, address: &Address) -> bool {
        self.space.validate(address).is_ok()
    }

    fn members(&self) -> Vec<Address> {
        self.space.iter().collect()
    }

    fn for_each_member_index(&self, visit: &mut dyn FnMut(usize)) {
        (0..self.member_count()).for_each(visit);
    }

    fn populated_children(&self, prefix: &Prefix) -> Vec<Component> {
        if prefix.len() >= self.space.depth() {
            return Vec::new();
        }
        self.space.child_components(prefix).collect()
    }

    fn subtree_size(&self, prefix: &Prefix) -> usize {
        self.space.capacity_under(prefix) as usize
    }

    fn delegates(&self, prefix: &Prefix, r: usize) -> Vec<Address> {
        let (start, end) = self.index_range(prefix);
        (start..end.min(start + r))
            .map(|index| self.address_of(index))
            .collect()
    }

    fn members_under(&self, prefix: &Prefix) -> Vec<Address> {
        let (start, end) = self.index_range(prefix);
        (start..end).map(|index| self.address_of(index)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(depth: usize, arity: u32) -> ImplicitRegularTree {
        ImplicitRegularTree::new(AddressSpace::regular(depth, arity).unwrap())
    }

    #[test]
    fn member_count_is_capacity() {
        assert_eq!(tree(3, 4).member_count(), 64);
        assert_eq!(tree(3, 22).member_count(), 10_648);
        assert_eq!(tree(1, 7).member_count(), 7);
    }

    #[test]
    fn delegates_are_smallest_addresses() {
        let t = tree(3, 4);
        let root_delegates = t.delegates(&Prefix::root(), 3);
        let rendered: Vec<String> = root_delegates.iter().map(|a| a.to_string()).collect();
        assert_eq!(rendered, vec!["0.0.0", "0.0.1", "0.0.2"]);

        let sub = Prefix::from_components(vec![2, 1]);
        let sub_delegates = t.delegates(&sub, 3);
        let rendered: Vec<String> = sub_delegates.iter().map(|a| a.to_string()).collect();
        assert_eq!(rendered, vec!["2.1.0", "2.1.1", "2.1.2"]);

        // A subtree smaller than r yields fewer delegates.
        let leafish = tree(2, 2);
        assert_eq!(leafish.delegates(&Prefix::from_components(vec![1]), 5).len(), 2);
    }

    #[test]
    fn subtree_sizes_follow_capacity() {
        let t = tree(3, 22);
        assert_eq!(t.subtree_size(&Prefix::root()), 10_648);
        assert_eq!(t.subtree_size(&Prefix::from_components(vec![3])), 484);
        assert_eq!(t.subtree_size(&Prefix::from_components(vec![3, 9])), 22);
    }

    #[test]
    fn index_range_is_contiguous_and_consistent() {
        let t = tree(3, 5);
        let prefix = Prefix::from_components(vec![2, 3]);
        let (start, end) = t.index_range(&prefix);
        assert_eq!(end - start, 5);
        for index in start..end {
            assert!(t.address_of(index).has_prefix(&prefix));
        }
        // The address right before and right after are outside the subtree.
        assert!(!t.address_of(start - 1).has_prefix(&prefix));
        assert!(!t.address_of(end).has_prefix(&prefix));
    }

    #[test]
    fn participation_nests_upwards() {
        let t = tree(3, 4);
        let r = 2;
        for address in t.members() {
            // Every process participates at the leaf depth.
            assert!(t.participates_at(&address, 3, r));
            // Participation at a depth implies participation at all larger depths.
            for depth in 1..3 {
                if t.participates_at(&address, depth, r) {
                    for deeper in depth..=3 {
                        assert!(
                            t.participates_at(&address, deeper, r),
                            "{address} participates at {depth} but not at {deeper}"
                        );
                    }
                }
            }
        }
        // The globally smallest addresses are root (depth 1) participants.
        assert!(t.participates_at(&"0.0.0".parse().unwrap(), 1, r));
        assert!(t.participates_at(&"0.0.1".parse().unwrap(), 1, r));
        assert!(!t.participates_at(&"0.0.2".parse().unwrap(), 1, r));
        // The largest address only appears at the leaf depth.
        assert!(!t.participates_at(&"3.3.3".parse().unwrap(), 2, r));
        assert!(t.participates_at(&"3.3.3".parse().unwrap(), 3, r));
    }

    #[test]
    fn view_sizes_match_equation_2() {
        // In a regular tree every process knows R·a·(d−1) + a processes (Eq. 12).
        let t = tree(3, 4);
        let r = 2;
        let expected = r * 4 * (3 - 1) + 4;
        for address in t.members() {
            assert_eq!(t.knowledge_size(&address, r), expected);
        }
    }

    #[test]
    fn view_of_structure() {
        let t = tree(3, 4);
        let address: Address = "2.1.3".parse().unwrap();
        // Depth 1: one entry per depth-2 subgroup, each with R delegates.
        let depth1 = t.view_of(&address, 1, 3);
        assert_eq!(depth1.len(), 4);
        assert!(depth1.iter().all(|(_, d)| d.len() == 3));
        // Depth 3: the immediate neighbours, one process per entry.
        let depth3 = t.view_of(&address, 3, 3);
        assert_eq!(depth3.len(), 4);
        assert!(depth3.iter().all(|(_, d)| d.len() == 1));
        assert!(depth3
            .iter()
            .any(|(_, d)| d[0].to_string() == "2.1.3"));
        // The view only depends on the process's prefix.
        let sibling: Address = "2.1.0".parse().unwrap();
        assert_eq!(t.view_of(&sibling, 1, 3), depth1);
    }

    #[test]
    fn depth_one_tree_is_flat() {
        let t = tree(1, 8);
        assert_eq!(t.depth(), 1);
        let address: Address = "5".parse().unwrap();
        let view = t.view_of(&address, 1, 3);
        assert_eq!(view.len(), 8);
        assert_eq!(t.knowledge_size(&address, 3), 8);
    }
}
