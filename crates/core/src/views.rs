use std::sync::Arc;

use pmcast_addr::{Address, Component, Depth, Prefix};
use pmcast_simnet::ProcessId;

use pmcast_membership::TreeTopology;

/// One gossip destination in a per-depth view: the process's dense
/// simulation identifier and the subgroup it represents at that depth (its
/// own address at the leaf depth).  The destination's address is
/// [`SharedViews::addresses`] at its identifier; no path of the protocol
/// reads it, so a target does not carry a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipTarget {
    /// The destination's simulation identifier.
    pub id: ProcessId,
    /// The subgroup the destination represents at this depth.
    pub subgroup: Prefix,
}

/// One shared per-depth view: the gossip targets every process under the
/// corresponding prefix iterates at that depth, distinct processes in
/// strictly ascending [`ProcessId`] order — it dereferences to that slice —
/// and the view's dense [`id`](Self::id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepthView {
    id: u32,
    targets: Arc<[GossipTarget]>,
}

impl DepthView {
    /// The view's dense identifier: its rank among the views of one
    /// [`SharedViews`], counted breadth-first in prefix order (the root view
    /// is 0).  Within a group an id names one list of targets, which is what
    /// lets anything that is a function of *(event, view)* be kept per id
    /// instead of per process holding the view.
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl std::ops::Deref for DepthView {
    type Target = [GossipTarget];

    fn deref(&self) -> &[GossipTarget] {
        &self.targets
    }
}

/// A process's whole view stack — its [`DepthView`]s of depths `1..=d`,
/// one allocation shared by every process of the same leaf subgroup.
pub type ViewStack = Arc<[DepthView]>;

/// Precomputed, shareable per-depth views for a whole group.
///
/// A process's view at depth `i` only depends on its own prefix of depth `i`
/// (Section 2.2), so instead of materialising `n` view tables the simulation
/// shares one table per `(depth, prefix)` pair — a few hundred entries even
/// for the 10 000-process evaluation group.  Every target carries the
/// dense [`ProcessId`] so protocol code never needs to search for addresses
/// at gossip time, and every view carries a dense [`DepthView::id`]: what
/// the protocol computes from *(event, view)* — `GETRATE`, the round budget,
/// the summary verdict — is the same for every process holding the view, and
/// is kept per id (`1 + a + … + a^(d−1)` of them, 21 in a 4³ group).
///
/// Building allocates per *prefix*, never per process: one slice per view,
/// one stack per leaf subgroup, one vector per tree level.
#[derive(Debug, Clone)]
pub struct SharedViews {
    depth: Depth,
    // `levels[i]` holds the depth `i + 1` views with the prefix (of `i`
    // components) they belong to, in prefix order, so a lookup is a binary
    // search over borrowed component slices.
    levels: Vec<Vec<(Prefix, DepthView)>>,
    // One view *stack* per leaf subgroup, parallel to the last level: the
    // views of depths `1..=d` of every process in that subgroup (siblings
    // hold identical views at every depth, so one shared allocation serves
    // the whole leaf group).
    stacks: Vec<ViewStack>,
    addresses: Arc<Vec<Address>>,
}

impl SharedViews {
    /// Builds the views of every populated prefix of the topology, electing
    /// `redundancy` delegates per subgroup.
    pub fn build<T: TreeTopology>(topology: &T, redundancy: usize) -> Self {
        let depth = topology.depth();
        // `members()` returns addresses in (lexicographic) address order, so
        // the dense identifier of an address is its position here and every
        // subtree occupies a contiguous index range — both facts the builder
        // below relies on instead of a million-entry id map.
        let addresses: Vec<Address> = topology.members();
        debug_assert!(addresses.windows(2).all(|pair| pair[0] < pair[1]));
        let id_of = |address: &Address| -> ProcessId {
            ProcessId(
                addresses
                    .binary_search(address)
                    .expect("view targets are group members"),
            )
        };

        let mut levels: Vec<Vec<(Prefix, DepthView)>> = Vec::with_capacity(depth);
        // Enumerate populated prefixes breadth-first from the root.  Each
        // frontier is in lexicographic order, so at the leaf level a single
        // cursor over `addresses` yields every subgroup's members (and their
        // dense identifiers) without re-materializing them per prefix.
        let mut frontier = vec![Prefix::root()];
        let mut cursor = 0usize;
        let mut targets = Vec::new();
        let mut next_id = 0u32;
        for view_depth in 1..=depth {
            let mut level = Vec::with_capacity(frontier.len());
            let mut next_frontier = Vec::new();
            for prefix in frontier {
                let listed: Arc<[GossipTarget]> = if view_depth == depth {
                    // Leaf views: one target per neighbour process.
                    let start = cursor;
                    while cursor < addresses.len() && addresses[cursor].has_prefix(&prefix) {
                        cursor += 1;
                    }
                    (start..cursor)
                        .map(|index| GossipTarget {
                            id: ProcessId(index),
                            subgroup: addresses[index].as_prefix(),
                        })
                        .collect()
                } else {
                    // Inner views: R delegates per populated child subgroup.
                    targets.clear();
                    for component in topology.populated_children(&prefix) {
                        let child = prefix.child(component);
                        for address in topology.delegates(&child, redundancy) {
                            targets.push(GossipTarget {
                                id: id_of(&address),
                                subgroup: child.clone(),
                            });
                        }
                        next_frontier.push(child);
                    }
                    targets.as_slice().into()
                };
                // The global fanout fill splits a view around the process's
                // own position with one binary search.
                debug_assert!(
                    listed.windows(2).all(|pair| pair[0].id < pair[1].id),
                    "view targets must be in strictly ascending ProcessId order"
                );
                level.push((prefix, DepthView { id: next_id, targets: listed }));
                next_id += 1;
            }
            levels.push(level);
            frontier = next_frontier;
        }

        let mut views = Self {
            depth,
            levels,
            stacks: Vec::new(),
            addresses: Arc::new(addresses),
        };
        // Share one view stack per leaf subgroup: the views along its
        // prefix path.
        views.stacks = views.levels[depth - 1]
            .iter()
            .map(|(leaf, _)| {
                (1..=depth)
                    .map(|view_depth| {
                        let view = views
                            .view_at(&leaf.components()[..view_depth - 1])
                            .expect("every ancestor of a populated prefix is populated");
                        view.clone()
                    })
                    .collect()
            })
            .collect();
        views
    }

    /// The tree depth `d`.
    pub fn depth(&self) -> Depth {
        self.depth
    }

    /// All member addresses in dense-identifier order.
    pub fn addresses(&self) -> &Arc<Vec<Address>> {
        &self.addresses
    }

    /// Position of the given prefix's view within its level.
    fn position(&self, prefix: &[Component]) -> Option<usize> {
        self.levels[prefix.len()]
            .binary_search_by(|(candidate, _)| candidate.components().cmp(prefix))
            .ok()
    }

    fn view_at(&self, prefix: &[Component]) -> Option<&DepthView> {
        self.position(prefix)
            .map(|position| &self.levels[prefix.len()][position].1)
    }

    /// The whole view stack of a process — its views of depths `1..=d`,
    /// `stack[i]` being the depth `i + 1` view.  The stack allocation is
    /// shared by all processes of the same leaf subgroup, so a
    /// million-process group holds one stack per leaf group, not per
    /// process.  Returns an empty stack for an address whose leaf subgroup
    /// is not populated.
    pub fn view_stack(&self, address: &Address) -> ViewStack {
        match self.position(&address.components()[..self.depth - 1]) {
            Some(position) => Arc::clone(&self.stacks[position]),
            None => Arc::new([]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcast_addr::AddressSpace;
    use pmcast_membership::ImplicitRegularTree;

    fn views() -> SharedViews {
        let topology = ImplicitRegularTree::new(AddressSpace::regular(3, 3).unwrap());
        SharedViews::build(&topology, 2)
    }

    /// The view a process holds at one depth, out of its shared stack.
    fn view_for(views: &SharedViews, address: &str, depth: Depth) -> DepthView {
        views.view_stack(&address.parse().unwrap())[depth - 1].clone()
    }

    #[test]
    fn build_covers_all_prefixes() {
        let v = views();
        assert_eq!(v.depth(), 3);
        assert_eq!(v.addresses.len(), 27);
        // Prefix counts: 1 root + 3 depth-2 + 9 depth-3 = 13 views, numbered
        // breadth-first.
        assert_eq!(v.levels.iter().map(Vec::len).sum::<usize>(), 13);
        let ids: Vec<u32> = v.levels.iter().flatten().map(|(_, view)| view.id()).collect();
        assert_eq!(ids, (0..13).collect::<Vec<u32>>());
    }

    #[test]
    fn inner_views_have_r_delegates_per_subgroup() {
        let v = views();
        let root_view = view_for(&v, "1.2.0", 1);
        assert_eq!(root_view.len(), 3 * 2);
        // Every target's subgroup is a depth-2 prefix.
        assert!(root_view.iter().all(|t| t.subgroup.len() == 1));
        // Delegates are the smallest addresses of their subgroup.
        assert!(root_view
            .iter()
            .any(|t| v.addresses()[t.id.0].to_string() == "0.0.0" && t.subgroup.components() == [0]));
        let depth2 = view_for(&v, "1.2.0", 2);
        assert_eq!(depth2.len(), 3 * 2);
        assert!(depth2.iter().all(|t| t.subgroup.components()[0] == 1));
    }

    #[test]
    fn leaf_views_list_neighbours() {
        let v = views();
        let address: Address = "2.1.2".parse().unwrap();
        let leaf = view_for(&v, "2.1.2", 3);
        assert_eq!(leaf.len(), 3);
        assert!(leaf.iter().all(|t| t.subgroup.len() == 3));
        assert!(leaf.iter().any(|t| v.addresses()[t.id.0] == address));
    }

    /// Every view of every depth lists distinct processes in strictly
    /// ascending `ProcessId` order — what the global fanout fill's binary
    /// search for the process's own position relies on.
    fn assert_views_ascend<T: TreeTopology>(topology: &T, redundancy: usize) {
        let v = SharedViews::build(topology, redundancy);
        assert!(!v.addresses.is_empty());
        for address in v.addresses().iter() {
            let stack = v.view_stack(address);
            assert_eq!(stack.len(), v.depth());
            for (index, view) in stack.iter().enumerate() {
                let prefix = &address.components()[..index];
                assert_eq!(view.id(), v.view_at(prefix).unwrap().id());
                assert!(Arc::ptr_eq(&view.targets, &v.view_at(prefix).unwrap().targets));
                assert!(
                    view.windows(2).all(|pair| pair[0].id < pair[1].id),
                    "depth {} view of {address} is not strictly ascending",
                    index + 1
                );
            }
        }
    }

    #[test]
    fn view_targets_ascend_on_regular_sparse_and_subscribed_trees() {
        use pmcast_interest::{Filter, Predicate};
        use pmcast_membership::GroupTree;

        assert_views_ascend(
            &ImplicitRegularTree::new(AddressSpace::regular(3, 4).unwrap()),
            3,
        );

        // A sparse population: one depth-1 subgroup empty, holes elsewhere
        // (including a subgroup's smallest addresses, so its delegates are
        // not the regular tree's).
        let space = AddressSpace::regular(3, 4).unwrap();
        let absent: Vec<u128> = (16..32).chain([0, 1, 5, 33, 34, 35, 36, 50, 63]).collect();
        let mut sparse = GroupTree::new(space.clone());
        for index in (0..64).filter(|index| !absent.contains(index)) {
            sparse.join(space.address_of_index(index), Filter::match_all()).unwrap();
        }
        assert_eq!(sparse.member_count(), 64 - absent.len());
        assert_views_ascend(&sparse, 2);

        // A group tree joined out of address order with real subscriptions.
        let mut tree = GroupTree::new(space.clone());
        for index in (0..64u128).rev().filter(|index| index % 5 != 2) {
            let filter = Filter::new().with("price", Predicate::gt(index as f64));
            tree.join(space.address_of_index(index), filter).unwrap();
        }
        assert_views_ascend(&tree, 3);
    }

    #[test]
    fn views_are_shared_between_siblings() {
        let v = views();
        let a = view_for(&v, "0.1.2", 2);
        let b = view_for(&v, "0.2.0", 2);
        assert!(Arc::ptr_eq(&a.targets, &b.targets), "siblings share the same view allocation");
        assert_eq!(a.id(), b.id());
    }
}
