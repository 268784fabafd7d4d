use std::cell::RefCell;
use std::sync::Arc;

use pmcast_addr::{Component, Prefix};
use pmcast_simnet::ProcessId;

use pmcast_membership::{allowed_runs, Addresses, TreeTopology};

/// One gossip destination of an inner view: the process's dense simulation
/// identifier and the child subgroup it is a delegate of.  Its identifier
/// names its address in [`SharedViews::addresses`]; a target carries none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipTarget {
    /// The destination's simulation identifier.
    pub id: ProcessId,
    /// The subgroup the destination represents at this depth.
    pub subgroup: Prefix,
}

/// What the target at one position of a view stands for when its subtree
/// is asked about.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Subgroup<'a> {
    /// An inner view's target: the child subgroup it is a delegate of.
    Listed(&'a Prefix),
    /// A leaf view's target: one process, named by its identifier.
    Leaf(ProcessId),
}

/// One shared per-depth view as a process holds it: the gossip targets
/// every process under the corresponding prefix iterates at that depth,
/// distinct processes in strictly ascending [`ProcessId`] order — listed in
/// an inner view, a leaf view being its leaf subgroup's consecutive ones —
/// the view's dense [`id`](Self::id), and where the holder's seats are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepthView {
    id: u32,
    /// The position of the first target at or after the holder's leaf
    /// subgroup's first identifier: where its seats begin, if it has any.
    first_seat: u32,
    targets: Targets,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Targets {
    Listed(Arc<[GossipTarget]>),
    /// A leaf view: the `len` identifiers from `first`.
    Leaf { first: u32, len: u32 },
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

    pub(crate) fn len(&self) -> usize {
        match &self.targets {
            Targets::Listed(targets) => targets.len(),
            Targets::Leaf { len, .. } => *len as usize,
        }
    }

    /// The identifier of the target at `position`, which must be in the view.
    pub(crate) fn target(&self, position: usize) -> ProcessId {
        match &self.targets {
            Targets::Listed(targets) => targets[position].id,
            Targets::Leaf { first, len } => {
                assert!(position < *len as usize, "no position {position} in a leaf view of {len}");
                ProcessId(*first as usize + position)
            }
        }
    }

    /// What the target at `position` stands for.
    pub(crate) fn subgroup(&self, position: usize) -> Subgroup<'_> {
        match &self.targets {
            Targets::Listed(targets) => Subgroup::Listed(&targets[position].subgroup),
            Targets::Leaf { .. } => Subgroup::Leaf(self.target(position)),
        }
    }

    /// The positions among `positions` whose [`subgroup`](Self::subgroup)
    /// `allows`, in order: asked once per run of equal listed subgroups,
    /// and once per leaf target, each a subgroup of its own.
    pub(crate) fn allowed<'a>(
        &'a self,
        positions: impl Iterator<Item = usize> + 'a,
        mut allows: impl FnMut(Subgroup<'_>) -> bool + 'a,
    ) -> impl Iterator<Item = usize> + 'a {
        let (listed, leaf) = match &self.targets {
            Targets::Listed(targets) => {
                let subgroups = positions.map(|position| (position, &targets[position].subgroup));
                let judge = move |prefix: &Prefix| allows(Subgroup::Listed(prefix));
                (Some(allowed_runs(subgroups, judge)), None)
            }
            Targets::Leaf { first, .. } => {
                let id = |position: usize| ProcessId(*first as usize + position);
                let leaf = positions.filter(move |&position| allows(Subgroup::Leaf(id(position))));
                (None, Some(leaf))
            }
        };
        // One concrete iterator for either kind of view; the other half is empty.
        listed.into_iter().flatten().chain(leaf.into_iter().flatten())
    }

    /// The position of `own` — a member of the holder's leaf subgroup — in
    /// the view, or `None` if it holds no seat there.
    ///
    /// No search: a leaf subgroup's seats hold consecutive identifiers (a
    /// leaf view is the whole subgroup, an inner view lists a subgroup's
    /// smallest members), so `own`'s offset from the first seat's identifier
    /// is its offset from the first seat.
    pub(crate) fn own_position(&self, own: ProcessId) -> Option<usize> {
        let Targets::Listed(targets) = &self.targets else {
            return own.0.checked_sub(self.target(0).0).filter(|&at| at < self.len());
        };
        let first = self.first_seat as usize;
        let position = first + own.0.checked_sub(targets.get(first)?.id.0)?;
        (targets.get(position)?.id == own).then_some(position)
    }
}

/// A process's whole view stack — its [`DepthView`]s of depths `1..=d`,
/// `stack[i]` being the depth `i + 1` view — one allocation shared by every
/// process of the same leaf subgroup.
pub type ViewStack = Arc<[DepthView]>;

/// Precomputed, shareable per-depth views for a whole group.
///
/// A process's view at depth `i` only depends on its own prefix of depth `i`
/// (Section 2.2), so instead of materialising `n` view tables the simulation
/// shares one table per `(depth, prefix)` pair — a few hundred entries even
/// for the 10 000-process evaluation group.  Every target is named by its
/// dense [`ProcessId`] so protocol code never needs to search for addresses
/// at gossip time, and every view carries a dense [`DepthView::id`]: what
/// the protocol computes from *(event, view)* — `GETRATE`, the round budget,
/// the summary verdict — is the same for every process holding the view, and
/// is kept per id (`1 + a + … + a^(d−1)` of them, 21 in a 4³ group).
///
/// Building allocates per *prefix*, never per process: one slice per inner
/// view, one stack per leaf subgroup (its leaf view inline), one vector per
/// tree level while it builds.  What it keeps is the stacks — every view is
/// in one — and the members' [`Addresses`], which a tree that fills its
/// space does not write out.  A pmcast group whose tree fills its space
/// shares one set per shape per thread.
#[derive(Debug, Clone)]
pub struct SharedViews {
    // One view *stack* per leaf subgroup, in prefix order: the views of
    // depths `1..=d` of every process in that subgroup (siblings hold
    // identical views at every depth, so one shared allocation serves the
    // whole leaf group).
    stacks: Vec<ViewStack>,
    addresses: Addresses,
    redundancy: usize,
}

impl SharedViews {
    /// Builds the views of every populated prefix of the topology, electing
    /// `redundancy` delegates per subgroup.
    pub fn build<T: TreeTopology>(topology: &T, redundancy: usize) -> Self {
        let depth = topology.depth();
        // Members are numbered in (lexicographic) address order, so every
        // subtree occupies a contiguous identifier range — the fact the
        // builder below relies on instead of a million-entry id map.
        let addresses = Addresses::of(topology);

        // `levels[i]` holds the depth `i + 1` views with the prefix (of `i`
        // components) they belong to, in prefix order, so a lookup is a
        // binary search over borrowed component slices.
        let mut levels: Vec<Vec<(Prefix, DepthView)>> = Vec::with_capacity(depth);
        // Enumerate populated prefixes breadth-first from the root.
        let mut frontier = vec![Prefix::root()];
        let mut listed = Vec::new();
        let mut next_id = 0u32;
        for view_depth in 1..=depth {
            let mut level = Vec::with_capacity(frontier.len());
            let mut next_frontier = Vec::new();
            for prefix in frontier {
                let targets = if view_depth == depth {
                    // Leaf views: the subgroup's consecutive identifiers.
                    let ids = addresses.ids_under(&prefix);
                    let id = |index| u32::try_from(index).expect("fewer than 2^32 processes");
                    Targets::Leaf { first: id(ids.start), len: id(ids.len()) }
                } else {
                    // Inner views: R delegates per populated child subgroup.
                    listed.clear();
                    for component in topology.populated_children(&prefix) {
                        let child = prefix.child(component);
                        for address in topology.delegates(&child, redundancy) {
                            listed.push(GossipTarget {
                                id: ProcessId(addresses.id_of(&address)),
                                subgroup: child.clone(),
                            });
                        }
                        next_frontier.push(child);
                    }
                    // A holder finds its own seat by arithmetic on identifiers.
                    debug_assert!(
                        listed.windows(2).all(|pair| pair[0].id < pair[1].id),
                        "view targets must be in strictly ascending ProcessId order"
                    );
                    Targets::Listed(listed.as_slice().into())
                };
                let view = DepthView { id: next_id, first_seat: 0, targets };
                level.push((prefix, view));
                next_id += 1;
            }
            levels.push(level);
            frontier = next_frontier;
        }

        let view_at = |prefix: &[Component]| -> &DepthView {
            let level = &levels[prefix.len()];
            let position = level
                .binary_search_by(|(candidate, _)| candidate.components().cmp(prefix))
                .expect("every ancestor of a populated prefix is populated");
            &level[position].1
        };
        // Share one view stack per leaf subgroup: the views along its
        // prefix path, each told where the subgroup's seats begin in it.
        let stacks = levels[depth - 1]
            .iter()
            .map(|(leaf, leaf_view)| {
                let first = leaf_view.target(0);
                let end = first.0 + leaf_view.len();
                (1..=depth)
                    .map(|view_depth| {
                        let view = view_at(&leaf.components()[..view_depth - 1]);
                        let Targets::Listed(targets) = &view.targets else {
                            return view.clone();
                        };
                        let first_seat = targets.partition_point(|target| target.id < first);
                        debug_assert!(
                            targets[first_seat..]
                                .iter()
                                .take_while(|target| target.id.0 < end)
                                .enumerate()
                                .all(|(offset, target)| target.id.0 == first.0 + offset),
                            "a leaf subgroup's seats hold consecutive identifiers"
                        );
                        DepthView {
                            first_seat: u32::try_from(first_seat)
                                .expect("a view lists fewer than 2^32 targets"),
                            ..view.clone()
                        }
                    })
                    .collect()
            })
            .collect();
        Self {
            stacks,
            addresses,
            redundancy,
        }
    }

    /// The views of `topology`, shared with every group of its shape built
    /// on this thread.  A topology that fills its space has the views of
    /// `(space, redundancy)` alone — every child populated, a subgroup's `r`
    /// smallest addresses its delegates — so the thread keeps its last one.
    pub(crate) fn shared<T: TreeTopology>(topology: &T, redundancy: usize) -> Arc<Self> {
        thread_local! {
            static LAST: RefCell<Option<Arc<SharedViews>>> = const { RefCell::new(None) };
        }
        if topology.member_count() as u128 != topology.space().capacity() {
            return Arc::new(Self::build(topology, redundancy));
        }
        LAST.with_borrow_mut(|last| {
            let kept = last.as_deref().filter(|views| views.redundancy == redundancy);
            if !kept.is_some_and(|views| views.addresses.space() == topology.space()) {
                *last = None; // the old set goes before the new one is built
                *last = Some(Arc::new(Self::build(topology, redundancy)));
            }
            Arc::clone(last.as_ref().expect("the slot was just filled"))
        })
    }

    /// The members' addresses by dense identifier.
    pub fn addresses(&self) -> &Addresses {
        &self.addresses
    }

    /// One view stack per leaf subgroup, in prefix order — so the stacks'
    /// leaf views, one after the other, cover every process in identifier
    /// order, and a group hands each process its stack's index by walking
    /// them.  A million-process group holds one stack per leaf group, not
    /// per process.
    pub(crate) fn stacks(&self) -> &[ViewStack] {
        &self.stacks
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pmcast_addr::{Address, AddressSpace, Depth};
    use pmcast_membership::ImplicitRegularTree;

    /// `view` as a list of targets, each with the subgroup it represents —
    /// the listing every view was before a leaf view became an id range.
    pub(crate) fn listing(view: &DepthView, addresses: &Addresses) -> Vec<GossipTarget> {
        match &view.targets {
            Targets::Listed(targets) => targets.to_vec(),
            Targets::Leaf { first, len } => (*first as usize..(first + len) as usize)
                .map(|id| GossipTarget {
                    id: ProcessId(id),
                    subgroup: addresses.address(id).as_prefix(),
                })
                .collect(),
        }
    }

    /// The prefix a view target's subtree is: a leaf target's, its address.
    pub(crate) fn prefix_of(subgroup: Subgroup<'_>, addresses: &Addresses) -> Prefix {
        match subgroup {
            Subgroup::Listed(prefix) => prefix.clone(),
            Subgroup::Leaf(id) => addresses.address(id.0).as_prefix(),
        }
    }

    fn views() -> SharedViews {
        let topology = ImplicitRegularTree::new(AddressSpace::regular(3, 3).unwrap());
        SharedViews::build(&topology, 2)
    }

    /// The processes a stack serves: its leaf view's.
    fn members(stack: &ViewStack) -> impl Iterator<Item = ProcessId> + '_ {
        let leaf = stack.last().unwrap();
        (0..leaf.len()).map(|at| leaf.target(at))
    }

    /// The stack of the process at `address`, searched for.
    fn stack_of<'a>(views: &'a SharedViews, address: &Address) -> &'a ViewStack {
        views
            .stacks()
            .iter()
            .find(|stack| members(stack).any(|id| *views.addresses().address(id.0) == *address))
            .expect("every member has a stack")
    }

    /// The view a process holds at one depth, out of its shared stack.
    fn view_for(views: &SharedViews, address: &str, depth: Depth) -> DepthView {
        stack_of(views, &address.parse().unwrap())[depth - 1].clone()
    }

    #[test]
    fn build_covers_all_prefixes() {
        let v = views();
        assert_eq!(v.addresses.member_count(), 27);
        assert!(
            format!("{:?}", v.addresses).contains("written: false"),
            "a full tree writes no address out"
        );
        // Prefix counts: 1 root + 3 depth-2 + 9 depth-3 = 13 views, numbered
        // breadth-first — the stacks, in prefix order, meet each depth's
        // views in ascending id order.
        assert_eq!(v.stacks().len(), 9);
        assert!(v.stacks().iter().all(|stack| stack.len() == 3));
        for depth in 1..=3 {
            let mut ids: Vec<u32> = v.stacks().iter().map(|stack| stack[depth - 1].id()).collect();
            assert!(ids.windows(2).all(|pair| pair[0] <= pair[1]));
            ids.dedup();
            let first = [0, 1, 4][depth - 1];
            assert_eq!(ids, (first..first + 3u32.pow(depth as u32 - 1)).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn inner_views_have_r_delegates_per_subgroup() {
        let v = views();
        let root_view = listing(&view_for(&v, "1.2.0", 1), v.addresses());
        assert_eq!(root_view.len(), 3 * 2);
        // Every target's subgroup is a depth-2 prefix.
        assert!(root_view.iter().all(|t| t.subgroup.len() == 1));
        // Delegates are the smallest addresses of their subgroup.
        assert!(root_view
            .iter()
            .any(|t| v.addresses().address(t.id.0).to_string() == "0.0.0"
                && t.subgroup.components() == [0]));
        let depth2 = listing(&view_for(&v, "1.2.0", 2), v.addresses());
        assert_eq!(depth2.len(), 3 * 2);
        assert!(depth2.iter().all(|t| t.subgroup.components()[0] == 1));
    }

    #[test]
    fn leaf_views_list_neighbours() {
        let v = views();
        let address: Address = "2.1.2".parse().unwrap();
        let leaf = listing(&view_for(&v, "2.1.2", 3), v.addresses());
        assert_eq!(leaf.len(), 3);
        assert!(leaf.iter().all(|t| t.subgroup.len() == 3));
        assert!(leaf
            .iter()
            .any(|t| *v.addresses().address(t.id.0) == address));
    }

    /// Walking the stacks' leaf views visits every process once, in
    /// identifier order, and hands it the views below its own prefix path —
    /// one allocation per view id; every view lists distinct processes in
    /// strictly ascending `ProcessId` order; and a process's own position in
    /// each is where a search for its identifier finds it — what the draws
    /// under a global membership take instead of that search.
    fn assert_stacks_hold_every_process<T: TreeTopology>(topology: &T, redundancy: usize) {
        let v = SharedViews::build(topology, redundancy);
        assert!(v.addresses.member_count() > 0);
        assert_eq!(
            v.addresses,
            topology.members(),
            "identifiers are in address order"
        );
        let walked: Vec<(ProcessId, &ViewStack)> = v
            .stacks()
            .iter()
            .flat_map(|stack| members(stack).map(move |id| (id, stack)))
            .collect();
        assert_eq!(walked.len(), v.addresses().member_count());
        let mut by_id: Vec<Option<Targets>> = Vec::new();
        for (index, (own, stack)) in walked.into_iter().enumerate() {
            assert_eq!(own, ProcessId(index));
            let address = &*v.addresses().address(index);
            assert_eq!(stack.len(), topology.depth());
            for (at, view) in stack.iter().enumerate() {
                let prefix = &address.components()[..at];
                let listed = listing(view, v.addresses());
                assert!(listed.iter().all(|target| target.subgroup.components()[..at] == *prefix));
                let id = view.id() as usize;
                by_id.resize(by_id.len().max(id + 1), None);
                match (by_id[id].get_or_insert_with(|| view.targets.clone()), &view.targets) {
                    (Targets::Listed(shared), Targets::Listed(targets)) => {
                        assert!(Arc::ptr_eq(shared, targets), "view {id} is allocated twice");
                    }
                    (shared, targets) => assert_eq!(shared, targets, "view {id}"),
                }
                assert!(
                    listed.windows(2).all(|pair| pair[0].id < pair[1].id),
                    "depth {} view of {address} is not strictly ascending",
                    at + 1
                );
                assert_eq!(
                    view.own_position(own),
                    listed.iter().position(|target| target.id == own),
                    "depth {} view of {address}",
                    at + 1
                );
                // `allowed` asks what the run fold over the listing asks, in
                // the same order, and keeps the same positions — over every
                // position and over every other one — naming a leaf target
                // by its identifier, and every target as `subgroup` does.
                for step in [1, 2] {
                    let (mut asked, mut expected) = (Vec::new(), Vec::new());
                    let allows = |asks: &mut Vec<Prefix>, subgroup: &Prefix| {
                        asks.push(subgroup.clone());
                        subgroup.components().iter().sum::<u32>() % 3 != 1
                    };
                    let positions = || (0..view.len()).step_by(step);
                    let ask = |subgroup: Subgroup<'_>| {
                        let leaf = matches!(subgroup, Subgroup::Leaf(_));
                        assert_eq!(leaf, at + 1 == topology.depth(), "depth {}", at + 1);
                        allows(&mut asked, &prefix_of(subgroup, v.addresses()))
                    };
                    let kept: Vec<usize> = view.allowed(positions(), ask).collect();
                    for position in positions() {
                        let prefix = prefix_of(view.subgroup(position), v.addresses());
                        assert_eq!(prefix, listed[position].subgroup);
                    }
                    let subgroups = positions().map(|at| (at, &listed[at].subgroup));
                    let ask = |subgroup: &Prefix| allows(&mut expected, subgroup);
                    let reference: Vec<usize> = allowed_runs(subgroups, ask).collect();
                    assert_eq!((kept, asked), (reference, expected), "view {id}, step {step}");
                }
            }
        }
        assert!(by_id.iter().all(Option::is_some), "view ids are dense");
    }

    #[test]
    fn own_positions_follow_the_delegate_election() {
        // 3^3 with R = 2: process 0.0.0 is a delegate (in its own view at
        // every depth), 0.0.2 is in its own view at the leaf depth only, and
        // no view holds a process twice.
        let v = views();
        let seated: Vec<bool> = [0, 2, 13, 26]
            .into_iter()
            .flat_map(|index| {
                let stack = stack_of(&v, &v.addresses().address(index));
                stack.iter().map(move |view| view.own_position(ProcessId(index)).is_some())
            })
            .collect();
        assert_eq!(
            seated,
            [
                true, true, true, // 0.0.0: root delegate, depth-2 delegate, leaf
                false, false, true, // 0.0.2: a plain leaf member
                false, true, true, // 1.1.1: delegate of 1.1 only
                false, false, true, // 2.2.2
            ]
        );
    }

    #[test]
    fn stacks_hold_every_process_on_regular_sparse_and_subscribed_trees() {
        use pmcast_interest::{Filter, Predicate};
        use pmcast_membership::GroupTree;

        assert_stacks_hold_every_process(
            &ImplicitRegularTree::new(AddressSpace::regular(3, 4).unwrap()),
            3,
        );
        // One level: the leaf view is the whole group.
        assert_stacks_hold_every_process(
            &ImplicitRegularTree::new(AddressSpace::regular(1, 7).unwrap()),
            3,
        );

        // A sparse population: one depth-1 subgroup empty, holes elsewhere
        // (including a subgroup's smallest addresses, so its delegates are
        // not the regular tree's).
        let space = AddressSpace::regular(3, 4).unwrap();
        let absent: Vec<u128> = (16..32).chain([0, 1, 5, 33, 34, 35, 36, 50, 63]).collect();
        let sparse = joined_but(&space, &absent);
        assert_eq!(sparse.member_count(), 64 - absent.len());
        assert_stacks_hold_every_process(&sparse, 2);

        // A group tree joined out of address order with real subscriptions.
        let mut tree = GroupTree::new(space.clone());
        for index in (0..64u128).rev().filter(|index| index % 5 != 2) {
            let filter = Filter::new().with("price", Predicate::gt(index as f64));
            tree.join(space.address_of_index(index), filter).unwrap();
        }
        assert_stacks_hold_every_process(&tree, 3);
    }

    /// Every address of `space` joined to a group tree, in address order,
    /// but those at the listed indices.
    fn joined_but(space: &AddressSpace, absent: &[u128]) -> pmcast_membership::GroupTree {
        let mut tree = pmcast_membership::GroupTree::new(space.clone());
        for index in (0..space.capacity()).filter(|index| !absent.contains(index)) {
            let filter = pmcast_interest::Filter::match_all();
            tree.join(space.address_of_index(index), filter).unwrap();
        }
        tree
    }

    /// `served` holds what a fresh build of `topology` holds: the addresses,
    /// and every stack's view ids, targets and first seats.
    fn assert_serves_a_fresh_build<T: TreeTopology>(served: &SharedViews, topology: &T, r: usize) {
        let fresh = SharedViews::build(topology, r);
        assert_eq!(served.addresses(), &topology.members());
        assert_eq!(fresh.addresses(), &topology.members());
        assert_eq!(served.stacks(), fresh.stacks());
    }

    #[test]
    fn a_served_view_set_is_the_one_a_fresh_build_makes() {
        // 2^3, 3^2 and 8^3, each built by the implicit tree and served to a
        // fully joined group tree of the same space, at redundancy 1 and 3.
        for space in [(3, 2), (2, 3), (3, 8)].map(|(d, a)| AddressSpace::regular(d, a).unwrap()) {
            let implicit = ImplicitRegularTree::new(space.clone());
            let joined = joined_but(&space, &[]);
            for redundancy in [1, 3] {
                let served = SharedViews::shared(&implicit, redundancy);
                let again = SharedViews::shared(&joined, redundancy);
                assert!(Arc::ptr_eq(&served, &again), "{space:?}, R = {redundancy}: built twice");
                assert_serves_a_fresh_build(&served, &implicit, redundancy);
                assert_serves_a_fresh_build(&again, &joined, redundancy);
            }
        }
    }

    #[test]
    fn another_shape_or_redundancy_replaces_the_cached_views() {
        let small = ImplicitRegularTree::new(AddressSpace::regular(3, 2).unwrap());
        let large = ImplicitRegularTree::new(AddressSpace::regular(2, 3).unwrap());
        let first = SharedViews::shared(&small, 3);
        let other = SharedViews::shared(&large, 3);
        assert_eq!(Arc::strong_count(&first), 1, "the slot let go of the first shape");
        let rebuilt = SharedViews::shared(&small, 3);
        assert!(!Arc::ptr_eq(&first, &rebuilt) && !Arc::ptr_eq(&other, &rebuilt));
        let thinner = SharedViews::shared(&small, 1);
        assert!(!Arc::ptr_eq(&rebuilt, &thinner), "redundancy 1 is served redundancy 3's views");
        assert_eq!(Arc::strong_count(&rebuilt), 1);
        assert!(Arc::ptr_eq(&thinner, &SharedViews::shared(&small, 1)));
        assert_serves_a_fresh_build(&thinner, &small, 1);
    }

    #[test]
    fn a_tree_short_of_its_space_is_built_fresh_and_never_kept() {
        let space = AddressSpace::regular(3, 2).unwrap();
        let full = SharedViews::shared(&ImplicitRegularTree::new(space.clone()), 2);
        let sparse = joined_but(&space, &[0]);
        let built = SharedViews::shared(&sparse, 2);
        assert_eq!(Arc::strong_count(&built), 1, "a partial tree's views were kept");
        assert!(!Arc::ptr_eq(&built, &SharedViews::shared(&sparse, 2)));
        assert_serves_a_fresh_build(&built, &sparse, 2);
        assert_eq!(built.addresses().member_count(), 7);
        assert!(format!("{:?}", built.addresses()).contains("written: true"));
        assert_eq!(*built.addresses(), sparse.members());
        let served = SharedViews::shared(&joined_but(&space, &[]), 2);
        assert!(Arc::ptr_eq(&full, &served), "the full shape's views stayed in the slot");
    }

    #[test]
    fn views_are_shared_between_siblings() {
        let v = views();
        let a = view_for(&v, "0.1.2", 2);
        let b = view_for(&v, "0.2.0", 2);
        let (Targets::Listed(a_targets), Targets::Listed(b_targets)) = (&a.targets, &b.targets)
        else {
            panic!("an inner view lists its targets");
        };
        assert!(Arc::ptr_eq(a_targets, b_targets), "siblings share the same view allocation");
        assert_eq!(a.id(), b.id());
    }

    /// Every leaf view of `topology`'s views holds what the listing that
    /// leaf views were before they became id ranges held: the leaf
    /// subgroup's members in address order, each its own address as its
    /// subgroup, numbered after every inner view — and a member's own
    /// position is where it sits in that listing.
    fn assert_leaf_views_are_the_old_listing<T: TreeTopology>(topology: &T) {
        let views = SharedViews::build(topology, 2);
        let members = topology.members();
        let leaf_of = |address: &Address| address.components()[..topology.depth() - 1].to_vec();
        let inner_views: usize = (0..topology.depth() - 1)
            .map(|len| {
                let mut prefixes: Vec<&[u32]> =
                    members.iter().map(|address| &address.components()[..len]).collect();
                prefixes.dedup();
                prefixes.len()
            })
            .sum();
        let mut old: Vec<Vec<GossipTarget>> = Vec::new();
        for (index, address) in members.iter().enumerate() {
            if index == 0 || leaf_of(address) != leaf_of(&members[index - 1]) {
                old.push(Vec::new());
            }
            let target = GossipTarget { id: ProcessId(index), subgroup: address.as_prefix() };
            old.last_mut().unwrap().push(target);
        }
        assert_eq!(views.stacks().len(), old.len());
        for (k, (stack, listed)) in views.stacks().iter().zip(&old).enumerate() {
            let leaf = stack.last().unwrap();
            assert_eq!(leaf.id() as usize, inner_views + k, "leaf view {k}");
            assert_eq!(listing(leaf, views.addresses()), *listed, "leaf view {k}");
            for target in listed {
                let position = listed.iter().position(|other| other.id == target.id);
                assert_eq!(leaf.own_position(target.id), position);
            }
            let (first, end) = (listed[0].id.0, listed[0].id.0 + listed.len());
            let outside = [first.wrapping_sub(1), end].map(ProcessId);
            assert!(outside.iter().all(|&id| leaf.own_position(id).is_none()));
        }
    }

    #[test]
    fn a_leaf_view_is_its_subgroup_s_id_range_and_reads_like_the_old_listing() {
        assert_leaf_views_are_the_old_listing(&ImplicitRegularTree::new(
            AddressSpace::regular(3, 4).unwrap(),
        ));
        let space = AddressSpace::regular(3, 4).unwrap();
        let absent: Vec<u128> = (16..32).chain([0, 1, 5, 33, 34, 35, 36, 50, 63]).collect();
        assert_leaf_views_are_the_old_listing(&joined_but(&space, &absent));
    }
}
