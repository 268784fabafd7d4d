//! Lazily computed delegate views: the seat rule as arithmetic, not tables.
//!
//! [`DelegateView`](crate::DelegateView) materializes every process's slot
//! table up front — `O(n·a·d·slots)` memory and build time, which is what
//! keeps the delegate column of `scale_sweep` off the million-process row.
//! [`LazyDelegateView`] answers the *same* seat questions without building
//! anything: the converged delegate table is a pure function of the tree
//! shape and the alive set (each slot group holds the smallest alive members
//! of its subgroup, the deterministic smallest-address election of
//! Section 2), so `knows_at_depth` can simply *count* alive predecessors
//! inside the subgroup — two binary searches over a sorted alive list —
//! and `peer_at` can enumerate a single process's seats on demand.
//!
//! The provider models the idealized instantly-converged hierarchy:
//! lifecycle observations re-elect immediately, `round_elapsed` is a no-op,
//! and — crucially for the golden contract — **no randomness is consumed
//! anywhere** (rule: membership alternatives must be stream-neutral on the
//! workload and network streams, and this one does not even need its own
//! stream).  At bootstrap it is seat-for-seat identical to
//! [`DelegateView::bootstrap_sparse`](crate::DelegateView::bootstrap_sparse);
//! the equivalence is asserted over every `(process, depth, peer)` triple in
//! this module's tests.

use std::sync::RwLock;

use crate::delegate::TreeShape;
use crate::MembershipView;

/// Alive bookkeeping behind one lock: a flag per address for `O(1)`
/// membership checks plus the sorted alive indices for `O(log n)` rank
/// queries.
#[derive(Debug)]
struct LazyState {
    alive: Vec<bool>,
    /// Sorted dense indices of the alive processes.
    sorted: Vec<u32>,
}

impl LazyState {
    /// Number of alive processes in `[base, end)`, excluding `of`.
    fn alive_before(&self, base: usize, end: usize, of: usize) -> usize {
        let mut count = self.rank(end) - self.rank(base);
        if base <= of && of < end && self.alive[of] {
            count -= 1;
        }
        count
    }

    /// Number of alive processes below `index`: where the members at or
    /// after `index` start in the sorted alive list.
    fn rank(&self, index: usize) -> usize {
        self.sorted.partition_point(|&x| (x as usize) < index)
    }

    /// The first `capacity` alive members of `[base, base + size)` excluding
    /// `of`, ascending — the seated delegates of one slot group.
    fn seats(
        &self,
        base: usize,
        size: usize,
        of: usize,
        capacity: usize,
    ) -> impl Iterator<Item = u32> + '_ {
        self.seats_from(self.rank(base), base + size, of, capacity)
    }

    /// [`seats`](Self::seats) of the subgroup ending before `end` whose
    /// members start at position `start` (its base's [`rank`](Self::rank))
    /// of the sorted alive list — no search at all.
    fn seats_from(
        &self,
        start: usize,
        end: usize,
        of: usize,
        capacity: usize,
    ) -> impl Iterator<Item = u32> + '_ {
        self.sorted[start..]
            .iter()
            .copied()
            .take_while(move |&m| (m as usize) < end)
            .filter(move |&m| m as usize != of)
            .take(capacity)
    }

    /// The next alive index strictly after `of`, cyclically (the pinned ring
    /// contact; falls back to the plain successor when nobody else lives).
    fn next_alive(&self, of: usize) -> u32 {
        let n = self.alive.len();
        (1..n)
            .map(|offset| (of + offset) % n)
            .find(|&j| self.alive[j])
            .unwrap_or((of + 1) % n.max(1)) as u32
    }
}

/// A delegate-tree membership provider whose tables are computed, never
/// stored: `O(live)` memory regardless of `n`, constant-time bootstrap.
///
/// Semantically this is the fixed point the gossiping
/// [`DelegateView`](crate::DelegateView) converges to — suitable for the
/// sparse simulation core's scale sweeps, where per-round gossip dynamics
/// are not under test but the *seating rule* (and therefore which peers a
/// depth-`l` gossip can reach) is.
#[derive(Debug)]
pub struct LazyDelegateView {
    shape: TreeShape,
    state: RwLock<LazyState>,
}

impl LazyDelegateView {
    /// Creates the provider over a regular `arity^depth` tree with `slots`
    /// delegates per inner slot group.  `occupied` carries the initial
    /// population (`None` = fully populated), exactly like
    /// [`DelegateView::bootstrap_sparse`](crate::DelegateView::bootstrap_sparse)
    /// — but nothing is built here beyond the alive bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if `arity`, `depth` or `slots` is zero, or if an occupancy
    /// slice does not cover all `arity^depth` addresses.
    pub fn new(arity: u32, depth: usize, slots: usize, occupied: Option<&[bool]>) -> Self {
        assert!(arity > 0, "arity must be positive");
        assert!(depth > 0, "depth must be positive");
        assert!(slots > 0, "delegate slots must be positive");
        let shape = TreeShape::new(arity as usize, depth, slots);
        let n = shape.member_count();
        let alive = match occupied {
            Some(flags) => {
                assert_eq!(flags.len(), n, "occupancy flags must cover all {n} addresses");
                flags.to_vec()
            }
            None => vec![true; n],
        };
        let sorted = alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| i as u32)
            .collect();
        Self {
            shape,
            state: RwLock::new(LazyState { alive, sorted }),
        }
    }

    /// Enumerates `of`'s flat peer set in the dense provider's discovery
    /// order: every seated delegate (levels ascending, sibling components
    /// ascending, members ascending), deduplicated, then the ring contact.
    /// `O(a·d·slots)` per call — intended for small-group inspection, not
    /// the hot path (the protocol queries
    /// [`MembershipView::fill_known_at_depth`] instead).
    fn flat_of(&self, of: usize) -> Vec<u32> {
        let state = self.state.read().expect("lazy delegate lock poisoned");
        if !state.alive[of] {
            return Vec::new();
        }
        let mut known: Vec<u32> = Vec::new();
        for l in 1..=self.shape.depth {
            let capacity = self.shape.group_capacity(l);
            for g in 0..self.shape.arity {
                let base = self.shape.subgroup_base(of, l, g);
                let size = self.shape.subgroup_size(l);
                for member in state.seats(base, size, of, capacity) {
                    if !known.contains(&member) {
                        known.push(member);
                    }
                }
            }
        }
        if state.sorted.len() > 1 {
            let contact = state.next_alive(of);
            if !known.contains(&contact) {
                known.push(contact);
            }
        }
        known
    }
}

impl MembershipView for LazyDelegateView {
    fn estimated_size(&self) -> usize {
        self.state.read().expect("lazy delegate lock poisoned").sorted.len()
    }

    fn peer_count(&self, of: usize) -> usize {
        self.flat_of(of).len()
    }

    fn peer_at(&self, of: usize, k: usize) -> usize {
        self.flat_of(of)[k] as usize
    }

    fn knows(&self, of: usize, peer: usize) -> bool {
        if of == peer {
            return false;
        }
        {
            let state = self.state.read().expect("lazy delegate lock poisoned");
            if !state.alive[of] || !state.alive[peer] {
                return false;
            }
            if state.sorted.len() > 1 && state.next_alive(of) as usize == peer {
                return true;
            }
        }
        (1..=self.shape.depth).any(|l| self.knows_at_depth(of, l, peer))
    }

    /// `peer` is seated in `of`'s depth-`l` slot group iff fewer than the
    /// group's capacity of alive subgroup members precede it — a rank
    /// query, answered with two binary searches.
    fn knows_at_depth(&self, of: usize, depth: usize, peer: usize) -> bool {
        if of == peer || depth == 0 || depth > self.shape.depth {
            return false;
        }
        if self.shape.common_prefix(of, peer) + 1 < depth {
            return false; // not under the shared prefix of this view depth
        }
        let state = self.state.read().expect("lazy delegate lock poisoned");
        if !state.alive[of] || !state.alive[peer] {
            return false;
        }
        let g = self.shape.digit(peer, depth - 1);
        let base = self.shape.subgroup_base(of, depth, g);
        state.alive_before(base, peer, of) < self.shape.group_capacity(depth)
    }

    /// The whole depth under one lock and one binary search per
    /// *subgroup*: a pmcast view lists a subgroup's delegates
    /// consecutively, so where the previous peer's subgroup starts in the
    /// sorted alive list answers the next peer too.
    fn fill_known_at_depth(
        &self,
        of: usize,
        depth: usize,
        peers: &mut dyn Iterator<Item = usize>,
        out: &mut Vec<usize>,
    ) {
        if depth == 0 || depth > self.shape.depth {
            return;
        }
        let state = self.state.read().expect("lazy delegate lock poisoned");
        if !state.alive[of] {
            return;
        }
        let size = self.shape.subgroup_size(depth);
        let (block, span) = self.shape.view_block(of, depth);
        let capacity = self.shape.group_capacity(depth);
        // The previous peer's subgroup and its rank.
        let mut memo = (usize::MAX, 0);
        for (position, peer) in peers.enumerate() {
            if peer == of || peer.wrapping_sub(block) >= span {
                continue; // itself, or not under the shared prefix of this view depth
            }
            let base = peer - (peer - block) % size;
            if base != memo.0 {
                memo = (base, state.rank(base));
            }
            if state
                .seats_from(memo.1, base + size, of, capacity)
                .any(|member| member as usize == peer)
            {
                out.push(position);
            }
        }
    }

    /// No gossip dynamics to advance: the view is always converged.
    /// Consumes no randomness (stream-neutral by construction).
    fn round_elapsed(&self) {}

    fn observe_join(&self, process: usize) {
        let state = &mut *self.state.write().expect("lazy delegate lock poisoned");
        if state.alive[process] {
            return;
        }
        state.alive[process] = true;
        let pos = state.sorted.partition_point(|&x| (x as usize) < process);
        state.sorted.insert(pos, process as u32);
    }

    fn observe_leave(&self, process: usize) {
        let state = &mut *self.state.write().expect("lazy delegate lock poisoned");
        if !state.alive[process] {
            return;
        }
        state.alive[process] = false;
        let pos = state.sorted.partition_point(|&x| (x as usize) < process);
        state.sorted.remove(pos);
    }

    /// A crash re-elects instantly (idealized failure detection): same
    /// effect as a leave.
    fn observe_crash(&self, process: usize) {
        self.observe_leave(process);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelegateView, DelegateViewConfig};

    fn dense(arity: u32, depth: usize, slots: usize, occupied: &[bool]) -> DelegateView {
        DelegateView::bootstrap_sparse(
            arity,
            depth,
            DelegateViewConfig::default().with_slots(slots),
            42,
            occupied,
        )
    }

    fn assert_seat_equivalence(arity: u32, depth: usize, slots: usize, occupied: &[bool]) {
        let lazy = LazyDelegateView::new(arity, depth, slots, Some(occupied));
        let table = dense(arity, depth, slots, occupied);
        let n = occupied.len();
        assert_eq!(lazy.estimated_size(), table.estimated_size());
        for of in 0..n {
            for peer in 0..n {
                for l in 0..=depth + 1 {
                    assert_eq!(
                        lazy.knows_at_depth(of, l, peer),
                        table.knows_at_depth(of, l, peer),
                        "knows_at_depth({of}, {l}, {peer})"
                    );
                }
                assert_eq!(lazy.knows(of, peer), table.knows(of, peer), "knows({of}, {peer})");
            }
            let peers: Vec<usize> = (0..lazy.peer_count(of)).map(|k| lazy.peer_at(of, k)).collect();
            let dense_peers: Vec<usize> =
                (0..table.peer_count(of)).map(|k| table.peer_at(of, k)).collect();
            assert_eq!(peers, dense_peers, "flat enumeration of {of}");
        }
    }

    #[test]
    fn matches_the_dense_bootstrap_on_a_full_tree() {
        assert_seat_equivalence(3, 3, 2, &[true; 27]);
    }

    #[test]
    fn matches_the_dense_bootstrap_on_sparse_occupancy() {
        // Every third address occupied, plus a hole-free run at the end.
        let occupied: Vec<bool> = (0..16).map(|i| i % 3 == 0 || i >= 12).collect();
        assert_seat_equivalence(2, 4, 2, &occupied);
        // A lone process and an empty tree are degenerate but must not panic.
        let mut lone = vec![false; 8];
        lone[5] = true;
        assert_seat_equivalence(2, 3, 1, &lone);
        assert_seat_equivalence(2, 3, 1, &[false; 8]);
    }

    #[test]
    fn churn_reelects_instantly() {
        let lazy = LazyDelegateView::new(2, 2, 1, None);
        // Process 3 sees the smallest member of subtree 0 at depth 1.
        assert!(lazy.knows_at_depth(3, 1, 0));
        assert!(!lazy.knows_at_depth(3, 1, 1));
        lazy.observe_crash(0);
        // The next-smallest alive member is seated immediately.
        assert!(!lazy.knows_at_depth(3, 1, 0));
        assert!(lazy.knows_at_depth(3, 1, 1));
        lazy.observe_join(0);
        assert!(lazy.knows_at_depth(3, 1, 0));
        assert!(!lazy.knows_at_depth(3, 1, 1));
        assert_eq!(lazy.estimated_size(), 4);
    }

    #[test]
    fn bootstrap_cost_is_independent_of_slot_tables() {
        // A tree far too large for a dense table build: the lazy provider
        // only keeps the alive bookkeeping.
        let lazy = LazyDelegateView::new(32, 4, 3, None);
        let n = 32usize.pow(4);
        assert_eq!(lazy.estimated_size(), n);
        // Spot-check the seat rule at scale: the three smallest members of
        // the first depth-1 subtree are global delegates for everyone
        // outside it.
        assert!(lazy.knows_at_depth(n - 1, 1, 0));
        assert!(lazy.knows_at_depth(n - 1, 1, 1));
        assert!(lazy.knows_at_depth(n - 1, 1, 2));
        assert!(!lazy.knows_at_depth(n - 1, 1, 3));
    }
}
