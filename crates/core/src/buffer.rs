use std::sync::Arc;

use pmcast_addr::Depth;
use pmcast_interest::{Event, EventId, EventIdSet};

/// One buffered event at one depth: the `(event, rate, round)` tuples of the
/// `gossips[depth]` sets in Figure 3, extended with the precomputed round
/// budget so the Pittel estimate is evaluated once per depth rather than
/// once per round.
///
/// The event is held through an [`Arc`]: buffering, promoting and forwarding
/// an event never copies its payload.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferedGossip {
    /// The buffered event (shared with every other holder).
    pub event: Arc<Event>,
    /// Matching rate at this depth.
    pub rate: f64,
    /// Rounds this event has already been gossiped at this depth.
    pub round: u32,
    /// Round budget at this depth (`T(|view| · R · rate, F · rate)`).
    pub budget: u32,
}

/// The per-process gossip buffers: one set of buffered events per depth,
/// plus the set of event identifiers ever seen.
///
/// The *bound gossiping* of Section 3.3 acts as passive garbage collection:
/// an event lives in a depth's buffer for at most its round budget, after
/// which it is either promoted to the next depth or dropped for good.  The
/// `seen` set prevents a late gossip from resurrecting an already
/// garbage-collected event; it is an [`EventIdSet`] — a sorted vector that
/// costs no heap allocation while empty — because a million-process group
/// holds one of these per process and a trial only disseminates a handful
/// of events through each.  For the same reason the per-depth vectors only
/// appear with the first insert: the buffers of a process no event ever
/// reached own no heap memory, and asking whether they are empty reads none.
#[derive(Debug, Clone)]
pub struct GossipBuffers {
    depth: Depth,
    /// Empty until the first insert, one vector per depth from then on.
    by_depth: Vec<Vec<BufferedGossip>>,
    seen: EventIdSet,
}

impl GossipBuffers {
    /// Creates empty buffers for a tree of the given depth.  Allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: Depth) -> Self {
        assert!(depth >= 1, "a tree has at least one depth");
        Self {
            depth,
            by_depth: Vec::new(),
            seen: EventIdSet::new(),
        }
    }

    /// The tree depth these buffers cover.
    pub fn depth(&self) -> Depth {
        self.depth
    }

    /// Returns `true` if the event was ever inserted at any depth.
    pub fn has_seen(&self, event: EventId) -> bool {
        self.seen.contains(event)
    }

    /// Returns `true` if every per-depth buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.by_depth.iter().all(Vec::is_empty)
    }

    /// Total number of buffered entries across all depths.
    pub fn len(&self) -> usize {
        self.by_depth.iter().map(Vec::len).sum()
    }

    /// The buffered entries of one depth.
    ///
    /// # Panics
    ///
    /// Panics if the depth is out of range.
    pub fn at_depth(&self, depth: Depth) -> &[BufferedGossip] {
        assert!(depth >= 1 && depth <= self.depth);
        self.by_depth.get(depth - 1).map_or(&[], Vec::as_slice)
    }

    /// Mutable access to one depth's entries (creating the per-depth
    /// vectors if nothing was ever inserted).
    ///
    /// # Panics
    ///
    /// Panics if the depth is out of range.
    pub fn at_depth_mut(&mut self, depth: Depth) -> &mut Vec<BufferedGossip> {
        assert!(depth >= 1 && depth <= self.depth);
        if self.by_depth.is_empty() {
            self.by_depth.resize_with(self.depth, Vec::new);
        }
        &mut self.by_depth[depth - 1]
    }

    /// Inserts an event at a depth unless it was already seen (the
    /// `∄ depth ∃ (event, …) ∈ gossips[depth]` guard of Figure 3, line 20,
    /// hardened into "never seen before").  Returns `true` if inserted.
    pub fn insert(&mut self, depth: Depth, gossip: BufferedGossip) -> bool {
        if !self.seen.insert(gossip.event.id()) {
            return false;
        }
        self.at_depth_mut(depth).push(gossip);
        true
    }

    /// Re-files an event into a (deeper) depth without the seen-check; used
    /// when a process promotes an event from depth `i` to `i + 1`
    /// (Figure 3, lines 17–18).
    pub fn promote(&mut self, depth: Depth, gossip: BufferedGossip) {
        self.at_depth_mut(depth).push(gossip);
    }

    /// Number of distinct events ever seen.
    pub fn seen_count(&self) -> usize {
        self.seen.len()
    }

    /// The smallest identifier currently buffered at any depth, if any —
    /// the in-flight low watermark a retire must not cross.
    pub fn min_buffered_id(&self) -> Option<EventId> {
        self.by_depth
            .iter()
            .flatten()
            .map(|gossip| gossip.event.id())
            .min()
    }

    /// Compacts the seen-set below `floor` (see
    /// [`EventIdSet::compact_below`]); identifiers below the floor still
    /// count as seen.  Returns the number of retired identifiers.
    pub fn retire_seen_below(&mut self, floor: EventId) -> usize {
        self.seen.compact_below(floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gossip(id: u64) -> BufferedGossip {
        BufferedGossip {
            event: Arc::new(Event::builder(id).int("b", 1).build()),
            rate: 0.5,
            round: 0,
            budget: 5,
        }
    }

    #[test]
    fn insert_rejects_duplicates_across_depths() {
        let mut buffers = GossipBuffers::new(3);
        assert!(buffers.insert(1, gossip(7)));
        assert!(!buffers.insert(1, gossip(7)));
        assert!(!buffers.insert(2, gossip(7)));
        assert!(buffers.insert(3, gossip(8)));
        assert_eq!(buffers.len(), 2);
        assert_eq!(buffers.seen_count(), 2);
        assert!(buffers.has_seen(EventId(7)));
        assert!(!buffers.has_seen(EventId(9)));
    }

    #[test]
    fn promote_moves_between_depths_without_copying() {
        let mut buffers = GossipBuffers::new(2);
        buffers.insert(1, gossip(1));
        let entry = buffers.at_depth_mut(1).pop().unwrap();
        let payload = Arc::clone(&entry.event);
        buffers.promote(2, entry);
        assert!(buffers.at_depth(1).is_empty());
        assert_eq!(buffers.at_depth(2).len(), 1);
        assert!(!buffers.is_empty());
        // Promotion does not change the seen set …
        assert_eq!(buffers.seen_count(), 1);
        // … and moves the same shared payload, never a copy.
        assert!(Arc::ptr_eq(&payload, &buffers.at_depth(2)[0].event));
    }

    #[test]
    fn emptiness_and_depth() {
        let mut buffers = GossipBuffers::new(4);
        assert!(buffers.is_empty());
        assert_eq!(buffers.len(), 0);
        assert_eq!(buffers.depth(), 4);
        assert!(buffers.at_depth(4).is_empty());
        assert_eq!(buffers.min_buffered_id(), None);
        // Nothing was inserted yet: no per-depth vector exists.
        assert_eq!(buffers.by_depth.capacity(), 0);
        assert!(buffers.insert(4, gossip(3)));
        assert_eq!(buffers.by_depth.len(), 4);
        assert_eq!(buffers.depth(), 4);
        assert!(buffers.at_depth(1).is_empty());
        assert_eq!(buffers.at_depth(4).len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one depth")]
    fn zero_depth_panics() {
        let _ = GossipBuffers::new(0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_depth_panics() {
        let buffers = GossipBuffers::new(2);
        let _ = buffers.at_depth(3);
    }
}
