use std::sync::Arc;

use pmcast_addr::Depth;
use pmcast_interest::{Event, EventId, EventIdSet};

/// One buffered event at one depth: the `(event, rate, round)` tuples of the
/// `gossips[depth]` sets in Figure 3, extended with the precomputed round
/// budget so the Pittel estimate is evaluated once per depth rather than
/// once per round — and with one mask over the depth view's positions, asked
/// once per entry instead of once per pick or round: under summary routing
/// the provider's verdict on the event, under oracle routing the view's `⊲`
/// test.
///
/// The entry holds the event through an [`Arc`], the one share a buffering
/// process keeps (the group's store keeps the other): buffering and
/// promoting an event never copies its payload, and forwarding it sends the
/// id alone.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferedGossip {
    /// The buffered event (shared with the group's store and every other
    /// buffering process).
    pub event: Arc<Event>,
    /// Matching rate at this depth.
    pub rate: f64,
    /// Rounds this event has already been gossiped at this depth.
    pub round: u32,
    /// Round budget at this depth (`T(|view| · R · rate, F · rate)`), never
    /// above the protocol's per-depth cap of 64 rounds — which is what
    /// leaves room for the flag below without growing the entry.
    pub budget: u16,
    /// Whether a mask was ever recorded.  Every `u64` is an epoch a
    /// provider may report, so "not asked" is a field of its own and not one
    /// of `asked_under`'s values.
    asked: bool,
    /// The recorded mask over the depth view's positions.  Under summary
    /// routing the provider's verdict: bit `p` is set when its summaries
    /// allow position `p` for this event, valid only under the epoch below.
    /// Under oracle routing the `⊲` test: bit `p` is set when the interest
    /// oracle finds somebody interested below position `p`'s subgroup, valid
    /// for the life of the group.  Derived state, and private so that only
    /// an answer of the provider or the oracle ever gets here.
    allowed: u128,
    /// The provider's summary epoch the verdict was asked under.
    asked_under: u64,
}

impl BufferedGossip {
    /// How many view positions a recorded verdict covers.  A fixed inline
    /// width, not a knob: the entry stays three words fatter whatever the
    /// view, and a depth view wider than this under summary routing has its
    /// verdict asked per entry-round instead, the one way to serve it.
    pub(crate) const VERDICT_WIDTH: usize = u128::BITS as usize;

    /// An entry with no verdict recorded.
    ///
    /// # Panics
    ///
    /// Panics if `budget` exceeds `u16::MAX`; the protocols cap theirs at 64.
    pub fn new(event: Arc<Event>, rate: f64, round: u32, budget: u32) -> Self {
        Self {
            event,
            rate,
            round,
            budget: u16::try_from(budget).expect("round budgets are capped per depth"),
            asked: false,
            allowed: 0,
            asked_under: 0,
        }
    }

    /// Returns `true` while the entry has rounds of its budget left.
    pub fn has_budget(&self) -> bool {
        self.round < u32::from(self.budget)
    }

    /// The verdict recorded for this entry, if one was and the provider's
    /// summary epoch is still the one it was asked under.
    pub(crate) fn verdict_under(&self, epoch: u64) -> Option<u128> {
        (self.asked && self.asked_under == epoch).then_some(self.allowed)
    }

    /// Records the provider's verdict, asked under `epoch`.
    pub(crate) fn record_verdict(&mut self, epoch: u64, allowed: u128) {
        self.asked = true;
        self.allowed = allowed;
        self.asked_under = epoch;
    }

    /// The view's `⊲` mask recorded for this entry, if one was.
    pub(crate) fn interest(&self) -> Option<u128> {
        self.asked.then_some(self.allowed)
    }

    /// The entry with the view's `⊲` mask recorded, if there is one
    /// (oracle routing; never beside a verdict).
    pub(crate) fn with_interest(mut self, interested: Option<u128>) -> Self {
        if let Some(interested) = interested {
            self.asked = true;
            self.allowed = interested;
        }
        self
    }
}

/// The per-process gossip buffers: one set of buffered events per depth,
/// plus the set of event identifiers ever seen.
///
/// The *bound gossiping* of Section 3.3 acts as passive garbage collection:
/// an event lives in a depth's buffer for at most its round budget, after
/// which it is either promoted to the next depth or dropped for good.  The
/// `seen` set prevents a late gossip from resurrecting an already
/// garbage-collected event; it is an [`EventIdSet`] — a bitmap window that
/// costs no heap allocation while its identifiers fit 64 in a row — because
/// a million-process group holds one of these per process and a trial only
/// disseminates a handful of events through each.  For the same reason the
/// per-depth vectors only appear with the first insert: the buffers of a
/// process no event ever reached own no heap memory, and asking whether
/// they are empty reads none.
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
        if !self.mark_seen(gossip.event.id()) {
            return false;
        }
        self.file(depth, gossip);
        true
    }

    /// Files an identifier as seen without buffering anything (a first
    /// receipt, [filed](Self::file) once its content is at hand, or one
    /// whose content is gone).  Returns `true` if it was not seen before.
    pub fn mark_seen(&mut self, event: EventId) -> bool {
        self.seen.insert(event)
    }

    /// Files an entry whose identifier is already seen, without the
    /// seen-check: a first receipt [marked seen](Self::mark_seen) by the
    /// caller, or an event promoted from depth `i` to `i + 1` (Figure 3,
    /// lines 17–18).
    pub fn file(&mut self, depth: Depth, gossip: BufferedGossip) {
        let entries = self.at_depth_mut(depth);
        if entries.capacity() == 0 {
            // A single-event trial files one entry per depth per infected
            // process; `Vec`'s first growth would reserve four.
            entries.reserve_exact(1);
        }
        entries.push(gossip);
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
        BufferedGossip::new(Arc::new(Event::builder(id).int("b", 1).build()), 0.5, 0, 5)
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
        buffers.file(2, entry);
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
        assert_eq!(buffers.depth, 4);
        assert!(buffers.at_depth(4).is_empty());
        assert_eq!(buffers.min_buffered_id(), None);
        // Nothing was inserted yet: no per-depth vector exists.
        assert_eq!(buffers.by_depth.capacity(), 0);
        assert!(buffers.insert(4, gossip(3)));
        assert_eq!(buffers.by_depth.len(), 4);
        assert_eq!(buffers.depth, 4);
        assert!(buffers.at_depth(1).is_empty());
        assert_eq!(buffers.at_depth(4).len(), 1);
    }

    #[test]
    fn a_depth_starts_at_one_entry_and_a_verdict_lives_under_its_epoch() {
        let mut buffers = GossipBuffers::new(2);
        buffers.insert(1, gossip(1));
        assert_eq!(buffers.by_depth[0].capacity(), 1);
        assert_eq!(buffers.by_depth[1].capacity(), 0);
        buffers.insert(1, gossip(2));
        assert!(buffers.by_depth[0].capacity() >= 2);
        // Entries are three words fatter than the four fields a caller sets.
        assert_eq!(std::mem::size_of::<BufferedGossip>(), 48);

        let mut entry = gossip(3);
        // No epoch a provider can report reads as a verdict before one is
        // recorded — `u64::MAX` did while "not asked" was `epoch + 1 == 0`.
        for epoch in [0, 1, u64::MAX] {
            assert_eq!(entry.verdict_under(epoch), None);
        }
        entry.record_verdict(u64::MAX, 0b11);
        assert_eq!(entry.verdict_under(u64::MAX), Some(0b11));
        assert_eq!(entry.verdict_under(0), None);
        entry.record_verdict(0, 0b101);
        assert_eq!(entry.verdict_under(0), Some(0b101));
        assert_eq!(entry.verdict_under(1), None, "the filters changed since");
        entry.record_verdict(1, 0);
        assert_eq!(
            entry.verdict_under(1),
            Some(0),
            "everything vetoed is a verdict too"
        );

        // An interest mask has no epoch, and nobody interested is a mask.
        assert_eq!(gossip(4).with_interest(None).interest(), None);
        assert_eq!(gossip(4).with_interest(Some(0)).interest(), Some(0));
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
