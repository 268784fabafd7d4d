use std::sync::Arc;

use pmcast_addr::Depth;
use pmcast_interest::{Event, EventId};

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
/// promoting an event never copies its payload or touches its count, and
/// forwarding it sends the id alone.  The depth it is filed at fills the
/// entry's last spare byte, and its mask is two words, so it stays 48 bytes
/// and word-aligned.
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
    /// The depth [`GossipBuffers`] filed the entry at, 0 before.
    depth: u8,
    /// The recorded mask over the depth view's positions, low word first.
    /// Under summary routing the provider's verdict: bit `p` is set when its
    /// summaries allow position `p`, valid only under the epoch below.
    /// Under oracle routing the `⊲` test: bit `p` is set when the oracle
    /// finds somebody interested below position `p`'s subgroup, valid for
    /// the life of the group.  Derived state, and private so that only an
    /// answer of the provider or the oracle ever gets here.
    allowed: [u64; 2],
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
        let mut entry = Self {
            event,
            rate,
            round,
            budget: 0,
            asked: false,
            depth: 0,
            allowed: [0; 2],
            asked_under: 0,
        };
        entry.rejudge(rate, budget, None);
        entry
    }

    /// Judges the entry afresh at the depth it is filed at: the rate and
    /// round budget there, the view's `⊲` mask if there is one (oracle
    /// routing; never beside a verdict) and no verdict.  Panics like `new`.
    pub(crate) fn rejudge(&mut self, rate: f64, budget: u32, interested: Option<u128>) {
        (self.rate, self.asked, self.asked_under) = (rate, interested.is_some(), 0);
        self.budget = u16::try_from(budget).expect("round budgets are capped per depth");
        self.set_mask(interested.unwrap_or(0));
    }

    /// The recorded mask, whole.
    fn mask(&self) -> u128 {
        u128::from(self.allowed[0]) | u128::from(self.allowed[1]) << 64
    }

    fn set_mask(&mut self, mask: u128) {
        self.allowed = [mask as u64, (mask >> 64) as u64];
    }

    /// Returns `true` while the entry has rounds of its budget left.
    pub fn has_budget(&self) -> bool {
        self.round < u32::from(self.budget)
    }

    /// The verdict recorded for this entry, if one was and the provider's
    /// summary epoch is still the one it was asked under.
    pub(crate) fn verdict_under(&self, epoch: u64) -> Option<u128> {
        (self.asked && self.asked_under == epoch).then(|| self.mask())
    }

    /// Records the provider's verdict, asked under `epoch`.
    pub(crate) fn record_verdict(&mut self, epoch: u64, allowed: u128) {
        self.asked = true;
        self.set_mask(allowed);
        self.asked_under = epoch;
    }

    /// The view's `⊲` mask recorded for this entry, if one was.
    pub(crate) fn interest(&self) -> Option<u128> {
        self.asked.then(|| self.mask())
    }

    /// The entry with the view's `⊲` mask recorded, if there is one.
    pub(crate) fn with_interest(mut self, interested: Option<u128>) -> Self {
        self.rejudge(self.rate, u32::from(self.budget), interested);
        self
    }
}

/// The per-process gossip buffers: every depth's entries in one run,
/// deepest depth first and each depth in filing order.  Depth `d + 1`'s run
/// ends where depth `d`'s begins, so an entry promoted out of the front of
/// its run is the next depth's last once its depth byte moves: a process
/// that buffers one event at a time keeps it in its own slot for its whole
/// life and owns no buffer heap.
///
/// The *bound gossiping* of Section 3.3 is passive garbage collection: an
/// event lives in a depth's run for at most its round budget, then moves on
/// to the next depth or is dropped for good.  The process's received set
/// (an [`pmcast_interest::EventIdSet`]) keeps a late gossip from
/// resurrecting a collected event.
#[derive(Debug, Clone)]
pub struct GossipBuffers {
    entries: Entries,
}

/// The buffered entries, one slice in either form: none or one in place,
/// or a heap block kept once grown, so no process allocates past warm-up.
/// 48 bytes: `None` and the block are values the entry's `asked` never takes.
#[derive(Debug, Clone)]
enum Entries {
    Inline(Option<BufferedGossip>),
    Heap(Vec<BufferedGossip>),
}

impl Entries {
    /// Inserts `entry` at `at`, moving an inline entry into a block of four
    /// (`Vec`'s own first growth) when a second one comes.
    fn insert(&mut self, at: usize, entry: BufferedGossip) {
        match self {
            Self::Inline(slot @ None) => *slot = Some(entry),
            Self::Inline(first) => {
                let mut block = Vec::with_capacity(4);
                block.extend(first.take());
                block.insert(at, entry);
                *self = Self::Heap(block);
            }
            Self::Heap(block) => block.insert(at, entry),
        }
    }

    /// Drops the first `count` entries.
    fn drop_front(&mut self, count: usize) {
        match self {
            Self::Inline(slot) => drop(slot.take_if(|_| count > 0)),
            Self::Heap(block) => drop(block.drain(..count)),
        }
    }
}

impl std::ops::Deref for Entries {
    type Target = [BufferedGossip];

    fn deref(&self) -> &[BufferedGossip] {
        match self {
            Self::Inline(slot) => slot.as_slice(),
            Self::Heap(block) => block,
        }
    }
}

impl std::ops::DerefMut for Entries {
    fn deref_mut(&mut self) -> &mut [BufferedGossip] {
        match self {
            Self::Inline(slot) => slot.as_mut_slice(),
            Self::Heap(block) => block,
        }
    }
}

impl Default for GossipBuffers {
    /// Empty buffers; they allocate nothing.
    fn default() -> Self {
        Self {
            entries: Entries::Inline(None),
        }
    }
}

impl GossipBuffers {
    /// Returns `true` if no depth buffers anything.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The shallowest depth buffering anything (the last entry's), if any.
    pub(crate) fn shallowest(&self) -> Option<Depth> {
        self.entries.last().map(|entry| Depth::from(entry.depth))
    }

    /// Total number of buffered entries across all depths.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Files an entry last in its depth: a publication, or a first receipt.
    /// The caller has filed its identifier as received, which is what keeps
    /// an event from being buffered twice (the `∄ depth ∃ (event, …) ∈
    /// gossips[depth]` guard of Figure 3, line 20, hardened into "never
    /// received before").
    ///
    /// # Panics
    ///
    /// Panics if the depth is zero or above 255; one past the tree is the
    /// caller's to refuse.
    pub fn file(&mut self, depth: Depth, mut gossip: BufferedGossip) {
        assert!(depth >= 1, "depths start at 1");
        let depth = u8::try_from(depth).expect("a tree has at most 255 depths");
        gossip.depth = depth;
        let deeper = self.entries.iter().rposition(|entry| entry.depth >= depth);
        let at = deeper.map_or(0, |last| last + 1);
        self.entries.insert(at, gossip);
    }

    /// Depth `depth`'s turn in a round (Figure 3, lines 15–18), its run
    /// ending at `end`: its spent entries move to its front in filing order
    /// and are promoted there to `judge`'s fresh judgement of their event,
    /// the next depth's last entries without moving again — or dropped at
    /// the leaf depth (no `judge`), whose run comes first.  Returns where
    /// the next depth's run ends and the entries left to gossip, in order.
    pub(crate) fn spend(
        &mut self,
        depth: Depth,
        end: usize,
        judge: Option<impl FnMut(&Event) -> (f64, u32, Option<u128>)>,
    ) -> (usize, &mut [BufferedGossip]) {
        // One pass from the back finds the run and gathers its spent entries
        // into a block sliding frontwards past the others, each of which
        // moves once at most — and none when the spent ones are the oldest.
        let entries = &mut *self.entries;
        let (mut start, mut block, mut spent) = (end, end, 0);
        while start > 0 && usize::from(entries[start - 1].depth) == depth {
            start -= 1;
            if entries[start].has_budget() {
                continue;
            }
            if spent > 0 && block > start + 1 {
                // Past the entries between this one and the block.
                entries[start + 1..block + spent].rotate_left(block - start - 1);
            }
            (block, spent) = (start, spent + 1);
        }
        if spent > 0 && block > start {
            entries[start..block + spent].rotate_left(block - start);
        }
        let Some(mut judge) = judge else {
            debug_assert_eq!(start, 0, "the leaf depth's run comes first");
            self.entries.drop_front(spent);
            return (0, &mut self.entries[..end - spent]);
        };
        for entry in &mut self.entries[start..start + spent] {
            let (rate, budget, interested) = judge(&entry.event);
            entry.rejudge(rate, budget, interested);
            (entry.round, entry.depth) = (0, entry.depth + 1);
        }
        (start + spent, &mut self.entries[start + spent..end])
    }

    /// The smallest identifier currently buffered at any depth, if any —
    /// the in-flight low watermark a retire must not cross.
    pub fn min_buffered_id(&self) -> Option<EventId> {
        self.entries.iter().map(|gossip| gossip.event.id()).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use pmcast_interest::EventIdSet;
    use proptest::prelude::*;

    impl GossipBuffers {
        /// The buffered entries of one depth, in filing order.
        ///
        /// # Panics
        ///
        /// Panics if the depth is zero.
        pub(crate) fn at_depth(&self, depth: Depth) -> &[BufferedGossip] {
            assert!(depth >= 1, "depths start at 1");
            let start = self
                .entries
                .partition_point(|entry| usize::from(entry.depth) > depth);
            let len =
                self.entries[start..].partition_point(|entry| usize::from(entry.depth) == depth);
            &self.entries[start..start + len]
        }

        /// Where the buffers' heap block lives and how many entries it
        /// holds, or `None` while they keep their entry inline.
        pub(crate) fn block(&self) -> Option<(*const BufferedGossip, usize)> {
            match &self.entries {
                Entries::Inline(_) => None,
                Entries::Heap(block) => Some((block.as_ptr(), block.capacity())),
            }
        }
    }

    /// The buffers as they were before they became one vector: a vector per
    /// depth, promoted into by moving the entry's share of the event into a
    /// fresh entry filed at the next depth.  Kept verbatim as the reference
    /// the flat buffers are held equal to.
    mod reference {
        use super::*;

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
    }

    fn gossip(id: u64) -> BufferedGossip {
        BufferedGossip::new(Arc::new(Event::builder(id).int("b", 1).build()), 0.5, 0, 5)
    }

    /// A fresh entry's judgement of `event` at `depth`, as arbitrary as a
    /// group's and as deterministic: budgets 0–3 (0 promotes on the spot),
    /// a `⊲` mask for odd ids only.
    fn judgement(event: &Event, depth: Depth) -> (f64, u32, Option<u128>) {
        let id = event.id().0;
        let budget = ((id * 7 + depth as u64 * 3) % 4) as u32;
        (
            id as f64 / 64.0 + depth as f64,
            budget,
            (id % 2 == 1).then_some(u128::from(id) << depth),
        )
    }

    /// What a visit or a judgement reads of an entry, comparable across
    /// both layouts (the flat one also files the depth in the entry).
    fn unfiled(entry: &BufferedGossip) -> BufferedGossip {
        BufferedGossip {
            depth: 0,
            ..entry.clone()
        }
    }

    /// What a visit changes in an entry: its round, and for every third
    /// event a summary verdict, which a promotion must not carry over.
    fn visit(entry: &mut BufferedGossip) {
        entry.round += 1;
        if entry.event.id().0.is_multiple_of(3) {
            entry.record_verdict(u64::from(entry.round), 0b101);
        }
    }

    /// One round of `gossip_depth`'s bookkeeping over the nested reference,
    /// as it was: every depth's spent entries extracted in order and filed
    /// fresh one depth deeper (dropped at the leaf), then every entry left
    /// visited.
    fn reference_round(
        buffers: &mut reference::GossipBuffers,
        depths: Depth,
        visits: &mut Vec<(Depth, BufferedGossip)>,
        judged: &mut Vec<(u64, Depth)>,
    ) {
        for depth in 1..=depths {
            if buffers.at_depth(depth).is_empty() {
                continue;
            }
            let mut entries = std::mem::take(buffers.at_depth_mut(depth));
            for exhausted in entries.extract_if(.., |entry| !entry.has_budget()) {
                if depth < depths {
                    judged.push((exhausted.event.id().0, depth + 1));
                    let (rate, budget, interest) = judgement(&exhausted.event, depth + 1);
                    let fresh = BufferedGossip::new(exhausted.event, rate, 0, budget);
                    buffers.file(depth + 1, fresh.with_interest(interest));
                }
            }
            for entry in &mut entries {
                visit(entry);
                visits.push((depth, entry.clone()));
            }
            *buffers.at_depth_mut(depth) = entries;
        }
    }

    /// One round of `PmcastProcess::on_round`'s bookkeeping over the flat
    /// buffers: from the shallowest depth that buffers anything on, each
    /// depth's [`GossipBuffers::spend`], then its entries with budget left
    /// visited.
    fn flat_round(
        buffers: &mut GossipBuffers,
        depths: Depth,
        visits: &mut Vec<(Depth, BufferedGossip)>,
        judged: &mut Vec<(u64, Depth)>,
    ) {
        let Some(shallowest) = buffers.shallowest() else {
            return;
        };
        let mut end = buffers.len();
        for depth in shallowest..=depths {
            let judge = (depth < depths).then_some(|event: &Event| {
                judged.push((event.id().0, depth + 1));
                judgement(event, depth + 1)
            });
            let (next_end, live) = buffers.spend(depth, end, judge);
            end = next_end;
            for entry in live {
                assert_eq!(
                    usize::from(entry.depth),
                    depth,
                    "an entry visited off its depth"
                );
                visit(entry);
                visits.push((depth, unfiled(entry)));
            }
        }
    }

    /// One step of a random buffer history.
    #[derive(Debug, Clone)]
    enum Step {
        /// A first receipt of a new event (or of event `id % next` when
        /// `again`) at a depth, mid-budget.
        File {
            depth: Depth,
            round: u32,
            budget: u32,
            again: bool,
            id: u64,
        },
        /// A round: promotions, visits and the leaf depth's collection.
        Round,
        /// A retire below the floor `id % next`, clamped at the smallest
        /// buffered id as `PmcastProcess::retire` clamps it.
        Retire { id: u64 },
    }

    /// Three receipts, three rounds and a retire in every seven steps; one
    /// receipt in ten names an event already seen.
    fn step() -> impl Strategy<Value = Step> {
        (0u8..7, 1usize..=5, 0u32..4, 0u32..5, 0u8..10, any::<u64>()).prop_map(
            |(kind, depth, round, budget, again, id)| match kind {
                0..=2 => Step::File {
                    depth,
                    round,
                    budget,
                    again: again == 0,
                    id,
                },
                3..=5 => Step::Round,
                _ => Step::Retire { id },
            },
        )
    }

    /// The flat buffers as `PmcastProcess` keeps them: beside the received
    /// set, which guards what is filed and retires what the nested
    /// reference's own seen-set retired.
    struct Flat {
        buffers: GossipBuffers,
        seen: EventIdSet,
    }

    impl Flat {
        /// `PmcastProcess::publish`'s filing: once per identifier.
        fn insert(&mut self, depth: Depth, gossip: BufferedGossip) -> bool {
            let fresh = self.seen.insert(gossip.event.id());
            if fresh {
                self.buffers.file(depth, gossip);
            }
            fresh
        }
    }

    /// Replays one history on the flat buffers and the nested reference,
    /// holding them equal after every step (see
    /// `flat_buffers_visit_like_the_nested_reference`), and the flat ones to
    /// their layout: the entry inline until a second one comes, one block
    /// from then on.  Returns how many entries were buffered after each step.
    fn replay(depths: Depth, steps: &[Step]) -> Vec<usize> {
        let mut flat = Flat {
            buffers: GossipBuffers::default(),
            seen: EventIdSet::new(),
        };
        let mut nested = reference::GossipBuffers::new(depths);
        let (mut next, mut most, mut lens) = (0u64, 0, Vec::new());
        for step in steps {
            match *step {
                Step::File {
                    depth,
                    round,
                    budget,
                    again,
                    id,
                } => {
                    let depth = depth.min(depths);
                    let id = if again && next > 0 { id % next } else { next };
                    next = next.max(id + 1);
                    if flat.buffers.len() == 64 {
                        continue;
                    }
                    let event = Arc::new(Event::builder(id).int("b", 1).build());
                    let (rate, _, interest) = judgement(&event, depth);
                    let entry =
                        BufferedGossip::new(event, rate, round, budget).with_interest(interest);
                    prop_assert_eq!(
                        flat.insert(depth, entry.clone()),
                        nested.insert(depth, entry)
                    );
                }
                Step::Round => {
                    let (mut flat_visits, mut nested_visits) = (Vec::new(), Vec::new());
                    let (mut flat_judged, mut nested_judged) = (Vec::new(), Vec::new());
                    flat_round(
                        &mut flat.buffers,
                        depths,
                        &mut flat_visits,
                        &mut flat_judged,
                    );
                    reference_round(&mut nested, depths, &mut nested_visits, &mut nested_judged);
                    prop_assert_eq!(flat_visits, nested_visits);
                    prop_assert_eq!(flat_judged, nested_judged);
                }
                Step::Retire { id } => {
                    let floor = EventId(id % (next + 1));
                    let clamp = |min: Option<EventId>| min.map_or(floor, |min| floor.min(min));
                    prop_assert_eq!(
                        flat.seen
                            .compact_below(clamp(flat.buffers.min_buffered_id())),
                        nested.retire_seen_below(clamp(nested.min_buffered_id()))
                    );
                }
            }
            let buffers = &flat.buffers;
            for depth in 1..=depths {
                let filed: Vec<BufferedGossip> =
                    buffers.at_depth(depth).iter().map(unfiled).collect();
                prop_assert_eq!(&filed[..], nested.at_depth(depth), "depth {}", depth);
            }
            prop_assert_eq!(buffers.len(), nested.len());
            prop_assert_eq!(buffers.is_empty(), nested.is_empty());
            prop_assert_eq!(buffers.min_buffered_id(), nested.min_buffered_id());
            prop_assert_eq!(flat.seen.len(), nested.seen_count());
            for id in 0..next + 1 {
                prop_assert_eq!(
                    flat.seen.contains(EventId(id)),
                    nested.has_seen(EventId(id))
                );
            }
            most = most.max(buffers.len());
            prop_assert_eq!(
                buffers.block().is_some(),
                most >= 2,
                "a block exactly from the second entry on"
            );
            lens.push(buffers.len());
        }
        lens
    }

    proptest! {
        /// The flat buffers are the nested ones in one vector: over random
        /// histories of receipts (fresh and repeated ids, any depth, any
        /// round and budget), rounds and retires, in trees 1–5 deep holding
        /// up to 64 entries, every round visits the same entries in the same
        /// order with the same rounds, judges the same promotions in the
        /// same order, and after every step each depth holds the same
        /// entries in the same order, and length, emptiness, the smallest
        /// buffered id and the seen-set agree.
        #[test]
        fn flat_buffers_visit_like_the_nested_reference(
            depths in 1usize..=5,
            steps in proptest::collection::vec(step(), 1..160),
        ) {
            replay(depths, &steps);
        }
    }

    /// The history every random one may miss, held to the reference the
    /// same way: one entry inline, promoted there, a second one that moves
    /// both into a block, then the leaf depth draining that block to empty
    /// one entry at a time — 0 → 1 → 2 → 1 → 0 entries — and a third entry
    /// filed into the emptied block.
    #[test]
    fn a_history_through_the_inline_entry_and_the_block_visits_like_the_reference() {
        let file = |depth, budget| Step::File {
            depth,
            round: 0,
            budget,
            again: false,
            id: 0,
        };
        // Event 0 is promoted with a depth-2 budget of 2 (`judgement`);
        // event 1 is filed at the leaf depth with 3.
        let steps = [
            file(1, 1),
            Step::Round,
            Step::Round,
            file(2, 3),
            Step::Round,
            Step::Round,
            Step::Round,
            Step::Round,
            file(1, 1),
        ];
        let lens = replay(2, &steps);
        assert_eq!(lens, [1, 1, 1, 2, 2, 1, 1, 0, 1]);
    }

    #[test]
    fn a_promoted_entry_keeps_its_share_and_its_place() {
        let mut buffers = GossipBuffers::default();
        buffers.file(1, gossip(1));
        buffers.entries[0].round = 5;
        let event = Arc::clone(&buffers.at_depth(1)[0].event);
        let shares = Arc::strong_count(&event);
        assert_eq!(buffers.block(), None, "one entry is kept inline");
        let (next_end, live) = buffers.spend(1, 1, Some(|_: &Event| (0.25, 3, Some(0b10))));
        assert_eq!(
            (next_end, live.len()),
            (1, 0),
            "nothing left at depth 1; depth 2's run ends at 1"
        );
        assert!(buffers.at_depth(1).is_empty());
        let promoted = &buffers.at_depth(2)[0];
        assert_eq!(
            (promoted.rate, promoted.round, promoted.budget),
            (0.25, 0, 3)
        );
        assert_eq!(promoted.interest(), Some(0b10));
        assert_eq!(promoted.depth, 2);
        // Promotion keeps the entry's own share of the payload where it was:
        // no copy, no clone, no move.
        assert!(Arc::ptr_eq(&event, &promoted.event));
        assert_eq!(Arc::strong_count(&event), shares);
        assert_eq!(buffers.block(), None);
        // At the leaf depth a spent entry is dropped, and its share with it.
        buffers.entries[0].round = 3;
        let (_, leaf) = buffers.spend(2, 1, None::<fn(&Event) -> (f64, u32, Option<u128>)>);
        assert!(leaf.is_empty());
        assert!(buffers.is_empty());
        assert_eq!(Arc::strong_count(&event), shares - 1);
        assert_eq!(buffers.block(), None);
    }

    #[test]
    fn emptiness_and_depth() {
        let mut buffers = GossipBuffers::default();
        assert!(buffers.is_empty());
        assert_eq!(buffers.len(), 0);
        assert_eq!(buffers.shallowest(), None);
        assert!(buffers.at_depth(4).is_empty());
        assert_eq!(buffers.min_buffered_id(), None);
        // Nothing was inserted yet: no block exists.
        assert_eq!(buffers.block(), None);
        buffers.file(4, gossip(3));
        assert_eq!(buffers.shallowest(), Some(4));
        buffers.file(1, gossip(1));
        buffers.file(2, gossip(2));
        buffers.file(4, gossip(4));
        // Deepest depth first, each depth in filing order.
        let filed: Vec<(u8, u64)> = buffers
            .entries
            .iter()
            .map(|entry| (entry.depth, entry.event.id().0))
            .collect();
        assert_eq!(filed, [(4, 3), (4, 4), (2, 2), (1, 1)]);
        assert_eq!(buffers.shallowest(), Some(1));
        assert!(buffers.at_depth(3).is_empty());
        assert_eq!(buffers.at_depth(4).len(), 2);
        assert_eq!(buffers.min_buffered_id(), Some(EventId(1)));
    }

    #[test]
    fn one_entry_is_inline_two_make_a_block_and_a_verdict_lives_under_its_epoch() {
        let mut buffers = GossipBuffers::default();
        buffers.file(1, gossip(1));
        assert_eq!(buffers.block(), None, "the first entry is kept in place");
        buffers.file(2, gossip(2));
        let (block, capacity) = buffers.block().expect("a second entry makes a block");
        assert_eq!(capacity, 4, "`Vec`'s own first growth");
        // The block outlives its entries: both spent, one promoted with no
        // budget, the leaf depth drains it, and the next entry is filed into
        // it, not back in place.
        for entry in buffers.entries.iter_mut() {
            entry.round = 5;
        }
        let (end, live) = buffers.spend(1, 2, Some(|_: &Event| (0.5, 0, None)));
        assert_eq!((end, live.len()), (2, 0));
        let (end, live) = buffers.spend(2, end, None::<fn(&Event) -> (f64, u32, Option<u128>)>);
        assert!(end == 0 && live.is_empty() && buffers.is_empty());
        buffers.file(1, gossip(3));
        assert_eq!(buffers.block(), Some((block, capacity)));
        // Entries are three words fatter than the four fields a caller sets,
        // the depth byte included, and word-aligned: the mask is two words.
        // Either form of the buffers is one entry.
        assert_eq!(std::mem::size_of::<BufferedGossip>(), 48);
        assert_eq!(std::mem::align_of::<BufferedGossip>(), 8);
        assert_eq!(std::mem::size_of::<Entries>(), 48);
        assert_eq!(std::mem::size_of::<GossipBuffers>(), 48);

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
    #[should_panic(expected = "depths start at 1")]
    fn zero_depth_panics() {
        GossipBuffers::default().file(0, gossip(1));
    }

    #[test]
    #[should_panic(expected = "at most 255 depths")]
    fn a_depth_that_does_not_fit_a_byte_panics() {
        GossipBuffers::default().file(256, gossip(1));
    }
}
