//! [`EventIdSet`]: a process's dedup history as a window, not a list.
//!
//! The publishing layers hand out identifiers sequentially, so the ids one
//! process has seen are an interval with holes (lpbcast's observation about
//! per-source event histories), and a receipt's "have I seen this?" should
//! cost one probe into that interval.  The set therefore has exactly three
//! shapes, picked by what the identifiers look like, never by a knob:
//!
//! 1. **Inline window.**  One word per plane covering the 64 identifiers
//!    from `base` (a multiple of 64) on.  No heap at all: a process a
//!    single-event trial infects keeps its ids in its own struct.
//! 2. **Spilled window.**  The same bitmap continued in a boxed word
//!    vector, while it stays *dense*: the whole window may span at most
//!    [`WORDS_PER_ID`] words per stored identifier (and at least
//!    [`MIN_WINDOW_WORDS`], so a handful of ids a few hundred apart do not
//!    count as sparse).  A probe is a subtraction, a shift and a mask.  The
//!    window re-bases downward when an identifier below it arrives and
//!    slides upward when [`EventIdSet::compact_below`] retires its front.
//! 3. **Sorted vector.**  Identifiers too spread out for a dense window —
//!    two clusters 2⁴⁰ apart, `{0, u64::MAX}` — live in a sorted vector per
//!    plane, binary-searched: the bitmap's size follows the *span* of the
//!    ids, the vector's their *count*, so the heap owned is O(len) words
//!    whatever an identifier's magnitude.  The vectors take the spill's
//!    place, and a set stays sorted until compaction empties it.
//!
//! Every shape holds two **planes** under one floor: the received
//! identifiers, and the delivered ones among them.  Which shape a set is in
//! depends on its history; what it *contains* does not, and equality and
//! iteration are by content.

use crate::EventId;

/// Identifiers per window word.
const WORD_BITS: u64 = u64::BITS as u64;

/// The density rule, first half: a window may span at most this many words
/// per identifier it stores, so a bitmap is never more than twice the
/// sorted vector it replaces.  It bounds memory, and any value keeps the set
/// correct.
const WORDS_PER_ID: u64 = 2;

/// The density rule, second half: a window may always span this many words
/// (256 identifiers), however few it stores — two ids a hundred apart are a
/// window, not a spread.
const MIN_WINDOW_WORDS: u64 = 4;

/// The planes: the received identifiers, and the delivered ones among them.
const RECEIVED: usize = 0;
const DELIVERED: usize = 1;

/// A compact set of received [`EventId`]s with the delivered ones marked
/// among them and one retirement floor, in one of the three shapes of the
/// [module docs](self): five words, no heap until an identifier falls
/// outside the 64 it holds inline, O(len) words from then on.  Every
/// simulated process keeps one and every receipt probes one.  Under
/// sustained publishing (the daemon) [`compact_below`](Self::compact_below)
/// bounds it to the in-flight window, never re-delivering a retired event.
#[derive(Debug, Clone, Default)]
pub struct EventIdSet {
    /// Identifiers strictly below this are retired: assumed received and
    /// delivered, not stored.
    floor: EventId,
    /// The identifier of bit 0 of `head`, a multiple of [`WORD_BITS`].
    /// Unused (zero) while the set is empty or sorted.
    base: u64,
    /// The window's first word, per plane: bit `i` is identifier
    /// `base + i`.  Zero while the set is sorted.
    head: [u64; 2],
    /// What does not fit in `head`; `None` until something does not.
    spill: Option<Box<Spill>>,
}

#[derive(Debug, Clone)]
enum Spill {
    /// The window's words after `head`, per plane: bit `j` of
    /// `tail[i][plane]` is identifier `base + 64 · (i + 1) + j`, and
    /// `ones[plane]` of those bits are set.
    Window {
        tail: Vec<[u64; 2]>,
        ones: [usize; 2],
    },
    /// Every identifier of a set too spread out for a window, ascending,
    /// per plane.
    Sorted([Vec<EventId>; 2]),
}

/// The word an identifier falls in, counted from identifier zero.
fn word_of(id: u64) -> u64 {
    id / WORD_BITS
}

/// The identifier's bit within its word.
fn bit_of(id: u64) -> u64 {
    1 << (id % WORD_BITS)
}

/// The positions of a word's set bits, ascending.
fn bits(mut word: u64) -> impl Iterator<Item = u64> {
    std::iter::from_fn(move || {
        if word == 0 {
            return None;
        }
        let bit = u64::from(word.trailing_zeros());
        word &= word - 1;
        Some(bit)
    })
}

impl EventIdSet {
    /// Creates an empty set.  Allocation-free, and it stays so while its
    /// identifiers fit one 64-identifier window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if the identifier was received (or retired).
    pub fn contains(&self, id: EventId) -> bool {
        self.has(RECEIVED, id)
    }

    /// Returns `true` if the identifier was delivered (or retired).
    pub fn is_delivered(&self, id: EventId) -> bool {
        self.has(DELIVERED, id)
    }

    fn has(&self, plane: usize, id: EventId) -> bool {
        // An identifier below the window wraps to an index past any tail.
        let index = word_of(id.0).wrapping_sub(word_of(self.base));
        let word = match (index, self.spill.as_deref()) {
            _ if id < self.floor => return true,
            (_, Some(Spill::Sorted(ids))) => return ids[plane].binary_search(&id).is_ok(),
            (0, _) => self.head[plane],
            (_, Some(Spill::Window { tail, .. })) => usize::try_from(index - 1)
                .ok()
                .and_then(|index| tail.get(index))
                .map_or(0, |words| words[plane]),
            (_, None) => 0,
        };
        word & bit_of(id.0) != 0
    }

    /// Inserts the identifier as received; returns `true` if it was not
    /// already present (`HashSet::insert`'s contract).  A retired
    /// identifier is refused: it counts as received.
    pub fn insert(&mut self, id: EventId) -> bool {
        if id < self.floor {
            return false;
        }
        self.make_room(id);
        self.mark(RECEIVED, id)
    }

    /// Marks the identifier delivered, and received if it was not; returns
    /// `true` if it was not delivered before.  A retired identifier is
    /// refused: it counts as delivered.
    pub fn deliver(&mut self, id: EventId) -> bool {
        self.insert(id);
        id >= self.floor && self.mark(DELIVERED, id)
    }

    /// Makes room for `id`, at or above the floor, in the window: widens it
    /// while it stays dense, and leaves it for the sorted vectors otherwise.
    fn make_room(&mut self, id: EventId) {
        let tail_len = match self.spill.as_deref() {
            Some(Spill::Sorted(_)) => return,
            Some(Spill::Window { tail, .. }) => tail.len() as u64,
            None if self.head[RECEIVED] == 0 => {
                // Empty: the window starts at the identifier's own word.
                self.base = id.0 - id.0 % WORD_BITS;
                return;
            }
            None => 0,
        };
        let (word, base_word) = (word_of(id.0), word_of(self.base));
        // The window this insert needs, in words, and where the identifier's
        // word sits in it once it is that wide.
        let (needed, prepend) = if word >= base_word {
            ((word - base_word + 1).max(tail_len + 1), 0)
        } else {
            (base_word - word + tail_len + 1, base_word - word)
        };
        if needed > tail_len + 1 {
            let allowed = MIN_WINDOW_WORDS.max(WORDS_PER_ID.saturating_mul(self.len() as u64 + 1));
            if needed > allowed {
                self.spread();
            } else {
                self.widen(needed, prepend);
            }
        }
    }

    /// Sets `id`'s bit in `plane`, its word in the window or the set
    /// sorted; returns `true` if it was clear.
    fn mark(&mut self, plane: usize, id: EventId) -> bool {
        let (bit, index) = (bit_of(id.0), word_of(id.0) - word_of(self.base));
        let word = match (index, self.spill.as_deref_mut()) {
            (_, Some(Spill::Sorted(ids))) => {
                let Err(position) = ids[plane].binary_search(&id) else { return false };
                ids[plane].insert(position, id);
                return true;
            }
            (0, _) => &mut self.head[plane],
            (index, Some(Spill::Window { tail, ones })) => {
                let word = &mut tail[(index - 1) as usize][plane];
                ones[plane] += usize::from(*word & bit == 0);
                word
            }
            (_, None) => unreachable!("the window was widened to hold the identifier's word"),
        };
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Widens the window to `needed` words, `prepend` of them in front of
    /// `head` (the downward re-base: `base` moves down, every stored bit
    /// keeps its identifier).
    fn widen(&mut self, needed: u64, prepend: u64) {
        let empty = || Box::new(Spill::Window { tail: Vec::new(), ones: [0; 2] });
        let Spill::Window { tail, ones } = &mut **self.spill.get_or_insert_with(empty) else {
            unreachable!("a sorted set has no window to widen")
        };
        if prepend > 0 {
            // The old head becomes the last of the prepended words; the new
            // head and the words between are empty.
            let front = (0..prepend - 1).map(|_| [0; 2]).chain([self.head]);
            tail.splice(0..0, front);
            for (ones, word) in ones.iter_mut().zip(self.head) {
                *ones += word.count_ones() as usize;
            }
            self.head = [0; 2];
            self.base -= prepend * WORD_BITS;
        }
        tail.resize((needed - 1) as usize, [0; 2]);
    }

    /// Leaves the window for the sorted vectors.
    fn spread(&mut self) {
        let ids = [RECEIVED, DELIVERED].map(|plane| {
            let mut ids = Vec::with_capacity(self.plane_len(plane) + 1);
            ids.extend(self.ids(plane));
            ids
        });
        self.head = [0; 2];
        self.base = 0;
        self.spill = Some(Box::new(Spill::Sorted(ids)));
    }

    /// Drops the window's first `count` words (the upward slide): `base`
    /// moves up, every bit still stored keeps its identifier.  A count past
    /// the window's end empties it.
    fn drop_front(&mut self, count: u64) {
        if count == 0 {
            return;
        }
        match self.spill.as_deref_mut() {
            Some(Spill::Window { tail, ones }) if count <= tail.len() as u64 => {
                self.head = tail[(count - 1) as usize];
                tail.drain(..count as usize);
                let set = |p: usize| tail.iter().map(|w| w[p].count_ones() as usize).sum();
                *ones = [RECEIVED, DELIVERED].map(set);
                self.base += count * WORD_BITS;
            }
            Some(Spill::Window { tail, ones }) => {
                self.head = [0; 2];
                tail.clear();
                *ones = [0; 2];
            }
            _ => self.head = [0; 2],
        }
    }

    /// Retires every identifier strictly below `floor` — the low watermark
    /// of long runs: they are removed from storage and treated as received
    /// and delivered forever after.  The floor only moves forward; calls
    /// with a lower floor are no-ops.  Returns the number of received
    /// identifiers dropped.
    pub fn compact_below(&mut self, floor: EventId) -> usize {
        if floor <= self.floor {
            return 0;
        }
        self.floor = floor;
        let before = self.len();
        if let Some(Spill::Sorted(ids)) = self.spill.as_deref_mut() {
            for ids in ids {
                let cut = ids.partition_point(|&id| id < floor);
                ids.drain(..cut);
            }
        } else if floor.0 > self.base {
            // Whole words below the floor's go, the floor's own word loses
            // its low bits, and the window slides up to the first word that
            // still stores something (a delivered bit is a received one).
            self.drop_front(word_of(floor.0) - word_of(self.base));
            for word in &mut self.head {
                *word &= !(bit_of(floor.0) - 1);
            }
            let leading = match (self.head[RECEIVED], self.spill.as_deref()) {
                (0, Some(Spill::Window { tail, .. })) => {
                    1 + tail.iter().take_while(|words| words[RECEIVED] == 0).count() as u64
                }
                _ => 0,
            };
            self.drop_front(leading);
        }
        if self.is_empty() {
            // Nothing stored: back to the inline, heap-free shape.
            *self = Self {
                floor,
                ..Self::default()
            };
        }
        before - self.len()
    }

    /// The current retirement floor: identifiers below it are assumed
    /// received and delivered.  Starts at zero (nothing retired).
    pub fn floor(&self) -> EventId {
        self.floor
    }

    /// Number of received identifiers in the set.
    pub fn len(&self) -> usize {
        self.plane_len(RECEIVED)
    }

    /// Number of delivered identifiers in the set.
    pub fn delivered_len(&self) -> usize {
        self.plane_len(DELIVERED)
    }

    fn plane_len(&self, plane: usize) -> usize {
        self.head[plane].count_ones() as usize
            + match self.spill.as_deref() {
                None => 0,
                Some(Spill::Window { ones, .. }) => ones[plane],
                Some(Spill::Sorted(ids)) => ids[plane].len(),
            }
    }

    /// Returns `true` if nothing was received (above the floor).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the received identifiers in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = EventId> + '_ {
        self.ids(RECEIVED)
    }

    /// The identifiers of one plane, ascending.
    fn ids(&self, plane: usize) -> impl Iterator<Item = EventId> + '_ {
        // One of the two sources is always empty: a sorted set has no
        // window bits, a window no sorted ids.
        let (tail, sorted): (&[[u64; 2]], &[EventId]) = match self.spill.as_deref() {
            None => (&[], &[]),
            Some(Spill::Window { tail, .. }) => (tail, &[]),
            Some(Spill::Sorted(ids)) => (&[], &ids[plane]),
        };
        let base = self.base;
        std::iter::once(self.head[plane])
            .chain(tail.iter().map(move |words| words[plane]))
            .zip((0u64..).map(move |index| base + index * WORD_BITS))
            .flat_map(|(word, first)| bits(word).map(move |bit| EventId(first + bit)))
            .chain(sorted.iter().copied())
    }
}

/// By content: two sets are equal when they retire the same identifiers and
/// store the same received and delivered ones, whichever shape their
/// histories left them in.
impl PartialEq for EventIdSet {
    fn eq(&self, other: &Self) -> bool {
        self.floor == other.floor
            && [RECEIVED, DELIVERED].into_iter().all(|plane| {
                self.plane_len(plane) == other.plane_len(plane)
                    && self.ids(plane).eq(other.ids(plane))
            })
    }
}

impl Eq for EventIdSet {}

impl FromIterator<EventId> for EventIdSet {
    fn from_iter<I: IntoIterator<Item = EventId>>(iter: I) -> Self {
        let mut set = Self::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(ids: &[u64]) -> EventIdSet {
        ids.iter().map(|&id| EventId(id)).collect()
    }

    fn ids_of(set: &EventIdSet) -> Vec<u64> {
        set.iter().map(|id| id.0).collect()
    }

    #[test]
    fn insert_and_contains() {
        let mut set = EventIdSet::new();
        assert!(set.is_empty());
        assert!(!set.contains(EventId(5)));
        assert!(set.insert(EventId(5)));
        assert!(!set.insert(EventId(5)));
        assert!(set.insert(EventId(2)));
        assert!(set.insert(EventId(9)));
        assert!(set.contains(EventId(2)));
        assert!(set.contains(EventId(5)));
        assert!(set.contains(EventId(9)));
        assert!(!set.contains(EventId(4)));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn iterates_in_ascending_order() {
        let set: EventIdSet = [7u64, 3, 7, 1].iter().map(|&v| EventId(v)).collect();
        let order: Vec<u64> = set.iter().map(|id| id.0).collect();
        assert_eq!(order, vec![1, 3, 7]);
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn compact_below_retires_old_ids_without_forgetting_them() {
        let mut set: EventIdSet = [1u64, 5, 9, 12].iter().map(|&v| EventId(v)).collect();
        assert_eq!(set.compact_below(EventId(9)), 2);
        assert_eq!(set.len(), 2);
        // Retired identifiers still read as seen and cannot be re-inserted.
        assert!(set.contains(EventId(1)));
        assert!(set.contains(EventId(3))); // never seen, but below the horizon
        assert!(!set.insert(EventId(5)));
        // Live identifiers are untouched.
        assert!(set.contains(EventId(9)));
        assert!(set.insert(EventId(20)));
        assert_eq!(set.floor(), EventId(9));
    }

    #[test]
    fn floor_is_monotone() {
        let mut set: EventIdSet = [4u64, 8].iter().map(|&v| EventId(v)).collect();
        assert_eq!(set.compact_below(EventId(8)), 1);
        // Moving the floor backwards is a no-op.
        assert_eq!(set.compact_below(EventId(2)), 0);
        assert_eq!(set.floor(), EventId(8));
        assert!(set.contains(EventId(8)));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn empty_set_allocates_nothing() {
        let set = EventIdSet::new();
        assert!(set.spill.is_none());
        assert!(!set.contains(EventId(0)));
    }

    #[test]
    fn the_set_is_five_words_and_one_window_of_ids_owns_no_heap() {
        assert_eq!(std::mem::size_of::<EventIdSet>(), 40);
        // Wherever the 64 identifiers sit, and in whatever order they come.
        for first in [0u64, 64, 10_048, u64::MAX - 63] {
            let mut set = EventIdSet::new();
            for offset in (0..64).rev() {
                assert!(set.insert(EventId(first + offset)));
            }
            assert!(set.spill.is_none(), "window at {first} spilled");
            assert_eq!(set.len(), 64);
            assert!(!set.contains(EventId(first.wrapping_sub(1))) || first == 0);
            assert_eq!(ids_of(&set), (first..=first + 63).collect::<Vec<_>>());
        }
    }

    #[test]
    fn the_window_grows_both_ways_while_dense() {
        let mut set = set_of(&[1_000]);
        // Up: four words are always allowed, then two per stored id.
        assert!(set.insert(EventId(1_200)));
        // Down: the window re-bases, nothing stored moves.
        assert!(set.insert(EventId(990)));
        assert!(set.insert(EventId(900)));
        assert!(matches!(set.spill.as_deref(), Some(Spill::Window { .. })));
        assert_eq!(ids_of(&set), vec![900, 990, 1_000, 1_200]);
        assert!(!set.insert(EventId(990)));
        assert!(!set.contains(EventId(899)) && !set.contains(EventId(1_201)));
        assert!(!set.contains(EventId(0)) && !set.contains(EventId(u64::MAX)));
        assert_eq!(set.len(), 4);
        assert_eq!(set.base, 896);
    }

    #[test]
    fn spread_out_identifiers_fall_back_to_the_sorted_vector() {
        let mut set = set_of(&[0, 3]);
        assert!(set.insert(EventId(u64::MAX)));
        let Some(Spill::Sorted([ids, delivered])) = set.spill.as_deref() else {
            panic!("a 2^64 span is no window");
        };
        assert_eq!((ids.len(), delivered.len()), (3, 0));
        assert_eq!((set.head, set.base), ([0; 2], 0));
        // Everything keeps working on the vector, small ids included.
        assert!(set.contains(EventId(3)) && set.contains(EventId(u64::MAX)));
        assert!(!set.contains(EventId(1)));
        assert!(set.insert(EventId(1)) && !set.insert(EventId(1)));
        assert_eq!(ids_of(&set), vec![0, 1, 3, u64::MAX]);
        assert_eq!(set, set_of(&[u64::MAX, 3, 1, 0]));
        // Retiring down to nothing returns the set to its heap-free shape.
        assert_eq!(set.compact_below(EventId(u64::MAX)), 3);
        assert_eq!(set.compact_below(EventId(u64::MAX)), 0);
        assert_eq!(ids_of(&set), vec![u64::MAX]);
        let mut drained = set_of(&[0, u64::MAX - 1]);
        assert_eq!(drained.compact_below(EventId(u64::MAX)), 2);
        assert!(drained.spill.is_none() && drained.is_empty());
        assert!(drained.insert(EventId(u64::MAX)));
        assert!(drained.spill.is_none());
    }

    #[test]
    fn compaction_slides_the_window_past_the_floor() {
        let mut set: EventIdSet = (0..1_000u64).map(EventId).collect();
        assert_eq!(set.len(), 1_000);
        // Inside a word, on a word boundary, and past the end.
        assert_eq!(set.compact_below(EventId(70)), 70);
        assert_eq!(set.base, 64);
        assert_eq!(set.compact_below(EventId(128)), 58);
        assert_eq!(set.base, 128);
        assert!(set.contains(EventId(127)) && !set.insert(EventId(100)));
        assert_eq!(ids_of(&set), (128..1_000).collect::<Vec<_>>());
        // Empty words in front of the first survivor go too.
        let mut gap = set_of(&[5, 200]);
        assert_eq!(gap.compact_below(EventId(6)), 1);
        assert_eq!((gap.base, gap.len()), (192, 1));
        assert_eq!(set.compact_below(EventId(5_000)), 872);
        assert!(set.is_empty() && set.spill.is_none());
        assert!(set.contains(EventId(4_999)) && !set.contains(EventId(5_000)));
        assert!(set.insert(EventId(5_000)));
    }

    #[test]
    fn equality_is_by_content_not_by_shape() {
        // A sorted set compacted down to a dense remainder equals the
        // window that only ever saw the remainder.
        let mut sorted = set_of(&[1 << 40, (1 << 40) + 1, 0]);
        assert!(matches!(sorted.spill.as_deref(), Some(Spill::Sorted(_))));
        sorted.compact_below(EventId(1));
        let mut window = set_of(&[(1 << 40) + 1, 1 << 40]);
        assert!(window.spill.is_none());
        assert_ne!(sorted, window, "the floors differ");
        window.compact_below(EventId(1));
        assert_eq!(sorted, window);
        assert_ne!(sorted, set_of(&[1 << 40]));
    }

    #[test]
    fn the_delivered_plane_is_a_subset_under_one_floor_in_every_shape() {
        // Inline, spilled and sorted: a delivered id is a received one, a
        // received one is delivered only when told, and one floor retires
        // both planes.
        for ids in [vec![3u64, 9], vec![3, 300, 9], vec![3, 1 << 40, 9]] {
            let mut set = set_of(&ids);
            assert!(set.deliver(EventId(9)));
            assert!(!set.deliver(EventId(9)));
            assert!(set.deliver(EventId(20)), "delivering receives too");
            assert!(set.contains(EventId(20)) && !set.insert(EventId(20)));
            assert!(set.is_delivered(EventId(9)) && !set.is_delivered(EventId(3)));
            assert_eq!((set.len(), set.delivered_len()), (ids.len() + 1, 2));
            let mut same = set_of(&[20, 9]);
            for &id in &ids {
                same.insert(EventId(id));
            }
            assert_ne!(set, same, "{ids:?}: the delivered planes differ");
            same.deliver(EventId(20));
            same.deliver(EventId(9));
            assert_eq!(set, same, "{ids:?}");
            assert_eq!(set.compact_below(EventId(10)), 2);
            assert!(set.is_delivered(EventId(3)) && !set.deliver(EventId(3)));
            assert_eq!((set.len(), set.delivered_len()), (ids.len() - 1, 1));
            assert_eq!(set.compact_below(EventId(u64::MAX)), ids.len() - 1);
            assert!(set.spill.is_none() && set.delivered_len() == 0);
        }
    }
}
