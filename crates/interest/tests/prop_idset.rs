//! [`EventIdSet`] is proven against a model, not trusted.
//!
//! The set picks one of three shapes from what its identifiers look like —
//! an inline 64-identifier window, a spilled bitmap window while that stays
//! dense, a sorted vector for identifiers too spread out for one — and
//! moves between them on the way (a window re-bases downward, slides upward
//! under compaction, and gives up for the vector when an insert would make
//! it sparse).  This file steps it beside the obvious model, a
//! [`BTreeSet`] of received identifiers, a second one of delivered
//! identifiers kept inside it, and one floor for both, through random
//! `insert` / `deliver` / `contains` / `is_delivered` / `compact_below` /
//! `len` / `delivered_len` / `iter` histories over the identifier shapes
//! that exercise every one of those moves, including the ones no benchmark
//! has:
//!
//! * ascending with local disorder (the `interest.idset_insert_ns` kernel's
//!   shape, what gossip delivers),
//! * descending (every 64th insert re-bases the window downward),
//! * two clusters 2⁴⁰ apart and the `{0, u64::MAX}` extremes (no window can
//!   span them),
//! * identifiers spread evenly over 2⁶⁰,
//!
//! with floors that land inside the window, on a word boundary, on its end
//! and far past it.  Beside the answers it holds the **heap the set owns**
//! — counted by this file's allocator around every mutating call — to
//! O(len) words for every shape, and to a bitmap's size for the dense ones;
//! an allocation whose size follows an identifier's *magnitude* is refused
//! outright, so a lost density test fails here at once instead of taking
//! the host's memory with it.
//!
//! An integration-test crate of its own so the counting
//! `#[global_allocator]` (and the `unsafe` it needs) stays outside the
//! `#![forbid(unsafe_code)]` library; counts are per thread, so tests
//! running beside each other do not see one another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

use pmcast_interest::{EventId, EventIdSet};
use proptest::prelude::*;

thread_local! {
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// No history here stores more than a few thousand identifiers; a request
/// this large can only be a bitmap sized by an identifier's magnitude.
const REFUSED_FROM: usize = 1 << 28;

fn moved(by: isize) {
    // `try_with`: the allocator outlives the thread-local during thread
    // teardown.
    let _ = LIVE.try_with(|live| live.set(live.get() + by));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, or returns null, which the contract
// allows for any request; the counting touches only a const-initialised
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= REFUSED_FROM {
            return std::ptr::null_mut();
        }
        moved(layout.size() as isize);
        // SAFETY: the caller's obligations are passed on verbatim.
        unsafe { System.alloc(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= REFUSED_FROM {
            return std::ptr::null_mut();
        }
        moved(new_size as isize - layout.size() as isize);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        moved(-(layout.size() as isize));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The set under test with the books kept beside it: the model (the
/// received identifiers, the delivered ones among them, one floor), the
/// bytes of heap the set's own calls have left allocated, and the most
/// identifiers it ever stored (compaction frees no capacity, as it never
/// did, so the heap is held against the peak).
#[derive(Debug, Default)]
struct Stepped {
    set: EventIdSet,
    model: BTreeSet<u64>,
    delivered: BTreeSet<u64>,
    floor: u64,
    owned: isize,
    peak: usize,
}

impl Stepped {
    /// Runs one mutating call of the set, charging it what it allocates.
    fn charged<T>(&mut self, call: impl FnOnce(&mut EventIdSet) -> T) -> T {
        let before = LIVE.with(Cell::get);
        let result = call(&mut self.set);
        self.owned += LIVE.with(Cell::get) - before;
        result
    }

    fn insert(&mut self, id: u64) {
        let expected = id >= self.floor && self.model.insert(id);
        let fresh = self.charged(|set| set.insert(EventId(id)));
        assert_eq!(fresh, expected, "insert({id}) over floor {}", self.floor);
        self.peak = self.peak.max(self.model.len());
        self.check_around(id);
    }

    /// Delivering an identifier receives it too, unless it is retired.
    fn deliver(&mut self, id: u64) {
        let expected = id >= self.floor && self.delivered.insert(id);
        if id >= self.floor {
            self.model.insert(id);
        }
        let fresh = self.charged(|set| set.deliver(EventId(id)));
        assert_eq!(fresh, expected, "deliver({id}) over floor {}", self.floor);
        self.peak = self.peak.max(self.model.len());
        self.check_around(id);
    }

    fn compact_below(&mut self, floor: u64) {
        let expected = if floor > self.floor {
            self.floor = floor;
            self.delivered = self.delivered.split_off(&floor);
            let kept = self.model.split_off(&floor);
            std::mem::replace(&mut self.model, kept).len()
        } else {
            0
        };
        let dropped = self.charged(|set| set.compact_below(EventId(floor)));
        assert_eq!(dropped, expected, "compact_below({floor})");
        assert_eq!(self.set.floor(), EventId(self.floor));
        self.check_around(floor);
        self.check_content();
    }

    fn contains(&self, id: u64) {
        assert_eq!(
            self.set.contains(EventId(id)),
            id < self.floor || self.model.contains(&id),
            "contains({id}) over floor {}",
            self.floor
        );
        assert_eq!(
            self.set.is_delivered(EventId(id)),
            id < self.floor || self.delivered.contains(&id),
            "is_delivered({id}) over floor {}",
            self.floor
        );
    }

    /// Probes where an off-by-one of the window arithmetic would show: the
    /// identifier, its neighbours, one word either side — and the books.
    fn check_around(&self, id: u64) {
        for probe in [
            id,
            id.wrapping_sub(1),
            id.wrapping_add(1),
            id.wrapping_sub(64),
            id.wrapping_add(64),
            id ^ 63,
        ] {
            self.contains(probe);
        }
        assert_eq!(self.set.len(), self.model.len());
        assert_eq!(self.set.delivered_len(), self.delivered.len());
        assert_eq!(self.set.is_empty(), self.model.is_empty());
        // O(len) words: a window spans at most two words per identifier (at
        // least four), each a pair, one per plane; the vectors hold one word
        // per received and per delivered identifier; growth at most doubles
        // any of them, and the box in front of them is seven words at most.
        let words = 8 * self.peak.max(4) + 16;
        assert!(
            (0..=8 * words as isize).contains(&self.owned),
            "{} bytes of heap for a peak of {} identifiers",
            self.owned,
            self.peak
        );
    }

    fn check_content(&self) {
        let stored: Vec<u64> = self.set.iter().map(|id| id.0).collect();
        let expected: Vec<u64> = self.model.iter().copied().collect();
        assert_eq!(stored, expected);
        assert!(self.delivered.is_subset(&self.model));
        for &id in &self.model {
            assert_eq!(
                self.set.is_delivered(EventId(id)),
                self.delivered.contains(&id)
            );
        }
        assert_eq!(self.set.delivered_len(), self.delivered.len());
    }

    /// A set holding what this one holds, built by plain inserts and
    /// deliveries.
    fn rebuilt(&self, ids: impl Iterator<Item = u64>) -> EventIdSet {
        let mut set = EventIdSet::new();
        for id in ids {
            if self.delivered.contains(&id) {
                set.deliver(EventId(id));
            } else {
                set.insert(EventId(id));
            }
        }
        set.compact_below(EventId(self.floor));
        set
    }
}

/// How a history's identifiers are laid out.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Ascending,
    Descending,
    Clusters,
    Extremes,
    Spread,
}

/// The `index`-th identifier of `count` in the shape, from `anchor`.
fn id_at(shape: Shape, anchor: u64, count: u64, index: u64) -> u64 {
    match shape {
        // Permuted within blocks of 32, like the kernel's.
        Shape::Ascending => anchor + (index ^ 0x1F),
        Shape::Descending => anchor + ((count - 1 - index) ^ 0x3),
        Shape::Clusters => anchor + ((index % 2) << 40) + index / 2,
        Shape::Extremes => {
            let step = index / 2 * (anchor % 97 + 1);
            if index.is_multiple_of(2) {
                step
            } else {
                u64::MAX - step
            }
        }
        Shape::Spread => {
            // A permutation of the slots: 7 919 is prime and above any count.
            let slot = index * 7_919 % count;
            slot * ((1 << 60) / count) + anchor % 1_000
        }
    }
}

/// A floor for the next compaction, aimed by `aim` at the places a window
/// can get it wrong; `pick` chooses among what is stored.
fn floor_for(stepped: &Stepped, aim: u64, pick: u64) -> u64 {
    let stored = |rank: u64| {
        let rank = (rank % stepped.model.len().max(1) as u64) as usize;
        stepped
            .model
            .iter()
            .nth(rank)
            .copied()
            .unwrap_or(stepped.floor)
    };
    let last = stepped.model.last().copied().unwrap_or(stepped.floor);
    match aim % 7 {
        // Inside the window, on a stored identifier.
        0 => stored(pick),
        // Inside it, between two.
        1 => stored(pick).saturating_add(1),
        // On a word boundary.
        2 => stored(pick) / 64 * 64,
        3 => (stored(pick) / 64).saturating_add(1).saturating_mul(64),
        // On the end, and far past it.
        4 => last.saturating_add(1),
        5 => last.saturating_add(1_000 + pick % 100_000),
        // Backwards: a no-op.
        _ => stepped.floor.saturating_sub(1 + pick % 100),
    }
}

#[derive(Debug, Clone)]
struct History {
    shape: Shape,
    anchor: u64,
    /// Per identifier: what else happens after it is inserted, and a pick.
    extras: Vec<(u8, u64)>,
}

fn arb_history() -> impl Strategy<Value = History> {
    (0usize..5, any::<u64>(), 0u8..3).prop_flat_map(|(shape, anchor, size)| {
        let shape = [
            Shape::Ascending,
            Shape::Descending,
            Shape::Clusters,
            Shape::Extremes,
            Shape::Spread,
        ][shape];
        // Small sets sit at the inline/spill and window/vector borders;
        // larger ones grow, slide and compact a real window.
        let count = [1usize..12, 12..150, 150..600][size as usize].clone();
        prop::collection::vec((0u8..24, any::<u64>()), count).prop_map(move |extras| History {
            shape,
            // Room above for every shape's offsets.
            anchor: anchor >> 2,
            extras,
        })
    })
}

proptest! {
    /// Every answer of the set equals the model's, after every step of a
    /// random history over every shape — both planes, the delivered one
    /// inside the received one, under one floor; its heap stays O(len); and
    /// what it ends up holding equals the same identifiers inserted and
    /// delivered ascending and descending — content, not history, is what a
    /// set is.
    #[test]
    fn the_set_equals_the_model_over_every_shape(history in arb_history()) {
        let mut stepped = Stepped::default();
        let count = history.extras.len() as u64;
        for (index, &(extra, pick)) in history.extras.iter().enumerate() {
            stepped.insert(id_at(history.shape, history.anchor, count, index as u64));
            match extra {
                // A duplicate of something already offered.
                0..=2 => stepped.insert(id_at(history.shape, history.anchor, count, pick % (index as u64 + 1))),
                // An identifier from nowhere near (or below the floor).
                3 => stepped.insert(pick),
                4 => stepped.contains(pick),
                5 => {
                    let floor = floor_for(&stepped, pick, pick >> 8);
                    stepped.compact_below(floor);
                }
                // A delivery of something offered (received or not yet),
                // or of an identifier from nowhere near.
                6..=8 => stepped.deliver(id_at(history.shape, history.anchor, count, pick % count)),
                9 => stepped.deliver(pick),
                _ => {}
            }
        }
        stepped.check_content();
        let ascending = stepped.rebuilt(stepped.model.iter().copied());
        let descending = stepped.rebuilt(stepped.model.iter().rev().copied());
        prop_assert_eq!(&ascending, &descending);
        prop_assert_eq!(&stepped.set, &ascending);
        prop_assert_eq!(&stepped.set, &stepped.set.clone());
    }
}

/// The heap, in words, a set owns after taking `ids` in order.
fn words_after(ids: impl Iterator<Item = u64>) -> (EventIdSet, usize) {
    let mut stepped = Stepped::default();
    for id in ids {
        stepped.insert(id);
    }
    stepped.check_content();
    let words = stepped.owned as usize / 8;
    (stepped.set, words)
}

#[test]
fn dense_identifiers_cost_a_bitmap_whichever_way_they_arrive() {
    // A thousand dense ids are sixteen words of bitmap; a vector of them
    // would be a thousand.  Descending is the shape that only stays a
    // bitmap if the window re-bases downward.
    let count = 1_000;
    let (ascending, up) =
        words_after((0..count).map(|i| id_at(Shape::Ascending, 10_000, count, i)));
    let (descending, down) =
        words_after((0..count).map(|i| id_at(Shape::Descending, 10_000, count, i)));
    assert!(up <= 64, "ascending: {up} words");
    assert!(down <= 64, "descending: {down} words");
    assert_eq!(ascending.len(), 1_000);
    // The kernel's shape covers 10 000..11 024 with holes, descending
    // 10 000..11 000 without: equal once both hold the same.
    let same: EventIdSet = ascending.iter().collect();
    let reversed: EventIdSet = {
        let mut ids: Vec<EventId> = ascending.iter().collect();
        ids.reverse();
        ids.into_iter().collect()
    };
    assert_eq!(same, reversed);
    assert_eq!(ascending, reversed);
    assert_ne!(ascending, descending);
}

#[test]
fn a_single_window_of_identifiers_owns_no_heap() {
    for anchor in [0, 64, 10_048, u64::MAX - 63] {
        let (set, words) = words_after((0..64).rev().map(|offset| anchor + offset));
        assert_eq!((set.len(), words), (64, 0), "window at {anchor}");
    }
}

#[test]
fn spread_out_identifiers_cost_a_vector_not_a_bitmap() {
    // A thousand ids over 2^60: any bitmap spanning them is 2^54 words, and
    // the allocator above refuses anything near it.
    let count = 1_000;
    let (set, words) = words_after((0..count).map(|i| id_at(Shape::Spread, 7, count, i)));
    assert_eq!(set.len(), 1_000);
    assert!(
        words <= 2 * 1_000 + 16,
        "{words} words for 1 000 identifiers"
    );
    // Two clusters 2^40 apart, and the two ends of the range.
    let (clusters, words) =
        words_after((0..count).map(|i| id_at(Shape::Clusters, 1 << 50, count, i)));
    assert_eq!(clusters.len(), 1_000);
    assert!(words <= 2 * 1_000 + 16, "{words} words for two clusters");
    let (ends, words) = words_after([0, u64::MAX].into_iter());
    assert!(ends.contains(EventId(0)) && ends.contains(EventId(u64::MAX)));
    assert!(!ends.contains(EventId(1)) && !ends.contains(EventId(u64::MAX - 1)));
    assert!(words <= 16, "{words} words for two identifiers");
}
