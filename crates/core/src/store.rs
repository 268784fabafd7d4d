use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex, MutexGuard};

use pmcast_interest::{Event, EventId};
use rustc_hash::FxHashMap;

/// A bound on a store's verdicts, which it forgets all at once on overflow
/// (50 topics over the 21 views of a 4³ group are 1 050 verdicts).
const VERDICT_ROWS: usize = 1 << 14;

/// The events of one protocol group, each kept once: an id → [`Arc<Event>`]
/// map that a publication admits into and a *first* receipt reads, so a
/// [`Gossip`](crate::Gossip) carries the id alone and a send, a duplicate,
/// a loss draw or a queued frame never touches a reference count (the
/// split lpbcast makes between gossiping ids and retrieving content).
///
/// It hashconses *content* too, an event's values on the attributes summary
/// verdicts read ([`MembershipView::summary_attributes`](pmcast_membership::MembershipView::summary_attributes)):
/// at its first verdict ask, a kept event takes the id of a kept witness of
/// equal content or becomes one itself, and verdicts are kept per content
/// and view.  Every witness is a kept event, so the store bounds them too.
///
/// The store lives as long as the group, so a simulated trial never loses
/// content.  A long-running daemon bounds it instead: every process hands
/// the floor it retired to ([`MulticastProtocol::retire_and_forget_below`](crate::MulticastProtocol::retire_and_forget_below)),
/// and the store forgets every id below the highest of them, in O(log n)
/// per forgotten id off a min-heap of the admitted ids — never a scan of
/// the store.  A receipt whose content was forgotten delivers nothing.
#[derive(Debug, Default)]
pub(crate) struct EventStore(Mutex<StoreState>);

#[derive(Debug, Default)]
struct StoreState {
    /// Every kept event, with its content id from its first verdict ask on.
    events: FxHashMap<EventId, (Arc<Event>, Option<EventId>)>,
    /// Every id in `events`, smallest first out.
    admitted: BinaryHeap<Reverse<EventId>>,
    /// Ids below this were forgotten, or are never kept.
    floor: EventId,
    /// The summary epoch the verdicts hold under, and what content is then;
    /// under `None` no content id or verdict is kept.
    read_at: Option<u64>,
    reads: Option<Arc<[String]>>,
    /// Content hash → the kept event whose id is that content's.
    witnesses: FxHashMap<u64, EventId>,
    /// `(content id, view id)` → verdict.
    verdicts: FxHashMap<(EventId, u32), u128>,
}

impl EventStore {
    fn state(&self) -> MutexGuard<'_, StoreState> {
        self.0.lock().expect("event store lock poisoned")
    }

    /// Keeps a published event, unless its id is below the floor.
    ///
    /// Redundant publishers must publish one event: in debug builds,
    /// admitting an id the store holds with different content panics.
    pub(crate) fn admit(&self, event: &Arc<Event>) {
        let mut state = self.state();
        let id = event.id();
        if id < state.floor {
            return;
        }
        match state.events.entry(id) {
            Entry::Occupied(held) => debug_assert!(
                Arc::ptr_eq(&held.get().0, event) || *held.get().0 == **event,
                "event {id} published twice with different content: redundant publishers \
                 must publish one event"
            ),
            Entry::Vacant(slot) => {
                slot.insert((Arc::clone(event), None));
                state.admitted.push(Reverse(id));
            }
        }
    }

    /// The event an incoming gossip names, or `None` if the store forgot it.
    ///
    /// # Panics
    ///
    /// Panics if the id is at or above the floor and was never admitted: a
    /// gossip for an event nobody in the group published.
    pub(crate) fn get(&self, id: EventId) -> Option<Arc<Event>> {
        let state = self.state();
        match state.events.get(&id) {
            Some((event, _)) => Some(Arc::clone(event)),
            None => {
                assert!(
                    id < state.floor,
                    "gossip for {id}, which no process of this group published \
                     (the store forgets below {})",
                    state.floor
                );
                None
            }
        }
    }

    /// Event `id`'s summary verdict in view `view` under `epoch`: the one its
    /// content holds there, or else `ask()`, kept if `id` is.  A new epoch
    /// forgets every verdict and calls `reads()`, what content is; a change
    /// there forgets every content id too.
    pub(crate) fn summary_verdict(
        &self,
        id: EventId,
        view: u32,
        epoch: u64,
        reads: impl FnOnce() -> Option<Arc<[String]>>,
        ask: impl FnOnce() -> u128,
    ) -> u128 {
        let state = &mut *self.state();
        if state.read_at != Some(epoch) {
            state.read_at = Some(epoch);
            state.verdicts.clear();
            let reads = reads();
            if reads != state.reads {
                state.reads = reads;
                state.witnesses.clear();
                state.events.values_mut().for_each(|(_, content)| *content = None);
            }
        }
        let Some(content) = state.content_of(id) else {
            return ask();
        };
        if state.verdicts.len() == VERDICT_ROWS {
            state.verdicts.clear();
        }
        *state.verdicts.entry((content, view)).or_insert_with(ask)
    }

    /// Raises the floor to `floor` (a lower one changes nothing) and forgets
    /// every event below it, and the witnesses they were.
    pub(crate) fn forget_below(&self, floor: EventId) {
        let state = &mut *self.state();
        if floor <= state.floor {
            return;
        }
        state.floor = floor;
        while let Some(&Reverse(id)) = state.admitted.peek() {
            if id >= floor {
                break;
            }
            state.admitted.pop();
            let removed = state.events.remove(&id);
            if let (Some((event, Some(_))), Some(reads)) = (removed, &state.reads) {
                let hash = event.content_hash(reads);
                if state.witnesses.get(&hash) == Some(&id) {
                    state.witnesses.remove(&hash);
                }
            }
        }
    }
}

impl StoreState {
    /// The content id of the kept event `id`: its witness's, else its own,
    /// the event then witnessing its hash.
    fn content_of(&mut self, id: EventId) -> Option<EventId> {
        let (event, content) = self.events.get(&id)?;
        if content.is_some() {
            return *content;
        }
        let reads = self.reads.as_deref()?;
        let hash = event.content_hash(reads);
        let witnessed = self.witnesses.get(&hash).copied().filter(|witness| {
            let held = self.events.get(witness).map(|(held, _)| held);
            held.is_some_and(|held| reads.iter().all(|name| held.get(name) == event.get(name)))
        });
        let content = witnessed.unwrap_or_else(|| {
            self.witnesses.insert(hash, id);
            id
        });
        self.events.get_mut(&id)?.1 = Some(content);
        Some(content)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(id: u64, b: i64) -> Arc<Event> {
        Arc::new(Event::builder(id).int("b", b).build())
    }

    #[test]
    fn admitted_events_are_shared_and_forgotten_below_the_highest_floor() {
        let store = EventStore::default();
        let events: Vec<Arc<Event>> = [5, 1, 9, 3].iter().map(|&id| event(id, 1)).collect();
        for event in &events {
            store.admit(event);
        }
        // The same content again is not a second copy.
        store.admit(&event(5, 1));
        assert!(Arc::ptr_eq(&store.get(EventId(5)).unwrap(), &events[0]));
        assert_eq!(Arc::strong_count(&events[0]), 2);

        store.forget_below(EventId(5));
        store.forget_below(EventId(2));
        assert_eq!(store.get(EventId(1)), None);
        assert_eq!(store.get(EventId(3)), None);
        assert_eq!(Arc::strong_count(&events[3]), 1, "the store let go");
        assert!(store.get(EventId(5)).is_some() && store.get(EventId(9)).is_some());
        // Below the floor nothing is kept any more.
        store.admit(&event(4, 1));
        assert_eq!(store.get(EventId(4)), None);
    }

    /// A store keeping the events `(id, b)`, one content per `b`.
    fn store_of(events: &[(u64, i64)]) -> EventStore {
        let store = EventStore::default();
        for &(id, b) in events {
            store.admit(&event(id, b));
        }
        store
    }

    /// What the tests' verdicts read of an event: its `b`.
    fn reads_b() -> Option<Arc<[String]>> {
        Some(Arc::from(["b".to_owned()]))
    }

    fn content_of(store: &EventStore, id: u64) -> Option<EventId> {
        let mut state = store.state();
        state.reads = reads_b();
        state.content_of(EventId(id))
    }

    /// The verdict on event `id` in view 0 under `epoch`, and whether the
    /// provider was asked for it (it answers `answer`).
    fn verdict(store: &EventStore, id: u64, epoch: u64, answer: u128) -> (u128, bool) {
        let mut asked = false;
        let allowed = store.summary_verdict(EventId(id), 0, epoch, reads_b, || {
            asked = true;
            answer
        });
        (allowed, asked)
    }

    #[test]
    fn equal_content_under_distinct_ids_shares_one_content_id() {
        let store = store_of(&[(1, 7), (2, 7), (3, 7)]);
        let content = content_of(&store, 2).unwrap();
        assert_eq!(content_of(&store, 1), Some(content));
        assert_eq!(content_of(&store, 3), Some(content));
        // So one ask serves every event of the content in a view.
        assert_eq!(verdict(&store, 1, 0, 0b101), (0b101, true));
        assert_eq!(verdict(&store, 3, 0, 0b111), (0b101, false));
        // An event the store does not keep has no content id, and is asked.
        assert_eq!(content_of(&store, 9), None);
        assert_eq!(verdict(&store, 9, 0, 0b1), (0b1, true));
    }

    #[test]
    fn different_content_gets_different_ids() {
        let store = store_of(&[(1, 7), (2, 8), (3, -7)]);
        // No `b` at all is a content too.
        store.admit(&Arc::new(Event::builder(4).int("c", 7).build()));
        let contents: Vec<EventId> = (1..=4).map(|id| content_of(&store, id).unwrap()).collect();
        let mut distinct = contents.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 4, "{contents:?}");
        assert_eq!(verdict(&store, 1, 0, 0b1), (0b1, true));
        assert_eq!(verdict(&store, 2, 0, 0b10), (0b10, true));
    }

    #[test]
    fn an_attribute_no_verdict_reads_does_not_split_content() {
        let store = store_of(&[(1, 7)]);
        for (id, price) in [(2, 10.5), (3, 11.0)] {
            let event = Event::builder(id).int("b", 7).float("price", price);
            store.admit(&Arc::new(event.str("body", format!("trade {id}")).build()));
        }
        assert_eq!(verdict(&store, 2, 0, 0b11), (0b11, true));
        assert_eq!(verdict(&store, 1, 0, 0), (0b11, false));
        assert_eq!(verdict(&store, 3, 0, 0), (0b11, false));
    }

    #[test]
    fn a_change_in_what_verdicts_read_forgets_every_content_id() {
        let store = EventStore::default();
        for (id, c) in [(1, 0), (2, 1)] {
            store.admit(&Arc::new(Event::builder(id).int("b", 7).int("c", c).build()));
        }
        let bc = || Some(Arc::from(["b".to_owned(), "c".to_owned()]));
        let ask = |id, epoch, reads: fn() -> Option<Arc<[String]>>| {
            let mut asked = false;
            store.summary_verdict(EventId(id), 0, epoch, reads, || {
                asked = true;
                id as u128
            });
            asked
        };
        // Under `b` the two share a content, and one verdict.
        assert!(ask(1, 0, reads_b) && !ask(2, 0, reads_b));
        // Re-read at the next epoch, `b` and `c` tell them apart.
        assert!(ask(1, 1, bc) && ask(2, 1, bc));
        // A provider that names nothing gets every ask, and nothing kept.
        assert!(ask(1, 2, || None) && ask(1, 2, || None));
        assert!(store.state().verdicts.is_empty() && store.state().witnesses.is_empty());
    }

    #[test]
    fn a_content_whose_witness_was_forgotten_gets_a_fresh_id() {
        let store = store_of(&[(1, 7), (2, 8)]);
        let earlier = [
            content_of(&store, 1).unwrap(),
            content_of(&store, 2).unwrap(),
        ];
        store.forget_below(EventId(2));
        store.admit(&event(3, 7));
        let fresh = content_of(&store, 3).unwrap();
        assert!(
            !earlier.contains(&fresh),
            "{fresh} was handed out before: {earlier:?}"
        );
        // The fresh content's events share it from then on.
        store.admit(&event(4, 7));
        assert_eq!(content_of(&store, 4), Some(fresh));
    }

    #[test]
    fn a_verdict_kept_under_an_old_epoch_is_asked_again() {
        let store = store_of(&[(1, 7), (2, 7)]);
        assert_eq!(verdict(&store, 1, 5, 0b11), (0b11, true));
        assert_eq!(verdict(&store, 2, 5, 0), (0b11, false));
        assert_eq!(verdict(&store, 2, 6, 0b10), (0b10, true));
        assert_eq!(verdict(&store, 1, 6, 0), (0b10, false));
        // An epoch that moves back is still not the one the row holds.
        assert_eq!(verdict(&store, 1, 5, 0b1), (0b1, true));
    }

    #[test]
    fn the_witness_and_verdict_tables_stay_bounded_across_forgetting() {
        let store = EventStore::default();
        let views = 3;
        for id in 0..VERDICT_ROWS as u64 {
            // Every event is a content of its own, asked about in three views.
            store.admit(&event(id, id as i64));
            for view in 0..views {
                store.summary_verdict(EventId(id), view, 0, reads_b, || 1);
            }
            if id % 100 == 99 {
                store.forget_below(EventId(id - 9));
            }
            // Each witness is a kept event, and at most 109 are kept.
            let state = store.state();
            assert_eq!(state.witnesses.len(), state.events.len());
            assert!(state.events.len() <= 109);
            assert!(state.witnesses.values().all(|id| state.events.contains_key(id)));
            assert!(state.verdicts.len() <= VERDICT_ROWS);
        }
    }

    #[test]
    #[should_panic(expected = "which no process of this group published")]
    fn a_miss_above_the_floor_is_a_bug() {
        let store = EventStore::default();
        store.forget_below(EventId(3));
        store.get(EventId(3));
    }
}
