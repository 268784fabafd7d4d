use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex, MutexGuard};

use pmcast_interest::{Event, EventId};
use rustc_hash::FxHashMap;

/// The events of one protocol group, each kept once: an id → [`Arc<Event>`]
/// map that a publication admits into and a *first* receipt reads, so a
/// [`Gossip`](crate::Gossip) carries the id alone and a send, a duplicate,
/// a loss draw or a queued frame never touches a reference count (the
/// split lpbcast makes between gossiping ids and retrieving content).
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
    events: FxHashMap<EventId, Arc<Event>>,
    /// Every id in `events`, smallest first out.
    admitted: BinaryHeap<Reverse<EventId>>,
    /// Ids below this were forgotten, or are never kept.
    floor: EventId,
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
                Arc::ptr_eq(held.get(), event) || **held.get() == **event,
                "event {id} published twice with different content: redundant publishers \
                 must publish one event"
            ),
            Entry::Vacant(slot) => {
                slot.insert(Arc::clone(event));
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
            Some(event) => Some(Arc::clone(event)),
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

    /// Raises the floor to `floor` (a lower one changes nothing) and forgets
    /// every event below it.
    pub(crate) fn forget_below(&self, floor: EventId) {
        let mut state = self.state();
        if floor <= state.floor {
            return;
        }
        state.floor = floor;
        while let Some(&Reverse(id)) = state.admitted.peek() {
            if id >= floor {
                break;
            }
            state.admitted.pop();
            state.events.remove(&id);
        }
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

    #[test]
    #[should_panic(expected = "which no process of this group published")]
    fn a_miss_above_the_floor_is_a_bug() {
        let store = EventStore::default();
        store.forget_below(EventId(3));
        store.get(EventId(3));
    }
}
