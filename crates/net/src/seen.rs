//! Bounded event-id dedup: the darkfi-ircd-style `Seen` ring buffer.
//!
//! Every inbound gossip frame is checked against a capacity-bounded ring
//! of recently seen [`EventId`]s before it is handed to the protocol.
//! The protocols dedup internally as well (their `on_message` is
//! idempotent per event id), so the ring is a *shield*, not a correctness
//! mechanism: it keeps duplicate frames from waking the protocol at all,
//! and its bounded capacity keeps the runtime's memory flat under
//! sustained traffic — an id evicted from a full ring merely falls back to
//! the protocol's own dedup.

use std::collections::VecDeque;

use pmcast_interest::EventId;
use rustc_hash::FxHashSet;

/// A capacity-bounded ring of recently seen event ids with O(1) admit and
/// membership checks.
///
/// [`push`](Self::push) admits fresh ids and reports duplicates; when the
/// ring is full, the oldest id is evicted first.  Steady-state operation
/// is allocation-free: the ring and its index set never grow past
/// capacity.
#[derive(Debug)]
pub struct Seen {
    ring: VecDeque<EventId>,
    index: FxHashSet<EventId>,
    capacity: usize,
    deduped: u64,
}

impl Seen {
    /// Creates a ring remembering at most `capacity` ids.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "Seen capacity must be at least 1");
        Seen {
            ring: VecDeque::with_capacity(capacity),
            index: FxHashSet::with_capacity_and_hasher(capacity, Default::default()),
            capacity,
            deduped: 0,
        }
    }

    /// Admits an id: returns `true` if it was fresh (now remembered,
    /// evicting the oldest id when full) and `false` for a duplicate
    /// (counted in `deduped`).
    pub fn push(&mut self, id: EventId) -> bool {
        if self.index.contains(&id) {
            self.deduped += 1;
            return false;
        }
        if self.ring.len() == self.capacity {
            if let Some(oldest) = self.ring.pop_front() {
                self.index.remove(&oldest);
            }
        }
        self.ring.push_back(id);
        self.index.insert(id);
        true
    }

    /// Whether the ring has reached its capacity (every further fresh id
    /// evicts the oldest).
    pub fn is_full(&self) -> bool {
        self.ring.len() == self.capacity
    }

    /// The smallest id currently remembered, if any — the retire
    /// watermark of a full ring: ids below it are at best already evicted
    /// history, so a protocol may compact its own dedup state below it
    /// (see `MulticastProtocol::retire_below`, which additionally clamps
    /// to its in-flight floor).
    pub fn min_id(&self) -> Option<EventId> {
        self.ring.iter().copied().min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> EventId {
        use pmcast_interest::Event;
        Event::builder(n).build().id()
    }

    #[test]
    fn dedups_and_counts() {
        let mut seen = Seen::new(4);
        assert!(seen.push(id(1)));
        assert!(!seen.push(id(1)));
        assert!(!seen.push(id(1)));
        assert_eq!(seen.deduped, 2);
        assert_eq!(seen.ring.len(), 1);
    }

    #[test]
    fn evicts_oldest_at_capacity() {
        let mut seen = Seen::new(3);
        for n in 1..=3 {
            assert!(seen.push(id(n)));
        }
        assert!(seen.push(id(4)), "fresh id admitted at capacity");
        assert_eq!(seen.ring.len(), 3, "capacity is a hard bound");
        assert!(!seen.index.contains(&id(1)), "oldest id evicted");
        assert!(seen.index.contains(&id(4)));
        assert!(seen.push(id(1)), "an evicted id reads as fresh again");
    }

    #[test]
    fn min_id_tracks_the_retire_watermark() {
        let mut seen = Seen::new(3);
        assert_eq!(seen.min_id(), None);
        assert!(!seen.is_full());
        for n in [5, 2, 9] {
            seen.push(EventId(n));
        }
        assert!(seen.is_full());
        assert_eq!(seen.min_id(), Some(EventId(2)));
        // Evicting the oldest (5) leaves {2, 9, 1}.
        seen.push(EventId(1));
        assert_eq!(seen.min_id(), Some(EventId(1)));
    }
}
