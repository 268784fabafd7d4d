use pmcast_addr::Depth;
use pmcast_interest::EventId;

/// A gossip message (the payload of `SEND` in Figure 3).
///
/// A gossip names its event by id and carries the depth at which the event
/// is currently being multicast, the matching rate computed for that depth,
/// and the round counter within that depth — everything a receiver needs to
/// drop a duplicate (Figure 3's line-20 guard reads only the id), or to file
/// a first receipt into the right gossip buffer and keep forwarding it with
/// a consistent round budget.
///
/// The content stays in the group's event store, kept once from its
/// publication on; a receiver reads it there on a first receipt only.  So a
/// gossip is plain bytes: sending, queueing, losing or dropping one writes
/// no reference count.
///
/// It is 24 bytes: the id and the rate, then the depth and the round as
/// two `u32`s — a tree is never 2³² levels deep.  Nor does it name its
/// sender: a receiver never reads one (see
/// [`RoundProcess::on_message`](pmcast_simnet::RoundProcess::on_message)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gossip {
    /// The multicast event being disseminated.
    pub id: EventId,
    /// The matching rate (fraction of interested entries) computed for this
    /// depth by the process that promoted the event to it.
    pub rate: f64,
    /// The tree depth the event is currently gossiped at.
    pub depth: u32,
    /// The round counter of the event within this depth.
    pub round: u32,
}

impl Gossip {
    /// Creates a gossip message.
    pub fn new(id: EventId, depth: Depth, rate: f64, round: u32) -> Self {
        debug_assert!(u32::try_from(depth).is_ok(), "depth {depth}");
        Self {
            id,
            rate,
            depth: depth as u32,
            round,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_gossip_is_plain_bytes() {
        let gossip = Gossip::new(EventId(4), 2, 0.5, 3);
        let copy = gossip;
        assert_eq!(copy, gossip);
        assert_eq!((copy.id, copy.depth, copy.round), (EventId(4), 2, 3));
        assert!((copy.rate - 0.5).abs() < f64::EPSILON);
        assert!(!std::mem::needs_drop::<Gossip>());
        // Was 32 with a `usize` depth in front of the rate.
        assert_eq!(std::mem::size_of::<Gossip>(), 24);
    }
}
