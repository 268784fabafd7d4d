/// Traffic accounting of a simulated run.
///
/// The evaluation uses these counters to compare the network cost of pmcast
/// against flooding-style broadcast baselines (every gossip message is one
/// unit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Messages handed to the network by senders.
    pub messages_sent: u64,
    /// Messages actually delivered to a live destination.
    pub messages_delivered: u64,
    /// Messages dropped by the network (loss probability `ε`).
    pub messages_lost: u64,
    /// Messages addressed to a crashed process.
    pub messages_to_crashed: u64,
    /// Messages suppressed because the *sender* had crashed.
    pub messages_from_crashed: u64,
    /// Messages dropped by an active [`crate::PartitionWindow`] because it
    /// separated sender and receiver.
    pub messages_partitioned: u64,
    /// Messages routed through the [`crate::LinkDelay`] timing wheel (they
    /// took more than one round to deliver; still counted in
    /// `messages_delivered` when they arrive).
    pub messages_delayed: u64,
}
