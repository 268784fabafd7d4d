use std::collections::VecDeque;
use std::fmt;

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::fault::splitmix64;
use crate::{FaultPlan, LinkDelay, LossOverride, PartitionWindow, TrafficStats};

/// Dense identifier of a simulated process (an index into the simulation's
/// process table).  The mapping to a pmcast `Address` is kept
/// by the layer above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub usize);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(value: usize) -> Self {
        ProcessId(value)
    }
}

/// A message in flight: destination and payload.
///
/// No sender: every check that reads one (crashed sender, partition, the
/// link's loss and delay) is made at [`RoundNetwork::send`], and a receiver
/// reads only the payload (see [`RoundProcess::on_message`]).  A pmcast
/// gossip's envelope is 32 bytes, two to a cache line.
///
/// [`RoundProcess::on_message`]: crate::RoundProcess::on_message
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Destination process.
    pub to: ProcessId,
    /// Protocol payload.
    pub message: M,
}

/// The round-based message switch.
///
/// Messages sent during round `t` are delivered at the beginning of round
/// `t + 1` (the paper assumes the network latency is bounded by the gossip
/// period).  Each message is lost independently with probability `ε`;
/// messages to or from crashed processes are dropped and accounted
/// separately.  The network's round is the one its sends belong to: it
/// starts at 0, and every [`deliver_round_into`](Self::deliver_round_into)
/// closes it and opens the next.
///
/// A [`FaultPlan`] (see [`with_faults`](Self::with_faults)) layers the
/// adversarial axes on top, each decided here, on the network's round:
/// per-link extra latency routes messages through a timing wheel instead of
/// the next-round buffer, active [`PartitionWindow`]s drop cross-cell sends
/// (before the loss draw, so partition drops consume no randomness),
/// [`LossOverride`]s compose extra correlated loss onto `ε`, and a
/// [`Straggler`](crate::Straggler)'s sends wait in its backlog until its
/// flush round.  A neutral plan leaves every code path and every random
/// draw bit-identical to a plan-free network.
pub struct RoundNetwork<M> {
    loss_probability: f64,
    crashed: Vec<bool>,
    /// Count of `true` flags in `crashed`, kept in lockstep so a round
    /// boundary knows in O(1) whether anybody is down.
    crashed_count: usize,
    /// No fault axis is declared non-neutral: a send between two processes
    /// that are up needs no decision.
    fault_free: bool,
    in_flight: Vec<Envelope<M>>,
    /// Timing wheel for per-link extra latency: a message with `extra` more
    /// rounds to wait sits at `delayed[extra]`; every round boundary pops
    /// the front slot into the deliveries and the emptied `Vec` is recycled
    /// through `spare_slots`, so steady-state delayed traffic allocates
    /// nothing.  Empty whenever the delay axis is inactive.
    delayed: VecDeque<Vec<Envelope<M>>>,
    /// Messages currently sitting in the wheel (`is_idle` must see them).
    delayed_count: usize,
    /// Emptied wheel slots kept for reuse.
    spare_slots: Vec<Vec<Envelope<M>>>,
    link_delay: Option<LinkDelay>,
    /// One salt drawn from the network stream iff the delay span has jitter
    /// (`min_extra < max_extra`); a constant or inactive span draws nothing.
    delay_salt: u64,
    partitions: Vec<PartitionWindow>,
    loss_overrides: Vec<LossOverride>,
    /// The plan's non-neutral stragglers, in declaration order, each with
    /// the sends it made since its last flush round.
    stragglers: Vec<Backlog<M>>,
    stats: TrafficStats,
    round: u64,
    rng: ChaCha8Rng,
}

/// What [`RoundNetwork::decide`] makes of a send: wait in the straggler
/// backlog at this index (not counted yet); count it as sent and dropped for
/// one of three causes; or count it as sent, lose it with probability
/// `loss`, else deliver it `extra` boundaries after the next.
enum Verdict {
    Park(usize),
    FromCrashed,
    ToCrashed,
    Partitioned,
    Send { loss: f64, extra: u64 },
}

/// A straggler's unsent queue: the `(to, message)` of every
/// send it made since its last flush round, in emission order.
struct Backlog<M> {
    process: usize,
    period: u64,
    parked: Vec<(ProcessId, M)>,
}

/// A straggler with period `k` flushes on rounds `k`, `2k`, `3k`, … — round
/// 0 is never a flush round, so even traffic sent at the very start of a
/// run is slowed down.
fn is_flush_round(round: u64, period: u64) -> bool {
    round != 0 && round.is_multiple_of(period)
}

impl<M> fmt::Debug for RoundNetwork<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoundNetwork")
            .field("processes", &self.crashed.len())
            .field("round", &self.round)
            .field("in_flight", &self.in_flight.len())
            .field("loss_probability", &self.loss_probability)
            .finish_non_exhaustive()
    }
}

impl<M> RoundNetwork<M> {
    /// Creates a network connecting `process_count` processes.
    ///
    /// # Panics
    ///
    /// Panics if the loss probability is not within `[0, 1]`.
    pub fn new(process_count: usize, loss_probability: f64, rng: ChaCha8Rng) -> Self {
        Self::with_faults(process_count, loss_probability, rng, &FaultPlan::default())
    }

    /// Creates a network with an adversarial [`FaultPlan`] applied: link
    /// delays, healing partitions, correlated loss overrides and stragglers,
    /// all four decided on the network's round.
    ///
    /// Draws exactly one `u64` salt from `rng` iff the delay span has
    /// jitter (`min_extra < max_extra`); every other axis consumes no
    /// randomness at construction, so a neutral plan leaves the stream
    /// untouched and the run bit-identical to [`new`](Self::new).
    ///
    /// # Panics
    ///
    /// Panics if the loss probability is not within `[0, 1]` or the plan
    /// fails [`FaultPlan::validate_for`] the process count.
    pub fn with_faults(
        process_count: usize,
        loss_probability: f64,
        mut rng: ChaCha8Rng,
        faults: &FaultPlan,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss_probability),
            "loss probability {loss_probability} must lie in [0, 1]"
        );
        faults.validate_for(process_count);
        // Drop neutral declarations up front so the hot path only ever
        // iterates over axes that can actually change something.
        let link_delay = faults.link_delay.filter(|d| !d.is_neutral());
        let delay_salt = match link_delay {
            Some(d) if d.min_extra < d.max_extra => rng.gen(),
            _ => 0,
        };
        Self {
            loss_probability,
            crashed: vec![false; process_count],
            crashed_count: 0,
            fault_free: faults.is_neutral(),
            in_flight: Vec::new(),
            delayed: VecDeque::new(),
            delayed_count: 0,
            spare_slots: Vec::new(),
            link_delay,
            delay_salt,
            partitions: faults.partitions.iter().copied().filter(|w| !w.is_neutral()).collect(),
            loss_overrides: faults
                .loss_overrides
                .iter()
                .copied()
                .filter(|o| !o.is_neutral())
                .collect(),
            stragglers: faults
                .stragglers
                .iter()
                .filter(|s| !s.is_neutral())
                .map(|s| Backlog { process: s.process, period: s.period, parked: Vec::new() })
                .collect(),
            stats: TrafficStats::default(),
            round: 0,
            rng,
        }
    }

    /// The traffic statistics accumulated so far.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Marks a process as down; it no longer sends or receives anything,
    /// and a straggler's backlog dies with it.  The flag covers every way
    /// of being off the network — a crash, a graceful leave, or not having
    /// joined yet; the [`crate::Simulation`] layer distinguishes the
    /// transitions.
    pub fn crash(&mut self, process: ProcessId) {
        if let Some(flag) = self.crashed.get_mut(process.0) {
            // Adjust the counter only on an actual flip: re-crashing a
            // down process (and out-of-range ids) must stay a no-op.
            if !*flag {
                *flag = true;
                self.crashed_count += 1;
            }
        }
        for straggler in &mut self.stragglers {
            if straggler.process == process.0 {
                straggler.parked.clear();
            }
        }
    }

    /// Re-activates a process previously marked down (a join or re-join).
    /// Messages addressed to it while it was down stay dropped: a joiner
    /// only sees traffic sent after its activation.
    pub fn activate(&mut self, process: ProcessId) {
        if let Some(flag) = self.crashed.get_mut(process.0) {
            if *flag {
                *flag = false;
                self.crashed_count -= 1;
            }
        }
    }

    /// Returns `true` if the process has crashed.
    pub fn is_crashed(&self, process: ProcessId) -> bool {
        self.crashed.get(process.0).copied().unwrap_or(true)
    }

    /// Sends a message, to be delivered at the next round boundary (or
    /// `extra` boundaries later under an active [`LinkDelay`]).
    /// The fourth argument is ignored: a message's size is not accounted.
    ///
    /// On a network with no fault axis declared non-neutral, a send between
    /// two processes in range and up is counted, drawn against `ε` and
    /// pushed, whoever else is down.  Any other send is decided first, in a
    /// fixed order: a
    /// live [`Straggler`](crate::Straggler) outside its flush round parks it
    /// (not counted, no draw, sent by the boundary that opens the flush
    /// round); a crashed sender, a crashed receiver or an active partition
    /// drops it; else the loss overrides compose its loss and the delay axis
    /// sets its extra latency.  Only the loss draw consumes randomness, so
    /// inactive fault axes cannot shift the network stream.
    #[inline(always)]
    pub fn send(&mut self, from: ProcessId, to: ProcessId, message: M, _size: usize) {
        let (loss, extra) = if self.fault_free && !self.is_crashed(from) && !self.is_crashed(to) {
            (self.loss_probability, 0)
        } else {
            match self.decide(from, to) {
                Verdict::Park(at) => return self.stragglers[at].parked.push((to, message)),
                Verdict::Send { loss, extra } => (loss, extra),
                dropped => {
                    self.stats.messages_sent += 1;
                    *match dropped {
                        Verdict::FromCrashed => &mut self.stats.messages_from_crashed,
                        Verdict::ToCrashed => &mut self.stats.messages_to_crashed,
                        _ => &mut self.stats.messages_partitioned,
                    } += 1;
                    return;
                }
            }
        };
        self.stats.messages_sent += 1;
        if loss > 0.0 && self.rng.gen_bool(loss) {
            self.stats.messages_lost += 1;
        } else if extra == 0 {
            self.in_flight.push(Envelope { to, message });
        } else {
            self.stats.messages_delayed += 1;
            self.schedule_delayed(extra, Envelope { to, message });
        }
    }

    /// The fault axes' verdict on a send, their checks made in the order
    /// [`send`](Self::send) gives.
    #[cold]
    #[inline(never)]
    fn decide(&self, from: ProcessId, to: ProcessId) -> Verdict {
        if let Some(backlog) = self.holding_backlog(from) {
            return Verdict::Park(backlog);
        }
        if self.is_crashed(from) {
            return Verdict::FromCrashed;
        }
        if self.is_crashed(to) {
            return Verdict::ToCrashed;
        }
        if self.is_partitioned(from, to) {
            return Verdict::Partitioned;
        }
        Verdict::Send {
            loss: self.effective_loss(from, to),
            extra: self.link_extra_delay(from, to),
        }
    }

    /// The backlog a send from `from` waits in: its own, if `from` is a live
    /// straggler and this round is not its flush round.
    fn holding_backlog(&self, from: ProcessId) -> Option<usize> {
        let backlog = self.stragglers.iter().position(|s| s.process == from.0)?;
        let period = self.stragglers[backlog].period;
        (!is_flush_round(self.round, period) && !self.is_crashed(from)).then_some(backlog)
    }

    /// Returns `true` if any currently active partition window separates
    /// the two endpoints.  Purely deterministic — no randomness consumed.
    fn is_partitioned(&self, from: ProcessId, to: ProcessId) -> bool {
        let n = self.crashed.len();
        self.partitions.iter().any(|w| {
            w.active_at(self.round) && w.cell_of(from.0, n) != w.cell_of(to.0, n)
        })
    }

    /// The composed loss probability for a message on this link: the global
    /// `ε` multiplied (as survival probabilities) with every override
    /// covering the sender or the receiver.  Returns the global `ε`
    /// *unchanged* — not merely an equal value — when no override matches,
    /// so the draw on an override-free link is bit-exact the plan-free one.
    fn effective_loss(&self, from: ProcessId, to: ProcessId) -> f64 {
        let mut keep = 1.0 - self.loss_probability;
        let mut composed = false;
        for o in &self.loss_overrides {
            if o.covers(from.0) || o.covers(to.0) {
                keep *= 1.0 - o.loss_probability;
                composed = true;
            }
        }
        if composed {
            1.0 - keep
        } else {
            self.loss_probability
        }
    }

    /// The fixed extra latency of the ordered link `(from, to)`: 0 without
    /// an active delay axis, the constant `min_extra` for a zero-jitter
    /// span, otherwise `min + mix(salt, from, to) % (span + 1)` — stable
    /// per link for the whole run (links stay FIFO) and reproducible from
    /// the seed via the one salt drawn at construction.
    pub(crate) fn link_extra_delay(&self, from: ProcessId, to: ProcessId) -> u64 {
        let Some(delay) = self.link_delay else {
            return 0;
        };
        if delay.min_extra == delay.max_extra {
            return delay.min_extra;
        }
        let span = delay.max_extra - delay.min_extra;
        let mixed =
            splitmix64(self.delay_salt ^ splitmix64(from.0 as u64 ^ splitmix64(to.0 as u64)));
        delay.min_extra + mixed % (span + 1)
    }

    /// Parks an envelope in the timing wheel, `extra` boundaries beyond the
    /// next one.  Wheel slots are recycled `Vec`s, so steady-state delayed
    /// traffic does not allocate.
    fn schedule_delayed(&mut self, extra: u64, envelope: Envelope<M>) {
        let slot = extra as usize;
        while self.delayed.len() <= slot {
            self.delayed.push_back(self.spare_slots.pop().unwrap_or_default());
        }
        self.delayed[slot].push(envelope);
        self.delayed_count += 1;
    }

    /// Closes the current round and opens the next: clears `delivered` and
    /// **hands it this round's buffer** — the two vectors trade places, so
    /// no envelope is copied; the caller's emptied buffer collects the sends
    /// until the drained one comes back (`collect_sends_into`).
    /// What was addressed to a process that went down after the send is
    /// dropped from the buffer in place, a pass made only while somebody is
    /// down.  Then every straggler whose flush round this opens sends its
    /// backlog, in declaration order and each in emission order, ahead of the
    /// new round's fresh sends.
    pub fn deliver_round_into(&mut self, delivered: &mut Vec<Envelope<M>>) {
        self.round += 1;
        delivered.clear();
        std::mem::swap(&mut self.in_flight, delivered);
        self.book_arrivals(delivered);
        // Delayed messages whose extra latency has elapsed arrive at the
        // same boundary, after the undelayed traffic; the wheel rotates one
        // slot per boundary and emptied slots go back to the spare pool.
        if let Some(mut due) = self.delayed.pop_front() {
            self.delayed_count -= due.len();
            self.book_arrivals(&mut due);
            delivered.append(&mut due);
            self.spare_slots.push(due);
        }
        for index in 0..self.stragglers.len() {
            let straggler = &mut self.stragglers[index];
            if straggler.parked.is_empty() || !is_flush_round(self.round, straggler.period) {
                continue;
            }
            let from = ProcessId(straggler.process);
            let mut parked = std::mem::take(&mut straggler.parked);
            for (to, message) in parked.drain(..) {
                self.send(from, to, message, 0);
            }
            // The emptied backlog keeps its capacity for the next batch.
            self.stragglers[index].parked = parked;
        }
    }

    /// Makes `drained` — the buffer [`deliver_round_into`](Self::deliver_round_into)
    /// handed over, now empty — the round's send buffer: what was sent so far
    /// moves to its front, and `drained` gets the buffer that held it, empty.
    pub(crate) fn collect_sends_into(&mut self, drained: &mut Vec<Envelope<M>>) {
        drained.append(&mut self.in_flight);
        std::mem::swap(&mut self.in_flight, drained);
    }

    #[cfg(test)]
    pub(crate) fn in_flight_capacity(&self) -> usize {
        self.in_flight.capacity()
    }

    /// Books `arriving` — messages reaching this boundary — as delivered,
    /// after removing (and booking as such) those whose receiver went down
    /// while they were in flight.  [`send`](Self::send) admits only
    /// receivers in range, so the flag lookup cannot miss.
    fn book_arrivals(&mut self, arriving: &mut Vec<Envelope<M>>) {
        if self.crashed_count > 0 {
            let before = arriving.len();
            arriving.retain(|envelope| !self.crashed[envelope.to.0]);
            self.stats.messages_to_crashed += (before - arriving.len()) as u64;
        }
        self.stats.messages_delivered += arriving.len() as u64;
    }

    /// Messages sent but not yet delivered or dropped: the round buffer
    /// plus the link-delay wheel.  A straggler's parked send is not counted
    /// as sent yet, so it is not in flight either.
    pub(crate) fn messages_in_flight(&self) -> u64 {
        (self.in_flight.len() + self.delayed_count) as u64
    }

    /// Returns `true` if no messages are currently in flight (including
    /// messages in the link-delay timing wheel and in straggler backlogs).
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
            && self.delayed_count == 0
            && self.stragglers.iter().all(|s| s.parked.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::tests::{delayed, lossy_range, partitioned, straggling};
    use crate::Straggler;
    use rand::SeedableRng;

    impl<M> RoundNetwork<M> {
        /// Makes every later send take the decision, as on a network with a
        /// fault axis declared.
        fn decide_every_send(&mut self) {
            self.fault_free = false;
        }
    }

    fn network(count: usize, loss: f64) -> RoundNetwork<u32> {
        RoundNetwork::new(count, loss, ChaCha8Rng::seed_from_u64(1))
    }

    /// Closes the round into a fresh vector.
    fn deliver_round<M>(net: &mut RoundNetwork<M>) -> Vec<Envelope<M>> {
        let mut delivered = Vec::new();
        net.deliver_round_into(&mut delivered);
        delivered
    }

    #[test]
    fn messages_are_delivered_next_round() {
        // An envelope names no sender; a message that needs one carries it.
        let mut net = RoundNetwork::new(3, 0.0, ChaCha8Rng::seed_from_u64(1));
        net.send(ProcessId(0), ProcessId(1), (ProcessId(0), 42), 8);
        assert!(!net.is_idle());
        assert_eq!(net.round, 0);
        let delivered = deliver_round(&mut net);
        assert_eq!(net.round, 1);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].to, ProcessId(1));
        assert_eq!(delivered[0].message, (ProcessId(0), 42));
        assert!(net.is_idle());
        assert_eq!(net.stats().messages_sent, 1);
        assert_eq!(net.stats().messages_delivered, 1);
    }

    #[test]
    fn total_loss_drops_everything() {
        let mut net = network(2, 1.0);
        for _ in 0..20 {
            net.send(ProcessId(0), ProcessId(1), 1, 0);
        }
        let delivered = deliver_round(&mut net);
        assert!(delivered.is_empty());
        assert_eq!(net.stats().messages_lost, 20);
        assert_eq!(net.stats().messages_delivered, 0);
    }

    #[test]
    fn partial_loss_is_roughly_proportional() {
        let mut net = network(2, 0.3);
        for _ in 0..2_000 {
            net.send(ProcessId(0), ProcessId(1), 1, 0);
        }
        let delivered = deliver_round(&mut net).len() as f64;
        // 70% expected, allow generous tolerance.
        assert!(delivered > 1_200.0 && delivered < 1_600.0, "delivered {delivered}");
    }

    #[test]
    fn crashed_processes_neither_send_nor_receive() {
        let mut net = network(3, 0.0);
        net.crash(ProcessId(2));
        assert!(net.is_crashed(ProcessId(2)));
        assert!(!net.is_crashed(ProcessId(0)));
        assert_eq!(net.crashed_count, 1);

        net.send(ProcessId(2), ProcessId(0), 1, 0); // from crashed
        net.send(ProcessId(0), ProcessId(2), 2, 0); // to crashed
        net.send(ProcessId(0), ProcessId(1), 3, 0); // fine
        let delivered = deliver_round(&mut net);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].message, 3);
        assert_eq!(net.stats().messages_from_crashed, 1);
        assert_eq!(net.stats().messages_to_crashed, 1);
    }

    #[test]
    fn crash_after_send_still_prevents_delivery() {
        let mut net = network(2, 0.0);
        net.send(ProcessId(0), ProcessId(1), 9, 0);
        net.crash(ProcessId(1));
        let delivered = deliver_round(&mut net);
        assert!(delivered.is_empty());
        assert_eq!(net.stats().messages_to_crashed, 1);
    }

    #[test]
    fn deliver_round_into_hands_the_buffer_over_and_clears_a_stale_one() {
        let mut net = network(3, 0.0);
        // What the caller left in its buffer is not traffic.
        let mut buffer = vec![Envelope {
            to: ProcessId(2),
            message: 99,
        }];
        net.send(ProcessId(0), ProcessId(1), 7, 0);
        net.deliver_round_into(&mut buffer);
        assert_eq!(
            buffer,
            vec![Envelope {
                to: ProcessId(1),
                message: 7,
            }]
        );
        assert!(net.is_idle(), "the stale envelope must not be in flight");
        // The buffer handed back in collects the next round's sends.
        net.send(ProcessId(1), ProcessId(0), 8, 0);
        assert!(!net.is_idle());
        net.deliver_round_into(&mut buffer);
        assert_eq!(buffer.len(), 1);
        assert_eq!(buffer[0].message, 8);
        net.deliver_round_into(&mut buffer);
        assert!(buffer.is_empty());
        assert_eq!(net.stats().messages_delivered, 2);
        assert_eq!(net.stats().messages_to_crashed, 0);
    }

    #[test]
    fn activation_brings_a_process_back_on_the_network() {
        let mut net = network(3, 0.0);
        net.crash(ProcessId(1));
        // Traffic addressed to the down process is dropped …
        net.send(ProcessId(0), ProcessId(1), 1, 0);
        assert!(deliver_round(&mut net).is_empty());
        net.activate(ProcessId(1));
        assert!(!net.is_crashed(ProcessId(1)));
        // … and only messages sent after activation arrive.
        net.send(ProcessId(0), ProcessId(1), 2, 0);
        let delivered = deliver_round(&mut net);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].message, 2);
        // Out-of-range activation is a no-op.
        net.activate(ProcessId(9));
        assert!(net.is_crashed(ProcessId(9)));
    }

    #[test]
    fn out_of_range_processes_count_as_crashed() {
        let mut net = network(1, 0.0);
        assert!(net.is_crashed(ProcessId(5)));
        net.send(ProcessId(0), ProcessId(5), 1, 0);
        assert_eq!(deliver_round(&mut net).len(), 0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut net = RoundNetwork::new(2, 0.5, ChaCha8Rng::seed_from_u64(seed));
            for _ in 0..100 {
                net.send(ProcessId(0), ProcessId(1), 1u32, 0);
            }
            deliver_round(&mut net).len()
        };
        assert_eq!(run(7), run(7));
        // Different seeds are very likely to differ for 100 coin flips.
        assert_ne!(run(7), run(8));
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn invalid_loss_probability_panics() {
        let _ = network(2, 1.5);
    }

    #[test]
    fn process_id_display_and_from() {
        let p: ProcessId = 3usize.into();
        assert_eq!(p.to_string(), "p3");
        assert_eq!(ProcessId::default(), ProcessId(0));
    }

    fn faulty_network(count: usize, loss: f64, plan: &FaultPlan) -> RoundNetwork<u32> {
        RoundNetwork::with_faults(count, loss, ChaCha8Rng::seed_from_u64(1), plan)
    }

    #[test]
    fn constant_link_delay_postpones_delivery() {
        let plan = delayed(2, 2);
        let mut net = faulty_network(2, 0.0, &plan);
        net.send(ProcessId(0), ProcessId(1), 7, 0);
        assert!(!net.is_idle(), "the delayed message is still in flight");
        assert!(deliver_round(&mut net).is_empty(), "boundary 1: not yet");
        assert!(deliver_round(&mut net).is_empty(), "boundary 2: not yet");
        let delivered = deliver_round(&mut net);
        assert_eq!(delivered.len(), 1, "boundary 3 = 1 normal + 2 extra rounds");
        assert_eq!(delivered[0].message, 7);
        assert!(net.is_idle());
        assert_eq!(net.stats().messages_delayed, 1);
        assert_eq!(net.stats().messages_delivered, 1);
    }

    #[test]
    fn jittered_link_delay_is_stable_per_link_and_within_span() {
        let plan = delayed(0, 3);
        let mut net = faulty_network(8, 0.0, &plan);
        // Send one message on every ordered link, then collect arrival
        // boundaries; each link's latency must fall in 1..=4 rounds.
        for from in 0..8 {
            for to in 0..8 {
                if from != to {
                    net.send(ProcessId(from), ProcessId(to), (from * 8 + to) as u32, 0);
                }
            }
        }
        let mut arrivals = vec![0u64; 64];
        for boundary in 1..=4 {
            for envelope in deliver_round(&mut net) {
                arrivals[envelope.message as usize] = boundary;
            }
        }
        assert!(net.is_idle(), "everything arrives within min+1..=max+1 boundaries");
        for from in 0..8 {
            for to in 0..8 {
                if from != to {
                    let a = arrivals[from * 8 + to];
                    assert!((1..=4).contains(&a), "link ({from},{to}) arrived at {a}");
                }
            }
        }
        // The same plan and seed reproduce identical per-link delays, and
        // the per-link hash actually spreads (not all links equal).
        let mut rerun = faulty_network(8, 0.0, &plan);
        for from in 0..8 {
            for to in 0..8 {
                if from != to {
                    rerun.send(ProcessId(from), ProcessId(to), (from * 8 + to) as u32, 0);
                }
            }
        }
        let mut rerun_arrivals = vec![0u64; 64];
        for boundary in 1..=4 {
            for envelope in deliver_round(&mut rerun) {
                rerun_arrivals[envelope.message as usize] = boundary;
            }
        }
        assert_eq!(arrivals, rerun_arrivals);
        let distinct: std::collections::BTreeSet<u64> =
            arrivals.iter().copied().filter(|&a| a > 0).collect();
        assert!(distinct.len() > 1, "jittered delays must differ across links");
    }

    #[test]
    fn delayed_messages_to_crashed_processes_are_dropped_at_delivery() {
        let plan = delayed(2, 2);
        let mut net = faulty_network(2, 0.0, &plan);
        net.send(ProcessId(0), ProcessId(1), 7, 0);
        deliver_round(&mut net);
        net.crash(ProcessId(1));
        deliver_round(&mut net);
        assert!(deliver_round(&mut net).is_empty());
        assert!(net.is_idle());
        assert_eq!(net.stats().messages_to_crashed, 1);
    }

    #[test]
    fn partition_drops_cross_cell_sends_while_active() {
        // 2 cells over 4 processes: {0,1} and {2,3}; active rounds 0..2.
        let plan = partitioned(0, 2, 2);
        let mut net = faulty_network(4, 0.0, &plan);
        net.send(ProcessId(0), ProcessId(1), 1, 0); // intra-cell: flows
        net.send(ProcessId(0), ProcessId(2), 2, 0); // cross-cell: dropped
        let delivered = deliver_round(&mut net); // boundary → round 1, still active
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].message, 1);
        assert_eq!(net.stats().messages_partitioned, 1);
        net.send(ProcessId(0), ProcessId(2), 3, 0); // round 1: still active
        assert!(deliver_round(&mut net).is_empty());
        assert_eq!(net.stats().messages_partitioned, 2);
        // Round 2: healed — cross-cell traffic flows again.
        net.send(ProcessId(0), ProcessId(2), 4, 0);
        let delivered = deliver_round(&mut net);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].message, 4);
        assert_eq!(net.stats().messages_partitioned, 2);
    }

    #[test]
    fn partition_drops_consume_no_randomness() {
        // Identical seeds; one network has an active partition.  After the
        // partition heals, the loss draws must still agree bit for bit
        // because partition drops happen before the loss draw.
        let run = |plan: &FaultPlan| {
            let mut net = RoundNetwork::<u32>::with_faults(
                4,
                0.5,
                ChaCha8Rng::seed_from_u64(9),
                plan,
            );
            // Round 0: one intra-cell send (same loss draw either way).
            net.send(ProcessId(0), ProcessId(1), 1, 0);
            deliver_round(&mut net);
            // Round 1 (healed for the partition plan): probe the stream.
            let mut survived = Vec::new();
            for i in 0..50 {
                net.send(ProcessId(0), ProcessId(1), i, 0);
            }
            for envelope in deliver_round(&mut net) {
                survived.push(envelope.message);
            }
            survived
        };
        assert_eq!(run(&FaultPlan::default()), run(&partitioned(0, 1, 2)));
    }

    /// The payloads of a round's deliveries, in delivery order.
    fn payloads(delivered: Vec<Envelope<u32>>) -> Vec<u32> {
        delivered.into_iter().map(|envelope| envelope.message).collect()
    }

    #[test]
    fn a_parked_straggler_send_is_not_counted_and_draws_nothing() {
        // Process 0 flushes every 3rd round.  Its round-0 sends wait in the
        // backlog: the traffic and the loss draws of process 1's sends are
        // those of a network that never saw them.
        let mut net = faulty_network(3, 0.5, &straggling(0, 3));
        let mut plain = network(3, 0.5);
        for i in 0..50 {
            net.send(ProcessId(0), ProcessId(2), 100 + i, 0);
            net.send(ProcessId(1), ProcessId(2), i, 0);
            plain.send(ProcessId(1), ProcessId(2), i, 0);
        }
        assert_eq!(net.stats(), plain.stats());
        assert_eq!(payloads(deliver_round(&mut net)), payloads(deliver_round(&mut plain)));
        assert!(!net.is_idle(), "the backlog is in flight");
        assert!(deliver_round(&mut net).is_empty(), "round 2 is no flush round");
        assert!(!net.is_idle());
        assert!(deliver_round(&mut net).is_empty(), "round 3 opens with the flush");
        assert_eq!(net.stats().messages_sent, 100);
        assert!(!deliver_round(&mut net).is_empty());
        assert!(net.is_idle());
    }

    #[test]
    fn a_flush_goes_into_the_new_round_ahead_of_its_fresh_sends() {
        let mut net = faulty_network(3, 0.0, &straggling(0, 2));
        net.send(ProcessId(0), ProcessId(1), 1, 0); // round 0: parked
        net.send(ProcessId(0), ProcessId(2), 2, 0);
        assert!(deliver_round(&mut net).is_empty());
        net.send(ProcessId(0), ProcessId(1), 3, 0); // round 1: parked
        net.send(ProcessId(1), ProcessId(2), 4, 0);
        assert_eq!(payloads(deliver_round(&mut net)), [4]);
        // Opening round 2, process 0's flush round, sent the backlog.
        assert_eq!(net.stats().messages_sent, 4);
        net.send(ProcessId(1), ProcessId(0), 5, 0);
        net.send(ProcessId(0), ProcessId(2), 6, 0); // its flush round: not parked
        assert_eq!(payloads(deliver_round(&mut net)), [1, 2, 3, 5, 6]);
        assert!(net.is_idle());
    }

    #[test]
    fn crashing_a_straggler_discards_its_backlog() {
        // A leave reaches the network as the same `crash`.
        let mut net = faulty_network(2, 0.0, &straggling(0, 4));
        net.send(ProcessId(0), ProcessId(1), 7, 0);
        assert!(!net.is_idle());
        net.crash(ProcessId(0));
        assert!(net.is_idle(), "the backlog died with its process");
        // A down straggler parks nothing: its send is one from a crashed process.
        net.send(ProcessId(0), ProcessId(1), 8, 0);
        assert!(net.is_idle());
        assert_eq!(net.stats().messages_from_crashed, 1);
        net.activate(ProcessId(0));
        for _ in 0..5 {
            assert!(deliver_round(&mut net).is_empty());
        }
        assert_eq!(net.stats().messages_sent, 1);
    }

    #[test]
    fn a_period_one_straggler_takes_the_plain_path() {
        let mut net = faulty_network(2, 0.0, &straggling(0, 1));
        assert!(net.stragglers.is_empty());
        net.send(ProcessId(0), ProcessId(1), 7, 0); // round 0 is no flush round
        assert_eq!(net.stats().messages_sent, 1);
        assert_eq!(payloads(deliver_round(&mut net)), [7]);
    }

    #[test]
    fn loss_override_composes_with_global_loss() {
        // Total override loss on the {0,1} range: nothing covered survives.
        let plan = lossy_range(0, 2, 1.0);
        let mut net = faulty_network(4, 0.0, &plan);
        net.send(ProcessId(0), ProcessId(3), 1, 0); // sender covered
        net.send(ProcessId(3), ProcessId(1), 2, 0); // receiver covered
        net.send(ProcessId(2), ProcessId(3), 3, 0); // untouched
        let delivered = deliver_round(&mut net);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].message, 3);
        assert_eq!(net.stats().messages_lost, 2);
    }

    #[test]
    fn loss_override_rates_are_roughly_multiplicative() {
        // Global 0.2 composed with an 0.5 override: survival 0.8·0.5 = 0.4.
        let plan = lossy_range(0, 1, 0.5);
        let mut net = faulty_network(2, 0.2, &plan);
        for _ in 0..2_000 {
            net.send(ProcessId(0), ProcessId(1), 1, 0);
        }
        let delivered = deliver_round(&mut net).len() as f64;
        assert!((600.0..1_000.0).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn neutral_fault_plan_is_bit_identical_to_no_plan() {
        let run = |plan: Option<&FaultPlan>| {
            let rng = ChaCha8Rng::seed_from_u64(33);
            // Each message carries its sender, so the log still names the
            // link every delivery came over.
            let mut net: RoundNetwork<(ProcessId, u32)> = match plan {
                Some(plan) => RoundNetwork::with_faults(6, 0.4, rng, plan),
                None => RoundNetwork::new(6, 0.4, rng),
            };
            let mut log = Vec::new();
            for round in 0..6u64 {
                for from in 0..6 {
                    let message = (ProcessId(from), round as u32);
                    net.send(ProcessId(from), ProcessId((from + 1) % 6), message, 0);
                }
                for Envelope { to, message: (from, round) } in deliver_round(&mut net) {
                    log.push((from, to, round));
                }
            }
            (log, *net.stats())
        };
        // Every axis declared, all in their inactive forms.
        let neutral = FaultPlan {
            link_delay: Some(LinkDelay { min_extra: 0, max_extra: 0 }),
            partitions: vec![
                PartitionWindow { from_round: 2, until_round: 2, cells: 4 },
                PartitionWindow { from_round: 0, until_round: 6, cells: 1 },
            ],
            loss_overrides: vec![LossOverride { start: 0, end: 6, loss_probability: 0.0 }],
            stragglers: vec![Straggler { process: 1, period: 1 }],
        };
        assert_eq!(run(None), run(Some(&neutral)));
    }

    #[test]
    #[should_panic(expected = "out of range for a group of 2")]
    fn network_rejects_out_of_range_fault_plan() {
        let plan = straggling(5, 3);
        let _ = faulty_network(2, 0.0, &plan);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The fast path against the decision it skips: each random
            /// history runs on a network as built and on one that decides
            /// every send, over crashes, leaves and rejoins, out-of-range
            /// endpoints, partition windows before, inside and after the
            /// history's rounds, loss overrides, constant and jittered
            /// delays and stragglers, neutral declarations included.  After
            /// every send and boundary the two agree on the traffic, the
            /// envelopes delivered in order, what is in flight, idleness and
            /// the network stream's position.
            #[test]
            fn a_quiet_send_is_the_decided_send(
                seed in 0u64..1000,
                count in 1usize..10,
                loss in prop_oneof![Just(0.0), Just(0.3), Just(1.0)],
                delay in (0u8..3, 0u64..3, 0u64..3),
                partitions in proptest::collection::vec((0u64..8, 0u64..4, 1usize..4), 0..3),
                overrides in proptest::collection::vec((0usize..10, 0usize..10, 0u8..3), 0..3),
                stragglers in proptest::collection::vec((0usize..10, 1u64..4), 0..3),
                history in proptest::collection::vec((0u8..6, 0usize..12, 0usize..12), 0..120),
            ) {
                let mut plan = FaultPlan {
                    link_delay: match delay {
                        (0, ..) => None,
                        (1, ..) => Some(LinkDelay { min_extra: 0, max_extra: 0 }),
                        (_, min, span) => Some(LinkDelay { min_extra: min, max_extra: min + span }),
                    },
                    partitions: partitions
                        .iter()
                        .map(|&(from_round, len, cells)| PartitionWindow {
                            from_round,
                            until_round: from_round + len,
                            cells,
                        })
                        .collect(),
                    loss_overrides: overrides
                        .iter()
                        .map(|&(start, len, rate)| LossOverride {
                            start: start.min(count),
                            end: (start + len).min(count),
                            loss_probability: [0.0, 0.5, 1.0][usize::from(rate)],
                        })
                        .collect(),
                    stragglers: Vec::new(),
                };
                for &(process, period) in &stragglers {
                    if plan.stragglers.iter().all(|s| s.process != process % count) {
                        plan.stragglers.push(Straggler { process: process % count, period });
                    }
                }
                let build = || -> RoundNetwork<u32> {
                    RoundNetwork::with_faults(count, loss, ChaCha8Rng::seed_from_u64(seed), &plan)
                };
                let (mut quiet, mut decided) = (build(), build());
                decided.decide_every_send();
                for (step, &(kind, a, b)) in history.iter().enumerate() {
                    let (a, b) = (ProcessId(a % (count + 2)), ProcessId(b % (count + 2)));
                    match kind {
                        0..=2 => {
                            quiet.send(a, b, step as u32, 0);
                            decided.send(a, b, step as u32, 0);
                        }
                        3 => {
                            prop_assert_eq!(deliver_round(&mut quiet), deliver_round(&mut decided));
                        }
                        4 => {
                            quiet.crash(a);
                            decided.crash(a);
                        }
                        _ => {
                            quiet.activate(a);
                            decided.activate(a);
                        }
                    }
                    prop_assert_eq!(quiet.stats(), decided.stats(), "after step {}", step);
                    prop_assert_eq!(quiet.messages_in_flight(), decided.messages_in_flight());
                    prop_assert_eq!(quiet.is_idle(), decided.is_idle());
                    prop_assert_eq!(quiet.rng.get_word_pos(), decided.rng.get_word_pos());
                }
                // Whatever is still in flight arrives alike.
                for _ in 0..6 {
                    prop_assert_eq!(deliver_round(&mut quiet), deliver_round(&mut decided));
                }
                prop_assert_eq!(quiet.stats(), decided.stats());
            }
        }
    }
}
