//! [`NetProcess`]: the task wrapper that drives a [`MulticastProtocol`]
//! off timers and inbound frames instead of lock-step rounds.
//!
//! Each process is one async task consuming its mailbox.  A companion
//! *ticker* task (see [`crate::NetGroup`]) injects a [`Frame::Tick`] once
//! per gossip period at the process's own phase offset, so gossip periods
//! fire per-process rather than group-synchronously.  On a tick the
//! protocol's `on_round` runs inside an external
//! [`RoundContext`](pmcast_simnet::RoundContext) whose outbox is flushed
//! through the [`ChannelTransport`]; an inbound gossip frame runs
//! `on_message` the same way unless the protocol's own id set says the
//! event was already received, which drops and counts it.  Fanout
//! candidates keep coming from the protocol's
//! [`MembershipView`](pmcast_membership::MembershipView) provider — the
//! runtime changes *when* rounds happen, never *what* a round does.

use pmcast_core::{Gossip, MulticastProtocol};
use pmcast_interest::EventId;
use pmcast_simnet::{FanoutScratch, ProcessId, RoundContext};
use rand_chacha::ChaCha8Rng;
use smol::channel::Receiver;

use crate::transport::{ChannelTransport, Frame};

/// Counters one `NetProcess` accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetProcessStats {
    /// Gossip-period ticks executed (`on_round` invocations).
    pub ticks: u64,
    /// Inbound gossip frames carrying an event the protocol had not yet
    /// received: first receipts, handed to `on_message`.
    pub frames_handled: u64,
    /// Inbound gossip frames dropped because the protocol had already
    /// received (or retired) their event.
    pub frames_deduped: u64,
    /// Publish commands executed.
    pub published: u64,
}

/// What a process task returns when it exits: the final protocol state
/// (for delivery reports), its counters, and how it ended.
#[derive(Debug)]
pub struct NetProcessReport<P> {
    /// The protocol instance in its final state.
    pub state: P,
    /// The process's counters.
    pub stats: NetProcessStats,
    /// `true` when the process was crashed mid-stream (the runtime
    /// analogue of the simulator's `crash_at`), `false` for a graceful
    /// shutdown.
    pub crashed: bool,
}

/// The per-process task state; constructed by [`crate::NetGroup::spawn`].
#[derive(Debug)]
pub(crate) struct NetProcess<P> {
    pub(crate) index: usize,
    pub(crate) protocol: P,
    pub(crate) mailbox: Receiver<Frame>,
    pub(crate) transport: ChannelTransport,
    pub(crate) rng: ChaCha8Rng,
    /// `NetConfig::seen_capacity` when retirement is on.
    pub(crate) retire_lag: Option<usize>,
    /// The highest event id received or published here.
    pub(crate) highest: Option<EventId>,
    /// The floor last handed to `retire_below`.
    pub(crate) floor: EventId,
    pub(crate) outbox: Vec<(ProcessId, Gossip)>,
    /// The fanout buffers lent to the protocol on every tick and frame.
    pub(crate) scratch: FanoutScratch,
    /// Counts the rounds run, too: `ticks` is the round number.
    pub(crate) stats: NetProcessStats,
}

impl<P: MulticastProtocol> NetProcess<P> {
    /// The task body: consume the mailbox until shutdown or crash.
    pub(crate) async fn run(mut self) -> NetProcessReport<P> {
        loop {
            let frame = match self.mailbox.recv().await {
                Ok(frame) => frame,
                // Every sender dropped — the group is being torn down.
                Err(_) => return self.report(false),
            };
            if self.transport.is_crashed(self.index) {
                // Crash-mid-stream: stop dead, no draining, no flushing.
                // Frames still queued behind us were written off by
                // `mark_crashed`; dropping the receiver closes the mailbox.
                return self.report(true);
            }
            match frame {
                Frame::Tick => self.tick(),
                Frame::Gossip { gossip } => {
                    self.on_gossip(gossip);
                    self.transport.mark_processed(self.index);
                }
                Frame::Publish(event) => {
                    self.highest = self.highest.max(Some(event.id()));
                    self.protocol.publish(event);
                    self.stats.published += 1;
                    self.transport.mark_processed(self.index);
                }
                Frame::Shutdown => return self.report(false),
            }
            self.transport
                .set_quiescent(self.index, self.protocol.is_quiescent());
        }
    }

    /// One gossip period: run the protocol's round and flush its sends.
    fn tick(&mut self) {
        let mut ctx = RoundContext::external(
            ProcessId(self.index),
            self.stats.ticks,
            &mut self.outbox,
            &mut self.rng,
            &mut self.scratch,
        );
        self.protocol.on_round(&mut ctx);
        self.stats.ticks += 1;
        self.flush();
        // Long-running daemons: compact the protocol's dedup state below
        // the highest id minus the lag (the protocol clamps the floor to
        // its in-flight buffers) and let the group's event store forget
        // the content below it, keeping memory proportional to the lag
        // instead of the lifetime event count.
        if let (Some(lag), Some(highest)) = (self.retire_lag, self.highest) {
            let floor = EventId(highest.0.saturating_sub(lag as u64));
            if floor > self.floor {
                self.floor = floor;
                self.protocol.retire_and_forget_below(floor);
            }
        }
    }

    /// One inbound gossip frame: a first receipt is dispatched, any other
    /// is exactly a frame `on_message` would ignore, so it is only counted.
    fn on_gossip(&mut self, gossip: Gossip) {
        let id = gossip.id;
        if self.protocol.has_received(id) {
            self.stats.frames_deduped += 1;
            return;
        }
        self.highest = self.highest.max(Some(id));
        let mut ctx = RoundContext::external(
            ProcessId(self.index),
            self.stats.ticks,
            &mut self.outbox,
            &mut self.rng,
            &mut self.scratch,
        );
        self.protocol.on_message(gossip, &mut ctx);
        self.stats.frames_handled += 1;
        self.flush();
    }

    fn flush(&mut self) {
        for (to, gossip) in self.outbox.drain(..) {
            self.transport.send_gossip(to, gossip);
        }
    }

    fn report(self, crashed: bool) -> NetProcessReport<P> {
        NetProcessReport {
            state: self.protocol,
            stats: self.stats,
            crashed,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use pmcast_addr::AddressSpace;
    use pmcast_core::{FloodFactory, PmcastConfig, ProtocolFactory};
    use pmcast_interest::Event;
    use pmcast_membership::{
        AssignmentOracle, GlobalOracleView, ImplicitRegularTree, TreeTopology,
    };
    use pmcast_simnet::RoundProcess;
    use rand::SeedableRng;

    use super::*;

    const LAG: u64 = 8;
    const HIGHEST: u64 = 100;

    type Flood = <FloodFactory as ProtocolFactory>::Process;

    /// Process 0 of a three-process flood group, retiring `LAG` ids behind
    /// its highest; the protocols of its two peers (driven by hand); and
    /// their mailboxes (kept open).
    fn retiring_process() -> (NetProcess<Flood>, Vec<Flood>, Vec<Receiver<Frame>>) {
        let topology = ImplicitRegularTree::new(AddressSpace::regular(1, 3).unwrap());
        let oracle = Arc::new(AssignmentOracle::new(
            topology.space().clone(),
            topology.members(),
        ));
        let group = FloodFactory::build(
            &topology,
            oracle,
            Arc::new(GlobalOracleView::new(3)),
            &PmcastConfig::default(),
        );
        let (transport, mut mailboxes) = ChannelTransport::with_loss(64, 3, 0.0, 0);
        let mut protocols = group.processes.into_iter();
        let process = NetProcess {
            index: 0,
            protocol: protocols.next().unwrap(),
            mailbox: mailboxes.remove(0),
            transport,
            rng: ChaCha8Rng::seed_from_u64(1),
            retire_lag: Some(LAG as usize),
            highest: None,
            floor: EventId(0),
            outbox: Vec::new(),
            scratch: FanoutScratch::default(),
            stats: NetProcessStats::default(),
        };
        (process, protocols.collect(), mailboxes)
    }

    /// `publisher` publishes event `id`, and a gossip frame naming it
    /// reaches `process`.
    fn receive<P: MulticastProtocol>(process: &mut NetProcess<P>, publisher: &mut P, id: u64) {
        publisher.publish(Arc::new(Event::builder(id).int("b", 1).build()));
        process.on_gossip(Gossip::new(EventId(id), 1, 1.0, 0));
    }

    fn counted<P>(process: &NetProcess<P>) -> (u64, u64) {
        (process.stats.frames_handled, process.stats.frames_deduped)
    }

    #[test]
    fn a_retiring_tick_suppresses_first_receipts_more_than_the_lag_below_the_highest() {
        let (mut process, mut peers, _mailboxes) = retiring_process();
        receive(&mut process, &mut peers[0], HIGHEST);
        process.tick();
        assert_eq!(process.floor, EventId(HIGHEST - LAG), "the tick retired");

        receive(&mut process, &mut peers[0], HIGHEST - (LAG - 1));
        assert_eq!(
            counted(&process),
            (2, 0),
            "an id inside the lag is still a first receipt"
        );
        receive(&mut process, &mut peers[0], HIGHEST - (LAG + 1));
        assert_eq!(
            counted(&process),
            (2, 1),
            "an id below the floor is dropped as a duplicate"
        );
        // ...and reads as delivered, though it never was: the documented
        // cost of retirement.
        assert!(process.protocol.has_delivered(EventId(HIGHEST - (LAG + 1))));
    }

    #[test]
    fn a_first_receipt_below_the_group_store_floor_delivers_nothing() {
        let (mut process, mut peers, _mailboxes) = retiring_process();
        let (idle, publisher) = match &mut peers[..] {
            [idle, publisher] => (idle, publisher),
            _ => unreachable!("two peers"),
        };
        // The publisher still buffers its event when a peer that buffers
        // nothing retires past it: the store's floor is the group's highest,
        // while this process's own floor has not moved.
        let below = HIGHEST - 1;
        publisher.publish(Arc::new(Event::builder(below).int("b", 1).build()));
        idle.retire_and_forget_below(EventId(HIGHEST));
        assert_eq!(process.floor, EventId(0));

        process.on_gossip(Gossip::new(EventId(below), 1, 1.0, 0));
        assert_eq!(counted(&process), (1, 0), "a first receipt here");
        assert!(process.protocol.has_received(EventId(below)), "filed as seen");
        assert!(!process.protocol.has_delivered(EventId(below)), "delivered nowhere");
        assert!(process.protocol.is_quiescent(), "nothing to forward");
        process.on_gossip(Gossip::new(EventId(below), 1, 1.0, 0));
        assert_eq!(counted(&process), (1, 1), "the next frame is a duplicate");

        // At or above every floor, a publish and a receipt still deliver.
        receive(&mut process, publisher, HIGHEST);
        assert_eq!(counted(&process), (2, 1));
        assert!(process.protocol.has_delivered(EventId(HIGHEST)));
    }
}
