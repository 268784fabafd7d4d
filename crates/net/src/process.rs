//! [`NetProcess`]: the task wrapper that drives a [`MulticastProtocol`]
//! off timers and inbound frames instead of lock-step rounds.
//!
//! Each process is one async task consuming its mailbox.  A companion
//! *ticker* task (see [`crate::NetGroup`]) injects a [`Frame::Tick`] once
//! per gossip period at the process's own phase offset, so gossip periods
//! fire per-process rather than group-synchronously.  On a tick the
//! protocol's `on_round` runs inside an external
//! [`RoundContext`](pmcast_simnet::RoundContext) whose outbox is flushed
//! through the [`ChannelTransport`]; on an inbound gossip frame the bounded
//! [`Seen`] ring shields the protocol from duplicate event ids, then
//! `on_message` runs the same way.  Fanout candidates keep coming from the
//! protocol's [`MembershipView`](pmcast_membership::MembershipView)
//! provider — the runtime changes *when* rounds happen, never *what* a
//! round does.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pmcast_core::{Gossip, MulticastProtocol};
use pmcast_simnet::{FanoutScratch, ProcessId, RoundContext};
use rand_chacha::ChaCha8Rng;
use smol::channel::Receiver;

use crate::seen::Seen;
use crate::transport::{ChannelTransport, Frame};

/// Counters one `NetProcess` accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetProcessStats {
    /// Gossip-period ticks executed (`on_round` invocations).
    pub ticks: u64,
    /// Inbound gossip frames handed to the protocol.
    pub frames_handled: u64,
    /// Inbound gossip frames absorbed by the [`Seen`] ring.
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
    pub(crate) seen: Seen,
    pub(crate) retire_quiescent: bool,
    pub(crate) outbox: Vec<(ProcessId, Gossip, usize)>,
    /// The fanout buffers and delivery-report buffer lent to the protocol
    /// on every tick and frame.
    pub(crate) scratch: FanoutScratch,
    pub(crate) round: u64,
    pub(crate) quiescent: Arc<AtomicBool>,
    pub(crate) crash_flag: Arc<AtomicBool>,
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
            if self.crash_flag.load(Ordering::Relaxed) {
                // Crash-mid-stream: stop dead, no draining, no flushing.
                // Frames still queued behind us were written off by
                // `mark_crashed`; dropping the receiver closes the mailbox.
                return self.report(true);
            }
            match frame {
                Frame::Tick => self.tick(),
                Frame::Gossip { from, gossip } => {
                    self.on_gossip(from, gossip);
                    self.transport.mark_processed(self.index);
                }
                Frame::Publish(event) => {
                    self.protocol.publish(event);
                    self.stats.published += 1;
                    self.transport.mark_processed(self.index);
                }
                Frame::Shutdown => return self.report(false),
            }
            self.quiescent
                .store(self.protocol.is_quiescent(), Ordering::Relaxed);
        }
    }

    /// One gossip period: run the protocol's round and flush its sends.
    fn tick(&mut self) {
        let mut ctx = RoundContext::external(
            ProcessId(self.index),
            self.round,
            &mut self.outbox,
            &mut self.rng,
            &mut self.scratch,
        );
        self.protocol.on_round(&mut ctx);
        self.round += 1;
        self.stats.ticks += 1;
        self.flush();
        // Long-running daemons: once the dedup ring has wrapped, compact
        // the protocol's own dedup state below the ring's minimum (the
        // protocol clamps the floor to its in-flight buffers), keeping
        // per-process memory proportional to the ring capacity instead of
        // the lifetime event count.
        if self.retire_quiescent && self.seen.is_full() {
            if let Some(floor) = self.seen.min_id() {
                self.protocol.retire_below(floor);
            }
        }
    }

    /// One inbound gossip frame: dedup through the ring, then dispatch.
    fn on_gossip(&mut self, from: ProcessId, gossip: Gossip) {
        if !self.seen.push(gossip.event.id()) {
            self.stats.frames_deduped += 1;
            return;
        }
        let mut ctx = RoundContext::external(
            ProcessId(self.index),
            self.round,
            &mut self.outbox,
            &mut self.rng,
            &mut self.scratch,
        );
        self.protocol.on_message(from, gossip, &mut ctx);
        self.stats.frames_handled += 1;
        self.flush();
    }

    fn flush(&mut self) {
        let own = ProcessId(self.index);
        for (to, gossip, payload_size) in self.outbox.drain(..) {
            self.transport.send_gossip(own, to, gossip, payload_size);
        }
        // The lent bundle also collects the protocol's delivery reports,
        // which only a round-synchronous observer reads; a daemon empties
        // them with the outbox so the buffer never outgrows one frame's.
        self.scratch.delivered.clear();
    }

    fn report(self, crashed: bool) -> NetProcessReport<P> {
        NetProcessReport {
            state: self.protocol,
            stats: self.stats,
            crashed,
        }
    }
}
