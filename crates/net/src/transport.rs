//! The in-process channel transport.
//!
//! A transport moves [`Frame`]s between process mailboxes.  Gossip frames
//! use **fire-and-forget** semantics with drop-with-counter backpressure:
//! a full or crashed destination mailbox drops the frame and bumps a
//! counter, exactly like a UDP socket buffer would.  Publish commands, by
//! contrast, travel through the same mailboxes with *waiting* semantics
//! (the publisher awaits free capacity) — that path lives on
//! [`crate::NetGroupHandle::publish`], not on the transport, because only
//! the local control plane may block.
//!
//! [`ChannelTransport`] is the one backend: bounded in-process channels,
//! optional seeded message loss (so lossy scenarios are reproducible), and
//! the group's one table of per-process state — mailbox, in-flight count,
//! crash and quiescence flags.  A UDP backend is a documented follow-up
//! (see ROADMAP.md).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pmcast_core::Gossip;
use pmcast_interest::Event;
use pmcast_simnet::ProcessId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use smol::channel::{self, Receiver, Sender, TrySendError};

/// A message in a process mailbox.
#[derive(Debug)]
pub(crate) enum Frame {
    /// A gossip-period tick from the process's ticker task (not counted as
    /// in-flight work — it carries no dissemination state).
    Tick,
    /// An inbound gossip frame from a peer.
    Gossip {
        /// The gossip message: the event's id and its depth, rate and round
        /// — the content stays in the group's event store.
        gossip: Gossip,
    },
    /// A local publish command from the group handle.
    Publish(Arc<Event>),
    /// Graceful-shutdown request: drain and exit.
    Shutdown,
}

/// Counters a transport accumulates over its lifetime (monotone except
/// `in_flight`, which is the *current* number of unprocessed gossip and
/// publish frames).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Gossip frames successfully enqueued.
    pub frames_sent: u64,
    /// Gossip frames dropped because the destination mailbox was full.
    pub frames_dropped: u64,
    /// Gossip frames dropped by the loss model.
    pub frames_lost: u64,
    /// Gossip frames addressed to a crashed process.
    pub frames_to_crashed: u64,
    /// The highest number of simultaneously in-flight frames observed —
    /// the memory high-water mark of the mailboxes.
    pub peak_in_flight: u64,
    /// Frames currently enqueued but not yet processed.
    pub in_flight: u64,
}

/// Seeded Bernoulli loss applied before enqueue.
#[derive(Debug)]
struct LossModel {
    probability: f64,
    rng: Mutex<ChaCha8Rng>,
}

/// The group's one table of per-process state, indexed by process.
#[derive(Debug)]
struct ChannelShared {
    mailboxes: Vec<Sender<Frame>>,
    /// Unprocessed gossip + publish frames per destination; receivers
    /// acknowledge with [`ChannelTransport::mark_processed`].
    pending: Vec<AtomicU64>,
    crashed: Vec<AtomicBool>,
    /// The protocol's `is_quiescent` as of the last frame it handled.
    quiescent: Vec<AtomicBool>,
    total_pending: AtomicU64,
    frames_sent: AtomicU64,
    frames_dropped: AtomicU64,
    frames_lost: AtomicU64,
    frames_to_crashed: AtomicU64,
    peak_in_flight: AtomicU64,
    loss: Option<LossModel>,
}

/// The in-process channel backend: one bounded mailbox per process.
///
/// Cheaply cloneable (all clones share the same mailboxes and counters).
/// Construction hands back the mailbox [`Receiver`]s — exactly one
/// consumer per process.
#[derive(Debug, Clone)]
pub(crate) struct ChannelTransport {
    shared: Arc<ChannelShared>,
}

impl ChannelTransport {
    /// Creates mailboxes for `processes` processes, each holding at most
    /// `mailbox_capacity` frames, with seeded Bernoulli loss: each gossip
    /// frame is dropped with probability `loss_probability`, drawn from a
    /// ChaCha8 stream seeded with `loss_seed` — same seed, same losses.
    pub(crate) fn with_loss(
        mailbox_capacity: usize,
        processes: usize,
        loss_probability: f64,
        loss_seed: u64,
    ) -> (Self, Vec<Receiver<Frame>>) {
        assert!(
            (0.0..=1.0).contains(&loss_probability),
            "loss probability must be within [0, 1], got {loss_probability}"
        );
        let loss = (loss_probability > 0.0).then(|| LossModel {
            probability: loss_probability,
            rng: Mutex::new(ChaCha8Rng::seed_from_u64(loss_seed)),
        });
        assert!(processes > 0, "a transport needs at least one process");
        let mut mailboxes = Vec::with_capacity(processes);
        let mut receivers = Vec::with_capacity(processes);
        for _ in 0..processes {
            let (sender, receiver) = channel::bounded(mailbox_capacity);
            mailboxes.push(sender);
            receivers.push(receiver);
        }
        let transport = ChannelTransport {
            shared: Arc::new(ChannelShared {
                mailboxes,
                pending: (0..processes).map(|_| AtomicU64::new(0)).collect(),
                crashed: (0..processes).map(|_| AtomicBool::new(false)).collect(),
                quiescent: (0..processes).map(|_| AtomicBool::new(true)).collect(),
                total_pending: AtomicU64::new(0),
                frames_sent: AtomicU64::new(0),
                frames_dropped: AtomicU64::new(0),
                frames_lost: AtomicU64::new(0),
                frames_to_crashed: AtomicU64::new(0),
                peak_in_flight: AtomicU64::new(0),
                loss,
            }),
        };
        (transport, receivers)
    }

    /// `process`'s mailbox — the group handle sends its waiting
    /// publish/shutdown control plane through it, tickers clone it.
    pub(crate) fn mailbox(&self, process: usize) -> &Sender<Frame> {
        &self.shared.mailboxes[process]
    }

    /// Records that `process` finished handling one in-flight frame (or
    /// that a publish counted in for it failed to enqueue after all).
    /// Receivers must call this once per [`Frame::Gossip`] /
    /// [`Frame::Publish`] they process, *after* handling it, so
    /// [`in_flight`](Self::in_flight) conservatively covers frames
    /// that are dequeued but still being worked on.  A no-op once `process`
    /// crashed: the crash wrote all its frames off (a publish waiting on
    /// its full mailbox fails *because* of the crash).
    pub(crate) fn mark_processed(&self, process: usize) {
        if self.is_crashed(process) {
            return;
        }
        self.shared.pending[process].fetch_sub(1, Ordering::Relaxed);
        self.shared.total_pending.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records an enqueued in-flight frame for `process` (the publish path
    /// counts itself in before awaiting mailbox capacity).
    pub(crate) fn mark_enqueued(&self, process: usize) {
        self.shared.pending[process].fetch_add(1, Ordering::Relaxed);
        let now = self.shared.total_pending.fetch_add(1, Ordering::Relaxed) + 1;
        self.shared.peak_in_flight.fetch_max(now, Ordering::Relaxed);
    }

    /// Marks `process` crashed, once: its unprocessed frames are written
    /// off (they will never be acknowledged), subsequent gossip to it is
    /// counted under `frames_to_crashed`, and a best-effort shutdown frame
    /// wakes an idle task (a full mailbox has frames to wake it anyway).
    pub(crate) fn mark_crashed(&self, process: usize) {
        if self.shared.crashed[process].swap(true, Ordering::Relaxed) {
            return;
        }
        let orphaned = self.shared.pending[process].swap(0, Ordering::Relaxed);
        self.shared
            .total_pending
            .fetch_sub(orphaned, Ordering::Relaxed);
        let _ = self.mailbox(process).try_send(Frame::Shutdown);
    }

    /// Whether `process` has been crashed.
    pub(crate) fn is_crashed(&self, process: usize) -> bool {
        self.shared.crashed[process].load(Ordering::Relaxed)
    }

    /// Records the protocol's quiescence after `process` handled a frame.
    pub(crate) fn set_quiescent(&self, process: usize, quiescent: bool) {
        self.shared.quiescent[process].store(quiescent, Ordering::Relaxed);
    }

    /// Whether the dissemination has come to rest: no frame is in flight
    /// and every live process's protocol last reported quiescence.
    pub(crate) fn is_quiescent(&self) -> bool {
        let at_rest = |i| self.is_crashed(i) || self.shared.quiescent[i].load(Ordering::Relaxed);
        self.in_flight() == 0 && (0..self.shared.quiescent.len()).all(at_rest)
    }

    /// Sends a gossip frame to `to`; returns whether the frame was enqueued
    /// (`false` = dropped, lost or destination crashed).  The frame names no
    /// sender: a crashed process sends nothing, because its task has
    /// stopped, and a receiver reads only the gossip.
    /// Never blocks: a send that cannot complete immediately is *dropped
    /// and counted*, never awaited (see the module docs for why the publish
    /// path is different).
    pub(crate) fn send_gossip(&self, to: ProcessId, gossip: Gossip) -> bool {
        let shared = &self.shared;
        if self.is_crashed(to.0) {
            shared.frames_to_crashed.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if let Some(loss) = &shared.loss {
            let lost = loss
                .rng
                .lock()
                .expect("loss stream poisoned")
                .gen_bool(loss.probability);
            if lost {
                shared.frames_lost.fetch_add(1, Ordering::Relaxed);
                return false;
            }
        }
        match self.mailbox(to.0).try_send(Frame::Gossip { gossip }) {
            Ok(()) => {
                self.mark_enqueued(to.0);
                shared.frames_sent.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Full(_)) => {
                shared.frames_dropped.fetch_add(1, Ordering::Relaxed);
                false
            }
            Err(TrySendError::Closed(_)) => {
                shared.frames_to_crashed.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// A snapshot of the transport's counters.
    pub(crate) fn stats(&self) -> TransportStats {
        let shared = &self.shared;
        TransportStats {
            frames_sent: shared.frames_sent.load(Ordering::Relaxed),
            frames_dropped: shared.frames_dropped.load(Ordering::Relaxed),
            frames_lost: shared.frames_lost.load(Ordering::Relaxed),
            frames_to_crashed: shared.frames_to_crashed.load(Ordering::Relaxed),
            peak_in_flight: shared.peak_in_flight.load(Ordering::Relaxed),
            in_flight: shared.total_pending.load(Ordering::Relaxed),
        }
    }

    /// Frames currently enqueued but not yet processed — zero is the
    /// transport's contribution to group quiescence.
    pub(crate) fn in_flight(&self) -> u64 {
        self.shared.total_pending.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcast_interest::EventId;

    fn gossip(id: u64) -> Gossip {
        Gossip::new(EventId(id), 1, 0.5, 0)
    }

    #[test]
    fn full_mailbox_drops_with_counter() {
        let (transport, _receivers) = ChannelTransport::with_loss(2, 2, 0.0, 0);
        assert!(transport.send_gossip(ProcessId(1), gossip(1)));
        assert!(transport.send_gossip(ProcessId(1), gossip(2)));
        assert!(!transport.send_gossip(ProcessId(1), gossip(3)));
        let stats = transport.stats();
        assert_eq!((stats.frames_sent, stats.frames_dropped), (2, 1));
        assert_eq!(stats.in_flight, 2);
    }

    #[test]
    fn processing_acknowledges_in_flight() {
        let (transport, receivers) = ChannelTransport::with_loss(4, 2, 0.0, 0);
        transport.send_gossip(ProcessId(1), gossip(1));
        assert_eq!(transport.in_flight(), 1);
        smol::LocalExecutor::deterministic(1)
            .run(receivers[1].recv())
            .expect("frame queued");
        transport.mark_processed(1);
        assert_eq!(transport.in_flight(), 0);
        assert_eq!(transport.stats().peak_in_flight, 1);
    }

    #[test]
    fn crashed_destination_is_written_off() {
        let (transport, receivers) = ChannelTransport::with_loss(4, 2, 0.0, 0);
        transport.send_gossip(ProcessId(1), gossip(1));
        transport.mark_crashed(1);
        assert_eq!(transport.in_flight(), 0, "orphaned frames written off");
        assert!(!transport.send_gossip(ProcessId(1), gossip(2)));
        assert_eq!(transport.stats().frames_to_crashed, 1);
        drop(receivers);
        assert!(!transport.send_gossip(ProcessId(0), gossip(3)));
        assert_eq!(transport.stats().frames_to_crashed, 2);
    }

    #[test]
    fn seeded_loss_is_reproducible() {
        let run = |seed: u64| {
            let (transport, receivers) = ChannelTransport::with_loss(64, 2, 0.5, seed);
            let mut delivered = Vec::new();
            for n in 0..32 {
                delivered.push(transport.send_gossip(ProcessId(1), gossip(n)));
            }
            drop(receivers);
            delivered
        };
        assert_eq!(run(9), run(9), "same seed, same losses");
        let pattern = run(9);
        assert!(pattern.iter().any(|&d| d) && pattern.iter().any(|&d| !d));
    }
}
