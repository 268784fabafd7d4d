//! [`NetGroup`]: spawning a protocol group as long-running broker tasks,
//! plus the control plane ([`NetGroupHandle`]) — publish with
//! backpressure, crash injection, quiescence checks and graceful
//! shutdown.  The handle stores no per-process state of its own: it reads
//! the transport's per-process table, as the processes do.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pmcast_core::MulticastProtocol;
use pmcast_interest::{Event, EventId};
use pmcast_membership::MembershipView;
use pmcast_simnet::FanoutScratch;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use smol::{LocalExecutor, Task, Timer};

use crate::process::{NetProcess, NetProcessReport};
use crate::transport::{ChannelTransport, Frame, TransportStats};

/// Multiplies a period by a tick count without the `Duration * u32` cap.
pub(crate) fn period_mul(period: Duration, ticks: u64) -> Duration {
    Duration::from_nanos((period.as_nanos() as u64).saturating_mul(ticks))
}

/// Configuration for a [`NetGroup`].
///
/// The `seed` feeds every stream the runtime draws on its own — the
/// per-process protocol RNGs, the per-process phase offsets and the
/// transport's loss stream.  These streams are *net-runtime-private*: the
/// simulator's three-stream seed contract (see `pmcast-sim`'s runner docs)
/// is untouched, and only statistical agreement between the two engines is
/// claimed.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The gossip period: every process runs one protocol round per
    /// period, at its own phase offset within it.
    pub gossip_period: Duration,
    /// Mailbox capacity per process: gossip frames beyond it are dropped
    /// with a counter; publishers await free capacity instead.
    pub mailbox_capacity: usize,
    /// The retire lag, counted in event ids: with
    /// [`retire_quiescent`](Self::retire_quiescent) on, a process retires
    /// dedup state below its highest received or published id minus this
    /// lag.  It allocates nothing and has no effect while retirement is
    /// off.
    pub seen_capacity: usize,
    /// Bernoulli loss probability applied per gossip frame.
    pub loss_probability: f64,
    /// Retire protocol dedup state behind a watermark: a tick at which the
    /// floor `highest id − seen_capacity` has moved calls
    /// `MulticastProtocol::retire_below(floor)` (the protocol clamps it to
    /// its lowest buffered id), so a long-running daemon's dedup memory
    /// follows the lag, not the lifetime event count.  Off by default,
    /// because retired ids count as received *and delivered*: with more
    /// than `seen_capacity` ids in flight at once, a first receipt below
    /// the floor is dropped as a duplicate and then reads as delivered,
    /// although it never was.  Pick a lag above what a burst keeps in
    /// flight.
    pub retire_quiescent: bool,
    /// The seed for the runtime-private streams (see type docs).
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            gossip_period: Duration::from_millis(10),
            mailbox_capacity: 1024,
            seen_capacity: 4096,
            loss_probability: 0.0,
            retire_quiescent: false,
            seed: 0,
        }
    }
}

impl NetConfig {
    /// Replaces the gossip period.
    pub fn with_gossip_period(mut self, period: Duration) -> Self {
        assert!(period > Duration::ZERO, "gossip period must be positive");
        self.gossip_period = period;
        self
    }

    /// Replaces the mailbox capacity.
    pub fn with_mailbox_capacity(mut self, capacity: usize) -> Self {
        self.mailbox_capacity = capacity;
        self
    }

    /// Replaces the retire lag (see the field docs).
    pub fn with_seen_capacity(mut self, capacity: usize) -> Self {
        self.seen_capacity = capacity;
        self
    }

    /// Replaces the loss probability.
    pub fn with_loss(mut self, probability: f64) -> Self {
        self.loss_probability = probability;
        self
    }

    /// Enables (or disables) dedup retirement behind the retire lag — the
    /// long-running-daemon memory bound (see the field docs).
    pub fn with_retire_quiescent(mut self, enabled: bool) -> Self {
        self.retire_quiescent = enabled;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The private per-process stream seed (documented so external
    /// reproducers can regenerate a run).
    pub(crate) fn process_seed(&self, index: usize) -> u64 {
        self.seed
            .wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The private transport-loss stream seed.
    pub(crate) fn loss_seed(&self) -> u64 {
        self.seed.wrapping_mul(0x0165_667B).wrapping_add(29)
    }
}

/// Errors from [`NetGroupHandle::publish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishError {
    /// The target process was crashed (or its mailbox torn down).
    Crashed,
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::Crashed => write!(f, "publishing to a crashed process"),
        }
    }
}

impl std::error::Error for PublishError {}

/// The cloneable control plane of a running [`NetGroup`].
#[derive(Debug, Clone)]
pub struct NetGroupHandle {
    transport: ChannelTransport,
}

impl NetGroupHandle {
    /// Publishes `event` at `process`, **waiting** while the mailbox is
    /// full — publishers get backpressure, gossip frames get dropped (see
    /// `transport` module docs).
    pub async fn publish(&self, process: usize, event: Arc<Event>) -> Result<(), PublishError> {
        if self.transport.is_crashed(process) {
            return Err(PublishError::Crashed);
        }
        // Count the command in-flight *before* awaiting capacity, so a
        // quiescence probe between enqueue attempts cannot miss it.
        self.transport.mark_enqueued(process);
        let mailbox = self.transport.mailbox(process);
        if mailbox.send(Frame::Publish(event)).await.is_err() {
            // Count it out again (a no-op if a crash wrote it off).
            self.transport.mark_processed(process);
            return Err(PublishError::Crashed);
        }
        Ok(())
    }

    /// Crashes `process` mid-stream — the runtime analogue of the
    /// simulator's `crash_at`: the task exits without draining or
    /// flushing, queued frames are written off, and subsequent gossip to
    /// it counts under `frames_to_crashed`.
    pub fn crash(&self, process: usize) {
        self.transport.mark_crashed(process);
    }

    /// Whether `process` has been crashed.
    pub fn is_crashed(&self, process: usize) -> bool {
        self.transport.is_crashed(process)
    }

    /// Whether the dissemination has come to rest: every live process's
    /// protocol reports quiescence and no frame is in flight.
    pub fn is_quiescent(&self) -> bool {
        self.transport.is_quiescent()
    }

    /// A snapshot of the transport counters.
    pub fn stats(&self) -> TransportStats {
        self.transport.stats()
    }
}

/// A protocol group running as long-lived broker tasks on a
/// [`LocalExecutor`].
///
/// [`spawn`](Self::spawn) starts one mailbox-consuming task plus one
/// ticker task per process and a group-wide membership ticker;
/// [`shutdown`](Self::shutdown) tears everything down gracefully and
/// returns the final protocol states.  See the crate docs for a complete
/// example.
#[derive(Debug)]
pub struct NetGroup<P: MulticastProtocol> {
    handle: NetGroupHandle,
    tasks: Vec<Task<NetProcessReport<P>>>,
    membership_stop: Arc<AtomicBool>,
}

impl<P: MulticastProtocol + 'static> NetGroup<P> {
    /// Spawns `processes` (in dense identifier order) onto `executor`.
    ///
    /// The group advances `membership` once per gossip period (the same
    /// once-per-round cadence the simulator uses); per-process phase
    /// offsets, protocol RNG streams and the loss stream all derive from
    /// `config.seed`.
    pub fn spawn(
        executor: &LocalExecutor,
        processes: Vec<P>,
        membership: Arc<dyn MembershipView>,
        config: &NetConfig,
    ) -> Self {
        let count = processes.len();
        let (transport, receivers) = ChannelTransport::with_loss(
            config.mailbox_capacity,
            count,
            config.loss_probability,
            config.loss_seed(),
        );

        // The membership ticker: one provider round per gossip period,
        // just after the period boundary and before any process's tick
        // (process phases start at 20% of the period).
        let period = config.gossip_period;
        let membership_offset = period / 10;
        let membership_stop = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&membership_stop);
        executor
            .spawn(async move {
                let mut tick = 0u64;
                loop {
                    Timer::at(period_mul(period, tick) + membership_offset).await;
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    membership.round_elapsed();
                    tick += 1;
                }
            })
            .detach();

        let retire_lag = config.retire_quiescent.then_some(config.seen_capacity);
        let mut tasks = Vec::with_capacity(count);
        for (index, (protocol, mailbox)) in processes.into_iter().zip(receivers).enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(config.process_seed(index));
            // The phase offset desynchronizes gossip periods across the
            // group: each process ticks at its own point within (20%, 90%)
            // of the period, drawn from its private stream.
            let phase = period.mul_f64(rng.gen_range(0.2..0.9));
            let ticker_sender = transport.mailbox(index).clone();
            executor
                .spawn(async move {
                    let mut tick = 0u64;
                    loop {
                        Timer::at(period_mul(period, tick) + phase).await;
                        // A full mailbox delays the tick (the period
                        // stretches under overload); a closed one means
                        // the process exited.
                        if ticker_sender.send(Frame::Tick).await.is_err() {
                            return;
                        }
                        tick += 1;
                    }
                })
                .detach();
            let process = NetProcess {
                index,
                protocol,
                mailbox,
                transport: transport.clone(),
                rng,
                retire_lag,
                highest: None,
                floor: EventId(0),
                outbox: Vec::new(),
                scratch: FanoutScratch::default(),
                stats: Default::default(),
            };
            tasks.push(executor.spawn(process.run()));
        }
        NetGroup {
            handle: NetGroupHandle { transport },
            tasks,
            membership_stop,
        }
    }

    /// The group's control plane.
    pub fn handle(&self) -> &NetGroupHandle {
        &self.handle
    }

    /// Gracefully shuts the group down: stops the membership ticker,
    /// sends every live process a shutdown frame (waiting for mailbox
    /// capacity — frames already queued are drained first), and returns
    /// the final per-process reports in identifier order.
    pub async fn shutdown(self) -> Vec<NetProcessReport<P>> {
        self.membership_stop.store(true, Ordering::Relaxed);
        let transport = &self.handle.transport;
        for index in 0..self.tasks.len() {
            if transport.is_crashed(index) {
                continue;
            }
            // A closed mailbox means the process already exited.
            let _ = transport.mailbox(index).send(Frame::Shutdown).await;
        }
        let mut reports = Vec::with_capacity(self.tasks.len());
        for task in self.tasks {
            reports.push(task.await);
        }
        reports
    }
}
