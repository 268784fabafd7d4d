use std::collections::VecDeque;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::{CrashPlan, Envelope, NetworkConfig, ProcessId, RoundNetwork, TrafficStats};

/// A protocol state machine attached to one simulated process.
///
/// The [`Simulation`] drives all processes in lockstep rounds: at every
/// round each live process first handles the messages delivered to it (sent
/// during the previous round), then gets one [`RoundProcess::on_round`] call
/// to emit new messages.  This matches the synchronous-round model of the
/// paper's analysis while the protocol code itself stays oblivious to the
/// simulation details.
pub trait RoundProcess {
    /// The protocol's message type.
    type Message: Clone;

    /// Called once per round after message delivery; the process may send
    /// messages and inspect the round number through the context.
    fn on_round(&mut self, ctx: &mut RoundContext<'_, Self::Message>);

    /// Called for every message delivered to this process at the beginning
    /// of a round.
    ///
    /// The message comes without its sender.  The network has already
    /// applied every check that involves one — a crashed sender, a
    /// partition, the link's loss and delay — when the message was sent,
    /// so a receiver has no use for it; leaving it out keeps the envelopes
    /// that pass through every round small.  A protocol that needs a
    /// reply address carries it in its own message type.
    fn on_message(&mut self, message: Self::Message, ctx: &mut RoundContext<'_, Self::Message>);

    /// Returns `true` if the process has nothing left to do; a simulation
    /// may stop early once every process is quiescent and no messages are in
    /// flight.  Defaults to `false`: never quiescent, stepped every round.
    ///
    /// Answering `true` carries a proof obligation, because the engine
    /// sweeps the active set, not the group: while this returns `true`,
    /// [`on_round`](RoundProcess::on_round) must be a pure no-op — it sends
    /// nothing, draws nothing from the shared RNG and changes no observable
    /// state.  Skipping the call is then stream-neutral (the shared
    /// protocol RNG advances exactly as it would under a dense 0..n sweep),
    /// so the engine schedules a quiescent process only when something
    /// could have woken it: a delivered message, a lifecycle join, or
    /// direct mutation through [`Simulation::process_mut`].  That is what
    /// makes million-process groups simulable — a round costs
    /// O(active + n/64) instead of O(n): the schedule is a bitmap, one bit
    /// per process, so a fully quiescent round reads n/64 zero words.
    fn is_quiescent(&self) -> bool {
        false
    }

    /// The key under which the engine may screen `message` as a repeat;
    /// `None` (the default) has every message handed over.
    ///
    /// `Some(k)` carries a proof obligation like
    /// [`is_quiescent`](RoundProcess::is_quiescent)'s: once the engine has
    /// handed this process a message of key `k`, every later one of key `k`
    /// is a no-op for the rest of the simulation — it sends, draws and
    /// reports nothing and changes no observable state.  So the engine skips
    /// the call and does not wake the receiver for it: a repeat costs a bit
    /// test, though [`Simulation::last_step_receivers`] still lists it.
    fn receipt_key(_message: &Self::Message) -> Option<u64> {
        None
    }
}

/// The reusable index buffers a round driver lends the process it drives
/// for its fanout draw.  Owned by the driver (the [`Simulation`], or an
/// external driver next to its outbox) and reached through
/// [`RoundContext::scratch`], which lends them beside the rest of the
/// context, so a protocol draws and sends while it holds them.
///
/// A draw's candidate pool lives for one `on_round` call, so it is state of
/// the round, not of the process: one warm set of buffers serves every
/// process a driver steps, where a buffer per process would be grown — and
/// found cold — once per infected process.  The pools' contents are
/// unspecified between callbacks; a protocol clears what it uses.
#[derive(Debug, Default)]
pub struct FanoutScratch {
    /// Candidate positions for the round's draws (pmcast: one depth's view
    /// as the membership provider lists it; the baselines: the picked
    /// indices).
    pub candidates: Vec<usize>,
    /// A per-event narrowing of `candidates` (pmcast's summary routing).
    pub event_candidates: Vec<usize>,
    /// A pool that is a whole range but one position, drawn from without
    /// being written out (pmcast under a global membership: one depth's
    /// view minus the process itself).
    pub all_but_one: VirtualPool,
}

/// The candidate pool `0..width` without one position, permuted in place by
/// a partial Fisher–Yates without ever being written out.
///
/// A slot the draws have swapped holds an override stamped with the current
/// generation; every other slot holds its value in the ascending sequence.
/// Starting a new pool moves to the next generation, so a reset is O(1) and
/// a swap reads and writes two slots, whatever the pool's length: a draw of
/// `F` picks costs O(F) plus the overrides it touches.
#[derive(Debug, Default)]
pub struct VirtualPool {
    /// Values from this one on are one past their slot.
    skip: usize,
    /// The stamp of the current pool's overrides; never 0 once reset.
    generation: u32,
    /// `(stamp, value)` per slot, at least as many as the pool holds.
    slots: Vec<(u32, u32)>,
}

impl VirtualPool {
    /// Starts the pool `0..width` without `skip` (when it lies inside), in
    /// ascending order, and returns how many values it holds.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds `u32::MAX`.
    pub fn reset(&mut self, width: usize, skip: Option<usize>) -> usize {
        assert!(u32::try_from(width).is_ok(), "a pool of {width} positions");
        let skip = skip.filter(|&skip| skip < width);
        let len = width - usize::from(skip.is_some());
        self.skip = skip.unwrap_or(usize::MAX);
        if self.slots.len() < len {
            self.slots.resize(len, (0, 0));
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Every stamp the wrapped counter will reach again is stale.
            self.slots.fill((0, 0));
            self.generation = 1;
        }
        len
    }

    /// The value at `slot` of the current pool.
    fn get(&self, slot: usize) -> usize {
        match self.slots[slot] {
            (stamp, value) if stamp == self.generation => value as usize,
            _ => slot + usize::from(slot >= self.skip),
        }
    }

    /// Swaps the values at slots `a` and `b` of the current pool and
    /// returns the one now at `a`.
    pub fn swap(&mut self, a: usize, b: usize) -> usize {
        let (at_a, at_b) = (self.get(a), self.get(b));
        // Both fit: no value reaches the width `reset` checked.
        self.slots[b] = (self.generation, at_a as u32);
        self.slots[a] = (self.generation, at_b as u32);
        at_b
    }
}

/// The per-process, per-round execution context handed to [`RoundProcess`]
/// callbacks: the driver's [`FanoutScratch`] and a [`RoundIo`] — the
/// process's identity, the current round, a deterministic PRNG and where
/// its sends and delivery reports go — which the context derefs to.
pub struct RoundContext<'a, M> {
    scratch: &'a mut FanoutScratch,
    io: RoundIo<'a, M>,
}

/// Everything a [`RoundContext`] holds but the fanout buffers: what a
/// protocol draws, sends and reports through while it holds the buffers
/// [`RoundContext::scratch`] lends.
pub struct RoundIo<'a, M> {
    process: ProcessId,
    round: u64,
    sink: Sink<'a, M>,
    rng: &'a mut ChaCha8Rng,
}

/// Where a context's sends and delivery reports go.  A message is written
/// once between the protocol's pick and the receiver's `on_message`: a
/// [`Simulation`] hands the context its network and its step's report
/// buffer, so a send *is* [`RoundNetwork::send`] — every fault decision,
/// the loss draw, the traffic accounting and the envelope's one write into
/// the in-flight buffer (or the delay wheel, or a straggler's backlog)
/// happen there and then.  An outbox remains for the one driver that must
/// look at a send before it is one: an external driver with a transport of
/// its own ([`RoundContext::external`]).
enum Sink<'a, M> {
    Network(&'a mut RoundNetwork<M>, &'a mut Vec<(ProcessId, u64)>),
    Outbox(&'a mut Vec<(ProcessId, M)>),
}

impl<M> std::fmt::Debug for RoundIo<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoundContext")
            .field("process", &self.process)
            .field("round", &self.round)
            .finish_non_exhaustive()
    }
}

impl<M> std::fmt::Debug for RoundContext<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.io.fmt(f)
    }
}

impl<'a, M> RoundContext<'a, M> {
    /// A context for driving a [`RoundProcess`] **outside** a
    /// [`Simulation`] — the seam the asynchronous runtime (`pmcast-net`)
    /// uses to fire gossip rounds off timers instead of lock-step rounds.
    /// The caller owns the outbox, the RNG and the fanout scratch: sends
    /// accumulate in `outbox` for the caller to flush through its own
    /// transport, `rng` is whatever stream the external driver's
    /// determinism story prescribes (the simulator's own seed contract is
    /// untouched), and `scratch` is kept next to the outbox and handed back
    /// on every call so its buffers stay warm.  Delivery reports go
    /// nowhere: only a round-synchronous observer reads them.
    pub fn external(
        process: ProcessId,
        round: u64,
        outbox: &'a mut Vec<(ProcessId, M)>,
        rng: &'a mut ChaCha8Rng,
        scratch: &'a mut FanoutScratch,
    ) -> Self {
        RoundContext {
            scratch,
            io: RoundIo { process, round, sink: Sink::Outbox(outbox), rng },
        }
    }

    /// Lends the driver's fanout buffers beside the rest of the context, so
    /// a protocol fills them, draws from the RNG and sends at once; the
    /// warm capacity stays with the driver for the next process:
    ///
    /// ```rust
    /// # use pmcast_simnet::{FanoutScratch, ProcessId, RoundContext};
    /// # use rand::SeedableRng;
    /// # let mut outbox = Vec::new();
    /// # let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
    /// # let mut lent = FanoutScratch::default();
    /// # let mut ctx = RoundContext::external(ProcessId(0), 0, &mut outbox, &mut rng, &mut lent);
    /// let (scratch, io) = ctx.scratch();
    /// io.choose_indices_into(10, 3, &mut scratch.candidates);
    /// for &pick in &scratch.candidates {
    ///     io.send(ProcessId(pick), "gossip");
    /// }
    /// # assert_eq!(outbox.len(), 3);
    /// ```
    pub fn scratch(&mut self) -> (&mut FanoutScratch, &mut RoundIo<'a, M>) {
        (self.scratch, &mut self.io)
    }
}

impl<'a, M> std::ops::Deref for RoundContext<'a, M> {
    type Target = RoundIo<'a, M>;
    fn deref(&self) -> &RoundIo<'a, M> {
        &self.io
    }
}

impl<M> std::ops::DerefMut for RoundContext<'_, M> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.io
    }
}

impl<M> RoundIo<'_, M> {
    /// Sends a message to `to`.
    #[inline]
    pub fn send(&mut self, to: ProcessId, message: M) {
        match &mut self.sink {
            Sink::Network(network, _) => network.send(self.process, to, message, 0),
            Sink::Outbox(outbox) => outbox.push((to, message)),
        }
    }

    /// Deterministic per-run PRNG (shared across processes).
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        self.rng
    }

    /// Tells the round driver that this process just delivered, for the
    /// first time, the application-level item `tag` identifies (a protocol's
    /// event id).  A [`Simulation`] keeps a step's worth for
    /// [`last_step_deliveries`](Simulation::last_step_deliveries); an
    /// external driver keeps none.  So a protocol reports every first
    /// delivery it makes inside a callback and nothing else, each pair
    /// exactly once.
    pub fn report_delivery(&mut self, tag: u64) {
        if let Sink::Network(_, reports) = &mut self.sink {
            reports.push((self.process, tag));
        }
    }

    /// Allocation-free target selection: clears `out` and fills it with up
    /// to `count` distinct indices into `0..pool`, drawn uniformly.  With
    /// the [`scratch`](RoundContext::scratch) buffers as `out` the
    /// steady-state cost is O(count) time and zero allocation.
    pub fn choose_indices_into(&mut self, pool: usize, count: usize, out: &mut Vec<usize>) {
        out.clear();
        let count = count.min(pool);
        while out.len() < count {
            let candidate = self.rng.gen_range(0..pool);
            if !out.contains(&candidate) {
                out.push(candidate);
            }
        }
    }
}

/// The kind of a membership lifecycle transition the engine applies and
/// reports: a process coming up, leaving gracefully, or failing.
///
/// The variant order is meaningful: transitions scheduled for the same
/// round apply joins first, then leaves, then crashes (the sort order of
/// the merged lifecycle schedule), so mixed schedules stay deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LifecycleKind {
    /// The process activates (an initial join or a re-join): it starts
    /// taking part in rounds and receiving messages sent from now on.
    Join,
    /// The process deactivates gracefully (an unsubscribe): it announces
    /// its departure, so membership layers may evict it eagerly.
    Leave,
    /// The process fails: it goes silent without announcement, so
    /// membership layers can only detect it by missed contact.
    Crash,
}

/// One membership lifecycle transition, reported to the observer installed
/// with [`Simulation::with_lifecycle_observer`] at the moment it happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleTransition {
    /// The process making the transition.
    pub process: ProcessId,
    /// What happened to it.
    pub kind: LifecycleKind,
}

/// A trial's membership lifecycle: which processes start outside the group
/// and which join/leave at which rounds.  Scheduled crashes stay on
/// [`crate::CrashPlan`] (the fault model); this plan is the *membership*
/// model — graceful, announced transitions.  Both schedules merge into one
/// deterministic queue applied at the start of each round, ordered by
/// `(round, kind, process)` with [`LifecycleKind`]'s `Join < Leave < Crash`
/// order breaking same-round ties.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LifecyclePlan {
    /// Processes that are not members when the simulation starts (they are
    /// expected to appear in `joins`); marked down silently — no observer
    /// notification, because no transition happened yet.
    pub initially_absent: Vec<usize>,
    /// `(round, process)` pairs joining during the run.
    pub joins: Vec<(u64, usize)>,
    /// `(round, process)` pairs leaving gracefully during the run.
    pub leaves: Vec<(u64, usize)>,
}

/// Drives a set of [`RoundProcess`] state machines over a [`RoundNetwork`].
///
/// The loop only drives processes: every fault the [`crate::FaultPlan`]
/// declares is the network's to apply, on the network's round, which is
/// the simulation's during every [`step`](Self::step).
///
/// The round loop is allocation-free after warm-up, and a round's messages
/// live in one buffer: the inbox, handed over whole at the boundary, goes
/// back drained as the round's send buffer.  A process's sends go straight
/// into the network's buffer, and the crash schedule drains through a
/// [`VecDeque`] cursor instead of repeatedly shifting a vector.
///
/// A repeat of a [`RoundProcess::receipt_key`] its receiver was handed
/// before costs one bit of an n-bit row per key: it calls and wakes nothing.
pub struct Simulation<P: RoundProcess> {
    processes: Vec<P>,
    network: RoundNetwork<P::Message>,
    protocol_rng: ChaCha8Rng,
    /// The merged lifecycle schedule (scheduled crashes from the
    /// [`CrashPlan`] plus the [`LifecyclePlan`] joins/leaves), sorted by
    /// `(round, kind, process)` and drained through a deque cursor.
    scheduled_lifecycle: VecDeque<(u64, LifecycleKind, usize)>,
    round: u64,
    /// `true` once [`force_dense_stepping`](Self::force_dense_stepping) was
    /// called: the engine then runs the reference dense 0..n sweep instead
    /// of sweeping the active set.
    dense: bool,
    /// The processes scheduled for the next `on_round` phase, one bit each
    /// (process `i` is bit `i % 64` of word `i / 64`).  The sweep reads the
    /// words in ascending order, so active-set rounds visit processes in
    /// the dense sweep's index order without sorting anything.
    scheduled: Vec<u64>,
    /// The round after's schedule: the sweep sets the bit of every process
    /// still busy after its call, then swaps the two bitmaps.  All zero
    /// outside the sweep, which zeroes `scheduled` word by word as it reads.
    rescheduled: Vec<u64>,
    /// Dense indices handed at least one message during the most recent
    /// [`step`](Self::step), deduplicated via `received` — the receipt
    /// delta observers use instead of re-scanning all n processes.
    receivers: Vec<usize>,
    /// One bit per process in `receivers`, cleared by walking it.
    received: Vec<u64>,
    /// Who was handed a message of which receipt key, ever.
    screen: ReceiptScreen,
    /// Repeats the screen kept from their receivers, ever.
    screened: u64,
    /// Messages delivered at the current boundary (between steps, a spare).
    inbox: Vec<Envelope<P::Message>>,
    /// Reused across processes and rounds: the fanout buffers lent to the
    /// process being driven.
    scratch: FanoutScratch,
    /// The `(process, tag)` pairs reported during the current step.
    reports: Vec<(ProcessId, u64)>,
    /// Invoked exactly once per lifecycle transition, at the moment it
    /// happens (initial [`CrashPlan`] fraction, scheduled joins/leaves/
    /// crashes and manual [`crash`](Self::crash) calls alike).  Lets layers
    /// living outside the engine — e.g. a gossip membership provider —
    /// observe churn without re-deriving the crash plan's random stream.
    lifecycle_observer: Option<Box<dyn FnMut(LifecycleTransition)>>,
}

impl<P: RoundProcess> std::fmt::Debug for Simulation<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("processes", &self.processes.len())
            .field("round", &self.round)
            .finish_non_exhaustive()
    }
}

impl<P: RoundProcess> Simulation<P> {
    /// Creates a simulation over the given processes and network
    /// configuration, applying any initial crash plan.
    pub fn new(processes: Vec<P>, config: NetworkConfig) -> Self {
        Self::build(processes, config, LifecyclePlan::default(), None)
    }

    /// Creates a simulation with a full membership lifecycle: the plan's
    /// `initially_absent` processes start off the network (silently — no
    /// transition happened yet), its joins activate them mid-run, its
    /// leaves deactivate members gracefully, and the [`CrashPlan`] injects
    /// failures as before.  `observer` is invoked exactly once per
    /// transition — join, leave or crash — at the moment it happens
    /// (including the crashes the initial [`CrashPlan`] fraction applies
    /// during this very call), so a co-simulated membership layer can
    /// mirror the population without re-deriving any schedule.  The
    /// observer must not touch the simulation: it runs while the engine
    /// holds it mutably.  Same-round transitions apply in
    /// join-then-leave-then-crash order (see [`LifecycleKind`]).
    pub fn with_lifecycle_observer(
        processes: Vec<P>,
        config: NetworkConfig,
        lifecycle: LifecyclePlan,
        observer: impl FnMut(LifecycleTransition) + 'static,
    ) -> Self {
        Self::build(processes, config, lifecycle, Some(Box::new(observer)))
    }

    fn build(
        processes: Vec<P>,
        config: NetworkConfig,
        lifecycle: LifecyclePlan,
        mut lifecycle_observer: Option<Box<dyn FnMut(LifecycleTransition)>>,
    ) -> Self {
        config.validate();
        let mut seed_rng = ChaCha8Rng::seed_from_u64(config.seed);
        let network_rng = ChaCha8Rng::seed_from_u64(seed_rng.gen());
        let protocol_rng = ChaCha8Rng::seed_from_u64(seed_rng.gen());
        let mut network = RoundNetwork::with_faults(
            processes.len(),
            config.loss_probability,
            network_rng,
            &config.fault_plan,
        );
        let mut schedule: Vec<(u64, LifecycleKind, usize)> = Vec::new();
        let crash_fraction = |network: &mut RoundNetwork<P::Message>,
                                  seed_rng: &mut ChaCha8Rng,
                                  observer: &mut Option<Box<dyn FnMut(LifecycleTransition)>>,
                                  fraction: f64| {
            let mut crash_rng = ChaCha8Rng::seed_from_u64(seed_rng.gen());
            for index in 0..processes.len() {
                if crash_rng.gen_bool(fraction.clamp(0.0, 1.0)) {
                    network.crash(ProcessId(index));
                    if let Some(observer) = observer {
                        observer(LifecycleTransition {
                            process: ProcessId(index),
                            kind: LifecycleKind::Crash,
                        });
                    }
                }
            }
        };
        match &config.crash_plan {
            CrashPlan::None => {}
            CrashPlan::InitialFraction(fraction) => {
                crash_fraction(&mut network, &mut seed_rng, &mut lifecycle_observer, *fraction);
            }
            CrashPlan::Scheduled(crashes) => {
                schedule.extend(crashes.iter().map(|&(r, p)| (r, LifecycleKind::Crash, p)));
            }
            CrashPlan::Mixed { fraction, schedule: crashes } => {
                crash_fraction(&mut network, &mut seed_rng, &mut lifecycle_observer, *fraction);
                schedule.extend(crashes.iter().map(|&(r, p)| (r, LifecycleKind::Crash, p)));
            }
        }
        schedule.extend(lifecycle.joins.iter().map(|&(r, p)| (r, LifecycleKind::Join, p)));
        schedule.extend(lifecycle.leaves.iter().map(|&(r, p)| (r, LifecycleKind::Leave, p)));
        schedule.sort();
        // Initial absence is state, not a transition: the processes were
        // never members, so the observer is not notified.
        for &absent in &lifecycle.initially_absent {
            network.crash(ProcessId(absent));
        }
        let count = processes.len();
        let words = count.div_ceil(64);
        Self {
            processes,
            network,
            protocol_rng,
            scheduled_lifecycle: schedule.into(),
            round: 0,
            dense: false,
            // Round 0 schedules everybody: initial state (buffered
            // publications, seeded tokens) predates the simulation, so no
            // delivery could have marked it.  Crashed processes are
            // dropped by the first sweep.
            scheduled: (0..words).map(|word| u64::MAX >> (64 - (count - 64 * word).min(64))).collect(),
            rescheduled: vec![0; words],
            receivers: Vec::new(),
            received: vec![0; words],
            screen: ReceiptScreen::new(words),
            screened: 0,
            inbox: Vec::new(),
            scratch: FanoutScratch::default(),
            reports: Vec::new(),
            lifecycle_observer,
        }
    }

    /// Schedules a process for the next `on_round` phase (idempotent per
    /// round).  A no-op under dense stepping, where every live process is
    /// visited anyway.
    fn mark_active(&mut self, index: usize) {
        if self.dense {
            return;
        }
        // Every call site runs between steps or during the delivery phase,
        // so the next sweep is the one this round's bitmap feeds
        // (sweep-time rescheduling, which targets the round after, sets
        // bits of `rescheduled` inline in `step`).
        self.scheduled[index / 64] |= 1 << (index % 64);
    }

    /// Forces the dense 0..n sweep — a validation hook for asserting that
    /// active-set and dense stepping produce bit-identical outcomes (dense
    /// stepping is always correct; active-set stepping relies on the
    /// contract of [`RoundProcess::is_quiescent`] and is the optimisation
    /// under test).
    pub fn force_dense_stepping(&mut self) {
        self.dense = true;
        self.scheduled.fill(0);
    }

    /// Runs one callback of process `id` inside a context whose sends go
    /// straight into the network, lending it the simulation's fanout
    /// buffers in place.
    fn drive(
        &mut self,
        id: ProcessId,
        callback: impl FnOnce(&mut P, &mut RoundContext<'_, P::Message>),
    ) {
        let sink = Sink::Network(&mut self.network, &mut self.reports);
        let io = RoundIo { process: id, round: self.round, sink, rng: &mut self.protocol_rng };
        callback(&mut self.processes[id.0], &mut RoundContext { scratch: &mut self.scratch, io });
    }

    fn notify(&mut self, id: ProcessId, kind: LifecycleKind) {
        if let Some(observer) = &mut self.lifecycle_observer {
            observer(LifecycleTransition { process: id, kind });
        }
    }

    /// Crashes a process (if it is not already down) and notifies the
    /// lifecycle observer on the transition.
    fn crash_and_notify(&mut self, id: ProcessId) {
        if self.network.is_crashed(id) {
            return;
        }
        self.network.crash(id);
        self.notify(id, LifecycleKind::Crash);
    }

    /// Deactivates a process gracefully (if it is up) and notifies the
    /// lifecycle observer of the leave.
    fn leave_and_notify(&mut self, id: ProcessId) {
        if self.network.is_crashed(id) {
            return;
        }
        self.network.crash(id);
        self.notify(id, LifecycleKind::Leave);
    }

    /// Activates a process (if it is down) and notifies the lifecycle
    /// observer of the join.
    fn join_and_notify(&mut self, id: ProcessId) {
        if !self.network.is_crashed(id) {
            return;
        }
        self.network.activate(id);
        // A rejoiner may still hold state frozen at crash/leave time
        // (buffered gossip it never flushed), so it must be scheduled.
        self.mark_active(id.0);
        self.notify(id, LifecycleKind::Join);
    }

    /// The current round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Immutable access to a process's protocol state.
    pub fn process(&self, id: ProcessId) -> &P {
        &self.processes[id.0]
    }

    /// Mutable access to a process's protocol state (e.g. to inject an
    /// application-level multicast before running).
    ///
    /// Conservatively schedules the process for the next round: the caller
    /// may wake it (inject a publication, hand it a token), and under
    /// active-set scheduling a wake the engine cannot see would otherwise
    /// never be swept.
    pub fn process_mut(&mut self, id: ProcessId) -> &mut P {
        self.mark_active(id.0);
        &mut self.processes[id.0]
    }

    /// Iterates over all protocol states.
    pub fn processes(&self) -> impl Iterator<Item = &P> + Clone {
        self.processes.iter()
    }

    /// The dense indices of the live processes handed at least one message
    /// during the most recent [`step`](Self::step), deduplicated (a
    /// process receiving several messages appears once), in delivery
    /// order.  Empty before the first step.
    ///
    /// This is the per-round *receipt* delta: a receipt-driven protocol
    /// only changes state while handling a message or while the caller
    /// mutates it directly, so a state observer can inspect just these
    /// processes instead of re-scanning the whole group after every round.
    /// An observer of *deliveries* does not have to poll even these —
    /// [`last_step_deliveries`](Self::last_step_deliveries) names the pairs
    /// — which is what the trial runner reads; this accessor stays for
    /// observers of receipt and for `pmbench`'s composed trial loop, which
    /// still polls the receivers and is held equal to the runner's outcome
    /// trial by trial.
    pub fn last_step_receivers(&self) -> &[usize] {
        &self.receivers
    }

    /// The `(process, tag)` pairs the processes reported through
    /// [`RoundIo::report_delivery`] during the most recent
    /// [`step`](Self::step), in delivery order.  Empty before the first
    /// step.
    ///
    /// This is the per-round delivery delta by *item*: a protocol that
    /// reports each first delivery once (the `MulticastProtocol`s of
    /// `pmcast-core` do, with the event id as the tag) lets an observer keep
    /// its books in O(deliveries) per round, where polling
    /// [`last_step_receivers`](Self::last_step_receivers) costs a probe per
    /// receiver per item of interest.  A delivery a caller causes directly
    /// through [`process_mut`](Self::process_mut) happens outside any step
    /// and is the caller's to note.
    pub fn last_step_deliveries(&self) -> &[(ProcessId, u64)] {
        &self.reports
    }

    /// The network traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        self.network.stats()
    }

    /// How many delivered messages the receipt screen kept from their
    /// receivers: repeats of a [`RoundProcess::receipt_key`] each was handed
    /// before, so never more than [`TrafficStats::messages_delivered`].
    pub fn screened_repeats(&self) -> u64 {
        self.screened
    }

    /// Messages sent but not yet delivered or dropped: those the next
    /// [`step`](Self::step) hands over and those still in the link-delay
    /// wheel.  A straggler's parked send is not counted as sent yet.  So
    /// between steps, [`TrafficStats::messages_sent`] is this plus the
    /// delivered, lost, to-crashed, from-crashed and partitioned counts.
    pub fn messages_in_flight(&self) -> u64 {
        self.network.messages_in_flight()
    }

    /// Returns `true` if the given process is down — crashed, gracefully
    /// departed, or not yet joined.
    pub fn is_crashed(&self, id: ProcessId) -> bool {
        self.network.is_crashed(id)
    }

    /// Crashes a process immediately.
    pub fn crash(&mut self, id: ProcessId) {
        self.crash_and_notify(id);
    }

    /// Number of scheduled lifecycle transitions (joins, leaves, scheduled
    /// crashes) that have not been applied yet.  Callers stopping a run
    /// early on quiescence should also wait for this to reach zero, so a
    /// trial never ends with part of its declared schedule silently
    /// unapplied.
    pub fn pending_lifecycle(&self) -> usize {
        self.scheduled_lifecycle.len()
    }

    /// Executes one synchronous round: deliver last round's messages, then
    /// let every live process act.  The buffers involved are reused from
    /// round to round, so steady-state rounds allocate nothing.
    pub fn step(&mut self) {
        // Apply this round's lifecycle transitions (joins, then leaves,
        // then crashes — the schedule's sort order; O(1) per transition
        // thanks to the deque cursor).
        while let Some(&(when, kind, index)) = self.scheduled_lifecycle.front() {
            if when > self.round {
                break;
            }
            match kind {
                LifecycleKind::Join => self.join_and_notify(ProcessId(index)),
                LifecycleKind::Leave => self.leave_and_notify(ProcessId(index)),
                LifecycleKind::Crash => self.crash_and_notify(ProcessId(index)),
            }
            self.scheduled_lifecycle.pop_front();
        }

        let mut inbox = std::mem::take(&mut self.inbox);
        // Round 0 opens without a handover: nothing can be in flight before
        // it, so the network's round is the engine's during every step.
        if self.round > 0 {
            self.network.deliver_round_into(&mut inbox);
        }

        self.receivers.drain(..).for_each(|index| self.received[index / 64] = 0);
        self.reports.clear();
        for Envelope { to, message } in inbox.drain(..) {
            // Nothing can crash between the handover and this loop, and the
            // handover already dropped what was addressed to a down process.
            debug_assert!(
                !self.network.is_crashed(to),
                "the network handed over a message for {to}, which is down"
            );
            // Record the receipt delta (deduplicated).
            let bit = 1 << (to.0 % 64);
            if self.received[to.0 / 64] & bit == 0 {
                self.received[to.0 / 64] |= bit;
                self.receivers.push(to.0);
            }
            // A repeat of a key the receiver was handed is a no-op
            // (`RoundProcess::receipt_key`): neither driven nor woken.
            if P::receipt_key(&message).is_some_and(|key| self.screen.handed_before(key, to.0)) {
                self.screened += 1;
                continue;
            }
            // Schedule the receiver: a message may have woken it.
            self.mark_active(to.0);
            // Messages emitted while handling are sent from the receiver.
            self.drive(to, |process, ctx| process.on_message(message, ctx));
        }
        self.network.collect_sends_into(&mut inbox);

        if self.dense {
            for index in 0..self.processes.len() {
                let id = ProcessId(index);
                if self.network.is_crashed(id) {
                    continue;
                }
                self.drive(id, P::on_round);
            }
        } else {
            // The active-set sweep: visit exactly the scheduled processes,
            // in ascending index order — the same order the dense sweep
            // visits them in.  Every process skipped here is quiescent, so
            // by `RoundProcess::is_quiescent`'s contract its `on_round` would
            // have been a no-op drawing nothing from the shared RNG: the RNG
            // stream, the traffic and every process state are bit-identical
            // to the dense sweep's.
            for word in 0..self.scheduled.len() {
                for index in set_bits(word, std::mem::take(&mut self.scheduled[word])) {
                    let id = ProcessId(index);
                    if self.network.is_crashed(id) {
                        continue;
                    }
                    self.drive(id, P::on_round);
                    // Still busy?  Reschedule for the next round.
                    if !self.processes[index].is_quiescent() {
                        self.rescheduled[word] |= 1 << (index % 64);
                    }
                }
            }
            std::mem::swap(&mut self.scheduled, &mut self.rescheduled);
        }
        self.inbox = inbox;
        self.round += 1;
    }

    /// Returns `true` if every live process is quiescent and no messages
    /// are in flight — the stopping condition of
    /// [`run_until_quiescent`](Self::run_until_quiescent), exposed so
    /// callers driving the simulation step by step (e.g. to inject
    /// publications on a schedule) can stop on the same condition.
    pub fn is_quiescent(&self) -> bool {
        let protocol_quiet = if self.dense {
            self.processes
                .iter()
                .enumerate()
                .all(|(index, p)| self.network.is_crashed(ProcessId(index)) || p.is_quiescent())
        } else {
            // Invariant of active-set scheduling: every live non-quiescent
            // process is in `scheduled` (it was scheduled by the wake that
            // made it non-quiescent — a delivery, a join, or a `process_mut`
            // touch — or rescheduled by its own sweep).  So walking the set
            // bits is enough: O(scheduled + n/64), and a fully-quiescent
            // simulation reads n/64 zero words.
            self.scheduled
                .iter()
                .enumerate()
                .flat_map(|(word, &bits)| set_bits(word, bits))
                .all(|index| self.network.is_crashed(ProcessId(index)) || self.processes[index].is_quiescent())
        };
        protocol_quiet && self.network.is_idle()
    }

    /// Runs until every process is quiescent, no messages are in flight
    /// **and** the declared lifecycle schedule has fully applied, or until
    /// `max_rounds` have elapsed.  Returns the number of rounds executed.
    ///
    /// Waiting on [`pending_lifecycle`](Self::pending_lifecycle) keeps a
    /// run from ending with part of its schedule silently unapplied: a
    /// join at round 50 still happens even if the protocol went quiet at
    /// round 10.
    pub fn run_until_quiescent(&mut self, max_rounds: u64) -> u64 {
        let mut executed = 0;
        while executed < max_rounds {
            self.step();
            executed += 1;
            if self.pending_lifecycle() == 0 && self.is_quiescent() {
                break;
            }
        }
        executed
    }

    /// Consumes the simulation and returns the protocol states (useful for
    /// post-run inspection of deliveries).
    pub fn into_processes(self) -> Vec<P> {
        self.processes
    }
}

/// The indices of the set bits of word `word` of a bitmap, ascending.
fn set_bits(word: usize, mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = bits.trailing_zeros() as usize;
        bits &= bits.wrapping_sub(1);
        (bit < 64).then_some(64 * word + bit)
    })
}

/// Who was handed a message of each [`RoundProcess::receipt_key`]: a row of
/// n bits per key, over a window of keys from the first seen, grown as keys
/// arrive.  A key outside it is not screened: that costs speed, not truth.
struct ReceiptScreen {
    /// Words per row: one bit per process.
    row_words: usize,
    /// How many rows fit in [`ReceiptScreen::WORDS`].
    max_rows: u64,
    /// The key of row 0: the first key seen.
    base: Option<u64>,
    rows: Vec<u64>,
}

impl ReceiptScreen {
    /// The bound on the rows' memory, 8 MiB: keys are event ids in
    /// practice, consecutive from a trial's first, so this holds a thousand
    /// events of a 2¹⁶-process group and every event of a topic trial,
    /// while a key far past the first cannot make the engine allocate.
    const WORDS: usize = 1 << 20;

    fn new(row_words: usize) -> Self {
        let max_rows = Self::WORDS.checked_div(row_words).unwrap_or(0) as u64;
        ReceiptScreen { row_words, max_rows, base: None, rows: Vec::new() }
    }

    /// Records that process `index` was handed a message of `key`, and
    /// returns whether it had been before.
    fn handed_before(&mut self, key: u64, index: usize) -> bool {
        let row = key.wrapping_sub(*self.base.get_or_insert(key));
        if row >= self.max_rows {
            return false;
        }
        let start = row as usize * self.row_words;
        if self.rows.len() <= start {
            self.rows.resize(start + self.row_words, 0);
        }
        let (word, bit) = (&mut self.rows[start + index / 64], 1 << (index % 64));
        let handed = *word & bit != 0;
        *word |= bit;
        handed
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::fault::tests::{delayed, partitioned, straggling};
    use crate::{FaultPlan, LinkDelay, PartitionWindow, Straggler};

    /// Number of down processes (crashed, departed or not yet joined).
    fn crashed_count<P: RoundProcess>(sim: &Simulation<P>) -> usize {
        (0..sim.processes.len()).filter(|&index| sim.is_crashed(ProcessId(index))).count()
    }

    /// A process that floods a token to everybody once it has seen it.
    struct Flood {
        everyone: Vec<ProcessId>,
        has_token: bool,
        announced: bool,
        deliveries: u32,
    }

    impl Flood {
        fn new(everyone: Vec<ProcessId>, seeded: bool) -> Self {
            Self {
                everyone,
                has_token: seeded,
                announced: false,
                deliveries: 0,
            }
        }
    }

    impl RoundProcess for Flood {
        type Message = u64;

        fn on_round(&mut self, ctx: &mut RoundContext<'_, u64>) {
            if self.has_token && !self.announced {
                for &peer in &self.everyone {
                    if peer != ctx.process {
                        ctx.send(peer, 99);
                    }
                }
                self.announced = true;
            }
        }

        fn on_message(&mut self, message: u64, ctx: &mut RoundContext<'_, u64>) {
            assert_eq!(message, 99);
            self.deliveries += 1;
            if !self.has_token {
                ctx.report_delivery(message);
            }
            self.has_token = true;
        }

        fn is_quiescent(&self) -> bool {
            // `on_round` acts exactly when `has_token && !announced`, i.e.
            // when not quiescent, and never draws from the RNG — so a
            // quiescent `on_round` is a pure no-op and skipping is safe.
            !self.has_token || self.announced
        }
    }

    fn flood_simulation(count: usize, config: NetworkConfig) -> Simulation<Flood> {
        let everyone: Vec<ProcessId> = (0..count).map(ProcessId).collect();
        let processes: Vec<Flood> = (0..count)
            .map(|i| Flood::new(everyone.clone(), i == 0))
            .collect();
        Simulation::new(processes, config)
    }

    fn step_rounds<P: RoundProcess>(sim: &mut Simulation<P>, rounds: u64) {
        for _ in 0..rounds {
            sim.step();
        }
    }

    #[test]
    fn reliable_flood_reaches_everyone() {
        let mut sim = flood_simulation(10, NetworkConfig::reliable(3));
        let rounds = sim.run_until_quiescent(50);
        assert!(rounds < 50);
        let reached = sim.processes().filter(|p| p.has_token).count();
        assert_eq!(reached, 10);
        // 9 messages from the seed + 9·8 from the others echoing once.
        assert_eq!(sim.stats().messages_sent, 9 + 9 * 9);
        assert_eq!(sim.stats().messages_lost, 0);
    }

    #[test]
    fn lossy_flood_misses_some_processes() {
        let mut sim = flood_simulation(30, NetworkConfig::default().with_loss(0.9).with_seed(5));
        step_rounds(&mut sim, 3);
        let reached = sim.processes().filter(|p| p.has_token).count();
        assert!(reached < 30, "with 90% loss not everybody is reached in 3 rounds");
        assert!(sim.stats().messages_lost > 0);
    }

    #[test]
    fn initial_crash_fraction_disables_processes() {
        let config = NetworkConfig {
            crash_plan: CrashPlan::InitialFraction(0.5),
            ..NetworkConfig::reliable(11)
        };
        let mut sim = flood_simulation(100, config);
        let crashed = crashed_count(&sim);
        assert!(crashed > 20 && crashed < 80, "crashed {crashed}");
        sim.run_until_quiescent(10);
        let reached = sim
            .processes()
            .enumerate()
            .filter(|(i, p)| p.has_token && !sim.is_crashed(ProcessId(*i)))
            .count();
        // All live processes are reached directly by the seed (unless the
        // seed itself crashed, in which case nobody new is reached).
        if !sim.is_crashed(ProcessId(0)) {
            assert_eq!(reached, 100 - crashed);
        }
    }

    #[test]
    fn mixed_crash_plan_applies_both_models() {
        let plan = CrashPlan::Mixed {
            fraction: 0.5,
            schedule: vec![(2, 0)],
        };
        let config = NetworkConfig { crash_plan: plan, ..NetworkConfig::reliable(11) };
        let mut sim = flood_simulation(100, config);
        let initially_crashed = crashed_count(&sim);
        assert!(initially_crashed > 20 && initially_crashed < 80, "{initially_crashed}");
        // The initial fraction draws from the same stream as
        // `InitialFraction`, so the crash set matches it exactly.
        let fraction_only = flood_simulation(
            100,
            NetworkConfig {
                crash_plan: CrashPlan::InitialFraction(0.5),
                ..NetworkConfig::reliable(11)
            },
        );
        for index in 0..100 {
            assert_eq!(
                sim.is_crashed(ProcessId(index)),
                fraction_only.is_crashed(ProcessId(index))
            );
        }
        sim.step();
        sim.step();
        sim.step(); // round 2 → scheduled crash of process 0 applies
        assert!(sim.is_crashed(ProcessId(0)));
        assert!(crashed_count(&sim) >= initially_crashed);
    }

    #[test]
    fn quiescence_query_matches_run_until_quiescent() {
        let mut sim = flood_simulation(10, NetworkConfig::reliable(3));
        assert!(!sim.is_quiescent(), "seed process has a token to announce");
        sim.run_until_quiescent(50);
        assert!(sim.is_quiescent());
    }

    #[test]
    fn scheduled_crashes_happen_at_the_right_round() {
        let schedule = CrashPlan::Scheduled(vec![(2, 1)]);
        let config = NetworkConfig { crash_plan: schedule, ..NetworkConfig::reliable(1) };
        let mut sim = flood_simulation(3, config);
        assert!(!sim.is_crashed(ProcessId(1)));
        sim.step(); // round 0
        sim.step(); // round 1
        assert!(!sim.is_crashed(ProcessId(1)));
        sim.step(); // round 2 → crash applies
        assert!(sim.is_crashed(ProcessId(1)));
    }

    #[test]
    fn runs_are_reproducible_for_equal_seeds() {
        let run = |seed| {
            let mut sim = flood_simulation(40, NetworkConfig::default().with_loss(0.4).with_seed(seed));
            step_rounds(&mut sim, 4);
            let reached = sim.processes().filter(|p| p.has_token).count();
            (reached, sim.stats().messages_lost)
        };
        assert_eq!(run(21), run(21));
    }

    #[test]
    fn accessors_work() {
        let mut sim = flood_simulation(4, NetworkConfig::reliable(0));
        assert_eq!(sim.processes.len(), 4);
        assert_eq!(sim.round(), 0);
        assert!(sim.process(ProcessId(0)).has_token);
        sim.process_mut(ProcessId(2)).has_token = true;
        step_rounds(&mut sim, 2);
        assert_eq!(sim.round(), 2);
        let states = sim.into_processes();
        assert_eq!(states.len(), 4);
        assert!(states[3].has_token);
    }

    #[test]
    fn manual_crash_mid_run() {
        let mut sim = flood_simulation(5, NetworkConfig::reliable(9));
        sim.crash(ProcessId(4));
        sim.run_until_quiescent(10);
        assert!(!sim.process(ProcessId(4)).has_token);
        assert!(sim.stats().messages_to_crashed > 0);
    }

    #[test]
    fn crash_observer_sees_every_crash_exactly_once() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<ProcessId>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let plan = CrashPlan::Mixed {
            fraction: 0.3,
            schedule: vec![(1, 2)],
        };
        let config = NetworkConfig { crash_plan: plan, ..NetworkConfig::reliable(11) };
        let everyone: Vec<ProcessId> = (0..50).map(ProcessId).collect();
        let processes: Vec<Flood> = (0..50)
            .map(|i| Flood::new(everyone.clone(), i == 0))
            .collect();
        let mut sim = Simulation::with_lifecycle_observer(
            processes,
            config,
            LifecyclePlan::default(),
            move |transition| {
                assert_eq!(transition.kind, LifecycleKind::Crash);
                sink.borrow_mut().push(transition.process)
            },
        );
        // The initial fraction is observed during construction.
        assert_eq!(seen.borrow().len(), crashed_count(&sim));
        sim.step();
        sim.step(); // round 1 → the scheduled crash of process 2 applies
        assert!(sim.is_crashed(ProcessId(2)));
        // Manual crashes notify too; re-crashing is not re-notified.
        sim.crash(ProcessId(7));
        sim.crash(ProcessId(7));
        sim.crash(ProcessId(2));
        assert_eq!(seen.borrow().len(), crashed_count(&sim));
        let mut unique = seen.borrow().clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), crashed_count(&sim), "no duplicate notifications");
    }

    #[test]
    fn lifecycle_plan_activates_joiners_and_departs_leavers() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<(usize, LifecycleKind)>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let everyone: Vec<ProcessId> = (0..6).map(ProcessId).collect();
        let processes: Vec<Flood> = (0..6)
            .map(|i| Flood::new(everyone.clone(), i == 0))
            .collect();
        let plan = LifecyclePlan {
            initially_absent: vec![5],
            joins: vec![(2, 5)],
            leaves: vec![(3, 1)],
        };
        let mut sim = Simulation::with_lifecycle_observer(
            processes,
            NetworkConfig::reliable(4),
            plan,
            move |t| sink.borrow_mut().push((t.process.0, t.kind)),
        );
        // Initial absence is silent and keeps the process off the network.
        assert!(sim.is_crashed(ProcessId(5)));
        assert!(seen.borrow().is_empty());
        sim.step(); // round 0: seed floods to everyone; 5 is down, misses it
        sim.step(); // round 1: deliveries
        assert!(!sim.process(ProcessId(5)).has_token, "absent process missed the flood");
        sim.step(); // round 2: 5 joins
        assert!(!sim.is_crashed(ProcessId(5)));
        sim.step(); // round 3: 1 leaves
        assert!(sim.is_crashed(ProcessId(1)));
        assert!(sim.process(ProcessId(1)).has_token, "the leaver was a member before");
        assert_eq!(
            *seen.borrow(),
            vec![(5, LifecycleKind::Join), (1, LifecycleKind::Leave)]
        );
    }

    #[test]
    fn same_round_lifecycle_transitions_apply_join_leave_crash() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<(usize, LifecycleKind)>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let everyone: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        let processes: Vec<Flood> = (0..4)
            .map(|i| Flood::new(everyone.clone(), i == 0))
            .collect();
        let config = NetworkConfig {
            crash_plan: CrashPlan::Scheduled(vec![(1, 2)]),
            ..NetworkConfig::reliable(7)
        };
        let plan = LifecyclePlan {
            initially_absent: vec![3],
            joins: vec![(1, 3)],
            leaves: vec![(1, 1)],
        };
        let mut sim = Simulation::with_lifecycle_observer(processes, config, plan, move |t| {
            sink.borrow_mut().push((t.process.0, t.kind))
        });
        sim.step(); // round 0
        sim.step(); // round 1: join(3), leave(1), crash(2) in that order
        assert_eq!(
            *seen.borrow(),
            vec![
                (3, LifecycleKind::Join),
                (1, LifecycleKind::Leave),
                (2, LifecycleKind::Crash)
            ]
        );
        // A joiner can re-join the dissemination: give 3 the token and it
        // floods like any live process.
        sim.process_mut(ProcessId(3)).has_token = true;
        let before = sim.stats().messages_sent;
        sim.step();
        assert!(sim.stats().messages_sent > before, "re-activated process sends");
    }

    #[test]
    fn rejoin_after_leave_is_notified_once_each() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let seen: Rc<RefCell<Vec<(usize, LifecycleKind)>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let everyone: Vec<ProcessId> = (0..3).map(ProcessId).collect();
        let processes: Vec<Flood> = (0..3)
            .map(|i| Flood::new(everyone.clone(), i == 0))
            .collect();
        let plan = LifecyclePlan {
            initially_absent: Vec::new(),
            joins: vec![(2, 1), (2, 1)], // duplicate join is idempotent
            leaves: vec![(1, 1)],
        };
        let mut sim = Simulation::with_lifecycle_observer(
            processes,
            NetworkConfig::reliable(2),
            plan,
            move |t| sink.borrow_mut().push((t.process.0, t.kind)),
        );
        sim.step(); // round 0
        sim.step(); // round 1: leave
        sim.step(); // round 2: re-join (second join is a no-op)
        assert_eq!(
            *seen.borrow(),
            vec![(1, LifecycleKind::Leave), (1, LifecycleKind::Join)]
        );
        assert!(!sim.is_crashed(ProcessId(1)));
    }

    #[test]
    fn choose_indices_into_respects_bounds_and_fills_the_lent_scratch() {
        let mut outbox: Vec<(ProcessId, u64)> = Vec::new();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut scratch = FanoutScratch::default();
        let mut ctx = RoundContext::external(ProcessId(0), 0, &mut outbox, &mut rng, &mut scratch);
        let (picks, io) = ctx.scratch();
        io.choose_indices_into(5, 3, &mut picks.candidates);
        assert_eq!(picks.candidates.len(), 3);
        io.choose_indices_into(5, 10, &mut picks.candidates);
        picks.candidates.sort_unstable();
        assert_eq!(picks.candidates, vec![0, 1, 2, 3, 4]);
        io.choose_indices_into(0, 3, &mut picks.candidates);
        assert!(picks.candidates.is_empty());
        assert!(!format!("{ctx:?}").is_empty());
        // The driver's buffers were filled in place and stay warm.
        assert!(scratch.candidates.capacity() >= 5);
    }

    #[test]
    fn a_virtual_pool_permutes_like_its_written_out_sequence_across_resets() {
        let mut pool = VirtualPool::default();
        for (width, skip) in [(6, Some(2)), (4, None), (6, Some(9)), (3, Some(0)), (1, Some(0))] {
            let mut listed: Vec<usize> = (0..width).filter(|&p| Some(p) != skip).collect();
            assert_eq!(pool.reset(width, skip), listed.len());
            for (a, b) in [(0, 3), (1, 1), (2, 0), (0, 4), (3, 2)] {
                if a.max(b) < listed.len() {
                    listed.swap(a, b);
                    assert_eq!(pool.swap(a, b), listed[a], "width {width} skip {skip:?}");
                }
            }
            let whole: Vec<usize> = (0..listed.len()).map(|slot| pool.get(slot)).collect();
            assert_eq!(whole, listed);
        }
        // Past the last generation the counter starts over, and an override
        // stamped in an earlier cycle with the generation it starts at must
        // not come back.
        pool.reset(5, None);
        pool.swap(0, 4);
        pool.slots[2] = (1, 4);
        pool.generation = u32::MAX;
        pool.reset(5, None);
        assert_eq!(pool.generation, 1);
        assert_eq!((0..5).map(|slot| pool.get(slot)).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn straggler_holds_back_sends_until_its_flush_round() {
        // Process 0 (the seed) flushes only every 3rd round: its announce
        // in round 0 is held until round 3, so nobody has the token after
        // two full rounds.
        let plan = straggling(0, 3);
        let config = NetworkConfig { fault_plan: plan, ..NetworkConfig::reliable(3) };
        let mut sim = flood_simulation(10, config);
        step_rounds(&mut sim, 3);
        let reached = sim.processes().filter(|p| p.has_token).count();
        assert_eq!(reached, 1, "held-back announce must not be delivered yet");
        assert_eq!(sim.stats().messages_sent, 0, "holdback precedes the network");
        // Round 3 flushes the holdback; the boundary of round 4 delivers it.
        step_rounds(&mut sim, 2);
        let reached = sim.processes().filter(|p| p.has_token).count();
        assert_eq!(reached, 10);
    }

    #[test]
    fn straggler_delays_but_does_not_change_outcomes() {
        let plan = straggling(0, 4);
        let mut slow = flood_simulation(10, NetworkConfig { fault_plan: plan, ..NetworkConfig::reliable(3) });
        let mut fast = flood_simulation(10, NetworkConfig::reliable(3));
        let slow_rounds = slow.run_until_quiescent(50);
        let fast_rounds = fast.run_until_quiescent(50);
        assert!(slow_rounds > fast_rounds, "{slow_rounds} vs {fast_rounds}");
        assert_eq!(slow.stats().messages_sent, fast.stats().messages_sent);
        assert_eq!(slow.processes().filter(|p| p.has_token).count(), 10);
    }

    #[test]
    fn quiescence_waits_for_straggler_holdbacks() {
        let plan = straggling(0, 5);
        let config = NetworkConfig { fault_plan: plan, ..NetworkConfig::reliable(3) };
        let mut sim = flood_simulation(4, config);
        step_rounds(&mut sim, 2);
        // The seed announced (protocol-quiescent, network idle) but its
        // messages still sit in the holdback queue.
        assert!(!sim.is_quiescent(), "holdback must block quiescence");
        sim.run_until_quiescent(20);
        assert_eq!(sim.processes().filter(|p| p.has_token).count(), 4);
    }

    #[test]
    fn crashing_a_straggler_drops_its_holdback() {
        let plan = straggling(0, 10);
        let config = NetworkConfig {
            fault_plan: plan,
            crash_plan: CrashPlan::Scheduled(vec![(2, 0)]),
            ..NetworkConfig::reliable(3)
        };
        let mut sim = flood_simulation(4, config);
        let rounds = sim.run_until_quiescent(30);
        assert!(rounds < 30, "dropped holdback must not wedge quiescence");
        assert_eq!(sim.stats().messages_sent, 0);
        assert_eq!(sim.processes().filter(|p| p.has_token).count(), 1);
    }

    #[test]
    fn a_receiver_going_down_in_flight_is_dropped_at_the_handover_and_counted_once() {
        // Process 0 sends one message to each of the other four in its
        // first round; nobody echoes.  Process 1 crashes and process 2
        // leaves at the start of the round whose boundary delivers them —
        // over the plain network, the delay wheel, and a straggling sender
        // (whose sends wait in its backlog first).
        for (faults, arrival) in [
            (FaultPlan::default(), 1),
            (delayed(2, 2), 3),
            (straggling(0, 2), 3),
        ] {
            let processes: Vec<Flood> = (0..5)
                .map(|i| match i {
                    0 => Flood::new((0..5).map(ProcessId).collect(), true),
                    _ => Flood::new(Vec::new(), false),
                })
                .collect();
            let config = NetworkConfig {
                fault_plan: faults.clone(),
                crash_plan: CrashPlan::Scheduled(vec![(arrival, 1)]),
                ..NetworkConfig::reliable(3)
            };
            let lifecycle = LifecyclePlan {
                leaves: vec![(arrival, 2)],
                ..LifecyclePlan::default()
            };
            let mut sim = Simulation::with_lifecycle_observer(processes, config, lifecycle, |_| {});
            step_rounds(&mut sim, arrival);
            assert_eq!(sim.stats().messages_sent, 4, "{faults:?}");
            assert_eq!(sim.stats().messages_to_crashed, 0, "all four were up at the send");
            assert_eq!(sim.stats().messages_delivered, 0);
            sim.step();
            assert_eq!(sim.stats().messages_to_crashed, 2, "{faults:?}");
            assert_eq!(sim.stats().messages_delivered, 2, "{faults:?}");
            assert_eq!(sim.last_step_receivers(), &[3, 4]);
            let received: Vec<u32> = sim.processes().map(|p| p.deliveries).collect();
            assert_eq!(received, vec![0, 0, 0, 1, 1], "{faults:?}");
            sim.run_until_quiescent(10);
            assert_eq!(sim.stats().messages_to_crashed, 2, "counted exactly once");
            assert_eq!(sim.stats().messages_sent, 4);
        }
    }

    #[test]
    fn neutral_stragglers_are_ignored() {
        let plan = straggling(0, 1);
        let mut with_plan = flood_simulation(10, NetworkConfig { fault_plan: plan, ..NetworkConfig::reliable(3) });
        let mut without = flood_simulation(10, NetworkConfig::reliable(3));
        assert_eq!(
            with_plan.run_until_quiescent(50),
            without.run_until_quiescent(50)
        );
        assert_eq!(with_plan.stats(), without.stats());
    }

    #[test]
    fn a_round_s_messages_live_in_one_buffer() {
        // Round 1 is the peak: 99 processes announce to 99 peers each.  A
        // flood sends from `on_round` only, so the buffer the delivery loop
        // sends into never grows, and the one that carried the peak is the
        // only one holding memory.
        let mut sim = flood_simulation(100, NetworkConfig::reliable(3));
        sim.run_until_quiescent(10);
        assert_eq!(sim.stats().messages_sent, 99 + 99 * 99);
        assert_eq!(sim.inbox.capacity(), 0, "the delivery loop's send buffer grew");
        let held = sim.inbox.capacity() + sim.network.in_flight_capacity();
        assert!(held <= (99usize * 99).next_power_of_two(), "{held} envelopes held");
    }

    /// Sends one message a round to each of `on_round`, from `on_round`, and
    /// one to `on_message`, if any, per message it receives; a message is
    /// `1000 × sender + the round it was sent in`.  Keeps what it receives.
    struct Relay {
        on_round: Vec<ProcessId>,
        on_message: Option<ProcessId>,
        received: Vec<u64>,
    }

    impl RoundProcess for Relay {
        type Message = u64;

        fn on_round(&mut self, ctx: &mut RoundContext<'_, u64>) {
            let message = 1000 * ctx.process.0 as u64 + ctx.round;
            for &to in &self.on_round {
                ctx.send(to, message);
            }
        }

        fn on_message(&mut self, message: u64, ctx: &mut RoundContext<'_, u64>) {
            self.received.push(message);
            if let Some(to) = self.on_message {
                let message = 1000 * ctx.process.0 as u64 + ctx.round;
                ctx.send(to, message);
            }
        }
    }

    #[test]
    fn a_round_s_sends_arrive_in_emission_order_across_the_handover() {
        // Process 0 hears from 1, a straggler flushing on even rounds; from
        // 2, which answers every message 3 sends it from `on_message`; from
        // 3's `on_round`; and from 4 over the one link that takes an extra
        // round.  A seed gives the jittered delay that layout.
        let relays = || {
            let relay = |on_round: &[usize], on_message: Option<usize>| Relay {
                on_round: on_round.iter().copied().map(ProcessId).collect(),
                on_message: on_message.map(ProcessId),
                received: Vec::new(),
            };
            vec![
                relay(&[], None),
                relay(&[0], None),
                relay(&[], Some(0)),
                relay(&[2, 0], None),
                relay(&[0], None),
            ]
        };
        let fault_plan = FaultPlan {
            link_delay: Some(LinkDelay { min_extra: 0, max_extra: 1 }),
            stragglers: vec![Straggler { process: 1, period: 2 }],
            ..FaultPlan::default()
        };
        let mut sim = (0..)
            .map(|seed| {
                let fault_plan = fault_plan.clone();
                let config = NetworkConfig { fault_plan, ..NetworkConfig::reliable(seed) };
                Simulation::new(relays(), config)
            })
            .find(|sim| {
                let extra = |from, to| sim.network.link_extra_delay(ProcessId(from), ProcessId(to));
                let prompt = [(1, 0), (2, 0), (3, 0), (3, 2)];
                extra(4, 0) == 1 && prompt.iter().all(|&(from, to)| extra(from, to) == 0)
            })
            .unwrap();
        step_rounds(&mut sim, 6);
        // Each boundary's arrivals: the straggler's flush, the `on_message`
        // sends, the `on_round` sends in sweep order, then the delayed link.
        let arrivals: [&[u64]; 5] = [
            &[3000],
            &[2001, 3001, 4000],
            &[1000, 1001, 2002, 1002, 3002, 4001],
            &[2003, 3003, 4002],
            &[1003, 2004, 1004, 3004, 4003],
        ];
        assert_eq!(sim.process(ProcessId(0)).received, arrivals.concat());
    }

    /// Sends `to`, if any, one message a round carrying the round it was
    /// sent in, and keeps the rounds of the messages it receives.
    struct Pinger {
        to: Option<ProcessId>,
        arrived: Vec<u64>,
    }

    impl RoundProcess for Pinger {
        type Message = u64;

        fn on_round(&mut self, ctx: &mut RoundContext<'_, u64>) {
            if let Some(to) = self.to {
                let round = ctx.round;
                ctx.send(to, round);
            }
        }

        fn on_message(&mut self, sent_in: u64, _ctx: &mut RoundContext<'_, u64>) {
            self.arrived.push(sent_in);
        }
    }

    #[test]
    fn a_partition_window_cuts_the_sends_of_the_rounds_it_names() {
        // Process 0 pings process 3 across the cells {0, 1} | {2, 3} every
        // round; the window `[from, until)` loses exactly the pings sent in
        // the rounds it names, counted by the engine's own round.
        for (from, until) in [(0, 1), (2, 4)] {
            let processes: Vec<Pinger> = (0..4)
                .map(|index| Pinger {
                    to: (index == 0).then_some(ProcessId(3)),
                    arrived: Vec::new(),
                })
                .collect();
            let config = NetworkConfig {
                fault_plan: partitioned(from, until, 2),
                ..NetworkConfig::reliable(3)
            };
            let mut sim = Simulation::new(processes, config);
            step_rounds(&mut sim, 7);
            let arrived = &sim.process(ProcessId(3)).arrived;
            let cut: Vec<u64> = (0..6).filter(|round| !arrived.contains(round)).collect();
            assert_eq!(cut, (from..until).collect::<Vec<u64>>(), "window [{from}, {until})");
            assert_eq!(sim.stats().messages_partitioned, until - from);
        }
    }

    /// A rumor-mongering process that *draws from the shared protocol RNG*
    /// while active: each round it holds the rumor and has budget left, it
    /// picks two random peers and forwards.  This makes the bit-identical
    /// tests below sensitive to any divergence in which processes run and
    /// in which order — a single extra or missing `on_round` call of a
    /// non-quiescent process shifts every later draw of the shared stream.
    struct Rumor {
        count: usize,
        has_rumor: bool,
        budget: u32,
        deliveries: u32,
    }

    impl Rumor {
        fn new(count: usize, seeded: bool) -> Self {
            Self {
                count,
                has_rumor: seeded,
                budget: if seeded { 3 } else { 0 },
                deliveries: 0,
            }
        }

        fn fingerprint(&self) -> (bool, u32, u32) {
            (self.has_rumor, self.budget, self.deliveries)
        }
    }

    impl RoundProcess for Rumor {
        type Message = u8;

        fn on_round(&mut self, ctx: &mut RoundContext<'_, u8>) {
            if !self.has_rumor || self.budget == 0 {
                return;
            }
            self.budget -= 1;
            let own = ctx.process.0;
            let (scratch, io) = ctx.scratch();
            io.choose_indices_into(self.count - 1, 2, &mut scratch.candidates);
            for &pick in &scratch.candidates {
                let target = if pick >= own { pick + 1 } else { pick };
                io.send(ProcessId(target), 7);
            }
        }

        fn on_message(&mut self, message: u8, _ctx: &mut RoundContext<'_, u8>) {
            assert_eq!(message, 7);
            self.deliveries += 1;
            if !self.has_rumor {
                self.has_rumor = true;
                self.budget = 3;
            }
        }

        fn is_quiescent(&self) -> bool {
            !self.has_rumor || self.budget == 0
        }
    }

    fn rumor_simulation(count: usize, config: NetworkConfig, plan: LifecyclePlan) -> Simulation<Rumor> {
        let processes: Vec<Rumor> = (0..count).map(|i| Rumor::new(count, i == 0)).collect();
        Simulation::with_lifecycle_observer(processes, config, plan, |_| {})
    }

    #[test]
    fn active_set_is_bit_identical_to_dense_sweep() {
        // A deliberately adversarial scenario: lossy links, an initial
        // crash fraction, a scheduled crash, a straggler, a leave, and a
        // join of an initially-absent process.  The active-set run and the
        // dense run must agree on every observable: rounds to quiescence,
        // full traffic statistics (loss draws consume the network RNG, so
        // equality here means the streams stayed aligned) and the complete
        // per-process state.
        let build = || {
            let plan = CrashPlan::Mixed {
                fraction: 0.1,
                schedule: vec![(4, 2)],
            };
            let config = NetworkConfig {
                loss_probability: 0.15,
                crash_plan: plan,
                fault_plan: straggling(3, 2),
                seed: 13,
            };
            let lifecycle = LifecyclePlan {
                initially_absent: vec![5],
                joins: vec![(2, 5)],
                leaves: vec![(6, 1)],
            };
            rumor_simulation(40, config, lifecycle)
        };
        let mut sparse = build();
        let mut dense = build();
        dense.force_dense_stepping();
        let sparse_rounds = sparse.run_until_quiescent(100);
        let dense_rounds = dense.run_until_quiescent(100);
        assert_eq!(sparse_rounds, dense_rounds);
        assert_eq!(sparse.stats(), dense.stats());
        assert_eq!(sparse.round(), dense.round());
        assert_eq!(crashed_count(&sparse), crashed_count(&dense));
        let sparse_states: Vec<_> = sparse.processes().map(Rumor::fingerprint).collect();
        let dense_states: Vec<_> = dense.processes().map(Rumor::fingerprint).collect();
        assert_eq!(sparse_states, dense_states);
        // The scenario actually spread the rumor (the test is vacuous if
        // nothing happened).
        assert!(sparse_states.iter().filter(|(has, ..)| *has).count() > 5);
    }

    #[test]
    fn active_set_crosses_bitmap_words_like_the_dense_sweep() {
        // 130 processes fill two bitmap words and start a third.  Every
        // crash, join, leave and direct touch lands on a word's first or
        // last bit, and the two runs are compared after every step.
        let build = || {
            let config = NetworkConfig {
                loss_probability: 0.1,
                crash_plan: CrashPlan::Scheduled(vec![(3, 63), (5, 128)]),
                ..NetworkConfig::reliable(29)
            };
            let lifecycle = LifecyclePlan {
                initially_absent: vec![127],
                joins: vec![(4, 127), (7, 63)],
                leaves: vec![(2, 64)],
            };
            rumor_simulation(130, config, lifecycle)
        };
        // Hands the rumor, with a fresh budget, to a process between steps.
        let touch = |sim: &mut Simulation<Rumor>, index: usize| {
            let process = sim.process_mut(ProcessId(index));
            process.has_rumor = true;
            process.budget = 3;
        };
        let mut sparse = build();
        let mut dense = build();
        dense.force_dense_stepping();
        let mut sent_while_quiet = 0;
        for round in 0..60 {
            if round == 30 {
                assert!(sparse.is_quiescent(), "the last touch wakes a quiet group");
                sent_while_quiet = sparse.stats().messages_sent;
            }
            for sim in [&mut sparse, &mut dense] {
                match round {
                    0 => touch(sim, 128),
                    1 => touch(sim, 63),
                    3 => touch(sim, 64),
                    10 => touch(sim, 127),
                    30 => touch(sim, 63),
                    _ => {}
                }
                sim.step();
            }
            assert_eq!(sparse.stats(), dense.stats(), "after round {round}");
            assert_eq!(sparse.is_quiescent(), dense.is_quiescent(), "after round {round}");
        }
        assert!(sparse.is_quiescent());
        let sparse_states: Vec<_> = sparse.processes().map(Rumor::fingerprint).collect();
        let dense_states: Vec<_> = dense.processes().map(Rumor::fingerprint).collect();
        assert_eq!(sparse_states, dense_states);
        assert!(sparse_states.iter().filter(|(has, ..)| *has).count() > 100, "the rumor spread");
        assert!(sparse.stats().messages_sent > sent_while_quiet, "the last touch sent");
    }

    #[test]
    fn run_until_quiescent_waits_for_the_lifecycle_schedule() {
        // The flood is over by round ~2, but the schedule extends to round
        // 50: the run must keep stepping until the join has applied
        // instead of ending with part of the declared schedule unapplied.
        let everyone: Vec<ProcessId> = (0..4).map(ProcessId).collect();
        let processes: Vec<Flood> = (0..4)
            .map(|i| Flood::new(everyone.clone(), i == 0))
            .collect();
        let plan = LifecyclePlan {
            initially_absent: vec![3],
            joins: vec![(50, 3)],
            leaves: Vec::new(),
        };
        let mut sim = Simulation::with_lifecycle_observer(
            processes,
            NetworkConfig::reliable(6),
            plan,
            |_| {},
        );
        let rounds = sim.run_until_quiescent(100);
        assert!(rounds > 50, "stopped at {rounds}, before the scheduled join");
        assert_eq!(sim.pending_lifecycle(), 0);
        assert!(!sim.is_crashed(ProcessId(3)), "the join applied");
        assert!(sim.is_quiescent());
    }

    #[test]
    fn last_step_receivers_reports_the_delivery_delta() {
        let mut sim = flood_simulation(5, NetworkConfig::reliable(3));
        assert!(sim.last_step_receivers().is_empty(), "no deliveries before stepping");
        sim.step(); // round 0: the seed floods; nothing delivered yet
        assert!(sim.last_step_receivers().is_empty());
        sim.step(); // round 1: everyone else receives the token
        let mut receivers = sim.last_step_receivers().to_vec();
        receivers.sort_unstable();
        assert_eq!(receivers, vec![1, 2, 3, 4]);
        sim.step(); // round 2: the echoes land on the seed and each other
        assert_eq!(sim.last_step_receivers().len(), 5, "deduplicated per process");
        sim.run_until_quiescent(20);
        assert!(sim.last_step_receivers().is_empty(), "quiet rounds deliver nothing");
    }

    #[test]
    fn last_step_deliveries_holds_one_step_of_reports() {
        let mut sim = flood_simulation(5, NetworkConfig::reliable(3));
        assert!(sim.last_step_deliveries().is_empty(), "nothing reported before stepping");
        sim.step(); // round 0: the seed floods; nothing delivered yet
        assert!(sim.last_step_deliveries().is_empty());
        sim.step(); // round 1: everyone else takes the token for the first time
        let mut reported = sim.last_step_deliveries().to_vec();
        reported.sort_unstable();
        assert_eq!(reported, (1..5).map(|index| (ProcessId(index), 99)).collect::<Vec<_>>());
        sim.step(); // round 2: twenty echoes land, none of them a first
        assert_eq!(sim.last_step_receivers().len(), 5);
        assert!(sim.last_step_deliveries().is_empty(), "a step starts from an empty buffer");

        // An external driver keeps no reports: a report under it leaves the
        // outbox, the lent scratch and the stream as they were.
        let mut outbox: Vec<(ProcessId, u64)> = vec![(ProcessId(1), 5)];
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut scratch = FanoutScratch { candidates: vec![2, 7], ..FanoutScratch::default() };
        let before = format!("{scratch:?}");
        let mut ctx = RoundContext::external(ProcessId(3), 0, &mut outbox, &mut rng, &mut scratch);
        Flood::new(Vec::new(), false).on_message(99, &mut ctx);
        ctx.report_delivery(100);
        assert_eq!(outbox, vec![(ProcessId(1), 5)]);
        assert_eq!(format!("{scratch:?}"), before);
        assert_eq!(rng.get_word_pos(), ChaCha8Rng::seed_from_u64(4).get_word_pos());
    }

    #[test]
    fn process_mut_reactivates_a_quiescent_process() {
        // Let the simulation go fully quiescent, then wake process 2 by
        // direct mutation: the next step must sweep it even though no
        // message or lifecycle event pointed at it.
        let mut sim = flood_simulation(6, NetworkConfig::reliable(3));
        sim.run_until_quiescent(20);
        assert!(sim.is_quiescent());
        sim.process_mut(ProcessId(2)).announced = false;
        assert!(!sim.is_quiescent(), "the woken process is visible to the scan");
        let before = sim.stats().messages_sent;
        sim.step();
        assert!(sim.stats().messages_sent > before, "the woken process re-announced");
    }

    /// A gossip of several rumors, each a key: a first receipt of a key files
    /// it with a budget of three rounds and reports it, a repeat is a no-op,
    /// and every round each buffered key goes to two random peers.  Keys
    /// divisible by 5 are sent unkeyed, so the screen meets both kinds.
    struct Keyed {
        count: usize,
        seen: BTreeSet<u64>,
        buffered: Vec<(u64, u32)>,
        /// `on_round` calls: bookkeeping of the tests, not compared state.
        rounds: u32,
    }

    impl Keyed {
        fn new(count: usize) -> Self {
            Self { count, seen: BTreeSet::new(), buffered: Vec::new(), rounds: 0 }
        }

        /// Files `key` unless it was seen; returns whether it was new.
        fn take(&mut self, key: u64) -> bool {
            let new = self.seen.insert(key);
            if new {
                self.buffered.push((key, 3));
            }
            new
        }

        fn state(&self) -> (Vec<u64>, Vec<(u64, u32)>) {
            (self.seen.iter().copied().collect(), self.buffered.clone())
        }
    }

    impl RoundProcess for Keyed {
        type Message = u64;

        fn on_round(&mut self, ctx: &mut RoundContext<'_, u64>) {
            self.rounds += 1;
            let own = ctx.process.0;
            let (scratch, io) = ctx.scratch();
            for (key, budget) in &mut self.buffered {
                *budget -= 1;
                io.choose_indices_into(self.count - 1, 2, &mut scratch.candidates);
                for &pick in &scratch.candidates {
                    io.send(ProcessId(if pick >= own { pick + 1 } else { pick }), *key);
                }
            }
            self.buffered.retain(|&(_, budget)| budget > 0);
        }

        fn on_message(&mut self, key: u64, ctx: &mut RoundContext<'_, u64>) {
            if self.take(key) {
                ctx.report_delivery(key);
            }
        }

        fn is_quiescent(&self) -> bool {
            self.buffered.is_empty()
        }

        fn receipt_key(key: &u64) -> Option<u64> {
            (!key.is_multiple_of(5)).then_some(*key)
        }
    }

    /// `P` with its receipt keys withheld: the engine hands it every
    /// message, as it did before it screened any.
    struct Unscreened<P>(P);

    impl<P: RoundProcess> RoundProcess for Unscreened<P> {
        type Message = P::Message;

        fn on_round(&mut self, ctx: &mut RoundContext<'_, P::Message>) {
            self.0.on_round(ctx);
        }

        fn on_message(&mut self, message: P::Message, ctx: &mut RoundContext<'_, P::Message>) {
            self.0.on_message(message, ctx);
        }

        fn is_quiescent(&self) -> bool {
            self.0.is_quiescent()
        }
    }

    #[test]
    fn a_quiescent_process_handed_only_repeats_is_never_woken() {
        // Everybody holds key 9 from the start, so every message is a repeat:
        // each process gossips in rounds 0–2, and round 3 hands over the last
        // of them to processes that are quiet by then.
        let build = || {
            let processes = (0..8).map(|_| {
                let mut process = Keyed::new(8);
                process.take(9);
                process
            });
            processes.collect::<Vec<_>>()
        };
        let mut screened = Simulation::new(build(), NetworkConfig::reliable(4));
        let unscreened = build().into_iter().map(Unscreened).collect();
        let mut unscreened = Simulation::new(unscreened, NetworkConfig::reliable(4));
        for _ in 0..4 {
            screened.step();
            unscreened.step();
        }
        assert_eq!(screened.last_step_receivers(), unscreened.last_step_receivers());
        let woken = screened.last_step_receivers().len();
        assert!(woken > 0, "round 3 hands over repeats");
        assert!(screened.processes().all(|process| process.rounds == 3));
        let rounds = unscreened.processes().map(|process| process.0.rounds);
        assert_eq!(rounds.filter(|&rounds| rounds == 4).count(), woken, "each receiver woken once");
        assert_eq!(screened.stats(), unscreened.stats());
        assert!(screened.is_quiescent() && unscreened.is_quiescent());
    }

    #[test]
    fn the_screen_keeps_a_window_of_keys_from_the_first() {
        let mut screen = ReceiptScreen::new(2);
        assert!(!screen.handed_before(10, 127));
        assert!(screen.handed_before(10, 127));
        assert!(!screen.handed_before(10, 0));
        assert!(!screen.handed_before(12, 64));
        assert!(screen.handed_before(12, 64));
        assert_eq!(screen.rows.len(), 6, "rows up to the highest key, whole");
        // The last row the bound holds is screened, and no key below the
        // first or past the bound is.
        let past = 10 + (ReceiptScreen::WORDS / 2) as u64;
        assert!(!screen.handed_before(past - 1, 5));
        assert!(screen.handed_before(past - 1, 5));
        assert_eq!(screen.rows.len(), ReceiptScreen::WORDS);
        for key in [9, 0, past, u64::MAX] {
            assert!(!screen.handed_before(key, 5));
            assert!(!screen.handed_before(key, 5), "key {key} is never screened");
        }
        assert_eq!(screen.rows.len(), ReceiptScreen::WORDS);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn build_rejects_fault_plans_referencing_missing_processes() {
        let plan = straggling(10, 2);
        flood_simulation(4, NetworkConfig { fault_plan: plan, ..NetworkConfig::reliable(3) });
    }

    #[test]
    #[should_panic(expected = "loss_probability must lie in [0, 1]")]
    fn build_validates_the_network_config() {
        flood_simulation(4, NetworkConfig::reliable(3).with_loss(2.0));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The receipt screen against the engine that screens nothing:
            /// the same keyed gossip, with its keys withheld by
            /// `Unscreened`, over random loss, link delays, a partition, a
            /// straggler, crashes, leaves and rejoins, initially absent
            /// joiners, publications mid-run and either sweep.  After every
            /// step the two agree on every process's state, the traffic
            /// statistics, the receipt and delivery deltas and the protocol
            /// stream's position.  The keys include ones below any first key
            /// and past the screen's bound, which must go unscreened.
            #[test]
            fn screened_repeats_change_nothing_observable(
                seed in 0u64..1000,
                count in 2usize..150,
                loss in 0u32..30,
                delay in (any::<bool>(), 0u64..2, 0u64..3),
                partition in (any::<bool>(), 1u64..6, 0u64..6, 1usize..4),
                straggler in (any::<bool>(), 0usize..150, 1u64..4),
                churn in proptest::collection::vec((0u8..3, 0usize..150, 1u64..20), 0..6),
                publications in
                    proptest::collection::vec((0u64..25, 0usize..150, 0usize..11), 1..8),
                dense in any::<bool>(),
            ) {
                const KEYS: [u64; 11] = [7, 8, 9, 10, 11, 12, 3, 0, 300_000, 1 << 40, u64::MAX];
                let mut crashes = Vec::new();
                let mut lifecycle = LifecyclePlan::default();
                for &(kind, process, round) in &churn {
                    let process = process % count;
                    match kind {
                        0 => crashes.push((round, process)),
                        1 => {
                            lifecycle.leaves.push((round, process));
                            lifecycle.joins.push((round + 2, process));
                        }
                        _ if !lifecycle.initially_absent.contains(&process) => {
                            lifecycle.initially_absent.push(process);
                            lifecycle.joins.push((round, process));
                        }
                        _ => {}
                    }
                }
                let fault_plan = FaultPlan {
                    link_delay: delay.0.then_some(LinkDelay {
                        min_extra: delay.1,
                        max_extra: delay.1 + delay.2,
                    }),
                    partitions: Vec::from_iter(partition.0.then_some(PartitionWindow {
                        from_round: partition.1,
                        until_round: partition.1 + partition.2,
                        cells: partition.3,
                    })),
                    stragglers: Vec::from_iter(straggler.0.then_some(Straggler {
                        process: straggler.1 % count,
                        period: straggler.2,
                    })),
                    ..FaultPlan::default()
                };
                let config = NetworkConfig {
                    loss_probability: f64::from(loss) / 100.0,
                    crash_plan: CrashPlan::Scheduled(crashes),
                    fault_plan,
                    seed,
                };
                let keyed = || (0..count).map(|_| Keyed::new(count)).collect::<Vec<_>>();
                let plan = lifecycle.clone();
                let mut screened =
                    Simulation::with_lifecycle_observer(keyed(), config.clone(), plan, |_| {});
                let unscreened = keyed().into_iter().map(Unscreened).collect();
                let mut unscreened =
                    Simulation::with_lifecycle_observer(unscreened, config, lifecycle, |_| {});
                if dense {
                    screened.force_dense_stepping();
                    unscreened.force_dense_stepping();
                }
                for round in 0..60 {
                    for &(at, process, key) in &publications {
                        if at == round {
                            screened.process_mut(ProcessId(process % count)).take(KEYS[key]);
                            unscreened.process_mut(ProcessId(process % count)).0.take(KEYS[key]);
                        }
                    }
                    screened.step();
                    unscreened.step();
                    let states: Vec<_> = screened.processes().map(Keyed::state).collect();
                    let reference: Vec<_> = unscreened.processes().map(|p| p.0.state()).collect();
                    prop_assert_eq!(states, reference, "after round {}", round);
                    prop_assert_eq!(screened.stats(), unscreened.stats());
                    let receivers = unscreened.last_step_receivers();
                    prop_assert_eq!(screened.last_step_receivers(), receivers);
                    let deliveries = unscreened.last_step_deliveries();
                    prop_assert_eq!(screened.last_step_deliveries(), deliveries);
                    prop_assert_eq!(
                        screened.protocol_rng.get_word_pos(),
                        unscreened.protocol_rng.get_word_pos()
                    );
                    prop_assert_eq!(screened.is_quiescent(), unscreened.is_quiescent());
                }
            }

            /// The active-set optimisation's core safety property, checked
            /// over random group sizes, seeds, loss rates and churn: a
            /// process skipped by the active set never changes observable
            /// state — every skipped `on_round` was a no-op, so the sparse
            /// run is bit-identical to the dense run (rounds, traffic
            /// statistics including RNG-consuming loss draws, and the full
            /// per-process state).
            #[test]
            fn skipped_processes_never_change_observable_state(
                seed in 0u64..300,
                count in 6usize..200,
                loss in 0u32..25,
                crash_round in 1u64..6,
                churn_target in 1usize..6,
            ) {
                let build = || {
                    let config = NetworkConfig {
                        loss_probability: f64::from(loss) / 100.0,
                        crash_plan: CrashPlan::Scheduled(vec![(crash_round, churn_target)]),
                        ..NetworkConfig::reliable(seed)
                    };
                    // The crashed process rejoins two rounds later — the
                    // join must reschedule it even though no message
                    // pointed at it while it was down.
                    let plan = LifecyclePlan {
                        initially_absent: Vec::new(),
                        joins: vec![(crash_round + 2, churn_target)],
                        leaves: Vec::new(),
                    };
                    rumor_simulation(count, config, plan)
                };
                let mut sparse = build();
                let mut dense = build();
                dense.force_dense_stepping();
                prop_assert_eq!(sparse.run_until_quiescent(200), dense.run_until_quiescent(200));
                prop_assert_eq!(sparse.stats(), dense.stats());
                prop_assert_eq!(sparse.round(), dense.round());
                let sparse_states: Vec<_> = sparse.processes().map(Rumor::fingerprint).collect();
                let dense_states: Vec<_> = dense.processes().map(Rumor::fingerprint).collect();
                prop_assert_eq!(sparse_states, dense_states);
            }
        }
    }
}
