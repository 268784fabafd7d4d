//! # pmcast-simnet — deterministic round-based network simulation
//!
//! The analysis and evaluation of *Probabilistic Multicast* (Section 4.1)
//! assume processes gossip in synchronous rounds over an unreliable network:
//! every message is lost independently with probability `ε`, a fraction
//! `τ = f/n` of the processes crash during a run, and the network latency is
//! bounded by the gossip period.  This crate provides exactly that substrate
//! as a deterministic, seedable discrete-round simulator:
//!
//! * [`RoundNetwork`] — a message switch with per-message loss, crashed
//!   destinations, the whole [`FaultPlan`] and full traffic accounting; an
//!   [`Envelope`] in flight is its destination and payload only, since
//!   every check that reads the sender is made at the send;
//! * [`Simulation`] + [`RoundProcess`] — a driver that owns one protocol
//!   state machine per process and advances them in lockstep rounds, its
//!   round the network's (round 0 opens without a handover);
//! * [`CrashPlan`] — failure injection: crash chosen processes at chosen
//!   rounds, or a random fraction of the group;
//! * [`LifecyclePlan`] — the membership lifecycle: processes that start
//!   outside the group, join mid-run, or leave gracefully, with every
//!   transition reported to a [`Simulation::with_lifecycle_observer`]
//!   callback as a [`LifecycleTransition`];
//! * [`FaultPlan`] — adversarial structured faults layered on the paper's
//!   uniform `ε`/`τ` model: per-link extra latency ([`LinkDelay`]), healing
//!   partitions ([`PartitionWindow`]), correlated per-range loss
//!   ([`LossOverride`]) and slow-node stragglers ([`Straggler`]), every
//!   axis decided inside [`RoundNetwork::send`] and at the round boundary;
//! * [`TrafficStats`] — messages sent / delivered / lost / suppressed /
//!   partitioned / delayed, used by the evaluation to compare pmcast against
//!   flooding baselines.
//!
//! Determinism: all randomness flows from a single [`rand_chacha`] PRNG
//! seeded by the caller, so any run can be replayed bit-for-bit.
//!
//! Performance: the round loop is allocation-free at steady state.
//! [`Simulation::step`] sends straight into the network, whose buffer
//! [`RoundNetwork::deliver_round_into`] hands over as the inbox and takes
//! back drained (a straggler backlog keeps its own capacity),
//! scheduled crashes drain through a `VecDeque` cursor, and the fanout
//! draw's index buffers ([`FanoutScratch`]) are owned by the simulation
//! next to the inbox and lent in place to the process being driven
//! through [`RoundContext::scratch`], beside the [`RoundIo`] whose
//! [`choose_indices_into`](RoundIo::choose_indices_into) fills them without
//! allocating — a process keeps no draw buffer of its own and moves none
//! (messages themselves should be
//! small plain values — `pmcast-core`'s name their event by id and leave
//! the content in the group's store — so a per-target send copies bytes and
//! writes no reference count).  The context also carries the buffer
//! [`RoundIo::report_delivery`] appends to, so what a step delivered
//! is read off [`Simulation::last_step_deliveries`] in O(deliveries)
//! instead of polled out of the processes.
//!
//! ## Example
//!
//! ```rust
//! use pmcast_simnet::{NetworkConfig, ProcessId, RoundContext, RoundProcess, Simulation};
//!
//! /// Every process forwards the token to the next one once.
//! struct Relay { next: ProcessId, has_token: bool }
//!
//! impl RoundProcess for Relay {
//!     type Message = ();
//!     fn on_round(&mut self, ctx: &mut RoundContext<'_, ()>) {
//!         if self.has_token {
//!             ctx.send(self.next, ());
//!             self.has_token = false;
//!         }
//!     }
//!     fn on_message(&mut self, _message: (), _ctx: &mut RoundContext<'_, ()>) {
//!         self.has_token = true;
//!     }
//! }
//!
//! let processes: Vec<Relay> = (0..4)
//!     .map(|i| Relay { next: ProcessId((i + 1) % 4), has_token: i == 0 })
//!     .collect();
//! let mut sim = Simulation::new(processes, NetworkConfig::reliable(1));
//! for _ in 0..4 {
//!     sim.step();
//! }
//! assert_eq!(sim.stats().messages_sent, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod engine;
mod fault;
mod network;
mod stats;

pub use config::{CrashPlan, NetworkConfig};
pub use engine::{
    FanoutScratch, LifecycleKind, LifecyclePlan, LifecycleTransition, RoundContext, RoundIo,
    RoundProcess, Simulation, VirtualPool,
};
pub use fault::{FaultPlan, LinkDelay, LossOverride, PartitionWindow, Straggler};
pub use network::{Envelope, ProcessId, RoundNetwork};
pub use stats::TrafficStats;
