//! Event-driven async runtime for pmcast: long-running broker tasks,
//! timers and transports, conformance-tested against the
//! round-synchronous simulator.
//!
//! The `pmcast-sim` simulator drives every process in lock-step rounds —
//! perfect for reproducing the paper's analysis, but nothing like a
//! deployment, where each process gossips on its own timer and reacts to
//! frames as they arrive.  This crate is that second execution mode:
//!
//! - [`NetGroup::spawn`] turns any `ProtocolFactory`-built group into
//!   per-process tasks on a single-threaded executor (the vendored `smol`
//!   shim).  A ticker task per process fires its gossip period at a
//!   private phase offset; inbound gossip dispatches through the same
//!   `MembershipView` providers the simulator uses, and a frame whose
//!   event the protocol has already received is dropped by the protocol's
//!   own id set — the runtime keeps no second dedup.
//! - An in-process channel transport is the backend: bounded per-process
//!   mailboxes, **backpressure for publishers** (they await capacity) and
//!   **drop-with-counter for gossip frames** (best-effort, like the
//!   network); [`TransportStats`] counts what it did.  A UDP backend is a
//!   documented follow-up (see ROADMAP.md).
//! - [`NetGroupHandle`] is the control plane: publish, crash a process
//!   mid-stream, probe quiescence, then [`NetGroup::shutdown`] for the
//!   final states.  Crash and quiescence flags live once, in the
//!   transport's per-process table, where the tasks read them too.
//!
//! # The simulator stays the oracle
//!
//! The invariant this crate lives under: **the round-synchronous
//! simulator is the oracle; the async runtime must conformance-test
//! against it.**  [`run_net_scenario_trial`] replays a `pmcast-sim`
//! scenario trial — same workload, same interest assignment, same
//! membership provider — through the runtime, and `tests/net_vs_sim.rs`
//! asserts the outcomes agree (bit-identical delivered sets loss-free,
//! delivery rates within tolerance under loss).  The runtime's own random
//! streams are private derivations of the trial seed and consume nothing
//! from the simulator's seed contract.
//!
//! With a seeded executor (`LocalExecutor::deterministic`) the runtime
//! itself is deterministic: task and timer ordering derive from the seed,
//! so the same trial replays bit-identically.
//!
//! # Quickstart
//!
//! Run a scenario through the async runtime and compare with the
//! simulator (the flooding baseline reaches everybody loss-free, so the
//! two engines must agree exactly):
//!
//! ```
//! use pmcast_core::FloodFactory;
//! use pmcast_net::run_net_scenario_trial;
//! use pmcast_sim::runner::run_scenario_trial;
//! use pmcast_sim::scenario::Scenario;
//!
//! let scenario = Scenario::builder().group(3, 2).matching_rate(1.0).build();
//! let sim = run_scenario_trial::<FloodFactory>(&scenario, 0);
//! let net = run_net_scenario_trial::<FloodFactory>(&scenario, 0);
//! assert_eq!(net.report.delivery_ratio(), sim.report.delivery_ratio());
//! assert_eq!(net.report.delivery_ratio(), 1.0);
//! ```
//!
//! Or drive a group by hand — publish, wait for quiescence, shut down:
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! use pmcast_addr::AddressSpace;
//! use pmcast_core::{FloodFactory, PmcastConfig, ProtocolFactory};
//! use pmcast_interest::Event;
//! use pmcast_membership::{
//!     AssignmentOracle, GlobalOracleView, ImplicitRegularTree, TreeTopology,
//! };
//! use pmcast_net::{NetConfig, NetGroup};
//! use smol::{LocalExecutor, Timer};
//!
//! let topology = ImplicitRegularTree::new(AddressSpace::regular(1, 8).unwrap());
//! let oracle = Arc::new(AssignmentOracle::new(topology.space().clone(), topology.members()));
//! let membership = Arc::new(GlobalOracleView::new(8));
//! let group = FloodFactory::build(&topology, oracle, membership.clone(), &PmcastConfig::default());
//!
//! let executor = LocalExecutor::deterministic(42);
//! let net = NetGroup::spawn(&executor, group.processes, membership, &NetConfig::default());
//! let handle = net.handle().clone();
//! let reports = executor.run(async move {
//!     let event = Arc::new(Event::builder(1).int("px", 10).build());
//!     handle.publish(0, event).await.unwrap();
//!     while !handle.is_quiescent() {
//!         Timer::after(Duration::from_millis(10)).await;
//!     }
//!     net.shutdown().await
//! });
//! assert!(reports.iter().all(|report| !report.crashed));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod conformance;
mod group;
mod process;
mod transport;

pub use conformance::{assert_supported, run_net_scenario_trial, NetTrialOutcome};
pub use group::{NetConfig, NetGroup, NetGroupHandle, PublishError};
pub use process::{NetProcessReport, NetProcessStats};
pub use transport::TransportStats;
