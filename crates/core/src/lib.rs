//! # pmcast-core — the Probabilistic Multicast protocol
//!
//! This crate implements the `pmcast` algorithm of *Probabilistic
//! Multicast* (Eugster & Guerraoui, DSN 2002), Figure 3, on top of the
//! substrates of the companion crates:
//!
//! * the tree-structured membership of [`pmcast_membership`],
//! * the content-based subscriptions of [`pmcast_interest`],
//! * the round-based simulated network of [`pmcast_simnet`],
//! * the round estimation (Pittel's asymptote) of [`pmcast_analysis`].
//!
//! ## How pmcast disseminates an event
//!
//! Unlike gossip *broadcast* algorithms (pbcast, lpbcast, …), which flood
//! every process and filter on delivery, `pmcast` gossips the event itself
//! **depth-wise down the membership tree**: the event is first gossiped
//! among the delegates forming the root (depth 1), then — once the
//! Pittel-bounded round budget of that depth expires — it is handed to the
//! next depth, and so on until the leaf subgroups.  At every depth a process
//! only forwards the event to view entries whose (regrouped) interests match
//! it, so uninterested subtrees are never infected, while the redundancy of
//! `R` delegates per subgroup keeps the dissemination reliable.
//!
//! The crate also contains the two baseline protocols the paper compares
//! against conceptually: flooding gossip broadcast with filtering on
//! delivery, and a "genuine multicast" that gossips only among interested
//! processes.
//!
//! ## Example
//!
//! ```rust
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use std::sync::Arc;
//! use pmcast_addr::AddressSpace;
//! use pmcast_core::{MulticastReport, PmcastConfig, PmcastFactory, ProtocolFactory};
//! use pmcast_interest::Event;
//! use pmcast_membership::{
//!     AssignmentOracle, GlobalOracleView, ImplicitRegularTree, TreeTopology,
//! };
//! use pmcast_simnet::{NetworkConfig, Simulation};
//! use rand::SeedableRng;
//!
//! // A small regular tree: 4^2 = 16 processes.
//! let topology = ImplicitRegularTree::new(AddressSpace::regular(2, 4)?);
//! let event = Event::builder(1).int("b", 7).build();
//! // Half the processes are interested.
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let oracle = Arc::new(AssignmentOracle::sample(&topology, 0.5, &mut rng));
//! // Membership knowledge is a provider too: swap `GlobalOracleView` for a
//! // `PartialView` and fanout candidates come from gossip discovery.
//! let membership = Arc::new(GlobalOracleView::new(topology.member_count()));
//!
//! // Every protocol is built the same way, through its `ProtocolFactory`:
//! // swap `PmcastFactory` for `FloodFactory` or `GenuineFactory` and the
//! // rest of this example stays identical.
//! let config = PmcastConfig::default();
//! let group = PmcastFactory::build(&topology, oracle.clone(), membership, &config);
//! let mut sim = Simulation::new(group.processes, NetworkConfig::reliable(7));
//! // Process 0 multicasts the event.
//! sim.process_mut(pmcast_simnet::ProcessId(0)).pmcast(event.clone());
//! sim.run_until_quiescent(200);
//!
//! let report = MulticastReport::collect(&event, sim.processes(), oracle.as_ref());
//! assert!(report.delivery_ratio() > 0.8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod baseline;
mod buffer;
mod config;
mod message;
mod multicast;
mod protocol;
mod report;
mod store;
mod views;

pub use baseline::{FloodBroadcastProcess, GenuineMulticastProcess};
pub use buffer::{BufferedGossip, GossipBuffers};
pub use config::{InterestRouting, PmcastConfig, TuningConfig};
pub use message::Gossip;
pub use multicast::{
    FloodFactory, GenuineFactory, MulticastProtocol, PmcastFactory, ProtocolFactory, ProtocolGroup,
};
pub use protocol::PmcastProcess;
pub use report::{DeliveryOutcome, MulticastReport};
pub use views::{DepthView, GossipTarget, SharedViews, ViewStack};
