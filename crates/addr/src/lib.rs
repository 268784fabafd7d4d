//! # pmcast-addr — hierarchical addresses, prefixes and address spaces
//!
//! This crate implements the membership *address model* of
//! *Probabilistic Multicast* (Eugster & Guerraoui, DSN 2002), Section 2.2.
//!
//! Every process is identified by an address of the form
//! `x(1).x(2).⋯.x(d)` where each component satisfies `0 ≤ x(i) ≤ aᵢ − 1`.
//! A *prefix* `x(1).⋯.x(i−1)` of depth `i` denotes a subgroup (e.g. a
//! subnetwork); the *distance* between two processes is inverse proportional
//! to the length of their longest common prefix.  These notions drive both
//! delegate election and the depth-wise dissemination of events in `pmcast`.
//!
//! The concrete address assignment can mirror real network addresses (IP,
//! inverted DNS) or be purely logical; the paper explicitly allows either.
//!
//! ## Example
//!
//! ```rust
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use pmcast_addr::{Address, AddressSpace, Prefix};
//!
//! // A regular tree of depth 3 with 22 subgroups per level: n = 22^3 = 10 648.
//! let space = AddressSpace::regular(3, 22)?;
//! assert_eq!(space.capacity(), 10_648);
//!
//! let a: Address = "3.17.5".parse()?;
//! let b: Address = "3.2.11".parse()?;
//! space.validate(&a)?;
//! space.validate(&b)?;
//!
//! // a and b share the depth-2 prefix "3".
//! assert_eq!(a.prefix_of_depth(2), Prefix::from_components(vec![3]));
//! assert!(b.has_prefix(&a.prefix_of_depth(2)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod address;
mod components;
mod error;
mod prefix;
mod space;

pub use address::Address;
pub use error::AddrError;
pub use prefix::Prefix;
pub use space::{AddressSpace, AddressSpaceIter};

/// A single component of an address (`x(i)` in the paper).
///
/// Components are small non-negative integers bounded by the per-level arity
/// `aᵢ` of the [`AddressSpace`].
pub type Component = u32;

/// Depth of a tree level, 1-based as in the paper (`1 ≤ i ≤ d`).
///
/// Depth 1 is the *root* level of the compound tree; depth `d` is the leaf
/// level where individual processes live.
pub type Depth = usize;
