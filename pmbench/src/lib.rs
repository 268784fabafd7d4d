//! `pmbench`: the repository's one benchmark.
//!
//! Eight named workloads ([`workloads`]) over the round-synchronous
//! simulator ([`sim`]) and the `pmcast-net` daemon ([`ticker`]); six
//! end-to-end metrics from an untraced run and the per-layer metrics from
//! a traced run ([`metrics`], [`run`]); spans around every call into a
//! layer ([`trace`]); one record per run in one schema ([`record`]); and
//! `pmbench compare` over two sets of records ([`compare`]).  See
//! `README.md` beside this crate for the glossary and the interaction
//! map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod host;
pub mod kernels;
pub mod metrics;
pub mod record;
pub mod run;
pub mod sim;
pub mod ticker;
pub mod trace;
pub mod workloads;
