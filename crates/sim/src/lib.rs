//! # pmcast-sim — simulation harness and figure regenerators
//!
//! This crate turns the building blocks of the other `pmcast` crates into
//! the *experiments* of the paper's evaluation (Section 5): it samples
//! workloads, runs Monte-Carlo multicast trials over the simulated network,
//! aggregates the outcomes and regenerates the data behind every figure.
//!
//! * [`scenario`] — the fluent [`scenario::Scenario`] /
//!   [`scenario::ScenarioBuilder`] API describing a trial's workload:
//!   multiple publishers, multiple events, per-round publish schedules,
//!   crash/churn schedules, loss, and the [`scenario::MembershipSpec`]
//!   membership axis (global knowledge, flat lpbcast-style partial views,
//!   or the paper's hierarchical delegate tables), plus the
//!   [`quick`](scenario::Scenario::quick) /
//!   [`paper_reliability`](scenario::Scenario::paper_reliability) /
//!   [`paper_scalability`](scenario::Scenario::paper_scalability) presets
//!   the figure sweeps start from.
//! * [`runner`] — run one or many multicast trials for a given scenario,
//!   optionally in parallel.  One generic simulation
//!   loop serves every protocol through
//!   [`pmcast_core::MulticastProtocol`] / [`pmcast_core::ProtocolFactory`];
//!   the [`runner::Protocol`] enum is a thin factory dispatch.
//! * [`workload`] — interest-assignment generators: i.i.d. Bernoulli
//!   (the paper's analysis model) and a content-based stock-ticker
//!   workload exercising real filters.
//! * [`sweep`] — the one way to run and report a sweep: the shared
//!   `--quick` / `--paper` / `--json` / `--check-model` / `--out` flags
//!   (anything else is a usage error), point evaluation into the model
//!   gate, and one table of typed cells written as text, JSON lines or CSV.
//! * [`experiments`] — the sweep declarations, one module each, in one
//!   name table: Figure 4 (delivery reliability, also `reliability_sweep`),
//!   Figure 5 (spurious reception), Figure 6 (scalability), Figure 7
//!   (tuning), view sizes (Eq. 2/12), baseline comparison, round-count
//!   validation, and the partial-view, churn, adversarial, scale and topic
//!   sweeps behind `examples/*_sweep.rs`.
//! * [`prediction`] — the analysis↔simulation closed loop: any scenario's
//!   model prediction and the drift gate.
//!
//! The `figures` binary (`cargo run -p pmcast-sim --bin figures -- all`)
//! regenerates every figure as a text table plus a CSV file under
//! `target/figures/`; `--paper` switches from the quick profile (small
//! group, few trials — used in tests and CI) to the full paper-scale profile
//! (`a = 22`, `d = 3`, `n = 10 648`).
//!
//! ## Performance architecture
//!
//! All experiment sweeps run their Monte-Carlo trials through
//! [`scenario::Scenario::run_parallel`], which fans independent trials out over
//! every available core. Trial `t` derives its entire randomness stream from
//! `seed + t`, so the parallel runner is **bit-identical** to the sequential
//! [`scenario::Scenario::run`] — same `AggregateOutcome`, any thread count, any
//! scheduling — which the test suite asserts. When adding experiments, keep
//! all randomness derived from the per-trial seed (never from state shared
//! between trials) and parallelism remains free and deterministic.
//!
//! ## Example
//!
//! ```rust
//! use pmcast_sim::runner::{AggregateOutcome, Protocol};
//! use pmcast_sim::scenario::Scenario;
//!
//! let scenario = Scenario::quick().matching_rate(0.5).trials(3).build();
//! let outcome = AggregateOutcome::from_trials(&scenario.run(Protocol::Pmcast));
//! assert!(outcome.delivery_mean > 0.5);
//! assert_eq!(outcome.trials, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod prediction;
pub mod runner;
pub mod scenario;
pub mod sweep;
pub mod workload;
