//! Heavy multi-topic traffic: throughput, spurious-delivery ratio and
//! hashcons effectiveness under a production-style pub/sub workload.
//!
//! The paper's Fig. 5 story — per-depth interest filtering keeps spurious
//! deliveries low without sacrificing reliability — is exercised here at
//! traffic volume instead of a single matching rate: `n` processes
//! subscribe to a few of many overlapping topics and thousands of events
//! are published over a Zipf-skewed topic mix, spread over enough rounds
//! that hundreds are concurrently in flight.  Three pmcast arms differ
//! only in how the fanout draw treats interest:
//!
//! * **oracle** — the historical arm: draw, then consult the global
//!   oracle per target (unrealistic knowledge, the paper's comparison
//!   point);
//! * **summary** — aggregated interest routing: the delegate hierarchy's
//!   per-subtree summaries veto provably-uninterested subtrees *before*
//!   the draw;
//! * **blind** — no interest filtering at all (the control arm:
//!   aggregation off).
//!
//! The report shows events/sec (wall-clock, full dissemination to
//! quiescence), delivered reliability, the spurious-delivery ratio and
//! the message count per arm — summary must match blind's reliability
//! (the skip is an over-approximation, it never cuts a subscriber) while
//! cutting spurious traffic toward the oracle arm's level.  A genuine-
//! multicast run over the same schedule reports the audience hashcons
//! counters: registering the whole event stream builds one audience
//! allocation per **distinct** audience, not per event.
//!
//! Declared in `pmcast::sim::experiments::sweeps::topics`, run through
//! `pmcast::sim::sweep`.  Multi-topic traffic is outside the single-audience
//! model: there is no model column, and `--check-model` is a usage error.
//!
//! ```text
//! cargo run --release --example topic_sweep             # quick: 12 topics, 300 events (CI smoke)
//! cargo run --release --example topic_sweep -- --paper  # 50 topics, 10k events (CI too)
//! cargo run --release --example topic_sweep -- --json   # machine-readable
//! ```

fn main() -> std::process::ExitCode {
    pmcast::sim::sweep::main(Some("topic_sweep"))
}
