//! Scalability: seconds per trial from n = 512 to n ≈ 1.05 **million** —
//! the figure the paper could not draw (its evaluation tops out at
//! n = 22³ = 10 648).
//!
//! Every row runs one-publication pmcast trials (matching rate 0.5, 1%
//! loss, publisher drawn from the interested set) at a given group size
//! and membership provider, and reports
//!
//! * **s/trial** — wall-clock seconds per trial, single-core (build +
//!   dissemination to quiescence), and
//! * **peakMB** — the process's peak resident set so far (`VmHWM` from
//!   `/proc/self/status`; 0 where unavailable).  Rows run in increasing
//!   size order, so each row's value bounds that row's working set.
//!
//! The million-process row exists because of the active-set simulation
//! core: a round costs O(gossiping processes), not O(n), and quiescence
//! detection is O(1), so the dissemination cost tracks the message count
//! the analysis predicts instead of the group size.  The delegate column
//! reaches that row too: a static group stores no per-process view table
//! (O(n·a·d) entries, were they built) — every probe is the O(1) seat rule
//! over a prefix count of the occupancy (`crates/membership/src/delegate.rs`,
//! "Rows are built on first need").
//!
//! Declaration: `pmcast::sim::experiments::sweeps::scale`; flags, emitters
//! (`--out DIR` adds a CSV) and model gate: `pmcast::sim::sweep`.
//!
//! ```text
//! cargo run --release --example scale_sweep             # quick: 512 only (CI smoke)
//! cargo run --release --example scale_sweep -- --quick  # same, explicit
//! cargo run --release --example scale_sweep -- --paper  # 512, 10 648 and n = 32⁴ ≈ 1.05M
//! cargo run --release --example scale_sweep -- --json   # machine-readable lines
//! cargo run --release --example scale_sweep -- --check-model 0.05
//! ```
//!
//! Every row also carries the analytical prediction
//! (`pmcast_sim::prediction`) — including the million-process row, where
//! the model costs microseconds while the trial costs seconds — and
//! `--check-model <tol>` exits nonzero when a row drifts beyond the
//! tolerance.

fn main() -> std::process::ExitCode {
    pmcast::sim::sweep::main(Some("scale_sweep"))
}
