//! Reliability vs. **graceful-leave churn**: what a dynamic population
//! costs each membership provider.
//!
//! Every scenario publishes one event at round 0 and then unsubscribes a
//! growing fraction of the group (`leave_at`, spread over rounds 2–6 —
//! graceful leaves, not crashes: providers are told, and the eager ones
//! evict the leavers immediately).  The same pmcast workload runs over the
//! three membership providers:
//!
//! * **global** — the omniscient static directory ([`pmcast::GlobalOracleView`]);
//!   churn only hurts through the network (messages to departed processes
//!   are dropped).
//! * **delegate** — the paper's Section 2 hierarchical view tables
//!   ([`pmcast::DelegateView`]): bounded, and *maintained* — leavers are
//!   evicted from the per-depth slot groups with deterministic
//!   re-election, so the view tracks the shrinking population.
//! * **flat** — an lpbcast-style bounded random view
//!   ([`pmcast::PartialView`]) of the same size as the delegate tables.
//!
//! A final *flash crowd* row grows the group instead: 10% of the addresses
//! start absent and join at rounds 2–6 (the sparse-bootstrap + mid-trial
//! activation path), with the event published after the crowd has arrived.
//!
//! Every provider column carries the analytical prediction of the
//! churn-aware model (`pmcast_sim::prediction`) next to the simulated
//! value; `--check-model <tol>` exits nonzero when an in-domain row drifts
//! beyond the tolerance (flat rows are gated only at paper scale — see
//! `ARCHITECTURE.md` invariant 9).
//!
//! Declaration: `pmcast::sim::experiments::sweeps::churn`; flags, emitters
//! (`--out DIR` adds a CSV) and model gate: `pmcast::sim::sweep`.
//!
//! ```text
//! cargo run --release --example churn_sweep            # quick, n = 216
//! cargo run --release --example churn_sweep -- --paper # n = 10 648
//! cargo run --release --example churn_sweep -- --json  # machine-readable lines
//! cargo run --release --example churn_sweep -- --check-model 0.08
//! ```

fn main() -> std::process::ExitCode {
    pmcast::sim::sweep::main(Some("churn_sweep"))
}
