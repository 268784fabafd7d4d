//! A miniature Figure 4: sweep the fraction of interested processes and
//! print, for every matching rate, the simulated delivery probability next
//! to the analytical prediction of Section 4.
//!
//! The `predicted` column is the scenario-level closed loop
//! (`pmcast_sim::prediction::predict` over the same experiment point);
//! `--check-model <tol>` exits nonzero when any rate drifts beyond the
//! tolerance.
//!
//! This is `figures fig4`'s declaration (`…::experiments::figures::reliability`);
//! flags, emitters (`--out DIR` adds a CSV) and gate: `pmcast::sim::sweep`.
//!
//! ```text
//! cargo run --release --example reliability_sweep          # quick (n = 216)
//! cargo run --release --example reliability_sweep -- --paper # n = 10 648, slower
//! cargo run --release --example reliability_sweep -- --json
//! cargo run --release --example reliability_sweep -- --check-model 0.08
//! ```

fn main() -> std::process::ExitCode {
    pmcast::sim::sweep::main(Some("reliability_sweep"))
}
