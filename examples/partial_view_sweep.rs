//! Reliability vs. membership knowledge: what each *shape* of partial
//! knowledge costs each protocol.
//!
//! Two bounded membership providers are swept against the global-knowledge
//! baseline:
//!
//! * **Flat** — an lpbcast-style [`pmcast::PartialView`] bounded to `ℓ`
//!   uniformly mixed peers (the `MembershipSpec::partial` axis).  Flooding
//!   (which *is* gossip over the view) barely notices, the genuine baseline
//!   loses the audience members it does not know — and pmcast collapses,
//!   because its tree delegates are rarely inside a small random sample.
//! * **Delegate** — the paper's own Section 2 view-table maintenance
//!   ([`pmcast::DelegateView`], the `MembershipSpec::delegate` axis): views
//!   of comparable bounded size, but structured by the tree coordinates so
//!   the per-depth delegate slots contain exactly the processes pmcast
//!   gossips through.  Same bound, no collapse — the hierarchy, not the
//!   amount of knowledge, is what pmcast needs.
//!
//! The pmcast column carries the provider-aware analytical prediction
//! (`pmcast_sim::prediction`) next to the simulated value; `--check-model
//! <tol>` exits nonzero when an in-domain row drifts beyond the tolerance
//! (flat rows are gated only at paper scale, at twice the base tolerance —
//! see `ARCHITECTURE.md` invariant 9).
//!
//! Declaration: `pmcast::sim::experiments::sweeps::partial_views`; flags, emitters
//! (`--out DIR` adds a CSV) and model gate: `pmcast::sim::sweep`.
//!
//! ```text
//! cargo run --release --example partial_view_sweep            # quick, n = 216
//! cargo run --release --example partial_view_sweep -- --paper # n = 10 648
//! cargo run --release --example partial_view_sweep -- --json  # machine-readable lines
//! cargo run --release --example partial_view_sweep -- --check-model 0.08
//! ```

fn main() -> std::process::ExitCode {
    pmcast::sim::sweep::main(Some("partial_view_sweep"))
}
