//! Graceful degradation under **adversarial network faults**: what each
//! fault family costs pmcast's reliability and latency-to-deliver, per
//! membership provider.
//!
//! The paper's analysis (Section 4.1) assumes uniform message loss `ε` and
//! an independent crash fraction `τ`.  This sweep keeps that baseline and
//! layers the structured fault axes of the scenario builder on top, one
//! family per row:
//!
//! * **baseline** — the paper's `ε`/`τ` model only;
//! * **delay** — jittered per-link extra latency (0–2 rounds per link);
//! * **partition** — the group splits in two cells for rounds 0–5 and heals
//!   at round 6, with the event published *into* the partition (round 0);
//! * **partition-heal** — same outage, but the event is published at round
//!   8, *after* the heal: measures whether the membership providers
//!   recovered from the outage;
//! * **subtree-loss** — one top-level subtree suffers heavy extra
//!   correlated loss (composing with the global `ε`);
//! * **straggler** — the sends of ~1% of the processes reach the network
//!   only every 3rd round;
//! * **combined** — delay + healing partition + stragglers at once.
//!
//! Every row reports, per provider (global oracle, hierarchical delegate
//! tables, same-size flat views): the mean delivery ratio, the mean
//! delivery latency in rounds, and the 99th-percentile latency — the
//! latency histograms come from the trial loop's per-event
//! [`pmcast::DeliveryLatency`] tracking (the `--json` rows carry them whole).
//!
//! Declaration: `pmcast::sim::experiments::sweeps::adversarial`; flags, emitters
//! (`--out DIR` adds a CSV) and model gate: `pmcast::sim::sweep`.
//!
//! ```text
//! cargo run --release --example adversarial_sweep              # quick, n = 216
//! cargo run --release --example adversarial_sweep -- --quick   # same, explicit
//! cargo run --release --example adversarial_sweep -- --paper   # n = 10 648
//! cargo run --release --example adversarial_sweep -- --json    # machine-readable lines
//! cargo run --release --example adversarial_sweep -- --check-model 0.08
//! ```
//!
//! Each provider cell also carries the analytical prediction
//! (`pmcast_sim::prediction`); fault-axis rows are outside the model's
//! domain ('-') and only the baseline rows are gated by `--check-model`.
//!
//! In the `--paper --json` output the `partition-heal` row is the PR 6
//! acceptance bar (delegate-view post-heal reliability within 0.05 of the
//! global oracle at n = 10 648).

fn main() -> std::process::ExitCode {
    pmcast::sim::sweep::main(Some("adversarial_sweep"))
}
