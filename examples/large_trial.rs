//! One pmcast trial of a large regular tree, measured: its seconds and the
//! process's peak resident set (`VmHWM` from `/proc/self/status`; 0 where
//! unavailable).
//!
//! The ten-million-process row: one global trial of the 56⁴
//! (9 834 496-process) tree at matching rate 0.5, seed 42, on one thread,
//! from group construction to the report.  A process's state is its slot and its share
//! of the round buffer — a full tree keeps no address per process and no
//! list of them — so the peak follows the slot size.
//!
//! ```text
//! cargo run --release --example large_trial    # ≈ 1.3 GiB, ≈ 15 s
//! ```

use std::time::Instant;

use pmcast::sim::runner::run_scenario_trial_with;
use pmcast::{Protocol, Scenario};

/// The process's peak resident set in MiB, 0 where it is not reported.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let peak = status.lines().find(|line| line.starts_with("VmHWM:"));
    let kb = peak.and_then(|line| line.split_whitespace().nth(1)?.parse::<f64>().ok());
    kb.map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let scenario = Scenario::builder()
        .group(56, 4)
        .matching_rate(0.5)
        .trials(1)
        .seed(42)
        .build();
    let started = Instant::now();
    let outcome = run_scenario_trial_with(&scenario, Protocol::Pmcast, 0);
    let seconds = started.elapsed().as_secs_f64();
    println!(
        "56^4 = {} processes: {seconds:.1} s/trial, VmHWM {:.1} MiB, {} messages, \
         delivery {:.4}",
        scenario.group_size(),
        peak_rss_mib(),
        outcome.messages_sent,
        outcome.report.delivery_ratio()
    );
}
