//! Running a `pmcast-sim` [`Scenario`] trial through the async runtime.
//!
//! The round-synchronous simulator is the **oracle**: its seed contract is
//! frozen by golden tests, and this module exists so the runtime can be
//! conformance-tested against it (`tests/net_vs_sim.rs` at the workspace
//! root).  [`run_net_scenario_trial`] resolves the *identical* trial
//! workload the simulator would use — same interest assignment, same
//! publish schedule, same membership provider seed, via
//! [`trial_workload`] — then disseminates it through [`NetGroup`] tasks on
//! a deterministic [`LocalExecutor`] instead of lock-step rounds.
//!
//! What is and is not claimed to agree:
//!
//! - **Loss-free runs**: the delivered event *sets* must match the
//!   simulator's bit for bit (per process).  Gossip fanout draws come from
//!   different RNG streams, so the *paths* differ, but with no loss both
//!   engines must reach exactly the interested processes.
//! - **Lossy runs**: only statistical agreement — the runtime draws its
//!   loss stream from [`NetConfig::with_seed`]-derived state, not the
//!   simulator's network stream, so delivery *rates* must agree within a
//!   tolerance, not outcomes per trial.
//! - **Determinism**: the same `(scenario, trial)` through this function
//!   twice is bit-identical — the executor's task and timer ordering is
//!   seeded from the trial seed.
//!
//! The runtime's random streams (per-process protocol RNGs, phase
//! offsets, transport loss) are *net-private* — all derived from the trial
//! seed `scenario.seed + trial` through the constants documented on
//! [`NetConfig`] — and consume nothing from the simulator's three streams,
//! so golden scenarios stay bit-identical with this crate in the
//! workspace.

use std::sync::Arc;

use pmcast_core::{MulticastReport, ProtocolFactory};
use pmcast_sim::runner::trial_workload;
use pmcast_sim::scenario::Scenario;
use smol::{LocalExecutor, Timer};

use crate::group::{period_mul, NetConfig, NetGroup};
use crate::process::NetProcessReport;
use crate::transport::TransportStats;

/// What one async-runtime trial produces; the runtime-side analogue of
/// the simulator's `TrialOutcome`.
#[derive(Debug)]
pub struct NetTrialOutcome<P> {
    /// Delivery/reception classification over all published events (the
    /// per-event reports merged), computed by the same
    /// [`MulticastReport`] collector the simulator uses.
    pub report: MulticastReport,
    /// One report per *distinct* published event id, in first-publication
    /// schedule order.
    pub per_event: Vec<MulticastReport>,
    /// Final per-process states and runtime counters, in dense identifier
    /// order.
    pub reports: Vec<NetProcessReport<P>>,
    /// Transport counters for the whole run.
    pub transport: TransportStats,
    /// Gossip periods the controller waited before the run went
    /// quiescent.
    pub rounds: u64,
}

/// Panics unless the scenario stays inside what the runtime implements
/// today.
///
/// Three axes are refused — documented follow-ups, not silent
/// approximations: the adversarial fault plan (link delay, partitions,
/// subtree loss, stragglers), join/leave schedules, and `crash_fraction`.
/// `crash_schedule` and topic workloads *are* supported: the runtime
/// crashes the process's task mid-stream, and a topic trial's oracle,
/// schedule and summaries come from the same [`trial_workload`] the
/// simulator uses.
pub fn assert_supported(scenario: &Scenario) {
    assert!(
        scenario.fault_plan().is_neutral(),
        "the async runtime does not implement the adversarial fault axes yet \
         (link delay / partitions / subtree loss / stragglers are simulator-only)"
    );
    assert!(
        scenario.join_schedule.is_empty() && scenario.leave_schedule.is_empty(),
        "the async runtime does not implement join/leave lifecycle schedules yet"
    );
    assert!(
        scenario.crash_fraction == 0.0,
        "the async runtime does not implement crash_fraction yet (use crash_schedule)"
    );
}

/// Runs one trial of `scenario` through the async runtime and reports it
/// with the simulator's own collector, so the two engines' outcomes are
/// directly comparable (see the module docs for what must agree).
///
/// # Panics
///
/// Panics if the scenario uses a simulator-only axis (see
/// [`assert_supported`]'s documentation) or if a publication could not be
/// injected before `scenario.max_rounds`.
pub fn run_net_scenario_trial<F: ProtocolFactory>(
    scenario: &Scenario,
    trial: usize,
) -> NetTrialOutcome<F::Process>
where
    F::Process: 'static,
{
    assert_supported(scenario);
    let workload = trial_workload(scenario, trial);
    let membership = workload.membership(scenario);
    let group = F::build(
        &workload.topology,
        workload.oracle.clone(),
        Arc::clone(&membership),
        &scenario.protocol,
    );
    let config = NetConfig::default()
        .with_loss(scenario.loss_probability)
        .with_seed(workload.seed);
    let period = config.gossip_period;

    // Injection order mirrors the simulator's.
    let schedule = &workload.schedule;
    let injection_order = workload.injection_order();
    let mut crash_schedule = scenario.crash_schedule.clone();
    crash_schedule.sort_by_key(|&(round, _)| round);

    let executor = LocalExecutor::deterministic(workload.seed);
    let net = NetGroup::<F::Process>::spawn(&executor, group.processes, Arc::clone(&membership), &config);
    let handle = net.handle().clone();
    let max_rounds = scenario.max_rounds;

    let controller = handle.clone();
    let total_publications = injection_order.len();
    let (reports, rounds, injected) = executor.run(async move {
        let mut injected = 0;
        let mut crashed = 0;
        let mut rounds = 0;
        // The controller wakes at every period boundary (offset 0 — before
        // the membership ticker at 10% and every process phase at 20%+), so
        // round `r`'s publications and crashes land before any of its
        // gossip, in the simulator's order: publications first, then, once
        // the executor has handled their frames (at 5%), the crashes.  A
        // publisher crashing in its own publish round thus delivers its
        // event and never gossips it, on both engines.
        for round in 0..=max_rounds {
            let boundary = period_mul(period, round);
            Timer::at(boundary).await;
            rounds = round;
            // All frames enqueued before this boundary have been fully
            // processed: the virtual clock only advances when every task
            // is pending, so the quiescence probe cannot race in-flight
            // gossip.
            if injected == injection_order.len()
                && crashed == crash_schedule.len()
                && controller.is_quiescent()
            {
                break;
            }
            if round == max_rounds {
                break;
            }
            while injected < injection_order.len() {
                let (publish_round, sender, event) = &schedule[injection_order[injected]];
                if *publish_round > round {
                    break;
                }
                // A publish to a process that crashed in an earlier round
                // is lost; the simulator still delivers it at the down
                // process (ROADMAP item 3(a)).
                let _ = controller.publish(*sender, Arc::clone(event)).await;
                injected += 1;
            }
            if crashed < crash_schedule.len() && crash_schedule[crashed].0 <= round {
                Timer::at(boundary + period / 20).await;
            }
            while crashed < crash_schedule.len() && crash_schedule[crashed].0 <= round {
                let (_, process) = crash_schedule[crashed];
                controller.crash(process);
                membership.observe_crash(process);
                crashed += 1;
            }
        }
        (net.shutdown().await, rounds, injected)
    });
    assert!(
        injected == total_publications,
        "{} publication(s) scheduled at or beyond max_rounds = {} were never injected",
        total_publications - injected,
        max_rounds
    );

    let (report, per_event) = workload.report(reports.iter().map(|r| &r.state));
    NetTrialOutcome {
        report,
        per_event,
        reports,
        transport: handle.stats(),
        rounds,
    }
}
