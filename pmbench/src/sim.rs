//! The simulator workloads: one Monte-Carlo trial per operation.
//!
//! The untraced run calls the entry point users call
//! ([`run_scenario_trial_with`]).  The traced run re-composes the same
//! trial from the layers' public functions — exactly the way
//! `pmcast_net::conformance::run_net_scenario_trial` already does — with a
//! span around each call, and must produce a bit-identical
//! [`TrialOutcome`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use pmcast_core::{MulticastReport, PmcastFactory, ProtocolFactory};
use pmcast_interest::{Event, EventId};
use pmcast_membership::TreeTopology;
use pmcast_sim::runner::{
    run_scenario_trial_with, trial_workload, DeliveryLatency, Protocol, TrialOutcome, TrialWorkload,
};
use pmcast_sim::scenario::Scenario;
use pmcast_simnet::{
    CrashPlan, LifecycleKind, LifecyclePlan, NetworkConfig, ProcessId, Simulation, TrafficStats,
};

use crate::trace::Tracer;

/// Counters the composed trial reads where the work happens; the untraced
/// entry point only returns `messages_sent`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrialCounts {
    /// The engine's traffic counters at the end of the trial.
    pub traffic: TrafficStats,
    /// Audience sets the topic oracle built (0 without a topic workload).
    pub audiences_built: u64,
    /// Audience requests answered from the hashcons table.
    pub audience_hits: u64,
}

/// The composed loop passes [`CrashPlan::None`] (`runner::crash_plan` is
/// private), so a workload must not carry a crash axis.
pub fn assert_no_crash_axis(scenario: &Scenario) {
    assert!(
        scenario.crash_fraction == 0.0 && scenario.crash_schedule.is_empty(),
        "benchmark workloads carry no crash axis: the composed trial cannot reproduce it"
    );
}

/// One trial through the public entry point; `None` if it panicked.
pub fn untraced_trial(scenario: &Scenario, trial: usize) -> Option<TrialOutcome> {
    catch_unwind(AssertUnwindSafe(|| {
        run_scenario_trial_with(scenario, Protocol::Pmcast, trial)
    }))
    .ok()
}

/// A trial failed if it ran into the round cap instead of going quiescent.
pub fn reached_quiescence(scenario: &Scenario, outcome: &TrialOutcome) -> bool {
    outcome.rounds < scenario.max_rounds
}

/// The same trial composed from the layers' public calls, one span per
/// call, all children of a `sim.trial` span.
pub fn traced_trial(
    scenario: &Scenario,
    trial: usize,
    tracer: &mut Tracer,
) -> (TrialOutcome, TrialCounts) {
    let id = trial as u64;
    let root = tracer.enter("sim.trial", id);

    let workload = tracer.span("sim.workload", id, || trial_workload(scenario, trial));
    let membership = tracer.span("membership.instantiate", id, || {
        workload.membership(scenario)
    });
    let TrialWorkload {
        seed,
        topology,
        oracle,
        topic_oracle,
        schedule,
        population,
        occupied_at_start: _,
    } = workload;
    let network = NetworkConfig {
        loss_probability: scenario.loss_probability,
        crash_plan: CrashPlan::None,
        fault_plan: scenario.fault_plan(),
        seed,
    };
    let mut injection_order: Vec<usize> = (0..schedule.len()).collect();
    injection_order.sort_by_key(|&index| schedule[index].0);

    // The runner's delivery-latency trackers, one per distinct event id in
    // first-publication order.
    struct LatencyTracker {
        event: EventId,
        publish_round: u64,
        recorded: Vec<bool>,
        counts: Vec<u64>,
    }
    let process_count = topology.member_count();
    let mut trackers: Vec<LatencyTracker> = Vec::with_capacity(schedule.len());
    for (round, _, event) in &schedule {
        match trackers.iter_mut().find(|t| t.event == event.id()) {
            Some(tracker) => tracker.publish_round = tracker.publish_round.min(*round),
            None => trackers.push(LatencyTracker {
                event: event.id(),
                publish_round: *round,
                recorded: vec![false; process_count],
                counts: Vec::new(),
            }),
        }
    }

    let group = tracer.span("core.build", id, || {
        PmcastFactory::build(
            &topology,
            oracle.clone(),
            Arc::clone(&membership),
            &scenario.protocol,
        )
    });
    let lifecycle = LifecyclePlan {
        initially_absent: population.initially_absent().to_vec(),
        joins: scenario.join_schedule.clone(),
        leaves: scenario.leave_schedule.clone(),
    };
    let observer_view = Arc::clone(&membership);
    let mut sim = tracer.span("simnet.new", id, || {
        Simulation::with_lifecycle_observer(group.processes, network, lifecycle, move |t| {
            match t.kind {
                LifecycleKind::Join => observer_view.observe_join(t.process.0),
                LifecycleKind::Leave => observer_view.observe_leave(t.process.0),
                LifecycleKind::Crash => observer_view.observe_crash(t.process.0),
            }
        })
    });

    let mut injected = 0;
    let mut rounds = 0;
    let mut delivery_candidates: Vec<usize> = Vec::new();
    while rounds < scenario.max_rounds {
        delivery_candidates.clear();
        let publish = tracer.enter("core.publish", id);
        while injected < injection_order.len() {
            let (round, sender, event) = &schedule[injection_order[injected]];
            if *round > sim.round() {
                break;
            }
            sim.process_mut(ProcessId(*sender))
                .publish(Arc::clone(event));
            delivery_candidates.push(*sender);
            injected += 1;
        }
        tracer.exit(publish);
        tracer.span("membership.round", id, || membership.round_elapsed());
        tracer.span("simnet.step", id, || sim.step());
        rounds += 1;

        let scan = tracer.enter("sim.scan", id);
        let executed = rounds - 1;
        delivery_candidates.extend_from_slice(sim.last_step_receivers());
        for tracker in &mut trackers {
            if tracker.publish_round > executed {
                continue;
            }
            let latency = (executed - tracker.publish_round) as usize;
            for &index in &delivery_candidates {
                if !tracker.recorded[index]
                    && sim.process(ProcessId(index)).has_delivered(tracker.event)
                {
                    tracker.recorded[index] = true;
                    if tracker.counts.len() <= latency {
                        tracker.counts.resize(latency + 1, 0);
                    }
                    tracker.counts[latency] += 1;
                }
            }
        }
        tracer.exit(scan);
        if injected == injection_order.len() && sim.pending_lifecycle() == 0 && sim.is_quiescent() {
            break;
        }
    }
    assert!(
        injected == injection_order.len(),
        "publications scheduled beyond max_rounds were never injected"
    );

    let report_span = tracer.enter("core.report", id);
    let mut seen_ids: Vec<EventId> = Vec::with_capacity(schedule.len());
    let mut unique_events: Vec<&Event> = Vec::with_capacity(schedule.len());
    for (_, _, event) in &schedule {
        if !seen_ids.contains(&event.id()) {
            seen_ids.push(event.id());
            unique_events.push(event.as_ref());
        }
    }
    let per_event =
        MulticastReport::collect_per_event(unique_events, sim.processes(), oracle.as_ref());
    let mut report = MulticastReport::default();
    for event_report in &per_event {
        report.merge(event_report);
    }
    tracer.exit(report_span);

    let counts = TrialCounts {
        traffic: *sim.stats(),
        audiences_built: topic_oracle
            .as_ref()
            .map_or(0, |topics| topics.intern_stats().misses),
        audience_hits: topic_oracle
            .as_ref()
            .map_or(0, |topics| topics.intern_stats().hits),
    };
    let latency: Vec<DeliveryLatency> = trackers
        .into_iter()
        .map(|tracker| DeliveryLatency {
            event: tracker.event,
            publish_round: tracker.publish_round,
            counts: tracker.counts,
        })
        .collect();
    let outcome = TrialOutcome {
        report,
        per_event,
        latency,
        messages_sent: counts.traffic.messages_sent,
        rounds,
    };

    // What `run_scenario_trial` frees when it returns, in one span.
    tracer.span("sim.teardown", id, || {
        drop(sim);
        drop(group.addresses);
        drop(membership);
        drop(schedule);
        drop(topic_oracle);
        drop(oracle);
        drop(population);
        drop(topology);
    });
    tracer.exit(root);
    (outcome, counts)
}

/// Wall time of one call, in seconds.
pub fn timed<T>(call: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let result = call();
    (result, started.elapsed().as_secs_f64())
}
