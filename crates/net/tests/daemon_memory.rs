//! Long-running daemon memory bound: with `retire_quiescent` enabled, a
//! process's dedup state stays proportional to the [`Seen`] ring capacity
//! under sustained traffic, instead of growing with the lifetime event
//! count — and retiring never un-delivers an event (retired ids still
//! count as seen and delivered).

use std::sync::Arc;
use std::time::Duration;

use pmcast_addr::AddressSpace;
use pmcast_core::{
    FloodFactory, MulticastProtocol, PmcastConfig, ProtocolFactory, ProtocolGroup,
};
use pmcast_interest::Event;
use pmcast_membership::{
    AssignmentOracle, GlobalOracleView, ImplicitRegularTree, MembershipView, TreeTopology,
};
use pmcast_net::{NetConfig, NetGroup};
use smol::{LocalExecutor, Timer};

const GROUP: usize = 8;
const EVENTS: u64 = 300;
const RING: usize = 64;

fn flood_group() -> (
    ProtocolGroup<<FloodFactory as ProtocolFactory>::Process>,
    Arc<dyn MembershipView>,
) {
    let topology = ImplicitRegularTree::new(AddressSpace::regular(1, GROUP as u32).unwrap());
    let oracle = Arc::new(AssignmentOracle::new(topology.space().clone(), topology.members()));
    let membership: Arc<dyn MembershipView> = Arc::new(GlobalOracleView::new(GROUP));
    let group = FloodFactory::build(
        &topology,
        oracle,
        Arc::clone(&membership),
        &PmcastConfig::default(),
    );
    (group, membership)
}

fn event(id: u64) -> Arc<Event> {
    Arc::new(Event::builder(id).int("b", 1).build())
}

/// Publishes `EVENTS` ascending-id events through a loss-free flood group
/// and returns each process's final dedup-state size.
fn daemon_run(retire: bool) -> Vec<usize> {
    let (group, membership) = flood_group();
    let config = NetConfig::default()
        .with_seen_capacity(RING)
        .with_retire_quiescent(retire)
        .with_seed(41);
    let executor = LocalExecutor::deterministic(41);
    let net = NetGroup::spawn(&executor, group.processes, membership, &config);
    let handle = net.handle().clone();
    let reports = executor.run(async move {
        for id in 0..EVENTS {
            handle
                .publish((id % GROUP as u64) as usize, event(10_000 + id))
                .await
                .expect("live processes accept publishes");
            // Let each burst disseminate: sustained traffic, not one big
            // backlogged spike (the daemon shape under test).
            if id % 25 == 24 {
                while !handle.is_quiescent() {
                    Timer::after(Duration::from_millis(5)).await;
                }
            }
        }
        while !handle.is_quiescent() {
            Timer::after(Duration::from_millis(5)).await;
        }
        net.shutdown().await
    });
    assert_eq!(reports.len(), GROUP);
    for report in &reports {
        // Retired or not, delivery history is never lost: the floor
        // contract says ids below it still count as delivered.
        assert!(
            report.state.has_delivered(event(10_000).id()),
            "the first event of the stream stays delivered"
        );
        assert!(report.state.has_delivered(event(10_000 + EVENTS - 1).id()));
    }
    reports.iter().map(|report| report.state.dedup_len()).collect()
}

#[test]
fn retire_quiescent_bounds_daemon_dedup_memory() {
    let unbounded = daemon_run(false);
    let bounded = daemon_run(true);
    for (process, len) in unbounded.iter().enumerate() {
        assert!(
            *len >= EVENTS as usize,
            "process {process}: without retirement the dedup state tracks every \
             lifetime event ({len} < {EVENTS})"
        );
    }
    for (process, len) in bounded.iter().enumerate() {
        // The floor is the minimum of the last RING distinct ids the ring
        // admitted; delivered + received each keep at most ~RING ids above
        // it (plus the handful still in flight at the final tick).
        assert!(
            *len <= 4 * RING,
            "process {process}: retired dedup state must stay proportional to \
             the ring capacity, got {len}"
        );
    }
}
