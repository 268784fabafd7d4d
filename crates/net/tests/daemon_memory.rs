//! Long-running daemon memory bound: with `retire_quiescent` enabled, a
//! process's dedup state stays proportional to the retire lag
//! (`NetConfig::seen_capacity`, counted in ids) under sustained traffic,
//! instead of growing with the lifetime event count — and retiring never
//! un-delivers an event (retired ids still count as seen and delivered).
//!
//! The soak pushes many lags' worth of events through pmcast and flooding
//! in bursts that come to rest between them, and reconciles every frame:
//! each one sent is either a first receipt or a duplicate, and retirement
//! on or off changes no counter at all — it only frees memory, the group's
//! event store included: with retirement on, the store lets go of every
//! event more than the lag below the last one.

use std::sync::Arc;
use std::time::Duration;

use pmcast_addr::AddressSpace;
use pmcast_core::{
    FloodFactory, MulticastProtocol, PmcastConfig, PmcastFactory, ProtocolFactory, ProtocolGroup,
};
use pmcast_interest::Event;
use pmcast_membership::{
    AssignmentOracle, GlobalOracleView, ImplicitRegularTree, MembershipView, TreeTopology,
};
use pmcast_net::{NetConfig, NetGroup, NetProcessStats, TransportStats};
use smol::{LocalExecutor, Timer};

const GROUP: usize = 8;
const EVENTS: u64 = 300;
const LAG: usize = 64;

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
        .with_seen_capacity(LAG)
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
        // The floor trails the highest id by LAG; delivered + received
        // each keep at most ~LAG ids above it (plus the handful still in
        // flight at the final tick).
        assert!(
            *len <= 4 * LAG,
            "process {process}: retired dedup state must stay proportional to \
             the retire lag, got {len}"
        );
    }
}

/// The soak's shape: 5² brokers, 1 000 events (about 15 lags), bursts of
/// 20 that come to rest before the next.
const SOAK_SIDE: u32 = 5;
const SOAK_EVENTS: u64 = 1_000;
const SOAK_BURST: u64 = 20;

/// What a soak run leaves behind.
struct Soak {
    transport: TransportStats,
    /// The brokers' counters, summed.
    brokers: NetProcessStats,
    /// Each broker's final dedup-state size.
    dedup_lens: Vec<usize>,
    /// Each published event's `Arc::strong_count` at shutdown, while the
    /// group is still alive: the soak's own handle plus the store's, if it
    /// kept the event.
    shares_at_shutdown: Vec<usize>,
}

fn soak<F: ProtocolFactory>(retire: bool) -> Soak
where
    F::Process: 'static,
{
    let topology = ImplicitRegularTree::new(AddressSpace::regular(2, SOAK_SIDE).unwrap());
    let brokers = topology.members().len();
    let oracle = Arc::new(AssignmentOracle::new(topology.space().clone(), topology.members()));
    let membership: Arc<dyn MembershipView> = Arc::new(GlobalOracleView::new(brokers));
    let group = F::build(&topology, oracle, Arc::clone(&membership), &PmcastConfig::default());
    let config = NetConfig::default()
        .with_seen_capacity(LAG)
        .with_retire_quiescent(retire)
        .with_seed(43);
    let executor = LocalExecutor::deterministic(43);
    let net = NetGroup::spawn(&executor, group.processes, membership, &config);
    let handle = net.handle().clone();
    let events: Vec<Arc<Event>> = (0..SOAK_EVENTS).map(|id| event(20_000 + id)).collect();
    let published = &events;
    let (reports, transport) = executor.run(async move {
        for id in 0..SOAK_EVENTS {
            handle
                .publish((id % brokers as u64) as usize, Arc::clone(&published[id as usize]))
                .await
                .expect("live processes accept publishes");
            if id % SOAK_BURST == SOAK_BURST - 1 {
                while !handle.is_quiescent() {
                    Timer::after(Duration::from_millis(5)).await;
                }
            }
        }
        let transport = handle.stats();
        (net.shutdown().await, transport)
    });
    for report in &reports {
        for id in 0..SOAK_EVENTS {
            assert!(report.state.has_delivered(event(20_000 + id).id()));
        }
    }
    let summed = reports.iter().fold(NetProcessStats::default(), |mut total, report| {
        total.ticks += report.stats.ticks;
        total.frames_handled += report.stats.frames_handled;
        total.frames_deduped += report.stats.frames_deduped;
        total.published += report.stats.published;
        total
    });
    let dedup_lens = reports.iter().map(|report| report.state.dedup_len()).collect();
    let shares_at_shutdown = events.iter().map(Arc::strong_count).collect();
    drop(reports);
    assert!(
        events.iter().all(|event| Arc::strong_count(event) == 1),
        "the group dropped, and every share with it"
    );
    Soak {
        transport,
        brokers: summed,
        dedup_lens,
        shares_at_shutdown,
    }
}

fn soak_reconciles<F: ProtocolFactory>()
where
    F::Process: 'static,
{
    let kept = soak::<F>(false);
    let retired = soak::<F>(true);
    let brokers = SOAK_SIDE.pow(2) as u64;
    // (a) Every frame is accounted for: with no loss and no crash, each
    // one sent was handled as a first receipt or dropped as a duplicate,
    // and everybody but the publisher first-received every event once.
    let frames = kept.transport;
    assert_eq!(
        (frames.frames_lost, frames.frames_to_crashed, frames.in_flight),
        (0, 0, 0)
    );
    assert_eq!(
        kept.brokers.frames_handled + kept.brokers.frames_deduped,
        frames.frames_sent,
        "handled + deduped == sent: {kept_stats:?} vs {frames:?}",
        kept_stats = kept.brokers
    );
    assert_eq!(kept.brokers.frames_handled, (brokers - 1) * SOAK_EVENTS);
    assert_eq!(kept.brokers.published, SOAK_EVENTS);
    // (b) Retirement suppressed nothing: every counter is the same.
    assert_eq!(retired.transport, kept.transport);
    assert_eq!(retired.brokers, kept.brokers);
    // (c) ...and only freed memory.
    for (process, (&bounded, &unbounded)) in
        retired.dedup_lens.iter().zip(&kept.dedup_lens).enumerate()
    {
        assert!(
            bounded <= 4 * LAG,
            "process {process}: {bounded} ids held with a retire lag of {LAG}"
        );
        assert!(
            unbounded >= SOAK_EVENTS as usize,
            "process {process}: {unbounded} ids held without retirement"
        );
    }
    // (d) Content memory is flat too: without retirement the store keeps
    // every event until the group drops; with it, the store has let go of
    // every event more than the lag below the last one.
    assert!(kept.shares_at_shutdown.iter().all(|&shares| shares == 2));
    let forgotten = (SOAK_EVENTS - 1 - LAG as u64) as usize;
    for (id, &shares) in retired.shares_at_shutdown[..forgotten].iter().enumerate() {
        assert_eq!(shares, 1, "event {id} is held beyond the soak's own handle");
    }
}

#[test]
fn pmcast_soak_accounts_for_every_frame_and_retirement_changes_no_counter() {
    soak_reconciles::<PmcastFactory>();
}

#[test]
fn flood_soak_accounts_for_every_frame_and_retirement_changes_no_counter() {
    soak_reconciles::<FloodFactory>();
}
