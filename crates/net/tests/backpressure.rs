//! Backpressure and teardown edges of the async runtime, all under the
//! deterministic executor: a full mailbox makes publishers *wait* (never
//! drops a command), gossip frames beyond capacity drop with a counter,
//! shutdown with events still in flight terminates cleanly, and a
//! crash-mid-stream stops one process dead without taking the run down —
//! also under a publish that is waiting for its mailbox.

use std::future::{poll_fn, Future};
use std::pin::pin;
use std::sync::Arc;
use std::task::Poll;
use std::time::Duration;

use pmcast_addr::AddressSpace;
use pmcast_core::{
    FloodFactory, MulticastProtocol, PmcastConfig, ProtocolFactory, ProtocolGroup,
};
use pmcast_interest::Event;
use pmcast_membership::{
    AssignmentOracle, GlobalOracleView, ImplicitRegularTree, MembershipView, TreeTopology,
};
use pmcast_net::{NetConfig, NetGroup, PublishError};
use smol::{LocalExecutor, Timer};

const GROUP: usize = 8;

/// An 8-process flooding group where everyone is interested — every event
/// must reach every live process, which makes delivery assertions crisp.
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

#[test]
fn full_mailbox_makes_publishers_wait_not_drop() {
    // Mailbox capacity 1: a burst of publishes must queue behind
    // backpressure, every one completing once the consumer drains.
    let (group, membership) = flood_group();
    let config = NetConfig::default().with_mailbox_capacity(1).with_seed(3);
    let executor = LocalExecutor::deterministic(3);
    let net = NetGroup::spawn(&executor, group.processes, membership, &config);
    let handle = net.handle().clone();
    const EVENTS: u64 = 12;
    let reports = executor.run(async move {
        for id in 0..EVENTS {
            handle
                .publish(0, event(100 + id))
                .await
                .expect("live process accepts publishes under backpressure");
        }
        while !handle.is_quiescent() {
            Timer::after(Duration::from_millis(5)).await;
        }
        net.shutdown().await
    });
    // The publisher's commands are lossless — backpressure, not drops:
    // every publish completed and was processed.  (Gossip *frames* may
    // still drop through the tiny mailboxes; that lossy path is the next
    // test's subject.)
    assert_eq!(reports[0].stats.published, EVENTS, "no publish was dropped");
    for id in 0..EVENTS {
        assert!(
            reports[0].state.has_delivered(event(100 + id).id()),
            "the publisher delivers its own event {id} regardless of transport pressure"
        );
    }
}

#[test]
fn gossip_frames_beyond_capacity_drop_with_a_counter() {
    // Flooding 8 processes through capacity-1 mailboxes: the gossip storm
    // must overflow somewhere, and every overflow is counted, never
    // silently lost.  The run still terminates cleanly.
    let (group, membership) = flood_group();
    let config = NetConfig::default().with_mailbox_capacity(1).with_seed(5);
    let executor = LocalExecutor::deterministic(5);
    let net = NetGroup::spawn(&executor, group.processes, membership, &config);
    let handle = net.handle().clone();
    let (reports, stats) = executor.run(async move {
        for id in 0..4u64 {
            handle.publish(id as usize, event(200 + id)).await.unwrap();
        }
        while !handle.is_quiescent() {
            Timer::after(Duration::from_millis(5)).await;
        }
        let stats = handle.stats();
        (net.shutdown().await, stats)
    });
    assert_eq!(reports.len(), GROUP);
    assert!(
        stats.frames_dropped > 0,
        "a flood through capacity-1 mailboxes must overflow: {stats:?}"
    );
    assert_eq!(stats.in_flight, 0, "quiescence means nothing left in flight");
    // Flooding retransmits every round while buffered, so drops are
    // re-covered and delivery still completes.
    for report in &reports {
        assert!(report.state.has_delivered(event(200).id()));
    }
}

#[test]
fn shutdown_with_in_flight_events_terminates_cleanly() {
    // Shut down immediately after publishing, with gossip still in flight:
    // queued frames ahead of the shutdown frame are drained, every task
    // returns a report, nothing hangs (a hang would trip the executor's
    // deadlock panic).
    let (group, membership) = flood_group();
    let config = NetConfig::default().with_seed(7);
    let executor = LocalExecutor::deterministic(7);
    let net = NetGroup::spawn(&executor, group.processes, membership, &config);
    let handle = net.handle().clone();
    let reports = executor.run(async move {
        handle.publish(0, event(300)).await.unwrap();
        // One gossip period so the publish turns into in-flight frames.
        Timer::after(Duration::from_millis(12)).await;
        net.shutdown().await
    });
    assert_eq!(reports.len(), GROUP, "every task reports on shutdown");
    assert!(reports.iter().all(|r| !r.crashed));
    assert!(
        reports[0].stats.published == 1,
        "the pre-shutdown publish was processed"
    );
}

#[test]
fn crash_mid_stream_stops_one_process_without_taking_down_the_run() {
    let (group, membership) = flood_group();
    let config = NetConfig::default().with_seed(9);
    let executor = LocalExecutor::deterministic(9);
    let net = NetGroup::spawn(&executor, group.processes, Arc::clone(&membership), &config);
    let handle = net.handle().clone();
    const VICTIM: usize = 3;
    let (reports, stats) = executor.run(async move {
        handle.publish(0, event(400)).await.unwrap();
        // Let the dissemination start, then kill the victim mid-stream.
        Timer::after(Duration::from_millis(15)).await;
        handle.crash(VICTIM);
        membership.observe_crash(VICTIM);
        assert!(handle.is_crashed(VICTIM));
        assert_eq!(
            handle.publish(VICTIM, event(401)).await,
            Err(PublishError::Crashed),
            "publishing to a crashed process must fail fast"
        );
        while !handle.is_quiescent() {
            Timer::after(Duration::from_millis(5)).await;
        }
        let stats = handle.stats();
        (net.shutdown().await, stats)
    });
    assert!(reports[VICTIM].crashed, "the victim reports its crash");
    assert_eq!(reports.iter().filter(|r| r.crashed).count(), 1);
    assert_eq!(stats.in_flight, 0, "crashed frames are written off");
    for (index, report) in reports.iter().enumerate() {
        if index != VICTIM {
            assert!(
                !report.crashed,
                "process {index} must survive the victim's crash"
            );
            assert!(
                report.state.has_delivered(event(400).id()),
                "process {index} must still deliver around the crash"
            );
        }
    }
}

#[test]
fn crash_under_a_waiting_publish_keeps_the_in_flight_count() {
    // Capacity-1 mailboxes: the first publish fills the victim's mailbox
    // before its task runs, so the second waits on backpressure.  Crashing
    // the victim then writes both off; the waiting publish must fail
    // without un-counting its frame a second time.
    let (group, membership) = flood_group();
    let config = NetConfig::default().with_mailbox_capacity(1).with_seed(11);
    let executor = LocalExecutor::deterministic(11);
    let net = NetGroup::spawn(&executor, group.processes, Arc::clone(&membership), &config);
    let handle = net.handle().clone();
    const VICTIM: usize = 2;
    let (reports, stats) = executor.run(async move {
        handle.publish(VICTIM, event(500)).await.unwrap();
        let mut waiting = pin!(handle.publish(VICTIM, event(501)));
        poll_fn(|cx| {
            assert!(
                waiting.as_mut().poll(cx).is_pending(),
                "the second publish waits for the full mailbox"
            );
            Poll::Ready(())
        })
        .await;
        handle.crash(VICTIM);
        membership.observe_crash(VICTIM);
        assert_eq!(waiting.await, Err(PublishError::Crashed));
        assert_eq!(
            handle.stats().in_flight,
            0,
            "both frames were written off once, by the crash"
        );
        for _ in 0..100 {
            if handle.is_quiescent() {
                break;
            }
            Timer::after(Duration::from_millis(5)).await;
        }
        assert!(handle.is_quiescent(), "the group comes to rest");
        let stats = handle.stats();
        (net.shutdown().await, stats)
    });
    assert_eq!(stats.in_flight, 0);
    assert!(reports[VICTIM].crashed);
    assert_eq!(reports[VICTIM].stats.published, 0, "the victim never ran a publish");
}
