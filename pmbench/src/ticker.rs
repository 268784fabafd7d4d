//! The ticker workloads: the `pmcast-net` daemon of
//! `examples/pubsub_stock_ticker.rs --daemon` under an open-loop trade
//! feed, with the correctness check the example never made.
//!
//! Trade `k` is due at `first + k · period` whatever happened to trade
//! `k − 1`; lag is measured from the due time, so a stall charges every
//! trade it delays.

use std::sync::Arc;
use std::time::Duration;

use pmcast_addr::AddressSpace;
use pmcast_core::{MulticastReport, PmcastConfig, PmcastFactory, ProtocolFactory};
use pmcast_interest::{Event, Interest};
use pmcast_membership::{GlobalOracleView, GroupTree, TreeTopology};
use pmcast_net::{NetConfig, NetGroup, NetProcessStats, TransportStats};
use pmcast_sim::workload::{ticker_event, ticker_subscription};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use smol::{LocalExecutor, Timer};

use crate::host::cpu_seconds;
use crate::trace::Tracer;

/// The daemon's gossip period; a trade admitted within one period of its
/// due time is on time.
pub const GOSSIP_PERIOD: Duration = Duration::from_millis(2);

/// The generated inputs of one pass: who subscribes to what, and the
/// trade stream with its publishers.
#[derive(Debug, Clone)]
pub struct Feed {
    /// The 5³ brokers with their subscriptions; doubles as the interest
    /// oracle.
    pub tree: Arc<GroupTree>,
    /// `(publishing broker, trade)` in due order.
    pub trades: Vec<(usize, Arc<Event>)>,
    seed: u64,
}

impl Feed {
    /// Derives subscriptions, trades and publishers from `seed`.
    pub fn generate(seed: u64, trades: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let space = AddressSpace::regular(3, 5).expect("5^3 is a valid shape");
        let mut tree = GroupTree::new(space.clone());
        for address in space.iter() {
            tree.join(address, ticker_subscription(&mut rng))
                .expect("every address joins once");
        }
        let brokers = tree.member_count();
        let trades = (0..trades)
            .map(|id| {
                let trade = Arc::new(ticker_event(id, &mut rng));
                (rng.gen_range(0..brokers), trade)
            })
            .collect();
        Feed {
            tree: Arc::new(tree),
            trades,
            seed,
        }
    }

    /// The same brokers offered only the first `trades` trades.
    pub fn prefix(&self, trades: usize) -> Self {
        Feed {
            tree: Arc::clone(&self.tree),
            trades: self.trades[..trades.min(self.trades.len())].to_vec(),
            seed: self.seed,
        }
    }
}

/// When one publish was due, called and admitted, as offsets from the
/// executor's start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishTimes {
    /// `first + k · period`.
    pub due: Duration,
    /// When `NetGroupHandle::publish` was called.
    pub called: Duration,
    /// When it returned.
    pub admitted: Duration,
}

/// Everything one pass measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Trades `NetGroupHandle::publish` admitted.
    pub admitted: u64,
    /// Trades refused, never offered after a refusal, or delivered by a
    /// broker whose filter rejects them.
    pub failed: u64,
    /// First due time → quiescence.
    pub dissemination_s: f64,
    /// Delivery classification over all admitted trades, from the
    /// brokers' shutdown states.
    pub report: MulticastReport,
    /// The transport's counters at shutdown.
    pub transport: TransportStats,
    /// The brokers' counters, summed.
    pub brokers: NetProcessStats,
    /// Per-trade timestamps, in due order.
    pub publishes: Vec<PublishTimes>,
    /// `NetGroup::spawn`.
    pub spawn_s: f64,
    /// Last admission → quiescence.
    pub drain_s: f64,
    /// `NetGroup::shutdown`.
    pub shutdown_s: f64,
    /// Spawn → shutdown, wall seconds.
    pub wall_s: f64,
    /// User plus system CPU seconds the process used over `wall_s`.
    pub cpu_s: f64,
}

impl Pass {
    /// Share of admitted trades admitted within one gossip period of
    /// their due time.
    pub fn on_time_ratio(&self) -> f64 {
        let on_time = self
            .publishes
            .iter()
            .filter(|times| times.admitted.saturating_sub(times.due) <= GOSSIP_PERIOD)
            .count();
        crate::metrics::ratio(on_time as f64, self.publishes.len() as f64)
    }
}

/// Runs `feed` through a freshly spawned daemon at `rate_per_s`, waits for
/// quiescence, shuts down and checks who delivered what.  With a tracer,
/// files the pass's spans under operation id `pass`.
pub fn run_pass(feed: &Feed, rate_per_s: u64, pass: u64, tracer: Option<&mut Tracer>) -> Pass {
    let tree = &feed.tree;
    let brokers = tree.member_count();
    let config = PmcastConfig::default().with_fanout(3);
    let membership = Arc::new(GlobalOracleView::new(brokers));
    let group = PmcastFactory::build(tree.as_ref(), tree.clone(), membership.clone(), &config);
    let net_config = NetConfig::default()
        .with_gossip_period(GOSSIP_PERIOD)
        .with_mailbox_capacity(256)
        .with_seen_capacity(4096)
        .with_seed(feed.seed);
    let period = Duration::from_nanos(1_000_000_000 / rate_per_s.max(1));

    let base_ns = tracer.as_ref().map_or(0, |tracer| tracer.now_ns());
    let cpu_before = cpu_seconds();
    // Wall clock on purpose: the daemon's real publish rate is the metric.
    let executor = LocalExecutor::new();
    let spawn_started = executor.now();
    let net = NetGroup::spawn(&executor, group.processes, membership, &net_config);
    let spawned = executor.now();
    let handle = net.handle().clone();
    let observer = handle.clone();

    let (publishes, refused, first_due, quiesced, shut_down, reports) = executor.run(async move {
        let mut publishes = Vec::with_capacity(feed.trades.len());
        let mut refused = false;
        let first_due = smol::now();
        for (k, (publisher, trade)) in feed.trades.iter().enumerate() {
            let due = first_due + period * (k as u32);
            Timer::at(due).await;
            let called = smol::now();
            if handle.publish(*publisher, Arc::clone(trade)).await.is_err() {
                refused = true;
                break;
            }
            publishes.push(PublishTimes {
                due,
                called,
                admitted: smol::now(),
            });
        }
        while !handle.is_quiescent() {
            Timer::after(GOSSIP_PERIOD).await;
        }
        let quiesced = smol::now();
        let reports = net.shutdown().await;
        (
            publishes,
            refused,
            first_due,
            quiesced,
            smol::now(),
            reports,
        )
    });
    let cpu_s = cpu_seconds() - cpu_before;
    assert_eq!(reports.len(), brokers, "every broker reports on shutdown");

    // Correctness: nobody delivered a trade their subscription rejects.
    let admitted = &feed.trades[..publishes.len()];
    let mut failed = if refused {
        (feed.trades.len() - publishes.len()) as u64
    } else {
        0
    };
    for (_, trade) in admitted {
        let wrongly_delivered = reports.iter().any(|report| {
            report.state.has_delivered(trade.id())
                && !tree
                    .subscription(report.state.address())
                    .expect("every broker is a member")
                    .matches(trade)
        });
        if wrongly_delivered {
            failed += 1;
        }
    }
    let mut report = MulticastReport::default();
    for event_report in MulticastReport::collect_per_event(
        admitted.iter().map(|(_, trade)| trade.as_ref()),
        reports.iter().map(|report| &report.state),
        tree.as_ref(),
    ) {
        report.merge(&event_report);
    }
    let brokers_total = reports
        .iter()
        .fold(NetProcessStats::default(), |mut total, report| {
            total.ticks += report.stats.ticks;
            total.frames_handled += report.stats.frames_handled;
            total.frames_deduped += report.stats.frames_deduped;
            total.published += report.stats.published;
            total
        });

    let last_admitted = publishes.last().map_or(first_due, |times| times.admitted);
    if let Some(tracer) = tracer {
        let at = |offset: Duration| base_ns + offset.as_nanos() as u64;
        let root = tracer.record("net.pass", pass, at(spawn_started), at(shut_down), None);
        tracer.record(
            "net.spawn",
            pass,
            at(spawn_started),
            at(spawned),
            Some(root),
        );
        for times in &publishes {
            tracer.record(
                "net.publish",
                pass,
                at(times.called),
                at(times.admitted),
                Some(root),
            );
        }
        tracer.record(
            "net.drain",
            pass,
            at(last_admitted),
            at(quiesced),
            Some(root),
        );
        tracer.record(
            "net.shutdown",
            pass,
            at(quiesced),
            at(shut_down),
            Some(root),
        );
    }

    Pass {
        admitted: publishes.len() as u64,
        failed,
        dissemination_s: (quiesced - first_due).as_secs_f64(),
        report,
        transport: observer.stats(),
        brokers: brokers_total,
        publishes,
        spawn_s: (spawned - spawn_started).as_secs_f64(),
        drain_s: (quiesced - last_admitted).as_secs_f64(),
        shutdown_s: (shut_down - quiesced).as_secs_f64(),
        wall_s: (shut_down - spawn_started).as_secs_f64(),
        cpu_s,
    }
}
