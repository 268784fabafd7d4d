//! Content-based publish/subscribe: a stock-ticker feed disseminated with
//! pmcast.
//!
//! Every process subscribes with a real attribute filter ("trades of NESN
//! or ROG above 120.0", in the style of the paper's Figure 2); the exchange
//! publishes a stream of trade events and pmcast routes each of them only
//! towards the subtrees containing matching subscribers.
//!
//! Two modes:
//!
//! ```text
//! cargo run --example pubsub_stock_ticker              # one-shot simulator burst
//! cargo run --example pubsub_stock_ticker -- --daemon  # long-running pmcast-net feed
//! ```
//!
//! `--daemon` runs the same group as long-lived broker tasks on the
//! `pmcast-net` async runtime: a sustained publish loop paces trades into
//! the group through bounded mailboxes (publishers wait under
//! backpressure; gossip overflow drops with a counter), until `--trades N`
//! (default 2000) have been served or Ctrl-C asks for a graceful
//! shutdown.  It ends with an events/sec summary line.

use std::error::Error;
use std::sync::Arc;

use pmcast::sim::workload::{ticker_event, ticker_subscription};
use pmcast::{
    AddressSpace, Event, GlobalOracleView, GroupTree, Interest, MulticastReport, NetworkConfig,
    PmcastConfig, PmcastFactory, ProcessId, ProtocolFactory, Simulation, TreeTopology,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Cooperative Ctrl-C: the handler flips a flag the daemon's publish loop
/// polls between trades, so teardown always goes through the graceful
/// `NetGroup::shutdown` path.
mod ctrl_c {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);

    pub fn requested() -> bool {
        STOP.load(Ordering::Relaxed)
    }

    #[cfg(unix)]
    pub fn install() {
        const SIGINT: i32 = 2;
        extern "C" fn on_sigint(_signum: i32) {
            STOP.store(true, Ordering::Relaxed);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut daemon = false;
    let mut trades: u64 = 2000;
    let mut period_us: u64 = 200;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--daemon" => daemon = true,
            "--trades" => trades = args.next().and_then(|v| v.parse().ok()).unwrap_or(trades),
            "--period-us" => {
                period_us = args.next().and_then(|v| v.parse().ok()).unwrap_or(period_us)
            }
            other => {
                eprintln!("unknown argument {other}; usage: [--daemon] [--trades N] [--period-us N]");
                std::process::exit(2);
            }
        }
    }
    if daemon {
        run_daemon(trades, period_us)
    } else {
        run_simulated_burst()
    }
}

/// Builds the 125-broker group with per-process ticker subscriptions; the
/// [`GroupTree`] doubles as the interest oracle.
fn build_feed(rng: &mut ChaCha8Rng) -> Result<Arc<GroupTree>, Box<dyn Error>> {
    let space = AddressSpace::regular(3, 5)?;
    let mut tree = GroupTree::new(space.clone());
    for address in space.iter() {
        tree.join(address, ticker_subscription(rng))?;
    }
    Ok(Arc::new(tree))
}

/// The original one-shot mode: a burst of trades through the
/// round-synchronous simulator.
fn run_simulated_burst() -> Result<(), Box<dyn Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(2026);

    // 1. Build an explicit membership: 125 brokers in a depth-3 tree, each
    //    with its own content-based subscription.
    let tree = build_feed(&mut rng)?;
    println!("{} brokers joined the feed", tree.member_count());

    // A look at one broker's view sizes (the Figure 2 structure).
    let sample_broker: pmcast::Address = "2.3.1".parse()?;
    println!(
        "broker {sample_broker} knows {} processes across {} depths (flat membership would need {})\n",
        tree.knowledge_size(&sample_broker, 3),
        tree.depth(),
        tree.member_count()
    );

    // 2. Build the pmcast group; the GroupTree doubles as the interest
    //    oracle since it holds every subscription.
    let config = PmcastConfig::default().with_fanout(3);
    let membership = Arc::new(GlobalOracleView::new(tree.member_count()));
    let group = PmcastFactory::build(tree.as_ref(), tree.clone(), membership, &config);
    let mut sim = Simulation::new(
        group.processes,
        NetworkConfig::default().with_loss(0.01).with_seed(11),
    );

    // 3. Publish a burst of trades from random brokers.
    let trades: Vec<Event> = (0..5).map(|i| ticker_event(i, &mut rng)).collect();
    for trade in &trades {
        let publisher = ProcessId(rng.gen_range(0..tree.member_count()));
        sim.process_mut(publisher).pmcast(trade.clone());
        println!("published {trade}");
    }
    let rounds = sim.run_until_quiescent(400);
    println!("\nfeed quiescent after {rounds} rounds, {} messages\n", sim.stats().messages_sent);

    // 4. Per-trade delivery report.
    for trade in &trades {
        let report = MulticastReport::collect(trade, sim.processes(), tree.as_ref());
        println!(
            "trade {:>3}: {:3} subscribers, {:3} delivered ({:.2}), {:3} non-subscribers received ({:.2})",
            trade.id().to_string(),
            report.interested,
            report.delivered_interested,
            report.delivery_ratio(),
            report.received_uninterested,
            report.spurious_ratio()
        );
        // Sanity: nobody delivered a trade their filter rejects.
        for process in sim.processes() {
            if process.has_delivered(trade.id()) {
                let filter = tree.subscription(process.address()).expect("member");
                assert!(filter.matches(trade), "spurious delivery at {}", process.address());
            }
        }
    }
    Ok(())
}

/// The long-running broker mode: the same feed as live `pmcast-net` tasks,
/// serving a sustained paced trade stream until `max_trades` or Ctrl-C.
fn run_daemon(max_trades: u64, period_us: u64) -> Result<(), Box<dyn Error>> {
    use std::time::{Duration, Instant};

    use pmcast::net::{NetConfig, NetGroup};
    use smol::{LocalExecutor, Timer};

    ctrl_c::install();
    let mut rng = ChaCha8Rng::seed_from_u64(2026);
    let tree = build_feed(&mut rng)?;
    let broker_count = tree.member_count();
    println!("{broker_count} brokers serving the feed as pmcast-net tasks (Ctrl-C for graceful shutdown)");

    let config = PmcastConfig::default().with_fanout(3);
    let membership = Arc::new(GlobalOracleView::new(broker_count));
    let group = PmcastFactory::build(tree.as_ref(), tree.clone(), membership.clone(), &config);
    let net_config = NetConfig::default()
        .with_gossip_period(Duration::from_millis(2))
        .with_mailbox_capacity(256)
        .with_seen_capacity(4096)
        .with_seed(11);

    // Wall clock on purpose: the daemon reports a real publish rate.
    let executor = LocalExecutor::new();
    let net = NetGroup::spawn(&executor, group.processes, membership, &net_config);
    let handle = net.handle().clone();
    let observer = handle.clone();
    let period = Duration::from_micros(period_us.max(1));
    let started = Instant::now();

    let (published, reports) = executor.run(async move {
        let mut published: u64 = 0;
        let first_deadline = smol::now();
        while published < max_trades && !ctrl_c::requested() {
            // Drift-free pacing: trade k is due at `first + k * period`.
            Timer::at(first_deadline + period * (published as u32)).await;
            let trade = Arc::new(ticker_event(published, &mut rng));
            let publisher = rng.gen_range(0..broker_count);
            if handle.publish(publisher, trade).await.is_err() {
                break;
            }
            published += 1;
        }
        // Let the last trades disseminate before tearing down.
        while !handle.is_quiescent() && !ctrl_c::requested() {
            Timer::after(Duration::from_millis(2)).await;
        }
        (published, net.shutdown().await)
    });
    let elapsed = started.elapsed();

    assert_eq!(reports.len(), broker_count, "every broker reports on shutdown");
    let (ticks, frames, deduped) = reports
        .iter()
        .fold((0u64, 0u64, 0u64), |(ticks, frames, deduped), report| {
            (
                ticks + report.stats.ticks,
                frames + report.stats.frames_handled,
                deduped + report.stats.frames_deduped,
            )
        });
    let transport = observer.stats();
    let events_per_sec = published as f64 / elapsed.as_secs_f64();
    println!(
        "served {published} trades in {:.2}s: {events_per_sec:.0} events/sec \
         ({ticks} gossip ticks, {frames} frames handled, {deduped} deduped by the Seen ring)",
        elapsed.as_secs_f64(),
    );
    println!(
        "transport: {} frames sent, {} dropped at full mailboxes, peak {} in flight",
        transport.frames_sent, transport.frames_dropped, transport.peak_in_flight
    );
    Ok(())
}
