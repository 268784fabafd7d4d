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
//! shutdown.  It ends with an events/sec summary line.  A flag value that
//! is missing or not a number exits 2 with the usage line, like an unknown
//! flag.

use std::error::Error;
use std::sync::Arc;

use pmcast::sim::workload::{ticker_event, ticker_subscription};
use pmcast::{
    AddressSpace, Event, GlobalOracleView, GroupTree, Interest, MulticastProtocol,
    MulticastReport, NetworkConfig, PmcastConfig, PmcastFactory, ProcessId, ProtocolFactory,
    Simulation, TreeTopology,
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

const USAGE: &str = "usage: [--daemon] [--trades N] [--period-us N]";

/// What the command line asked for.
#[derive(Debug, PartialEq)]
struct Options {
    daemon: bool,
    trades: u64,
    period_us: u64,
}

/// Parses the flags; an unknown flag, a missing value or a value that is
/// not a number is an error, never a silent default.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options { daemon: false, trades: 2000, period_us: 200 };
    while let Some(arg) = args.next() {
        let target = match arg.as_str() {
            "--daemon" => {
                options.daemon = true;
                continue;
            }
            "--trades" => &mut options.trades,
            "--period-us" => &mut options.period_us,
            other => return Err(format!("unknown argument {other}")),
        };
        let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
        *target = value.parse().map_err(|_| format!("{arg} {value}: not a number"))?;
    }
    Ok(options)
}

fn main() -> Result<(), Box<dyn Error>> {
    let options = parse_args(std::env::args().skip(1)).unwrap_or_else(|problem| {
        eprintln!("{problem}; {USAGE}");
        std::process::exit(2);
    });
    if options.daemon {
        run_daemon(options.trades, options.period_us)
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
        // A daemon runs for as long as it is left running and reads no
        // delivery history after shutdown: dedup state is retired 4 096 ids
        // behind the newest, so its memory follows that lag, not uptime.
        .with_retire_quiescent(true)
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
    let dedup_ids = reports.iter().map(|report| report.state.dedup_len()).max().unwrap_or(0);
    let transport = observer.stats();
    let events_per_sec = published as f64 / elapsed.as_secs_f64();
    println!(
        "served {published} trades in {:.2}s: {events_per_sec:.0} events/sec \
         ({ticks} gossip ticks, {frames} frames handled, {deduped} duplicates dropped)",
        elapsed.as_secs_f64(),
    );
    println!(
        "transport: {} frames sent, {} dropped at full mailboxes, peak {} in flight",
        transport.frames_sent, transport.frames_dropped, transport.peak_in_flight
    );
    println!("dedup: at most {dedup_ids} ids held by a broker at shutdown (retirement keeps it proportional to the retire lag)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn flags_parse_and_bad_values_are_errors() {
        assert_eq!(parse(&[]), Ok(Options { daemon: false, trades: 2000, period_us: 200 }));
        assert_eq!(
            parse(&["--daemon", "--trades", "500", "--period-us", "50"]),
            Ok(Options { daemon: true, trades: 500, period_us: 50 })
        );
        assert!(parse(&["--trades", "abc"]).unwrap_err().contains("not a number"));
        assert!(parse(&["--period-us", "x"]).unwrap_err().contains("not a number"));
        assert!(parse(&["--trades"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--bogus"]).unwrap_err().contains("unknown argument"));
    }
}
