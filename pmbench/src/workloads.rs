//! The workload table: every shape the benchmark runs, as data.
//!
//! Names are fixed — later performance claims cite them.  Sizes are
//! fields, so a shape outside the contract (the 32⁴ sweep row, say) is one
//! edited literal away and never a code change.

use pmcast_core::{InterestRouting, PmcastConfig};
use pmcast_sim::scenario::{MembershipSpec, Scenario, TopicWorkload};

/// What one workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// The paper's Monte-Carlo trial: an `arity^depth` group, matching
    /// rate 0.5, loss 0.01, one event from one interested publisher.
    Sweep {
        /// Subgroups per level.
        arity: u32,
        /// Tree depth.
        depth: usize,
        /// The membership provider the fanout draws go through.
        membership: MembershipSpec,
        /// Trials whose outcomes make the simulated statistics and the
        /// outcome digest; timing goes on with further trials until the
        /// run's time is up.
        stat_trials: usize,
    },
    /// Heavy multi-topic traffic in a 4³ group over `delegate(4)`,
    /// loss-free, three subscriptions per process.
    Topics {
        /// Topics the group publishes over.
        topics: usize,
        /// Events per trial.
        events: usize,
        /// Rounds the publish schedule is spread over.
        publish_rounds: u64,
        /// How the fanout draw treats interest.
        routing: InterestRouting,
        /// As in [`Shape::Sweep`]: every trial draws new subscriptions for
        /// the 64 processes, and one draw alone moves the delivery ratio
        /// by several percent.
        stat_trials: usize,
    },
    /// The `pmcast-net` daemon of `examples/pubsub_stock_ticker.rs`: 5³
    /// brokers with ticker subscriptions, open-loop paced trades.
    Ticker {
        /// Trades offered per pass.
        trades: u64,
        /// Offered rate: trade `k` is due at `first + k / rate`.
        rate_per_s: u64,
    },
}

impl Shape {
    /// The scenario of a simulator workload (`None` for the ticker).
    pub fn scenario(&self, seed: u64) -> Option<Scenario> {
        let scenario = match *self {
            Shape::Sweep {
                arity,
                depth,
                membership,
                ..
            } => Scenario::builder()
                .group(arity, depth)
                .matching_rate(0.5)
                .loss(0.01)
                .membership(membership)
                .seed(seed)
                .build(),
            Shape::Topics {
                topics,
                events,
                publish_rounds,
                routing,
                ..
            } => Scenario::builder()
                .group(4, 3)
                .topics(TopicWorkload::new(topics, 3, events).with_publish_rounds(publish_rounds))
                .membership(MembershipSpec::delegate(4))
                .protocol(PmcastConfig::default().with_interest_routing(routing))
                .seed(seed)
                .build(),
            Shape::Ticker { .. } => return None,
        };
        Some(scenario)
    }

    /// Trials behind the simulated statistics (see [`Shape::Sweep`]).
    pub fn stat_trials(&self) -> usize {
        match *self {
            Shape::Sweep { stat_trials, .. } | Shape::Topics { stat_trials, .. } => stat_trials,
            Shape::Ticker { .. } => 1,
        }
    }
}

/// One named workload: the contract shape, the reason it exists, and the
/// same shape at smoke-test size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The fixed name.
    pub name: &'static str,
    /// Why the workload is here, in one line.
    pub why: &'static str,
    /// The shape the contract runs.
    pub shape: Shape,
    /// The shape `tests/pmbench_smoke.rs` runs.
    pub smoke: Shape,
}

fn sweep(arity: u32, depth: usize, membership: MembershipSpec, stat_trials: usize) -> Shape {
    Shape::Sweep {
        arity,
        depth,
        membership,
        stat_trials,
    }
}

fn topics(topics: usize, events: usize, routing: InterestRouting, stat_trials: usize) -> Shape {
    Shape::Topics {
        topics,
        events,
        // 40 publications a round, as in `examples/topic_sweep.rs`.
        publish_rounds: events as u64 / 40,
        routing,
        stat_trials,
    }
}

/// Every workload of the benchmark, in `BENCHMARK.json` order.
pub fn all() -> [Workload; 8] {
    let delegate = MembershipSpec::delegate(3);
    let lazy = MembershipSpec::delegate_lazy(3);
    [
    Workload {
        name: "paper_global",
        why: "paper-scale trial (22^3, global membership): step, group build and teardown dominate, the membership layer is bypassed",
        shape: sweep(22, 3, MembershipSpec::Global, 40),
        smoke: sweep(8, 3, MembershipSpec::Global, 2),
    },
    Workload {
        name: "paper_delegate",
        why: "same trial over delegate(3) tables: membership gossip rounds and knows_at_depth probes do most of the work",
        shape: sweep(22, 3, delegate, 8),
        smoke: sweep(8, 3, delegate, 2),
    },
    Workload {
        name: "large_global",
        why: "16^4 processes, global membership: the arena outgrows the private caches, so per-message cost, layout and peak memory show here",
        shape: sweep(16, 4, MembershipSpec::Global, 4),
        smoke: sweep(8, 3, MembershipSpec::Global, 1),
    },
    Workload {
        name: "large_lazy",
        why: "16^4 over the lazy delegate provider: no bootstrap, no gossip, arithmetic per probe inside step; the eager tables' control",
        shape: sweep(16, 4, lazy, 2),
        smoke: sweep(8, 3, lazy, 1),
    },
    Workload {
        name: "topics_summary",
        why: "heavy multi-topic traffic in a cache-resident 4^3 group, summary routing: veto, id-set dedup, audiences, delivery scan",
        shape: topics(50, 2_000, InterestRouting::Summary, 20),
        smoke: topics(12, 300, InterestRouting::Summary, 2),
    },
    Workload {
        name: "topics_blind",
        why: "same events with the summary veto bypassed: a veto fix must leave this flat, a scan fix moves both",
        shape: topics(50, 2_000, InterestRouting::Blind, 20),
        smoke: topics(12, 300, InterestRouting::Blind, 2),
    },
    Workload {
        name: "ticker_steady",
        why: "pmcast-net daemon at a sustainable 500 trades/s: tick-dominated cost, correctness of the async engine in normal operation",
        shape: Shape::Ticker {
            trades: 500,
            rate_per_s: 500,
        },
        smoke: Shape::Ticker {
            trades: 200,
            rate_per_s: 500,
        },
    },
    Workload {
        name: "ticker_overload",
        why: "same daemon offered 5000 trades/s, past capacity: mailbox drops and publisher backpressure dominate",
        shape: Shape::Ticker {
            trades: 5_000,
            rate_per_s: 5_000,
        },
        smoke: Shape::Ticker {
            trades: 200,
            rate_per_s: 5_000,
        },
    },
]
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|workload| workload.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_scenarios_build() {
        let workloads = all();
        for (index, workload) in workloads.iter().enumerate() {
            assert_eq!(find(workload.name), Some(*workload));
            assert!(workloads[..index].iter().all(|w| w.name != workload.name));
            for shape in [workload.shape, workload.smoke] {
                let is_ticker = matches!(shape, Shape::Ticker { .. });
                assert_eq!(shape.scenario(7).is_none(), is_ticker);
            }
        }
    }
}
