//! One module per evaluation figure / claim of the paper.
//!
//! Every experiment comes in two profiles:
//!
//! * [`Profile::Quick`] — a small group (a = 6, d = 3, n = 216) and few
//!   trials, fast enough for unit tests and CI smoke runs;
//! * [`Profile::Paper`] — the configuration of the paper's evaluation
//!   (a = 22, d = 3, n = 10 648 for the reliability figures), used by the
//!   `figures` binary under `--paper`.
//!
//! Each module exposes a `run(profile)` function returning typed rows that
//! implement [`crate::report::FigureRow`], so results can be printed, saved
//! as CSV and compared against the paper's curves (the `figures` binary is
//! the regenerator).

pub mod baselines;
pub mod reliability;
pub mod rounds;
pub mod scalability;
pub mod spurious;
pub mod tuning;
pub mod views;

use serde::{Deserialize, Serialize};

use crate::runner::{AggregateOutcome, Protocol};
use crate::scenario::{Scenario, ScenarioBuilder};

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Profile {
    /// Small group, few trials: fast, used by tests and CI smoke runs.
    Quick,
    /// Paper-scale group and trial counts (minutes of runtime).
    Paper,
}

impl Profile {
    /// Base configuration for the reliability-style experiments
    /// (Figures 4, 5 and 7).
    pub fn reliability_base(self) -> ScenarioBuilder {
        match self {
            Profile::Quick => Scenario::quick().trials(3),
            Profile::Paper => Scenario::paper_reliability().trials(5),
        }
    }

    /// Base configuration for the scalability experiment (Figure 6); the
    /// arity is set per data point.
    pub fn scalability_base(self, arity: u32) -> ScenarioBuilder {
        match self {
            Profile::Quick => Scenario::quick()
                .group(arity, 3)
                .trials(3)
                .protocol(pmcast_core::PmcastConfig::paper_scalability()),
            Profile::Paper => Scenario::paper_scalability(arity).trials(5),
        }
    }

    /// The matching rates swept by the reliability experiments.
    pub fn matching_rates(self) -> Vec<f64> {
        match self {
            Profile::Quick => vec![0.1, 0.3, 0.5, 0.8],
            Profile::Paper => vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        }
    }

    /// The subgroup sizes swept by the scalability experiment.
    pub fn arities(self) -> Vec<u32> {
        match self {
            Profile::Quick => vec![4, 6, 8],
            Profile::Paper => vec![10, 15, 20, 25, 30, 35, 40],
        }
    }
}

/// Runs all trials of one sweep point on all available cores and
/// aggregates them — the entry point every experiment module goes through.
fn run_point(scenario: &Scenario, protocol: Protocol) -> AggregateOutcome {
    AggregateOutcome::from_trials(&scenario.run_parallel(protocol))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_produce_consistent_configs() {
        let quick = Profile::Quick.reliability_base().build();
        assert_eq!(quick.group_size(), 216);
        let paper = Profile::Paper.reliability_base().build();
        assert_eq!(paper.group_size(), 10_648);
        assert_eq!(paper.protocol.redundancy, 3);
        assert_eq!(paper.protocol.fanout, 2);

        let scal = Profile::Paper.scalability_base(25).build();
        assert_eq!(scal.arity, 25);
        assert_eq!(scal.protocol.redundancy, 4);
        assert_eq!(scal.protocol.fanout, 3);
        let scal_quick = Profile::Quick.scalability_base(4).build();
        assert_eq!(scal_quick.group_size(), 64);
        assert_eq!(scal_quick.protocol.fanout, 3);

        assert!(Profile::Paper.matching_rates().len() > Profile::Quick.matching_rates().len());
        assert!(Profile::Paper.arities().len() > Profile::Quick.arities().len());
    }
}
