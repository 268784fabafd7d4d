//! **Figure 4** — probability that an *interested* process delivers a
//! multicast event, as a function of the fraction of interested processes
//! (`p_d`), for `n ≈ 10 000` (a = 22, d = 3), `R = 3`, `F = 2`.
//!
//! Each row carries both the Monte-Carlo result of the full protocol
//! simulation and the prediction of the analytical model of Section 4, so
//! that the two halves of the reproduction can be cross-checked.

use serde::{Deserialize, Serialize};

use pmcast_analysis::{tree::TreeModel, GroupParams};

use crate::report::FigureRow;
use crate::runner::Protocol;
use crate::scenario::Scenario;

use super::{run_point, Profile};

/// One data point of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityRow {
    /// Fraction of interested processes (`p_d`, the x-axis).
    pub matching_rate: f64,
    /// Simulated delivery probability for interested processes (y-axis).
    pub delivery_simulated: f64,
    /// Sample standard deviation across trials.
    pub delivery_std: f64,
    /// Analytical prediction (Equation 18 based reliability degree).
    pub delivery_analytical: f64,
    /// Mean rounds to quiescence in the simulation.
    pub rounds: f64,
}

impl FigureRow for ReliabilityRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "matching_rate",
            "delivery_simulated",
            "delivery_std",
            "delivery_analytical",
            "rounds",
        ]
    }
    fn values(&self) -> Vec<f64> {
        vec![
            self.matching_rate,
            self.delivery_simulated,
            self.delivery_std,
            self.delivery_analytical,
            self.rounds,
        ]
    }
}

fn analytical_model(config: &Scenario) -> TreeModel {
    TreeModel::new(
        GroupParams {
            arity: config.arity,
            depth: config.depth,
            redundancy: config.protocol.redundancy,
            fanout: config.protocol.fanout,
        },
        config.protocol.env,
    )
}

/// Runs the Figure 4 sweep for the given profile.
pub fn run(profile: Profile) -> Vec<ReliabilityRow> {
    let base = profile.reliability_base();
    let model = analytical_model(&base.clone().build());
    profile
        .matching_rates()
        .into_iter()
        .map(|matching_rate| {
            let config = base.clone().matching_rate(matching_rate).build();
            let outcome = run_point(&config, Protocol::Pmcast);
            let analytical = model.reliability(matching_rate);
            ReliabilityRow {
                matching_rate,
                delivery_simulated: outcome.delivery_mean,
                delivery_std: outcome.delivery_std,
                delivery_analytical: analytical.reliability_degree,
                rounds: outcome.rounds_mean,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_profile_reproduces_the_figure_4_shape() {
        let rows = run(Profile::Quick);
        assert_eq!(rows.len(), Profile::Quick.matching_rates().len());
        // Delivery is high for comfortable matching rates (the paper's
        // headline claim) …
        let at_half = rows.iter().find(|r| (r.matching_rate - 0.5).abs() < 1e-9).unwrap();
        assert!(
            at_half.delivery_simulated > 0.85,
            "simulated delivery at p_d = 0.5 is only {}",
            at_half.delivery_simulated
        );
        let at_high = rows.last().unwrap();
        assert!(at_high.delivery_simulated > 0.9);
        // … and the analytical model agrees with the simulation within a
        // coarse tolerance at the comfortable rates.
        assert!((at_half.delivery_simulated - at_half.delivery_analytical).abs() < 0.2);
        // Rows are ordered by matching rate.
        for pair in rows.windows(2) {
            assert!(pair[0].matching_rate < pair[1].matching_rate);
        }
    }

    #[test]
    fn rows_render_as_csv() {
        let rows = vec![ReliabilityRow {
            matching_rate: 0.5,
            delivery_simulated: 0.98,
            delivery_std: 0.01,
            delivery_analytical: 0.97,
            rounds: 20.0,
        }];
        let csv = crate::report::to_csv(&rows);
        assert!(csv.starts_with("matching_rate,"));
        assert!(csv.contains("0.980000"));
    }
}
