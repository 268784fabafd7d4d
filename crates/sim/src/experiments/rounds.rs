//! **Round-count validation** (Equations 3, 11 and 13) — the number of
//! rounds the simulated protocol takes to go quiescent, compared with the
//! analytical budget `T_tot = Σ_i T_f(m_i·p_i, F·p_i)`.
//!
//! The paper notes (Section 4.3) that thanks to the delegates already being
//! infected when a depth starts, the tree costs roughly as many rounds as a
//! flat group of the same size; the rows therefore also carry the flat
//! estimate `T_f(n, F)` for comparison.

use serde::{Deserialize, Serialize};

use pmcast_analysis::{pittel, tree::TreeModel, GroupParams};

use crate::report::FigureRow;
use crate::runner::Protocol;

use super::{run_point, Profile};

/// One data point of the round-count validation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundsRow {
    /// Fraction of interested processes.
    pub matching_rate: f64,
    /// Mean simulated rounds until the whole group went quiescent.
    pub rounds_simulated: f64,
    /// Analytical per-depth budget summed over depths (Equation 13).
    pub rounds_budget_tree: f64,
    /// Pittel's flat-group estimate `T_f(n·p_d, F·p_d)` (Equation 11).
    pub rounds_flat_estimate: f64,
}

impl FigureRow for RoundsRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "matching_rate",
            "rounds_simulated",
            "rounds_budget_tree",
            "rounds_flat_estimate",
        ]
    }
    fn values(&self) -> Vec<f64> {
        vec![
            self.matching_rate,
            self.rounds_simulated,
            self.rounds_budget_tree,
            self.rounds_flat_estimate,
        ]
    }
}

/// Runs the round-count validation for the given profile.
pub fn run(profile: Profile) -> Vec<RoundsRow> {
    let builder = profile.reliability_base();
    let base = builder.clone().build();
    let model = TreeModel::new(
        GroupParams {
            arity: base.arity,
            depth: base.depth,
            redundancy: base.protocol.redundancy,
            fanout: base.protocol.fanout,
        },
        base.protocol.env,
    );
    profile
        .matching_rates()
        .into_iter()
        .map(|matching_rate| {
            let point = builder.clone().matching_rate(matching_rate).build();
            let outcome = run_point(&point, Protocol::Pmcast);
            let n = base.group_size() as f64;
            let flat = pittel::rounds_estimate_faulty(
                n * matching_rate,
                base.protocol.fanout as f64 * matching_rate,
                &base.protocol.env,
            );
            RoundsRow {
                matching_rate,
                rounds_simulated: outcome.rounds_mean,
                rounds_budget_tree: model.total_rounds(matching_rate) as f64,
                rounds_flat_estimate: flat,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_rounds_stay_within_the_analytical_budget() {
        let rows = run(Profile::Quick);
        assert_eq!(rows.len(), Profile::Quick.matching_rates().len());
        for row in &rows {
            assert!(row.rounds_simulated > 0.0);
            assert!(row.rounds_budget_tree > 0.0);
            // The protocol bounds gossiping by the analytical budget, so the
            // simulation cannot exceed it by more than the quiescence slack
            // (promotion happens one round after the budget expires at each
            // depth, plus one trailing delivery round).
            let slack = 2.0 * 3.0 + 2.0;
            assert!(
                row.rounds_simulated <= row.rounds_budget_tree + slack,
                "p_d = {}: simulated {} vs budget {}",
                row.matching_rate,
                row.rounds_simulated,
                row.rounds_budget_tree
            );
            // Rounds grow logarithmically, not linearly, with the audience.
            assert!(row.rounds_budget_tree < 80.0);
            assert!(row.rounds_flat_estimate.is_finite());
        }
    }
}
